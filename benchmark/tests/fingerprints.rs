//! Pins each workload's inputs for seeds 42 and 7: every row and the first
//! 64 SQL strings. A change here moves every number the benchmark has ever
//! reported; it must be deliberate and bump `SCHEMA_VERSION`.

use trapp_benchmark::workload::{generate, SPECS};

const PINNED: [(&str, u64, u64); 10] = [
    ("hot_cache", 42, 0x4bb0_fcf5_b31c_f3b5),
    ("hot_cache", 7, 0x4ed5_26c4_35fd_4823),
    ("tight_refresh", 42, 0x3eac_1570_58f3_fc72),
    ("tight_refresh", 7, 0x6a9c_9212_7395_d27b),
    ("read_write_churn", 42, 0x681d_52c5_208a_150c),
    ("read_write_churn", 7, 0x8f88_dc33_f5da_b31e),
    ("scatter_mixed", 42, 0xa066_0901_1b41_187d),
    ("scatter_mixed", 7, 0x7f84_f407_be32_2e96),
    ("big_table", 42, 0xd9ba_90ba_3a43_cdab),
    ("big_table", 7, 0x9c37_bd03_fcf6_b5cd),
];

#[test]
fn inputs_have_not_drifted() {
    let actual: Vec<(&str, u64, u64)> = SPECS
        .iter()
        .flat_map(|spec| [42, 7].map(|seed| (spec.name, seed, generate(spec, seed).fingerprint())))
        .collect();
    assert_eq!(
        actual, PINNED,
        "generated inputs changed; if deliberate, pin the new values:\n{actual:#x?}"
    );
}

#[test]
fn the_first_queries_read_as_documented() {
    let w = generate(&SPECS[1], 42);
    let (_, q) = w.query_at(0);
    assert!(q.sql.starts_with("SELECT "), "{}", q.sql);
    assert!(q.sql.contains(" FROM metrics WHERE grp = "), "{}", q.sql);
    // The stream cycles.
    assert_eq!(w.query_at(5).1, w.query_at(5 + 4096).1);
}
