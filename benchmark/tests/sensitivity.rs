//! The "injected slowdown is caught and named by layer" check, from
//! outside the program: raising the simulated wire time from 200 to 500 µs
//! must be flagged on `tight_refresh` `p50_us`, attributed to
//! `service.fetch_us_per_query`, leave `refresh_cost_per_query` alone, and
//! not touch `hot_cache`. (The injection is sized to the `p50_us` bound: on
//! the shared reference box that bound is 25 %, and each 100 µs of wire
//! time moves the median by about 15 %.)
//!
//! Four `--quick` runs, about a minute: `cargo test -- --ignored`.

use std::path::{Path, PathBuf};
use std::process::Command;

use trapp_benchmark::compare::{bounds_from_json, compare, Status};
use trapp_benchmark::json::Json;
use trapp_benchmark::report::Report;

fn quick_run(workload: &str, rtt_us: &str, dir: &Path) -> Report {
    let path = dir.join(format!("{workload}-{rtt_us}.json"));
    let status = Command::new(env!("CARGO_BIN_EXE_trapp-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "42",
            "--quick",
            "--trace",
            "0",
        ])
        .args(["--rtt-us", rtt_us])
        .arg("--out-dir")
        .arg(dir)
        .arg("--json")
        .arg(&path)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("benchmark binary runs");
    assert!(status.success(), "{workload} at rtt {rtt_us} failed");
    Report::from_json(&Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()).unwrap()
}

#[test]
#[ignore = "four 10-second runs"]
fn more_wire_time_is_caught_and_named_by_layer() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("sensitivity");
    let bounds = bounds_from_json(
        &Json::parse(
            &std::fs::read_to_string(
                Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
            )
            .unwrap(),
        )
        .unwrap(),
    )
    .unwrap();

    let findings = compare(
        &quick_run("tight_refresh", "200", &dir),
        &quick_run("tight_refresh", "500", &dir),
        &bounds,
    );
    let finding = |metric: &str| findings.iter().find(|f| f.metric == metric).unwrap();
    let p50 = finding("p50_us");
    assert_eq!(p50.status, Status::Regressed, "{p50:?}");
    assert_eq!(
        p50.mover.as_ref().map(|m| m.name.as_str()),
        Some("service.fetch_us_per_query"),
        "{p50:?}"
    );
    assert_ne!(finding("refresh_cost_per_query").status, Status::Regressed);
    assert_eq!(finding("failed_fraction").status, Status::Unchanged);

    let findings = compare(
        &quick_run("hot_cache", "200", &dir),
        &quick_run("hot_cache", "500", &dir),
        &bounds,
    );
    let p50 = findings.iter().find(|f| f.metric == "p50_us").unwrap();
    assert_ne!(p50.status, Status::Regressed, "{p50:?}");
}
