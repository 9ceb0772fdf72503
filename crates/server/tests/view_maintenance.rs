//! Serving-layer acceptance for incremental band views: the service —
//! which plans every pass from memoized views, ordered indexes and probes —
//! must be **bit-identical** to the paper's own §4 loop
//! (`Simulation`: `QuerySession::execute`, which drives the scan reference
//! planner `plan_scan` — scan-built inputs and the scan CHOOSE_REFRESH,
//! sharing no code with the view path — through `QuerySession::drive`) under
//! random interleavings of master-value updates (which install
//! value-initiated refreshes), clock advances (which re-widen every
//! bound), and queries (whose query-initiated refreshes install between
//! the two plan passes) — on the direct transport *and* on the completion
//! transport, at one shard and at several.
//!
//! `grouped_queries_between_pinned_installs_match_simulation` is the
//! `hot_cache` pattern in small: a pinned query's fetch installs dirty
//! one group, and the `GROUP BY` and global queries that follow read
//! partitions repaired in place and answers memoized over the rest.

mod common;

use common::{loadgen_tables, run_reference, service_builder, Reference, STACKS};
use proptest::prelude::*;
use trapp_core::executor::QueryResult;
use trapp_server::{ServiceConfig, ServiceReply};
use trapp_types::ObjectId;
use trapp_workload::loadgen::{self, LoadConfig};

fn assert_results_match(a: &QueryResult, b: &QueryResult, context: &str) -> Result<(), String> {
    prop_assert_eq!(a.answer.range, b.answer.range, "answer for {}", context);
    prop_assert_eq!(
        a.initial_answer.range,
        b.initial_answer.range,
        "initial for {}",
        context
    );
    prop_assert_eq!(a.satisfied, b.satisfied, "{}", context);
    prop_assert_eq!(&a.refreshed, &b.refreshed, "refresh set for {}", context);
    prop_assert_eq!(a.refresh_cost, b.refresh_cost, "cost for {}", context);
    Ok(())
}

fn assert_reply_matches_reference(
    reply: &ServiceReply,
    reference: &Reference,
    context: &str,
) -> Result<(), String> {
    let (scalar, groups) = reference;
    if let Some(scalar) = scalar {
        assert_results_match(&reply.result, scalar, context)?;
    }
    prop_assert_eq!(reply.groups.len(), groups.len(), "groups for {}", context);
    for (ga, gb) in reply.groups.iter().zip(groups) {
        prop_assert_eq!(&ga.key, &gb.key, "group key for {}", context);
        assert_results_match(&ga.result, &gb.result, context)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The view-planned service and the scan-planned §4 loop stay
    /// bit-identical while refresh installs (query- and value-initiated),
    /// update batches, and clock advances interleave with the query
    /// stream, on both transports.
    #[test]
    fn view_planning_is_bit_identical_to_scans_under_interleaving(
        seed in 0u64..1000,
        groups in 2usize..8,
        rows_per_group in 1usize..4,
        sources in 1usize..4,
        shards in 1usize..4,
        update_gap in 2usize..5,
        advance_gap in 4usize..8,
    ) {
        let w = loadgen::generate(&LoadConfig {
            seed,
            groups,
            rows_per_group,
            sources,
            queries: 20,
            global_fraction: 0.3,
            grouped_fraction: 0.2,
            ..LoadConfig::default()
        });
        let config = ServiceConfig {
            workers: 1,
            shards,
            ..ServiceConfig::default()
        };
        for stack in STACKS {
            let builder = service_builder(loadgen_tables(&w), config).partition_by("grp");
            let service = stack.build(builder, std::time::Duration::ZERO);
            let mut reference = common::reference(loadgen_tables(&w), sources);
            for (i, q) in w.queries.iter().enumerate() {
                if i % advance_gap == 0 {
                    service.advance_clock(25.0);
                    reference.clock.advance(25.0);
                }
                if i % update_gap == 0 && !w.rows.is_empty() {
                    // A deterministic update batch: walk a few masters.
                    let batch: Vec<(ObjectId, f64)> = (0..3)
                        .map(|k| {
                            let row = (seed as usize + i + k) % w.rows.len();
                            let v = 50.0 + ((seed + i as u64 * 7 + k as u64) % 50) as f64;
                            (ObjectId::new(row as u64 + 1), v)
                        })
                        .collect();
                    let da = service.apply_update_batch(&batch).unwrap();
                    let db: usize = batch
                        .iter()
                        .map(|&(object, v)| reference.apply_update(object, v).unwrap())
                        .sum();
                    prop_assert_eq!(da, db, "update delivery diverged at query {}", i);
                }
                let reply = service.query(&q.sql).unwrap();
                assert_reply_matches_reference(
                    &reply,
                    &run_reference(&mut reference, &q.sql),
                    &format!("query {i} ({:?}, {shards} shards): {}", stack, q.sql),
                )?;
            }
        }
    }
}

/// More distinct pinned views than one shard's view cache retains (256,
/// `MAX_VIEWS` in `trapp_core::view`), swept round-robin — the LRU's worst
/// case, so every later visit finds its view evicted and re-enters through
/// the index-driven build — while clock advances (between sweeps and
/// within them) and master updates keep the table moving underneath. The
/// service brings current only the group each pinned plan reads, the §4
/// loop every row before every query: every answer must still be equal,
/// on both stacks at 1–3 shards.
#[test]
fn evicted_pinned_views_reenter_bit_identical() {
    const PINS: usize = 300;
    let w = loadgen::generate(&LoadConfig {
        seed: 11,
        groups: PINS,
        rows_per_group: 2,
        sources: 3,
        queries: 0,
        ..LoadConfig::default()
    });
    for (stack, shards) in STACKS
        .into_iter()
        .flat_map(|s| (1..=3).map(move |n| (s, n)))
    {
        let config = ServiceConfig {
            workers: 1,
            shards,
            ..ServiceConfig::default()
        };
        let builder = service_builder(loadgen_tables(&w), config).partition_by("grp");
        let service = stack.build(builder, std::time::Duration::ZERO);
        let mut reference = common::reference(loadgen_tables(&w), 3);
        for i in 0..3 * PINS {
            // Every 50 queries, so each sweep (300 of them) starts on a
            // fresh epoch and crosses five more.
            if i % 50 == 0 {
                service.advance_clock(25.0);
                reference.clock.advance(25.0);
            }
            if i % 7 == 0 {
                let update = (
                    ObjectId::new((i * 13 % w.rows.len()) as u64 + 1),
                    50.0 + (i % 50) as f64,
                );
                let delivered = service.apply_update_batch(&[update]).unwrap();
                assert_eq!(
                    delivered,
                    reference.apply_update(update.0, update.1).unwrap()
                );
            }
            let g = i % PINS;
            let sql = match i % 3 {
                0 => format!("SELECT SUM(load) WITHIN 0.5 FROM metrics WHERE grp = {g}"),
                1 => format!("SELECT COUNT(*) WITHIN 0 FROM metrics WHERE grp = {g} AND load > 75"),
                _ => format!("SELECT MIN(load) WITHIN 2 FROM metrics WHERE grp = {g}"),
            };
            let reply = service.query(&sql).unwrap();
            assert_reply_matches_reference(
                &reply,
                &run_reference(&mut reference, &sql),
                &format!("query {i} ({stack:?}, {shards} shards): {sql}"),
            )
            .unwrap();
        }
        // 2 rows per pin: the views examined their groups, not the table
        // (a scan build alone would be 600 rows for each of ≥ 300 builds).
        let examined = service.stats().view_tuples_classified;
        assert!(
            (2 * PINS as u64..20 * PINS as u64).contains(&examined),
            "{examined}"
        );
    }
}

/// A pinned `WITHIN 8` query fetches, its installs land in one group, and
/// the next `GROUP BY` and global queries — of every aggregate — must see
/// that group repaired and every other group's memoized answer still
/// right. Each reply equals the §4 loop's, on both stacks at 1–3 shards.
#[test]
fn grouped_queries_between_pinned_installs_match_simulation() {
    const GROUPS: usize = 6;
    const AGGS: [(&str, &str); 4] = [
        ("COUNT(*)", "load > 75"),
        ("SUM(load)", ""),
        ("AVG(load)", ""),
        ("MIN(load)", ""),
    ];
    let sql = |(select, filter): (&str, &str), pin: Option<usize>, tail: &str| {
        let mut predicates: Vec<String> = pin.iter().map(|g| format!("grp = {g}")).collect();
        if !filter.is_empty() {
            predicates.push(filter.to_owned());
        }
        let mut sql = format!("SELECT {select} {tail} FROM metrics");
        if !predicates.is_empty() {
            sql = format!("{sql} WHERE {}", predicates.join(" AND "));
        }
        sql
    };
    let w = loadgen::generate(&LoadConfig {
        seed: 23,
        groups: GROUPS,
        rows_per_group: 32,
        sources: 3,
        queries: 0,
        ..LoadConfig::default()
    });
    for stack in STACKS {
        for shards in 1..=3 {
            let config = ServiceConfig {
                workers: 1,
                shards,
                ..ServiceConfig::default()
            };
            let builder = service_builder(loadgen_tables(&w), config).partition_by("grp");
            let service = stack.build(builder, std::time::Duration::ZERO);
            let mut reference = common::reference(loadgen_tables(&w), 3);
            let mut pinned_refreshes = 0;
            for i in 0..96 {
                if i % 32 == 0 {
                    service.advance_clock(25.0);
                    reference.clock.advance(25.0);
                }
                let agg = AGGS[(i / 3) % AGGS.len()];
                let text = match i % 3 {
                    0 => sql(agg, Some(i / 3 % GROUPS), "WITHIN 8"),
                    1 => sql(agg, None, "WITHIN 1000000") + " GROUP BY grp",
                    _ => sql(agg, None, "WITHIN 1000000"),
                };
                let reply = service.query(&text).unwrap();
                if i % 3 == 0 {
                    pinned_refreshes += reply.result.refreshed.len();
                } else if i % 3 == 1 {
                    assert_eq!(reply.groups.len(), GROUPS);
                }
                assert_reply_matches_reference(
                    &reply,
                    &run_reference(&mut reference, &text),
                    &format!("query {i} ({stack:?}, {shards} shards): {text}"),
                )
                .unwrap();
            }
            assert!(pinned_refreshes > 0, "no pinned query had to fetch");
            assert!(service.stats().view_items_repartitioned > 0);
        }
    }
}

/// The demand pass as exact counts at the benchmark's `big_table` size
/// (20,000 rows in 2,500 groups of 8, one shard): after a clock advance a
/// pinned query evaluates its group's 8 bounds and no other, a repeat on
/// that group evaluates none, and a global query then evaluates the
/// other 19,992.
#[test]
fn pinned_plans_write_only_their_group_after_an_advance() {
    const GROUPS: usize = 2_500;
    const PER_GROUP: usize = 8;
    let w = loadgen::generate(&LoadConfig {
        seed: 3,
        groups: GROUPS,
        rows_per_group: PER_GROUP,
        sources: 4,
        queries: 0,
        ..LoadConfig::default()
    });
    let config = ServiceConfig {
        workers: 1,
        shards: 1,
        ..ServiceConfig::default()
    };
    let service = service_builder(loadgen_tables(&w), config)
        .partition_by("grp")
        .build_direct()
        .unwrap();
    let written = || service.with_shard_cache(0, |c| c.stats().cells_materialized);
    service.advance_clock(25.0);
    let start = written();
    // Loose enough that nothing is fetched, so nothing is installed.
    let pinned = "SELECT SUM(load) WITHIN 1000000 FROM metrics WHERE grp = 1234";
    assert!(service.query(pinned).unwrap().result.refreshed.is_empty());
    assert_eq!(written() - start, PER_GROUP as u64, "the group's cells");
    service.query(pinned).unwrap();
    assert_eq!(written() - start, PER_GROUP as u64, "a repeat writes none");
    service
        .query("SELECT SUM(load) WITHIN 1000000 FROM metrics")
        .unwrap();
    assert_eq!(
        written() - start,
        (GROUPS * PER_GROUP) as u64,
        "the global query writes the rest"
    );
}
