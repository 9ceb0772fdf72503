//! Batched multi-tuple join refresh rounds — the only join rounds the
//! service plans — against the paper's §7 one-tuple-per-round loop run in
//! a single cache ([`Simulation`]): batching must never change *what* a
//! join query answers or refreshes, only how many planning rounds it
//! takes.
//!
//! * property: for random join workloads, every answer, refresh set, and
//!   refresh cost is bit-identical to the one-tuple reference — on the
//!   direct transport *and* the completion transport, at one shard and at
//!   several — while the service never takes more rounds;
//! * the TPC-H grouped-over-join suite scatter-gathers bit-identically on
//!   a multi-shard service (the `merge_grouped_partials` path with
//!   cross-shard group keys), and every served group respects the
//!   workload's ground-truth checker.
//!
//! The reference is `QuerySession::execute` (scan-built join input,
//! `next_join_refresh`) for scalar joins and, for grouped joins,
//! [`plan_join_round`] called with `batch = false` — one tuple per group
//! per round.

mod common;

use std::collections::BTreeMap;
use std::time::Duration;

use common::{loadgen_tables, run_reference, service_builder, Reference, Stack, Tables, STACKS};
use proptest::prelude::*;
use trapp_core::executor::QueryResult;
use trapp_core::group_by::render_key;
use trapp_core::plan::bind_query;
use trapp_core::query_plan::{plan_join_round, Exclusions, QueryOutcome, QueryPlan};
use trapp_server::{QueryService, ServiceConfig, ServiceReply};
use trapp_system::{Simulation, Transport};
use trapp_workload::loadgen::{self, LoadConfig};
use trapp_workload::tpch::{self, TpchClass, TpchWorkload, Truth};

fn tpch_tables(w: &TpchWorkload) -> Tables<'_> {
    vec![
        (tpch::customer_table(), &w.customer),
        (tpch::orders_table(), &w.orders),
        (tpch::lineitem_table(), &w.lineitem),
    ]
}

fn build_service(
    tables: Tables<'_>,
    partition_by: &str,
    shards: usize,
    stack: Stack,
) -> QueryService {
    let config = ServiceConfig {
        workers: 1,
        shards,
        ..ServiceConfig::default()
    };
    stack.build(
        service_builder(tables, config).partition_by(partition_by),
        Duration::ZERO,
    )
}

/// Rounds the reference took (per-group maximum for grouped queries, as
/// the service reports them).
fn reference_rounds((scalar, groups): &Reference) -> usize {
    let grouped = groups.iter().map(|g| g.result.rounds).max();
    scalar.as_ref().map(|r| r.rounds).or(grouped).unwrap_or(0)
}

/// The §7 reference. `execute_grouped` plans grouped joins through the
/// batched planner, so that one shape is driven here instead.
fn one_tuple_reference(sim: &mut Simulation, sql: &str) -> Reference {
    let query = trapp_sql::parse_query(sql).unwrap();
    if query.group_by.is_empty() || query.tables.len() == 1 {
        return run_reference(sim, sql);
    }
    // Grouped join: one tuple per group per round, fetched object by
    // object and installed before the next planning pass.
    let mut attr: BTreeMap<String, QueryResult> = BTreeMap::new();
    loop {
        sim.cache.materialize().unwrap();
        let catalog = sim.cache.session().catalog();
        let bound = bind_query(&query, catalog).unwrap();
        let plan = plan_join_round(
            &bound,
            catalog.table(&query.tables[0]).unwrap(),
            catalog.table(&query.tables[1]).unwrap(),
            sim.cache.session().config.join_heuristic,
            false,
            &Exclusions::default(),
        )
        .unwrap();
        let fp = match plan {
            QueryPlan::Ready(QueryOutcome::Grouped(mut groups)) => {
                for g in &mut groups {
                    if let Some(a) = attr.remove(&render_key(&g.key)) {
                        g.result = QueryResult {
                            answer: g.result.answer,
                            satisfied: g.result.satisfied,
                            ..a
                        };
                    }
                }
                return (None, groups);
            }
            QueryPlan::NeedsFetch(fp) => fp,
            other => panic!("{sql}: unexpected plan {other:?}"),
        };
        for unit in fp.units {
            let a = attr.entry(render_key(&unit.key)).or_insert(QueryResult {
                answer: unit.initial,
                initial_answer: unit.initial,
                refreshed: Vec::new(),
                refresh_cost: 0.0,
                rounds: 0,
                satisfied: false,
            });
            let Some(fetch) = unit.fetch else { continue };
            assert_eq!(
                fetch.tuples.len(),
                1,
                "{sql}: one tuple per one-tuple round"
            );
            a.rounds += 1;
            a.refresh_cost += fetch.refresh_cost;
            a.refreshed.push((fetch.table.clone(), fetch.tuples[0]));
            let objects = sim
                .cache
                .objects_backing(&fetch.table, fetch.tuples[0])
                .unwrap();
            for (object, source) in objects {
                let refreshes = sim
                    .transport
                    .submit_refresh_batch(source, sim.cache.id(), vec![object], sim.clock.now())
                    .wait()
                    .unwrap();
                sim.cache.install_refresh(refreshes[0]).unwrap();
            }
        }
    }
}

fn assert_same_result(batched: &QueryResult, one: &QueryResult, context: &str) {
    assert_eq!(
        batched.answer.range, one.answer.range,
        "answer for {context}"
    );
    assert_eq!(
        batched.initial_answer.range, one.initial_answer.range,
        "initial answer for {context}"
    );
    assert_eq!(batched.satisfied, one.satisfied, "{context}");
    let (mut br, mut or) = (batched.refreshed.clone(), one.refreshed.clone());
    br.sort();
    or.sort();
    assert_eq!(br, or, "refresh sets for {context}");
    assert_eq!(
        batched.refresh_cost, one.refresh_cost,
        "refresh cost for {context}"
    );
    assert!(
        batched.rounds <= one.rounds,
        "batching added rounds for {context}: {} > {}",
        batched.rounds,
        one.rounds
    );
}

/// Asserts the service's reply answers and refreshes exactly what the
/// one-tuple reference did. Rounds are compared by inequality: the
/// safe-prefix batch replays the reference's refresh sequence, so it may
/// only collapse rounds, never add work.
fn assert_same_work(batched: &ServiceReply, one: &Reference, context: &str) {
    let (scalar, groups) = one;
    if let Some(scalar) = scalar {
        assert_same_result(&batched.result, scalar, context);
    }
    assert_eq!(
        batched.groups.len(),
        groups.len(),
        "group count for {context}"
    );
    for (gb, go) in batched.groups.iter().zip(groups) {
        assert_eq!(gb.key, go.key, "group keys for {context}");
        assert_same_result(
            &gb.result,
            &go.result,
            &format!("group {:?} of {context}", gb.key),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A join-heavy stream answers bit-identically to the one-tuple
    /// reference — same bounded answers, same refresh sets and costs, no
    /// extra rounds — across clock advances, shard counts, and both
    /// transport stacks.
    #[test]
    fn batched_join_rounds_match_one_tuple_planner(
        seed in 0u64..1000,
        groups in 2usize..8,
        rows_per_group in 1usize..4,
        sources in 1usize..4,
        shards in 1usize..4,
    ) {
        let w = loadgen::generate(&LoadConfig {
            seed,
            groups,
            rows_per_group,
            sources,
            queries: 12,
            global_fraction: 0.25,
            join_fraction: 0.7,
            ..LoadConfig::default()
        });
        for stack in STACKS {
            let batched = build_service(loadgen_tables(&w), "grp", shards, stack);
            let mut one = common::reference(loadgen_tables(&w), sources);
            for (i, q) in w.queries.iter().enumerate() {
                if i % 4 == 0 {
                    batched.advance_clock(25.0);
                    one.clock.advance(25.0);
                }
                assert_same_work(
                    &batched.query(&q.sql).unwrap(),
                    &one_tuple_reference(&mut one, &q.sql),
                    &format!("query {i}: {} (shards={shards}, {stack:?})", q.sql),
                );
            }
        }
    }
}

/// TPC-H join queries on a 3-shard completion service agree bit-for-bit
/// with the one-tuple reference, and batching strictly collapses rounds
/// on at least one query (its reason to exist — without it the 100k+
/// scaling tiers pay one full planning pass per refreshed tuple).
#[test]
fn tpch_join_suite_agrees_across_modes_and_collapses_rounds() {
    let w = tpch::generate(&tpch::TpchConfig {
        seed: 31,
        total_rows: 1_600,
        sources: 4,
        queries: 12,
        class_weights: [0, 1, 1, 0], // join_agg + join_group only
        ..tpch::TpchConfig::default()
    });
    let batched = build_service(tpch_tables(&w), "custkey", 3, Stack::Completion);
    let mut one = common::reference(tpch_tables(&w), w.config.sources);
    let mut collapsed = false;
    for q in &w.queries {
        batched.advance_clock(1.0);
        one.clock.advance(1.0);
        let a = batched.query(&q.sql).unwrap();
        let b = one_tuple_reference(&mut one, &q.sql);
        assert_same_work(&a, &b, &q.sql);
        collapsed |= a.result.rounds < reference_rounds(&b);
    }
    assert!(
        collapsed,
        "no query collapsed any rounds — the batch planner never engaged"
    );
}

/// Grouped-over-join scatter-gather (satellite: `merge_grouped_partials`
/// with cross-shard keys): the TPC-H `join_group` class runs on 1-shard
/// and 4-shard services with bit-identical per-group answers, and every
/// served group passes the workload's engine-independent checker.
#[test]
fn grouped_join_scatter_matches_single_shard_and_ground_truth() {
    let w = tpch::generate(&tpch::TpchConfig {
        seed: 47,
        total_rows: 1_600,
        sources: 4,
        queries: 10,
        class_weights: [0, 0, 1, 0], // join_group only
        ..tpch::TpchConfig::default()
    });
    assert!(!w.queries.is_empty());
    let single = build_service(tpch_tables(&w), "custkey", 1, Stack::Completion);
    let sharded = build_service(tpch_tables(&w), "custkey", 4, Stack::Completion);
    for q in &w.queries {
        single.advance_clock(1.0);
        sharded.advance_clock(1.0);
        let a = single.query(&q.sql).unwrap();
        let b = sharded.query(&q.sql).unwrap();
        assert_eq!(a.groups.len(), b.groups.len(), "group count for {}", q.sql);
        for (ga, gb) in a.groups.iter().zip(&b.groups) {
            assert_eq!(ga.key, gb.key, "group keys for {}", q.sql);
            assert_eq!(
                ga.result.answer.range, gb.result.answer.range,
                "group {:?} answer for {}",
                ga.key, q.sql
            );
            assert_eq!(ga.result.satisfied, gb.result.satisfied, "{}", q.sql);
        }
        // Every group the sharded service serves must be satisfied and
        // pass the workload checker (truth groups contained, extra
        // groups containing the empty aggregate).
        let served: Vec<(i64, f64, f64)> = b
            .groups
            .iter()
            .map(|g| {
                let trapp_types::Value::Int(k) = g.key[0] else {
                    panic!("int group key expected for {}", q.sql)
                };
                assert!(g.result.satisfied, "{}: group {k} unsatisfied", q.sql);
                (k, g.result.answer.range.lo(), g.result.answer.range.hi())
            })
            .collect();
        assert!(matches!(q.truth, Truth::Groups(_)), "{}", q.sql);
        assert_eq!(
            tpch::group_violations(q, &served),
            0,
            "{}: served groups violate ground truth",
            q.sql
        );
        assert_eq!(q.class, TpchClass::JoinGroup);
    }
}
