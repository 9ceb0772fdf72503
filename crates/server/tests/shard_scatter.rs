//! Cross-shard scatter-gather correctness: the sharded service must be
//! indistinguishable from the single-cache service — not approximately,
//! **bit-for-bit** — and a lost shard must surface an error instead of a
//! silently narrowed bound.
//!
//! * property: for random workloads and shard counts, every COUNT / SUM /
//!   AVG / MIN answer (global *and* group-pinned), refresh set, and
//!   refresh cost matches the 1-shard service exactly — on the direct
//!   transport *and* on the completion-based transport (whose shared
//!   fetch pool and pending completions must not perturb a single bit);
//! * a shard that fails mid-fetch turns the query into
//!   [`TrappError::PartialResult`], while healthy shards keep serving;
//! * updates route to the shard whose cache subscribes the object;
//! * concurrent mixed pinned/global load over 4 shards stays within every
//!   precision contract;
//! * rows placed by tuple id — no partition column, or a table that lacks
//!   it — interleave each shard's global ids, and scatter answers still
//!   match the 1-shard service bit for bit.

mod common;

use std::collections::HashSet;

use common::{loadgen_tables, reference, run_reference, service_builder, Stack, STACKS};
use proptest::prelude::*;
use trapp_core::executor::QueryResult;
use trapp_core::refresh::iterative::IterativeHeuristic;
use trapp_core::ExecutionMode;
use trapp_server::{QueryService, ServiceConfig, ServiceReply};
use trapp_storage::{ColumnDef, Schema, Table};
use trapp_types::{
    shard_of, BoundedValue, ExactSum, Interval, ObjectId, SourceId, TrappError, Value, ValueType,
};
use trapp_workload::loadgen::{
    self, LoadConfig, QueryShape, RowSpec, ServiceWorkload, JOIN_WEIGHT_THRESHOLD,
};

fn build_on(w: &ServiceWorkload, shards: usize, workers: usize, stack: Stack) -> QueryService {
    let config = ServiceConfig {
        workers,
        shards,
        ..ServiceConfig::default()
    };
    stack.build(
        service_builder(loadgen_tables(w), config).partition_by("grp"),
        std::time::Duration::ZERO,
    )
}

fn build(w: &ServiceWorkload, shards: usize, workers: usize) -> QueryService {
    build_on(w, shards, workers, Stack::Direct)
}

/// Asserts two replies are bit-identical — scalar roll-up and per-group
/// results alike.
fn assert_replies_match(a: &ServiceReply, b: &ServiceReply, context: &str) {
    assert_eq!(
        a.result.answer.range, b.result.answer.range,
        "answer for {context}"
    );
    assert_eq!(
        a.result.initial_answer.range, b.result.initial_answer.range,
        "initial answer for {context}"
    );
    assert_eq!(a.result.satisfied, b.result.satisfied, "{context}");
    assert_eq!(
        a.result.refreshed, b.result.refreshed,
        "refresh sets for {context}"
    );
    assert_eq!(
        a.result.refresh_cost, b.result.refresh_cost,
        "refresh cost for {context}"
    );
    assert_eq!(a.result.rounds, b.result.rounds, "rounds for {context}");
    assert_eq!(a.groups.len(), b.groups.len(), "group count for {context}");
    for (ga, gb) in a.groups.iter().zip(&b.groups) {
        assert_eq!(ga.key, gb.key, "group keys for {context}");
        assert_eq!(
            ga.result.answer.range, gb.result.answer.range,
            "group {:?} answer for {context}",
            ga.key
        );
        assert_eq!(
            ga.result.initial_answer.range, gb.result.initial_answer.range,
            "group {:?} initial for {context}",
            ga.key
        );
        assert_eq!(ga.result.satisfied, gb.result.satisfied, "{context}");
        assert_eq!(
            ga.result.refreshed, gb.result.refreshed,
            "group {:?} refresh set for {context}",
            ga.key
        );
        assert_eq!(
            ga.result.refresh_cost, gb.result.refresh_cost,
            "group {:?} cost for {context}",
            ga.key
        );
        assert_eq!(
            ga.result.rounds, gb.result.rounds,
            "group {:?} rounds for {context}",
            ga.key
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance property: running the same mixed stream (half the
    /// queries group-free, i.e. scatter-gathered) sequentially against an
    /// N-shard service and a 1-shard service yields bit-identical bounded
    /// answers, identical refresh sets (in global tuple ids), and
    /// identical refresh costs — across clock advances that force
    /// re-refreshing, and on **both** transport stacks: the sharded
    /// service runs once over the blocking transport and once over the
    /// completion transport, and each must match the single cache
    /// bit-for-bit.
    #[test]
    fn scatter_gather_is_bit_equivalent_to_single_cache(
        seed in 0u64..1000,
        groups in 2usize..9,
        rows_per_group in 1usize..5,
        sources in 1usize..4,
        shards in 2usize..5,
    ) {
        let w = loadgen::generate(&LoadConfig {
            seed,
            groups,
            rows_per_group,
            sources,
            queries: 24,
            global_fraction: 0.5,
            ..LoadConfig::default()
        });
        let single = build(&w, 1, 1);
        let sharded = build_on(&w, shards, 1, Stack::Direct);
        let completion = build_on(&w, shards, 1, Stack::Completion);
        for (i, q) in w.queries.iter().enumerate() {
            if i % 6 == 0 {
                single.advance_clock(25.0);
                sharded.advance_clock(25.0);
                completion.advance_clock(25.0);
            }
            let a = single.query(&q.sql).unwrap();
            for (stack, service) in [("blocking", &sharded), ("completion", &completion)] {
                let b = service.query(&q.sql).unwrap();
                prop_assert_eq!(
                    a.result.answer.range, b.result.answer.range,
                    "query {}: {} (shards={}, {})", i, q.sql, shards, stack
                );
                prop_assert_eq!(
                    a.result.initial_answer.range, b.result.initial_answer.range,
                    "initial answer for {} ({})", q.sql, stack
                );
                prop_assert_eq!(a.result.satisfied, b.result.satisfied, "{} ({})", q.sql, stack);
                prop_assert_eq!(
                    &a.result.refreshed, &b.result.refreshed,
                    "refresh sets for {} ({})", q.sql, stack
                );
                prop_assert_eq!(
                    a.result.refresh_cost, b.result.refresh_cost,
                    "refresh cost for {} ({})", q.sql, stack
                );
                prop_assert_eq!(a.result.rounds, b.result.rounds, "{} ({})", q.sql, stack);
            }
        }
        for service in [&sharded, &completion] {
            prop_assert!(
                service.stats().scatter_queries > 0,
                "no query exercised the scatter path"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full-query-surface acceptance property: a mixed stream of
    /// pinned, global, `GROUP BY`, and join queries runs bit-identically
    /// on an N-shard service and the 1-shard service — per-group answers,
    /// refresh sets (global tuple ids), and costs included — on the
    /// blocking *and* completion transports.
    #[test]
    fn grouped_and_join_scatter_is_bit_equivalent(
        seed in 0u64..1000,
        groups in 2usize..8,
        rows_per_group in 1usize..4,
        sources in 1usize..4,
        shards in 2usize..5,
    ) {
        let w = loadgen::generate(&LoadConfig {
            seed,
            groups,
            rows_per_group,
            sources,
            queries: 20,
            global_fraction: 0.25,
            grouped_fraction: 0.3,
            join_fraction: 0.3,
            ..LoadConfig::default()
        });
        let single = build(&w, 1, 1);
        let sharded = build_on(&w, shards, 1, Stack::Direct);
        let completion = build_on(&w, shards, 1, Stack::Completion);
        for (i, q) in w.queries.iter().enumerate() {
            if i % 5 == 0 {
                single.advance_clock(25.0);
                sharded.advance_clock(25.0);
                completion.advance_clock(25.0);
            }
            let a = single.query(&q.sql).unwrap();
            for (stack, service) in [("blocking", &sharded), ("completion", &completion)] {
                let b = service.query(&q.sql).unwrap();
                assert_replies_match(
                    &a,
                    &b,
                    &format!("query {i}: {} (shards={shards}, {stack})", q.sql),
                );
            }
        }
    }
}

/// The tentpole acceptance scenario, deterministically: `GROUP BY` and
/// join queries execute on an **8-shard completion-transport** service
/// with answers bit-identical to the single-cache service, every query
/// scatter-gathered (no `Unsupported` fallback anywhere), and every
/// answer containing its ground truth.
#[test]
fn grouped_and_join_on_eight_shard_completion_service() {
    let w = loadgen::generate(&LoadConfig {
        seed: 77,
        groups: 24,
        rows_per_group: 3,
        sources: 6,
        queries: 48,
        grouped_fraction: 0.5,
        join_fraction: 0.5, // every query is grouped or join
        ..LoadConfig::default()
    });
    let single = build(&w, 1, 2);
    let service = build_on(&w, 8, 4, Stack::Completion);

    let mut saw = (0usize, 0usize);
    for (i, q) in w.queries.iter().enumerate() {
        if i % 8 == 0 {
            single.advance_clock(25.0);
            service.advance_clock(25.0);
        }
        match q.shape {
            QueryShape::Grouped => saw.0 += 1,
            QueryShape::Join => saw.1 += 1,
            QueryShape::Scalar => unreachable!("fractions sum to 1"),
        }
        let a = single.query(&q.sql).unwrap();
        let b = service.query(&q.sql).unwrap();
        assert_replies_match(&a, &b, &format!("query {i}: {}", q.sql));

        // Correctness against the master values, not just equivalence.
        match q.shape {
            QueryShape::Grouped => {
                let truths = loadgen::ground_truth_groups(&w, q);
                assert_eq!(b.groups.len(), truths.len(), "{}", q.sql);
                for g in &b.groups {
                    let Value::Int(id) = g.key[0] else {
                        panic!("int group key expected")
                    };
                    let &(_, t) = truths.iter().find(|(tg, _)| *tg == id).unwrap();
                    let range = g.result.answer.range;
                    assert!(g.result.satisfied, "{}: group {id}", q.sql);
                    assert!(
                        range.lo() <= t && t <= range.hi(),
                        "{}: group {id} truth {t} outside {range:?}",
                        q.sql
                    );
                }
            }
            _ => {
                let t = loadgen::ground_truth(&w, q);
                let range = b.result.answer.range;
                assert!(b.result.satisfied, "{}", q.sql);
                assert!(
                    range.lo() <= t && t <= range.hi(),
                    "{}: truth {t} outside {range:?}",
                    q.sql
                );
            }
        }
    }
    assert!(saw.0 > 0 && saw.1 > 0, "stream must exercise both shapes");

    let stats = service.stats();
    assert_eq!(stats.errors, 0);
    assert_eq!(
        stats.scatter_queries,
        w.queries.len() as u64,
        "grouped and join queries must scatter-gather, not error"
    );
}

/// A shard that dies while its slice of a *join* round is being fetched
/// surfaces [`TrappError::PartialResult`] instead of an answer that
/// pretends the lost base tuples are exact; healthy groups keep serving.
#[test]
fn lost_shard_mid_join_gather_surfaces_partial_result() {
    let shards = 4;
    let w = loadgen::generate(&LoadConfig {
        seed: 5,
        groups: 8,
        rows_per_group: 2,
        sources: 2,
        queries: 0,
        join_fraction: 0.5, // generates the segments side table
        ..LoadConfig::default()
    });
    let service = build(&w, shards, 2);
    service.advance_clock(25.0);

    // Sabotage one shard that owns metrics rows: rebind one of its bounded
    // cells to an object id no source has ever registered.
    let sabotaged = (0..shards)
        .find(|&s| {
            service.with_shard_cache(s, |cache| {
                cache
                    .session()
                    .catalog()
                    .table("metrics")
                    .unwrap()
                    .scan()
                    .next()
                    .is_some()
            })
        })
        .expect("some shard holds rows");
    service.with_shard_cache(sabotaged, |cache| {
        let tid = cache
            .session()
            .catalog()
            .table("metrics")
            .unwrap()
            .scan()
            .next()
            .unwrap()
            .0;
        cache
            .bind_object(ObjectId::new(999_999), SourceId::new(1), "metrics", tid, 1)
            .unwrap();
    });

    // WITHIN 0 over the exact equi-join forces every metrics load into
    // the join refresh rounds; the sabotaged tuple's round fails at the
    // transport mid-gather.
    let err = service
        .query("SELECT SUM(load) WITHIN 0 FROM metrics, segments WHERE metrics.grp = segments.grp")
        .unwrap_err();
    assert!(
        matches!(err, TrappError::PartialResult(_)),
        "expected a partial-result error, got: {err}"
    );

    // A group on a healthy shard still gets exact answers.
    let healthy_group = (0..w.config.groups)
        .find(|&g| shard_of(g as u64, shards) != sabotaged)
        .expect("some group lives elsewhere");
    let reply = service
        .query(format!(
            "SELECT SUM(load) WITHIN 0 FROM metrics WHERE grp = {healthy_group}"
        ))
        .unwrap();
    assert!(reply.result.satisfied);
    assert!(reply.result.answer.is_exact());
}

/// Asserts one reply result matches the reference's: answer, initial
/// answer, satisfaction, refreshed sequence (order included), cost and,
/// with `rounds`, the round count.
fn assert_result_matches(a: &QueryResult, b: &QueryResult, rounds: bool, context: &str) {
    assert_eq!(a.answer.range, b.answer.range, "answer for {context}");
    assert_eq!(
        a.initial_answer.range, b.initial_answer.range,
        "initial answer for {context}"
    );
    assert_eq!(a.satisfied, b.satisfied, "satisfied for {context}");
    assert_eq!(a.refreshed, b.refreshed, "refreshed sequence for {context}");
    assert_eq!(a.refresh_cost, b.refresh_cost, "cost for {context}");
    if rounds {
        assert_eq!(a.rounds, b.rounds, "rounds for {context}");
    }
}

/// Iterative mode (§8.2) runs the one query loop on any shard count: on
/// 1–3 shards and both stacks, every scalar, pinned, grouped and join
/// iterative reply — per-group answers, refreshed sequences and costs —
/// matches the single-cache §8.2 executor (the reference in
/// `ExecutionMode::Iterative`) over the same rows. Single-table shapes
/// match its rounds too; a join round carries the whole provable prefix
/// of the §7 pick order, so joins reach the same refreshes in fewer
/// rounds.
#[test]
fn iterative_mode_matches_the_single_cache_executor_on_any_shard_count() {
    let iterative = ExecutionMode::Iterative(IterativeHeuristic::BestRatio);
    let w = loadgen::generate(&LoadConfig {
        seed: 19,
        groups: 6,
        rows_per_group: 3,
        sources: 2,
        queries: 24,
        global_fraction: 0.4,
        grouped_fraction: 0.25,
        join_fraction: 0.25,
        ..LoadConfig::default()
    });
    assert!(!w.segments.is_empty(), "joins need the segments table");
    let mut queries: Vec<(String, &str)> = w
        .queries
        .iter()
        .map(|q| {
            let shape = match (q.shape, q.group) {
                (QueryShape::Scalar, Some(_)) => "pinned",
                (QueryShape::Scalar, None) => "scalar",
                (QueryShape::Grouped, _) => "grouped",
                (QueryShape::Join, _) => "join",
            };
            (q.sql.clone(), shape)
        })
        .collect();
    // First, right after a clock advance, so its groups must refresh.
    queries.insert(
        0,
        (
            format!(
                "SELECT SUM(load) WITHIN 0 FROM metrics, segments \
             WHERE metrics.grp = segments.grp AND weight > {JOIN_WEIGHT_THRESHOLD} \
             GROUP BY metrics.grp"
            ),
            "grouped join",
        ),
    );
    for shards in 1..=3 {
        for stack in STACKS {
            let service = build_on(&w, shards, 1, stack);
            for s in 0..shards {
                service.with_shard_cache(s, |c| c.session_mut().config.mode = iterative);
            }
            let mut sim = reference(loadgen_tables(&w), w.config.sources);
            sim.cache.session_mut().config.mode = iterative;
            // Shapes that took several iterative rounds (joins: refreshed
            // several tuples).
            let mut multi_step: HashSet<&str> = HashSet::new();
            for (i, (sql, shape)) in queries.iter().enumerate() {
                if i % 5 == 0 {
                    service.advance_clock(25.0);
                    sim.clock.advance(25.0);
                }
                let context = format!("query {i} ({shape}): {sql} (shards={shards}, {stack:?})");
                let reply = service.query(sql).unwrap();
                let (scalar, groups) = run_reference(&mut sim, sql);
                let rounds = !shape.contains("join");
                if let Some(r) = scalar {
                    assert_result_matches(&reply.result, &r, rounds, &context);
                }
                assert_eq!(reply.groups.len(), groups.len(), "groups for {context}");
                for (a, b) in reply.groups.iter().zip(&groups) {
                    assert_eq!(a.key, b.key, "group keys for {context}");
                    let context = format!("group {:?} of {context}", a.key);
                    assert_result_matches(&a.result, &b.result, rounds, &context);
                }
                let refreshed = reply.result.refreshed.len()
                    + reply
                        .groups
                        .iter()
                        .map(|g| g.result.refreshed.len())
                        .sum::<usize>();
                if reply.result.rounds > 1 || (!rounds && refreshed > 1) {
                    multi_step.insert(shape);
                }
            }
            for shape in ["pinned", "scalar", "grouped", "join", "grouped join"] {
                assert!(
                    multi_step.contains(shape),
                    "no {shape} query took several iterative steps \
                     (shards={shards}, {stack:?})"
                );
            }
        }
    }
}

/// A shard that fails mid-fetch must not produce an answer: the merged
/// bound would silently treat the lost shard's tuples as exact. The query
/// reports a partial-result error; healthy shards keep serving.
#[test]
fn lost_shard_surfaces_partial_result_error() {
    let shards = 4;
    let w = loadgen::generate(&LoadConfig {
        seed: 5,
        groups: 8,
        rows_per_group: 3,
        sources: 2,
        queries: 0,
        ..LoadConfig::default()
    });
    let service = build(&w, shards, 2);
    service.advance_clock(25.0);

    // Sabotage one shard that owns rows: rebind one of its bounded cells
    // to an object id no source has ever registered, so its slice of any
    // refresh plan fails at the transport.
    let sabotaged = (0..shards)
        .find(|&s| {
            service.with_shard_cache(s, |cache| {
                cache
                    .session()
                    .catalog()
                    .table("metrics")
                    .unwrap()
                    .scan()
                    .next()
                    .is_some()
            })
        })
        .expect("some shard holds rows");
    service.with_shard_cache(sabotaged, |cache| {
        let tid = cache
            .session()
            .catalog()
            .table("metrics")
            .unwrap()
            .scan()
            .next()
            .unwrap()
            .0;
        cache
            .bind_object(ObjectId::new(999_999), SourceId::new(1), "metrics", tid, 1)
            .unwrap();
    });

    // WITHIN 0 forces every shard to refresh: the sabotaged one fails.
    let err = service
        .query("SELECT SUM(load) WITHIN 0 FROM metrics")
        .unwrap_err();
    assert!(
        matches!(err, TrappError::PartialResult(_)),
        "expected a partial-result error, got: {err}"
    );

    // A group on a healthy shard still gets exact answers.
    let healthy_group = (0..w.config.groups)
        .find(|&g| shard_of(g as u64, shards) != sabotaged)
        .expect("some group lives elsewhere");
    let reply = service
        .query(format!(
            "SELECT SUM(load) WITHIN 0 FROM metrics WHERE grp = {healthy_group}"
        ))
        .unwrap();
    assert!(reply.result.satisfied);
    assert!(reply.result.answer.is_exact());
}

/// Updates reach the shard whose cache subscribes the object, and the next
/// pinned query on that shard observes the new master value.
#[test]
fn updates_route_to_the_owning_shard() {
    let w = loadgen::generate(&LoadConfig {
        seed: 9,
        groups: 4,
        rows_per_group: 2,
        sources: 2,
        queries: 0,
        ..LoadConfig::default()
    });
    let service = build(&w, 3, 2);
    service.advance_clock(5.0);

    // The loadgen schema has one bounded column, so row k (0-based, global
    // order) is backed by object k+1. Row 0 belongs to group 0.
    let delivered = service.apply_update(ObjectId::new(1), 500.0).unwrap();
    assert_eq!(delivered, 1, "an escaping update must reach the cache");

    let reply = service
        .query("SELECT SUM(load) WITHIN 0 FROM metrics WHERE grp = 0")
        .unwrap();
    let expected = 500.0 + w.rows[1].cells[1].as_interval().unwrap().midpoint();
    assert!(reply.result.answer.is_exact());
    assert!(
        (reply.result.answer.range.lo() - expected).abs() < 1e-9,
        "updated master not visible: {} vs {expected}",
        reply.result.answer
    );

    // Unknown objects are rejected, not misrouted.
    assert!(service.apply_update(ObjectId::new(12_345), 1.0).is_err());
}

/// Concurrent mixed load (8 clients, pinned + global queries) over four
/// shards: every bounded answer contains the truth and satisfies its
/// precision constraint, and both execution paths are exercised.
#[test]
fn concurrent_mixed_load_on_four_shards_is_correct() {
    let w = loadgen::generate(&LoadConfig {
        seed: 17,
        groups: 16,
        rows_per_group: 4,
        sources: 4,
        queries: 160,
        global_fraction: 0.15,
        ..LoadConfig::default()
    });
    let service = build(&w, 4, 8);
    service.advance_clock(25.0);

    let clients = 8;
    let per_client = w.queries.len().div_ceil(clients);
    let service_ref = &service;
    let w_ref = &w;
    std::thread::scope(|s| {
        for chunk in w.queries.chunks(per_client) {
            s.spawn(move || {
                for q in chunk {
                    let reply = service_ref.query(&q.sql).unwrap();
                    let t = loadgen::ground_truth(w_ref, q);
                    let range = reply.result.answer.range;
                    assert!(reply.result.satisfied, "{}", q.sql);
                    assert!(
                        range.lo() <= t && t <= range.hi(),
                        "{}: {range:?} excludes truth {t}",
                        q.sql
                    );
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.queries, w.queries.len() as u64);
    assert_eq!(stats.errors, 0);
    assert!(stats.scatter_queries > 0, "global queries must scatter");
    assert!(
        stats.scatter_queries < stats.queries,
        "pinned queries must route single-shard"
    );
}

/// Rows placed by tuple id: a service with no partition column, and one
/// partitioned by `grp` that also holds `hosts`, a table without `grp`.
/// Either way each shard's global ids interleave with the other shards'
/// instead of forming runs. On 2–5 shards every scalar, `GROUP BY` and
/// join answer — refresh sets, costs and rounds included — equals the
/// 1-shard service's, across clock advances that force refreshes. Only
/// `exec_time` and `round_trips` may differ: a sharded fetch sends one
/// batch per shard and source. `edges` holds cancelling and edge-valued
/// rows (±1e16 against 1, 1e308 twice against −1e308, 2⁵³, a subnormal,
/// −0.0): its `WITHIN 0` SUM and AVG answers, scalar and per group,
/// equal the exact sums rounded once.
#[test]
fn scatter_is_bit_equivalent_when_rows_are_placed_by_tuple_id() {
    let w = loadgen::generate(&LoadConfig {
        seed: 31,
        groups: 6,
        rows_per_group: 4,
        sources: 3,
        queries: 24,
        global_fraction: 0.5,
        grouped_fraction: 0.3,
        join_fraction: 0.3,
        ..LoadConfig::default()
    });
    let hosts_schema = Schema::new(vec![
        ColumnDef::exact("rack", ValueType::Int),
        ColumnDef::bounded_float("cpu"),
    ])
    .unwrap();
    let hosts: Vec<RowSpec> = (0..22u64)
        .map(|k| RowSpec {
            source: SourceId::new(1 + k % 3),
            cells: vec![
                BoundedValue::Exact(Value::Int((k % 5) as i64)),
                BoundedValue::exact_f64(10.0 + 3.5 * k as f64).unwrap(),
            ],
        })
        .collect();
    // Cancelling and edge-valued rows, three groups interleaved: each
    // group's exact sum differs from a left-to-right fold of its rows.
    let edge_values: [(i64, f64); 16] = [
        (0, 1e16),
        (1, 1e308),
        (0, 1.0),
        (2, 9007199254740992.0),
        (0, -1e16),
        (1, 1e308),
        (2, 1.0),
        (0, 1.0),
        (1, -1e308),
        (2, 1.0),
        (2, 5e-324),
        (1, 0.1),
        (0, -0.0),
        (2, -1e-300),
        (1, 0.2),
        (0, 0.3),
    ];
    let edges: Vec<RowSpec> = edge_values
        .iter()
        .enumerate()
        .map(|(k, &(rack, v))| RowSpec {
            source: SourceId::new(1 + k as u64 % 3),
            cells: vec![
                BoundedValue::Exact(Value::Int(rack)),
                BoundedValue::exact_f64(v).unwrap(),
            ],
        })
        .collect();
    let tables = || {
        let mut tables = loadgen_tables(&w);
        tables.push((Table::new("hosts", hosts_schema.clone()), &hosts[..]));
        tables.push((Table::new("edges", hosts_schema.clone()), &edges[..]));
        tables
    };
    let edge_sqls = [
        "SELECT SUM(cpu) WITHIN 0 FROM edges",
        "SELECT AVG(cpu) WITHIN 0 FROM edges",
        "SELECT SUM(cpu) WITHIN 0 FROM edges WHERE cpu < 1e300",
        "SELECT AVG(cpu) WITHIN 0 FROM edges WHERE cpu < 1e300",
        "SELECT SUM(cpu) WITHIN 0 FROM edges GROUP BY rack",
        "SELECT AVG(cpu) WITHIN 0 FROM edges GROUP BY rack",
    ];
    // What `WITHIN 0` must answer over the edge rows of `group` (all of
    // them for `None`) that pass the query's filter: their exact sum, or
    // that over their count, rounded once.
    let expected = |sql: &str, group: Option<i64>| {
        let kept: Vec<f64> = edge_values
            .iter()
            .filter(|&&(rack, v)| {
                group.is_none_or(|g| g == rack) && (!sql.contains("WHERE") || v < 1e300)
            })
            .map(|&(_, v)| v)
            .collect();
        let sum = kept.iter().copied().collect::<ExactSum>().read();
        if sql.contains("AVG") {
            sum / kept.len() as f64
        } else {
            sum
        }
    };
    let mut sqls: Vec<String> = w.queries.iter().map(|q| q.sql.clone()).collect();
    sqls.extend(
        [
            "SELECT SUM(cpu) WITHIN 4 FROM hosts",
            "SELECT AVG(cpu) WITHIN 1 FROM hosts GROUP BY rack",
            "SELECT MIN(cpu) WITHIN 2 FROM hosts WHERE rack = 3",
            "SELECT COUNT(*) WITHIN 1 FROM hosts WHERE cpu > 40",
            "SELECT SUM(load) WITHIN 6 FROM metrics, hosts WHERE metrics.grp = hosts.rack",
            "SELECT SUM(cpu) WITHIN 3 FROM hosts, segments \
             WHERE hosts.rack = segments.grp AND weight > 0.5",
        ]
        .map(str::to_owned),
    );
    sqls.extend(edge_sqls.map(str::to_owned));
    let config = |shards| ServiceConfig {
        workers: 1,
        shards,
        ..ServiceConfig::default()
    };
    for partitioned in [false, true] {
        for shards in 2..=5 {
            let build = |shards| {
                let builder = service_builder(tables(), config(shards));
                let builder = if partitioned {
                    builder.partition_by("grp")
                } else {
                    builder
                };
                builder.build_direct().unwrap()
            };
            let single = build(1);
            let sharded = build(shards);
            for (i, sql) in sqls.iter().enumerate() {
                if i % 4 == 0 {
                    single.advance_clock(25.0);
                    sharded.advance_clock(25.0);
                }
                let context =
                    format!("query {i}: {sql} (shards={shards}, partitioned={partitioned})");
                let a = single.query(sql).unwrap();
                let b = sharded.query(sql).unwrap();
                assert_replies_match(&a, &b, &context);
                assert_eq!(a.refreshes_saved, b.refreshes_saved, "{context}");
                assert_eq!(a.degraded.is_some(), b.degraded.is_some(), "{context}");
                if !edge_sqls.contains(&sql.as_str()) {
                    continue;
                }
                assert!(a.result.satisfied && a.degraded.is_none(), "{context}");
                let point = |x: f64| Interval::new(x, x).unwrap();
                if a.groups.is_empty() {
                    let want = point(expected(sql, None));
                    assert_eq!(a.result.answer.range, want, "{context}");
                }
                for g in &a.groups {
                    let rack = match g.key.as_slice() {
                        [Value::Int(rack)] => *rack,
                        key => panic!("{context}: group key {key:?}"),
                    };
                    let want = point(expected(sql, Some(rack)));
                    assert_eq!(g.result.answer.range, want, "{context}: rack {rack}");
                }
            }
            assert!(sharded.stats().scatter_queries > 0);
        }
    }
}

/// Ints at or past 2⁵³ share their `f64` image with a neighbour, and the
/// evaluator compares INT cells as `f64` points, so `grp = 2⁵³` admits
/// both 2⁵³ and 2⁵³ + 1. Placed on different shards, both rows must count
/// on the sharded service as they do on one shard: pinning the query to
/// the literal's shard answered exactly `[1, 1]` where the truth is 2.
#[test]
fn an_equality_shared_by_several_ints_is_not_pinned_to_one_shard() {
    let two_53 = 1i64 << 53;
    let rows = [
        (two_53, 10.0),
        (two_53 + 1, 10.0),
        (i64::MAX, 5.0),
        (i64::MAX - 1, 7.0),
        (-two_53, 1.0),
        (-two_53 - 1, 2.0),
        (3, 4.0),
    ];
    assert_ne!(
        shard_of(two_53 as u64, 3),
        shard_of((two_53 + 1) as u64, 3),
        "the two rows must land on different shards"
    );
    let schema = Schema::new(vec![
        ColumnDef::exact("grp", ValueType::Int),
        ColumnDef::bounded_float("load"),
    ])
    .unwrap();
    let build = |shards| {
        let mut builder = trapp_server::ServiceBuilder::new()
            .config(ServiceConfig {
                workers: 1,
                shards,
                ..ServiceConfig::default()
            })
            .partition_by("grp")
            .table(Table::new("metrics", schema.clone()));
        for (k, &(grp, load)) in rows.iter().enumerate() {
            let cells = vec![
                BoundedValue::Exact(Value::Int(grp)),
                BoundedValue::exact_f64(load).unwrap(),
            ];
            builder = builder.row("metrics", SourceId::new(1 + k as u64 % 2), cells);
        }
        builder.build_direct().unwrap()
    };
    let single = build(1);
    let count = single
        .query("SELECT COUNT(*) FROM metrics WHERE grp = 9007199254740992")
        .unwrap();
    assert_eq!(count.result.answer.range.lo(), 2.0);
    assert_eq!(count.result.answer.range.hi(), 2.0);
    for shards in [2, 3, 4] {
        let sharded = build(shards);
        for literal in [
            "9007199254740992",
            "9007199254740993",
            "-9007199254740992",
            "9223372036854775807",
            "9223372036854775808",
            "3",
        ] {
            for agg in ["COUNT(*)", "SUM(load)"] {
                let sql = format!("SELECT {agg} FROM metrics WHERE grp = {literal}");
                let a = single.query(&sql).unwrap();
                let b = sharded.query(&sql).unwrap();
                assert_replies_match(&a, &b, &format!("{sql} (shards={shards})"));
                assert!(b.degraded.is_none(), "{sql}");
            }
        }
    }
}
