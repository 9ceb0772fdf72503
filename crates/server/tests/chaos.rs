//! Fault-matrix tests: the service under a deterministic
//! [`ChaosTransport`] schedule, on both the direct (inline-resolving) and
//! the completion-based transports.
//!
//! The invariants under test are the paper's availability story:
//!
//! * **Strict** never returns a wrong answer — every `Ok` reply's bound
//!   contains the exact aggregate and meets its `WITHIN`; every failure
//!   surfaces as a *structured* error (partial result / typed timeout /
//!   source unavailable), never a silently-wrong bound.
//! * **BestEffort** never errors and never violates a bound — replies
//!   that could not meet their constraint carry
//!   [`ServiceReply::degraded`], and the widened bound still contains
//!   the exact value (TRAPP bounds are correct at any staleness;
//!   degradation only loses the ability to *narrow*).
//! * Retry + circuit breakers **recover**: once a scripted outage ends
//!   and the breaker cooldown elapses, queries go back to full-precision
//!   answers.
//!
//! Chaos never moves master values (the update plane passes through
//! untouched), so the exact aggregate of each query is computable from
//! the workload's initial masters throughout.

use std::collections::HashSet;
use std::time::Duration;

use proptest::prelude::*;
use trapp_core::refresh::iterative::IterativeHeuristic;
use trapp_core::ExecutionMode;
use trapp_server::{
    DegradationPolicy, HealthConfig, QueryService, RetryPolicy, ServiceBuilder, ServiceConfig,
};
use trapp_system::{ChaosConfig, OutageWindow};
use trapp_types::{SourceId, TrappError};
use trapp_workload::loadgen::{self, AggTemplate, GeneratedQuery, LoadConfig, ServiceWorkload};

mod common;
use common::{Stack, STACKS};

fn workload(seed: u64, queries: usize) -> ServiceWorkload {
    loadgen::generate(&LoadConfig {
        seed,
        groups: 8,
        rows_per_group: 3,
        sources: 3,
        queries,
        global_fraction: 0.35,
        ..LoadConfig::default()
    })
}

/// Builds a 2-shard service over `stack` with the given chaos schedule.
fn build(
    w: &ServiceWorkload,
    stack: Stack,
    degradation: DegradationPolicy,
    chaos: ChaosConfig,
) -> QueryService {
    let mut b = ServiceBuilder::new()
        .config(ServiceConfig {
            workers: 2,
            shards: 2,
            degradation,
            // Short per-attempt deadlines and near-zero backoff keep the
            // retry machinery exercised without slowing the suite.
            retry: RetryPolicy {
                max_retries: 2,
                fetch_timeout: Duration::from_millis(500),
                initial_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_millis(2),
            },
            health: HealthConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(50),
            },
            ..ServiceConfig::default()
        })
        .partition_by("grp")
        .table(loadgen::table())
        .chaos(chaos);
    for r in &w.rows {
        b = b.row("metrics", r.source, r.cells.clone());
    }
    stack.build(b, Duration::from_micros(100))
}

/// Every `Ok` reply must bound the truth (`loadgen::ground_truth` over
/// the workload's masters, which chaos never moves); satisfied replies
/// must also meet their `WITHIN`. Returns whether the reply was degraded.
fn check_reply(
    w: &ServiceWorkload,
    q: &GeneratedQuery,
    reply: &trapp_server::ServiceReply,
) -> bool {
    let exact = loadgen::ground_truth(w, q);
    let range = reply.result.answer.range;
    assert!(
        range.lo() <= exact && exact <= range.hi(),
        "wrong answer for `{}`: {range:?} does not contain {exact}",
        q.sql
    );
    if reply.result.satisfied {
        assert!(
            range.width() <= q.within,
            "precision violation for `{}`: width {} > WITHIN {}",
            q.sql,
            range.width(),
            q.within
        );
    }
    if let Some(d) = &reply.degraded {
        assert!(
            !d.dark_sources.is_empty(),
            "degraded reply must name its dark sources"
        );
        assert_eq!(d.requested_width, Some(q.within));
    }
    reply.degraded.is_some()
}

/// A failure under chaos must be one of the structured fault classes —
/// never a parse/internal error, and never a silently-wrong answer.
fn assert_structured(err: &TrappError) {
    assert!(
        matches!(
            err,
            TrappError::PartialResult(_)
                | TrappError::Timeout { .. }
                | TrappError::SourceUnavailable(_)
                | TrappError::RefreshFailed(_)
        ),
        "unstructured failure under chaos: {err:?}"
    );
}

/// Acceptance (Strict): one source failing with p = 0.2, on both
/// transports — zero wrong answers; every failure is structured.
#[test]
fn strict_under_chaos_never_returns_a_wrong_answer() {
    for stack in STACKS {
        let w = workload(21, 48);
        let service = build(
            &w,
            stack,
            DegradationPolicy::Strict,
            ChaosConfig {
                seed: 7,
                fail_p: vec![(SourceId::new(1), 0.2)],
                ..ChaosConfig::default()
            },
        );
        let mut succeeded = 0usize;
        for (i, q) in w.queries.iter().enumerate() {
            if i % 4 == 0 {
                service.advance_clock(10.0); // re-widen so queries keep fetching
            }
            match service.query(&q.sql) {
                Ok(reply) => {
                    let degraded = check_reply(&w, q, &reply);
                    assert!(
                        !degraded,
                        "Strict must error rather than degrade ({stack:?})"
                    );
                    succeeded += 1;
                }
                Err(e) => assert_structured(&e),
            }
        }
        assert!(
            succeeded > 0,
            "chaos at p=0.2 with retries should leave most queries succeeding ({stack:?})"
        );
        assert!(
            service.chaos_control().unwrap().injected_failures() > 0,
            "the schedule must actually have injected faults ({stack:?})"
        );
        service.shutdown();
    }
}

/// Acceptance (BestEffort): same schedule — zero errors, zero bound
/// violations; unmet constraints surface as degraded replies instead.
#[test]
fn best_effort_under_chaos_never_errors_and_never_violates_a_bound() {
    for stack in STACKS {
        let w = workload(22, 48);
        let service = build(
            &w,
            stack,
            DegradationPolicy::BestEffort,
            ChaosConfig {
                seed: 11,
                fail_p: vec![(SourceId::new(1), 0.2)],
                ..ChaosConfig::default()
            },
        );
        for (i, q) in w.queries.iter().enumerate() {
            if i % 4 == 0 {
                service.advance_clock(10.0);
            }
            let reply = service
                .query(&q.sql)
                .unwrap_or_else(|e| panic!("BestEffort must never error, got {e} ({stack:?})"));
            let degraded = check_reply(&w, q, &reply);
            assert!(
                reply.result.satisfied || degraded,
                "an unsatisfied best-effort reply must be marked degraded ({stack:?})"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.errors, 0);
        service.shutdown();
    }
}

/// Acceptance (recovery): a scripted outage of one source mid-churn. The
/// breaker opens (the source goes dark, queries degrade), and once the
/// outage ends and the cooldown elapses, a half-open probe snaps it
/// closed — ≥ 95 % of post-outage queries come back at full precision.
#[test]
fn breaker_recovers_full_precision_after_a_scripted_outage() {
    for stack in STACKS {
        let w = workload(23, 0);
        let service = build(
            &w,
            stack,
            DegradationPolicy::BestEffort,
            ChaosConfig::default(), // faults come from the manual kill switch
        );
        let control = service.chaos_control().unwrap().clone();
        let down = SourceId::new(1);
        let sql = "SELECT SUM(load) WITHIN 0.5 FROM metrics";

        // Healthy warm-up: full precision, no degradation.
        service.advance_clock(10.0);
        let reply = service.query(sql).unwrap();
        assert!(reply.result.satisfied && reply.degraded.is_none());

        // Outage: every query still answers (bounds stay correct) but the
        // ones needing the dark source degrade; the breaker opens.
        control.force_down(down);
        let mut degraded_during_outage = 0usize;
        for _ in 0..10 {
            service.advance_clock(10.0);
            let reply = service.query(sql).unwrap();
            if check_reply(
                &w,
                &GeneratedQuery {
                    sql: sql.to_string(),
                    group: None,
                    agg: AggTemplate::Sum,
                    within: 0.5,
                    deadline: None,
                    shape: loadgen::QueryShape::Scalar,
                },
                &reply,
            ) {
                degraded_during_outage += 1;
            }
        }
        assert!(
            degraded_during_outage > 0,
            "a downed source under tight WITHIN must force degradation ({stack:?})"
        );
        assert!(
            service.dark_sources().contains(&down),
            "the breaker must have opened for the downed source ({stack:?})"
        );

        // Outage ends; wait out the cooldown so the next plan may probe.
        control.restore(down);
        std::thread::sleep(Duration::from_millis(80));

        let rounds = 40usize;
        let mut full_precision = 0usize;
        for _ in 0..rounds {
            service.advance_clock(10.0);
            let reply = service.query(sql).unwrap();
            if reply.result.satisfied && reply.degraded.is_none() {
                full_precision += 1;
            }
        }
        assert!(
            full_precision * 100 >= rounds * 95,
            "only {full_precision}/{rounds} queries recovered full precision ({stack:?})"
        );
        assert!(
            service.dark_sources().is_empty(),
            "breakers must close again after recovery ({stack:?})"
        );
        service.shutdown();
    }
}

/// Iterative mode (§8.2) runs the same loop as every other shape, so a
/// downed source is excluded or refused like anywhere else: BestEffort
/// answers a degraded `Ok` whose bound contains the truth and names the
/// dark source, Strict refuses with a typed unavailability — on both
/// stacks, for a scatter-gathered global query and a `GROUP BY`.
#[test]
fn iterative_mode_with_a_downed_source_degrades_or_refuses() {
    let down = SourceId::new(2);
    let w = workload(29, 0);
    let query = |sql: &str, shape| GeneratedQuery {
        sql: sql.to_string(),
        group: None,
        agg: AggTemplate::Sum,
        within: 0.5,
        deadline: None,
        shape,
    };
    let scalar = query(
        "SELECT SUM(load) WITHIN 0.5 FROM metrics",
        loadgen::QueryShape::Scalar,
    );
    let grouped = query(
        "SELECT SUM(load) WITHIN 0.5 FROM metrics GROUP BY grp",
        loadgen::QueryShape::Grouped,
    );
    for stack in STACKS {
        for policy in [DegradationPolicy::BestEffort, DegradationPolicy::Strict] {
            let service = build(&w, stack, policy, ChaosConfig::default());
            for s in 0..service.shard_count() {
                service.with_shard_cache(s, |cache| {
                    cache.session_mut().config.mode =
                        ExecutionMode::Iterative(IterativeHeuristic::BestRatio);
                });
            }
            service.chaos_control().unwrap().force_down(down);
            for q in [&scalar, &grouped] {
                service.advance_clock(25.0);
                let context = format!("`{}` ({stack:?}, {policy:?})", q.sql);
                match (policy, service.query(&q.sql)) {
                    (DegradationPolicy::BestEffort, Ok(reply)) => {
                        if q.shape == loadgen::QueryShape::Scalar {
                            assert!(check_reply(&w, q, &reply), "{context}: not degraded");
                        } else {
                            let truths = loadgen::ground_truth_groups(&w, q);
                            assert_eq!(reply.groups.len(), truths.len(), "{context}");
                            for (g, (_, truth)) in reply.groups.iter().zip(truths) {
                                let range = g.result.answer.range;
                                assert!(
                                    range.lo() <= truth && truth <= range.hi(),
                                    "{context}: group {:?} bound {range:?} misses {truth}",
                                    g.key
                                );
                            }
                        }
                        let degraded = reply.degraded.expect("a dark source must degrade");
                        assert_eq!(degraded.dark_sources, vec![down], "{context}");
                        assert!(!reply.result.satisfied, "{context}");
                    }
                    (DegradationPolicy::Strict, Err(e)) => assert!(
                        matches!(
                            e,
                            TrappError::SourceUnavailable(s) if s == down
                        ) || matches!(e, TrappError::PartialResult(_)),
                        "{context}: untyped refusal {e:?}"
                    ),
                    (_, other) => panic!("{context}: got {other:?}"),
                }
            }
            service.shutdown();
        }
    }
}

/// The builder wires exactly one chaos control across all shards, and
/// only when asked.
#[test]
fn chaos_control_is_exposed_only_when_configured() {
    let w = workload(24, 0);
    let with_chaos = build(
        &w,
        Stack::Direct,
        DegradationPolicy::Strict,
        ChaosConfig::default(),
    );
    assert!(with_chaos.chaos_control().is_some());
    assert_eq!(with_chaos.chaos_control().unwrap().ops(), 0);
    with_chaos.shutdown();

    let mut b = ServiceBuilder::new()
        .config(ServiceConfig::default())
        .table(loadgen::table());
    for r in &w.rows {
        b = b.row("metrics", r.source, r.cells.clone());
    }
    let without = b.build_direct().unwrap();
    assert!(without.chaos_control().is_none());
    assert!(without.dark_sources().is_empty());
    without.shutdown();
}

/// One seeded schedule run on one stack under one policy; asserts the
/// full invariant set. Shared by the proptest below.
fn run_schedule(seed: u64, fail_p: f64, outage_at: u64, stack: Stack, policy: DegradationPolicy) {
    let w = loadgen::generate(&LoadConfig {
        seed: seed ^ 0x9E37,
        groups: 4,
        rows_per_group: 2,
        sources: 2,
        queries: 16,
        global_fraction: 0.3,
        ..LoadConfig::default()
    });
    let service = build(
        &w,
        stack,
        policy,
        ChaosConfig {
            seed,
            fail_p: vec![(SourceId::new(1), fail_p)],
            outages: vec![OutageWindow {
                source: Some(SourceId::new(1)),
                from_op: outage_at,
                to_op: outage_at + 8,
            }],
            ..ChaosConfig::default()
        },
    );
    let mut seen_sources = HashSet::new();
    for (i, q) in w.queries.iter().enumerate() {
        if i % 3 == 0 {
            service.advance_clock(10.0);
        }
        match service.query(&q.sql) {
            Ok(reply) => {
                let degraded = check_reply(&w, q, &reply);
                match policy {
                    DegradationPolicy::Strict => assert!(!degraded),
                    DegradationPolicy::BestEffort => {
                        assert!(reply.result.satisfied || degraded);
                    }
                }
                if let Some(d) = &reply.degraded {
                    seen_sources.extend(d.dark_sources.iter().copied());
                }
            }
            Err(e) => {
                assert!(
                    policy == DegradationPolicy::Strict,
                    "BestEffort must never error, got {e} ({stack:?}, seed {seed})"
                );
                assert_structured(&e);
            }
        }
    }
    // Degradation only ever blames the schedule's one faulty source.
    assert!(
        seen_sources.is_subset(&HashSet::from([SourceId::new(1)])),
        "degradation blamed healthy sources: {seen_sources:?}"
    );
    service.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random seeded fault schedules (per-op failure probability plus an
    /// op-scripted outage window), replayed on the direct and
    /// completion stacks under both degradation policies: bounds always
    /// contain the exact value, satisfied replies never violate WITHIN,
    /// Strict failures stay structured, BestEffort never errors.
    #[test]
    fn seeded_chaos_schedules_preserve_answer_correctness(
        seed in 0u64..1_000_000,
        fail_p in 0.05f64..0.4,
        outage_at in 0u64..48,
    ) {
        for stack in STACKS {
            run_schedule(seed, fail_p, outage_at, stack, DegradationPolicy::Strict);
            run_schedule(seed, fail_p, outage_at, stack, DegradationPolicy::BestEffort);
        }
    }
}
