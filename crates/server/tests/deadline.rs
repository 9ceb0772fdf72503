//! Deadline-matrix tests: the service under per-query `DEADLINE` budgets
//! and seeded slow-source latency chaos, plus the admission-control
//! ladder at the front door.
//!
//! The invariants under test are the overload story (see
//! `ARCHITECTURE.md` §9):
//!
//! * **Strict** never returns a *late* answer: a query whose deadline
//!   cannot be met surfaces as a typed
//!   [`TrappError::DeadlineExceeded`] — never a wrong bound, never an
//!   answer after its budget.
//! * **BestEffort** never errors on a blown deadline: it trades
//!   precision for time (widening the constraint, ultimately answering
//!   from cache alone), and the reply's bound still contains the exact
//!   answer.
//! * The install invariant holds mid-overload: refreshes that *did*
//!   land before the deadline expired are installed before the reply —
//!   a deadline abandons waiting, never served refreshes. Stragglers
//!   (round-trips that outlive their wait) park and install later.

use std::time::{Duration, Instant};

use trapp_server::{
    AdmissionConfig, DegradationPolicy, HealthConfig, QueryService, RetryPolicy, ServiceBuilder,
    ServiceConfig, ServiceReply,
};
use trapp_storage::{ColumnDef, Schema, Table};
use trapp_system::{ChaosConfig, CostModel, DelaySpec};
use trapp_types::{BoundedValue, SourceId, TrappError, Value, ValueType};

mod common;
use common::{Stack, STACKS};

fn metrics_table() -> Table {
    let schema = Schema::new(vec![
        ColumnDef::exact("grp", ValueType::Int),
        ColumnDef::bounded_float("load"),
    ])
    .unwrap();
    Table::new("metrics", schema)
}

/// Two groups on two sources: grp 0 lives on source 1, grp 1 on
/// source 2 — so per-source latency chaos maps cleanly onto groups.
fn builder(degradation: DegradationPolicy, admission: AdmissionConfig) -> ServiceBuilder {
    let mut b = ServiceBuilder::new()
        .config(ServiceConfig {
            workers: 2,
            shards: 1,
            degradation,
            retry: RetryPolicy {
                max_retries: 0,
                fetch_timeout: Duration::from_millis(100),
                initial_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_millis(2),
            },
            // Keep breakers out of the way: these tests isolate the
            // deadline machinery, not the fault machinery.
            health: HealthConfig {
                failure_threshold: 1000,
                cooldown: Duration::from_secs(3600),
            },
            admission,
            ..ServiceConfig::default()
        })
        .partition_by("grp")
        .table(metrics_table());
    for (grp, source, load) in [
        (0i64, 1u64, 10.0f64),
        (0, 1, 20.0),
        (1, 2, 30.0),
        (1, 2, 40.0),
    ] {
        b = b.row(
            "metrics",
            SourceId::new(source),
            vec![
                BoundedValue::Exact(Value::Int(grp)),
                BoundedValue::exact_f64(load).unwrap(),
            ],
        );
    }
    b
}

fn build(
    stack: Stack,
    degradation: DegradationPolicy,
    admission: AdmissionConfig,
    chaos: ChaosConfig,
) -> QueryService {
    let b = builder(degradation, admission).chaos(chaos);
    stack.build(b, Duration::from_micros(100))
}

/// The reply's bound must contain the exact aggregate (chaos never moves
/// master values).
fn assert_contains(reply: &ServiceReply, exact: f64, sql: &str) {
    let range = reply.result.answer.range;
    assert!(
        range.lo() <= exact && exact <= range.hi(),
        "wrong answer for `{sql}`: {range:?} does not contain {exact}"
    );
}

/// A round-trip that outlives its wait on the *inline-resolving* direct
/// transport (chaos delays the completion, not the submitter) surfaces as a typed
/// [`TrappError::Timeout`], parks as a straggler, and installs once a
/// later fetch reaps it — proven by a follow-up query on the slow group
/// answering at full precision from cache with zero round-trips.
#[test]
fn blocking_transport_timeout_parks_straggler_and_installs_on_reap() {
    let service = build(
        Stack::Direct,
        DegradationPolicy::Strict,
        AdmissionConfig::default(),
        ChaosConfig {
            seed: 3,
            delay: vec![(
                SourceId::new(2),
                DelaySpec::fixed(Duration::from_millis(400)),
            )],
            ..ChaosConfig::default()
        },
    );
    service.advance_clock(100.0); // widen every bound: queries must fetch

    // Slow group: the single attempt (fetch_timeout 100 ms, no retries)
    // expires under the 400 ms wire delay.
    let err = service
        .query("SELECT SUM(load) WITHIN 0.5 FROM metrics WHERE grp = 1")
        .unwrap_err();
    let TrappError::Timeout { source, waited_ms } = err else {
        panic!("expected a typed timeout, got {err:?}");
    };
    assert_eq!(source, SourceId::new(2));
    assert!(waited_ms >= 100, "waited {waited_ms} ms < the attempt cap");
    assert!(
        service.chaos_control().unwrap().injected_delays() > 0,
        "the schedule must actually have charged a delay"
    );

    // Let the delayed round-trip land in the park...
    std::thread::sleep(Duration::from_millis(500));
    // ...then any fetch through the same gateway reaps it. The fast
    // group's fetch does.
    service
        .query("SELECT SUM(load) WITHIN 0.5 FROM metrics WHERE grp = 0")
        .unwrap();

    // The straggler's refresh is installed: the slow group now answers
    // at full precision from cache, with no new round-trip (a fetch
    // would have hit the 400 ms delay and timed out loudly).
    let reply = service
        .query("SELECT SUM(load) WITHIN 0.5 FROM metrics WHERE grp = 1")
        .unwrap();
    assert!(reply.result.satisfied);
    assert_eq!(
        reply.round_trips, 0,
        "slow group should be served from the reaped straggler's install"
    );
    assert_contains(&reply, 70.0, "grp 1 after reap");
    service.shutdown();
}

/// Regression: a deadline hit mid-fetch installs the refreshes that did
/// arrive before answering. The fast source's refreshes land inside the
/// budget; the slow source blows it; best-effort still answers — and a
/// follow-up full-precision query over the fast group runs entirely from
/// cache, proving the survivors were installed.
#[test]
fn deadline_hit_mid_fetch_installs_surviving_refreshes_before_answering() {
    for stack in STACKS {
        let service = build(
            stack,
            DegradationPolicy::BestEffort,
            AdmissionConfig::default(),
            ChaosConfig {
                seed: 5,
                delay: vec![(
                    SourceId::new(2),
                    DelaySpec::fixed(Duration::from_millis(500)),
                )],
                ..ChaosConfig::default()
            },
        );
        service.advance_clock(100.0);

        let started = Instant::now();
        let reply = service
            .query("SELECT SUM(load) WITHIN 0.5 DEADLINE 150 FROM metrics")
            .unwrap_or_else(|e| panic!("BestEffort must answer, got {e} ({stack:?})"));
        let took = started.elapsed();
        assert_contains(&reply, 100.0, "global under deadline");
        let degraded = reply
            .degraded
            .as_ref()
            .unwrap_or_else(|| panic!("blown budget must surface as degraded ({stack:?})"));
        assert!(
            degraded.dark_sources.contains(&SourceId::new(2)),
            "the source that blew the deadline must be named ({stack:?})"
        );
        assert_eq!(degraded.requested_width, Some(0.5));
        assert!(
            took < Duration::from_secs(1),
            "deadline-bounded query took {took:?} ({stack:?})"
        );

        // Same sim instant: the fast group's refresh was installed
        // before the degraded answer went out, so full precision comes
        // straight from cache.
        let reply = service
            .query("SELECT SUM(load) WITHIN 0.5 FROM metrics WHERE grp = 0")
            .unwrap();
        assert!(reply.result.satisfied);
        assert_eq!(
            reply.round_trips, 0,
            "surviving refreshes must already be installed ({stack:?})"
        );
        assert_contains(&reply, 30.0, "grp 0 after deadline hit");
        service.shutdown();
    }
}

/// Strict + slow sources: every blown budget is a typed
/// [`TrappError::DeadlineExceeded`] — never a raw transport symptom,
/// never a late answer.
#[test]
fn strict_deadline_surfaces_only_typed_deadline_errors() {
    for stack in STACKS {
        let service = build(
            stack,
            DegradationPolicy::Strict,
            AdmissionConfig::default(),
            ChaosConfig {
                seed: 9,
                default_delay: Some(DelaySpec::fixed(Duration::from_millis(300))),
                ..ChaosConfig::default()
            },
        );
        let mut deadline_errors = 0usize;
        for i in 0..4 {
            service.advance_clock(50.0);
            let started = Instant::now();
            let sql = format!(
                "SELECT SUM(load) WITHIN 0.5 DEADLINE 80 FROM metrics WHERE grp = {}",
                i % 2
            );
            match service.query(&sql) {
                Ok(reply) => {
                    // An on-time answer is fine — but it must be on time.
                    assert!(
                        started.elapsed() < Duration::from_millis(500),
                        "late Ok under Strict ({stack:?})"
                    );
                    assert!(reply.degraded.is_none() || reply.degraded.as_ref().is_some());
                }
                Err(TrappError::DeadlineExceeded { deadline_ms, .. }) => {
                    // `elapsed_ms` may be *under* the budget: once the
                    // fetch-rate estimate warms up, Strict refuses
                    // proactively when it can prove the plan cannot fit
                    // the remaining budget, rather than burning it.
                    assert_eq!(deadline_ms, 80);
                    deadline_errors += 1;
                }
                Err(e) => panic!("expected DeadlineExceeded, got {e:?} ({stack:?})"),
            }
        }
        assert!(
            deadline_errors > 0,
            "300 ms wire delay against an 80 ms budget must blow deadlines ({stack:?})"
        );
        service.shutdown();
    }
}

/// A zero deadline is the degenerate pre-execution shed: Strict refuses
/// before any work; BestEffort answers from cache alone, degraded.
#[test]
fn zero_deadline_sheds_before_execution() {
    let strict = builder(DegradationPolicy::Strict, AdmissionConfig::default())
        .build_direct()
        .unwrap();
    strict.advance_clock(100.0);
    let err = strict
        .query("SELECT SUM(load) WITHIN 0.5 DEADLINE 0 FROM metrics")
        .unwrap_err();
    assert!(
        matches!(err, TrappError::DeadlineExceeded { deadline_ms: 0, .. }),
        "got {err:?}"
    );
    strict.shutdown();

    let best = builder(DegradationPolicy::BestEffort, AdmissionConfig::default())
        .build_direct()
        .unwrap();
    best.advance_clock(100.0);
    let reply = best
        .query("SELECT SUM(load) WITHIN 0.5 DEADLINE 0 FROM metrics")
        .unwrap();
    assert_contains(&reply, 100.0, "DEADLINE 0 cache-only answer");
    let degraded = reply.degraded.expect("cache-only answer must be degraded");
    assert!(degraded.load_shed, "deadline widening is a load shed");
    assert_eq!(degraded.requested_width, Some(0.5));
    assert_eq!(reply.round_trips, 0, "no fetch inside a zero budget");
    assert_eq!(best.stats().deadline_widened, 1);
    best.shutdown();
}

/// The deadline guard's estimate never panics. A source whose refreshes
/// cost 10⁻³⁰⁰ teaches the fetch-rate estimate about 10³⁰¹ µs per cost
/// unit; costing a unit-cost plan against it overflows a `Duration`. The
/// estimate saturates instead: no budget fits it, so Strict refuses with
/// the typed `DeadlineExceeded` and BestEffort sheds to a degraded
/// cache-only answer that still contains the exact one.
#[test]
fn an_estimate_past_what_a_duration_holds_refuses_or_sheds() {
    for degradation in [DegradationPolicy::Strict, DegradationPolicy::BestEffort] {
        let service = builder(degradation, AdmissionConfig::default())
            .cost_model(CostModel::PerSource {
                costs: [(SourceId::new(1), 1e-300), (SourceId::new(2), 1.0)]
                    .into_iter()
                    .collect(),
                default: 1.0,
            })
            .build_direct()
            .unwrap();
        service.advance_clock(100.0);
        let seed = service
            .query("SELECT SUM(load) WITHIN 0 FROM metrics WHERE grp = 0")
            .unwrap();
        assert!(seed.round_trips > 0, "the seeding query must fetch");
        let sql = "SELECT SUM(load) WITHIN 0 DEADLINE 1000 FROM metrics WHERE grp = 1";
        match (degradation, service.query(sql)) {
            (DegradationPolicy::Strict, Err(TrappError::DeadlineExceeded { .. })) => {}
            (DegradationPolicy::BestEffort, Ok(reply)) => {
                assert_contains(&reply, 70.0, sql);
                let degraded = reply.degraded.expect("a shed answer is degraded");
                assert!(degraded.load_shed);
                assert_eq!(reply.round_trips, 0);
            }
            (policy, other) => panic!("{policy:?}: unexpected reply {other:?}"),
        }
        service.shutdown();
    }
}

/// A `DEADLINE` past what a `Duration` (or an `Instant` after the query's
/// submission) holds saturates: it is a budget no fetch can blow, so a
/// `WITHIN 0` query fetches and answers exactly under both policies
/// instead of panicking inside the service.
#[test]
fn a_deadline_past_what_a_duration_holds_answers() {
    for degradation in [DegradationPolicy::Strict, DegradationPolicy::BestEffort] {
        let service = builder(degradation, AdmissionConfig::default())
            .build_direct()
            .unwrap();
        for d in ["1e23", "1e300"] {
            service.advance_clock(100.0);
            let sql = format!("SELECT SUM(load) WITHIN 0 DEADLINE {d} FROM metrics WHERE grp = 1");
            let reply = service
                .query(&sql)
                .unwrap_or_else(|e| panic!("{degradation:?}: `{sql}` failed: {e:?}"));
            assert_contains(&reply, 70.0, &sql);
            assert!(reply.result.answer.is_exact(), "{degradation:?}: `{sql}`");
            assert!(reply.degraded.is_none(), "{degradation:?}: `{sql}`");
            assert!(reply.round_trips > 0, "the widened bounds must be fetched");
        }
        service.shutdown();
    }
}

/// The admission ladder at the front door: above the widen watermark a
/// query runs with a relaxed constraint (reply names the original ask);
/// above the reject watermark it sheds with a typed
/// [`TrappError::Overloaded`] before it waits for an execution permit.
#[test]
fn admission_ladder_widens_then_sheds_at_the_front_door() {
    // widen_watermark 0: every query admits widened ×1000 — wide enough
    // that the cache answers without a fetch.
    let service = builder(
        DegradationPolicy::BestEffort,
        AdmissionConfig {
            widen_watermark: 0,
            widen_factor: 1000.0,
            ..AdmissionConfig::default()
        },
    )
    .build_direct()
    .unwrap();
    service.advance_clock(25.0);
    let reply = service
        .query("SELECT SUM(load) WITHIN 0.5 FROM metrics")
        .unwrap();
    assert_contains(&reply, 100.0, "admission-widened global");
    let degraded = reply.degraded.expect("widened reply must be degraded");
    assert!(degraded.load_shed);
    assert_eq!(degraded.requested_width, Some(0.5));
    assert_eq!(reply.round_trips, 0, "×1000 constraint needs no fetch");
    assert_eq!(service.stats().admission_widened, 1);
    service.shutdown();

    // reject_watermark 0: everything sheds.
    let service = builder(
        DegradationPolicy::Strict,
        AdmissionConfig {
            reject_watermark: 0,
            ..AdmissionConfig::default()
        },
    )
    .build_direct()
    .unwrap();
    let err = service
        .query("SELECT SUM(load) WITHIN 0.5 FROM metrics")
        .unwrap_err();
    assert!(
        matches!(err, TrappError::Overloaded { limit: 0, .. }),
        "got {err:?}"
    );
    let stats = service.stats();
    assert_eq!(stats.admission_rejected, 1);
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.queries, 0, "a shed query never executes");
    service.shutdown();
}

/// Iterative mode (§8.2) reaches its reply through the same answer phase
/// as every other shape, so an admission-widened iterative reply is
/// marked degraded and names the original ask.
#[test]
fn admission_widened_iterative_reply_names_the_original_ask() {
    let service = builder(
        DegradationPolicy::BestEffort,
        AdmissionConfig {
            widen_watermark: 0,
            widen_factor: 1000.0,
            ..AdmissionConfig::default()
        },
    )
    .build_direct()
    .unwrap();
    service.with_shard_cache(0, |cache| {
        cache.session_mut().config.mode = trapp_core::ExecutionMode::Iterative(
            trapp_core::refresh::iterative::IterativeHeuristic::BestRatio,
        );
    });
    service.advance_clock(25.0);
    let reply = service
        .query("SELECT SUM(load) WITHIN 0.5 FROM metrics")
        .unwrap();
    assert_contains(&reply, 100.0, "admission-widened iterative global");
    let degraded = reply.degraded.expect("a widened reply must be degraded");
    assert!(degraded.load_shed);
    assert_eq!(degraded.requested_width, Some(0.5));
    service.shutdown();
}

/// BestEffort under uniform latency chaos with a deadline: zero errors,
/// zero bound violations, and per-query latency bounded by the budget
/// (plus scheduling slack) — precision floats instead of time.
#[test]
fn best_effort_deadline_bounds_latency_not_precision() {
    for stack in STACKS {
        let service = build(
            stack,
            DegradationPolicy::BestEffort,
            AdmissionConfig::default(),
            ChaosConfig {
                seed: 13,
                default_delay: Some(DelaySpec::fixed(Duration::from_millis(250))),
                ..ChaosConfig::default()
            },
        );
        for _ in 0..4 {
            service.advance_clock(50.0);
            let started = Instant::now();
            let reply = service
                .query("SELECT SUM(load) WITHIN 0.5 DEADLINE 120 FROM metrics")
                .unwrap_or_else(|e| panic!("BestEffort must never error, got {e} ({stack:?})"));
            let took = started.elapsed();
            assert_contains(&reply, 100.0, "best-effort deadline global");
            assert!(
                took < Duration::from_secs(1),
                "deadline-bounded query took {took:?} ({stack:?})"
            );
            assert!(
                reply.result.satisfied || reply.degraded.is_some(),
                "an unmet constraint must surface as degraded ({stack:?})"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.errors, 0);
        service.shutdown();
    }
}

/// Iterative mode (§8.2) runs the same deadline guard as every other
/// shape: each round's fetch is costed against what is left of the
/// budget, so a BestEffort iterative query against slow sources widens
/// its constraint (ultimately answering from cache) within its
/// `DEADLINE` instead of erroring or answering late.
#[test]
fn best_effort_iterative_query_widens_within_its_deadline() {
    const DEADLINE_MS: u64 = 120;
    for stack in STACKS {
        let service = build(
            stack,
            DegradationPolicy::BestEffort,
            AdmissionConfig::default(),
            ChaosConfig {
                seed: 17,
                default_delay: Some(DelaySpec::fixed(Duration::from_millis(250))),
                ..ChaosConfig::default()
            },
        );
        service.with_shard_cache(0, |cache| {
            cache.session_mut().config.mode = trapp_core::ExecutionMode::Iterative(
                trapp_core::refresh::iterative::IterativeHeuristic::BestRatio,
            );
        });
        for _ in 0..4 {
            service.advance_clock(50.0);
            let started = Instant::now();
            let reply = service
                .query(format!(
                    "SELECT SUM(load) WITHIN 0.5 DEADLINE {DEADLINE_MS} FROM metrics"
                ))
                .unwrap_or_else(|e| panic!("BestEffort must never error, got {e} ({stack:?})"));
            let took = started.elapsed();
            assert_contains(&reply, 100.0, "best-effort iterative deadline global");
            // The budget plus scheduling slack.
            assert!(
                took < Duration::from_millis(DEADLINE_MS + 100),
                "iterative query answered late: {took:?} ({stack:?})"
            );
            assert!(
                reply.result.satisfied || reply.degraded.is_some(),
                "an unmet constraint must surface as degraded ({stack:?})"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.errors, 0);
        assert!(
            stats.deadline_widened > 0,
            "the deadline guard never widened an iterative query ({stack:?})"
        );
        service.shutdown();
    }
}
