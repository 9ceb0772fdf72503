//! Service-level integration tests: the issue's acceptance criteria.
//!
//! * sequential service execution is *bit-identical* to the single-threaded
//!   [`Simulation`] on the same workload (same answers, same refresh sets,
//!   same costs);
//! * ≥ 8 concurrent clients get correct bounded answers (contain the true
//!   aggregate, satisfy their precision constraints);
//! * two concurrent queries overlapping on an object trigger exactly one
//!   refresh for it, with answers identical to the sequential loop's.

mod common;

use std::time::Duration;

use common::{loadgen_tables, service_builder, Stack};
use trapp_server::{QueryService, ServiceConfig};
use trapp_system::Simulation;
use trapp_workload::loadgen::{self, LoadConfig, ServiceWorkload};

fn small_workload() -> ServiceWorkload {
    loadgen::generate(&LoadConfig {
        seed: 7,
        groups: 8,
        rows_per_group: 4,
        sources: 3,
        queries: 64,
        ..LoadConfig::default()
    })
}

fn build_simulation(w: &ServiceWorkload) -> Simulation {
    common::reference(loadgen_tables(w), w.config.sources)
}

fn build_service(w: &ServiceWorkload, config: ServiceConfig) -> QueryService {
    Stack::Direct.build(service_builder(loadgen_tables(w), config), Duration::ZERO)
}

/// Run sequentially through the service and the simulation in lockstep:
/// every answer, refresh set, and cost must match exactly — the service's
/// phased plan/fetch/install execution is semantically the seed loop.
#[test]
fn sequential_service_is_bit_identical_to_simulation() {
    let w = small_workload();
    let mut sim = build_simulation(&w);
    let service = build_service(
        &w,
        ServiceConfig {
            workers: 1,
            shards: 1,
            ..ServiceConfig::default()
        },
    );

    for (i, q) in w.queries.iter().enumerate() {
        if i % 8 == 0 {
            sim.clock.advance(25.0);
            service.advance_clock(25.0);
        }
        let a = sim.run_query(&q.sql).unwrap();
        let b = service.query(&q.sql).unwrap();
        assert_eq!(
            a.answer.range, b.result.answer.range,
            "query {i}: {}",
            q.sql
        );
        assert_eq!(a.satisfied, b.result.satisfied);
        assert_eq!(a.refreshed, b.result.refreshed, "query {i}: {}", q.sql);
        assert_eq!(a.refresh_cost, b.result.refresh_cost);
    }
    // Same total transport traffic, too.
    assert_eq!(sim.stats().query_initiated, {
        let s = service.stats();
        s.refreshes_forwarded
    });
}

/// Acceptance: ≥ 8 concurrent clients, every bounded answer correct.
#[test]
fn eight_concurrent_clients_get_correct_bounded_answers() {
    let w = loadgen::generate(&LoadConfig {
        seed: 11,
        groups: 12,
        rows_per_group: 5,
        sources: 4,
        queries: 160,
        ..LoadConfig::default()
    });
    let service = build_service(
        &w,
        ServiceConfig {
            workers: 8,
            shards: 1,
            ..ServiceConfig::default()
        },
    );
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
                        range.lo() - 1e-9 <= t && t <= range.hi() + 1e-9,
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
}

/// Acceptance: two concurrent queries overlapping on an object refresh it
/// exactly once, and coalescing does not change answers — both replies
/// equal what the sequential §4 loop ([`Simulation`], no gateway at all)
/// answers at the same instant.
#[test]
fn overlapping_concurrent_queries_share_refreshes() {
    // One group, two rows → WITHIN 0 forces both objects to refresh.
    let w = loadgen::generate(&LoadConfig {
        seed: 3,
        groups: 1,
        rows_per_group: 2,
        sources: 2,
        queries: 0,
        ..LoadConfig::default()
    });
    let sql = "SELECT SUM(load) WITHIN 0 FROM metrics WHERE grp = 0";

    let service = build_service(
        &w,
        ServiceConfig {
            workers: 2,
            shards: 1,
            ..ServiceConfig::default()
        },
    );
    service.advance_clock(25.0);
    // Submit both before waiting: both are queued at the same logical
    // instant and may execute fully concurrently.
    let t1 = service.submit(sql);
    let t2 = service.submit(sql);
    let r1 = t1.wait().unwrap();
    let r2 = t2.wait().unwrap();

    // Whatever the interleaving, each of the two distinct objects reaches
    // a source exactly once.
    assert_eq!(
        service.stats().refreshes_forwarded,
        2,
        "each overlapping object must be refreshed exactly once"
    );
    let mut sim = build_simulation(&w);
    sim.clock.advance(25.0);
    let reference = sim.run_query(sql).unwrap();
    assert!(reference.answer.is_exact());
    for r in [&r1, &r2] {
        assert!(r.result.satisfied);
        assert_eq!(r.result.answer.range, reference.answer.range);
    }
}

/// The coalescing path genuinely fires under forced overlap: with 2 ms of
/// wire latency per round-trip, identical tight queries submitted
/// together make the later ones share the first's in-flight refreshes (or
/// arrive after the install and skip refreshing entirely) — either way
/// the sources see each object once.
#[test]
fn coalescing_saves_refreshes_under_latency() {
    let w = loadgen::generate(&LoadConfig {
        seed: 5,
        groups: 1,
        rows_per_group: 6,
        sources: 3,
        queries: 0,
        ..LoadConfig::default()
    });
    let config = ServiceConfig {
        workers: 4,
        shards: 1,
        ..ServiceConfig::default()
    };
    let service = Stack::Completion.build(
        service_builder(loadgen_tables(&w), config),
        Duration::from_millis(2),
    );
    service.advance_clock(25.0);

    let sql = "SELECT SUM(load) WITHIN 0 FROM metrics WHERE grp = 0";
    let tickets: Vec<_> = (0..4).map(|_| service.submit(sql)).collect();
    let replies: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    for r in &replies {
        assert!(r.result.satisfied);
        assert!(r.result.answer.is_exact());
    }
    let stats = service.stats();
    assert_eq!(
        stats.refreshes_forwarded, 6,
        "six objects, each refreshed exactly once across four identical queries"
    );
    assert_eq!(stats.errors, 0);
}

/// The shard-lock counters cover every lock section a query takes: after
/// queries that fetch on a 1-shard service both have moved, and neither
/// ever moves backwards.
#[test]
fn shard_lock_counters_grow_with_fetching_queries() {
    let w = small_workload();
    let service = build_service(
        &w,
        ServiceConfig {
            workers: 1,
            shards: 1,
            ..ServiceConfig::default()
        },
    );
    let mut last = service.stats();
    assert_eq!((last.shard_lock_wait_us, last.shard_lock_hold_us), (0, 0));
    for (i, q) in w.queries.iter().chain(&w.queries).enumerate() {
        if i % 8 == 0 {
            service.advance_clock(25.0);
        }
        service.query(&q.sql).unwrap();
        let now = service.stats();
        assert!(
            now.shard_lock_wait_us >= last.shard_lock_wait_us,
            "query {i}"
        );
        assert!(
            now.shard_lock_hold_us >= last.shard_lock_hold_us,
            "query {i}"
        );
        last = now;
    }
    assert!(last.round_trips > 0, "the queries fetched");
    assert!(last.shard_lock_wait_us > 0);
    assert!(last.shard_lock_hold_us > 0);
}
