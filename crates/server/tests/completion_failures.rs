//! Failure semantics on the completion-based transport: a source that
//! fails mid-completion must surface [`TrappError::PartialResult`] while
//! every refresh that *did* arrive is installed — the mirror of the
//! scatter shard-loss test, run over [`ServiceBuilder::build_completion`]
//! instead of the direct stack.

mod common;

use std::time::Duration;

use common::{loadgen_tables, service_builder, Stack};
use trapp_server::{QueryService, ServiceConfig};
use trapp_types::{shard_of, ObjectId, SourceId, TrappError};
use trapp_workload::loadgen::{self, LoadConfig, ServiceWorkload};

const SHARDS: usize = 4;

fn build(w: &ServiceWorkload) -> QueryService {
    let config = ServiceConfig {
        workers: 2,
        shards: SHARDS,
        ..ServiceConfig::default()
    };
    Stack::Completion.build(
        service_builder(loadgen_tables(w), config).partition_by("grp"),
        Duration::from_micros(200),
    )
}

/// A refresh batch that dies mid-completion (unknown object at the
/// source) turns the scatter into a partial-result error; the surviving
/// sources' refreshes are installed anyway — their Refresh Monitors
/// already narrowed — and healthy shards keep serving.
#[test]
fn source_failure_mid_completion_surfaces_partial_result_with_survivors_installed() {
    let w = loadgen::generate(&LoadConfig {
        seed: 5,
        groups: 8,
        rows_per_group: 3,
        sources: 2,
        queries: 0,
        ..LoadConfig::default()
    });
    let service = build(&w);
    service.advance_clock(25.0);

    // Sabotage one shard that owns rows: rebind one of its bounded cells
    // to an object no source registered. Source 1's whole batch on that
    // shard then fails atomically mid-completion; source 2's batch
    // completes and must still be installed.
    let sabotaged_shard = (0..SHARDS)
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
    let sabotaged_tid = service.with_shard_cache(sabotaged_shard, |cache| {
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
        tid
    });

    // WITHIN 0 forces every tuple into the refresh plan.
    let err = service
        .query("SELECT SUM(load) WITHIN 0 FROM metrics")
        .unwrap_err();
    assert!(
        matches!(err, TrappError::PartialResult(_)),
        "expected a partial-result error, got: {err}"
    );

    // Surviving refreshes were installed on the failed shard: with the
    // clock unmoved since the fetch, an installed bound is a point at its
    // refresh instant, while un-refreshed cells stay wide. Source 2's
    // tuples must be points; the sabotaged tuple must not be.
    service.with_shard_cache(sabotaged_shard, |cache| {
        cache.materialize().unwrap();
        let table = cache.session().catalog().table("metrics").unwrap();
        let mut survivors = 0;
        for (tid, row) in table.scan() {
            let interval = row.interval(1).unwrap();
            if tid == sabotaged_tid {
                assert!(
                    !interval.is_point(),
                    "the failed batch's tuple cannot have been refreshed"
                );
            } else if interval.is_point() {
                survivors += 1;
            }
        }
        assert!(
            survivors > 0,
            "no surviving refresh was installed on the failed shard"
        );
    });

    // Healthy shards keep serving exact answers.
    let healthy_group = (0..w.config.groups)
        .find(|&g| shard_of(g as u64, SHARDS) != sabotaged_shard)
        .expect("some group lives elsewhere");
    let reply = service
        .query(format!(
            "SELECT SUM(load) WITHIN 0 FROM metrics WHERE grp = {healthy_group}"
        ))
        .unwrap();
    assert!(reply.result.satisfied);
    assert!(reply.result.answer.is_exact());
}

/// A batched update sweep reaches every owning shard with one completion
/// per (shard, source) batch, the last write per object wins, and the
/// gateways' memoized entries are invalidated exactly as on the
/// one-write-at-a-time path.
#[test]
fn update_batches_deliver_and_invalidate_across_shards() {
    let w = loadgen::generate(&LoadConfig {
        seed: 13,
        groups: 8,
        rows_per_group: 2,
        sources: 3,
        queries: 0,
        ..LoadConfig::default()
    });
    let service = build(&w);
    service.advance_clock(5.0);

    // Warm every bound (and the gateways' in-flight tables) first.
    let warm = service
        .query("SELECT SUM(load) WITHIN 0 FROM metrics")
        .unwrap();
    assert!(warm.result.answer.is_exact());

    // One batch spanning every shard and source: two writes per object
    // for the first four rows — the second must win.
    let updates: Vec<(ObjectId, f64)> = (0..4u64)
        .flat_map(|row| {
            [
                (ObjectId::new(row + 1), 1_000.0 + row as f64),
                (ObjectId::new(row + 1), 2_000.0 + row as f64),
            ]
        })
        .collect();
    let delivered = service.apply_update_batch(&updates).unwrap();
    assert!(
        delivered >= 4,
        "escaping batched updates must reach their caches (got {delivered})"
    );

    // The post-batch masters are visible exactly: same instant, so any
    // stale memoized refresh would surface here.
    let reply = service
        .query("SELECT SUM(load) WITHIN 0 FROM metrics")
        .unwrap();
    let expected: f64 = w
        .rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if i < 4 {
                2_000.0 + i as f64
            } else {
                r.cells[1].as_interval().unwrap().midpoint()
            }
        })
        .sum();
    assert!(reply.result.answer.is_exact());
    assert!(
        (reply.result.answer.range.lo() - expected).abs() < 1e-9,
        "batched masters not visible: {} vs {expected}",
        reply.result.answer
    );

    // Unknown objects fail the whole batch up front.
    assert!(service
        .apply_update_batch(&[(ObjectId::new(54_321), 1.0)])
        .is_err());
}

/// Updates routed through the completion transport reach the owning
/// shard's cache exactly as on the blocking transports.
#[test]
fn updates_deliver_through_the_completion_transport() {
    let w = loadgen::generate(&LoadConfig {
        seed: 9,
        groups: 4,
        rows_per_group: 2,
        sources: 2,
        queries: 0,
        ..LoadConfig::default()
    });
    let service = build(&w);
    service.advance_clock(5.0);

    // Row 0 (group 0) is backed by object 1 in global assignment order.
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
}
