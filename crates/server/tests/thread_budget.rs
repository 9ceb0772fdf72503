//! The acceptance property of the completion-based transport: a service
//! built over [`ServiceBuilder::build_completion`] uses `O(pool)` OS
//! threads **independent of the source × shard count** — an absolute
//! budget, checked against a 64-source × 4-shard topology. Queries run on
//! their callers' threads: the service spawns no query thread.
//!
//! Kept in its own integration-test binary so no sibling test's threads
//! pollute the `/proc/self/task` census.

#![cfg(target_os = "linux")]

mod common;

use std::time::Duration;

use trapp_server::{QueryService, ServiceBuilder, ServiceConfig};
use trapp_workload::loadgen::{self, LoadConfig, ServiceWorkload};

/// Live OS threads in this process (Linux: one /proc/self/task entry per
/// thread, including the main thread).
fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("linux procfs")
        .count()
}

const WORKERS: usize = 4;
const SHARDS: usize = 4;
const POOL: usize = 4;

fn workload() -> ServiceWorkload {
    // 64 sources spread over 4 shards: far more (shard, source) actors
    // than the thread budget below.
    loadgen::generate(&LoadConfig {
        seed: 3,
        groups: 64,
        rows_per_group: 2,
        sources: 64,
        queries: 24,
        global_fraction: 0.1,
        ..LoadConfig::default()
    })
}

fn builder(w: &ServiceWorkload) -> ServiceBuilder {
    let config = ServiceConfig {
        workers: WORKERS,
        shards: SHARDS,
        ..ServiceConfig::default()
    };
    common::service_builder(common::loadgen_tables(w), config).partition_by("grp")
}

fn exercise(service: &QueryService, w: &ServiceWorkload) {
    service.advance_clock(25.0);
    for q in &w.queries {
        let reply = service.query(&q.sql).expect("query runs");
        assert!(reply.result.satisfied, "{}", q.sql);
    }
}

#[test]
fn completion_service_threads_are_o_pool_plus_workers() {
    let w = workload();
    let baseline = os_threads();

    // One service-wide pool, O(pool) threads no matter how many
    // sources × shards exist, and none per execution permit.
    let completion = builder(&w)
        .build_completion(Duration::ZERO, POOL)
        .expect("completion service");
    let built = os_threads();
    let completion_added = built - baseline;
    exercise(&completion, &w);
    // `query()` runs on the calling thread: answering spawns nothing.
    assert_eq!(
        os_threads(),
        built,
        "answering queries changed the thread count"
    );

    // Pool demux threads + 1 timer; a little slack for runtime
    // housekeeping threads, none of which scale with sources.
    let budget = POOL + 1 + 2;
    assert!(
        completion_added <= budget,
        "completion service spawned {completion_added} threads (budget {budget})"
    );
    assert!(
        w.config.sources * SHARDS > 2 * budget,
        "topology too small for the budget to demonstrate anything"
    );

    // Shutdown joins everything the service spawned.
    drop(completion);
    let after = os_threads();
    assert!(
        after <= baseline + 1,
        "threads leaked past shutdown: {baseline} before, {after} after"
    );
}
