//! Answer snapshots never answer stale.
//!
//! A single-shard query whose plan comes back `Ready` publishes its
//! cache-only outcome; a repeat of the same SQL text at the same clock
//! instant, whose answers meet its `WITHIN`, answers from that snapshot
//! without taking the shard lock. Every write path retracts what it can
//! stale before it releases the lock, so:
//!
//! * (a) a service answering from snapshots replies exactly like a twin
//!   that retracts every snapshot before each query and so always plans
//!   under the lock, across updates, clock advances, cost changes and
//!   execution-mode flips;
//! * (b) an update is visible to the next query at once, while other
//!   threads keep publishing snapshots;
//! * (c) a snapshot hit takes no shard lock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::unbounded;
use trapp_core::refresh::iterative::IterativeHeuristic;
use trapp_core::ExecutionMode;
use trapp_server::{QueryService, ServiceBuilder, ServiceConfig, ServiceReply};
use trapp_storage::{ColumnDef, Schema, Table};
use trapp_types::{BoundedValue, ObjectId, SourceId, TrappError, TupleId, Value, ValueType};

/// A splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

const GROUPS: usize = 3;
const ROWS_PER_GROUP: usize = 4;

/// A one-shard service over `metrics(grp, load)`, partitioned by `grp` so
/// that `grp = k` plans read only group `k`'s rows. Row `k` (group
/// `k / ROWS_PER_GROUP`) is backed by object `k + 1`; `loads` are its
/// initial masters.
fn service(loads: &[f64], workers: usize) -> QueryService {
    let schema = Schema::new(vec![
        ColumnDef::exact("grp", ValueType::Int),
        ColumnDef::bounded_float("load"),
    ])
    .unwrap();
    let mut builder = ServiceBuilder::new()
        .config(ServiceConfig {
            workers,
            shards: 1,
            ..ServiceConfig::default()
        })
        .partition_by("grp")
        .table(Table::new("metrics", schema));
    for (k, &load) in loads.iter().enumerate() {
        let cells = vec![
            BoundedValue::Exact(Value::Int((k / ROWS_PER_GROUP) as i64)),
            BoundedValue::exact_f64(load).unwrap(),
        ];
        builder = builder.row("metrics", SourceId::new(1 + (k % 2) as u64), cells);
    }
    builder.build_direct().unwrap()
}

/// Every single-table class — pinned, pinned and filtered, global,
/// filtered global, grouped, filtered grouped — with every aggregate and a
/// `WITHIN` of 0, mid and ∞.
fn query_pool() -> Vec<String> {
    let aggs = [
        "COUNT(*)",
        "SUM(load)",
        "AVG(load)",
        "MIN(load)",
        "MAX(load)",
    ];
    let withins = [" WITHIN 0", " WITHIN 5", ""];
    let mut shapes = Vec::new();
    for g in 0..GROUPS {
        shapes.push(format!(" WHERE grp = {g}"));
        shapes.push(format!(" WHERE grp = {g} AND load > 75"));
    }
    shapes.extend([
        String::new(),
        " WHERE load > 75".to_owned(),
        " GROUP BY grp".to_owned(),
        " WHERE load > 75 GROUP BY grp".to_owned(),
    ]);
    let mut pool = Vec::new();
    for agg in aggs {
        for within in withins {
            for shape in &shapes {
                pool.push(format!("SELECT {agg}{within} FROM metrics{shape}"));
            }
        }
    }
    pool
}

/// Every reply field but `exec_time`, or the error.
fn fields(reply: Result<ServiceReply, TrappError>) -> String {
    match reply {
        Ok(r) => format!(
            "{:?} {:?} {} {} {:?}",
            r.result, r.groups, r.refreshes_saved, r.round_trips, r.degraded
        ),
        Err(e) => format!("error: {e}"),
    }
}

fn cases(release: usize, debug: usize) -> usize {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

/// (a) A service that answers from snapshots replies exactly like a twin
/// that retracts every snapshot (`with_shard_cache(0, |_| {})`) before
/// each query, over seeded interleavings of queries with update batches,
/// clock advances, refresh-cost changes and batch/iterative mode flips —
/// and it does serve replies from snapshots.
#[test]
fn snapshot_replies_match_a_twin_that_always_plans_under_the_lock() {
    let pool = query_pool();
    let rows = GROUPS * ROWS_PER_GROUP;
    let mut served = 0;
    let mut queries = 0;
    for seed in 0..cases(1_000, 40) as u64 {
        let mut rng = Rng(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xA5);
        let loads: Vec<f64> = (0..rows).map(|_| rng.range(50.0, 100.0)).collect();
        let main = service(&loads, 1);
        let twin = service(&loads, 1);
        // A few texts per seed, so that repeats at one instant are common.
        let texts: Vec<&str> = (0..6)
            .map(|_| pool[rng.below(pool.len())].as_str())
            .collect();
        for step in 0..48 {
            match rng.below(20) {
                0..=1 => {
                    let batch: Vec<(ObjectId, f64)> = (0..1 + rng.below(3))
                        .map(|_| {
                            let object = ObjectId::new(1 + rng.below(rows) as u64);
                            (object, rng.range(40.0, 110.0))
                        })
                        .collect();
                    assert_eq!(
                        main.apply_update_batch(&batch),
                        twin.apply_update_batch(&batch),
                        "seed {seed}, step {step}: update {batch:?}"
                    );
                }
                2 => {
                    let dt = [0.5, 5.0, 25.0][rng.below(3)];
                    main.advance_clock(dt);
                    twin.advance_clock(dt);
                }
                3 => {
                    let tid = TupleId::new(1 + rng.below(rows) as u64);
                    let cost = 0.5 + rng.below(4) as f64;
                    for s in [&main, &twin] {
                        s.with_shard_cache(0, |cache| {
                            let table = cache.session_mut().catalog_mut().table_mut("metrics");
                            table.unwrap().set_cost(tid, cost).unwrap();
                        });
                    }
                }
                4 => {
                    let mode = match rng.below(2) {
                        0 => ExecutionMode::Batch,
                        _ => ExecutionMode::Iterative(IterativeHeuristic::BestRatio),
                    };
                    for s in [&main, &twin] {
                        s.with_shard_cache(0, |cache| cache.session_mut().config.mode = mode);
                    }
                }
                _ => {
                    let sql = texts[rng.below(texts.len())];
                    twin.with_shard_cache(0, |_| {});
                    let before = main.stats().snapshot_served;
                    let got = fields(main.query(sql));
                    served += main.stats().snapshot_served - before;
                    queries += 1;
                    assert_eq!(
                        got,
                        fields(twin.query(sql)),
                        "seed {seed}, step {step}: {sql}"
                    );
                }
            }
        }
        assert_eq!(twin.stats().snapshot_served, 0, "seed {seed}");
    }
    assert!(
        served * 5 > queries,
        "only {served} of {queries} replies came from snapshots"
    );
}

/// (b) An update batch is visible to the very next query: an updater
/// rewrites one group's masters and at once asks for the group's exact
/// `SUM`, which must equal the masters it wrote, while reader threads keep
/// planning and publishing — the same exact text included — on every
/// group at the same instant.
#[test]
fn an_update_is_visible_to_the_next_query_while_readers_publish() {
    let rows = GROUPS * ROWS_PER_GROUP;
    let mut rng = Rng(0xB0B);
    let mut masters: Vec<f64> = (0..rows).map(|_| rng.range(50.0, 100.0)).collect();
    let service = Arc::new(service(&masters, 4));
    let exact = |g: usize| format!("SELECT SUM(load) WITHIN 0 FROM metrics WHERE grp = {g}");
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2u64)
        .map(|r| {
            let (service, stop) = (service.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut rng = Rng(r);
                let mut answered = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let g = rng.below(GROUPS);
                    let sql = match rng.below(3) {
                        0 => exact(g),
                        1 => format!("SELECT AVG(load) WITHIN 5 FROM metrics WHERE grp = {g}"),
                        _ => "SELECT SUM(load) FROM metrics".to_owned(),
                    };
                    service.query(sql).unwrap();
                    answered += 1;
                }
                answered
            })
        })
        .collect();
    let served_before = service.stats().snapshot_served;
    for round in 0..cases(2_000, 200) {
        // Now and then bounds widen, so exact answers fetch again.
        if round % 16 == 15 {
            service.advance_clock(1.0);
        }
        let g = rng.below(GROUPS);
        let group = g * ROWS_PER_GROUP..(g + 1) * ROWS_PER_GROUP;
        // Let the readers publish the group's exact answer first.
        service.query(exact(g)).unwrap();
        let mut batch = Vec::new();
        for k in group.clone() {
            if rng.below(2) == 0 {
                batch.push((ObjectId::new(k as u64 + 1), rng.range(40.0, 110.0)));
            }
        }
        for &(object, value) in &batch {
            masters[object.raw() as usize - 1] = value;
        }
        service.apply_update_batch(&batch).unwrap();
        let reply = service.query(exact(g)).unwrap();
        let want: f64 = masters[group].iter().sum();
        let got = reply.result.answer.range;
        assert!(
            reply.result.answer.is_exact() && (got.lo() - want).abs() <= 1e-9 * want.abs(),
            "round {round}: group {g} answered {got} after writing {batch:?}; masters sum to {want}"
        );
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        assert!(reader.join().unwrap() > 0);
    }
    assert!(service.stats().snapshot_served > served_before);
}

/// (c) A snapshot hit takes no shard lock: with one thread holding the
/// shard lock inside `with_shard_cache`, a query published before still
/// answers, identically; once the lock is released the snapshots are
/// retracted and the next repeat plans under the lock.
#[test]
fn a_snapshot_hit_answers_while_the_shard_lock_is_held() {
    let loads: Vec<f64> = (0..GROUPS * ROWS_PER_GROUP)
        .map(|k| 50.0 + k as f64)
        .collect();
    let service = Arc::new(service(&loads, 2));
    service.advance_clock(25.0);
    let sql = "SELECT AVG(load) WITHIN 100 FROM metrics WHERE grp = 1";
    let published = fields(service.query(sql));
    assert_eq!(service.stats().snapshot_served, 0);

    let (entered_tx, entered) = unbounded::<()>();
    let (release, release_rx) = unbounded::<()>();
    let holder = {
        let service = service.clone();
        std::thread::spawn(move || {
            service.with_shard_cache(0, |_| {
                entered_tx.send(()).unwrap();
                // Returns when released, or when the test fails and drops
                // the sender.
                let _ = release_rx.recv();
            })
        })
    };
    entered
        .recv_timeout(Duration::from_secs(10))
        .expect("the holder never took the shard lock");
    let (reply_tx, reply) = unbounded();
    {
        let service = service.clone();
        std::thread::spawn(move || reply_tx.send(fields(service.query(sql))));
    }
    let hit = reply
        .recv_timeout(Duration::from_secs(10))
        .expect("a published query waited for the shard lock");
    assert_eq!(hit, published);
    assert_eq!(service.stats().snapshot_served, 1);

    release.send(()).unwrap();
    holder.join().unwrap();
    assert_eq!(fields(service.query(sql)), published);
    assert_eq!(
        service.stats().snapshot_served,
        1,
        "with_shard_cache left a snapshot published"
    );
}
