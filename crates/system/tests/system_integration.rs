//! System-level integration tests: the full Figure 3 architecture over the
//! pool-threaded completion transport, message accounting in absolute
//! terms, and the Refresh-Monitor consistency invariant —
//! the source's tracked bound must always equal what the cache holds, or
//! the "guaranteed to contain the master value" contract silently breaks.

use std::time::Duration;

use trapp_bounds::BoundShape;
use trapp_core::refresh::iterative::IterativeHeuristic;
use trapp_core::ExecutionMode;
use trapp_storage::{ColumnDef, Schema, Table};
use trapp_system::{CacheNode, CompletionTransport, SimClock, Source, Transport};
use trapp_types::{BoundedValue, CacheId, ObjectId, SourceId, Value, ValueType};

fn sensor_schema() -> std::sync::Arc<Schema> {
    Schema::new(vec![
        ColumnDef::exact("name", ValueType::Str),
        ColumnDef::bounded_float("temp"),
    ])
    .unwrap()
}

/// Builds a cache over `n` objects spread across `sources` sources behind
/// a two-thread fetch pool, returning `(clock, cache, transport)`.
fn threaded_setup(n: usize, sources: usize) -> (SimClock, CacheNode, CompletionTransport) {
    let clock = SimClock::new();
    let mut cache = CacheNode::new(CacheId::new(1), clock.clone());
    let mut table = Table::new("sensors", sensor_schema());
    let mut tids = Vec::new();
    for i in 0..n {
        let tid = table
            .insert_with_cost(
                vec![
                    BoundedValue::Exact(Value::Str(format!("s{i}"))),
                    BoundedValue::bounded(0.0, 0.0).unwrap(),
                ],
                1.0 + (i % 5) as f64,
            )
            .unwrap();
        tids.push(tid);
    }
    cache.add_table(table).unwrap();

    let mut transport = CompletionTransport::with_pool_size(Duration::from_micros(200), 2);
    for s in 0..sources {
        let sid = SourceId::new(s as u64 + 1);
        let mut source = Source::new(sid, BoundShape::Sqrt);
        for (i, &tid) in tids.iter().enumerate() {
            if i % sources != s {
                continue;
            }
            let obj = ObjectId::new(i as u64 + 1);
            source.register_object(obj, 20.0 + i as f64).unwrap();
            cache.bind_object(obj, sid, "sensors", tid, 1).unwrap();
            let refresh = source.subscribe(CacheId::new(1), obj, 1.0, 0.0).unwrap();
            cache.install_refresh(refresh).unwrap();
        }
        transport.add_source(source);
    }
    (clock, cache, transport)
}

#[test]
fn queries_work_over_the_threaded_transport() {
    let (clock, mut cache, transport) = threaded_setup(12, 3);
    clock.advance(9.0); // bounds now ±3 per object

    // Loose query: cache only.
    let r = cache
        .execute_query("SELECT SUM(temp) WITHIN 100 FROM sensors", &transport)
        .unwrap();
    assert!(r.satisfied);
    assert_eq!(transport.messages(), 0);

    // Tight query: refreshes travel through the pool threads.
    let r = cache
        .execute_query("SELECT SUM(temp) WITHIN 2 FROM sensors", &transport)
        .unwrap();
    assert!(r.satisfied);
    assert!(r.answer.width() <= 2.0);
    assert!(transport.messages() > 0);
    // True sum: Σ (20 + i) for i in 0..12 = 240 + 66.
    assert!(r.answer.range.contains(306.0));
}

#[test]
fn exact_answers_match_across_transport_kinds() {
    let (clock, mut cache, transport) = threaded_setup(8, 2);
    clock.advance(4.0);
    let r = cache
        .execute_query("SELECT MAX(temp) WITHIN 0 FROM sensors", &transport)
        .unwrap();
    assert!(r.answer.is_exact());
    assert_eq!(r.answer.range.lo(), 27.0); // 20 + 7
}

/// Refresh accounting in absolute terms: a tight query whose
/// CHOOSE_REFRESH plan spans every source issues exactly one round-trip
/// per source however many objects each serves.
#[test]
fn multi_source_plan_is_one_round_trip_per_source() {
    // 12 objects across 3 sources; WITHIN 0 forces a full refresh.
    let (clock, mut cache, transport) = threaded_setup(12, 3);
    clock.advance(9.0);
    let r = cache
        .execute_query("SELECT SUM(temp) WITHIN 0 FROM sensors", &transport)
        .unwrap();
    assert!(r.satisfied);
    assert_eq!(r.refreshed.len(), 12, "full refresh expected");
    assert_eq!(cache.stats().query_initiated, 12, "every object installed");
    assert_eq!(
        transport.messages(),
        3,
        "one round-trip per source, not one per object"
    );
}

/// The same accounting on the synchronous transport, with the paper's own
/// one-tuple loop (§8.2 iterative mode: one refresh, hence one message,
/// per round) as the reference: a whole-plan fetch costs one message per
/// *source*, the one-tuple loop one per *object*, and both arrive at the
/// same exact answer over the same refresh set.
#[test]
fn batching_counts_match_across_transports_and_preserves_answers() {
    let build = || {
        let mut sim = trapp_system::Simulation::builder()
            .initial_width(2.0)
            .build()
            .unwrap();
        for s in 1..=3u64 {
            sim.add_source(SourceId::new(s));
        }
        sim.add_table(Table::new("sensors", sensor_schema()))
            .unwrap();
        for i in 0..9u64 {
            sim.add_row(
                "sensors",
                SourceId::new(1 + i % 3),
                vec![
                    BoundedValue::Exact(Value::Str(format!("s{i}"))),
                    BoundedValue::exact_f64(5.0 * i as f64).unwrap(),
                ],
            )
            .unwrap();
        }
        sim.clock.advance(4.0);
        sim
    };
    // (refreshes served, batches served) summed over the three sources.
    let served = |sim: &trapp_system::Simulation| {
        (1..=3u64)
            .map(|s| {
                let src = sim.transport.source(SourceId::new(s)).unwrap();
                let st = src.lock().stats();
                (st.query_initiated, st.batches_served)
            })
            .fold((0, 0), |acc, (q, b)| (acc.0 + q, acc.1 + b))
    };

    let mut planned = build();
    let rp = planned
        .run_query("SELECT SUM(temp) WITHIN 0 FROM sensors")
        .unwrap();
    assert_eq!(planned.stats().messages, 3, "one message per source");
    assert_eq!(served(&planned), (9, 3));
    assert_eq!(rp.answer.range.lo(), 180.0); // Σ 5·i for i in 0..9
    assert!(rp.answer.is_exact());
    assert_eq!(rp.refresh_cost, 9.0);

    let mut one_tuple = build();
    one_tuple.cache.session_mut().config.mode =
        ExecutionMode::Iterative(IterativeHeuristic::BestRatio);
    let ro = one_tuple
        .run_query("SELECT SUM(temp) WITHIN 0 FROM sensors")
        .unwrap();
    assert_eq!(one_tuple.stats().messages, 9, "one message per object");
    assert_eq!(served(&one_tuple), (9, 9));

    assert_eq!(rp.answer.range, ro.answer.range);
    assert_eq!(rp.refresh_cost, ro.refresh_cost);
    let sorted = |mut v: Vec<(String, trapp_types::TupleId)>| {
        v.sort();
        v
    };
    assert_eq!(sorted(rp.refreshed), sorted(ro.refreshed));
}

/// Re-registering a source id replaces the actor without losing what the
/// old one already accepted: every in-flight submit is served exactly
/// once, in order, by the source it was addressed to — and requests
/// submitted afterwards reach the replacement.
#[test]
fn replaced_source_actor_is_joined_and_replacement_serves() {
    let source = |value: f64| {
        let mut s = Source::new(SourceId::new(1), BoundShape::Sqrt);
        s.register_object(ObjectId::new(1), value).unwrap();
        s.subscribe(CacheId::new(1), ObjectId::new(1), 1.0, 0.0)
            .unwrap();
        s
    };
    let pull = |t: &CompletionTransport, now: f64| {
        t.submit_refresh_batch(
            SourceId::new(1),
            CacheId::new(1),
            vec![ObjectId::new(1)],
            now,
        )
    };
    let mut transport = CompletionTransport::with_pool_size(Duration::from_millis(2), 1);
    transport.add_source(source(1.0));
    let inflight: Vec<_> = (0..5).map(|i| pull(&transport, 1.0 + i as f64)).collect();
    // Replace the actor while the five submits are still on the wire.
    transport.add_source(source(2.0));

    let served: Vec<(f64, u64)> = inflight
        .into_iter()
        .map(|c| c.wait().expect("accepted before the replacement")[0])
        .map(|r| (r.value, r.seq))
        .collect();
    // The subscription stamped seq 0; five serves, once each, in order.
    let expected: Vec<(f64, u64)> = (1..=5).map(|seq| (1.0, seq)).collect();
    assert_eq!(served, expected);

    let r = pull(&transport, 9.0).wait().unwrap()[0];
    assert_eq!(r.value, 2.0, "requests must reach the replacement source");
    assert_eq!(transport.messages(), 6, "each submit counted exactly once");
}

/// The Refresh Monitor invariant: after any interleaving of updates,
/// queries, and clock advances, the bound the source tracks for
/// (cache, object) is identical to the bound function the cache holds —
/// which is what makes value-initiated refresh detection sound.
#[test]
fn monitor_view_matches_cache_view() {
    let clock = SimClock::new();
    let mut sim = trapp_system::Simulation::builder()
        .initial_width(1.5)
        .build()
        .unwrap();
    let _ = clock;
    sim.add_source(SourceId::new(1));
    sim.add_table(Table::new("sensors", sensor_schema()))
        .unwrap();
    let mut values = Vec::new();
    for i in 0..6 {
        sim.add_row(
            "sensors",
            SourceId::new(1),
            vec![
                BoundedValue::Exact(Value::Str(format!("s{i}"))),
                BoundedValue::exact_f64(10.0 * i as f64).unwrap(),
            ],
        )
        .unwrap();
        values.push(10.0 * i as f64);
    }

    for tick in 1..=40u64 {
        sim.clock.advance(0.5);
        // Drift a rotating object, sometimes escaping.
        let k = (tick % 6) as usize;
        values[k] += if tick % 7 == 0 { 9.0 } else { 0.3 };
        sim.apply_update(ObjectId::new(k as u64 + 1), values[k])
            .unwrap();
        if tick % 8 == 0 {
            sim.run_query("SELECT SUM(temp) WITHIN 3 FROM sensors")
                .unwrap();
        }
        if tick % 11 == 0 {
            sim.pre_refresh_near_edge(0.25).unwrap();
        }

        // Invariant: master values always inside the cache's materialized
        // bounds (checked via a WITHIN ∞ query answer containing the truth).
        let r = sim.run_query("SELECT SUM(temp) FROM sensors").unwrap();
        let truth: f64 = values.iter().sum();
        assert!(
            r.answer.range.lo() <= truth && truth <= r.answer.range.hi(),
            "tick {tick}: {} excludes {truth}",
            r.answer
        );

        // Invariant: the source's tracked bound equals the cache-installed
        // bound for every object.
        let src = sim.transport.source(SourceId::new(1)).unwrap();
        let src = src.lock();
        for (i, _) in values.iter().enumerate() {
            let obj = ObjectId::new(i as u64 + 1);
            let tracked = src.tracked_bound(CacheId::new(1), obj).unwrap();
            let now = sim.clock.now();
            let master = src.master(obj).unwrap();
            assert!(
                tracked.interval_at(now).contains(master),
                "tick {tick}: monitor bound for {obj} excludes master {master}"
            );
        }
    }
    let stats = sim.stats();
    assert!(
        stats.value_initiated > 0,
        "drift must have escaped at least once"
    );
    assert!(stats.query_initiated > 0);
}
