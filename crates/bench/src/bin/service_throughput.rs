//! Scenario tour of the `trapp-server` query service — throughput,
//! latency and round-trips per scenario, every answer checked against
//! ground truth — in nine parts. (`benchmark/` at the repository root is
//! the accept/reject harness; this binary's runs are short and single,
//! good for seeing each mechanism work, not for resolving small deltas.)
//! Every part runs the one service stack there is: completion transport
//! over a `--pool`-thread shared fetch pool, batched per-source
//! round-trips, refresh coalescing, view-planned, batched join rounds.
//! The paths that used to be raced against it (per-object round-trips,
//! uncoalesced fetches, the thread-per-source transport, scan planning,
//! one-tuple join rounds) are retired; their last measured ratios are in
//! CHANGES.md under PR 12, and the part numbering is kept so BENCH_N
//! files stay comparable section by section.
//!
//! 1. **traffic mechanisms**: the single-shard zipfian workload — how
//!    many refreshes coalescing saves and round-trips per query;
//! 2. **shard scaling**: the same zipfian workload against 1/2/4/8 cache
//!    shards (`--shards 1,2,4,8`; a single value, e.g. `--shards 4`, runs
//!    that count against the 1-shard row);
//! 3. **high fan-out**: the largest shard count and `--sources` sources
//!    (default 64), flat popularity, uniformly tight constraints;
//! 4. **update churn**: `--update-rate` (default 32) random-walk master
//!    writes per burst race the part-3 query stream, submitted in batches
//!    of [`UPDATE_BATCH`] through `QueryService::apply_update_batch` (one
//!    completion per shard × source batch), so coalescing invalidation is
//!    measured under write pressure, not just read-only bursts;
//! 5. **query surface**: a mixed stream with `GROUP BY` and two-table
//!    join slices at 1 shard and at the largest shard count — every
//!    grouped answer is checked per group and every join answer against
//!    the join ground truth, read-only and under churn;
//! 6. **table scaling**: `--rows` (default 1k/10k/50k/200k; any size that
//!    fits in memory — validated against `/proc/meminfo` up front)
//!    group-pinned workloads with a *fixed* group size, so per-query
//!    refresh work stays constant while the table grows, with zipfian
//!    repetition supplying the warm-view serving regime;
//! 7. **tpch scaling**: the TPC-H-derived three-table suite
//!    (`trapp_workload::tpch`) walked 100k → 1M total rows at 1 and 8
//!    shards, reporting per-query-class profiles (refresh rounds,
//!    fetched tuples, p50/p99 latency, ground-truth violations);
//! 8. **availability**: the churn workload under a deterministic
//!    [`ChaosTransport`] schedule — one of the sources failing each
//!    refresh op with p = 0.2, plus a scripted 500 ms wall-clock outage
//!    of that source mid-churn — served best-effort. Reports qps, p99
//!    latency, the degraded fraction, the mean achieved width of degraded
//!    answers, and the fraction of post-outage queries back at full
//!    precision; every answer (degraded or not) is still checked against
//!    the churn envelope, so a bound violation fails the run exactly as
//!    in the fault-free parts.
//! 9. **overload**: every query carries `DEADLINE 50` while one source
//!    answers 25 ms slow, and closed-loop client counts walk from light
//!    load to 2× worker saturation. BestEffort must answer everything —
//!    zero errors, zero bound violations, p99 bounded by the deadline —
//!    with the load-shed (degraded-width) fraction rising as queue wait
//!    eats the budget; a Strict run at 2× saturation may refuse, but
//!    only ever with the typed `DeadlineExceeded`. The admission ladder
//!    (queue-depth watermark widening) runs on the BestEffort steps.
//!
//! [`ChaosTransport`]: trapp_system::ChaosTransport
//!
//! Eight closed-loop clients drive the service over a transport with
//! simulated per-round-trip latency; the stream is split into bursts with
//! the clock advancing between bursts, so every burst's bounds have
//! re-widened and tight queries must refresh again. Within a burst, hot
//! groups overlap — the coalescing opportunity.
//!
//! Every read-only answer is checked against ground truth computed from
//! the master values (`contains(truth) && width ≤ R`). Under churn the
//! instantaneous truth is a moving target, so answers are checked against
//! the per-burst envelope of master values
//! (`loadgen::ground_truth_bounds`) plus a final `WITHIN 0` exactness
//! probe against the tracked masters. Any violation fails the run.
//!
//! `--json PATH` additionally writes every number in machine-readable
//! form (the `BENCH_N.json` files at the repository root). `--quick`
//! shrinks every part for CI smoke runs.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trapp_bench::json::Json;
use trapp_bench::tablefmt;
use trapp_server::{DegradationPolicy, QueryService, ServiceBuilder, ServiceConfig};
use trapp_system::{ChaosConfig, DelaySpec};
use trapp_types::{ObjectId, SourceId, Value};
use trapp_workload::loadgen::{self, LoadConfig, QueryShape, ServiceWorkload};
use trapp_workload::tpch::{self, TpchClass, TpchWorkload, Truth};

const CLIENTS: usize = 8;
const BURSTS: usize = 8;
const LATENCY: Duration = Duration::from_micros(200);
/// Updates per `apply_update_batch` call in the churn stream.
const UPDATE_BATCH: usize = 8;

/// Builds the service over the completion transport with a `pool`-thread
/// shared fetch pool (`None` = adaptive sizing from the machine and shard
/// count), optionally under a chaos schedule.
fn build_service(
    w: &ServiceWorkload,
    config: ServiceConfig,
    pool: Option<usize>,
    chaos: Option<ChaosConfig>,
) -> QueryService {
    let mut b = ServiceBuilder::new()
        .initial_width(1.0)
        .config(config)
        .partition_by("grp")
        .table(loadgen::table());
    if let Some(cfg) = chaos {
        b = b.chaos(cfg);
    }
    if !w.segments.is_empty() {
        b = b.table(loadgen::segments_table());
    }
    for r in &w.rows {
        b = b.row("metrics", r.source, r.cells.clone());
    }
    // Segments after every metrics row: metrics row k keeps backing
    // object k+1, which the churn stream relies on.
    for s in &w.segments {
        b = b.row("segments", s.source, s.cells.clone());
    }
    b.build_completion(LATENCY, pool).expect("service builds")
}

struct RunResult {
    label: String,
    shards: usize,
    wall: Duration,
    latencies_us: Vec<f64>,
    queries: u64,
    scattered: u64,
    round_trips: u64,
    forwarded: u64,
    coalesced: u64,
    updates: u64,
    violations: usize,
}

impl RunResult {
    fn qps(&self) -> f64 {
        self.queries as f64 / self.wall.as_secs_f64()
    }
}

/// Per-row master-value state while an update stream runs: the current
/// value plus the envelope (`lo`, `hi`) of every value the row has held
/// since the envelope was last reset. The envelope is extended *before*
/// the write reaches the source, so at any instant the true master lies
/// inside it — which is what makes checking racing answers against it
/// sound.
struct ChurnState {
    rows: Vec<(f64, f64, f64)>, // (current, lo, hi)
}

impl ChurnState {
    fn new(w: &ServiceWorkload) -> ChurnState {
        ChurnState {
            rows: w
                .rows
                .iter()
                .map(|r| {
                    let m = r.cells[1].as_interval().expect("load cell").midpoint();
                    (m, m, m)
                })
                .collect(),
        }
    }

    fn reset_envelope(&mut self) {
        for (cur, lo, hi) in &mut self.rows {
            *lo = *cur;
            *hi = *cur;
        }
    }

    fn envelope(&self) -> Vec<(f64, f64)> {
        self.rows.iter().map(|&(_, lo, hi)| (lo, hi)).collect()
    }
}

/// One burst's update stream, racing the query burst: a seeded random
/// walk over row masters, clamped to the value range and submitted in
/// [`UPDATE_BATCH`]-sized `apply_update_batch` calls — the batched write
/// path under measurement.
fn write_churn(
    service: &QueryService,
    w: &ServiceWorkload,
    churn: &Mutex<ChurnState>,
    burst_idx: usize,
    update_rate: u64,
) {
    let mut rng = StdRng::seed_from_u64(w.config.seed ^ ((burst_idx as u64) << 17));
    let (lo, hi) = w.config.value_range;
    let step = (hi - lo) * 0.1;
    let mut remaining = update_rate as usize;
    while remaining > 0 {
        let n = remaining.min(UPDATE_BATCH);
        remaining -= n;
        // Extend every envelope *before* any write of the batch is
        // published, so racing answers can never observe a master
        // outside it.
        let batch: Vec<(ObjectId, f64)> = {
            let mut state = churn.lock().unwrap();
            (0..n)
                .map(|_| {
                    let row = rng.gen_range(0..w.rows.len());
                    let (cur, env_lo, env_hi) = &mut state.rows[row];
                    *cur = (*cur + rng.gen_range(-step..=step)).clamp(lo, hi);
                    *env_lo = env_lo.min(*cur);
                    *env_hi = env_hi.max(*cur);
                    (ObjectId::new(row as u64 + 1), *cur)
                })
                .collect()
        };
        service.apply_update_batch(&batch).expect("updates route");
        std::thread::sleep(Duration::from_micros(50 * n as u64));
    }
}

fn run(
    label: impl Into<String>,
    w: &ServiceWorkload,
    config: ServiceConfig,
    pool: Option<usize>,
    update_rate: u64,
) -> RunResult {
    let service = build_service(w, config, pool, None);
    let latencies = Mutex::new(Vec::with_capacity(w.queries.len()));
    let violations = Mutex::new(0usize);
    let churn = Mutex::new(ChurnState::new(w));
    let started = Instant::now();

    let burst_len = w.queries.len().div_ceil(BURSTS);
    let bursts_run = w.queries.chunks(burst_len).count() as u64;
    for (burst_idx, burst) in w.queries.chunks(burst_len).enumerate() {
        // Let every bound re-widen: this burst must pay for precision
        // again.
        service.advance_clock(25.0);
        churn.lock().unwrap().reset_envelope();
        let per_client = burst.len().div_ceil(CLIENTS);
        let (service, latencies, violations, churn) = (&service, &latencies, &violations, &churn);
        std::thread::scope(|s| {
            if update_rate > 0 {
                s.spawn(move || write_churn(service, w, churn, burst_idx, update_rate));
            }
            for chunk in burst.chunks(per_client) {
                s.spawn(move || {
                    for q in chunk {
                        let t0 = Instant::now();
                        let reply = service.query(&q.sql).expect("query runs");
                        let us = t0.elapsed().as_secs_f64() * 1e6;
                        latencies.lock().unwrap().push(us);
                        // Read-only runs check containment of the exact
                        // truth; under churn the truth moves while the
                        // query runs, but it cannot leave the burst
                        // envelope — a correct answer must intersect it.
                        let ok = match q.shape {
                            QueryShape::Grouped => {
                                let bounds = if update_rate == 0 {
                                    loadgen::ground_truth_groups(w, q)
                                        .into_iter()
                                        .map(|(g, t)| (g, (t, t)))
                                        .collect::<Vec<_>>()
                                } else {
                                    let env = churn.lock().unwrap().envelope();
                                    loadgen::ground_truth_group_bounds(w, q, &env)
                                };
                                reply.groups.len() == bounds.len()
                                    && reply.groups.iter().all(|g| {
                                        let id = match g.key.first() {
                                            Some(Value::Int(v)) => *v,
                                            _ => return false,
                                        };
                                        let Some(&(_, (lo, hi))) =
                                            bounds.iter().find(|(tg, _)| *tg == id)
                                        else {
                                            return false;
                                        };
                                        let range = g.result.answer.range;
                                        range.hi() >= lo - 1e-9 && range.lo() <= hi + 1e-9
                                    })
                            }
                            QueryShape::Scalar | QueryShape::Join => {
                                let range = reply.result.answer.range;
                                if update_rate == 0 {
                                    let t = loadgen::ground_truth(w, q);
                                    range.lo() - 1e-9 <= t && t <= range.hi() + 1e-9
                                } else {
                                    let env = churn.lock().unwrap().envelope();
                                    let (lo, hi) = loadgen::ground_truth_bounds(w, q, &env);
                                    range.hi() >= lo - 1e-9 && range.lo() <= hi + 1e-9
                                }
                            }
                        };
                        if !ok || !reply.result.satisfied {
                            *violations.lock().unwrap() += 1;
                        }
                    }
                });
            }
        });
    }

    let wall = started.elapsed();

    if update_rate > 0 {
        // Final exactness probe: with the writers quiesced, a WITHIN 0
        // query must reproduce the tracked masters to the bit — any
        // cache/monitor desync the churn provoked surfaces here.
        service.advance_clock(25.0);
        let reply = service
            .query("SELECT SUM(load) WITHIN 0 FROM metrics")
            .expect("final probe runs");
        let expected: f64 = churn
            .lock()
            .unwrap()
            .rows
            .iter()
            .map(|&(cur, _, _)| cur)
            .sum();
        let got = reply.result.answer.range.midpoint();
        if !reply.result.answer.is_exact()
            || (got - expected).abs() > 1e-6 * expected.abs().max(1.0)
        {
            eprintln!("final exactness probe failed: got {got}, masters sum to {expected}");
            *violations.lock().unwrap() += 1;
        }
    }

    let stats = service.stats();
    service.shutdown();
    RunResult {
        label: label.into(),
        shards: config.shards,
        wall,
        latencies_us: latencies.into_inner().unwrap(),
        queries: stats.queries,
        scattered: stats.scatter_queries,
        round_trips: stats.round_trips,
        forwarded: stats.refreshes_forwarded,
        coalesced: stats.refreshes_coalesced,
        updates: update_rate * bursts_run,
        violations: violations.into_inner().unwrap(),
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn render(title: &str, runs: &[RunResult]) -> usize {
    let mut rows = Vec::new();
    let mut total_violations = 0;
    for r in runs {
        let mut sorted = r.latencies_us.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        rows.push(vec![
            r.label.clone(),
            tablefmt::num(r.wall.as_secs_f64() * 1e3, 1),
            tablefmt::num(r.qps(), 0),
            tablefmt::num(percentile(&sorted, 0.5), 0),
            tablefmt::num(percentile(&sorted, 0.95), 0),
            r.scattered.to_string(),
            r.round_trips.to_string(),
            tablefmt::num(r.round_trips as f64 / r.queries.max(1) as f64, 2),
            r.forwarded.to_string(),
            r.coalesced.to_string(),
            r.violations.to_string(),
        ]);
        total_violations += r.violations;
    }
    println!("{title}");
    println!(
        "{}",
        tablefmt::render(
            &[
                "config",
                "wall ms",
                "qps",
                "p50 µs",
                "p95 µs",
                "scattered",
                "round-trips",
                "rt/query",
                "refreshes",
                "coalesced",
                "violations",
            ],
            &rows,
        )
    );
    total_violations
}

fn run_json(r: &RunResult) -> Json {
    let mut sorted = r.latencies_us.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Json::obj([
        ("label", Json::str(r.label.clone())),
        ("shards", Json::Num(r.shards as f64)),
        ("wall_ms", Json::Num(r.wall.as_secs_f64() * 1e3)),
        ("qps", Json::Num(r.qps())),
        ("p50_us", Json::Num(percentile(&sorted, 0.5))),
        ("p95_us", Json::Num(percentile(&sorted, 0.95))),
        ("queries", Json::Num(r.queries as f64)),
        ("scattered", Json::Num(r.scattered as f64)),
        ("round_trips", Json::Num(r.round_trips as f64)),
        (
            "rt_per_query",
            Json::Num(r.round_trips as f64 / r.queries.max(1) as f64),
        ),
        ("forwarded", Json::Num(r.forwarded as f64)),
        ("coalesced", Json::Num(r.coalesced as f64)),
        ("updates", Json::Num(r.updates as f64)),
        ("violations", Json::Num(r.violations as f64)),
    ])
}

/// Wall-clock length of part 8's scripted mid-churn outage.
const AVAIL_OUTAGE: Duration = Duration::from_millis(500);

/// One availability run's numbers (part 8).
struct AvailabilityResult {
    label: String,
    shards: usize,
    wall: Duration,
    latencies_us: Vec<f64>,
    queries: u64,
    errors: u64,
    degraded: u64,
    /// Sum of [`DegradedInfo::achieved_width`] over degraded replies.
    ///
    /// [`DegradedInfo::achieved_width`]: trapp_server::DegradedInfo
    width_sum: f64,
    injected: u64,
    chaos_ops: u64,
    recovered: usize,
    recovery_probes: usize,
    violations: usize,
}

impl AvailabilityResult {
    fn qps(&self) -> f64 {
        self.queries as f64 / self.wall.as_secs_f64()
    }
    fn degraded_fraction(&self) -> f64 {
        self.degraded as f64 / self.queries.max(1) as f64
    }
    fn mean_achieved_width(&self) -> f64 {
        if self.degraded == 0 {
            0.0
        } else {
            self.width_sum / self.degraded as f64
        }
    }
    fn recovered_fraction(&self) -> f64 {
        self.recovered as f64 / self.recovery_probes.max(1) as f64
    }
}

/// Part 8's churn loop: the query stream races the update stream while a
/// seeded chaos schedule fails one source's refresh ops with p = 0.2 and
/// a driver thread scripts a [`AVAIL_OUTAGE`] hard outage of that source
/// mid-run. Served best-effort: errors are counted (and fail the run —
/// best-effort must never error), degraded replies are counted and their
/// achieved widths averaged, and *every* reply is checked against the
/// churn envelope — a degraded bound is wider, never wrong. After the
/// bursts (outage over, breaker cooldown elapsed) a probe phase measures
/// what fraction of queries are back at full precision.
fn run_availability(
    label: impl Into<String>,
    w: &ServiceWorkload,
    shards: usize,
    pool: Option<usize>,
    update_rate: u64,
    quick: bool,
) -> AvailabilityResult {
    let faulty = SourceId::new(1);
    let config = ServiceConfig {
        workers: CLIENTS,
        shards,
        degradation: DegradationPolicy::BestEffort,
        // One extra retry over the default: the probe phase measures
        // recovery *through* the residual p = 0.2 flakiness.
        retry: trapp_server::RetryPolicy {
            max_retries: 3,
            ..trapp_server::RetryPolicy::default()
        },
        ..ServiceConfig::default()
    };
    let service = build_service(
        w,
        config,
        pool,
        Some(ChaosConfig {
            seed: w.config.seed ^ 0xC4A0,
            fail_p: vec![(faulty, 0.2)],
            ..ChaosConfig::default()
        }),
    );
    let control = service
        .chaos_control()
        .expect("availability run is built with chaos")
        .clone();

    let latencies = Mutex::new(Vec::with_capacity(w.queries.len()));
    let violations = Mutex::new(0usize);
    let errors = Mutex::new(0u64);
    let degraded = Mutex::new((0u64, 0.0f64)); // (count, achieved-width sum)
    let churn = Mutex::new(ChurnState::new(w));
    let mut outage: Option<std::thread::JoinHandle<()>> = None;
    let started = Instant::now();

    let burst_len = w.queries.len().div_ceil(BURSTS);
    for (burst_idx, burst) in w.queries.chunks(burst_len).enumerate() {
        service.advance_clock(25.0);
        churn.lock().unwrap().reset_envelope();
        if burst_idx == BURSTS / 2 {
            // The scripted outage: a detached driver takes the flaky
            // source hard down mid-churn and restores it 500 ms later,
            // racing the remaining bursts.
            let control = control.clone();
            control.force_down(faulty);
            outage = Some(std::thread::spawn(move || {
                std::thread::sleep(AVAIL_OUTAGE);
                control.restore(faulty);
            }));
        }
        let per_client = burst.len().div_ceil(CLIENTS);
        let (service, latencies, violations, errors, degraded, churn) = (
            &service,
            &latencies,
            &violations,
            &errors,
            &degraded,
            &churn,
        );
        std::thread::scope(|s| {
            if update_rate > 0 {
                // The update plane is chaos-exempt: masters keep moving
                // while the pull path is under fault load.
                s.spawn(move || write_churn(service, w, churn, burst_idx, update_rate));
            }
            for chunk in burst.chunks(per_client) {
                s.spawn(move || {
                    for q in chunk {
                        let t0 = Instant::now();
                        let reply = match service.query(&q.sql) {
                            Ok(reply) => reply,
                            Err(_) => {
                                // Best-effort must degrade, never refuse.
                                *errors.lock().unwrap() += 1;
                                continue;
                            }
                        };
                        let us = t0.elapsed().as_secs_f64() * 1e6;
                        latencies.lock().unwrap().push(us);
                        if let Some(d) = &reply.degraded {
                            let mut deg = degraded.lock().unwrap();
                            deg.0 += 1;
                            deg.1 += d.achieved_width;
                        }
                        let range = reply.result.answer.range;
                        let env = churn.lock().unwrap().envelope();
                        let (lo, hi) = loadgen::ground_truth_bounds(w, q, &env);
                        if !(range.hi() >= lo - 1e-9 && range.lo() <= hi + 1e-9) {
                            *violations.lock().unwrap() += 1;
                        }
                    }
                });
            }
        });
    }
    let wall = started.elapsed();
    if let Some(h) = outage {
        h.join().expect("outage driver");
    }

    // Recovery: outage over; give every shard's breaker its cooldown,
    // then measure how many queries come back at full precision through
    // the residual flakiness.
    std::thread::sleep(config.health.cooldown + Duration::from_millis(50));
    let recovery_probes = if quick { 40 } else { 100 };
    let mut recovered = 0usize;
    for i in 0..recovery_probes {
        service.advance_clock(25.0);
        let g = i % w.config.groups;
        let reply = service
            .query(format!(
                "SELECT SUM(load) WITHIN 0.5 FROM metrics WHERE grp = {g}"
            ))
            .expect("recovery probe runs");
        if reply.result.satisfied && reply.degraded.is_none() {
            recovered += 1;
        }
    }

    let stats = service.stats();
    let (chaos_ops, injected) = (control.ops(), control.injected_failures());
    service.shutdown();
    let (degraded, width_sum) = degraded.into_inner().unwrap();
    AvailabilityResult {
        label: label.into(),
        shards,
        wall,
        latencies_us: latencies.into_inner().unwrap(),
        queries: stats.queries,
        errors: errors.into_inner().unwrap(),
        degraded,
        width_sum,
        injected,
        chaos_ops,
        recovered,
        recovery_probes,
        violations: violations.into_inner().unwrap(),
    }
}

fn render_availability(title: &str, runs: &[AvailabilityResult]) -> usize {
    let mut rows = Vec::new();
    let mut total = 0;
    for r in runs {
        let mut sorted = r.latencies_us.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        rows.push(vec![
            r.label.clone(),
            tablefmt::num(r.wall.as_secs_f64() * 1e3, 1),
            tablefmt::num(r.qps(), 0),
            tablefmt::num(percentile(&sorted, 0.5), 0),
            tablefmt::num(percentile(&sorted, 0.99), 0),
            r.errors.to_string(),
            r.degraded.to_string(),
            tablefmt::num(r.degraded_fraction() * 100.0, 1),
            tablefmt::num(r.mean_achieved_width(), 2),
            r.injected.to_string(),
            tablefmt::num(r.recovered_fraction() * 100.0, 1),
            r.violations.to_string(),
        ]);
        // Errors fail the run: best-effort service must never refuse.
        total += r.violations + r.errors as usize;
    }
    println!("{title}");
    println!(
        "{}",
        tablefmt::render(
            &[
                "config",
                "wall ms",
                "qps",
                "p50 µs",
                "p99 µs",
                "errors",
                "degraded",
                "degr %",
                "mean width",
                "injected",
                "recovered %",
                "violations",
            ],
            &rows,
        )
    );
    total
}

fn availability_json(r: &AvailabilityResult) -> Json {
    let mut sorted = r.latencies_us.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Json::obj([
        ("label", Json::str(r.label.clone())),
        ("shards", Json::Num(r.shards as f64)),
        ("wall_ms", Json::Num(r.wall.as_secs_f64() * 1e3)),
        ("qps", Json::Num(r.qps())),
        ("p50_us", Json::Num(percentile(&sorted, 0.5))),
        ("p99_us", Json::Num(percentile(&sorted, 0.99))),
        ("queries", Json::Num(r.queries as f64)),
        ("errors", Json::Num(r.errors as f64)),
        ("degraded", Json::Num(r.degraded as f64)),
        ("degraded_fraction", Json::Num(r.degraded_fraction())),
        ("mean_achieved_width", Json::Num(r.mean_achieved_width())),
        ("chaos_ops", Json::Num(r.chaos_ops as f64)),
        ("injected_failures", Json::Num(r.injected as f64)),
        ("recovered_fraction", Json::Num(r.recovered_fraction())),
        ("recovery_probes", Json::Num(r.recovery_probes as f64)),
        ("violations", Json::Num(r.violations as f64)),
    ])
}

/// Part 9's per-query deadline budget, milliseconds.
const OVERLOAD_DEADLINE_MS: f64 = 50.0;
/// Part 9's slow-source injected latency (charged to each completion).
const OVERLOAD_DELAY: Duration = Duration::from_millis(25);
/// Scheduling slack allowed on top of the deadline before part 9 fails a
/// run's p99: the deadline bounds queue wait + fetch, but thread wakeups
/// and the final cache-only install ride on top.
const OVERLOAD_P99_GRACE: f64 = 1.5;

/// One overload run's numbers (part 9).
struct OverloadResult {
    label: String,
    policy: &'static str,
    clients: usize,
    wall: Duration,
    latencies_us: Vec<f64>,
    queries: u64,
    /// Typed `DeadlineExceeded` refusals (Strict's only legal error).
    deadline_errors: u64,
    /// Every other error — fails the run under either policy.
    other_errors: u64,
    /// Replies flagged `load_shed`: the constraint was deliberately
    /// relaxed (deadline widening or admission widening).
    degraded: u64,
    width_sum: f64,
    deadline_widened: u64,
    admission_widened: u64,
    violations: usize,
}

impl OverloadResult {
    fn qps(&self) -> f64 {
        self.queries as f64 / self.wall.as_secs_f64()
    }
    fn errors(&self) -> u64 {
        self.deadline_errors + self.other_errors
    }
    fn degraded_fraction(&self) -> f64 {
        self.degraded as f64 / self.queries.max(1) as f64
    }
    fn mean_achieved_width(&self) -> f64 {
        if self.degraded == 0 {
            0.0
        } else {
            self.width_sum / self.degraded as f64
        }
    }
    fn p99_us(&self) -> f64 {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        percentile(&sorted, 0.99)
    }
}

/// Part 9's overload loop: every query carries `DEADLINE
/// OVERLOAD_DEADLINE_MS` while one source answers [`OVERLOAD_DELAY`]
/// slow, and `clients` closed-loop submitters drive
/// a fixed worker pool — past saturation, queue wait eats the budget and
/// the deadline machinery must widen (BestEffort) or refuse with the
/// typed error (Strict). Since the masters never move, *every* reply —
/// shed or not — must still contain the static ground truth; p99 beyond
/// `deadline × OVERLOAD_P99_GRACE` fails the run too, because a deadline
/// that counts from enqueue bounds the whole client-observed latency.
fn run_overload(
    label: impl Into<String>,
    w: &ServiceWorkload,
    clients: usize,
    pool: Option<usize>,
    policy: DegradationPolicy,
    admission: trapp_server::AdmissionConfig,
) -> OverloadResult {
    let slow = SourceId::new(1);
    let config = ServiceConfig {
        workers: CLIENTS,
        shards: 1,
        degradation: policy,
        // Attempt caps come from the deadline, not the per-try timeout:
        // with `fetch_timeout` past the budget, an expired wait *is* a
        // blown deadline, so Strict surfaces `DeadlineExceeded` rather
        // than a raw per-try `Timeout`.
        retry: trapp_server::RetryPolicy {
            max_retries: 1,
            fetch_timeout: Duration::from_millis(200),
            ..trapp_server::RetryPolicy::default()
        },
        // Deadline expiries are not source failures: keep the breakers
        // closed so every error below is the deadline machinery's.
        health: trapp_server::HealthConfig {
            failure_threshold: 1000,
            ..trapp_server::HealthConfig::default()
        },
        admission,
    };
    let service = build_service(
        w,
        config,
        pool,
        Some(ChaosConfig {
            seed: w.config.seed ^ 0x0EAD,
            delay: vec![(slow, DelaySpec::fixed(OVERLOAD_DELAY))],
            ..ChaosConfig::default()
        }),
    );

    let latencies = Mutex::new(Vec::with_capacity(w.queries.len()));
    let violations = Mutex::new(0usize);
    let deadline_errors = Mutex::new(0u64);
    let other_errors = Mutex::new(0u64);
    let degraded = Mutex::new((0u64, 0.0f64)); // (load-shed count, width sum)
    let started = Instant::now();

    let burst_len = w.queries.len().div_ceil(BURSTS);
    for burst in w.queries.chunks(burst_len) {
        service.advance_clock(25.0);
        let per_client = burst.len().div_ceil(clients);
        let (service, latencies, violations, deadline_errors, other_errors, degraded) = (
            &service,
            &latencies,
            &violations,
            &deadline_errors,
            &other_errors,
            &degraded,
        );
        std::thread::scope(|s| {
            for chunk in burst.chunks(per_client) {
                s.spawn(move || {
                    for q in chunk {
                        let t0 = Instant::now();
                        let reply = match service.query(&q.sql) {
                            Ok(reply) => reply,
                            Err(trapp_types::TrappError::DeadlineExceeded { .. }) => {
                                *deadline_errors.lock().unwrap() += 1;
                                continue;
                            }
                            Err(_) => {
                                *other_errors.lock().unwrap() += 1;
                                continue;
                            }
                        };
                        let us = t0.elapsed().as_secs_f64() * 1e6;
                        latencies.lock().unwrap().push(us);
                        if let Some(d) = &reply.degraded {
                            if d.load_shed {
                                let mut deg = degraded.lock().unwrap();
                                deg.0 += 1;
                                deg.1 += d.achieved_width;
                            }
                        }
                        // Shed or not, the interval must contain the
                        // (static) truth — load never buys wrongness.
                        let range = reply.result.answer.range;
                        let t = loadgen::ground_truth(w, q);
                        if !(range.lo() - 1e-9 <= t && t <= range.hi() + 1e-9) {
                            *violations.lock().unwrap() += 1;
                        }
                    }
                });
            }
        });
    }
    let wall = started.elapsed();

    let stats = service.stats();
    service.shutdown();
    let (degraded, width_sum) = degraded.into_inner().unwrap();
    let mut result = OverloadResult {
        label: label.into(),
        policy: match policy {
            DegradationPolicy::Strict => "strict",
            DegradationPolicy::BestEffort => "best-effort",
        },
        clients,
        wall,
        latencies_us: latencies.into_inner().unwrap(),
        queries: stats.queries,
        deadline_errors: deadline_errors.into_inner().unwrap(),
        other_errors: other_errors.into_inner().unwrap(),
        degraded,
        width_sum,
        deadline_widened: stats.deadline_widened,
        admission_widened: stats.admission_widened,
        violations: violations.into_inner().unwrap(),
    };
    let p99_limit_us = OVERLOAD_DEADLINE_MS * 1e3 * OVERLOAD_P99_GRACE;
    if result.p99_us() > p99_limit_us {
        eprintln!(
            "overload {}: p99 {}µs blew the deadline bound ({}µs)",
            result.label,
            result.p99_us(),
            p99_limit_us,
        );
        result.violations += 1;
    }
    result
}

fn render_overload(title: &str, runs: &[OverloadResult]) -> usize {
    let mut rows = Vec::new();
    let mut total = 0;
    for r in runs {
        let mut sorted = r.latencies_us.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        rows.push(vec![
            r.label.clone(),
            r.clients.to_string(),
            tablefmt::num(r.wall.as_secs_f64() * 1e3, 1),
            tablefmt::num(r.qps(), 0),
            tablefmt::num(percentile(&sorted, 0.5), 0),
            tablefmt::num(percentile(&sorted, 0.99), 0),
            r.errors().to_string(),
            r.deadline_errors.to_string(),
            r.degraded.to_string(),
            tablefmt::num(r.degraded_fraction() * 100.0, 1),
            tablefmt::num(r.mean_achieved_width(), 2),
            r.admission_widened.to_string(),
            r.violations.to_string(),
        ]);
        // Strict may refuse with the typed deadline error — anything else
        // fails the run. BestEffort must answer every query.
        total += r.violations + r.other_errors as usize;
        if r.policy == "best-effort" {
            total += r.deadline_errors as usize;
        }
    }
    println!("{title}");
    println!(
        "{}",
        tablefmt::render(
            &[
                "config",
                "clients",
                "wall ms",
                "qps",
                "p50 µs",
                "p99 µs",
                "errors",
                "ddl errs",
                "degraded",
                "degr %",
                "mean width",
                "adm widened",
                "violations",
            ],
            &rows,
        )
    );
    total
}

fn overload_json(r: &OverloadResult) -> Json {
    let mut sorted = r.latencies_us.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Json::obj([
        ("label", Json::str(r.label.clone())),
        ("policy", Json::str(r.policy)),
        ("clients", Json::Num(r.clients as f64)),
        ("deadline_ms", Json::Num(OVERLOAD_DEADLINE_MS)),
        ("wall_ms", Json::Num(r.wall.as_secs_f64() * 1e3)),
        ("qps", Json::Num(r.qps())),
        ("p50_us", Json::Num(percentile(&sorted, 0.5))),
        ("p99_us", Json::Num(percentile(&sorted, 0.99))),
        (
            "p99_within_deadline",
            Json::Bool(percentile(&sorted, 0.99) <= OVERLOAD_DEADLINE_MS * 1e3),
        ),
        ("queries", Json::Num(r.queries as f64)),
        ("errors", Json::Num(r.errors() as f64)),
        ("deadline_errors", Json::Num(r.deadline_errors as f64)),
        ("other_errors", Json::Num(r.other_errors as f64)),
        ("degraded", Json::Num(r.degraded as f64)),
        ("degraded_fraction", Json::Num(r.degraded_fraction())),
        ("mean_achieved_width", Json::Num(r.mean_achieved_width())),
        ("deadline_widened", Json::Num(r.deadline_widened as f64)),
        ("admission_widened", Json::Num(r.admission_widened as f64)),
        ("violations", Json::Num(r.violations as f64)),
    ])
}

fn build_tpch_service(w: &TpchWorkload, shards: usize, pool: Option<usize>) -> QueryService {
    let mut b = ServiceBuilder::new()
        .initial_width(1.0)
        .config(ServiceConfig {
            workers: CLIENTS,
            shards,
            ..ServiceConfig::default()
        })
        // customer and orders co-partition on the customer key; lineitem
        // has no such column, so its rows hash-place by tuple id and
        // every orders ⋈ lineitem query scatters.
        .partition_by("custkey")
        .table(tpch::customer_table())
        .table(tpch::orders_table())
        .table(tpch::lineitem_table());
    for (name, rows) in [
        ("customer", &w.customer),
        ("orders", &w.orders),
        ("lineitem", &w.lineitem),
    ] {
        for r in rows {
            b = b.row(name, r.source, r.cells.clone());
        }
    }
    b.build_completion(LATENCY, pool)
        .expect("tpch service builds")
}

/// Per-query-class measurements across one tpch run.
#[derive(Default)]
struct ClassProfile {
    latencies_us: Vec<f64>,
    rounds: Vec<f64>,
    fetched: u64,
    violations: usize,
}

/// Serves one query and returns `(rounds, fetched, violations)`,
/// checking the reply against the query's exact ground truth.
fn serve_tpch_query(service: &QueryService, q: &tpch::TpchQuery) -> (usize, usize, usize) {
    let reply = service.query(&q.sql).expect("tpch query runs");
    let violations = match &q.truth {
        Truth::Scalar(_) => {
            let range = reply.result.answer.range;
            usize::from(
                tpch::scalar_violation(q, range.lo(), range.hi()) || !reply.result.satisfied,
            )
        }
        Truth::Groups(_) => {
            let served: Vec<(i64, f64, f64)> = reply
                .groups
                .iter()
                .filter_map(|g| match g.key.first() {
                    Some(Value::Int(k)) => {
                        Some((*k, g.result.answer.range.lo(), g.result.answer.range.hi()))
                    }
                    _ => None,
                })
                .collect();
            tpch::group_violations(q, &served)
                + reply.groups.iter().filter(|g| !g.result.satisfied).count()
        }
    };
    (
        reply.result.rounds,
        reply.result.refreshed.len(),
        violations,
    )
}

/// Runs the suite sequentially — the clock advances 1.0 before each
/// query, so every bound has re-widened to exactly the unit width the
/// generator sized its precision constraints against — and folds the
/// replies into per-class profiles.
fn run_tpch(w: &TpchWorkload, service: &QueryService) -> Vec<(TpchClass, ClassProfile)> {
    let mut profiles: Vec<(TpchClass, ClassProfile)> = TpchClass::ALL
        .iter()
        .map(|&c| (c, ClassProfile::default()))
        .collect();
    for q in &w.queries {
        service.advance_clock(1.0);
        let t0 = Instant::now();
        let (rounds, fetched, violations) = serve_tpch_query(service, q);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let p = &mut profiles
            .iter_mut()
            .find(|(c, _)| *c == q.class)
            .expect("all classes listed")
            .1;
        p.latencies_us.push(us);
        p.rounds.push(rounds as f64);
        p.fetched += fetched as u64;
        p.violations += violations;
    }
    profiles.retain(|(_, p)| !p.latencies_us.is_empty());
    profiles
}

/// Renders per-class profiles, returning the violation total.
fn render_tpch(title: &str, profiles: &[(TpchClass, ClassProfile)]) -> usize {
    let mut rows = Vec::new();
    let mut total = 0;
    for (class, p) in profiles {
        let mut lat = p.latencies_us.clone();
        lat.sort_by(|a, b| a.total_cmp(b));
        let mean_rounds = p.rounds.iter().sum::<f64>() / p.rounds.len() as f64;
        let max_rounds = p.rounds.iter().fold(0.0f64, |a, &r| a.max(r));
        rows.push(vec![
            class.label().to_string(),
            p.latencies_us.len().to_string(),
            tablefmt::num(mean_rounds, 1),
            tablefmt::num(max_rounds, 0),
            p.fetched.to_string(),
            tablefmt::num(percentile(&lat, 0.5), 0),
            tablefmt::num(percentile(&lat, 0.99), 0),
            p.violations.to_string(),
        ]);
        total += p.violations;
    }
    println!("{title}");
    println!(
        "{}",
        tablefmt::render(
            &[
                "class",
                "queries",
                "rounds avg",
                "rounds max",
                "fetched",
                "p50 µs",
                "p99 µs",
                "violations",
            ],
            &rows,
        )
    );
    total
}

fn tpch_profile_json(profiles: &[(TpchClass, ClassProfile)]) -> Json {
    Json::Arr(
        profiles
            .iter()
            .map(|(class, p)| {
                let mut lat = p.latencies_us.clone();
                lat.sort_by(|a, b| a.total_cmp(b));
                Json::obj([
                    ("class", Json::str(class.label())),
                    ("queries", Json::Num(p.latencies_us.len() as f64)),
                    (
                        "mean_rounds",
                        Json::Num(p.rounds.iter().sum::<f64>() / p.rounds.len() as f64),
                    ),
                    (
                        "max_rounds",
                        Json::Num(p.rounds.iter().fold(0.0f64, |a, &r| a.max(r))),
                    ),
                    ("fetched", Json::Num(p.fetched as f64)),
                    ("p50_us", Json::Num(percentile(&lat, 0.5))),
                    ("p99_us", Json::Num(percentile(&lat, 0.99))),
                    ("violations", Json::Num(p.violations as f64)),
                ])
            })
            .collect(),
    )
}

struct Cli {
    shards: Vec<usize>,
    sources: usize,
    pool: Option<usize>,
    rows: Vec<usize>,
    update_rate: u64,
    json: Option<String>,
    quick: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: service_throughput [--shards LIST] [--sources N] [--pool N|auto] \
         [--rows LIST] [--update-rate N] [--json PATH] [--quick]"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        shards: vec![1, 2, 4, 8],
        sources: 64,
        // Adaptive by default: the service sizes its shared fetch pool
        // from available_parallelism × shard count; `--pool N` overrides.
        pool: None,
        rows: vec![1_000, 10_000, 50_000, 200_000],
        update_rate: 32,
        json: None,
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--shards" => {
                let spec = value("--shards");
                cli.shards = spec
                    .split(',')
                    .map(|s| {
                        s.trim().parse().unwrap_or_else(|_| {
                            eprintln!("invalid shard count {s:?}");
                            usage()
                        })
                    })
                    .collect();
                if cli.shards.is_empty() {
                    usage();
                }
                if cli.shards.len() == 1 && cli.shards[0] > 1 {
                    cli.shards.insert(0, 1);
                }
            }
            "--sources" => {
                cli.sources = value("--sources").parse().unwrap_or_else(|_| usage());
                if cli.sources == 0 {
                    usage();
                }
            }
            "--pool" => {
                let spec = value("--pool");
                cli.pool = if spec == "auto" {
                    // Adaptive sizing from available_parallelism × shards.
                    None
                } else {
                    Some(spec.parse().unwrap_or_else(|_| usage()))
                };
            }
            "--rows" => {
                let spec = value("--rows");
                cli.rows = spec
                    .split(',')
                    .map(|s| {
                        s.trim().parse().unwrap_or_else(|_| {
                            eprintln!("invalid row count {s:?}");
                            usage()
                        })
                    })
                    .collect();
                if cli.rows.is_empty() || cli.rows.contains(&0) {
                    usage();
                }
            }
            "--update-rate" => {
                cli.update_rate = value("--update-rate").parse().unwrap_or_else(|_| usage());
            }
            "--json" => cli.json = Some(value("--json")),
            "--quick" => cli.quick = true,
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }
    if cli.quick {
        cli.shards = vec![1, 2];
        cli.sources = cli.sources.min(16);
        cli.update_rate = cli.update_rate.min(8);
        cli.rows = vec![512, 2048];
    }
    let largest = cli
        .rows
        .iter()
        .copied()
        .chain(tpch_tiers(cli.quick).iter().copied())
        .max()
        .unwrap_or(0);
    validate_rows_fit(largest as u64);
    cli
}

/// Rough resident bytes per workload row: the cached table row, its
/// master copy at a source, per-object subscription state, and headroom
/// for the transient per-round table slices scatter-gather copies.
const BYTES_PER_ROW: u64 = 1_500;

/// The row tiers part 7 walks.
fn tpch_tiers(quick: bool) -> &'static [usize] {
    if quick {
        &[100_000]
    } else {
        &[100_000, 1_000_000]
    }
}

/// Fails fast — with the math shown — when the requested row counts
/// cannot fit in the memory currently available, instead of letting the
/// kernel OOM-kill the run minutes in. Skipped silently where
/// `/proc/meminfo` is unreadable (non-Linux hosts).
fn validate_rows_fit(max_rows: u64) {
    let Some(available) = mem_available_bytes() else {
        return;
    };
    let needed = max_rows.saturating_mul(BYTES_PER_ROW);
    if needed > available / 5 * 4 {
        eprintln!(
            "--rows {max_rows} needs roughly {} MiB ({} bytes/row) but only {} MiB \
             are available; lower --rows or free memory",
            needed >> 20,
            BYTES_PER_ROW,
            available >> 20,
        );
        std::process::exit(2);
    }
}

/// `MemAvailable` from `/proc/meminfo`, in bytes.
fn mem_available_bytes() -> Option<u64> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = meminfo
        .lines()
        .find_map(|l| l.strip_prefix("MemAvailable:"))?;
    let kb: u64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

fn main() {
    let cli = parse_cli();
    let max_shards = *cli.shards.iter().max().expect("non-empty shard list");
    let mut sections: Vec<Json> = Vec::new();
    let mut total_violations = 0;

    // Part 1: the traffic mechanisms on one shard.
    let config = LoadConfig {
        queries: if cli.quick { 96 } else { 256 },
        ..LoadConfig::default()
    };
    let w = loadgen::generate(&config);
    eprintln!(
        "workload: {} rows ({} groups × {}), {} sources, {} queries, zipf s={}, {} clients, {:?} RTT",
        w.rows.len(),
        config.groups,
        config.rows_per_group,
        config.sources,
        w.queries.len(),
        config.zipf_s,
        CLIENTS,
        LATENCY,
    );
    let sharded = |shards| ServiceConfig {
        workers: CLIENTS,
        shards,
        ..ServiceConfig::default()
    };
    let mechanisms = [run("batched + coalesced", &w, sharded(1), cli.pool, 0)];
    total_violations += render("traffic mechanisms (1 shard):", &mechanisms);
    sections.push(Json::obj([
        ("title", Json::str("mechanisms")),
        ("runs", Json::Arr(mechanisms.iter().map(run_json).collect())),
    ]));

    // Part 2: shard scaling. More groups so every shard owns several, and
    // a slice of group-free queries to keep the scatter-gather merge path
    // honest under load.
    let scale_config = LoadConfig {
        seed: 97,
        groups: 64,
        rows_per_group: 12,
        sources: 4,
        queries: if cli.quick { 256 } else { 1024 },
        global_fraction: 0.02,
        ..LoadConfig::default()
    };
    let sw = loadgen::generate(&scale_config);
    eprintln!(
        "\nscaling workload: {} rows ({} groups × {}), {} queries ({}% global)",
        sw.rows.len(),
        scale_config.groups,
        scale_config.rows_per_group,
        sw.queries.len(),
        (scale_config.global_fraction * 100.0) as u32,
    );
    let scaling: Vec<RunResult> = cli
        .shards
        .iter()
        .map(|&shards| {
            run(
                format!("{shards} shard{}", if shards == 1 { "" } else { "s" }),
                &sw,
                sharded(shards),
                cli.pool,
                0,
            )
        })
        .collect();
    println!();
    total_violations += render("shard scaling:", &scaling);
    if let (Some(first), Some(last)) = (scaling.first(), scaling.last()) {
        if scaling.len() > 1 {
            println!(
                "throughput {} -> {}: {} -> {} qps ({}x)",
                first.label,
                last.label,
                tablefmt::num(first.qps(), 0),
                tablefmt::num(last.qps(), 0),
                tablefmt::num(last.qps() / first.qps(), 2),
            );
        }
    }
    sections.push(Json::obj([
        ("title", Json::str("shard_scaling")),
        ("runs", Json::Arr(scaling.iter().map(run_json).collect())),
    ]));

    // Part 3: high fan-out at the largest shard count with many sources.
    // Flat popularity, uniformly tight constraints, and a real scatter
    // slice: every burst fans out to most sources on most shards.
    let duel_config = LoadConfig {
        seed: 131,
        groups: 64,
        rows_per_group: (cli.sources / 16).max(4),
        sources: cli.sources,
        queries: if cli.quick { 192 } else { 1024 },
        zipf_s: 0.2,
        precision: vec![(0.5, 1)],
        global_fraction: 0.1,
        ..LoadConfig::default()
    };
    let dw = loadgen::generate(&duel_config);
    let pool_label = match cli.pool {
        Some(n) => n.to_string(),
        None => format!("auto:{}", trapp_server::default_fetch_pool_size(max_shards)),
    };
    eprintln!(
        "\nfan-out workload: {} rows, {} sources, {} shards, {} queries, pool={}",
        dw.rows.len(),
        duel_config.sources,
        max_shards,
        dw.queries.len(),
        pool_label,
    );
    let fan_out = run(
        format!("completion ({} shards, pool={})", max_shards, pool_label),
        &dw,
        sharded(max_shards),
        cli.pool,
        0,
    );
    println!();
    total_violations += render(
        &format!(
            "high fan-out ({} sources, {max_shards} shards):",
            duel_config.sources
        ),
        std::slice::from_ref(&fan_out),
    );
    sections.push(Json::obj([
        ("title", Json::str("transport_duel")),
        ("sources", Json::Num(duel_config.sources as f64)),
        ("runs", Json::Arr(vec![run_json(&fan_out)])),
    ]));

    // Part 4: the same workload under update churn — coalescing
    // invalidation and value-initiated refreshes race the query stream.
    // The part-3 run above is its read-only row.
    if cli.update_rate > 0 {
        let churn = run(
            format!("completion, {}/burst updates", cli.update_rate),
            &dw,
            sharded(max_shards),
            cli.pool,
            cli.update_rate,
        );
        println!();
        total_violations += render(
            &format!(
                "update churn ({} shards, {} updates/burst):",
                max_shards, cli.update_rate
            ),
            std::slice::from_ref(&churn),
        );
        sections.push(Json::obj([
            ("title", Json::str("churn")),
            ("update_rate", Json::Num(cli.update_rate as f64)),
            (
                "runs",
                Json::Arr(vec![run_json(&fan_out), run_json(&churn)]),
            ),
        ]));
    }

    // Part 5: the full query surface — grouped + join slices over the
    // completion transport at 1 shard and at the largest shard count,
    // read-only and under batched update churn. Every grouped answer is
    // checked per group, every join answer against the join ground truth.
    let surface_config = LoadConfig {
        seed: 211,
        groups: 32,
        rows_per_group: 8,
        sources: cli.sources.min(16),
        queries: if cli.quick { 64 } else { 512 },
        global_fraction: 0.05,
        grouped_fraction: 0.15,
        join_fraction: 0.15,
        ..LoadConfig::default()
    };
    let qw = loadgen::generate(&surface_config);
    let n_grouped = qw
        .queries
        .iter()
        .filter(|q| q.shape == QueryShape::Grouped)
        .count();
    let n_join = qw
        .queries
        .iter()
        .filter(|q| q.shape == QueryShape::Join)
        .count();
    eprintln!(
        "\nquery-surface workload: {} rows + {} segments, {} queries \
         ({n_grouped} grouped, {n_join} join)",
        qw.rows.len(),
        qw.segments.len(),
        qw.queries.len(),
    );
    let surface = [
        run("1 shard (completion)", &qw, sharded(1), cli.pool, 0),
        run(
            format!("{max_shards} shards (completion)"),
            &qw,
            sharded(max_shards),
            cli.pool,
            0,
        ),
        run(
            format!("{max_shards} shards, {}/burst updates", cli.update_rate),
            &qw,
            sharded(max_shards),
            cli.pool,
            cli.update_rate,
        ),
    ];
    println!();
    total_violations += render("query surface (grouped + join, completion):", &surface);
    sections.push(Json::obj([
        ("title", Json::str("query_surface")),
        ("grouped_queries", Json::Num(n_grouped as f64)),
        ("join_queries", Json::Num(n_join as f64)),
        ("runs", Json::Arr(surface.iter().map(run_json).collect())),
    ]));

    // Part 6: table scaling at growing row counts. Group size is held
    // constant while the *number* of groups scales, so per-query refresh
    // work stays fixed and the runs isolate what planning costs as the
    // table grows; zipfian popularity supplies the hot-group repetition a
    // serving deployment sees. Every answer is still ground-truth checked.
    let mut scaling_entries: Vec<Json> = Vec::new();
    for &rows in &cli.rows {
        let groups = rows.div_ceil(8).max(1);
        let scale_config = LoadConfig {
            seed: 307,
            groups,
            rows_per_group: 8,
            sources: 16,
            queries: if cli.quick { 64 } else { 240 },
            zipf_s: 1.6,
            global_fraction: 0.0,
            ..LoadConfig::default()
        };
        let tw = loadgen::generate(&scale_config);
        eprintln!(
            "\ntable-scaling workload: {} rows ({} groups × {}), {} queries",
            tw.rows.len(),
            groups,
            scale_config.rows_per_group,
            tw.queries.len(),
        );
        let views = run(format!("views, {rows} rows"), &tw, sharded(1), cli.pool, 0);
        println!();
        total_violations += render(
            &format!("table scaling ({rows} rows):"),
            std::slice::from_ref(&views),
        );
        scaling_entries.push(Json::obj([
            ("rows", Json::Num(tw.rows.len() as f64)),
            ("views", run_json(&views)),
        ]));
    }
    sections.push(Json::obj([
        ("title", Json::str("table_scaling")),
        ("entries", Json::Arr(scaling_entries)),
    ]));

    // Part 7: tpch scaling — the TPC-H-derived three-table suite at
    // growing row counts and shard counts, profiled per query class.
    let mut tpch_entries: Vec<Json> = Vec::new();
    let tiers = tpch_tiers(cli.quick);
    let tpch_shard_counts: &[usize] = if cli.quick { &[1] } else { &[1, 8] };
    for &rows in tiers {
        let tconfig = tpch::TpchConfig {
            seed: 701,
            total_rows: rows,
            sources: 16,
            queries: if cli.quick { 12 } else { 24 },
            ..tpch::TpchConfig::default()
        };
        let tw = tpch::generate(&tconfig);
        eprintln!(
            "\ntpch workload: {} customer + {} orders + {} lineitem rows, {} queries",
            tw.customer.len(),
            tw.orders.len(),
            tw.lineitem.len(),
            tw.queries.len(),
        );
        for &shards in tpch_shard_counts {
            let service = build_tpch_service(&tw, shards, cli.pool);
            let profiles = run_tpch(&tw, &service);
            service.shutdown();
            println!();
            total_violations += render_tpch(
                &format!("tpch scaling ({rows} rows, {shards} shards):"),
                &profiles,
            );
            tpch_entries.push(Json::obj([
                ("rows", Json::Num(rows as f64)),
                ("shards", Json::Num(shards as f64)),
                ("profiles", tpch_profile_json(&profiles)),
            ]));
        }
    }
    sections.push(Json::obj([
        ("title", Json::str("tpch_scaling")),
        ("entries", Json::Arr(tpch_entries)),
    ]));

    // Part 8: availability — churn under a seeded chaos schedule (one of
    // the sources failing refresh ops with p = 0.2) plus a scripted
    // 500 ms hard outage of that source mid-run, served best-effort.
    {
        let avail_config = LoadConfig {
            seed: 801,
            groups: 16,
            rows_per_group: 4,
            sources: 8,
            queries: if cli.quick { 96 } else { 256 },
            global_fraction: 0.3,
            ..LoadConfig::default()
        };
        let aw = loadgen::generate(&avail_config);
        let avail_shards = max_shards.min(4);
        eprintln!(
            "\navailability workload: {} rows, {} sources (source 1 flaky at p=0.2 + {:?} outage), \
             {} queries, {} shards, best-effort",
            aw.rows.len(),
            avail_config.sources,
            AVAIL_OUTAGE,
            aw.queries.len(),
            avail_shards,
        );
        let availability = [run_availability(
            "completion best-effort",
            &aw,
            avail_shards,
            cli.pool,
            cli.update_rate,
            cli.quick,
        )];
        println!();
        total_violations += render_availability("availability under faults:", &availability);
        sections.push(Json::obj([
            ("title", Json::str("availability")),
            ("fail_p", Json::Num(0.2)),
            ("outage_ms", Json::Num(AVAIL_OUTAGE.as_millis() as f64)),
            (
                "entries",
                Json::Arr(availability.iter().map(availability_json).collect()),
            ),
        ]));
    }

    // Part 9: overload — deadline-bounded queries against a slow source
    // at rising client counts, BestEffort across the whole ladder plus a
    // Strict run at 2× saturation.
    {
        let overload_config = LoadConfig {
            seed: 901,
            groups: 16,
            rows_per_group: 4,
            sources: 4,
            queries: if cli.quick { 96 } else { 256 },
            precision: vec![(0.5, 1)],
            deadline_fraction: 1.0,
            deadline_ms: OVERLOAD_DEADLINE_MS,
            ..LoadConfig::default()
        };
        let ow = loadgen::generate(&overload_config);
        // Saturation here is the worker pool: every query is group-pinned
        // to one shard and the slow source serializes its fetches, so
        // clients beyond the worker count only deepen the queue.
        let steps: &[usize] = if cli.quick {
            &[CLIENTS / 2, 2 * CLIENTS]
        } else {
            &[2, CLIENTS / 2, CLIENTS, 2 * CLIENTS]
        };
        let admission = trapp_server::AdmissionConfig {
            widen_watermark: 6,
            widen_factor: 4.0,
            ..trapp_server::AdmissionConfig::default()
        };
        eprintln!(
            "\noverload workload: {} rows, {} sources (source 1 slow by {:?}), {} queries, \
             DEADLINE {} ms, {} workers, clients {:?}",
            ow.rows.len(),
            overload_config.sources,
            OVERLOAD_DELAY,
            ow.queries.len(),
            OVERLOAD_DEADLINE_MS,
            CLIENTS,
            steps,
        );
        let mut overload: Vec<OverloadResult> = steps
            .iter()
            .map(|&clients| {
                run_overload(
                    format!("best-effort, {clients} clients"),
                    &ow,
                    clients,
                    cli.pool,
                    DegradationPolicy::BestEffort,
                    admission,
                )
            })
            .collect();
        overload.push(run_overload(
            format!("strict, {} clients", 2 * CLIENTS),
            &ow,
            2 * CLIENTS,
            cli.pool,
            DegradationPolicy::Strict,
            trapp_server::AdmissionConfig::default(),
        ));
        println!();
        total_violations += render_overload("overload (deadline-bounded, slow source):", &overload);
        sections.push(Json::obj([
            ("title", Json::str("overload")),
            ("deadline_ms", Json::Num(OVERLOAD_DEADLINE_MS)),
            (
                "slow_source_delay_ms",
                Json::Num(OVERLOAD_DELAY.as_millis() as f64),
            ),
            ("workers", Json::Num(CLIENTS as f64)),
            (
                "entries",
                Json::Arr(overload.iter().map(overload_json).collect()),
            ),
        ]));
    }

    println!("bounded-answer violations: {total_violations}");

    if let Some(path) = &cli.json {
        let doc = Json::obj([
            ("bench", Json::str("service_throughput")),
            ("clients", Json::Num(CLIENTS as f64)),
            ("bursts", Json::Num(BURSTS as f64)),
            ("latency_us", Json::Num(LATENCY.as_micros() as f64)),
            ("quick", Json::Bool(cli.quick)),
            ("violations", Json::Num(total_violations as f64)),
            ("sections", Json::Arr(sections)),
        ]);
        std::fs::write(path, doc.render()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    }

    if total_violations > 0 {
        eprintln!("FAIL: some answers violated their precision contract");
        std::process::exit(1);
    }
}
