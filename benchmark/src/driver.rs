//! The closed-loop load driver: builds the service from a generated
//! workload and runs the clients through it in epochs.
//!
//! The timed path touches the program only through `ServiceBuilder` →
//! `build_completion` → `QueryService::{query, apply_update_batch,
//! advance_clock, stats}`, with SQL strings.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use trapp_server::{QueryService, ServiceBuilder, ServiceConfig, ServiceReply, ServiceStats};
use trapp_storage::{ColumnDef, Schema, Table};
use trapp_types::{BoundedValue, ObjectId, SourceId, TrappError, Value, ValueType};

use crate::oracle::{Oracle, Verdict};
use crate::workload::{RowSpec, Workload, STREAM_LEN};

/// Closed loop: this many clients, each blocking on its reply (`nproc` = 2
/// on the reference box).
pub const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const FETCH_POOL_THREADS: usize = 2;
/// Simulated one-way wire time per refresh round trip.
pub const DEFAULT_RTT: Duration = Duration::from_micros(200);
/// Logical seconds added at every epoch boundary so every bound re-widens.
pub const CLOCK_STEP: f64 = 25.0;
/// A timed run is split into this many windows; each timing metric is the
/// median of its window values.
pub const WINDOWS: usize = 5;

fn two_column_table(name: &str, bounded: &str) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::exact("grp", ValueType::Int),
        ColumnDef::bounded_float(bounded),
    ])
    .expect("static schema");
    Table::new(name, schema)
}

fn cells(r: &RowSpec) -> Vec<BoundedValue> {
    vec![
        BoundedValue::Exact(Value::Int(r.grp)),
        BoundedValue::exact_f64(r.value).expect("generated values are finite"),
    ]
}

/// Builds the service a workload runs against.
pub fn build_service(w: &Workload, rtt: Duration) -> Result<QueryService, TrappError> {
    let mut b = ServiceBuilder::new()
        .initial_width(1.0)
        .config(ServiceConfig {
            workers: WORKERS,
            shards: w.spec.shards,
            ..ServiceConfig::default()
        })
        .partition_by("grp")
        .table(two_column_table("metrics", "load"));
    if !w.segments.is_empty() {
        b = b.table(two_column_table("segments", "weight"));
    }
    for r in &w.rows {
        b = b.row("metrics", SourceId::new(r.source), cells(r));
    }
    // Segments after every metrics row: metrics row k keeps backing
    // object k + 1, which the update stream relies on.
    for r in &w.segments {
        b = b.row("segments", SourceId::new(r.source), cells(r));
    }
    b.build_completion(rtt, FETCH_POOL_THREADS)
}

/// Hands out stream positions one epoch at a time. Clients `claim` until
/// the epoch is exhausted, meet at a barrier, and the leader opens the
/// next epoch. Every position is handed out exactly once, in order.
pub struct EpochCursor {
    next: AtomicU64,
    end: AtomicU64,
    epoch: u64,
}

impl EpochCursor {
    pub fn new(start: u64, epoch: usize) -> EpochCursor {
        EpochCursor {
            next: AtomicU64::new(start),
            end: AtomicU64::new(start + epoch as u64),
            epoch: epoch as u64,
        }
    }

    /// The next position of the open epoch, or `None` once it is exhausted.
    pub fn claim(&self) -> Option<u64> {
        let pos = self.next.fetch_add(1, Ordering::SeqCst);
        (pos < self.end.load(Ordering::SeqCst)).then_some(pos)
    }

    /// Opens the next epoch. Only between barriers, with no claim racing:
    /// it discards the overshoot exhausted claims left in `next`.
    pub fn open_next(&self) {
        let end = self.end.load(Ordering::SeqCst);
        self.next.store(end, Ordering::SeqCst);
        self.end.store(end + self.epoch, Ordering::SeqCst);
    }

    /// First position of the epoch that is open (or about to be opened).
    pub fn epoch_start(&self) -> u64 {
        self.end.load(Ordering::SeqCst) - self.epoch
    }
}

/// One workload wired to one service, with the oracle that judges it.
pub struct Harness<'a> {
    pub w: &'a Workload,
    pub oracle: &'a Oracle,
    pub service: &'a QueryService,
    /// Serializes update batches: the oracle's notion of "current master"
    /// must follow the order the service applies them in.
    update_lock: Mutex<()>,
}

/// What one `query()` call produced.
pub struct Issued {
    pub latency: Duration,
    pub reply: Result<ServiceReply, TrappError>,
    pub verdict: Verdict,
}

impl Issued {
    pub fn failed(&self) -> bool {
        self.reply.is_err() || self.verdict != Verdict::Ok
    }
}

impl<'a> Harness<'a> {
    pub fn new(w: &'a Workload, oracle: &'a Oracle, service: &'a QueryService) -> Harness<'a> {
        Harness {
            w,
            oracle,
            service,
            update_lock: Mutex::new(()),
        }
    }

    /// Applies the update batch due before `pos`, if any; returns the time
    /// the service call took (lock wait excluded).
    pub fn apply_updates(&self, pos: u64) -> Option<Result<Duration, TrappError>> {
        let batch = self.w.updates_at(pos)?;
        let _guard = self.update_lock.lock().expect("update lock");
        self.oracle.note_updates(batch);
        let updates: Vec<(ObjectId, f64)> = batch
            .iter()
            .map(|&(row, value)| (ObjectId::new(row as u64 + 1), value))
            .collect();
        let started = Instant::now();
        let result = self.service.apply_update_batch(&updates);
        Some(result.map(|_| started.elapsed()))
    }

    /// Issues the query at `pos` and checks its answer.
    pub fn query(&self, pos: u64) -> Issued {
        let (id, q) = self.w.query_at(pos);
        let started = Instant::now();
        let reply = self.service.query(q.sql.as_str());
        let latency = started.elapsed();
        let verdict = match &reply {
            Ok(reply) => self.oracle.check(id, q, reply),
            Err(_) => Verdict::Ok, // counted through `reply.is_err()`
        };
        Issued {
            latency,
            reply,
            verdict,
        }
    }

    /// The epoch boundary: every bound re-widens. Only with no query or
    /// update in flight — advancing the clock under a scatter query makes
    /// it fail to converge, which would turn failures into noise.
    pub fn end_epoch(&self) {
        self.service.advance_clock(CLOCK_STEP);
        self.oracle.reset_envelopes();
    }

    /// Write workloads only: with the writers quiet, `WITHIN 0` must
    /// reproduce the tracked masters, or cache and sources have diverged.
    pub fn exactness_probe(&self) -> bool {
        let Some(expected) = self.oracle.master_sum() else {
            return true;
        };
        self.end_epoch();
        match self.service.query("SELECT SUM(load) WITHIN 0 FROM metrics") {
            Ok(reply) => {
                let got = reply.result.answer.range.midpoint();
                let ok = reply.result.answer.is_exact()
                    && (got - expected).abs() <= 1e-6 * expected.abs().max(1.0);
                if !ok {
                    eprintln!("exactness probe: got {got}, masters sum to {expected}");
                }
                ok
            }
            Err(e) => {
                eprintln!("exactness probe failed: {e}");
                false
            }
        }
    }
}

/// When the leader, at an epoch boundary, ends a window or the phase.
pub enum Phase {
    /// One pass over the stream, no windows.
    Warmup,
    /// `WINDOWS` windows of this length; a window closes at the first
    /// epoch boundary at or after its deadline.
    Timed { window: Duration },
}

/// What one client saw in one window.
#[derive(Default)]
struct ClientWindow {
    latencies_us: Vec<f64>,
    update_us: Vec<f64>,
    refresh_cost: f64,
    rounds: u64,
    attempted: u64,
    failed: u64,
}

/// One closed window of a timed phase.
pub struct Window {
    pub wall_s: f64,
    /// Ascending.
    pub latencies_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Everything a phase measured.
pub struct PhaseResult {
    pub windows: Vec<Window>,
    pub wall_s: f64,
    /// Sum over clients of time spent at the epoch barrier (the leader's
    /// clock advance included).
    pub barrier_idle_s: f64,
    pub update_us: Vec<f64>,
    pub refresh_cost: f64,
    pub rounds: u64,
    pub attempted: u64,
    pub failed: u64,
    /// `ServiceStats` at the end minus at the start (both quiescent).
    pub stats: ServiceStats,
    /// The position the next phase starts at.
    pub next_pos: u64,
}

pub fn stats_delta(after: &ServiceStats, before: &ServiceStats) -> ServiceStats {
    ServiceStats {
        queries: after.queries - before.queries,
        errors: after.errors - before.errors,
        scatter_queries: after.scatter_queries - before.scatter_queries,
        refreshes_coalesced: after.refreshes_coalesced - before.refreshes_coalesced,
        refreshes_forwarded: after.refreshes_forwarded - before.refreshes_forwarded,
        round_trips: after.round_trips - before.round_trips,
        queue_wait_us: after.queue_wait_us - before.queue_wait_us,
        plan_us: after.plan_us - before.plan_us,
        fetch_us: after.fetch_us - before.fetch_us,
        install_us: after.install_us - before.install_us,
        ..*after
    }
}

/// Runs `CLIENTS` clients from `start_pos` until the phase ends.
pub fn run_phase(h: &Harness<'_>, start_pos: u64, phase: Phase) -> PhaseResult {
    let cursor = EpochCursor::new(start_pos, h.w.spec.epoch);
    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let window_idx = AtomicUsize::new(0);
    // Wall-clock end of each closed window, written by the leader.
    let window_ends: Mutex<Vec<Duration>> = Mutex::new(Vec::new());
    let stats_before = h.service.stats();
    let started = Instant::now();

    let per_client: Vec<(Vec<ClientWindow>, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut windows: Vec<ClientWindow> = vec![ClientWindow::default()];
                    let mut idle = Duration::ZERO;
                    loop {
                        let cw = windows.last_mut().expect("one window open");
                        while let Some(pos) = cursor.claim() {
                            match h.apply_updates(pos) {
                                Some(Ok(took)) => cw.update_us.push(took.as_secs_f64() * 1e6),
                                Some(Err(e)) => {
                                    eprintln!("update batch at {pos} failed: {e}");
                                    cw.failed += 1;
                                    cw.attempted += 1;
                                }
                                None => {}
                            }
                            let issued = h.query(pos);
                            cw.attempted += 1;
                            cw.latencies_us.push(issued.latency.as_secs_f64() * 1e6);
                            if issued.failed() {
                                cw.failed += 1;
                                report_failure(h, pos, &issued);
                            }
                            if let Ok(reply) = &issued.reply {
                                cw.refresh_cost += reply.result.refresh_cost;
                                cw.rounds += reply.result.rounds as u64;
                            }
                        }
                        let arrived = Instant::now();
                        if barrier.wait().is_leader() {
                            let elapsed = started.elapsed();
                            let closed = window_ends.lock().expect("window lock").len();
                            let close = match phase {
                                Phase::Warmup => {
                                    cursor.epoch_start() + h.w.spec.epoch as u64
                                        >= start_pos + STREAM_LEN as u64
                                }
                                Phase::Timed { window } => elapsed >= window * (closed as u32 + 1),
                            };
                            if close {
                                window_ends.lock().expect("window lock").push(elapsed);
                                window_idx.fetch_add(1, Ordering::SeqCst);
                                let last = match phase {
                                    Phase::Warmup => true,
                                    Phase::Timed { .. } => closed + 1 == WINDOWS,
                                };
                                stop.store(last, Ordering::SeqCst);
                            }
                            h.end_epoch();
                            cursor.open_next();
                        }
                        barrier.wait();
                        idle += arrived.elapsed();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let open = window_idx.load(Ordering::SeqCst);
                        windows.resize_with(open + 1, ClientWindow::default);
                    }
                    (windows, idle)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });

    let wall_s = started.elapsed().as_secs_f64();
    let stats = stats_delta(&h.service.stats(), &stats_before);
    let ends = window_ends.into_inner().expect("window lock");
    let mut result = PhaseResult {
        windows: Vec::with_capacity(ends.len()),
        wall_s,
        barrier_idle_s: per_client.iter().map(|(_, idle)| idle.as_secs_f64()).sum(),
        update_us: Vec::new(),
        refresh_cost: 0.0,
        rounds: 0,
        attempted: 0,
        failed: 0,
        stats,
        next_pos: cursor.epoch_start(),
    };
    let mut previous_end = Duration::ZERO;
    for (i, &end) in ends.iter().enumerate() {
        let mut window = Window {
            wall_s: (end - previous_end).as_secs_f64(),
            latencies_us: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        previous_end = end;
        for (windows, _) in &per_client {
            let Some(cw) = windows.get(i) else { continue };
            window.latencies_us.extend_from_slice(&cw.latencies_us);
            window.attempted += cw.attempted;
            window.failed += cw.failed;
            result.update_us.extend_from_slice(&cw.update_us);
            result.refresh_cost += cw.refresh_cost;
            result.rounds += cw.rounds;
        }
        crate::stats::sorted(&mut window.latencies_us);
        result.attempted += window.attempted;
        result.failed += window.failed;
        result.windows.push(window);
    }
    result
}

/// The first few failures are worth a line each; a wrong oracle or a broken
/// build would otherwise print one per query.
fn report_failure(h: &Harness<'_>, pos: u64, issued: &Issued) {
    static REPORTED: AtomicUsize = AtomicUsize::new(0);
    if REPORTED.fetch_add(1, Ordering::Relaxed) >= 5 {
        return;
    }
    let (id, q) = h.w.query_at(pos);
    match &issued.reply {
        Err(e) => eprintln!("position {pos}: {} failed: {e}", q.sql),
        Ok(reply) => eprintln!(
            "position {pos}: {}: {:?}, answer {}, truth {:?}",
            q.sql,
            issued.verdict,
            reply.result.answer,
            h.oracle.truth(id)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The cursor under real contention: every position of every epoch is
    /// handed out exactly once, and none before its epoch opens.
    #[test]
    fn cursor_never_skips_or_repeats_a_position() {
        const EPOCH: usize = 16;
        const EPOCHS: u64 = 200;
        let cursor = EpochCursor::new(100, EPOCH);
        let barrier = Barrier::new(3);
        let seen: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        for epoch in 0..EPOCHS {
                            while let Some(pos) = cursor.claim() {
                                let lo = 100 + epoch * EPOCH as u64;
                                assert!((lo..lo + EPOCH as u64).contains(&pos));
                                mine.push(pos);
                            }
                            if barrier.wait().is_leader() {
                                cursor.open_next();
                            }
                            barrier.wait();
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total: usize = seen.iter().map(Vec::len).sum();
        let distinct: BTreeSet<u64> = seen.into_iter().flatten().collect();
        assert_eq!(total, EPOCH * EPOCHS as usize, "a position was repeated");
        assert_eq!(distinct.len(), total);
        assert_eq!(distinct.first(), Some(&100));
        assert_eq!(distinct.last(), Some(&(100 + EPOCH as u64 * EPOCHS - 1)));
        assert_eq!(cursor.epoch_start(), 100 + EPOCH as u64 * EPOCHS);
    }
}
