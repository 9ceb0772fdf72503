//! The query service: a concurrent multi-client front-end over one or
//! more TRAPP cache shards.
//!
//! Clients [`submit`](QueryService::submit) TRAPP/AG SQL with precision
//! constraints from any thread; a pool of worker threads drains the shared
//! job queue. The service hash-partitions the group key space over
//! [`ServiceConfig::shards`] independent [`CacheNode`]s (see
//! [`crate::ShardRouter`]) and executes each query on the
//! narrowest footprint that can answer it:
//!
//! * **single-shard** — a query whose predicate pins the partition column
//!   to one group runs entirely on that group's shard: plan under that
//!   shard's lock, fetch through that shard's gateway, install + answer
//!   under the lock again. Queries for different groups proceed in
//!   parallel with *no shared lock at all* — the scaling mechanism.
//! * **scatter-gather** — a query whose group set spans shards gathers
//!   every shard's [`trapp_core::query_plan::QueryPartial`] under *all*
//!   shard locks at once (a consistent snapshot), merges them into exactly
//!   the input one big cache would hold ([`trapp_core::merge`]: scalar
//!   inputs, per-group inputs by key, or each join side's base rows), and
//!   plans *globally* over it, so the sharded answer is bit-equivalent to
//!   the single-cache answer. The plan splits back per shard, and every
//!   shard's slice is fetched concurrently.
//!
//! If one shard of a scatter fails mid-fetch, the query returns
//! [`TrappError::PartialResult`], not a bound that silently ignores the
//! missing shard.
//!
//! Within each shard two traffic reducers apply: **batched source
//! round-trips** (one [`Transport::submit_refresh_batch`] per source per
//! plan) and **refresh coalescing** (a per-shard single-flight
//! [`RefreshGateway`](crate::RefreshGateway); keying the in-flight table
//! per shard is free because objects never span shards).
//!
//! Every query, of every shape and route, runs one loop of four phases,
//! so source round-trips run *outside* every cache lock: **plan** (shard
//! lock: bring the rows the plan reads current, see
//! [`CacheNode::materialize_for`], and lower the query into a
//! [`trapp_core::query_plan::QueryPlan`]), **fetch** (no lock: every
//! shard's slice submitted before any is awaited), **install** (shard
//! lock: everything that arrived — even from a shard that failed, whose
//! sources already narrowed their tracked bounds), then plan again or
//! **answer**. Deadline widening and source failures are transitions
//! between phases, decided by the query's `DEADLINE` and the
//! [`DegradationPolicy`].

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use trapp_bounds::BoundShape;
use trapp_core::executor::QueryResult;
use trapp_core::group_by::GroupResult;
use trapp_core::BoundedAnswer;
use trapp_storage::{IndexKey, Table};
use trapp_system::{
    CacheNode, ChaosConfig, ChaosControl, ChaosTransport, CompletionTransport, CostModel,
    DirectTransport, FetchPool, SimClock, Source, Transport,
};
use trapp_types::{
    shard_of, BoundedValue, CacheId, Interval, ObjectId, SourceId, TrappError, TupleId, Value,
};

use crate::admission::{Admission, AdmissionConfig, AdmissionController};
use crate::gateway::{RetryPolicy, DEFAULT_AWAIT_TIMEOUT};
use crate::health::HealthConfig;
use crate::router::{Shard, ShardRouter, TidMap};

mod query_loop;

use query_loop::LockTime;

/// Service tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the query queue.
    pub workers: usize,
    /// Number of cache shards the group key space is hash-partitioned
    /// over. `1` reproduces the single-cache service exactly.
    pub shards: usize,
    /// What to do when a query's precision constraint cannot be met
    /// because sources are down. See [`DegradationPolicy`].
    pub degradation: DegradationPolicy,
    /// Per-round-trip deadline / retry / backoff policy applied by every
    /// shard's gateway.
    pub retry: RetryPolicy,
    /// How long a query waits for another query's in-flight fetch of the
    /// same object before reporting a typed timeout.
    pub gateway_await_timeout: Duration,
    /// Per-source circuit-breaker tuning.
    pub health: HealthConfig,
    /// Admission-control watermarks — the widen/shed ladder applied at
    /// [`QueryService::submit`] before a query reaches the worker queue.
    /// Defaults to fully off. See [`AdmissionConfig`].
    pub admission: AdmissionConfig,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            shards: 1,
            degradation: DegradationPolicy::default(),
            retry: RetryPolicy::default(),
            gateway_await_timeout: DEFAULT_AWAIT_TIMEOUT,
            health: HealthConfig::default(),
            admission: AdmissionConfig::default(),
        }
    }
}

/// What the service answers when sources are unreachable and the
/// precision constraint cannot be guaranteed over the tuples that remain
/// refreshable.
///
/// Either way, cached bounds stay *correct* — TRAPP bounds contain the
/// true value at any staleness — so the choice is only about how the
/// unmet constraint surfaces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradationPolicy {
    /// Refuse: return a structured [`TrappError::PartialResult`] naming
    /// the failed shards and sources. No wrong answer can ever be
    /// returned, at the price of availability.
    #[default]
    Strict,
    /// Degrade: refresh every available tuple that helps, then return the
    /// best achievable bound as a *successful* reply with
    /// [`ServiceReply::degraded`] describing the gap. The returned bound
    /// still contains the exact answer; it is merely wider than asked.
    BestEffort,
}

/// How a reply fell short of its constraint — because sources were dark
/// ([`DegradationPolicy::BestEffort`]), or because the service traded
/// precision for time (a `DEADLINE` the full-precision plan could not
/// meet, or admission-control widening under queue pressure).
#[derive(Clone, Debug, PartialEq)]
pub struct DegradedInfo {
    /// The sources that were unreachable while this query planned
    /// (breaker-open ones plus those that failed mid-query), ascending.
    /// Empty when the degradation was purely load-driven.
    pub dark_sources: Vec<SourceId>,
    /// The query's original `WITHIN` constraint, before any widening.
    pub requested_width: Option<f64>,
    /// The width actually achieved (max over groups for `GROUP BY`).
    pub achieved_width: f64,
    /// `true` when the constraint was deliberately relaxed for load
    /// reasons — a deadline the full-precision plan could not fit, or
    /// admission-control widening — rather than (only) dark sources.
    pub load_shed: bool,
}

/// One query's answer plus its per-query service accounting.
#[derive(Clone, Debug)]
pub struct ServiceReply {
    /// The executor's result (bounded answer, refresh plan, cost). For
    /// scatter-gathered queries, `refreshed` is reported in the global
    /// tuple-id space. For `GROUP BY` queries this is the *roll-up* of
    /// [`ServiceReply::groups`]: `answer` / `initial_answer` are the hulls
    /// of the group ranges, `refreshed` and `refresh_cost` are totals,
    /// `rounds` the per-group maximum, and `satisfied` requires every
    /// group to be satisfied.
    pub result: QueryResult,
    /// Per-group results for `GROUP BY` queries in deterministic
    /// key-sorted order — the authoritative grouped answer. Empty for
    /// scalar and join queries.
    pub groups: Vec<GroupResult>,
    /// Refreshes this query obtained from a shared in-flight table
    /// instead of a source — work another query already paid for.
    pub refreshes_saved: u64,
    /// Transport round-trips this query actually issued (all shards).
    pub round_trips: u64,
    /// Time spent executing (excludes queue wait).
    pub exec_time: Duration,
    /// `Some` when this is a best-effort degraded answer: the precision
    /// constraint could not be guaranteed because sources were dark, and
    /// the bound returned is the best achievable over available tuples
    /// (still guaranteed to contain the exact answer). `None` for fully
    /// satisfied answers and under [`DegradationPolicy::Strict`] (which
    /// errors instead).
    pub degraded: Option<DegradedInfo>,
}

/// Rolls per-group results up into one [`QueryResult`]; see
/// [`ServiceReply::result`].
fn rollup(groups: &[GroupResult]) -> QueryResult {
    let hull = |range_of: &dyn Fn(&GroupResult) -> Interval| {
        groups
            .iter()
            .fold(None::<(f64, f64)>, |acc, g| {
                let iv = range_of(g);
                Some(match acc {
                    None => (iv.lo(), iv.hi()),
                    Some((lo, hi)) => (lo.min(iv.lo()), hi.max(iv.hi())),
                })
            })
            .map(|(lo, hi)| Interval::new_unchecked(lo, hi))
            // Zero groups (empty table): a degenerate point hull.
            .unwrap_or_else(|| Interval::new_unchecked(0.0, 0.0))
    };
    QueryResult {
        answer: BoundedAnswer::new(hull(&|g| g.result.answer.range)),
        initial_answer: BoundedAnswer::new(hull(&|g| g.result.initial_answer.range)),
        refreshed: groups
            .iter()
            .flat_map(|g| g.result.refreshed.iter().cloned())
            .collect(),
        refresh_cost: groups.iter().map(|g| g.result.refresh_cost).sum(),
        rounds: groups.iter().map(|g| g.result.rounds).max().unwrap_or(0),
        satisfied: groups.iter().all(|g| g.result.satisfied),
    }
}

/// Aggregate service counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries answered successfully.
    pub queries: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Queries answered by cross-shard scatter-gather.
    pub scatter_queries: u64,
    /// Refreshes served from in-flight tables across all queries/shards.
    pub refreshes_coalesced: u64,
    /// Refreshes forwarded to sources.
    pub refreshes_forwarded: u64,
    /// Transport round-trips issued.
    pub round_trips: u64,
    /// Queries answered best-effort with an unmet precision constraint.
    pub degraded_queries: u64,
    /// Queries whose constraint was widened (or dropped) mid-flight to
    /// honor a `DEADLINE`.
    pub deadline_widened: u64,
    /// Queries admitted with an admission-control-widened constraint.
    pub admission_widened: u64,
    /// Queries shed at the front door with [`TrappError::Overloaded`].
    pub admission_rejected: u64,
    /// Live queue depth at the moment of the snapshot (submitted, not yet
    /// picked up by a worker).
    pub queue_depth: u64,
    /// The shared fetch pool's *actual* current thread count (reflects
    /// burst resizing); `0` when the service has no resizable pool.
    pub fetch_pool_threads: u64,
    /// Total time queries spent waiting for a worker, µs.
    pub queue_wait_us: u64,
    /// Total time spent in plan phases (under shard locks), µs.
    pub plan_us: u64,
    /// Total time spent in fetch phases (no locks, source round-trips), µs.
    pub fetch_us: u64,
    /// Total time spent installing fetched refreshes, µs.
    pub install_us: u64,
    /// Total time queries waited to take a shard lock, µs: summed over
    /// every shard-lock section a query takes (plan, scatter gather,
    /// object resolution, install, dark-source scans), each lock of a
    /// scatter gather counted.
    pub shard_lock_wait_us: u64,
    /// Total time queries held shard locks, µs, over the same sections
    /// as [`ServiceStats::shard_lock_wait_us`]: what one query's lock
    /// sections cost every other query on the shard.
    pub shard_lock_hold_us: u64,
    /// Rows the shards' band views have examined (built or replayed) —
    /// planning work in rows, which selective queries keep proportional
    /// to their candidate sets.
    pub view_tuples_classified: u64,
    /// Items the shards' band views have written into a canonical vector
    /// or a group partition (repairs and rebuilds) — planning work in
    /// items, which a grouped view keeps proportional to the groups a
    /// change lands in.
    pub view_items_repartitioned: u64,
}

struct Job {
    sql: String,
    /// When [`QueryService::submit`] accepted the query — queue wait and
    /// any `DEADLINE` both count from here, so time spent waiting for a
    /// worker is charged against the deadline like any other latency.
    enqueued: Instant,
    /// Admission control asked for this query's constraint to be widened.
    widen: bool,
    reply: Sender<Result<ServiceReply, TrappError>>,
}

struct ServiceCore {
    router: ShardRouter,
    clock: SimClock,
    degradation: DegradationPolicy,
    /// The counters, and the shard-lock wait and hold summed over every
    /// query so far — kept at full precision, reported in µs by
    /// [`QueryService::stats`].
    counters: Mutex<(ServiceStats, LockTime)>,
    admission: Arc<AdmissionController>,
    /// EWMA of observed fetch-phase cost rate, µs of wall time per unit
    /// of planned refresh cost — the deadline guard's estimator for "can
    /// this plan's fetch fit the remaining budget?". `0.0` until the
    /// first fetch is observed (optimistic cold start: the first fetch
    /// always runs, and its measurement seeds the estimate).
    fetch_rate: Mutex<f64>,
}

/// A pending answer; see [`QueryService::submit`].
pub struct QueryTicket {
    rx: Receiver<Result<ServiceReply, TrappError>>,
}

impl QueryTicket {
    /// Blocks until the answer is ready.
    pub fn wait(self) -> Result<ServiceReply, TrappError> {
        self.rx
            .recv()
            .map_err(|_| TrappError::Internal("query service shut down mid-query".into()))?
    }
}

/// A running query service. See the module docs.
pub struct QueryService {
    core: Arc<ServiceCore>,
    jobs: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// Live handle over the chaos layer, when the service was built with
    /// [`ServiceBuilder::chaos`].
    chaos: Option<Arc<ChaosControl>>,
}

impl QueryService {
    /// Starts workers over an assembled router. `pool` is the shared
    /// resizable fetch pool plus its build-time base size, when the
    /// service was built over a completion transport — the admission
    /// controller resizes it live under queue pressure.
    fn start_router(
        router: ShardRouter,
        clock: SimClock,
        config: ServiceConfig,
        chaos: Option<Arc<ChaosControl>>,
        pool: Option<(FetchPool, usize)>,
    ) -> QueryService {
        let admission = Arc::new(AdmissionController::new(config.admission));
        if let Some((pool, base)) = pool {
            admission.attach_pool(pool, base);
        }
        let core = Arc::new(ServiceCore {
            router,
            clock,
            degradation: config.degradation,
            counters: Mutex::new(Default::default()),
            admission,
            fetch_rate: Mutex::new(0.0),
        });
        let (jobs_tx, jobs_rx) = unbounded::<Job>();
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let core = core.clone();
                let rx = jobs_rx.clone();
                std::thread::Builder::new()
                    .name(format!("trapp-query-worker-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            core.admission.dequeued();
                            let _ = job.reply.send(core.run_query(&job));
                        }
                    })
                    .expect("spawn query worker")
            })
            .collect();
        QueryService {
            core,
            jobs: Some(jobs_tx),
            workers,
            chaos,
        }
    }

    /// The chaos-layer control handle, when this service was built with
    /// [`ServiceBuilder::chaos`] — scripts outages (`force_down` /
    /// `restore`) and reads injection counters mid-run.
    pub fn chaos_control(&self) -> Option<&Arc<ChaosControl>> {
        self.chaos.as_ref()
    }

    /// Enqueues a query; the returned ticket resolves to the answer.
    ///
    /// This is also the admission-control choke point: above the
    /// configured reject watermark the ticket resolves immediately to a
    /// typed [`TrappError::Overloaded`] without the query ever touching
    /// the worker queue, and between the widen and reject watermarks the
    /// query runs with a relaxed precision constraint (the reply's
    /// [`ServiceReply::degraded`] names the original ask).
    pub fn submit(&self, sql: impl Into<String>) -> QueryTicket {
        let (reply, rx) = unbounded();
        if let Some(jobs) = &self.jobs {
            match self.core.admission.admit() {
                Err(e) => {
                    self.core.counters.lock().0.errors += 1;
                    let _ = reply.send(Err(e));
                }
                Ok(verdict) => {
                    let job = Job {
                        sql: sql.into(),
                        enqueued: Instant::now(),
                        widen: verdict == Admission::Widened,
                        reply,
                    };
                    // A send only fails after shutdown; the ticket then
                    // reports it.
                    let _ = jobs.send(job);
                }
            }
        }
        QueryTicket { rx }
    }

    /// Convenience: submit and wait.
    pub fn query(&self, sql: impl Into<String>) -> Result<ServiceReply, TrappError> {
        self.submit(sql).wait()
    }

    /// Applies an update to a replicated object's master value, delivering
    /// any value-initiated refreshes to the owning shard's cache. Returns
    /// how many were delivered.
    pub fn apply_update(&self, object: ObjectId, value: f64) -> Result<usize, TrappError> {
        self.apply_update_batch(&[(object, value)])
    }

    /// Applies a whole batch of master-value updates, paying one
    /// completion per `(shard, source)` batch instead of one blocking
    /// round-trip per write: updates are grouped by the owning shard and
    /// source (submission order preserved within each source), every
    /// batch is submitted through the gateways' nonblocking
    /// [`Transport::submit_update_batch`] before any is waited on, and
    /// the triggered value-initiated refreshes install on their owning
    /// shards. Returns how many refreshes were delivered; on a failed
    /// batch the surviving batches' refreshes are still installed before
    /// the first error is reported.
    pub fn apply_update_batch(&self, updates: &[(ObjectId, f64)]) -> Result<usize, TrappError> {
        let now = self.core.clock.now();
        // Group by owning shard first, then resolve each shard's sources
        // under one short lock per shard.
        let mut shard_updates: BTreeMap<usize, Vec<(ObjectId, f64)>> = BTreeMap::new();
        for &(object, value) in updates {
            let idx =
                self.core.router.object_shard(object).ok_or_else(|| {
                    TrappError::RefreshFailed(format!("{object} is not replicated"))
                })?;
            shard_updates.entry(idx).or_default().push((object, value));
        }
        let mut per_shard: BTreeMap<usize, BTreeMap<SourceId, Vec<(ObjectId, f64)>>> =
            BTreeMap::new();
        for (idx, batch) in shard_updates {
            let cache = self.core.router.shard(idx).cache.lock();
            let per_source = per_shard.entry(idx).or_default();
            for (object, value) in batch {
                let source = cache.route(object).map(|r| r.source).ok_or_else(|| {
                    TrappError::RefreshFailed(format!("{object} is not replicated"))
                })?;
                per_source.entry(source).or_default().push((object, value));
            }
        }
        // Submit every per-source batch before waiting on any (the
        // gateways invalidate their memoized entries at submit time).
        let pending: Vec<(usize, _)> = per_shard
            .into_iter()
            .flat_map(|(idx, per_source)| {
                let shard = self.core.router.shard(idx);
                per_source
                    .into_iter()
                    .map(move |(source, batch)| {
                        (idx, shard.gateway.submit_update_batch(source, batch, now))
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        // Drain every completion even after a failure: the sources behind
        // the other batches already applied their writes and narrowed
        // their tracked bounds — their refreshes must install or cache
        // and Refresh Monitor diverge.
        let mut delivered = 0usize;
        let mut failure: Option<TrappError> = None;
        for (idx, completion) in pending {
            match completion.wait() {
                Ok(refreshes) => {
                    let mut cache = self.core.router.shard(idx).cache.lock();
                    let id = cache.id();
                    delivered += refreshes.len();
                    let installed =
                        cache.install_refreshes(refreshes.into_iter().map(|(to, r)| {
                            debug_assert_eq!(to, id);
                            r
                        }));
                    if let Err(e) = installed {
                        failure.get_or_insert(e);
                    }
                }
                Err(e) => {
                    failure.get_or_insert(e);
                }
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(delivered),
        }
    }

    /// Advances the shared clock (bounds widen as time passes).
    pub fn advance_clock(&self, dt: f64) {
        self.core.clock.advance(dt);
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.core.clock
    }

    /// Number of cache shards.
    pub fn shard_count(&self) -> usize {
        self.core.router.shard_count()
    }

    /// Runs `f` against one shard's cache; serialized with query execution
    /// on that shard.
    pub fn with_shard_cache<R>(&self, shard: usize, f: impl FnOnce(&mut CacheNode) -> R) -> R {
        f(&mut self.core.router.shard(shard).cache.lock())
    }

    /// The union of every shard's currently-dark (breaker-open) sources.
    /// Empty on a healthy service; polled by benches and tests to watch
    /// breakers open and recover.
    pub fn dark_sources(&self) -> HashSet<SourceId> {
        let mut dark = HashSet::new();
        for shard in self.core.router.shards() {
            dark.extend(shard.health.dark_sources());
        }
        dark
    }

    /// A consistent snapshot of the aggregate counters.
    pub fn stats(&self) -> ServiceStats {
        let (mut s, locks) = *self.core.counters.lock();
        s.shard_lock_wait_us = locks.wait.as_micros() as u64;
        s.shard_lock_hold_us = locks.hold.as_micros() as u64;
        for shard in self.core.router.shards() {
            s.refreshes_coalesced += shard.gateway.refreshes_coalesced();
            s.refreshes_forwarded += shard.gateway.refreshes_forwarded();
            s.view_tuples_classified += shard.view_tuples_classified.load(Ordering::Relaxed);
            s.view_items_repartitioned += shard.view_items_repartitioned.load(Ordering::Relaxed);
        }
        s.queue_depth = self.core.admission.depth();
        s.fetch_pool_threads = self.core.admission.pool_threads().unwrap_or(0) as u64;
        s.admission_widened = self.core.admission.widened();
        s.admission_rejected = self.core.admission.rejected();
        s
    }

    /// Stops accepting work and joins every worker.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.jobs = None; // closes the queue; workers drain and exit
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// The adaptive default size of the shared fetch pool (the
/// [`ServiceBuilder::build_completion`] `None` case): enough demux
/// threads to keep every shard's fetch slice moving — up to two per
/// shard, matching the plan/install double pass — but never more than
/// the hardware offers, and at least two so one slow source cannot
/// stall an unrelated completion.
pub fn default_fetch_pool_size(shards: usize) -> usize {
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    (2 * shards.max(1)).min(hardware).max(2)
}

/// Registers the two **churn-free** indexes on every cached table — the
/// ones a bound re-materialization never has to move:
///
/// * the refresh-cost index (keys the §6.3 COUNT probe; costs are
///   write-once per tuple);
/// * a value index on the declared partition column, where the table has
///   it as an exact numeric column (`IndexKey::Lo` — an exact cell is a
///   point interval). Band views over `partition_col = k` build from its
///   `k` entry instead of scanning the table.
///
/// The §5.1/§5.2 endpoint/width indexes on *bounded* columns are
/// deliberately not registered: every bound cell moves with the clock
/// and is rewritten once per advance by the first scan-shaped query, so
/// their maintenance (six B-tree moves per cell per advance)
/// costs more than the unfiltered queries they accelerate — embedders
/// with slow-moving bounds can opt in via `Table::create_default_indexes`.
fn register_churn_free_indexes(
    cache: &mut CacheNode,
    partition_column: Option<&str>,
) -> Result<(), TrappError> {
    let names: Vec<String> = cache
        .session()
        .catalog()
        .table_names()
        .map(str::to_owned)
        .collect();
    for name in names {
        let table = cache.session_mut().catalog_mut().table_mut(&name)?;
        table.create_index(IndexKey::Cost)?;
        let schema = table.schema();
        let value_indexed = partition_column
            .and_then(|col| schema.column_index(col).ok())
            .filter(|&c| {
                schema
                    .column_at(c)
                    .is_ok_and(|d| !d.bounded && d.ty.is_numeric())
            });
        if let Some(column) = value_indexed {
            table.create_index(IndexKey::Lo { column })?;
        }
    }
    Ok(())
}

/// Everything `wire` produces for one shard, before the transport choice.
struct WiredShard {
    cache: CacheNode,
    sources: Vec<Source>,
    to_global: TidMap<TupleId>,
}

/// Declarative service setup: tables, then rows bound to sources, then
/// [`build_direct`](ServiceBuilder::build_direct) or
/// [`build_completion`](ServiceBuilder::build_completion).
///
/// With `config.shards = 1` (the default) this mirrors
/// [`trapp_system::Simulation`]'s wiring exactly (same object-id
/// assignment order, same subscription flow, same cost model), so a
/// service and a simulation built from the same specs hold identical
/// initial state — the property the correctness tests lean on.
///
/// With more shards, rows are placed by hashing the
/// [`partition_by`](ServiceBuilder::partition_by) column's exact integer
/// value ([`trapp_types::shard_of`]); rows without such a cell spread by
/// global tuple id. Global tuple ids and object ids are assigned in the
/// same order as the single-shard build, so the *union* of the shards is
/// cell-for-cell the single-shard service — which is what makes sharded
/// answers comparable (indeed bit-equal) across shard counts.
pub struct ServiceBuilder {
    shape: BoundShape,
    initial_width: f64,
    cost_model: CostModel,
    config: ServiceConfig,
    partition_by: Option<String>,
    tables: Vec<Table>,
    rows: Vec<(String, SourceId, Vec<BoundedValue>)>,
    chaos: Option<ChaosConfig>,
}

impl Default for ServiceBuilder {
    fn default() -> ServiceBuilder {
        ServiceBuilder {
            shape: BoundShape::Sqrt,
            initial_width: 1.0,
            cost_model: CostModel::unit(),
            config: ServiceConfig::default(),
            partition_by: None,
            tables: Vec::new(),
            rows: Vec::new(),
            chaos: None,
        }
    }
}

impl ServiceBuilder {
    /// Starts a builder with √t bounds, width 1, unit costs.
    pub fn new() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// Sets the bound shape issued by all sources.
    pub fn shape(mut self, shape: BoundShape) -> Self {
        self.shape = shape;
        self
    }

    /// Sets the initial adaptive width parameter.
    pub fn initial_width(mut self, w: f64) -> Self {
        self.initial_width = w;
        self
    }

    /// Sets the refresh cost model.
    pub fn cost_model(mut self, m: CostModel) -> Self {
        self.cost_model = m;
        self
    }

    /// Sets the service configuration.
    pub fn config(mut self, config: ServiceConfig) -> Self {
        self.config = config;
        self
    }

    /// Wraps every shard's transport in a deterministic fault-injecting
    /// [`ChaosTransport`] with this configuration. All shards share one
    /// [`ChaosControl`] (a single global operation counter, so outage
    /// windows script against service-wide operation order), reachable
    /// after build via [`QueryService::chaos_control`].
    pub fn chaos(mut self, cfg: ChaosConfig) -> Self {
        self.chaos = Some(cfg);
        self
    }

    /// Names the partition column: rows are placed on shards by the hash
    /// of this column's exact integer value, and queries pinning it to one
    /// group route to a single shard. Without it, a multi-shard service
    /// spreads rows by tuple id and answers every query by scatter-gather.
    pub fn partition_by(mut self, column: impl Into<String>) -> Self {
        self.partition_by = Some(column.into());
        self
    }

    /// Adds a cached table (rows via [`ServiceBuilder::row`]).
    pub fn table(mut self, table: Table) -> Self {
        self.tables.push(table);
        self
    }

    /// Adds a row whose bounded cells hold initial master values owned by
    /// `source` (exact values for exact columns, exact floats as initial
    /// master values for bounded columns).
    pub fn row(
        mut self,
        table: impl Into<String>,
        source: SourceId,
        cells: Vec<BoundedValue>,
    ) -> Self {
        self.rows.push((table.into(), source, cells));
        self
    }

    /// Builds over the synchronous [`DirectTransport`] (one per shard).
    pub fn build_direct(self) -> Result<QueryService, TrappError> {
        self.build_with(
            |sources| {
                let mut transport = DirectTransport::new();
                for source in sources {
                    transport.add_source(source);
                }
                Box::new(transport) as Box<dyn Transport>
            },
            None,
        )
    }

    /// Builds over the completion-based [`CompletionTransport`]: one
    /// **service-wide** [`FetchPool`] of `pool_threads` demux threads
    /// multiplexes every shard's sources, so total transport threads are
    /// `O(pool_threads)` — independent of the source × shard count.
    /// `latency` is the simulated one-way
    /// wire time per refresh round-trip (held on a timer, not a sleeping
    /// thread).
    ///
    /// `pool_threads` accepts a plain count (the explicit override) or
    /// `None`, which sizes the pool adaptively from the machine and the
    /// topology — see [`default_fetch_pool_size`].
    pub fn build_completion(
        self,
        latency: Duration,
        pool_threads: impl Into<Option<usize>>,
    ) -> Result<QueryService, TrappError> {
        // Sized here, from the *final* config — `build_*` is always the
        // last builder call, so `self.config.shards` is what the service
        // will actually run with.
        let pool_threads = pool_threads
            .into()
            .unwrap_or_else(|| default_fetch_pool_size(self.config.shards));
        let pool = FetchPool::new(pool_threads);
        let pool_handle = pool.clone();
        self.build_with(
            move |sources| {
                let mut transport = CompletionTransport::new(latency, pool.clone());
                for source in sources {
                    transport.add_source(source);
                }
                Box::new(transport) as Box<dyn Transport>
            },
            Some((pool_handle, pool_threads)),
        )
    }

    /// Shared build: wire the shards, wrap each one's sources in a
    /// transport, assemble the router, start the workers. `pool` hands
    /// the resizable fetch pool (plus its base size) to the admission
    /// controller for live burst resizing.
    fn build_with(
        self,
        mut make_transport: impl FnMut(Vec<Source>) -> Box<dyn Transport>,
        pool: Option<(FetchPool, usize)>,
    ) -> Result<QueryService, TrappError> {
        let config = self.config;
        let partition_column = self.partition_by.clone();
        let chaos_cfg = self.chaos.clone();
        // One control across all shards: a single global op counter, so
        // scripted outage windows span the whole service's operation
        // order rather than restarting per shard.
        let chaos_control = chaos_cfg.as_ref().map(|_| Arc::new(ChaosControl::new()));
        let (clock, wired, group_placed, from_global) = self.wire()?;
        let mut shards = Vec::with_capacity(wired.len());
        for w in wired {
            let mut cache = w.cache;
            register_churn_free_indexes(&mut cache, partition_column.as_deref())?;
            let mut transport = make_transport(w.sources);
            if let (Some(cfg), Some(control)) = (&chaos_cfg, &chaos_control) {
                transport = Box::new(ChaosTransport::new(transport, cfg.clone(), control.clone()));
            }
            shards.push(Shard::new(
                cache,
                transport,
                w.to_global,
                config.gateway_await_timeout,
                config.retry,
                config.health,
            ));
        }
        let router = ShardRouter::new(shards, partition_column, group_placed, from_global);
        Ok(QueryService::start_router(
            router,
            clock,
            config,
            chaos_control,
            pool,
        ))
    }

    /// The shard a row lands on: hash of the partition cell's exact
    /// integer value when available, hash of the global tuple id
    /// otherwise. Returns the shard plus whether the row was group-placed.
    fn place(
        partition_by: Option<&str>,
        table: &Table,
        cells: &[BoundedValue],
        global_tid: TupleId,
        shards: usize,
    ) -> (usize, bool) {
        if let Some(col) = partition_by {
            if let Ok(idx) = table.schema().column_index(col) {
                if let Some(BoundedValue::Exact(Value::Int(g))) = cells.get(idx) {
                    return (shard_of(*g as u64, shards), true);
                }
            }
        }
        (shard_of(global_tid.raw(), shards), false)
    }

    /// Shared wiring: registers objects, subscribes each shard's cache,
    /// prices tuples — transport-agnostic because subscription happens
    /// before the sources move behind a transport.
    #[allow(clippy::type_complexity)]
    fn wire(
        self,
    ) -> Result<
        (
            SimClock,
            Vec<WiredShard>,
            HashSet<String>,
            TidMap<(usize, TupleId)>,
        ),
        TrappError,
    > {
        self.cost_model.validate()?;
        let shards = self.config.shards.max(1);
        let clock = SimClock::new();
        let now = clock.now();

        let mut wired: Vec<WiredShard> = (0..shards)
            .map(|i| {
                Ok(WiredShard {
                    cache: {
                        let mut cache = CacheNode::new(CacheId::new(i as u64 + 1), clock.clone());
                        for table in &self.tables {
                            cache.add_table(table.clone())?;
                        }
                        cache
                    },
                    sources: Vec::new(),
                    to_global: HashMap::new(),
                })
            })
            .collect::<Result<_, TrappError>>()?;

        // Tables start fully group-placed; any row that falls back to
        // tuple-id placement revokes single-shard routing for its table.
        let mut group_placed: HashSet<String> =
            self.tables.iter().map(|t| t.name().to_owned()).collect();
        let mut from_global: TidMap<(usize, TupleId)> = HashMap::new();

        // Global id assignment matches the single-shard build exactly:
        // tuple ids count up per table in row order, object ids count up
        // across all rows in row order.
        let mut next_global: HashMap<String, u64> = HashMap::new();
        let mut next_object = 1u64;

        for (table_name, source_id, cells) in self.rows {
            let counter = next_global.entry(table_name.clone()).or_insert(1);
            let global_tid = TupleId::new(*counter);
            *counter += 1;

            let template = self
                .tables
                .iter()
                .find(|t| t.name() == table_name)
                .ok_or_else(|| TrappError::UnknownTable(table_name.clone()))?;
            let (shard_idx, by_group) = Self::place(
                self.partition_by.as_deref(),
                template,
                &cells,
                global_tid,
                shards,
            );
            if !by_group {
                group_placed.remove(&table_name);
            }
            let shard = &mut wired[shard_idx];

            if !shard.sources.iter().any(|s| s.id() == source_id) {
                shard.sources.push(Source::new(source_id, self.shape));
            }
            let source = shard
                .sources
                .iter_mut()
                .find(|s| s.id() == source_id)
                .expect("just ensured");

            let bounded_cols = shard
                .cache
                .session()
                .catalog()
                .table(&table_name)?
                .schema()
                .bounded_columns();
            let tid: TupleId = shard
                .cache
                .session_mut()
                .catalog_mut()
                .table_mut(&table_name)?
                .insert(cells.clone())?;
            shard
                .to_global
                .entry(table_name.clone())
                .or_default()
                .insert(tid, global_tid);
            from_global
                .entry(table_name.clone())
                .or_default()
                .insert(global_tid, (shard_idx, tid));

            let mut tuple_cost = 0.0;
            let mut subscriptions = Vec::with_capacity(bounded_cols.len());
            for &col in &bounded_cols {
                let initial = cells
                    .get(col)
                    .ok_or_else(|| TrappError::SchemaViolation("row arity".into()))?
                    .as_interval()?
                    .midpoint();
                let object = ObjectId::new(next_object);
                next_object += 1;
                source.register_object(object, initial)?;
                shard
                    .cache
                    .bind_object(object, source_id, table_name.as_str(), tid, col)?;
                subscriptions.push(source.subscribe(
                    shard.cache.id(),
                    object,
                    self.initial_width,
                    now,
                )?);
                tuple_cost += self.cost_model.cost(source_id, object);
            }
            shard.cache.install_refreshes(subscriptions)?;
            shard
                .cache
                .session_mut()
                .catalog_mut()
                .table_mut(&table_name)?
                .set_cost(tid, tuple_cost.max(f64::MIN_POSITIVE))?;
        }
        Ok((clock, wired, group_placed, from_global))
    }
}
