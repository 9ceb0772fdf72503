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
//! * **scatter-gather** — a query whose group set spans shards asks every
//!   shard for its shape-generic partial
//!   ([`trapp_core::query_plan::QueryPartial`]) under *all* shard locks at
//!   once (a short, consistent snapshot — updates cannot interleave
//!   between shards mid-gather), merges them into exactly the input one
//!   big cache would hold, plans *globally* over the merged input, splits
//!   the plan back per shard, fetches every shard's slice **concurrently**
//!   with no locks held, installs per shard, and recomputes. Deriving
//!   bounds only from the merged input keeps the sharded answer
//!   bit-equivalent to the single-cache answer. Every shape scatters:
//!   scalar aggregates merge via
//!   [`trapp_core::merge::merge_partials`], `GROUP BY` queries merge
//!   per-group partials by key
//!   ([`trapp_core::merge::merge_grouped_partials`] — with the group key
//!   as the partition key each group's rows are co-located on one shard),
//!   and two-table joins gather each side's base rows
//!   ([`trapp_core::merge::merge_table_slices`]) and run the ordinary
//!   join pipeline over the merged tables, fetching one heuristic
//!   candidate per round through the owning shard's gateway.
//!
//! Within each shard two traffic reducers apply: **batched source
//! round-trips** (one [`Transport::submit_refresh_batch`] per source per
//! plan) and **refresh coalescing** (a per-shard single-flight
//! [`RefreshGateway`](crate::RefreshGateway); keying the in-flight table
//! per shard is free because objects never span shards).
//!
//! Execution stays phased so source round-trips run *outside* every cache
//! lock, for every shape — scalar, `GROUP BY`, and join alike:
//!
//! 1. **plan** (shard lock): bring the rows the plan reads current at the
//!    current instant (a pinned query's group, or every row; see
//!    [`CacheNode::materialize_for`]) and
//!    lower the query into a [`trapp_core::query_plan::QueryPlan`] — the
//!    cache-only answer(s) plus, where the constraint is unmet, the
//!    refresh set per unit;
//! 2. **fetch** (no lock): resolve the plan's tuples to replicated objects
//!    and pull them through the owning shard's gateway — concurrent
//!    queries' round-trips overlap here, and cross-shard fetches of one
//!    query overlap with *each other*;
//! 3. **install + plan again** (shard lock): install the refreshes and
//!    re-derive; for scalar/grouped plans the CHOOSE_REFRESH guarantee
//!    makes the second pass satisfied from cache unless the clock advanced
//!    concurrently, while join plans iterate one heuristic tuple per
//!    round. Only iterative mode (§8.2), whose refresh choices depend on
//!    live master values, still executes under the shard lock.
//!
//! If one shard of a scatter fails mid-fetch, the refreshes that did
//! arrive are still installed (their sources already narrowed their
//! tracked bounds — dropping them would desynchronize cache and Refresh
//! Monitor) and the query returns
//! [`TrappError::PartialResult`] instead of a bound that silently ignores
//! the missing shard.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use trapp_bounds::{AdaptiveWidth, BoundShape};
use trapp_core::executor::QueryResult;
use trapp_core::group_by::{render_key, GroupResult};
use trapp_core::plan::{bind_query, BoundQuery, QuerySource};
use trapp_core::query_plan::{
    assemble_units, plan_join_round, plan_unit, Exclusions, QueryOutcome, QueryPartial, QueryPlan,
};
use trapp_core::refresh::iterative::IterativeHeuristic;
use trapp_core::{bounded_answer, merge_grouped_partials, merge_table_slices, BoundedAnswer};
use trapp_storage::{IndexKey, Table};
use trapp_system::{
    CacheNode, ChaosConfig, ChaosControl, ChaosTransport, CompletionTransport, CostModel,
    DirectTransport, FetchPool, SimClock, Source, Transport,
};
use trapp_types::{
    shard_of, BoundedValue, CacheId, Interval, ObjectId, PartialFailure, SourceFailure, SourceId,
    TrappError, TupleId, Value,
};

use crate::admission::{Admission, AdmissionConfig, AdmissionController};
use crate::gateway::{FetchOutcome, FetchStats, PendingFetch, RetryPolicy, DEFAULT_AWAIT_TIMEOUT};
use crate::health::HealthConfig;
use crate::router::{Route, Shard, ShardRouter, TidMap};

/// Safety valve for the scatter-gather loop: each extra round means a
/// concurrent clock advance re-widened bounds mid-query.
const MAX_SCATTER_ROUNDS: usize = 8;

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

/// Per-query execution context threaded through the phased loop: the
/// deadline budget (counted from enqueue) plus the per-phase latency and
/// degradation accounting folded into [`ServiceStats`] afterwards.
struct QueryCtx {
    enqueued: Instant,
    /// The query's `DEADLINE`, parsed; `None` runs unbounded.
    deadline: Option<Duration>,
    /// Admission control asked for widening (set before parse).
    widen: bool,
    /// The original `WITHIN` before admission widening, when widened.
    pre_widened: Option<f64>,
    /// The constraint was widened/dropped mid-flight for the deadline.
    deadline_widened: bool,
    plan_us: u64,
    fetch_us: u64,
    install_us: u64,
}

impl QueryCtx {
    fn new(enqueued: Instant, widen: bool) -> QueryCtx {
        QueryCtx {
            enqueued,
            deadline: None,
            widen,
            pre_widened: None,
            deadline_widened: false,
            plan_us: 0,
            fetch_us: 0,
            install_us: 0,
        }
    }
}

/// The typed refusal for a blown deadline.
fn deadline_error(limit: Duration, elapsed: Duration, honorable: Option<f64>) -> TrappError {
    TrappError::DeadlineExceeded {
        deadline_ms: limit.as_millis() as u64,
        elapsed_ms: elapsed.as_millis() as u64,
        honorable_within: honorable,
    }
}

/// One deadline-driven widening step: grows the query's `WITHIN` through
/// an [`AdaptiveWidth`] controller seeded from the constraint itself
/// (grow ×2 per step, capped at 1024× — the §6 knapsack cost falls
/// monotonically as the constraint widens, so each step strictly shrinks
/// the refresh plan). Returns `false` when the constraint cannot widen
/// further (absent, non-positive, or at cap) — the caller then drops it
/// entirely and answers from cache.
fn widen_step(query: &mut trapp_sql::Query, widener: &mut Option<AdaptiveWidth>) -> bool {
    let Some(w) = query.within else { return false };
    if w.is_nan() || w <= 0.0 {
        return false;
    }
    if widener.is_none() {
        match AdaptiveWidth::new(w, 2.0, 0.5, w, w * 1024.0) {
            Ok(ctl) => *widener = Some(ctl),
            Err(_) => return false,
        }
    }
    let ctl = widener.as_mut().expect("seeded above");
    let before = ctl.width();
    ctl.on_value_initiated_refresh();
    let after = ctl.width();
    if after <= before {
        return false;
    }
    query.within = Some(after);
    true
}

struct ServiceCore {
    router: ShardRouter,
    clock: SimClock,
    degradation: DegradationPolicy,
    counters: Mutex<ServiceStats>,
    admission: Arc<AdmissionController>,
    /// EWMA of observed fetch-phase cost rate, µs of wall time per unit
    /// of planned refresh cost — the deadline guard's estimator for "can
    /// this plan's fetch fit the remaining budget?". `0.0` until the
    /// first fetch is observed (optimistic cold start: the first fetch
    /// always runs, and its measurement seeds the estimate).
    fetch_rate: Mutex<f64>,
}

/// Attribution one unit (whole query, or one group) accumulates across
/// fetch rounds: the serving layer pays for refreshes round by round, but
/// the final [`QueryPlan::Ready`] pass sees pinned cells and reports
/// nothing refreshed — this records what the query actually planned and
/// paid for, keyed by rendered group key.
#[derive(Default)]
struct UnitAttr {
    /// The unit's cache-only answer from its first planning round.
    initial: Option<BoundedAnswer>,
    /// Tuples refreshed (global ids), each reported once.
    refreshed: Vec<(String, TupleId)>,
    /// Total planned refresh cost.
    cost: f64,
    /// Rounds in which this unit fetched something.
    rounds: usize,
}

/// Patches accumulated attribution into the final planned outcome.
fn patch_outcome(outcome: QueryOutcome, attr: &HashMap<String, UnitAttr>) -> QueryOutcome {
    let patch = |result: &mut QueryResult, rendered: &str| {
        if let Some(a) = attr.get(rendered) {
            if let Some(initial) = a.initial {
                result.initial_answer = initial;
            }
            result.refreshed = a.refreshed.clone();
            result.refresh_cost = a.cost;
            result.rounds = a.rounds;
        }
    };
    match outcome {
        QueryOutcome::Scalar(mut r) => {
            patch(&mut r, &render_key(&Vec::new()));
            QueryOutcome::Scalar(r)
        }
        QueryOutcome::Grouped(mut groups) => {
            for g in &mut groups {
                patch(&mut g.result, &render_key(&g.key));
            }
            QueryOutcome::Grouped(groups)
        }
    }
}

impl ServiceCore {
    fn run_query(
        &self,
        sql: &str,
        enqueued: Instant,
        widen: bool,
    ) -> Result<ServiceReply, TrappError> {
        let started = Instant::now();
        let queue_wait = started.duration_since(enqueued);
        let mut ctx = QueryCtx::new(enqueued, widen);
        let outcome = self.run_query_inner(sql, &mut ctx);
        let exec_time = started.elapsed();

        let mut counters = self.counters.lock();
        counters.queue_wait_us += queue_wait.as_micros() as u64;
        counters.plan_us += ctx.plan_us;
        counters.fetch_us += ctx.fetch_us;
        counters.install_us += ctx.install_us;
        counters.deadline_widened += u64::from(ctx.deadline_widened);
        match outcome {
            Ok((outcome, stats, scattered, degraded)) => {
                counters.queries += 1;
                counters.round_trips += stats.round_trips;
                counters.scatter_queries += u64::from(scattered);
                counters.degraded_queries += u64::from(degraded.is_some());
                let (result, groups) = match outcome {
                    QueryOutcome::Scalar(result) => (result, Vec::new()),
                    QueryOutcome::Grouped(groups) => (rollup(&groups), groups),
                };
                Ok(ServiceReply {
                    result,
                    groups,
                    refreshes_saved: stats.coalesced,
                    round_trips: stats.round_trips,
                    exec_time,
                    degraded,
                })
            }
            Err(e) => {
                counters.errors += 1;
                Err(e)
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn run_query_inner(
        &self,
        sql: &str,
        ctx: &mut QueryCtx,
    ) -> Result<(QueryOutcome, FetchStats, bool, Option<DegradedInfo>), TrappError> {
        let mut query = trapp_sql::parse_query(sql)?;
        // `DEADLINE` is in milliseconds; the parser guarantees a finite
        // non-negative value.
        ctx.deadline = query.deadline.map(|ms| Duration::from_secs_f64(ms / 1e3));
        // Admission widening happens right after parse, before routing:
        // the relaxed constraint is what plans, and the reply carries
        // `DegradedInfo` naming the original ask.
        if ctx.widen {
            if let Some(w) = query.within {
                ctx.pre_widened = Some(w);
                query.within = Some(w * self.admission.widen_factor());
            }
        }
        let route = self.router.route(&query);
        let scattered = matches!(route, Route::Scatter);
        self.run_routed(&query, route, ctx)
            .map(|(outcome, stats, degraded)| (outcome, stats, scattered, degraded))
    }

    /// The deadline guard's estimate of one fetch phase's wall time for a
    /// plan of the given §6 refresh cost.
    fn estimate_fetch_time(&self, cost: f64) -> Duration {
        Duration::from_secs_f64((*self.fetch_rate.lock() * cost.max(0.0)) / 1e6)
    }

    /// Folds one observed fetch phase into the EWMA cost rate.
    fn observe_fetch(&self, cost: f64, took: Duration) {
        if cost <= 0.0 {
            return;
        }
        let sample = took.as_secs_f64() * 1e6 / cost;
        let mut rate = self.fetch_rate.lock();
        *rate = if *rate == 0.0 {
            sample
        } else {
            0.7 * *rate + 0.3 * sample
        };
    }

    /// The shape-generic phased execution loop — one body for every route
    /// and every query shape:
    ///
    /// 1. **plan** (shard lock(s)): lower the query into a
    ///    [`QueryPlan`] — locally for a single-shard route, from merged
    ///    per-shard partials for scatter;
    /// 2. **fetch** (no locks): resolve every unit's tuples to
    ///    `(source, objects)` with short per-shard locks, submit every
    ///    shard's slice through its gateway before waiting on any —
    ///    join fetches run out here exactly like scalar ones;
    /// 3. **install** (per-shard locks) and plan again. Complete
    ///    (scalar/grouped) plans normally finish on the second pass; join
    ///    plans iterate one heuristic tuple per round until converged.
    fn run_routed(
        &self,
        query: &trapp_sql::Query,
        route: Route,
        ctx: &mut QueryCtx,
    ) -> Result<(QueryOutcome, FetchStats, Option<DegradedInfo>), TrappError> {
        let mut stats = FetchStats::default();
        let mut attr: HashMap<String, UnitAttr> = HashMap::new();
        // Re-planning after a *complete* round means a concurrent clock
        // advance re-widened bounds mid-query; join rounds are expected
        // and budgeted separately.
        let mut widen_rounds = 0usize;
        let mut join_rounds = 0usize;
        // Sources this query itself saw fail (best-effort mode): excluded
        // from its later planning rounds even before their breakers open.
        // Grows monotonically, so the fault loop terminates.
        let mut query_dark: HashSet<SourceId> = HashSet::new();
        let mut fault_rounds = 0usize;

        // ---- Deadline machinery. The budget counts from *enqueue*, so
        // queue wait is charged like any other latency. `eff` is the
        // effective query — clone-on-first-widen; the unwidened path
        // borrows the parsed query and allocates nothing, keeping the
        // deadline-free path bit-identical to before.
        let deadline_limit = ctx.deadline;
        let fetch_deadline: Option<Instant> = deadline_limit.map(|d| ctx.enqueued + d);
        let mut eff: Option<trapp_sql::Query> = None;
        let mut widener: Option<AdaptiveWidth> = None;
        // Strict mode past the point of no return: keep widening and
        // re-planning *without fetching* purely to discover the narrowest
        // honorable constraint to report in the typed refusal.
        let mut strict_probe = false;
        if let Some(limit) = deadline_limit {
            // Already blown before any work (queue wait ate the budget):
            // strict refuses outright; best-effort answers from cache
            // alone — a cache-only plan is `Ready` at zero fetch cost.
            let elapsed = ctx.enqueued.elapsed();
            if elapsed >= limit {
                match self.degradation {
                    DegradationPolicy::Strict => {
                        return Err(deadline_error(limit, elapsed, None));
                    }
                    DegradationPolicy::BestEffort => {
                        ctx.deadline_widened = true;
                        eff.get_or_insert_with(|| query.clone()).within = None;
                    }
                }
            }
        }

        loop {
            let q: &trapp_sql::Query = eff.as_ref().unwrap_or(query);
            // ---- Dark set: breaker-open sources plus this query's own
            // observed failures. Planning excludes their tuples so
            // CHOOSE_REFRESH spends no round-trips on a source that
            // cannot answer.
            let mut dark = query_dark.clone();
            match route {
                Route::Single(s) => dark.extend(self.router.shard(s).health.dark_sources()),
                Route::Scatter => {
                    for shard in self.router.shards() {
                        dark.extend(shard.health.dark_sources());
                    }
                }
            }
            let exclusions = self.exclusions_for(&dark, route);

            // ---- Plan phase (under the cache lock(s)) ----
            let plan_started = Instant::now();
            let (plan, now, max_join_rounds) = match route {
                Route::Single(s) => {
                    let shard = self.router.shard(s);
                    let mut cache = shard.cache.lock();
                    let plan = cache.plan_query_excluding(q, &exclusions)?;
                    let now = self.clock.now();
                    let max_join_rounds = cache.session().config.max_refresh_rounds;
                    shard.note_view_work(&cache);
                    match plan {
                        QueryPlan::Iterative => {
                            // Iterative mode (§8.2) picks each refresh from
                            // live master values: execution stays under the
                            // shard lock, flowing through the shard gateway
                            // so coalescing and the global counters stay
                            // coherent. Its refresh choices cannot be
                            // costed ahead of time, so it is exempt from
                            // the mid-flight deadline guard (the pre-
                            // execution shed above still applies).
                            return if q.group_by.is_empty() {
                                let mut result = cache.execute(q, &shard.gateway)?;
                                for (table, tid) in &mut result.refreshed {
                                    *tid = shard.global_tid(table, *tid);
                                }
                                Ok((QueryOutcome::Scalar(result), stats, None))
                            } else {
                                let mut groups = cache.execute_grouped(q, &shard.gateway)?;
                                for g in &mut groups {
                                    for (table, tid) in &mut g.result.refreshed {
                                        *tid = shard.global_tid(table, *tid);
                                    }
                                }
                                Ok((QueryOutcome::Grouped(groups), stats, None))
                            };
                        }
                        plan => (plan, now, max_join_rounds),
                    }
                }
                Route::Scatter => self.plan_scatter(q, &exclusions)?,
            };
            ctx.plan_us += plan_started.elapsed().as_micros() as u64;

            let fp = match plan {
                QueryPlan::Ready(outcome) => {
                    // Strict never returns a *late* answer: if the
                    // deadline passed while planning/fetching (or this
                    // Ready is the end of an honorable-width probe), the
                    // installs above stand but the reply is the typed
                    // refusal.
                    if matches!(self.degradation, DegradationPolicy::Strict) {
                        if let Some(limit) = deadline_limit {
                            let elapsed = ctx.enqueued.elapsed();
                            if strict_probe || elapsed >= limit {
                                let honorable =
                                    eff.as_ref().and_then(|q| q.within).filter(|_| strict_probe);
                                return Err(deadline_error(limit, elapsed, honorable));
                            }
                        }
                    }
                    let outcome = patch_outcome(outcome, &attr);
                    let (all_satisfied, achieved_width) = match &outcome {
                        QueryOutcome::Scalar(r) => (r.satisfied, r.answer.width()),
                        QueryOutcome::Grouped(gs) => (
                            gs.iter().all(|g| g.result.satisfied),
                            gs.iter()
                                .map(|g| g.result.answer.width())
                                .fold(0.0, f64::max),
                        ),
                    };
                    // The user's original ask, before admission widening.
                    let requested_width = ctx.pre_widened.or(query.within);
                    let load_shed = ctx.deadline_widened || ctx.pre_widened.is_some();
                    if !all_satisfied && !dark.is_empty() {
                        // The constraint is unmet *because* sources are
                        // dark: every refreshable tuple has been used.
                        match self.degradation {
                            DegradationPolicy::Strict => {
                                return Err(self.unavailable_error(route, &dark));
                            }
                            DegradationPolicy::BestEffort => {
                                let mut dark_sources: Vec<SourceId> =
                                    dark.iter().copied().collect();
                                dark_sources.sort();
                                return Ok((
                                    outcome,
                                    stats,
                                    Some(DegradedInfo {
                                        dark_sources,
                                        requested_width,
                                        achieved_width,
                                        load_shed,
                                    }),
                                ));
                            }
                        }
                    }
                    if load_shed {
                        // Satisfied — but only because the constraint was
                        // relaxed for load (deadline widening, or
                        // admission widening under either policy). The
                        // bound still contains the exact answer; the
                        // reply names the original ask it fell short of.
                        let mut dark_sources: Vec<SourceId> = dark.iter().copied().collect();
                        dark_sources.sort();
                        return Ok((
                            outcome,
                            stats,
                            Some(DegradedInfo {
                                dark_sources,
                                requested_width,
                                achieved_width,
                                load_shed: true,
                            }),
                        ));
                    }
                    return Ok((outcome, stats, None));
                }
                QueryPlan::Iterative => {
                    // `plan_scatter` rejects iterative mode with a typed
                    // error before producing a plan; only the single-shard
                    // arm (handled above) can lower into this.
                    return Err(TrappError::Internal(
                        "iterative plan escaped the locked fallback".into(),
                    ));
                }
                QueryPlan::NeedsFetch(fp) => fp,
            };

            // ---- Deadline guard: can this plan's fetch fit the budget?
            // The §6 knapsack cost is the estimator's input — CHOOSE_REFRESH
            // cost falls monotonically as the constraint widens, so when
            // the full-precision plan does not fit, widening one doubling
            // at a time walks toward the *narrowest honorable* constraint.
            // A widen re-plan consumes no widen/join round budget (the
            // `continue` sits above the increments below).
            let round_cost: f64 = fp
                .units
                .iter()
                .filter_map(|u| u.fetch.as_ref())
                .map(|f| f.refresh_cost)
                .sum();
            if let Some(limit) = deadline_limit {
                let elapsed = ctx.enqueued.elapsed();
                let remaining = limit.checked_sub(elapsed);
                let est = self.estimate_fetch_time(round_cost);
                let fits = remaining.is_some_and(|r| est <= r);
                if fits {
                    if strict_probe {
                        // The probe found a width whose plan fits what is
                        // left of the budget: report it and refuse.
                        return Err(deadline_error(
                            limit,
                            elapsed,
                            eff.as_ref().and_then(|q| q.within),
                        ));
                    }
                } else {
                    match self.degradation {
                        DegradationPolicy::Strict => strict_probe = true,
                        DegradationPolicy::BestEffort => ctx.deadline_widened = true,
                    }
                    let wq = eff.get_or_insert_with(|| query.clone());
                    if remaining.is_none() || !widen_step(wq, &mut widener) {
                        // Past the deadline (or the ladder is exhausted):
                        // drop the constraint; the next plan pass is
                        // `Ready` from cache at zero fetch cost.
                        wq.within = None;
                    }
                    continue;
                }
            }

            let round_was_complete = fp.complete;
            if fp.complete {
                widen_rounds += 1;
                if widen_rounds > MAX_SCATTER_ROUNDS {
                    return Err(TrappError::Internal(format!(
                        "phased execution did not converge in {widen_rounds} rounds \
                         (bounds kept re-widening under the refresh plan)"
                    )));
                }
            } else {
                join_rounds += 1;
                if join_rounds > max_join_rounds {
                    return Err(TrappError::Internal(format!(
                        "join refresh did not converge in {join_rounds} rounds"
                    )));
                }
            }

            // ---- Attribute and localize the fetch set ----
            let shard_count = self.router.shard_count();
            let mut work: Vec<Vec<(String, TupleId)>> = vec![Vec::new(); shard_count];
            // A batched join round may split one unit's picks across
            // several same-key units (one per side-run); that is still one
            // refresh round for the unit, counted once per key.
            let mut counted_keys: HashSet<String> = HashSet::new();
            for unit in &fp.units {
                let rendered = render_key(&unit.key);
                let entry = attr.entry(rendered.clone()).or_default();
                if entry.initial.is_none() {
                    entry.initial = Some(unit.initial);
                }
                let Some(fetch) = &unit.fetch else { continue };
                entry.cost += fetch.refresh_cost;
                if counted_keys.insert(rendered) {
                    entry.rounds += 1;
                }
                for &tid in &fetch.tuples {
                    let (s, local, global) = match route {
                        Route::Single(s) => {
                            (s, tid, self.router.shard(s).global_tid(&fetch.table, tid))
                        }
                        Route::Scatter => {
                            let (s, local) = self.router.locate(&fetch.table, tid)?;
                            (s, local, tid)
                        }
                    };
                    // A later round (concurrent clock advance) may re-plan
                    // a tuple already refreshed; report each tuple once.
                    if !entry
                        .refreshed
                        .iter()
                        .any(|(t, id)| *id == global && t == &fetch.table)
                    {
                        entry.refreshed.push((fetch.table.clone(), global));
                    }
                    work[s].push((fetch.table.clone(), local));
                }
            }

            // Resolve tuples to (source, objects) with one short lock per
            // owning shard.
            let mut fetch_plans: Vec<Vec<(SourceId, Vec<ObjectId>)>> =
                vec![Vec::new(); shard_count];
            for (s, items) in work.iter().enumerate() {
                if items.is_empty() {
                    continue;
                }
                let cache = self.router.shard(s).cache.lock();
                let mut per_source: BTreeMap<SourceId, Vec<ObjectId>> = BTreeMap::new();
                for (table, tid) in items {
                    for (object, source) in cache.objects_backing(table, *tid)? {
                        per_source.entry(source).or_default().push(object);
                    }
                }
                fetch_plans[s] = per_source.into_iter().collect();
            }

            // ---- Fetch phase: submit every shard's slice through its
            // gateway *before* waiting on any of them — the round-trips
            // ride the transport's completion queues and overlap each
            // other and other queries' fetches, with zero per-round
            // thread spawns.
            let fetch_started = Instant::now();
            let pending: Vec<(usize, PendingFetch)> = fetch_plans
                .iter()
                .enumerate()
                .filter(|(_, plan)| !plan.is_empty())
                .map(|(s, plan)| {
                    let shard = self.router.shard(s);
                    (
                        s,
                        shard
                            .gateway
                            .begin_fetch(shard.cache_id, now, plan, fetch_deadline),
                    )
                })
                .collect();
            let outcomes: Vec<(usize, FetchOutcome)> = pending
                .into_iter()
                .map(|(s, p)| (s, self.router.shard(s).gateway.finish_fetch(p)))
                .collect();
            let fetch_took = fetch_started.elapsed();
            ctx.fetch_us += fetch_took.as_micros() as u64;
            self.observe_fetch(round_cost, fetch_took);

            // ---- Install phase: everything that arrived goes in — even
            // on a failed shard, its sources already narrowed their
            // tracked bounds — then a failure surfaces as an error (or,
            // best-effort, a degraded re-plan) rather than a bound that
            // pretends the lost refreshes are exact.
            let mut surviving: Vec<usize> = Vec::new();
            let mut shard_failures: Vec<(usize, Vec<(SourceId, TrappError)>)> = Vec::new();
            let install_started = Instant::now();
            for (s, outcome) in outcomes {
                let mut cache = self.router.shard(s).cache.lock();
                for refresh in outcome.refreshes {
                    cache.install_refresh(refresh)?;
                }
                stats.round_trips += outcome.stats.round_trips;
                stats.coalesced += outcome.stats.coalesced;
                stats.forwarded += outcome.stats.forwarded;
                if outcome.failures.is_empty() {
                    surviving.push(s);
                } else {
                    shard_failures.push((s, outcome.failures));
                }
            }
            ctx.install_us += install_started.elapsed().as_micros() as u64;
            if !shard_failures.is_empty() {
                let first_error = shard_failures[0].1[0].1.clone();
                match self.degradation {
                    DegradationPolicy::Strict => {
                        // A deadline that ran out mid-fetch surfaces as
                        // pure timeouts; once the refreshes that did land
                        // are installed (above — sources already narrowed
                        // their tracked bounds), report the blown
                        // deadline, not the transport symptom.
                        if let Some(limit) = deadline_limit {
                            let elapsed = ctx.enqueued.elapsed();
                            let all_timeouts = shard_failures.iter().all(|(_, fs)| {
                                fs.iter()
                                    .all(|(_, e)| matches!(e, TrappError::Timeout { .. }))
                            });
                            if all_timeouts && elapsed >= limit {
                                return Err(deadline_error(limit, elapsed, None));
                            }
                        }
                        return Err(match route {
                            Route::Single(_) => first_error,
                            Route::Scatter => TrappError::PartialResult(Box::new(PartialFailure {
                                surviving_shards: surviving,
                                failed_shards: shard_failures.iter().map(|(s, _)| *s).collect(),
                                sources: shard_failures
                                    .into_iter()
                                    .flat_map(|(_, fs)| fs)
                                    .map(|(source, cause)| SourceFailure {
                                        source,
                                        cause: Box::new(cause),
                                    })
                                    .collect(),
                            })),
                        });
                    }
                    DegradationPolicy::BestEffort => {
                        // Exclude the failed sources from this query's
                        // remaining rounds and re-plan over what is left.
                        // `query_dark` only grows (an excluded source is
                        // never fetched again), so this converges; the
                        // fault budget is a safety valve.
                        fault_rounds += 1;
                        if fault_rounds > MAX_SCATTER_ROUNDS {
                            return Err(first_error);
                        }
                        query_dark.extend(
                            shard_failures
                                .iter()
                                .flat_map(|(_, fs)| fs.iter().map(|(src, _)| *src)),
                        );
                        // Refund the round budget: re-planning after a
                        // fault is recovery, not bound re-widening.
                        if round_was_complete {
                            widen_rounds = widen_rounds.saturating_sub(1);
                        } else {
                            join_rounds = join_rounds.saturating_sub(1);
                        }
                        continue;
                    }
                }
            }
            // Loop: plan again over the installed refreshes. For complete
            // plans the CHOOSE_REFRESH guarantee makes the next pass Ready
            // unless the clock advanced; join rounds iterate.
        }
    }

    /// The tuples planning must treat as unrefreshable: every cached cell
    /// whose backing object lives on a dark source, in the tuple-id space
    /// the route plans in (shard-local for a single-shard route, global
    /// for scatter). Empty dark set short-circuits to no exclusions — the
    /// healthy fast path allocates nothing.
    fn exclusions_for(&self, dark: &HashSet<SourceId>, route: Route) -> Exclusions {
        let mut ex = Exclusions::default();
        if dark.is_empty() {
            return ex;
        }
        match route {
            Route::Single(s) => {
                let cache = self.router.shard(s).cache.lock();
                for (_, r) in cache.objects() {
                    if dark.contains(&r.source) {
                        ex.insert(&r.cell.0, r.cell.1);
                    }
                }
            }
            Route::Scatter => {
                for shard in self.router.shards() {
                    let cache = shard.cache.lock();
                    for (_, r) in cache.objects() {
                        if dark.contains(&r.source) {
                            ex.insert(&r.cell.0, shard.global_tid(&r.cell.0, r.cell.1));
                        }
                    }
                }
            }
        }
        ex
    }

    /// The strict-mode refusal when dark sources make a constraint
    /// unachievable: a structured [`TrappError::PartialResult`] naming
    /// which shards hold dark-source cells and which sources are down
    /// (each with a [`TrappError::SourceUnavailable`] cause).
    fn unavailable_error(&self, route: Route, dark: &HashSet<SourceId>) -> TrappError {
        let shard_indexes: Vec<usize> = match route {
            Route::Single(s) => vec![s],
            Route::Scatter => (0..self.router.shard_count()).collect(),
        };
        let mut surviving_shards = Vec::new();
        let mut failed_shards = Vec::new();
        for s in shard_indexes {
            let owns_dark = {
                let cache = self.router.shard(s).cache.lock();
                let any = cache.objects().any(|(_, r)| dark.contains(&r.source));
                any
            };
            if owns_dark {
                failed_shards.push(s);
            } else {
                surviving_shards.push(s);
            }
        }
        let mut sources: Vec<SourceId> = dark.iter().copied().collect();
        sources.sort();
        TrappError::PartialResult(Box::new(PartialFailure {
            surviving_shards,
            failed_shards,
            sources: sources
                .into_iter()
                .map(|source| SourceFailure {
                    source,
                    cause: Box::new(TrappError::SourceUnavailable(source)),
                })
                .collect(),
        }))
    }

    /// The scatter-side plan phase: gather every shard's
    /// [`QueryPartial`] under *all* shard locks (in index order — the only
    /// multi-lock acquisition in the service, so ordered acquisition
    /// cannot deadlock), merge them shape-by-shape with no locks held, and
    /// derive the plan once from the merged input. Holding all locks makes
    /// the merged input a consistent snapshot: an update cannot land on
    /// shard 1 after shard 0 was already gathered, which would merge
    /// bounds from two different logical states into an answer that was
    /// valid at no instant.
    ///
    /// Returns the plan, the gather instant, and the join-round budget.
    fn plan_scatter(
        &self,
        query: &trapp_sql::Query,
        exclusions: &Exclusions,
    ) -> Result<(QueryPlan, f64, usize), TrappError> {
        let mut strategy = trapp_core::SolverStrategy::default();
        let mut heuristic = IterativeHeuristic::BestRatio;
        let mut max_join_rounds = 0usize;
        let mut partials: Vec<QueryPartial> = Vec::with_capacity(self.router.shard_count());
        let mut join_meta: Option<(BoundQuery, JoinSchemas)> = None;
        let now;
        {
            let mut guards: Vec<_> = self
                .router
                .shards()
                .iter()
                .map(|s| s.cache.lock())
                .collect();
            for (shard, cache) in self.router.shards().iter().zip(guards.iter_mut()) {
                cache.materialize()?;
                let config = &cache.session().config;
                strategy = config.strategy;
                heuristic = config.join_heuristic;
                max_join_rounds = config.max_refresh_rounds;
                let mut partial = cache.session().partial_query(query)?;
                shard.note_view_work(cache);
                match &mut partial {
                    QueryPartial::Scalar(p) => {
                        let table = p.table.clone();
                        p.rewrite_tids(|tid| shard.global_tid(&table, tid));
                    }
                    QueryPartial::Grouped(groups) => {
                        for (_, p) in groups.iter_mut() {
                            let table = p.table.clone();
                            p.rewrite_tids(|tid| shard.global_tid(&table, tid));
                        }
                    }
                    QueryPartial::Join(jp) => {
                        let table = jp.left.table.clone();
                        jp.left.rewrite_tids(|tid| shard.global_tid(&table, tid));
                        let table = jp.right.table.clone();
                        jp.right.rewrite_tids(|tid| shard.global_tid(&table, tid));
                    }
                }
                partials.push(partial);
            }
            // Join shape metadata comes from shard 0's catalog — every
            // shard holds every table's schema.
            if matches!(partials.first(), Some(QueryPartial::Join(_))) {
                let catalog = guards[0].session().catalog();
                let bound = bind_query(query, catalog)?;
                let QuerySource::Join { left, right } = &bound.source else {
                    return Err(TrappError::Internal(
                        "join partial from a non-join query".into(),
                    ));
                };
                let schemas = (
                    catalog.table(left)?.schema().clone(),
                    catalog.table(right)?.schema().clone(),
                );
                join_meta = Some((bound, schemas));
            }
            now = self.clock.now();
        }

        // ---- Merge + derive (no locks held) ----
        let shape_err = || TrappError::Internal("shards disagreed on query shape".into());
        let plan = match partials.first().expect("at least one shard") {
            QueryPartial::Scalar(_) => {
                let mut shape: Option<(String, trapp_core::Aggregate, Option<f64>)> = None;
                let mut inputs = Vec::with_capacity(partials.len());
                for partial in partials {
                    let QueryPartial::Scalar(p) = partial else {
                        return Err(shape_err());
                    };
                    shape.get_or_insert((p.table, p.agg, p.within));
                    inputs.push(p.input);
                }
                let (table, agg, within) = shape.expect("at least one shard");
                let merged = trapp_core::merge_partials(inputs)?;
                let unit = plan_unit(
                    agg,
                    within,
                    strategy,
                    &table,
                    Vec::new(),
                    &merged,
                    bounded_answer(agg, &merged)?,
                    None,
                    exclusions.for_table(&table),
                )?;
                assemble_units(vec![unit], false)
            }
            QueryPartial::Grouped(_) => {
                let mut shards_groups = Vec::with_capacity(partials.len());
                for partial in partials {
                    let QueryPartial::Grouped(groups) = partial else {
                        return Err(shape_err());
                    };
                    shards_groups.push(groups);
                }
                let merged = merge_grouped_partials(shards_groups)?;
                let mut units = Vec::with_capacity(merged.len());
                for (key, p) in merged {
                    units.push(plan_unit(
                        p.agg,
                        p.within,
                        strategy,
                        &p.table,
                        key,
                        &p.input,
                        bounded_answer(p.agg, &p.input)?,
                        None,
                        exclusions.for_table(&p.table),
                    )?);
                }
                assemble_units(units, true)
            }
            QueryPartial::Join(_) => {
                let (bound, (lschema, rschema)) = join_meta.expect("set under the gather locks");
                let mut lefts = Vec::with_capacity(partials.len());
                let mut rights = Vec::with_capacity(partials.len());
                for partial in partials {
                    let QueryPartial::Join(jp) = partial else {
                        return Err(shape_err());
                    };
                    lefts.push(jp.left);
                    rights.push(jp.right);
                }
                let left = merge_table_slices(lschema, lefts)?;
                let right = merge_table_slices(rschema, rights)?;
                plan_join_round(&bound, &left, &right, heuristic, true, exclusions)?
            }
        };
        Ok((plan, now, max_join_rounds))
    }
}

/// The per-side schemas of a gathered join.
type JoinSchemas = (
    std::sync::Arc<trapp_storage::Schema>,
    std::sync::Arc<trapp_storage::Schema>,
);

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
            counters: Mutex::new(ServiceStats::default()),
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
                            let _ =
                                job.reply
                                    .send(core.run_query(&job.sql, job.enqueued, job.widen));
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
                    self.core.counters.lock().errors += 1;
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
                    for (cache_id, refresh) in refreshes {
                        debug_assert_eq!(cache_id, cache.id());
                        match cache.install_refresh(refresh) {
                            Ok(()) => delivered += 1,
                            Err(e) => {
                                failure.get_or_insert(e);
                            }
                        }
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
        let mut s = *self.core.counters.lock();
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
                let refresh =
                    source.subscribe(shard.cache.id(), object, self.initial_width, now)?;
                shard.cache.install_refresh(refresh)?;
                tuple_cost += self.cost_model.cost(source_id, object);
            }
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
