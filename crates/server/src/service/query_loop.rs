//! One query's execution: [`QueryRun`], the service's two moves of
//! `trapp-core`'s one query loop ([`drive_rounds`]), and the shard-facing
//! steps they call.

use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

use trapp_core::executor::{drive_rounds, Rounds};
use trapp_core::plan::{bind_query, BoundQuery, QuerySource};
use trapp_core::query_plan::{
    assemble_units, plan_join_round, plan_unit, Attribution, Exclusions, FetchPlan, QueryOutcome,
    QueryPartial, QueryPlan,
};
use trapp_core::{bounded_answer, merge_grouped_partials, merge_table_slices, SessionConfig};
use trapp_storage::Catalog;
use trapp_system::CacheNode;
use trapp_types::{ObjectId, PartialFailure, SourceFailure, SourceId, TrappError, TupleId};

use super::{rollup, DegradationPolicy, DegradedInfo, Job, ServiceCore, ServiceReply};
use crate::gateway::{FetchOutcome, FetchStats, PendingFetch};
use crate::router::{Locator, Route, Shard, TidRuns};

/// Rounds a best-effort query may lose a source in before it gives up.
const MAX_FAULT_ROUNDS: usize = 8;

/// What one query's execution accounts for. It outlives the query loop,
/// errors included, and is folded into [`super::ServiceStats`] and the reply
/// afterwards.
#[derive(Default)]
struct QueryCtx {
    /// The query was routed to every shard.
    scattered: bool,
    /// The constraint was widened/dropped mid-flight for the deadline.
    deadline_widened: bool,
    stats: FetchStats,
    plan_us: u64,
    fetch_us: u64,
    install_us: u64,
    locks: LockTime,
    /// The query ran a fetch round: its lock time is a fetching query's.
    fetched: bool,
    /// The reply came from a shard's answer snapshot.
    snapshot_served: bool,
}

/// What one query's shard-lock sections cost: the time spent waiting for
/// each lock and the time each was held, summed over every section —
/// plans, scatter gathers, object resolution, installs and the dark-source
/// scans.
#[derive(Clone, Copy, Default)]
pub(super) struct LockTime {
    pub(super) wait: Duration,
    pub(super) hold: Duration,
}

/// Shard-lock time summed over queries, split by query kind: served
/// (no fetch round) and fetching.
#[derive(Clone, Copy, Default)]
pub(super) struct LockSplit {
    pub(super) served: LockTime,
    pub(super) fetching: LockTime,
}

impl LockTime {
    /// Runs `f` under `shard`'s cache lock, charging the wait for the lock
    /// and the time it is held.
    fn locked<R>(&mut self, shard: &Shard, f: impl FnOnce(&mut CacheNode) -> R) -> R {
        let asked = Instant::now();
        let mut cache = shard.cache.lock();
        let acquired = Instant::now();
        let out = f(&mut cache);
        drop(cache);
        self.wait += acquired - asked;
        self.hold += acquired.elapsed();
        out
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

/// One deadline-driven widening step: doubles the query's `WITHIN`, up to
/// `ceiling`, 1024× the constraint the first step widened (the §6
/// knapsack cost falls monotonically as the constraint widens, so each
/// step strictly shrinks the refresh plan). Returns `false` when the
/// constraint cannot widen further (absent, non-positive, or at the
/// ceiling) — the caller then drops it entirely and answers from cache.
fn widen_step(query: &mut trapp_sql::Query, ceiling: &mut Option<f64>) -> bool {
    let Some(w) = query.within.filter(|&w| w > 0.0) else {
        return false;
    };
    let after = (w * 2.0).min(*ceiling.get_or_insert(w * 1024.0));
    if after <= w {
        return false;
    }
    query.within = Some(after);
    true
}

/// Per shard, the tuples a fetch round plans there (shard-local ids), in
/// runs of one table each.
type ShardWork<'p> = Vec<Vec<(&'p str, Vec<TupleId>)>>;

impl ServiceCore {
    pub(super) fn run_query(&self, job: &Job) -> Result<ServiceReply, TrappError> {
        #[cfg(test)]
        if job.sql == tests::PANIC_HOOK_SQL {
            panic!("test hook, before any lock or claim");
        }
        let started = Instant::now();
        let queue_wait = started.duration_since(job.enqueued);
        let mut ctx = QueryCtx::default();
        let outcome = trapp_sql::parse_query(&job.sql).and_then(|query| {
            let mut run = QueryRun::new(self, &mut ctx, query, job);
            run.start()?;
            let outcome = drive_rounds(&mut run, SessionConfig::default().max_refresh_rounds)?;
            run.answer(outcome)
        });
        let exec_time = started.elapsed();

        let (counters, locks) = &mut *self.counters.lock();
        let kind = if ctx.fetched {
            &mut locks.fetching
        } else {
            &mut locks.served
        };
        kind.wait += ctx.locks.wait;
        kind.hold += ctx.locks.hold;
        counters.queue_wait_us += queue_wait.as_micros() as u64;
        counters.plan_us += ctx.plan_us;
        counters.fetch_us += ctx.fetch_us;
        counters.install_us += ctx.install_us;
        counters.deadline_widened += u64::from(ctx.deadline_widened);
        match outcome {
            Ok((outcome, degraded)) => {
                counters.queries += 1;
                counters.round_trips += ctx.stats.round_trips;
                counters.scatter_queries += u64::from(ctx.scattered);
                counters.degraded_queries += u64::from(degraded.is_some());
                counters.snapshot_served += u64::from(ctx.snapshot_served);
                let (result, groups) = match outcome {
                    QueryOutcome::Scalar(result) => (result, Vec::new()),
                    QueryOutcome::Grouped(groups) => (rollup(&groups), groups),
                };
                Ok(ServiceReply {
                    result,
                    groups,
                    refreshes_saved: ctx.stats.coalesced,
                    round_trips: ctx.stats.round_trips,
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

    /// The deadline guard's estimate of one fetch's wall time for a round
    /// of the given §6 refresh cost. An estimate past what a [`Duration`]
    /// holds, or not a number, saturates: no budget fits it.
    fn estimate_fetch_time(&self, cost: f64) -> Duration {
        let secs = (*self.fetch_rate.lock() * cost.max(0.0)) / 1e6;
        Duration::try_from_secs_f64(secs).unwrap_or(Duration::MAX)
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

    /// The single-shard plan pass, under that shard's lock: brings the
    /// rows the plan reads current, plans, and publishes a `Ready` plan's
    /// outcome as the shard's answer snapshot for `sql`. Returns the plan
    /// and the instant it was planned at.
    fn plan_single(
        &self,
        s: usize,
        sql: &str,
        query: &trapp_sql::Query,
        exclusions: &Exclusions,
        locks: &mut LockTime,
    ) -> Result<(QueryPlan, f64), TrappError> {
        let shard = self.router.shard(s);
        locks.locked(shard, |cache| {
            // Read before the rows are brought current: an instant read
            // after could postdate theirs.
            let at = self.clock.now();
            let (bound, plan) = cache.plan_query_excluding(query, exclusions)?;
            shard.note_view_work(cache);
            if let QueryPlan::Ready(outcome) = &plan {
                shard.snapshots.publish(sql, at, &bound, cache, outcome);
            }
            Ok((plan, self.clock.now()))
        })
    }

    /// Resolves each shard's tuples to per-source object batches, with one
    /// short lock per owning shard and one binding lookup per table batch.
    fn resolve_objects(
        &self,
        work: &ShardWork<'_>,
        locks: &mut LockTime,
    ) -> Result<Vec<SourceBatches>, TrappError> {
        let mut requests = vec![Vec::new(); work.len()];
        for (s, batches) in work.iter().enumerate().filter(|(_, w)| !w.is_empty()) {
            let mut per_source: BTreeMap<SourceId, Vec<ObjectId>> = BTreeMap::new();
            locks.locked(self.router.shard(s), |cache| {
                for (table, tids) in batches {
                    cache.for_objects_backing(table, tids, |object, source| {
                        per_source.entry(source).or_default().push(object)
                    })?;
                }
                Ok::<_, TrappError>(())
            })?;
            requests[s] = per_source.into_iter().collect();
        }
        Ok(requests)
    }

    /// The tuples planning must treat as unrefreshable: every cached cell
    /// whose backing object lives on a dark source, in the tuple-id space
    /// the route plans in. With no dark source it allocates nothing.
    fn exclusions_for(
        &self,
        dark: &HashSet<SourceId>,
        route: Route,
        locks: &mut LockTime,
    ) -> Exclusions {
        let mut ex = Exclusions::default();
        if dark.is_empty() {
            return ex;
        }
        for s in self.router.footprint(route) {
            let shard = self.router.shard(s);
            let mut globals = shard.to_global.runs();
            locks.locked(shard, |cache| {
                for (_, r) in cache.objects().filter(|(_, r)| dark.contains(&r.source)) {
                    let (table, local) = (&r.cell.0, r.cell.1);
                    let tid = match route {
                        Route::Single(_) => local,
                        Route::Scatter => globals.get(table, local).unwrap_or(local),
                    };
                    ex.insert(table, tid);
                }
            });
        }
        ex
    }

    /// The strict-mode refusal when dark sources make a constraint
    /// unachievable: a structured [`TrappError::PartialResult`] naming
    /// which shards hold dark-source cells and which sources are down
    /// (each with a [`TrappError::SourceUnavailable`] cause).
    fn unavailable_error(
        &self,
        route: Route,
        dark: &HashSet<SourceId>,
        locks: &mut LockTime,
    ) -> TrappError {
        let mut surviving_shards = Vec::new();
        let mut failed_shards = Vec::new();
        for s in self.router.footprint(route) {
            let shard = self.router.shard(s);
            let dark_cells = locks.locked(shard, |cache| {
                cache.objects().any(|(_, r)| dark.contains(&r.source))
            });
            if dark_cells {
                failed_shards.push(s);
            } else {
                surviving_shards.push(s);
            }
        }
        let causes = sorted(dark.iter().copied()).into_iter();
        let causes = causes.map(|source| (source, TrappError::SourceUnavailable(source)));
        partial_result(surviving_shards, failed_shards, causes)
    }

    /// The scatter-side plan pass: bind the query once, with no lock
    /// (every shard holds the same schemas), gather every shard's
    /// [`QueryPartial`] under *all* shard locks (in index order — the only
    /// multi-lock acquisition in the service, so it cannot deadlock), then
    /// rewrite the partials to global tuple ids, merge them and plan once
    /// with no locks held. Holding all locks makes the merged input a
    /// consistent snapshot: no update lands on shard 1 after shard 0 was
    /// gathered. Returns the plan and the gather instant.
    fn plan_scatter(
        &self,
        query: &trapp_sql::Query,
        exclusions: &Exclusions,
        locks: &mut LockTime,
    ) -> Result<(QueryPlan, f64), TrappError> {
        let bound = bind_query(query, self.router.schemas())?;
        let mut partials: Vec<QueryPartial> = Vec::with_capacity(self.router.shard_count());
        let asked = Instant::now();
        let mut acquired = Vec::with_capacity(self.router.shard_count());
        let mut guards: Vec<_> = self
            .router
            .shards()
            .iter()
            .map(|s| {
                let guard = s.cache.lock();
                acquired.push(Instant::now());
                guard
            })
            .collect();
        let gathered = (|| {
            for (shard, cache) in self.router.shards().iter().zip(guards.iter_mut()) {
                cache.materialize()?;
                partials.push(cache.session().partial_bound(&bound)?);
                shard.note_view_work(cache);
            }
            // Every shard runs one session config: shard 0's stands for all.
            Ok((self.clock.now(), guards[0].session().config))
        })();
        drop(guards);
        let released = Instant::now();
        locks.wait += acquired.last().map_or(Duration::ZERO, |&last| last - asked);
        locks.hold += acquired.iter().map(|&at| released - at).sum::<Duration>();
        let (now, config) = gathered?;
        for (shard, partial) in self.router.shards().iter().zip(&mut partials) {
            globalize_partial(shard, partial);
        }
        let plan = plan_merged(partials, &bound, self.router.schemas(), config, exclusions)?;
        Ok((plan, now))
    }
}

/// Rewrites a shard's partial from shard-local to global tuple ids, one
/// array index per id.
fn globalize_partial(shard: &Shard, partial: &mut QueryPartial) {
    #[cfg(test)]
    tests::globalize_hook();
    let to_global = &shard.to_global;
    match partial {
        QueryPartial::Scalar(p) => {
            let ids = to_global.table(&p.table);
            p.rewrite_tids(|tid| ids.get(tid).unwrap_or(tid));
        }
        QueryPartial::Grouped(groups) => {
            // Every group reads the one queried table.
            let Some((_, first)) = groups.first() else {
                return;
            };
            let ids = to_global.table(&first.table);
            for (_, p) in groups.iter_mut() {
                p.rewrite_tids(|tid| ids.get(tid).unwrap_or(tid));
            }
        }
        QueryPartial::Join(jp) => {
            for side in [&mut jp.left, &mut jp.right] {
                let ids = to_global.table(&side.table);
                side.rewrite_tids(|tid| ids.get(tid).unwrap_or(tid));
            }
        }
    }
}

/// The scatter plan's second half, with no locks held: merges the
/// gathered partials of `bound` shape by shape and derives the plan once
/// from the merged input, under the shards' session `config`. A join's
/// side schemas come from `schemas`.
fn plan_merged(
    partials: Vec<QueryPartial>,
    bound: &BoundQuery,
    schemas: &Catalog,
    config: SessionConfig,
    exclusions: &Exclusions,
) -> Result<QueryPlan, TrappError> {
    let shape_err = || TrappError::Internal("shards disagreed on query shape".into());
    let plan = match partials.first().ok_or_else(shape_err)? {
        QueryPartial::Scalar(first) => {
            let (table, agg, within) = (first.table.clone(), first.agg, first.within);
            let mut inputs = Vec::with_capacity(partials.len());
            for partial in partials {
                let QueryPartial::Scalar(p) = partial else {
                    return Err(shape_err());
                };
                inputs.push(p.input);
            }
            let merged = trapp_core::merge_partials(inputs)?;
            let unit = plan_unit(
                agg,
                within,
                &config,
                &table,
                Vec::new(),
                &merged,
                bounded_answer(agg, &merged)?,
                None,
                exclusions.for_table(&table),
            )?;
            assemble_units(vec![unit], false, config.mode)
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
                    &config,
                    &p.table,
                    key,
                    &p.input,
                    bounded_answer(p.agg, &p.input)?,
                    None,
                    exclusions.for_table(&p.table),
                )?);
            }
            assemble_units(units, true, config.mode)
        }
        QueryPartial::Join(_) => {
            let QuerySource::Join { left, right } = &bound.source else {
                return Err(shape_err());
            };
            let mut lefts = Vec::with_capacity(partials.len());
            let mut rights = Vec::with_capacity(partials.len());
            for partial in partials {
                let QueryPartial::Join(jp) = partial else {
                    return Err(shape_err());
                };
                lefts.push(jp.left);
                rights.push(jp.right);
            }
            let left = merge_table_slices(schemas.table(left)?.schema().clone(), lefts)?;
            let right = merge_table_slices(schemas.table(right)?.schema().clone(), rights)?;
            plan_join_round(
                bound,
                &left,
                &right,
                config.join_heuristic,
                true,
                exclusions,
            )?
        }
    };
    Ok(plan)
}

/// The id space a plan's tuples are in, with the translation the fetch
/// round needs from it.
enum PlanIds<'r> {
    /// Shard-local ids of this shard, reported under their global ids.
    Local(usize, TidRuns<'r, TupleId>),
    /// Global ids, located on their shards.
    Global(Locator<'r>),
}

/// One shard's fetch request: its objects, batched per source.
type SourceBatches = Vec<(SourceId, Vec<ObjectId>)>;

/// One query's trip through the core loop, for every route and shape:
///
/// ```text
///  start ─► plan ──Ready───────────────────────────► answer ─► reply
///            ▲ │ NeedsFetch
///            │ ├─ over the deadline: widen, or shed ─► plan (Strict: probe, refuse)
///            │ ▼
///            │ fetch + install ─┬─ all arrived ──────────────► plan
///            └──────────────────┴─ a source failed: exclude it ─► plan
///                                                (Strict: refuse)
/// ```
///
/// Plan takes the shard lock(s), fetch none, install the lock(s) again.
/// A round that lost a source does not count against the loop's budget;
/// [`MAX_FAULT_ROUNDS`] caps those. Heuristic rounds are budgeted by the
/// default [`SessionConfig`], which every shard's session is built with.
struct QueryRun<'a> {
    core: &'a ServiceCore,
    ctx: &'a mut QueryCtx,
    route: Route,
    /// The query's SQL text: its answer snapshots' key.
    sql: &'a str,
    /// The query being planned. The deadline policy rewrites its `within`.
    query: trapp_sql::Query,
    /// The user's `WITHIN`, before admission or deadline widening.
    requested: Option<f64>,
    /// Admission control widened the constraint at the front door.
    admission_widened: bool,
    /// When the query was submitted: the deadline counts from here, so
    /// queue wait is charged like any other latency.
    enqueued: Instant,
    deadline: Option<Duration>,
    /// The widest `WITHIN` the deadline policy may widen to.
    ceiling: Option<f64>,
    /// Strict past the point of no return: keep widening and re-planning
    /// *without fetching*, only to find the narrowest honorable
    /// constraint to report in the typed refusal.
    probing: bool,
    /// The sources the latest plan excluded: breaker-open ones plus
    /// `failed`.
    dark: HashSet<SourceId>,
    /// Sources this query saw fail (best-effort): excluded from its later
    /// plans even before their breakers open.
    failed: HashSet<SourceId>,
    /// Rounds that lost a source (best-effort).
    fault_rounds: usize,
    /// The instant the latest plan was made at.
    planned_at: f64,
}

impl<'a> QueryRun<'a> {
    fn new(
        core: &'a ServiceCore,
        ctx: &'a mut QueryCtx,
        mut query: trapp_sql::Query,
        job: &'a Job,
    ) -> QueryRun<'a> {
        let requested = query.within;
        // Admission widening happens before routing: the relaxed
        // constraint is what plans, and the reply's `DegradedInfo` names
        // the original ask.
        let admission_widened = job.widen && requested.is_some();
        if admission_widened {
            query.within = requested.map(|w| w * core.admission.widen_factor());
        }
        // `DEADLINE` is in milliseconds; the parser guarantees a finite
        // non-negative value. One past what a `Duration` holds saturates.
        let deadline = query
            .deadline
            .map(|ms| Duration::try_from_secs_f64(ms / 1e3).unwrap_or(Duration::MAX));
        let route = core.router.route(&query);
        ctx.scattered = matches!(route, Route::Scatter);
        QueryRun {
            core,
            ctx,
            route,
            sql: &job.sql,
            query,
            requested,
            admission_widened,
            enqueued: job.enqueued,
            deadline,
            ceiling: None,
            probing: false,
            dark: HashSet::new(),
            failed: HashSet::new(),
            fault_rounds: 0,
            planned_at: 0.0,
        }
    }

    /// Deadline policy at pickup: a budget that queue wait already ate is
    /// refused outright (Strict) or shed to a cache-only answer
    /// (BestEffort).
    fn start(&mut self) -> Result<(), TrappError> {
        let Some(limit) = self.deadline else {
            return Ok(());
        };
        let elapsed = self.enqueued.elapsed();
        if elapsed >= limit {
            if self.core.degradation == DegradationPolicy::Strict {
                return Err(deadline_error(limit, elapsed, None));
            }
            self.ctx.deadline_widened = true;
            self.query.within = None;
        }
        Ok(())
    }

    /// Deadline policy before a fetch: does the round's estimated fetch
    /// time fit the remaining budget? If not, widen the constraint one
    /// step, or shed it once the budget is gone or the ladder exhausted,
    /// and return `false`: plan again. A heuristic round (join, iterative
    /// mode) is costed alone, not the rounds after it, so a Strict probe
    /// that ends on one names no honorable width.
    fn fits_deadline(&mut self, round: &FetchPlan) -> Result<bool, TrappError> {
        let Some(limit) = self.deadline else {
            return Ok(true);
        };
        let elapsed = self.enqueued.elapsed();
        let remaining = limit.checked_sub(elapsed);
        let estimate = || self.core.estimate_fetch_time(refresh_cost(round));
        if remaining.is_some_and(|r| estimate() <= r) {
            if self.probing {
                // The probe found a width whose plan fits what is left of
                // the budget: report it (if the plan covers the whole
                // query) and refuse.
                let honorable = self.query.within.filter(|_| round.complete);
                return Err(deadline_error(limit, elapsed, honorable));
            }
            return Ok(true);
        }
        match self.core.degradation {
            DegradationPolicy::Strict => self.probing = true,
            DegradationPolicy::BestEffort => self.ctx.deadline_widened = true,
        }
        // Plan again under the new constraint; `None` sheds it, and the
        // next plan is `Ready` from cache at zero fetch cost.
        if remaining.is_none() || !widen_step(&mut self.query, &mut self.ceiling) {
            self.query.within = None;
        }
        Ok(false)
    }

    /// Records the round in the query's [`Attribution`] and splits its
    /// tuples by owning shard, in shard-local ids.
    fn attribute<'p>(
        &self,
        round: &'p FetchPlan,
        paid: &mut Attribution,
    ) -> Result<ShardWork<'p>, TrappError> {
        let router = &self.core.router;
        let mut work: ShardWork<'p> = vec![Vec::new(); router.shard_count()];
        // A single-shard plan speaks local ids, a scatter plan global ones.
        let mut ids = match self.route {
            Route::Single(s) => PlanIds::Local(s, router.shard(s).to_global.runs()),
            Route::Scatter => PlanIds::Global(router.locator()),
        };
        paid.record(round, |table, tid| {
            let (s, local, global) = match &mut ids {
                PlanIds::Local(s, globals) => (*s, tid, globals.get(table, tid).unwrap_or(tid)),
                PlanIds::Global(locator) => {
                    let (s, local) = locator.locate(table, tid)?;
                    (s, local, tid)
                }
            };
            match work[s].last_mut() {
                Some((t, tids)) if *t == table => tids.push(local),
                _ => work[s].push((table, vec![local])),
            }
            Ok(global)
        })?;
        Ok(work)
    }

    /// The install step: everything that arrived goes in — every shard's
    /// batch, even from a failed shard, whose sources already narrowed
    /// their tracked bounds — before any failure surfaces: the first
    /// refusal to install, then a lost source.
    fn install(&mut self, outcomes: Vec<(usize, FetchOutcome)>) -> Result<bool, TrappError> {
        let started = Instant::now();
        let mut surviving = Vec::new();
        let mut failed = Vec::new();
        let mut refused = None;
        for (s, outcome) in outcomes {
            let shard = self.core.router.shard(s);
            let installed = self.ctx.locks.locked(shard, |cache| {
                let install = |cache: &mut CacheNode| cache.install_refreshes(outcome.refreshes);
                shard.snapshots.retracting(cache, install)
            });
            if let Err(e) = installed {
                refused.get_or_insert(e);
            }
            let stats = &mut self.ctx.stats;
            stats.round_trips += outcome.stats.round_trips;
            stats.coalesced += outcome.stats.coalesced;
            stats.forwarded += outcome.stats.forwarded;
            if outcome.failures.is_empty() {
                surviving.push(s);
            } else {
                failed.push((s, outcome.failures));
            }
        }
        self.ctx.install_us += started.elapsed().as_micros() as u64;
        if let Some(e) = refused {
            return Err(e);
        }
        if failed.is_empty() {
            Ok(true)
        } else {
            self.degrade(surviving, failed)
        }
    }

    /// Degradation policy after a round lost sources. Strict refuses: with
    /// the blown deadline when every failure was a timeout past it,
    /// otherwise with the transport's error (one shard) or a
    /// `PartialResult` (scatter). BestEffort excludes the failed sources
    /// from the query's later plans and plans again over what is left —
    /// a recovery, not a re-widening, so the round does not count.
    fn degrade(
        &mut self,
        surviving: Vec<usize>,
        failed: Vec<(usize, Vec<(SourceId, TrappError)>)>,
    ) -> Result<bool, TrappError> {
        let mut causes = failed.iter().flat_map(|(_, fs)| fs);
        let first_error = causes.next().map_or_else(
            || TrappError::Internal("a failed shard named no failed source".into()),
            |(_, e)| e.clone(),
        );
        if self.core.degradation == DegradationPolicy::BestEffort {
            self.fault_rounds += 1;
            if self.fault_rounds > MAX_FAULT_ROUNDS {
                return Err(first_error);
            }
            let lost = failed
                .iter()
                .flat_map(|(_, fs)| fs.iter().map(|(src, _)| *src));
            self.failed.extend(lost);
            return Ok(false);
        }
        if let Some(limit) = self.deadline {
            let elapsed = self.enqueued.elapsed();
            let all_timeouts = failed
                .iter()
                .flat_map(|(_, fs)| fs)
                .all(|(_, e)| matches!(e, TrappError::Timeout { .. }));
            if all_timeouts && elapsed >= limit {
                return Err(deadline_error(limit, elapsed, None));
            }
        }
        Err(match self.route {
            Route::Single(_) => first_error,
            Route::Scatter => {
                let failed_shards = failed.iter().map(|(s, _)| *s).collect();
                let causes = failed.into_iter().flat_map(|(_, fs)| fs);
                partial_result(surviving, failed_shards, causes)
            }
        })
    }

    /// The answer step. Strict never returns a late answer: past the
    /// deadline, or at the end of an honorable-width probe, the installs
    /// stand but the reply is the typed refusal. A constraint left unmet
    /// because sources are dark is refused (Strict) or degraded
    /// (BestEffort); one relaxed for load is degraded under either policy,
    /// naming the original ask. The bound contains the exact answer either
    /// way.
    fn answer(
        self,
        outcome: QueryOutcome,
    ) -> Result<(QueryOutcome, Option<DegradedInfo>), TrappError> {
        let strict = self.core.degradation == DegradationPolicy::Strict;
        if let (true, Some(limit)) = (strict, self.deadline) {
            let elapsed = self.enqueued.elapsed();
            if self.probing || elapsed >= limit {
                let honorable = self.query.within.filter(|_| self.probing);
                return Err(deadline_error(limit, elapsed, honorable));
            }
        }
        let (satisfied, width) = match &outcome {
            QueryOutcome::Scalar(r) => (r.satisfied, r.answer.width()),
            QueryOutcome::Grouped(gs) => (
                gs.iter().all(|g| g.result.satisfied),
                gs.iter()
                    .map(|g| g.result.answer.width())
                    .fold(0.0, f64::max),
            ),
        };
        let short_of_sources = !satisfied && !self.dark.is_empty();
        if short_of_sources && strict {
            return Err(self
                .core
                .unavailable_error(self.route, &self.dark, &mut self.ctx.locks));
        }
        let load_shed = self.ctx.deadline_widened || self.admission_widened;
        let degraded = (short_of_sources || load_shed).then(|| DegradedInfo {
            dark_sources: sorted(self.dark.iter().copied()),
            requested_width: self.requested,
            achieved_width: width,
            load_shed,
        });
        Ok((outcome, degraded))
    }
}

impl Rounds for QueryRun<'_> {
    /// Plan passes under the shard lock(s) until one is `Ready` or its
    /// round fits the deadline. A single-shard query first consults its
    /// shard's answer snapshots, with no lock: a hit answers as the plan
    /// would, `Ready`. The plan excludes the tuples of dark sources —
    /// breaker-open, or failed this query — so CHOOSE_REFRESH spends no
    /// round-trip on a source that cannot answer.
    fn plan(&mut self) -> Result<QueryPlan, TrappError> {
        loop {
            self.dark.clone_from(&self.failed);
            for s in self.core.router.footprint(self.route) {
                self.dark
                    .extend(self.core.router.shard(s).health.dark_sources());
            }
            if let Route::Single(s) = self.route {
                let snapshots = &self.core.router.shard(s).snapshots;
                let now = self.core.clock.now();
                if let Some(outcome) = snapshots.answer(self.sql, now, self.query.within) {
                    self.ctx.snapshot_served = true;
                    return Ok(QueryPlan::Ready(outcome));
                }
            }
            let locks = &mut self.ctx.locks;
            let exclusions = self.core.exclusions_for(&self.dark, self.route, locks);
            let started = Instant::now();
            let (plan, now) = match self.route {
                Route::Single(s) => {
                    self.core
                        .plan_single(s, self.sql, &self.query, &exclusions, locks)?
                }
                Route::Scatter => self.core.plan_scatter(&self.query, &exclusions, locks)?,
            };
            self.ctx.plan_us += started.elapsed().as_micros() as u64;
            self.planned_at = now;
            match &plan {
                QueryPlan::NeedsFetch(round) if !self.fits_deadline(round)? => {}
                _ => return Ok(plan),
            }
        }
    }

    /// The fetch, no lock held: every shard's slice is submitted through
    /// its gateway *before* any is awaited, so the round-trips overlap
    /// each other and other queries' fetches; then the install.
    fn fetch(&mut self, round: &FetchPlan, paid: &mut Attribution) -> Result<bool, TrappError> {
        self.ctx.fetched = true;
        let work = self.attribute(round, paid)?;
        let requests = self.core.resolve_objects(&work, &mut self.ctx.locks)?;
        // A deadline past what an `Instant` holds is no reachable deadline.
        let deadline = self.deadline.and_then(|d| self.enqueued.checked_add(d));
        let now = self.planned_at;
        let started = Instant::now();
        let pending: Vec<(usize, PendingFetch<'_>)> = requests
            .iter()
            .enumerate()
            .filter(|(_, batches)| !batches.is_empty())
            .map(|(s, batches)| {
                let shard = self.core.router.shard(s);
                let pending = shard
                    .gateway
                    .begin_fetch(shard.cache_id, now, batches, deadline);
                (s, pending)
            })
            .collect();
        let outcomes: Vec<(usize, FetchOutcome)> = pending
            .into_iter()
            .map(|(s, pending)| (s, self.core.router.shard(s).gateway.finish_fetch(pending)))
            .collect();
        let took = started.elapsed();
        self.ctx.fetch_us += took.as_micros() as u64;
        self.core.observe_fetch(refresh_cost(round), took);
        self.install(outcomes)
    }
}

/// A round's predicted §6 refresh cost.
fn refresh_cost(round: &FetchPlan) -> f64 {
    round
        .units
        .iter()
        .filter_map(|u| u.fetch.as_ref())
        .map(|f| f.refresh_cost)
        .sum()
}

/// A [`TrappError::PartialResult`] naming the shards that answered, the
/// ones that could not, and each lost source with its cause.
fn partial_result(
    surviving_shards: Vec<usize>,
    failed_shards: Vec<usize>,
    causes: impl Iterator<Item = (SourceId, TrappError)>,
) -> TrappError {
    let sources = causes.map(|(source, cause)| SourceFailure {
        source,
        cause: Box::new(cause),
    });
    TrappError::PartialResult(Box::new(PartialFailure {
        surviving_shards,
        failed_shards,
        sources: sources.collect(),
    }))
}

/// Sources in ascending order.
fn sorted(sources: impl Iterator<Item = SourceId>) -> Vec<SourceId> {
    let mut sources: Vec<SourceId> = sources.collect();
    sources.sort();
    sources
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, OnceLock};
    use std::time::{Duration, Instant};

    use crossbeam::channel::{unbounded, Receiver, Sender};
    use trapp_core::refresh::iterative::IterativeHeuristic;
    use trapp_core::ExecutionMode;
    use trapp_storage::{ColumnDef, Schema, Table};
    use trapp_system::message::Refresh;
    use trapp_system::{Completion, DirectTransport, SimClock, Transport};
    use trapp_types::{BoundedValue, CacheId, ObjectId, SourceId, TrappError, Value, ValueType};

    use crate::admission::AdmissionConfig;
    use crate::service::{QueryService, ServiceBuilder, ServiceConfig};

    /// The SQL text at which `run_query` panics, before it takes any shard
    /// lock or gateway claim.
    pub(super) const PANIC_HOOK_SQL: &str = "-- panic in run_query";

    thread_local! {
        /// How long `globalize_partial` stalls on this thread per shard
        /// partial (zero: not at all).
        static GLOBALIZE_STALL: Cell<Duration> = const { Cell::new(Duration::ZERO) };
    }

    /// Stalls `globalize_partial` by this thread's `GLOBALIZE_STALL`.
    pub(super) fn globalize_hook() {
        let stall = GLOBALIZE_STALL.get();
        if !stall.is_zero() {
            std::thread::sleep(stall);
        }
    }

    /// A transport that holds one source's refreshes at the door: it
    /// reports each such fetch as open, naming its objects, then blocks it
    /// until the test releases it with one message, or opens the gate for
    /// good by dropping the `release` sender.
    struct Gate {
        inner: DirectTransport,
        gated: SourceId,
        opened: Sender<Vec<ObjectId>>,
        release: Receiver<()>,
    }

    impl Transport for Gate {
        fn submit_refresh_batch(
            &self,
            source: SourceId,
            cache: CacheId,
            objects: Vec<ObjectId>,
            now: f64,
        ) -> Completion<Vec<Refresh>> {
            if source == self.gated {
                let _ = self.opened.send(objects.clone());
                let _ = self.release.recv();
            }
            self.inner.submit_refresh_batch(source, cache, objects, now)
        }

        fn submit_update_batch(
            &self,
            source: SourceId,
            updates: Vec<(ObjectId, f64)>,
            now: f64,
        ) -> Completion<Vec<(CacheId, Refresh)>> {
            self.inner.submit_update_batch(source, updates, now)
        }

        fn messages(&self) -> u64 {
            self.inner.messages()
        }
    }

    /// A one-shard service over `metrics(grp, load)` holding `rows` of
    /// `(grp, source, load)` in order, so row `k` is backed by object
    /// `k + 1`, over the transport `wrap` builds around the direct one.
    fn metrics_service(
        config: ServiceConfig,
        rows: &[(i64, u64, f64)],
        wrap: impl Fn(DirectTransport) -> Box<dyn Transport>,
    ) -> QueryService {
        let schema = Schema::new(vec![
            ColumnDef::exact("grp", ValueType::Int),
            ColumnDef::bounded_float("load"),
        ])
        .unwrap();
        let mut builder = ServiceBuilder::new()
            .config(ServiceConfig {
                shards: 1,
                ..config
            })
            .table(Table::new("metrics", schema));
        for &(grp, source, load) in rows {
            let cells = vec![
                BoundedValue::Exact(Value::Int(grp)),
                BoundedValue::exact_f64(load).unwrap(),
            ];
            builder = builder.row("metrics", SourceId::new(source), cells);
        }
        builder
            .build_with(
                |sources| {
                    let mut inner = DirectTransport::new();
                    for source in sources {
                        inner.add_source(source);
                    }
                    wrap(inner)
                },
                None,
            )
            .unwrap()
    }

    /// [`metrics_service`] with source 2's fetches held behind a [`Gate`].
    /// Returns the service, the gate's "fetch open" receiver and its
    /// release.
    fn gated_service(
        config: ServiceConfig,
        rows: &[(i64, u64, f64)],
    ) -> (QueryService, Receiver<Vec<ObjectId>>, Sender<()>) {
        let (opened_tx, opened) = unbounded();
        let (release, release_rx) = unbounded::<()>();
        let service = metrics_service(config, rows, |inner| {
            Box::new(Gate {
                inner,
                gated: SourceId::new(2),
                opened: opened_tx.clone(),
                release: release_rx.clone(),
            })
        });
        (service, opened, release)
    }

    /// A transport whose first refresh round-trip panics — after the
    /// gateway claimed the round's objects, before any reply exists.
    struct PanicOnce {
        inner: DirectTransport,
        armed: AtomicBool,
    }

    impl Transport for PanicOnce {
        fn submit_refresh_batch(
            &self,
            source: SourceId,
            cache: CacheId,
            objects: Vec<ObjectId>,
            now: f64,
        ) -> Completion<Vec<Refresh>> {
            if self.armed.swap(false, Ordering::SeqCst) {
                panic!("transport bug after the gateway claim");
            }
            self.inner.submit_refresh_batch(source, cache, objects, now)
        }

        fn submit_update_batch(
            &self,
            source: SourceId,
            updates: Vec<(ObjectId, f64)>,
            now: f64,
        ) -> Completion<Vec<(CacheId, Refresh)>> {
            self.inner.submit_update_batch(source, updates, now)
        }

        fn messages(&self) -> u64 {
            self.inner.messages()
        }
    }

    fn exact_sum(reply: Result<crate::ServiceReply, TrappError>, expected: f64) {
        let reply = reply.unwrap();
        assert!(reply.result.answer.is_exact());
        assert_eq!(reply.result.answer.range.lo(), expected);
    }

    /// An iterative (§8.2) query releases its shard's lock while a round
    /// fetches: with its fetch from source 2 held open, a query the cache
    /// can answer runs on the same shard; once the gate opens, the
    /// iterative query finishes with the exact answer.
    #[test]
    fn iterative_rounds_fetch_with_the_shard_lock_released() {
        let (service, opened, release) = gated_service(
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            &[(0, 1, 10.0), (0, 1, 20.0), (1, 2, 30.0), (1, 2, 40.0)],
        );
        service.with_shard_cache(0, |cache| {
            cache.session_mut().config.mode =
                ExecutionMode::Iterative(IterativeHeuristic::BestRatio);
        });
        service.advance_clock(25.0);

        std::thread::scope(|scope| {
            // Moved in, so a failing assertion drops it — opening the gate —
            // before the scope joins the callers.
            let release = release;
            let service = &service;
            let iterative = scope
                .spawn(|| service.query("SELECT SUM(load) WITHIN 0 FROM metrics WHERE grp = 1"));
            opened
                .recv_timeout(Duration::from_secs(10))
                .expect("the iterative query never fetched from source 2");
            let (cached_tx, cached) = unbounded();
            scope.spawn(move || {
                let _ =
                    cached_tx.send(service.query("SELECT SUM(load) FROM metrics WHERE grp = 0"));
            });
            let reply = cached
                .recv_timeout(Duration::from_secs(10))
                .expect("the shard lock was held across an iterative fetch")
                .unwrap();
            assert!(reply.result.satisfied);
            assert_eq!(reply.round_trips, 0);

            drop(release);
            let reply = iterative.join().unwrap().unwrap();
            assert!(reply.result.answer.is_exact());
            assert_eq!(reply.result.answer.range.lo(), 70.0);
            assert_eq!(reply.result.rounds, 2);
            assert_eq!(reply.round_trips, 2);
        });
    }

    /// `ServiceConfig::workers` caps executions: with one permit, held by
    /// a `query()` whose fetch is open, two more callers wait (the
    /// admission gauge reads 2), a fourth query sheds at
    /// `reject_watermark: 2`, and the waiters run one at a time in
    /// admission order once the fetch is released.
    #[test]
    fn one_permit_gates_callers_in_admission_order() {
        let (service, opened, release) = gated_service(
            ServiceConfig {
                workers: 1,
                admission: AdmissionConfig {
                    reject_watermark: 2,
                    ..AdmissionConfig::default()
                },
                ..ServiceConfig::default()
            },
            // Group g's rows are backed by objects 2g - 1 and 2g.
            &[
                (1, 2, 10.0),
                (1, 2, 20.0),
                (2, 2, 30.0),
                (2, 2, 40.0),
                (3, 2, 50.0),
                (3, 2, 60.0),
            ],
        );
        service.advance_clock(25.0);
        let sql = |grp: i64| format!("SELECT SUM(load) WITHIN 0 FROM metrics WHERE grp = {grp}");
        let objects = |grp: u64| vec![ObjectId::new(2 * grp - 1), ObjectId::new(2 * grp)];
        let next_fetch = || {
            let mut fetched = opened
                .recv_timeout(Duration::from_secs(10))
                .expect("no fetch opened");
            fetched.sort();
            fetched
        };
        let admitted = |depth: u64, who: &str| {
            let start = Instant::now();
            while service.stats().queue_depth < depth {
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "{who} never admitted"
                );
                std::thread::yield_now();
            }
        };
        std::thread::scope(|scope| {
            // Moved in, so a failing assertion drops it — opening the gate —
            // before the scope joins a caller stuck at the gate or a fetch.
            let release = release;
            let service = &service;
            let caller = |grp: i64| scope.spawn(move || service.query(sql(grp)));

            let a = caller(1);
            assert_eq!(next_fetch(), objects(1));
            let b = caller(2);
            admitted(1, "B");
            let c = caller(3);
            admitted(2, "C");
            assert_eq!(service.stats().queue_depth, 2, "B and C wait");
            match service.query(sql(1)) {
                Err(TrappError::Overloaded { queue_depth, limit }) => {
                    assert_eq!((queue_depth, limit), (2, 2));
                }
                other => panic!("expected Overloaded, got {other:?}"),
            }

            release.send(()).unwrap();
            assert_eq!(next_fetch(), objects(2), "B was admitted first");
            release.send(()).unwrap();
            assert_eq!(next_fetch(), objects(3));
            release.send(()).unwrap();
            exact_sum(a.join().unwrap(), 30.0);
            exact_sum(b.join().unwrap(), 70.0);
            exact_sum(c.join().unwrap(), 110.0);
        });
        let stats = service.stats();
        assert_eq!((stats.queries, stats.errors, stats.queue_depth), (3, 1, 0));
    }

    /// A panic in `run_query` comes back as a typed `Internal` error
    /// counted in `errors`; the permit is released, so the next queries
    /// answer correctly.
    #[test]
    fn a_panicking_query_is_a_typed_error_and_costs_no_permit_or_worker() {
        let (service, _opened, _release) = gated_service(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            &[(1, 1, 10.0), (1, 1, 20.0)],
        );
        service.advance_clock(25.0);
        let panicked = |reply: Result<crate::ServiceReply, TrappError>| match reply {
            Err(TrappError::Internal(message)) => {
                assert!(message.starts_with("query panicked: "), "{message}");
            }
            other => panic!("expected a typed panic, got {other:?}"),
        };
        // Each query runs on a detached caller: a leaked permit parks it at
        // the gate for good, which fails the timeout instead of hanging.
        let service = Arc::new(service);
        let within = Duration::from_secs(10);
        let query = |sql: &'static str| {
            let (tx, rx) = unbounded();
            let service = service.clone();
            std::thread::spawn(move || {
                let _ = tx.send(service.query(sql));
            });
            rx.recv_timeout(within)
                .expect("the query never got a permit")
        };
        let exact = "SELECT SUM(load) WITHIN 0 FROM metrics WHERE grp = 1";

        panicked(query(PANIC_HOOK_SQL));
        panicked(query(PANIC_HOOK_SQL));
        exact_sum(query(exact), 30.0);
        exact_sum(query(exact), 30.0);

        let stats = service.stats();
        assert_eq!((stats.queries, stats.errors, stats.queue_depth), (2, 2, 0));
    }

    /// A panic after the gateway claimed a fetch's objects releases the
    /// claims: the panicking query gets the typed `Internal` error, and
    /// the next query for the same objects at the same instant fetches
    /// them itself at once — it does not wait out the await timeout on a
    /// claim nobody will publish, and no healthy source is charged with a
    /// timeout.
    #[test]
    fn a_panic_after_the_gateway_claim_releases_it() {
        let await_timeout = Duration::from_secs(5);
        let service = metrics_service(
            ServiceConfig {
                workers: 1,
                gateway_await_timeout: await_timeout,
                ..ServiceConfig::default()
            },
            &[(1, 1, 10.0), (1, 1, 20.0)],
            |inner| {
                Box::new(PanicOnce {
                    inner,
                    armed: AtomicBool::new(true),
                })
            },
        );
        service.advance_clock(25.0);
        let exact = "SELECT SUM(load) WITHIN 0 FROM metrics WHERE grp = 1";
        match service.query(exact) {
            Err(TrappError::Internal(message)) => {
                assert!(message.starts_with("query panicked: "), "{message}");
            }
            other => panic!("expected a typed panic, got {other:?}"),
        }
        let started = Instant::now();
        exact_sum(service.query(exact), 30.0);
        assert!(
            started.elapsed() < await_timeout / 5,
            "the second query waited {:?} on a stranded claim",
            started.elapsed()
        );
        assert!(service.dark_sources().is_empty(), "a breaker opened");
        let stats = service.stats();
        assert_eq!((stats.queries, stats.errors), (1, 1));
    }

    /// A transport that advances the service clock by 25 s inside each of
    /// its next `advances` refresh round-trips, counting them all: each
    /// advance re-widens the bounds the round is about to install, as a
    /// concurrent `advance_clock` would.
    struct Advancing {
        inner: DirectTransport,
        clock: Arc<OnceLock<SimClock>>,
        advances: Arc<AtomicUsize>,
        round_trips: Arc<AtomicUsize>,
    }

    impl Transport for Advancing {
        fn submit_refresh_batch(
            &self,
            source: SourceId,
            cache: CacheId,
            objects: Vec<ObjectId>,
            now: f64,
        ) -> Completion<Vec<Refresh>> {
            self.round_trips.fetch_add(1, Ordering::SeqCst);
            let take = |n: usize| n.checked_sub(1);
            if self
                .advances
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, take)
                .is_ok()
            {
                if let Some(clock) = self.clock.get() {
                    clock.advance(25.0);
                }
            }
            self.inner.submit_refresh_batch(source, cache, objects, now)
        }

        fn submit_update_batch(
            &self,
            source: SourceId,
            updates: Vec<(ObjectId, f64)>,
            now: f64,
        ) -> Completion<Vec<(CacheId, Refresh)>> {
            self.inner.submit_update_batch(source, updates, now)
        }

        fn messages(&self) -> u64 {
            self.inner.messages()
        }
    }

    /// The core loop's complete-round budget on the service. One clock
    /// advance inside a fetch makes a `WITHIN 0` SUM plan a second
    /// complete round and answer exactly; an advance inside every fetch
    /// gets the typed non-convergence error after exactly 8 rounds. Its
    /// permit and gateway claims are released: with one permit, the next
    /// query answers at once.
    #[test]
    fn complete_rounds_that_keep_rewidening_stop_after_eight() {
        let clock = Arc::new(OnceLock::new());
        let advances = Arc::new(AtomicUsize::new(0));
        let round_trips = Arc::new(AtomicUsize::new(0));
        let service = metrics_service(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            &[(1, 1, 10.0), (1, 1, 20.0)],
            |inner| {
                Box::new(Advancing {
                    inner,
                    clock: clock.clone(),
                    advances: advances.clone(),
                    round_trips: round_trips.clone(),
                })
            },
        );
        clock.set(service.clock().clone()).unwrap();
        let service = Arc::new(service);
        // On a detached caller: a leaked permit parks it at the gate for
        // good, which fails the timeout instead of hanging.
        let query = || {
            let (tx, rx) = unbounded();
            let service = service.clone();
            std::thread::spawn(move || {
                let sql = "SELECT SUM(load) WITHIN 0 FROM metrics WHERE grp = 1";
                let _ = tx.send(service.query(sql));
            });
            rx.recv_timeout(Duration::from_secs(10))
                .expect("the query never got a permit")
        };

        service.advance_clock(25.0);
        advances.store(1, Ordering::SeqCst);
        let reply = query().unwrap();
        assert!(reply.result.answer.is_exact());
        assert_eq!(reply.result.answer.range.lo(), 30.0);
        assert_eq!(reply.result.rounds, 2);
        assert_eq!(round_trips.swap(0, Ordering::SeqCst), 2);

        service.advance_clock(25.0);
        advances.store(usize::MAX, Ordering::SeqCst);
        match query() {
            Err(TrappError::Internal(message)) => {
                assert!(message.starts_with("refresh did not converge"), "{message}");
            }
            other => panic!("expected the typed non-convergence error, got {other:?}"),
        }
        assert_eq!(round_trips.swap(0, Ordering::SeqCst), 8);

        advances.store(0, Ordering::SeqCst);
        let started = Instant::now();
        exact_sum(query(), 30.0);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "the next query waited {:?}",
            started.elapsed()
        );
        assert!(service.dark_sources().is_empty(), "a breaker opened");
        let stats = service.stats();
        assert_eq!((stats.queries, stats.errors), (2, 1));
    }

    /// After shutdown a query answers with the typed error.
    #[test]
    fn queries_after_shutdown_get_a_typed_error() {
        let (mut service, _opened, _release) =
            gated_service(ServiceConfig::default(), &[(1, 1, 10.0)]);
        service.shutdown_in_place();
        let shut_down = TrappError::Internal("query service shut down".into());
        assert_eq!(
            service.query("SELECT SUM(load) FROM metrics").unwrap_err(),
            shut_down
        );
    }

    /// A scatter pass holds the shard locks only to materialize and copy
    /// each shard's partial: the tuple-id rewrite runs after they drop.
    /// With the rewrite stalled 50 ms per shard partial, a 4-shard query's
    /// summed lock hold stays under one stall, scalar and grouped alike.
    #[test]
    fn scatter_rewrites_tuple_ids_after_the_shard_locks_drop() {
        let schema = Schema::new(vec![
            ColumnDef::exact("grp", ValueType::Int),
            ColumnDef::bounded_float("load"),
        ])
        .unwrap();
        let mut builder = ServiceBuilder::new()
            .config(ServiceConfig {
                shards: 4,
                ..ServiceConfig::default()
            })
            .table(Table::new("metrics", schema));
        for k in 0..32u64 {
            let cells = vec![
                BoundedValue::Exact(Value::Int((k % 8) as i64)),
                BoundedValue::exact_f64(k as f64).unwrap(),
            ];
            builder = builder.row("metrics", SourceId::new(1 + k % 2), cells);
        }
        let service = builder.build_direct().unwrap();
        let stall = Duration::from_millis(50);
        for sql in [
            "SELECT SUM(load) FROM metrics",
            "SELECT AVG(load) FROM metrics GROUP BY grp",
        ] {
            let before = service.stats();
            GLOBALIZE_STALL.set(stall);
            let reply = service.query(sql);
            GLOBALIZE_STALL.set(Duration::ZERO);
            let reply = reply.unwrap();
            let after = service.stats();
            assert_eq!(after.scatter_queries - before.scatter_queries, 1, "{sql}");
            assert!(reply.exec_time >= 4 * stall, "{sql}: the stall never ran");
            let held = after.shard_lock_hold_us - before.shard_lock_hold_us;
            assert!(
                held < stall.as_micros() as u64,
                "{sql}: shard locks held {held} µs across a {stall:?} rewrite stall"
            );
        }
    }
}
