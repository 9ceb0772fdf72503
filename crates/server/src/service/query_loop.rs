//! One query's execution: the plan → fetch → install → answer loop
//! ([`QueryRun`]), the deadline and degradation policies that move it
//! between phases, and the shard-facing steps each phase calls.

use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

use trapp_bounds::AdaptiveWidth;
use trapp_core::plan::{bind_query, BoundQuery, QuerySource};
use trapp_core::query_plan::{
    assemble_units, plan_join_round, plan_unit, Attribution, Exclusions, FetchPlan, QueryOutcome,
    QueryPartial, QueryPlan,
};
use trapp_core::{bounded_answer, merge_grouped_partials, merge_table_slices, SessionConfig};
use trapp_system::CacheNode;
use trapp_types::{ObjectId, PartialFailure, SourceFailure, SourceId, TrappError, TupleId};

use super::{rollup, DegradationPolicy, DegradedInfo, Job, ServiceCore, ServiceReply};
use crate::gateway::{FetchOutcome, FetchStats, PendingFetch};
use crate::router::{Route, Shard};

/// Safety valve for the query loop's complete and fault rounds: each
/// extra complete round means a concurrent clock advance re-widened bounds
/// mid-query, each fault round that a source failed mid-fetch.
const MAX_REPLAN_ROUNDS: usize = 8;

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
        let outcome = trapp_sql::parse_query(&job.sql)
            .and_then(|query| QueryRun::new(self, &mut ctx, query, job).run());
        let exec_time = started.elapsed();

        let (counters, locks) = &mut *self.counters.lock();
        locks.wait += ctx.locks.wait;
        locks.hold += ctx.locks.hold;
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

    /// The single-shard plan phase, under that shard's lock. Returns the
    /// plan, the instant it was planned at, and the heuristic-round
    /// budget.
    fn plan_single(
        &self,
        s: usize,
        query: &trapp_sql::Query,
        exclusions: &Exclusions,
        locks: &mut LockTime,
    ) -> Result<(QueryPlan, f64, usize), TrappError> {
        let shard = self.router.shard(s);
        locks.locked(shard, |cache| {
            let plan = cache.plan_query_excluding(query, exclusions)?;
            shard.note_view_work(cache);
            let max_rounds = cache.session().config.max_refresh_rounds;
            Ok((plan, self.clock.now(), max_rounds))
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
    /// the route plans in (shard-local for a single-shard route, global
    /// for scatter). Empty dark set short-circuits to no exclusions — the
    /// healthy fast path allocates nothing.
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
            locks.locked(shard, |cache| {
                for (_, r) in cache.objects().filter(|(_, r)| dark.contains(&r.source)) {
                    let (table, local) = (&r.cell.0, r.cell.1);
                    let tid = match route {
                        Route::Single(_) => local,
                        Route::Scatter => shard.global_tid(table, local),
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
        TrappError::PartialResult(Box::new(PartialFailure {
            surviving_shards,
            failed_shards,
            sources: sorted(dark.iter().copied())
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
    /// Returns the plan, the gather instant, and the heuristic-round
    /// budget.
    fn plan_scatter(
        &self,
        query: &trapp_sql::Query,
        exclusions: &Exclusions,
        locks: &mut LockTime,
    ) -> Result<(QueryPlan, f64, usize), TrappError> {
        let mut partials: Vec<QueryPartial> = Vec::with_capacity(self.router.shard_count());
        let mut join_meta: Option<(BoundQuery, JoinSchemas)> = None;
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
                let mut partial = cache.session().partial_query(query)?;
                shard.note_view_work(cache);
                globalize_partial(shard, &mut partial);
                partials.push(partial);
            }
            // The session config and join shape metadata come from shard
            // 0 — every shard runs one config and holds every table's
            // schema.
            let config = guards[0].session().config;
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
            Ok((self.clock.now(), config))
        })();
        drop(guards);
        let released = Instant::now();
        locks.wait += acquired.last().map_or(Duration::ZERO, |&last| last - asked);
        locks.hold += acquired.iter().map(|&at| released - at).sum::<Duration>();
        let (now, config) = gathered?;
        let plan = plan_merged(partials, join_meta, config, exclusions)?;
        Ok((plan, now, config.max_refresh_rounds))
    }
}

/// Rewrites a shard's partial from shard-local to global tuple ids.
fn globalize_partial(shard: &Shard, partial: &mut QueryPartial) {
    match partial {
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
}

/// The scatter plan's second half, with no locks held: merges the
/// gathered partials shape by shape and derives the plan once from the
/// merged input, under the shards' session `config`.
fn plan_merged(
    partials: Vec<QueryPartial>,
    join_meta: Option<(BoundQuery, JoinSchemas)>,
    config: SessionConfig,
    exclusions: &Exclusions,
) -> Result<QueryPlan, TrappError> {
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
            plan_join_round(
                &bound,
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

/// One shard's fetch request: its objects, batched per source.
type SourceBatches = Vec<(SourceId, Vec<ObjectId>)>;

/// The per-side schemas of a gathered join.
type JoinSchemas = (
    std::sync::Arc<trapp_storage::Schema>,
    std::sync::Arc<trapp_storage::Schema>,
);

/// The query loop's phases. Each phase method of [`QueryRun`] consumes
/// its phase's data and returns the next phase; the deadline policy
/// (widen, shed, refuse) and the degradation policy (exclude a failed
/// source, or refuse) are transitions those methods take.
enum Phase {
    /// Lower the query into a [`QueryPlan`] under the shard lock(s).
    Plan,
    /// Fetch a plan's refresh sets with no lock held, then install what
    /// came back. `now` is the instant the plan was made at, `cost` its
    /// predicted §6 refresh cost.
    Fetch {
        plan: FetchPlan,
        now: f64,
        cost: f64,
    },
    /// Shape the reply from a `Ready` plan.
    Answer(QueryOutcome),
}

/// One query's trip through the loop: what the phases carry from one to
/// the next.
struct QueryRun<'a> {
    core: &'a ServiceCore,
    ctx: &'a mut QueryCtx,
    route: Route,
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
    widener: Option<AdaptiveWidth>,
    /// Strict past the point of no return: keep widening and re-planning
    /// *without fetching*, only to find the narrowest honorable
    /// constraint to report in the typed refusal.
    probing: bool,
    /// The sources the latest plan excluded: breaker-open ones plus
    /// `failed`.
    dark: HashSet<SourceId>,
    /// Sources this query saw fail (best-effort): excluded from its later
    /// plans even before their breakers open. It only grows, so the fault
    /// loop terminates.
    failed: HashSet<SourceId>,
    attr: Attribution,
    /// Fetch rounds by kind. Each budget turns a loop that keeps
    /// re-planning into a typed error: after the first, a complete round
    /// means a concurrent clock advance re-widened bounds mid-query;
    /// heuristic rounds (join rounds, and iterative mode's §8.2 rounds)
    /// are steps budgeted by the session; a fault round lost a source.
    complete_rounds: usize,
    heuristic_rounds: usize,
    fault_rounds: usize,
    max_heuristic_rounds: usize,
}

impl<'a> QueryRun<'a> {
    fn new(
        core: &'a ServiceCore,
        ctx: &'a mut QueryCtx,
        mut query: trapp_sql::Query,
        job: &Job,
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
        // non-negative value.
        let deadline = query.deadline.map(|ms| Duration::from_secs_f64(ms / 1e3));
        let route = core.router.route(&query);
        ctx.scattered = matches!(route, Route::Scatter);
        QueryRun {
            core,
            ctx,
            route,
            query,
            requested,
            admission_widened,
            enqueued: job.enqueued,
            deadline,
            widener: None,
            probing: false,
            dark: HashSet::new(),
            failed: HashSet::new(),
            attr: Attribution::default(),
            complete_rounds: 0,
            heuristic_rounds: 0,
            fault_rounds: 0,
            max_heuristic_rounds: 0,
        }
    }

    /// Drives the phases to a reply — one loop for every route and shape:
    ///
    /// ```text
    ///  pickup ─► Plan ──Ready──────────────────────────► Answer ─► reply
    ///             ▲ │ NeedsFetch
    ///             │ ├─ over budget: widen, or shed ─► Plan   (Strict: probe, refuse)
    ///             │ ▼
    ///             │ Fetch + install ─┬─ all arrived ──────────► Plan
    ///             └──────────────────┴─ a source failed: exclude it ─► Plan
    ///                                                  (Strict: refuse)
    /// ```
    ///
    /// Batch scalar and grouped plans normally answer on their second plan
    /// pass (the CHOOSE_REFRESH guarantee); join plans and iterative mode
    /// (§8.2) take one heuristic round per pass until converged.
    fn run(mut self) -> Result<(QueryOutcome, Option<DegradedInfo>), TrappError> {
        let mut phase = self.start()?;
        loop {
            phase = match phase {
                Phase::Plan => self.plan()?,
                Phase::Fetch { plan, now, cost } => self.fetch(plan, now, cost)?,
                Phase::Answer(outcome) => return self.answer(outcome),
            };
        }
    }

    /// Deadline policy at pickup: a budget that queue wait already ate is
    /// refused outright (Strict) or shed to a cache-only answer
    /// (BestEffort).
    fn start(&mut self) -> Result<Phase, TrappError> {
        let Some(limit) = self.deadline else {
            return Ok(Phase::Plan);
        };
        let elapsed = self.enqueued.elapsed();
        if elapsed < limit {
            return Ok(Phase::Plan);
        }
        match self.core.degradation {
            DegradationPolicy::Strict => Err(deadline_error(limit, elapsed, None)),
            DegradationPolicy::BestEffort => {
                self.ctx.deadline_widened = true;
                self.query.within = None;
                Ok(Phase::Plan)
            }
        }
    }

    /// The plan phase, under the shard lock(s). The plan excludes the
    /// tuples of dark sources — breaker-open, or failed this query — so
    /// CHOOSE_REFRESH spends no round-trip on a source that cannot answer.
    fn plan(&mut self) -> Result<Phase, TrappError> {
        self.dark.clone_from(&self.failed);
        for s in self.core.router.footprint(self.route) {
            self.dark
                .extend(self.core.router.shard(s).health.dark_sources());
        }
        let locks = &mut self.ctx.locks;
        let exclusions = self.core.exclusions_for(&self.dark, self.route, locks);
        let started = Instant::now();
        let (plan, now, max_rounds) = match self.route {
            Route::Single(s) => self.core.plan_single(s, &self.query, &exclusions, locks)?,
            Route::Scatter => self.core.plan_scatter(&self.query, &exclusions, locks)?,
        };
        self.ctx.plan_us += started.elapsed().as_micros() as u64;
        self.max_heuristic_rounds = max_rounds;
        let plan = match plan {
            QueryPlan::Ready(outcome) => return Ok(Phase::Answer(outcome)),
            QueryPlan::NeedsFetch(plan) => plan,
        };
        let cost: f64 = plan
            .units
            .iter()
            .filter_map(|u| u.fetch.as_ref())
            .map(|f| f.refresh_cost)
            .sum();
        self.guard(plan, now, cost)
    }

    /// Deadline policy before a fetch: does the plan's estimated fetch time
    /// fit the remaining budget? If not, widen the constraint one doubling
    /// and plan again (a complete plan's CHOOSE_REFRESH cost falls
    /// monotonically as the constraint widens, so this walks toward the
    /// narrowest honorable one), or shed it once the budget is gone or the
    /// ladder exhausted. A widen spends no round budget. A heuristic round
    /// (join, iterative mode) is costed alone, not the rounds after it,
    /// so a Strict probe that ends on one names no honorable width.
    fn guard(&mut self, plan: FetchPlan, now: f64, cost: f64) -> Result<Phase, TrappError> {
        let complete = plan.complete;
        let fetch = Phase::Fetch { plan, now, cost };
        let Some(limit) = self.deadline else {
            return Ok(fetch);
        };
        let elapsed = self.enqueued.elapsed();
        let remaining = limit.checked_sub(elapsed);
        if remaining.is_some_and(|r| self.core.estimate_fetch_time(cost) <= r) {
            if self.probing {
                // The probe found a width whose plan fits what is left of
                // the budget: report it (if the plan covers the whole
                // query) and refuse.
                let honorable = self.query.within.filter(|_| complete);
                return Err(deadline_error(limit, elapsed, honorable));
            }
            return Ok(fetch);
        }
        match self.core.degradation {
            DegradationPolicy::Strict => self.probing = true,
            DegradationPolicy::BestEffort => self.ctx.deadline_widened = true,
        }
        // Plan again under the new constraint; `None` sheds it, and the
        // next plan is `Ready` from cache at zero fetch cost.
        if remaining.is_none() || !widen_step(&mut self.query, &mut self.widener) {
            self.query.within = None;
        }
        Ok(Phase::Plan)
    }

    /// The fetch phase, no lock held: charge the round, attribute the
    /// plan's tuples, then submit every shard's slice through its gateway
    /// *before* waiting on any — the round-trips ride the transport's
    /// completion queues and overlap each other and other queries'
    /// fetches. What came back goes straight to [`Self::install`].
    fn fetch(&mut self, plan: FetchPlan, now: f64, cost: f64) -> Result<Phase, TrappError> {
        if plan.complete {
            self.complete_rounds += 1;
            if self.complete_rounds > MAX_REPLAN_ROUNDS {
                return Err(TrappError::Internal(format!(
                    "phased execution did not converge in {} rounds \
                     (bounds kept re-widening under the refresh plan)",
                    self.complete_rounds
                )));
            }
        } else {
            self.heuristic_rounds += 1;
            if self.heuristic_rounds > self.max_heuristic_rounds {
                return Err(TrappError::Internal(format!(
                    "heuristic refresh did not converge in {} rounds",
                    self.heuristic_rounds
                )));
            }
        }
        let work = self.attribute(&plan)?;
        let requests = self.core.resolve_objects(&work, &mut self.ctx.locks)?;
        let deadline = self.deadline.map(|d| self.enqueued + d);
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
        self.core.observe_fetch(cost, took);
        self.install(outcomes, plan.complete)
    }

    /// Records the round in the query's [`Attribution`] — the final
    /// `Ready` pass sees pinned cells and reports nothing refreshed — and
    /// splits the plan's tuples by owning shard, in shard-local ids.
    fn attribute<'p>(&mut self, plan: &'p FetchPlan) -> Result<ShardWork<'p>, TrappError> {
        let router = &self.core.router;
        let mut work: ShardWork<'p> = vec![Vec::new(); router.shard_count()];
        self.attr.record(plan, |table, tid| {
            let (s, local, global) = match self.route {
                Route::Single(s) => (s, tid, router.shard(s).global_tid(table, tid)),
                Route::Scatter => {
                    let (s, local) = router.locate(table, tid)?;
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

    /// The install phase: everything that arrived goes in — every shard's
    /// batch, even from a failed shard, whose sources already narrowed
    /// their tracked bounds — before any failure surfaces: the first
    /// refusal to install, then a lost source. A clean round plans again;
    /// `complete` is the round's [`FetchPlan::complete`].
    fn install(
        &mut self,
        outcomes: Vec<(usize, FetchOutcome)>,
        complete: bool,
    ) -> Result<Phase, TrappError> {
        let started = Instant::now();
        let mut surviving = Vec::new();
        let mut failed = Vec::new();
        let mut refused = None;
        for (s, outcome) in outcomes {
            let shard = self.core.router.shard(s);
            let installed = self
                .ctx
                .locks
                .locked(shard, |cache| cache.install_refreshes(outcome.refreshes));
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
            Ok(Phase::Plan)
        } else {
            self.degrade(surviving, failed, complete)
        }
    }

    /// Degradation policy after a round lost sources. Strict refuses: with
    /// the blown deadline when every failure was a timeout past it,
    /// otherwise with the transport's error (one shard) or a
    /// `PartialResult` (scatter). BestEffort excludes the failed sources
    /// from the query's later plans and plans again over what is left —
    /// a recovery, not a re-widening, so the round is refunded.
    fn degrade(
        &mut self,
        surviving: Vec<usize>,
        failed: Vec<(usize, Vec<(SourceId, TrappError)>)>,
        complete: bool,
    ) -> Result<Phase, TrappError> {
        let first_error = failed[0].1[0].1.clone();
        if self.core.degradation == DegradationPolicy::BestEffort {
            self.fault_rounds += 1;
            if self.fault_rounds > MAX_REPLAN_ROUNDS {
                return Err(first_error);
            }
            let lost = failed
                .iter()
                .flat_map(|(_, fs)| fs.iter().map(|(src, _)| *src));
            self.failed.extend(lost);
            let refunded = if complete {
                &mut self.complete_rounds
            } else {
                &mut self.heuristic_rounds
            };
            *refunded = refunded.saturating_sub(1);
            return Ok(Phase::Plan);
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
            Route::Scatter => TrappError::PartialResult(Box::new(PartialFailure {
                surviving_shards: surviving,
                failed_shards: failed.iter().map(|(s, _)| *s).collect(),
                sources: failed
                    .into_iter()
                    .flat_map(|(_, fs)| fs)
                    .map(|(source, cause)| SourceFailure {
                        source,
                        cause: Box::new(cause),
                    })
                    .collect(),
            })),
        })
    }

    /// The answer phase. Strict never returns a late answer: past the
    /// deadline, or at the end of an honorable-width probe, the installs
    /// stand but the reply is the typed refusal. A constraint left unmet
    /// because sources are dark is refused (Strict) or degraded
    /// (BestEffort); one relaxed for load is degraded under either policy,
    /// naming the original ask. The bound contains the exact answer
    /// either way.
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
        let outcome = self.attr.patch(outcome);
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

/// Sources in ascending order.
fn sorted(sources: impl Iterator<Item = SourceId>) -> Vec<SourceId> {
    let mut sources: Vec<SourceId> = sources.collect();
    sources.sort();
    sources
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use crossbeam::channel::{unbounded, Receiver, Sender};
    use trapp_core::refresh::iterative::IterativeHeuristic;
    use trapp_core::ExecutionMode;
    use trapp_storage::{ColumnDef, Schema, Table};
    use trapp_system::message::Refresh;
    use trapp_system::{Completion, DirectTransport, Transport};
    use trapp_types::{BoundedValue, CacheId, ObjectId, SourceId, TrappError, Value, ValueType};

    use crate::admission::AdmissionConfig;
    use crate::service::{QueryService, ServiceBuilder, ServiceConfig};

    /// The SQL text at which `run_query` panics, before it takes any shard
    /// lock or gateway claim.
    pub(super) const PANIC_HOOK_SQL: &str = "-- panic in run_query";

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
        let (service, opened, release_tx) = gated_service(
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            &[(0, 1, 10.0), (0, 1, 20.0), (1, 2, 30.0), (1, 2, 40.0)],
        );
        // Declared after the service so that it drops first: a failing
        // assertion opens the gate before the service joins its workers.
        let release = release_tx;
        service.with_shard_cache(0, |cache| {
            cache.session_mut().config.mode =
                ExecutionMode::Iterative(IterativeHeuristic::BestRatio);
        });
        service.advance_clock(25.0);

        let iterative = service.submit("SELECT SUM(load) WITHIN 0 FROM metrics WHERE grp = 1");
        opened
            .recv_timeout(Duration::from_secs(10))
            .expect("the iterative query never fetched from source 2");
        let cached = service.submit("SELECT SUM(load) FROM metrics WHERE grp = 0");
        let reply = cached
            .rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the shard lock was held across an iterative fetch")
            .unwrap();
        assert!(reply.result.satisfied);
        assert_eq!(reply.round_trips, 0);

        drop(release);
        let reply = iterative.wait().unwrap();
        assert!(reply.result.answer.is_exact());
        assert_eq!(reply.result.answer.range.lo(), 70.0);
        assert_eq!(reply.result.rounds, 2);
        assert_eq!(reply.round_trips, 2);
    }

    /// `ServiceConfig::workers` caps executions across both entry points:
    /// with one permit, held by a `query()` whose fetch is open, a second
    /// caller's `query()` and a `submit()` ticket both wait (the admission
    /// gauge reads 2), a fourth query sheds at `reject_watermark: 2`, and
    /// the waiters run one at a time in admission order once the fetch
    /// is released.
    #[test]
    fn one_permit_gates_query_and_submit_in_admission_order() {
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
        // Callers on detached threads, and `release` declared after the
        // service so that it drops first: a failing assertion fails the
        // test rather than joining a caller stuck at the gate or a fetch.
        let service = Arc::new(service);
        let release = release;
        let caller = |grp: i64| {
            let service = service.clone();
            std::thread::spawn(move || service.query(sql(grp)))
        };

        let a = caller(1);
        assert_eq!(next_fetch(), objects(1));
        let b = caller(2);
        let admitted = Instant::now();
        while service.stats().queue_depth < 1 {
            assert!(
                admitted.elapsed() < Duration::from_secs(10),
                "B never admitted"
            );
            std::thread::yield_now();
        }
        let ticket = service.submit(sql(3));
        assert_eq!(service.stats().queue_depth, 2, "B and the ticket wait");
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
        exact_sum(ticket.wait(), 110.0);
        let stats = service.stats();
        assert_eq!((stats.queries, stats.errors, stats.queue_depth), (3, 1, 0));
    }

    /// A panic in `run_query` comes back from either entry point as a
    /// typed `Internal` error counted in `errors`; the permit is released
    /// and the worker lives, so the next queries answer correctly.
    #[test]
    fn a_panicking_query_is_a_typed_error_and_costs_no_permit_or_worker() {
        let (service, _opened, _release) = gated_service(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            &[(1, 1, 10.0), (1, 1, 20.0)],
        );
        // Dropped only on success: dropping joins the worker, which a
        // leaked permit would leave parked at the gate for good.
        let service = std::mem::ManuallyDrop::new(service);
        service.advance_clock(25.0);
        let panicked = |reply: Result<crate::ServiceReply, TrappError>| match reply {
            Err(TrappError::Internal(message)) => {
                assert!(message.starts_with("query panicked: "), "{message}");
            }
            other => panic!("expected a typed panic, got {other:?}"),
        };
        let within = Duration::from_secs(10);
        let exact = "SELECT SUM(load) WITHIN 0 FROM metrics WHERE grp = 1";

        panicked(service.query(PANIC_HOOK_SQL));
        // A leaked permit or a dead worker would make these time out.
        panicked(
            service
                .submit(PANIC_HOOK_SQL)
                .rx
                .recv_timeout(within)
                .unwrap(),
        );
        exact_sum(service.submit(exact).rx.recv_timeout(within).unwrap(), 30.0);
        exact_sum(service.query(exact), 30.0);

        let stats = service.stats();
        assert_eq!((stats.queries, stats.errors, stats.queue_depth), (2, 2, 0));
        assert_eq!(service.workers.len(), 1);
        assert!(service.workers.iter().all(|w| !w.is_finished()));
        drop(std::mem::ManuallyDrop::into_inner(service));
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

    /// After shutdown both entry points answer with the typed error.
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
        assert_eq!(
            service
                .submit("SELECT SUM(load) FROM metrics")
                .wait()
                .unwrap_err(),
            shut_down
        );
    }
}
