//! Shape-generic query planning: one [`QueryPlan`] every query shape
//! lowers into, and one [`QueryPartial`] every shape decomposes into for
//! sharded scatter-gather.
//!
//! Each shape's lowering:
//!
//! * **scalar** (single table, no `GROUP BY`) — one [`UnitState`] holding
//!   the cache-only answer and, if unsatisfied, the batch CHOOSE_REFRESH
//!   fetch set. Installing the set guarantees the constraint
//!   ([`FetchPlan::complete`]), so one fetch round normally suffices.
//! * **grouped** (§8.1) — one [`UnitState`] *per group*: the group key
//!   partitions the rows, each partition independently receives the
//!   query's `WITHIN` constraint, and the per-group fetch sets are
//!   disjoint (groups partition the table), so a serving layer merges
//!   them into one multi-tuple fetch round.
//! * **join** (§7) — the paper stops at per-round heuristics for join
//!   refresh, so a join lowers into *incomplete* fetch rounds
//!   ([`FetchPlan::complete`]` = false`): each round the best base-tuple
//!   candidates under the session's [`IterativeHeuristic`] are fetched
//!   and the plan re-derived. The fetches still run outside any cache
//!   lock — that is the point.
//!
//! Iterative mode (§8.2, [`ExecutionMode::Iterative`]) turns the scalar
//! and grouped shapes into incomplete rounds too: each unsatisfied unit
//! asks for the one tuple [`next_refresh`] ranks first over the bounds
//! installed so far, the caller fetches and installs the round, and plans
//! again until the answer meets `R` or no refresh can help. Joins plan
//! the same heuristic rounds in either mode.
//!
//! The scatter side mirrors the same three shapes: a scalar partial is
//! today's [`ShardPartial`], a grouped partial is a key-indexed list of
//! them (merged per key by
//! [`merge_grouped_partials`](crate::merge::merge_grouped_partials)), and
//! a join partial is a [`TableSlice`] per side — the shard's materialized
//! base rows, gathered and concatenated by
//! [`merge_table_slices`](crate::merge::merge_table_slices) into exactly
//! the tables a single cache would hold, before the ordinary join
//! pipeline derives bounds once from the merged input. Deriving from
//! merged *inputs* (never from per-shard answers) is what keeps sharded
//! answers bit-equivalent to the single-cache answers.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::OnceLock;

use trapp_sql::Query;
use trapp_storage::Table;
use trapp_types::{BoundedValue, TrappError, TupleId};

use crate::agg::{bounded_answer, AggInput, Aggregate, BoundedAnswer};
use crate::executor::{ExecutionMode, QueryResult, QuerySession, SessionConfig};
use crate::group_by::{render_key, GroupKey, GroupResult};
use crate::merge::ShardPartial;
use crate::plan::{bind_query, BoundQuery, QuerySource};
use crate::refresh::iterative::{next_refresh, IterativeHeuristic};
use crate::refresh::join::{build_join_input, join_refresh_batch, JoinInput, JoinSide};
use crate::refresh::{fold_allowance, plan_refresh, PlanProbe};

/// Tuples the planner must not schedule for refresh, keyed by table —
/// typically because their backing source is dark (circuit breaker open,
/// or it already failed this query). CHOOSE_REFRESH then picks the
/// cheapest refresh set over *available* tuples and reports whether the
/// precision constraint is still guaranteeable ([`UnitState::degraded`]).
#[derive(Clone, Debug, Default)]
pub struct Exclusions {
    by_table: HashMap<String, HashSet<TupleId>>,
}

impl Exclusions {
    /// `true` when no tuple is excluded anywhere — planning is then
    /// bit-identical to the exclusion-free paths.
    pub fn is_empty(&self) -> bool {
        self.by_table.values().all(HashSet::is_empty)
    }

    /// Marks one tuple of `table` as unavailable.
    pub fn insert(&mut self, table: &str, tid: TupleId) {
        self.by_table
            .entry(table.to_owned())
            .or_default()
            .insert(tid);
    }

    /// Marks a batch of `table`'s tuples as unavailable.
    pub fn extend(&mut self, table: &str, tids: impl IntoIterator<Item = TupleId>) {
        self.by_table
            .entry(table.to_owned())
            .or_default()
            .extend(tids);
    }

    /// The excluded tuples of `table` (the shared empty set when none).
    pub fn for_table(&self, table: &str) -> &HashSet<TupleId> {
        self.by_table
            .get(table)
            .unwrap_or_else(|| empty_tuple_set())
    }
}

/// The shared empty exclusion set (`&'static` so lookups can hand out a
/// reference without holding storage per [`Exclusions`]).
pub(crate) fn empty_tuple_set() -> &'static HashSet<TupleId> {
    static EMPTY: OnceLock<HashSet<TupleId>> = OnceLock::new();
    EMPTY.get_or_init(HashSet::new)
}

/// The complete result(s) of one query: a single bounded answer, or one
/// per group for `GROUP BY` queries (key-sorted).
#[derive(Clone, Debug)]
pub enum QueryOutcome {
    /// A single-row answer (scalar and join queries).
    Scalar(QueryResult),
    /// One result per group, in deterministic key-sorted order.
    Grouped(Vec<GroupResult>),
}

/// The tuples one unsatisfied unit (whole query, or one group) must have
/// refreshed, with the planned cost.
#[derive(Clone, Debug)]
pub struct UnitFetch {
    /// The table holding the tuples (for joins, the chosen side).
    pub table: String,
    /// Tuples to refresh, ascending.
    pub tuples: Vec<TupleId>,
    /// `Σ Cᵢ` over the tuples.
    pub refresh_cost: f64,
}

/// One plannable unit's state at planning time: the whole query for
/// scalar/join shapes, one group for grouped shapes.
#[derive(Clone, Debug)]
pub struct UnitState {
    /// The group key (empty for scalar and join units).
    pub key: GroupKey,
    /// The cache-only answer at planning time.
    pub initial: BoundedAnswer,
    /// Whether `initial` already satisfies the constraint. `false` with
    /// [`UnitState::fetch`]` = None` means no refresh can help further
    /// (e.g. MEDIAN's conservative plan under cardinality slack).
    pub satisfied: bool,
    /// `true` when the constraint cannot be guaranteed by refreshing
    /// *available* tuples only — some tuple every sufficient refresh set
    /// needs is excluded (dark source). The fetch, if any, is then the
    /// best-effort maximal narrowing over available tuples. Always `false`
    /// when planning without [`Exclusions`].
    pub degraded: bool,
    /// The refresh set that will satisfy the constraint (`None` when
    /// satisfied or when no refresh can help).
    pub fetch: Option<UnitFetch>,
}

/// The fetch round a query plan requests: per-unit refresh sets to pull
/// from the sources with no cache lock held, then install and re-plan.
#[derive(Clone, Debug)]
pub struct FetchPlan {
    /// Every unit's state — including already-satisfied units, so a
    /// caller can record each unit's true pre-refresh initial answer.
    pub units: Vec<UnitState>,
    /// `true` for `GROUP BY` plans (units carry group keys).
    pub grouped: bool,
    /// `true` when installing the whole round guarantees the constraint
    /// (the CHOOSE_REFRESH batch guarantee — scalar and grouped shapes in
    /// batch mode); `false` for heuristic rounds — join rounds, and every
    /// round of iterative mode (§8.2) — which re-plan until the answer
    /// converges.
    pub complete: bool,
}

/// The outcome of planning a query read-only — the shape-generic
/// replacement for the old `PlannedQuery` / `PartialQuery` pair. See the
/// module docs.
#[derive(Clone, Debug)]
pub enum QueryPlan {
    /// Every unit is satisfied from cache (or no refresh can help); here
    /// is the complete outcome.
    Ready(QueryOutcome),
    /// Refresh the units' tuples (outside any cache lock), install, and
    /// plan again.
    NeedsFetch(FetchPlan),
}

/// One shard's materialized rows of one base table — the join partial's
/// per-side payload. Tuple ids are shard-local until the caller rewrites
/// them into the global space; rows travel with their refresh costs so
/// the merged table prices candidates exactly like the single cache.
#[derive(Clone, Debug)]
pub struct TableSlice {
    /// The sliced table.
    pub table: String,
    /// `(tuple id, materialized cells, refresh cost)` in scan order.
    pub rows: Vec<(TupleId, Vec<BoundedValue>, f64)>,
}

impl TableSlice {
    /// Rewrites every row's tuple id via `f` (shard-local → global).
    pub fn rewrite_tids(&mut self, mut f: impl FnMut(TupleId) -> TupleId) {
        for (tid, _, _) in &mut self.rows {
            *tid = f(*tid);
        }
    }
}

/// One shard's contribution to a scatter-gathered two-table join: its
/// slice of each side's base rows. The gather side concatenates all
/// shards' slices with
/// [`merge_table_slices`](crate::merge::merge_table_slices) and runs the
/// ordinary join pipeline over the merged tables.
#[derive(Clone, Debug)]
pub struct JoinPartial {
    /// The first FROM table's rows held by this shard.
    pub left: TableSlice,
    /// The second FROM table's rows held by this shard.
    pub right: TableSlice,
}

/// One shard's contribution to a scatter-gathered query, for every
/// supported shape — the shape-generic replacement for the old
/// `PartialQuery`.
#[derive(Clone, Debug)]
pub enum QueryPartial {
    /// Single-table scalar: the shard's evaluated [`AggInput`], ready for
    /// [`merge_partials`](crate::merge::merge_partials).
    Scalar(ShardPartial),
    /// `GROUP BY`: one [`ShardPartial`] per group held on this shard,
    /// key-sorted; merged per key by
    /// [`merge_grouped_partials`](crate::merge::merge_grouped_partials).
    Grouped(Vec<(GroupKey, ShardPartial)>),
    /// Two-table join: the shard's slice of each side's base rows.
    Join(JoinPartial),
}

/// Plans one scalar unit (a whole single-table query, or one group):
/// given the cache-only answer `initial` — `bounded_answer(agg, input)`,
/// which [`QuerySession::plan_query`] takes from its view's memo and a
/// sharded serving layer folds over the merged input — derives, if the
/// constraint is unmet, the refresh set that will meet it: in batch mode
/// the one CHOOSE_REFRESH entry, [`plan_refresh`], in iterative mode
/// (§8.2) the one tuple [`next_refresh`] picks under the session's
/// heuristic. Shared by [`QuerySession::plan_query`] (local inputs, with
/// ordered-index `probe`s), the scan reference and sharded serving layers
/// (merged inputs, `probe = None`) — all derive bit-identical plans (the
/// probed paths reproduce the scan exactly).
///
/// `excluded` names tuples of `table` that cannot be refreshed (dark
/// sources): CHOOSE_REFRESH plans over the rest, or iterative mode skips
/// them, and [`UnitState::degraded`] reports whether the constraint is
/// still guaranteeable over available tuples (in iterative mode: no
/// available refresh helps while some tuple is excluded).
#[allow(clippy::too_many_arguments)]
pub fn plan_unit(
    agg: Aggregate,
    within: Option<f64>,
    config: &SessionConfig,
    table: &str,
    key: GroupKey,
    input: &AggInput,
    initial: BoundedAnswer,
    probe: Option<&PlanProbe<'_>>,
    excluded: &HashSet<TupleId>,
) -> Result<UnitState, TrappError> {
    if initial.satisfies(within) {
        return Ok(UnitState {
            key,
            initial,
            satisfied: true,
            degraded: false,
            fetch: None,
        });
    }
    let r = within.expect("unsatisfied implies finite R");
    let (tuples, refresh_cost, achievable) = match config.mode {
        ExecutionMode::Batch => {
            let planned = plan_refresh(agg, input, r, config.strategy, probe, excluded)?;
            let plan = planned.plan;
            (plan.tuples, plan.planned_cost, planned.achievable)
        }
        ExecutionMode::Iterative(heuristic) => {
            match next_refresh(agg, input, r, heuristic, excluded) {
                Some(tid) => {
                    let item = input.items.iter().find(|i| i.tid == tid);
                    (vec![tid], item.map_or(0.0, |i| i.cost), true)
                }
                None => (Vec::new(), 0.0, excluded.is_empty()),
            }
        }
    };
    if tuples.is_empty() {
        // No refresh can help further (e.g. cardinality slack, or every
        // useful tuple sits on a dark source).
        return Ok(UnitState {
            key,
            initial,
            satisfied: false,
            degraded: !achievable,
            fetch: None,
        });
    }
    Ok(UnitState {
        key,
        initial,
        satisfied: false,
        degraded: !achievable,
        fetch: Some(UnitFetch {
            table: table.to_owned(),
            tuples,
            refresh_cost,
        }),
    })
}

/// Assembles unit states into a [`QueryPlan`]: a fetch round if any unit
/// still needs tuples — complete in batch mode, one heuristic round in
/// iterative mode — the finished outcome otherwise.
pub fn assemble_units(units: Vec<UnitState>, grouped: bool, mode: ExecutionMode) -> QueryPlan {
    if units.iter().any(|u| u.fetch.is_some()) {
        QueryPlan::NeedsFetch(FetchPlan {
            units,
            grouped,
            complete: mode == ExecutionMode::Batch,
        })
    } else {
        QueryPlan::Ready(units_outcome(&units, grouped))
    }
}

/// The finished outcome of units that need no refresh: each unit's
/// cache-only answer *is* its answer.
pub fn units_outcome(units: &[UnitState], grouped: bool) -> QueryOutcome {
    let result = |u: &UnitState| QueryResult {
        answer: u.initial,
        initial_answer: u.initial,
        refreshed: Vec::new(),
        refresh_cost: 0.0,
        rounds: 0,
        satisfied: u.satisfied,
    };
    if grouped {
        QueryOutcome::Grouped(
            units
                .iter()
                .map(|u| GroupResult {
                    key: u.key.clone(),
                    result: result(u),
                })
                .collect(),
        )
    } else {
        QueryOutcome::Scalar(result(&units[0]))
    }
}

/// What each unit (whole query, or one group) paid for across a query's
/// fetch rounds. A loop pays round by round, but the final
/// [`QueryPlan::Ready`] pass sees pinned cells and reports nothing
/// refreshed; this records what the query actually planned and paid for,
/// keyed by rendered group key, and patches it into the final outcome.
/// [`QuerySession::drive`] and the serving layer's loop both keep one.
#[derive(Default)]
pub struct Attribution {
    units: HashMap<String, UnitPaid>,
}

#[derive(Default)]
struct UnitPaid {
    /// The unit's cache-only answer from its first planning round.
    initial: Option<BoundedAnswer>,
    /// Tuples refreshed, each reported once, in the order first planned.
    refreshed: Vec<(String, TupleId)>,
    /// `refreshed` by table, for the once-only check.
    seen: HashMap<String, HashSet<TupleId>>,
    /// Total planned refresh cost.
    cost: f64,
    /// Rounds in which this unit fetched something.
    rounds: usize,
}

impl Attribution {
    /// Records one fetch round: each unit's first cache-only answer, its
    /// planned cost, one round per unit key that fetched, and its tuples.
    /// `report` sees every planned tuple in plan order and returns the id
    /// the outcome reports it under (a serving layer maps shard-local ids
    /// to global ones there, and splits the round by shard as it goes).
    pub fn record<'p>(
        &mut self,
        plan: &'p FetchPlan,
        mut report: impl FnMut(&'p str, TupleId) -> Result<TupleId, TrappError>,
    ) -> Result<(), TrappError> {
        // A batched join round may split one unit's picks across several
        // same-key units (one per side-run); that is still one refresh
        // round for the unit, counted once per key.
        let mut counted: HashSet<String> = HashSet::new();
        for unit in &plan.units {
            let rendered = render_key(&unit.key);
            let entry = self.units.entry(rendered.clone()).or_default();
            entry.initial.get_or_insert(unit.initial);
            let Some(fetch) = &unit.fetch else { continue };
            entry.cost += fetch.refresh_cost;
            if counted.insert(rendered) {
                entry.rounds += 1;
            }
            let seen = entry.seen.entry(fetch.table.clone()).or_default();
            for &tid in &fetch.tuples {
                // A later round (a concurrent clock advance) may re-plan a
                // tuple already refreshed; report each tuple once.
                let reported = report(&fetch.table, tid)?;
                if seen.insert(reported) {
                    entry.refreshed.push((fetch.table.clone(), reported));
                }
            }
        }
        Ok(())
    }

    /// Patches the recorded attribution into the final outcome.
    pub fn patch(&self, outcome: QueryOutcome) -> QueryOutcome {
        let patch = |result: &mut QueryResult, rendered: &str| {
            if let Some(a) = self.units.get(rendered) {
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
}

/// Plans one round of a two-table join: computes the bounded answer(s)
/// over the (possibly merged) base tables and, if a constraint is unmet,
/// picks the next base tuples to refresh under `heuristic` — an
/// *incomplete* plan the caller re-derives after installing the fetch.
/// Shared by [`QuerySession::plan_query`] (local tables) and sharded
/// serving layers (tables merged from [`TableSlice`]s), so both walk the
/// identical refresh sequence.
///
/// With `batch = true` — what [`QuerySession::plan_query`] and serving
/// layers pass, in either [`ExecutionMode`] — each round carries the whole
/// provable prefix of the sequential pick order
/// ([`crate::refresh::join::join_refresh_batch`]), collapsing round counts
/// without changing any answer; `batch = false` is the §7
/// one-tuple-per-round sequence the scan reference planner
/// ([`QuerySession::plan_scan`]) takes. A `GROUP BY` bound query
/// partitions the joined pairs by group key and plans every group's round
/// in one pass; a base tuple picked by several groups is fetched once
/// (first group in key order wins — later groups re-plan against the
/// already-pinned cells next round).
///
/// `exclusions` removes dark-source base tuples from the candidate pool
/// on both sides; rounds then pick the best *available* refreshes and a
/// serving layer detects degradation when the final answer stays
/// unsatisfied with exclusions in force.
pub fn plan_join_round(
    bound: &BoundQuery,
    left: &Table,
    right: &Table,
    heuristic: IterativeHeuristic,
    // `false` is the scan reference's; the benchmark's `traced.rs` pins
    // the parameter.
    batch: bool,
    exclusions: &Exclusions,
) -> Result<QueryPlan, TrappError> {
    let QuerySource::Join {
        left: lname,
        right: rname,
    } = &bound.source
    else {
        return Err(TrappError::Internal(
            "plan_join_round requires a join-shaped bound query".into(),
        ));
    };
    let ji = build_join_input(
        left,
        right,
        bound.predicate.as_ref(),
        bound.arg.as_ref(),
        &bound.group_by,
    )?;

    // The sequential-order pick list for one unit's join input: the whole
    // provable prefix when batching, the heuristic argmax otherwise.
    // Excluded tuples never enter the candidate pool on either side.
    let (lex, rex) = (exclusions.for_table(lname), exclusions.for_table(rname));
    let picks_for = |unit: &JoinInput, answer: &BoundedAnswer| -> Vec<(JoinSide, TupleId)> {
        // Deficit 0 makes the batch walk stop after the heuristic's
        // argmax — exactly the one-tuple round. A batch pick must leave
        // the refolded answer provably unmet, so the deficit pays the
        // fold's rounding allowance twice (before and after the picks).
        let deficit = match (batch, bound.agg) {
            (false, _) => 0.0,
            (true, agg) => {
                let r = bound.within.unwrap_or(f64::INFINITY);
                let rounding = if agg == Aggregate::Sum {
                    2.0 * fold_allowance(&unit.input)
                } else {
                    0.0
                };
                answer.width() - r - rounding
            }
        };
        let picks = join_refresh_batch(unit, left, right, bound.agg, heuristic, deficit, lex, rex);
        if batch {
            picks
        } else {
            picks.into_iter().take(1).collect()
        }
    };
    // Consecutive same-side picks share one fetch unit, so the flattened
    // unit order replays the sequential pick order exactly.
    let units_for = |key: &GroupKey,
                     initial: BoundedAnswer,
                     picks: &[(JoinSide, TupleId)]|
     -> Result<Vec<UnitState>, TrappError> {
        let mut units: Vec<UnitState> = Vec::new();
        for &(side, tid) in picks {
            let (table, cost) = match side {
                JoinSide::Left => (lname.as_str(), left.cost(tid)?),
                JoinSide::Right => (rname.as_str(), right.cost(tid)?),
            };
            match units.last_mut() {
                Some(u) if u.fetch.as_ref().is_some_and(|f| f.table == table) => {
                    let fetch = u.fetch.as_mut().expect("guarded");
                    fetch.tuples.push(tid);
                    fetch.refresh_cost += cost;
                }
                _ => units.push(UnitState {
                    key: key.clone(),
                    initial,
                    satisfied: false,
                    degraded: false,
                    fetch: Some(UnitFetch {
                        table: table.to_owned(),
                        tuples: vec![tid],
                        refresh_cost: cost,
                    }),
                }),
            }
        }
        Ok(units)
    };

    // A `GROUP BY` partitions the joined pairs by group key and gives each
    // group the query's constraint independently (§8.1 semantics, over
    // joined pairs instead of base rows). Groups are keyed by their
    // rendered form for a deterministic, merge-compatible order.
    let grouped = !bound.group_by.is_empty();
    let subs: Vec<(GroupKey, JoinInput)> = if grouped {
        let mut groups: BTreeMap<String, (GroupKey, Vec<usize>)> = BTreeMap::new();
        for (k, key) in ji.group_keys.iter().enumerate() {
            groups
                .entry(render_key(key))
                .or_insert_with(|| (key.clone(), Vec::new()))
                .1
                .push(k);
        }
        groups
            .into_values()
            .map(|(key, item_ids)| {
                let sub = JoinInput {
                    input: AggInput::new(
                        item_ids.iter().map(|&k| ji.input.items[k]).collect(),
                        0,
                        (0, 0),
                    ),
                    pairs: item_ids.iter().map(|&k| ji.pairs[k]).collect(),
                    group_keys: Vec::new(),
                    left_arity: ji.left_arity,
                    arg_cols: ji.arg_cols.clone(),
                    pred_cols: ji.pred_cols.clone(),
                };
                (key, sub)
            })
            .collect()
    } else {
        vec![(Vec::new(), ji)]
    };
    let mut units: Vec<UnitState> = Vec::new();
    let mut picked: HashSet<(JoinSide, TupleId)> = HashSet::new();
    for (key, sub) in subs {
        let answer = bounded_answer(bound.agg, &sub.input)?;
        let satisfied = answer.satisfies(bound.within);
        let picks: Vec<(JoinSide, TupleId)> = if satisfied {
            Vec::new()
        } else {
            // A tuple another group already claimed this round is fetched
            // once; this group re-plans against the refreshed cells.
            picks_for(&sub, &answer)
                .into_iter()
                .filter(|p| picked.insert(*p))
                .collect()
        };
        if picks.is_empty() {
            units.push(UnitState {
                key,
                initial: answer,
                satisfied,
                degraded: false,
                fetch: None,
            });
        } else {
            units.extend(units_for(&key, answer, &picks)?);
        }
    }
    Ok(if units.iter().any(|u| u.fetch.is_some()) {
        QueryPlan::NeedsFetch(FetchPlan {
            units,
            grouped,
            complete: false,
        })
    } else {
        QueryPlan::Ready(units_outcome(&units, grouped))
    })
}

impl QuerySession {
    /// Plans a query read-only: lowers any supported shape — scalar,
    /// `GROUP BY`, or two-table join, in either [`ExecutionMode`] — into a
    /// [`QueryPlan`] without touching the catalog or any oracle. Callers
    /// install the planned refreshes themselves (e.g. a concurrent serving
    /// layer fetching with its cache lock released) and plan again; for
    /// complete (batch scalar/grouped) plans the CHOOSE_REFRESH guarantee
    /// makes the second pass [`QueryPlan::Ready`] unless the clock
    /// advanced in between, while join plans and iterative rounds are
    /// heuristic steps that converge over several iterations.
    pub fn plan_query(&self, query: &Query) -> Result<QueryPlan, TrappError> {
        self.plan_query_excluding(query, &Exclusions::default())
    }

    /// [`QuerySession::plan_query`] with dark-source tuples removed from
    /// every CHOOSE_REFRESH candidate pool. With `exclusions` empty this
    /// is bit-identical to [`QuerySession::plan_query`]; otherwise units
    /// are planned over *available* tuples only and report
    /// [`UnitState::degraded`] when the constraint is no longer
    /// guaranteeable.
    pub fn plan_query_excluding(
        &self,
        query: &Query,
        exclusions: &Exclusions,
    ) -> Result<QueryPlan, TrappError> {
        self.plan_bound_excluding(&bind_query(query, self.catalog())?, exclusions)
    }

    /// [`QuerySession::plan_query_excluding`] for a query already bound
    /// against this session's catalog — for callers that read the bound
    /// shape before planning (a cache deciding which rows to bring up to
    /// date) and should not bind twice.
    pub fn plan_bound_excluding(
        &self,
        bound: &BoundQuery,
        exclusions: &Exclusions,
    ) -> Result<QueryPlan, TrappError> {
        match &bound.source {
            QuerySource::Table(name) if bound.group_by.is_empty() => {
                let table = self.catalog().table(name)?;
                let probe = table_probe(table, bound);
                let mut views = self.views();
                let view = views.view_for(name, bound);
                view.sync(table)?;
                let initial = view.answer(bound.agg)?;
                let unit = plan_unit(
                    bound.agg,
                    bound.within,
                    &self.config,
                    name,
                    Vec::new(),
                    view.input(),
                    initial,
                    Some(&probe),
                    exclusions.for_table(name),
                )?;
                Ok(assemble_units(vec![unit], false, self.config.mode))
            }
            QuerySource::Table(name) => {
                let table = self.catalog().table(name)?;
                // A group filter restricts the input, so only the COUNT
                // cost-index probe (membership-checked) stays eligible.
                let probe = PlanProbe {
                    table,
                    column: None,
                    unfiltered: false,
                };
                let mut views = self.views();
                let view = views.view_for(name, bound);
                view.sync(table)?;
                // Every group's input and answer stand in the view; only
                // the groups a change landed in were repaired by `sync`.
                let mut units = Vec::with_capacity(view.group_count());
                for rank in 0..view.group_count() {
                    let initial = view.group_answer(rank, bound.agg)?;
                    let (key, input) = view.group(rank);
                    units.push(plan_unit(
                        bound.agg,
                        bound.within,
                        &self.config,
                        name,
                        key.clone(),
                        input,
                        initial,
                        Some(&probe),
                        exclusions.for_table(name),
                    )?);
                }
                Ok(assemble_units(units, true, self.config.mode))
            }
            QuerySource::Join { left, right } => plan_join_round(
                bound,
                self.catalog().table(left)?,
                self.catalog().table(right)?,
                self.config.join_heuristic,
                true,
                exclusions,
            ),
        }
    }

    /// Builds this session's contribution to a scatter-gathered query:
    /// the shape-generic [`QueryPartial`] over the locally held rows,
    /// read-only. A sharded serving layer collects one partial per shard,
    /// rewrites tuple ids into a global space, merges them (see
    /// [`crate::merge`]), and derives answers and refresh plans once from
    /// the merged input — bit-identical to a single cache holding every
    /// row.
    pub fn partial_query(&self, query: &Query) -> Result<QueryPartial, TrappError> {
        self.partial_bound(&bind_query(query, self.catalog())?)
    }

    /// [`partial_query`](QuerySession::partial_query) for a query already
    /// bound: a serving layer binds once per scatter pass and asks every
    /// shard with the one binding (every shard holds the same schemas).
    pub fn partial_bound(&self, bound: &BoundQuery) -> Result<QueryPartial, TrappError> {
        match &bound.source {
            QuerySource::Table(name) if bound.group_by.is_empty() => {
                let table = self.catalog().table(name)?;
                let mut views = self.views();
                let view = views.view_for(name, bound);
                view.sync(table)?;
                let input = view.input().clone();
                Ok(QueryPartial::Scalar(ShardPartial {
                    table: name.clone(),
                    agg: bound.agg,
                    within: bound.within,
                    input,
                }))
            }
            QuerySource::Table(name) => {
                let table = self.catalog().table(name)?;
                let mut views = self.views();
                let view = views.view_for(name, bound);
                view.sync(table)?;
                let groups = (0..view.group_count())
                    .map(|rank| {
                        let (key, input) = view.group(rank);
                        let partial = ShardPartial {
                            table: name.clone(),
                            agg: bound.agg,
                            within: bound.within,
                            input: input.clone(),
                        };
                        (key.clone(), partial)
                    })
                    .collect();
                Ok(QueryPartial::Grouped(groups))
            }
            QuerySource::Join { left, right } => Ok(QueryPartial::Join(JoinPartial {
                left: table_slice(self.catalog().table(left)?)?,
                right: table_slice(self.catalog().table(right)?)?,
            })),
        }
    }
}

/// The index probe for a whole-table scalar unit: eligible for the
/// endpoint/width paths only when no predicate filters the table and the
/// aggregation argument is a bare column.
fn table_probe<'a>(table: &'a Table, bound: &BoundQuery) -> PlanProbe<'a> {
    PlanProbe {
        table,
        column: match &bound.arg {
            Some(trapp_expr::Expr::Column(c)) => Some(*c),
            _ => None,
        },
        unfiltered: bound.predicate.is_none(),
    }
}

/// Slices a table into its materialized rows (cells + refresh costs).
fn table_slice(table: &Table) -> Result<TableSlice, TrappError> {
    let mut rows = Vec::with_capacity(table.len());
    for (tid, row) in table.scan() {
        rows.push((tid, row.cells().to_vec(), table.cost(tid)?));
    }
    Ok(TableSlice {
        table: table.name().to_owned(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::test_fixture::*;
    use crate::executor::TableOracle;
    use trapp_types::Interval;

    fn parse(sql: &str) -> Query {
        trapp_sql::parse_query(sql).unwrap()
    }

    /// Scalar lowering matches the old `plan_query` semantics: satisfied
    /// from cache → Ready; otherwise one complete fetch round whose
    /// installation satisfies the constraint.
    #[test]
    fn scalar_lowering_round_trips() {
        let s = QuerySession::new(links_table());
        match s
            .plan_query(&parse("SELECT SUM(latency) WITHIN 100 FROM links"))
            .unwrap()
        {
            QueryPlan::Ready(QueryOutcome::Scalar(r)) => {
                assert!(r.satisfied);
                assert_eq!(r.answer.range, Interval::new(40.0, 55.0).unwrap());
            }
            other => panic!("expected ready scalar, got {other:?}"),
        }
        match s
            .plan_query(&parse(
                "SELECT MIN(bandwidth) WITHIN 10 FROM links WHERE on_path = TRUE",
            ))
            .unwrap()
        {
            QueryPlan::NeedsFetch(fp) => {
                assert!(fp.complete && !fp.grouped);
                assert_eq!(fp.units.len(), 1);
                let fetch = fp.units[0].fetch.as_ref().unwrap();
                assert_eq!(fetch.table, "links");
                assert_eq!(fetch.tuples, vec![TupleId::new(5)]);
                assert_eq!(fetch.refresh_cost, 4.0);
                assert_eq!(
                    fp.units[0].initial.range,
                    Interval::new(40.0, 55.0).unwrap()
                );
            }
            other => panic!("expected fetch, got {other:?}"),
        }
    }

    /// Grouped lowering: one unit per group, disjoint fetch sets, and the
    /// per-group plans match what `execute_grouped` would refresh.
    #[test]
    fn grouped_lowering_plans_per_group() {
        let s = QuerySession::new(links_table());
        let q = parse("SELECT SUM(latency) WITHIN 3 FROM links GROUP BY from_node");
        let QueryPlan::NeedsFetch(fp) = s.plan_query(&q).unwrap() else {
            panic!("tight grouped query must need fetches");
        };
        assert!(fp.grouped && fp.complete);
        // from_node values 1..5 → 5 groups, key-sorted, all present.
        assert_eq!(fp.units.len(), 5);
        let keys: Vec<String> = fp.units.iter().map(|u| format!("{}", u.key[0])).collect();
        assert_eq!(keys, vec!["1", "2", "3", "4", "5"]);
        // Group "2" (tuples 2 and 4) has initial width 4 > 3: must fetch.
        assert!(fp.units[1].fetch.is_some());
        // Fetch sets are disjoint (groups partition the table).
        let mut seen = std::collections::HashSet::new();
        for u in &fp.units {
            if let Some(f) = &u.fetch {
                for t in &f.tuples {
                    assert!(seen.insert(*t), "tuple {t} planned twice");
                }
            }
        }
        // Executing the same query refreshes exactly the planned tuples.
        let mut s2 = QuerySession::new(links_table());
        let mut o = TableOracle::from_table(master_table());
        let groups = s2.execute_grouped(&q, &mut o).unwrap();
        let executed: std::collections::HashSet<TupleId> = groups
            .iter()
            .flat_map(|g| g.result.refreshed.iter().map(|(_, t)| *t))
            .collect();
        assert_eq!(seen, executed);
    }

    /// Join lowering: heuristic rounds that, driven against an oracle,
    /// converge to the same refresh sequence as the executor, whose scan
    /// reference takes the §7 one-tuple rounds. The batched rounds
    /// [`QuerySession::plan_query`] plans (what serving layers run) replay
    /// that sequence bit for bit and take no more rounds.
    #[test]
    fn join_rounds_replay_the_executor_sequence() {
        let q = parse(
            "SELECT SUM(latency) WITHIN 2 FROM links, nodes \
             WHERE from_node = node_id AND cpu_load < 0.7",
        );
        let (mut exec_session, mut exec_oracle) = join_fixture();
        let reference = exec_session.execute(&q, &mut exec_oracle).unwrap();
        assert_eq!(
            reference.rounds,
            reference.refreshed.len(),
            "one tuple per one-tuple round"
        );

        let (mut s, mut oracle) = join_fixture();
        let outcome = s
            .drive(&mut oracle, |s| {
                let plan = s.plan_query(&q);
                if let Ok(QueryPlan::NeedsFetch(fp)) = &plan {
                    assert!(!fp.complete, "join plans are heuristic rounds");
                }
                plan
            })
            .unwrap();
        let QueryOutcome::Scalar(batched) = outcome else {
            panic!("unexpected outcome {outcome:?}");
        };
        assert_eq!(batched.answer.range, reference.answer.range);
        assert_eq!(
            batched.refreshed, reference.refreshed,
            "batched rounds must replay the one-tuple sequence exactly"
        );
        assert!(
            batched.rounds <= reference.rounds,
            "batching must not add rounds ({} > {})",
            batched.rounds,
            reference.rounds
        );
    }

    /// Grouped join lowering: per-group units with disjoint picks, and the
    /// session executor refreshes exactly the planned tuples.
    #[test]
    fn grouped_join_lowering_plans_per_group() {
        let q = parse(
            "SELECT SUM(latency) WITHIN 1 FROM links, nodes \
             WHERE from_node = node_id GROUP BY from_node",
        );
        let (s, _) = join_fixture();
        let QueryPlan::NeedsFetch(fp) = s.plan_query(&q).unwrap() else {
            panic!("tight grouped join must need fetches");
        };
        assert!(fp.grouped && !fp.complete);
        // node_id values 1, 2 match from_node 1, 2 → 2 groups, key-sorted.
        let keys: Vec<String> = fp.units.iter().map(|u| format!("{}", u.key[0])).collect();
        assert_eq!(keys, vec!["1", "2"]);
        // Cross-group dedupe: no tuple appears in two groups' fetches.
        let mut seen = std::collections::HashSet::new();
        for u in &fp.units {
            if let Some(f) = &u.fetch {
                for t in &f.tuples {
                    assert!(seen.insert((f.table.clone(), *t)), "tuple planned twice");
                }
            }
        }
        // The session executor converges on the same shape, one tuple per
        // group per round (the §7 reference).
        let (mut s2, mut o) = join_fixture();
        let groups = s2.execute_grouped(&q, &mut o).unwrap();
        assert_eq!(groups.len(), 2);
        for g in &groups {
            assert!(g.result.satisfied, "group {:?} unsatisfied", g.key);
            assert!(g.result.answer.width() <= 1.0);
            assert_eq!(g.result.rounds, g.result.refreshed.len(), "{:?}", g.key);
        }
    }

    /// Iterative mode (§8.2) lowers into incomplete rounds of one tuple
    /// per unsatisfied unit; driving the view planner's rounds walks
    /// exactly the scan reference's iterative rounds — same tuples in the
    /// same order, same cost, same rounds, same answer — for scalar and
    /// grouped queries alike.
    #[test]
    fn iterative_rounds_replay_the_executor_loop() {
        let iterative = ExecutionMode::Iterative(IterativeHeuristic::BestRatio);
        let keyed = |outcome: QueryOutcome| -> Vec<(String, QueryResult)> {
            match outcome {
                QueryOutcome::Scalar(r) => vec![(String::new(), r)],
                QueryOutcome::Grouped(gs) => gs
                    .into_iter()
                    .map(|g| (render_key(&g.key), g.result))
                    .collect(),
            }
        };
        for sql in [
            "SELECT SUM(traffic) WITHIN 30 FROM links",
            "SELECT MIN(bandwidth) WITHIN 2 FROM links WHERE on_path = TRUE",
            "SELECT SUM(latency) WITHIN 1 FROM links GROUP BY from_node",
        ] {
            let q = parse(sql);
            let mut s = QuerySession::new(links_table());
            s.config.mode = iterative;
            let mut o = TableOracle::from_table(master_table());
            let outcome = s
                .drive(&mut o, |s| {
                    let plan = s.plan_query(&q);
                    if let Ok(QueryPlan::NeedsFetch(fp)) = &plan {
                        assert!(!fp.complete, "{sql}: iterative rounds are heuristic");
                        for fetch in fp.units.iter().filter_map(|u| u.fetch.as_ref()) {
                            assert_eq!(fetch.tuples.len(), 1, "{sql}: one tuple per unit");
                        }
                    }
                    plan
                })
                .unwrap();
            let mut reference = QuerySession::new(links_table());
            reference.config.mode = iterative;
            let mut o = TableOracle::from_table(master_table());
            let expected = if q.group_by.is_empty() {
                QueryOutcome::Scalar(reference.execute(&q, &mut o).unwrap())
            } else {
                QueryOutcome::Grouped(reference.execute_grouped(&q, &mut o).unwrap())
            };
            let (results, expected) = (keyed(outcome), keyed(expected));
            assert_eq!(results.len(), expected.len(), "{sql}");
            assert!(
                results.iter().any(|(_, r)| !r.refreshed.is_empty()),
                "{sql}: the query must refresh"
            );
            for ((key, r), (rkey, e)) in results.iter().zip(&expected) {
                assert_eq!(key, rkey, "{sql}");
                assert_eq!(r.answer.range, e.answer.range, "{sql} [{key}]");
                assert_eq!(r.refreshed, e.refreshed, "{sql} [{key}]");
                assert_eq!(r.refresh_cost, e.refresh_cost, "{sql} [{key}]");
                assert_eq!(r.rounds, e.rounds, "{sql} [{key}]");
            }
        }
    }

    /// Grouped and join shapes now produce partials instead of erroring.
    #[test]
    fn partials_cover_grouped_and_join_shapes() {
        let (s, _) = join_fixture();
        match s
            .partial_query(&parse(
                "SELECT SUM(latency) WITHIN 5 FROM links GROUP BY from_node",
            ))
            .unwrap()
        {
            QueryPartial::Grouped(groups) => {
                assert_eq!(groups.len(), 5);
                let total: usize = groups.iter().map(|(_, p)| p.input.items.len()).sum();
                assert_eq!(total, 6, "groups partition the table");
            }
            other => panic!("expected grouped partial, got {other:?}"),
        }
        match s
            .partial_query(&parse(
                "SELECT SUM(latency) FROM links, nodes WHERE from_node = node_id",
            ))
            .unwrap()
        {
            QueryPartial::Join(jp) => {
                assert_eq!(jp.left.table, "links");
                assert_eq!(jp.left.rows.len(), 6);
                assert_eq!(jp.right.table, "nodes");
                assert_eq!(jp.right.rows.len(), 2);
                // Costs travel with the slice.
                assert_eq!(jp.left.rows[0].2, 3.0);
            }
            other => panic!("expected join partial, got {other:?}"),
        }
    }

    /// The links ⋈ nodes fixture shared with the executor's join test.
    fn join_fixture() -> (QuerySession, TableOracle) {
        use trapp_storage::{Catalog, ColumnDef, Schema, Table};
        use trapp_types::{BoundedValue, Value, ValueType};
        let mut catalog = Catalog::new();
        catalog.add_table(links_table()).unwrap();
        let schema = Schema::new(vec![
            ColumnDef::exact("node_id", ValueType::Int),
            ColumnDef::bounded_float("cpu_load"),
        ])
        .unwrap();
        let mut nodes = Table::new("nodes", schema.clone());
        let mut master_nodes = Table::new("nodes", schema);
        for (id, lo, hi, exact) in [(1i64, 0.1, 0.9, 0.5), (2, 0.2, 0.8, 0.6)] {
            nodes
                .insert(vec![
                    BoundedValue::Exact(Value::Int(id)),
                    BoundedValue::bounded(lo, hi).unwrap(),
                ])
                .unwrap();
            master_nodes
                .insert(vec![
                    BoundedValue::Exact(Value::Int(id)),
                    BoundedValue::exact_f64(exact).unwrap(),
                ])
                .unwrap();
        }
        catalog.add_table(nodes).unwrap();
        let mut master = Catalog::new();
        master.add_table(master_table()).unwrap();
        master.add_table(master_nodes).unwrap();
        (
            QuerySession::with_catalog(catalog),
            TableOracle::new(master),
        )
    }
}
