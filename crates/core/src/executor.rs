//! Query execution: the three-step loop of §4, written once.
//!
//! 1. Compute an initial bounded answer from the cached bounds; if it meets
//!    the precision constraint, done.
//! 2. Otherwise run CHOOSE_REFRESH and ask the sources for the chosen
//!    tuples' master values.
//! 3. Recompute the bounded answer over the partially refreshed cache; the
//!    CHOOSE_REFRESH guarantee makes it satisfy the constraint.
//!
//! [`drive_rounds`] is that loop, over the two moves of a [`Rounds`]:
//! [`QuerySession::drive`]'s over a [`RefreshOracle`], and the serving
//! layer's over its shard locks and gateways. The §8.2 iterative mode and
//! the §7 join rounds are plan states, not loops of their own.
//! [`QuerySession::execute`] drives the *scan* planner
//! ([`QuerySession::plan_scan`]: scan-built inputs, scan CHOOSE_REFRESH,
//! one-tuple join rounds), which shares no code with the band views
//! [`QuerySession::plan_query`] plans from, so the equivalence suites keep
//! an independent reference.

use trapp_sql::Query;
use trapp_storage::{Catalog, Table};
use trapp_types::{TrappError, TupleId};

use crate::agg::{bounded_answer, AggInput, Aggregate, BoundedAnswer};
use crate::group_by::{group_partitions, GroupKey};
use crate::plan::{bind_query, BoundQuery, QuerySource};
use crate::query_plan::{
    assemble_units, empty_tuple_set, plan_join_round, plan_unit, Attribution, Exclusions,
    FetchPlan, QueryOutcome, QueryPlan,
};
use crate::refresh::iterative::IterativeHeuristic;
use crate::refresh::SolverStrategy;

/// How a session resolves precision shortfalls.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExecutionMode {
    /// Plan the whole refresh set up front (the paper's main algorithms).
    Batch,
    /// Refresh one tuple per round until satisfied (§8.2).
    Iterative(IterativeHeuristic),
}

/// Session-wide execution configuration.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Knapsack solving strategy for SUM/AVG planning.
    pub strategy: SolverStrategy,
    /// Batch or iterative execution.
    pub mode: ExecutionMode,
    /// Heuristic for join refresh rounds.
    pub join_heuristic: IterativeHeuristic,
    /// Heuristic refresh rounds (join rounds, and iterative mode's) a
    /// query may take before [`drive_rounds`] gives up with an error.
    pub max_refresh_rounds: usize,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            strategy: SolverStrategy::default(),
            mode: ExecutionMode::Batch,
            join_heuristic: IterativeHeuristic::BestRatio,
            max_refresh_rounds: 100_000,
        }
    }
}

/// Supplies master values on demand — the cache-side stand-in for a
/// query-initiated refresh request to the Refresh Monitor (§3.1).
pub trait RefreshOracle {
    /// Returns the current master values for `columns` of *each* tuple in
    /// `tids` (outer order matches `tids`, inner order matches `columns`).
    /// A whole round of one table's planned tuples arrives in one call, so
    /// a transport-backed oracle serves it with one round-trip per
    /// *source* instead of one per object.
    fn refresh_batch(
        &mut self,
        table: &str,
        tids: &[TupleId],
        columns: &[usize],
    ) -> Result<Vec<Vec<f64>>, TrappError>;
}

/// A [`RefreshOracle`] backed by master tables with exact values — the
/// standard oracle for tests, examples, and single-process experiments.
pub struct TableOracle {
    master: Catalog,
    /// Number of tuple refreshes served.
    pub refreshes_served: u64,
}

impl TableOracle {
    /// Wraps a catalog of master tables.
    pub fn new(master: Catalog) -> TableOracle {
        TableOracle {
            master,
            refreshes_served: 0,
        }
    }

    /// Convenience: a single master table.
    pub fn from_table(table: Table) -> TableOracle {
        let mut master = Catalog::new();
        master.add_table(table).expect("fresh catalog");
        TableOracle::new(master)
    }

    /// Access to the wrapped master catalog (e.g. to apply updates).
    pub fn master_mut(&mut self) -> &mut Catalog {
        &mut self.master
    }
}

impl RefreshOracle for TableOracle {
    fn refresh_batch(
        &mut self,
        table: &str,
        tids: &[TupleId],
        columns: &[usize],
    ) -> Result<Vec<Vec<f64>>, TrappError> {
        let t = self.master.table(table)?;
        let mut rows = Vec::with_capacity(tids.len());
        for &tid in tids {
            let row = t.row(tid)?;
            let mut out = Vec::with_capacity(columns.len());
            for &c in columns {
                out.push(row.exact(c)?.as_f64()?);
            }
            self.refreshes_served += 1;
            rows.push(out);
        }
        Ok(rows)
    }
}

/// Complete rounds a query may fetch: past the first, each means bounds
/// re-widened between install and plan (a concurrent clock advance).
const MAX_COMPLETE_ROUNDS: usize = 8;

/// The two moves of the §4 loop, as one query's executor makes them.
pub trait Rounds {
    /// Plans the query over the cache as it stands.
    fn plan(&mut self) -> Result<QueryPlan, TrappError>;

    /// Fetches and installs one round, recording what it paid in `paid`.
    /// Returns whether the round counts against the budget: `false` when
    /// it lost a source the next plan routes around.
    fn fetch(&mut self, round: &FetchPlan, paid: &mut Attribution) -> Result<bool, TrappError>;
}

/// The §4 loop: plan and fetch until the plan is `Ready`, then return its
/// outcome patched with what each unit paid ([`Attribution`]). The one
/// budget: 8 counted complete rounds ([`FetchPlan::complete`]) and
/// `max_refresh_rounds` counted heuristic ones; a plan past either is a
/// typed [`TrappError::Internal`].
pub fn drive_rounds(
    rounds: &mut impl Rounds,
    max_refresh_rounds: usize,
) -> Result<QueryOutcome, TrappError> {
    let mut attribution = Attribution::default();
    let (mut complete, mut heuristic) = (0usize, 0usize);
    loop {
        let round = match rounds.plan()? {
            QueryPlan::Ready(outcome) => return Ok(attribution.patch(outcome)),
            QueryPlan::NeedsFetch(round) => round,
        };
        let (spent, cap) = if round.complete {
            (&mut complete, MAX_COMPLETE_ROUNDS)
        } else {
            (&mut heuristic, max_refresh_rounds)
        };
        if *spent >= cap {
            return Err(TrappError::Internal(format!(
                "refresh did not converge: {complete} complete and {heuristic} heuristic rounds"
            )));
        }
        if rounds.fetch(&round, &mut attribution)? {
            *spent += 1;
        }
    }
}

/// [`QuerySession::drive`]'s moves: a planner, and the oracle's refreshes.
struct OracleRounds<'s, P> {
    session: &'s mut QuerySession,
    oracle: &'s mut dyn RefreshOracle,
    plan: P,
    /// The last round fetched was complete.
    after_complete: bool,
}

impl<P> Rounds for OracleRounds<'_, P>
where
    P: FnMut(&QuerySession) -> Result<QueryPlan, TrappError>,
{
    fn plan(&mut self) -> Result<QueryPlan, TrappError> {
        let plan = (self.plan)(self.session)?;
        debug_assert!(
            !self.after_complete || matches!(plan, QueryPlan::Ready(_)),
            "CHOOSE_REFRESH must guarantee the constraint: a complete round left it unmet"
        );
        Ok(plan)
    }

    fn fetch(&mut self, round: &FetchPlan, paid: &mut Attribution) -> Result<bool, TrappError> {
        paid.record(round, |_, tid| Ok(tid))?;
        for unit in round.units.iter().filter_map(|u| u.fetch.as_ref()) {
            self.session
                .refresh_tuples(&unit.table, &unit.tuples, self.oracle)?;
        }
        self.after_complete = round.complete;
        Ok(true)
    }
}

/// The outcome of one query execution.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The final bounded answer.
    pub answer: BoundedAnswer,
    /// The answer computed from cache alone, before any refresh.
    pub initial_answer: BoundedAnswer,
    /// Tuples refreshed, as `(table, tuple)`.
    pub refreshed: Vec<(String, TupleId)>,
    /// Total refresh cost paid.
    pub refresh_cost: f64,
    /// Refresh rounds (1 for batch mode with any refreshes).
    pub rounds: usize,
    /// Whether the final answer meets the precision constraint.
    pub satisfied: bool,
}

/// A cache-side query session: a catalog of cached tables plus execution
/// configuration.
pub struct QuerySession {
    catalog: Catalog,
    /// Execution configuration (public for direct adjustment).
    pub config: SessionConfig,
    /// Memoized band views over the catalog's tables, keyed by query
    /// shape; see [`crate::view`]. Interior mutability because read-only
    /// planning (`&self`) is what populates and syncs them.
    views: std::sync::Mutex<crate::view::ViewCache>,
}

impl QuerySession {
    /// A session over a single cached table.
    pub fn new(table: Table) -> QuerySession {
        let mut catalog = Catalog::new();
        catalog.add_table(table).expect("fresh catalog");
        QuerySession::with_catalog(catalog)
    }

    /// A session over a full catalog.
    pub fn with_catalog(catalog: Catalog) -> QuerySession {
        QuerySession {
            catalog,
            config: SessionConfig::default(),
            views: std::sync::Mutex::new(crate::view::ViewCache::default()),
        }
    }

    /// The cached catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The view cache, locked. A panic mid-plan poisons the lock, but the
    /// cache is a pure memo of the catalog: whatever the panicking thread
    /// left half-repaired is dropped, planning carries on from an empty
    /// cache, and the next access rebuilds what it needs.
    pub(crate) fn views(&self) -> std::sync::MutexGuard<'_, crate::view::ViewCache> {
        self.views.lock().unwrap_or_else(|poisoned| {
            let mut views = poisoned.into_inner();
            *views = crate::view::ViewCache::default();
            self.views.clear_poison();
            views
        })
    }

    /// Rows this session's band views have examined so far (builds and
    /// replays, evicted views included) — the planning work that should
    /// track candidate-set sizes, not table sizes.
    pub fn view_tuples_classified(&self) -> u64 {
        self.view_work().tuples_classified
    }

    /// Items this session's band views have written into an input or a
    /// group partition so far (repairs and rebuilds, evicted views
    /// included) — the planning work that should track the tuples a
    /// change reaches, not the table.
    pub fn view_items_repartitioned(&self) -> u64 {
        self.view_work().items_repartitioned
    }

    /// Every maintenance counter of this session's band views, evicted
    /// views included.
    pub fn view_work(&self) -> crate::view::ViewWork {
        self.views().work()
    }

    /// Mutable access (e.g. for value-initiated refreshes pushed by
    /// sources).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Parses and executes a query.
    pub fn execute_sql(
        &mut self,
        sql: &str,
        oracle: &mut dyn RefreshOracle,
    ) -> Result<QueryResult, TrappError> {
        let query = trapp_sql::parse_query(sql)?;
        self.execute(&query, oracle)
    }

    /// Executes a parsed single-row query (scalar or join) by driving the
    /// scan planner.
    pub fn execute(
        &mut self,
        query: &Query,
        oracle: &mut dyn RefreshOracle,
    ) -> Result<QueryResult, TrappError> {
        let bound = bind_query(query, &self.catalog)?;
        if !bound.group_by.is_empty() {
            return Err(TrappError::Plan(
                "grouped queries return multiple rows; use execute_grouped".into(),
            ));
        }
        match self.drive(oracle, |s| s.plan_scan(&bound))? {
            QueryOutcome::Scalar(result) => Ok(result),
            QueryOutcome::Grouped(_) => Err(TrappError::Internal(
                "scalar planning produced a grouped outcome".into(),
            )),
        }
    }

    /// Executes a query under a *relative* precision constraint `p`
    /// (§8.1): the answer width must not exceed `2·|A|·p` where `A` is the
    /// true answer. A first cache-only pass derives a conservative absolute
    /// constraint, then the query re-runs with it.
    pub fn execute_relative(
        &mut self,
        query: &Query,
        p: f64,
        oracle: &mut dyn RefreshOracle,
    ) -> Result<QueryResult, TrappError> {
        let r = {
            let mut first_pass = query.clone();
            first_pass.within = None;
            let initial = self.execute(&first_pass, oracle)?;
            crate::relative::conservative_absolute_r(initial.answer.range, p)?
        };
        let mut constrained = query.clone();
        constrained.within = Some(r);
        self.execute(&constrained, oracle)
    }

    /// [`drive_rounds`] over any planner, refreshing each planned unit's
    /// tuples through `oracle` ([`QuerySession::refresh_tuples`]).
    ///
    /// Debug builds check the CHOOSE_REFRESH guarantee: with no clock to
    /// re-widen bounds, a complete round ([`FetchPlan::complete`]) must
    /// leave the next plan ready. [`QuerySession::plan_scan`] checks its
    /// other half.
    pub fn drive(
        &mut self,
        oracle: &mut dyn RefreshOracle,
        plan: impl FnMut(&QuerySession) -> Result<QueryPlan, TrappError>,
    ) -> Result<QueryOutcome, TrappError> {
        let max_refresh_rounds = self.config.max_refresh_rounds;
        let mut rounds = OracleRounds {
            session: self,
            oracle,
            plan,
            after_complete: false,
        };
        drive_rounds(&mut rounds, max_refresh_rounds)
    }

    /// The scan reference planner: lowers a bound query into a
    /// [`QueryPlan`] from inputs built by scanning the table
    /// ([`AggInput::build_filtered`], with [`group_partitions`] membership
    /// for `GROUP BY`), planned by the scan CHOOSE_REFRESH — or
    /// [`crate::refresh::iterative::next_refresh`] in iterative mode —
    /// with no index probe and no exclusions; joins, scalar and grouped,
    /// take the §7 one-tuple rounds of [`plan_join_round`]. It shares no
    /// code with the band views, which is what makes it the reference.
    ///
    /// Debug builds check that CHOOSE_REFRESH never gives up on a unit it
    /// must guarantee: an unsatisfied unit with nothing to refresh is
    /// allowed only for MEDIAN or under cardinality slack.
    pub fn plan_scan(&self, bound: &BoundQuery) -> Result<QueryPlan, TrappError> {
        let name = match &bound.source {
            QuerySource::Table(name) => name,
            QuerySource::Join { left, right } => {
                let (left, right) = (self.catalog.table(left)?, self.catalog.table(right)?);
                let none = Exclusions::default();
                let heuristic = self.config.join_heuristic;
                return plan_join_round(bound, left, right, heuristic, false, &none);
            }
        };
        let table = self.catalog.table(name)?;
        let grouped = !bound.group_by.is_empty();
        let groups: Vec<(GroupKey, Option<Vec<TupleId>>)> = if grouped {
            let groups = group_partitions(table, &bound.group_by)?.into_values();
            groups.map(|(key, tids)| (key, Some(tids))).collect()
        } else {
            vec![(Vec::new(), None)]
        };
        let (predicate, arg) = (bound.predicate.as_ref(), bound.arg.as_ref());
        let mut units = Vec::with_capacity(groups.len());
        for (key, members) in groups {
            let member = |tid, _: &_| {
                members
                    .as_ref()
                    .is_none_or(|m| m.binary_search(&tid).is_ok())
            };
            let input = AggInput::build_filtered(table, predicate, arg, member)?;
            let initial = bounded_answer(bound.agg, &input)?;
            let unit = plan_unit(
                bound.agg,
                bound.within,
                &self.config,
                name,
                key,
                &input,
                initial,
                None,
                empty_tuple_set(),
            )?;
            debug_assert!(
                unit.satisfied
                    || unit.fetch.is_some()
                    || bound.agg == Aggregate::Median
                    || input.cardinality_slack != (0, 0),
                "CHOOSE_REFRESH must guarantee the constraint: width {} > R {}",
                initial.width(),
                bound.within.unwrap_or(f64::INFINITY),
            );
            units.push(unit);
        }
        Ok(assemble_units(units, grouped, self.config.mode))
    }

    /// Refreshes a whole plan's worth of tuples through one
    /// [`RefreshOracle::refresh_batch`] call, letting batching-aware
    /// oracles collapse the plan into one round-trip per source, and pins
    /// the master values in the cache.
    pub fn refresh_tuples(
        &mut self,
        table_name: &str,
        tids: &[TupleId],
        oracle: &mut dyn RefreshOracle,
    ) -> Result<(), TrappError> {
        if tids.is_empty() {
            return Ok(());
        }
        let columns = self.catalog.table(table_name)?.schema().bounded_columns();
        let per_tuple = oracle.refresh_batch(table_name, tids, &columns)?;
        if per_tuple.len() != tids.len() {
            return Err(TrappError::RefreshFailed(format!(
                "oracle returned {} rows for {} tuples",
                per_tuple.len(),
                tids.len()
            )));
        }
        let table = self.catalog.table_mut(table_name)?;
        for (&tid, values) in tids.iter().zip(&per_tuple) {
            if values.len() != columns.len() {
                return Err(TrappError::RefreshFailed(format!(
                    "oracle returned {} values for {} columns",
                    values.len(),
                    columns.len()
                )));
            }
            for (&c, &v) in columns.iter().zip(values) {
                table.refresh_cell(tid, c, v)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::test_fixture::*;
    use trapp_types::Interval;

    fn session_and_oracle() -> (QuerySession, TableOracle) {
        (
            QuerySession::new(links_table()),
            TableOracle::from_table(master_table()),
        )
    }

    /// A panic while the view cache is locked poisons the lock; the cache
    /// is a memo, so the next plan resets it and derives the same plan a
    /// fresh session does instead of panicking in turn.
    #[test]
    fn poisoned_view_cache_is_reset_not_fatal() {
        let s = QuerySession::new(links_table());
        let q =
            trapp_sql::parse_query("SELECT SUM(latency) WITHIN 3 FROM links GROUP BY from_node")
                .unwrap();
        let before = format!("{:?}", s.plan_query(&q).unwrap());
        let crashed = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _views = s.views();
                    panic!("planner bug while holding the view cache");
                })
                .join()
        });
        assert!(crashed.is_err());
        assert!(s.views.is_poisoned());
        let after = format!("{:?}", s.plan_query(&q).unwrap());
        assert!(!s.views.is_poisoned());
        let fresh = format!(
            "{:?}",
            QuerySession::new(links_table()).plan_query(&q).unwrap()
        );
        assert_eq!(after, fresh);
        assert_eq!(after, before);
    }

    /// A complete round must leave the next plan ready: a planner that
    /// asks for the same complete round twice trips `drive`'s half of
    /// the CHOOSE_REFRESH guarantee check.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "CHOOSE_REFRESH must guarantee the constraint")]
    fn a_complete_round_must_leave_the_plan_ready() {
        let (mut s, mut o) = session_and_oracle();
        let q = trapp_sql::parse_query(
            "SELECT MIN(bandwidth) WITHIN 10 FROM links WHERE on_path = TRUE",
        )
        .unwrap();
        let round = s.plan_query(&q).unwrap();
        assert!(matches!(&round, QueryPlan::NeedsFetch(fp) if fp.complete));
        let _ = s.drive(&mut o, |_| Ok(round.clone()));
    }

    /// A synthetic [`Rounds`]: plans `round` every time until `ready_after`
    /// fetches have happened, then answers from the session; every fetch
    /// counts iff `counted`.
    struct Replay {
        session: QuerySession,
        round: FetchPlan,
        counted: bool,
        ready_after: usize,
        fetched: usize,
    }

    impl Replay {
        /// Replays the MIN query's first round, marked `complete` or not.
        fn new(complete: bool, counted: bool, ready_after: usize) -> Replay {
            let session = QuerySession::new(links_table());
            let q = trapp_sql::parse_query(
                "SELECT MIN(bandwidth) WITHIN 10 FROM links WHERE on_path = TRUE",
            )
            .unwrap();
            let QueryPlan::NeedsFetch(mut round) = session.plan_query(&q).unwrap() else {
                panic!("the MIN query needs a fetch from cache");
            };
            round.complete = complete;
            Replay {
                session,
                round,
                counted,
                ready_after,
                fetched: 0,
            }
        }
    }

    impl Rounds for Replay {
        fn plan(&mut self) -> Result<QueryPlan, TrappError> {
            if self.fetched < self.ready_after {
                return Ok(QueryPlan::NeedsFetch(self.round.clone()));
            }
            let q = trapp_sql::parse_query("SELECT MIN(bandwidth) FROM links").unwrap();
            self.session.plan_query(&q)
        }

        fn fetch(&mut self, round: &FetchPlan, paid: &mut Attribution) -> Result<bool, TrappError> {
            paid.record(round, |_, tid| Ok(tid))?;
            self.fetched += 1;
            Ok(self.counted)
        }
    }

    fn not_converged(result: Result<QueryOutcome, TrappError>) {
        match result {
            Err(TrappError::Internal(message)) => {
                assert!(message.starts_with("refresh did not converge"), "{message}");
            }
            other => panic!("expected the typed non-convergence error, got {other:?}"),
        }
    }

    /// A plan that keeps asking for the same complete round gets the typed
    /// error after exactly 8 fetched rounds, whatever the heuristic budget.
    #[test]
    fn complete_rounds_are_capped_at_eight() {
        let mut replay = Replay::new(true, true, usize::MAX);
        not_converged(drive_rounds(&mut replay, 100_000));
        assert_eq!(replay.fetched, 8);
        let mut replay = Replay::new(true, true, 8);
        let QueryOutcome::Scalar(result) = drive_rounds(&mut replay, 0).unwrap() else {
            panic!("a scalar query answers with a scalar outcome");
        };
        assert_eq!(result.rounds, 8);
    }

    /// A repeating heuristic round gets the typed error after exactly
    /// `max_refresh_rounds` fetched rounds.
    #[test]
    fn heuristic_rounds_are_capped_at_max_refresh_rounds() {
        for max_refresh_rounds in [0, 1, 13] {
            let mut replay = Replay::new(false, true, usize::MAX);
            not_converged(drive_rounds(&mut replay, max_refresh_rounds));
            assert_eq!(replay.fetched, max_refresh_rounds);
        }
        let mut replay = Replay::new(false, true, 13);
        drive_rounds(&mut replay, 13).unwrap();
    }

    /// Rounds whose fetch lost a source do not count: however many there
    /// are, neither cap trips.
    #[test]
    fn rounds_that_lost_a_source_never_trip_the_budget() {
        for complete in [true, false] {
            let mut replay = Replay::new(complete, false, 50);
            drive_rounds(&mut replay, 1).unwrap();
            assert_eq!(replay.fetched, 50);
        }
    }

    /// End-to-end Q1 (§5.1): initial [40,55]; R=10 refreshes tuple 5
    /// (bandwidth 50) → [45, 50].
    #[test]
    fn q1_end_to_end() {
        let (mut s, mut o) = session_and_oracle();
        let r = s
            .execute_sql(
                "SELECT MIN(bandwidth) WITHIN 10 FROM links WHERE on_path = TRUE",
                &mut o,
            )
            .unwrap();
        assert_eq!(r.initial_answer.range, Interval::new(40.0, 55.0).unwrap());
        assert_eq!(r.answer.range, Interval::new(45.0, 50.0).unwrap());
        assert_eq!(r.refreshed.len(), 1);
        assert_eq!(r.refresh_cost, 4.0);
        assert!(r.satisfied);
    }

    /// End-to-end Q2 (§5.2): initial [19,28], R = 5. The paper refreshes
    /// {1,6} (cost 5) and keeps widths summing to exactly 5, which some
    /// realizations overrun once the endpoints round; the certified capacity
    /// keeps {1,2} instead, refreshing {5,6} (cost 6) → [23,27].
    #[test]
    fn q2_end_to_end() {
        let (mut s, mut o) = session_and_oracle();
        s.config.strategy = SolverStrategy::Exact;
        let r = s
            .execute_sql(
                "SELECT SUM(latency) WITHIN 5 FROM links WHERE on_path = TRUE",
                &mut o,
            )
            .unwrap();
        assert_eq!(r.initial_answer.range, Interval::new(19.0, 28.0).unwrap());
        assert_eq!(r.answer.range, Interval::new(23.0, 27.0).unwrap());
        assert_eq!(r.refresh_cost, 6.0);
    }

    /// End-to-end Q3 (§5.4): AVG traffic, R = 10. The paper refreshes
    /// {5,6} and keeps widths summing to exactly `R·COUNT = 60`; the
    /// certified capacity keeps less, refreshing {1,5,6} (cost 9).
    #[test]
    fn q3_end_to_end() {
        let (mut s, mut o) = session_and_oracle();
        s.config.strategy = SolverStrategy::Exact;
        let r = s
            .execute_sql("SELECT AVG(traffic) WITHIN 10 FROM links", &mut o)
            .unwrap();
        assert_eq!(
            r.answer.range,
            Interval::new(103.5, 111.83333333333333).unwrap()
        );
        assert_eq!(r.refreshed.len(), 3);
        assert_eq!(r.refresh_cost, 9.0);
    }

    /// End-to-end Q4 (§6.1): MIN traffic with predicate, R=10 → [95, 105].
    #[test]
    fn q4_end_to_end() {
        let (mut s, mut o) = session_and_oracle();
        let r = s
            .execute_sql(
                "SELECT MIN(traffic) WITHIN 10 FROM links WHERE bandwidth > 50 AND latency < 10",
                &mut o,
            )
            .unwrap();
        assert_eq!(r.initial_answer.range, Interval::new(90.0, 105.0).unwrap());
        assert_eq!(r.answer.range, Interval::new(95.0, 105.0).unwrap());
    }

    /// End-to-end Q5 (§6.3): COUNT latency>10 R=1 → [2, 3].
    #[test]
    fn q5_end_to_end() {
        let (mut s, mut o) = session_and_oracle();
        let r = s
            .execute_sql(
                "SELECT COUNT(*) WITHIN 1 FROM links WHERE latency > 10",
                &mut o,
            )
            .unwrap();
        assert_eq!(r.initial_answer.range, Interval::new(1.0, 3.0).unwrap());
        assert_eq!(r.answer.range, Interval::new(2.0, 3.0).unwrap());
        assert_eq!(r.refresh_cost, 4.0);
    }

    /// End-to-end Q6 (§6.4/App. F): AVG latency WHERE traffic>100, R = 2.
    /// The paper refreshes {1,3,5,6}, keeping `T+` weights that sum to
    /// exactly the capacity `L′_COUNT·R = 4`; the certified capacity is
    /// below 4, so one `T+` tuple refreshes too → [8.5, 9].
    #[test]
    fn q6_end_to_end() {
        let (mut s, mut o) = session_and_oracle();
        s.config.strategy = SolverStrategy::Exact;
        let r = s
            .execute_sql(
                "SELECT AVG(latency) WITHIN 2 FROM links WHERE traffic > 100",
                &mut o,
            )
            .unwrap();
        assert_eq!(r.answer.range, Interval::new(8.5, 9.0).unwrap());
        assert_eq!(r.refreshed.len(), 5);
        assert_eq!(r.refresh_cost, 3.0 + 6.0 + 6.0 + 4.0 + 2.0);
    }

    #[test]
    fn satisfied_from_cache_needs_no_oracle_calls() {
        let (mut s, mut o) = session_and_oracle();
        let r = s
            .execute_sql("SELECT SUM(latency) WITHIN 100 FROM links", &mut o)
            .unwrap();
        assert_eq!(r.rounds, 0);
        assert!(r.refreshed.is_empty());
        assert_eq!(o.refreshes_served, 0);
        // No WITHIN at all = pure cache read.
        let r = s
            .execute_sql("SELECT SUM(latency) FROM links", &mut o)
            .unwrap();
        assert!(r.satisfied);
        assert_eq!(o.refreshes_served, 0);
    }

    #[test]
    fn within_zero_forces_exact_answers() {
        let (mut s, mut o) = session_and_oracle();
        let r = s
            .execute_sql("SELECT SUM(traffic) WITHIN 0 FROM links", &mut o)
            .unwrap();
        assert!(r.answer.is_exact());
        // Σ of precise traffic = 98+116+105+127+95+103 = 644.
        assert_eq!(r.answer.range.lo(), 644.0);
    }

    #[test]
    fn iterative_mode_converges_and_can_stop_early() {
        let (mut s, mut o) = session_and_oracle();
        s.config.mode = ExecutionMode::Iterative(IterativeHeuristic::BestRatio);
        let r = s
            .execute_sql("SELECT SUM(traffic) WITHIN 30 FROM links", &mut o)
            .unwrap();
        assert!(r.satisfied);
        assert!(r.rounds >= 1);
        // Iterative refresh realizes exact values as it goes, so it may
        // refresh fewer tuples than the batch worst-case plan.
        let (mut s2, mut o2) = session_and_oracle();
        s2.config.strategy = SolverStrategy::Exact;
        let batch = s2
            .execute_sql("SELECT SUM(traffic) WITHIN 30 FROM links", &mut o2)
            .unwrap();
        assert!(r.refreshed.len() <= batch.refreshed.len() + 1);
    }

    #[test]
    fn median_executes_via_batch_fallback() {
        let (mut s, mut o) = session_and_oracle();
        let r = s
            .execute_sql("SELECT MEDIAN(latency) WITHIN 1 FROM links", &mut o)
            .unwrap();
        assert!(r.satisfied);
        assert!(r.answer.width() <= 1.0);
    }

    #[test]
    fn median_iterative_is_cheaper_than_batch() {
        let (mut s, mut o) = session_and_oracle();
        s.config.mode = ExecutionMode::Iterative(IterativeHeuristic::BestRatio);
        let r = s
            .execute_sql("SELECT MEDIAN(latency) WITHIN 2 FROM links", &mut o)
            .unwrap();
        assert!(r.satisfied);
        assert!(r.refreshed.len() < 6, "refreshed {}", r.refreshed.len());
    }

    #[test]
    fn relative_precision_two_pass() {
        let (mut s, mut o) = session_and_oracle();
        let q = trapp_sql::parse_query("SELECT SUM(traffic) FROM links").unwrap();
        // 5% relative precision around a ~644 answer → R ≈ 2·600·0.05 = 60.
        let r = s.execute_relative(&q, 0.05, &mut o).unwrap();
        assert!(r.satisfied);
        let width = r.answer.width();
        let mid = r.answer.range.midpoint();
        assert!(width <= 2.0 * mid.abs() * 0.05);
    }

    #[test]
    fn join_query_end_to_end() {
        // links ⋈ nodes on from_node = node_id, SUM of latency.
        let mut catalog = Catalog::new();
        catalog.add_table(links_table()).unwrap();
        let schema = trapp_storage::Schema::new(vec![
            trapp_storage::ColumnDef::exact("node_id", trapp_types::ValueType::Int),
            trapp_storage::ColumnDef::bounded_float("cpu_load"),
        ])
        .unwrap();
        let mut nodes = Table::new("nodes", schema.clone());
        let mut master_nodes = Table::new("nodes", schema);
        for (id, lo, hi, exact) in [(1i64, 0.1, 0.9, 0.5), (2, 0.2, 0.8, 0.6)] {
            nodes
                .insert(vec![
                    trapp_types::BoundedValue::Exact(trapp_types::Value::Int(id)),
                    trapp_types::BoundedValue::bounded(lo, hi).unwrap(),
                ])
                .unwrap();
            master_nodes
                .insert(vec![
                    trapp_types::BoundedValue::Exact(trapp_types::Value::Int(id)),
                    trapp_types::BoundedValue::exact_f64(exact).unwrap(),
                ])
                .unwrap();
        }
        catalog.add_table(nodes).unwrap();
        let mut s = QuerySession::with_catalog(catalog);

        let mut master = Catalog::new();
        master.add_table(master_table()).unwrap();
        master.add_table(master_nodes).unwrap();
        let mut o = TableOracle::new(master);

        let r = s
            .execute_sql(
                "SELECT SUM(latency) WITHIN 2 FROM links, nodes \
                 WHERE from_node = node_id AND cpu_load < 0.7",
                &mut o,
            )
            .unwrap();
        assert!(r.satisfied);
        assert!(r.answer.width() <= 2.0);
    }
}
