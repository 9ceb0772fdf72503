//! Query execution: the three-step loop of §4.
//!
//! 1. Compute an initial bounded answer from the cached bounds; if it meets
//!    the precision constraint, done.
//! 2. Otherwise run CHOOSE_REFRESH and ask the sources (via the
//!    [`RefreshOracle`]) for the chosen tuples' master values.
//! 3. Recompute the bounded answer over the partially refreshed cache; the
//!    CHOOSE_REFRESH guarantee makes it satisfy the constraint.
//!
//! The executor also provides the §8.2 *iterative* mode (refresh one tuple
//! at a time, stop early when actual values cooperate) and the §7 join
//! loop, both driven by the heuristics in [`crate::refresh`].

use trapp_sql::Query;
use trapp_storage::{Catalog, Table};
use trapp_types::{TrappError, TupleId};

use crate::agg::{bounded_answer, AggInput, Aggregate, BoundedAnswer};
use crate::plan::{bind_query, BoundQuery, QuerySource};
use crate::refresh::iterative::{next_refresh, IterativeHeuristic};
use crate::refresh::join::{build_join_input, next_join_refresh, JoinSide};
use crate::refresh::{choose_refresh, SolverStrategy};

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
    /// Safety valve for iterative loops.
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
    /// Returns the current master values for the requested columns of
    /// `tid` in `table`, in the same order as `columns`.
    fn refresh(
        &mut self,
        table: &str,
        tid: TupleId,
        columns: &[usize],
    ) -> Result<Vec<f64>, TrappError>;

    /// Returns the current master values for `columns` of *each* tuple in
    /// `tids` (outer order matches `tids`, inner order matches `columns`).
    ///
    /// The default forwards tuple-by-tuple; transport-backed oracles
    /// override this to serve a whole CHOOSE_REFRESH plan with one
    /// round-trip per *source* instead of one per object.
    fn refresh_batch(
        &mut self,
        table: &str,
        tids: &[TupleId],
        columns: &[usize],
    ) -> Result<Vec<Vec<f64>>, TrappError> {
        tids.iter()
            .map(|&tid| self.refresh(table, tid, columns))
            .collect()
    }
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
    fn refresh(
        &mut self,
        table: &str,
        tid: TupleId,
        columns: &[usize],
    ) -> Result<Vec<f64>, TrappError> {
        let t = self.master.table(table)?;
        let row = t.row(tid)?;
        let mut out = Vec::with_capacity(columns.len());
        for &c in columns {
            out.push(row.exact(c)?.as_f64()?);
        }
        self.refreshes_served += 1;
        Ok(out)
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

    /// Executes a parsed query.
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
        match &bound.source {
            QuerySource::Table(name) => self.run_single(name.clone(), &bound, oracle),
            QuerySource::Join { left, right } => {
                self.run_join(left.clone(), right.clone(), &bound, oracle)
            }
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

    fn run_single(
        &mut self,
        table_name: String,
        bound: &BoundQuery,
        oracle: &mut dyn RefreshOracle,
    ) -> Result<QueryResult, TrappError> {
        self.run_single_filtered(table_name, bound, oracle, |_, _| true)
    }

    pub(crate) fn run_single_filtered(
        &mut self,
        table_name: String,
        bound: &BoundQuery,
        oracle: &mut dyn RefreshOracle,
        filter: impl Fn(TupleId, &trapp_storage::Row) -> bool + Copy,
    ) -> Result<QueryResult, TrappError> {
        let build = |catalog: &Catalog| -> Result<AggInput, TrappError> {
            AggInput::build_filtered(
                catalog.table(&table_name)?,
                bound.predicate.as_ref(),
                bound.arg.as_ref(),
                filter,
            )
        };

        let input = build(&self.catalog)?;
        let initial = bounded_answer(bound.agg, &input)?;
        if initial.satisfies(bound.within) {
            return Ok(QueryResult {
                answer: initial,
                initial_answer: initial,
                refreshed: Vec::new(),
                refresh_cost: 0.0,
                rounds: 0,
                satisfied: true,
            });
        }
        let r = bound.within.expect("unsatisfied implies finite R");

        let mut refreshed: Vec<(String, TupleId)> = Vec::new();
        let mut cost = 0.0;
        let mut rounds = 0usize;

        match self.config.mode {
            ExecutionMode::Batch => {
                let plan = choose_refresh(bound.agg, &input, r, self.config.strategy)?;
                rounds = 1;
                cost += self.refresh_tuples(&table_name, &plan.tuples, oracle)?;
                refreshed.extend(plan.tuples.iter().map(|&tid| (table_name.clone(), tid)));
            }
            ExecutionMode::Iterative(heuristic) => {
                loop {
                    let input = build(&self.catalog)?;
                    let answer = bounded_answer(bound.agg, &input)?;
                    if answer.satisfies(bound.within) {
                        break;
                    }
                    if rounds >= self.config.max_refresh_rounds {
                        return Err(TrappError::Internal(format!(
                            "iterative refresh did not converge in {rounds} rounds"
                        )));
                    }
                    let none = crate::query_plan::empty_tuple_set();
                    let Some(tid) = next_refresh(bound.agg, &input, r, heuristic, none) else {
                        break; // no refresh can help further
                    };
                    cost += self.refresh_tuple(&table_name, tid, oracle)?;
                    refreshed.push((table_name.clone(), tid));
                    rounds += 1;
                }
            }
        }

        let input = build(&self.catalog)?;
        let answer = bounded_answer(bound.agg, &input)?;
        let satisfied = answer.satisfies(bound.within);
        debug_assert!(
            satisfied || bound.agg == Aggregate::Median || input.cardinality_slack != (0, 0),
            "CHOOSE_REFRESH must guarantee the constraint: width {} > R {r}",
            answer.width(),
        );
        Ok(QueryResult {
            answer,
            initial_answer: initial,
            refreshed,
            refresh_cost: cost,
            rounds,
            satisfied,
        })
    }

    fn run_join(
        &mut self,
        left: String,
        right: String,
        bound: &BoundQuery,
        oracle: &mut dyn RefreshOracle,
    ) -> Result<QueryResult, TrappError> {
        let build = |catalog: &Catalog| -> Result<_, TrappError> {
            build_join_input(
                catalog.table(&left)?,
                catalog.table(&right)?,
                bound.predicate.as_ref(),
                bound.arg.as_ref(),
                &[],
            )
        };

        let initial = bounded_answer(bound.agg, &build(&self.catalog)?.input)?;
        if initial.satisfies(bound.within) {
            return Ok(QueryResult {
                answer: initial,
                initial_answer: initial,
                refreshed: Vec::new(),
                refresh_cost: 0.0,
                rounds: 0,
                satisfied: true,
            });
        }

        let mut refreshed: Vec<(String, TupleId)> = Vec::new();
        let mut cost = 0.0;
        let mut rounds = 0usize;
        let answer = loop {
            let ji = build(&self.catalog)?;
            let answer = bounded_answer(bound.agg, &ji.input)?;
            if answer.satisfies(bound.within) {
                break answer;
            }
            if rounds >= self.config.max_refresh_rounds {
                return Err(TrappError::Internal(format!(
                    "join refresh did not converge in {rounds} rounds"
                )));
            }
            let next = next_join_refresh(
                &ji,
                self.catalog.table(&left)?,
                self.catalog.table(&right)?,
                bound.agg,
                self.config.join_heuristic,
            );
            let Some((side, tid)) = next else {
                break answer;
            };
            let table = match side {
                JoinSide::Left => &left,
                JoinSide::Right => &right,
            };
            cost += self.refresh_tuple(&table.clone(), tid, oracle)?;
            refreshed.push((table.clone(), tid));
            rounds += 1;
        };

        let satisfied = answer.satisfies(bound.within);
        Ok(QueryResult {
            answer,
            initial_answer: initial,
            refreshed,
            refresh_cost: cost,
            rounds,
            satisfied,
        })
    }

    /// Performs one query-initiated refresh: fetches master values for all
    /// bounded columns of `tid` and pins them in the cache. Returns the
    /// refresh cost paid.
    pub fn refresh_tuple(
        &mut self,
        table_name: &str,
        tid: TupleId,
        oracle: &mut dyn RefreshOracle,
    ) -> Result<f64, TrappError> {
        self.refresh_tuples(table_name, &[tid], oracle)
    }

    /// Refreshes a whole plan's worth of tuples through one
    /// [`RefreshOracle::refresh_batch`] call, letting batching-aware
    /// oracles collapse the plan into one round-trip per source. Returns
    /// the total refresh cost paid.
    pub fn refresh_tuples(
        &mut self,
        table_name: &str,
        tids: &[TupleId],
        oracle: &mut dyn RefreshOracle,
    ) -> Result<f64, TrappError> {
        if tids.is_empty() {
            return Ok(0.0);
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
        let mut cost = 0.0;
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
            cost += table.cost(tid)?;
        }
        Ok(cost)
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

    /// End-to-end Q2 (§5.2): initial [19,28]; R=5 refreshes {1,6} → [21,26].
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
        assert_eq!(r.answer.range, Interval::new(21.0, 26.0).unwrap());
        assert_eq!(r.refresh_cost, 5.0);
    }

    /// End-to-end Q3 (§5.4): AVG traffic R=10 refreshes {5,6} → [103, 113].
    #[test]
    fn q3_end_to_end() {
        let (mut s, mut o) = session_and_oracle();
        s.config.strategy = SolverStrategy::Exact;
        let r = s
            .execute_sql("SELECT AVG(traffic) WITHIN 10 FROM links", &mut o)
            .unwrap();
        assert_eq!(r.answer.range, Interval::new(103.0, 113.0).unwrap());
        assert_eq!(r.refreshed.len(), 2);
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

    /// End-to-end Q6 (§6.4/App. F): AVG latency WHERE traffic>100, R=2 →
    /// [8, 9] after refreshing {1,3,5,6}.
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
        assert_eq!(r.answer.range, Interval::new(8.0, 9.0).unwrap());
        assert_eq!(r.refreshed.len(), 4);
        assert_eq!(r.refresh_cost, 3.0 + 6.0 + 4.0 + 2.0);
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
        assert!(width <= 2.0 * mid.abs() * 0.05 + 1e-9);
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
