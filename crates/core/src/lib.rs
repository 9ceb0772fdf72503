//! # trapp-core
//!
//! TRAPP/AG — bounded aggregation queries with precision constraints.
//! This crate is the paper's primary contribution (§4–§7 and Appendices
//! B–F of Olston & Widom, VLDB 2000):
//!
//! * [`agg`] — computing **bounded answers** `[L_A, H_A]` for
//!   `MIN`/`MAX`/`SUM`/`COUNT`/`AVG` over cached bounds, with and without
//!   selection predicates, including the tight `O(n log n)` AVG bound of
//!   Appendix E and a bounded k-th order statistic (`MEDIAN`, §8.1);
//! * [`refresh`] — the **CHOOSE_REFRESH** algorithms that pick the
//!   cheapest set of tuples to refresh so the answer is guaranteed to meet
//!   the precision constraint `H_A − L_A ≤ R` for *any* master values within
//!   the current bounds: threshold rules for MIN/MAX (Appendix B/C),
//!   knapsack reductions for SUM (§5.2, §6.2) and AVG (Appendix F),
//!   cheapest-|T?| selection for COUNT (§6.3), an iterative/online variant
//!   (§8.2), and join heuristics (§7);
//! * [`plan`] — binding parsed queries against a catalog (including
//!   two-table joins);
//! * [`query_plan`] — shape-generic read-only planning: every supported
//!   shape (scalar, `GROUP BY`, two-table join) lowers into one
//!   [`QueryPlan`] for phased plan/fetch/install execution and one
//!   [`QueryPartial`] for sharded scatter-gather;
//! * [`executor`] — the three-step query execution loop of §4
//!   (answer from cache → CHOOSE_REFRESH → refresh → recompute), written
//!   once as [`QuerySession::drive`] over any planner and wired to a
//!   pluggable [`executor::RefreshOracle`], with the scan reference planner
//!   [`QuerySession::plan_scan`];
//! * [`merge`] — cross-shard partial-aggregate merging: per-shard
//!   [`AggInput`]s recombine into the exact single-cache input, so a
//!   sharded deployment's answers and refresh plans are bit-equivalent to
//!   one cache's (the gather half of `trapp-server`'s scatter-gather);
//! * [`group_by`] — `GROUP BY` over exact columns (§8.1 extension);
//! * [`relative`] — relative precision constraints (§8.1 extension);
//! * [`verify`] — validation helpers used by tests and debug assertions:
//!   answers must contain the true aggregate, refresh plans must guarantee
//!   their constraint in the worst case.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod agg;
pub mod executor;
pub mod group_by;
pub mod merge;
pub mod plan;
pub mod query_plan;
pub mod refresh;
pub mod relative;
pub mod verify;
pub mod view;

pub use agg::{bounded_answer, AggInput, AggItem, Aggregate, BoundedAnswer};
pub use executor::{
    ExecutionMode, QueryResult, QuerySession, RefreshOracle, SessionConfig, TableOracle,
};
pub use group_by::{GroupKey, GroupResult};
pub use merge::{merge_grouped_partials, merge_partials, merge_table_slices, ShardPartial};
pub use plan::BoundQuery;
pub use query_plan::{
    Exclusions, FetchPlan, JoinPartial, QueryOutcome, QueryPartial, QueryPlan, TableSlice,
    UnitFetch, UnitState,
};
pub use refresh::{
    choose_refresh, choose_refresh_available, choose_refresh_probed, AvailablePlan, PlanProbe,
    RefreshPlan, SolverStrategy,
};
