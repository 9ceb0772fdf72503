//! CHOOSE_REFRESH: the minimum-cost tuple-refresh planners (§5, §6,
//! Appendices B, C, F).
//!
//! Given the classified input of an aggregation query and a precision
//! constraint `R`, a CHOOSE_REFRESH algorithm picks a set `T_R` of tuples
//! such that after refreshing them the bounded answer satisfies
//! `H_A − L_A ≤ R` **for any master values within the current bounds** —
//! the paper's correctness criterion — at minimum (or provably
//! near-minimum) total refresh cost.
//!
//! Every route plans through one entry, [`plan_refresh`]: one planner per
//! aggregate, each aware of excluded (unrefreshable) tuples and of the
//! ordered-index probes the paper licenses, all run against the
//! [`certified_capacity`] of `R` — the constraint with the answer's own
//! rounding and the knapsack's paid for, so the rule holds of the rounded answer
//! (ARCHITECTURE §2). [`choose_refresh`] is its exclusion-free,
//! probe-free caller; the join rounds ([`join`]) and the iterative mode
//! ([`iterative`]) pick tuples heuristically under the same rule.

pub mod avg;
pub mod count;
pub mod iterative;
pub mod join;
pub mod min_max;
pub mod sum;

use std::collections::HashSet;
use std::fmt;

use trapp_types::{float, ExactSum, Interval, TrappError, TupleId};

use crate::agg::sum::sum_weight;
use crate::agg::{AggInput, Aggregate};

/// How the knapsack sub-problems (SUM, AVG) are solved.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SolverStrategy {
    /// Branch-and-bound — exact, exponential worst case (§5.2's
    /// "dynamic programming … worst-case exponential" remark corresponds to
    /// exact solving; fine at the paper's instance sizes).
    Exact,
    /// The Ibarra–Kim FPTAS with parameter ε (the paper's default; Figure 5
    /// sweeps ε).
    Fptas(f64),
    /// Density greedy (½-approximation) — cheapest planning, loosest cost.
    GreedyDensity,
    /// Weight-ascending greedy — optimal only under uniform refresh costs
    /// (§5.2's special case).
    GreedyByWeight,
}

impl Default for SolverStrategy {
    fn default() -> Self {
        SolverStrategy::Fptas(0.1)
    }
}

impl fmt::Display for SolverStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverStrategy::Exact => write!(f, "exact"),
            SolverStrategy::Fptas(e) => write!(f, "fptas(ε={e})"),
            SolverStrategy::GreedyDensity => write!(f, "greedy-density"),
            SolverStrategy::GreedyByWeight => write!(f, "greedy-by-weight"),
        }
    }
}

/// The output of CHOOSE_REFRESH: which tuples to refresh and what that is
/// expected to cost.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RefreshPlan {
    /// Tuples to refresh, in ascending id order.
    pub tuples: Vec<TupleId>,
    /// Total refresh cost of the plan (`Σ Cᵢ` over `tuples`).
    pub planned_cost: f64,
}

impl RefreshPlan {
    /// An empty plan (the cached answer already satisfies the constraint).
    pub fn empty() -> RefreshPlan {
        RefreshPlan::default()
    }

    /// Builds a plan from the chosen tuples of `input`.
    pub(crate) fn from_tuples(input: &AggInput, mut tuples: Vec<TupleId>) -> RefreshPlan {
        tuples.sort_unstable();
        tuples.dedup();
        let chosen = input
            .items
            .iter()
            .filter(|i| tuples.binary_search(&i.tid).is_ok());
        let planned_cost = chosen.map(|i| i.cost).collect::<ExactSum>().read();
        RefreshPlan {
            tuples,
            planned_cost,
        }
    }

    /// `true` if nothing needs refreshing.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// CHOOSE_REFRESH for `agg` with nothing excluded and no index probe:
/// [`plan_refresh`]'s plan, for callers that plan over a bare input.
pub fn choose_refresh(
    agg: Aggregate,
    input: &AggInput,
    r: f64,
    strategy: SolverStrategy,
) -> Result<RefreshPlan, TrappError> {
    let none = crate::query_plan::empty_tuple_set();
    Ok(plan_refresh(agg, input, r, strategy, None, none)?.plan)
}

/// A CHOOSE_REFRESH plan over *available* tuples, with a flag saying
/// whether the precision constraint is guaranteed.
#[derive(Clone, Debug, PartialEq)]
pub struct AvailablePlan {
    /// Tuples to refresh — never includes an excluded tuple.
    pub plan: RefreshPlan,
    /// `true`: executing `plan` guarantees `H_A − L_A ≤ R` for any master
    /// values within the current bounds. `false`: no refresh set over
    /// available tuples can guarantee the constraint; `plan` is the
    /// best-effort maximal narrowing instead (callers decide between a
    /// degraded answer and an error).
    pub achievable: bool,
}

impl AvailablePlan {
    fn guaranteed(plan: RefreshPlan) -> AvailablePlan {
        AvailablePlan {
            plan,
            achievable: true,
        }
    }
}

/// The ordered-index probes available to CHOOSE_REFRESH when the input
/// was classified directly from a cached [`trapp_storage::Table`] — the
/// single-cache / single-shard planning routes. Merged scatter-gather
/// inputs have no backing table and plan without probes; every probed
/// path produces plans **bit-identical** to its scan counterpart (same
/// tuple set, same tie-breaking, same exact cost total), so routes
/// with and without probes stay interchangeable.
#[derive(Clone, Copy)]
pub struct PlanProbe<'a> {
    /// The cached table the input was classified from.
    pub table: &'a trapp_storage::Table,
    /// The aggregation argument's column, when it is a bare column
    /// reference (the §5.1/§5.2 endpoint and width probes need one).
    pub column: Option<usize>,
    /// `true` when the input covers the whole table with no selection
    /// predicate: classification is all-`T+` and no Appendix D refinement
    /// applies, so raw cell endpoints equal the item intervals — the
    /// precondition of the MIN/MAX/SUM index paths. The COUNT cost-index
    /// path works for any input (membership is checked against `T?`).
    pub unfiltered: bool,
}

/// CHOOSE_REFRESH: the one entry every planning route takes.
///
/// `r` is the precision constraint (finite; `R = ∞` never reaches
/// planning). The plan is derived against the [`certified_capacity`] of
/// `r`, computed once here, so the *rounded* answer recomputed after the
/// refresh meets `r` — not only its real-arithmetic value (ARCHITECTURE
/// §2). Per aggregate (§5/§6, each adapted to exclusions):
///
/// * **SUM / AVG** — the knapsack keep set (§5.2, §5.4, Appendix F).
///   Excluded tuples are forced into the keep set: their weights are
///   charged against the capacity up front, and a negative reduced
///   capacity means unachievable.
/// * **COUNT** — the `⌈|T?| − R⌉` cheapest available `T?` tuples (§6.3);
///   fewer available than needed means unachievable.
/// * **MIN / MAX** — the forced set (§5.1, Appendix B), necessary *and*
///   sufficient, so any excluded member means unachievable; the plan
///   refreshes the available part either way.
/// * **MEDIAN** — no batch planner with a non-trivial guarantee (the
///   paper defers it to \[FMP+00\]): refresh every inexact tuple; the
///   iterative mode holds the cost-aware strategy.
///
/// `excluded` names tuples that cannot be refreshed (typically: backed by
/// a source whose circuit breaker is open). `probe` adds the ordered-index
/// paths the paper licenses (§5.1 endpoint probes for MIN/MAX, the §5.2
/// uniform-cost width walk for SUM under
/// [`SolverStrategy::GreedyByWeight`], the §6.3 cheapest-`T?` cost walk
/// for COUNT); each falls back to the scan — with identical output —
/// whenever a precondition or an index is missing.
pub fn plan_refresh(
    agg: Aggregate,
    input: &AggInput,
    r: f64,
    strategy: SolverStrategy,
    probe: Option<&PlanProbe<'_>>,
    excluded: &HashSet<TupleId>,
) -> Result<AvailablePlan, TrappError> {
    if r < 0.0 || r.is_nan() {
        return Err(TrappError::NegativePrecision(r));
    }
    let capacity = certified_capacity(agg, input, r);
    match agg {
        Aggregate::Min | Aggregate::Max => {
            Ok(min_max::plan_extreme(agg, input, capacity, probe, excluded))
        }
        Aggregate::Sum => sum::plan_sum(input, capacity, strategy, probe, excluded),
        Aggregate::Count => Ok(count::plan_count(input, capacity, probe, excluded)),
        Aggregate::Avg => avg::plan_avg(input, capacity, strategy, excluded),
        Aggregate::Median => {
            let inexact = input.items.iter().filter(|i| !i.is_exact());
            Ok(forced(input, inexact.map(|i| i.tid).collect(), excluded))
        }
    }
}

/// The certified capacity: the `R′ ≤ R` CHOOSE_REFRESH plans against so
/// that the answer recomputed after the refresh — each endpoint exact and
/// rounded once — has width `≤ R` for every realization (ARCHITECTURE §2
/// derives each case).
///
/// * **SUM** — `R − `[`fold_allowance`]: the endpoints' rounding, the
///   knapsack's own summation and the items' rounded widths.
/// * **AVG** — `R − 32 ulps of the loose bound's larger endpoint
///   magnitude − γ·(Σ Wᵢ/K + R)` in answer units, `K = max(1, |T+|)`:
///   both endpoints' roundings and their 8-ulp outward steps, then the
///   knapsack's arithmetic on its capacity `K·R′` and the division's
///   rounding.
/// * **MIN / MAX** — `R`: the answer's endpoints are cached endpoints,
///   not sums, so the only rounding is the threshold `anchor ∓ R`'s, and
///   the planner rounds that toward the anchor exactly.
/// * **COUNT** (integer widths) and **MEDIAN** (refreshes every inexact
///   tuple) — `R`.
///
/// Each is clamped at 0. `WITHIN 0` stays exact: `R′ = 0` keeps only
/// zero-width items, which sum to width exactly 0.
pub fn certified_capacity(agg: Aggregate, input: &AggInput, r: f64) -> f64 {
    let allowance = match agg {
        Aggregate::Count | Aggregate::Median | Aggregate::Min | Aggregate::Max => 0.0,
        Aggregate::Sum => fold_allowance(input),
        Aggregate::Avg => match crate::agg::avg::bounded_avg_loose(input) {
            Ok(loose) => {
                let count = input.plus_count().max(1) as f64;
                endpoint_ulps(32.0, loose) + fold_gamma(input) * (summed_weight(input) / count + r)
            }
            Err(_) => 0.0,
        },
    };
    let certified = r - allowance;
    // `!(x > 0)` also maps a NaN allowance (∞ − ∞) to 0: refresh all.
    if certified > 0.0 {
        certified
    } else {
        0.0
    }
}

/// The most rounding can move a SUM answer's width past the kept weight:
/// two ulps of the current answer's larger endpoint magnitude, plus
/// `γ·Σ Wᵢ`, `Wᵢ` the §5.2/§6.2 weights. Each endpoint is exact and
/// rounded once, and refreshed endpoints stay inside the current bound,
/// so each rounding moves an endpoint by at most half an ulp of that
/// magnitude; the `Σ Wᵢ` term pays for the rounded item widths and the
/// knapsack's own summation, which runs in each solver's own order.
pub fn fold_allowance(input: &AggInput) -> f64 {
    let answer = crate::agg::sum::bounded_sum(input);
    endpoint_ulps(2.0, answer) + fold_gamma(input) * summed_weight(input)
}

/// `k` ulps of `answer`'s larger endpoint magnitude `a`: `k·ε·a`, and at
/// least `k` subnormal steps. `ε·a` bounds the spacing of every `f64` of
/// magnitude up to `a`, so this covers `2k` roundings to nearest there.
pub(crate) fn endpoint_ulps(k: f64, answer: Interval) -> f64 {
    let magnitude = answer.lo().abs().max(answer.hi().abs());
    k * (magnitude * f64::EPSILON).max(f64::from_bits(1))
}

/// `γₙ₊₈` for an input of `n` items: eight roundings beyond the
/// knapsack's `n − 1` additions cover the item widths, the solver's
/// comparisons, computing `R′`, and AVG's product and division.
fn fold_gamma(input: &AggInput) -> f64 {
    float::gamma(input.items.len() + 8)
}

/// `Σ Wᵢ`, the §5.2/§6.2 SUM weights.
fn summed_weight(input: &AggInput) -> f64 {
    input.items.iter().map(sum_weight).sum()
}

/// The plan for a *forced* set — tuples every sufficient refresh set must
/// contain (MIN/MAX's Appendix B set, MEDIAN's inexact tuples, AVG's `T?`
/// with no `T+` anchor): its available part, achievable only if nothing
/// in it is excluded.
pub(crate) fn forced(
    input: &AggInput,
    tuples: Vec<TupleId>,
    excluded: &HashSet<TupleId>,
) -> AvailablePlan {
    let achievable = tuples.iter().all(|t| !excluded.contains(t));
    let available = tuples.into_iter().filter(|t| !excluded.contains(t));
    AvailablePlan {
        plan: RefreshPlan::from_tuples(input, available.collect()),
        achievable,
    }
}

/// Solves a knapsack instance under the configured strategy.
pub(crate) fn run_solver(
    instance: &trapp_knapsack::Instance,
    strategy: SolverStrategy,
) -> Result<trapp_knapsack::Solution, TrappError> {
    match strategy {
        SolverStrategy::Exact => Ok(instance.solve_exact()),
        SolverStrategy::Fptas(eps) => instance
            .solve_fptas(eps)
            .map_err(|e| TrappError::Plan(format!("knapsack FPTAS failed: {e}"))),
        SolverStrategy::GreedyDensity => Ok(instance.solve_greedy_density()),
        SolverStrategy::GreedyByWeight => Ok(instance.solve_greedy_by_weight()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::test_fixture::*;
    use trapp_expr::{ColumnRef, Expr};

    fn col(name: &str) -> Expr<usize> {
        Expr::Column(ColumnRef::bare(name)).bind(&schema()).unwrap()
    }

    #[test]
    fn rejects_negative_precision() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("latency"))).unwrap();
        assert!(choose_refresh(Aggregate::Sum, &input, -1.0, SolverStrategy::Exact).is_err());
        assert!(choose_refresh(Aggregate::Sum, &input, f64::NAN, SolverStrategy::Exact).is_err());
    }

    #[test]
    fn median_batch_plan_refreshes_all_inexact() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("latency"))).unwrap();
        let plan = choose_refresh(Aggregate::Median, &input, 1.0, SolverStrategy::Exact).unwrap();
        assert_eq!(plan.tuples.len(), 6);
        assert_eq!(plan.planned_cost, 3.0 + 6.0 + 6.0 + 8.0 + 4.0 + 2.0);
    }

    #[test]
    fn available_with_no_exclusions_matches_choose_refresh() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("traffic"))).unwrap();
        let excluded = std::collections::HashSet::new();
        for agg in [
            Aggregate::Min,
            Aggregate::Max,
            Aggregate::Sum,
            Aggregate::Count,
            Aggregate::Avg,
            Aggregate::Median,
        ] {
            let full = choose_refresh(agg, &input, 10.0, SolverStrategy::Exact).unwrap();
            let avail =
                plan_refresh(agg, &input, 10.0, SolverStrategy::Exact, None, &excluded).unwrap();
            assert!(avail.achievable, "{agg:?}");
            assert_eq!(avail.plan, full, "{agg:?}");
        }
    }

    #[test]
    fn excluding_a_forced_min_tuple_is_unachievable() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("traffic"))).unwrap();
        let full = choose_refresh(Aggregate::Min, &input, 1.0, SolverStrategy::Exact).unwrap();
        assert!(!full.tuples.is_empty());
        let excluded: std::collections::HashSet<_> = [full.tuples[0]].into();
        let avail = plan_refresh(
            Aggregate::Min,
            &input,
            1.0,
            SolverStrategy::Exact,
            None,
            &excluded,
        )
        .unwrap();
        assert!(!avail.achievable, "a forced tuple is irreplaceable");
        assert!(
            !avail.plan.tuples.contains(&full.tuples[0]),
            "the plan must never include an excluded tuple"
        );
        for t in &full.tuples[1..] {
            assert!(
                avail.plan.tuples.contains(t),
                "the available part of the forced set still refreshes"
            );
        }
    }

    #[test]
    fn sum_exclusion_forces_keep_and_detects_unachievable() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("traffic"))).unwrap();
        // Total width 95. R = 40: achievable even with one mid-width tuple
        // excluded, and the plan must avoid it.
        let some_tid = input.items[2].tid;
        let excluded: std::collections::HashSet<_> = [some_tid].into();
        let avail = plan_refresh(
            Aggregate::Sum,
            &input,
            40.0,
            SolverStrategy::Exact,
            None,
            &excluded,
        )
        .unwrap();
        assert!(avail.achievable);
        assert!(!avail.plan.tuples.contains(&some_tid));
        // Kept width (including the excluded tuple) must satisfy R.
        let kept: f64 = input
            .items
            .iter()
            .filter(|i| !avail.plan.tuples.contains(&i.tid))
            .map(|i| i.interval.width())
            .sum();
        assert!(kept <= 40.0, "kept width {kept}");

        // R = 0 with anything bounded excluded is unachievable; the
        // best-effort plan refreshes every available weighted tuple.
        let avail = plan_refresh(
            Aggregate::Sum,
            &input,
            0.0,
            SolverStrategy::Exact,
            None,
            &excluded,
        )
        .unwrap();
        assert!(!avail.achievable);
        assert!(!avail.plan.tuples.contains(&some_tid));
        assert_eq!(avail.plan.tuples.len(), 5, "all 5 available tuples refresh");
    }

    #[test]
    fn count_exclusion_picks_cheapest_available() {
        let t = links_table();
        let pred = trapp_expr::Expr::binary(
            trapp_expr::BinaryOp::Gt,
            trapp_expr::Expr::Column(trapp_expr::ColumnRef::bare("latency")),
            trapp_expr::Expr::Literal(trapp_types::Value::Float(10.0)),
        )
        .bind(&schema())
        .unwrap();
        let input = AggInput::build(&t, Some(&pred), Some(&col("latency"))).unwrap();
        // Q5 fixture: T? = {4 (cost 8), 5 (cost 4)}; R = 1 needs 1 tuple —
        // normally tuple 5, but with 5 dark it must take 4.
        let excluded: std::collections::HashSet<_> = [trapp_types::TupleId::new(5)].into();
        let avail = plan_refresh(
            Aggregate::Count,
            &input,
            1.0,
            SolverStrategy::Exact,
            None,
            &excluded,
        )
        .unwrap();
        assert!(avail.achievable);
        assert_eq!(avail.plan.tuples, vec![trapp_types::TupleId::new(4)]);
        // R = 0 needs both → unachievable with 5 dark.
        let avail = plan_refresh(
            Aggregate::Count,
            &input,
            0.0,
            SolverStrategy::Exact,
            None,
            &excluded,
        )
        .unwrap();
        assert!(!avail.achievable);
        assert_eq!(avail.plan.tuples, vec![trapp_types::TupleId::new(4)]);
    }

    #[test]
    fn plan_from_tuples_sorts_and_prices() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("latency"))).unwrap();
        let plan = RefreshPlan::from_tuples(
            &input,
            vec![trapp_types::TupleId::new(5), trapp_types::TupleId::new(1)],
        );
        assert_eq!(
            plan.tuples,
            vec![trapp_types::TupleId::new(1), trapp_types::TupleId::new(5)]
        );
        assert_eq!(plan.planned_cost, 3.0 + 4.0);
    }
}
