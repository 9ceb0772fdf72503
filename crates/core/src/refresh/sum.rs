//! CHOOSE_REFRESH for SUM (§5.2, §6.2): the knapsack reduction.
//!
//! Selecting the cheapest refresh set is recast as selecting the most
//! valuable set of tuples to *keep cached*: place tuple `tᵢ` in a knapsack
//! with profit `Pᵢ = Cᵢ` (its refresh cost, which keeping it avoids) and
//! weight `Wᵢ` = its effective bound width — `Hᵢ − Lᵢ` for `T+` tuples,
//! zero-extended (§6.2) for `T?` tuples. Capacity is the precision
//! constraint `R`: the kept tuples' residual widths sum to the post-refresh
//! answer width, which must not exceed `R` for any realization.

use std::collections::HashSet;

use trapp_knapsack::{Instance, Item};
use trapp_types::{ExactSum, TrappError, TupleId};

use crate::agg::sum::sum_weight;
use crate::agg::AggInput;

use super::{run_solver, AvailablePlan, PlanProbe, RefreshPlan, SolverStrategy};

/// CHOOSE_REFRESH for SUM (§5.2 without predicate, §6.2 with) against the
/// certified `capacity`: the §5.2 uniform-cost width walk when `probe`
/// licenses it and nothing is excluded, the knapsack keep set otherwise.
pub(crate) fn plan_sum(
    input: &AggInput,
    capacity: f64,
    strategy: SolverStrategy,
    probe: Option<&PlanProbe<'_>>,
    excluded: &HashSet<TupleId>,
) -> Result<AvailablePlan, TrappError> {
    let walk = probe.filter(|p| {
        p.unfiltered && strategy == SolverStrategy::GreedyByWeight && excluded.is_empty()
    });
    if let Some(plan) = walk.and_then(|p| uniform_width_walk(p, capacity)) {
        return Ok(AvailablePlan::guaranteed(plan));
    }
    let weights: Vec<f64> = input.items.iter().map(sum_weight).collect();
    keep_set_plan(input, &weights, capacity, strategy, excluded)
}

/// The knapsack keep set for SUM, and for AVG with its own weights and
/// capacity: place each tuple in the knapsack with profit = its refresh
/// cost and the given weight, and refresh the complement of the solution.
///
/// Every tuple in `excluded` (e.g. backed by a dark source) is forced into
/// the keep set — its weight is charged against the capacity up front —
/// and the knapsack runs over the remaining items only. A negative reduced
/// capacity means no refresh set over available tuples can meet the
/// constraint: the plan is then the maximal narrowing, every available
/// tuple that carries weight, and comes back unachievable.
pub(crate) fn keep_set_plan(
    input: &AggInput,
    weights: &[f64],
    capacity: f64,
    strategy: SolverStrategy,
    excluded: &HashSet<TupleId>,
) -> Result<AvailablePlan, TrappError> {
    debug_assert_eq!(weights.len(), input.items.len());
    let mut cap = capacity;
    let mut available: Vec<usize> = Vec::with_capacity(input.items.len());
    for (i, item) in input.items.iter().enumerate() {
        if excluded.contains(&item.tid) {
            cap -= weights[i];
        } else {
            available.push(i);
        }
    }
    if cap < 0.0 {
        let narrowing = available.iter().filter(|&&i| weights[i] > 0.0);
        let tuples = narrowing.map(|&i| input.items[i].tid).collect();
        return Ok(AvailablePlan {
            plan: RefreshPlan::from_tuples(input, tuples),
            achievable: false,
        });
    }
    let items: Result<Vec<Item>, _> = available
        .iter()
        .map(|&i| Item::new(input.items[i].cost, weights[i]))
        .collect();
    let items = items.map_err(|e| TrappError::Plan(format!("bad knapsack item: {e}")))?;
    let instance =
        Instance::new(items, cap).map_err(|e| TrappError::Plan(format!("bad capacity: {e}")))?;
    let solution = run_solver(&instance, strategy)?;
    let refresh: Vec<TupleId> = solution
        .complement(available.len())
        .into_iter()
        .map(|j| input.items[available[j]].tid)
        .collect();
    Ok(AvailablePlan::guaranteed(RefreshPlan::from_tuples(
        input, refresh,
    )))
}

/// The §5.2 uniform-cost special case over a width index: "The optimal
/// answer then can be found by placing objects in the knapsack in order of
/// increasing weight Wᵢ until the knapsack cannot hold any more objects.
/// If an index exists on the bound width Hᵢ − Lᵢ, this algorithm can run
/// in sublinear time."
///
/// Preconditions: no selection predicate (all tuples contribute their plain
/// width) and uniform refresh costs. Returns `None` when the width index or
/// the argument column is missing or costs are not uniform — the caller
/// falls back to the knapsack, which plans identically.
fn uniform_width_walk(probe: &PlanProbe<'_>, capacity: f64) -> Option<RefreshPlan> {
    let table = probe.table;
    let width_ix = table.index(trapp_storage::IndexKey::Width {
        column: probe.column?,
    })?;

    // Uniform-cost check (cheap linear scan of the cost map; the *solve*
    // below is what the index makes sublinear in the kept prefix).
    let mut costs = table.tuple_ids().map(|t| table.cost(t).unwrap_or(0.0));
    let first = costs.next().unwrap_or(0.0);
    if costs.any(|c| c != first) {
        return None;
    }

    // Keep lightest-first while the capacity holds; everything after the
    // cut refreshes. The walk visits `(width, tuple)` ascending — the
    // same order the greedy-by-weight knapsack sorts the canonical item
    // vector into, so the kept set (and thus the plan) is identical.
    let mut kept_width = 0.0;
    let mut refresh: Vec<TupleId> = Vec::new();
    let mut keeping = true;
    for (w, tid) in width_ix.ascending() {
        if keeping && kept_width + w.get() <= capacity {
            kept_width += w.get();
        } else {
            keeping = false;
            refresh.push(tid);
        }
    }
    refresh.sort_unstable();
    // An exact total, as the scan planner's is, so the planned cost is
    // bit-equal, not merely mathematically equal.
    let costs = refresh.iter().map(|&t| table.cost(t).unwrap_or(0.0));
    let planned_cost = costs.collect::<ExactSum>().read();
    Some(RefreshPlan {
        tuples: refresh,
        planned_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::test_fixture::*;
    use crate::agg::{AggInput, Aggregate};
    use trapp_expr::{BinaryOp, ColumnRef, Expr};
    use trapp_types::Value;

    fn col(name: &str) -> Expr<usize> {
        Expr::Column(ColumnRef::bare(name)).bind(&schema()).unwrap()
    }

    fn on_path() -> Expr<usize> {
        Expr::binary(
            BinaryOp::Eq,
            Expr::Column(ColumnRef::bare("on_path")),
            Expr::Literal(Value::Bool(true)),
        )
        .bind(&schema())
        .unwrap()
    }

    fn ids(v: &[u64]) -> Vec<trapp_types::TupleId> {
        v.iter().copied().map(trapp_types::TupleId::new).collect()
    }

    /// The §5.2 reduction at knapsack capacity `capacity`, nothing
    /// excluded — the paper's plan, before the certified capacity.
    fn keep(input: &AggInput, capacity: f64, strategy: SolverStrategy) -> RefreshPlan {
        let weights: Vec<f64> = input.items.iter().map(sum_weight).collect();
        keep_set_plan(input, &weights, capacity, strategy, &HashSet::new())
            .unwrap()
            .plan
    }

    fn walk(t: &trapp_storage::Table, r: f64) -> Option<RefreshPlan> {
        let probe = PlanProbe {
            table: t,
            column: Some(TRAFFIC),
            unfiltered: true,
        };
        uniform_width_walk(&probe, r)
    }

    /// Q2 (§5.2): SUM latency over {1,2,5,6}, R = 5. Knapsack weights
    /// W = {2,2,3,2}, profits = costs {3,6,4,2}; optimum keeps {2,5},
    /// refreshing {1,6}.
    #[test]
    fn paper_q2_choose_refresh() {
        let t = links_table();
        let input = AggInput::build(&t, Some(&on_path()), Some(&col("latency"))).unwrap();
        let plan = keep(&input, 5.0, SolverStrategy::Exact);
        assert_eq!(plan.tuples, ids(&[1, 6]));
        assert_eq!(plan.planned_cost, 5.0);
    }

    #[test]
    fn residual_width_respects_capacity() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("traffic"))).unwrap();
        for r in [0.0, 10.0, 25.0, 40.0, 60.0, 95.0, 200.0] {
            for strategy in [
                SolverStrategy::Exact,
                SolverStrategy::Fptas(0.1),
                SolverStrategy::GreedyDensity,
            ] {
                let plan =
                    crate::refresh::choose_refresh(Aggregate::Sum, &input, r, strategy).unwrap();
                let kept_width: f64 = input
                    .items
                    .iter()
                    .filter(|i| !plan.tuples.contains(&i.tid))
                    .map(|i| i.interval.width())
                    .sum();
                assert!(kept_width <= r, "r={r} {strategy}: kept width {kept_width}");
            }
        }
    }

    #[test]
    fn loose_r_keeps_everything() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("traffic"))).unwrap();
        // Total width = 95; capacity 95 keeps all tuples.
        let plan = keep(&input, 95.0, SolverStrategy::Exact);
        assert!(plan.is_empty());
    }

    #[test]
    fn r_zero_refreshes_every_inexact_tuple() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("traffic"))).unwrap();
        let plan =
            crate::refresh::choose_refresh(Aggregate::Sum, &input, 0.0, SolverStrategy::Exact)
                .unwrap();
        assert_eq!(plan.tuples.len(), 6);
    }

    /// The §5.2 uniform-cost width-index path must match exact knapsack
    /// planning in cost (the chosen sets may differ only among equal-width
    /// ties).
    #[test]
    fn uniform_indexed_matches_exact_cost() {
        let mut t = links_table();
        for tid in t.tuple_ids().collect::<Vec<_>>() {
            t.set_cost(tid, 4.0).unwrap();
        }
        t.create_index(trapp_storage::IndexKey::Width { column: TRAFFIC })
            .unwrap();
        for r in [0.0, 10.0, 24.9, 25.0, 40.0, 60.0, 95.0, 200.0] {
            let input = AggInput::build(&t, None, Some(&col("traffic"))).unwrap();
            let exact = keep(&input, r, SolverStrategy::Exact);
            let indexed = walk(&t, r).unwrap();
            assert_eq!(
                exact.planned_cost, indexed.planned_cost,
                "R = {r}: exact {:?} vs indexed {:?}",
                exact.tuples, indexed.tuples
            );
            // The indexed plan must itself satisfy the capacity.
            let kept: f64 = input
                .items
                .iter()
                .filter(|i| !indexed.tuples.contains(&i.tid))
                .map(|i| i.interval.width())
                .sum();
            assert!(kept <= r, "R = {r}");
        }
    }

    #[test]
    fn uniform_indexed_requires_index_and_uniform_costs() {
        let t = links_table(); // non-uniform costs, no index
        assert!(walk(&t, 10.0).is_none());
        let mut t = links_table();
        t.create_index(trapp_storage::IndexKey::Width { column: TRAFFIC })
            .unwrap();
        // Index present but costs differ → refuse.
        assert!(walk(&t, 10.0).is_none());
    }

    /// §6.2: a T? tuple whose aggregation value is exactly known still has
    /// nonzero knapsack weight (it may drop out of the selection).
    #[test]
    fn exact_question_tuples_still_weigh() {
        let mut t = links_table();
        // Pin tuple 1's latency to exactly 3 but leave traffic bounded, so
        // under `traffic > 100` it stays in T? with latency weight |3| = 3.
        t.refresh_cell(trapp_types::TupleId::new(1), LATENCY, 3.0)
            .unwrap();
        let pred = Expr::binary(
            BinaryOp::Gt,
            Expr::Column(ColumnRef::bare("traffic")),
            Expr::Literal(Value::Float(100.0)),
        )
        .bind(&schema())
        .unwrap();
        let input = AggInput::build(&t, Some(&pred), Some(&col("latency"))).unwrap();
        let item = input
            .items
            .iter()
            .find(|i| i.tid == trapp_types::TupleId::new(1))
            .unwrap();
        assert_eq!(item.interval.width(), 0.0);
        assert_eq!(crate::agg::sum::sum_weight(item), 3.0);
    }
}
