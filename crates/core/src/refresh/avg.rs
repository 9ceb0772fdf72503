//! CHOOSE_REFRESH for AVG (§5.4 and Appendix F).
//!
//! Without a predicate, COUNT is exact and the problem *is* SUM with
//! capacity `R · COUNT` (§5.4). With a predicate both SUM and COUNT move;
//! Appendix F reformulates the loose AVG bound as a linear constraint over
//! `ΔSUM` and `ΔCOUNT` and folds the COUNT dependence into the knapsack by
//! shrinking the capacity every time a `T?` tuple stays cached — equivalent
//! to *adding* the (positive) slope to each `T?` item's weight:
//!
//! ```text
//! M  = L′_COUNT · R
//! Wᵢ = Wᵢ(SUM) + max(H′_SUM, −L′_SUM, H′_SUM − L′_SUM)/L′_COUNT − R   (tᵢ ∈ T?)
//! ```
//!
//! where primed quantities are computed over the *current* cached bounds
//! (conservative stand-ins, since refreshes only shrink them).

use std::collections::HashSet;

use trapp_expr::Band;
use trapp_types::{TrappError, TupleId};

use crate::agg::sum::{bounded_sum, sum_weight};
use crate::agg::AggInput;

use super::sum::keep_set_plan;
use super::{endpoint_ulps, forced, AvailablePlan, RefreshPlan, SolverStrategy};

/// CHOOSE_REFRESH for AVG against the certified capacity `r` (answer
/// units; see [`super::certified_capacity`]).
pub(crate) fn plan_avg(
    input: &AggInput,
    r: f64,
    strategy: SolverStrategy,
    excluded: &HashSet<TupleId>,
) -> Result<AvailablePlan, TrappError> {
    if input.items.is_empty() {
        return Ok(AvailablePlan::guaranteed(RefreshPlan::empty()));
    }
    let plus_count = input.plus_count();
    if input.question_count() == 0 {
        // §5.4: COUNT is exact; the knapsack is SUM's with capacity
        // R·COUNT. (The capacity may be +∞ if R is huge; the solver
        // handles any finite f64.)
        let weights: Vec<f64> = input.items.iter().map(sum_weight).collect();
        return keep_set_plan(input, &weights, r * plus_count as f64, strategy, excluded);
    }
    if plus_count == 0 {
        // Appendix F divides by L′_COUNT; with no certain tuples the loose
        // bound gives no leverage. Refresh every T? tuple: afterwards the
        // selection is fully resolved and the answer exact (width 0 ≤ R).
        return Ok(forced(
            input,
            input.question().map(|i| i.tid).collect(),
            excluded,
        ));
    }
    let (weights, capacity) = appendix_f_weights(input, r);
    keep_set_plan(input, &weights, capacity, strategy, excluded)
}

/// The Appendix-F weight vector and capacity for the mixed SUM/COUNT case
/// (`plus_count > 0`, `question_count > 0`).
fn appendix_f_weights(input: &AggInput, r: f64) -> (Vec<f64>, f64) {
    // Conservative SUM/COUNT estimates over current bounds. The spread is
    // widened by four ulps of the SUM bound's magnitude — its endpoints'
    // roundings and the subtraction's — so the slope it derives is never
    // below the real-arithmetic one the Appendix F argument needs.
    let sum = bounded_sum(input);
    let (l_sum, h_sum) = (sum.lo(), sum.hi());
    let l_count = input.plus_count() as f64;
    let spread = h_sum.max(-l_sum).max(h_sum - l_sum) + endpoint_ulps(4.0, sum);
    let slope = spread / l_count - r;

    let weights: Vec<f64> = input
        .items
        .iter()
        .map(|item| {
            let base = sum_weight(item);
            match item.band {
                Band::Plus => base,
                // A negative slope would *relax* the constraint as T? tuples
                // stay cached; clamping it to zero only rounds weights up,
                // which is always conservative for the guarantee.
                _ => base + slope.max(0.0),
            }
        })
        .collect();
    (weights, l_count * r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::avg::bounded_avg_loose;
    use crate::agg::test_fixture::*;
    use crate::agg::AggInput;
    use trapp_expr::{BinaryOp, ColumnRef, Expr};
    use trapp_types::Value;

    fn col(name: &str) -> Expr<usize> {
        Expr::Column(ColumnRef::bare(name)).bind(&schema()).unwrap()
    }

    fn traffic_gt_100() -> Expr<usize> {
        Expr::binary(
            BinaryOp::Gt,
            Expr::Column(ColumnRef::bare("traffic")),
            Expr::Literal(Value::Float(100.0)),
        )
        .bind(&schema())
        .unwrap()
    }

    fn ids(v: &[u64]) -> Vec<trapp_types::TupleId> {
        v.iter().copied().map(trapp_types::TupleId::new).collect()
    }

    /// The §5.4 / Appendix F reduction at constraint `r`, nothing
    /// excluded — the paper's plan, before the certified capacity.
    fn choose_refresh_avg(
        input: &AggInput,
        r: f64,
        strategy: SolverStrategy,
    ) -> Result<RefreshPlan, TrappError> {
        Ok(plan_avg(input, r, strategy, &HashSet::new())?.plan)
    }

    /// Q3 (§5.4): AVG traffic, no predicate, R = 10 → SUM with capacity 60
    /// over weights W′ = {10,10,15,25,20,15}; optimum keeps {1,2,3,4},
    /// refreshing {5, 6}.
    #[test]
    fn paper_q3_choose_refresh() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("traffic"))).unwrap();
        let plan = choose_refresh_avg(&input, 10.0, SolverStrategy::Exact).unwrap();
        assert_eq!(plan.tuples, ids(&[5, 6]));
        assert_eq!(plan.planned_cost, 6.0);
    }

    /// Q6 (Appendix F): AVG latency WHERE traffic > 100, R = 2.
    /// L′_SUM = 14, H′_SUM = 55, L′_COUNT = 2 → slope = 55/2 − 2 = 25.5;
    /// weights W″ = {T+: 2, 2; T?: 29.5, 41.5, 36.5, 31.5}; M = 4.
    /// Knapsack keeps {2, 4}; refresh {1, 3, 5, 6}.
    #[test]
    fn paper_q6_choose_refresh() {
        let t = links_table();
        let input = AggInput::build(&t, Some(&traffic_gt_100()), Some(&col("latency"))).unwrap();
        let plan = choose_refresh_avg(&input, 2.0, SolverStrategy::Exact).unwrap();
        assert_eq!(plan.tuples, ids(&[1, 3, 5, 6]));
        assert_eq!(plan.planned_cost, 3.0 + 6.0 + 4.0 + 2.0);
    }

    /// The Figure 2 W″ column, reproduced from the weight computation.
    #[test]
    fn figure2_w_double_prime_weights() {
        let t = links_table();
        let input = AggInput::build(&t, Some(&traffic_gt_100()), Some(&col("latency"))).unwrap();
        let sum = bounded_sum(&input);
        let slope = (sum.hi().max(-sum.lo()).max(sum.width())) / 2.0 - 2.0;
        assert_eq!(slope, 25.5);
        // Expected weights in item order (T+ = {2, 4} first, then T? =
        // {1, 3, 5, 6}): {2, 2, 29.5, 41.5, 36.5, 31.5}.
        let expect = [2.0, 2.0, 29.5, 41.5, 36.5, 31.5];
        let weights: Vec<f64> = input
            .items
            .iter()
            .map(|item| match item.band {
                trapp_expr::Band::Plus => sum_weight(item),
                _ => sum_weight(item) + slope,
            })
            .collect();
        assert_eq!(weights, expect);
    }

    /// The Appendix F guarantee: after refreshing the plan, the *loose* AVG
    /// bound meets R for any realization. Spot-check with the actual
    /// Figure 2 master values.
    #[test]
    fn post_refresh_loose_bound_meets_r() {
        let mut t = links_table();
        let input = AggInput::build(&t, Some(&traffic_gt_100()), Some(&col("latency"))).unwrap();
        let plan = choose_refresh_avg(&input, 2.0, SolverStrategy::Exact).unwrap();
        for &tid in &plan.tuples {
            let i = tid.raw() as usize - 1;
            let (lat, bw, tr) = PRECISE[i];
            t.refresh_cell(tid, LATENCY, lat).unwrap();
            t.refresh_cell(tid, BANDWIDTH, bw).unwrap();
            t.refresh_cell(tid, TRAFFIC, tr).unwrap();
        }
        let post = AggInput::build(&t, Some(&traffic_gt_100()), Some(&col("latency"))).unwrap();
        let loose = bounded_avg_loose(&post).unwrap();
        assert!(loose.width() <= 2.0, "loose width {}", loose.width());
        // The paper reports the final bounded AVG as [8, 9].
        let tight = crate::agg::avg::bounded_avg_tight(&post).unwrap();
        assert_eq!(tight.lo(), 8.0);
        assert_eq!(tight.hi(), 9.0);
    }

    #[test]
    fn no_certain_tuples_resolves_all_question() {
        let t = links_table();
        let pred = Expr::binary(
            BinaryOp::Gt,
            Expr::Column(ColumnRef::bare("traffic")),
            Expr::Literal(Value::Float(144.9)),
        )
        .bind(&schema())
        .unwrap();
        let input = AggInput::build(&t, Some(&pred), Some(&col("latency"))).unwrap();
        assert_eq!(input.plus_count(), 0);
        let plan = choose_refresh_avg(&input, 1.0, SolverStrategy::Exact).unwrap();
        assert_eq!(plan.tuples.len(), input.question_count());
    }

    #[test]
    fn empty_input_needs_no_plan() {
        let input = AggInput::default();
        let plan = choose_refresh_avg(&input, 1.0, SolverStrategy::Exact).unwrap();
        assert!(plan.is_empty());
    }
}
