//! CHOOSE_REFRESH for MIN and MAX (§5.1, §6.1, Appendices B and C).
//!
//! The MIN rule: refresh exactly the tuples
//!
//! ```text
//! T_R = { tᵢ ∈ T+ ∪ T? : Lᵢ < min over T+ of Hₖ − R }
//! ```
//!
//! independent of refresh cost. Appendix B proves this both *necessary*
//! (leave any such tuple cached and an adversary realizes every other value
//! at its upper bound, forcing width > R) and *sufficient* (every cached
//! low endpoint is then within R of the guaranteed upper bound, which
//! refreshes can only lower). MAX mirrors with
//! `Hᵢ > max over T+ of Lₖ + R`.

use std::collections::HashSet;

use trapp_storage::{IndexKey, Table};
use trapp_types::{ExactSum, OrderedF64, TupleId};

use crate::agg::{AggInput, Aggregate};

use super::{forced, AvailablePlan, PlanProbe, RefreshPlan};

/// CHOOSE_REFRESH for MIN or MAX (optimal, cost-independent) against the
/// certified capacity `r`: the forced set, from the §5.1 index probes
/// when `probe` licenses them and nothing is excluded, from a scan
/// otherwise.
pub(crate) fn plan_extreme(
    agg: Aggregate,
    input: &AggInput,
    r: f64,
    probe: Option<&PlanProbe<'_>>,
    excluded: &HashSet<TupleId>,
) -> AvailablePlan {
    let indexed = probe.filter(|p| p.unfiltered && excluded.is_empty());
    if let Some(plan) = indexed.and_then(|p| endpoint_probe(agg, p.table, p.column?, r)) {
        return AvailablePlan::guaranteed(plan);
    }
    let threshold = threshold(agg, anchor(agg, input), r);
    let blocking = input.items.iter().filter(|i| match agg {
        Aggregate::Min => i.interval.lo() < threshold,
        _ => i.interval.hi() > threshold,
    });
    forced(input, blocking.map(|i| i.tid).collect(), excluded)
}

/// The guaranteed side of the answer: `min H` over `T+` for MIN (`+∞`
/// when `T+` is empty, which forces refreshing every tuple whose low
/// endpoint is finite — nothing anchors the answer), `max L` over `T+`
/// for MAX.
pub(crate) fn anchor(agg: Aggregate, input: &AggInput) -> f64 {
    let plus = input.plus();
    match agg {
        Aggregate::Min => plus.map(|i| i.interval.hi()).fold(f64::INFINITY, f64::min),
        _ => plus
            .map(|i| i.interval.lo())
            .fold(f64::NEG_INFINITY, f64::max),
    }
}

/// The forced-set threshold `anchor ∓ r`: MIN refreshes every tuple with
/// `Lᵢ` below it, MAX every tuple with `Hᵢ` above it. The sum is rounded
/// toward the anchor (Knuth's TwoSum gives its exact error), so every
/// kept endpoint lies within `r` of the anchor in exact arithmetic and
/// the answer's rounded width cannot pass `r` — the certified threshold
/// of ARCHITECTURE §2, equal to the plain one whenever `anchor ∓ r` is
/// exact.
pub(crate) fn threshold(agg: Aggregate, anchor: f64, r: f64) -> f64 {
    let step = if agg == Aggregate::Min { -r } else { r };
    let t = anchor + step;
    if !t.is_finite() {
        return t;
    }
    let rounding = t - anchor;
    let error = (anchor - (t - rounding)) + (step - rounding);
    match agg {
        Aggregate::Min if error > 0.0 => t.next_up(),
        Aggregate::Max if error < 0.0 => t.next_down(),
        _ => t,
    }
}

/// The §5.1 sub-linear path for an unfiltered input: "If B-tree indexes
/// exist on both the upper and lower bounds, the set T_R can be found in
/// time less than O(|T|) by first using the index on upper bounds to find
/// min(Hₖ), and then using the index on lower bounds to find tuples that
/// satisfy Lᵢ < min(Hₖ) − R." MAX mirrors it. `None` when either index is
/// missing; the plan is otherwise identical to the scan's.
fn endpoint_probe(agg: Aggregate, table: &Table, column: usize, r: f64) -> Option<RefreshPlan> {
    let hi = table.index(IndexKey::Hi { column })?;
    let lo = table.index(IndexKey::Lo { column })?;
    let anchor = match agg {
        Aggregate::Min => hi.min_key(),
        _ => lo.max_key(),
    };
    let Some(anchor) = anchor else {
        return Some(RefreshPlan::empty()); // empty table
    };
    let threshold = OrderedF64::new(threshold(agg, anchor.get(), r)).ok()?;
    let mut tuples: Vec<TupleId> = match agg {
        Aggregate::Min => lo.below(threshold).collect(),
        _ => hi.above(threshold).collect(),
    };
    tuples.sort_unstable();
    let costs = tuples.iter().map(|&t| table.cost(t).unwrap_or(0.0));
    let planned_cost = costs.collect::<ExactSum>().read();
    Some(RefreshPlan {
        tuples,
        planned_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::test_fixture::*;
    use crate::agg::AggInput;
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

    fn choose_refresh_min(input: &AggInput, r: f64) -> RefreshPlan {
        plan_extreme(Aggregate::Min, input, r, None, &HashSet::new()).plan
    }

    fn choose_refresh_max(input: &AggInput, r: f64) -> RefreshPlan {
        plan_extreme(Aggregate::Max, input, r, None, &HashSet::new()).plan
    }

    fn choose_refresh_min_indexed(t: &Table, column: usize, r: f64) -> Option<RefreshPlan> {
        endpoint_probe(Aggregate::Min, t, column, r)
    }

    fn choose_refresh_max_indexed(t: &Table, column: usize, r: f64) -> Option<RefreshPlan> {
        endpoint_probe(Aggregate::Max, t, column, r)
    }

    /// Q1 (§5.1): MIN bandwidth over {1,2,5,6} with R = 10: min H = 55,
    /// threshold 45; only tuple 5 (L = 40) refreshes.
    #[test]
    fn paper_q1_choose_refresh() {
        let t = links_table();
        let input = AggInput::build(&t, Some(&on_path()), Some(&col("bandwidth"))).unwrap();
        let plan = choose_refresh_min(&input, 10.0);
        assert_eq!(plan.tuples, ids(&[5]));
        assert_eq!(plan.planned_cost, 4.0);
    }

    /// Q4 (§6.1): MIN traffic WHERE bw>50 AND lat<10, R = 10:
    /// min over T+ of H = 105, threshold 95; tuples 5, 6 (L = 90) refresh.
    #[test]
    fn paper_q4_choose_refresh() {
        let t = links_table();
        let pred = Expr::and(
            Expr::binary(
                BinaryOp::Gt,
                Expr::Column(ColumnRef::bare("bandwidth")),
                Expr::Literal(Value::Float(50.0)),
            ),
            Expr::binary(
                BinaryOp::Lt,
                Expr::Column(ColumnRef::bare("latency")),
                Expr::Literal(Value::Float(10.0)),
            ),
        )
        .bind(&schema())
        .unwrap();
        let input = AggInput::build(&t, Some(&pred), Some(&col("traffic"))).unwrap();
        let plan = choose_refresh_min(&input, 10.0);
        assert_eq!(plan.tuples, ids(&[5, 6]));
    }

    #[test]
    fn loose_constraint_refreshes_nothing() {
        let t = links_table();
        let input = AggInput::build(&t, Some(&on_path()), Some(&col("bandwidth"))).unwrap();
        // Initial width of MIN bandwidth is 15 ([40, 55]); R = 15 suffices.
        let plan = choose_refresh_min(&input, 15.0);
        assert!(plan.is_empty());
    }

    #[test]
    fn r_zero_refreshes_all_possibly_minimal_tuples() {
        let t = links_table();
        let input = AggInput::build(&t, Some(&on_path()), Some(&col("bandwidth"))).unwrap();
        let plan = choose_refresh_min(&input, 0.0);
        // threshold = 55: tuples with lo < 55: t2 (45), t5 (40), t6 (45);
        // t1 (60) stays.
        assert_eq!(plan.tuples, ids(&[2, 5, 6]));
    }

    #[test]
    fn max_mirror() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("latency"))).unwrap();
        // MAX latency: max lo = 12 (t3); R = 2 → threshold 14; tuples with
        // hi > 14: t3 (16).
        let plan = choose_refresh_max(&input, 2.0);
        assert_eq!(plan.tuples, ids(&[3]));
        // R = 4 → threshold 16; nothing exceeds it.
        let plan = choose_refresh_max(&input, 4.0);
        assert!(plan.is_empty());
    }

    /// The §5.1 sub-linear index path must agree with the scan planner on
    /// every (R, workload) probe.
    #[test]
    fn indexed_min_matches_scan_planner() {
        let mut t = links_table();
        t.create_index(trapp_storage::IndexKey::Lo { column: BANDWIDTH })
            .unwrap();
        t.create_index(trapp_storage::IndexKey::Hi { column: BANDWIDTH })
            .unwrap();
        for r in [0.0, 5.0, 10.0, 15.0, 30.0, 100.0] {
            let input = AggInput::build(&t, None, Some(&col("bandwidth"))).unwrap();
            let scan = choose_refresh_min(&input, r);
            let indexed = choose_refresh_min_indexed(&t, BANDWIDTH, r).unwrap();
            assert_eq!(scan, indexed, "R = {r}");
        }
        // Missing indexes → None (fallback signal).
        let bare = links_table();
        assert!(choose_refresh_min_indexed(&bare, BANDWIDTH, 1.0).is_none());
    }

    #[test]
    fn indexed_max_matches_scan_planner() {
        let mut t = links_table();
        t.create_index(trapp_storage::IndexKey::Lo { column: LATENCY })
            .unwrap();
        t.create_index(trapp_storage::IndexKey::Hi { column: LATENCY })
            .unwrap();
        for r in [0.0, 2.0, 4.0, 10.0] {
            let input = AggInput::build(&t, None, Some(&col("latency"))).unwrap();
            let scan = choose_refresh_max(&input, r);
            let indexed = choose_refresh_max_indexed(&t, LATENCY, r).unwrap();
            assert_eq!(scan, indexed, "R = {r}");
        }
    }

    /// The index path stays consistent across refresh mutations (index
    /// maintenance feeds directly into planning).
    #[test]
    fn indexed_plan_tracks_mutations() {
        let mut t = links_table();
        t.create_index(trapp_storage::IndexKey::Lo { column: BANDWIDTH })
            .unwrap();
        t.create_index(trapp_storage::IndexKey::Hi { column: BANDWIDTH })
            .unwrap();
        // Initially tuple 5 blocks at R = 10 (Q1).
        let before = choose_refresh_min_indexed(&t, BANDWIDTH, 10.0).unwrap();
        assert_eq!(before.tuples, ids(&[5]));
        // Refresh tuple 5 to its master value 50: min(H) drops to 50 and
        // nothing has lo < 40.
        t.refresh_cell(trapp_types::TupleId::new(5), BANDWIDTH, 50.0)
            .unwrap();
        let after = choose_refresh_min_indexed(&t, BANDWIDTH, 10.0).unwrap();
        assert!(after.is_empty(), "{:?}", after.tuples);
    }

    #[test]
    fn empty_plus_band_forces_wide_refresh() {
        let t = links_table();
        // No tuple certainly passes traffic > 144.9 (tuple 4 tops at 145).
        let pred = Expr::binary(
            BinaryOp::Gt,
            Expr::Column(ColumnRef::bare("traffic")),
            Expr::Literal(Value::Float(144.9)),
        )
        .bind(&schema())
        .unwrap();
        let input = AggInput::build(&t, Some(&pred), Some(&col("latency"))).unwrap();
        assert_eq!(input.plus_count(), 0);
        let plan = choose_refresh_min(&input, 5.0);
        // Threshold is +∞ − 5 = +∞: every T? tuple must refresh.
        assert_eq!(plan.tuples.len(), input.question_count());
    }
}
