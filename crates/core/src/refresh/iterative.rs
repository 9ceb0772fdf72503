//! Iterative (online) CHOOSE_REFRESH (§8.2).
//!
//! The batch algorithms pick the whole refresh set up front and must
//! guarantee the constraint for *any* realization. The iterative
//! alternative refreshes one tuple at a time, recomputing the bounded
//! answer after each refresh and stopping as soon as the constraint is met —
//! trading refresh-round latency for the chance that favourable actual
//! values let it stop early. It also provides the "online aggregation"
//! behaviour the paper points at ([HAC+99]): the caller sees a bound that
//! tightens monotonically.
//!
//! This module chooses the *next* tuple. In iterative mode query planning
//! ([`crate::query_plan::plan_unit`]) asks it for every unsatisfied unit,
//! so each round is an incomplete fetch plan: the caller fetches the
//! round's tuples, installs them, and plans again.

use std::collections::HashSet;

use trapp_types::TupleId;

use crate::agg::sum::sum_weight;
use crate::agg::{AggInput, Aggregate};

/// Ranking heuristics for the next refresh (compared in ablation ABL-1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IterativeHeuristic {
    /// Largest effective-width reduction per unit cost (the default).
    #[default]
    BestRatio,
    /// Cheapest candidate first.
    CheapestFirst,
    /// Widest candidate first, ignoring cost.
    WidestFirst,
}

/// Picks the next tuple to refresh, or `None` if no refresh can improve the
/// answer (already satisfied, or everything relevant is exact). Tuples in
/// `excluded` (dark sources) are never picked.
pub fn next_refresh(
    agg: Aggregate,
    input: &AggInput,
    r: f64,
    heuristic: IterativeHeuristic,
    excluded: &HashSet<TupleId>,
) -> Option<TupleId> {
    // Candidates and their "benefit" scores are aggregate-specific.
    let scored: Vec<(TupleId, f64, f64)> = match agg {
        Aggregate::Min | Aggregate::Max => {
            // Only tuples past the guarantee threshold block the answer —
            // the batch planner's forced set, against the same certified
            // threshold.
            let anchor = super::min_max::anchor(agg, input);
            let threshold = super::min_max::threshold(agg, anchor, r);
            input
                .items
                .iter()
                .filter_map(|i| match agg {
                    Aggregate::Min if i.interval.lo() < threshold => {
                        Some((i.tid, threshold - i.interval.lo(), i.cost))
                    }
                    Aggregate::Max if i.interval.hi() > threshold => {
                        Some((i.tid, i.interval.hi() - anchor - r, i.cost))
                    }
                    _ => None,
                })
                .collect()
        }
        Aggregate::Count => input.question().map(|i| (i.tid, 1.0, i.cost)).collect(),
        Aggregate::Sum => input
            .items
            .iter()
            .filter(|i| sum_weight(i) > 0.0)
            .map(|i| (i.tid, sum_weight(i), i.cost))
            .collect(),
        Aggregate::Avg => input
            .items
            .iter()
            // AVG is also sensitive to membership: a T? tuple with an exact
            // (even zero) value still perturbs COUNT, so it remains a
            // candidate — refreshing it resolves the predicate columns.
            .filter(|i| sum_weight(i) > 0.0 || i.band == trapp_expr::Band::Question)
            .map(|i| {
                let membership = if i.band == trapp_expr::Band::Question {
                    1.0
                } else {
                    0.0
                };
                (i.tid, sum_weight(i) + membership, i.cost)
            })
            .collect(),
        Aggregate::Median => {
            // Refresh the widest interval overlapping the current answer
            // band — intervals entirely to one side cannot move the median
            // bound inside the band.
            let band = crate::agg::order_stat::bounded_median(input).ok()?;
            input
                .items
                .iter()
                .filter(|i| !i.is_exact() && i.interval.intersect(band).is_some())
                .map(|i| (i.tid, i.interval.width(), i.cost))
                .collect()
        }
    };

    scored
        .into_iter()
        .filter(|(tid, _, _)| !excluded.contains(tid))
        .max_by(|a, b| {
            let score = |c: &(TupleId, f64, f64)| match heuristic {
                IterativeHeuristic::BestRatio => {
                    if c.2 == 0.0 {
                        f64::INFINITY
                    } else {
                        c.1 / c.2
                    }
                }
                IterativeHeuristic::CheapestFirst => -c.2,
                IterativeHeuristic::WidestFirst => c.1,
            };
            score(a)
                .total_cmp(&score(b))
                // Deterministic tie-break: lower tuple id first.
                .then(b.0.cmp(&a.0))
        })
        .map(|(tid, _, _)| tid)
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

    #[test]
    fn sum_picks_best_width_per_cost() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("traffic"))).unwrap();
        // widths {10,10,15,25,20,15}, costs {3,6,6,8,4,2}: ratios
        // {3.3,1.7,2.5,3.1,5,7.5} → tuple 6 wins.
        let next = next_refresh(
            Aggregate::Sum,
            &input,
            10.0,
            IterativeHeuristic::BestRatio,
            &HashSet::new(),
        );
        assert_eq!(next, Some(trapp_types::TupleId::new(6)));
        // Cheapest-first also picks tuple 6 (cost 2).
        let next = next_refresh(
            Aggregate::Sum,
            &input,
            10.0,
            IterativeHeuristic::CheapestFirst,
            &HashSet::new(),
        );
        assert_eq!(next, Some(trapp_types::TupleId::new(6)));
        // Widest-first picks tuple 4 (width 25).
        let next = next_refresh(
            Aggregate::Sum,
            &input,
            10.0,
            IterativeHeuristic::WidestFirst,
            &HashSet::new(),
        );
        assert_eq!(next, Some(trapp_types::TupleId::new(4)));
        // A dark source's tuple is never picked: with tuple 6 excluded the
        // best ratio left is tuple 5's.
        let excluded = HashSet::from([trapp_types::TupleId::new(6)]);
        let next = next_refresh(
            Aggregate::Sum,
            &input,
            10.0,
            IterativeHeuristic::BestRatio,
            &excluded,
        );
        assert_eq!(next, Some(trapp_types::TupleId::new(5)));
    }

    #[test]
    fn min_only_considers_blocking_tuples() {
        let t = links_table();
        let pred = Expr::binary(
            BinaryOp::Eq,
            Expr::Column(ColumnRef::bare("on_path")),
            Expr::Literal(Value::Bool(true)),
        )
        .bind(&schema())
        .unwrap();
        let input = AggInput::build(&t, Some(&pred), Some(&col("bandwidth"))).unwrap();
        // Q1 setting with R = 10: only tuple 5 blocks.
        let next = next_refresh(
            Aggregate::Min,
            &input,
            10.0,
            IterativeHeuristic::BestRatio,
            &HashSet::new(),
        );
        assert_eq!(next, Some(trapp_types::TupleId::new(5)));
        // R = 15: nothing blocks.
        let next = next_refresh(
            Aggregate::Min,
            &input,
            15.0,
            IterativeHeuristic::BestRatio,
            &HashSet::new(),
        );
        assert_eq!(next, None);
    }

    #[test]
    fn count_picks_cheapest_question_tuple() {
        let t = links_table();
        let pred = Expr::binary(
            BinaryOp::Gt,
            Expr::Column(ColumnRef::bare("latency")),
            Expr::Literal(Value::Float(10.0)),
        )
        .bind(&schema())
        .unwrap();
        let input = AggInput::build(&t, Some(&pred), None).unwrap();
        let next = next_refresh(
            Aggregate::Count,
            &input,
            0.0,
            IterativeHeuristic::CheapestFirst,
            &HashSet::new(),
        );
        assert_eq!(next, Some(trapp_types::TupleId::new(5))); // cost 4 < 8
    }

    #[test]
    fn median_targets_overlapping_intervals() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("latency"))).unwrap();
        // Median band is [5, 7]; tuple 3 ([12,16]) does not overlap it and
        // must never be picked.
        let next = next_refresh(
            Aggregate::Median,
            &input,
            0.5,
            IterativeHeuristic::WidestFirst,
            &HashSet::new(),
        )
        .unwrap();
        assert_ne!(next, trapp_types::TupleId::new(3));
    }

    #[test]
    fn exact_everything_yields_none() {
        let t = master_table();
        let input = AggInput::build(&t, None, Some(&col("latency"))).unwrap();
        for agg in [
            Aggregate::Sum,
            Aggregate::Min,
            Aggregate::Max,
            Aggregate::Median,
        ] {
            assert_eq!(
                next_refresh(
                    agg,
                    &input,
                    0.0,
                    IterativeHeuristic::BestRatio,
                    &HashSet::new()
                ),
                None,
                "{agg:?}"
            );
        }
    }
}
