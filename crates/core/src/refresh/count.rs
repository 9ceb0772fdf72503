//! CHOOSE_REFRESH for COUNT (§6.3).
//!
//! The COUNT bound's width is exactly `|T?|`, and refreshing any `T?` tuple
//! removes it from `T?` (the refresh resolves every bounded column, so the
//! predicate becomes decidable). The optimal plan is therefore the
//! `⌈|T?| − R⌉` cheapest `T?` tuples — the one place where CHOOSE_REFRESH
//! is a pure cost selection.

use std::collections::HashSet;

use trapp_storage::{IndexKey, Table};
use trapp_types::TupleId;

use crate::agg::AggInput;

use super::{AvailablePlan, PlanProbe, RefreshPlan};

/// How many `T?` tuples must refresh to meet `r` under the input's
/// cardinality slack. `None` means the constraint is already met.
fn tuples_needed(input: &AggInput, r: f64) -> Option<usize> {
    let (inserts, deletes) = input.cardinality_slack;
    let effective_r = r - inserts as f64 - deletes as f64;
    let question = input.question_count();
    let excess = question as f64 - effective_r;
    if excess <= 0.0 {
        None
    } else {
        Some((excess.ceil() as usize).min(question))
    }
}

/// CHOOSE_REFRESH for COUNT: refresh the `⌈|T?| − R⌉` cheapest available
/// `T?` tuples, walking the table's cost index when `probe` has one.
///
/// Under §8.3 cardinality slack `(i, d)`, the answer width is
/// `|T?| + i + d` and refreshes can only remove the `|T?|` part; the plan
/// targets the remaining budget `R − i − d` (refreshing everything in `T?`
/// when even that cannot meet `R` — the executor then reports the honest
/// `satisfied = false`). Fewer available `T?` tuples than needed means
/// unachievable; the plan then refreshes every available one.
pub(crate) fn plan_count(
    input: &AggInput,
    r: f64,
    probe: Option<&PlanProbe<'_>>,
    excluded: &HashSet<TupleId>,
) -> AvailablePlan {
    let Some(need) = tuples_needed(input, r) else {
        return AvailablePlan::guaranteed(RefreshPlan::empty());
    };
    if let Some(tuples) = probe.and_then(|p| cost_walk(input, p.table, need, excluded)) {
        return AvailablePlan::guaranteed(RefreshPlan::from_tuples(input, tuples));
    }
    let mut by_cost: Vec<_> = input
        .question()
        .filter(|i| !excluded.contains(&i.tid))
        .collect();
    by_cost.sort_by(|a, b| a.cost.total_cmp(&b.cost).then(a.tid.cmp(&b.tid)));
    let tuples: Vec<TupleId> = by_cost.iter().take(need).map(|i| i.tid).collect();
    AvailablePlan {
        achievable: tuples.len() == need,
        plan: RefreshPlan::from_tuples(input, tuples),
    }
}

/// Index-accelerated COUNT planning (§6.3's sub-linear remark): instead of
/// sorting the full `T?` candidate vector, walk the table's maintained
/// refresh-cost index in ascending `(cost, tuple)` order — the exact order
/// the scan sorts into — keeping the first `need` available `T?` members.
/// Works with any selection predicate because membership comes from the
/// classified input; only the *ordering* comes from the index.
///
/// Returns `None` when the cost index is missing, the walk runs over
/// budget, or fewer than `need` members surface — the scan then plans
/// (and reports unachievable when exclusions are to blame).
fn cost_walk(
    input: &AggInput,
    table: &Table,
    need: usize,
    excluded: &HashSet<TupleId>,
) -> Option<Vec<TupleId>> {
    let cost_ix = table.index(IndexKey::Cost)?;
    let members: HashSet<TupleId> = input.question().map(|i| i.tid).collect();
    // The walk visits index entries until `need` members surface. When
    // the input is a thin slice of the table (a small group against the
    // table-global cost index) its members are scattered through the
    // whole order, so an unbounded walk would cost O(index) — worse than
    // the O(|T?| log |T?|) sort it replaces. Budget the walk and hand
    // narrow inputs back to the scan.
    let budget = (members.len() * 4).max(256);
    let mut tuples: Vec<TupleId> = Vec::with_capacity(need);
    for (visited, (_, tid)) in cost_ix.ascending().enumerate() {
        if members.contains(&tid) && !excluded.contains(&tid) {
            tuples.push(tid);
            if tuples.len() == need {
                return Some(tuples);
            }
        } else if visited >= budget {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::test_fixture::*;
    use crate::agg::AggInput;
    use trapp_expr::{BinaryOp, ColumnRef, Expr};
    use trapp_types::Value;

    fn latency_gt_10() -> Expr<usize> {
        Expr::binary(
            BinaryOp::Gt,
            Expr::Column(ColumnRef::bare("latency")),
            Expr::Literal(Value::Float(10.0)),
        )
        .bind(&schema())
        .unwrap()
    }

    fn ids(v: &[u64]) -> Vec<trapp_types::TupleId> {
        v.iter().copied().map(trapp_types::TupleId::new).collect()
    }

    fn choose_refresh_count(input: &AggInput, r: f64) -> RefreshPlan {
        plan_count(input, r, None, &HashSet::new()).plan
    }

    /// Q5 (§6.3): COUNT latency > 10 with R = 1. |T?| = 2 ({4, 5} with
    /// costs 8 and 4); refresh ⌈2−1⌉ = 1 cheapest → tuple 5.
    #[test]
    fn paper_q5_choose_refresh() {
        let t = links_table();
        let input = AggInput::build(&t, Some(&latency_gt_10()), None).unwrap();
        let plan = choose_refresh_count(&input, 1.0);
        assert_eq!(plan.tuples, ids(&[5]));
        assert_eq!(plan.planned_cost, 4.0);
    }

    #[test]
    fn exact_count_requires_all_question_tuples() {
        let t = links_table();
        let input = AggInput::build(&t, Some(&latency_gt_10()), None).unwrap();
        let plan = choose_refresh_count(&input, 0.0);
        assert_eq!(plan.tuples, ids(&[4, 5]));
    }

    #[test]
    fn loose_r_needs_nothing() {
        let t = links_table();
        let input = AggInput::build(&t, Some(&latency_gt_10()), None).unwrap();
        assert!(choose_refresh_count(&input, 2.0).is_empty());
        assert!(choose_refresh_count(&input, 5.0).is_empty());
    }

    #[test]
    fn fractional_r_rounds_up_refreshes() {
        let t = links_table();
        let input = AggInput::build(&t, Some(&latency_gt_10()), None).unwrap();
        // |T?| = 2, R = 0.5 → need ⌈1.5⌉ = 2.
        let plan = choose_refresh_count(&input, 0.5);
        assert_eq!(plan.tuples.len(), 2);
    }

    /// §8.3: slack consumes precision budget; plans shrink or saturate.
    #[test]
    fn slack_tightens_or_saturates_plans() {
        let mut t = links_table();
        // |T?| = 2 for latency > 10. Slack (1, 0) makes width 3.
        t.set_cardinality_slack(1, 0);
        let input = AggInput::build(&t, Some(&latency_gt_10()), None).unwrap();
        // R = 2: effective budget 1 → refresh 1 tuple (cheapest).
        let plan = choose_refresh_count(&input, 2.0);
        assert_eq!(plan.tuples, ids(&[5]));
        // R = 0.5 < slack: even refreshing all of T? cannot satisfy; the
        // plan saturates at |T?| rather than panicking.
        let plan = choose_refresh_count(&input, 0.5);
        assert_eq!(plan.tuples.len(), 2);
        // R = 3 absorbs slack plus T? entirely: nothing to do.
        let plan = choose_refresh_count(&input, 3.0);
        assert!(plan.is_empty());
    }

    /// End-to-end slack behaviour: the executor reports honest
    /// (un)satisfaction.
    #[test]
    fn executor_reports_unsatisfied_under_excess_slack() {
        use crate::executor::{QuerySession, TableOracle};
        let mut cache = links_table();
        cache.set_cardinality_slack(2, 0);
        let mut s = QuerySession::new(cache);
        let mut o = TableOracle::from_table(master_table());
        // Width = |T?| + 2 = 4; R = 3 is achievable (refresh 1), R = 1 is not.
        let r = s
            .execute_sql(
                "SELECT COUNT(*) WITHIN 3 FROM links WHERE latency > 10",
                &mut o,
            )
            .unwrap();
        assert!(r.satisfied);
        let r = s
            .execute_sql(
                "SELECT COUNT(*) WITHIN 1 FROM links WHERE latency > 10",
                &mut o,
            )
            .unwrap();
        assert!(!r.satisfied);
        assert!(r.answer.width() > 1.0);
    }

    #[test]
    fn cost_ties_break_deterministically() {
        let mut t = links_table();
        // Make tuples 4 and 5 the same cost.
        t.set_cost(trapp_types::TupleId::new(4), 4.0).unwrap();
        let input = AggInput::build(&t, Some(&latency_gt_10()), None).unwrap();
        let plan = choose_refresh_count(&input, 1.0);
        assert_eq!(plan.tuples, ids(&[4])); // lower id wins ties
    }
}
