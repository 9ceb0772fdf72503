//! Aggregation over joins (§7).
//!
//! Computing the bounded answer for a join query is "no different from
//! doing so with a selection predicate": classify each *joined* tuple
//! (pair) into `J+ / J? / J−` with the same `Possible`/`Certain` machinery,
//! then apply the single-table aggregate formulas to the surviving pairs.
//!
//! Choosing refresh tuples is where joins get hard — each base tuple feeds
//! many joined tuples and refreshing it moves all of them, so the paper
//! stops at heuristics. This module implements the joined-input
//! construction and the per-round heuristic scoring used by the executor's
//! iterative join loop (the candidates for ablation ABL-4), plus
//! [`join_refresh_batch`]: multi-tuple rounds that fetch every candidate
//! whose combined worst-case contribution still leaves the answer wider
//! than the precision constraint — provably replaying the one-tuple loop's
//! pick sequence, several rounds at a time.

use std::collections::{HashMap, HashSet};

use trapp_expr::{eval, Band, BinaryOp, Expr};
use trapp_storage::{Row, Table};
use trapp_types::{Interval, TrappError, TupleId, Value, ValueType};

use crate::agg::sum::sum_weight;
use crate::agg::{AggInput, AggItem, Aggregate};
use crate::group_by::GroupKey;

use super::iterative::IterativeHeuristic;

/// Which base table a refresh candidate lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JoinSide {
    /// The first table in the FROM clause.
    Left,
    /// The second table.
    Right,
}

/// The classified, evaluated input of a two-table join aggregation.
///
/// `input.items[k].tid` is a synthetic id equal to `k`, the index into
/// [`JoinInput::pairs`]; aggregate formulas only care about bands and
/// intervals, so they work unchanged.
#[derive(Clone, Debug, Default)]
pub struct JoinInput {
    /// Items for pairs in `J+ ∪ J?`.
    pub input: AggInput,
    /// Base-tuple pair per item (parallel to `input.items`).
    pub pairs: Vec<(TupleId, TupleId)>,
    /// Group key per item (parallel to `input.items`; empty when the
    /// query has no GROUP BY). Keys are extracted from exact cells of the
    /// combined schema, so a `J−` pair never contributes a group.
    pub group_keys: Vec<GroupKey>,
    /// Arity of the left table (columns `0..left_arity` belong to it).
    pub left_arity: usize,
    /// Combined-schema columns referenced by the aggregation expression.
    pub arg_cols: Vec<usize>,
    /// Combined-schema columns referenced by the predicate.
    pub pred_cols: Vec<usize>,
}

/// Builds the joined input: evaluates the predicate and the aggregation
/// expression (both bound against the *combined* schema: left columns then
/// right columns) over every pair, plus — when `group_by` names columns —
/// the group key of every surviving pair.
///
/// The full cross product is materialized conceptually; `J−` pairs are
/// dropped immediately, so memory is `O(|J+| + |J?|)`. When the predicate
/// carries an equality conjunct over two exact integer columns, one per
/// side, the cross product is never enumerated at all: a hash index over
/// the right table visits only the pairs that satisfy the conjunct, in the
/// same `(left tid, right tid)` order the nested loop would, and charges
/// the skipped pairs to `minus_count` (exact = exact is certainly false,
/// and `false AND x` is certainly false, so every skipped pair is `J−`).
pub fn build_join_input(
    left: &Table,
    right: &Table,
    predicate: Option<&Expr<usize>>,
    arg: Option<&Expr<usize>>,
    group_by: &[usize],
) -> Result<JoinInput, TrappError> {
    let mut out = JoinInput {
        left_arity: left.schema().arity(),
        arg_cols: arg
            .map(|e| e.columns().into_iter().copied().collect())
            .unwrap_or_default(),
        pred_cols: predicate
            .map(|e| e.columns().into_iter().copied().collect())
            .unwrap_or_default(),
        ..JoinInput::default()
    };
    let la = out.left_arity;
    if let Some((lcol, rcol)) = predicate.and_then(|p| equi_conjunct(p, left, right, la)) {
        // Hash the smaller-keyed side: right tids per key, in scan order
        // (ascending), so pair order matches the nested loop's.
        let mut index: HashMap<i64, Vec<(TupleId, &Row)>> = HashMap::new();
        for (rtid, rrow) in right.scan() {
            if let Ok(Value::Int(k)) = rrow.exact(rcol - la) {
                index.entry(k).or_default().push((rtid, rrow));
            }
        }
        let rlen = right.len();
        for (ltid, lrow) in left.scan() {
            let matches = match lrow.exact(lcol) {
                Ok(Value::Int(k)) => index.get(&k).map(Vec::as_slice).unwrap_or(&[]),
                _ => &[],
            };
            out.input.minus_count += rlen - matches.len();
            for &(rtid, rrow) in matches {
                push_pair(
                    &mut out, left, right, predicate, arg, group_by, ltid, lrow, rtid, rrow,
                )?;
            }
        }
    } else {
        for (ltid, lrow) in left.scan() {
            for (rtid, rrow) in right.scan() {
                push_pair(
                    &mut out, left, right, predicate, arg, group_by, ltid, lrow, rtid, rrow,
                )?;
            }
        }
    }
    Ok(out)
}

/// Classifies one `(left row, right row)` pair and appends its item (or
/// charges `minus_count`). Shared by the nested-loop and hash paths so
/// both produce bit-identical inputs for the pairs they visit.
#[allow(clippy::too_many_arguments)]
fn push_pair(
    out: &mut JoinInput,
    left: &Table,
    right: &Table,
    predicate: Option<&Expr<usize>>,
    arg: Option<&Expr<usize>>,
    group_by: &[usize],
    ltid: TupleId,
    lrow: &Row,
    rtid: TupleId,
    rrow: &Row,
) -> Result<(), TrappError> {
    let mut cells = lrow.cells().to_vec();
    cells.extend_from_slice(rrow.cells());
    let joined = Row::from_cells_unchecked(cells);
    let band = match predicate {
        None => Band::Plus,
        Some(pred) => Band::from_tri(trapp_expr::eval::eval_predicate(pred, &joined)?),
    };
    if band == Band::Minus {
        out.input.minus_count += 1;
        return Ok(());
    }
    let interval = match arg {
        Some(e) => eval(e, &joined)?.as_interval()?,
        None => Interval::new_unchecked(1.0, 1.0),
    };
    let k = out.pairs.len();
    // Planning cost of "resolving" this pair: refreshing both ends.
    let cost = left.cost(ltid)? + right.cost(rtid)?;
    out.input.push_item(AggItem {
        tid: TupleId::new(k as u64),
        band,
        interval,
        cost,
    });
    out.pairs.push((ltid, rtid));
    if !group_by.is_empty() {
        let key: GroupKey = group_by
            .iter()
            .map(|&c| joined.exact(c))
            .collect::<Result<_, _>>()?;
        out.group_keys.push(key);
    }
    Ok(())
}

/// Finds an `lhs = rhs` conjunct in the predicate's top-level AND tree
/// where one operand is an exact INT column of the left table and the
/// other an exact INT column of the right — the shape a hash index can
/// serve without changing any pair's classification.
fn equi_conjunct(
    pred: &Expr<usize>,
    left: &Table,
    right: &Table,
    left_arity: usize,
) -> Option<(usize, usize)> {
    match pred {
        Expr::Binary(BinaryOp::And, a, b) => equi_conjunct(a, left, right, left_arity)
            .or_else(|| equi_conjunct(b, left, right, left_arity)),
        Expr::Binary(BinaryOp::Eq, a, b) => {
            let (Expr::Column(i), Expr::Column(j)) = (a.as_ref(), b.as_ref()) else {
                return None;
            };
            let (lcol, rcol) = match (*i < left_arity, *j < left_arity) {
                (true, false) => (*i, *j),
                (false, true) => (*j, *i),
                _ => return None,
            };
            let lc = left.schema().column_at(lcol).ok()?;
            let rc = right.schema().column_at(rcol - left_arity).ok()?;
            let exact_int = |c: &trapp_storage::ColumnDef| !c.bounded && c.ty == ValueType::Int;
            (exact_int(lc) && exact_int(rc)).then_some((lcol, rcol))
        }
        _ => None,
    }
}

/// `true` if refreshing the given base row can actually shrink the item:
/// some column referenced by `cols`, belonging to this side of the join,
/// is still inexact in the row.
fn side_can_help(
    table: &Table,
    tid: TupleId,
    cols: &[usize],
    side_range: std::ops::Range<usize>,
    left_arity: usize,
) -> bool {
    let Ok(row) = table.row(tid) else {
        return false;
    };
    cols.iter().any(|&c| {
        side_range.contains(&c)
            && row
                .cell(c - if side_range.start == 0 { 0 } else { left_arity })
                .map(|cell| cell.width() > 0.0)
                .unwrap_or(false)
    })
}

/// Multi-tuple join refresh rounds. Scores every base tuple whose refresh
/// can actually reduce the answer's uncertainty — through the aggregation
/// expression for the item's value, or through the predicate for a `T?`
/// item's membership — and returns the longest prefix of the
/// heuristic-ordered candidates that provably replays what the §7
/// one-tuple loop (each round the head of this order, `deficit = 0`)
/// would pick across consecutive rounds —
/// the batch's combined worst-case width reduction still leaves the answer
/// violating the precision constraint, so the sequential loop could not
/// have stopped (or re-scored anything the batch touches) in between.
///
/// `deficit` is `answer width − R`, the uncertainty that must disappear
/// before the constraint is met. The first candidate is always returned
/// (when any exists); each further candidate is appended only while
///
/// * the aggregate is *additive* (SUM or COUNT), where each item's scored
///   weight bounds its possible contribution to the answer width, so the
///   picked candidates' summed benefit under-approximates nothing;
/// * the benefit already picked stays below `deficit` (minus a relative
///   epsilon — stopping early is always safe, overshooting is not); and
/// * the candidate's benefiting item set is disjoint from every picked
///   candidate's, so its score — and everything behind it in the order —
///   is unchanged by the picked refreshes.
///
/// The walk stops at the *first* candidate that fails a test: a skipped
/// overlapping candidate's re-scored benefit could still outrank the
/// candidates behind it, so picking past it would diverge from the
/// sequential order. Non-additive aggregates (AVG/MIN/MAX/MEDIAN) batch
/// one candidate per round, which is exactly the one-tuple loop.
pub fn join_refresh_batch(
    join: &JoinInput,
    left: &Table,
    right: &Table,
    agg: Aggregate,
    heuristic: IterativeHeuristic,
    deficit: f64,
) -> Vec<(JoinSide, TupleId)> {
    let none = HashSet::new();
    join_refresh_batch_excluding(join, left, right, agg, heuristic, deficit, &none, &none)
}

/// [`join_refresh_batch`] over *available* base tuples only: candidates in
/// the per-side `excluded` sets (e.g. tuples backed by a dark source) are
/// never scored or picked, so each round fetches the best *reachable*
/// refreshes and convergence stalls only when no available tuple can still
/// narrow the answer. With both sets empty this is exactly
/// [`join_refresh_batch`].
#[allow(clippy::too_many_arguments)]
pub fn join_refresh_batch_excluding(
    join: &JoinInput,
    left: &Table,
    right: &Table,
    agg: Aggregate,
    heuristic: IterativeHeuristic,
    deficit: f64,
    excluded_left: &HashSet<TupleId>,
    excluded_right: &HashSet<TupleId>,
) -> Vec<(JoinSide, TupleId)> {
    let la = join.left_arity;
    let total = la + right.schema().arity();
    let mut benefit: HashMap<(JoinSide, TupleId), (f64, Vec<usize>)> = HashMap::new();
    for (k, (item, &(ltid, rtid))) in join.input.items.iter().zip(&join.pairs).enumerate() {
        let w = match agg {
            Aggregate::Sum | Aggregate::Avg => sum_weight(item),
            Aggregate::Count => {
                if item.band == Band::Question {
                    1.0
                } else {
                    0.0
                }
            }
            _ => {
                // MIN/MAX/MEDIAN: width plus membership uncertainty.
                item.interval.width()
                    + if item.band == Band::Question {
                        1.0
                    } else {
                        0.0
                    }
            }
        };
        if w <= 0.0 {
            continue;
        }
        let membership = item.band == Band::Question;
        for (side, table, tid, range) in [
            (JoinSide::Left, left, ltid, 0..la),
            (JoinSide::Right, right, rtid, la..total),
        ] {
            let dark = match side {
                JoinSide::Left => excluded_left,
                JoinSide::Right => excluded_right,
            };
            if dark.contains(&tid) {
                continue;
            }
            let helps_value = side_can_help(table, tid, &join.arg_cols, range.clone(), la);
            let helps_membership =
                membership && side_can_help(table, tid, &join.pred_cols, range, la);
            if helps_value || helps_membership {
                let e = benefit.entry((side, tid)).or_insert((0.0, Vec::new()));
                e.0 += w;
                e.1.push(k);
            }
        }
    }

    let cost = |k: &(JoinSide, TupleId)| match k.0 {
        JoinSide::Left => left.cost(k.1).unwrap_or(1.0),
        JoinSide::Right => right.cost(k.1).unwrap_or(1.0),
    };
    let score = |key: &(JoinSide, TupleId), w: f64| match heuristic {
        IterativeHeuristic::BestRatio => {
            let c = cost(key);
            if c == 0.0 {
                f64::INFINITY
            } else {
                w / c
            }
        }
        IterativeHeuristic::CheapestFirst => -cost(key),
        IterativeHeuristic::WidestFirst => w,
    };
    // Total order: descending score, ties by key_order — the argmax of the
    // one-tuple loop comes first, then the argmax of the remainder, and so
    // on (valid as long as nothing ahead of a candidate changes its score,
    // which the disjointness test below guarantees for every pick).
    let mut candidates: Vec<Candidate> = benefit.into_iter().collect();
    candidates.sort_by(|a, b| {
        score(&b.0, b.1 .0)
            .total_cmp(&score(&a.0, a.1 .0))
            .then_with(|| key_order(&a.0).cmp(&key_order(&b.0)))
    });

    let additive = matches!(agg, Aggregate::Sum | Aggregate::Count);
    let margin = 1e-9 * (1.0 + deficit.abs());
    let mut covered = vec![false; join.input.items.len()];
    let mut resolved = 0.0f64;
    let mut picks: Vec<(JoinSide, TupleId)> = Vec::new();
    for (key, (w, items)) in candidates {
        if !picks.is_empty() {
            if !additive || resolved + margin >= deficit {
                break;
            }
            if items.iter().any(|&k| covered[k]) {
                break;
            }
        }
        resolved += w;
        for &k in &items {
            covered[k] = true;
        }
        picks.push(key);
    }
    picks
}

/// A scored refresh candidate: the base tuple, the worst-case width it
/// resolves, and the benefit-item indexes it covers.
type Candidate = ((JoinSide, TupleId), (f64, Vec<usize>));

/// Deterministic tie-break key: left table first, then ascending id.
fn key_order(k: &(JoinSide, TupleId)) -> (u8, u64) {
    (
        match k.0 {
            JoinSide::Left => 0,
            JoinSide::Right => 1,
        },
        k.1.raw(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trapp_expr::{BinaryOp, ColumnRef};
    use trapp_storage::{ColumnDef, Schema};
    use trapp_types::{BoundedValue, Value, ValueType};

    /// Two small tables:
    /// nodes(node_id INT, load BOUNDED)     — 2 rows
    /// links(src INT, latency BOUNDED)      — 3 rows
    /// joined on nodes.node_id = links.src.
    fn nodes() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::exact("node_id", ValueType::Int),
            ColumnDef::bounded_float("load"),
        ])
        .unwrap();
        let mut t = Table::new("nodes", schema);
        t.insert_with_cost(
            vec![
                BoundedValue::Exact(Value::Int(1)),
                BoundedValue::bounded(10.0, 20.0).unwrap(),
            ],
            2.0,
        )
        .unwrap();
        t.insert_with_cost(
            vec![
                BoundedValue::Exact(Value::Int(2)),
                BoundedValue::bounded(30.0, 35.0).unwrap(),
            ],
            5.0,
        )
        .unwrap();
        t
    }

    fn links() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::exact("src", ValueType::Int),
            ColumnDef::bounded_float("latency"),
        ])
        .unwrap();
        let mut t = Table::new("links", schema);
        for (src, lo, hi, cost) in [
            (1i64, 1.0, 3.0, 1.0),
            (1, 4.0, 6.0, 2.0),
            (2, 7.0, 9.0, 3.0),
        ] {
            t.insert_with_cost(
                vec![
                    BoundedValue::Exact(Value::Int(src)),
                    BoundedValue::bounded(lo, hi).unwrap(),
                ],
                cost,
            )
            .unwrap();
        }
        t
    }

    /// Combined schema column indexes: nodes.node_id=0, nodes.load=1,
    /// links.src=2, links.latency=3.
    fn combined_schema() -> Arc<Schema> {
        Schema::new(vec![
            ColumnDef::exact("node_id", ValueType::Int),
            ColumnDef::bounded_float("load"),
            ColumnDef::exact("src", ValueType::Int),
            ColumnDef::bounded_float("latency"),
        ])
        .unwrap()
    }

    fn join_pred() -> Expr<usize> {
        Expr::binary(
            BinaryOp::Eq,
            Expr::Column(ColumnRef::bare("node_id")),
            Expr::Column(ColumnRef::bare("src")),
        )
        .bind(&combined_schema())
        .unwrap()
    }

    fn latency_arg() -> Expr<usize> {
        Expr::Column(ColumnRef::bare("latency"))
            .bind(&combined_schema())
            .unwrap()
    }

    #[test]
    fn equijoin_on_exact_columns_classifies_definitely() {
        let (n, l) = (nodes(), links());
        let ji = build_join_input(&n, &l, Some(&join_pred()), Some(&latency_arg()), &[]).unwrap();
        // 2 × 3 pairs; exactly 3 match the equi-join on exact columns.
        assert_eq!(ji.pairs.len(), 3);
        assert_eq!(ji.input.minus_count, 3);
        assert!(ji.input.items.iter().all(|i| i.band == Band::Plus));
        // SUM latency over joined pairs = [1+4+7, 3+6+9] = [12, 18].
        let s = crate::agg::sum::bounded_sum(&ji.input);
        assert_eq!(s, Interval::new(12.0, 18.0).unwrap());
    }

    #[test]
    fn join_predicate_over_bounded_columns_gives_question_pairs() {
        let (n, l) = (nodes(), links());
        // load > latency * 3: interval comparisons make some pairs uncertain.
        let pred = Expr::binary(
            BinaryOp::Gt,
            Expr::Column(ColumnRef::bare("load")),
            Expr::binary(
                BinaryOp::Mul,
                Expr::Column(ColumnRef::bare("latency")),
                Expr::Literal(Value::Float(3.0)),
            ),
        )
        .bind(&combined_schema())
        .unwrap();
        let ji = build_join_input(&n, &l, Some(&pred), Some(&latency_arg()), &[]).unwrap();
        // Pair (n1, l1): load [10,20] vs 3·[1,3]=[3,9] → certain.
        // Pair (n1, l2): [10,20] vs [12,18] → maybe.
        // Pair (n2, l3): [30,35] vs [21,27] → certain. Etc.
        assert!(ji.input.plus_count() >= 2);
        assert!(ji.input.question_count() >= 1);
    }

    #[test]
    fn refresh_candidate_prefers_high_leverage_base_tuples() {
        let (n, l) = (nodes(), links());
        let ji = build_join_input(&n, &l, Some(&join_pred()), Some(&latency_arg()), &[]).unwrap();
        // For SUM over latency, only links carry width on the aggregation
        // column; nodes.load never appears → candidates are link tuples.
        let next = join_refresh_batch(
            &ji,
            &n,
            &l,
            Aggregate::Sum,
            IterativeHeuristic::BestRatio,
            0.0,
        )[0];
        assert_eq!(next.0, JoinSide::Right);
        // widths/costs: l1 2/1, l2 2/2, l3 2/3 → l1.
        assert_eq!(next.1, TupleId::new(1));
    }

    #[test]
    fn no_candidates_when_everything_exact() {
        let (mut n, mut l) = (nodes(), links());
        for tid in [1u64, 2] {
            n.refresh_cell(TupleId::new(tid), 1, 15.0).unwrap();
        }
        for tid in [1u64, 2, 3] {
            l.refresh_cell(TupleId::new(tid), 1, 5.0).unwrap();
        }
        let ji = build_join_input(&n, &l, Some(&join_pred()), Some(&latency_arg()), &[]).unwrap();
        assert!(join_refresh_batch(
            &ji,
            &n,
            &l,
            Aggregate::Sum,
            IterativeHeuristic::BestRatio,
            0.0
        )
        .is_empty());
    }

    #[test]
    fn cross_join_without_predicate() {
        let (n, l) = (nodes(), links());
        let ji = build_join_input(&n, &l, None, Some(&latency_arg()), &[]).unwrap();
        assert_eq!(ji.pairs.len(), 6);
        assert_eq!(ji.input.minus_count, 0);
    }

    /// The hash equi-join path must be invisible: same pairs, same items,
    /// same J− count as the nested loop. The control build uses
    /// `node_id + 0 = src` — semantically identical but not hash-eligible.
    #[test]
    fn hash_and_nested_paths_agree() {
        let (n, l) = (nodes(), links());
        let obfuscated = Expr::binary(
            BinaryOp::Eq,
            Expr::binary(
                BinaryOp::Add,
                Expr::Column(ColumnRef::bare("node_id")),
                Expr::Literal(Value::Int(0)),
            ),
            Expr::Column(ColumnRef::bare("src")),
        )
        .bind(&combined_schema())
        .unwrap();
        assert!(equi_conjunct(&join_pred(), &n, &l, 2).is_some());
        assert!(equi_conjunct(&obfuscated, &n, &l, 2).is_none());
        let hashed =
            build_join_input(&n, &l, Some(&join_pred()), Some(&latency_arg()), &[]).unwrap();
        let nested =
            build_join_input(&n, &l, Some(&obfuscated), Some(&latency_arg()), &[]).unwrap();
        assert_eq!(hashed.pairs, nested.pairs);
        assert_eq!(hashed.input.items, nested.input.items);
        assert_eq!(hashed.input.minus_count, nested.input.minus_count);
    }

    /// Group keys are extracted per surviving pair, parallel to `pairs`.
    #[test]
    fn group_keys_follow_pairs() {
        let (n, l) = (nodes(), links());
        // GROUP BY node_id (combined column 0).
        let ji = build_join_input(&n, &l, Some(&join_pred()), Some(&latency_arg()), &[0]).unwrap();
        assert_eq!(ji.pairs.len(), 3);
        assert_eq!(
            ji.group_keys,
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ]
        );
    }

    /// With disjoint candidates and an additive aggregate, the batch walks
    /// the sequential pick order until the resolved width would cover the
    /// deficit: SUM latency has one link candidate per pair (w = 2 each,
    /// costs 1/2/3, so BestRatio orders l1, l2, l3).
    #[test]
    fn batch_replays_the_sequential_prefix() {
        let (n, l) = (nodes(), links());
        let ji = build_join_input(&n, &l, Some(&join_pred()), Some(&latency_arg()), &[]).unwrap();
        let picks = |deficit: f64| {
            join_refresh_batch(
                &ji,
                &n,
                &l,
                Aggregate::Sum,
                IterativeHeuristic::BestRatio,
                deficit,
            )
        };
        // Answer width 6; a huge deficit licenses every candidate.
        assert_eq!(
            picks(100.0),
            vec![
                (JoinSide::Right, TupleId::new(1)),
                (JoinSide::Right, TupleId::new(2)),
                (JoinSide::Right, TupleId::new(3)),
            ]
        );
        // Deficit 3: after l1 (w=2) the loop may still be unsatisfied
        // (2 < 3) so l2 is picked; after that 4 ≥ 3 stops the walk.
        assert_eq!(picks(3.0).len(), 2);
        // Deficit 0 (or anything ≤ the first width): exactly the argmax.
        assert_eq!(picks(0.0), vec![(JoinSide::Right, TupleId::new(1))]);
    }

    /// When the best two candidates share a benefiting item, the batch
    /// stops at the overlap: the sequential loop would re-score the shared
    /// item after the first refresh, so nothing past it is provable.
    #[test]
    fn batch_stops_at_overlapping_candidates() {
        let (n, l) = (nodes(), links());
        // SUM(load + latency): every pair benefits from both of its base
        // tuples, so node 1 (pairs 1,2) overlaps link 1 (pair 1).
        let arg = Expr::binary(
            BinaryOp::Add,
            Expr::Column(ColumnRef::bare("load")),
            Expr::Column(ColumnRef::bare("latency")),
        )
        .bind(&combined_schema())
        .unwrap();
        let ji = build_join_input(&n, &l, Some(&join_pred()), Some(&arg), &[]).unwrap();
        let picks = join_refresh_batch(
            &ji,
            &n,
            &l,
            Aggregate::Sum,
            IterativeHeuristic::BestRatio,
            1_000.0,
        );
        // node1 w=24 c=2 (ratio 12) ties link1 w=12 c=1; Left wins the
        // tie, and link1 then overlaps pair 1 → batch is just node1.
        assert_eq!(picks, vec![(JoinSide::Left, TupleId::new(1))]);
        // Non-additive aggregates never batch past the argmax.
        let avg = join_refresh_batch(
            &ji,
            &n,
            &l,
            Aggregate::Avg,
            IterativeHeuristic::BestRatio,
            1_000.0,
        );
        assert_eq!(avg.len(), 1);
    }
}
