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
//!
//! Both run per base row where they can: a pair's work is what its two
//! rows cannot answer alone.

use std::collections::{HashMap, HashSet};
use std::convert::Infallible;

use trapp_expr::eval::eval_predicate;
use trapp_expr::{eval, Band, BinaryOp, Expr};
use trapp_storage::{Row, Table};
use trapp_types::{Interval, TrappError, Tri, TupleId, Value, ValueType};

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
/// The index keys are the `f64` images of the integers, the points the
/// evaluator compares: two integers past 2⁵³ that round to one `f64` are
/// equal to the predicate, so they must share a key.
///
/// **Per base row, not per pair.** The predicate's top-level `AND` splits
/// into conjuncts that read only the left table, only the right, or both.
/// Each side's conjuncts run once per base row, as does an argument that
/// reads one side; a pair's band is the Kleene `AND` of its two rows'
/// results and its cross conjuncts. `AND` is associative and commutative
/// and evaluation never short-circuits, so that is the band the whole
/// predicate gives on the joined row. The hash-served equality is true on
/// every pair the index visits, so it is not evaluated at all. A joined
/// row is built only for a cross conjunct or an argument over both sides.
/// A row is evaluated lazily, on the first pair that visits it: a row no
/// pair visits (no match, or the other side empty) must raise no error —
/// an interval divisor that contains 0 is one — since the per-pair
/// definition never evaluates it. A pair whose row or cross evaluation
/// fails falls back to that definition on its joined row, which reports
/// the first failure in evaluation order.
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
    let conjuncts = predicate.map(split_and).unwrap_or_default();
    let equi = equi_conjunct(&conjuncts, left, right, la);
    let plan = PairPlan::new(predicate, &conjuncts, equi.map(|(i, ..)| i), arg, la);
    let rights: Vec<(TupleId, &Row)> = right.scan().collect();
    let mut right_states = vec![RowState::PENDING; rights.len()];
    // Positions into `rights` per key, in scan order (ascending), so pair
    // order matches the nested loop's.
    let index = equi.map(|(_, lcol, rcol)| {
        let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
        for (r, (_, rrow)) in rights.iter().enumerate() {
            if let Ok(Value::Int(k)) = rrow.exact(rcol - la) {
                index.entry(point_key(k)).or_default().push(r);
            }
        }
        (lcol, index)
    });
    let every: Vec<usize> = match index {
        Some(_) => Vec::new(),
        None => (0..rights.len()).collect(),
    };
    for (ltid, lrow) in left.scan() {
        let matches = match &index {
            Some((lcol, index)) => match lrow.exact(*lcol) {
                Ok(Value::Int(k)) => index.get(&point_key(k)).map(Vec::as_slice).unwrap_or(&[]),
                _ => &[],
            },
            None => every.as_slice(),
        };
        out.input.minus_count += rights.len() - matches.len();
        let mut lstate = RowState::PENDING;
        for &r in matches {
            let (rtid, rrow) = rights[r];
            plan.push_pair(
                &mut out,
                (left, right),
                group_by,
                (ltid, lrow, &mut lstate),
                (rtid, rrow, &mut right_states[r]),
            )?;
        }
    }
    Ok(out)
}

/// The hash-join key of an exact integer: the bits of the `f64` point the
/// evaluator compares it as (an integer never converts to `-0.0`, so equal
/// points have equal bits).
fn point_key(k: i64) -> u64 {
    (k as f64).to_bits()
}

/// The operands of the predicate's top-level `AND` tree, in evaluation
/// order.
fn split_and(pred: &Expr<usize>) -> Vec<&Expr<usize>> {
    fn walk<'e>(e: &'e Expr<usize>, out: &mut Vec<&'e Expr<usize>>) {
        match e {
            Expr::Binary(BinaryOp::And, a, b) => {
                walk(a, out);
                walk(b, out);
            }
            _ => out.push(e),
        }
    }
    let mut out = Vec::new();
    walk(pred, &mut out);
    out
}

/// Which tables an expression reads. A column-free one counts as the
/// left's: it evaluates the same on any row.
enum Reads {
    Left,
    Right,
    Both,
}

fn reads(e: &Expr<usize>, left_arity: usize) -> Reads {
    let cols = e.columns();
    match (
        cols.iter().any(|&&c| c < left_arity),
        cols.iter().any(|&&c| c >= left_arity),
    ) {
        (_, false) => Reads::Left,
        (false, true) => Reads::Right,
        (true, true) => Reads::Both,
    }
}

/// A right-only expression rebound to the right table's own columns.
fn shift_right(e: &Expr<usize>, left_arity: usize) -> Expr<usize> {
    e.map_columns(&mut |&c| Ok::<usize, Infallible>(c - left_arity))
        .unwrap_or_else(|never| match never {})
}

/// The predicate and argument split by the tables they read.
struct PairPlan<'e> {
    /// The whole predicate: the per-pair definition a failing row or
    /// cross conjunct falls back to.
    predicate: Option<&'e Expr<usize>>,
    left: Vec<&'e Expr<usize>>,
    /// Right-only conjuncts over the right table's own columns.
    right: Vec<Expr<usize>>,
    cross: Vec<&'e Expr<usize>>,
    /// The argument (`None` for `COUNT`, `[1, 1]` per pair) and where it
    /// is evaluated.
    arg: Option<(&'e Expr<usize>, ArgRow)>,
    left_arity: usize,
}

/// Where the argument is evaluated: once per left row, once per right
/// row (over the right table's own columns), or per pair.
enum ArgRow {
    Left,
    Right(Expr<usize>),
    Pair,
}

/// A base row's share of a pair's work, evaluated on the first pair that
/// needs it.
#[derive(Clone, Copy)]
struct RowState {
    /// The Kleene `AND` of the row's side-only conjuncts.
    pred: Lazy<Tri>,
    /// The argument's interval, when the argument reads this side only.
    arg: Lazy<Interval>,
}

impl RowState {
    const PENDING: RowState = RowState {
        pred: Lazy::Pending,
        arg: Lazy::Pending,
    };
}

#[derive(Clone, Copy)]
enum Lazy<T> {
    Pending,
    Done(T),
    Failed,
}

impl<T: Copy> Lazy<T> {
    /// The value, computing it on first use; `None` if that failed.
    fn get(&mut self, compute: impl FnOnce() -> Result<T, TrappError>) -> Option<T> {
        if let Lazy::Pending = self {
            *self = compute().map_or(Lazy::Failed, Lazy::Done);
        }
        match *self {
            Lazy::Done(v) => Some(v),
            _ => None,
        }
    }
}

/// One side of a visited pair: its tuple id, its row and the row's state.
type PairSide<'a, 'r> = (TupleId, &'r Row, &'a mut RowState);

impl<'e> PairPlan<'e> {
    /// Splits `conjuncts` (the predicate's top-level `AND` operands)
    /// minus the hash-served one at `served`, and places the argument.
    fn new(
        predicate: Option<&'e Expr<usize>>,
        conjuncts: &[&'e Expr<usize>],
        served: Option<usize>,
        arg: Option<&'e Expr<usize>>,
        left_arity: usize,
    ) -> PairPlan<'e> {
        let mut plan = PairPlan {
            predicate,
            left: Vec::new(),
            right: Vec::new(),
            cross: Vec::new(),
            arg: arg.map(|e| {
                let at = match reads(e, left_arity) {
                    Reads::Left => ArgRow::Left,
                    Reads::Right => ArgRow::Right(shift_right(e, left_arity)),
                    Reads::Both => ArgRow::Pair,
                };
                (e, at)
            }),
            left_arity,
        };
        for (i, &c) in conjuncts.iter().enumerate() {
            if Some(i) == served {
                continue;
            }
            match reads(c, left_arity) {
                Reads::Left => plan.left.push(c),
                Reads::Right => plan.right.push(shift_right(c, left_arity)),
                Reads::Both => plan.cross.push(c),
            }
        }
        plan
    }

    /// Classifies one `(left row, right row)` pair and appends its item
    /// (or charges `minus_count`).
    fn push_pair(
        &self,
        out: &mut JoinInput,
        (left, right): (&Table, &Table),
        group_by: &[usize],
        (ltid, lrow, lstate): PairSide<'_, '_>,
        (rtid, rrow, rstate): PairSide<'_, '_>,
    ) -> Result<(), TrappError> {
        let mut joined: Option<Row> = None;
        let band = match self.predicate {
            None => Band::Plus,
            Some(pred) => {
                let l = lstate
                    .pred
                    .get(|| conjunction(self.left.iter().copied(), lrow));
                let r = rstate.pred.get(|| conjunction(self.right.iter(), rrow));
                let per_row = match (l, r) {
                    (Some(l), Some(r)) if self.cross.is_empty() => Some(l & r),
                    (Some(l), Some(r)) => {
                        let row = join_rows(&mut joined, lrow, rrow);
                        conjunction(self.cross.iter().copied(), row)
                            .ok()
                            .map(|c| l & r & c)
                    }
                    _ => None,
                };
                Band::from_tri(match per_row {
                    Some(t) => t,
                    // A row or a cross conjunct failed: the whole
                    // predicate on the joined row reports the first
                    // failure in evaluation order.
                    None => eval_predicate(pred, join_rows(&mut joined, lrow, rrow))?,
                })
            }
        };
        if band == Band::Minus {
            out.input.minus_count += 1;
            return Ok(());
        }
        let interval = match &self.arg {
            None => Interval::new_unchecked(1.0, 1.0),
            Some((whole, at)) => {
                let per_row = match at {
                    ArgRow::Left => lstate.arg.get(|| interval_of(whole, lrow)),
                    ArgRow::Right(own) => rstate.arg.get(|| interval_of(own, rrow)),
                    ArgRow::Pair => None,
                };
                match per_row {
                    Some(iv) => iv,
                    // Over both sides, or a row that failed: the per-pair
                    // definition, on the joined row.
                    None => interval_of(whole, join_rows(&mut joined, lrow, rrow))?,
                }
            }
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
            let la = self.left_arity;
            let key: GroupKey = group_by
                .iter()
                .map(|&c| {
                    if c < la {
                        lrow.exact(c)
                    } else {
                        rrow.exact(c - la)
                    }
                })
                .collect::<Result<_, _>>()?;
            out.group_keys.push(key);
        }
        Ok(())
    }
}

/// The Kleene `AND` of `conjuncts` on `row` (`True` when there are none).
fn conjunction<'x>(
    conjuncts: impl IntoIterator<Item = &'x Expr<usize>>,
    row: &Row,
) -> Result<Tri, TrappError> {
    conjuncts
        .into_iter()
        .try_fold(Tri::True, |acc, c| Ok(acc & eval_predicate(c, row)?))
}

fn interval_of(e: &Expr<usize>, row: &Row) -> Result<Interval, TrappError> {
    eval(e, row)?.as_interval()
}

/// The pair's joined row (left cells then right cells), built on first use.
fn join_rows<'j>(joined: &'j mut Option<Row>, lrow: &Row, rrow: &Row) -> &'j Row {
    joined.get_or_insert_with(|| {
        let mut cells = Vec::with_capacity(lrow.cells().len() + rrow.cells().len());
        cells.extend_from_slice(lrow.cells());
        cells.extend_from_slice(rrow.cells());
        Row::from_cells_unchecked(cells)
    })
}

/// The first of `conjuncts` a hash index can serve: `lhs = rhs` where one
/// operand is an exact INT column of the left table and the other an exact
/// INT column of the right — the shape an index can serve without changing
/// any pair's classification. Returns its position, then the left and
/// right (combined-schema) columns.
fn equi_conjunct(
    conjuncts: &[&Expr<usize>],
    left: &Table,
    right: &Table,
    left_arity: usize,
) -> Option<(usize, usize, usize)> {
    conjuncts.iter().enumerate().find_map(|(i, c)| {
        let Expr::Binary(BinaryOp::Eq, a, b) = c else {
            return None;
        };
        let (Expr::Column(x), Expr::Column(y)) = (a.as_ref(), b.as_ref()) else {
            return None;
        };
        let (lcol, rcol) = match (*x < left_arity, *y < left_arity) {
            (true, false) => (*x, *y),
            (false, true) => (*y, *x),
            _ => return None,
        };
        let lc = left.schema().column_at(lcol).ok()?;
        let rc = right.schema().column_at(rcol - left_arity).ok()?;
        let exact_int = |c: &trapp_storage::ColumnDef| !c.bounded && c.ty == ValueType::Int;
        (exact_int(lc) && exact_int(rc)).then_some((i, lcol, rcol))
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
/// `deficit` is the uncertainty that must disappear before the constraint
/// is met: `answer width − R`, less twice the fold's rounding allowance
/// ([`crate::refresh::fold_allowance`]) — once for the fold before the
/// picks, once for the fold after — so a pick is admitted only when the
/// refolded answer provably still misses `R`. The first candidate is
/// always returned (when any exists); each further candidate is appended
/// only while
///
/// * the aggregate is *additive* (SUM or COUNT), where each item's scored
///   weight bounds its possible contribution to the answer width, so the
///   picked candidates' summed benefit under-approximates nothing;
/// * the benefit already picked stays below `deficit` (stopping early is
///   always safe, overshooting is not); and
/// * the candidate's benefiting item set is disjoint from every picked
///   candidate's, so its score — and everything behind it in the order —
///   is unchanged by the picked refreshes.
///
/// The walk stops at the *first* candidate that fails a test: a skipped
/// overlapping candidate's re-scored benefit could still outrank the
/// candidates behind it, so picking past it would diverge from the
/// sequential order. Non-additive aggregates (AVG/MIN/MAX/MEDIAN) batch
/// one candidate per round, which is exactly the one-tuple loop.
///
/// Candidates in the per-side `excluded` sets (e.g. tuples backed by a
/// dark source) are never scored or picked, so each round fetches the
/// best *reachable* refreshes and convergence stalls only when no
/// available tuple can still narrow the answer.
///
/// Scoring runs in dense per-side arrays indexed by tuple id: whether a
/// base row can help is decided once per row, and candidates accumulate
/// in first-touch order, each benefit summed in item order. The sort is a
/// total order, so the picks do not depend on that order.
#[allow(clippy::too_many_arguments)]
pub fn join_refresh_batch(
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
    let (lmax, rmax) = join.pairs.iter().fold((0, 0), |(l, r), &(lt, rt)| {
        (l.max(lt.raw()), r.max(rt.raw()))
    });
    let mut sides = [
        SideScores::new(JoinSide::Left, left, excluded_left, join, 0..la, lmax),
        SideScores::new(
            JoinSide::Right,
            right,
            excluded_right,
            join,
            la..total,
            rmax,
        ),
    ];
    let mut candidates: Vec<Candidate> = Vec::new();
    for (k, (item, &(ltid, rtid))) in join.input.items.iter().zip(&join.pairs).enumerate() {
        let membership = item.band == Band::Question;
        let doubt = if membership { 1.0 } else { 0.0 };
        let w = match agg {
            Aggregate::Sum => sum_weight(item),
            Aggregate::Count => doubt,
            // AVG moves with its count too: a `T?` pair of exact value 0
            // still perturbs it (as in the iterative mode's scores).
            Aggregate::Avg => sum_weight(item) + doubt,
            // MIN/MAX/MEDIAN: width plus membership uncertainty.
            _ => item.interval.width() + doubt,
        };
        if w <= 0.0 {
            continue;
        }
        for (side, tid) in sides.iter_mut().zip([ltid, rtid]) {
            if let Some(c) = side.candidate(tid, membership, &mut candidates) {
                let (_, (benefit, items)) = &mut candidates[c];
                *benefit += w;
                items.push(k);
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
    let mut order: Vec<(f64, (u8, u64), usize)> = candidates
        .iter()
        .enumerate()
        .map(|(c, (key, (w, _)))| (score(key, *w), key_order(key), c))
        .collect();
    order.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));

    let additive = matches!(agg, Aggregate::Sum | Aggregate::Count);
    let mut covered = vec![false; join.input.items.len()];
    let mut resolved = 0.0f64;
    let mut picks: Vec<(JoinSide, TupleId)> = Vec::new();
    for (_, _, c) in order {
        let (key, (w, items)) = &candidates[c];
        if !picks.is_empty() {
            if !additive || resolved >= deficit {
                break;
            }
            if items.iter().any(|&k| covered[k]) {
                break;
            }
        }
        resolved += w;
        for &k in items {
            covered[k] = true;
        }
        picks.push(*key);
    }
    picks
}

/// A scored refresh candidate: the base tuple, the worst-case width it
/// resolves, and the benefit-item indexes it covers.
type Candidate = ((JoinSide, TupleId), (f64, Vec<usize>));

/// One side's scoring state, indexed by tuple id.
struct SideScores<'t> {
    side: JoinSide,
    table: &'t Table,
    excluded: &'t HashSet<TupleId>,
    /// The argument's and the predicate's columns on this side, in the
    /// table's own numbering.
    arg_cols: Vec<usize>,
    pred_cols: Vec<usize>,
    /// Whether refreshing the row can shrink an item's value / its
    /// membership, decided on first touch.
    helps: Vec<Option<(bool, bool)>>,
    /// The row's index into the candidate list, once it has one.
    candidate: Vec<Option<usize>>,
}

impl<'t> SideScores<'t> {
    fn new(
        side: JoinSide,
        table: &'t Table,
        excluded: &'t HashSet<TupleId>,
        join: &JoinInput,
        range: std::ops::Range<usize>,
        max_tid: u64,
    ) -> SideScores<'t> {
        let local = |cols: &[usize]| -> Vec<usize> {
            cols.iter()
                .filter(|c| range.contains(c))
                .map(|c| c - range.start)
                .collect()
        };
        let slots = max_tid as usize + 1;
        SideScores {
            side,
            table,
            excluded,
            arg_cols: local(&join.arg_cols),
            pred_cols: local(&join.pred_cols),
            helps: vec![None; slots],
            candidate: vec![None; slots],
        }
    }

    /// The candidate-list index of `tid` when refreshing it can shrink an
    /// item (its value, or a `T?` item's `membership`), appending a fresh
    /// candidate on first touch; `None` when it cannot help, or is
    /// excluded.
    fn candidate(
        &mut self,
        tid: TupleId,
        membership: bool,
        candidates: &mut Vec<Candidate>,
    ) -> Option<usize> {
        let slot = tid.raw() as usize;
        let (value, member) = *self.helps[slot].get_or_insert_with(|| {
            let row = match self.excluded.contains(&tid) {
                true => None,
                false => self.table.row(tid).ok(),
            };
            let inexact = |cols: &[usize]| {
                row.is_some_and(|row| {
                    cols.iter()
                        .any(|&c| row.cell(c).is_ok_and(|cell| cell.width() > 0.0))
                })
            };
            (inexact(&self.arg_cols), inexact(&self.pred_cols))
        });
        if !(value || membership && member) {
            return None;
        }
        Some(*self.candidate[slot].get_or_insert_with(|| {
            candidates.push(((self.side, tid), (0.0, Vec::new())));
            candidates.len() - 1
        }))
    }
}

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

/// The per-pair kernel this module's row-wise one replaced, kept as the
/// reference the equivalence property test holds it to: every pair gets
/// a freshly joined row and whole-tree evaluation, and candidates score
/// through a hash map with a row probe per pair and side.
#[cfg(test)]
mod reference {
    use std::collections::{HashMap, HashSet};

    use trapp_expr::{eval, Band, BinaryOp, Expr};
    use trapp_storage::{Row, Table};
    use trapp_types::{Interval, TrappError, TupleId, Value, ValueType};

    use super::{Candidate, JoinInput, JoinSide};
    use crate::agg::sum::sum_weight;
    use crate::agg::{AggItem, Aggregate};
    use crate::group_by::GroupKey;
    use crate::refresh::iterative::IterativeHeuristic;

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
            let mut index: HashMap<u64, Vec<(TupleId, &Row)>> = HashMap::new();
            for (rtid, rrow) in right.scan() {
                if let Ok(Value::Int(k)) = rrow.exact(rcol - la) {
                    index.entry(point_key(k)).or_default().push((rtid, rrow));
                }
            }
            let rlen = right.len();
            for (ltid, lrow) in left.scan() {
                let matches = match lrow.exact(lcol) {
                    Ok(Value::Int(k)) => index.get(&point_key(k)).map(Vec::as_slice).unwrap_or(&[]),
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

    fn point_key(k: i64) -> u64 {
        (k as f64).to_bits()
    }

    fn key_order(k: &(JoinSide, TupleId)) -> (u8, u64) {
        (
            match k.0 {
                JoinSide::Left => 0,
                JoinSide::Right => 1,
            },
            k.1.raw(),
        )
    }

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

    #[allow(clippy::too_many_arguments)]
    pub fn join_refresh_batch(
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
            let membership = item.band == Band::Question;
            let doubt = if membership { 1.0 } else { 0.0 };
            let w = match agg {
                Aggregate::Sum => sum_weight(item),
                Aggregate::Count => doubt,
                Aggregate::Avg => sum_weight(item) + doubt,
                _ => item.interval.width() + doubt,
            };
            if w <= 0.0 {
                continue;
            }
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
        let mut candidates: Vec<Candidate> = benefit.into_iter().collect();
        candidates.sort_by(|a, b| {
            score(&b.0, b.1 .0)
                .total_cmp(&score(&a.0, a.1 .0))
                .then_with(|| key_order(&a.0).cmp(&key_order(&b.0)))
        });
        let additive = matches!(agg, Aggregate::Sum | Aggregate::Count);
        let mut covered = vec![false; join.input.items.len()];
        let mut resolved = 0.0f64;
        let mut picks: Vec<(JoinSide, TupleId)> = Vec::new();
        for (key, (w, items)) in candidates {
            if !picks.is_empty() {
                if !additive || resolved >= deficit {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trapp_expr::{BinaryOp, ColumnRef};
    use trapp_storage::{ColumnDef, Schema};
    use trapp_types::{BoundedValue, Value, ValueType};

    fn none() -> HashSet<TupleId> {
        HashSet::new()
    }

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
            &none(),
            &none(),
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
            0.0,
            &none(),
            &none()
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
    /// Besides the fixture tables, keys `2⁵³` and `2⁵³ + 1` — distinct
    /// integers, one `f64` point — must pair on both paths.
    #[test]
    fn hash_and_nested_paths_agree() {
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
        let big = 1i64 << 53;
        for (n, l) in [
            (nodes(), links()),
            (keyed(nodes(), big), keyed(links(), big + 1)),
        ] {
            assert!(equi_conjunct(&split_and(&join_pred()), &n, &l, 2).is_some());
            assert!(equi_conjunct(&split_and(&obfuscated), &n, &l, 2).is_none());
            let hashed =
                build_join_input(&n, &l, Some(&join_pred()), Some(&latency_arg()), &[]).unwrap();
            let nested =
                build_join_input(&n, &l, Some(&obfuscated), Some(&latency_arg()), &[]).unwrap();
            assert_eq!(hashed.pairs, nested.pairs);
            assert_eq!(hashed.input.items, nested.input.items);
            assert_eq!(hashed.input.minus_count, nested.input.minus_count);
        }
        let (n, l) = (keyed(nodes(), big), keyed(links(), big + 1));
        let hashed =
            build_join_input(&n, &l, Some(&join_pred()), Some(&latency_arg()), &[]).unwrap();
        assert_eq!(hashed.pairs, vec![(TupleId::new(1), TupleId::new(1))]);
    }

    /// `table`'s first row alone, its key column (column 0) set to `key`.
    fn keyed(table: Table, key: i64) -> Table {
        let tid = TupleId::new(1);
        let row = table.row(tid).unwrap();
        let mut cells = row.cells().to_vec();
        cells[0] = BoundedValue::Exact(Value::Int(key));
        let mut t = Table::new(table.name(), table.schema().clone());
        t.insert_with_cost(cells, table.cost(tid).unwrap()).unwrap();
        t
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
                &none(),
                &none(),
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
            &none(),
            &none(),
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
            &none(),
            &none(),
        );
        assert_eq!(avg.len(), 1);
    }

    /// A seeded generator (splitmix64) for the kernel equivalence test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())]
        }
    }

    // The property test's combined schema: the left table is
    // `(lk INT, la BOUNDED, lx BOUNDED, lg INT)`, the right
    // `(rk INT, rb BOUNDED, rg INT)`.
    const LK: usize = 0;
    const LA: usize = 1;
    const LX: usize = 2;
    const LG: usize = 3;
    const RK: usize = 4;
    const RB: usize = 5;
    const RG: usize = 6;
    const BIG: i64 = 1 << 53;
    const KEYS: [i64; 5] = [1, 2, 3, BIG, BIG + 1];

    fn c(col: usize) -> Expr<usize> {
        Expr::Column(col)
    }

    fn k(v: f64) -> Expr<usize> {
        Expr::Literal(Value::Float(v))
    }

    fn bin(op: BinaryOp, a: Expr<usize>, b: Expr<usize>) -> Expr<usize> {
        Expr::binary(op, a, b)
    }

    /// A bounded cell on a coarse grid, so ties, points and intervals
    /// around 0 all come up.
    fn cell(rng: &mut Rng) -> BoundedValue {
        let lo = rng.below(13) as f64 * 0.5 - 2.0;
        let hi = match rng.below(4) {
            0 => lo,
            _ => lo + rng.below(6) as f64 * 0.5,
        };
        BoundedValue::bounded(lo, hi).unwrap()
    }

    fn int(v: i64) -> BoundedValue {
        BoundedValue::Exact(Value::Int(v))
    }

    /// A table of up to six rows, now and then with one deleted so tuple
    /// ids are not dense.
    fn random_table(
        rng: &mut Rng,
        name: &str,
        schema: Arc<Schema>,
        row: impl Fn(&mut Rng) -> Vec<BoundedValue>,
    ) -> Table {
        let mut t = Table::new(name, schema);
        for _ in 0..rng.below(7) {
            let cost = rng.pick(&[0.0, 0.5, 1.0, 2.0, 3.0]);
            let cells = row(rng);
            t.insert_with_cost(cells, cost).unwrap();
        }
        if !t.is_empty() && rng.below(5) == 0 {
            let victim = rng.pick(&t.tuple_ids().collect::<Vec<_>>());
            t.delete(victim).unwrap();
        }
        t
    }

    fn random_tables(rng: &mut Rng) -> (Table, Table) {
        let left = random_table(
            rng,
            "l",
            Schema::new(vec![
                ColumnDef::exact("lk", ValueType::Int),
                ColumnDef::bounded_float("la"),
                ColumnDef::bounded_float("lx"),
                ColumnDef::exact("lg", ValueType::Int),
            ])
            .unwrap(),
            |rng| {
                vec![
                    int(rng.pick(&KEYS)),
                    cell(rng),
                    cell(rng),
                    int(rng.below(2) as i64),
                ]
            },
        );
        let right = random_table(
            rng,
            "r",
            Schema::new(vec![
                ColumnDef::exact("rk", ValueType::Int),
                ColumnDef::bounded_float("rb"),
                ColumnDef::exact("rg", ValueType::Int),
            ])
            .unwrap(),
            |rng| vec![int(rng.pick(&KEYS)), cell(rng), int(rng.below(2) as i64)],
        );
        (left, right)
    }

    /// One conjunct: equi keys either way round, left-only, right-only,
    /// cross, an `OR` spanning both sides, divisions whose divisor may
    /// contain 0, a negated equality and a column-free comparison.
    fn conjunct(rng: &mut Rng) -> Expr<usize> {
        use BinaryOp::*;
        let lit = |rng: &mut Rng| k(rng.below(9) as f64 * 0.5 - 1.0);
        match rng.below(13) {
            0 => bin(Eq, c(LK), c(RK)),
            1 => bin(Eq, c(RK), c(LK)),
            2 => bin(Gt, c(LA), lit(rng)),
            3 => bin(Eq, c(LG), k(rng.below(2) as f64)),
            4 => bin(Lt, c(RB), lit(rng)),
            5 => bin(Ge, c(RG), k(rng.below(2) as f64)),
            6 => bin(Gt, c(LA), c(RB)),
            7 => bin(Gt, bin(Add, c(LA), c(RB)), lit(rng)),
            8 => bin(Or, bin(Gt, c(LA), lit(rng)), bin(Lt, c(RB), lit(rng))),
            9 => bin(Gt, bin(Div, c(LA), c(LX)), k(1.0)),
            10 => bin(Ge, bin(Div, c(RB), c(RB)), k(1.0)),
            11 => Expr::unary(trapp_expr::UnaryOp::Not, bin(Eq, c(LK), c(RK))),
            _ => bin(Lt, k(1.0), k(2.0)),
        }
    }

    /// An `AND` of one to four conjuncts, nested either way, so the
    /// top-level split sees left- and right-leaning trees.
    fn predicate(rng: &mut Rng) -> Option<Expr<usize>> {
        if rng.below(8) == 0 {
            return None;
        }
        let mut p = conjunct(rng);
        for _ in 0..rng.below(4) {
            let q = conjunct(rng);
            p = match rng.below(2) {
                0 => Expr::and(p, q),
                _ => Expr::and(q, p),
            };
        }
        Some(p)
    }

    /// `COUNT`, either side's column, both sides, a left-only division,
    /// a right-only product, a constant and an exact column.
    fn argument(rng: &mut Rng) -> Option<Expr<usize>> {
        use BinaryOp::*;
        match rng.below(8) {
            0 => None,
            1 => Some(c(LA)),
            2 => Some(c(RB)),
            3 => Some(bin(Add, c(LA), c(RB))),
            4 => Some(bin(Div, c(LA), c(LX))),
            5 => Some(bin(Mul, c(RB), k(2.0))),
            6 => Some(k(2.0)),
            _ => Some(c(LG)),
        }
    }

    fn item_bits(input: &AggInput) -> Vec<(u64, Band, u64, u64, u64)> {
        input
            .items
            .iter()
            .map(|i| {
                (
                    i.tid.raw(),
                    i.band,
                    i.interval.lo().to_bits(),
                    i.interval.hi().to_bits(),
                    i.cost.to_bits(),
                )
            })
            .collect()
    }

    /// A random subset of a table's live ids.
    fn some_of(rng: &mut Rng, table: &Table) -> HashSet<TupleId> {
        table.tuple_ids().filter(|_| rng.below(3) == 0).collect()
    }

    /// The row-wise kernel against the per-pair reference: equal `pairs`,
    /// items (bit for bit), `group_keys` and `minus_count` — or the equal
    /// error — from `build_join_input`, and equal picks from
    /// `join_refresh_batch` for every aggregate and heuristic, with
    /// random deficits and random exclusions on both sides, over the
    /// whole input and over one group's share of it.
    #[test]
    fn row_wise_kernel_matches_the_per_pair_reference() {
        // 10⁴ cases in release (CI's view-maintenance job); a smoke count
        // in debug.
        let cases = if cfg!(debug_assertions) { 500 } else { 10_000 };
        let mut rng = Rng(0x0101_5EED_10E7);
        let (mut hashed, mut errors, mut picked) = (0, 0, 0);
        for case in 0..cases {
            let (left, right) = random_tables(&mut rng);
            let pred = predicate(&mut rng);
            let arg = argument(&mut rng);
            let group_by = rng.pick(&[&[][..], &[LG], &[RG], &[LG, RG], &[LA]]);
            let conjuncts = pred.as_ref().map(split_and).unwrap_or_default();
            hashed += usize::from(equi_conjunct(&conjuncts, &left, &right, 4).is_some());
            let got = build_join_input(&left, &right, pred.as_ref(), arg.as_ref(), group_by);
            let want =
                reference::build_join_input(&left, &right, pred.as_ref(), arg.as_ref(), group_by);
            let ctx = || format!("case {case}: {pred:?} / {arg:?} / {group_by:?}");
            let (got, want) = match (got, want) {
                (Ok(g), Ok(w)) => (g, w),
                (Err(g), Err(w)) => {
                    assert_eq!(g, w, "{}", ctx());
                    errors += 1;
                    continue;
                }
                (g, w) => panic!("{}: {:?} vs reference {:?}", ctx(), g.err(), w.err()),
            };
            assert_eq!(got.pairs, want.pairs, "{}", ctx());
            assert_eq!(item_bits(&got.input), item_bits(&want.input), "{}", ctx());
            assert_eq!(got.group_keys, want.group_keys, "{}", ctx());
            assert_eq!(got.input.minus_count, want.input.minus_count, "{}", ctx());
            assert_eq!(got.input.plus_count(), want.input.plus_count(), "{}", ctx());
            assert_eq!(
                (&got.arg_cols, &got.pred_cols, got.left_arity),
                (&want.arg_cols, &want.pred_cols, want.left_arity),
                "{}",
                ctx()
            );
            // One group's share, as `plan_join_round` hands it over.
            let share = got.group_keys.first().map(|first| {
                let ids: Vec<usize> = (0..got.pairs.len())
                    .filter(|&i| &got.group_keys[i] == first)
                    .collect();
                JoinInput {
                    input: AggInput::new(
                        ids.iter().map(|&i| got.input.items[i]).collect(),
                        0,
                        (0, 0),
                    ),
                    pairs: ids.iter().map(|&i| got.pairs[i]).collect(),
                    group_keys: Vec::new(),
                    ..got.clone()
                }
            });
            for unit in std::iter::once(&got).chain(share.as_ref()) {
                for agg in [
                    Aggregate::Sum,
                    Aggregate::Count,
                    Aggregate::Avg,
                    Aggregate::Min,
                ] {
                    let heuristic = rng.pick(&[
                        IterativeHeuristic::BestRatio,
                        IterativeHeuristic::CheapestFirst,
                        IterativeHeuristic::WidestFirst,
                    ]);
                    let deficit = rng.pick(&[0.0, 1.0, 3.5, f64::INFINITY]);
                    let (lex, rex) = match rng.below(2) {
                        0 => (none(), none()),
                        _ => (some_of(&mut rng, &left), some_of(&mut rng, &right)),
                    };
                    let args = (agg, heuristic, deficit);
                    let got = join_refresh_batch(
                        unit, &left, &right, agg, heuristic, deficit, &lex, &rex,
                    );
                    let want = reference::join_refresh_batch(
                        unit, &left, &right, agg, heuristic, deficit, &lex, &rex,
                    );
                    assert_eq!(got, want, "{}: {args:?} / {lex:?} / {rex:?}", ctx());
                    picked += usize::from(!got.is_empty());
                }
            }
        }
        // The generator must reach both join paths, errors and picks.
        assert!(
            hashed > cases / 10,
            "hash path in {hashed} of {cases} cases"
        );
        assert!(errors > cases / 100, "errors in {errors} of {cases} cases");
        assert!(picked > cases, "picks in {picked} batches");
    }

    /// A left-only `la / lx > 1` whose divisor contains 0 fails only on a
    /// row some pair visits: unmatched by the hash index, or facing an
    /// empty right table, the row is never evaluated (as the per-pair
    /// definition never evaluates it); matched, the build fails with the
    /// reference's error.
    #[test]
    fn a_failing_row_no_pair_visits_is_never_evaluated() {
        let pred = Expr::and(
            bin(BinaryOp::Eq, c(LK), c(RK)),
            bin(BinaryOp::Gt, bin(BinaryOp::Div, c(LA), c(LX)), k(1.0)),
        );
        let left_schema = Schema::new(vec![
            ColumnDef::exact("lk", ValueType::Int),
            ColumnDef::bounded_float("la"),
            ColumnDef::bounded_float("lx"),
            ColumnDef::exact("lg", ValueType::Int),
        ])
        .unwrap();
        let right_schema = Schema::new(vec![
            ColumnDef::exact("rk", ValueType::Int),
            ColumnDef::bounded_float("rb"),
            ColumnDef::exact("rg", ValueType::Int),
        ])
        .unwrap();
        let mut left = Table::new("l", left_schema);
        let divisor = BoundedValue::bounded(-1.0, 1.0).unwrap();
        let la = BoundedValue::bounded(2.0, 3.0).unwrap();
        left.insert(vec![int(7), la.clone(), divisor, int(0)])
            .unwrap();
        left.insert(vec![
            int(1),
            la,
            BoundedValue::bounded(1.0, 2.0).unwrap(),
            int(0),
        ])
        .unwrap();
        let mut right = Table::new("r", right_schema);
        let build = |right: &Table| {
            let got = build_join_input(&left, right, Some(&pred), Some(&c(LA)), &[]);
            let want = reference::build_join_input(&left, right, Some(&pred), Some(&c(LA)), &[]);
            (got, want)
        };
        let (got, want) = build(&right);
        assert_eq!(
            got.unwrap().input.minus_count,
            want.unwrap().input.minus_count
        );
        right
            .insert(vec![int(1), cell(&mut Rng(1)), int(0)])
            .unwrap();
        let (got, want) = build(&right);
        let (got, want) = (got.unwrap(), want.unwrap());
        assert_eq!(got.pairs, want.pairs);
        assert_eq!(got.pairs, vec![(TupleId::new(2), TupleId::new(1))]);
        right
            .insert(vec![int(7), cell(&mut Rng(2)), int(0)])
            .unwrap();
        let (got, want) = build(&right);
        assert_eq!(got.unwrap_err(), TrappError::DivisionByZeroInterval);
        assert_eq!(want.unwrap_err(), TrappError::DivisionByZeroInterval);
    }
}
