//! Incremental **band views**: memoized classified query inputs.
//!
//! Every plan pass used to call [`AggInput::build_filtered`] — a full
//! table scan with per-tuple predicate classification and expression
//! evaluation, executed *under the cache lock*, twice per query (plan →
//! fetch → replan) and once per group for `GROUP BY`. The paper's
//! sub-linear CHOOSE_REFRESH remarks (§5.1, §5.2, §6.3) assume that
//! rescan cost is gone; this module removes it.
//!
//! A [`BandView`] memoizes, per `(table, predicate, arg, group_by)` key,
//! the classified view of the table: the canonical [`AggInput`] (all `T+`
//! items in tuple-id order, then all `T?` items — exactly
//! `build_filtered`'s order) plus, for grouped queries, the per-group
//! partitions. The view stays valid across queries and plan passes; when
//! the table changes, [`BandView::sync`] replays only the tuples the
//! table's change log names ([`trapp_storage::Table::changes_since`]),
//! re-running the *identical* per-tuple classification step
//! (`classify_tuple`) the from-scratch build uses — which is why a synced
//! view is bit-identical to a fresh build (property-tested).
//!
//! Invalidation is pull-based: every `Table` mutation (refresh install,
//! value-initiated update, clock-advance re-materialization, cost change)
//! bumps the table's version and logs the touched tuple; the next access
//! replays exactly those tuples.
//!
//! The piece that makes a selective view cost **its candidate set, not
//! the table**, is the *sticky `T−`* analysis: a tuple for which some
//! exact-only `AND` conjunct of the predicate is certainly false (e.g.
//! `grp = 7` on a row with `grp = 3`) can never leave `T−` through bound
//! movement — only an exact-cell write (tracked by
//! `Table::exact_version`) can revive it. A scalar predicate view
//! therefore keeps the small *candidate* set of bound-sensitive tuples,
//! and while the exact version stands still that set is complete:
//!
//! * **build** — when one of the exact conjuncts is `column = literal`
//!   and the table indexes that column
//!   ([`trapp_storage::Table::tuples_with_value`]), only the rows the
//!   index names are examined; every other row is sticky `T−` by that
//!   very conjunct. Without such an index the build scans.
//! * **resync** — replays whichever is cheaper, the candidates the
//!   change-log tail names or the whole candidate set, plus the rows
//!   inserted since, so a clock advance that re-widened all `n` bounds
//!   costs `O(|candidates|)`, and a view left idle until the log was
//!   compacted past it still resyncs instead of rebuilding.
//!
//! Views without that structure (no predicate, or grouped) replay the
//! full dirty set and fall back to a rebuild when more than half the
//! table changed.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use trapp_expr::{Band, BinaryOp, Expr};
use trapp_storage::{Row, Table};
use trapp_types::{Interval, TrappError, TupleId};

use crate::agg::{classify_tuple, refinement_for, AggInput, AggItem};
use crate::group_by::{render_key, GroupKey};
use crate::plan::BoundQuery;

/// How many distinct views one cache retains before evicting the least
/// recently used (workloads with per-query literal predicates — e.g.
/// random COUNT thresholds — would otherwise grow without bound).
const MAX_VIEWS: usize = 256;

/// Reclassifying one candidate costs about what filtering this many log
/// entries against the candidate set does (~100 ns against a ~25 ns binary
/// search), so a sticky resync filters a log tail up to this many times
/// its candidate count before it prefers replaying every candidate.
/// Filtering first is then at worst twice the cheaper choice; comparing
/// the raw lengths instead cost `hot_cache` 6 % of its median latency
/// (256 reclassifications to dodge a 400-entry filter that names a few).
const REPLAY_IN_LOG_ENTRIES: usize = 4;

/// What one tuple currently contributes to the view.
#[derive(Clone, Debug)]
struct TupleState {
    /// The tuple's band (`Minus` = contributes no item, only a count).
    band: Band,
    /// The rendered group key (grouped views only).
    group: Option<Arc<str>>,
}

/// One group's bookkeeping in a grouped view.
#[derive(Clone, Debug)]
struct GroupState {
    /// The original key values, in `GROUP BY` column order.
    key: GroupKey,
    /// Tuples in the group (every band, including `T−`).
    members: usize,
    /// Members classified `T−`.
    minus: usize,
}

/// A memoized classified view of one table under one `(predicate, arg,
/// group_by)` shape. See the module docs.
pub struct BandView {
    predicate: Option<Expr<usize>>,
    arg: Option<Expr<usize>>,
    group_by: Vec<usize>,
    refinement: Option<Interval>,
    /// The table version the view is synced to.
    version: u64,
    /// The canonical whole-table input (plus-prefix, question-suffix,
    /// each ascending by tuple id). Scalar views keep **no** per-tuple
    /// side state at all: every live row is classified exactly once, so
    /// `minus_count ≡ table.len() − items.len()` and a rebuild costs
    /// exactly what the scan-based build costs.
    input: AggInput,
    /// Per-tuple state of a *grouped* view (bands *and* `T−`, with group
    /// membership); empty for scalar views.
    states: HashMap<TupleId, TupleState>,
    /// Per-group bookkeeping, rendered-key order (grouped views only).
    groups: BTreeMap<Arc<str>, GroupState>,
    /// Memoized per-group inputs; dropped on any change.
    grouped_cache: Option<Vec<(GroupKey, AggInput)>>,
    /// Scalar predicate views only: the live tuples whose band is
    /// sensitive to bound movement (predicate not decidably false on
    /// exact cells alone), ascending. Everything else is **sticky `T−`**
    /// — it cannot leave `T−` until an exact cell changes — and replays
    /// skip it, so re-syncing after a clock advance that re-widened
    /// *every* bound costs O(candidates), not O(table). `None` disables
    /// the skip (no predicate, or a grouped view).
    candidates: Option<Vec<TupleId>>,
    /// Largest tuple id the view has accounted for; live ids above it
    /// are fresh inserts and always classify.
    max_tid: u64,
    /// The table's exact-cell version the stickiness analysis holds for.
    exact_epoch: u64,
    /// Bounded columns of the table (for the stickiness evaluation).
    bounded_cols: Vec<usize>,
    /// The predicate's top-level `AND` conjuncts that reference exact
    /// columns only — the per-row stickiness test (any of them evaluating
    /// certainly-false pins the row in `T−` for every bound valuation,
    /// by Kleene-logic monotonicity). Derived once per rebuild.
    exact_conjuncts: Vec<Expr<usize>>,
    /// LRU stamp maintained by [`ViewCache`].
    last_used: u64,
    /// Rows the per-tuple step (stickiness test → `classify_tuple`) has
    /// run on, over the view's lifetime.
    tuples_classified: u64,
}

impl BandView {
    fn new(predicate: Option<&Expr<usize>>, arg: Option<&Expr<usize>>, group_by: &[usize]) -> Self {
        BandView {
            refinement: refinement_for(predicate, arg),
            predicate: predicate.cloned(),
            arg: arg.cloned(),
            group_by: group_by.to_vec(),
            version: 0,
            input: AggInput::default(),
            states: HashMap::new(),
            groups: BTreeMap::new(),
            grouped_cache: None,
            candidates: None,
            max_tid: 0,
            exact_epoch: 0,
            bounded_cols: Vec::new(),
            exact_conjuncts: Vec::new(),
            last_used: 0,
            tuples_classified: 0,
        }
    }

    /// `true` if this view can maintain a sticky-`T−` candidate set: a
    /// scalar (ungrouped) view whose predicate has at least one
    /// exact-only conjunct to test against.
    fn sticky_eligible(&self) -> bool {
        !self.exact_conjuncts.is_empty() && self.group_by.is_empty()
    }

    /// Whether `row` is **sticky `T−`**: some exact-only conjunct of the
    /// predicate evaluates to certainly-false, pinning the row in `T−`
    /// for *every* bound valuation (a false conjunct forces the whole
    /// conjunction false, and exact cells don't move with the bounds).
    fn is_sticky_minus(&self, row: &Row) -> Result<bool, TrappError> {
        for conjunct in &self.exact_conjuncts {
            if trapp_expr::eval::eval_predicate(conjunct, row)? == trapp_types::Tri::False {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The synced whole-table input — bit-identical to
    /// `AggInput::build_filtered(table, predicate, arg, |_, _| true)`.
    pub fn input(&self) -> &AggInput {
        &self.input
    }

    /// How many rows this view has examined (built or replayed) so far:
    /// the work a selective view is meant to keep proportional to its
    /// candidate set rather than the table.
    pub fn tuples_classified(&self) -> u64 {
        self.tuples_classified
    }

    /// Brings the view up to `table`'s current version, replaying only the
    /// changed tuples (or rebuilding when the change set is large or the
    /// log no longer reaches back). On error the view is left empty and
    /// stale, so the next access rebuilds from scratch.
    pub fn sync(&mut self, table: &Table) -> Result<(), TrappError> {
        if self.version == table.version() {
            // A fresh view and a never-mutated table are both at version
            // 0 and both empty, so version equality alone means synced.
            return Ok(());
        }
        let result = match (&self.candidates, table.changes_since(self.version)) {
            // Sticky path: while no exact cell has moved, every tuple
            // outside the candidate set is still pinned in `T−`, so the
            // dirty set is the candidates the log names — or, when
            // filtering the log tail would cost more than replaying the
            // lot (a clock advance re-widened all n bounds) or the log
            // no longer reaches back (compacted, or floored by a slack
            // change), simply every candidate. Either way the rows
            // inserted since ride along and nothing else is touched.
            (Some(cands), entries)
                if self.exact_epoch == table.exact_version() && self.version < table.version() =>
            {
                let dirty: Vec<TupleId> = match entries {
                    Some(entries) if entries.len() <= REPLAY_IN_LOG_ENTRIES * cands.len() => {
                        let mut dirty: Vec<TupleId> = entries
                            .iter()
                            .map(|&(_, t)| t)
                            .filter(|t| t.raw() > self.max_tid || cands.binary_search(t).is_ok())
                            .collect();
                        dirty.sort_unstable();
                        dirty.dedup();
                        dirty
                    }
                    _ => cands
                        .iter()
                        .copied()
                        .chain(table.tuple_ids_after(TupleId::new(self.max_tid)))
                        .collect(),
                };
                self.apply_changes(table, &dirty)
            }
            // No candidate set (unfiltered or grouped view — a scalar
            // predicate view whose exact epoch moved rebuilds instead,
            // which is what re-derives its candidate set): replaying more
            // than half the table costs more than a clean rebuild. The
            // raw entry count over-approximates the distinct tuple count,
            // so this can only over-rebuild, never under-replay.
            (None, Some(entries)) if entries.len() * 2 <= table.len() => {
                let mut dirty: Vec<TupleId> = entries.iter().map(|&(_, t)| t).collect();
                dirty.sort_unstable();
                dirty.dedup();
                self.apply_changes(table, &dirty)
            }
            _ => self.rebuild(table),
        };
        match result {
            Ok(()) => {
                self.version = table.version();
                Ok(())
            }
            Err(e) => {
                // Half-applied changes are unusable: poison the view.
                self.reset();
                Err(e)
            }
        }
    }

    fn reset(&mut self) {
        self.input = AggInput::default();
        self.states.clear();
        self.groups.clear();
        self.grouped_cache = None;
        self.candidates = None;
        self.max_tid = 0;
        self.version = 0;
    }

    /// Full rebuild — the per-tuple step `build_filtered` runs, plus the
    /// band/group bookkeeping, over the rows the predicate can admit:
    /// the ones a value index names when an exact conjunct pins an
    /// indexed column (the rest are sticky `T−` by that conjunct, which
    /// is all the scan would have found out about them), every row
    /// otherwise. Rows the index excludes are never evaluated, so an
    /// evaluation error confined to them does not surface — as on the
    /// sticky replay path.
    fn rebuild(&mut self, table: &Table) -> Result<(), TrappError> {
        self.reset();
        self.exact_epoch = table.exact_version();
        self.bounded_cols = table.schema().bounded_columns();
        let mut conjuncts = Vec::new();
        if let Some(pred) = &self.predicate {
            collect_exact_conjuncts(pred, &self.bounded_cols, &mut conjuncts);
        }
        self.exact_conjuncts = conjuncts;
        let grouped = !self.group_by.is_empty();
        let mut candidates = self.sticky_eligible().then(Vec::new);
        // Only a view that keeps a candidate set may skip rows.
        let pinned: Option<Vec<TupleId>> = candidates.as_ref().and_then(|_| {
            self.exact_conjuncts.iter().find_map(|c| {
                let (column, value) = equality_pin(c)?;
                table.tuples_with_value(column, value)
            })
        });
        let rows: Box<dyn Iterator<Item = Result<(TupleId, &Row), TrappError>> + '_> = match &pinned
        {
            Some(tids) => Box::new(tids.iter().map(|&tid| Ok((tid, table.row(tid)?)))),
            None => Box::new(table.scan().map(Ok)),
        };
        self.max_tid = table.tuple_ids().next_back().map_or(0, TupleId::raw);
        let mut plus_items: Vec<AggItem> = Vec::new();
        let mut question_items: Vec<AggItem> = Vec::new();
        for entry in rows {
            let (tid, row) = entry?;
            self.tuples_classified += 1;
            if let Some(cands) = &mut candidates {
                if self.is_sticky_minus(row)? {
                    // Pinned in T− by exact cells: no item, and replays
                    // skip it until the exact epoch moves.
                    continue;
                }
                cands.push(tid);
            }
            let item = classify_tuple(
                self.predicate.as_ref(),
                self.arg.as_ref(),
                self.refinement,
                tid,
                row,
                table.cost(tid)?,
            )?;
            if grouped {
                let band = match &item {
                    Some(i) => i.band,
                    None => Band::Minus,
                };
                let group = self.group_of(row)?;
                if let Some(g) = &group {
                    let state = self.groups.entry(g.clone()).or_insert_with(|| GroupState {
                        key: render_source(row, &self.group_by).expect("rendered above"),
                        members: 0,
                        minus: 0,
                    });
                    state.members += 1;
                    state.minus += usize::from(band == Band::Minus);
                }
                self.states.insert(tid, TupleState { band, group });
            }
            match item {
                Some(i) if i.band == Band::Plus => plus_items.push(i),
                Some(i) => question_items.push(i),
                None => {}
            }
        }
        let mut items = plus_items;
        let plus_len = items.len();
        items.append(&mut question_items);
        let minus_count = table.len() - items.len();
        self.input = AggInput::new(items, minus_count, table.cardinality_slack());
        debug_assert_eq!(self.input.plus_count(), plus_len);
        self.candidates = candidates;
        Ok(())
    }

    /// Replays a batch of changed tuples (`dirty` sorted, deduplicated):
    /// retracts each tuple's old side bookkeeping, reclassifies the live
    /// ones with the *identical* per-tuple step the scan build uses, and
    /// repairs the canonical item vector in **one** merge pass — dirty
    /// tuples filtered out, their new items merged in — so a sync costs
    /// `O(n + Δ·classify)` memory traffic instead of `Δ` vector splices.
    fn apply_changes(&mut self, table: &Table, dirty: &[TupleId]) -> Result<(), TrappError> {
        self.grouped_cache = None;
        let grouped = !self.group_by.is_empty();
        let mut new_plus: Vec<AggItem> = Vec::new();
        let mut new_question: Vec<AggItem> = Vec::new();
        let mut deleted = false;
        for &tid in dirty {
            // ---- Retract the old group membership (grouped views only;
            // the item vector is repaired wholesale below, and the
            // table-wide minus count is derived after the repair).
            if grouped {
                if let Some(old) = self.states.remove(&tid) {
                    if let Some(g) = old.group {
                        let state = self.groups.get_mut(&g).expect("group tracked");
                        state.members -= 1;
                        state.minus -= usize::from(old.band == Band::Minus);
                        if state.members == 0 {
                            self.groups.remove(&g);
                        }
                    }
                }
            }
            // ---- Reclassify, if the tuple still exists.
            let Ok(row) = table.row(tid) else {
                deleted = true;
                continue;
            };
            self.tuples_classified += 1;
            // A fresh insert joins the candidate set unless it is sticky
            // T− (new ids ascend past every existing candidate, so a push
            // keeps the set sorted); sticky inserts contribute nothing.
            if tid.raw() > self.max_tid {
                self.max_tid = tid.raw();
                if self.candidates.is_some() && self.is_sticky_minus(row)? {
                    continue;
                }
                if let Some(cands) = &mut self.candidates {
                    cands.push(tid);
                }
            }
            let item = classify_tuple(
                self.predicate.as_ref(),
                self.arg.as_ref(),
                self.refinement,
                tid,
                row,
                table.cost(tid)?,
            )?;
            if grouped {
                let band = match &item {
                    Some(i) => i.band,
                    None => Band::Minus,
                };
                let group = self.group_of(row)?;
                if let Some(g) = &group {
                    let state = self.groups.entry(g.clone()).or_insert_with(|| GroupState {
                        key: render_source(row, &self.group_by).expect("rendered above"),
                        members: 0,
                        minus: 0,
                    });
                    state.members += 1;
                    state.minus += usize::from(band == Band::Minus);
                }
                self.states.insert(tid, TupleState { band, group });
            }
            // `dirty` ascends, so these stay tid-sorted without a sort.
            match item {
                Some(i) if i.band == Band::Plus => new_plus.push(i),
                Some(i) => new_question.push(i),
                None => {}
            }
        }
        // ---- Repair the canonical vector in one pass per segment.
        let old = std::mem::take(&mut self.input.items);
        let (old_plus, old_question) = old.split_at(self.input.plus_items);
        let mut items = merge_repair(old_plus, dirty, new_plus);
        let plus_len = items.len();
        let mut question = merge_repair(old_question, dirty, new_question);
        items.append(&mut question);
        self.input.plus_items = plus_len;
        self.input.minus_count = table.len() - items.len();
        self.input.items = items;
        // Slack is table-global and floors the log; the candidate replay
        // is the one path that syncs across such a floor.
        self.input.cardinality_slack = table.cardinality_slack();
        if deleted {
            if let Some(cands) = &mut self.candidates {
                cands.retain(|&tid| table.row(tid).is_ok());
            }
        }
        Ok(())
    }

    /// The rendered group key of a row (`None` for ungrouped views).
    fn group_of(&self, row: &Row) -> Result<Option<Arc<str>>, TrappError> {
        if self.group_by.is_empty() {
            return Ok(None);
        }
        let key = render_source(row, &self.group_by)?;
        Ok(Some(Arc::from(render_key(&key).as_str())))
    }

    /// The per-group inputs, assembled in **one** pass over the view
    /// instead of one table scan per group, in rendered-key order — each
    /// bit-identical to `build_filtered` with that group's member filter.
    /// Memoized until the next change.
    pub fn grouped_inputs(&mut self) -> &[(GroupKey, AggInput)] {
        if self.grouped_cache.is_none() {
            let mut buckets: BTreeMap<Arc<str>, (Vec<AggItem>, Vec<AggItem>)> = self
                .groups
                .keys()
                .map(|k| (k.clone(), Default::default()))
                .collect();
            for item in &self.input.items {
                let state = &self.states[&item.tid];
                let g = state.group.as_ref().expect("grouped view");
                let (plus, question) = buckets.get_mut(g).expect("group tracked");
                if item.band == Band::Plus {
                    plus.push(*item);
                } else {
                    question.push(*item);
                }
            }
            let slack = self.input.cardinality_slack;
            let assembled = self
                .groups
                .iter()
                .map(|(rendered, state)| {
                    let (plus, question) = buckets.remove(rendered).expect("bucketed");
                    let plus_len = plus.len();
                    let mut items = plus;
                    items.append(&mut { question });
                    let input = AggInput::new(items, state.minus, slack);
                    debug_assert_eq!(input.plus_count(), plus_len);
                    (state.key.clone(), input)
                })
                .collect();
            self.grouped_cache = Some(assembled);
        }
        self.grouped_cache.as_deref().expect("just assembled")
    }
}

/// Collects the top-level `AND` conjuncts of `e` that reference no
/// bounded column — the exact-only tests whose certain falsehood pins a
/// row in `T−` regardless of bound movement. Non-`AND` structure (OR,
/// NOT, bounded comparisons) contributes nothing: always sound, merely
/// less sticky.
fn collect_exact_conjuncts(e: &Expr<usize>, bounded: &[usize], out: &mut Vec<Expr<usize>>) {
    if let Expr::Binary(BinaryOp::And, l, r) = e {
        collect_exact_conjuncts(l, bounded, out);
        collect_exact_conjuncts(r, bounded, out);
        return;
    }
    if e.columns().iter().all(|c| !bounded.contains(c)) {
        out.push(e.clone());
    }
}

/// `(column, value)` if `e` is `column = literal` (either way round) over
/// a numeric literal: the shape a value index can answer.
fn equality_pin(e: &Expr<usize>) -> Option<(usize, f64)> {
    let Expr::Binary(BinaryOp::Eq, l, r) = e else {
        return None;
    };
    match (l.as_ref(), r.as_ref()) {
        (Expr::Column(c), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(c)) => {
            Some((*c, v.as_f64().ok()?))
        }
        _ => None,
    }
}

/// One segment of the canonical item vector, repaired: `old` (tid-sorted)
/// with every tuple in `dirty` (sorted) dropped, and `fresh` (tid-sorted
/// replacement items, disjoint from the kept old items) merged in by
/// tuple id.
fn merge_repair(old: &[AggItem], dirty: &[TupleId], fresh: Vec<AggItem>) -> Vec<AggItem> {
    let mut out: Vec<AggItem> = Vec::with_capacity(old.len() + fresh.len());
    let mut fresh = fresh.into_iter().peekable();
    for item in old {
        if dirty.binary_search(&item.tid).is_ok() {
            continue; // retracted; its replacement (if any) rides `fresh`
        }
        while let Some(f) = fresh.peek() {
            if f.tid < item.tid {
                let f = *f;
                fresh.next();
                out.push(f);
            } else {
                break;
            }
        }
        out.push(*item);
    }
    out.extend(fresh);
    out
}

/// Extracts the group-key values of a row.
fn render_source(row: &Row, group_by: &[usize]) -> Result<GroupKey, TrappError> {
    let mut key: GroupKey = Vec::with_capacity(group_by.len());
    for &col in group_by {
        key.push(row.exact(col)?);
    }
    Ok(key)
}

/// The per-session cache of band views, keyed by the query shape.
#[derive(Default)]
pub struct ViewCache {
    views: HashMap<String, BandView>,
    tick: u64,
    /// [`BandView::tuples_classified`] of the views evicted so far.
    evicted_classified: u64,
}

impl ViewCache {
    /// The view for `(table, predicate, arg, group_by)`, created on first
    /// use. Evicts the least recently used view past the retention cap.
    pub fn view_for(&mut self, table: &str, bound: &BoundQuery) -> &mut BandView {
        let key = fingerprint(table, bound);
        self.tick += 1;
        if !self.views.contains_key(&key) && self.views.len() >= MAX_VIEWS {
            if let Some(oldest) = self
                .views
                .iter()
                .min_by_key(|(_, v)| v.last_used)
                .map(|(k, _)| k.clone())
            {
                if let Some(view) = self.views.remove(&oldest) {
                    self.evicted_classified += view.tuples_classified;
                }
            }
        }
        let view = self.views.entry(key).or_insert_with(|| {
            BandView::new(
                bound.predicate.as_ref(),
                bound.arg.as_ref(),
                &bound.group_by,
            )
        });
        view.last_used = self.tick;
        view
    }

    /// Rows examined by every view this cache has held, evicted ones
    /// included; see [`BandView::tuples_classified`].
    pub fn tuples_classified(&self) -> u64 {
        self.evicted_classified
            + self
                .views
                .values()
                .map(|v| v.tuples_classified)
                .sum::<u64>()
    }
}

/// A deterministic key for the view a query shape maps to. `WITHIN` and
/// the aggregate are deliberately excluded: the classified input only
/// depends on the predicate, the aggregation expression, and the grouping.
fn fingerprint(table: &str, bound: &BoundQuery) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(64);
    let _ = write!(
        s,
        "{table}\u{1f}{:?}\u{1f}{:?}\u{1f}{:?}",
        bound.predicate, bound.arg, bound.group_by
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::test_fixture::*;
    use trapp_expr::{BinaryOp, ColumnRef};
    use trapp_types::Value;

    fn cmp(col: &str, op: BinaryOp, k: f64) -> Expr<usize> {
        Expr::binary(
            op,
            Expr::Column(ColumnRef::bare(col)),
            Expr::Literal(Value::Float(k)),
        )
        .bind(&schema())
        .unwrap()
    }

    fn col(name: &str) -> Expr<usize> {
        Expr::Column(ColumnRef::bare(name)).bind(&schema()).unwrap()
    }

    fn assert_matches_scratch(
        view: &mut BandView,
        table: &Table,
        predicate: Option<&Expr<usize>>,
        arg: Option<&Expr<usize>>,
    ) {
        view.sync(table).unwrap();
        let scratch = AggInput::build_filtered(table, predicate, arg, |_, _| true).unwrap();
        assert_eq!(view.input().items, scratch.items);
        assert_eq!(view.input().minus_count, scratch.minus_count);
        assert_eq!(view.input().cardinality_slack, scratch.cardinality_slack);
        assert_eq!(view.input().plus_count(), scratch.plus_count());
    }

    #[test]
    fn view_tracks_refreshes_incrementally() {
        let mut t = links_table();
        let pred = cmp("latency", BinaryOp::Gt, 10.0);
        let arg = col("latency");
        let mut view = BandView::new(Some(&pred), Some(&arg), &[]);
        assert_matches_scratch(&mut view, &t, Some(&pred), Some(&arg));

        // A refresh reclassifies tuple 4 ([9,11] → point 9: T? → T−) and
        // the view must follow without a rebuild.
        t.refresh_cell(TupleId::new(4), LATENCY, 9.0).unwrap();
        assert_matches_scratch(&mut view, &t, Some(&pred), Some(&arg));
        // Another lands tuple 5 in T+.
        t.refresh_cell(TupleId::new(5), LATENCY, 10.5).unwrap();
        assert_matches_scratch(&mut view, &t, Some(&pred), Some(&arg));
    }

    #[test]
    fn view_tracks_inserts_deletes_and_costs() {
        let mut t = links_table();
        let arg = col("traffic");
        let mut view = BandView::new(None, Some(&arg), &[]);
        assert_matches_scratch(&mut view, &t, None, Some(&arg));

        t.delete(TupleId::new(3)).unwrap();
        assert_matches_scratch(&mut view, &t, None, Some(&arg));

        let tid = t
            .insert_with_cost(
                vec![
                    trapp_types::BoundedValue::Exact(Value::Int(6)),
                    trapp_types::BoundedValue::Exact(Value::Int(1)),
                    trapp_types::BoundedValue::bounded(1.0, 2.0).unwrap(),
                    trapp_types::BoundedValue::bounded(50.0, 60.0).unwrap(),
                    trapp_types::BoundedValue::bounded(100.0, 130.0).unwrap(),
                    trapp_types::BoundedValue::Exact(Value::Bool(false)),
                ],
                9.0,
            )
            .unwrap();
        assert_matches_scratch(&mut view, &t, None, Some(&arg));
        t.set_cost(tid, 2.5).unwrap();
        assert_matches_scratch(&mut view, &t, None, Some(&arg));
    }

    #[test]
    fn slack_change_rebuilds() {
        let mut t = links_table();
        let mut view = BandView::new(None, None, &[]);
        assert_matches_scratch(&mut view, &t, None, None);
        t.set_cardinality_slack(2, 1);
        assert_matches_scratch(&mut view, &t, None, None);
        assert_eq!(view.input().cardinality_slack, (2, 1));
    }

    /// A slack change floors the change log. A sticky predicate view
    /// crosses that floor by replaying its candidates — the one path that
    /// does not rebuild — so the replay itself must pick the slack up.
    #[test]
    fn slack_change_reaches_candidate_replay() {
        let mut t = links_table();
        let pred = Expr::and(
            cmp("from_node", BinaryOp::Eq, 2.0),
            cmp("latency", BinaryOp::Gt, 6.0),
        );
        let mut view = BandView::new(Some(&pred), None, &[]);
        assert_matches_scratch(&mut view, &t, Some(&pred), None);
        assert_eq!(view.tuples_classified(), 6, "scan build");
        t.set_cardinality_slack(2, 1);
        assert_matches_scratch(&mut view, &t, Some(&pred), None);
        assert_eq!(view.input().cardinality_slack, (2, 1));
        assert_eq!(view.tuples_classified(), 6 + 2, "two candidates replayed");
    }

    /// The complexity claim as exact counts, at the benchmark's
    /// `big_table` size: what a `grp = k` view examines is its 8-row
    /// candidate set, whatever happened to the other 19,992 rows.
    #[test]
    fn selective_view_work_tracks_candidates_not_table() {
        use trapp_storage::{ColumnDef, IndexKey, Schema};
        use trapp_types::{BoundedValue, ValueType};
        const GROUPS: i64 = 2_500;
        const PER_GROUP: u64 = 8;
        const ROWS: u64 = GROUPS as u64 * PER_GROUP;

        let schema = Schema::new(vec![
            ColumnDef::exact("grp", ValueType::Int),
            ColumnDef::bounded_float("load"),
        ])
        .unwrap();
        let mut plain = Table::new("metrics", schema.clone());
        for g in 0..GROUPS {
            for i in 0..PER_GROUP {
                let mid = 50.0 + i as f64;
                plain
                    .insert(vec![
                        BoundedValue::Exact(Value::Int(g)),
                        BoundedValue::bounded(mid - 1.0, mid + 1.0).unwrap(),
                    ])
                    .unwrap();
            }
        }
        let mut indexed = plain.clone();
        indexed.create_index(IndexKey::Lo { column: 0 }).unwrap();
        // A clock advance: every bound of the table rewritten, wider
        // than the round before so no write is skipped as a no-op.
        let mut round = 1.0;
        let mut advance = |t: &mut Table| {
            round += 1.0;
            for tid in t.tuple_ids().collect::<Vec<_>>() {
                let mid = t.interval(tid, 1).unwrap().midpoint();
                t.update_cell(
                    tid,
                    1,
                    BoundedValue::bounded(mid - round, mid + round).unwrap(),
                )
                .unwrap();
            }
        };
        let pin = |k: i64| {
            Expr::binary(
                BinaryOp::Eq,
                Expr::Column(ColumnRef::bare("grp")),
                Expr::Literal(Value::Int(k)),
            )
            .bind(&schema)
            .unwrap()
        };
        let pred = pin(1_234);
        let arg = Expr::Column(ColumnRef::bare("load")).bind(&schema).unwrap();
        let check = |view: &mut BandView, t: &Table| {
            assert_matches_scratch(view, t, Some(&pred), Some(&arg));
            view.tuples_classified()
        };

        // Build: the index names the 8 rows of the group.
        let mut view = BandView::new(Some(&pred), Some(&arg), &[]);
        assert_eq!(check(&mut view, &indexed), 8);
        assert_eq!(view.input().items.len(), 8);
        // Resync after all 20,000 bounds moved: the 8 candidates.
        advance(&mut indexed);
        assert_eq!(check(&mut view, &indexed), 16);
        // Idle while the log (2 × rows) is compacted past the view.
        let synced_to = indexed.version();
        for _ in 0..3 {
            advance(&mut indexed);
        }
        assert!(indexed.changes_since(synced_to).is_none());
        assert_eq!(check(&mut view, &indexed), 24);
        // An exact cell moved (a row joins the group): the candidate set
        // is void and the view rebuilds — through the index, 9 rows.
        let newcomer = indexed.tuple_ids().next().unwrap();
        indexed
            .update_cell(newcomer, 0, BoundedValue::Exact(Value::Int(1_234)))
            .unwrap();
        assert_eq!(check(&mut view, &indexed), 24 + 9);
        assert_eq!(view.input().items.len(), 9);

        // Without the index the build scans, which makes a rebuild
        // visible as 20,000 — and the compacted-log resync is not one.
        let mut view = BandView::new(Some(&pred), Some(&arg), &[]);
        assert_eq!(check(&mut view, &plain), ROWS);
        let synced_to = plain.version();
        for _ in 0..3 {
            advance(&mut plain);
        }
        assert!(plain.changes_since(synced_to).is_none());
        assert_eq!(check(&mut view, &plain), ROWS + 8);
    }

    #[test]
    fn grouped_view_matches_per_group_scratch() {
        let mut t = links_table();
        let arg = col("latency");
        let group_by = vec![0usize]; // from_node
        let mut view = BandView::new(None, Some(&arg), &group_by);
        view.sync(&t).unwrap();

        let check = |view: &mut BandView, t: &Table| {
            view.sync(t).unwrap();
            let partitions = crate::group_by::group_partitions(t, &group_by).unwrap();
            let groups: Vec<_> = view.grouped_inputs().to_vec();
            assert_eq!(groups.len(), partitions.len());
            for ((key, input), (_, (pkey, tids))) in groups.iter().zip(&partitions) {
                assert_eq!(render_key(key), render_key(pkey));
                let scratch = AggInput::build_filtered(t, None, Some(&arg), |tid, _| {
                    tids.binary_search(&tid).is_ok()
                })
                .unwrap();
                assert_eq!(input.items, scratch.items, "group {key:?}");
                assert_eq!(input.minus_count, scratch.minus_count);
                assert_eq!(input.plus_count(), scratch.plus_count());
            }
        };
        check(&mut view, &t);
        t.refresh_cell(TupleId::new(2), LATENCY, 6.0).unwrap();
        check(&mut view, &t);
        // Deleting one of group 2's two tuples keeps the group; deleting
        // the last member drops it.
        t.delete(TupleId::new(2)).unwrap();
        check(&mut view, &t);
        t.delete(TupleId::new(4)).unwrap();
        check(&mut view, &t);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let mut cache = ViewCache::default();
        let catalog_table = links_table();
        let q = trapp_sql::parse_query("SELECT SUM(latency) FROM links").unwrap();
        let mut catalog = trapp_storage::Catalog::new();
        catalog.add_table(catalog_table).unwrap();
        let bound = crate::plan::bind_query(&q, &catalog).unwrap();
        for _ in 0..(MAX_VIEWS + 10) {
            cache.view_for("links", &bound);
        }
        assert_eq!(cache.views.len(), 1, "same shape reuses one view");
    }
}
