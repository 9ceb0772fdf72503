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
//! `build_filtered`'s order) plus, for grouped queries, one such input
//! per group. The view stays valid across queries and plan passes; when
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
//!   index names are examined ([`pinned_rows`]); every other row is
//!   sticky `T−` by that very conjunct. Without such an index the build
//!   scans.
//! * **resync** — replays whichever is cheaper, the candidates the
//!   change-log tail names or the whole candidate set, plus the rows
//!   inserted since, so a clock advance that re-widened all `n` bounds
//!   costs `O(|candidates|)`, and a view left idle until the log was
//!   compacted past it still resyncs instead of rebuilding.
//!
//! Views without that structure (no predicate, or grouped) replay the
//! full dirty set and fall back to a rebuild when more than half the
//! table changed.
//!
//! A **grouped** view makes a cache-served `GROUP BY` cost the change,
//! not the table. Its per-group inputs are the state it maintains, not a
//! product re-derived from the canonical vector: every distinct group key
//! is interned to a dense id the first time a row carries it, each row
//! remembers its id, and a replay repairs exactly the partitions its
//! dirty tuples leave or enter — by the same merge step that repairs the
//! canonical vector — while every other group's input is not touched.
//!
//! Each input (the canonical one and every group's) also keeps the
//! [`BoundedAnswer`]s folded over it since its last repair, so an input
//! nothing has changed answers again without a fold. The one
//! invalidation rule: the repair that rewrites an input drops that
//! input's answers, and nothing else does.

use std::collections::{BTreeMap, HashMap};

use trapp_expr::{Band, BinaryOp, Expr};
use trapp_storage::{Row, Table};
use trapp_types::{Interval, TrappError, TupleId, Value};

use crate::agg::{
    bounded_answer, classify_tuple, refinement_for, AggInput, AggItem, Aggregate, BoundedAnswer,
};
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

/// Replacement items for one partition, split by band, each ascending by
/// tuple id (replays and scans both visit tuples in that order).
#[derive(Default)]
struct Fresh {
    plus: Vec<AggItem>,
    question: Vec<AggItem>,
}

impl Fresh {
    fn push(&mut self, item: AggItem) {
        if item.band == Band::Plus {
            self.plus.push(item);
        } else {
            self.question.push(item);
        }
    }
}

/// One classified input — the whole view's or one group's — with the
/// bounded answers folded over it since it was last repaired.
#[derive(Default)]
struct Partition {
    /// Plus-prefix, question-suffix, each ascending by tuple id.
    input: AggInput,
    /// `(aggregate, answer over input)`, dropped by [`Partition::repair`].
    answers: Vec<(Aggregate, BoundedAnswer)>,
}

impl Partition {
    /// The bounded `agg` answer over the input: folded once per repair,
    /// counted in `folds` when it is.
    fn answer(&mut self, agg: Aggregate, folds: &mut u64) -> Result<BoundedAnswer, TrappError> {
        if let Some(&(_, answer)) = self.answers.iter().find(|(a, _)| *a == agg) {
            return Ok(answer);
        }
        let answer = bounded_answer(agg, &self.input)?;
        *folds += 1;
        self.answers.push((agg, answer));
        Ok(answer)
    }

    /// Repairs the item vector in **one** merge pass per band segment —
    /// the `retracted` tuples' items dropped, `fresh` merged in — so a
    /// replay costs `O(n + Δ)` memory traffic instead of `Δ` vector
    /// splices. Returns the number of items the repaired input holds
    /// (each was copied once).
    fn repair(&mut self, retracted: &[TupleId], fresh: Fresh) -> u64 {
        let old = std::mem::take(&mut self.input.items);
        let (old_plus, old_question) = old.split_at(self.input.plus_items);
        let mut items = Vec::with_capacity(old.len() + fresh.plus.len() + fresh.question.len());
        merge_repair(&mut items, old_plus, retracted, &fresh.plus);
        self.input.plus_items = items.len();
        merge_repair(&mut items, old_question, retracted, &fresh.question);
        self.input.items = items;
        self.answers.clear();
        self.input.items.len() as u64
    }
}

/// Appends one repaired band segment to `out`: `old` (tid-sorted) without
/// the tuples in `retracted` (sorted), and `fresh` (tid-sorted, disjoint
/// from the kept old items) merged in by tuple id — one forward walk over
/// all three.
fn merge_repair(out: &mut Vec<AggItem>, old: &[AggItem], retracted: &[TupleId], fresh: &[AggItem]) {
    let (mut r, mut f) = (0, 0);
    for item in old {
        while r < retracted.len() && retracted[r] < item.tid {
            r += 1;
        }
        if r < retracted.len() && retracted[r] == item.tid {
            continue; // its replacement, if any, rides `fresh`
        }
        while f < fresh.len() && fresh[f].tid < item.tid {
            out.push(fresh[f]);
            f += 1;
        }
        out.push(*item);
    }
    out.extend_from_slice(&fresh[f..]);
}

/// A hashable image of one group-key value. Two keys are made of equal
/// parts exactly when [`render_key`] gives them one string — the identity
/// groups have everywhere else: `Int(1)` and `Float(1.0)` differ, and so
/// do `0.0` and `-0.0`, which is why floats go by their bits.
#[derive(PartialEq, Eq, Hash)]
enum KeyPart {
    Int(i64),
    Float(u64),
    Bool(bool),
    Str(String),
}

impl From<Value> for KeyPart {
    fn from(v: Value) -> KeyPart {
        match v {
            Value::Int(x) => KeyPart::Int(x),
            Value::Float(x) => KeyPart::Float(x.to_bits()),
            Value::Bool(b) => KeyPart::Bool(b),
            Value::Str(s) => KeyPart::Str(s),
        }
    }
}

/// One group of a grouped view.
struct Group {
    /// The original key values, in `GROUP BY` column order.
    key: GroupKey,
    /// `render_key(&key)`: the group's place in every output.
    rendered: String,
    /// Live tuples in the group, every band (`T−` included).
    members: usize,
    /// The group's input — bit-identical to `build_filtered` under the
    /// group's member filter — and its answers.
    part: Partition,
}

/// What one replay changes in one group.
#[derive(Default)]
struct GroupPatch {
    /// Tuples that were members before the replay (ascending): each left
    /// the group or re-enters it through `fresh`.
    retracted: Vec<TupleId>,
    fresh: Fresh,
}

/// Marks a deleted tuple's [`Groups::of_tuple`] entry for the sweep at the
/// end of the replay that found it gone.
const VACANT: u32 = u32::MAX;

/// The partitions of a grouped view; empty for scalar views.
#[derive(Default)]
struct Groups {
    /// `(tuple, group id)` for every live row, `T−` included, ascending
    /// by tuple id.
    of_tuple: Vec<(TupleId, u32)>,
    /// Key parts → dense group id. A key is rendered (and cloned) once,
    /// when its group is born — not once per row per replay.
    ids: HashMap<Vec<KeyPart>, u32>,
    /// Groups by dense id; ids on `free` are vacant.
    slots: Vec<Group>,
    /// Ids of groups whose last member left, for reuse.
    free: Vec<u32>,
    /// The live groups' ids in rendered-key order.
    order: Vec<u32>,
    /// Reused per-row lookup buffer.
    parts: Vec<KeyPart>,
}

impl Groups {
    /// The dense id of `row`'s group, creating the group if this is the
    /// first row to carry its key.
    fn intern(&mut self, row: &Row, group_by: &[usize]) -> Result<u32, TrappError> {
        self.parts.clear();
        for &col in group_by {
            self.parts.push(row.exact(col)?.into());
        }
        if let Some(&id) = self.ids.get(self.parts.as_slice()) {
            return Ok(id);
        }
        let key = group_by
            .iter()
            .map(|&col| row.exact(col))
            .collect::<Result<GroupKey, _>>()?;
        let group = Group {
            rendered: render_key(&key),
            key,
            members: 0,
            part: Partition::default(),
        };
        let rank = self.rank_of(&group.rendered);
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id as usize] = group;
                id
            }
            None => {
                self.slots.push(group);
                (self.slots.len() - 1) as u32
            }
        };
        self.order.insert(rank, id);
        self.ids.insert(std::mem::take(&mut self.parts), id);
        Ok(id)
    }

    /// Where the group rendered as `rendered` sits — or, not being live,
    /// would sit — in `order`.
    fn rank_of(&self, rendered: &str) -> usize {
        self.order
            .partition_point(|&id| self.slots[id as usize].rendered.as_str() < rendered)
    }

    /// Applies one group's patch: repairs its partition, or — when its
    /// last member left — retires the group. Returns the items copied.
    fn repair(&mut self, id: u32, patch: GroupPatch, slack: (u64, u64)) -> u64 {
        if self.slots[id as usize].members == 0 {
            let rank = self.rank_of(&self.slots[id as usize].rendered);
            self.order.remove(rank);
            // The slot stays where it is, emptied, until a new group
            // takes its id.
            let group = &mut self.slots[id as usize];
            let parts: Vec<KeyPart> = std::mem::take(&mut group.key)
                .into_iter()
                .map(KeyPart::from)
                .collect();
            self.ids.remove(&parts);
            group.part = Partition::default();
            self.free.push(id);
            return 0;
        }
        let group = &mut self.slots[id as usize];
        let copied = group.part.repair(&patch.retracted, patch.fresh);
        group.part.input.minus_count = group.members - group.part.input.items.len();
        group.part.input.cardinality_slack = slack;
        copied
    }
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
    whole: Partition,
    /// The per-group partitions of a *grouped* view; empty otherwise.
    groups: Groups,
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
    /// Items written into the canonical vector or a group partition by a
    /// repair or rebuild, over the view's lifetime.
    items_repartitioned: u64,
    /// `bounded_answer` folds run because no memoized answer stood.
    answers_folded: u64,
}

impl BandView {
    fn new(predicate: Option<&Expr<usize>>, arg: Option<&Expr<usize>>, group_by: &[usize]) -> Self {
        BandView {
            refinement: refinement_for(predicate, arg),
            predicate: predicate.cloned(),
            arg: arg.cloned(),
            group_by: group_by.to_vec(),
            version: 0,
            whole: Partition::default(),
            groups: Groups::default(),
            candidates: None,
            max_tid: 0,
            exact_epoch: 0,
            bounded_cols: Vec::new(),
            exact_conjuncts: Vec::new(),
            last_used: 0,
            tuples_classified: 0,
            items_repartitioned: 0,
            answers_folded: 0,
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
        &self.whole.input
    }

    /// The bounded `agg` answer over [`BandView::input`] — bit-identical
    /// to `bounded_answer(agg, view.input())`, folded only when a repair
    /// has changed the input since the last call for `agg`.
    pub fn answer(&mut self, agg: Aggregate) -> Result<BoundedAnswer, TrappError> {
        self.whole.answer(agg, &mut self.answers_folded)
    }

    /// How many groups the (grouped) view currently holds.
    pub fn group_count(&self) -> usize {
        self.groups.order.len()
    }

    /// The `rank`-th group in rendered-key order: its key and its input —
    /// bit-identical to `build_filtered` with that group's member filter.
    pub fn group(&self, rank: usize) -> (&GroupKey, &AggInput) {
        let group = &self.groups.slots[self.groups.order[rank] as usize];
        (&group.key, &group.part.input)
    }

    /// [`BandView::answer`] for the `rank`-th group's input.
    pub fn group_answer(
        &mut self,
        rank: usize,
        agg: Aggregate,
    ) -> Result<BoundedAnswer, TrappError> {
        let group = &mut self.groups.slots[self.groups.order[rank] as usize];
        group.part.answer(agg, &mut self.answers_folded)
    }

    /// How many rows this view has examined (built or replayed) so far:
    /// the work a selective view is meant to keep proportional to its
    /// candidate set rather than the table.
    pub fn tuples_classified(&self) -> u64 {
        self.tuples_classified
    }

    /// How many items this view has written into its canonical vector or
    /// a group partition so far (repairs and rebuilds): the work a
    /// grouped view is meant to keep proportional to the groups a change
    /// lands in rather than the table.
    pub fn items_repartitioned(&self) -> u64 {
        self.items_repartitioned
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
        self.whole = Partition::default();
        self.groups = Groups::default();
        self.candidates = None;
        self.max_tid = 0;
        self.version = 0;
    }

    /// Full rebuild — the per-tuple step `build_filtered` runs, plus the
    /// group bookkeeping, over the rows the query can read
    /// ([`pinned_rows`]). Rows the index excludes are never evaluated, so
    /// an evaluation error confined to them does not surface — as on the
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
        let mut candidates = self.sticky_eligible().then(Vec::new);
        // A pin is an exact conjunct of a scalar view, so only views that
        // keep a candidate set skip rows.
        let pinned = pinned_rows(table, self.predicate.as_ref(), &self.group_by);
        let rows: Box<dyn Iterator<Item = Result<(TupleId, &Row), TrappError>> + '_> = match &pinned
        {
            Some(tids) => Box::new(tids.iter().map(|&tid| Ok((tid, table.row(tid)?)))),
            None => Box::new(table.scan().map(Ok)),
        };
        self.max_tid = table.tuple_ids().next_back().map_or(0, TupleId::raw);
        let mut whole = Fresh::default();
        let mut patches = BTreeMap::new();
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
            self.classify_into(table, tid, row, None, &mut whole, &mut patches)?;
        }
        self.commit(table, &[], whole, patches);
        self.candidates = candidates;
        Ok(())
    }

    /// Replays a batch of changed tuples (`dirty` sorted, deduplicated):
    /// retracts each tuple's old group membership, reclassifies the live
    /// ones with the *identical* per-tuple step the scan build uses, and
    /// repairs the canonical vector and the partitions of the groups
    /// those tuples left or entered — no other group's.
    fn apply_changes(&mut self, table: &Table, dirty: &[TupleId]) -> Result<(), TrappError> {
        if dirty.is_empty() && self.whole.input.cardinality_slack == table.cardinality_slack() {
            // The log named only rows this view holds no item for (other
            // groups' rows, to a `grp = k` view): the input stands, and
            // so do its answers. Deletes among those rows still count.
            self.whole.input.minus_count = table.len() - self.whole.input.items.len();
            return Ok(());
        }
        let mut whole = Fresh::default();
        let mut patches: BTreeMap<u32, GroupPatch> = BTreeMap::new();
        let mut deleted = false;
        for &tid in dirty {
            // ---- Retract the old group membership (grouped views only;
            // the item vectors are repaired wholesale in `commit`).
            let member = self
                .groups
                .of_tuple
                .binary_search_by_key(&tid, |m| m.0)
                .ok();
            if let Some(at) = member {
                let id = self.groups.of_tuple[at].1;
                self.groups.slots[id as usize].members -= 1;
                patches.entry(id).or_default().retracted.push(tid);
            }
            // ---- Reclassify, if the tuple still exists.
            let Ok(row) = table.row(tid) else {
                deleted = true;
                if let Some(at) = member {
                    self.groups.of_tuple[at].1 = VACANT;
                }
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
            self.classify_into(table, tid, row, member, &mut whole, &mut patches)?;
        }
        if deleted {
            if let Some(cands) = &mut self.candidates {
                cands.retain(|&tid| table.row(tid).is_ok());
            }
            self.groups.of_tuple.retain(|m| m.1 != VACANT);
        }
        self.commit(table, dirty, whole, patches);
        Ok(())
    }

    /// The per-tuple step of builds and replays alike: classifies one
    /// live row and files its item (if it has one) under the canonical
    /// vector and, in a grouped view, under its group — which also
    /// records the row as that group's member, at `member` in
    /// `Groups::of_tuple` if it was one before.
    fn classify_into(
        &mut self,
        table: &Table,
        tid: TupleId,
        row: &Row,
        member: Option<usize>,
        whole: &mut Fresh,
        patches: &mut BTreeMap<u32, GroupPatch>,
    ) -> Result<(), TrappError> {
        let item = classify_tuple(
            self.predicate.as_ref(),
            self.arg.as_ref(),
            self.refinement,
            tid,
            row,
            table.cost(tid)?,
        )?;
        if !self.group_by.is_empty() {
            let id = self.groups.intern(row, &self.group_by)?;
            // Scanned and inserted rows arrive in ascending order, past
            // every member there is.
            match member {
                Some(at) => self.groups.of_tuple[at].1 = id,
                None => self.groups.of_tuple.push((tid, id)),
            }
            self.groups.slots[id as usize].members += 1;
            let patch = patches.entry(id).or_default();
            if let Some(item) = item {
                patch.fresh.push(item);
            }
        }
        // Tuples arrive ascending, so every `Fresh` list stays tid-sorted.
        if let Some(item) = item {
            whole.push(item);
        }
        Ok(())
    }

    /// Writes one pass's outcome into the view: the canonical vector
    /// repaired against every replayed tuple, each touched group repaired
    /// against its own.
    fn commit(
        &mut self,
        table: &Table,
        dirty: &[TupleId],
        whole: Fresh,
        patches: BTreeMap<u32, GroupPatch>,
    ) {
        // Slack is table-global and floors the log; the candidate replay
        // is the one path that syncs across such a floor.
        let slack = table.cardinality_slack();
        let mut copied = self.whole.repair(dirty, whole);
        self.whole.input.minus_count = table.len() - self.whole.input.items.len();
        self.whole.input.cardinality_slack = slack;
        for (id, patch) in patches {
            copied += self.groups.repair(id, patch, slack);
        }
        self.items_repartitioned += copied;
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

/// The rows a scalar query over `table` with `predicate` can read: when a
/// top-level `AND` conjunct pins an exact, value-indexed column to a
/// numeric literal (`grp = k`), the rows the index names, ascending —
/// every other row is sticky `T−` by that conjunct, whatever its bounds
/// say — and `None`, meaning every row, otherwise (no such conjunct, or
/// a grouped query, whose groups span the table).
///
/// Band views build from exactly these rows, and a cache brings exactly
/// these rows' bounds up to date before planning such a query, so the
/// two cannot disagree about what the plan reads.
pub fn pinned_rows(
    table: &Table,
    predicate: Option<&Expr<usize>>,
    group_by: &[usize],
) -> Option<Vec<TupleId>> {
    if !group_by.is_empty() {
        return None;
    }
    pin_in(predicate?, table)
}

/// The first top-level conjunct of `e`, left to right, that is
/// `column = literal` (either way round) over a column `table` can look
/// up by value, answered from that index. A bounded column has no such
/// index, so only exact conjuncts pin.
fn pin_in(e: &Expr<usize>, table: &Table) -> Option<Vec<TupleId>> {
    let Expr::Binary(op, l, r) = e else {
        return None;
    };
    match (op, l.as_ref(), r.as_ref()) {
        (BinaryOp::And, l, r) => pin_in(l, table).or_else(|| pin_in(r, table)),
        (BinaryOp::Eq, Expr::Column(c), Expr::Literal(v))
        | (BinaryOp::Eq, Expr::Literal(v), Expr::Column(c)) => {
            table.tuples_with_value(*c, v.as_f64().ok()?)
        }
        _ => None,
    }
}

/// The per-session cache of band views, keyed by the query shape.
#[derive(Default)]
pub struct ViewCache {
    views: HashMap<String, BandView>,
    tick: u64,
    /// [`BandView::tuples_classified`] of the views evicted so far.
    evicted_classified: u64,
    /// [`BandView::items_repartitioned`] of the views evicted so far.
    evicted_repartitioned: u64,
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
                    self.evicted_repartitioned += view.items_repartitioned;
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

    /// Items written by every view this cache has held, evicted ones
    /// included; see [`BandView::items_repartitioned`].
    pub fn items_repartitioned(&self) -> u64 {
        self.evicted_repartitioned
            + self
                .views
                .values()
                .map(|v| v.items_repartitioned)
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

    /// The grouped complexity claim as exact counts, at the benchmark's
    /// `hot_cache` size: what a replay rewrites is the groups its dirty
    /// tuples leave or enter (plus the canonical vector's one pass), and
    /// an input no repair touched answers without a fold.
    #[test]
    fn grouped_view_work_tracks_dirty_groups() {
        use trapp_storage::{ColumnDef, Schema};
        use trapp_types::{BoundedValue, ValueType};
        const GROUPS: u64 = 32;
        const PER_GROUP: u64 = 256;
        const ROWS: u64 = GROUPS * PER_GROUP;

        let schema = Schema::new(vec![
            ColumnDef::exact("grp", ValueType::Int),
            ColumnDef::bounded_float("load"),
        ])
        .unwrap();
        let mut t = Table::new("metrics", schema.clone());
        let cells = |g: i64, mid: f64| {
            vec![
                BoundedValue::Exact(Value::Int(g)),
                BoundedValue::bounded(mid - 1.0, mid + 1.0).unwrap(),
            ]
        };
        for g in 0..GROUPS {
            for i in 0..PER_GROUP {
                t.insert(cells(g as i64, 50.0 + (i % 50) as f64)).unwrap();
            }
        }
        let arg = Expr::Column(ColumnRef::bare("load")).bind(&schema).unwrap();
        let group_by = [0usize];
        // Syncs, holds every group (keys, order, inputs) and the canonical
        // vector to scratch builds, and reports the two work counters.
        let check = |view: &mut BandView, t: &Table| {
            assert_matches_scratch(view, t, None, Some(&arg));
            let partitions = crate::group_by::group_partitions(t, &group_by).unwrap();
            assert_eq!(view.group_count(), partitions.len());
            for (rank, (rendered, (_, tids))) in partitions.iter().enumerate() {
                let (key, input) = view.group(rank);
                assert_eq!(&render_key(key), rendered, "group order");
                let scratch = AggInput::build_filtered(t, None, Some(&arg), |tid, _| {
                    tids.binary_search(&tid).is_ok()
                })
                .unwrap();
                assert_eq!(input.items, scratch.items, "group {key:?}");
                assert_eq!(input.minus_count, scratch.minus_count);
                assert_eq!(input.plus_count(), scratch.plus_count());
            }
            (view.tuples_classified(), view.items_repartitioned())
        };
        // Every group's SUM and the whole view's, as the planner asks.
        let answers = |view: &mut BandView| {
            let mut all = vec![view.answer(Aggregate::Sum).unwrap()];
            for rank in 0..view.group_count() {
                all.push(view.group_answer(rank, Aggregate::Sum).unwrap());
            }
            all
        };

        let mut view = BandView::new(None, Some(&arg), &group_by);
        let (classified, copied) = check(&mut view, &t);
        assert_eq!((classified, copied), (ROWS, 2 * ROWS), "scan build");

        // k bound writes inside group 5: k rows examined, that group's
        // partition and the canonical vector rewritten, nothing else.
        const K: u64 = 212;
        let group_5: Vec<TupleId> = t.tuple_ids().skip(5 * 256).take(K as usize).collect();
        for &tid in &group_5 {
            t.refresh_cell(tid, 1, 60.0).unwrap();
        }
        let (classified_k, copied_k) = check(&mut view, &t);
        assert_eq!(classified_k, classified + K);
        assert!(copied_k > copied && copied_k <= copied + PER_GROUP + ROWS);

        // An unchanged view answers from the memo: no fold at all.
        let first = answers(&mut view);
        assert_eq!(view.answers_folded, 1 + GROUPS);
        view.sync(&t).unwrap();
        assert_eq!(answers(&mut view), first);
        assert_eq!(view.answers_folded, 1 + GROUPS, "served from the memo");
        for (rank, answer) in first[1..].iter().enumerate() {
            let scratch = bounded_answer(Aggregate::Sum, view.group(rank).1).unwrap();
            assert_eq!(*answer, scratch);
        }
        // One write: the group it lands in and the whole view fold again.
        t.refresh_cell(group_5[0], 1, 61.0).unwrap();
        view.sync(&t).unwrap();
        let after = answers(&mut view);
        assert_eq!(view.answers_folded, (1 + GROUPS) + 2);
        assert_eq!(after[1..=5], first[1..=5], "ranks are i0, i1, i10, i11, …");
        let (_, copied_k) = check(&mut view, &t);

        // An exact-cell write moves a row from group 3 to group 7:
        // exactly those two partitions are repaired.
        let mover = t.tuple_ids().nth(3 * 256).unwrap();
        t.update_cell(mover, 0, BoundedValue::Exact(Value::Int(7)))
            .unwrap();
        let (classified_m, copied_m) = check(&mut view, &t);
        assert_eq!(classified_m, classified_k + 2);
        assert_eq!(
            copied_m,
            copied_k + ROWS + (PER_GROUP - 1) + (PER_GROUP + 1),
            "canonical pass + the group left + the group entered"
        );

        // A new key is ranked by its rendering ("i100" sorts between
        // "i10" and "i11"), an emptied group disappears, and a vacated id
        // is reused without disturbing the order.
        let newcomer = t.insert(cells(100, 70.0)).unwrap();
        check(&mut view, &t);
        assert_eq!(view.group_count() as u64, GROUPS + 1);
        t.delete(newcomer).unwrap();
        check(&mut view, &t);
        assert_eq!(view.group_count() as u64, GROUPS);
        t.insert(cells(-4, 70.0)).unwrap();
        check(&mut view, &t);
        assert_eq!(view.groups.slots.len() as u64, GROUPS + 1, "id reused");
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
            assert_eq!(view.group_count(), partitions.len());
            let groups = (0..view.group_count()).map(|rank| view.group(rank));
            for ((key, input), (_, (pkey, tids))) in groups.zip(&partitions) {
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
