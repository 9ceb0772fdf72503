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
//! the classified view of the table. A *scalar* view holds one
//! [`AggInput`] (all `T+` items in tuple-id order, then all `T?` items —
//! exactly `build_filtered`'s order); a *grouped* view holds one such
//! input per group and nothing for the whole table. The view stays valid
//! across queries and plan passes; when the table changes,
//! [`BandView::sync`] replays only the tuples the table's change log names
//! ([`trapp_storage::Table::changes_since`]). Each replayed tuple goes
//! through the per-tuple step the from-scratch build runs: a predicate
//! that is absent or an `AND` chain of numeric `column op literal`
//! comparisons, and a bare-column argument, are read straight off the row
//! by the same `Interval::tri_*` calls the interpreter makes; every other
//! shape runs `classify_tuple` itself. That is why a synced view is
//! bit-identical to a fresh build (both property-tested).
//!
//! A replay costs the tuples it names, written where they already sit:
//! while every replayed tuple keeps its band (a tuple with no item counts
//! as `T−`), its item is overwritten at its slot in its band segment,
//! found by galloping forward from the previous tuple's slot. Only a
//! tuple that enters, leaves or changes band makes a partition re-merge
//! — one linear walk per band segment.
//!
//! Invalidation is pull-based: every `Table` mutation (refresh install,
//! value-initiated update, clock-advance re-materialization, cost change)
//! bumps the table's version, stamps the touched tuple with it and logs
//! it; the next access replays exactly those tuples — found by their
//! stamps in a view that keeps a candidate set, by the log otherwise.
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
//! * **resync** — replays exactly the candidates the table stamped after
//!   the view's version ([`trapp_storage::Table::stamp`]), plus the rows
//!   inserted since, and never reads the change log: one stamp read per
//!   candidate. Writes to other groups cost nothing but those reads and
//!   leave the view's memoized answers standing; a clock advance that
//!   re-widened all `n` bounds costs `O(|candidates|)`; and a view left
//!   idle until the log was compacted past it still resyncs instead of
//!   rebuilding.
//!
//! Other scalar views (no predicate, or no exact conjunct) replay the
//! full dirty set and fall back to a rebuild when more than half the
//! table changed.
//!
//! A **grouped** view makes a cache-served `GROUP BY` cost the change,
//! not the table. Its per-group inputs are the only state it keeps: every
//! distinct group key is interned to a dense id the first time a row
//! carries it, and each row remembers its id. While no exact cell has
//! moved since the last sync, a replayed row keeps that id without its
//! key being looked up again, and no change set — not even a clock
//! advance that re-widened every bound — makes the view rebuild: it
//! replays the log tail, or every row it holds. A replay repairs exactly
//! the partitions its tuples are in, leave or enter; every other group's
//! input is not touched.
//!
//! Each input (a scalar view's and every group's) also keeps the
//! [`BoundedAnswer`]s folded over it since its last repair, so an input
//! nothing has changed answers again without a fold. The one
//! invalidation rule: a repair that writes an item of an input (or a
//! slack change) drops that input's answers, and nothing else does.

use std::collections::HashMap;

use trapp_expr::{Band, BinaryOp, Expr};
use trapp_storage::{Row, Table};
use trapp_types::{TrappError, TupleId, Value};

use crate::agg::{bounded_answer, AggInput, AggItem, Aggregate, BoundedAnswer, Classifier};
use crate::group_by::{render_key, GroupKey};
use crate::plan::BoundQuery;

/// How many distinct views one cache retains before evicting the least
/// recently used (workloads with per-query literal predicates — e.g.
/// random COUNT thresholds — would otherwise grow without bound).
const MAX_VIEWS: usize = 256;

/// One replayed tuple's outcome in one partition: its item after the
/// pass, or `None` when it has none there (`T−`, deleted, or moved to
/// another group). A pass lists its tuples ascending by id.
type Replayed = (TupleId, Option<AggItem>);

/// What one pass writes: the scalar view's replay, or each touched
/// group's.
#[derive(Default)]
struct Patches {
    whole: Vec<Replayed>,
    /// Replays by group id; `touched` lists the ids with one.
    groups: Vec<Vec<Replayed>>,
    touched: Vec<u32>,
}

impl Patches {
    /// Files `replayed` under group `id`'s replay.
    fn group(&mut self, id: u32, replayed: Replayed) {
        let at = id as usize;
        if at >= self.groups.len() {
            self.groups.resize_with(at + 1, Vec::new);
        }
        if self.groups[at].is_empty() {
            self.touched.push(id);
        }
        self.groups[at].push(replayed);
    }
}

/// What a view's maintenance has cost so far — the work counters the
/// complexity claims in the module docs are checked against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewWork {
    /// Rows the per-tuple step (stickiness test → classification) has
    /// run on: builds and replays.
    pub tuples_classified: u64,
    /// Items written into a partition by a repair or a rebuild.
    pub items_repartitioned: u64,
    /// Repairs that overwrote items where they sat: every replayed tuple
    /// kept its band.
    pub in_place_repairs: u64,
    /// Repairs that re-merged a partition because a tuple entered, left
    /// or changed band.
    pub merge_repairs: u64,
}

impl std::ops::AddAssign for ViewWork {
    fn add_assign(&mut self, other: ViewWork) {
        self.tuples_classified += other.tuples_classified;
        self.items_repartitioned += other.items_repartitioned;
        self.in_place_repairs += other.in_place_repairs;
        self.merge_repairs += other.merge_repairs;
    }
}

/// One classified input — a scalar view's or one group's — with the
/// bounded answers folded over it since it was last repaired.
#[derive(Default)]
struct Partition {
    /// Plus-prefix, question-suffix, each ascending by tuple id.
    input: AggInput,
    /// `(aggregate, answer over input)`, dropped by every repair that
    /// writes an item.
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

    /// Brings the input to `replay`'s outcome and returns the items
    /// written. While every replayed tuple keeps its band (no item
    /// counts as `T−`) each item is overwritten at its slot, found by
    /// galloping forward through its band segment (replays ascend) —
    /// `O(Δ log(n/Δ))`; the first tuple that enters, leaves or changes
    /// band hands the whole replay to [`Partition::merge`].
    fn repair(&mut self, replay: &[Replayed], work: &mut ViewWork) -> u64 {
        let plus_items = self.input.plus_items;
        let (mut plus_at, mut question_at) = (0, plus_items);
        let mut written = 0;
        for &(tid, fresh) in replay {
            let items = &self.input.items;
            plus_at = seek(&items[..plus_items], plus_at, tid, |i| i.tid);
            question_at = seek(items, question_at, tid, |i| i.tid);
            let slot = [plus_at, question_at]
                .into_iter()
                .find(|&at| items.get(at).is_some_and(|i| i.tid == tid));
            match (slot, fresh) {
                (None, None) => {}
                (Some(at), Some(item)) if items[at].band == item.band => {
                    self.input.items[at] = item;
                    written += 1;
                }
                // The items already overwritten are replayed tuples',
                // which the merge drops and files again.
                _ => {
                    work.merge_repairs += 1;
                    return self.merge(replay);
                }
            }
        }
        if written > 0 {
            work.in_place_repairs += 1;
            self.answers.clear();
        }
        written
    }

    /// Rewrites the item vector in **one** merge pass per band segment —
    /// the replayed tuples' old items dropped, their new ones merged in —
    /// so a band change costs `O(n + Δ)` memory traffic instead of `Δ`
    /// vector splices. Returns the number of items the input now holds
    /// (each was copied once).
    fn merge(&mut self, replay: &[Replayed]) -> u64 {
        let old = std::mem::take(&mut self.input.items);
        let (old_plus, old_question) = old.split_at(self.input.plus_items);
        let mut items = Vec::with_capacity(old.len() + replay.len());
        merge_band(&mut items, old_plus, replay, Band::Plus);
        self.input.plus_items = items.len();
        merge_band(&mut items, old_question, replay, Band::Question);
        self.input.items = items;
        self.answers.clear();
        self.input.items.len() as u64
    }

    /// Sets the input's `T−` count and slack. Answers do not read the
    /// count, but a value aggregate refuses under slack, so a slack
    /// change drops them.
    fn set_counts(&mut self, minus_count: usize, slack: (u64, u64)) {
        self.input.minus_count = minus_count;
        if self.input.cardinality_slack != slack {
            self.input.cardinality_slack = slack;
            self.answers.clear();
        }
    }
}

/// The first index at or after `from` whose key is not below `tid`, in
/// `items` ascending by key: gallops from `from`, then bisects the last
/// stride — a few steps when successive calls ask for nearby ids.
fn seek<T>(items: &[T], from: usize, tid: TupleId, key: impl Fn(&T) -> TupleId) -> usize {
    let (mut lo, mut hi, mut stride) = (from, from, 1);
    while hi < items.len() && key(&items[hi]) < tid {
        lo = hi + 1;
        hi += stride;
        stride *= 2;
    }
    let hi = hi.min(items.len());
    lo + items[lo..hi].partition_point(|x| key(x) < tid)
}

/// Appends one repaired band segment to `out`: `old` (tid-sorted) without
/// the replayed tuples, and the replayed tuples' `band` items merged in
/// by tuple id — one forward walk over both.
fn merge_band(out: &mut Vec<AggItem>, old: &[AggItem], replay: &[Replayed], band: Band) {
    let mut fresh = replay
        .iter()
        .filter_map(|&(_, item)| item.filter(|i| i.band == band))
        .peekable();
    let mut r = 0;
    for item in old {
        while r < replay.len() && replay[r].0 < item.tid {
            r += 1;
        }
        if r < replay.len() && replay[r].0 == item.tid {
            continue; // its replacement, if any, rides `fresh`
        }
        while let Some(f) = fresh.next_if(|f| f.tid < item.tid) {
            out.push(f);
        }
        out.push(*item);
    }
    out.extend(fresh);
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

    /// Applies one group's replay: repairs its partition (`rebuilt`: fills
    /// the fresh one), or — when its last member left — retires the
    /// group. Returns the items written.
    fn repair(
        &mut self,
        id: u32,
        replay: &[Replayed],
        slack: (u64, u64),
        rebuilt: bool,
        work: &mut ViewWork,
    ) -> u64 {
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
        let written = if rebuilt {
            group.part.merge(replay)
        } else {
            group.part.repair(replay, work)
        };
        let minus_count = group.members - group.part.input.items.len();
        group.part.set_counts(minus_count, slack);
        written
    }
}

/// A memoized classified view of one table under one `(predicate, arg,
/// group_by)` shape. See the module docs.
pub struct BandView {
    /// The per-tuple step, compiled from the predicate and argument.
    step: Classifier,
    group_by: Vec<usize>,
    /// The table version the view is synced to.
    version: u64,
    /// A *scalar* view's input (plus-prefix, question-suffix, each
    /// ascending by tuple id). Scalar views keep **no** per-tuple side
    /// state at all: every live row is classified exactly once, so
    /// `minus_count ≡ table.len() − items.len()` and a rebuild costs
    /// exactly what the scan-based build costs. Empty in a grouped view,
    /// whose inputs are its partitions.
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
    /// The table's exact-cell version at the last sync: while it stands,
    /// the sticky analysis holds and a replayed row keeps its group.
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
    /// The last pass's emptied replay buffers, kept so that a pass over
    /// the whole table does not allocate them again.
    patches: Patches,
    /// Maintenance work over the view's lifetime.
    work: ViewWork,
    /// `bounded_answer` folds run because no memoized answer stood.
    answers_folded: u64,
}

impl BandView {
    fn new(predicate: Option<&Expr<usize>>, arg: Option<&Expr<usize>>, group_by: &[usize]) -> Self {
        BandView {
            step: Classifier::new(predicate, arg),
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
            patches: Patches::default(),
            work: ViewWork::default(),
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

    /// A **scalar** view's synced input — bit-identical to
    /// `AggInput::build_filtered(table, predicate, arg, |_, _| true)`. A
    /// grouped view keeps no whole-table input; read its groups through
    /// [`BandView::group`].
    pub fn input(&self) -> &AggInput {
        debug_assert!(
            self.group_by.is_empty(),
            "a grouped view has no whole input"
        );
        &self.whole.input
    }

    /// The bounded `agg` answer over a **scalar** view's
    /// [`BandView::input`] — bit-identical to `bounded_answer(agg,
    /// view.input())`, folded only when a repair has changed the input
    /// since the last call for `agg`. Grouped views answer per group
    /// ([`BandView::group_answer`]).
    pub fn answer(&mut self, agg: Aggregate) -> Result<BoundedAnswer, TrappError> {
        debug_assert!(
            self.group_by.is_empty(),
            "a grouped view has no whole input"
        );
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

    /// What maintaining this view has cost so far: rows examined, which
    /// a selective view keeps proportional to its candidate set, and items
    /// written, which every view keeps proportional to the tuples a change
    /// reaches rather than the table.
    pub fn work(&self) -> ViewWork {
        self.work
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
        let result = match &self.candidates {
            // Sticky path: while no exact cell has moved, every tuple
            // outside the candidate set is still pinned in `T−`, so the
            // dirty set is the candidates stamped after the view's
            // version — a slack change stamps them all — plus the rows
            // inserted since (ascending past every candidate). Nothing
            // else is touched, and the change log is not read.
            Some(cands)
                if self.exact_epoch == table.exact_version() && self.version < table.version() =>
            {
                let dirty: Vec<TupleId> = cands
                    .iter()
                    .copied()
                    .filter(|&tid| table.stamp(tid) > self.version)
                    .chain(table.tuple_ids_after(TupleId::new(self.max_tid)))
                    .collect();
                self.apply_changes(table, &dirty)
            }
            _ => self.replay_log(table),
        };
        match result {
            Ok(()) => {
                self.version = table.version();
                self.exact_epoch = table.exact_version();
                Ok(())
            }
            Err(e) => {
                // Half-applied changes are unusable: poison the view.
                self.reset();
                Err(e)
            }
        }
    }

    /// The resync of a view with no usable candidate set: replays the
    /// change-log tail, or every row, or rebuilds.
    fn replay_log(&mut self, table: &Table) -> Result<(), TrappError> {
        match table.changes_since(self.version) {
            // A grouped view whose exact epoch stands: every row it holds
            // keeps its group, so no change set — a clock advance that
            // re-widened every bound, a log compacted past the view —
            // needs the groups derived again. It replays the log tail, or
            // when that is longer, every row it holds plus the rows
            // inserted since.
            entries
                if !self.group_by.is_empty()
                    && self.version > 0
                    && self.exact_epoch == table.exact_version() =>
            {
                let members = &self.groups.of_tuple;
                let dirty: Vec<TupleId> = match entries {
                    Some(entries) if entries.len() <= members.len() => {
                        let mut dirty: Vec<TupleId> = entries.iter().map(|&(_, t)| t).collect();
                        dirty.sort_unstable();
                        dirty.dedup();
                        dirty
                    }
                    _ => members
                        .iter()
                        .map(|m| m.0)
                        .chain(table.tuple_ids_after(TupleId::new(self.max_tid)))
                        .collect(),
                };
                self.apply_changes(table, &dirty)
            }
            // No candidate set and no groups to keep (an unfiltered view,
            // a grouped one whose exact epoch moved): replaying more than
            // half the table costs more than a clean rebuild. The raw
            // entry count over-approximates the distinct tuple count, so
            // this can only over-rebuild, never under-replay.
            Some(entries) if self.candidates.is_none() && entries.len() * 2 <= table.len() => {
                let mut dirty: Vec<TupleId> = entries.iter().map(|&(_, t)| t).collect();
                dirty.sort_unstable();
                dirty.dedup();
                self.apply_changes(table, &dirty)
            }
            // Everything else rebuilds — a scalar predicate view whose
            // exact epoch moved among them, which is what re-derives its
            // candidate set.
            _ => self.rebuild(table),
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
        let mut reused = std::mem::take(&mut self.whole.input.items);
        reused.clear();
        self.reset();
        self.exact_epoch = table.exact_version();
        self.bounded_cols = table.schema().bounded_columns();
        let mut conjuncts = Vec::new();
        if let Some(pred) = self.step.predicate() {
            collect_exact_conjuncts(pred, &self.bounded_cols, &mut conjuncts);
        }
        self.exact_conjuncts = conjuncts;
        let mut candidates = self.sticky_eligible().then(Vec::new);
        // A pin is an exact conjunct of a scalar view, so only views that
        // keep a candidate set skip rows.
        let pinned = pinned_rows(table, self.step.predicate(), &self.group_by);
        let rows: Box<dyn Iterator<Item = Result<(TupleId, &Row), TrappError>> + '_> = match &pinned
        {
            Some(tids) => Box::new(tids.iter().map(|&tid| Ok((tid, table.row(tid)?)))),
            None => Box::new(table.scan().map(Ok)),
        };
        self.max_tid = table.tuple_ids().next_back().map_or(0, TupleId::raw);
        // A scalar input is filled directly, `T+` into the old input's
        // allocation: a rebuild after every bound moved would otherwise
        // fault a fresh vector's pages in each time.
        let (mut plus, mut question) = (reused, Vec::new());
        let mut patches = std::mem::take(&mut self.patches);
        for entry in rows {
            let (tid, row) = entry?;
            self.work.tuples_classified += 1;
            if let Some(cands) = &mut candidates {
                if self.is_sticky_minus(row)? {
                    // Pinned in T− by exact cells: no item, and replays
                    // skip it until the exact epoch moves.
                    continue;
                }
                cands.push(tid);
            }
            if !self.group_by.is_empty() {
                self.classify_into(table, tid, row, None, &mut patches)?;
            } else if let Some(item) = self.step.classify(tid, row, table.cost(tid)?)? {
                match item.band {
                    Band::Plus => plus.push(item),
                    _ => question.push(item),
                }
            }
        }
        self.whole.input.plus_items = plus.len();
        plus.append(&mut question);
        self.work.items_repartitioned += plus.len() as u64;
        self.whole.input.items = plus;
        self.commit(table, patches, true);
        self.candidates = candidates;
        Ok(())
    }

    /// Replays a batch of changed tuples (`dirty` sorted, deduplicated):
    /// reclassifies the live ones with the per-tuple step the build uses,
    /// moves a row between groups only when an exact cell has moved since
    /// the last sync, and repairs exactly the partitions those tuples are
    /// in or left — no other group's.
    fn apply_changes(&mut self, table: &Table, dirty: &[TupleId]) -> Result<(), TrappError> {
        let mut patches = std::mem::take(&mut self.patches);
        let mut deleted = false;
        let mut at = 0;
        for &tid in dirty {
            let of_tuple = &self.groups.of_tuple;
            at = seek(of_tuple, at, tid, |m| m.0);
            let member = of_tuple.get(at).is_some_and(|m| m.0 == tid).then_some(at);
            let Ok(row) = table.row(tid) else {
                deleted = true;
                match member {
                    Some(at) => {
                        let id = std::mem::replace(&mut self.groups.of_tuple[at].1, VACANT);
                        self.groups.slots[id as usize].members -= 1;
                        patches.group(id, (tid, None));
                    }
                    None => patches.whole.push((tid, None)),
                }
                continue;
            };
            self.work.tuples_classified += 1;
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
            self.classify_into(table, tid, row, member, &mut patches)?;
        }
        if deleted {
            if let Some(cands) = &mut self.candidates {
                cands.retain(|&tid| table.row(tid).is_ok());
            }
            self.groups.of_tuple.retain(|m| m.1 != VACANT);
        }
        self.commit(table, patches, false);
        Ok(())
    }

    /// The per-tuple step of replays and of grouped builds: classifies one
    /// live row and files the outcome under the scalar view's replay or,
    /// in a grouped view, under its group's — which also records the row
    /// as that group's member, at `member` in `Groups::of_tuple` if it was
    /// one before. A member keeps its group id while no exact cell has
    /// moved since the last sync; otherwise its key is looked up again,
    /// and a row that changed group leaves its old one with no item.
    fn classify_into(
        &mut self,
        table: &Table,
        tid: TupleId,
        row: &Row,
        member: Option<usize>,
        patches: &mut Patches,
    ) -> Result<(), TrappError> {
        let item = self.step.classify(tid, row, table.cost(tid)?)?;
        if self.group_by.is_empty() {
            patches.whole.push((tid, item));
            return Ok(());
        }
        let old = member.map(|at| self.groups.of_tuple[at].1);
        let id = match old {
            Some(id) if self.exact_epoch == table.exact_version() => id,
            _ => self.groups.intern(row, &self.group_by)?,
        };
        // Scanned and inserted rows arrive in ascending order, past every
        // member there is.
        match member {
            Some(at) => self.groups.of_tuple[at].1 = id,
            None => self.groups.of_tuple.push((tid, id)),
        }
        if old != Some(id) {
            if let Some(old) = old {
                self.groups.slots[old as usize].members -= 1;
                patches.group(old, (tid, None));
            }
            self.groups.slots[id as usize].members += 1;
        }
        // Tuples arrive ascending, so every replay stays tid-sorted.
        patches.group(id, (tid, item));
        Ok(())
    }

    /// Writes one pass's outcome into the view: the scalar input, or each
    /// touched group, repaired against its own replay (`rebuilt`: groups
    /// filled from empty; a rebuild fills a scalar input itself). The
    /// emptied buffers are kept for the next pass.
    fn commit(&mut self, table: &Table, mut patches: Patches, rebuilt: bool) {
        // Slack is table-global and floors the log; the candidate replay
        // is the one path that syncs across such a floor.
        let slack = table.cardinality_slack();
        let mut written = 0;
        if self.group_by.is_empty() {
            if !rebuilt {
                written += self.whole.repair(&patches.whole, &mut self.work);
            }
            let minus_count = table.len() - self.whole.input.items.len();
            self.whole.set_counts(minus_count, slack);
        }
        patches.touched.sort_unstable();
        for &id in &patches.touched {
            let replay = &mut patches.groups[id as usize];
            written += self
                .groups
                .repair(id, replay, slack, rebuilt, &mut self.work);
            replay.clear();
        }
        patches.touched.clear();
        patches.whole.clear();
        self.work.items_repartitioned += written;
        self.patches = patches;
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
/// numeric literal (`grp = k`, see [`pinned_value`]), the rows the index
/// names, ascending — every other row is sticky `T−` by that conjunct,
/// whatever its bounds say — and `None`, meaning every row, otherwise (no
/// such conjunct, or a grouped query, whose groups span the table).
///
/// Band views build from exactly these rows, and a cache brings exactly
/// these rows' bounds up to date before planning such a query, so the
/// two cannot disagree about what the plan reads.
pub fn pinned_rows(
    table: &Table,
    predicate: Option<&Expr<usize>>,
    group_by: &[usize],
) -> Option<Vec<TupleId>> {
    let (column, value) = pinned_value(table, predicate, group_by)?;
    table.tuples_with_value(column, value)
}

/// The conjunct [`pinned_rows`] reads by: the first top-level `AND`
/// conjunct, left to right, that is `column = literal` (either way round)
/// over a column `table` can look up by value
/// ([`Table::has_value_index`]), as `(column, value)`. `None` for grouped
/// queries and when no conjunct pins. A bounded column has no value
/// index, so only exact conjuncts pin, and a row's pinned cell never
/// moves with its bounds.
pub fn pinned_value(
    table: &Table,
    predicate: Option<&Expr<usize>>,
    group_by: &[usize],
) -> Option<(usize, f64)> {
    if !group_by.is_empty() {
        return None;
    }
    pin_in(predicate?, table)
}

fn pin_in(e: &Expr<usize>, table: &Table) -> Option<(usize, f64)> {
    let Expr::Binary(op, l, r) = e else {
        return None;
    };
    match (op, l.as_ref(), r.as_ref()) {
        (BinaryOp::And, l, r) => pin_in(l, table).or_else(|| pin_in(r, table)),
        (BinaryOp::Eq, Expr::Column(c), Expr::Literal(v))
        | (BinaryOp::Eq, Expr::Literal(v), Expr::Column(c)) => {
            let value = v.as_f64().ok()?;
            (!value.is_nan() && table.has_value_index(*c)).then_some((*c, value))
        }
        _ => None,
    }
}

/// The per-session cache of band views, keyed by the query shape.
#[derive(Default)]
pub struct ViewCache {
    views: HashMap<String, BandView>,
    tick: u64,
    /// [`BandView::work`] of the views evicted so far.
    evicted: ViewWork,
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
                    self.evicted += view.work;
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

    /// The maintenance work of every view this cache has held, evicted
    /// ones included; see [`ViewWork`].
    pub fn work(&self) -> ViewWork {
        let mut work = self.evicted;
        for view in self.views.values() {
            work += view.work;
        }
        work
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
        assert_eq!(view.work().tuples_classified, 6, "scan build");
        t.set_cardinality_slack(2, 1);
        assert_matches_scratch(&mut view, &t, Some(&pred), None);
        assert_eq!(view.input().cardinality_slack, (2, 1));
        assert_eq!(
            view.work().tuples_classified,
            6 + 2,
            "two candidates replayed"
        );
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
            view.work().tuples_classified
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

    /// A pinned view pays for its own group only, at the benchmark's
    /// `hot_cache` size: installs into other groups — more log entries
    /// than four times its candidate count — make it classify nothing and
    /// keep its memoized answer, and installs into its own group classify
    /// exactly the tuples they wrote.
    #[test]
    fn pinned_view_resync_reads_stamps_not_the_log() {
        use trapp_storage::{ColumnDef, IndexKey, Schema};
        use trapp_types::{BoundedValue, ValueType};
        const GROUPS: i64 = 32;
        const PER_GROUP: usize = 256;

        let schema = Schema::new(vec![
            ColumnDef::exact("grp", ValueType::Int),
            ColumnDef::bounded_float("load"),
        ])
        .unwrap();
        let mut t = Table::new("metrics", schema.clone());
        for g in 0..GROUPS {
            for i in 0..PER_GROUP {
                let mid = 50.0 + (i % 50) as f64;
                t.insert(vec![
                    BoundedValue::Exact(Value::Int(g)),
                    BoundedValue::bounded(mid - 1.0, mid + 1.0).unwrap(),
                ])
                .unwrap();
            }
        }
        t.create_index(IndexKey::Lo { column: 0 }).unwrap();
        let pred = Expr::binary(
            BinaryOp::Eq,
            Expr::Column(ColumnRef::bare("grp")),
            Expr::Literal(Value::Int(5)),
        )
        .bind(&schema)
        .unwrap();
        let arg = Expr::Column(ColumnRef::bare("load")).bind(&schema).unwrap();
        let mut view = BandView::new(Some(&pred), Some(&arg), &[]);
        assert_matches_scratch(&mut view, &t, Some(&pred), Some(&arg));
        let sum = view.answer(Aggregate::Sum).unwrap();
        let built = (view.work().tuples_classified, view.answers_folded);
        assert_eq!(built, (PER_GROUP as u64, 1));

        // 2,048 installs into groups 6 and 7: far more than 4 × 256 log
        // entries, none of them the view's.
        let others: Vec<TupleId> = t.tuple_ids().skip(6 * PER_GROUP).take(512).collect();
        for round in 0..4 {
            for &tid in &others {
                t.refresh_cell(tid, 1, 60.0 + round as f64).unwrap();
            }
        }
        assert_matches_scratch(&mut view, &t, Some(&pred), Some(&arg));
        assert_eq!(view.answer(Aggregate::Sum).unwrap(), sum);
        assert_eq!(
            (view.work().tuples_classified, view.answers_folded),
            built,
            "nothing classified, the memo kept"
        );

        // 40 installs into group 5: exactly those 40 classified, one fold.
        let own: Vec<TupleId> = t.tuple_ids().skip(5 * PER_GROUP).take(40).collect();
        for &tid in &own {
            t.refresh_cell(tid, 1, 55.0).unwrap();
        }
        assert_matches_scratch(&mut view, &t, Some(&pred), Some(&arg));
        let resummed = view.answer(Aggregate::Sum).unwrap();
        assert_eq!(
            resummed,
            bounded_answer(Aggregate::Sum, view.input()).unwrap()
        );
        assert_eq!(
            (view.work().tuples_classified, view.answers_folded),
            (built.0 + 40, 2)
        );
    }

    /// The grouped complexity claim as exact counts, at the benchmark's
    /// `hot_cache` size: a grouped view keeps its partitions and no
    /// whole-table vector; a replay overwrites the items of the tuples it
    /// names while they keep their band, re-merges only the partitions a
    /// row enters or leaves, and an input no repair touched answers
    /// without a fold.
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
        // Syncs, holds every group (keys, order, inputs) to scratch
        // builds, and reports the work counters.
        let check = |view: &mut BandView, t: &Table| {
            view.sync(t).unwrap();
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
            assert!(view.whole.input.items.is_empty(), "no whole-table vector");
            view.work()
        };
        // Every group's SUM, as the planner asks.
        let answers = |view: &mut BandView| {
            (0..view.group_count())
                .map(|rank| view.group_answer(rank, Aggregate::Sum).unwrap())
                .collect::<Vec<_>>()
        };

        let mut view = BandView::new(None, Some(&arg), &group_by);
        let built = check(&mut view, &t);
        assert_eq!(
            (built.tuples_classified, built.items_repartitioned),
            (ROWS, ROWS),
            "scan build: each row filed once"
        );

        // k bound writes inside group 5: k rows examined, k items
        // overwritten where they sit, in one repair of one partition.
        const K: u64 = 212;
        let group_5: Vec<TupleId> = t.tuple_ids().skip(5 * 256).take(K as usize).collect();
        for &tid in &group_5 {
            t.refresh_cell(tid, 1, 60.0).unwrap();
        }
        let written = check(&mut view, &t);
        assert_eq!(written.tuples_classified, built.tuples_classified + K);
        assert_eq!(written.items_repartitioned, built.items_repartitioned + K);
        assert_eq!((written.in_place_repairs, written.merge_repairs), (1, 0));

        // An unchanged view answers from the memo: no fold at all.
        let first = answers(&mut view);
        assert_eq!(view.answers_folded, GROUPS);
        view.sync(&t).unwrap();
        assert_eq!(answers(&mut view), first);
        assert_eq!(view.answers_folded, GROUPS, "served from the memo");
        for (rank, answer) in first.iter().enumerate() {
            let scratch = bounded_answer(Aggregate::Sum, view.group(rank).1).unwrap();
            assert_eq!(*answer, scratch);
        }
        // One write: only the group it lands in folds again.
        t.refresh_cell(group_5[0], 1, 61.0).unwrap();
        view.sync(&t).unwrap();
        let after = answers(&mut view);
        assert_eq!(view.answers_folded, GROUPS + 1);
        assert_eq!(after[..5], first[..5], "ranks are i0, i1, i10, i11, …");
        let before_move = check(&mut view, &t);

        // An exact-cell write moves a row from group 3 to group 7:
        // exactly those two partitions are repaired, both by a merge.
        let mover = t.tuple_ids().nth(3 * 256).unwrap();
        t.update_cell(mover, 0, BoundedValue::Exact(Value::Int(7)))
            .unwrap();
        let moved = check(&mut view, &t);
        assert_eq!(moved.tuples_classified, before_move.tuples_classified + 1);
        assert_eq!(
            moved.items_repartitioned,
            before_move.items_repartitioned + (PER_GROUP - 1) + (PER_GROUP + 1),
            "the group left + the group entered"
        );
        assert_eq!(moved.merge_repairs, before_move.merge_repairs + 2);
        assert_eq!(moved.in_place_repairs, before_move.in_place_repairs);

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

    /// A scalar view overwrites in place the items of tuples that keep
    /// their band, writes nothing for a tuple that stays `T−`, and merges
    /// only when a tuple enters, leaves or changes band.
    #[test]
    fn scalar_view_repairs_in_place_until_a_band_moves() {
        let mut t = links_table();
        let pred = cmp("latency", BinaryOp::Gt, 10.0);
        let arg = col("latency");
        let mut view = BandView::new(Some(&pred), Some(&arg), &[]);
        assert_matches_scratch(&mut view, &t, Some(&pred), Some(&arg));
        let built = view.work();
        // Tuple 3 ([12,16]) pinned at 13: still T+, overwritten in place.
        t.refresh_cell(TupleId::new(3), LATENCY, 13.0).unwrap();
        assert_matches_scratch(&mut view, &t, Some(&pred), Some(&arg));
        let in_place = view.work();
        assert_eq!(in_place.items_repartitioned, built.items_repartitioned + 1);
        assert_eq!((in_place.in_place_repairs, in_place.merge_repairs), (1, 0));
        // Tuple 1 ([2,4], T−) pinned at 3: still T−, nothing written.
        t.refresh_cell(TupleId::new(1), LATENCY, 3.0).unwrap();
        assert_matches_scratch(&mut view, &t, Some(&pred), Some(&arg));
        assert_eq!(
            view.work().items_repartitioned,
            in_place.items_repartitioned
        );
        assert_eq!(view.work().in_place_repairs, 1);
        // Tuple 4 ([9,11], T?) pinned at 11: T? → T+, one merge.
        t.refresh_cell(TupleId::new(4), LATENCY, 11.0).unwrap();
        assert_matches_scratch(&mut view, &t, Some(&pred), Some(&arg));
        assert_eq!(
            (view.work().in_place_repairs, view.work().merge_repairs),
            (1, 1)
        );
        // A delete of a T− tuple writes nothing; of a T+ one merges.
        t.delete(TupleId::new(1)).unwrap();
        assert_matches_scratch(&mut view, &t, Some(&pred), Some(&arg));
        assert_eq!(view.work().merge_repairs, 1);
        t.delete(TupleId::new(3)).unwrap();
        assert_matches_scratch(&mut view, &t, Some(&pred), Some(&arg));
        assert_eq!(view.work().merge_repairs, 2);
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
