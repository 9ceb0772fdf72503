//! Tables: tuple storage with refresh costs and maintained indexes, and
//! the change tracking memoized views sync by — a per-tuple version stamp
//! and a bounded change log.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use trapp_types::{BoundedValue, Interval, OrderedF64, TrappError, TupleId, Value};

use crate::index::{IndexKey, OrderedIndex};
use crate::row::Row;
use crate::schema::Schema;

/// The cached image of one relation, as seen by a TRAPP data cache.
///
/// Beyond plain tuple storage, a `Table` tracks the two pieces of per-tuple
/// metadata TRAPP/AG needs (§3, §4):
///
/// * a **refresh cost** `Cᵢ ≥ 0` — the known cost of asking the source for
///   the current master value of the tuple;
/// * maintained **ordered indexes** on bound endpoints, widths, and costs,
///   which the CHOOSE_REFRESH algorithms probe for their sub-linear paths.
///
/// Mutations keep all registered indexes consistent, bump a monotonic
/// [`version`](Table::version), stamp the touched slot with it
/// ([`Table::stamp`]), and append the touched tuple to a bounded **change
/// log** ([`Table::changes_since`]), so memoized views over the table
/// (`trapp_core`'s band views) can re-derive only the tuples that actually
/// changed instead of rescanning: a view that knows which few tuples it
/// depends on asks each one's stamp, one that does not reads the log.
///
/// **Layout.** Tuples live in dense id-indexed slots: one
/// `Vec<Option<(Row, f64)>>` whose slot `i` holds tuple id `i + 1` with its
/// refresh cost, so looking up a row or a cost is an index, not a tree
/// walk, and a scan is a walk over one slice. Ids are handed out as
/// 1, 2, … and never reused, so the vector only grows and
/// `slots.len() + 1 == next_id`, the id the next insert receives. A
/// deleted tuple leaves its slot empty (`None`, 32 bytes) for good. That
/// is the trade for the index: nothing outside tests deletes today, so
/// there is no compaction, which would also have to renumber ids that
/// views, indexes and the change log hold. Beside the slots runs one
/// `u64` stamp per slot (8 bytes), the version of the slot's last
/// mutation; a deleted slot keeps the stamp of its delete.
#[derive(Clone)]
pub struct Table {
    name: String,
    schema: Arc<Schema>,
    slots: Vec<Option<(Row, f64)>>,
    /// `stamps[i]`: the version of slot `i`'s last mutation.
    stamps: Vec<u64>,
    /// Number of occupied slots.
    live: usize,
    indexes: HashMap<IndexKey, OrderedIndex>,
    default_cost: f64,
    pending_inserts: u64,
    pending_deletes: u64,
    /// Monotonic mutation counter; bumped by every change that can alter
    /// a classified view (row content, cost, cardinality slack, deletes).
    version: u64,
    /// Bumped only when an **exact** (non-bounded) cell changes. Band
    /// views lean on this: a tuple whose predicate fails on its exact
    /// cells alone stays `T−` through any amount of bound movement, so
    /// replays skip it as long as this counter stands still.
    exact_version: u64,
    /// The version of the last table-global change (cardinality slack),
    /// which every slot counts as its own.
    global_stamp: u64,
    /// Versions at or below this are no longer covered by `change_log`
    /// (the log was compacted, or a table-global change invalidated
    /// everything); readers behind the floor must rebuild.
    log_floor: u64,
    /// `(version, tuple)` per logged mutation, ascending by version.
    change_log: Vec<(u64, TupleId)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Arc<Schema>) -> Table {
        Table {
            name: name.into(),
            schema,
            slots: Vec::new(),
            stamps: Vec::new(),
            live: 0,
            indexes: HashMap::new(),
            default_cost: 1.0,
            pending_inserts: 0,
            pending_deletes: 0,
            version: 0,
            exact_version: 0,
            global_stamp: 0,
            log_floor: 0,
            change_log: Vec::new(),
        }
    }

    /// The table's monotonic mutation version. Two reads returning the
    /// same version bracket a span with no view-visible change.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The exact-cell mutation version; see the field docs.
    pub fn exact_version(&self) -> u64 {
        self.exact_version
    }

    /// The version of the last mutation that can have changed `tid`: its
    /// own last write (insert, cell, cost or delete) or the last
    /// table-global change, whichever is later — `0` for an id nothing has
    /// touched. A reader synced to version `v` has seen every change to
    /// `tid` exactly when `stamp(tid) <= v`. Unlike the change log this
    /// never forgets, so a reader that knows which tuples it depends on
    /// can catch up after any gap by asking each one.
    pub fn stamp(&self, tid: TupleId) -> u64 {
        let own = slot_of(tid).and_then(|i| self.stamps.get(i)).copied();
        own.unwrap_or(0).max(self.global_stamp)
    }

    /// The `(version, tuple)` log entries after version `since`, in
    /// version order, or `None` when the log no longer reaches back that
    /// far — the caller must rebuild from a full scan. The slice is raw:
    /// a tuple touched twice appears twice (replays are idempotent, and
    /// skipping the dedup keeps this O(1) — callers can decide to rebuild
    /// from the entry *count* without ever walking the tail). Deleted
    /// tuples appear like any other change; readers detect the deletion
    /// by the missing row.
    pub fn changes_since(&self, since: u64) -> Option<&[(u64, TupleId)]> {
        if since < self.log_floor || since > self.version {
            return None;
        }
        // The log is version-ascending: binary search the first entry
        // strictly after `since`.
        let start = self.change_log.partition_point(|&(v, _)| v <= since);
        Some(&self.change_log[start..])
    }

    /// Records one tuple-scoped mutation, compacting the log when it
    /// outgrows its budget (readers further behind than the floor simply
    /// rebuild — correctness never depends on log depth).
    fn log_change(&mut self, tid: TupleId) {
        let cap = (self.live * 2).max(1024);
        if self.change_log.len() >= cap {
            // Readers already synced to the current version keep working;
            // anything further behind rebuilds.
            self.change_log.clear();
            self.log_floor = self.version;
        }
        self.version += 1;
        self.change_log.push((self.version, tid));
        if let Some(stamp) = slot_of(tid).and_then(|i| self.stamps.get_mut(i)) {
            *stamp = self.version;
        }
    }

    /// Records a table-global mutation (e.g. cardinality slack): every
    /// memoized view must rebuild.
    fn log_global_change(&mut self) {
        self.version += 1;
        self.global_stamp = self.version;
        self.change_log.clear();
        self.log_floor = self.version;
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of tuples. With eager insert/delete propagation (§3) this is
    /// exactly the master cardinality, which is why `COUNT` without a
    /// predicate needs no refreshes (§5.3).
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if the table has no tuples.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Sets the refresh cost assigned to tuples inserted without an explicit
    /// cost.
    pub fn set_default_cost(&mut self, cost: f64) -> Result<(), TrappError> {
        validate_cost(cost)?;
        self.default_cost = cost;
        Ok(())
    }

    /// Inserts a row with the default refresh cost; returns its id.
    pub fn insert(&mut self, cells: Vec<BoundedValue>) -> Result<TupleId, TrappError> {
        let cost = self.default_cost;
        self.insert_with_cost(cells, cost)
    }

    /// Inserts a row with an explicit refresh cost; returns its id.
    pub fn insert_with_cost(
        &mut self,
        cells: Vec<BoundedValue>,
        cost: f64,
    ) -> Result<TupleId, TrappError> {
        validate_cost(cost)?;
        let row = Row::new(&self.schema, cells)?;
        let tid = tid_at(self.slots.len());
        self.index_row(tid, &row, cost);
        self.slots.push(Some((row, cost)));
        self.stamps.push(0);
        self.live += 1;
        self.log_change(tid);
        Ok(tid)
    }

    /// Deletes a tuple. Its slot stays, empty; see the type docs.
    pub fn delete(&mut self, tid: TupleId) -> Result<(), TrappError> {
        let (row, cost) = slot_of(tid)
            .and_then(|i| self.slots.get_mut(i))
            .and_then(Option::take)
            .ok_or(TrappError::UnknownTuple(tid.raw()))?;
        self.live -= 1;
        self.unindex_row(tid, &row, cost);
        self.log_change(tid);
        Ok(())
    }

    /// The row for `tid`.
    pub fn row(&self, tid: TupleId) -> Result<&Row, TrappError> {
        occupied(&self.slots, tid).map(|(row, _)| row)
    }

    /// The refresh cost `Cᵢ` for `tid`.
    pub fn cost(&self, tid: TupleId) -> Result<f64, TrappError> {
        occupied(&self.slots, tid).map(|&(_, cost)| cost)
    }

    /// Updates the refresh cost for `tid`.
    pub fn set_cost(&mut self, tid: TupleId, cost: f64) -> Result<(), TrappError> {
        validate_cost(cost)?;
        let (_, old) = occupied_mut(&mut self.slots, tid)?;
        let prev = *old;
        if prev == cost {
            return Ok(());
        }
        *old = cost;
        if let Some(ix) = self.indexes.get_mut(&IndexKey::Cost) {
            ix.remove(OrderedF64::new_unchecked(prev), tid);
            ix.insert(OrderedF64::new_unchecked(cost), tid);
        }
        self.log_change(tid);
        Ok(())
    }

    /// Iterates over `(TupleId, &Row)` in id order.
    pub fn scan(&self) -> impl Iterator<Item = (TupleId, &Row)> + '_ {
        self.live_from(0)
    }

    /// All tuple ids in id order.
    pub fn tuple_ids(&self) -> impl DoubleEndedIterator<Item = TupleId> + '_ {
        self.live_from(0).map(|(tid, _)| tid)
    }

    /// The live tuple ids strictly above `tid`, in id order — ids are never
    /// reused, so these are the rows inserted after a reader last saw `tid`
    /// as the table's largest.
    pub fn tuple_ids_after(&self, tid: TupleId) -> impl Iterator<Item = TupleId> + '_ {
        // Ids above `tid` start at slot `tid`.
        let start = usize::try_from(tid.raw()).unwrap_or(usize::MAX);
        self.live_from(start).map(|(tid, _)| tid)
    }

    /// The live tuples from slot `start` on, in id order.
    fn live_from(&self, start: usize) -> impl DoubleEndedIterator<Item = (TupleId, &Row)> + '_ {
        let start = start.min(self.slots.len());
        self.slots[start..]
            .iter()
            .enumerate()
            .filter_map(move |(k, slot)| slot.as_ref().map(|(row, _)| (tid_at(start + k), row)))
    }

    /// The tuples whose **exact** numeric `column` equals `value`, in id
    /// order, read off the maintained `Lo` index — an exact cell is a point
    /// interval, so its `Lo` index is a value index, and one that bound
    /// re-materialization never touches. `None` when the column is bounded
    /// or carries no such index; the caller scans instead.
    pub fn tuples_with_value(&self, column: usize, value: f64) -> Option<Vec<TupleId>> {
        if value.is_nan() || self.schema.column_at(column).map_or(true, |d| d.bounded) {
            return None;
        }
        let index = self.indexes.get(&IndexKey::Lo { column })?;
        // The index orders `-0.0` before `+0.0`; numeric equality does not
        // tell them apart.
        let (lo, hi) = if value == 0.0 {
            (-0.0, 0.0)
        } else {
            (value, value)
        };
        let mut tids: Vec<TupleId> = index
            .between(OrderedF64::new_unchecked(lo), OrderedF64::new_unchecked(hi))
            .collect();
        tids.sort_unstable();
        Some(tids)
    }

    /// Numeric range view of one cell.
    pub fn interval(&self, tid: TupleId, column: usize) -> Result<Interval, TrappError> {
        self.row(tid)?.interval(column)
    }

    /// Replaces one cell, revalidating against the schema and maintaining
    /// indexes. This is how a *refresh* lands: the cache overwrites the
    /// bound with either the exact master value or a new bound.
    pub fn update_cell(
        &mut self,
        tid: TupleId,
        column: usize,
        cell: BoundedValue,
    ) -> Result<(), TrappError> {
        self.schema.validate_cell(column, &cell)?;
        let (row, _) = occupied_mut(&mut self.slots, tid)?;
        let old = row.cell(column)?.clone();
        // Nothing changed: skip index churn and keep the version stable,
        // so re-materializing bounds at an unchanged instant leaves
        // memoized views valid. Numeric cells compare by interval, so
        // re-materializing a freshly pinned `Exact(v)` as the point bound
        // `[v, v]` is also a no-op rather than a representation flip.
        let unchanged = old == cell
            || matches!(
                (old.as_interval(), cell.as_interval()),
                (Ok(a), Ok(b)) if a == b
            );
        if unchanged {
            return Ok(());
        }
        // Update indexes touching this column.
        for (key, ix) in self.indexes.iter_mut() {
            let col = match key {
                IndexKey::Lo { column: c }
                | IndexKey::Hi { column: c }
                | IndexKey::Width { column: c } => *c,
                IndexKey::Cost => continue,
            };
            if col != column {
                continue;
            }
            if let Some(old_key) = cell_index_key(*key, &old) {
                ix.remove(old_key, tid);
            }
            if let Some(new_key) = cell_index_key(*key, &cell) {
                ix.insert(new_key, tid);
            }
        }
        // Conservative on the error arm: an unplaceable column counts as
        // exact, forcing dependent views to rebuild rather than skip.
        if self
            .schema
            .column_at(column)
            .map(|d| !d.bounded)
            .unwrap_or(true)
        {
            self.exact_version += 1;
        }
        row.set_cell(column, cell);
        self.log_change(tid);
        Ok(())
    }

    /// Applies a refresh: pins `column` of `tid` to the exact master value.
    pub fn refresh_cell(
        &mut self,
        tid: TupleId,
        column: usize,
        master_value: f64,
    ) -> Result<(), TrappError> {
        if master_value.is_nan() {
            return Err(TrappError::NanValue);
        }
        self.update_cell(tid, column, BoundedValue::Exact(Value::Float(master_value)))
    }

    /// Registers (and backfills) an index. Re-registering is a no-op.
    pub fn create_index(&mut self, key: IndexKey) -> Result<(), TrappError> {
        if self.indexes.contains_key(&key) {
            return Ok(());
        }
        // Validate the column exists and is numeric for endpoint indexes.
        match key {
            IndexKey::Lo { column } | IndexKey::Hi { column } | IndexKey::Width { column } => {
                let def = self.schema.column_at(column)?;
                if !def.ty.is_numeric() {
                    return Err(TrappError::SchemaViolation(format!(
                        "cannot index endpoints of non-numeric column {}",
                        def.name
                    )));
                }
            }
            IndexKey::Cost => {}
        }
        let mut ix = OrderedIndex::new();
        for (i, slot) in self.slots.iter().enumerate() {
            let Some((row, cost)) = slot else { continue };
            let entry = match key {
                IndexKey::Cost => Some(OrderedF64::new_unchecked(*cost)),
                _ => cell_index_key(key, row.cell(index_column(key)).expect("arity checked")),
            };
            if let Some(k) = entry {
                ix.insert(k, tid_at(i));
            }
        }
        self.indexes.insert(key, ix);
        Ok(())
    }

    /// The maintained index for `key`, if registered.
    pub fn index(&self, key: IndexKey) -> Option<&OrderedIndex> {
        self.indexes.get(&key)
    }

    /// Registers the full CHOOSE_REFRESH index set: `Lo` / `Hi` / `Width`
    /// on every bounded column plus the refresh-cost index — everything
    /// the §5.1/§5.2/§6.3 sub-linear planners probe. Idempotent.
    pub fn create_default_indexes(&mut self) -> Result<(), TrappError> {
        for column in self.schema.clone().bounded_columns() {
            self.create_index(IndexKey::Lo { column })?;
            self.create_index(IndexKey::Hi { column })?;
            self.create_index(IndexKey::Width { column })?;
        }
        self.create_index(IndexKey::Cost)
    }

    /// Declares **cardinality slack** (§8.3's relaxation of eager
    /// insert/delete propagation): the source may have performed up to
    /// `inserts` insertions and `deletes` deletions that have not yet been
    /// propagated to this cache. While slack is non-zero, only `COUNT`
    /// queries remain answerable with guaranteed bounds (unseen tuples
    /// carry unknown values, so value aggregates become unbounded);
    /// `trapp-core` enforces that restriction.
    pub fn set_cardinality_slack(&mut self, inserts: u64, deletes: u64) {
        if (inserts, deletes) == (self.pending_inserts, self.pending_deletes) {
            return;
        }
        self.pending_inserts = inserts;
        self.pending_deletes = deletes;
        // Slack is table-global: every memoized view must rebuild.
        self.log_global_change();
    }

    /// The current `(pending_inserts, pending_deletes)` slack.
    pub fn cardinality_slack(&self) -> (u64, u64) {
        (self.pending_inserts, self.pending_deletes)
    }

    /// Sum of bound widths of `column` over all tuples — the total
    /// uncertainty a SUM query over the column would see (§5.2).
    pub fn total_width(&self, column: usize) -> Result<f64, TrappError> {
        let mut sum = 0.0;
        for (_, row) in self.scan() {
            sum += row.interval(column)?.width();
        }
        Ok(sum)
    }

    fn index_row(&mut self, tid: TupleId, row: &Row, cost: f64) {
        for (key, ix) in self.indexes.iter_mut() {
            let entry = match key {
                IndexKey::Cost => Some(OrderedF64::new_unchecked(cost)),
                _ => row
                    .cell(index_column(*key))
                    .ok()
                    .and_then(|c| cell_index_key(*key, c)),
            };
            if let Some(k) = entry {
                ix.insert(k, tid);
            }
        }
    }

    fn unindex_row(&mut self, tid: TupleId, row: &Row, cost: f64) {
        for (key, ix) in self.indexes.iter_mut() {
            let entry = match key {
                IndexKey::Cost => Some(OrderedF64::new_unchecked(cost)),
                _ => row
                    .cell(index_column(*key))
                    .ok()
                    .and_then(|c| cell_index_key(*key, c)),
            };
            if let Some(k) = entry {
                ix.remove(k, tid);
            }
        }
    }
}

/// The slot holding `tid`: id `i + 1` lives in slot `i`. `None` for id 0
/// and for ids no `usize` can index.
fn slot_of(tid: TupleId) -> Option<usize> {
    usize::try_from(tid.raw().checked_sub(1)?).ok()
}

/// The id living in slot `i` (`usize` → `u64` is lossless on every target).
fn tid_at(i: usize) -> TupleId {
    TupleId::new(i as u64 + 1)
}

/// The occupied slot for `tid`, or `UnknownTuple` (id 0, deleted, or past
/// the end).
fn occupied(slots: &[Option<(Row, f64)>], tid: TupleId) -> Result<&(Row, f64), TrappError> {
    slot_of(tid)
        .and_then(|i| slots.get(i))
        .and_then(Option::as_ref)
        .ok_or(TrappError::UnknownTuple(tid.raw()))
}

/// `occupied`, mutably. A free function so callers can keep borrowing the
/// table's other fields alongside the slot.
fn occupied_mut(
    slots: &mut [Option<(Row, f64)>],
    tid: TupleId,
) -> Result<&mut (Row, f64), TrappError> {
    slot_of(tid)
        .and_then(|i| slots.get_mut(i))
        .and_then(Option::as_mut)
        .ok_or(TrappError::UnknownTuple(tid.raw()))
}

fn index_column(key: IndexKey) -> usize {
    match key {
        IndexKey::Lo { column } | IndexKey::Hi { column } | IndexKey::Width { column } => column,
        IndexKey::Cost => usize::MAX,
    }
}

/// The index key a cell contributes under `key`, or `None` for non-numeric
/// cells (they simply don't appear in endpoint indexes).
fn cell_index_key(key: IndexKey, cell: &BoundedValue) -> Option<OrderedF64> {
    let iv = cell.as_interval().ok()?;
    let v = match key {
        IndexKey::Lo { .. } => iv.lo(),
        IndexKey::Hi { .. } => iv.hi(),
        IndexKey::Width { .. } => iv.width(),
        IndexKey::Cost => return None,
    };
    Some(OrderedF64::new_unchecked(v))
}

fn validate_cost(cost: f64) -> Result<(), TrappError> {
    if cost.is_nan() || cost < 0.0 {
        Err(TrappError::InvalidCost(cost))
    } else {
        Ok(())
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("schema", &self.schema.to_string())
            .field("rows", &self.live)
            .field("indexes", &self.indexes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use trapp_types::ValueType;

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::exact("id", ValueType::Int),
            ColumnDef::bounded_float("x"),
        ])
        .unwrap();
        Table::new("t", schema)
    }

    fn row(id: i64, lo: f64, hi: f64) -> Vec<BoundedValue> {
        vec![
            BoundedValue::Exact(Value::Int(id)),
            BoundedValue::bounded(lo, hi).unwrap(),
        ]
    }

    #[test]
    fn insert_scan_delete() {
        let mut t = table();
        let a = t.insert_with_cost(row(1, 0.0, 1.0), 3.0).unwrap();
        let b = t.insert_with_cost(row(2, 5.0, 9.0), 7.0).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.cost(a).unwrap(), 3.0);
        assert_eq!(t.interval(b, 1).unwrap().width(), 4.0);
        t.delete(a).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.row(a).is_err());
        assert!(t.delete(a).is_err());
    }

    #[test]
    fn refresh_pins_cell() {
        let mut t = table();
        let a = t.insert(row(1, 0.0, 10.0)).unwrap();
        t.refresh_cell(a, 1, 4.5).unwrap();
        let iv = t.interval(a, 1).unwrap();
        assert!(iv.is_point());
        assert_eq!(iv.lo(), 4.5);
        assert!(t.refresh_cell(a, 1, f64::NAN).is_err());
    }

    #[test]
    fn rejects_invalid_costs() {
        let mut t = table();
        assert!(t.insert_with_cost(row(1, 0.0, 1.0), -1.0).is_err());
        assert!(t.insert_with_cost(row(1, 0.0, 1.0), f64::NAN).is_err());
        assert!(t.set_default_cost(-2.0).is_err());
    }

    #[test]
    fn indexes_follow_mutations() {
        let mut t = table();
        let a = t.insert(row(1, 0.0, 4.0)).unwrap();
        let b = t.insert(row(2, 2.0, 3.0)).unwrap();
        t.create_index(IndexKey::Lo { column: 1 }).unwrap();
        t.create_index(IndexKey::Hi { column: 1 }).unwrap();
        t.create_index(IndexKey::Width { column: 1 }).unwrap();

        let hi = t.index(IndexKey::Hi { column: 1 }).unwrap();
        assert_eq!(hi.min_key().unwrap().get(), 3.0);

        // Refresh tuple a: its width entry moves to 0, hi entry to the value.
        t.refresh_cell(a, 1, 1.0).unwrap();
        let hi = t.index(IndexKey::Hi { column: 1 }).unwrap();
        assert_eq!(hi.min_key().unwrap().get(), 1.0);
        let width = t.index(IndexKey::Width { column: 1 }).unwrap();
        let widths: Vec<f64> = width.ascending().map(|(k, _)| k.get()).collect();
        assert_eq!(widths, vec![0.0, 1.0]);

        // Delete b: its entries disappear.
        t.delete(b).unwrap();
        let lo = t.index(IndexKey::Lo { column: 1 }).unwrap();
        assert_eq!(lo.len(), 1);
    }

    #[test]
    fn cost_index_follows_set_cost() {
        let mut t = table();
        let a = t.insert_with_cost(row(1, 0.0, 1.0), 5.0).unwrap();
        t.create_index(IndexKey::Cost).unwrap();
        assert_eq!(
            t.index(IndexKey::Cost).unwrap().min_key().unwrap().get(),
            5.0
        );
        t.set_cost(a, 2.0).unwrap();
        assert_eq!(
            t.index(IndexKey::Cost).unwrap().min_key().unwrap().get(),
            2.0
        );
    }

    #[test]
    fn create_index_backfills_existing_rows() {
        let mut t = table();
        t.insert(row(1, 1.0, 2.0)).unwrap();
        t.insert(row(2, -1.0, 0.5)).unwrap();
        t.create_index(IndexKey::Lo { column: 1 }).unwrap();
        let lo = t.index(IndexKey::Lo { column: 1 }).unwrap();
        assert_eq!(lo.len(), 2);
        assert_eq!(lo.min_key().unwrap().get(), -1.0);
        // Indexing a non-numeric column fails cleanly.
        assert!(t.create_index(IndexKey::Lo { column: 0 }).is_ok()); // Int is numeric
    }

    #[test]
    fn value_lookup_reads_the_exact_column_index() {
        let mut t = table();
        let a = t.insert(row(7, 0.0, 1.0)).unwrap();
        let b = t.insert(row(0, 0.0, 1.0)).unwrap();
        let c = t.insert(row(7, 2.0, 3.0)).unwrap();
        // No index yet, and never on a bounded column (its `Lo` index
        // keys lower endpoints, not values).
        assert!(t.tuples_with_value(0, 7.0).is_none());
        t.create_index(IndexKey::Lo { column: 0 }).unwrap();
        t.create_index(IndexKey::Lo { column: 1 }).unwrap();
        assert!(t.tuples_with_value(1, 0.0).is_none());
        assert_eq!(t.tuples_with_value(0, 7.0).unwrap(), vec![a, c]);
        assert_eq!(t.tuples_with_value(0, -0.0).unwrap(), vec![b]);
        assert!(t.tuples_with_value(0, 3.0).unwrap().is_empty());
        // Exact-cell rewrites and deletes keep it current.
        t.update_cell(b, 0, BoundedValue::Exact(Value::Int(7)))
            .unwrap();
        t.delete(a).unwrap();
        assert_eq!(t.tuples_with_value(0, 7.0).unwrap(), vec![b, c]);
        // Clones carry their indexes.
        assert_eq!(t.clone().tuples_with_value(0, 7.0).unwrap(), vec![b, c]);
    }

    #[test]
    fn tuple_ids_after_lists_later_inserts() {
        let mut t = table();
        let a = t.insert(row(1, 0.0, 1.0)).unwrap();
        let b = t.insert(row(2, 0.0, 1.0)).unwrap();
        let c = t.insert(row(3, 0.0, 1.0)).unwrap();
        t.delete(b).unwrap();
        assert_eq!(t.tuple_ids_after(a).collect::<Vec<_>>(), vec![c]);
        assert_eq!(t.tuple_ids_after(c).count(), 0);
        assert_eq!(t.tuple_ids().next_back(), Some(c));
    }

    /// The changed tuples after `since`, flattened.
    fn touched(t: &Table, since: u64) -> Option<Vec<TupleId>> {
        t.changes_since(since)
            .map(|entries| entries.iter().map(|&(_, tid)| tid).collect())
    }

    #[test]
    fn version_and_change_log_track_mutations() {
        let mut t = table();
        assert_eq!(t.version(), 0);
        let a = t.insert(row(1, 0.0, 4.0)).unwrap();
        let b = t.insert(row(2, 2.0, 3.0)).unwrap();
        let v2 = t.version();
        assert_eq!(v2, 2);
        assert_eq!(touched(&t, 0).unwrap(), vec![a, b]);
        assert_eq!(touched(&t, v2).unwrap(), Vec::<TupleId>::new());

        // A real cell change logs the tuple once.
        t.refresh_cell(a, 1, 1.0).unwrap();
        assert_eq!(touched(&t, v2).unwrap(), vec![a]);
        // A no-op rewrite (same cell value) does not move the version.
        let v3 = t.version();
        t.update_cell(a, 1, BoundedValue::Exact(Value::Float(1.0)))
            .unwrap();
        assert_eq!(t.version(), v3);
        // Same-cost set_cost is also a no-op.
        let c = t.cost(b).unwrap();
        t.set_cost(b, c).unwrap();
        assert_eq!(t.version(), v3);

        // Deletes are logged like any change.
        t.delete(b).unwrap();
        assert_eq!(touched(&t, v3).unwrap(), vec![b]);

        // Slack is table-global: it floors the log, readers must rebuild.
        t.set_cardinality_slack(1, 0);
        assert!(t.changes_since(v3).is_none());
        assert_eq!(touched(&t, t.version()).unwrap(), Vec::<TupleId>::new());
        // A reader from before the log's floor gets None, and future
        // versions are rejected too.
        assert!(t.changes_since(0).is_none());
        assert!(t.changes_since(t.version() + 1).is_none());
    }

    #[test]
    fn stamps_outlive_the_change_log() {
        let mut t = table();
        let a = t.insert(row(1, 0.0, 1.0)).unwrap();
        let b = t.insert(row(2, 0.0, 1.0)).unwrap();
        assert_eq!((t.stamp(a), t.stamp(b)), (1, 2));
        assert_eq!(t.stamp(TupleId::new(0)), 0);
        assert_eq!(t.stamp(TupleId::new(99)), 0);
        // Far more writes to `a` than the log keeps: `b` still reads as
        // untouched since its insert.
        for i in 0..5000 {
            t.refresh_cell(a, 1, i as f64).unwrap();
        }
        assert!(t.changes_since(2).is_none());
        assert_eq!((t.stamp(a), t.stamp(b)), (t.version(), 2));
        // A delete stamps the emptied slot; a global change stamps all.
        t.delete(b).unwrap();
        assert_eq!(t.stamp(b), t.version());
        let before = t.version();
        t.set_cardinality_slack(1, 0);
        assert!(t.stamp(a) > before && t.stamp(b) > before);
        assert_eq!(t.stamp(TupleId::new(99)), t.version());
    }

    #[test]
    fn change_log_compaction_preserves_recent_readers() {
        let mut t = table();
        let a = t.insert(row(1, 0.0, 1.0)).unwrap();
        // Far more mutations than the log budget: the log compacts, but a
        // reader synced to the instant before the last write still sees it.
        for i in 0..5000 {
            t.refresh_cell(a, 1, i as f64).unwrap();
        }
        let v = t.version();
        t.refresh_cell(a, 1, -1.0).unwrap();
        assert_eq!(touched(&t, v).unwrap(), vec![a]);
        // A reader from the beginning fell behind the floor.
        assert!(t.changes_since(0).is_none());
    }

    #[test]
    fn default_indexes_cover_bounds_and_cost() {
        let mut t = table();
        t.insert(row(1, 0.0, 4.0)).unwrap();
        t.create_default_indexes().unwrap();
        for key in [
            IndexKey::Lo { column: 1 },
            IndexKey::Hi { column: 1 },
            IndexKey::Width { column: 1 },
            IndexKey::Cost,
        ] {
            assert_eq!(t.index(key).unwrap().len(), 1, "{key:?}");
        }
        // Idempotent.
        t.create_default_indexes().unwrap();
        assert_eq!(t.index(IndexKey::Cost).unwrap().len(), 1);
    }

    #[test]
    fn total_width_sums_uncertainty() {
        let mut t = table();
        t.insert(row(1, 0.0, 4.0)).unwrap();
        t.insert(row(2, 1.0, 2.0)).unwrap();
        assert_eq!(t.total_width(1).unwrap(), 5.0);
        assert_eq!(t.total_width(0).unwrap(), 0.0); // exact column
    }
}
