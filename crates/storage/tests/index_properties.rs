//! Property tests over arbitrary interleavings of inserts, deletes, cell
//! updates, refreshes, cost changes, and calls on deleted ids:
//!
//! * maintained indexes stay exactly consistent with a full table scan;
//! * the table reads exactly like a `BTreeMap<TupleId, (cells, cost)>`
//!   model — the per-tuple maps `Table` kept before its dense id-indexed
//!   slots — through every accessor, iterator, the change log and the
//!   per-tuple stamps, and every call on an id it does not hold returns `UnknownTuple` and
//!   changes nothing.
//!
//! 128 cases in debug, 10⁴ in release (CI's `view-maintenance` job).

use std::collections::BTreeMap;
use std::ops::Bound;

use proptest::prelude::*;
use trapp_storage::{ColumnDef, IndexKey, OrderedIndex, Schema, Table};
use trapp_types::{BoundedValue, OrderedF64, TrappError, TupleId, Value};

#[derive(Clone, Debug)]
enum Op {
    Insert { lo: f64, width: f64, cost: f64 },
    Delete { pick: usize },
    Refresh { pick: usize, frac: f64 },
    Widen { pick: usize, lo: f64, width: f64 },
    Recost { pick: usize, cost: f64 },
    Stale { pick: usize }, // every per-tuple call on a deleted id
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (-100.0f64..100.0, 0.0f64..50.0, 0.0f64..10.0)
            .prop_map(|(lo, width, cost)| Op::Insert { lo, width, cost }),
        1 => (0usize..64).prop_map(|pick| Op::Delete { pick }),
        2 => ((0usize..64), 0.0f64..1.0).prop_map(|(pick, frac)| Op::Refresh { pick, frac }),
        2 => ((0usize..64), -100.0f64..100.0, 0.0f64..50.0)
            .prop_map(|(pick, lo, width)| Op::Widen { pick, lo, width }),
        1 => ((0usize..64), 0.0f64..10.0).prop_map(|(pick, cost)| Op::Recost { pick, cost }),
        1 => (0usize..64).prop_map(|pick| Op::Stale { pick }),
    ]
}

fn cases() -> ProptestConfig {
    ProptestConfig::with_cases(if cfg!(debug_assertions) { 128 } else { 10_000 })
}

/// What the table should hold, kept the way it was kept before the slots.
#[derive(Default)]
struct Model {
    rows: BTreeMap<TupleId, (Vec<BoundedValue>, f64)>,
    deleted: Vec<TupleId>,
    inserted: u64,
    version: u64,
    /// `(version, tuple)` per logged mutation. The cases stay far below
    /// the log's 1,024-entry compaction floor, so nothing is ever dropped.
    log: Vec<(u64, TupleId)>,
}

impl Model {
    fn pick(&self, pick: usize) -> Option<TupleId> {
        let n = self.rows.len();
        (n > 0).then(|| *self.rows.keys().nth(pick % n).expect("in range"))
    }

    fn log(&mut self, tid: TupleId) {
        self.version += 1;
        self.log.push((self.version, tid));
    }

    /// A cell write as `Table::update_cell` lands it: a rewrite to the same
    /// value — or, for numerics, the same interval — changes nothing.
    fn write_cell(&mut self, tid: TupleId, cell: BoundedValue) {
        let old = &mut self.rows.get_mut(&tid).expect("live").0[0];
        let unchanged = *old == cell
            || matches!((old.as_interval(), cell.as_interval()), (Ok(a), Ok(b)) if a == b);
        if !unchanged {
            *old = cell;
            self.log(tid);
        }
    }
}

/// Applies `op` to both the table and the model.
fn apply(table: &mut Table, model: &mut Model, op: Op) -> Result<(), String> {
    match op {
        Op::Insert { lo, width, cost } => {
            let cells = vec![BoundedValue::bounded(lo, lo + width).unwrap()];
            let tid = table.insert_with_cost(cells.clone(), cost).unwrap();
            model.inserted += 1;
            prop_assert_eq!(tid, TupleId::new(model.inserted), "ids are 1, 2, …");
            model.rows.insert(tid, (cells, cost));
            model.log(tid);
        }
        Op::Delete { pick } => {
            if let Some(tid) = model.pick(pick) {
                table.delete(tid).unwrap();
                model.rows.remove(&tid);
                model.deleted.push(tid);
                model.log(tid);
            }
        }
        Op::Refresh { pick, frac } => {
            if let Some(tid) = model.pick(pick) {
                let iv = table.interval(tid, 0).unwrap();
                let v = iv.lo() + frac * iv.width();
                table.refresh_cell(tid, 0, v).unwrap();
                model.write_cell(tid, BoundedValue::Exact(Value::Float(v)));
            }
        }
        Op::Widen { pick, lo, width } => {
            if let Some(tid) = model.pick(pick) {
                let cell = BoundedValue::bounded(lo, lo + width).unwrap();
                table.update_cell(tid, 0, cell.clone()).unwrap();
                model.write_cell(tid, cell);
            }
        }
        Op::Recost { pick, cost } => {
            if let Some(tid) = model.pick(pick) {
                table.set_cost(tid, cost).unwrap();
                let old = &mut model.rows.get_mut(&tid).expect("live").1;
                if *old != cost {
                    *old = cost;
                    model.log(tid);
                }
            }
        }
        Op::Stale { pick } => {
            if !model.deleted.is_empty() {
                let tid = model.deleted[pick % model.deleted.len()];
                unknown_everywhere(table, tid)?;
            }
        }
    }
    Ok(())
}

/// Every per-tuple call on `tid`, which the table must not hold: each
/// returns `UnknownTuple` (the model check that follows shows nothing
/// changed).
fn unknown_everywhere(table: &mut Table, tid: TupleId) -> Result<(), String> {
    let want = Err(TrappError::UnknownTuple(tid.raw()));
    let cell = BoundedValue::bounded(1.0, 2.0).unwrap();
    prop_assert_eq!(table.row(tid).map(drop), want.clone(), "row({:?})", tid);
    prop_assert_eq!(table.cost(tid).map(drop), want.clone(), "cost({:?})", tid);
    prop_assert_eq!(
        table.set_cost(tid, 3.0),
        want.clone(),
        "set_cost({:?})",
        tid
    );
    prop_assert_eq!(
        table.update_cell(tid, 0, cell),
        want.clone(),
        "update_cell({:?})",
        tid
    );
    prop_assert_eq!(
        table.refresh_cell(tid, 0, 1.5),
        want.clone(),
        "refresh_cell({:?})",
        tid
    );
    prop_assert_eq!(table.delete(tid), want, "delete({:?})", tid);
    Ok(())
}

/// Every read the table offers, against the model.
fn matches_model(table: &Table, model: &Model) -> Result<(), String> {
    prop_assert_eq!(table.len(), model.rows.len());
    prop_assert_eq!(table.is_empty(), model.rows.is_empty());
    prop_assert_eq!(table.version(), model.version);

    prop_assert!(
        table.scan().map(|(t, r)| (t, r.cells())).eq(model
            .rows
            .iter()
            .map(|(t, (cells, _))| (*t, cells.as_slice()))),
        "scan diverged"
    );
    for (&tid, (cells, cost)) in &model.rows {
        prop_assert_eq!(table.row(tid).unwrap().cells(), cells.as_slice());
        prop_assert_eq!(table.cost(tid).unwrap().to_bits(), cost.to_bits());
    }
    prop_assert!(table.tuple_ids().eq(model.rows.keys().copied()));
    prop_assert!(
        table.tuple_ids().rev().eq(model.rows.keys().rev().copied()),
        "tuple_ids through next_back"
    );

    let last = model.inserted;
    let probes = [0, last + 5]
        .into_iter()
        .chain(model.rows.keys().map(|t| t.raw()))
        .chain(model.deleted.iter().map(|t| t.raw()));
    for t in probes.map(TupleId::new) {
        let want = model
            .rows
            .range((Bound::Excluded(t), Bound::Unbounded))
            .map(|(t, _)| *t);
        prop_assert!(
            table.tuple_ids_after(t).eq(want),
            "tuple_ids_after({:?})",
            t
        );
        // The stamp is the tuple's last logged version, and stays on a
        // deleted tuple.
        let stamp = model.log.iter().rev().find(|&&(_, w)| w == t);
        prop_assert_eq!(
            table.stamp(t),
            stamp.map_or(0, |&(v, _)| v),
            "stamp({:?})",
            t
        );
    }

    // Each op moves the version by at most one, so every version up to
    // the current one has been seen.
    for v in 0..=model.version {
        let want = model.log.iter().filter(|&&(w, _)| w > v);
        let got = table.changes_since(v);
        prop_assert!(
            got.is_some_and(|entries| entries.iter().eq(want)),
            "changes_since({}) = {:?}",
            v,
            got
        );
    }
    prop_assert!(table.changes_since(model.version + 1).is_none());
    Ok(())
}

/// Rebuilds what each index *should* contain from a scan.
fn expected_index(table: &Table, key: IndexKey) -> Vec<(OrderedF64, TupleId)> {
    let mut out: Vec<(OrderedF64, TupleId)> = table
        .scan()
        .filter_map(|(tid, row)| {
            let v = match key {
                IndexKey::Lo { column } => row.interval(column).ok()?.lo(),
                IndexKey::Hi { column } => row.interval(column).ok()?.hi(),
                IndexKey::Width { column } => row.interval(column).ok()?.width(),
                IndexKey::Cost => table.cost(tid).ok()?,
            };
            Some((OrderedF64::new(v).ok()?, tid))
        })
        .collect();
    out.sort();
    out
}

fn actual_index(ix: &OrderedIndex) -> Vec<(OrderedF64, TupleId)> {
    let mut out: Vec<(OrderedF64, TupleId)> = ix.ascending().collect();
    out.sort();
    out
}

fn table() -> Table {
    Table::new(
        "t",
        Schema::new(vec![ColumnDef::bounded_float("x")]).unwrap(),
    )
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn indexes_match_scans_under_mutation(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let mut table = table();
        let keys = [
            IndexKey::Lo { column: 0 },
            IndexKey::Hi { column: 0 },
            IndexKey::Width { column: 0 },
            IndexKey::Cost,
        ];
        for k in keys {
            table.create_index(k).unwrap();
        }

        let mut model = Model::default();
        for op in ops {
            apply(&mut table, &mut model, op)?;
            for k in keys {
                let ix = table.index(k).unwrap();
                prop_assert_eq!(
                    actual_index(ix),
                    expected_index(&table, k),
                    "index {:?} diverged after {:?}",
                    k,
                    table
                );
                prop_assert_eq!(ix.len(), table.len(), "index {:?} cardinality", k);
            }
        }
    }

    #[test]
    fn table_reads_like_a_map_model(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let mut table = table();
        let mut model = Model::default();
        matches_model(&table, &model)?;
        for op in ops {
            let described = format!("{op:?}");
            apply(&mut table, &mut model, op)?;
            // Ids no insert has handed out: 0, one past the end, further
            // out, and the far end of the id space.
            let next = model.inserted + 1;
            for raw in [0, next, next + 4, u64::MAX] {
                unknown_everywhere(&mut table, TupleId::new(raw))?;
            }
            matches_model(&table, &model).map_err(|e| format!("after {described}: {e}"))?;
        }
    }
}
