//! Per-shard answer snapshots: cache-served answers read with no shard
//! lock.
//!
//! When a single-table scalar or grouped plan comes back `Ready`, the plan
//! phase publishes its cache-only outcome under the query's SQL text, with
//! the clock instant it was planned at and the rows it read. A later query
//! with the same text, at the same instant, whose answers all meet its
//! current `WITHIN`, answers from the snapshot without taking the shard
//! lock — read-copy-update: readers share an [`Arc`], publication replaces
//! the map entry.
//!
//! **Staleness invariant.** Publication and retraction both run under the
//! shard lock, so a snapshot is published only from the state that lock
//! guards, and every write path retracts the snapshots its write can
//! stale before it releases the lock: an install retracts each snapshot
//! that read a written row, [`QueryService::with_shard_cache`] retracts
//! them all. A stale snapshot therefore never answers after the write
//! that staled it has returned. A clock advance retracts nothing: a
//! snapshot answers only at the instant it was planned at, and the first
//! publication at a new instant clears the older ones.
//!
//! [`QueryService::with_shard_cache`]: crate::QueryService::with_shard_cache

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use trapp_core::executor::QueryResult;
use trapp_core::plan::{BoundQuery, QuerySource};
use trapp_core::query_plan::QueryOutcome;
use trapp_core::view::pinned_value;
use trapp_system::CacheNode;

/// Snapshots one shard keeps at one instant; publishing past it starts
/// over, so distinct SQL texts cannot grow the store without bound.
const MAX_SNAPSHOTS: usize = 4096;

/// One shard's published snapshots. See the module docs.
#[derive(Default)]
pub(crate) struct AnswerSnapshots {
    published: RwLock<Published>,
}

#[derive(Default)]
struct Published {
    /// The clock instant every snapshot in `by_sql` was planned at.
    at: f64,
    /// The tables the snapshots read, each once.
    tables: Vec<String>,
    by_sql: HashMap<String, Snapshot>,
}

impl Published {
    fn clear(&mut self) {
        self.tables.clear();
        self.by_sql.clear();
    }
}

/// One published answer. The read set sits inline in the map, so a
/// retraction scans it without following a pointer per snapshot.
struct Snapshot {
    /// The plan's cache-only outcome, before any attribution patch.
    outcome: Arc<QueryOutcome>,
    /// The table the plan read, by position in [`Published::tables`].
    table: usize,
    /// The `(column, value)` conjunct that limits the rows the plan read
    /// to those holding `value` in that exact column ([`pinned_value`]);
    /// `None` when it read every row.
    pinned: Option<(usize, f64)>,
}

impl AnswerSnapshots {
    /// Publishes the `Ready` `outcome` of `sql`, bound as `bound` and
    /// planned at instant `at` (read before the plan brought its rows
    /// current). Called under the shard lock that guards `cache`. Joins
    /// publish nothing.
    pub(crate) fn publish(
        &self,
        sql: &str,
        at: f64,
        bound: &BoundQuery,
        cache: &CacheNode,
        outcome: &QueryOutcome,
    ) {
        let QuerySource::Table(name) = &bound.source else {
            return;
        };
        let Ok(read) = cache.session().catalog().table(name) else {
            return;
        };
        let pinned = pinned_value(read, bound.predicate.as_ref(), &bound.group_by);
        let (key, outcome) = (sql.to_owned(), Arc::new(outcome.clone()));
        let mut published = self.published.write();
        if published.at != at || published.by_sql.len() >= MAX_SNAPSHOTS {
            published.clear();
            published.at = at;
        }
        let table = match published.tables.iter().position(|t| t == name) {
            Some(table) => table,
            None => {
                published.tables.push(name.clone());
                published.tables.len() - 1
            }
        };
        let snapshot = Snapshot {
            outcome,
            table,
            pinned,
        };
        published.by_sql.insert(key, snapshot);
    }

    /// The outcome published for `sql` at instant `now`, when every answer
    /// in it meets `within` — with each unit marked satisfied, as a plan
    /// under `within` would mark it. Called with no shard lock.
    pub(crate) fn answer(&self, sql: &str, now: f64, within: Option<f64>) -> Option<QueryOutcome> {
        let published = {
            let published = self.published.read();
            if published.at != now {
                return None;
            }
            published.by_sql.get(sql)?.outcome.clone()
        };
        let meets = |r: &QueryResult| r.answer.satisfies(within);
        let all_met = match &*published {
            QueryOutcome::Scalar(r) => meets(r),
            QueryOutcome::Grouped(groups) => groups.iter().all(|g| meets(&g.result)),
        };
        if !all_met {
            return None;
        }
        let mut outcome = QueryOutcome::clone(&published);
        match &mut outcome {
            QueryOutcome::Scalar(r) => r.satisfied = true,
            QueryOutcome::Grouped(groups) => {
                for g in groups {
                    g.result.satisfied = true;
                }
            }
        }
        Some(outcome)
    }

    /// Runs `write` — an install — and retracts every snapshot that read a
    /// row it changed: each whole-table snapshot of a changed table, and
    /// each pinned one whose pinned value a changed row holds. The changed
    /// rows are the tables' change-log entries since before `write`; a log
    /// that no longer reaches back retracts the table's every snapshot.
    /// An install writes only object-backed cells, which are bounded, so
    /// a row's pinned exact cell reads the same before and after it. Called
    /// under the shard lock that guards `cache`, which no publication can
    /// take meanwhile; a `write` that unwinds retracts everything.
    pub(crate) fn retracting<R>(
        &self,
        cache: &mut CacheNode,
        write: impl FnOnce(&mut CacheNode) -> R,
    ) -> R {
        let catalog = cache.session().catalog();
        let since: Vec<u64> = (self.published.read().tables.iter())
            .map(|name| catalog.table(name).map_or(0, |t| t.version()))
            .collect();
        if since.is_empty() {
            return write(cache);
        }
        let unwinding = self.retract_all_on_drop();
        let out = write(cache);
        std::mem::forget(unwinding);
        self.retract_changed(cache, &since);
        out
    }

    /// The second half of [`AnswerSnapshots::retracting`]: `since` holds
    /// the version of each of [`Published::tables`] before the write.
    fn retract_changed(&self, cache: &CacheNode, since: &[u64]) {
        let catalog = cache.session().catalog();
        let mut published = self.published.write();
        let Published { tables, by_sql, .. } = &mut *published;
        let changed: Vec<_> = (tables.iter().zip(since))
            .map(|(name, &version)| {
                let table = catalog.table(name).ok()?;
                Some((table, table.changes_since(version)?))
            })
            .collect();
        // The changed rows' pinned cells, read once per (table, column);
        // `NaN` for a row that cannot be read, which retracts.
        let mut cells: Vec<((usize, usize), Vec<f64>)> = Vec::new();
        by_sql.retain(|_, s| {
            let Some(&Some((table, changes))) = changed.get(s.table) else {
                return false;
            };
            if changes.is_empty() {
                return true;
            }
            let Some((column, value)) = s.pinned else {
                return false;
            };
            let k = match cells.iter().position(|(key, _)| *key == (s.table, column)) {
                Some(k) => k,
                None => {
                    let cell = |tid| table.interval(tid, column).map_or(f64::NAN, |c| c.lo());
                    let mut read: Vec<f64> = changes.iter().map(|&(_, tid)| cell(tid)).collect();
                    read.sort_by(f64::total_cmp);
                    read.dedup();
                    cells.push(((s.table, column), read));
                    cells.len() - 1
                }
            };
            !cells[k].1.iter().any(|&w| w == value || w.is_nan())
        });
    }

    /// A guard that retracts every snapshot when dropped — declared after
    /// the shard lock's guard, it runs before the lock is released, also
    /// when the locked section unwinds.
    pub(crate) fn retract_all_on_drop(&self) -> RetractAll<'_> {
        RetractAll(self)
    }
}

/// See [`AnswerSnapshots::retract_all_on_drop`].
pub(crate) struct RetractAll<'a>(&'a AnswerSnapshots);

impl Drop for RetractAll<'_> {
    fn drop(&mut self) {
        self.0.published.write().clear();
    }
}
