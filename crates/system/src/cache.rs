//! Data caches: bounded tables + the query processor (§3, Figure 3).
//!
//! A [`CacheNode`] owns a `trapp-core` [`QuerySession`] whose tables hold
//! the *materialized* bounds. Each bounded cell is backed by a replicated
//! object with a time-varying [`BoundFunction`]. §3.2 only needs those
//! functions "evaluated at the current time `T_c`" for the tuples a query
//! reads, so that is all the cache evaluates: a clock advance writes
//! nothing, and each row remembers the instant its cells were last written
//! at. Before a plan the cache brings current exactly the rows the plan can
//! read — a pinned scalar query's group ([`pinned_rows`]), every row for
//! any other shape ([`CacheNode::materialize`]) — with one per-row step,
//! so a second query over the same rows at the same instant writes
//! nothing. An install or a rebinding rewrites its own row on the spot.
//!
//! **Layout.** The cell state of each table lives in dense tuple-id slots,
//! as the table's own rows do: slot `i` holds tuple `i + 1`'s bindings,
//! and each binding carries its object's current bound function and
//! owning source. The per-row step, a fetch's object resolution
//! ([`CacheNode::for_objects_backing`]) and an install therefore index
//! a slot instead of probing a map. One map keyed by [`ObjectId`] holds
//! what an object needs beyond its cell: its route and the sequence of
//! its last installed refresh. [`CacheNode::install_refreshes`] lands a
//! whole batch with one probe of that map per refresh and one catalog
//! and slot-table lookup per run of refreshes into the same table.
//!
//! Query-initiated refreshes flow through an internal transport-backed
//! oracle (`SystemOracle`), which routes
//! each `(table, tuple, column)` request to the owning source via the
//! transport, hands the exact value to the executor, and records the new
//! bound function for installation after the query completes.

use std::collections::HashMap;

use trapp_bounds::BoundFunction;
use trapp_core::executor::{QueryResult, QuerySession, RefreshOracle};
use trapp_core::plan::{bind_query, BoundQuery, QuerySource};
use trapp_core::view::pinned_rows;
use trapp_core::{Exclusions, QueryPlan};
use trapp_storage::{Catalog, Table};
use trapp_types::{BoundedValue, CacheId, ObjectId, SourceId, TrappError, TupleId};

use crate::clock::SimClock;
use crate::message::{Refresh, RefreshKind};
use crate::stats::CacheStats;
use crate::transport::Transport;

/// Identifies one bounded cell of one cached table.
pub type CellKey = (String, TupleId, usize);

/// Where a replicated object lives and which cell it backs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectRoute {
    /// The owning source.
    pub source: SourceId,
    /// The backed cell.
    pub cell: CellKey,
}

/// A bound object, beyond its cell's binding.
struct Object {
    route: ObjectRoute,
    /// Its table's index in [`Cells::tables`].
    table: usize,
    /// Sequence of its last installed refresh (see [`Refresh::seq`]);
    /// installs arriving out of order are skipped.
    seq: Option<u64>,
}

/// One `(column, object)` binding of a row, with what the per-row step
/// and a fetch need of the object.
#[derive(Clone, Copy)]
struct Binding {
    column: usize,
    object: ObjectId,
    source: SourceId,
    /// The object's current bound function; `None` until its
    /// subscription refresh is installed.
    bound: Option<BoundFunction>,
}

/// One cached row's bindings, and the instant its cells were last written.
#[derive(Default)]
struct RowCells {
    bindings: Bindings,
    /// The clock instant every cell of the row was last written at;
    /// `None` before the first write, or after one failed half way.
    current_at: Option<f64>,
}

/// A row's bindings, by column, each cell's objects oldest first. The
/// newest is the one a refresh of the cell fetches; the newest *with a
/// bound* is the one the cell shows. Nearly every row has one binding,
/// held inline: a full pass then walks the slots without a pointer to
/// chase per row.
enum Bindings {
    One([Binding; 1]),
    Many(Vec<Binding>),
}

impl Default for Bindings {
    fn default() -> Bindings {
        Bindings::Many(Vec::new())
    }
}

impl From<Vec<Binding>> for Bindings {
    fn from(all: Vec<Binding>) -> Bindings {
        match *all {
            [one] => Bindings::One([one]),
            _ => Bindings::Many(all),
        }
    }
}

impl Bindings {
    fn as_slice(&self) -> &[Binding] {
        match self {
            Bindings::One(one) => one,
            Bindings::Many(all) => all,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Binding] {
        match self {
            Bindings::One(one) => one,
            Bindings::Many(all) => all,
        }
    }

    /// Adds `binding` as the newest of its cell.
    fn insert(&mut self, binding: Binding) {
        let mut all = self.as_slice().to_vec();
        all.insert(all.partition_point(|b| b.column <= binding.column), binding);
        *self = all.into();
    }

    /// Removes and returns `object`'s binding, if the row has one.
    fn remove(&mut self, object: ObjectId) -> Option<Binding> {
        let mut all = self.as_slice().to_vec();
        let at = all.iter().position(|b| b.object == object)?;
        let removed = all.remove(at);
        *self = all.into();
        Some(removed)
    }
}

impl RowCells {
    /// The newest binding of the row's `column`.
    fn newest(&self, column: usize) -> Option<&Binding> {
        self.bindings
            .as_slice()
            .iter()
            .rev()
            .find(|b| b.column == column)
    }
}

/// One cached table's rows in dense tuple-id slots: slot `i` holds tuple
/// `i + 1`, `None` until a cell of it is first bound.
struct TableCells {
    name: String,
    rows: Vec<Option<RowCells>>,
}

/// The row of `tid` in `rows`, if one of its cells was ever bound.
fn slot(rows: &[Option<RowCells>], tid: TupleId) -> Option<&RowCells> {
    rows.get(slot_index(tid)?)?.as_ref()
}

/// [`slot`], mutably.
fn slot_mut(rows: &mut [Option<RowCells>], tid: TupleId) -> Option<&mut RowCells> {
    rows.get_mut(slot_index(tid)?)?.as_mut()
}

/// The index of `tid`'s row slot: tuple ids start at 1.
fn slot_index(tid: TupleId) -> Option<usize> {
    usize::try_from(tid.raw().checked_sub(1)?).ok()
}

/// The bound cells: which objects back each, with their bound functions,
/// and which rows hold those bounds evaluated at which instant.
#[derive(Default)]
struct Cells {
    /// Per cached table with a bound cell, in the order first bound.
    tables: Vec<TableCells>,
    /// Rows with a slot, over every table: the count a full pass at one
    /// instant brings current.
    slotted: usize,
    tally: Tally,
}

/// What the per-row step has done so far.
#[derive(Default)]
struct Tally {
    /// How many rows are current at instant `.0`, the latest instant any
    /// row was written at (the clock only moves forward). All of them
    /// means a full pass at that instant has nothing to write.
    current: (f64, usize),
    /// Cells written ([`CacheStats::cells_materialized`]).
    written: u64,
}

impl Cells {
    /// The index of table `name` in [`Cells::tables`], if any cell of it
    /// is bound.
    fn position(&self, name: &str) -> Option<usize> {
        self.tables.iter().position(|t| t.name == name)
    }

    /// The row slots of table `name`.
    fn rows_of(&self, name: &str) -> Option<&[Option<RowCells>]> {
        self.position(name)
            .map(|at| self.tables[at].rows.as_slice())
    }

    /// The newest binding of `table[tid].column`.
    fn newest(&self, table: &str, tid: TupleId, column: usize) -> Option<&Binding> {
        slot(self.rows_of(table)?, tid)?.newest(column)
    }

    /// The index of table `name`, adding it on its first binding.
    fn table_index(&mut self, name: &str) -> usize {
        self.position(name).unwrap_or_else(|| {
            self.tables.push(TableCells {
                name: name.to_owned(),
                rows: Vec::new(),
            });
            self.tables.len() - 1
        })
    }

    /// Makes `binding` the newest of its cell in row `tid` of table
    /// `table`.
    fn bind(&mut self, table: usize, tid: TupleId, binding: Binding) -> Result<(), TrappError> {
        let rows = &mut self.tables[table].rows;
        let at = slot_index(tid).ok_or(TrappError::UnknownTuple(tid.raw()))?;
        if at >= rows.len() {
            rows.resize_with(at + 1, || None);
        }
        let row = rows[at].get_or_insert_with(|| {
            self.slotted += 1;
            RowCells::default()
        });
        row.bindings.insert(binding);
        Ok(())
    }

    /// Removes and returns `object`'s binding in row `tid` of table
    /// `table`.
    fn unbind(&mut self, table: usize, tid: TupleId, object: ObjectId) -> Option<Binding> {
        slot_mut(&mut self.tables[table].rows, tid)?
            .bindings
            .remove(object)
    }

    /// Whether every row is counted current at `now`.
    fn all_current_at(&self, now: f64) -> bool {
        self.tally.current == (now, self.slotted)
    }

    /// The full pass: the per-row step over every bound row of every
    /// table.
    fn all_current(&mut self, catalog: &mut Catalog, now: f64) -> Result<(), TrappError> {
        if self.all_current_at(now) {
            return Ok(());
        }
        for TableCells { name, rows } in &mut self.tables {
            let table = catalog.table_mut(name)?;
            for (i, row) in rows.iter_mut().enumerate() {
                if let Some(row) = row {
                    let tid = TupleId::new(i as u64 + 1);
                    self.tally.step(table, tid, row, now, false)?;
                }
            }
        }
        Ok(())
    }

    /// The per-row step over `tids` of table number `table` — or, when
    /// `changed`, a rewrite of them whether they are current or not: one
    /// of their bounds or bindings just changed.
    fn bring_current(
        &mut self,
        catalog: &mut Catalog,
        now: f64,
        table: usize,
        tids: &[TupleId],
        changed: bool,
    ) -> Result<(), TrappError> {
        let TableCells { name, rows } = &mut self.tables[table];
        let table = catalog.table_mut(name)?;
        for &tid in tids {
            if let Some(row) = slot_mut(rows, tid) {
                self.tally.step(table, tid, row, now, changed)?;
            }
        }
        Ok(())
    }
}

impl Tally {
    /// The per-row step of every pass: unless `row` is current at `now`
    /// already (and not `changed`), writes each of its cells' interval at
    /// `now` — the bound of the cell's newest object that has one — and
    /// stamps the row current. A row the table no longer holds has
    /// nothing to write.
    fn step(
        &mut self,
        table: &mut Table,
        tid: TupleId,
        row: &mut RowCells,
        now: f64,
        changed: bool,
    ) -> Result<(), TrappError> {
        if row.current_at == Some(now) && !changed {
            return Ok(());
        }
        if row.current_at.take() == Some(self.current.0) {
            self.current.1 -= 1;
        }
        for cell in row
            .bindings
            .as_slice()
            .chunk_by(|a, b| a.column == b.column)
        {
            // Bound but not yet subscribed: nothing to evaluate.
            let Some(bound) = cell.iter().rev().find_map(|b| b.bound) else {
                continue;
            };
            let interval = BoundedValue::Bounded(bound.interval_at(now));
            match table.update_cell(tid, cell[0].column, interval) {
                Ok(()) => self.written += 1,
                // Deleted from the table since it was bound.
                Err(TrappError::UnknownTuple(_)) => break,
                Err(e) => return Err(e),
            }
        }
        row.current_at = Some(now);
        if self.current.0 != now {
            self.current = (now, 0);
        }
        self.current.1 += 1;
        Ok(())
    }
}

/// Where an accepted refresh lands.
#[derive(Clone, Copy)]
struct Target {
    /// Its table's index in [`Cells::tables`].
    table: usize,
    tuple: TupleId,
    column: usize,
}

/// A TRAPP data cache.
pub struct CacheNode {
    id: CacheId,
    session: QuerySession,
    clock: SimClock,
    /// Every bound object: route, table, last installed sequence.
    objects: HashMap<ObjectId, Object>,
    /// Which objects back each cell, their bounds, and which rows are
    /// current.
    cells: Cells,
    stats: CacheStats,
}

impl CacheNode {
    /// Creates a cache over an empty catalog.
    pub fn new(id: CacheId, clock: SimClock) -> CacheNode {
        CacheNode {
            id,
            session: QuerySession::with_catalog(Catalog::new()),
            clock,
            objects: HashMap::new(),
            cells: Cells::default(),
            stats: CacheStats::default(),
        }
    }

    /// This cache's id.
    pub fn id(&self) -> CacheId {
        self.id
    }

    /// Where `object` lives and which cell it backs, if bound here.
    pub fn route(&self, object: ObjectId) -> Option<&ObjectRoute> {
        self.objects.get(&object).map(|o| &o.route)
    }

    /// Iterates all bound objects with their routes.
    pub fn objects(&self) -> impl Iterator<Item = (ObjectId, &ObjectRoute)> {
        self.objects.iter().map(|(&o, entry)| (o, &entry.route))
    }

    /// The replicated objects backing `tid`'s bounded cells, with their
    /// owning sources — what a refresh of the tuple must fetch.
    pub fn objects_backing(
        &self,
        table: &str,
        tuple: TupleId,
    ) -> Result<Vec<(ObjectId, SourceId)>, TrappError> {
        let mut objects = Vec::new();
        self.for_objects_backing(table, &[tuple], |object, source| {
            objects.push((object, source))
        })?;
        Ok(objects)
    }

    /// [`CacheNode::objects_backing`] for a batch of `table`'s tuples,
    /// each `(object, source)` handed to `each` in tuple order: the table,
    /// its bounded columns and its row slots are looked up once per batch,
    /// and each tuple's bindings by index.
    pub fn for_objects_backing(
        &self,
        table: &str,
        tuples: &[TupleId],
        mut each: impl FnMut(ObjectId, SourceId),
    ) -> Result<(), TrappError> {
        let columns = self
            .session
            .catalog()
            .table(table)?
            .schema()
            .bounded_columns();
        let rows = self.cells.rows_of(table).unwrap_or_default();
        for &tid in tuples {
            let row = slot(rows, tid);
            for &column in &columns {
                let binding = row
                    .and_then(|row| row.newest(column))
                    .ok_or_else(|| unbacked(table, tid, column))?;
                each(binding.object, binding.source);
            }
        }
        Ok(())
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            cells_materialized: self.cells.tally.written,
            ..self.stats
        }
    }

    /// The underlying query session (configuration, catalog access).
    pub fn session_mut(&mut self) -> &mut QuerySession {
        &mut self.session
    }

    /// Immutable session access.
    pub fn session(&self) -> &QuerySession {
        &self.session
    }

    /// Adds a cached table.
    pub fn add_table(&mut self, table: Table) -> Result<(), TrappError> {
        self.session.catalog_mut().add_table(table)
    }

    /// Binds `object` (owned by `source`) to a bounded cell as the cell's
    /// newest object: the one a refresh of the cell fetches. Until
    /// `object`'s subscription refresh is installed the cell keeps showing
    /// the bound of the object bound there before it, if any. Rebinding an
    /// object moves it, with its bound: the cell it backed falls back the
    /// same way.
    pub fn bind_object(
        &mut self,
        object: ObjectId,
        source: SourceId,
        table: impl Into<String>,
        tuple: TupleId,
        column: usize,
    ) -> Result<(), TrappError> {
        let cell: CellKey = (table.into(), tuple, column);
        // Validate the cell exists and is bounded.
        let t = self.session.catalog().table(&cell.0)?;
        let def = t.schema().column_at(column)?;
        if !def.bounded {
            return Err(TrappError::BoundednessViolation(format!(
                "column {} of {} is exact; only bounded cells back replicated objects",
                def.name, cell.0
            )));
        }
        t.row(tuple)?;
        let now = self.clock.now();
        let table = self.cells.table_index(&cell.0);
        let old = self.objects.remove(&object);
        let seq = old.as_ref().and_then(|o| o.seq);
        let route = ObjectRoute { source, cell };
        self.objects.insert(object, Object { route, table, seq });
        let bound = match old {
            Some(old) => {
                let old_tuple = old.route.cell.1;
                let moved = self.cells.unbind(old.table, old_tuple, object);
                let catalog = self.session.catalog_mut();
                self.cells
                    .bring_current(catalog, now, old.table, &[old_tuple], true)?;
                moved.and_then(|b| b.bound)
            }
            None => None,
        };
        let binding = Binding {
            column,
            object,
            source,
            bound,
        };
        self.cells.bind(table, tuple, binding)?;
        self.cells
            .bring_current(self.session.catalog_mut(), now, table, &[tuple], true)
    }

    /// Installs one refresh (any kind); see
    /// [`CacheNode::install_refreshes`], of which this is the one-refresh
    /// case.
    pub fn install_refresh(&mut self, refresh: Refresh) -> Result<(), TrappError> {
        self.install_refreshes(std::iter::once(refresh))
    }

    /// Installs a batch of refreshes (any kinds), in order. Each records
    /// its object's bound function, pins the cell to the refreshed exact
    /// value, and rewrites the cell's row at the current instant (the
    /// bound at `T_r` is the point `V(T_r)`; it widens again as the clock
    /// moves).
    ///
    /// Installs are *ordered*: a refresh whose [`Refresh::seq`] is behind
    /// one already installed for the object is stale — a newer bound from
    /// the source has already landed, e.g. a value-initiated refresh that
    /// raced a concurrently fetched query refresh — and is skipped, so the
    /// cache can never regress behind the Refresh Monitor's tracked bound.
    ///
    /// A refresh that cannot land (its object is not bound here, or its
    /// row is gone) does not stop the batch: every other refresh is
    /// installed, and the first error is returned afterwards. The batch
    /// costs one object lookup per refresh, and one catalog and slot-table
    /// lookup per run of refreshes into the same table.
    pub fn install_refreshes(
        &mut self,
        refreshes: impl IntoIterator<Item = Refresh>,
    ) -> Result<(), TrappError> {
        let CacheNode {
            session,
            clock,
            objects,
            cells,
            stats,
            ..
        } = self;
        let now = clock.now();
        let catalog = session.catalog_mut();
        let mut refreshes = refreshes.into_iter();
        let mut first_error = None;
        // The next refresh that is neither stale nor refused.
        let mut claim_next = |stats: &mut CacheStats, first_error: &mut Option<TrappError>| {
            for refresh in refreshes.by_ref() {
                match claim(objects, stats, &refresh) {
                    Ok(Some(target)) => return Some((refresh, target)),
                    Ok(None) => {}
                    Err(e) => {
                        first_error.get_or_insert(e);
                    }
                }
            }
            None
        };
        let mut next = claim_next(stats, &mut first_error);
        // One run of refreshes into the same table per pass.
        while let Some(mut at) = next.take() {
            let run = at.1.table;
            let TableCells { name, rows } = &mut cells.tables[run];
            let table = match catalog.table_mut(name) {
                Ok(table) => table,
                Err(e) => {
                    first_error.get_or_insert(e);
                    next = claim_next(stats, &mut first_error);
                    continue;
                }
            };
            loop {
                let (refresh, target) = at;
                match land(table, rows, &mut cells.tally, now, &refresh, target) {
                    Ok(()) => match refresh.kind {
                        RefreshKind::ValueInitiated => stats.value_initiated += 1,
                        RefreshKind::QueryInitiated => stats.query_initiated += 1,
                        RefreshKind::Subscription => stats.subscriptions += 1,
                        RefreshKind::PreRefresh => stats.pre_refreshes += 1,
                    },
                    Err(e) => {
                        first_error.get_or_insert(e);
                    }
                }
                match claim_next(stats, &mut first_error) {
                    Some(following) if following.1.table == run => at = following,
                    other => {
                        next = other;
                        break;
                    }
                }
            }
        }
        first_error.map_or(Ok(()), Err)
    }

    /// Brings every bounded cell of every cached table current: each row
    /// not yet written at the current instant gets its bounds evaluated
    /// there, by the same per-row step a pinned plan runs over its group
    /// ([`CacheNode::materialize_for`]). After a clock advance that
    /// is every row, in tuple order — one catalog lookup per table, each
    /// table's slots and change log written front to back; at an instant
    /// every row is current at already, it writes nothing.
    /// `Table::update_cell` skips no-op writes, so unchanged cells also
    /// leave table versions (and thus memoized band views) untouched.
    ///
    /// Scatter gathers, joins, `GROUP BY` and unfiltered queries and
    /// [`crate::Simulation`] read every row, so they call this before
    /// planning.
    pub fn materialize(&mut self) -> Result<(), TrappError> {
        self.cells
            .all_current(self.session.catalog_mut(), self.clock.now())
    }

    /// Brings current exactly the rows a plan of `bound` can read: the
    /// rows [`pinned_rows`] names for a pinned scalar query — so a repeat
    /// on the same group at the same instant writes nothing — and every
    /// row ([`CacheNode::materialize`]) for any other shape.
    pub fn materialize_for(&mut self, bound: &BoundQuery) -> Result<(), TrappError> {
        let now = self.clock.now();
        let QuerySource::Table(name) = &bound.source else {
            return self.materialize();
        };
        if self.cells.all_current_at(now) {
            return Ok(());
        }
        let table = self.session.catalog().table(name)?;
        match pinned_rows(table, bound.predicate.as_ref(), &bound.group_by) {
            Some(tids) => {
                let Some(at) = self.cells.position(name) else {
                    return Ok(());
                };
                let catalog = self.session.catalog_mut();
                self.cells.bring_current(catalog, now, at, &tids, false)
            }
            None => self.materialize(),
        }
    }

    /// Plans `query` ([`QuerySession::plan_bound_excluding`]) after
    /// bringing current the rows its plan can read
    /// ([`CacheNode::materialize_for`]), binding it once for both. Returns
    /// the bound query beside the plan.
    pub fn plan_query_excluding(
        &mut self,
        query: &trapp_sql::Query,
        exclusions: &Exclusions,
    ) -> Result<(BoundQuery, QueryPlan), TrappError> {
        let bound = bind_query(query, self.session.catalog())?;
        self.materialize_for(&bound)?;
        let plan = self.session.plan_bound_excluding(&bound, exclusions)?;
        Ok((bound, plan))
    }

    /// Executes a query from SQL text; see [`CacheNode::execute`].
    pub fn execute_query(
        &mut self,
        sql: &str,
        transport: &dyn Transport,
    ) -> Result<QueryResult, TrappError> {
        let query = trapp_sql::parse_query(sql)?;
        self.execute(&query, transport)
    }

    /// Executes a parsed query: materializes bounds at the current time,
    /// runs the `trapp-core` executor with a transport-backed oracle,
    /// installs the new bound functions received from sources, and updates
    /// statistics.
    pub fn execute(
        &mut self,
        query: &trapp_sql::Query,
        transport: &dyn Transport,
    ) -> Result<QueryResult, TrappError> {
        let result =
            self.with_oracle(transport, |session, oracle| session.execute(query, oracle))?;
        self.stats.queries += 1;
        self.stats.refresh_cost += result.refresh_cost;
        Ok(result)
    }

    /// Executes a parsed `GROUP BY` query through the same
    /// materialize/execute/install pipeline as [`CacheNode::execute`],
    /// returning one result per group in key-sorted order — the
    /// single-cache reference grouped answers are checked against (a
    /// serving layer plans grouped queries through
    /// [`trapp_core::query_plan`] instead, fetching with no lock held).
    pub fn execute_grouped(
        &mut self,
        query: &trapp_sql::Query,
        transport: &dyn Transport,
    ) -> Result<Vec<trapp_core::GroupResult>, TrappError> {
        let groups = self.with_oracle(transport, |session, oracle| {
            session.execute_grouped(query, oracle)
        })?;
        self.stats.queries += 1;
        self.stats.refresh_cost += groups.iter().map(|g| g.result.refresh_cost).sum::<f64>();
        Ok(groups)
    }

    /// Shared execution harness: materializes bounds, runs `f` with a
    /// transport-backed oracle, and installs every refresh that arrived
    /// through [`CacheNode::install_refreshes`] — even on error paths (the
    /// exact values are already in the table; the bound functions must
    /// follow or the cell would widen again from a stale bound).
    fn with_oracle<R>(
        &mut self,
        transport: &dyn Transport,
        f: impl FnOnce(&mut QuerySession, &mut SystemOracle) -> Result<R, TrappError>,
    ) -> Result<R, TrappError> {
        self.materialize()?;
        let mut oracle = SystemOracle {
            cache: self.id,
            now: self.clock.now(),
            cells: &self.cells,
            transport,
            received: Vec::new(),
        };
        let result = f(&mut self.session, &mut oracle);
        self.install_refreshes(oracle.received)?;
        result
    }
}

/// Accepts `refresh` for installation: its target, or `None` when it is
/// sequence-stale (counted, skipped). Records its sequence as the
/// object's last installed one.
fn claim(
    objects: &mut HashMap<ObjectId, Object>,
    stats: &mut CacheStats,
    refresh: &Refresh,
) -> Result<Option<Target>, TrappError> {
    let object = objects.get_mut(&refresh.object).ok_or_else(|| {
        TrappError::RefreshFailed(format!("{} is not bound here", refresh.object))
    })?;
    if object.seq.is_some_and(|last| refresh.seq < last) {
        stats.stale_skipped += 1;
        return Ok(None);
    }
    object.seq = Some(refresh.seq);
    let (_, tuple, column) = object.route.cell;
    Ok(Some(Target {
        table: object.table,
        tuple,
        column,
    }))
}

/// Lands one claimed refresh in its table: records the bound on the
/// object's binding, pins the cell to the refreshed value, and rewrites
/// the row at `now`.
fn land(
    table: &mut Table,
    rows: &mut [Option<RowCells>],
    tally: &mut Tally,
    now: f64,
    refresh: &Refresh,
    target: Target,
) -> Result<(), TrappError> {
    let mut row = slot_mut(rows, target.tuple);
    let binding = row.as_mut().and_then(|row| {
        let mut bindings = row.bindings.as_mut_slice().iter_mut();
        bindings.find(|b| b.object == refresh.object)
    });
    if let Some(binding) = binding {
        binding.bound = Some(refresh.bound);
    }
    table.refresh_cell(target.tuple, target.column, refresh.value)?;
    match row {
        Some(row) => tally.step(table, target.tuple, row, now, true),
        None => Ok(()),
    }
}

/// The transport-backed [`RefreshOracle`].
struct SystemOracle<'a> {
    cache: CacheId,
    now: f64,
    cells: &'a Cells,
    transport: &'a dyn Transport,
    received: Vec<Refresh>,
}

/// The object backing `table[tid].column`, with its owning source.
fn object_at(
    cells: &Cells,
    table: &str,
    tid: TupleId,
    column: usize,
) -> Result<(ObjectId, SourceId), TrappError> {
    let binding = cells
        .newest(table, tid, column)
        .ok_or_else(|| unbacked(table, tid, column))?;
    Ok((binding.object, binding.source))
}

/// The refusal for a cell no replicated object backs.
fn unbacked(table: &str, tid: TupleId, column: usize) -> TrappError {
    TrappError::RefreshFailed(format!(
        "no replicated object backs {table}[{tid}].{column}"
    ))
}

impl RefreshOracle for SystemOracle<'_> {
    /// Serves a whole refresh plan with one round-trip per source: the
    /// plan's `(tuple, column)` cells are resolved to objects, grouped by
    /// owning source, fetched via [`Transport::submit_refresh_batch`], and
    /// scattered back into per-tuple value rows.
    fn refresh_batch(
        &mut self,
        table: &str,
        tids: &[TupleId],
        columns: &[usize],
    ) -> Result<Vec<Vec<f64>>, TrappError> {
        // Resolve every cell up front; slot maps (tuple row, column slot)
        // to its position in the per-source request vectors.
        let mut per_source: HashMap<SourceId, Vec<ObjectId>> = HashMap::new();
        let mut slots: Vec<Vec<(SourceId, usize)>> = Vec::with_capacity(tids.len());
        for &tid in tids {
            let mut row = Vec::with_capacity(columns.len());
            for &column in columns {
                let (object, source) = object_at(self.cells, table, tid, column)?;
                let bucket = per_source.entry(source).or_default();
                bucket.push(object);
                row.push((source, bucket.len() - 1));
            }
            slots.push(row);
        }
        // One round-trip per source. BTree order keeps the request
        // sequence deterministic.
        let ordered: std::collections::BTreeMap<SourceId, Vec<ObjectId>> =
            per_source.into_iter().collect();
        let mut responses: HashMap<SourceId, Vec<Refresh>> = HashMap::new();
        for (source, objects) in ordered {
            let requested = objects.len();
            let refreshes = self
                .transport
                .submit_refresh_batch(source, self.cache, objects, self.now)
                .wait()?;
            if refreshes.len() != requested {
                return Err(TrappError::RefreshFailed(format!(
                    "source {source} returned {} refreshes for {requested} objects",
                    refreshes.len(),
                )));
            }
            // Record each source's refreshes the moment they arrive: if a
            // *later* source's batch fails, these have still mutated their
            // source's monitor state, and the error-path install in
            // `execute` must see them or cache and monitor diverge.
            self.received.extend(refreshes.iter().copied());
            responses.insert(source, refreshes);
        }
        let out = slots
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|(source, idx)| responses[&source][idx].value)
                    .collect()
            })
            .collect();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Source;
    use crate::transport::DirectTransport;
    use proptest::prelude::*;
    use trapp_bounds::BoundShape;
    use trapp_storage::{ColumnDef, Schema};
    use trapp_types::{Interval, Value, ValueType};

    /// One source, one cache, two objects backing a 2-row table.
    fn setup() -> (SimClock, CacheNode, DirectTransport) {
        let clock = SimClock::new();
        let mut cache = CacheNode::new(CacheId::new(1), clock.clone());

        let schema = Schema::new(vec![
            ColumnDef::exact("name", ValueType::Str),
            ColumnDef::bounded_float("temp"),
        ])
        .unwrap();
        let mut table = Table::new("sensors", schema);
        let t1 = table
            .insert_with_cost(
                vec![
                    BoundedValue::Exact(Value::Str("a".into())),
                    BoundedValue::bounded(0.0, 0.0).unwrap(),
                ],
                2.0,
            )
            .unwrap();
        let t2 = table
            .insert_with_cost(
                vec![
                    BoundedValue::Exact(Value::Str("b".into())),
                    BoundedValue::bounded(0.0, 0.0).unwrap(),
                ],
                3.0,
            )
            .unwrap();
        cache.add_table(table).unwrap();

        let mut source = Source::new(SourceId::new(1), BoundShape::Sqrt);
        source.register_object(ObjectId::new(1), 20.0).unwrap();
        source.register_object(ObjectId::new(2), 25.0).unwrap();

        cache
            .bind_object(ObjectId::new(1), SourceId::new(1), "sensors", t1, 1)
            .unwrap();
        cache
            .bind_object(ObjectId::new(2), SourceId::new(1), "sensors", t2, 1)
            .unwrap();

        let mut transport = DirectTransport::new();
        let src = transport.add_source(source);
        {
            let mut s = src.lock();
            for obj in [ObjectId::new(1), ObjectId::new(2)] {
                let r = s.subscribe(CacheId::new(1), obj, 1.0, 0.0).unwrap();
                cache.install_refresh(r).unwrap();
            }
        }
        (clock, cache, transport)
    }

    #[test]
    fn materialization_widens_with_time() {
        let (clock, mut cache, _t) = setup();
        cache.materialize().unwrap();
        let t = cache.session().catalog().table("sensors").unwrap();
        assert_eq!(t.interval(TupleId::new(1), 1).unwrap().width(), 0.0);

        clock.advance(4.0);
        cache.materialize().unwrap();
        let t = cache.session().catalog().table("sensors").unwrap();
        // ±1·√4 = ±2 → width 4.
        assert_eq!(t.interval(TupleId::new(1), 1).unwrap().width(), 4.0);
    }

    #[test]
    fn query_from_cache_alone_when_precision_allows() {
        let (clock, mut cache, transport) = setup();
        clock.advance(4.0);
        let r = cache
            .execute_query("SELECT SUM(temp) WITHIN 10 FROM sensors", &transport)
            .unwrap();
        // Total width = 8 ≤ 10: no refreshes.
        assert!(r.satisfied);
        assert!(r.refreshed.is_empty());
        assert_eq!(transport.messages(), 0);
        assert_eq!(r.answer.range.midpoint(), 45.0);
    }

    #[test]
    fn tight_precision_pulls_query_initiated_refreshes() {
        let (clock, mut cache, transport) = setup();
        clock.advance(4.0);
        let r = cache
            .execute_query("SELECT SUM(temp) WITHIN 1 FROM sensors", &transport)
            .unwrap();
        assert!(r.satisfied);
        assert!(!r.refreshed.is_empty());
        assert!(transport.messages() > 0);
        assert_eq!(cache.stats().query_initiated, r.refreshed.len() as u64);
        // Exact answer: 20 + 25.
        assert!(r.answer.range.contains(45.0));
        assert!(r.answer.width() <= 1.0);
    }

    #[test]
    fn value_initiated_refresh_updates_cache() {
        let (clock, mut cache, transport) = setup();
        clock.advance(1.0);
        // Push an escaping update through the source.
        let src = transport.source(SourceId::new(1)).unwrap();
        let refreshes = src
            .lock()
            .apply_update(ObjectId::new(1), 50.0, clock.now())
            .unwrap();
        assert_eq!(refreshes.len(), 1);
        for (cache_id, r) in refreshes {
            assert_eq!(cache_id, CacheId::new(1));
            cache.install_refresh(r).unwrap();
        }
        assert_eq!(cache.stats().value_initiated, 1);
        cache.materialize().unwrap();
        let t = cache.session().catalog().table("sensors").unwrap();
        let iv = t.interval(TupleId::new(1), 1).unwrap();
        assert!(iv.contains(50.0));
        assert!(iv.is_point()); // refreshed at the current instant
    }

    #[test]
    fn binding_validates_cells() {
        let (_c, mut cache, _t) = setup();
        // Column 0 is exact.
        assert!(cache
            .bind_object(
                ObjectId::new(9),
                SourceId::new(1),
                "sensors",
                TupleId::new(1),
                0
            )
            .is_err());
        // Unknown tuple.
        assert!(cache
            .bind_object(
                ObjectId::new(9),
                SourceId::new(1),
                "sensors",
                TupleId::new(99),
                1
            )
            .is_err());
        // Unknown table.
        assert!(cache
            .bind_object(
                ObjectId::new(9),
                SourceId::new(1),
                "nope",
                TupleId::new(1),
                1
            )
            .is_err());
    }

    /// A clock advance rewrites exactly the cells that are bound *now*:
    /// rebinding an object hands it the new cell and releases the old one.
    #[test]
    fn rebinding_moves_the_cell_an_advance_rewrites() {
        let (clock, mut cache, _t) = setup();
        let (t1, t2) = (TupleId::new(1), TupleId::new(2));
        cache
            .bind_object(ObjectId::new(1), SourceId::new(1), "sensors", t2, 1)
            .unwrap();
        clock.advance(4.0);
        cache.materialize().unwrap();
        let t = cache.session().catalog().table("sensors").unwrap();
        // Object 1 (value 20, ±2 after 4 s) now widens t2; t1 keeps the
        // point its last install left.
        assert_eq!(
            t.interval(t2, 1).unwrap(),
            Interval::new(18.0, 22.0).unwrap()
        );
        assert!(t.interval(t1, 1).unwrap().is_point());
        assert!(cache.objects_backing("sensors", t1).is_err());
    }

    #[test]
    fn refreshes_for_unbound_objects_fail() {
        let (_c, mut cache, _t) = setup();
        let r = Refresh {
            object: ObjectId::new(42),
            value: 1.0,
            bound: BoundFunction::exact(1.0, 0.0).unwrap(),
            kind: RefreshKind::ValueInitiated,
            seq: 0,
        };
        assert!(cache.install_refresh(r).is_err());
    }

    /// A refresh that cannot land does not cost the batch the ones after
    /// it: they are installed, and the error is still reported.
    #[test]
    fn a_refused_refresh_mid_batch_installs_the_rest() {
        let (clock, mut cache, _t) = setup();
        clock.advance(1.0);
        let now = clock.now();
        let kind = RefreshKind::QueryInitiated;
        let batch = [
            refresh(ObjectId::new(1), 31.0, now, kind, 1),
            refresh(ObjectId::new(42), 1.0, now, kind, 1),
            refresh(ObjectId::new(2), 32.0, now, kind, 1),
        ];
        let err = cache.install_refreshes(batch).unwrap_err();
        assert!(err.to_string().contains("not bound here"), "{err}");
        assert_eq!(cache.stats().query_initiated, 2);
        let t = cache.session().catalog().table("sensors").unwrap();
        for (tid, value) in [(1, 31.0), (2, 32.0)] {
            let iv = t.interval(TupleId::new(tid), 1).unwrap();
            assert_eq!((iv.lo(), iv.hi()), (value, value));
        }
    }

    /// Installs are ordered by [`Refresh::seq`]: a refresh that arrives
    /// after a newer one for the same object (a fetch racing an update)
    /// must not regress the cache behind the monitor's tracked bound.
    #[test]
    fn stale_refresh_installs_are_skipped() {
        let (clock, mut cache, transport) = setup();
        clock.advance(1.0);
        let src = transport.source(SourceId::new(1)).unwrap();

        // A query refresh is served first (seq k)…
        let older = src
            .lock()
            .serve_refresh(CacheId::new(1), ObjectId::new(1), 1.0)
            .unwrap();
        // …then an escaping update issues a newer bound (seq k+1), which
        // reaches the cache *before* the query refresh does.
        let newer = src
            .lock()
            .apply_update(ObjectId::new(1), 500.0, 1.0)
            .unwrap()
            .remove(0)
            .1;
        assert!(newer.seq > older.seq);
        cache.install_refresh(newer).unwrap();
        cache.install_refresh(older).unwrap(); // late arrival: skipped

        assert_eq!(cache.stats().stale_skipped, 1);
        cache.materialize().unwrap();
        let t = cache.session().catalog().table("sensors").unwrap();
        let iv = t.interval(TupleId::new(1), 1).unwrap();
        assert!(
            iv.contains(500.0),
            "stale install must not evict the newer bound: {iv}"
        );

        // Same-seq duplicates (coalesced installs) remain idempotent.
        cache.install_refresh(newer).unwrap();
        assert_eq!(cache.stats().stale_skipped, 1);
    }

    /// `metrics(grp, load)` with a value index on `grp` — what lets a
    /// `grp = k` plan read only its group — and the bounded-column
    /// indexes, whose walks read every row.
    fn metrics_cache(id: u64, clock: &SimClock) -> CacheNode {
        let schema = Schema::new(vec![
            ColumnDef::exact("grp", ValueType::Int),
            ColumnDef::bounded_float("load"),
        ])
        .unwrap();
        let mut table = Table::new("metrics", schema);
        table.create_default_indexes().unwrap();
        table
            .create_index(trapp_storage::IndexKey::Lo { column: 0 })
            .unwrap();
        let mut cache = CacheNode::new(CacheId::new(id), clock.clone());
        cache.add_table(table).unwrap();
        cache
    }

    fn refresh(object: ObjectId, value: f64, at: f64, kind: RefreshKind, seq: u64) -> Refresh {
        let bound = BoundFunction::new(value, 1.0, at, BoundShape::Sqrt).unwrap();
        Refresh {
            object,
            value,
            bound,
            kind,
            seq,
        }
    }

    /// Inserts a `grp` row whose `load` is backed by `object`, subscribed
    /// at `value`.
    fn add_row(cache: &mut CacheNode, grp: i64, object: ObjectId, value: f64) -> TupleId {
        let cells = vec![
            BoundedValue::Exact(Value::Int(grp)),
            BoundedValue::exact_f64(value).unwrap(),
        ];
        let table = cache.session_mut().catalog_mut().table_mut("metrics");
        let tid = table.unwrap().insert(cells).unwrap();
        cache
            .bind_object(object, SourceId::new(1), "metrics", tid, 1)
            .unwrap();
        let now = cache.clock.now();
        let kind = RefreshKind::Subscription;
        cache
            .install_refresh(refresh(object, value, now, kind, 0))
            .unwrap();
        tid
    }

    fn load_bits(cache: &CacheNode, tid: TupleId) -> (u64, u64) {
        let table = cache.session().catalog().table("metrics").unwrap();
        let iv = table.interval(tid, 1).unwrap();
        (iv.lo().to_bits(), iv.hi().to_bits())
    }

    fn parse(sql: &str) -> trapp_sql::Query {
        trapp_sql::parse_query(sql).unwrap()
    }

    /// A cell rebound to an object that has no bound yet keeps widening
    /// with the bound of the object bound there before, in a pinned plan's
    /// pass exactly as in the full pass — a pass that consulted only each
    /// cell's newest object would leave the cell at its last, narrower
    /// interval.
    #[test]
    fn rebound_cell_widens_alike_in_pinned_and_full_passes() {
        let clock = SimClock::new();
        let [mut pinned, mut full] = [1, 2].map(|id| {
            let mut cache = metrics_cache(id, &clock);
            for (i, grp) in [0, 0, 1].into_iter().enumerate() {
                add_row(
                    &mut cache,
                    grp,
                    ObjectId::new(i as u64 + 1),
                    50.0 + i as f64,
                );
            }
            cache
        });
        let tid = TupleId::new(1);
        for cache in [&mut pinned, &mut full] {
            cache
                .bind_object(ObjectId::new(9), SourceId::new(1), "metrics", tid, 1)
                .unwrap();
        }
        clock.advance(4.0);
        let q = parse("SELECT SUM(load) WITHIN 100 FROM metrics WHERE grp = 0");
        pinned
            .plan_query_excluding(&q, &Exclusions::default())
            .unwrap();
        full.materialize().unwrap();
        assert_eq!(load_bits(&pinned, tid), load_bits(&full, tid));
        // Object 1's bound, 4 s on: 50 ± 1·√4.
        let (lo, hi) = load_bits(&full, tid);
        assert_eq!((f64::from_bits(lo), f64::from_bits(hi)), (48.0, 52.0));
        let backing = pinned.objects_backing("metrics", tid).unwrap();
        assert_eq!(backing, vec![(ObjectId::new(9), SourceId::new(1))]);
        assert_eq!(pinned.stats().cells_materialized, 3 + 1 + 2);
    }

    /// One step of the interleaving both twins take.
    #[derive(Clone, Debug)]
    enum Op {
        /// Advance the shared clock.
        Advance(f64),
        /// Install a query-initiated refresh of the k-th live row.
        Fetch(usize),
        /// Move the k-th live row's master and install the value-initiated
        /// refresh.
        Update(usize, f64),
        /// Deliver a refresh of the k-th live row with sequence 0: skipped
        /// once a newer one landed.
        Stale(usize),
        /// Move the k-th live row to group `g` (an exact-cell write).
        Regroup(usize, i64),
        /// Insert a row into group `g`, bound and subscribed.
        Insert(i64, f64),
        /// Delete the k-th live row from the table.
        Delete(usize),
        /// Bind a fresh object, not yet subscribed, to the k-th live row.
        Rebind(usize),
        /// Plan query shape `q` pinned to group `g`, then fetch and install
        /// what the plan asks for and plan again.
        Query(usize, i64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0.25f64..4.0).prop_map(Op::Advance),
            (0usize..64).prop_map(Op::Fetch),
            (0usize..64, -3.0f64..3.0).prop_map(|(k, d)| Op::Update(k, d)),
            (0usize..64).prop_map(Op::Stale),
            (0usize..64, 0i64..4).prop_map(|(k, g)| Op::Regroup(k, g)),
            (0i64..4, 40.0f64..60.0).prop_map(|(g, v)| Op::Insert(g, v)),
            (0usize..64).prop_map(Op::Delete),
            (0usize..64).prop_map(Op::Rebind),
            (0usize..5, 0i64..4).prop_map(|(q, g)| Op::Query(q, g)),
            (0usize..5, 0i64..4).prop_map(|(q, g)| Op::Query(q, g)),
        ]
    }

    /// Pinned (two aggregates), global (an index walk and a scan) and
    /// grouped shapes.
    fn shape(q: usize, g: i64) -> trapp_sql::Query {
        parse(&match q {
            0 => format!("SELECT SUM(load) WITHIN 2 FROM metrics WHERE grp = {g}"),
            1 => format!("SELECT COUNT(*) WITHIN 0 FROM metrics WHERE grp = {g} AND load > 50"),
            2 => "SELECT MIN(load) WITHIN 1 FROM metrics".to_owned(),
            3 => "SELECT SUM(load) WITHIN 6 FROM metrics".to_owned(),
            _ => "SELECT AVG(load) WITHIN 2 FROM metrics GROUP BY grp".to_owned(),
        })
    }

    /// Two caches over the same rows and one clock: `demand` plans through
    /// [`CacheNode::plan_query_excluding`], `full` materializes every row
    /// before each plan.
    struct Twins {
        clock: SimClock,
        demand: CacheNode,
        full: CacheNode,
        /// Master value and last issued sequence per object.
        masters: HashMap<ObjectId, (f64, u64)>,
        next_object: u64,
    }

    impl Twins {
        fn new(rows: usize) -> Twins {
            let clock = SimClock::new();
            let mut twins = Twins {
                demand: metrics_cache(1, &clock),
                full: metrics_cache(2, &clock),
                clock,
                masters: HashMap::new(),
                next_object: 1,
            };
            for i in 0..rows {
                twins.insert(i as i64 % 4, 45.0 + i as f64);
            }
            twins
        }

        fn both(&mut self, mut f: impl FnMut(&mut CacheNode)) {
            f(&mut self.demand);
            f(&mut self.full);
        }

        fn insert(&mut self, grp: i64, value: f64) {
            let object = ObjectId::new(self.next_object);
            self.next_object += 1;
            self.masters.insert(object, (value, 0));
            self.both(|c| {
                add_row(c, grp, object, value);
            });
        }

        fn live(&self, k: usize) -> Option<TupleId> {
            let table = self.demand.session().catalog().table("metrics").unwrap();
            let ids: Vec<TupleId> = table.tuple_ids().collect();
            (!ids.is_empty()).then(|| ids[k % ids.len()])
        }

        /// Installs a refresh of `tid`'s newest object at its master, with
        /// `seq` (or the next sequence).
        fn install(&mut self, tid: TupleId, kind: RefreshKind, seq: Option<u64>) {
            let (object, _) = self.demand.objects_backing("metrics", tid).unwrap()[0];
            let master = self.masters.get_mut(&object).unwrap();
            let seq = seq.unwrap_or_else(|| {
                master.1 += 1;
                master.1
            });
            let r = refresh(object, master.0, self.clock.now(), kind, seq);
            self.both(|c| c.install_refresh(r).unwrap());
        }

        fn apply(&mut self, op: &Op) -> Result<(), String> {
            match *op {
                Op::Advance(dt) => self.clock.advance(dt),
                Op::Fetch(k) => {
                    if let Some(tid) = self.live(k) {
                        self.install(tid, RefreshKind::QueryInitiated, None);
                    }
                }
                Op::Update(k, delta) => {
                    if let Some(tid) = self.live(k) {
                        let (object, _) = self.demand.objects_backing("metrics", tid).unwrap()[0];
                        self.masters.get_mut(&object).unwrap().0 += delta;
                        self.install(tid, RefreshKind::ValueInitiated, None);
                    }
                }
                Op::Stale(k) => {
                    if let Some(tid) = self.live(k) {
                        self.install(tid, RefreshKind::QueryInitiated, Some(0));
                    }
                }
                Op::Regroup(k, g) => {
                    if let Some(tid) = self.live(k) {
                        self.both(|c| {
                            let table = c.session_mut().catalog_mut().table_mut("metrics");
                            let cell = BoundedValue::Exact(Value::Int(g));
                            table.unwrap().update_cell(tid, 0, cell).unwrap();
                        });
                    }
                }
                Op::Insert(g, v) => self.insert(g, v),
                Op::Delete(k) => {
                    if let Some(tid) = self.live(k) {
                        self.both(|c| {
                            let table = c.session_mut().catalog_mut().table_mut("metrics");
                            table.unwrap().delete(tid).unwrap();
                        });
                    }
                }
                Op::Rebind(k) => {
                    if let Some(tid) = self.live(k) {
                        let object = ObjectId::new(self.next_object);
                        self.next_object += 1;
                        self.masters.insert(object, (55.0, 0));
                        self.both(|c| {
                            c.bind_object(object, SourceId::new(1), "metrics", tid, 1)
                                .unwrap();
                        });
                    }
                }
                Op::Query(q, g) => {
                    let fetched = self.plan_both(&shape(q, g))?;
                    for tid in fetched {
                        self.install(tid, RefreshKind::QueryInitiated, None);
                    }
                    self.plan_both(&shape(q, g))?;
                }
            }
            Ok(())
        }

        /// Plans `q` on both twins, requires the plans equal, and returns
        /// the tuples the plan fetches.
        fn plan_both(&mut self, q: &trapp_sql::Query) -> Result<Vec<TupleId>, String> {
            let none = Exclusions::default();
            let (_, demand) = self.demand.plan_query_excluding(q, &none).unwrap();
            self.full.materialize().unwrap();
            let full = self.full.session().plan_query_excluding(q, &none).unwrap();
            prop_assert_eq!(
                format!("{demand:?}"),
                format!("{full:?}"),
                "plans for {:?}",
                q
            );
            let QueryPlan::NeedsFetch(fetch) = demand else {
                return Ok(Vec::new());
            };
            Ok(fetch
                .units
                .iter()
                .filter_map(|u| u.fetch.as_ref())
                .flat_map(|f| f.tuples.iter().copied())
                .collect())
        }

        /// Plans the pinned shape on group `g` on both twins, and requires
        /// every row that plan can read to hold bit-identical bounds.
        fn check_pinned(&mut self, g: i64) -> Result<(), String> {
            let q = shape(0, g);
            self.plan_both(&q)?;
            let catalog = self.demand.session().catalog();
            let bound = bind_query(&q, catalog).unwrap();
            let table = catalog.table("metrics").unwrap();
            let rows = pinned_rows(table, bound.predicate.as_ref(), &[]).unwrap();
            for tid in rows {
                let (a, b) = (load_bits(&self.demand, tid), load_bits(&self.full, tid));
                prop_assert_eq!(a, b, "load of {} in group {}", tid, g);
            }
            Ok(())
        }
    }

    /// A cache over two tables, `metrics` and `spare`, of `rows` rows
    /// each, every `load` backed by its own subscribed object: `metrics`
    /// holds objects `1..=rows`, `spare` the next `rows`.
    fn two_table_cache(rows: usize, clock: &SimClock) -> CacheNode {
        let mut cache = metrics_cache(1, clock);
        let spare = cache.session().catalog().table("metrics").unwrap();
        let spare = Table::new("spare", spare.schema().clone());
        cache.add_table(spare).unwrap();
        let mut object = 1;
        for name in ["metrics", "spare"] {
            for i in 0..rows {
                let value = 40.0 + i as f64;
                let cells = vec![
                    BoundedValue::Exact(Value::Int(i as i64 % 3)),
                    BoundedValue::exact_f64(value).unwrap(),
                ];
                let table = cache.session_mut().catalog_mut().table_mut(name);
                let tid = table.unwrap().insert(cells).unwrap();
                let id = ObjectId::new(object);
                object += 1;
                cache
                    .bind_object(id, SourceId::new(1), name, tid, 1)
                    .unwrap();
                let subscription = refresh(id, value, 0.0, RefreshKind::Subscription, 0);
                cache.install_refresh(subscription).unwrap();
            }
        }
        cache
    }

    /// What an install can change: every table's version, the change log
    /// since `since`, and every cell's bits.
    #[allow(clippy::type_complexity)]
    fn install_image(
        cache: &CacheNode,
        since: &[u64],
    ) -> Vec<(u64, Vec<(u64, TupleId)>, Vec<(u64, u64)>)> {
        ["metrics", "spare"]
            .iter()
            .zip(since)
            .map(|(name, &since)| {
                let table = cache.session().catalog().table(name).unwrap();
                let cells = table
                    .tuple_ids()
                    .map(|tid| {
                        let iv = table.interval(tid, 1).unwrap();
                        (iv.lo().to_bits(), iv.hi().to_bits())
                    })
                    .collect();
                let log = table.changes_since(since).unwrap().to_vec();
                (table.version(), log, cells)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One batched install lands exactly what installing its refreshes
        /// one at a time does — cells, table versions and change logs,
        /// counters (stale skips included) and the first error — over
        /// duplicate objects, out-of-order sequences, two tables, every
        /// refresh kind and an object bound nowhere.
        #[test]
        fn batched_installs_match_one_at_a_time(
            rows in 1usize..6,
            advance in 0.0f64..4.0,
            batch in proptest::collection::vec(
                (0usize..13, 0usize..4, 0u64..4, 30.0f64..60.0, 0.0f64..1.0), 0..40),
        ) {
            let clock = SimClock::new();
            let [mut single, mut batched] = [(), ()].map(|_| two_table_cache(rows, &clock));
            clock.advance(advance);
            let kinds = [
                RefreshKind::ValueInitiated,
                RefreshKind::QueryInitiated,
                RefreshKind::Subscription,
                RefreshKind::PreRefresh,
            ];
            // Object `2 * rows + 1` (and past it) is bound nowhere.
            let refreshes: Vec<Refresh> = batch
                .iter()
                .map(|&(object, kind, seq, value, at)| {
                    let object = ObjectId::new((object % (2 * rows + 2)) as u64 + 1);
                    refresh(object, value, advance * at, kinds[kind], seq)
                })
                .collect();
            let since: Vec<u64> = ["metrics", "spare"]
                .iter()
                .map(|name| single.session().catalog().table(name).unwrap().version())
                .collect();
            let mut first_error = None;
            for &r in &refreshes {
                if let Err(e) = single.install_refresh(r) {
                    first_error.get_or_insert(e);
                }
            }
            let batch_error = batched.install_refreshes(refreshes).err();
            prop_assert_eq!(batch_error, first_error);
            prop_assert_eq!(batched.stats(), single.stats());
            prop_assert_eq!(install_image(&batched, &since), install_image(&single, &since));
            // Both still bring the same rows current afterwards.
            clock.advance(1.0);
            single.materialize().unwrap();
            batched.materialize().unwrap();
            prop_assert_eq!(install_image(&batched, &since), install_image(&single, &since));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A cache that brings current only the rows each pinned plan can
        /// read plans exactly like one that materializes every row before
        /// every plan, under any interleaving of clock advances, installs
        /// of every kind, regroups, inserts, deletes and rebindings.
        #[test]
        fn demand_materialization_matches_full_passes(
            rows in 1usize..24,
            ops in proptest::collection::vec(op_strategy(), 1..60),
        ) {
            let mut twins = Twins::new(rows);
            for (i, op) in ops.iter().enumerate() {
                twins.apply(op)?;
                twins.check_pinned(i as i64 % 4)?;
            }
        }
    }
}
