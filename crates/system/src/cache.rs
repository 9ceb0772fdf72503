//! Data caches: bounded tables + the query processor (§3, Figure 3).
//!
//! A [`CacheNode`] owns a `trapp-core` [`QuerySession`] whose tables hold
//! the *materialized* bounds. Each bounded cell is backed by one replicated
//! object with a time-varying [`BoundFunction`]; before a query runs, the
//! cache evaluates every bound function at the current time and writes the
//! resulting intervals into the table (§3.2: "we assume that any
//! time-varying bound functions have been evaluated at the current time
//! `T_c`").
//!
//! Query-initiated refreshes flow through an internal transport-backed
//! oracle (`SystemOracle`), which routes
//! each `(table, tuple, column)` request to the owning source via the
//! transport, hands the exact value to the executor, and records the new
//! bound function for installation after the query completes.

use std::collections::{BTreeMap, HashMap};

use trapp_bounds::BoundFunction;
use trapp_core::executor::{QueryResult, QuerySession, RefreshOracle};
use trapp_types::{BoundedValue, CacheId, ObjectId, SourceId, TrappError, TupleId};

use crate::clock::SimClock;
use crate::message::{Refresh, RefreshKind};
use crate::stats::CacheStats;
use crate::transport::Transport;

/// Identifies one bounded cell of one cached table.
pub type CellKey = (String, TupleId, usize);

/// table → `(tuple, column)` → backing object, ordered: the reverse of
/// [`ObjectRoute::cell`], and the order a clock advance rewrites cells in.
type CellIndex = BTreeMap<String, BTreeMap<(TupleId, usize), ObjectId>>;

/// Where a replicated object lives and which cell it backs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectRoute {
    /// The owning source.
    pub source: SourceId,
    /// The backed cell.
    pub cell: CellKey,
}

/// A TRAPP data cache.
pub struct CacheNode {
    id: CacheId,
    session: QuerySession,
    clock: SimClock,
    /// object → route (source + cell).
    routes: HashMap<ObjectId, ObjectRoute>,
    /// cell → the object bound to it last, fixed at bind time: the one a
    /// refresh of the cell fetches.
    by_cell: CellIndex,
    /// Objects whose cell was since bound to another object. They keep
    /// their route, so their installs and bounds still land in the cell.
    shadowed: Vec<ObjectId>,
    /// Current bound function per object.
    bounds: HashMap<ObjectId, BoundFunction>,
    /// Sequence of the last installed refresh per object (see
    /// [`Refresh::seq`]); installs arriving out of order are skipped.
    installed_seq: HashMap<ObjectId, u64>,
    /// The instant of the last full materialization, if any.
    materialized_at: Option<f64>,
    /// Objects whose bound changed since the last materialization. While
    /// the clock stands still, re-materializing only has to re-evaluate
    /// these — the incremental path that keeps repeat plan passes O(Δ)
    /// instead of O(objects).
    dirty_bounds: std::collections::HashSet<ObjectId>,
    stats: CacheStats,
}

impl CacheNode {
    /// Creates a cache over an empty catalog.
    pub fn new(id: CacheId, clock: SimClock) -> CacheNode {
        CacheNode {
            id,
            session: QuerySession::with_catalog(trapp_storage::Catalog::new()),
            clock,
            routes: HashMap::new(),
            by_cell: CellIndex::new(),
            shadowed: Vec::new(),
            bounds: HashMap::new(),
            installed_seq: HashMap::new(),
            materialized_at: None,
            dirty_bounds: std::collections::HashSet::new(),
            stats: CacheStats::default(),
        }
    }

    /// This cache's id.
    pub fn id(&self) -> CacheId {
        self.id
    }

    /// Where `object` lives and which cell it backs, if bound here.
    pub fn route(&self, object: ObjectId) -> Option<&ObjectRoute> {
        self.routes.get(&object)
    }

    /// Iterates all bound objects with their routes.
    pub fn objects(&self) -> impl Iterator<Item = (ObjectId, &ObjectRoute)> {
        self.routes.iter().map(|(&o, r)| (o, r))
    }

    /// The replicated objects backing `tid`'s bounded cells, with their
    /// owning sources — what a refresh of the tuple must fetch.
    pub fn objects_backing(
        &self,
        table: &str,
        tuple: TupleId,
    ) -> Result<Vec<(ObjectId, SourceId)>, TrappError> {
        let columns = self
            .session
            .catalog()
            .table(table)?
            .schema()
            .bounded_columns();
        columns
            .into_iter()
            .map(|col| object_at(&self.by_cell, &self.routes, table, tuple, col))
            .collect()
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
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
    pub fn add_table(&mut self, table: trapp_storage::Table) -> Result<(), TrappError> {
        self.session.catalog_mut().add_table(table)
    }

    /// Binds `object` (owned by `source`) to a bounded cell. The cell's
    /// bound stays unknown until a subscription refresh is installed.
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
        let name = cell.0.clone();
        if let Some(old) = self.routes.insert(object, ObjectRoute { source, cell }) {
            // Rebound: the cell it used to back is no longer its to write.
            let old_cell = (old.cell.1, old.cell.2);
            if let Some(cells) = self.by_cell.get_mut(&old.cell.0) {
                if cells.get(&old_cell) == Some(&object) {
                    cells.remove(&old_cell);
                }
            }
        }
        let cells = self.by_cell.entry(name).or_default();
        if let Some(previous) = cells.insert((tuple, column), object) {
            if previous != object {
                self.shadowed.push(previous);
            }
        }
        Ok(())
    }

    /// Installs a refresh (any kind): records the bound function and pins
    /// the cell to the refreshed exact value (the bound at `T_r` is the
    /// point `V(T_r)`; it widens again at the next materialization).
    ///
    /// Installs are *ordered*: a refresh whose [`Refresh::seq`] is behind
    /// one already installed for the object is stale — a newer bound from
    /// the source has already landed, e.g. a value-initiated refresh that
    /// raced a concurrently fetched query refresh — and is skipped, so the
    /// cache can never regress behind the Refresh Monitor's tracked bound.
    pub fn install_refresh(&mut self, refresh: Refresh) -> Result<(), TrappError> {
        let route = self.routes.get(&refresh.object).ok_or_else(|| {
            TrappError::RefreshFailed(format!("{} is not bound here", refresh.object))
        })?;
        if self
            .installed_seq
            .get(&refresh.object)
            .is_some_and(|&last| refresh.seq < last)
        {
            self.stats.stale_skipped += 1;
            return Ok(());
        }
        self.installed_seq.insert(refresh.object, refresh.seq);
        let (table, tuple, column) = &route.cell;
        self.bounds.insert(refresh.object, refresh.bound);
        self.dirty_bounds.insert(refresh.object);
        self.session.catalog_mut().table_mut(table)?.refresh_cell(
            *tuple,
            *column,
            refresh.value,
        )?;
        match refresh.kind {
            RefreshKind::ValueInitiated => self.stats.value_initiated += 1,
            RefreshKind::QueryInitiated => self.stats.query_initiated += 1,
            RefreshKind::Subscription => self.stats.subscriptions += 1,
            RefreshKind::PreRefresh => self.stats.pre_refreshes += 1,
        }
        Ok(())
    }

    /// Evaluates bound functions at the current time and writes the
    /// intervals into the cached tables.
    ///
    /// Incremental: while the clock stands still only the bounds that
    /// changed since the last call (new installs) are re-evaluated, so a
    /// query's second plan pass — and every further query in the same
    /// instant — pays O(changed) instead of O(objects). A clock advance
    /// re-evaluates everything (every bound re-widened) in one pass per
    /// table, in `(tuple, column)` order: one catalog lookup per table,
    /// and the table's rows and change log are written front to back. The
    /// written intervals are identical either way; `Table::update_cell`
    /// skips no-op writes, so unchanged cells also leave table versions
    /// (and thus memoized band views) untouched.
    pub fn materialize(&mut self) -> Result<(), TrappError> {
        let now = self.clock.now();
        if self.materialized_at == Some(now) {
            if self.dirty_bounds.is_empty() {
                return Ok(());
            }
            // Remove each object only after its cell is written, so a
            // failure leaves it (and everything not yet reached) dirty
            // for the next call instead of silently skipped.
            let dirty: Vec<ObjectId> = self.dirty_bounds.iter().copied().collect();
            for object in dirty {
                self.materialize_object(object, now)?;
                self.dirty_bounds.remove(&object);
            }
            return Ok(());
        }
        for object in self.shadowed.clone() {
            if self.bounds.contains_key(&object) {
                self.materialize_object(object, now)?;
            }
        }
        for (name, cells) in &self.by_cell {
            let table = self.session.catalog_mut().table_mut(name)?;
            for (&(tuple, column), object) in cells {
                // Bound but not yet subscribed: nothing to evaluate.
                let Some(bound) = self.bounds.get(object) else {
                    continue;
                };
                table.update_cell(tuple, column, BoundedValue::Bounded(bound.interval_at(now)))?;
            }
        }
        self.dirty_bounds.clear();
        self.materialized_at = Some(now);
        Ok(())
    }

    /// Writes one object's bound interval at `now` into its cell.
    fn materialize_object(&mut self, object: ObjectId, now: f64) -> Result<(), TrappError> {
        let bound = self
            .bounds
            .get(&object)
            .ok_or_else(|| TrappError::Internal(format!("{object} marked dirty without bound")))?;
        let route = self
            .routes
            .get(&object)
            .ok_or_else(|| TrappError::Internal(format!("{object} has bound but no route")))?;
        let (table, tuple, column) = &route.cell;
        let iv = bound.interval_at(now);
        self.session.catalog_mut().table_mut(table)?.update_cell(
            *tuple,
            *column,
            BoundedValue::Bounded(iv),
        )
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
    /// returning one result per group in key-sorted order. Used as the
    /// locked fallback for grouped queries in iterative execution mode
    /// (batch mode plans grouped queries ahead via
    /// [`trapp_core::query_plan`] instead).
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
    /// transport-backed oracle, and installs the bound functions of every
    /// refresh that arrived — even on error paths (the exact values are
    /// already in the table; the bound functions must follow or the next
    /// materialization would resurrect stale bounds). Sequence-stale
    /// refreshes are skipped like in [`CacheNode::install_refresh`].
    fn with_oracle<R>(
        &mut self,
        transport: &dyn Transport,
        f: impl FnOnce(&mut QuerySession, &mut SystemOracle) -> Result<R, TrappError>,
    ) -> Result<R, TrappError> {
        self.materialize()?;
        let mut oracle = SystemOracle {
            cache: self.id,
            now: self.clock.now(),
            by_cell: &self.by_cell,
            routes: &self.routes,
            transport,
            received: Vec::new(),
        };
        let result = f(&mut self.session, &mut oracle);
        let received = oracle.received;
        for refresh in received {
            if self
                .installed_seq
                .get(&refresh.object)
                .is_some_and(|&last| refresh.seq < last)
            {
                self.stats.stale_skipped += 1;
                continue;
            }
            self.installed_seq.insert(refresh.object, refresh.seq);
            self.bounds.insert(refresh.object, refresh.bound);
            self.dirty_bounds.insert(refresh.object);
            self.stats.query_initiated += 1;
        }
        result
    }
}

/// The transport-backed [`RefreshOracle`].
struct SystemOracle<'a> {
    cache: CacheId,
    now: f64,
    by_cell: &'a CellIndex,
    routes: &'a HashMap<ObjectId, ObjectRoute>,
    transport: &'a dyn Transport,
    received: Vec<Refresh>,
}

/// The object backing `table[tid].column`, with its owning source.
fn object_at(
    by_cell: &CellIndex,
    routes: &HashMap<ObjectId, ObjectRoute>,
    table: &str,
    tid: TupleId,
    column: usize,
) -> Result<(ObjectId, SourceId), TrappError> {
    let object = by_cell
        .get(table)
        .and_then(|cells| cells.get(&(tid, column)))
        .ok_or_else(|| {
            TrappError::RefreshFailed(format!(
                "no replicated object backs {table}[{tid}].{column}"
            ))
        })?;
    Ok((*object, routes[object].source))
}

impl RefreshOracle for SystemOracle<'_> {
    /// A one-tuple refresh is a one-tuple plan.
    fn refresh(
        &mut self,
        table: &str,
        tid: TupleId,
        columns: &[usize],
    ) -> Result<Vec<f64>, TrappError> {
        let mut rows = self.refresh_batch(table, &[tid], columns)?;
        Ok(rows.swap_remove(0))
    }

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
                let (object, source) = object_at(self.by_cell, self.routes, table, tid, column)?;
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
    use trapp_bounds::BoundShape;
    use trapp_storage::{ColumnDef, Schema, Table};
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
}
