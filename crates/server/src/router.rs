//! The shard router: partition metadata and per-shard state for a
//! multi-cache query service.
//!
//! A sharded [`QueryService`](crate::QueryService) owns N [`Shard`]s, each
//! a fully independent TRAPP stack — its own [`CacheNode`], its own
//! single-flight [`RefreshGateway`], its own transport with its own source
//! actors — so shards never contend on locks or in-flight tables. Rows are
//! placed at build time by hashing the *partition column* (an exact
//! integer group key) with [`trapp_types::shard_of`]; rows of tables
//! without the column (or with non-integer keys) fall back to hashing
//! their global tuple id, which spreads them evenly but makes their
//! queries scatter-gather.
//!
//! The router answers three questions:
//!
//! * [`route`](ShardRouter::route) — which shard(s) must a parsed query
//!   touch? A query whose predicate pins the partition column to one group
//!   (`… WHERE grp = 7 AND …`) of a fully group-placed table runs on that
//!   group's shard alone; everything else scatters.
//! * `locate` — where does a global tuple id live? (Used to split a
//!   globally planned CHOOSE_REFRESH across shards.)
//! * `object_shard` — which shard's cache is subscribed to a replicated
//!   object? (Used to deliver updates.)
//!
//! Tuple ids are *global* at the service boundary and *local* inside each
//! shard; the maps here translate both directions. Global ids equal the
//! ids a single cache ingesting the same rows would have assigned, which
//! is what makes scatter-gathered answers bit-equivalent to single-cache
//! answers (see [`trapp_core::merge`]). Both spaces count `1..=n` per
//! table, so each map is one dense array per table (`TidMap`) and a
//! translation is an array index.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use trapp_expr::{BinaryOp, ColumnRef, Expr};
use trapp_sql::Query;
use trapp_storage::{Catalog, Table};
use trapp_system::{CacheNode, Transport};
use trapp_types::{shard_of, CacheId, ObjectId, TrappError, TupleId, Value};

use crate::gateway::{RefreshGateway, RetryPolicy};
use crate::health::{HealthConfig, HealthTracker};
use crate::snapshots::AnswerSnapshots;

/// A tuple-id translation: per table, one dense array whose entry `i`
/// translates the table's id `i + 1`. Ids count `1..=n` per table on both
/// sides of the translation (`ServiceBuilder::wire` inserts every row into
/// tables that start empty), so the array has no holes.
pub(crate) struct TidMap<V> {
    by_table: HashMap<String, Vec<V>>,
}

impl<V> Default for TidMap<V> {
    fn default() -> TidMap<V> {
        TidMap {
            by_table: HashMap::new(),
        }
    }
}

impl<V: Copy> TidMap<V> {
    /// Records the translation of `table`'s id `tid`, which must be the
    /// table's next id.
    pub(crate) fn push(&mut self, table: &str, tid: TupleId, to: V) -> Result<(), TrappError> {
        let ids = self.by_table.entry(table.to_owned()).or_default();
        if tid.raw() != ids.len() as u64 + 1 {
            return Err(TrappError::Internal(format!(
                "{table} tuple {tid} is not the next dense id (tables must start empty)"
            )));
        }
        ids.push(to);
        Ok(())
    }

    /// `table`'s translations, resolved once for a run of its ids.
    pub(crate) fn table(&self, table: &str) -> TidRun<'_, V> {
        TidRun(self.by_table.get(table).map_or(&[], Vec::as_slice))
    }

    /// A translator for a stream of `(table, id)` pairs: it resolves a
    /// table again only when the table changes.
    pub(crate) fn runs(&self) -> TidRuns<'_, V> {
        TidRuns {
            map: self,
            table: "",
            run: TidRun(&[]),
        }
    }
}

/// One table's translations ([`TidMap::table`]).
#[derive(Clone, Copy)]
pub(crate) struct TidRun<'m, V>(&'m [V]);

impl<V: Copy> TidRun<'_, V> {
    /// The translation of `tid`, if the table holds it.
    pub(crate) fn get(self, tid: TupleId) -> Option<V> {
        let slot = usize::try_from(tid.raw().checked_sub(1)?).ok()?;
        self.0.get(slot).copied()
    }
}

/// A [`TidMap`] read by runs of one table ([`TidMap::runs`]).
pub(crate) struct TidRuns<'m, V> {
    map: &'m TidMap<V>,
    table: &'m str,
    run: TidRun<'m, V>,
}

impl<'m, V: Copy> TidRuns<'m, V> {
    /// The translation of `table`'s id `tid`, if the table holds it.
    pub(crate) fn get(&mut self, table: &str, tid: TupleId) -> Option<V> {
        if self.table != table {
            let (name, ids) = self
                .map
                .by_table
                .get_key_value(table)
                .map_or(("", &[][..]), |(k, v)| (k.as_str(), v.as_slice()));
            self.table = name;
            self.run = TidRun(ids);
        }
        self.run.get(tid)
    }
}

/// One shard of the service: an independent cache + gateway + transport
/// stack plus its local→global tuple-id map.
pub struct Shard {
    pub(crate) cache: Mutex<CacheNode>,
    /// Answers published from `cache`, read with no lock on it.
    pub(crate) snapshots: AnswerSnapshots,
    pub(crate) cache_id: CacheId,
    pub(crate) gateway: RefreshGateway<Box<dyn Transport>>,
    /// This shard's per-source circuit breakers (shared with the gateway,
    /// which records round-trip outcomes into it).
    pub(crate) health: Arc<HealthTracker>,
    /// table → (local tid → global tid).
    pub(crate) to_global: TidMap<TupleId>,
    /// The cache session's `view_tuples_classified` as of the last plan
    /// on this shard, mirrored so `stats()` reads it without the cache
    /// lock.
    pub(crate) view_tuples_classified: AtomicU64,
    /// The session's `view_items_repartitioned`, mirrored the same way.
    pub(crate) view_items_repartitioned: AtomicU64,
}

impl Shard {
    /// Wraps a wired cache and its transport into a shard.
    pub(crate) fn new(
        cache: CacheNode,
        transport: Box<dyn Transport>,
        to_global: TidMap<TupleId>,
        retry: RetryPolicy,
        health_cfg: HealthConfig,
    ) -> Shard {
        let health = Arc::new(HealthTracker::new(health_cfg));
        Shard {
            cache_id: cache.id(),
            cache: Mutex::new(cache),
            snapshots: AnswerSnapshots::default(),
            gateway: RefreshGateway::with_policy(transport, retry, health.clone()),
            health,
            to_global,
            view_tuples_classified: AtomicU64::new(0),
            view_items_repartitioned: AtomicU64::new(0),
        }
    }

    /// Publishes the session's view work counters; called with the cache
    /// lock held, after planning.
    pub(crate) fn note_view_work(&self, cache: &CacheNode) {
        let session = cache.session();
        self.view_tuples_classified
            .store(session.view_tuples_classified(), Ordering::Relaxed);
        self.view_items_repartitioned
            .store(session.view_items_repartitioned(), Ordering::Relaxed);
    }
}

/// Where a query must run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Every row the query can touch lives on this one shard.
    Single(usize),
    /// The query's group set (potentially) spans shards: scatter the
    /// partial-input request to every shard and gather-merge.
    Scatter,
}

/// Partition metadata plus the shards themselves. See the module docs.
pub struct ShardRouter {
    shards: Vec<Shard>,
    partition_column: Option<String>,
    /// Tables whose every row was placed by the partition column — only
    /// their group-pinned queries may be routed to a single shard.
    group_placed: HashSet<String>,
    /// table → (global tid → (shard, local tid)).
    from_global: TidMap<(usize, TupleId)>,
    /// Replicated object → owning shard.
    object_shard: HashMap<ObjectId, usize>,
    /// Every table's schema, with no rows: what a scatter pass binds its
    /// query against and reads a join's side schemas from, with no shard
    /// lock held. Every shard holds these same schemas.
    schemas: Catalog,
}

impl ShardRouter {
    /// Assembles a router over wired shards. The object→shard index is
    /// derived from each cache's bound objects.
    pub(crate) fn new(
        shards: Vec<Shard>,
        partition_column: Option<String>,
        group_placed: HashSet<String>,
        from_global: TidMap<(usize, TupleId)>,
    ) -> Result<ShardRouter, TrappError> {
        assert!(!shards.is_empty(), "a service needs at least one shard");
        let mut schemas = Catalog::new();
        let cache = shards[0].cache.lock();
        let catalog = cache.session().catalog();
        for name in catalog.table_names() {
            schemas.add_table(Table::new(name, catalog.table(name)?.schema().clone()))?;
        }
        drop(cache);
        let mut object_shard = HashMap::new();
        for (idx, shard) in shards.iter().enumerate() {
            for (object, _) in shard.cache.lock().objects() {
                object_shard.insert(object, idx);
            }
        }
        Ok(ShardRouter {
            shards,
            partition_column,
            group_placed,
            from_global,
            object_shard,
            schemas,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in index order.
    pub(crate) fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// One shard by index.
    pub(crate) fn shard(&self, idx: usize) -> &Shard {
        &self.shards[idx]
    }

    /// The indexes of the shards a route touches.
    pub(crate) fn footprint(&self, route: Route) -> std::ops::Range<usize> {
        match route {
            Route::Single(s) => s..s + 1,
            Route::Scatter => 0..self.shards.len(),
        }
    }

    /// Decides where `query` runs: a single shard when its predicate pins
    /// the partition column to one group of a fully group-placed table,
    /// scatter-gather otherwise. One-shard services always route single.
    pub fn route(&self, query: &Query) -> Route {
        if self.shards.len() == 1 {
            return Route::Single(0);
        }
        let Some(col) = &self.partition_column else {
            return Route::Scatter;
        };
        let [table] = query.tables.as_slice() else {
            return Route::Scatter;
        };
        if !self.group_placed.contains(table) {
            return Route::Scatter;
        }
        match query
            .predicate
            .as_ref()
            .and_then(|p| pinned_group(p, col, table))
        {
            Some(group) => Route::Single(shard_of(group as u64, self.shards.len())),
            None => Route::Scatter,
        }
    }

    /// Resolves global tuple ids to their shard and local id, by runs of
    /// one table.
    pub(crate) fn locator(&self) -> Locator<'_> {
        Locator(self.from_global.runs())
    }

    /// Every table's schema, readable with no shard lock held.
    pub(crate) fn schemas(&self) -> &Catalog {
        &self.schemas
    }

    /// The shard whose cache is subscribed to `object`, if any.
    pub(crate) fn object_shard(&self, object: ObjectId) -> Option<usize> {
        self.object_shard.get(&object).copied()
    }
}

/// Global → (shard, local) tuple-id resolution ([`ShardRouter::locator`]).
pub(crate) struct Locator<'r>(TidRuns<'r, (usize, TupleId)>);

impl Locator<'_> {
    /// Where `table`'s global tuple `global` lives.
    pub(crate) fn locate(
        &mut self,
        table: &str,
        global: TupleId,
    ) -> Result<(usize, TupleId), TrappError> {
        self.0
            .get(table, global)
            .ok_or_else(|| TrappError::Internal(format!("no shard holds {table} tuple {global}")))
    }
}

/// Extracts the group an AND-tree of conjuncts pins the partition column
/// to: a conjunct of the form `col = <int>` (either operand order), with
/// `col` bare or qualified by the queried table. OR branches and other
/// comparisons never pin — they may admit several groups.
fn pinned_group(pred: &Expr<ColumnRef>, col: &str, table: &str) -> Option<i64> {
    match pred {
        Expr::Binary(BinaryOp::And, a, b) => {
            pinned_group(a, col, table).or_else(|| pinned_group(b, col, table))
        }
        Expr::Binary(BinaryOp::Eq, a, b) => {
            eq_group(a, b, col, table).or_else(|| eq_group(b, a, col, table))
        }
        _ => None,
    }
}

/// 2⁵³: integers this far from zero or farther share their `f64` image.
const UNIQUE_IN_F64: f64 = 9_007_199_254_740_992.0;

/// `lhs = rhs` where `lhs` is the partition column and `rhs` an integer
/// literal (the SQL lexer produces floats, so integral floats count) below
/// 2⁵³ in magnitude: past it, one `f64` image, which is what the evaluator
/// compares, admits several ints — groups placed on different shards.
fn eq_group(lhs: &Expr<ColumnRef>, rhs: &Expr<ColumnRef>, col: &str, table: &str) -> Option<i64> {
    let Expr::Column(c) = lhs else {
        return None;
    };
    let g = match rhs {
        Expr::Literal(Value::Int(g)) if (*g as f64).abs() < UNIQUE_IN_F64 => *g,
        Expr::Literal(Value::Float(g)) if g.fract() == 0.0 && g.abs() < UNIQUE_IN_F64 => *g as i64,
        _ => return None,
    };
    let qualified_ok = c.table.as_deref().is_none_or(|t| t == table);
    (c.column == col && qualified_ok).then_some(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceBuilder, ServiceConfig};
    use trapp_storage::{ColumnDef, Schema};
    use trapp_types::{BoundedValue, SourceId, ValueType};

    fn pred(sql: &str) -> Expr<ColumnRef> {
        trapp_sql::parse_query(&format!("SELECT SUM(load) FROM metrics WHERE {sql}"))
            .unwrap()
            .predicate
            .unwrap()
    }

    #[test]
    fn pins_group_through_and_trees() {
        assert_eq!(pinned_group(&pred("grp = 3"), "grp", "metrics"), Some(3));
        assert_eq!(
            pinned_group(&pred("load > 5 AND grp = 7"), "grp", "metrics"),
            Some(7)
        );
        assert_eq!(
            pinned_group(&pred("3 = grp AND load > 5"), "grp", "metrics"),
            Some(3)
        );
        assert_eq!(
            pinned_group(&pred("metrics.grp = 2"), "grp", "metrics"),
            Some(2)
        );
    }

    #[test]
    fn refuses_to_pin_when_groups_may_vary() {
        for p in [
            "grp > 3",            // range: many groups
            "grp = 1 OR grp = 2", // disjunction
            "other.grp = 1",      // different table
            "load = 3",           // different column
            "NOT grp = 3",        // negation
        ] {
            assert_eq!(pinned_group(&pred(p), "grp", "metrics"), None, "{p}");
        }
    }

    /// Past 2⁵³ distinct ints share one `f64` image, so an equality there
    /// may admit groups on several shards: it never pins, from the SQL
    /// lexer's floats or from an `Int` literal. Just inside, it does.
    #[test]
    fn refuses_to_pin_where_ints_share_an_f64_image() {
        let two_53 = 1i64 << 53;
        for p in [
            "grp = 9007199254740992",    // 2⁵³
            "grp = -9007199254740992",   // −2⁵³
            "grp = 9007199254740993",    // lexes to 2⁵³
            "grp = 9223372036854775808", // 2⁶³
            "grp = -9223372036854775808",
        ] {
            assert_eq!(pinned_group(&pred(p), "grp", "metrics"), None, "{p}");
        }
        let int_eq = |g: i64| {
            let col = Expr::Column(ColumnRef {
                table: None,
                column: "grp".into(),
            });
            pinned_group(
                &Expr::Binary(
                    BinaryOp::Eq,
                    Box::new(col),
                    Box::new(Expr::Literal(Value::Int(g))),
                ),
                "grp",
                "metrics",
            )
        };
        for g in [two_53, -two_53, two_53 + 1, i64::MAX, i64::MIN] {
            assert_eq!(int_eq(g), None, "{g}");
        }
        for g in [two_53 - 1, -(two_53 - 1), 0] {
            assert_eq!(int_eq(g), Some(g), "{g}");
        }
        assert_eq!(
            pinned_group(&pred("grp = 9007199254740991"), "grp", "metrics"),
            Some(two_53 - 1)
        );
    }

    /// Every row's ids round-trip through the dense maps: on each shard,
    /// locating a local id's global id names that shard and local id back.
    /// Rows placed by group and by tuple id alike — no partition column,
    /// or `hosts`, which lacks it — and each table's global ids are exactly
    /// `1..=n`, interleaved across the shards when placed by tuple id.
    #[test]
    fn every_row_locates_back_to_its_shard_and_local_id() {
        let table = |name: &str, key: &str, value: &str| {
            let schema = Schema::new(vec![
                ColumnDef::exact(key, ValueType::Int),
                ColumnDef::bounded_float(value),
            ])
            .unwrap();
            Table::new(name, schema)
        };
        for partitioned in [false, true] {
            let mut builder = ServiceBuilder::new()
                .config(ServiceConfig {
                    shards: 3,
                    ..ServiceConfig::default()
                })
                .table(table("metrics", "grp", "load"))
                .table(table("hosts", "rack", "cpu"));
            if partitioned {
                builder = builder.partition_by("grp");
            }
            for k in 0..40u64 {
                let name = if k % 3 == 0 { "hosts" } else { "metrics" };
                let cells = vec![
                    BoundedValue::Exact(Value::Int((k % 7) as i64)),
                    BoundedValue::exact_f64(k as f64).unwrap(),
                ];
                builder = builder.row(name, SourceId::new(1 + k % 2), cells);
            }
            let service = builder.build_direct().unwrap();
            let router = service.router();
            let mut locator = router.locator();
            let mut globals: HashMap<String, Vec<Vec<u64>>> = HashMap::new();
            for (s, shard) in router.shards().iter().enumerate() {
                let cache = shard.cache.lock();
                let catalog = cache.session().catalog();
                for name in catalog.table_names() {
                    let to_global = shard.to_global.table(name);
                    let mut ids = Vec::new();
                    for (local, _) in catalog.table(name).unwrap().scan() {
                        let global = to_global.get(local).expect("every row has a global id");
                        assert_eq!(locator.locate(name, global).unwrap(), (s, local));
                        ids.push(global.raw());
                    }
                    assert_eq!(to_global.get(TupleId::new(ids.len() as u64 + 1)), None);
                    globals.entry(name.to_owned()).or_default().push(ids);
                }
            }
            for (name, per_shard) in globals {
                let mut all: Vec<u64> = per_shard.concat();
                all.sort_unstable();
                assert_eq!(all, (1..=all.len() as u64).collect::<Vec<_>>(), "{name}");
                let interleaved = per_shard
                    .iter()
                    .any(|ids| ids.windows(2).any(|w| w[1] != w[0] + 1));
                if name == "hosts" || !partitioned {
                    assert!(interleaved, "{name}: tuple-id placement left runs");
                }
                assert!(locator.locate(&name, TupleId::new(0)).is_err());
                let past = TupleId::new(all.len() as u64 + 1);
                assert!(locator.locate(&name, past).is_err());
            }
        }
    }
}
