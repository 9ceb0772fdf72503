//! The simulation driver: one cache, many sources, a shared clock.
//!
//! Experiments (and the examples) need a convenient way to stand up the
//! Figure 3 architecture: declare tables, attach each bounded cell to a
//! replicated object at some source, stream updates, and run queries. The
//! [`SimulationBuilder`] / [`Simulation`] pair provides exactly that over
//! the deterministic [`DirectTransport`].

use std::collections::HashMap;

use trapp_bounds::BoundShape;
use trapp_core::executor::QueryResult;
use trapp_storage::Table;
use trapp_types::{BoundedValue, CacheId, ObjectId, SourceId, TrappError, TupleId};

use crate::cache::CacheNode;
use crate::clock::SimClock;
use crate::cost::CostModel;
use crate::source::Source;
use crate::stats::SystemStats;
use crate::transport::{DirectTransport, Transport};

/// Builder for a single-cache simulation.
pub struct SimulationBuilder {
    shape: BoundShape,
    initial_width: f64,
    cost_model: CostModel,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        SimulationBuilder {
            shape: BoundShape::Sqrt,
            initial_width: 1.0,
            cost_model: CostModel::unit(),
        }
    }
}

impl SimulationBuilder {
    /// Starts a builder with √t bounds, width 1, unit costs.
    pub fn new() -> SimulationBuilder {
        SimulationBuilder::default()
    }

    /// Sets the bound shape issued by all sources.
    pub fn shape(mut self, shape: BoundShape) -> Self {
        self.shape = shape;
        self
    }

    /// Sets the initial adaptive width parameter.
    pub fn initial_width(mut self, w: f64) -> Self {
        self.initial_width = w;
        self
    }

    /// Sets the refresh cost model.
    pub fn cost_model(mut self, m: CostModel) -> Self {
        self.cost_model = m;
        self
    }

    /// Builds the (initially empty) simulation.
    pub fn build(self) -> Result<Simulation, TrappError> {
        self.cost_model.validate()?;
        let clock = SimClock::new();
        Ok(Simulation {
            cache: CacheNode::new(CacheId::new(1), clock.clone()),
            clock,
            transport: DirectTransport::new(),
            shape: self.shape,
            initial_width: self.initial_width,
            cost_model: self.cost_model,
            source_of: HashMap::new(),
            next_object: 1,
        })
    }
}

/// A running single-cache TRAPP system.
pub struct Simulation {
    /// The shared clock (advance it to let bounds widen).
    pub clock: SimClock,
    /// The data cache, with its query session.
    pub cache: CacheNode,
    /// The transport, holding all sources.
    pub transport: DirectTransport,
    shape: BoundShape,
    initial_width: f64,
    cost_model: CostModel,
    source_of: HashMap<ObjectId, SourceId>,
    next_object: u64,
}

impl Simulation {
    /// Starts a builder.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::new()
    }

    /// Registers a new source.
    pub fn add_source(&mut self, id: SourceId) {
        self.transport.add_source(Source::new(id, self.shape));
    }

    /// Registers a cached table (rows are added via [`Simulation::add_row`]).
    pub fn add_table(&mut self, table: Table) -> Result<(), TrappError> {
        self.cache.add_table(table)
    }

    /// Inserts a row whose bounded cells hold `initial` master values, all
    /// owned by `source`: registers one replicated object per bounded cell,
    /// subscribes the cache, and prices the tuple with the cost model.
    ///
    /// `cells` uses exact values for exact columns and exact floats as the
    /// *initial master values* for bounded columns.
    pub fn add_row(
        &mut self,
        table: &str,
        source: SourceId,
        cells: Vec<BoundedValue>,
    ) -> Result<TupleId, TrappError> {
        let now = self.clock.now();
        let src = self
            .transport
            .source(source)
            .ok_or_else(|| TrappError::RefreshFailed(format!("unknown source {source}")))?;

        // Identify bounded columns and their initial values.
        let bounded_cols = self
            .cache
            .session()
            .catalog()
            .table(table)?
            .schema()
            .bounded_columns();

        // Insert the row (bounded cells as points at the initial values —
        // the subscription refresh re-pins them immediately).
        let tid = {
            let t = self.cache.session_mut().catalog_mut().table_mut(table)?;
            t.insert(cells.clone())?
        };

        let mut tuple_cost = 0.0;
        for &col in &bounded_cols {
            let initial = cells
                .get(col)
                .ok_or_else(|| TrappError::SchemaViolation("row arity".into()))?
                .as_interval()?
                .midpoint();
            let object = ObjectId::new(self.next_object);
            self.next_object += 1;

            src.lock().register_object(object, initial)?;
            self.cache.bind_object(object, source, table, tid, col)?;
            let refresh = src
                .lock()
                .subscribe(self.cache.id(), object, self.initial_width, now)?;
            self.cache.install_refresh(refresh)?;
            self.source_of.insert(object, source);
            tuple_cost += self.cost_model.cost(source, object);
        }

        self.cache
            .session_mut()
            .catalog_mut()
            .table_mut(table)?
            .set_cost(tid, tuple_cost.max(f64::MIN_POSITIVE))?;
        Ok(tid)
    }

    /// Applies an update to a replicated object's master value, delivering
    /// any value-initiated refreshes to the cache.
    pub fn apply_update(&mut self, object: ObjectId, value: f64) -> Result<usize, TrappError> {
        let source = *self
            .source_of
            .get(&object)
            .ok_or_else(|| TrappError::RefreshFailed(format!("{object} is not replicated")))?;
        let src = self
            .transport
            .source(source)
            .ok_or_else(|| TrappError::RefreshFailed(format!("unknown source {source}")))?;
        let refreshes = src.lock().apply_update(object, value, self.clock.now())?;
        let n = refreshes.len();
        for (cache_id, refresh) in refreshes {
            debug_assert_eq!(cache_id, self.cache.id());
            self.cache.install_refresh(refresh)?;
        }
        Ok(n)
    }

    /// Runs a query at the cache.
    pub fn run_query(&mut self, sql: &str) -> Result<QueryResult, TrappError> {
        self.cache.execute_query(sql, &self.transport)
    }

    /// §8.3 pre-refreshing: every source re-centers the bounds of objects
    /// whose master value sits within `margin` (fraction of the half-width)
    /// of the bound's edge. Returns the number of pre-refreshes pushed.
    ///
    /// Call this "when system load is low" (the paper's framing) — e.g.
    /// between query bursts — to avert imminent value-initiated refreshes.
    pub fn pre_refresh_near_edge(&mut self, margin: f64) -> Result<usize, TrappError> {
        let now = self.clock.now();
        let cache_id = self.cache.id();
        let distinct: std::collections::BTreeSet<SourceId> =
            self.source_of.values().copied().collect();
        let mut pushed = 0usize;
        for source in distinct {
            let Some(src) = self.transport.source(source) else {
                continue;
            };
            let candidates = src.lock().near_edge(cache_id, now, margin);
            for object in candidates {
                let refresh = src.lock().pre_refresh(cache_id, object, now)?;
                self.cache.install_refresh(refresh)?;
                pushed += 1;
            }
        }
        Ok(pushed)
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> SystemStats {
        let cache = self.cache.stats();
        let mut updates = 0;
        let mut value_initiated = 0;
        let mut query_initiated = 0;
        let distinct: std::collections::BTreeSet<SourceId> =
            self.source_of.values().copied().collect();
        for source in distinct {
            if let Some(src) = self.transport.source(source) {
                let s = src.lock().stats();
                updates += s.updates;
                value_initiated += s.value_initiated;
                query_initiated += s.query_initiated;
            }
        }
        SystemStats {
            updates,
            value_initiated,
            query_initiated,
            queries: cache.queries,
            refresh_cost: cache.refresh_cost,
            messages: self.transport.messages(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trapp_storage::{ColumnDef, Schema};
    use trapp_types::{Value, ValueType};

    fn build_sim() -> Simulation {
        let mut sim = Simulation::builder().initial_width(2.0).build().unwrap();
        sim.add_source(SourceId::new(1));
        sim.add_source(SourceId::new(2));
        let schema = Schema::new(vec![
            ColumnDef::exact("link", ValueType::Str),
            ColumnDef::bounded_float("latency"),
        ])
        .unwrap();
        sim.add_table(Table::new("links", schema)).unwrap();
        for (i, (name, lat)) in [("a", 10.0), ("b", 20.0), ("c", 30.0)].iter().enumerate() {
            let source = SourceId::new(1 + (i as u64) % 2);
            sim.add_row(
                "links",
                source,
                vec![
                    BoundedValue::Exact(Value::Str((*name).into())),
                    BoundedValue::exact_f64(*lat).unwrap(),
                ],
            )
            .unwrap();
        }
        sim
    }

    #[test]
    fn fresh_subscription_answers_exactly_from_cache() {
        let mut sim = build_sim();
        let r = sim
            .run_query("SELECT SUM(latency) WITHIN 0 FROM links")
            .unwrap();
        assert!(r.satisfied);
        assert_eq!(r.answer.range.lo(), 60.0);
        assert_eq!(r.refresh_cost, 0.0); // bounds still have zero width
    }

    #[test]
    fn time_widens_bounds_and_queries_pay_for_precision() {
        let mut sim = build_sim();
        sim.clock.advance(25.0); // ±2·√25 = ±10 per cell
        let loose = sim
            .run_query("SELECT SUM(latency) WITHIN 100 FROM links")
            .unwrap();
        assert!(loose.satisfied);
        assert!(loose.refreshed.is_empty());

        let tight = sim
            .run_query("SELECT SUM(latency) WITHIN 5 FROM links")
            .unwrap();
        assert!(tight.satisfied);
        assert!(!tight.refreshed.is_empty());
        assert!(sim.stats().query_initiated > 0);
    }

    #[test]
    fn updates_escaping_bounds_push_refreshes() {
        let mut sim = build_sim();
        sim.clock.advance(1.0); // ±2 bounds
        let pushed = sim.apply_update(ObjectId::new(1), 17.0).unwrap();
        assert_eq!(pushed, 1);
        // Small update stays inside the (re-widened) bound.
        sim.clock.advance(0.01);
        let pushed = sim.apply_update(ObjectId::new(1), 17.1).unwrap();
        assert_eq!(pushed, 0);
        let stats = sim.stats();
        assert_eq!(stats.updates, 2);
        assert_eq!(stats.value_initiated, 1);
    }

    #[test]
    fn query_answers_track_updates() {
        let mut sim = build_sim();
        sim.clock.advance(1.0);
        sim.apply_update(ObjectId::new(1), 50.0).unwrap(); // was 10
        let r = sim
            .run_query("SELECT SUM(latency) WITHIN 0 FROM links")
            .unwrap();
        assert_eq!(r.answer.range.lo(), 100.0); // 50 + 20 + 30
    }

    #[test]
    fn unknown_object_updates_fail() {
        let mut sim = build_sim();
        assert!(sim.apply_update(ObjectId::new(99), 1.0).is_err());
    }

    /// §8.3: pre-refreshing near-edge objects averts the value-initiated
    /// refresh that a continued drift would have triggered.
    #[test]
    fn pre_refresh_averts_value_initiated_refresh() {
        // Run the same drift twice, with and without pre-refreshing.
        let run = |pre: bool| -> (u64, u64) {
            let mut sim = build_sim(); // initial width 2 → bound ±2·√Δt
            sim.clock.advance(1.0);
            // Drift object 1 to the edge of its ±2 bound, then past it.
            sim.apply_update(ObjectId::new(1), 11.8).unwrap();
            if pre {
                let pushed = sim.pre_refresh_near_edge(0.2).unwrap();
                assert!(pushed >= 1);
            }
            sim.clock.advance(0.2);
            sim.apply_update(ObjectId::new(1), 12.4).unwrap();
            let s = sim.stats();
            (s.value_initiated, sim.cache.stats().pre_refreshes)
        };
        let (vi_without, pre_without) = run(false);
        let (vi_with, pre_with) = run(true);
        assert_eq!(pre_without, 0);
        assert!(pre_with >= 1);
        assert!(
            vi_with < vi_without,
            "pre-refresh should avert the escape: {vi_with} vs {vi_without}"
        );
    }

    #[test]
    fn pre_refresh_ignores_centered_objects() {
        let mut sim = build_sim();
        sim.clock.advance(1.0);
        // No drift: nothing is near an edge.
        assert_eq!(sim.pre_refresh_near_edge(0.2).unwrap(), 0);
    }
}
