//! Per-layer probes: each file times one layer's public functions on
//! inputs taken from the workload (its SQL, its tables at its size, the
//! plans its queries produce) and reports the median over many iterations.
//!
//! Probes use only API that the planned transport/toggle clean-up keeps:
//! no `build_channel`, no `ChannelTransport`, no blocking
//! `request_refresh*`, and no `ServiceConfig` baseline toggles.

pub mod agg;
pub mod cache;
pub mod fetch_pool;
pub mod gateway;
pub mod knapsack;
pub mod merge;
pub mod plan;
pub mod refresh;
pub mod source;
pub mod sql;
pub mod storage;
pub mod transport;
pub mod view;

use std::sync::Arc;
use std::time::{Duration, Instant};

use trapp_bounds::BoundShape;
use trapp_core::{AggInput, Aggregate, GroupKey, ShardPartial, SolverStrategy, TableSlice};
use trapp_storage::{Schema, Table};
use trapp_system::{CacheNode, SimClock, Source};
use trapp_types::{CacheId, ObjectId, SourceId, TupleId};

use crate::report::Metric;
use crate::stats;
use crate::workload::Workload;

/// Iterations a probe aims for; the median of the per-iteration times is
/// what it reports.
pub const ITERATIONS: usize = 1000;
/// A probe stops early once it has spent this long (slow operations on the
/// big table), but never before `MIN_ITERATIONS`.
const BUDGET: Duration = Duration::from_millis(400);
const MIN_ITERATIONS: usize = 30;

/// Median time of one call of `f`, in nanoseconds. Each iteration times
/// `batch` back-to-back calls and divides, so operations far shorter than
/// a clock read are still resolved.
pub fn median_ns(batch: usize, mut f: impl FnMut()) -> f64 {
    median_ns_with(
        || (),
        |()| {
            for _ in 0..batch {
                f();
            }
        },
    ) / batch as f64
}

/// Like [`median_ns`], for operations that need fresh state per iteration:
/// `setup` runs untimed and its product is handed to `f`.
pub fn median_ns_with<S>(mut setup: impl FnMut() -> S, mut f: impl FnMut(S)) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::with_capacity(ITERATIONS);
    while samples.len() < ITERATIONS
        && (samples.len() < MIN_ITERATIONS || started.elapsed() < BUDGET)
    {
        let state = setup();
        let t0 = Instant::now();
        f(state);
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    stats::median(&samples)
}

/// One unsatisfied unit as the planner saw it: the input to CHOOSE_REFRESH.
pub struct PlanSample {
    pub agg: Aggregate,
    pub input: AggInput,
    pub r: f64,
}

/// Inputs the probe pass of the traced run captured for the micro-probes,
/// plus its exact counts.
#[derive(Default)]
pub struct Captured {
    /// Units whose cache-only answer missed the constraint (capped).
    pub plans: Vec<PlanSample>,
    /// Per aggregate, the largest input answered.
    pub answers: Vec<(Aggregate, AggInput)>,
    /// Per-shard scalar inputs of scatter queries (capped).
    pub scalar_partials: Vec<Vec<AggInput>>,
    /// Per-shard grouped partials of scatter queries (capped).
    pub grouped_partials: Vec<Vec<Vec<(GroupKey, ShardPartial)>>>,
    /// Per-shard slices of one join side, with its schema (capped).
    pub table_slices: Vec<(Arc<Schema>, Vec<TableSlice>)>,
    /// Units that needed CHOOSE_REFRESH.
    pub plans_seen: u64,
    /// Tuples those units could have refreshed to any effect.
    pub candidates: u64,
    /// Tuples CHOOSE_REFRESH picked.
    pub chosen: u64,
    pub strategy: SolverStrategy,
}

impl Captured {
    const MAX_PLANS: usize = 128;
    const MAX_MERGES: usize = 16;

    pub fn note_plan(&mut self, agg: Aggregate, input: &AggInput, r: f64, chosen: usize) {
        self.plans_seen += 1;
        // A tuple can help if its value is uncertain (`T+`, inexact) or its
        // membership is (`T?`, whatever its value).
        let uncertain_plus = input.plus().filter(|i| !i.is_exact()).count();
        self.candidates += (uncertain_plus + input.question_count()) as u64;
        self.chosen += chosen as u64;
        if self.plans.len() < Self::MAX_PLANS {
            self.plans.push(PlanSample {
                agg,
                input: input.clone(),
                r,
            });
        }
    }

    pub fn note_answer(&mut self, agg: Aggregate, input: &AggInput) {
        match self.answers.iter_mut().find(|(a, _)| *a == agg) {
            Some((_, kept)) if kept.items.len() >= input.items.len() => {}
            Some((_, kept)) => *kept = input.clone(),
            None => self.answers.push((agg, input.clone())),
        }
    }

    pub fn wants_merge_sample(len: usize) -> bool {
        len < Self::MAX_MERGES
    }
}

/// The workload's `metrics` table as one cache sees it, copied out of the
/// running service: the table the storage and view probes mutate.
pub fn table_clone(service: &trapp_server::QueryService, shard: usize, name: &str) -> Table {
    service.with_shard_cache(shard, |cache| {
        cache
            .session()
            .catalog()
            .table(name)
            .expect("workload table")
            .clone()
    })
}

/// A stand-alone source/cache pair at the workload's size, wired the way
/// the service wires a shard: every metrics row registered at one source
/// and subscribed by one cache. The cache, source, gateway and transport
/// probes drive it directly.
pub struct Rig {
    pub clock: SimClock,
    pub cache: CacheNode,
    pub source: Option<Source>,
    pub objects: Vec<ObjectId>,
}

pub const RIG_CACHE: CacheId = CacheId::new(1);
pub const RIG_SOURCE: SourceId = SourceId::new(1);
/// The rig covers at most this many rows: the per-object costs it measures
/// do not depend on more.
const RIG_ROWS: usize = 4096;

impl Rig {
    pub fn new(w: &Workload) -> Rig {
        let clock = SimClock::new();
        let mut cache = CacheNode::new(RIG_CACHE, clock.clone());
        let schema = Schema::new(vec![
            trapp_storage::ColumnDef::exact("grp", trapp_types::ValueType::Int),
            trapp_storage::ColumnDef::bounded_float("load"),
        ])
        .expect("static schema");
        cache
            .add_table(Table::new("metrics", schema))
            .expect("fresh catalog");
        let mut source = Source::new(RIG_SOURCE, BoundShape::Sqrt);
        let mut objects = Vec::new();
        for (k, r) in w.rows.iter().take(RIG_ROWS).enumerate() {
            let tid: TupleId = cache
                .session_mut()
                .catalog_mut()
                .table_mut("metrics")
                .expect("just added")
                .insert(vec![
                    trapp_types::BoundedValue::Exact(trapp_types::Value::Int(r.grp)),
                    trapp_types::BoundedValue::exact_f64(r.value).expect("finite"),
                ])
                .expect("row fits schema");
            let object = ObjectId::new(k as u64 + 1);
            source.register_object(object, r.value).expect("new object");
            cache
                .bind_object(object, RIG_SOURCE, "metrics", tid, 1)
                .expect("bounded cell");
            let refresh = source
                .subscribe(RIG_CACHE, object, 1.0, clock.now())
                .expect("registered");
            cache.install_refresh(refresh).expect("bound object");
            objects.push(object);
        }
        Rig {
            clock,
            cache,
            source: Some(source),
            objects,
        }
    }
}

/// A batch of `len` objects, rotating through `objects` round by round.
pub fn batch_of(objects: &[ObjectId], round: usize, len: usize) -> Vec<ObjectId> {
    (0..len)
        .map(|i| objects[(round * len + i) % objects.len()])
        .collect()
}

/// Objects per refresh batch in the rig probes: what a tight plan sends to
/// one source.
pub const RIG_BATCH: usize = 4;

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        windows: Vec::new(),
    }
}
