//! The traced run: one client replays stream positions against a service
//! of its own, first with spans around every `query()`, then running the
//! layer probes on every query.
//!
//! One client on a freshly built service makes the whole run a function of
//! the seed: its counts repeat exactly. Three passes over consecutive
//! slices of the stream:
//!
//! 1. **warm** — untimed, so views exist and widths have adapted;
//! 2. **trace** — epochs alternate, in pairs, between bare and traced: around each
//!    `query()` the client snapshots `stats()`. Counters are folded before
//!    the reply is sent, so with one client the deltas are that query's
//!    own queue, plan, fetch and install time. Comparing the two kinds of
//!    epoch gives the tracing overhead;
//! 3. **probe** — before each query, with the service quiescent, the client
//!    calls the layers the query is about to exercise (parse, bind,
//!    materialize, view sync, merge, bounded answer, CHOOSE_REFRESH) on the
//!    query's own state and records a span per call.

use std::time::{Duration, Instant};

use trapp_core::plan::{bind_query, QuerySource};
use trapp_core::query_plan::plan_join_round;
use trapp_core::{
    bounded_answer, choose_refresh, merge_grouped_partials, merge_partials, merge_table_slices,
    AggInput, Aggregate, Exclusions, QueryPartial, QueryPlan,
};
use trapp_server::{QueryService, ServiceStats};
use trapp_types::{shard_of, TrappError, TupleId};

use crate::driver::{build_service, stats_delta, Harness};
use crate::oracle::Oracle;
use crate::probes::Captured;
use crate::trace::Tracer;
use crate::workload::{Class, QuerySpec, Workload};

/// Stream positions per pass (fewer on the big table, whose queries are an
/// order of magnitude slower).
pub fn trace_positions(w: &Workload) -> u64 {
    if w.spec.rows() > 10_000 {
        1024
    } else {
        2048
    }
}

/// What the passes accumulate.
pub struct TraceRun {
    pub tracer: Tracer,
    pub captured: Captured,
    /// `(mean traced − mean bare) ÷ mean bare` over the trace pass.
    pub overhead_fraction: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The probe pass hit an error calling a layer.
    pub probe_error: Option<TrappError>,
}

/// Shard-local tuple id → global tuple id, per shard: the id a single
/// cache ingesting the same rows would have assigned. The service keeps
/// this map private; the row order and the placement hash are public, so
/// the benchmark rebuilds it.
struct TidMaps {
    metrics: Vec<Vec<u64>>,
    segments: Vec<Vec<u64>>,
}

impl TidMaps {
    fn new(w: &Workload) -> TidMaps {
        let place = |rows: &[crate::workload::RowSpec]| {
            let mut per_shard = vec![Vec::new(); w.spec.shards];
            for (k, r) in rows.iter().enumerate() {
                per_shard[shard_of(r.grp as u64, w.spec.shards)].push(k as u64 + 1);
            }
            per_shard
        };
        TidMaps {
            metrics: place(&w.rows),
            segments: place(&w.segments),
        }
    }

    fn global(&self, table: &str, shard: usize, local: TupleId) -> TupleId {
        let map = if table == "segments" {
            &self.segments
        } else {
            &self.metrics
        };
        TupleId::new(map[shard][local.raw() as usize - 1])
    }
}

/// Replays `[start, start + len)` with one client, epoch by epoch.
/// `each` handles one position and issues its query.
fn replay(
    h: &Harness<'_>,
    start: u64,
    len: u64,
    run: &mut TraceRun,
    mut each: impl FnMut(&Harness<'_>, u64, &mut TraceRun),
) {
    let epoch = h.w.spec.epoch as u64;
    for pos in start..start + len {
        each(h, pos, run);
        if (pos + 1) % epoch == 0 {
            h.end_epoch();
        }
    }
}

/// Issues the query (and any update due) at `pos`, counting the outcome.
fn issue(h: &Harness<'_>, pos: u64, run: &mut TraceRun) -> crate::driver::Issued {
    if let Some(Err(e)) = h.apply_updates(pos) {
        eprintln!("traced update batch at {pos} failed: {e}");
        run.failed += 1;
    }
    let issued = h.query(pos);
    run.attempted += 1;
    run.failed += u64::from(issued.failed());
    issued
}

/// Lays the four per-phase totals out as child spans of the query span.
/// The program reports durations, not instants, so the children are placed
/// end to end from the query's start and marked `derived`.
fn record_query_spans(
    tracer: &mut Tracer,
    pos: u64,
    start_ns: u64,
    end_ns: u64,
    delta: &ServiceStats,
) {
    let root = tracer.record("query", pos, None, start_ns, end_ns, false);
    let mut at = start_ns;
    for (name, us) in [
        ("service.queue_wait", delta.queue_wait_us),
        ("service.plan", delta.plan_us),
        ("service.fetch", delta.fetch_us),
        ("service.install", delta.install_us),
    ] {
        let end = at + us * 1000;
        tracer.record(name, pos, Some(root), at, end, true);
        at = end;
    }
}

/// Runs the three passes on a service built for them. The service is
/// returned too: the micro-probes read its tables afterwards.
pub fn run(w: &Workload, rtt: Duration, skew: f64) -> Result<(QueryService, TraceRun), TrappError> {
    let oracle = Oracle::new(w, skew);
    let service = build_service(w, rtt)?;
    let mut run = TraceRun {
        tracer: Tracer::default(),
        captured: Captured::default(),
        overhead_fraction: 0.0,
        attempted: 0,
        failed: 0,
        probe_error: None,
    };
    let h = Harness::new(w, &oracle, &service);
    let n = trace_positions(w);
    let epoch = w.spec.epoch as u64;

    // Pass 1: warm.
    replay(&h, 0, n, &mut run, |h, pos, run| {
        issue(h, pos, run);
    });

    // Pass 2: trace. Epochs alternate in pairs — two with spans, two bare.
    // Pairs, because the program has a period of two epochs of its own
    // (each clock advance logs one change per row and the change log
    // compacts at twice the rows), which a strict alternation would alias.
    let (mut traced_s, mut traced_n, mut bare_s, mut bare_n) = (0.0, 0u64, 0.0, 0u64);
    replay(&h, n, n, &mut run, |h, pos, run| {
        if (pos / epoch / 2) % 2 == 1 {
            let t0 = Instant::now();
            issue(h, pos, run);
            bare_s += t0.elapsed().as_secs_f64();
            bare_n += 1;
            return;
        }
        let t0 = Instant::now();
        let before = h.service.stats();
        let start_ns = run.tracer.now_ns();
        issue(h, pos, run);
        let end_ns = run.tracer.now_ns();
        let delta = stats_delta(&h.service.stats(), &before);
        record_query_spans(&mut run.tracer, pos, start_ns, end_ns, &delta);
        traced_s += t0.elapsed().as_secs_f64();
        traced_n += 1;
    });
    if traced_n > 0 && bare_n > 0 && bare_s > 0.0 {
        let (traced, bare) = (traced_s / traced_n as f64, bare_s / bare_n as f64);
        run.overhead_fraction = (traced - bare) / bare;
    }

    // Pass 3: probe.
    let maps = TidMaps::new(w);
    run.captured.strategy = service.with_shard_cache(0, |c| c.session().config.strategy);
    replay(&h, 2 * n, n, &mut run, |h, pos, run| {
        let (_, q) = h.w.query_at(pos);
        if run.probe_error.is_none() {
            if let Err(e) = probe_query(h, &maps, pos, q, run) {
                eprintln!("layer probe at {pos} ({}) failed: {e}", q.sql);
                run.probe_error = Some(e);
            }
        }
        issue(h, pos, run);
    });

    if !h.exactness_probe() {
        run.failed += 1;
    }
    Ok((service, run))
}

/// Calls, in the order the service will, the layers `q` is about to
/// exercise, one span per call under a `probe` root span.
fn probe_query(
    h: &Harness<'_>,
    maps: &TidMaps,
    pos: u64,
    q: &QuerySpec,
    run: &mut TraceRun,
) -> Result<(), TrappError> {
    let TraceRun {
        tracer, captured, ..
    } = run;
    let service = h.service;
    let shard_count = h.w.spec.shards;
    // The router sends a pinned query to the group's shard and scatters
    // everything else.
    let shards: Vec<usize> = match (q.class, q.group) {
        (Class::Pinned, Some(g)) => vec![shard_of(g as u64, shard_count)],
        _ => (0..shard_count).collect(),
    };
    let scatter = shards.len() > 1;

    let root = tracer.open("probe", pos, None);
    let parent = Some(root);
    let parsed = tracer.time("sql.parse", pos, parent, || trapp_sql::parse_query(&q.sql))?;
    let bound = tracer.time("plan.bind", pos, parent, || {
        service.with_shard_cache(shards[0], |c| bind_query(&parsed, c.session().catalog()))
    })?;

    let mut partials = Vec::with_capacity(shards.len());
    for &s in &shards {
        tracer.time("cache.materialize", pos, parent, || {
            service.with_shard_cache(s, |c| c.materialize())
        })?;
        // `partial_query` syncs the query's band view and copies its input
        // out — the view layer's whole cost for this query.
        let mut partial = tracer.time("view.sync", pos, parent, || {
            service.with_shard_cache(s, |c| c.session().partial_query(&parsed))
        })?;
        match &mut partial {
            QueryPartial::Scalar(p) => {
                let table = p.table.clone();
                p.rewrite_tids(|t| maps.global(&table, s, t));
            }
            QueryPartial::Grouped(groups) => {
                for (_, p) in groups {
                    let table = p.table.clone();
                    p.rewrite_tids(|t| maps.global(&table, s, t));
                }
            }
            QueryPartial::Join(jp) => {
                let table = jp.left.table.clone();
                jp.left.rewrite_tids(|t| maps.global(&table, s, t));
                let table = jp.right.table.clone();
                jp.right.rewrite_tids(|t| maps.global(&table, s, t));
            }
        }
        partials.push(partial);
    }

    // One `(aggregate, R, input)` per plannable unit.
    let mut units: Vec<(Aggregate, Option<f64>, AggInput)> = Vec::new();
    match partials.first().expect("at least one shard") {
        QueryPartial::Scalar(_) => {
            let mut shape = None;
            let inputs: Vec<AggInput> = partials
                .into_iter()
                .map(|p| match p {
                    QueryPartial::Scalar(p) => {
                        shape = Some((p.agg, p.within));
                        p.input
                    }
                    _ => unreachable!("shards agree on the query shape"),
                })
                .collect();
            let (agg, within) = shape.expect("at least one shard");
            let merged = if scatter {
                if Captured::wants_merge_sample(captured.scalar_partials.len()) {
                    captured.scalar_partials.push(inputs.clone());
                }
                tracer.time("merge.partials", pos, parent, || merge_partials(inputs))?
            } else {
                inputs.into_iter().next().expect("one shard")
            };
            units.push((agg, within, merged));
        }
        QueryPartial::Grouped(_) => {
            let per_shard: Vec<_> = partials
                .into_iter()
                .map(|p| match p {
                    QueryPartial::Grouped(groups) => groups,
                    _ => unreachable!("shards agree on the query shape"),
                })
                .collect();
            let merged = if scatter {
                if Captured::wants_merge_sample(captured.grouped_partials.len()) {
                    captured.grouped_partials.push(per_shard.clone());
                }
                tracer.time("merge.grouped", pos, parent, || {
                    merge_grouped_partials(per_shard)
                })?
            } else {
                per_shard.into_iter().next().expect("one shard")
            };
            units.extend(merged.into_iter().map(|(_, p)| (p.agg, p.within, p.input)));
        }
        QueryPartial::Join(_) => {
            let QuerySource::Join { left, right } = &bound.source else {
                return Err(TrappError::Internal(
                    "join partial from a non-join query".into(),
                ));
            };
            let (lschema, rschema, heuristic) = service.with_shard_cache(0, |c| {
                let catalog = c.session().catalog();
                Ok::<_, TrappError>((
                    catalog.table(left)?.schema().clone(),
                    catalog.table(right)?.schema().clone(),
                    c.session().config.join_heuristic,
                ))
            })?;
            let (mut lefts, mut rights) = (Vec::new(), Vec::new());
            for p in partials {
                let QueryPartial::Join(jp) = p else {
                    unreachable!("shards agree on the query shape")
                };
                lefts.push(jp.left);
                rights.push(jp.right);
            }
            if Captured::wants_merge_sample(captured.table_slices.len()) {
                captured.table_slices.push((lschema.clone(), lefts.clone()));
            }
            let (ltable, rtable) = tracer.time("merge.table_slices", pos, parent, || {
                Ok::<_, TrappError>((
                    merge_table_slices(lschema, lefts)?,
                    merge_table_slices(rschema, rights)?,
                ))
            })?;
            // A join round answers and picks refreshes in one call.
            let plan = tracer.time("refresh.choose", pos, parent, || {
                plan_join_round(
                    &bound,
                    &ltable,
                    &rtable,
                    heuristic,
                    true,
                    &Exclusions::default(),
                )
            })?;
            if let QueryPlan::NeedsFetch(fp) = plan {
                let inexact = |t: &trapp_storage::Table| {
                    t.scan().filter(|(_, row)| row.total_width() > 0.0).count() as u64
                };
                captured.plans_seen += 1;
                captured.candidates += inexact(&ltable) + inexact(&rtable);
                captured.chosen += fp
                    .units
                    .iter()
                    .filter_map(|u| u.fetch.as_ref())
                    .map(|f| f.tuples.len() as u64)
                    .sum::<u64>();
            }
        }
    }

    for (agg, within, input) in &units {
        captured.note_answer(*agg, input);
        let answer = tracer.time("agg.bounded_answer", pos, parent, || {
            bounded_answer(*agg, input)
        })?;
        if answer.satisfies(*within) {
            continue;
        }
        let r = within.expect("an unmet constraint is finite");
        let plan = tracer.time("refresh.choose", pos, parent, || {
            choose_refresh(*agg, input, r, captured.strategy)
        })?;
        captured.note_plan(*agg, input, r, plan.tuples.len());
    }
    tracer.close(root);
    Ok(())
}
