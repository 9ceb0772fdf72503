//! One workload's run: set-up, the timed run, the traced run and the
//! micro-probes, folded into a [`WorkloadReport`].

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use trapp_server::QueryService;
use trapp_types::TrappError;

use crate::driver::{build_service, run_phase, Harness, Phase, PhaseResult, CLIENTS, WINDOWS};
use crate::oracle::Oracle;
use crate::probes::{self, metric};
use crate::report::{Metric, Mode, WorkloadReport, PER_LAYER};
use crate::stats::{self, median, percentile};
use crate::trace;
use crate::traced;
use crate::workload::{generate, Spec, Workload};

#[derive(Clone, Debug)]
pub struct RunConfig {
    pub spec: &'static Spec,
    pub seed: u64,
    /// Length of the timed run.
    pub seconds: f64,
    pub mode: Mode,
    pub rtt: Duration,
    /// Test hook: shift the oracle's truths by this many `R`.
    pub oracle_skew: f64,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
}

/// Set-up is repeated and its median reported, so that one slow build does
/// not read as a regression — but only while the repeats stay affordable.
const SETUP_REPEATS: usize = 3;
const SETUP_BUDGET_S: f64 = 4.0;
/// In `Layers` mode the timed run only feeds the service counters.
const LAYERS_TIMED_SHARE: f64 = 0.5;

struct Ready {
    workload: Workload,
    oracle: Oracle,
    service: QueryService,
    warmup: PhaseResult,
}

/// Generate, build the service, one warm-up pass over the stream.
fn set_up(cfg: &RunConfig) -> Result<Ready, TrappError> {
    let workload = generate(cfg.spec, cfg.seed);
    let oracle = Oracle::new(&workload, cfg.oracle_skew);
    let service = build_service(&workload, cfg.rtt)?;
    let warmup = run_phase(
        &Harness::new(&workload, &oracle, &service),
        0,
        Phase::Warmup,
    );
    Ok(Ready {
        workload,
        oracle,
        service,
        warmup,
    })
}

/// `VmHWM` of this process in MiB; 0 where `/proc` does not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A metric that is the median of one value per window.
fn windowed(name: &str, unit: &'static str, windows: impl Iterator<Item = f64>) -> Metric {
    let windows: Vec<f64> = windows.collect();
    Metric {
        name: name.to_owned(),
        value: median(&windows),
        unit,
        windows,
    }
}

fn end_to_end(timed: &PhaseResult, setup_s: &[f64]) -> Vec<Metric> {
    let answered = timed.stats.queries.max(1) as f64;
    vec![
        windowed(
            "qps",
            "queries/s",
            timed.windows.iter().map(|w| w.attempted as f64 / w.wall_s),
        ),
        windowed(
            "p50_us",
            "us",
            timed
                .windows
                .iter()
                .map(|w| percentile(&w.latencies_us, 0.5)),
        ),
        windowed(
            "p99_us",
            "us",
            timed
                .windows
                .iter()
                .map(|w| percentile(&w.latencies_us, 0.99)),
        ),
        metric(
            "refresh_cost_per_query",
            timed.refresh_cost / answered,
            "cost_units",
        ),
        metric(
            "round_trips_per_query",
            timed.stats.round_trips as f64 / answered,
            "messages",
        ),
        windowed("setup_s", "s", setup_s.iter().copied()),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// The per-layer metrics the timed run's counters give.
fn service_layer(timed: &PhaseResult) -> Vec<Metric> {
    let s = &timed.stats;
    let answered = s.queries.max(1) as f64;
    let mut all: Vec<f64> = timed
        .windows
        .iter()
        .flat_map(|w| w.latencies_us.iter().copied())
        .collect();
    let all = stats::sorted(&mut all);
    let mean_us = all.iter().sum::<f64>() / all.len().max(1) as f64;
    let phases =
        [s.queue_wait_us, s.plan_us, s.fetch_us, s.install_us].map(|us| us as f64 / answered);
    vec![
        metric("service.queue_wait_us_per_query", phases[0], "us"),
        metric("service.plan_us_per_query", phases[1], "us"),
        metric("service.fetch_us_per_query", phases[2], "us"),
        metric("service.install_us_per_query", phases[3], "us"),
        // Parse, route, merge and the two thread hand-offs: what the
        // client waits for that no phase counter claims.
        metric(
            "service.other_us_per_query",
            mean_us - phases.iter().sum::<f64>(),
            "us",
        ),
        metric(
            "service.rounds_per_query",
            timed.rounds as f64 / answered,
            "count",
        ),
        metric(
            "service.scatter_fraction",
            s.scatter_queries as f64 / answered,
            "ratio",
        ),
        metric("service.update_batch_us", median(&timed.update_us), "us"),
        metric("service.p999_us", percentile(all, 0.999), "us"),
        // Measured fetch time per unit of predicted §6 cost: how far the
        // cost model is from the clock.
        metric(
            "service.fetch_us_per_cost_unit",
            if timed.refresh_cost > 0.0 {
                s.fetch_us as f64 / timed.refresh_cost
            } else {
                0.0
            },
            "us",
        ),
        metric(
            "gateway.coalesced_per_query",
            s.refreshes_coalesced as f64 / answered,
            "count",
        ),
        metric(
            "gateway.forwarded_per_query",
            s.refreshes_forwarded as f64 / answered,
            "count",
        ),
        metric(
            "transport.messages_per_query",
            s.round_trips as f64 / answered,
            "messages",
        ),
        metric(
            "harness.barrier_idle_fraction",
            timed.barrier_idle_s / (CLIENTS as f64 * timed.wall_s),
            "ratio",
        ),
        metric("harness.samples", all.len() as f64, "count"),
    ]
}

fn sample_counts(timed: &PhaseResult) -> Vec<(String, u64)> {
    let smallest = timed
        .windows
        .iter()
        .map(|w| w.latencies_us.len())
        .min()
        .unwrap_or(0);
    let total: usize = timed.windows.iter().map(|w| w.latencies_us.len()).sum();
    for (what, n, p) in [
        ("p99_us", smallest, 0.99),
        ("service.p999_us", total, 0.999),
    ] {
        if !stats::supports(n, p) {
            eprintln!(
                "note: {what} has only {} samples beyond it (fewer than {})",
                stats::samples_beyond(n, p),
                stats::MIN_BEYOND
            );
        }
    }
    vec![
        ("latency_samples".to_owned(), total as u64),
        ("smallest_window_samples".to_owned(), smallest as u64),
        (
            "smallest_window_beyond_p99".to_owned(),
            stats::samples_beyond(smallest, 0.99) as u64,
        ),
        (
            "beyond_p999".to_owned(),
            stats::samples_beyond(total, 0.999) as u64,
        ),
    ]
}

/// The traced run and every micro-probe; writes the span file.
fn layers(cfg: &RunConfig, w: &Workload, report: &mut WorkloadReport) -> Result<(), TrappError> {
    let (service, traced) = traced::run(w, cfg.rtt, cfg.oracle_skew)?;
    report.attempted += traced.attempted;
    report.failed += traced.failed;
    if traced.probe_error.is_some() {
        report.correct = false;
    }
    report.spans = trace::summarize(traced.tracer.spans());
    write_trace(&cfg.out_dir, cfg.spec.name, &traced.tracer);

    let m = &mut report.per_layer;
    m.push(metric(
        "harness.trace_overhead_fraction",
        traced.overhead_fraction,
        "ratio",
    ));
    m.extend(probes::sql::probe(w));
    m.extend(probes::plan::probe(w, &service));
    m.extend(probes::view::probe(w, &service));
    m.extend(probes::agg::probe(&traced.captured));
    m.extend(probes::refresh::probe(&traced.captured));
    m.extend(probes::knapsack::probe(&traced.captured));
    m.extend(probes::merge::probe(&traced.captured));
    m.extend(probes::storage::probe(&service));
    m.extend(probes::source::probe(w));
    m.extend(probes::gateway::probe(w));
    m.extend(probes::transport::probe(w));
    m.extend(probes::fetch_pool::probe());
    // Last: it moves the trace service's clock.
    m.extend(probes::cache::probe(w, &service));
    Ok(())
}

fn write_trace(out_dir: &Path, workload: &str, tracer: &trace::Tracer) {
    let path = out_dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json().compact()));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
}

pub fn run_workload(cfg: &RunConfig) -> Result<WorkloadReport, TrappError> {
    let mut report = WorkloadReport {
        workload: cfg.spec.name.to_owned(),
        seed: cfg.seed,
        ..WorkloadReport::default()
    };

    let mut setup_s = Vec::new();
    let ready = loop {
        let started = Instant::now();
        let ready = set_up(cfg)?;
        let took = started.elapsed().as_secs_f64();
        setup_s.push(took);
        report.attempted += ready.warmup.attempted;
        report.failed += ready.warmup.failed;
        let spent: f64 = setup_s.iter().sum();
        if setup_s.len() >= SETUP_REPEATS || spent + took > SETUP_BUDGET_S {
            break ready;
        }
    };

    let timed_s = match cfg.mode {
        Mode::Layers => cfg.seconds * LAYERS_TIMED_SHARE,
        Mode::EndToEnd | Mode::Full => cfg.seconds,
    };
    let harness = Harness::new(&ready.workload, &ready.oracle, &ready.service);
    let timed = run_phase(
        &harness,
        ready.warmup.next_pos,
        Phase::Timed {
            window: Duration::from_secs_f64(timed_s / WINDOWS as f64),
        },
    );
    report.attempted += timed.attempted;
    report.failed += timed.failed;
    let exact = harness.exactness_probe();
    report.samples = sample_counts(&timed);

    if cfg.mode != Mode::Layers {
        report.end_to_end = end_to_end(&timed, &setup_s);
    }
    report.per_layer = service_layer(&timed);
    report.correct = exact;
    // The timed service is done; the traced run builds its own.
    let Ready {
        workload,
        oracle,
        service,
        ..
    } = ready;
    drop((oracle, service));
    if cfg.mode != Mode::EndToEnd {
        layers(cfg, &workload, &mut report)?;
        // Report in the order the glossary lists them.
        report.per_layer.sort_by_key(|m| {
            PER_LAYER
                .iter()
                .position(|(name, _)| *name == m.name)
                .unwrap_or(usize::MAX)
        });
    }
    report.correct &= report.failed == 0 && report.attempted > 0;
    Ok(report)
}
