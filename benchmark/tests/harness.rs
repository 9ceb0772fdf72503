//! The harness against a real service: epoch accounting, the oracle's
//! teeth, and a whole (short) run with every per-layer metric present.

use std::time::Duration;

use trapp_benchmark::driver::{build_service, run_phase, Harness, Phase, DEFAULT_RTT, WINDOWS};
use trapp_benchmark::oracle::Oracle;
use trapp_benchmark::report::{Mode, END_TO_END, PER_LAYER};
use trapp_benchmark::run::{run_workload, RunConfig};
use trapp_benchmark::workload::{generate, spec, STREAM_LEN};

const SHORT_WINDOW: Duration = Duration::from_millis(60);

#[test]
fn epoch_accounting_adds_up() {
    let w = generate(spec("tight_refresh").unwrap(), 42);
    let oracle = Oracle::new(&w, 0.0);
    let service = build_service(&w, DEFAULT_RTT).unwrap();
    let h = Harness::new(&w, &oracle, &service);

    let warm = run_phase(&h, 0, Phase::Warmup);
    assert_eq!(warm.attempted, STREAM_LEN as u64, "one full pass");
    assert_eq!(warm.next_pos, STREAM_LEN as u64);
    assert_eq!(warm.failed, 0);

    let timed = run_phase(
        &h,
        warm.next_pos,
        Phase::Timed {
            window: SHORT_WINDOW,
        },
    );
    assert_eq!(timed.windows.len(), WINDOWS);
    // attempted = answered + failed, and the service saw exactly the
    // queries the clients issued.
    assert_eq!(timed.failed, 0);
    assert_eq!(timed.attempted, timed.stats.queries + timed.stats.errors);
    // No position skipped or repeated: the cursor moved by what was issued.
    assert_eq!(timed.next_pos - warm.next_pos, timed.attempted);
    assert_eq!(
        timed.attempted % w.spec.epoch as u64,
        0,
        "whole epochs only"
    );
    let per_window: u64 = timed.windows.iter().map(|w| w.attempted).sum();
    assert_eq!(per_window, timed.attempted);
    // Deadlines are absolute: the five windows together span five lengths.
    let spanned: f64 = timed.windows.iter().map(|w| w.wall_s).sum();
    assert!(spanned >= WINDOWS as f64 * SHORT_WINDOW.as_secs_f64());
    for window in &timed.windows {
        assert_eq!(window.latencies_us.len() as u64, window.attempted);
        assert!(window.wall_s > 0.0);
        assert!(
            window.latencies_us.windows(2).all(|p| p[0] <= p[1]),
            "sorted"
        );
    }
}

#[test]
fn a_wrong_oracle_fails_every_answer() {
    let w = generate(spec("tight_refresh").unwrap(), 7);
    // Truth shifted by 2R: no honest bound of width R can reach it.
    let oracle = Oracle::new(&w, 2.0);
    let service = build_service(&w, DEFAULT_RTT).unwrap();
    let h = Harness::new(&w, &oracle, &service);
    let timed = run_phase(
        &h,
        0,
        Phase::Timed {
            window: SHORT_WINDOW,
        },
    );
    assert!(timed.attempted > 0);
    assert_eq!(timed.failed, timed.attempted);
}

#[test]
fn writes_keep_answers_honest_and_masters_exact() {
    let w = generate(spec("read_write_churn").unwrap(), 42);
    let oracle = Oracle::new(&w, 0.0);
    let service = build_service(&w, DEFAULT_RTT).unwrap();
    let h = Harness::new(&w, &oracle, &service);
    let timed = run_phase(
        &h,
        0,
        Phase::Timed {
            window: SHORT_WINDOW,
        },
    );
    assert_eq!(timed.failed, 0);
    assert!(!timed.update_us.is_empty(), "update batches were applied");
    assert!(h.exactness_probe());
}

/// The whole pipeline on the workload that exercises every layer, merges
/// included: every metric of the glossary is reported exactly once.
#[test]
fn a_full_run_reports_every_metric() {
    let out_dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("full-run");
    let report = run_workload(&RunConfig {
        spec: spec("scatter_mixed").unwrap(),
        seed: 42,
        seconds: 1.0,
        mode: Mode::Full,
        rtt: DEFAULT_RTT,
        oracle_skew: 0.0,
        out_dir: out_dir.clone(),
    })
    .unwrap();
    assert!(
        report.correct,
        "{} of {} failed",
        report.failed, report.attempted
    );
    let names = |metrics: &[trapp_benchmark::report::Metric]| -> Vec<String> {
        metrics.iter().map(|m| m.name.clone()).collect()
    };
    assert_eq!(
        names(&report.end_to_end),
        END_TO_END.map(|m| m.0.to_owned())
    );
    assert_eq!(names(&report.per_layer), PER_LAYER.map(|m| m.0.to_owned()));
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        assert!(m.value.is_finite(), "{}", m.name);
    }
    let value = |name: &str| report.metric(name).unwrap().value;
    assert!(value("service.other_us_per_query") >= 0.0);
    assert_eq!(value("service.scatter_fraction"), 1.0);
    assert!(value("merge.partials_ns") > 0.0);
    assert!(value("merge.grouped_ns") > 0.0);
    assert!(value("merge.table_slices_ns") > 0.0);
    assert!(value("refresh.chosen_per_plan") > 0.0);
    for e2e in [
        "qps",
        "p50_us",
        "p99_us",
        "refresh_cost_per_query",
        "round_trips_per_query",
        "setup_s",
        "peak_rss_mb",
    ] {
        assert!(value(e2e) > 0.0, "{e2e} must never read 0");
    }
    // The span file holds one root span per traced query with its phases.
    let trace = std::fs::read_to_string(out_dir.join("trace-scatter_mixed.json")).unwrap();
    let spans = trapp_benchmark::json::Json::parse(&trace).unwrap();
    let spans = spans.as_arr().unwrap();
    assert!(spans
        .iter()
        .any(|s| s.get("name").unwrap().as_str() == Some("query")));
    assert!(spans
        .iter()
        .any(|s| s.get("name").unwrap().as_str() == Some("merge.partials")));
    assert_eq!(report.spans["query"].count, 1024);
}
