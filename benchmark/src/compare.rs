//! `compare OLD.json NEW.json`: applies the bounds in `BENCHMARK.json` to
//! two full reports, names every regression by workload and metric, and
//! for each names the per-layer metric that moved most.

use crate::json::Json;
use crate::report::{Better, Metric, Report, WorkloadReport};
use crate::stats::spread;

/// One end-to-end metric's regression rule, from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub better: Better,
    /// Share of the old value the metric may worsen by.
    pub bound: f64,
}

pub fn bounds_from_json(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("end_to_end metric without a name")?;
            Ok(Bound {
                name: name.to_owned(),
                better: match m.get("better").and_then(Json::as_str) {
                    Some("lower") => Better::Lower,
                    Some("higher") => Better::Higher,
                    other => return Err(format!("{name}: bad direction {other:?}")),
                },
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name}: no bound"))?,
            })
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Within the bound, and the reports' own spread is too.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// Within the bound, but the window spread of either report exceeds
    /// the bound, so "unchanged" cannot be claimed.
    Unresolved,
    /// The new report lacks the metric or the workload.
    Missing,
}

/// The per-layer metric that moved most for a flagged end-to-end metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Mover {
    pub name: String,
    pub old: f64,
    pub new: f64,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    pub workload: String,
    pub metric: String,
    pub old: f64,
    pub new: f64,
    /// Relative change in the metric's worse direction (negative = better).
    pub worse_by: f64,
    pub bound: f64,
    /// The larger of the two reports' window spreads.
    pub spread: f64,
    pub status: Status,
    pub mover: Option<Mover>,
}

/// The phase shares of mean latency: same unit, additive, so the largest
/// absolute change among them is where a latency change came from.
const LATENCY_LAYERS: [&str; 5] = [
    "service.queue_wait_us_per_query",
    "service.plan_us_per_query",
    "service.fetch_us_per_query",
    "service.install_us_per_query",
    "service.other_us_per_query",
];

/// Counts that decide refresh cost and round trips.
const COUNT_LAYERS: [&str; 6] = [
    "gateway.coalesced_per_query",
    "gateway.forwarded_per_query",
    "transport.messages_per_query",
    "service.rounds_per_query",
    "refresh.candidates_per_plan",
    "refresh.chosen_per_plan",
];

fn mover(metric: &str, old: &WorkloadReport, new: &WorkloadReport) -> Option<Mover> {
    fn values<'a>(
        name: &'a str,
        old: &WorkloadReport,
        new: &WorkloadReport,
    ) -> Option<(&'a str, f64, f64)> {
        Some((name, old.metric(name)?.value, new.metric(name)?.value))
    }
    let pair = |name| values(name, old, new);
    let relative = |&(_, o, n): &(&str, f64, f64)| {
        if o == 0.0 {
            if n == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            ((n - o) / o).abs()
        }
    };
    let pairs: Vec<(&str, f64, f64)> = match metric {
        "qps" | "p50_us" | "p99_us" => LATENCY_LAYERS.iter().filter_map(|&n| pair(n)).collect(),
        "refresh_cost_per_query" | "round_trips_per_query" => {
            COUNT_LAYERS.iter().filter_map(|&n| pair(n)).collect()
        }
        _ => old
            .per_layer
            .iter()
            .filter_map(|m| pair(m.name.as_str()))
            .collect(),
    };
    let by_latency = matches!(metric, "qps" | "p50_us" | "p99_us");
    pairs
        .into_iter()
        .max_by(|a, b| {
            let score = |p: &(&str, f64, f64)| {
                if by_latency {
                    (p.2 - p.1).abs()
                } else {
                    relative(p)
                }
            };
            score(a).total_cmp(&score(b))
        })
        .filter(|&(_, o, n)| o != n)
        .map(|(name, old, new)| Mover {
            name: name.to_owned(),
            old,
            new,
        })
}

fn judge(bound: &Bound, old: &Metric, new: &Metric) -> (f64, f64, Status) {
    let change = if old.value == 0.0 {
        if new.value == 0.0 {
            0.0
        } else {
            f64::INFINITY * (new.value - old.value).signum()
        }
    } else {
        (new.value - old.value) / old.value.abs()
    };
    let worse_by = match bound.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let noise = spread(&old.windows).max(spread(&new.windows));
    let status = if worse_by > bound.bound {
        Status::Regressed
    } else if noise > bound.bound && !clearly_better(bound.better, &old.windows, &new.windows) {
        Status::Unresolved
    } else {
        Status::Unchanged
    };
    (worse_by, noise, status)
}

/// Every window of the new report reads better than every window of the old.
fn clearly_better(better: Better, old: &[f64], new: &[f64]) -> bool {
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    !old.is_empty()
        && !new.is_empty()
        && match better {
            Better::Lower => max(new) < min(old),
            Better::Higher => min(new) > max(old),
        }
}

pub fn compare(old: &Report, new: &Report, bounds: &[Bound]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for old_w in &old.workloads {
        let missing = |metric: &str, value: f64| Finding {
            workload: old_w.workload.clone(),
            metric: metric.to_owned(),
            old: value,
            new: f64::NAN,
            worse_by: f64::INFINITY,
            bound: 0.0,
            spread: 0.0,
            status: Status::Missing,
            mover: None,
        };
        let Some(new_w) = new.workload(&old_w.workload) else {
            findings.push(missing("*", f64::NAN));
            continue;
        };
        for bound in bounds {
            let Some(old_m) = old_w.metric(&bound.name) else {
                continue; // the old report predates the metric
            };
            let Some(new_m) = new_w.metric(&bound.name) else {
                findings.push(missing(&bound.name, old_m.value));
                continue;
            };
            let (worse_by, noise, status) = judge(bound, old_m, new_m);
            findings.push(Finding {
                workload: old_w.workload.clone(),
                metric: bound.name.clone(),
                old: old_m.value,
                new: new_m.value,
                worse_by,
                bound: bound.bound,
                spread: noise,
                status,
                mover: (status == Status::Regressed)
                    .then(|| mover(&bound.name, old_w, new_w))
                    .flatten(),
            });
        }
        // Failures have no bound: any increase is a regression.
        let fraction = |w: &WorkloadReport| w.failed as f64 / w.attempted.max(1) as f64;
        let (old_f, new_f) = (fraction(old_w), fraction(new_w));
        findings.push(Finding {
            workload: old_w.workload.clone(),
            metric: "failed_fraction".to_owned(),
            old: old_f,
            new: new_f,
            worse_by: new_f - old_f,
            bound: 0.0,
            spread: 0.0,
            status: if new_f > old_f || (old_w.correct && !new_w.correct) {
                Status::Regressed
            } else {
                Status::Unchanged
            },
            mover: None,
        });
    }
    findings
}

/// Renders the findings; returns whether any metric regressed or is missing.
pub fn render(findings: &[Finding]) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut failed = false;
    for f in findings {
        let verdict = match f.status {
            Status::Unchanged => "ok",
            Status::Unresolved => "UNRESOLVED",
            Status::Regressed => "REGRESSED",
            Status::Missing => "MISSING",
        };
        failed |= matches!(f.status, Status::Regressed | Status::Missing);
        let _ = write!(
            out,
            "{:<17} {:<24} {:>12.4} -> {:>12.4}  {:>+7.2}% worse (bound {:.0}%, spread {:.1}%)  {verdict}",
            f.workload,
            f.metric,
            f.old,
            f.new,
            f.worse_by * 100.0,
            f.bound * 100.0,
            f.spread * 100.0,
        );
        if let Some(m) = &f.mover {
            let _ = write!(
                out,
                "  <- {} moved most: {:.4} -> {:.4}",
                m.name, m.old, m.new
            );
        }
        out.push('\n');
    }
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str, value: f64, windows: &[f64]) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit: "",
            windows: windows.to_vec(),
        }
    }

    fn report(p50: f64, windows: &[f64], fetch: f64, plan: f64, failed: u64) -> Report {
        Report {
            schema_version: crate::report::SCHEMA_VERSION,
            nproc: 2,
            git_rev: "test".into(),
            run_seconds: 10.0,
            rtt_us: 200.0,
            workloads: vec![WorkloadReport {
                workload: "tight_refresh".into(),
                seed: 42,
                correct: failed == 0,
                attempted: 1000,
                failed,
                end_to_end: vec![
                    m("p50_us", p50, windows),
                    m("refresh_cost_per_query", 3.0, &[]),
                ],
                per_layer: vec![
                    m("service.fetch_us_per_query", fetch, &[]),
                    m("service.plan_us_per_query", plan, &[]),
                    m("fetch_pool.timer_overshoot_us", 10.0 * fetch, &[]),
                ],
                ..WorkloadReport::default()
            }],
        }
    }

    fn bounds() -> Vec<Bound> {
        bounds_from_json(
            &Json::parse(
                r#"{"end_to_end":[
                    {"name":"p50_us","unit":"us","better":"lower","bound":0.1},
                    {"name":"refresh_cost_per_query","unit":"cost_units","better":"lower","bound":0.01}]}"#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    fn status_of(findings: &[Finding], metric: &str) -> Status {
        findings.iter().find(|f| f.metric == metric).unwrap().status
    }

    #[test]
    fn flags_a_regression_and_names_the_layer_that_moved() {
        let old = report(270.0, &[268.0, 270.0, 272.0], 150.0, 90.0, 0);
        let new = report(330.0, &[328.0, 330.0, 333.0], 211.0, 91.0, 0);
        let findings = compare(&old, &new, &bounds());
        let p50 = findings.iter().find(|f| f.metric == "p50_us").unwrap();
        assert_eq!(p50.status, Status::Regressed);
        assert_eq!(
            p50.mover.as_ref().unwrap().name,
            "service.fetch_us_per_query"
        );
        assert_eq!(
            status_of(&findings, "refresh_cost_per_query"),
            Status::Unchanged
        );
        let (text, failed) = render(&findings);
        assert!(failed);
        assert!(text.contains("tight_refresh") && text.contains("p50_us"));
        // The reverse direction is an improvement, not a regression.
        let back = compare(&new, &old, &bounds());
        assert_eq!(status_of(&back, "p50_us"), Status::Unchanged);
    }

    #[test]
    fn noisy_windows_make_a_small_change_unresolved_not_unchanged() {
        let old = report(270.0, &[230.0, 270.0, 320.0], 150.0, 90.0, 0);
        let new = report(275.0, &[272.0, 275.0, 279.0], 150.0, 90.0, 0);
        let findings = compare(&old, &new, &bounds());
        assert_eq!(status_of(&findings, "p50_us"), Status::Unresolved);
        assert!(!render(&findings).1, "unresolved does not fail the run");
        // Unless every new window beats every old one.
        let better = report(200.0, &[199.0, 200.0, 201.0], 150.0, 90.0, 0);
        assert_eq!(
            status_of(&compare(&old, &better, &bounds()), "p50_us"),
            Status::Unchanged
        );
    }

    #[test]
    fn any_new_failure_is_a_regression() {
        let old = report(270.0, &[270.0], 150.0, 90.0, 0);
        let new = report(270.0, &[270.0], 150.0, 90.0, 1);
        let findings = compare(&old, &new, &bounds());
        assert_eq!(status_of(&findings, "failed_fraction"), Status::Regressed);
        assert!(render(&findings).1);
    }

    #[test]
    fn a_missing_workload_or_metric_is_reported() {
        let old = report(270.0, &[270.0], 150.0, 90.0, 0);
        let mut new = old.clone();
        new.workloads[0].end_to_end.remove(0);
        assert_eq!(
            status_of(&compare(&old, &new, &bounds()), "p50_us"),
            Status::Missing
        );
        new.workloads.clear();
        assert_eq!(compare(&old, &new, &bounds())[0].status, Status::Missing);
    }
}
