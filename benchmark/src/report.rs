//! The result schema: metric names and units, one workload's report, the
//! full report, and their JSON forms.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::trace::SpanTotals;

/// Bumped whenever a metric is renamed or redefined; `compare` refuses to
/// compare reports of different versions.
pub const SCHEMA_VERSION: u64 = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The end-to-end metrics, defined on every workload: `(name, unit,
/// direction)`. `BENCHMARK.json` carries the same names with their bounds.
pub const END_TO_END: [(&str, &str, Better); 7] = [
    ("qps", "queries/s", Better::Higher),
    ("p50_us", "us", Better::Lower),
    ("p99_us", "us", Better::Lower),
    ("refresh_cost_per_query", "cost_units", Better::Lower),
    ("round_trips_per_query", "messages", Better::Lower),
    ("setup_s", "s", Better::Lower),
    ("peak_rss_mb", "MiB", Better::Lower),
];

/// The per-layer metrics, prefix = module: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("service.queue_wait_us_per_query", "us"),
    ("service.plan_us_per_query", "us"),
    ("service.fetch_us_per_query", "us"),
    ("service.install_us_per_query", "us"),
    ("service.other_us_per_query", "us"),
    ("service.rounds_per_query", "count"),
    ("service.scatter_fraction", "ratio"),
    ("service.update_batch_us", "us"),
    ("service.p999_us", "us"),
    ("service.fetch_us_per_cost_unit", "us"),
    ("sql.parse_ns", "ns"),
    ("plan.bind_ns", "ns"),
    ("view.sync_noop_ns", "ns"),
    ("view.sync_ns_per_changed_tuple", "ns"),
    ("view.resync_after_advance_us", "us"),
    ("view.rebuild_us", "us"),
    ("view.count", "count"),
    ("agg.bounded_answer_ns_per_item.sum", "ns"),
    ("agg.bounded_answer_ns_per_item.avg", "ns"),
    ("agg.bounded_answer_ns_per_item.min", "ns"),
    ("agg.bounded_answer_ns_per_item.count", "ns"),
    ("refresh.choose_ns", "ns"),
    ("refresh.candidates_per_plan", "count"),
    ("refresh.chosen_per_plan", "count"),
    ("knapsack.solve_ns", "ns"),
    ("knapsack.items_per_instance", "count"),
    ("merge.partials_ns", "ns"),
    ("merge.grouped_ns", "ns"),
    ("merge.table_slices_ns", "ns"),
    ("cache.materialize_us", "us"),
    ("cache.install_ns_per_refresh", "ns"),
    ("gateway.fetch_miss_us", "us"),
    ("gateway.fetch_hit_ns", "ns"),
    ("gateway.coalesced_per_query", "count"),
    ("gateway.forwarded_per_query", "count"),
    ("transport.round_trip_us_rtt0", "us"),
    ("transport.round_trip_us_rtt200", "us"),
    ("transport.messages_per_query", "messages"),
    ("fetch_pool.dispatch_us", "us"),
    ("fetch_pool.timer_overshoot_us", "us"),
    ("source.serve_batch_ns_per_object", "ns"),
    ("storage.update_cell_ns", "ns"),
    ("storage.refresh_cell_ns", "ns"),
    ("storage.changes_since_ns", "ns"),
    ("harness.barrier_idle_fraction", "ratio"),
    ("harness.trace_overhead_fraction", "ratio"),
    ("harness.samples", "count"),
];

/// Which metrics a run measures and prints on its result line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: the timed run only; end-to-end metrics.
    EndToEnd,
    /// `--trace 1`: a shorter timed run for the service counters, then the
    /// traced run and the micro-probes; per-layer metrics.
    Layers,
    /// Both, from one timed run of full length.
    Full,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// The per-window values a timing metric is the median of; empty for
    /// counts and probes. `compare` reads its spread from them.
    pub windows: Vec<f64>,
}

/// Everything one workload's run produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadReport {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Empty in `--trace 1` runs.
    pub end_to_end: Vec<Metric>,
    /// In `--trace 0` runs only what the timed run's own counters give.
    pub per_layer: Vec<Metric>,
    /// Sample counts behind the percentiles: `(label, count)`.
    pub samples: Vec<(String, u64)>,
    /// Total and self time per span name from the traced run.
    pub spans: BTreeMap<String, SpanTotals>,
}

fn metrics_json(metrics: &[Metric], with_windows: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_owned(), Json::Num(m.value)),
                    ("unit".to_owned(), Json::str(m.unit)),
                ];
                if with_windows && !m.windows.is_empty() {
                    fields.push((
                        "windows".to_owned(),
                        Json::Arr(m.windows.iter().map(|&w| Json::Num(w)).collect()),
                    ));
                }
                (m.name.clone(), Json::Obj(fields))
            })
            .collect(),
    )
}

/// Looks a unit up among the known metric names so parsed metrics can
/// keep `&'static str` units; unknown names (a newer report) read "".
fn static_unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _)| (n, u))
        .chain(PER_LAYER)
        .find(|&(n, _)| n == name)
        .map_or("", |(_, u)| u)
}

fn metrics_from_json(json: Option<&Json>) -> Result<Vec<Metric>, String> {
    let Some(pairs) = json.and_then(Json::as_obj) else {
        return Ok(Vec::new());
    };
    pairs
        .iter()
        .map(|(name, m)| {
            Ok(Metric {
                name: name.clone(),
                value: m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("metric {name} has no value"))?,
                unit: static_unit(name),
                windows: m
                    .get("windows")
                    .and_then(Json::as_arr)
                    .map(|ws| ws.iter().filter_map(Json::as_f64).collect())
                    .unwrap_or_default(),
            })
        })
        .collect()
}

impl WorkloadReport {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// The one-line result the benchmark contract asks for: exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics` — every
    /// end-to-end metric with `--trace 0`, every per-layer one with
    /// `--trace 1`.
    pub fn contract_line(&self, mode: Mode) -> String {
        let end_to_end = self.end_to_end.iter().filter(|_| mode != Mode::Layers);
        let per_layer = self.per_layer.iter().filter(|_| mode != Mode::EndToEnd);
        let metrics: Vec<Metric> = end_to_end.chain(per_layer).cloned().collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&metrics, false)),
        ])
        .compact()
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("end_to_end", metrics_json(&self.end_to_end, true)),
            ("per_layer", metrics_json(&self.per_layer, true)),
            (
                "samples",
                Json::Obj(
                    self.samples
                        .iter()
                        .map(|(k, n)| (k.clone(), Json::Num(*n as f64)))
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Obj(
                    self.spans
                        .iter()
                        .map(|(name, t)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("count", Json::Num(t.count as f64)),
                                    ("total_us", Json::Num(t.total_us)),
                                    ("self_us", Json::Num(t.self_us)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(json: &Json) -> Result<WorkloadReport, String> {
        let num = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("workload report has no {key}"))
        };
        Ok(WorkloadReport {
            workload: json
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("workload report has no name")?
                .to_owned(),
            seed: num("seed")? as u64,
            correct: matches!(json.get("correct"), Some(Json::Bool(true))),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            end_to_end: metrics_from_json(json.get("end_to_end"))?,
            per_layer: metrics_from_json(json.get("per_layer"))?,
            samples: json
                .get("samples")
                .and_then(Json::as_obj)
                .map(|pairs| {
                    pairs
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()? as u64)))
                        .collect()
                })
                .unwrap_or_default(),
            spans: json
                .get("spans")
                .and_then(Json::as_obj)
                .map(|pairs| {
                    pairs
                        .iter()
                        .map(|(name, t)| {
                            let field =
                                |key: &str| t.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                            (
                                name.clone(),
                                SpanTotals {
                                    count: field("count") as u64,
                                    total_us: field("total_us"),
                                    self_us: field("self_us"),
                                },
                            )
                        })
                        .collect()
                })
                .unwrap_or_default(),
        })
    }
}

/// A full run: every workload, stamped with where it was measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    pub schema_version: u64,
    /// `std::thread::available_parallelism` on the measuring machine.
    pub nproc: u64,
    /// `git rev-parse HEAD`, or "unknown" outside a git checkout.
    pub git_rev: String,
    pub run_seconds: f64,
    pub rtt_us: f64,
    pub workloads: Vec<WorkloadReport>,
}

impl Report {
    pub fn stamped(run_seconds: f64, rtt_us: f64, workloads: Vec<WorkloadReport>) -> Report {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|rev| rev.trim().to_owned())
            .filter(|rev| !rev.is_empty())
            .unwrap_or_else(|| "unknown".to_owned());
        Report {
            schema_version: SCHEMA_VERSION,
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            git_rev,
            run_seconds,
            rtt_us,
            workloads,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("nproc", Json::Num(self.nproc as f64)),
            ("git_rev", Json::str(&self.git_rev)),
            ("run_seconds", Json::Num(self.run_seconds)),
            ("rtt_us", Json::Num(self.rtt_us)),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(WorkloadReport::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(json: &Json) -> Result<Report, String> {
        let num = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("report has no {key}"))
        };
        let schema_version = num("schema_version")? as u64;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "report has schema version {schema_version}, this build reads {SCHEMA_VERSION}"
            ));
        }
        Ok(Report {
            schema_version,
            nproc: num("nproc")? as u64,
            git_rev: json
                .get("git_rev")
                .and_then(Json::as_str)
                .ok_or("report has no git_rev")?
                .to_owned(),
            run_seconds: num("run_seconds")?,
            rtt_us: num("rtt_us")?,
            workloads: json
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("report has no workloads")?
                .iter()
                .map(WorkloadReport::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    pub fn workload(&self, name: &str) -> Option<&WorkloadReport> {
        self.workloads.iter().find(|w| w.workload == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadReport {
        WorkloadReport {
            workload: "tight_refresh".into(),
            seed: 42,
            correct: true,
            attempted: 1000,
            failed: 0,
            end_to_end: vec![Metric {
                name: "p50_us".into(),
                value: 271.25,
                unit: "us",
                windows: vec![270.0, 271.25, 275.5],
            }],
            per_layer: vec![Metric {
                name: "sql.parse_ns".into(),
                value: 2100.0,
                unit: "ns",
                windows: vec![],
            }],
            samples: vec![("p99_us.per_window_min".into(), 9000)],
            spans: [(
                "query".to_owned(),
                SpanTotals {
                    count: 3,
                    total_us: 10.5,
                    self_us: 4.25,
                },
            )]
            .into(),
        }
    }

    #[test]
    fn report_round_trips_with_stamps() {
        let report = Report::stamped(15.0, 200.0, vec![sample()]);
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert!(report.nproc >= 1, "nproc is stamped");
        assert!(
            !report.git_rev.is_empty(),
            "git rev is stamped (or 'unknown')"
        );
        let text = report.to_json().pretty();
        let back = Report::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn other_schema_versions_are_refused() {
        let mut json = Report::stamped(15.0, 200.0, vec![]).to_json();
        if let Json::Obj(pairs) = &mut json {
            pairs[0].1 = Json::Num(SCHEMA_VERSION as f64 + 1.0);
        }
        assert!(Report::from_json(&json)
            .unwrap_err()
            .contains("schema version"));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        assert!(!sample()
            .contract_line(Mode::EndToEnd)
            .contains("sql.parse_ns"));
        assert!(!sample().contract_line(Mode::Layers).contains("p50_us"));
        let line = sample().contract_line(Mode::Full);
        assert!(!line.contains('\n'));
        let json = Json::parse(&line).unwrap();
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p50 = json.get("metrics").unwrap().get("p50_us").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(271.25));
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("us"));
        assert!(p50.get("windows").is_none());
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len());
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
