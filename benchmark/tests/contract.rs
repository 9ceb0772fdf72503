//! `BENCHMARK.json` and the code must name the same workloads and metrics.

use std::path::Path;

use trapp_benchmark::json::Json;
use trapp_benchmark::report::{Better, END_TO_END, PER_LAYER};
use trapp_benchmark::workload::SPECS;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without {key}: {entry:?}"))
}

#[test]
fn workloads_match_the_specs() {
    let json = benchmark_json();
    let listed: Vec<(&str, &str)> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let specs: Vec<(&str, &str)> = SPECS.iter().map(|s| (s.name, s.why)).collect();
    assert_eq!(listed, specs);
    for (name, why) in listed {
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why too long"
        );
    }
}

#[test]
fn end_to_end_metrics_match_and_bounds_are_legal() {
    let json = benchmark_json();
    let listed = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, (name, unit, better)) in listed.iter().zip(END_TO_END) {
        assert_eq!(field(entry, "name"), name);
        assert_eq!(field(entry, "unit"), unit, "{name}");
        let direction = match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        assert_eq!(field(entry, "better"), direction, "{name}");
        let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
    }
    assert!(
        listed.iter().any(|m| field(m, "name") == "setup_s"
            && field(m, "unit") == "s"
            && field(m, "better") == "lower"),
        "the contract requires setup_s"
    );
}

#[test]
fn per_layer_metrics_match() {
    let json = benchmark_json();
    let listed: Vec<(&str, &str)> = json
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect();
    assert_eq!(listed, PER_LAYER);
}

#[test]
fn command_and_paths_stay_inside_the_benchmark() {
    let json = benchmark_json();
    let paths: Vec<&str> = json
        .get("paths")
        .and_then(Json::as_arr)
        .expect("paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = json
        .get("command")
        .and_then(Json::as_arr)
        .expect("command")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.contains(&"benchmark/Cargo.toml"));
    assert!(command
        .iter()
        .all(|arg| !arg.starts_with('/') && !arg.contains("..")));
    let seconds = json
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}
