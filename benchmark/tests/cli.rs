//! The binary's contract: the result line, and a non-zero exit when the
//! answers are wrong.

use std::process::Command;

use trapp_benchmark::json::Json;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_trapp-benchmark"))
        .args(args)
        .args(["--out-dir", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("benchmark binary runs");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

#[test]
fn the_last_line_is_the_contract_result() {
    let (code, stdout) = run(&[
        "run",
        "--workload",
        "tight_refresh",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    let last = Json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = last
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(last.get("failed").unwrap().as_f64(), Some(0.0));
    let metrics: Vec<&str> = last
        .get("metrics")
        .unwrap()
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        metrics,
        [
            "qps",
            "p50_us",
            "p99_us",
            "refresh_cost_per_query",
            "round_trips_per_query",
            "setup_s",
            "peak_rss_mb"
        ]
    );
}

#[test]
fn a_wrong_oracle_makes_the_run_exit_non_zero() {
    let (code, stdout) = run(&[
        "run",
        "--workload",
        "tight_refresh",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--skew-oracle",
        "2",
    ]);
    assert_eq!(code, Some(1), "{stdout}");
    let last = Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(last.get("correct"), Some(&Json::Bool(false)));
    assert!(last.get("failed").unwrap().as_f64().unwrap() > 0.0);
}

#[test]
fn bad_arguments_are_refused() {
    assert_eq!(run(&["run", "--workload", "nope"]).0, Some(2));
    assert_eq!(run(&["run", "--seconds", "0"]).0, Some(2));
    assert_eq!(run(&["frobnicate"]).0, Some(2));
}
