//! `trapp-benchmark run` and `trapp-benchmark compare`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use trapp_benchmark::compare::{bounds_from_json, compare, render};
use trapp_benchmark::driver::DEFAULT_RTT;
use trapp_benchmark::json::Json;
use trapp_benchmark::report::{Mode, Report, WorkloadReport};
use trapp_benchmark::run::{run_workload, RunConfig};
use trapp_benchmark::workload::{spec, SPECS};

/// `run_seconds` in `BENCHMARK.json`: five 3-second windows.
const DEFAULT_SECONDS: f64 = 15.0;
/// `--quick`: five 2-second windows.
const QUICK_SECONDS: f64 = 10.0;

const USAGE: &str = "usage:
  trapp-benchmark run [--workload NAME] [--seed N] [--seconds S | --quick]
                      [--trace [0|1]] [--rtt-us N] [--json OUT] [--out-dir DIR]
  trapp-benchmark compare OLD.json NEW.json [--bounds BENCHMARK.json]

run      without --workload runs every workload, each in a child process.
         --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
         metrics; without a value (or without the flag) both are measured.
compare  applies the bounds in BENCHMARK.json; exits 1 on a regression.";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    mode: Mode,
    rtt_us: u64,
    json: Option<PathBuf>,
    out_dir: PathBuf,
    skew_oracle: f64,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        mode: Mode::Full,
        rtt_us: DEFAULT_RTT.as_micros() as u64,
        json: None,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        skew_oracle: 0.0,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let number = |name: &str, text: String| {
            text.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("{name}: not a non-negative number: {text}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                let text = value("--seed")?;
                parsed.seed = text
                    .parse()
                    .map_err(|_| format!("--seed: not a whole number: {text}"))?;
            }
            "--seconds" => {
                parsed.seconds = number("--seconds", value("--seconds")?)?;
                if !(1.0..=60.0).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--quick" => parsed.seconds = QUICK_SECONDS,
            "--trace" => {
                parsed.mode = match it.peek().map(|s| s.as_str()) {
                    Some("0") => Mode::EndToEnd,
                    Some("1") => Mode::Layers,
                    _ => Mode::Full,
                };
                if parsed.mode != Mode::Full {
                    it.next();
                }
            }
            "--rtt-us" => parsed.rtt_us = number("--rtt-us", value("--rtt-us")?)? as u64,
            "--json" => parsed.json = Some(PathBuf::from(value("--json")?)),
            "--out-dir" => parsed.out_dir = PathBuf::from(value("--out-dir")?),
            // Test hook: a wrong oracle must make the run fail.
            "--skew-oracle" => {
                parsed.skew_oracle = number("--skew-oracle", value("--skew-oracle")?)?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

fn print_metrics(report: &WorkloadReport) {
    println!(
        "== {} (seed {}): {} attempted, {} failed, {}",
        report.workload,
        report.seed,
        report.attempted,
        report.failed,
        if report.correct {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        println!("{:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for (label, count) in &report.samples {
        println!("{:<40} {:>14} samples", label, count);
    }
    for (name, t) in &report.spans {
        println!(
            "span {:<35} {:>9} spans {:>12.1} us total {:>12.1} us self",
            name, t.count, t.total_us, t.self_us
        );
    }
}

fn write_report(path: &Path, report: &Report) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, report.to_json().pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in this process.
fn run_one(args: &RunArgs, name: &str) -> Result<bool, String> {
    let spec = spec(name).ok_or_else(|| {
        let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let report = run_workload(&RunConfig {
        spec,
        seed: args.seed,
        seconds: args.seconds,
        mode: args.mode,
        rtt: Duration::from_micros(args.rtt_us),
        oracle_skew: args.skew_oracle,
        out_dir: args.out_dir.clone(),
    })
    .map_err(|e| format!("{name}: {e}"))?;
    print_metrics(&report);
    if let Some(path) = &args.json {
        let stamped = Report::stamped(args.seconds, args.rtt_us as f64, vec![report.clone()]);
        write_report(path, &stamped)?;
    }
    // The contract's result line, last on standard output.
    println!("{}", report.contract_line(args.mode));
    Ok(report.correct)
}

/// Runs every workload, each in a child process so that one workload's
/// memory does not count against the next one's peak.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for spec in &SPECS {
        let part = args.out_dir.join(format!("report-{}.json", spec.name));
        let mut child = std::process::Command::new(&exe);
        child
            .arg("run")
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--rtt-us", &args.rtt_us.to_string()])
            .args(["--skew-oracle", &args.skew_oracle.to_string()])
            .arg("--out-dir")
            .arg(&args.out_dir)
            .arg("--json")
            .arg(&part);
        match args.mode {
            Mode::EndToEnd => child.args(["--trace", "0"]),
            Mode::Layers => child.args(["--trace", "1"]),
            Mode::Full => child.arg("--trace"),
        };
        let status = child
            .status()
            .map_err(|e| format!("spawning {}: {e}", spec.name))?;
        all_correct &= status.success();
        let report = Report::from_json(&read_json(&part)?)?;
        workloads.extend(report.workloads);
    }
    let report = Report::stamped(args.seconds, args.rtt_us as f64, workloads);
    println!(
        "== {} workloads, nproc {}, git {}, schema {}",
        report.workloads.len(),
        report.nproc,
        report.git_rev,
        report.schema_version
    );
    if let Some(path) = &args.json {
        write_report(path, &report)?;
        println!("report written to {}", path.display());
    }
    Ok(all_correct)
}

fn compare_cmd(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bounds_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds_path = Some(PathBuf::from(it.next().ok_or("--bounds needs a value")?));
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    let [old, new] = files.as_slice() else {
        return Err("compare needs exactly OLD.json and NEW.json".into());
    };
    // By default the bounds of the checkout this binary was built from.
    let bounds_path = bounds_path.unwrap_or_else(|| {
        let local = PathBuf::from("BENCHMARK.json");
        if local.exists() {
            local
        } else {
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
        }
    });
    let bounds = bounds_from_json(&read_json(&bounds_path)?)?;
    let old = Report::from_json(&read_json(old)?)?;
    let new = Report::from_json(&read_json(new)?)?;
    if (old.nproc, old.run_seconds, old.rtt_us) != (new.nproc, new.run_seconds, new.rtt_us) {
        println!(
            "note: settings differ (nproc {} vs {}, run {} s vs {} s, rtt {} us vs {} us)",
            old.nproc, new.nproc, old.run_seconds, new.run_seconds, old.rtt_us, new.rtt_us
        );
    }
    let (text, failed) = render(&compare(&old, &new, &bounds));
    print!("{text}");
    Ok(!failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse_run(rest).and_then(|parsed| match parsed.workload.clone() {
                Some(name) => run_one(&parsed, &name),
                None => run_all(&parsed),
            })
        }
        Some((cmd, rest)) if cmd == "compare" => compare_cmd(rest),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
