//! `replay`: the benchmark's query streams, single-client, every reply
//! printed; and `replay diff`, which compares two such transcripts.
//!
//! ```text
//! replay [--workload NAME] [--seed N] [--queries N]   > transcript
//! replay diff A B
//! ```
//!
//! A replay builds each workload's service with zero wire delay and walks
//! its stream from position 0 the way one benchmark client would: the
//! update batch due before a position, then its query, and the epoch's end
//! (the clock advance) after every `epoch` positions. Without
//! `--workload` it replays every workload in turn. Each reply is one line:
//! workload, position, class, every reply field except `exec_time` (floats
//! as their bit patterns) and the oracle's verdict. Each workload ends
//! with a `#` line holding `refresh_cost_per_query` and
//! `round_trips_per_query` over its answered queries.
//!
//! With one client and no wire delay the service's choices are a function
//! of the code alone, so two builds whose transcripts `diff` as equal plan
//! identically. The replay exits 1 when a reply failed or a verdict is not
//! `Ok`; `diff` exits 1 on any difference, naming the first differing
//! query and counting the differences per class.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use trapp_benchmark::driver::{build_service, Harness};
use trapp_benchmark::oracle::Oracle;
use trapp_benchmark::workload::{generate, spec, SPECS};
use trapp_core::executor::QueryResult;
use trapp_server::ServiceReply;

const USAGE: &str = "usage:
  replay [--workload NAME] [--seed N] [--queries N]
  replay diff A B";

/// Two passes over a 4,096-query stream.
const DEFAULT_QUERIES: u64 = 8_192;

struct Args {
    workload: Option<String>,
    seed: u64,
    queries: u64,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        queries: DEFAULT_QUERIES,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let number = |text: &str| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: not a count: {text}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value),
            "--seed" => parsed.seed = number(&value)?,
            "--queries" => parsed.queries = number(&value)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// One result's fields, every float as its bit pattern.
fn result_fields(r: &QueryResult) -> String {
    let range = |iv: trapp_types::Interval| format!("[{} {}]", bits(iv.lo()), bits(iv.hi()));
    let refreshed: Vec<String> = r
        .refreshed
        .iter()
        .map(|(table, tid)| format!("{table}:{}", tid.raw()))
        .collect();
    format!(
        "answer={} initial={} refreshed=[{}] cost={} rounds={} satisfied={}",
        range(r.answer.range),
        range(r.initial_answer.range),
        refreshed.join(","),
        bits(r.refresh_cost),
        r.rounds,
        r.satisfied
    )
}

/// Every field of a reply but `exec_time`.
fn reply_fields(reply: &ServiceReply) -> String {
    let mut line = result_fields(&reply.result);
    for g in &reply.groups {
        let _ = write!(line, " group{:?}{{{}}}", g.key, result_fields(&g.result));
    }
    let _ = write!(
        line,
        " saved={} round_trips={}",
        reply.refreshes_saved, reply.round_trips
    );
    match &reply.degraded {
        None => line.push_str(" degraded=none"),
        Some(d) => {
            let _ = write!(
                line,
                " degraded={{dark={:?} requested={} achieved={} load_shed={}}}",
                d.dark_sources.iter().map(|s| s.raw()).collect::<Vec<_>>(),
                d.requested_width.map_or("none".into(), bits),
                bits(d.achieved_width),
                d.load_shed
            );
        }
    }
    line
}

/// Replays one workload, printing its transcript; returns how many
/// queries failed (an error, or a verdict other than `Ok`).
fn replay(name: &str, seed: u64, queries: u64) -> Result<u64, String> {
    let spec = spec(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let w = generate(spec, seed);
    let oracle = Oracle::new(&w, 0.0);
    let service = build_service(&w, Duration::ZERO).map_err(|e| format!("{name}: {e}"))?;
    let h = Harness::new(&w, &oracle, &service);
    let (mut failed, mut answered, mut cost, mut round_trips) = (0u64, 0u64, 0.0f64, 0u64);
    for pos in 0..queries {
        if let Some(Err(e)) = h.apply_updates(pos) {
            failed += 1;
            println!("{name}\t{pos}\tupdate\terr {e:?}");
        }
        let issued = h.query(pos);
        let class = w.query_at(pos).1.class;
        let body = match &issued.reply {
            Ok(reply) => {
                answered += 1;
                cost += reply.result.refresh_cost;
                round_trips += reply.round_trips;
                reply_fields(reply)
            }
            Err(e) => format!("err {e:?}"),
        };
        failed += u64::from(issued.failed());
        println!(
            "{name}\t{pos}\t{class:?}\t{body}\tverdict={:?}",
            issued.verdict
        );
        if (pos + 1) % spec.epoch as u64 == 0 {
            h.end_epoch();
        }
    }
    service.shutdown();
    let per = |x: f64| {
        if answered == 0 {
            0.0
        } else {
            x / answered as f64
        }
    };
    println!(
        "# {name} seed={seed} queries={queries} answered={answered} failed={failed} \
         refresh_cost_per_query={} round_trips_per_query={}",
        per(cost),
        per(round_trips as f64)
    );
    Ok(failed)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let args = parse(args)?;
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => SPECS.iter().map(|s| s.name).collect(),
    };
    let mut failed = 0;
    for name in names {
        let f = replay(name, args.seed, args.queries)?;
        if f > 0 {
            eprintln!("{name}: {f} queries failed");
        }
        failed += f;
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// A transcript's lines.
fn read(path: &str) -> Result<Vec<String>, String> {
    std::fs::read_to_string(path)
        .map(|text| text.lines().map(str::to_owned).collect())
        .map_err(|e| format!("{path}: {e}"))
}

fn diff(a: &str, b: &str) -> Result<ExitCode, String> {
    let (left, right) = (read(a)?, read(b)?);
    let mut per_class: BTreeMap<String, u64> = BTreeMap::new();
    let mut first: Option<(usize, &str, &str)> = None;
    for i in 0..left.len().max(right.len()) {
        let (l, r) = (
            left.get(i).map_or("<missing>", String::as_str),
            right.get(i).map_or("<missing>", String::as_str),
        );
        if l == r {
            continue;
        }
        first.get_or_insert((i, l, r));
        // `workload class` for a reply line, `summary` for a `#` line.
        let class: Vec<&str> = match l.starts_with('#') {
            true => vec!["summary"],
            false => l.split('\t').step_by(2).take(2).collect(),
        };
        *per_class.entry(class.join(" ")).or_default() += 1;
    }
    match first {
        None => {
            println!("0 differences over {} lines", left.len());
            Ok(ExitCode::SUCCESS)
        }
        Some((i, l, r)) => {
            let at: Vec<&str> = l.split('\t').take(2).collect();
            println!(
                "first difference at line {} ({}):",
                i + 1,
                at.join(" position ")
            );
            println!("< {l}\n> {r}");
            for (class, n) in &per_class {
                println!("{class}: {n} differing lines");
            }
            Ok(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "diff" => match rest {
            [a, b] => diff(a, b),
            _ => Err("diff takes two transcripts".into()),
        },
        Some((cmd, _)) if cmd == "-h" || cmd == "--help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => run(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("replay: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
