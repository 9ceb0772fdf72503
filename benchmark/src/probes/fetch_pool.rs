//! `fetch_pool`: how long a submitted job waits for a pool thread, and how
//! late the timer delivers a delayed one.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use trapp_system::fetch_pool::ActorHandle;
use trapp_system::FetchPool;

use crate::report::Metric;
use crate::stats;

use super::{metric, ITERATIONS};

/// The delay the transport asks the timer for at the default RTT.
const DELAY: Duration = Duration::from_micros(200);

/// Median time from `submit` to the job's own first instruction. The job
/// stamps its start itself, so the wake-up of the waiting thread is not
/// part of the interval.
fn submit_to_start_ns(submit: impl Fn(&ActorHandle, Box<dyn FnOnce() + Send>)) -> f64 {
    let pool = FetchPool::new(2);
    let actor = pool.register();
    let (tx, rx) = mpsc::channel::<Instant>();
    let samples: Vec<f64> = (0..ITERATIONS)
        .map(|_| {
            let tx = tx.clone();
            let submitted = Instant::now();
            submit(
                &actor,
                Box::new(move || {
                    let _ = tx.send(Instant::now());
                }),
            );
            let started = rx.recv().expect("pool ran the job");
            started.duration_since(submitted).as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

pub fn probe() -> Vec<Metric> {
    let dispatch_ns = submit_to_start_ns(|actor, job| actor.submit(job));
    let delayed_ns = submit_to_start_ns(|actor, job| actor.submit_after(DELAY, job));
    vec![
        metric("fetch_pool.dispatch_us", dispatch_ns / 1e3, "us"),
        metric(
            "fetch_pool.timer_overshoot_us",
            (delayed_ns - DELAY.as_nanos() as f64) / 1e3,
            "us",
        ),
    ]
}
