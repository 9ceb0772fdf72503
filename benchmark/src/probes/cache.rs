//! `cache`: re-materializing every bound after a clock advance, and
//! installing fetched refreshes.

use std::time::Instant;

use trapp_server::QueryService;

use crate::driver::CLOCK_STEP;
use crate::report::Metric;
use crate::stats;
use crate::workload::Workload;

use super::{batch_of, median_ns_with, metric, Rig, RIG_BATCH, RIG_CACHE};

/// Clock advances timed on the live service. Each one re-evaluates every
/// bound of the shard, so this probe runs far fewer than `ITERATIONS`.
const ADVANCES: usize = 32;

/// Must run last on `service`: it moves the service's clock.
pub fn probe(w: &Workload, service: &QueryService) -> Vec<Metric> {
    let materialize_us: Vec<f64> = (0..ADVANCES)
        .map(|_| {
            service.advance_clock(CLOCK_STEP);
            service.with_shard_cache(0, |cache| {
                let t0 = Instant::now();
                cache.materialize().expect("bounds materialize");
                t0.elapsed().as_secs_f64() * 1e6
            })
        })
        .collect();

    let mut rig = Rig::new(w);
    let mut source = rig.source.take().expect("fresh rig");
    let mut round = 0usize;
    let install_ns = median_ns_with(
        || {
            round += 1;
            rig.clock.advance(1.0);
            let batch = batch_of(&rig.objects, round, RIG_BATCH);
            source
                .serve_refresh_batch(RIG_CACHE, &batch, rig.clock.now())
                .expect("subscribed objects")
        },
        |refreshes| {
            for refresh in refreshes {
                rig.cache.install_refresh(refresh).expect("bound object");
            }
        },
    ) / RIG_BATCH as f64;

    vec![
        metric("cache.materialize_us", stats::median(&materialize_us), "us"),
        metric("cache.install_ns_per_refresh", install_ns, "ns"),
    ]
}
