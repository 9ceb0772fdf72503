//! `transport`: one batched refresh round trip through the completion
//! transport — `submit_refresh_batch(..).wait()`, the one fetch call the
//! planned transport clean-up keeps — with and without simulated wire time.

use std::hint::black_box;
use std::time::Duration;

use trapp_system::{CompletionTransport, FetchPool, Transport};

use crate::report::Metric;
use crate::workload::Workload;

use super::{batch_of, median_ns, metric, Rig, RIG_BATCH, RIG_CACHE, RIG_SOURCE};

fn round_trip_us(w: &Workload, rtt: Duration) -> f64 {
    let mut rig = Rig::new(w);
    let mut transport = CompletionTransport::new(rtt, FetchPool::new(2));
    transport.add_source(rig.source.take().expect("fresh rig"));
    let mut round = 0usize;
    median_ns(1, || {
        round += 1;
        rig.clock.advance(1.0);
        let batch = batch_of(&rig.objects, round, RIG_BATCH);
        black_box(
            transport
                .submit_refresh_batch(RIG_SOURCE, RIG_CACHE, batch, rig.clock.now())
                .wait()
                .expect("subscribed objects"),
        );
    }) / 1e3
}

pub fn probe(w: &Workload) -> Vec<Metric> {
    vec![
        metric(
            "transport.round_trip_us_rtt0",
            round_trip_us(w, Duration::ZERO),
            "us",
        ),
        metric(
            "transport.round_trip_us_rtt200",
            round_trip_us(w, Duration::from_micros(200)),
            "us",
        ),
    ]
}
