//! `source`: serving one batched refresh at the Refresh Monitor.

use std::hint::black_box;

use crate::report::Metric;
use crate::workload::Workload;

use super::{batch_of, median_ns, metric, Rig, RIG_BATCH, RIG_CACHE};

pub fn probe(w: &Workload) -> Vec<Metric> {
    let mut rig = Rig::new(w);
    let mut source = rig.source.take().expect("fresh rig");
    let mut round = 0usize;
    let ns = median_ns(1, || {
        round += 1;
        rig.clock.advance(1.0);
        let batch = batch_of(&rig.objects, round, RIG_BATCH);
        black_box(
            source
                .serve_refresh_batch(RIG_CACHE, &batch, rig.clock.now())
                .expect("subscribed objects"),
        );
    });
    vec![metric(
        "source.serve_batch_ns_per_object",
        ns / RIG_BATCH as f64,
        "ns",
    )]
}
