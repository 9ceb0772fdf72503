//! `gateway`: a fetch that goes to the source (miss) and the same fetch
//! repeated at the same instant (hit, served from the in-flight table),
//! over a completion transport with no simulated wire time.

use std::hint::black_box;
use std::time::Duration;

use trapp_server::RefreshGateway;
use trapp_system::{CompletionTransport, FetchPool};

use crate::report::Metric;
use crate::workload::Workload;

use super::{batch_of, median_ns, metric, Rig, RIG_BATCH, RIG_CACHE, RIG_SOURCE};

pub fn probe(w: &Workload) -> Vec<Metric> {
    let mut rig = Rig::new(w);
    let mut transport = CompletionTransport::new(Duration::ZERO, FetchPool::new(2));
    transport.add_source(rig.source.take().expect("fresh rig"));
    // `true`: coalescing on, one round trip per source — the service's own
    // configuration.
    let gateway = RefreshGateway::new(transport, true);
    let mut round = 0usize;
    let miss_ns = median_ns(1, || {
        round += 1;
        rig.clock.advance(1.0);
        let plan = [(RIG_SOURCE, batch_of(&rig.objects, round, RIG_BATCH))];
        let outcome = gateway.fetch(RIG_CACHE, rig.clock.now(), &plan, true);
        assert_eq!(outcome.stats.forwarded, RIG_BATCH as u64, "expected a miss");
        black_box(outcome);
    });
    // The last miss memoized its batch at the current instant.
    let plan = [(RIG_SOURCE, batch_of(&rig.objects, round, RIG_BATCH))];
    let now = rig.clock.now();
    let hit_ns = median_ns(1, || {
        let outcome = gateway.fetch(RIG_CACHE, now, black_box(&plan), true);
        assert_eq!(outcome.stats.coalesced, RIG_BATCH as u64, "expected a hit");
        black_box(outcome);
    });
    vec![
        metric("gateway.fetch_miss_us", miss_ns / 1e3, "us"),
        metric("gateway.fetch_hit_ns", hit_ns, "ns"),
    ]
}
