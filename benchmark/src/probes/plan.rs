//! `plan`: binding parsed queries against the shard catalog.

use std::hint::black_box;

use trapp_core::plan::bind_query;
use trapp_server::QueryService;

use crate::report::Metric;
use crate::workload::Workload;

use super::{median_ns, metric};

pub fn probe(w: &Workload, service: &QueryService) -> Vec<Metric> {
    let parsed: Vec<trapp_sql::Query> = w
        .distinct
        .iter()
        .map(|q| trapp_sql::parse_query(&q.sql).expect("generated SQL parses"))
        .collect();
    let mut next = 0usize;
    // Every shard holds every table's schema; shard 0's catalog will do.
    let ns = service.with_shard_cache(0, |cache| {
        let catalog = cache.session().catalog();
        median_ns(1, || {
            let q = &parsed[next % parsed.len()];
            next += 1;
            black_box(bind_query(black_box(q), catalog).expect("generated SQL binds"));
        })
    });
    vec![metric("plan.bind_ns", ns, "ns")]
}
