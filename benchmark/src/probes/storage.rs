//! `storage`: the table writes a refresh install and an update cause, and
//! the change-log read every view sync starts with.

use std::hint::black_box;

use trapp_server::QueryService;
use trapp_types::{BoundedValue, TupleId};

use crate::report::Metric;

use super::{median_ns, metric, table_clone};

const LOAD: usize = 1;

pub fn probe(service: &QueryService) -> Vec<Metric> {
    let mut table = table_clone(service, 0, "metrics");
    let tids: Vec<TupleId> = table.tuple_ids().collect();
    let mut round = 0usize;

    // Alternate between two widths so no write is skipped as unchanged.
    let update_ns = median_ns(16, || {
        round += 1;
        let tid = tids[round % tids.len()];
        let pad = (1 + (round / tids.len()) % 2) as f64;
        table
            .update_cell(
                tid,
                LOAD,
                BoundedValue::bounded(75.0 - pad, 75.0 + pad).expect("ordered"),
            )
            .expect("bounded column");
    });
    let refresh_ns = median_ns(16, || {
        round += 1;
        let tid = tids[round % tids.len()];
        let value = 60.0 + ((round / tids.len()) % 2) as f64;
        table
            .refresh_cell(tid, LOAD, value)
            .expect("bounded column");
    });
    let since = table.version().saturating_sub(8);
    let changes_ns = median_ns(64, || {
        black_box(table.changes_since(black_box(since)));
    });
    vec![
        metric("storage.update_cell_ns", update_ns, "ns"),
        metric("storage.refresh_cell_ns", refresh_ns, "ns"),
        metric("storage.changes_since_ns", changes_ns, "ns"),
    ]
}
