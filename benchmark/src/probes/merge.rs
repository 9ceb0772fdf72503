//! `merge`: combining the per-shard partials scatter queries gathered.
//! Reads 0 on single-shard workloads, where the layer does not run.

use std::hint::black_box;

use trapp_core::{merge_grouped_partials, merge_partials, merge_table_slices};

use crate::report::Metric;

use super::{median_ns_with, metric, Captured};

/// Median merge time cycling over `sets`; 0 when nothing was captured.
fn cycle<T: Clone>(sets: &[T], mut merge: impl FnMut(T)) -> f64 {
    if sets.is_empty() {
        return 0.0;
    }
    let mut next = 0usize;
    median_ns_with(
        || {
            next += 1;
            sets[next % sets.len()].clone()
        },
        &mut merge,
    )
}

pub fn probe(captured: &Captured) -> Vec<Metric> {
    vec![
        metric(
            "merge.partials_ns",
            cycle(&captured.scalar_partials, |set| {
                black_box(merge_partials(set).expect("globally unique tuple ids"));
            }),
            "ns",
        ),
        metric(
            "merge.grouped_ns",
            cycle(&captured.grouped_partials, |set| {
                black_box(merge_grouped_partials(set).expect("globally unique tuple ids"));
            }),
            "ns",
        ),
        metric(
            "merge.table_slices_ns",
            cycle(&captured.table_slices, |(schema, slices)| {
                black_box(merge_table_slices(schema, slices).expect("dense global tuple ids"));
            }),
            "ns",
        ),
    ]
}
