//! `agg`: the bounded answer of each aggregate over inputs the workload's
//! queries produced.

use std::hint::black_box;

use trapp_core::{bounded_answer, Aggregate};

use crate::report::Metric;

use super::{median_ns, metric, Captured};

pub fn probe(captured: &Captured) -> Vec<Metric> {
    [
        (Aggregate::Sum, "sum"),
        (Aggregate::Avg, "avg"),
        (Aggregate::Min, "min"),
        (Aggregate::Count, "count"),
    ]
    .into_iter()
    .map(|(agg, label)| {
        let name = format!("agg.bounded_answer_ns_per_item.{label}");
        // A workload that never answered this aggregate reads 0.
        let per_item = captured
            .answers
            .iter()
            .find(|(a, input)| *a == agg && !input.items.is_empty())
            .map_or(0.0, |(_, input)| {
                median_ns(1, || {
                    black_box(bounded_answer(agg, black_box(input)).expect("classified input"));
                }) / input.items.len() as f64
            });
        metric(&name, per_item, "ns")
    })
    .collect()
}
