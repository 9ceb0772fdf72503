//! `refresh`: CHOOSE_REFRESH over the plans the workload's queries needed.

use std::hint::black_box;

use trapp_core::choose_refresh;

use crate::report::Metric;

use super::{median_ns, metric, Captured};

pub fn probe(captured: &Captured) -> Vec<Metric> {
    let mut next = 0usize;
    let choose_ns = if captured.plans.is_empty() {
        0.0
    } else {
        median_ns(1, || {
            let p = &captured.plans[next % captured.plans.len()];
            next += 1;
            black_box(
                choose_refresh(p.agg, black_box(&p.input), p.r, captured.strategy)
                    .expect("captured plan re-plans"),
            );
        })
    };
    let per_plan = |total: u64| total as f64 / captured.plans_seen.max(1) as f64;
    vec![
        metric("refresh.choose_ns", choose_ns, "ns"),
        metric(
            "refresh.candidates_per_plan",
            per_plan(captured.candidates),
            "count",
        ),
        metric(
            "refresh.chosen_per_plan",
            per_plan(captured.chosen),
            "count",
        ),
    ]
}
