//! `knapsack`: the solver on instances built from the workload's SUM and
//! AVG plans, the way `refresh::sum` builds them: profit = refresh cost,
//! weight = effective bound width, capacity = the precision constraint.

use std::hint::black_box;

use trapp_core::agg::sum::sum_weight;
use trapp_core::{Aggregate, SolverStrategy};
use trapp_knapsack::{Instance, Item};

use crate::report::Metric;

use super::{median_ns, metric, Captured};

pub fn probe(captured: &Captured) -> Vec<Metric> {
    let instances: Vec<Instance> = captured
        .plans
        .iter()
        .filter_map(|p| {
            // AVG's constraint is on the mean; scaled by the item count it
            // is a SUM constraint of the same tightness.
            let capacity = match p.agg {
                Aggregate::Sum => p.r,
                Aggregate::Avg => p.r * p.input.items.len() as f64,
                _ => return None,
            };
            let items: Vec<Item> = p
                .input
                .items
                .iter()
                .map(|i| Item::new(i.cost, sum_weight(i)))
                .collect::<Result<_, _>>()
                .ok()?;
            Instance::new(items, capacity).ok()
        })
        .collect();
    if instances.is_empty() {
        return vec![
            metric("knapsack.solve_ns", 0.0, "ns"),
            metric("knapsack.items_per_instance", 0.0, "count"),
        ];
    }
    let mut next = 0usize;
    let solve_ns = median_ns(1, || {
        let instance = black_box(&instances[next % instances.len()]);
        next += 1;
        match captured.strategy {
            SolverStrategy::Exact => black_box(instance.solve_exact()),
            SolverStrategy::Fptas(eps) => {
                black_box(instance.solve_fptas(eps).expect("valid epsilon"))
            }
            SolverStrategy::GreedyDensity => black_box(instance.solve_greedy_density()),
            SolverStrategy::GreedyByWeight => black_box(instance.solve_greedy_by_weight()),
        };
    });
    let items: usize = instances.iter().map(Instance::len).sum();
    vec![
        metric("knapsack.solve_ns", solve_ns, "ns"),
        metric(
            "knapsack.items_per_instance",
            items as f64 / instances.len() as f64,
            "count",
        ),
    ]
}
