//! Criterion micro-benchmarks for the knapsack solver portfolio (the inner
//! loop of CHOOSE_REFRESH for SUM/AVG; Figure 5's time axis).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trapp_knapsack::{Instance, Item};

/// `n` items with integer costs 1..=10 and widths in `[0.1, 5)`; the
/// capacity is `fill` of the total width.
fn random_instance(n: usize, seed: u64, fill: f64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let items: Vec<Item> = (0..n)
        .map(|_| {
            Item::new(rng.gen_range(1..=10) as f64, rng.gen_range(0.1..5.0)).expect("valid item")
        })
        .collect();
    let total: f64 = items.iter().map(|i| i.weight).sum();
    Instance::new(items, total * fill).expect("valid instance")
}

/// The `hot_cache` workload's pinned SUM: 256 uniform-cost tuples of two
/// widths against `R = 8`.
fn uniform_instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let items: Vec<Item> = (0..256)
        .map(|_| Item::new(1.0, if rng.gen_bool(0.5) { 0.824 } else { 1.664 }).expect("valid item"))
        .collect();
    Instance::new(items, 8.0).expect("valid instance")
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("knapsack_solvers");
    // The DP visits only the states reachable within capacity: uniform
    // costs make that the item count, a tight capacity a small prefix.
    let uniform = uniform_instance(42);
    group.bench_with_input(
        BenchmarkId::new("fptas_0.1_uniform", 256),
        &uniform,
        |b, inst| b.iter(|| black_box(inst.solve_fptas(0.1).expect("valid eps"))),
    );
    let tight = random_instance(90, 42, 0.03);
    group.bench_with_input(
        BenchmarkId::new("fptas_0.1_tight", 90),
        &tight,
        |b, inst| b.iter(|| black_box(inst.solve_fptas(0.1).expect("valid eps"))),
    );
    for n in [30usize, 90, 270] {
        let inst = random_instance(n, 42, 0.3);
        group.bench_with_input(BenchmarkId::new("exact_bb", n), &inst, |b, inst| {
            b.iter(|| black_box(inst.solve_exact()))
        });
        group.bench_with_input(BenchmarkId::new("fptas_0.1", n), &inst, |b, inst| {
            b.iter(|| black_box(inst.solve_fptas(0.1).expect("valid eps")))
        });
        group.bench_with_input(BenchmarkId::new("fptas_0.02", n), &inst, |b, inst| {
            b.iter(|| black_box(inst.solve_fptas(0.02).expect("valid eps")))
        });
        group.bench_with_input(BenchmarkId::new("greedy_density", n), &inst, |b, inst| {
            b.iter(|| black_box(inst.solve_greedy_density()))
        });
        group.bench_with_input(BenchmarkId::new("greedy_by_weight", n), &inst, |b, inst| {
            b.iter(|| black_box(inst.solve_greedy_by_weight()))
        });
    }
    group.finish();
}

/// Figure 5's time axis as a micro-benchmark: the 90-item paper-scale
/// instance across the ε sweep.
fn bench_fig5_epsilons(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_epsilon");
    let inst = random_instance(90, 42, 0.3);
    for eps in [0.1, 0.06, 0.04, 0.02, 0.01] {
        group.bench_with_input(BenchmarkId::from_parameter(eps), &eps, |b, &eps| {
            b.iter(|| black_box(inst.solve_fptas(eps).expect("valid eps")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_fig5_epsilons);
criterion_main!(benches);
