//! Figure 5: CHOOSE_REFRESH_SUM time and total refresh cost for varying ε.
//!
//! Paper setup (§5.2.1): 90 stock prices, day high/low as bounds, close as
//! the precise value, costs uniform integers 1..=10, R = 100 fixed, ε swept
//! downward from 0.1.
//!
//! Expected *shape* (the substrate differs — see DESIGN.md): planning time
//! grows as ε decreases while total refresh cost decreases only slightly;
//! the paper's conclusion is that ε below 0.1 is rarely worth it. The
//! paper's time grows quadratically, the O((3/ε)²·n) term. Ours follows
//! the DP states the solver visits — those reachable within R, on the
//! lattice of the scaled costs' gcd — plus step 4's small-item fill, so
//! O((3/ε)²·n) is its ceiling and its growth in 1/ε need not be quadratic,
//! nor even monotone.

use trapp_bench::experiments::fig5_sweep;
use trapp_bench::tablefmt::{num, render};
use trapp_core::agg::Aggregate;
use trapp_core::refresh::{choose_refresh, SolverStrategy};
use trapp_workload::stocks::StockConfig;

fn main() {
    let config = StockConfig::default(); // 90 symbols, seed 42
    let r = 100.0;
    let epsilons = [0.1, 0.08, 0.06, 0.05, 0.04, 0.03, 0.02, 0.01];

    let rows = fig5_sweep(&config, r, &epsilons, 5).expect("sweep");

    // Exact optimum as the reference line.
    let input = trapp_bench::experiments::stock_input(&config).expect("input");
    let exact = choose_refresh(Aggregate::Sum, &input, r, SolverStrategy::Exact).expect("exact");

    println!("== Figure 5: CHOOSE_REFRESH_SUM time and refresh cost vs ε ==");
    println!(
        "(90 synthetic stocks, R = {r}, seed {}; exact optimum cost = {})\n",
        config.seed,
        num(exact.planned_cost, 1)
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                num(row.epsilon, 2),
                format!("{:.3}", row.choose_refresh_secs * 1e3),
                num(row.refresh_cost, 1),
                num(row.refresh_cost / exact.planned_cost, 4),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "epsilon",
                "choose_refresh (ms)",
                "refresh cost",
                "cost / optimal"
            ],
            &table
        )
    );
    println!(
        "shape check: time({}) / time({}) = {:.1}x (paper: quadratic growth as ε shrinks)",
        epsilons.last().unwrap(),
        epsilons.first().unwrap(),
        rows.last().unwrap().choose_refresh_secs / rows[0].choose_refresh_secs.max(1e-12)
    );
}
