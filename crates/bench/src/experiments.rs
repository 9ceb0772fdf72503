//! Shared experiment drivers for the Figure 5 / Figure 6 reproductions.
//!
//! Both experiments run CHOOSE_REFRESH_SUM over the §5.2.1 stock workload:
//! 90 symbols, day high/low as bounds, close as the precise value, integer
//! costs 1..=10. Figure 5 fixes `R = 100` and sweeps the knapsack ε;
//! Figure 6 fixes `ε = 0.1` and sweeps `R`.

use std::time::Instant;

use trapp_core::agg::{AggInput, Aggregate};
use trapp_core::refresh::{choose_refresh, SolverStrategy};
use trapp_expr::{ColumnRef, Expr};
use trapp_types::TrappError;
use trapp_workload::stocks::{self, StockConfig};

/// One Figure 5 data point.
#[derive(Clone, Debug)]
pub struct Fig5Row {
    /// Knapsack approximation parameter.
    pub epsilon: f64,
    /// CHOOSE_REFRESH wall-clock time in seconds.
    pub choose_refresh_secs: f64,
    /// Total refresh cost of the selected tuples.
    pub refresh_cost: f64,
}

/// One Figure 6 data point.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Precision constraint `R`.
    pub r: f64,
    /// Total refresh cost (the "performance" axis).
    pub refresh_cost: f64,
}

/// Builds the SUM-over-price input for a stock workload.
pub fn stock_input(config: &StockConfig) -> Result<AggInput, TrappError> {
    let days = stocks::generate(config);
    let (cache, _master) = stocks::build_tables(&days);
    let arg = Expr::Column(ColumnRef::bare("price"))
        .bind(cache.schema())
        .expect("price column exists");
    AggInput::build(&cache, None, Some(&arg))
}

/// Figure 5: CHOOSE_REFRESH time and refresh cost as ε varies, `R` fixed.
///
/// `repeats` controls timing stability (the cost is identical across
/// repeats; the minimum time is reported, standard practice for
/// wall-clock microbenchmarks).
pub fn fig5_sweep(
    config: &StockConfig,
    r: f64,
    epsilons: &[f64],
    repeats: usize,
) -> Result<Vec<Fig5Row>, TrappError> {
    let input = stock_input(config)?;
    let mut out = Vec::with_capacity(epsilons.len());
    for &eps in epsilons {
        let mut best = f64::INFINITY;
        let mut cost = 0.0;
        for _ in 0..repeats.max(1) {
            let start = Instant::now();
            let plan = choose_refresh(Aggregate::Sum, &input, r, SolverStrategy::Fptas(eps))?;
            let dt = start.elapsed().as_secs_f64();
            best = best.min(dt);
            cost = plan.planned_cost;
        }
        out.push(Fig5Row {
            epsilon: eps,
            choose_refresh_secs: best,
            refresh_cost: cost,
        });
    }
    Ok(out)
}

/// Figure 6: refresh cost as the precision constraint varies, ε fixed.
pub fn fig6_sweep(
    config: &StockConfig,
    epsilon: f64,
    rs: &[f64],
) -> Result<Vec<Fig6Row>, TrappError> {
    let input = stock_input(config)?;
    let mut out = Vec::with_capacity(rs.len());
    for &r in rs {
        let plan = choose_refresh(Aggregate::Sum, &input, r, SolverStrategy::Fptas(epsilon))?;
        out.push(Fig6Row {
            r,
            refresh_cost: plan.planned_cost,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> StockConfig {
        StockConfig {
            symbols: 30,
            steps: 60,
            ..StockConfig::default()
        }
    }

    /// Figure 5's qualitative claims: smaller ε never increases cost by
    /// much (within the guarantee), and the cost at the smallest ε is no
    /// worse than at the largest.
    #[test]
    fn fig5_cost_improves_or_holds_as_epsilon_shrinks() {
        let rows = fig5_sweep(&quick_config(), 20.0, &[0.5, 0.1, 0.02], 1).unwrap();
        assert_eq!(rows.len(), 3);
        let coarse = rows[0].refresh_cost;
        let fine = rows[2].refresh_cost;
        assert!(fine <= coarse + 1e-9, "fine {fine} vs coarse {coarse}");
    }

    /// Figure 6's qualitative claim: the tradeoff is monotonically
    /// non-increasing in R and hits 0 once R exceeds the total width —
    /// by the fold's rounding allowance, since at exactly the total width
    /// a rounded fold can overrun R (ARCHITECTURE §2).
    #[test]
    fn fig6_tradeoff_is_monotone_and_terminates_at_zero() {
        let config = quick_config();
        let input = stock_input(&config).unwrap();
        let total_width: f64 = input.items.iter().map(|i| i.interval.width()).sum();
        let rs: Vec<f64> = (0..=10).map(|i| total_width * i as f64 / 10.0).collect();
        let rows = fig6_sweep(&config, 0.1, &rs).unwrap();
        // Approximate planning is not strictly monotone point-to-point;
        // enforce the paper's shape with a small tolerance and exact
        // endpoints.
        for w in rows.windows(2) {
            assert!(
                w[1].refresh_cost <= w[0].refresh_cost * 1.15 + 1e-9,
                "cost increased sharply: {} -> {}",
                w[0].refresh_cost,
                w[1].refresh_cost
            );
        }
        assert!(rows[0].refresh_cost > 0.0, "R=0 must refresh things");
        let free = total_width + trapp_core::refresh::fold_allowance(&input);
        assert_eq!(
            fig6_sweep(&config, 0.1, &[free]).unwrap()[0].refresh_cost,
            0.0
        );
    }

    #[test]
    fn exact_reference_cost_lower_bounds_fptas() {
        let config = quick_config();
        let input = stock_input(&config).unwrap();
        let exact = choose_refresh(Aggregate::Sum, &input, 20.0, SolverStrategy::Exact).unwrap();
        let rows = fig5_sweep(&config, 20.0, &[0.1], 1).unwrap();
        assert!(exact.planned_cost <= rows[0].refresh_cost + 1e-9);
    }
}
