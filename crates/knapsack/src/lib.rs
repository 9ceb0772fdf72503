//! # trapp-knapsack
//!
//! 0/1 knapsack solvers for TRAPP's CHOOSE_REFRESH algorithms.
//!
//! §5.2 of the paper reduces "choose the cheapest set of tuples to refresh
//! for a SUM query with precision constraint R" to 0/1 knapsack: the items
//! are the tuples *not* refreshed, profit `Pᵢ = Cᵢ` (the refresh cost you
//! avoid paying), weight `Wᵢ = Hᵢ − Lᵢ` (the uncertainty you keep), and
//! capacity `M = R`. AVG with a predicate (Appendix F) produces the same
//! structure with adjusted weights and capacity.
//!
//! Weights are **real numbers** (bound widths), so the textbook
//! integer-weight DP does not apply. This crate provides the solver
//! portfolio the paper calls for:
//!
//! * [`Instance::solve_greedy_by_weight`] — the uniform-cost special case
//!   (§5.2): take items in increasing weight order; optimal when all profits
//!   are equal, `O(n log n)` (sub-linear with a width index upstream).
//! * [`Instance::solve_greedy_density`] — classic density greedy with the
//!   best-single-item fallback; a ½-approximation used as the FPTAS seed.
//! * [`Instance::solve_exact`] — branch-and-bound with the Dantzig
//!   (fractional-relaxation) upper bound; exact for the modest `n` of the
//!   paper's experiments, with a node budget for safety.
//! * [`Instance::solve_fptas`] — the Ibarra–Kim approximation scheme
//!   (\[IK75\]) with profit scaling and large/small item separation, profit
//!   ≥ `(1 − ε)·OPT` in `O(n log n) + O((3/ε)²·n)` time — the bound quoted
//!   in §5.2, and its worst case: the DP visits only the profit states an
//!   answer can reach within capacity.
//!
//! All solvers share two TRAPP-critical properties:
//!
//! 1. **No overfill in the solver's own arithmetic**: an item is admitted
//!    only when the solver's running total (or remaining room) says it
//!    fits, with no epsilon slack — the complement set's residual
//!    uncertainty is what guarantees the user's precision constraint.
//!    That is *not* the same as [`Solution::weight`] `≤ capacity`: each
//!    solver sums in its own order (DP layers, density or width order,
//!    search order) and [`Solution::weight`] re-sums in index order, so
//!    when the capacity is (nearly) a subset sum the reported weight can
//!    exceed it by a few ulps — the rounding of a `k`-term sum, at most
//!    about `2k·2⁻⁵³·Σwᵢ`. Every solver does this: on random instances of
//!    2–20 items with one-decimal widths and a subset-sum capacity, 0.2–0.8 %
//!    of solutions overrun, depending on the solver. The fix is upstream,
//!    not here: callers plan against a capacity certified for any
//!    summation order — its `γₙ·Σwᵢ` term pays for exactly this
//!    (`trapp_core::refresh::certified_capacity`, ARCHITECTURE §2); the
//!    answer's own endpoints are exact sums and need no such term.
//! 2. **Zero-weight items ride free**: already-exact tuples are always kept
//!    in the knapsack.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod branch_bound;
mod dp;
mod fptas;
mod greedy;

use std::fmt;

/// One knapsack item.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Item {
    /// Profit gained if the item is placed in the knapsack (`≥ 0`).
    pub profit: f64,
    /// Capacity consumed (`≥ 0`; real-valued).
    pub weight: f64,
}

impl Item {
    /// Creates an item, validating non-negativity and rejecting NaN.
    pub fn new(profit: f64, weight: f64) -> Result<Item, KnapsackError> {
        if profit.is_nan() || weight.is_nan() {
            return Err(KnapsackError::NanInput);
        }
        if profit < 0.0 {
            return Err(KnapsackError::NegativeProfit(profit));
        }
        if weight < 0.0 {
            return Err(KnapsackError::NegativeWeight(weight));
        }
        Ok(Item { profit, weight })
    }
}

/// Errors from instance construction or solving.
#[derive(Clone, Debug, PartialEq)]
pub enum KnapsackError {
    /// NaN profit, weight, or capacity.
    NanInput,
    /// A profit was negative.
    NegativeProfit(f64),
    /// A weight was negative.
    NegativeWeight(f64),
    /// Capacity was negative.
    NegativeCapacity(f64),
    /// The ε parameter was outside `(0, 1)`.
    BadEpsilon(f64),
}

impl fmt::Display for KnapsackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnapsackError::NanInput => write!(f, "knapsack inputs must not be NaN"),
            KnapsackError::NegativeProfit(p) => write!(f, "negative profit: {p}"),
            KnapsackError::NegativeWeight(w) => write!(f, "negative weight: {w}"),
            KnapsackError::NegativeCapacity(c) => write!(f, "negative capacity: {c}"),
            KnapsackError::BadEpsilon(e) => {
                write!(f, "epsilon must lie in (0, 1), got {e}")
            }
        }
    }
}

impl std::error::Error for KnapsackError {}

/// A solved knapsack: which item indices were chosen, and their totals.
#[derive(Clone, Debug, PartialEq)]
pub struct Solution {
    /// Indices (into the instance's item list) of chosen items, sorted.
    pub chosen: Vec<usize>,
    /// Total profit of the chosen set.
    pub profit: f64,
    /// Total weight of the chosen set, summed in index order (`≤ capacity`
    /// up to a few ulps of rounding; see the crate docs).
    pub weight: f64,
    /// `true` if the solver proves optimality (exact solvers within node
    /// budget); approximation schemes report `false`.
    pub optimal: bool,
}

impl Solution {
    /// The empty solution (nothing chosen; optimal when nothing fits).
    pub fn empty() -> Solution {
        Solution {
            chosen: Vec::new(),
            profit: 0.0,
            weight: 0.0,
            optimal: true,
        }
    }

    /// The complement of the chosen set over `n` items — for TRAPP, the
    /// tuples that *must be refreshed*.
    pub fn complement(&self, n: usize) -> Vec<usize> {
        let mut in_set = vec![false; n];
        for &i in &self.chosen {
            in_set[i] = true;
        }
        (0..n).filter(|&i| !in_set[i]).collect()
    }
}

/// A knapsack instance: items plus capacity.
#[derive(Clone, Debug)]
pub struct Instance {
    items: Vec<Item>,
    capacity: f64,
}

impl Instance {
    /// Creates an instance, validating capacity.
    pub fn new(items: Vec<Item>, capacity: f64) -> Result<Instance, KnapsackError> {
        if capacity.is_nan() {
            return Err(KnapsackError::NanInput);
        }
        if capacity < 0.0 {
            return Err(KnapsackError::NegativeCapacity(capacity));
        }
        Ok(Instance { items, capacity })
    }

    /// The items.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// The capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if there are no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Exact branch-and-bound solve (Dantzig bound). `node_budget` caps the
    /// search; on exhaustion the best solution found so far is returned with
    /// `optimal = false`. [`Instance::solve_exact`] uses a generous default.
    pub fn solve_exact_with_budget(&self, node_budget: u64) -> Solution {
        branch_bound::solve(self, node_budget)
    }

    /// Exact branch-and-bound solve with a default node budget of 50M
    /// (ample for the paper-scale instances; see
    /// [`Instance::solve_exact_with_budget`] to tune).
    pub fn solve_exact(&self) -> Solution {
        self.solve_exact_with_budget(50_000_000)
    }

    /// The Ibarra–Kim FPTAS: profit ≥ `(1 − ε)·OPT`, never overfilling.
    pub fn solve_fptas(&self, epsilon: f64) -> Result<Solution, KnapsackError> {
        if epsilon.is_nan() || !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(KnapsackError::BadEpsilon(epsilon));
        }
        Ok(fptas::solve(self, epsilon, dp::profit_dp))
    }

    /// Density greedy with best-single-item fallback (½-approximation).
    pub fn solve_greedy_density(&self) -> Solution {
        greedy::solve_density(self)
    }

    /// Weight-ascending greedy — optimal for uniform profits (§5.2's
    /// special case). Does not require profits to actually be uniform, but
    /// only then is the result optimal.
    pub fn solve_greedy_by_weight(&self) -> Solution {
        greedy::solve_by_weight(self)
    }

    /// Exact dynamic program over *integer* profits. Profits are rounded
    /// **down** to integers — exact when all profits are integral (as in the
    /// paper's cost model of uniform random integer costs 1..=10).
    pub fn solve_dp_by_profit(&self) -> Solution {
        dp::solve_integral_profits(self, dp::profit_dp)
    }

    /// Sum of all profits (an upper bound on any solution).
    pub fn total_profit(&self) -> f64 {
        self.items.iter().map(|i| i.profit).sum()
    }

    /// Sum of all weights.
    pub fn total_weight(&self) -> f64 {
        self.items.iter().map(|i| i.weight).sum()
    }
}

/// Builds the final [`Solution`] from chosen indices, recomputing totals in
/// index order for determinism.
pub(crate) fn finish(items: &[Item], mut chosen: Vec<usize>, optimal: bool) -> Solution {
    chosen.sort_unstable();
    chosen.dedup();
    let mut profit = 0.0;
    let mut weight = 0.0;
    for &i in &chosen {
        profit += items[i].profit;
        weight += items[i].weight;
    }
    Solution {
        chosen,
        profit,
        weight,
        optimal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_validation() {
        assert!(Item::new(1.0, 1.0).is_ok());
        assert!(Item::new(-1.0, 1.0).is_err());
        assert!(Item::new(1.0, -1.0).is_err());
        assert!(Item::new(f64::NAN, 1.0).is_err());
        assert!(Instance::new(vec![], -1.0).is_err());
        assert!(Instance::new(vec![], f64::NAN).is_err());
    }

    #[test]
    fn complement_is_the_refresh_set() {
        let sol = Solution {
            chosen: vec![0, 2],
            profit: 0.0,
            weight: 0.0,
            optimal: true,
        };
        assert_eq!(sol.complement(4), vec![1, 3]);
        assert_eq!(Solution::empty().complement(2), vec![0, 1]);
    }

    #[test]
    fn epsilon_validation() {
        let inst = Instance::new(vec![], 1.0).unwrap();
        assert!(inst.solve_fptas(0.0).is_err());
        assert!(inst.solve_fptas(1.0).is_err());
        assert!(inst.solve_fptas(f64::NAN).is_err());
        assert!(inst.solve_fptas(0.1).is_ok());
    }
}
