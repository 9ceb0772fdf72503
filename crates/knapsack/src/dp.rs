//! Exact dynamic programming over integer profits.
//!
//! The classic profit-indexed DP: `min_w[q]` is the minimum weight
//! achieving scaled profit exactly `q`. Real-valued *weights* are fine here
//! (they only participate in min/+), which is what makes this DP the
//! workhorse inside the FPTAS. As a public solver it is exact when all
//! profits are integers — true for the paper's experimental cost model
//! (uniform integer costs 1..=10).
//!
//! The textbook table is `n × (qmax + 1)` cells — `O(n · ΣP)`, and the
//! FPTAS's `O((3/ε)²·n)` — whatever the instance. [`profit_dp`] visits only
//! the states an answer can use. Two prunings do it, and neither changes
//! the output: every state within capacity ends with the textbook value
//! and take-bit, so the best state, its reconstruction and the FPTAS's
//! step-4 scan are unchanged.
//!
//! 1. **The profit lattice.** Every reachable profit is a sum of item
//!    profits, so a multiple of their gcd `g` (zeros ignored, `g ≥ 1`).
//!    State `s` stands for profit `s·g`, over `⌊qmax/g⌋ + 1` columns; the
//!    textbook columns between lattice points stay `∞` forever. With
//!    uniform refresh costs every scaled profit is the same `g`, so the
//!    table is the item *count*.
//! 2. **The feasible frontier.** Weights are `≥ 0`, so a candidate built on
//!    a state over capacity is over capacity too: an infeasible state never
//!    leads to a feasible one. The DP writes only candidates within
//!    capacity, and descends item `i`'s loop from `min(qmax, hi + qᵢ)`,
//!    where `hi` is the highest state written so far — every predecessor
//!    above it is `∞`. Both DPs update only on a strict improvement, so a
//!    state within capacity sees the same candidates in the same order in
//!    both, and reconstruction from such a state walks only such states.
//!
//! An item then costs about `hi/g + 1` cells, not `qmax + 1`: `hi` grows
//! with the profit the capacity can hold, not with the table size.

use crate::{branch_bound, finish, Instance, Solution};

/// Bit-matrix recording, per (item-layer, profit) state, whether the item
/// was taken — needed to reconstruct the chosen set from the DP.
struct TakeBits {
    bits: Vec<u64>,
    cols: usize,
}

impl TakeBits {
    fn new(rows: usize, cols: usize) -> TakeBits {
        let words_per_row = cols.div_ceil(64);
        TakeBits {
            bits: vec![0u64; rows * words_per_row],
            cols: words_per_row,
        }
    }

    #[inline]
    fn set(&mut self, row: usize, col: usize) {
        let idx = row * self.cols + col / 64;
        self.bits[idx] |= 1u64 << (col % 64);
    }

    #[inline]
    fn get(&self, row: usize, col: usize) -> bool {
        let idx = row * self.cols + col / 64;
        self.bits[idx] & (1u64 << (col % 64)) != 0
    }
}

/// A filled profit table: per lattice state, the least weight reaching it
/// and the take-bits to rebuild the set that does.
pub(crate) struct ProfitTable {
    /// The lattice step `g`: state `s` stands for scaled profit `s·g`.
    pub(crate) step: usize,
    /// `min_w[s]`: the least weight reaching scaled profit `s·step`
    /// (`f64::INFINITY` when no set within capacity reaches it).
    pub(crate) min_w: Vec<f64>,
    take: TakeBits,
}

impl ProfitTable {
    /// Walks the take-bits back from state `s`, returning item indices.
    pub(crate) fn reconstruct(&self, scaled: &[u64], mut s: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for i in (0..scaled.len()).rev() {
            if s == 0 {
                break;
            }
            if self.take.get(i, s) {
                out.push(i);
                s -= scaled[i] as usize / self.step;
            }
        }
        debug_assert_eq!(s, 0, "DP reconstruction must land at profit 0");
        out.reverse();
        out
    }
}

/// Builds a [`ProfitTable`] from `(scaled, weights, qmax, capacity)`. The
/// solvers take it as a parameter so tests can run them over the textbook
/// table.
pub(crate) type ProfitDp = fn(&[u64], &[f64], usize, f64) -> ProfitTable;

#[cfg(test)]
thread_local! {
    /// DP cells visited on this thread: the tests' work counter.
    pub(crate) static CELLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Profit-indexed 0/1 knapsack DP over pre-scaled integer profits, on the
/// profit lattice and below the feasible frontier (see the module docs).
///
/// `scaled[i]` is item `i`'s integer profit (`≤ qmax`); `weights[i]` its
/// real weight, `≥ 0`. States over `capacity` are never written.
pub(crate) fn profit_dp(
    scaled: &[u64],
    weights: &[f64],
    qmax: usize,
    capacity: f64,
) -> ProfitTable {
    let step = scaled.iter().fold(0, |g, &q| gcd(g, q)).max(1) as usize;
    let top = qmax / step;
    let mut min_w = vec![f64::INFINITY; top + 1];
    min_w[0] = 0.0;
    let mut take = TakeBits::new(scaled.len(), top + 1);
    // The highest state written so far: every state above it is ∞.
    let mut hi = 0;
    for (i, (&q, &wi)) in scaled.iter().zip(weights).enumerate() {
        let si = q as usize / step;
        if si == 0 {
            // Zero-profit items never improve any state (weights ≥ 0).
            continue;
        }
        let end = top.min(hi + si);
        #[cfg(test)]
        CELLS.with(|c| c.set(c.get() + (end + 1).saturating_sub(si) as u64));
        // Descend so each item is used at most once.
        for s in (si..=end).rev() {
            let cand = min_w[s - si] + wi;
            if cand <= capacity && cand < min_w[s] {
                min_w[s] = cand;
                take.set(i, s);
                hi = hi.max(s);
            }
        }
    }
    ProfitTable { step, min_w, take }
}

/// Threshold above which the profit table would be unreasonably large and
/// branch-and-bound takes over. It tests the textbook `qmax`, not the
/// lattice's, so the fallback fires on the same instances as before the
/// prunings.
const MAX_TABLE: usize = 5_000_000;

/// Exact solve for integral profits over the table `dp` builds; see
/// [`Instance::solve_dp_by_profit`].
pub(crate) fn solve_integral_profits(inst: &Instance, dp: ProfitDp) -> Solution {
    let cap = inst.capacity();
    let items = inst.items();

    let mut free: Vec<usize> = Vec::new();
    let mut active: Vec<usize> = Vec::new();
    for (i, it) in items.iter().enumerate() {
        if it.weight == 0.0 {
            free.push(i);
        } else if it.weight <= cap {
            active.push(i);
        }
    }

    let scaled: Vec<u64> = active.iter().map(|&i| items[i].profit as u64).collect();
    let qmax: usize = scaled.iter().map(|&q| q as usize).sum();
    if qmax > MAX_TABLE {
        return branch_bound::solve(inst, 50_000_000);
    }

    let weights: Vec<f64> = active.iter().map(|&i| items[i].weight).collect();
    let table = dp(&scaled, &weights, qmax, cap);

    let best = table.min_w.iter().rposition(|&w| w <= cap).unwrap_or(0);
    let mut chosen: Vec<usize> = table
        .reconstruct(&scaled, best)
        .into_iter()
        .map(|k| active[k])
        .collect();
    chosen.extend_from_slice(&free);
    // Exactness holds when profits were integral to begin with.
    let integral = active.iter().all(|&i| items[i].profit.fract() == 0.0);
    finish(items, chosen, integral)
}

#[cfg(test)]
mod tests {
    use super::{solve_integral_profits, ProfitTable, TakeBits, CELLS};
    use crate::{fptas, Instance, Item, Solution};

    /// The textbook table the solvers ran on before the lattice and the
    /// frontier: every state up to `qmax`, candidates over capacity written
    /// too. The oracle the pruned table must reproduce.
    fn full_table(scaled: &[u64], weights: &[f64], qmax: usize, _capacity: f64) -> ProfitTable {
        let n = scaled.len();
        let mut min_w = vec![f64::INFINITY; qmax + 1];
        min_w[0] = 0.0;
        let mut take = TakeBits::new(n, qmax + 1);
        for i in 0..n {
            let qi = scaled[i] as usize;
            if qi == 0 {
                continue;
            }
            CELLS.with(|c| c.set(c.get() + (qmax + 1).saturating_sub(qi) as u64));
            let wi = weights[i];
            for q in (qi..=qmax).rev() {
                let cand = min_w[q - qi] + wi;
                if cand < min_w[q] {
                    min_w[q] = cand;
                    take.set(i, q);
                }
            }
        }
        ProfitTable {
            step: 1,
            min_w,
            take,
        }
    }

    /// Runs `solve`, returning its answer and the DP cells it visited.
    fn with_cells(solve: impl FnOnce() -> Solution) -> (Solution, u64) {
        CELLS.with(|c| c.set(0));
        let s = solve();
        (s, CELLS.with(|c| c.get()))
    }

    /// SplitMix64: a seeded generator for the property loop.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// `hot_cache`'s pinned SUM: 256 uniform-cost tuples of two widths,
    /// `R = 8`, so nine narrow ones fit.
    fn hot_cache_shape(rng: &mut Rng) -> Instance {
        let items: Vec<(f64, f64)> = (0..256)
            .map(|_| (1.0, [0.824, 1.664][rng.below(2) as usize]))
            .collect();
        inst(&items, 8.0)
    }

    /// The instance shapes CHOOSE_REFRESH hands the solvers, plus the
    /// degenerate ones: zero-weight and zero-profit items, capacity 0 and
    /// capacity at least the total weight.
    fn arb_instance(rng: &mut Rng) -> Instance {
        let shape = rng.below(8);
        if shape == 0 {
            return hot_cache_shape(rng);
        }
        let n = rng.below(41) as usize;
        let few_widths = rng.below(2) == 0;
        let degenerate_items = rng.below(4) == 0;
        let items: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                let mut profit = match shape {
                    1 | 2 => 1.0 + rng.below(2) as f64,
                    3 | 4 => 1.0 + rng.below(10) as f64,
                    _ => 10.0 * rng.unit(),
                };
                let mut weight = if few_widths {
                    [0.824, 1.664, 2.5][rng.below(3) as usize]
                } else {
                    5.0 * rng.unit()
                };
                if degenerate_items && rng.below(4) == 0 {
                    weight = 0.0;
                }
                if degenerate_items && rng.below(8) == 0 {
                    profit = 0.0;
                }
                (profit, weight)
            })
            .collect();
        let total: f64 = items.iter().map(|&(_, w)| w).sum();
        let cap = match rng.below(6) {
            0 => 0.0,
            1 => total + rng.unit(),
            2 => 0.03 * total,
            _ => total * rng.unit(),
        };
        inst(&items, cap)
    }

    fn assert_bit_identical(what: std::fmt::Arguments<'_>, got: &Solution, want: &Solution) {
        assert!(
            got.chosen == want.chosen
                && got.profit.to_bits() == want.profit.to_bits()
                && got.weight.to_bits() == want.weight.to_bits()
                && got.optimal == want.optimal,
            "{what}: pruned table gave {got:?}, textbook table {want:?}"
        );
    }

    #[test]
    fn pruned_table_is_bit_identical_to_the_textbook_table() {
        // 10⁴+ cases in release (CI's view-maintenance job); a smoke count
        // in debug.
        let cases = if cfg!(debug_assertions) { 150 } else { 10_000 };
        let mut rng = Rng(0x7A3F_0D15);
        for case in 0..cases {
            let inst = arb_instance(&mut rng);
            // ε = 0.01 one case in sixteen: its textbook table is 180,001
            // states wide, and the oracle pays every one.
            let eps = match rng.below(16) {
                0 => 0.01,
                k => [0.05, 0.1, 0.3][k as usize % 3],
            };
            assert_bit_identical(
                format_args!("FPTAS, case {case}, eps {eps}, {inst:?}"),
                &inst.solve_fptas(eps).unwrap(),
                &fptas::solve(&inst, eps, full_table),
            );
            assert_bit_identical(
                format_args!("DP, case {case}, {inst:?}"),
                &inst.solve_dp_by_profit(),
                &solve_integral_profits(&inst, full_table),
            );
        }
    }

    #[test]
    fn uniform_costs_visit_a_lattice_of_item_counts() {
        let i = hot_cache_shape(&mut Rng(42));
        let (got, cells) = with_cells(|| i.solve_fptas(0.1).unwrap());
        let (want, textbook) = with_cells(|| fptas::solve(&i, 0.1, full_table));
        assert_bit_identical(format_args!("hot_cache shape"), &got, &want);
        // At most ten states (0..=9 items) per item, against ⌊2/δ²⌋ + 1.
        assert!(cells <= 256 * 10, "visited {cells} cells");
        assert!(textbook >= 256 * 1_600, "textbook visited {textbook}");
    }

    #[test]
    fn a_tight_capacity_visits_under_half_the_textbook_cells() {
        // Figure 5's 90 tuples, integer costs 1..=10, at 3 % capacity.
        let mut rng = Rng(90);
        let items: Vec<(f64, f64)> = (0..90)
            .map(|_| (1.0 + rng.below(10) as f64, 0.1 + 4.9 * rng.unit()))
            .collect();
        let total: f64 = items.iter().map(|&(_, w)| w).sum();
        let i = inst(&items, 0.03 * total);
        let (got, cells) = with_cells(|| i.solve_fptas(0.1).unwrap());
        let (want, textbook) = with_cells(|| fptas::solve(&i, 0.1, full_table));
        assert_bit_identical(format_args!("tight 90"), &got, &want);
        assert!(
            2 * cells < textbook,
            "visited {cells} of the textbook {textbook}"
        );
    }

    fn inst(items: &[(f64, f64)], cap: f64) -> Instance {
        Instance::new(
            items
                .iter()
                .map(|&(p, w)| Item::new(p, w).unwrap())
                .collect(),
            cap,
        )
        .unwrap()
    }

    #[test]
    fn dp_matches_branch_and_bound_on_integer_profits() {
        let cases: Vec<(Vec<(f64, f64)>, f64)> = vec![
            (
                vec![
                    (6.0, 2.0),
                    (5.0, 3.0),
                    (8.0, 6.0),
                    (9.0, 7.0),
                    (6.0, 5.0),
                    (7.0, 9.0),
                    (3.0, 4.0),
                ],
                9.0,
            ),
            (vec![(3.0, 2.0), (6.0, 2.0), (4.0, 3.0), (2.0, 2.0)], 5.0),
            (vec![(1.0, 0.5), (2.0, 1.5), (3.0, 2.25)], 3.0),
            (vec![(5.0, 0.0), (7.0, 3.0)], 1.0),
        ];
        for (items, cap) in cases {
            let i = inst(&items, cap);
            let dp = i.solve_dp_by_profit();
            let bb = i.solve_exact();
            assert!(dp.optimal && bb.optimal);
            assert!(
                (dp.profit - bb.profit).abs() < 1e-9,
                "items {items:?} cap {cap}: dp {} vs bb {}",
                dp.profit,
                bb.profit
            );
            assert!(dp.weight <= cap);
        }
    }

    #[test]
    fn dp_with_fractional_profits_is_flagged_inexact() {
        let i = inst(&[(1.5, 1.0), (1.5, 1.0)], 1.0);
        let s = i.solve_dp_by_profit();
        assert!(!s.optimal); // floors 1.5 → 1, so exactness is not promised
        assert!(s.weight <= 1.0);
    }

    #[test]
    fn real_weights_are_respected_exactly() {
        // Two items of weight 0.6 cannot both fit capacity 1.0.
        let i = inst(&[(1.0, 0.6), (1.0, 0.6)], 1.0);
        let s = i.solve_dp_by_profit();
        assert_eq!(s.chosen.len(), 1);
        assert!(s.weight <= 1.0);
    }
}
