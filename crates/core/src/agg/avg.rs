//! Bounded AVG (§5.4, §6.4.1, Appendix E).
//!
//! Without a predicate `COUNT` is exact, so AVG is just the SUM bound
//! divided by the cardinality. With a predicate both SUM and COUNT are
//! uncertain; the paper gives two computations:
//!
//! * a **tight** `O(n log n)` bound (Appendix E): anchor at the `T+`
//!   average, then fold in `T?` endpoints while they improve the extreme;
//! * a **loose** linear-time bound from the SUM and COUNT intervals.
//!
//! Both are implemented; the executor reports the tight bound, while
//! CHOOSE_REFRESH_AVG guarantees the loose one (Appendix F) — which is
//! sound for the tight bound too, since tight ⊆ loose (verified by tests).

use trapp_expr::Band;
use trapp_types::{ExactSum, Interval, TrappError};

use super::count::bounded_count;
use super::sum::bounded_sum;
use super::AggInput;

/// Tight bounded AVG (Appendix E).
///
/// Lower endpoint: start from `S_L/K_L` = sum/count of `T+` low endpoints;
/// walk `T?` low endpoints in increasing order, averaging each in while it
/// decreases the running mean. Upper endpoint mirrors with high endpoints
/// in decreasing order. Every running sum is exact ([`ExactSum`]), so the
/// bound does not depend on the items' order.
///
/// Degenerate cases (the paper leaves them implicit):
/// * `T+ = T? = ∅` (certainly empty set) — an error: AVG is undefined;
/// * `T+ = ∅, T? ≠ ∅` — the answer is conditioned on the selection being
///   non-empty: the extreme averages are the single smallest low / largest
///   high endpoints.
pub fn bounded_avg_tight(input: &AggInput) -> Result<Interval, TrappError> {
    if input.items.is_empty() {
        return Err(TrappError::Unsupported(
            "AVG over a certainly-empty selection is undefined".into(),
        ));
    }
    // One pass for both endpoints: the `T+` sums and the `T?` endpoints
    // to fold in.
    let (mut sl, mut sh) = (ExactSum::new(), ExactSum::new());
    let (mut lows, mut highs) = (Vec::new(), Vec::new());
    for item in &input.items {
        let (lo, hi) = (item.interval.lo(), item.interval.hi());
        match item.band {
            Band::Plus => {
                sl.add(lo);
                sh.add(hi);
            }
            Band::Question => {
                lows.push(lo);
                highs.push(hi);
            }
            Band::Minus => {}
        }
    }
    let k = input.plus_count();
    lows.sort_by(f64::total_cmp);
    highs.sort_by(|a, b| f64::total_cmp(b, a));
    let lo = extreme_mean(sl, k, &lows, |x, mean| x < mean);
    let hi = extreme_mean(sh, k, &highs, |x, mean| x > mean);
    let (lo, hi) = step_out(input, lo, hi);
    Interval::new(lo, hi)
}

/// How far both AVG bounds step each endpoint outward, in ulps, when `T?`
/// tuples exist among three or more items ([`step_out`]). The greedy then
/// picks subsets by rounded comparisons, and its mean and the exact
/// answer's (each rounded twice) can lie about `6u·|mean|` apart where
/// they tie in real arithmetic; each step moves at least `u·|mean|`
/// (ARCHITECTURE §2). Without `T?` bound and answer divide by one count,
/// and with at most two items every mean is one rounded sum of the same
/// terms: monotone rounding needs no step.
const AVG_STEP_ULPS: usize = 8;

/// Steps `lo` down and `hi` up by [`AVG_STEP_ULPS`] where `input` needs it.
pub(crate) fn step_out(input: &AggInput, mut lo: f64, mut hi: f64) -> (f64, f64) {
    if input.question_count() > 0 && input.items.len() > 2 {
        for _ in 0..AVG_STEP_ULPS {
            lo = lo.next_down();
            hi = hi.next_up();
        }
    }
    (lo, hi)
}

/// One endpoint of the tight AVG: from the `T+` anchor `sum / k`, average
/// in the sorted `T?` endpoints while each `improves` the running mean.
/// With `k = 0` the mean is conditioned on a non-empty selection: the
/// first (most extreme) endpoint alone — averaging in anything no more
/// extreme cannot improve it.
fn extreme_mean(
    mut sum: ExactSum,
    mut k: usize,
    sorted: &[f64],
    improves: impl Fn(f64, f64) -> bool,
) -> f64 {
    if k == 0 {
        return sorted[0];
    }
    for &x in sorted {
        if improves(x, sum.read() / k as f64) {
            sum.add(x);
            k += 1;
        } else {
            break;
        }
    }
    sum.read() / k as f64
}

/// Loose bounded AVG (§6.4.1): derived from the SUM and COUNT bounds,
///
/// ```text
/// [ min(L_SUM/H_COUNT, L_SUM/L_COUNT), max(H_SUM/L_COUNT, H_SUM/H_COUNT) ]
/// ```
///
/// `L_COUNT` is clamped to at least 1 — the bound is conditioned on the
/// selection being non-empty, like the tight computation — and both
/// endpoints take the tight bound's outward step.
pub fn bounded_avg_loose(input: &AggInput) -> Result<Interval, TrappError> {
    if input.items.is_empty() {
        return Err(TrappError::Unsupported(
            "AVG over a certainly-empty selection is undefined".into(),
        ));
    }
    let sum = bounded_sum(input);
    let count = bounded_count(input);
    let lc = count.lo().max(1.0);
    let hc = count.hi().max(1.0);
    let lo = (sum.lo() / hc).min(sum.lo() / lc);
    let hi = (sum.hi() / lc).max(sum.hi() / hc);
    let (lo, hi) = step_out(input, lo, hi);
    Interval::new(lo, hi)
}

/// Bounded AVG without a predicate (§5.4): SUM bound over the exact
/// cardinality. Provided for clarity/documentation; for all-`T+` inputs it
/// coincides with [`bounded_avg_tight`].
pub fn bounded_avg_no_predicate(input: &AggInput) -> Result<Interval, TrappError> {
    if input.items.is_empty() {
        return Err(TrappError::Unsupported(
            "AVG over an empty table is undefined".into(),
        ));
    }
    debug_assert_eq!(input.question_count(), 0, "use the predicate-aware path");
    let n = input.items.len() as f64;
    let sum = bounded_sum(input);
    Interval::new(sum.lo() / n, sum.hi() / n)
}

#[cfg(test)]
mod tests {
    use super::super::test_fixture::*;
    use super::super::AggInput;
    use super::*;
    use trapp_expr::{BinaryOp, ColumnRef, Expr};
    use trapp_types::Value;

    fn col(name: &str) -> Expr<usize> {
        Expr::Column(ColumnRef::bare(name)).bind(&schema()).unwrap()
    }

    fn traffic_gt_100() -> Expr<usize> {
        Expr::binary(
            BinaryOp::Gt,
            Expr::Column(ColumnRef::bare("traffic")),
            Expr::Literal(Value::Float(100.0)),
        )
        .bind(&schema())
        .unwrap()
    }

    /// Q6 / Appendix E worked example: AVG latency WHERE traffic > 100.
    /// Tight bound = [SL/KL, SH/KH] = [20/4, 34/3] = [5, 11.3̄].
    #[test]
    fn paper_q6_tight_bound() {
        let t = links_table();
        let input = AggInput::build(&t, Some(&traffic_gt_100()), Some(&col("latency"))).unwrap();
        let tight = bounded_avg_tight(&input).unwrap();
        assert!((tight.lo() - 5.0).abs() < 1e-12);
        assert!((tight.hi() - 34.0 / 3.0).abs() < 1e-12);
    }

    /// §6.4.1: the loose bound for Q6 is [LSUM/HCOUNT…] = [14/6, 55/2] =
    /// [2.3̄, 27.5], strictly looser than the tight bound.
    #[test]
    fn paper_q6_loose_bound() {
        let t = links_table();
        let input = AggInput::build(&t, Some(&traffic_gt_100()), Some(&col("latency"))).unwrap();
        let loose = bounded_avg_loose(&input).unwrap();
        assert!((loose.lo() - 14.0 / 6.0).abs() < 1e-12);
        assert!((loose.hi() - 27.5).abs() < 1e-12);
        let tight = bounded_avg_tight(&input).unwrap();
        assert!(loose.contains_interval(tight));
    }

    /// Q3: AVG traffic without predicate = SUM/6 = [600/6, 695/6] = [100, 115.8̄].
    #[test]
    fn paper_q3_no_predicate() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("traffic"))).unwrap();
        let avg = bounded_avg_no_predicate(&input).unwrap();
        assert!((avg.lo() - 100.0).abs() < 1e-12);
        assert!((avg.hi() - 695.0 / 6.0).abs() < 1e-12);
        // The tight path agrees when everything is T+.
        let tight = bounded_avg_tight(&input).unwrap();
        assert!((tight.lo() - avg.lo()).abs() < 1e-12);
        assert!((tight.hi() - avg.hi()).abs() < 1e-12);
    }

    #[test]
    fn empty_avg_is_an_error() {
        let input = AggInput::default();
        assert!(bounded_avg_tight(&input).is_err());
        assert!(bounded_avg_loose(&input).is_err());
        assert!(bounded_avg_no_predicate(&input).is_err());
    }

    #[test]
    fn all_question_input_uses_extremes() {
        let t = links_table();
        // traffic > 119: tuple 2 [110,120] is T? (possible, not certain);
        // others with hi ≤ 119 are T−; tuple 4 [120,145] is T+ actually.
        // Use > 144.9 so that only tuple 4 remains and only as T?.
        let pred = Expr::binary(
            BinaryOp::Gt,
            Expr::Column(ColumnRef::bare("traffic")),
            Expr::Literal(Value::Float(144.9)),
        )
        .bind(&schema())
        .unwrap();
        let input = AggInput::build(&t, Some(&pred), Some(&col("latency"))).unwrap();
        assert_eq!(input.plus_count(), 0);
        assert_eq!(input.question_count(), 1);
        // Conditioned on non-emptiness the average is tuple 4's latency.
        let tight = bounded_avg_tight(&input).unwrap();
        assert_eq!(tight, Interval::new(9.0, 11.0).unwrap());
    }

    /// Property: the tight bound is always contained in the loose bound.
    #[test]
    fn tight_within_loose_for_various_predicates() {
        let t = links_table();
        for threshold in [90.0, 95.0, 100.0, 105.0, 110.0, 120.0, 140.0] {
            let pred = Expr::binary(
                BinaryOp::Gt,
                Expr::Column(ColumnRef::bare("traffic")),
                Expr::Literal(Value::Float(threshold)),
            )
            .bind(&schema())
            .unwrap();
            let input = AggInput::build(&t, Some(&pred), Some(&col("latency"))).unwrap();
            if input.items.is_empty() {
                continue;
            }
            let tight = bounded_avg_tight(&input).unwrap();
            let loose = bounded_avg_loose(&input).unwrap();
            assert!(
                loose.contains_interval(tight),
                "threshold {threshold}: tight {tight} ⊄ loose {loose}"
            );
        }
    }
}
