//! Bounded SUM (§5.2, §6.2).
//!
//! Without a predicate: `[Σ Lᵢ, Σ Hᵢ]`. With one, each `T?` tuple might
//! contribute nothing, so its bound is extended to include 0 before summing:
//!
//! ```text
//! L_A = Σ_{T+} Lᵢ + Σ_{T?, Lᵢ<0} Lᵢ
//! H_A = Σ_{T+} Hᵢ + Σ_{T?, Hᵢ>0} Hᵢ
//! ```
//!
//! which is exactly `Σ_{T+} [Lᵢ,Hᵢ] + Σ_{T?} hull([Lᵢ,Hᵢ], {0})`.

use trapp_expr::Band;
use trapp_types::{ExactSum, Interval};

use super::AggInput;

/// Bounded SUM per §5.2/§6.2: each endpoint is the exact sum of its
/// terms, rounded once ([`ExactSum`]), so the answer does not depend on
/// the items' order.
///
/// The exact answer over any realization lies between the exact endpoint
/// sums (a `T?` item that drops out adds `min(L, 0) ≤ 0` below and
/// `max(H, 0) ≥ 0` above), and it is rounded once the same way; rounding
/// is monotone, so the bound contains it with no slack.
pub fn bounded_sum(input: &AggInput) -> Interval {
    let (lo, hi) = endpoint_sums(input);
    Interval::new_unchecked(lo.read(), hi.read())
}

/// The exact lower and upper endpoint sums [`bounded_sum`] reads. Each
/// starts from a `+0.0` term, so an empty or all-`-0.0` sum reads `+0.0`.
pub(crate) fn endpoint_sums(input: &AggInput) -> (ExactSum, ExactSum) {
    let mut lo: ExactSum = [0.0].into_iter().collect();
    let mut hi = lo.clone();
    for item in &input.items {
        let iv = match item.band {
            Band::Plus => item.interval,
            _ => item.interval.extended_to_zero(),
        };
        lo.add(iv.lo());
        hi.add(iv.hi());
    }
    (lo, hi)
}

/// The knapsack weight each item contributes to CHOOSE_REFRESH_SUM
/// (§5.2 without predicate, §6.2 with): the item's *effective width* — the
/// uncertainty the answer keeps if the tuple is not refreshed.
pub fn sum_weight(item: &super::AggItem) -> f64 {
    match item.band {
        Band::Plus => item.interval.width(),
        _ => item.interval.zero_extended_width(),
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_fixture::*;
    use super::super::{AggInput, AggItem};
    use super::*;
    use trapp_expr::{BinaryOp, ColumnRef, Expr};
    use trapp_types::{TupleId, Value};

    fn col(name: &str) -> Expr<usize> {
        Expr::Column(ColumnRef::bare(name)).bind(&schema()).unwrap()
    }

    fn on_path() -> Expr<usize> {
        Expr::binary(
            BinaryOp::Eq,
            Expr::Column(ColumnRef::bare("on_path")),
            Expr::Literal(Value::Bool(true)),
        )
        .bind(&schema())
        .unwrap()
    }

    /// Q2: bounded SUM of latency over path tuples {1,2,5,6} = [19, 28].
    #[test]
    fn paper_q2_sum_latency() {
        let t = links_table();
        let input = AggInput::build(&t, Some(&on_path()), Some(&col("latency"))).unwrap();
        assert_eq!(bounded_sum(&input), Interval::new(19.0, 28.0).unwrap());
    }

    #[test]
    fn sum_without_predicate() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("traffic"))).unwrap();
        // Σ lo = 95+110+95+120+90+90 = 600; Σ hi = 105+120+110+145+110+105 = 695.
        assert_eq!(bounded_sum(&input), Interval::new(600.0, 695.0).unwrap());
    }

    /// §6.2: T? tuples with positive bounds contribute [0, H]; with negative
    /// bounds [L, 0]; straddling bounds stay as-is.
    #[test]
    fn question_bounds_are_zero_extended() {
        fn item(band: Band, lo: f64, hi: f64) -> AggItem {
            AggItem {
                tid: TupleId::new(0),
                band,
                interval: Interval::new(lo, hi).unwrap(),
                cost: 1.0,
            }
        }
        let input = AggInput::new(
            vec![
                item(Band::Plus, 10.0, 12.0),
                item(Band::Question, 5.0, 8.0),   // → [0, 8]
                item(Band::Question, -6.0, -2.0), // → [−6, 0]
                item(Band::Question, -1.0, 3.0),  // stays [−1, 3]
            ],
            0,
            (0, 0),
        );
        let s = bounded_sum(&input);
        assert_eq!(s.lo(), 10.0 - 6.0 - 1.0);
        assert_eq!(s.hi(), 12.0 + 8.0 + 3.0);
        // Weights match §6.2's W assignments.
        assert_eq!(sum_weight(&input.items[0]), 2.0);
        assert_eq!(sum_weight(&input.items[1]), 8.0); // L ≥ 0 → W = H
        assert_eq!(sum_weight(&input.items[2]), 6.0); // H ≤ 0 → W = −L
        assert_eq!(sum_weight(&input.items[3]), 4.0); // straddles → H − L
    }

    #[test]
    fn empty_sum_is_zero() {
        assert_eq!(bounded_sum(&AggInput::default()), Interval::ZERO);
    }

    /// Figure 2's W′ column: knapsack weights for AVG traffic (no
    /// predicate) are the traffic bound widths {10,10,15,25,20,15}.
    #[test]
    fn figure2_w_prime_weights() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("traffic"))).unwrap();
        let w: Vec<f64> = input.items.iter().map(sum_weight).collect();
        assert_eq!(w, vec![10.0, 10.0, 15.0, 25.0, 20.0, 15.0]);
    }
}
