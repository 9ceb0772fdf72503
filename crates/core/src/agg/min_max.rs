//! Bounded MIN and MAX (§5.1, §6.1, Appendix C).
//!
//! Without a predicate every tuple is in `T+` and the formulas coincide:
//!
//! ```text
//! MIN: [ min over T+∪T? of Lᵢ ,  min over T+ of Hᵢ ]
//! MAX: [ max over T+ of Lᵢ ,     max over T+∪T? of Hᵢ ]
//! ```
//!
//! The asymmetry under predicates: a `T?` tuple may vanish from the
//! selection, so it can only *extend* the side of the bound it could
//! improve, never anchor the guaranteed side. Empty aggregates follow the
//! paper's footnote 1: `min(∅) = +∞`, `max(∅) = −∞`.

use trapp_expr::Band;
use trapp_types::Interval;

use super::AggInput;

/// Bounded MIN per §5.1/§6.1, both endpoints in one pass.
pub fn bounded_min(input: &AggInput) -> Interval {
    let mut lo = f64::INFINITY;
    let mut hi = f64::INFINITY;
    for item in &input.items {
        lo = lo.min(item.interval.lo());
        // A `T?` item contributes `+∞`, which leaves `hi` as it was.
        let plus_hi = match item.band {
            Band::Plus => item.interval.hi(),
            _ => f64::INFINITY,
        };
        hi = hi.min(plus_hi);
    }
    // All-T? inputs give [lo, +∞]; the fully empty input gives [+∞, +∞].
    if lo > hi {
        // Only possible when both are +∞ (empty input) — width-0 point.
        debug_assert!(lo == f64::INFINITY && hi == f64::INFINITY);
        return Interval::new_unchecked(f64::INFINITY, f64::INFINITY);
    }
    Interval::new_unchecked(lo, hi)
}

/// Bounded MAX per Appendix C (mirror of MIN), both endpoints in one pass.
pub fn bounded_max(input: &AggInput) -> Interval {
    let mut hi = f64::NEG_INFINITY;
    let mut lo = f64::NEG_INFINITY;
    for item in &input.items {
        hi = hi.max(item.interval.hi());
        let plus_lo = match item.band {
            Band::Plus => item.interval.lo(),
            _ => f64::NEG_INFINITY,
        };
        lo = lo.max(plus_lo);
    }
    if lo > hi {
        debug_assert!(lo == f64::NEG_INFINITY && hi == f64::NEG_INFINITY);
        return Interval::new_unchecked(f64::NEG_INFINITY, f64::NEG_INFINITY);
    }
    Interval::new_unchecked(lo, hi)
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

    fn on_path() -> Expr<usize> {
        Expr::binary(
            BinaryOp::Eq,
            Expr::Column(ColumnRef::bare("on_path")),
            Expr::Literal(Value::Bool(true)),
        )
        .bind(&schema())
        .unwrap()
    }

    /// Q1: bounded MIN of bandwidth over path tuples {1,2,5,6} = [40, 55].
    #[test]
    fn paper_q1_min_bandwidth() {
        let t = links_table();
        let input = AggInput::build(&t, Some(&on_path()), Some(&col("bandwidth"))).unwrap();
        assert_eq!(bounded_min(&input), Interval::new(40.0, 55.0).unwrap());
    }

    /// Q4: MIN traffic WHERE (bandwidth > 50) AND (latency < 10) = [90, 105].
    #[test]
    fn paper_q4_min_with_predicate() {
        let t = links_table();
        let pred = Expr::and(
            Expr::binary(
                BinaryOp::Gt,
                Expr::Column(ColumnRef::bare("bandwidth")),
                Expr::Literal(Value::Float(50.0)),
            ),
            Expr::binary(
                BinaryOp::Lt,
                Expr::Column(ColumnRef::bare("latency")),
                Expr::Literal(Value::Float(10.0)),
            ),
        )
        .bind(&schema())
        .unwrap();
        let input = AggInput::build(&t, Some(&pred), Some(&col("traffic"))).unwrap();
        assert_eq!(bounded_min(&input), Interval::new(90.0, 105.0).unwrap());
    }

    #[test]
    fn max_mirrors_min() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("latency"))).unwrap();
        // All T+: MAX latency = [max lo, max hi] = [12, 16].
        assert_eq!(bounded_max(&input), Interval::new(12.0, 16.0).unwrap());
        // MIN latency = [2, 4].
        assert_eq!(bounded_min(&input), Interval::new(2.0, 4.0).unwrap());
    }

    #[test]
    fn question_tuples_extend_but_cannot_anchor() {
        let t = links_table();
        // traffic > 100: T+ = {2, 4}, T? = {1, 3, 5, 6}.
        let pred = Expr::binary(
            BinaryOp::Gt,
            Expr::Column(ColumnRef::bare("traffic")),
            Expr::Literal(Value::Float(100.0)),
        )
        .bind(&schema())
        .unwrap();
        let input = AggInput::build(&t, Some(&pred), Some(&col("latency"))).unwrap();
        // MIN latency: lo over all = 2 (tuple 1, T?); hi over T+ = min(7, 11) = 7.
        assert_eq!(bounded_min(&input), Interval::new(2.0, 7.0).unwrap());
        // MAX latency: hi over all = 16 (tuple 3, T?); lo over T+ = max(5, 9) = 9.
        assert_eq!(bounded_max(&input), Interval::new(9.0, 16.0).unwrap());
    }

    #[test]
    fn empty_set_conventions() {
        let input = AggInput::default();
        let min = bounded_min(&input);
        assert_eq!(min.lo(), f64::INFINITY);
        assert_eq!(min.width(), 0.0);
        let max = bounded_max(&input);
        assert_eq!(max.hi(), f64::NEG_INFINITY);
        assert_eq!(max.width(), 0.0);
    }

    #[test]
    fn all_question_input_has_unbounded_guarantee_side() {
        let t = links_table();
        // traffic > 144.9: only tuple 4 ([120, 145]) can possibly pass and
        // no tuple certainly does, so T+ = ∅ and T? = {4}.
        let pred = Expr::binary(
            BinaryOp::Gt,
            Expr::Column(ColumnRef::bare("traffic")),
            Expr::Literal(Value::Float(144.9)),
        )
        .bind(&schema())
        .unwrap();
        let input = AggInput::build(&t, Some(&pred), Some(&col("latency"))).unwrap();
        assert_eq!(input.plus_count(), 0);
        assert!(input.question_count() > 0);
        let min = bounded_min(&input);
        assert_eq!(min.hi(), f64::INFINITY);
        assert!(min.lo().is_finite());
    }
}
