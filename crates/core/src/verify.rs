//! Validation helpers: the two correctness properties every TRAPP answer
//! must have, checkable against arbitrary realizations of the bounds.
//!
//! 1. **Containment** — the bounded answer contains the aggregate computed
//!    over any master values consistent with the cached bounds.
//! 2. **Guarantee** — after refreshing a CHOOSE_REFRESH plan, the
//!    recomputed answer's width meets the precision constraint *whatever*
//!    the refreshed tuples' master values turn out to be.
//!
//! Tests (and the property suites) drive these with seeded random
//! realizations; a tiny internal xorshift generator keeps this crate free
//! of runtime dependencies.

use trapp_expr::Expr;
use trapp_storage::Table;
use trapp_types::{TrappError, TupleId, Value};

use crate::agg::{bounded_answer, AggInput, Aggregate, BoundedAnswer};

/// Deterministic xorshift64* generator for realizations.
#[derive(Clone, Debug)]
pub struct Realizer {
    state: u64,
}

impl Realizer {
    /// Creates a realizer from a seed (0 is remapped).
    pub fn new(seed: u64) -> Realizer {
        Realizer {
            state: seed.max(1).wrapping_mul(0x9E3779B97F4A7C15) | 1,
        }
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        (self.state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw in `[lo, hi]`.
    pub fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_unit()
    }
}

/// Produces a *realization* of `cache`: a table with every bounded cell
/// replaced by a uniform draw inside its bound. The result is a possible
/// master state consistent with the cache.
pub fn realize_table(cache: &Table, seed: u64) -> Result<Table, TrappError> {
    let mut rng = Realizer::new(seed);
    let mut out = Table::new(cache.name(), cache.schema().clone());
    for (tid, row) in cache.scan() {
        let mut cells = Vec::with_capacity(row.cells().len());
        for cell in row.cells() {
            cells.push(match cell {
                trapp_types::BoundedValue::Exact(v) => trapp_types::BoundedValue::Exact(v.clone()),
                trapp_types::BoundedValue::Bounded(b) => {
                    let v = if b.is_finite() {
                        rng.in_range(b.lo(), b.hi())
                    } else {
                        b.midpoint()
                    };
                    trapp_types::BoundedValue::Exact(Value::Float(v))
                }
            });
        }
        let new_tid = out.insert_with_cost(cells, cache.cost(tid)?)?;
        debug_assert_eq!(new_tid, tid, "realization must preserve tuple ids");
    }
    Ok(out)
}

/// The precise aggregate over a fully exact `master` table, or `None` for
/// undefined cases (AVG/MEDIAN of an empty selection).
pub fn true_answer(
    agg: Aggregate,
    master: &Table,
    predicate: Option<&Expr<usize>>,
    arg: Option<&Expr<usize>>,
) -> Result<Option<f64>, TrappError> {
    let input = AggInput::build(master, predicate, arg)?;
    debug_assert_eq!(
        input.question_count(),
        0,
        "master tables must classify definitely"
    );
    match bounded_answer(agg, &input) {
        Ok(ans) => {
            debug_assert!(ans.is_exact(), "exact inputs must give exact answers");
            Ok(Some(ans.range.lo()))
        }
        Err(TrappError::Unsupported(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Checks containment: the bounded answer computed over `cache` contains
/// the precise aggregate of `master` (which must be a realization of the
/// cache). Returns the pair `(bounded, truth)` for diagnostics.
pub fn check_containment(
    agg: Aggregate,
    cache: &Table,
    master: &Table,
    predicate: Option<&Expr<usize>>,
    arg: Option<&Expr<usize>>,
) -> Result<(BoundedAnswer, Option<f64>), TrappError> {
    let input = AggInput::build(cache, predicate, arg)?;
    let bounded = bounded_answer(agg, &input)?;
    let truth = true_answer(agg, master, predicate, arg)?;
    if let Some(v) = truth {
        // Zero tolerance: every endpoint and the truth are exact sums
        // rounded once, and rounding is monotone (ARCHITECTURE §2).
        if !bounded.range.contains(v) {
            return Err(TrappError::Internal(format!(
                "containment violated: true {agg} = {v} outside {bounded}"
            )));
        }
    }
    Ok((bounded, truth))
}

/// Applies a refresh plan against a given master realization: every tuple
/// in `plan` has its bounded cells pinned to the master values.
pub fn apply_plan(cache: &mut Table, master: &Table, plan: &[TupleId]) -> Result<(), TrappError> {
    let bounded_cols: Vec<usize> = cache
        .schema()
        .columns()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.bounded)
        .map(|(i, _)| i)
        .collect();
    for &tid in plan {
        for &c in &bounded_cols {
            let v = master.row(tid)?.exact(c)?.as_f64()?;
            cache.refresh_cell(tid, c, v)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::test_fixture::*;
    use trapp_expr::{BinaryOp, ColumnRef};

    fn col(name: &str) -> Expr<usize> {
        Expr::Column(ColumnRef::bare(name)).bind(&schema()).unwrap()
    }

    #[test]
    fn realizations_are_consistent_with_bounds() {
        let cache = links_table();
        for seed in 0..20u64 {
            let real = realize_table(&cache, seed).unwrap();
            for (tid, row) in cache.scan() {
                for (i, cell) in row.cells().iter().enumerate() {
                    let master = real.row(tid).unwrap().cell(i).unwrap();
                    match cell {
                        trapp_types::BoundedValue::Bounded(_) => {
                            assert!(
                                cell.admits(&master.as_exact().unwrap()),
                                "seed {seed}: realized cell escapes bound"
                            );
                        }
                        trapp_types::BoundedValue::Exact(v) => {
                            assert_eq!(&master.as_exact().unwrap(), v);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn containment_over_many_realizations() {
        let cache = links_table();
        let pred = Expr::binary(
            BinaryOp::Gt,
            Expr::Column(ColumnRef::bare("traffic")),
            Expr::Literal(Value::Float(100.0)),
        )
        .bind(&schema())
        .unwrap();
        for seed in 0..50u64 {
            let master = realize_table(&cache, seed).unwrap();
            for agg in [
                Aggregate::Min,
                Aggregate::Max,
                Aggregate::Sum,
                Aggregate::Avg,
            ] {
                check_containment(agg, &cache, &master, Some(&pred), Some(&col("latency")))
                    .unwrap_or_else(|e| panic!("seed {seed} {agg:?}: {e}"));
            }
            check_containment(Aggregate::Count, &cache, &master, Some(&pred), None).unwrap();
            check_containment(
                Aggregate::Median,
                &cache,
                &master,
                None,
                Some(&col("latency")),
            )
            .unwrap();
        }
    }

    #[test]
    fn true_answer_matches_hand_computation() {
        let master = master_table();
        let v = true_answer(Aggregate::Sum, &master, None, Some(&col("traffic")))
            .unwrap()
            .unwrap();
        assert_eq!(v, 644.0);
        let v = true_answer(Aggregate::Min, &master, None, Some(&col("latency")))
            .unwrap()
            .unwrap();
        assert_eq!(v, 3.0);
    }
}
