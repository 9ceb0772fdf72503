//! Bounded aggregate computation (§5, §6, Appendix E).
//!
//! All aggregates consume an [`AggInput`]: the tuples of `T+ ∪ T?` with,
//! per tuple, the interval of the aggregation expression, the band, and the
//! refresh cost. Building the input performs classification (via
//! `trapp-expr`) and — when the aggregation argument is a bare column — the
//! Appendix D bound refinement.

pub mod avg;
pub mod count;
pub mod min_max;
pub mod order_stat;
pub mod sum;

use std::fmt;

use trapp_expr::{eval, implied_interval, Band, BinaryOp, Expr};
use trapp_sql::AggregateFunc;
use trapp_storage::Table;
use trapp_types::{BoundedValue, Interval, TrappError, Tri, TupleId, Value};

/// Re-export for convenience: the aggregate function enum comes from the
/// SQL layer so parsed queries and direct API calls share one type.
pub type Aggregate = AggregateFunc;

/// One tuple's contribution to an aggregate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AggItem {
    /// The tuple.
    pub tid: TupleId,
    /// `T+` or `T?` (`T−` tuples never become items).
    pub band: Band,
    /// Range of the aggregation expression over this tuple's bounds
    /// (post-refinement for `T?` tuples when applicable).
    pub interval: Interval,
    /// Refresh cost `Cᵢ`.
    pub cost: f64,
}

impl AggItem {
    /// `true` if the tuple's aggregate value is exactly known.
    pub fn is_exact(&self) -> bool {
        self.interval.is_point()
    }
}

/// The classified, evaluated input to a bounded aggregate.
#[derive(Clone, Debug, Default)]
pub struct AggInput {
    /// Items for tuples in `T+ ∪ T?`.
    ///
    /// Read freely, but **never push to this directly or flip an item's
    /// band in place** — the O(1) band counts are maintained by
    /// [`AggInput::new`] / [`AggInput::push_item`], and a bypass desyncs
    /// [`AggInput::plus_count`] (a debug assertion catches it in debug
    /// builds). Rewriting fields that don't touch `band` (e.g.
    /// tuple-id rewrites for cross-shard merging) is fine.
    pub items: Vec<AggItem>,
    /// `|T−|` (kept for diagnostics).
    pub minus_count: usize,
    /// Unpropagated `(inserts, deletes)` at the source (§8.3 relaxation);
    /// `(0, 0)` under the paper's default eager propagation.
    pub cardinality_slack: (u64, u64),
    /// `|T+|`, maintained by the constructors so the per-plan band counts
    /// are O(1) instead of re-scanning `items` on every call.
    pub(crate) plus_items: usize,
}

impl AggInput {
    /// Wraps already-classified items, counting the bands once so
    /// [`plus_count`](AggInput::plus_count) /
    /// [`question_count`](AggInput::question_count) never rescan.
    pub fn new(items: Vec<AggItem>, minus_count: usize, cardinality_slack: (u64, u64)) -> AggInput {
        let plus_items = items.iter().filter(|i| i.band == Band::Plus).count();
        AggInput {
            items,
            minus_count,
            cardinality_slack,
            plus_items,
        }
    }

    /// Appends one classified item, keeping the band counts current.
    pub fn push_item(&mut self, item: AggItem) {
        self.plus_items += usize::from(item.band == Band::Plus);
        self.items.push(item);
    }

    /// Items in `T+`.
    pub fn plus(&self) -> impl Iterator<Item = &AggItem> + '_ {
        self.items.iter().filter(|i| i.band == Band::Plus)
    }

    /// Items in `T?`.
    pub fn question(&self) -> impl Iterator<Item = &AggItem> + '_ {
        self.items.iter().filter(|i| i.band == Band::Question)
    }

    /// `|T+|`.
    pub fn plus_count(&self) -> usize {
        debug_assert_eq!(self.plus_items, self.plus().count());
        self.plus_items
    }

    /// `|T?|`.
    pub fn question_count(&self) -> usize {
        self.items.len() - self.plus_count()
    }

    /// Builds the input for `table`, classifying against `predicate` and
    /// evaluating `arg` (the aggregation expression) per surviving tuple.
    ///
    /// When `arg` is a bare column reference, `T?` bounds are refined with
    /// the predicate-implied interval (Appendix D); a refinement that
    /// empties the bound reclassifies the tuple as `T−`.
    ///
    /// `arg = None` (COUNT) evaluates every surviving tuple to the dummy
    /// point interval `[1, 1]` so COUNT can share the item pipeline.
    pub fn build(
        table: &Table,
        predicate: Option<&Expr<usize>>,
        arg: Option<&Expr<usize>>,
    ) -> Result<AggInput, TrappError> {
        AggInput::build_filtered(table, predicate, arg, |_, _| true)
    }

    /// [`AggInput::build`] restricted to tuples accepted by `filter` —
    /// used by `GROUP BY` execution to build one input per group.
    pub fn build_filtered(
        table: &Table,
        predicate: Option<&Expr<usize>>,
        arg: Option<&Expr<usize>>,
        filter: impl Fn(trapp_types::TupleId, &trapp_storage::Row) -> bool,
    ) -> Result<AggInput, TrappError> {
        let refinement = refinement_for(predicate, arg);
        let mut plus_items = Vec::new();
        let mut question_items = Vec::new();
        let mut minus_count = 0usize;
        for (tid, row) in table.scan() {
            if !filter(tid, row) {
                continue;
            }
            match classify_tuple(predicate, arg, refinement, tid, row, table.cost(tid)?)? {
                Some(item) if item.band == Band::Plus => plus_items.push(item),
                Some(item) => question_items.push(item),
                None => minus_count += 1,
            }
        }
        // Canonical item order: all `T+` items in scan order, then all
        // `T?` items in scan order — the order every downstream consumer
        // (tie-breaking, knapsack indexing, merging) is keyed to.
        let plus_len = plus_items.len();
        let mut items = plus_items;
        items.append(&mut question_items);
        Ok(AggInput {
            items,
            minus_count,
            cardinality_slack: table.cardinality_slack(),
            plus_items: plus_len,
        })
    }
}

/// The Appendix D refinement interval for a `(predicate, arg)` pair: the
/// predicate-implied range of the aggregation column when the aggregation
/// argument is a bare column reference, `None` otherwise.
pub(crate) fn refinement_for(
    predicate: Option<&Expr<usize>>,
    arg: Option<&Expr<usize>>,
) -> Option<Interval> {
    match (predicate, arg) {
        (Some(pred), Some(Expr::Column(c))) => Some(implied_interval(pred, *c)),
        _ => None,
    }
}

/// The per-tuple classification + evaluation step of
/// [`AggInput::build_filtered`], and the reference [`Classifier`] — the
/// band views' step ([`crate::view`]) — falls back to: classifies `row`
/// against `predicate`, evaluates `arg` through the expression
/// interpreter, and applies the Appendix D refinement. Returns `None`
/// when the tuple lands in `T−` (including a `T?` tuple reclassified
/// because the refinement emptied its bound).
pub(crate) fn classify_tuple(
    predicate: Option<&Expr<usize>>,
    arg: Option<&Expr<usize>>,
    refinement: Option<Interval>,
    tid: TupleId,
    row: &trapp_storage::Row,
    cost: f64,
) -> Result<Option<AggItem>, TrappError> {
    let band = match predicate {
        None => Band::Plus,
        Some(pred) => Band::from_tri(trapp_expr::eval::eval_predicate(pred, row)?),
    };
    if band == Band::Minus {
        return Ok(None);
    }
    let interval = match arg {
        Some(e) => eval(e, row)?.as_interval()?,
        None => Interval::new_unchecked(1.0, 1.0),
    };
    Ok(refine(band, interval, refinement, tid, cost))
}

/// The tail of the per-tuple step, shared by [`classify_tuple`] and
/// [`Classifier`]: the item of a `T+`/`T?` tuple whose aggregation
/// expression ranges over `interval`, after the Appendix D refinement.
fn refine(
    band: Band,
    interval: Interval,
    refinement: Option<Interval>,
    tid: TupleId,
    cost: f64,
) -> Option<AggItem> {
    // Appendix D refinement: only sound for T? tuples (T+ tuples are
    // already known to satisfy the predicate, their values need no
    // conditioning — and for them the restriction holds anyway, so
    // intersecting is sound there too; we apply it to both for tighter
    // bounds).
    let interval = match refinement {
        Some(s) => match interval.intersect(s) {
            Some(iv) => iv,
            // A T+ tuple certainly satisfies the predicate, yet its value
            // range is disjoint from what the predicate implies — only
            // possible through conservative classification; keep the
            // original interval. A T? tuple cannot satisfy the predicate:
            // actually T−.
            None if band == Band::Plus => interval,
            None => return None,
        },
        None => interval,
    };
    Some(AggItem {
        tid,
        band,
        interval,
        cost,
    })
}

/// The per-tuple step of the band views ([`crate::view`]): [`classify_tuple`]
/// for one `(predicate, arg)`, compiled once.
///
/// The shapes the serving layer runs most — a bare-column argument (or
/// none), and a predicate that is absent or an `AND` chain of numeric
/// `column op literal` comparisons (literal on either side) — are read
/// straight off the row: each comparison calls the `Interval::tri_*`
/// method the interpreter would, on the operands in the order it would,
/// and the chain folds with the same Kleene `AND`. Every other shape, and
/// every row whose cell is not numeric, goes through [`classify_tuple`],
/// which stays the reference: the two agree bit for bit, errors included
/// (property-tested).
pub(crate) struct Classifier {
    predicate: Option<Expr<usize>>,
    arg: Option<Expr<usize>>,
    refinement: Option<Interval>,
    /// The compiled form, when the shape has one.
    direct: Option<Direct>,
}

/// A shape [`Classifier`] reads straight off the row.
struct Direct {
    /// The aggregation column; `None` is COUNT's unit interval.
    arg: Option<usize>,
    /// The predicate's conjuncts; none is no predicate.
    tests: Vec<Test>,
}

/// One `column op literal` conjunct.
struct Test {
    column: usize,
    op: BinaryOp,
    literal: Interval,
    /// The literal is the left operand (`5 < load`).
    literal_left: bool,
}

impl Classifier {
    pub(crate) fn new(predicate: Option<&Expr<usize>>, arg: Option<&Expr<usize>>) -> Classifier {
        let direct = (|| {
            let arg = match arg {
                None => None,
                Some(Expr::Column(c)) => Some(*c),
                Some(_) => return None,
            };
            let mut tests = Vec::new();
            if let Some(pred) = predicate {
                compile_conjuncts(pred, &mut tests)?;
            }
            Some(Direct { arg, tests })
        })();
        Classifier {
            refinement: refinement_for(predicate, arg),
            predicate: predicate.cloned(),
            arg: arg.cloned(),
            direct,
        }
    }

    /// The predicate this classifier was compiled from.
    pub(crate) fn predicate(&self) -> Option<&Expr<usize>> {
        self.predicate.as_ref()
    }

    /// [`classify_tuple`] of `row` under this classifier's shape.
    pub(crate) fn classify(
        &self,
        tid: TupleId,
        row: &trapp_storage::Row,
        cost: f64,
    ) -> Result<Option<AggItem>, TrappError> {
        match self.direct.as_ref().and_then(|d| d.read(row)) {
            Some(None) => Ok(None),
            Some(Some((band, interval))) => Ok(refine(band, interval, self.refinement, tid, cost)),
            None => classify_tuple(
                self.predicate.as_ref(),
                self.arg.as_ref(),
                self.refinement,
                tid,
                row,
                cost,
            ),
        }
    }
}

/// Appends `e`'s conjuncts to `out`, or fails when one of them is not a
/// numeric `column op literal` comparison.
fn compile_conjuncts(e: &Expr<usize>, out: &mut Vec<Test>) -> Option<()> {
    let Expr::Binary(op, l, r) = e else {
        return None;
    };
    if *op == BinaryOp::And {
        compile_conjuncts(l, out)?;
        return compile_conjuncts(r, out);
    }
    if !op.is_comparison() {
        return None;
    }
    let (column, literal, literal_left) = match (l.as_ref(), r.as_ref()) {
        (Expr::Column(c), Expr::Literal(v)) => (*c, v, false),
        (Expr::Literal(v), Expr::Column(c)) => (*c, v, true),
        _ => return None,
    };
    let literal = match literal {
        Value::Int(x) => Interval::point(*x as f64),
        Value::Float(x) => Interval::point(*x),
        Value::Str(_) | Value::Bool(_) => return None,
    }
    .ok()?;
    out.push(Test {
        column,
        op: *op,
        literal,
        literal_left,
    });
    Some(())
}

/// The range of a numeric cell, as the interpreter reads a column: `None`
/// for a cell it would not read as a number (the caller falls back).
fn numeric(row: &trapp_storage::Row, column: usize) -> Option<Interval> {
    match row.cell(column).ok()? {
        BoundedValue::Bounded(iv) => Some(*iv),
        BoundedValue::Exact(Value::Int(x)) => Interval::point(*x as f64).ok(),
        BoundedValue::Exact(Value::Float(x)) => Interval::point(*x).ok(),
        BoundedValue::Exact(_) => None,
    }
}

impl Direct {
    /// `Some(None)` for a `T−` row, `Some(Some((band, arg range)))` for
    /// the others, `None` when a cell is not numeric.
    fn read(&self, row: &trapp_storage::Row) -> Option<Option<(Band, Interval)>> {
        let mut tri = Tri::True;
        for t in &self.tests {
            let cell = numeric(row, t.column)?;
            let (x, y) = if t.literal_left {
                (t.literal, cell)
            } else {
                (cell, t.literal)
            };
            tri = tri
                & match t.op {
                    BinaryOp::Eq => x.tri_eq(y),
                    BinaryOp::Ne => x.tri_ne(y),
                    BinaryOp::Lt => x.tri_lt(y),
                    BinaryOp::Le => x.tri_le(y),
                    BinaryOp::Gt => x.tri_gt(y),
                    BinaryOp::Ge => x.tri_ge(y),
                    _ => unreachable!("compiled from comparisons only"),
                };
        }
        let band = Band::from_tri(tri);
        if band == Band::Minus {
            // Every remaining conjunct was read, so no row the
            // interpreter would refuse slips through as `T−`.
            return Some(None);
        }
        let interval = match self.arg {
            Some(c) => numeric(row, c)?,
            None => Interval::new_unchecked(1.0, 1.0),
        };
        Some(Some((band, interval)))
    }
}

/// A bounded answer `[L_A, H_A]` guaranteed to contain the precise answer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoundedAnswer {
    /// The answer range.
    pub range: Interval,
}

impl BoundedAnswer {
    /// Wraps a range.
    pub fn new(range: Interval) -> BoundedAnswer {
        BoundedAnswer { range }
    }

    /// The precision achieved: `H_A − L_A`.
    pub fn width(&self) -> f64 {
        self.range.width()
    }

    /// `true` if the answer satisfies `width ≤ R` (`None` = `R = ∞`).
    pub fn satisfies(&self, within: Option<f64>) -> bool {
        match within {
            None => true,
            Some(r) => self.width() <= r,
        }
    }

    /// `true` if the answer is a single point (exact).
    pub fn is_exact(&self) -> bool {
        self.range.is_point()
    }
}

impl fmt::Display for BoundedAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.range)
    }
}

/// Computes the bounded answer for `agg` over `input`.
///
/// `AVG` uses the tight Appendix E algorithm; see [`avg::bounded_avg_loose`]
/// for the linear-time loose variant.
///
/// With non-zero cardinality slack (§8.3 delayed insert/delete
/// propagation), unseen tuples carry unknown values: only `COUNT` keeps a
/// finite guaranteed bound, so other aggregates are rejected.
pub fn bounded_answer(agg: Aggregate, input: &AggInput) -> Result<BoundedAnswer, TrappError> {
    if input.cardinality_slack != (0, 0) && agg != Aggregate::Count {
        return Err(TrappError::Unsupported(format!(
            "{agg} cannot be bounded under cardinality slack {:?}: unseen tuples \
             have unbounded values (propagate inserts/deletes first)",
            input.cardinality_slack
        )));
    }
    let range = match agg {
        Aggregate::Min => min_max::bounded_min(input),
        Aggregate::Max => min_max::bounded_max(input),
        Aggregate::Sum => sum::bounded_sum(input),
        Aggregate::Count => count::bounded_count(input),
        Aggregate::Avg => avg::bounded_avg_tight(input)?,
        Aggregate::Median => order_stat::bounded_median(input)?,
    };
    Ok(BoundedAnswer::new(range))
}

#[cfg(test)]
pub(crate) mod test_fixture {
    //! The Figure 2 fixture shared by the aggregate and refresh tests.

    use std::sync::Arc;
    use trapp_storage::{ColumnDef, Schema, Table};
    use trapp_types::{BoundedValue, Value};

    /// Columns: from_node INT, to_node INT, latency/bandwidth/traffic
    /// BOUNDED FLOAT, on_path BOOL (true for tuples {1,2,5,6} — the path
    /// N1→N2→N4→N5→N6 used by Q1/Q2).
    pub fn schema() -> Arc<Schema> {
        Schema::new(vec![
            ColumnDef::exact("from_node", trapp_types::ValueType::Int),
            ColumnDef::exact("to_node", trapp_types::ValueType::Int),
            ColumnDef::bounded_float("latency"),
            ColumnDef::bounded_float("bandwidth"),
            ColumnDef::bounded_float("traffic"),
            ColumnDef::exact("on_path", trapp_types::ValueType::Bool),
        ])
        .unwrap()
    }

    /// Column indexes.
    pub const LATENCY: usize = 2;
    pub const BANDWIDTH: usize = 3;
    pub const TRAFFIC: usize = 4;

    /// One fixture row: `(from, to, latency, bandwidth, traffic, cost,
    /// on_path)`.
    pub type FixtureRow = (i64, i64, (f64, f64), (f64, f64), (f64, f64), f64, bool);

    /// The rows of Figure 2.
    pub const ROWS: [FixtureRow; 6] = [
        (1, 2, (2.0, 4.0), (60.0, 70.0), (95.0, 105.0), 3.0, true),
        (2, 4, (5.0, 7.0), (45.0, 60.0), (110.0, 120.0), 6.0, true),
        (3, 4, (12.0, 16.0), (55.0, 70.0), (95.0, 110.0), 6.0, false),
        (2, 3, (9.0, 11.0), (65.0, 70.0), (120.0, 145.0), 8.0, false),
        (4, 5, (8.0, 11.0), (40.0, 55.0), (90.0, 110.0), 4.0, true),
        (5, 6, (4.0, 6.0), (45.0, 60.0), (90.0, 105.0), 2.0, true),
    ];

    /// The precise master values `(latency, bandwidth, traffic)` of Figure 2.
    pub const PRECISE: [(f64, f64, f64); 6] = [
        (3.0, 61.0, 98.0),
        (7.0, 53.0, 116.0),
        (13.0, 62.0, 105.0),
        (9.0, 68.0, 127.0),
        (11.0, 50.0, 95.0),
        (5.0, 45.0, 103.0),
    ];

    /// Builds the cached table of Figure 2.
    pub fn links_table() -> Table {
        let mut t = Table::new("links", schema());
        for (from, to, lat, bw, tr, cost, on_path) in ROWS {
            t.insert_with_cost(
                vec![
                    BoundedValue::Exact(Value::Int(from)),
                    BoundedValue::Exact(Value::Int(to)),
                    BoundedValue::bounded(lat.0, lat.1).unwrap(),
                    BoundedValue::bounded(bw.0, bw.1).unwrap(),
                    BoundedValue::bounded(tr.0, tr.1).unwrap(),
                    BoundedValue::Exact(Value::Bool(on_path)),
                ],
                cost,
            )
            .unwrap();
        }
        t
    }

    /// Builds the master table (exact values) matching [`links_table`].
    pub fn master_table() -> Table {
        let mut t = Table::new("links", schema());
        for (i, (from, to, _, _, _, cost, on_path)) in ROWS.into_iter().enumerate() {
            let (lat, bw, tr) = PRECISE[i];
            t.insert_with_cost(
                vec![
                    BoundedValue::Exact(Value::Int(from)),
                    BoundedValue::Exact(Value::Int(to)),
                    BoundedValue::exact_f64(lat).unwrap(),
                    BoundedValue::exact_f64(bw).unwrap(),
                    BoundedValue::exact_f64(tr).unwrap(),
                    BoundedValue::Exact(Value::Bool(on_path)),
                ],
                cost,
            )
            .unwrap();
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixture::*;
    use super::*;
    use trapp_expr::{BinaryOp, ColumnRef};
    use trapp_types::Value;

    fn cmp(col: &str, op: BinaryOp, k: f64) -> Expr<usize> {
        Expr::binary(
            op,
            Expr::Column(ColumnRef::bare(col)),
            Expr::Literal(Value::Float(k)),
        )
        .bind(&schema())
        .unwrap()
    }

    fn col(name: &str) -> Expr<usize> {
        Expr::Column(ColumnRef::bare(name)).bind(&schema()).unwrap()
    }

    #[test]
    fn build_without_predicate_takes_all_tuples() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("latency"))).unwrap();
        assert_eq!(input.items.len(), 6);
        assert_eq!(input.plus_count(), 6);
        assert_eq!(input.minus_count, 0);
        assert_eq!(input.items[0].interval, Interval::new(2.0, 4.0).unwrap());
        assert_eq!(input.items[0].cost, 3.0);
    }

    #[test]
    fn build_with_predicate_classifies_and_refines() {
        let t = links_table();
        // Q6 shape: aggregate latency where traffic > 100 — refinement does
        // not touch latency (predicate on a different column).
        let pred = cmp("traffic", BinaryOp::Gt, 100.0);
        let input = AggInput::build(&t, Some(&pred), Some(&col("latency"))).unwrap();
        assert_eq!(input.plus_count(), 2);
        assert_eq!(input.question_count(), 4);

        // Aggregating latency under `latency > 10`: T? tuples' bounds are
        // clamped from below at 10 (Appendix D).
        let pred = cmp("latency", BinaryOp::Gt, 10.0);
        let input = AggInput::build(&t, Some(&pred), Some(&col("latency"))).unwrap();
        // T+ = {3} ([12,16]); T? = {4: [9,11]→[10,11], 5: [8,11]→[10,11]}.
        assert_eq!(input.plus_count(), 1);
        let q: Vec<_> = input.question().collect();
        assert_eq!(q.len(), 2);
        for item in q {
            assert_eq!(item.interval.lo(), 10.0);
            assert_eq!(item.interval.hi(), 11.0);
        }
    }

    #[test]
    fn refinement_can_reclassify_to_minus() {
        let t = links_table();
        // latency > 10.9: tuple 4 [9,11] stays T? (possible), but refine
        // under predicate latency > 15.9: only tuple 3 [12,16] remains T?;
        // tuples with hi < 15.9... check a tighter case: latency > 16 — no
        // tuple can pass except none (t3 hi = 16, `> 16` excludes it).
        let pred = cmp("latency", BinaryOp::Gt, 16.0);
        let input = AggInput::build(&t, Some(&pred), Some(&col("latency"))).unwrap();
        assert_eq!(input.items.len(), 0);
        assert_eq!(input.minus_count, 6);
    }

    #[test]
    fn bounded_answer_dispatch() {
        let t = links_table();
        let input = AggInput::build(&t, None, Some(&col("latency"))).unwrap();
        let sum = bounded_answer(Aggregate::Sum, &input).unwrap();
        assert_eq!(sum.range, Interval::new(40.0, 55.0).unwrap());
        assert!(!sum.is_exact());
        assert!(sum.satisfies(Some(15.0)));
        assert!(!sum.satisfies(Some(14.9)));
        assert!(sum.satisfies(None));
    }

    /// A seeded generator of the rows and shapes the property test below
    /// classifies (splitmix64).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A value from a small grid, so that comparisons tie often;
        /// `-0.0` rides along.
        fn grid(&mut self) -> f64 {
            [-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0][self.below(8)]
        }
    }

    /// Columns of the property test's rows, by kind.
    const INT: usize = 0;
    const FLOAT: usize = 1;
    const BOUNDED: [usize; 2] = [2, 3];
    const STR: usize = 4;
    const BOOL: usize = 5;
    const NUMERIC: [usize; 4] = [INT, FLOAT, BOUNDED[0], BOUNDED[1]];

    fn mixed_schema() -> std::sync::Arc<trapp_storage::Schema> {
        use trapp_storage::{ColumnDef, Schema};
        use trapp_types::ValueType;
        Schema::new(vec![
            ColumnDef::exact("i", ValueType::Int),
            ColumnDef::exact("f", ValueType::Float),
            ColumnDef::bounded_float("b1"),
            ColumnDef::bounded_float("b2"),
            ColumnDef::exact("s", ValueType::Str),
            ColumnDef::exact("flag", ValueType::Bool),
        ])
        .unwrap()
    }

    fn mixed_row(rng: &mut Rng) -> trapp_storage::Row {
        let mut bounded = || {
            let lo = rng.grid();
            let hi = lo + [0.0, 0.0, 0.5, 1.0, 3.0][rng.below(5)];
            BoundedValue::bounded(lo, hi).unwrap()
        };
        let (b1, b2) = (bounded(), bounded());
        let cells = vec![
            BoundedValue::Exact(Value::Int(rng.below(5) as i64 - 2)),
            BoundedValue::Exact(Value::Float(rng.grid())),
            b1,
            b2,
            BoundedValue::Exact(Value::Str(["a", "b"][rng.below(2)].into())),
            BoundedValue::Exact(Value::Bool(rng.below(2) == 0)),
        ];
        trapp_storage::Row::new(&mixed_schema(), cells).unwrap()
    }

    const COMPARISONS: [BinaryOp; 6] = [
        BinaryOp::Eq,
        BinaryOp::Ne,
        BinaryOp::Lt,
        BinaryOp::Le,
        BinaryOp::Gt,
        BinaryOp::Ge,
    ];

    /// `column op literal`, the literal on either side: an Int or Float
    /// literal over any numeric column.
    fn numeric_test(rng: &mut Rng) -> Expr<usize> {
        let column = Expr::Column(NUMERIC[rng.below(4)]);
        let literal = Expr::Literal(match rng.below(2) {
            0 => Value::Int(rng.below(5) as i64 - 2),
            _ => Value::Float(rng.grid()),
        });
        let op = COMPARISONS[rng.below(6)];
        match rng.below(2) {
            0 => Expr::binary(op, column, literal),
            _ => Expr::binary(op, literal, column),
        }
    }

    /// An `AND` of 1–4 numeric tests, nested at random.
    fn numeric_chain(rng: &mut Rng) -> Expr<usize> {
        let mut e = numeric_test(rng);
        for _ in 0..rng.below(4) {
            e = match rng.below(2) {
                0 => Expr::and(e, numeric_test(rng)),
                _ => Expr::and(numeric_test(rng), e),
            };
        }
        e
    }

    /// A predicate `Classifier` must hand to `classify_tuple`, whole or
    /// row by row, and whether its shape compiles (row by row) or not
    /// (whole).
    fn fallback_predicate(rng: &mut Rng) -> (Expr<usize>, bool) {
        let lit = |v: f64| Expr::Literal(Value::Float(v));
        match rng.below(7) {
            0 => (
                Expr::binary(BinaryOp::Or, numeric_test(rng), numeric_test(rng)),
                false,
            ),
            1 => (
                Expr::Unary(trapp_expr::UnaryOp::Not, Box::new(numeric_test(rng))),
                false,
            ),
            2 => (
                Expr::binary(
                    COMPARISONS[rng.below(6)],
                    Expr::binary(BinaryOp::Add, Expr::Column(BOUNDED[0]), lit(1.0)),
                    lit(rng.grid()),
                ),
                false,
            ),
            3 => (
                Expr::binary(
                    BinaryOp::Lt,
                    Expr::Column(BOUNDED[0]),
                    Expr::Column(BOUNDED[1]),
                ),
                false,
            ),
            4 => (
                Expr::binary(
                    BinaryOp::Eq,
                    Expr::Column(STR),
                    Expr::Literal(Value::Str("a".into())),
                ),
                false,
            ),
            // A string or boolean column against a numeric literal: the
            // shape compiles, every row falls back, and the refusal must
            // be the interpreter's.
            5 => (
                Expr::binary(
                    COMPARISONS[rng.below(6)],
                    Expr::Column([STR, BOOL][rng.below(2)]),
                    lit(rng.grid()),
                ),
                true,
            ),
            _ => {
                let (tail, compiles) = fallback_predicate(rng);
                (Expr::and(numeric_chain(rng), tail), compiles)
            }
        }
    }

    /// The direct per-tuple step against the interpreter's, bit for bit:
    /// the item (band, interval bits, cost) or the error, over Int,
    /// Float and bounded columns, literals on either side, `AND` chains,
    /// and the shapes that must fall back — `OR`, `NOT`, arithmetic,
    /// column-to-column, string and boolean columns.
    #[test]
    fn direct_classifier_matches_classify_tuple() {
        // 10⁴ cases in release (CI's view-maintenance job); a smoke count
        // in debug.
        let cases = if cfg!(debug_assertions) { 300 } else { 10_000 };
        let mut rng = Rng(0x5EED_C1A5);
        let (mut direct_rows, mut errors) = (0, 0);
        for case in 0..cases {
            let (predicate, compiles) = match rng.below(6) {
                0 => (None, true),
                1..=3 => (Some(numeric_chain(&mut rng)), true),
                _ => {
                    let (p, compiles) = fallback_predicate(&mut rng);
                    (Some(p), compiles)
                }
            };
            let (arg, arg_compiles) = match rng.below(5) {
                0 => (None, true),
                1 => (Some(Expr::Column(STR)), true),
                2 => (
                    Some(Expr::binary(
                        BinaryOp::Mul,
                        Expr::Column(BOUNDED[1]),
                        Expr::Literal(Value::Float(2.0)),
                    )),
                    false,
                ),
                _ => (Some(Expr::Column(NUMERIC[rng.below(4)])), true),
            };
            let classifier = Classifier::new(predicate.as_ref(), arg.as_ref());
            assert_eq!(
                classifier.direct.is_some(),
                compiles && arg_compiles,
                "case {case}: which shapes compile, {predicate:?} / {arg:?}"
            );
            let refinement = refinement_for(predicate.as_ref(), arg.as_ref());
            for k in 0..16u64 {
                let row = mixed_row(&mut rng);
                let (tid, cost) = (TupleId::new(k + 1), 0.5 + rng.below(4) as f64);
                if let Some(d) = &classifier.direct {
                    direct_rows += u64::from(d.read(&row).is_some());
                }
                let got = classifier.classify(tid, &row, cost);
                let want = classify_tuple(
                    predicate.as_ref(),
                    arg.as_ref(),
                    refinement,
                    tid,
                    &row,
                    cost,
                );
                let bits = |r: &Result<Option<AggItem>, TrappError>| match r {
                    Ok(item) => Ok(item.map(|i| {
                        let iv = i.interval;
                        (
                            i.tid,
                            i.band,
                            iv.lo().to_bits(),
                            iv.hi().to_bits(),
                            i.cost.to_bits(),
                        )
                    })),
                    Err(e) => Err(e.to_string()),
                };
                errors += u64::from(want.is_err());
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "case {case}, row {k}: {predicate:?} / {arg:?} over {row:?}"
                );
            }
        }
        // Non-vacuity: both the direct reads and the refusals happened.
        assert!(direct_rows > cases as u64 * 4, "{direct_rows} direct rows");
        assert!(errors > 0);
    }

    /// The two-pass folds the one-pass [`avg::bounded_avg_tight`],
    /// [`min_max::bounded_min`] and [`min_max::bounded_max`] replaced: the
    /// reference they must match bit for bit. Its running sums are the
    /// same [`ExactSum`](trapp_types::ExactSum)s, so it checks the
    /// greedy's structure (one pass for both endpoints), not the
    /// summation.
    mod two_pass {
        use super::super::AggInput;
        use trapp_types::{ExactSum, Interval, TrappError};

        pub fn avg_tight(input: &AggInput) -> Result<Interval, TrappError> {
            if input.items.is_empty() {
                return Err(TrappError::Unsupported(
                    "AVG over a certainly-empty selection is undefined".into(),
                ));
            }
            let mut sl: ExactSum = input.plus().map(|i| i.interval.lo()).collect();
            let mut kl = input.plus_count();
            let mut lows: Vec<f64> = input.question().map(|i| i.interval.lo()).collect();
            lows.sort_by(f64::total_cmp);
            let lo = if kl == 0 {
                lows[0]
            } else {
                for &la in &lows {
                    if la < sl.read() / kl as f64 {
                        sl.add(la);
                        kl += 1;
                    } else {
                        break;
                    }
                }
                sl.read() / kl as f64
            };
            let mut sh: ExactSum = input.plus().map(|i| i.interval.hi()).collect();
            let mut kh = input.plus_count();
            let mut highs: Vec<f64> = input.question().map(|i| i.interval.hi()).collect();
            highs.sort_by(|a, b| f64::total_cmp(b, a));
            let hi = if kh == 0 {
                highs[0]
            } else {
                for &ha in &highs {
                    if ha > sh.read() / kh as f64 {
                        sh.add(ha);
                        kh += 1;
                    } else {
                        break;
                    }
                }
                sh.read() / kh as f64
            };
            let (lo, hi) = super::super::avg::step_out(input, lo, hi);
            Interval::new(lo, hi)
        }

        pub fn min(input: &AggInput) -> Interval {
            let mut lo = f64::INFINITY;
            for item in &input.items {
                lo = lo.min(item.interval.lo());
            }
            let mut hi = f64::INFINITY;
            for item in input.plus() {
                hi = hi.min(item.interval.hi());
            }
            if lo > hi {
                return Interval::new_unchecked(f64::INFINITY, f64::INFINITY);
            }
            Interval::new_unchecked(lo, hi)
        }

        pub fn max(input: &AggInput) -> Interval {
            let mut hi = f64::NEG_INFINITY;
            for item in &input.items {
                hi = hi.max(item.interval.hi());
            }
            let mut lo = f64::NEG_INFINITY;
            for item in input.plus() {
                lo = lo.max(item.interval.lo());
            }
            if lo > hi {
                return Interval::new_unchecked(f64::NEG_INFINITY, f64::NEG_INFINITY);
            }
            Interval::new_unchecked(lo, hi)
        }
    }

    /// The one-pass AVG and MIN/MAX folds against the two-pass reference,
    /// bit for bit (endpoint bits, or the same error), over seeded inputs
    /// of mixed `T+`/`T?` items whose endpoints come from a grid with
    /// `±0.0` and `±∞`, including empty, all-`T+` and all-`T?` inputs.
    #[test]
    fn one_pass_folds_match_the_two_pass_reference() {
        // 10⁴ cases in release (CI's view-maintenance job); a smoke count
        // in debug.
        let cases = if cfg!(debug_assertions) { 500 } else { 10_000 };
        let mut rng = Rng(0xF01D_0A55);
        let endpoints = [
            f64::NEG_INFINITY,
            -3.5,
            -1.0,
            -0.0,
            0.0,
            0.25,
            1.0,
            7.0,
            1e300,
            f64::INFINITY,
        ];
        let bits = |r: Result<Interval, TrappError>| {
            r.map(|iv| (iv.lo().to_bits(), iv.hi().to_bits()))
                .map_err(|e| e.to_string())
        };
        let mut shapes = [0usize; 4];
        for case in 0..cases {
            let len = match rng.below(8) {
                0 => 0,
                1 => 1,
                _ => rng.below(40),
            };
            // Band mix: all T+, all T?, or mixed.
            let mix = rng.below(3);
            let mut items = Vec::with_capacity(len);
            for k in 0..len {
                let (a, b) = (
                    endpoints[rng.below(endpoints.len())],
                    endpoints[rng.below(endpoints.len())],
                );
                let (lo, hi) = if f64::total_cmp(&a, &b).is_le() {
                    (a, b)
                } else {
                    (b, a)
                };
                let plus = match mix {
                    0 => true,
                    1 => false,
                    _ => rng.below(2) == 0,
                };
                items.push(AggItem {
                    tid: TupleId::new(k as u64 + 1),
                    band: if plus { Band::Plus } else { Band::Question },
                    interval: Interval::new_unchecked(lo, hi),
                    cost: 1.0,
                });
            }
            let input = AggInput::new(items, 0, (0, 0));
            shapes[match (input.items.len(), input.plus_count()) {
                (0, _) => 0,
                (n, p) if p == n => 1,
                (_, 0) => 2,
                _ => 3,
            }] += 1;
            assert_eq!(
                bits(avg::bounded_avg_tight(&input)),
                bits(two_pass::avg_tight(&input)),
                "case {case}: AVG over {:?}",
                input.items
            );
            assert_eq!(
                bits(Ok(min_max::bounded_min(&input))),
                bits(Ok(two_pass::min(&input))),
                "case {case}: MIN over {:?}",
                input.items
            );
            assert_eq!(
                bits(Ok(min_max::bounded_max(&input))),
                bits(Ok(two_pass::max(&input))),
                "case {case}: MAX over {:?}",
                input.items
            );
        }
        // Non-vacuity: empty, all-T+, all-T? and mixed inputs all ran.
        assert!(shapes.iter().all(|&n| n > cases / 50), "{shapes:?}");
    }
}
