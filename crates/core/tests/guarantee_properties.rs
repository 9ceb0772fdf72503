//! The paper's two correctness properties, tested over randomized tables,
//! predicates, and precision constraints:
//!
//! 1. **Containment**: the bounded answer contains the precise aggregate of
//!    every realization of the cached bounds.
//! 2. **CHOOSE_REFRESH guarantee**: for *any* realization of the master
//!    values, refreshing the chosen set makes the recomputed answer satisfy
//!    the precision constraint (§4's definition of correctness; Appendix B
//!    proves it for MIN, §5.2/§6.2/App. F argue it for SUM/AVG).

use proptest::prelude::*;
use trapp_core::agg::{bounded_answer, AggInput, Aggregate};
use trapp_core::refresh::{choose_refresh, SolverStrategy};
use trapp_core::verify::{apply_plan, check_containment, realize_table};
use trapp_expr::{BinaryOp, ColumnRef, Expr};
use trapp_storage::{ColumnDef, Schema, Table};
use trapp_types::{BoundedValue, Value};

/// One generated row: `x` bound, `y` bound, integer cost 1..=10.
type FixtureRow = ((f64, f64), (f64, f64), u8);

/// A random cached table: `x`, `y` bounded float columns with varied signs
/// and widths, plus integer costs 1..=10 (the paper's cost model).
#[derive(Clone, Debug)]
struct Fixture {
    rows: Vec<FixtureRow>,
}

fn arb_fixture() -> impl Strategy<Value = Fixture> {
    proptest::collection::vec(
        (
            (-50.0f64..50.0, 0.0f64..20.0),
            (-50.0f64..50.0, 0.0f64..20.0),
            1u8..=10,
        ),
        1..12,
    )
    .prop_map(|raw| Fixture {
        rows: raw
            .into_iter()
            .map(|((xl, xw), (yl, yw), c)| ((xl, xl + xw), (yl, yl + yw), c))
            .collect(),
    })
}

fn build_table(f: &Fixture) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::bounded_float("x"),
        ColumnDef::bounded_float("y"),
    ])
    .unwrap();
    let mut t = Table::new("t", schema);
    for &(x, y, c) in &f.rows {
        t.insert_with_cost(
            vec![
                BoundedValue::bounded(x.0, x.1).unwrap(),
                BoundedValue::bounded(y.0, y.1).unwrap(),
            ],
            c as f64,
        )
        .unwrap();
    }
    t
}

fn schema() -> std::sync::Arc<Schema> {
    Schema::new(vec![
        ColumnDef::bounded_float("x"),
        ColumnDef::bounded_float("y"),
    ])
    .unwrap()
}

fn x_col() -> Expr<usize> {
    Expr::Column(ColumnRef::bare("x")).bind(&schema()).unwrap()
}

fn y_pred(threshold: f64) -> Expr<usize> {
    Expr::binary(
        BinaryOp::Gt,
        Expr::Column(ColumnRef::bare("y")),
        Expr::Literal(Value::Float(threshold)),
    )
    .bind(&schema())
    .unwrap()
}

const AGGS: [Aggregate; 5] = [
    Aggregate::Min,
    Aggregate::Max,
    Aggregate::Sum,
    Aggregate::Count,
    Aggregate::Avg,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn containment_without_predicate(f in arb_fixture(), seed in 0u64..1000) {
        let cache = build_table(&f);
        let master = realize_table(&cache, seed).unwrap();
        for agg in AGGS {
            let arg = if agg == Aggregate::Count { None } else { Some(x_col()) };
            check_containment(agg, &cache, &master, None, arg.as_ref())
                .unwrap_or_else(|e| panic!("{agg:?}: {e}"));
        }
        check_containment(Aggregate::Median, &cache, &master, None, Some(&x_col())).unwrap();
    }

    #[test]
    fn containment_with_predicate(f in arb_fixture(), seed in 0u64..1000, thr in -40.0f64..60.0) {
        let cache = build_table(&f);
        let master = realize_table(&cache, seed).unwrap();
        let pred = y_pred(thr);
        for agg in AGGS {
            let arg = if agg == Aggregate::Count { None } else { Some(x_col()) };
            // AVG over a possibly-empty selection is conditioned on
            // non-emptiness: skip containment when the realized selection
            // is empty.
            let res = check_containment(agg, &cache, &master, Some(&pred), arg.as_ref());
            match res {
                Ok(_) => {}
                Err(trapp_types::TrappError::Unsupported(_)) => {} // empty AVG
                Err(e) => panic!("{agg:?} thr {thr}: {e}"),
            }
        }
    }

    /// The central theorem: whatever the master values turn out to be,
    /// refreshing the CHOOSE_REFRESH set meets the constraint.
    #[test]
    fn choose_refresh_guarantees_constraint(
        f in arb_fixture(),
        seed in 0u64..1000,
        r in 0.0f64..60.0,
        use_pred in any::<bool>(),
        thr in -40.0f64..60.0,
        exact in any::<bool>(),
    ) {
        let cache = build_table(&f);
        let pred = if use_pred { Some(y_pred(thr)) } else { None };
        let strategy = if exact { SolverStrategy::Exact } else { SolverStrategy::Fptas(0.1) };
        for agg in AGGS {
            let arg = if agg == Aggregate::Count { None } else { Some(x_col()) };
            let input = AggInput::build(&cache, pred.as_ref(), arg.as_ref()).unwrap();
            let plan = choose_refresh(agg, &input, r, strategy).unwrap();

            // Realize master values and apply the plan.
            let master = realize_table(&cache, seed).unwrap();
            let mut refreshed = build_table(&f);
            apply_plan(&mut refreshed, &master, &plan.tuples).unwrap();

            let post = AggInput::build(&refreshed, pred.as_ref(), arg.as_ref()).unwrap();
            let answer = match bounded_answer(agg, &post) {
                Ok(a) => a,
                Err(trapp_types::TrappError::Unsupported(_)) => continue, // empty AVG
                Err(e) => panic!("{agg:?}: {e}"),
            };
            // For AVG with a predicate, Appendix F guarantees the *loose*
            // bound; the executor reports the tight bound which is ⊆ loose.
            let width = answer.width();
            prop_assert!(
                width <= r,
                "{agg:?} r={r} seed={seed} pred={use_pred} thr={thr}: width {width} \
                 plan {:?}",
                plan.tuples
            );
        }
    }

    /// Refreshing a superset of a plan never breaks the guarantee: the
    /// plan plus a seeded random subset of the remaining tuples, for every
    /// aggregate, with and without a predicate.
    #[test]
    fn guarantee_is_monotone_in_refresh_set(
        f in arb_fixture(),
        seed in 0u64..1000,
        r in 0.0f64..60.0,
        use_pred in any::<bool>(),
        thr in -40.0f64..60.0,
    ) {
        let cache = build_table(&f);
        let pred = if use_pred { Some(y_pred(thr)) } else { None };
        let master = realize_table(&cache, seed).unwrap();
        let mut coin = trapp_core::verify::Realizer::new(seed ^ 0x5eed);
        for agg in AGGS {
            let arg = if agg == Aggregate::Count { None } else { Some(x_col()) };
            let input = AggInput::build(&cache, pred.as_ref(), arg.as_ref()).unwrap();
            let plan = choose_refresh(agg, &input, r, SolverStrategy::Exact).unwrap();
            let extra = cache
                .tuple_ids()
                .filter(|t| !plan.tuples.contains(t) && coin.next_unit() < 0.5);
            let superset: Vec<_> = plan.tuples.iter().copied().chain(extra).collect();
            let mut refreshed = build_table(&f);
            apply_plan(&mut refreshed, &master, &superset).unwrap();
            let post = AggInput::build(&refreshed, pred.as_ref(), arg.as_ref()).unwrap();
            let answer = match bounded_answer(agg, &post) {
                Ok(a) => a,
                Err(trapp_types::TrappError::Unsupported(_)) => continue, // empty AVG
                Err(e) => panic!("{agg:?}: {e}"),
            };
            prop_assert!(
                answer.width() <= r,
                "{agg:?} r={r} seed={seed}: width {} refreshing {superset:?} ⊇ {:?}",
                answer.width(),
                plan.tuples
            );
        }
    }

    /// Exact planning never costs more than the approximation schemes.
    #[test]
    fn exact_plans_are_cheapest(f in arb_fixture(), r in 0.0f64..60.0) {
        let cache = build_table(&f);
        let input = AggInput::build(&cache, None, Some(&x_col())).unwrap();
        let exact = choose_refresh(Aggregate::Sum, &input, r, SolverStrategy::Exact).unwrap();
        for strategy in [SolverStrategy::Fptas(0.1), SolverStrategy::GreedyDensity] {
            let approx = choose_refresh(Aggregate::Sum, &input, r, strategy).unwrap();
            prop_assert!(
                exact.planned_cost <= approx.planned_cost + 1e-9,
                "exact {} > {strategy} {}",
                exact.planned_cost,
                approx.planned_cost
            );
        }
    }
}

/// Adversarial cases for the one rule (ARCHITECTURE §2): a delivered
/// answer's width is `≤ R` and it contains the exact aggregate, both with
/// zero tolerance. 10³ cases in debug, 10⁵ in release
/// (`cargo test --release -p trapp-core --test guarantee_properties`).
const ADVERSARIAL_CASES: u64 = if cfg!(debug_assertions) {
    1_000
} else {
    100_000
};
const ADVERSARIAL_SEED: u64 = 0x0A11_0F1E_5EED_0043;

mod adversarial {
    use trapp_core::executor::{QuerySession, TableOracle};
    use trapp_core::plan::bind_query;
    use trapp_core::query_plan::QueryOutcome;
    use trapp_core::verify::Realizer;
    use trapp_sql::Query;
    use trapp_storage::{Catalog, ColumnDef, Schema, Table};
    use trapp_types::{BoundedValue, TrappError, Value, ValueType};

    /// One cached cell: `(lo, hi)`, a point when equal.
    type Cell = (f64, f64);

    /// One case: `t(g, x, y)` rows with costs, `s(sg, w)` one row per
    /// group, the constraint and the predicate thresholds.
    pub struct Case {
        t: Vec<(i64, Cell, Cell, f64)>,
        s: Vec<(i64, Cell)>,
        pub r: f64,
        thr: Option<f64>,
        wthr: Option<f64>,
        seed: u64,
    }

    fn pick<T: Copy>(rng: &mut Realizer, options: &[T]) -> T {
        options[(rng.next_unit() * options.len() as f64) as usize]
    }

    /// A value on a one-decimal grid in `[lo, hi)`: decimal fractions are
    /// what make folds round.
    fn decimal(rng: &mut Realizer, lo: f64, hi: f64) -> f64 {
        (rng.in_range(lo, hi) * 10.0).round() / 10.0
    }

    fn nudge(v: f64, ulps: i32) -> f64 {
        let mut v = v;
        for _ in 0..ulps.abs() {
            v = if ulps > 0 { v.next_up() } else { v.next_down() };
        }
        v.max(0.0)
    }

    impl Case {
        pub fn generate(seed: u64) -> Case {
            let mut rng = Realizer::new(seed);
            let n = 1 + (rng.next_unit() * 10.0) as usize;
            let large = rng.next_unit() < 0.3;
            let mut t = Vec::with_capacity(n);
            for i in 0..n {
                let g = (rng.next_unit() * 3.0) as i64;
                // Large offsets with tiny widths, or small decimals; now
                // and then a point (an exact value, possibly in `T?`).
                let (lo, width) = if large {
                    let sign = pick(&mut rng, &[-1.0, 1.0]);
                    let lo = sign * rng.in_range(1e6, 1e12);
                    (lo, pick(&mut rng, &[0.0, 1e-3, 0.1, 0.7]) * rng.next_unit())
                } else {
                    (decimal(&mut rng, -50.0, 50.0), decimal(&mut rng, 0.0, 20.0))
                };
                let width = if rng.next_unit() < 0.15 { 0.0 } else { width };
                let y_lo = decimal(&mut rng, -10.0, 10.0);
                let y = (y_lo, y_lo + decimal(&mut rng, 0.0, 10.0));
                let cost = 1.0 + (i % 4) as f64 + (rng.next_unit() * 6.0).floor();
                t.push((g, (lo, lo + width), y, cost));
            }
            let s = (0..3)
                .map(|g| {
                    let lo = decimal(&mut rng, -5.0, 5.0);
                    (g, (lo, lo + decimal(&mut rng, 0.0, 5.0)))
                })
                .collect();
            let thr = (rng.next_unit() < 0.5).then(|| decimal(&mut rng, -10.0, 15.0));
            let wthr = (rng.next_unit() < 0.5).then(|| decimal(&mut rng, -5.0, 8.0));

            // R within 2 ulp of a width some plan could keep exactly: a
            // subset's summed widths (a SUM tie), that over a count (AVG),
            // or the gap between two endpoints (MIN/MAX), or 0.
            let widths: Vec<f64> = t.iter().map(|&(_, x, _, _)| x.1 - x.0).collect();
            let subset: f64 = widths.iter().filter(|_| rng.next_unit() < 0.5).sum();
            let ends: Vec<f64> = t.iter().flat_map(|&(_, x, _, _)| [x.0, x.1]).collect();
            let a = pick(&mut rng, &ends);
            let b = pick(&mut rng, &ends);
            let base = match (rng.next_unit() * 4.0) as usize {
                0 => subset,
                1 => subset / (1 + (rng.next_unit() * n as f64) as usize) as f64,
                2 => (a - b).abs(),
                _ => 0.0,
            };
            let r = nudge(base, (rng.next_unit() * 5.0) as i32 - 2);
            Case {
                t,
                s,
                r,
                thr,
                wthr,
                seed,
            }
        }

        /// The cached catalog, or (`realize`) a master catalog holding
        /// one realization of it: endpoints as often as interior points,
        /// since ties sit at the endpoints.
        pub fn catalog(&self, realize: bool) -> Catalog {
            let mut rng = Realizer::new(self.seed ^ 0x4EA1);
            let mut cell = |(lo, hi): Cell| {
                if lo == hi {
                    BoundedValue::exact_f64(lo).unwrap()
                } else if realize {
                    let v = match (rng.next_unit() * 3.0) as usize {
                        0 => lo,
                        1 => hi,
                        _ => rng.in_range(lo, hi).clamp(lo, hi),
                    };
                    BoundedValue::exact_f64(v).unwrap()
                } else {
                    BoundedValue::bounded(lo, hi).unwrap()
                }
            };
            let t_schema = Schema::new(vec![
                ColumnDef::exact("g", ValueType::Int),
                ColumnDef::bounded_float("x"),
                ColumnDef::bounded_float("y"),
            ])
            .unwrap();
            let mut t = Table::new("t", t_schema);
            for &(g, x, y, cost) in &self.t {
                let cells = vec![BoundedValue::Exact(Value::Int(g)), cell(x), cell(y)];
                t.insert_with_cost(cells, cost).unwrap();
            }
            let s_schema = Schema::new(vec![
                ColumnDef::exact("sg", ValueType::Int),
                ColumnDef::bounded_float("w"),
            ])
            .unwrap();
            let mut s = Table::new("s", s_schema);
            for &(g, w) in &self.s {
                let cells = vec![BoundedValue::Exact(Value::Int(g)), cell(w)];
                s.insert_with_cost(cells, 1.0 + g as f64).unwrap();
            }
            let mut catalog = Catalog::new();
            catalog.add_table(t).unwrap();
            catalog.add_table(s).unwrap();
            catalog
        }

        /// The case's queries: every aggregate, scalar, grouped and join,
        /// at `WITHIN r`.
        pub fn queries(&self) -> Vec<Query> {
            let mut out = Vec::new();
            for agg in ["SUM(x)", "AVG(x)", "COUNT(*)", "MIN(x)", "MAX(x)"] {
                let filter = self.thr.map(|thr| format!("y > {thr:?}"));
                let mut join = vec!["g = sg".to_owned()];
                join.extend(self.wthr.map(|w| format!("w > {w:?}")));
                join.extend(filter.clone());
                let single = filter.map(|f| format!(" WHERE {f}")).unwrap_or_default();
                for sql in [
                    format!("SELECT {agg} FROM t{single}"),
                    format!("SELECT {agg} FROM t{single} GROUP BY g"),
                    format!("SELECT {agg} FROM t, s WHERE {}", join.join(" AND ")),
                ] {
                    let mut q = trapp_sql::parse_query(&sql).unwrap();
                    q.within = Some(self.r);
                    out.push(q);
                }
            }
            out
        }
    }

    /// Per unit (group key, or `""` for a single row): the delivered
    /// answer, and whether it reports the constraint met.
    type Units = Vec<(String, trapp_types::Interval, bool)>;

    fn units(outcome: QueryOutcome) -> Units {
        match outcome {
            QueryOutcome::Scalar(r) => vec![(String::new(), r.answer.range, r.satisfied)],
            QueryOutcome::Grouped(groups) => groups
                .into_iter()
                .map(|g| {
                    (
                        format!("{:?}", g.key),
                        g.result.answer.range,
                        g.result.satisfied,
                    )
                })
                .collect(),
        }
    }

    /// Runs `q` against the cached catalog refreshing from `master`, on
    /// the view path (`scan = false`) or the scan reference.
    pub fn run(case: &Case, q: &Query, scan: bool) -> Result<Units, TrappError> {
        let mut session = QuerySession::with_catalog(case.catalog(false));
        let mut oracle = TableOracle::new(case.catalog(true));
        let bound = bind_query(q, session.catalog())?;
        let outcome = if scan {
            session.drive(&mut oracle, |s| s.plan_scan(&bound))?
        } else {
            session.drive(&mut oracle, |s| s.plan_query(q))?
        };
        Ok(units(outcome))
    }

    /// The exact aggregate per unit over the master values (sums exact,
    /// rounded once).
    pub fn truth(case: &Case, q: &Query) -> Result<Units, TrappError> {
        let mut exact = q.clone();
        exact.within = None;
        let mut session = QuerySession::with_catalog(case.catalog(true));
        let bound = bind_query(&exact, session.catalog())?;
        let mut oracle = TableOracle::new(case.catalog(true));
        Ok(units(session.drive(&mut oracle, |s| s.plan_scan(&bound))?))
    }
}

#[test]
fn adversarial_widths_and_containment_hold_exactly() {
    for case_no in 0..ADVERSARIAL_CASES {
        let seed = ADVERSARIAL_SEED ^ case_no.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let case = adversarial::Case::generate(seed);
        for q in case.queries() {
            for scan in [false, true] {
                let path = if scan { "plan_scan" } else { "view" };
                let context = || format!("case {case_no} (seed {seed:#x}) {path}: {q:?}");
                // AVG over a selection that may be empty has no answer.
                let units = match adversarial::run(&case, &q, scan) {
                    Ok(units) => units,
                    Err(trapp_types::TrappError::Unsupported(_)) => continue,
                    Err(e) => panic!("{}: {e}", context()),
                };
                let truths = match adversarial::truth(&case, &q) {
                    Ok(truths) => truths,
                    Err(trapp_types::TrappError::Unsupported(_)) => Vec::new(),
                    Err(e) => panic!("{}: truth: {e}", context()),
                };
                for (key, range, satisfied) in &units {
                    assert!(
                        *satisfied && range.width() <= case.r,
                        "{}: group {key}: width {} > R {} ({range:?})",
                        context(),
                        range.width(),
                        case.r
                    );
                    if let Some((_, truth, _)) = truths.iter().find(|(k, _, _)| k == key) {
                        assert!(
                            range.contains(truth.lo()),
                            "{}: group {key}: {range:?} misses {}",
                            context(),
                            truth.lo()
                        );
                    }
                }
            }
        }
    }
}
