//! TPC-H-derived multi-table scenario workload.
//!
//! Three tables at the benchmark's (scaled-down) cardinality ratios —
//! `customer : orders : lineitem ≈ 1 : 3 : 12` — with bounded "hot"
//! columns (`acctbal`, `totalprice`, `quantity`, `extendedprice`) and
//! exact keys, plus a deterministic query suite spanning the shapes the
//! TRAPP engine supports:
//!
//! * **ScalarPred** — single-table aggregates under nested `AND`/`OR`
//!   predicates over bounded columns (membership itself uncertain);
//! * **JoinAgg** — two-way equi-joins (`customer ⋈ orders`,
//!   `orders ⋈ lineitem`) with a bounded filter conjunct, aggregated to
//!   one bounded answer;
//! * **JoinGroup** — grouped aggregates *over join results*
//!   (`GROUP BY nationkey` / `GROUP BY opriority`);
//! * **Grouped** — single-table `GROUP BY` on a non-partition key, so a
//!   sharded service must merge per-shard grouped partials.
//!
//! Order placement follows a zipfian customer-popularity distribution
//! and lineitem supplier keys are zipf-skewed, so join fan-in is
//! realistic rather than uniform. The whole workload — rows, queries,
//! and the exact ground truth of every query, computed engine-
//! independently with hash joins over the master values — is
//! deterministic per seed, which the golden-fingerprint tests pin down.
//!
//! Precision constraints are sized from the *exact* selection statistics
//! of each query (computed during generation), so refresh pressure is
//! controlled: a `pressure` factor below 1 forces the engine to refresh
//! a corresponding fraction of the contributing tuples, which is what
//! makes the suite a workout for multi-tuple join refresh rounds.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trapp_storage::{ColumnDef, Schema, Table};
use trapp_types::{BoundedValue, SourceId, Value, ValueType};

pub use crate::loadgen::{AggTemplate, RowSpec, Zipf};

/// Distinct `nationkey` values (TPC-H has 25 nations).
pub const NATIONS: usize = 25;
/// Distinct `opriority` values (TPC-H has 5 order priorities).
pub const PRIORITIES: i64 = 5;
/// `acctbal` master values are drawn uniformly from this range.
pub const ACCTBAL_RANGE: (f64, f64) = (0.0, 10_000.0);
/// `totalprice` master values are drawn uniformly from this range.
pub const TOTALPRICE_RANGE: (f64, f64) = (1_000.0, 100_000.0);
/// `quantity` master values are drawn uniformly from this range.
pub const QUANTITY_RANGE: (f64, f64) = (1.0, 50.0);
/// `extendedprice` master values are drawn uniformly from this range.
pub const EXTENDEDPRICE_RANGE: (f64, f64) = (100.0, 10_000.0);

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct TpchConfig {
    /// RNG seed (rows, queries, and ground truths are all deterministic
    /// per seed).
    pub seed: u64,
    /// Total rows across the three tables; split `1 : 3 : 12` between
    /// `customer`, `orders`, and `lineitem`. Must be at least 16.
    pub total_rows: usize,
    /// Number of data sources rows are spread across.
    pub sources: usize,
    /// Queries to generate.
    pub queries: usize,
    /// Zipf exponent for customer popularity in order placement (and
    /// supplier popularity in lineitems). `0` = uniform.
    pub zipf_s: f64,
    /// Distinct `suppkey` values.
    pub suppliers: usize,
    /// Relative weights for the four query classes, in
    /// `[ScalarPred, JoinAgg, JoinGroup, Grouped]` order.
    pub class_weights: [u32; 4],
}

impl Default for TpchConfig {
    fn default() -> TpchConfig {
        TpchConfig {
            seed: 7,
            total_rows: 1600,
            sources: 4,
            queries: 32,
            zipf_s: 1.0,
            suppliers: 10,
            class_weights: [2, 2, 1, 1],
        }
    }
}

/// The query classes the suite mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TpchClass {
    /// Single-table aggregate under a nested `AND`/`OR` bounded predicate.
    ScalarPred,
    /// Two-way equi-join with a bounded filter, one bounded answer.
    JoinAgg,
    /// Grouped aggregate over a join result.
    JoinGroup,
    /// Single-table `GROUP BY` on a non-partition key.
    Grouped,
}

impl TpchClass {
    /// All classes, in [`TpchConfig::class_weights`] order.
    pub const ALL: [TpchClass; 4] = [
        TpchClass::ScalarPred,
        TpchClass::JoinAgg,
        TpchClass::JoinGroup,
        TpchClass::Grouped,
    ];

    /// Stable lowercase label (profile keys in benches and reports).
    pub fn label(self) -> &'static str {
        match self {
            TpchClass::ScalarPred => "scalar_pred",
            TpchClass::JoinAgg => "join_agg",
            TpchClass::JoinGroup => "join_group",
            TpchClass::Grouped => "grouped",
        }
    }
}

/// The exact answer a query must bound, computed from master values.
#[derive(Clone, Debug)]
pub enum Truth {
    /// One scalar answer.
    Scalar(f64),
    /// Per-group answers, `(key, value)` ascending by key. Groups absent
    /// from this list may still be served (their membership was uncertain
    /// at the initial bounds); their served range must then contain the
    /// aggregate of the empty set — see [`group_violations`].
    Groups(Vec<(i64, f64)>),
}

/// One generated query with its exact ground truth.
#[derive(Clone, Debug)]
pub struct TpchQuery {
    /// Renderable TRAPP SQL.
    pub sql: String,
    /// The query's class.
    pub class: TpchClass,
    /// The aggregate used.
    pub agg: AggTemplate,
    /// The precision constraint.
    pub within: f64,
    /// The fraction of the query's natural answer width the constraint
    /// allows (`1.0` for absolute constraints): below 1, the engine must
    /// refresh roughly `1 - pressure` of the contributing tuples.
    pub pressure: f64,
    /// The exact answer(s) at the generated master values.
    pub truth: Truth,
}

/// A generated workload: three tables of row specs plus a query suite.
#[derive(Clone, Debug)]
pub struct TpchWorkload {
    /// Configuration it was generated from.
    pub config: TpchConfig,
    /// `customer` rows: `[custkey, nationkey, acctbal†]` († bounded).
    pub customer: Vec<RowSpec>,
    /// `orders` rows: `[orderkey, custkey, opriority, totalprice†]`.
    pub orders: Vec<RowSpec>,
    /// `lineitem` rows: `[orderkey, suppkey, quantity†, extendedprice†]`.
    pub lineitem: Vec<RowSpec>,
    /// The query suite, in submission order.
    pub queries: Vec<TpchQuery>,
}

/// The `customer` table schema.
pub fn customer_schema() -> std::sync::Arc<Schema> {
    Schema::new(vec![
        ColumnDef::exact("custkey", ValueType::Int),
        ColumnDef::exact("nationkey", ValueType::Int),
        ColumnDef::bounded_float("acctbal"),
    ])
    .expect("static schema")
}

/// An empty `customer` table.
pub fn customer_table() -> Table {
    Table::new("customer", customer_schema())
}

/// The `orders` table schema.
pub fn orders_schema() -> std::sync::Arc<Schema> {
    Schema::new(vec![
        ColumnDef::exact("orderkey", ValueType::Int),
        ColumnDef::exact("custkey", ValueType::Int),
        ColumnDef::exact("opriority", ValueType::Int),
        ColumnDef::bounded_float("totalprice"),
    ])
    .expect("static schema")
}

/// An empty `orders` table.
pub fn orders_table() -> Table {
    Table::new("orders", orders_schema())
}

/// The `lineitem` table schema.
pub fn lineitem_schema() -> std::sync::Arc<Schema> {
    Schema::new(vec![
        ColumnDef::exact("orderkey", ValueType::Int),
        ColumnDef::exact("suppkey", ValueType::Int),
        ColumnDef::bounded_float("quantity"),
        ColumnDef::bounded_float("extendedprice"),
    ])
    .expect("static schema")
}

/// An empty `lineitem` table.
pub fn lineitem_table() -> Table {
    Table::new("lineitem", lineitem_schema())
}

/// The nation a customer belongs to — a fixed multiplicative hash of the
/// customer key, so nation membership is stable across row counts.
pub fn nation_of(custkey: usize) -> i64 {
    (((custkey as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % NATIONS as u64) as i64
}

/// Weighted pick from `(item, weight)` pairs.
fn weighted<T: Copy>(rng: &mut StdRng, items: &[(T, u32)]) -> T {
    let total: u32 = items.iter().map(|(_, w)| w).sum();
    debug_assert!(total > 0, "all weights zero");
    let mut pick = rng.gen_range(0..total);
    for &(item, w) in items {
        if pick < w {
            return item;
        }
        pick -= w;
    }
    items[items.len() - 1].0
}

/// Aggregates a selection of master values. `Count` counts them; the
/// empty `Sum`/`Count` is `0`, matching the engine.
fn aggregate(agg: AggTemplate, vals: &[f64]) -> f64 {
    match agg {
        AggTemplate::Count => vals.len() as f64,
        AggTemplate::Sum => vals.iter().sum(),
        AggTemplate::Avg => vals.iter().sum::<f64>() / vals.len() as f64,
        AggTemplate::Min => vals.iter().fold(f64::INFINITY, |a, &v| a.min(v)),
    }
}

/// Column-major master views the truth computations index into.
struct Masters {
    /// Per customer: `(nationkey, acctbal)`, indexed by `custkey`.
    cust: Vec<(i64, f64)>,
    /// Per order: `(custkey, opriority, totalprice)`, indexed by `orderkey`.
    ords: Vec<(usize, i64, f64)>,
    /// Per lineitem: `(orderkey, suppkey, quantity, extendedprice)`.
    line: Vec<(usize, i64, f64, f64)>,
}

/// Precision lists per aggregate for frac-scaled (`Sum`) and absolute
/// constraints; see the `pressure` field docs.
const SUM_FRACS: [(f64, u32); 3] = [(1.3, 1), (0.9, 2), (0.6, 1)];
const COUNT_WITHINS: [(f64, u32); 3] = [(0.5, 1), (2.0, 2), (10.0, 1)];
const AVG_WITHINS: [(f64, u32); 3] = [(0.08, 1), (0.25, 2), (1.0, 1)];
const MIN_WITHINS: [(f64, u32); 3] = [(0.15, 1), (0.5, 2), (2.0, 1)];
/// Join `COUNT` constraints scale with the number of membership-
/// uncertain pairs, which itself scales with the row count.
const JOIN_COUNT_FRACS: [(f64, u32); 3] = [(1.5, 1), (0.75, 2), (0.3, 1)];

/// Generates the workload for `config`.
pub fn generate(config: &TpchConfig) -> TpchWorkload {
    assert!(config.total_rows >= 16, "need at least 16 rows for 1:3:12");
    assert!(config.sources > 0 && config.suppliers > 0);
    assert!(config.class_weights.iter().any(|&w| w > 0));
    let mut rng = StdRng::seed_from_u64(config.seed);

    let customers = (config.total_rows / 16).max(1);
    let orders_n = 3 * customers;
    let lineitems = config.total_rows.saturating_sub(customers + orders_n);
    let src = |i: usize| SourceId::new(1 + (i % config.sources) as u64);

    let mut masters = Masters {
        cust: Vec::with_capacity(customers),
        ords: Vec::with_capacity(orders_n),
        line: Vec::with_capacity(lineitems),
    };

    let mut customer = Vec::with_capacity(customers);
    for c in 0..customers {
        let nation = nation_of(c);
        let acctbal = rng.gen_range(ACCTBAL_RANGE.0..=ACCTBAL_RANGE.1);
        masters.cust.push((nation, acctbal));
        customer.push(RowSpec {
            source: src(c),
            cells: vec![
                BoundedValue::Exact(Value::Int(c as i64)),
                BoundedValue::Exact(Value::Int(nation)),
                BoundedValue::exact_f64(acctbal).expect("finite acctbal"),
            ],
        });
    }

    // Order volume follows customer popularity: rank k of the zipf maps
    // to customer k, so low-key customers are join hot spots.
    let cust_zipf = Zipf::new(customers, config.zipf_s);
    let mut orders = Vec::with_capacity(orders_n);
    for o in 0..orders_n {
        let custkey = cust_zipf.sample(&mut rng);
        let priority = rng.gen_range(1..=PRIORITIES);
        let totalprice = rng.gen_range(TOTALPRICE_RANGE.0..=TOTALPRICE_RANGE.1);
        masters.ords.push((custkey, priority, totalprice));
        orders.push(RowSpec {
            source: src(o + 1),
            cells: vec![
                BoundedValue::Exact(Value::Int(o as i64)),
                BoundedValue::Exact(Value::Int(custkey as i64)),
                BoundedValue::Exact(Value::Int(priority)),
                BoundedValue::exact_f64(totalprice).expect("finite totalprice"),
            ],
        });
    }

    let supp_zipf = Zipf::new(config.suppliers, config.zipf_s);
    let mut lineitem = Vec::with_capacity(lineitems);
    for l in 0..lineitems {
        let orderkey = rng.gen_range(0..orders_n);
        let suppkey = supp_zipf.sample(&mut rng) as i64;
        let quantity = rng.gen_range(QUANTITY_RANGE.0..=QUANTITY_RANGE.1);
        let extendedprice = rng.gen_range(EXTENDEDPRICE_RANGE.0..=EXTENDEDPRICE_RANGE.1);
        masters
            .line
            .push((orderkey, suppkey, quantity, extendedprice));
        lineitem.push(RowSpec {
            source: src(l + 2),
            cells: vec![
                BoundedValue::Exact(Value::Int(orderkey as i64)),
                BoundedValue::Exact(Value::Int(suppkey)),
                BoundedValue::exact_f64(quantity).expect("finite quantity"),
                BoundedValue::exact_f64(extendedprice).expect("finite extendedprice"),
            ],
        });
    }

    let classes: Vec<(TpchClass, u32)> = TpchClass::ALL
        .iter()
        .copied()
        .zip(config.class_weights)
        .collect();
    let mut queries = Vec::with_capacity(config.queries);
    for _ in 0..config.queries {
        queries.push(match weighted(&mut rng, &classes) {
            TpchClass::ScalarPred => scalar_pred_query(&mut rng, &masters, config.suppliers),
            TpchClass::JoinAgg => join_agg_query(&mut rng, &masters),
            TpchClass::JoinGroup => join_group_query(&mut rng, &masters),
            TpchClass::Grouped => grouped_query(&mut rng, &masters),
        });
    }

    TpchWorkload {
        config: config.clone(),
        customer,
        orders,
        lineitem,
        queries,
    }
}

/// Samples a `WITHIN` for `agg` over a selection of `n_sel` values,
/// returning `(within, pressure)`. `Sum` constraints scale with the
/// selection size (each contributing tuple's initial bound is about one
/// unit wide, so `frac < 1` forces refreshing about `1 - frac` of them);
/// the rest use absolute lists.
fn sample_within(rng: &mut StdRng, agg: AggTemplate, n_sel: usize) -> (f64, f64) {
    match agg {
        AggTemplate::Sum => {
            let frac = weighted(rng, &SUM_FRACS);
            (frac * (n_sel.max(1) as f64), frac)
        }
        AggTemplate::Count => (weighted(rng, &COUNT_WITHINS), 1.0),
        AggTemplate::Avg => (weighted(rng, &AVG_WITHINS), 1.0),
        AggTemplate::Min => (weighted(rng, &MIN_WITHINS), 1.0),
    }
}

/// `SELECT agg(quantity) FROM lineitem WHERE suppkey = s AND (quantity >
/// qt OR extendedprice > pt)` — nested AND/OR with bounded membership.
fn scalar_pred_query(rng: &mut StdRng, m: &Masters, suppliers: usize) -> TpchQuery {
    let s = rng.gen_range(0..suppliers) as i64;
    let qt = rng.gen_range(10.0..40.0);
    let pt = rng.gen_range(2000.0..8000.0);
    let mut agg = weighted(
        rng,
        &[
            (AggTemplate::Count, 1),
            (AggTemplate::Sum, 2),
            (AggTemplate::Avg, 1),
            (AggTemplate::Min, 1),
        ],
    );
    let selected: Vec<f64> = m
        .line
        .iter()
        .filter(|&&(_, sk, q, ep)| sk == s && (q > qt || ep > pt))
        .map(|&(_, _, q, _)| q)
        .collect();
    // AVG/MIN of an empty selection is undefined; SUM of it is 0.
    if selected.is_empty() && matches!(agg, AggTemplate::Avg | AggTemplate::Min) {
        agg = AggTemplate::Sum;
    }
    let (within, pressure) = sample_within(rng, agg, selected.len());
    let head = match agg {
        AggTemplate::Count => "COUNT(*)".to_string(),
        AggTemplate::Sum => "SUM(quantity)".to_string(),
        AggTemplate::Avg => "AVG(quantity)".to_string(),
        AggTemplate::Min => "MIN(quantity)".to_string(),
    };
    TpchQuery {
        sql: format!(
            "SELECT {head} WITHIN {within} FROM lineitem \
             WHERE suppkey = {s} AND (quantity > {qt} OR extendedprice > {pt})"
        ),
        class: TpchClass::ScalarPred,
        agg,
        within,
        pressure,
        truth: Truth::Scalar(aggregate(agg, &selected)),
    }
}

/// Two-way equi-join with a bounded filter conjunct: either
/// `customer ⋈ orders` filtered by `acctbal`, or `orders ⋈ lineitem`
/// filtered by `quantity`.
fn join_agg_query(rng: &mut StdRng, m: &Masters) -> TpchQuery {
    if rng.gen_range(0..2) == 0 {
        let at = rng.gen_range(1000.0..9000.0);
        let mut agg = weighted(
            rng,
            &[
                (AggTemplate::Sum, 2),
                (AggTemplate::Count, 1),
                (AggTemplate::Avg, 1),
            ],
        );
        let selected: Vec<f64> = m
            .ords
            .iter()
            .filter(|&&(ck, _, _)| m.cust[ck].1 > at)
            .map(|&(_, _, tp)| tp)
            .collect();
        if selected.is_empty() && agg == AggTemplate::Avg {
            agg = AggTemplate::Sum;
        }
        let (within, pressure) = match agg {
            // AVG of totalprice has magnitude ~1e5; a unit-width list
            // would be indistinguishable from exact.
            AggTemplate::Avg => (weighted(rng, &[(5.0, 1), (25.0, 2), (100.0, 1)]), 1.0),
            _ => sample_within(rng, agg, selected.len()),
        };
        let head = match agg {
            AggTemplate::Count => "COUNT(*)".to_string(),
            AggTemplate::Avg => "AVG(totalprice)".to_string(),
            _ => "SUM(totalprice)".to_string(),
        };
        TpchQuery {
            sql: format!(
                "SELECT {head} WITHIN {within} FROM customer, orders \
                 WHERE customer.custkey = orders.custkey AND acctbal > {at}"
            ),
            class: TpchClass::JoinAgg,
            agg,
            within,
            pressure,
            truth: Truth::Scalar(aggregate(agg, &selected)),
        }
    } else {
        let qt = rng.gen_range(10.0..40.0);
        let agg = weighted(rng, &[(AggTemplate::Count, 1), (AggTemplate::Sum, 1)]);
        let selected: Vec<f64> = m
            .line
            .iter()
            .filter(|&&(_, _, q, _)| q > qt)
            .map(|&(_, _, _, ep)| ep)
            .collect();
        let (within, pressure) = match agg {
            AggTemplate::Count => {
                // Only pairs whose quantity bound straddles the threshold
                // contribute width; size the constraint to that count.
                let straddlers = m.line.iter().filter(|&&(_, _, q, _)| (q - qt).abs() <= 0.5);
                let frac = weighted(rng, &JOIN_COUNT_FRACS);
                ((frac * straddlers.count() as f64).max(1.0), frac)
            }
            _ => sample_within(rng, AggTemplate::Sum, selected.len()),
        };
        let head = match agg {
            AggTemplate::Count => "COUNT(*)",
            _ => "SUM(extendedprice)",
        };
        let truth = match agg {
            AggTemplate::Count => selected.len() as f64,
            _ => selected.iter().sum(),
        };
        TpchQuery {
            sql: format!(
                "SELECT {head} WITHIN {within} FROM orders, lineitem \
                 WHERE orders.orderkey = lineitem.orderkey AND quantity > {qt}"
            ),
            class: TpchClass::JoinAgg,
            agg,
            within,
            pressure,
            truth: Truth::Scalar(truth),
        }
    }
}

/// Grouped aggregate over a join result: `SUM(totalprice)` per nation
/// over `customer ⋈ orders`, or pair counts per order priority over
/// `orders ⋈ lineitem` under a bounded `quantity` filter.
fn join_group_query(rng: &mut StdRng, m: &Masters) -> TpchQuery {
    if rng.gen_range(0..2) == 0 {
        let mut by_nation: BTreeMap<i64, f64> = BTreeMap::new();
        for &(ck, _, tp) in &m.ords {
            *by_nation.entry(m.cust[ck].0).or_default() += tp;
        }
        let frac = weighted(rng, &[(1.5, 1), (1.0, 2), (0.7, 1)]);
        let avg_group = (m.ords.len() as f64 / by_nation.len().max(1) as f64).max(1.0);
        let within = frac * avg_group;
        TpchQuery {
            sql: format!(
                "SELECT SUM(totalprice) WITHIN {within} FROM customer, orders \
                 WHERE customer.custkey = orders.custkey GROUP BY nationkey"
            ),
            class: TpchClass::JoinGroup,
            agg: AggTemplate::Sum,
            within,
            pressure: frac,
            truth: Truth::Groups(by_nation.into_iter().collect()),
        }
    } else {
        let qt = rng.gen_range(10.0..40.0);
        let mut by_priority: BTreeMap<i64, f64> = BTreeMap::new();
        let mut straddlers = 0usize;
        for &(ok, _, q, _) in &m.line {
            if q > qt {
                *by_priority.entry(m.ords[ok].1).or_default() += 1.0;
            }
            if (q - qt).abs() <= 0.5 {
                straddlers += 1;
            }
        }
        let frac = weighted(rng, &JOIN_COUNT_FRACS);
        let within = (frac * straddlers as f64 / PRIORITIES as f64).max(1.0);
        TpchQuery {
            sql: format!(
                "SELECT COUNT(*) WITHIN {within} FROM orders, lineitem \
                 WHERE orders.orderkey = lineitem.orderkey AND quantity > {qt} \
                 GROUP BY opriority"
            ),
            class: TpchClass::JoinGroup,
            agg: AggTemplate::Count,
            within,
            pressure: frac,
            truth: Truth::Groups(by_priority.into_iter().collect()),
        }
    }
}

/// Single-table `GROUP BY nationkey` over `customer` — the group key is
/// not the partition key, so sharded services must merge grouped
/// partials across every shard.
fn grouped_query(rng: &mut StdRng, m: &Masters) -> TpchQuery {
    let agg = weighted(
        rng,
        &[
            (AggTemplate::Count, 1),
            (AggTemplate::Sum, 2),
            (AggTemplate::Avg, 2),
            (AggTemplate::Min, 1),
        ],
    );
    let at = rng.gen_range(1000.0..9000.0);
    let mut by_nation: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    for &(nation, bal) in &m.cust {
        // COUNT filters by the bounded balance; the others span the group.
        if agg != AggTemplate::Count || bal > at {
            by_nation.entry(nation).or_default().push(bal);
        }
        if agg == AggTemplate::Count {
            by_nation.entry(nation).or_default();
        }
    }
    let avg_group = (m.cust.len() as f64 / NATIONS as f64).max(1.0);
    let (within, pressure) = match agg {
        AggTemplate::Sum => {
            let frac = weighted(rng, &SUM_FRACS);
            (frac * avg_group, frac)
        }
        AggTemplate::Count => (weighted(rng, &COUNT_WITHINS), 1.0),
        AggTemplate::Avg => (weighted(rng, &AVG_WITHINS), 1.0),
        AggTemplate::Min => (weighted(rng, &MIN_WITHINS), 1.0),
    };
    let (head, filter) = match agg {
        AggTemplate::Count => ("COUNT(*)", format!("WHERE acctbal > {at} ")),
        AggTemplate::Sum => ("SUM(acctbal)", String::new()),
        AggTemplate::Avg => ("AVG(acctbal)", String::new()),
        AggTemplate::Min => ("MIN(acctbal)", String::new()),
    };
    let truth = by_nation
        .into_iter()
        .map(|(n, vals)| (n, aggregate(agg, &vals)))
        .collect();
    TpchQuery {
        sql: format!("SELECT {head} WITHIN {within} FROM customer {filter}GROUP BY nationkey"),
        class: TpchClass::Grouped,
        agg,
        within,
        pressure,
        truth: Truth::Groups(truth),
    }
}

/// Whether a served scalar range `[lo, hi]` misses the query's exact
/// truth (with a small float tolerance).
pub fn scalar_violation(q: &TpchQuery, lo: f64, hi: f64) -> bool {
    let Truth::Scalar(t) = q.truth else {
        panic!("scalar_violation on a grouped query: {}", q.sql);
    };
    !(lo - 1e-6 <= t && t <= hi + 1e-6)
}

/// Counts ground-truth violations in served groups `(key, lo, hi)`.
///
/// Every truth group must be served with a range containing its exact
/// value. A served group *absent* from the truth is legitimate when its
/// members were merely uncertain (for joins, a group exists as soon as
/// one pair is not certainly-false at the initial bounds) — but its
/// range must then contain the empty aggregate, `0`, which holds for
/// the `SUM`/`COUNT` aggregates the grouped-join suite is restricted to.
pub fn group_violations(q: &TpchQuery, served: &[(i64, f64, f64)]) -> usize {
    let Truth::Groups(truths) = &q.truth else {
        panic!("group_violations on a scalar query: {}", q.sql);
    };
    let contains = |lo: f64, hi: f64, t: f64| lo - 1e-6 <= t && t <= hi + 1e-6;
    let mut violations = 0;
    for &(key, t) in truths {
        match served.iter().find(|&&(k, _, _)| k == key) {
            Some(&(_, lo, hi)) if contains(lo, hi, t) => {}
            _ => violations += 1,
        }
    }
    for &(key, lo, hi) in served {
        if truths.iter().all(|&(k, _)| k != key) && !contains(lo, hi, 0.0) {
            violations += 1;
        }
    }
    violations
}

/// FNV-1a fingerprint of the workload's rows and query texts — the
/// seed-stability golden the fixture tests pin. Any change to the
/// generator's draw order shows up here.
pub fn fingerprint(w: &TpchWorkload) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for rows in [&w.customer, &w.orders, &w.lineitem] {
        for r in rows {
            eat(&r.source.raw().to_le_bytes());
            for c in &r.cells {
                match c {
                    BoundedValue::Exact(Value::Int(x)) => eat(&x.to_le_bytes()),
                    other => {
                        let m = other.as_interval().expect("numeric cell").midpoint();
                        eat(&m.to_bits().to_le_bytes());
                    }
                }
            }
        }
    }
    for q in &w.queries {
        eat(q.sql.as_bytes());
        match &q.truth {
            Truth::Scalar(t) => eat(&t.to_bits().to_le_bytes()),
            Truth::Groups(g) => {
                for &(k, t) in g {
                    eat(&k.to_le_bytes());
                    eat(&t.to_bits().to_le_bytes());
                }
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use trapp_core::executor::{QuerySession, TableOracle};

    /// Cached tables carry width-1 bounds around each master (the shape a
    /// serving layer installs); the oracle holds the exact masters.
    fn widened_session() -> (TpchWorkload, QuerySession, TableOracle) {
        let w = generate(&TpchConfig {
            total_rows: 320,
            queries: 40,
            class_weights: [1, 1, 1, 1],
            ..TpchConfig::default()
        });
        let mut cached = trapp_storage::Catalog::new();
        let mut masters = trapp_storage::Catalog::new();
        for (rows, make) in [
            (&w.customer, customer_table as fn() -> Table),
            (&w.orders, orders_table),
            (&w.lineitem, lineitem_table),
        ] {
            let (mut c, mut m) = (make(), make());
            for r in rows {
                let widened: Vec<BoundedValue> = r
                    .cells
                    .iter()
                    .map(|cell| match cell {
                        BoundedValue::Exact(Value::Int(_)) => cell.clone(),
                        other => {
                            let mid = other.as_interval().unwrap().midpoint();
                            BoundedValue::bounded(mid - 0.5, mid + 0.5).unwrap()
                        }
                    })
                    .collect();
                c.insert(widened).unwrap();
                m.insert(r.cells.clone()).unwrap();
            }
            cached.add_table(c).unwrap();
            masters.add_table(m).unwrap();
        }
        let session = QuerySession::with_catalog(cached);
        let oracle = TableOracle::new(masters);
        (w, session, oracle)
    }

    #[test]
    fn deterministic_per_seed() {
        let c = TpchConfig::default();
        assert_eq!(fingerprint(&generate(&c)), fingerprint(&generate(&c)));
        let other = generate(&TpchConfig { seed: 8, ..c });
        assert_ne!(fingerprint(&generate(&c)), fingerprint(&other));
    }

    #[test]
    fn cardinality_ratios_hold() {
        let w = generate(&TpchConfig {
            total_rows: 160_000,
            queries: 0,
            ..TpchConfig::default()
        });
        assert_eq!(w.customer.len(), 10_000);
        assert_eq!(w.orders.len(), 30_000);
        assert_eq!(w.lineitem.len(), 120_000);
        // Zipfian order placement: the most popular customer holds far
        // more orders than an average one.
        let mut per_cust = vec![0usize; w.customer.len()];
        for r in &w.orders {
            let BoundedValue::Exact(Value::Int(ck)) = r.cells[1] else {
                panic!("exact custkey expected")
            };
            per_cust[ck as usize] += 1;
        }
        let avg = w.orders.len() / w.customer.len();
        assert!(per_cust[0] > 20 * avg, "no zipf skew: {}", per_cust[0]);
    }

    #[test]
    fn all_classes_generate_and_parse() {
        let w = generate(&TpchConfig {
            queries: 64,
            class_weights: [1, 1, 1, 1],
            ..TpchConfig::default()
        });
        for class in TpchClass::ALL {
            assert!(
                w.queries.iter().any(|q| q.class == class),
                "no {} queries in 64",
                class.label()
            );
        }
        for q in &w.queries {
            trapp_sql::parse_query(&q.sql).unwrap_or_else(|e| panic!("{}: {e}", q.sql));
        }
    }

    /// Every query class executes on a core session over widened caches
    /// and lands inside its engine-independent ground truth.
    #[test]
    fn session_answers_match_ground_truth() {
        let (w, mut session, mut oracle) = widened_session();
        for q in &w.queries {
            let query = trapp_sql::parse_query(&q.sql).unwrap();
            match &q.truth {
                Truth::Scalar(_) => {
                    let r = session.execute(&query, &mut oracle).unwrap();
                    assert!(r.satisfied, "{}", q.sql);
                    assert!(r.answer.width() <= q.within + 1e-9, "{}", q.sql);
                    assert!(
                        !scalar_violation(q, r.answer.range.lo(), r.answer.range.hi()),
                        "{}: truth outside {}",
                        q.sql,
                        r.answer
                    );
                }
                Truth::Groups(_) => {
                    let groups = session.execute_grouped(&query, &mut oracle).unwrap();
                    let served: Vec<(i64, f64, f64)> = groups
                        .iter()
                        .map(|g| {
                            let Value::Int(k) = g.key[0] else {
                                panic!("int group keys expected")
                            };
                            (k, g.result.answer.range.lo(), g.result.answer.range.hi())
                        })
                        .collect();
                    assert!(groups.iter().all(|g| g.result.satisfied), "{}", q.sql);
                    assert_eq!(group_violations(q, &served), 0, "{}", q.sql);
                }
            }
        }
    }

    /// The batched join rounds a serving layer runs (`plan_query` →
    /// refresh → re-plan) against the §7 one-tuple loop (`execute`): both
    /// satisfy every join query with the same answer and the same refresh
    /// sequence, and batching never takes more rounds.
    #[test]
    fn join_queries_satisfied_in_both_modes() {
        use trapp_core::query_plan::QueryOutcome;
        let (w, mut batched, mut oracle_a) = widened_session();
        let (_, mut one_tuple, mut oracle_b) = widened_session();
        let mut fetched = 0;
        for q in w.queries.iter().filter(|q| q.class == TpchClass::JoinAgg) {
            let query = trapp_sql::parse_query(&q.sql).unwrap();
            let outcome = batched
                .drive(&mut oracle_a, |s| s.plan_query(&query))
                .unwrap();
            let QueryOutcome::Scalar(a) = outcome else {
                panic!("{}: unexpected outcome {outcome:?}", q.sql);
            };
            let b = one_tuple.execute(&query, &mut oracle_b).unwrap();
            assert!(a.satisfied && b.satisfied, "{}", q.sql);
            assert_eq!(a.answer.range, b.answer.range, "{}", q.sql);
            assert_eq!(a.refreshed, b.refreshed, "{}", q.sql);
            assert!(
                a.rounds <= b.rounds,
                "{}: {} > {}",
                q.sql,
                a.rounds,
                b.rounds
            );
            fetched += a.refreshed.len();
        }
        assert!(fetched > 0, "no join query needed a refresh: vacuous");
    }

    #[test]
    fn violation_checkers_flag_misses() {
        let q = TpchQuery {
            sql: "test".into(),
            class: TpchClass::JoinAgg,
            agg: AggTemplate::Sum,
            within: 1.0,
            pressure: 1.0,
            truth: Truth::Scalar(10.0),
        };
        assert!(!scalar_violation(&q, 9.0, 11.0));
        assert!(scalar_violation(&q, 11.0, 12.0));

        let g = TpchQuery {
            truth: Truth::Groups(vec![(1, 5.0), (2, 7.0)]),
            ..q
        };
        // Exact match, one uncertain extra group covering 0: no violations.
        assert_eq!(
            group_violations(&g, &[(1, 4.0, 6.0), (2, 7.0, 7.0), (3, -0.5, 0.5)]),
            0
        );
        // Missing truth group, plus an extra group excluding 0: two.
        assert_eq!(group_violations(&g, &[(1, 4.0, 6.0), (3, 1.0, 2.0)]), 2);
    }

    /// Seed-stability goldens: these fingerprints pin the generator's
    /// exact draw order. If an intentional generator change moves them,
    /// update the constants — anything else is a regression.
    #[test]
    fn golden_fingerprints() {
        let small = generate(&TpchConfig::default());
        let larger = generate(&TpchConfig {
            seed: 11,
            total_rows: 8000,
            queries: 16,
            ..TpchConfig::default()
        });
        assert_eq!(small.customer.len(), 100);
        assert_eq!(small.lineitem.len(), 1200);
        assert_eq!(fingerprint(&small), GOLDEN_DEFAULT);
        assert_eq!(fingerprint(&larger), GOLDEN_LARGER);
    }

    const GOLDEN_DEFAULT: u64 = 12280489509909679724;
    const GOLDEN_LARGER: u64 = 2208844861897891012;
}
