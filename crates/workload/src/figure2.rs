//! The paper's Figure 2 fixture and worked examples Q1–Q6.
//!
//! Schema: `links(from_node INT, to_node INT, latency BOUNDED, bandwidth
//! BOUNDED, traffic BOUNDED, on_path BOOL)`, where `on_path` marks the
//! tuples {1, 2, 5, 6} forming the path N1→N2→N4→N5→N6 used by Q1/Q2.
//! Per-tuple refresh costs come from the paper's `refresh cost` column.

use std::sync::Arc;

use trapp_storage::{ColumnDef, Schema, Table};
use trapp_types::{BoundedValue, Value, ValueType};

/// Index of the `latency` column.
pub const LATENCY: usize = 2;
/// Index of the `bandwidth` column.
pub const BANDWIDTH: usize = 3;
/// Index of the `traffic` column.
pub const TRAFFIC: usize = 4;

/// One Figure 2 row: `(from, to, latency bound, bandwidth bound,
/// traffic bound, cost, on_path)`.
pub type FixtureRow = (i64, i64, (f64, f64), (f64, f64), (f64, f64), f64, bool);

/// The cached rows of Figure 2.
pub const ROWS: [FixtureRow; 6] = [
    (1, 2, (2.0, 4.0), (60.0, 70.0), (95.0, 105.0), 3.0, true),
    (2, 4, (5.0, 7.0), (45.0, 60.0), (110.0, 120.0), 6.0, true),
    (3, 4, (12.0, 16.0), (55.0, 70.0), (95.0, 110.0), 6.0, false),
    (2, 3, (9.0, 11.0), (65.0, 70.0), (120.0, 145.0), 8.0, false),
    (4, 5, (8.0, 11.0), (40.0, 55.0), (90.0, 110.0), 4.0, true),
    (5, 6, (4.0, 6.0), (45.0, 60.0), (90.0, 105.0), 2.0, true),
];

/// `(latency, bandwidth, traffic)` — the precise master values of Figure 2.
pub const PRECISE: [(f64, f64, f64); 6] = [
    (3.0, 61.0, 98.0),
    (7.0, 53.0, 116.0),
    (13.0, 62.0, 105.0),
    (9.0, 68.0, 127.0),
    (11.0, 50.0, 95.0),
    (5.0, 45.0, 103.0),
];

/// The `links` schema.
pub fn schema() -> Arc<Schema> {
    Schema::new(vec![
        ColumnDef::exact("from_node", ValueType::Int),
        ColumnDef::exact("to_node", ValueType::Int),
        ColumnDef::bounded_float("latency"),
        ColumnDef::bounded_float("bandwidth"),
        ColumnDef::bounded_float("traffic"),
        ColumnDef::exact("on_path", ValueType::Bool),
    ])
    .expect("static schema")
}

/// The cached table (bounds).
pub fn links_table() -> Table {
    let mut t = Table::new("links", schema());
    for (from, to, lat, bw, tr, cost, on_path) in ROWS {
        t.insert_with_cost(
            vec![
                BoundedValue::Exact(Value::Int(from)),
                BoundedValue::Exact(Value::Int(to)),
                BoundedValue::bounded(lat.0, lat.1).expect("static bound"),
                BoundedValue::bounded(bw.0, bw.1).expect("static bound"),
                BoundedValue::bounded(tr.0, tr.1).expect("static bound"),
                BoundedValue::Exact(Value::Bool(on_path)),
            ],
            cost,
        )
        .expect("static row");
    }
    t
}

/// The master table (precise values).
pub fn master_table() -> Table {
    let mut t = Table::new("links", schema());
    for (i, (from, to, _, _, _, cost, on_path)) in ROWS.into_iter().enumerate() {
        let (lat, bw, tr) = PRECISE[i];
        t.insert_with_cost(
            vec![
                BoundedValue::Exact(Value::Int(from)),
                BoundedValue::Exact(Value::Int(to)),
                BoundedValue::exact_f64(lat).expect("static value"),
                BoundedValue::exact_f64(bw).expect("static value"),
                BoundedValue::exact_f64(tr).expect("static value"),
                BoundedValue::Exact(Value::Bool(on_path)),
            ],
            cost,
        )
        .expect("static row");
    }
    t
}

/// One worked example from the paper: the query text, its description, and
/// the expected initial/final bounded answers at the stated `R`.
#[derive(Clone, Debug)]
pub struct WorkedExample {
    /// Identifier (Q1–Q6).
    pub id: &'static str,
    /// What the query asks (§1.1).
    pub description: &'static str,
    /// TRAPP/AG SQL.
    pub sql: &'static str,
    /// Expected cache-only bounded answer.
    pub expect_initial: (f64, f64),
    /// The bounded answer the paper reports after CHOOSE_REFRESH + refresh.
    pub expect_final: (f64, f64),
    /// The tuples the paper refreshes (1-based Figure 2 row numbers).
    pub expect_refreshed: &'static [u64],
    /// The final answer and refresh set the planner delivers where they
    /// differ from the paper's: Q2, Q3 and Q6 keep widths that sum to
    /// exactly their knapsack capacity, which the knapsack's own rounded
    /// sums and the answer's rounded endpoints can overrun, so the
    /// certified capacity (ARCHITECTURE §2) keeps less.
    pub certified: Option<((f64, f64), &'static [u64])>,
}

impl WorkedExample {
    /// The final answer and refresh set a [`trapp_core::QuerySession`]
    /// delivers: [`WorkedExample::certified`] where set, the paper's
    /// otherwise.
    pub fn delivered(&self) -> ((f64, f64), &'static [u64]) {
        self.certified
            .unwrap_or((self.expect_final, self.expect_refreshed))
    }
}

/// The six worked examples of the paper, with the answers it reports.
pub fn worked_examples() -> Vec<WorkedExample> {
    vec![
        WorkedExample {
            id: "Q1",
            description: "bottleneck (minimum bandwidth) along the path",
            sql: "SELECT MIN(bandwidth) WITHIN 10 FROM links WHERE on_path = TRUE",
            expect_initial: (40.0, 55.0),
            expect_final: (45.0, 50.0),
            expect_refreshed: &[5],
            certified: None,
        },
        WorkedExample {
            id: "Q2",
            description: "total latency along the path",
            sql: "SELECT SUM(latency) WITHIN 5 FROM links WHERE on_path = TRUE",
            expect_initial: (19.0, 28.0),
            expect_final: (21.0, 26.0),
            expect_refreshed: &[1, 6],
            certified: Some(((23.0, 27.0), &[5, 6])),
        },
        WorkedExample {
            id: "Q3",
            description: "average traffic level in the network",
            sql: "SELECT AVG(traffic) WITHIN 10 FROM links",
            expect_initial: (100.0, 695.0 / 6.0),
            expect_final: (103.0, 113.0),
            expect_refreshed: &[5, 6],
            certified: Some(((103.5, 671.0 / 6.0), &[1, 5, 6])),
        },
        WorkedExample {
            id: "Q4",
            description: "minimum traffic on fast links (bw > 50, lat < 10)",
            sql: "SELECT MIN(traffic) WITHIN 10 FROM links \
                  WHERE bandwidth > 50 AND latency < 10",
            expect_initial: (90.0, 105.0),
            expect_final: (95.0, 105.0),
            expect_refreshed: &[5, 6],
            certified: None,
        },
        WorkedExample {
            id: "Q5",
            description: "number of high-latency links (lat > 10)",
            sql: "SELECT COUNT(*) WITHIN 1 FROM links WHERE latency > 10",
            expect_initial: (1.0, 3.0),
            expect_final: (2.0, 3.0),
            expect_refreshed: &[5],
            certified: None,
        },
        WorkedExample {
            id: "Q6",
            description: "average latency of high-traffic links (traffic > 100)",
            sql: "SELECT AVG(latency) WITHIN 2 FROM links WHERE traffic > 100",
            expect_initial: (5.0, 34.0 / 3.0),
            expect_final: (8.0, 9.0),
            expect_refreshed: &[1, 3, 5, 6],
            certified: Some(((8.5, 9.0), &[1, 2, 3, 5, 6])),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use trapp_core::{QuerySession, SolverStrategy, TableOracle};

    /// The fixture is an executable specification: every worked example
    /// reproduces its numbers end-to-end — the paper's, or the certified
    /// planner's where the paper keeps an exact tie.
    #[test]
    fn all_worked_examples_reproduce() {
        for ex in worked_examples() {
            let mut session = QuerySession::new(links_table());
            session.config.strategy = SolverStrategy::Exact;
            let mut oracle = TableOracle::from_table(master_table());
            let r = session.execute_sql(ex.sql, &mut oracle).unwrap();
            let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
            assert!(
                close(r.initial_answer.range.lo(), ex.expect_initial.0)
                    && close(r.initial_answer.range.hi(), ex.expect_initial.1),
                "{}: initial {} vs expected {:?}",
                ex.id,
                r.initial_answer,
                ex.expect_initial
            );
            let (expect_final, expect_refreshed) = ex.delivered();
            assert!(
                close(r.answer.range.lo(), expect_final.0)
                    && close(r.answer.range.hi(), expect_final.1),
                "{}: final {} vs expected {:?}",
                ex.id,
                r.answer,
                expect_final
            );
            let refreshed: Vec<u64> = r.refreshed.iter().map(|(_, t)| t.raw()).collect();
            assert_eq!(refreshed, expect_refreshed, "{}: refresh set", ex.id);
            assert!(r.satisfied, "{}", ex.id);
        }
    }

    #[test]
    fn master_values_lie_within_cached_bounds() {
        let cache = links_table();
        let master = master_table();
        for (tid, row) in cache.scan() {
            for col in [LATENCY, BANDWIDTH, TRAFFIC] {
                let bound = row.interval(col).unwrap();
                let precise = master
                    .row(tid)
                    .unwrap()
                    .exact(col)
                    .unwrap()
                    .as_f64()
                    .unwrap();
                assert!(bound.contains(precise), "{tid} col {col}");
            }
        }
    }
}
