//! `sql`: parsing the workload's distinct SQL strings.

use std::hint::black_box;

use crate::report::Metric;
use crate::workload::Workload;

use super::{median_ns, metric};

pub fn probe(w: &Workload) -> Vec<Metric> {
    let mut next = 0usize;
    let ns = median_ns(1, || {
        let q = &w.distinct[next % w.distinct.len()];
        next += 1;
        black_box(trapp_sql::parse_query(black_box(&q.sql)).expect("generated SQL parses"));
    });
    vec![metric("sql.parse_ns", ns, "ns")]
}
