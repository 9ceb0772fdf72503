//! The truth oracle: what each query's exact answer is, and whether a
//! reply's bound is honest about it.
//!
//! Read-only workloads have one exact truth per distinct SQL string,
//! computed once at set-up, so the check in the client loop is O(1) (O(groups)
//! for `GROUP BY`). Under writes the truth moves while a query runs, but it
//! cannot leave the per-row envelope of every value the row has held since
//! the epoch began — a correct bound must intersect the aggregate of that
//! envelope.

use std::sync::Mutex;

use trapp_server::ServiceReply;
use trapp_types::Value;

use crate::workload::{
    Agg, Class, QuerySpec, Update, Workload, JOIN_WEIGHT_THRESHOLD, VALUE_RANGE,
};

/// Slack for float summation-order differences between oracle and program.
const EPS: f64 = 1e-6;

/// `(lo, hi)` of one aggregate over per-row `(lo, hi)` envelopes.
fn agg_bounds(agg: Agg, rows: impl Iterator<Item = (f64, f64)> + Clone) -> (f64, f64) {
    let mid = (VALUE_RANGE.0 + VALUE_RANGE.1) / 2.0;
    let n = rows.clone().count() as f64;
    match agg {
        // A row certainly passes `load > mid` only if its whole envelope
        // does; it possibly passes if any of it does.
        Agg::Count => (
            rows.clone().filter(|&(lo, _)| lo > mid).count() as f64,
            rows.filter(|&(_, hi)| hi > mid).count() as f64,
        ),
        Agg::Sum => (rows.clone().map(|r| r.0).sum(), rows.map(|r| r.1).sum()),
        Agg::Avg => (
            rows.clone().map(|r| r.0).sum::<f64>() / n,
            rows.map(|r| r.1).sum::<f64>() / n,
        ),
        Agg::Min => (
            rows.clone().map(|r| r.0).fold(f64::INFINITY, f64::min),
            rows.map(|r| r.1).fold(f64::INFINITY, f64::min),
        ),
    }
}

/// The exact answer of one distinct query over the generated masters.
#[derive(Clone, Debug, PartialEq)]
pub enum Truth {
    Scalar(f64),
    /// `(group id, truth)`, ascending by group id.
    Groups(Vec<(i64, f64)>),
}

fn truth_of(w: &Workload, q: &QuerySpec) -> Truth {
    let per = w.spec.rows_per_group;
    let point = |range: std::ops::Range<usize>| w.rows[range].iter().map(|r| (r.value, r.value));
    match q.class {
        Class::Pinned => {
            let g = q.group.expect("pinned queries carry a group");
            Truth::Scalar(agg_bounds(q.agg, point(g * per..(g + 1) * per)).0)
        }
        Class::Global => Truth::Scalar(agg_bounds(q.agg, point(0..w.rows.len())).0),
        Class::Grouped => Truth::Groups(
            (0..w.spec.groups)
                .map(|g| (g as i64, agg_bounds(q.agg, point(g * per..(g + 1) * per)).0))
                .collect(),
        ),
        Class::Join => Truth::Scalar(
            w.rows
                .iter()
                .filter(|r| w.segments[r.grp as usize].value > JOIN_WEIGHT_THRESHOLD)
                .map(|r| r.value)
                .sum(),
        ),
    }
}

/// Current value and the envelope of every value held this epoch.
#[derive(Clone, Copy, Debug)]
struct Cell {
    current: f64,
    lo: f64,
    hi: f64,
}

pub struct Oracle {
    /// One truth per distinct query, indexed like `Workload::distinct`.
    truths: Vec<Truth>,
    /// Per-group row envelopes; `None` for read-only workloads. One lock
    /// per group keeps the two clients from contending in the timed loop.
    envelopes: Option<Vec<Mutex<Vec<Cell>>>>,
    rows_per_group: usize,
    /// Test hook: shift every truth by this many `R` (a wrong oracle must
    /// make the run fail).
    skew: f64,
}

/// Why a reply was counted as failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The bound does not contain (under writes: intersect) the truth.
    MissesTruth,
    /// Wider than `R` and not marked degraded.
    TooWide,
    /// A `GROUP BY` reply with the wrong set of groups.
    WrongShape,
}

impl Oracle {
    pub fn new(w: &Workload, skew: f64) -> Oracle {
        let per = w.spec.rows_per_group;
        assert!(
            w.spec.update_every == 0 || w.distinct.iter().all(|q| q.class == Class::Pinned),
            "the write envelope is kept per group: a workload with updates must be pinned-only"
        );
        Oracle {
            truths: w.distinct.iter().map(|q| truth_of(w, q)).collect(),
            envelopes: (w.spec.update_every > 0).then(|| {
                w.rows
                    .chunks(per)
                    .map(|group| {
                        Mutex::new(
                            group
                                .iter()
                                .map(|r| Cell {
                                    current: r.value,
                                    lo: r.value,
                                    hi: r.value,
                                })
                                .collect(),
                        )
                    })
                    .collect()
            }),
            rows_per_group: per,
            skew,
        }
    }

    pub fn truth(&self, id: usize) -> &Truth {
        &self.truths[id]
    }

    /// Extends the envelopes with a batch *before* it is sent, so a racing
    /// answer can never observe a master outside its row's envelope.
    pub fn note_updates(&self, batch: &[Update]) {
        let envelopes = self.envelopes.as_ref().expect("read-only workload");
        for &(row, value) in batch {
            let row = row as usize;
            let mut group = envelopes[row / self.rows_per_group]
                .lock()
                .expect("oracle lock");
            let cell = &mut group[row % self.rows_per_group];
            cell.current = value;
            cell.lo = cell.lo.min(value);
            cell.hi = cell.hi.max(value);
        }
    }

    /// Collapses every envelope to the current master. Only sound while no
    /// query or update is in flight: the epoch barrier.
    pub fn reset_envelopes(&self) {
        for group in self.envelopes.iter().flatten() {
            for cell in group.lock().expect("oracle lock").iter_mut() {
                cell.lo = cell.current;
                cell.hi = cell.current;
            }
        }
    }

    /// The sum of every tracked master — what `SELECT SUM(load) WITHIN 0`
    /// must return once the writers are quiet.
    pub fn master_sum(&self) -> Option<f64> {
        self.envelopes.as_ref().map(|groups| {
            groups
                .iter()
                .map(|g| {
                    let group = g.lock().expect("oracle lock");
                    group.iter().map(|c| c.current).sum::<f64>()
                })
                .sum()
        })
    }

    /// The range the truth of a scalar query may lie in right now.
    fn scalar_range(&self, id: usize, q: &QuerySpec) -> (f64, f64) {
        match (&self.envelopes, &self.truths[id]) {
            (Some(envelopes), _) => {
                // Write workloads are pinned-only (asserted in `new`).
                let group = envelopes[q.group.expect("pinned")]
                    .lock()
                    .expect("oracle lock");
                agg_bounds(q.agg, group.iter().map(|c| (c.lo, c.hi)))
            }
            (None, Truth::Scalar(t)) => (*t, *t),
            (None, Truth::Groups(_)) => unreachable!("scalar check of a grouped truth"),
        }
    }

    /// Checks one reply against the oracle.
    pub fn check(&self, id: usize, q: &QuerySpec, reply: &ServiceReply) -> Verdict {
        let shift = self.skew * q.within;
        let honest = |lo: f64, hi: f64, range: trapp_types::Interval| {
            range.lo() - EPS <= hi + shift && lo + shift <= range.hi() + EPS
        };
        let narrow = |width: f64| width <= q.within * (1.0 + 1e-9) + EPS;
        if q.class == Class::Grouped {
            let Truth::Groups(truths) = &self.truths[id] else {
                unreachable!("grouped query without grouped truth")
            };
            if reply.groups.len() != truths.len() {
                return Verdict::WrongShape;
            }
            for g in &reply.groups {
                let Some(Value::Int(key)) = g.key.first() else {
                    return Verdict::WrongShape;
                };
                // Truths are ascending by id and dense from 0.
                let Some(&(_, t)) = truths.get(*key as usize) else {
                    return Verdict::WrongShape;
                };
                if !honest(t, t, g.result.answer.range) {
                    return Verdict::MissesTruth;
                }
                if reply.degraded.is_none() && !narrow(g.result.answer.width()) {
                    return Verdict::TooWide;
                }
            }
            return Verdict::Ok;
        }
        let (lo, hi) = self.scalar_range(id, q);
        if !honest(lo, hi, reply.result.answer.range) {
            return Verdict::MissesTruth;
        }
        if reply.degraded.is_none() && !narrow(reply.result.answer.width()) {
            return Verdict::TooWide;
        }
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, spec};

    #[test]
    fn count_envelope_separates_certain_from_possible() {
        let rows = [(70.0, 74.0), (74.0, 76.0), (76.0, 80.0)];
        assert_eq!(agg_bounds(Agg::Count, rows.iter().copied()), (1.0, 2.0));
        assert_eq!(agg_bounds(Agg::Min, rows.iter().copied()), (70.0, 74.0));
        assert_eq!(agg_bounds(Agg::Sum, rows.iter().copied()), (220.0, 230.0));
    }

    #[test]
    fn truths_cover_every_distinct_query() {
        let w = generate(spec("scatter_mixed").unwrap(), 42);
        let oracle = Oracle::new(&w, 0.0);
        for (id, q) in w.distinct.iter().enumerate() {
            match (q.class, oracle.truth(id)) {
                (Class::Grouped, Truth::Groups(g)) => assert_eq!(g.len(), w.spec.groups),
                (Class::Grouped, _) | (_, Truth::Groups(_)) => panic!("{}", q.sql),
                (_, Truth::Scalar(t)) => assert!(t.is_finite()),
            }
        }
    }

    #[test]
    fn envelopes_grow_with_writes_and_reset_at_the_barrier() {
        let w = generate(spec("read_write_churn").unwrap(), 42);
        let oracle = Oracle::new(&w, 0.0);
        let before = oracle.master_sum().unwrap();
        let old = w.rows[5].value;
        oracle.note_updates(&[(5, old + 3.0)]);
        assert!((oracle.master_sum().unwrap() - before - 3.0).abs() < 1e-9);
        let q = QuerySpec {
            sql: String::new(),
            class: Class::Pinned,
            agg: Agg::Sum,
            group: Some(0),
            within: 1.0,
        };
        let (lo, hi) = oracle.scalar_range(0, &q);
        assert!((hi - lo - 3.0).abs() < 1e-9);
        oracle.reset_envelopes();
        let (lo, hi) = oracle.scalar_range(0, &q);
        assert_eq!(lo, hi);
    }
}
