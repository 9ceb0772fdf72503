//! `GROUP BY` over exact columns (§8.1 extension).
//!
//! The paper defers *grouping on bounded values* (where group membership
//! itself is uncertain) to future work; grouping on exact columns is
//! well-defined and implemented here: partition the table by the group
//! key, and give each partition the ordinary single-group pipeline —
//! including CHOOSE_REFRESH with the per-group precision constraint. Each
//! group is one unit of a [`crate::query_plan::QueryPlan`], so
//! [`QuerySession::drive`] refreshes every unsatisfied group's tuples in
//! the same round; groups partition the table, so no group's plan depends
//! on another's refreshes.

use std::collections::BTreeMap;

use trapp_sql::Query;
use trapp_storage::Table;
use trapp_types::{TrappError, TupleId, Value};

use crate::executor::{QueryResult, QuerySession, RefreshOracle};
use crate::plan::bind_query;
use crate::query_plan::QueryOutcome;

/// The exact values of the `GROUP BY` columns identifying one group.
pub type GroupKey = Vec<Value>;

/// One group's result.
#[derive(Clone, Debug)]
pub struct GroupResult {
    /// The group key, in `GROUP BY` column order.
    pub key: GroupKey,
    /// The group's query result.
    pub result: QueryResult,
}

impl QuerySession {
    /// Executes a grouped query — over one table or a two-table join — by
    /// driving the scan planner, returning one bounded answer per group in
    /// deterministic (key-sorted) order. Each group independently receives
    /// the query's `WITHIN` constraint.
    pub fn execute_grouped(
        &mut self,
        query: &Query,
        oracle: &mut dyn RefreshOracle,
    ) -> Result<Vec<GroupResult>, TrappError> {
        let bound = bind_query(query, self.catalog())?;
        if bound.group_by.is_empty() {
            return Err(TrappError::Plan(
                "execute_grouped requires a GROUP BY clause".into(),
            ));
        }
        match self.drive(oracle, |s| s.plan_scan(&bound))? {
            QueryOutcome::Grouped(groups) => Ok(groups),
            QueryOutcome::Scalar(_) => Err(TrappError::Internal(
                "grouped planning produced a non-grouped outcome".into(),
            )),
        }
    }
}

/// Renders a group key to a stable string (unit-separator joined) — the
/// canonical ordering and lookup key for group results everywhere:
/// per-session execution, cross-shard merging, and serving-layer
/// attribution all sort and match groups by this rendering.
///
/// The rendering is *injective*: every part carries a one-character type
/// tag (`i`/`f`/`s`/`b`), so `Int(1)` and `Float(1.0)` — whose `Display`
/// forms are both `1` — render apart, and string parts escape the
/// separator (and the escape character itself), so a string containing
/// `\u{1f}` can never make two different multi-column keys collide.
/// Cross-shard merging matches groups by this string; a collision would
/// silently fuse two groups' inputs. Keys whose columns share one type
/// keep their old relative order (the tag is a constant prefix).
pub fn render_key(key: &GroupKey) -> String {
    let mut out = String::new();
    for (i, v) in key.iter().enumerate() {
        if i > 0 {
            out.push('\u{1f}');
        }
        match v {
            Value::Int(x) => {
                out.push('i');
                out.push_str(&x.to_string());
            }
            Value::Float(x) => {
                out.push('f');
                out.push_str(&x.to_string());
            }
            Value::Bool(b) => {
                out.push('b');
                out.push_str(if *b { "true" } else { "false" });
            }
            Value::Str(s) => {
                out.push('s');
                for ch in s.chars() {
                    match ch {
                        '\\' => out.push_str("\\\\"),
                        '\u{1f}' => out.push_str("\\u"),
                        c => out.push(c),
                    }
                }
            }
        }
    }
    out
}

/// Partitions a table's tuples by the exact values of the `group_by`
/// columns: rendered key → (original key, member tuple ids ascending), in
/// rendered-key order. BTreeMap keys must be orderable, so keys are
/// rendered to a stable string; the original values ride along.
pub fn group_partitions(
    table: &Table,
    group_by: &[usize],
) -> Result<BTreeMap<String, (GroupKey, Vec<TupleId>)>, TrappError> {
    let mut groups: BTreeMap<String, (GroupKey, Vec<TupleId>)> = BTreeMap::new();
    for (tid, row) in table.scan() {
        let mut key: GroupKey = Vec::with_capacity(group_by.len());
        for &col in group_by {
            key.push(row.exact(col)?);
        }
        let rendered = render_key(&key);
        groups
            .entry(rendered)
            .or_insert_with(|| (key, Vec::new()))
            .1
            .push(tid);
    }
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::test_fixture::*;
    use crate::executor::TableOracle;

    #[test]
    fn groups_partition_and_answer_independently() {
        let mut s = QuerySession::new(links_table());
        let mut o = TableOracle::from_table(master_table());
        let q =
            trapp_sql::parse_query("SELECT SUM(latency) WITHIN 3 FROM links GROUP BY from_node")
                .unwrap();
        let groups = s.execute_grouped(&q, &mut o).unwrap();
        // from_node values: 1, 2 (×2), 3, 4, 5 → 5 groups, key-sorted.
        assert_eq!(groups.len(), 5);
        let keys: Vec<String> = groups.iter().map(|g| format!("{}", g.key[0])).collect();
        assert_eq!(keys, vec!["1", "2", "3", "4", "5"]);
        for g in &groups {
            assert!(g.result.satisfied, "group {:?} unsatisfied", g.key);
            assert!(g.result.answer.width() <= 3.0);
        }
        // Group "2" has tuples 2 and 4: initial latency widths 2 + 2 = 4 >
        // 3, so that group must have refreshed something.
        let g2 = &groups[1];
        assert!(!g2.result.refreshed.is_empty());
    }

    #[test]
    fn grouped_requires_group_by() {
        let mut s = QuerySession::new(links_table());
        let mut o = TableOracle::from_table(master_table());
        let q = trapp_sql::parse_query("SELECT SUM(latency) FROM links").unwrap();
        assert!(s.execute_grouped(&q, &mut o).is_err());
    }

    /// Distinct keys must never render identically: the rendered string
    /// is the cross-shard merge key, and a collision silently fuses two
    /// groups' inputs.
    #[test]
    fn render_key_is_injective() {
        // Int(1) and Float(1.0) both Display as "1".
        assert_ne!(
            render_key(&vec![Value::Int(1)]),
            render_key(&vec![Value::Float(1.0)])
        );
        // A separator smuggled inside a string part must not shift the
        // column boundary.
        let a = vec![Value::Str("a\u{1f}b".into()), Value::Str("c".into())];
        let b = vec![Value::Str("a".into()), Value::Str("b\u{1f}c".into())];
        assert_ne!(render_key(&a), render_key(&b));
        // Same for the escape character itself.
        let c = vec![Value::Str("a\\".into()), Value::Str("b".into())];
        let d = vec![Value::Str("a".into()), Value::Str("\\b".into())];
        assert_ne!(render_key(&c), render_key(&d));
        // Uniform-type keys keep their old lexicographic order.
        let keys = [1i64, 10, 2].map(|x| render_key(&vec![Value::Int(x)]));
        assert!(keys[0] < keys[1] && keys[1] < keys[2]);
    }

    #[test]
    fn multi_column_keys() {
        let mut s = QuerySession::new(links_table());
        let mut o = TableOracle::from_table(master_table());
        let q = trapp_sql::parse_query("SELECT COUNT(*) FROM links GROUP BY from_node, on_path")
            .unwrap();
        let groups = s.execute_grouped(&q, &mut o).unwrap();
        // from_node = 2 appears with both on_path values (tuples 2 and 4),
        // so the composite key splits it: 6 groups in total.
        assert_eq!(groups.len(), 6);
        let total: f64 = groups.iter().map(|g| g.result.answer.range.lo()).sum();
        assert_eq!(total, 6.0);
    }
}
