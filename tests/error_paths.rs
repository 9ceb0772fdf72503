//! Error-path coverage for the query session: every user-visible failure
//! mode must surface as a typed `TrappError` with an actionable message,
//! never a panic, and must leave the cache in a usable state.

use trapp_core::{QuerySession, RefreshOracle, TableOracle};
use trapp_storage::{Catalog, ColumnDef, Schema, Table};
use trapp_types::{BoundedValue, TrappError, TupleId, Value, ValueType};
use trapp_workload::figure2;

fn session() -> (QuerySession, TableOracle) {
    (
        QuerySession::new(figure2::links_table()),
        TableOracle::from_table(figure2::master_table()),
    )
}

#[test]
fn parse_errors_surface_with_positions() {
    let (mut s, mut o) = session();
    for (sql, needle) in [
        ("SELECT", "aggregate function"),
        ("SELECT FOO(x) FROM links", "aggregate function"),
        ("SELECT SUM(latency) WITHIN -3 FROM links", "non-negative"),
        ("SELECT SUM(latency) FROM", "table name"),
        ("SELECT SUM(latency) FROM links WHERE", "expression"),
        ("SELECT SUM(latency) FROM links trailing", "trailing"),
    ] {
        let err = s.execute_sql(sql, &mut o).unwrap_err();
        assert!(
            err.to_string().contains(needle),
            "{sql}: `{err}` missing `{needle}`"
        );
    }
}

#[test]
fn binding_errors_name_the_missing_entity() {
    let (mut s, mut o) = session();
    let err = s
        .execute_sql("SELECT SUM(latency) FROM ghosts", &mut o)
        .unwrap_err();
    assert!(matches!(err, TrappError::UnknownTable(t) if t == "ghosts"));
    let err = s
        .execute_sql("SELECT SUM(ghost_col) FROM links", &mut o)
        .unwrap_err();
    assert!(matches!(err, TrappError::UnknownColumn(c) if c == "ghost_col"));
}

#[test]
fn type_errors_are_rejected_before_execution() {
    let (mut s, mut o) = session();
    // Aggregating a boolean, comparing string to number, boolean ordering.
    for sql in [
        "SELECT SUM(on_path) FROM links",
        "SELECT SUM(latency) FROM links WHERE on_path > 1",
        "SELECT SUM(latency) FROM links WHERE latency",
        "SELECT MIN(latency) FROM links WHERE on_path < TRUE",
    ] {
        assert!(s.execute_sql(sql, &mut o).is_err(), "{sql} should fail");
    }
    // The session stays usable after failures.
    let ok = s.execute_sql("SELECT COUNT(*) FROM links", &mut o).unwrap();
    assert_eq!(ok.answer.range.lo(), 6.0);
}

#[test]
fn avg_over_certainly_empty_selection_errors() {
    let (mut s, mut o) = session();
    let err = s
        .execute_sql(
            "SELECT AVG(latency) FROM links WHERE latency > 1000",
            &mut o,
        )
        .unwrap_err();
    assert!(matches!(err, TrappError::Unsupported(_)));
    // MIN over the same empty selection is fine ([+∞, +∞], width 0).
    let ok = s
        .execute_sql(
            "SELECT MIN(latency) FROM links WHERE latency > 1000",
            &mut o,
        )
        .unwrap();
    assert!(ok.satisfied);
}

#[test]
fn median_with_predicate_is_rejected() {
    let (mut s, mut o) = session();
    let err = s
        .execute_sql(
            "SELECT MEDIAN(latency) WITHIN 1 FROM links WHERE traffic > 100",
            &mut o,
        )
        .unwrap_err();
    assert!(err.to_string().contains("not supported"));
}

/// An oracle that always fails: mid-query refresh failures must propagate
/// without corrupting the already-applied part of the cache.
struct BrokenOracle;
impl RefreshOracle for BrokenOracle {
    fn refresh_batch(
        &mut self,
        _table: &str,
        _tids: &[TupleId],
        _columns: &[usize],
    ) -> Result<Vec<Vec<f64>>, TrappError> {
        Err(TrappError::RefreshFailed("source unreachable".into()))
    }
}

#[test]
fn oracle_failures_propagate_cleanly() {
    let mut s = QuerySession::new(figure2::links_table());
    let mut broken = BrokenOracle;
    let err = s
        .execute_sql("SELECT SUM(latency) WITHIN 1 FROM links", &mut broken)
        .unwrap_err();
    assert!(matches!(err, TrappError::RefreshFailed(_)));
    // Cache-only queries still work afterwards.
    let mut o = TableOracle::from_table(figure2::master_table());
    let ok = s
        .execute_sql("SELECT SUM(latency) FROM links", &mut o)
        .unwrap();
    assert!(ok.satisfied);
}

/// An oracle returning the wrong arity is a protocol violation.
struct ShortOracle;
impl RefreshOracle for ShortOracle {
    fn refresh_batch(
        &mut self,
        _table: &str,
        tids: &[TupleId],
        _columns: &[usize],
    ) -> Result<Vec<Vec<f64>>, TrappError> {
        Ok(vec![vec![]; tids.len()]) // a row per tuple, every row empty
    }
}

#[test]
fn oracle_arity_mismatch_is_detected() {
    let mut s = QuerySession::new(figure2::links_table());
    let mut short = ShortOracle;
    let err = s
        .execute_sql("SELECT SUM(latency) WITHIN 1 FROM links", &mut short)
        .unwrap_err();
    assert!(err.to_string().contains("values for"));
}

#[test]
fn grouped_execution_rejects_mismatched_entry_points() {
    let (mut s, mut o) = session();
    // Grouped query through the scalar entry point…
    let q = trapp_sql::parse_query("SELECT SUM(latency) FROM links GROUP BY from_node").unwrap();
    assert!(s.execute(&q, &mut o).is_err());
    // …and a scalar query through the grouped entry point.
    let q = trapp_sql::parse_query("SELECT SUM(latency) FROM links").unwrap();
    assert!(s.execute_grouped(&q, &mut o).is_err());
}

#[test]
fn empty_tables_answer_gracefully() {
    let schema = Schema::new(vec![
        ColumnDef::exact("id", ValueType::Int),
        ColumnDef::bounded_float("x"),
    ])
    .unwrap();
    let mut catalog = Catalog::new();
    catalog
        .add_table(Table::new("empty", schema.clone()))
        .unwrap();
    let mut s = QuerySession::with_catalog(catalog);
    let mut master = Catalog::new();
    master.add_table(Table::new("empty", schema)).unwrap();
    let mut o = TableOracle::new(master);

    let r = s.execute_sql("SELECT COUNT(*) FROM empty", &mut o).unwrap();
    assert_eq!(r.answer.range.lo(), 0.0);
    let r = s
        .execute_sql("SELECT SUM(x) WITHIN 1 FROM empty", &mut o)
        .unwrap();
    assert_eq!(r.answer.range.lo(), 0.0);
    assert!(r.satisfied);
    let r = s.execute_sql("SELECT MIN(x) FROM empty", &mut o).unwrap();
    assert_eq!(r.answer.range.lo(), f64::INFINITY);
    assert!(s.execute_sql("SELECT AVG(x) FROM empty", &mut o).is_err());
}

#[test]
fn refreshing_unknown_tuples_errors() {
    let (mut s, _o) = session();
    let mut o = TableOracle::from_table(figure2::master_table());
    let err = s
        .refresh_tuples("links", &[TupleId::new(99)], &mut o)
        .unwrap_err();
    assert!(matches!(err, TrappError::UnknownTuple(99)));
    let err = s
        .refresh_tuples("ghosts", &[TupleId::new(1)], &mut o)
        .unwrap_err();
    assert!(matches!(err, TrappError::UnknownTable(_)));
}

#[test]
fn exact_columns_in_predicates_are_free() {
    // Predicates over exact columns never create T? tuples, so precision
    // constraints are met without touching the oracle.
    let (mut s, mut o) = session();
    let r = s
        .execute_sql(
            "SELECT COUNT(*) WITHIN 0 FROM links WHERE from_node = 2",
            &mut o,
        )
        .unwrap();
    assert!(r.answer.is_exact());
    assert_eq!(r.answer.range.lo(), 2.0);
    assert!(r.refreshed.is_empty());
}

#[test]
fn inserted_rows_participate_immediately() {
    let (mut s, mut o) = session();
    s.catalog_mut()
        .table_mut("links")
        .unwrap()
        .insert_with_cost(
            vec![
                BoundedValue::Exact(Value::Int(6)),
                BoundedValue::Exact(Value::Int(1)),
                BoundedValue::bounded(1.0, 2.0).unwrap(),
                BoundedValue::bounded(80.0, 90.0).unwrap(),
                BoundedValue::bounded(10.0, 20.0).unwrap(),
                BoundedValue::Exact(Value::Bool(false)),
            ],
            1.0,
        )
        .unwrap();
    let r = s.execute_sql("SELECT COUNT(*) FROM links", &mut o).unwrap();
    assert_eq!(r.answer.range.lo(), 7.0);
    // MIN over latency now sees the new row's [1, 2] bound.
    let r = s
        .execute_sql("SELECT MIN(latency) FROM links", &mut o)
        .unwrap();
    assert_eq!(r.answer.range.lo(), 1.0);
}
