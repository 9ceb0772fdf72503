//! Cross-crate integration tests: SQL text in, guaranteed bounded answers
//! out, through the full stack (parser → planner → classification →
//! aggregate → CHOOSE_REFRESH → oracle → recompute), including the
//! system-level path with sources, bound functions, and both transports.

use trapp::prelude::*;
use trapp_core::refresh::iterative::IterativeHeuristic;
use trapp_core::{ExecutionMode, SolverStrategy, TableOracle};
use trapp_storage::Table;
use trapp_types::{ObjectId, SourceId, TupleId};
use trapp_workload::figure2;
use trapp_workload::netmon::{self, NetworkConfig};
use trapp_workload::stocks::{self, StockConfig};

#[test]
fn paper_worked_examples_via_public_api() {
    for ex in figure2::worked_examples() {
        let mut session = QuerySession::new(figure2::links_table());
        session.config.strategy = SolverStrategy::Exact;
        let mut oracle = TableOracle::from_table(figure2::master_table());
        let r = session.execute_sql(ex.sql, &mut oracle).unwrap();
        assert!(r.satisfied, "{}", ex.id);
        let (expect_final, _) = ex.delivered();
        assert!(
            (r.answer.range.lo() - expect_final.0).abs() < 1e-9
                && (r.answer.range.hi() - expect_final.1).abs() < 1e-9,
            "{}: {} vs {:?}",
            ex.id,
            r.answer,
            expect_final
        );
    }
}

/// Every strategy and mode must satisfy the constraint and contain the true
/// answer; only cost differs.
#[test]
fn all_strategies_guarantee_the_constraint() {
    let network = netmon::generate(&NetworkConfig {
        nodes: 30,
        extra_links: 40,
        ..NetworkConfig::default()
    });
    let queries = [
        "SELECT SUM(latency) WITHIN 20 FROM links",
        "SELECT AVG(latency) WITHIN 2 FROM links WHERE traffic > 250",
        "SELECT MIN(bandwidth) WITHIN 15 FROM links WHERE on_path = TRUE",
        "SELECT MAX(traffic) WITHIN 10 FROM links",
        "SELECT COUNT(*) WITHIN 1 FROM links WHERE latency > 25",
    ];
    let truth = |sql: &str| {
        let (_, master) = network.build_tables();
        let mut s = QuerySession::new(master);
        let mut o = TableOracle::from_table(network.build_tables().1);
        s.execute_sql(sql, &mut o).unwrap().answer
    };
    for sql in queries {
        let expected = truth(sql);
        assert!(expected.is_exact());
        for (strategy, mode) in [
            (SolverStrategy::Exact, ExecutionMode::Batch),
            (SolverStrategy::Fptas(0.1), ExecutionMode::Batch),
            (SolverStrategy::Fptas(0.01), ExecutionMode::Batch),
            (SolverStrategy::GreedyDensity, ExecutionMode::Batch),
            (
                SolverStrategy::Exact,
                ExecutionMode::Iterative(IterativeHeuristic::BestRatio),
            ),
            (
                SolverStrategy::Exact,
                ExecutionMode::Iterative(IterativeHeuristic::CheapestFirst),
            ),
        ] {
            let (cache, master) = network.build_tables();
            let mut s = QuerySession::new(cache);
            s.config.strategy = strategy;
            s.config.mode = mode;
            let mut o = TableOracle::from_table(master);
            let r = s.execute_sql(sql, &mut o).unwrap();
            assert!(r.satisfied, "{sql} with {strategy} {mode:?}");
            assert!(
                r.answer.range.lo() <= expected.range.lo()
                    && expected.range.hi() <= r.answer.range.hi(),
                "{sql} with {strategy}: {} should contain truth {}",
                r.answer,
                expected
            );
        }
    }
}

/// Exact planning is never more expensive than approximate planning, and
/// tighter constraints never get cheaper (the Figure 6 shape, end to end).
#[test]
fn cost_orderings_hold_end_to_end() {
    let days = stocks::generate(&StockConfig {
        symbols: 40,
        ..StockConfig::default()
    });
    let mut last_cost = f64::INFINITY;
    for r in [5.0, 20.0, 60.0, 150.0] {
        let sql = format!("SELECT SUM(price) WITHIN {r} FROM stocks");
        let (cache, master) = stocks::build_tables(&days);
        let mut s = QuerySession::new(cache);
        s.config.strategy = SolverStrategy::Exact;
        let mut o = TableOracle::from_table(master);
        let exact_cost = s.execute_sql(&sql, &mut o).unwrap().refresh_cost;

        let (cache, master) = stocks::build_tables(&days);
        let mut s = QuerySession::new(cache);
        s.config.strategy = SolverStrategy::Fptas(0.1);
        let mut o = TableOracle::from_table(master);
        let fptas_cost = s.execute_sql(&sql, &mut o).unwrap().refresh_cost;

        assert!(exact_cost <= fptas_cost + 1e-9, "R={r}");
        assert!(exact_cost <= last_cost + 1e-9, "cost must fall as R grows");
        last_cost = exact_cost;
    }
}

/// The full system path: simulation with √t bounds, drift, and queries.
#[test]
fn system_simulation_answers_contain_master_truth() {
    use trapp_storage::{ColumnDef, Schema};
    use trapp_types::{BoundedValue, Value, ValueType};

    let mut sim = trapp_system::Simulation::builder()
        .initial_width(1.0)
        .build()
        .unwrap();
    sim.add_source(SourceId::new(1));
    let schema = Schema::new(vec![
        ColumnDef::exact("name", ValueType::Str),
        ColumnDef::bounded_float("v"),
    ])
    .unwrap();
    sim.add_table(Table::new("t", schema)).unwrap();
    let n = 8usize;
    let mut values: Vec<f64> = (0..n).map(|i| 10.0 * (i + 1) as f64).collect();
    for (i, v) in values.iter().enumerate() {
        sim.add_row(
            "t",
            SourceId::new(1),
            vec![
                BoundedValue::Exact(Value::Str(format!("o{i}"))),
                BoundedValue::exact_f64(*v).unwrap(),
            ],
        )
        .unwrap();
    }

    // Deterministic drift + queries; after each query, compare with ground
    // truth computed from the driven values.
    for tick in 1..=60u64 {
        sim.clock.advance(1.0);
        for (i, v) in values.iter_mut().enumerate() {
            *v += ((tick as f64 + i as f64) * 0.7).sin(); // bounded drift
            sim.apply_update(ObjectId::new(i as u64 + 1), *v).unwrap();
        }
        if tick % 10 == 0 {
            let r = sim.run_query("SELECT SUM(v) WITHIN 4 FROM t").unwrap();
            assert!(r.satisfied);
            let truth: f64 = values.iter().sum();
            assert!(
                r.answer.range.contains(truth) || (truth - r.answer.range.midpoint()).abs() < 1e-6,
                "tick {tick}: {} missing {truth}",
                r.answer
            );
            assert!(r.answer.width() <= 4.0);
        }
    }
    let stats = sim.stats();
    assert_eq!(stats.queries, 6);
    assert!(stats.total_refreshes() > 0);
}

/// Group-by over the network workload: group answers partition the table
/// and each meets the constraint.
#[test]
fn group_by_partitions_and_satisfies() {
    let network = netmon::generate(&NetworkConfig {
        nodes: 12,
        extra_links: 20,
        ..NetworkConfig::default()
    });
    let (cache, master) = network.build_tables();
    let total = cache.len() as f64;
    let mut s = QuerySession::new(cache);
    let mut o = TableOracle::from_table(master);
    let q = parse_query("SELECT COUNT(*) FROM links GROUP BY from_node").unwrap();
    let groups = s.execute_grouped(&q, &mut o).unwrap();
    let sum: f64 = groups.iter().map(|g| g.result.answer.range.lo()).sum();
    assert_eq!(sum, total);

    let q = parse_query("SELECT SUM(latency) WITHIN 3 FROM links GROUP BY on_path").unwrap();
    let groups = s.execute_grouped(&q, &mut o).unwrap();
    assert_eq!(groups.len(), 2);
    for g in groups {
        assert!(g.result.satisfied);
        assert!(g.result.answer.width() <= 3.0);
    }
}

/// Join queries across two replicated tables converge and contain truth.
#[test]
fn join_query_end_to_end_contains_truth() {
    use trapp_storage::{Catalog, ColumnDef, Schema};
    use trapp_types::{BoundedValue, Value, ValueType};

    let regions_schema = Schema::new(vec![
        ColumnDef::exact("region_id", ValueType::Int),
        ColumnDef::bounded_float("temperature"),
    ])
    .unwrap();
    let sites_schema = Schema::new(vec![
        ColumnDef::exact("rid", ValueType::Int),
        ColumnDef::bounded_float("power"),
    ])
    .unwrap();

    let mut regions = Table::new("regions", regions_schema.clone());
    let mut regions_m = Table::new("regions", regions_schema);
    for (id, t) in [(1i64, 20.0), (2, 30.0)] {
        regions
            .insert_with_cost(
                vec![
                    BoundedValue::Exact(Value::Int(id)),
                    BoundedValue::bounded(t - 5.0, t + 5.0).unwrap(),
                ],
                2.0,
            )
            .unwrap();
        regions_m
            .insert_with_cost(
                vec![
                    BoundedValue::Exact(Value::Int(id)),
                    BoundedValue::exact_f64(t).unwrap(),
                ],
                2.0,
            )
            .unwrap();
    }
    let mut sites = Table::new("sites", sites_schema.clone());
    let mut sites_m = Table::new("sites", sites_schema);
    let site_rows = [(1i64, 100.0), (1, 150.0), (2, 200.0), (2, 250.0)];
    for (rid, p) in site_rows {
        sites
            .insert_with_cost(
                vec![
                    BoundedValue::Exact(Value::Int(rid)),
                    BoundedValue::bounded(p - 20.0, p + 20.0).unwrap(),
                ],
                3.0,
            )
            .unwrap();
        sites_m
            .insert_with_cost(
                vec![
                    BoundedValue::Exact(Value::Int(rid)),
                    BoundedValue::exact_f64(p).unwrap(),
                ],
                3.0,
            )
            .unwrap();
    }

    let mut cache = Catalog::new();
    cache.add_table(regions).unwrap();
    cache.add_table(sites).unwrap();
    let mut master = Catalog::new();
    master.add_table(regions_m).unwrap();
    master.add_table(sites_m).unwrap();

    let mut s = QuerySession::with_catalog(cache);
    let mut o = TableOracle::new(master);
    // SUM of power for warm regions: truth = 200 + 250 = 450 (region 2).
    let r = s
        .execute_sql(
            "SELECT SUM(power) WITHIN 10 FROM sites, regions \
             WHERE rid = region_id AND temperature > 25",
            &mut o,
        )
        .unwrap();
    assert!(r.satisfied);
    assert!(r.answer.range.contains(450.0), "{}", r.answer);
    assert!(r.answer.width() <= 10.0);
}

/// Insertions and deletions propagate eagerly (§3): COUNT without a
/// predicate stays exact across them.
#[test]
fn eager_insert_delete_keeps_count_exact() {
    let mut session = QuerySession::new(figure2::links_table());
    let mut oracle = TableOracle::from_table(figure2::master_table());
    let r = session
        .execute_sql("SELECT COUNT(*) FROM links", &mut oracle)
        .unwrap();
    assert_eq!(r.answer.range.lo(), 6.0);
    assert!(r.answer.is_exact());

    session
        .catalog_mut()
        .table_mut("links")
        .unwrap()
        .delete(TupleId::new(3))
        .unwrap();
    let r = session
        .execute_sql("SELECT COUNT(*) FROM links", &mut oracle)
        .unwrap();
    assert_eq!(r.answer.range.lo(), 5.0);
    assert!(r.answer.is_exact());
}

/// `WITHIN 0` SUM and AVG answer the exact aggregate, rounded once, in any
/// insertion order: cancelling terms (`{1e16, 1, −1e16, 1}`) and a partial
/// sum past `f64::MAX` (`{1e308, 1e308, −1e308}`). AVG answers a mean
/// whose whole sum is past `f64::MAX` (`{1e308, 1e308}`, where SUM's own
/// answer is `∞`). Through `QuerySession::execute_sql`, and through the
/// service on 1 and 3 shards, from cache and again after the bounds widen.
#[test]
fn within_zero_sum_and_avg_are_exact_in_any_insertion_order() {
    let schema = Schema::new(vec![ColumnDef::bounded_float("v")]).unwrap();
    // (values, exact SUM where it is finite, exact AVG)
    let cases: [(&[f64], Option<f64>, f64); 5] = [
        (&[1e16, 1.0, -1e16, 1.0], Some(2.0), 0.5),
        (&[1.0, 1.0, 1e16, -1e16], Some(2.0), 0.5),
        (&[1e308, 1e308, -1e308], Some(1e308), 1e308 / 3.0),
        (&[-1e308, 1e308, 1e308], Some(1e308), 1e308 / 3.0),
        (&[1e308, 1e308], None, 1e308),
    ];
    for (values, sum, avg) in cases {
        let sum = sum.map(|sum| ("SUM", sum));
        for (agg, want) in sum.into_iter().chain([("AVG", avg)]) {
            let sql = format!("SELECT {agg}(v) WITHIN 0 FROM t");
            let point = Interval::new(want, want).unwrap();
            // One cache holding bounds of ±50 % around the masters.
            let mut cache = Table::new("t", schema.clone());
            let mut master = Table::new("t", schema.clone());
            for &v in values {
                let half = v.abs() / 2.0;
                let bound = BoundedValue::bounded(v - half, v + half).unwrap();
                cache.insert_with_cost(vec![bound], 1.0).unwrap();
                let exact = BoundedValue::exact_f64(v).unwrap();
                master.insert_with_cost(vec![exact], 1.0).unwrap();
            }
            let mut session = QuerySession::new(cache);
            let mut oracle = TableOracle::from_table(master);
            let r = session.execute_sql(&sql, &mut oracle).unwrap();
            assert!(r.satisfied, "session: {sql} over {values:?}");
            assert_eq!(r.answer.range, point, "session: {sql} over {values:?}");
            for shards in [1, 3] {
                let config = ServiceConfig {
                    shards,
                    ..ServiceConfig::default()
                };
                let mut builder = ServiceBuilder::new()
                    .config(config)
                    .table(Table::new("t", schema.clone()));
                for &v in values {
                    let cell = BoundedValue::exact_f64(v).unwrap();
                    builder = builder.row("t", SourceId::new(1), vec![cell]);
                }
                let service = builder.build_direct().unwrap();
                for advanced in [false, true] {
                    if advanced {
                        service.advance_clock(25.0);
                    }
                    let context =
                        format!("{shards} shards, advanced {advanced}: {sql} over {values:?}");
                    let reply = service.query(&sql).unwrap();
                    assert!(reply.degraded.is_none(), "{context}");
                    assert!(reply.result.satisfied, "{context}");
                    assert_eq!(reply.result.answer.range, point, "{context}");
                }
            }
        }
    }
}
