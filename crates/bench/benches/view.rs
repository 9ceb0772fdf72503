//! Criterion micro-benchmarks for the band-view layer and the clock-advance
//! pass feeding it: what one selective (`grp = k`) query pays per plan for
//! its view — build on a view-cache miss, resync after a clock advance —
//! and, after an advance, what bringing bounds up to date costs the first
//! plan that reads every row (`materialize_after_advance`) and a pinned
//! plan, which reads its group's rows (`pinned_materialize_after_advance`).
//!
//! Two table shapes, the repo benchmark's `big_table` (20,000 rows in
//! 2,500 groups of 8) and `hot_cache` (8,192 rows in 32 groups of 256),
//! wired by `ServiceBuilder` so the tables carry exactly the indexes the
//! service registers.
//!
//! On the `hot_cache` shape, also what the `GROUP BY grp` and the
//! unfiltered view pay after one pinned query's 212 installs landed in
//! one group (`grouped_resync_one_group`, `unfiltered_resync_212_rows`),
//! after a clock advance (`grouped_resync_after_advance`), and for an
//! answer over a view nothing changed (`unfiltered_answer_unchanged`);
//! and the two whole-table rebuilds a clock advance costs the global
//! queries, which are all per-tuple classification: the unfiltered view
//! (`unfiltered_resync_after_advance`) and COUNT's `load > k` view
//! (`filtered_resync_after_advance`).

use std::cell::RefCell;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use trapp_core::plan::bind_query;
use trapp_core::view::{BandView, ViewCache};
use trapp_core::Aggregate;
use trapp_server::{QueryService, ServiceBuilder};
use trapp_storage::{Catalog, ColumnDef, Schema, Table};
use trapp_types::{BoundedValue, SourceId, TupleId, Value, ValueType};

const LOAD: usize = 1;
const CLOCK_STEP: f64 = 25.0;

fn service(groups: usize, rows_per_group: usize) -> QueryService {
    let schema = Schema::new(vec![
        ColumnDef::exact("grp", ValueType::Int),
        ColumnDef::bounded_float("load"),
    ])
    .expect("static schema");
    let mut builder = ServiceBuilder::new()
        .initial_width(1.0)
        .partition_by("grp")
        .table(Table::new("metrics", schema));
    for g in 0..groups {
        for i in 0..rows_per_group {
            builder = builder.row(
                "metrics",
                SourceId::new(1 + ((g + i) % 8) as u64),
                vec![
                    BoundedValue::Exact(Value::Int(g as i64)),
                    BoundedValue::exact_f64(50.0 + ((g * 31 + i * 7) % 50) as f64).expect("finite"),
                ],
            );
        }
    }
    builder.build_direct().expect("service builds")
}

/// A clock advance as the view sees it: every bound of `table` rewritten,
/// to a width no earlier round used so no write is skipped as a no-op.
fn rewiden(table: &mut Table, tids: &[TupleId], round: u64) {
    let pad = 1.0 + 1e-3 * (round % 1000) as f64;
    for &tid in tids {
        let mid = table.interval(tid, LOAD).expect("row exists").midpoint();
        table
            .update_cell(
                tid,
                LOAD,
                BoundedValue::bounded(mid - pad, mid + pad).expect("ordered"),
            )
            .expect("bounded column");
    }
}

/// Rows one pinned `WITHIN 8` query of `hot_cache` installs (the traced
/// run's `refresh.chosen_per_plan`).
const INSTALLED: usize = 212;

/// Syncs a grouped view and asks every group's `SUM`, as a `GROUP BY`
/// plan does.
fn sync_and_answer_groups(view: &mut BandView, table: &Table) -> f64 {
    view.sync(table).expect("resync");
    (0..view.group_count())
        .map(|rank| {
            let answer = view.group_answer(rank, Aggregate::Sum).expect("bounded");
            answer.width()
        })
        .sum()
}

fn bench_view(c: &mut Criterion) {
    let mut group = c.benchmark_group("view");
    group.sample_size(20);
    for (groups, rows_per_group) in [(2_500usize, 8usize), (32, 256)] {
        let shape = format!("{}x{groups}", groups * rows_per_group);
        let service = service(groups, rows_per_group);
        service.advance_clock(CLOCK_STEP);
        let table = service.with_shard_cache(0, |cache| {
            cache.materialize().expect("bounds materialize");
            cache
                .session()
                .catalog()
                .table("metrics")
                .expect("wired")
                .clone()
        });
        let mut catalog = Catalog::new();
        catalog.add_table(table.clone()).expect("fresh catalog");
        let sql = format!(
            "SELECT SUM(load) WITHIN 2 FROM metrics WHERE grp = {}",
            groups / 2
        );
        let bound =
            bind_query(&trapp_sql::parse_query(&sql).expect("parses"), &catalog).expect("binds");
        let tids: Vec<TupleId> = table.tuple_ids().collect();
        let table = RefCell::new(table);

        // A view-cache miss: first sync of a fresh view.
        group.bench_function(BenchmarkId::new("pinned_build", &shape), |b| {
            b.iter_with_setup(ViewCache::default, |mut views| {
                views
                    .view_for("metrics", &bound)
                    .sync(&table.borrow())
                    .expect("view builds");
                views
            })
        });

        // A retained view after every bound of the table moved.
        let mut views = ViewCache::default();
        let view = views.view_for("metrics", &bound);
        view.sync(&table.borrow()).expect("view builds");
        let mut round = 0u64;
        group.bench_function(BenchmarkId::new("resync_after_advance", &shape), |b| {
            b.iter_with_setup(
                || {
                    round += 1;
                    rewiden(&mut table.borrow_mut(), &tids, round);
                },
                |()| view.sync(&table.borrow()).expect("resync"),
            )
        });
        assert_eq!(view.input().items.len(), rows_per_group);

        if groups == 32 {
            let bind = |sql: &str| {
                bind_query(&trapp_sql::parse_query(sql).expect("parses"), &catalog).expect("binds")
            };
            let grouped = bind("SELECT SUM(load) FROM metrics GROUP BY grp");
            let unfiltered = bind("SELECT AVG(load) FROM metrics");
            let filtered = bind("SELECT COUNT(*) FROM metrics WHERE load > 75");
            let one_group = &tids[5 * rows_per_group..][..INSTALLED];
            let mut views = ViewCache::default();

            let view = views.view_for("metrics", &grouped);
            sync_and_answer_groups(view, &table.borrow());
            group.bench_function(BenchmarkId::new("grouped_resync_one_group", &shape), |b| {
                b.iter_with_setup(
                    || {
                        round += 1;
                        rewiden(&mut table.borrow_mut(), one_group, round);
                    },
                    |()| sync_and_answer_groups(view, &table.borrow()),
                )
            });
            group.bench_function(
                BenchmarkId::new("grouped_resync_after_advance", &shape),
                |b| {
                    b.iter_with_setup(
                        || {
                            round += 1;
                            rewiden(&mut table.borrow_mut(), &tids, round);
                        },
                        |()| sync_and_answer_groups(view, &table.borrow()),
                    )
                },
            );

            let view = views.view_for("metrics", &unfiltered);
            view.sync(&table.borrow()).expect("view builds");
            group.bench_function(
                BenchmarkId::new("unfiltered_resync_212_rows", &shape),
                |b| {
                    b.iter_with_setup(
                        || {
                            round += 1;
                            rewiden(&mut table.borrow_mut(), one_group, round);
                        },
                        |()| view.sync(&table.borrow()).expect("resync"),
                    )
                },
            );
            group.bench_function(
                BenchmarkId::new("unfiltered_answer_unchanged", &shape),
                |b| {
                    b.iter(|| {
                        view.sync(&table.borrow()).expect("no-op sync");
                        view.answer(Aggregate::Avg).expect("bounded")
                    })
                },
            );
            group.bench_function(
                BenchmarkId::new("unfiltered_resync_after_advance", &shape),
                |b| {
                    b.iter_with_setup(
                        || {
                            round += 1;
                            rewiden(&mut table.borrow_mut(), &tids, round);
                        },
                        |()| view.sync(&table.borrow()).expect("resync"),
                    )
                },
            );

            let view = views.view_for("metrics", &filtered);
            view.sync(&table.borrow()).expect("view builds");
            group.bench_function(
                BenchmarkId::new("filtered_resync_after_advance", &shape),
                |b| {
                    b.iter_with_setup(
                        || {
                            round += 1;
                            rewiden(&mut table.borrow_mut(), &tids, round);
                        },
                        |()| view.sync(&table.borrow()).expect("resync"),
                    )
                },
            );
        }

        // The shard-lock-held pass a scan-shaped plan pays at the head of
        // every epoch…
        group.bench_function(BenchmarkId::new("materialize_after_advance", &shape), |b| {
            b.iter_with_setup(
                || service.advance_clock(CLOCK_STEP),
                |()| {
                    service.with_shard_cache(0, |cache| {
                        cache.materialize().expect("bounds materialize")
                    })
                },
            )
        });
        // …and the one a pinned plan pays instead: its group's rows only.
        group.bench_function(
            BenchmarkId::new("pinned_materialize_after_advance", &shape),
            |b| {
                b.iter_with_setup(
                    || service.advance_clock(CLOCK_STEP),
                    |()| {
                        service.with_shard_cache(0, |cache| {
                            cache.materialize_for(&bound).expect("group materializes")
                        })
                    },
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_view);
criterion_main!(benches);
