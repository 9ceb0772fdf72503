//! Criterion micro-benchmarks for `trapp_storage::Table`'s per-tuple paths,
//! the calls every layer above storage reaches a tuple through:
//!
//! * `row_cost_ascending` — `row` + `cost` for every id in order, the
//!   shape of a band-view replay or rebuild;
//! * `update_cell_pass` — one bound rewrite per row, the shape of the
//!   cache's `materialize` pass after a clock advance;
//! * `scan` — one walk over every row.
//!
//! At the repo benchmark's table sizes: 768 rows (`tight_refresh`,
//! `read_write_churn`), 8,192 (`hot_cache`) and 20,000 (`big_table`). The
//! table carries the indexes the service registers — `Cost`, and `Lo` on
//! the exact partition column — so, as in the service, a bound rewrite
//! moves no index entry.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use trapp_storage::{ColumnDef, IndexKey, Schema, Table};
use trapp_types::{BoundedValue, TupleId, Value, ValueType};

const LOAD: usize = 1;

fn table(rows: usize) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::exact("grp", ValueType::Int),
        ColumnDef::bounded_float("load"),
    ])
    .expect("static schema");
    let mut table = Table::new("metrics", schema);
    table.create_index(IndexKey::Cost).expect("cost index");
    table
        .create_index(IndexKey::Lo { column: 0 })
        .expect("numeric column");
    for i in 0..rows {
        let v = 50.0 + (i * 7 % 50) as f64;
        table
            .insert(vec![
                BoundedValue::Exact(Value::Int((i / 8) as i64)),
                BoundedValue::bounded(v - 1.0, v + 1.0).expect("ordered"),
            ])
            .expect("row fits the schema");
    }
    table
}

fn bench_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage");
    group.sample_size(20);
    for rows in [768usize, 8_192, 20_000] {
        let mut table = table(rows);
        let tids: Vec<TupleId> = table.tuple_ids().collect();

        group.bench_function(BenchmarkId::new("row_cost_ascending", rows), |b| {
            b.iter(|| {
                let mut cost = 0.0;
                for &tid in &tids {
                    black_box(table.row(tid).expect("live"));
                    cost += table.cost(tid).expect("live");
                }
                cost
            })
        });

        let mut round = 0u64;
        group.bench_function(BenchmarkId::new("update_cell_pass", rows), |b| {
            b.iter(|| {
                // Alternate two widths so no write is skipped as unchanged.
                round += 1;
                let pad = 1.0 + (round % 2) as f64;
                let cell = BoundedValue::bounded(75.0 - pad, 75.0 + pad).expect("ordered");
                for &tid in &tids {
                    table
                        .update_cell(tid, LOAD, cell.clone())
                        .expect("bounded column");
                }
            })
        });

        group.bench_function(BenchmarkId::new("scan", rows), |b| {
            b.iter(|| {
                table
                    .scan()
                    .map(|(_, row)| row.cells().len())
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_storage);
criterion_main!(benches);
