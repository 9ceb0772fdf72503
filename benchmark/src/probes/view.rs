//! `view`: `BandView::sync` on a copy of the workload's table, under the
//! view its most frequent query maps to.

use std::cell::RefCell;
use std::collections::HashSet;
use std::hint::black_box;

use trapp_core::plan::bind_query;
use trapp_core::view::ViewCache;
use trapp_core::BoundQuery;
use trapp_server::QueryService;
use trapp_storage::{Catalog, Table};
use trapp_types::{BoundedValue, TupleId};

use crate::report::Metric;
use crate::workload::{Class, Workload};

use super::{median_ns, median_ns_with, metric, table_clone};

/// The bounded `load` column of `metrics`.
const LOAD: usize = 1;
/// Tuples dirtied per incremental sync iteration.
const CHANGED: usize = 8;

/// Rewrites `tid`'s bound to a width no earlier round used, so the write
/// is never skipped as a no-op.
fn perturb(table: &mut Table, tid: TupleId, round: u64) {
    let iv = table.interval(tid, LOAD).expect("row exists");
    let pad = 1e-3 * (1 + round % 1000) as f64;
    let mid = iv.midpoint();
    table
        .update_cell(
            tid,
            LOAD,
            BoundedValue::bounded(mid - 1.0 - pad, mid + 1.0 + pad).expect("ordered"),
        )
        .expect("bounded column");
}

pub fn probe(w: &Workload, service: &QueryService) -> Vec<Metric> {
    // The stream's most frequent single-table query stands for the workload.
    let mut uses = vec![0u32; w.distinct.len()];
    for &id in &w.stream {
        uses[id as usize] += 1;
    }
    let typical = (0..w.distinct.len())
        .filter(|&id| w.distinct[id].class != Class::Join)
        .max_by_key(|&id| (uses[id], std::cmp::Reverse(id)))
        .expect("every workload has single-table queries");

    // One copy to bind against, one to mutate and sync against.
    let mut catalog = Catalog::new();
    catalog
        .add_table(table_clone(service, 0, "metrics"))
        .expect("fresh catalog");
    let bind = |sql: &str| -> BoundQuery {
        let parsed = trapp_sql::parse_query(sql).expect("generated SQL parses");
        bind_query(&parsed, &catalog).expect("generated SQL binds")
    };
    let bound = bind(&w.distinct[typical].sql);

    // Views are keyed by predicate, argument and grouping — not by
    // aggregate or WITHIN.
    let count = w
        .distinct
        .iter()
        .filter(|q| q.class != Class::Join)
        .map(|q| {
            let b = bind(&q.sql);
            format!("{:?}|{:?}|{:?}", b.predicate, b.arg, b.group_by)
        })
        .collect::<HashSet<_>>()
        .len();

    // Set-up closures write the table, timed closures read it.
    let table = RefCell::new(table_clone(service, 0, "metrics"));

    let rebuild_ns = median_ns_with(ViewCache::default, |mut views| {
        views
            .view_for("metrics", &bound)
            .sync(&table.borrow())
            .expect("view builds");
        black_box(views);
    });

    let mut views = ViewCache::default();
    let view = views.view_for("metrics", &bound);
    view.sync(&table.borrow()).expect("view builds");
    let noop_ns = median_ns(16, || {
        view.sync(black_box(&table.borrow())).expect("no-op sync")
    });

    // Changes that matter to this view: tuples it holds items for.
    let members: Vec<TupleId> = view.input().items.iter().map(|i| i.tid).collect();
    let mut round = 0u64;
    let changed_ns = median_ns_with(
        || {
            for k in 0..CHANGED {
                round += 1;
                let tid = members[(round as usize + k) % members.len()];
                perturb(&mut table.borrow_mut(), tid, round);
            }
        },
        |()| view.sync(&table.borrow()).expect("incremental sync"),
    ) / CHANGED as f64;

    // A clock advance re-widens every bound of the table.
    let all: Vec<TupleId> = table.borrow().tuple_ids().collect();
    let advance_ns = median_ns_with(
        || {
            round += 1;
            for &tid in &all {
                perturb(&mut table.borrow_mut(), tid, round);
            }
        },
        |()| view.sync(&table.borrow()).expect("resync"),
    );

    vec![
        metric("view.sync_noop_ns", noop_ns, "ns"),
        metric("view.sync_ns_per_changed_tuple", changed_ns, "ns"),
        metric("view.resync_after_advance_us", advance_ns / 1e3, "us"),
        metric("view.rebuild_us", rebuild_ns / 1e3, "us"),
        metric("view.count", count as f64, "count"),
    ]
}
