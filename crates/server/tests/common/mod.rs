//! Fixtures shared by the server integration tests: the service under test
//! on either transport stack, beside the paper's own §4 loop run in a
//! single cache ([`Simulation`]: scan-built inputs, scan CHOOSE_REFRESH,
//! one-tuple join rounds) over the same rows — the reference that shares
//! no code with the service's view-planned, batched fast path.

#![allow(dead_code)] // every test binary uses its own subset

use std::time::Duration;

use trapp_core::executor::QueryResult;
use trapp_core::GroupResult;
use trapp_server::{QueryService, ServiceBuilder, ServiceConfig};
use trapp_storage::Table;
use trapp_system::Simulation;
use trapp_types::SourceId;
use trapp_workload::loadgen::{self, RowSpec, ServiceWorkload};

/// Which transport stack a service is built over.
#[derive(Clone, Copy, Debug)]
pub enum Stack {
    /// Inline-resolving completions: every round-trip is done at submit.
    Direct,
    /// Pending completions over a 2-thread shared fetch pool.
    Completion,
}

pub const STACKS: [Stack; 2] = [Stack::Direct, Stack::Completion];

impl Stack {
    /// Finishes `builder` over this stack; `latency` is the completion
    /// transport's simulated wire time.
    pub fn build(self, builder: ServiceBuilder, latency: Duration) -> QueryService {
        match self {
            Stack::Direct => builder.build_direct().unwrap(),
            Stack::Completion => builder.build_completion(latency, 2).unwrap(),
        }
    }
}

/// A workload's tables, each with its rows, in build order — so a service
/// and a reference built from them assign identical tuple and object ids.
pub type Tables<'a> = Vec<(Table, &'a [RowSpec])>;

pub fn loadgen_tables(w: &ServiceWorkload) -> Tables<'_> {
    let mut tables: Tables<'_> = vec![(loadgen::table(), &w.rows)];
    if !w.segments.is_empty() {
        tables.push((loadgen::segments_table(), &w.segments));
    }
    tables
}

/// A builder holding `tables` and their rows under `config`.
pub fn service_builder(tables: Tables<'_>, config: ServiceConfig) -> ServiceBuilder {
    let mut b = ServiceBuilder::new().config(config);
    for (table, rows) in tables {
        let name = table.name().to_owned();
        b = b.table(table);
        for r in rows {
            b = b.row(name.as_str(), r.source, r.cells.clone());
        }
    }
    b
}

/// The single-cache reference holding every row of `tables`.
pub fn reference(tables: Tables<'_>, sources: usize) -> Simulation {
    let mut sim = Simulation::builder().build().unwrap();
    for s in 1..=sources as u64 {
        sim.add_source(SourceId::new(s));
    }
    for (table, rows) in tables {
        let name = table.name().to_owned();
        sim.add_table(table).unwrap();
        for r in rows {
            sim.add_row(&name, r.source, r.cells.clone()).unwrap();
        }
    }
    sim
}

/// What the reference answered: a scalar result, or one per group.
pub type Reference = (Option<QueryResult>, Vec<GroupResult>);

/// Runs `sql` through the §4 loop.
pub fn run_reference(sim: &mut Simulation, sql: &str) -> Reference {
    let query = trapp_sql::parse_query(sql).unwrap();
    if query.group_by.is_empty() {
        (Some(sim.run_query(sql).unwrap()), Vec::new())
    } else {
        let groups = sim.cache.execute_grouped(&query, &sim.transport).unwrap();
        (None, groups)
    }
}
