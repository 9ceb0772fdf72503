//! Stand up the **sharded** query service — four caches, group key space
//! hash-partitioned — drive it with the zipfian load generator from eight
//! client threads, and print the stats snapshot. The README quickstart,
//! runnable as `cargo run --example query_service`.

use trapp::prelude::*;
use trapp::workload::loadgen::{self, LoadConfig};

fn main() -> Result<(), TrappError> {
    // A zipfian serving workload: 16 groups × 6 rows over 4 sources, 128
    // queries mixing COUNT/SUM/AVG/MIN with mostly-tight precision
    // constraints. One query in ten has no group predicate — those span
    // every shard and are answered by scatter-gather.
    let workload = loadgen::generate(&LoadConfig {
        queries: 128,
        global_fraction: 0.1,
        ..LoadConfig::default()
    });

    // The service: 8 workers over 4 cache shards (rows placed by hashing
    // the `grp` column), refresh coalescing and batched source
    // round-trips on within every shard.
    let mut builder = ServiceBuilder::new()
        .config(ServiceConfig {
            workers: 8,
            shards: 4,
            ..ServiceConfig::default()
        })
        .partition_by("grp")
        .table(loadgen::table());
    for row in &workload.rows {
        builder = builder.row("metrics", row.source, row.cells.clone());
    }
    // The completion transport simulates 500µs per source round-trip — the
    // regime where batching, coalescing, and shard parallelism pay — on a
    // shared fetch pool sized from the machine and the shard count.
    let service = builder.build_completion(std::time::Duration::from_micros(500), None)?;

    // Let the bounds widen so tight queries must refresh, then serve the
    // stream from eight concurrent clients.
    service.advance_clock(25.0);
    let per_client = workload.queries.len().div_ceil(8);
    let service_ref = &service;
    std::thread::scope(|scope| {
        for (client, chunk) in workload.queries.chunks(per_client).enumerate() {
            scope.spawn(move || {
                for q in chunk {
                    let reply = service_ref.query(&q.sql).expect("query runs");
                    assert!(reply.result.satisfied);
                    if reply.refreshes_saved > 0 {
                        println!(
                            "client {client}: {} -> {} (saved {} refreshes)",
                            q.sql, reply.result.answer, reply.refreshes_saved
                        );
                    }
                }
            });
        }
    });

    let stats = service.stats();
    println!(
        "\nservice stats ({} shards): {stats:?}",
        service.shard_count()
    );
    assert_eq!(stats.queries, workload.queries.len() as u64);
    assert!(stats.scatter_queries > 0, "global queries scatter-gather");
    Ok(())
}
