//! # trapp-server
//!
//! A concurrent, **sharded** multi-client query service over the TRAPP
//! replication substrate — the serving layer the paper's single-cache,
//! one-query-at-a-time loop (§3–§4) grows into under heavy traffic.
//!
//! Clients send TRAPP/AG SQL with precision constraints from many
//! threads — each run on its caller's thread by [`QueryService::query`],
//! at most [`ServiceConfig::workers`] at once — against
//! [`ServiceConfig::shards`] independent [`CacheNode`]s whose group key
//! space is hash-partitioned by a [`ShardRouter`]:
//!
//! * **group-routed queries** (`… WHERE grp = 7 …`) run entirely on one
//!   shard — queries for different groups share no lock, which is what
//!   lets throughput scale with the shard count;
//! * **shard-spanning queries** scatter to every shard for partial
//!   aggregate inputs, merge them via [`trapp_core::merge`] into exactly
//!   the input a single cache would hold, plan CHOOSE_REFRESH globally,
//!   and fetch every shard's slice of the plan concurrently — so the
//!   sharded answer is *bit-equivalent* to the single-cache answer;
//! * within each shard, two traffic reducers apply: **batched source
//!   round-trips** (one [`Transport::submit_refresh_batch`] per source
//!   per plan) and
//!   **refresh coalescing** (a per-shard single-flight [`RefreshGateway`]
//!   in-flight table).
//!
//! See `ARCHITECTURE.md` at the repository root for the full data-flow
//! walkthrough.
//!
//! ```
//! use trapp_server::{ServiceBuilder, ServiceConfig};
//! use trapp_storage::{ColumnDef, Schema, Table};
//! use trapp_types::{BoundedValue, SourceId, Value, ValueType};
//!
//! let schema = Schema::new(vec![
//!     ColumnDef::exact("grp", ValueType::Int),
//!     ColumnDef::bounded_float("load"),
//! ])
//! .unwrap();
//! let mut builder = ServiceBuilder::new()
//!     .table(Table::new("metrics", schema))
//!     .partition_by("grp") // rows place on shards by hash of `grp`
//!     .config(ServiceConfig {
//!         shards: 4,
//!         ..ServiceConfig::default()
//!     });
//! for group in 0..8i64 {
//!     builder = builder.row(
//!         "metrics",
//!         SourceId::new(1 + (group as u64) % 2),
//!         vec![
//!             BoundedValue::Exact(Value::Int(group)),
//!             BoundedValue::exact_f64(10.0 * group as f64).unwrap(),
//!         ],
//!     );
//! }
//! let service = builder.build_direct().unwrap();
//!
//! // Pinned to group 3: routed to the one shard that owns it.
//! let reply = service
//!     .query("SELECT SUM(load) WITHIN 1 FROM metrics WHERE grp = 3")
//!     .unwrap();
//! assert!(reply.result.satisfied);
//!
//! // No group pin: scatter-gathered across all four shards and merged.
//! let reply = service.query("SELECT SUM(load) WITHIN 1 FROM metrics").unwrap();
//! assert!(reply.result.satisfied);
//! assert_eq!(service.stats().scatter_queries, 1);
//! ```
//!
//! [`CacheNode`]: trapp_system::CacheNode
//! [`Transport::submit_refresh_batch`]: trapp_system::Transport::submit_refresh_batch

#![deny(missing_docs)]
#![deny(unsafe_code)]
// No panic reaches a caller: a site that stays names its invariant.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod admission;
pub mod gateway;
pub mod health;
pub mod router;
pub mod service;
mod snapshots;

pub use admission::{Admission, AdmissionConfig, AdmissionController};
pub use gateway::{RefreshGateway, RetryPolicy};
pub use health::{BreakerState, HealthConfig, HealthTracker};
pub use router::{Route, ShardRouter};
pub use service::{
    default_fetch_pool_size, DegradationPolicy, DegradedInfo, QueryService, ServiceBuilder,
    ServiceConfig, ServiceReply, ServiceStats,
};
// The grouped half of [`ServiceReply`], re-exported for callers.
pub use trapp_core::group_by::{GroupKey, GroupResult};
