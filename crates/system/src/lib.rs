//! # trapp-system
//!
//! The TRAPP replication substrate (§3, Figure 3): **data sources** hold
//! master values and run **Refresh Monitors**; **data caches** hold bounds
//! and run the query processor from `trapp-core`. The two halves cooperate
//! through two message flows:
//!
//! * **value-initiated refreshes** — a source applies an update, notices a
//!   cache's bound is violated, and pushes a fresh bound (§3.1);
//! * **query-initiated refreshes** — a cache executing a query with a
//!   precision constraint pulls master values for the tuples its
//!   CHOOSE_REFRESH plan selected (§4).
//!
//! Bounds are the time-parameterized `√t` functions of `trapp-bounds`, with
//! per-(cache, object) [`trapp_bounds::AdaptiveWidth`] controllers on the
//! source side (Appendix A): widen on escapes, narrow on query refreshes.
//!
//! Two transports implement the one fetch primitive
//! ([`transport::Transport::submit_refresh_batch`], returning a
//! [`transport::Completion`]):
//!
//! * [`transport::DirectTransport`] — synchronous, single-threaded,
//!   deterministic; used by tests and the reproducible experiments;
//! * [`transport::CompletionTransport`] — a shared
//!   [`fetch_pool::FetchPool`] of demux threads multiplexes every source
//!   actor over completion queues, so fan-out costs `O(pool)` threads no
//!   matter how many sources exist, and callers overlap independent
//!   round-trips by submitting before they wait.

#![deny(missing_docs)]
#![deny(unsafe_code)]
// No panic reaches a caller: a site that stays names its invariant.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod cache;
pub mod chaos;
pub mod clock;
pub mod cost;
pub mod fetch_pool;
pub mod message;
pub mod sim;
pub mod source;
pub mod stats;
pub mod transport;

pub use cache::CacheNode;
pub use chaos::{splitmix64, ChaosConfig, ChaosControl, ChaosTransport, DelaySpec, OutageWindow};
pub use clock::SimClock;
pub use cost::CostModel;
pub use fetch_pool::FetchPool;
pub use message::{Refresh, RefreshKind};
pub use sim::{Simulation, SimulationBuilder};
pub use source::Source;
pub use stats::SystemStats;
pub use transport::{
    Completion, CompletionSender, CompletionTransport, DirectTransport, Transport,
};
