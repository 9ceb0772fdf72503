//! System-wide statistics.
//!
//! The quantities the paper's experiments (and Appendix A's width-tuning
//! discussion) care about: how many refreshes of each kind flowed, what the
//! query-initiated ones cost, and how many messages crossed the network.

use std::fmt;

/// Counters kept by each cache.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Queries executed.
    pub queries: u64,
    /// Value-initiated refreshes installed.
    pub value_initiated: u64,
    /// Query-initiated refreshes installed.
    pub query_initiated: u64,
    /// Subscription (initial) refreshes installed.
    pub subscriptions: u64,
    /// §8.3 pre-refreshes installed.
    pub pre_refreshes: u64,
    /// Refreshes skipped as sequence-stale (a newer bound was already
    /// installed; see [`crate::message::Refresh::seq`]).
    pub stale_skipped: u64,
    /// Total refresh cost paid by queries.
    pub refresh_cost: f64,
    /// Bounded cells written with their bound evaluated at a clock
    /// instant: by a plan bringing the rows it reads current, a full
    /// pass, or an install or rebinding rewriting its row.
    pub cells_materialized: u64,
}

/// An aggregate snapshot across the whole simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SystemStats {
    /// Updates applied at sources.
    pub updates: u64,
    /// Value-initiated refreshes pushed by sources.
    pub value_initiated: u64,
    /// Query-initiated refreshes served by sources.
    pub query_initiated: u64,
    /// Queries executed at caches.
    pub queries: u64,
    /// Total refresh cost paid by queries.
    pub refresh_cost: f64,
    /// Refresh round-trips over the transport.
    pub messages: u64,
}

impl SystemStats {
    /// Total refreshes of both kinds — the quantity the adaptive width
    /// controller tries to minimize (Appendix A).
    pub fn total_refreshes(&self) -> u64 {
        self.value_initiated + self.query_initiated
    }
}

impl fmt::Display for SystemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "updates={} refreshes(value={}, query={}) queries={} cost={:.2} messages={}",
            self.updates,
            self.value_initiated,
            self.query_initiated,
            self.queries,
            self.refresh_cost,
            self.messages
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_display() {
        let s = SystemStats {
            updates: 10,
            value_initiated: 3,
            query_initiated: 4,
            queries: 2,
            refresh_cost: 12.5,
            messages: 4,
        };
        assert_eq!(s.total_refreshes(), 7);
        let text = s.to_string();
        assert!(text.contains("value=3"));
        assert!(text.contains("cost=12.50"));
    }
}
