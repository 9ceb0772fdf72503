//! Per-source health tracking: a consecutive-failure circuit breaker.
//!
//! The gateway records the final outcome of every refresh round-trip here.
//! After [`HealthConfig::failure_threshold`] consecutive failures a source's
//! breaker *opens*: the planner treats the source as **dark** and
//! CHOOSE_REFRESH excludes its tuples (planning over available tuples
//! only). Once [`HealthConfig::cooldown`] elapses the breaker moves to
//! *half-open*: the source is no longer dark, so the next plan may probe it
//! with a real refresh; that probe's outcome snaps the breaker closed
//! (success) or back open (failure).
//!
//! Darkness is advisory for *planning* only — it never fabricates data.
//! A dark source's cached bounds stay valid (TRAPP bounds are correct at
//! any staleness); what is lost is the ability to *narrow* them, which is
//! exactly what the degraded-answer machinery in `trapp-server` accounts
//! for.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use trapp_types::SourceId;

/// Circuit-breaker tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthConfig {
    /// Consecutive refresh failures before a source's breaker opens.
    pub failure_threshold: u32,
    /// How long an open breaker stays dark before allowing a half-open
    /// probe.
    pub cooldown: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// The classic three circuit-breaker states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: refreshes flow normally.
    Closed,
    /// Dark: recent consecutive failures; the planner avoids this source.
    Open,
    /// Probing: cooldown elapsed; the next refresh decides the state.
    HalfOpen,
}

#[derive(Clone, Copy, Debug)]
struct SourceHealth {
    consecutive_failures: u32,
    state: BreakerState,
    opened_at: Option<Instant>,
}

impl Default for SourceHealth {
    fn default() -> Self {
        SourceHealth {
            consecutive_failures: 0,
            state: BreakerState::Closed,
            opened_at: None,
        }
    }
}

/// Tracks per-source breaker state; shared (via `Arc`) between a shard's
/// gateway (which records outcomes) and the query loop (which asks for
/// the dark set before planning). Its lock does not poison: every update
/// leaves the map valid at each step, so a panic elsewhere while it was
/// held cannot make later breaker calls panic.
#[derive(Debug, Default)]
pub struct HealthTracker {
    cfg: HealthConfig,
    by_source: Mutex<HashMap<SourceId, SourceHealth>>,
}

impl HealthTracker {
    /// Creates a tracker with the given tuning.
    pub fn new(cfg: HealthConfig) -> Self {
        HealthTracker {
            cfg,
            by_source: Mutex::new(HashMap::new()),
        }
    }

    /// Records a successful refresh round-trip: the breaker snaps closed.
    pub fn record_success(&self, source: SourceId) {
        let mut map = self.by_source.lock();
        let h = map.entry(source).or_default();
        h.consecutive_failures = 0;
        h.state = BreakerState::Closed;
        h.opened_at = None;
    }

    /// Records a failed refresh round-trip (after retries were exhausted).
    /// Opens the breaker at the threshold; a half-open probe failure
    /// re-opens immediately.
    pub fn record_failure(&self, source: SourceId) {
        let mut map = self.by_source.lock();
        let h = map.entry(source).or_default();
        h.consecutive_failures = h.consecutive_failures.saturating_add(1);
        if h.state == BreakerState::HalfOpen || h.consecutive_failures >= self.cfg.failure_threshold
        {
            h.state = BreakerState::Open;
            h.opened_at = Some(Instant::now());
        }
    }

    /// The sources the planner should currently treat as dark. Open
    /// breakers whose cooldown has elapsed transition to half-open here
    /// (and are *not* reported dark), so planning itself schedules the
    /// probe.
    pub fn dark_sources(&self) -> HashSet<SourceId> {
        let mut map = self.by_source.lock();
        let mut dark = HashSet::new();
        for (&source, h) in map.iter_mut() {
            if h.state == BreakerState::Open {
                let elapsed = h.opened_at.map(|t| t.elapsed()).unwrap_or(Duration::ZERO);
                if elapsed >= self.cfg.cooldown {
                    h.state = BreakerState::HalfOpen;
                } else {
                    dark.insert(source);
                }
            }
        }
        dark
    }

    /// Current breaker state for a source (`Closed` if never seen).
    pub fn state(&self, source: SourceId) -> BreakerState {
        self.by_source
            .lock()
            .get(&source)
            .map(|h| h.state)
            .unwrap_or(BreakerState::Closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(n: u64) -> SourceId {
        SourceId::new(n)
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let t = HealthTracker::new(HealthConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(60),
        });
        t.record_failure(src(1));
        t.record_failure(src(1));
        assert_eq!(t.state(src(1)), BreakerState::Closed);
        assert!(t.dark_sources().is_empty());
        t.record_failure(src(1));
        assert_eq!(t.state(src(1)), BreakerState::Open);
        assert_eq!(t.dark_sources(), HashSet::from([src(1)]));
    }

    #[test]
    fn success_resets_the_streak() {
        let t = HealthTracker::new(HealthConfig {
            failure_threshold: 2,
            cooldown: Duration::from_secs(60),
        });
        t.record_failure(src(1));
        t.record_success(src(1));
        t.record_failure(src(1));
        assert_eq!(t.state(src(1)), BreakerState::Closed);
    }

    /// A panic while the lock is held leaves every breaker call working.
    #[test]
    fn a_panic_under_the_lock_poisons_nothing() {
        let t = HealthTracker::new(HealthConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(60),
        });
        t.record_failure(src(1));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = t.by_source.lock();
            panic!("a panic while the health lock is held");
        }));
        assert!(panicked.is_err());
        assert_eq!(t.state(src(1)), BreakerState::Open);
        assert_eq!(t.dark_sources(), HashSet::from([src(1)]));
        t.record_failure(src(2));
        t.record_success(src(1));
        assert_eq!(t.state(src(1)), BreakerState::Closed);
        assert_eq!(t.dark_sources(), HashSet::from([src(2)]));
    }

    #[test]
    fn cooldown_elapses_into_half_open_probe() {
        let t = HealthTracker::new(HealthConfig {
            failure_threshold: 1,
            cooldown: Duration::ZERO,
        });
        t.record_failure(src(1));
        assert_eq!(t.state(src(1)), BreakerState::Open);
        // Zero cooldown: the very next dark_sources() query flips to
        // half-open and reports the source available for a probe.
        assert!(t.dark_sources().is_empty());
        assert_eq!(t.state(src(1)), BreakerState::HalfOpen);
        // A failed probe re-opens immediately (no need to re-reach the
        // threshold).
        t.record_failure(src(1));
        assert_eq!(t.state(src(1)), BreakerState::Open);
        // A successful probe closes.
        assert!(t.dark_sources().is_empty()); // half-open again
        t.record_success(src(1));
        assert_eq!(t.state(src(1)), BreakerState::Closed);
    }
}
