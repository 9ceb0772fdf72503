//! Admission control: the service's first line of overload defense.
//!
//! TRAPP's own load-shedding knob is *precision* — a wider bound needs
//! fewer refreshes (§6: CHOOSE_REFRESH's cost falls monotonically as `R`
//! grows). The [`AdmissionController`] turns that knob from the front
//! door, watching the live query-queue depth and walking a three-step
//! ladder as depth crosses its watermarks:
//!
//! 1. **below `widen_watermark`** — admit untouched;
//! 2. **at/above `widen_watermark`** — admit, but widen the query's
//!    `WITHIN` constraint by [`AdmissionConfig::widen_factor`] (the reply
//!    carries [`DegradedInfo`](crate::DegradedInfo) naming the original
//!    constraint), and boost the shared fetch pool to
//!    [`AdmissionConfig::burst_pool_threads`] so the backlog drains with
//!    more fetch parallelism;
//! 3. **at/above `reject_watermark`** — shed: the query is refused with a
//!    typed [`TrappError::Overloaded`] before any work is started.
//!
//! Both watermarks default to "off" (`u64::MAX`): an unconfigured service
//! behaves exactly as before. Depth accounting is shared with the
//! service's dispatch path — [`AdmissionController::admit`] increments
//! when `query` admits a query, [`AdmissionController::dequeued`]
//! decrements when the query takes its execution permit and starts — so
//! the gauge is the number of admitted queries waiting for a permit, not
//! in-flight executions.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;
use trapp_system::FetchPool;
use trapp_types::TrappError;

/// Watermarks and reactions for the admission ladder. All knobs default
/// to "off", so an unconfigured service admits everything untouched.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Queue depth at or above which admitted queries have their `WITHIN`
    /// constraint widened by [`AdmissionConfig::widen_factor`].
    /// `u64::MAX` (default) disables widening.
    pub widen_watermark: u64,
    /// Multiplier applied to `WITHIN` when admission widens (> 1).
    pub widen_factor: f64,
    /// Queue depth at or above which queries are rejected with
    /// [`TrappError::Overloaded`]. `u64::MAX` (default) disables
    /// rejection.
    pub reject_watermark: u64,
    /// Fetch-pool size to [`FetchPool::resize`] to while depth sits at or
    /// above the widen watermark; the pool falls back to its build-time
    /// size once the queue drains empty. `0` (default) leaves the pool
    /// alone.
    pub burst_pool_threads: usize,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            widen_watermark: u64::MAX,
            widen_factor: 4.0,
            reject_watermark: u64::MAX,
            burst_pool_threads: 0,
        }
    }
}

/// The verdict [`AdmissionController::admit`] returns for one query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Below every watermark: execute as asked.
    Normal,
    /// Depth crossed the widen watermark: execute with the precision
    /// constraint widened by [`AdmissionConfig::widen_factor`].
    Widened,
}

/// Live admission state shared by every entry point and worker. See the
/// module docs for the ladder.
pub struct AdmissionController {
    cfg: AdmissionConfig,
    depth: AtomicU64,
    widened: AtomicU64,
    rejected: AtomicU64,
    /// Whether the fetch pool is currently boosted above its base size.
    boosted: AtomicBool,
    /// The resizable fetch pool plus its build-time base size, when the
    /// service was built over a completion transport.
    pool: Mutex<Option<(FetchPool, usize)>>,
}

impl AdmissionController {
    /// A controller over `cfg` with an empty queue and no pool attached.
    pub fn new(cfg: AdmissionConfig) -> AdmissionController {
        AdmissionController {
            cfg,
            depth: AtomicU64::new(0),
            widened: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            boosted: AtomicBool::new(false),
            pool: Mutex::new(None),
        }
    }

    /// Attaches the service's shared fetch pool so load reactions can
    /// resize it; `base` is the build-time thread count to fall back to.
    pub fn attach_pool(&self, pool: FetchPool, base: usize) {
        *self.pool.lock() = Some((pool, base));
    }

    /// One query at the front door: sheds with
    /// [`TrappError::Overloaded`] above the reject watermark, otherwise
    /// admits (incrementing the depth gauge) and reports whether the
    /// widen watermark asks for a relaxed constraint.
    pub fn admit(&self) -> Result<Admission, TrappError> {
        let depth = self.depth.load(Ordering::SeqCst);
        if depth >= self.cfg.reject_watermark {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(TrappError::Overloaded {
                queue_depth: depth,
                limit: self.cfg.reject_watermark,
            });
        }
        self.depth.fetch_add(1, Ordering::SeqCst);
        if depth >= self.cfg.widen_watermark {
            self.widened.fetch_add(1, Ordering::Relaxed);
            self.react_to_depth(depth + 1);
            Ok(Admission::Widened)
        } else {
            Ok(Admission::Normal)
        }
    }

    /// An admitted query started executing: the queue is one shallower.
    /// Once the queue drains empty, a boosted fetch pool falls back to its
    /// base size.
    pub fn dequeued(&self) {
        let depth = self.depth.fetch_sub(1, Ordering::SeqCst).saturating_sub(1);
        self.react_to_depth(depth);
    }

    /// Applies the pool-sizing half of the ladder for an observed depth.
    fn react_to_depth(&self, depth: u64) {
        if self.cfg.burst_pool_threads == 0 {
            return;
        }
        if depth >= self.cfg.widen_watermark {
            if !self.boosted.swap(true, Ordering::SeqCst) {
                if let Some((pool, _)) = &*self.pool.lock() {
                    pool.resize(self.cfg.burst_pool_threads);
                }
            }
        } else if depth == 0 && self.boosted.swap(false, Ordering::SeqCst) {
            if let Some((pool, base)) = &*self.pool.lock() {
                pool.resize(*base);
            }
        }
    }

    /// Current queue depth (admitted, not yet started executing).
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::SeqCst)
    }

    /// Queries admitted with a widened constraint, total.
    pub fn widened(&self) -> u64 {
        self.widened.load(Ordering::Relaxed)
    }

    /// Queries shed with [`TrappError::Overloaded`], total.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// The constraint-widening multiplier.
    pub fn widen_factor(&self) -> f64 {
        self.cfg.widen_factor
    }

    /// The attached fetch pool's current thread target, when a pool was
    /// attached — the *actual* live size, reflecting any burst resizing.
    pub fn pool_threads(&self) -> Option<usize> {
        self.pool.lock().as_ref().map(|(pool, _)| pool.threads())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_admit_everything_untouched() {
        let c = AdmissionController::new(AdmissionConfig::default());
        for _ in 0..10_000 {
            assert_eq!(c.admit().unwrap(), Admission::Normal);
        }
        assert_eq!(c.depth(), 10_000);
        assert_eq!(c.widened(), 0);
        assert_eq!(c.rejected(), 0);
    }

    #[test]
    fn ladder_widens_then_rejects_by_depth() {
        let c = AdmissionController::new(AdmissionConfig {
            widen_watermark: 2,
            reject_watermark: 4,
            ..AdmissionConfig::default()
        });
        assert_eq!(c.admit().unwrap(), Admission::Normal); // depth 0 -> 1
        assert_eq!(c.admit().unwrap(), Admission::Normal); // depth 1 -> 2
        assert_eq!(c.admit().unwrap(), Admission::Widened); // depth 2 -> 3
        assert_eq!(c.admit().unwrap(), Admission::Widened); // depth 3 -> 4
        let err = c.admit().unwrap_err(); // depth 4: shed
        assert_eq!(
            err,
            TrappError::Overloaded {
                queue_depth: 4,
                limit: 4
            }
        );
        assert_eq!(c.depth(), 4);
        assert_eq!(c.widened(), 2);
        assert_eq!(c.rejected(), 1);
        // Draining the queue re-opens the door.
        for _ in 0..4 {
            c.dequeued();
        }
        assert_eq!(c.depth(), 0);
        assert_eq!(c.admit().unwrap(), Admission::Normal);
    }

    #[test]
    fn pool_boosts_over_watermark_and_falls_back_when_drained() {
        let pool = FetchPool::new(2);
        let c = AdmissionController::new(AdmissionConfig {
            widen_watermark: 1,
            burst_pool_threads: 6,
            ..AdmissionConfig::default()
        });
        c.attach_pool(pool.clone(), 2);
        assert_eq!(c.admit().unwrap(), Admission::Normal);
        assert_eq!(pool.threads(), 2, "below watermark: untouched");
        assert_eq!(c.admit().unwrap(), Admission::Widened);
        assert_eq!(pool.threads(), 6, "over watermark: boosted");
        c.dequeued();
        assert_eq!(pool.threads(), 6, "still queued: stays boosted");
        c.dequeued();
        assert_eq!(pool.threads(), 2, "drained: back to base");
    }
}
