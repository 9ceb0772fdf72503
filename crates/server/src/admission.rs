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
//!    constraint), so the backlog drains at a lower refresh cost;
//! 3. **at/above `reject_watermark`** — shed: the query is refused with a
//!    typed [`TrappError::Overloaded`] before any work is started.
//!
//! Both watermarks default to "off" (`u64::MAX`): an unconfigured service
//! admits every query untouched. Depth accounting is shared with the
//! service's dispatch path — [`AdmissionController::admit`] increments
//! when `query` admits a query, [`AdmissionController::dequeued`]
//! decrements when the query takes its execution permit and starts — so
//! the gauge is the number of admitted queries waiting for a permit, not
//! in-flight executions.

use std::sync::atomic::{AtomicU64, Ordering};

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
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            widen_watermark: u64::MAX,
            widen_factor: 4.0,
            reject_watermark: u64::MAX,
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
}

impl AdmissionController {
    /// A controller over `cfg` with an empty queue.
    pub fn new(cfg: AdmissionConfig) -> AdmissionController {
        AdmissionController {
            cfg,
            depth: AtomicU64::new(0),
            widened: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
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
            Ok(Admission::Widened)
        } else {
            Ok(Admission::Normal)
        }
    }

    /// An admitted query started executing: the queue is one shallower.
    pub fn dequeued(&self) {
        self.depth.fetch_sub(1, Ordering::SeqCst);
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
}
