//! Deterministic fault injection: [`ChaosTransport`] wraps any
//! [`Transport`] and injects per-source failures, seeded latency, and
//! scripted outage windows into the **query-initiated refresh plane**.
//!
//! Two properties make it usable in tests and benches:
//!
//! * **Determinism** — every probabilistic failure *and every injected
//!   delay* is a pure function of `(seed, source, global op counter)` via
//!   a splitmix64 draw (delays use a distinct salt so failure and delay
//!   schedules are independent), so a seeded schedule replays
//!   bit-identically; scripted outages are expressed in *operation
//!   counts* (down from op N to op M), not wall time.
//! * **Fail-at-send only** — an injected failure rejects the request
//!   *before* it reaches the source. TRAPP's core invariant is that every
//!   refresh a source *serves* must install at the cache (the source's
//!   Refresh Monitor re-centers its bound on serve; dropping the reply
//!   would desync cache and monitor and permit wrong answers). Chaos
//!   therefore never serves-then-drops: the source either never sees the
//!   request, or the reply is delivered intact.
//!
//! The update plane ([`Transport::submit_update_batch`]) passes through
//! untouched: masters keep moving and value-initiated refreshes keep flowing, so ground
//! truth stays well-defined while the pull path is under fault load.
//! A shared [`ChaosControl`] handle lets a driver (e.g. the availability
//! bench) force sources down and back up mid-run, on top of the seeded
//! schedule.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use trapp_types::{CacheId, ObjectId, SourceId, TrappError};

use crate::message::Refresh;
use crate::transport::{Completion, Transport};

/// A scripted outage: the matching source(s) reject every refresh request
/// whose global operation number falls in `[from_op, to_op)`.
#[derive(Clone, Debug)]
pub struct OutageWindow {
    /// The source taken down, or `None` for a total outage of all sources.
    pub source: Option<SourceId>,
    /// First refresh operation (inclusive, global counter) that fails.
    pub from_op: u64,
    /// First refresh operation (exclusive) that succeeds again.
    pub to_op: u64,
}

/// A per-source wire-delay distribution: every admitted refresh operation
/// is charged `base` plus a deterministic uniform draw in `[0, jitter)`.
/// The draw is a pure function of `(seed, source, op)` under a salt
/// distinct from the failure draws, so latency and failure schedules are
/// independent and both replay bit-identically.
#[derive(Clone, Copy, Debug, Default)]
pub struct DelaySpec {
    /// Fixed delay charged to every admitted operation.
    pub base: Duration,
    /// Upper bound (exclusive) of the uniform jitter added on top.
    pub jitter: Duration,
}

impl DelaySpec {
    /// A constant delay with no jitter.
    pub fn fixed(base: Duration) -> DelaySpec {
        DelaySpec {
            base,
            jitter: Duration::ZERO,
        }
    }

    /// The deterministic delay for operation `op` against `source`.
    pub fn sample(&self, seed: u64, source: SourceId, op: u64) -> Duration {
        if self.jitter.is_zero() {
            return self.base;
        }
        let u = draw(seed ^ DELAY_SALT, source, op);
        self.base + Duration::from_nanos((self.jitter.as_nanos() as f64 * u) as u64)
    }
}

/// Salt xor-ed into the seed for delay draws so they are decorrelated
/// from the failure draws at the same `(source, op)`.
const DELAY_SALT: u64 = 0x9D5C_0FF0_DE1A_F00D;

/// Seeded fault schedule for a [`ChaosTransport`].
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Seed for the deterministic per-operation failure and delay draws.
    pub seed: u64,
    /// Failure probability applied to every source without an override.
    pub default_fail_p: f64,
    /// Per-source failure probability overrides.
    pub fail_p: Vec<(SourceId, f64)>,
    /// Extra wire latency charged to every refresh request that is *not*
    /// failed. `Duration::ZERO` for none. The delay is charged to the
    /// *completion*, not the submitter, so submitters overlap the injected
    /// latency exactly as they would real wire delay.
    pub added_latency: Duration,
    /// Delay distribution applied to every source without an override, on
    /// top of [`ChaosConfig::added_latency`]. `None` for no seeded delay.
    pub default_delay: Option<DelaySpec>,
    /// Per-source delay distribution overrides (slow-source chaos).
    pub delay: Vec<(SourceId, DelaySpec)>,
    /// Scripted outage windows, checked against the global op counter.
    pub outages: Vec<OutageWindow>,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            default_fail_p: 0.0,
            fail_p: Vec::new(),
            added_latency: Duration::ZERO,
            default_delay: None,
            delay: Vec::new(),
            outages: Vec::new(),
        }
    }
}

impl ChaosConfig {
    /// The failure probability in effect for `source`.
    pub fn fail_p_for(&self, source: SourceId) -> f64 {
        self.fail_p
            .iter()
            .find(|(s, _)| *s == source)
            .map(|&(_, p)| p)
            .unwrap_or(self.default_fail_p)
    }

    /// The delay distribution in effect for `source`, if any.
    pub fn delay_for(&self, source: SourceId) -> Option<DelaySpec> {
        self.delay
            .iter()
            .find(|(s, _)| *s == source)
            .map(|&(_, d)| d)
            .or(self.default_delay)
    }
}

/// Shared runtime handle over one chaos schedule: op/failure counters
/// plus a manual kill switch for scripting wall-clock outages from a
/// driver. Clone the `Arc` freely; all wrapped transports sharing it
/// advance one global op counter.
#[derive(Default)]
pub struct ChaosControl {
    ops: AtomicU64,
    injected: AtomicU64,
    delayed: AtomicU64,
    forced_down: Mutex<HashSet<SourceId>>,
}

impl ChaosControl {
    /// A fresh control with zeroed counters and nothing forced down.
    pub fn new() -> ChaosControl {
        ChaosControl::default()
    }

    /// Refresh operations that have passed through the chaos layer.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// How many of those operations were failed by injection.
    pub fn injected_failures(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// How many admitted operations were charged a nonzero wire delay.
    pub fn injected_delays(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
    }

    /// Forces `source` down: every refresh request fails with
    /// [`TrappError::SourceUnavailable`] until [`ChaosControl::restore`].
    pub fn force_down(&self, source: SourceId) {
        self.forced_down.lock().insert(source);
    }

    /// Lifts a manual [`ChaosControl::force_down`].
    pub fn restore(&self, source: SourceId) {
        self.forced_down.lock().remove(&source);
    }

    /// Whether `source` is currently manually forced down.
    pub fn is_forced_down(&self, source: SourceId) -> bool {
        self.forced_down.lock().contains(&source)
    }
}

/// SplitMix64 — the standard 64-bit finalizer; good enough to turn
/// `(seed, source, op)` into an i.i.d.-looking uniform draw with no
/// external RNG dependency. Public so other layers (e.g. retry backoff
/// jitter) can derive deterministic pseudo-random values from a counter
/// without pulling in an RNG.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from `(seed, source, op)`.
fn draw(seed: u64, source: SourceId, op: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(source.raw().wrapping_mul(0xA24B_AED4_963E_E407)) ^ op);
    // 53 significand bits, same construction as rand's `f64` conversion.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic, seed-driven fault-injecting wrapper over any
/// [`Transport`]. See the module docs for the fault model.
pub struct ChaosTransport<T> {
    inner: T,
    cfg: ChaosConfig,
    control: Arc<ChaosControl>,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner` under `cfg`, sharing `control` with the driver (and
    /// with sibling transports — e.g. one per shard — that must advance
    /// the same op counter).
    pub fn new(inner: T, cfg: ChaosConfig, control: Arc<ChaosControl>) -> ChaosTransport<T> {
        ChaosTransport {
            inner,
            cfg,
            control,
        }
    }

    /// The shared control handle.
    pub fn control(&self) -> Arc<ChaosControl> {
        self.control.clone()
    }

    /// One refresh send: advances the global op counter and decides
    /// whether this operation is failed by the schedule. On admission,
    /// returns the wire delay the schedule charges this operation
    /// (`Duration::ZERO` for none), which the caller applies to the
    /// completion.
    fn admit(&self, source: SourceId) -> Result<Duration, TrappError> {
        let op = self.control.ops.fetch_add(1, Ordering::Relaxed);
        if self.control.is_forced_down(source) {
            self.control.injected.fetch_add(1, Ordering::Relaxed);
            return Err(TrappError::SourceUnavailable(source));
        }
        for w in &self.cfg.outages {
            let matches = w.source.is_none_or(|s| s == source);
            if matches && (w.from_op..w.to_op).contains(&op) {
                self.control.injected.fetch_add(1, Ordering::Relaxed);
                return Err(TrappError::SourceUnavailable(source));
            }
        }
        let p = self.cfg.fail_p_for(source);
        if p > 0.0 && draw(self.cfg.seed, source, op) < p {
            self.control.injected.fetch_add(1, Ordering::Relaxed);
            return Err(TrappError::RefreshFailed(format!(
                "injected fault for {source} at op {op}"
            )));
        }
        let mut lat = self.cfg.added_latency;
        if let Some(spec) = self.cfg.delay_for(source) {
            lat += spec.sample(self.cfg.seed, source, op);
        }
        if !lat.is_zero() {
            self.control.delayed.fetch_add(1, Ordering::Relaxed);
        }
        Ok(lat)
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn submit_refresh_batch(
        &self,
        source: SourceId,
        cache: CacheId,
        objects: Vec<ObjectId>,
        now: f64,
    ) -> Completion<Vec<Refresh>> {
        if objects.is_empty() {
            return Completion::ready(Ok(Vec::new()));
        }
        let lat = match self.admit(source) {
            Ok(lat) => lat,
            Err(e) => return Completion::ready(Err(e)),
        };
        let c = self.inner.submit_refresh_batch(source, cache, objects, now);
        if lat.is_zero() {
            c
        } else {
            Completion::delayed_until(std::time::Instant::now() + lat, c)
        }
    }

    fn submit_update_batch(
        &self,
        source: SourceId,
        updates: Vec<(ObjectId, f64)>,
        now: f64,
    ) -> Completion<Vec<(CacheId, Refresh)>> {
        self.inner.submit_update_batch(source, updates, now)
    }

    fn messages(&self) -> u64 {
        self.inner.messages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Source;
    use crate::transport::DirectTransport;
    use trapp_bounds::BoundShape;

    fn transport_with_source(id: u64) -> DirectTransport {
        let mut t = DirectTransport::new();
        let mut s = Source::new(SourceId::new(id), BoundShape::Sqrt);
        s.register_object(ObjectId::new(1), 10.0).unwrap();
        s.subscribe(CacheId::new(1), ObjectId::new(1), 1.0, 0.0)
            .unwrap();
        t.add_source(s);
        t
    }

    /// One blocking refresh of object 1 at source 1.
    fn pull(t: &impl Transport, now: f64) -> Result<Vec<Refresh>, TrappError> {
        t.submit_refresh_batch(
            SourceId::new(1),
            CacheId::new(1),
            vec![ObjectId::new(1)],
            now,
        )
        .wait()
    }

    fn run_schedule(seed: u64, p: f64, ops: usize) -> Vec<bool> {
        let chaos = ChaosTransport::new(
            transport_with_source(1),
            ChaosConfig {
                seed,
                default_fail_p: p,
                ..ChaosConfig::default()
            },
            Arc::new(ChaosControl::new()),
        );
        (0..ops).map(|_| pull(&chaos, 1.0).is_ok()).collect()
    }

    #[test]
    fn seeded_schedules_replay_bit_identically() {
        let a = run_schedule(42, 0.3, 200);
        let b = run_schedule(42, 0.3, 200);
        assert_eq!(a, b, "same seed must replay the same failures");
        let c = run_schedule(43, 0.3, 200);
        assert_ne!(a, c, "different seed must produce a different schedule");
        let fails = a.iter().filter(|ok| !**ok).count();
        assert!(
            (20..=100).contains(&fails),
            "p=0.3 over 200 ops should fail roughly 60 times, got {fails}"
        );
    }

    #[test]
    fn outage_window_is_exact_in_op_counts() {
        let chaos = ChaosTransport::new(
            transport_with_source(1),
            ChaosConfig {
                outages: vec![OutageWindow {
                    source: Some(SourceId::new(1)),
                    from_op: 3,
                    to_op: 6,
                }],
                ..ChaosConfig::default()
            },
            Arc::new(ChaosControl::new()),
        );
        let results: Vec<bool> = (0..10).map(|_| pull(&chaos, 1.0).is_ok()).collect();
        assert_eq!(
            results,
            vec![true, true, true, false, false, false, true, true, true, true]
        );
        // Outage failures carry the typed unavailable error.
        assert_eq!(chaos.control().injected_failures(), 3);
    }

    #[test]
    fn manual_force_down_and_restore() {
        let control = Arc::new(ChaosControl::new());
        let chaos = ChaosTransport::new(
            transport_with_source(1),
            ChaosConfig::default(),
            control.clone(),
        );
        let src = SourceId::new(1);
        assert!(pull(&chaos, 1.0).is_ok());
        control.force_down(src);
        let err = pull(&chaos, 2.0).unwrap_err();
        assert_eq!(err, TrappError::SourceUnavailable(src));
        control.restore(src);
        assert!(pull(&chaos, 3.0).is_ok());
    }

    #[test]
    fn update_plane_is_never_failed() {
        let control = Arc::new(ChaosControl::new());
        let chaos = ChaosTransport::new(
            transport_with_source(1),
            ChaosConfig {
                default_fail_p: 1.0,
                ..ChaosConfig::default()
            },
            control.clone(),
        );
        let src = SourceId::new(1);
        control.force_down(src);
        // Refresh pulls all fail...
        assert!(pull(&chaos, 1.0).is_err());
        // ...but masters keep moving and pushes keep flowing.
        let refreshes = chaos
            .submit_update_batch(src, vec![(ObjectId::new(1), 99.0)], 2.0)
            .wait()
            .unwrap();
        assert_eq!(refreshes.len(), 1);
    }

    #[test]
    fn delay_schedule_is_deterministic_and_per_source() {
        let spec = DelaySpec {
            base: Duration::from_micros(100),
            jitter: Duration::from_micros(900),
        };
        let slow = SourceId::new(2);
        let fast = SourceId::new(1);
        let a: Vec<Duration> = (0..64).map(|op| spec.sample(7, slow, op)).collect();
        let b: Vec<Duration> = (0..64).map(|op| spec.sample(7, slow, op)).collect();
        assert_eq!(a, b, "same (seed, source, op) must draw the same delay");
        let c: Vec<Duration> = (0..64).map(|op| spec.sample(8, slow, op)).collect();
        assert_ne!(a, c, "different seed must draw a different schedule");
        let d: Vec<Duration> = (0..64).map(|op| spec.sample(7, fast, op)).collect();
        assert_ne!(a, d, "different source must draw a different schedule");
        for lat in &a {
            assert!(*lat >= spec.base && *lat < spec.base + spec.jitter);
        }
        // Delay draws are decorrelated from failure draws: a source with
        // fail_p = 0.5 and a delay spec fails some ops and delays others
        // independently.
        assert_ne!(
            draw(7, slow, 0),
            draw(7 ^ DELAY_SALT, slow, 0),
            "delay salt must decorrelate the two schedules"
        );
    }

    #[test]
    fn submit_paths_delay_the_completion_not_the_submitter() {
        let chaos = ChaosTransport::new(
            transport_with_source(1),
            ChaosConfig {
                default_delay: Some(DelaySpec::fixed(Duration::from_millis(30))),
                ..ChaosConfig::default()
            },
            Arc::new(ChaosControl::new()),
        );
        let started = std::time::Instant::now();
        let c = chaos.submit_refresh_batch(
            SourceId::new(1),
            CacheId::new(1),
            vec![ObjectId::new(1)],
            1.0,
        );
        assert!(
            started.elapsed() < Duration::from_millis(25),
            "submit must not block on the injected delay"
        );
        // The reply is in flight until the delay elapses...
        let c = match c.wait_timeout(Duration::from_millis(2)) {
            Err(c) => c,
            Ok(_) => panic!("completion resolved before the injected delay"),
        };
        // ...then lands intact (chaos never serves-then-drops).
        assert!(c.wait().is_ok());
        assert_eq!(chaos.control().injected_delays(), 1);
        // The update plane is exempt from delay injection.
        let started = std::time::Instant::now();
        chaos
            .submit_update_batch(SourceId::new(1), vec![(ObjectId::new(1), 42.0)], 2.0)
            .wait()
            .unwrap();
        assert!(started.elapsed() < Duration::from_millis(25));
        assert_eq!(chaos.control().injected_delays(), 1);
    }
}
