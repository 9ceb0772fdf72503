//! Transports: how query-initiated refresh requests reach sources.
//!
//! * [`DirectTransport`] — synchronous function calls into shared sources;
//!   fully deterministic, zero overhead, completions resolve inline at
//!   submit; the default for tests and reproducible experiments.
//! * [`CompletionTransport`] — a small shared [`FetchPool`] of demux
//!   threads multiplexes *all* source actors, and requests resolve through
//!   [`Completion`] handles when the source (and its simulated wire
//!   latency) is done. Thousands of sources, `O(pool)` threads; per-source
//!   FIFO ordering keeps [`Refresh::seq`] stamping in submission order.
//!
//! The [`Transport`] trait is one fetch primitive and one write primitive,
//! both per-source batches returning a [`Completion`]: callers submit all
//! their per-source requests first, then wait on the completions, so
//! independent round-trips overlap instead of serializing. Blocking is
//! `.wait()`; a single object is a one-element batch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use trapp_types::{CacheId, ObjectId, SourceId, TrappError};

use crate::fetch_pool::{ActorHandle, FetchPool};
use crate::message::Refresh;
use crate::source::Source;

/// A pending transport reply: the nonblocking submit API returns one of
/// these, and the result arrives when the source (or its simulated
/// network) finishes. [`Completion::wait`] blocks until then.
pub struct Completion<T> {
    inner: CompletionInner<T>,
}

enum CompletionInner<T> {
    /// Resolved at submit time (blocking transports, early errors) — no
    /// channel allocated.
    Ready(Result<T, TrappError>),
    /// In flight; the transport resolves it through a channel.
    Pending(Receiver<Result<T, TrappError>>),
    /// A completion that must not be observable before `ready_at` — how
    /// chaos latency injection simulates wire delay on the *reply* path
    /// without blocking the submitter. The wrapped completion may itself
    /// be ready or pending; waiters see it only once the delay elapses.
    Delayed {
        ready_at: Instant,
        inner: Box<Completion<T>>,
    },
}

impl<T> Completion<T> {
    /// A completion that already holds its result — how blocking
    /// transports satisfy the nonblocking API.
    pub fn ready(result: Result<T, TrappError>) -> Completion<T> {
        Completion {
            inner: CompletionInner::Ready(result),
        }
    }

    /// An unresolved completion plus the sender that resolves it.
    pub fn pending() -> (CompletionSender<T>, Completion<T>) {
        let (tx, rx) = unbounded();
        (
            CompletionSender { tx },
            Completion {
                inner: CompletionInner::Pending(rx),
            },
        )
    }

    /// Wraps `inner` so its result only becomes observable at `ready_at`:
    /// until then [`Completion::poll`] reports in-flight and
    /// [`Completion::wait_timeout`] can expire, exactly as if the reply
    /// were still on the wire. Used by chaos latency injection to make
    /// deadline/straggler paths reachable even on blocking transports
    /// (whose completions otherwise resolve inline at submit).
    pub fn delayed_until(ready_at: Instant, inner: Completion<T>) -> Completion<T> {
        Completion {
            inner: CompletionInner::Delayed {
                ready_at,
                inner: Box::new(inner),
            },
        }
    }

    /// Blocks until the result is delivered. A transport torn down before
    /// resolving the request surfaces as [`TrappError::RefreshFailed`].
    pub fn wait(self) -> Result<T, TrappError> {
        match self.inner {
            CompletionInner::Ready(result) => result,
            CompletionInner::Pending(rx) => rx.recv().map_err(|_| {
                TrappError::RefreshFailed("transport dropped the completion".into())
            })?,
            CompletionInner::Delayed { ready_at, inner } => {
                let now = Instant::now();
                if ready_at > now {
                    std::thread::sleep(ready_at - now);
                }
                inner.wait()
            }
        }
    }

    /// Blocks for at most `timeout`. `Ok(result)` when the completion
    /// resolved (or the transport dropped it — surfaced as
    /// [`TrappError::RefreshFailed`], same as [`Completion::wait`]);
    /// `Err(self)` when the deadline expired with the request still in
    /// flight, handing the completion back so the caller can park it and
    /// still install the refresh if it lands later.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<T, TrappError>, Completion<T>> {
        match self.inner {
            CompletionInner::Ready(result) => Ok(result),
            CompletionInner::Pending(rx) => match rx.recv_timeout(timeout) {
                Ok(result) => Ok(result),
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Ok(Err(
                    TrappError::RefreshFailed("transport dropped the completion".into()),
                )),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => Err(Completion {
                    inner: CompletionInner::Pending(rx),
                }),
            },
            CompletionInner::Delayed { ready_at, inner } => {
                let now = Instant::now();
                let remaining = ready_at.saturating_duration_since(now);
                if remaining >= timeout {
                    // The delay outlasts the caller's patience: burn the
                    // whole timeout and hand the still-delayed completion
                    // back for parking.
                    std::thread::sleep(timeout);
                    return Err(Completion {
                        inner: CompletionInner::Delayed { ready_at, inner },
                    });
                }
                std::thread::sleep(remaining);
                inner.wait_timeout(timeout - remaining)
            }
        }
    }

    /// Nonblocking probe: `Ok(result)` if the completion has resolved
    /// (or was dropped), `Err(self)` if it is still in flight.
    pub fn poll(self) -> Result<Result<T, TrappError>, Completion<T>> {
        match self.inner {
            CompletionInner::Ready(result) => Ok(result),
            CompletionInner::Pending(rx) => match rx.try_recv() {
                Ok(result) => Ok(result),
                Err(crossbeam::channel::TryRecvError::Disconnected) => Ok(Err(
                    TrappError::RefreshFailed("transport dropped the completion".into()),
                )),
                Err(crossbeam::channel::TryRecvError::Empty) => Err(Completion {
                    inner: CompletionInner::Pending(rx),
                }),
            },
            CompletionInner::Delayed { ready_at, inner } => {
                if Instant::now() < ready_at {
                    return Err(Completion {
                        inner: CompletionInner::Delayed { ready_at, inner },
                    });
                }
                inner.poll()
            }
        }
    }
}

/// Resolves a [`Completion`]. Dropping it unresolved makes the paired
/// [`Completion::wait`] report a refresh failure.
pub struct CompletionSender<T> {
    tx: Sender<Result<T, TrappError>>,
}

impl<T> CompletionSender<T> {
    /// Delivers the result to the waiting side.
    pub fn complete(self, result: Result<T, TrappError>) {
        let _ = self.tx.send(result);
    }
}

/// A refresh-request pathway from caches to sources.
///
/// # Message accounting
///
/// [`Transport::messages`] counts *round-trips*, identically on every
/// implementation: each non-empty [`Transport::submit_refresh_batch`] is
/// one round-trip, counted at submit time, regardless of how many objects
/// it covers (an empty batch is ready, free and uncounted). Updates pushed
/// via [`Transport::submit_update_batch`] are not refresh round-trips and
/// are never counted.
pub trait Transport: Send + Sync {
    /// Submits one query-initiated refresh round-trip: all `objects`
    /// (owned by `source`) are refreshed in a single message exchange. The
    /// completion resolves to one [`Refresh`] per object, in request
    /// order. Submitting several sources' batches before waiting overlaps
    /// their round-trips.
    fn submit_refresh_batch(
        &self,
        source: SourceId,
        cache: CacheId,
        objects: Vec<ObjectId>,
        now: f64,
    ) -> Completion<Vec<Refresh>>;

    /// Submits master-value writes to objects owned by `source`: the
    /// `updates` are applied in submission order with one completion for
    /// the whole batch, which resolves to the concatenated value-initiated
    /// refreshes (one per cache whose bound a new value escapes). On the
    /// first failing update the batch stops and the completion reports the
    /// error; updates already applied keep their effects.
    fn submit_update_batch(
        &self,
        source: SourceId,
        updates: Vec<(ObjectId, f64)>,
        now: f64,
    ) -> Completion<Vec<(CacheId, Refresh)>>;

    /// Number of refresh round-trips served so far.
    fn messages(&self) -> u64;
}

impl<T: Transport + ?Sized> Transport for Box<T> {
    fn submit_refresh_batch(
        &self,
        source: SourceId,
        cache: CacheId,
        objects: Vec<ObjectId>,
        now: f64,
    ) -> Completion<Vec<Refresh>> {
        (**self).submit_refresh_batch(source, cache, objects, now)
    }

    fn submit_update_batch(
        &self,
        source: SourceId,
        updates: Vec<(ObjectId, f64)>,
        now: f64,
    ) -> Completion<Vec<(CacheId, Refresh)>> {
        (**self).submit_update_batch(source, updates, now)
    }

    fn messages(&self) -> u64 {
        (**self).messages()
    }
}

/// Synchronous, deterministic transport over shared sources.
#[derive(Clone, Default)]
pub struct DirectTransport {
    sources: HashMap<SourceId, Arc<Mutex<Source>>>,
    messages: Arc<AtomicU64>,
}

impl DirectTransport {
    /// An empty transport.
    pub fn new() -> DirectTransport {
        DirectTransport::default()
    }

    /// Registers a source, returning the shared handle for driver-side
    /// updates.
    pub fn add_source(&mut self, source: Source) -> Arc<Mutex<Source>> {
        let id = source.id();
        let arc = Arc::new(Mutex::new(source));
        self.sources.insert(id, arc.clone());
        arc
    }

    /// The shared handle for `id`.
    pub fn source(&self, id: SourceId) -> Option<Arc<Mutex<Source>>> {
        self.sources.get(&id).cloned()
    }

    fn lookup(&self, source: SourceId) -> Result<&Arc<Mutex<Source>>, TrappError> {
        self.sources
            .get(&source)
            .ok_or_else(|| TrappError::RefreshFailed(format!("unknown source {source}")))
    }
}

impl Transport for DirectTransport {
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
        Completion::ready(self.lookup(source).and_then(|src| {
            self.messages.fetch_add(1, Ordering::Relaxed);
            src.lock().serve_refresh_batch(cache, &objects, now)
        }))
    }

    fn submit_update_batch(
        &self,
        source: SourceId,
        updates: Vec<(ObjectId, f64)>,
        now: f64,
    ) -> Completion<Vec<(CacheId, Refresh)>> {
        if updates.is_empty() {
            return Completion::ready(Ok(Vec::new()));
        }
        Completion::ready(
            self.lookup(source)
                .and_then(|src| apply_update_batch(&mut src.lock(), updates, now)),
        )
    }

    fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }
}

/// Applies a whole update batch against one source's state, in order,
/// stopping at the first failure — the shared actor-side half of
/// [`Transport::submit_update_batch`].
fn apply_update_batch(
    source: &mut Source,
    updates: Vec<(ObjectId, f64)>,
    now: f64,
) -> Result<Vec<(CacheId, Refresh)>, TrappError> {
    let mut out = Vec::new();
    for (object, value) in updates {
        out.extend(source.apply_update(object, value, now)?);
    }
    Ok(out)
}

/// One source multiplexed on the shared pool: its state plus its FIFO
/// submission handle.
struct CompletionActor {
    source: Arc<Mutex<Source>>,
    handle: ActorHandle,
}

/// Completion-based transport: every source is an actor on a shared
/// [`FetchPool`], requests are submitted nonblockingly and resolve through
/// [`Completion`]s. Total threads are `O(pool)` regardless of how many
/// sources (or how many transports share the pool) exist.
///
/// * **Per-source FIFO** — requests to one source are served in
///   submission order, so [`Refresh::seq`] stamping (and hence install
///   ordering) follows submission order.
/// * **Latency costs no threads** — simulated one-way latency is a timer
///   deadline, not a sleeping thread: a request spends `latency` "on the
///   wire", then enters its source's queue. A thousand concurrent
///   in-flight requests occupy zero pool threads while in transit.
/// * **Updates may overtake in-flight refreshes** — an update batch is
///   driver-side and enters the source queue immediately, ahead of
///   refreshes still in transit. Real networks reorder this way too; the
///   refresh sequencing invariants ([`Refresh::seq`] ordering, the
///   gateway's epoch guard) make the interleaving safe.
pub struct CompletionTransport {
    actors: HashMap<SourceId, CompletionActor>,
    latency: Duration,
    pool: FetchPool,
    messages: Arc<AtomicU64>,
}

impl CompletionTransport {
    /// Creates a transport over an existing (possibly shared) pool, with
    /// the given simulated one-way latency per refresh request.
    pub fn new(latency: Duration, pool: FetchPool) -> CompletionTransport {
        CompletionTransport {
            actors: HashMap::new(),
            latency,
            pool,
            messages: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Convenience: a transport over its own private pool of `threads`
    /// demux workers.
    pub fn with_pool_size(latency: Duration, threads: usize) -> CompletionTransport {
        CompletionTransport::new(latency, FetchPool::new(threads))
    }

    /// The pool this transport submits to.
    pub fn pool(&self) -> &FetchPool {
        &self.pool
    }

    /// Registers a source as a pool actor, returning the shared handle for
    /// driver-side inspection (like [`DirectTransport::add_source`]).
    pub fn add_source(&mut self, source: Source) -> Arc<Mutex<Source>> {
        let id = source.id();
        let arc = Arc::new(Mutex::new(source));
        self.actors.insert(
            id,
            CompletionActor {
                source: arc.clone(),
                handle: self.pool.register(),
            },
        );
        arc
    }

    fn actor(&self, source: SourceId) -> Result<&CompletionActor, TrappError> {
        self.actors
            .get(&source)
            .ok_or_else(|| TrappError::RefreshFailed(format!("unknown source {source}")))
    }

    /// Submits a job against one source's state, after the simulated wire
    /// latency when `delayed`.
    fn dispatch(
        &self,
        actor: &CompletionActor,
        delayed: bool,
        job: impl FnOnce(&mut Source) + Send + 'static,
    ) {
        let source = actor.source.clone();
        let run = move || job(&mut source.lock());
        if delayed && !self.latency.is_zero() {
            actor.handle.submit_after(self.latency, run);
        } else {
            actor.handle.submit(run);
        }
    }
}

impl Transport for CompletionTransport {
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
        let actor = match self.actor(source) {
            Ok(actor) => actor,
            Err(e) => return Completion::ready(Err(e)),
        };
        self.messages.fetch_add(1, Ordering::Relaxed);
        let (reply, completion) = Completion::pending();
        self.dispatch(actor, true, move |s| {
            reply.complete(s.serve_refresh_batch(cache, &objects, now));
        });
        completion
    }

    fn submit_update_batch(
        &self,
        source: SourceId,
        updates: Vec<(ObjectId, f64)>,
        now: f64,
    ) -> Completion<Vec<(CacheId, Refresh)>> {
        if updates.is_empty() {
            return Completion::ready(Ok(Vec::new()));
        }
        let actor = match self.actor(source) {
            Ok(actor) => actor,
            Err(e) => return Completion::ready(Err(e)),
        };
        let (reply, completion) = Completion::pending();
        self.dispatch(actor, false, move |s| {
            reply.complete(apply_update_batch(s, updates, now));
        });
        completion
    }

    fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, ChaosControl, ChaosTransport};
    use crate::message::RefreshKind;
    use std::time::Instant;
    use trapp_bounds::BoundShape;

    const CACHE: CacheId = CacheId::new(1);

    /// A source holding objects 1 (value 10) and 2 (value 20), both
    /// subscribed by [`CACHE`] with narrow bounds (seq stamps 0 and 0).
    fn subscribed_source(id: u64) -> Source {
        let mut s = Source::new(SourceId::new(id), BoundShape::Sqrt);
        for (object, value) in [(1, 10.0), (2, 20.0)] {
            s.register_object(ObjectId::new(object), value).unwrap();
            s.subscribe(CACHE, ObjectId::new(object), 1.0, 0.0).unwrap();
        }
        s
    }

    fn fetch<T: Transport>(
        t: &T,
        source: u64,
        objects: &[u64],
        now: f64,
    ) -> Completion<Vec<Refresh>> {
        let objects = objects.iter().map(|&o| ObjectId::new(o)).collect();
        t.submit_refresh_batch(SourceId::new(source), CACHE, objects, now)
    }

    /// One-element batches for object 1 submitted round-robin across
    /// `sources`, all in flight before any is awaited, must come back
    /// stamped in submission order per source (the subscription took seq
    /// 0): every request served exactly once, in order.
    fn assert_fifo_under_contention<T: Transport>(
        t: &T,
        sources: std::ops::RangeInclusive<u64>,
        rounds: u64,
    ) {
        let inflight: Vec<(u64, Completion<Vec<Refresh>>)> = (0..rounds)
            .flat_map(|round| sources.clone().map(move |source| (source, round)))
            .map(|(source, round)| (source, fetch(t, source, &[1], 2.0 + round as f64)))
            .collect();
        let mut seqs: HashMap<u64, Vec<u64>> = HashMap::new();
        for (source, completion) in inflight {
            let rs = completion.wait().expect("served");
            seqs.entry(source).or_default().push(rs[0].seq);
        }
        for source in sources {
            let expected: Vec<u64> = (1..=rounds).collect();
            assert_eq!(
                seqs[&source], expected,
                "source {source} served out of order"
            );
        }
    }

    /// The contract every [`Transport`] shares, checked over a transport
    /// holding [`subscribed_source`]s 1..=4.
    fn conforms<T: Transport>(t: &T) {
        // Empty batches are ready at submit, free and uncounted — even for
        // a source the transport has never heard of.
        assert!(matches!(fetch(t, 1, &[], 1.0).poll(), Ok(Ok(rs)) if rs.is_empty()));
        assert!(matches!(fetch(t, 9, &[], 1.0).poll(), Ok(Ok(rs)) if rs.is_empty()));
        let none = t.submit_update_batch(SourceId::new(1), Vec::new(), 1.0);
        assert!(matches!(none.poll(), Ok(Ok(rs)) if rs.is_empty()));
        assert_eq!(t.messages(), 0);

        // A non-empty batch is one message however many objects it
        // covers, and replies come back in request order.
        let rs = fetch(t, 1, &[2, 1], 1.0).wait().unwrap();
        let got: Vec<(u64, f64)> = rs.iter().map(|r| (r.object.raw(), r.value)).collect();
        assert_eq!(got, vec![(2, 20.0), (1, 10.0)]);
        assert!(rs.iter().all(|r| r.kind == RefreshKind::QueryInitiated));
        assert_eq!(t.messages(), 1);

        // An unknown source resolves to an error — never a hang — and is
        // not a round-trip.
        assert!(fetch(t, 9, &[1], 1.0).wait().is_err());
        let unknown = t.submit_update_batch(SourceId::new(9), vec![(ObjectId::new(1), 1.0)], 1.0);
        assert!(unknown.wait().is_err());
        assert_eq!(t.messages(), 1);

        // `Refresh::seq` is FIFO per source under contention.
        const ROUNDS: u64 = 8;
        assert_fifo_under_contention(t, 2..=4, ROUNDS);
        assert_eq!(t.messages(), 1 + 3 * ROUNDS);

        // Update batches apply in order (narrow √t bounds: every jump
        // escapes, so the value-initiated seq stamps come back
        // consecutive) and are not refresh round-trips.
        let jumps = [500.0, -500.0, 123.0];
        let updates = jumps.iter().map(|&v| (ObjectId::new(1), v)).collect();
        let pushed = t
            .submit_update_batch(SourceId::new(1), updates, 3.0)
            .wait()
            .unwrap();
        assert!(pushed
            .iter()
            .all(|(c, r)| *c == CACHE && r.kind == RefreshKind::ValueInitiated));
        let stamps: Vec<u64> = pushed.iter().map(|(_, r)| r.seq).collect();
        assert_eq!(stamps.len(), 3);
        assert!(stamps.windows(2).all(|w| w[1] == w[0] + 1), "{stamps:?}");
        assert_eq!(fetch(t, 1, &[1], 4.0).wait().unwrap()[0].value, 123.0);

        // A batch stops at its first failure; earlier writes keep their
        // effects and later ones never land.
        let updates = vec![
            (ObjectId::new(2), 77.0),
            (ObjectId::new(99), 1.0), // unknown object
            (ObjectId::new(2), 88.0),
        ];
        assert!(t
            .submit_update_batch(SourceId::new(1), updates, 5.0)
            .wait()
            .is_err());
        assert_eq!(fetch(t, 1, &[2], 6.0).wait().unwrap()[0].value, 77.0);
        assert_eq!(t.messages(), 1 + 3 * ROUNDS + 2);
    }

    fn direct() -> DirectTransport {
        let mut t = DirectTransport::new();
        for id in 1..=4 {
            t.add_source(subscribed_source(id));
        }
        t
    }

    #[test]
    fn transports_conform() {
        conforms(&direct());

        // Pool ≪ sources, with wire latency, so requests really overlap.
        let mut completion = CompletionTransport::with_pool_size(Duration::from_micros(500), 2);
        for id in 1..=4 {
            completion.add_source(subscribed_source(id));
        }
        conforms(&completion);

        // Chaos with an empty schedule is a transparent wrapper.
        let control = Arc::new(ChaosControl::new());
        conforms(&ChaosTransport::new(
            direct(),
            ChaosConfig::default(),
            control,
        ));
    }

    #[test]
    fn direct_round_trip() {
        let mut t = DirectTransport::new();
        let src = t.add_source(subscribed_source(1));
        // Direct completions resolve inline at submit.
        let rs = match fetch(&t, 1, &[1], 1.0).poll() {
            Ok(rs) => rs.unwrap(),
            Err(_) => panic!("direct transport left a completion pending"),
        };
        assert_eq!(rs[0].value, 10.0);
        assert_eq!(t.messages(), 1);
        // The shared handle sees the serve.
        assert_eq!(src.lock().stats().query_initiated, 1);
        assert!(t.source(SourceId::new(1)).is_some());
        assert!(t.source(SourceId::new(9)).is_none());
    }

    #[test]
    fn completion_round_trip_and_updates() {
        let mut t = CompletionTransport::with_pool_size(Duration::ZERO, 2);
        let src = t.add_source(subscribed_source(1));

        let rs = fetch(&t, 1, &[1], 1.0).wait().unwrap();
        assert_eq!(rs[0].value, 10.0);
        assert_eq!(rs[0].kind, RefreshKind::QueryInitiated);

        // Update that escapes the (narrow) bound → value-initiated push.
        let refreshes = t
            .submit_update_batch(SourceId::new(1), vec![(ObjectId::new(1), 99.0)], 2.0)
            .wait()
            .unwrap();
        assert_eq!(refreshes.len(), 1);
        assert_eq!(refreshes[0].1.kind, RefreshKind::ValueInitiated);
        assert_eq!(t.messages(), 1); // updates are not refresh round-trips
        assert_eq!(fetch(&t, 1, &[1], 3.0).wait().unwrap()[0].value, 99.0);
        // The shared handle is the actor's own state.
        assert_eq!(src.lock().stats().updates, 1);
    }

    /// Submitted batches to distinct sources spend their latency on the
    /// timer concurrently: 4 × 50 ms of simulated wire time must resolve
    /// in well under the 200 ms a serialized transport would need, with
    /// only 2 pool threads. (The upper bound leaves 100 ms of scheduler
    /// slack so a loaded CI machine cannot trip it spuriously.)
    #[test]
    fn completion_submits_overlap_latency() {
        let latency = Duration::from_millis(50);
        let mut t = CompletionTransport::with_pool_size(latency, 2);
        for id in 1..=4u64 {
            t.add_source(subscribed_source(id));
        }
        let started = Instant::now();
        let completions: Vec<_> = (1..=4u64).map(|id| fetch(&t, id, &[1], 1.0)).collect();
        for c in completions {
            assert_eq!(c.wait().unwrap().len(), 1);
        }
        let elapsed = started.elapsed();
        assert!(elapsed >= latency, "latency must apply: {elapsed:?}");
        assert!(
            elapsed < 3 * latency,
            "round-trips must overlap, not serialize (4 × {latency:?} serial): {elapsed:?}"
        );
        assert_eq!(t.messages(), 4);
    }

    /// Per-source FIFO with sources ≫ pool threads.
    #[test]
    fn completion_preserves_per_source_fifo_under_contention() {
        const SOURCES: u64 = 32;
        const ROUNDS: u64 = 8;
        let mut t = CompletionTransport::with_pool_size(Duration::from_micros(500), 2);
        for id in 1..=SOURCES {
            t.add_source(subscribed_source(id));
        }
        assert_fifo_under_contention(&t, 1..=SOURCES, ROUNDS);
        assert_eq!(t.messages(), SOURCES * ROUNDS);
    }

    #[test]
    fn delayed_completion_hides_result_until_ready() {
        let delay = Duration::from_millis(40);
        let c = Completion::delayed_until(Instant::now() + delay, Completion::<u32>::ready(Ok(7)));
        // Polling before the deadline reports in-flight.
        let c = match c.poll() {
            Err(c) => c,
            Ok(_) => panic!("delayed completion resolved early"),
        };
        // A short wait_timeout expires and hands the completion back,
        // exactly like a pending reply still on the wire.
        let c = match c.wait_timeout(Duration::from_millis(5)) {
            Err(c) => c,
            Ok(_) => panic!("wait_timeout beat the injected delay"),
        };
        // A full wait blocks through the delay and sees the result.
        let started = Instant::now();
        assert_eq!(c.wait().unwrap(), 7);
        assert!(
            started.elapsed() >= Duration::from_millis(10),
            "wait returned before the injected delay elapsed"
        );
    }

    #[test]
    fn delayed_completion_wait_timeout_resolves_past_delay() {
        let c = Completion::delayed_until(
            Instant::now() + Duration::from_millis(5),
            Completion::<u32>::ready(Ok(3)),
        );
        // Timeout longer than the delay: resolves through to the result.
        match c.wait_timeout(Duration::from_millis(500)) {
            Ok(r) => assert_eq!(r.unwrap(), 3),
            Err(_) => panic!("timeout should outlast the delay"),
        }
    }
}
