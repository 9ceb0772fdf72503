//! The refresh gateway: a single-flight in-flight table that coalesces
//! duplicate query-initiated refreshes across concurrent queries.
//!
//! TRAPP refreshes are idempotent *within one logical instant*: a
//! query-initiated refresh at time `T` returns the master value `V(T)` and
//! a bound re-centered at `T`. When concurrent queries' CHOOSE_REFRESH
//! plans overlap on an object at the same instant — the common case under
//! zipfian object popularity — every request after the first is pure
//! duplicate traffic.
//!
//! The gateway keeps an in-flight table keyed by [`ObjectId`]. A fetch
//! first *claims* its objects: objects nobody is fetching are claimed
//! `InFlight` and go to the source (batched per source); objects another
//! query already completed at the same instant are served from the table;
//! objects another query is *currently* fetching are awaited — the claim /
//! publish protocol guarantees the awaited result arrives without the
//! waiter holding any cache lock.
//!
//! Fetches are **submitted, then awaited**: the claim phase submits every
//! per-source batch through the transport's nonblocking
//! [`Transport::submit_refresh_batch`] API before waiting on any
//! completion, so one plan's round-trips to different sources overlap —
//! and a scatter-gathering query can submit *every shard's* slice before
//! waiting on any of them, with no per-round threads (the crate-internal
//! `begin_fetch` / `finish_fetch` halves of [`RefreshGateway::fetch`]).
//! Queries that lose the claim race park on the gateway's condvar and are
//! woken when the owning fetch's completion resolves and publishes.
//!
//! Two staleness defenses compose here. First, an update to an object
//! removes its memoized entry **and** bumps an invalidation epoch; a fetch
//! that claimed before the update refuses to memoize its (possibly
//! pre-update) result, so a stale master value is never replayed to later
//! queries. Second, every [`Refresh`] carries a source-stamped sequence
//! ([`Refresh::seq`]), so even the fetching query's own install is
//! ignored by the cache if a newer bound (e.g. the update's
//! value-initiated refresh) already landed.
//!
//! Coalescing also deliberately skips the duplicate width-narrowing a
//! repeated [`serve_refresh`](trapp_system::Source::serve_refresh) would
//! apply: one instant of query interest is one signal to the Appendix A
//! width controller, not `n` signals.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use trapp_system::message::Refresh;
use trapp_system::{splitmix64, Completion, Transport};
use trapp_types::{CacheId, ObjectId, SourceId, TrappError};

use crate::health::HealthTracker;

/// Default for how long an awaiting fetch waits for the in-flight owner
/// before giving up (a liveness backstop, not a correctness lever).
pub(crate) const DEFAULT_AWAIT_TIMEOUT: Duration = Duration::from_secs(5);

/// Per-round-trip fault-tolerance policy: how long one refresh round-trip
/// may take, and how many times (with jittered exponential backoff) it is
/// retried before the source is reported failed.
///
/// A round-trip that exceeds [`RetryPolicy::fetch_timeout`] is **not**
/// abandoned: its completion is parked as a *straggler* and reaped on a
/// later fetch, because a refresh the source *served* must still install
/// at the cache (the source's Refresh Monitor already narrowed its
/// tracked bound). Sequence-guarded installs make late arrivals safe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Resubmissions after the first attempt (0 disables retry).
    pub max_retries: u32,
    /// Deadline for a single round-trip attempt.
    pub fetch_timeout: Duration,
    /// Backoff before the first retry; doubles per attempt.
    pub initial_backoff: Duration,
    /// Upper bound on the (pre-jitter) backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            fetch_timeout: Duration::from_secs(2),
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (1-based): exponential in
    /// the attempt, capped, then jittered into `[0.5, 1.0)` of the cap by
    /// a deterministic hash of `salt` — deterministic for a fixed salt
    /// sequence, yet decorrelated across concurrent retriers.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let doublings = attempt.saturating_sub(1).min(16);
        let exp = self
            .initial_backoff
            .saturating_mul(1u32 << doublings)
            .min(self.max_backoff);
        let h = splitmix64(salt ^ 0x5EED_BACC_0FF5_EED5);
        let frac = 0.5 + ((h >> 11) as f64 / (1u64 << 53) as f64) * 0.5;
        exp.mul_f64(frac)
    }
}

#[derive(Clone, Copy, Debug)]
enum Slot {
    /// Someone is fetching this object right now.
    InFlight,
    /// Fetched; the memoized refresh is valid for the entry's instant.
    Done(Refresh),
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    cache: CacheId,
    now: f64,
    slot: Slot,
}

/// The in-flight table plus invalidation bookkeeping, under one lock.
#[derive(Default)]
struct TableState {
    entries: HashMap<ObjectId, Entry>,
    /// Invalidation epoch per object: bumped by every update. A fetch that
    /// claimed at an earlier epoch must not memoize its result.
    dirty: HashMap<ObjectId, u64>,
    epoch: u64,
}

/// Per-fetch accounting returned by [`RefreshGateway::fetch`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Round-trips this fetch issued.
    pub round_trips: u64,
    /// Refreshes obtained from the table or another query's in-flight
    /// fetch — work this query did not pay for.
    pub coalesced: u64,
    /// Refreshes this fetch obtained from sources itself.
    pub forwarded: u64,
}

/// What a [`RefreshGateway::fetch`] produced. On partial failure,
/// `refreshes` still holds everything obtained before the failure — those
/// refreshes have already mutated their sources' monitor state, so the
/// caller **must install them** even when `failures` is non-empty, or
/// cache and Refresh Monitor diverge.
pub struct FetchOutcome {
    /// Every refresh obtained (order unspecified; callers install all).
    /// May include late refreshes reaped from an *earlier* fetch's
    /// timed-out round-trip — install them too (installs are seq-guarded).
    pub refreshes: Vec<Refresh>,
    /// Per-fetch accounting.
    pub stats: FetchStats,
    /// Every per-source failure this fetch hit after exhausting retries —
    /// the input to health tracking and degraded-answer planning.
    pub failures: Vec<(SourceId, TrappError)>,
}

/// One submitted per-source round-trip a [`PendingFetch`] still has to
/// wait on. Carries enough context to resubmit the request on retry.
struct PendingReply {
    source: SourceId,
    objects: Vec<ObjectId>,
    completion: Completion<Vec<Refresh>>,
}

/// A round-trip that outlived its deadline: the completion is parked here
/// (with the context needed to publish) and polled on later fetches, so a
/// refresh the source eventually serves still installs at the cache.
struct Straggler {
    cache: CacheId,
    now: f64,
    claim_epoch: u64,
    completion: Completion<Vec<Refresh>>,
}

/// Outcome of awaiting another query's in-flight fetch.
enum AwaitResult {
    /// The owner published the refresh.
    Done(Refresh),
    /// The wait expired with the owner's round-trip still pending.
    TimedOut,
    /// The owner aborted or its entry was invalidated; nobody is fetching
    /// this object anymore.
    Gone,
}

/// The objects a fetch claimed `InFlight` and has not yet published or
/// released. Only the fetch that claimed an object publishes or releases
/// it, so a claim dropped unfinished — a panic between the claim and the
/// publish, in the transport or in the caller — is released here and its
/// waiters woken: they fetch the object themselves instead of waiting out
/// the await timeout on a fetch that will never publish.
struct Claims<'g> {
    table: &'g Mutex<TableState>,
    done: &'g Condvar,
    cache: CacheId,
    now: f64,
    objects: Vec<ObjectId>,
}

impl Claims<'_> {
    /// Releases every claim still held.
    fn release_locked(&mut self, state: &mut TableState) {
        for object in self.objects.drain(..) {
            abort_locked(state, self.cache, self.now, object);
        }
    }
}

impl Drop for Claims<'_> {
    fn drop(&mut self) {
        if self.objects.is_empty() {
            return;
        }
        let table = self.table;
        self.release_locked(&mut table.lock());
        self.done.notify_all();
    }
}

/// A fetch whose requests are on the wire but not yet awaited — the
/// product of [`RefreshGateway::begin_fetch`], consumed by
/// [`RefreshGateway::finish_fetch`] on the same gateway. Dropped
/// unfinished, it releases its claims.
pub(crate) struct PendingFetch<'g> {
    cache: CacheId,
    now: f64,
    claim_epoch: u64,
    /// Refreshes already in hand from the in-flight table.
    out: Vec<Refresh>,
    stats: FetchStats,
    /// Objects this fetch claimed `InFlight`.
    claimed: Claims<'g>,
    /// Submitted requests, in plan order.
    waits: Vec<PendingReply>,
    /// Objects another query is fetching; awaited in the finish phase.
    to_await: Vec<(SourceId, ObjectId)>,
    /// Wall-clock instant the whole fetch must not wait past (a query
    /// `DEADLINE`): waits are capped to the remaining budget, retries stop
    /// once it passes, and expired round-trips park as stragglers exactly
    /// like [`RetryPolicy::fetch_timeout`] expiries. `None` leaves only
    /// the per-round-trip policy in force.
    deadline: Option<Instant>,
}

/// A single-flight refresh coalescing layer over a [`Transport`]. See the
/// module docs.
pub struct RefreshGateway<T> {
    inner: T,
    /// `false` only via [`RefreshGateway::new`]: every fetch then goes to
    /// the source and nothing is memoized.
    enabled: bool,
    table: Mutex<TableState>,
    done: Condvar,
    coalesced: AtomicU64,
    forwarded: AtomicU64,
    /// How long to wait for another query's in-flight fetch.
    await_timeout: Duration,
    /// Per-round-trip deadline/retry policy.
    retry: RetryPolicy,
    /// Per-source circuit breaker fed by final round-trip outcomes.
    health: Arc<HealthTracker>,
    /// Monotonic salt for deterministic backoff jitter.
    attempt_salt: AtomicU64,
    /// Timed-out round-trips still owed an install; reaped by later
    /// fetches.
    stragglers: Mutex<Vec<Straggler>>,
}

impl<T: Transport> RefreshGateway<T> {
    /// Wraps `inner` with default await/retry policies and a private
    /// health tracker; `enabled = false` turns the gateway into a pure
    /// pass-through.
    // `enabled` is pinned by `benchmark/src/probes/gateway.rs`; drop with
    // the next [benchmark] PR.
    pub fn new(inner: T, enabled: bool) -> RefreshGateway<T> {
        RefreshGateway {
            enabled,
            ..RefreshGateway::with_policy(
                inner,
                DEFAULT_AWAIT_TIMEOUT,
                RetryPolicy::default(),
                Arc::new(HealthTracker::default()),
            )
        }
    }

    /// Wraps `inner` with explicit await-timeout, retry, and health
    /// wiring — the service layer's constructor.
    pub(crate) fn with_policy(
        inner: T,
        await_timeout: Duration,
        retry: RetryPolicy,
        health: Arc<HealthTracker>,
    ) -> RefreshGateway<T> {
        RefreshGateway {
            inner,
            enabled: true,
            table: Mutex::new(TableState::default()),
            done: Condvar::new(),
            coalesced: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            await_timeout,
            retry,
            health,
            attempt_salt: AtomicU64::new(0),
            stragglers: Mutex::new(Vec::new()),
        }
    }

    /// Refreshes served from the in-flight table instead of a source,
    /// across all fetches.
    pub fn refreshes_coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Refreshes that went through to a source.
    pub fn refreshes_forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::Relaxed)
    }

    /// Fetches refreshes for a whole plan, `plan` listing each source's
    /// objects. Claims de-duplicate against concurrent fetches; each plan
    /// entry is one round-trip (`batch = false` first splits every entry
    /// into one-element entries — one round-trip per object).
    ///
    /// Must be called *without* holding the cache lock: the whole point is
    /// that the source round-trips of concurrent queries overlap.
    // `batch` is pinned by `benchmark/src/probes/gateway.rs`; drop with
    // the next [benchmark] PR.
    pub fn fetch(
        &self,
        cache: CacheId,
        now: f64,
        plan: &[(SourceId, Vec<ObjectId>)],
        batch: bool,
    ) -> FetchOutcome {
        let per_object: Vec<(SourceId, Vec<ObjectId>)>;
        let plan = if batch {
            plan
        } else {
            per_object = plan
                .iter()
                .flat_map(|(source, objects)| objects.iter().map(move |&o| (*source, vec![o])))
                .collect();
            &per_object
        };
        self.finish_fetch(self.begin_fetch(cache, now, plan, None))
    }

    /// The submit half of a fetch: claims the plan's objects in the
    /// in-flight table and submits every per-source request through the
    /// transport's nonblocking API — then returns *without waiting*, so a
    /// caller holding several plans (one per shard, say) can submit them
    /// all before waiting on any. Must be paired with
    /// [`RefreshGateway::finish_fetch`] on the **same** gateway, promptly:
    /// the claims it holds block concurrent fetches of the same objects
    /// until finished.
    pub(crate) fn begin_fetch(
        &self,
        cache: CacheId,
        now: f64,
        plan: &[(SourceId, Vec<ObjectId>)],
        deadline: Option<Instant>,
    ) -> PendingFetch<'_> {
        let mut stats = FetchStats::default();
        let mut out: Vec<Refresh> = Vec::new();

        // Claim phase: table hits fill `out`; unclaimed objects become
        // ours to fetch; objects in flight elsewhere are awaited later.
        let mut to_fetch: Vec<(SourceId, Vec<ObjectId>)> = Vec::new();
        let mut to_await: Vec<(SourceId, ObjectId)> = Vec::new();
        let mut claimed = Claims {
            table: &self.table,
            done: &self.done,
            cache,
            now,
            objects: Vec::new(),
        };
        let claim_epoch;
        {
            let mut state = self.table.lock();
            claim_epoch = state.epoch;
            for (source, objects) in plan {
                let mut mine: Vec<ObjectId> = Vec::new();
                for &object in objects {
                    if mine.contains(&object) {
                        continue; // duplicate within the plan itself
                    }
                    if !self.enabled {
                        mine.push(object);
                        continue;
                    }
                    match state.entries.get(&object) {
                        Some(e) if e.cache == cache && e.now == now => match e.slot {
                            Slot::Done(refresh) => {
                                out.push(refresh);
                                stats.coalesced += 1;
                            }
                            Slot::InFlight => to_await.push((*source, object)),
                        },
                        _ => {
                            state.entries.insert(
                                object,
                                Entry {
                                    cache,
                                    now,
                                    slot: Slot::InFlight,
                                },
                            );
                            claimed.objects.push(object);
                            mine.push(object);
                        }
                    }
                }
                if !mine.is_empty() {
                    to_fetch.push((*source, mine));
                }
            }
        }

        // Submit phase — no locks held, nothing awaited yet: all of this
        // plan's round-trips go on the wire together.
        let mut waits: Vec<PendingReply> = Vec::new();
        for (source, objects) in to_fetch {
            waits.push(self.submit(source, cache, objects, now));
        }
        PendingFetch {
            cache,
            now,
            claim_epoch,
            out,
            stats,
            claimed,
            waits,
            to_await,
            deadline,
        }
    }

    /// The wait half of a fetch: reaps stragglers from earlier timed-out
    /// fetches, blocks (with per-round-trip deadline + retry) on the
    /// submitted completions, publishes what arrived (waking parked
    /// waiters), releases failed claims, and awaits objects other queries
    /// were fetching.
    pub(crate) fn finish_fetch(&self, pending: PendingFetch<'_>) -> FetchOutcome {
        let PendingFetch {
            cache,
            now,
            claim_epoch,
            mut out,
            mut stats,
            mut claimed,
            waits,
            to_await,
            deadline,
        } = pending;

        // Reap stragglers first: earlier fetches' timed-out round-trips
        // whose refreshes — if served since — must still install somewhere.
        self.reap_stragglers(&mut out, &mut stats);

        // Wait phase. Every submitted request is waited on even after a
        // failure: the source may have served it already (narrowing its
        // tracked bound), and dropping a served refresh would
        // desynchronize cache and Refresh Monitor. A round-trip that
        // exceeds its deadline is parked as a straggler and retried.
        let mut fetched: Vec<Refresh> = Vec::new();
        let mut failures: Vec<(SourceId, TrappError)> = Vec::new();
        for wait in waits {
            let source = wait.source;
            match self.wait_retrying(cache, now, claim_epoch, wait, &mut stats, deadline) {
                Ok(rs) => fetched.extend(rs),
                Err(e) => failures.push((source, e)),
            }
        }

        // Publish what we fetched and release every unfulfilled claim —
        // *before* awaiting or returning, so no waiter deadlocks on us.
        stats.forwarded += fetched.len() as u64;
        if self.enabled {
            let mut state = self.table.lock();
            for &refresh in &fetched {
                publish_locked(&mut state, cache, now, claim_epoch, refresh);
            }
            if failures.is_empty() {
                claimed.objects.clear();
            } else {
                claimed
                    .objects
                    .retain(|&object| !fetched.iter().any(|r| r.object == object));
                claimed.release_locked(&mut state);
            }
            drop(state);
            self.done.notify_all();
        }
        out.extend(fetched);

        // Await phase: collect results other queries are fetching. If the
        // owner aborted (entry gone) we fetch ourselves; if the wait
        // *timed out* we report a typed timeout instead of silently
        // re-fetching — the owner's round-trip is still pending and piling
        // a duplicate fetch onto a slow source only makes things worse.
        if failures.is_empty() {
            for (source, object) in to_await {
                // A query deadline caps the await just like the waits
                // above: no point parking past the instant the caller
                // will refuse the answer anyway.
                let await_cap = deadline
                    .map(|d| {
                        d.saturating_duration_since(Instant::now())
                            .min(self.await_timeout)
                    })
                    .unwrap_or(self.await_timeout);
                match self.await_done(cache, now, object, await_cap) {
                    AwaitResult::Done(refresh) => {
                        out.push(refresh);
                        stats.coalesced += 1;
                    }
                    AwaitResult::TimedOut => {
                        self.health.record_failure(source);
                        failures.push((
                            source,
                            TrappError::Timeout {
                                source,
                                waited_ms: await_cap.as_millis() as u64,
                            },
                        ));
                        break;
                    }
                    AwaitResult::Gone => {
                        // An ordinary round-trip: same attempt timeout,
                        // deadline cap, straggler parking, retry and
                        // health accounting as the wait phase above.
                        let refetch = self.submit(source, cache, vec![object], now);
                        match self.wait_retrying(
                            cache,
                            now,
                            claim_epoch,
                            refetch,
                            &mut stats,
                            deadline,
                        ) {
                            Ok(rs) => {
                                stats.forwarded += rs.len() as u64;
                                self.publish(cache, now, claim_epoch, &rs);
                                out.extend(rs);
                            }
                            Err(e) => {
                                failures.push((source, e));
                                break;
                            }
                        }
                    }
                }
            }
        }

        self.coalesced.fetch_add(stats.coalesced, Ordering::Relaxed);
        self.forwarded.fetch_add(stats.forwarded, Ordering::Relaxed);
        FetchOutcome {
            refreshes: out,
            stats,
            failures,
        }
    }

    /// Polls every parked straggler: resolved successes are published and
    /// appended to `out` (the caller installs them — the late-install
    /// half of the safety invariant), resolved failures are dropped, and
    /// still-pending completions go back in the park.
    fn reap_stragglers(&self, out: &mut Vec<Refresh>, stats: &mut FetchStats) {
        let parked = std::mem::take(&mut *self.stragglers.lock());
        if parked.is_empty() {
            return;
        }
        let mut still_pending: Vec<Straggler> = Vec::new();
        for s in parked {
            match s.completion.poll() {
                Ok(Ok(rs)) => {
                    stats.forwarded += rs.len() as u64;
                    self.publish(s.cache, s.now, s.claim_epoch, &rs);
                    out.extend(rs);
                }
                Ok(Err(_)) => {}
                Err(completion) => still_pending.push(Straggler { completion, ..s }),
            }
        }
        if !still_pending.is_empty() {
            self.stragglers.lock().extend(still_pending);
        }
    }

    /// Memoizes `refreshes` (subject to the epoch guard) and wakes parked
    /// waiters; a no-op on a disabled gateway.
    fn publish(&self, cache: CacheId, now: f64, claim_epoch: u64, refreshes: &[Refresh]) {
        if !self.enabled {
            return;
        }
        let mut state = self.table.lock();
        for &refresh in refreshes {
            publish_locked(&mut state, cache, now, claim_epoch, refresh);
        }
        drop(state);
        self.done.notify_all();
    }

    /// The wait budget for one attempt: the per-round-trip policy, capped
    /// by whatever remains of the query deadline. A nonzero floor keeps a
    /// just-expired deadline from turning into a zero-length poll that
    /// misses an already-resolved completion.
    fn attempt_timeout(&self, deadline: Option<Instant>) -> Duration {
        match deadline {
            None => self.retry.fetch_timeout,
            Some(d) => d
                .saturating_duration_since(Instant::now())
                .min(self.retry.fetch_timeout)
                .max(Duration::from_micros(100)),
        }
    }

    /// Whether the query deadline has passed — retries stop then: there
    /// is no budget left for a backoff plus another round-trip.
    fn deadline_expired(deadline: Option<Instant>) -> bool {
        deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Puts one per-source round-trip on the wire.
    fn submit(
        &self,
        source: SourceId,
        cache: CacheId,
        objects: Vec<ObjectId>,
        now: f64,
    ) -> PendingReply {
        let completion = self
            .inner
            .submit_refresh_batch(source, cache, objects.clone(), now);
        PendingReply {
            source,
            objects,
            completion,
        }
    }

    /// Waits on one round-trip with the retry policy: deadline expiry
    /// parks the completion as a straggler and resubmits after a jittered
    /// backoff; a hard error resubmits without parking. The final outcome
    /// (not each attempt) feeds the health tracker. A query deadline caps
    /// each wait and suppresses retries once it passes.
    fn wait_retrying(
        &self,
        cache: CacheId,
        now: f64,
        claim_epoch: u64,
        mut reply: PendingReply,
        stats: &mut FetchStats,
        deadline: Option<Instant>,
    ) -> Result<Vec<Refresh>, TrappError> {
        let source = reply.source;
        let mut attempt: u32 = 0;
        let mut waited = Duration::ZERO;
        loop {
            let timeout = self.attempt_timeout(deadline);
            let failure = match reply.completion.wait_timeout(timeout) {
                Ok(Ok(rs)) => {
                    stats.round_trips += 1;
                    self.health.record_success(source);
                    return Ok(rs);
                }
                Ok(Err(e)) => e,
                Err(pending) => {
                    waited += timeout;
                    self.stragglers.lock().push(Straggler {
                        cache,
                        now,
                        claim_epoch,
                        completion: pending,
                    });
                    TrappError::Timeout {
                        source,
                        waited_ms: waited.as_millis() as u64,
                    }
                }
            };
            if attempt >= self.retry.max_retries || Self::deadline_expired(deadline) {
                self.health.record_failure(source);
                return Err(failure);
            }
            attempt += 1;
            let salt = self.attempt_salt.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.retry.backoff(attempt, salt));
            reply = self.submit(source, cache, reply.objects, now);
        }
    }

    /// Waits for another fetch to publish `object`, up to `timeout`.
    fn await_done(
        &self,
        cache: CacheId,
        now: f64,
        object: ObjectId,
        timeout: Duration,
    ) -> AwaitResult {
        let mut state = self.table.lock();
        loop {
            match state.entries.get(&object) {
                Some(e) if e.cache == cache && e.now == now => match e.slot {
                    Slot::Done(refresh) => return AwaitResult::Done(refresh),
                    Slot::InFlight => {
                        if self.done.wait_for(&mut state, timeout) {
                            return AwaitResult::TimedOut;
                        }
                    }
                },
                // Entry gone (owner aborted / invalidated) or replaced by
                // another instant: the caller fetches it itself.
                _ => return AwaitResult::Gone,
            }
        }
    }

    /// Forwards a batch of master-value updates to `source` through the
    /// transport's nonblocking [`Transport::submit_update_batch`] —
    /// invalidating first: the updated objects' memoized results are
    /// removed and the epoch bumped *before* any write reaches the source,
    /// so an in-flight fetch that claimed before any update in the batch
    /// refuses to memoize its (possibly pre-update) result. The fetcher's
    /// own install is ordered by [`Refresh::seq`].
    pub(crate) fn submit_update_batch(
        &self,
        source: SourceId,
        updates: Vec<(ObjectId, f64)>,
        now: f64,
    ) -> Completion<Vec<(CacheId, Refresh)>> {
        self.invalidate(updates.iter().map(|&(object, _)| object));
        self.inner.submit_update_batch(source, updates, now)
    }

    /// Removes memoized entries and bumps the invalidation epoch for the
    /// given objects — the pre-write half of every update path.
    fn invalidate(&self, objects: impl Iterator<Item = ObjectId>) {
        let mut state = self.table.lock();
        for object in objects {
            state.epoch += 1;
            let epoch = state.epoch;
            state.dirty.insert(object, epoch);
            if let Some(e) = state.entries.get(&object) {
                if matches!(e.slot, Slot::Done(_)) {
                    state.entries.remove(&object);
                }
            }
        }
    }
}

/// Writes a `Done` entry — unless the object was invalidated after the
/// claim (an update landed mid-fetch: the result may predate it and must
/// not be replayed) or a different instant owns the slot. When
/// suppressed, our own `InFlight` claim is released so waiters re-fetch.
fn publish_locked(
    state: &mut TableState,
    cache: CacheId,
    now: f64,
    claim_epoch: u64,
    refresh: Refresh,
) {
    if state
        .dirty
        .get(&refresh.object)
        .is_some_and(|&e| e > claim_epoch)
    {
        abort_locked(state, cache, now, refresh.object);
        return;
    }
    match state.entries.get(&refresh.object) {
        // Never clobber an entry from a different instant or cache — that
        // fetch owns the slot now.
        Some(e) if !(e.cache == cache && e.now == now) => {}
        _ => {
            state.entries.insert(
                refresh.object,
                Entry {
                    cache,
                    now,
                    slot: Slot::Done(refresh),
                },
            );
        }
    }
}

/// Removes our own `InFlight` claim (failed or invalidated fetch).
fn abort_locked(state: &mut TableState, cache: CacheId, now: f64, object: ObjectId) {
    if let Some(e) = state.entries.get(&object) {
        if e.cache == cache && e.now == now && matches!(e.slot, Slot::InFlight) {
            state.entries.remove(&object);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trapp_bounds::BoundShape;
    use trapp_system::{
        ChaosConfig, ChaosControl, ChaosTransport, CompletionTransport, DelaySpec, DirectTransport,
        OutageWindow, Source,
    };

    const SOURCE: SourceId = SourceId::new(1);
    const CACHE: CacheId = CacheId::new(1);

    fn transport() -> DirectTransport {
        let mut s = Source::new(SOURCE, BoundShape::Sqrt);
        s.register_object(ObjectId::new(1), 10.0).unwrap();
        s.register_object(ObjectId::new(2), 20.0).unwrap();
        s.subscribe(CACHE, ObjectId::new(1), 1.0, 0.0).unwrap();
        s.subscribe(CACHE, ObjectId::new(2), 1.0, 0.0).unwrap();
        let mut t = DirectTransport::new();
        t.add_source(s);
        t
    }

    /// Fetches `objects` from the one test source: the refreshes, or the
    /// first failure.
    fn pull<T: Transport>(
        g: &RefreshGateway<T>,
        objects: &[u64],
        now: f64,
    ) -> Result<Vec<Refresh>, TrappError> {
        let outcome = g.fetch(CACHE, now, &plan(objects), true);
        match outcome.failures.into_iter().next() {
            Some((_, e)) => Err(e),
            None => Ok(outcome.refreshes),
        }
    }

    fn update<T: Transport>(g: &RefreshGateway<T>, object: u64, value: f64, now: f64) {
        g.submit_update_batch(SOURCE, vec![(ObjectId::new(object), value)], now)
            .wait()
            .unwrap();
    }

    fn plan(objects: &[u64]) -> Vec<(SourceId, Vec<ObjectId>)> {
        vec![(SOURCE, objects.iter().map(|&o| ObjectId::new(o)).collect())]
    }

    #[test]
    fn duplicate_refresh_at_same_instant_is_coalesced() {
        let g = RefreshGateway::new(transport(), true);
        let a = pull(&g, &[1], 1.0).unwrap();
        let b = pull(&g, &[1], 1.0).unwrap();
        assert_eq!(a[0].value, b[0].value);
        assert_eq!(
            g.inner.messages(),
            1,
            "second refresh must not reach the source"
        );
        assert_eq!(g.refreshes_coalesced(), 1);
        assert_eq!(g.refreshes_forwarded(), 1);
    }

    #[test]
    fn different_instant_misses() {
        let g = RefreshGateway::new(transport(), true);
        pull(&g, &[1], 1.0).unwrap();
        pull(&g, &[1], 2.0).unwrap();
        assert_eq!(g.inner.messages(), 2);
        assert_eq!(g.refreshes_coalesced(), 0);
    }

    #[test]
    fn update_invalidates_entry() {
        let g = RefreshGateway::new(transport(), true);
        assert_eq!(pull(&g, &[1], 1.0).unwrap()[0].value, 10.0);
        update(&g, 1, 99.0, 1.0);
        let b = pull(&g, &[1], 1.0).unwrap();
        assert_eq!(
            b[0].value, 99.0,
            "post-update refresh must see the new master"
        );
        assert_eq!(g.refreshes_coalesced(), 0);
    }

    #[test]
    fn batch_mixes_hits_and_misses() {
        let g = RefreshGateway::new(transport(), true);
        pull(&g, &[1], 1.0).unwrap();
        let rs = pull(&g, &[1, 2], 1.0).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].value, 10.0);
        assert_eq!(rs[1].value, 20.0);
        // One single-object message, then one batch message for the miss.
        assert_eq!(g.inner.messages(), 2);
        assert_eq!(g.refreshes_coalesced(), 1);

        // A fully-hit batch costs zero messages.
        let rs = pull(&g, &[1, 2], 1.0).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(g.inner.messages(), 2);
    }

    #[test]
    fn disabled_gateway_is_a_pass_through() {
        let g = RefreshGateway::new(transport(), false);
        pull(&g, &[1], 1.0).unwrap();
        pull(&g, &[1], 1.0).unwrap();
        assert_eq!(g.inner.messages(), 2);
        assert_eq!(g.refreshes_coalesced(), 0);
    }

    /// `fetch(.., batch = false)` is the same primitive with one-element
    /// batches: one round-trip per object instead of one per source.
    #[test]
    fn unbatched_fetch_is_one_element_batches() {
        let g = RefreshGateway::new(transport(), true);
        let outcome = g.fetch(CACHE, 1.0, &plan(&[1, 2]), false);
        assert!(outcome.failures.is_empty());
        assert_eq!(outcome.refreshes.len(), 2);
        assert_eq!(outcome.stats.round_trips, 2);
        assert_eq!(g.inner.messages(), 2);
        let outcome = g.fetch(CACHE, 2.0, &plan(&[1, 2]), true);
        assert_eq!(outcome.stats.round_trips, 1);
        assert_eq!(g.inner.messages(), 3);
    }

    /// Many threads fetching the same object at the same instant: exactly
    /// one round-trip, everyone gets the same value — the single-flight
    /// property under real concurrency.
    #[test]
    fn concurrent_fetches_single_flight() {
        let g = Arc::new(RefreshGateway::new(transport(), true));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                let outcome = g.fetch(CACHE, 1.0, &plan(&[1]), true);
                assert!(outcome.failures.is_empty());
                outcome
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for outcome in &results {
            assert_eq!(outcome.refreshes.len(), 1);
            assert_eq!(outcome.refreshes[0].value, 10.0);
        }
        assert_eq!(g.inner.messages(), 1, "eight fetches, one round-trip");
        let total_coalesced: u64 = results.iter().map(|o| o.stats.coalesced).sum();
        assert_eq!(total_coalesced, 7);
    }

    #[test]
    fn failed_fetch_aborts_claim_for_others() {
        let g = RefreshGateway::new(transport(), true);
        // Unknown object: the fetch fails and must clean up its claim so a
        // later valid fetch is not stuck awaiting forever.
        let outcome = g.fetch(CACHE, 1.0, &plan(&[99]), true);
        assert!(!outcome.failures.is_empty());
        let outcome = g.fetch(CACHE, 1.0, &plan(&[1]), true);
        assert!(outcome.failures.is_empty());
        assert_eq!(outcome.refreshes.len(), 1);
        assert_eq!(outcome.stats.coalesced, 0);
    }

    /// Partial failure keeps the refreshes fetched before the failing
    /// request so the caller can install them (their sources already
    /// narrowed their tracked bounds).
    #[test]
    fn partial_failure_returns_earlier_refreshes() {
        let g = RefreshGateway::new(transport(), true);
        let outcome = g.fetch(
            CACHE,
            1.0,
            &[
                (SOURCE, vec![ObjectId::new(1)]),
                (SOURCE, vec![ObjectId::new(99)]), // unknown
            ],
            true,
        );
        assert!(!outcome.failures.is_empty());
        assert_eq!(outcome.refreshes.len(), 1, "object 1 was fetched and kept");
        assert_eq!(outcome.refreshes[0].object, ObjectId::new(1));
        assert_eq!(outcome.stats.forwarded, 1);
    }

    /// An update racing an in-flight fetch: the fetch's result must not be
    /// memoized (it may predate the update), so the next query at the same
    /// instant sees the post-update master.
    #[test]
    fn update_racing_inflight_fetch_is_not_replayed() {
        // 50ms wire latency so the fetch is reliably in flight when the
        // update arrives.
        let mut transport = CompletionTransport::with_pool_size(Duration::from_millis(50), 1);
        let mut s = Source::new(SOURCE, BoundShape::Sqrt);
        s.register_object(ObjectId::new(1), 10.0).unwrap();
        s.subscribe(CACHE, ObjectId::new(1), 1.0, 0.0).unwrap();
        transport.add_source(s);
        let g = RefreshGateway::new(transport, true);

        let inflight = g.begin_fetch(CACHE, 1.0, &plan(&[1]), None);
        update(&g, 1, 77.0, 1.0);
        let outcome = g.finish_fetch(inflight);
        assert!(outcome.failures.is_empty());

        // Whatever the fetch returned, a *new* request at the same instant
        // must reach the source and see the updated master — the racing
        // result must not have been memoized.
        let r = pull(&g, &[1], 1.0).unwrap();
        assert_eq!(r[0].value, 77.0, "stale master replayed after update");
        assert_eq!(g.refreshes_coalesced(), 0);
    }

    /// A waiter whose owner aborted re-fetches the object itself — and
    /// that re-fetch is an ordinary round-trip: capped by the query
    /// deadline, parked as a straggler when it expires, installed by the
    /// next fetch that reaps it.
    #[test]
    fn refetch_after_owner_abort_honors_the_deadline() {
        // Op 0 (the owner's fetch) fails; every later op is served but
        // spends 300 ms on the wire.
        let delay = Duration::from_millis(300);
        let chaos = ChaosTransport::new(
            transport(),
            ChaosConfig {
                outages: vec![OutageWindow {
                    source: None,
                    from_op: 0,
                    to_op: 1,
                }],
                default_delay: Some(DelaySpec::fixed(delay)),
                ..ChaosConfig::default()
            },
            Arc::new(ChaosControl::new()),
        );
        let no_retry = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        };
        let g = RefreshGateway::with_policy(
            chaos,
            DEFAULT_AWAIT_TIMEOUT,
            no_retry,
            Arc::new(HealthTracker::default()),
        );

        // The owner claims object 1; the waiter finds it in flight.
        let owner = g.begin_fetch(CACHE, 1.0, &plan(&[1]), None);
        let budget = Duration::from_millis(40);
        let started = Instant::now();
        let waiter = g.begin_fetch(CACHE, 1.0, &plan(&[1]), Some(started + budget));
        // The owner fails and releases its claim, so the waiter re-fetches.
        assert!(!g.finish_fetch(owner).failures.is_empty());
        let outcome = g.finish_fetch(waiter);
        let took = started.elapsed();
        assert!(
            matches!(outcome.failures[..], [(SOURCE, TrappError::Timeout { .. })]),
            "expected one typed timeout, got {:?}",
            outcome.failures
        );
        assert!(outcome.refreshes.is_empty());
        assert!(
            took < delay / 2,
            "re-fetch ignored the {budget:?} deadline: waited {took:?}"
        );

        // The source served the parked round-trip; once its reply lands,
        // the next fetch reaps and returns it for install.
        std::thread::sleep(delay);
        let reaped = g.fetch(CACHE, 2.0, &[], true);
        assert_eq!(reaped.refreshes.len(), 1);
        assert_eq!(reaped.refreshes[0].object, ObjectId::new(1));
        assert_eq!(reaped.stats.forwarded, 1);
    }
}
