//! The shared fetch pool: a small, fixed set of demux threads that
//! multiplexes *any* number of actors (source mailboxes) over completion
//! queues — the execution substrate of
//! [`CompletionTransport`](crate::transport::CompletionTransport).
//!
//! A thread per source would make fan-out scale with topology size, not
//! with hardware. The pool inverts that: every actor owns only a FIFO job
//! queue, and `O(pool)` worker threads drain whichever queues have work.
//! Thousands of sources, a handful of threads.
//!
//! Two invariants the transport layer leans on:
//!
//! * **Per-actor FIFO** — jobs submitted to one actor run in submission
//!   order, and never concurrently with each other. A `scheduled` flag
//!   ensures at most one worker serves an actor at a time; the worker
//!   drains the actor's queue in order before moving on. This is what
//!   keeps `Refresh::seq` stamping in submission order.
//! * **Exactly-once drain** — every accepted job runs exactly once, even
//!   across pool shutdown: dropping the pool flushes delayed jobs into
//!   their actor queues, closes the ready channel, and joins the workers
//!   after they have drained everything already dispatched. A submission
//!   that races shutdown runs inline on the submitting thread.
//!
//! Delayed submission ([`ActorHandle::submit_after`]) models network
//! transit: a single timer thread holds a deadline heap and moves each job
//! into its actor's queue when the deadline passes — so thousands of
//! in-flight "on the wire" requests cost zero blocked threads. Deadlines
//! break ties by submission sequence, so equal delays
//! preserve per-actor FIFO.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

/// A unit of work bound to one actor's FIFO queue.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One actor: a FIFO of pending jobs plus the flag that guarantees at most
/// one worker serves the queue at a time.
#[derive(Default)]
struct ActorQueue {
    ops: Mutex<VecDeque<Job>>,
    scheduled: AtomicBool,
}

/// Drains `actor`'s queue in FIFO order. Exits once the queue is observed
/// empty *and* the `scheduled` claim has been handed back (or taken over
/// by a concurrent submitter, which re-dispatches the actor).
fn run_actor(actor: &ActorQueue) {
    loop {
        let job = actor.ops.lock().pop_front();
        match job {
            Some(job) => job(),
            None => {
                actor.scheduled.store(false, Ordering::SeqCst);
                // A submitter may have enqueued between our failed pop and
                // the store; if so, and nobody re-claimed the actor yet,
                // re-claim it ourselves and keep draining — otherwise the
                // job would sit in a queue no worker ever visits.
                if actor.ops.lock().is_empty() || actor.scheduled.swap(true, Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// A job waiting on the timer thread's deadline heap.
struct Timed {
    at: Instant,
    seq: u64,
    actor: Arc<ActorQueue>,
    job: Job,
}

impl PartialEq for Timed {
    fn eq(&self, other: &Timed) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Timed {}
impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Timed) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timed {
    /// Reversed so `BinaryHeap` (a max-heap) pops the *earliest* deadline;
    /// ties break by submission sequence, preserving per-actor FIFO for
    /// equal delays.
    fn cmp(&self, other: &Timed) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

#[derive(Default)]
struct TimerQueue {
    heap: BinaryHeap<Timed>,
    next_seq: u64,
    shutdown: bool,
}

struct PoolShared {
    /// `None` once the pool has shut down; submissions then run inline.
    ready: Mutex<Option<Sender<Arc<ActorQueue>>>>,
    timer: Mutex<TimerQueue>,
    timer_wake: Condvar,
}

/// Pushes a job onto an actor's queue and dispatches the actor to the
/// worker pool if nobody is serving it. After shutdown the job runs inline
/// so every accepted job still completes exactly once.
fn enqueue(shared: &PoolShared, actor: &Arc<ActorQueue>, job: Job) {
    actor.ops.lock().push_back(job);
    if !actor.scheduled.swap(true, Ordering::SeqCst) {
        let dispatched = shared
            .ready
            .lock()
            .as_ref()
            .is_some_and(|tx| tx.send(actor.clone()).is_ok());
        if !dispatched {
            run_actor(actor);
        }
    }
}

fn timer_loop(shared: &PoolShared) {
    let mut q = shared.timer.lock();
    loop {
        if q.shutdown {
            return;
        }
        let now = Instant::now();
        match q.heap.peek().map(|t| t.at) {
            None => shared.timer_wake.wait(&mut q),
            Some(at) if at <= now => {
                if let Some(t) = q.heap.pop() {
                    drop(q);
                    enqueue(shared, &t.actor, t.job);
                    q = shared.timer.lock();
                }
            }
            Some(at) => {
                shared.timer_wake.wait_for(&mut q, at - now);
            }
        }
    }
}

struct PoolCore {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    timer_thread: Mutex<Option<JoinHandle<()>>>,
    /// The receiving end of the ready channel, kept so
    /// [`FetchPool::resize`] can spawn additional workers after startup.
    ready_rx: Receiver<Arc<ActorQueue>>,
    /// Configured worker count; workers retire when `live` exceeds it.
    target: Arc<AtomicUsize>,
    /// Workers currently alive (spawned and not yet retired/joined).
    live: Arc<AtomicUsize>,
    /// Monotonic spawn counter, for worker thread names.
    spawned: AtomicUsize,
}

/// Claims a retirement slot: true when the live worker count exceeds the
/// target and this worker successfully decremented it (and must exit).
fn should_retire(live: &AtomicUsize, target: &AtomicUsize) -> bool {
    loop {
        let l = live.load(Ordering::SeqCst);
        if l <= target.load(Ordering::SeqCst) {
            return false;
        }
        if live
            .compare_exchange(l, l - 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return true;
        }
    }
}

/// One demux worker: serves ready actors until the channel closes
/// (shutdown) or the pool shrinks below the live count. The retire check
/// runs *after* each served actor, so a received actor is never dropped.
fn worker_loop(rx: Receiver<Arc<ActorQueue>>, live: Arc<AtomicUsize>, target: Arc<AtomicUsize>) {
    loop {
        match rx.recv() {
            Ok(actor) => {
                run_actor(&actor);
                if should_retire(&live, &target) {
                    return;
                }
            }
            Err(_) => {
                live.fetch_sub(1, Ordering::SeqCst);
                return;
            }
        }
    }
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        // Deterministic drain, in an order that preserves per-actor FIFO:
        //
        // 1. Stop **and join** the timer thread first — it may be between
        //    popping a due job and enqueuing it, and flushing the heap
        //    around that window could deliver a later-deadline job ahead
        //    of an earlier one for the same actor.
        {
            let mut q = self.shared.timer.lock();
            q.shutdown = true;
        }
        self.shared.timer_wake.notify_all();
        if let Some(handle) = self.timer_thread.lock().take() {
            let _ = handle.join();
        }
        // 2. With the timer quiesced, flush every still-delayed job into
        //    its actor queue in deadline order.
        let pending: Vec<Timed> = {
            let mut q = self.shared.timer.lock();
            let mut v = std::mem::take(&mut q.heap).into_sorted_vec();
            // `Ord` is reversed (earliest = greatest), so ascending order
            // is latest-first; reverse to deliver in deadline order.
            v.reverse();
            v
        };
        for t in pending {
            enqueue(&self.shared, &t.actor, t.job);
        }
        // 3. Close the ready channel — workers drain whatever was
        //    dispatched, then exit — and join them.
        *self.shared.ready.lock() = None;
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

/// A shared pool of demux threads multiplexing many actors. Cheap to
/// clone (all clones share the same threads); the threads are joined when
/// the last clone drops. See the module docs.
#[derive(Clone)]
pub struct FetchPool {
    core: Arc<PoolCore>,
}

impl FetchPool {
    /// Starts a pool with `threads` demux workers (clamped to ≥ 1) plus
    /// one timer thread for delayed submissions.
    pub fn new(threads: usize) -> FetchPool {
        let demux_threads = threads.max(1);
        let (tx, rx) = unbounded::<Arc<ActorQueue>>();
        let shared = Arc::new(PoolShared {
            ready: Mutex::new(Some(tx)),
            timer: Mutex::new(TimerQueue::default()),
            timer_wake: Condvar::new(),
        });
        let timer_shared = shared.clone();
        // A pool without its timer never fires a delayed submission.
        #[allow(clippy::expect_used)]
        let timer_thread = std::thread::Builder::new()
            .name("trapp-fetch-timer".into())
            .spawn(move || timer_loop(&timer_shared))
            .expect("spawn fetch-pool timer");
        let pool = FetchPool {
            core: Arc::new(PoolCore {
                shared,
                workers: Mutex::new(Vec::with_capacity(demux_threads)),
                timer_thread: Mutex::new(Some(timer_thread)),
                ready_rx: rx,
                target: Arc::new(AtomicUsize::new(0)),
                live: Arc::new(AtomicUsize::new(0)),
                spawned: AtomicUsize::new(0),
            }),
        };
        pool.resize(demux_threads);
        pool
    }

    /// Number of demux worker threads the pool is configured for (the
    /// timer thread is extra). After a shrinking [`FetchPool::resize`]
    /// this is the *target*; surplus workers retire as work flows.
    pub fn threads(&self) -> usize {
        self.core.target.load(Ordering::SeqCst)
    }

    /// Demux workers currently alive. Equals [`FetchPool::threads`] except
    /// transiently after a shrink, when surplus workers are still draining
    /// toward retirement.
    pub fn live_threads(&self) -> usize {
        self.core.live.load(Ordering::SeqCst)
    }

    /// Resizes the pool to `threads` demux workers (clamped to ≥ 1), live.
    /// Growth spawns workers immediately; shrinking is lazy — each surplus
    /// worker retires after finishing its current actor, so no accepted
    /// job is ever dropped and nothing blocks. Driving this from a load
    /// signal (queue depth, fetch latency) is how the service adapts its
    /// fetch parallelism to demand.
    pub fn resize(&self, threads: usize) {
        let want = threads.max(1);
        self.core.target.store(want, Ordering::SeqCst);
        let mut workers = self.core.workers.lock();
        // Prune handles of already-retired workers so repeated resizes
        // don't accumulate dead JoinHandles.
        workers.retain(|h| !h.is_finished());
        loop {
            let l = self.core.live.load(Ordering::SeqCst);
            if l >= want {
                break;
            }
            if self
                .core
                .live
                .compare_exchange(l, l + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                continue;
            }
            let rx = self.core.ready_rx.clone();
            let live = self.core.live.clone();
            let target = self.core.target.clone();
            let id = self.core.spawned.fetch_add(1, Ordering::SeqCst);
            // A pool with no worker never runs an accepted job.
            #[allow(clippy::expect_used)]
            workers.push(
                std::thread::Builder::new()
                    .name(format!("trapp-fetch-{id}"))
                    .spawn(move || worker_loop(rx, live, target))
                    .expect("spawn fetch-pool worker"),
            );
        }
    }

    /// Registers a new actor and returns its submission handle.
    pub fn register(&self) -> ActorHandle {
        ActorHandle {
            queue: Arc::new(ActorQueue::default()),
            shared: self.core.shared.clone(),
        }
    }
}

/// One actor's submission handle: jobs submitted here run on the pool in
/// FIFO order, never concurrently with each other.
pub struct ActorHandle {
    queue: Arc<ActorQueue>,
    shared: Arc<PoolShared>,
}

impl ActorHandle {
    /// Submits a job to run as soon as a worker reaches this actor.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        enqueue(&self.shared, &self.queue, Box::new(job));
    }

    /// Submits a job to enter this actor's queue after `delay` (simulated
    /// network transit — the job spends `delay` "on the wire" without
    /// blocking any thread). Equal delays preserve submission order;
    /// unequal delays deliver in deadline order, like a real network.
    pub fn submit_after(&self, delay: Duration, job: impl FnOnce() + Send + 'static) {
        if delay.is_zero() {
            return self.submit(job);
        }
        let mut q = self.shared.timer.lock();
        if q.shutdown {
            drop(q);
            return self.submit(job);
        }
        let seq = q.next_seq;
        q.next_seq += 1;
        q.heap.push(Timed {
            at: Instant::now() + delay,
            seq,
            actor: self.queue.clone(),
            job: Box::new(job),
        });
        drop(q);
        self.shared.timer_wake.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn per_actor_fifo_with_one_worker() {
        let pool = FetchPool::new(1);
        let a = pool.register();
        let b = pool.register();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..50 {
            let (la, lb) = (log.clone(), log.clone());
            a.submit(move || la.lock().push(("a", i)));
            b.submit(move || lb.lock().push(("b", i)));
        }
        // Drop synchronizes: every submitted job has run afterwards.
        drop(pool);
        let log = log.lock();
        for actor in ["a", "b"] {
            let order: Vec<i32> = log
                .iter()
                .filter(|(who, _)| *who == actor)
                .map(|&(_, i)| i)
                .collect();
            assert_eq!(order, (0..50).collect::<Vec<_>>(), "{actor} out of order");
        }
    }

    #[test]
    fn equal_delays_preserve_submission_order() {
        let pool = FetchPool::new(2);
        let a = pool.register();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..20 {
            let l = log.clone();
            a.submit_after(Duration::from_millis(2), move || l.lock().push(i));
        }
        drop(pool);
        assert_eq!(*log.lock(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn shutdown_flushes_delayed_jobs_exactly_once() {
        let pool = FetchPool::new(2);
        let a = pool.register();
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let r = ran.clone();
            // Far future: only the shutdown flush can run these.
            a.submit_after(Duration::from_secs(3600), move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(ran.load(Ordering::SeqCst), 10);
        // Submissions after shutdown run inline rather than vanish.
        let r = ran.clone();
        a.submit(move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn resize_grows_and_shrinks_without_losing_jobs() {
        let pool = FetchPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.live_threads(), 1);

        // Grow: new workers spawn immediately.
        pool.resize(4);
        assert_eq!(pool.threads(), 4);
        assert_eq!(pool.live_threads(), 4);

        // Work flows through the grown pool.
        let ran = Arc::new(AtomicUsize::new(0));
        let actors: Vec<ActorHandle> = (0..8).map(|_| pool.register()).collect();
        for actor in &actors {
            for _ in 0..16 {
                let r = ran.clone();
                actor.submit(move || {
                    r.fetch_add(1, Ordering::SeqCst);
                });
            }
        }

        // Shrink: target drops at once; surplus workers retire as they
        // finish actors, and every accepted job still runs.
        pool.resize(2);
        assert_eq!(pool.threads(), 2);
        for actor in &actors {
            for _ in 0..16 {
                let r = ran.clone();
                actor.submit(move || {
                    r.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        drop(pool);
        assert_eq!(ran.load(Ordering::SeqCst), 8 * 32);
    }

    #[test]
    fn resize_clamps_to_one_worker() {
        let pool = FetchPool::new(2);
        pool.resize(0);
        assert_eq!(pool.threads(), 1);
        let ran = Arc::new(AtomicUsize::new(0));
        let a = pool.register();
        let r = ran.clone();
        a.submit(move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        drop(pool);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn many_actors_share_few_threads() {
        let pool = FetchPool::new(2);
        let actors: Vec<ActorHandle> = (0..64).map(|_| pool.register()).collect();
        let ran = Arc::new(AtomicUsize::new(0));
        for actor in &actors {
            for _ in 0..8 {
                let r = ran.clone();
                actor.submit(move || {
                    r.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        drop(pool);
        assert_eq!(ran.load(Ordering::SeqCst), 64 * 8);
    }
}
