//! A persistent chunked parallel-for worker pool.
//!
//! This is the execution substrate that stands in for the paper's OpenMP
//! thread teams and CUDA thread grids: the `dataflow` executor hands map
//! scopes to [`Pool::for_each_chunk`], which splits the iteration range into
//! contiguous chunks claimed by workers through a shared atomic cursor
//! (guided self-scheduling). Workers are spawned **once** at pool
//! construction and parked between parallel regions, so a kernel launch
//! costs a mutex/condvar wake rather than a thread spawn — the OpenMP
//! "persistent team" model. On a single-core host (or `Pool::new(1)`) the
//! pool degrades gracefully to serial inline execution with no threads at
//! all.
//!
//! Closure lifetimes stay simple (no `'static` bound on the body): the
//! submitting thread type-erases a borrow of the body into a raw pointer,
//! and `for_each_chunk` does not return until every worker has checked
//! back in for that region, so the borrow outlives every use.

use crate::faults::{FaultAction, Faults, FireCtx, SITE_WORKER_DEATH, SITE_WORKER_PANIC};
use crate::run::RunConfig;
use parking_lot::{Condvar, Mutex};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A type-erased parallel region: a borrowed `Fn(Range<usize>) + Sync`
/// body plus the trampoline that downcasts and calls it.
///
/// Safety: `body` is only dereferenced between job publication and the
/// submitter observing `pending == 0`, and the submitter keeps the real
/// closure alive (and the region lock held) for that whole window.
#[derive(Clone)]
struct Job {
    body: *const (),
    call: unsafe fn(*const (), Range<usize>),
    len: usize,
    chunk: usize,
    /// The submitting run's fault plan: the worker sites fire through it,
    /// so only the run that armed a plan can lose a worker to it.
    faults: Faults,
}

unsafe impl Send for Job {}

unsafe fn call_body<F: Fn(Range<usize>) + Sync>(body: *const (), r: Range<usize>) {
    (*(body as *const F))(r)
}

struct JobState {
    /// Current region, if one is being drained.
    job: Option<Job>,
    /// Bumped once per submitted region; workers use it to tell a fresh
    /// region from the one they just finished.
    epoch: u64,
    /// Workers that have not yet checked in for the current epoch.
    pending: usize,
    /// Set when any worker body panicked during the current region.
    panicked: bool,
    /// Set by the last pool handle's drop; workers exit on seeing it.
    shutdown: bool,
    /// Background workers currently alive. Decremented by a worker's
    /// drop guard on *any* exit path — clean shutdown, injected death,
    /// or a panic escaping the body's `catch_unwind` — so the submitter
    /// can size `pending` to the team that actually exists and rebuild
    /// the missing members instead of deadlocking on a ghost check-in.
    alive: usize,
}

struct Shared {
    state: Mutex<JobState>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Serializes concurrent `for_each_chunk` calls from pool clones —
    /// the worker team drains one region at a time.
    region: Mutex<()>,
    cursor: AtomicUsize,
    /// Workers respawned after unexpected deaths (poisoned-team rebuilds).
    rebuilds: AtomicU64,
}

/// Decrements `alive` when a worker exits; if the worker dies while it
/// still owes a check-in for the current region (`in_flight`), performs
/// that check-in too so the submitter never waits forever.
struct WorkerGuard<'a> {
    sh: &'a Shared,
    in_flight: bool,
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.sh.state.lock();
        st.alive -= 1;
        if self.in_flight {
            st.panicked = true;
            st.pending -= 1;
            if st.pending == 0 {
                self.sh.done_cv.notify_all();
            }
        }
    }
}

impl Shared {
    fn worker_loop(&self) {
        let mut last_epoch = 0u64;
        let mut guard = WorkerGuard {
            sh: self,
            in_flight: false,
        };
        loop {
            let job = {
                let mut st = self.state.lock();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.epoch > last_epoch {
                        if let Some(job) = &st.job {
                            last_epoch = st.epoch;
                            break job.clone();
                        }
                    }
                    self.work_cv.wait(&mut st);
                }
            };
            guard.in_flight = true;
            // Fault site: terminate this worker thread outright. Check in
            // for the current region first (the cursor protocol lets the
            // rest of the team absorb the abandoned chunks), then fall off
            // the loop so `alive` drops and the next region rebuilds.
            if let Some(spec) = job.faults.fire(SITE_WORKER_DEATH, FireCtx::default()) {
                if matches!(spec.action, FaultAction::KillWorker) {
                    let mut st = self.state.lock();
                    st.pending -= 1;
                    if st.pending == 0 {
                        self.done_cv.notify_all();
                    }
                    guard.in_flight = false;
                    return;
                }
            }
            let ok = catch_unwind(AssertUnwindSafe(|| {
                // Fault site: panic mid-kernel, as a bad stencil body would.
                if job.faults.fire(SITE_WORKER_PANIC, FireCtx::default()).is_some() {
                    panic!("injected fault: worker panic (site {SITE_WORKER_PANIC})");
                }
                drain(&self.cursor, &job);
            }))
            .is_ok();
            let mut st = self.state.lock();
            if !ok {
                st.panicked = true;
            }
            st.pending -= 1;
            guard.in_flight = false;
            if st.pending == 0 {
                self.done_cv.notify_all();
            }
        }
    }

    /// Spawn one background worker (caller must have counted it in
    /// `alive` already, or do so under the same lock).
    fn spawn_worker(self: &Arc<Self>, idx: usize) {
        let sh = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("fv3-pool-{idx}"))
            .spawn(move || sh.worker_loop())
            .expect("failed to spawn pool worker");
    }
}

/// Claim chunks off the shared cursor until the range is exhausted.
fn drain(cursor: &AtomicUsize, job: &Job) {
    loop {
        let start = cursor.fetch_add(job.chunk, Ordering::Relaxed);
        if start >= job.len {
            break;
        }
        let end = (start + job.chunk).min(job.len);
        unsafe { (job.call)(job.body, start..end) };
    }
}

/// Owned by `Pool` handles only (workers hold `Arc<Shared>` directly), so
/// when the last handle drops, workers are told to exit. Threads are
/// detached; they park on the condvar and unblock promptly on shutdown.
struct Lease {
    shared: Arc<Shared>,
}

impl Drop for Lease {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock();
        st.shutdown = true;
        self.shared.work_cv.notify_all();
    }
}

/// A reusable team of worker threads for data-parallel loops.
///
/// Cloning shares the same worker team; the team shuts down when the last
/// clone is dropped.
#[derive(Clone)]
pub struct Pool {
    workers: usize,
    /// `None` when `workers == 1` (serial inline execution, no threads).
    shared: Option<Arc<Shared>>,
    _lease: Option<Arc<Lease>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("workers", &self.workers).finish()
    }
}

impl Pool {
    /// A pool with `workers` threads of parallelism. `workers == 1` never
    /// spawns; otherwise `workers - 1` background threads are spawned now
    /// and parked — the submitting thread is the team's last member.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        if workers == 1 {
            return Pool {
                workers,
                shared: None,
                _lease: None,
            };
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(JobState {
                job: None,
                epoch: 0,
                pending: 0,
                panicked: false,
                shutdown: false,
                alive: workers - 1,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            region: Mutex::new(()),
            cursor: AtomicUsize::new(0),
            rebuilds: AtomicU64::new(0),
        });
        for w in 0..workers - 1 {
            shared.spawn_worker(w);
        }
        let lease = Arc::new(Lease {
            shared: Arc::clone(&shared),
        });
        Pool {
            workers,
            shared: Some(shared),
            _lease: Some(lease),
        }
    }

    /// A pool sized by the environment ([`RunConfig::host_workers`]:
    /// `FV3_WORKERS`, else the host's available parallelism).
    pub fn host() -> Self {
        Pool::new(RunConfig::from_env().host_workers())
    }

    /// Number of worker threads (including the submitting thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// True when `other` drains regions through this pool's worker team:
    /// both handles are clones of one `Pool::new`, or both are inline-
    /// serial pools (which carry no team state at all). Executors pinned
    /// to a team can be shared across drivers exactly when this holds.
    pub fn same_team(&self, other: &Pool) -> bool {
        match (&self.shared, &other.shared) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Background workers currently alive (excludes the submitting
    /// thread; always `workers() - 1` for a healthy team).
    pub fn alive_workers(&self) -> usize {
        match &self.shared {
            None => 0,
            Some(sh) => sh.state.lock().alive,
        }
    }

    /// Workers respawned after unexpected deaths (poisoned-team
    /// rebuilds performed by [`for_each_chunk`](Self::for_each_chunk)).
    pub fn rebuilds(&self) -> u64 {
        match &self.shared {
            None => 0,
            Some(sh) => sh.rebuilds.load(Ordering::Relaxed),
        }
    }

    /// Run `body` over every index in `0..len`, in parallel chunks.
    ///
    /// `body` receives a contiguous sub-range; ranges partition `0..len`
    /// exactly once each. The closure must be `Sync` because multiple
    /// workers invoke it concurrently.
    pub fn for_each_chunk<F>(&self, len: usize, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        self.for_each_chunk_in(&Faults::inert(), len, body)
    }

    /// [`for_each_chunk`](Self::for_each_chunk) as a region of the run
    /// that holds `faults`: the pool's two fault sites (worker panic,
    /// worker death) fire through that plan for this region only. The
    /// team is shared between runs; the plan is not.
    pub fn for_each_chunk_in<F>(&self, faults: &Faults, len: usize, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if len == 0 {
            return;
        }
        let Some(shared) = &self.shared else {
            body(0..len);
            return;
        };
        // Chunk size: aim for ~4 chunks per worker to absorb imbalance
        // while keeping claim traffic low.
        let chunk = (len / (self.workers * 4)).max(1);
        let job = Job {
            body: &body as *const F as *const (),
            call: call_body::<F>,
            len,
            chunk,
            faults: faults.clone(),
        };
        let _region = shared.region.lock();
        {
            let mut st = shared.state.lock();
            // Poisoned-team rebuild: replace workers that died (injected
            // deaths, or a panic that escaped the body's catch_unwind)
            // so the team never shrinks permanently and `pending` below
            // matches the workers that will actually check in.
            let target = self.workers - 1;
            if st.alive < target {
                let missing = target - st.alive;
                shared.rebuilds.fetch_add(missing as u64, Ordering::Relaxed);
                for w in 0..missing {
                    shared.spawn_worker(st.alive + w);
                }
                st.alive = target;
            }
            shared.cursor.store(0, Ordering::Relaxed);
            st.job = Some(job.clone());
            st.epoch += 1;
            st.pending = st.alive;
            st.panicked = false;
            shared.work_cv.notify_all();
        }
        // The submitting thread is a full team member.
        let main_result = catch_unwind(AssertUnwindSafe(|| {
            drain(&shared.cursor, &job);
        }));
        let worker_panicked = {
            let mut st = shared.state.lock();
            while st.pending > 0 {
                shared.done_cv.wait(&mut st);
            }
            st.job = None;
            st.panicked
        };
        if worker_panicked {
            panic!("worker panicked inside Pool::for_each_chunk");
        }
        if let Err(payload) = main_result {
            resume_unwind(payload);
        }
    }

    /// Run `body(r)` for every `r` in `0..ranks`, each on its own
    /// dedicated OS thread (as opposed to the region-level chunks of
    /// [`for_each_chunk`](Self::for_each_chunk)). The driver's rank team
    /// passes its worker count here, one body per worker.
    ///
    /// Bodies block on each other (halo mailbox receives), so they must
    /// not share the bounded worker team — `ranks` may exceed
    /// `workers()`, and a worker waiting on a peer that cannot be
    /// scheduled would deadlock. Dedicated scoped threads sidestep that:
    /// every body is always runnable. Kernel-level parallelism inside a
    /// body still goes through this pool's region protocol.
    ///
    /// If any rank body panics, the first panic payload is re-raised on
    /// the caller after *all* rank threads have exited (bodies must
    /// arrange their own wakeups — e.g. the halo mailboxes' sender count
    /// — so peers blocked on the panicked rank unwind rather than hang).
    pub fn rank_scope<F>(&self, ranks: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        if ranks <= 1 {
            if ranks == 1 {
                body(0);
            }
            return;
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..ranks)
                .map(|r| {
                    let b = &body;
                    std::thread::Builder::new()
                        .name(format!("fv3-rank-worker-{r}"))
                        .spawn_scoped(s, move || b(r))
                        .expect("failed to spawn rank thread")
                })
                .collect();
            let mut payload = None;
            for h in handles {
                if let Err(p) = h.join() {
                    payload.get_or_insert(p);
                }
            }
            if let Some(p) = payload {
                resume_unwind(p);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn chunks_partition_range_exactly() {
        for workers in [1, 2, 4, 7] {
            let pool = Pool::new(workers);
            for len in [0usize, 1, 5, 100, 1023] {
                let hits: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
                pool.for_each_chunk(len, |r| {
                    for i in r {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} len {len}");
                }
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_many_regions() {
        // The point of the persistent team: many back-to-back regions on
        // one pool, no respawn, no cross-region state leakage.
        let pool = Pool::new(4);
        for len in [1usize, 17, 256, 1000] {
            for _ in 0..20 {
                let total = AtomicU64::new(0);
                pool.for_each_chunk(len, |r| {
                    total.fetch_add(r.map(|i| i as u64).sum(), Ordering::Relaxed);
                });
                assert_eq!(total.load(Ordering::Relaxed), (len as u64 - 1) * len as u64 / 2);
            }
        }
    }

    #[test]
    fn clones_share_one_team() {
        let pool = Pool::new(3);
        let clone = pool.clone();
        let total = AtomicU64::new(0);
        pool.for_each_chunk(100, |r| {
            total.fetch_add(r.len() as u64, Ordering::Relaxed);
        });
        clone.for_each_chunk(50, |r| {
            total.fetch_add(r.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 150);
        drop(pool);
        // Team must stay alive while any clone exists.
        clone.for_each_chunk(10, |r| {
            total.fetch_add(r.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 160);
    }

    #[test]
    fn same_team_tracks_shared_workers() {
        let a = Pool::new(3);
        let b = a.clone();
        let c = Pool::new(3);
        assert!(a.same_team(&b), "clones share one team");
        assert!(!a.same_team(&c), "independent pools are distinct teams");
        // Inline-serial pools have no team state to diverge on.
        assert!(Pool::new(1).same_team(&Pool::new(1)));
        assert!(!a.same_team(&Pool::new(1)));
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = Pool::new(1);
        let tid = std::thread::current().id();
        let mut seen = None;
        // A FnMut trick: use a cell to capture inside Fn.
        let cell = parking_lot::Mutex::new(&mut seen);
        pool.for_each_chunk(10, |_| {
            **cell.lock() = Some(std::thread::current().id());
        });
        assert_eq!(seen, Some(tid));
    }

    #[test]
    fn host_pool_has_at_least_one_worker() {
        assert!(Pool::host().workers() >= 1);
    }

    #[test]
    fn body_panic_propagates_and_pool_survives() {
        let pool = Pool::new(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_chunk(100, |_| panic!("boom"));
        }));
        assert!(caught.is_err());
        // The team must still be usable after a panicked region.
        let total = AtomicU64::new(0);
        pool.for_each_chunk(100, |r| {
            total.fetch_add(r.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn rank_scope_runs_every_rank_on_its_own_thread() {
        let pool = Pool::new(2);
        let ids = Mutex::new(std::collections::HashSet::new());
        let hits: Vec<AtomicU64> = (0..12).map(|_| AtomicU64::new(0)).collect();
        pool.rank_scope(12, |r| {
            hits[r].fetch_add(1, Ordering::Relaxed);
            ids.lock().insert(std::thread::current().id());
        });
        for (r, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "rank {r}");
        }
        // More ranks than workers, all genuinely concurrent threads.
        assert_eq!(ids.lock().len(), 12);
    }

    #[test]
    fn rank_scope_can_block_on_peers_beyond_worker_count() {
        // A barrier across more ranks than workers: only possible when
        // every rank has a dedicated thread (pool workers would deadlock).
        let pool = Pool::new(1);
        let barrier = std::sync::Barrier::new(8);
        pool.rank_scope(8, |_| {
            barrier.wait();
        });
    }

    #[test]
    fn rank_scope_propagates_panics_after_joining_all() {
        let pool = Pool::new(2);
        let done = AtomicU64::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.rank_scope(6, |r| {
                if r == 3 {
                    panic!("rank 3 failed");
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(caught.is_err());
        // Every non-panicking rank still ran to completion (joined).
        assert_eq!(done.load(Ordering::Relaxed), 5);
    }
}
