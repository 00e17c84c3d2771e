//! The rank team's width and its threads.
//!
//! This stands in for the paper's MPI ranks (§IV-C): a [`Pool`] of
//! `workers` bounds how many rank threads a parallel substep runs, and
//! [`Pool::rank_scope`] runs them for the substep's duration: the calling
//! thread is the first team member, a scoped thread each the others. Kernels run on the thread that launches
//! them, so the rank threads (and a serving engine's slots) are the only
//! parallelism in a run. `Pool::new` spawns nothing.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// The width of a team of rank threads.
#[derive(Clone, Debug)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A team of up to `workers` rank threads (at least one).
    pub fn new(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
        }
    }

    /// The team's width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `body(r)` for every `r` in `0..ranks`, each on a thread of its
    /// own: bodies `1..ranks` on scoped threads spawned first, then body 0
    /// on the calling thread. The driver's rank team passes its worker
    /// count here, one body per worker.
    ///
    /// Bodies block on each other (halo mailbox receives), so every body
    /// gets a thread of its own — `ranks` may exceed `workers()`, and a
    /// body waiting on a peer that cannot be scheduled would deadlock.
    /// Dedicated threads sidestep that: every body is always runnable,
    /// and body 0 starts only once its peers are spawned.
    ///
    /// If any rank body panics, the first panic payload (in rank order)
    /// is re-raised on the caller after *all* rank threads have exited
    /// (bodies must arrange their own wakeups — e.g. the halo mailboxes'
    /// sender count — so peers blocked on the panicked rank unwind
    /// rather than hang).
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
            let handles: Vec<_> = (1..ranks)
                .map(|r| {
                    let b = &body;
                    std::thread::Builder::new()
                        .name(format!("fv3-rank-worker-{r}"))
                        .spawn_scoped(s, move || b(r))
                        .expect("failed to spawn rank thread")
                })
                .collect();
            let mut payload = catch_unwind(AssertUnwindSafe(|| body(0))).err();
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
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    #[test]
    fn host_pool_has_at_least_one_worker() {
        assert!(Pool::new(crate::RunConfig::from_env().host_workers()).workers() >= 1);
        assert_eq!(Pool::new(0).workers(), 1);
    }

    #[test]
    fn rank_scope_runs_every_rank_on_its_own_thread() {
        let pool = Pool::new(2);
        let ids = Mutex::new(std::collections::HashSet::new());
        let hits: Vec<AtomicU64> = (0..12).map(|_| AtomicU64::new(0)).collect();
        pool.rank_scope(12, |r| {
            hits[r].fetch_add(1, Ordering::Relaxed);
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        for (r, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "rank {r}");
        }
        // More ranks than workers, all genuinely concurrent threads.
        assert_eq!(ids.lock().unwrap().len(), 12);
    }

    #[test]
    fn single_worker_runs_inline() {
        let tid = std::thread::current().id();
        let seen = Mutex::new(None);
        Pool::new(1).rank_scope(1, |_| {
            *seen.lock().unwrap() = Some(std::thread::current().id())
        });
        assert_eq!(seen.into_inner().unwrap(), Some(tid));
    }

    #[test]
    fn rank_scope_can_block_on_peers_beyond_worker_count() {
        // A barrier across more ranks than workers: only possible when
        // every rank has a dedicated thread.
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
