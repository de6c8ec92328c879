//! Concurrency-stress helpers: put threads at a starting line, release
//! them at once, and assert single-threadedness where a design requires
//! it (e.g. the sweep committer).
//!
//! These are deliberately tiny: a [`std::sync::Barrier`]-synchronized
//! fan-out ([`hammer`]) so racy windows actually overlap instead of being
//! serialized by thread startup latency, and a [`SingleThreadWitness`]
//! that records every thread observed at a call site and can attest that
//! exactly one ever reached it.

use std::sync::{Barrier, Mutex};
use std::thread::ThreadId;

/// Run `f(thread_index, iteration)` on `threads` threads, `iters` times
/// each, with a barrier release before the first iteration so all threads
/// enter the hot section together. Every thread runs under the caller's
/// `wmh_fault` scenario, so failpoints in `f` see the caller's faults.
///
/// Panics in any closure propagate to the caller (the panicking thread's
/// payload is re-raised after all threads join).
///
/// # Panics
/// Re-raises the first closure panic; panics if `threads == 0`.
pub fn hammer<F>(threads: usize, iters: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    assert!(threads > 0, "hammer needs at least one thread");
    let barrier = Barrier::new(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, f) = (&barrier, &f);
                let carry = wmh_fault::Carry::capture();
                s.spawn(move || {
                    carry.run(|| {
                        barrier.wait();
                        for i in 0..iters {
                            f(t, i);
                        }
                    });
                })
            })
            .collect();
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// Records the set of threads that reach a call site.
///
/// ```
/// let witness = wmh_check::stress::SingleThreadWitness::new();
/// witness.observe();
/// witness.observe();
/// assert_eq!(witness.distinct_threads(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SingleThreadWitness {
    seen: Mutex<Vec<ThreadId>>,
}

impl SingleThreadWitness {
    /// A fresh witness with no observations.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the calling thread.
    pub fn observe(&self) {
        let id = std::thread::current().id();
        let mut seen = self.seen.lock().expect("witness lock");
        if !seen.contains(&id) {
            seen.push(id);
        }
    }

    /// How many observations happened on distinct threads.
    #[must_use]
    pub fn distinct_threads(&self) -> usize {
        self.seen.lock().expect("witness lock").len()
    }

    /// Whether at least one observation happened, all on a single thread.
    #[must_use]
    pub fn is_single_threaded(&self) -> bool {
        self.distinct_threads() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn hammer_runs_every_iteration() {
        let count = AtomicUsize::new(0);
        hammer(4, 100, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn hammer_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            hammer(2, 10, |t, i| {
                assert!(!(t == 1 && i == 5), "deliberate failure");
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn witness_detects_multiple_threads() {
        let witness = SingleThreadWitness::new();
        hammer(3, 5, |_, _| witness.observe());
        assert_eq!(witness.distinct_threads(), 3);
        assert!(!witness.is_single_threaded());
    }

    #[test]
    fn witness_confirms_a_single_thread() {
        let witness = SingleThreadWitness::new();
        for _ in 0..10 {
            witness.observe();
        }
        assert!(witness.is_single_threaded());
    }
}
