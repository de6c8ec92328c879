//! The work-stealing thread pool and its scoped spawn API.
//!
//! Architecture (one instance per [`ThreadPool`]):
//!
//! * every worker owns a Chase–Lev deque ([`crate::deque`]); all other
//!   workers (and the scope caller) hold stealers onto it;
//! * external spawns land in a mutex-protected *injector* queue; an idle
//!   worker grabs a small batch from it into its own deque, so the mutex
//!   is touched once per batch rather than once per task;
//! * spawns from *inside* a task push straight onto the running worker's
//!   own deque (no lock);
//! * sleep/wake uses one condvar with an epoch counter: every task
//!   publication or completion bumps the epoch under the lock, and a
//!   worker only parks after re-checking the epoch it went idle on — no
//!   lost wakeups;
//! * [`ThreadPool::scope`] blocks until every spawned task finished, and
//!   the calling thread *helps execute* while it waits, so a pool built
//!   with `threads = N` runs N tasks concurrently (N−1 workers + caller).
//!
//! Panics inside tasks are caught, the first payload is kept, and
//! [`ThreadPool::scope`] re-raises it after all tasks have drained — a
//! panicking cell cannot deadlock the sweep or poison the pool.

use crate::deque::{deque, Owner, Steal, Stealer};
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Lock a pool mutex, recovering from poisoning.
///
/// Every critical section in this module leaves its data structurally
/// valid (queues stay queues, counters stay counters), so a poisoned lock
/// only records that *some* thread panicked — and panicking *again* while
/// already unwinding (e.g. in [`ScopeState::record_panic`]) would abort
/// the process instead of reporting the original panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A task: the erased closure, the scope it must report completion to and
/// its submitter's failpoint scenario.
struct TaskCell {
    run: Box<dyn FnOnce() + Send + 'static>,
    scope: Arc<ScopeState>,
    carry: wmh_fault::Carry,
}

/// Tasks travel through the deques as raw `usize` payloads.
fn into_payload(cell: Box<TaskCell>) -> usize {
    Box::into_raw(cell) as usize
}

fn from_payload(payload: usize) -> Box<TaskCell> {
    // SAFETY: payloads only ever come from `into_payload`, and the deque
    // protocol hands each payload to exactly one consumer.
    unsafe { Box::from_raw(payload as *mut TaskCell) }
}

/// Guarded queue state behind the pool mutex.
struct Inbox {
    /// Externally spawned tasks waiting for a worker.
    injected: VecDeque<usize>,
    /// Bumped on every publication/completion; parks re-check it.
    epoch: u64,
    /// Set once, by [`ThreadPool::drop`].
    shutdown: bool,
}

struct Shared {
    inbox: Mutex<Inbox>,
    wakeup: Condvar,
    /// One stealer per worker, in worker order.
    stealers: Vec<Stealer>,
}

impl Shared {
    /// Publish a state change (new task or completion) and wake sleepers.
    fn bump(&self) {
        let mut inbox = lock(&self.inbox);
        inbox.epoch = inbox.epoch.wrapping_add(1);
        drop(inbox);
        self.wakeup.notify_all();
    }
}

/// Per-scope completion state.
struct ScopeState {
    pending: AtomicUsize,
    /// First panic payload from any task in this scope.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    fn record_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = lock(&self.panic);
        slot.get_or_insert(payload);
    }
}

thread_local! {
    /// The deque owner of the worker currently running on this thread,
    /// if any — lets nested spawns skip the injector.
    static CURRENT_WORKER: RefCell<Option<Arc<WorkerHandle>>> = const { RefCell::new(None) };
}

/// Shared handle to one worker's own deque (the owner side is only used
/// from that worker's thread; the mutex enforces it cheaply).
struct WorkerHandle {
    own: Mutex<Owner>,
}

/// Execute one task, reporting panics and completion to its scope.
fn run_task(shared: &Shared, payload: usize) {
    let TaskCell { run, scope, carry } = *from_payload(payload);
    carry.run(|| {
        // Delay-only injection site: chaos scenarios stall workers here
        // (`par::worker_delay=p0.3:sleep2ms`) to shuffle task interleavings;
        // a `fail` action makes no sense for a spawned task, so the result
        // is deliberately ignored.
        let _ = wmh_fault::point!("par::worker_delay");
        if let Err(panic) = catch_unwind(AssertUnwindSafe(run)) {
            scope.record_panic(panic);
        }
    });
    if scope.pending.fetch_sub(1, Ordering::Release) == 1 {
        shared.bump(); // last task: wake the scope caller
    }
}

/// How many injected tasks a worker moves to its own deque at once.
const INJECTOR_BATCH: usize = 16;

/// Grab a batch from the injector into `own`, returning one task to run.
fn grab_injected(shared: &Shared, own: Option<&Owner>) -> Option<usize> {
    let mut inbox = lock(&shared.inbox);
    let first = inbox.injected.pop_front()?;
    if let Some(own) = own {
        for _ in 0..INJECTOR_BATCH {
            match inbox.injected.pop_front() {
                Some(task) => own.push(task),
                None => break,
            }
        }
    }
    drop(inbox);
    // Tasks moved into a deque are visible to thieves; let sleepers know.
    shared.bump();
    Some(first)
}

/// Steal one task from any other worker. `skip` is the caller's own index
/// (`usize::MAX` for the scope caller).
fn steal_any(shared: &Shared, skip: usize) -> Option<usize> {
    loop {
        let mut saw_retry = false;
        for (i, stealer) in shared.stealers.iter().enumerate() {
            if i == skip {
                continue;
            }
            match stealer.steal() {
                Steal::Success(task) => return Some(task),
                Steal::Retry => saw_retry = true,
                Steal::Empty => {}
            }
        }
        if !saw_retry {
            return None;
        }
        std::hint::spin_loop();
    }
}

/// The worker main loop.
fn worker_loop(shared: &Shared, index: usize, own: Arc<WorkerHandle>) {
    CURRENT_WORKER.with(|w| *w.borrow_mut() = Some(Arc::clone(&own)));
    let mut seen_epoch = lock(&shared.inbox).epoch;
    loop {
        // Drain: own deque first, then the injector, then other workers.
        loop {
            let next = {
                let owner = lock(&own.own);
                owner.pop()
            };
            let next = next
                .or_else(|| {
                    let owner = lock(&own.own);
                    grab_injected(shared, Some(&owner))
                })
                .or_else(|| steal_any(shared, index));
            match next {
                Some(task) => run_task(shared, task),
                None => break,
            }
        }
        // Nothing found: park unless the epoch moved since the drain began.
        let mut inbox = lock(&shared.inbox);
        if inbox.shutdown {
            return;
        }
        if inbox.epoch == seen_epoch {
            inbox = shared.wakeup.wait(inbox).unwrap_or_else(PoisonError::into_inner);
        }
        seen_epoch = inbox.epoch;
    }
}

/// A fixed-size work-stealing thread pool.
///
/// ```
/// let pool = wmh_par::ThreadPool::new(4);
/// let mut squares = vec![0usize; 32];
/// pool.scope(|scope| {
///     for (i, slot) in squares.iter_mut().enumerate() {
///         scope.spawn(move || *slot = i * i);
///     }
/// });
/// assert_eq!(squares[7], 49);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// A pool that runs up to `threads` tasks concurrently (`threads − 1`
    /// background workers; the thread calling [`Self::scope`] is the
    /// `threads`-th executor). `threads` is clamped to at least 1; with 1,
    /// no background workers exist and the caller runs every task itself.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let worker_count = threads - 1;
        let handles: Vec<Arc<WorkerHandle>> = (0..worker_count)
            .map(|_| {
                let (owner, _) = deque(64);
                Arc::new(WorkerHandle { own: Mutex::new(owner) })
            })
            .collect();
        let stealers = handles.iter().map(|h| lock(&h.own).stealer()).collect();
        let shared = Arc::new(Shared {
            inbox: Mutex::new(Inbox { injected: VecDeque::new(), epoch: 0, shutdown: false }),
            wakeup: Condvar::new(),
            stealers,
        });
        let workers = handles
            .into_iter()
            .enumerate()
            .map(|(index, handle)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wmh-par-{index}"))
                    .spawn(move || worker_loop(&shared, index, handle))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers, threads }
    }

    /// A pool sized to the machine (`available_parallelism`).
    #[must_use]
    pub fn with_available_parallelism() -> Self {
        Self::new(available_parallelism())
    }

    /// The concurrency this pool was built for (workers + helping caller).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` with a [`Scope`] that can spawn borrowing tasks, then block
    /// until every spawned task has finished (helping to execute them).
    ///
    /// # Panics
    /// Re-raises the first panic from `f` or from any spawned task, after
    /// all tasks have drained (so borrowed data is never left aliased).
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let state = Arc::new(ScopeState { pending: AtomicUsize::new(0), panic: Mutex::new(None) });
        let scope = Scope { pool: self, state: Arc::clone(&state), _env: std::marker::PhantomData };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.wait(&state);
        if let Some(panic) = lock(&state.panic).take() {
            std::panic::resume_unwind(panic);
        }
        match result {
            Ok(value) => value,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }

    /// Help execute tasks until `state.pending` reaches zero.
    fn wait(&self, state: &ScopeState) {
        let shared = &*self.shared;
        let mut seen_epoch = lock(&shared.inbox).epoch;
        while state.pending.load(Ordering::Acquire) != 0 {
            let next = grab_injected(shared, None).or_else(|| steal_any(shared, usize::MAX));
            match next {
                Some(task) => run_task(shared, task),
                None => {
                    let mut inbox = lock(&shared.inbox);
                    if state.pending.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    if inbox.epoch == seen_epoch {
                        inbox = shared.wakeup.wait(inbox).unwrap_or_else(PoisonError::into_inner);
                    }
                    seen_epoch = inbox.epoch;
                }
            }
        }
    }

    /// Enqueue an erased task (called by [`Scope::spawn`]).
    fn submit(&self, cell: Box<TaskCell>) {
        let payload = into_payload(cell);
        // A spawn from inside a pool task goes straight to that worker's
        // own deque; external spawns go through the injector.
        let direct = CURRENT_WORKER.with(|w| {
            w.borrow().as_ref().map(|handle| {
                lock(&handle.own).push(payload);
            })
        });
        if direct.is_none() {
            let mut inbox = lock(&self.shared.inbox);
            inbox.injected.push_back(payload);
            drop(inbox);
        }
        self.shared.bump();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut inbox = lock(&self.shared.inbox);
            inbox.shutdown = true;
            inbox.epoch = inbox.epoch.wrapping_add(1);
        }
        self.shared.wakeup.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("threads", &self.threads).finish()
    }
}

/// Spawn handle passed to the closure of [`ThreadPool::scope`]; tasks may
/// borrow from the environment (`'env`), like `std::thread::scope`.
pub struct Scope<'pool, 'env> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Spawn a task. It may borrow from the enclosing environment; the
    /// scope does not return until it has run to completion (or panicked —
    /// the panic is re-raised by [`ThreadPool::scope`]). The task's
    /// failpoints see the caller's `wmh_fault` scenario, whichever thread
    /// runs it.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        let boxed: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: `ThreadPool::scope` does not return before `pending`
        // reaches zero, so the closure (and everything it borrows from
        // `'env`) outlives its execution; the lifetime is only erased to
        // store the task in the pool's queues.
        let boxed: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(boxed) };
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        self.pool.submit(Box::new(TaskCell {
            run: boxed,
            scope: Arc::clone(&self.state),
            carry: wmh_fault::Carry::capture(),
        }));
    }
}

impl std::fmt::Debug for Scope<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope")
            .field("pending", &self.state.pending.load(Ordering::Relaxed))
            .finish()
    }
}

/// The machine's available parallelism (1 when it cannot be determined).
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_pool_runs_everything_on_the_caller() {
        let pool = ThreadPool::new(1);
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(Vec::new());
        pool.scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    ran_on.lock().unwrap().push(std::thread::current().id());
                });
            }
        });
        let ran_on = ran_on.into_inner().unwrap();
        assert_eq!(ran_on.len(), 8);
        assert!(ran_on.iter().all(|&id| id == caller));
    }

    #[test]
    fn scope_tasks_can_borrow_mutably() {
        let pool = ThreadPool::new(3);
        let mut values = vec![0u64; 100];
        pool.scope(|scope| {
            for (i, v) in values.iter_mut().enumerate() {
                scope.spawn(move || *v = (i as u64) * 2);
            }
        });
        assert!(values.iter().enumerate().all(|(i, &v)| v == (i as u64) * 2));
    }

    #[test]
    fn nested_scopes_complete_before_the_outer_scope_returns() {
        let pool = ThreadPool::new(4);
        let count = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..6 {
                let (pool, count) = (&pool, &count);
                scope.spawn(move || {
                    // A task fans out again through a nested scope; the
                    // nested spawns land on the running worker's own deque
                    // and get stolen by the others.
                    pool.scope(|inner| {
                        for _ in 0..5 {
                            inner.spawn(move || {
                                count.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 30);
    }

    #[test]
    fn panic_in_task_propagates_after_drain() {
        let pool = ThreadPool::new(2);
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(|| panic!("deliberate task panic"));
                for _ in 0..20 {
                    let completed = &completed;
                    scope.spawn(move || {
                        completed.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate out of scope");
        assert_eq!(completed.load(Ordering::Relaxed), 20, "other tasks still ran");
        // The pool survives a panicked scope.
        let after = AtomicUsize::new(0);
        pool.scope(|scope| {
            let after = &after;
            scope.spawn(move || {
                after.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(after.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = ThreadPool::new(2);
        let got = pool.scope(|_| 42);
        assert_eq!(got, 42);
    }

    /// Regression for the panic-slot bug: locking a poisoned mutex with
    /// `.expect()` panics *again* — fatal when it happens during
    /// unwinding. `lock` must recover the guard instead.
    #[test]
    fn poisoned_lock_is_recovered_not_repanicked() {
        let mutex = Mutex::new(7);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = mutex.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(mutex.is_poisoned());
        assert_eq!(*lock(&mutex), 7, "lock() must hand back the data, not panic");
    }

    #[test]
    fn repeated_panicking_scopes_leave_the_pool_usable() {
        let pool = ThreadPool::new(4);
        for _ in 0..4 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|scope| {
                    for i in 0..16 {
                        scope.spawn(move || panic!("task {i} down"));
                    }
                });
            }));
            assert!(result.is_err(), "scope must re-raise the task panic");
        }
        let count = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..8 {
                let count = &count;
                scope.spawn(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    /// The delay-injection point stalls workers but never drops tasks.
    #[test]
    fn worker_delay_injection_only_shuffles_schedules() {
        let g = wmh_fault::scenario("par::worker_delay=p0.5:sleep1ms", 9).expect("scenario");
        let pool = ThreadPool::new(4);
        let count = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..32 {
                let count = &count;
                scope.spawn(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 32, "every task must still run");
        assert_eq!(g.hits("par::worker_delay"), 32, "every task passes the point");
        assert!(g.fired("par::worker_delay") > 0, "p0.5 over 32 tasks should fire");
    }
}
