//! A persistent chunk-claiming worker pool for the litho hot paths.
//!
//! The seed engine spawned fresh OS threads inside every `aerial_image`
//! call via `std::thread::scope`. This module keeps a process-wide set of
//! workers alive instead (plus explicit pools for tests), parked on a
//! condvar between jobs. Tasks of a job are claimed with an atomic counter
//! ("work-stealing-lite": idle workers keep pulling the next unclaimed task
//! index, so uneven task costs still balance), and the submitting thread
//! participates in its own job, which both avoids a context switch for
//! single-task jobs and guarantees forward progress even when every worker
//! is busy with an outer job (nested `run` calls therefore cannot deadlock —
//! they degrade to the submitter draining its own tasks).
//!
//! Worker count resolution for the shared pool: the `CARDOPC_THREADS`
//! environment variable when set, otherwise `std::thread::available_
//! parallelism()` — queried exactly once, never per call.

use crate::error::LithoError;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A lifetime-erased pointer to the job closure.
///
/// Soundness: `WorkerPool::run` does not return until every task of its job
/// has completed (`pending == 0`), so the closure outlives every dereference
/// of this pointer. Workers never call the closure for task indices `>=
/// total`, and never touch the pointer again once `pending` reaches zero.
struct JobFn(*const (dyn Fn(usize) + Sync));
unsafe impl Send for JobFn {}
unsafe impl Sync for JobFn {}

struct Job {
    func: JobFn,
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Total number of tasks.
    total: usize,
    /// Tasks claimed but not yet finished plus tasks unclaimed.
    pending: AtomicUsize,
    /// Set when any task panicked (the panic is rethrown by `run`).
    panicked: AtomicBool,
}

impl Job {
    /// Claims and runs tasks until the job is drained. Returns once no more
    /// tasks are claimable (other workers may still be finishing theirs).
    fn drain(&self) -> bool {
        let mut finished_last = false;
        loop {
            let t = self.next.fetch_add(1, Ordering::Relaxed);
            if t >= self.total {
                return finished_last;
            }
            let f = unsafe { &*self.func.0 };
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(t))).is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            finished_last = self.pending.fetch_sub(1, Ordering::AcqRel) == 1;
        }
    }
}

#[derive(Default)]
struct PoolState {
    job: Option<Arc<Job>>,
    /// Bumped when a new job is installed so sleeping workers can tell a new
    /// job from one they already drained.
    generation: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Wakes workers when a job is installed or the pool shuts down.
    work_ready: Condvar,
    /// Wakes submitters when the last task of a job finishes.
    job_done: Condvar,
}

impl Shared {
    /// Locks the pool state, recovering from mutex poisoning.
    ///
    /// Task panics are caught inside [`Job::drain`] (never under the lock),
    /// so a poisoned mutex can only come from a panic in one of the trivial
    /// critical sections below — all of which leave `PoolState` in a valid
    /// state (plain assignments). Recovering keeps an otherwise-healthy
    /// pool usable instead of cascading panics into every later job.
    fn lock_state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A value on cache lines of its own, so slots that different executors
/// write never share one (128 bytes: x86 prefetches lines in pairs).
#[derive(Clone, Copy, Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

/// A fixed-size persistent worker pool.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Worker threads plus the participating submitter.
    parallelism: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("parallelism", &self.parallelism)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `parallelism` total executors (the submitting
    /// thread counts as one, so `parallelism - 1` worker threads are
    /// spawned; `parallelism <= 1` spawns none and `run` executes inline).
    ///
    /// When the OS refuses a thread, the pool degrades to the executors
    /// that did spawn (worst case: inline execution on the submitter) —
    /// use [`WorkerPool::try_new`] to surface spawn failures instead.
    pub fn new(parallelism: usize) -> WorkerPool {
        Self::build(parallelism).0
    }

    /// [`WorkerPool::new`], surfacing thread-spawn failures as
    /// [`LithoError::WorkerSpawn`] instead of silently degrading.
    ///
    /// # Errors
    ///
    /// [`LithoError::WorkerSpawn`] when any worker thread could not be
    /// spawned (already-spawned workers are shut down and joined).
    pub fn try_new(parallelism: usize) -> Result<WorkerPool, LithoError> {
        let (pool, err) = Self::build(parallelism);
        match err {
            None => Ok(pool),
            Some(e) => Err(e), // dropping `pool` joins the partial spawn set
        }
    }

    /// Spawns up to `parallelism - 1` workers, stopping at the first spawn
    /// failure; returns the (possibly degraded) pool and the failure.
    fn build(parallelism: usize) -> (WorkerPool, Option<LithoError>) {
        let parallelism = parallelism.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState::default()),
            work_ready: Condvar::new(),
            job_done: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(parallelism - 1);
        let mut err = None;
        for i in 1..parallelism {
            let worker_shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("cardopc-litho-{i}"))
                .spawn(move || worker_loop(&worker_shared))
            {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    err = Some(LithoError::WorkerSpawn(e.to_string()));
                    break;
                }
            }
        }
        let pool = WorkerPool {
            shared,
            parallelism: handles.len() + 1,
            handles,
        };
        (pool, err)
    }

    /// The process-wide pool shared by the litho engine, pixel ILT and the
    /// benchmark harness. Sized once from `CARDOPC_THREADS` (when set to a
    /// positive integer) or `std::thread::available_parallelism()`.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(configured_parallelism()))
    }

    /// Total executors (worker threads + the participating submitter).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// The parallelism [`WorkerPool::global`] resolves to:
    /// `CARDOPC_THREADS` when set to a positive integer, otherwise the
    /// machine's available parallelism. Exposed so embedders (the
    /// `cardopc` CLI and `cardopc-serve`) can document and implement
    /// thread-count precedence against the same source of truth.
    pub fn configured_parallelism() -> usize {
        configured_parallelism()
    }

    /// Runs `f(0..tasks)` across the pool, returning when every task has
    /// finished. Tasks are claimed dynamically in ascending index order.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic) if any task panicked.
    pub fn run(&self, tasks: usize, f: impl Fn(usize) + Sync) {
        if tasks == 0 {
            return;
        }
        if tasks == 1 || self.parallelism <= 1 {
            for t in 0..tasks {
                f(t);
            }
            return;
        }

        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // Erase the closure's lifetime; see `JobFn` for the soundness
        // argument (this function blocks until `pending == 0`).
        let func = JobFn(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f_ref as *const _)
        });
        let job = Arc::new(Job {
            func,
            next: AtomicUsize::new(0),
            total: tasks,
            pending: AtomicUsize::new(tasks),
            panicked: AtomicBool::new(false),
        });

        {
            let mut state = self.shared.lock_state();
            state.job = Some(Arc::clone(&job));
            state.generation = state.generation.wrapping_add(1);
            self.shared.work_ready.notify_all();
        }

        // Participate in our own job.
        job.drain();

        // Wait for stragglers, then retire the job slot if it is still ours.
        let mut state = self.shared.lock_state();
        while job.pending.load(Ordering::Acquire) != 0 {
            state = self
                .shared
                .job_done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state
            .job
            .as_ref()
            .is_some_and(|current| Arc::ptr_eq(current, &job))
        {
            state.job = None;
        }
        drop(state);

        if job.panicked.load(Ordering::Acquire) {
            panic!("litho worker task panicked");
        }
    }

    /// Runs one task per slot, handing each task exclusive mutable access to
    /// its slot — the scatter/gather idiom of the litho hot loops (per-task
    /// scratch buffers + partial accumulators, reduced by the caller in slot
    /// order afterwards).
    pub fn run_with_slots<S: Send>(&self, slots: &mut [S], f: impl Fn(usize, &mut S) + Sync) {
        struct SlicePtr<S>(*mut S);
        // Safety: each slot is handed to exactly one task (indices are
        // distinct) and `run` joins every task before returning, so the
        // mutable borrows are disjoint and contained in `slots`'s borrow.
        unsafe impl<S: Send> Send for SlicePtr<S> {}
        unsafe impl<S: Send> Sync for SlicePtr<S> {}
        impl<S> SlicePtr<S> {
            #[allow(clippy::mut_from_ref)]
            unsafe fn get(&self, i: usize) -> &mut S {
                &mut *self.0.add(i)
            }
        }
        let base = SlicePtr(slots.as_mut_ptr());
        self.run(slots.len(), |i| {
            // Safety: `i < slots.len()` and each index occurs at most once.
            f(i, unsafe { base.get(i) });
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.lock_state();
            state.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut state = shared.lock_state();
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation != seen_generation {
                    seen_generation = state.generation;
                    if let Some(job) = state.job.clone() {
                        break job;
                    }
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if job.drain() {
            // This worker finished the job's last task: wake the submitter.
            let _guard = shared.lock_state();
            shared.job_done.notify_all();
        }
    }
}

/// Resolves the shared pool's parallelism from `CARDOPC_THREADS` or the
/// machine's available parallelism (queried once, at pool construction).
fn configured_parallelism() -> usize {
    if let Ok(v) = std::env::var("CARDOPC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        for tasks in [0usize, 1, 2, 7, 64, 1000] {
            let hits: Vec<AtomicU64> = (0..tasks).map(|_| AtomicU64::new(0)).collect();
            pool.run(tasks, |t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            });
            for (t, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "task {t} of {tasks}");
            }
        }
    }

    #[test]
    fn single_threaded_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.parallelism(), 1);
        let mut order = Vec::new();
        let order_cell = std::sync::Mutex::new(&mut order);
        pool.run(5, |t| order_cell.lock().unwrap().push(t));
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = WorkerPool::new(3);
        let counter = AtomicU64::new(0);
        for _ in 0..50 {
            pool.run(16, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 800);
    }

    #[test]
    fn nested_run_makes_progress() {
        let pool = WorkerPool::new(2);
        let counter = AtomicU64::new(0);
        pool.run(4, |_| {
            pool.run(8, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn panicking_task_propagates_without_deadlock() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(8, |t| {
                if t == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "panic should propagate");
        // And the pool must still be usable afterwards.
        let counter = AtomicU64::new(0);
        pool.run(4, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn try_new_spawns_and_runs() {
        let pool = WorkerPool::try_new(3).expect("spawn failed");
        assert_eq!(pool.parallelism(), 3);
        let counter = AtomicU64::new(0);
        pool.run(9, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn global_pool_initialises_once() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.parallelism() >= 1);
    }
}
