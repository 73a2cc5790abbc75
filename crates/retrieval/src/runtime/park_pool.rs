//! Persistent parked worker pool.
//!
//! [`PersistentPool`] spawns its workers once and parks them on a condvar
//! between batches instead of spawning threads per call.  On the serving
//! path a hedged [`ShardedEngine`](crate::shard::ShardedEngine) submits
//! its shard gathers and hedged sub-requests to a deployment's resident
//! threads, so steady-state request processing performs zero thread
//! spawns (unhedged gathers run inline on the caller).  Offline shard
//! builds run on the same pool type, created for the duration of one
//! build: jobs borrow the caller's locals (no clones, no `'static`
//! bound) and come back in job order, which is what makes a parallel
//! build byte-identical to the sequential loop.
//!
//! Two submission shapes are supported:
//!
//! - [`PersistentPool::run`] — fork/join: `jobs` indexed closures stolen
//!   atomically by index (so a long job never serialises its siblings
//!   behind a static partition), the results re-assembled in job order.  The caller participates in the
//!   work itself (it is one more worker for the duration of the call),
//!   which both guarantees progress on a single-threaded pool and makes
//!   nested `run` calls from inside a pool job deadlock-free.
//! - [`PersistentPool::spawn`] — a fire-and-forget task, used by the
//!   hedged-request path to launch replica gathers whose results are
//!   delivered through a side channel rather than a join.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
// amcad-lint: allow(no-std-sync-primitives) — the park/wake protocol needs std::sync::Condvar, which only pairs with std MutexGuard; poison is recovered manually in lock() below
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Lock a mutex, recovering the guard if a previous holder panicked.
///
/// Pool invariants are maintained by atomic counters, not by the data
/// under the mutexes, so a poisoned lock is always safe to re-enter;
/// propagating the poison would instead wedge every parked worker.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fork/join batch shared between the submitting caller and the
/// resident workers.
///
/// # Safety
///
/// `job` is a raw pointer to a closure that lives on the submitting
/// caller's stack.  The protocol that keeps every dereference inside
/// the closure's lifetime:
///
/// - a worker only dereferences `job` after claiming an index with
///   `next.fetch_add(1)` that satisfies `i < jobs`;
/// - `remaining` starts at `jobs` and is decremented exactly once per
///   claimed index, *after* the closure call for that index returns;
/// - the submitting `run` call blocks until `remaining == 0`, i.e.
///   until every claimed index has finished executing, before its stack
///   frame (and the closure) can unwind;
/// - every `fetch_add` after the first `jobs` claims returns an index
///   `>= jobs`, so late workers that still hold the `Arc<BatchState>`
///   never touch `job` again — they only read the heap-allocated
///   atomic, observe exhaustion, and drop their reference.
struct BatchState {
    job: *const (dyn Fn(usize) + Sync),
    jobs: usize,
    next: AtomicUsize,
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `job` is only dereferenced under the claim protocol described
// on the struct; all other fields are ordinary sync primitives.
unsafe impl Send for BatchState {}
unsafe impl Sync for BatchState {}

impl BatchState {
    /// Steal and execute job indices until the batch is exhausted.
    ///
    /// Called by both the resident workers and the submitting caller.
    /// A panicking job records its payload (first panic wins) and keeps
    /// the accounting intact so the submitter always unblocks.
    fn work(&self) {
        // amcad-lint: allow(unbounded-fanout) — index-claim loop: exits once the shared counter passes `jobs`, which the submitter fixes per batch
        loop {
            // index claim only: RMW atomicity already hands out each index
            // exactly once, and the closure pointer it gates was published
            // by the queue mutex — no extra edge needed, so Relaxed
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.jobs {
                return;
            }
            // SAFETY: `i < jobs`, so the submitting `run` frame is still
            // blocked in `wait()` and the closure is alive (see struct docs).
            let job = unsafe { &*self.job };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(i))) {
                let mut slot = lock(&self.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut remaining = lock(&self.remaining);
            *remaining -= 1;
            if *remaining == 0 {
                self.done.notify_all();
            }
        }
    }

    /// Whether every job index has been claimed (not necessarily finished).
    fn exhausted(&self) -> bool {
        // advisory queue-cleanup check: a stale read only delays popping
        // the finished batch by one wakeup, so Relaxed
        self.next.load(Ordering::Relaxed) >= self.jobs
    }

    /// Block until every claimed job index has finished executing.
    fn wait(&self) {
        let mut remaining = lock(&self.remaining);
        // amcad-lint: allow(unbounded-fanout) — condvar wait loop: bounded by the batch's job count; every finished job decrements `remaining` and the last one notifies
        while *remaining > 0 {
            remaining = self
                .done
                .wait(remaining)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Work queued for the resident workers.
enum Task {
    /// A fork/join batch; workers steal indices until it is exhausted.
    Batch(Arc<BatchState>),
    /// A fire-and-forget task, executed by exactly one worker.
    Once(Box<dyn FnOnce() + Send + 'static>),
}

struct PoolQueue {
    tasks: VecDeque<Task>,
    /// Inside the mutex on purpose: a flag outside it races with the
    /// condvar wait (worker observes `false`, `Drop` sets it and
    /// notifies before the worker parks, worker sleeps forever).
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    work_ready: Condvar,
}

/// A fixed-width pool of condvar-parked worker threads, spawned once
/// and reused for every request (see the module docs).
pub struct PersistentPool {
    shared: Arc<PoolShared>,
    threads: usize,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for PersistentPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl PersistentPool {
    /// Create a pool with `threads` total parallelism (clamped to at
    /// least 1).  `threads - 1` resident workers are spawned: the
    /// caller of [`run`](Self::run) participates in every batch, so a
    /// width-1 pool spawns no threads at all and runs inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self {
            shared,
            threads,
            workers,
        }
    }

    /// Total parallelism of the pool (resident workers + the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `jobs` closures, returning their results in job order.
    ///
    /// The closure receives the job index.  Work is stolen atomically
    /// by index across the resident workers *and the calling thread*,
    /// which claims indices until the batch is exhausted and then waits
    /// for stragglers.  Panics in any job are re-raised here after the
    /// whole batch has settled; the pool remains usable afterwards.
    pub fn run<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.workers.is_empty() || jobs <= 1 {
            return (0..jobs).map(f).collect();
        }

        // One result slot per job; each index is claimed (and therefore
        // written) exactly once, so the disjoint writes need no lock.
        let slots: Vec<std::cell::UnsafeCell<Option<T>>> = (0..jobs)
            .map(|_| std::cell::UnsafeCell::new(None))
            .collect();
        struct Slots<'s, T>(&'s [std::cell::UnsafeCell<Option<T>>]);
        // SAFETY: every index is claimed by exactly one thread via the
        // batch's `fetch_add`, so no two threads touch the same cell.
        unsafe impl<T: Send> Sync for Slots<'_, T> {}
        let shared_slots = Slots(&slots);

        let f = &f;
        let runner = move |i: usize| {
            // Borrow the whole wrapper so the closure captures `Slots`
            // (which is `Sync`), not the raw slice field (which is not).
            let slots = &shared_slots;
            let value = f(i);
            // SAFETY: index `i` was claimed exactly once (see Slots).
            unsafe { *slots.0[i].get() = Some(value) };
        };
        let erased: &(dyn Fn(usize) + Sync) = &runner;
        // SAFETY: lifetime erasure — the field type carries the default
        // `'static` bound, but `runner` only needs to outlive the batch,
        // which `wait()` below guarantees before this frame unwinds (see
        // the `BatchState` safety protocol).
        let erased: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(erased)
        };
        let batch = Arc::new(BatchState {
            job: erased,
            jobs,
            next: AtomicUsize::new(0),
            remaining: Mutex::new(jobs),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });

        {
            let mut queue = lock(&self.shared.queue);
            queue.tasks.push_back(Task::Batch(Arc::clone(&batch)));
        }
        self.shared.work_ready.notify_all();

        // The caller is a worker too: guarantees progress even if every
        // resident worker is busy, and lets a pool job submit a nested
        // batch without deadlocking.
        batch.work();
        batch.wait();

        if let Some(payload) = lock(&batch.panic).take() {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("every job index is claimed exactly once")
            })
            .collect()
    }

    /// Submit a fire-and-forget task to the resident workers.
    ///
    /// On a width-1 pool (no resident workers) the task runs inline on
    /// the calling thread — there is nobody else to run it.
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'static,
    {
        if self.workers.is_empty() {
            task();
            return;
        }
        {
            let mut queue = lock(&self.shared.queue);
            queue.tasks.push_back(Task::Once(Box::new(task)));
        }
        self.shared.work_ready.notify_one();
    }
}

impl Drop for PersistentPool {
    fn drop(&mut self) {
        {
            let mut queue = lock(&self.shared.queue);
            queue.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            // a worker that panicked outside `catch_unwind` is already
            // accounted for; joining its handle just collects the payload
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    // amcad-lint: allow(unbounded-fanout) — worker lifetime loop: returns via the shutdown flag checked under the queue lock; each iteration executes one queued task
    loop {
        let task = {
            let mut queue = lock(&shared.queue);
            // amcad-lint: allow(unbounded-fanout) — dequeue loop: breaks with a task or returns on shutdown; parks on the condvar while the queue is empty
            loop {
                // drop exhausted batches so later tasks become visible
                // amcad-lint: allow(unbounded-fanout) — bounded by the queue length: each iteration pops one exhausted batch
                while matches!(queue.tasks.front(), Some(Task::Batch(b)) if b.exhausted()) {
                    queue.tasks.pop_front();
                }
                match queue.tasks.front() {
                    Some(Task::Batch(batch)) => break Task::Batch(Arc::clone(batch)),
                    Some(Task::Once(_)) => {
                        let Some(task) = queue.tasks.pop_front() else {
                            unreachable!("front() just matched")
                        };
                        break task;
                    }
                    None if queue.shutdown => return,
                    None => {
                        queue = shared
                            .work_ready
                            .wait(queue)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };
        match task {
            Task::Batch(batch) => batch.work(),
            Task::Once(task) => {
                // a panicking fire-and-forget task must not take the
                // resident worker down with it
                let _ = catch_unwind(AssertUnwindSafe(task));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_job_order_across_widths_and_reuse() {
        for threads in [1, 2, 4, 7] {
            let pool = PersistentPool::new(threads);
            // reuse the same pool across multiple runs: the workers are
            // resident, not per-call
            for round in 0..3usize {
                let out = pool.run(13, |i| i * i + round);
                let expect: Vec<usize> = (0..13).map(|i| i * i + round).collect();
                assert_eq!(out, expect, "threads={threads} round={round}");
            }
        }
    }

    #[test]
    fn zero_jobs_and_width_clamp() {
        let pool = PersistentPool::new(0);
        assert_eq!(pool.threads(), 1);
        let out: Vec<usize> = pool.run(0, |i| i);
        assert!(out.is_empty());
        let out = pool.run(1, |i| i + 41);
        assert_eq!(out, vec![41]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let pool = PersistentPool::new(4);
        let counters: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        pool.run(64, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    #[test]
    fn panic_propagates_and_pool_stays_usable() {
        let pool = PersistentPool::new(3);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == 5 {
                    panic!("job 5 exploded");
                }
                i
            })
        }));
        let payload = result.expect_err("the job panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("job 5 exploded"), "got: {msg}");
        // the pool survives a panicking batch
        let out = pool.run(6, |i| i * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn jobs_see_borrowed_state() {
        let pool = PersistentPool::new(4);
        let data: Vec<u64> = (0..32).map(|i| i * 3).collect();
        let out = pool.run(32, |i| data[i] + 1);
        let expect: Vec<u64> = (0..32).map(|i| i * 3 + 1).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn spawned_tasks_execute() {
        let pool = PersistentPool::new(3);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..16 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while hits.load(Ordering::Relaxed) < 16 {
            assert!(
                std::time::Instant::now() < deadline,
                "spawned tasks did not all run"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn spawn_runs_inline_on_a_width_one_pool() {
        let pool = PersistentPool::new(1);
        let hit = AtomicU64::new(0);
        pool.spawn(|| {});
        // inline execution means the side effect is visible immediately
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        pool.spawn(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        let _ = hit;
    }

    #[test]
    fn panicking_spawned_task_leaves_workers_alive() {
        let pool = PersistentPool::new(2);
        pool.spawn(|| panic!("fire-and-forget panic"));
        // the sole resident worker must still process both batches and
        // further spawns after eating the panic
        let out = pool.run(8, |i| i + 1);
        assert_eq!(out, (1..=8).collect::<Vec<_>>());
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        pool.spawn(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while hits.load(Ordering::Relaxed) < 1 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn nested_run_from_inside_a_job_makes_progress() {
        let pool = PersistentPool::new(2);
        let out = pool.run(4, |i| {
            // the caller of the inner run participates in its batch, so
            // this cannot deadlock even with every worker busy
            let inner = pool.run(3, |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..4).map(|i| (0..3).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }
}
