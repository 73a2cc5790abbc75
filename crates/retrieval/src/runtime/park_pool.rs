//! Persistent parked worker pool.
//!
//! [`PersistentPool`] spawns its workers once and parks them on a condvar
//! while its task queue is empty, instead of spawning threads per call.
//! Every resident thread in this crate is a pool worker, and this file
//! holds the one park/wake protocol: the
//! [`ServingRuntime`](crate::ServingRuntime)'s workers are the resident
//! threads of a pool it owns, which runs its admission-queue drains, so
//! steady-state request processing performs zero thread spawns (a
//! [`ShardedEngine`](crate::shard::ShardedEngine) gathers its shards
//! inline on the serving worker).
//!
//! The pool is one FIFO queue of `'static` fire-and-forget tasks
//! ([`PersistentPool::spawn`]); results travel back through whatever
//! channel a task captures. Fork/join over borrowed data is not the
//! pool's job: index builds run on scoped threads through
//! [`amcad_mnn::fork_join()`], which [`PersistentPool::run`] forwards to.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
// amcad-lint: allow(no-std-sync-primitives) — the park/wake protocol needs std::sync::Condvar, which only pairs with std MutexGuard; poison is recovered manually in lock() below
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Lock a mutex, recovering the guard if a previous holder panicked.
///
/// Tasks run outside the lock and every update under it is a single
/// push, pop or flag store, so a poisoned queue is always valid to
/// re-enter; propagating the poison would instead wedge every parked
/// worker.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

type Task = Box<dyn FnOnce() + Send + 'static>;

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

/// A fixed set of condvar-parked resident worker threads, spawned once
/// and reused for every task (see the module docs).
pub struct PersistentPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for PersistentPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl PersistentPool {
    /// Spawn exactly `threads` resident workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self { shared, workers }
    }

    /// Resident worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Run `jobs` closures `threads()` at a time, returning their results
    /// in job order: [`amcad_mnn::fork_join()`] at this pool's width, on
    /// scoped threads rather than the resident workers. Jobs may borrow
    /// the caller's state; a panic in any job is re-raised here after
    /// every job has run.
    pub fn run<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        amcad_mnn::fork_join(self.threads(), jobs, f)
    }

    /// Queue a fire-and-forget task for the resident workers. A panic in
    /// the task is caught and dropped; the worker lives on.
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'static,
    {
        lock(&self.shared.queue).tasks.push_back(Box::new(task));
        self.shared.work_ready.notify_one();
    }
}

impl Drop for PersistentPool {
    /// Raise the shutdown flag and join the workers, which first run every
    /// task already queued.
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            // tasks are caught, so a worker never panics; joining its
            // handle only waits for it
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    // worker lifetime loop: returns via the shutdown flag checked under
    // the queue lock; each iteration executes one queued task
    loop {
        let task = {
            let mut queue = lock(&shared.queue);
            // dequeue loop: breaks with a task, or returns on shutdown once
            // the queue is empty; parks on the condvar while it is empty
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break task;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // a panicking task must not take the resident worker down with it
        let _ = catch_unwind(AssertUnwindSafe(task));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
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
    fn dropping_the_pool_runs_every_queued_task_before_joining() {
        let pool = PersistentPool::new(1);
        // the sole worker parks inside this task until `drop` has raised
        // the shutdown flag, so the counting tasks are still queued then
        let shared = Arc::clone(&pool.shared);
        pool.spawn(move || {
            let mut queue = lock(&shared.queue);
            while !queue.shutdown {
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        });
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn panicking_spawned_task_leaves_workers_alive() {
        let pool = PersistentPool::new(1);
        pool.spawn(|| panic!("fire-and-forget panic"));
        // the sole resident worker must still take further spawns after
        // eating the panic, and fork/join beside it is unaffected
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
