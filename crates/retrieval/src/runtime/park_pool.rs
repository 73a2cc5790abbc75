//! The serving runtime's one park/wake protocol.
//!
//! The [`ServingRuntime`](crate::ServingRuntime)'s admission queue is the
//! only queue between `submit` and the engine, and its resident workers
//! park on it: one mutex guards the queued requests, and one condvar
//! wakes a parked worker when a request arrives. Every resident thread
//! in this crate is one of those workers, spawned here once per runtime,
//! so steady-state request processing performs zero thread spawns (a
//! [`ShardedEngine`](crate::shard::ShardedEngine) gathers its shards
//! inline on the serving worker). Index builds hold no resident thread:
//! they fork/join on scoped threads through [`amcad_mnn::fork_join()`].
//!
//! [`PersistentPool`] is what remains of the pool the runtime's workers
//! used to belong to: a width and [`PersistentPool::run`], a forward to
//! `fork_join`.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the park/wake protocol: std::sync::Condvar only pairs with a std MutexGuard (poison is recovered in lock() below), and spawn_workers spawns every resident worker of the serving runtime"
)]

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use super::QueuedRequest;

/// Lock a mutex, recovering the guard if a previous holder panicked.
///
/// Requests are served outside the lock and every update under it is a
/// push, a drain or a counter or flag store, so a poisoned queue is
/// always valid to re-enter; propagating the poison would instead wedge
/// every parked worker.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Default)]
struct Queue {
    items: VecDeque<QueuedRequest>,
    /// Workers waiting on the condvar. A worker counts itself under the
    /// lock before it waits, so a push that sees zero needs no signal:
    /// every worker will check the queue before it parks again.
    parked: usize,
    /// Inside the mutex on purpose: a flag outside it races with the
    /// condvar wait (worker observes `false`, `close` sets it and
    /// notifies before the worker parks, worker sleeps forever).
    closed: bool,
}

/// The runtime's bounded admission queue, which its workers park on.
#[derive(Default)]
pub(super) struct AdmissionQueue {
    queue: Mutex<Queue>,
    ready: Condvar,
}

impl AdmissionQueue {
    /// Queue `item` unless `depth` requests already are, and wake a
    /// parked worker if there is one. `false`: the queue was full and
    /// `item` is dropped.
    pub(super) fn push(&self, item: QueuedRequest, depth: usize) -> bool {
        let wake = {
            let mut queue = lock(&self.queue);
            if queue.items.len() >= depth {
                return false;
            }
            queue.items.push_back(item);
            queue.parked > 0
        };
        if wake {
            self.ready.notify_one();
        }
        true
    }

    /// Park until requests are queued, then move up to `max` of them
    /// into `batch`. `false` once the queue is closed: the worker's cue
    /// to exit.
    pub(super) fn next_batch(&self, max: usize, batch: &mut Vec<QueuedRequest>) -> bool {
        let mut queue = lock(&self.queue);
        // park loop: ends when a request is queued or the queue closes;
        // a spurious wake-up, or a request another worker took first,
        // parks again
        while queue.items.is_empty() {
            if queue.closed {
                return false;
            }
            queue.parked += 1;
            queue = self
                .ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            queue.parked -= 1;
        }
        let n = queue.items.len().min(max);
        batch.extend(queue.items.drain(..n));
        true
    }

    /// Requests currently queued.
    pub(super) fn len(&self) -> usize {
        lock(&self.queue).items.len()
    }

    /// Close the queue and wake every parked worker to exit. Returns the
    /// requests still queued, for the caller to resolve.
    pub(super) fn close(&self) -> VecDeque<QueuedRequest> {
        let leftovers = {
            let mut queue = lock(&self.queue);
            queue.closed = true;
            std::mem::take(&mut queue.items)
        };
        self.ready.notify_all();
        leftovers
    }
}

/// Spawn `threads` resident workers, each running `work` until it
/// returns.
pub(super) fn spawn_workers<F>(threads: usize, work: F) -> Vec<JoinHandle<()>>
where
    F: Fn() + Clone + Send + 'static,
{
    (0..threads)
        .map(|_| std::thread::spawn(work.clone()))
        .collect()
}

/// Fork/join at a fixed width: [`amcad_mnn::fork_join()`] behind the
/// surface of the pool the serving runtime no longer uses. It holds no
/// thread. The reference benchmark's `pool.dispatch_us` times
/// [`PersistentPool::run`], and the type leaves together with that
/// metric (ROADMAP item 2(f)).
#[derive(Debug)]
pub struct PersistentPool {
    threads: usize,
}

impl PersistentPool {
    /// A pool `threads` wide (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        PersistentPool {
            threads: threads.max(1),
        }
    }

    /// The width [`PersistentPool::run`] forks at.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `jobs` closures `threads()` at a time, returning their results
    /// in job order: [`amcad_mnn::fork_join()`] at this pool's width, on
    /// scoped threads. Jobs may borrow the caller's state; a panic in any
    /// job is re-raised here after every job has run.
    pub fn run<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        amcad_mnn::fork_join(self.threads, jobs, f)
    }
}

#[cfg(test)]
impl AdmissionQueue {
    /// Workers currently parked on the queue.
    pub(super) fn parked(&self) -> usize {
        lock(&self.queue).parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_is_fork_join_at_the_pool_width() {
        assert_eq!(PersistentPool::new(0).threads(), 1);
        for threads in [1, 3] {
            let pool = PersistentPool::new(threads);
            assert_eq!(pool.threads(), threads);
            let square = |i: usize| i * i;
            assert_eq!(
                pool.run(13, square),
                amcad_mnn::fork_join(threads, 13, square)
            );
        }
    }
}
