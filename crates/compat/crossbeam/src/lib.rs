//! Minimal offline stand-in for the `crossbeam` crate: scoped threads
//! (delegating to `std::thread::scope`, stable since Rust 1.63).

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Placeholder for the nested-scope argument crossbeam passes to spawned
/// closures (callers in this workspace ignore it with `|_|`).
#[derive(Debug, Clone, Copy)]
pub struct SpawnScope;

/// A scope handle usable to spawn threads that may borrow local state.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

/// Handle to a scoped thread.
pub struct ScopedJoinHandle<'scope, T> {
    inner: std::thread::ScopedJoinHandle<'scope, T>,
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Wait for the thread to finish; `Err` carries its panic payload.
    pub fn join(self) -> std::thread::Result<T> {
        self.inner.join()
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a scoped thread. The closure receives a [`SpawnScope`]
    /// placeholder where crossbeam would pass a nested scope.
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(SpawnScope) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        ScopedJoinHandle {
            inner: self.inner.spawn(move || f(SpawnScope)),
        }
    }
}

/// Create a scope for spawning borrowing threads. Returns `Err` with the
/// panic payload if the closure or any un-joined spawned thread panicked,
/// matching crossbeam's contract.
pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|s| f(&Scope { inner: s }))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scoped_threads_borrow_and_join() {
        let counter = AtomicUsize::new(0);
        let total: usize = scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let counter = &counter;
                    s.spawn(move |_| {
                        counter.fetch_add(1, Ordering::SeqCst);
                        i * 10
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 4);
        assert_eq!(total, 60);
    }

    #[test]
    fn panicking_thread_surfaces_as_err() {
        let result = scope(|s| {
            s.spawn(|_| panic!("boom"));
        });
        assert!(result.is_err());
    }
}
