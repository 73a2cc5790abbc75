//! Minimal offline stand-in for `parking_lot`: a [`Mutex`] and an
//! [`RwLock`] with the parking_lot API shape (infallible `lock` /
//! `read` / `write`, direct `into_inner`) over their `std::sync`
//! counterparts, ignoring poison like parking_lot does.
//!
//! The workspace `clippy.toml` disallows `std::sync::Mutex` and
//! `RwLock`, which routes all lock use through this stub: a worker
//! that panics while holding a lock must not turn every later
//! acquisition into a second panic.

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

/// Guard type returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;

/// Guard type returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

/// A mutual-exclusion lock whose `lock` never fails (poison is ignored).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking the current thread.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A reader-writer lock whose `read` / `write` never fail (poison is
/// ignored).
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access, blocking the current thread.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire exclusive write access, blocking the current thread.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_and_into_inner() {
        let m = Mutex::new(vec![1, 2]);
        m.lock().push(3);
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn rwlock_read_write_into_inner() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
        assert_eq!(l.into_inner(), vec![1, 2]);
    }

    #[test]
    fn rwlock_ignores_poison() {
        use std::sync::Arc;
        let l = Arc::new(RwLock::new(0u32));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison the lock");
        })
        .join();
        *l.write() += 1; // must not panic
        assert_eq!(*l.read(), 1);
    }
}
