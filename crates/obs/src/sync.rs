//! Poison-recovering lock wrappers.
//!
//! A `std` lock becomes *poisoned* when a thread panics while holding
//! it, and every later `lock()/read()/write()` returns `Err` forever.
//! In a serving process that turns one isolated worker panic into a
//! permanently wedged scheduler: each `lock().expect(...)` site becomes
//! a fresh panic, cascading through every thread that touches the
//! shared state.
//!
//! The data these locks guard (queues, metric maps, cache entries) is
//! kept consistent by construction — each critical section either fully
//! applies or was a read — so the right response to poison is to take
//! the data as-is and carry on. [`Lock`] and [`RwLock`] do exactly
//! that, counting every recovery in a process-wide counter
//! ([`poison_recoveries`]) so tests and operators can see that a poison
//! event happened without the process dying over it.

#![expect(clippy::disallowed_types, reason = "this module is the poison-recovering wrapper")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LockResult, MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Process-wide count of lock acquisitions that recovered from poison.
static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// How many times any [`Lock`]/[`RwLock`]/[`recover`] call found its
/// lock poisoned and recovered the guard.
pub fn poison_recoveries() -> u64 {
    POISON_RECOVERIES.load(Ordering::Relaxed)
}

/// Unwrap a lock result, recovering (and counting) poison instead of
/// panicking. Use directly for APIs that hand back a `LockResult`, e.g.
/// `Condvar::wait`.
pub fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(|poisoned| {
        POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
        poisoned.into_inner()
    })
}

/// A `Mutex` whose `lock()` never panics on poison.
///
/// The guard is the plain `std` guard, so a [`Lock`]-held queue still
/// composes with `Condvar` (pair with [`recover`] around `wait`).
#[derive(Debug, Default)]
pub struct Lock<T>(std::sync::Mutex<T>);

impl<T> Lock<T> {
    /// Wrap `value` (usable in `static` items).
    pub const fn new(value: T) -> Self {
        Lock(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, recovering the guard if a previous holder
    /// panicked.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        recover(self.0.lock())
    }
}

/// An `RwLock` whose `read()`/`write()` never panic on poison.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap `value` (usable in `static` items).
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquire a shared read guard, recovering from poison.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        recover(self.0.read())
    }

    /// Acquire an exclusive write guard, recovering from poison.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        recover(self.0.write())
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "poisoning a lock takes a thread that panics")]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_recovers_from_poison() {
        let lock = Arc::new(Lock::new(7u32));
        let before = poison_recoveries();
        let l2 = Arc::clone(&lock);
        // Poison the mutex by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _guard = l2.lock();
            panic!("poison it");
        })
        .join();
        // A plain std mutex would now fail every lock() forever; ours
        // hands the data back and counts the recovery.
        assert_eq!(*lock.lock(), 7);
        assert!(poison_recoveries() > before);
        // Recovered, not wedged: later acquisitions keep working.
        *lock.lock() = 8;
        assert_eq!(*lock.lock(), 8);
    }

    #[test]
    fn rwlock_recovers_from_poison() {
        let lock = Arc::new(RwLock::new(vec![1, 2, 3]));
        let l2 = Arc::clone(&lock);
        let _ = std::thread::spawn(move || {
            let _guard = l2.write();
            panic!("poison it");
        })
        .join();
        assert_eq!(lock.read().len(), 3);
        lock.write().push(4);
        assert_eq!(lock.read().len(), 4);
    }

    #[test]
    fn recover_passes_clean_results_through() {
        let m = std::sync::Mutex::new(1u8);
        let before = poison_recoveries();
        assert_eq!(*recover(m.lock()), 1);
        assert_eq!(poison_recoveries(), before);
    }
}
