//! Poison-recovering, order-checked lock wrappers, and a flag with fixed
//! orderings.
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
//!
//! **Lock order.** Every lock is one of two kinds. [`Lock::new`] and
//! [`RwLock::new`] make a *leaf*: nothing may be acquired while a leaf
//! is held. [`Lock::outer`] makes an *outer* lock: leaves may be taken
//! under it, never another outer lock. No cycle of waits can form
//! between locks that keep this rule, so no deadlock either. Debug
//! builds check it: each thread keeps the set of locks it holds, and an
//! acquisition that breaks the rule panics before it blocks, naming
//! both locks and where each was taken. Release builds compile the
//! check out: a guard is then the `std` guard and nothing more.
//!
//! A cross-thread signal is a [`Flag`]: its methods fix the memory
//! ordering (a `set` is Release, a `get` Acquire, a `replace` AcqRel), so
//! no call site can pick `Relaxed` for a bit another thread polls.

#![expect(
    clippy::disallowed_types,
    reason = "this module is the poison-recovering lock wrapper and the ordered flag"
)]

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, LockResult, MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Process-wide count of lock acquisitions that recovered from poison.
static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// How many times any [`Lock`]/[`RwLock`] acquisition (or a
/// [`LockGuard::wait`]) found its lock poisoned and recovered the guard.
pub fn poison_recoveries() -> u64 {
    POISON_RECOVERIES.load(Ordering::Relaxed)
}

/// Unwrap a lock result, recovering (and counting) poison instead of
/// panicking.
fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(|poisoned| {
        POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
        poisoned.into_inner()
    })
}

/// The debug-build lock-order check: the locks this thread holds.
#[cfg(debug_assertions)]
mod order {
    use std::cell::RefCell;
    use std::panic::Location;

    #[derive(Clone, Copy)]
    struct Entry {
        lock: usize,
        outer: bool,
        what: &'static str,
        at: &'static Location<'static>,
    }

    impl std::fmt::Display for Entry {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let kind = if self.outer { "outer" } else { "leaf" };
            write!(f, "{kind} lock `{}` at {}", self.what, self.at)
        }
    }

    thread_local! {
        static HELD: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
    }

    /// One held lock's entry; dropping it (with the guard) removes it.
    pub(super) struct Held(usize);

    impl Held {
        /// Record that this thread takes `lock`, or panic if the rule
        /// forbids it: under a leaf nothing, under an outer lock no outer.
        #[track_caller]
        pub(super) fn take<L>(lock: &L, outer: bool) -> Held {
            let lock = lock as *const L as usize;
            let what = std::any::type_name::<L>();
            let entry = Entry { lock, outer, what, at: Location::caller() };
            let clash = HELD.with_borrow(|held| held.iter().find(|h| !h.outer || outer).copied());
            if let Some(held) = clash {
                panic!("lock order: acquiring {entry} while holding {held}");
            }
            HELD.with_borrow_mut(|held| held.push(entry));
            Held(lock)
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            // Guards may drop in any order; the thread-local is gone only
            // while the thread itself is torn down.
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(i) = held.iter().rposition(|h| h.lock == self.0) {
                    held.remove(i);
                }
            });
        }
    }
}

/// Declares a guard type: the `std` guard plus, in debug builds, this
/// thread's entry for the lock it holds.
macro_rules! guard {
    ($(#[$doc:meta])* $name:ident, $std:ident) => {
        $(#[$doc])*
        #[must_use = "the lock is released as soon as the guard is dropped"]
        pub struct $name<'a, T> {
            guard: $std<'a, T>,
            #[cfg(debug_assertions)]
            _held: order::Held,
        }

        impl<T> Deref for $name<'_, T> {
            type Target = T;
            fn deref(&self) -> &T {
                &self.guard
            }
        }

        impl<T: std::fmt::Debug> std::fmt::Debug for $name<'_, T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                (**self).fmt(f)
            }
        }
    };
}

guard!(
    /// A held [`Lock`].
    LockGuard,
    MutexGuard
);
guard!(
    /// A held [`RwLock`] read.
    ReadGuard,
    RwLockReadGuard
);
guard!(
    /// A held [`RwLock`] write.
    WriteGuard,
    RwLockWriteGuard
);

impl<T> DerefMut for LockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> DerefMut for WriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> LockGuard<'_, T> {
    /// Release the lock, block until `cv` is notified, and take the lock
    /// back (`Condvar::wait`, recovering poison). The thread still counts
    /// as holding the lock: it acquires nothing while it waits.
    pub fn wait(self, cv: &Condvar) -> Self {
        LockGuard {
            guard: recover(cv.wait(self.guard)),
            #[cfg(debug_assertions)]
            _held: self._held,
        }
    }
}

/// A `Mutex` whose `lock()` never panics on poison, and whose place in
/// the lock order (leaf or outer, see the module docs) is checked in
/// debug builds.
#[derive(Debug, Default)]
pub struct Lock<T> {
    inner: std::sync::Mutex<T>,
    #[cfg(debug_assertions)]
    outer: bool,
}

impl<T> Lock<T> {
    /// Wrap `value` in a leaf lock: nothing may be acquired while it is
    /// held. Usable in `static` items.
    pub const fn new(value: T) -> Self {
        Lock {
            inner: std::sync::Mutex::new(value),
            #[cfg(debug_assertions)]
            outer: false,
        }
    }

    /// Wrap `value` in an outer lock: leaves may be acquired while it is
    /// held, another outer lock may not.
    pub const fn outer(value: T) -> Self {
        Lock {
            inner: std::sync::Mutex::new(value),
            #[cfg(debug_assertions)]
            outer: true,
        }
    }

    /// Acquire the lock, recovering the guard if a previous holder
    /// panicked.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> LockGuard<'_, T> {
        LockGuard {
            // Checked before it blocks: a broken order panics, it does
            // not deadlock.
            #[cfg(debug_assertions)]
            _held: order::Held::take(&self.inner, self.outer),
            guard: recover(self.inner.lock()),
        }
    }
}

/// An `RwLock` whose `read()`/`write()` never panic on poison. It is
/// always a leaf (see the module docs): a second read of the same lock
/// on one thread counts too, since a writer queued between the two
/// would wait on the first while the second waits on it.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap `value` in a leaf lock (usable in `static` items).
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquire a shared read guard, recovering from poison.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> ReadGuard<'_, T> {
        ReadGuard {
            #[cfg(debug_assertions)]
            _held: order::Held::take(&self.0, false),
            guard: recover(self.0.read()),
        }
    }

    /// Acquire an exclusive write guard, recovering from poison.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> WriteGuard<'_, T> {
        WriteGuard {
            #[cfg(debug_assertions)]
            _held: order::Held::take(&self.0, false),
            guard: recover(self.0.write()),
        }
    }
}

/// A cross-thread boolean signal whose orderings are fixed: whatever a
/// thread wrote before [`Flag::set`] is visible to a thread whose
/// [`Flag::get`] observes the new value.
#[derive(Debug, Default)]
pub struct Flag(AtomicBool);

impl Flag {
    /// A flag holding `value` (usable in `static` items).
    pub const fn new(value: bool) -> Self {
        Flag(AtomicBool::new(value))
    }

    /// Publish `value` (Release).
    pub fn set(&self, value: bool) {
        self.0.store(value, Ordering::Release);
    }

    /// Read the flag (Acquire).
    pub fn get(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// Publish `value` and return the previous value (AcqRel).
    pub fn replace(&self, value: bool) -> bool {
        self.0.swap(value, Ordering::AcqRel)
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

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock order: acquiring leaf lock")]
    fn leaf_under_leaf_panics() {
        let (a, b) = (Lock::new(1), RwLock::new(2));
        let _a = a.lock();
        let _b = b.read();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock order: acquiring outer lock")]
    fn outer_under_leaf_panics() {
        let (a, b) = (RwLock::new(1), Lock::outer(2));
        let _a = a.write();
        let _b = b.lock();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "while holding outer lock")]
    fn outer_under_outer_panics() {
        let (a, b) = (Lock::outer(1), Lock::outer(2));
        let _a = a.lock();
        let _b = b.lock();
    }

    #[test]
    fn leaves_under_an_outer_lock_one_at_a_time() {
        let (outer, a, b) = (Lock::outer(0), Lock::new(1), RwLock::new(2));
        let mut held = outer.lock();
        *held += *a.lock();
        *held += *b.read();
        drop(held);
        // Released, so the thread holds nothing and any order is legal.
        let _b = b.write();
        drop(_b);
        assert_eq!(*a.lock(), 1);
        assert_eq!(*outer.lock(), 3);
    }
}
