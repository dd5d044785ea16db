//! Offline stand-in for the [`parking_lot`](https://docs.rs/parking_lot)
//! crate, implemented over `std::sync` primitives.
//!
//! Provides the subset the workspace uses: [`Mutex`] whose `lock()` returns
//! a guard directly (no poisoning), and [`Condvar`] whose `wait`/`wait_for`
//! take the guard by `&mut` reference.  Poisoned std locks are transparently
//! recovered, matching parking_lot's no-poisoning behaviour.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A mutual-exclusion lock that never poisons.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so a `Condvar` can temporarily take the std guard out while
    // waiting (std's wait consumes the guard; parking_lot's borrows it).
    guard: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            guard: Some(
                self.inner
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            ),
        }
    }

    /// Acquires the lock only if no other thread holds it right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard { guard: Some(guard) })
    }

    /// Mutable access without locking (the borrow checker guarantees
    /// exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.guard.as_deref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard
            .as_deref_mut()
            .expect("guard present outside wait")
    }
}

/// Result of [`Condvar::wait_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Returns `true` if the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable whose wait methods borrow the guard mutably.
///
/// Notifying nobody is free.  The condvar counts the threads inside
/// [`wait`](Self::wait) / [`wait_for`](Self::wait_for), and
/// [`notify_one`](Self::notify_one) / [`notify_all`](Self::notify_all) skip
/// the wake-up — a `FUTEX_WAKE` syscall on every call of std's condvar —
/// while that count is zero.  A waiter raises the count while it still
/// holds the mutex, so no wake-up is lost as long as every waiter, and
/// every change to the state it waits for, holds **this condvar's own
/// mutex**: a notifier that made its change under the mutex acquired it
/// after any waiter that missed the change had counted itself.  Every
/// condvar in this workspace is used that way.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    waiters: AtomicUsize,
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Blocks until notified, releasing the guard's lock while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.guard.take().expect("guard present outside wait");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.guard = Some(inner);
    }

    /// Blocks until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.guard.take().expect("guard present outside wait");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.guard = Some(inner);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    /// Wakes one waiting thread, if any.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_one();
        }
    }

    /// Wakes every waiting thread, if any.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_all();
        }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let mutex = Mutex::new(1u32);
        *mutex.lock() += 1;
        assert_eq!(*mutex.lock(), 2);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (lock, cvar) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cvar.wait(&mut ready);
            }
        });
        {
            let (lock, cvar) = &*pair;
            *lock.lock() = true;
            cvar.notify_all();
        }
        waiter.join().unwrap();
    }

    #[test]
    fn try_lock_fails_only_while_held() {
        let mutex = Mutex::new(0u32);
        let held = mutex.lock();
        assert!(mutex.try_lock().is_none());
        drop(held);
        *mutex.try_lock().expect("the lock is free") += 1;
        assert_eq!(*mutex.lock(), 1);
    }

    /// Two threads hand a token back and forth 100 000 times, each waking
    /// the other only through the waiter-counted condvar: a lost wake-up
    /// wedges both, and the watchdog turns that into a failure.
    #[test]
    fn ping_pong_loses_no_wakeup() {
        const ROUNDS: u64 = 100_000;
        let pair = Arc::new((Mutex::new(0u64), Condvar::new()));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let sides: Vec<_> = (0..2u64)
            .map(|parity| {
                let pair = Arc::clone(&pair);
                let done_tx = done_tx.clone();
                std::thread::spawn(move || {
                    let (lock, cvar) = &*pair;
                    let mut turn = lock.lock();
                    while *turn < ROUNDS {
                        if *turn % 2 == parity {
                            *turn += 1;
                            cvar.notify_one();
                        } else if parity == 0 {
                            cvar.wait(&mut turn);
                        } else {
                            // One side waits with a deadline far beyond the
                            // watchdog's, so both wait paths are exercised.
                            cvar.wait_for(&mut turn, Duration::from_secs(3_600));
                        }
                    }
                    cvar.notify_all();
                    let _ = done_tx.send(());
                })
            })
            .collect();
        for _ in 0..2 {
            done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("watchdog: a notify was lost and the ping-pong wedged");
        }
        for side in sides {
            side.join().unwrap();
        }
        assert_eq!(*pair.0.lock(), ROUNDS);
        assert_eq!(pair.1.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn wait_for_times_out() {
        let mutex = Mutex::new(());
        let cvar = Condvar::new();
        let mut guard = mutex.lock();
        let result = cvar.wait_for(&mut guard, Duration::from_millis(10));
        assert!(result.timed_out());
    }
}
