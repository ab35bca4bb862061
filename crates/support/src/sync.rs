//! Poison-free synchronization primitives with the `parking_lot`-style
//! API over `std::sync`.
//!
//! The collector's hot paths lock at every allocation and every handshake
//! probe; threading `Result`s (std's poison bookkeeping) through them
//! buys nothing — a panic while holding a collector lock leaves the heap
//! in an undefined state anyway, so poisoning is ignored: a poisoned
//! guard is recovered with `into_inner` and handed out normally.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

/// A mutual-exclusion lock.  [`lock`](Mutex::lock) returns the guard
/// directly (no poison `Result`).
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    #[inline]
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Attempts to acquire the lock without blocking.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: Some(e.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// RAII guard for a [`Mutex`].  The `Option` exists only so a [`Condvar`]
/// wait can momentarily take the underlying std guard by value; it is
/// `Some` at every point user code can observe.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        self.inner
            .as_deref()
            .expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_deref_mut()
            .expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A condition variable operating on [`MutexGuard`]s in place
/// (`parking_lot` style: `wait(&mut guard)` instead of consuming and
/// returning the guard).
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    #[inline]
    pub fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Blocks until notified.  Spurious wakeups are possible, as with any
    /// condition variable — callers loop on their predicate.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard taken during condvar wait");
        let g = self.inner.wait(g).unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(g);
    }

    /// Blocks until notified or `timeout` elapses.  Returns `true` if the
    /// wait timed out.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> bool {
        let g = guard.inner.take().expect("guard taken during condvar wait");
        let (g, result) = match self.inner.wait_timeout(g, timeout) {
            Ok((g, r)) => (g, r),
            Err(e) => {
                let (g, r) = e.into_inner();
                (g, r)
            }
        };
        guard.inner = Some(g);
        result.timed_out()
    }

    /// Wakes all waiters.
    #[inline]
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

/// Exponential backoff for spin-wait loops: a few `spin_loop` hints,
/// then `yield_now`, then short bounded sleeps.
///
/// The trace's termination check, waiting for a mutator's odd
/// write-barrier epoch to go even, previously burned a full
/// `yield_now` per probe.  `Backoff` ramps the wait instead: the first
/// probes cost only pipeline hints (the common case — the condition
/// flips within nanoseconds), repeated failures escalate to yielding
/// the timeslice, and a persistently false condition parks the thread
/// in capped micro-sleeps so a single-core box can run the thread we
/// are waiting *for*.  Call [`reset`](Backoff::reset) after useful work
/// so the next wait starts cheap again.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Spin-hint for up to `2^SPIN_LIMIT` iterations per snooze.
    const SPIN_LIMIT: u32 = 6;
    /// Yield (instead of sleeping) until this step.
    const YIELD_LIMIT: u32 = 10;
    /// Sleep quantum once past the yield phase.
    const PARK: Duration = Duration::from_micros(50);

    /// Creates a backoff at the cheapest (pure spin) step.
    #[inline]
    pub fn new() -> Backoff {
        Backoff { step: 0 }
    }

    /// Waits a little longer than the previous `snooze` call did.
    #[inline]
    pub fn snooze(&mut self) {
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..1u32 << self.step {
                std::hint::spin_loop();
            }
        } else if self.step <= Self::YIELD_LIMIT {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Self::PARK);
        }
        if self.step <= Self::YIELD_LIMIT {
            self.step += 1;
        }
    }

    /// Returns to the cheapest step — call after the awaited condition
    /// made progress.
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn try_lock_contended() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn lock_survives_panic_in_holder() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // A std mutex would now be poisoned; ours just hands out the lock.
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (lock, cvar) = &*pair2;
            let mut started = lock.lock();
            while !*started {
                cvar.wait(&mut started);
            }
            true
        });
        std::thread::sleep(Duration::from_millis(10));
        let (lock, cvar) = &*pair;
        *lock.lock() = true;
        cvar.notify_all();
        assert!(h.join().unwrap());
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)));
        // Guard is intact after the timed-out wait.
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn backoff_escalates_and_resets() {
        let mut b = Backoff::new();
        assert_eq!(b.step, 0);
        for _ in 0..=Backoff::YIELD_LIMIT {
            b.snooze();
        }
        assert_eq!(b.step, Backoff::YIELD_LIMIT + 1);
        // Past the yield phase it keeps sleeping without overflowing the
        // step.
        b.snooze();
        b.snooze();
        assert_eq!(b.step, Backoff::YIELD_LIMIT + 1);
        b.reset();
        assert_eq!(b.step, 0);
    }

    #[test]
    fn backoff_spin_phase_is_fast() {
        // The first few snoozes must be pure spin hints — no syscalls —
        // so a tight loop of them completes in well under a millisecond.
        let start = std::time::Instant::now();
        let mut b = Backoff::new();
        for _ in 0..Backoff::SPIN_LIMIT {
            b.snooze();
        }
        assert!(start.elapsed() < Duration::from_millis(100));
    }
}
