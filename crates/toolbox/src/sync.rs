//! Shared state: relaxed atomic cells and non-poisoning lock helpers
//! (DESIGN.md §11).
//!
//! This is the one module that names `std::sync::atomic`; clippy's
//! `disallowed_types` rejects a std atomic anywhere else. Every atomic in
//! the workspace is one of three things, and none of them needs an ordering
//! stronger than `Relaxed`:
//!
//! * a **statistic** — the pool's run count, the governor's peak, the
//!   metric registry's shards: readers want a number, and sums and maxima
//!   commute;
//! * a **polled flag** — a cancel token, a cursor's stop: the flag is the
//!   whole message, nothing is published behind it, and a poller that
//!   misses it sees it at its next check;
//! * a **claim counter** — morsel cursors, query ids, memory reservations:
//!   one read-modify-write on one location decides each claim under any
//!   ordering, and the counter guards no other memory.
//!
//! Happens-before between threads comes from the mutexes, the condition
//! variables and the worker pool's join, never from an atomic. So the cells
//! below fix the ordering to `Relaxed` and take no ordering argument. An
//! atomic that would publish data is not one of these cells: put the data
//! behind a lock.
//!
//! No lock in the workspace is held across user code, so a poisoned mutex
//! only means another thread panicked between two consistent states (the
//! pool turns a worker's panic into an error of its own). [`lock`], [`wait`]
//! and [`wait_timeout`] therefore ignore poisoning.

#![expect(
    clippy::disallowed_types,
    reason = "the workspace's one home of std atomics and of the lock helpers"
)]

use std::sync::atomic::{self, Ordering::Relaxed};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Defines each cell: a `#[repr(transparent)]` wrapper around one std
/// atomic with a `const fn new`, `load`, and the listed operations, all
/// `Relaxed`.
macro_rules! cells {
    ($($(#[$doc:meta])* $name:ident($atomic:ident, $t:ty) { $($op:ident),* })*) => {$(
        $(#[$doc])*
        #[derive(Debug, Default)]
        #[repr(transparent)]
        pub struct $name(atomic::$atomic);

        impl $name {
            /// A cell holding `v`.
            #[inline]
            pub const fn new(v: $t) -> $name {
                $name(atomic::$atomic::new(v))
            }

            /// The current value.
            #[inline]
            pub fn load(&self) -> $t {
                self.0.load(Relaxed)
            }

            $(cells!(@$op $t);)*
        }
    )*};
    (@store $t:ty) => {
        /// Replace the value with `v`.
        #[inline]
        pub fn store(&self, v: $t) {
            self.0.store(v, Relaxed)
        }
    };
    (@fetch_add $t:ty) => {
        /// Add `v` (wrapping), returning the previous value.
        #[inline]
        pub fn fetch_add(&self, v: $t) -> $t {
            self.0.fetch_add(v, Relaxed)
        }
    };
    (@fetch_sub $t:ty) => {
        /// Subtract `v` (wrapping), returning the previous value.
        #[inline]
        pub fn fetch_sub(&self, v: $t) -> $t {
            self.0.fetch_sub(v, Relaxed)
        }
    };
    (@fetch_max $t:ty) => {
        /// Raise the value to at least `v`, returning the previous value.
        #[inline]
        pub fn fetch_max(&self, v: $t) -> $t {
            self.0.fetch_max(v, Relaxed)
        }
    };
    (@fetch_update $t:ty) => {
        /// Replace the value with `f(value)` until no other thread raced
        /// the update: `Ok(previous)`, or `Err(current)` unchanged when `f`
        /// returns `None`.
        #[inline]
        pub fn fetch_update(&self, f: impl FnMut($t) -> Option<$t>) -> Result<$t, $t> {
            self.0.fetch_update(Relaxed, Relaxed, f)
        }
    };
    (@compare_exchange_weak $t:ty) => {
        /// Store `new` if the value is `current`: `Ok(current)`, or
        /// `Err(actual)` unchanged — which may also happen spuriously, so
        /// call it in a retry loop.
        #[inline]
        pub fn compare_exchange_weak(&self, current: $t, new: $t) -> Result<$t, $t> {
            self.0.compare_exchange_weak(current, new, Relaxed, Relaxed)
        }
    };
}

cells! {
    /// A relaxed `bool`: a polled flag.
    Bool(AtomicBool, bool) { store }
    /// A relaxed `usize`: a counter, a claim cursor or a reservation.
    Usize(AtomicUsize, usize) {
        store, fetch_add, fetch_sub, fetch_max, fetch_update, compare_exchange_weak
    }
    /// A relaxed `u64`: a statistic or an id source.
    U64(AtomicU64, u64) { fetch_add }
    /// A relaxed `i64`: a gauge.
    I64(AtomicI64, i64) { store, fetch_add }
}

/// Acquire `m`, ignoring poisoning (see the module docs).
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // LOCK: the acquisition helper; each call site states its guard's
    // lifetime.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Block on `cv`, releasing `guard` until notified; ignores poisoning.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    // LOCK: consumes and returns the caller's guard.
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`wait`] for at most `timeout`; ignores poisoning.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    // LOCK: consumes and returns the caller's guard.
    cv.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize};

    #[test]
    fn cells_return_what_the_std_atomics_return() {
        let (b, sb) = (Bool::new(false), AtomicBool::new(false));
        b.store(true);
        sb.store(true, Relaxed);
        assert_eq!(b.load(), sb.load(Relaxed));

        let (u, su) = (Usize::new(10), AtomicUsize::new(10));
        assert_eq!(u.fetch_add(5), su.fetch_add(5, Relaxed));
        assert_eq!(u.fetch_sub(3), su.fetch_sub(3, Relaxed));
        assert_eq!(u.fetch_max(40), su.fetch_max(40, Relaxed));
        assert_eq!(u.fetch_max(1), su.fetch_max(1, Relaxed));
        let grow = |v: usize| v.checked_add(2).filter(|&n| n <= 42);
        assert_eq!(u.fetch_update(grow), su.fetch_update(Relaxed, Relaxed, grow));
        // A refused update returns the current value and leaves it.
        assert_eq!(u.fetch_update(grow), Err(42));
        assert_eq!(u.fetch_update(grow), su.fetch_update(Relaxed, Relaxed, grow));
        assert_eq!(u.compare_exchange_weak(0, 1), Err(42));
        while u.compare_exchange_weak(42, 43).is_err() {}
        while su.compare_exchange_weak(42, 43, Relaxed, Relaxed).is_err() {}
        assert_eq!(u.load(), su.load(Relaxed));
        u.store(usize::MAX);
        su.store(usize::MAX, Relaxed);
        assert_eq!(u.fetch_add(1), su.fetch_add(1, Relaxed));
        assert_eq!(u.load(), 0, "wraps like the std atomic");

        static W: U64 = U64::new(u64::MAX - 1);
        let (w, sw) = (&W, AtomicU64::new(u64::MAX - 1));
        assert_eq!(w.fetch_add(3), sw.fetch_add(3, Relaxed));
        assert_eq!(w.load(), sw.load(Relaxed));

        let (g, sg) = (I64::new(-4), AtomicI64::new(-4));
        assert_eq!(g.fetch_add(-6), sg.fetch_add(-6, Relaxed));
        g.store(i64::MIN);
        sg.store(i64::MIN, Relaxed);
        assert_eq!(g.fetch_add(-1), sg.fetch_add(-1, Relaxed));
        assert_eq!(g.load(), sg.load(Relaxed));
    }

    #[test]
    fn a_poisoned_mutex_is_still_locked_and_waited_on() {
        let m = Mutex::new(5);
        let held = std::panic::catch_unwind(|| {
            let _g = m.lock().unwrap();
            panic!("the holder panics");
        });
        assert!(held.is_err());
        assert!(m.is_poisoned());
        let mut g = lock(&m);
        assert_eq!(*g, 5);
        *g += 1;
        let g = wait_timeout(&Condvar::new(), g, Duration::from_millis(1));
        assert_eq!(*g, 6);
    }
}
