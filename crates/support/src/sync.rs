//! `parking_lot`-flavoured synchronisation primitives: a [`Mutex`] whose
//! `lock()` returns the guard directly instead of a `Result`, and a
//! matching [`Condvar`] whose waits never surface poison either. A panic
//! while a std mutex is held poisons it; the state these protect (meter
//! counters, work queues) stays internally consistent under any
//! interleaving, so the poison flag is noise — we take the guard anyway,
//! exactly as `parking_lot` semantics did.

use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard, PoisonError};

/// A mutual-exclusion lock whose `lock()` never returns `Err`.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Wraps a value.
    #[must_use]
    pub fn new(value: T) -> Self {
        Self { inner: StdMutex::new(value) }
    }

    /// Acquires the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A condition variable paired with [`Mutex`]: every wait ignores
/// poisoning, mirroring `parking_lot::Condvar`. Use it with the guard
/// returned by [`Mutex::lock`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: StdCondvar,
}

impl Condvar {
    /// Creates a fresh condition variable.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks until notified, releasing `guard` while parked.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.inner.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks while `condition` holds (spurious-wakeup safe).
    pub fn wait_while<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        condition: impl FnMut(&mut T) -> bool,
    ) -> MutexGuard<'a, T> {
        self.inner.wait_while(guard, condition).unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes one parked waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every parked waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn counts_correctly_under_contention() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..1_000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 8_000);
    }

    #[test]
    fn survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(41));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: the lock is still usable.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let waiter = thread::spawn(move || {
            let (m, cv) = &*p2;
            let guard = cv.wait_while(m.lock(), |ready| !*ready);
            *guard
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn condvar_survives_poisoned_mutex() {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let _ = thread::spawn(move || {
            let _guard = p2.0.lock();
            panic!("poison the pair");
        })
        .join();
        // A waiter on the poisoned mutex still wakes cleanly.
        let p3 = Arc::clone(&pair);
        let notifier = thread::spawn(move || {
            *p3.0.lock() = 1;
            p3.1.notify_all();
        });
        let guard = pair.1.wait_while(pair.0.lock(), |v| *v == 0);
        assert_eq!(*guard, 1);
        drop(guard);
        notifier.join().unwrap();
    }
}
