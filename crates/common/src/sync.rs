//! The one mutex the workspace locks with: `std::sync::Mutex` minus
//! poisoning.
//!
//! A panic inside a partition task is routine here — the fault
//! injector raises them on purpose and `pool.rs` catches them with
//! `catch_unwind` and retries — so a lock whose holder panicked must
//! hand back the guard rather than an error. No lock here is held across
//! a rule or UDF call: the critical sections are table inserts, slot
//! swaps and state updates, so a holder dies between updates, never in
//! the middle of one, and the data is safe to keep using.

use std::sync::PoisonError;

/// `std::sync::Mutex` that ignores poisoning.
#[derive(Debug)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Block until the lock is held; a poisoned lock hands back its guard.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consume the mutex and return its value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_poisoned_lock_hands_back_the_guard() {
        let m = Arc::new(Mutex::new(vec![1]));
        let held = Arc::clone(&m);
        let panicked = std::thread::spawn(move || {
            let mut g = held.lock();
            g.push(2);
            panic!("holder dies with the lock held");
        })
        .join();
        assert!(panicked.is_err());
        assert!(m.0.is_poisoned(), "std saw the panic");
        m.lock().push(3);
        assert_eq!(*m.lock(), vec![1, 2, 3]);
        let m = Arc::try_unwrap(m).expect("the holder thread is gone");
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }
}
