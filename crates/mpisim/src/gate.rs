//! The one way a rank waits: state behind a lock, and a wait that hands the
//! CPU over before it sleeps.
//!
//! [`Gate::wait`] is *check → release the lock and `yield_now()`, at most
//! [`YIELD_BUDGET`] times → register as parked and sleep on the condvar*;
//! [`Held::wake`] makes the futex call only when somebody is parked. Ranks
//! outnumber cores here, so the thread a waiter needs is usually runnable
//! but not running: a yield gives it the core, a sleep costs a futex wait, a
//! futex wake and two context switches, and a pure spin would starve it.
//!
//! No wake-up is lost, because the parked count and the guarded state change
//! under one lock: a waiter goes from "the predicate is false" to "counted
//! as parked and asleep" without releasing it (`Condvar::wait` unlocks
//! atomically), so a waker either ran before the check and is seen by it, or
//! runs after and finds `parked > 0`.
//!
//! Waiting is host-side only: nothing here reads or advances a virtual
//! clock, counts a message or emits a trace event.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Yields a waiter spends before it parks. A constant, not a knob: on the
/// 2-core host `hex64_sync` takes 0.45–0.49 s a run at 0 (the figure of the
/// `Mutex` + `Condvar` substrate this replaced), 0.13 at 1, and 0.10–0.11
/// at each of 2, 5, 10, 20, 50 and 200; pinned to one CPU, 0.39 against
/// 0.16–0.17 at 2 to 200; `hex1m_bsp`, whose waits do park, is flat
/// (DESIGN.md, "How a rank waits"). 20 sits inside that plateau and bounds
/// what a waiter whose peer is a long compute away spends before it sleeps.
const YIELD_BUDGET: u32 = 20;

/// `T` behind a poison-tolerant mutex, with the condvar, parked-waiter
/// count and change epoch that [`Gate::wait`] and [`Held::wake`] share.
pub(crate) struct Gate<T> {
    slot: Mutex<Slot<T>>,
    cond: Condvar,
    /// Number of [`Held::wake`]s so far. Written only under `slot`'s lock;
    /// read under it before parking, and lock-free between yields (the
    /// `Release` increment pairs with that `Acquire` load, though a waiter
    /// re-takes the lock before it looks at the state anyway).
    epoch: AtomicU64,
    #[cfg(test)]
    pub(crate) tally: Tally,
}

struct Slot<T> {
    state: T,
    /// Waiters currently asleep on `cond`.
    parked: usize,
}

/// The locked state of a [`Gate`].
pub(crate) struct Held<'a, T> {
    gate: &'a Gate<T>,
    slot: MutexGuard<'a, Slot<T>>,
}

impl<T> Deref for Held<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.slot.state
    }
}

impl<T> DerefMut for Held<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.slot.state
    }
}

impl<T> Held<'_, T> {
    /// Tell every waiter that the state changed (or that something outside
    /// it did and they should look again).
    pub(crate) fn wake(&mut self) {
        self.gate.epoch.fetch_add(1, Ordering::Release);
        if self.slot.parked > 0 {
            self.gate.cond.notify_all();
        }
    }

    fn epoch(&self) -> u64 {
        self.gate.epoch.load(Ordering::Acquire)
    }
}

impl<T> Gate<T> {
    pub(crate) fn new(state: T) -> Self {
        Gate {
            slot: Mutex::new(Slot { state, parked: 0 }),
            cond: Condvar::new(),
            epoch: AtomicU64::new(0),
            #[cfg(test)]
            tally: Tally::default(),
        }
    }

    /// Lock, tolerating poison: a rank that panics while holding a gate
    /// must not cascade into secondary lock panics — the world has its own
    /// poisoning protocol with better diagnostics, and every update made
    /// under a gate leaves its state valid at each step.
    pub(crate) fn lock(&self) -> Held<'_, T> {
        Held {
            gate: self,
            slot: self.slot.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Block until `ready` returns a value: it is called under the lock,
    /// first at once and then after every [`Held::wake`]. `None` when it
    /// still has none after the yield phase plus `park` asleep — so a zero
    /// `park` never sleeps, and callers pass slices to poll for poison.
    pub(crate) fn wait<R>(
        &self,
        park: Duration,
        mut ready: impl FnMut(&mut Held<'_, T>) -> Option<R>,
    ) -> Option<R> {
        let mut held = self.lock();
        let mut yields = 0;
        let mut deadline = None;
        loop {
            if let Some(r) = ready(&mut held) {
                return Some(r);
            }
            let seen = held.epoch();
            if yields < YIELD_BUDGET {
                drop(held);
                while yields < YIELD_BUDGET && self.epoch.load(Ordering::Acquire) == seen {
                    std::thread::yield_now();
                    yields += 1;
                    #[cfg(test)]
                    self.tally.yields.fetch_add(1, Ordering::Relaxed);
                }
                held = self.lock();
                if held.epoch() != seen {
                    continue;
                }
            }
            // Nothing has changed since `ready` looked, and the lock has
            // been held since that was established: safe to sleep.
            if park.is_zero() {
                return None;
            }
            let left = deadline
                .get_or_insert_with(|| Instant::now() + park)
                .saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            #[cfg(test)]
            self.tally.parks.fetch_add(1, Ordering::Relaxed);
            held.slot.parked += 1;
            let (slot, timeout) = self
                .cond
                .wait_timeout(held.slot, left)
                .unwrap_or_else(|e| e.into_inner());
            held.slot = slot;
            held.slot.parked -= 1;
            if timeout.timed_out() {
                let last = ready(&mut held);
                #[cfg(test)]
                if last.is_some() {
                    self.tally.overslept.fetch_add(1, Ordering::Relaxed);
                }
                return last;
            }
        }
    }

    /// Block until the next [`Held::wake`], whatever it was for, or until
    /// the yield phase plus `park` asleep have passed.
    pub(crate) fn wait_change(&self, park: Duration) {
        let mut first = None;
        self.wait(park, |held| {
            (*first.get_or_insert(held.epoch()) != held.epoch()).then_some(())
        });
    }
}

/// What the waits on one gate did, for the unit tests: a lost wake-up is a
/// silent stall of one slice, not a hang, so only a count can show it.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) yields: AtomicU64,
    pub(crate) parks: AtomicU64,
    /// Parks that ran out their time and *then* found the predicate true.
    pub(crate) overslept: AtomicU64,
}

#[cfg(test)]
impl<T> Gate<T> {
    /// Spin (politely) until `n` waits on this gate are asleep: forces the
    /// "waiter parked, then woken" interleaving without a timed sleep.
    pub(crate) fn until_parked(&self, n: usize) {
        while self.lock().slot.parked < n {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::Relaxed;

    const LONG: Duration = Duration::from_secs(20);

    #[test]
    fn a_satisfied_wait_touches_the_lock_and_nothing_else() {
        let gate = Gate::new(7u32);
        assert_eq!(gate.wait(LONG, |g| Some(**g)), Some(7));
        assert_eq!(gate.tally.yields.load(Relaxed), 0);
        assert_eq!(gate.tally.parks.load(Relaxed), 0);
    }

    #[test]
    fn a_zero_park_spends_the_yield_budget_and_never_sleeps() {
        let gate = Gate::new(());
        assert_eq!(gate.wait(Duration::ZERO, |_| None::<()>), None);
        assert_eq!(gate.tally.yields.load(Relaxed), YIELD_BUDGET as u64);
        assert_eq!(gate.tally.parks.load(Relaxed), 0);
    }

    #[test]
    fn an_unsatisfied_wait_gives_up_after_its_park() {
        let gate = Gate::new(());
        let started = Instant::now();
        assert_eq!(gate.wait(Duration::from_millis(20), |_| None::<()>), None);
        assert!(started.elapsed() >= Duration::from_millis(20));
        assert_eq!(gate.tally.parks.load(Relaxed), 1);
        assert_eq!(gate.lock().slot.parked, 0, "the count is given back");
    }

    #[test]
    fn a_parked_waiter_is_ended_by_the_wake_not_by_its_slice() {
        let gate = Gate::new(false);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.wait(LONG, |g| g.then_some(())));
            gate.until_parked(1);
            let mut held = gate.lock();
            *held = true;
            held.wake();
            drop(held);
            assert_eq!(waiter.join().unwrap(), Some(()));
        });
        assert_eq!(gate.tally.parks.load(Relaxed), 1);
        assert_eq!(gate.tally.overslept.load(Relaxed), 0);
    }

    #[test]
    fn a_wake_that_changes_nothing_sends_the_waiter_back_to_sleep() {
        let gate = Gate::new(false);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.wait(LONG, |g| g.then_some(())));
            gate.until_parked(1);
            gate.lock().wake();
            while gate.tally.parks.load(Relaxed) < 2 {
                std::thread::yield_now();
            }
            let mut held = gate.lock();
            *held = true;
            held.wake();
            drop(held);
            assert_eq!(waiter.join().unwrap(), Some(()));
        });
        assert_eq!(gate.tally.overslept.load(Relaxed), 0);
    }

    #[test]
    fn wait_change_ends_on_any_wake() {
        let gate = Gate::new(());
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.wait_change(LONG));
            gate.until_parked(1);
            gate.lock().wake();
            waiter.join().unwrap();
        });
        assert_eq!(gate.tally.parks.load(Relaxed), 1);
    }

    /// Four threads pass a token round-robin: every hand-over is a wake-up
    /// that must not be lost, whichever phase the next holder is in.
    #[test]
    fn a_token_ring_never_oversleeps() {
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 20_000;
        let gate = Gate::new(0u64);
        std::thread::scope(|s| {
            for me in 0..THREADS {
                let gate = &gate;
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        let passed = gate.wait(LONG, |g| {
                            (**g % THREADS == me).then(|| {
                                **g += 1;
                                g.wake();
                            })
                        });
                        assert!(passed.is_some(), "a hand-over was lost for {LONG:?}");
                    }
                });
            }
        });
        assert_eq!(*gate.lock(), THREADS * ROUNDS);
        assert_eq!(gate.tally.overslept.load(Relaxed), 0);
    }
}
