//! The busy-wait / reset scenario from the paper's introduction.
//!
//! > "in mutual exclusion algorithms often processes busy-wait for certain
//! > events … it may also be desirable to eventually reset the register to
//! > its state before the event was signaled, in order to be able to reuse
//! > it.  But this may result in the ABA problem, and as a consequence
//! > waiting processes may miss events."
//!
//! [`EventSignal`] wraps any ABA-detecting register: `signal()` and `reset()`
//! are `DWrite`s, and a waiter's `poll()` returns `true` iff *something* was
//! written since its previous poll — so a signal followed by a reset is still
//! observed.  [`NaiveEventSignal`] shows what happens with a plain register:
//! the reset restores the old value and the waiter misses the event.

use aba_core::stepcount;
use aba_spec::{AbaHandle, AbaRegisterObject, ProcessId};
use std::sync::atomic::{AtomicU32, Ordering};

/// The value written by [`Signaler::signal`].
pub const SIGNALED: u32 = 1;
/// The value written by [`Signaler::reset`].
pub const IDLE: u32 = 0;

/// A resettable event built on an ABA-detecting register.
#[derive(Debug)]
pub struct EventSignal<R> {
    register: R,
}

impl<R: AbaRegisterObject> EventSignal<R> {
    /// Wrap a register.
    pub fn new(register: R) -> Self {
        EventSignal { register }
    }

    /// Access the underlying register.
    pub fn register(&self) -> &R {
        &self.register
    }

    /// Handle for a process that signals and resets the event.
    pub fn signaler(&self, pid: ProcessId) -> Signaler<'_> {
        Signaler {
            handle: self.register.handle(pid),
        }
    }

    /// Handle for a process that waits for the event.
    pub fn waiter(&self, pid: ProcessId) -> Waiter<'_> {
        Waiter {
            handle: self.register.handle(pid),
        }
    }
}

/// Signal-side handle of an [`EventSignal`].
pub struct Signaler<'a> {
    handle: Box<dyn AbaHandle + 'a>,
}

impl std::fmt::Debug for Signaler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Signaler").finish_non_exhaustive()
    }
}

impl Signaler<'_> {
    /// Raise the event.
    pub fn signal(&mut self) {
        self.handle.dwrite(SIGNALED);
    }

    /// Reset the event so the flag can be reused.
    pub fn reset(&mut self) {
        self.handle.dwrite(IDLE);
    }
}

/// Wait-side handle of an [`EventSignal`].
pub struct Waiter<'a> {
    handle: Box<dyn AbaHandle + 'a>,
}

impl std::fmt::Debug for Waiter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waiter").finish_non_exhaustive()
    }
}

impl Waiter<'_> {
    /// Returns `true` iff any signal or reset was written since this waiter's
    /// previous poll — in particular, a signal that was already reset is
    /// still noticed.
    pub fn poll(&mut self) -> bool {
        let (_, changed) = self.handle.dread();
        changed
    }

    /// Returns the current raw value together with the change flag.
    pub fn poll_value(&mut self) -> (u32, bool) {
        self.handle.dread()
    }
}

/// The strawman: a plain register, with the waiter comparing values.
#[derive(Debug, Default)]
pub struct NaiveEventSignal {
    value: AtomicU32,
}

impl NaiveEventSignal {
    /// A fresh, un-signalled event.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raise the event.
    pub fn signal(&self) {
        self.value.store(SIGNALED, Ordering::SeqCst);
        stepcount::locked();
    }

    /// Reset the event.
    pub fn reset(&self) {
        self.value.store(IDLE, Ordering::SeqCst);
        stepcount::locked();
    }

    /// Waiter handle.
    pub fn waiter(&self) -> NaiveWaiter<'_> {
        NaiveWaiter {
            event: self,
            last: IDLE,
        }
    }
}

/// Wait-side handle of a [`NaiveEventSignal`].
#[derive(Debug)]
pub struct NaiveWaiter<'a> {
    event: &'a NaiveEventSignal,
    last: u32,
}

impl NaiveWaiter<'_> {
    /// Returns `true` iff the register's *value* differs from the last poll —
    /// which misses a signal that was reset in between (the ABA).
    pub fn poll(&mut self) -> bool {
        let now = self.event.value.load(Ordering::SeqCst);
        stepcount::plain();
        let changed = now != self.last;
        self.last = now;
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aba_core::BoundedAbaRegister;

    #[test]
    fn aba_detecting_event_never_misses_a_signal_reset_pair() {
        let event = EventSignal::new(BoundedAbaRegister::new(2));
        let mut signaler = event.signaler(0);
        let mut waiter = event.waiter(1);
        assert!(!waiter.poll());
        // Signal and reset before the waiter looks: still detected.
        signaler.signal();
        signaler.reset();
        assert!(
            waiter.poll(),
            "Figure 4 catches the signalled-then-reset event"
        );
        assert!(!waiter.poll());
    }

    #[test]
    fn naive_event_misses_the_same_pattern() {
        let event = NaiveEventSignal::new();
        let mut waiter = event.waiter();
        assert!(!waiter.poll());
        event.signal();
        event.reset();
        assert!(
            !waiter.poll(),
            "the plain register misses the event (expected)"
        );
    }

    #[test]
    fn values_are_visible_alongside_the_flag() {
        let event = EventSignal::new(BoundedAbaRegister::new(2));
        let mut signaler = event.signaler(0);
        let mut waiter = event.waiter(1);
        signaler.signal();
        assert_eq!(waiter.poll_value(), (SIGNALED, true));
        signaler.reset();
        assert_eq!(waiter.poll_value(), (IDLE, true));
        assert_eq!(waiter.poll_value(), (IDLE, false));
    }

    #[test]
    fn multiple_waiters_each_observe_the_event() {
        let event = EventSignal::new(BoundedAbaRegister::new(3));
        let mut signaler = event.signaler(0);
        let mut w1 = event.waiter(1);
        let mut w2 = event.waiter(2);
        signaler.signal();
        signaler.reset();
        assert!(w1.poll());
        assert!(w2.poll());
        assert!(!w1.poll());
        assert!(!w2.poll());
    }
}
