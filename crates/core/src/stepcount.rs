//! Per-handle shared-memory step counting.
//!
//! Every handle in this crate counts the base-object operations (loads,
//! stores, CAS attempts) it performs, so that the step-complexity experiments
//! (E1, E2, E4) can measure the paper's claims directly on the hardware
//! implementations.  The counter is purely local and therefore does not
//! itself count as a shared-memory step.  For the objects written over
//! [`crate::mem::Mem`] the counting is in one place: `Atomics` counts a step
//! per access and `Handle` brackets each call.

/// A saturating per-handle step counter: total steps over the handle's
/// lifetime, steps of the call in progress, steps of the last completed
/// call.  Not a shared object — purely local bookkeeping, so incrementing
/// it does not count as a shared-memory step itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalSteps {
    total: u64,
    current_op: u64,
    last_op: u64,
}

impl LocalSteps {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark the beginning of a method call.
    #[inline]
    pub fn begin(&mut self) {
        self.current_op = 0;
    }

    /// Record one shared-memory step.
    #[inline]
    pub fn step(&mut self) {
        self.total = self.total.saturating_add(1);
        self.current_op = self.current_op.saturating_add(1);
    }

    /// Mark the end of a method call.
    #[inline]
    pub fn end(&mut self) {
        self.last_op = self.current_op;
    }

    /// Total steps over the handle's lifetime.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Steps taken by the most recently completed method call.
    pub fn last_op(&self) -> u64 {
        self.last_op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapper_delegates_to_step_counter() {
        let mut s = LocalSteps::new();
        assert_eq!(s.total(), 0);
        assert_eq!(s.last_op(), 0);
        s.begin();
        s.step();
        s.step();
        s.step();
        s.end();
        assert_eq!(s.total(), 3);
        assert_eq!(s.last_op(), 3);
        s.begin();
        s.end();
        assert_eq!(s.last_op(), 0);
        assert_eq!(s.total(), 3);
        s.begin();
        s.step();
        s.end();
        assert_eq!(s.last_op(), 1);
        assert_eq!(s.total(), 4);
    }
}
