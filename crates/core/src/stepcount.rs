//! Per-handle shared-memory step counting.
//!
//! Every handle in this crate counts the base-object operations (loads,
//! stores, CAS attempts) it performs, so that the step-complexity experiments
//! (E1, E2, E4) can measure the paper's claims directly on the hardware
//! implementations.  The counter is purely local and therefore does not
//! itself count as a shared-memory step.  For the objects written over
//! [`crate::mem::Mem`] the counting is in one place: `Atomics` counts a step
//! per access and `Handle` brackets each call.

use aba_spec::traits::StepCounter;

/// Thin convenience wrapper around [`StepCounter`] with shorter method names
/// for use inside the hot paths of the algorithms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalSteps(StepCounter);

impl LocalSteps {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark the beginning of a method call.
    #[inline]
    pub fn begin(&mut self) {
        self.0.begin_op();
    }

    /// Record one shared-memory step.
    #[inline]
    pub fn step(&mut self) {
        self.0.record_step();
    }

    /// Mark the end of a method call.
    #[inline]
    pub fn end(&mut self) {
        self.0.end_op();
    }

    /// Total steps over the handle's lifetime.
    pub fn total(&self) -> u64 {
        self.0.total()
    }

    /// Steps taken by the most recently completed method call.
    pub fn last_op(&self) -> u64 {
        self.0.last_op()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapper_delegates_to_step_counter() {
        let mut s = LocalSteps::new();
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
    }
}
