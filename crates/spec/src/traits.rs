//! Object/handle traits implemented by every algorithm in the reproduction.
//!
//! The paper's algorithms keep *local* (per-process) variables — `b`, `old`,
//! the `usedQ` queue, the `na` set, the cursor `c` — alongside *shared* base
//! objects.  We mirror that split:
//!
//! * the **object** (e.g. [`AbaRegisterObject`]) owns the shared base objects
//!   and is `Send + Sync`;
//! * a **handle** (e.g. [`AbaHandle`]) owns one process's local variables and
//!   is `Send` but must not be shared between threads; calling `handle(pid)`
//!   twice with the same `pid` and using both concurrently is outside the
//!   paper's model (a process is sequential) and is not supported.
//!
//! Handles also count the shared-memory steps they execute so that the
//! step-complexity experiments (E1, E2, E4 in DESIGN.md) can be run directly
//! against the hardware implementations, without the simulator.

use crate::space::SpaceUsage;
use crate::{ProcessId, Word};

/// A multi-writer ABA-detecting register, the paper's central object.
///
/// Operations (exposed on the per-process [`AbaHandle`]):
///
/// * `DWrite(x)` writes `x`;
/// * `DRead()` returns `(value, flag)` where `flag` is `true` iff some process
///   executed a `DWrite` since the calling process's previous `DRead`.
pub trait AbaRegisterObject: Send + Sync {
    /// Number of processes `n` the object was created for.
    fn processes(&self) -> usize;

    /// Base objects allocated by this implementation.
    fn space(&self) -> SpaceUsage;

    /// A short, stable, human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Obtain the per-process handle for `pid`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `pid >= self.processes()`.
    fn handle(&self, pid: ProcessId) -> Box<dyn AbaHandle + '_>;
}

/// Per-process handle of an [`AbaRegisterObject`].
pub trait AbaHandle: Send {
    /// The process id this handle belongs to.
    fn pid(&self) -> ProcessId;

    /// `DWrite(x)`: write `x` to the register.
    fn dwrite(&mut self, value: Word);

    /// `DRead()`: return the current value together with a flag that is
    /// `true` iff some `DWrite` (by any process) occurred since this
    /// process's previous `DRead`.
    fn dread(&mut self) -> (Word, bool);

    /// Total number of shared-memory steps (base-object operations) executed
    /// by this handle so far.
    fn step_count(&self) -> u64;

    /// Number of shared-memory steps executed by the most recent `dwrite` or
    /// `dread` call.
    fn last_op_steps(&self) -> u64;
}

/// A load-linked / store-conditional / validate object.
///
/// `SC(x)` by process `p` succeeds iff no other successful `SC` occurred since
/// `p`'s last `LL`; `VL()` returns `false` iff a successful `SC` occurred
/// since the caller's last `LL`.
pub trait LlScObject: Send + Sync {
    /// Number of processes `n` the object was created for.
    fn processes(&self) -> usize;

    /// Base objects allocated by this implementation.
    fn space(&self) -> SpaceUsage;

    /// A short, stable, human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Obtain the per-process handle for `pid`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `pid >= self.processes()`.
    fn handle(&self, pid: ProcessId) -> Box<dyn LlScHandle + '_>;
}

/// Per-process handle of an [`LlScObject`].
pub trait LlScHandle: Send {
    /// The process id this handle belongs to.
    fn pid(&self) -> ProcessId;

    /// `LL()`: return the current value and establish a link.
    fn ll(&mut self) -> Word;

    /// `SC(x)`: attempt to write `x`; succeeds (returns `true`) iff no
    /// successful `SC` has occurred since this process's last `LL`.
    fn sc(&mut self, value: Word) -> bool;

    /// `VL()`: returns `true` iff no successful `SC` has occurred since this
    /// process's last `LL`.
    fn vl(&mut self) -> bool;

    /// Total number of shared-memory steps executed by this handle so far.
    fn step_count(&self) -> u64;

    /// Number of shared-memory steps executed by the most recent operation.
    fn last_op_steps(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traits_are_object_safe() {
        // Compile-time check that the traits can be used as trait objects,
        // which the bench harness relies on.
        fn _takes_aba(_: &dyn AbaRegisterObject) {}
        fn _takes_llsc(_: &dyn LlScObject) {}
        fn _takes_aba_handle(_: &mut dyn AbaHandle) {}
        fn _takes_llsc_handle(_: &mut dyn LlScHandle) {}
    }
}
