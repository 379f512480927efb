//! # aba-core
//!
//! Every algorithm in *"On the Time and Space Complexity of ABA Prevention
//! and Detection"* (Aghazadeh & Woelfel, PODC 2015), plus the baselines the
//! paper compares against, on real atomics.  The per-process code of
//! Figures 3 and 4, the announce LL/SC and Moir's LL/SC is written once over
//! the three-method memory of [`mem`]; this crate runs it on `AtomicU64`s,
//! `aba-sim` runs the same code one adversarially scheduled step at a time.
//!
//! | Type | Paper source | Base objects | Steps per op |
//! |------|--------------|--------------|--------------|
//! | [`BoundedAbaRegister`] | Figure 4, Theorem 3 | `n + 1` bounded registers | O(1) |
//! | [`CasLlSc`] | Figure 3, Theorem 2 | 1 bounded CAS | O(n) |
//! | [`LlScAbaRegister`] | Figure 5, Theorem 4 | whatever the inner LL/SC uses | 2 LL/SC ops |
//! | [`AnnounceLlSc`] | in the style of \[2,15\] (see DESIGN.md §2) | 1 bounded CAS + `n` registers | O(1) |
//! | [`MoirLlSc`] | Moir \[26\], unbounded baseline | 1 unbounded CAS | O(1) |
//! | [`TaggedAbaRegister`] | §1 tagging baseline | 1 unbounded register (+ counter) | O(1) |
//!
//! Every object hands out per-process handles (`handle(pid)`), mirroring the
//! paper's split between shared base objects and process-local variables, and
//! every handle counts its shared-memory steps so that the step-complexity
//! experiments can run directly against these types.
//!
//! # Quickstart
//!
//! ```
//! use aba_core::BoundedAbaRegister;
//!
//! let register = BoundedAbaRegister::new(4); // n = 4 processes
//! let mut writer = register.handle(0);
//! let mut reader = register.handle(1);
//!
//! writer.dwrite(7);
//! assert_eq!(reader.dread(), (7, true));   // change detected
//! assert_eq!(reader.dread(), (7, false));  // no further change
//! writer.dwrite(7);                        // same value again…
//! assert_eq!(reader.dread(), (7, true));   // …still detected: no ABA
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod announce_llsc;
pub mod backoff;
pub mod bounded_reg;
pub mod cas_llsc;
pub mod llsc_aba;
pub mod mem;
pub mod moir_llsc;
pub mod pack;
pub mod pad;
pub mod seqpool;
pub mod stepcount;
pub mod tagged;

pub use announce_llsc::{AnnounceLlSc, AnnounceLlScHandle};
pub use backoff::Backoff;
pub use bounded_reg::{BoundedAbaHandle, BoundedAbaRegister};
pub use cas_llsc::{CasLlSc, CasLlScHandle};
pub use llsc_aba::{stacks, LlScAbaHandle, LlScAbaRegister};
pub use moir_llsc::{MoirHandle, MoirLlSc};
pub use pad::CachePadded;
pub use tagged::{TaggedAbaRegister, TaggedHandle};

// Re-export the vocabulary types users need alongside the implementations.
pub use aba_spec::{
    AbaHandle, AbaRegisterObject, LlScHandle, LlScObject, ProcessId, SpaceUsage, Word, INITIAL_WORD,
};

/// All ABA-detecting register implementations, as trait objects, for the
/// experiment harness.  `n` is the number of processes.
///
/// # Panics
///
/// Panics if `n` is 0 or exceeds the per-implementation process limits
/// (Figure 3-based stacks require `n <= 32`).
pub fn all_aba_registers(n: usize) -> Vec<Box<dyn AbaRegisterObject>> {
    vec![
        Box::new(TaggedAbaRegister::new(n)),
        Box::new(BoundedAbaRegister::new(n)),
        Box::new(stacks::over_cas(n)),
        Box::new(stacks::over_moir(n)),
        Box::new(stacks::over_announce(n)),
    ]
}

/// All LL/SC/VL implementations, as trait objects, for the experiment
/// harness.  `n` is the number of processes (Figure 3 requires `n <= 32`).
pub fn all_llsc_objects(n: usize) -> Vec<Box<dyn LlScObject>> {
    vec![
        Box::new(CasLlSc::new(n)),
        Box::new(MoirLlSc::new(n)),
        Box::new(AnnounceLlSc::new(n)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_cover_all_implementations() {
        let regs = all_aba_registers(4);
        assert_eq!(regs.len(), 5);
        let names: Vec<_> = regs.iter().map(|r| r.name()).collect();
        assert!(names.iter().any(|n| n.contains("Figure 4")));
        assert!(names.iter().any(|n| n.contains("tagged")));

        let llscs = all_llsc_objects(4);
        assert_eq!(llscs.len(), 3);
        for obj in &llscs {
            assert_eq!(obj.processes(), 4);
        }
    }

    #[test]
    fn every_aba_register_detects_a_basic_aba() {
        for reg in all_aba_registers(3) {
            let mut w = reg.handle(0);
            let mut r = reg.handle(1);
            w.dwrite(1);
            assert_eq!(r.dread(), (1, true), "{}", reg.name());
            w.dwrite(2);
            w.dwrite(1);
            let (v, changed) = r.dread();
            assert_eq!(v, 1, "{}", reg.name());
            assert!(changed, "{} missed the ABA", reg.name());
        }
    }

    #[test]
    fn every_llsc_object_handles_interference() {
        for obj in all_llsc_objects(3) {
            let mut a = obj.handle(0);
            let mut b = obj.handle(1);
            a.ll();
            b.ll();
            assert!(b.sc(5), "{}", obj.name());
            assert!(!a.sc(6), "{}", obj.name());
            assert_eq!(a.ll(), 5, "{}", obj.name());
            assert!(a.sc(6), "{}", obj.name());
        }
    }
}
