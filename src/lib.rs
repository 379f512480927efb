//! # aba-repro
//!
//! Facade crate for the reproduction of *"On the Time and Space Complexity
//! of ABA Prevention and Detection"* (Aghazadeh & Woelfel, PODC 2015).
//!
//! It re-exports the individual crates so that the examples and integration
//! tests (and downstream users who just want "the paper's algorithms") need a
//! single dependency:
//!
//! * [`core`] — the algorithms on real atomics (Figures 3, 4, 5 and the
//!   baselines);
//! * [`spec`] — object specifications, histories, linearizability checking;
//! * [`sim`] — the formal-model simulator and adversarial schedules;
//! * [`lowerbound`] — covering experiments, violation witnesses, the
//!   time–space tradeoff table (the experiment harness's
//!   [`aba_bench::lowerbound`]);
//! * [`reclaim`] — the [`Reclaimer`](aba_reclaim::Reclaimer) strategy trait
//!   unifying every ABA-protection scheme (unprotected, tagged, hazard,
//!   epoch, LL/SC) behind one guard protocol;
//! * [`hazard`] — the hazard-pointer domain under the hazard scheme
//!   ([`aba_reclaim::hazard`]);
//! * [`lockfree`] — one generic Treiber stack, one generic Michael–Scott
//!   queue and one generic Harris–Michael ordered set, instantiated per
//!   reclamation scheme, plus the event-signal scenario;
//! * [`workload`] — the multi-threaded workload engine (experiments
//!   E7–E10): scenario × backend × thread-count throughput, latency and
//!   peak-unreclaimed matrix;
//! * [`analyze`] — the conformance linter: a hand-rolled comment/string-aware
//!   Rust lexer enforcing the registered rule roster L1–L5 over every
//!   workspace source file (the static half of the `table_lint` gate; the
//!   dynamic half, the DPOR footprint-soundness auditor, lives in
//!   [`sim`](aba_sim::audit)).
//!
//! See `README.md` for a guided tour and `EXPERIMENTS.md` for the
//! paper-versus-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use aba_analyze as analyze;
pub use aba_bench::lowerbound;
pub use aba_core as core;
pub use aba_lockfree as lockfree;
pub use aba_reclaim as reclaim;
pub use aba_reclaim::hazard;
pub use aba_sim as sim;
pub use aba_spec as spec;
pub use aba_workload as workload;

// The most commonly used items, re-exported at the top level for quickstart
// ergonomics.
pub use aba_core::{
    stacks, AbaHandle, AbaRegisterObject, AnnounceLlSc, BoundedAbaRegister, CasLlSc, LlScHandle,
    LlScObject, MoirLlSc, TaggedAbaRegister,
};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_usable() {
        let reg = crate::BoundedAbaRegister::new(2);
        let mut w = reg.handle(0);
        let mut r = reg.handle(1);
        w.dwrite(1);
        assert_eq!(r.dread(), (1, true));
    }
}
