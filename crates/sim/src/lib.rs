//! # aba-sim
//!
//! A deterministic shared-memory simulator reproducing the formal model of
//! *"On the Time and Space Complexity of ABA Prevention and Detection"*
//! (Aghazadeh & Woelfel, PODC 2015): `n` processes executing shared-memory
//! *steps* on atomic base objects, driven by an explicit (possibly
//! adversarial) schedule.
//!
//! The simulator exists because two families of experiments cannot be run
//! faithfully on hardware:
//!
//! 1. the **lower-bound experiments** (E5) need full control over the
//!    interleaving — block-writes, covering configurations, repeated register
//!    configurations — exactly as in the proofs of Lemma 1 and Lemma 3;
//! 2. the **worst-case step-complexity measurements** (E1/E2) need an
//!    adversary that interferes with a victim between every one of its steps,
//!    which a preemptive OS scheduler only produces by accident.
//!
//! A simulated process is scheduled one base-object step at a time
//! ([`algorithm::SimProcess`]).  What the crate schedules — Figure 3,
//! Figure 4 (faithful and deliberately crippled variants) and the announce
//! LL/SC, which are `aba-core`'s own code run on the simulator's memory, and
//! the models of the unbounded tagged baseline, a broken naive register,
//! Michael–Scott queues and Harris–Michael sets under four protection
//! schemes — is straight-line code that reads like the paper's listings,
//! every memory access of which is one such step.
//!
//! ```
//! use aba_sim::algorithms::fig4::Fig4Sim;
//! use aba_sim::{search_violation, SimWorkload};
//!
//! let workload = SimWorkload::register_search(3);
//! // The faithful Figure 4 survives a random adversarial search …
//! assert!(search_violation(&Fig4Sim::new(3), workload, 20, 42).is_none());
//! // … while a crippled variant (sequence domain collapsed to one value)
//! // yields a concrete missed-ABA witness.
//! assert!(search_violation(&Fig4Sim::with_seq_domain(3, 1), workload, 200, 42).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algorithm;
pub mod algorithms;
pub mod audit;
pub mod executor;
pub mod explore;
pub mod object;
pub mod roster;
pub mod schedule;

pub use algorithm::{MethodCall, MethodResponse, SimAlgorithm, SimProcess};
pub use audit::{
    audit_bursty, standard_family_audits, AuditConfig, AuditVerdict, FootprintAuditor, UnderReport,
    UnderReportKind,
};
pub use executor::{Simulation, StepOutcome};
pub use explore::dpor::{
    explore_exhaustive, explore_exhaustive_audited, explore_workload, DporConfig, ExplorationReport,
};
pub use explore::{
    measure_llsc_worst_case, measure_register_worst_case, minimize_violation_schedule,
    run_workload, search_violation, Execution, SimWorkload, StepStats, Witness, WitnessMeta,
};
pub use object::{
    ActualAccess, BaseObject, BaseOp, ObjId, ObjectKind, SharedMemory, StepAccess, StepResult,
};
pub use roster::{SimModel, MODEL_ROSTER};
