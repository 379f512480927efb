//! The simulated algorithms, each written as straight-line code whose every
//! shared-memory access is one schedulable step.
//!
//! * [`fig3`] — Figure 3 (LL/SC/VL from a single bounded CAS);
//! * [`fig4`] — Figure 4 (ABA-detecting register from n+1 registers), with
//!   deliberately crippled variants for the lower-bound experiments;
//! * [`announce`] — the announce LL/SC (one bounded CAS plus n registers);
//! * [`fig5`] — Figure 5 (ABA-detecting register from an LL/SC/VL object)
//!   over Figure 3, the announce LL/SC and Moir's;
//! * [`baselines`] — the unbounded tagged register and Moir's LL/SC, and a
//!   broken naive register; every object of these five modules but the
//!   naive one spawns `aba-core`'s own code, not a model of it;
//! * [`stack`], [`queue`] and [`set`] — the Treiber stack, the
//!   Michael–Scott queue and the Harris–Michael set rows: `aba-lockfree`'s
//!   own structure code run on one generic [`ShippedSim`], each module a
//!   type alias and its tests; what tells the structures apart is the data
//!   of their [`ShippedCode`] impls (slots, dummy, lanes, quarantine,
//!   hardware family).  [`shipped_model`] is the one pairing of a hardware
//!   `Family × Scheme` cell with its model, which the model roster and the
//!   conformance table both derive their structure rows from;
//! * `protect` (crate-private) — the protection sequences under the
//!   structure rows, once: free-set alloc/release, epoch pin / retire stamp
//!   / advance / quarantine and hazard publish / scan / clear, one function
//!   per `aba_reclaim::Guard` method.  The adapter in `shipped.rs` composes
//!   them into the `NodeMem` the shipped code runs on; a new structure is a
//!   `ShippedCode` impl there, one link of `shipped_model`'s chain and a
//!   bound in the roster; its structure × scheme rows are derived.
//! * `replay` (crate-private) — the adapter that makes such code
//!   schedulable: a model implements `Model::call` over `Mem::read` /
//!   `write` / `cas` (and `Mem::retry` for unbounded CAS-retry loops), and
//!   `Replay` — the crate's only [`SimProcess`](crate::SimProcess) — logs
//!   the call's step results, re-runs the call from its start to find the
//!   step it is poised on, and commits local state when it returns.

pub mod announce;
pub mod baselines;
pub mod fig3;
pub mod fig4;
pub mod fig5;
mod protect;
pub mod queue;
mod replay;
pub mod set;
mod shipped;
pub mod stack;

pub use shipped::{shipped_model, ShippedCode, ShippedSim};
