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
//! * [`queue`] — step-level Michael–Scott queues in three protection modes
//!   (unprotected, tagged, epoch) whose schedules the ABA-witness search
//!   controls;
//! * [`set`] — step-level Harris–Michael ordered sets in four protection
//!   modes (unprotected, tagged, hazard, epoch), the traversal-based ABA
//!   surface;
//! * `protect` (crate-private) — the protection sequences under both
//!   structures, once: free-set alloc/release, epoch pin / retire stamp /
//!   advance / quarantine and hazard publish / scan / clear, one function
//!   per `aba_reclaim::Guard` method.  A structure file holds its own steps
//!   and the *composition* of these functions; a new structure × scheme row
//!   is a structure file (or one constructor) plus one `MODEL_ROSTER` line.
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
