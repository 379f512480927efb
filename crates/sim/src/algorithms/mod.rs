//! Algorithm state machines for the simulator.
//!
//! * [`fig3`] — Figure 3 (LL/SC/VL from a single bounded CAS);
//! * [`fig4`] — Figure 4 (ABA-detecting register from n+1 registers), with
//!   deliberately crippled variants for the lower-bound experiments;
//! * [`baselines`] — the unbounded tagged baseline and a broken naive
//!   register;
//! * [`queue`] — step-level Michael–Scott queues in three protection modes
//!   (unprotected, tagged, epoch) whose schedules the ABA-witness search
//!   controls;
//! * [`set`] — step-level Harris–Michael ordered sets in four protection
//!   modes (unprotected, tagged, hazard, epoch), the traversal-based ABA
//!   surface;
//! * `protect` (crate-private) — the one protection sub-machine under both
//!   structures: free-set alloc/release, epoch pin / retire stamp / advance
//!   / quarantine and hazard publish / scan / clear as explicit
//!   shared-memory steps, the simulator counterpart of `aba_reclaim`'s
//!   `Guard`.  A structure file holds its own steps and the *composition*
//!   of these sub-sequences; a new structure × scheme row is a structure
//!   file (or one constructor) plus one `MODEL_ROSTER` line.

pub mod baselines;
pub mod fig3;
pub mod fig4;
mod protect;
pub mod queue;
mod replay;
pub mod set;
