//! Empirical companions to the lower bounds of
//! *"On the Time and Space Complexity of ABA Prevention and Detection"*
//! (Section 2 of the paper), driven over the `aba-sim` simulator and the
//! `aba-core` hardware objects.
//!
//! Lower bounds cannot be "run", but the structures their proofs build can
//! be, and the phenomena they predict can be observed:
//!
//! * [`covering`] reproduces the covering construction of **Lemma 1**: it
//!   drives the Figure 4 algorithm (or any simulated register algorithm)
//!   through rounds of block-writes and write completions and reports how
//!   many distinct registers the readers end up covering, and whether the
//!   register configuration repeats (the two ingredients of the proof).
//! * [`witness`] searches for *violation witnesses* against under-provisioned
//!   implementations — fewer than `n` announce registers, a sequence domain
//!   smaller than `2n+2`, a bare register — demonstrating that the resources
//!   the lower bound demands really are needed (experiment E5).
//! * [`tradeoff`] assembles the measured `(space, worst-case steps)` points
//!   of every implementation and checks them against the `m·t ≥ n-1`
//!   (resp. `2·m·t ≥ n-1`) bound of **Theorem 1 (b)/(c)** and Corollary 1
//!   (experiment E3).

pub mod covering;
pub mod tradeoff;
pub mod witness;

pub use covering::{run_covering_experiment, CoveringReport};
pub use tradeoff::{llsc_tradeoff_rows, register_tradeoff_rows, TradeoffRow};
pub use witness::{witness_report, SearchBudget, WitnessOutcome, WitnessReport};
