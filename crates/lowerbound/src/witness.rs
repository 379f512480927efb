//! Violation witnesses for under-provisioned implementations.
//!
//! Theorem 1 (a) says a correct (even just obstruction-free) single-writer
//! 1-bit ABA-detecting register needs at least `n-1` bounded registers.  The
//! contrapositive is observable: take an implementation with fewer resources
//! than Figure 4 uses and an adversarial schedule makes it return a wrong
//! answer.  This module packages that observation (experiment E5):
//!
//! * the faithful Figure 4 and the unbounded tagged baseline *survive* the
//!   random-schedule search;
//! * the naive single-register strawman, Figure 4 with shared announce slots,
//!   and Figure 4 with a collapsed sequence domain all *fail*, and the
//!   search returns the schedule, the history and the specific read that
//!   missed a write.

use aba_sim::algorithms::baselines::{NaiveSim, TaggedSim};
use aba_sim::algorithms::fig4::Fig4Sim;
use aba_sim::{search_violation, SimAlgorithm, SimWorkload, Witness};

/// An explicit, seeded trial budget for the witness search.
///
/// The search tries `trials` random schedules; trial `k` uses seed
/// `seed + k` (wrapping), matching `search_violation`, so the number of
/// trials a violation needed is recoverable from the witness seed and every
/// run is reproducible from the budget alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBudget {
    /// Maximum number of random schedules per implementation.
    pub trials: u64,
    /// Base seed of the schedule stream.
    pub seed: u64,
}

impl SearchBudget {
    /// A budget of `trials` schedules starting at `seed`.
    pub fn new(trials: u64, seed: u64) -> Self {
        SearchBudget { trials, seed }
    }

    /// The standard E5b budget.
    ///
    /// Under the vendored RNG stream the slowest under-provisioned variant
    /// in the roster (Figure 4 with shared announce slots) needs roughly 200
    /// trials at small `n`; 600 gives ~3× headroom without relying on a
    /// hand-raised magic number at each call site.  The trials-used field of
    /// [`WitnessOutcome::Violated`] records how much of the budget each run
    /// actually consumed.
    pub fn standard() -> Self {
        SearchBudget::new(600, 0xABA)
    }
}

/// Outcome of the witness search for one implementation.
#[derive(Debug, Clone)]
pub enum WitnessOutcome {
    /// No definite violation found within the trial budget.
    Survived {
        /// Number of random schedules tried (the full budget).
        trials: u64,
    },
    /// A definite violation was found.
    Violated {
        /// Number of schedules tried up to and including the failing one.
        trials_used: u64,
        /// The witness (schedule, seed, history, violation).
        witness: Box<Witness>,
    },
}

impl WitnessOutcome {
    /// `true` iff a violation was found.
    pub fn is_violated(&self) -> bool {
        matches!(self, WitnessOutcome::Violated { .. })
    }

    /// Number of schedules the search actually ran: the full budget for
    /// survivors, the failing trial's index + 1 otherwise.
    pub fn trials_used(&self) -> u64 {
        match self {
            WitnessOutcome::Survived { trials } => *trials,
            WitnessOutcome::Violated { trials_used, .. } => *trials_used,
        }
    }
}

/// The witness-search report for one implementation.
#[derive(Debug, Clone)]
pub struct WitnessReport {
    /// Implementation name.
    pub algorithm: String,
    /// Number of processes.
    pub n: usize,
    /// Number of base objects the implementation uses.
    pub base_objects: usize,
    /// Whether the implementation is expected to be correct (used by the
    /// experiment table to label expected vs. surprising outcomes).
    pub expected_correct: bool,
    /// The search outcome.
    pub outcome: WitnessOutcome,
}

impl WitnessReport {
    /// `true` iff the observed outcome matches the expectation (correct
    /// implementations survive, under-provisioned ones are violated).
    pub fn matches_expectation(&self) -> bool {
        self.expected_correct != self.outcome.is_violated()
    }
}

fn search(algo: &dyn SimAlgorithm, expected_correct: bool, budget: SearchBudget) -> WitnessReport {
    let workload = SimWorkload::register_search(algo.n());
    let outcome = match search_violation(algo, workload, budget.trials, budget.seed) {
        Some(witness) => WitnessOutcome::Violated {
            // Trial indices are 0-based, so the count is index + 1.
            trials_used: witness.meta.trial + 1,
            witness: Box::new(witness),
        },
        None => WitnessOutcome::Survived {
            trials: budget.trials,
        },
    };
    WitnessReport {
        algorithm: algo.name().to_string(),
        n: algo.n(),
        base_objects: algo.initial_objects().len(),
        expected_correct,
        outcome,
    }
}

/// Run the witness search over the standard roster of implementations:
/// Figure 4 (faithful), the unbounded tagged baseline, the naive
/// single-register strawman, Figure 4 with only two (shared) announce slots,
/// and Figure 4 with a collapsed sequence-number domain.
pub fn witness_report(n: usize, budget: SearchBudget) -> Vec<WitnessReport> {
    assert!(n >= 3, "the crippled variants need at least 3 processes");
    vec![
        search(&Fig4Sim::new(n), true, budget),
        search(&TaggedSim::new(n), true, budget),
        search(&NaiveSim::new(n), false, budget),
        search(&Fig4Sim::with_announce_slots(n, 1), false, budget),
        search(&Fig4Sim::with_seq_domain(n, 1), false, budget),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_outcomes_match_expectations() {
        // The standard budget documents its own headroom: the broken
        // variants fail well within it and the correct ones never fail.
        let reports = witness_report(3, SearchBudget::standard());
        assert_eq!(reports.len(), 5);
        for report in &reports {
            assert!(
                report.matches_expectation(),
                "{} did not match expectation (expected_correct={}, violated={})",
                report.algorithm,
                report.expected_correct,
                report.outcome.is_violated()
            );
        }
    }

    #[test]
    fn violated_reports_carry_a_usable_witness_and_trial_count() {
        let budget = SearchBudget::new(200, 7);
        let reports = witness_report(3, budget);
        let broken: Vec<_> = reports.iter().filter(|r| r.outcome.is_violated()).collect();
        assert!(broken.len() >= 2);
        for report in broken {
            if let WitnessOutcome::Violated {
                trials_used,
                witness,
            } = &report.outcome
            {
                assert!(!witness.meta.schedule.is_empty());
                assert!(!witness.history.is_empty());
                // trials-used is consistent with the witness seed …
                assert!(*trials_used >= 1 && *trials_used <= budget.trials);
                assert_eq!(witness.meta.seed, budget.seed + (trials_used - 1));
                // … and visible through the accessor.
                assert_eq!(report.outcome.trials_used(), *trials_used);
                let text = witness.to_string();
                assert!(text.contains("missed write") || text.contains("phantom"));
            }
        }
    }

    #[test]
    fn survivors_report_the_full_budget() {
        let budget = SearchBudget::new(40, 1);
        let reports = witness_report(3, budget);
        let survivor = reports.iter().find(|r| r.expected_correct).unwrap();
        assert_eq!(survivor.outcome.trials_used(), 40);
    }

    #[test]
    fn search_is_deterministic_in_the_budget() {
        let budget = SearchBudget::new(200, 7);
        let a = witness_report(3, budget);
        let b = witness_report(3, budget);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.outcome.is_violated(), y.outcome.is_violated());
            assert_eq!(x.outcome.trials_used(), y.outcome.trials_used());
        }
    }

    #[test]
    #[should_panic(expected = "at least 3 processes")]
    fn small_systems_are_rejected() {
        let _ = witness_report(2, SearchBudget::new(10, 0));
    }
}
