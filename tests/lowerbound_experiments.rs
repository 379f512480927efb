//! Integration tests for the lower-bound experiments (E3, E5): the covering
//! regimen, the violation-witness roster and the tradeoff table, run
//! end-to-end through the public APIs of `aba_bench::lowerbound` and `aba-sim`.

use aba_repro::lowerbound::{
    llsc_tradeoff_rows, register_tradeoff_rows, run_covering_experiment, witness_report,
    SearchBudget,
};
use aba_repro::sim::algorithms::fig4::Fig4Sim;
use aba_repro::sim::{search_violation, SimWorkload};

#[test]
fn covering_experiment_matches_lemma1_structure() {
    let n = 5;
    let report = run_covering_experiment(&Fig4Sim::new(n), 8 * (2 * n + 2));
    // n-1 readers cover n-1 distinct registers …
    assert_eq!(report.max_covered, n - 1);
    // … and the bounded register configuration repeats, the two ingredients
    // of the Lemma 1 proof.
    assert!(report.config_repeat.is_some());
}

#[test]
fn witness_roster_separates_correct_from_underprovisioned() {
    let budget = SearchBudget::new(250, 2024);
    let reports = witness_report(4, budget);
    let (correct, broken): (Vec<_>, Vec<_>) = reports.iter().partition(|r| r.expected_correct);
    assert!(correct.iter().all(|r| !r.outcome.is_violated()));
    assert!(broken.iter().all(|r| r.outcome.is_violated()));
    // Survivors consume the whole budget; violators report how much of it
    // they actually needed.
    assert!(correct
        .iter()
        .all(|r| r.outcome.trials_used() == budget.trials));
    assert!(broken
        .iter()
        .all(|r| r.outcome.trials_used() <= budget.trials));
}

#[test]
fn crippled_variants_fail_while_faithful_figure4_survives() {
    let n = 4;
    let workload = SimWorkload::register_search(n);
    assert!(search_violation(&Fig4Sim::new(n), workload, 100, 9).is_none());
    assert!(search_violation(&Fig4Sim::with_seq_domain(n, 1), workload, 300, 9).is_some());
    assert!(search_violation(&Fig4Sim::with_announce_slots(n, 1), workload, 300, 9).is_some());
}

#[test]
fn tradeoff_rows_respect_theorem1_for_all_swept_n() {
    for n in [4usize, 8, 16] {
        for row in register_tradeoff_rows(n) {
            assert!(row.satisfies_bound(), "{} at n={n}", row.name);
            assert!(row.observation_within_design(), "{} at n={n}", row.name);
        }
        for row in llsc_tradeoff_rows(n) {
            assert!(row.satisfies_bound(), "{} at n={n}", row.name);
            assert!(row.observation_within_design(), "{} at n={n}", row.name);
        }
    }
}

#[test]
fn figure3_and_announce_products_are_within_constant_of_the_bound() {
    // Both upper bounds are asymptotically optimal: their m·t products are
    // Θ(n), i.e. within a small constant factor of n-1.
    for n in [8usize, 16, 32] {
        let rows = llsc_tradeoff_rows(n);
        for name_fragment in ["Figure 3 (1 CAS, O(n) steps)", "Announce"] {
            let row = rows
                .iter()
                .find(|r| r.name.contains(name_fragment))
                .unwrap_or_else(|| panic!("missing row {name_fragment}"));
            assert!(row.product() >= row.bound());
            assert!(
                row.product() <= 4 * row.bound(),
                "{} product {} too far above bound {}",
                row.name,
                row.product(),
                row.bound()
            );
        }
    }
}
