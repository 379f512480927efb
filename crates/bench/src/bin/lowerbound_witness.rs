//! Experiment E5: covering structure and violation witnesses for the space
//! lower bound (Theorem 1 (a), Lemma 1).
//!
//! First table: the covering regimen of Lemma 1 run against the simulated
//! implementations — the faithful Figure 4 reaches n−1 covered registers and
//! its bounded register configuration repeats, exactly the two ingredients of
//! the proof.  Second table: the violation-witness search — implementations
//! with fewer resources than the bound demands produce concrete missed-ABA
//! schedules.
//!
//! Run with `cargo run -p aba-bench --bin lowerbound_witness --release`.

use aba_bench::Table;
use aba_lowerbound::{run_covering_experiment, witness_report, SearchBudget, WitnessOutcome};
use aba_sim::algorithms::baselines::{NaiveSim, TaggedSim};
use aba_sim::algorithms::fig4::Fig4Sim;
use aba_sim::SimAlgorithm;

fn main() {
    aba_bench::Args::from_env(""); // takes no flags: anything given is a mistake

    let n = 6;

    // --- Covering structure (Lemma 1) ------------------------------------
    let mut covering = Table::new(
        &format!("E5a: Lemma 1 covering regimen, n = {n}"),
        &[
            "algorithm",
            "base objects",
            "max covered registers",
            "reaches n-1",
            "register configuration repeats",
        ],
    );
    let algos: Vec<Box<dyn SimAlgorithm>> = vec![
        Box::new(Fig4Sim::new(n)),
        Box::new(TaggedSim::new(n)),
        Box::new(NaiveSim::new(n)),
    ];
    for algo in &algos {
        let report = run_covering_experiment(algo.as_ref(), 6 * (2 * n + 2));
        covering.row(&[
            report.algorithm.clone(),
            report.base_objects.to_string(),
            report.max_covered.to_string(),
            report.reaches_full_covering().to_string(),
            match report.config_repeat {
                Some((i, j)) => format!("yes (rounds {i} and {j})"),
                None => "no".to_string(),
            },
        ]);
    }
    println!("{}", covering.render());

    // --- Violation witnesses ---------------------------------------------
    let budget = SearchBudget::standard();
    let mut witnesses = Table::new(
        &format!(
            "E5b: violation-witness search, n = {n}, budget {} schedules (seed {:#x})",
            budget.trials, budget.seed
        ),
        &[
            "algorithm",
            "base objects",
            "expected correct",
            "outcome",
            "witness",
        ],
    );
    for report in witness_report(n, budget) {
        let (outcome, witness) = match &report.outcome {
            WitnessOutcome::Survived { trials } => {
                (format!("survived {trials} schedules"), String::new())
            }
            WitnessOutcome::Violated {
                trials_used,
                witness,
            } => (
                format!(
                    "violated after {trials_used} trials (seed {})",
                    witness.meta.seed
                ),
                witness.to_string(),
            ),
        };
        witnesses.row(&[
            report.algorithm.clone(),
            report.base_objects.to_string(),
            report.expected_correct.to_string(),
            outcome,
            witness,
        ]);
    }
    println!("{}", witnesses.render());
    println!("Expected shape: Figure 4 and the unbounded tagged register survive; the naive register and both crippled Figure 4 variants (shared announce slots / collapsed sequence domain) yield concrete missed-write witnesses — the resources Theorem 1 (a) demands really are necessary.");
}
