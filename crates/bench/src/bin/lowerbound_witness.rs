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
    let algos: Vec<Box<dyn SimAlgorithm>> = vec![
        Box::new(Fig4Sim::new(n)),
        Box::new(TaggedSim::new(n)),
        Box::new(NaiveSim::new(n)),
    ];
    let covering = Table::of(
        &format!("E5a: Lemma 1 covering regimen, n = {n}"),
        algos
            .iter()
            .map(|algo| run_covering_experiment(algo.as_ref(), 6 * (2 * n + 2))),
        &[
            ("algorithm", &|r| r.algorithm.clone()),
            ("base objects", &|r| r.base_objects.to_string()),
            ("max covered registers", &|r| r.max_covered.to_string()),
            ("reaches n-1", &|r| r.reaches_full_covering().to_string()),
            (
                "register configuration repeats",
                &|r| match r.config_repeat {
                    Some((i, j)) => format!("yes (rounds {i} and {j})"),
                    None => "no".to_string(),
                },
            ),
        ],
    );
    println!("{}", covering.render());

    // --- Violation witnesses ---------------------------------------------
    let budget = SearchBudget::standard();
    let witnesses = Table::of(
        &format!(
            "E5b: violation-witness search, n = {n}, budget {} schedules (seed {:#x})",
            budget.trials, budget.seed
        ),
        witness_report(n, budget),
        &[
            ("algorithm", &|r| r.algorithm.clone()),
            ("base objects", &|r| r.base_objects.to_string()),
            ("expected correct", &|r| r.expected_correct.to_string()),
            ("outcome", &|r| match &r.outcome {
                WitnessOutcome::Survived { trials } => format!("survived {trials} schedules"),
                WitnessOutcome::Violated {
                    trials_used,
                    witness,
                } => format!(
                    "violated after {trials_used} trials (seed {})",
                    witness.meta.seed
                ),
            }),
            ("witness", &|r| match &r.outcome {
                WitnessOutcome::Survived { .. } => String::new(),
                WitnessOutcome::Violated { witness, .. } => witness.to_string(),
            }),
        ],
    );
    println!("{}", witnesses.render());
    println!("Expected shape: Figure 4 and the unbounded tagged register survive; the naive register and both crippled Figure 4 variants (shared announce slots / collapsed sequence domain) yield concrete missed-write witnesses — the resources Theorem 1 (a) demands really are necessary.");
}
