//! Golden tests for experiment E5 at the `lowerbound_witness` binary's
//! parameters (n = 6, the standard search budget, 6·(2n+2) covering
//! rounds): every E5b row's algorithm, base objects, outcome, trials used
//! and witness seed, and every E5a row's covered registers and repeat
//! rounds.
//!
//! The simulator, the schedule RNG and the search are deterministic, so any
//! change to these values is a change in what the experiment reports.

use aba_bench::lowerbound::{
    run_covering_experiment, witness_report, SearchBudget, WitnessOutcome,
};
use aba_sim::algorithms::baselines::{NaiveSim, TaggedSim};
use aba_sim::algorithms::fig4::Fig4Sim;
use aba_sim::SimAlgorithm;

const N: usize = 6;

/// `(algorithm, base objects, violated, trials used, witness seed)`.
type WitnessRow = (&'static str, usize, bool, u64, Option<u64>);

const GOLDEN_WITNESSES: [WitnessRow; 5] = [
    ("Figure 4 (faithful)", 7, false, 600, None),
    ("Tagged (1 unbounded register)", 1, false, 600, None),
    (
        "Naive (1 bounded register, value comparison)",
        1,
        true,
        2,
        Some(2747),
    ),
    (
        "Figure 4 (crippled: shared announce slots)",
        2,
        true,
        11,
        Some(2756),
    ),
    (
        "Figure 4 (crippled: small sequence domain)",
        7,
        true,
        1,
        Some(2746),
    ),
];

/// `(algorithm, max covered, repeat rounds)`.
type CoveringRow = (&'static str, usize, Option<(usize, usize)>);

const GOLDEN_COVERING: [CoveringRow; 3] = [
    ("Figure 4 (faithful)", 5, Some((1, 25))),
    ("Tagged (1 unbounded register)", 0, None),
    (
        "Naive (1 bounded register, value comparison)",
        0,
        Some((1, 4)),
    ),
];

#[test]
fn witness_rows_match_the_golden_outcomes() {
    let reports = witness_report(N, SearchBudget::standard());
    let rows: Vec<_> = reports
        .iter()
        .map(|r| {
            let seed = match &r.outcome {
                WitnessOutcome::Survived { .. } => None,
                WitnessOutcome::Violated { witness, .. } => Some(witness.meta.seed),
            };
            (
                r.algorithm.as_str(),
                r.base_objects,
                r.outcome.is_violated(),
                r.outcome.trials_used(),
                seed,
            )
        })
        .collect();
    assert_eq!(rows, GOLDEN_WITNESSES);
}

#[test]
fn covering_rows_match_the_golden_regimen() {
    let algos: [Box<dyn SimAlgorithm>; 3] = [
        Box::new(Fig4Sim::new(N)),
        Box::new(TaggedSim::new(N)),
        Box::new(NaiveSim::new(N)),
    ];
    let rows: Vec<_> = algos
        .iter()
        .map(|algo| run_covering_experiment(algo.as_ref(), 6 * (2 * N + 2)))
        .map(|r| (r.algorithm, r.max_covered, r.config_repeat))
        .collect();
    let golden: Vec<_> = GOLDEN_COVERING
        .iter()
        .map(|&(name, covered, repeat)| (name.to_string(), covered, repeat))
        .collect();
    assert_eq!(rows, golden);
}
