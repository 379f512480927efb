//! Golden tests for experiment E5 at the `lowerbound_witness` binary's
//! parameters (n = 6, the standard search budget, 6·(2n+2) covering
//! rounds): every E5b row's algorithm, base objects, outcome, trials used
//! and witness seed, and every E5a row's covered registers and repeat
//! rounds.  Also the adaptive adversary's cells under E1, E2 and E3
//! (`measure_register_worst_case` on Figure 4, `measure_llsc_worst_case` on
//! Figure 3 and the announce LL/SC, 8 rounds each) at n ∈ {2, 4, 8, 16, 32},
//! and every E3 row at the `table_tradeoff` binary's n ∈ {4, 8, 16, 32}.
//!
//! The simulator, the schedule RNG and the search are deterministic, so any
//! change to these values is a change in what the experiment reports.

use aba_bench::lowerbound::{
    llsc_tradeoff_rows, register_tradeoff_rows, run_covering_experiment, witness_report,
    SearchBudget, WitnessOutcome,
};
use aba_sim::algorithms::announce::AnnounceSim;
use aba_sim::algorithms::baselines::{NaiveSim, TaggedSim};
use aba_sim::algorithms::fig3::Fig3Sim;
use aba_sim::algorithms::fig4::Fig4Sim;
use aba_sim::{measure_llsc_worst_case, measure_register_worst_case, SimAlgorithm, StepStats};

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

/// `(n, worst case, total, operations)` of one adversary cell.
type AdversaryCell = (usize, u64, u64, u64);

/// Figure 4's `DRead`, victim 1: 4 steps at every n.
const GOLDEN_FIG4_DREAD: [AdversaryCell; 5] = [
    (2, 4, 32, 8),
    (4, 4, 32, 8),
    (8, 4, 32, 8),
    (16, 4, 32, 8),
    (32, 4, 32, 8),
];

/// Figure 3's `LL`/`VL`, victim 0: the `LL` reaches its 2n + 1 design bound.
const GOLDEN_FIG3_LL: [AdversaryCell; 5] = [
    (2, 5, 44, 16),
    (4, 9, 72, 16),
    (8, 17, 128, 16),
    (16, 33, 240, 16),
    (32, 65, 464, 16),
];

/// The announce LL/SC's `LL`/`VL`, victim 0: 3 steps at every n.
const GOLDEN_ANNOUNCE_LL: [AdversaryCell; 5] = [
    (2, 3, 27, 16),
    (4, 3, 29, 16),
    (8, 3, 29, 16),
    (16, 3, 28, 16),
    (32, 3, 29, 16),
];

/// One adversary measurement at every n of the table.
fn adversary_cells(measure: impl Fn(usize) -> StepStats) -> Vec<AdversaryCell> {
    [2, 4, 8, 16, 32]
        .into_iter()
        .map(|n| {
            let s = measure(n);
            (n, s.worst_case, s.total, s.operations)
        })
        .collect()
}

#[test]
fn adversary_cells_match_the_golden_counts() {
    let fig4 = adversary_cells(|n| measure_register_worst_case(&Fig4Sim::new(n), 1, 8));
    let fig3 = adversary_cells(|n| measure_llsc_worst_case(&Fig3Sim::new(n), 0, 8));
    let announce = adversary_cells(|n| measure_llsc_worst_case(&AnnounceSim::new(n), 0, 8));
    assert_eq!(fig4, GOLDEN_FIG4_DREAD);
    assert_eq!(fig3, GOLDEN_FIG3_LL);
    assert_eq!(announce, GOLDEN_ANNOUNCE_LL);
}

/// `(implementation, m, bounded, design t, observed t)` of one E3 row.
type TradeoffCell = (&'static str, usize, bool, u64, u64);

const FIG4: &str = "Figure 4 (n+1 registers)";
const FIG5_FIG3: &str = "Figure 5 over Figure 3 (1 CAS)";
const FIG5_ANNOUNCE: &str = "Figure 5 over Announce (1 CAS + n regs)";
const TAGGED: &str = "tagged (unbounded)";
const FIG3: &str = "Figure 3 (1 CAS, O(n) steps)";
const ANNOUNCE: &str = "Announce (1 CAS + n registers, O(1) steps)";
const MOIR: &str = "Moir (1 unbounded CAS)";

/// E3's registers then LL/SC objects at n: Figure 5 over Figure 3 observes
/// a `VL` plus a full `LL` (2n + 2), Figure 3 its design 2n + 1.
fn golden_tradeoff(n: usize) -> Vec<TradeoffCell> {
    let n64 = n as u64;
    vec![
        (FIG4, n + 1, true, 4, 4),
        (FIG5_FIG3, 1, true, 4 * n64 + 1, 2 * n64 + 2),
        (FIG5_ANNOUNCE, n + 1, true, 5, 4),
        (TAGGED, 1, false, 1, 1),
        (FIG3, 1, true, 2 * n64 + 1, 2 * n64 + 1),
        (ANNOUNCE, n + 1, true, 3, 3),
        (MOIR, 1, false, 1, 1),
    ]
}

#[test]
fn tradeoff_rows_match_the_golden_table() {
    for n in [4, 8, 16, 32] {
        let rows: Vec<_> = register_tradeoff_rows(n)
            .into_iter()
            .chain(llsc_tradeoff_rows(n))
            .map(|r| {
                assert_eq!(r.n, n);
                let cell = (r.space.total_objects(), r.space.bounded);
                (r.name, cell, r.design_worst_steps, r.observed_worst_steps)
            })
            .collect();
        let golden: Vec<_> = golden_tradeoff(n)
            .into_iter()
            .map(|(name, m, bounded, design, observed)| {
                (name.to_string(), (m, bounded), design, observed)
            })
            .collect();
        assert_eq!(rows, golden, "n = {n}");
    }
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
