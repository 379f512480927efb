//! Golden-pinned minimized witness schedules.
//!
//! These fixtures are the ddmin-minimized ABA witnesses the random search
//! finds for the unprotected queue and set (first found by PR 5's random
//! search — today's `search_violation` — under the vendored RNG, then shrunk with
//! `minimize_violation_schedule`).  Pinning them guards three things:
//!
//! 1. the witnesses still *reproduce* (the simulated algorithms and checkers
//!    have not drifted);
//! 2. they are still 1-minimal (the minimizer has not regressed);
//! 3. the searches still find them at the same seed/trial (the vendored RNG
//!    stream and schedule generators are stable).
//!
//! The exhaustive explorer must do at least as well: at a strictly *smaller*
//! workload bound it must produce a witness whose minimized schedule is no
//! longer than the golden one.

use aba_sim::algorithms::queue::QueueSim;
use aba_sim::algorithms::set::SetSim;
use aba_sim::{
    explore_workload, minimize_violation_schedule, run_workload, search_violation, DporConfig,
    SimAlgorithm, SimWorkload,
};
use aba_spec::ProcessId;

/// The minimized unprotected-queue witness of the shipped queue code
/// (`aba_lockfree::MsQueue`): `QueueSim::unprotected(6, 3)`, workload 4
/// enqueues per producer / 5 dequeues per consumer
/// (`SimWorkload::queue_search(6)`), found by `search_violation(_, _, 200, 1)`
/// at seed 50 (trial 49) and shrunk from 1080 steps to 41.
const GOLDEN_QUEUE_SEED: u64 = 50;
const GOLDEN_QUEUE_TRIAL: u64 = 49;
const GOLDEN_QUEUE_MIN: [ProcessId; 41] = [
    5, 5, 2, 2, 2, 2, 2, 2, 2, 2, 5, 5, 5, 5, 5, 5, 5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 4, 4, 4, 4, 4, 4,
    4, 4, 4, 1, 1, 1, 1, 1, 1,
];

/// The minimized unprotected-set witness of the shipped list code
/// (`aba_lockfree::list::HmList`): `SetSim::unprotected(6, 4)`,
/// `SimWorkload::set_search()`, found by `search_violation(_, _, 400, 1)` at
/// seed 8 (trial 7) and shrunk from 1440 steps to 57.
const GOLDEN_SET_SEED: u64 = 8;
const GOLDEN_SET_TRIAL: u64 = 7;
const GOLDEN_SET_MIN: [ProcessId; 57] = [
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4,
    4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2, 2,
];

fn violates(algo: &dyn SimAlgorithm, workload: SimWorkload, sched: &[ProcessId]) -> bool {
    let outcome = run_workload(algo, workload, sched);
    workload.violates(&outcome.history, outcome.wedged)
}

fn assert_one_minimal(minimized: &[ProcessId], mut violates: impl FnMut(&[ProcessId]) -> bool) {
    for i in 0..minimized.len() {
        let mut shorter = minimized.to_vec();
        shorter.remove(i);
        if !shorter.is_empty() {
            assert!(
                !violates(&shorter),
                "step {i} of the golden schedule is removable"
            );
        }
    }
}

#[test]
fn golden_queue_witness_reproduces_and_is_one_minimal() {
    let (algo, workload) = (QueueSim::unprotected(6, 3), SimWorkload::queue_search(6));
    assert!(
        violates(&algo, workload, &GOLDEN_QUEUE_MIN),
        "the golden queue witness no longer reproduces"
    );
    assert_one_minimal(&GOLDEN_QUEUE_MIN, |s| violates(&algo, workload, s));
}

#[test]
fn golden_set_witness_reproduces_and_is_one_minimal() {
    let (algo, workload) = (SetSim::unprotected(6, 4), SimWorkload::set_search());
    assert!(
        violates(&algo, workload, &GOLDEN_SET_MIN),
        "the golden set witness no longer reproduces"
    );
    assert_one_minimal(&GOLDEN_SET_MIN, |s| violates(&algo, workload, s));
}

#[test]
fn queue_search_and_minimizer_still_derive_the_golden_fixture() {
    let (algo, workload) = (QueueSim::unprotected(6, 3), SimWorkload::queue_search(6));
    let witness = search_violation(&algo, workload, 200, 1).expect("unprotected must break");
    assert_eq!(witness.meta.seed, GOLDEN_QUEUE_SEED);
    assert_eq!(witness.meta.trial, GOLDEN_QUEUE_TRIAL);
    let minimized =
        minimize_violation_schedule(&witness.meta.schedule, |s| violates(&algo, workload, s));
    assert_eq!(minimized, GOLDEN_QUEUE_MIN.to_vec());
}

#[test]
fn set_search_and_minimizer_still_derive_the_golden_fixture() {
    let (algo, workload) = (SetSim::unprotected(6, 4), SimWorkload::set_search());
    let witness = search_violation(&algo, workload, 400, 1).expect("unprotected must break");
    assert_eq!(witness.meta.seed, GOLDEN_SET_SEED);
    assert_eq!(witness.meta.trial, GOLDEN_SET_TRIAL);
    let minimized =
        minimize_violation_schedule(&witness.meta.schedule, |s| violates(&algo, workload, s));
    assert_eq!(minimized, GOLDEN_SET_MIN.to_vec());
}

/// The explorer's first witness for `workload`, minimized.
fn minimized_dpor_witness(algo: &dyn SimAlgorithm, workload: SimWorkload) -> Vec<ProcessId> {
    let cfg = DporConfig {
        stop_on_first: true,
        ..DporConfig::default()
    };
    let report = explore_workload(algo, workload, &cfg);
    let w = report
        .witness()
        .expect("exhaustive exploration must find the ABA");
    let minimized = minimize_violation_schedule(&w.meta.schedule, |s| violates(algo, workload, s));
    assert!(violates(algo, workload, &minimized));
    minimized
}

#[test]
fn dpor_queue_witness_minimizes_to_at_most_the_golden_length() {
    // The explorer works at a strictly smaller bound (5 processes, arena 2,
    // 1 enqueue / 2 dequeues vs. the search's 6 processes, arena 3, 4/5) and
    // still proves a witness exists — whose minimized schedule is shorter
    // than the golden one.
    let workload = SimWorkload::Queue {
        enqueues: 1,
        dequeues: 2,
    };
    let minimized = minimized_dpor_witness(&QueueSim::unprotected(5, 2), workload);
    assert!(
        minimized.len() <= GOLDEN_QUEUE_MIN.len(),
        "DPOR witness minimized to {} steps, golden is {}",
        minimized.len(),
        GOLDEN_QUEUE_MIN.len()
    );
}

#[test]
fn dpor_set_witness_minimizes_to_at_most_the_golden_length() {
    let workload = SimWorkload::Set { rounds: 1 };
    let minimized = minimized_dpor_witness(&SetSim::unprotected(2, 3), workload);
    assert!(
        minimized.len() <= GOLDEN_SET_MIN.len(),
        "DPOR witness minimized to {} steps, golden is {}",
        minimized.len(),
        GOLDEN_SET_MIN.len()
    );
}
