//! Family-level exhaustive-exploration tests: at the documented E11 bounds
//! (the model roster), every unprotected mode deterministically rediscovers
//! an ABA witness and every protected mode survives its complete reduced
//! schedule space.

use aba_sim::algorithms::queue::QueueSim;
use aba_sim::algorithms::set::SetSim;
use aba_sim::{
    explore_workload, run_workload, DporConfig, ExplorationReport, SimAlgorithm, SimWorkload,
    MODEL_ROSTER,
};

/// Explore `workload` and check the outcome `protected` demands: a protected
/// model stays clean and drains its space (or stops cleanly at `cap`
/// schedules, where the full space is release-mode-only), an unprotected one
/// yields a replayable witness.  `schedules` (executions run: the classes of a
/// drained or capped space, or those explored until the witness) and `cut`
/// (traces cut at the depth bound) are the pinned counters, both exact, so a
/// refactor that changes any exploration fails here.
fn explore_pinned(
    name: &str,
    algo: &dyn SimAlgorithm,
    workload: SimWorkload,
    protected: bool,
    (cap, schedules, cut): (Option<u64>, u64, u64),
) -> ExplorationReport {
    let cfg = DporConfig {
        stop_on_first: !protected,
        max_schedules: cap.unwrap_or(DporConfig::default().max_schedules),
        ..DporConfig::default()
    };
    let report = explore_workload(algo, workload, &cfg);
    if protected {
        assert!(report.witness().is_none(), "{name}: protected but broken");
        assert_eq!(report.hit_schedule_cap, cap.is_some(), "{name}");
        assert_eq!(report.complete, cap.is_none(), "{name}: must drain");
    } else {
        let w = report
            .witness()
            .unwrap_or_else(|| panic!("{name} must break under exhaustive search"));
        assert_eq!(w.meta.seed, 0, "{name}");
        assert!(!w.meta.schedule.is_empty(), "{name}");
        // The witness replays deterministically through the workload runner.
        let replay = run_workload(algo, workload, &w.meta.schedule);
        assert_eq!(replay.history, w.history, "{name}");
        assert_eq!(replay.wedged, w.wedged, "{name}");
    }
    assert_eq!(report.schedules_executed, schedules, "{name}");
    assert_eq!(report.truncated_traces, cut, "{name}");
    report
}

#[test]
fn roster_unprotected_rows_yield_a_witness_and_protected_rows_drain() {
    // In roster order.  The tagged queue's space (44k classes) drains only
    // in the release-mode table binary; here a capped slice must stay clean.
    let pins = [
        // n=3, 4 ABA-patterned writes, 2 reads per reader: the same workload
        // shape the random search samples, now enumerated.
        ("register/naive", (None, 37, 0)),
        // Pinned: the reduced space of this bound is exactly 225 trace
        // classes, none cut (register methods are bounded).
        ("register/tagged", (None, 225, 0)),
        ("queue/unprotected", (None, 12_272, 12)),
        ("queue/tagged", (Some(1_500), 1_500, 0)),
        // Pinned: deferred reclamation keeps the arena full for most of the
        // workload, collapsing the space to 76 classes.  (The E15 quarantine
        // steps leave this count untouched: with a single spare node an
        // advance can never be re-blocked while limbo is non-empty, so the
        // transfer is unreachable here — the off-roster bound below sizes the
        // arena so it *is*.)
        ("queue/epoch", (None, 76, 0)),
        ("set/unprotected", (None, 46, 0)),
        ("set/tagged", (None, 7_566, 0)),
        ("set/hazard", (None, 49_049, 0)),
        // Pinned, drained, nothing cut: the list is lock-free.  (An early
        // hand-written model of this row read 1 452 classes with 11 traces
        // cut at the depth bound.  The cause was not a process
        // spinning on a full arena — the allocation retries exactly once —
        // but a blocking epilogue: a completing operation re-entered unpin →
        // advance until its limbo had drained, i.e. waited on a peer parked
        // inside an epoch, and the wait also collapsed the space.  A retire
        // makes one reclamation attempt, as `EpochGuard::retire` does.)
        ("set/epoch", (None, 25_148, 0)),
        // The staggered workload: process 0 pushes, pops twice and pushes
        // again; process 1 pushes and pops twice.  The witness holds the
        // textbook pop ABA: process 1's push holds node 0 while process 0
        // pushes node 1, so its pop parks with the link 0 -> 1; process 0
        // pops both and re-pushes node 0, the stale CAS lands, and the last
        // pop returns the popped node 1's value a second time.
        ("stack/unprotected", (None, 1_764, 0)),
        // Pinned, drained, nothing cut: the counted head fails that CAS.
        ("stack/tagged", (None, 11_495, 0)),
        // Pinned, drained, nothing cut: unlike the tagged queue's 44k
        // classes, the whole space drains inside a debug test.
        ("queue/hazard", (None, 27_221, 0)),
    ];
    assert_eq!(pins.len(), MODEL_ROSTER.len());
    for (model, (key, pin)) in MODEL_ROSTER.iter().zip(pins) {
        assert_eq!(model.key(), key);
        let algo = (model.build)();
        explore_pinned(key, algo.as_ref(), model.workload, model.protected, pin);
    }
}

#[test]
fn off_roster_bounds_keep_their_pins() {
    // n=5 (3 producers x 1 enqueue, 2 consumers x 2 dequeues), arena of 2:
    // the dequeue ABA needs a consumer parked between its reads and its CAS
    // while the node it holds is recycled — the explorer proves such a
    // schedule exists by constructing one.  This witness wedges the
    // structure (cycled links), validated by replay.
    let report = explore_pinned(
        "queue/unprotected n=5",
        &QueueSim::unprotected(5, 2),
        SimWorkload::Queue {
            enqueues: 1,
            dequeues: 2,
        },
        false,
        (None, 1_706, 3),
    );
    assert!(report.witness().is_some_and(|w| w.wedged));

    // Small enough to drain in a debug test (the roster's tagged-queue bound
    // is only sliced above).
    explore_pinned(
        "queue/tagged n=2",
        &QueueSim::tagged(2, 2),
        SimWorkload::Queue {
            enqueues: 1,
            dequeues: 1,
        },
        true,
        (None, 4, 0),
    );

    // Sized so the E15 quarantine transfer is reachable: one producer with
    // four enqueues over a five-node arena can complete three and park
    // pinned inside the fourth (node allocated, tail not yet touched),
    // leaving the consumer's three retiring dequeues to advance once and
    // then block twice on the now-stale pin — the transfer trigger.  DPOR
    // certifies that no schedule in this space, including every transfer
    // and adoption interleaving, produces a non-linearizable history.
    // Pinned: the roomier arena stops collapsing the space the way the
    // capacity-2 bound does, and the quarantine's mask/stamp conflicts add
    // their own classes.
    explore_pinned(
        "queue/epoch quarantine",
        &QueueSim::epoch(2, 5),
        SimWorkload::Queue {
            enqueues: 4,
            dequeues: 3,
        },
        true,
        (None, 132_378, 0),
    );
}

#[test]
fn exploration_is_deterministic() {
    let algo = SetSim::unprotected(2, 3);
    let cfg = DporConfig {
        stop_on_first: true,
        ..DporConfig::default()
    };
    let explore = || explore_workload(&algo, SimWorkload::Set { rounds: 1 }, &cfg);
    let (r1, r2) = (explore(), explore());
    assert_eq!(r1.schedules_executed, r2.schedules_executed);
    assert_eq!(r1.classes_pruned, r2.classes_pruned);
    assert_eq!(r1.steps_executed, r2.steps_executed);
    assert_eq!(
        r1.witness().map(|w| &w.meta.schedule),
        r2.witness().map(|w| &w.meta.schedule)
    );
}
