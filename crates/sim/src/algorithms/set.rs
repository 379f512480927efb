//! The Harris–Michael set rows of the simulator: `aba-lockfree`'s own list
//! code, run step by step.
//!
//! The hardware sets exhibit their ABA only when a preemptive scheduler
//! interleaves unluckily; here the *schedule is the input*, so a seeded
//! search reproducibly produces a non-linearizable execution of the
//! unprotected variant — the hardest surface the paper's schemes must
//! defend: an operation parks holding a predecessor's link word deep inside
//! the chain while other processes unlink, free and recycle the nodes it
//! reasons about.  A process is `aba_lockfree::list::HmList` — the find,
//! insert, remove and get every `GenericSet` and `GenericMap` handle runs —
//! with every walk started at the root slot (object 0), on the generic
//! [`ShippedSim`], in four modes: unprotected (a stale splice or unlink CAS
//! succeeds against a recycled node), tagged (every root and link word
//! counted), hazard (the list's three lanes, published hand-over-hand) and
//! epoch (no quarantine: limbo is never transferred).

use aba_lockfree::list::HmList;

use super::shipped::ShippedSim;

/// A simulated Harris–Michael set: `n` processes over a capacity-`capacity`
/// node arena.
pub type SetSim = ShippedSim<HmList>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::MethodCall;
    use crate::algorithm::{SimAlgorithm, SimProcess};
    use crate::algorithms::protect::Links;
    use crate::algorithms::replay::Replay;
    use crate::executor::Simulation;
    use crate::object::ObjId;
    use aba_lockfree::list::LANES;
    use aba_reclaim::{Scheme, NIL};
    use aba_spec::{check_history, Spec};

    const OBJ_HEAD: ObjId = 0;
    const OBJ_FREE: ObjId = 1;

    fn run_sequential(algo: &SetSim) {
        let mut sim = Simulation::new(algo);
        sim.enqueue(0, MethodCall::Insert(5));
        sim.enqueue(0, MethodCall::Insert(3));
        sim.enqueue(0, MethodCall::Insert(5));
        sim.enqueue(0, MethodCall::Contains(3));
        sim.enqueue(0, MethodCall::Remove(5));
        sim.enqueue(0, MethodCall::Remove(5));
        sim.enqueue(0, MethodCall::Contains(5));
        sim.enqueue(0, MethodCall::Insert(7));
        sim.enqueue(0, MethodCall::Remove(3));
        sim.enqueue(0, MethodCall::Remove(7));
        sim.run_until_quiescent();
        let kinds: Vec<String> = sim
            .history()
            .ops()
            .iter()
            .map(|o| o.kind.to_string())
            .collect();
        assert_eq!(
            kinds,
            [
                "Insert(5) -> true",
                "Insert(3) -> true",
                "Insert(5) -> false",
                "Contains(3) -> true",
                "Remove(5) -> true",
                "Remove(5) -> false",
                "Contains(5) -> false",
                "Insert(7) -> true",
                "Remove(3) -> true",
                "Remove(7) -> true",
            ],
            "{}",
            algo.name()
        );
        assert!(check_history(sim.history(), Spec::Set).is_linearizable());
    }

    #[test]
    fn sequential_set_behaviour_all_variants() {
        run_sequential(&SetSim::unprotected(2, 4));
        run_sequential(&SetSim::tagged(2, 4));
        run_sequential(&SetSim::hazard(2, 4));
        run_sequential(&SetSim::epoch(2, 4));
    }

    #[test]
    fn arena_exhaustion_fails_the_insert_cleanly() {
        let algo = SetSim::unprotected(1, 2);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::Insert(1));
        sim.enqueue(0, MethodCall::Insert(2));
        sim.enqueue(0, MethodCall::Insert(3));
        sim.run_until_quiescent();
        let kinds: Vec<String> = sim
            .history()
            .ops()
            .iter()
            .map(|o| o.kind.to_string())
            .collect();
        assert_eq!(
            kinds,
            [
                "Insert(1) -> true",
                "Insert(2) -> true",
                "Insert(3) -> false"
            ]
        );
        assert!(check_history(sim.history(), Spec::Set).is_linearizable());
    }

    #[test]
    fn removed_nodes_recirculate_through_every_reclaimer() {
        // Capacity 2 with insert/remove churn: the arena runs out unless
        // unlinked nodes actually return to the free set (via the hazard
        // scan / the epoch advances / the immediate free).
        for algo in [
            SetSim::unprotected(1, 2),
            SetSim::tagged(1, 2),
            SetSim::hazard(1, 2),
            SetSim::epoch(1, 2),
        ] {
            let mut sim = Simulation::new(&algo);
            for i in 0..8u32 {
                sim.enqueue(0, MethodCall::Insert(i % 3 + 1));
                sim.enqueue(0, MethodCall::Remove(i % 3 + 1));
            }
            sim.run_until_quiescent();
            for (i, op) in sim.history().ops().iter().enumerate() {
                assert_eq!(
                    op.kind,
                    if i % 2 == 0 {
                        aba_spec::OpKind::Insert {
                            key: (i as u32 / 2) % 3 + 1,
                            ok: true,
                        }
                    } else {
                        aba_spec::OpKind::Remove {
                            key: (i as u32 / 2) % 3 + 1,
                            ok: true,
                        }
                    },
                    "{} op {i}",
                    algo.name()
                );
            }
            assert!(check_history(sim.history(), Spec::Set).is_linearizable());
        }
    }

    #[test]
    fn interleaved_runs_stay_well_formed() {
        for algo in [
            SetSim::tagged(3, 6),
            SetSim::hazard(3, 6),
            SetSim::epoch(3, 6),
        ] {
            let mut sim = Simulation::new(&algo);
            for i in 0..4u32 {
                sim.enqueue(0, MethodCall::Insert(i + 1));
                sim.enqueue(1, MethodCall::Remove(i + 1));
                sim.enqueue(2, MethodCall::Contains(i + 1));
            }
            sim.run_schedule(&crate::schedule::random(3, 800, 11));
            sim.run_until_quiescent();
            assert!(sim.history().is_well_formed());
            assert_eq!(sim.history().len(), 12, "{}", algo.name());
            assert!(
                check_history(sim.history(), Spec::Set).is_linearizable(),
                "{}",
                algo.name()
            );
        }
    }

    /// Steps process 0 takes to complete its next call, alone (`None` if it
    /// has not responded within 10 000).
    fn solo_steps(sim: &mut Simulation) -> Option<u64> {
        use crate::executor::StepOutcome;
        (0..10_000)
            .any(|_| {
                matches!(
                    sim.step(0),
                    StepOutcome::Stepped {
                        completed: true,
                        ..
                    }
                )
            })
            .then(|| sim.last_op_steps(0))
    }

    /// Own steps of an epoch `Remove` that finds its key first in the chain:
    /// pin at the first `protect` (3), walk to the key — read the root, the
    /// node's link, the root, the key and the root again (5) — mark and
    /// unlink (2), stamp the retiree (1), unpin (1), then exactly one
    /// reclamation attempt — read g, scan both locals, CAS g (4).  The
    /// retiree is at most one advance old, so nothing is freed and the call
    /// responds, as the queue's dequeue and the hardware's `quiesce` do,
    /// with the node left in limbo for a later operation's attempt.
    const EPOCH_REMOVE_STEPS: u64 = 16;

    #[test]
    fn a_solo_epoch_remove_makes_one_reclamation_attempt() {
        let mut sim = Simulation::new(&SetSim::epoch(2, 4));
        sim.enqueue(0, MethodCall::Insert(5));
        sim.enqueue(0, MethodCall::Remove(5));
        assert!(solo_steps(&mut sim).is_some());
        assert_eq!(solo_steps(&mut sim), Some(EPOCH_REMOVE_STEPS));
    }

    #[test]
    fn an_epoch_remove_responds_while_its_peer_is_parked_pinned() {
        // Lock-freedom: a peer parked right after its pin (read g, publish,
        // re-check) blocks every later advance; it must not block the
        // remover's response.
        let algo = SetSim::epoch(2, 4);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::Insert(5));
        assert!(solo_steps(&mut sim).is_some());
        sim.enqueue(1, MethodCall::Contains(5));
        for _ in 0..3 {
            let _ = sim.step(1);
        }
        assert_eq!(
            sim.registers()[algo.layout().local_epoch(1)],
            1,
            "peer pinned"
        );
        sim.enqueue(0, MethodCall::Remove(5));
        assert_eq!(solo_steps(&mut sim), Some(EPOCH_REMOVE_STEPS));
    }

    #[test]
    fn hazard_registers_and_local_epochs_clear_at_quiescence() {
        let algo = SetSim::hazard(2, 4);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::Insert(5));
        sim.enqueue(1, MethodCall::Remove(5));
        sim.run_until_quiescent();
        for p in 0..2 {
            for lane in 0..LANES {
                assert_eq!(
                    sim.registers()[algo.layout().hazard(p, lane)],
                    0,
                    "process {p} lane {lane} left a hazard published"
                );
            }
        }

        let algo = SetSim::epoch(2, 4);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::Insert(5));
        sim.enqueue(1, MethodCall::Remove(5));
        sim.run_until_quiescent();
        for p in 0..2 {
            assert_eq!(
                sim.registers()[algo.layout().local_epoch(p)],
                0,
                "process {p} left its local epoch pinned"
            );
        }
    }

    #[test]
    fn a_hazard_protect_that_rereads_nil_clears_the_lane_it_published() {
        // Process 1's `Contains(5)` reads the root (node 0) and publishes it;
        // process 0 then removes the node, so the re-validation fails and the
        // re-read finds the root nil.  The lane must be cleared there, as
        // `HazardGuard::protect` clears it: a failed try's publication would
        // otherwise outlive the call and keep the node in its remover's
        // limbo.
        let algo = SetSim::hazard(2, 4);
        let lane = algo.layout().hazard(1, 0);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::Insert(5));
        assert!(solo_steps(&mut sim).is_some());
        sim.enqueue(1, MethodCall::Contains(5));
        for _ in 0..2 {
            let _ = sim.step(1);
        }
        assert_eq!(sim.registers()[lane], 1, "node 0 published");
        sim.enqueue(0, MethodCall::Remove(5));
        assert!(solo_steps(&mut sim).is_some());
        sim.run_until_quiescent();
        let ops = sim.history().ops();
        assert!(ops
            .iter()
            .any(|o| o.kind.to_string() == "Contains(5) -> false"));
        assert_eq!(sim.registers()[lane], 0, "lane left published");
    }

    /// Run `call` alone on the unprotected set of capacity 3 whose root
    /// designates node 0, a node whose link is marked and designates node 0
    /// itself — a chain an ABA has cycled — while nodes 1 and 2 are free.
    /// Every walk meets the marked node first, unlinks it by a CAS that
    /// swings the root from node 0 to node 0, frees it and restarts, for
    /// good; through `retry`, a spinning call's log holds its prefix and at
    /// most one attempt: `attempt` steps less the one it is poised on.
    fn spin_on_a_cycled_chain(call: MethodCall, prefix: usize, attempt: usize) {
        use crate::object::{BaseOp, SharedMemory};
        let algo = SetSim::unprotected(1, 3);
        let links = Links::of(Scheme::Unprotected);
        let mut mem = SharedMemory::new(algo.initial_objects());
        mem.apply(BaseOp::Cas(OBJ_HEAD, links.fresh(NIL), links.fresh(0)));
        mem.apply(BaseOp::Cas(OBJ_FREE, 0b111, 0b110));
        mem.apply(BaseOp::Write(2, 5)); // node 0's key
        mem.apply(BaseOp::Write(3, links.encode(0, 0, true))); // node 0's link
        let mut p = Replay::new(algo.process(0));
        assert_eq!(p.invoke(call), None);
        for k in 0..10_000 {
            assert_eq!(p.step(&mut mem), None, "{call:?} returned at step {k}");
            assert!(
                p.logged() < prefix + attempt,
                "{call:?} step {k}: {} entries",
                p.logged()
            );
        }
    }

    #[test]
    fn set_calls_spinning_on_a_cycled_chain_keep_one_attempt_in_their_log() {
        // Each attempt reads the root, node 0's link and the root again,
        // CASes the root, and frees node 0 (read and CAS the free set).
        spin_on_a_cycled_chain(MethodCall::Contains(7), 0, 6);
        // The prefix allocates node 1 (read and CAS the free set) and writes
        // its key; the walk never reaches the splice.
        spin_on_a_cycled_chain(MethodCall::Insert(7), 3, 6);
    }
}
