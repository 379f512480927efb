//! The Michael–Scott queue rows of the simulator: `aba-lockfree`'s own
//! queue code, run step by step.
//!
//! The hardware queues exhibit their ABA only when a preemptive scheduler
//! interleaves unluckily; here the *schedule is the input*, so a small random
//! search reproducibly produces a non-linearizable execution of the
//! unprotected variant.  A process is `aba_lockfree::MsQueue` — the enqueue
//! and dequeue every `GenericQueue` handle runs — on the generic
//! [`ShippedSim`], in the roster's modes unprotected (the dequeue CAS is the
//! textbook ABA victim), tagged and epoch (with the E15 quarantine and
//! [`TRANSFER_AFTER_BLOCKED`]).  Objects 0 and 1 are `head` and `tail`,
//! and node 0 starts as the dummy both designate.

use aba_lockfree::MsQueue;

use super::shipped::ShippedSim;

pub use super::protect::TRANSFER_AFTER_BLOCKED;

/// A simulated MS queue: `n` processes over a capacity-`capacity` node arena.
pub type QueueSim = ShippedSim<MsQueue>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{MethodCall, MethodResponse, SimAlgorithm, SimProcess};
    use crate::algorithms::protect::Links;
    use crate::algorithms::replay::Replay;
    use crate::executor::Simulation;
    use crate::object::ObjId;
    use aba_reclaim::Scheme;
    use aba_spec::{check_history, ProcessId, Spec};

    const OBJ_TAIL: ObjId = 1;
    const OBJ_FREE: ObjId = 2;

    fn run_sequential(algo: &QueueSim) {
        let mut sim = Simulation::new(algo);
        sim.enqueue(0, MethodCall::Enqueue(1));
        sim.enqueue(0, MethodCall::Enqueue(2));
        sim.enqueue(0, MethodCall::Dequeue);
        sim.enqueue(0, MethodCall::Enqueue(3));
        sim.enqueue(0, MethodCall::Dequeue);
        sim.enqueue(0, MethodCall::Dequeue);
        sim.enqueue(0, MethodCall::Dequeue);
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
                "Enqueue(1) -> true",
                "Enqueue(2) -> true",
                "Dequeue() -> 1",
                "Enqueue(3) -> true",
                "Dequeue() -> 2",
                "Dequeue() -> 3",
                "Dequeue() -> empty",
            ],
            "{}",
            algo.name()
        );
        assert!(check_history(sim.history(), Spec::Queue).is_linearizable());
    }

    #[test]
    fn sequential_fifo_behaviour_all_variants() {
        run_sequential(&QueueSim::unprotected(2, 4));
        run_sequential(&QueueSim::tagged(2, 4));
        run_sequential(&QueueSim::epoch(2, 4));
    }

    #[test]
    fn arena_exhaustion_fails_the_enqueue_cleanly() {
        // Capacity 2 = dummy + 1 usable node once the dummy rotates: the
        // second concurrent-free enqueue finds an empty free set.
        let algo = QueueSim::unprotected(1, 2);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::Enqueue(1));
        sim.enqueue(0, MethodCall::Enqueue(2));
        sim.run_until_quiescent();
        let kinds: Vec<String> = sim
            .history()
            .ops()
            .iter()
            .map(|o| o.kind.to_string())
            .collect();
        assert_eq!(kinds, ["Enqueue(1) -> true", "Enqueue(2) -> false"]);
        assert!(check_history(sim.history(), Spec::Queue).is_linearizable());
    }

    #[test]
    fn nodes_recirculate_through_the_epoch_limbo() {
        // Capacity 4 with alternating enqueue/dequeue: the arena runs out
        // unless retired dummies actually complete their two advances and
        // rejoin the free set (the alloc-pressure path covers stalls).
        let algo = QueueSim::epoch(1, 4);
        let mut sim = Simulation::new(&algo);
        for i in 0..10u32 {
            sim.enqueue(0, MethodCall::Enqueue(i + 1));
            sim.enqueue(0, MethodCall::Dequeue);
        }
        sim.run_until_quiescent();
        let kinds: Vec<String> = sim
            .history()
            .ops()
            .iter()
            .map(|o| o.kind.to_string())
            .collect();
        for i in 0..10u32 {
            assert_eq!(kinds[2 * i as usize], format!("Enqueue({}) -> true", i + 1));
            assert_eq!(kinds[2 * i as usize + 1], format!("Dequeue() -> {}", i + 1));
        }
        assert!(check_history(sim.history(), Spec::Queue).is_linearizable());
    }

    #[test]
    fn interleaved_runs_stay_well_formed() {
        for (algo, len) in [(QueueSim::tagged(3, 4), 400), (QueueSim::epoch(3, 4), 600)] {
            let mut sim = Simulation::new(&algo);
            for i in 0..4u32 {
                sim.enqueue(0, MethodCall::Enqueue(i + 1));
                sim.enqueue(1, MethodCall::Dequeue);
                sim.enqueue(2, MethodCall::Dequeue);
            }
            sim.run_schedule(&crate::schedule::random(3, len, 11));
            sim.run_until_quiescent();
            assert!(sim.history().is_well_formed());
            assert_eq!(sim.history().len(), 12, "{}", algo.name());
            assert!(check_history(sim.history(), Spec::Queue).is_linearizable());
        }
    }

    /// Step `pid` under footprint auditing until its current call completes
    /// (the audited twin of `run_process_to_completion`).
    fn complete_audited(
        sim: &mut Simulation,
        pid: ProcessId,
        auditor: &mut crate::audit::FootprintAuditor,
    ) -> bool {
        use crate::executor::StepOutcome;
        loop {
            match sim.step_audited(pid, auditor) {
                StepOutcome::Idle => return false,
                StepOutcome::CompletedImmediately => return true,
                StepOutcome::Stepped {
                    completed: true, ..
                } => return true,
                StepOutcome::Stepped {
                    completed: false, ..
                } => {}
            }
        }
    }

    #[test]
    fn blocked_advances_transfer_limbo_to_the_quarantine_and_peers_adopt_it() {
        let algo = QueueSim::epoch(2, 4);
        let mut sim = Simulation::new(&algo);
        // Every step runs under the footprint auditor, so this test also
        // certifies that the quarantine transfer/adoption steps declare
        // exactly the memory they touch (the property DPOR's reduction
        // stands on).
        let mut auditor = crate::audit::FootprintAuditor::new();
        // Seed one element so the parked dequeuer has something to chase.
        sim.enqueue(0, MethodCall::Enqueue(1));
        assert!(complete_audited(&mut sim, 0, &mut auditor));
        // Process 1 starts a dequeue and parks right after its pin: three
        // steps cover read-g, publish-local, validate.
        sim.enqueue(1, MethodCall::Dequeue);
        for _ in 0..3 {
            let _ = sim.step_audited(1, &mut auditor);
        }
        assert_eq!(
            sim.registers()[algo.layout().local_epoch(1)],
            1,
            "process 1 must be parked pinned at epoch 0"
        );
        // Process 0 churns against the parked pin.  Its first advance
        // succeeds (the pin is still current), the later ones are blocked
        // by the now-stale pin; the second consecutive blocked attempt
        // transfers process 0's limbo into the shared quarantine.
        for i in 0..3u32 {
            sim.enqueue(0, MethodCall::Enqueue(i + 2));
            assert!(complete_audited(&mut sim, 0, &mut auditor));
            sim.enqueue(0, MethodCall::Dequeue);
            assert!(complete_audited(&mut sim, 0, &mut auditor));
        }
        assert_ne!(
            sim.registers()[algo.layout().quarantine_mask()],
            0,
            "advances blocked by a stale pin must quarantine the blocked limbo"
        );
        // The parked dequeuer wakes up and finishes, unblocking advances;
        // process 0's subsequent successful advances adopt the quarantined
        // nodes back into the free set.
        assert!(complete_audited(&mut sim, 1, &mut auditor));
        for i in 0..4u32 {
            sim.enqueue(0, MethodCall::Enqueue(10 + i));
            assert!(complete_audited(&mut sim, 0, &mut auditor));
            sim.enqueue(0, MethodCall::Dequeue);
            assert!(complete_audited(&mut sim, 0, &mut auditor));
        }
        assert_eq!(
            sim.registers()[algo.layout().quarantine_mask()],
            0,
            "eligible quarantined nodes must be adopted after the pin clears"
        );
        assert!(sim.history().is_well_formed());
        assert!(check_history(sim.history(), Spec::Queue).is_linearizable());
        assert!(
            auditor.sound(),
            "quarantine steps under-reported their footprint: {:?}",
            auditor.under_reports
        );
    }

    #[test]
    fn a_suspended_dequeue_has_not_touched_the_committed_limbo() {
        let algo = QueueSim::epoch(1, 4);
        let mut mem = crate::object::SharedMemory::new(algo.initial_objects());
        let mut p = Replay::new(algo.process(0));
        assert_eq!(p.invoke(MethodCall::Enqueue(5)), None);
        while p.step(&mut mem).is_none() {}
        assert_eq!(p.invoke(MethodCall::Dequeue), None);
        let mut steps = 0;
        let response = loop {
            // The retire stamps the dummy into the limbo at step 11; the
            // unpin, the advance and the adoption re-run it five more times.
            assert!(!p.idle().prot.holds_limbo(), "step {steps}");
            steps += 1;
            if let Some(response) = p.step(&mut mem) {
                break response;
            }
        };
        assert_eq!(response, MethodResponse::DequeueResult(Some(5)));
        assert_eq!(steps, 16);
        assert!(p.idle().prot.holds_limbo(), "committed with the response");
    }

    /// Run `call` alone on the unprotected queue of capacity 3 whose tail
    /// sits on node 1, a node linked to itself, while the head's dummy 0 has
    /// no successor — a chain an ABA has cycled — and node 2 is free.  Both
    /// operations spin there for good; through `retry`, a spinning call's
    /// log holds its prefix and at most one attempt: `attempt` steps less
    /// the one it is poised on.
    fn spin_on_a_cycled_chain(call: MethodCall, prefix: usize, attempt: usize) {
        use crate::object::{BaseOp, SharedMemory};
        let algo = QueueSim::unprotected(1, 3);
        let links = Links::of(Scheme::Unprotected);
        let mut mem = SharedMemory::new(algo.initial_objects());
        mem.apply(BaseOp::Cas(OBJ_TAIL, links.fresh(0), links.fresh(1)));
        mem.apply(BaseOp::Cas(OBJ_FREE, 0b110, 0b100));
        mem.apply(BaseOp::Write(6, links.fresh(1))); // node 1's next link
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
    fn queue_calls_spinning_on_a_cycled_chain_keep_one_attempt_in_their_log() {
        // Each attempt reads head, tail, the dummy's link and head again,
        // and finds the link nil under a head that is not the tail.
        spin_on_a_cycled_chain(MethodCall::Dequeue, 0, 4);
        // Each attempt reads the tail, its link (node 1 again) and the tail,
        // and swings the tail from node 1 to node 1; the prefix allocates
        // node 2 (read and CAS the free set), writes its value and its link.
        spin_on_a_cycled_chain(MethodCall::Enqueue(7), 4, 4);
    }

    #[test]
    fn local_epoch_registers_are_cleared_at_quiescence() {
        let algo = QueueSim::epoch(2, 4);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::Enqueue(5));
        sim.enqueue(1, MethodCall::Dequeue);
        sim.run_until_quiescent();
        for p in 0..2 {
            assert_eq!(
                sim.registers()[algo.layout().local_epoch(p)],
                0,
                "process {p} left its local epoch pinned"
            );
        }
    }
}
