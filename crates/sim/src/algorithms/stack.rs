//! The Treiber stack rows of the simulator: `aba-lockfree`'s own stack code,
//! run step by step.
//!
//! The pop is the paper's textbook ABA: read the head, read its next link,
//! CAS the head.  A process is `aba_lockfree::Treiber` — the push and pop
//! every `GenericStack` handle runs, an attempt of which is `ElimStack`'s
//! central path — on the generic [`ShippedSim`]; object 0 is the head.

use aba_lockfree::Treiber;

use super::shipped::ShippedSim;

/// A simulated Treiber stack: `n` processes over a capacity-`capacity` node
/// arena.
pub type StackSim = ShippedSim<Treiber>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{MethodCall, SimAlgorithm};
    use crate::executor::Simulation;
    use aba_spec::{check_history, Spec};

    fn kinds(sim: &Simulation) -> Vec<String> {
        let ops = sim.history().ops();
        ops.iter().map(|o| o.kind.to_string()).collect()
    }

    fn run_sequential(algo: &StackSim) {
        let mut sim = Simulation::new(algo);
        sim.enqueue(0, MethodCall::Push(1));
        sim.enqueue(0, MethodCall::Push(2));
        sim.enqueue(0, MethodCall::Pop);
        sim.enqueue(0, MethodCall::Push(3));
        sim.enqueue(0, MethodCall::Pop);
        sim.enqueue(0, MethodCall::Pop);
        sim.enqueue(0, MethodCall::Pop);
        sim.run_until_quiescent();
        assert_eq!(
            kinds(&sim),
            [
                "Push(1) -> true",
                "Push(2) -> true",
                "Pop() -> 2",
                "Push(3) -> true",
                "Pop() -> 3",
                "Pop() -> 1",
                "Pop() -> empty",
            ],
            "{}",
            algo.name()
        );
        assert!(check_history(sim.history(), Spec::Stack).is_linearizable());
    }

    #[test]
    fn sequential_lifo_behaviour_all_variants() {
        run_sequential(&StackSim::unprotected(2, 4));
        run_sequential(&StackSim::tagged(2, 4));
        run_sequential(&StackSim::hazard(2, 4));
        run_sequential(&StackSim::epoch(2, 4));
    }

    #[test]
    fn arena_exhaustion_fails_the_push_cleanly() {
        let algo = StackSim::unprotected(1, 2);
        let mut sim = Simulation::new(&algo);
        for call in [
            MethodCall::Push(1),
            MethodCall::Push(2),
            MethodCall::Push(3),
            MethodCall::Pop,
            MethodCall::Pop,
        ] {
            sim.enqueue(0, call);
        }
        sim.run_until_quiescent();
        assert_eq!(
            kinds(&sim),
            [
                "Push(1) -> true",
                "Push(2) -> true",
                "Push(3) -> false",
                "Pop() -> 2",
                "Pop() -> 1",
            ]
        );
        assert!(check_history(sim.history(), Spec::Stack).is_linearizable());
        // The failed push took no node: both are back in the free set.
        assert_eq!(sim.registers()[algo.layout().free], 0b11);
    }
}
