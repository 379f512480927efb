//! Figure 3 under the simulator: the base object of [`Fig3Sim`] and, as its
//! processes, the very code the hardware object runs —
//! [`aba_core::cas_llsc::Fig3`], written once over `aba_core::mem::Mem` and
//! made schedulable by the replay adapter.
//!
//! Used by experiment E2 to measure the *worst-case* step complexity of `LL`
//! and `SC` under adversarial interleavings (which is hard to provoke
//! reliably on hardware but easy with a controlled scheduler) and by the
//! linearizability smoke tests of the simulator itself.

use aba_core::cas_llsc::Fig3;
use aba_core::pack::MaskWord;
use aba_spec::{ProcessId, INITIAL_WORD};

use super::replay::{LlSc, Replay};
use crate::algorithm::{SimAlgorithm, SimProcess};
use crate::object::BaseObject;

/// Figure 3 (LL/SC/VL from a single bounded CAS) for the simulator.
#[derive(Debug, Clone)]
pub struct Fig3Sim {
    n: usize,
}

impl Fig3Sim {
    /// An instance for `n` processes (`1..=32`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `1..=32`.
    pub fn new(n: usize) -> Self {
        assert!((1..=32).contains(&n), "Figure 3 supports 1..=32 processes");
        Fig3Sim { n }
    }
}

impl SimAlgorithm for Fig3Sim {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        "Figure 3 (1 CAS, O(n) steps)"
    }

    fn initial_objects(&self) -> Vec<BaseObject> {
        vec![BaseObject::cas(MaskWord::initial(INITIAL_WORD).pack())]
    }

    fn spawn(&self, pid: ProcessId) -> Box<dyn SimProcess> {
        Box::new(Replay::new(LlSc(Fig3::new(self.n, pid))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::MethodCall;
    use crate::executor::Simulation;

    #[test]
    fn sequential_ll_sc_cycle() {
        let algo = Fig3Sim::new(2);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::Ll);
        sim.run_process_to_completion(0);
        sim.enqueue(0, MethodCall::Sc(5));
        sim.run_process_to_completion(0);
        sim.enqueue(1, MethodCall::Ll);
        sim.run_process_to_completion(1);
        let ops = sim.history().ops().to_vec();
        assert_eq!(ops[0].kind, aba_spec::OpKind::Ll { value: 0 });
        assert_eq!(
            ops[1].kind,
            aba_spec::OpKind::Sc {
                value: 5,
                success: true
            }
        );
        assert_eq!(ops[2].kind, aba_spec::OpKind::Ll { value: 5 });
    }

    #[test]
    fn sc_with_local_flag_takes_zero_steps() {
        use crate::algorithm::MethodCall::{Ll, Sc, Vl};
        use crate::executor::StepOutcome;
        let mut sim = Simulation::new(&Fig3Sim::new(2));
        let run = |sim: &mut Simulation, pid, call| {
            sim.enqueue(pid, call);
            assert!(sim.run_process_to_completion(pid));
        };
        // p1's SC sets every bit, so p0's LL takes the CAS loop …
        run(&mut sim, 1, Ll);
        run(&mut sim, 1, Sc(5));
        sim.enqueue(0, Ll);
        sim.run_schedule(&[0, 0]); // lines 14 and 20
        run(&mut sim, 1, Ll); // … whose first CAS p1's LL defeats,
        sim.run_schedule(&[0, 0]); // lines 21 and 20
        run(&mut sim, 1, Sc(6)); // and whose second, p1's SC:
        assert!(sim.run_process_to_completion(0)); // line 21, then 24: b is set.
        assert_eq!(sim.last_op_steps(0), 2 * 2 + 1);
        // Line 1: the flag answers the SC without a shared step.
        sim.enqueue(0, Sc(7));
        assert_eq!(sim.step(0), StepOutcome::CompletedImmediately);
        let last = sim.history().ops().last().expect("the SC").kind;
        assert_eq!(
            last,
            aba_spec::OpKind::Sc {
                value: 7,
                success: false
            }
        );
        // VL does read X.
        sim.enqueue(0, Vl);
        assert!(sim.poised(0).is_none() && sim.next_access(0).is_some());
    }

    #[test]
    fn interference_under_a_controlled_schedule() {
        // p0 reads X during LL (bit clear -> returns immediately); then p1
        // performs LL+SC; p0's subsequent SC must fail.
        let algo = Fig3Sim::new(2);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::Ll);
        sim.run_process_to_completion(0);
        sim.enqueue(1, MethodCall::Ll);
        sim.run_process_to_completion(1);
        sim.enqueue(1, MethodCall::Sc(9));
        sim.run_process_to_completion(1);
        sim.enqueue(0, MethodCall::Sc(3));
        sim.run_process_to_completion(0);
        let ops = sim.history().ops().to_vec();
        assert_eq!(
            ops[2].kind,
            aba_spec::OpKind::Sc {
                value: 9,
                success: true
            }
        );
        assert_eq!(
            ops[3].kind,
            aba_spec::OpKind::Sc {
                value: 3,
                success: false
            }
        );
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn register_calls_are_rejected() {
        let algo = Fig3Sim::new(2);
        let mut p = algo.spawn(1);
        p.invoke(MethodCall::DRead);
    }
}
