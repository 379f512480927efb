//! Figure 5 under the simulator: an ABA-detecting register layered over an
//! LL/SC/VL object, run as the very code `aba_core::LlScAbaRegister` runs
//! ([`aba_core::llsc_aba::Fig5`] over the inner object's code), on the inner
//! object's base objects.
//!
//! A hardware handle is primed with one `LL` when it is created (Figure 5
//! caption); [`Fig5Sim`] does the same once per instance: every process's
//! code runs its priming `LL` against the inner object's memory, in pid
//! order, and the memory those `LL`s leave behind is the instance's initial
//! configuration.

use std::fmt::Debug;

use aba_core::announce_llsc::Announce;
use aba_core::cas_llsc::Fig3;
use aba_core::llsc_aba::Fig5;
use aba_core::mem::LlScCode;
use aba_core::moir_llsc::Moir;
use aba_spec::ProcessId;

use super::announce::AnnounceSim;
use super::baselines::MoirSim;
use super::fig3::Fig3Sim;
use super::replay::{drive, Register, Replay};
use crate::algorithm::{SimAlgorithm, SimProcess};
use crate::object::{BaseObject, SharedMemory};

/// Figure 5 over an LL/SC/VL object, its processes primed.
#[derive(Debug)]
pub struct Fig5Sim {
    name: &'static str,
    objects: Vec<BaseObject>,
    processes: Vec<Box<dyn SimProcess>>,
}

impl Fig5Sim {
    /// Figure 5 over Figure 3, for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `1..=32`.
    pub fn over_fig3(n: usize) -> Self {
        let name = "Figure 5 over Figure 3 (1 CAS)";
        Self::primed(name, &Fig3Sim::new(n), |pid| Fig3::new(n, pid))
    }

    /// Figure 5 over the announce LL/SC, for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn over_announce(n: usize) -> Self {
        let name = "Figure 5 over Announce (1 CAS + n regs)";
        Self::primed(name, &AnnounceSim::new(n), |pid| Announce::new(n, pid))
    }

    /// Figure 5 over Moir's LL/SC, for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn over_moir(n: usize) -> Self {
        let name = "Figure 5 over Moir (unbounded)";
        Self::primed(name, &MoirSim::new(n), |_| Moir::default())
    }

    /// Prime `code(pid)` for every process of `inner`, in pid order, against
    /// `inner`'s initial memory.
    fn primed<C: LlScCode + Clone + Debug + 'static>(
        name: &'static str,
        inner: &dyn SimAlgorithm,
        code: impl Fn(ProcessId) -> C,
    ) -> Self {
        let mut mem = SharedMemory::new(inner.initial_objects());
        let processes = (0..inner.n())
            .map(|pid| {
                let mut fig5 = Fig5::new(code(pid));
                drive(&mut fig5, &mut mem, |c, m| c.prime(m), |_, _| {});
                Box::new(Replay::new(Register(fig5))) as Box<dyn SimProcess>
            })
            .collect();
        // Fresh objects holding the primed values: the priming is the
        // instance's set-up, not part of any execution.
        let objects = mem
            .objects()
            .iter()
            .map(|o| BaseObject::new(o.kind(), o.value()))
            .collect();
        Fig5Sim {
            name,
            objects,
            processes,
        }
    }
}

impl SimAlgorithm for Fig5Sim {
    fn n(&self) -> usize {
        self.processes.len()
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn initial_objects(&self) -> Vec<BaseObject> {
        self.objects.clone()
    }

    fn spawn(&self, pid: ProcessId) -> Box<dyn SimProcess> {
        self.processes[pid].clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::MethodCall;
    use crate::executor::Simulation;
    use crate::explore::measure_register_worst_case;
    use aba_spec::{OpKind, INITIAL_WORD};

    fn reads(algo: &dyn SimAlgorithm) -> Vec<OpKind> {
        let mut sim = Simulation::new(algo);
        let script = [
            (1, MethodCall::DRead),
            (0, MethodCall::DWrite(4)),
            (1, MethodCall::DRead),
            (1, MethodCall::DRead),
            (0, MethodCall::DWrite(4)),
            (1, MethodCall::DRead),
        ];
        for (pid, call) in script {
            sim.enqueue(pid, call);
            assert!(sim.run_process_to_completion(pid));
        }
        let ops = sim.history().ops();
        ops.iter()
            .filter(|op| op.pid == 1)
            .map(|op| op.kind)
            .collect()
    }

    #[test]
    fn every_stacking_detects_a_same_value_rewrite() {
        let algos: [Box<dyn SimAlgorithm>; 3] = [
            Box::new(Fig5Sim::over_fig3(3)),
            Box::new(Fig5Sim::over_announce(3)),
            Box::new(Fig5Sim::over_moir(3)),
        ];
        let read = |value, flag| OpKind::DRead { value, flag };
        for algo in &algos {
            assert_eq!(
                reads(algo.as_ref()),
                [
                    read(INITIAL_WORD, false),
                    read(4, true),
                    read(4, false),
                    read(4, true)
                ],
                "{}",
                algo.name()
            );
        }
    }

    #[test]
    fn the_inner_objects_memory_is_the_instances() {
        let words = |algo: &dyn SimAlgorithm| -> Vec<_> {
            let objects = algo.initial_objects();
            objects.iter().map(|o| (o.kind(), o.value())).collect()
        };
        assert_eq!(
            words(&Fig5Sim::over_announce(4)),
            words(&AnnounceSim::new(4))
        );
        assert_eq!(Fig5Sim::over_fig3(4).initial_objects().len(), 1);
        assert_eq!(Fig5Sim::over_moir(4).n(), 4);
    }

    #[test]
    fn a_dread_is_a_vl_and_at_most_one_ll_under_the_adversary() {
        for n in [2, 8] {
            let over_fig3 = measure_register_worst_case(&Fig5Sim::over_fig3(n), 1, 8);
            assert!(over_fig3.worst_case <= 2 * n as u64 + 2, "n = {n}");
            let over_announce = measure_register_worst_case(&Fig5Sim::over_announce(n), 1, 8);
            assert_eq!(over_announce.worst_case, 1 + 3, "n = {n}");
        }
    }
}
