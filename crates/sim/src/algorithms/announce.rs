//! The announce LL/SC under the simulator: the base objects of
//! [`AnnounceSim`] — one CAS object and `n` announce registers — and, as its
//! processes, the very code `aba_core::AnnounceLlSc` runs
//! ([`aba_core::announce_llsc::Announce`], its real `SeqRecycler` included),
//! made schedulable by the replay adapter.
//!
//! This is the repository's own O(1) construction, under every `*/llsc`
//! structure backend; its correctness hangs on committing a sequence number
//! only after a *successful* CAS.  Here it meets an adversarial scheduler:
//! E2's worst-case `LL` measurement and the linearizability tests below.

use aba_core::announce_llsc::Announce;
use aba_core::pack::{Pair, Triple};
use aba_spec::{ProcessId, INITIAL_WORD};

use super::replay::{LlSc, Replay};
use crate::algorithm::{SimAlgorithm, SimProcess};
use crate::object::BaseObject;

/// The announce LL/SC (one bounded CAS object plus `n` bounded registers,
/// O(1) steps) for the simulator.
#[derive(Debug, Clone)]
pub struct AnnounceSim {
    n: usize,
}

impl AnnounceSim {
    /// An instance for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        AnnounceSim { n }
    }
}

impl SimAlgorithm for AnnounceSim {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        "Announce (1 CAS + n registers, O(1) steps)"
    }

    fn initial_objects(&self) -> Vec<BaseObject> {
        let mut objs = vec![BaseObject::cas(Triple::initial(INITIAL_WORD).pack())];
        objs.resize(1 + self.n, BaseObject::register(Pair::initial().pack()));
        objs
    }

    fn spawn(&self, pid: ProcessId) -> Box<dyn SimProcess> {
        Box::new(Replay::new(LlSc(Announce::new(self.n, pid))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::MethodCall;
    use crate::executor::Simulation;
    use crate::explore::measure_llsc_worst_case;
    use crate::object::ObjectKind;
    use crate::schedule;
    use aba_spec::{check_history, OpKind, Spec};

    #[test]
    fn one_cas_object_and_n_registers() {
        let objs = AnnounceSim::new(5).initial_objects();
        let kinds: Vec<_> = objs.iter().map(BaseObject::kind).collect();
        assert_eq!(kinds[0], ObjectKind::Cas);
        assert_eq!(kinds[1..], [ObjectKind::Register; 5]);
    }

    #[test]
    fn ll_takes_three_steps_whatever_the_adversary_does() {
        // Between every two steps of the victim the others complete LL/SC
        // pairs until the memory has changed: Figure 3's LL grows to 2n + 1
        // under this adversary, this one's does not move.
        for n in [2, 8] {
            let stats = measure_llsc_worst_case(&AnnounceSim::new(n), 0, 8);
            assert_eq!(stats.worst_case, 3, "n = {n}");
            assert_eq!(stats.operations, 16, "n = {n}");
        }
    }

    #[test]
    fn bursty_schedules_are_linearizable() {
        const N: usize = 3;
        const ROUNDS: u32 = 4;
        let algo = AnnounceSim::new(N);
        let mut answers = std::collections::BTreeSet::new();
        for seed in 0..300 {
            let mut sim = Simulation::new(&algo);
            for pid in 0..N {
                for round in 0..ROUNDS {
                    sim.enqueue(pid, MethodCall::Ll);
                    sim.enqueue(pid, MethodCall::Vl);
                    sim.enqueue(pid, MethodCall::Sc(1 + round % 2));
                }
            }
            sim.run_schedule(&schedule::bursty(N, 400, 5, seed));
            sim.run_until_quiescent();
            let history = sim.history();
            assert_eq!(history.ops().len(), 3 * N * ROUNDS as usize);
            let spec = Spec::LlSc {
                n: N,
                initial: INITIAL_WORD,
            };
            assert!(
                check_history(history, spec).is_linearizable(),
                "seed {seed}: {history:?}"
            );
            answers.extend(history.ops().iter().filter_map(|op| match op.kind {
                OpKind::Sc { success, .. } => Some(("SC", success)),
                OpKind::Vl { valid } => Some(("VL", valid)),
                _ => None,
            }));
        }
        // The schedules interleave enough to break links and to keep them.
        assert_eq!(answers.len(), 4, "{answers:?}");
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn register_calls_are_rejected() {
        AnnounceSim::new(2).spawn(0).invoke(MethodCall::DRead);
    }
}
