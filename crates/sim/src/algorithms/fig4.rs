//! Figure 4 under the simulator, with optional "crippling" knobs: the base
//! objects of [`Fig4Sim`] and, as its processes, the very code the hardware
//! register runs — [`aba_core::bounded_reg::Fig4`], written once over
//! `aba_core::mem::Mem` and made schedulable by the replay adapter.  What
//! stays here is the local half of `GetSeq`: a naive scan of `usedQ` and
//! `na` whose domain and slot count can be under-provisioned, where the
//! hardware's `SeqRecycler` is sized for the faithful parameters only.
//!
//! The faithful instantiation ([`Fig4Sim::new`]) uses `n` announce slots and
//! the full sequence-number domain `{0, …, 2n+1}`; it is the algorithm proven
//! correct by Theorem 3 and the adversary of `aba_bench::lowerbound` never
//! finds a violation against it.
//!
//! The crippled instantiations deliberately under-provision the algorithm to
//! illustrate the lower bound (Theorem 1 (a)) empirically:
//!
//! * [`Fig4Sim::with_announce_slots`] shares announce slots between readers
//!   (fewer than `n` registers in total), breaking the per-reader
//!   announcement invariant;
//! * [`Fig4Sim::with_seq_domain`] shrinks the sequence-number domain below
//!   `2n + 2`, forcing `GetSeq` to reuse numbers that may still be announced.
//!
//! Both crippled variants admit schedules in which a `DRead` misses a write —
//! the violation witnesses produced by experiment E5.

use std::collections::VecDeque;

use aba_core::bounded_reg::Fig4;
use aba_core::pack::{Pair, Triple};
use aba_core::seqpool::GetSeq;
use aba_spec::{ProcessId, INITIAL_WORD};

use super::replay::{Register, Replay};
use crate::algorithm::{SimAlgorithm, SimProcess};
use crate::object::BaseObject;

/// Figure 4 (optionally crippled) for the simulator.
#[derive(Debug, Clone)]
pub struct Fig4Sim {
    n: usize,
    announce_slots: usize,
    seq_domain: u16,
    name: &'static str,
}

impl Fig4Sim {
    /// The faithful Figure 4 instantiation: `n` announce slots, domain
    /// `2n + 2`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        Fig4Sim {
            n,
            announce_slots: n,
            seq_domain: (2 * n + 2) as u16,
            name: "Figure 4 (faithful)",
        }
    }

    /// Crippled variant with only `slots < n` announce registers (readers
    /// share slots via `pid mod slots`).
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` or `slots > n`.
    pub fn with_announce_slots(n: usize, slots: usize) -> Self {
        assert!(n > 0, "need at least one process");
        assert!(slots > 0 && slots <= n, "slots must be in 1..=n");
        Fig4Sim {
            n,
            announce_slots: slots,
            seq_domain: (2 * n + 2) as u16,
            name: "Figure 4 (crippled: shared announce slots)",
        }
    }

    /// Crippled variant with a sequence-number domain of `domain < 2n + 2`
    /// values.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `domain == 0`.
    pub fn with_seq_domain(n: usize, domain: u16) -> Self {
        assert!(n > 0, "need at least one process");
        assert!(domain > 0, "domain must be positive");
        Fig4Sim {
            n,
            announce_slots: n,
            seq_domain: domain,
            name: "Figure 4 (crippled: small sequence domain)",
        }
    }

    /// Number of base objects used (`X` plus the announce slots).
    pub fn base_objects(&self) -> usize {
        1 + self.announce_slots
    }

    /// Process `pid`'s code: it announces on `A[pid mod slots]` and draws
    /// its sequence numbers from the cripplable scan.
    fn process(&self, pid: ProcessId) -> Fig4<NaiveSeqs> {
        assert!(pid < self.n, "pid {pid} out of range");
        let seqs = NaiveSeqs {
            pid: pid as u16,
            domain: self.seq_domain,
            used: VecDeque::from(vec![None; self.n + 1]),
            na: vec![None; self.announce_slots],
            cursor: 0,
        };
        Fig4::new(pid, pid % self.announce_slots, seqs)
    }
}

impl SimAlgorithm for Fig4Sim {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn initial_objects(&self) -> Vec<BaseObject> {
        let mut objs = vec![BaseObject::register(Triple::initial(INITIAL_WORD).pack())];
        for _ in 0..self.announce_slots {
            objs.push(BaseObject::register(Pair::initial().pack()));
        }
        objs
    }

    fn spawn(&self, pid: ProcessId) -> Box<dyn SimProcess> {
        Box::new(Replay::new(Register(self.process(pid))))
    }
}

/// `GetSeq`-style choice under a possibly-crippled domain: pick the smallest
/// number outside the exclusions, or — if the crippled domain leaves nothing
/// free — fall back to reusing the smallest number (which is exactly how the
/// crippled variant loses the invariant).
fn choose_seq(domain: u16, used: &VecDeque<Option<u16>>, na: &[Option<u16>]) -> u16 {
    for s in 0..domain {
        let blocked = used.iter().any(|u| *u == Some(s)) || na.contains(&Some(s));
        if !blocked {
            return s;
        }
    }
    0
}

/// The local half of `GetSeq` (lines 28–37) as a scan, under a possibly
/// crippled domain and slot count.
#[derive(Debug, Clone)]
struct NaiveSeqs {
    pid: u16,
    domain: u16,
    /// `usedQ`: the last `n + 1` sequence numbers this process chose.
    used: VecDeque<Option<u16>>,
    /// `na`: which of its own numbers it saw announced, per slot.
    na: Vec<Option<u16>>,
    /// `c`: the announce slot the next `GetSeq` scans.
    cursor: usize,
}

impl GetSeq for NaiveSeqs {
    /// Lines 28–33, up to the read: the next announce slot, round-robin.
    fn slot_to_scan(&mut self) -> usize {
        let slot = self.cursor;
        self.cursor = (slot + 1) % self.na.len();
        slot
    }

    fn get_seq(&mut self, slot: usize, announced: Pair) -> u16 {
        // Lines 28–33, from the read on: remember an announcement of one of
        // our own numbers.
        self.na[slot] = (announced.pid == self.pid).then_some(announced.seq);
        // Line 34.
        let seq = choose_seq(self.domain, &self.used, &self.na);
        // Lines 35–36: the window stays at `n + 1` numbers.
        self.used.push_back(Some(seq));
        self.used.pop_front();
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{MethodCall, MethodResponse};
    use crate::executor::Simulation;

    #[test]
    fn sequential_write_read_via_simulator() {
        let algo = Fig4Sim::new(3);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::DWrite(42));
        sim.run_process_to_completion(0);
        sim.enqueue(1, MethodCall::DRead);
        sim.run_process_to_completion(1);
        sim.enqueue(1, MethodCall::DRead);
        sim.run_process_to_completion(1);
        let ops = sim.history().ops().to_vec();
        assert_eq!(ops.len(), 3);
        assert_eq!(
            ops[1].kind,
            aba_spec::OpKind::DRead {
                value: 42,
                flag: true
            }
        );
        assert_eq!(
            ops[2].kind,
            aba_spec::OpKind::DRead {
                value: 42,
                flag: false
            }
        );
    }

    #[test]
    fn base_object_count_matches_theorem3() {
        let algo = Fig4Sim::new(7);
        assert_eq!(algo.initial_objects().len(), 8);
        assert_eq!(algo.base_objects(), 8);
    }

    #[test]
    fn crippled_variants_have_fewer_resources() {
        let shared = Fig4Sim::with_announce_slots(6, 2);
        assert_eq!(shared.initial_objects().len(), 3);
        let small = Fig4Sim::with_seq_domain(6, 3);
        assert_eq!(small.initial_objects().len(), 7);
        assert!(shared.name().contains("crippled"));
        assert!(small.name().contains("crippled"));
    }

    #[test]
    fn dwrite_takes_two_steps_and_dread_four() {
        let algo = Fig4Sim::new(4);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::DWrite(1));
        sim.run_process_to_completion(0);
        assert_eq!(sim.last_op_steps(0), 2);
        sim.enqueue(2, MethodCall::DRead);
        sim.run_process_to_completion(2);
        assert_eq!(sim.last_op_steps(2), 4);
    }

    #[test]
    fn a_suspended_dwrite_has_consumed_no_sequence_number() {
        use crate::object::{BaseOp, SharedMemory};
        let algo = Fig4Sim::new(3);
        let mut mem = SharedMemory::new(algo.initial_objects());
        let mut p = Replay::new(Register(algo.process(0)));
        let locals = |p: &Replay<_>| format!("{:?}", p.idle());
        for (seq, slot) in [(0, 1), (1, 2)] {
            let before = locals(&p);
            assert_eq!(p.invoke(MethodCall::DWrite(7)), None);
            assert_eq!(p.poised(), BaseOp::Read(slot), "GetSeq scans round-robin");
            assert_eq!(p.step(&mut mem), None);
            // GetSeq has run to its end twice by now, on scratch state only.
            assert_eq!(locals(&p), before);
            assert_eq!(p.step(&mut mem), Some(MethodResponse::WriteDone));
            assert_eq!(Triple::unpack(mem.peek(0)).seq, seq);
            let after = locals(&p);
            assert!(after.contains(&format!("cursor: {slot}")), "{after}");
            assert!(after.contains(&format!("Some({seq})]")), "{after}");
        }
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn llsc_calls_are_rejected() {
        let algo = Fig4Sim::new(2);
        let mut p = algo.spawn(0);
        p.invoke(MethodCall::Ll);
    }
}
