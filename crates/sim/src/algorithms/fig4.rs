//! Figure 4 as a simulator state machine, with optional "crippling" knobs.
//!
//! The faithful instantiation ([`Fig4Sim::new`]) uses `n` announce slots and
//! the full sequence-number domain `{0, …, 2n+1}`; it is the algorithm proven
//! correct by Theorem 3 and the adversary of `aba-lowerbound` never finds a
//! violation against it.
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

use aba_core::pack::{Pair, Triple, BOT_PID};
use aba_spec::{ProcessId, Word, INITIAL_WORD};

use crate::algorithm::{MethodCall, MethodResponse, SimAlgorithm, SimProcess};
use crate::object::{BaseObject, BaseOp, StepResult};

/// Object 0 is `X`; objects `1 ..= announce_slots` are the announce array.
const X: usize = 0;

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

    fn announce_obj(&self, pid: ProcessId) -> usize {
        1 + (pid % self.announce_slots)
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
        assert!(pid < self.n, "pid {pid} out of range");
        Box::new(Fig4Process {
            cfg: self.clone(),
            pid,
            b: false,
            used: VecDeque::from(vec![None; self.n + 1]),
            na: vec![None; self.announce_slots],
            cursor: 0,
            phase: Phase::Idle,
        })
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

#[derive(Debug, Clone)]
enum Phase {
    Idle,
    /// `DWrite`: about to read the announce slot for `GetSeq` (line 28).
    WriteScan {
        value: Word,
        slot: usize,
    },
    /// `DWrite`: about to write `(x, p, s)` to `X` (line 27).
    WritePublish {
        value: Word,
        seq: u16,
    },
    /// `DRead`: about to read `X` the first time (line 38).
    ReadX1,
    /// `DRead`: about to read the old announcement (line 39).
    ReadOldAnnounce {
        first: Triple,
    },
    /// `DRead`: about to announce (line 40).
    Announce {
        first: Triple,
        old: Pair,
    },
    /// `DRead`: about to read `X` the second time (line 41).
    ReadX2 {
        first: Triple,
        old: Pair,
    },
}

#[derive(Debug, Clone)]
struct Fig4Process {
    cfg: Fig4Sim,
    pid: ProcessId,
    b: bool,
    used: VecDeque<Option<u16>>,
    na: Vec<Option<u16>>,
    cursor: usize,
    phase: Phase,
}

impl SimProcess for Fig4Process {
    fn invoke(&mut self, call: MethodCall) -> Option<MethodResponse> {
        assert!(self.is_idle(), "method already in progress");
        match call {
            MethodCall::DWrite(value) => {
                let slot = self.cursor;
                self.cursor = (self.cursor + 1) % self.cfg.announce_slots;
                self.phase = Phase::WriteScan { value, slot };
                None
            }
            MethodCall::DRead => {
                self.phase = Phase::ReadX1;
                None
            }
            other => panic!("Figure 4 register does not support {other:?}"),
        }
    }

    fn poised(&self) -> BaseOp {
        match &self.phase {
            Phase::Idle => panic!("no method in progress"),
            Phase::WriteScan { slot, .. } => BaseOp::Read(1 + slot),
            Phase::WritePublish { value, seq } => BaseOp::Write(
                X,
                Triple {
                    value: *value,
                    pid: self.pid as u16,
                    seq: *seq,
                }
                .pack(),
            ),
            Phase::ReadX1 => BaseOp::Read(X),
            Phase::ReadOldAnnounce { .. } => BaseOp::Read(self.cfg.announce_obj(self.pid)),
            Phase::Announce { first, .. } => {
                BaseOp::Write(self.cfg.announce_obj(self.pid), first.pair().pack())
            }
            Phase::ReadX2 { .. } => BaseOp::Read(X),
        }
    }

    fn apply(&mut self, result: StepResult) -> Option<MethodResponse> {
        let phase = std::mem::replace(&mut self.phase, Phase::Idle);
        match phase {
            Phase::Idle => panic!("no method in progress"),
            Phase::WriteScan { value, slot } => {
                let raw = result.value();
                let announced = Pair::unpack(raw);
                // Lines 29–32: remember announcements of our own numbers.
                if announced.pid == self.pid as u16 {
                    self.na[slot] = Some(announced.seq);
                } else {
                    self.na[slot] = None;
                }
                let seq = choose_seq(self.cfg.seq_domain, &self.used, &self.na);
                self.used.push_back(Some(seq));
                self.used.pop_front();
                self.phase = Phase::WritePublish { value, seq };
                None
            }
            Phase::WritePublish { .. } => Some(MethodResponse::WriteDone),
            Phase::ReadX1 => {
                let raw = result.value();
                self.phase = Phase::ReadOldAnnounce {
                    first: Triple::unpack(raw),
                };
                None
            }
            Phase::ReadOldAnnounce { first } => {
                let raw = result.value();
                self.phase = Phase::Announce {
                    first,
                    old: Pair::unpack(raw),
                };
                None
            }
            Phase::Announce { first, old } => {
                self.phase = Phase::ReadX2 { first, old };
                None
            }
            Phase::ReadX2 { first, old } => {
                let raw = result.value();
                let second = Triple::unpack(raw);
                // Lines 42–45.
                let flag = if first.pair() == old { self.b } else { true };
                // Lines 46–49.
                self.b = first != second;
                Some(MethodResponse::ReadResult(first.value, flag))
            }
        }
    }

    fn is_idle(&self) -> bool {
        matches!(self.phase, Phase::Idle)
    }

    fn clone_box(&self) -> Box<dyn SimProcess> {
        Box::new(self.clone())
    }
}

// BOT_PID is part of the initial announce contents via Pair::initial(); keep
// the import used even when the compiler inlines the constant.
const _: u16 = BOT_PID;

#[cfg(test)]
mod tests {
    use super::*;
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
    #[should_panic(expected = "does not support")]
    fn llsc_calls_are_rejected() {
        let algo = Fig4Sim::new(2);
        let mut p = algo.spawn(0);
        p.invoke(MethodCall::Ll);
    }
}
