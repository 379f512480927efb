//! Step-level Michael–Scott queue state machines for the simulator.
//!
//! The hardware MS queues in `aba-lockfree` exhibit their ABA only when a
//! preemptive scheduler interleaves unluckily; here the *schedule is the
//! input*, so a small random search can reproducibly produce a concrete
//! non-linearizable execution of the unprotected variant — the queue
//! counterpart of `search_violation`'s register witnesses.
//!
//! Two variants share one state machine:
//!
//! * [`QueueSim::unprotected`] — head/tail/next hold bare node indices and a
//!   dequeued dummy returns to the free set immediately; the dequeue CAS is
//!   the textbook ABA victim.
//! * [`QueueSim::tagged`] — every pointer word packs `(index, tag)` and every
//!   CAS bumps the tag (§1 tagging), so a recycled index can never be
//!   confused with its previous incarnation.
//!
//! Memory layout for a capacity-`C` queue (node indices `0..C`, node 0 is
//! the initial dummy): object 0 is `head`, object 1 is `tail`, object 2 is
//! the free *set* (a bitmask — allocation is a single CAS, deliberately
//! trivial so every anomaly is attributable to the queue words), and node
//! `k` owns objects `3 + 2k` (value) and `4 + 2k` (next link).

use aba_spec::{ProcessId, Word};

use crate::algorithm::{MethodCall, MethodResponse, SimAlgorithm, SimProcess};
use crate::object::{BaseObject, BaseOp, ObjId, StepResult};

const OBJ_HEAD: ObjId = 0;
const OBJ_TAIL: ObjId = 1;
const OBJ_FREE: ObjId = 2;

/// A simulated MS queue: `n` processes over a capacity-`capacity` node arena.
#[derive(Debug, Clone, Copy)]
pub struct QueueSim {
    n: usize,
    capacity: usize,
    tagged: bool,
}

impl QueueSim {
    /// The unprotected (ABA-prone) variant.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `capacity` is 0 or above 63 (the free set is a
    /// single 64-bit word).
    pub fn unprotected(n: usize, capacity: usize) -> Self {
        assert!(n > 0, "need at least one process");
        assert!((1..=63).contains(&capacity), "capacity must be in 1..=63");
        QueueSim {
            n,
            capacity,
            tagged: false,
        }
    }

    /// The tagged (counted-pointer) variant.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `capacity` is 0 or above 63.
    pub fn tagged(n: usize, capacity: usize) -> Self {
        QueueSim {
            tagged: true,
            ..Self::unprotected(n, capacity)
        }
    }

    /// Arena capacity (number of nodes, including the running dummy).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl SimAlgorithm for QueueSim {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        if self.tagged {
            "MS queue sim (tagged)"
        } else {
            "MS queue sim (unprotected)"
        }
    }

    fn initial_objects(&self) -> Vec<BaseObject> {
        let nil = self.capacity as u64; // idx field `capacity` means nil, tag 0
        let mut objects = vec![
            BaseObject::cas(0),                                  // head -> dummy 0
            BaseObject::cas(0),                                  // tail -> dummy 0
            BaseObject::cas(((1u64 << self.capacity) - 1) & !1), // free set minus dummy
        ];
        for _ in 0..self.capacity {
            objects.push(BaseObject::register(0)); // value
            objects.push(BaseObject::writable_cas(nil)); // next
        }
        objects
    }

    fn spawn(&self, pid: ProcessId) -> Box<dyn SimProcess> {
        Box::new(QueueProc {
            pid,
            capacity: self.capacity as u64,
            tagged: self.tagged,
            state: State::Idle,
            value: 0,
        })
    }

    /// Declared footprint of a fresh call: an enqueue opens on the free-set
    /// read, a dequeue on the head read — for both variants (tagging changes
    /// word contents, never which object a state touches first).
    fn first_step(&self, _pid: ProcessId, call: MethodCall) -> Option<BaseOp> {
        match call {
            MethodCall::Enqueue(_) => Some(BaseOp::Read(OBJ_FREE)),
            MethodCall::Dequeue => Some(BaseOp::Read(OBJ_HEAD)),
            other => panic!("queue simulation given {other:?}"),
        }
    }
}

/// Where a method call currently stands.  Every variant carries the raw
/// words read so far; `raw` words are compared and CASed in full, so the
/// tagged variant gets its protection from the same transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    // --- enqueue ---
    EnqReadFree,
    EnqCasFree {
        mask: u64,
        idx: u64,
    },
    EnqWriteValue {
        idx: u64,
    },
    EnqReadMyNext {
        idx: u64,
    },
    EnqWriteMyNext {
        idx: u64,
        next_raw: u64,
    },
    EnqReadTail {
        idx: u64,
    },
    EnqReadTailNext {
        idx: u64,
        tail_raw: u64,
    },
    EnqCasTailNext {
        idx: u64,
        tail_raw: u64,
        next_raw: u64,
    },
    EnqHelpSwing {
        idx: u64,
        tail_raw: u64,
        next_raw: u64,
    },
    EnqSwing {
        idx: u64,
        tail_raw: u64,
    },
    // --- dequeue ---
    DeqReadHead,
    DeqReadTail {
        head_raw: u64,
    },
    DeqReadNext {
        head_raw: u64,
        tail_raw: u64,
    },
    DeqHelpSwing {
        tail_raw: u64,
        next_raw: u64,
    },
    DeqReadValue {
        head_raw: u64,
        next_raw: u64,
    },
    DeqCasHead {
        head_raw: u64,
        next_raw: u64,
        value: u64,
    },
    DeqReadFree {
        head_raw: u64,
        value: u64,
    },
    DeqCasFree {
        head_raw: u64,
        value: u64,
        mask: u64,
    },
}

#[derive(Debug, Clone)]
struct QueueProc {
    pid: ProcessId,
    capacity: u64,
    tagged: bool,
    state: State,
    /// The value being enqueued by the current call.
    value: Word,
}

impl QueueProc {
    fn idx_of(&self, raw: u64) -> u64 {
        if self.tagged {
            raw & 0xFFFF_FFFF
        } else {
            raw
        }
    }

    fn is_nil(&self, raw: u64) -> bool {
        self.idx_of(raw) == self.capacity
    }

    /// The word that replaces `old_raw` when repointing to `idx`: the bare
    /// index, or (tagged) the index with `old_raw`'s tag bumped.
    fn repoint(&self, old_raw: u64, idx: u64) -> u64 {
        if self.tagged {
            let tag = (old_raw >> 32).wrapping_add(1);
            (tag << 32) | idx
        } else {
            idx
        }
    }

    fn nil_word(&self, old_raw: u64) -> u64 {
        self.repoint(old_raw, self.capacity)
    }

    fn value_obj(&self, idx: u64) -> ObjId {
        3 + 2 * idx as usize
    }

    fn next_obj(&self, idx: u64) -> ObjId {
        4 + 2 * idx as usize
    }

    fn expect_value(result: StepResult) -> u64 {
        match result {
            StepResult::Value(v) => v,
            other => panic!("expected a read result, got {other:?}"),
        }
    }

    fn expect_cas(result: StepResult) -> bool {
        match result {
            StepResult::CasOutcome { success, .. } => success,
            other => panic!("expected a CAS outcome, got {other:?}"),
        }
    }
}

impl SimProcess for QueueProc {
    fn invoke(&mut self, call: MethodCall) -> Option<MethodResponse> {
        assert!(
            self.state == State::Idle,
            "process {} invoked while busy",
            self.pid
        );
        match call {
            MethodCall::Enqueue(value) => {
                self.value = value;
                self.state = State::EnqReadFree;
            }
            MethodCall::Dequeue => {
                self.state = State::DeqReadHead;
            }
            other => panic!("queue simulation given {other:?}"),
        }
        None
    }

    fn poised(&self) -> BaseOp {
        match self.state {
            State::Idle => panic!("no method call in progress"),
            State::EnqReadFree => BaseOp::Read(OBJ_FREE),
            State::EnqCasFree { mask, idx } => BaseOp::Cas(OBJ_FREE, mask, mask & !(1u64 << idx)),
            State::EnqWriteValue { idx } => BaseOp::Write(self.value_obj(idx), self.value as u64),
            State::EnqReadMyNext { idx } => BaseOp::Read(self.next_obj(idx)),
            State::EnqWriteMyNext { idx, next_raw } => {
                BaseOp::Write(self.next_obj(idx), self.nil_word(next_raw))
            }
            State::EnqReadTail { .. } => BaseOp::Read(OBJ_TAIL),
            State::EnqReadTailNext { tail_raw, .. } => {
                BaseOp::Read(self.next_obj(self.idx_of(tail_raw)))
            }
            State::EnqCasTailNext {
                idx,
                tail_raw,
                next_raw,
            } => BaseOp::Cas(
                self.next_obj(self.idx_of(tail_raw)),
                next_raw,
                self.repoint(next_raw, idx),
            ),
            State::EnqHelpSwing {
                tail_raw, next_raw, ..
            } => BaseOp::Cas(
                OBJ_TAIL,
                tail_raw,
                self.repoint(tail_raw, self.idx_of(next_raw)),
            ),
            State::EnqSwing { idx, tail_raw } => {
                BaseOp::Cas(OBJ_TAIL, tail_raw, self.repoint(tail_raw, idx))
            }
            State::DeqReadHead => BaseOp::Read(OBJ_HEAD),
            State::DeqReadTail { .. } => BaseOp::Read(OBJ_TAIL),
            State::DeqReadNext { head_raw, .. } => {
                BaseOp::Read(self.next_obj(self.idx_of(head_raw)))
            }
            State::DeqHelpSwing { tail_raw, next_raw } => BaseOp::Cas(
                OBJ_TAIL,
                tail_raw,
                self.repoint(tail_raw, self.idx_of(next_raw)),
            ),
            State::DeqReadValue { next_raw, .. } => {
                BaseOp::Read(self.value_obj(self.idx_of(next_raw)))
            }
            State::DeqCasHead {
                head_raw, next_raw, ..
            } => BaseOp::Cas(
                OBJ_HEAD,
                head_raw,
                self.repoint(head_raw, self.idx_of(next_raw)),
            ),
            State::DeqReadFree { .. } => BaseOp::Read(OBJ_FREE),
            State::DeqCasFree { head_raw, mask, .. } => {
                BaseOp::Cas(OBJ_FREE, mask, mask | (1u64 << self.idx_of(head_raw)))
            }
        }
    }

    fn apply(&mut self, result: StepResult) -> Option<MethodResponse> {
        match self.state {
            State::Idle => panic!("no method call in progress"),
            State::EnqReadFree => {
                let mask = Self::expect_value(result);
                if mask == 0 {
                    // Arena exhausted: the enqueue fails without touching the
                    // queue words.
                    self.state = State::Idle;
                    return Some(MethodResponse::EnqueueResult(false));
                }
                let idx = mask.trailing_zeros() as u64;
                self.state = State::EnqCasFree { mask, idx };
            }
            State::EnqCasFree { idx, .. } => {
                self.state = if Self::expect_cas(result) {
                    State::EnqWriteValue { idx }
                } else {
                    State::EnqReadFree
                };
            }
            State::EnqWriteValue { idx } => {
                self.state = State::EnqReadMyNext { idx };
            }
            State::EnqReadMyNext { idx } => {
                let next_raw = Self::expect_value(result);
                self.state = State::EnqWriteMyNext { idx, next_raw };
            }
            State::EnqWriteMyNext { idx, .. } => {
                self.state = State::EnqReadTail { idx };
            }
            State::EnqReadTail { idx } => {
                let tail_raw = Self::expect_value(result);
                self.state = State::EnqReadTailNext { idx, tail_raw };
            }
            State::EnqReadTailNext { idx, tail_raw } => {
                let next_raw = Self::expect_value(result);
                self.state = if self.is_nil(next_raw) {
                    State::EnqCasTailNext {
                        idx,
                        tail_raw,
                        next_raw,
                    }
                } else {
                    State::EnqHelpSwing {
                        idx,
                        tail_raw,
                        next_raw,
                    }
                };
            }
            State::EnqCasTailNext { idx, tail_raw, .. } => {
                self.state = if Self::expect_cas(result) {
                    State::EnqSwing { idx, tail_raw }
                } else {
                    State::EnqReadTail { idx }
                };
            }
            State::EnqHelpSwing { idx, .. } => {
                self.state = State::EnqReadTail { idx };
            }
            State::EnqSwing { .. } => {
                // Whether our swing or a helper's landed, the node is linked.
                self.state = State::Idle;
                return Some(MethodResponse::EnqueueResult(true));
            }
            State::DeqReadHead => {
                let head_raw = Self::expect_value(result);
                self.state = State::DeqReadTail { head_raw };
            }
            State::DeqReadTail { head_raw } => {
                let tail_raw = Self::expect_value(result);
                self.state = State::DeqReadNext { head_raw, tail_raw };
            }
            State::DeqReadNext { head_raw, tail_raw } => {
                let next_raw = Self::expect_value(result);
                if self.idx_of(head_raw) == self.idx_of(tail_raw) {
                    if self.is_nil(next_raw) {
                        self.state = State::Idle;
                        return Some(MethodResponse::DequeueResult(None));
                    }
                    self.state = State::DeqHelpSwing { tail_raw, next_raw };
                } else if self.is_nil(next_raw) {
                    // Inconsistent snapshot (head moved under us): retry.
                    self.state = State::DeqReadHead;
                } else {
                    self.state = State::DeqReadValue { head_raw, next_raw };
                }
            }
            State::DeqHelpSwing { .. } => {
                self.state = State::DeqReadHead;
            }
            State::DeqReadValue { head_raw, next_raw } => {
                let value = Self::expect_value(result);
                self.state = State::DeqCasHead {
                    head_raw,
                    next_raw,
                    value,
                };
            }
            State::DeqCasHead {
                head_raw, value, ..
            } => {
                self.state = if Self::expect_cas(result) {
                    State::DeqReadFree { head_raw, value }
                } else {
                    State::DeqReadHead
                };
            }
            State::DeqReadFree { head_raw, value } => {
                let mask = Self::expect_value(result);
                self.state = State::DeqCasFree {
                    head_raw,
                    value,
                    mask,
                };
            }
            State::DeqCasFree {
                head_raw, value, ..
            } => {
                if Self::expect_cas(result) {
                    self.state = State::Idle;
                    return Some(MethodResponse::DequeueResult(Some(value as Word)));
                }
                self.state = State::DeqReadFree { head_raw, value };
            }
        }
        None
    }

    fn is_idle(&self) -> bool {
        self.state == State::Idle
    }

    fn clone_box(&self) -> Box<dyn SimProcess> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Simulation;
    use aba_spec::{check_history, Spec};

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
            ]
        );
        assert!(check_history(sim.history(), Spec::Queue).is_linearizable());
    }

    #[test]
    fn sequential_fifo_behaviour_both_variants() {
        run_sequential(&QueueSim::unprotected(2, 4));
        run_sequential(&QueueSim::tagged(2, 4));
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
    fn interleaved_runs_stay_well_formed() {
        let algo = QueueSim::tagged(3, 4);
        let mut sim = Simulation::new(&algo);
        for i in 0..4u32 {
            sim.enqueue(0, MethodCall::Enqueue(i + 1));
            sim.enqueue(1, MethodCall::Dequeue);
            sim.enqueue(2, MethodCall::Dequeue);
        }
        sim.run_schedule(&crate::schedule::random(3, 400, 11));
        sim.run_until_quiescent();
        assert!(sim.history().is_well_formed());
        assert_eq!(sim.history().len(), 12);
        assert!(check_history(sim.history(), Spec::Queue).is_linearizable());
    }
}
