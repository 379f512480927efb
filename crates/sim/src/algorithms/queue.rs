//! Step-level Michael–Scott queue state machines for the simulator.
//!
//! The hardware MS queues in `aba-lockfree` exhibit their ABA only when a
//! preemptive scheduler interleaves unluckily; here the *schedule is the
//! input*, so a small random search can reproducibly produce a concrete
//! non-linearizable execution of the unprotected variant — the queue
//! counterpart of `search_violation`'s register witnesses.
//!
//! One state machine holds the queue's own steps (snapshot, link, swing,
//! unlink); what a protection scheme adds is a sub-sequence of the shared
//! `protect` sub-machine, composed here in three modes:
//!
//! * [`QueueSim::unprotected`] — head/tail/next hold bare node indices and a
//!   dequeued dummy returns to the free set immediately; the dequeue CAS is
//!   the textbook ABA victim.
//! * [`QueueSim::tagged`] — every pointer word carries a counted tag and
//!   every CAS bumps it (§1 tagging), so a recycled index can never be
//!   confused with its previous incarnation.
//! * [`QueueSim::epoch`] — the counterpart of `aba_reclaim::EpochReclaim`.
//!   An enqueue pins once its node is prepared and unpins before responding;
//!   a dequeue pins first, retires the dummy it unlinks into its private
//!   limbo, unpins, and makes one reclamation attempt: advance the global
//!   epoch, then free every limbo entry two or more advances old.  Two E15
//!   sequences chain onto the advance: one blocked
//!   [`TRANSFER_AFTER_BLOCKED`] times in a row transfers the limbo into the
//!   shared quarantine, a successful one adopts what has become eligible
//!   there.  An enqueue that finds the arena empty while holding limbo runs
//!   the same attempt once and retries.  (The hardware's `advance_debt`
//!   counter is a pure diagnostic and deliberately *not* modelled.)
//!
//! Under the bursty preemption-style schedules that reliably break the
//! unprotected variant (a victim parked between its reads and its CAS while
//! others recycle the dummy through the free set), the epoch variant
//! survives: the parked victim's pin blocks the second advance, so its dummy
//! cannot re-enter the free set while the victim still reasons about it.
//! What the quarantine adds is the converse guarantee: a *parked* process
//! cannot strand its own retired nodes — once its peers' advances stall on
//! the stale pin, the bags become adoptable by whichever process next
//! advances successfully.
//!
//! Memory layout for a capacity-`C` queue (node indices `0..C`, node 0 is
//! the initial dummy): object 0 is `head`, object 1 is `tail`, object 2 is
//! the free set, and node `k` owns objects `3 + 2k` (value) and `4 + 2k`
//! (next link).  The epoch variant appends its protection registers: the
//! global epoch, `n` local epochs, the quarantine mask and `C` stamps.

use aba_spec::{ProcessId, Word};

use super::protect::{Layout, LinkCodec, Outcome, Protection, Scheme, Step, Sub};
use crate::algorithm::{MethodCall, MethodResponse, SimAlgorithm, SimProcess};
use crate::object::{BaseObject, BaseOp, ObjId, StepResult};

pub use super::protect::TRANSFER_AFTER_BLOCKED;

const OBJ_HEAD: ObjId = 0;
const OBJ_TAIL: ObjId = 1;
const OBJ_FREE: ObjId = 2;

/// A simulated MS queue: `n` processes over a capacity-`capacity` node arena.
#[derive(Debug, Clone, Copy)]
pub struct QueueSim {
    n: usize,
    capacity: usize,
    scheme: Scheme,
}

impl QueueSim {
    fn new(n: usize, capacity: usize, scheme: Scheme) -> Self {
        assert!(n > 0, "need at least one process");
        assert!((1..=63).contains(&capacity), "capacity must be in 1..=63");
        QueueSim {
            n,
            capacity,
            scheme,
        }
    }

    /// The unprotected (ABA-prone) variant.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `capacity` is 0 or above 63 (the free set is a
    /// single 64-bit word).
    pub fn unprotected(n: usize, capacity: usize) -> Self {
        Self::new(n, capacity, Scheme::Unprotected)
    }

    /// The tagged (counted-pointer) variant.
    ///
    /// # Panics
    ///
    /// Panics as for [`QueueSim::unprotected`].
    pub fn tagged(n: usize, capacity: usize) -> Self {
        Self::new(n, capacity, Scheme::Tagged)
    }

    /// The epoch-reclaimed variant.
    ///
    /// # Panics
    ///
    /// Panics as for [`QueueSim::unprotected`].
    pub fn epoch(n: usize, capacity: usize) -> Self {
        Self::new(n, capacity, Scheme::Epoch)
    }

    /// Arena capacity (number of nodes, including the running dummy).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn layout(&self) -> Layout {
        Layout {
            free: OBJ_FREE,
            base: 3 + 2 * self.capacity,
            n: self.n,
            lanes: 0,
            stamps: self.capacity,
        }
    }

    /// Object id of the global epoch counter (epoch mode).
    pub fn global_epoch_obj(&self) -> ObjId {
        self.layout().global_epoch()
    }

    /// Object id of process `p`'s local-epoch register (epoch mode; `0` =
    /// quiescent, `e + 1` = pinned at epoch `e`).
    pub fn local_epoch_obj(&self, p: ProcessId) -> ObjId {
        self.layout().local_epoch(p)
    }

    /// Object id of the shared quarantine bit mask (epoch mode; bit `i` set
    /// = node `i` sits in quarantine, adoptable by any process).
    pub fn quarantine_mask_obj(&self) -> ObjId {
        self.layout().quarantine_mask()
    }

    /// Object id of node `idx`'s quarantine epoch-stamp register (epoch
    /// mode; written before the node's bit is published in the mask).
    pub fn quarantine_stamp_obj(&self, idx: usize) -> ObjId {
        self.layout().quarantine_stamp(idx)
    }
}

impl SimAlgorithm for QueueSim {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        match self.scheme {
            Scheme::Unprotected => "MS queue sim (unprotected)",
            Scheme::Tagged => "MS queue sim (tagged)",
            Scheme::Hazard => unreachable!("no hazard queue model"),
            Scheme::Epoch => "MS queue sim (epoch)",
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
        // The immediate-free variants touch no protection register, so they
        // carry none (every object is cloned at every explored step).
        if self.scheme == Scheme::Epoch {
            objects.extend(self.layout().registers());
        }
        objects
    }

    fn spawn(&self, pid: ProcessId) -> Box<dyn SimProcess> {
        Box::new(QueueProc {
            pid,
            capacity: self.capacity as u64,
            links: self.scheme.links(),
            prot: Protection::new(self.scheme, self.layout(), pid),
            state: State::Idle,
            value: 0,
            node: 0,
        })
    }

    /// Declared footprint of a fresh call: an enqueue opens on the free-set
    /// read, a dequeue on the head read — or, when the scheme pins, on the
    /// pin's global-epoch read (tagging changes word contents, never which
    /// object a state touches first).
    fn first_step(&self, _pid: ProcessId, call: MethodCall) -> Option<BaseOp> {
        match call {
            MethodCall::Enqueue(_) => Some(BaseOp::Read(OBJ_FREE)),
            MethodCall::Dequeue if self.scheme == Scheme::Epoch => {
                Some(BaseOp::Read(self.global_epoch_obj()))
            }
            MethodCall::Dequeue => Some(BaseOp::Read(OBJ_HEAD)),
            other => panic!("queue simulation given {other:?}"),
        }
    }
}

/// Where a finished protection sub-sequence returns to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum After {
    /// `admit_alloc` → initialise the node.
    Alloc,
    /// The enqueue's pin, taken once its node is prepared → link it.
    /// (Allocating and preparing needed no pin; dereferencing the tail
    /// node's next link is what the protection must cover.)
    Link,
    /// The dequeue's pin → snapshot head and tail.
    Unlink,
    /// The unlinked dummy's `retire` → quiesce, reclaim, respond.
    Retired(MethodResponse),
    /// The retiring dequeue's reclamation attempt → respond.
    Reclaim(MethodResponse),
    /// The reclamation attempt of an enqueue that found the arena empty →
    /// retry the allocation once.
    RetryAlloc,
    /// The enqueue's or the empty dequeue's `quiesce` → respond.
    Respond(MethodResponse),
}

/// Where a method call currently stands.  Every variant carries the raw
/// words read so far (the enqueue's own node lives in the process struct);
/// `raw` words are compared and CASed in full, so the tagged variant gets
/// its protection from the same transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    // Inside a protection sub-sequence; `After` is where it returns to.
    Protect(Sub, After),
    // --- enqueue ---
    EnqWriteValue,
    EnqReadMyNext,
    EnqWriteMyNext {
        next_raw: u64,
    },
    EnqReadTail,
    EnqReadTailNext {
        tail_raw: u64,
    },
    EnqCasTailNext {
        tail_raw: u64,
        next_raw: u64,
    },
    EnqHelpSwing {
        tail_raw: u64,
        next_raw: u64,
    },
    EnqSwing {
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
}

#[derive(Debug, Clone)]
struct QueueProc {
    pid: ProcessId,
    capacity: u64,
    links: LinkCodec,
    prot: Protection,
    state: State,
    /// The value being enqueued by the current call.
    value: Word,
    /// The enqueue's allocated node.
    node: u64,
}

impl QueueProc {
    fn idx_of(&self, raw: u64) -> u64 {
        self.links.index(raw)
    }

    fn is_nil(&self, raw: u64) -> bool {
        self.idx_of(raw) == self.capacity
    }

    /// The word that replaces `old_raw` when repointing to `idx`: the bare
    /// index, or (tagged) the index with `old_raw`'s tag bumped.
    fn repoint(&self, old_raw: u64, idx: u64) -> u64 {
        self.links.encode(old_raw, idx, false)
    }

    fn value_obj(&self, idx: u64) -> ObjId {
        3 + 2 * idx as usize
    }

    fn next_obj(&self, idx: u64) -> ObjId {
        4 + 2 * idx as usize
    }

    /// Whether the enqueue reads its fresh node's link before initialising
    /// it.  On hardware only `TagGuard`'s override of `Guard::store_link`
    /// reads the old word (to continue its tag); the default is a bare
    /// store, which is what the epoch variant models.  The unprotected
    /// variant reads too — one step more than its hardware twin takes —
    /// because it shares the tagged variant's transitions and every E11 pin
    /// of `queue/unprotected` is a schedule over that step.
    fn reads_own_link(&self) -> bool {
        self.prot.scheme != Scheme::Epoch
    }

    fn respond(&mut self, response: MethodResponse) -> Option<MethodResponse> {
        self.state = State::Idle;
        Some(response)
    }

    /// Enter the sub-sequence `step` opens, or resume at `after` right away
    /// if it is over without a shared-memory step.
    fn run(&mut self, step: Step, after: After) -> Option<MethodResponse> {
        match step {
            Step::Goto(sub) => {
                self.state = State::Protect(sub, after);
                None
            }
            Step::Done(outcome) => self.resume(after, outcome),
        }
    }

    /// The queue's composition of the protection sub-sequences.
    fn resume(&mut self, after: After, outcome: Outcome) -> Option<MethodResponse> {
        match after {
            After::Alloc => match outcome {
                Outcome::Allocated(idx) => {
                    self.node = idx;
                    self.state = State::EnqWriteValue;
                }
                // A process with an empty limbo fails fast instead — every
                // quarantined node is adoptable through a dequeuer's advance,
                // and keeping the exhausted enqueue short keeps the DPOR
                // space tractable.
                Outcome::AllocPressure => {
                    let step = self.prot.reclaim_pressure();
                    return self.run(step, After::RetryAlloc);
                }
                // Arena exhausted: the enqueue fails without touching the
                // queue words.
                _ => return self.respond(MethodResponse::EnqueueResult(false)),
            },
            After::Link => self.state = State::EnqReadTail,
            After::Unlink => self.state = State::DeqReadHead,
            After::Retired(response) => {
                return self.run(self.prot.quiesce(), After::Reclaim(response));
            }
            After::Reclaim(_) | After::RetryAlloc => {
                let step = match outcome {
                    // Quiesced with the dummy in limbo: one advance attempt.
                    Outcome::Quiesced if self.prot.holds_limbo() => self.prot.reclaim_pressure(),
                    // A successful advance is exactly when quarantined bags
                    // can have become eligible: adopt them before freeing
                    // our own.
                    Outcome::Advanced => self.prot.adopt(),
                    // Blocked too often behind a stale pin: hand the private
                    // limbo to the quarantine.
                    Outcome::Blocked if self.prot.transfer_due() => self.prot.transfer(),
                    Outcome::Adopted(bits) if bits != 0 => self.prot.release(bits),
                    // Every other way a sub-sequence of the attempt ends
                    // (raced or blocked advance, transfer, nothing adopted,
                    // a landed release) leaves our own eligible limbo to
                    // free; a release removes what it freed, so the second
                    // time round nothing is left and the attempt is over.
                    _ => match (self.prot.reclaimable(), after) {
                        (0, After::Reclaim(response)) => return self.respond(response),
                        (0, _) => return self.run(self.prot.admit_alloc(true), After::Alloc),
                        (bits, _) => self.prot.release(bits),
                    },
                };
                return self.run(step, after);
            }
            After::Respond(response) => return self.respond(response),
        }
        None
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
                self.run(self.prot.admit_alloc(false), After::Alloc)
            }
            MethodCall::Dequeue => self.run(self.prot.pin(), After::Unlink),
            other => panic!("queue simulation given {other:?}"),
        }
    }

    fn poised(&self) -> BaseOp {
        match self.state {
            State::Idle => panic!("no method call in progress"),
            State::Protect(sub, _) => self.prot.poised(sub),
            State::EnqWriteValue => BaseOp::Write(self.value_obj(self.node), self.value as u64),
            State::EnqReadMyNext => BaseOp::Read(self.next_obj(self.node)),
            State::EnqWriteMyNext { next_raw } => BaseOp::Write(
                self.next_obj(self.node),
                self.repoint(next_raw, self.capacity),
            ),
            State::EnqReadTail | State::DeqReadTail { .. } => BaseOp::Read(OBJ_TAIL),
            State::EnqReadTailNext { tail_raw } => {
                BaseOp::Read(self.next_obj(self.idx_of(tail_raw)))
            }
            State::EnqCasTailNext { tail_raw, next_raw } => BaseOp::Cas(
                self.next_obj(self.idx_of(tail_raw)),
                next_raw,
                self.repoint(next_raw, self.node),
            ),
            // Help a lagging tail forward, from either operation.
            State::EnqHelpSwing { tail_raw, next_raw }
            | State::DeqHelpSwing { tail_raw, next_raw } => BaseOp::Cas(
                OBJ_TAIL,
                tail_raw,
                self.repoint(tail_raw, self.idx_of(next_raw)),
            ),
            State::EnqSwing { tail_raw } => {
                BaseOp::Cas(OBJ_TAIL, tail_raw, self.repoint(tail_raw, self.node))
            }
            State::DeqReadHead => BaseOp::Read(OBJ_HEAD),
            State::DeqReadNext { head_raw, .. } => {
                BaseOp::Read(self.next_obj(self.idx_of(head_raw)))
            }
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
        }
    }

    fn apply(&mut self, result: StepResult) -> Option<MethodResponse> {
        match self.state {
            State::Idle => panic!("no method call in progress"),
            State::Protect(sub, after) => {
                let step = self.prot.apply(sub, result);
                return self.run(step, after);
            }
            State::EnqWriteValue => {
                self.state = if self.reads_own_link() {
                    State::EnqReadMyNext
                } else {
                    State::EnqWriteMyNext { next_raw: 0 }
                };
            }
            State::EnqReadMyNext => {
                let next_raw = result.value();
                self.state = State::EnqWriteMyNext { next_raw };
            }
            State::EnqWriteMyNext { .. } => return self.run(self.prot.pin(), After::Link),
            State::EnqReadTail => {
                let tail_raw = result.value();
                self.state = State::EnqReadTailNext { tail_raw };
            }
            State::EnqReadTailNext { tail_raw } => {
                let next_raw = result.value();
                self.state = if self.is_nil(next_raw) {
                    State::EnqCasTailNext { tail_raw, next_raw }
                } else {
                    State::EnqHelpSwing { tail_raw, next_raw }
                };
            }
            State::EnqCasTailNext { tail_raw, .. } => {
                self.state = if result.cas_succeeded() {
                    State::EnqSwing { tail_raw }
                } else {
                    State::EnqReadTail
                };
            }
            State::EnqHelpSwing { .. } => {
                self.state = State::EnqReadTail;
            }
            State::EnqSwing { .. } => {
                // Whether our swing or a helper's landed, the node is linked;
                // quiesce before responding.
                let linked = MethodResponse::EnqueueResult(true);
                return self.run(self.prot.quiesce(), After::Respond(linked));
            }
            State::DeqReadHead => {
                let head_raw = result.value();
                self.state = State::DeqReadTail { head_raw };
            }
            State::DeqReadTail { head_raw } => {
                let tail_raw = result.value();
                self.state = State::DeqReadNext { head_raw, tail_raw };
            }
            State::DeqReadNext { head_raw, tail_raw } => {
                let next_raw = result.value();
                if self.idx_of(head_raw) == self.idx_of(tail_raw) {
                    if self.is_nil(next_raw) {
                        let empty = MethodResponse::DequeueResult(None);
                        return self.run(self.prot.quiesce(), After::Respond(empty));
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
                let value = result.value();
                self.state = State::DeqCasHead {
                    head_raw,
                    next_raw,
                    value,
                };
            }
            State::DeqCasHead {
                head_raw, value, ..
            } => {
                if result.cas_succeeded() {
                    // The old dummy is ours to retire.
                    let step = self.prot.retire(self.idx_of(head_raw));
                    let dequeued = MethodResponse::DequeueResult(Some(value as Word));
                    return self.run(step, After::Retired(dequeued));
                }
                self.state = State::DeqReadHead;
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
        algo: &QueueSim,
        pid: ProcessId,
        auditor: &mut crate::audit::FootprintAuditor,
    ) -> bool {
        use crate::executor::StepOutcome;
        loop {
            match sim.step_audited(algo, pid, auditor) {
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
        assert!(complete_audited(&mut sim, &algo, 0, &mut auditor));
        // Process 1 starts a dequeue and parks right after its pin: three
        // steps cover read-g, publish-local, validate.
        sim.enqueue(1, MethodCall::Dequeue);
        for _ in 0..3 {
            let _ = sim.step_audited(&algo, 1, &mut auditor);
        }
        assert_eq!(
            sim.registers()[algo.local_epoch_obj(1)],
            1,
            "process 1 must be parked pinned at epoch 0"
        );
        // Process 0 churns against the parked pin.  Its first advance
        // succeeds (the pin is still current), the later ones are blocked
        // by the now-stale pin; the second consecutive blocked attempt
        // transfers process 0's limbo into the shared quarantine.
        for i in 0..3u32 {
            sim.enqueue(0, MethodCall::Enqueue(i + 2));
            assert!(complete_audited(&mut sim, &algo, 0, &mut auditor));
            sim.enqueue(0, MethodCall::Dequeue);
            assert!(complete_audited(&mut sim, &algo, 0, &mut auditor));
        }
        assert_ne!(
            sim.registers()[algo.quarantine_mask_obj()],
            0,
            "advances blocked by a stale pin must quarantine the blocked limbo"
        );
        // The parked dequeuer wakes up and finishes, unblocking advances;
        // process 0's subsequent successful advances adopt the quarantined
        // nodes back into the free set.
        assert!(complete_audited(&mut sim, &algo, 1, &mut auditor));
        for i in 0..4u32 {
            sim.enqueue(0, MethodCall::Enqueue(10 + i));
            assert!(complete_audited(&mut sim, &algo, 0, &mut auditor));
            sim.enqueue(0, MethodCall::Dequeue);
            assert!(complete_audited(&mut sim, &algo, 0, &mut auditor));
        }
        assert_eq!(
            sim.registers()[algo.quarantine_mask_obj()],
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
    fn local_epoch_registers_are_cleared_at_quiescence() {
        let algo = QueueSim::epoch(2, 4);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::Enqueue(5));
        sim.enqueue(1, MethodCall::Dequeue);
        sim.run_until_quiescent();
        for p in 0..2 {
            assert_eq!(
                sim.registers()[algo.local_epoch_obj(p)],
                0,
                "process {p} left its local epoch pinned"
            );
        }
    }
}
