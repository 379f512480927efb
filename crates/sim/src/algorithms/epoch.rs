//! Step-level Michael–Scott queue under **epoch-based reclamation** — the
//! simulator counterpart of `aba_reclaim::EpochReclaim` and the fifth column
//! of the scheme comparison.
//!
//! The shared memory extends [`QueueSim`](super::queue::QueueSim)'s layout
//! with a global epoch counter and one local-epoch register per process;
//! limbo bags are process-*private* (they are each process's own retired
//! nodes, never read by others), so they live in the state machine rather
//! than in shared objects.  The protocol:
//!
//! * **pin** — read the global epoch `g`, publish `g + 1` in the local
//!   register, re-read the global and re-publish until it was stable (the
//!   re-read closes the race where an advance-and-free slips between read
//!   and publish);
//! * **operate** — the unprotected MS-queue state machine, verbatim: while
//!   pinned, nothing retired from now on can be freed under us;
//! * **retire** — a dequeued dummy goes into the private limbo stamped with
//!   a **fresh** read of the global epoch (a pin-time stamp would be one
//!   advance too old when the unlink raced an advance — the classic EBR
//!   subtlety);
//! * **unpin, advance** — clear the local register; then scan every local
//!   register and CAS the global forward iff no pinned process is stale;
//!   limbo entries whose stamp is two or more advances old return to the
//!   free set with a single CAS of the whole eligible bit mask.
//! * **transfer (E15)** — an advance blocked by a stale pin
//!   [`TRANSFER_AFTER_BLOCKED`] times in a row moves the blocked process's
//!   private limbo into a *shared quarantine*: one stamp register per node
//!   is written first, then a single CAS publishes the nodes' bits in the
//!   quarantine mask (publish-after-stamp, so an adopter never reads an
//!   unwritten stamp).
//! * **adopt (E15)** — after a *successful* advance, the advancing process
//!   reads the quarantine mask, claims every entry whose stamp is two or
//!   more advances old with one CAS (losing the claim race is benign — the
//!   winner frees them), and returns the claimed bits to the free set.
//!
//! The hardware implementation's `advance_debt` counter is a pure
//! diagnostic (it never forces a free) and is deliberately *not* modelled;
//! the transfer trigger [`TRANSFER_AFTER_BLOCKED`] mirrors
//! `aba-reclaim`'s constant of the same name.
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

use aba_spec::{ProcessId, Word};

use crate::algorithm::{MethodCall, MethodResponse, SimAlgorithm, SimProcess};
use crate::object::{BaseObject, BaseOp, ObjId, StepResult};

const OBJ_HEAD: ObjId = 0;
const OBJ_TAIL: ObjId = 1;
const OBJ_FREE: ObjId = 2;

/// Consecutive blocked advance attempts after which a process transfers its
/// private limbo to the shared quarantine.  Mirrors
/// `aba_reclaim::EpochReclaim`'s `TRANSFER_AFTER_BLOCKED`.
pub const TRANSFER_AFTER_BLOCKED: u32 = 2;

/// A simulated epoch-reclaimed MS queue: `n` processes over a
/// capacity-`capacity` node arena.
#[derive(Debug, Clone, Copy)]
pub struct EpochSim {
    n: usize,
    capacity: usize,
}

impl EpochSim {
    /// An epoch-reclaimed queue simulation.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `capacity` is 0 or above 63 (the free set is a
    /// single 64-bit word).
    pub fn new(n: usize, capacity: usize) -> Self {
        assert!(n > 0, "need at least one process");
        assert!((1..=63).contains(&capacity), "capacity must be in 1..=63");
        EpochSim { n, capacity }
    }

    /// Arena capacity (number of nodes, including the running dummy).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Object id of the global epoch counter.
    pub fn global_epoch_obj(&self) -> ObjId {
        3 + 2 * self.capacity
    }

    /// Object id of process `p`'s local-epoch register (`0` = quiescent,
    /// `e + 1` = pinned at epoch `e`).
    pub fn local_epoch_obj(&self, p: ProcessId) -> ObjId {
        4 + 2 * self.capacity + p
    }

    /// Object id of the shared quarantine bit mask (bit `i` set = node `i`
    /// sits in quarantine, adoptable by any process).
    pub fn quarantine_mask_obj(&self) -> ObjId {
        4 + 2 * self.capacity + self.n
    }

    /// Object id of node `idx`'s quarantine epoch-stamp register (written
    /// before the node's bit is published in the mask).
    pub fn quarantine_stamp_obj(&self, idx: usize) -> ObjId {
        5 + 2 * self.capacity + self.n + idx
    }
}

impl SimAlgorithm for EpochSim {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        "MS queue sim (epoch)"
    }

    fn initial_objects(&self) -> Vec<BaseObject> {
        let nil = self.capacity as u64;
        let mut objects = vec![
            BaseObject::cas(0),                                  // head -> dummy 0
            BaseObject::cas(0),                                  // tail -> dummy 0
            BaseObject::cas(((1u64 << self.capacity) - 1) & !1), // free set minus dummy
        ];
        for _ in 0..self.capacity {
            objects.push(BaseObject::register(0)); // value
            objects.push(BaseObject::writable_cas(nil)); // next
        }
        objects.push(BaseObject::cas(0)); // global epoch
        for _ in 0..self.n {
            objects.push(BaseObject::register(0)); // local epochs (0 = idle)
        }
        objects.push(BaseObject::cas(0)); // quarantine mask
        for _ in 0..self.capacity {
            objects.push(BaseObject::register(0)); // quarantine stamps
        }
        objects
    }

    fn spawn(&self, pid: ProcessId) -> Box<dyn SimProcess> {
        Box::new(EpochProc {
            pid,
            n: self.n,
            capacity: self.capacity as u64,
            state: State::Idle,
            value: 0,
            limbo: Vec::new(),
            last_g: 0,
            blocked_advances: 0,
        })
    }

    /// Declared footprint of a fresh call: an enqueue opens on the free-set
    /// read; a dequeue pins first, so it opens on the global-epoch read.
    fn first_step(&self, _pid: ProcessId, call: MethodCall) -> Option<BaseOp> {
        match call {
            MethodCall::Enqueue(_) => Some(BaseOp::Read(OBJ_FREE)),
            MethodCall::Dequeue => Some(BaseOp::Read(self.global_epoch_obj())),
            other => panic!("epoch queue simulation given {other:?}"),
        }
    }
}

/// Where the shared advance/free tail-sequence returns to once it finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum After {
    /// Alloc failed, reclamation ran: retry the allocation once.
    EnqRetryAlloc,
    /// Dequeue finished; respond with this result.
    DeqDone(Option<Word>),
}

/// Where a method call currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    // --- pin protocol (shared by enqueue and dequeue) ---
    // `enq_idx` carries the enqueuer's already-allocated node index through
    // the pin; `None` means the pin belongs to a dequeue.
    PinReadG {
        enq_idx: Option<u64>,
    },
    PinWriteLocal {
        enq_idx: Option<u64>,
        g: u64,
    },
    PinCheckG {
        enq_idx: Option<u64>,
        g: u64,
    },
    // --- enqueue ---
    EnqReadFree {
        retried: bool,
    },
    EnqCasFree {
        retried: bool,
        mask: u64,
        idx: u64,
    },
    EnqWriteValue {
        idx: u64,
    },
    EnqWriteMyNext {
        idx: u64,
    },
    EnqReadTail {
        idx: u64,
    },
    EnqReadTailNext {
        idx: u64,
        tail: u64,
    },
    EnqCasTailNext {
        idx: u64,
        tail: u64,
    },
    EnqHelpSwing {
        idx: u64,
        tail: u64,
        next: u64,
    },
    EnqSwing {
        idx: u64,
        tail: u64,
    },
    EnqUnpin,
    // --- dequeue ---
    DeqReadHead,
    DeqReadTail {
        head: u64,
    },
    DeqReadNext {
        head: u64,
        tail: u64,
    },
    DeqHelpSwing {
        tail: u64,
        next: u64,
    },
    DeqReadValue {
        head: u64,
        next: u64,
    },
    DeqCasHead {
        head: u64,
        next: u64,
        value: u64,
    },
    /// Fresh global-epoch read stamping the just-unlinked dummy (the stamp
    /// must be taken *after* the unlink — see the module docs).
    DeqReadRetireEpoch {
        head: u64,
        value: u64,
    },
    DeqUnpin {
        value: Option<Word>,
    },
    DeqUnpinEmpty,
    // --- advance / free tail-sequence ---
    AdvReadG {
        after: After,
    },
    AdvScanLocal {
        after: After,
        g: u64,
        t: usize,
    },
    AdvCasG {
        after: After,
        g: u64,
    },
    FreeReadMask {
        after: After,
        bits: u64,
    },
    FreeCasMask {
        after: After,
        bits: u64,
        mask: u64,
    },
    // --- quarantine transfer (advance blocked TRANSFER_AFTER_BLOCKED times) ---
    /// Stamp limbo entry `i` into its quarantine register (one write per
    /// node, all before the mask CAS publishes any of them).
    XferWriteStamp {
        after: After,
        i: usize,
    },
    XferReadQmask {
        after: After,
        bits: u64,
    },
    XferCasQmask {
        after: After,
        bits: u64,
        mask: u64,
    },
    // --- quarantine adoption (after a successful advance) ---
    AdoptReadQmask {
        after: After,
    },
    /// Read the stamp of the lowest set bit in `remaining`; `take`
    /// accumulates the bits found eligible so far.
    AdoptReadStamp {
        after: After,
        mask: u64,
        remaining: u64,
        take: u64,
    },
    AdoptCasQmask {
        after: After,
        mask: u64,
        take: u64,
    },
    AdoptFreeRead {
        after: After,
        take: u64,
    },
    AdoptFreeCas {
        after: After,
        take: u64,
        free: u64,
    },
}

#[derive(Debug, Clone)]
struct EpochProc {
    pid: ProcessId,
    n: usize,
    capacity: u64,
    state: State,
    /// The value being enqueued by the current call.
    value: Word,
    /// Private limbo: `(node, retire-epoch)` pairs awaiting two advances.
    limbo: Vec<(u64, u64)>,
    /// Most recent global-epoch value observed (drives free eligibility).
    last_g: u64,
    /// Consecutive advance attempts blocked by a stale pinned peer; reaching
    /// [`TRANSFER_AFTER_BLOCKED`] triggers the quarantine transfer.
    blocked_advances: u32,
}

impl EpochProc {
    fn is_nil(&self, raw: u64) -> bool {
        raw == self.capacity
    }

    fn value_obj(&self, idx: u64) -> ObjId {
        3 + 2 * idx as usize
    }

    fn next_obj(&self, idx: u64) -> ObjId {
        4 + 2 * idx as usize
    }

    fn global_obj(&self) -> ObjId {
        3 + 2 * self.capacity as usize
    }

    fn local_obj(&self, p: usize) -> ObjId {
        4 + 2 * self.capacity as usize + p
    }

    fn qmask_obj(&self) -> ObjId {
        4 + 2 * self.capacity as usize + self.n
    }

    fn qstamp_obj(&self, idx: u64) -> ObjId {
        5 + 2 * self.capacity as usize + self.n + idx as usize
    }

    /// Free-set bits of every limbo entry at least two advances old.
    fn eligible_bits(&self) -> u64 {
        self.limbo
            .iter()
            .filter(|&&(_, e)| e + 2 <= self.last_g)
            .fold(0u64, |bits, &(idx, _)| bits | (1u64 << idx))
    }

    /// Enter the advance/free tail-sequence, or skip straight to its
    /// continuation when there is nothing to reclaim.
    fn begin_advance(&mut self, after: After) -> Option<MethodResponse> {
        if self.limbo.is_empty() {
            return self.dispatch(after);
        }
        self.state = State::AdvReadG { after };
        None
    }

    /// Free whatever is eligible, then continue; called once the advance
    /// attempt (successful or aborted) is over.
    fn finish_advance(&mut self, after: After) -> Option<MethodResponse> {
        let bits = self.eligible_bits();
        if bits == 0 {
            return self.dispatch(after);
        }
        self.state = State::FreeReadMask { after, bits };
        None
    }

    fn dispatch(&mut self, after: After) -> Option<MethodResponse> {
        match after {
            After::EnqRetryAlloc => {
                self.state = State::EnqReadFree { retried: true };
                None
            }
            After::DeqDone(value) => {
                self.state = State::Idle;
                Some(MethodResponse::DequeueResult(value))
            }
        }
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

impl SimProcess for EpochProc {
    fn invoke(&mut self, call: MethodCall) -> Option<MethodResponse> {
        assert!(
            self.state == State::Idle,
            "process {} invoked while busy",
            self.pid
        );
        match call {
            MethodCall::Enqueue(value) => {
                self.value = value;
                self.state = State::EnqReadFree { retried: false };
            }
            MethodCall::Dequeue => {
                self.state = State::PinReadG { enq_idx: None };
            }
            other => panic!("epoch queue simulation given {other:?}"),
        }
        None
    }

    fn poised(&self) -> BaseOp {
        match self.state {
            State::Idle => panic!("no method call in progress"),
            State::PinReadG { .. } => BaseOp::Read(self.global_obj()),
            State::PinWriteLocal { g, .. } => BaseOp::Write(self.local_obj(self.pid), g + 1),
            State::PinCheckG { .. } => BaseOp::Read(self.global_obj()),
            State::EnqReadFree { .. } => BaseOp::Read(OBJ_FREE),
            State::EnqCasFree { mask, idx, .. } => {
                BaseOp::Cas(OBJ_FREE, mask, mask & !(1u64 << idx))
            }
            State::EnqWriteValue { idx } => BaseOp::Write(self.value_obj(idx), self.value as u64),
            State::EnqWriteMyNext { idx } => BaseOp::Write(self.next_obj(idx), self.capacity),
            State::EnqReadTail { .. } => BaseOp::Read(OBJ_TAIL),
            State::EnqReadTailNext { tail, .. } => BaseOp::Read(self.next_obj(tail)),
            State::EnqCasTailNext { idx, tail } => {
                BaseOp::Cas(self.next_obj(tail), self.capacity, idx)
            }
            State::EnqHelpSwing { tail, next, .. } => BaseOp::Cas(OBJ_TAIL, tail, next),
            State::EnqSwing { idx, tail } => BaseOp::Cas(OBJ_TAIL, tail, idx),
            State::EnqUnpin => BaseOp::Write(self.local_obj(self.pid), 0),
            State::DeqReadHead => BaseOp::Read(OBJ_HEAD),
            State::DeqReadTail { .. } => BaseOp::Read(OBJ_TAIL),
            State::DeqReadNext { head, .. } => BaseOp::Read(self.next_obj(head)),
            State::DeqHelpSwing { tail, next } => BaseOp::Cas(OBJ_TAIL, tail, next),
            State::DeqReadValue { next, .. } => BaseOp::Read(self.value_obj(next)),
            State::DeqCasHead { head, next, .. } => BaseOp::Cas(OBJ_HEAD, head, next),
            State::DeqReadRetireEpoch { .. } => BaseOp::Read(self.global_obj()),
            State::DeqUnpin { .. } | State::DeqUnpinEmpty => {
                BaseOp::Write(self.local_obj(self.pid), 0)
            }
            State::AdvReadG { .. } => BaseOp::Read(self.global_obj()),
            State::AdvScanLocal { t, .. } => BaseOp::Read(self.local_obj(t)),
            State::AdvCasG { g, .. } => BaseOp::Cas(self.global_obj(), g, g + 1),
            State::FreeReadMask { .. } => BaseOp::Read(OBJ_FREE),
            State::FreeCasMask { bits, mask, .. } => BaseOp::Cas(OBJ_FREE, mask, mask | bits),
            State::XferWriteStamp { i, .. } => {
                let (idx, stamp) = self.limbo[i];
                BaseOp::Write(self.qstamp_obj(idx), stamp)
            }
            State::XferReadQmask { .. } => BaseOp::Read(self.qmask_obj()),
            State::XferCasQmask { bits, mask, .. } => {
                BaseOp::Cas(self.qmask_obj(), mask, mask | bits)
            }
            State::AdoptReadQmask { .. } => BaseOp::Read(self.qmask_obj()),
            State::AdoptReadStamp { remaining, .. } => {
                BaseOp::Read(self.qstamp_obj(u64::from(remaining.trailing_zeros())))
            }
            State::AdoptCasQmask { mask, take, .. } => {
                BaseOp::Cas(self.qmask_obj(), mask, mask & !take)
            }
            State::AdoptFreeRead { .. } => BaseOp::Read(OBJ_FREE),
            State::AdoptFreeCas { take, free, .. } => BaseOp::Cas(OBJ_FREE, free, free | take),
        }
    }

    fn apply(&mut self, result: StepResult) -> Option<MethodResponse> {
        match self.state {
            State::Idle => panic!("no method call in progress"),
            // --- pin ---
            State::PinReadG { enq_idx } => {
                let g = Self::expect_value(result);
                self.last_g = g;
                self.state = State::PinWriteLocal { enq_idx, g };
            }
            State::PinWriteLocal { enq_idx, g } => {
                self.state = State::PinCheckG { enq_idx, g };
            }
            State::PinCheckG { enq_idx, g } => {
                let now = Self::expect_value(result);
                if now == g {
                    // Pinned at a validated epoch: safe to traverse.
                    self.state = match enq_idx {
                        Some(idx) => State::EnqReadTail { idx },
                        None => State::DeqReadHead,
                    };
                } else {
                    self.last_g = now;
                    self.state = State::PinWriteLocal { enq_idx, g: now };
                }
            }
            // --- enqueue ---
            State::EnqReadFree { retried } => {
                let mask = Self::expect_value(result);
                if mask == 0 {
                    if !retried && !self.limbo.is_empty() {
                        // Arena exhausted while we hold limbo nodes: run the
                        // advance/free sequence (which also adopts eligible
                        // quarantined nodes after a successful advance),
                        // then retry the allocation once (the hardware
                        // impl's reclaim-pressure path).  A process with an
                        // empty limbo fails fast instead — every
                        // quarantined node is adoptable through a
                        // dequeuer's advance, and keeping the exhausted
                        // enqueue short keeps the DPOR space tractable.
                        return self.begin_advance(After::EnqRetryAlloc);
                    }
                    self.state = State::Idle;
                    return Some(MethodResponse::EnqueueResult(false));
                }
                let idx = mask.trailing_zeros() as u64;
                self.state = State::EnqCasFree { retried, mask, idx };
            }
            State::EnqCasFree { retried, idx, .. } => {
                self.state = if Self::expect_cas(result) {
                    State::EnqWriteValue { idx }
                } else {
                    State::EnqReadFree { retried }
                };
            }
            State::EnqWriteValue { idx } => {
                self.state = State::EnqWriteMyNext { idx };
            }
            State::EnqWriteMyNext { idx } => {
                // Pin before touching tail: the enqueue dereferences the
                // tail node's next link, which the epoch protection must
                // cover.  (Allocating and preparing the node needed no pin —
                // it is exclusively ours until linked.)
                self.state = State::PinReadG { enq_idx: Some(idx) };
            }
            State::EnqReadTail { idx } => {
                let tail = Self::expect_value(result);
                self.state = State::EnqReadTailNext { idx, tail };
            }
            State::EnqReadTailNext { idx, tail } => {
                let next = Self::expect_value(result);
                self.state = if self.is_nil(next) {
                    State::EnqCasTailNext { idx, tail }
                } else {
                    State::EnqHelpSwing { idx, tail, next }
                };
            }
            State::EnqCasTailNext { idx, tail } => {
                self.state = if Self::expect_cas(result) {
                    State::EnqSwing { idx, tail }
                } else {
                    State::EnqReadTail { idx }
                };
            }
            State::EnqHelpSwing { idx, .. } => {
                self.state = State::EnqReadTail { idx };
            }
            State::EnqSwing { .. } => {
                // Whether our swing or a helper's landed, the node is linked;
                // quiesce before responding.
                self.state = State::EnqUnpin;
            }
            State::EnqUnpin => {
                self.state = State::Idle;
                return Some(MethodResponse::EnqueueResult(true));
            }
            // --- dequeue ---
            State::DeqReadHead => {
                let head = Self::expect_value(result);
                self.state = State::DeqReadTail { head };
            }
            State::DeqReadTail { head } => {
                let tail = Self::expect_value(result);
                self.state = State::DeqReadNext { head, tail };
            }
            State::DeqReadNext { head, tail } => {
                let next = Self::expect_value(result);
                if head == tail {
                    if self.is_nil(next) {
                        self.state = State::DeqUnpinEmpty;
                    } else {
                        self.state = State::DeqHelpSwing { tail, next };
                    }
                } else if self.is_nil(next) {
                    // Inconsistent snapshot (head moved under us): retry.
                    self.state = State::DeqReadHead;
                } else {
                    self.state = State::DeqReadValue { head, next };
                }
            }
            State::DeqHelpSwing { .. } => {
                self.state = State::DeqReadHead;
            }
            State::DeqReadValue { head, next } => {
                let value = Self::expect_value(result);
                self.state = State::DeqCasHead { head, next, value };
            }
            State::DeqCasHead { head, value, .. } => {
                self.state = if Self::expect_cas(result) {
                    State::DeqReadRetireEpoch { head, value }
                } else {
                    State::DeqReadHead
                };
            }
            State::DeqReadRetireEpoch { head, value } => {
                let g = Self::expect_value(result);
                self.last_g = g;
                // The old dummy enters limbo stamped with the post-unlink
                // epoch; it rejoins the free set after two advances.
                self.limbo.push((head, g));
                self.state = State::DeqUnpin {
                    value: Some(value as Word),
                };
            }
            State::DeqUnpin { value } => {
                return self.begin_advance(After::DeqDone(value));
            }
            State::DeqUnpinEmpty => {
                self.state = State::Idle;
                return Some(MethodResponse::DequeueResult(None));
            }
            // --- advance / free ---
            State::AdvReadG { after } => {
                let g = Self::expect_value(result);
                self.last_g = g;
                self.state = State::AdvScanLocal { after, g, t: 0 };
            }
            State::AdvScanLocal { after, g, t } => {
                let local = Self::expect_value(result);
                if local != 0 && local != g + 1 {
                    // A pinned process has not observed epoch g yet: the
                    // advance must wait, but already-eligible limbo can go.
                    self.blocked_advances += 1;
                    if self.blocked_advances >= TRANSFER_AFTER_BLOCKED && !self.limbo.is_empty() {
                        // Blocked too often behind the same kind of stale
                        // pin: hand the whole private limbo to the shared
                        // quarantine so any process that later advances can
                        // free it — the E15 cure for bags stranded with a
                        // parked owner.
                        self.blocked_advances = 0;
                        self.state = State::XferWriteStamp { after, i: 0 };
                        return None;
                    }
                    return self.finish_advance(after);
                }
                if t + 1 == self.n {
                    self.state = State::AdvCasG { after, g };
                } else {
                    self.state = State::AdvScanLocal { after, g, t: t + 1 };
                }
            }
            State::AdvCasG { after, g } => {
                if Self::expect_cas(result) {
                    self.last_g = g + 1;
                    self.blocked_advances = 0;
                    // A successful advance is exactly when quarantined bags
                    // can have become eligible: try to adopt them before
                    // freeing our own.
                    self.state = State::AdoptReadQmask { after };
                    return None;
                }
                // A failed CAS means someone advanced for us — equally good.
                return self.finish_advance(after);
            }
            State::FreeReadMask { after, bits } => {
                let mask = Self::expect_value(result);
                self.state = State::FreeCasMask { after, bits, mask };
            }
            State::FreeCasMask { after, bits, .. } => {
                if Self::expect_cas(result) {
                    self.limbo.retain(|&(idx, _)| (bits >> idx) & 1 == 0);
                    return self.dispatch(after);
                }
                self.state = State::FreeReadMask { after, bits };
            }
            // --- quarantine transfer ---
            State::XferWriteStamp { after, i } => {
                if i + 1 < self.limbo.len() {
                    self.state = State::XferWriteStamp { after, i: i + 1 };
                } else {
                    // Every stamp is written; publish the bits in one CAS.
                    let bits = self
                        .limbo
                        .iter()
                        .fold(0u64, |acc, &(idx, _)| acc | (1u64 << idx));
                    self.state = State::XferReadQmask { after, bits };
                }
            }
            State::XferReadQmask { after, bits } => {
                let mask = Self::expect_value(result);
                self.state = State::XferCasQmask { after, bits, mask };
            }
            State::XferCasQmask { after, bits, .. } => {
                if Self::expect_cas(result) {
                    // Ownership of the nodes moved to the quarantine; our
                    // private limbo is empty until the next retire.
                    self.limbo.clear();
                    return self.dispatch(after);
                }
                // retry-bound: the quarantine-mask CAS fails only when
                // another process adopted or transferred concurrently
                // (system-wide progress), so the retry is lock-free.
                self.state = State::XferReadQmask { after, bits };
            }
            // --- quarantine adoption ---
            State::AdoptReadQmask { after } => {
                let mask = Self::expect_value(result);
                if mask == 0 {
                    return self.finish_advance(after);
                }
                self.state = State::AdoptReadStamp {
                    after,
                    mask,
                    remaining: mask,
                    take: 0,
                };
            }
            State::AdoptReadStamp {
                after,
                mask,
                remaining,
                take,
            } => {
                let stamp = Self::expect_value(result);
                let idx = u64::from(remaining.trailing_zeros());
                let take = if stamp + 2 <= self.last_g {
                    take | (1u64 << idx)
                } else {
                    take
                };
                let remaining = remaining & (remaining - 1);
                if remaining != 0 {
                    self.state = State::AdoptReadStamp {
                        after,
                        mask,
                        remaining,
                        take,
                    };
                } else if take == 0 {
                    return self.finish_advance(after);
                } else {
                    self.state = State::AdoptCasQmask { after, mask, take };
                }
            }
            State::AdoptCasQmask { after, take, .. } => {
                if Self::expect_cas(result) {
                    self.state = State::AdoptFreeRead { after, take };
                } else {
                    // Lost the claim race: whoever changed the mask either
                    // adopted these nodes or transferred new ones — both
                    // make progress, so give up rather than loop (a single
                    // attempt keeps the adoption path bounded).
                    return self.finish_advance(after);
                }
            }
            State::AdoptFreeRead { after, take } => {
                let free = Self::expect_value(result);
                self.state = State::AdoptFreeCas { after, take, free };
            }
            State::AdoptFreeCas { after, take, .. } => {
                if Self::expect_cas(result) {
                    return self.finish_advance(after);
                }
                // retry-bound: we own the claimed bits, so this free-set CAS
                // must land; it fails only when an alloc/free by another
                // process moved the mask (system-wide progress) — lock-free.
                self.state = State::AdoptFreeRead { after, take };
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

    #[test]
    fn sequential_fifo_behaviour() {
        let algo = EpochSim::new(2, 4);
        let mut sim = Simulation::new(&algo);
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
    fn nodes_recirculate_through_the_epoch_limbo() {
        // Capacity 4 with alternating enqueue/dequeue: the arena runs out
        // unless retired dummies actually complete their two advances and
        // rejoin the free set (the alloc-pressure path covers stalls).
        let algo = EpochSim::new(1, 4);
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
        let algo = EpochSim::new(3, 4);
        let mut sim = Simulation::new(&algo);
        for i in 0..4u32 {
            sim.enqueue(0, MethodCall::Enqueue(i + 1));
            sim.enqueue(1, MethodCall::Dequeue);
            sim.enqueue(2, MethodCall::Dequeue);
        }
        sim.run_schedule(&crate::schedule::random(3, 600, 11));
        sim.run_until_quiescent();
        assert!(sim.history().is_well_formed());
        assert_eq!(sim.history().len(), 12);
        assert!(check_history(sim.history(), Spec::Queue).is_linearizable());
    }

    /// Step `pid` under footprint auditing until its current call completes
    /// (the audited twin of `run_process_to_completion`).
    fn complete_audited(
        sim: &mut Simulation,
        algo: &EpochSim,
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
        let algo = EpochSim::new(2, 4);
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
        let algo = EpochSim::new(2, 4);
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
