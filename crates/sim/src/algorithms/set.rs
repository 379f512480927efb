//! Step-level Harris–Michael ordered-set state machines for the simulator.
//!
//! The hardware sets in `aba-lockfree` exhibit their ABA only when a
//! preemptive scheduler interleaves unluckily; here the *schedule is the
//! input*, so a seeded random search can reproducibly produce a concrete
//! non-linearizable execution of the unprotected variant — the traversal
//! counterpart of `search_violation`'s queue witnesses, and the hardest
//! surface the paper's schemes must defend: an operation parks holding a
//! predecessor's link word deep inside the chain while other processes
//! unlink, free and recycle the nodes it reasons about.
//!
//! One state machine serves four protection modes:
//!
//! * [`SetSim::unprotected`] — bare `(mark, index)` words, immediate free;
//!   a stale splice or unlink CAS succeeds against a recycled node (lost
//!   keys, resurrected keys, wedged chains).
//! * [`SetSim::tagged`] — every head/link word carries a counted tag bumped
//!   by each CAS (§1 tagging); stale CASes fail.
//! * [`SetSim::hazard`] — three hazard registers per process, published
//!   hand-over-hand (successor first, then re-validate the still-protected
//!   predecessor's link); an unlinked node waits in a private limbo until a
//!   scan of the other processes' registers clears it.
//! * [`SetSim::epoch`] — the `EpochSim` protocol transplanted: pin before
//!   traversing, stamp retirees with a post-unlink epoch read, free after
//!   two advances.
//!
//! Memory layout for a capacity-`C`, `n`-process set: object 0 is `head`,
//! object 1 is the free *set* (a bitmask), node `k` owns objects `2 + 2k`
//! (key) and `3 + 2k` (next link, `(tag, mark, index)` packed); then one
//! global-epoch object, `n` local-epoch registers and `3n` hazard registers
//! (allocated in every mode so object ids are uniform; unused modes never
//! touch them).

use aba_spec::{ProcessId, Word};

use crate::algorithm::{MethodCall, MethodResponse, SimAlgorithm, SimProcess};
use crate::object::{BaseObject, BaseOp, ObjId, StepResult};

const OBJ_HEAD: ObjId = 0;
const OBJ_FREE: ObjId = 1;

/// Protection lanes per process (predecessor / current / successor).
const HAZ_LANES: usize = 3;

/// Which ABA-protection protocol the state machine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Unprotected,
    Tagged,
    Hazard,
    Epoch,
}

/// A simulated Harris–Michael set: `n` processes over a capacity-`capacity`
/// node arena.
#[derive(Debug, Clone, Copy)]
pub struct SetSim {
    n: usize,
    capacity: usize,
    mode: Mode,
}

impl SetSim {
    fn new(n: usize, capacity: usize, mode: Mode) -> Self {
        assert!(n > 0, "need at least one process");
        assert!((1..=63).contains(&capacity), "capacity must be in 1..=63");
        SetSim { n, capacity, mode }
    }

    /// The unprotected (ABA-prone) variant.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `capacity` is 0 or above 63 (the free set is a
    /// single 64-bit word).
    pub fn unprotected(n: usize, capacity: usize) -> Self {
        Self::new(n, capacity, Mode::Unprotected)
    }

    /// The tagged (counted-word) variant.
    ///
    /// # Panics
    ///
    /// Panics as for [`SetSim::unprotected`].
    pub fn tagged(n: usize, capacity: usize) -> Self {
        Self::new(n, capacity, Mode::Tagged)
    }

    /// The hazard-pointer variant (three hand-over-hand lanes per process).
    ///
    /// # Panics
    ///
    /// Panics as for [`SetSim::unprotected`].
    pub fn hazard(n: usize, capacity: usize) -> Self {
        Self::new(n, capacity, Mode::Hazard)
    }

    /// The epoch-reclaimed variant.
    ///
    /// # Panics
    ///
    /// Panics as for [`SetSim::unprotected`].
    pub fn epoch(n: usize, capacity: usize) -> Self {
        Self::new(n, capacity, Mode::Epoch)
    }

    /// Arena capacity (number of nodes).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Object id of the global epoch counter (epoch mode).
    pub fn global_epoch_obj(&self) -> ObjId {
        2 + 2 * self.capacity
    }

    /// Object id of process `p`'s local-epoch register (epoch mode; `0` =
    /// quiescent, `e + 1` = pinned at epoch `e`).
    pub fn local_epoch_obj(&self, p: ProcessId) -> ObjId {
        3 + 2 * self.capacity + p
    }

    /// Object id of process `p`'s hazard register for `lane` (hazard mode;
    /// `0` = clear, `idx + 1` = protecting node `idx`).
    pub fn hazard_obj(&self, p: ProcessId, lane: usize) -> ObjId {
        3 + 2 * self.capacity + self.n + HAZ_LANES * p + lane
    }
}

impl SimAlgorithm for SetSim {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        match self.mode {
            Mode::Unprotected => "HM set sim (unprotected)",
            Mode::Tagged => "HM set sim (tagged)",
            Mode::Hazard => "HM set sim (hazard)",
            Mode::Epoch => "HM set sim (epoch)",
        }
    }

    fn initial_objects(&self) -> Vec<BaseObject> {
        let nil = self.capacity as u64;
        let mut objects = vec![
            BaseObject::cas(nil),                         // head -> nil
            BaseObject::cas((1u64 << self.capacity) - 1), // free set: all nodes
        ];
        for _ in 0..self.capacity {
            objects.push(BaseObject::register(0)); // key
            objects.push(BaseObject::writable_cas(nil)); // next
        }
        objects.push(BaseObject::cas(0)); // global epoch
        for _ in 0..self.n {
            objects.push(BaseObject::register(0)); // local epochs (0 = idle)
        }
        for _ in 0..HAZ_LANES * self.n {
            objects.push(BaseObject::register(0)); // hazard registers
        }
        objects
    }

    fn spawn(&self, pid: ProcessId) -> Box<dyn SimProcess> {
        Box::new(SetProc {
            algo: *self,
            pid,
            state: State::Idle,
            goal: Goal::Contains,
            key: 0,
            my_node: None,
            prev: None,
            prev_raw: 0,
            cur: self.capacity as u64,
            lane: 0,
            pending: None,
            limbo: Vec::new(),
            last_g: 0,
            scan_protected: Vec::new(),
        })
    }

    /// Declared footprint of a fresh call: every set operation starts the
    /// shared Harris–Michael traversal at the head read — except in epoch
    /// mode, where the pin's global-epoch read comes first.
    fn first_step(&self, _pid: ProcessId, call: MethodCall) -> Option<BaseOp> {
        match call {
            MethodCall::Insert(_) | MethodCall::Remove(_) | MethodCall::Contains(_) => {
                Some(if self.mode == Mode::Epoch {
                    BaseOp::Read(self.global_epoch_obj())
                } else {
                    BaseOp::Read(OBJ_HEAD)
                })
            }
            other => panic!("set simulation given {other:?}"),
        }
    }
}

/// What the in-flight method call is trying to accomplish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Goal {
    Insert,
    Remove,
    Contains,
}

/// Where a reclamation tail-sequence returns to once it finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum After {
    /// Restart the traversal from the head.
    Find,
    /// Complete the method call with the stored pending response.
    Respond,
    /// Retry the insert allocation once.
    RetryAlloc,
}

/// Where a method call currently stands.  Traversal registers (`prev`,
/// `prev_raw`, `cur`, the hazard lane) live in the process struct; states
/// carry only what changes per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    // --- epoch pin protocol ---
    PinReadG,
    PinWriteLocal { g: u64 },
    PinCheckG { g: u64 },
    // --- find (the shared Harris–Michael traversal) ---
    FReadHead,
    FProtCur,
    FValHead,
    FReadNext,
    FCheckPrev { next_raw: u64 },
    FUnlink { next_raw: u64 },
    FReadValue { next_raw: u64 },
    FProtNext { next_raw: u64 },
    FValNext { next_raw: u64 },
    // --- insert ---
    AllocReadFree { retried: bool },
    AllocCasFree { retried: bool, mask: u64, idx: u64 },
    InsWriteValue,
    InsReadMyNext,
    InsWriteMyNext { old: u64 },
    InsCasPrev,
    // --- remove ---
    RMark { next_raw: u64 },
    RUnlink { next_raw: u64 },
    // --- reclamation tail-sequences ---
    FreeReadMask { bits: u64, after: After },
    FreeCasMask { bits: u64, mask: u64, after: After },
    HazScan { j: usize, after: After },
    RetireReadG { node: u64, after: After },
    AdvReadG { after: After },
    AdvScanLocal { g: u64, t: usize, after: After },
    AdvCasG { g: u64, after: After },
    // --- completion ---
    ClearHaz { i: usize },
    Unpin,
}

#[derive(Debug, Clone)]
struct SetProc {
    algo: SetSim,
    pid: ProcessId,
    state: State,
    goal: Goal,
    key: Word,
    /// The insert's allocated-but-unpublished node.
    my_node: Option<u64>,
    /// Traversal predecessor: `None` = the head word, `Some(p)` = node `p`'s
    /// next link.
    prev: Option<u64>,
    /// The word observed in the predecessor, designating `cur` unmarked.
    prev_raw: u64,
    /// Current node (`capacity` = nil).
    cur: u64,
    /// Hazard lane protecting `cur`; successors rotate through the other
    /// two, so the overwritten lane is always two hops out of scope.
    lane: usize,
    /// Response awaiting the mode's completion sequence.
    pending: Option<MethodResponse>,
    /// Private limbo: `(node, retire-epoch)` pairs (the epoch stamp is 0 and
    /// unused in hazard mode).
    limbo: Vec<(u64, u64)>,
    /// Most recent global-epoch value observed.
    last_g: u64,
    /// Hazard values collected by the in-progress scan.
    scan_protected: Vec<u64>,
}

impl SetProc {
    // -- word encoding: (tag << 33) | (mark << 32) | index, nil = capacity --

    fn idx_of(&self, raw: u64) -> u64 {
        raw & 0xFFFF_FFFF
    }

    fn is_nil(&self, raw: u64) -> bool {
        self.idx_of(raw) == self.algo.capacity as u64
    }

    fn mark_of(&self, raw: u64) -> bool {
        (raw >> 32) & 1 == 1
    }

    /// The word that replaces `old_raw`: the new index and mark, with the
    /// tag bumped in tagged mode (all other modes keep tag 0 — which is
    /// precisely why their stale CASes can succeed).
    fn encode(&self, old_raw: u64, idx: u64, marked: bool) -> u64 {
        let tag = if self.algo.mode == Mode::Tagged {
            (old_raw >> 33).wrapping_add(1)
        } else {
            0
        };
        (tag << 33) | ((marked as u64) << 32) | idx
    }

    fn value_obj(&self, idx: u64) -> ObjId {
        2 + 2 * idx as usize
    }

    fn next_obj(&self, idx: u64) -> ObjId {
        3 + 2 * idx as usize
    }

    /// The object holding the traversal's predecessor word.
    fn prev_obj(&self) -> ObjId {
        match self.prev {
            None => OBJ_HEAD,
            Some(p) => self.next_obj(p),
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

    // -- flow helpers -------------------------------------------------------

    fn restart_find(&mut self) {
        self.lane = 0;
        self.state = State::FReadHead;
    }

    /// Complete the method call: immediately, or after the mode's epilogue
    /// (hazard-lane clearing, epoch unpin + advance).
    fn finish(&mut self, resp: MethodResponse) -> Option<MethodResponse> {
        self.pending = Some(resp);
        self.complete()
    }

    fn complete(&mut self) -> Option<MethodResponse> {
        match self.algo.mode {
            Mode::Unprotected | Mode::Tagged => {
                self.state = State::Idle;
                self.pending.take()
            }
            Mode::Hazard => {
                self.state = State::ClearHaz { i: 0 };
                None
            }
            Mode::Epoch => {
                self.state = State::Unpin;
                None
            }
        }
    }

    fn dispatch(&mut self, after: After) -> Option<MethodResponse> {
        match after {
            After::Find => {
                self.restart_find();
                None
            }
            After::Respond => self.complete(),
            After::RetryAlloc => {
                self.state = State::AllocReadFree { retried: true };
                None
            }
        }
    }

    /// Hand an unlinked node to the mode's reclamation: immediate free,
    /// hazard limbo + scan, or epoch limbo with a fresh stamp.
    fn retire_node(&mut self, node: u64, after: After) -> Option<MethodResponse> {
        match self.algo.mode {
            Mode::Unprotected | Mode::Tagged => {
                self.state = State::FreeReadMask {
                    bits: 1 << node,
                    after,
                };
                None
            }
            Mode::Hazard => {
                self.limbo.push((node, 0));
                self.begin_haz_reclaim(after)
            }
            Mode::Epoch => {
                self.state = State::RetireReadG { node, after };
                None
            }
        }
    }

    /// First hazard register to scan at or after slot `j`, skipping our own.
    fn next_scan_slot(&self, j: usize) -> usize {
        let mut j = j;
        while j / HAZ_LANES == self.pid {
            j += HAZ_LANES - (j % HAZ_LANES);
        }
        j
    }

    /// Scan every other process's hazard registers, then free whatever limbo
    /// node none of them protects.
    fn begin_haz_reclaim(&mut self, after: After) -> Option<MethodResponse> {
        if self.limbo.is_empty() {
            return self.dispatch(after);
        }
        self.scan_protected.clear();
        let first = self.next_scan_slot(0);
        if first >= HAZ_LANES * self.algo.n {
            // Single process: nothing can protect the limbo.
            return self.finish_haz_reclaim(after);
        }
        self.state = State::HazScan { j: first, after };
        None
    }

    fn finish_haz_reclaim(&mut self, after: After) -> Option<MethodResponse> {
        let bits = self
            .limbo
            .iter()
            .filter(|&&(node, _)| !self.scan_protected.contains(&node))
            .fold(0u64, |bits, &(node, _)| bits | (1u64 << node));
        if bits == 0 {
            return self.dispatch(after);
        }
        self.state = State::FreeReadMask { bits, after };
        None
    }

    /// Free-set bits of every epoch-limbo entry at least two advances old.
    fn eligible_bits(&self) -> u64 {
        self.limbo
            .iter()
            .filter(|&&(_, e)| e + 2 <= self.last_g)
            .fold(0u64, |bits, &(idx, _)| bits | (1u64 << idx))
    }

    fn finish_advance(&mut self, after: After) -> Option<MethodResponse> {
        let bits = self.eligible_bits();
        if bits == 0 {
            return self.dispatch(after);
        }
        self.state = State::FreeReadMask { bits, after };
        None
    }

    /// The traversal reached its key position (or the end of the chain).
    /// `next_raw` is `cur`'s observed link when `found`.
    fn dispatch_goal(&mut self, found: bool, next_raw: u64) -> Option<MethodResponse> {
        match self.goal {
            Goal::Contains => self.finish(MethodResponse::ContainsResult(found)),
            Goal::Insert => {
                if found {
                    match self.my_node.take() {
                        Some(my) => {
                            // Undo the allocation from an earlier attempt.
                            self.pending = Some(MethodResponse::InsertResult(false));
                            self.state = State::FreeReadMask {
                                bits: 1 << my,
                                after: After::Respond,
                            };
                            None
                        }
                        None => self.finish(MethodResponse::InsertResult(false)),
                    }
                } else if self.my_node.is_none() {
                    self.state = State::AllocReadFree { retried: false };
                    None
                } else {
                    self.state = State::InsReadMyNext;
                    None
                }
            }
            Goal::Remove => {
                if found {
                    self.state = State::RMark { next_raw };
                    None
                } else {
                    self.finish(MethodResponse::RemoveResult(false))
                }
            }
        }
    }
}

impl SimProcess for SetProc {
    fn invoke(&mut self, call: MethodCall) -> Option<MethodResponse> {
        assert!(
            self.state == State::Idle,
            "process {} invoked while busy",
            self.pid
        );
        let (goal, key) = match call {
            MethodCall::Insert(key) => (Goal::Insert, key),
            MethodCall::Remove(key) => (Goal::Remove, key),
            MethodCall::Contains(key) => (Goal::Contains, key),
            other => panic!("set simulation given {other:?}"),
        };
        self.goal = goal;
        self.key = key;
        self.lane = 0;
        debug_assert!(self.my_node.is_none(), "stranded insert node");
        self.state = if self.algo.mode == Mode::Epoch {
            State::PinReadG
        } else {
            State::FReadHead
        };
        None
    }

    fn poised(&self) -> BaseOp {
        match self.state {
            State::Idle => panic!("no method call in progress"),
            State::PinReadG | State::PinCheckG { .. } => BaseOp::Read(self.algo.global_epoch_obj()),
            State::PinWriteLocal { g } => BaseOp::Write(self.algo.local_epoch_obj(self.pid), g + 1),
            State::FReadHead => BaseOp::Read(OBJ_HEAD),
            State::FProtCur => {
                BaseOp::Write(self.algo.hazard_obj(self.pid, self.lane), self.cur + 1)
            }
            State::FValHead => BaseOp::Read(OBJ_HEAD),
            State::FReadNext => BaseOp::Read(self.next_obj(self.cur)),
            State::FCheckPrev { .. } => BaseOp::Read(self.prev_obj()),
            State::FUnlink { next_raw } => BaseOp::Cas(
                self.prev_obj(),
                self.prev_raw,
                self.encode(self.prev_raw, self.idx_of(next_raw), false),
            ),
            State::FReadValue { .. } => BaseOp::Read(self.value_obj(self.cur)),
            State::FProtNext { next_raw } => BaseOp::Write(
                self.algo.hazard_obj(self.pid, self.lane),
                self.idx_of(next_raw) + 1,
            ),
            State::FValNext { .. } => BaseOp::Read(self.next_obj(self.cur)),
            State::AllocReadFree { .. } => BaseOp::Read(OBJ_FREE),
            State::AllocCasFree { mask, idx, .. } => {
                BaseOp::Cas(OBJ_FREE, mask, mask & !(1u64 << idx))
            }
            State::InsWriteValue => BaseOp::Write(
                self.value_obj(self.my_node.expect("insert node")),
                self.key as u64,
            ),
            State::InsReadMyNext => BaseOp::Read(self.next_obj(self.my_node.expect("insert node"))),
            State::InsWriteMyNext { old } => BaseOp::Write(
                self.next_obj(self.my_node.expect("insert node")),
                self.encode(old, self.cur, false),
            ),
            State::InsCasPrev => BaseOp::Cas(
                self.prev_obj(),
                self.prev_raw,
                self.encode(self.prev_raw, self.my_node.expect("insert node"), false),
            ),
            State::RMark { next_raw } => BaseOp::Cas(
                self.next_obj(self.cur),
                next_raw,
                self.encode(next_raw, self.idx_of(next_raw), true),
            ),
            State::RUnlink { next_raw } => BaseOp::Cas(
                self.prev_obj(),
                self.prev_raw,
                self.encode(self.prev_raw, self.idx_of(next_raw), false),
            ),
            State::FreeReadMask { .. } => BaseOp::Read(OBJ_FREE),
            State::FreeCasMask { bits, mask, .. } => BaseOp::Cas(OBJ_FREE, mask, mask | bits),
            State::HazScan { j, .. } => {
                BaseOp::Read(self.algo.hazard_obj(j / HAZ_LANES, j % HAZ_LANES))
            }
            State::RetireReadG { .. } | State::AdvReadG { .. } => {
                BaseOp::Read(self.algo.global_epoch_obj())
            }
            State::AdvScanLocal { t, .. } => BaseOp::Read(self.algo.local_epoch_obj(t)),
            State::AdvCasG { g, .. } => BaseOp::Cas(self.algo.global_epoch_obj(), g, g + 1),
            State::ClearHaz { i } => BaseOp::Write(self.algo.hazard_obj(self.pid, i), 0),
            State::Unpin => BaseOp::Write(self.algo.local_epoch_obj(self.pid), 0),
        }
    }

    fn apply(&mut self, result: StepResult) -> Option<MethodResponse> {
        match self.state {
            State::Idle => panic!("no method call in progress"),
            // --- epoch pin ---
            State::PinReadG => {
                let g = Self::expect_value(result);
                self.last_g = g;
                self.state = State::PinWriteLocal { g };
            }
            State::PinWriteLocal { g } => {
                self.state = State::PinCheckG { g };
            }
            State::PinCheckG { g } => {
                let now = Self::expect_value(result);
                if now == g {
                    self.state = State::FReadHead;
                } else {
                    self.last_g = now;
                    self.state = State::PinWriteLocal { g: now };
                }
            }
            // --- find ---
            State::FReadHead => {
                let raw = Self::expect_value(result);
                self.prev = None;
                self.prev_raw = raw;
                self.cur = self.idx_of(raw);
                if self.is_nil(raw) {
                    return self.dispatch_goal(false, 0);
                }
                self.state = if self.algo.mode == Mode::Hazard {
                    State::FProtCur
                } else {
                    State::FReadNext
                };
            }
            State::FProtCur => {
                self.state = State::FValHead;
            }
            State::FValHead => {
                // Publish-then-revalidate: the hazard protects `cur` only if
                // the head still designates it after the publication.
                if Self::expect_value(result) == self.prev_raw {
                    self.state = State::FReadNext;
                } else {
                    self.restart_find();
                }
            }
            State::FReadNext => {
                let next_raw = Self::expect_value(result);
                self.state = State::FCheckPrev { next_raw };
            }
            State::FCheckPrev { next_raw } => {
                // Michael's `*prev == cur` re-validation: without it a CAS
                // landing between our two reads hands us the successor of an
                // already-unlinked node.
                if Self::expect_value(result) != self.prev_raw {
                    self.restart_find();
                    return None;
                }
                self.state = if self.mark_of(next_raw) {
                    State::FUnlink { next_raw }
                } else {
                    State::FReadValue { next_raw }
                };
            }
            State::FUnlink { .. } => {
                if Self::expect_cas(result) {
                    let node = self.cur;
                    return self.retire_node(node, After::Find);
                }
                self.restart_find();
            }
            State::FReadValue { next_raw } => {
                let v = Self::expect_value(result) as Word;
                if v >= self.key {
                    return self.dispatch_goal(v == self.key, next_raw);
                }
                let next = self.idx_of(next_raw);
                if next == self.algo.capacity as u64 {
                    // End of chain: the key belongs after `cur`.
                    self.prev = Some(self.cur);
                    self.prev_raw = next_raw;
                    self.cur = next;
                    return self.dispatch_goal(false, 0);
                }
                if self.algo.mode == Mode::Hazard {
                    self.lane = (self.lane + 1) % HAZ_LANES;
                    self.state = State::FProtNext { next_raw };
                } else {
                    self.prev = Some(self.cur);
                    self.prev_raw = next_raw;
                    self.cur = next;
                    self.state = State::FReadNext;
                }
            }
            State::FProtNext { next_raw } => {
                self.state = State::FValNext { next_raw };
            }
            State::FValNext { next_raw } => {
                // Hand-over-hand: the successor's hazard is published; if the
                // still-protected `cur`'s link still designates it, the
                // protection took hold before any retirement scan could miss
                // it, and we may advance.
                if Self::expect_value(result) == next_raw {
                    self.prev = Some(self.cur);
                    self.prev_raw = next_raw;
                    self.cur = self.idx_of(next_raw);
                    self.state = State::FReadNext;
                } else {
                    self.restart_find();
                }
            }
            // --- insert ---
            State::AllocReadFree { retried } => {
                let mask = Self::expect_value(result);
                if mask == 0 {
                    if !retried && !self.limbo.is_empty() {
                        // Arena exhausted while we hold limbo nodes: run the
                        // mode's reclamation, then retry the allocation once
                        // (the hardware impl's reclaim-pressure path).
                        return match self.algo.mode {
                            Mode::Hazard => self.begin_haz_reclaim(After::RetryAlloc),
                            Mode::Epoch => {
                                self.state = State::AdvReadG {
                                    after: After::RetryAlloc,
                                };
                                None
                            }
                            _ => unreachable!("immediate-free modes keep no limbo"),
                        };
                    }
                    return self.finish(MethodResponse::InsertResult(false));
                }
                let idx = mask.trailing_zeros() as u64;
                self.state = State::AllocCasFree { retried, mask, idx };
            }
            State::AllocCasFree { retried, idx, .. } => {
                if Self::expect_cas(result) {
                    self.my_node = Some(idx);
                    self.state = State::InsWriteValue;
                } else {
                    self.state = State::AllocReadFree { retried };
                }
            }
            State::InsWriteValue => {
                self.state = State::InsReadMyNext;
            }
            State::InsReadMyNext => {
                let old = Self::expect_value(result);
                self.state = State::InsWriteMyNext { old };
            }
            State::InsWriteMyNext { .. } => {
                self.state = State::InsCasPrev;
            }
            State::InsCasPrev => {
                if Self::expect_cas(result) {
                    self.my_node = None;
                    return self.finish(MethodResponse::InsertResult(true));
                }
                self.restart_find();
            }
            // --- remove ---
            State::RMark { next_raw } => {
                self.state = if Self::expect_cas(result) {
                    // The key is logically gone from this instant.
                    State::RUnlink { next_raw }
                } else {
                    self.restart_find();
                    return None;
                };
            }
            State::RUnlink { .. } => {
                self.pending = Some(MethodResponse::RemoveResult(true));
                if Self::expect_cas(result) {
                    let node = self.cur;
                    return self.retire_node(node, After::Respond);
                }
                // Some helper's traversal unlinks (and retires) it instead.
                return self.complete();
            }
            // --- reclamation tail-sequences ---
            State::FreeReadMask { bits, after } => {
                let mask = Self::expect_value(result);
                self.state = State::FreeCasMask { bits, mask, after };
            }
            State::FreeCasMask { bits, after, .. } => {
                if Self::expect_cas(result) {
                    self.limbo.retain(|&(idx, _)| (bits >> idx) & 1 == 0);
                    return self.dispatch(after);
                }
                self.state = State::FreeReadMask { bits, after };
            }
            State::HazScan { j, after } => {
                let val = Self::expect_value(result);
                if val > 0 {
                    self.scan_protected.push(val - 1);
                }
                let next = self.next_scan_slot(j + 1);
                if next >= HAZ_LANES * self.algo.n {
                    return self.finish_haz_reclaim(after);
                }
                self.state = State::HazScan { j: next, after };
            }
            State::RetireReadG { node, after } => {
                let g = Self::expect_value(result);
                self.last_g = g;
                // Stamp with the post-unlink epoch (a pin-time stamp would be
                // one advance too old when the unlink raced an advance).
                self.limbo.push((node, g));
                return self.dispatch(after);
            }
            State::AdvReadG { after } => {
                let g = Self::expect_value(result);
                self.last_g = g;
                self.state = State::AdvScanLocal { g, t: 0, after };
            }
            State::AdvScanLocal { g, t, after } => {
                let local = Self::expect_value(result);
                if local != 0 && local != g + 1 {
                    // A pinned process has not observed epoch g yet: the
                    // advance must wait, but already-eligible limbo can go.
                    return self.finish_advance(after);
                }
                if t + 1 == self.algo.n {
                    self.state = State::AdvCasG { g, after };
                } else {
                    self.state = State::AdvScanLocal { g, t: t + 1, after };
                }
            }
            State::AdvCasG { g, after } => {
                if Self::expect_cas(result) {
                    self.last_g = g + 1;
                }
                // A failed CAS means someone advanced for us — equally good.
                return self.finish_advance(after);
            }
            // --- completion ---
            State::ClearHaz { i } => {
                if i + 1 < HAZ_LANES {
                    self.state = State::ClearHaz { i: i + 1 };
                } else {
                    self.state = State::Idle;
                    return self.pending.take();
                }
            }
            State::Unpin => {
                if self.limbo.is_empty() {
                    self.state = State::Idle;
                    return self.pending.take();
                }
                self.state = State::AdvReadG {
                    after: After::Respond,
                };
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

    fn run_sequential(algo: &SetSim) {
        let mut sim = Simulation::new(algo);
        sim.enqueue(0, MethodCall::Insert(5));
        sim.enqueue(0, MethodCall::Insert(3));
        sim.enqueue(0, MethodCall::Insert(5));
        sim.enqueue(0, MethodCall::Contains(3));
        sim.enqueue(0, MethodCall::Remove(5));
        sim.enqueue(0, MethodCall::Remove(5));
        sim.enqueue(0, MethodCall::Contains(5));
        sim.enqueue(0, MethodCall::Insert(7));
        sim.enqueue(0, MethodCall::Remove(3));
        sim.enqueue(0, MethodCall::Remove(7));
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
                "Insert(5) -> true",
                "Insert(3) -> true",
                "Insert(5) -> false",
                "Contains(3) -> true",
                "Remove(5) -> true",
                "Remove(5) -> false",
                "Contains(5) -> false",
                "Insert(7) -> true",
                "Remove(3) -> true",
                "Remove(7) -> true",
            ],
            "{}",
            algo.name()
        );
        assert!(check_history(sim.history(), Spec::Set).is_linearizable());
    }

    #[test]
    fn sequential_set_behaviour_all_variants() {
        run_sequential(&SetSim::unprotected(2, 4));
        run_sequential(&SetSim::tagged(2, 4));
        run_sequential(&SetSim::hazard(2, 4));
        run_sequential(&SetSim::epoch(2, 4));
    }

    #[test]
    fn arena_exhaustion_fails_the_insert_cleanly() {
        let algo = SetSim::unprotected(1, 2);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::Insert(1));
        sim.enqueue(0, MethodCall::Insert(2));
        sim.enqueue(0, MethodCall::Insert(3));
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
                "Insert(1) -> true",
                "Insert(2) -> true",
                "Insert(3) -> false"
            ]
        );
        assert!(check_history(sim.history(), Spec::Set).is_linearizable());
    }

    #[test]
    fn removed_nodes_recirculate_through_every_reclaimer() {
        // Capacity 2 with insert/remove churn: the arena runs out unless
        // unlinked nodes actually return to the free set (via the hazard
        // scan / the epoch advances / the immediate free).
        for algo in [
            SetSim::unprotected(1, 2),
            SetSim::tagged(1, 2),
            SetSim::hazard(1, 2),
            SetSim::epoch(1, 2),
        ] {
            let mut sim = Simulation::new(&algo);
            for i in 0..8u32 {
                sim.enqueue(0, MethodCall::Insert(i % 3 + 1));
                sim.enqueue(0, MethodCall::Remove(i % 3 + 1));
            }
            sim.run_until_quiescent();
            for (i, op) in sim.history().ops().iter().enumerate() {
                assert_eq!(
                    op.kind,
                    if i % 2 == 0 {
                        aba_spec::OpKind::Insert {
                            key: (i as u32 / 2) % 3 + 1,
                            ok: true,
                        }
                    } else {
                        aba_spec::OpKind::Remove {
                            key: (i as u32 / 2) % 3 + 1,
                            ok: true,
                        }
                    },
                    "{} op {i}",
                    algo.name()
                );
            }
            assert!(check_history(sim.history(), Spec::Set).is_linearizable());
        }
    }

    #[test]
    fn interleaved_runs_stay_well_formed() {
        for algo in [
            SetSim::tagged(3, 6),
            SetSim::hazard(3, 6),
            SetSim::epoch(3, 6),
        ] {
            let mut sim = Simulation::new(&algo);
            for i in 0..4u32 {
                sim.enqueue(0, MethodCall::Insert(i + 1));
                sim.enqueue(1, MethodCall::Remove(i + 1));
                sim.enqueue(2, MethodCall::Contains(i + 1));
            }
            sim.run_schedule(&crate::schedule::random(3, 800, 11));
            sim.run_until_quiescent();
            assert!(sim.history().is_well_formed());
            assert_eq!(sim.history().len(), 12, "{}", algo.name());
            assert!(
                check_history(sim.history(), Spec::Set).is_linearizable(),
                "{}",
                algo.name()
            );
        }
    }

    #[test]
    fn hazard_registers_and_local_epochs_clear_at_quiescence() {
        let algo = SetSim::hazard(2, 4);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::Insert(5));
        sim.enqueue(1, MethodCall::Remove(5));
        sim.run_until_quiescent();
        for p in 0..2 {
            for lane in 0..HAZ_LANES {
                assert_eq!(
                    sim.registers()[algo.hazard_obj(p, lane)],
                    0,
                    "process {p} lane {lane} left a hazard published"
                );
            }
        }

        let algo = SetSim::epoch(2, 4);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::Insert(5));
        sim.enqueue(1, MethodCall::Remove(5));
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
