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
//! One state machine holds the set's own steps (traverse, splice, mark,
//! unlink); everything a protection scheme adds is a sub-sequence of the
//! shared `protect` sub-machine, composed here in four modes:
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
//! * [`SetSim::epoch`] — pin before traversing, stamp retirees with a
//!   post-unlink epoch read, free after two advances.  Unlike the queue the
//!   set pins first (every operation starts by traversing) and never uses
//!   the quarantine.
//!
//! Memory layout for a capacity-`C`, `n`-process set: object 0 is `head`,
//! object 1 is the free set, node `k` owns objects `2 + 2k` (key) and
//! `3 + 2k` (next link, `(tag, mark, index)` packed); then the protection
//! registers — one global-epoch object, `n` local-epoch registers and `3n`
//! hazard registers (allocated in every mode so object ids are uniform;
//! unused modes never touch them).

use aba_spec::{ProcessId, Word};

use super::protect::{Layout, LinkCodec, Outcome, Protection, Scheme, Step, Sub, HAZ_LANES};
use crate::algorithm::{MethodCall, MethodResponse, SimAlgorithm, SimProcess};
use crate::object::{BaseObject, BaseOp, ObjId, StepResult};

const OBJ_HEAD: ObjId = 0;
const OBJ_FREE: ObjId = 1;

/// A simulated Harris–Michael set: `n` processes over a capacity-`capacity`
/// node arena.
#[derive(Debug, Clone, Copy)]
pub struct SetSim {
    n: usize,
    capacity: usize,
    scheme: Scheme,
}

impl SetSim {
    fn new(n: usize, capacity: usize, scheme: Scheme) -> Self {
        assert!(n > 0, "need at least one process");
        assert!((1..=63).contains(&capacity), "capacity must be in 1..=63");
        SetSim {
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

    /// The tagged (counted-word) variant.
    ///
    /// # Panics
    ///
    /// Panics as for [`SetSim::unprotected`].
    pub fn tagged(n: usize, capacity: usize) -> Self {
        Self::new(n, capacity, Scheme::Tagged)
    }

    /// The hazard-pointer variant (three hand-over-hand lanes per process).
    ///
    /// # Panics
    ///
    /// Panics as for [`SetSim::unprotected`].
    pub fn hazard(n: usize, capacity: usize) -> Self {
        Self::new(n, capacity, Scheme::Hazard)
    }

    /// The epoch-reclaimed variant.
    ///
    /// # Panics
    ///
    /// Panics as for [`SetSim::unprotected`].
    pub fn epoch(n: usize, capacity: usize) -> Self {
        Self::new(n, capacity, Scheme::Epoch)
    }

    /// Arena capacity (number of nodes).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn layout(&self) -> Layout {
        Layout {
            free: OBJ_FREE,
            base: 2 + 2 * self.capacity,
            n: self.n,
            lanes: HAZ_LANES,
            stamps: 0,
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

    /// Object id of process `p`'s hazard register for `lane` (hazard mode;
    /// `0` = clear, `idx + 1` = protecting node `idx`).
    pub fn hazard_obj(&self, p: ProcessId, lane: usize) -> ObjId {
        self.layout().hazard(p, lane)
    }
}

impl SimAlgorithm for SetSim {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        match self.scheme {
            Scheme::Unprotected => "HM set sim (unprotected)",
            Scheme::Tagged => "HM set sim (tagged)",
            Scheme::Hazard => "HM set sim (hazard)",
            Scheme::Epoch => "HM set sim (epoch)",
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
        objects.extend(self.layout().registers());
        objects
    }

    fn spawn(&self, pid: ProcessId) -> Box<dyn SimProcess> {
        Box::new(SetProc {
            pid,
            capacity: self.capacity as u64,
            links: self.scheme.links(),
            prot: Protection::new(self.scheme, self.layout(), pid),
            state: State::Idle,
            goal: Goal::Contains,
            key: 0,
            my_node: None,
            prev: None,
            prev_raw: 0,
            cur: self.capacity as u64,
            lane: 0,
        })
    }

    /// Declared footprint of a fresh call: every set operation starts the
    /// shared Harris–Michael traversal at the head read — except in epoch
    /// mode, where the pin's global-epoch read comes first.
    fn first_step(&self, _pid: ProcessId, call: MethodCall) -> Option<BaseOp> {
        match call {
            MethodCall::Insert(_) | MethodCall::Remove(_) | MethodCall::Contains(_) => {
                Some(if self.scheme == Scheme::Epoch {
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

/// Where a finished protection sub-sequence returns to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum After {
    /// (Re)start the traversal from the head: after the pin, and after the
    /// `retire` of a marked node the traversal helped unlink.
    Find,
    /// `protect` of the new `cur` → read its link.
    Protected,
    /// `admit_alloc` → initialise the insert's node.
    Alloc,
    /// Reclamation under allocation pressure → retry the allocation once.
    RetryAlloc,
    /// Complete the method call with this response.
    Respond(MethodResponse),
    /// The completion's `quiesce` → one reclamation attempt if limbo is held.
    Quiesced(MethodResponse),
    /// The completion's reclamation attempt → respond.
    Reclaimed(MethodResponse),
}

/// Where a method call currently stands.  Traversal registers (`prev`,
/// `prev_raw`, `cur`, the hazard lane) live in the process struct; states
/// carry only what changes per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    // Inside a protection sub-sequence; `After` is where it returns to.
    Protect(Sub, After),
    // --- find (the shared Harris–Michael traversal) ---
    FReadHead,
    FReadNext,
    FCheckPrev { next_raw: u64 },
    FUnlink { next_raw: u64 },
    FReadValue { next_raw: u64 },
    // --- insert ---
    InsWriteValue,
    InsReadMyNext,
    InsWriteMyNext { old: u64 },
    InsCasPrev,
    // --- remove ---
    RMark { next_raw: u64 },
    RUnlink { next_raw: u64 },
}

#[derive(Debug, Clone)]
struct SetProc {
    pid: ProcessId,
    capacity: u64,
    links: LinkCodec,
    prot: Protection,
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
}

impl SetProc {
    fn idx_of(&self, raw: u64) -> u64 {
        self.links.index(raw)
    }

    fn is_nil(&self, raw: u64) -> bool {
        self.idx_of(raw) == self.capacity
    }

    /// The word that replaces `old_raw`: the new index and mark, with the
    /// tag bumped in tagged mode.
    fn encode(&self, old_raw: u64, idx: u64, marked: bool) -> u64 {
        self.links.encode(old_raw, idx, marked)
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

    // -- flow helpers -------------------------------------------------------

    fn restart_find(&mut self) {
        self.lane = 0;
        self.state = State::FReadHead;
    }

    /// Complete the method call: immediately, or after the mode's epilogue
    /// (hazard-lane clearing; epoch unpin + at most one advance attempt).
    fn complete(&mut self, response: MethodResponse) -> Option<MethodResponse> {
        self.run(self.prot.quiesce(), After::Quiesced(response))
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

    /// The set's composition of the protection sub-sequences.
    fn resume(&mut self, after: After, outcome: Outcome) -> Option<MethodResponse> {
        match (after, outcome) {
            // The snapshot went stale under the publication.
            (_, Outcome::Validated(false)) => self.restart_find(),
            (After::Protected, _) => self.state = State::FReadNext,
            (After::Alloc, Outcome::Allocated(idx)) => {
                self.my_node = Some(idx);
                self.state = State::InsWriteValue;
            }
            (After::Alloc, Outcome::AllocPressure) => {
                let step = self.prot.reclaim_pressure();
                return self.run(step, After::RetryAlloc);
            }
            (After::Alloc, _) => return self.complete(MethodResponse::InsertResult(false)),
            // A scan or an advance attempt is over, however it ended: free
            // what it made reclaimable, then carry on.
            (_, Outcome::Scanned | Outcome::Advanced | Outcome::Blocked | Outcome::Raced) => {
                return self.run(self.prot.release(self.prot.reclaimable()), after);
            }
            (After::Find, _) => self.restart_find(),
            (After::RetryAlloc, _) => return self.run(self.prot.admit_alloc(true), After::Alloc),
            (After::Respond(response), _) => return self.complete(response),
            // Epoch reclamation is driven from the quiescent side of the
            // unpin (hazard limbo was scanned at the retire).  One attempt,
            // then respond whatever it freed: waiting here for the limbo to
            // drain would wait on a parked peer's pin.
            (After::Quiesced(response), _)
                if self.prot.scheme == Scheme::Epoch && self.prot.holds_limbo() =>
            {
                let step = self.prot.reclaim_pressure();
                return self.run(step, After::Reclaimed(response));
            }
            (After::Quiesced(response) | After::Reclaimed(response), _) => {
                self.state = State::Idle;
                return Some(response);
            }
        }
        None
    }

    /// The traversal reached its key position (or the end of the chain).
    /// `next_raw` is `cur`'s observed link when `found`.
    fn dispatch_goal(&mut self, found: bool, next_raw: u64) -> Option<MethodResponse> {
        match self.goal {
            Goal::Contains => self.complete(MethodResponse::ContainsResult(found)),
            Goal::Insert => {
                if found {
                    // Undo the allocation of an earlier attempt, if any.
                    let bits = self.my_node.take().map_or(0, |my| 1 << my);
                    let present = MethodResponse::InsertResult(false);
                    self.run(self.prot.release(bits), After::Respond(present))
                } else if self.my_node.is_none() {
                    self.run(self.prot.admit_alloc(false), After::Alloc)
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
                    self.complete(MethodResponse::RemoveResult(false))
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
        debug_assert!(self.my_node.is_none(), "stranded insert node");
        self.run(self.prot.pin(), After::Find)
    }

    fn poised(&self) -> BaseOp {
        match self.state {
            State::Idle => panic!("no method call in progress"),
            State::Protect(sub, _) => self.prot.poised(sub),
            State::FReadHead => BaseOp::Read(OBJ_HEAD),
            State::FReadNext => BaseOp::Read(self.next_obj(self.cur)),
            State::FCheckPrev { .. } => BaseOp::Read(self.prev_obj()),
            State::FUnlink { next_raw } | State::RUnlink { next_raw } => BaseOp::Cas(
                self.prev_obj(),
                self.prev_raw,
                self.encode(self.prev_raw, self.idx_of(next_raw), false),
            ),
            State::FReadValue { .. } => BaseOp::Read(self.value_obj(self.cur)),
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
        }
    }

    fn apply(&mut self, result: StepResult) -> Option<MethodResponse> {
        match self.state {
            State::Idle => panic!("no method call in progress"),
            State::Protect(sub, after) => {
                let step = self.prot.apply(sub, result);
                return self.run(step, after);
            }
            // --- find ---
            State::FReadHead => {
                let raw = result.value();
                self.prev = None;
                self.prev_raw = raw;
                self.cur = self.idx_of(raw);
                if self.is_nil(raw) {
                    return self.dispatch_goal(false, 0);
                }
                return self.run(
                    self.prot.protect(self.lane, OBJ_HEAD, raw),
                    After::Protected,
                );
            }
            State::FReadNext => {
                let next_raw = result.value();
                self.state = State::FCheckPrev { next_raw };
            }
            State::FCheckPrev { next_raw } => {
                // Michael's `*prev == cur` re-validation: without it a CAS
                // landing between our two reads hands us the successor of an
                // already-unlinked node.
                if result.value() != self.prev_raw {
                    self.restart_find();
                    return None;
                }
                self.state = if self.links.marked(next_raw) {
                    State::FUnlink { next_raw }
                } else {
                    State::FReadValue { next_raw }
                };
            }
            State::FUnlink { .. } => {
                if result.cas_succeeded() {
                    let step = self.prot.retire(self.cur);
                    return self.run(step, After::Find);
                }
                self.restart_find();
            }
            State::FReadValue { next_raw } => {
                let v = result.value() as Word;
                if v >= self.key {
                    return self.dispatch_goal(v == self.key, next_raw);
                }
                let link = self.next_obj(self.cur);
                self.prev = Some(self.cur);
                self.prev_raw = next_raw;
                self.cur = self.idx_of(next_raw);
                if self.cur == self.capacity {
                    // End of chain: the key belongs after the last node.
                    return self.dispatch_goal(false, 0);
                }
                // Hand-over-hand: the successor takes the next lane while its
                // predecessor stays protected in its own; the hop is trusted
                // only if `link` still designates it after the publication
                // (a stale one restarts from the head, discarding the hop).
                self.lane = (self.lane + 1) % HAZ_LANES;
                return self.run(
                    self.prot.protect(self.lane, link, next_raw),
                    After::Protected,
                );
            }
            // --- insert ---
            State::InsWriteValue => {
                self.state = State::InsReadMyNext;
            }
            State::InsReadMyNext => {
                let old = result.value();
                self.state = State::InsWriteMyNext { old };
            }
            State::InsWriteMyNext { .. } => {
                self.state = State::InsCasPrev;
            }
            State::InsCasPrev => {
                if result.cas_succeeded() {
                    self.my_node = None;
                    return self.complete(MethodResponse::InsertResult(true));
                }
                self.restart_find();
            }
            // --- remove ---
            State::RMark { next_raw } => {
                if result.cas_succeeded() {
                    // The key is logically gone from this instant.
                    self.state = State::RUnlink { next_raw };
                } else {
                    self.restart_find();
                }
            }
            State::RUnlink { .. } => {
                let removed = MethodResponse::RemoveResult(true);
                if result.cas_succeeded() {
                    let step = self.prot.retire(self.cur);
                    return self.run(step, After::Respond(removed));
                }
                // Some helper's traversal unlinks (and retires) it instead.
                return self.complete(removed);
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

    /// Steps process 0 takes to complete its next call, alone (`None` if it
    /// has not responded within 10 000).
    fn solo_steps(sim: &mut Simulation) -> Option<u64> {
        use crate::executor::StepOutcome;
        (0..10_000)
            .any(|_| {
                matches!(
                    sim.step(0),
                    StepOutcome::Stepped {
                        completed: true,
                        ..
                    }
                )
            })
            .then(|| sim.last_op_steps(0))
    }

    /// Own steps of an epoch `Remove` that finds its key first in the chain:
    /// pin (3), traverse to the key (4), mark and unlink (2), stamp the
    /// retiree (1), unpin (1), then exactly one reclamation attempt — read
    /// g, scan both locals, CAS g (4).  The retiree is at most one advance
    /// old, so nothing is freed and the call responds, as the queue model's
    /// dequeue and the hardware's `quiesce` do, with the node left in limbo
    /// for a later operation's attempt.
    const EPOCH_REMOVE_STEPS: u64 = 15;

    #[test]
    fn a_solo_epoch_remove_makes_one_reclamation_attempt() {
        let mut sim = Simulation::new(&SetSim::epoch(2, 4));
        sim.enqueue(0, MethodCall::Insert(5));
        sim.enqueue(0, MethodCall::Remove(5));
        assert!(solo_steps(&mut sim).is_some());
        assert_eq!(solo_steps(&mut sim), Some(EPOCH_REMOVE_STEPS));
    }

    #[test]
    fn an_epoch_remove_responds_while_its_peer_is_parked_pinned() {
        // Lock-freedom: a peer parked right after its pin (read g, publish,
        // re-check) blocks every later advance; it must not block the
        // remover's response.
        let algo = SetSim::epoch(2, 4);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::Insert(5));
        assert!(solo_steps(&mut sim).is_some());
        sim.enqueue(1, MethodCall::Contains(5));
        for _ in 0..3 {
            let _ = sim.step(1);
        }
        assert_eq!(sim.registers()[algo.local_epoch_obj(1)], 1, "peer pinned");
        sim.enqueue(0, MethodCall::Remove(5));
        assert_eq!(solo_steps(&mut sim), Some(EPOCH_REMOVE_STEPS));
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
