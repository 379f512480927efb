//! Step-level Harris–Michael ordered-set models for the simulator.
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
//! One model holds the set's own steps (traverse, splice, mark, unlink);
//! everything a protection scheme adds is a function of the shared `protect`
//! module, composed here in four modes:
//!
//! * [`SetSim::unprotected`] — bare `(mark, index)` words, immediate free;
//!   a stale splice or unlink CAS succeeds against a recycled node (lost
//!   keys, resurrected keys, wedged chains).
//! * [`SetSim::tagged`] — every head/link word is a counted word bumped by
//!   each CAS (§1 tagging); stale CASes fail.
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
//! `3 + 2k` (next link, `(index, mark)` in the scheme's own hardware codec,
//! `aba_reclaim::Guard::Links`, counted under tagging); then the protection
//! registers — one global-epoch object, `n` local-epoch registers and `3n`
//! hazard registers (allocated in every mode so object ids are uniform;
//! unused modes never touch them).

use aba_reclaim::{Scheme, NIL};
use aba_spec::{ProcessId, Word};

use super::protect::{Layout, Links, Protection, HAZ_LANES};
use super::replay::{Mem, Model, Replay, Run};
use crate::algorithm::{MethodCall, MethodResponse, SimAlgorithm, SimProcess};
use crate::object::{BaseObject, ObjId};

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
            Scheme::LlSc => unreachable!("no LL/SC set model"),
        }
    }

    fn initial_objects(&self) -> Vec<BaseObject> {
        let nil = Links::of(self.scheme).fresh(NIL);
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
        Box::new(Replay::new(SetProc {
            prot: Protection::new(self.scheme, self.layout(), pid),
        }))
    }
}

/// Where a traversal stopped: at the first node whose key is not below the
/// one sought, or at the end of the chain.
#[derive(Debug, Clone, Copy)]
struct Position {
    /// The object holding the predecessor word (the head, or a next link).
    prev: ObjId,
    /// The word observed in the predecessor, designating `cur` unmarked.
    prev_raw: u64,
    /// Current node ([`NIL`] at the end of the chain).
    cur: u64,
    /// `cur`'s observed link (meaningful when `found`).
    next_raw: u64,
    /// Whether `cur` holds exactly the key sought.
    found: bool,
}

/// How one traversal from the head ended.
#[derive(Debug, Clone, Copy)]
enum Traversal {
    At(Position),
    /// It unlinked this marked node on the way, which the caller must retire
    /// before traversing again.
    Unlinked(u64),
}

#[derive(Debug, Clone)]
struct SetProc {
    prot: Protection,
}

impl Model for SetProc {
    fn call(&mut self, call: MethodCall, m: &mut Mem<'_>) -> Run<MethodResponse> {
        // Every operation starts by traversing, so it pins first.
        self.prot.pin(m)?;
        let response = match call {
            MethodCall::Insert(key) => MethodResponse::InsertResult(self.insert(key, m)?),
            MethodCall::Remove(key) => MethodResponse::RemoveResult(self.remove(key, m)?),
            MethodCall::Contains(key) => MethodResponse::ContainsResult(self.find(key, m)?.found),
            other => panic!("set simulation given {other:?}"),
        };
        // The mode's epilogue: clear the hazard lanes, or unpin and make at
        // most one advance attempt.  Epoch reclamation is driven from the
        // quiescent side of the unpin (hazard limbo was scanned at the
        // retire); it responds whatever the attempt freed, because waiting
        // here for the limbo to drain would wait on a parked peer's pin.
        self.prot.quiesce(m)?;
        if self.prot.scheme == Scheme::Epoch && self.prot.holds_limbo() {
            reclaim(&mut self.prot, m)?;
        }
        Ok(response)
    }
}

/// One reclamation attempt: a hazard scan or an epoch advance, however it
/// ends, then the release of what it made reclaimable.  Only deferred-free
/// schemes hold limbo to reclaim.
fn reclaim(prot: &mut Protection, m: &mut Mem<'_>) -> Run<()> {
    match prot.scheme {
        Scheme::Hazard => prot.scan(m)?,
        Scheme::Epoch => drop(prot.advance(m)?),
        Scheme::Unprotected | Scheme::Tagged | Scheme::LlSc => {
            unreachable!("immediate-free schemes keep no limbo")
        }
    }
    prot.release(prot.reclaimable(), m)
}

impl SetProc {
    fn idx_of(&self, raw: u64) -> u64 {
        self.prot.links.index(raw)
    }

    /// The word that replaces `old_raw`: the new index and mark, with the
    /// counter bumped in tagged mode.
    fn encode(&self, old_raw: u64, idx: u64, marked: bool) -> u64 {
        self.prot.links.encode(old_raw, idx, marked)
    }

    fn value_obj(&self, idx: u64) -> ObjId {
        2 + 2 * idx as usize
    }

    fn next_obj(&self, idx: u64) -> ObjId {
        3 + 2 * idx as usize
    }

    /// One pass of the shared Harris–Michael traversal, from the head to
    /// `key`'s position; `None` when a snapshot went stale under it.
    fn traverse(&self, key: Word, m: &mut Mem<'_>) -> Run<Option<Traversal>> {
        let mut prev = OBJ_HEAD;
        let mut prev_raw = m.read(OBJ_HEAD)?;
        // Hazard lane protecting `cur`; successors rotate through the other
        // two, so the overwritten lane is always two hops out of scope.
        let mut lane = 0;
        // retry-bound: not a retry — every iteration hops one node further
        // and the CAS ends the traversal either way.  Only a chain the
        // unprotected variant has cycled never ends: the wedge the explorers
        // cut and report.
        loop {
            let cur = self.idx_of(prev_raw);
            let mut at = Position {
                prev,
                prev_raw,
                cur,
                next_raw: 0,
                found: false,
            };
            if cur == NIL {
                // End of chain: the key belongs after the last node.
                return Ok(Some(Traversal::At(at)));
            }
            // Hand-over-hand: `cur` takes its lane while its predecessor
            // stays protected in its own; the hop is trusted only if `prev`
            // still designates it after the publication.
            if !self.prot.protect(lane, prev, prev_raw, m)? {
                return Ok(None);
            }
            at.next_raw = m.read(self.next_obj(cur))?;
            // Michael's `*prev == cur` re-validation: without it a CAS
            // landing between our two reads hands us the successor of an
            // already-unlinked node.
            if m.read(prev)? != prev_raw {
                return Ok(None);
            }
            if self.prot.links.marked(at.next_raw) {
                let past = self.encode(prev_raw, self.idx_of(at.next_raw), false);
                let unlinked = m.cas(prev, prev_raw, past)?;
                return Ok(unlinked.then_some(Traversal::Unlinked(cur)));
            }
            let v = m.read(self.value_obj(cur))? as Word;
            if v >= key {
                at.found = v == key;
                return Ok(Some(Traversal::At(at)));
            }
            prev = self.next_obj(cur);
            prev_raw = at.next_raw;
            lane = (lane + 1) % HAZ_LANES;
        }
    }

    /// Traverse until a pass reaches `key`'s position, retiring the marked
    /// nodes the passes unlink on the way.
    fn find(&mut self, key: Word, m: &mut Mem<'_>) -> Run<Position> {
        loop {
            // retry-bound: a pass fails only when a CAS landed on the words
            // it read (or its own unlink CAS lost to one) — system-wide
            // progress.
            match m.retry(|m| self.traverse(key, m))? {
                Traversal::At(position) => return Ok(position),
                Traversal::Unlinked(node) => self.prot.retire(node, m)?,
            }
        }
    }

    fn insert(&mut self, key: Word, m: &mut Mem<'_>) -> Run<bool> {
        // The allocated-but-unpublished node, kept across failed splices.
        let mut mine = None;
        // retry-bound: the splice CAS fails only when another CAS landed on
        // the predecessor word — system-wide progress.
        loop {
            let at = self.find(key, m)?;
            if at.found {
                // Undo the allocation of an earlier attempt, if any.
                self.prot
                    .release(mine.map_or(0, |node: u64| 1 << node), m)?;
                return Ok(false);
            }
            let node = match mine {
                Some(node) => node,
                None => {
                    let Some(node) = self.prot.alloc(reclaim, m)? else {
                        return Ok(false);
                    };
                    m.write(self.value_obj(node), key as u64)?;
                    *mine.insert(node)
                }
            };
            // Read under every scheme, as the tagged mode must: one step more
            // than the bare-codec hardware takes, kept because every E11 pin
            // of the `set/*` rows is a schedule over it.
            let old = m.read(self.next_obj(node))?;
            m.write(self.next_obj(node), self.encode(old, at.cur, false))?;
            if m.cas(at.prev, at.prev_raw, self.encode(at.prev_raw, node, false))? {
                return Ok(true);
            }
        }
    }

    fn remove(&mut self, key: Word, m: &mut Mem<'_>) -> Run<bool> {
        // retry-bound: the mark CAS fails only when another CAS landed on
        // the node's link — system-wide progress.
        loop {
            let at = self.find(key, m)?;
            if !at.found {
                return Ok(false);
            }
            let next = self.idx_of(at.next_raw);
            let marked = self.encode(at.next_raw, next, true);
            if !m.cas(self.next_obj(at.cur), at.next_raw, marked)? {
                continue;
            }
            // The key is logically gone from this instant.  If the unlink
            // loses, some helper's traversal unlinks (and retires) the node
            // instead.
            if m.cas(at.prev, at.prev_raw, self.encode(at.prev_raw, next, false))? {
                self.prot.retire(at.cur, m)?;
            }
            return Ok(true);
        }
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
