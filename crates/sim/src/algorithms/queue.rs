//! Step-level Michael–Scott queue models for the simulator.
//!
//! The hardware MS queues in `aba-lockfree` exhibit their ABA only when a
//! preemptive scheduler interleaves unluckily; here the *schedule is the
//! input*, so a small random search can reproducibly produce a concrete
//! non-linearizable execution of the unprotected variant — the queue
//! counterpart of `search_violation`'s register witnesses.
//!
//! One model holds the queue's own steps (snapshot, link, swing, unlink);
//! what a protection scheme adds is a function of the shared `protect`
//! module, composed here in three modes:
//!
//! * [`QueueSim::unprotected`] — head/tail/next are `aba_reclaim`'s bare
//!   words and a dequeued dummy returns to the free set immediately; the
//!   dequeue CAS is the textbook ABA victim.
//! * [`QueueSim::tagged`] — every pointer word is a counted word and every
//!   CAS bumps its counter (§1 tagging), so a recycled index can never be
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
//! (next link).  Head, tail and links are encoded by the scheme's own
//! hardware codec (`aba_reclaim::Guard::Links`).  The epoch variant appends
//! its protection registers: the global epoch, `n` local epochs, the
//! quarantine mask and `C` stamps.

use aba_reclaim::{Scheme, NIL};
use aba_spec::{ProcessId, Word};

use super::protect::{Advance, Layout, Links, Protection};
use super::replay::{Mem, Model, Replay, Run};
use crate::algorithm::{MethodCall, MethodResponse, SimAlgorithm, SimProcess};
use crate::object::{BaseObject, ObjId};

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

    fn process(&self, pid: ProcessId) -> QueueProc {
        QueueProc {
            prot: Protection::new(self.scheme, self.layout(), pid),
        }
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
}

impl SimAlgorithm for QueueSim {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        match self.scheme {
            Scheme::Unprotected => "MS queue sim (unprotected)",
            Scheme::Tagged => "MS queue sim (tagged)",
            Scheme::Epoch => "MS queue sim (epoch)",
            Scheme::Hazard | Scheme::LlSc => unreachable!("no {:?} queue model", self.scheme),
        }
    }

    fn initial_objects(&self) -> Vec<BaseObject> {
        let links = Links::of(self.scheme);
        let mut objects = vec![
            BaseObject::cas(links.fresh(0)), // head -> dummy 0
            BaseObject::cas(links.fresh(0)), // tail -> dummy 0
            BaseObject::cas(((1u64 << self.capacity) - 1) & !1), // free set minus dummy
        ];
        for _ in 0..self.capacity {
            objects.push(BaseObject::register(0)); // value
            objects.push(BaseObject::writable_cas(links.fresh(NIL))); // next
        }
        // The immediate-free variants touch no protection register, so they
        // carry none (every object is cloned at every explored step).
        if self.scheme == Scheme::Epoch {
            objects.extend(self.layout().registers());
        }
        objects
    }

    fn spawn(&self, pid: ProcessId) -> Box<dyn SimProcess> {
        Box::new(Replay::new(self.process(pid)))
    }
}

#[derive(Debug, Clone)]
struct QueueProc {
    prot: Protection,
}

impl Model for QueueProc {
    fn call(&mut self, call: MethodCall, m: &mut Mem<'_>) -> Run<MethodResponse> {
        match call {
            MethodCall::Enqueue(value) => self.enqueue(value, m).map(MethodResponse::EnqueueResult),
            MethodCall::Dequeue => self.dequeue(m).map(MethodResponse::DequeueResult),
            other => panic!("queue simulation given {other:?}"),
        }
    }
}

/// One reclamation attempt: advance the global epoch, then free every limbo
/// entry two or more advances old.  A successful advance is exactly when
/// quarantined bags can have become eligible, so it adopts and frees them
/// first; one blocked too often behind a stale pin hands the private limbo
/// to the quarantine.
fn reclaim(prot: &mut Protection, m: &mut Mem<'_>) -> Run<()> {
    match prot.advance(m)? {
        Advance::Advanced => {
            let adopted = prot.adopt(m)?;
            prot.release(adopted, m)?;
        }
        Advance::Blocked if prot.transfer_due() => prot.transfer(m)?,
        Advance::Blocked | Advance::Raced => {}
    }
    prot.release(prot.reclaimable(), m)
}

impl QueueProc {
    fn idx_of(&self, raw: u64) -> u64 {
        self.prot.links.index(raw)
    }

    fn is_nil(&self, raw: u64) -> bool {
        self.idx_of(raw) == NIL
    }

    /// The word that replaces `old_raw` when repointing to `idx`: the bare
    /// index, or (tagged) the index with `old_raw`'s counter bumped.  Words
    /// are compared and CASed in full, so the tagged variant gets its
    /// protection from the same code.
    fn repoint(&self, old_raw: u64, idx: u64) -> u64 {
        self.prot.links.encode(old_raw, idx, false)
    }

    fn value_obj(&self, idx: u64) -> ObjId {
        3 + 2 * idx as usize
    }

    fn next_obj(&self, idx: u64) -> ObjId {
        4 + 2 * idx as usize
    }

    /// Whether the enqueue reads its fresh node's link before initialising
    /// it.  On hardware `Guard::store_link_mark` reads the old word only
    /// under a counted codec (to continue its counter); under the bare codec
    /// it stores without reading, which is what the epoch variant models.
    /// The unprotected variant reads too — one step more than its hardware
    /// twin takes — because it shares the tagged variant's code and every
    /// E11 pin of `queue/unprotected` is a schedule over that step.
    fn reads_own_link(&self) -> bool {
        self.prot.scheme != Scheme::Epoch
    }

    fn enqueue(&mut self, value: Word, m: &mut Mem<'_>) -> Run<bool> {
        // An empty arena fails the enqueue without touching the queue words.
        // A process with an empty limbo fails fast, without a reclamation
        // attempt — every quarantined node is adoptable through a dequeuer's
        // advance, and keeping the exhausted enqueue short keeps the DPOR
        // space tractable.
        let Some(node) = self.prot.alloc(reclaim, m)? else {
            return Ok(false);
        };
        m.write(self.value_obj(node), value as u64)?;
        let old = if self.reads_own_link() {
            m.read(self.next_obj(node))?
        } else {
            0
        };
        m.write(self.next_obj(node), self.repoint(old, NIL))?;
        // Allocating and preparing needed no pin; dereferencing the tail
        // node's next link is what the protection must cover.
        self.prot.pin(m)?;
        // retry-bound: an attempt fails only when another enqueue linked its
        // node or a helper swung the tail — system-wide progress.  (On a
        // chain the unprotected variant has cycled it can spin for good:
        // that is the wedge the explorers cut and report.)
        let tail_raw = m.retry(|m| {
            let tail_raw = m.read(OBJ_TAIL)?;
            let tail_next = self.next_obj(self.idx_of(tail_raw));
            let next_raw = m.read(tail_next)?;
            if self.is_nil(next_raw) {
                let linked = m.cas(tail_next, next_raw, self.repoint(next_raw, node))?;
                return Ok(linked.then_some(tail_raw));
            }
            // Help a lagging tail forward.
            let ahead = self.repoint(tail_raw, self.idx_of(next_raw));
            m.cas(OBJ_TAIL, tail_raw, ahead)?;
            Ok(None)
        })?;
        // Whether our swing or a helper's lands, the node is linked.
        m.cas(OBJ_TAIL, tail_raw, self.repoint(tail_raw, node))?;
        self.prot.quiesce(m)?;
        Ok(true)
    }

    fn dequeue(&mut self, m: &mut Mem<'_>) -> Run<Option<Word>> {
        self.prot.pin(m)?;
        // retry-bound: an attempt fails only on a snapshot another operation
        // moved under it or on a lost head CAS — system-wide progress, with
        // the same wedge caveat as the enqueue's loop.
        let unlinked = m.retry(|m| {
            let head_raw = m.read(OBJ_HEAD)?;
            let tail_raw = m.read(OBJ_TAIL)?;
            let next_raw = m.read(self.next_obj(self.idx_of(head_raw)))?;
            let next = self.idx_of(next_raw);
            if self.idx_of(head_raw) == self.idx_of(tail_raw) {
                if self.is_nil(next_raw) {
                    return Ok(Some(None));
                }
                // Help a lagging tail forward.
                m.cas(OBJ_TAIL, tail_raw, self.repoint(tail_raw, next))?;
                return Ok(None);
            }
            if self.is_nil(next_raw) {
                // Inconsistent snapshot (head moved under us).
                return Ok(None);
            }
            let value = m.read(self.value_obj(next))?;
            let won = m.cas(OBJ_HEAD, head_raw, self.repoint(head_raw, next))?;
            Ok(won.then_some(Some((self.idx_of(head_raw), value))))
        })?;
        let Some((dummy, value)) = unlinked else {
            self.prot.quiesce(m)?;
            return Ok(None);
        };
        // The old dummy is ours to retire; then quiesce and, with it (or
        // older retirees) in limbo, make one reclamation attempt.
        self.prot.retire(dummy, m)?;
        self.prot.quiesce(m)?;
        if self.prot.holds_limbo() {
            reclaim(&mut self.prot, m)?;
        }
        Ok(Some(value as Word))
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
        pid: ProcessId,
        auditor: &mut crate::audit::FootprintAuditor,
    ) -> bool {
        use crate::executor::StepOutcome;
        loop {
            match sim.step_audited(pid, auditor) {
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
        assert!(complete_audited(&mut sim, 0, &mut auditor));
        // Process 1 starts a dequeue and parks right after its pin: three
        // steps cover read-g, publish-local, validate.
        sim.enqueue(1, MethodCall::Dequeue);
        for _ in 0..3 {
            let _ = sim.step_audited(1, &mut auditor);
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
            assert!(complete_audited(&mut sim, 0, &mut auditor));
            sim.enqueue(0, MethodCall::Dequeue);
            assert!(complete_audited(&mut sim, 0, &mut auditor));
        }
        assert_ne!(
            sim.registers()[algo.quarantine_mask_obj()],
            0,
            "advances blocked by a stale pin must quarantine the blocked limbo"
        );
        // The parked dequeuer wakes up and finishes, unblocking advances;
        // process 0's subsequent successful advances adopt the quarantined
        // nodes back into the free set.
        assert!(complete_audited(&mut sim, 1, &mut auditor));
        for i in 0..4u32 {
            sim.enqueue(0, MethodCall::Enqueue(10 + i));
            assert!(complete_audited(&mut sim, 0, &mut auditor));
            sim.enqueue(0, MethodCall::Dequeue);
            assert!(complete_audited(&mut sim, 0, &mut auditor));
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
    fn a_suspended_dequeue_has_not_touched_the_committed_limbo() {
        let algo = QueueSim::epoch(1, 4);
        let mut mem = crate::object::SharedMemory::new(algo.initial_objects());
        let mut p = Replay::new(algo.process(0));
        assert_eq!(p.invoke(MethodCall::Enqueue(5)), None);
        while p.step(&mut mem).is_none() {}
        assert_eq!(p.invoke(MethodCall::Dequeue), None);
        let mut steps = 0;
        let response = loop {
            // The retire stamps the dummy into the limbo at step 9; the
            // unpin, the advance and the adoption re-run it five more times.
            assert!(!p.idle().prot.holds_limbo(), "step {steps}");
            steps += 1;
            if let Some(response) = p.step(&mut mem) {
                break response;
            }
        };
        assert_eq!(response, MethodResponse::DequeueResult(Some(5)));
        assert_eq!(steps, 14);
        assert!(p.idle().prot.holds_limbo(), "committed with the response");
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
