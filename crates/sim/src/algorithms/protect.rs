//! The protection sequences shared by the simulated structures — the
//! simulator's counterpart of `aba_reclaim`'s `Guard`.
//!
//! Everything a protection scheme adds — allocating from and releasing to
//! the free set, the epoch pin / retire stamp / advance / quarantine
//! protocol, hazard publication, scanning and lane clearing — exists once,
//! here, as a function of [`Protection`] named after the `Guard` method it
//! models (DESIGN.md §3.1), every shared-memory access of which is one
//! schedulable step.  *Which* sequences run in *what* order is composed by
//! the adapter the shipped queue and list code run on (`shipped.rs`);
//! nothing here asks which structure it serves.
//!
//! Limbo bags are process-*private* (each process's own retired nodes, never
//! read by others), so they live in [`Protection`] rather than in shared
//! objects, as do the last observed global epoch, the blocked-advance
//! counter and the hazards collected by the last scan.

use aba_reclaim::{Guard, LinkCodec, Reclaimer, Scheme, SchemeFn, NIL};
use aba_spec::ProcessId;

use super::replay::{Mem, Run};
use crate::object::{BaseObject, ObjId};

/// Consecutive blocked advance attempts after which a process may transfer
/// its private limbo to the shared quarantine: the hardware's own threshold.
pub use aba_reclaim::epoch::TRANSFER_AFTER_BLOCKED;

/// A scheme's word codec — its `aba_reclaim::Guard::Links`, `BareLinks` or
/// `CountedLinks` — held as values, so a model selects the hardware's own
/// encoding from its [`Scheme`] at run time.  Nil is the codec's nil
/// ([`NIL`] decoded); the bare codec's stale CASes can succeed, the counted
/// codec continues the replaced word's counter, so a recycled index never
/// compares equal to its previous incarnation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Links {
    encode: fn(u64, u64, bool) -> u64,
    index: fn(u64) -> u64,
    mark: fn(u64) -> bool,
}

impl Links {
    pub(crate) fn of(scheme: Scheme) -> Self {
        struct Of;
        impl SchemeFn for Of {
            type Out = Links;
            fn call<R: Reclaimer>(self) -> Links {
                type Codec<R> = <<R as Reclaimer>::Guard<'static> as Guard>::Links;
                Links {
                    encode: <Codec<R> as LinkCodec>::encode,
                    index: <Codec<R> as LinkCodec>::index,
                    mark: <Codec<R> as LinkCodec>::mark,
                }
            }
        }
        scheme.dispatch(Of)
    }

    /// The node a word designates ([`NIL`] if none).
    pub(crate) fn index(self, raw: u64) -> u64 {
        (self.index)(raw)
    }

    /// The logical-deletion mark of a word.
    pub(crate) fn marked(self, raw: u64) -> bool {
        (self.mark)(raw)
    }

    /// The word that replaces `old_raw` when repointing to `idx`.
    pub(crate) fn encode(self, old_raw: u64, idx: u64, marked: bool) -> u64 {
        (self.encode)(old_raw, idx, marked)
    }

    /// The initial word designating `idx` ([`NIL`] allowed), as the
    /// hardware's `add_slot` writes it.
    pub(crate) fn fresh(self, idx: u64) -> u64 {
        self.encode(NIL, idx, false)
    }
}

/// Object ids of the free set and of the protection registers, which follow
/// the structure's own objects: the global epoch, one local-epoch register
/// per process (`0` = quiescent, `e + 1` = pinned at epoch `e`), `lanes`
/// hazard registers per process (`0` = clear, `idx + 1` = protecting node
/// `idx`), then — iff `stamps > 0` — the quarantine bit mask (bit `i` set =
/// node `i` is adoptable by any process) and one quarantine epoch-stamp
/// register per node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    /// The free *set*: a bitmask, so allocation is a single CAS —
    /// deliberately trivial, every anomaly is attributable to the structure.
    pub(crate) free: ObjId,
    /// The first protection register (= the structure's own object count).
    pub(crate) base: ObjId,
    /// Number of processes.
    pub(crate) n: usize,
    /// Hazard lanes per process (0 for a structure that publishes none).
    pub(crate) lanes: usize,
    /// Quarantine stamp registers (the arena capacity, or 0 for a structure
    /// that never transfers).
    pub(crate) stamps: usize,
}

impl Layout {
    pub(crate) fn global_epoch(&self) -> ObjId {
        self.base
    }

    pub(crate) fn local_epoch(&self, p: ProcessId) -> ObjId {
        self.base + 1 + p
    }

    pub(crate) fn hazard(&self, p: ProcessId, lane: usize) -> ObjId {
        self.base + 1 + self.n + self.lanes * p + lane
    }

    pub(crate) fn quarantine_mask(&self) -> ObjId {
        self.base + 1 + (1 + self.lanes) * self.n
    }

    pub(crate) fn quarantine_stamp(&self, idx: usize) -> ObjId {
        self.quarantine_mask() + 1 + idx
    }

    /// The protection registers in id order, all initially 0.
    pub(crate) fn registers(&self) -> Vec<BaseObject> {
        let mut registers = vec![BaseObject::cas(0)]; // global epoch
        registers.resize((1 + self.lanes) * self.n + 1, BaseObject::register(0));
        if self.stamps > 0 {
            registers.push(BaseObject::cas(0)); // quarantine mask
            registers.resize(registers.len() + self.stamps, BaseObject::register(0));
        }
        registers
    }
}

/// How one attempt to advance the global epoch ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Advance {
    /// The attempt installed `g + 1`.
    Advanced,
    /// It met a pinned process that has not observed `g` yet.
    Blocked,
    /// It lost its CAS — someone advanced for us, equally good.
    Raced,
}

/// One process's protection state.
#[derive(Debug, Clone)]
pub(crate) struct Protection {
    pub(crate) scheme: Scheme,
    pub(crate) links: Links,
    pub(crate) layout: Layout,
    pid: ProcessId,
    /// Private limbo: `(node, retire-epoch)` pairs (the stamp is 0 and
    /// unused under hazard pointers).
    limbo: Vec<(u64, u64)>,
    /// Most recent global-epoch value observed (drives free eligibility).
    last_g: u64,
    /// Consecutive advance attempts blocked by a stale pinned peer.
    blocked_advances: usize,
    /// Hazard values collected by the last scan.
    scanned: Vec<u64>,
}

impl Protection {
    pub(crate) fn new(scheme: Scheme, layout: Layout, pid: ProcessId) -> Self {
        Protection {
            scheme,
            links: Links::of(scheme),
            layout,
            pid,
            limbo: Vec::new(),
            last_g: 0,
            blocked_advances: 0,
            scanned: Vec::new(),
        }
    }

    /// `true` while retired nodes wait in this process's private limbo.
    pub(crate) fn holds_limbo(&self) -> bool {
        !self.limbo.is_empty()
    }

    /// `true` once [`TRANSFER_AFTER_BLOCKED`] advances in a row were blocked
    /// while limbo is held: the bags are stranded behind a parked peer.
    /// Never for a layout without a quarantine.
    pub(crate) fn transfer_due(&self) -> bool {
        self.layout.stamps > 0
            && self.blocked_advances >= TRANSFER_AFTER_BLOCKED
            && self.holds_limbo()
    }

    /// Free-set bits of the limbo nodes the last reclamation attempt made
    /// safe: under hazard pointers every node the last scan found
    /// unprotected, under epochs every entry at least two advances old.
    pub(crate) fn reclaimable(&self) -> u64 {
        self.limbo
            .iter()
            .filter(|&&(node, stamp)| match self.scheme {
                Scheme::Hazard => !self.scanned.contains(&node),
                _ => stamp + 2 <= self.last_g,
            })
            .fold(0, |bits, &(node, _)| bits | (1 << node))
    }

    /// `admit_alloc`: take a node out of the free set, `None` if it is
    /// empty.  An empty set met while this process holds limbo runs the
    /// structure's `reclaim` attempt and asks exactly once more (the
    /// hardware arena's reclaim-pressure path).
    pub(crate) fn alloc(
        &mut self,
        reclaim: fn(&mut Self, &mut Mem<'_>) -> Run<()>,
        m: &mut Mem<'_>,
    ) -> Run<Option<u64>> {
        match self.take(m)? {
            None if self.holds_limbo() => {
                reclaim(self, m)?;
                self.take(m)
            }
            taken => Ok(taken),
        }
    }

    fn take(&self, m: &mut Mem<'_>) -> Run<Option<u64>> {
        let free = self.layout.free;
        // retry-bound: the CAS fails only when another process moved the
        // free set (an alloc or a free) — system-wide progress, so the retry
        // is lock-free.
        m.retry(|m| {
            let mask = m.read(free)?;
            if mask == 0 {
                return Ok(Some(None));
            }
            let idx = u64::from(mask.trailing_zeros());
            Ok(m.cas(free, mask, mask & !(1 << idx))?.then_some(Some(idx)))
        })
    }

    /// Return `bits` to the free set (no step when there are none).
    pub(crate) fn release(&mut self, bits: u64, m: &mut Mem<'_>) -> Run<()> {
        match bits {
            0 => Ok(()),
            bits => self.hand_over(self.layout.free, bits, m),
        }
    }

    /// Hand the nodes `bits` over to the shared bit mask `to` (the free set:
    /// reusable; the quarantine mask: adoptable); they leave the limbo.
    fn hand_over(&mut self, to: ObjId, bits: u64, m: &mut Mem<'_>) -> Run<()> {
        // retry-bound: we own the bits, so this CAS must land; it fails only
        // when another process moved the mask (an alloc or a free; an
        // adoption or a transfer) — that is system-wide progress, so the
        // retry is lock-free.
        m.retry(|m| {
            let mask = m.read(to)?;
            Ok(m.cas(to, mask, mask | bits)?.then_some(()))
        })?;
        self.limbo.retain(|&(node, _)| (bits >> node) & 1 == 0);
        Ok(())
    }

    /// Enter the protected region: an epoch pin (read g, publish g + 1,
    /// re-check until g was stable), nothing otherwise.
    pub(crate) fn pin(&mut self, m: &mut Mem<'_>) -> Run<()> {
        if self.scheme != Scheme::Epoch {
            return Ok(());
        }
        let l = self.layout;
        self.last_g = m.read(l.global_epoch())?;
        loop {
            m.write(l.local_epoch(self.pid), self.last_g + 1)?;
            // The re-read closes the race where an advance-and-free slips
            // between the read and the publication.
            let now = m.read(l.global_epoch())?;
            if now == self.last_g {
                return Ok(());
            }
            self.last_g = now;
        }
    }

    /// `protect_link` / `protect_link_word`, and each try of a hazard slot
    /// `protect`: extend protection in `lane` to node `idx`, then confirm
    /// that `src` still holds the word `raw` — publish-then-revalidate under
    /// hazard pointers, the confirmation alone under a scheme that publishes
    /// nothing (its words or its pin carry the protection).
    pub(crate) fn protect(
        &self,
        lane: usize,
        idx: u64,
        src: ObjId,
        raw: u64,
        m: &mut Mem<'_>,
    ) -> Run<bool> {
        if self.scheme == Scheme::Hazard {
            m.write(self.layout.hazard(self.pid, lane), idx + 1)?;
        }
        // The hazard protects the node only if its source still designates
        // it after the publication: then the protection took hold before any
        // retirement scan could miss it.
        Ok(m.read(src)? == raw)
    }

    /// Hand over a node unlinked by a successful CAS: immediate release;
    /// hazard limbo, scan and release of what the scan cleared; or epoch
    /// limbo under a stamp read *after* the unlink (a pin-time stamp would
    /// be one advance too old when the unlink raced an advance — the classic
    /// EBR subtlety).
    pub(crate) fn retire(&mut self, node: u64, m: &mut Mem<'_>) -> Run<()> {
        match self.scheme {
            Scheme::Unprotected | Scheme::Tagged | Scheme::LlSc => self.release(1 << node, m),
            Scheme::Hazard => {
                self.limbo.push((node, 0));
                self.scan(m)?;
                self.release(self.reclaimable(), m)
            }
            Scheme::Epoch => {
                self.last_g = m.read(self.layout.global_epoch())?;
                self.limbo.push((node, self.last_g));
                Ok(())
            }
        }
    }

    /// Release the protections `held` names: clear each hazard lane whose
    /// bit is set, or unpin.
    pub(crate) fn quiesce(&self, held: u64, m: &mut Mem<'_>) -> Run<()> {
        match self.scheme {
            Scheme::Unprotected | Scheme::Tagged | Scheme::LlSc => Ok(()),
            Scheme::Hazard => (0..self.layout.lanes)
                .filter(|lane| held >> lane & 1 != 0)
                .try_for_each(|lane| m.write(self.layout.hazard(self.pid, lane), 0)),
            Scheme::Epoch => m.write(self.layout.local_epoch(self.pid), 0),
        }
    }

    /// `reclaim_pressure` (hazard): collect the other processes' hazards.
    pub(crate) fn scan(&mut self, m: &mut Mem<'_>) -> Run<()> {
        self.scanned.clear();
        for p in (0..self.layout.n).filter(|&p| p != self.pid) {
            for lane in 0..self.layout.lanes {
                let hazard = m.read(self.layout.hazard(p, lane))?;
                if hazard > 0 {
                    self.scanned.push(hazard - 1);
                }
            }
        }
        Ok(())
    }

    /// `reclaim_pressure` (epoch): one attempt to advance the global epoch —
    /// read g, check that every pinned process has observed it, CAS g + 1.
    pub(crate) fn advance(&mut self, m: &mut Mem<'_>) -> Run<Advance> {
        let l = self.layout;
        let g = m.read(l.global_epoch())?;
        self.last_g = g;
        for p in 0..l.n {
            let local = m.read(l.local_epoch(p))?;
            if local != 0 && local != g + 1 {
                // The advance must wait for the stale pin, but limbo that is
                // already eligible can still go.
                self.blocked_advances += 1;
                return Ok(Advance::Blocked);
            }
        }
        if !m.cas(l.global_epoch(), g, g + 1)? {
            return Ok(Advance::Raced);
        }
        self.last_g = g + 1;
        self.blocked_advances = 0;
        Ok(Advance::Advanced)
    }

    /// Move the whole private limbo into the shared quarantine, so any
    /// process that later advances can free it — the E15 cure for bags
    /// stranded with a parked owner.  Requires held limbo.
    pub(crate) fn transfer(&mut self, m: &mut Mem<'_>) -> Run<()> {
        self.blocked_advances = 0;
        let mut bits = 0;
        for &(node, stamp) in &self.limbo {
            m.write(self.layout.quarantine_stamp(node as usize), stamp)?;
            bits |= 1 << node;
        }
        // Publish-after-stamp: an adopter never reads an unwritten stamp.
        // The hand-over takes every limbo entry, so the private limbo is
        // empty until the next retire.
        self.hand_over(self.layout.quarantine_mask(), bits, m)
    }

    /// Claim every quarantined node at least two advances old; the bits
    /// claimed, which the adopter owns and must `release`.  0: nothing
    /// eligible, no quarantine in the layout, or the claim CAS lost —
    /// whoever changed the mask either adopted the nodes or transferred new
    /// ones, so a single attempt keeps adoption bounded.
    pub(crate) fn adopt(&self, m: &mut Mem<'_>) -> Run<u64> {
        if self.layout.stamps == 0 {
            return Ok(0);
        }
        let qmask = self.layout.quarantine_mask();
        let mask = m.read(qmask)?;
        let mut take = 0;
        let mut rest = mask;
        while rest != 0 {
            let idx = rest.trailing_zeros();
            if m.read(self.layout.quarantine_stamp(idx as usize))? + 2 <= self.last_g {
                take |= 1 << idx;
            }
            rest &= rest - 1;
        }
        if take != 0 && m.cas(qmask, mask, mask & !take)? {
            Ok(take)
        } else {
            Ok(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::replay::drive;
    use super::*;
    use crate::object::{BaseOp, SharedMemory};

    /// Hazard lanes per process of a traversing structure.
    const HAZ_LANES: usize = aba_lockfree::list::LANES;

    /// A structure with no objects of its own but the free set.
    const EPOCH: Layout = Layout {
        free: 0,
        base: 1,
        n: 2,
        lanes: 0,
        stamps: 4,
    };
    const HAZARD: Layout = Layout {
        free: 0,
        base: 1,
        n: 3,
        lanes: HAZ_LANES,
        stamps: 0,
    };

    fn memory(layout: &Layout, free: u64) -> SharedMemory {
        let mut objects = vec![BaseObject::cas(free)];
        objects.extend(layout.registers());
        SharedMemory::new(objects)
    }

    /// Run `f` to its end, alone; returns its value and the steps it took.
    fn alone<T>(
        p: &mut Protection,
        mem: &mut SharedMemory,
        f: impl Fn(&mut Protection, &mut Mem<'_>) -> Run<T>,
    ) -> (T, Vec<BaseOp>) {
        drive(p, mem, f, |_, _| {})
    }

    /// Move the global epoch from `g` to `g + 1` behind everybody's back.
    fn bump_global(mem: &mut SharedMemory, layout: &Layout, g: u64) {
        let bumped = mem.apply(BaseOp::Cas(layout.global_epoch(), g, g + 1));
        assert!(bumped.cas_succeeded());
    }

    /// The hazard-mode reclamation attempt a structure would pass to `alloc`.
    fn scan_and_release(p: &mut Protection, m: &mut Mem<'_>) -> Run<()> {
        p.scan(m)?;
        p.release(p.reclaimable(), m)
    }

    #[test]
    fn pin_republishes_when_the_epoch_moves_between_read_and_recheck() {
        let mut mem = memory(&EPOCH, 0);
        let mut p = Protection::new(Scheme::Epoch, EPOCH, 0);
        // An advance slips in between the publication and the re-check.
        let mut reads = 0;
        let (g, local) = (EPOCH.global_epoch(), EPOCH.local_epoch(0));
        let ((), ops) = drive(
            &mut p,
            &mut mem,
            |p, m| p.pin(m),
            |op, mem| {
                reads += u32::from(op == BaseOp::Read(g));
                if reads == 2 && mem.peek(g) == 0 {
                    assert_eq!(mem.peek(local), 1);
                    bump_global(mem, &EPOCH, 0);
                }
            },
        );
        let republished = [
            BaseOp::Read(g),
            BaseOp::Write(local, 1),
            BaseOp::Read(g),
            BaseOp::Write(local, 2),
            BaseOp::Read(g),
        ];
        assert_eq!(ops, republished, "re-publish, then a stable re-check");
        assert_eq!(p.last_g, 1);
        // Schemes that do not pin take no step.
        let mut tagged = Protection::new(Scheme::Tagged, EPOCH, 0);
        assert!(alone(&mut tagged, &mut mem, |p, m| p.pin(m)).1.is_empty());
    }

    #[test]
    fn blocked_advances_count_toward_the_transfer_and_a_successful_one_resets_them() {
        let mut mem = memory(&EPOCH, 0);
        let mut p = Protection::new(Scheme::Epoch, EPOCH, 0);
        alone(&mut p, &mut mem, |p, m| p.retire(3, m));
        assert!(p.holds_limbo());
        // Process 1 pinned at epoch 0 and parked; the epoch has moved on.
        mem.apply(BaseOp::Write(EPOCH.local_epoch(1), 1));
        bump_global(&mut mem, &EPOCH, 0);
        for blocked in 1..=TRANSFER_AFTER_BLOCKED {
            assert!(!p.transfer_due());
            assert_eq!(
                alone(&mut p, &mut mem, |p, m| p.advance(m)).0,
                Advance::Blocked
            );
            assert_eq!(p.blocked_advances, blocked);
        }
        assert!(p.transfer_due());
        // The peer unpins: the next attempt advances and the count restarts.
        mem.apply(BaseOp::Write(EPOCH.local_epoch(1), 0));
        let (outcome, ops) = alone(&mut p, &mut mem, |p, m| p.advance(m));
        assert_eq!(outcome, Advance::Advanced);
        assert_eq!(ops.len(), 2 + EPOCH.n, "read g, scan every local, CAS g");
        assert_eq!(mem.peek(EPOCH.global_epoch()), 2);
        assert_eq!(p.blocked_advances, 0);
        assert!(!p.transfer_due());
        // A lost CAS is neither: someone else advanced.
        let (outcome, _) = drive(
            &mut p,
            &mut mem,
            |p, m| p.advance(m),
            |op, mem| {
                if op.is_cas() {
                    bump_global(mem, &EPOCH, 2);
                }
            },
        );
        assert_eq!(outcome, Advance::Raced);
    }

    #[test]
    fn transfer_writes_every_stamp_before_the_mask_cas() {
        let mut mem = memory(&EPOCH, 0);
        let mut p = Protection::new(Scheme::Epoch, EPOCH, 0);
        alone(&mut p, &mut mem, |p, m| p.retire(1, m));
        bump_global(&mut mem, &EPOCH, 0);
        alone(&mut p, &mut mem, |p, m| p.retire(3, m));
        // A peer's bag is already quarantined.
        mem.apply(BaseOp::Cas(EPOCH.quarantine_mask(), 0, 0b1));
        let ((), ops) = alone(&mut p, &mut mem, |p, m| p.transfer(m));
        assert_eq!(
            ops,
            [
                BaseOp::Write(EPOCH.quarantine_stamp(1), 0),
                BaseOp::Write(EPOCH.quarantine_stamp(3), 1),
                BaseOp::Read(EPOCH.quarantine_mask()),
                BaseOp::Cas(EPOCH.quarantine_mask(), 0b1, 0b1011),
            ]
        );
        assert!(!p.holds_limbo(), "ownership moved to the quarantine");
        assert_eq!(p.reclaimable(), 0);
    }

    #[test]
    fn an_adopter_that_loses_the_claim_cas_gives_up_without_freeing() {
        let mut mem = memory(&EPOCH, 0b1);
        let mut p = Protection::new(Scheme::Epoch, EPOCH, 0);
        // Nodes 1 and 2 sit in quarantine; 1 was retired at epoch 0, 2 at
        // epoch 1, and this process has observed epoch 2.
        let qmask = EPOCH.quarantine_mask();
        mem.apply(BaseOp::Write(EPOCH.quarantine_stamp(2), 1));
        mem.apply(BaseOp::Cas(qmask, 0, 0b110));
        bump_global(&mut mem, &EPOCH, 0);
        bump_global(&mut mem, &EPOCH, 1);
        alone(&mut p, &mut mem, |p, m| p.pin(m));
        // A rival adopter claims node 1 just before our claim CAS.
        let (claimed, ops) = drive(
            &mut p,
            &mut mem,
            |p, m| p.adopt(m),
            |op, mem| {
                if op.is_cas() {
                    mem.apply(BaseOp::Cas(qmask, 0b110, 0b100));
                }
            },
        );
        // Only node 1 is two advances old.
        assert_eq!(ops.last(), Some(&BaseOp::Cas(qmask, 0b110, 0b100)));
        assert_eq!(claimed, 0);
        let ((), ops) = alone(&mut p, &mut mem, |p, m| p.release(claimed, m));
        assert!(ops.is_empty(), "nothing to free");
        assert_eq!(mem.peek(EPOCH.free), 0b1);
        // Unraced, the same claim lands and hands over exactly that bit.
        mem.apply(BaseOp::Cas(qmask, 0b100, 0b110));
        assert_eq!(alone(&mut p, &mut mem, |p, m| p.adopt(m)).0, 0b010);
        assert_eq!(mem.peek(qmask), 0b100);
    }

    #[test]
    fn the_hazard_scan_skips_own_lanes_and_frees_exactly_the_unprotected_nodes() {
        let mut mem = memory(&HAZARD, 0);
        let mut p = Protection::new(Scheme::Hazard, HAZARD, 1);
        // Process 0 protects node 2; our own lane 0 still names node 4.
        mem.apply(BaseOp::Write(HAZARD.hazard(0, 1), 2 + 1));
        mem.apply(BaseOp::Write(HAZARD.hazard(1, 0), 4 + 1));
        let others: Vec<BaseOp> = [0, 2]
            .iter()
            .flat_map(|&q| (0..HAZ_LANES).map(move |lane| BaseOp::Read(HAZARD.hazard(q, lane))))
            .collect();
        let ((), ops) = alone(&mut p, &mut mem, |p, m| p.retire(2, m));
        assert_eq!(ops, others, "node 2 is protected: scanned, not released");
        assert_eq!(p.reclaimable(), 0);
        let ((), ops) = alone(&mut p, &mut mem, |p, m| p.retire(4, m));
        let free = [
            BaseOp::Read(HAZARD.free),
            BaseOp::Cas(HAZARD.free, 0, 1 << 4),
        ];
        assert_eq!(ops, [&others[..], &free[..]].concat());
        assert_eq!(mem.peek(HAZARD.free), 1 << 4);
        assert!(p.holds_limbo(), "node 2 stays in limbo");
        assert_eq!(p.reclaimable(), 0);
        // quiesce clears every lane of ours and nobody else's.
        alone(&mut p, &mut mem, |p, m| p.quiesce(0b111, m));
        assert_eq!(mem.peek(HAZARD.hazard(1, 0)), 0);
        assert_eq!(mem.peek(HAZARD.hazard(0, 1)), 3);
    }

    #[test]
    fn alloc_on_an_empty_free_set_retries_once_after_reclaim_and_then_fails() {
        let mut mem = memory(&HAZARD, 0);
        let mut p = Protection::new(Scheme::Hazard, HAZARD, 0);
        let alloc = |p: &mut Protection, m: &mut Mem<'_>| p.alloc(scan_and_release, m);
        // Nothing in limbo: nothing a reclaim could produce.
        let (node, ops) = alone(&mut p, &mut mem, alloc);
        assert_eq!(node, None);
        assert_eq!(ops, [BaseOp::Read(HAZARD.free)]);
        // Node 1 in limbo, protected by process 2.
        mem.apply(BaseOp::Write(HAZARD.hazard(2, 2), 1 + 1));
        alone(&mut p, &mut mem, |p, m| p.retire(1, m));
        let (node, ops) = alone(&mut p, &mut mem, alloc);
        assert_eq!(node, None, "no second reclaim");
        let scan = 2 * HAZ_LANES;
        assert_eq!(ops.len(), 1 + scan + 1, "read, one scan, one more read");
        assert_eq!(ops[1 + scan], BaseOp::Read(HAZARD.free));
        // Once the protection drops, the same path allocates the node.
        mem.apply(BaseOp::Write(HAZARD.hazard(2, 2), 0));
        let (node, ops) = alone(&mut p, &mut mem, alloc);
        assert_eq!(node, Some(1));
        let freed_then_taken = [
            BaseOp::Read(HAZARD.free),
            BaseOp::Cas(HAZARD.free, 0, 0b10),
            BaseOp::Read(HAZARD.free),
            BaseOp::Cas(HAZARD.free, 0b10, 0),
        ];
        assert_eq!(ops[1 + scan..], freed_then_taken);
        assert!(!p.holds_limbo());
    }
}
