//! Epoch-based (quiescence) reclamation — the canonical alternative to
//! hazard pointers (Fraser-style epochs, cf. crossbeam-epoch), with
//! **debt-bounded advancement** so one parked reader cannot park the whole
//! arena in limbo (the E9/E15 pathology).
//!
//! A global epoch counter advances only when every *pinned* thread has
//! observed the current value.  A thread pins itself (publishes the global
//! epoch in its local-epoch slot) before traversing the structure and unpins
//! when its operation completes; a retired node is stamped with the epoch at
//! retirement and handed back to the allocator once the global epoch has
//! advanced **twice** past that stamp — by then every thread that could have
//! held a reference from before the unlink has gone through a quiescent
//! point.
//!
//! Per-guard state is three *limbo bags* (one per epoch residue class
//! mod 3): `retire` appends to the current epoch's bag in O(1), `pin` and
//! `unpin` are one shared store each, and the O(threads) epoch-advance
//! scan runs only every [`ADVANCE_THRESHOLD`] retirements (or under
//! allocation pressure) — the amortized-O(1) cost profile that makes epochs
//! the cheap-reads point in the scheme-comparison tables.
//!
//! An operation pays the protocol's locked instructions and no others: a
//! stack push+pop pair is the two head CASes, the pin and the unpin.  The
//! advance-debt diagnostic is reset only when it reads non-zero, and the
//! unreclaimed count is a per-thread cell written with a load and a store
//! (`gauge.rs`), not a `fetch_add` / `fetch_sub` pair on one shared line.
//!
//! # Debt-bounded advancement (DESIGN.md §12)
//!
//! The classic failure mode: a thread preempted *while pinned* lets the
//! global epoch advance exactly once (its published `e + 1` is still
//! "current" for the first advance) and then blocks every further advance,
//! so limbo grows without bound — E9 measured the entire arena (192/192
//! nodes) parked in limbo under oversubscription.  Three mechanisms bound
//! it, none of which ever frees a node early (safety is unchanged):
//!
//! * **Advance debt** — every advance attempt blocked by a stale pin bumps
//!   that slot's `advance_debt` counter, so a chronically-stale thread is
//!   *detectable* and reportable ([`EpochReclaim::advance_debt`]); its pin
//!   is never force-expired.  The unpin settles the debt — with a store only
//!   if there is one.
//! * **Quarantine transfer** — after [`TRANSFER_AFTER_BLOCKED`] consecutive
//!   blocked advances a guard transfers its bags (keyed by retire epoch)
//!   to the shared quarantine and keeps operating with empty bags; any
//!   guard's flush adopts quarantined nodes the moment they become
//!   eligible, so transferred limbo is centralized, not stranded.  Adopted
//!   nodes are taken out under the quarantine lock and freed after it is
//!   released, so a `free` callback that panics poisons nothing and loses
//!   only the node it was called on; a lock poisoned some other way is
//!   recovered (the list is a plain `Vec`).
//! * **Allocation admission** — [`Guard::admit_alloc`] recomputes the
//!   advance trigger from the arena's *live* capacity, and once the global
//!   unreclaimed count exceeds the limbo budget (`threads · trigger +
//!   2 · threads`) it help-advances; if every attempt stays blocked by a
//!   stale pin the allocation is denied, so churn degrades into reported
//!   allocation failures instead of eating the arena.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use aba_core::{stepcount, CachePadded};

use crate::gauge::{Gauge, GaugeCell};
use crate::{BareLinks, Guard, Reclaimer, Scheme, SlotId, SlotView, Slots};

/// Maximum retirements between a guard's epoch-advance attempts (amortizes
/// the O(threads) local-epoch scan; allocation pressure forces attempts
/// regardless).  Small arenas tighten the trigger further: limbo lives in
/// *every* guard's bags at once, so each guard may keep at most its
/// per-thread share of the arena (a quarter of capacity split over all
/// threads) before attempting an advance — otherwise `threads` guards
/// collectively park the whole arena in limbo and every allocation starves.
pub const ADVANCE_THRESHOLD: usize = 32;

/// Consecutive *blocked* advance attempts after which a guard transfers its
/// limbo bags to the shared quarantine (two attempts distinguish a stale pin
/// from the benign one-advance lag every pin exhibits).
pub const TRANSFER_AFTER_BLOCKED: usize = 2;

/// One thread's epoch state, alone on its cache line: the local-epoch word
/// written on every pin/unpin, plus the advance-debt diagnostic bumped by
/// advancers this pin has blocked.
#[derive(Debug)]
struct LocalEpoch {
    /// 0 when the thread is quiescent, `e + 1` when pinned at epoch `e`.
    epoch: AtomicU64,
    /// Number of advance attempts blocked by this slot's current pin;
    /// cleared on unpin.  Purely diagnostic — a chronically-stale thread is
    /// reported, never force-freed.
    advance_debt: AtomicU64,
}

/// Epoch-based reclamation: a global epoch, per-thread local epochs and
/// three per-guard limbo bags.  Structure words are bare indices (the
/// protection is temporal, not representational).
#[derive(Debug)]
pub struct EpochReclaim {
    /// The global epoch.
    global: AtomicU64,
    /// Per-thread epoch state — padded so two threads' pin traffic never
    /// shares a cache line.
    locals: Box<[CachePadded<LocalEpoch>]>,
    slots: Slots<BareLinks>,
    /// Retired-but-not-freed node count across all guards (the scheme's
    /// space overhead).
    unreclaimed: Gauge,
    /// `(node, retire-epoch)` pairs owned by no guard: stranded by dropped
    /// guards, or transferred by debt-blocked ones.  Adopted by whichever
    /// guard reclaims next.
    quarantine: Mutex<Vec<(u64, u64)>>,
    /// Quarantine size mirrored outside the mutex, so the retire-path
    /// advance (which runs on every retire for small arenas) stays
    /// lock-free in the common empty-quarantine case.
    quarantine_count: AtomicU64,
}

impl Reclaimer for EpochReclaim {
    type Guard<'a> = EpochGuard<'a>;

    const SCHEME: Scheme = Scheme::Epoch;

    fn new(threads: usize, _lanes: usize) -> Self {
        let threads = threads.max(1);
        EpochReclaim {
            global: AtomicU64::new(0),
            locals: (0..threads)
                .map(|_| {
                    CachePadded::new(LocalEpoch {
                        epoch: AtomicU64::new(0),
                        advance_debt: AtomicU64::new(0),
                    })
                })
                .collect(),
            slots: Slots::default(),
            unreclaimed: Gauge::new(threads),
            quarantine: Mutex::new(Vec::new()),
            quarantine_count: AtomicU64::new(0),
        }
    }

    fn add_slot(&mut self, idx: u64) -> SlotId {
        self.slots.add(idx)
    }

    fn guard(&self, tid: usize, capacity: usize) -> EpochGuard<'_> {
        EpochGuard {
            shared: self,
            slots: self.slots.view(),
            tid,
            unreclaimed: self.unreclaimed.cell(tid),
            capacity,
            trigger: self.trigger(capacity),
            pinned: false,
            bags: [Vec::new(), Vec::new(), Vec::new()],
            bag_epoch: [0; 3],
            limbo: 0,
            adopted: Vec::new(),
            since_advance: 0,
            blocked_advances: 0,
        }
    }

    #[inline]
    fn unreclaimed(&self) -> u64 {
        self.unreclaimed.sum()
    }
}

impl EpochReclaim {
    /// Limbo size (or retire count) at which a guard attempts an epoch
    /// advance on an arena of `capacity` nodes: its per-thread share of the
    /// arena, capped by [`ADVANCE_THRESHOLD`].
    fn trigger(&self, capacity: usize) -> usize {
        (capacity / (4 * self.locals.len())).clamp(1, ADVANCE_THRESHOLD)
    }

    /// The current global epoch (for tests and diagnostics).
    pub fn global_epoch(&self) -> u64 {
        let e = self.global.load(Ordering::SeqCst);
        stepcount::plain();
        e
    }

    /// Number of advance attempts blocked by thread `tid`'s *current* pin
    /// (0 when quiescent): the chronically-stale-thread report.  A large
    /// value identifies a parked reader whose pin is capping reclamation;
    /// the scheme never force-expires it — detection is the remedy the
    /// safety argument allows.  The unpin resets it when it reads non-zero;
    /// an advancer that raced the unpin can leave a stale 1 behind until the
    /// thread's next unpin.
    pub fn advance_debt(&self, tid: usize) -> u64 {
        let debt = self.locals[tid].advance_debt.load(Ordering::SeqCst);
        stepcount::plain();
        debt
    }

    /// Number of `(node, retire-epoch)` pairs currently in the shared
    /// quarantine (stranded by dropped guards or transferred by
    /// debt-blocked ones).
    pub fn quarantined(&self) -> u64 {
        let n = self.quarantine_count.load(Ordering::SeqCst);
        stepcount::plain();
        n
    }

    /// Lock the quarantine.  A poisoned lock is recovered: the list is a
    /// plain `Vec` of pairs that only `extend` and `retain` touch under the
    /// lock, valid at every step, and no caller's code runs while it is held.
    fn lock_quarantine(&self) -> MutexGuard<'_, Vec<(u64, u64)>> {
        let quarantine = self
            .quarantine
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        stepcount::locked();
        quarantine
    }

    /// Mirror the quarantine's length outside the mutex — called with the
    /// lock held, so the mirror cannot drift from the list.
    fn mirror_quarantine_len(&self, quarantine: &MutexGuard<'_, Vec<(u64, u64)>>) {
        self.quarantine_count
            .store(quarantine.len() as u64, Ordering::SeqCst);
        stepcount::locked();
    }
}

/// Guard of [`EpochReclaim`]: pin state plus three limbo bags.
#[derive(Debug)]
pub struct EpochGuard<'a> {
    shared: &'a EpochReclaim,
    slots: SlotView<'a, BareLinks>,
    tid: usize,
    /// This thread's cell of the shared unreclaimed gauge.
    unreclaimed: GaugeCell<'a>,
    /// Most recently observed arena capacity: [`Guard::admit_alloc`] tracks
    /// a growable arena's *live* capacity (a trigger frozen at guard creation
    /// from the full plan capacity was far too lax for a small published
    /// prefix).
    capacity: usize,
    /// [`EpochReclaim::trigger`] of `capacity`, recomputed only when
    /// `capacity` changes, so no operation divides.
    trigger: usize,
    pinned: bool,
    /// Bag `e % 3` holds nodes retired at epoch `bag_epoch[e % 3]`.
    bags: [Vec<u64>; 3],
    bag_epoch: [u64; 3],
    /// Total nodes across the three bags.
    limbo: usize,
    /// Eligible `(node, retire-epoch)` pairs taken out of the quarantine and
    /// not yet freed, last to be freed first.  Empty between calls unless a
    /// `free` callback panicked; the drop hands what is left back.
    adopted: Vec<(u64, u64)>,
    since_advance: usize,
    /// Consecutive advance attempts blocked by a stale pin; reaching
    /// [`TRANSFER_AFTER_BLOCKED`] transfers the bags to quarantine.
    blocked_advances: usize,
}

impl EpochGuard<'_> {
    /// Global unreclaimed-node budget enforced by [`Guard::admit_alloc`]:
    /// every guard may hold its trigger's worth of limbo plus per-thread
    /// slack for bag-boundary and in-flight effects.
    #[inline]
    fn limbo_budget(&self) -> u64 {
        let threads = self.shared.locals.len();
        (threads * (self.trigger + 2)) as u64
    }

    /// Pin: publish the current global epoch in our local slot, re-reading
    /// the global until the published value is current.  The re-read closes
    /// the race where an advance (and its reclamation) slips between our
    /// read and our publish — a stale publication would otherwise fail to
    /// protect the nodes we are about to traverse.
    #[inline]
    fn pin(&mut self) {
        if self.pinned {
            return;
        }
        loop {
            let e = self.shared.global.load(Ordering::SeqCst);
            stepcount::plain();
            self.shared.locals[self.tid]
                .epoch
                .store(e + 1, Ordering::SeqCst);
            stepcount::locked();
            let now = self.shared.global.load(Ordering::SeqCst);
            stepcount::plain();
            if now == e {
                break;
            }
        }
        self.pinned = true;
    }

    #[inline]
    fn unpin(&mut self) {
        if self.pinned {
            let local = &self.shared.locals[self.tid];
            local.epoch.store(0, Ordering::SeqCst);
            stepcount::locked();
            // The pin that accrued the debt is over; the diagnostic tracks
            // the *current* pin only.  Almost every pin accrues none, and a
            // store of 0 over 0 is a locked instruction for nothing.  (An
            // advancer that read the pin before it was withdrawn may charge
            // it after this check — a stale 1, as an unconditional store
            // would leave too.)
            let debt = local.advance_debt.load(Ordering::SeqCst);
            stepcount::plain();
            if debt != 0 {
                local.advance_debt.store(0, Ordering::SeqCst);
                stepcount::locked();
            }
            self.pinned = false;
        }
    }

    /// Free every node in bag `s`.
    #[cold]
    fn free_bag(&mut self, s: usize, free: &mut impl FnMut(u64)) {
        self.limbo -= self.bags[s].len();
        self.unreclaimed.sub(self.bags[s].len() as u64);
        self.bags[s].drain(..).for_each(free);
    }

    /// Free every bag (and adopted quarantine entry) whose retire epoch
    /// lies two or more advances in the past.
    #[cold]
    fn flush_eligible(&mut self, free: &mut impl FnMut(u64)) {
        let g = self.shared.global.load(Ordering::SeqCst);
        stepcount::plain();
        for s in 0..3 {
            if !self.bags[s].is_empty() && self.bag_epoch[s] + 2 <= g {
                self.free_bag(s, free);
            }
        }
        let quarantined = self.shared.quarantine_count.load(Ordering::SeqCst);
        stepcount::plain();
        if quarantined == 0 {
            return;
        }
        // Take the eligible entries under the lock and free them after it
        // is released: `free` is the caller's code — it may panic, and it
        // takes the arena's free-list lock.
        {
            let mut quarantine = self.shared.lock_quarantine();
            quarantine.retain(|&entry| {
                let eligible = entry.1 + 2 <= g;
                if eligible {
                    self.adopted.push(entry);
                }
                !eligible
            });
            self.shared.mirror_quarantine_len(&quarantine);
        }
        self.adopted.reverse();
        while let Some((idx, _)) = self.adopted.pop() {
            self.unreclaimed.sub(1);
            free(idx);
        }
    }

    /// Hand every bag to the shared quarantine, keyed by its retire epoch
    /// (and with them whatever a panicking `free` left in `adopted`).
    /// Nothing is freed — transferred nodes still await their two advances —
    /// but this guard's private limbo drops to zero, so a guard stuck behind
    /// a stale pin stops accumulating and the footprint is centralized
    /// where any later guard can reclaim it.
    #[cold]
    fn transfer_to_quarantine(&mut self) {
        self.blocked_advances = 0;
        if self.limbo == 0 && self.adopted.is_empty() {
            return;
        }
        let shared = self.shared;
        let mut quarantine = shared.lock_quarantine();
        for s in 0..3 {
            let e = self.bag_epoch[s];
            quarantine.extend(self.bags[s].drain(..).map(|idx| (idx, e)));
        }
        quarantine.append(&mut self.adopted);
        shared.mirror_quarantine_len(&quarantine);
        self.limbo = 0;
    }

    /// Attempt one epoch advance (succeeds only when every pinned thread
    /// has observed the current epoch), then reclaim whatever became
    /// eligible.  Returns whether the attempt was *unblocked* (the epoch
    /// moved, or someone moved it for us); a blocked attempt bumps each
    /// stale slot's advance debt and, after [`TRANSFER_AFTER_BLOCKED`]
    /// consecutive blocks, transfers this guard's bags to quarantine.
    #[cold]
    fn try_advance(&mut self, free: &mut impl FnMut(u64)) -> bool {
        self.since_advance = 0;
        let g = self.shared.global.load(Ordering::SeqCst);
        stepcount::plain();
        let mut blocked = false;
        for local in self.shared.locals.iter() {
            let v = local.epoch.load(Ordering::SeqCst);
            stepcount::plain();
            if v != 0 && v != g + 1 {
                local.advance_debt.fetch_add(1, Ordering::SeqCst);
                stepcount::locked();
                blocked = true;
            }
        }
        if blocked {
            self.blocked_advances += 1;
            if self.blocked_advances >= TRANSFER_AFTER_BLOCKED {
                self.transfer_to_quarantine();
            }
        } else {
            self.blocked_advances = 0;
            // A failed CAS means someone else advanced for us — equally good.
            let _ =
                self.shared
                    .global
                    .compare_exchange(g, g + 1, Ordering::SeqCst, Ordering::SeqCst);
            stepcount::locked();
        }
        self.flush_eligible(free);
        !blocked
    }

    /// The arena's live capacity moved: recompute the trigger.
    #[cold]
    fn retune(&mut self, live_capacity: usize) {
        self.capacity = live_capacity;
        self.trigger = self.shared.trigger(live_capacity);
    }

    /// [`Guard::admit_alloc`] over budget: whether to admit anyway.
    #[cold]
    fn help_advance(&mut self, mut free: impl FnMut(u64)) -> bool {
        if self.pinned {
            // Mid-operation: helping would require dropping our own
            // protection.  Admit; the post-operation retire path pays the
            // advance debt.
            return true;
        }
        // Over budget: help-advance.  Admit if any attempt was unblocked
        // (the epoch moved, so limbo is draining) or the help brought us
        // back under budget; deny only when a stale pin blocked every
        // attempt — the bounded-limbo guarantee.
        let mut advanced = false;
        for _ in 0..3 {
            advanced |= self.try_advance(&mut free);
        }
        advanced || self.shared.unreclaimed() < self.limbo_budget()
    }
}

impl Guard for EpochGuard<'_> {
    // The pin already protects every reachable node, so extending
    // protection along a link only needs the snapshot's freshness confirmed
    // (the provided `protect_link*`), and link words stay bare.
    type Links = BareLinks;

    #[inline]
    fn protect(&mut self, _lane: usize, slot: SlotId) -> u64 {
        // The pin is the protection: while our local epoch is published,
        // nothing retired from now on can complete two advances, so every
        // node reachable after the pin stays allocated until we quiesce.
        self.pin();
        self.slots.load(slot)
    }

    #[inline]
    fn load(&mut self, slot: SlotId) -> u64 {
        self.slots.load(slot)
    }

    #[inline]
    fn validate(&mut self, slot: SlotId, raw: u64) -> bool {
        self.slots.validate(slot, raw)
    }

    #[inline]
    fn cas(&mut self, slot: SlotId, raw: u64, idx: u64) -> bool {
        self.slots.cas(slot, raw, idx)
    }

    // `always`: under a plain hint LLVM kept it out of line of the stack's
    // pop (cost 390 against 325).
    #[inline(always)]
    fn retire(&mut self, idx: u64, mut free: impl FnMut(u64)) {
        debug_assert!(self.pinned, "retire outside a pinned operation");
        let e = self.shared.global.load(Ordering::SeqCst);
        stepcount::plain();
        let s = (e % 3) as usize;
        if self.bag_epoch[s] != e && !self.bags[s].is_empty() {
            // The bag's residents were retired a full cycle (3 epochs) ago —
            // safely past the 2-advance bar — so the slot can be recycled.
            self.free_bag(s, &mut free);
        }
        self.bag_epoch[s] = e;
        self.bags[s].push(idx);
        self.limbo += 1;
        self.unreclaimed.add(1);
        self.since_advance += 1;
        // The operation is complete: quiesce before (possibly) scanning for
        // an advance, so our own pin never blocks it.
        self.unpin();
        if self.since_advance >= self.trigger || self.limbo >= self.trigger {
            let _ = self.try_advance(&mut free);
        }
    }

    #[inline]
    fn quiesce(&mut self) {
        self.unpin();
    }

    fn reclaim_pressure(&mut self, mut free: impl FnMut(u64)) {
        // The caller's operation is over by contract; quiesce first so our
        // own pin never blocks the advances below.  (Pre-fix this was only
        // a debug_assert, so a pinned release-mode caller silently
        // self-blocked all three attempts and reclaimed nothing.)
        self.unpin();
        // Two advances make everything in limbo eligible; a third attempt
        // covers an advance lost to a concurrent pinner in between.
        for _ in 0..3 {
            let _ = self.try_advance(&mut free);
        }
    }

    #[inline]
    fn admit_alloc(&mut self, live_capacity: usize, free: impl FnMut(u64)) -> bool {
        // Track the published arena, not the construction-time plan: the
        // trigger and budget below retune as a growable arena grows.
        if live_capacity != self.capacity {
            self.retune(live_capacity);
        }
        self.shared.unreclaimed() < self.limbo_budget() || self.help_advance(free)
    }
}

impl Drop for EpochGuard<'_> {
    fn drop(&mut self) {
        self.unpin();
        // Strand the un-freed retirees on the domain rather than leaking
        // them: the next guard to reclaim adopts them (the hazard domain's
        // orphan contract, transplanted).
        self.transfer_to_quarantine();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NIL;

    /// Layout regression: per-thread local-epoch state (written on every
    /// pin/unpin) and registered structure slots must each own a 64-byte
    /// cache line.
    #[test]
    fn local_epochs_and_slots_are_cache_line_padded() {
        let mut r = EpochReclaim::new(4, 1);
        let _ = r.add_slot(NIL);
        let _ = r.add_slot(NIL);
        for pair in r.locals.windows(2) {
            let a = &pair[0] as *const _ as usize;
            let b = &pair[1] as *const _ as usize;
            assert_eq!(a % 64, 0, "local epoch misaligned");
            assert!(b - a >= 64, "adjacent local epochs share a cache line");
        }
        let a = &r.slots.words[0] as *const _ as usize;
        let b = &r.slots.words[1] as *const _ as usize;
        assert!(
            a.is_multiple_of(64) && b - a >= 64,
            "epoch slots share a cache line"
        );
    }

    #[test]
    fn nodes_are_freed_only_after_two_advances() {
        let mut r = EpochReclaim::new(2, 1);
        let head = r.add_slot(7);
        let mut g = r.guard(0, 1024); // large capacity: no pressure trigger
        let raw = g.protect(0, head);
        assert!(g.cas(head, raw, NIL));
        let mut freed = Vec::new();
        g.retire(7, |v| freed.push(v));
        assert!(freed.is_empty());
        assert_eq!(r.unreclaimed(), 1);
        let e0 = r.global_epoch();
        g.try_advance(&mut |v| freed.push(v));
        assert_eq!(r.global_epoch(), e0 + 1);
        assert!(freed.is_empty(), "one advance is not enough");
        g.try_advance(&mut |v| freed.push(v));
        assert_eq!(freed, vec![7], "two advances free the retiree");
        assert_eq!(r.unreclaimed(), 0);
    }

    #[test]
    fn a_pinned_thread_blocks_the_advance() {
        let mut r = EpochReclaim::new(2, 1);
        let head = r.add_slot(3);
        let mut pinned = r.guard(0, 1024);
        let _ = pinned.protect(0, head); // pins thread 0
        let mut g = r.guard(1, 1024);
        let e0 = r.global_epoch();
        let mut freed = Vec::new();
        assert!(g.try_advance(&mut |v| freed.push(v)));
        assert!(!g.try_advance(&mut |v| freed.push(v)));
        assert_eq!(
            r.global_epoch(),
            e0 + 1,
            "the first advance (pinned thread is current) succeeds, the \
             second is blocked by the now-stale pin"
        );
        pinned.quiesce();
        assert!(g.try_advance(&mut |v| freed.push(v)));
        assert_eq!(r.global_epoch(), e0 + 2);
    }

    #[test]
    fn blocked_advances_accrue_advance_debt_until_unpin() {
        let mut r = EpochReclaim::new(2, 1);
        let head = r.add_slot(3);
        let mut parked = r.guard(0, 1024);
        let _ = parked.protect(0, head);
        let mut g = r.guard(1, 1024);
        let mut sink = |_v| {};
        let _ = g.try_advance(&mut sink); // unblocked: parked pin is current
        assert_eq!(r.advance_debt(0), 0);
        let _ = g.try_advance(&mut sink); // blocked by the now-stale pin
        let _ = g.try_advance(&mut sink);
        assert_eq!(
            r.advance_debt(0),
            2,
            "each blocked attempt charges the stale pin"
        );
        assert_eq!(r.advance_debt(1), 0, "the quiescent helper owes nothing");
        parked.quiesce();
        assert_eq!(r.advance_debt(0), 0, "unpinning settles the debt");
        // A pin nobody was blocked by owes nothing, before and after its
        // unpin (which then leaves the debt word alone).
        let _ = parked.protect(0, head);
        assert_eq!(r.advance_debt(0), 0);
        parked.quiesce();
        assert_eq!(r.advance_debt(0), 0);
    }

    #[test]
    fn debt_blocked_guard_transfers_its_bags_to_quarantine() {
        let mut r = EpochReclaim::new(2, 1);
        let head = r.add_slot(3);
        let mut parked = r.guard(0, 1024);
        let _ = parked.protect(0, head);
        let mut g = r.guard(1, 1024);
        let raw = g.protect(0, head);
        let _ = g.cas(head, raw, NIL);
        let mut freed = Vec::new();
        g.retire(5, |v| freed.push(v));
        assert_eq!(g.limbo, 1);
        // First attempt is unblocked (parked pin still current), the next
        // TRANSFER_AFTER_BLOCKED are blocked and trip the transfer.
        for _ in 0..=TRANSFER_AFTER_BLOCKED {
            let _ = g.try_advance(&mut |v| freed.push(v));
        }
        assert_eq!(g.limbo, 0, "bags moved out of the blocked guard");
        assert_eq!(r.quarantined(), 1);
        assert_eq!(r.unreclaimed(), 1, "transfer is not a free");
        assert!(freed.is_empty());
        // Once the parked reader quiesces, any guard's advances adopt the
        // quarantined node.
        parked.quiesce();
        let mut adopter = r.guard(0, 1024);
        adopter.reclaim_pressure(|v| freed.push(v));
        assert_eq!(freed, vec![5]);
        assert_eq!(r.quarantined(), 0);
        assert_eq!(r.unreclaimed(), 0);
    }

    #[test]
    fn admit_alloc_denies_only_when_over_budget_and_blocked() {
        let mut r = EpochReclaim::new(2, 1);
        let head = r.add_slot(NIL);
        let mut parked = r.guard(0, 64);
        let _ = parked.protect(0, head);
        let mut g = r.guard(1, 64);
        let mut freed = Vec::new();
        // Healthy guard under budget: always admitted.
        assert!(g.admit_alloc(64, |v| freed.push(v)));
        // Park enough limbo to cross the budget (trigger = 64/8 = 8,
        // budget = 2*8 + 4 = 20) while the stale pin blocks every advance.
        let _ = g.try_advance(&mut |v| freed.push(v)); // burn the one unblocked advance
        for idx in 0..24u64 {
            let raw = g.protect(0, head);
            let _ = g.cas(head, raw, NIL);
            g.retire(idx, |v| freed.push(v));
        }
        assert!(r.unreclaimed() >= 20);
        assert!(
            !g.admit_alloc(64, |v| freed.push(v)),
            "over budget with every advance blocked: allocation denied"
        );
        assert!(freed.is_empty());
        // The parked reader quiesces: the same call now helps, advances and
        // admits.
        parked.quiesce();
        assert!(g.admit_alloc(64, |v| freed.push(v)));
        assert_eq!(r.unreclaimed(), 0, "the admission help-advance reclaimed");
    }

    /// Satellite regression: the advance trigger must follow the arena's
    /// *live* capacity, not the construction-time plan.  A guard created
    /// against a `growable(8, 1 << 20)` arena's plan capacity used to get a
    /// trigger of [`ADVANCE_THRESHOLD`] — so on the 8-node published prefix
    /// nothing advanced until 32 retirements had long starved the arena.
    #[test]
    fn admit_alloc_retunes_the_trigger_to_live_capacity() {
        let mut r = EpochReclaim::new(1, 1);
        let head = r.add_slot(NIL);
        let mut g = r.guard(0, 1 << 20); // the growable arena's plan capacity
        let mut freed = Vec::new();
        // The admission check observes the published prefix: 8 live nodes.
        assert!(g.admit_alloc(8, |v| freed.push(v)));
        for idx in 0..6u64 {
            let raw = g.protect(0, head);
            let _ = g.cas(head, raw, NIL);
            g.retire(idx, |v| freed.push(v));
        }
        assert!(
            !freed.is_empty(),
            "with the trigger retuned to live capacity 8 (trigger 2), the \
             in-retire advance must have reclaimed; the plan-capacity \
             trigger (32) would still be waiting"
        );
    }

    /// The trigger is stored, not derived per operation, so it must be
    /// recomputed on every capacity change `admit_alloc` observes — and only
    /// then.
    #[test]
    fn the_stored_trigger_follows_every_capacity_change() {
        let mut r = EpochReclaim::new(2, 1);
        let _ = r.add_slot(NIL);
        let mut g = r.guard(0, 16);
        assert_eq!((g.capacity, g.trigger), (16, 2)); // 16 / (4 · 2)
        for (live, trigger) in [(64, 8), (64, 8), (160, 20)] {
            assert!(g.admit_alloc(live, |_| {}));
            assert_eq!(
                (g.capacity, g.trigger),
                (live, trigger),
                "live capacity {live}"
            );
            assert_eq!(g.limbo_budget(), 2 * (trigger as u64 + 2));
        }
    }

    #[test]
    fn pressure_reclaims_everything_when_quiescent() {
        let mut r = EpochReclaim::new(1, 1);
        let head = r.add_slot(NIL);
        let mut g = r.guard(0, 1024);
        let mut freed = Vec::new();
        for idx in 0..5u64 {
            let raw = g.protect(0, head);
            let _ = g.cas(head, raw, NIL);
            g.retire(idx, |v| freed.push(v));
        }
        assert!(freed.is_empty());
        g.reclaim_pressure(|v| freed.push(v));
        freed.sort_unstable();
        assert_eq!(freed, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.unreclaimed(), 0);
    }

    /// Satellite regression (release-mode semantics): `reclaim_pressure` on
    /// a still-pinned guard must quiesce it first.  Pre-fix the pin was only
    /// debug-asserted away, so a pinned release-mode caller self-blocked all
    /// three advance attempts and reclaimed nothing.
    #[test]
    fn pressure_on_a_pinned_guard_unpins_and_reclaims() {
        let mut r = EpochReclaim::new(1, 1);
        let head = r.add_slot(NIL);
        let mut g = r.guard(0, 1024);
        let mut freed = Vec::new();
        let raw = g.protect(0, head);
        let _ = g.cas(head, raw, NIL);
        g.retire(3, |v| freed.push(v));
        let _ = g.protect(0, head); // deliberately still pinned
        g.reclaim_pressure(|v| freed.push(v));
        assert_eq!(
            freed,
            vec![3],
            "pressure must unpin (the operation is over by contract) \
             instead of self-blocking its own advances"
        );
        assert_eq!(r.unreclaimed(), 0);
    }

    #[test]
    fn dropped_guard_orphans_its_limbo_for_adoption() {
        let mut r = EpochReclaim::new(2, 1);
        let head = r.add_slot(NIL);
        {
            let mut g = r.guard(0, 1024);
            let raw = g.protect(0, head);
            let _ = g.cas(head, raw, NIL);
            g.retire(9, |_| {});
        } // dropped with 9 still in limbo
        assert_eq!(r.unreclaimed(), 1);
        assert_eq!(r.quarantined(), 1);
        let mut adopter = r.guard(1, 1024);
        let mut freed = Vec::new();
        adopter.reclaim_pressure(|v| freed.push(v));
        assert_eq!(freed, vec![9]);
        assert_eq!(r.unreclaimed(), 0);
        assert_eq!(r.quarantined(), 0);
    }

    fn retire_one(g: &mut EpochGuard<'_>, head: SlotId, idx: u64) {
        let raw = g.protect(0, head);
        let _ = g.cas(head, raw, NIL);
        g.retire(idx, |_| {});
    }

    /// What a quarantine must still do after a worker died over it: take a
    /// debt-blocked guard's transfer, give everything up for adoption once
    /// the stale pin is gone, and be dropped over.  Returns what was freed.
    fn transfer_adopt_and_drop(r: &EpochReclaim, head: SlotId, idx: u64) -> Vec<u64> {
        let mut parked = r.guard(0, 1024);
        let _ = parked.protect(0, head);
        let mut g = r.guard(1, 1024);
        let mut freed = Vec::new();
        let _ = g.try_advance(&mut |v| freed.push(v)); // the one unblocked advance
        let before = r.quarantined();
        retire_one(&mut g, head, idx);
        for _ in 0..TRANSFER_AFTER_BLOCKED {
            let _ = g.try_advance(&mut |v| freed.push(v));
        }
        assert_eq!(r.quarantined(), before + 1, "the transfer went through");
        parked.quiesce();
        g.reclaim_pressure(|v| freed.push(v));
        retire_one(&mut g, head, idx + 1);
        drop(g); // with limbo: the drop takes the quarantine lock too
        r.guard(1, 1024).reclaim_pressure(|v| freed.push(v));
        freed.sort_unstable();
        freed
    }

    /// Satellite regression: `free` is the caller's code and may panic.  It
    /// used to run inside `quarantine.retain` with the lock held, so the
    /// unwinding thread's own guard drop — which takes that lock whenever
    /// the guard still holds limbo — hit a poisoned lock: a panic while
    /// panicking, and the process aborted.
    #[test]
    fn a_free_that_panics_during_adoption_loses_only_its_own_node() {
        let mut r = EpochReclaim::new(2, 1);
        let head = r.add_slot(NIL);
        {
            let mut g = r.guard(0, 1024);
            for idx in [7, 8, 9] {
                retire_one(&mut g, head, idx);
            }
        } // dropped: 7, 8, 9 quarantined at epoch 0
        assert_eq!(r.quarantined(), 3);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let mut g = r.guard(1, 1024);
                let _ = g.try_advance(&mut |_| {});
                retire_one(&mut g, head, 20); // limbo of its own, one epoch younger
                g.reclaim_pressure(|v| assert_ne!(v, 8, "bad index"));
            })
            .join()
        });
        assert!(panicked.is_err());
        assert!(
            !r.quarantine.is_poisoned(),
            "no callback runs under the lock"
        );
        // 7 was freed and 8 died with its callback; 9 (adopted, not yet
        // freed) and 20 (still in limbo) went back with the guard's drop.
        assert_eq!(r.quarantined(), 2);
        assert_eq!(r.unreclaimed(), 2);
        assert_eq!(transfer_adopt_and_drop(&r, head, 30), vec![9, 20, 30, 31]);
        assert_eq!(r.quarantined(), 0);
        assert_eq!(r.unreclaimed(), 0);
    }

    #[test]
    fn a_poisoned_quarantine_lock_is_recovered() {
        let mut r = EpochReclaim::new(2, 1);
        let head = r.add_slot(NIL);
        {
            let mut g = r.guard(0, 1024);
            retire_one(&mut g, head, 7);
        }
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = r.quarantine.lock().unwrap();
                panic!("poison the quarantine lock");
            })
            .join()
        });
        assert!(panicked.is_err());
        assert!(r.quarantine.is_poisoned());
        // The list is a plain vector of pairs: nothing a panic can break.
        assert_eq!(transfer_adopt_and_drop(&r, head, 30), vec![7, 30, 31]);
        assert_eq!(r.quarantined(), 0);
        assert_eq!(r.unreclaimed(), 0);
    }

    #[test]
    fn adoption_on_another_thread_drives_that_cell_negative_and_the_sum_to_zero() {
        let mut r = EpochReclaim::new(2, 1);
        let head = r.add_slot(NIL);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut g = r.guard(0, 1024);
                retire_one(&mut g, head, 5);
                retire_one(&mut g, head, 6);
            })
            .join()
            .unwrap();
            assert_eq!(r.unreclaimed(), 2);
            s.spawn(|| r.guard(1, 1024).reclaim_pressure(|_| {}))
                .join()
                .unwrap();
        });
        assert_eq!(r.unreclaimed(), 0);
        assert_eq!(r.unreclaimed.cell_value(0), 2);
        assert_eq!(r.unreclaimed.cell_value(1), -2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_tid_is_rejected() {
        let _ = EpochReclaim::new(2, 1).guard(2, 8);
    }

    #[test]
    fn small_arena_pressure_trigger_fires_inside_retire() {
        // capacity 8 => the 2nd limbo node crosses limbo*4 >= capacity and
        // retire itself attempts the advances.
        let mut r = EpochReclaim::new(1, 1);
        let head = r.add_slot(NIL);
        let mut g = r.guard(0, 8);
        let mut freed = Vec::new();
        for idx in 0..6u64 {
            let raw = g.protect(0, head);
            let _ = g.cas(head, raw, NIL);
            g.retire(idx, |v| freed.push(v));
        }
        assert!(
            !freed.is_empty(),
            "the in-retire advance trigger must reclaim under pressure"
        );
    }
}
