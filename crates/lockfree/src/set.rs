//! Harris–Michael ordered sets with pluggable ABA protection (experiment
//! E10).
//!
//! The sorted linked-list set is the *traversal-based* ABA workload: unlike
//! the stack and queue, an operation holds references deep inside the chain
//! — a predecessor's link word and the current node — across an unbounded
//! window, which is exactly where recycling a node is most dangerous (a
//! stale insert CAS re-attaches the new node to an unlinked predecessor and
//! the value is silently lost).  As with the other families there is exactly
//! **one** insert/remove/contains implementation — [`GenericSet`]`<R>` —
//! over the shared [`NodeArena`]; the five scheme instantiations differ only
//! in the [`Reclaimer`] type parameter:
//!
//! | Alias | Reclaimer | ABA handling | Expected outcome |
//! |-------|-----------|--------------|------------------|
//! | [`UnprotectedSet`] | [`NoReclaim`] | none | lost unlinks, lost inserts |
//! | [`TaggedSet`] | [`TagReclaim`] | counted head *and* link words | correct |
//! | [`HazardSet`] | [`HazardReclaim`] | three hand-over-hand hazards | correct |
//! | [`EpochSet`] | [`EpochReclaim`] | epoch / quiescence reclamation | correct |
//! | [`LlScSet`] | [`LlScReclaim`] | LL/SC head + counted links | correct |
//!
//! Logical deletion follows Harris: a node's *own* next link carries a mark
//! bit (folded into each reclaimer's link-word encoding — see
//! `aba_reclaim::Guard::cas_link_mark` and DESIGN.md §7), so one CAS
//! atomically checks "successor unchanged AND not deleted".  Physical
//! unlinking is Michael's helped variant: any traversal that meets a marked
//! node CASes it out of the chain and [`retires`](aba_reclaim::Guard::retire)
//! it, then restarts from the head.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use aba_core::Backoff;
use aba_reclaim::{
    EpochReclaim, Guard, HazardReclaim, LlScReclaim, NoReclaim, Reclaimer, SlotId, TagReclaim,
};

use crate::arena::{NodeArena, NIL};
use crate::{Family, Production, Racing, Window};

/// A bounded, concurrent ordered set of `u32` keys with per-thread handles.
pub trait Set: Send + Sync {
    /// Maximum number of elements (arena capacity).
    fn capacity(&self) -> usize;
    /// Display name for experiment tables.
    fn name(&self) -> &'static str;
    /// Number of ABA events detected so far (always 0 for the protected
    /// variants).
    fn aba_events(&self) -> u64;
    /// Nodes retired but not yet returned to the arena — the protection
    /// scheme's space overhead (0 for immediate-free schemes).
    fn unreclaimed(&self) -> u64;
    /// Number of operations that failed on the allocation fast path (arena
    /// exhausted, or allocation denied by the scheme's limbo-bound
    /// admission): the ops a throughput report must not count as completed.
    fn alloc_failures(&self) -> u64 {
        0
    }
    /// Obtain the per-thread handle for `tid`: operations run at algorithm
    /// cost.
    fn handle(&self, tid: usize) -> Box<dyn SetHandle + '_>;
    /// The same handle with the preemption window open: the thread yields
    /// at every traversal step and before every link CAS.  For the stress
    /// harnesses, race-provoking tests and the workload engine's contended
    /// cells (DESIGN.md §7).
    fn racing_handle(&self, tid: usize) -> Box<dyn SetHandle + '_>;
}

/// Per-thread handle of a [`Set`].
pub trait SetHandle: Send {
    /// Insert `key`; `false` if it was already present (or the arena is
    /// exhausted / the unprotected variant's retry budget ran out).
    fn insert(&mut self, key: u32) -> bool;
    /// Remove `key`; `false` if it was absent.
    fn remove(&mut self, key: u32) -> bool;
    /// Whether `key` is currently a member.
    fn contains(&mut self, key: u32) -> bool;
}

/// The three protection lanes of a traversal, rotated hand-over-hand: the
/// predecessor node (whose link word the operation will CAS), the current
/// node (whose key and link are read) and the successor being adopted.
const LANES: usize = 3;

/// Harris–Michael sorted linked-list set over a [`NodeArena`], generic in
/// its ABA-protection / reclamation scheme `R`.  The head word lives inside
/// the reclaimer; every per-node next link is a *mark-capable* link word
/// owned by the guard's encoding.
#[derive(Debug)]
pub struct GenericSet<R: Reclaimer> {
    arena: NodeArena,
    reclaim: R,
    head: SlotId,
    aba_events: AtomicU64,
    alloc_failures: AtomicU64,
}

impl<R: Reclaimer> GenericSet<R> {
    /// A set that can hold `capacity` keys, used by at most `threads`
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or too large for the scheme's index field.
    pub fn with_threads(capacity: usize, threads: usize) -> Self {
        assert!(capacity < u32::MAX as usize, "capacity too large");
        let mut reclaim = R::new(threads, LANES);
        let head = reclaim.add_slot(NIL);
        GenericSet {
            arena: NodeArena::new(capacity),
            reclaim,
            head,
            aba_events: AtomicU64::new(0),
            alloc_failures: AtomicU64::new(0),
        }
    }
}

impl<R: Reclaimer> Set for GenericSet<R> {
    fn capacity(&self) -> usize {
        self.arena.capacity()
    }

    fn name(&self) -> &'static str {
        Family::Set.label(R::SCHEME)
    }

    fn aba_events(&self) -> u64 {
        self.aba_events.load(Ordering::SeqCst)
    }

    fn unreclaimed(&self) -> u64 {
        self.reclaim.unreclaimed()
    }

    fn alloc_failures(&self) -> u64 {
        self.alloc_failures.load(Ordering::SeqCst)
    }

    fn handle(&self, tid: usize) -> Box<dyn SetHandle + '_> {
        Box::new(GenericSetHandle::<R, Production>::new(self, tid))
    }

    fn racing_handle(&self, tid: usize) -> Box<dyn SetHandle + '_> {
        Box::new(GenericSetHandle::<R, Racing>::new(self, tid))
    }
}

struct GenericSetHandle<'a, R: Reclaimer, W: Window> {
    set: &'a GenericSet<R>,
    guard: R::Guard<'a>,
    backoff: Backoff,
    window: PhantomData<W>,
}

impl<'a, R: Reclaimer, W: Window> GenericSetHandle<'a, R, W> {
    fn new(set: &'a GenericSet<R>, tid: usize) -> Self {
        GenericSetHandle {
            set,
            guard: set.reclaim.guard(tid, set.arena.live_capacity()),
            backoff: Backoff::new(tid as u64),
            window: PhantomData,
        }
    }
}

impl<R: Reclaimer, W: Window> std::fmt::Debug for GenericSetHandle<'_, R, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenericSetHandle").finish_non_exhaustive()
    }
}

/// Iteration budget for one operation, spent on every traversal step as well
/// as every restart: an ABA under the unprotected scheme can link the chain
/// into a cycle, and an unbounded *walk* wedges just as hard as an unbounded
/// retry loop.
struct Budget(Option<usize>);

impl Budget {
    fn spend(&mut self) -> bool {
        match &mut self.0 {
            None => true,
            Some(0) => false,
            Some(n) => {
                *n -= 1;
                true
            }
        }
    }
}

/// Where a traversal's predecessor word lives: the head slot, or the
/// (mark-capable) next link of node `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prev {
    Head,
    Node(u64),
}

/// Result of one successful traversal: the predecessor word and its observed
/// raw, the candidate node (`NIL` when the key belongs at the tail) with its
/// observed next word, and the generations that make post-CAS ABA accounting
/// possible for the unprotected scheme.
#[derive(Debug, Clone, Copy)]
struct Traversal {
    prev: Prev,
    prev_raw: u64,
    prev_gen: u64,
    cur: u64,
    cur_next_raw: u64,
    cur_gen: u64,
    found: bool,
}

impl<R: Reclaimer, W: Window> GenericSetHandle<'_, R, W> {
    fn budget(&self) -> Budget {
        Budget(self.set.reclaim.retry_bound(self.set.arena.live_capacity()))
    }

    /// Whether the predecessor word still holds `raw` (Michael's
    /// `*prev == cur` re-validation).
    fn validate_prev(&mut self, prev: Prev, raw: u64) -> bool {
        match prev {
            Prev::Head => self.guard.validate(self.set.head, raw),
            Prev::Node(p) => self.guard.validate_link(self.set.arena.next_word(p), raw),
        }
    }

    /// CAS the predecessor word from `raw` to an unmarked word designating
    /// `idx` — the physical unlink and the insert splice share this shape.
    fn cas_prev(&mut self, prev: Prev, raw: u64, idx: u64) -> bool {
        match prev {
            Prev::Head => self.guard.cas(self.set.head, raw, idx),
            Prev::Node(p) => self
                .guard
                .cas_link_mark(self.set.arena.next_word(p), raw, idx, false),
        }
    }

    /// The Harris–Michael `find`: walk the chain to the first node with
    /// `node.key >= key`, physically unlinking (and retiring) every marked
    /// node met on the way.  On return the traversal's protections are still
    /// held — lane-rotated hand-over-hand for hazard pointers, the pin for
    /// epochs — so the caller may CAS and dereference what it names.
    /// `None` means the budget ran out (unprotected corruption).
    fn find(&mut self, key: u32, budget: &mut Budget) -> Option<Traversal> {
        let arena = &self.set.arena;
        'restart: loop {
            if !budget.spend() {
                return None;
            }
            // The current node's protection lane; successors rotate through
            // the other two, so the lane being overwritten always belongs to
            // a node two hops behind the predecessor — out of scope.
            let mut lane = 0usize;
            let mut prev = Prev::Head;
            let mut prev_raw = self.guard.protect(lane, self.set.head);
            let mut prev_gen = 0u64;
            let mut cur = self.guard.index_of(prev_raw);
            loop {
                if !budget.spend() {
                    return None;
                }
                if cur == NIL {
                    return Some(Traversal {
                        prev,
                        prev_raw,
                        prev_gen,
                        cur: NIL,
                        cur_next_raw: 0,
                        cur_gen: 0,
                        found: false,
                    });
                }
                let cur_gen = arena.generation(cur);
                let next_raw = self.guard.load_link(arena.next_word(cur));
                // Re-validate prev -> cur before trusting the snapshot: a
                // CAS that lands between our two reads would otherwise hand
                // us a successor of an already-unlinked node.
                if !self.validate_prev(prev, prev_raw) {
                    continue 'restart;
                }
                let next = self.guard.marked_index_of(next_raw);
                if self.guard.mark_of(next_raw) {
                    // cur is logically deleted: help unlink it, retire it,
                    // and restart (the CAS invalidated our snapshot anyway).
                    W::preemption_window();
                    if self.cas_prev(prev, prev_raw, next) {
                        if arena.generation(cur) != cur_gen {
                            self.set.aba_events.fetch_add(1, Ordering::SeqCst);
                        }
                        self.guard.retire(cur, |i| arena.free(i));
                    }
                    continue 'restart;
                }
                // The decisive window of a traversal: the snapshot was
                // validated, and the node's key is about to steer the final
                // answer.  A scheme whose protection lapsed here (a hazard
                // published too late for the retirement scan, a stale epoch
                // pin) reads the key of a *recycled* node and reports a
                // present key absent.  A racing handle yields here, under
                // every scheme alike, so the E10 incidence columns measure
                // the protection strategy and not the accident of scheduling.
                W::preemption_window();
                let cur_key = arena.value(cur);
                if cur_key >= key {
                    return Some(Traversal {
                        prev,
                        prev_raw,
                        prev_gen,
                        cur,
                        cur_next_raw: next_raw,
                        cur_gen,
                        found: cur_key == key,
                    });
                }
                // Advance hand-over-hand: protect the successor while the
                // current node is still protected, then shift roles.
                lane = (lane + 1) % LANES;
                if next != NIL
                    && !self
                        .guard
                        .protect_link_word(lane, next, arena.next_word(cur), next_raw)
                {
                    continue 'restart;
                }
                prev = Prev::Node(cur);
                prev_raw = next_raw;
                prev_gen = cur_gen;
                cur = next;
            }
        }
    }

    /// Budget exhausted: record the event and leave the structure alone.
    fn bail(&mut self) {
        self.set.aba_events.fetch_add(1, Ordering::SeqCst);
        self.guard.quiesce();
    }
}

impl<R: Reclaimer, W: Window> SetHandle for GenericSetHandle<'_, R, W> {
    fn insert(&mut self, key: u32) -> bool {
        let arena = &self.set.arena;
        // Admission before allocation: a deferred scheme retunes its
        // capacity-derived trigger to the live arena and may deny the
        // allocation while its limbo bound is violated by a stale pin.
        if !self
            .guard
            .admit_alloc(arena.live_capacity(), |i| arena.free(i))
        {
            self.set.alloc_failures.fetch_add(1, Ordering::SeqCst);
            return false;
        }
        // Allocate before the traversal: the allocation-pressure fallback
        // must run quiesced (deferred schemes reclaim here), and the node is
        // exclusively ours until the splice CAS publishes it.
        let idx = match arena.alloc() {
            Some(idx) => idx,
            None => {
                self.guard.reclaim_pressure(|i| arena.free(i));
                match arena.alloc() {
                    Some(idx) => idx,
                    None => {
                        self.set.alloc_failures.fetch_add(1, Ordering::SeqCst);
                        return false;
                    }
                }
            }
        };
        arena.set_value(idx, key);
        let mut budget = self.budget();
        loop {
            let t = match self.find(key, &mut budget) {
                Some(t) => t,
                None => {
                    self.bail();
                    arena.free(idx);
                    return false;
                }
            };
            if t.found {
                self.guard.quiesce();
                arena.free(idx);
                return false;
            }
            // Point our node at the successor, then splice it in.  The
            // store goes through the guard so tagging schemes bump the
            // link's tag across recycling.
            self.guard
                .store_link_mark(arena.next_word(idx), t.cur, false);
            W::preemption_window();
            if self.cas_prev(t.prev, t.prev_raw, idx) {
                if let Prev::Node(p) = t.prev {
                    // The splice succeeded — but did it splice onto the node
                    // we inspected, or onto a recycled incarnation?  Only
                    // the unprotected scheme can trip this.
                    if arena.generation(p) != t.prev_gen {
                        self.set.aba_events.fetch_add(1, Ordering::SeqCst);
                    }
                }
                self.guard.quiesce();
                self.backoff.reset();
                return true;
            }
            // Lost the splice race: back off before re-finding.
            self.backoff.pause();
        }
    }

    fn remove(&mut self, key: u32) -> bool {
        let arena = &self.set.arena;
        let mut budget = self.budget();
        loop {
            let t = match self.find(key, &mut budget) {
                Some(t) => t,
                None => {
                    self.bail();
                    return false;
                }
            };
            if !t.found {
                self.guard.quiesce();
                return false;
            }
            let next = self.guard.marked_index_of(t.cur_next_raw);
            // Logical deletion: one CAS sets the mark in cur's own link,
            // atomically verifying the successor did not change.  From this
            // instant the key is gone; everything after is physical cleanup.
            W::preemption_window();
            if !self
                .guard
                .cas_link_mark(arena.next_word(t.cur), t.cur_next_raw, next, true)
            {
                // Raced with another mutation on cur: back off, then re-find.
                self.backoff.pause();
                continue;
            }
            // Physical unlink.  On failure some helper's traversal will (or
            // already did) unlink and retire the node — exactly one thread
            // wins that CAS, so exactly one retires.
            if self.cas_prev(t.prev, t.prev_raw, next) {
                if arena.generation(t.cur) != t.cur_gen {
                    self.set.aba_events.fetch_add(1, Ordering::SeqCst);
                }
                self.guard.retire(t.cur, |i| arena.free(i));
            } else {
                self.guard.quiesce();
            }
            self.backoff.reset();
            return true;
        }
    }

    fn contains(&mut self, key: u32) -> bool {
        let mut budget = self.budget();
        match self.find(key, &mut budget) {
            Some(t) => {
                self.guard.quiesce();
                t.found
            }
            None => {
                self.bail();
                false
            }
        }
    }
}

impl<R: Reclaimer, W: Window> Drop for GenericSetHandle<'_, R, W> {
    fn drop(&mut self) {
        let arena = &self.set.arena;
        self.guard.quiesce();
        self.guard.reclaim_pressure(|i| arena.free(i));
        // Whatever a deferred scheme still cannot free is orphaned onto its
        // domain by the guard's own drop and adopted by a later reclaim.
    }
}

/// HM set with bare-index words and immediate node recycling — the traversal
/// ABA victim.  Operations bail out after a bounded number of steps
/// (counting the bailout as an ABA event) so a cycled chain cannot wedge the
/// harness.
pub type UnprotectedSet = GenericSet<NoReclaim>;

/// HM set whose head and per-node links are `(index, tag)` counted words
/// with the deleted mark folded into the tag field; every successful CAS
/// bumps the tag (§1 tagging).
pub type TaggedSet = GenericSet<TagReclaim>;

/// HM set with bare-index words protected by hazard pointers: each thread
/// publishes up to three hazards hand-over-hand (predecessor, current,
/// successor), and an unlinked node is retired rather than freed.
pub type HazardSet = GenericSet<HazardReclaim>;

/// HM set under epoch-based reclamation: every operation pins the current
/// epoch, and an unlinked node returns to the arena only after two advances.
pub type EpochSet = GenericSet<EpochReclaim>;

/// HM set whose head is an LL/SC/VL object and whose links are counted
/// words: the SC fails whenever a successful SC intervened, and a stale link
/// CAS fails on the bumped tag.
pub type LlScSet = GenericSet<LlScReclaim>;

impl GenericSet<NoReclaim> {
    /// A set backed by `capacity` nodes (thread count is irrelevant to the
    /// unprotected scheme).
    pub fn new(capacity: usize) -> Self {
        Self::with_threads(capacity, 1)
    }
}

impl GenericSet<TagReclaim> {
    /// A set backed by `capacity` nodes (thread count is irrelevant to the
    /// tagging scheme).
    pub fn new(capacity: usize) -> Self {
        Self::with_threads(capacity, 1)
    }
}

impl GenericSet<HazardReclaim> {
    /// A set backed by `capacity` nodes, used by at most `threads` threads.
    pub fn new(capacity: usize, threads: usize) -> Self {
        Self::with_threads(capacity, threads)
    }
}

impl GenericSet<EpochReclaim> {
    /// A set backed by `capacity` nodes, used by at most `threads` threads.
    pub fn new(capacity: usize, threads: usize) -> Self {
        Self::with_threads(capacity, threads)
    }
}

impl GenericSet<LlScReclaim> {
    /// A set backed by `capacity` nodes, used by at most `threads` threads.
    pub fn new(capacity: usize, threads: usize) -> Self {
        Self::with_threads(capacity, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_smoke(set: &dyn Set) {
        let mut h = set.handle(0);
        assert!(!h.contains(5));
        assert!(h.insert(5));
        assert!(h.insert(3));
        assert!(h.insert(9));
        assert!(!h.insert(5), "duplicate insert must fail");
        assert!(h.contains(3));
        assert!(h.contains(5));
        assert!(h.contains(9));
        assert!(!h.contains(4));
        assert!(h.remove(5));
        assert!(!h.remove(5), "double remove must fail");
        assert!(!h.contains(5));
        assert!(h.contains(3));
        assert!(h.contains(9));
        assert!(h.remove(3));
        assert!(h.remove(9));
        assert!(!h.contains(3));
        assert!(!h.contains(9));
    }

    #[test]
    fn all_variants_behave_as_a_set_sequentially() {
        set_smoke(&UnprotectedSet::new(8));
        set_smoke(&TaggedSet::new(8));
        set_smoke(&HazardSet::new(8, 2));
        set_smoke(&EpochSet::new(8, 2));
        set_smoke(&LlScSet::new(8, 2));
    }

    #[test]
    fn keys_are_kept_sorted_through_churn() {
        // Insert out of order, remove the middle, re-insert: membership (not
        // position) is what the interface exposes, but the ordered traversal
        // means a misplaced splice shows up as a lost key.
        for set in [
            Box::new(TaggedSet::new(16)) as Box<dyn Set>,
            Box::new(HazardSet::new(16, 1)),
            Box::new(EpochSet::new(16, 1)),
            Box::new(LlScSet::new(16, 1)),
        ] {
            let mut h = set.handle(0);
            for key in [8u32, 2, 12, 4, 10, 6] {
                assert!(h.insert(key), "{} insert {key}", set.name());
            }
            for round in 0..100u32 {
                let key = 2 * (round % 6) + 2;
                assert!(h.remove(key), "{} round {round}", set.name());
                assert!(!h.contains(key));
                assert!(h.insert(key));
                for probe in [2u32, 4, 6, 8, 10, 12] {
                    assert!(h.contains(probe), "{} lost {probe}", set.name());
                }
            }
            assert_eq!(set.aba_events(), 0);
        }
    }

    #[test]
    fn capacity_is_respected() {
        let set = TaggedSet::new(2);
        assert_eq!(set.capacity(), 2);
        let mut h = set.handle(0);
        assert!(h.insert(1));
        assert!(h.insert(2));
        assert!(!h.insert(3), "arena exhausted");
        assert!(h.remove(1));
        assert!(h.insert(3));
        assert!(h.contains(2));
        assert!(h.contains(3));
    }

    #[test]
    fn boundary_keys_insert_at_head_and_tail() {
        for set in [
            Box::new(UnprotectedSet::new(8)) as Box<dyn Set>,
            Box::new(TaggedSet::new(8)),
            Box::new(HazardSet::new(8, 1)),
            Box::new(EpochSet::new(8, 1)),
            Box::new(LlScSet::new(8, 1)),
        ] {
            let mut h = set.handle(0);
            assert!(h.insert(50));
            assert!(h.insert(0), "{}: head insert", set.name());
            assert!(h.insert(u32::MAX), "{}: tail insert", set.name());
            assert!(h.contains(0) && h.contains(50) && h.contains(u32::MAX));
            assert!(h.remove(0), "{}: head remove", set.name());
            assert!(h.remove(u32::MAX), "{}: tail remove", set.name());
            assert!(h.contains(50));
        }
    }

    #[test]
    fn removed_nodes_recycle_in_protected_variants() {
        for set in [
            Box::new(TaggedSet::new(4)) as Box<dyn Set>,
            Box::new(HazardSet::new(4, 1)),
            Box::new(EpochSet::new(4, 1)),
            Box::new(LlScSet::new(4, 1)),
        ] {
            let mut h = set.handle(0);
            for round in 0..200u32 {
                for key in [1u32, 2, 3, 4] {
                    assert!(h.insert(key), "{} round {round} key {key}", set.name());
                }
                for key in [2u32, 4, 1, 3] {
                    assert!(h.remove(key), "{} round {round} key {key}", set.name());
                }
            }
            assert_eq!(set.aba_events(), 0);
        }
    }

    #[test]
    fn hazard_set_returns_nodes_to_arena_on_handle_drop() {
        let set = HazardSet::new(4, 2);
        {
            let mut h = set.handle(0);
            for key in 0..4 {
                assert!(h.insert(key));
            }
            for key in 0..4 {
                assert!(h.remove(key));
            }
        }
        let mut h = set.handle(1);
        for key in 0..4 {
            assert!(h.insert(key), "node for key {key} was not reclaimed");
        }
    }

    #[test]
    fn epoch_set_returns_nodes_to_arena_on_handle_drop() {
        let set = EpochSet::new(4, 2);
        {
            let mut h = set.handle(0);
            for key in 0..4 {
                assert!(h.insert(key));
            }
            for key in 0..4 {
                assert!(h.remove(key));
            }
        }
        let mut h = set.handle(1);
        for key in 0..4 {
            assert!(h.insert(key), "node for key {key} was not reclaimed");
        }
    }

    #[test]
    fn contains_leaves_no_hazards_published() {
        // A traversal ends through `quiesce`, which must clear all three
        // lanes — a leaked hazard would pin arena nodes while the handle
        // idles (the queue's two-lane regression, one lane wider).
        let set = HazardSet::new(8, 2);
        let mut h = set.handle(0);
        for key in [1u32, 2, 3] {
            assert!(h.insert(key));
        }
        assert!(h.contains(3));
        assert!(!h.contains(9));
        let domain = set.reclaim.domain();
        for lane in 0..LANES {
            assert_eq!(domain.protected_by(lane), None, "lane {lane} leaked");
        }
    }

    #[test]
    fn deferred_schemes_report_their_limbo_footprint() {
        let set = EpochSet::new(64, 1);
        let mut h = set.handle(0);
        assert!(h.insert(1));
        assert!(h.remove(1));
        assert_eq!(set.unreclaimed(), 1);
        drop(h);
        assert_eq!(set.unreclaimed(), 0);
    }

    /// The hand-over-hand publication order is load-bearing, shown with
    /// real threads and a barrier: a raw-guard traverser repeatedly adopts
    /// the head's successor with [`Guard::protect_link_word`] while a
    /// churner recycles that exact position through a capacity-tight arena.
    /// Whenever adoption *succeeds*, the adopted node must still carry a
    /// key legal for that position — publish-then-validate guarantees it
    /// (the hazard was visible to every later retirement scan, or the
    /// validation failed and adoption was refused).  Verified to fail when
    /// `HazardGuard::protect_link_word` is swapped to validate-then-publish:
    /// the traverser loop has no yield points, so the OS regularly preempts
    /// it *between* the two halves, the churner's scan misses the
    /// unpublished hazard, frees the node, recycles it as the key-50 tail —
    /// and the late publication "succeeds" against a stale validation,
    /// handing the traversal a recycled node (observed key 50).
    #[test]
    fn hand_over_hand_publication_order_is_load_bearing() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;

        // Capacity 4 = exactly the live keys, no spare: the retire of the
        // key-20 node crosses the flush threshold immediately, and the next
        // insert can only be served by that very node coming back through
        // the scan — so a scan that misses an unpublished hazard hands the
        // traverser's node straight to the key-50 insert.
        let set = HazardSet::new(4, 2);
        {
            let mut h = set.handle(0);
            for key in [10u32, 20, 30, 40] {
                assert!(h.insert(key));
            }
        }
        let barrier = Barrier::new(2);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Churner: cycle key 20 (the probed position) and key 50
                // (the tail — whose node, once recycled, is what a broken
                // traverser adopts) through the arena.  Wall-clock bounded:
                // the yield-free traverser burns whole scheduler quanta, so
                // a round count would translate into minutes.
                let mut h = set.racing_handle(0);
                barrier.wait();
                // determinism: wall-clock deadline is deliberate here (see
                // the comment above); test-only, never in simulation code.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while std::time::Instant::now() < deadline {
                    assert!(h.remove(20));
                    while !h.insert(50) {
                        std::thread::yield_now();
                    }
                    assert!(h.remove(50));
                    while !h.insert(20) {
                        std::thread::yield_now();
                    }
                }
                done.store(true, Ordering::SeqCst);
            });
            let traverser = s.spawn(|| {
                // Raw-guard traversal of the first hop, exactly as `find`
                // performs it — but with no yields, so preemption lands at
                // every possible instruction boundary.
                let mut g = set.reclaim.guard(1, set.arena.live_capacity());
                barrier.wait();
                let mut adoptions = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let head_raw = g.protect(0, set.head);
                    let first = g.index_of(head_raw);
                    assert_eq!(set.arena.value(first), 10, "head key is stable");
                    let next_raw = g.load_link(set.arena.next_word(first));
                    let x = g.marked_index_of(next_raw);
                    if x != NIL && g.protect_link_word(1, x, set.arena.next_word(first), next_raw) {
                        // Adopted: x is protected and was 10's successor at
                        // the validating load, so its key must be 20 (or 30
                        // while 20 is out).  A recycled node reads 50.
                        adoptions += 1;
                        let key = set.arena.value(x);
                        assert!(
                            key == 20 || key == 30,
                            "adopted a recycled node carrying key {key}"
                        );
                    }
                    g.quiesce();
                }
                adoptions
            });
            let adoptions = traverser.join().expect("traverser panicked");
            assert!(adoptions > 0, "the traverser never adopted a successor");
        });
    }

    #[test]
    fn unreclaimed_is_zero_for_immediate_free_schemes() {
        for set in [
            Box::new(UnprotectedSet::new(4)) as Box<dyn Set>,
            Box::new(TaggedSet::new(4)),
            Box::new(LlScSet::new(4, 1)),
        ] {
            let mut h = set.handle(0);
            assert!(h.insert(1));
            assert!(h.remove(1));
            drop(h);
            assert_eq!(set.unreclaimed(), 0, "{}", set.name());
        }
    }
}
