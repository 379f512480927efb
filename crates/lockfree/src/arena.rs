//! A segmented, growable node arena with index-based links.
//!
//! The lock-free structures in this crate identify nodes by *arena index*
//! rather than by raw pointer.  This keeps the whole repository free of
//! `unsafe` while preserving the phenomenon under study: recycling an index
//! through the free list and pushing it again is exactly the "pointer comes
//! back with the same bits" situation that makes a naive CAS-based stack
//! unsafe (the paper's §1 motivation and [19, 20, 23, 24, 31]).
//!
//! Every node carries a *generation* counter that is bumped on every
//! allocation; the unprotected structures use it to count, after the fact,
//! how many of their successful CASes actually acted on a recycled node (an
//! "ABA event").
//!
//! # Segmented index encoding
//!
//! The arena is a **fixed root table of segment slots**; each slot is
//! published at most once with a freshly allocated block of nodes.  An index
//! is
//!
//! ```text
//! index = segment << SEG_SHIFT | offset        (offset < 2^SEG_SHIFT)
//! ```
//!
//! so the arena can *grow* — publish further segments on demand — without
//! moving a single existing node and without changing the meaning of any
//! index already stored in a link word.  The index domain is deliberately
//! kept strictly inside the 32-bit index field of both `aba-reclaim` word
//! codecs, which encode every slot and link word (the bare codec keeps the
//! index in the low 32 bits with `0xFFFF_FFFF` as nil and the mark in bit
//! 32; the counted codec's `TagWord` value field — also the value an LL/SC
//! slot holds — is a `u32` with `u32::MAX` as nil) — see the
//! `index_budget_fits_every_link_word_encoding` test and DESIGN.md §10.
//! The arena never reads or writes a link itself: it hands out the raw word
//! ([`NodeArena::next_word`]) for the guard to encode and decode.
//!
//! Publication is lock-free in the only sense that matters here: the slot is
//! a one-shot cell and exactly one of the racing publishers wins it (the
//! losers' freshly built segments are dropped, a bounded waste); nobody ever
//! *unpublishes*, so a reader that obtained an index can always reach its
//! node.
//!
//! # The free list: a shared vector behind per-handle magazines
//!
//! The arena's own free list is a mutex-protected LIFO vector: it is harness
//! infrastructure, not the structure under test, and keeping it trivially
//! correct means every anomaly observed in the experiments is attributable to
//! the structure's own link-word CASes.  [`NodeArena::alloc`] and
//! [`NodeArena::free`] go straight to it.
//!
//! A structure handle does not.  It owns a [`Magazine`] (Bonwick & Adams,
//! "Magazines and Vmem", USENIX ATC 2001): a plain `Vec` of free indices
//! that serves the handle's allocations and takes its frees with no lock and
//! no atomic, refills from the shared list and spills to it half a magazine
//! at a time, and drains back into it when the handle drops.  Its capacity
//! is `min(32, live_capacity / (8 · handles))`, re-derived whenever it
//! touches the shared list, so all magazines together never hold more than
//! an eighth of the published nodes — and an arena too small to spare that
//! (capacity 0) runs the shared path, index for index.  That floor is
//! deliberate: thread-local LIFO recycling hands a popper its own node
//! straight back, and an ABA that puts the same node back in the same place
//! harms nothing (E22: forced to hold one node on E6's 16-node arena, a
//! magazine roughly halved the unprotected stack's lost values; the scratch
//! prototype that sized this design lost none at all).  The §1
//! demonstration runs on exactly such arenas, and runs them unchanged.
//!
//! # Cache-line padding
//!
//! Every node is padded to its own 64-byte cache line, and the arena's hot
//! words (the free-list mutex, the published-segment counter and the
//! live-capacity gauge) each get a private line as well: with nodes packed
//! densely, a CAS on one node's link word invalidated its neighbours' lines
//! and the measured cost of a protection scheme was polluted by false
//! sharing (first bite of the ROADMAP's false-sharing audit; the
//! `node_layout_is_cache_line_padded` test pins the layout).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use aba_core::{stepcount, CachePadded};

/// Index value meaning "null".  (Identical to `aba_reclaim::NIL`: the
/// reclamation schemes and the arena agree on the decoded-index domain.)
pub const NIL: u64 = u64::MAX;

/// Bits of an index that address the offset *within* a segment; the bits
/// above select the root-table slot.
pub const SEG_SHIFT: u32 = 16;

/// Nodes per fully-sized segment.
const SEG_CAPACITY: usize = 1 << SEG_SHIFT;

/// Root-table slots.  Fixed at construction — growing the arena publishes a
/// slot, it never reallocates the table (that is what keeps concurrent
/// readers safe without any synchronisation beyond the slot itself).
pub const MAX_SEGMENTS: usize = 256;

const OFF_MASK: u64 = (1 << SEG_SHIFT) - 1;

/// Largest index the segmented encoding can produce.  The compile-time
/// assertion is the bit-budget audit demanded by the larger index domain:
/// every link-word encoding in `aba-reclaim` stores indices in a 32-bit
/// field whose all-ones pattern is reserved for nil.
const MAX_INDEX: u64 = ((MAX_SEGMENTS as u64) << SEG_SHIFT) - 1;
const _: () = assert!(
    MAX_INDEX < u32::MAX as u64,
    "segmented indices must stay inside every 32-bit link-word index field"
);

/// One arena node, padded to a full cache line (see the module docs).
#[derive(Debug)]
#[repr(align(64))]
struct Node {
    value: AtomicU64,
    next: AtomicU64,
    generation: AtomicU64,
}

impl Node {
    fn fresh() -> Self {
        Node {
            value: AtomicU64::new(0),
            next: AtomicU64::new(NIL),
            generation: AtomicU64::new(0),
        }
    }

    /// Count one more allocation of this node.  A load and a store rather
    /// than a locked `fetch_add`: only the allocator that just popped the
    /// node off a free list writes here.  (An unprotected structure's double
    /// free can hand one node to two allocators, who may then count one bump
    /// between them; the post-CAS ABA detectors compare for inequality, and
    /// one bump is as unequal as two.)
    #[inline]
    fn bump_generation(&self) {
        // ordering: the node is private to its allocator until the
        // publishing CAS, which stays `SeqCst` and orders this before it.
        let generation = self.generation.load(Ordering::Relaxed);
        stepcount::plain();
        // ordering: private until the publishing CAS, which stays `SeqCst`.
        self.generation.store(generation + 1, Ordering::Relaxed);
        stepcount::plain();
    }
}

/// Outcome of one attempt to publish the next planned segment.
enum Publish {
    /// This thread won the slot and refilled the free list.
    Won,
    /// Another thread won the same slot; its indices are (about to be)
    /// in the free list.
    Lost,
    /// Every planned segment is already published.
    Exhausted,
}

/// A segmented arena of nodes with an internal free list.
///
/// Construct with [`NodeArena::new`] for the classic fixed-capacity arena
/// (every segment published up front — the behaviour every experiment relies
/// on for exact exhaustion semantics), or with [`NodeArena::growable`] for an
/// arena that starts small and publishes further segments the first time
/// allocation finds the free list empty.
#[derive(Debug)]
pub struct NodeArena {
    /// The fixed root table.  `segments[s]`, once published, holds exactly
    /// `plan[s]` nodes forever.
    segments: Vec<OnceLock<Box<[Node]>>>,
    /// Planned length of every segment; `plan.iter().sum()` is the maximum
    /// capacity the arena can ever reach.
    plan: Vec<usize>,
    /// Number of leading `segments` slots already published.
    published: CachePadded<AtomicUsize>,
    /// Sum of the published segments' lengths — the *live* capacity.
    live: CachePadded<AtomicUsize>,
    /// Nodes published at construction time (segment 0, or all of them for a
    /// bounded arena).
    initial: usize,
    /// LIFO free list: the most recently freed index is handed out first,
    /// which maximises recycling pressure (and therefore ABA likelihood).
    free: CachePadded<Mutex<Vec<u64>>>,
}

/// Most free indices one [`Magazine`] holds, however large the arena.
const MAGAZINE_MAX: usize = 32;

/// The share of the published nodes all magazines together may hold is one
/// in this many.
const MAGAZINE_SHARE: usize = 8;

/// Split `total` nodes into maximal full segments plus a remainder.
fn bounded_plan(total: usize) -> Vec<usize> {
    let mut plan = Vec::new();
    let mut left = total;
    while left > 0 {
        let take = left.min(SEG_CAPACITY);
        plan.push(take);
        left -= take;
    }
    plan
}

/// Segment plan for a growable arena: the initial block, then
/// capacity-doubling growth segments (each publication doubles the live
/// capacity until segments saturate at [`SEG_CAPACITY`]), truncated to land
/// exactly on `max`.
fn growable_plan(initial: usize, max: usize) -> Vec<usize> {
    let mut plan = bounded_plan(initial);
    let mut total = initial;
    while total < max {
        let take = total.min(SEG_CAPACITY).min(max - total);
        plan.push(take);
        total += take;
    }
    plan
}

impl NodeArena {
    /// An arena with `capacity` nodes, all published and free from the
    /// start: allocation fails exactly when `capacity` nodes are live, the
    /// invariant every conservation experiment counts on.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or the capacity exceeds the segmented index
    /// budget.
    pub fn new(capacity: usize) -> Self {
        Self::with_plan(bounded_plan(capacity), usize::MAX)
    }

    /// An arena that starts with `initial` published nodes and grows on
    /// demand — by publishing one planned segment at a time — up to
    /// `max_capacity` total nodes.
    ///
    /// # Panics
    ///
    /// Panics if `initial == 0`, `max_capacity < initial`, or the plan
    /// exceeds the segmented index budget.
    pub fn growable(initial: usize, max_capacity: usize) -> Self {
        assert!(
            initial <= max_capacity,
            "initial capacity exceeds max capacity"
        );
        Self::with_plan(growable_plan(initial, max_capacity), initial)
    }

    fn with_plan(plan: Vec<usize>, publish_up_to: usize) -> Self {
        let total: usize = plan.iter().sum();
        assert!(total > 0, "capacity must be positive");
        assert!(
            plan.len() <= MAX_SEGMENTS,
            "capacity too large for the segmented index budget"
        );
        let arena = NodeArena {
            segments: (0..plan.len()).map(|_| OnceLock::new()).collect(),
            plan,
            published: CachePadded::new(AtomicUsize::new(0)),
            live: CachePadded::new(AtomicUsize::new(0)),
            initial: 0,
            free: CachePadded::new(Mutex::new(Vec::new())),
        };
        let mut arena = arena;
        let mut published_nodes = 0;
        while published_nodes < publish_up_to {
            match arena.publish_next() {
                Publish::Won => published_nodes = arena.live_capacity(),
                Publish::Lost => unreachable!("construction is single-threaded"),
                Publish::Exhausted => break,
            }
        }
        arena.initial = published_nodes;
        arena
    }

    /// Maximum number of nodes the arena can ever hold (the sum of every
    /// planned segment, published or not).  For an arena built with
    /// [`NodeArena::new`] this is the classic fixed capacity.
    pub fn capacity(&self) -> usize {
        self.plan.iter().sum()
    }

    /// Number of nodes currently backed by published segments.  This is the
    /// **live capacity** the reclamation schemes size their behaviour
    /// against (`retry_bound`, eager-scan and epoch-advance triggers): a
    /// growable arena's guards must track what exists, not what might.
    #[inline]
    pub fn live_capacity(&self) -> usize {
        let live = self.live.load(Ordering::SeqCst);
        stepcount::plain();
        live
    }

    /// Nodes published at construction time (for a bounded arena, all of
    /// them — `initial_capacity() == capacity()`).
    pub fn initial_capacity(&self) -> usize {
        self.initial
    }

    /// Number of nodes currently in the shared free list: the free nodes
    /// among the published segments, less whatever live handles hold in
    /// their [`Magazine`]s.
    pub fn free_len(&self) -> usize {
        self.shared_free().len()
    }

    /// The shared free list, locked.  A thread that panicked while holding
    /// the lock cannot have left the list invalid — every update is a push,
    /// a pop or a move of whole indices on a `Vec<u64>` — so a poisoned lock
    /// is recovered, not propagated.
    fn shared_free(&self) -> MutexGuard<'_, Vec<u64>> {
        let free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        stepcount::locked();
        free
    }

    /// A private cache of free indices for one structure handle, one of at
    /// most `handles` that share this arena (see the module docs).
    pub fn magazine(&self, handles: usize) -> Magazine<'_> {
        Magazine {
            arena: self,
            handles: handles.max(1),
            capacity: 0,
            free: Vec::new(),
        }
    }

    #[inline]
    fn node(&self, idx: u64) -> &Node {
        let seg = (idx >> SEG_SHIFT) as usize;
        let off = (idx & OFF_MASK) as usize;
        let nodes = self.segments[seg].get().expect("bad index");
        &nodes[off]
    }

    /// Whether `idx` designates a node in a published segment.
    #[inline]
    fn contains(&self, idx: u64) -> bool {
        if idx == NIL || idx > MAX_INDEX {
            return false;
        }
        let seg = (idx >> SEG_SHIFT) as usize;
        let off = (idx & OFF_MASK) as usize;
        seg < self.segments.len()
            && self.segments[seg]
                .get()
                .is_some_and(|nodes| off < nodes.len())
    }

    /// Try to publish the next planned segment into its root-table slot.
    /// Exactly one of the racing publishers wins the one-shot cell; only the
    /// winner pushes the fresh indices onto the free list (so no index is
    /// ever offered twice) and only the winner advances the published
    /// counter (so slots fill strictly in order).
    fn publish_next(&self) -> Publish {
        let s = self.published();
        if s == self.plan.len() {
            return Publish::Exhausted;
        }
        let len = self.plan[s];
        let fresh: Box<[Node]> = (0..len).map(|_| Node::fresh()).collect();
        match self.segments[s].set(fresh) {
            Ok(()) => {
                let base = (s as u64) << SEG_SHIFT;
                {
                    let mut free = self.shared_free();
                    // Reversed push keeps the historical pop order (offset 0
                    // first) within the fresh segment.
                    for off in (0..len as u64).rev() {
                        free.push(base | off);
                    }
                }
                self.live.fetch_add(len, Ordering::SeqCst);
                stepcount::locked();
                self.published.store(s + 1, Ordering::SeqCst);
                stepcount::locked();
                Publish::Won
            }
            Err(_) => Publish::Lost,
        }
    }

    /// Allocate a node, bumping its generation.  When the free list is empty
    /// the arena *grows* — publishes the next planned segment — and only
    /// reports exhaustion (`None`) once every planned segment is published
    /// and empty-handed.
    pub fn alloc(&self) -> Option<u64> {
        let idx = self.take_shared(0, &mut Vec::new())?;
        self.node(idx).bump_generation();
        Some(idx)
    }

    /// Pop the shared list's top index, moving up to `extra` more — in the
    /// order the list would have handed them out — onto `into`; grows the
    /// arena when the list is empty.
    fn take_shared(&self, extra: usize, into: &mut Vec<u64>) -> Option<u64> {
        // retry-bound: every round either returns an index, publishes one of
        // the finitely many planned segments, or backs off behind the thread
        // whose in-flight publication is about to refill the free list.  The
        // backoff is local to the call (allocation is already serialized on
        // the free-list lock, so there is no per-thread streak to carry) and
        // seeded from the contended segment number for deterministic jitter.
        let mut backoff: Option<aba_core::Backoff> = None;
        loop {
            {
                let mut free = self.shared_free();
                if let Some(idx) = free.pop() {
                    let rest = free.len().saturating_sub(extra);
                    into.extend(free.drain(rest..));
                    return Some(idx);
                }
            }
            match self.publish_next() {
                Publish::Won => {}
                Publish::Lost => backoff
                    .get_or_insert_with(|| aba_core::Backoff::new(self.published() as u64))
                    .pause(),
                Publish::Exhausted => return None,
            }
        }
    }

    /// Number of segments published so far.
    fn published(&self) -> usize {
        let published = self.published.load(Ordering::SeqCst);
        stepcount::plain();
        published
    }

    /// Return a node to the free list.
    ///
    /// The broken (unprotected) structures may double-free a node after an
    /// ABA; to keep the experiment observable rather than panicking, double
    /// frees are tolerated (the duplicate entry shows up as value
    /// duplication in the conservation check).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is `NIL` or outside the published segments.
    pub fn free(&self, idx: u64) {
        assert!(self.contains(idx), "bad index");
        self.shared_free().push(idx);
    }

    /// Read the value stored in a node (the low half of the value word).
    #[inline]
    pub fn value(&self, idx: u64) -> u32 {
        self.word(idx) as u32
    }

    /// Store a value into a node.  Clears the auxiliary [`data`] half — the
    /// stack/queue/set families use only this accessor and carry no data.
    ///
    /// [`data`]: NodeArena::data
    #[inline]
    pub fn set_value(&self, idx: u64, value: u32) {
        self.node(idx).value.store(value as u64, Ordering::SeqCst);
        stepcount::locked();
    }

    /// Write the value and auxiliary data of a node its caller has allocated
    /// and not yet linked into a structure — the store every push, enqueue
    /// and insert begins with — as one word, so a reader never observes a
    /// torn (value, data) pair.
    #[inline]
    pub fn init(&self, idx: u64, value: u32, data: u32) {
        let word = ((data as u64) << 32) | value as u64;
        // ordering: private until the publishing CAS, which stays `SeqCst`
        // (a reader reaches the node only through the word that CAS wrote).
        self.node(idx).value.store(word, Ordering::Relaxed);
        stepcount::plain();
    }

    /// Read the auxiliary data stored next to a node's value (the high half
    /// of the value word) — the mapped value of a hash-map node, whose low
    /// half holds the split-order key.
    #[inline]
    pub fn data(&self, idx: u64) -> u32 {
        (self.word(idx) >> 32) as u32
    }

    /// A node's whole value word: the value, and the data above it.
    #[inline]
    fn word(&self, idx: u64) -> u64 {
        let word = self.node(idx).value.load(Ordering::SeqCst);
        stepcount::plain();
        word
    }

    /// The next-link word of a node, as the raw atomic — the only access
    /// the arena gives to it.  The structures hand this to their
    /// reclaimer's guard, which owns the word *encoding* (the scheme's
    /// codec: a bare index, or an `(index, counter)` word) — the arena
    /// itself stays encoding-agnostic, and a fresh node's link holds the
    /// legacy nil `u64::MAX`, which every codec decodes as an unmarked nil.
    #[inline]
    pub fn next_word(&self, idx: u64) -> &AtomicU64 {
        &self.node(idx).next
    }

    /// Read a node's generation counter.
    #[inline]
    pub fn generation(&self, idx: u64) -> u64 {
        let generation = self.node(idx).generation.load(Ordering::SeqCst);
        stepcount::plain();
        generation
    }
}

/// A structure handle's private cache of free indices (see the module
/// docs): a plain vector in front of the arena's shared, locked free list.
/// Allocation and free are the arena's, minus the lock whenever the cache
/// can serve them.
#[derive(Debug)]
pub struct Magazine<'a> {
    arena: &'a NodeArena,
    /// Handles sharing the arena, this one included.
    handles: usize,
    /// Most indices `free` may hold; derived each time the shared list is
    /// touched, 0 until the first.
    capacity: usize,
    /// LIFO, like the shared list.
    free: Vec<u64>,
}

impl Magazine<'_> {
    /// Allocate a node, bumping its generation; `None` once the magazine,
    /// the shared list and the arena's growth plan are all exhausted.
    #[inline]
    pub fn alloc(&mut self) -> Option<u64> {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => self.refill()?,
        };
        self.arena.node(idx).bump_generation();
        Some(idx)
    }

    /// Return a node to the free nodes.  Double frees are tolerated exactly
    /// as [`NodeArena::free`] tolerates them: the duplicate is kept, and
    /// comes back out.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is `NIL` or outside the published segments.
    #[inline]
    pub fn free(&mut self, idx: u64) {
        assert!(self.arena.contains(idx), "bad index");
        if self.free.len() < self.capacity {
            self.free.push(idx);
        } else {
            self.spill(idx);
        }
    }

    /// Re-derive the capacity from what the arena has published by now.
    fn resize(&mut self) {
        let share = self.arena.live_capacity() / (MAGAZINE_SHARE * self.handles);
        self.capacity = share.min(MAGAZINE_MAX);
    }

    /// The magazine is empty: take half a magazine (at least the one index
    /// asked for) off the shared list.
    #[cold]
    fn refill(&mut self) -> Option<u64> {
        self.resize();
        let extra = (self.capacity / 2).saturating_sub(1);
        self.arena.take_shared(extra, &mut self.free)
    }

    /// The magazine is full: give the older half to the shared list, then
    /// keep `idx`.  At capacity 0 there is nothing to keep it in.
    #[cold]
    fn spill(&mut self, idx: u64) {
        self.resize();
        if self.capacity == 0 {
            return self.arena.free(idx);
        }
        // The live capacity only grows, so `free.len() <= capacity` here.
        if self.free.len() == self.capacity {
            let older = self.capacity.div_ceil(2);
            self.arena.shared_free().extend(self.free.drain(..older));
        }
        self.free.push(idx);
    }
}

impl Drop for Magazine<'_> {
    fn drop(&mut self) {
        if !self.free.is_empty() {
            self.arena.shared_free().append(&mut self.free);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let arena = NodeArena::new(2);
        let a = arena.alloc().unwrap();
        let b = arena.alloc().unwrap();
        assert_ne!(a, b);
        assert!(arena.alloc().is_none());
        arena.free(a);
        assert_eq!(arena.alloc(), Some(a));
    }

    #[test]
    fn generation_bumps_on_every_alloc() {
        let arena = NodeArena::new(1);
        let idx = arena.alloc().unwrap();
        let g1 = arena.generation(idx);
        arena.free(idx);
        let idx2 = arena.alloc().unwrap();
        assert_eq!(idx, idx2);
        assert_eq!(arena.generation(idx2), g1 + 1);
    }

    #[test]
    fn value_and_next_storage() {
        let arena = NodeArena::new(3);
        let idx = arena.alloc().unwrap();
        arena.set_value(idx, 77);
        assert_eq!(arena.value(idx), 77);
        arena.set_value(idx, 2);
        assert_eq!(arena.value(idx), 2);
    }

    #[test]
    fn value_and_data_pack_into_one_word() {
        let arena = NodeArena::new(1);
        let idx = arena.alloc().unwrap();
        arena.init(idx, 0xAAAA_0001, 0x5555_0002);
        assert_eq!(arena.value(idx), 0xAAAA_0001);
        assert_eq!(arena.data(idx), 0x5555_0002);
        // A plain set_value clears the data half (single-word semantics).
        arena.set_value(idx, 9);
        assert_eq!(arena.value(idx), 9);
        assert_eq!(arena.data(idx), 0);
    }

    #[test]
    fn lifo_reuse_maximises_recycling() {
        let arena = NodeArena::new(4);
        let a = arena.alloc().unwrap();
        arena.free(a);
        // The same index comes straight back.
        assert_eq!(arena.alloc(), Some(a));
    }

    #[test]
    fn free_len_tracks_allocation() {
        let arena = NodeArena::new(5);
        assert_eq!(arena.free_len(), 5);
        let _ = arena.alloc();
        let _ = arena.alloc();
        assert_eq!(arena.free_len(), 3);
    }

    #[test]
    #[should_panic(expected = "bad index")]
    fn freeing_nil_panics() {
        let arena = NodeArena::new(1);
        arena.free(NIL);
    }

    #[test]
    #[should_panic(expected = "bad index")]
    fn freeing_an_unpublished_index_panics() {
        let arena = NodeArena::growable(2, 64);
        // Segment 1 exists in the plan but is not published yet.
        arena.free(1u64 << SEG_SHIFT);
    }

    #[test]
    fn next_word_exposes_the_same_atomic_as_the_accessors() {
        let arena = NodeArena::new(2);
        let idx = arena.alloc().unwrap();
        // A fresh link holds the legacy nil; what one call stores, the next
        // reads, and no other node's link moves.
        assert_eq!(arena.next_word(idx).load(Ordering::SeqCst), NIL);
        arena.next_word(idx).store(7, Ordering::SeqCst);
        assert_eq!(arena.next_word(idx).load(Ordering::SeqCst), 7);
        let other = arena.alloc().unwrap();
        assert_eq!(arena.next_word(other).load(Ordering::SeqCst), NIL);
    }

    #[test]
    fn bounded_arena_is_fully_published_up_front() {
        let arena = NodeArena::new(10);
        assert_eq!(arena.capacity(), 10);
        assert_eq!(arena.live_capacity(), 10);
        assert_eq!(arena.initial_capacity(), 10);
        assert_eq!(arena.free_len(), 10);
    }

    #[test]
    fn growable_arena_grows_through_segment_publication() {
        let arena = NodeArena::growable(2, 11);
        assert_eq!(arena.capacity(), 11);
        assert_eq!(arena.live_capacity(), 2);
        assert_eq!(arena.initial_capacity(), 2);
        let mut held = Vec::new();
        for i in 0..11 {
            let idx = arena.alloc().unwrap_or_else(|| panic!("alloc {i} failed"));
            held.push(idx);
        }
        assert_eq!(arena.live_capacity(), 11, "growth served all 11 nodes");
        assert!(arena.alloc().is_none(), "the plan is exhausted");
        for idx in held {
            arena.free(idx);
        }
        assert_eq!(arena.free_len(), 11);
    }

    #[test]
    fn growth_doubles_live_capacity_per_publication() {
        let arena = NodeArena::growable(4, 64);
        let mut observed = vec![arena.live_capacity()];
        let mut held = Vec::new();
        for _ in 0..64 {
            held.push(arena.alloc().unwrap());
            let live = arena.live_capacity();
            if *observed.last().unwrap() != live {
                observed.push(live);
            }
        }
        assert_eq!(observed, vec![4, 8, 16, 32, 64]);
    }

    #[test]
    fn segmented_indices_are_decodable_across_segments() {
        let arena = NodeArena::growable(2, 8);
        let mut held = Vec::new();
        for _ in 0..8 {
            held.push(arena.alloc().unwrap());
        }
        // Indices from later segments carry the segment in the high bits.
        assert!(held.iter().any(|&idx| idx >> SEG_SHIFT > 0));
        for (i, &idx) in held.iter().enumerate() {
            arena.set_value(idx, i as u32);
        }
        for (i, &idx) in held.iter().enumerate() {
            assert_eq!(arena.value(idx), i as u32, "index {idx:#x}");
        }
    }

    #[test]
    fn index_budget_fits_every_link_word_encoding() {
        // The audit the larger index domain demands: the maximum encodable
        // index must stay strictly below every 32-bit nil pattern —
        // 0xFFFF_FFFF for bare link words, `u32::MAX` for `TagWord` value
        // fields and LL/SC words — and bit 32 (the bare-word mark bit) must
        // never be set by an index.
        assert!(MAX_INDEX < u32::MAX as u64);
        assert_eq!(MAX_INDEX >> 32, 0, "indices never touch the mark bit");
        // A full plan actually reaches the advertised budget.
        assert_eq!(MAX_SEGMENTS * SEG_CAPACITY, (MAX_INDEX + 1) as usize);
    }

    #[test]
    fn node_layout_is_cache_line_padded() {
        // The false-sharing regression pin: one node (three u64 atomics)
        // owns one whole 64-byte line, and the hot-word wrapper pads any
        // word it is given to a line of its own.
        assert_eq!(std::mem::size_of::<Node>(), 64);
        assert_eq!(std::mem::align_of::<Node>(), 64);
        assert_eq!(std::mem::size_of::<CachePadded<AtomicUsize>>(), 64);
        assert_eq!(std::mem::align_of::<CachePadded<AtomicUsize>>(), 64);
    }

    #[test]
    fn a_poisoned_free_list_lock_is_recovered() {
        let arena = NodeArena::new(4);
        let a = arena.alloc().unwrap();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = arena.free.lock().unwrap();
                panic!("poison the free-list lock");
            })
            .join()
        });
        assert!(panicked.is_err());
        assert!(arena.free.is_poisoned());
        // The list is a plain vector of indices: nothing a panic can break.
        assert_eq!(arena.free_len(), 3);
        arena.free(a);
        assert_eq!(arena.alloc(), Some(a));
        let mut magazine = arena.magazine(1);
        let b = magazine.alloc().unwrap();
        magazine.free(b);
        drop(magazine);
        assert_eq!(arena.free_len(), 3);
    }

    #[test]
    fn one_magazine_exhausts_the_arena_exactly() {
        use std::collections::HashSet;

        const CAPACITY: usize = 100;
        let arena = NodeArena::new(CAPACITY);
        let mut magazine = arena.magazine(1);
        let held: Vec<u64> = (0..CAPACITY)
            .map(|i| {
                magazine
                    .alloc()
                    .unwrap_or_else(|| panic!("alloc {i} failed"))
            })
            .collect();
        assert_eq!(held.iter().collect::<HashSet<_>>().len(), CAPACITY);
        assert!(magazine.alloc().is_none(), "node {CAPACITY} of {CAPACITY}");
        for &idx in &held {
            magazine.free(idx);
        }
        // What the magazine caches is missing from the shared list, not
        // from the arena: the same handle gets all of it back.
        assert!(arena.free_len() < CAPACITY);
        for i in 0..CAPACITY {
            assert!(magazine.alloc().is_some(), "realloc {i} failed");
        }
        assert!(magazine.alloc().is_none());
        for idx in held {
            magazine.free(idx);
        }
        drop(magazine);
        assert_eq!(arena.free_len(), CAPACITY);
    }

    #[test]
    fn magazines_conserve_nodes_handed_from_thread_to_thread() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;

        // A producer allocates, a consumer frees: every node crosses from
        // one magazine to the other through the shared list.
        const CAPACITY: usize = 256;
        const HANDOFFS: usize = 20_000;
        let arena = NodeArena::new(CAPACITY);
        let live: Vec<AtomicBool> = (0..CAPACITY).map(|_| AtomicBool::new(false)).collect();
        let (tx, rx) = mpsc::channel::<u64>();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut magazine = arena.magazine(2);
                let mut sent = 0;
                while sent < HANDOFFS {
                    let Some(idx) = magazine.alloc() else {
                        // Everything is in flight or in the consumer's hands.
                        std::thread::yield_now();
                        continue;
                    };
                    assert!(
                        !live[idx as usize].swap(true, Ordering::SeqCst),
                        "index {idx} handed out while live"
                    );
                    tx.send(idx).expect("the consumer outlives the producer");
                    sent += 1;
                }
                drop(tx);
            });
            s.spawn(|| {
                let mut magazine = arena.magazine(2);
                for idx in rx {
                    assert!(live[idx as usize].swap(false, Ordering::SeqCst));
                    magazine.free(idx);
                }
            });
        });
        assert_eq!(arena.free_len(), CAPACITY, "a dropped magazine kept nodes");
    }

    #[test]
    fn a_double_free_through_a_magazine_stays_observable() {
        let arena = NodeArena::new(64);
        let mut magazine = arena.magazine(1);
        let a = magazine.alloc().unwrap();
        magazine.free(a);
        magazine.free(a);
        // Neither a panic nor a dedupe: the duplicate comes back out, which
        // is how an unprotected structure's damage reaches the value checks.
        assert_eq!(magazine.alloc(), Some(a));
        assert_eq!(magazine.alloc(), Some(a));
        drop(magazine);
        assert_eq!(arena.free_len(), 63);
    }

    #[test]
    fn a_capacity_zero_magazine_is_the_shared_path_index_for_index() {
        // E6's arena: 16 nodes among 4 handles spare no magazine.
        let direct = NodeArena::new(16);
        let cached = NodeArena::new(16);
        let mut magazine = cached.magazine(4);
        let mut held = Vec::new();
        let mut x = 0x2545_F491u32;
        for step in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            if !x.is_multiple_of(3) || held.is_empty() {
                let idx = direct.alloc();
                assert_eq!(magazine.alloc(), idx, "step {step}: alloc");
                held.extend(idx);
            } else {
                let idx = held.swap_remove(x as usize % held.len());
                direct.free(idx);
                magazine.free(idx);
            }
            assert_eq!(cached.free_len(), direct.free_len(), "step {step}");
        }
        assert_eq!(magazine.capacity, 0);
    }

    #[test]
    fn an_allocation_fails_only_within_the_stranding_bound() {
        const CAPACITY: usize = 512;
        const HANDLES: usize = 4;
        let arena = NodeArena::new(CAPACITY);
        let mut magazines: Vec<_> = (0..HANDLES).map(|_| arena.magazine(HANDLES)).collect();
        let mut held = Vec::new();
        let mut failures = 0;
        let mut x = 0x9E37_79B9u32;
        for _ in 0..40_000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let magazine = &mut magazines[(x >> 4) as usize % HANDLES];
            // Allocation-heavy, so the arena runs dry again and again.
            if x % 16 < 9 {
                match magazine.alloc() {
                    Some(idx) => held.push(idx),
                    None => {
                        failures += 1;
                        // The failing handle's magazine is empty and so is
                        // the shared list: whatever is free sits in the other
                        // handles' magazines.
                        let free = CAPACITY - held.len();
                        assert!(
                            free <= (HANDLES - 1) * magazine.capacity,
                            "alloc failed with {free} nodes free"
                        );
                    }
                }
            } else if !held.is_empty() {
                magazine.free(held.swap_remove((x >> 8) as usize % held.len()));
            }
        }
        assert!(failures > 0, "the script never exhausted the arena");
        // The capacity rule: all magazines together hold at most an eighth.
        let capacity = magazines[0].capacity;
        assert_eq!(capacity, CAPACITY / (MAGAZINE_SHARE * HANDLES));
        assert!(magazines.iter().all(|m| m.free.len() <= capacity));
        drop(magazines);
        assert_eq!(arena.free_len() + held.len(), CAPACITY);
    }

    #[test]
    fn a_magazine_grows_the_arena_and_its_own_capacity() {
        let arena = NodeArena::growable(4, 512);
        let mut magazine = arena.magazine(1);
        let held: Vec<u64> = (0..512).map(|_| magazine.alloc().unwrap()).collect();
        assert_eq!(arena.live_capacity(), 512, "growth served all 512 nodes");
        assert!(magazine.alloc().is_none(), "the plan is exhausted");
        for idx in held {
            magazine.free(idx);
        }
        // 4 published nodes spared no magazine; 512 spare a full one.
        assert_eq!(magazine.capacity, MAGAZINE_MAX);
        assert!(arena.free_len() >= 512 - MAGAZINE_MAX);
        drop(magazine);
        assert_eq!(arena.free_len(), 512);
    }

    #[test]
    fn concurrent_allocation_grows_without_losing_or_duplicating_indices() {
        use std::collections::HashSet;
        use std::sync::Barrier;

        // Four threads each hold 32 live nodes at once out of an arena that
        // starts with 8: allocation must fall through to (racing) segment
        // publication, and every handed-out index must be unique.
        const THREADS: usize = 4;
        const PER_THREAD: usize = 32;
        let arena = NodeArena::growable(8, THREADS * PER_THREAD);
        let barrier = Barrier::new(THREADS);
        let per_thread: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let arena = &arena;
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let mut held = Vec::new();
                        while held.len() < PER_THREAD {
                            match arena.alloc() {
                                Some(idx) => held.push(idx),
                                None => std::thread::yield_now(),
                            }
                        }
                        held
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("allocator thread panicked"))
                .collect()
        });
        let all: Vec<u64> = per_thread.into_iter().flatten().collect();
        let unique: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(all.len(), THREADS * PER_THREAD);
        assert_eq!(unique.len(), all.len(), "an index was handed out twice");
        assert!(
            arena.live_capacity() > arena.initial_capacity(),
            "concurrent churn must have published beyond the initial segment"
        );
        for idx in all {
            arena.free(idx);
        }
    }
}
