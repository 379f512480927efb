//! Split-ordered (Shalev–Shavit) lock-free hash maps with pluggable ABA
//! protection (experiment E13).
//!
//! The map is the *production-shaped* ABA workload the ROADMAP's north star
//! names: a resizable hash table whose every moving part is built from
//! pieces this repository already measures.  All key/value pairs live in
//! **one** Harris–Michael linked list (the crate's `list.rs`, which is also
//! the whole of [`GenericSet`](crate::set); this file contains no list
//! algorithm of its own), ordered by the bit-reversal of their keys; a
//! growable array of *bucket* cells holds shortcuts — immortal dummy nodes —
//! into that list.  Doubling the bucket count never moves a node: the recursive split-ordering guarantees the
//! keys of bucket `b` under the new size form a contiguous run after the
//! keys of its *parent* bucket `b & !msb(b)` under the old size, so growth
//! just lazily inserts one new dummy per fresh bucket.
//!
//! | Alias | Reclaimer | ABA handling |
//! |-------|-----------|--------------|
//! | [`UnprotectedMap`] | [`NoReclaim`] | none — lost inserts/unlinks |
//! | [`TaggedMap`] | [`TagReclaim`] | counted link words |
//! | [`HazardMap`] | [`HazardReclaim`] | hand-over-hand hazards |
//! | [`EpochMap`] | [`EpochReclaim`] | epoch pin per operation |
//! | [`LlScMap`] | [`LlScReclaim`] | LL/SC pin slot + counted links |
//!
//! # Split-order encoding
//!
//! Keys are 31-bit (the top bit of a `u32` key is masked off).  A *regular*
//! node for key `k` carries the split-order key `reverse_bits(k | 1<<31)` —
//! least significant bit 1 after reversal; the *dummy* node anchoring bucket
//! `b` carries `reverse_bits(b)` — least significant bit 0.  The list is
//! sorted by split-order key, which places every bucket's dummy immediately
//! before that bucket's regular keys, for **every** power-of-two size at
//! once (DESIGN.md §10).  A node's single value word packs
//! `mapped_value << 32 | split_order_key`, stored and read atomically via
//! [`NodeArena::init`]/[`NodeArena::data`].
//!
//! # Why dummies are immortal
//!
//! Dummy nodes are inserted once and never removed, so a traversal may start
//! from a bucket cell without protecting the anchor: the anchor cannot be
//! retired, and its link word is therefore always safe to read.  Protection
//! begins hand-over-hand at the anchor's *successor* (the list's
//! `Prev::Node` start), exactly as the set protects the head's successor.
//! This is also what makes the bucket cells plain `AtomicU64`s rather than
//! reclaimer-owned slots.
//!
//! # Bucket publication
//!
//! The bucket array reuses the arena's segment trick: a fixed root table of
//! one-shot cells, each publishing a block of bucket cells, with block sizes
//! doubling so the table reaches its maximum in logarithmically many
//! publications.  Growth (load factor > `LOAD_FACTOR`) publishes the cells
//! for the doubled size *first*, then advances the size word with a single
//! CAS — a lost race just means another thread already grew.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use aba_core::CachePadded;
use aba_reclaim::{EpochReclaim, HazardReclaim, LlScReclaim, NoReclaim, Reclaimer, TagReclaim};

use crate::arena::{NodeArena, NIL};
use crate::list::{List, ListHandle, Prev, Splice};
use crate::{Family, Production, Racing, Window};

/// A concurrent `u32 -> u32` hash map with per-thread handles.
pub trait Map: Send + Sync {
    /// Number of key/value pairs the map is provisioned for (the arena also
    /// reserves headroom for bucket dummies on top of this).
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
    fn alloc_failures(&self) -> u64;
    /// Approximate number of live entries (drives the load factor; an
    /// unprotected ABA can skew it).
    fn len(&self) -> u64;
    /// Whether the map is (approximately) empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Current bucket count (grows by doubling, never shrinks).
    fn buckets(&self) -> usize;
    /// Arena nodes currently backed by published segments — grows from
    /// [`Map::arena_initial_capacity`] under churn (the growth experiments
    /// pin `live > initial`).
    fn arena_live_capacity(&self) -> usize;
    /// Arena nodes published at construction time.
    fn arena_initial_capacity(&self) -> usize;
    /// Obtain the per-thread handle for `tid`: operations run at algorithm
    /// cost.  What the 1-thread engine cells and the benchmark's ladder
    /// measure.
    fn handle(&self, tid: usize) -> Box<dyn MapHandle + '_>;
    /// The same handle with the preemption window open: the thread yields
    /// at every traversal step and before every link CAS.  For the stress
    /// harnesses, race-provoking tests, the benchmark's correctness gate and
    /// the workload engine's contended map cells (DESIGN.md §7).
    fn racing_handle(&self, tid: usize) -> Box<dyn MapHandle + '_>;
}

/// Per-thread handle of a [`Map`].
pub trait MapHandle: Send {
    /// Insert `key -> value`; `false` if the key was already present (no
    /// overwrite), the arena is exhausted, or the unprotected variant's
    /// retry budget ran out.
    fn insert(&mut self, key: u32, value: u32) -> bool;
    /// Remove `key`; `false` if it was absent.
    fn remove(&mut self, key: u32) -> bool;
    /// Look up `key`, returning its mapped value.
    fn get(&mut self, key: u32) -> Option<u32>;
}

/// Keys are 31-bit: the top bit is where the split-order encoding stores the
/// regular/dummy distinction (pre-reversal).
pub const KEY_MASK: u32 = 0x7FFF_FFFF;

/// Buckets the table starts with.
const INITIAL_BUCKETS: usize = 2;

/// Average entries per bucket beyond which an insert doubles the table.
const LOAD_FACTOR: usize = 2;

/// Split-order key of a *regular* node for `key` (LSB 1 after reversal).
fn so_regular(key: u32) -> u32 {
    ((key & KEY_MASK) | 0x8000_0000).reverse_bits()
}

/// Split-order key of the *dummy* node anchoring `bucket` (LSB 0).
fn so_dummy(bucket: usize) -> u32 {
    (bucket as u32).reverse_bits()
}

/// The parent of a bucket: clear its highest set bit.  Bucket `b`'s keys
/// split off from the parent's run when the table doubles past `msb(b)`.
fn parent_bucket(bucket: usize) -> usize {
    debug_assert!(bucket > 0);
    bucket & !(1usize << bucket.ilog2())
}

/// The growable bucket-cell table: a fixed root of one-shot segment slots,
/// block sizes doubling, each cell an `AtomicU64` holding the arena index of
/// that bucket's dummy (or [`NIL`] while uninitialised).
#[derive(Debug)]
struct BucketTable {
    segments: Vec<OnceLock<Box<[AtomicU64]>>>,
    /// Cells in segment 0 (power of two); segment `s >= 1` holds
    /// `initial << (s-1)` cells, so coverage doubles per publication.
    initial: usize,
    /// Total cells across all segments (power of two).
    max: usize,
    /// Current bucket count — the only word `bucket = key % size` reads.
    size: CachePadded<AtomicUsize>,
}

impl BucketTable {
    fn new(initial: usize, max: usize) -> Self {
        debug_assert!(initial.is_power_of_two() && max.is_power_of_two() && initial <= max);
        let seg_count = if max == initial {
            1
        } else {
            1 + (max / initial).ilog2() as usize
        };
        let table = BucketTable {
            segments: (0..seg_count).map(|_| OnceLock::new()).collect(),
            initial,
            max,
            size: CachePadded::new(AtomicUsize::new(initial)),
        };
        table.ensure_cells(initial);
        table
    }

    fn size(&self) -> usize {
        self.size.load(Ordering::SeqCst)
    }

    /// (segment, offset) of a bucket cell.
    fn locate(&self, bucket: usize) -> (usize, usize) {
        if bucket < self.initial {
            (0, bucket)
        } else {
            let k = (bucket / self.initial).ilog2() as usize;
            (k + 1, bucket - (self.initial << k))
        }
    }

    /// The cell of `bucket`, which must lie under the published coverage
    /// (guaranteed for any `bucket < size`: growth publishes before it
    /// advances the size word).
    fn cell(&self, bucket: usize) -> &AtomicU64 {
        let (seg, off) = self.locate(bucket);
        &self.segments[seg].get().expect("bucket cell unpublished")[off]
    }

    /// Publish segments until at least `cells` bucket cells exist.  The
    /// one-shot slot arbitrates racing publishers; a loser's freshly built
    /// block is dropped.
    fn ensure_cells(&self, cells: usize) {
        let mut covered = self.initial;
        let mut seg = 0usize;
        if self.segments[0].get().is_none() {
            let fresh: Box<[AtomicU64]> = (0..self.initial).map(|_| AtomicU64::new(NIL)).collect();
            let _ = self.segments[0].set(fresh);
        }
        while covered < cells.min(self.max) {
            seg += 1;
            let len = self.initial << (seg - 1);
            if self.segments[seg].get().is_none() {
                let fresh: Box<[AtomicU64]> = (0..len).map(|_| AtomicU64::new(NIL)).collect();
                let _ = self.segments[seg].set(fresh);
            }
            covered += len;
        }
    }
}

/// Split-ordered hash map, generic in its ABA-protection / reclamation
/// scheme `R`.  The crate's one Harris–Michael list (`list.rs`), ordered by
/// split-order key, holds every entry; bucket cells point at immortal dummy
/// nodes inside it, and every walk starts at one of them — the list's root
/// slot stays NIL, protected only to pin the epoch scheme.
#[derive(Debug)]
pub struct GenericMap<R: Reclaimer> {
    list: List<R>,
    buckets: BucketTable,
    /// Live-entry gauge (approximate under unprotected ABA), drives growth.
    count: CachePadded<AtomicU64>,
    key_capacity: usize,
}

impl<R: Reclaimer> GenericMap<R> {
    /// A map provisioned for `capacity` entries, used by at most `threads`
    /// threads.  The node arena starts *small* and grows segment-wise on
    /// demand up to `capacity` plus the bucket-dummy headroom.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or too large for the segmented index
    /// budget.
    pub fn with_threads(capacity: usize, threads: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(capacity < u32::MAX as usize, "capacity too large");
        let max_buckets = (capacity / LOAD_FACTOR)
            .next_power_of_two()
            .max(INITIAL_BUCKETS);
        let arena_max = capacity + max_buckets;
        let initial = (threads * 2 + INITIAL_BUCKETS).max(4).min(arena_max);
        let map = GenericMap {
            list: List::new(NodeArena::growable(initial, arena_max), threads),
            buckets: BucketTable::new(INITIAL_BUCKETS, max_buckets),
            count: CachePadded::new(AtomicU64::new(0)),
            key_capacity: capacity,
        };
        // Bucket 0's dummy is the global list head (split-order key 0, the
        // minimum): created here, single-threaded, so every later traversal
        // has an anchor.
        let dummy = map.list.first_anchor(so_dummy(0));
        map.buckets.cell(0).store(dummy, Ordering::SeqCst);
        map
    }
}

impl<R: Reclaimer> Map for GenericMap<R> {
    fn capacity(&self) -> usize {
        self.key_capacity
    }

    fn name(&self) -> &'static str {
        Family::Map.label(R::SCHEME)
    }

    fn aba_events(&self) -> u64 {
        self.list.nodes.aba_events()
    }

    fn unreclaimed(&self) -> u64 {
        self.list.nodes.unreclaimed()
    }

    fn alloc_failures(&self) -> u64 {
        self.list.nodes.alloc_failures()
    }

    fn len(&self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }

    fn buckets(&self) -> usize {
        self.buckets.size()
    }

    fn arena_live_capacity(&self) -> usize {
        self.list.nodes.arena.live_capacity()
    }

    fn arena_initial_capacity(&self) -> usize {
        self.list.nodes.arena.initial_capacity()
    }

    fn handle(&self, tid: usize) -> Box<dyn MapHandle + '_> {
        Box::new(GenericMapHandle::<R, Production>::new(self, tid))
    }

    fn racing_handle(&self, tid: usize) -> Box<dyn MapHandle + '_> {
        Box::new(GenericMapHandle::<R, Racing>::new(self, tid))
    }
}

struct GenericMapHandle<'a, R: Reclaimer, W: Window> {
    map: &'a GenericMap<R>,
    list: ListHandle<'a, R, W>,
}

impl<'a, R: Reclaimer, W: Window> GenericMapHandle<'a, R, W> {
    fn new(map: &'a GenericMap<R>, tid: usize) -> Self {
        GenericMapHandle {
            map,
            list: map.list.handle(tid),
        }
    }

    /// Where operations on `key` start: its bucket's anchor.
    fn anchor(&mut self, key: u32) -> Option<Prev> {
        let bucket = key as usize % self.map.buckets.size();
        self.bucket_anchor(bucket).map(Prev::Node)
    }

    /// The anchor (dummy index) of `bucket`, initialising the bucket — and,
    /// recursively, its parent — on first touch.  `None` means the retry
    /// budget ran out (unprotected corruption).
    fn bucket_anchor(&mut self, bucket: usize) -> Option<u64> {
        let cell = self.map.buckets.cell(bucket);
        let dummy = cell.load(Ordering::SeqCst);
        if dummy != NIL {
            return Some(dummy);
        }
        // Uninitialised: splice this bucket's dummy into the list, starting
        // from the parent's anchor (bucket 0 is created at construction, so
        // the recursion grounds out).
        let parent = self.bucket_anchor(parent_bucket(bucket))?;
        let Some(idx) = self.list.worker.magazine.alloc() else {
            // Exhausted: degrade to the parent's anchor (a longer walk, not
            // an error) and leave the cell for a later operation to fill.
            return Some(parent);
        };
        let so = so_dummy(bucket);
        self.map.list.nodes.arena.init(idx, so, 0);
        let dummy = match self.list.splice(Prev::Node(parent), so, idx) {
            Splice::Linked => idx,
            // Another thread's dummy won the race; adopt it.  Both racers
            // CAS the same winner into the cell, so the lost CAS below is
            // benign.
            Splice::Present(winner) => {
                self.list.worker.magazine.free(idx);
                winner
            }
            // The dummy was never published, hand it straight back.
            Splice::Exhausted => {
                self.list.worker.magazine.free(idx);
                return None;
            }
        };
        let _ = cell.compare_exchange(NIL, dummy, Ordering::SeqCst, Ordering::SeqCst);
        Some(dummy)
    }

    /// Double the table if the load factor warrants it: publish the cells
    /// for the doubled size, then advance the size word with one CAS (a
    /// lost race means another thread already grew — no retry).
    fn maybe_grow(&mut self) {
        let size = self.map.buckets.size();
        if size >= self.map.buckets.max {
            return;
        }
        if self.map.count.load(Ordering::SeqCst) < (LOAD_FACTOR * size) as u64 {
            return;
        }
        let doubled = size * 2;
        self.map.buckets.ensure_cells(doubled);
        let _ = self.map.buckets.size.compare_exchange(
            size,
            doubled,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }
}

impl<R: Reclaimer, W: Window> MapHandle for GenericMapHandle<'_, R, W> {
    fn insert(&mut self, key: u32, value: u32) -> bool {
        let key = key & KEY_MASK;
        let Some(anchor) = self.anchor(key) else {
            return false;
        };
        let inserted = self.list.insert(anchor, so_regular(key), value);
        if inserted {
            self.map.count.fetch_add(1, Ordering::SeqCst);
            self.maybe_grow();
        }
        inserted
    }

    fn remove(&mut self, key: u32) -> bool {
        let key = key & KEY_MASK;
        let Some(anchor) = self.anchor(key) else {
            return false;
        };
        let removed = self.list.remove(anchor, so_regular(key));
        if removed {
            self.map.count.fetch_sub(1, Ordering::SeqCst);
        }
        removed
    }

    fn get(&mut self, key: u32) -> Option<u32> {
        let key = key & KEY_MASK;
        let anchor = self.anchor(key)?;
        self.list.get(anchor, so_regular(key))
    }
}

/// SO map with bare-index words and immediate recycling — the ABA victim.
/// Operations bail out after a bounded number of steps (counting the bailout
/// as an ABA event) so a cycled chain cannot wedge the harness.
pub type UnprotectedMap = GenericMap<NoReclaim>;

/// SO map whose per-node links are `(index, tag)` counted words with the
/// deleted mark folded into the tag field.
pub type TaggedMap = GenericMap<TagReclaim>;

/// SO map with bare-index words protected by three hand-over-hand hazards.
pub type HazardMap = GenericMap<HazardReclaim>;

/// SO map under epoch-based reclamation: every operation pins the current
/// epoch via the map's pin slot.
pub type EpochMap = GenericMap<EpochReclaim>;

/// SO map whose registered pin slot is an LL/SC object and whose links are
/// counted words.
pub type LlScMap = GenericMap<LlScReclaim>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_order_places_dummies_before_their_bucket_keys() {
        // For any key and any power-of-two size, the key's bucket dummy
        // sorts before the key, and the next bucket's dummy sorts after it.
        for key in [0u32, 1, 2, 3, 63, 64, 1000, KEY_MASK] {
            for size in [2usize, 4, 8, 1 << 20] {
                let b = key as usize % size;
                assert!(so_dummy(b) < so_regular(key), "key {key} size {size}");
            }
        }
        // Dummies are pairwise distinct and regular keys are pairwise
        // distinct from dummies (LSB discriminates).
        assert_eq!(so_dummy(0) & 1, 0);
        assert_eq!(so_regular(0) & 1, 1);
        assert_ne!(so_regular(5), so_dummy(5));
    }

    #[test]
    fn parent_bucket_clears_the_highest_bit() {
        assert_eq!(parent_bucket(1), 0);
        assert_eq!(parent_bucket(2), 0);
        assert_eq!(parent_bucket(3), 1);
        assert_eq!(parent_bucket(6), 2);
        assert_eq!(parent_bucket(12), 4);
    }

    fn map_smoke(map: &dyn Map) {
        let mut h = map.handle(0);
        assert_eq!(h.get(5), None);
        assert!(h.insert(5, 50));
        assert!(h.insert(3, 30));
        assert!(h.insert(9, 90));
        assert!(!h.insert(5, 55), "duplicate insert must fail");
        assert_eq!(h.get(5), Some(50), "no overwrite on duplicate insert");
        assert_eq!(h.get(3), Some(30));
        assert_eq!(h.get(9), Some(90));
        assert_eq!(h.get(4), None);
        assert!(h.remove(5));
        assert!(!h.remove(5), "double remove must fail");
        assert_eq!(h.get(5), None);
        assert!(h.insert(5, 500));
        assert_eq!(h.get(5), Some(500));
        assert!(h.remove(3));
        assert!(h.remove(5));
        assert!(h.remove(9));
        assert!(map.is_empty(), "{}", map.name());
    }

    #[test]
    fn all_variants_behave_as_a_map_sequentially() {
        map_smoke(&UnprotectedMap::with_threads(8, 1));
        map_smoke(&TaggedMap::with_threads(8, 1));
        map_smoke(&HazardMap::with_threads(8, 2));
        map_smoke(&EpochMap::with_threads(8, 2));
        map_smoke(&LlScMap::with_threads(8, 2));
    }

    #[test]
    fn growth_keeps_every_key_reachable() {
        // Push the load factor across several doublings: every key must stay
        // reachable through the moving bucket boundaries (split-ordering's
        // whole point), with its original value.
        for map in [
            Box::new(TaggedMap::with_threads(256, 1)) as Box<dyn Map>,
            Box::new(HazardMap::with_threads(256, 1)),
            Box::new(EpochMap::with_threads(256, 1)),
            Box::new(LlScMap::with_threads(256, 1)),
        ] {
            let mut h = map.handle(0);
            for key in 0..200u32 {
                assert!(h.insert(key * 7 + 1, key), "{} insert {key}", map.name());
            }
            assert!(
                map.buckets() > INITIAL_BUCKETS,
                "{}: the table must have doubled",
                map.name()
            );
            for key in 0..200u32 {
                assert_eq!(h.get(key * 7 + 1), Some(key), "{} lost a key", map.name());
            }
            for key in 0..200u32 {
                assert!(h.remove(key * 7 + 1), "{} remove {key}", map.name());
            }
            assert_eq!(map.aba_events(), 0, "{}", map.name());
        }
    }

    #[test]
    fn arena_grows_beyond_its_initial_capacity() {
        // The growth pin at the map level: a small-initial arena serves more
        // live nodes than it started with.
        for map in [
            Box::new(UnprotectedMap::with_threads(64, 1)) as Box<dyn Map>,
            Box::new(TaggedMap::with_threads(64, 1)),
            Box::new(HazardMap::with_threads(64, 1)),
            Box::new(EpochMap::with_threads(64, 1)),
            Box::new(LlScMap::with_threads(64, 1)),
        ] {
            let initial = map.arena_initial_capacity();
            let mut h = map.handle(0);
            for key in 0..48u32 {
                assert!(h.insert(key, key + 1), "{} insert {key}", map.name());
            }
            assert!(
                map.arena_live_capacity() > initial,
                "{}: live {} must exceed initial {}",
                map.name(),
                map.arena_live_capacity(),
                initial
            );
        }
    }

    #[test]
    fn epoch_trigger_tracks_the_live_arena_not_the_plan() {
        // Satellite-1 regression: the epoch guard's advance trigger must be
        // derived from the arena's *live* capacity at pressure-check time.
        // With a large plan (4096 keys → several-thousand-node arena plan)
        // but a small published segment, the pre-fix guard sized its trigger
        // from the plan (clamped at ADVANCE_THRESHOLD = 32) and let 32
        // retired nodes park in limbo — several times the live segment —
        // before even attempting an advance.  Post-fix the trigger follows
        // the live capacity, so single-threaded churn keeps limbo tiny.
        let map = EpochMap::with_threads(4096, 2);
        let mut h = map.handle(0);
        let mut peak = 0u64;
        for round in 0..200u32 {
            assert!(h.insert(7, round), "round {round}");
            assert!(h.remove(7), "round {round}");
            peak = peak.max(map.unreclaimed());
        }
        assert!(
            peak < 32,
            "peak unreclaimed {peak} must stay below the plan-derived trigger"
        );
        assert!(peak > 0, "the epoch scheme must defer at least one free");
    }

    #[test]
    fn removed_nodes_recycle_in_protected_variants() {
        for map in [
            Box::new(TaggedMap::with_threads(4, 1)) as Box<dyn Map>,
            Box::new(HazardMap::with_threads(4, 1)),
            Box::new(EpochMap::with_threads(4, 1)),
            Box::new(LlScMap::with_threads(4, 1)),
        ] {
            let mut h = map.handle(0);
            for round in 0..200u32 {
                for key in [1u32, 2, 3, 4] {
                    assert!(
                        h.insert(key, round),
                        "{} round {round} key {key}",
                        map.name()
                    );
                }
                for key in [2u32, 4, 1, 3] {
                    assert!(h.remove(key), "{} round {round} key {key}", map.name());
                }
            }
            assert_eq!(map.aba_events(), 0);
        }
    }

    #[test]
    fn keys_are_masked_to_the_split_order_domain() {
        let map = TaggedMap::with_threads(8, 1);
        let mut h = map.handle(0);
        assert!(h.insert(KEY_MASK, 1));
        // The top bit is masked off, so key | 1<<31 aliases key.
        assert!(!h.insert(KEY_MASK | 0x8000_0000, 2));
        assert_eq!(h.get(KEY_MASK), Some(1));
        assert!(h.remove(KEY_MASK | 0x8000_0000));
        assert_eq!(h.get(KEY_MASK), None);
    }

    #[test]
    fn deferred_schemes_report_their_limbo_footprint() {
        let map = EpochMap::with_threads(64, 1);
        let mut h = map.handle(0);
        assert!(h.insert(1, 10));
        assert!(h.remove(1));
        assert_eq!(map.unreclaimed(), 1);
        drop(h);
        assert_eq!(map.unreclaimed(), 0);
    }

    #[test]
    fn hazard_map_returns_nodes_to_arena_on_handle_drop() {
        let map = HazardMap::with_threads(8, 2);
        {
            let mut h = map.handle(0);
            for key in 0..8 {
                assert!(h.insert(key, key));
            }
            for key in 0..8 {
                assert!(h.remove(key));
            }
        }
        let mut h = map.handle(1);
        for key in 0..8 {
            assert!(h.insert(key, key), "node for key {key} was not reclaimed");
        }
    }

    #[test]
    fn concurrent_churn_is_coherent_for_protected_variants() {
        // Two threads over disjoint key ranges: a protected map must never
        // lose or invent a key, and values must stay attached to their keys.
        // `may_deny`: the epoch scheme alone may refuse an allocation by
        // design (limbo-bound admission while the other thread is pinned).
        use std::sync::Barrier;
        for (map, may_deny) in [
            (
                Box::new(TaggedMap::with_threads(64, 1)) as Box<dyn Map>,
                false,
            ),
            (Box::new(HazardMap::with_threads(64, 2)), false),
            (Box::new(EpochMap::with_threads(64, 2)), true),
            (Box::new(LlScMap::with_threads(64, 2)), false),
        ] {
            let barrier = Barrier::new(2);
            std::thread::scope(|s| {
                for tid in 0..2usize {
                    let map = &*map;
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut h = map.racing_handle(tid);
                        let base = tid as u32 * 1000;
                        barrier.wait();
                        for round in 0..300u32 {
                            for k in 0..8u32 {
                                let key = base + k;
                                let mut denied = map.alloc_failures();
                                while !h.insert(key, key ^ round) {
                                    // Only a counted admission denial excuses
                                    // a failed insert of an absent key.
                                    let now = map.alloc_failures();
                                    assert!(may_deny && now > denied, "{} insert", map.name());
                                    denied = now;
                                    std::thread::yield_now();
                                }
                            }
                            for k in 0..8u32 {
                                let key = base + k;
                                assert_eq!(h.get(key), Some(key ^ round), "{}", map.name());
                            }
                            for k in 0..8u32 {
                                assert!(h.remove(base + k), "{} remove", map.name());
                            }
                        }
                    });
                }
            });
            assert_eq!(map.aba_events(), 0, "{}", map.name());
        }
    }

    /// Far beyond any honest operation on a ≤ 128-key map (a handful of
    /// hops per walk, tens of restarts under 4-thread contention).
    const HOP_BUDGET: usize = 1 << 16;

    thread_local! {
        /// Windows the current thread has passed since it last reset this.
        static HOPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// The hop meter: every node a traversal visits passes one window, so a
    /// walk that would spin forever panics instead.
    fn count_hop() {
        let hops = HOPS.with(|h| h.replace(h.get() + 1));
        assert!(
            hops < HOP_BUDGET,
            "an operation exceeded its budget of {HOP_BUDGET} traversal hops"
        );
    }

    /// The [`Racing`] window with the hop meter.
    struct HopBudget;

    impl Window for HopBudget {
        fn preemption_window() {
            Racing::preemption_window();
            count_hop();
        }
    }

    /// The [`Production`] window with the hop meter: it counts and never
    /// yields, so the walk interleaves as production handles run it.
    struct HopMeter;

    impl Window for HopMeter {
        fn preemption_window() {
            count_hop();
        }
    }

    /// One engine cell of `table_matrix --family all --quick --threads 4` on
    /// `aba-workload`'s `hot-key-contention` mix (publish/retract cycles on
    /// 4 hot keys, a cold 64-key range, rolling-probe gets; a 100-op warm-up
    /// and two 800-op rounds on one 128-key map), through handles whose
    /// window `W` carries the hop meter.  Returns how many workers blew the
    /// budget.
    fn hot_key_cell<R: Reclaimer, W: Window>() -> usize {
        const THREADS: usize = 4;
        let map = GenericMap::<R>::with_threads(64 + 16 * THREADS, THREADS);
        for ops in [100, 800, 800] {
            let barrier = std::sync::Barrier::new(THREADS);
            let wedged = std::thread::scope(|s| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|tid| {
                        let (map, barrier) = (&map, &barrier);
                        s.spawn(move || {
                            let mut h = GenericMapHandle::<R, W>::new(map, tid);
                            let mut probe = tid as u32;
                            barrier.wait();
                            for i in 0..ops {
                                HOPS.with(|h| h.set(0));
                                let hot = ((i / 8 + tid) % 4) as u32;
                                let cold = 4 + (((i / 8) * 29 + tid * 17) % 64) as u32;
                                match i % 8 {
                                    0 | 4 => _ = h.insert(hot, hot ^ 0xA5A5_A5A5),
                                    2 | 5 => _ = h.remove(hot),
                                    3 => _ = h.insert(cold, cold ^ 0xA5A5_A5A5),
                                    7 => _ = h.remove(cold),
                                    _ => {
                                        probe = probe.wrapping_add(13) % 128;
                                        _ = h.get(probe);
                                    }
                                }
                            }
                        })
                    })
                    .collect();
                workers.into_iter().filter_map(|w| w.join().err()).count()
            });
            if wedged > 0 {
                return wedged; // the chain is cyclic from here on
            }
        }
        0
    }

    /// Regression test for the counted-links livelock of EXPERIMENTS.md
    /// E17: under the preemption window, 4 threads of hot-key churn used to
    /// leave the workers of `map/tagged` / `map/llsc` walking a cycle
    /// forever in about one cell in forty on 2 vCPUs, because the list's
    /// `find` let the key of a recycled node steer `bucket_anchor` (fixed by
    /// re-validating the predecessor after the key read).  The hop meter
    /// turns that hang into a panic.
    #[test]
    fn counted_links_maps_finish_hot_key_churn_within_the_hop_budget() {
        for cell in 0..400 {
            let wedged = hot_key_cell::<TagReclaim, HopBudget>();
            assert_eq!(
                wedged, 0,
                "map/tagged: {wedged} workers wedged in cell {cell}"
            );
            let wedged = hot_key_cell::<LlScReclaim, HopBudget>();
            assert_eq!(
                wedged, 0,
                "map/llsc: {wedged} workers wedged in cell {cell}"
            );
        }
    }

    /// Cells per scheme of the window-free test below: about three seconds
    /// in release on two cores.
    const WINDOW_FREE_CELLS: usize = 800;

    /// The same cells without the window, as every production caller runs
    /// them: the hop budget also guards the window-free interleavings.
    #[test]
    fn counted_links_maps_finish_window_free_hot_key_churn_within_the_hop_budget() {
        for cell in 0..WINDOW_FREE_CELLS {
            let wedged = hot_key_cell::<TagReclaim, HopMeter>();
            assert_eq!(
                wedged, 0,
                "map/tagged: {wedged} workers wedged in cell {cell}"
            );
            let wedged = hot_key_cell::<LlScReclaim, HopMeter>();
            assert_eq!(
                wedged, 0,
                "map/llsc: {wedged} workers wedged in cell {cell}"
            );
        }
    }
}
