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
//! The algorithm — Harris's marked links, Michael's helped unlink, the
//! hand-over-hand protection — is the crate's one list (`list.rs`), which the
//! split-ordered [`map`](crate::map) shares; the set is that list with every
//! walk started at its root slot.

use aba_reclaim::{EpochReclaim, HazardReclaim, LlScReclaim, NoReclaim, Reclaimer, TagReclaim};

use crate::arena::NodeArena;
use crate::list::{List, ListHandle, Prev};
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
    fn alloc_failures(&self) -> u64;
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

/// Harris–Michael sorted linked-list set, generic in its ABA-protection /
/// reclamation scheme `R`: the crate's one list (`list.rs`), every walk
/// started at the root slot — the set's head word, which lives inside the
/// reclaimer — and no data next to the keys.
#[derive(Debug)]
pub struct GenericSet<R: Reclaimer> {
    list: List<R>,
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
        GenericSet {
            list: List::new(NodeArena::new(capacity), threads),
        }
    }
}

impl<R: Reclaimer> Set for GenericSet<R> {
    fn capacity(&self) -> usize {
        self.list.nodes.arena.capacity()
    }

    fn name(&self) -> &'static str {
        Family::Set.label(R::SCHEME)
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

    fn handle(&self, tid: usize) -> Box<dyn SetHandle + '_> {
        Box::new(self.list.handle::<Production>(tid))
    }

    fn racing_handle(&self, tid: usize) -> Box<dyn SetHandle + '_> {
        Box::new(self.list.handle::<Racing>(tid))
    }
}

impl<R: Reclaimer, W: Window> SetHandle for ListHandle<'_, R, W> {
    fn insert(&mut self, key: u32) -> bool {
        ListHandle::insert(self, Prev::Root, key, 0)
    }

    fn remove(&mut self, key: u32) -> bool {
        ListHandle::remove(self, Prev::Root, key)
    }

    fn contains(&mut self, key: u32) -> bool {
        self.get(Prev::Root, key).is_some()
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
        set_smoke(&UnprotectedSet::with_threads(8, 1));
        set_smoke(&TaggedSet::with_threads(8, 1));
        set_smoke(&HazardSet::with_threads(8, 2));
        set_smoke(&EpochSet::with_threads(8, 2));
        set_smoke(&LlScSet::with_threads(8, 2));
    }

    #[test]
    fn keys_are_kept_sorted_through_churn() {
        // Insert out of order, remove the middle, re-insert: membership (not
        // position) is what the interface exposes, but the ordered traversal
        // means a misplaced splice shows up as a lost key.
        for set in [
            Box::new(TaggedSet::with_threads(16, 1)) as Box<dyn Set>,
            Box::new(HazardSet::with_threads(16, 1)),
            Box::new(EpochSet::with_threads(16, 1)),
            Box::new(LlScSet::with_threads(16, 1)),
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
        let set = TaggedSet::with_threads(2, 1);
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
            Box::new(UnprotectedSet::with_threads(8, 1)) as Box<dyn Set>,
            Box::new(TaggedSet::with_threads(8, 1)),
            Box::new(HazardSet::with_threads(8, 1)),
            Box::new(EpochSet::with_threads(8, 1)),
            Box::new(LlScSet::with_threads(8, 1)),
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
            Box::new(TaggedSet::with_threads(4, 1)) as Box<dyn Set>,
            Box::new(HazardSet::with_threads(4, 1)),
            Box::new(EpochSet::with_threads(4, 1)),
            Box::new(LlScSet::with_threads(4, 1)),
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
        let set = HazardSet::with_threads(4, 2);
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
        let set = EpochSet::with_threads(4, 2);
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
        let set = HazardSet::with_threads(8, 2);
        let mut h = set.handle(0);
        for key in [1u32, 2, 3] {
            assert!(h.insert(key));
        }
        assert!(h.contains(3));
        assert!(!h.contains(9));
        let domain = set.list.nodes.reclaim.domain();
        for lane in 0..crate::list::LANES {
            assert_eq!(domain.protected_by(lane), None, "lane {lane} leaked");
        }
    }

    #[test]
    fn deferred_schemes_report_their_limbo_footprint() {
        let set = EpochSet::with_threads(64, 1);
        let mut h = set.handle(0);
        assert!(h.insert(1));
        assert!(h.remove(1));
        assert_eq!(set.unreclaimed(), 1);
        drop(h);
        assert_eq!(set.unreclaimed(), 0);
    }

    #[test]
    fn unreclaimed_is_zero_for_immediate_free_schemes() {
        for set in [
            Box::new(UnprotectedSet::with_threads(4, 1)) as Box<dyn Set>,
            Box::new(TaggedSet::with_threads(4, 1)),
            Box::new(LlScSet::with_threads(4, 1)),
        ] {
            let mut h = set.handle(0);
            assert!(h.insert(1));
            assert!(h.remove(1));
            drop(h);
            assert_eq!(set.unreclaimed(), 0, "{}", set.name());
        }
    }
}
