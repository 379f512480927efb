//! The guard protocol every reclamation scheme must pass, run over the five
//! roster schemes *and* over a minimal reclaimer that implements only the
//! required protection core — proving that `Guard`'s provided link-word
//! methods suffice — and that minimal reclaimer under the generic structures.

use std::sync::atomic::{AtomicU64, Ordering};

use aba_repro::lockfree::{GenericSet, GenericStack, Set, Stack};
use aba_repro::reclaim::{
    BareLinks, EpochReclaim, Guard, HazardReclaim, LlScReclaim, NoReclaim, Reclaimer, Scheme,
    SlotId, TagReclaim, NIL,
};

/// Bare words, and retired nodes leak until allocation pressure hands them
/// back — safe only without concurrent readers, which is all these
/// single-threaded checks need.  Nothing beyond the eight required `Guard`
/// methods and `type Links` is implemented.
#[derive(Default)]
struct LeakReclaim {
    slots: Vec<AtomicU64>,
}

struct LeakGuard<'a> {
    slots: &'a [AtomicU64],
    leaked: Vec<u64>,
}

impl Reclaimer for LeakReclaim {
    type Guard<'a> = LeakGuard<'a>;

    // Test-only: borrows a roster entry, since it is not one.
    const SCHEME: Scheme = Scheme::Unprotected;

    fn new(_threads: usize, _lanes: usize) -> Self {
        Self::default()
    }

    fn add_slot(&mut self, idx: u64) -> SlotId {
        self.slots.push(AtomicU64::new(idx));
        self.slots.len() - 1
    }

    fn guard(&self, _tid: usize, _capacity: usize) -> LeakGuard<'_> {
        LeakGuard {
            slots: &self.slots,
            leaked: Vec::new(),
        }
    }
}

impl Guard for LeakGuard<'_> {
    type Links = BareLinks;

    fn protect(&mut self, _lane: usize, slot: SlotId) -> u64 {
        self.load(slot)
    }

    fn load(&mut self, slot: SlotId) -> u64 {
        self.slots[slot].load(Ordering::SeqCst)
    }

    fn validate(&mut self, slot: SlotId, raw: u64) -> bool {
        self.load(slot) == raw
    }

    fn cas(&mut self, slot: SlotId, raw: u64, idx: u64) -> bool {
        self.slots[slot]
            .compare_exchange(raw, idx, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    fn index_of(&self, raw: u64) -> u64 {
        raw
    }

    fn retire(&mut self, idx: u64, _free: impl FnMut(u64)) {
        self.leaked.push(idx);
    }

    fn quiesce(&mut self) {}

    fn reclaim_pressure(&mut self, free: impl FnMut(u64)) {
        self.leaked.drain(..).for_each(free);
    }
}

fn roundtrip<R: Reclaimer>() {
    let mut r = R::new(2, 1);
    let head = r.add_slot(NIL);
    let mut g = r.guard(0, 8);
    let raw = g.protect(0, head);
    assert_eq!(g.index_of(raw), NIL);
    let raw = g.load(head);
    assert!(g.cas(head, raw, 3));
    let raw = g.protect(0, head);
    assert_eq!(g.index_of(raw), 3);
    assert!(g.validate(head, raw));
    assert!(g.cas(head, raw, NIL));
    let mut freed = Vec::new();
    g.retire(3, |v| freed.push(v));
    g.quiesce();
    g.reclaim_pressure(|v| freed.push(v));
    assert_eq!(freed, vec![3], "{:?} must free the sole retiree", R::SCHEME);
    assert_eq!(r.unreclaimed(), 0);
}

fn link_roundtrip<R: Reclaimer>() {
    let r = R::new(1, 1);
    let g = r.guard(0, 8);
    let link = AtomicU64::new(NIL);
    assert_eq!(g.index_of(g.load_link(&link)), NIL);
    g.store_link(&link, 5);
    assert_eq!(g.index_of(g.load_link(&link)), 5);
    let raw = g.load_link(&link);
    assert!(g.cas_link(&link, raw, 6));
    assert_eq!(g.index_of(g.load_link(&link)), 6);
    assert!(!g.cas_link(&link, raw, 7), "stale link CAS must fail");
}

fn mark_roundtrip<R: Reclaimer>() {
    let r = R::new(1, 1);
    let mut g = r.guard(0, 8);
    let link = AtomicU64::new(NIL); // a fresh arena link: legacy bare nil
    assert_eq!(g.marked_index_of(g.load_link(&link)), NIL);
    assert!(
        !g.mark_of(g.load_link(&link)),
        "{:?}: a fresh link must decode unmarked",
        R::SCHEME
    );
    g.store_link_mark(&link, 5, false);
    let raw = g.load_link(&link);
    assert_eq!(g.marked_index_of(raw), 5);
    assert!(!g.mark_of(raw));
    assert!(g.validate_link(&link, raw));
    assert!(g.protect_link_word(0, 5, &link, raw));
    // Logical deletion: same successor, mark set, one CAS.
    assert!(g.cas_link_mark(&link, raw, 5, true));
    let marked = g.load_link(&link);
    assert_eq!(
        g.marked_index_of(marked),
        5,
        "mark must not disturb the index"
    );
    assert!(g.mark_of(marked));
    assert!(!g.validate_link(&link, raw));
    assert!(!g.protect_link_word(0, 5, &link, raw));
    assert!(
        !g.cas_link_mark(&link, raw, 7, false),
        "{:?}: a stale CAS must fail once the link is marked",
        R::SCHEME
    );
    // Marked nil (deleted last node) is representable too.
    assert!(g.cas_link_mark(&link, marked, NIL, true));
    let tail = g.load_link(&link);
    assert_eq!(g.marked_index_of(tail), NIL);
    assert!(g.mark_of(tail));
    g.quiesce();
}

fn protocol<R: Reclaimer>() {
    roundtrip::<R>();
    link_roundtrip::<R>();
    mark_roundtrip::<R>();
}

#[test]
fn every_roster_scheme_passes_the_guard_protocol() {
    protocol::<NoReclaim>();
    protocol::<TagReclaim>();
    protocol::<HazardReclaim>();
    protocol::<LlScReclaim>();
    protocol::<EpochReclaim>();
}

#[test]
fn a_core_only_reclaimer_passes_the_guard_protocol() {
    protocol::<LeakReclaim>();
}

#[test]
fn a_core_only_reclaimer_runs_the_generic_structures() {
    let stack = GenericStack::<LeakReclaim>::with_threads(4, 1);
    let mut h = stack.handle(0);
    for round in 0..3u32 {
        // Popped nodes leak until the arena runs dry; the push path's
        // pressure hook then brings them back.
        for v in 0..4 {
            assert!(h.push(round * 10 + v), "round {round} push {v}");
        }
        for v in (0..4).rev() {
            assert_eq!(h.pop(), Some(round * 10 + v));
        }
    }
    assert_eq!(h.pop(), None);

    let set = GenericSet::<LeakReclaim>::with_threads(4, 1);
    let mut h = set.handle(0);
    for round in 0..3 {
        for key in [3, 1, 2] {
            assert!(h.insert(key), "round {round} insert {key}");
        }
        assert!(!h.insert(2));
        assert!(h.contains(1) && h.contains(2) && h.contains(3));
        for key in [2, 3, 1] {
            assert!(h.remove(key), "round {round} remove {key}");
        }
        assert!(!h.contains(2));
    }
}
