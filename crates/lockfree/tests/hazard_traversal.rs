//! Targeted interleaving test for hazard-protected traversals: `contains`
//! must never act on a node that was retired (and recycled) mid-traversal.
//!
//! Topology: the stable keys `{10, 30, 40}` stay in the set for the whole
//! run while a churner thread cycles the keys `20` (spliced *between* 10
//! and 30) and `50` (spliced at the tail, next = nil) through a
//! capacity-tight arena, so the node freed by `remove(20)` is promptly
//! recycled as the key-50 tail node whose link is nil.
//!
//! A traverser probing `contains(40)` must pass the key-20 position on
//! every probe.  If a traversal ever trusts a node that was recycled out
//! from under it — a hazard published too late for the retirement scan, a
//! missing `*prev == cur` re-validation, a broken hazard-lane rotation —
//! it follows the recycled node's tail-position link to nil (or reads its
//! key as 50 ≥ 40) and reports the permanently-present key 40 absent,
//! which is exactly what this test asserts can never happen.
//!
//! The *publication-order* half of the contract (hazard first, validate
//! second, hand-over-hand) is pinned separately and deterministically by
//! the white-box unit test
//! `set::tests::hand_over_hand_publication_order_is_load_bearing`, which is
//! verified to fail when `HazardGuard::protect_link_word` is inverted; this
//! integration test is the black-box net over the whole traversal.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use aba_lockfree::set::{HazardSet, Set};

/// Churner rounds; each round recycles the key-20 node through the free
/// list into the tail position and back.
const ROUNDS: usize = 2_000;

#[test]
fn contains_survives_mid_traversal_retirement_and_recycling() {
    // Capacity 5: 4 live keys + one spare, so the free list is always
    // nearly empty and a retired node's index comes straight back through
    // the hazard scan to serve the next insert.
    let set = HazardSet::with_threads(5, 2);
    {
        let mut h = set.handle(0);
        for key in [10u32, 20, 30, 40] {
            assert!(h.insert(key));
        }
    }

    let barrier = Barrier::new(2);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let churner = s.spawn(|| {
            let mut h = set.racing_handle(0);
            barrier.wait();
            for _ in 0..ROUNDS {
                // Free the inner node …
                assert!(h.remove(20), "stable topology: 20 was present");
                // … recycle it as the tail node (next = nil) …
                while !h.insert(50) {
                    // Arena transiently exhausted behind the limbo list.
                    std::thread::yield_now();
                }
                // … and restore the original topology.
                assert!(h.remove(50));
                while !h.insert(20) {
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::SeqCst);
        });

        let traverser = s.spawn(|| {
            let mut h = set.racing_handle(1);
            barrier.wait();
            let mut probes = 0u64;
            while !done.load(Ordering::SeqCst) {
                // The stable keys must be visible on every single probe: a
                // miss means the traversal acted on a node that was
                // recycled out from under it.
                assert!(h.contains(10), "stable key 10 vanished mid-churn");
                assert!(h.contains(30), "stable key 30 vanished mid-churn");
                assert!(
                    h.contains(40),
                    "stable key 40 vanished: the traversal followed a \
                     recycled node's link past the tail"
                );
                probes += 1;
            }
            probes
        });

        churner.join().expect("churner panicked");
        let probes = traverser.join().expect("traverser panicked");
        assert!(probes > 0, "the traverser never ran");
    });

    // Everything still linearizes to the stable membership afterwards.
    let mut h = set.handle(0);
    for key in [10u32, 20, 30, 40] {
        assert!(h.contains(key), "post-run membership lost {key}");
    }
    assert!(!h.contains(50));
    assert_eq!(set.aba_events(), 0, "hazard protection admits no ABA");
}
