//! Integration proof that the segmented arena actually *grows*: a map built
//! over a small initial segment ends up serving strictly more live nodes
//! than that initial capacity, under genuinely concurrent churn, for every
//! reclamation scheme.
//!
//! The unit tests in `arena.rs` exercise segment publication directly and
//! `map.rs`/`stress.rs` cover growth for single structures; this test pins
//! the end-to-end claim per registry entry, so a future refactor cannot
//! quietly re-bound any one variant (e.g. by reverting its constructor to a
//! fully-published plan) without tripping a named failure.

use std::sync::Arc;
use std::thread;

use aba_lockfree::map_builders;

/// More keys per thread than the whole initial arena segment holds.
const KEYS_PER_THREAD: u32 = 64;
const THREADS: usize = 4;

#[test]
fn every_scheme_grows_past_the_initial_arena_under_concurrent_churn() {
    for (name, build) in map_builders() {
        // Capacity for every key plus churn headroom; the *initial* arena
        // segment stays a handful of nodes (see `GenericMap::with_threads`).
        let capacity = KEYS_PER_THREAD as usize * THREADS * 2;
        let map: Arc<dyn aba_lockfree::Map> = Arc::from(build(capacity, THREADS));
        let initial = map.arena_initial_capacity();
        assert!(
            initial < KEYS_PER_THREAD as usize,
            "{name}: the initial arena must start smaller than one thread's keys \
             (initial={initial})"
        );

        // The unprotected variant is *expected* to corrupt once recycled
        // nodes re-enter a concurrent traversal (that is E13's point), so it
        // gets churn-free concurrent inserts — nothing is ever retired, and
        // growth is still driven from four threads at once.  The protected
        // schemes additionally remove/re-insert every fourth key, so segment
        // publication races with traversal, retirement and recycling.
        let churn = name != "map/unprotected";
        thread::scope(|s| {
            for tid in 0..THREADS {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    let mut handle = map.racing_handle(tid);
                    let base = tid as u32 * KEYS_PER_THREAD;
                    for k in base..base + KEYS_PER_THREAD {
                        assert!(handle.insert(k, k ^ 0xC0FF_EE00), "{name}: insert({k})");
                        if churn && k % 4 == 0 {
                            assert!(handle.remove(k), "{name}: remove({k})");
                            assert!(handle.insert(k, k ^ 0xC0FF_EE00), "{name}: re-insert({k})");
                        }
                    }
                });
            }
        });

        assert!(
            map.arena_live_capacity() > initial,
            "{name}: arena never grew (live {} <= initial {initial})",
            map.arena_live_capacity()
        );
        assert!(
            map.len() as usize > initial,
            "{name}: {} live bindings must exceed the initial capacity {initial}",
            map.len()
        );
        // Every binding survived the concurrent growth.
        let mut handle = map.handle(0);
        for k in 0..(THREADS as u32 * KEYS_PER_THREAD) {
            assert_eq!(
                handle.get(k),
                Some(k ^ 0xC0FF_EE00),
                "{name}: binding for {k} lost during growth"
            );
        }
    }
}
