//! Real-`std::thread` stress tests for `HazardDomain`: concurrent
//! protect/retire/flush with counted reclamation, including a 128-thread
//! domain exercising the scaled scan threshold (Michael's `H·n` rule).

use std::sync::atomic::{AtomicBool, Ordering};

use aba_reclaim::hazard::{HazardDomain, SCAN_THRESHOLD};

/// Every thread protects, retires and flushes values from a disjoint range;
/// afterwards each value must have been handed to `free` exactly once.
#[test]
fn concurrent_protect_retire_flush_reclaims_exactly_once() {
    const THREADS: usize = 8;
    const OPS: u64 = 500;
    let domain = HazardDomain::new(THREADS);
    let freed_per_thread: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let domain = &domain;
                s.spawn(move || {
                    let mut h = domain.handle(tid);
                    let base = 1 + tid as u64 * 1_000_000;
                    let mut freed = Vec::new();
                    for i in 0..OPS {
                        let v = base + i;
                        // Protect-then-retire keeps the value alive across
                        // intermediate scans until the final clear.
                        h.protect(v);
                        h.retire(v, |x| freed.push(x));
                        if i % 64 == 63 {
                            h.flush(|x| freed.push(x));
                        }
                    }
                    h.clear();
                    h.flush(|x| freed.push(x));
                    assert_eq!(h.retired_len(), 0, "thread {tid} kept retired values");
                    freed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (tid, mut freed) in freed_per_thread.into_iter().enumerate() {
        freed.sort_unstable();
        let base = 1 + tid as u64 * 1_000_000;
        let expected: Vec<u64> = (base..base + OPS).collect();
        assert_eq!(freed, expected, "thread {tid}: every value exactly once");
    }
}

/// An `n = 128` domain used by 8 real threads: the scan trigger is
/// `2 · 128 = 256`, so retired lists legitimately grow past the old flat
/// `SCAN_THRESHOLD` of 64 before a scan fires, and everything is still
/// reclaimed in the end.  (Pre-fix, a scan fired at 64 retirees even though
/// the domain has 128 potential protectors.)
#[test]
fn n128_domain_exercises_the_scaled_threshold_under_concurrency() {
    const DOMAIN: usize = 128;
    const WORKERS: usize = 8;
    const OPS: u64 = 600;
    let domain = HazardDomain::new(DOMAIN);
    assert_eq!(domain.scan_threshold(), 2 * DOMAIN);

    let results: Vec<(u64, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let domain = &domain;
                // Spread the worker threads across the big domain.
                let tid = w * (DOMAIN / WORKERS);
                s.spawn(move || {
                    let mut h = domain.handle(tid);
                    let base = 1 + w as u64 * 1_000_000;
                    let mut freed = 0u64;
                    let mut max_retired = 0usize;
                    for i in 0..OPS {
                        h.retire(base + i, |_| freed += 1);
                        max_retired = max_retired.max(h.retired_len());
                    }
                    h.flush(|_| freed += 1);
                    (freed, max_retired)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (w, (freed, max_retired)) in results.into_iter().enumerate() {
        assert_eq!(freed, OPS, "worker {w}: counted reclamation is exact");
        assert!(
            max_retired > SCAN_THRESHOLD,
            "worker {w}: the trigger must scale with the domain (max retired {max_retired})"
        );
        assert!(
            max_retired < 2 * DOMAIN,
            "worker {w}: the scaled trigger must still fire (max retired {max_retired})"
        );
    }
}

/// Cross-thread deferral with a real handshake: a value stays unreclaimed
/// while another thread protects it and is freed on the flush after release.
#[test]
fn protected_value_is_deferred_across_real_threads() {
    let domain = HazardDomain::new(2);
    let protected = AtomicBool::new(false);
    let released = AtomicBool::new(false);
    const VALUE: u64 = 42;

    std::thread::scope(|s| {
        s.spawn(|| {
            let protector = domain.handle(0);
            protector.protect(VALUE);
            // ordering: Release/Acquire handshake — the flag publishes the
            // preceding protect(); SeqCst would only add a total order the
            // test does not rely on.
            protected.store(true, Ordering::Release);
            // ordering: pairs with the Release store of `released` below.
            while !released.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            protector.clear();
        });

        let mut reclaimer = domain.handle(1);
        // ordering: pairs with the Release store of `protected` above.
        while !protected.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let mut freed = Vec::new();
        reclaimer.retire(VALUE, |v| freed.push(v));
        reclaimer.flush(|v| freed.push(v));
        assert!(freed.is_empty(), "protected value must be deferred");
        assert_eq!(reclaimer.retired_len(), 1);

        // ordering: publishes the flush/assert sequence to the protector.
        released.store(true, Ordering::Release);
        while domain.is_protected(VALUE) {
            std::thread::yield_now();
        }
        reclaimer.flush(|v| freed.push(v));
        assert_eq!(freed, vec![VALUE]);
    });
}
