//! # aba-hazard
//!
//! A small hazard-pointer domain, the ABA-*prevention* technique from the
//! paper's related work (Michael [20, 21]): before dereferencing / relying on
//! a shared handle, a thread *protects* it; a handle is only recycled once no
//! thread protects it, so a "pointer" can never come back while somebody
//! still reasons about its old identity — which is exactly what makes the
//! naive Treiber stack's CAS unsafe.
//!
//! The domain protects plain `u64` handles (the lock-free structures in
//! `aba-lockfree` use arena indices rather than raw pointers, which keeps the
//! whole repository free of `unsafe`), but the protocol — publish hazard,
//! validate, retire, scan — is the standard one.
//!
//! [`HazardHandle::clear`] stores unconditionally; a caller that knows its
//! slot is already empty (`aba-reclaim`'s guard keeps a mask of the lanes it
//! has published) skips the call rather than the domain second-guessing it.
//! The orphan list's lock is recovered if poisoned: it guards a plain
//! `Vec<u64>` and no caller's code runs while it is held.
//!
//! ```
//! use aba_hazard::HazardDomain;
//!
//! let domain = HazardDomain::new(2);
//! let h0 = domain.handle(0);
//! let mut h1 = domain.handle(1);
//!
//! h0.protect(42);
//! let mut freed = Vec::new();
//! h1.retire(42, |v| freed.push(v));
//! h1.flush(|v| freed.push(v));
//! assert!(freed.is_empty());          // still protected by thread 0
//! h0.clear();
//! h1.flush(|v| freed.push(v));
//! assert_eq!(freed, vec![42]);        // reclaimed once unprotected
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Sentinel meaning "no handle protected".
const EMPTY: u64 = u64::MAX;

/// Floor (in retired handles) for the automatic-scan trigger of
/// [`HazardHandle::retire`]; the actual trigger is
/// [`HazardDomain::scan_threshold`], which scales with the domain size.
pub const SCAN_THRESHOLD: usize = 64;

/// One hazard slot, alone on its 64-byte cache line.  Each slot is written
/// by exactly one thread (on every protect/clear) and read by all scanners;
/// without the padding, neighbouring threads' publish traffic would
/// false-share a line and serialize the hot path.  (This crate is
/// dependency-free, so the padding is spelled locally rather than through
/// `aba_core::CachePadded`.)
#[derive(Debug)]
#[repr(align(64))]
struct PaddedSlot(AtomicU64);

/// A hazard-pointer domain for `n` participating threads, each with one
/// hazard slot.
#[derive(Debug)]
pub struct HazardDomain {
    slots: Box<[PaddedSlot]>,
    /// Retired values whose owning handle was dropped before they could be
    /// reclaimed (they were still protected at drop time, or the handle never
    /// flushed).  The next scan by *any* handle adopts and reclaims them, so
    /// no retired value is ever silently lost — see [`HazardHandle`]'s drop
    /// contract.
    orphans: Mutex<Vec<u64>>,
}

impl HazardDomain {
    /// A domain for `n` threads.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one thread");
        HazardDomain {
            slots: (0..n).map(|_| PaddedSlot(AtomicU64::new(EMPTY))).collect(),
            orphans: Mutex::new(Vec::new()),
        }
    }

    /// Number of participating threads.
    pub fn threads(&self) -> usize {
        self.slots.len()
    }

    /// Obtain the per-thread handle for `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid >= self.threads()`.
    pub fn handle(&self, tid: usize) -> HazardHandle<'_> {
        assert!(tid < self.slots.len(), "tid {tid} out of range");
        HazardHandle {
            domain: self,
            tid,
            retired: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Whether any thread currently protects `value`.
    pub fn is_protected(&self, value: u64) -> bool {
        self.slots
            .iter()
            .any(|s| s.0.load(Ordering::SeqCst) == value)
    }

    /// The value currently protected by `tid`, if any.
    pub fn protected_by(&self, tid: usize) -> Option<u64> {
        let v = self.slots[tid].0.load(Ordering::SeqCst);
        (v != EMPTY).then_some(v)
    }

    /// Retired-list length at which [`HazardHandle::retire`] triggers a scan
    /// automatically: `max(`[`SCAN_THRESHOLD`]`, 2 · threads)`.
    ///
    /// Michael's analysis needs the trigger to scale with the number of
    /// hazard slots (the `H·n` rule, here `H = 1` slot per thread): a scan
    /// can free no more than `retired − protectors` values, so a flat
    /// trigger smaller than the domain size would let large domains scan
    /// while up to `threads` values stay protected — unbounded `kept` growth
    /// and quadratic rescans.  With `2n` the scan always frees at least half
    /// the list, making reclamation amortised O(1) per retire; the constant
    /// stays as a floor so small domains keep their batching.
    pub fn scan_threshold(&self) -> usize {
        SCAN_THRESHOLD.max(2 * self.threads())
    }

    /// Number of retired values orphaned by dropped handles and not yet
    /// adopted by a scan.
    pub fn orphan_len(&self) -> usize {
        self.lock_orphans().len()
    }

    /// Lock the orphan list.  A poisoned lock is recovered: the list is a
    /// plain `Vec<u64>` that only `append` touches under the lock, valid at
    /// every step, and no caller's code runs while it is held.
    fn lock_orphans(&self) -> MutexGuard<'_, Vec<u64>> {
        self.orphans.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Per-thread handle of a [`HazardDomain`]: one hazard slot plus a private
/// retired list.
///
/// # Drop contract
///
/// Dropping a handle clears its hazard slot.  Retired values the handle has
/// not reclaimed yet (use [`HazardHandle::flush`] or
/// [`HazardHandle::take_retired`] first for explicit control) are *not*
/// leaked: they move to the domain's orphan list and are adopted — and handed
/// to the `free` callback — by the next scan any surviving handle performs.
/// Callers whose `free` closures are handle-specific must therefore drain the
/// retired list themselves before dropping.
#[derive(Debug)]
pub struct HazardHandle<'a> {
    domain: &'a HazardDomain,
    tid: usize,
    retired: Vec<u64>,
    /// Protector snapshot reused across scans: after the first scan at a
    /// given domain size, scanning allocates nothing.
    scratch: Vec<u64>,
}

impl HazardHandle<'_> {
    /// The thread id this handle belongs to.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Publish protection for `value`.  Protection of a previously protected
    /// value (if any) is replaced.
    ///
    /// The caller must re-validate the source it read `value` from *after*
    /// protecting it (the usual hazard-pointer protocol); the lock-free
    /// structures in `aba-lockfree` show the pattern.
    ///
    /// # Panics
    ///
    /// Panics if `value` is `u64::MAX` (the internal sentinel).
    pub fn protect(&self, value: u64) {
        assert_ne!(value, EMPTY, "the sentinel cannot be protected");
        self.domain.slots[self.tid].0.store(value, Ordering::SeqCst);
    }

    /// Drop the current protection.
    pub fn clear(&self) {
        self.domain.slots[self.tid].0.store(EMPTY, Ordering::SeqCst);
    }

    /// Retire `value`: it will be handed to `free` once no thread protects
    /// it.  A scan runs automatically when the retired list reaches
    /// [`HazardDomain::scan_threshold`].
    ///
    /// # Panics
    ///
    /// Panics if `value` is `u64::MAX` (the internal sentinel).  A retired
    /// sentinel could never match any protector, so it would silently bypass
    /// protection and corrupt the accounting — the same reason
    /// [`HazardHandle::protect`] rejects it.
    pub fn retire(&mut self, value: u64, free: impl FnMut(u64)) {
        assert_ne!(value, EMPTY, "the sentinel cannot be retired");
        self.retired.push(value);
        if self.retired.len() >= self.domain.scan_threshold() {
            self.scan(free);
        }
    }

    /// Free every retired value that is no longer protected, keeping the
    /// still-protected ones for later.
    pub fn flush(&mut self, free: impl FnMut(u64)) {
        self.scan(free);
    }

    /// Number of values waiting in the retired list.
    pub fn retired_len(&self) -> usize {
        self.retired.len()
    }

    /// Take ownership of the retired list without reclaiming it.  The caller
    /// becomes responsible for the values (freeing them while another thread
    /// still protects one reintroduces the ABA this domain exists to
    /// prevent); ignoring the result re-creates the silent leak this method
    /// was added to rule out.
    #[must_use = "the caller owns these values now; dropping them leaks"]
    pub fn take_retired(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.retired)
    }

    fn scan(&mut self, mut free: impl FnMut(u64)) {
        // Adopt values orphaned by dropped handles: reclamation responsibility
        // transfers to whichever handle scans next (see the drop contract).
        self.retired.append(&mut self.domain.lock_orphans());
        // Snapshot and sort the protectors once, so the membership test for
        // each of the R retired values is O(log P) instead of O(P).  The
        // snapshot lives in a per-handle scratch buffer whose capacity is
        // reused across scans — a scan on a hot path allocates nothing.
        self.scratch.clear();
        self.scratch
            .extend((0..self.domain.threads()).filter_map(|t| self.domain.protected_by(t)));
        self.scratch.sort_unstable();
        let protected = &self.scratch;
        // Partition in place (`retain` keeps the survivors without a second
        // allocation), freeing everything unprotected.
        self.retired.retain(|&value| {
            if protected.binary_search(&value).is_ok() {
                true
            } else {
                free(value);
                false
            }
        });
    }

    /// Current capacity of the reusable protector-snapshot buffer (test
    /// hook: a stable value across scans proves scanning stopped
    /// allocating).
    pub fn scan_scratch_capacity(&self) -> usize {
        self.scratch.capacity()
    }
}

impl Drop for HazardHandle<'_> {
    fn drop(&mut self) {
        self.clear();
        if !self.retired.is_empty() {
            self.domain.lock_orphans().append(&mut self.retired);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hazard_slots_are_cache_line_padded() {
        // Layout regression: each thread's hazard slot must own a full
        // 64-byte line, so neighbouring protect/clear traffic never
        // false-shares.
        assert_eq!(std::mem::align_of::<PaddedSlot>(), 64);
        assert_eq!(std::mem::size_of::<PaddedSlot>(), 64);
        let d = HazardDomain::new(4);
        for pair in d.slots.windows(2) {
            let a = &pair[0] as *const _ as usize;
            let b = &pair[1] as *const _ as usize;
            assert!(b - a >= 64, "adjacent hazard slots share a cache line");
        }
    }

    #[test]
    fn unprotected_values_are_freed_immediately_on_flush() {
        let d = HazardDomain::new(2);
        let mut h = d.handle(0);
        let mut freed = Vec::new();
        h.retire(1, |v| freed.push(v));
        h.retire(2, |v| freed.push(v));
        h.flush(|v| freed.push(v));
        assert_eq!(freed, vec![1, 2]);
        assert_eq!(h.retired_len(), 0);
    }

    #[test]
    fn protected_values_are_deferred() {
        let d = HazardDomain::new(3);
        let protector = d.handle(1);
        let mut reclaimer = d.handle(2);
        protector.protect(9);
        let mut freed = Vec::new();
        reclaimer.retire(9, |v| freed.push(v));
        reclaimer.flush(|v| freed.push(v));
        assert!(freed.is_empty());
        assert_eq!(reclaimer.retired_len(), 1);
        protector.clear();
        reclaimer.flush(|v| freed.push(v));
        assert_eq!(freed, vec![9]);
    }

    #[test]
    fn protection_is_per_thread_and_replaceable() {
        let d = HazardDomain::new(2);
        let h = d.handle(0);
        h.protect(5);
        assert!(d.is_protected(5));
        assert_eq!(d.protected_by(0), Some(5));
        h.protect(6);
        assert!(!d.is_protected(5));
        assert!(d.is_protected(6));
        h.clear();
        assert!(!d.is_protected(6));
        assert_eq!(d.protected_by(0), None);
    }

    #[test]
    fn automatic_scan_at_threshold() {
        let d = HazardDomain::new(1);
        let mut h = d.handle(0);
        let mut freed = 0usize;
        for v in 0..(SCAN_THRESHOLD as u64) {
            h.retire(v, |_| freed += 1);
        }
        assert_eq!(freed, SCAN_THRESHOLD);
        assert_eq!(h.retired_len(), 0);
    }

    #[test]
    fn values_protected_at_scan_time_are_never_handed_to_free() {
        let d = HazardDomain::new(4);
        std::thread::scope(|s| {
            for tid in 1..4 {
                let d = &d;
                s.spawn(move || {
                    let mut h = d.handle(tid);
                    let base = 1000 * tid as u64;
                    for i in 0..500u64 {
                        let v = base + i;
                        let mut freed = Vec::new();
                        h.retire(v, |x| freed.push(x));
                        h.flush(|x| freed.push(x));
                        // Everything this thread retires is unprotected, so it
                        // must come back out exactly once.
                        assert_eq!(freed, vec![v]);
                    }
                });
            }
            // Thread 0 protects and releases its own value concurrently;
            // nobody retires it, so no interference is expected — this just
            // exercises concurrent slot traffic during scans.
            let h = d.handle(0);
            for _ in 0..2000 {
                h.protect(7);
                h.clear();
            }
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_tid_is_rejected() {
        let d = HazardDomain::new(1);
        let _ = d.handle(1);
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn sentinel_cannot_be_protected() {
        let d = HazardDomain::new(1);
        d.handle(0).protect(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn sentinel_cannot_be_retired() {
        // Regression: `retire` used to accept the sentinel `protect` rejects,
        // so a retired sentinel could never be matched by any protector.
        let d = HazardDomain::new(1);
        d.handle(0).retire(u64::MAX, |_| {});
    }

    #[test]
    fn scan_trigger_scales_with_domain_size() {
        // Regression: the trigger used to be a flat SCAN_THRESHOLD, so an
        // n = 128 domain would scan with up to 128 protectors but only 64
        // retirees.  Post-fix the trigger is max(SCAN_THRESHOLD, 2n) = 256.
        let d = HazardDomain::new(128);
        assert_eq!(d.scan_threshold(), 256);
        let mut h = d.handle(0);
        let mut freed = 0usize;
        for v in 1..=255u64 {
            h.retire(v, |_| freed += 1);
        }
        // Nothing is protected, so an (early) scan would have freed
        // everything; the list growing past SCAN_THRESHOLD proves the scan
        // has not fired yet.
        assert_eq!(freed, 0);
        assert_eq!(h.retired_len(), 255);
        // The 256th retire crosses the scaled trigger and reclaims all.
        h.retire(256, |_| freed += 1);
        assert_eq!(freed, 256);
        assert_eq!(h.retired_len(), 0);
    }

    #[test]
    fn small_domains_keep_the_constant_floor() {
        let d = HazardDomain::new(4);
        assert_eq!(d.scan_threshold(), SCAN_THRESHOLD);
    }

    #[test]
    fn dropped_handle_orphans_its_retired_values_for_adoption() {
        // Regression: dropping a handle with a non-empty retired list used to
        // silently leak those values — no scan would ever see them again.
        let d = HazardDomain::new(2);
        {
            let mut h = d.handle(0);
            h.retire(5, |_| {});
            h.retire(6, |_| {});
        } // dropped without a flush
        assert_eq!(d.orphan_len(), 2);
        let mut adopter = d.handle(1);
        let mut freed = Vec::new();
        adopter.flush(|v| freed.push(v));
        freed.sort_unstable();
        assert_eq!(freed, vec![5, 6]);
        assert_eq!(d.orphan_len(), 0);
    }

    #[test]
    fn values_still_protected_at_drop_are_reclaimed_later_not_lost() {
        let d = HazardDomain::new(3);
        let protector = d.handle(0);
        protector.protect(9);
        {
            let mut h = d.handle(1);
            let mut freed = Vec::new();
            h.retire(9, |v| freed.push(v));
            h.flush(|v| freed.push(v));
            assert!(freed.is_empty(), "9 is protected, flush must keep it");
        } // handle dropped while 9 is still protected -> orphaned, not leaked
        assert_eq!(d.orphan_len(), 1);
        protector.clear();
        let mut adopter = d.handle(2);
        let mut freed = Vec::new();
        adopter.flush(|v| freed.push(v));
        assert_eq!(freed, vec![9]);
    }

    #[test]
    fn a_poisoned_orphan_lock_is_recovered() {
        let d = HazardDomain::new(2);
        {
            let mut h = d.handle(0);
            h.retire(5, |_| {});
        } // 5 is orphaned
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = d.orphans.lock().unwrap();
                panic!("poison the orphan lock");
            })
            .join()
        });
        assert!(panicked.is_err());
        assert!(d.orphans.is_poisoned());
        // The list is a plain vector of values: nothing a panic can break.
        // A handle still orphans onto it, drops over it and adopts from it.
        assert_eq!(d.orphan_len(), 1);
        {
            let mut h = d.handle(0);
            h.retire(6, |_| {});
        }
        assert_eq!(d.orphan_len(), 2);
        let mut adopter = d.handle(1);
        let mut freed = Vec::new();
        adopter.flush(|v| freed.push(v));
        assert_eq!(freed, vec![5, 6]);
        assert_eq!(d.orphan_len(), 0);
    }

    #[test]
    fn dropping_a_handle_clears_its_hazard_slot() {
        let d = HazardDomain::new(2);
        {
            let h = d.handle(0);
            h.protect(3);
            assert!(d.is_protected(3));
        }
        // The slot does not keep protecting a value nobody can ever clear.
        assert!(!d.is_protected(3));
    }

    #[test]
    fn take_retired_transfers_ownership() {
        let d = HazardDomain::new(1);
        let mut h = d.handle(0);
        h.retire(1, |_| {});
        h.retire(2, |_| {});
        let taken = h.take_retired();
        assert_eq!(taken, vec![1, 2]);
        assert_eq!(h.retired_len(), 0);
        drop(h);
        // Nothing is orphaned: the caller owns the values now.
        assert_eq!(d.orphan_len(), 0);
    }

    #[test]
    fn scan_reuses_its_scratch_buffer_no_per_scan_allocation_growth() {
        // Regression (#[bench]-style): `scan` used to allocate a fresh
        // protector Vec (plus a `kept` Vec) on every call.  Post-fix the
        // protector snapshot lives in a per-handle scratch buffer and the
        // retired list is partitioned in place, so after a warmup scan the
        // buffer capacity must stay exactly flat across thousands of scans
        // — any per-scan allocation would show up as capacity churn (or as
        // a zero capacity while protectors exist).
        let d = HazardDomain::new(16);
        let protectors: Vec<_> = (0..15).map(|t| d.handle(t)).collect();
        for (i, p) in protectors.iter().enumerate() {
            p.protect(1_000_000 + i as u64); // disjoint from the retired range
        }
        let mut h = d.handle(15);
        let mut freed = 0usize;
        // Warmup: the first scan sizes the scratch buffer.
        h.retire(1, |_| freed += 1);
        h.flush(|_| freed += 1);
        let warm_capacity = h.scan_scratch_capacity();
        assert!(warm_capacity >= 15, "snapshot must cover the protectors");
        for v in 2..2_000u64 {
            h.retire(v, |_| freed += 1);
            h.flush(|_| freed += 1);
            assert_eq!(
                h.scan_scratch_capacity(),
                warm_capacity,
                "scan {v} grew the scratch buffer"
            );
        }
        assert_eq!(freed, 1_999, "every unprotected retiree was freed");
        assert_eq!(h.retired_len(), 0);
        drop(protectors);
    }

    #[test]
    fn scan_handles_duplicate_retirees_and_many_protectors() {
        // Exercises the sorted-protector membership test: several protectors,
        // retired values both protected and not, including duplicates (the
        // broken stack can double-retire after an ABA).
        let d = HazardDomain::new(8);
        let protectors: Vec<_> = (0..7).map(|t| d.handle(t)).collect();
        for (i, p) in protectors.iter().enumerate() {
            p.protect(100 + i as u64);
        }
        let mut h = d.handle(7);
        let mut freed = Vec::new();
        for v in [100u64, 100, 1, 106, 2, 2] {
            h.retire(v, |x| freed.push(x));
        }
        h.flush(|x| freed.push(x));
        freed.sort_unstable();
        assert_eq!(freed, vec![1, 2, 2]);
        assert_eq!(h.retired_len(), 3); // 100, 100, 106 still protected
        drop(protectors);
        h.flush(|x| freed.push(x));
        assert_eq!(h.retired_len(), 0);
    }
}
