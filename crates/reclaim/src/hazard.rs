//! Hazard pointers (Michael [20, 21]): the hazard-pointer domain and the
//! [`HazardReclaim`] scheme built on it.
//!
//! Before dereferencing / relying on a shared handle, a thread *protects*
//! it; a handle is only recycled once no thread protects it, so a "pointer"
//! can never come back while somebody still reasons about its old identity
//! — which is exactly what makes the naive Treiber stack's CAS unsafe.
//!
//! The [`HazardDomain`] protects plain `u64` handles (the lock-free
//! structures in `aba-lockfree` use arena indices rather than raw pointers,
//! which keeps the whole repository free of `unsafe`), but the protocol —
//! publish hazard, validate, retire, scan — is the standard one.
//!
//! [`HazardHandle::clear`] stores unconditionally; a caller that knows its
//! slot is already empty ([`HazardGuard`] keeps a mask of the lanes it has
//! published) skips the call rather than the domain second-guessing it.
//! The orphan list's lock is recovered if poisoned: it guards a plain
//! `Vec<u64>` and no caller's code runs while it is held.
//!
//! ```
//! use aba_reclaim::hazard::HazardDomain;
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use aba_core::CachePadded;

use crate::gauge::{Gauge, GaugeCell};
use crate::{BareLinks, Guard, Reclaimer, Scheme, SlotId, SlotView, Slots, NIL};

/// Sentinel meaning "no handle protected".
const EMPTY: u64 = u64::MAX;

/// Floor (in retired handles) for the automatic-scan trigger of
/// [`HazardHandle::retire`]; the actual trigger is
/// [`HazardDomain::scan_threshold`], which scales with the domain size.
pub const SCAN_THRESHOLD: usize = 64;

/// One hazard slot, alone on its 64-byte cache line.  Each slot is written
/// by exactly one thread (on every protect/clear) and read by all scanners;
/// without the padding, neighbouring threads' publish traffic would
/// false-share a line and serialize the hot path.
type PaddedSlot = CachePadded<AtomicU64>;

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
            slots: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(EMPTY)))
                .collect(),
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
        self.slots.iter().any(|s| s.load(Ordering::SeqCst) == value)
    }

    /// The value currently protected by `tid`, if any.
    pub fn protected_by(&self, tid: usize) -> Option<u64> {
        let v = self.slots[tid].load(Ordering::SeqCst);
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
        self.domain.slots[self.tid].store(value, Ordering::SeqCst);
    }

    /// Drop the current protection.
    pub fn clear(&self) {
        self.domain.slots[self.tid].store(EMPTY, Ordering::SeqCst);
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

// ---------------------------------------------------------------------------
// HazardReclaim: Michael's hazard pointers over the domain above.
// ---------------------------------------------------------------------------

/// Hazard-pointer protection (Michael [20, 21]) over a [`HazardDomain`]:
/// `protect` publishes a hazard and re-validates its source, `retire`
/// defers the free until no thread protects the node.
#[derive(Debug)]
pub struct HazardReclaim {
    domain: HazardDomain,
    /// Crate-visible for the layout test every plain-word scheme shares.
    pub(crate) slots: Slots<BareLinks>,
    lanes: usize,
    unreclaimed: Gauge,
}

impl Reclaimer for HazardReclaim {
    type Guard<'a> = HazardGuard<'a>;

    const SCHEME: Scheme = Scheme::Hazard;

    fn new(threads: usize, lanes: usize) -> Self {
        let (threads, lanes) = (threads.max(1), lanes.max(1));
        assert!(
            lanes <= u64::BITS as usize,
            "a guard's published-lane mask is one word"
        );
        HazardReclaim {
            domain: HazardDomain::new(threads * lanes),
            slots: Slots::default(),
            lanes,
            unreclaimed: Gauge::new(threads),
        }
    }

    fn add_slot(&mut self, idx: u64) -> SlotId {
        self.slots.add(idx)
    }

    fn guard(&self, tid: usize, capacity: usize) -> HazardGuard<'_> {
        let unreclaimed = self.unreclaimed.cell(tid);
        HazardGuard {
            lanes: (0..self.lanes)
                .map(|lane| self.domain.handle(tid * self.lanes + lane))
                .collect(),
            cache: (0..self.lanes)
                .map(|_| CachePadded::new((usize::MAX, NIL, NIL)))
                .collect(),
            published: 0,
            slots: self.slots.view(),
            unreclaimed,
            capacity,
        }
    }

    fn unreclaimed(&self) -> u64 {
        self.unreclaimed.sum()
    }
}

impl HazardReclaim {
    /// The underlying hazard domain (for tests and diagnostics).
    pub fn domain(&self) -> &HazardDomain {
        &self.domain
    }
}

/// Guard of [`HazardReclaim`]: one hazard slot per lane, retirees in lane
/// 0's retired list, and a per-lane snapshot cache that keeps the `protect`
/// hot path on one shared cache line.
///
/// A hazard slot is written by this guard alone, so the guard knows which
/// of its slots hold a value without reading them: [`Guard::quiesce`] and
/// [`Guard::retire`] clear exactly the *published* lanes and never store
/// empty over empty — a push, which protects nothing, issues no hazard
/// store at all.
pub struct HazardGuard<'a> {
    lanes: Vec<HazardHandle<'a>>,
    /// Per-lane `(slot, raw, node)` snapshot of the last successful protect
    /// of a node, each alone on its cache line: the hot path publishes the
    /// cached node and pays a *single* shared validating load, instead of
    /// the load → publish → re-load double touch of the shared slot array.
    cache: Vec<CachePadded<(SlotId, u64, u64)>>,
    /// Bit `lane` is set whenever this guard's hazard slot `lane` holds a
    /// value.
    published: u64,
    slots: SlotView<'a, BareLinks>,
    unreclaimed: GaugeCell<'a>,
    capacity: usize,
}

impl std::fmt::Debug for HazardGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HazardGuard")
            .field("lanes", &self.lanes.len())
            .finish_non_exhaustive()
    }
}

impl HazardGuard<'_> {
    /// Publish `value` in `lane`'s hazard slot.
    #[inline]
    fn publish(&mut self, lane: usize, value: u64) {
        // Mask first: it may name a lane whose slot is empty (a clear over
        // empty is only wasted), never miss one that holds a value.
        self.published |= 1 << lane;
        self.lanes[lane].protect(value);
    }

    /// Clear every published lane.
    #[inline]
    fn clear_published(&mut self) {
        let mut published = std::mem::take(&mut self.published);
        while published != 0 {
            self.lanes[published.trailing_zeros() as usize].clear();
            published &= published - 1;
        }
    }
}

impl Guard for HazardGuard<'_> {
    type Links = BareLinks;

    fn protect(&mut self, lane: usize, slot: SlotId) -> u64 {
        // Hot path: if the lane's cached snapshot is of this slot, publish
        // the cached node first and pay a single shared validating load
        // (publish-before-validate order preserved — the white-box
        // `hazard_traversal` test pins that it is load-bearing).
        let (cached_slot, cached_raw, cached_idx) = *self.cache[lane];
        if cached_slot == slot {
            self.publish(lane, cached_idx);
            if self.slots.validate(slot, cached_raw) {
                return cached_raw;
            }
        }
        // Slow path: publish, then re-validate that the word did not move
        // before the hazard became visible (the standard protocol), looping
        // until the snapshot is stable; a stable snapshot of a node refills
        // the cache.
        loop {
            let raw = self.slots.load(slot);
            let idx = self.index_of(raw);
            if idx == NIL {
                if self.published & (1 << lane) != 0 {
                    self.lanes[lane].clear();
                    self.published &= !(1 << lane);
                }
                return raw;
            }
            self.publish(lane, idx);
            if self.slots.validate(slot, raw) {
                *self.cache[lane] = (slot, raw, idx);
                return raw;
            }
        }
    }

    fn load(&mut self, slot: SlotId) -> u64 {
        self.slots.load(slot)
    }

    fn validate(&mut self, slot: SlotId, raw: u64) -> bool {
        self.slots.validate(slot, raw)
    }

    fn cas(&mut self, slot: SlotId, raw: u64, idx: u64) -> bool {
        self.slots.cas(slot, raw, idx)
    }

    fn protect_link(&mut self, lane: usize, idx: u64, slot: SlotId, raw: u64) -> bool {
        // Publish the hazard for the node read out of a link, then confirm
        // the anchoring slot has not moved: only then was the node really
        // reachable — and therefore not yet retired — while both hazards
        // were visible.
        self.publish(lane, idx);
        self.slots.validate(slot, raw)
    }

    fn protect_link_word(&mut self, lane: usize, idx: u64, link: &AtomicU64, raw: u64) -> bool {
        // Hand-over-hand: publish the hazard for the successor FIRST, then
        // re-read the (still-protected) predecessor's link.  If the link
        // still designates `idx`, the node was reachable — and therefore not
        // yet past a hazard scan — at some instant after the hazard became
        // visible.  Swapping these two steps opens the classic window: a
        // validate-then-publish traversal can protect a node that was
        // retired and scanned between the two, and then dereference it after
        // recycling (the `hazard_traversal` integration test pins this).
        self.publish(lane, idx);
        link.load(Ordering::SeqCst) == raw
    }

    fn retire(&mut self, idx: u64, mut free: impl FnMut(u64)) {
        // The operation is complete: its protections are released before the
        // node is retired, so our own hazards never pin our own retirees.
        self.clear_published();
        self.unreclaimed.add(1);
        let unreclaimed = self.unreclaimed;
        let mut counted = |v: u64| {
            unreclaimed.sub(1);
            free(v);
        };
        // The domain scans on its own threshold; small arenas need eager
        // reclamation on top: flush whenever the retired list holds a
        // meaningful share of the arena.
        self.lanes[0].retire(idx, &mut counted);
        if self.lanes[0].retired_len() * 4 >= self.capacity {
            self.lanes[0].flush(&mut counted);
        }
    }

    fn quiesce(&mut self) {
        self.clear_published();
    }

    fn reclaim_pressure(&mut self, mut free: impl FnMut(u64)) {
        let unreclaimed = self.unreclaimed;
        self.lanes[0].flush(|v| {
            unreclaimed.sub(1);
            free(v);
        });
    }

    fn admit_alloc(&mut self, live_capacity: usize, free: impl FnMut(u64)) -> bool {
        // Hazard reclamation is already bounded (a parked protector pins
        // exactly one node per lane; the scan policy bounds the rest), so
        // admission never denies — but the eager-flush rule must track a
        // growable arena's published prefix, not the construction-time plan.
        let _ = free;
        self.capacity = live_capacity;
        true
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

    #[test]
    fn hazard_retire_defers_while_protected() {
        let mut r = HazardReclaim::new(2, 1);
        let head = r.add_slot(4);
        let mut protector = r.guard(0, 64);
        let mut retirer = r.guard(1, 64);
        let raw = protector.protect(0, head);
        assert_eq!(protector.index_of(raw), 4);
        let mut freed = Vec::new();
        retirer.retire(4, |v| freed.push(v));
        retirer.reclaim_pressure(|v| freed.push(v));
        assert!(freed.is_empty(), "4 is protected by guard 0");
        assert_eq!(r.unreclaimed(), 1);
        protector.quiesce();
        retirer.reclaim_pressure(|v| freed.push(v));
        assert_eq!(freed, vec![4]);
        assert_eq!(r.unreclaimed(), 0);
    }

    #[test]
    fn hazard_small_arena_flushes_eagerly() {
        // With a capacity-8 arena the 2nd unprotected retiree crosses the
        // retired_len * 4 >= capacity bar and the whole list is flushed.
        let mut r = HazardReclaim::new(1, 1);
        let _ = r.add_slot(NIL);
        let mut g = r.guard(0, 8);
        let mut freed = Vec::new();
        g.retire(1, |v| freed.push(v));
        g.retire(2, |v| freed.push(v));
        assert_eq!(freed, vec![1, 2]);
    }

    /// The guard tracks which of its hazard slots hold a value in a private
    /// mask and clears only those; the domain's slots are the truth it must
    /// agree with after any sequence of calls.
    #[test]
    fn hazard_published_mask_agrees_with_the_domain_under_a_random_script() {
        const LANES: usize = 3;
        let mut r = HazardReclaim::new(2, LANES);
        let live = r.add_slot(40);
        let nil = r.add_slot(NIL);
        let link = AtomicU64::new(0);
        let mut g = r.guard(1, 1 << 20);
        let lane_slot = |lane: usize| r.domain().protected_by(LANES + lane);
        let mut state = 0x9E37_79B9_7F4A_7C15u64; // xorshift64, fixed seed
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..10_000 {
            let (call, lane, idx) = (next() % 6, (next() % 3) as usize, next() % 32);
            match call {
                0 => {
                    let raw = g.protect(lane, live);
                    assert_eq!(g.index_of(raw), 40);
                    assert_eq!(lane_slot(lane), Some(40), "step {step}");
                }
                1 => {
                    let raw = g.protect(lane, nil);
                    assert_eq!(g.index_of(raw), NIL);
                    assert_eq!(lane_slot(lane), None, "step {step}");
                }
                2 => {
                    assert!(g.protect_link(lane, idx, live, 40));
                    assert_eq!(lane_slot(lane), Some(idx), "step {step}");
                }
                3 => {
                    g.store_link_mark(&link, idx, false);
                    assert!(g.protect_link_word(lane, idx, &link, g.load_link(&link)));
                    assert_eq!(lane_slot(lane), Some(idx), "step {step}");
                }
                call => {
                    if call == 4 {
                        g.quiesce();
                    } else {
                        g.retire(100 + idx, |_| {});
                    }
                    for lane in 0..LANES {
                        assert_eq!(lane_slot(lane), None, "step {step}, lane {lane}");
                    }
                }
            }
        }
    }

    #[test]
    fn hazard_adoption_on_another_thread_drives_that_cell_negative_and_the_sum_to_zero() {
        let r = HazardReclaim::new(2, 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut g = r.guard(0, 1 << 20);
                g.retire(5, |_| {});
                g.retire(6, |_| {});
            }) // dropped with both retired: orphaned onto the domain
            .join()
            .unwrap();
            assert_eq!(r.unreclaimed(), 2);
            s.spawn(|| r.guard(1, 1 << 20).reclaim_pressure(|_| {}))
                .join()
                .unwrap();
        });
        assert_eq!(r.unreclaimed(), 0);
        assert_eq!(r.unreclaimed.cell_value(0), 2);
        assert_eq!(r.unreclaimed.cell_value(1), -2);
    }

    #[test]
    #[should_panic(expected = "tid 2 out of range")]
    fn hazard_bad_tid_is_rejected() {
        let _ = HazardReclaim::new(2, 3).guard(2, 8);
    }
}
