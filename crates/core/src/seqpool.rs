//! The bounded sequence-number recycling protocol (`GetSeq`) of Figure 4.
//!
//! Every writer (a `DWrite` in Figure 4, an `SC` attempt in the announce-based
//! LL/SC) tags the triple it publishes with a sequence number drawn from the
//! bounded domain `{0, …, 2n+1}`.  The recycling rule — the heart of
//! Theorem 3 — is:
//!
//! > if at some point `X = (·, p, s)` and `A[q] = (p, s)`, then `p` does not
//! > use sequence number `s` again until `A[q] ≠ (p, s)` (Claim 3).
//!
//! `GetSeq` achieves this with purely local state of size O(n) and — like its
//! one shared-memory step — O(1) local work per call:
//!
//! * a queue `usedQ` of the last `n+1` sequence numbers this process
//!   *published* (so a number is only recycled after `n+1` further
//!   publications, Claim 2), kept as a ring buffer;
//! * a set `na` remembering, for each announce-array slot, the sequence
//!   number of ours it was last seen announcing (populated by scanning one
//!   slot per `GetSeq` call and cleared when the slot moves on);
//! * a cursor `c` that round-robins over the announce array;
//! * for every number of the domain, how many `usedQ` entries and `na` slots
//!   currently hold it (a number can sit in `usedQ` and in several `na`
//!   slots at once), and a bitmap of the numbers whose count is zero under a
//!   64-ary summary tree, so "the smallest number outside `usedQ ∪ na`" is
//!   one `trailing_zeros` per tree level instead of a scan of both.
//!
//! The domain has `2n+2` values while at most `(n+1) + n = 2n+1` can be
//! excluded, so a free number always exists.
//!
//! [`SeqRecycler`] factors this protocol out of the two algorithms that use
//! it.  Figure 4 *commits* (enqueues into `usedQ`) every acquired number
//! because every `DWrite` publishes; the announce-based LL/SC commits only
//! when its CAS succeeds, because a failed `SC` publishes nothing (see the
//! module documentation of [`crate::announce_llsc`] for why that preserves
//! the recycling invariant).

use crate::pack::{Pair, MAX_PROCESSES};

/// `⊥` in `usedQ` and `na`.  [`MAX_PROCESSES`] keeps every domain below it,
/// so it is never a sequence number.
const BOT_SEQ: u16 = u16::MAX;

/// A set of numbers below some bound as a 64-ary summary tree of bitmaps:
/// bit `s` of the leaf level is set iff `s` is in the set, and bit `i` of
/// every level above iff word `i` of the level below is non-zero.  The top
/// level is a single word, so the minimum costs one `trailing_zeros` per
/// level: the leaf alone up to 64 numbers, one summary level up to 4 096,
/// and the two that `summaries` has room for up to 262 144 — more than a
/// `u16` domain needs.
#[derive(Debug, Clone)]
struct FreeSet {
    /// The leaf level, then each summary level above it, in one allocation.
    words: Box<[u64]>,
    /// Where the `depth` summary levels start in `words`, lowest first.
    summaries: [usize; 2],
    depth: usize,
}

impl FreeSet {
    /// The set `{0, …, bound-1}`.
    fn full(bound: usize) -> Self {
        let mut words = Vec::new();
        let mut summaries = [0; 2];
        let mut depth = 0;
        // One bit per number, then one per word of the level below, until a
        // level fits a single word.
        let mut bits = bound;
        loop {
            words.resize(words.len() + bits / 64, u64::MAX);
            if !bits.is_multiple_of(64) {
                words.push((1 << (bits % 64)) - 1);
            }
            if bits <= 64 {
                break;
            }
            bits = bits.div_ceil(64);
            summaries[depth] = words.len();
            depth += 1;
        }
        FreeSet {
            words: words.into_boxed_slice(),
            summaries,
            depth,
        }
    }

    fn min(&self) -> Option<usize> {
        // A set bit above means a non-zero word below, so only the top word
        // of an empty set is zero.
        let descend = |i: usize, start: usize| {
            let word = self.words[start + i];
            (word != 0).then(|| i * 64 + word.trailing_zeros() as usize)
        };
        let mut i = 0;
        for &start in self.summaries[..self.depth].iter().rev() {
            i = descend(i, start)?;
        }
        descend(i, 0)
    }

    /// Add `s`, which must not be in the set.
    fn insert(&mut self, s: usize) {
        let leaf = &mut self.words[s / 64];
        debug_assert_eq!(*leaf & (1 << (s % 64)), 0, "{s} is already free");
        let was_empty = *leaf == 0;
        *leaf |= 1 << (s % 64);
        if was_empty {
            self.summarize(s / 64);
        }
    }

    /// Take out `s`, which must be in the set.
    fn remove(&mut self, s: usize) {
        let leaf = &mut self.words[s / 64];
        debug_assert_ne!(*leaf & (1 << (s % 64)), 0, "{s} is not free");
        *leaf &= !(1 << (s % 64));
        if *leaf == 0 {
            self.summarize(s / 64);
        }
    }

    /// Leaf word `i` just became empty or non-empty: flip its bit in the
    /// level above, and carry on upwards for as long as that flips a word's
    /// emptiness too.  Out of line: up to n = 61 the `n + 2` numbers a lone
    /// writer cycles through leave its one or two leaf words never empty and
    /// this is not called at all; beyond, the cycle fills whole words and a
    /// publication pays for it twice (≈ 3 ns, EXPERIMENTS.md E1).
    #[cold]
    fn summarize(&mut self, mut i: usize) {
        for &start in &self.summaries[..self.depth] {
            let word = &mut self.words[start + i / 64];
            let was_empty = *word == 0;
            *word ^= 1 << (i % 64);
            if !was_empty && *word != 0 {
                break;
            }
            i /= 64;
        }
    }
}

/// The local half of `GetSeq` (Figure 4, lines 28–37): everything but its
/// one shared-memory step, the read of `A[c]`, which the caller performs
/// between the two methods.  Figure 4's code is generic in it: the hardware
/// register runs it over [`SeqRecycler`], the simulator's Figure 4 over a
/// naive scan it can under-provision (DESIGN.md §2).
pub trait GetSeq {
    /// The announce-array slot this call scans (the paper's `c`); advances
    /// the cursor.
    fn slot_to_scan(&mut self) -> usize;

    /// Given what slot `slot` announced, choose this call's sequence number
    /// and record it as published (Figure 4's `GetSeq` always publishes).
    fn get_seq(&mut self, slot: usize, announced: Pair) -> u16;
}

/// Per-process state of the `GetSeq` protocol (Figure 4, lines 28–37).
#[derive(Debug, Clone)]
pub struct SeqRecycler {
    pid: u16,
    /// `na`: for announce slot `j`, the number `s` if slot `j` was last seen
    /// announcing `(self.pid, s)`, else [`BOT_SEQ`].
    na: Box<[u16]>,
    /// `usedQ[n+1]`: the last `n+1` sequence numbers published by this
    /// process as a ring ([`BOT_SEQ`] entries are the initial `⊥`s).
    used: Box<[u16]>,
    /// Ring position of the oldest `usedQ` entry, the one the next `commit`
    /// replaces.
    oldest: usize,
    /// Round-robin cursor `c` over the announce array.
    cursor: usize,
    /// For each number of the domain, how many `na` slots and `usedQ`
    /// entries hold it.
    count: Box<[u16]>,
    /// The numbers of the domain whose count is zero.
    free: FreeSet,
}

impl SeqRecycler {
    /// Create the recycler for process `pid` in a system of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > MAX_PROCESSES`, or `pid >= n`.
    pub fn new(n: usize, pid: usize) -> Self {
        assert!(n > 0, "need at least one process");
        assert!(n <= MAX_PROCESSES, "at most {MAX_PROCESSES} processes");
        assert!(pid < n, "pid {pid} out of range for n={n}");
        SeqRecycler {
            pid: pid as u16,
            na: vec![BOT_SEQ; n].into_boxed_slice(),
            used: vec![BOT_SEQ; n + 1].into_boxed_slice(),
            oldest: 0,
            cursor: 0,
            count: vec![0; 2 * n + 2].into_boxed_slice(),
            free: FreeSet::full(2 * n + 2),
        }
    }

    /// Size of the sequence-number domain, `2n + 2`.
    pub fn domain(&self) -> u16 {
        self.count.len() as u16
    }

    /// Record what announce slot `slot` contained (Figure 4, lines 28–32):
    /// if it announces one of *our* sequence numbers, remember it in `na`;
    /// otherwise clear any stale memory for that slot.
    #[inline]
    pub fn observe(&mut self, slot: usize, announced: Pair) {
        assert!(slot < self.na.len(), "slot {slot} out of range");
        let seen = if announced.pid == self.pid {
            announced.seq
        } else {
            BOT_SEQ
        };
        let before = std::mem::replace(&mut self.na[slot], seen);
        if before != seen {
            self.exclude(seen);
            self.release(before);
        }
    }

    /// Choose a sequence number outside `usedQ ∪ na` (Figure 4, line 34).
    ///
    /// Deterministically returns the smallest admissible number; the paper
    /// allows an arbitrary choice.
    #[inline]
    pub fn choose(&self) -> u16 {
        match self.free.min() {
            Some(s) => s as u16,
            None => unreachable!(
                "domain of size {} cannot be exhausted by {} used + {} announced entries",
                self.domain(),
                self.used.len(),
                self.na.len()
            ),
        }
    }

    /// Record that sequence number `s` has been published (Figure 4,
    /// lines 35–36: enqueue and dequeue keep the window at `n+1`).
    #[inline]
    pub fn commit(&mut self, s: u16) {
        let dequeued = std::mem::replace(&mut self.used[self.oldest], s);
        self.oldest = if self.oldest + 1 == self.used.len() {
            0
        } else {
            self.oldest + 1
        };
        self.exclude(s);
        self.release(dequeued);
    }

    /// One more `na` slot or `usedQ` entry holds `s`.  A value outside the
    /// domain — `⊥` included — is never a candidate and has no count.
    #[inline]
    fn exclude(&mut self, s: u16) {
        if let Some(count) = self.count.get_mut(s as usize) {
            if *count == 0 {
                self.free.remove(s as usize);
            }
            *count += 1;
        }
    }

    /// One `na` slot or `usedQ` entry that held `s` no longer does.
    #[inline]
    fn release(&mut self, s: u16) {
        if let Some(count) = self.count.get_mut(s as usize) {
            *count -= 1;
            if *count == 0 {
                self.free.insert(s as usize);
            }
        }
    }

    /// The sequence numbers currently excluded (for tests and the simulator's
    /// invariant checks).
    pub fn excluded(&self) -> Vec<u16> {
        let mut v: Vec<u16> = self
            .used
            .iter()
            .chain(self.na.iter())
            .copied()
            .filter(|&s| s != BOT_SEQ)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The process this recycler belongs to.
    pub fn pid(&self) -> u16 {
        self.pid
    }

    /// The number of processes.
    pub fn processes(&self) -> usize {
        self.na.len()
    }
}

impl GetSeq for SeqRecycler {
    #[inline]
    fn slot_to_scan(&mut self) -> usize {
        let c = self.cursor;
        self.cursor = if c + 1 == self.na.len() { 0 } else { c + 1 };
        c
    }

    #[inline]
    fn get_seq(&mut self, slot: usize, announced: Pair) -> u16 {
        self.observe(slot, announced);
        let s = self.choose();
        self.commit(s);
        s
    }
}

/// The recycler as first written: `choose` tries every candidate against a
/// scan of `usedQ` and of `na`, Θ(n²) comparisons per call.  Kept as the
/// oracle the counted bitmap is checked against.
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::VecDeque;

    #[derive(Debug)]
    pub struct ScanRecycler {
        n: usize,
        pid: u16,
        used: VecDeque<Option<u16>>,
        na: Vec<Option<u16>>,
    }

    impl ScanRecycler {
        pub fn new(n: usize, pid: usize) -> Self {
            ScanRecycler {
                n,
                pid: pid as u16,
                used: VecDeque::from(vec![None; n + 1]),
                na: vec![None; n],
            }
        }

        pub fn observe(&mut self, slot: usize, announced: Pair) {
            if announced.pid == self.pid {
                self.na[slot] = Some(announced.seq);
            } else {
                self.na[slot] = None;
            }
        }

        pub fn choose(&self) -> u16 {
            let domain = (2 * self.n + 2) as u16;
            'candidate: for s in 0..domain {
                if self.used.iter().any(|u| *u == Some(s)) {
                    continue 'candidate;
                }
                if self.na.contains(&Some(s)) {
                    continue 'candidate;
                }
                return s;
            }
            unreachable!("domain of size {domain} exhausted")
        }

        pub fn commit(&mut self, s: u16) {
            self.used.push_back(Some(s));
            self.used.pop_front();
        }

        pub fn excluded(&self) -> Vec<u16> {
            let mut v: Vec<u16> = self
                .used
                .iter()
                .flatten()
                .copied()
                .chain(self.na.iter().flatten().copied())
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        }
    }

    /// A [`SeqRecycler`] and its oracle, fed the same calls.
    #[derive(Debug)]
    pub struct Twin {
        pub fast: SeqRecycler,
        slow: ScanRecycler,
    }

    impl Twin {
        pub fn new(n: usize, pid: usize) -> Self {
            Twin {
                fast: SeqRecycler::new(n, pid),
                slow: ScanRecycler::new(n, pid),
            }
        }

        pub fn observe(&mut self, slot: usize, announced: Pair) {
            self.fast.observe(slot, announced);
            self.slow.observe(slot, announced);
        }

        pub fn commit(&mut self, s: u16) {
            self.fast.commit(s);
            self.slow.commit(s);
        }

        /// The number both choose and the set both exclude, or how they
        /// differ.
        pub fn agreed_choice(&self) -> Result<u16, String> {
            let (fast, slow) = (self.fast.choose(), self.slow.choose());
            if fast != slow {
                return Err(format!("chose {fast}, the scan chooses {slow}"));
            }
            if self.fast.excluded() != self.slow.excluded() {
                return Err(format!(
                    "excludes {:?}, the scan excludes {:?}",
                    self.fast.excluded(),
                    self.slow.excluded()
                ));
            }
            Ok(fast)
        }
    }
}

/// Assert that `published`, the numbers one process of an `n`-process system
/// published in order, stay inside the domain and that none comes back
/// within `n + 1` further publications (Claim 2).
#[cfg(test)]
pub(crate) fn assert_recycling_window(n: usize, published: impl IntoIterator<Item = u16>) {
    let mut last_at = vec![None; 2 * n + 2];
    for (i, s) in published.into_iter().enumerate() {
        assert!(
            (s as usize) < 2 * n + 2,
            "publication {i}: {s} out of domain"
        );
        if let Some(before) = last_at[s as usize].replace(i) {
            assert!(
                i - before > n + 1,
                "publication {i} reuses {s} of publication {before}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::Twin;
    use super::*;
    use crate::pack::BOT_PID;

    fn bot() -> Pair {
        Pair {
            pid: BOT_PID,
            seq: 0,
        }
    }

    #[test]
    fn choose_never_returns_used_or_announced() {
        let mut r = SeqRecycler::new(3, 1);
        // Announce slot 0 holds one of our numbers.
        r.observe(0, Pair { pid: 1, seq: 5 });
        r.commit(2);
        r.commit(3);
        let s = r.choose();
        assert!(s != 5 && s != 2 && s != 3);
        assert!(s < r.domain());
    }

    #[test]
    fn committed_numbers_recycle_after_n_plus_one_commits() {
        let n = 4;
        let mut r = SeqRecycler::new(n, 0);
        let slot = r.slot_to_scan();
        let first = r.get_seq(slot, bot());
        // The next n+1 commits keep `first` excluded (the window holds the
        // last n+1 published numbers).
        for _ in 0..=n {
            let slot = r.slot_to_scan();
            let s = r.get_seq(slot, bot());
            assert_ne!(s, first, "number reused too early");
        }
        // Once n+1 further numbers have been published, it may come back
        // (and, with the smallest-admissible policy and an empty announce
        // array, it does).
        let slot = r.slot_to_scan();
        let s = r.get_seq(slot, bot());
        assert_eq!(s, first);
    }

    #[test]
    fn announced_number_is_never_chosen_while_announced() {
        let n = 4;
        let mut r = SeqRecycler::new(n, 2);
        // Slot 3 announces our sequence number 0 and never changes.
        for round in 0..50 {
            let slot = r.slot_to_scan();
            let announced = if slot == 3 {
                Pair { pid: 2, seq: 0 }
            } else {
                bot()
            };
            let s = r.get_seq(slot, announced);
            if round >= n {
                // After one full scan the announcement has certainly been seen.
                assert_ne!(s, 0, "announced number must not be reused (round {round})");
            }
        }
    }

    #[test]
    fn announcement_release_allows_reuse() {
        let n = 3;
        let mut r = SeqRecycler::new(n, 0);
        // See our own announcement in slot 1, then see it replaced.
        r.observe(1, Pair { pid: 0, seq: 7 });
        assert!(r.excluded().contains(&7));
        r.observe(1, Pair { pid: 1, seq: 7 });
        assert!(!r.excluded().contains(&7));
    }

    #[test]
    fn other_processes_announcements_do_not_exclude() {
        let mut r = SeqRecycler::new(3, 0);
        r.observe(0, Pair { pid: 2, seq: 4 });
        assert!(r.excluded().is_empty());
    }

    #[test]
    fn cursor_round_robins_over_all_slots() {
        let n = 5;
        let mut r = SeqRecycler::new(n, 0);
        let slots: Vec<usize> = (0..2 * n).map(|_| r.slot_to_scan()).collect();
        for i in 0..n {
            assert_eq!(slots[i], i);
            assert_eq!(slots[n + i], i);
        }
    }

    #[test]
    fn domain_is_2n_plus_2() {
        assert_eq!(SeqRecycler::new(1, 0).domain(), 4);
        assert_eq!(SeqRecycler::new(7, 3).domain(), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_pid() {
        let _ = SeqRecycler::new(2, 2);
    }

    #[test]
    fn single_process_system_works() {
        let mut r = SeqRecycler::new(1, 0);
        for _ in 0..10 {
            let slot = r.slot_to_scan();
            let s = r.get_seq(slot, bot());
            assert!(s < 4);
        }
    }

    /// A twin whose numbers `0..k` are excluded: the first `n + 1` of them
    /// by sitting in `usedQ`, the rest by being announced in slots `0, 1, …`.
    fn blocked_prefix(n: usize, k: u16) -> Twin {
        let mut t = Twin::new(n, 0);
        for s in 0..k {
            match (s as usize).checked_sub(n + 1) {
                None => t.commit(s),
                Some(slot) => t.observe(slot, Pair { pid: 0, seq: s }),
            }
        }
        t
    }

    /// With `0..k` blocked the choice is `k`; when an announcement inside
    /// the prefix moves on, its number; and once that is published anew, 0,
    /// which thereby left `usedQ` — each time as the scan has it.
    fn blocked_prefixes_agree_with_the_scan(cases: &[(usize, u16)]) {
        for &(n, k) in cases {
            let mut t = blocked_prefix(n, k);
            assert_eq!(t.agreed_choice(), Ok(k), "n={n}, 0..{k} blocked");
            let released = k - 2;
            t.observe(released as usize - (n + 1), bot());
            assert_eq!(t.agreed_choice(), Ok(released), "n={n}, {released} freed");
            t.commit(released);
            assert_eq!(t.agreed_choice(), Ok(0), "n={n}, 0 left usedQ");
        }
    }

    #[test]
    fn leaf_word_boundaries_agree_with_the_scan() {
        blocked_prefixes_agree_with_the_scan(&[
            (31, 63), // the domain is one leaf word; only its last number is free
            (32, 64), // a whole leaf word blocked, the next one has two numbers
            (32, 65),
            (33, 64),
            (33, 67),
        ]);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // the scan is ~10⁷ comparisons per call here
    fn summary_word_boundaries_agree_with_the_scan() {
        blocked_prefixes_agree_with_the_scan(&[
            (2_047, 4_032), // the domain fills one summary word; its last leaf word is free
            (2_047, 4_095), // …and only that word's last number
            (2_048, 4_096), // everything under the first summary word blocked
            (2_048, 4_097),
        ]);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 10⁵ publications
    fn largest_system_recycles_inside_its_domain() {
        let n = MAX_PROCESSES;
        let mut r = SeqRecycler::new(n, n - 1);
        assert_eq!(r.domain(), u16::MAX - 1);
        let mut last = 0;
        let published = (0..3 * (n + 1)).map(|_| {
            // Slot 7 keeps announcing whatever we published last.
            let slot = r.slot_to_scan();
            let announced = if slot == 7 {
                Pair {
                    pid: r.pid(),
                    seq: last,
                }
            } else {
                bot()
            };
            last = r.get_seq(slot, announced);
            last
        });
        assert_recycling_window(n, published);
    }

    #[test]
    fn one_process_too_many_is_rejected_by_every_constructor() {
        use std::panic::catch_unwind;
        let n = MAX_PROCESSES + 1;
        assert!(catch_unwind(|| SeqRecycler::new(n, 0)).is_err());
        assert!(catch_unwind(|| crate::BoundedAbaRegister::new(n)).is_err());
        assert!(catch_unwind(|| crate::AnnounceLlSc::new(n)).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::pack::BOT_PID;
    use proptest::prelude::*;

    proptest! {
        /// The protocol-level invariant: choose() never returns a number that
        /// is in the used window or currently believed announced, regardless
        /// of the observation pattern.
        #[test]
        fn choose_respects_exclusions(
            n in 1usize..8,
            observations in proptest::collection::vec((0usize..8, any::<bool>(), 0u16..18), 0..200),
        ) {
            let mut r = SeqRecycler::new(n, 0);
            for (slot_raw, ours, seq) in observations {
                let slot = slot_raw % n;
                let pair = Pair { pid: if ours { 0 } else { BOT_PID }, seq };
                r.observe(slot, pair);
                let s = r.choose();
                prop_assert!(!r.excluded().contains(&s));
                prop_assert!(s < r.domain());
                r.commit(s);
            }
        }

        /// A number published while some slot continuously announces it is
        /// never published again before the announcement changes, provided at
        /// least n publications have happened since the announcement was
        /// observed-able (the full-scan property).
        #[test]
        fn no_reuse_while_continuously_announced(
            n in 2usize..7,
            rounds in 10usize..60,
            target_slot in 0usize..7,
        ) {
            let target_slot = target_slot % n;
            let mut r = SeqRecycler::new(n, 0);
            // First publication: remember it, announce it in target_slot forever.
            let slot = r.slot_to_scan();
            let pinned = r.get_seq(slot, Pair { pid: BOT_PID, seq: 0 });
            let mut seen_since_pin = 0usize;
            for _ in 0..rounds {
                let slot = r.slot_to_scan();
                let announced = if slot == target_slot {
                    Pair { pid: 0, seq: pinned }
                } else {
                    Pair { pid: BOT_PID, seq: 0 }
                };
                if slot == target_slot { seen_since_pin += 1; }
                let s = r.get_seq(slot, announced);
                if seen_since_pin > 0 {
                    prop_assert_ne!(s, pinned);
                }
            }
        }

        /// The counted bitmap and the quadratic scan are the same function:
        /// under any interleaving of observations (ours or theirs, numbers
        /// inside and outside the domain) and publications, both pick the
        /// same number and report the same exclusions after every step.
        /// `choose` is `&self`, so the choice a failed `SC` makes and never
        /// commits is covered too: `agreed_choice` makes one after every
        /// step.  `n` runs across the 64- and 128-number word boundaries of
        /// the domain.
        #[test]
        #[cfg_attr(miri, ignore)] // 256 cases × 300 quadratic scans
        fn agrees_with_the_quadratic_scan(
            n in 1usize..80,
            steps in proptest::collection::vec((0usize..80, 0usize..5, 0u16..170), 0..300),
        ) {
            let mut t = super::reference::Twin::new(n, 0);
            for (slot, action, seq) in steps {
                match action {
                    0 => t.observe(slot % n, Pair { pid: BOT_PID, seq }),
                    1 | 2 => t.observe(slot % n, Pair { pid: 0, seq }),
                    _ => {
                        let s = t.fast.choose();
                        t.commit(s);
                    }
                }
                let agreed = t.agreed_choice();
                prop_assert!(agreed.is_ok(), "n={}: {:?}", n, agreed);
            }
        }
    }
}
