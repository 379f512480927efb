//! An O(1)-step LL/SC/VL object from **one bounded CAS object plus `n`
//! bounded registers**, in the style of Anderson–Moir \[2\] and
//! Jayanti–Petrovic \[15\].
//!
//! The paper cites \[2,15\] as the most space-efficient constant-time LL/SC
//! constructions from bounded CAS and registers (one CAS object, Θ(n)
//! registers) and proves them optimal.  It does not reproduce their
//! pseudo-code; this module provides a construction with the same asymptotic
//! time and space built from the same two ingredients the paper itself uses
//! in Figure 4: an announce array and the bounded sequence-number recycling
//! protocol `GetSeq` (see DESIGN.md §2 for the substitution note).
//!
//! # Algorithm
//!
//! Shared state: a CAS object `X` holding a triple `(value, p, s)` and an
//! announce array `A[0 … n-1]` of registers holding `(p, s)` pairs.
//!
//! * `LL()` by `q`: read `X` (call it `T₁`), write `T₁`'s `(p, s)` pair to
//!   `A[q]`, read `X` again (`T₂`).  If `T₁ = T₂` the link is `T₁` and it is
//!   *valid*; the `LL` linearizes at the second read.  Otherwise some
//!   successful `SC` linearized between the reads, the `LL` linearizes at the
//!   first read and the link is marked invalid (so the next `SC`/`VL` fails,
//!   which is then correct).  3 steps.
//! * `SC(x)` by `q`: if the link is invalid, fail.  Otherwise obtain a
//!   sequence number `s` from `GetSeq` (one read of `A[c]`) and attempt
//!   `CAS(X, link, (x, q, s))`; the number is *committed* to the recycling
//!   queue only if the CAS succeeds.  2 steps.
//! * `VL()` by `q`: the link is valid iff it is locally valid and `X` still
//!   equals it.  1 step.
//!
//! # Why the CAS cannot be fooled by an ABA on `X`
//!
//! Suppose `q`'s link is `T = (v, p, s)`: then at `q`'s second `LL` read `X`
//! held `T` while `A[q]` already announced `(p, s)`, and `A[q]` keeps that
//! announcement until `q`'s next `LL`.  For `q`'s `SC` to succeed wrongly,
//! some successful `SC` must linearize after `q`'s `LL` and `X` must later
//! hold `T` again — which requires `p` to publish sequence number `s` again.
//! Publishing `s` again requires `s` to leave `p`'s `usedQ`, i.e. `n + 1`
//! further *successful* publications by `p`, all of which happen after `q`'s
//! second read (because `X` still held `T`, written by `p`'s most recent
//! publication, at that point).  Each publication is preceded by a `GetSeq`
//! scan step; `n + 1` consecutive scans cover the whole announce array, so
//! one of them reads `A[q] = (p, s)` and from then on `GetSeq` excludes `s`
//! until `A[q]` changes — contradiction.  (Committing only successful
//! publications is what makes "`n+1` publications ⇒ `n+1` scans *after* the
//! triple was last written" true; committing failed CAS attempts, as a naive
//! port of Figure 4's `GetSeq` would, breaks exactly this step.)
//!
//! This gives the `(m, t) = (n + 1, O(1))` point of the paper's time–space
//! tradeoff table, matching the `m·t = Ω(n)` lower bound of Corollary 1 up to
//! a constant.
//!
//! [`Announce`] is the only copy of the three methods in the workspace:
//! written over [`crate::mem::Mem`], it is [`AnnounceLlSc`]'s handle when
//! run on the object's atomic words and `aba_sim`'s `AnnounceSim` process —
//! the argument above, met by an adversarial scheduler — when run on the
//! simulator's memory.

use std::sync::atomic::AtomicU64;

use aba_spec::{LlScHandle, LlScObject, ProcessId, SpaceUsage, Word, INITIAL_WORD};

use crate::mem::{Handle, LlScCode, Mem, Obj};
use crate::pack::{Pair, Triple, MAX_PROCESSES};
use crate::pad::CachePadded;
use crate::seqpool::{GetSeq, SeqRecycler};

/// LL/SC/VL from one bounded CAS object plus `n` bounded registers with O(1)
/// step complexity (Anderson–Moir / Jayanti–Petrovic style).
#[derive(Debug)]
pub struct AnnounceLlSc {
    n: usize,
    /// CAS object `X = (value, p, s)`.
    x: AtomicU64,
    /// Announce array; entry `q` written only by process `q` during `LL` —
    /// each on its own cache line, so an `LL` does not invalidate the line
    /// other processes announce on.
    announce: Box<[CachePadded<AtomicU64>]>,
}

/// Per-process handle of [`AnnounceLlSc`]: [`Announce`] on the object's
/// atomics.
pub type AnnounceLlScHandle<'a> = Handle<'a, Announce>;

impl AnnounceLlSc {
    /// An object for `n` processes with initial value [`INITIAL_WORD`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_PROCESSES`.
    pub fn new(n: usize) -> Self {
        Self::with_initial(n, INITIAL_WORD)
    }

    /// An object for `n` processes with the given initial value.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_PROCESSES`.
    pub fn with_initial(n: usize, initial: Word) -> Self {
        assert!(n > 0, "need at least one process");
        assert!(n <= MAX_PROCESSES, "at most {MAX_PROCESSES} processes");
        let announce = (0..n)
            .map(|_| CachePadded::new(AtomicU64::new(Pair::initial().pack())))
            .collect();
        AnnounceLlSc {
            n,
            x: AtomicU64::new(Triple::initial(initial).pack()),
            announce,
        }
    }

    /// Obtain the concrete per-process handle.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= self.processes()`.
    pub fn handle(&self, pid: ProcessId) -> AnnounceLlScHandle<'_> {
        Handle::new(pid, Announce::new(self.n, pid), &self.x, &self.announce)
    }
}

impl LlScObject for AnnounceLlSc {
    fn processes(&self) -> usize {
        self.n
    }

    fn space(&self) -> SpaceUsage {
        SpaceUsage::cas_and_registers(1, self.n, 64)
    }

    fn name(&self) -> &'static str {
        "Announce (1 CAS + n registers, O(1) steps)"
    }

    fn handle(&self, pid: ProcessId) -> Box<dyn LlScHandle + '_> {
        Box::new(AnnounceLlSc::handle(self, pid))
    }
}

/// The construction's per-process code and local variables, on any [`Mem`]
/// whose `X` is the CAS object `(value, p, s)` and whose `A` is the announce
/// array.
#[derive(Debug, Clone)]
pub struct Announce {
    pid: ProcessId,
    /// The triple read (and announced) by the last `LL`.
    link: Triple,
    /// Whether the link was validated by the second read of the last `LL`.
    valid: bool,
    /// `GetSeq` state; sequence numbers are committed only on successful CAS.
    seqs: SeqRecycler,
}

impl Announce {
    /// The code of process `pid` of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > MAX_PROCESSES` or `pid >= n`.
    pub fn new(n: usize, pid: ProcessId) -> Self {
        Announce {
            pid,
            link: Triple::initial(INITIAL_WORD),
            valid: false,
            seqs: SeqRecycler::new(n, pid),
        }
    }
}

impl LlScCode for Announce {
    /// `LL()`: 3 shared-memory steps.
    #[inline]
    fn ll<M: Mem>(&mut self, m: &mut M) -> Result<Word, M::Stop> {
        let first = Triple::unpack(m.read(Obj::X)?);
        m.write(Obj::A(self.pid), first.pair().pack())?;
        let second = Triple::unpack(m.read(Obj::X)?);
        self.link = first;
        self.valid = first == second;
        Ok(first.value)
    }

    /// `SC(x)`: at most 2 shared-memory steps.
    #[inline]
    fn sc<M: Mem>(&mut self, value: Word, m: &mut M) -> Result<bool, M::Stop> {
        if !self.valid {
            return Ok(false);
        }
        // GetSeq: scan one announce slot, choose a number outside
        // usedQ ∪ na.
        let slot = self.seqs.slot_to_scan();
        let announced = Pair::unpack(m.read(Obj::A(slot))?);
        self.seqs.observe(slot, announced);
        let seq = self.seqs.choose();
        let pid = self.pid as u16;
        let new = Triple { value, pid, seq };
        let ok = m.cas(Obj::X, self.link.pack(), new.pack())?;
        if ok {
            // Commit the number only when it was actually published.
            self.seqs.commit(seq);
        }
        // Either way the link is consumed: if the CAS succeeded our own SC
        // invalidates the link; if it failed, some other SC succeeded.
        self.valid = false;
        Ok(ok)
    }

    /// `VL()`: 1 shared-memory step.
    #[inline]
    fn vl<M: Mem>(&self, m: &mut M) -> Result<bool, M::Stop> {
        if !self.valid {
            return Ok(false);
        }
        let cur = Triple::unpack(m.read(Obj::X)?);
        Ok(cur == self.link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn x_of(obj: &AnnounceLlSc) -> Triple {
        Triple::unpack(obj.x.load(Ordering::SeqCst))
    }

    #[test]
    fn basic_cycle() {
        let x = AnnounceLlSc::new(2);
        let mut h = x.handle(0);
        assert_eq!(h.ll(), INITIAL_WORD);
        assert!(h.vl());
        assert!(h.sc(5));
        assert!(!h.vl());
        assert!(!h.sc(6));
        assert_eq!(h.ll(), 5);
        assert!(h.sc(6));
    }

    #[test]
    fn interference_detected() {
        let x = AnnounceLlSc::new(2);
        let mut a = x.handle(0);
        let mut b = x.handle(1);
        a.ll();
        b.ll();
        assert!(b.sc(9));
        assert!(!a.vl());
        assert!(!a.sc(1));
        assert_eq!(a.ll(), 9);
        assert!(a.sc(1));
    }

    #[test]
    fn value_aba_does_not_fool_the_link() {
        // The value (and even the writing process) returns to an earlier
        // state, but the bounded sequence numbers distinguish the writes.
        let x = AnnounceLlSc::new(3);
        let mut a = x.handle(0);
        let mut b = x.handle(1);
        a.ll(); // links (0, ⊥, 0)
        b.ll();
        assert!(b.sc(1));
        b.ll();
        assert!(b.sc(0)); // value back to 0, but seq differs
        assert!(!a.sc(7), "stale SC must fail despite the value ABA");
    }

    #[test]
    fn many_rounds_of_reuse_never_confuse_a_parked_reader() {
        // Drive the writer through far more than 2n+2 successful SCs while a
        // parked process holds a link; its SC must still fail.
        let n = 4;
        let x = AnnounceLlSc::new(n);
        let mut parked = x.handle(0);
        let mut writer = x.handle(1);
        parked.ll();
        for i in 0..100 {
            writer.ll();
            assert!(writer.sc(i), "writer round {i}");
        }
        assert!(
            !parked.sc(999),
            "parked SC must fail after 100 interfering SCs"
        );
        // And after re-linking it succeeds again.
        assert_eq!(parked.ll(), 99);
        assert!(parked.sc(1000));
    }

    #[test]
    fn constant_step_complexity() {
        for n in [1usize, 2, 16, 128] {
            let x = AnnounceLlSc::new(n);
            let mut h = x.handle(0);
            h.ll();
            assert_eq!(h.last_op_steps(), 3, "LL steps at n={n}");
            h.sc(1);
            assert_eq!(h.last_op_steps(), 2, "SC steps at n={n}");
            h.ll();
            h.vl();
            assert_eq!(h.last_op_steps(), 1, "VL steps at n={n}");
        }
    }

    #[test]
    fn space_is_one_cas_plus_n_registers() {
        let x = AnnounceLlSc::new(9);
        let s = LlScObject::space(&x);
        assert_eq!(s.cas_objects, 1);
        assert_eq!(s.registers, 9);
        assert!(s.bounded);
    }

    #[test]
    fn announce_entries_own_their_cache_lines() {
        let x = AnnounceLlSc::new(3);
        let at = |q: usize| &x.announce[q] as *const _ as usize;
        assert!(at(0).is_multiple_of(64) && at(1) - at(0) >= 64);
        // Padding is layout, not space in the paper's sense.
        assert_eq!(LlScObject::space(&x).total_objects(), 4);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 10⁵ publications
    fn largest_system_publishes_inside_its_domain() {
        let n = MAX_PROCESSES;
        let x = AnnounceLlSc::new(n);
        let mut writer = x.handle(n - 1);
        let mut parked = x.handle(0);
        let published = (0..3 * (n + 1)).map(|i| {
            if i % 1_000 == 0 {
                // Leaves an announcement of the writer's for GetSeq to find.
                parked.ll();
            }
            writer.ll();
            assert!(writer.sc(i as Word), "uncontended SC {i}");
            x_of(&x).seq
        });
        crate::seqpool::assert_recycling_window(n, published);
    }

    #[test]
    fn sc_without_ll_fails() {
        let x = AnnounceLlSc::new(2);
        let mut h = x.handle(1);
        assert!(!h.sc(3));
        assert!(!h.vl());
    }

    #[test]
    fn sequence_numbers_stay_in_domain() {
        let n = 3;
        let x = AnnounceLlSc::new(n);
        let mut h = x.handle(2);
        for i in 0..200 {
            h.ll();
            assert!(h.sc(i));
            let t = x_of(&x);
            assert!(t.seq < (2 * n + 2) as u16, "seq {} out of domain", t.seq);
        }
    }

    #[test]
    fn failed_sc_does_not_consume_a_sequence_number() {
        let n = 2;
        let x = AnnounceLlSc::new(n);
        let mut a = x.handle(0);
        let mut b = x.handle(1);
        // Fail many SCs for a; the recycler must not advance its used queue.
        for i in 0..50 {
            a.ll();
            b.ll();
            assert!(b.sc(i));
            assert!(!a.sc(1000 + i));
        }
        // a can still publish with an in-domain sequence number afterwards.
        a.ll();
        assert!(a.sc(7));
        assert!(x_of(&x).seq < (2 * n + 2) as u16);
    }

    #[test]
    fn trait_object_interface() {
        let x = AnnounceLlSc::new(2);
        let obj: &dyn LlScObject = &x;
        let mut h = obj.handle(0);
        h.ll();
        assert!(h.sc(2));
        assert!(obj.name().contains("Announce"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_pid() {
        let x = AnnounceLlSc::new(2);
        let _ = x.handle(2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use aba_spec::SeqLlSc;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Ll(usize),
        Sc(usize, Word),
        Vl(usize),
    }

    fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..n).prop_map(Op::Ll),
            (0..n, 0u32..8).prop_map(|(p, v)| Op::Sc(p, v)),
            (0..n).prop_map(Op::Vl),
        ]
    }

    proptest! {
        /// Under sequential use the construction agrees with the sequential
        /// LL/SC/VL specification, modulo the shared initial-link convention
        /// (every process is primed with one LL, as in the Figure 3 tests).
        #[test]
        fn sequentially_equivalent_to_spec(
            n in 1usize..6,
            ops in proptest::collection::vec(op_strategy(6), 1..400),
        ) {
            let x = AnnounceLlSc::new(n);
            let mut spec = SeqLlSc::new(n, INITIAL_WORD);
            let mut handles: Vec<_> = (0..n).map(|p| x.handle(p)).collect();
            for (p, h) in handles.iter_mut().enumerate() {
                assert_eq!(h.ll(), spec.ll(p));
            }
            for op in ops {
                match op {
                    Op::Ll(p) => { let p = p % n; prop_assert_eq!(handles[p].ll(), spec.ll(p)); }
                    Op::Sc(p, v) => { let p = p % n; prop_assert_eq!(handles[p].sc(v), spec.sc(p, v)); }
                    Op::Vl(p) => { let p = p % n; prop_assert_eq!(handles[p].vl(), spec.vl(p)); }
                }
            }
        }

        /// Step complexity is constant regardless of n and the operation mix.
        #[test]
        fn constant_steps(
            n in 1usize..40,
            ops in proptest::collection::vec(op_strategy(40), 1..100),
        ) {
            let x = AnnounceLlSc::new(n);
            let mut handles: Vec<_> = (0..n).map(|p| x.handle(p)).collect();
            for op in ops {
                match op {
                    Op::Ll(p) => { let h = &mut handles[p % n]; h.ll(); prop_assert_eq!(h.last_op_steps(), 3); }
                    Op::Sc(p, v) => { let h = &mut handles[p % n]; h.sc(v); prop_assert!(h.last_op_steps() <= 2); }
                    Op::Vl(p) => { let h = &mut handles[p % n]; h.vl(); prop_assert!(h.last_op_steps() <= 1); }
                }
            }
        }
    }
}
