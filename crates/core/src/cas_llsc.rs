//! Figure 3 / Theorem 2: a wait-free, linearizable LL/SC/VL object from a
//! **single bounded CAS object** with O(n) step complexity.
//!
//! The CAS object `X` holds a pair `(x, a)`, where `x` is the LL/SC value and
//! `a` is an `n`-bit string with one bit per process.  A successful `SC`
//! writes `(y, 2^n - 1)`, setting every process's bit; an `LL` by `p` tries
//! (up to `n` times) to clear its own bit with a CAS.  If all `n` attempts
//! fail, at least one of the interfering successful CASes must have come from
//! an `SC` (Claim 6), so `p` sets its local flag `b`, which makes its next
//! `SC`/`VL` fail.
//!
//! Together with Corollary 1 (`m·t ≥ n-1` for bounded CAS), the O(n) step
//! complexity of this single-object implementation is optimal.
//!
//! [`Fig3`] follows Figure 3 line by line (line numbers in comments) and is
//! the only copy of it in the workspace: written over [`crate::mem::Mem`],
//! it is [`CasLlSc`]'s handle when run on the object's atomic word and
//! `aba_sim`'s `Fig3Sim` process when run on the simulator's memory.  It
//! supports up to 32 processes (one bit per process inside a 64-bit CAS
//! word; see [`MaskWord`]).

use std::sync::atomic::AtomicU64;

use aba_spec::{LlScHandle, LlScObject, ProcessId, SpaceUsage, Word, INITIAL_WORD};

use crate::mem::{Handle, LlScCode, Mem, Obj};
use crate::pack::MaskWord;

/// The Figure 3 LL/SC/VL object (one bounded CAS object, O(n) steps).
#[derive(Debug)]
pub struct CasLlSc {
    n: usize,
    /// CAS object `X = (x, a)`.
    x: AtomicU64,
}

/// Per-process handle of [`CasLlSc`]: [`Fig3`] on the object's atomics.
pub type CasLlScHandle<'a> = Handle<'a, Fig3>;

impl CasLlSc {
    /// An LL/SC/VL object for `n` processes with initial value
    /// [`INITIAL_WORD`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in `1..=32`.
    pub fn new(n: usize) -> Self {
        Self::with_initial(n, INITIAL_WORD)
    }

    /// An LL/SC/VL object for `n` processes with the given initial value.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in `1..=32`.
    pub fn with_initial(n: usize, initial: Word) -> Self {
        assert!(
            (1..=MaskWord::MAX_PROCESSES).contains(&n),
            "Figure 3 supports 1..=32 processes, got {n}"
        );
        CasLlSc {
            n,
            x: AtomicU64::new(MaskWord::initial(initial).pack()),
        }
    }

    /// Obtain the concrete per-process handle.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= self.processes()`.
    pub fn handle(&self, pid: ProcessId) -> CasLlScHandle<'_> {
        Handle::new(pid, Fig3::new(self.n, pid), &self.x, &[])
    }
}

impl LlScObject for CasLlSc {
    fn processes(&self) -> usize {
        self.n
    }

    fn space(&self) -> SpaceUsage {
        SpaceUsage::cas_and_registers(1, 0, 64)
    }

    fn name(&self) -> &'static str {
        "Figure 3 (1 CAS, O(n) steps)"
    }

    fn handle(&self, pid: ProcessId) -> Box<dyn LlScHandle + '_> {
        Box::new(CasLlSc::handle(self, pid))
    }
}

/// Figure 3's per-process code and its local flag `b`, on any [`Mem`] whose
/// `X` is the CAS object `(x, a)`.
#[derive(Debug, Clone)]
pub struct Fig3 {
    n: usize,
    pid: ProcessId,
    /// Local flag `b`: set when an `SC` linearized during this process's last
    /// `LL` after that `LL`'s linearization point.
    b: bool,
}

impl Fig3 {
    /// The code of process `pid` of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= n`.
    pub fn new(n: usize, pid: ProcessId) -> Self {
        assert!(pid < n, "pid {pid} out of range for n={n}");
        Fig3 { n, pid, b: false }
    }
}

impl LlScCode for Fig3 {
    /// `LL()` — Figure 3 lines 14–25.
    #[inline]
    fn ll<M: Mem>(&mut self, m: &mut M) -> Result<Word, M::Stop> {
        // line 14: (x, a) <- X.Read()
        let first = MaskWord::unpack(m.read(Obj::X)?);
        // line 15: if p's bit is 0
        if !first.bit(self.pid) {
            // lines 16–17
            self.b = false;
            return Ok(first.value);
        }
        // lines 19–23: try to reset p's bit, up to n times.
        for _ in 0..self.n {
            // line 20: (x', a') <- X.Read()
            let cur = MaskWord::unpack(m.read(Obj::X)?);
            // line 21: X.CAS((x', a'), (x', a' - 2^p))
            let cleared = cur.with_bit_cleared(self.pid);
            if m.cas(Obj::X, cur.pack(), cleared.pack())? {
                // lines 22–23
                self.b = false;
                return Ok(cur.value);
            }
        }
        // lines 24–25: n CAS failures imply some SC succeeded meanwhile.
        self.b = true;
        Ok(first.value)
    }

    /// `SC(x)` — Figure 3 lines 1–8.
    #[inline]
    fn sc<M: Mem>(&mut self, value: Word, m: &mut M) -> Result<bool, M::Stop> {
        // line 1: if b then return False (no shared step)
        if self.b {
            return Ok(false);
        }
        // lines 2–7
        for _ in 0..self.n {
            // line 3: (y, a) <- X.Read()
            let cur = MaskWord::unpack(m.read(Obj::X)?);
            // lines 4–5: if p's bit is 1, another SC succeeded since our LL.
            if cur.bit(self.pid) {
                return Ok(false);
            }
            // line 6: X.CAS((y, a), (x, 2^n - 1))
            let new = MaskWord {
                value,
                mask: MaskWord::full_mask(self.n),
            };
            if m.cas(Obj::X, cur.pack(), new.pack())? {
                // line 7
                return Ok(true);
            }
        }
        // line 8
        Ok(false)
    }

    /// `VL()` — Figure 3 lines 9–13.
    #[inline]
    fn vl<M: Mem>(&self, m: &mut M) -> Result<bool, M::Stop> {
        // line 9: (x, a) <- X.Read()
        let cur = MaskWord::unpack(m.read(Obj::X)?);
        // lines 10–13
        Ok(!cur.bit(self.pid) && !self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ll_sc_cycle() {
        let x = CasLlSc::new(2);
        let mut h = x.handle(0);
        assert_eq!(h.ll(), INITIAL_WORD);
        assert!(h.vl());
        assert!(h.sc(7));
        // Our own successful SC invalidates our link.
        assert!(!h.vl());
        assert!(!h.sc(8));
        assert_eq!(h.ll(), 7);
    }

    #[test]
    fn interfering_sc_causes_failure() {
        let x = CasLlSc::new(2);
        let mut a = x.handle(0);
        let mut b = x.handle(1);
        assert_eq!(a.ll(), INITIAL_WORD);
        assert_eq!(b.ll(), INITIAL_WORD);
        assert!(b.sc(5));
        assert!(!a.vl());
        assert!(!a.sc(6));
        assert_eq!(a.ll(), 5);
        assert!(a.sc(6));
        assert_eq!(b.ll(), 6);
    }

    #[test]
    fn sc_without_ll_fails_initially_after_a_success() {
        let x = CasLlSc::new(2);
        let mut a = x.handle(0);
        let mut b = x.handle(1);
        // Initially every bit is 0, so a process that never called LL still
        // has a "valid link" to the initial value (the paper's w.l.o.g.
        // assumption in Appendix A).  After any successful SC that is no
        // longer the case.
        assert_eq!(a.ll(), INITIAL_WORD);
        assert!(a.sc(1));
        assert!(!b.sc(2), "b never linked after a successful SC");
    }

    #[test]
    fn vl_reflects_interference() {
        let x = CasLlSc::new(3);
        let mut a = x.handle(0);
        let mut b = x.handle(1);
        assert_eq!(a.ll(), INITIAL_WORD);
        assert!(a.vl());
        assert_eq!(b.ll(), INITIAL_WORD);
        assert!(b.sc(9));
        assert!(!a.vl());
        assert!(!b.vl(), "b's own SC invalidates b's link too");
    }

    #[test]
    fn value_follows_successful_scs() {
        let x = CasLlSc::new(4);
        let mut hs: Vec<_> = (0..4).map(|p| x.handle(p)).collect();
        let mut expected = INITIAL_WORD;
        for round in 0..50u32 {
            let p = (round % 4) as usize;
            let v = 100 + round;
            assert_eq!(hs[p].ll(), expected);
            assert!(hs[p].sc(v), "uncontended SC must succeed (round {round})");
            expected = v;
        }
    }

    #[test]
    fn step_complexity_is_at_most_linear() {
        for n in [1usize, 2, 8, 16, 32] {
            let x = CasLlSc::new(n);
            let mut h = x.handle(0);
            h.ll();
            assert!(h.last_op_steps() <= 1 + 2 * n as u64);
            h.sc(1);
            assert!(h.last_op_steps() <= 2 * n as u64);
            h.vl();
            assert_eq!(h.last_op_steps(), 1);
        }
    }

    #[test]
    fn uncontended_ll_after_success_takes_linear_steps_at_most() {
        let x = CasLlSc::new(8);
        let mut h = x.handle(3);
        h.ll();
        assert!(h.sc(5));
        // Our bit is now set (successful SC sets all bits), so the next LL
        // goes through the CAS loop; uncontended it succeeds on the first
        // attempt: 1 read + 1 read + 1 CAS = 3 steps.
        h.ll();
        assert_eq!(h.last_op_steps(), 3);
    }

    #[test]
    fn space_is_a_single_bounded_cas() {
        let x = CasLlSc::new(5);
        let s = LlScObject::space(&x);
        assert_eq!(s.cas_objects, 1);
        assert_eq!(s.total_objects(), 1);
        assert!(s.bounded);
    }

    #[test]
    fn thirty_two_process_instance_works() {
        let x = CasLlSc::new(32);
        let mut h0 = x.handle(0);
        let mut h31 = x.handle(31);
        assert_eq!(h0.ll(), INITIAL_WORD);
        assert!(h0.sc(1));
        assert_eq!(h31.ll(), 1);
        assert!(h31.sc(2));
        assert_eq!(h0.ll(), 2);
    }

    #[test]
    #[should_panic(expected = "1..=32 processes")]
    fn rejects_too_many_processes() {
        let _ = CasLlSc::new(33);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_pid() {
        let x = CasLlSc::new(2);
        let _ = x.handle(3);
    }

    #[test]
    fn trait_object_interface() {
        let x = CasLlSc::new(2);
        let obj: &dyn LlScObject = &x;
        let mut h = obj.handle(1);
        assert_eq!(h.ll(), INITIAL_WORD);
        assert!(h.sc(3));
        assert_eq!(obj.name(), "Figure 3 (1 CAS, O(n) steps)");
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
            (0..n, 1u32..100).prop_map(|(p, v)| Op::Sc(p, v)),
            (0..n).prop_map(Op::Vl),
        ]
    }

    proptest! {
        /// Under sequential use Figure 3 agrees with the sequential LL/SC/VL
        /// specification, modulo the paper's initial-link convention: before
        /// the first successful SC, a process that has never called LL is
        /// treated as having a valid link to the initial value (Appendix A's
        /// w.l.o.g. assumption).  We therefore prime every process with one
        /// LL before comparing.
        #[test]
        fn sequentially_equivalent_to_spec(
            n in 1usize..6,
            ops in proptest::collection::vec(op_strategy(6), 1..300),
        ) {
            let x = CasLlSc::new(n);
            let mut spec = SeqLlSc::new(n, INITIAL_WORD);
            let mut handles: Vec<_> = (0..n).map(|p| x.handle(p)).collect();
            for (p, h) in handles.iter_mut().enumerate() {
                assert_eq!(h.ll(), spec.ll(p));
            }
            for op in ops {
                match op {
                    Op::Ll(p) => {
                        let p = p % n;
                        prop_assert_eq!(handles[p].ll(), spec.ll(p));
                    }
                    Op::Sc(p, v) => {
                        let p = p % n;
                        prop_assert_eq!(handles[p].sc(v), spec.sc(p, v));
                    }
                    Op::Vl(p) => {
                        let p = p % n;
                        prop_assert_eq!(handles[p].vl(), spec.vl(p));
                    }
                }
            }
        }

        /// Worst-case step complexity stays within the Figure 3 bounds.
        #[test]
        fn step_complexity_bounds(
            n in 1usize..33,
            ops in proptest::collection::vec(op_strategy(33), 1..100),
        ) {
            let x = CasLlSc::new(n);
            let mut handles: Vec<_> = (0..n).map(|p| x.handle(p)).collect();
            for op in ops {
                match op {
                    Op::Ll(p) => {
                        let h = &mut handles[p % n];
                        h.ll();
                        prop_assert!(h.last_op_steps() <= 1 + 2 * n as u64);
                    }
                    Op::Sc(p, v) => {
                        let h = &mut handles[p % n];
                        h.sc(v);
                        prop_assert!(h.last_op_steps() <= 2 * n as u64);
                    }
                    Op::Vl(p) => {
                        let h = &mut handles[p % n];
                        h.vl();
                        prop_assert!(h.last_op_steps() <= 1);
                    }
                }
            }
        }
    }
}
