//! Moir's LL/SC from a single **unbounded** CAS object (the baseline the
//! paper contrasts its bounded results against).
//!
//! The CAS object holds `(value, tag)` where the tag is incremented by every
//! successful `SC`.  Because the tag never repeats (it is "unbounded"), a
//! process's `SC` CAS on the exact `(value, tag)` pair it loaded during `LL`
//! succeeds iff no successful `SC` intervened — constant step complexity with
//! a single object, which is precisely why the paper's lower bounds must (and
//! do) assume *bounded* base objects.
//!
//! Our tag is 32 bits wide; no experiment in this repository performs
//! anywhere near 2^32 successful `SC`s, so the implementation reports itself
//! as unbounded (see DESIGN.md §2).  A bounded-tag variant
//! ([`MoirLlSc::with_tag_bits`]) is provided to demonstrate the wrap-around
//! failure mode.
//!
//! [`Moir`], the per-process code, is written over [`crate::mem::Mem`] like
//! the paper's own constructions and run on the object's atomic word by the
//! shared [`Handle`]; `aba_sim`'s `MoirSim` runs the same code under the
//! simulator.

use std::sync::atomic::AtomicU64;

use aba_spec::{LlScHandle, LlScObject, ProcessId, SpaceUsage, Word, INITIAL_WORD};

use crate::mem::{Handle, LlScCode, Mem, Obj};
use crate::pack::TagWord;

/// LL/SC/VL from one unbounded (tagged) CAS object, O(1) steps.
#[derive(Debug)]
pub struct MoirLlSc {
    n: usize,
    x: AtomicU64,
    tag_bits: u32,
}

/// Per-process handle of [`MoirLlSc`]: [`Moir`] on the object's atomics.
pub type MoirHandle<'a> = Handle<'a, Moir>;

impl MoirLlSc {
    /// An object for `n` processes with a practically unbounded (32-bit) tag.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Self::with_tag_bits(n, 32)
    }

    /// An object whose tag is truncated to `tag_bits` bits; with a small
    /// width the tag wraps and the object can violate LL/SC semantics, which
    /// experiment E5 uses as a bounded-tag counterexample.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `tag_bits` not in `1..=32`.
    pub fn with_tag_bits(n: usize, tag_bits: u32) -> Self {
        assert!(n > 0, "need at least one process");
        assert!((1..=32).contains(&tag_bits), "tag_bits must be in 1..=32");
        MoirLlSc {
            n,
            x: AtomicU64::new(TagWord::initial(INITIAL_WORD).pack()),
            tag_bits,
        }
    }

    /// Obtain the concrete per-process handle.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= self.processes()`.
    pub fn handle(&self, pid: ProcessId) -> MoirHandle<'_> {
        assert!(pid < self.n, "pid {pid} out of range for n={}", self.n);
        let code = Moir {
            tag_shift: 32 - self.tag_bits,
            ..Moir::default()
        };
        Handle::new(pid, code, &self.x, &[])
    }
}

impl LlScObject for MoirLlSc {
    fn processes(&self) -> usize {
        self.n
    }

    fn space(&self) -> SpaceUsage {
        if self.tag_bits == 32 {
            SpaceUsage::unbounded_cas(64)
        } else {
            SpaceUsage::cas_and_registers(1, 0, 32 + self.tag_bits)
        }
    }

    fn name(&self) -> &'static str {
        if self.tag_bits == 32 {
            "Moir (1 unbounded CAS)"
        } else {
            "Moir (bounded tag)"
        }
    }

    fn handle(&self, pid: ProcessId) -> Box<dyn LlScHandle + '_> {
        Box::new(MoirLlSc::handle(self, pid))
    }
}

/// Moir's per-process code and its link, on any [`Mem`] whose `X` is the
/// CAS object `(value, tag)`; `Moir::default()` is a process's code on an
/// object with the full 32-bit tag.
#[derive(Debug, Clone, Default)]
pub struct Moir {
    /// The high bits of the counter the tag drops (0: none).
    tag_shift: u32,
    link: TagWord,
    linked: bool,
}

impl LlScCode for Moir {
    /// `LL()`: read `(value, tag)` and remember it as the link.
    #[inline]
    fn ll<M: Mem>(&mut self, m: &mut M) -> Result<Word, M::Stop> {
        self.link = TagWord::unpack(m.read(Obj::X)?);
        self.linked = true;
        Ok(self.link.value)
    }

    /// `SC(x)`: CAS from the linked `(value, tag)` to `(x, tag+1)`.
    #[inline]
    fn sc<M: Mem>(&mut self, value: Word, m: &mut M) -> Result<bool, M::Stop> {
        if !self.linked {
            return Ok(false);
        }
        let tag = self.link.tag.wrapping_add(1) & (u32::MAX >> self.tag_shift);
        let ok = m.cas(Obj::X, self.link.pack(), TagWord { value, tag }.pack())?;
        // Either way the link is consumed: a second SC without LL must fail.
        self.linked = false;
        Ok(ok)
    }

    /// `VL()`: the link is valid iff `X` still holds the linked pair.
    #[inline]
    fn vl<M: Mem>(&self, m: &mut M) -> Result<bool, M::Stop> {
        if !self.linked {
            return Ok(false);
        }
        let cur = TagWord::unpack(m.read(Obj::X)?);
        Ok(cur == self.link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_cycle() {
        let x = MoirLlSc::new(2);
        let mut h = x.handle(0);
        assert_eq!(h.ll(), INITIAL_WORD);
        assert!(h.vl());
        assert!(h.sc(5));
        assert!(!h.sc(6), "second SC without LL must fail");
        assert_eq!(h.ll(), 5);
    }

    #[test]
    fn interference_detected() {
        let x = MoirLlSc::new(2);
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
    fn aba_on_value_does_not_fool_it() {
        let x = MoirLlSc::new(3);
        let mut a = x.handle(0);
        let mut b = x.handle(1);
        a.ll(); // links (0, tag0)

        // b drives the value away and back.
        b.ll();
        assert!(b.sc(1));
        b.ll();
        assert!(b.sc(0));
        // The value is back to 0, but the tag moved on: a's SC must fail.
        assert!(!a.sc(7));
    }

    #[test]
    fn constant_step_complexity() {
        let x = MoirLlSc::new(16);
        let mut h = x.handle(7);
        h.ll();
        assert_eq!(h.last_op_steps(), 1);
        h.sc(3);
        assert_eq!(h.last_op_steps(), 1);
        h.ll();
        h.vl();
        assert_eq!(h.last_op_steps(), 1);
    }

    #[test]
    fn bounded_tag_variant_can_be_fooled() {
        // 1-bit tag: two successful SCs wrap the tag back; combined with the
        // value returning to its old state the link check is fooled.
        let x = MoirLlSc::with_tag_bits(2, 1);
        let mut a = x.handle(0);
        let mut b = x.handle(1);
        assert_eq!(a.ll(), 0); // links (0, tag 0)
        b.ll();
        assert!(b.sc(1)); // (1, tag 1)
        b.ll();
        assert!(b.sc(0)); // (0, tag 0) — wrapped!
        assert!(
            a.sc(7),
            "bounded tag wrap makes the stale SC succeed (expected failure mode)"
        );
    }

    #[test]
    fn space_reporting() {
        assert!(!LlScObject::space(&MoirLlSc::new(2)).bounded);
        assert!(LlScObject::space(&MoirLlSc::with_tag_bits(2, 8)).bounded);
    }

    #[test]
    fn vl_without_ll_is_false_and_sc_without_ll_fails() {
        let x = MoirLlSc::new(2);
        let mut h = x.handle(1);
        assert!(!h.vl());
        assert!(!h.sc(3));
    }

    #[test]
    fn trait_object_interface() {
        let x = MoirLlSc::new(2);
        let obj: &dyn LlScObject = &x;
        let mut h = obj.handle(0);
        h.ll();
        assert!(h.sc(2));
        assert_eq!(obj.processes(), 2);
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
            (0..n, 1u32..50).prop_map(|(p, v)| Op::Sc(p, v)),
            (0..n).prop_map(Op::Vl),
        ]
    }

    proptest! {
        /// Under sequential use with an unbounded tag, Moir's construction
        /// agrees exactly with the sequential LL/SC/VL specification.
        #[test]
        fn sequentially_equivalent_to_spec(
            n in 1usize..6,
            ops in proptest::collection::vec(op_strategy(6), 1..300),
        ) {
            let x = MoirLlSc::new(n);
            let mut spec = SeqLlSc::new(n, INITIAL_WORD);
            let mut handles: Vec<_> = (0..n).map(|p| x.handle(p)).collect();
            for op in ops {
                match op {
                    Op::Ll(p) => { let p = p % n; prop_assert_eq!(handles[p].ll(), spec.ll(p)); }
                    Op::Sc(p, v) => { let p = p % n; prop_assert_eq!(handles[p].sc(v), spec.sc(p, v)); }
                    Op::Vl(p) => { let p = p % n; prop_assert_eq!(handles[p].vl(), spec.vl(p)); }
                }
            }
        }
    }
}
