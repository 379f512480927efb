//! Figure 5 / Theorem 4 (Appendix A): an ABA-detecting register from a
//! single LL/SC/VL object, with **two shared-memory steps per operation**.
//!
//! * `DWrite(x)` executes `LL()` followed by `SC(x)`.
//! * `DRead()` executes `VL()`; if the link is still valid it returns the
//!   locally cached value with flag `false`, otherwise it refreshes the cache
//!   with `LL()` and returns flag `true`.
//!
//! The construction is generic over the underlying [`LlScObject`], so it can
//! be stacked on Figure 3 ([`crate::cas_llsc::CasLlSc`]), on the unbounded
//! baseline ([`crate::moir_llsc::MoirLlSc`]) or on the announce-based O(1)
//! construction ([`crate::announce_llsc::AnnounceLlSc`]).  Stacking it on
//! Figure 3 yields the paper's Theorem 2 corollary: a bounded multi-writer
//! ABA-detecting register from a single bounded CAS object with O(n) step
//! complexity.
//!
//! The paper's w.l.o.g. convention that a first `VL()` succeeds before any
//! `SC` (Figure 5 caption) is realised by priming each handle with one `LL()`
//! when it is created ([`Fig5::prime`]), counted against no operation.
//!
//! [`Fig5`], the per-process code, is generic in the inner object's
//! [`LlScCode`]; its handle is the inner object's own [`Handle`] running
//! `Fig5`, and `aba_sim`'s `Fig5Sim` runs the same code under the simulator.

use aba_spec::{
    AbaHandle, AbaRegisterObject, LlScObject, ProcessId, SpaceUsage, Word, INITIAL_WORD,
};

use crate::announce_llsc::{Announce, AnnounceLlSc};
use crate::cas_llsc::{CasLlSc, Fig3};
use crate::mem::{Handle, LlScCode, Mem, RegisterCode};
use crate::moir_llsc::{Moir, MoirLlSc};

/// Figure 5: ABA-detecting register layered over any LL/SC/VL object.
#[derive(Debug)]
pub struct LlScAbaRegister<L> {
    inner: L,
    name: &'static str,
}

/// Per-process handle of [`LlScAbaRegister`]: [`Fig5`] over the inner
/// object's code `C`, on the inner object's atomics.
pub type LlScAbaHandle<'a, C> = Handle<'a, Fig5<C>>;

/// An LL/SC/VL object Figure 5 can be layered over: one whose per-process
/// handle is [`Handle`] running an [`LlScCode`].  Sealed; implemented by
/// [`CasLlSc`], [`AnnounceLlSc`] and [`MoirLlSc`].
pub trait Fig5Base: LlScObject + sealed::Sealed {
    /// The object's per-process code.
    type Code: LlScCode + Send;

    /// Process `pid`'s handle on the object.
    fn code_handle(&self, pid: ProcessId) -> Handle<'_, Self::Code>;
}

mod sealed {
    pub trait Sealed {}
}

macro_rules! fig5_base {
    ($($object:ty => $code:ty),+) => {$(
        impl sealed::Sealed for $object {}
        impl Fig5Base for $object {
            type Code = $code;
            fn code_handle(&self, pid: ProcessId) -> Handle<'_, $code> {
                self.handle(pid)
            }
        }
    )+};
}

fig5_base!(CasLlSc => Fig3, AnnounceLlSc => Announce, MoirLlSc => Moir);

impl<L: LlScObject> LlScAbaRegister<L> {
    /// Wrap an LL/SC/VL object.
    pub fn new(inner: L) -> Self {
        LlScAbaRegister {
            inner,
            name: "Figure 5 (over LL/SC/VL)",
        }
    }

    /// Wrap an LL/SC/VL object and override the display name used in
    /// experiment tables (e.g. to record which underlying object is used).
    pub fn with_name(inner: L, name: &'static str) -> Self {
        LlScAbaRegister { inner, name }
    }

    /// Access the wrapped LL/SC/VL object.
    pub fn inner(&self) -> &L {
        &self.inner
    }
}

impl<L: Fig5Base> LlScAbaRegister<L> {
    /// Obtain the concrete per-process handle, primed with one `LL`.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= self.processes()`.
    pub fn handle(&self, pid: ProcessId) -> LlScAbaHandle<'_, L::Code> {
        let mut handle = self.inner.code_handle(pid).map(Fig5::new);
        handle.call(|code, m| code.prime(m));
        handle
    }
}

impl<L: Fig5Base> AbaRegisterObject for LlScAbaRegister<L> {
    fn processes(&self) -> usize {
        self.inner.processes()
    }

    fn space(&self) -> SpaceUsage {
        // Space is exactly the space of the underlying object; Figure 5 adds
        // only process-local state.
        self.inner.space()
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn handle(&self, pid: ProcessId) -> Box<dyn AbaHandle + '_> {
        Box::new(LlScAbaRegister::handle(self, pid))
    }
}

/// Figure 5's per-process code: the inner object's code and the paper's
/// local variable `old`, on the inner object's [`Mem`].
#[derive(Debug, Clone)]
pub struct Fig5<C> {
    inner: C,
    old: Word,
}

impl<C: LlScCode> Fig5<C> {
    /// Figure 5 over the inner object's code `inner`, not yet primed.
    pub fn new(inner: C) -> Self {
        Fig5 {
            inner,
            old: INITIAL_WORD,
        }
    }

    /// The priming `LL` (Figure 5 caption, proof of Theorem 4): links the
    /// first `DRead`'s `VL` to the initial value.
    pub fn prime<M: Mem>(&mut self, m: &mut M) -> Result<(), M::Stop> {
        self.old = self.inner.ll(m)?;
        Ok(())
    }
}

impl<C: LlScCode> RegisterCode for Fig5<C> {
    /// `DWrite(x)` — Figure 5 lines 51–52: `LL()` then `SC(x)`.
    #[inline]
    fn dwrite<M: Mem>(&mut self, value: Word, m: &mut M) -> Result<(), M::Stop> {
        self.inner.ll(m)?;
        // The SC may fail; in that case the write linearizes immediately
        // before the interfering successful SC (Theorem 4's proof), so no
        // retry is needed.
        self.inner.sc(value, m)?;
        Ok(())
    }

    /// `DRead()` — Figure 5 lines 53–54.
    #[inline]
    fn dread<M: Mem>(&mut self, m: &mut M) -> Result<(Word, bool), M::Stop> {
        let valid = self.inner.vl(m)?;
        if !valid {
            self.old = self.inner.ll(m)?;
        }
        Ok((self.old, !valid))
    }
}

/// Convenience constructors for the three stackings used in the experiments.
pub mod stacks {
    use super::{AnnounceLlSc, CasLlSc, LlScAbaRegister, MoirLlSc};

    /// Figure 5 over Figure 3: a bounded ABA-detecting register from a single
    /// bounded CAS object with O(n) steps (Theorem 2).
    pub fn over_cas(n: usize) -> LlScAbaRegister<CasLlSc> {
        LlScAbaRegister::with_name(CasLlSc::new(n), "Figure 5 over Figure 3 (1 CAS)")
    }

    /// Figure 5 over Moir's unbounded-tag LL/SC (O(1) steps, unbounded).
    pub fn over_moir(n: usize) -> LlScAbaRegister<MoirLlSc> {
        LlScAbaRegister::with_name(MoirLlSc::new(n), "Figure 5 over Moir (unbounded)")
    }

    /// Figure 5 over the announce-based LL/SC (O(1) steps, 1 CAS + n
    /// registers).
    pub fn over_announce(n: usize) -> LlScAbaRegister<AnnounceLlSc> {
        LlScAbaRegister::with_name(
            AnnounceLlSc::new(n),
            "Figure 5 over Announce (1 CAS + n regs)",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::stacks;
    use super::*;

    #[test]
    fn basic_behaviour_over_figure3() {
        let reg = stacks::over_cas(3);
        let mut w = AbaRegisterObject::handle(&reg, 0);
        let mut r = AbaRegisterObject::handle(&reg, 1);
        assert_eq!(r.dread(), (INITIAL_WORD, false));
        w.dwrite(11);
        assert_eq!(r.dread(), (11, true));
        assert_eq!(r.dread(), (11, false));
    }

    #[test]
    fn aba_detected_over_every_stack() {
        let over_cas = stacks::over_cas(2);
        let over_moir = stacks::over_moir(2);
        let over_announce = stacks::over_announce(2);
        let regs: Vec<&dyn AbaRegisterObject> = vec![&over_cas, &over_moir, &over_announce];
        for reg in regs {
            let mut w = reg.handle(0);
            let mut r = reg.handle(1);
            w.dwrite(1);
            assert_eq!(r.dread(), (1, true), "{}", reg.name());
            w.dwrite(2);
            w.dwrite(1);
            let (v, changed) = r.dread();
            assert_eq!(v, 1, "{}", reg.name());
            assert!(changed, "{} must detect the ABA", reg.name());
            assert_eq!(r.dread(), (1, false), "{}", reg.name());
        }
    }

    #[test]
    fn writer_sees_its_own_writes() {
        let reg = stacks::over_cas(2);
        let mut h = AbaRegisterObject::handle(&reg, 0);
        h.dwrite(5);
        assert_eq!(h.dread(), (5, true));
        assert_eq!(h.dread(), (5, false));
    }

    #[test]
    fn two_steps_per_operation_over_constant_time_llsc() {
        // Over an O(1) LL/SC, Figure 5's DWrite/DRead are O(1) as well; over
        // Moir's each operation is exactly 2 steps (LL+SC / VL+LL or VL).
        let reg = stacks::over_moir(4);
        let mut w = LlScAbaRegister::handle(&reg, 0);
        let before = w.step_count();
        w.dwrite(1);
        assert_eq!(w.step_count() - before, 2);
        let mut r = LlScAbaRegister::handle(&reg, 1);
        let before = r.step_count();
        let _ = r.dread();
        assert!(r.step_count() - before <= 2);
    }

    #[test]
    fn last_op_steps_covers_every_llsc_call_of_the_operation() {
        // (LL, SC, VL) steps of each inner object, uncontended.
        let moir = (stacks::over_moir(2), (1, 1, 1));
        let announce = (stacks::over_announce(2), (3, 2, 1));
        let regs: [(&dyn AbaRegisterObject, _); 2] = [(&moir.0, moir.1), (&announce.0, announce.1)];
        for (reg, (ll, sc, vl)) in regs {
            let mut w = reg.handle(0);
            let mut r = reg.handle(1);
            let before = w.step_count();
            w.dwrite(1);
            assert_eq!(w.last_op_steps(), ll + sc, "{}: DWrite", reg.name());
            assert_eq!(w.step_count() - before, ll + sc, "{}", reg.name());
            // The write broke r's link: VL fails, LL refreshes.
            assert_eq!(r.dread(), (1, true));
            assert_eq!(r.last_op_steps(), vl + ll, "{}: changed DRead", reg.name());
            assert_eq!(r.dread(), (1, false));
            assert_eq!(r.last_op_steps(), vl, "{}: quiet DRead", reg.name());
        }
    }

    #[test]
    fn space_is_delegated_to_inner_object() {
        let reg = LlScAbaRegister::new(CasLlSc::new(6));
        let s = AbaRegisterObject::space(&reg);
        assert_eq!(s.cas_objects, 1);
        assert_eq!(s.total_objects(), 1);
    }

    #[test]
    fn multiple_readers_over_announce() {
        let reg = stacks::over_announce(4);
        let mut w = AbaRegisterObject::handle(&reg, 0);
        let mut r1 = AbaRegisterObject::handle(&reg, 1);
        let mut r2 = AbaRegisterObject::handle(&reg, 2);
        w.dwrite(3);
        assert_eq!(r1.dread(), (3, true));
        assert_eq!(r2.dread(), (3, true));
        assert_eq!(r1.dread(), (3, false));
        w.dwrite(3);
        assert_eq!(r1.dread(), (3, true));
        assert_eq!(r2.dread(), (3, true));
    }

    #[test]
    fn custom_name_is_reported() {
        let reg = LlScAbaRegister::with_name(CasLlSc::new(2), "custom");
        assert_eq!(AbaRegisterObject::name(&reg), "custom");
    }
}

#[cfg(test)]
mod proptests {
    use super::stacks;
    use super::*;
    use aba_spec::SeqAbaRegister;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Write(usize, Word),
        Read(usize),
    }

    fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..n, 0u32..16).prop_map(|(p, v)| Op::Write(p, v)),
            (0..n).prop_map(Op::Read),
        ]
    }

    proptest! {
        /// Figure 5 over Figure 3, used sequentially, matches the sequential
        /// ABA-detecting register specification.
        #[test]
        fn figure5_over_figure3_matches_spec(
            n in 1usize..5,
            ops in proptest::collection::vec(op_strategy(5), 1..250),
        ) {
            let reg = stacks::over_cas(n);
            let mut spec = SeqAbaRegister::new(n, INITIAL_WORD);
            let mut handles: Vec<_> = (0..n).map(|p| LlScAbaRegister::handle(&reg, p)).collect();
            for op in ops {
                match op {
                    Op::Write(p, v) => { let p = p % n; handles[p].dwrite(v); spec.dwrite(p, v); }
                    Op::Read(p) => {
                        let p = p % n;
                        prop_assert_eq!(handles[p].dread(), spec.dread(p));
                    }
                }
            }
        }

        /// The same holds over the announce-based O(1) LL/SC.
        #[test]
        fn figure5_over_announce_matches_spec(
            n in 1usize..5,
            ops in proptest::collection::vec(op_strategy(5), 1..250),
        ) {
            let reg = stacks::over_announce(n);
            let mut spec = SeqAbaRegister::new(n, INITIAL_WORD);
            let mut handles: Vec<_> = (0..n).map(|p| LlScAbaRegister::handle(&reg, p)).collect();
            for op in ops {
                match op {
                    Op::Write(p, v) => { let p = p % n; handles[p].dwrite(v); spec.dwrite(p, v); }
                    Op::Read(p) => {
                        let p = p % n;
                        prop_assert_eq!(handles[p].dread(), spec.dread(p));
                    }
                }
            }
        }
    }
}
