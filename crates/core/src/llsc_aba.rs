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
//! `SC` (Figure 5 caption) is realised here by priming each handle with one
//! `LL()` when it is created; the priming step is not counted against any
//! operation.

use aba_spec::{AbaHandle, AbaRegisterObject, LlScHandle, LlScObject, ProcessId, SpaceUsage, Word};

#[cfg(test)]
use aba_spec::INITIAL_WORD;

/// Figure 5: ABA-detecting register layered over any LL/SC/VL object.
#[derive(Debug)]
pub struct LlScAbaRegister<L> {
    inner: L,
    name: &'static str,
}

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

    /// Obtain the concrete per-process handle.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= self.processes()`.
    pub fn handle(&self, pid: ProcessId) -> LlScAbaHandle<'_> {
        let mut llsc = self.inner.handle(pid);
        // Prime the link so that the first DRead's VL refers to the initial
        // value (paper, Figure 5 caption and proof of Theorem 4).
        let old = llsc.ll();
        LlScAbaHandle {
            llsc,
            old,
            pid,
            last_op: 0,
        }
    }
}

impl<L: LlScObject> AbaRegisterObject for LlScAbaRegister<L> {
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

/// Per-process handle of [`LlScAbaRegister`], carrying the paper's local
/// variable `old`.
pub struct LlScAbaHandle<'a> {
    llsc: Box<dyn LlScHandle + 'a>,
    old: Word,
    pid: ProcessId,
    /// Steps of the last `DWrite`/`DRead` — all of its LL/SC/VL calls, where
    /// the inner handle's own `last_op_steps` is only the last of them.
    last_op: u64,
}

impl std::fmt::Debug for LlScAbaHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LlScAbaHandle")
            .field("pid", &self.pid)
            .field("old", &self.old)
            .finish_non_exhaustive()
    }
}

impl LlScAbaHandle<'_> {
    /// `DWrite(x)` — Figure 5 lines 51–52: `LL()` then `SC(x)`.
    pub fn dwrite(&mut self, value: Word) {
        let before = self.llsc.step_count();
        self.llsc.ll();
        // The SC may fail; in that case the write linearizes immediately
        // before the interfering successful SC (Theorem 4's proof), so no
        // retry is needed.
        let _ = self.llsc.sc(value);
        self.last_op = self.llsc.step_count() - before;
    }

    /// `DRead()` — Figure 5 lines 53–54.
    pub fn dread(&mut self) -> (Word, bool) {
        let before = self.llsc.step_count();
        let valid = self.llsc.vl();
        if !valid {
            self.old = self.llsc.ll();
        }
        self.last_op = self.llsc.step_count() - before;
        (self.old, !valid)
    }
}

impl AbaHandle for LlScAbaHandle<'_> {
    fn pid(&self) -> ProcessId {
        self.pid
    }

    fn dwrite(&mut self, value: Word) {
        LlScAbaHandle::dwrite(self, value);
    }

    fn dread(&mut self) -> (Word, bool) {
        LlScAbaHandle::dread(self)
    }

    fn step_count(&self) -> u64 {
        self.llsc.step_count()
    }

    fn last_op_steps(&self) -> u64 {
        self.last_op
    }
}

/// Convenience constructors for the three stackings used in the experiments.
pub mod stacks {
    use super::LlScAbaRegister;
    use crate::announce_llsc::AnnounceLlSc;
    use crate::cas_llsc::CasLlSc;
    use crate::moir_llsc::MoirLlSc;

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
    use crate::cas_llsc::CasLlSc;

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
        let before = w.llsc.step_count();
        w.dwrite(1);
        assert_eq!(w.llsc.step_count() - before, 2);
        let mut r = LlScAbaRegister::handle(&reg, 1);
        let before = r.llsc.step_count();
        let _ = r.dread();
        assert!(r.llsc.step_count() - before <= 2);
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
