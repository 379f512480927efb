//! The trivial unbounded-tag ABA-detecting register (the paper's baseline).
//!
//! > "Using a single unbounded register with an unbounded tag that gets
//! > changed whenever some process writes to it, it is trivial to obtain an
//! > ABA-detecting register with constant time complexity."
//!
//! One register `X = (value, tag)`: process `p`'s `k`-th write publishes tag
//! `k·n + p + 1`, unique and never the initial 0, so a `DWrite` is one write
//! and a `DRead` one read, flagged iff the tag moved.  The 32-bit tag lasts
//! 2³²/n writes per process — "practically unbounded" here — so the register
//! reports itself unbounded ([`SpaceUsage::bounded`]), as the lower bounds
//! exempt it.  ([`Tagged`] is run on atomics by [`Handle`] and under the
//! simulator by `aba_sim`'s `TaggedSim`; `MoirLlSc::with_tag_bits` shows the
//! bounded-tag failure mode.)

use std::sync::atomic::AtomicU64;

use aba_spec::{AbaHandle, AbaRegisterObject, ProcessId, SpaceUsage, Word, INITIAL_WORD};

use crate::mem::{Handle, Mem, Obj, RegisterCode};
use crate::pack::TagWord;

/// ABA-detecting register from one unbounded tagged register.
#[derive(Debug)]
pub struct TaggedAbaRegister {
    n: usize,
    /// The register content `(value, tag)`.
    x: AtomicU64,
}

/// Per-process handle of [`TaggedAbaRegister`]: [`Tagged`] on the object's
/// atomic word.
pub type TaggedHandle<'a> = Handle<'a, Tagged>;

impl TaggedAbaRegister {
    /// A register for `n` processes with a practically unbounded (32-bit)
    /// tag and initial value [`INITIAL_WORD`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        TaggedAbaRegister {
            n,
            x: AtomicU64::new(TagWord::initial(INITIAL_WORD).pack()),
        }
    }

    /// Obtain the concrete per-process handle.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= self.processes()`.
    pub fn handle(&self, pid: ProcessId) -> TaggedHandle<'_> {
        Handle::new(pid, Tagged::new(self.n, pid), &self.x, &[])
    }
}

impl AbaRegisterObject for TaggedAbaRegister {
    fn processes(&self) -> usize {
        self.n
    }

    fn space(&self) -> SpaceUsage {
        SpaceUsage {
            bounded: false,
            ..SpaceUsage::registers(1, 64)
        }
    }

    fn name(&self) -> &'static str {
        "tagged (unbounded)"
    }

    fn handle(&self, pid: ProcessId) -> Box<dyn AbaHandle + '_> {
        Box::new(TaggedAbaRegister::handle(self, pid))
    }
}

/// The tagged register's per-process code, on any [`Mem`] whose `X` is the
/// register `(value, tag)`.
#[derive(Debug, Clone)]
pub struct Tagged {
    n: usize,
    pid: ProcessId,
    /// Writes this process has completed.
    writes: u64,
    /// The tag the last `DRead` saw; 0, the initial tag, before the first.
    last_tag: u32,
}

impl Tagged {
    /// The code of process `pid` of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= n`.
    pub fn new(n: usize, pid: ProcessId) -> Self {
        assert!(pid < n, "pid {pid} out of range for n={n}");
        Tagged {
            n,
            pid,
            writes: 0,
            last_tag: 0,
        }
    }
}

impl RegisterCode for Tagged {
    /// `DWrite(x)`: one write of `(x, writes·n + pid + 1)`.
    #[inline]
    fn dwrite<M: Mem>(&mut self, value: Word, m: &mut M) -> Result<(), M::Stop> {
        let tag = (self.writes * self.n as u64 + self.pid as u64 + 1) as u32;
        m.write(Obj::X, TagWord { value, tag }.pack())?;
        self.writes += 1;
        Ok(())
    }

    /// `DRead()`: one read; the flag is whether the tag moved.
    #[inline]
    fn dread<M: Mem>(&mut self, m: &mut M) -> Result<(Word, bool), M::Stop> {
        let w = TagWord::unpack(m.read(Obj::X)?);
        let changed = w.tag != self.last_tag;
        self.last_tag = w.tag;
        Ok((w.value, changed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_sequential_behaviour() {
        let reg = TaggedAbaRegister::new(2);
        let mut w = reg.handle(0);
        let mut r = reg.handle(1);
        assert_eq!(r.dread(), (INITIAL_WORD, false));
        w.dwrite(9);
        assert_eq!(r.dread(), (9, true));
        assert_eq!(r.dread(), (9, false));
    }

    #[test]
    fn same_value_rewrite_is_detected() {
        let reg = TaggedAbaRegister::new(2);
        let mut w = reg.handle(0);
        let mut r = reg.handle(1);
        w.dwrite(5);
        assert_eq!(r.dread(), (5, true));
        w.dwrite(5);
        assert_eq!(r.dread(), (5, true));
    }

    #[test]
    fn aba_pattern_is_detected() {
        let reg = TaggedAbaRegister::new(2);
        let mut w = reg.handle(0);
        let mut r = reg.handle(1);
        w.dwrite(1);
        assert_eq!(r.dread(), (1, true));
        w.dwrite(2);
        w.dwrite(1); // back to the old value: A-B-A
        let (v, changed) = r.dread();
        assert_eq!(v, 1);
        assert!(changed, "the ABA must be detected");
    }

    #[test]
    fn writer_sees_its_own_write() {
        let reg = TaggedAbaRegister::new(1);
        let mut h = reg.handle(0);
        h.dwrite(3);
        assert_eq!(h.dread(), (3, true));
        assert_eq!(h.dread(), (3, false));
    }

    #[test]
    fn step_counts_are_constant() {
        let reg = TaggedAbaRegister::new(4);
        let mut h = reg.handle(2);
        h.dwrite(1);
        assert_eq!(h.last_op_steps(), 1);
        h.dread();
        assert_eq!(h.last_op_steps(), 1);
        assert_eq!(h.step_count(), 2);
    }

    #[test]
    fn space_reporting() {
        let space = AbaRegisterObject::space(&TaggedAbaRegister::new(2));
        assert!(!space.bounded);
        assert_eq!(space.total_objects(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn handle_rejects_bad_pid() {
        let reg = TaggedAbaRegister::new(2);
        let _ = reg.handle(2);
    }

    #[test]
    fn trait_object_usage() {
        let reg = TaggedAbaRegister::new(2);
        let obj: &dyn AbaRegisterObject = &reg;
        let mut h = obj.handle(1);
        assert_eq!(h.dread(), (INITIAL_WORD, false));
        assert_eq!(h.pid(), 1);
    }
}
