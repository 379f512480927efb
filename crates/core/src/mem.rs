//! The memory the paper's per-process code runs on, and the one handle type
//! that runs it on atomics.
//!
//! The paper states each construction as pseudocode whose every shared
//! access is one step on a base object.  The per-process code of Figure 3
//! ([`crate::cas_llsc::Fig3`]), Figure 4 ([`crate::bounded_reg::Fig4`]),
//! Figure 5 ([`crate::llsc_aba::Fig5`]), the announce LL/SC
//! ([`crate::announce_llsc::Announce`]), Moir's LL/SC
//! ([`crate::moir_llsc::Moir`]) and the tagged register
//! ([`crate::tagged::Tagged`]) is written once, against the three methods of
//! [`Mem`], and run on two memories:
//!
//! * `Atomics`, here — the object's `AtomicU64` words, every access
//!   `SeqCst` and counted as one step; an access cannot stop the code, so
//!   `Stop` is [`Infallible`] and the `?` after it compiles to nothing;
//! * the simulator's replay memory (`aba-sim`, `algorithms/replay.rs`),
//!   where the first access past the logged steps stops the call with the
//!   step it is poised on, so that an adversary schedules it.
//!
//! `Stop` is an associated type rather than a type parameter of the code so
//! that the code names neither memory: each method is `fn op<M: Mem>(…, m:
//! &mut M) -> Result<T, M::Stop>`.

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};

use aba_spec::{AbaHandle, LlScHandle, ProcessId, Word};

use crate::pad::CachePadded;
use crate::stepcount::{self, LocalSteps};

/// A base object of one of the paper's constructions, named as the
/// pseudocode names it.  (Named rather than numbered: with `X = 0`,
/// `A[q] = 1 + q` the atomics pay a compare and an add per access that the
/// wrapping `1 + q` keeps the compiler from removing — ISSUE 23's sizing,
/// quoted in EXPERIMENTS.md E23.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Obj {
    /// The register or CAS object `X`.
    X,
    /// Entry `q` of the announce array `A`.
    A(usize),
}

/// Shared memory as per-process code sees it: three atomic operations, each
/// one step, each able to stop the call that issued it.
pub trait Mem {
    /// Why an access did not return — never, on atomics; "the call is now
    /// poised on this step", under the simulator.
    type Stop;

    /// `Read()` on `obj`.
    fn read(&mut self, obj: Obj) -> Result<u64, Self::Stop>;

    /// `Write(value)` on `obj`.
    fn write(&mut self, obj: Obj, value: u64) -> Result<(), Self::Stop>;

    /// `CAS(expected, new)` on `obj`; whether it installed `new`.
    fn cas(&mut self, obj: Obj, expected: u64, new: u64) -> Result<bool, Self::Stop>;
}

/// The hardware [`Mem`]: one object's atomic words and the step counter of
/// the handle accessing them.
#[derive(Debug)]
pub(crate) struct Atomics<'a> {
    x: &'a AtomicU64,
    announce: &'a [CachePadded<AtomicU64>],
    steps: LocalSteps,
}

impl Atomics<'_> {
    #[inline]
    fn word(&self, obj: Obj) -> &AtomicU64 {
        match obj {
            Obj::X => self.x,
            Obj::A(q) => &self.announce[q],
        }
    }
}

impl Mem for Atomics<'_> {
    type Stop = Infallible;

    // Each access is counted *after* it: the counter's stores would
    // otherwise sit in the store buffer that a `SeqCst` store or CAS has to
    // drain before it completes (EXPERIMENTS.md E23).  Every write is a
    // `SeqCst` store, so the thread's tally counts it as locked.
    #[inline]
    fn read(&mut self, obj: Obj) -> Result<u64, Infallible> {
        let value = self.word(obj).load(Ordering::SeqCst);
        self.steps.step();
        stepcount::plain();
        Ok(value)
    }

    #[inline]
    fn write(&mut self, obj: Obj, value: u64) -> Result<(), Infallible> {
        self.word(obj).store(value, Ordering::SeqCst);
        self.steps.step();
        stepcount::locked();
        Ok(())
    }

    #[inline]
    fn cas(&mut self, obj: Obj, expected: u64, new: u64) -> Result<bool, Infallible> {
        let swapped = self
            .word(obj)
            .compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        self.steps.step();
        stepcount::locked();
        Ok(swapped)
    }
}

/// The per-process code and local variables of an LL/SC/VL construction.
pub trait LlScCode {
    /// `LL()`.
    fn ll<M: Mem>(&mut self, m: &mut M) -> Result<Word, M::Stop>;

    /// `SC(value)`.
    fn sc<M: Mem>(&mut self, value: Word, m: &mut M) -> Result<bool, M::Stop>;

    /// `VL()`.
    fn vl<M: Mem>(&self, m: &mut M) -> Result<bool, M::Stop>;
}

/// The per-process code and local variables of an ABA-detecting register
/// construction.
pub trait RegisterCode {
    /// `DWrite(value)`.
    fn dwrite<M: Mem>(&mut self, value: Word, m: &mut M) -> Result<(), M::Stop>;

    /// `DRead()`.
    fn dread<M: Mem>(&mut self, m: &mut M) -> Result<(Word, bool), M::Stop>;
}

/// Process `pid`'s handle on a hardware object: the construction's code and
/// local variables, run on the object's atomic words.
#[derive(Debug)]
pub struct Handle<'a, C> {
    pid: ProcessId,
    code: C,
    mem: Atomics<'a>,
}

impl<'a, C> Handle<'a, C> {
    pub(crate) fn new(
        pid: ProcessId,
        code: C,
        x: &'a AtomicU64,
        announce: &'a [CachePadded<AtomicU64>],
    ) -> Self {
        let steps = LocalSteps::new();
        Handle {
            pid,
            code,
            mem: Atomics { x, announce, steps },
        }
    }

    /// The same process, memory and step counter running `f(code)`: how the
    /// handle of an LL/SC object becomes the handle of Figure 5 over it.
    pub(crate) fn map<D>(self, f: impl FnOnce(C) -> D) -> Handle<'a, D> {
        Handle {
            pid: self.pid,
            code: f(self.code),
            mem: self.mem,
        }
    }

    /// One method call: its steps are what `last_op_steps` then reports.
    #[inline]
    pub(crate) fn call<T>(
        &mut self,
        op: impl FnOnce(&mut C, &mut Atomics<'a>) -> Result<T, Infallible>,
    ) -> T {
        self.mem.steps.begin();
        let Ok(response) = op(&mut self.code, &mut self.mem);
        self.mem.steps.end();
        response
    }
}

impl<C: LlScCode> Handle<'_, C> {
    /// `LL()`.
    #[inline]
    pub fn ll(&mut self) -> Word {
        self.call(|code, m| code.ll(m))
    }

    /// `SC(value)`.
    #[inline]
    pub fn sc(&mut self, value: Word) -> bool {
        self.call(|code, m| code.sc(value, m))
    }

    /// `VL()`.
    #[inline]
    pub fn vl(&mut self) -> bool {
        self.call(|code, m| code.vl(m))
    }
}

impl<C: RegisterCode> Handle<'_, C> {
    /// `DWrite(value)`.
    #[inline]
    pub fn dwrite(&mut self, value: Word) {
        self.call(|code, m| code.dwrite(value, m));
    }

    /// `DRead()`.
    #[inline]
    pub fn dread(&mut self) -> (Word, bool) {
        self.call(|code, m| code.dread(m))
    }
}

impl<C: LlScCode + Send> LlScHandle for Handle<'_, C> {
    fn pid(&self) -> ProcessId {
        self.pid
    }

    fn ll(&mut self) -> Word {
        Handle::ll(self)
    }

    fn sc(&mut self, value: Word) -> bool {
        Handle::sc(self, value)
    }

    fn vl(&mut self) -> bool {
        Handle::vl(self)
    }

    fn step_count(&self) -> u64 {
        self.mem.steps.total()
    }

    fn last_op_steps(&self) -> u64 {
        self.mem.steps.last_op()
    }
}

impl<C: RegisterCode + Send> AbaHandle for Handle<'_, C> {
    fn pid(&self) -> ProcessId {
        self.pid
    }

    fn dwrite(&mut self, value: Word) {
        Handle::dwrite(self, value);
    }

    fn dread(&mut self) -> (Word, bool) {
        Handle::dread(self)
    }

    fn step_count(&self) -> u64 {
        self.mem.steps.total()
    }

    fn last_op_steps(&self) -> u64 {
        self.mem.steps.last_op()
    }
}
