//! Models as straight-line code: the adapter that turns a sequential method
//! body into the `poised`/`apply` vocabulary of [`SimProcess`].
//!
//! The paper gives its algorithms as pseudocode whose every shared-memory
//! access is one schedulable step.  A [`Model`] is written the same way: one
//! `call` function of ordinary sequential Rust whose accesses go through
//! [`Mem::read`] / [`Mem::write`] / [`Mem::cas`], each followed by `?`.
//! [`Replay`] — the only `SimProcess` in the crate — makes that function
//! schedulable without threads or coroutines: it logs the results of the
//! call's steps so far, re-runs the call *from its start* on a clone of the
//! process's local state with the log fed back, and the first access past
//! the log is the step the process is poised on (the `?` unwinds the re-run
//! with it).  Local state is committed only when the call returns, so a
//! suspended call's mutations of its model are invisible, and the step
//! sequence any schedule sees is exactly the sequence of accesses the
//! function performs.
//!
//! Re-running costs one pass over the log per step, which is quadratic in
//! the length of a call.  Calls are short — except a CAS-retry loop spinning
//! on a corrupted structure, which the explorers cut only after thousands of
//! steps.  Such loops go through [`Mem::retry`], which forgets a finished
//! attempt.

use std::fmt::Debug;

use aba_core::mem::{self, LlScCode, Obj, RegisterCode};

use crate::algorithm::{MethodCall, MethodResponse, SimProcess};
use crate::object::{BaseOp, ObjId, StepResult};

/// The step a suspended call is poised on — the "error" every access past
/// the log unwinds the re-run with.
#[derive(Debug)]
pub(crate) struct Poised(BaseOp);

/// The result of running (part of) a call: its value, or where it stopped.
pub(crate) type Run<T> = Result<T, Poised>;

/// A simulated algorithm's per-process code and local state.
pub(crate) trait Model: Clone + Debug + 'static {
    /// Execute `call` to its response.  Must be a deterministic function of
    /// `self`, `call` and the values `m` returns: it runs once per step of
    /// the call, each time on a fresh clone of the idle process's state.
    ///
    /// # Panics
    ///
    /// Implementations panic if the object type does not support `call`.
    fn call(&mut self, call: MethodCall, m: &mut Mem<'_>) -> Run<MethodResponse>;
}

/// Shared memory as a running call sees it: the logged steps answer from the
/// log, the first one past it suspends the call.
#[derive(Debug)]
pub(crate) struct Mem<'a> {
    log: &'a mut Vec<(BaseOp, StepResult)>,
    /// Log entries consumed so far by this run.
    pub(crate) at: usize,
}

impl<'a> Mem<'a> {
    pub(crate) fn new(log: &'a mut Vec<(BaseOp, StepResult)>) -> Self {
        Mem { log, at: 0 }
    }

    fn step(&mut self, op: BaseOp) -> Run<StepResult> {
        let Some(&(logged, result)) = self.log.get(self.at) else {
            return Err(Poised(op));
        };
        debug_assert_eq!(logged, op, "the re-run diverged from the logged call");
        self.at += 1;
        Ok(result)
    }

    /// `Read()` on object `obj`.
    pub(crate) fn read(&mut self, obj: ObjId) -> Run<u64> {
        Ok(self.step(BaseOp::Read(obj))?.value())
    }

    /// `Write(value)` on object `obj`.
    pub(crate) fn write(&mut self, obj: ObjId, value: u64) -> Run<()> {
        self.step(BaseOp::Write(obj, value)).map(drop)
    }

    /// `CAS(expected, new)` on object `obj`; whether it installed `new`.
    pub(crate) fn cas(&mut self, obj: ObjId, expected: u64, new: u64) -> Run<bool> {
        Ok(self.step(BaseOp::Cas(obj, expected, new))?.cas_succeeded())
    }

    /// Run `attempt` until it yields a value (`None` = try again), dropping
    /// each finished attempt's steps from the log, so that a call spinning
    /// through any number of failed attempts re-runs only the current one.
    ///
    /// Dropping is sound because a failed attempt leaves nothing behind but
    /// its log entries: the bound is `Fn`, so the closure cannot assign to
    /// the model or to a captured local, and whatever it computed is gone
    /// with its `None`.  A loop whose failed iteration does leave a trace
    /// (an observed epoch, an allocated node) must stay a plain `loop`.
    pub(crate) fn retry<T>(&mut self, attempt: impl Fn(&mut Self) -> Run<Option<T>>) -> Run<T> {
        loop {
            let start = self.at;
            if let Some(value) = attempt(self)? {
                return Ok(value);
            }
            self.forget(start);
        }
    }

    /// Drop from the log every step this run consumed after its first
    /// `start`, as [`Mem::retry`] drops a failed attempt's.
    pub(crate) fn forget(&mut self, start: usize) {
        self.log.drain(start..self.at);
        self.at = start;
    }
}

/// The simulator's half of `aba_core::mem`: the paper's own constructions
/// are written once, in `aba-core`, against that trait, and run here with
/// `X` as object 0 and `A[q]` as object `1 + q` — the layout their
/// `SimAlgorithm::initial_objects` build.
impl mem::Mem for Mem<'_> {
    type Stop = Poised;

    fn read(&mut self, obj: Obj) -> Run<u64> {
        Mem::read(self, obj_id(obj))
    }

    fn write(&mut self, obj: Obj, value: u64) -> Run<()> {
        Mem::write(self, obj_id(obj), value)
    }

    fn cas(&mut self, obj: Obj, expected: u64, new: u64) -> Run<bool> {
        Mem::cas(self, obj_id(obj), expected, new)
    }
}

fn obj_id(obj: Obj) -> ObjId {
    match obj {
        Obj::X => 0,
        Obj::A(q) => 1 + q,
    }
}

/// The [`Model`] of an LL/SC/VL construction's shared code.
#[derive(Debug, Clone)]
pub(crate) struct LlSc<C>(pub(crate) C);

impl<C: LlScCode + Clone + Debug + 'static> Model for LlSc<C> {
    fn call(&mut self, call: MethodCall, m: &mut Mem<'_>) -> Run<MethodResponse> {
        match call {
            MethodCall::Ll => self.0.ll(m).map(MethodResponse::LlResult),
            MethodCall::Sc(x) => self.0.sc(x, m).map(MethodResponse::ScResult),
            MethodCall::Vl => self.0.vl(m).map(MethodResponse::VlResult),
            other => panic!("an LL/SC/VL object does not support {other:?}"),
        }
    }
}

/// The [`Model`] of an ABA-detecting register construction's shared code.
#[derive(Debug, Clone)]
pub(crate) struct Register<C>(pub(crate) C);

impl<C: RegisterCode + Clone + Debug + 'static> Model for Register<C> {
    fn call(&mut self, call: MethodCall, m: &mut Mem<'_>) -> Run<MethodResponse> {
        match call {
            MethodCall::DWrite(x) => self.0.dwrite(x, m).map(|()| MethodResponse::WriteDone),
            MethodCall::DRead => self
                .0
                .dread(m)
                .map(|(value, flag)| MethodResponse::ReadResult(value, flag)),
            other => panic!("an ABA-detecting register does not support {other:?}"),
        }
    }
}

/// A process executing a [`Model`]'s calls one shared-memory step at a time.
#[derive(Debug, Clone)]
pub(crate) struct Replay<P> {
    /// Local state as of the last completed call.
    idle: P,
    /// The call in progress and the step it is poised on.
    pending: Option<(MethodCall, BaseOp)>,
    /// The steps the call in progress has executed, with their results.
    log: Vec<(BaseOp, StepResult)>,
}

impl<P: Model> Replay<P> {
    pub(crate) fn new(model: P) -> Self {
        Replay {
            idle: model,
            pending: None,
            log: Vec::new(),
        }
    }

    /// Re-run `call` over the log: commit and respond if it now returns,
    /// otherwise poise on the access that ran past the log.
    fn run(&mut self, call: MethodCall) -> Option<MethodResponse> {
        let mut scratch = self.idle.clone();
        match scratch.call(call, &mut Mem::new(&mut self.log)) {
            Ok(response) => {
                self.idle = scratch;
                self.pending = None;
                self.log.clear();
                Some(response)
            }
            Err(Poised(op)) => {
                self.pending = Some((call, op));
                None
            }
        }
    }
}

impl<P: Model> SimProcess for Replay<P> {
    fn invoke(&mut self, call: MethodCall) -> Option<MethodResponse> {
        assert!(self.is_idle(), "method already in progress");
        self.run(call)
    }

    fn poised(&self) -> BaseOp {
        self.pending.expect("no method in progress").1
    }

    fn apply(&mut self, result: StepResult) -> Option<MethodResponse> {
        let (call, op) = self.pending.expect("no method in progress");
        self.log.push((op, result));
        self.run(call)
    }

    fn is_idle(&self) -> bool {
        self.pending.is_none()
    }

    fn clone_box(&self) -> Box<dyn SimProcess> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
impl<P: Model> Replay<P> {
    /// The committed local state — what a suspended call must not have
    /// touched.
    pub(crate) fn idle(&self) -> &P {
        &self.idle
    }

    /// The steps the call in progress has logged.
    pub(crate) fn logged(&self) -> usize {
        self.log.len()
    }

    /// Execute the poised step against `mem` and feed its result back.
    pub(crate) fn step(&mut self, mem: &mut crate::object::SharedMemory) -> Option<MethodResponse> {
        let result = mem.apply(self.poised());
        self.apply(result)
    }
}

/// Run `f` on `state` to its end against `mem`, one step at a time as
/// [`Replay`] would (re-running it on a clone per step and committing at the
/// end), as a lone process — except that `before(op, mem)` runs ahead of
/// every step, which is where a test lets an adversary in.  Returns `f`'s
/// value and the steps it executed.
pub(crate) fn drive<S: Clone, T>(
    state: &mut S,
    mem: &mut crate::object::SharedMemory,
    f: impl Fn(&mut S, &mut Mem<'_>) -> Run<T>,
    mut before: impl FnMut(BaseOp, &mut crate::object::SharedMemory),
) -> (T, Vec<BaseOp>) {
    let (mut log, mut ops) = (Vec::new(), Vec::new());
    loop {
        let mut scratch = state.clone();
        match f(&mut scratch, &mut Mem::new(&mut log)) {
            Ok(value) => {
                *state = scratch;
                return (value, ops);
            }
            Err(Poised(op)) => {
                before(op, mem);
                ops.push(op);
                log.push((op, mem.apply(op)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{BaseObject, SharedMemory};

    const X: ObjId = 0;

    /// `VL` answers locally; `LL` reads `X` twice and returns how many `LL`s
    /// this process has completed, counting the call *before* its first
    /// step; `SC(x)` spins on a CAS that can never succeed.
    #[derive(Debug, Clone)]
    struct Toy {
        lls: u32,
    }

    impl Model for Toy {
        fn call(&mut self, call: MethodCall, m: &mut Mem<'_>) -> Run<MethodResponse> {
            match call {
                MethodCall::Vl => Ok(MethodResponse::VlResult(true)),
                MethodCall::Ll => {
                    self.lls += 1;
                    m.read(X)?;
                    m.read(X)?;
                    Ok(MethodResponse::LlResult(self.lls))
                }
                MethodCall::Sc(x) => {
                    // retry-bound: none — the test wants the endless spin.
                    m.retry(|m| {
                        let seen = m.read(X)?;
                        let swapped = m.cas(X, seen + 1, u64::from(x))?;
                        Ok(swapped.then_some(MethodResponse::ScResult(true)))
                    })
                }
                other => panic!("toy model given {other:?}"),
            }
        }
    }

    #[test]
    fn a_call_without_a_shared_step_answers_from_invoke() {
        let mut p = Replay::new(Toy { lls: 0 });
        assert_eq!(
            p.invoke(MethodCall::Vl),
            Some(MethodResponse::VlResult(true))
        );
        assert!(p.is_idle());
        assert!(p.log.is_empty());
    }

    #[test]
    fn a_suspended_calls_mutations_are_invisible_until_it_returns() {
        let mut mem = SharedMemory::new(vec![BaseObject::register(7)]);
        let mut p = Replay::new(Toy { lls: 0 });
        for done in 1..=3 {
            assert_eq!(p.invoke(MethodCall::Ll), None);
            assert_eq!(p.idle().lls, done - 1, "invoke ran the increment");
            assert_eq!(p.step(&mut mem), None);
            assert_eq!(p.idle().lls, done - 1, "so did the first re-run");
            // Three runs of the body, one committed increment.
            assert_eq!(p.step(&mut mem), Some(MethodResponse::LlResult(done)));
            assert_eq!(p.idle().lls, done);
            assert!(p.is_idle() && p.log.is_empty());
        }
    }

    #[test]
    fn a_process_cloned_mid_call_continues_like_its_original() {
        let mut mem = SharedMemory::new(vec![BaseObject::register(7)]);
        let mut p = Replay::new(Toy { lls: 4 });
        assert_eq!(p.invoke(MethodCall::Ll), None);
        assert_eq!(p.step(&mut mem), None);
        let mut twin = p.clone_box();
        assert_eq!(twin.poised(), p.poised());
        let result = mem.apply(p.poised());
        assert_eq!(twin.apply(result), p.apply(result));
        assert_eq!(twin.invoke(MethodCall::Ll), None);
        assert_eq!(twin.poised(), BaseOp::Read(X));
    }

    #[test]
    fn a_call_spinning_through_retry_keeps_one_attempt_in_its_log() {
        let mut mem = SharedMemory::new(vec![BaseObject::cas(7)]);
        let mut p = Replay::new(Toy { lls: 0 });
        assert_eq!(p.invoke(MethodCall::Sc(1)), None);
        for k in 0..10_000 {
            let expected = match k % 2 {
                0 => BaseOp::Read(X),
                _ => BaseOp::Cas(X, 8, 1),
            };
            assert_eq!(p.poised(), expected, "step {k}");
            assert_eq!(p.step(&mut mem), None);
            assert!(p.log.len() <= 1, "step {k}: {} entries", p.log.len());
        }
    }

    #[test]
    #[should_panic(expected = "method already in progress")]
    fn invoking_a_busy_process_panics() {
        let mut p = Replay::new(Toy { lls: 0 });
        p.invoke(MethodCall::Ll);
        p.invoke(MethodCall::Vl);
    }
}
