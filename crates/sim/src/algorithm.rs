//! Algorithms as processes an adversary schedules one base-object step at a
//! time.
//!
//! The paper's model lets an adversarial scheduler decide, step by step,
//! which process executes its next *shared-memory* operation.  To reproduce
//! that precisely (including the covering arguments of Lemma 1 and the
//! adversarial step-complexity measurements), a simulated process exposes
//! the step it is *poised* to execute ([`SimProcess::poised`]) and consumes
//! its result ([`SimProcess::apply`]) — exactly the vocabulary used in the
//! paper's proofs.  The crate's own models do not implement this trait by
//! hand: each is a sequential function over memory accesses, and one
//! adapter (`algorithms/replay.rs`) derives `poised`/`apply` from it.  The
//! trait stays public for machines written directly against it — the
//! footprint auditor's deliberately lying ones are.

use aba_spec::{ProcessId, Word};

use crate::object::{BaseObject, BaseOp, StepResult};

/// A high-level method call a process may execute on the implemented object.
///
/// In the lower-bound experiments process 0 repeatedly calls the write-side
/// methods while all other processes repeatedly call the read-side methods,
/// matching the paper's `WeakWrite`/`WeakRead` setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodCall {
    /// `DWrite(x)` on an ABA-detecting register.
    DWrite(Word),
    /// `DRead()` on an ABA-detecting register.
    DRead,
    /// `LL()` on an LL/SC/VL object.
    Ll,
    /// `SC(x)` on an LL/SC/VL object.
    Sc(Word),
    /// `VL()` on an LL/SC/VL object.
    Vl,
    /// `Push(x)` on a simulated LIFO stack.
    Push(Word),
    /// `Pop()` on a simulated LIFO stack.
    Pop,
    /// `Enqueue(x)` on a simulated FIFO queue.
    Enqueue(Word),
    /// `Dequeue()` on a simulated FIFO queue.
    Dequeue,
    /// `Insert(k)` on a simulated ordered set.
    Insert(Word),
    /// `Remove(k)` on a simulated ordered set.
    Remove(Word),
    /// `Contains(k)` on a simulated ordered set.
    Contains(Word),
}

/// The response of a completed method call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodResponse {
    /// `DWrite` completed.
    WriteDone,
    /// `DRead` returned `(value, flag)`.
    ReadResult(Word, bool),
    /// `LL` returned the value.
    LlResult(Word),
    /// `SC` returned its success flag.
    ScResult(bool),
    /// `VL` returned its validity flag.
    VlResult(bool),
    /// `Push` returned whether a node was linked (`false` = arena full).
    PushResult(bool),
    /// `Pop` returned the newest value, if any.
    PopResult(Option<Word>),
    /// `Enqueue` returned whether a node was linked (`false` = arena full).
    EnqueueResult(bool),
    /// `Dequeue` returned the oldest value, if any.
    DequeueResult(Option<Word>),
    /// `Insert` returned whether the key was linked (`false` = already
    /// present or arena full).
    InsertResult(bool),
    /// `Remove` returned whether the key was found and unlinked.
    RemoveResult(bool),
    /// `Contains` returned its membership answer.
    ContainsResult(bool),
}

/// An algorithm (implementation of an ABA-detecting register or LL/SC/VL
/// object) that can be simulated.
pub trait SimAlgorithm {
    /// Number of processes the algorithm is instantiated for.
    fn n(&self) -> usize;

    /// Human-readable name for experiment output.
    fn name(&self) -> &'static str;

    /// The initial shared base objects.
    fn initial_objects(&self) -> Vec<BaseObject>;

    /// Create the state machine for process `pid`.
    fn spawn(&self, pid: ProcessId) -> Box<dyn SimProcess>;
}

/// The per-process state machine of a simulated algorithm.
pub trait SimProcess: std::fmt::Debug {
    /// Begin a method call.  If the method completes without any shared
    /// memory step (e.g. Figure 3's `SC` returning `False` in line 1 because
    /// the local flag `b` is set), the response is returned immediately.
    ///
    /// # Panics
    ///
    /// Implementations panic if a method call is already in progress or the
    /// call kind is not supported by the object type.
    fn invoke(&mut self, call: MethodCall) -> Option<MethodResponse>;

    /// The shared-memory step the process is poised to execute.
    ///
    /// # Panics
    ///
    /// Implementations panic if no method call is in progress.
    fn poised(&self) -> BaseOp;

    /// Feed the result of executing the poised step; returns the method
    /// response if the call completed with this step.
    fn apply(&mut self, result: StepResult) -> Option<MethodResponse>;

    /// `true` iff no method call is in progress.
    fn is_idle(&self) -> bool;

    /// Clone the process state (used by exhaustive exploration to branch).
    fn clone_box(&self) -> Box<dyn SimProcess>;

    /// The first shared-memory step this idle process would execute for
    /// `call`, or `None` if the call would complete without touching shared
    /// memory.
    ///
    /// The exhaustive explorer uses this to predict the memory footprint of
    /// a queued, not-yet-invoked method call (its sleep-set filtering must
    /// know what an idle-but-scheduled process is about to touch).  The
    /// answer comes from the *live* process — a clone of it invokes the call
    /// — because the first step may depend on local state earlier calls left
    /// behind (Figure 4's `GetSeq` cursor picks the announce slot a `DWrite`
    /// reads first).  A prediction is allowed to over-approximate but must
    /// never name a different object than the process then touches.
    fn first_step(&self, call: MethodCall) -> Option<BaseOp> {
        let mut scratch = self.clone_box();
        match scratch.invoke(call) {
            Some(_) => None,
            None => Some(scratch.poised()),
        }
    }
}

impl Clone for Box<dyn SimProcess> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_call_and_response_are_value_types() {
        let c = MethodCall::DWrite(3);
        assert_eq!(c, MethodCall::DWrite(3));
        assert_ne!(c, MethodCall::DWrite(4));
        let r = MethodResponse::ReadResult(3, true);
        assert_eq!(r, MethodResponse::ReadResult(3, true));
    }
}
