//! Baseline and deliberately-broken register implementations for the
//! simulator.
//!
//! * [`TaggedSim`] — the paper's trivial construction from a single
//!   *unbounded* register carrying a tag that changes on every write.  It is
//!   correct (the lower bounds do not apply to unbounded objects) and serves
//!   as the unbounded reference point in the experiments.
//! * [`NaiveSim`] — a single *bounded* register holding only the value, with
//!   the reader comparing against the last value it saw.  This is what a
//!   programmer gets without any ABA machinery: it misses every
//!   same-value ABA, and the violation search of `aba_bench::lowerbound`
//!   finds a witness against it almost immediately.  Its existence makes the
//!   contrast with Figure 4 concrete: with a single bounded register the
//!   task is impossible (Theorem 1 (a) requires at least `n-1`).

use aba_core::pack::TagWord;
use aba_spec::{ProcessId, Word, INITIAL_WORD};

use super::replay::{Mem, Model, Replay, Run};
use crate::algorithm::{MethodCall, MethodResponse, SimAlgorithm, SimProcess};
use crate::object::BaseObject;

const X: usize = 0;

/// Trivial ABA-detecting register from one unbounded tagged register.
#[derive(Debug, Clone)]
pub struct TaggedSim {
    n: usize,
}

impl TaggedSim {
    /// An instance for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        TaggedSim { n }
    }
}

impl SimAlgorithm for TaggedSim {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        "Tagged (1 unbounded register)"
    }

    fn initial_objects(&self) -> Vec<BaseObject> {
        vec![BaseObject::register(TagWord::initial(INITIAL_WORD).pack())]
    }

    fn spawn(&self, pid: ProcessId) -> Box<dyn SimProcess> {
        assert!(pid < self.n, "pid {pid} out of range");
        Box::new(Replay::new(TaggedProcess {
            n: self.n,
            pid,
            writes: 0,
            last_tag: 0,
        }))
    }
}

#[derive(Debug, Clone)]
struct TaggedProcess {
    n: usize,
    pid: ProcessId,
    /// Local write counter; the published tag `writes * n + pid + 1` is
    /// unique across all processes and never repeats (unbounded).
    writes: u64,
    last_tag: u32,
}

impl Model for TaggedProcess {
    fn call(&mut self, call: MethodCall, m: &mut Mem<'_>) -> Run<MethodResponse> {
        match call {
            MethodCall::DWrite(value) => {
                let tag = (self.writes * self.n as u64 + self.pid as u64 + 1) as u32;
                m.write(X, TagWord { value, tag }.pack())?;
                self.writes += 1;
                Ok(MethodResponse::WriteDone)
            }
            MethodCall::DRead => {
                let w = TagWord::unpack(m.read(X)?);
                let changed = w.tag != self.last_tag;
                self.last_tag = w.tag;
                Ok(MethodResponse::ReadResult(w.value, changed))
            }
            other => panic!("tagged register does not support {other:?}"),
        }
    }
}

/// A single bounded register with value-comparison "detection" — the broken
/// strawman that misses same-value ABAs.
#[derive(Debug, Clone)]
pub struct NaiveSim {
    n: usize,
}

impl NaiveSim {
    /// An instance for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        NaiveSim { n }
    }
}

impl SimAlgorithm for NaiveSim {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        "Naive (1 bounded register, value comparison)"
    }

    fn initial_objects(&self) -> Vec<BaseObject> {
        vec![BaseObject::register(INITIAL_WORD as u64)]
    }

    fn spawn(&self, pid: ProcessId) -> Box<dyn SimProcess> {
        assert!(pid < self.n, "pid {pid} out of range");
        Box::new(Replay::new(NaiveProcess {
            last_value: INITIAL_WORD,
        }))
    }
}

#[derive(Debug, Clone)]
struct NaiveProcess {
    last_value: Word,
}

impl Model for NaiveProcess {
    fn call(&mut self, call: MethodCall, m: &mut Mem<'_>) -> Run<MethodResponse> {
        match call {
            MethodCall::DWrite(value) => {
                m.write(X, value as u64)?;
                Ok(MethodResponse::WriteDone)
            }
            MethodCall::DRead => {
                let v = m.read(X)? as Word;
                let changed = v != self.last_value;
                self.last_value = v;
                Ok(MethodResponse::ReadResult(v, changed))
            }
            other => panic!("naive register does not support {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Simulation;

    #[test]
    fn tagged_detects_same_value_rewrite() {
        let algo = TaggedSim::new(2);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::DWrite(5));
        sim.run_process_to_completion(0);
        sim.enqueue(1, MethodCall::DRead);
        sim.run_process_to_completion(1);
        sim.enqueue(0, MethodCall::DWrite(5));
        sim.run_process_to_completion(0);
        sim.enqueue(1, MethodCall::DRead);
        sim.run_process_to_completion(1);
        let ops = sim.history().ops().to_vec();
        assert_eq!(
            ops[1].kind,
            aba_spec::OpKind::DRead {
                value: 5,
                flag: true
            }
        );
        assert_eq!(
            ops[3].kind,
            aba_spec::OpKind::DRead {
                value: 5,
                flag: true
            }
        );
    }

    #[test]
    fn naive_misses_same_value_rewrite() {
        let algo = NaiveSim::new(2);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::DWrite(5));
        sim.run_process_to_completion(0);
        sim.enqueue(1, MethodCall::DRead);
        sim.run_process_to_completion(1);
        sim.enqueue(0, MethodCall::DWrite(5));
        sim.run_process_to_completion(0);
        sim.enqueue(1, MethodCall::DRead);
        sim.run_process_to_completion(1);
        let ops = sim.history().ops().to_vec();
        // The second read misses the write: that is the point of this strawman.
        assert_eq!(
            ops[3].kind,
            aba_spec::OpKind::DRead {
                value: 5,
                flag: false
            }
        );
        // And the weak-condition checker flags it as a definite violation.
        let violations = aba_spec::weak::check_weak_history(sim.history());
        assert!(!violations.is_empty());
    }

    #[test]
    fn tagged_uses_one_object_and_naive_uses_one_object() {
        assert_eq!(TaggedSim::new(3).initial_objects().len(), 1);
        assert_eq!(NaiveSim::new(3).initial_objects().len(), 1);
    }
}
