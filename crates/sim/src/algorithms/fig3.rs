//! Figure 3 for the simulator, line for line.
//!
//! Used by experiment E2 to measure the *worst-case* step complexity of `LL`
//! and `SC` under adversarial interleavings (which is hard to provoke
//! reliably on hardware but easy with a controlled scheduler) and by the
//! linearizability smoke tests of the simulator itself.

use aba_core::pack::MaskWord;
use aba_spec::{ProcessId, Word, INITIAL_WORD};

use super::replay::{Mem, Model, Replay, Run};
use crate::algorithm::{MethodCall, MethodResponse, SimAlgorithm, SimProcess};
use crate::object::BaseObject;

const X: usize = 0;

/// Figure 3 (LL/SC/VL from a single bounded CAS) for the simulator.
#[derive(Debug, Clone)]
pub struct Fig3Sim {
    n: usize,
}

impl Fig3Sim {
    /// An instance for `n` processes (`1..=32`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `1..=32`.
    pub fn new(n: usize) -> Self {
        assert!((1..=32).contains(&n), "Figure 3 supports 1..=32 processes");
        Fig3Sim { n }
    }
}

impl SimAlgorithm for Fig3Sim {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        "Figure 3 (1 CAS, O(n) steps)"
    }

    fn initial_objects(&self) -> Vec<BaseObject> {
        vec![BaseObject::cas(MaskWord::initial(INITIAL_WORD).pack())]
    }

    fn spawn(&self, pid: ProcessId) -> Box<dyn SimProcess> {
        assert!(pid < self.n, "pid {pid} out of range");
        Box::new(Replay::new(Fig3Process {
            n: self.n,
            pid,
            b: false,
        }))
    }
}

#[derive(Debug, Clone)]
struct Fig3Process {
    n: usize,
    pid: ProcessId,
    /// Local flag `b`: an `SC` linearized during this process's last `LL`
    /// after that `LL`'s linearization point.
    b: bool,
}

impl Model for Fig3Process {
    fn call(&mut self, call: MethodCall, m: &mut Mem<'_>) -> Run<MethodResponse> {
        match call {
            MethodCall::Ll => self.ll(m).map(MethodResponse::LlResult),
            MethodCall::Sc(x) => self.sc(x, m).map(MethodResponse::ScResult),
            MethodCall::Vl => self.vl(m).map(MethodResponse::VlResult),
            other => panic!("Figure 3 LL/SC object does not support {other:?}"),
        }
    }
}

impl Fig3Process {
    /// `SC(x)` — lines 1–8.
    fn sc(&mut self, x: Word, m: &mut Mem<'_>) -> Run<bool> {
        // Line 1 (no shared step).
        if self.b {
            return Ok(false);
        }
        // Line 2.
        for _ in 0..self.n {
            // Line 3.
            let cur = MaskWord::unpack(m.read(X)?);
            // Lines 4–5.
            if cur.bit(self.pid) {
                return Ok(false);
            }
            // Line 6.
            let all_set = MaskWord {
                value: x,
                mask: MaskWord::full_mask(self.n),
            };
            if m.cas(X, cur.pack(), all_set.pack())? {
                // Line 7.
                return Ok(true);
            }
        }
        // Line 8.
        Ok(false)
    }

    /// `VL()` — lines 9–13.
    fn vl(&self, m: &mut Mem<'_>) -> Run<bool> {
        let cur = MaskWord::unpack(m.read(X)?);
        Ok(!cur.bit(self.pid) && !self.b)
    }

    /// `LL()` — lines 14–25.
    fn ll(&mut self, m: &mut Mem<'_>) -> Run<Word> {
        // Line 14.
        let first = MaskWord::unpack(m.read(X)?);
        // Lines 15–17.
        if !first.bit(self.pid) {
            self.b = false;
            return Ok(first.value);
        }
        // Line 19.
        for _ in 0..self.n {
            // Line 20.
            let cur = MaskWord::unpack(m.read(X)?);
            // Line 21.
            if m.cas(X, cur.pack(), cur.with_bit_cleared(self.pid).pack())? {
                // Lines 22–23.
                self.b = false;
                return Ok(cur.value);
            }
        }
        // Lines 24–25.
        self.b = true;
        Ok(first.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Simulation;

    #[test]
    fn sequential_ll_sc_cycle() {
        let algo = Fig3Sim::new(2);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::Ll);
        sim.run_process_to_completion(0);
        sim.enqueue(0, MethodCall::Sc(5));
        sim.run_process_to_completion(0);
        sim.enqueue(1, MethodCall::Ll);
        sim.run_process_to_completion(1);
        let ops = sim.history().ops().to_vec();
        assert_eq!(ops[0].kind, aba_spec::OpKind::Ll { value: 0 });
        assert_eq!(
            ops[1].kind,
            aba_spec::OpKind::Sc {
                value: 5,
                success: true
            }
        );
        assert_eq!(ops[2].kind, aba_spec::OpKind::Ll { value: 5 });
    }

    #[test]
    fn sc_with_local_flag_takes_zero_steps() {
        // Line 1: a process whose last LL exhausted its n CAS attempts
        // answers the SC from its flag, without a shared step.
        let mut p = Replay::new(Fig3Process {
            n: 2,
            pid: 0,
            b: true,
        });
        assert_eq!(
            p.invoke(MethodCall::Sc(5)),
            Some(MethodResponse::ScResult(false))
        );
        assert!(p.is_idle());
        // VL does read X.
        assert!(p.invoke(MethodCall::Vl).is_none());
    }

    #[test]
    fn interference_under_a_controlled_schedule() {
        // p0 reads X during LL (bit clear -> returns immediately); then p1
        // performs LL+SC; p0's subsequent SC must fail.
        let algo = Fig3Sim::new(2);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::Ll);
        sim.run_process_to_completion(0);
        sim.enqueue(1, MethodCall::Ll);
        sim.run_process_to_completion(1);
        sim.enqueue(1, MethodCall::Sc(9));
        sim.run_process_to_completion(1);
        sim.enqueue(0, MethodCall::Sc(3));
        sim.run_process_to_completion(0);
        let ops = sim.history().ops().to_vec();
        assert_eq!(
            ops[2].kind,
            aba_spec::OpKind::Sc {
                value: 9,
                success: true
            }
        );
        assert_eq!(
            ops[3].kind,
            aba_spec::OpKind::Sc {
                value: 3,
                success: false
            }
        );
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn register_calls_are_rejected() {
        let algo = Fig3Sim::new(2);
        let mut p = algo.spawn(1);
        p.invoke(MethodCall::DRead);
    }
}
