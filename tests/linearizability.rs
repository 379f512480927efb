//! Experiment E8: randomized concurrent histories of every hardware
//! implementation pass the linearizability checker.
//!
//! Each test spawns a handful of threads against one implementation, records
//! a short history with the global-clock recorder, and runs the Wing–Gong
//! search from `aba-spec`.  Window sizes are kept small so the exhaustive
//! check stays fast while still covering real interleavings.

use std::sync::Arc;

use aba_repro::spec::{check_history, OpKind, Recorder, Spec};
use aba_repro::{stacks, AbaRegisterObject, LlScObject};

const THREADS: usize = 3;
const OPS_PER_THREAD: usize = 6;
const ROUNDS: usize = 30;

fn record_register_round(reg: &dyn AbaRegisterObject, seed: usize) -> aba_repro::spec::History {
    let recorder = Recorder::new();
    // Handles are created before any operation runs: Figure 5's handles prime
    // their link against the *initial* value (the paper's w.l.o.g. assumption
    // that the history starts with one LL per process).
    let handles: Vec<_> = (0..THREADS).map(|pid| reg.handle(pid)).collect();
    std::thread::scope(|s| {
        for (pid, mut h) in handles.into_iter().enumerate() {
            let recorder = Arc::clone(&recorder);
            s.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    if (pid + seed).is_multiple_of(2) {
                        let value = ((i + seed) % 3) as u32;
                        let inv = recorder.invoke();
                        h.dwrite(value);
                        recorder.complete(pid, OpKind::DWrite { value }, inv);
                    } else {
                        let inv = recorder.invoke();
                        let (value, flag) = h.dread();
                        recorder.complete(pid, OpKind::DRead { value, flag }, inv);
                    }
                }
            });
        }
    });
    recorder.into_history()
}

fn record_llsc_round(obj: &dyn LlScObject, seed: usize) -> aba_repro::spec::History {
    let recorder = Recorder::new();
    let handles: Vec<_> = (0..THREADS).map(|pid| obj.handle(pid)).collect();
    std::thread::scope(|s| {
        for (pid, mut h) in handles.into_iter().enumerate() {
            let recorder = Arc::clone(&recorder);
            s.spawn(move || {
                // Every process starts with one LL, aligning Figure 3's
                // initial-link convention with the sequential specification.
                let inv = recorder.invoke();
                let value = h.ll();
                recorder.complete(pid, OpKind::Ll { value }, inv);
                for i in 0..OPS_PER_THREAD {
                    match (i + pid + seed) % 3 {
                        0 => {
                            let inv = recorder.invoke();
                            let value = h.ll();
                            recorder.complete(pid, OpKind::Ll { value }, inv);
                        }
                        1 => {
                            let value = (i % 5) as u32 + 1;
                            let inv = recorder.invoke();
                            let success = h.sc(value);
                            recorder.complete(pid, OpKind::Sc { value, success }, inv);
                        }
                        _ => {
                            let inv = recorder.invoke();
                            let valid = h.vl();
                            recorder.complete(pid, OpKind::Vl { valid }, inv);
                        }
                    }
                }
            });
        }
    });
    recorder.into_history()
}

fn assert_register_linearizable(make: impl Fn() -> Box<dyn AbaRegisterObject>) {
    for round in 0..ROUNDS {
        // A fresh object per round: the checker replays against a freshly
        // initialised sequential specification.
        let reg = make();
        let history = record_register_round(reg.as_ref(), round);
        assert!(history.is_well_formed());
        let outcome = check_history(
            &history,
            Spec::AbaRegister {
                n: reg.processes(),
                initial: 0,
            },
        );
        assert!(
            outcome.is_linearizable(),
            "{} produced a non-linearizable history in round {round}: {:?}",
            reg.name(),
            history
        );
    }
}

fn assert_llsc_linearizable(make: impl Fn() -> Box<dyn LlScObject>) {
    for round in 0..ROUNDS {
        let obj = make();
        let history = record_llsc_round(obj.as_ref(), round);
        assert!(history.is_well_formed());
        let outcome = check_history(
            &history,
            Spec::LlSc {
                n: obj.processes(),
                initial: 0,
            },
        );
        assert!(
            outcome.is_linearizable(),
            "{} produced a non-linearizable history in round {round}: {:?}",
            obj.name(),
            history
        );
    }
}

#[test]
fn figure4_register_is_linearizable_under_concurrency() {
    assert_register_linearizable(|| Box::new(aba_repro::BoundedAbaRegister::new(THREADS)));
}

#[test]
fn tagged_register_is_linearizable_under_concurrency() {
    assert_register_linearizable(|| Box::new(aba_repro::TaggedAbaRegister::new(THREADS)));
}

#[test]
fn figure5_over_figure3_is_linearizable_under_concurrency() {
    assert_register_linearizable(|| Box::new(stacks::over_cas(THREADS)));
}

#[test]
fn figure5_over_announce_is_linearizable_under_concurrency() {
    assert_register_linearizable(|| Box::new(stacks::over_announce(THREADS)));
}

#[test]
fn figure5_over_moir_is_linearizable_under_concurrency() {
    assert_register_linearizable(|| Box::new(stacks::over_moir(THREADS)));
}

#[test]
fn figure3_llsc_is_linearizable_under_concurrency() {
    assert_llsc_linearizable(|| Box::new(aba_repro::CasLlSc::new(THREADS)));
}

#[test]
fn moir_llsc_is_linearizable_under_concurrency() {
    assert_llsc_linearizable(|| Box::new(aba_repro::MoirLlSc::new(THREADS)));
}

#[test]
fn announce_llsc_is_linearizable_under_concurrency() {
    assert_llsc_linearizable(|| Box::new(aba_repro::AnnounceLlSc::new(THREADS)));
}
