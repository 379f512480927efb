//! Linearizability checking (Wing–Gong style exhaustive search).
//!
//! Theorems 2–4 of the paper claim *linearizable* implementations.  To test
//! the hardware implementations we record concurrent histories (see
//! [`crate::history`]) and search for a linearization: a total order of the
//! operations that (a) extends the happens-before order and (b) is accepted by
//! the sequential specification ([`crate::sequential`]).
//!
//! The search is exponential in the worst case; it is intended for the short
//! histories produced by the stress tests (tens of operations per window).
//! Concurrent histories longer than 128 operations are rejected with
//! [`LinCheckOutcome::TooLarge`] rather than silently truncated.  A totally
//! ordered history (every operation responds before the next is invoked) has
//! one candidate linearization, its own order, and is decided at any length
//! by replaying it through the specification.

use std::collections::HashSet;
use std::hash::Hash;

use crate::history::{History, OpKind};
use crate::sequential::{
    SeqAbaRegister, SeqFifoQueue, SeqLifoStack, SeqLlSc, SeqMap, SeqOrderedSet,
};
use crate::{ProcessId, Word};

/// Maximum length of a concurrent history the exhaustive checker accepts.
pub const MAX_CHECKED_OPS: usize = 128;

/// Result of a linearizability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinCheckOutcome {
    /// A valid linearization exists; the witness lists operation indices (into
    /// `History::ops()`) in linearization order.
    Linearizable {
        /// Indices into the history's operation list, in linearization order.
        witness: Vec<usize>,
    },
    /// No linearization exists: the history is not linearizable with respect
    /// to the sequential specification.
    NotLinearizable,
    /// The history is concurrent and exceeds [`MAX_CHECKED_OPS`] operations.
    TooLarge {
        /// Number of operations in the rejected history.
        len: usize,
    },
}

impl LinCheckOutcome {
    /// `true` iff the history was proven linearizable.
    pub fn is_linearizable(&self) -> bool {
        matches!(self, LinCheckOutcome::Linearizable { .. })
    }
}

/// A sequential specification usable by the generic checker.
trait CheckerSpec: Clone + Eq + Hash {
    /// Apply the operation for `pid` and report whether the recorded outcome
    /// (carried inside `kind`) is consistent with the specification.
    fn apply(&mut self, pid: ProcessId, kind: &OpKind) -> bool;
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct AbaSpecState(SeqAbaRegister);

impl CheckerSpec for AbaSpecState {
    fn apply(&mut self, pid: ProcessId, kind: &OpKind) -> bool {
        match *kind {
            OpKind::DWrite { value } => {
                self.0.dwrite(pid, value);
                true
            }
            OpKind::DRead { value, flag } => self.0.dread(pid) == (value, flag),
            _ => false,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct QueueSpecState(SeqFifoQueue);

impl CheckerSpec for QueueSpecState {
    fn apply(&mut self, _pid: ProcessId, kind: &OpKind) -> bool {
        match *kind {
            OpKind::Enqueue { value, ok } => {
                // A failed (arena-exhausted) enqueue never touched the
                // abstract queue: it linearizes anywhere as a no-op.
                if ok {
                    self.0.enqueue(value);
                }
                true
            }
            OpKind::Dequeue { value } => self.0.dequeue() == value,
            _ => false,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct StackSpecState(SeqLifoStack);

impl CheckerSpec for StackSpecState {
    fn apply(&mut self, _pid: ProcessId, kind: &OpKind) -> bool {
        match *kind {
            OpKind::Push { value, ok } => {
                // A failed (arena-exhausted) push never touched the
                // abstract stack: it linearizes anywhere as a no-op.
                if ok {
                    self.0.push(value);
                }
                true
            }
            OpKind::Pop { value } => self.0.pop() == value,
            _ => false,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SetSpecState(SeqOrderedSet);

impl CheckerSpec for SetSpecState {
    fn apply(&mut self, _pid: ProcessId, kind: &OpKind) -> bool {
        match *kind {
            OpKind::Insert { key, ok } => {
                if ok {
                    // A successful insert requires the key absent here.
                    self.0.insert(key)
                } else {
                    // A failed insert is a no-op on the abstract set and is
                    // always admissible: it covers both "already present"
                    // and "arena exhausted" (the checker cannot tell them
                    // apart, so it must not reject either).
                    true
                }
            }
            OpKind::Remove { key, ok } => self.0.remove(key) == ok,
            OpKind::Contains { key, found } => self.0.contains(key) == found,
            _ => false,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MapSpecState(SeqMap);

impl CheckerSpec for MapSpecState {
    fn apply(&mut self, _pid: ProcessId, kind: &OpKind) -> bool {
        match *kind {
            OpKind::MapInsert { key, value, ok } => {
                if ok {
                    // A successful insert requires the key unbound here.
                    self.0.insert(key, value)
                } else {
                    // A failed insert is a no-op on the abstract map and is
                    // always admissible: it covers both "key already bound"
                    // and "arena exhausted" (the checker cannot tell them
                    // apart, so it must not reject either).
                    true
                }
            }
            OpKind::MapRemove { key, ok } => self.0.remove(key) == ok,
            OpKind::MapGet { key, value } => self.0.get(key) == value,
            _ => false,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct LlScSpecState(SeqLlSc);

impl CheckerSpec for LlScSpecState {
    fn apply(&mut self, pid: ProcessId, kind: &OpKind) -> bool {
        match *kind {
            OpKind::Ll { value } => self.0.ll(pid) == value,
            OpKind::Sc { value, success } => self.0.sc(pid, value) == success,
            OpKind::Vl { valid } => self.0.vl(pid) == valid,
            _ => false,
        }
    }
}

/// The sequential specification a history is checked against — one variant
/// per object type, each documenting what a non-linearizable outcome means
/// for the structures that implement it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spec {
    /// `DWrite`/`DRead` on an ABA-detecting register created for `n`
    /// processes with initial value `initial`.  A non-linearizable outcome is
    /// a read whose flag misses a write (the missed ABA) or whose value no
    /// write order explains.
    AbaRegister {
        /// Number of processes the register was created for.
        n: usize,
        /// Its initial value.
        initial: Word,
    },
    /// `LL`/`SC`/`VL` on an LL/SC/VL object created for `n` processes with
    /// initial value `initial`.  A non-linearizable outcome is an `SC` or
    /// `VL` that succeeds across an intervening successful `SC`.
    LlSc {
        /// Number of processes the object was created for.
        n: usize,
        /// Its initial value.
        initial: Word,
    },
    /// `Enqueue`/`Dequeue` on a FIFO queue (initially empty).  A
    /// non-linearizable outcome is exactly what an ABA on the MS-queue's
    /// dequeue CAS produces: a value dequeued twice, a value skipped, or a
    /// spurious "empty" answer while a completed enqueue precedes the
    /// dequeue.
    Queue,
    /// `Push`/`Pop` on a LIFO stack (initially empty).  A non-linearizable
    /// outcome is exactly what an ABA on the Treiber stack's pop CAS
    /// produces: a value popped twice, a value lost, or a spurious "empty"
    /// answer while a completed push precedes the pop.  The
    /// elimination-backoff front end must also pass this check: an eliminated
    /// push/pop pair linearizes back-to-back (push immediately followed by
    /// the matching pop) at the moment of the exchange, which is admissible
    /// for a stack in any surrounding state.
    Stack,
    /// `Insert`/`Remove`/`Contains` on an ordered set (initially empty).  A
    /// non-linearizable outcome is exactly what an ABA on a Harris–Michael
    /// traversal produces: an inserted key that a later `Contains` cannot see
    /// (the lost splice), a key removed twice, or a remove that succeeds on a
    /// key no linearization order makes present.
    Set,
    /// `MapInsert`/`MapRemove`/`MapGet` on a no-overwrite map (initially
    /// empty).  A non-linearizable outcome is exactly what an ABA on a
    /// split-ordered hash map produces: a bound key a later `MapGet` cannot
    /// see (a splice lost to a recycled node), a key unbound twice, or a
    /// `MapGet` observing a value no linearization order ever bound to that
    /// key.
    Map,
}

impl Spec {
    /// `true` iff `kind` is an operation of this specification's object type.
    pub fn admits(&self, kind: &OpKind) -> bool {
        use OpKind::*;
        match self {
            Spec::AbaRegister { .. } => matches!(kind, DWrite { .. } | DRead { .. }),
            Spec::LlSc { .. } => matches!(kind, Ll { .. } | Sc { .. } | Vl { .. }),
            Spec::Queue => matches!(kind, Enqueue { .. } | Dequeue { .. }),
            Spec::Stack => matches!(kind, Push { .. } | Pop { .. }),
            Spec::Set => matches!(kind, Insert { .. } | Remove { .. } | Contains { .. }),
            Spec::Map => matches!(kind, MapInsert { .. } | MapRemove { .. } | MapGet { .. }),
        }
    }
}

/// Check `history` against the sequential specification `spec`.
///
/// # Panics
///
/// Panics if the history contains an operation `spec` does not
/// [admit](Spec::admits) (e.g. LL/SC operations under [`Spec::AbaRegister`]).
pub fn check_history(history: &History, spec: Spec) -> LinCheckOutcome {
    for op in history.ops() {
        assert!(
            spec.admits(&op.kind),
            "check_history({spec:?}) given a foreign operation: {}",
            op.kind
        );
    }
    match spec {
        Spec::AbaRegister { n, initial } => {
            check_generic(history, AbaSpecState(SeqAbaRegister::new(n, initial)))
        }
        Spec::LlSc { n, initial } => {
            check_generic(history, LlScSpecState(SeqLlSc::new(n, initial)))
        }
        Spec::Queue => check_generic(history, QueueSpecState(SeqFifoQueue::new())),
        Spec::Stack => check_generic(history, StackSpecState(SeqLifoStack::new())),
        Spec::Set => check_generic(history, SetSpecState(SeqOrderedSet::new())),
        Spec::Map => check_generic(history, MapSpecState(SeqMap::new())),
    }
}

fn check_generic<S: CheckerSpec>(history: &History, initial: S) -> LinCheckOutcome {
    let ops = history.ops();
    if ops.windows(2).all(|pair| pair[0].happens_before(&pair[1])) {
        let mut state = initial;
        return if ops.iter().all(|op| state.apply(op.pid, &op.kind)) {
            LinCheckOutcome::Linearizable {
                witness: (0..ops.len()).collect(),
            }
        } else {
            LinCheckOutcome::NotLinearizable
        };
    }
    if ops.len() > MAX_CHECKED_OPS {
        return LinCheckOutcome::TooLarge { len: ops.len() };
    }
    debug_assert!(history.is_well_formed(), "history must be well formed");

    let len = ops.len();
    let full: u128 = if len == 128 {
        u128::MAX
    } else {
        (1u128 << len) - 1
    };

    let mut visited: HashSet<(u128, S)> = HashSet::new();
    let mut witness: Vec<usize> = Vec::with_capacity(len);

    fn dfs<S: CheckerSpec>(
        ops: &[crate::history::OpRecord],
        done: u128,
        full: u128,
        state: &S,
        visited: &mut HashSet<(u128, S)>,
        witness: &mut Vec<usize>,
    ) -> bool {
        if done == full {
            return true;
        }
        if !visited.insert((done, state.clone())) {
            return false;
        }
        // Candidate next operations: not yet linearized, and no other
        // unlinearized operation happens before them.
        for (i, op) in ops.iter().enumerate() {
            if done & (1u128 << i) != 0 {
                continue;
            }
            let mut minimal = true;
            for (j, other) in ops.iter().enumerate() {
                if i != j && done & (1u128 << j) == 0 && other.responded < op.invoked {
                    minimal = false;
                    break;
                }
            }
            if !minimal {
                continue;
            }
            let mut next_state = state.clone();
            if !next_state.apply(op.pid, &op.kind) {
                continue;
            }
            witness.push(i);
            if dfs(
                ops,
                done | (1u128 << i),
                full,
                &next_state,
                visited,
                witness,
            ) {
                return true;
            }
            witness.pop();
        }
        false
    }

    if dfs(ops, 0, full, &initial, &mut visited, &mut witness) {
        LinCheckOutcome::Linearizable { witness }
    } else {
        LinCheckOutcome::NotLinearizable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::OpRecord;

    fn rec(pid: ProcessId, kind: OpKind, invoked: u64, responded: u64) -> OpRecord {
        OpRecord {
            pid,
            kind,
            invoked,
            responded,
        }
    }

    #[test]
    fn empty_history_is_linearizable() {
        let h = History::new();
        assert!(check_history(&h, Spec::AbaRegister { n: 2, initial: 0 }).is_linearizable());
        assert!(check_history(&h, Spec::LlSc { n: 2, initial: 0 }).is_linearizable());
    }

    #[test]
    fn sequential_aba_history_is_linearizable() {
        let h = History::from_ops(vec![
            rec(0, OpKind::DWrite { value: 5 }, 0, 1),
            rec(
                1,
                OpKind::DRead {
                    value: 5,
                    flag: true,
                },
                2,
                3,
            ),
            rec(
                1,
                OpKind::DRead {
                    value: 5,
                    flag: false,
                },
                4,
                5,
            ),
        ]);
        assert!(check_history(&h, Spec::AbaRegister { n: 2, initial: 0 }).is_linearizable());
    }

    #[test]
    fn missed_aba_is_not_linearizable() {
        // A write strictly precedes the read, yet the read reports no change:
        // exactly the "missed ABA" failure the paper is about.
        let h = History::from_ops(vec![
            rec(0, OpKind::DWrite { value: 5 }, 0, 1),
            rec(
                1,
                OpKind::DRead {
                    value: 5,
                    flag: false,
                },
                2,
                3,
            ),
        ]);
        assert_eq!(
            check_history(&h, Spec::AbaRegister { n: 2, initial: 0 }),
            LinCheckOutcome::NotLinearizable
        );
    }

    #[test]
    fn stale_value_is_not_linearizable() {
        let h = History::from_ops(vec![
            rec(0, OpKind::DWrite { value: 5 }, 0, 1),
            rec(
                1,
                OpKind::DRead {
                    value: 9,
                    flag: true,
                },
                2,
                3,
            ),
        ]);
        assert_eq!(
            check_history(&h, Spec::AbaRegister { n: 2, initial: 0 }),
            LinCheckOutcome::NotLinearizable
        );
    }

    #[test]
    fn overlapping_write_allows_either_flag() {
        // Write overlaps the read: the read may linearize before or after it,
        // so either flag value must be accepted (here: flag = false).
        let h = History::from_ops(vec![
            rec(0, OpKind::DWrite { value: 5 }, 0, 10),
            rec(
                1,
                OpKind::DRead {
                    value: 0,
                    flag: false,
                },
                1,
                2,
            ),
        ]);
        assert!(check_history(&h, Spec::AbaRegister { n: 2, initial: 0 }).is_linearizable());
        let h2 = History::from_ops(vec![
            rec(0, OpKind::DWrite { value: 5 }, 0, 10),
            rec(
                1,
                OpKind::DRead {
                    value: 5,
                    flag: true,
                },
                1,
                2,
            ),
        ]);
        assert!(check_history(&h2, Spec::AbaRegister { n: 2, initial: 0 }).is_linearizable());
    }

    #[test]
    fn llsc_history_with_interference_is_checked() {
        // p0: LL, then p1: LL+SC succeeds, then p0's SC must fail.
        let h = History::from_ops(vec![
            rec(0, OpKind::Ll { value: 0 }, 0, 1),
            rec(1, OpKind::Ll { value: 0 }, 2, 3),
            rec(
                1,
                OpKind::Sc {
                    value: 7,
                    success: true,
                },
                4,
                5,
            ),
            rec(
                0,
                OpKind::Sc {
                    value: 9,
                    success: false,
                },
                6,
                7,
            ),
            rec(1, OpKind::Ll { value: 7 }, 8, 9),
        ]);
        assert!(check_history(&h, Spec::LlSc { n: 2, initial: 0 }).is_linearizable());

        // The same history but with p0's SC claiming success is invalid.
        let bad = History::from_ops(vec![
            rec(0, OpKind::Ll { value: 0 }, 0, 1),
            rec(1, OpKind::Ll { value: 0 }, 2, 3),
            rec(
                1,
                OpKind::Sc {
                    value: 7,
                    success: true,
                },
                4,
                5,
            ),
            rec(
                0,
                OpKind::Sc {
                    value: 9,
                    success: true,
                },
                6,
                7,
            ),
        ]);
        assert_eq!(
            check_history(&bad, Spec::LlSc { n: 2, initial: 0 }),
            LinCheckOutcome::NotLinearizable
        );
    }

    #[test]
    fn witness_respects_happens_before() {
        let h = History::from_ops(vec![
            rec(0, OpKind::DWrite { value: 1 }, 0, 1),
            rec(0, OpKind::DWrite { value: 2 }, 2, 3),
            rec(
                1,
                OpKind::DRead {
                    value: 2,
                    flag: true,
                },
                4,
                5,
            ),
        ]);
        match check_history(&h, Spec::AbaRegister { n: 2, initial: 0 }) {
            LinCheckOutcome::Linearizable { witness } => {
                let pos = |i: usize| witness.iter().position(|&x| x == i).unwrap();
                assert!(pos(0) < pos(1));
                assert!(pos(1) < pos(2));
            }
            other => panic!("expected linearizable, got {other:?}"),
        }
    }

    #[test]
    fn sequential_fifo_history_is_linearizable() {
        let h = History::from_ops(vec![
            rec(0, OpKind::Enqueue { value: 1, ok: true }, 0, 1),
            rec(0, OpKind::Enqueue { value: 2, ok: true }, 2, 3),
            rec(1, OpKind::Dequeue { value: Some(1) }, 4, 5),
            rec(1, OpKind::Dequeue { value: Some(2) }, 6, 7),
            rec(1, OpKind::Dequeue { value: None }, 8, 9),
        ]);
        assert!(check_history(&h, Spec::Queue).is_linearizable());
    }

    #[test]
    fn duplicated_dequeue_is_not_linearizable() {
        // The ABA damage signature: one enqueue, the same value dequeued by
        // two processes.
        let h = History::from_ops(vec![
            rec(0, OpKind::Enqueue { value: 5, ok: true }, 0, 1),
            rec(1, OpKind::Dequeue { value: Some(5) }, 2, 3),
            rec(2, OpKind::Dequeue { value: Some(5) }, 4, 5),
        ]);
        assert_eq!(
            check_history(&h, Spec::Queue),
            LinCheckOutcome::NotLinearizable
        );
    }

    #[test]
    fn lost_value_is_not_linearizable() {
        // An enqueue strictly precedes the dequeue, yet the dequeue reports
        // an empty queue: the value was lost.
        let h = History::from_ops(vec![
            rec(0, OpKind::Enqueue { value: 5, ok: true }, 0, 1),
            rec(1, OpKind::Dequeue { value: None }, 2, 3),
        ]);
        assert_eq!(
            check_history(&h, Spec::Queue),
            LinCheckOutcome::NotLinearizable
        );
    }

    #[test]
    fn fifo_order_violation_is_not_linearizable() {
        let h = History::from_ops(vec![
            rec(0, OpKind::Enqueue { value: 1, ok: true }, 0, 1),
            rec(0, OpKind::Enqueue { value: 2, ok: true }, 2, 3),
            rec(1, OpKind::Dequeue { value: Some(2) }, 4, 5),
            rec(1, OpKind::Dequeue { value: Some(1) }, 6, 7),
        ]);
        assert_eq!(
            check_history(&h, Spec::Queue),
            LinCheckOutcome::NotLinearizable
        );
    }

    #[test]
    fn overlapping_enqueue_and_dequeue_allow_either_outcome() {
        // The dequeue overlaps the enqueue, so it may linearize before
        // (empty) or after (value) it.
        for value in [None, Some(5)] {
            let h = History::from_ops(vec![
                rec(0, OpKind::Enqueue { value: 5, ok: true }, 0, 10),
                rec(1, OpKind::Dequeue { value }, 1, 2),
            ]);
            assert!(
                check_history(&h, Spec::Queue).is_linearizable(),
                "{value:?}"
            );
        }
    }

    #[test]
    fn failed_enqueue_linearizes_as_a_no_op() {
        let h = History::from_ops(vec![
            rec(
                0,
                OpKind::Enqueue {
                    value: 9,
                    ok: false,
                },
                0,
                1,
            ),
            rec(1, OpKind::Dequeue { value: None }, 2, 3),
        ]);
        assert!(check_history(&h, Spec::Queue).is_linearizable());
    }

    #[test]
    fn sequential_lifo_history_is_linearizable() {
        let h = History::from_ops(vec![
            rec(0, OpKind::Push { value: 1, ok: true }, 0, 1),
            rec(0, OpKind::Push { value: 2, ok: true }, 2, 3),
            rec(1, OpKind::Pop { value: Some(2) }, 4, 5),
            rec(1, OpKind::Pop { value: Some(1) }, 6, 7),
            rec(1, OpKind::Pop { value: None }, 8, 9),
        ]);
        assert!(check_history(&h, Spec::Stack).is_linearizable());
    }

    #[test]
    fn duplicated_pop_is_not_linearizable() {
        // The ABA damage signature: one push, the same value popped by two
        // processes.
        let h = History::from_ops(vec![
            rec(0, OpKind::Push { value: 5, ok: true }, 0, 1),
            rec(1, OpKind::Pop { value: Some(5) }, 2, 3),
            rec(2, OpKind::Pop { value: Some(5) }, 4, 5),
        ]);
        assert_eq!(
            check_history(&h, Spec::Stack),
            LinCheckOutcome::NotLinearizable
        );
    }

    #[test]
    fn lost_push_is_not_linearizable() {
        // A push strictly precedes the pop, yet the pop reports an empty
        // stack: the value was lost.
        let h = History::from_ops(vec![
            rec(0, OpKind::Push { value: 5, ok: true }, 0, 1),
            rec(1, OpKind::Pop { value: None }, 2, 3),
        ]);
        assert_eq!(
            check_history(&h, Spec::Stack),
            LinCheckOutcome::NotLinearizable
        );
    }

    #[test]
    fn lifo_order_violation_is_not_linearizable() {
        // Two completed pushes, then the pops return them oldest-first:
        // FIFO behaviour, which a stack must reject.
        let h = History::from_ops(vec![
            rec(0, OpKind::Push { value: 1, ok: true }, 0, 1),
            rec(0, OpKind::Push { value: 2, ok: true }, 2, 3),
            rec(1, OpKind::Pop { value: Some(1) }, 4, 5),
            rec(1, OpKind::Pop { value: Some(2) }, 6, 7),
        ]);
        assert_eq!(
            check_history(&h, Spec::Stack),
            LinCheckOutcome::NotLinearizable
        );
    }

    #[test]
    fn overlapping_push_and_pop_allow_either_outcome() {
        // The pop overlaps the push, so it may linearize before (empty) or
        // after (value) it — exactly the freedom an elimination exchange
        // exploits.
        for value in [None, Some(5)] {
            let h = History::from_ops(vec![
                rec(0, OpKind::Push { value: 5, ok: true }, 0, 10),
                rec(1, OpKind::Pop { value }, 1, 2),
            ]);
            assert!(
                check_history(&h, Spec::Stack).is_linearizable(),
                "{value:?}"
            );
        }
    }

    #[test]
    fn failed_push_linearizes_as_a_no_op() {
        let h = History::from_ops(vec![
            rec(
                0,
                OpKind::Push {
                    value: 9,
                    ok: false,
                },
                0,
                1,
            ),
            rec(1, OpKind::Pop { value: None }, 2, 3),
        ]);
        assert!(check_history(&h, Spec::Stack).is_linearizable());
    }

    #[test]
    fn eliminated_pair_amid_deep_stack_is_linearizable() {
        // An overlapping push(7)/pop->7 pair exchanged while 1 and 2 sit
        // untouched underneath: the pair linearizes back-to-back.
        let h = History::from_ops(vec![
            rec(0, OpKind::Push { value: 1, ok: true }, 0, 1),
            rec(0, OpKind::Push { value: 2, ok: true }, 2, 3),
            rec(1, OpKind::Push { value: 7, ok: true }, 4, 9),
            rec(2, OpKind::Pop { value: Some(7) }, 5, 8),
            rec(0, OpKind::Pop { value: Some(2) }, 10, 11),
            rec(0, OpKind::Pop { value: Some(1) }, 12, 13),
        ]);
        assert!(check_history(&h, Spec::Stack).is_linearizable());
    }

    #[test]
    fn sequential_set_history_is_linearizable() {
        let h = History::from_ops(vec![
            rec(0, OpKind::Insert { key: 5, ok: true }, 0, 1),
            rec(0, OpKind::Insert { key: 5, ok: false }, 2, 3),
            rec(
                1,
                OpKind::Contains {
                    key: 5,
                    found: true,
                },
                4,
                5,
            ),
            rec(1, OpKind::Remove { key: 5, ok: true }, 6, 7),
            rec(1, OpKind::Remove { key: 5, ok: false }, 8, 9),
            rec(
                0,
                OpKind::Contains {
                    key: 5,
                    found: false,
                },
                10,
                11,
            ),
        ]);
        assert!(check_history(&h, Spec::Set).is_linearizable());
    }

    #[test]
    fn lost_insert_is_not_linearizable() {
        // The Harris–Michael ABA damage signature: a completed insert whose
        // key a later contains cannot see, with no remove in between.
        let h = History::from_ops(vec![
            rec(0, OpKind::Insert { key: 5, ok: true }, 0, 1),
            rec(
                1,
                OpKind::Contains {
                    key: 5,
                    found: false,
                },
                2,
                3,
            ),
        ]);
        assert_eq!(
            check_history(&h, Spec::Set),
            LinCheckOutcome::NotLinearizable
        );
    }

    #[test]
    fn doubly_removed_key_is_not_linearizable() {
        let h = History::from_ops(vec![
            rec(0, OpKind::Insert { key: 5, ok: true }, 0, 1),
            rec(1, OpKind::Remove { key: 5, ok: true }, 2, 3),
            rec(2, OpKind::Remove { key: 5, ok: true }, 4, 5),
        ]);
        assert_eq!(
            check_history(&h, Spec::Set),
            LinCheckOutcome::NotLinearizable
        );
    }

    #[test]
    fn resurrected_key_is_not_linearizable() {
        // Removed, never re-inserted, yet observed again: a lost unlink.
        let h = History::from_ops(vec![
            rec(0, OpKind::Insert { key: 5, ok: true }, 0, 1),
            rec(1, OpKind::Remove { key: 5, ok: true }, 2, 3),
            rec(
                2,
                OpKind::Contains {
                    key: 5,
                    found: true,
                },
                4,
                5,
            ),
        ]);
        assert_eq!(
            check_history(&h, Spec::Set),
            LinCheckOutcome::NotLinearizable
        );
    }

    #[test]
    fn overlapping_insert_and_contains_allow_either_answer() {
        for found in [false, true] {
            let h = History::from_ops(vec![
                rec(0, OpKind::Insert { key: 5, ok: true }, 0, 10),
                rec(1, OpKind::Contains { key: 5, found }, 1, 2),
            ]);
            assert!(check_history(&h, Spec::Set).is_linearizable(), "{found}");
        }
    }

    #[test]
    fn failed_insert_linearizes_as_a_no_op() {
        // `ok == false` covers an arena-exhausted attempt: it must be
        // admissible even where the key is provably absent.
        let h = History::from_ops(vec![
            rec(0, OpKind::Insert { key: 9, ok: false }, 0, 1),
            rec(
                1,
                OpKind::Contains {
                    key: 9,
                    found: false,
                },
                2,
                3,
            ),
        ]);
        assert!(check_history(&h, Spec::Set).is_linearizable());
    }

    #[test]
    fn sequential_map_history_is_linearizable() {
        let h = History::from_ops(vec![
            rec(
                0,
                OpKind::MapInsert {
                    key: 5,
                    value: 50,
                    ok: true,
                },
                0,
                1,
            ),
            rec(
                0,
                OpKind::MapInsert {
                    key: 5,
                    value: 99,
                    ok: false,
                },
                2,
                3,
            ),
            rec(
                1,
                OpKind::MapGet {
                    key: 5,
                    value: Some(50),
                },
                4,
                5,
            ),
            rec(1, OpKind::MapRemove { key: 5, ok: true }, 6, 7),
            rec(1, OpKind::MapRemove { key: 5, ok: false }, 8, 9),
            rec(
                0,
                OpKind::MapGet {
                    key: 5,
                    value: None,
                },
                10,
                11,
            ),
        ]);
        assert!(check_history(&h, Spec::Map).is_linearizable());
    }

    #[test]
    fn lost_map_binding_is_not_linearizable() {
        // The split-ordered ABA damage signature: a completed insert whose
        // binding a later get cannot see, with no remove in between.
        let h = History::from_ops(vec![
            rec(
                0,
                OpKind::MapInsert {
                    key: 5,
                    value: 50,
                    ok: true,
                },
                0,
                1,
            ),
            rec(
                1,
                OpKind::MapGet {
                    key: 5,
                    value: None,
                },
                2,
                3,
            ),
        ]);
        assert_eq!(
            check_history(&h, Spec::Map),
            LinCheckOutcome::NotLinearizable
        );
    }

    #[test]
    fn stale_map_value_is_not_linearizable() {
        // A get observing a value no linearization ever bound to the key —
        // the signature of reading a recycled node's payload.
        let h = History::from_ops(vec![
            rec(
                0,
                OpKind::MapInsert {
                    key: 5,
                    value: 50,
                    ok: true,
                },
                0,
                1,
            ),
            rec(
                1,
                OpKind::MapGet {
                    key: 5,
                    value: Some(99),
                },
                2,
                3,
            ),
        ]);
        assert_eq!(
            check_history(&h, Spec::Map),
            LinCheckOutcome::NotLinearizable
        );
    }

    #[test]
    fn doubly_removed_map_key_is_not_linearizable() {
        let h = History::from_ops(vec![
            rec(
                0,
                OpKind::MapInsert {
                    key: 5,
                    value: 50,
                    ok: true,
                },
                0,
                1,
            ),
            rec(1, OpKind::MapRemove { key: 5, ok: true }, 2, 3),
            rec(2, OpKind::MapRemove { key: 5, ok: true }, 4, 5),
        ]);
        assert_eq!(
            check_history(&h, Spec::Map),
            LinCheckOutcome::NotLinearizable
        );
    }

    #[test]
    fn overlapping_map_insert_and_get_allow_either_answer() {
        for value in [None, Some(50)] {
            let h = History::from_ops(vec![
                rec(
                    0,
                    OpKind::MapInsert {
                        key: 5,
                        value: 50,
                        ok: true,
                    },
                    0,
                    10,
                ),
                rec(1, OpKind::MapGet { key: 5, value }, 1, 2),
            ]);
            assert!(check_history(&h, Spec::Map).is_linearizable(), "{value:?}");
        }
    }

    #[test]
    fn failed_map_insert_linearizes_as_a_no_op() {
        // `ok == false` covers an arena-exhausted attempt: it must be
        // admissible even where the key is provably unbound.
        let h = History::from_ops(vec![
            rec(
                0,
                OpKind::MapInsert {
                    key: 9,
                    value: 90,
                    ok: false,
                },
                0,
                1,
            ),
            rec(
                1,
                OpKind::MapGet {
                    key: 9,
                    value: None,
                },
                2,
                3,
            ),
        ]);
        assert!(check_history(&h, Spec::Map).is_linearizable());
    }

    #[test]
    #[should_panic(expected = "check_history(Map) given a foreign operation")]
    fn map_checker_rejects_set_ops() {
        let h = History::from_ops(vec![rec(0, OpKind::Insert { key: 1, ok: true }, 0, 1)]);
        let _ = check_history(&h, Spec::Map);
    }

    #[test]
    #[should_panic(expected = "check_history(Set) given a foreign operation")]
    fn set_checker_rejects_queue_ops() {
        let h = History::from_ops(vec![rec(0, OpKind::Dequeue { value: None }, 0, 1)]);
        let _ = check_history(&h, Spec::Set);
    }

    #[test]
    #[should_panic(expected = "check_history(Queue) given a foreign operation")]
    fn queue_checker_rejects_register_ops() {
        let h = History::from_ops(vec![rec(0, OpKind::DWrite { value: 0 }, 0, 1)]);
        let _ = check_history(&h, Spec::Queue);
    }

    #[test]
    fn too_large_history_is_rejected() {
        let mut ops = Vec::new();
        for i in 0..(MAX_CHECKED_OPS as u64 + 1) {
            ops.push(rec(0, OpKind::DWrite { value: 1 }, 2 * i, 2 * i + 1));
        }
        // One overlapping pair: a totally ordered history has no cap.
        ops[1] = rec(1, OpKind::DWrite { value: 1 }, 0, 3);
        let h = History::from_ops(ops);
        assert_eq!(
            check_history(&h, Spec::AbaRegister { n: 2, initial: 0 }),
            LinCheckOutcome::TooLarge {
                len: MAX_CHECKED_OPS + 1
            }
        );
    }

    #[test]
    fn totally_ordered_history_is_decided_at_any_length() {
        // 600 operations, far past the cap: rounds of two pushes and two
        // pops, each operation responding before the next is invoked.
        let mut kinds = Vec::new();
        for round in 0..150 {
            let (a, b) = (2 * round, 2 * round + 1);
            kinds.push(OpKind::Push { value: a, ok: true });
            kinds.push(OpKind::Push { value: b, ok: true });
            kinds.push(OpKind::Pop { value: Some(b) });
            kinds.push(OpKind::Pop { value: Some(a) });
        }
        let history = |kinds: &[OpKind]| {
            let ops = (0..)
                .zip(kinds)
                .map(|(i, &kind)| rec(0, kind, 2 * i, 2 * i + 1));
            History::from_ops(ops.collect())
        };
        assert_eq!(
            check_history(&history(&kinds), Spec::Stack),
            LinCheckOutcome::Linearizable {
                witness: (0..600).collect()
            }
        );
        // One pop answers with its round's other value: LIFO is broken.
        kinds[402] = OpKind::Pop { value: Some(200) };
        assert_eq!(
            check_history(&history(&kinds), Spec::Stack),
            LinCheckOutcome::NotLinearizable
        );
    }

    #[test]
    #[should_panic(expected = "given a foreign operation")]
    fn aba_checker_rejects_llsc_ops() {
        let h = History::from_ops(vec![rec(0, OpKind::Ll { value: 0 }, 0, 1)]);
        let _ = check_history(&h, Spec::AbaRegister { n: 1, initial: 0 });
    }

    #[test]
    fn concurrent_reads_by_distinct_processes_each_see_change_once() {
        let h = History::from_ops(vec![
            rec(0, OpKind::DWrite { value: 3 }, 0, 1),
            rec(
                1,
                OpKind::DRead {
                    value: 3,
                    flag: true,
                },
                2,
                6,
            ),
            rec(
                2,
                OpKind::DRead {
                    value: 3,
                    flag: true,
                },
                3,
                7,
            ),
            rec(
                1,
                OpKind::DRead {
                    value: 3,
                    flag: false,
                },
                8,
                9,
            ),
            rec(
                2,
                OpKind::DRead {
                    value: 3,
                    flag: false,
                },
                10,
                11,
            ),
        ]);
        assert!(check_history(&h, Spec::AbaRegister { n: 3, initial: 0 }).is_linearizable());
    }
}
