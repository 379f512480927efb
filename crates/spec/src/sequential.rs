//! Sequential specifications of the paper's two object types, plus the FIFO
//! queue the E8 lock-free structures must linearize to and the ordered set
//! the E10 structures must linearize to.
//!
//! These are the *abstract* objects that the concurrent implementations must
//! linearize to.  They are deliberately tiny and obviously correct; the
//! linearizability checker replays candidate linearizations against them, and
//! the property tests in this crate exercise their invariants directly.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::{ProcessId, Word};

/// Sequential specification of a multi-writer ABA-detecting register.
///
/// State: the current value, plus one "dirty" flag per process that is set by
/// every `DWrite` and cleared by that process's `DRead`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SeqAbaRegister {
    value: Word,
    dirty: Vec<bool>,
}

impl SeqAbaRegister {
    /// A register for `n` processes with the given initial value.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, initial: Word) -> Self {
        assert!(n > 0, "need at least one process");
        SeqAbaRegister {
            value: initial,
            dirty: vec![false; n],
        }
    }

    /// Number of processes.
    pub fn processes(&self) -> usize {
        self.dirty.len()
    }

    /// Current abstract value.
    pub fn value(&self) -> Word {
        self.value
    }

    /// Apply a `DWrite(x)` by `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn dwrite(&mut self, pid: ProcessId, value: Word) {
        assert!(pid < self.dirty.len(), "pid {pid} out of range");
        self.value = value;
        for flag in &mut self.dirty {
            *flag = true;
        }
    }

    /// Apply a `DRead()` by `pid`, returning what the abstract object returns.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn dread(&mut self, pid: ProcessId) -> (Word, bool) {
        assert!(pid < self.dirty.len(), "pid {pid} out of range");
        let flag = self.dirty[pid];
        self.dirty[pid] = false;
        (self.value, flag)
    }
}

/// Sequential specification of an LL/SC/VL object.
///
/// State: the current value plus one link-validity bit per process.  `LL`
/// validates the caller's link; a successful `SC` invalidates every link
/// (including the caller's own).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SeqLlSc {
    value: Word,
    valid: Vec<bool>,
}

impl SeqLlSc {
    /// An LL/SC/VL object for `n` processes with the given initial value.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, initial: Word) -> Self {
        assert!(n > 0, "need at least one process");
        SeqLlSc {
            value: initial,
            valid: vec![false; n],
        }
    }

    /// Number of processes.
    pub fn processes(&self) -> usize {
        self.valid.len()
    }

    /// Current abstract value.
    pub fn value(&self) -> Word {
        self.value
    }

    /// Apply `LL()` by `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn ll(&mut self, pid: ProcessId) -> Word {
        assert!(pid < self.valid.len(), "pid {pid} out of range");
        self.valid[pid] = true;
        self.value
    }

    /// Apply `SC(x)` by `pid`; returns whether it succeeded.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn sc(&mut self, pid: ProcessId, value: Word) -> bool {
        assert!(pid < self.valid.len(), "pid {pid} out of range");
        if self.valid[pid] {
            self.value = value;
            for v in &mut self.valid {
                *v = false;
            }
            true
        } else {
            false
        }
    }

    /// Apply `VL()` by `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn vl(&self, pid: ProcessId) -> bool {
        assert!(pid < self.valid.len(), "pid {pid} out of range");
        self.valid[pid]
    }
}

/// Sequential specification of an unbounded FIFO queue.
///
/// State: the queued values, oldest first.  The concurrent MS-queue variants
/// in `aba-lockfree` and the step-level state machines in `aba-sim` must
/// linearize to this; a failed (arena-exhausted) enqueue is a no-op on the
/// abstract state, so the specification itself carries no capacity.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SeqFifoQueue {
    items: VecDeque<Word>,
}

impl SeqFifoQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued values.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` iff the queue holds no values.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Apply an `Enqueue(x)`.
    pub fn enqueue(&mut self, value: Word) {
        self.items.push_back(value);
    }

    /// Apply a `Dequeue()`, returning the oldest value (or `None` if empty).
    pub fn dequeue(&mut self) -> Option<Word> {
        self.items.pop_front()
    }

    /// The value a `Dequeue()` would return, without applying it.
    pub fn front(&self) -> Option<Word> {
        self.items.front().copied()
    }
}

/// Sequential specification of an unbounded LIFO stack.
///
/// State: the stacked values, oldest first (so `last` is the top).  The
/// concurrent Treiber-stack variants in `aba-lockfree` — including the
/// elimination-backoff front end, whose exchanged push/pop pairs linearize
/// back-to-back at the exchange point — must linearize to this; a failed
/// (arena-exhausted) push is a no-op on the abstract state, so the
/// specification itself carries no capacity.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SeqLifoStack {
    items: Vec<Word>,
}

impl SeqLifoStack {
    /// An empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stacked values.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` iff the stack holds no values.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Apply a `Push(x)`.
    pub fn push(&mut self, value: Word) {
        self.items.push(value);
    }

    /// Apply a `Pop()`, returning the newest value (or `None` if empty).
    pub fn pop(&mut self) -> Option<Word> {
        self.items.pop()
    }

    /// The value a `Pop()` would return, without applying it.
    pub fn top(&self) -> Option<Word> {
        self.items.last().copied()
    }
}

/// Sequential specification of an ordered set of keys.
///
/// State: the member keys.  The concurrent Harris–Michael set variants in
/// `aba-lockfree` and the step-level state machines in `aba-sim` must
/// linearize to this; an insert that fails because the backing arena is
/// exhausted is a no-op on the abstract state (like a failed enqueue), so
/// the specification itself carries no capacity.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SeqOrderedSet {
    keys: BTreeSet<Word>,
}

impl SeqOrderedSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of member keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` iff the set holds no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Apply an `Insert(k)`; `false` iff the key was already present.
    pub fn insert(&mut self, key: Word) -> bool {
        self.keys.insert(key)
    }

    /// Apply a `Remove(k)`; `false` iff the key was absent.
    pub fn remove(&mut self, key: Word) -> bool {
        self.keys.remove(&key)
    }

    /// Apply a `Contains(k)`.
    pub fn contains(&self, key: Word) -> bool {
        self.keys.contains(&key)
    }

    /// The member keys in ascending order (the order a correct chain
    /// traversal observes).
    pub fn keys(&self) -> impl Iterator<Item = Word> + '_ {
        self.keys.iter().copied()
    }
}

/// Sequential specification of a key→value map with no-overwrite inserts.
///
/// State: the key→value bindings.  The split-ordered hash maps in
/// `aba-lockfree` (E13) must linearize to this.  `insert` refuses to
/// overwrite an existing binding — mirroring the concurrent structure, where
/// a second insert of a live key fails rather than replacing the value — and
/// a failed insert (key present *or* backing arena exhausted) is a no-op on
/// the abstract state, so the specification itself carries no capacity.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SeqMap {
    entries: BTreeMap<Word, Word>,
}

impl SeqMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff the map holds no bindings.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Apply an `Insert(k, v)`; `false` iff the key was already bound (the
    /// existing binding is left untouched).
    pub fn insert(&mut self, key: Word, value: Word) -> bool {
        if self.entries.contains_key(&key) {
            return false;
        }
        self.entries.insert(key, value);
        true
    }

    /// Apply a `Remove(k)`; `false` iff the key was absent.
    pub fn remove(&mut self, key: Word) -> bool {
        self.entries.remove(&key).is_some()
    }

    /// Apply a `Get(k)`.
    pub fn get(&self, key: Word) -> Option<Word> {
        self.entries.get(&key).copied()
    }

    /// The bindings in ascending key order.
    pub fn entries(&self) -> impl Iterator<Item = (Word, Word)> + '_ {
        self.entries.iter().map(|(&k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_queue_orders_values() {
        let mut q = SeqFifoQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.dequeue(), None);
        q.enqueue(1);
        q.enqueue(2);
        q.enqueue(3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.front(), Some(1));
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        q.enqueue(4);
        assert_eq!(q.dequeue(), Some(3));
        assert_eq!(q.dequeue(), Some(4));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn lifo_stack_orders_values() {
        let mut s = SeqLifoStack::new();
        assert!(s.is_empty());
        assert_eq!(s.pop(), None);
        s.push(1);
        s.push(2);
        s.push(3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.top(), Some(3));
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), Some(2));
        s.push(4);
        assert_eq!(s.pop(), Some(4));
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn ordered_set_membership_and_order() {
        let mut s = SeqOrderedSet::new();
        assert!(s.is_empty());
        assert!(!s.contains(3));
        assert!(!s.remove(3));
        assert!(s.insert(3));
        assert!(s.insert(1));
        assert!(s.insert(7));
        assert!(!s.insert(3), "duplicate insert must fail");
        assert_eq!(s.len(), 3);
        assert!(s.contains(1) && s.contains(3) && s.contains(7));
        assert_eq!(s.keys().collect::<Vec<_>>(), vec![1, 3, 7]);
        assert!(s.remove(3));
        assert!(!s.remove(3), "double remove must fail");
        assert_eq!(s.keys().collect::<Vec<_>>(), vec![1, 7]);
    }

    #[test]
    fn map_bindings_never_overwrite() {
        let mut m = SeqMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get(3), None);
        assert!(!m.remove(3));
        assert!(m.insert(3, 30));
        assert!(m.insert(1, 10));
        assert!(!m.insert(3, 99), "duplicate insert must fail");
        assert_eq!(m.get(3), Some(30), "failed insert must not overwrite");
        assert_eq!(m.len(), 2);
        assert_eq!(m.entries().collect::<Vec<_>>(), vec![(1, 10), (3, 30)]);
        assert!(m.remove(3));
        assert!(!m.remove(3), "double remove must fail");
        assert_eq!(m.get(3), None);
        assert!(
            m.insert(3, 99),
            "re-insert after remove binds the new value"
        );
        assert_eq!(m.get(3), Some(99));
    }

    #[test]
    fn aba_register_flags_follow_the_specification() {
        let mut r = SeqAbaRegister::new(3, 0);
        // No write yet: first read is clean.
        assert_eq!(r.dread(1), (0, false));
        r.dwrite(0, 42);
        // Every reader sees the change exactly once.
        assert_eq!(r.dread(1), (42, true));
        assert_eq!(r.dread(1), (42, false));
        assert_eq!(r.dread(2), (42, true));
        // A writer is also a reader in the multi-writer specification.
        assert_eq!(r.dread(0), (42, true));
        assert_eq!(r.dread(0), (42, false));
    }

    #[test]
    fn aba_register_detects_write_of_same_value() {
        // The essence of ABA detection: writing the *same* value still trips
        // the flag, which a plain read/write register cannot reveal.
        let mut r = SeqAbaRegister::new(2, 0);
        r.dwrite(0, 5);
        assert_eq!(r.dread(1), (5, true));
        r.dwrite(0, 5);
        assert_eq!(r.dread(1), (5, true));
        assert_eq!(r.dread(1), (5, false));
    }

    #[test]
    fn llsc_basic_protocol() {
        let mut x = SeqLlSc::new(2, 0);
        assert_eq!(x.ll(0), 0);
        assert!(x.vl(0));
        assert!(x.sc(0, 9));
        assert_eq!(x.value(), 9);
        // The successful SC invalidated everyone's link, including pid 0's.
        assert!(!x.vl(0));
        assert!(!x.sc(0, 10));
        assert_eq!(x.value(), 9);
    }

    #[test]
    fn llsc_sc_fails_after_interfering_success() {
        let mut x = SeqLlSc::new(2, 7);
        assert_eq!(x.ll(0), 7);
        assert_eq!(x.ll(1), 7);
        assert!(x.sc(1, 8));
        // Process 0's link was invalidated by process 1's successful SC.
        assert!(!x.vl(0));
        assert!(!x.sc(0, 9));
        assert_eq!(x.value(), 8);
    }

    #[test]
    fn llsc_sc_without_ll_fails() {
        let mut x = SeqLlSc::new(2, 0);
        assert!(!x.sc(0, 1));
        assert_eq!(x.value(), 0);
        assert!(!x.vl(1));
    }

    #[test]
    fn llsc_unsuccessful_sc_does_not_invalidate_others() {
        let mut x = SeqLlSc::new(3, 0);
        assert_eq!(x.ll(2), 0);
        assert!(!x.sc(0, 1)); // no link, fails
        assert!(x.vl(2)); // pid 2's link untouched
        assert!(x.sc(2, 3));
        assert_eq!(x.value(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn aba_register_rejects_bad_pid() {
        let mut r = SeqAbaRegister::new(2, 0);
        r.dwrite(5, 1);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn llsc_rejects_zero_processes() {
        let _ = SeqLlSc::new(0, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum AbaOp {
        Write(ProcessId, Word),
        Read(ProcessId),
    }

    fn aba_op_strategy(n: usize) -> impl Strategy<Value = AbaOp> {
        prop_oneof![
            (0..n, any::<Word>()).prop_map(|(p, v)| AbaOp::Write(p, v)),
            (0..n).prop_map(AbaOp::Read),
        ]
    }

    proptest! {
        /// A DRead returns `true` iff a DWrite occurred since that process's
        /// previous DRead — checked against an independently maintained
        /// "last write index / last read index" bookkeeping.
        #[test]
        fn aba_flag_matches_independent_bookkeeping(
            ops in proptest::collection::vec(aba_op_strategy(4), 1..200)
        ) {
            let n = 4;
            let mut spec = SeqAbaRegister::new(n, 0);
            let mut last_write_at: Option<usize> = None;
            let mut last_read_at = vec![None::<usize>; n];
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    AbaOp::Write(p, v) => {
                        spec.dwrite(p, v);
                        last_write_at = Some(i);
                    }
                    AbaOp::Read(p) => {
                        let (_, flag) = spec.dread(p);
                        let expected = match (last_write_at, last_read_at[p]) {
                            (None, _) => false,
                            (Some(w), None) => { let _ = w; true },
                            (Some(w), Some(r)) => w > r,
                        };
                        prop_assert_eq!(flag, expected, "op index {}", i);
                        last_read_at[p] = Some(i);
                    }
                }
            }
        }

        /// The value returned by DRead is always the most recently written
        /// value (or the initial value).
        #[test]
        fn aba_value_is_last_written(
            ops in proptest::collection::vec(aba_op_strategy(3), 1..200)
        ) {
            let mut spec = SeqAbaRegister::new(3, 17);
            let mut last = 17u32;
            for op in ops {
                match op {
                    AbaOp::Write(p, v) => { spec.dwrite(p, v); last = v; }
                    AbaOp::Read(p) => {
                        let (v, _) = spec.dread(p);
                        prop_assert_eq!(v, last);
                    }
                }
            }
        }
    }

    #[derive(Debug, Clone)]
    enum LlScOp {
        Ll(ProcessId),
        Sc(ProcessId, Word),
        Vl(ProcessId),
    }

    fn llsc_op_strategy(n: usize) -> impl Strategy<Value = LlScOp> {
        prop_oneof![
            (0..n).prop_map(LlScOp::Ll),
            (0..n, any::<Word>()).prop_map(|(p, v)| LlScOp::Sc(p, v)),
            (0..n).prop_map(LlScOp::Vl),
        ]
    }

    proptest! {
        /// SC by p succeeds iff no successful SC occurred since p's last LL —
        /// checked against independently tracked indices.
        #[test]
        fn sc_success_matches_independent_bookkeeping(
            ops in proptest::collection::vec(llsc_op_strategy(4), 1..200)
        ) {
            let n = 4;
            let mut spec = SeqLlSc::new(n, 0);
            let mut last_ll = vec![None::<usize>; n];
            let mut last_successful_sc: Option<usize> = None;
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    LlScOp::Ll(p) => { spec.ll(p); last_ll[p] = Some(i); }
                    LlScOp::Vl(p) => {
                        let valid = spec.vl(p);
                        let expected = match last_ll[p] {
                            None => false,
                            Some(l) => last_successful_sc.is_none_or(|s| s < l),
                        };
                        prop_assert_eq!(valid, expected, "VL at {}", i);
                    }
                    LlScOp::Sc(p, v) => {
                        let ok = spec.sc(p, v);
                        let expected = match last_ll[p] {
                            None => false,
                            Some(l) => last_successful_sc.is_none_or(|s| s < l),
                        };
                        prop_assert_eq!(ok, expected, "SC at {}", i);
                        if ok {
                            last_successful_sc = Some(i);
                        }
                    }
                }
            }
        }
    }
}
