//! Figure 4 / Theorem 3: a wait-free, linearizable, multi-writer
//! ABA-detecting register from `n + 1` **bounded registers** with constant
//! step complexity.
//!
//! This is the paper's main upper bound.  The shared state is
//!
//! * a register `X` holding a triple `(x, p, s)` — value, writer id and a
//!   sequence number from `{0, …, 2n+1}`, and
//! * an announce array `A[0 … n-1]` of registers holding pairs `(p, s)`,
//!   where only process `q` writes `A[q]`.
//!
//! A `DWrite(x)` by `p` obtains a sequence number from `GetSeq` (one shared
//! read of the announce array, see [`crate::seqpool`]) and writes `(x, p, s)`
//! to `X` — 2 steps.  A `DRead()` by `q` reads `X`, reads its old
//! announcement, announces the pair it just read, and reads `X` again —
//! 4 steps.  The returned flag compares the pair read from `X` with the
//! *previous* announcement; the local flag `b` carries "a write linearized
//! late in my previous `DRead`" into the next `DRead` (lines 38–50 of the
//! paper).
//!
//! [`Fig4`] follows the pseudo-code line by line (the line numbers in
//! comments refer to Figure 4) and is the only copy of it in the workspace:
//! written over [`crate::mem::Mem`], it is [`BoundedAbaRegister`]'s handle
//! when run on the object's atomic words and `aba_sim`'s `Fig4Sim` process
//! when run on the simulator's memory.  The local half of `GetSeq` is its
//! parameter ([`GetSeq`]): [`SeqRecycler`] here, a scan the lower-bound
//! experiments can under-provision there.

use std::sync::atomic::AtomicU64;

use aba_spec::{AbaHandle, AbaRegisterObject, ProcessId, SpaceUsage, Word, INITIAL_WORD};

use crate::mem::{Handle, Mem, Obj, RegisterCode};
use crate::pack::{Pair, Triple, MAX_PROCESSES};
use crate::pad::CachePadded;
use crate::seqpool::{GetSeq, SeqRecycler};

/// The Figure 4 ABA-detecting register (`n + 1` bounded registers, O(1)
/// steps).
#[derive(Debug)]
pub struct BoundedAbaRegister {
    n: usize,
    /// Register `X = (x, p, s)`.
    x: AtomicU64,
    /// Announce array `A[0 … n-1]`, entry `q` written only by process `q` —
    /// each on its own cache line, or a `DRead`'s announcement would
    /// invalidate the line its neighbours announce on and `GetSeq` scans.
    announce: Box<[CachePadded<AtomicU64>]>,
    initial: Word,
}

/// Per-process handle of [`BoundedAbaRegister`]: [`Fig4`] on the object's
/// atomics.
pub type BoundedAbaHandle<'a> = Handle<'a, Fig4<SeqRecycler>>;

impl BoundedAbaRegister {
    /// A register for `n` processes with initial value [`INITIAL_WORD`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_PROCESSES`.
    pub fn new(n: usize) -> Self {
        Self::with_initial(n, INITIAL_WORD)
    }

    /// A register for `n` processes with the given initial value.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > MAX_PROCESSES`.
    pub fn with_initial(n: usize, initial: Word) -> Self {
        assert!(n > 0, "need at least one process");
        assert!(n <= MAX_PROCESSES, "at most {MAX_PROCESSES} processes");
        let announce = (0..n)
            .map(|_| CachePadded::new(AtomicU64::new(Pair::initial().pack())))
            .collect();
        BoundedAbaRegister {
            n,
            x: AtomicU64::new(Triple::initial(initial).pack()),
            announce,
            initial,
        }
    }

    /// The initial value the register was created with.
    pub fn initial_value(&self) -> Word {
        self.initial
    }

    /// Obtain the concrete per-process handle.
    ///
    /// # Panics
    ///
    /// Panics if `pid >= self.processes()`.
    pub fn handle(&self, pid: ProcessId) -> BoundedAbaHandle<'_> {
        let code = Fig4::new(pid, pid, SeqRecycler::new(self.n, pid));
        Handle::new(pid, code, &self.x, &self.announce)
    }
}

impl AbaRegisterObject for BoundedAbaRegister {
    fn processes(&self) -> usize {
        self.n
    }

    fn space(&self) -> SpaceUsage {
        // X plus the n announce registers; each holds b + 2·log n + O(1) bits
        // (we report the physical 64, not the cache line it is padded to).
        SpaceUsage::registers(self.n + 1, 64)
    }

    fn name(&self) -> &'static str {
        "Figure 4 (n+1 registers)"
    }

    fn handle(&self, pid: ProcessId) -> Box<dyn AbaHandle + '_> {
        Box::new(BoundedAbaRegister::handle(self, pid))
    }
}

/// Figure 4's per-process code and its local variables — the flag `b` and,
/// in `seqs`, `GetSeq`'s `usedQ`, `na` and `c` — on any [`Mem`] whose `X` is
/// the register `(x, p, s)` and whose `A` is the announce array.
#[derive(Debug, Clone)]
pub struct Fig4<S> {
    pid: ProcessId,
    /// The entry of `A` this process announces on: `pid`, unless a simulated
    /// instance is deliberately given fewer registers than processes.
    slot: usize,
    /// Local flag `b`: a write linearized during my previous `DRead` after
    /// that operation's linearization point.
    b: bool,
    seqs: S,
}

impl<S: GetSeq> Fig4<S> {
    /// The code of process `pid`, announcing on `A[slot]` and drawing its
    /// sequence numbers from `seqs`.
    pub fn new(pid: ProcessId, slot: usize, seqs: S) -> Self {
        Fig4 {
            pid,
            slot,
            b: false,
            seqs,
        }
    }
}

impl<S: GetSeq> RegisterCode for Fig4<S> {
    /// `DWrite(x)` — Figure 4 lines 26–27.
    #[inline]
    fn dwrite<M: Mem>(&mut self, value: Word, m: &mut M) -> Result<(), M::Stop> {
        // line 26: s <- GetSeq()   (one shared read of A[c], lines 28–33)
        let slot = self.seqs.slot_to_scan();
        let announced = Pair::unpack(m.read(Obj::A(slot))?);
        let seq = self.seqs.get_seq(slot, announced);
        // line 27: X.Write(x, p, s)
        let pid = self.pid as u16;
        m.write(Obj::X, Triple { value, pid, seq }.pack())
    }

    /// `DRead()` — Figure 4 lines 38–50.
    #[inline]
    fn dread<M: Mem>(&mut self, m: &mut M) -> Result<(Word, bool), M::Stop> {
        // line 38: (x, p, s) <- X.Read()
        let first = Triple::unpack(m.read(Obj::X)?);
        // line 39: (r, sr) <- A[q].Read()
        let old_announce = Pair::unpack(m.read(Obj::A(self.slot))?);
        // line 40: A[q].Write(p, s)
        m.write(Obj::A(self.slot), first.pair().pack())?;
        // line 41: (x', p', s') <- X.Read()
        let second = Triple::unpack(m.read(Obj::X)?);
        // lines 42–45: decide the return value.
        let flag = if first.pair() == old_announce {
            self.b
        } else {
            true
        };
        // lines 46–49: prepare b for the next DRead.
        self.b = first != second;
        Ok((first.value, flag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn x_of(reg: &BoundedAbaRegister) -> Triple {
        Triple::unpack(reg.x.load(Ordering::SeqCst))
    }

    #[test]
    fn first_read_is_clean() {
        let reg = BoundedAbaRegister::new(3);
        let mut r = reg.handle(1);
        assert_eq!(r.dread(), (INITIAL_WORD, false));
        assert_eq!(r.dread(), (INITIAL_WORD, false));
    }

    #[test]
    fn write_then_read_reports_change_exactly_once() {
        let reg = BoundedAbaRegister::new(3);
        let mut w = reg.handle(0);
        let mut r = reg.handle(1);
        w.dwrite(42);
        assert_eq!(r.dread(), (42, true));
        assert_eq!(r.dread(), (42, false));
        assert_eq!(r.dread(), (42, false));
    }

    #[test]
    fn each_reader_sees_the_change_independently() {
        let reg = BoundedAbaRegister::new(4);
        let mut w = reg.handle(0);
        let mut r1 = reg.handle(1);
        let mut r2 = reg.handle(2);
        w.dwrite(5);
        assert_eq!(r1.dread(), (5, true));
        assert_eq!(r2.dread(), (5, true));
        assert_eq!(r1.dread(), (5, false));
        assert_eq!(r2.dread(), (5, false));
    }

    #[test]
    fn aba_same_value_is_detected() {
        // The defining scenario: value goes A -> B -> A between two reads.
        let reg = BoundedAbaRegister::new(2);
        let mut w = reg.handle(0);
        let mut r = reg.handle(1);
        w.dwrite(1);
        assert_eq!(r.dread(), (1, true));
        w.dwrite(2);
        w.dwrite(1);
        let (v, changed) = r.dread();
        assert_eq!(v, 1);
        assert!(changed, "Figure 4 must detect the ABA");
        assert_eq!(r.dread(), (1, false));
    }

    #[test]
    fn repeated_rewrites_of_same_value_always_detected() {
        let reg = BoundedAbaRegister::new(2);
        let mut w = reg.handle(0);
        let mut r = reg.handle(1);
        for round in 0..100 {
            w.dwrite(7);
            let (v, changed) = r.dread();
            assert_eq!(v, 7);
            assert!(changed, "round {round}");
            let (_, changed2) = r.dread();
            assert!(!changed2, "round {round}");
        }
    }

    #[test]
    fn multi_writer_interleaving() {
        let reg = BoundedAbaRegister::new(3);
        let mut w0 = reg.handle(0);
        let mut w1 = reg.handle(1);
        let mut r = reg.handle(2);
        w0.dwrite(1);
        w1.dwrite(2);
        assert_eq!(r.dread(), (2, true));
        w0.dwrite(3);
        assert_eq!(r.dread(), (3, true));
        assert_eq!(r.dread(), (3, false));
    }

    #[test]
    fn writer_reading_its_own_writes() {
        let reg = BoundedAbaRegister::new(2);
        let mut h = reg.handle(0);
        h.dwrite(9);
        assert_eq!(h.dread(), (9, true));
        assert_eq!(h.dread(), (9, false));
        h.dwrite(9);
        assert_eq!(h.dread(), (9, true));
    }

    #[test]
    fn step_complexity_is_constant() {
        // The headline claim of Theorem 3: O(1) steps regardless of n.
        for n in [1usize, 2, 8, 64, 512] {
            let reg = BoundedAbaRegister::new(n);
            let mut w = reg.handle(0);
            let mut r = reg.handle(n - 1);
            for _ in 0..10 {
                w.dwrite(3);
                assert_eq!(w.last_op_steps(), 2, "DWrite steps at n={n}");
                r.dread();
                assert_eq!(r.last_op_steps(), 4, "DRead steps at n={n}");
            }
        }
    }

    #[test]
    fn space_is_n_plus_one_registers() {
        let reg = BoundedAbaRegister::new(17);
        let space = AbaRegisterObject::space(&reg);
        assert_eq!(space.registers, 18);
        assert_eq!(space.total_objects(), 18);
        assert!(space.bounded);
    }

    #[test]
    fn announce_entries_own_their_cache_lines() {
        let reg = BoundedAbaRegister::new(3);
        let at = |q: usize| &reg.announce[q] as *const _ as usize;
        assert!(at(0).is_multiple_of(64) && at(1) - at(0) >= 64);
        // Padding is layout, not space in the paper's sense.
        assert_eq!(AbaRegisterObject::space(&reg).total_objects(), 4);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 10⁵ publications
    fn largest_system_publishes_inside_its_domain() {
        let n = MAX_PROCESSES;
        let reg = BoundedAbaRegister::new(n);
        let mut w = reg.handle(n - 1);
        let mut r = reg.handle(0);
        let published = (0..3 * (n + 1)).map(|i| {
            w.dwrite(i as Word);
            if i % 1_000 == 0 {
                // Leaves an announcement of the writer's for GetSeq to find.
                r.dread();
            }
            x_of(&reg).seq
        });
        crate::seqpool::assert_recycling_window(n, published);
    }

    #[test]
    fn sequence_numbers_stay_in_domain() {
        let reg = BoundedAbaRegister::new(3);
        let mut w = reg.handle(0);
        for i in 0..200 {
            w.dwrite(i);
            let t = x_of(&reg);
            assert!(t.seq < 2 * 3 + 2, "seq {} out of domain", t.seq);
            assert_eq!(t.pid, 0);
        }
    }

    #[test]
    fn single_process_degenerate_case() {
        let reg = BoundedAbaRegister::new(1);
        let mut h = reg.handle(0);
        assert_eq!(h.dread(), (INITIAL_WORD, false));
        h.dwrite(1);
        assert_eq!(h.dread(), (1, true));
        assert_eq!(h.dread(), (1, false));
    }

    #[test]
    fn trait_object_interface() {
        let reg = BoundedAbaRegister::new(2);
        let obj: &dyn AbaRegisterObject = &reg;
        assert_eq!(obj.processes(), 2);
        assert_eq!(obj.name(), "Figure 4 (n+1 registers)");
        let mut h = obj.handle(0);
        h.dwrite(4);
        let mut r = obj.handle(1);
        assert_eq!(r.dread(), (4, true));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_pid() {
        let reg = BoundedAbaRegister::new(2);
        let _ = reg.handle(7);
    }

    #[test]
    fn with_initial_value() {
        let reg = BoundedAbaRegister::with_initial(2, 123);
        let mut r = reg.handle(1);
        assert_eq!(r.dread(), (123, false));
        assert_eq!(reg.initial_value(), 123);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use aba_spec::SeqAbaRegister;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Write(usize, Word),
        Read(usize),
    }

    fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..n, 0u32..16).prop_map(|(p, v)| Op::Write(p, v)),
            (0..n).prop_map(Op::Read),
        ]
    }

    proptest! {
        /// Under purely sequential use (no concurrency), Figure 4 must agree
        /// exactly with the sequential specification, for any interleaving of
        /// operations and any number of processes.
        #[test]
        fn sequentially_equivalent_to_spec(
            n in 1usize..6,
            ops in proptest::collection::vec(op_strategy(6), 1..300),
        ) {
            let reg = BoundedAbaRegister::new(n);
            let mut spec = SeqAbaRegister::new(n, INITIAL_WORD);
            let mut handles: Vec<_> = (0..n).map(|p| reg.handle(p)).collect();
            for op in ops {
                match op {
                    Op::Write(p, v) => {
                        let p = p % n;
                        handles[p].dwrite(v);
                        spec.dwrite(p, v);
                    }
                    Op::Read(p) => {
                        let p = p % n;
                        let got = handles[p].dread();
                        let want = spec.dread(p);
                        prop_assert_eq!(got, want);
                    }
                }
            }
        }

        /// Step complexity never exceeds the constants claimed above, no
        /// matter the operation mix.
        #[test]
        fn step_complexity_bounds(
            n in 1usize..10,
            ops in proptest::collection::vec(op_strategy(10), 1..100),
        ) {
            let reg = BoundedAbaRegister::new(n);
            let mut handles: Vec<_> = (0..n).map(|p| reg.handle(p)).collect();
            for op in ops {
                match op {
                    Op::Write(p, v) => {
                        let h = &mut handles[p % n];
                        h.dwrite(v);
                        prop_assert_eq!(h.last_op_steps(), 2);
                    }
                    Op::Read(p) => {
                        let h = &mut handles[p % n];
                        h.dread();
                        prop_assert_eq!(h.last_op_steps(), 4);
                    }
                }
            }
        }
    }
}
