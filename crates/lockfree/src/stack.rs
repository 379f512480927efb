//! Treiber stacks with pluggable ABA protection (experiment E6).
//!
//! There is exactly **one** push/pop implementation here —
//! [`GenericStack`]`<R>` — written against the [`Reclaimer`] strategy trait
//! from `aba-reclaim`; the five scheme instantiations differ only in the
//! type parameter, which is precisely the design decision the paper is
//! about:
//!
//! | Alias | Reclaimer | ABA handling | Expected outcome |
//! |-------|-----------|--------------|------------------|
//! | [`UnprotectedStack`] | [`NoReclaim`] | none | ABA events, lost/duplicated values |
//! | [`TaggedStack`] | [`TagReclaim`] | unbounded tag (§1 tagging) | correct |
//! | [`HazardStack`] | [`HazardReclaim`] | reclamation deferral [20, 21] | correct |
//! | [`EpochStack`] | [`EpochReclaim`] | epoch / quiescence reclamation | correct |
//! | [`LlScStack`] | [`LlScReclaim`] | LL/SC semantics (Theorem 2 context) | correct |
//!
//! [`ElimStack`]`<R>` layers an *elimination array* (Hendler, Shavit &
//! Yerushalmi, SPAA'04) in front of any of the five: once the central head
//! CAS has failed a bounded streak of attempts, a push parks its value in a
//! cache-line-padded exchange slot and a colliding pop takes it directly,
//! off-stack.  Exchanged values never touch the [`NodeArena`], so the
//! protocol is orthogonal to the reclamation scheme — see DESIGN.md §11.
//!
//! This file holds the head slot and the Treiber code, [`Treiber`], written
//! against [`NodeMem`] so that the simulator runs the same text (DESIGN.md
//! §3.2); the elimination front end runs one attempt of it at a time.
//! Allocation, retirement, the retry budget, the ABA tally and the handle's
//! drop are the crate's shared node lifecycle (`nodes.rs`), whose per-thread
//! `Worker` is the hardware [`NodeMem`].

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};

use aba_core::Backoff;
#[cfg(test)]
use aba_reclaim::Guard;
use aba_reclaim::{
    EpochReclaim, HazardReclaim, LlScReclaim, NoReclaim, Reclaimer, SlotId, TagReclaim,
};

use crate::arena::{NodeArena, NIL};
use crate::mem::{Attempt, NodeMem};
use crate::nodes::{Nodes, Worker};
use crate::{Family, Production, Racing, Window};

/// A bounded, concurrent LIFO with per-thread handles.
pub trait Stack: Send + Sync {
    /// Maximum number of elements (arena capacity).
    fn capacity(&self) -> usize;
    /// Display name for experiment tables.
    fn name(&self) -> &'static str;
    /// Number of ABA events detected so far (always 0 for the protected
    /// variants).
    fn aba_events(&self) -> u64;
    /// Nodes retired but not yet returned to the arena — the protection
    /// scheme's space overhead (0 for immediate-free schemes).
    fn unreclaimed(&self) -> u64;
    /// Number of operations that failed on the allocation fast path (arena
    /// exhausted, or allocation denied by the scheme's limbo-bound
    /// admission): the ops a throughput report must not count as completed.
    fn alloc_failures(&self) -> u64;
    /// Obtain the per-thread handle for `tid`: operations run at algorithm
    /// cost.  What every measurement uses, at every thread count.
    fn handle(&self, tid: usize) -> Box<dyn StackHandle + '_>;
    /// The same handle with the preemption window open: the thread yields
    /// between reading the head and the CAS that acts on it.  For the
    /// adversaries only — the stress harnesses, the race-provoking tests
    /// and the benchmark's correctness gate (DESIGN.md §7).
    fn racing_handle(&self, tid: usize) -> Box<dyn StackHandle + '_>;
}

/// Per-thread handle of a [`Stack`].
pub trait StackHandle: Send {
    /// Push a value; returns `false` if the arena is exhausted.
    fn push(&mut self, value: u32) -> bool;
    /// Pop a value, if any.
    fn pop(&mut self) -> Option<u32>;
}

/// Protection lanes per handle: a pop protects the head node in lane 0.
pub const LANES: usize = 1;

/// Treiber stack over a [`NodeArena`], generic in its ABA-protection /
/// reclamation scheme `R`.  The head word lives inside the reclaimer (which
/// owns its encoding); push and pop are [`Treiber`]'s loops, every shared
/// access routed through the per-thread
/// [`Guard`](aba_reclaim::Guard).
#[derive(Debug)]
pub struct GenericStack<R: Reclaimer> {
    nodes: Nodes<R>,
    head: SlotId,
}

impl<R: Reclaimer> GenericStack<R> {
    /// A stack backed by `capacity` nodes, used by at most `threads`
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or too large for the scheme's index field.
    pub fn with_threads(capacity: usize, threads: usize) -> Self {
        assert!(capacity < u32::MAX as usize, "capacity too large");
        let mut nodes = Nodes::<R>::new(NodeArena::new(capacity), threads, LANES);
        let head = nodes.reclaim.add_slot(NIL);
        GenericStack { nodes, head }
    }
}

impl<R: Reclaimer> Stack for GenericStack<R> {
    fn capacity(&self) -> usize {
        self.nodes.arena.capacity()
    }

    fn name(&self) -> &'static str {
        Family::Stack.label(R::SCHEME)
    }

    fn aba_events(&self) -> u64 {
        self.nodes.aba_events()
    }

    fn unreclaimed(&self) -> u64 {
        self.nodes.unreclaimed()
    }

    fn alloc_failures(&self) -> u64 {
        self.nodes.alloc_failures()
    }

    fn handle(&self, tid: usize) -> Box<dyn StackHandle + '_> {
        Box::new(GenericStackHandle::<R, Production>::new(self, tid))
    }

    fn racing_handle(&self, tid: usize) -> Box<dyn StackHandle + '_> {
        Box::new(GenericStackHandle::<R, Racing>::new(self, tid))
    }
}

struct GenericStackHandle<'a, R: Reclaimer, W: Window> {
    code: Treiber,
    worker: Worker<'a, R, W>,
}

impl<'a, R: Reclaimer, W: Window> GenericStackHandle<'a, R, W> {
    fn new(stack: &'a GenericStack<R>, tid: usize) -> Self {
        GenericStackHandle {
            code: Treiber::new(stack.head),
            worker: stack.nodes.worker(tid),
        }
    }

    /// Run `attempt` at most `tries` times, backing off between them, then
    /// release the protections: its value, or `None` if every try lost.
    fn tries<T>(
        &mut self,
        tries: usize,
        attempt: impl Fn(Treiber, &mut Worker<'a, R, W>) -> Result<Attempt<T>, Infallible>,
    ) -> Option<T> {
        let (code, w) = (self.code, &mut self.worker);
        let mut done = None;
        // retry-bound: at most `tries` CAS rounds.
        for k in 0..tries {
            if k > 0 {
                w.backoff.pause();
            }
            if let Ok(Attempt::Done(value)) = attempt(code, w) {
                w.backoff.reset();
                done = Some(value);
                break;
            }
        }
        let Ok(()) = w.quiesce();
        done
    }
}

impl<R: Reclaimer, W: Window> StackHandle for GenericStackHandle<'_, R, W> {
    fn push(&mut self, value: u32) -> bool {
        let Ok(pushed) = self.code.push(value, &mut self.worker);
        pushed
    }

    fn pop(&mut self) -> Option<u32> {
        let Ok(value) = self.code.pop(&mut self.worker);
        value
    }
}

/// The Treiber stack's per-thread code: the slot id of its head and the two
/// operations, written once against [`NodeMem`].  On a hardware handle's
/// worker they are [`GenericStack`]'s operations, and one attempt of each is
/// [`ElimStack`]'s central path; on the simulator's replay memory they are
/// the step-by-step processes of the `stack/*` model rows.
#[derive(Debug, Clone, Copy)]
pub struct Treiber {
    head: SlotId,
}

impl Treiber {
    /// The code of a stack whose head word is `head`.
    pub const fn new(head: SlotId) -> Self {
        Treiber { head }
    }

    /// Push `value`; `false` if no node could be allocated, or if the retry
    /// budget ran out (counted as an ABA event).
    pub fn push<M: NodeMem>(&self, value: u32, m: &mut M) -> Result<bool, M::Stop> {
        let Some(idx) = m.alloc(value, 0)? else {
            return Ok(false);
        };
        // retry-bound: the head CAS fails only when another operation moved
        // the head — system-wide progress.
        if m.retry(|m| self.push_attempt(idx, m))?.is_none() {
            m.bail()?;
            m.free(idx)?;
            return Ok(false);
        }
        m.quiesce()?;
        Ok(true)
    }

    /// Pop the newest value; `None` if the stack is empty, or if the retry
    /// budget ran out.
    pub fn pop<M: NodeMem>(&self, m: &mut M) -> Result<Option<u32>, M::Stop> {
        // retry-bound: as for the push.
        let popped = m.retry(|m| self.pop_attempt(m))?;
        // The operation is over: drop the pin.  A popper that never quiesces
        // stays pinned at its first operation's epoch and blocks every later
        // advance — the E9 parking pathology reproduced from inside the
        // structure.
        match popped {
            Some(_) => m.quiesce()?,
            None => m.bail()?,
        }
        Ok(popped.flatten())
    }

    /// One attempt to link node `idx`, allocated and not yet published, at
    /// the head.
    pub fn push_attempt<M: NodeMem>(&self, idx: u64, m: &mut M) -> Result<Attempt<()>, M::Stop> {
        // A plain load suffices: push never dereferences the head node, it
        // only links to it.
        let head_raw = m.load(self.head)?;
        let head = m.index_of(head_raw);
        m.store_link(idx, head)?;
        Ok(if m.cas(self.head, head_raw, idx)? {
            Attempt::Done(())
        } else {
            // Lost the race: back off before retrying so the winning thread
            // can finish publishing and the loop cannot monopolise a core.
            Attempt::Lost
        })
    }

    /// One attempt to unlink the head node: its value, or `None` if the
    /// stack was observed empty.
    ///
    /// `always`: the pop's retry loop and the elimination front end both
    /// run it, and with a plain hint LLVM kept it out of line, one call per
    /// pop (EXPERIMENTS.md E35).
    #[inline(always)]
    pub fn pop_attempt<M: NodeMem>(&self, m: &mut M) -> Result<Attempt<Option<u32>>, M::Stop> {
        let head_raw = m.protect(0, self.head)?;
        let head = m.index_of(head_raw);
        if head == NIL {
            return Ok(Attempt::Done(None));
        }
        // Remember the node's identity (generation) at read time for the
        // post-CAS ABA tally.
        let generation = m.generation(head);
        let next_raw = m.load_link(head)?;
        let next = m.index_of(next_raw);
        m.window();
        if !m.cas(self.head, head_raw, next)? {
            // Lost the race: back off before re-protecting the new head.
            return Ok(Attempt::Lost);
        }
        m.tally(head, generation);
        // Read the value *before* retiring: an immediate-free scheme may
        // recycle the node the instant it is handed back.
        let value = m.value(head)?;
        m.retire(head)?;
        Ok(Attempt::Done(Some(value)))
    }
}

// ---------------------------------------------------------------------------
// Elimination-backoff front end (Hendler, Shavit & Yerushalmi, SPAA'04)
// ---------------------------------------------------------------------------

/// Exchange-slot states, stored in bits 33:32 of the slot word.
const ELIM_EMPTY: u64 = 0;
/// A parked pusher's value is in the slot, waiting for a popper.
const ELIM_ITEM: u64 = 1;
/// A popper claimed the value; the owning pusher acknowledges and clears.
const ELIM_TAKEN: u64 = 2;

/// Sequence-number width.  The sequence makes each slot occupancy unique so
/// a pusher's timeout CAS can only cancel *its own* parked item, never a
/// later occupant that happens to carry the same value — the slot-word
/// analogue of the tagging scheme's ABA defence.
const ELIM_SEQ_BITS: u64 = 30;

/// Pack `(seq, state, value)` into one CAS word:
/// `[seq:30][state:2][value:32]`.
fn elim_word(seq: u64, state: u64, value: u32) -> u64 {
    ((seq & ((1 << ELIM_SEQ_BITS) - 1)) << 34) | (state << 32) | u64::from(value)
}

fn elim_state(word: u64) -> u64 {
    (word >> 32) & 0b11
}

fn elim_seq(word: u64) -> u64 {
    word >> 34
}

fn elim_value(word: u64) -> u32 {
    word as u32
}

/// One exchange word, alone on its cache line so that parked pushers and
/// scanning poppers never false-share with neighbouring slots.
#[repr(align(64))]
#[derive(Debug)]
struct ExchangeSlot {
    word: AtomicU64,
}

impl ExchangeSlot {
    fn new() -> Self {
        ExchangeSlot {
            word: AtomicU64::new(elim_word(0, ELIM_EMPTY, 0)),
        }
    }
}

/// Tuning knobs for the elimination front end.
#[derive(Debug, Clone, Copy)]
pub struct ElimPolicy {
    /// Failed head-CAS streak after which an operation diverts to the
    /// elimination array.  `0` disables the central stack entirely (every
    /// operation must eliminate) — useful only in forced-collision tests,
    /// since a lone push can then never complete, and an arena-full
    /// condition is never reported.
    pub central_attempts: usize,
    /// Bounded number of wait rounds (one scheduler yield each) a parked
    /// pusher spends in its slot before cancelling and returning to the
    /// central stack.
    pub exchange_spins: usize,
}

impl Default for ElimPolicy {
    fn default() -> Self {
        // central_attempts: long enough that the uncontended path never
        // diverts, short enough to divert within one backoff spin phase.
        // exchange_spins: a parked pusher waits a handful of yields — a
        // colliding popper on the same slot arrives within one scheduling
        // round or not at all.
        ElimPolicy {
            central_attempts: 2,
            exchange_spins: 8,
        }
    }
}

/// [`GenericStack`] with an elimination array in front of it.
///
/// Push and pop first try the central Treiber stack; after
/// [`ElimPolicy::central_attempts`] consecutive failed head CASes they
/// divert to a fixed array of cache-line-padded exchange slots, where a
/// colliding push/pop pair trades the value directly and returns without
/// ever touching the head word — converting contention into throughput.
/// A parked push that no popper meets within
/// [`ElimPolicy::exchange_spins`] wait rounds cancels and returns to the
/// central stack, so every operation remains lock-free.
///
/// **Scheme orthogonality.** Exchanged values travel slot-word → register,
/// never through the [`NodeArena`]: no node is allocated, retired, or
/// reclaimed for an eliminated pair, so all five [`Reclaimer`] encodings
/// work unchanged underneath (the slot word carries its own sequence
/// number, which is all the ABA protection *it* needs).
///
/// **Linearizability.** An eliminated pair always overlaps in real time
/// (the pusher is still parked when the popper claims the value), so the
/// pair linearizes back-to-back — push immediately followed by the
/// matching pop — leaving the abstract stack unchanged; `aba-spec`'s
/// `check_history` under `Spec::Stack` accepts such histories and the
/// elimination tests exercise it.
#[derive(Debug)]
pub struct ElimStack<R: Reclaimer> {
    inner: GenericStack<R>,
    slots: Box<[ExchangeSlot]>,
    policy: ElimPolicy,
    exchanges: AtomicU64,
}

impl<R: Reclaimer> ElimStack<R> {
    /// An elimination-backoff stack backed by `capacity` nodes, used by at
    /// most `threads` threads, with the default [`ElimPolicy`].
    pub fn with_threads(capacity: usize, threads: usize) -> Self {
        Self::with_policy(capacity, threads, ElimPolicy::default())
    }

    /// As [`Self::with_threads`], with explicit tuning knobs.
    pub fn with_policy(capacity: usize, threads: usize, policy: ElimPolicy) -> Self {
        // One slot per pair of threads, clamped: below 2 threads collisions
        // are impossible, and past 8 slots a popper's scan costs more than
        // the contention it avoids.
        let slot_count = (threads / 2).clamp(1, 8);
        ElimStack {
            inner: GenericStack::with_threads(capacity, threads),
            slots: (0..slot_count).map(|_| ExchangeSlot::new()).collect(),
            policy,
            exchanges: AtomicU64::new(0),
        }
    }

    /// Number of push/pop pairs that exchanged values off-stack (counted
    /// once per pair, on the popper's claim).
    pub fn exchanges(&self) -> u64 {
        self.exchanges.load(Ordering::SeqCst)
    }
}

impl<R: Reclaimer> Stack for ElimStack<R> {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn name(&self) -> &'static str {
        Family::ElimStack.label(R::SCHEME)
    }

    fn aba_events(&self) -> u64 {
        self.inner.aba_events()
    }

    fn unreclaimed(&self) -> u64 {
        self.inner.unreclaimed()
    }

    fn alloc_failures(&self) -> u64 {
        self.inner.alloc_failures()
    }

    fn handle(&self, tid: usize) -> Box<dyn StackHandle + '_> {
        Box::new(ElimStackHandle::<R, Production>::new(self, tid))
    }

    fn racing_handle(&self, tid: usize) -> Box<dyn StackHandle + '_> {
        Box::new(ElimStackHandle::<R, Racing>::new(self, tid))
    }
}

struct ElimStackHandle<'a, R: Reclaimer, W: Window> {
    stack: &'a ElimStack<R>,
    central: GenericStackHandle<'a, R, W>,
    backoff: Backoff,
}

impl<R: Reclaimer, W: Window> std::fmt::Debug for ElimStackHandle<'_, R, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElimStackHandle").finish_non_exhaustive()
    }
}

impl<'a, R: Reclaimer, W: Window> ElimStackHandle<'a, R, W> {
    fn new(stack: &'a ElimStack<R>, tid: usize) -> Self {
        ElimStackHandle {
            stack,
            central: GenericStackHandle::new(&stack.inner, tid),
            backoff: Backoff::new(tid as u64 ^ 0x5157_454c_494d), // decorrelate from the central handle's stream
        }
    }

    /// Park `value` in a randomly chosen empty slot and wait (bounded) for
    /// a popper.  `true` iff a popper claimed the value — the push is then
    /// complete without the central stack ever being touched.
    fn try_exchange_push(&mut self, value: u32) -> bool {
        let slots = &self.stack.slots;
        let slot = &slots[(self.backoff.next_rand() as usize) % slots.len()];
        let observed = slot.word.load(Ordering::SeqCst);
        if elim_state(observed) != ELIM_EMPTY {
            // Someone else is mid-exchange here; don't pile on.
            return false;
        }
        let seq = elim_seq(observed).wrapping_add(1);
        let parked = elim_word(seq, ELIM_ITEM, value);
        let taken = elim_word(seq, ELIM_TAKEN, value);
        let cleared = elim_word(seq.wrapping_add(1), ELIM_EMPTY, 0);
        if slot
            .word
            .compare_exchange(observed, parked, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        // retry-bound: exchange_spins wait rounds, then cancel.
        for _ in 0..self.stack.policy.exchange_spins {
            if slot.word.load(Ordering::SeqCst) == taken {
                slot.word.store(cleared, Ordering::SeqCst);
                return true;
            }
            std::thread::yield_now();
        }
        // Timed out: cancel — unless a popper claimed the value in the
        // meantime, in which case the only possible slot transition was
        // parked → taken, and the exchange succeeded after all.
        if slot
            .word
            .compare_exchange(parked, cleared, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return false;
        }
        debug_assert_eq!(slot.word.load(Ordering::SeqCst), taken);
        slot.word.store(cleared, Ordering::SeqCst);
        true
    }

    /// Scan the elimination array for a parked pusher and claim its value.
    fn try_exchange_pop(&mut self) -> Option<u32> {
        let slots = &self.stack.slots;
        let start = (self.backoff.next_rand() as usize) % slots.len();
        // retry-bound: one pass over the (fixed-size) slot array.
        for k in 0..slots.len() {
            let slot = &slots[(start + k) % slots.len()];
            let observed = slot.word.load(Ordering::SeqCst);
            if elim_state(observed) != ELIM_ITEM {
                continue;
            }
            let taken = elim_word(elim_seq(observed), ELIM_TAKEN, elim_value(observed));
            if slot
                .word
                .compare_exchange(observed, taken, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                // One exchange = one claim; the parked pusher sees TAKEN and
                // completes without counting.
                self.stack.exchanges.fetch_add(1, Ordering::SeqCst);
                return Some(elim_value(observed));
            }
        }
        None
    }
}

impl<R: Reclaimer, W: Window> ElimStackHandle<'_, R, W> {
    /// Push `value` on the central stack, giving up once
    /// [`ElimPolicy::central_attempts`] head CASes in a row have failed:
    /// `None` then, `Some(false)` if no node could be allocated.
    fn push_central(&mut self, value: u32) -> Option<bool> {
        let tries = self.stack.policy.central_attempts;
        if tries == 0 {
            return None;
        }
        let central = &mut self.central;
        let Ok(Some(idx)) = central.worker.alloc(value, 0) else {
            return Some(false);
        };
        let pushed = central.tries(tries, |code, w| code.push_attempt(idx, w));
        if pushed.is_none() {
            // The node was never published, so it can go straight back.
            let Ok(()) = central.worker.free(idx);
        }
        pushed.map(|()| true)
    }
}

impl<R: Reclaimer, W: Window> StackHandle for ElimStackHandle<'_, R, W> {
    fn push(&mut self, value: u32) -> bool {
        // retry-bound: each round is bounded (central_attempts CAS rounds +
        // exchange_spins wait rounds); the loop itself has the same
        // unbounded-but-lock-free shape as GenericStack::push.
        loop {
            if let Some(pushed) = self.push_central(value) {
                return pushed;
            }
            if self.try_exchange_push(value) {
                self.backoff.reset();
                return true;
            }
            self.backoff.pause();
        }
    }

    fn pop(&mut self) -> Option<u32> {
        // retry-bound: see push above.
        loop {
            let tries = self.stack.policy.central_attempts;
            match self.central.tries(tries, |code, w| code.pop_attempt(w)) {
                Some(Some(value)) => return Some(value),
                Some(None) => {
                    // The central stack is empty, but a parked pusher may be
                    // sitting in the array; its push overlaps this pop, so
                    // claiming it is admissible — and returning None
                    // otherwise is too (the pair did not exchange).
                    return self.try_exchange_pop();
                }
                None => {
                    if let Some(value) = self.try_exchange_pop() {
                        self.backoff.reset();
                        return Some(value);
                    }
                    self.backoff.pause();
                }
            }
        }
    }
}

/// Elimination-backoff stack over the unprotected scheme.
pub type UnprotectedElimStack = ElimStack<NoReclaim>;
/// Elimination-backoff stack over the tagging scheme.
pub type TaggedElimStack = ElimStack<TagReclaim>;
/// Elimination-backoff stack over hazard pointers.
pub type HazardElimStack = ElimStack<HazardReclaim>;
/// Elimination-backoff stack over epoch reclamation.
pub type EpochElimStack = ElimStack<EpochReclaim>;
/// Elimination-backoff stack over the LL/SC head.
pub type LlScElimStack = ElimStack<LlScReclaim>;

/// Treiber stack with a bare-index head and immediate node recycling — the
/// textbook ABA victim.
pub type UnprotectedStack = GenericStack<NoReclaim>;

/// Treiber stack whose head packs `(index, tag)` into one CAS word; the tag
/// is incremented by every successful head CAS (§1 tagging).
pub type TaggedStack = GenericStack<TagReclaim>;

/// Treiber stack with a bare-index head protected by hazard pointers: a
/// popped node is retired and only recycled when no thread protects it.
pub type HazardStack = GenericStack<HazardReclaim>;

/// Treiber stack under epoch-based reclamation: pop pins the current epoch,
/// and a popped node returns to the arena only after two epoch advances.
pub type EpochStack = GenericStack<EpochReclaim>;

/// Treiber stack whose head is an LL/SC/VL object: the SC fails whenever any
/// successful SC intervened, so a recycled index can never be confused with
/// its previous incarnation.
pub type LlScStack = GenericStack<LlScReclaim>;

#[cfg(test)]
mod tests {
    use super::*;

    fn lifo_smoke(stack: &dyn Stack) {
        let mut h = stack.handle(0);
        assert!(h.push(1));
        assert!(h.push(2));
        assert!(h.push(3));
        assert_eq!(h.pop(), Some(3));
        assert_eq!(h.pop(), Some(2));
        assert_eq!(h.pop(), Some(1));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn all_variants_are_lifo_sequentially() {
        lifo_smoke(&UnprotectedStack::with_threads(8, 1));
        lifo_smoke(&TaggedStack::with_threads(8, 1));
        lifo_smoke(&HazardStack::with_threads(8, 2));
        lifo_smoke(&EpochStack::with_threads(8, 2));
        lifo_smoke(&LlScStack::with_threads(8, 2));
    }

    #[test]
    fn elim_variants_are_lifo_sequentially() {
        lifo_smoke(&UnprotectedElimStack::with_threads(8, 2));
        lifo_smoke(&TaggedElimStack::with_threads(8, 2));
        lifo_smoke(&HazardElimStack::with_threads(8, 2));
        lifo_smoke(&EpochElimStack::with_threads(8, 2));
        lifo_smoke(&LlScElimStack::with_threads(8, 2));
    }

    #[test]
    fn exchange_slot_word_encoding_round_trips() {
        let w = elim_word(12345, ELIM_ITEM, 0xdead_beef);
        assert_eq!(elim_seq(w), 12345);
        assert_eq!(elim_state(w), ELIM_ITEM);
        assert_eq!(elim_value(w), 0xdead_beef);
        // The sequence wraps inside its field instead of spilling into it.
        let wrapped = elim_word((1 << ELIM_SEQ_BITS) + 7, ELIM_TAKEN, 1);
        assert_eq!(elim_seq(wrapped), 7);
        assert_eq!(elim_state(wrapped), ELIM_TAKEN);
    }

    #[test]
    fn exchange_slots_are_cache_line_padded() {
        // Elimination slots share an array; padding keeps a parked pusher's
        // spin from invalidating its neighbour's line (layout regression
        // test, companion to the arena's node-layout test).
        assert_eq!(std::mem::size_of::<ExchangeSlot>(), 64);
        assert_eq!(std::mem::align_of::<ExchangeSlot>(), 64);
    }

    #[test]
    fn forced_collisions_exchange_off_stack() {
        // central_attempts = 0 disables the central stack: every value MUST
        // travel through the elimination array, so this pins the exchange
        // protocol itself (not the central-stack fallback).
        const OPS: u32 = 200;
        let stack = TaggedElimStack::with_policy(
            8,
            2,
            ElimPolicy {
                central_attempts: 0,
                exchange_spins: 64,
            },
        );
        let popped = std::thread::scope(|s| {
            let pusher = s.spawn(|| {
                let mut h = stack.racing_handle(0);
                for v in 0..OPS {
                    assert!(h.push(v));
                }
            });
            let popper = s.spawn(|| {
                let mut h = stack.racing_handle(1);
                let mut got = Vec::new();
                while got.len() < OPS as usize {
                    if let Some(v) = h.pop() {
                        got.push(v);
                    }
                }
                got
            });
            pusher.join().unwrap();
            popper.join().unwrap()
        });
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..OPS).collect::<Vec<_>>());
        // Every pair eliminated; nothing ever touched the arena.
        assert_eq!(stack.exchanges(), u64::from(OPS));
        assert_eq!(stack.aba_events(), 0);
        assert_eq!(stack.unreclaimed(), 0);
    }

    #[test]
    fn elim_stack_parked_pusher_times_out_back_to_central() {
        // A lone pusher under an elimination-eager policy must still make
        // progress: the park times out and the central stack absorbs it.
        let stack = EpochElimStack::with_policy(
            4,
            2,
            ElimPolicy {
                central_attempts: 1,
                exchange_spins: 2,
            },
        );
        let mut h = stack.handle(0);
        assert!(h.push(7));
        assert_eq!(h.pop(), Some(7));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn recycled_nodes_keep_values_straight_in_protected_variants() {
        for stack in [
            Box::new(TaggedStack::with_threads(4, 1)) as Box<dyn Stack>,
            Box::new(HazardStack::with_threads(4, 1)),
            Box::new(EpochStack::with_threads(4, 1)),
            Box::new(LlScStack::with_threads(4, 1)),
        ] {
            let mut h = stack.handle(0);
            for round in 0..100u32 {
                assert!(h.push(round), "{} round {round}", stack.name());
                assert!(h.push(round + 1000));
                assert_eq!(h.pop(), Some(round + 1000));
                assert_eq!(h.pop(), Some(round));
            }
            assert_eq!(stack.aba_events(), 0);
        }
    }

    #[test]
    fn hazard_stack_returns_nodes_to_arena_on_handle_drop() {
        let stack = HazardStack::with_threads(4, 2);
        {
            let mut h = stack.handle(0);
            for i in 0..4 {
                assert!(h.push(i));
            }
            for _ in 0..4 {
                assert!(h.pop().is_some());
            }
        }
        // After the handle (and its retired list) is dropped, all nodes are
        // free again.
        let mut h = stack.handle(1);
        for i in 0..4 {
            assert!(h.push(i), "node {i} was not reclaimed");
        }
    }

    #[test]
    fn epoch_stack_returns_nodes_to_arena_on_handle_drop() {
        let stack = EpochStack::with_threads(4, 2);
        {
            let mut h = stack.handle(0);
            for i in 0..4 {
                assert!(h.push(i));
            }
            for _ in 0..4 {
                assert!(h.pop().is_some());
            }
        }
        let mut h = stack.handle(1);
        for i in 0..4 {
            assert!(h.push(i), "node {i} was not reclaimed");
        }
    }

    #[test]
    fn unreclaimed_is_zero_for_immediate_free_schemes() {
        for stack in [
            Box::new(UnprotectedStack::with_threads(4, 1)) as Box<dyn Stack>,
            Box::new(TaggedStack::with_threads(4, 1)),
            Box::new(LlScStack::with_threads(4, 1)),
        ] {
            let mut h = stack.handle(0);
            assert!(h.push(1));
            assert_eq!(h.pop(), Some(1));
            drop(h);
            assert_eq!(stack.unreclaimed(), 0, "{}", stack.name());
        }
    }

    /// Regression pin for the E9/E15 limbo-parking pathology: one thread
    /// parked *while pinned* must not let the epoch scheme's limbo swallow
    /// the whole arena.  Pre-fix, a stale pin blocks every advance after the
    /// first, so churn parks `capacity` nodes in limbo (peak == capacity);
    /// post-fix, debt-bounded advancement plus allocation admission caps the
    /// peak at O(threads · trigger) ≪ capacity.
    #[test]
    fn parked_pin_keeps_epoch_limbo_bounded() {
        const THREADS: usize = 8;
        const CAPACITY: usize = 64 + 16 * THREADS; // the E9 arena: 192
        let stack = EpochStack::with_threads(CAPACITY, THREADS);
        // Deliberately parked pinned "thread": a raw guard that protects the
        // head and then never quiesces (a preempted reader, frozen forever).
        let mut parked = stack.nodes.reclaim.guard(THREADS - 1, CAPACITY);
        let _ = parked.protect(0, stack.head);
        let mut h = stack.handle(0);
        let mut peak = 0u64;
        for v in 0..(4 * CAPACITY as u32) {
            // Pop only what was actually pushed, so every limbo node traces
            // back to an admitted allocation.
            if h.push(v) {
                let _ = h.pop();
            }
            peak = peak.max(stack.unreclaimed());
        }
        assert!(
            2 * peak < CAPACITY as u64,
            "epoch peak unreclaimed {peak} of {CAPACITY}: a parked pin must \
             not park the arena in limbo"
        );
        assert!(peak > 0, "churn under a parked pin still retires nodes");
        drop(parked);
    }

    /// Companion bound for hazard pointers: a parked *protector* pins exactly
    /// one node, and the scan policy (batch trigger + scan threshold) bounds
    /// everything else, so churn under a parked protector stays well below
    /// the arena no matter how long it runs.
    #[test]
    fn parked_protector_keeps_hazard_retired_list_bounded() {
        const THREADS: usize = 8;
        const CAPACITY: usize = 64 + 16 * THREADS;
        let stack = HazardStack::with_threads(CAPACITY, THREADS);
        let mut h = stack.handle(0);
        assert!(h.push(9999)); // give the parked protector a real node to pin
        let mut parked = stack.nodes.reclaim.guard(THREADS - 1, CAPACITY);
        let pinned_raw = parked.protect(0, stack.head);
        assert_ne!(parked.index_of(pinned_raw), NIL);
        let mut peak = 0u64;
        for v in 0..(4 * CAPACITY as u32) {
            if h.push(v) {
                let _ = h.pop();
            }
            peak = peak.max(stack.unreclaimed());
        }
        assert!(
            2 * peak < CAPACITY as u64,
            "hazard peak unreclaimed {peak} of {CAPACITY}: the scan policy \
             must bound the retired list"
        );
        drop(parked);
    }

    /// Nothing is stranded in a dead magazine: once every handle has
    /// dropped, each node is in the arena's shared free list, in the stack,
    /// or in the scheme's orphaned limbo.
    #[test]
    fn dropped_handles_leave_every_node_accounted_for() {
        fn check<R: Reclaimer>() {
            const CAPACITY: usize = 256;
            let stack = GenericStack::<R>::with_threads(CAPACITY, 2);
            let mut stacked = 0;
            {
                let mut a = stack.handle(0);
                let mut b = stack.handle(1);
                for round in 0..500u32 {
                    assert!(a.push(round) && b.push(round));
                    stacked += 2;
                    if !round.is_multiple_of(5) {
                        // Each pops what the other pushed: nodes cross over.
                        assert!(a.pop().is_some() && b.pop().is_some());
                        stacked -= 2;
                    }
                }
            }
            assert_eq!(
                stack.nodes.arena.free_len() + stacked + stack.unreclaimed() as usize,
                CAPACITY,
                "{:?}",
                R::SCHEME
            );
        }
        check::<NoReclaim>();
        check::<TagReclaim>();
        check::<HazardReclaim>();
        check::<LlScReclaim>();
        check::<EpochReclaim>();
    }

    #[test]
    fn deferred_schemes_report_their_limbo_footprint() {
        // A popped node under epoch reclamation sits in limbo until two
        // advances; the gauge must see it.
        let stack = EpochStack::with_threads(64, 1);
        let mut h = stack.handle(0);
        assert!(h.push(1));
        assert_eq!(h.pop(), Some(1));
        assert_eq!(stack.unreclaimed(), 1);
        drop(h); // drop-time pressure reclaims it
        assert_eq!(stack.unreclaimed(), 0);
    }
}
