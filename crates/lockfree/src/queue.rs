//! Michael–Scott queues with pluggable ABA protection (experiment E8).
//!
//! The MPMC FIFO queue is the canonical *second* ABA-sensitive structure
//! after the Treiber stack: its dequeue reads `head`, reads `head.next`, and
//! CASes `head` forward — the textbook window in which a recycled node makes
//! the CAS succeed against a stale successor.  As with the stack, there is
//! exactly **one** enqueue/dequeue implementation — [`GenericQueue`]`<R>` —
//! over the shared [`NodeArena`] (one node is permanently consumed as the
//! running dummy); the five scheme instantiations differ only in the
//! [`Reclaimer`] type parameter:
//!
//! | Alias | Reclaimer | ABA handling | Expected outcome |
//! |-------|-----------|--------------|------------------|
//! | [`UnprotectedQueue`] | [`NoReclaim`] | none | ABA events, lost/duplicated values |
//! | [`TaggedQueue`] | [`TagReclaim`] | counted head/tail *and* next words | correct |
//! | [`HazardQueue`] | [`HazardReclaim`] | two hazards per thread [20, 21] | correct |
//! | [`EpochQueue`] | [`EpochReclaim`] | epoch / quiescence reclamation | correct |
//! | [`LlScQueue`] | [`LlScReclaim`] | LL/SC head and tail words, counted next words | correct |
//!
//! This file holds the head and tail slots and the two Michael–Scott loops,
//! [`MsQueue`], written against [`NodeMem`] so that the simulator runs the
//! same text (DESIGN.md §3.2); allocation, retirement, the retry budget, the
//! ABA tally and the handle's drop are the crate's shared node lifecycle
//! (`nodes.rs`), whose per-thread `Worker` is the hardware [`NodeMem`].

use aba_reclaim::{
    EpochReclaim, HazardReclaim, LlScReclaim, NoReclaim, Reclaimer, SlotId, TagReclaim,
};

use crate::arena::{NodeArena, NIL};
use crate::mem::{Attempt, NodeMem};
use crate::nodes::{Nodes, Worker};
use crate::{Family, Production, Racing, Window};

/// A bounded, concurrent FIFO with per-thread handles.
pub trait Queue: Send + Sync {
    /// Maximum number of elements (arena capacity minus the dummy node).
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
    /// cost.
    fn handle(&self, tid: usize) -> Box<dyn QueueHandle + '_>;
    /// The same handle with the preemption window open: the thread yields
    /// between reading head/tail and the CAS that acts on them.  For the
    /// stress harnesses, race-provoking tests and the workload engine's
    /// contended cells (DESIGN.md §7).
    fn racing_handle(&self, tid: usize) -> Box<dyn QueueHandle + '_>;
}

/// Per-thread handle of a [`Queue`].
pub trait QueueHandle: Send {
    /// Enqueue a value; returns `false` if the arena is exhausted (or, for
    /// the unprotected variant, if ABA corruption left the structure
    /// unusable).
    fn enqueue(&mut self, value: u32) -> bool;
    /// Dequeue the oldest value, if any.
    fn dequeue(&mut self) -> Option<u32>;
}

/// Protection lane guarding the head/tail anchor a thread traverses.
const LANE_ANCHOR: usize = 0;
/// Protection lane guarding `head.next` while its value is read.
const LANE_SUCCESSOR: usize = 1;
/// Protection lanes per handle.
pub const LANES: usize = 2;

/// Michael–Scott queue over a [`NodeArena`], generic in its ABA-protection /
/// reclamation scheme `R`.  Head and tail words live inside the reclaimer,
/// and the per-node next links are encoded by the same codec (counted words
/// under tagging and LL/SC); enqueue and dequeue are [`MsQueue`]'s helping
/// loops, every shared access routed through the per-thread
/// [`Guard`](aba_reclaim::Guard).
#[derive(Debug)]
pub struct GenericQueue<R: Reclaimer> {
    nodes: Nodes<R>,
    code: MsQueue,
}

impl<R: Reclaimer> GenericQueue<R> {
    /// A queue that can hold `capacity` values (one extra arena node serves
    /// as the dummy), used by at most `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `capacity + 1` is 0 or too large for the scheme's index
    /// field.
    pub fn with_threads(capacity: usize, threads: usize) -> Self {
        assert!(capacity + 1 < u32::MAX as usize, "capacity too large");
        let mut nodes = Nodes::<R>::new(NodeArena::new(capacity + 1), threads, LANES);
        let dummy = nodes.arena.alloc().expect("fresh arena");
        // A fresh node's next word is already the nil raw under every
        // scheme's encoding, so no link initialisation is needed here.
        let head = nodes.reclaim.add_slot(dummy);
        let tail = nodes.reclaim.add_slot(dummy);
        GenericQueue {
            nodes,
            code: MsQueue::new(head, tail),
        }
    }
}

impl<R: Reclaimer> Queue for GenericQueue<R> {
    fn capacity(&self) -> usize {
        self.nodes.arena.capacity() - 1
    }

    fn name(&self) -> &'static str {
        Family::Queue.label(R::SCHEME)
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

    fn handle(&self, tid: usize) -> Box<dyn QueueHandle + '_> {
        Box::new(GenericQueueHandle::<R, Production>::new(self, tid))
    }

    fn racing_handle(&self, tid: usize) -> Box<dyn QueueHandle + '_> {
        Box::new(GenericQueueHandle::<R, Racing>::new(self, tid))
    }
}

struct GenericQueueHandle<'a, R: Reclaimer, W: Window> {
    code: MsQueue,
    worker: Worker<'a, R, W>,
}

impl<'a, R: Reclaimer, W: Window> GenericQueueHandle<'a, R, W> {
    fn new(queue: &'a GenericQueue<R>, tid: usize) -> Self {
        GenericQueueHandle {
            code: queue.code,
            worker: queue.nodes.worker(tid),
        }
    }
}

impl<R: Reclaimer, W: Window> QueueHandle for GenericQueueHandle<'_, R, W> {
    fn enqueue(&mut self, value: u32) -> bool {
        let Ok(enqueued) = self.code.enqueue(value, &mut self.worker);
        enqueued
    }

    fn dequeue(&mut self) -> Option<u32> {
        let Ok(value) = self.code.dequeue(&mut self.worker);
        value
    }
}

/// The Michael–Scott queue's per-thread code: the slot ids of its head and
/// tail, and the two operations, written once against [`NodeMem`].  On a
/// hardware handle's worker they are [`GenericQueue`]'s operations; on the
/// simulator's replay memory they are the step-by-step processes of the
/// `queue/*` model rows.
#[derive(Debug, Clone, Copy)]
pub struct MsQueue {
    head: SlotId,
    tail: SlotId,
}

impl MsQueue {
    /// The code of a queue whose head and tail words are `head` and `tail`.
    pub const fn new(head: SlotId, tail: SlotId) -> Self {
        MsQueue { head, tail }
    }

    /// Enqueue `value`; `false` if no node could be allocated, or if the
    /// retry budget ran out (unprotected corruption, counted as an ABA
    /// event).
    pub fn enqueue<M: NodeMem>(&self, value: u32, m: &mut M) -> Result<bool, M::Stop> {
        let Some(idx) = m.alloc(value, 0)? else {
            return Ok(false);
        };
        // Re-nil our node's next link through the guard: a counted codec
        // continues (and bumps) the link's counter across recycling here,
        // which is what defeats a stale CAS aimed at this node's previous
        // incarnation.
        m.store_link(idx, NIL)?;
        // retry-bound: an attempt fails only when another enqueue linked its
        // node or a helper swung the tail — system-wide progress; on a chain
        // the unprotected scheme has cycled, the hardware budget ends it.
        let linked = m.retry(|m| {
            let tail_raw = m.protect(LANE_ANCHOR, self.tail)?;
            let tail = m.index_of(tail_raw);
            let next_raw = m.load_link(tail)?;
            if !m.validate(self.tail, tail_raw)? {
                return Ok(Attempt::Stale);
            }
            let next = m.index_of(next_raw);
            if next != NIL {
                // Tail is lagging: help it forward.
                m.cas(self.tail, tail_raw, next)?;
                return Ok(Attempt::Stale);
            }
            m.window();
            if m.cas_link(tail, next_raw, idx, false)? {
                Ok(Attempt::Done(tail_raw))
            } else {
                // Lost the link race: back off before re-reading the tail.
                Ok(Attempt::Lost)
            }
        })?;
        let Some(tail_raw) = linked else {
            // Retry budget exhausted: an ABA corrupted the chain (e.g. tail
            // sits on a cycle).  Report the event and give the node back.
            m.bail()?;
            m.free(idx)?;
            return Ok(false);
        };
        // Whether our swing or a helper's lands, the node is linked.
        m.cas(self.tail, tail_raw, idx)?;
        m.quiesce()?;
        Ok(true)
    }

    /// Dequeue the oldest value; `None` if the queue is empty, or if the
    /// retry budget ran out.
    pub fn dequeue<M: NodeMem>(&self, m: &mut M) -> Result<Option<u32>, M::Stop> {
        // retry-bound: an attempt fails only on a snapshot another operation
        // moved under it or on a lost head CAS — system-wide progress, with
        // the same budget caveat as the enqueue's loop.
        let unlinked = m.retry(|m| {
            let head_raw = m.protect(LANE_ANCHOR, self.head)?;
            let head = m.index_of(head_raw);
            let tail_raw = m.load(self.tail)?;
            let tail = m.index_of(tail_raw);
            // Remember the dummy's identity (generation) at read time for
            // the post-CAS ABA tally: the textbook dequeue ABA is a CAS that
            // succeeds on a recycled dummy.
            let generation = m.generation(head);
            let next_raw = m.load_link(head)?;
            if !m.validate(self.head, head_raw)? {
                return Ok(Attempt::Stale);
            }
            let next = m.index_of(next_raw);
            if next == NIL {
                // Empty — or head lagging behind a moved tail: an
                // inconsistent snapshot.
                return Ok(if head == tail {
                    Attempt::Done(None)
                } else {
                    Attempt::Stale
                });
            }
            // Extend protection to the successor, re-anchored on the head:
            // only if the head has not moved was `next` really `head.next`
            // while both protections were visible.
            if !m.protect_link(LANE_SUCCESSOR, next, self.head, head_raw)? {
                return Ok(Attempt::Stale);
            }
            if head == tail {
                m.cas(self.tail, tail_raw, next)?;
                return Ok(Attempt::Stale);
            }
            // Read the value *before* the CAS: once the head is swung the
            // node may be dequeued (and under immediate-free schemes,
            // recycled) by anyone.
            let value = m.value(next)?;
            m.window();
            if m.cas(self.head, head_raw, next)? {
                Ok(Attempt::Done(Some((head, generation, value))))
            } else {
                // Lost the head race: back off before re-protecting.
                Ok(Attempt::Lost)
            }
        })?;
        match unlinked {
            Some(Some((dummy, generation, value))) => {
                m.tally(dummy, generation);
                m.retire(dummy)?;
                // The operation is over: drop the pin.  A consumer that
                // never observes the queue empty would otherwise stay pinned
                // at its first dequeue's epoch and block every later advance
                // — the E9 parking pathology reproduced from inside the
                // structure.
                m.quiesce()?;
                Ok(Some(value))
            }
            Some(None) => {
                m.quiesce()?;
                Ok(None)
            }
            None => {
                m.bail()?;
                Ok(None)
            }
        }
    }
}

/// MS queue with bare-index head/tail and immediate node recycling — the
/// dequeue CAS is the textbook ABA victim.  Operations bail out after a
/// bounded number of retries (counting the bailout as an ABA event) so a
/// corrupted chain cannot wedge the harness.
pub type UnprotectedQueue = GenericQueue<NoReclaim>;

/// MS queue whose head, tail *and* per-node next links are `(index, tag)`
/// counted words; every successful CAS bumps the word's tag (§1 tagging).
pub type TaggedQueue = GenericQueue<TagReclaim>;

/// MS queue with bare-index head/tail protected by hazard pointers: each
/// thread publishes up to two hazards, and a dequeued dummy is retired
/// rather than freed.
pub type HazardQueue = GenericQueue<HazardReclaim>;

/// MS queue under epoch-based reclamation: every operation pins the current
/// epoch, and a dequeued dummy returns to the arena only after two advances.
pub type EpochQueue = GenericQueue<EpochReclaim>;

/// MS queue whose head and tail are LL/SC/VL objects: any SC fails whenever
/// a successful SC intervened since the LL, so a recycled index can never be
/// confused with its previous incarnation on either end; the next links are
/// counted words.
pub type LlScQueue = GenericQueue<LlScReclaim>;

#[cfg(test)]
mod tests {
    use super::*;

    fn fifo_smoke(queue: &dyn Queue) {
        let mut h = queue.handle(0);
        assert!(h.enqueue(1));
        assert!(h.enqueue(2));
        assert!(h.enqueue(3));
        assert_eq!(h.dequeue(), Some(1));
        assert_eq!(h.dequeue(), Some(2));
        assert_eq!(h.dequeue(), Some(3));
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn all_variants_are_fifo_sequentially() {
        fifo_smoke(&UnprotectedQueue::with_threads(8, 1));
        fifo_smoke(&TaggedQueue::with_threads(8, 1));
        fifo_smoke(&HazardQueue::with_threads(8, 2));
        fifo_smoke(&EpochQueue::with_threads(8, 2));
        fifo_smoke(&LlScQueue::with_threads(8, 2));
    }

    /// Nothing is stranded in a dead magazine: once every handle has
    /// dropped, each node is in the arena's shared free list, in the queue
    /// (its dummy included), or in the scheme's orphaned limbo.
    #[test]
    fn dropped_handles_leave_every_node_accounted_for() {
        fn check<R: Reclaimer>() {
            const CAPACITY: usize = 255;
            let queue = GenericQueue::<R>::with_threads(CAPACITY, 2);
            let mut queued = 0;
            {
                let mut a = queue.handle(0);
                let mut b = queue.handle(1);
                for round in 0..500u32 {
                    assert!(a.enqueue(round));
                    queued += 1;
                    if !round.is_multiple_of(5) {
                        assert!(b.dequeue().is_some());
                        queued -= 1;
                    }
                }
            }
            assert_eq!(
                queue.nodes.arena.free_len() + queued + 1 + queue.unreclaimed() as usize,
                CAPACITY + 1,
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
    fn recycled_nodes_keep_fifo_order_in_protected_variants() {
        for queue in [
            Box::new(TaggedQueue::with_threads(4, 1)) as Box<dyn Queue>,
            Box::new(HazardQueue::with_threads(4, 1)),
            Box::new(EpochQueue::with_threads(4, 1)),
            Box::new(LlScQueue::with_threads(4, 1)),
        ] {
            let mut h = queue.handle(0);
            for round in 0..200u32 {
                assert!(h.enqueue(round), "{} round {round}", queue.name());
                assert!(h.enqueue(round + 1000));
                assert_eq!(h.dequeue(), Some(round));
                assert_eq!(h.dequeue(), Some(round + 1000));
            }
            assert_eq!(queue.aba_events(), 0);
        }
    }

    #[test]
    fn hazard_queue_returns_nodes_to_arena_on_handle_drop() {
        let queue = HazardQueue::with_threads(4, 2);
        {
            let mut h = queue.handle(0);
            for i in 0..4 {
                assert!(h.enqueue(i));
            }
            for _ in 0..4 {
                assert!(h.dequeue().is_some());
            }
        }
        // After the handle (and its retired list) is dropped, the queue can
        // fill completely again.
        let mut h = queue.handle(1);
        for i in 0..4 {
            assert!(h.enqueue(i), "node for value {i} was not reclaimed");
        }
    }

    #[test]
    fn epoch_queue_returns_nodes_to_arena_on_handle_drop() {
        let queue = EpochQueue::with_threads(4, 2);
        {
            let mut h = queue.handle(0);
            for i in 0..4 {
                assert!(h.enqueue(i));
            }
            for _ in 0..4 {
                assert!(h.dequeue().is_some());
            }
        }
        let mut h = queue.handle(1);
        for i in 0..4 {
            assert!(h.enqueue(i), "node for value {i} was not reclaimed");
        }
    }

    #[test]
    fn empty_dequeue_clears_both_hazard_slots() {
        // Regression: an iteration abandoned after protecting the successor
        // (head re-validation failed) could leave that hazard published when
        // a later iteration returned `None`, pinning the node in the arena
        // for as long as the handle stayed idle.
        let queue = HazardQueue::with_threads(4, 2);
        let mut h = queue.handle(0);
        assert!(h.enqueue(7));
        assert_eq!(h.dequeue(), Some(7));
        assert_eq!(h.dequeue(), None);
        let domain = queue.nodes.reclaim.domain();
        assert_eq!(domain.protected_by(0), None);
        assert_eq!(domain.protected_by(1), None);
    }

    #[test]
    fn interleaved_enqueue_dequeue_stays_fifo() {
        for queue in [
            Box::new(UnprotectedQueue::with_threads(8, 1)) as Box<dyn Queue>,
            Box::new(TaggedQueue::with_threads(8, 1)),
            Box::new(HazardQueue::with_threads(8, 1)),
            Box::new(EpochQueue::with_threads(8, 1)),
            Box::new(LlScQueue::with_threads(8, 1)),
        ] {
            let mut h = queue.handle(0);
            let mut expected = std::collections::VecDeque::new();
            let mut next_value = 0u32;
            for step in 0..400 {
                if step % 3 != 2 && expected.len() < queue.capacity() {
                    assert!(h.enqueue(next_value), "{}", queue.name());
                    expected.push_back(next_value);
                    next_value += 1;
                } else {
                    assert_eq!(h.dequeue(), expected.pop_front(), "{}", queue.name());
                }
            }
        }
    }
}
