//! The node lifecycle every structure shares, stated once.
//!
//! [`GenericStack`](crate::GenericStack), [`GenericQueue`](crate::GenericQueue)
//! and the Harris–Michael list under the set and the map each own a
//! [`Nodes`] — the arena, the scheme's reclaimer and the two counters every
//! family reports — and each of their handles owns a [`Worker`]: the guard,
//! the magazine, the backoff and the window.  A structure adds its slots and
//! its algorithm; how an operation obtains a node, hands it back and accounts
//! for it is decided here, as the simulator's `algorithms/protect.rs` decides
//! it for the models (DESIGN.md §3.1).  A [`Worker`] is the hardware
//! [`NodeMem`]: the stack's, the queue's and the list's code run on it
//! directly; the map's bucket dummies bypass it through the magazine.

use std::convert::Infallible;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use aba_core::{stepcount, Backoff};
use aba_reclaim::{Guard, Reclaimer, Scheme, SlotId};

use crate::arena::{Magazine, NodeArena};
use crate::mem::{Attempt, NodeMem};
use crate::Window;

/// The shared half of a structure: its arena, its reclaimer and its
/// counters.  The owner registers its slots on `reclaim` before the first
/// [`Worker`] exists.
#[derive(Debug)]
pub(crate) struct Nodes<R: Reclaimer> {
    pub(crate) arena: NodeArena,
    pub(crate) reclaim: R,
    /// Handles the arena is shared among (sizes their magazines).
    threads: usize,
    aba_events: AtomicU64,
    alloc_failures: AtomicU64,
}

impl<R: Reclaimer> Nodes<R> {
    /// `arena` under a fresh reclaimer for `threads` threads with `lanes`
    /// protection lanes each, and no slots yet.
    pub(crate) fn new(arena: NodeArena, threads: usize, lanes: usize) -> Self {
        Nodes {
            arena,
            reclaim: R::new(threads, lanes),
            threads,
            aba_events: AtomicU64::new(0),
            alloc_failures: AtomicU64::new(0),
        }
    }

    pub(crate) fn aba_events(&self) -> u64 {
        let events = self.aba_events.load(Ordering::SeqCst);
        stepcount::plain();
        events
    }

    pub(crate) fn alloc_failures(&self) -> u64 {
        let failures = self.alloc_failures.load(Ordering::SeqCst);
        stepcount::plain();
        failures
    }

    /// Count one ABA event.
    fn aba_event(&self) {
        self.aba_events.fetch_add(1, Ordering::SeqCst);
        stepcount::locked();
    }

    pub(crate) fn unreclaimed(&self) -> u64 {
        self.reclaim.unreclaimed()
    }

    /// The per-thread half for `tid`, with window `W`.
    pub(crate) fn worker<W: Window>(&self, tid: usize) -> Worker<'_, R, W> {
        // Seed the guard's capacity-scaled heuristics from today's *live*
        // capacity, not the arena's full plan: a plan-sized trigger is far
        // too lax for the small published segments of a growable arena (the
        // deferred schemes would park plan/4·threads nodes in limbo while
        // only the initial segment exists).  Growth is handled
        // per-allocation: `admit_alloc` re-feeds the latest live capacity.
        Worker {
            nodes: self,
            guard: self.reclaim.guard(tid, self.arena.live_capacity()),
            magazine: self.arena.magazine(self.threads),
            backoff: Backoff::new(tid as u64),
            left: Budget(None),
            window: PhantomData,
        }
    }
}

/// The per-thread half of a structure handle.  Every node the handle
/// allocates, retires or frees goes through here.
pub(crate) struct Worker<'a, R: Reclaimer, W: Window> {
    pub(crate) nodes: &'a Nodes<R>,
    pub(crate) guard: R::Guard<'a>,
    /// This handle's free nodes; every allocation and free goes through it
    /// (the map's bucket dummies included).
    pub(crate) magazine: Magazine<'a>,
    pub(crate) backoff: Backoff,
    /// What is left of the running [`NodeMem::retry`] loop's budget.
    left: Budget,
    window: PhantomData<W>,
}

impl<R: Reclaimer, W: Window> Worker<'_, R, W> {
    /// [`NodeMem::alloc`] found no node in the magazine, or was denied.
    /// The arena may be exhausted only because the scheme still holds
    /// retired-but-reclaimable nodes: if admitted, reclaim and retry once (a
    /// no-op for the immediate-free schemes); a failure is counted.
    #[cold]
    fn alloc_slow(&mut self, admitted: bool) -> Option<u64> {
        let mut node = None;
        if admitted {
            self.guard.reclaim_pressure(|i| self.magazine.free(i));
            node = self.magazine.alloc();
        }
        if node.is_none() {
            self.nodes.alloc_failures.fetch_add(1, Ordering::SeqCst);
            stepcount::locked();
        }
        node
    }
}

/// The hardware [`NodeMem`]: every method is one call on the guard, the
/// arena or the worker.
impl<R: Reclaimer, W: Window> NodeMem for Worker<'_, R, W> {
    type Stop = Infallible;

    fn protect(&mut self, lane: usize, slot: SlotId) -> Result<u64, Infallible> {
        Ok(self.guard.protect(lane, slot))
    }

    fn load(&mut self, slot: SlotId) -> Result<u64, Infallible> {
        Ok(self.guard.load(slot))
    }

    fn validate(&mut self, slot: SlotId, raw: u64) -> Result<bool, Infallible> {
        Ok(self.guard.validate(slot, raw))
    }

    fn cas(&mut self, slot: SlotId, raw: u64, idx: u64) -> Result<bool, Infallible> {
        Ok(self.guard.cas(slot, raw, idx))
    }

    fn protect_link(
        &mut self,
        lane: usize,
        idx: u64,
        slot: SlotId,
        raw: u64,
    ) -> Result<bool, Infallible> {
        Ok(self.guard.protect_link(lane, idx, slot, raw))
    }

    fn load_link(&mut self, node: u64) -> Result<u64, Infallible> {
        Ok(self.guard.load_link(self.nodes.arena.next_word(node)))
    }

    fn validate_link(&mut self, node: u64, raw: u64) -> Result<bool, Infallible> {
        let link = self.nodes.arena.next_word(node);
        Ok(self.guard.validate_link(link, raw))
    }

    fn protect_link_word(
        &mut self,
        lane: usize,
        idx: u64,
        node: u64,
        raw: u64,
    ) -> Result<bool, Infallible> {
        let link = self.nodes.arena.next_word(node);
        Ok(self.guard.protect_link_word(lane, idx, link, raw))
    }

    fn store_link(&mut self, node: u64, idx: u64) -> Result<(), Infallible> {
        let link = self.nodes.arena.next_word(node);
        self.guard.store_link_mark(link, idx, false);
        Ok(())
    }

    fn cas_link(
        &mut self,
        node: u64,
        raw: u64,
        idx: u64,
        marked: bool,
    ) -> Result<bool, Infallible> {
        let link = self.nodes.arena.next_word(node);
        Ok(self.guard.cas_link_mark(link, raw, idx, marked))
    }

    fn value(&mut self, node: u64) -> Result<u32, Infallible> {
        Ok(self.nodes.arena.value(node))
    }

    fn data(&mut self, node: u64) -> Result<u32, Infallible> {
        Ok(self.nodes.arena.data(node))
    }

    /// Admission, then the magazine, then one retry after reclaim
    /// pressure; a failure is counted in `alloc_failures`.
    ///
    /// `always`: every push, enqueue and insert starts here, and with a
    /// plain hint LLVM kept it out of line (cost 555–740 against its
    /// threshold of 325), one call per push (EXPERIMENTS.md E35).
    #[inline(always)]
    fn alloc(&mut self, value: u32, data: u32) -> Result<Option<u64>, Infallible> {
        // Admission before allocation: a deferred scheme retunes its
        // capacity-derived trigger to the live (grown) arena and may deny
        // the allocation outright while its limbo bound is violated by a
        // stale pin elsewhere — the op fails fast instead of draining the
        // arena.
        let admitted = self
            .guard
            .admit_alloc(self.nodes.arena.live_capacity(), |i| self.magazine.free(i));
        let node = if admitted {
            self.magazine.alloc()
        } else {
            None
        };
        let Some(idx) = node.or_else(|| self.alloc_slow(admitted)) else {
            return Ok(None);
        };
        self.nodes.arena.init(idx, value, data);
        Ok(Some(idx))
    }

    /// The guard frees the node into the magazine now or once the scheme's
    /// safety condition holds.
    ///
    /// `always`: once `pop_attempt` is inlined into the pop, LLVM moved the
    /// deferred schemes' retire out of line under a plain hint.
    #[inline(always)]
    fn retire(&mut self, node: u64) -> Result<(), Infallible> {
        self.guard.retire(node, |i| self.magazine.free(i));
        Ok(())
    }

    #[inline]
    fn free(&mut self, node: u64) -> Result<(), Infallible> {
        self.magazine.free(node);
        Ok(())
    }

    fn quiesce(&mut self) -> Result<(), Infallible> {
        self.guard.quiesce();
        Ok(())
    }

    /// Count the exhausted budget (unprotected corruption) as an ABA event,
    /// release the protections and leave the structure alone.
    fn bail(&mut self) -> Result<(), Infallible> {
        self.nodes.aba_event();
        self.guard.quiesce();
        Ok(())
    }

    /// The unprotected scheme's [`Budget`], spent on every attempt and
    /// every [`NodeMem::hop`] in one; a backoff pause after a lost CAS and
    /// none after a stale snapshot; the backoff resets once the loop is
    /// done.
    #[inline]
    fn retry<T>(
        &mut self,
        attempt: impl Fn(&mut Self) -> Result<Attempt<T>, Infallible>,
    ) -> Result<Option<T>, Infallible> {
        let nodes = self.nodes;
        // Read only under the unprotected scheme: under the others the loop
        // keeps no count, and the arena's size is an atomic load.
        if matches!(R::SCHEME, Scheme::Unprotected) {
            self.left = Budget(nodes.reclaim.retry_bound(nodes.arena.live_capacity()));
        }
        // retry-bound: the budget is finite under the unprotected scheme,
        // whose ABA can cycle a chain; under the others an attempt fails only
        // when another operation made progress.
        while self.hop() {
            match attempt(self)? {
                Attempt::Done(value) => {
                    self.backoff.reset();
                    return Ok(Some(value));
                }
                Attempt::Stale => {}
                Attempt::Lost => self.backoff.pause(),
            }
        }
        Ok(None)
    }

    /// Only the unprotected scheme's budget is finite, so under the others
    /// this is `true` at compile time and a walk keeps no count.
    fn hop(&mut self) -> bool {
        !matches!(R::SCHEME, Scheme::Unprotected) || self.left.spend()
    }

    fn index_of(&self, raw: u64) -> u64 {
        self.guard.index_of(raw)
    }

    fn mark_of(&self, raw: u64) -> bool {
        self.guard.mark_of(raw)
    }

    /// Read only under the unprotected scheme, 0 under the others: there a
    /// successful CAS or the protection already rules the ABA out, and an
    /// immediate-free scheme may recycle the node before a tally reads it
    /// (a splice predecessor): a false event.
    fn generation(&self, node: u64) -> u64 {
        if matches!(R::SCHEME, Scheme::Unprotected) {
            self.nodes.arena.generation(node)
        } else {
            0
        }
    }

    /// The post-hoc detector only the unprotected scheme runs.
    fn tally(&self, node: u64, seen: u64) {
        if self.generation(node) != seen {
            self.nodes.aba_event();
        }
    }

    fn window(&self) {
        W::preemption_window();
    }
}

impl<R: Reclaimer, W: Window> Drop for Worker<'_, R, W> {
    fn drop(&mut self) {
        self.guard.quiesce();
        self.guard.reclaim_pressure(|i| self.magazine.free(i));
        // Whatever a deferred scheme still cannot free is orphaned onto its
        // domain by the guard's own drop and adopted by a later reclaim; the
        // magazine's own drop drains it into the arena's shared list.
    }
}

/// Iteration budget for one structure operation, spent on every retry and
/// every traversal step: unbounded under the protected schemes, finite under
/// the unprotected one, whose ABA can link a chain into a cycle — and an
/// unbounded walk wedges just as hard as an unbounded retry loop.
pub(crate) struct Budget(Option<usize>);

impl Budget {
    /// Consume one iteration; `false` means the budget is exhausted.
    pub(crate) fn spend(&mut self) -> bool {
        match &mut self.0 {
            None => true,
            Some(0) => false,
            Some(n) => {
                *n -= 1;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Production;
    use aba_reclaim::{EpochReclaim, HazardReclaim, LlScReclaim, NoReclaim, TagReclaim};

    /// The ABA events one successful CAS tallies under `R` when the node it
    /// acted on was recycled between the generation read and the tally —
    /// as an immediate-free scheme may recycle a splice predecessor.
    fn events_after_a_recycle<R: Reclaimer>() -> u64 {
        let nodes = Nodes::<R>::new(NodeArena::new(8), 1, 1);
        let mut w = nodes.worker::<Production>(0);
        let Ok(Some(idx)) = w.alloc(1, 0) else {
            panic!("a free node")
        };
        let seen = w.generation(idx);
        let Ok(()) = w.free(idx);
        assert_eq!(w.alloc(2, 0), Ok(Some(idx)), "the magazine hands it back");
        w.tally(idx, seen);
        nodes.aba_events()
    }

    #[test]
    fn only_the_unprotected_scheme_tallies_a_stale_generation() {
        assert_eq!(events_after_a_recycle::<NoReclaim>(), 1);
        assert_eq!(events_after_a_recycle::<TagReclaim>(), 0);
        assert_eq!(events_after_a_recycle::<HazardReclaim>(), 0);
        assert_eq!(events_after_a_recycle::<LlScReclaim>(), 0);
        assert_eq!(events_after_a_recycle::<EpochReclaim>(), 0);
    }
}
