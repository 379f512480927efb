//! The one Harris–Michael sorted linked list in the crate.
//!
//! [`GenericSet`](crate::set::GenericSet) and
//! [`GenericMap`](crate::map::GenericMap) are both this list; they differ
//! only in where a walk *starts* ([`Prev`]):
//!
//! * [`Prev::Root`] — at the list's registered root slot, which designates
//!   the first node.  The set starts every operation here.
//! * [`Prev::Node`]`(anchor)` — at the next link of an *immortal* node
//!   (inserted once, never removed, hence never retired and always safe to
//!   read unprotected).  The map starts every operation at a bucket dummy;
//!   its root slot stays [`NIL`] forever.
//!
//! Every (re)start protects the root slot either way.  For a `Root` walk that
//! is the protected load of the first node; for a `Node` walk the slot is
//! NIL and the protection is what pins an epoch guard (a helped-unlink
//! retire unpins, so each restart must pin afresh) — a harmless publication,
//! immediately overwritten, under the other schemes.  The root slot is thus
//! the set's head and the map's pin in one field.
//!
//! Logical deletion follows Harris: a node's *own* next link carries a mark
//! bit (folded into each reclaimer's link-word encoding — see
//! `aba_reclaim::Guard::cas_link_mark` and DESIGN.md §7), so one CAS
//! atomically checks "successor unchanged AND not deleted".  Physical
//! unlinking is Michael's helped variant: any traversal that meets a marked
//! node CASes it out of the chain and retires it, then restarts.
//!
//! The algorithm is [`HmList`]'s, written against [`NodeMem`] so that the
//! simulator's `set/*` rows run the same text (DESIGN.md §3.2); this file
//! also holds the root slot and the per-thread handle that runs the code on
//! its `Worker`.  Allocation, retirement, the retry budget, the ABA tally
//! and the handle's drop are the crate's shared node lifecycle (`nodes.rs`).

use aba_reclaim::{Guard, Reclaimer, SlotId};

use crate::arena::{NodeArena, NIL};
use crate::mem::{Attempt, NodeMem};
use crate::nodes::{Nodes, Worker};
use crate::Window;

/// The three protection lanes of a traversal, rotated hand-over-hand: the
/// predecessor node (whose link word the operation will CAS), the current
/// node (whose key and link are read) and the successor being adopted.
pub const LANES: usize = 3;

/// Harris–Michael sorted linked list over a [`NodeArena`], generic in its
/// ABA-protection / reclamation scheme `R`.  Nodes carry a `u32` sort key
/// and a `u32` of data in one atomically written value word; every per-node
/// next link is a *mark-capable* link word owned by the guard's encoding.
#[derive(Debug)]
pub(crate) struct List<R: Reclaimer> {
    pub(crate) nodes: Nodes<R>,
    /// The registered root slot: the first node for [`Prev::Root`] walks,
    /// permanently [`NIL`] (a pure pin) when every walk starts at an anchor.
    root: SlotId,
}

impl<R: Reclaimer> List<R> {
    /// An empty list over `arena`, used by at most `threads` threads.
    pub(crate) fn new(arena: NodeArena, threads: usize) -> Self {
        let mut nodes = Nodes::<R>::new(arena, threads, LANES);
        let root = nodes.reclaim.add_slot(NIL);
        List { nodes, root }
    }

    /// Allocate the first anchor: a node carrying `key` with a NIL link,
    /// reachable only through the returned index — where the owner's
    /// [`Prev::Node`] walks begin (further anchors are [`ListHandle::splice`]d
    /// in behind it).  Call before any handle exists.
    pub(crate) fn first_anchor(&self, key: u32) -> u64 {
        let Nodes { arena, reclaim, .. } = &self.nodes;
        let idx = arena.alloc().expect("initial arena segment is empty");
        arena.init(idx, key, 0);
        let mut guard = reclaim.guard(0, arena.live_capacity());
        guard.store_link_mark(arena.next_word(idx), NIL, false);
        guard.quiesce();
        idx
    }

    /// The per-thread handle for `tid`, with window `W`.
    pub(crate) fn handle<W: Window>(&self, tid: usize) -> ListHandle<'_, R, W> {
        ListHandle {
            code: HmList::new(self.root),
            worker: self.nodes.worker(tid),
        }
    }
}

/// Per-thread handle of a [`List`]: [`HmList`]'s operations run on the
/// handle's [`Worker`].
pub(crate) struct ListHandle<'a, R: Reclaimer, W: Window> {
    code: HmList,
    pub(crate) worker: Worker<'a, R, W>,
}

impl<R: Reclaimer, W: Window> ListHandle<'_, R, W> {
    /// [`HmList::splice`].
    #[inline]
    pub(crate) fn splice(&mut self, from: Prev, key: u32, idx: u64) -> Splice {
        let Ok(spliced) = self.code.splice(from, key, idx, &mut self.worker);
        spliced
    }

    /// [`HmList::insert`].
    #[inline]
    pub(crate) fn insert(&mut self, from: Prev, key: u32, data: u32) -> bool {
        let Ok(inserted) = self.code.insert(from, key, data, &mut self.worker);
        inserted
    }

    /// [`HmList::remove`].
    #[inline]
    pub(crate) fn remove(&mut self, from: Prev, key: u32) -> bool {
        let Ok(removed) = self.code.remove(from, key, &mut self.worker);
        removed
    }

    /// [`HmList::get`].
    #[inline]
    pub(crate) fn get(&mut self, from: Prev, key: u32) -> Option<u32> {
        let Ok(data) = self.code.get(from, key, &mut self.worker);
        data
    }
}

/// Where a predecessor word lives — and hence where a walk may start: the
/// root slot, or the (mark-capable) next link of node `p`.  A walk may start
/// at `Node(p)` only if `p` is immortal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prev {
    /// The list's root slot.
    Root,
    /// The next link of this node.
    Node(u64),
}

/// Result of one successful traversal: the predecessor word and its observed
/// raw, the candidate node (`NIL` when the key belongs at the tail) with its
/// observed next word, and the generations that make post-CAS ABA accounting
/// possible for the unprotected scheme (0 under the others).
#[derive(Debug, Clone, Copy)]
struct Traversal {
    prev: Prev,
    prev_raw: u64,
    prev_gen: u64,
    cur: u64,
    cur_next_raw: u64,
    cur_gen: u64,
    found: bool,
}

/// Outcome of [`HmList::splice`]; unless `Linked`, the caller still owns
/// its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Splice {
    /// The node is linked in.
    Linked,
    /// The key is already carried by this node (which the caller may name
    /// only if the key's nodes are immortal — no protection is held).
    Present(u64),
    /// The retry budget ran out (unprotected corruption, counted as an ABA
    /// event).
    Exhausted,
}

/// The Harris–Michael list's per-thread code: the slot id of its root and
/// the four operations, written once against [`NodeMem`].  On a hardware
/// handle's worker they are the set's and the map's operations; on the
/// simulator's replay memory they are the step-by-step processes of the
/// `set/*` model rows.
///
/// Each operation is one [`NodeMem::retry`] loop whose attempt is one walk
/// (one pass of its `find`) and the CAS that acts on it, so one retry
/// budget covers the operation: the hardware spends it on every restart
/// and, through [`NodeMem::hop`], on every hop.
#[derive(Debug, Clone, Copy)]
pub struct HmList {
    root: SlotId,
}

impl HmList {
    /// The code of a list whose root slot is `root`.
    pub const fn new(root: SlotId) -> Self {
        HmList { root }
    }

    /// Whether the predecessor word still holds `raw` (Michael's
    /// `*prev == cur` re-validation).
    #[inline(always)]
    fn validate_prev<M: NodeMem>(&self, prev: Prev, raw: u64, m: &mut M) -> Result<bool, M::Stop> {
        match prev {
            Prev::Root => m.validate(self.root, raw),
            Prev::Node(p) => m.validate_link(p, raw),
        }
    }

    /// CAS the predecessor word from `raw` to an unmarked word designating
    /// `idx` — the physical unlink and the insert splice share this shape.
    #[inline(always)]
    fn cas_prev<M: NodeMem>(
        &self,
        prev: Prev,
        raw: u64,
        idx: u64,
        m: &mut M,
    ) -> Result<bool, M::Stop> {
        match prev {
            Prev::Root => m.cas(self.root, raw, idx),
            Prev::Node(p) => m.cas_link(p, raw, idx, false),
        }
    }

    /// One pass of the Harris–Michael `find`: walk from `from` to the first
    /// node with `node.key >= key`.  `None` means the pass must restart: a
    /// snapshot went stale, it unlinked (and retired) a marked node, or a
    /// hop found the retry budget spent.  On `Some` the traversal's
    /// protections are still held — lane-rotated hand-over-hand for hazard
    /// pointers, the pin for epochs — so the caller may CAS and dereference
    /// what it names.
    ///
    /// Always inlined: each entry point passes a start whose kind its caller
    /// fixes, so an anchored walk's copy carries no `Prev::Root` arm and the
    /// set and the map — which instantiate the same handle — each keep a
    /// traversal specialised to their start, as when each had its own (E17:
    /// out of line, `map.get` reads 1–3 ns slower).  The entry points below
    /// are `#[inline]` into the two families' handles for the same reason.
    #[inline(always)]
    fn find<M: NodeMem>(
        &self,
        from: Prev,
        key: u32,
        m: &mut M,
    ) -> Result<Option<Traversal>, M::Stop> {
        // The current node's protection lane; successors rotate through the
        // other two, so the lane being overwritten always belongs to a node
        // two hops behind the predecessor — out of scope.
        let mut lane = 0usize;
        let mut prev = from;
        // The protected load of the first node for a root walk; the
        // (re-)pin of an epoch guard for an anchored one, whose root slot is
        // NIL (module docs).
        let root_raw = m.protect(lane, self.root)?;
        let (mut prev_raw, mut prev_gen, mut cur) = match from {
            Prev::Root => (root_raw, 0u64, m.index_of(root_raw)),
            Prev::Node(anchor) => {
                // The anchor needs no protection lane (it is never retired),
                // but its successor does, published-then-validated against
                // the anchor's always-readable link.
                let anchor_gen = m.generation(anchor);
                let raw = m.load_link(anchor)?;
                let first = m.index_of(raw);
                if first != NIL && !m.protect_link_word(lane, first, anchor, raw)? {
                    return Ok(None);
                }
                (raw, anchor_gen, first)
            }
        };
        // retry-bound: every hop spends the operation's retry budget
        // (`hop`), which is finite exactly for the scheme whose chain can
        // become cyclic (unprotected); under a protected scheme the chain
        // is finite and acyclic.
        loop {
            if !m.hop() {
                return Ok(None);
            }
            if cur == NIL {
                return Ok(Some(Traversal {
                    prev,
                    prev_raw,
                    prev_gen,
                    cur: NIL,
                    cur_next_raw: 0,
                    cur_gen: 0,
                    found: false,
                }));
            }
            let cur_gen = m.generation(cur);
            let next_raw = m.load_link(cur)?;
            // Re-validate prev -> cur before trusting the snapshot: a CAS
            // that lands between our two reads would otherwise hand us a
            // successor of an already-unlinked node.
            if !self.validate_prev(prev, prev_raw, m)? {
                return Ok(None);
            }
            let next = m.index_of(next_raw);
            if m.mark_of(next_raw) {
                // cur is logically deleted: help unlink it, retire it, and
                // restart (the CAS invalidated our snapshot anyway).
                m.window();
                if self.cas_prev(prev, prev_raw, next, m)? {
                    m.tally(cur, cur_gen);
                    m.retire(cur)?;
                }
                return Ok(None);
            }
            // The decisive window of a traversal: the snapshot was
            // validated, and the node's key is about to steer the final
            // answer.  A scheme whose protection lapsed here (a hazard
            // published too late for the retirement scan, a stale epoch
            // pin) reads the key of a *recycled* node and reports a present
            // key absent.  A racing handle yields here, under every scheme
            // alike, so the E10 incidence columns measure the protection
            // strategy and not the accident of scheduling.
            m.window();
            let cur_key = m.value(cur)?;
            // ...and re-validate once more before the key steers anything.
            // Tagging and LL/SC free immediately, so `cur` may have been
            // unlinked and recycled since the validation above, and the key
            // just read may be its next life's: a wrong `contains`, or a
            // splice that returns a short-lived node as `Present` for an
            // owner that takes it for an immortal one (the map's bucket
            // cells — the chain ends up cyclic).  If prev still designates
            // `cur` under an ABA-proof word, `cur` was linked throughout and
            // the key is its own.
            if !self.validate_prev(prev, prev_raw, m)? {
                return Ok(None);
            }
            if cur_key >= key {
                return Ok(Some(Traversal {
                    prev,
                    prev_raw,
                    prev_gen,
                    cur,
                    cur_next_raw: next_raw,
                    cur_gen,
                    found: cur_key == key,
                }));
            }
            // Advance hand-over-hand: protect the successor while the
            // current node is still protected, then shift roles.
            lane = (lane + 1) % LANES;
            if next != NIL && !m.protect_link_word(lane, next, cur, next_raw)? {
                return Ok(None);
            }
            prev = Prev::Node(cur);
            prev_raw = next_raw;
            prev_gen = cur_gen;
            cur = next;
        }
    }

    /// Link the caller-owned node `idx`, which already carries `key`, into
    /// its sorted position, walking from `from`.  Returns quiesced.
    #[inline]
    pub(crate) fn splice<M: NodeMem>(
        &self,
        from: Prev,
        key: u32,
        idx: u64,
        m: &mut M,
    ) -> Result<Splice, M::Stop> {
        // retry-bound: an attempt fails only when a CAS of another operation
        // landed on a word the walk read, or its own helped unlink did —
        // system-wide progress; on a chain the unprotected scheme has
        // cycled, the hardware budget ends it.
        let spliced = m.retry(|m| {
            let Some(t) = self.find(from, key, m)? else {
                return Ok(Attempt::Stale);
            };
            if t.found {
                return Ok(Attempt::Done(Splice::Present(t.cur)));
            }
            // Point our node at the successor, then splice it in.  The
            // store goes through the guard so tagging schemes bump the
            // link's tag across recycling.
            m.store_link(idx, t.cur)?;
            m.window();
            if self.cas_prev(t.prev, t.prev_raw, idx, m)? {
                if let Prev::Node(p) = t.prev {
                    // The splice succeeded — but did it splice onto the node
                    // we inspected, or onto a recycled incarnation?
                    m.tally(p, t.prev_gen);
                }
                Ok(Attempt::Done(Splice::Linked))
            } else {
                // Lost the splice race: back off before re-finding.
                Ok(Attempt::Lost)
            }
        })?;
        let Some(spliced) = spliced else {
            m.bail()?;
            return Ok(Splice::Exhausted);
        };
        m.quiesce()?;
        Ok(spliced)
    }

    /// Insert `key` carrying `data`; `false` if the key was already present,
    /// no node could be allocated, or the retry budget ran out.
    #[inline]
    pub fn insert<M: NodeMem>(
        &self,
        from: Prev,
        key: u32,
        data: u32,
        m: &mut M,
    ) -> Result<bool, M::Stop> {
        // Allocation before the traversal: the allocation-pressure fallback
        // must run quiesced (deferred schemes reclaim here), and the node is
        // exclusively ours until the splice CAS publishes it.
        let Some(idx) = m.alloc(key, data)? else {
            return Ok(false);
        };
        let linked = self.splice(from, key, idx, m)? == Splice::Linked;
        if !linked {
            m.free(idx)?;
        }
        Ok(linked)
    }

    /// Remove `key`; `false` if it was absent (or the retry budget ran out).
    #[inline]
    pub fn remove<M: NodeMem>(&self, from: Prev, key: u32, m: &mut M) -> Result<bool, M::Stop> {
        // retry-bound: as the splice's; a lost mark CAS means another
        // operation's mutation of `cur` succeeded.
        let marked = m.retry(|m| {
            let Some(t) = self.find(from, key, m)? else {
                return Ok(Attempt::Stale);
            };
            if !t.found {
                return Ok(Attempt::Done(None));
            }
            let next = m.index_of(t.cur_next_raw);
            // Logical deletion: one CAS sets the mark in cur's own link,
            // atomically verifying the successor did not change.  From this
            // instant the key is gone; everything after is physical cleanup.
            m.window();
            if m.cas_link(t.cur, t.cur_next_raw, next, true)? {
                Ok(Attempt::Done(Some((t, next))))
            } else {
                // Raced with another mutation on cur: back off, then
                // re-find.
                Ok(Attempt::Lost)
            }
        })?;
        match marked {
            Some(Some((t, next))) => {
                // Physical unlink.  On failure some helper's traversal will
                // (or already did) unlink and retire the node — exactly one
                // thread wins that CAS, so exactly one retires.
                if self.cas_prev(t.prev, t.prev_raw, next, m)? {
                    m.tally(t.cur, t.cur_gen);
                    m.retire(t.cur)?;
                } else {
                    m.quiesce()?;
                }
                Ok(true)
            }
            Some(None) => {
                m.quiesce()?;
                Ok(false)
            }
            None => {
                m.bail()?;
                Ok(false)
            }
        }
    }

    /// The data `key` carries, if it is a member; `None` also if the retry
    /// budget ran out.
    #[inline]
    pub fn get<M: NodeMem>(&self, from: Prev, key: u32, m: &mut M) -> Result<Option<u32>, M::Stop> {
        // retry-bound: as the splice's, with no CAS of its own to lose.
        let found = m.retry(|m| {
            Ok(match self.find(from, key, m)? {
                Some(t) => Attempt::Done(t),
                None => Attempt::Stale,
            })
        })?;
        let Some(t) = found else {
            m.bail()?;
            return Ok(None);
        };
        // Read the data while the traversal's protections are still held,
        // then release them.
        let data = if t.found { Some(m.data(t.cur)?) } else { None };
        m.quiesce()?;
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Production, Racing};
    use aba_reclaim::{EpochReclaim, HazardReclaim, LlScReclaim, NoReclaim, TagReclaim};

    /// A `capacity`-node list whose chain reads `keys` (ascending), and the
    /// start its walks use: the root slot, or — `anchored` — a first anchor
    /// carrying `keys[0]`.
    fn list_of<R: Reclaimer>(capacity: usize, anchored: bool, keys: &[u32]) -> (List<R>, Prev) {
        let list = List::<R>::new(NodeArena::new(capacity), 2);
        let (from, rest) = if anchored {
            (Prev::Node(list.first_anchor(keys[0])), &keys[1..])
        } else {
            (Prev::Root, keys)
        };
        let mut h = list.handle::<Production>(0);
        for &key in rest {
            assert!(h.insert(from, key, 0));
        }
        drop(h);
        (list, from)
    }

    /// The keys reachable from `from`, in chain order (quiescent lists only).
    fn chain<R: Reclaimer>(list: &List<R>, from: Prev) -> Vec<u32> {
        let mut g = list
            .nodes
            .reclaim
            .guard(0, list.nodes.arena.live_capacity());
        let mut cur = match from {
            Prev::Root => {
                let raw = g.load(list.root);
                g.index_of(raw)
            }
            Prev::Node(anchor) => {
                g.marked_index_of(g.load_link(list.nodes.arena.next_word(anchor)))
            }
        };
        let mut keys = Vec::new();
        while cur != NIL {
            keys.push(list.nodes.arena.value(cur));
            cur = g.marked_index_of(g.load_link(list.nodes.arena.next_word(cur)));
        }
        keys
    }

    /// One list, two starts: the same script through a root-started list and
    /// through a list whose walks start at a (minimum-key) anchor must give
    /// the same answers and leave the same chain.
    fn both_starts_agree<R: Reclaimer>() {
        let (rooted, root) = list_of::<R>(24, false, &[]);
        let (anchored, anchor) = list_of::<R>(25, true, &[0]);
        let mut r = rooted.handle::<Production>(0);
        let mut a = anchored.handle::<Production>(0);
        let mut x = 0x9E37_79B9u32;
        for step in 0..4000u32 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            // 31 keys over 24 nodes: the script also runs the arena dry.
            let key = 1 + (x >> 8) % 31;
            match x % 3 {
                0 => assert_eq!(
                    r.insert(root, key, step),
                    a.insert(anchor, key, step),
                    "step {step}: insert {key}"
                ),
                1 => assert_eq!(
                    r.remove(root, key),
                    a.remove(anchor, key),
                    "step {step}: remove {key}"
                ),
                _ => assert_eq!(
                    r.get(root, key),
                    a.get(anchor, key),
                    "step {step}: get {key}"
                ),
            }
        }
        let keys = chain(&rooted, root);
        assert_eq!(keys, chain(&anchored, anchor));
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "unsorted: {keys:?}");
        assert!(!keys.is_empty());
        assert_eq!(rooted.nodes.aba_events(), anchored.nodes.aba_events());
        assert_eq!(
            rooted.nodes.alloc_failures(),
            anchored.nodes.alloc_failures()
        );
    }

    #[test]
    fn a_rooted_and_an_anchored_list_answer_one_script_identically() {
        both_starts_agree::<NoReclaim>();
        both_starts_agree::<TagReclaim>();
        both_starts_agree::<HazardReclaim>();
        both_starts_agree::<LlScReclaim>();
        both_starts_agree::<EpochReclaim>();
    }

    /// A chain an ABA has cycled wedges no operation: on an unprotected list
    /// whose second node links back to its first, a walk to a key past the
    /// cycle never restarts, so only the operation's one retry budget —
    /// spent on every hop as on every restart — ends it.  Each operation
    /// then gives up and counts one ABA event.
    #[test]
    fn operations_past_a_cycled_chain_give_up_within_the_retry_budget() {
        let (list, from) = list_of::<NoReclaim>(8, false, &[10, 20]);
        let arena = &list.nodes.arena;
        let mut g = list.nodes.reclaim.guard(0, arena.live_capacity());
        let root_raw = g.load(list.root);
        let first = g.index_of(root_raw);
        let second = g.marked_index_of(g.load_link(arena.next_word(first)));
        assert_eq!((arena.value(first), arena.value(second)), (10, 20));
        g.store_link_mark(arena.next_word(second), first, false);
        let mut h = list.handle::<Production>(0);
        assert_eq!(h.get(from, 30), None);
        assert_eq!(list.nodes.aba_events(), 1);
        assert!(!h.insert(from, 30, 0));
        assert_eq!(list.nodes.aba_events(), 2);
        assert!(!h.remove(from, 30));
        assert_eq!(list.nodes.aba_events(), 3);
    }

    /// Nothing is stranded in a dead magazine: once every handle has
    /// dropped, each node is in the arena's shared free list, in the chain,
    /// or in the scheme's orphaned limbo.
    fn dropped_handles_leave_every_node_accounted_for<R: Reclaimer>() {
        const CAPACITY: usize = 256;
        let (list, from) = list_of::<R>(CAPACITY, false, &[]);
        {
            let mut a = list.handle::<Production>(0);
            let mut b = list.handle::<Production>(1);
            for key in 0..600u32 {
                assert!(a.insert(from, key, 0));
                if !key.is_multiple_of(5) {
                    assert!(b.remove(from, key));
                }
            }
        }
        let reachable = chain(&list, from).len();
        assert_eq!(reachable, 120);
        assert_eq!(
            list.nodes.arena.free_len() + reachable + list.nodes.reclaim.unreclaimed() as usize,
            CAPACITY,
            "{:?}",
            R::SCHEME
        );
    }

    #[test]
    fn dropped_list_handles_leave_every_node_accounted_for() {
        dropped_handles_leave_every_node_accounted_for::<NoReclaim>();
        dropped_handles_leave_every_node_accounted_for::<TagReclaim>();
        dropped_handles_leave_every_node_accounted_for::<HazardReclaim>();
        dropped_handles_leave_every_node_accounted_for::<LlScReclaim>();
        dropped_handles_leave_every_node_accounted_for::<EpochReclaim>();
    }

    /// The hand-over-hand publication order is load-bearing, shown with
    /// real threads and a barrier: a raw-guard traverser repeatedly adopts
    /// the successor of the chain's stable first node (key 10: the root's
    /// node, or the anchor a `Prev::Node` walk starts at — the first hop the
    /// map takes and the set never does) with [`Guard::protect_link_word`]
    /// while a churner recycles that exact position through a capacity-tight
    /// arena.  Whenever adoption *succeeds*, the adopted node must still
    /// carry a key legal for that position — publish-then-validate
    /// guarantees it (the hazard was visible to every later retirement scan,
    /// or the validation failed and adoption was refused).  Verified to fail
    /// when `HazardGuard::protect_link_word` is swapped to
    /// validate-then-publish: the traverser loop has no yield points, so the
    /// OS regularly preempts it *between* the two halves, the churner's scan
    /// misses the unpublished hazard, frees the node, recycles it as the
    /// key-50 tail — and the late publication "succeeds" against a stale
    /// validation, handing the traversal a recycled node (observed key 50).
    fn hand_over_hand_publication_order_is_load_bearing(anchored: bool) {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;

        // Capacity 4 = exactly the live keys, no spare: the retire of the
        // key-20 node crosses the flush threshold immediately, and the next
        // insert can only be served by that very node coming back through
        // the scan — so a scan that misses an unpublished hazard hands the
        // traverser's node straight to the key-50 insert.
        let (list, from) = list_of::<HazardReclaim>(4, anchored, &[10, 20, 30, 40]);
        let arena = &list.nodes.arena;
        let barrier = Barrier::new(2);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Churner: cycle key 20 (the probed position) and key 50
                // (the tail — whose node, once recycled, is what a broken
                // traverser adopts) through the arena.  Wall-clock bounded:
                // the yield-free traverser burns whole scheduler quanta, so
                // a round count would translate into minutes.
                let mut h = list.handle::<Racing>(0);
                barrier.wait();
                // determinism: wall-clock deadline is deliberate here (see
                // the comment above); test-only, never in simulation code.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while std::time::Instant::now() < deadline {
                    assert!(h.remove(from, 20));
                    while !h.insert(from, 50, 0) {
                        std::thread::yield_now();
                    }
                    assert!(h.remove(from, 50));
                    while !h.insert(from, 20, 0) {
                        std::thread::yield_now();
                    }
                }
                done.store(true, Ordering::SeqCst);
            });
            let traverser = s.spawn(|| {
                // Raw-guard traversal of the first hop, exactly as `find`
                // performs it — but with no yields, so preemption lands at
                // every possible instruction boundary.
                let mut g = list.nodes.reclaim.guard(1, arena.live_capacity());
                barrier.wait();
                let mut adoptions = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let root_raw = g.protect(0, list.root);
                    let (first, lane) = match from {
                        Prev::Root => (g.index_of(root_raw), 1),
                        Prev::Node(anchor) => (anchor, 0),
                    };
                    assert_eq!(arena.value(first), 10, "first key is stable");
                    let next_raw = g.load_link(arena.next_word(first));
                    let x = g.marked_index_of(next_raw);
                    if x != NIL && g.protect_link_word(lane, x, arena.next_word(first), next_raw) {
                        // Adopted: x is protected and was 10's successor at
                        // the validating load, so its key must be 20 (or 30
                        // while 20 is out).  A recycled node reads 50.
                        adoptions += 1;
                        let key = arena.value(x);
                        assert!(
                            key == 20 || key == 30,
                            "adopted a recycled node carrying key {key}"
                        );
                    }
                    g.quiesce();
                }
                adoptions
            });
            let adoptions = traverser.join().expect("traverser panicked");
            assert!(adoptions > 0, "the traverser never adopted a successor");
        });
    }

    #[test]
    fn hand_over_hand_publication_order_is_load_bearing_from_the_root() {
        hand_over_hand_publication_order_is_load_bearing(false);
    }

    #[test]
    fn hand_over_hand_publication_order_is_load_bearing_from_an_anchor() {
        hand_over_hand_publication_order_is_load_bearing(true);
    }
}
