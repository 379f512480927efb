//! The memory a structure's operations run on: the code is written once,
//! against [`NodeMem`], and run on two memories — `aba_core::mem`'s pattern
//! one layer up.  A structure sees its guard and its node lifecycle, not
//! base objects:
//!
//! * the crate's per-thread `Worker` is the hardware memory, the scheme's
//!   `Guard` over the arena's atomic words; `Stop` is [`Infallible`], so the
//!   `?` after an access compiles to nothing;
//! * the simulator's adapter (`aba-sim`, `algorithms/shipped.rs`) replays
//!   each access as schedulable steps; the first step past the logged ones
//!   stops the call.
//!
//! Every structure's code is written against it: the Treiber stack
//! ([`crate::stack::Treiber`]), the Michael–Scott queue
//! ([`crate::queue::MsQueue`]) and the Harris–Michael list under the set and
//! the map ([`crate::list::HmList`]).
//!
//! [`Infallible`]: std::convert::Infallible

use aba_reclaim::SlotId;

/// How one attempt of a [`NodeMem::retry`] loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attempt<T> {
    /// The loop is over, with this value.
    Done(T),
    /// The snapshot went stale, or the attempt helped a lagging word
    /// forward: try again at once.
    Stale,
    /// The attempt lost a CAS to another operation: back off, then try
    /// again.
    Lost,
}

/// Shared memory as a structure's per-thread code sees it.  Every method
/// that touches shared memory may stop the call ([`NodeMem::Stop`]); the
/// decoding and the hardware diagnostics take no step, and the provided
/// methods are what a memory without the diagnostics does.
///
/// Slot words and link words are raw: the code reads the designated node
/// with [`NodeMem::index_of`] (and a link's deletion mark with
/// [`NodeMem::mark_of`]) and hands the raw word back to
/// [`NodeMem::validate`], [`NodeMem::validate_link`], [`NodeMem::cas`] or
/// [`NodeMem::cas_link`] unchanged.  Nodes are arena indices
/// ([`NIL`](crate::NIL) for none).
pub trait NodeMem {
    /// Why an access did not return — never, on hardware; "the call is now
    /// poised on this step", under the simulator.
    type Stop;

    // -- registered slots ---------------------------------------------------

    /// `Guard::protect`: a protected load of `slot` in protection lane
    /// `lane` (an epoch scheme pins first).
    fn protect(&mut self, lane: usize, slot: SlotId) -> Result<u64, Self::Stop>;

    /// `Guard::load`: a plain load of `slot`.
    fn load(&mut self, slot: SlotId) -> Result<u64, Self::Stop>;

    /// `Guard::validate`: whether `slot` still holds `raw`.
    fn validate(&mut self, slot: SlotId, raw: u64) -> Result<bool, Self::Stop>;

    /// `Guard::cas`: swing `slot` from `raw` to a word designating `idx`.
    fn cas(&mut self, slot: SlotId, raw: u64, idx: u64) -> Result<bool, Self::Stop>;

    /// `Guard::protect_link`: extend protection in `lane` to node `idx`,
    /// then confirm that `slot` still holds `raw` (under every scheme but
    /// hazard pointers, only the confirmation).
    fn protect_link(
        &mut self,
        lane: usize,
        idx: u64,
        slot: SlotId,
        raw: u64,
    ) -> Result<bool, Self::Stop>;

    // -- a node's fields ----------------------------------------------------

    /// Load node `node`'s next link.
    fn load_link(&mut self, node: u64) -> Result<u64, Self::Stop>;

    /// Whether node `node`'s next link still holds `raw`.
    fn validate_link(&mut self, node: u64, raw: u64) -> Result<bool, Self::Stop>;

    /// `Guard::protect_link_word`, the hand-over-hand step of a walk:
    /// extend protection in `lane` to node `idx`, read out of node `node`'s
    /// link, then confirm that the link still holds `raw` (under every
    /// scheme but hazard pointers, only the confirmation).
    fn protect_link_word(
        &mut self,
        lane: usize,
        idx: u64,
        node: u64,
        raw: u64,
    ) -> Result<bool, Self::Stop>;

    /// Point the next link of `node` — a node the caller owns, not yet
    /// published — at `idx`.
    fn store_link(&mut self, node: u64, idx: u64) -> Result<(), Self::Stop>;

    /// CAS node `node`'s next link from `raw` to a word designating `idx`
    /// and carrying the deletion mark `marked`.
    fn cas_link(&mut self, node: u64, raw: u64, idx: u64, marked: bool)
        -> Result<bool, Self::Stop>;

    /// Node `node`'s value (a list node's key): the low half of its value
    /// word.
    fn value(&mut self, node: u64) -> Result<u32, Self::Stop>;

    /// Node `node`'s data (a map entry's value): the high half of its value
    /// word.
    fn data(&mut self, node: u64) -> Result<u32, Self::Stop>;

    // -- the node lifecycle -------------------------------------------------

    /// A node carrying `value` and `data`, private to the caller until its
    /// publishing CAS; `None` if the scheme denies the allocation or no node
    /// is free.
    fn alloc(&mut self, value: u32, data: u32) -> Result<Option<u64>, Self::Stop>;

    /// Hand over a node unlinked by a successful CAS; this ends the
    /// operation's protection.
    fn retire(&mut self, node: u64) -> Result<(), Self::Stop>;

    /// Give back a node that was never published.
    fn free(&mut self, node: u64) -> Result<(), Self::Stop>;

    /// Release every protection the operation holds.
    fn quiesce(&mut self) -> Result<(), Self::Stop>;

    /// [`NodeMem::retry`] gave up: record the event (a hardware diagnostic)
    /// and release every protection.
    fn bail(&mut self) -> Result<(), Self::Stop> {
        self.quiesce()
    }

    /// Run `attempt` until it is [`Attempt::Done`].  `None`: the retry
    /// budget ran out — only the unprotected scheme, whose ABA can cycle a
    /// chain, has one — and the caller must [`NodeMem::bail`].  The bound is
    /// `Fn` because the simulator forgets a failed attempt: one must leave
    /// no trace in a captured local.
    fn retry<T>(
        &mut self,
        attempt: impl Fn(&mut Self) -> Result<Attempt<T>, Self::Stop>,
    ) -> Result<Option<T>, Self::Stop>;

    /// Spend one unit of the running [`NodeMem::retry`] loop's budget on a
    /// hop of a walk inside an attempt; `false`: the budget is spent, and
    /// the attempt must end ([`Attempt::Stale`]) so that the loop does.  A
    /// walk on a chain the unprotected scheme has cycled never restarts, so
    /// only this ends it.  By default, with no budget, always `true`.
    fn hop(&mut self) -> bool {
        true
    }

    // -- no step ------------------------------------------------------------

    /// The node a raw slot or link word designates ([`NIL`](crate::NIL) if
    /// none), whether or not the word carries the deletion mark.
    fn index_of(&self, raw: u64) -> u64;

    /// The deletion mark of a raw link word.
    fn mark_of(&self, raw: u64) -> bool;

    // The hardware diagnostics, which a simulated memory does without.

    /// Node `node`'s generation, for [`NodeMem::tally`] (0 where none is
    /// kept).
    fn generation(&self, node: u64) -> u64 {
        let _ = node;
        0
    }

    /// After a successful CAS that acted on node `node`, read at generation
    /// `seen`: count an ABA event if the node was recycled in between.
    fn tally(&self, node: u64, seen: u64) {
        let _ = (node, seen);
    }

    /// The read-then-CAS window of an operation, where a racing hardware
    /// handle yields.
    fn window(&self) {}
}
