//! # aba-reclaim
//!
//! Every ABA-prevention scheme the paper discusses makes two decisions: how
//! a structure word is *represented* (bare, tagged, LL/SC) and *when* a node
//! removed from the structure may be handed back to its allocator (now,
//! after a hazard scan, after two epochs).  This crate factors both out of
//! the lock-free structures in `aba-lockfree`, so a Treiber stack or
//! Michael–Scott queue is written *once* and instantiated per scheme:
//!
//! | [`Scheme`] | Impl | Paper §1 taxonomy | [`LinkCodec`] (slots and links) | Free deferred? |
//! |------------|------|-------------------|---------------------------------|----------------|
//! | `Unprotected` | [`NoReclaim`] | none — the ABA victim | [`BareLinks`] | no (immediate) |
//! | `Tagged` | [`TagReclaim`] | tagging, unbounded tag | [`CountedLinks`] | no |
//! | `Hazard` | [`HazardReclaim`] | hazard pointers [20, 21] | [`BareLinks`] | until unprotected |
//! | `LlSc` | [`LlScReclaim`] | LL/SC words (Theorem 2 context) | [`CountedLinks`] (slots: the value field of an [`AnnounceLlSc`]) | no |
//! | `Epoch` | [`EpochReclaim`] | epoch / quiescence-based | [`BareLinks`] | until 2 epoch advances |
//!
//! A structure registers its shared words as *slots* ([`Reclaimer::add_slot`])
//! at construction time and performs every access through a per-thread
//! [`Guard`].  A scheme implements only the guard's *protection core* —
//! `protect`, `load`, `validate`, `cas`, `retire`, `quiesce`,
//! `reclaim_pressure` — and names its [`LinkCodec`], the one encoding of
//! every structure word it touches: slot words and node links decode through
//! the same [`Guard::index_of`], and every link-word method is written once,
//! as a provided method over that codec.  The scheme-specific protocols —
//! publish-then-revalidate for hazard pointers, pin/unpin with three limbo
//! bags for epochs, LL/VL/SC for the LL/SC words, counter bumps for tagging
//! — live entirely behind that interface.
//!
//! The two deferred schemes live in modules of their own: [`hazard`] (with
//! the hazard-pointer domain it runs on) and [`epoch`].  Both execute the
//! locked instructions their protocols state and no others — per stack
//! push+pop pair: the two head CASes plus one hazard publish and one clear,
//! or one pin and one unpin.  A hazard guard clears only the lanes it has
//! published, and the *unreclaimed* count both schemes report is a
//! per-thread cell (`gauge.rs`), not a shared counter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use aba_core::pack::TagWord;
use aba_core::CachePadded;
use aba_core::{AnnounceLlSc, AnnounceLlScHandle};

pub mod epoch;
mod gauge;
pub mod hazard;

pub use epoch::{EpochGuard, EpochReclaim};
pub use hazard::{HazardGuard, HazardReclaim};

/// Index value meaning "null" in the decoded (index) domain.
pub const NIL: u64 = u64::MAX;

/// Identifier of a structure word registered with [`Reclaimer::add_slot`].
pub type SlotId = usize;

// ---------------------------------------------------------------------------
// The scheme roster
// ---------------------------------------------------------------------------

/// The protection schemes, in roster order (the order every registry,
/// experiment table and BENCH document lists them in — defined once, here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// [`NoReclaim`]: no protection, the ABA victim.
    Unprotected,
    /// [`TagReclaim`]: §1 tagging.
    Tagged,
    /// [`HazardReclaim`]: hazard pointers.
    Hazard,
    /// [`LlScReclaim`]: LL/SC structure words.
    LlSc,
    /// [`EpochReclaim`]: epoch-based reclamation.
    Epoch,
}

/// A computation generic in the reclaimer type, selected at run time by
/// [`Scheme::dispatch`] — how a registry builds "the structure for scheme
/// `s`" while the structure itself stays statically dispatched.
pub trait SchemeFn {
    /// What the computation produces.
    type Out;
    /// Run with the reclaimer type of the selected scheme.
    fn call<R: Reclaimer>(self) -> Self::Out;
}

impl Scheme {
    /// Every scheme, in roster order.
    pub const ALL: [Scheme; 5] = [
        Scheme::Unprotected,
        Scheme::Tagged,
        Scheme::Hazard,
        Scheme::LlSc,
        Scheme::Epoch,
    ];

    /// Run `f` with this scheme's [`Reclaimer`] type — the one place that
    /// maps the enum onto the implementations.
    pub fn dispatch<F: SchemeFn>(self, f: F) -> F::Out {
        match self {
            Scheme::Unprotected => f.call::<NoReclaim>(),
            Scheme::Tagged => f.call::<TagReclaim>(),
            Scheme::Hazard => f.call::<HazardReclaim>(),
            Scheme::LlSc => f.call::<LlScReclaim>(),
            Scheme::Epoch => f.call::<EpochReclaim>(),
        }
    }
}

// ---------------------------------------------------------------------------
// Structure-word encodings
// ---------------------------------------------------------------------------

/// How a scheme represents a structure word — a registered slot or a node's
/// next link — as a raw `u64`: the designated index plus a "logically
/// deleted" mark (a Harris–Michael link folds the mark into the word, so one
/// CAS verifies the successor *and* the deletion status; slots are never
/// marked).  Stateless: every write to a structure word goes through the
/// guard, which encodes through its codec, and every read decodes through
/// it.  Two encodings cover the five schemes (DESIGN.md §7): [`BareLinks`]
/// and [`CountedLinks`].
pub trait LinkCodec {
    /// The word that replaces `prev_raw` to designate `idx` ([`NIL`]
    /// allowed) with the given deleted mark.
    fn encode(prev_raw: u64, idx: u64, marked: bool) -> u64;

    /// The index field of a link word ([`NIL`] if none).
    fn index(raw: u64) -> u64;

    /// The logical-deletion mark of a link word.  A fresh arena link holds
    /// the legacy bare nil `u64::MAX`; both codecs decode it as an unmarked
    /// nil, so every scheme can share one arena.
    fn mark(raw: u64) -> bool;
}

/// Whether codec `C` continues the word it replaces (the counted codec's
/// write counter), so that a store must read the old word first.  The bare
/// codec ignores the old word, and a store under it reads nothing.  Both
/// calls take constant arguments, so the test folds to a constant.
#[inline]
fn continues<C: LinkCodec>() -> bool {
    C::encode(0, NIL, false) != C::encode(NIL, NIL, false)
}

/// **Bare + flag** (unprotected, hazard, epoch): the index in the low 32
/// bits (`0xFFFF_FFFF` = nil), the deleted mark in bit 32.  Nothing
/// distinguishes a recycled word from its previous incarnation — protection,
/// if any, is the scheme's deferral of the free.
#[derive(Debug, Clone, Copy)]
pub struct BareLinks;

impl BareLinks {
    const MARK_BIT: u64 = 1 << 32;
    /// Index mask and in-band nil.
    const IDX_MASK: u64 = 0xFFFF_FFFF;
}

impl LinkCodec for BareLinks {
    #[inline]
    fn encode(_prev_raw: u64, idx: u64, marked: bool) -> u64 {
        // `NIL` masks to the in-band nil; an arena index fits the field.
        (idx & Self::IDX_MASK) | if marked { Self::MARK_BIT } else { 0 }
    }

    #[inline]
    fn index(raw: u64) -> u64 {
        let low = raw & Self::IDX_MASK;
        if low == Self::IDX_MASK {
            NIL
        } else {
            low
        }
    }

    #[inline]
    fn mark(raw: u64) -> bool {
        raw != NIL && raw & Self::MARK_BIT != 0
    }
}

/// **Counted + flag** (tagged; LL/SC links, and LL/SC slots in the value
/// field): a [`TagWord`] whose value field holds the index (`u32::MAX` =
/// nil) and whose tag field keeps a 31-bit write counter with the deleted
/// mark in the tag's top bit — every write bumps the counter and marking a
/// node is itself a bump, so a stale CAS can neither miss the mark nor
/// resurrect a recycled word.
#[derive(Debug, Clone, Copy)]
pub struct CountedLinks;

impl CountedLinks {
    /// Deleted-mark flag inside the tag field.
    const MARK_BIT: u32 = 1 << 31;

    /// The value field designating `idx` ([`NIL`] allowed) — also the value
    /// an LL/SC slot holds.  [`NIL`] truncates to the in-band nil
    /// `u32::MAX`; an arena index fits the field.
    #[inline]
    fn field(idx: u64) -> u32 {
        idx as u32
    }
}

impl LinkCodec for CountedLinks {
    #[inline]
    fn encode(prev_raw: u64, idx: u64, marked: bool) -> u64 {
        let count = TagWord::unpack(prev_raw).tag.wrapping_add(1) & !Self::MARK_BIT;
        TagWord {
            value: Self::field(idx),
            tag: count | if marked { Self::MARK_BIT } else { 0 },
        }
        .pack()
    }

    #[inline]
    fn index(raw: u64) -> u64 {
        match TagWord::unpack(raw).value {
            u32::MAX => NIL,
            value => value as u64,
        }
    }

    #[inline]
    fn mark(raw: u64) -> bool {
        // The legacy bare nil's tag field would read as "marked"; excluding
        // it costs one word of the 31-bit counter space.
        raw != NIL && TagWord::unpack(raw).tag & Self::MARK_BIT != 0
    }
}

// ---------------------------------------------------------------------------
// The trait pair
// ---------------------------------------------------------------------------

/// A node-reclamation / ABA-protection scheme for index-linked structures.
///
/// The protocol between a structure and its reclaimer:
///
/// 1. at construction the structure calls [`Reclaimer::add_slot`] once per
///    shared word (head, tail, …) — all slots before the first guard;
/// 2. each worker thread obtains one [`Guard`] via [`Reclaimer::guard`] and
///    performs every slot and link access through it;
/// 3. a node unlinked by a successful [`Guard::cas`] is handed to
///    [`Guard::retire`], which frees it *now* (unprotected, tagged, LL/SC) or
///    *later* (hazard pointers, epochs) via the supplied `free` callback.
pub trait Reclaimer: Send + Sync + 'static {
    /// The per-thread guard type.
    type Guard<'a>: Guard
    where
        Self: 'a;

    /// Which roster entry this is; display labels and registry keys are
    /// derived from it (`aba-lockfree`'s `Family` table), not stored here.
    const SCHEME: Scheme;

    /// A reclaimer for `threads` threads, each of which may protect up to
    /// `lanes` nodes simultaneously (1 for a stack, 2 for an MS queue).
    fn new(threads: usize, lanes: usize) -> Self;

    /// Register a shared structure word initially designating node `idx`
    /// ([`NIL`] for an initially empty word).  Must be called before the
    /// first [`Reclaimer::guard`].
    fn add_slot(&mut self, idx: u64) -> SlotId;

    /// The per-thread guard for `tid`.  `capacity` is the node-arena
    /// capacity, used by deferred schemes to size their eager-reclamation
    /// policy (small arenas must not starve behind a long limbo list).
    fn guard(&self, tid: usize, capacity: usize) -> Self::Guard<'_>;

    /// Number of nodes retired but not yet handed back to the allocator —
    /// the scheme's *space overhead*, the paper's second axis.  Always 0 for
    /// immediate-free schemes.
    fn unreclaimed(&self) -> u64 {
        0
    }

    /// For schemes whose ABA can corrupt a queue's links into a cycle
    /// (only [`NoReclaim`]): the retry budget after which an operation must
    /// bail out rather than wedge the harness.  `None` = retry forever.
    fn retry_bound(&self, capacity: usize) -> Option<usize> {
        let _ = capacity;
        None
    }
}

/// Per-thread access handle of a [`Reclaimer`].
///
/// A scheme implements the seven-method *protection core* (`protect`,
/// `load`, `validate`, `cas`, `retire`, `quiesce`, `reclaim_pressure`) and
/// names its [`LinkCodec`]; everything else is provided.  `raw` words
/// returned by [`Guard::protect`] / [`Guard::load`] / [`Guard::load_link`]
/// are opaque to the structure: it extracts the designated node with
/// [`Guard::index_of`] and passes the raw word back to [`Guard::validate`] /
/// [`Guard::cas`] (or [`Guard::cas_link_mark`]) unchanged.
pub trait Guard: Send {
    /// The one encoding of every structure word this scheme touches: the
    /// registered slots and the node links.
    type Links: LinkCodec;

    // -- the protection core ------------------------------------------------

    /// Validated, *protected* load of a slot: after this returns, the
    /// designated node (if any) will not be recycled until the protection is
    /// released by [`Guard::retire`] or [`Guard::quiesce`].  `lane` selects
    /// which of the guard's protection lanes to use.
    fn protect(&mut self, lane: usize, slot: SlotId) -> u64;

    /// Plain load of a slot, without node protection (for words that are
    /// only CASed, never dereferenced — e.g. a stack head during push).
    fn load(&mut self, slot: SlotId) -> u64;

    /// Whether `slot` still holds `raw` (a `VL` for LL/SC words).
    fn validate(&mut self, slot: SlotId, raw: u64) -> bool;

    /// Attempt to swing `slot` from the previously observed `raw` to a word
    /// designating `idx` ([`NIL`] allowed); an intervening change makes it
    /// fail.
    fn cas(&mut self, slot: SlotId, raw: u64, idx: u64) -> bool;

    /// Hand over a node unlinked by a successful [`Guard::cas`].  Releases
    /// this operation's protections, then frees the node through `free` —
    /// immediately, or once the scheme's safety condition holds.
    fn retire(&mut self, idx: u64, free: impl FnMut(u64));

    /// Release all protections without retiring anything (the empty-return
    /// and push/enqueue completion paths).
    fn quiesce(&mut self);

    /// Allocation-pressure hook: reclaim everything that can possibly be
    /// reclaimed right now (the arena is exhausted).  Must be called
    /// quiesced.
    fn reclaim_pressure(&mut self, free: impl FnMut(u64));

    /// Allocation admission, called with the arena's current *live*
    /// capacity before each allocation.  Schemes with a deferred-free
    /// footprint use it to (a) retune capacity-derived policy to a growable
    /// arena's published prefix and (b) bound their limbo: when the
    /// unreclaimed footprint exceeds the scheme's budget, the guard
    /// help-reclaims through `free`, and returns `false` — denying the
    /// allocation — only if reclamation cannot make progress (e.g. every
    /// epoch advance is blocked by a stale pin).  Immediate-free schemes
    /// always admit (the default).
    fn admit_alloc(&mut self, live_capacity: usize, free: impl FnMut(u64)) -> bool {
        let _ = (live_capacity, free);
        true
    }

    // -- extending protection along links -----------------------------------
    //
    // For every scheme whose protection does not name individual nodes
    // (tags and LL/SC words fail a stale CAS; an epoch pin covers everything
    // reachable) extending protection is just re-validating the snapshot —
    // the defaults.  Only hazard pointers publish something first.

    /// Extend protection in `lane` to node `idx` (read out of a link word),
    /// then confirm `slot` still holds `raw`; `false` means the snapshot went
    /// stale and the caller must retry before trusting the protection.
    #[inline]
    fn protect_link(&mut self, lane: usize, idx: u64, slot: SlotId, raw: u64) -> bool {
        let _ = (lane, idx);
        self.validate(slot, raw)
    }

    /// [`Guard::protect_link`] re-anchored on a *link word* instead of a
    /// slot: extend protection in `lane` to node `idx` (read out of `link`),
    /// then confirm `link` still holds `raw`.  This is the hand-over-hand
    /// step of a chain traversal (Harris–Michael set): `link` belongs to a
    /// node that is itself still protected, so if it still designates `idx`,
    /// the new protection was published while `idx` was reachable.
    #[inline]
    fn protect_link_word(&mut self, lane: usize, idx: u64, link: &AtomicU64, raw: u64) -> bool {
        let _ = (lane, idx);
        self.validate_link(link, raw)
    }

    // -- decoding (any structure word) --------------------------------------

    /// The node a raw structure word — a slot or a link — designates
    /// ([`NIL`] if none): the one decoder, over `Self::Links`.
    #[inline]
    fn index_of(&self, raw: u64) -> u64 {
        Self::Links::index(raw)
    }

    /// [`Guard::index_of`] under the name a Harris–Michael traversal reads
    /// a link's successor with.
    #[inline]
    fn marked_index_of(&self, raw: u64) -> u64 {
        self.index_of(raw)
    }

    /// The logical-deletion mark of a link word.
    #[inline]
    fn mark_of(&self, raw: u64) -> bool {
        Self::Links::mark(raw)
    }

    // -- link words (a node's next field) -----------------------------------

    /// Load a link word.
    #[inline]
    fn load_link(&self, link: &AtomicU64) -> u64 {
        link.load(Ordering::SeqCst)
    }

    /// Whether `link` still holds `raw` — the `*prev == cur` re-validation
    /// of a Harris–Michael traversal.  Unlike [`Guard::protect_link_word`]
    /// this publishes nothing.
    #[inline]
    fn validate_link(&self, link: &AtomicU64, raw: u64) -> bool {
        self.load_link(link) == raw
    }

    /// Store a link word designating `idx` ([`NIL`] allowed) with the given
    /// deleted mark.  Only legal on a node the calling thread owns (freshly
    /// allocated, not yet linked), which is why the store is `Relaxed` — the
    /// CAS that links the node publishes it — and why a codec that continues
    /// the word's previous counter may read it first without a race: that
    /// counter is what defeats a stale CAS aimed at the node's earlier
    /// incarnation.  Under a codec that does not continue the old word the
    /// store reads nothing.
    #[inline]
    fn store_link_mark(&self, link: &AtomicU64, idx: u64, marked: bool) {
        let old = if continues::<Self::Links>() {
            link.load(Ordering::SeqCst)
        } else {
            NIL
        };
        // ordering: private until the publishing CAS, which stays `SeqCst`.
        link.store(Self::Links::encode(old, idx, marked), Ordering::Relaxed);
    }

    /// CAS a link word from the observed `raw` to a word designating `idx`
    /// carrying `marked`.
    #[inline]
    fn cas_link_mark(&self, link: &AtomicU64, raw: u64, idx: u64, marked: bool) -> bool {
        let new = Self::Links::encode(raw, idx, marked);
        link.compare_exchange(raw, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
}

// ---------------------------------------------------------------------------
// Registered slot words
// ---------------------------------------------------------------------------

/// The registered slots of a scheme whose slots are plain atomic words —
/// every scheme but LL/SC — each encoded by the scheme's codec `C` and alone
/// on its cache line, so a queue's head and tail never false-share.
#[derive(Debug)]
struct Slots<C> {
    words: Vec<CachePadded<AtomicU64>>,
    codec: PhantomData<C>,
}

impl<C> Default for Slots<C> {
    fn default() -> Self {
        Slots {
            words: Vec::new(),
            codec: PhantomData,
        }
    }
}

impl<C: LinkCodec> Slots<C> {
    /// [`Reclaimer::add_slot`].
    fn add(&mut self, idx: u64) -> SlotId {
        let word = C::encode(NIL, idx, false);
        self.words.push(CachePadded::new(AtomicU64::new(word)));
        self.words.len() - 1
    }

    /// The accessor a guard holds.  It carries the slice itself: reached
    /// through `&Slots` instead — one more dependent load per access — the
    /// unprotected stack's push+pop pair read ≈ 5 ns slower on a 2-vCPU
    /// x86-64 host (EXPERIMENTS.md E27).
    fn view(&self) -> SlotView<'_, C> {
        SlotView {
            words: &self.words,
            codec: PhantomData,
        }
    }
}

/// A guard's access to [`Slots`]: load, validate and CAS, every written
/// word encoded by `C`.
#[derive(Debug, Clone, Copy)]
struct SlotView<'a, C> {
    words: &'a [CachePadded<AtomicU64>],
    codec: PhantomData<C>,
}

impl<C: LinkCodec> SlotView<'_, C> {
    #[inline]
    fn load(&self, slot: SlotId) -> u64 {
        self.words[slot].load(Ordering::SeqCst)
    }

    #[inline]
    fn validate(&self, slot: SlotId, raw: u64) -> bool {
        self.load(slot) == raw
    }

    #[inline]
    fn cas(&self, slot: SlotId, raw: u64, idx: u64) -> bool {
        let new = C::encode(raw, idx, false);
        self.words[slot]
            .compare_exchange(raw, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
}

// ---------------------------------------------------------------------------
// NoReclaim: bare words, immediate free — the ABA victim.
// ---------------------------------------------------------------------------

/// No protection at all: bare-index words and immediate recycling.  The
/// textbook ABA victim, kept as the experiments' baseline.
#[derive(Debug, Default)]
pub struct NoReclaim {
    slots: Slots<BareLinks>,
}

impl Reclaimer for NoReclaim {
    type Guard<'a> = NoGuard<'a>;

    const SCHEME: Scheme = Scheme::Unprotected;

    fn new(_threads: usize, _lanes: usize) -> Self {
        NoReclaim::default()
    }

    fn add_slot(&mut self, idx: u64) -> SlotId {
        self.slots.add(idx)
    }

    fn guard(&self, _tid: usize, _capacity: usize) -> NoGuard<'_> {
        NoGuard {
            slots: self.slots.view(),
        }
    }

    fn retry_bound(&self, capacity: usize) -> Option<usize> {
        // An ABA can link the queue into a cycle, after which the standard
        // unbounded retry loops spin forever; bail out after a generous
        // budget so the harness observes the corruption instead of wedging.
        Some(8 * capacity + 256)
    }
}

/// Guard of [`NoReclaim`]: plain loads and CASes.
#[derive(Debug)]
pub struct NoGuard<'a> {
    slots: SlotView<'a, BareLinks>,
}

impl Guard for NoGuard<'_> {
    type Links = BareLinks;

    fn protect(&mut self, _lane: usize, slot: SlotId) -> u64 {
        self.slots.load(slot)
    }

    fn load(&mut self, slot: SlotId) -> u64 {
        self.slots.load(slot)
    }

    fn validate(&mut self, slot: SlotId, raw: u64) -> bool {
        self.slots.validate(slot, raw)
    }

    fn cas(&mut self, slot: SlotId, raw: u64, idx: u64) -> bool {
        self.slots.cas(slot, raw, idx)
    }

    fn retire(&mut self, idx: u64, mut free: impl FnMut(u64)) {
        free(idx);
    }

    fn quiesce(&mut self) {}

    fn reclaim_pressure(&mut self, _free: impl FnMut(u64)) {}
}

// ---------------------------------------------------------------------------
// TagReclaim: §1 tagging — (index, tag) words, every CAS bumps the tag.
// ---------------------------------------------------------------------------

/// The §1 tagging technique: every slot and link word packs `(index, tag)`
/// into one CAS word ([`CountedLinks`], over `aba-core`'s [`TagWord`], the
/// same helper behind the tagged register baseline), and every write bumps
/// the tag, so a recycled index can never be confused with its previous
/// incarnation.  Nodes are freed immediately.
#[derive(Debug, Default)]
pub struct TagReclaim {
    slots: Slots<CountedLinks>,
}

impl Reclaimer for TagReclaim {
    type Guard<'a> = TagGuard<'a>;

    const SCHEME: Scheme = Scheme::Tagged;

    fn new(_threads: usize, _lanes: usize) -> Self {
        TagReclaim::default()
    }

    fn add_slot(&mut self, idx: u64) -> SlotId {
        self.slots.add(idx)
    }

    fn guard(&self, _tid: usize, _capacity: usize) -> TagGuard<'_> {
        TagGuard {
            slots: self.slots.view(),
        }
    }
}

/// Guard of [`TagReclaim`]: packed-word loads, tag-bumping CASes.
#[derive(Debug)]
pub struct TagGuard<'a> {
    slots: SlotView<'a, CountedLinks>,
}

impl Guard for TagGuard<'_> {
    type Links = CountedLinks;

    fn protect(&mut self, _lane: usize, slot: SlotId) -> u64 {
        self.slots.load(slot)
    }

    fn load(&mut self, slot: SlotId) -> u64 {
        self.slots.load(slot)
    }

    fn validate(&mut self, slot: SlotId, raw: u64) -> bool {
        self.slots.validate(slot, raw)
    }

    fn cas(&mut self, slot: SlotId, raw: u64, idx: u64) -> bool {
        self.slots.cas(slot, raw, idx)
    }

    fn retire(&mut self, idx: u64, mut free: impl FnMut(u64)) {
        free(idx);
    }

    fn quiesce(&mut self) {}

    fn reclaim_pressure(&mut self, _free: impl FnMut(u64)) {}
}

// ---------------------------------------------------------------------------
// LlScReclaim: every structure word is an LL/SC/VL object.
// ---------------------------------------------------------------------------

/// The paper's primitive as the fix: every structure word is an LL/SC/VL
/// object ([`AnnounceLlSc`]), so a store-conditional fails whenever any
/// successful SC intervened — a recycled index can never be confused with
/// its previous incarnation.  Nodes are freed immediately.
#[derive(Debug)]
pub struct LlScReclaim {
    threads: usize,
    slots: Vec<CachePadded<AnnounceLlSc>>,
}

impl Reclaimer for LlScReclaim {
    type Guard<'a> = LlScGuard<'a>;

    const SCHEME: Scheme = Scheme::LlSc;

    fn new(threads: usize, _lanes: usize) -> Self {
        LlScReclaim {
            threads: threads.max(1),
            slots: Vec::new(),
        }
    }

    fn add_slot(&mut self, idx: u64) -> SlotId {
        self.slots.push(CachePadded::new(AnnounceLlSc::with_initial(
            self.threads,
            CountedLinks::field(idx),
        )));
        self.slots.len() - 1
    }

    fn guard(&self, tid: usize, _capacity: usize) -> LlScGuard<'_> {
        LlScGuard {
            handles: self.slots.iter().map(|s| s.handle(tid)).collect(),
        }
    }
}

/// Guard of [`LlScReclaim`]: one persistent [`AnnounceLlScHandle`] per slot
/// (the LL link and sequence-recycling state live in the handle).  A slot's
/// raw word is its `LL` value in the counted codec's value field, so
/// [`Guard::index_of`] reads slots and links alike.
#[derive(Debug)]
pub struct LlScGuard<'a> {
    handles: Vec<AnnounceLlScHandle<'a>>,
}

impl Guard for LlScGuard<'_> {
    // Only registered *slots* are LL/SC objects; the structures' next links
    // are arena words, so their protection is the counted encoding (a stale
    // CAS fails on the bumped counter) and advancing along them only needs
    // the snapshot re-validated — the provided `protect_link_word`.
    type Links = CountedLinks;

    fn protect(&mut self, _lane: usize, slot: SlotId) -> u64 {
        self.load(slot)
    }

    fn load(&mut self, slot: SlotId) -> u64 {
        // A load that may later be CASed must leave a link: LL.
        TagWord::initial(self.handles[slot].ll()).pack()
    }

    fn validate(&mut self, slot: SlotId, _raw: u64) -> bool {
        // The VL certifies that no SC succeeded on the word since our LL —
        // which is also all `protect_link` needs: the link we read out of
        // the designated node was, and still is, its successor.
        self.handles[slot].vl()
    }

    fn cas(&mut self, slot: SlotId, _raw: u64, idx: u64) -> bool {
        self.handles[slot].sc(CountedLinks::field(idx))
    }

    fn retire(&mut self, idx: u64, mut free: impl FnMut(u64)) {
        free(idx);
    }

    fn quiesce(&mut self) {}

    fn reclaim_pressure(&mut self, _free: impl FnMut(u64)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Layout regression: the structure hot words (stack heads, queue
    /// heads/tails) registered through `add_slot` must each own a 64-byte
    /// cache line, or head and tail of the same queue false-share.
    #[test]
    fn registered_slots_are_cache_line_padded() {
        fn stride_check<R: Reclaimer>(slot_addr: impl Fn(&R, SlotId) -> usize) {
            let mut r = R::new(2, 2);
            let a = r.add_slot(NIL);
            let b = r.add_slot(NIL);
            let (pa, pb) = (slot_addr(&r, a), slot_addr(&r, b));
            assert!(
                pa.is_multiple_of(64) && pb.is_multiple_of(64),
                "{:?}: slot misaligned",
                R::SCHEME
            );
            assert!(
                pb.abs_diff(pa) >= 64,
                "{:?}: adjacent slots share a cache line",
                R::SCHEME
            );
        }
        stride_check::<NoReclaim>(|r, s| &r.slots.words[s] as *const _ as usize);
        stride_check::<TagReclaim>(|r, s| &r.slots.words[s] as *const _ as usize);
        stride_check::<HazardReclaim>(|r, s| &r.slots.words[s] as *const _ as usize);
        stride_check::<LlScReclaim>(|r, s| &r.slots[s] as *const _ as usize);
    }

    #[test]
    fn tagged_cas_defeats_a_recycled_word() {
        // The classic ABA shape: observe (idx 3), swing away and back; the
        // raw word's tag has moved on, so the stale CAS fails even though
        // the index matches.
        let mut r = TagReclaim::new(2, 1);
        let head = r.add_slot(3);
        let mut a = r.guard(0, 8);
        let mut b = r.guard(1, 8);
        let stale = a.protect(0, head);
        let raw = b.protect(0, head);
        assert!(b.cas(head, raw, 7));
        let raw = b.protect(0, head);
        assert!(b.cas(head, raw, 3)); // back to index 3, tag bumped twice
        let now = b.load(head);
        assert_eq!(b.index_of(now), 3);
        assert!(!a.cas(head, stale, 9), "stale CAS must fail despite A-B-A");
    }

    #[test]
    fn unprotected_cas_is_fooled_by_a_recycled_word() {
        let mut r = NoReclaim::new(2, 1);
        let head = r.add_slot(3);
        let mut a = r.guard(0, 8);
        let mut b = r.guard(1, 8);
        let stale = a.protect(0, head);
        let raw = b.load(head);
        assert!(b.cas(head, raw, 7));
        let raw = b.load(head);
        assert!(b.cas(head, raw, 3));
        assert!(
            a.cas(head, stale, 9),
            "the unprotected CAS succeeds on the recycled word — the ABA"
        );
    }

    #[test]
    fn llsc_sc_fails_after_any_intervening_sc() {
        let mut r = LlScReclaim::new(2, 1);
        let head = r.add_slot(3);
        let mut a = r.guard(0, 8);
        let mut b = r.guard(1, 8);
        let stale = a.protect(0, head);
        let raw = b.load(head);
        assert!(b.cas(head, raw, 7));
        let raw = b.load(head);
        assert!(b.cas(head, raw, 3));
        assert!(!a.cas(head, stale, 9), "SC must fail despite the A-B-A");
        assert!(!a.validate(head, stale));
    }

    #[test]
    fn dispatch_reaches_the_reclaimer_that_names_the_scheme() {
        struct Named;
        impl SchemeFn for Named {
            type Out = Scheme;
            fn call<R: Reclaimer>(self) -> Scheme {
                R::SCHEME
            }
        }
        for scheme in Scheme::ALL {
            assert_eq!(scheme.dispatch(Named), scheme);
        }
    }

    fn codec_roundtrip<C: LinkCodec>() {
        // A fresh arena link (the legacy bare nil) decodes as unmarked nil.
        assert_eq!(C::index(NIL), NIL);
        assert!(!C::mark(NIL));
        let mut raw = NIL;
        for (idx, marked) in [(5, false), (5, true), (NIL, true), (NIL, false), (0, false)] {
            raw = C::encode(raw, idx, marked);
            assert_eq!(C::index(raw), idx, "index of ({idx}, {marked})");
            assert_eq!(C::mark(raw), marked, "mark of ({idx}, {marked})");
        }
        assert_eq!(
            C::index(C::encode(NIL, u32::MAX as u64 - 1, true)),
            u32::MAX as u64 - 1
        );
    }

    #[test]
    fn both_codecs_round_trip_index_mark_and_nil() {
        codec_roundtrip::<BareLinks>();
        codec_roundtrip::<CountedLinks>();
    }

    #[test]
    fn only_the_counted_codec_tells_a_recycled_word_from_its_first_life() {
        // A-B-A on the index: 3 -> 7 -> 3, each word encoded over its
        // predecessor as a CAS would.
        fn recycled_equals_original<C: LinkCodec>() -> bool {
            let first = C::encode(NIL, 3, false);
            let away = C::encode(first, 7, false);
            C::encode(away, 3, false) == first
        }
        assert!(recycled_equals_original::<BareLinks>());
        assert!(!recycled_equals_original::<CountedLinks>());
        // Marking is itself a bump: a CAS armed with the unmarked word fails.
        let live = CountedLinks::encode(NIL, 3, false);
        assert_ne!(CountedLinks::encode(live, 3, true), live);
    }

    #[test]
    fn counted_marks_survive_a_recycled_link_word() {
        // The set-flavoured ABA on a link: observe (idx 3, unmarked), let the
        // word move away and back to index 3; under the counted encoding the
        // stale CAS fails (tag moved on), under the bare encoding it succeeds.
        fn recycle<R: Reclaimer>(expect_protected: bool) {
            let r = R::new(1, 1);
            let g = r.guard(0, 8);
            let link = AtomicU64::new(NIL);
            g.store_link_mark(&link, 3, false);
            let stale = g.load_link(&link);
            let raw = g.load_link(&link);
            assert!(g.cas_link_mark(&link, raw, 7, false));
            let raw = g.load_link(&link);
            assert!(g.cas_link_mark(&link, raw, 3, false)); // A-B-A on the index
            assert_eq!(g.marked_index_of(g.load_link(&link)), 3);
            let fooled = g.cas_link_mark(&link, stale, 9, false);
            assert_eq!(fooled, !expect_protected, "{:?}", R::SCHEME);
        }
        recycle::<TagReclaim>(true);
        recycle::<LlScReclaim>(true);
        recycle::<NoReclaim>(false);
    }

    #[test]
    fn only_the_unprotected_scheme_bounds_retries() {
        assert!(NoReclaim::new(1, 1).retry_bound(8).is_some());
        assert!(TagReclaim::new(1, 1).retry_bound(8).is_none());
        assert!(HazardReclaim::new(1, 1).retry_bound(8).is_none());
        assert!(EpochReclaim::new(1, 1).retry_bound(8).is_none());
        assert!(LlScReclaim::new(1, 1).retry_bound(8).is_none());
    }
}
