//! # aba-reclaim
//!
//! Every ABA-prevention scheme the paper discusses makes two decisions: how
//! a structure word is *represented* (bare, tagged, LL/SC) and *when* a node
//! removed from the structure may be handed back to its allocator (now,
//! after a hazard scan, after two epochs).  This crate factors both out of
//! the lock-free structures in `aba-lockfree`, so a Treiber stack or
//! Michael–Scott queue is written *once* and instantiated per scheme:
//!
//! | [`Scheme`] | Impl | Paper §1 taxonomy | Slot word | [`LinkCodec`] | Free deferred? |
//! |------------|------|-------------------|-----------|---------------|----------------|
//! | `Unprotected` | [`NoReclaim`] | none — the ABA victim | bare index | [`BareLinks`] | no (immediate) |
//! | `Tagged` | [`TagReclaim`] | tagging, unbounded tag | `(index, tag)` via [`TagWord`] | [`CountedLinks`] | no |
//! | `Hazard` | [`HazardReclaim`] | hazard pointers [20, 21] | bare index | [`BareLinks`] | until unprotected |
//! | `LlSc` | [`LlScReclaim`] | LL/SC words (Theorem 2 context) | [`AnnounceLlSc`] triple | [`CountedLinks`] | no |
//! | `Epoch` | [`EpochReclaim`] | epoch / quiescence-based | bare index | [`BareLinks`] | until 2 epoch advances |
//!
//! A structure registers its shared words as *slots* ([`Reclaimer::add_slot`])
//! at construction time and performs every access through a per-thread
//! [`Guard`].  A scheme implements only the guard's *protection core* —
//! `protect`, `load`, `validate`, `cas`, `index_of`, `retire`, `quiesce`,
//! `reclaim_pressure` — and names its [`LinkCodec`]; every link-word method
//! is written once, as a provided method over that codec.  The
//! scheme-specific protocols — publish-then-revalidate for hazard pointers,
//! pin/unpin with three limbo bags for epochs, LL/VL/SC for the LL/SC words,
//! tag bumps for tagging — live entirely behind that interface.
//!
//! The two deferred schemes execute the locked instructions their protocols
//! state and no others — per stack push+pop pair: the two head CASes plus
//! one hazard publish and one clear, or one pin and one unpin.  A hazard
//! guard clears only the lanes it has published, and the *unreclaimed*
//! count both schemes report is a per-thread cell (`gauge.rs`), not a
//! shared counter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicU64, Ordering};

use aba_core::pack::TagWord;
use aba_core::CachePadded;
use aba_core::{AnnounceLlSc, AnnounceLlScHandle};
use aba_hazard::HazardDomain;

pub mod epoch;
mod gauge;

pub use epoch::{EpochGuard, EpochReclaim};
use gauge::{Gauge, GaugeCell};

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
// Mark-capable link-word encodings
// ---------------------------------------------------------------------------

/// How a *mark-capable* link word (a Harris–Michael next link, which folds a
/// "logically deleted" mark into the word so one CAS verifies the successor
/// *and* the deletion status) is represented.  Stateless: a link word is
/// mark-capable only if every write to it went through
/// [`Guard::store_link_mark`] / [`Guard::cas_link_mark`], which encode
/// through the guard's codec.  Two encodings cover the five schemes
/// (DESIGN.md §7): [`BareLinks`] and [`CountedLinks`].
pub trait LinkCodec {
    /// The word that replaces `prev_raw` to designate `idx` ([`NIL`]
    /// allowed) with the given deleted mark.
    fn encode(prev_raw: u64, idx: u64, marked: bool) -> u64;

    /// The index field of a link word ([`NIL`] if none).
    fn index(raw: u64) -> u64;

    /// The logical-deletion mark of a link word.  A fresh arena link holds
    /// the legacy bare nil `u64::MAX`; both codecs decode it as an unmarked
    /// nil, so mark-capable and bare consumers can share an arena.
    fn mark(raw: u64) -> bool;
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
        let base = if idx == NIL { Self::IDX_MASK } else { idx };
        base | if marked { Self::MARK_BIT } else { 0 }
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

/// **Counted + flag** (tagged, LL/SC deep links): a [`TagWord`] whose value
/// field holds the index (`u32::MAX` = nil) and whose tag field keeps a
/// 31-bit write counter with the deleted mark in the tag's top bit — marking
/// a node is itself a counter bump, so a stale CAS can neither miss the mark
/// nor resurrect a recycled link.
#[derive(Debug, Clone, Copy)]
pub struct CountedLinks;

impl CountedLinks {
    /// Deleted-mark flag inside the tag field.
    const MARK_BIT: u32 = 1 << 31;
}

impl LinkCodec for CountedLinks {
    #[inline]
    fn encode(prev_raw: u64, idx: u64, marked: bool) -> u64 {
        let count = TagWord::unpack(prev_raw).tag.wrapping_add(1) & !Self::MARK_BIT;
        TagWord {
            value: tag_encode(idx),
            tag: count | if marked { Self::MARK_BIT } else { 0 },
        }
        .pack()
    }

    #[inline]
    fn index(raw: u64) -> u64 {
        tag_decode(TagWord::unpack(raw).value)
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
/// A scheme implements the eight-method *protection core* (`protect`,
/// `load`, `validate`, `cas`, `index_of`, `retire`, `quiesce`,
/// `reclaim_pressure`) and names its [`LinkCodec`]; everything else is
/// provided.  `raw` words returned by [`Guard::protect`] / [`Guard::load`] /
/// [`Guard::load_link`] are opaque to the structure: it extracts the
/// designated node with [`Guard::index_of`] and passes the raw word back to
/// [`Guard::validate`] / [`Guard::cas`] unchanged.
pub trait Guard: Send {
    /// The encoding of this scheme's mark-capable link words.
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

    /// The node a raw slot word — or a plain ([`Guard::store_link`]) link
    /// word — designates ([`NIL`] if none).
    fn index_of(&self, raw: u64) -> u64;

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

    /// Store a plain link word designating `idx` ([`NIL`] allowed), in the
    /// slot-word encoding [`Guard::index_of`] decodes.  Only legal on a node
    /// the calling thread owns (freshly allocated, not yet linked), which is
    /// why the store is `Relaxed`: the CAS that links the node publishes it.
    /// The default is the bare store; the tagging scheme overrides it to
    /// preserve — and bump — the link's tag across recycling.
    #[inline]
    fn store_link(&self, link: &AtomicU64, idx: u64) {
        // ordering: private until the publishing CAS, which stays `SeqCst`.
        link.store(idx, Ordering::Relaxed);
    }

    /// CAS a plain link word from the observed `raw` to a word designating
    /// `idx` (the bare CAS by default; tag-bumping under tagging).
    #[inline]
    fn cas_link(&self, link: &AtomicU64, raw: u64, idx: u64) -> bool {
        link.compare_exchange(raw, idx, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    // -- mark-capable link words (Harris–Michael logical deletion) ----------
    //
    // Written once over `Self::Links`.  A mark-capable word's index field
    // must be decoded with `marked_index_of`, never `index_of` (a plain word
    // may place [`NIL`] where the codec expects a flag).

    /// Store a mark-capable link word designating `idx` with the given
    /// deleted mark.  Only legal on a node the calling thread owns, which
    /// makes the read-then-store race-free; the counted codec continues the
    /// word's previous counter, which is what defeats a stale CAS aimed at
    /// the node's earlier incarnation.  The store is `Relaxed` on the same
    /// ground as [`Guard::store_link`]'s.
    #[inline]
    fn store_link_mark(&self, link: &AtomicU64, idx: u64, marked: bool) {
        let old = link.load(Ordering::SeqCst);
        // ordering: private until the publishing CAS, which stays `SeqCst`.
        link.store(Self::Links::encode(old, idx, marked), Ordering::Relaxed);
    }

    /// CAS a mark-capable link word from the observed `raw` to a word
    /// designating `idx` carrying `marked`.
    #[inline]
    fn cas_link_mark(&self, link: &AtomicU64, raw: u64, idx: u64, marked: bool) -> bool {
        let new = Self::Links::encode(raw, idx, marked);
        link.compare_exchange(raw, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// The index field of a mark-capable link word ([`NIL`] if none).
    #[inline]
    fn marked_index_of(&self, raw: u64) -> u64 {
        Self::Links::index(raw)
    }

    /// The logical-deletion mark of a mark-capable link word.
    #[inline]
    fn mark_of(&self, raw: u64) -> bool {
        Self::Links::mark(raw)
    }
}

// ---------------------------------------------------------------------------
// NoReclaim: bare words, immediate free — the ABA victim.
// ---------------------------------------------------------------------------

/// No protection at all: bare-index words and immediate recycling.  The
/// textbook ABA victim, kept as the experiments' baseline.
#[derive(Debug, Default)]
pub struct NoReclaim {
    slots: Vec<CachePadded<AtomicU64>>,
}

impl Reclaimer for NoReclaim {
    type Guard<'a> = NoGuard<'a>;

    const SCHEME: Scheme = Scheme::Unprotected;

    fn new(_threads: usize, _lanes: usize) -> Self {
        NoReclaim { slots: Vec::new() }
    }

    fn add_slot(&mut self, idx: u64) -> SlotId {
        self.slots.push(CachePadded::new(AtomicU64::new(idx)));
        self.slots.len() - 1
    }

    fn guard(&self, _tid: usize, _capacity: usize) -> NoGuard<'_> {
        NoGuard { slots: &self.slots }
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
    slots: &'a [CachePadded<AtomicU64>],
}

impl Guard for NoGuard<'_> {
    type Links = BareLinks;

    fn protect(&mut self, _lane: usize, slot: SlotId) -> u64 {
        self.slots[slot].load(Ordering::SeqCst)
    }

    fn load(&mut self, slot: SlotId) -> u64 {
        self.slots[slot].load(Ordering::SeqCst)
    }

    fn validate(&mut self, slot: SlotId, raw: u64) -> bool {
        self.slots[slot].load(Ordering::SeqCst) == raw
    }

    fn cas(&mut self, slot: SlotId, raw: u64, idx: u64) -> bool {
        self.slots[slot]
            .compare_exchange(raw, idx, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    fn index_of(&self, raw: u64) -> u64 {
        raw
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

/// In the tag domain the index field uses `u32::MAX` for nil (the index
/// occupies [`TagWord`]'s 32-bit value field).
const TAG_IDX_NIL: u32 = u32::MAX;

fn tag_encode(idx: u64) -> u32 {
    if idx == NIL {
        TAG_IDX_NIL
    } else {
        idx as u32
    }
}

fn tag_decode(value: u32) -> u64 {
    if value == TAG_IDX_NIL {
        NIL
    } else {
        value as u64
    }
}

/// The §1 tagging technique: every structure and link word packs
/// `(index, tag)` into one CAS word (via `aba-core`'s [`TagWord`], the same
/// helper behind the tagged register baseline), and every successful CAS
/// bumps the tag, so a recycled index can never be confused with its
/// previous incarnation.  Nodes are freed immediately.
#[derive(Debug, Default)]
pub struct TagReclaim {
    slots: Vec<CachePadded<AtomicU64>>,
}

impl Reclaimer for TagReclaim {
    type Guard<'a> = TagGuard<'a>;

    const SCHEME: Scheme = Scheme::Tagged;

    fn new(_threads: usize, _lanes: usize) -> Self {
        TagReclaim { slots: Vec::new() }
    }

    fn add_slot(&mut self, idx: u64) -> SlotId {
        self.slots.push(CachePadded::new(AtomicU64::new(
            TagWord {
                value: tag_encode(idx),
                tag: 0,
            }
            .pack(),
        )));
        self.slots.len() - 1
    }

    fn guard(&self, _tid: usize, _capacity: usize) -> TagGuard<'_> {
        TagGuard { slots: &self.slots }
    }
}

/// Guard of [`TagReclaim`]: packed-word loads, tag-bumping CASes.
#[derive(Debug)]
pub struct TagGuard<'a> {
    slots: &'a [CachePadded<AtomicU64>],
}

impl TagGuard<'_> {
    fn bump(raw: u64, idx: u64) -> u64 {
        TagWord::unpack(raw).bump(tag_encode(idx)).pack()
    }
}

impl Guard for TagGuard<'_> {
    type Links = CountedLinks;

    fn protect(&mut self, _lane: usize, slot: SlotId) -> u64 {
        self.slots[slot].load(Ordering::SeqCst)
    }

    fn load(&mut self, slot: SlotId) -> u64 {
        self.slots[slot].load(Ordering::SeqCst)
    }

    fn validate(&mut self, slot: SlotId, raw: u64) -> bool {
        self.slots[slot].load(Ordering::SeqCst) == raw
    }

    fn cas(&mut self, slot: SlotId, raw: u64, idx: u64) -> bool {
        self.slots[slot]
            .compare_exchange(
                raw,
                Self::bump(raw, idx),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    fn store_link(&self, link: &AtomicU64, idx: u64) {
        // The node is exclusively owned by the caller here, so a plain
        // read-then-store is race-free; preserving (and bumping) the link's
        // previous tag across recycling is what defeats a stale CAS aimed at
        // the node's earlier incarnation.
        let old = link.load(Ordering::SeqCst);
        // ordering: private until the publishing CAS, which stays `SeqCst`.
        link.store(Self::bump(old, idx), Ordering::Relaxed);
    }

    fn cas_link(&self, link: &AtomicU64, raw: u64, idx: u64) -> bool {
        link.compare_exchange(
            raw,
            Self::bump(raw, idx),
            Ordering::SeqCst,
            Ordering::SeqCst,
        )
        .is_ok()
    }

    fn index_of(&self, raw: u64) -> u64 {
        tag_decode(TagWord::unpack(raw).value)
    }

    fn retire(&mut self, idx: u64, mut free: impl FnMut(u64)) {
        free(idx);
    }

    fn quiesce(&mut self) {}

    fn reclaim_pressure(&mut self, _free: impl FnMut(u64)) {}
}

// ---------------------------------------------------------------------------
// HazardReclaim: Michael's hazard pointers over the aba-hazard domain.
// ---------------------------------------------------------------------------

/// Hazard-pointer protection (Michael [20, 21]), wrapping the existing
/// [`HazardDomain`]: `protect` publishes a hazard and re-validates its
/// source, `retire` defers the free until no thread protects the node.
#[derive(Debug)]
pub struct HazardReclaim {
    domain: HazardDomain,
    slots: Vec<CachePadded<AtomicU64>>,
    lanes: usize,
    unreclaimed: Gauge,
}

impl Reclaimer for HazardReclaim {
    type Guard<'a> = HazardGuard<'a>;

    const SCHEME: Scheme = Scheme::Hazard;

    fn new(threads: usize, lanes: usize) -> Self {
        let (threads, lanes) = (threads.max(1), lanes.max(1));
        assert!(
            lanes <= u64::BITS as usize,
            "a guard's published-lane mask is one word"
        );
        HazardReclaim {
            domain: HazardDomain::new(threads * lanes),
            slots: Vec::new(),
            lanes,
            unreclaimed: Gauge::new(threads),
        }
    }

    fn add_slot(&mut self, idx: u64) -> SlotId {
        self.slots.push(CachePadded::new(AtomicU64::new(idx)));
        self.slots.len() - 1
    }

    fn guard(&self, tid: usize, capacity: usize) -> HazardGuard<'_> {
        let unreclaimed = self.unreclaimed.cell(tid);
        HazardGuard {
            lanes: (0..self.lanes)
                .map(|lane| self.domain.handle(tid * self.lanes + lane))
                .collect(),
            cache: (0..self.lanes)
                .map(|_| CachePadded::new((usize::MAX, NIL)))
                .collect(),
            published: 0,
            slots: &self.slots,
            unreclaimed,
            capacity,
            batch: Vec::new(),
            batch_trigger: (self.domain.scan_threshold() / 4).max(1),
        }
    }

    fn unreclaimed(&self) -> u64 {
        self.unreclaimed.sum()
    }
}

impl HazardReclaim {
    /// The underlying hazard domain (for tests and diagnostics).
    pub fn domain(&self) -> &HazardDomain {
        &self.domain
    }
}

/// Guard of [`HazardReclaim`]: one hazard slot per lane, a thread-local
/// retire batch spliced into lane 0's domain list on a size trigger, and a
/// per-lane snapshot cache that keeps the `protect` hot path on one shared
/// cache line.
///
/// A hazard slot is written by this guard alone, so the guard knows which
/// of its slots hold a value without reading them: [`Guard::quiesce`] and
/// [`Guard::retire`] clear exactly the *published* lanes and never store
/// empty over empty — a push, which protects nothing, issues no hazard
/// store at all.
pub struct HazardGuard<'a> {
    lanes: Vec<aba_hazard::HazardHandle<'a>>,
    /// Per-lane `(slot, raw)` snapshot of the last successful protect, each
    /// alone on its cache line: the hot path publishes the cached word and
    /// pays a *single* shared validating load, instead of the
    /// load → publish → re-load double touch of the shared slot array.
    cache: Vec<CachePadded<(SlotId, u64)>>,
    /// Bit `lane` is set whenever this guard's hazard slot `lane` holds a
    /// value.
    published: u64,
    slots: &'a [CachePadded<AtomicU64>],
    unreclaimed: GaugeCell<'a>,
    capacity: usize,
    /// Thread-local retire batch: retirees stage here and are spliced into
    /// the domain's retired list in one append when `batch_trigger` (or the
    /// small-arena pressure rule) is reached — one amortized list splice
    /// instead of a per-node push into the scan-visible list.
    batch: Vec<u64>,
    batch_trigger: usize,
}

impl std::fmt::Debug for HazardGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HazardGuard")
            .field("lanes", &self.lanes.len())
            .finish_non_exhaustive()
    }
}

impl HazardGuard<'_> {
    /// Publish `value` in `lane`'s hazard slot.
    #[inline]
    fn publish(&mut self, lane: usize, value: u64) {
        // Mask first: it may name a lane whose slot is empty (a clear over
        // empty is only wasted), never miss one that holds a value.
        self.published |= 1 << lane;
        self.lanes[lane].protect(value);
    }

    /// Clear every published lane.
    #[inline]
    fn clear_published(&mut self) {
        let mut published = std::mem::take(&mut self.published);
        while published != 0 {
            self.lanes[published.trailing_zeros() as usize].clear();
            published &= published - 1;
        }
    }

    /// Splice the thread-local batch into lane 0's domain list (one append)
    /// and let the domain's scan policy — plus the small-arena eager-flush
    /// rule — reclaim.
    fn flush_batch(&mut self, free: &mut impl FnMut(u64)) {
        let unreclaimed = self.unreclaimed;
        let mut counted = |v: u64| {
            unreclaimed.sub(1);
            free(v);
        };
        self.lanes[0].retire_batch(&mut self.batch, &mut counted);
        // Small arenas need eager reclamation: flush whenever the retired
        // list holds a meaningful share of the arena.
        if self.lanes[0].retired_len() * 4 >= self.capacity {
            self.lanes[0].flush(&mut counted);
        }
    }
}

impl Guard for HazardGuard<'_> {
    type Links = BareLinks;

    fn protect(&mut self, lane: usize, slot: SlotId) -> u64 {
        // Hot path: if the lane's cached snapshot still matches this slot,
        // publish the cached word first and pay a single shared validating
        // load (publish-before-validate order preserved — the white-box
        // `hazard_traversal` test pins that it is load-bearing).
        let (cached_slot, cached_raw) = *self.cache[lane];
        if cached_slot == slot && cached_raw != NIL {
            self.publish(lane, cached_raw);
            if self.slots[slot].load(Ordering::SeqCst) == cached_raw {
                return cached_raw;
            }
        }
        // Slow path: publish, then re-validate that the word did not move
        // before the hazard became visible (the standard protocol), looping
        // until the snapshot is stable; a stable snapshot refills the cache.
        loop {
            let raw = self.slots[slot].load(Ordering::SeqCst);
            if raw == NIL {
                if self.published & (1 << lane) != 0 {
                    self.lanes[lane].clear();
                    self.published &= !(1 << lane);
                }
                return raw;
            }
            self.publish(lane, raw);
            if self.slots[slot].load(Ordering::SeqCst) == raw {
                *self.cache[lane] = (slot, raw);
                return raw;
            }
        }
    }

    fn load(&mut self, slot: SlotId) -> u64 {
        self.slots[slot].load(Ordering::SeqCst)
    }

    fn validate(&mut self, slot: SlotId, raw: u64) -> bool {
        self.slots[slot].load(Ordering::SeqCst) == raw
    }

    fn cas(&mut self, slot: SlotId, raw: u64, idx: u64) -> bool {
        self.slots[slot]
            .compare_exchange(raw, idx, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    fn protect_link(&mut self, lane: usize, idx: u64, slot: SlotId, raw: u64) -> bool {
        // Publish the hazard for the node read out of a link, then confirm
        // the anchoring slot has not moved: only then was the node really
        // reachable — and therefore not yet retired — while both hazards
        // were visible.
        self.publish(lane, idx);
        self.slots[slot].load(Ordering::SeqCst) == raw
    }

    fn protect_link_word(&mut self, lane: usize, idx: u64, link: &AtomicU64, raw: u64) -> bool {
        // Hand-over-hand: publish the hazard for the successor FIRST, then
        // re-read the (still-protected) predecessor's link.  If the link
        // still designates `idx`, the node was reachable — and therefore not
        // yet past a hazard scan — at some instant after the hazard became
        // visible.  Swapping these two steps opens the classic window: a
        // validate-then-publish traversal can protect a node that was
        // retired and scanned between the two, and then dereference it after
        // recycling (the `hazard_traversal` integration test pins this).
        self.publish(lane, idx);
        link.load(Ordering::SeqCst) == raw
    }

    fn index_of(&self, raw: u64) -> u64 {
        raw
    }

    fn retire(&mut self, idx: u64, mut free: impl FnMut(u64)) {
        // The operation is complete: its protections are released before the
        // node is retired, so our own hazards never pin our own retirees.
        self.clear_published();
        assert_ne!(idx, NIL, "the sentinel cannot be retired");
        self.unreclaimed.add(1);
        // Stage in the thread-local batch; the domain's scan-visible list is
        // touched only on the size trigger (one splice per batch) or under
        // the small-arena pressure rule.
        self.batch.push(idx);
        if self.batch.len() >= self.batch_trigger
            || (self.batch.len() + self.lanes[0].retired_len()) * 4 >= self.capacity
        {
            self.flush_batch(&mut free);
        }
    }

    fn quiesce(&mut self) {
        self.clear_published();
    }

    fn reclaim_pressure(&mut self, mut free: impl FnMut(u64)) {
        let unreclaimed = self.unreclaimed;
        let mut counted = |v: u64| {
            unreclaimed.sub(1);
            free(v);
        };
        // The batch must reach the domain before the scan, or staged
        // retirees would survive an arena-exhausted flush.
        self.lanes[0].retire_batch(&mut self.batch, &mut counted);
        self.lanes[0].flush(&mut counted);
    }

    fn admit_alloc(&mut self, live_capacity: usize, free: impl FnMut(u64)) -> bool {
        // Hazard reclamation is already bounded (a parked protector pins
        // exactly one node per lane; the scan policy bounds the rest), so
        // admission never denies — but the eager-flush rule must track a
        // growable arena's published prefix, not the construction-time plan.
        let _ = free;
        self.capacity = live_capacity;
        true
    }
}

impl Drop for HazardGuard<'_> {
    fn drop(&mut self) {
        // Staged retirees move into lane 0's retired list (no scan: a free
        // callback is not available here), whose own drop orphans them onto
        // the domain for adoption — nothing staged is ever silently lost.
        if !self.batch.is_empty() {
            self.lanes[0].stash_batch(&mut self.batch);
        }
    }
}

// ---------------------------------------------------------------------------
// LlScReclaim: every structure word is an LL/SC/VL object.
// ---------------------------------------------------------------------------

/// `u32::MAX` marks nil inside an LL/SC word (its value domain is `u32`).
const LLSC_NIL: u32 = u32::MAX;

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
        let initial = if idx == NIL { LLSC_NIL } else { idx as u32 };
        self.slots.push(CachePadded::new(AnnounceLlSc::with_initial(
            self.threads,
            initial,
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
/// (the LL link and sequence-recycling state live in the handle).
#[derive(Debug)]
pub struct LlScGuard<'a> {
    handles: Vec<AnnounceLlScHandle<'a>>,
}

impl Guard for LlScGuard<'_> {
    // Only registered *slots* are LL/SC objects; a set's or map's deep links
    // are arena words, so their protection is the counted encoding (a stale
    // CAS fails on the bumped counter) and advancing along them only needs
    // the snapshot re-validated — the provided `protect_link_word`.
    type Links = CountedLinks;

    fn protect(&mut self, _lane: usize, slot: SlotId) -> u64 {
        self.handles[slot].ll() as u64
    }

    fn load(&mut self, slot: SlotId) -> u64 {
        // A load that may later be CASed must leave a link: LL.
        self.handles[slot].ll() as u64
    }

    fn validate(&mut self, slot: SlotId, _raw: u64) -> bool {
        // The VL certifies that no SC succeeded on the word since our LL —
        // which is also all `protect_link` needs: the link we read out of
        // the designated node was, and still is, its successor.
        self.handles[slot].vl()
    }

    fn cas(&mut self, slot: SlotId, _raw: u64, idx: u64) -> bool {
        let word = if idx == NIL { LLSC_NIL } else { idx as u32 };
        self.handles[slot].sc(word)
    }

    fn index_of(&self, raw: u64) -> u64 {
        if raw == NIL || raw == LLSC_NIL as u64 {
            NIL
        } else {
            raw
        }
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
        stride_check::<NoReclaim>(|r, s| &r.slots[s] as *const _ as usize);
        stride_check::<TagReclaim>(|r, s| &r.slots[s] as *const _ as usize);
        stride_check::<HazardReclaim>(|r, s| &r.slots[s] as *const _ as usize);
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
    fn hazard_retire_defers_while_protected() {
        let mut r = HazardReclaim::new(2, 1);
        let head = r.add_slot(4);
        let mut protector = r.guard(0, 64);
        let mut retirer = r.guard(1, 64);
        let raw = protector.protect(0, head);
        assert_eq!(raw, 4);
        let mut freed = Vec::new();
        retirer.retire(4, |v| freed.push(v));
        retirer.reclaim_pressure(|v| freed.push(v));
        assert!(freed.is_empty(), "4 is protected by guard 0");
        assert_eq!(r.unreclaimed(), 1);
        protector.quiesce();
        retirer.reclaim_pressure(|v| freed.push(v));
        assert_eq!(freed, vec![4]);
        assert_eq!(r.unreclaimed(), 0);
    }

    #[test]
    fn hazard_small_arena_flushes_eagerly() {
        // With a capacity-8 arena the 2nd unprotected retiree crosses the
        // retired_len * 4 >= capacity bar and the whole list is flushed.
        let mut r = HazardReclaim::new(1, 1);
        let _ = r.add_slot(NIL);
        let mut g = r.guard(0, 8);
        let mut freed = Vec::new();
        g.retire(1, |v| freed.push(v));
        g.retire(2, |v| freed.push(v));
        assert_eq!(freed, vec![1, 2]);
    }

    /// The guard tracks which of its hazard slots hold a value in a private
    /// mask and clears only those; the domain's slots are the truth it must
    /// agree with after any sequence of calls.
    #[test]
    fn hazard_published_mask_agrees_with_the_domain_under_a_random_script() {
        const LANES: usize = 3;
        let mut r = HazardReclaim::new(2, LANES);
        let live = r.add_slot(40);
        let nil = r.add_slot(NIL);
        let link = AtomicU64::new(0);
        let mut g = r.guard(1, 1 << 20);
        let lane_slot = |lane: usize| r.domain().protected_by(LANES + lane);
        let mut state = 0x9E37_79B9_7F4A_7C15u64; // xorshift64, fixed seed
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..10_000 {
            let (call, lane, idx) = (next() % 6, (next() % 3) as usize, next() % 32);
            match call {
                0 => {
                    assert_eq!(g.protect(lane, live), 40);
                    assert_eq!(lane_slot(lane), Some(40), "step {step}");
                }
                1 => {
                    assert_eq!(g.protect(lane, nil), NIL);
                    assert_eq!(lane_slot(lane), None, "step {step}");
                }
                2 => {
                    assert!(g.protect_link(lane, idx, live, 40));
                    assert_eq!(lane_slot(lane), Some(idx), "step {step}");
                }
                3 => {
                    g.store_link_mark(&link, idx, false);
                    assert!(g.protect_link_word(lane, idx, &link, g.load_link(&link)));
                    assert_eq!(lane_slot(lane), Some(idx), "step {step}");
                }
                call => {
                    if call == 4 {
                        g.quiesce();
                    } else {
                        g.retire(100 + idx, |_| {});
                    }
                    for lane in 0..LANES {
                        assert_eq!(lane_slot(lane), None, "step {step}, lane {lane}");
                    }
                }
            }
        }
    }

    #[test]
    fn hazard_adoption_on_another_thread_drives_that_cell_negative_and_the_sum_to_zero() {
        let r = HazardReclaim::new(2, 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut g = r.guard(0, 1 << 20);
                g.retire(5, |_| {});
                g.retire(6, |_| {});
            }) // dropped with both staged: orphaned onto the domain
            .join()
            .unwrap();
            assert_eq!(r.unreclaimed(), 2);
            s.spawn(|| r.guard(1, 1 << 20).reclaim_pressure(|_| {}))
                .join()
                .unwrap();
        });
        assert_eq!(r.unreclaimed(), 0);
        assert_eq!(r.unreclaimed.cell_value(0), 2);
        assert_eq!(r.unreclaimed.cell_value(1), -2);
    }

    #[test]
    #[should_panic(expected = "tid 2 out of range")]
    fn hazard_bad_tid_is_rejected() {
        let _ = HazardReclaim::new(2, 3).guard(2, 8);
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
