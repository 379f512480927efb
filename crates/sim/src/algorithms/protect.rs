//! The protection sub-machine shared by the simulated structures — the
//! simulator's counterpart of `aba_reclaim`'s `Guard`.
//!
//! A structure model ([`queue`](super::queue), [`set`](super::set)) writes
//! down only its own traversal and linking steps.  Everything a protection
//! scheme adds — allocating from and releasing to the free set, the epoch
//! pin / retire stamp / advance / quarantine protocol, hazard publication,
//! scanning and lane clearing — exists once, here, as a [`Sub`]-state with
//! one [`Protection::poised`] arm and one [`Protection::apply`] arm per
//! shared-memory step.  A structure embeds the sub-machine as a single
//! `State::Protect(Sub, After)` variant: it opens a sub-sequence through the
//! entry point named after the `Guard` method it models (DESIGN.md §3.1 maps
//! each to its hardware file), forwards `poised`/`apply` while the answer is
//! [`Step::Goto`], and on [`Step::Done`] resumes at its own continuation
//! `After` with the [`Outcome`].  *Which* sub-sequences run in *what* order
//! is therefore the structure's composition (the queue pins after preparing
//! its node and chains quarantine transfer/adoption after an advance; the
//! set pins first and does neither) — nothing here asks which structure it
//! serves.
//!
//! Limbo bags are process-*private* (each process's own retired nodes, never
//! read by others), so they live in [`Protection`] rather than in shared
//! objects, as do the last observed global epoch, the blocked-advance
//! counter and the hazards collected by a scan in progress.

use aba_spec::ProcessId;

use crate::object::{BaseObject, BaseOp, ObjId, StepResult};

/// Hazard lanes per process of a traversing structure (predecessor /
/// current / successor).
pub(crate) const HAZ_LANES: usize = 3;

/// Consecutive blocked advance attempts after which a process may transfer
/// its private limbo to the shared quarantine.  Mirrors
/// `aba_reclaim::EpochReclaim`'s `TRANSFER_AFTER_BLOCKED`.
pub const TRANSFER_AFTER_BLOCKED: u32 = 2;

/// Which ABA-protection protocol a structure model runs (the simulated
/// subset of `aba_reclaim::Scheme`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scheme {
    /// Bare words, immediate free: the ABA victim.
    Unprotected,
    /// Counted words bumped by every CAS (§1 tagging), immediate free.
    Tagged,
    /// Per-process hazard registers; a retired node waits in limbo until a
    /// scan finds it unprotected.
    Hazard,
    /// Epoch-based reclamation: pin while operating, free after two advances.
    Epoch,
}

impl Scheme {
    /// The encoding of this scheme's head and link words.
    pub(crate) fn links(self) -> LinkCodec {
        match self {
            Scheme::Tagged => LinkCodec::Counted,
            _ => LinkCodec::Bare,
        }
    }
}

/// The link-word codec, the simulator's `aba_reclaim::LinkCodec`: every word
/// is `(tag << 33) | (mark << 32) | index`.  The bare codec keeps tag 0 —
/// which is precisely why its stale CASes can succeed; the counted codec
/// continues the replaced word's tag, so a recycled index never compares
/// equal to its previous incarnation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkCodec {
    Bare,
    Counted,
}

impl LinkCodec {
    /// The node a word designates (the arena capacity means nil).
    pub(crate) fn index(self, raw: u64) -> u64 {
        raw & 0xFFFF_FFFF
    }

    /// The logical-deletion mark of a word.
    pub(crate) fn marked(self, raw: u64) -> bool {
        (raw >> 32) & 1 == 1
    }

    /// The word that replaces `old_raw` when repointing to `idx`.
    pub(crate) fn encode(self, old_raw: u64, idx: u64, marked: bool) -> u64 {
        let tag = match self {
            LinkCodec::Counted => (old_raw >> 33).wrapping_add(1),
            LinkCodec::Bare => 0,
        };
        (tag << 33) | (u64::from(marked) << 32) | idx
    }
}

/// Object ids of the free set and of the protection registers, which follow
/// the structure's own objects: the global epoch, one local-epoch register
/// per process (`0` = quiescent, `e + 1` = pinned at epoch `e`), `lanes`
/// hazard registers per process (`0` = clear, `idx + 1` = protecting node
/// `idx`), then — iff `stamps > 0` — the quarantine bit mask (bit `i` set =
/// node `i` is adoptable by any process) and one quarantine epoch-stamp
/// register per node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    /// The free *set*: a bitmask, so allocation is a single CAS —
    /// deliberately trivial, every anomaly is attributable to the structure.
    pub(crate) free: ObjId,
    /// The first protection register (= the structure's own object count).
    pub(crate) base: ObjId,
    /// Number of processes.
    pub(crate) n: usize,
    /// Hazard lanes per process (0 for a structure that publishes none).
    pub(crate) lanes: usize,
    /// Quarantine stamp registers (the arena capacity, or 0 for a structure
    /// that never transfers).
    pub(crate) stamps: usize,
}

impl Layout {
    pub(crate) fn global_epoch(&self) -> ObjId {
        self.base
    }

    pub(crate) fn local_epoch(&self, p: ProcessId) -> ObjId {
        self.base + 1 + p
    }

    pub(crate) fn hazard(&self, p: ProcessId, lane: usize) -> ObjId {
        self.base + 1 + self.n + self.lanes * p + lane
    }

    pub(crate) fn quarantine_mask(&self) -> ObjId {
        self.base + 1 + (1 + self.lanes) * self.n
    }

    pub(crate) fn quarantine_stamp(&self, idx: usize) -> ObjId {
        self.quarantine_mask() + 1 + idx
    }

    /// The protection registers in id order, all initially 0.
    pub(crate) fn registers(&self) -> Vec<BaseObject> {
        let mut registers = vec![BaseObject::cas(0)]; // global epoch
        registers.resize((1 + self.lanes) * self.n + 1, BaseObject::register(0));
        if self.stamps > 0 {
            registers.push(BaseObject::cas(0)); // quarantine mask
            registers.resize(registers.len() + self.stamps, BaseObject::register(0));
        }
        registers
    }
}

/// One shared-memory step of a protection sub-sequence.  Every variant
/// carries the words read so far, so the enum stays `Copy + Eq` like the
/// structure states that embed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sub {
    // --- admit_alloc: take one node out of the free set ---
    AllocRead { retried: bool },
    AllocCas { retried: bool, mask: u64, idx: u64 },
    // --- release, transfer: hand the nodes `bits` over to the shared bit
    // mask `to` (the free set: reusable; the quarantine mask: adoptable) ---
    HandOverRead { to: ObjId, bits: u64 },
    HandOverCas { to: ObjId, bits: u64, mask: u64 },
    // --- pin: read g, publish g + 1, re-check until g was stable ---
    PinReadG,
    PinWriteLocal { g: u64 },
    PinCheckG { g: u64 },
    // --- protect: publish a hazard, then re-validate its source word ---
    HazPublish { lane: usize, src: ObjId, raw: u64 },
    HazValidate { src: ObjId, raw: u64 },
    // --- retire (epoch): stamp with a global-epoch read taken *after* the
    // unlink (a pin-time stamp would be one advance too old when the unlink
    // raced an advance — the classic EBR subtlety) ---
    RetireReadG { node: u64 },
    // --- quiesce ---
    Unpin,
    ClearLane { i: usize },
    // --- reclaim_pressure (epoch): try to advance the global epoch ---
    AdvReadG,
    AdvScanLocal { g: u64, t: usize },
    AdvCasG { g: u64 },
    // --- reclaim_pressure (hazard): collect the other processes' hazards ---
    HazScan { j: usize },
    // --- transfer: stamp limbo entry `i` into its quarantine register (one
    // write per node), then hand every bit over with one mask CAS ---
    XferWriteStamp { i: usize },
    // --- adopt: read the stamp of the lowest set bit in `rest`; `take`
    // accumulates the bits found eligible, claimed with one mask CAS ---
    AdoptReadQmask,
    AdoptReadStamp { mask: u64, rest: u64, take: u64 },
    AdoptCasQmask { mask: u64, take: u64 },
}

/// How a finished sub-sequence ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// `admit_alloc` took this node out of the free set.
    Allocated(u64),
    /// `admit_alloc` found the free set empty while this process holds limbo
    /// nodes: reclaim, then ask again with `retried` set (the hardware
    /// arena's reclaim-pressure path).
    AllocPressure,
    /// `admit_alloc` found the free set empty with nothing left to try.
    AllocFailed,
    /// The nodes left this process's ownership: `release` returned them to
    /// the free set (or had none to return), `transfer` moved the whole
    /// private limbo into the quarantine.
    HandedOver,
    /// `pin` published a validated epoch (or the scheme does not pin).
    Pinned,
    /// `protect`: whether the source word still held the expected value
    /// after the publication (always `true` for a scheme that publishes
    /// nothing — its words or its pin carry the protection).
    Validated(bool),
    /// `retire` stamped the node into the epoch limbo.
    Retired,
    /// `quiesce` released every protection.
    Quiesced,
    /// The advance installed `g + 1`.
    Advanced,
    /// The advance met a pinned process that has not observed `g` yet.
    Blocked,
    /// The advance lost its CAS — someone advanced for us, equally good.
    Raced,
    /// The hazard scan read every other process's lanes.
    Scanned,
    /// `adopt` claimed these quarantine bits (0: nothing eligible, or the
    /// claim CAS lost — whoever changed the mask either adopted the nodes or
    /// transferred new ones, so a single attempt keeps adoption bounded).
    /// The adopter owns the bits and must `release` them.
    Adopted(u64),
}

/// What one applied step of a sub-sequence leads to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// The sub-sequence continues: the process is poised on this sub-state.
    Goto(Sub),
    /// The sub-sequence is over without a further shared-memory step.
    Done(Outcome),
}

use Step::{Done, Goto};

/// One process's protection state.
#[derive(Debug, Clone)]
pub(crate) struct Protection {
    pub(crate) scheme: Scheme,
    pub(crate) layout: Layout,
    pid: ProcessId,
    /// Private limbo: `(node, retire-epoch)` pairs (the stamp is 0 and
    /// unused under hazard pointers).
    limbo: Vec<(u64, u64)>,
    /// Most recent global-epoch value observed (drives free eligibility).
    last_g: u64,
    /// Consecutive advance attempts blocked by a stale pinned peer.
    blocked_advances: u32,
    /// Hazard values collected by the scan in progress (or last finished).
    scanned: Vec<u64>,
}

impl Protection {
    pub(crate) fn new(scheme: Scheme, layout: Layout, pid: ProcessId) -> Self {
        Protection {
            scheme,
            layout,
            pid,
            limbo: Vec::new(),
            last_g: 0,
            blocked_advances: 0,
            scanned: Vec::new(),
        }
    }

    /// `true` while retired nodes wait in this process's private limbo.
    pub(crate) fn holds_limbo(&self) -> bool {
        !self.limbo.is_empty()
    }

    /// `true` once [`TRANSFER_AFTER_BLOCKED`] advances in a row were blocked
    /// while limbo is held: the bags are stranded behind a parked peer.
    pub(crate) fn transfer_due(&self) -> bool {
        self.blocked_advances >= TRANSFER_AFTER_BLOCKED && self.holds_limbo()
    }

    /// Free-set bits of the limbo nodes the last reclamation attempt made
    /// safe: under hazard pointers every node the last scan found
    /// unprotected, under epochs every entry at least two advances old.
    pub(crate) fn reclaimable(&self) -> u64 {
        self.limbo
            .iter()
            .filter(|&&(node, stamp)| match self.scheme {
                Scheme::Hazard => !self.scanned.contains(&node),
                _ => stamp + 2 <= self.last_g,
            })
            .fold(0, |bits, &(node, _)| bits | (1 << node))
    }

    // -- entry points, one per `Guard` method -------------------------------

    /// Take a node out of the free set.
    pub(crate) fn admit_alloc(&self, retried: bool) -> Step {
        Goto(Sub::AllocRead { retried })
    }

    /// Return `bits` to the free set (no step when there are none).
    pub(crate) fn release(&self, bits: u64) -> Step {
        match bits {
            0 => Done(Outcome::HandedOver),
            bits => Goto(Sub::HandOverRead {
                to: self.layout.free,
                bits,
            }),
        }
    }

    /// Enter the protected region: an epoch pin, nothing otherwise.
    pub(crate) fn pin(&self) -> Step {
        match self.scheme {
            Scheme::Epoch => Goto(Sub::PinReadG),
            _ => Done(Outcome::Pinned),
        }
    }

    /// Extend protection in `lane` to the node designated by the word `raw`
    /// read from `src`: publish-then-revalidate under hazard pointers,
    /// nothing otherwise.
    pub(crate) fn protect(&self, lane: usize, src: ObjId, raw: u64) -> Step {
        match self.scheme {
            Scheme::Hazard => Goto(Sub::HazPublish { lane, src, raw }),
            _ => Done(Outcome::Validated(true)),
        }
    }

    /// Hand over a node unlinked by a successful CAS: immediate release,
    /// hazard limbo + scan, or epoch limbo with a fresh stamp.
    pub(crate) fn retire(&mut self, node: u64) -> Step {
        match self.scheme {
            Scheme::Unprotected | Scheme::Tagged => self.release(1 << node),
            Scheme::Hazard => {
                self.limbo.push((node, 0));
                self.reclaim_pressure()
            }
            Scheme::Epoch => Goto(Sub::RetireReadG { node }),
        }
    }

    /// Release every protection: clear the hazard lanes, or unpin.
    pub(crate) fn quiesce(&self) -> Step {
        match self.scheme {
            Scheme::Unprotected | Scheme::Tagged => Done(Outcome::Quiesced),
            Scheme::Hazard => Goto(Sub::ClearLane { i: 0 }),
            Scheme::Epoch => Goto(Sub::Unpin),
        }
    }

    /// Make as much limbo [`reclaimable`](Self::reclaimable) as possible
    /// right now: scan the other processes' hazards, or attempt one epoch
    /// advance.  Only deferred-free schemes hold limbo to reclaim.
    pub(crate) fn reclaim_pressure(&mut self) -> Step {
        match self.scheme {
            Scheme::Hazard => {
                self.scanned.clear();
                self.scan_from(0)
            }
            Scheme::Epoch => Goto(Sub::AdvReadG),
            Scheme::Unprotected | Scheme::Tagged => {
                unreachable!("immediate-free schemes keep no limbo")
            }
        }
    }

    /// Move the whole private limbo into the shared quarantine, so any
    /// process that later advances can free it — the E15 cure for bags
    /// stranded with a parked owner.  Requires held limbo.
    pub(crate) fn transfer(&mut self) -> Step {
        self.blocked_advances = 0;
        Goto(Sub::XferWriteStamp { i: 0 })
    }

    /// Claim every quarantined node at least two advances old.
    pub(crate) fn adopt(&self) -> Step {
        Goto(Sub::AdoptReadQmask)
    }

    /// Continue the hazard scan at the first register at or after slot `j`
    /// that is not one of our own.
    fn scan_from(&self, mut j: usize) -> Step {
        let lanes = self.layout.lanes;
        while j / lanes == self.pid {
            j += lanes - (j % lanes);
        }
        if j >= lanes * self.layout.n {
            Done(Outcome::Scanned)
        } else {
            Goto(Sub::HazScan { j })
        }
    }

    // -- the step vocabulary --------------------------------------------------

    /// The shared-memory step a process in sub-state `sub` is poised on.
    pub(crate) fn poised(&self, sub: Sub) -> BaseOp {
        let l = &self.layout;
        match sub {
            Sub::AllocRead { .. } => BaseOp::Read(l.free),
            Sub::HandOverRead { to, .. } => BaseOp::Read(to),
            Sub::AllocCas { mask, idx, .. } => BaseOp::Cas(l.free, mask, mask & !(1 << idx)),
            Sub::HandOverCas { to, bits, mask } => BaseOp::Cas(to, mask, mask | bits),
            Sub::PinReadG | Sub::PinCheckG { .. } | Sub::RetireReadG { .. } | Sub::AdvReadG => {
                BaseOp::Read(l.global_epoch())
            }
            Sub::PinWriteLocal { g } => BaseOp::Write(l.local_epoch(self.pid), g + 1),
            Sub::HazPublish { lane, raw, .. } => {
                BaseOp::Write(l.hazard(self.pid, lane), self.scheme.links().index(raw) + 1)
            }
            Sub::HazValidate { src, .. } => BaseOp::Read(src),
            Sub::Unpin => BaseOp::Write(l.local_epoch(self.pid), 0),
            Sub::ClearLane { i } => BaseOp::Write(l.hazard(self.pid, i), 0),
            Sub::AdvScanLocal { t, .. } => BaseOp::Read(l.local_epoch(t)),
            Sub::AdvCasG { g } => BaseOp::Cas(l.global_epoch(), g, g + 1),
            Sub::HazScan { j } => BaseOp::Read(l.hazard(j / l.lanes, j % l.lanes)),
            Sub::XferWriteStamp { i } => {
                let (node, stamp) = self.limbo[i];
                BaseOp::Write(l.quarantine_stamp(node as usize), stamp)
            }
            Sub::AdoptReadQmask => BaseOp::Read(l.quarantine_mask()),
            Sub::AdoptReadStamp { rest, .. } => {
                BaseOp::Read(l.quarantine_stamp(rest.trailing_zeros() as usize))
            }
            Sub::AdoptCasQmask { mask, take } => {
                BaseOp::Cas(l.quarantine_mask(), mask, mask & !take)
            }
        }
    }

    /// Feed the result of executing `sub`'s poised step.
    pub(crate) fn apply(&mut self, sub: Sub, result: StepResult) -> Step {
        match sub {
            Sub::AllocRead { retried } => match result.value() {
                0 if !retried && self.holds_limbo() => Done(Outcome::AllocPressure),
                0 => Done(Outcome::AllocFailed),
                mask => Goto(Sub::AllocCas {
                    retried,
                    mask,
                    idx: u64::from(mask.trailing_zeros()),
                }),
            },
            Sub::AllocCas { retried, idx, .. } => {
                if result.cas_succeeded() {
                    Done(Outcome::Allocated(idx))
                } else {
                    Goto(Sub::AllocRead { retried })
                }
            }
            Sub::HandOverRead { to, bits } => Goto(Sub::HandOverCas {
                to,
                bits,
                mask: result.value(),
            }),
            Sub::HandOverCas { to, bits, .. } => {
                if result.cas_succeeded() {
                    self.limbo.retain(|&(node, _)| (bits >> node) & 1 == 0);
                    Done(Outcome::HandedOver)
                } else {
                    // retry-bound: we own the bits, so this CAS must land; it
                    // fails only when another process moved the mask (an
                    // alloc or a free; an adoption or a transfer) — that is
                    // system-wide progress, so the retry is lock-free.
                    Goto(Sub::HandOverRead { to, bits })
                }
            }
            Sub::PinReadG => {
                self.last_g = result.value();
                Goto(Sub::PinWriteLocal { g: self.last_g })
            }
            Sub::PinWriteLocal { g } => Goto(Sub::PinCheckG { g }),
            Sub::PinCheckG { g } => {
                // The re-read closes the race where an advance-and-free slips
                // between the read and the publication.
                let now = result.value();
                if now == g {
                    Done(Outcome::Pinned)
                } else {
                    self.last_g = now;
                    Goto(Sub::PinWriteLocal { g: now })
                }
            }
            Sub::HazPublish { src, raw, .. } => Goto(Sub::HazValidate { src, raw }),
            // The hazard protects the node only if its source still
            // designates it after the publication: then the protection took
            // hold before any retirement scan could miss it.
            Sub::HazValidate { raw, .. } => Done(Outcome::Validated(result.value() == raw)),
            Sub::RetireReadG { node } => {
                self.last_g = result.value();
                self.limbo.push((node, self.last_g));
                Done(Outcome::Retired)
            }
            Sub::Unpin => Done(Outcome::Quiesced),
            Sub::ClearLane { i } => {
                if i + 1 < self.layout.lanes {
                    Goto(Sub::ClearLane { i: i + 1 })
                } else {
                    Done(Outcome::Quiesced)
                }
            }
            Sub::AdvReadG => {
                self.last_g = result.value();
                Goto(Sub::AdvScanLocal {
                    g: self.last_g,
                    t: 0,
                })
            }
            Sub::AdvScanLocal { g, t } => {
                let local = result.value();
                if local != 0 && local != g + 1 {
                    // The advance must wait for the stale pin, but limbo that
                    // is already eligible can still go.
                    self.blocked_advances += 1;
                    Done(Outcome::Blocked)
                } else if t + 1 == self.layout.n {
                    Goto(Sub::AdvCasG { g })
                } else {
                    Goto(Sub::AdvScanLocal { g, t: t + 1 })
                }
            }
            Sub::AdvCasG { g } => {
                if result.cas_succeeded() {
                    self.last_g = g + 1;
                    self.blocked_advances = 0;
                    Done(Outcome::Advanced)
                } else {
                    Done(Outcome::Raced)
                }
            }
            Sub::HazScan { j } => {
                let hazard = result.value();
                if hazard > 0 {
                    self.scanned.push(hazard - 1);
                }
                self.scan_from(j + 1)
            }
            Sub::XferWriteStamp { i } => {
                if i + 1 < self.limbo.len() {
                    Goto(Sub::XferWriteStamp { i: i + 1 })
                } else {
                    // Publish-after-stamp: an adopter never reads an
                    // unwritten stamp.  The hand-over takes every limbo
                    // entry, so the private limbo is empty until the next
                    // retire.
                    Goto(Sub::HandOverRead {
                        to: self.layout.quarantine_mask(),
                        bits: self
                            .limbo
                            .iter()
                            .fold(0, |all, &(node, _)| all | (1 << node)),
                    })
                }
            }
            Sub::AdoptReadQmask => match result.value() {
                0 => Done(Outcome::Adopted(0)),
                mask => Goto(Sub::AdoptReadStamp {
                    mask,
                    rest: mask,
                    take: 0,
                }),
            },
            Sub::AdoptReadStamp {
                mask,
                rest,
                mut take,
            } => {
                if result.value() + 2 <= self.last_g {
                    take |= 1 << rest.trailing_zeros();
                }
                let rest = rest & (rest - 1);
                if rest != 0 {
                    Goto(Sub::AdoptReadStamp { mask, rest, take })
                } else if take == 0 {
                    Done(Outcome::Adopted(0))
                } else {
                    Goto(Sub::AdoptCasQmask { mask, take })
                }
            }
            Sub::AdoptCasQmask { take, .. } => {
                let claimed = if result.cas_succeeded() { take } else { 0 };
                Done(Outcome::Adopted(claimed))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::SharedMemory;

    /// A structure with no objects of its own but the free set.
    const EPOCH: Layout = Layout {
        free: 0,
        base: 1,
        n: 2,
        lanes: 0,
        stamps: 4,
    };
    const HAZARD: Layout = Layout {
        free: 0,
        base: 1,
        n: 3,
        lanes: HAZ_LANES,
        stamps: 0,
    };

    fn memory(layout: &Layout, free: u64) -> SharedMemory {
        let mut objects = vec![BaseObject::cas(free)];
        objects.extend(layout.registers());
        SharedMemory::new(objects)
    }

    /// Execute `sub`'s poised step and feed its result back.
    fn step(p: &mut Protection, mem: &mut SharedMemory, sub: Sub) -> Step {
        let result = mem.apply(p.poised(sub));
        p.apply(sub, result)
    }

    fn goto(step: Step) -> Sub {
        match step {
            Goto(sub) => sub,
            Done(outcome) => panic!("sub-sequence over early: {outcome:?}"),
        }
    }

    /// Run the sub-sequence `open` starts to its end, alone; returns its
    /// outcome and the steps it executed.
    fn drive(
        p: &mut Protection,
        mem: &mut SharedMemory,
        open: impl FnOnce(&mut Protection) -> Step,
    ) -> (Outcome, Vec<BaseOp>) {
        let mut at = open(p);
        let mut ops = Vec::new();
        loop {
            match at {
                Done(outcome) => return (outcome, ops),
                Goto(sub) => {
                    ops.push(p.poised(sub));
                    at = step(p, mem, sub);
                }
            }
        }
    }

    /// Move the global epoch from `g` to `g + 1` behind everybody's back.
    fn bump_global(mem: &mut SharedMemory, layout: &Layout, g: u64) {
        let bumped = mem.apply(BaseOp::Cas(layout.global_epoch(), g, g + 1));
        assert!(bumped.cas_succeeded());
    }

    #[test]
    fn pin_republishes_when_the_epoch_moves_between_read_and_recheck() {
        let mut mem = memory(&EPOCH, 0);
        let mut p = Protection::new(Scheme::Epoch, EPOCH, 0);
        let write = goto(step(&mut p, &mut mem, Sub::PinReadG));
        assert_eq!(write, Sub::PinWriteLocal { g: 0 });
        let check = goto(step(&mut p, &mut mem, write));
        assert_eq!(mem.peek(EPOCH.local_epoch(0)), 1);
        // An advance slips in between the publication and the re-check.
        bump_global(&mut mem, &EPOCH, 0);
        let rewrite = goto(step(&mut p, &mut mem, check));
        assert_eq!(rewrite, Sub::PinWriteLocal { g: 1 });
        let (outcome, ops) = drive(&mut p, &mut mem, |_| Goto(rewrite));
        assert_eq!(outcome, Outcome::Pinned);
        assert_eq!(ops.len(), 2, "re-publish, then a stable re-check");
        assert_eq!(mem.peek(EPOCH.local_epoch(0)), 2);
        // Schemes that do not pin take no step.
        let tagged = Protection::new(Scheme::Tagged, EPOCH, 0);
        assert_eq!(tagged.pin(), Done(Outcome::Pinned));
    }

    #[test]
    fn blocked_advances_count_toward_the_transfer_and_a_successful_one_resets_them() {
        let mut mem = memory(&EPOCH, 0);
        let mut p = Protection::new(Scheme::Epoch, EPOCH, 0);
        assert_eq!(
            drive(&mut p, &mut mem, |p| p.retire(3)).0,
            Outcome::Retired,
            "hold limbo"
        );
        // Process 1 pinned at epoch 0 and parked; the epoch has moved on.
        mem.apply(BaseOp::Write(EPOCH.local_epoch(1), 1));
        bump_global(&mut mem, &EPOCH, 0);
        for blocked in 1..=TRANSFER_AFTER_BLOCKED {
            assert!(!p.transfer_due());
            assert_eq!(
                drive(&mut p, &mut mem, |p| p.reclaim_pressure()).0,
                Outcome::Blocked
            );
            assert_eq!(p.blocked_advances, blocked);
        }
        assert!(p.transfer_due());
        // The peer unpins: the next attempt advances and the count restarts.
        mem.apply(BaseOp::Write(EPOCH.local_epoch(1), 0));
        let (outcome, ops) = drive(&mut p, &mut mem, |p| p.reclaim_pressure());
        assert_eq!(outcome, Outcome::Advanced);
        assert_eq!(ops.len(), 2 + EPOCH.n, "read g, scan every local, CAS g");
        assert_eq!(mem.peek(EPOCH.global_epoch()), 2);
        assert_eq!(p.blocked_advances, 0);
        assert!(!p.transfer_due());
        // A lost CAS is neither: someone else advanced.
        let cas = Sub::AdvCasG { g: 1 };
        assert_eq!(step(&mut p, &mut mem, cas), Done(Outcome::Raced));
    }

    #[test]
    fn transfer_writes_every_stamp_before_the_mask_cas() {
        let mut mem = memory(&EPOCH, 0);
        let mut p = Protection::new(Scheme::Epoch, EPOCH, 0);
        drive(&mut p, &mut mem, |p| p.retire(1));
        bump_global(&mut mem, &EPOCH, 0);
        drive(&mut p, &mut mem, |p| p.retire(3));
        // A peer's bag is already quarantined.
        mem.apply(BaseOp::Cas(EPOCH.quarantine_mask(), 0, 0b1));
        let (outcome, ops) = drive(&mut p, &mut mem, |p| p.transfer());
        assert_eq!(outcome, Outcome::HandedOver);
        assert_eq!(
            ops,
            [
                BaseOp::Write(EPOCH.quarantine_stamp(1), 0),
                BaseOp::Write(EPOCH.quarantine_stamp(3), 1),
                BaseOp::Read(EPOCH.quarantine_mask()),
                BaseOp::Cas(EPOCH.quarantine_mask(), 0b1, 0b1011),
            ]
        );
        assert!(!p.holds_limbo(), "ownership moved to the quarantine");
        assert_eq!(p.reclaimable(), 0);
    }

    #[test]
    fn an_adopter_that_loses_the_claim_cas_gives_up_without_freeing() {
        let mut mem = memory(&EPOCH, 0b1);
        let mut p = Protection::new(Scheme::Epoch, EPOCH, 0);
        // Nodes 1 and 2 sit in quarantine; 1 was retired at epoch 0, 2 at
        // epoch 1, and this process has observed epoch 2.
        mem.apply(BaseOp::Write(EPOCH.quarantine_stamp(2), 1));
        mem.apply(BaseOp::Cas(EPOCH.quarantine_mask(), 0, 0b110));
        bump_global(&mut mem, &EPOCH, 0);
        bump_global(&mut mem, &EPOCH, 1);
        drive(&mut p, &mut mem, |p| p.pin());
        let mut at = goto(p.adopt());
        while !matches!(at, Sub::AdoptCasQmask { .. }) {
            at = goto(step(&mut p, &mut mem, at));
        }
        // Only node 1 is two advances old.
        assert_eq!(
            at,
            Sub::AdoptCasQmask {
                mask: 0b110,
                take: 0b010
            }
        );
        // A rival adopter claims it first.
        mem.apply(BaseOp::Cas(EPOCH.quarantine_mask(), 0b110, 0b100));
        assert_eq!(step(&mut p, &mut mem, at), Done(Outcome::Adopted(0)));
        assert_eq!(p.release(0), Done(Outcome::HandedOver), "nothing to free");
        assert_eq!(mem.peek(EPOCH.free), 0b1);
        // Unraced, the same claim lands and hands over exactly that bit.
        mem.apply(BaseOp::Cas(EPOCH.quarantine_mask(), 0b100, 0b110));
        assert_eq!(
            drive(&mut p, &mut mem, |p| p.adopt()).0,
            Outcome::Adopted(0b010)
        );
        assert_eq!(mem.peek(EPOCH.quarantine_mask()), 0b100);
    }

    #[test]
    fn the_hazard_scan_skips_own_lanes_and_frees_exactly_the_unprotected_nodes() {
        let mut mem = memory(&HAZARD, 0);
        let mut p = Protection::new(Scheme::Hazard, HAZARD, 1);
        // Process 0 protects node 2; our own lane 0 still names node 4.
        mem.apply(BaseOp::Write(HAZARD.hazard(0, 1), 2 + 1));
        mem.apply(BaseOp::Write(HAZARD.hazard(1, 0), 4 + 1));
        assert_eq!(drive(&mut p, &mut mem, |p| p.retire(2)).0, Outcome::Scanned);
        assert_eq!(p.reclaimable(), 0, "node 2 is protected");
        let (outcome, ops) = drive(&mut p, &mut mem, |p| p.retire(4));
        assert_eq!(outcome, Outcome::Scanned);
        let others: Vec<BaseOp> = [0, 2]
            .iter()
            .flat_map(|&q| (0..HAZ_LANES).map(move |lane| BaseOp::Read(HAZARD.hazard(q, lane))))
            .collect();
        assert_eq!(ops, others);
        assert_eq!(p.reclaimable(), 1 << 4);
        assert_eq!(
            drive(&mut p, &mut mem, |p| p.release(p.reclaimable())).0,
            Outcome::HandedOver
        );
        assert_eq!(mem.peek(HAZARD.free), 1 << 4);
        assert!(p.holds_limbo(), "node 2 stays in limbo");
        assert_eq!(p.reclaimable(), 0);
        // quiesce clears every lane of ours and nobody else's.
        assert_eq!(
            drive(&mut p, &mut mem, |p| p.quiesce()).0,
            Outcome::Quiesced
        );
        assert_eq!(mem.peek(HAZARD.hazard(1, 0)), 0);
        assert_eq!(mem.peek(HAZARD.hazard(0, 1)), 3);
    }

    #[test]
    fn alloc_on_an_empty_free_set_retries_once_after_reclaim_and_then_fails() {
        let mut mem = memory(&HAZARD, 0);
        let mut p = Protection::new(Scheme::Hazard, HAZARD, 0);
        // Nothing in limbo: nothing a reclaim could produce.
        assert_eq!(
            drive(&mut p, &mut mem, |p| p.admit_alloc(false)).0,
            Outcome::AllocFailed
        );
        // Node 1 in limbo, protected by process 2.
        mem.apply(BaseOp::Write(HAZARD.hazard(2, 2), 1 + 1));
        drive(&mut p, &mut mem, |p| p.retire(1));
        assert_eq!(
            drive(&mut p, &mut mem, |p| p.admit_alloc(false)).0,
            Outcome::AllocPressure
        );
        assert_eq!(
            drive(&mut p, &mut mem, |p| p.reclaim_pressure()).0,
            Outcome::Scanned
        );
        assert_eq!(p.release(p.reclaimable()), Done(Outcome::HandedOver));
        let (outcome, ops) = drive(&mut p, &mut mem, |p| p.admit_alloc(true));
        assert_eq!(outcome, Outcome::AllocFailed, "no second reclaim");
        assert_eq!(ops, [BaseOp::Read(HAZARD.free)]);
        // Once the protection drops, the same path allocates the node.
        mem.apply(BaseOp::Write(HAZARD.hazard(2, 2), 0));
        drive(&mut p, &mut mem, |p| p.reclaim_pressure());
        assert_eq!(
            drive(&mut p, &mut mem, |p| p.release(p.reclaimable())).0,
            Outcome::HandedOver
        );
        assert_eq!(
            drive(&mut p, &mut mem, |p| p.admit_alloc(true)).0,
            Outcome::Allocated(1)
        );
        assert_eq!(mem.peek(HAZARD.free), 0);
    }
}
