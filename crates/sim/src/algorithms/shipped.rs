//! The simulator's half of `aba_lockfree::mem`: a structure's shipped code
//! run on the replay memory, so that what an explorer establishes about a
//! `stack/*`, `queue/*` or `set/*` row is established about the code that
//! ships.
//!
//! [`ShippedSim`] is every structure row's [`SimAlgorithm`]; what tells the
//! structures apart is their [`ShippedCode`] impl: data, and the mapping of
//! the method calls onto the code's operations.  `Nodes` is one call's
//! `NodeMem`, each method the `Mem` steps and `protect.rs` sequences of the
//! `Guard` or `Worker` call it stands for.
//!
//! Memory layout for `S` slots and a capacity-`C` arena: object `s < S` is
//! slot `s`, object `S` is the free set, node `k` owns objects `S + 1 + 2k`
//! (value word) and `S + 2 + 2k` (next link), every word in the scheme's
//! hardware codec; the deferred schemes append the protection registers of
//! `protect::Layout`.  The hardware diagnostics take no step, and there is
//! no retry budget: the explorers cut a wedged loop.

use std::fmt::Debug;
use std::marker::PhantomData;

use aba_lockfree::list::{self, HmList, Prev};
use aba_lockfree::mem::{Attempt, NodeMem};
use aba_lockfree::{queue, stack, Family, MsQueue, Treiber};
use aba_reclaim::{Scheme, SlotId, NIL};
use aba_spec::ProcessId;

use super::protect::{Advance, Layout, Links, Protection};
use super::replay::{Mem, Model, Replay, Run};
use crate::algorithm::{MethodCall, MethodResponse, SimAlgorithm, SimProcess};
use crate::object::{BaseObject, ObjId};

/// A structure's shipped code as its simulator rows run it.
pub trait ShippedCode: Copy + Debug + 'static {
    /// The hardware family the rows model; their names are its labels.
    const FAMILY: Family;
    /// Registered slots: objects `0..SLOTS`.
    const SLOTS: usize;
    /// Whether node 0 starts as the dummy every slot designates.
    const DUMMY: bool;
    /// Hazard lanes per process.
    const LANES: usize;
    /// Whether the epoch layout keeps a quarantine.
    const QUARANTINE: bool;
    /// The code over slots `0..SLOTS`.
    const CODE: Self;
    /// Run `call` on `m`.
    fn call<M: NodeMem>(&self, call: MethodCall, m: &mut M) -> Result<MethodResponse, M::Stop>;
}

impl ShippedCode for Treiber {
    const FAMILY: Family = Family::Stack;
    const SLOTS: usize = 1;
    const DUMMY: bool = false;
    const LANES: usize = stack::LANES;
    const QUARANTINE: bool = true;
    const CODE: Self = Treiber::new(0);
    fn call<M: NodeMem>(&self, call: MethodCall, m: &mut M) -> Result<MethodResponse, M::Stop> {
        Ok(match call {
            MethodCall::Push(value) => MethodResponse::PushResult(self.push(value, m)?),
            MethodCall::Pop => MethodResponse::PopResult(self.pop(m)?),
            other => panic!("stack simulation given {other:?}"),
        })
    }
}

impl ShippedCode for MsQueue {
    const FAMILY: Family = Family::Queue;
    const SLOTS: usize = 2;
    const DUMMY: bool = true;
    const LANES: usize = queue::LANES;
    const QUARANTINE: bool = true;
    const CODE: Self = MsQueue::new(0, 1);
    fn call<M: NodeMem>(&self, call: MethodCall, m: &mut M) -> Result<MethodResponse, M::Stop> {
        Ok(match call {
            MethodCall::Enqueue(value) => MethodResponse::EnqueueResult(self.enqueue(value, m)?),
            MethodCall::Dequeue => MethodResponse::DequeueResult(self.dequeue(m)?),
            other => panic!("queue simulation given {other:?}"),
        })
    }
}

/// The set: every walk starts at the root slot, and `Contains` is a `get`.
/// Its epoch layout has no quarantine, so limbo is never transferred.
impl ShippedCode for HmList {
    const FAMILY: Family = Family::Set;
    const SLOTS: usize = 1;
    const DUMMY: bool = false;
    const LANES: usize = list::LANES;
    const QUARANTINE: bool = false;
    const CODE: Self = HmList::new(0);
    fn call<M: NodeMem>(&self, call: MethodCall, m: &mut M) -> Result<MethodResponse, M::Stop> {
        Ok(match call {
            MethodCall::Insert(key) => {
                MethodResponse::InsertResult(self.insert(Prev::Root, key, 0, m)?)
            }
            MethodCall::Remove(key) => {
                MethodResponse::RemoveResult(self.remove(Prev::Root, key, m)?)
            }
            MethodCall::Contains(key) => {
                MethodResponse::ContainsResult(self.get(Prev::Root, key, m)?.is_some())
            }
            other => panic!("set simulation given {other:?}"),
        })
    }
}

/// The simulator row of shipped code `C`: `n` processes over a
/// capacity-`capacity` node arena, under one scheme.
#[derive(Debug, Clone, Copy)]
pub struct ShippedSim<C> {
    n: usize,
    capacity: usize,
    scheme: Scheme,
    code: PhantomData<C>,
}

impl<C: ShippedCode> ShippedSim<C> {
    fn new(n: usize, capacity: usize, scheme: Scheme) -> Self {
        assert!(n > 0, "need at least one process");
        assert!((1..=63).contains(&capacity), "capacity must be in 1..=63");
        ShippedSim {
            n,
            capacity,
            scheme,
            code: PhantomData,
        }
    }

    /// The unprotected (ABA-prone) variant: bare words, immediate free.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `capacity` is 0 or above 63 (the free set is a
    /// single 64-bit word), as the other three constructors do.
    pub fn unprotected(n: usize, capacity: usize) -> Self {
        Self::new(n, capacity, Scheme::Unprotected)
    }

    /// The tagged variant: counted words, bumped by every CAS (§1 tagging).
    pub fn tagged(n: usize, capacity: usize) -> Self {
        Self::new(n, capacity, Scheme::Tagged)
    }

    /// The hazard-pointer variant, with the code's lanes.
    pub fn hazard(n: usize, capacity: usize) -> Self {
        Self::new(n, capacity, Scheme::Hazard)
    }

    /// The epoch-reclaimed variant, with a quarantine where the code keeps
    /// one.
    pub fn epoch(n: usize, capacity: usize) -> Self {
        Self::new(n, capacity, Scheme::Epoch)
    }

    /// This model, boxed, if `C` is `family`'s code and the simulator
    /// encodes the scheme (every one but LL/SC).
    fn of(self, family: Family) -> Option<Box<dyn SimAlgorithm>> {
        (C::FAMILY == family && self.scheme != Scheme::LlSc).then(|| Box::new(self) as _)
    }

    pub(crate) fn layout(&self) -> Layout {
        let hazard = self.scheme == Scheme::Hazard;
        Layout {
            free: C::SLOTS,
            base: C::SLOTS + 1 + 2 * self.capacity,
            n: self.n,
            lanes: if hazard { C::LANES } else { 0 },
            stamps: if C::QUARANTINE { self.capacity } else { 0 },
        }
    }

    pub(crate) fn process(&self, pid: ProcessId) -> Shipped<C> {
        let prot = Protection::new(self.scheme, self.layout(), pid);
        Shipped {
            code: C::CODE,
            prot,
        }
    }
}

impl<C: ShippedCode> SimAlgorithm for ShippedSim<C> {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        C::FAMILY.label(self.scheme)
    }

    fn initial_objects(&self) -> Vec<BaseObject> {
        let links = Links::of(self.scheme);
        let all = (1u64 << self.capacity) - 1;
        let (top, free) = if C::DUMMY { (0, all & !1) } else { (NIL, all) };
        let mut objects = vec![BaseObject::cas(links.fresh(top)); C::SLOTS];
        objects.push(BaseObject::cas(free));
        for _ in 0..self.capacity {
            objects.push(BaseObject::register(0)); // value
            objects.push(BaseObject::writable_cas(links.fresh(NIL))); // next
        }
        // The immediate-free schemes touch no protection register, so they
        // carry none (every object is cloned at every explored step).
        if matches!(self.scheme, Scheme::Hazard | Scheme::Epoch) {
            objects.extend(self.layout().registers());
        }
        objects
    }

    fn spawn(&self, pid: ProcessId) -> Box<dyn SimProcess> {
        Box::new(Replay::new(self.process(pid)))
    }
}

/// The simulator model of hardware cell `(family, scheme)`: the
/// [`ShippedCode`] whose `FAMILY` is `family`, under `scheme`, for `n`
/// processes over a capacity-`capacity` arena.  `None` where the simulator
/// encodes no such cell: a family without a `ShippedCode` impl (the
/// elimination stack, the map) or [`Scheme::LlSc`].
///
/// # Panics
///
/// Panics if `n == 0` or `capacity` is not in `1..=63`, as
/// [`ShippedSim::unprotected`] does.
pub fn shipped_model(
    family: Family,
    scheme: Scheme,
    n: usize,
    capacity: usize,
) -> Option<Box<dyn SimAlgorithm>> {
    ShippedSim::<Treiber>::new(n, capacity, scheme)
        .of(family)
        .or_else(|| ShippedSim::<MsQueue>::new(n, capacity, scheme).of(family))
        .or_else(|| ShippedSim::<HmList>::new(n, capacity, scheme).of(family))
}

/// A [`Model`] that runs a structure's shipped code `C` under one process's
/// [`Protection`].
#[derive(Debug, Clone)]
pub(crate) struct Shipped<C> {
    pub(crate) code: C,
    pub(crate) prot: Protection,
}

impl<C: ShippedCode> Model for Shipped<C> {
    fn call(&mut self, call: MethodCall, m: &mut Mem<'_>) -> Run<MethodResponse> {
        let prot = &mut self.prot;
        let mut nodes = Nodes {
            m,
            prot,
            held: 0,
            deferred: 0,
        };
        self.code.call(call, &mut nodes)
    }
}

/// One reclamation attempt: a hazard scan, or an advance of the global
/// epoch — adopting what the quarantine holds that became eligible, or
/// after too many blocked attempts transferring the limbo there — then the
/// release of every limbo entry the attempt made safe.
fn reclaim(prot: &mut Protection, m: &mut Mem<'_>) -> Run<()> {
    if prot.scheme == Scheme::Hazard {
        prot.scan(m)?;
    } else {
        match prot.advance(m)? {
            Advance::Advanced => {
                let adopted = prot.adopt(m)?;
                prot.release(adopted, m)?;
            }
            Advance::Blocked if prot.transfer_due() => prot.transfer(m)?,
            Advance::Blocked | Advance::Raced => {}
        }
    }
    prot.release(prot.reclaimable(), m)
}

/// One call's view of the replay memory as a `NodeMem`.
struct Nodes<'r, 'a> {
    m: &'r mut Mem<'a>,
    prot: &'r mut Protection,
    /// The protections this call holds, as [`Protection::quiesce`] releases
    /// them: a bit per published hazard lane, or bit 0 for the epoch pin
    /// its first `protect` took.
    held: u64,
    /// Nodes this call has put in limbo: with `held`, all the local state
    /// an attempt of a `retry` loop can change.
    deferred: u32,
}

impl Nodes<'_, '_> {
    fn value_obj(&self, node: u64) -> ObjId {
        self.prot.layout.free + 1 + 2 * node as usize
    }

    fn next_obj(&self, node: u64) -> ObjId {
        self.value_obj(node) + 1
    }

    /// `protect_link` / `protect_link_word`: publish `idx` in `lane` (hazard
    /// pointers), then confirm that `src` still holds `raw`.
    fn extend(&mut self, lane: usize, idx: u64, src: ObjId, raw: u64) -> Run<bool> {
        if self.prot.scheme == Scheme::Hazard {
            self.held |= 1 << lane;
        }
        self.prot.protect(lane, idx, src, raw, self.m)
    }
}

impl NodeMem for Nodes<'_, '_> {
    type Stop = super::replay::Poised;

    fn protect(&mut self, lane: usize, slot: SlotId) -> Run<u64> {
        match self.prot.scheme {
            Scheme::Epoch => {
                // The first protected load of an operation pins, as
                // `EpochGuard::protect` does.
                if self.held == 0 {
                    self.prot.pin(self.m)?;
                    self.held = 1;
                }
                self.m.read(slot)
            }
            Scheme::Hazard => {
                // `HazardGuard::protect`, step for step: publish the node
                // the slot designates, then re-validate, until the snapshot
                // is stable; a nil slot publishes nothing and clears the lane.
                // A plain loop, not `Mem::retry`: a failed try leaves its
                // publication (and the lane's `held` bit) behind.
                // retry-bound: the re-validation fails only when another
                // operation moved the slot — system-wide progress.
                loop {
                    let raw = self.m.read(slot)?;
                    let idx = self.prot.links.index(raw);
                    if idx == NIL {
                        if self.held & 1 << lane != 0 {
                            self.prot.quiesce(1 << lane, self.m)?;
                            self.held &= !(1 << lane);
                        }
                        return Ok(raw);
                    }
                    if self.extend(lane, idx, slot, raw)? {
                        return Ok(raw);
                    }
                }
            }
            Scheme::Unprotected | Scheme::Tagged | Scheme::LlSc => self.m.read(slot),
        }
    }

    fn load(&mut self, slot: SlotId) -> Run<u64> {
        self.m.read(slot)
    }

    fn validate(&mut self, slot: SlotId, raw: u64) -> Run<bool> {
        Ok(self.m.read(slot)? == raw)
    }

    fn cas(&mut self, slot: SlotId, raw: u64, idx: u64) -> Run<bool> {
        let new = self.prot.links.encode(raw, idx, false);
        self.m.cas(slot, raw, new)
    }

    fn protect_link(&mut self, lane: usize, idx: u64, slot: SlotId, raw: u64) -> Run<bool> {
        self.extend(lane, idx, slot, raw)
    }

    fn load_link(&mut self, node: u64) -> Run<u64> {
        self.m.read(self.next_obj(node))
    }

    fn validate_link(&mut self, node: u64, raw: u64) -> Run<bool> {
        Ok(self.m.read(self.next_obj(node))? == raw)
    }

    fn protect_link_word(&mut self, lane: usize, idx: u64, node: u64, raw: u64) -> Run<bool> {
        self.extend(lane, idx, self.next_obj(node), raw)
    }

    fn store_link(&mut self, node: u64, idx: u64) -> Run<()> {
        // The old word is read only under a codec that continues it (the
        // counted one), as in `Guard::store_link_mark`.
        let (link, links) = (self.next_obj(node), self.prot.links);
        let continues = links.encode(0, NIL, false) != links.fresh(NIL);
        let old = if continues { self.m.read(link)? } else { NIL };
        self.m.write(link, links.encode(old, idx, false))
    }

    fn cas_link(&mut self, node: u64, raw: u64, idx: u64, marked: bool) -> Run<bool> {
        let new = self.prot.links.encode(raw, idx, marked);
        self.m.cas(self.next_obj(node), raw, new)
    }

    fn value(&mut self, node: u64) -> Run<u32> {
        Ok(self.m.read(self.value_obj(node))? as u32)
    }

    fn data(&mut self, node: u64) -> Run<u32> {
        Ok((self.m.read(self.value_obj(node))? >> 32) as u32)
    }

    fn alloc(&mut self, value: u32, data: u32) -> Run<Option<u64>> {
        // An empty free set fails the allocation without a reclamation
        // attempt unless limbo is held — every quarantined node is
        // adoptable through a retiring peer's advance, and keeping the
        // exhausted path short keeps the DPOR space tractable.
        let Some(node) = self.prot.alloc(reclaim, self.m)? else {
            return Ok(None);
        };
        let word = u64::from(data) << 32 | u64::from(value);
        self.m.write(self.value_obj(node), word)?;
        Ok(Some(node))
    }

    fn retire(&mut self, node: u64) -> Run<()> {
        if matches!(self.prot.scheme, Scheme::Hazard | Scheme::Epoch) {
            self.deferred += 1;
        }
        if self.prot.scheme == Scheme::Hazard {
            // `HazardGuard::retire` clears the operation's lanes first, so
            // its own hazards never pin its own retiree, then scans.
            self.quiesce()?;
            return self.prot.retire(node, self.m);
        }
        // The stamp is read after the unlink; the operation then unpins, as
        // `EpochGuard::retire` does before it may advance, and with the node
        // (or older retirees) in limbo makes one reclamation attempt.
        self.prot.retire(node, self.m)?;
        self.quiesce()?;
        if self.prot.holds_limbo() {
            reclaim(self.prot, self.m)?;
        }
        Ok(())
    }

    fn free(&mut self, node: u64) -> Run<()> {
        self.prot.release(1 << node, self.m)
    }

    fn quiesce(&mut self) -> Run<()> {
        if self.held != 0 {
            self.prot.quiesce(self.held, self.m)?;
            self.held = 0;
        }
        Ok(())
    }

    fn retry<T>(&mut self, attempt: impl Fn(&mut Self) -> Run<Attempt<T>>) -> Run<Option<T>> {
        // retry-bound: none here — a loop spinning on a cycled chain is the
        // wedge the explorers cut and report; `forget` keeps its replay
        // linear.
        loop {
            let (start, held, deferred) = (self.m.at, self.held, self.deferred);
            if let Attempt::Done(value) = attempt(self)? {
                return Ok(Some(value));
            }
            // A failed attempt leaves no trace but its steps — unless it
            // took a protection or put a node in limbo: that outlives it, so
            // its steps stay in the log.
            if (self.held, self.deferred) == (held, deferred) {
                self.m.forget(start);
            }
        }
    }

    fn index_of(&self, raw: u64) -> u64 {
        self.prot.links.index(raw)
    }

    fn mark_of(&self, raw: u64) -> bool {
        self.prot.links.marked(raw)
    }
}
