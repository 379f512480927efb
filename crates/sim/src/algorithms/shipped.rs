//! The simulator's half of `aba_lockfree::mem`: a structure's shipped code
//! run on the replay memory, so that what an explorer establishes about a
//! `queue/*` row is established about the code that ships.
//!
//! [`Shipped`] is the [`Model`] of a code struct ([`MsQueue`]); `Nodes` is
//! one call's `NodeMem`, each method the `Mem` steps and `protect.rs`
//! sequences of the `Guard` or `Worker` call it stands for.  Slot `s` is
//! object `s`; node `k` owns objects `free + 1 + 2k` (value) and
//! `free + 2 + 2k` (next link), `free` being the free set's id; every word
//! is encoded by the scheme's hardware codec.  The hardware diagnostics take
//! no step, `protect_link` is the re-validation of every scheme the queue
//! rows use, and there is no retry budget: the explorers cut a wedged loop.

use aba_lockfree::mem::{Attempt, NodeMem};
use aba_lockfree::MsQueue;
use aba_reclaim::{Scheme, SlotId, NIL};

use super::protect::{Advance, Protection};
use super::replay::{Mem, Model, Run};
use crate::algorithm::{MethodCall, MethodResponse};
use crate::object::ObjId;

/// A [`Model`] that runs a structure's shipped code `C` under one process's
/// [`Protection`].
#[derive(Debug, Clone)]
pub(crate) struct Shipped<C> {
    pub(crate) code: C,
    pub(crate) prot: Protection,
}

impl Model for Shipped<MsQueue> {
    fn call(&mut self, call: MethodCall, m: &mut Mem<'_>) -> Run<MethodResponse> {
        let mut nodes = Nodes {
            m,
            prot: &mut self.prot,
            pinned: false,
        };
        Ok(match call {
            MethodCall::Enqueue(value) => {
                MethodResponse::EnqueueResult(self.code.enqueue(value, &mut nodes)?)
            }
            MethodCall::Dequeue => MethodResponse::DequeueResult(self.code.dequeue(&mut nodes)?),
            other => panic!("queue simulation given {other:?}"),
        })
    }
}

/// One reclamation attempt: advance the global epoch — adopting what the
/// quarantine holds that became eligible, or after too many blocked
/// attempts transferring the limbo there — then free every limbo entry two
/// or more advances old.
fn reclaim(prot: &mut Protection, m: &mut Mem<'_>) -> Run<()> {
    match prot.advance(m)? {
        Advance::Advanced => {
            let adopted = prot.adopt(m)?;
            prot.release(adopted, m)?;
        }
        Advance::Blocked if prot.transfer_due() => prot.transfer(m)?,
        Advance::Blocked | Advance::Raced => {}
    }
    prot.release(prot.reclaimable(), m)
}

/// One call's view of the replay memory as a `NodeMem`.
struct Nodes<'r, 'a> {
    m: &'r mut Mem<'a>,
    prot: &'r mut Protection,
    /// Whether this call holds an epoch pin (taken by its first `protect`).
    pinned: bool,
}

impl Nodes<'_, '_> {
    fn value_obj(&self, node: u64) -> ObjId {
        self.prot.layout.free + 1 + 2 * node as usize
    }

    fn next_obj(&self, node: u64) -> ObjId {
        self.value_obj(node) + 1
    }
}

impl NodeMem for Nodes<'_, '_> {
    type Stop = super::replay::Poised;

    fn protect(&mut self, _lane: usize, slot: SlotId) -> Run<u64> {
        // The first protected load of an operation pins, as
        // `EpochGuard::protect` does.
        if !self.pinned && self.prot.scheme == Scheme::Epoch {
            self.prot.pin(self.m)?;
            self.pinned = true;
        }
        self.m.read(slot)
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

    fn load_link(&mut self, node: u64) -> Run<u64> {
        self.m.read(self.next_obj(node))
    }

    fn store_link(&mut self, node: u64, idx: u64) -> Run<()> {
        // The old word is read only under a codec that continues it (the
        // counted one), as in `Guard::store_link_mark`.
        let (link, links) = (self.next_obj(node), self.prot.links);
        let continues = links.encode(0, NIL, false) != links.fresh(NIL);
        let old = if continues { self.m.read(link)? } else { NIL };
        self.m.write(link, links.encode(old, idx, false))
    }

    fn cas_link(&mut self, node: u64, raw: u64, idx: u64) -> Run<bool> {
        let new = self.prot.links.encode(raw, idx, false);
        self.m.cas(self.next_obj(node), raw, new)
    }

    fn value(&mut self, node: u64) -> Run<u32> {
        Ok(self.m.read(self.value_obj(node))? as u32)
    }

    fn alloc(&mut self, value: u32) -> Run<Option<u64>> {
        // An empty free set fails the allocation without a reclamation
        // attempt unless limbo is held — every quarantined node is
        // adoptable through a retiring peer's advance, and keeping the
        // exhausted path short keeps the DPOR space tractable.
        let Some(node) = self.prot.alloc(reclaim, self.m)? else {
            return Ok(None);
        };
        self.m.write(self.value_obj(node), u64::from(value))?;
        Ok(Some(node))
    }

    fn retire(&mut self, node: u64) -> Run<()> {
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
        if self.pinned {
            self.prot.quiesce(self.m)?;
            self.pinned = false;
        }
        Ok(())
    }

    fn retry<T>(&mut self, attempt: impl Fn(&mut Self) -> Run<Attempt<T>>) -> Run<Option<T>> {
        // retry-bound: none here — a loop spinning on a cycled chain is the
        // wedge the explorers cut and report; `forget` keeps its replay
        // linear.
        loop {
            let (start, pinned) = (self.m.at, self.pinned);
            if let Attempt::Done(value) = attempt(self)? {
                return Ok(Some(value));
            }
            // A failed attempt leaves no trace but its steps — unless it
            // pinned: the pin outlives it, so its steps stay in the log.
            if self.pinned == pinned {
                self.m.forget(start);
            }
        }
    }

    fn index_of(&self, raw: u64) -> u64 {
        self.prot.links.index(raw)
    }
}
