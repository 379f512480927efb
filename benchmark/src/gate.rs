//! The correctness gate: nothing is timed on a lane that has not just been
//! shown correct.
//!
//! Structure lanes run the repository's own conservation harnesses
//! (`stress_stack` / `stress_map`) at `tn` threads and must conserve every
//! value with no ABA event (`conserves` states the one tolerance); register
//! lanes must read back their last write, reject an SC after interference,
//! and — the ABA-detecting registers — flag a write-A-B-A that leaves the
//! value unchanged.

use aba_lockfree::{map_builders, stack_builders, stress_map, stress_stack};
use aba_workload::roster_node_capacity;

use crate::lanes::{LaneDef, LaneKind};

/// Push/insert attempts per thread of one conservation run: small, since
/// the gate is part of every run's set-up, and still thousands of
/// recyclings of a ~100-node arena.
pub const GATE_OPS_PER_THREAD: usize = 2_000;

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Check one lane's backend; `Err` describes the first violated property.
pub fn check(lane: &LaneDef, tn: usize) -> Result<(), String> {
    check_kind(lane.kind, tn).map_err(|e| format!("lane {}: {e}", lane.name))
}

/// Check a backend by kind.
pub fn check_kind(kind: LaneKind, tn: usize) -> Result<(), String> {
    match kind {
        LaneKind::LlSc(make) => {
            let obj = make();
            let mut a = obj.handle(0);
            let mut b = obj.handle(1);
            a.ll();
            ensure(a.sc(7), || "uncontended SC failed".into())?;
            ensure(a.ll() == 7 && a.vl(), || {
                "LL did not read back the last SC".into()
            })?;
            b.ll();
            ensure(b.sc(9), || "second process's SC failed".into())?;
            ensure(!a.vl() && !a.sc(8), || {
                "SC succeeded after an intervening SC".into()
            })?;
            ensure(a.ll() == 9, || "lost the intervening SC's value".into())
        }
        LaneKind::AbaReg(make) => {
            let obj = make();
            let mut writer = obj.handle(0);
            let mut reader = obj.handle(1);
            writer.dwrite(1);
            ensure(reader.dread() == (1, true), || {
                "DRead missed the first write".into()
            })?;
            ensure(reader.dread() == (1, false), || {
                "DRead flagged a change nobody made".into()
            })?;
            writer.dwrite(2);
            writer.dwrite(1);
            ensure(reader.dread() == (1, true), || {
                "DRead missed a write-A-B-A".into()
            })
        }
        LaneKind::Stack(key) | LaneKind::Map(key) => check_structure(key, tn),
    }
}

/// Run the conservation harness of the registry structure `key`
/// (`stack/...` or `map/...`) at `tn` threads.  Public so the `gate`
/// subcommand can point it at backends no workload gates, such as
/// `stack/unprotected`.
pub fn check_structure(key: &str, tn: usize) -> Result<(), String> {
    let capacity = roster_node_capacity(tn);
    if key.starts_with("map/") {
        let (_, build) = map_builders()
            .into_iter()
            .find(|(name, _)| *name == key)
            .ok_or_else(|| format!("no map builder {key:?}"))?;
        conserves(key, tn, || {
            let map = build(capacity, tn);
            let r = stress_map(map.as_ref(), tn, GATE_OPS_PER_THREAD);
            Conservation {
                inserted: r.inserted,
                lost: r.lost,
                duplicated: r.duplicated,
                aba_events: r.aba_events,
            }
        })
    } else {
        let (_, build) = stack_builders()
            .into_iter()
            .find(|(name, _)| *name == key)
            .ok_or_else(|| format!("no stack builder {key:?}"))?;
        conserves(key, tn, || {
            let stack = build(capacity, tn);
            let r = stress_stack(stack.as_ref(), tn, GATE_OPS_PER_THREAD);
            Conservation {
                inserted: r.pushed,
                lost: r.lost,
                duplicated: r.duplicated,
                aba_events: r.aba_events,
            }
        })
    }
}

/// What one conservation run of either harness reports.
struct Conservation {
    inserted: u64,
    lost: u64,
    duplicated: u64,
    aba_events: u64,
}

/// Fresh-instance conservation runs a lane gets before a recurring ABA-event
/// count fails it.
const EVENT_ATTEMPTS: usize = 3;

/// A lost or duplicated value fails the lane at once.  A run that conserved
/// every value but counted an ABA event is repeated on a fresh instance, and
/// fails the lane only if the events recur every time: the structures' event
/// counter is a generation comparison made *after* the CAS it audits, and
/// under an immediate-free scheme a neighbour may be legitimately removed
/// and recycled inside that window (seen once in ~250 gate runs on
/// `map/llsc`, with every value conserved).  The unprotected stack counts
/// hundreds of events per run, every run.
fn conserves(key: &str, tn: usize, run: impl Fn() -> Conservation) -> Result<(), String> {
    let mut last_events = 0;
    for _ in 0..EVENT_ATTEMPTS {
        let r = run();
        ensure(r.inserted > 0, || "stress run inserted nothing".into())?;
        ensure(r.lost == 0 && r.duplicated == 0, || {
            format!(
                "{key} at {tn} threads: {} lost, {} duplicated, {} ABA events",
                r.lost, r.duplicated, r.aba_events
            )
        })?;
        if r.aba_events == 0 {
            return Ok(());
        }
        last_events = r.aba_events;
    }
    Err(format!(
        "{key} at {tn} threads: ABA events in {EVENT_ATTEMPTS} of {EVENT_ATTEMPTS} runs ({last_events} in the last)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::{Role, WORKLOADS};

    #[test]
    fn every_gated_lane_passes() {
        for w in WORKLOADS {
            for lane in w.lanes.iter().filter(|l| l.role != Role::Reference) {
                check(lane, 2).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            }
        }
    }

    #[test]
    fn a_register_that_misses_the_aba_fails_the_gate() {
        use aba_spec::{AbaHandle, AbaRegisterObject, SpaceUsage};
        use std::sync::atomic::{AtomicU32, Ordering};

        /// Compares values only: the textbook ABA victim.
        struct Naive(AtomicU32);
        struct NaiveHandle<'a>(&'a Naive, u32);
        impl AbaRegisterObject for Naive {
            fn processes(&self) -> usize {
                2
            }
            fn space(&self) -> SpaceUsage {
                SpaceUsage::registers(1, 32)
            }
            fn name(&self) -> &'static str {
                "naive"
            }
            fn handle(&self, _pid: usize) -> Box<dyn AbaHandle + '_> {
                Box::new(NaiveHandle(self, 0))
            }
        }
        impl AbaHandle for NaiveHandle<'_> {
            fn pid(&self) -> usize {
                0
            }
            fn dwrite(&mut self, value: u32) {
                self.0 .0.store(value, Ordering::SeqCst);
            }
            fn dread(&mut self) -> (u32, bool) {
                let now = self.0 .0.load(Ordering::SeqCst);
                let changed = now != self.1;
                self.1 = now;
                (now, changed)
            }
            fn step_count(&self) -> u64 {
                0
            }
            fn last_op_steps(&self) -> u64 {
                0
            }
        }
        let err = check_kind(LaneKind::AbaReg(|| Box::new(Naive(AtomicU32::new(0)))), 2)
            .expect_err("a value-comparing register cannot see A-B-A");
        assert!(err.contains("write-A-B-A"), "{err}");
    }
}
