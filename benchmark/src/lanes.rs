//! The five workloads, their lanes, and the lane adapters that live on the
//! benchmark's side of the engine.
//!
//! A *lane* is one backend a workload's scenario is run against.  Structure
//! lanes are the registry's own `BackendSpec`s, looked up by their stable
//! roster key; the register lanes are built here because the registry sizes
//! its LL/SC objects for the worker count (1) while the paper's costs are in
//! `n`, and because the registry has no adapter for ABA-detecting registers.

use std::sync::atomic::{AtomicU64, Ordering};

use aba_core::{
    AbaRegisterObject, AnnounceLlSc, BoundedAbaRegister, CasLlSc, LlScObject, MoirLlSc,
    TaggedAbaRegister,
};
use aba_spec::AbaHandle;
use aba_workload::{standard_backends, BackendSpec, LlScWorkload, Workload, WorkloadOps};

use crate::seed::{key_permutation, KEY_SPACE};

/// Process count the register lanes' objects are sized for: Figure 3 is
/// O(n) steps and Figure 4 is n+1 registers, so n must not be the worker
/// count of a one-thread run.
pub const REGISTER_PROCESSES: usize = 8;

/// What a lane is built from — which also decides how the correctness gate
/// checks it.
#[derive(Debug, Clone, Copy)]
pub enum LaneKind {
    /// An LL/SC/VL object behind the registry's `LlScWorkload` adapter.
    LlSc(fn() -> Box<dyn LlScObject>),
    /// An ABA-detecting register behind [`AbaRegWorkload`].
    AbaReg(fn() -> Box<dyn AbaRegisterObject>),
    /// A registry stack backend, by roster key.
    Stack(&'static str),
    /// A registry map backend, by roster key, behind [`PermutedKeys`].
    Map(&'static str),
}

/// How a lane takes part in its workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Gated, and counted in the end-to-end figures.
    EndToEnd,
    /// Gated, but measured in the traced pass only: the lane fails
    /// operations on this workload (epoch admission denials under
    /// contention), and end-to-end figures are taken where nothing fails.
    TracedOnly,
    /// The `unprotected` zero-protection reference: fails the gate by
    /// design, so it is never gated and appears only as a traced lane.
    Reference,
}

/// One lane of a workload.
#[derive(Debug, Clone, Copy)]
pub struct LaneDef {
    /// Short name, unique within the workload.
    pub name: &'static str,
    /// What it is built from.
    pub kind: LaneKind,
    /// How it takes part.
    pub role: Role,
}

/// One benchmark workload: a registry scenario, a thread count, its lanes.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Registry scenario name.
    pub scenario: &'static str,
    /// `false`: one worker thread; `true`: `tn` worker threads.
    pub contended: bool,
    /// Timed operations per worker thread per round, sized on the reference
    /// host for 20–30 ms rounds (many short rounds sample the host's quiet
    /// stretches better than few long ones) and always for at least 1 000
    /// latency samples a round.
    pub ops_per_thread: usize,
    /// Always five lanes: traced lane `k` reports as `lane.<k>.*`.
    pub lanes: &'static [LaneDef],
}

const fn lane(name: &'static str, kind: LaneKind, role: Role) -> LaneDef {
    LaneDef { name, kind, role }
}

const REGISTER_LANES: &[LaneDef] = &[
    lane(
        "cas",
        LaneKind::LlSc(|| Box::new(CasLlSc::new(REGISTER_PROCESSES))),
        Role::EndToEnd,
    ),
    lane(
        "announce",
        LaneKind::LlSc(|| Box::new(AnnounceLlSc::new(REGISTER_PROCESSES))),
        Role::EndToEnd,
    ),
    lane(
        "moir16",
        LaneKind::LlSc(|| Box::new(MoirLlSc::with_tag_bits(REGISTER_PROCESSES, 16))),
        Role::EndToEnd,
    ),
    lane(
        "fig4",
        LaneKind::AbaReg(|| Box::new(BoundedAbaRegister::new(REGISTER_PROCESSES))),
        Role::EndToEnd,
    ),
    lane(
        "tagreg",
        LaneKind::AbaReg(|| Box::new(TaggedAbaRegister::new(REGISTER_PROCESSES))),
        Role::EndToEnd,
    ),
];

const STACK_LANES_T1: &[LaneDef] = &[
    lane(
        "unprotected",
        LaneKind::Stack("stack/unprotected"),
        Role::Reference,
    ),
    lane("tagged", LaneKind::Stack("stack/tagged"), Role::EndToEnd),
    lane("hazard", LaneKind::Stack("stack/hazard"), Role::EndToEnd),
    lane("llsc", LaneKind::Stack("stack/llsc-head"), Role::EndToEnd),
    lane("epoch", LaneKind::Stack("stack/epoch"), Role::EndToEnd),
];

const STACK_LANES_TN: &[LaneDef] = &[
    lane(
        "unprotected",
        LaneKind::Stack("stack/unprotected"),
        Role::Reference,
    ),
    lane("tagged", LaneKind::Stack("stack/tagged"), Role::EndToEnd),
    lane("hazard", LaneKind::Stack("stack/hazard"), Role::EndToEnd),
    lane("llsc", LaneKind::Stack("stack/llsc-head"), Role::EndToEnd),
    lane("epoch", LaneKind::Stack("stack/epoch"), Role::TracedOnly),
];

const MAP_LANES_TN: &[LaneDef] = &[
    lane(
        "unprotected",
        LaneKind::Map("map/unprotected"),
        Role::Reference,
    ),
    lane("tagged", LaneKind::Map("map/tagged"), Role::EndToEnd),
    lane("hazard", LaneKind::Map("map/hazard"), Role::EndToEnd),
    lane("llsc", LaneKind::Map("map/llsc"), Role::EndToEnd),
    lane("epoch", LaneKind::Map("map/epoch"), Role::TracedOnly),
];

/// Lanes every workload has; `lane.<k>.*` metrics are declared for `0..LANES`.
pub const LANES: usize = 5;

/// The benchmark's workloads, in report order.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "registers-t1",
        why: "The paper's own objects at 1 thread: only core and the engine run, an op is ~20 ns, so engine dispatch+sampling has its largest share here; arena/reclaim/lockfree changes must not move it.",
        scenario: "churn",
        contended: false,
        ops_per_thread: 800_000,
        lanes: REGISTER_LANES,
    },
    WorkloadDef {
        name: "stack-churn-t1",
        why: "Shortest structure op at 1 thread: every pair allocs, CASes the head, retires and frees, so arena and retire path dominate, traversal is nil and no CAS fails; the ladder's base case.",
        scenario: "churn",
        contended: false,
        ops_per_thread: 80_000,
        lanes: STACK_LANES_T1,
    },
    WorkloadDef {
        name: "stack-churn-tn",
        why: "The same stack code under head-word contention at tn threads: CAS failures, Backoff, cross-thread frees, hazard scans of live slots; where backoff and arena-lock changes show, t1 predicts nothing.",
        scenario: "churn",
        contended: true,
        ops_per_thread: 40_000,
        lanes: STACK_LANES_TN,
    },
    WorkloadDef {
        name: "map-read-heavy-tn",
        why: "90% get on the split-ordered map at tn threads: per-hop protect/validate dominates and arena/retire see ~5% of ops, so an arena or retire-path gain must show no move here.",
        scenario: "zipf-read-heavy",
        contended: true,
        ops_per_thread: 90_000,
        lanes: MAP_LANES_TN,
    },
    WorkloadDef {
        name: "map-key-churn-tn",
        why: "Same map and layers used the other way (1/3 insert, 1/3 get, 1/3 remove) at tn threads: a traversal gain that costs insert/remove/retire shows here.",
        scenario: "zipf-key-churn",
        contended: true,
        ops_per_thread: 40_000,
        lanes: MAP_LANES_TN,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl WorkloadDef {
    /// Worker threads of this workload on a host with `tn` usable cores.
    pub fn threads(&self, tn: usize) -> usize {
        if self.contended {
            tn
        } else {
            1
        }
    }
}

impl LaneDef {
    /// The lane as the engine sees it.  `seed` reaches only the map lanes'
    /// key permutations.
    pub fn spec(&self, seed: u64) -> BackendSpec {
        let name = self.name;
        match self.kind {
            LaneKind::LlSc(make) => {
                BackendSpec::new(name, move |t| Box::new(LlScWorkload::new(make(), t)))
            }
            LaneKind::AbaReg(make) => BackendSpec::new(name, move |t| {
                Box::new(AbaRegWorkload::new(make(), t)) as Box<dyn Workload>
            }),
            LaneKind::Stack(key) => roster_backend(key),
            LaneKind::Map(key) => {
                let inner = roster_backend(key);
                // Builds happen on the benchmark's own thread, one at a
                // time, so the count — and the stream — is deterministic.
                let built = AtomicU64::new(0);
                BackendSpec::new(name, move |t| {
                    let instance = built.fetch_add(1, Ordering::Relaxed);
                    Box::new(PermutedKeys {
                        inner: inner.build(t),
                        permutation: key_permutation(seed, instance),
                    }) as Box<dyn Workload>
                })
            }
        }
    }
}

/// The registry backend with roster key `key`.
pub fn roster_backend(key: &str) -> BackendSpec {
    standard_backends()
        .into_iter()
        .find(|b| b.name() == key)
        .unwrap_or_else(|| panic!("roster key {key:?} is gone from standard_backends()"))
}

// ---------------------------------------------------------------------------
// ABA-detecting-register adapter
// ---------------------------------------------------------------------------

/// `Workload` over an ABA-detecting register: read = `DRead`, write =
/// `DWrite` (the registry only adapts LL/SC objects).
pub struct AbaRegWorkload {
    obj: Box<dyn AbaRegisterObject>,
    threads: usize,
}

impl AbaRegWorkload {
    /// Wrap `obj`, which must have been created for at least `threads`
    /// processes.
    pub fn new(obj: Box<dyn AbaRegisterObject>, threads: usize) -> Self {
        assert!(
            obj.processes() >= threads,
            "register too small for {threads} threads"
        );
        AbaRegWorkload { obj, threads }
    }
}

impl Workload for AbaRegWorkload {
    fn threads(&self) -> usize {
        self.threads
    }

    fn worker(&self, tid: usize) -> Box<dyn WorkloadOps + '_> {
        assert!(tid < self.threads, "tid {tid} out of range");
        Box::new(AbaRegOps {
            handle: self.obj.handle(tid),
        })
    }
}

struct AbaRegOps<'a> {
    handle: Box<dyn AbaHandle + 'a>,
}

impl WorkloadOps for AbaRegOps<'_> {
    fn read(&mut self) {
        std::hint::black_box(self.handle.dread());
    }

    fn write(&mut self, value: u32) {
        self.handle.dwrite(value);
    }

    fn rmw(&mut self, value: u32) {
        let (old, _) = self.handle.dread();
        self.handle.dwrite(old.wrapping_add(value));
    }
}

// ---------------------------------------------------------------------------
// Seeded key permutation for the map lanes
// ---------------------------------------------------------------------------

/// Forwards to a registry map workload with every scenario key mapped
/// through one permutation of the key space from the seed's stream.
struct PermutedKeys {
    inner: Box<dyn Workload>,
    permutation: [u32; KEY_SPACE],
}

impl Workload for PermutedKeys {
    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn worker(&self, tid: usize) -> Box<dyn WorkloadOps + '_> {
        Box::new(PermutedOps {
            inner: self.inner.worker(tid),
            permutation: &self.permutation,
        })
    }

    fn unreclaimed(&self) -> u64 {
        self.inner.unreclaimed()
    }

    fn failed_ops(&self) -> u64 {
        self.inner.failed_ops()
    }
}

struct PermutedOps<'a> {
    inner: Box<dyn WorkloadOps + 'a>,
    permutation: &'a [u32; KEY_SPACE],
}

impl PermutedOps<'_> {
    fn key(&self, scenario_key: u32) -> u32 {
        self.permutation[scenario_key as usize % KEY_SPACE]
    }
}

impl WorkloadOps for PermutedOps<'_> {
    fn read(&mut self) {
        self.inner.read();
    }

    fn write(&mut self, value: u32) {
        let key = self.key(value);
        self.inner.write(key);
    }

    fn rmw(&mut self, value: u32) {
        let key = self.key(value);
        self.inner.rmw(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aba_workload::standard_scenarios;

    #[test]
    fn every_workload_has_five_uniquely_named_lanes_and_a_registry_scenario() {
        let scenarios = standard_scenarios();
        for w in WORKLOADS {
            assert_eq!(w.lanes.len(), LANES, "{}", w.name);
            let mut names: Vec<_> = w.lanes.iter().map(|l| l.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), LANES, "{}: duplicate lane name", w.name);
            assert!(
                scenarios.iter().any(|s| s.name() == w.scenario),
                "{}: scenario {:?} is not in the registry",
                w.name,
                w.scenario
            );
            assert!(w.lanes.iter().any(|l| l.role == Role::EndToEnd));
        }
    }

    #[test]
    fn every_lane_builds_and_runs_every_op() {
        for w in WORKLOADS {
            for lane in w.lanes {
                let built = lane.spec(3).build(2);
                assert_eq!(built.threads(), 2);
                let mut ops = built.worker(1);
                ops.write(5);
                ops.read();
                ops.rmw(5);
            }
        }
    }

    #[test]
    fn rounds_are_large_enough_to_report_p99() {
        for w in WORKLOADS {
            let samples = w.ops_per_thread / crate::e2e::SAMPLE_PERIOD;
            assert!(samples >= 1_000, "{}", w.name);
            assert!(crate::stats::percentile_is_supported(samples, 99.0));
        }
    }

    #[test]
    fn map_lanes_apply_the_seeds_permutation() {
        use std::sync::{Arc, Mutex};
        struct Recorder(Arc<Mutex<Vec<u32>>>);
        impl Workload for Recorder {
            fn threads(&self) -> usize {
                1
            }
            fn worker(&self, _tid: usize) -> Box<dyn WorkloadOps + '_> {
                Box::new(Recorder(Arc::clone(&self.0)))
            }
        }
        impl WorkloadOps for Recorder {
            fn read(&mut self) {}
            fn write(&mut self, value: u32) {
                self.0.lock().unwrap().push(value);
            }
            fn rmw(&mut self, value: u32) {
                self.0.lock().unwrap().push(value);
            }
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let permutation = key_permutation(9, 0);
        let lane = PermutedKeys {
            inner: Box::new(Recorder(Arc::clone(&seen))),
            permutation,
        };
        let mut ops = lane.worker(0);
        ops.write(0);
        ops.rmw(63);
        ops.read();
        assert_eq!(*seen.lock().unwrap(), vec![permutation[0], permutation[63]]);
    }
}
