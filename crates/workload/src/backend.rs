//! The backend side of the matrix: everything a scenario can drive.
//!
//! A [`Workload`] adapts one shared object — an [`LlScObject`] or one of
//! `aba-lockfree`'s structure families (a [`Structure`]) — to the three
//! abstract operations the scenarios are written in terms of
//! ([`WorkloadOps`]): `read`, `write` and `rmw` (read-modify-write).  A
//! [`BackendSpec`] is a named factory that builds a fresh, correctly-sized
//! instance for every measurement cell, so that repetitions never observe
//! each other's state.
//!
//! [`standard_backends`] is the roster the E7/E8/E9/E10/E13/E14 experiments
//! sweep: every `LlScObject` implementation in `aba-core` (Figure 3's
//! single-CAS object, the announce-array object, and Moir's construction at
//! three tag widths) plus every Treiber-stack, elimination-stack, MS-queue,
//! Harris–Michael-set and split-ordered-map variant in `aba-lockfree` — one
//! per `aba-reclaim` scheme (unprotected, tagged, hazard-protected,
//! epoch-reclaimed and LL/SC-worded), 30 backends total.
//!
//! The structure adapters pick the handle kind from the cell's thread count,
//! once, when a worker is created: a 1-thread cell runs through `handle(tid)`
//! (algorithm cost, no injected yield), a contended cell through
//! `racing_handle(tid)` (a yield in every read-then-CAS window).  The second
//! half is a measurement constraint, not a preference: window-free workers
//! on two cores spend their operations waiting for the few hot cache lines
//! every family funnels through, so the cell's rate is the host's inter-core
//! latency — which the reference host's hypervisor moves between ~22 ns and
//! ~130 ns per round trip for seconds at a time (the same binary measured
//! 4 M or 20 M ops/s on the contended stack; EXPERIMENTS.md E16).  Until the
//! engine can price that latency, contended cells keep the pacing that makes
//! them repeatable (ROADMAP items 1(a) and 2(d)).

use std::sync::atomic::{AtomicU64, Ordering};

use aba_core::{AnnounceLlSc, CasLlSc, MoirLlSc};
use aba_lockfree::{Family, MapHandle, QueueHandle, Scheme, SetHandle, StackHandle, Structure};
use aba_spec::{LlScHandle, LlScObject};

use crate::engine::{Round, Tally};

/// A shared object adapted to the scenario vocabulary, sized for a fixed
/// number of worker threads.
pub trait Workload: Send + Sync {
    /// Number of worker threads the instance was built for.
    fn threads(&self) -> usize;

    /// Obtain the per-thread operation handle for `tid`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `tid >= self.threads()`.
    fn worker(&self, tid: usize) -> Box<dyn WorkloadOps + '_>;

    /// Nodes retired but not yet returned to the backend's allocator — the
    /// protection scheme's instantaneous space overhead.  0 for backends
    /// without deferred reclamation (the engine's `peak_unreclaimed` gauge
    /// samples this concurrently with the workers).
    fn unreclaimed(&self) -> u64 {
        0
    }

    /// Operations that ended without their intended effect because the
    /// backend's allocation fast path failed (arena exhausted, or denied by
    /// a deferred scheme's limbo-bound admission).  A starved cell completes
    /// these "ops" at allocation-failure speed, so the engine subtracts them
    /// from the throughput numerator — E9's "starvation inflates ops/s"
    /// footgun.  Counted per *operation*, never per internal attempt: the
    /// figure must stay within the cell's op count for the subtraction to
    /// be meaningful.  0 for backends that never allocate.
    fn failed_ops(&self) -> u64 {
        0
    }
}

/// Per-thread operations a scenario can issue against a [`Workload`].
///
/// Each method is one *logical* operation (one unit in the op counters);
/// internal retry loops of lock-free backends are deliberately not exposed.
pub trait WorkloadOps: Send {
    /// Observe the shared state (LL/VL for LL/SC objects, pop for stacks).
    fn read(&mut self);

    /// Publish `value` (LL+SC retry loop for LL/SC objects, push for stacks).
    fn write(&mut self, value: u32);

    /// Read-modify-write round trip (LL, then SC of a derived value for
    /// LL/SC objects; push immediately followed by pop for stacks).
    fn rmw(&mut self, value: u32);

    /// Issue one worker's share of a round: its ops in script order, with
    /// latency and the space gauge sampled on the round's stride.
    ///
    /// Provided, and not meant to be overridden (an implementation outside
    /// this crate could not build the [`Tally`] it returns).  The body is the
    /// engine's op loop: one dynamic call per worker per round, loop
    /// monomorphised per adapter, so `read`/`write`/`rmw` are static calls
    /// inside it.
    fn run(&mut self, round: &Round<'_>) -> Tally {
        crate::engine::drive(self, round)
    }
}

// ---------------------------------------------------------------------------
// LL/SC adapter
// ---------------------------------------------------------------------------

/// [`Workload`] over any [`LlScObject`].
pub struct LlScWorkload {
    obj: Box<dyn LlScObject>,
    threads: usize,
}

impl std::fmt::Debug for LlScWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LlScWorkload")
            .field("name", &self.obj.name())
            .field("threads", &self.threads)
            .finish()
    }
}

impl LlScWorkload {
    /// Wrap `obj`, which must have been created for at least `threads`
    /// processes.
    ///
    /// # Panics
    ///
    /// Panics if `obj.processes() < threads`.
    pub fn new(obj: Box<dyn LlScObject>, threads: usize) -> Self {
        assert!(
            obj.processes() >= threads,
            "object too small for {threads} threads"
        );
        LlScWorkload { obj, threads }
    }
}

impl Workload for LlScWorkload {
    fn threads(&self) -> usize {
        self.threads
    }

    fn worker(&self, tid: usize) -> Box<dyn WorkloadOps + '_> {
        assert!(tid < self.threads, "tid {tid} out of range");
        Box::new(LlScOps {
            handle: self.obj.handle(tid),
        })
    }
}

struct LlScOps<'a> {
    handle: Box<dyn LlScHandle + 'a>,
}

impl WorkloadOps for LlScOps<'_> {
    fn read(&mut self) {
        std::hint::black_box(self.handle.ll());
        std::hint::black_box(self.handle.vl());
    }

    fn write(&mut self, value: u32) {
        // retry-bound: an SC fails only because some other SC succeeded, so
        // with finitely many competing operations this loop terminates.
        loop {
            self.handle.ll();
            if self.handle.sc(value) {
                return;
            }
        }
    }

    fn rmw(&mut self, value: u32) {
        // retry-bound: same argument as `write` — each SC failure implies
        // another SC's success, so the retry chain is finite.
        loop {
            let old = self.handle.ll();
            if self.handle.sc(old.wrapping_add(value)) {
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Structure adapters
// ---------------------------------------------------------------------------

/// [`Workload`] over any structure of `aba-lockfree`'s roster: one shell,
/// and one [`WorkloadOps`] vocabulary per family below.
struct StructureWorkload {
    structure: Structure,
    threads: usize,
    /// Stack and queue operations (not attempts) that ended without their
    /// intended effect.  Their ops count these here rather than forwarding
    /// the structure's `alloc_failures`: `write`'s recovery retry can fail
    /// the allocation fast path twice inside one operation, and a
    /// failed-ops figure above the op count would zero out the productive
    /// throughput.  Set and map operations fail at most once each, so those
    /// families forward `alloc_failures`.
    failed: AtomicU64,
}

impl Workload for StructureWorkload {
    fn threads(&self) -> usize {
        self.threads
    }

    fn worker(&self, tid: usize) -> Box<dyn WorkloadOps + '_> {
        assert!(tid < self.threads, "tid {tid} out of range");
        let contended = self.threads > 1;
        // The handle-kind rule of the module docs, for any family's trait.
        macro_rules! handle {
            ($structure:expr) => {
                if contended {
                    $structure.racing_handle(tid)
                } else {
                    $structure.handle(tid)
                }
            };
        }
        let failed = &self.failed;
        let probe = tid as u32;
        match &self.structure {
            Structure::Stack(stack) => Box::new(StackOps {
                handle: handle!(stack),
                failed,
            }),
            Structure::Queue(queue) => Box::new(QueueOps {
                handle: handle!(queue),
                failed,
            }),
            Structure::Set(set) => Box::new(SetOps {
                handle: handle!(set),
                probe,
            }),
            Structure::Map(map) => Box::new(MapOps {
                handle: handle!(map),
                probe,
            }),
        }
    }

    fn unreclaimed(&self) -> u64 {
        match &self.structure {
            Structure::Stack(stack) => stack.unreclaimed(),
            Structure::Queue(queue) => queue.unreclaimed(),
            Structure::Set(set) => set.unreclaimed(),
            Structure::Map(map) => map.unreclaimed(),
        }
    }

    fn failed_ops(&self) -> u64 {
        match &self.structure {
            Structure::Stack(_) | Structure::Queue(_) => self.failed.load(Ordering::SeqCst),
            Structure::Set(set) => set.alloc_failures(),
            Structure::Map(map) => map.alloc_failures(),
        }
    }
}

struct StackOps<'a> {
    handle: Box<dyn StackHandle + 'a>,
    /// One tick per operation (never per attempt) that ended without its
    /// intended effect, so a cell's failed ops can never exceed its ops.
    failed: &'a AtomicU64,
}

impl WorkloadOps for StackOps<'_> {
    fn read(&mut self) {
        std::hint::black_box(self.handle.pop());
    }

    fn write(&mut self, value: u32) {
        if !self.handle.push(value) {
            // Arena exhausted: make room (keeps write-heavy scenarios from
            // degenerating into no-ops once the stack fills).
            std::hint::black_box(self.handle.pop());
            if !self.handle.push(value) {
                self.failed.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    fn rmw(&mut self, value: u32) {
        if !self.handle.push(value) {
            self.failed.fetch_add(1, Ordering::SeqCst);
        }
        std::hint::black_box(self.handle.pop());
    }
}

struct QueueOps<'a> {
    handle: Box<dyn QueueHandle + 'a>,
    /// As [`StackOps`]'s field of the same name.
    failed: &'a AtomicU64,
}

impl WorkloadOps for QueueOps<'_> {
    fn read(&mut self) {
        std::hint::black_box(self.handle.dequeue());
    }

    fn write(&mut self, value: u32) {
        if !self.handle.enqueue(value) {
            // Arena exhausted: make room (keeps producer-heavy scenarios
            // from degenerating into no-ops once the queue fills).
            std::hint::black_box(self.handle.dequeue());
            if !self.handle.enqueue(value) {
                self.failed.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    fn rmw(&mut self, value: u32) {
        // The pipeline hand-off: drain one value, transform it, re-publish.
        let drained = self.handle.dequeue().unwrap_or(0);
        if !self.handle.enqueue(drained.wrapping_add(value)) {
            // The drained value is dropped on the floor: a broken hand-off.
            self.failed.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// How many distinct keys the set and map ops fold scenario values onto.
/// Matches the key-space scenarios' 64-key range plus the cold offset, so
/// chains stay a few dozen nodes deep, every scenario value lands on a valid
/// key, both families see comparable contention, and the map's bucket
/// doubling actually fires.
const KEY_SPACE: u32 = 128;

struct SetOps<'a> {
    handle: Box<dyn SetHandle + 'a>,
    /// Rolling probe key for value-less reads; the odd stride walks the
    /// whole key space.
    probe: u32,
}

impl WorkloadOps for SetOps<'_> {
    fn read(&mut self) {
        self.probe = self.probe.wrapping_add(13) % KEY_SPACE;
        std::hint::black_box(self.handle.contains(self.probe));
    }

    fn write(&mut self, value: u32) {
        std::hint::black_box(self.handle.insert(value % KEY_SPACE));
    }

    fn rmw(&mut self, value: u32) {
        // The membership round trip: retract the key a `write` of the same
        // scenario value published (key-space scenarios pair them up).
        std::hint::black_box(self.handle.remove(value % KEY_SPACE));
    }
}

struct MapOps<'a> {
    handle: Box<dyn MapHandle + 'a>,
    /// As [`SetOps`]'s field of the same name.
    probe: u32,
}

impl WorkloadOps for MapOps<'_> {
    fn read(&mut self) {
        self.probe = self.probe.wrapping_add(13) % KEY_SPACE;
        std::hint::black_box(self.handle.get(self.probe));
    }

    fn write(&mut self, value: u32) {
        // Bind a value derived from the key so a stale read is detectable
        // (the checker layers compare observed bindings, not just presence).
        let key = value % KEY_SPACE;
        std::hint::black_box(self.handle.insert(key, key ^ 0xA5A5_A5A5));
    }

    fn rmw(&mut self, value: u32) {
        // The binding round trip: retract the key a `write` of the same
        // scenario value published (key-space scenarios pair them up).
        std::hint::black_box(self.handle.remove(value % KEY_SPACE));
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A named factory building a fresh [`Workload`] sized for a given thread
/// count — one instance per (scenario × backend × threads × repetition) cell.
pub struct BackendSpec {
    name: &'static str,
    build: Box<dyn Fn(usize) -> Box<dyn Workload> + Send + Sync>,
}

impl std::fmt::Debug for BackendSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendSpec")
            .field("name", &self.name)
            .finish()
    }
}

impl BackendSpec {
    /// A new spec from a name and a `threads -> Workload` factory.
    pub fn new(
        name: &'static str,
        build: impl Fn(usize) -> Box<dyn Workload> + Send + Sync + 'static,
    ) -> Self {
        BackendSpec {
            name,
            build: Box::new(build),
        }
    }

    /// The backend's display name (stable across runs; used as the JSON key).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Build a fresh instance for `threads` worker threads.
    pub fn build(&self, threads: usize) -> Box<dyn Workload> {
        (self.build)(threads)
    }
}

/// Node capacity the roster provisions each structure backend with at
/// `threads` workers: scaled with the thread count so that churn scenarios
/// always have headroom but recycling stays hot.  Public so experiment
/// binaries can gate measured footprints against the arena they actually ran
/// on (e.g. E9/E15's limbo-bound check `peak_unreclaimed < capacity`).
pub fn roster_node_capacity(threads: usize) -> usize {
    64 + 16 * threads
}

/// The standard backend roster, 30 entries: the five LL/SC objects (Figure
/// 3, the announce array, Moir at tag widths 32, 16 and 8), then every
/// structure [`Family`] (stack, elimination stack, queue, set, map) under
/// every [`Scheme`], family-major in roster order, keyed by
/// [`Family::key`].
pub fn standard_backends() -> Vec<BackendSpec> {
    let mut specs: Vec<BackendSpec> = vec![
        BackendSpec::new("llsc/cas (Fig 3)", |t| {
            Box::new(LlScWorkload::new(Box::new(CasLlSc::new(t)), t))
        }),
        BackendSpec::new("llsc/announce", |t| {
            Box::new(LlScWorkload::new(Box::new(AnnounceLlSc::new(t)), t))
        }),
        BackendSpec::new("llsc/moir tag32", |t| {
            Box::new(LlScWorkload::new(
                Box::new(MoirLlSc::with_tag_bits(t, 32)),
                t,
            ))
        }),
        BackendSpec::new("llsc/moir tag16", |t| {
            Box::new(LlScWorkload::new(
                Box::new(MoirLlSc::with_tag_bits(t, 16)),
                t,
            ))
        }),
        BackendSpec::new("llsc/moir tag8", |t| {
            Box::new(LlScWorkload::new(
                Box::new(MoirLlSc::with_tag_bits(t, 8)),
                t,
            ))
        }),
    ];
    for family in Family::ALL {
        for scheme in Scheme::ALL {
            specs.push(BackendSpec::new(family.key(scheme), move |t| {
                Box::new(StructureWorkload {
                    structure: family.build(scheme, roster_node_capacity(t), t),
                    threads: t,
                    failed: AtomicU64::new(0),
                })
            }));
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_has_thirty_distinct_backends() {
        let specs = standard_backends();
        assert_eq!(specs.len(), 30);
        let mut names: Vec<_> = specs.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 30);
        // All five structure families are present, one backend per scheme.
        for family in ["stack/", "stack-elim/", "queue/", "set/", "map/"] {
            let count = specs
                .iter()
                .filter(|s| s.name().starts_with(family))
                .count();
            assert_eq!(count, 5, "{family}");
        }
    }

    #[test]
    fn deferred_backends_expose_the_unreclaimed_gauge() {
        for spec in standard_backends() {
            let wants_limbo = matches!(
                spec.name(),
                "stack/hazard"
                    | "stack/epoch"
                    | "stack-elim/hazard"
                    | "stack-elim/epoch"
                    | "queue/hazard"
                    | "queue/epoch"
                    | "set/hazard"
                    | "set/epoch"
                    | "map/hazard"
                    | "map/epoch"
            );
            let w = spec.build(1);
            let mut ops = w.worker(0);
            // Grow the map backends' arena past its tiny initial segment
            // first: the hazard scheme's eager small-arena flush (correctly)
            // frees a lone unprotected retiree while the live arena is only
            // a handful of nodes, which would hide it from the gauge.
            for v in 0..32 {
                ops.write(v);
            }
            ops.read(); // pop/dequeue: retires a node under deferred schemes
            ops.rmw(5); // set remove: the retiring op of the set adapter
            if wants_limbo {
                assert!(
                    w.unreclaimed() > 0,
                    "{}: a just-retired node must be visible in the gauge",
                    spec.name()
                );
            } else {
                assert_eq!(w.unreclaimed(), 0, "{}", spec.name());
            }
        }
    }

    #[test]
    fn set_adapter_round_trips_membership_through_the_op_vocabulary() {
        for spec in standard_backends() {
            if !spec.name().starts_with("set/") {
                continue;
            }
            let w = spec.build(2);
            let mut ops = w.worker(1);
            ops.rmw(9); // remove on an empty set: a no-op
            ops.write(9); // insert 9
            ops.write(9); // duplicate insert: a no-op
            ops.read(); // contains(probe)
            ops.rmw(9); // remove 9
            ops.rmw(9); // remove again: a no-op
            ops.write(200); // folds onto key 200 % 128 = 72
            ops.rmw(200);
        }
    }

    #[test]
    fn map_adapter_round_trips_bindings_through_the_op_vocabulary() {
        for spec in standard_backends() {
            if !spec.name().starts_with("map/") {
                continue;
            }
            let w = spec.build(2);
            let mut ops = w.worker(1);
            ops.rmw(9); // remove on an empty map: a no-op
            ops.write(9); // bind 9
            ops.write(9); // duplicate insert: a no-op
            ops.read(); // get(probe)
            ops.rmw(9); // unbind 9
            ops.rmw(9); // remove again: a no-op
            ops.write(200); // folds onto key 200 % 128 = 72
            ops.rmw(200);
        }
    }

    #[test]
    fn queue_adapter_runs_every_op_including_rmw_on_an_empty_queue() {
        for spec in standard_backends() {
            if !spec.name().starts_with("queue/") {
                continue;
            }
            let w = spec.build(2);
            let mut ops = w.worker(1);
            ops.rmw(10); // empty queue: drains nothing, publishes the transform
            ops.write(1);
            ops.write(2);
            ops.rmw(10); // drains 10, re-publishes 20 behind 2
            ops.read();
            ops.read();
            ops.read();
            ops.read(); // now empty again
        }
    }

    #[test]
    fn every_backend_builds_and_runs_every_op() {
        for spec in standard_backends() {
            let w = spec.build(2);
            assert_eq!(w.threads(), 2);
            let mut ops = w.worker(1);
            ops.write(5);
            ops.read();
            ops.rmw(1);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn worker_tid_is_bounds_checked() {
        let spec = &standard_backends()[0];
        let w = spec.build(1);
        let _ = w.worker(1);
    }
}
