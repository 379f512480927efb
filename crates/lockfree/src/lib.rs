//! # aba-lockfree
//!
//! ABA-motivated workloads for the reproduction: the data structures and
//! usage patterns the paper's introduction cites as the reason ABA detection
//! and prevention matter.
//!
//! * [`stack`] — **one** generic Treiber stack over a node arena,
//!   instantiated with five head-word strategies from `aba-reclaim`
//!   (unprotected, tagged, hazard pointers, epoch, LL/SC), experiment E6;
//! * [`queue`] — **one** generic Michael–Scott FIFO queue over the same
//!   arena with the same five protection strategies (the dequeue CAS is the
//!   textbook ABA victim), experiment E8; its enqueue and dequeue are
//!   [`MsQueue`]'s, written against [`mem::NodeMem`] so that the simulator
//!   replays the same text;
//! * [`set`] — **one** generic Harris–Michael sorted linked-list set over
//!   the same arena with the same five protection strategies (traversals
//!   hold references deep inside the chain — the hardest ABA surface),
//!   experiment E10;
//! * [`map`] — **one** generic split-ordered (Shalev–Shavit) hash map: the
//!   set's list (the crate-private `list` module holds the one
//!   Harris–Michael implementation both start from) under a growable bucket
//!   table, with the same five protection strategies, experiment E13 (the
//!   four share one node lifecycle, the crate-private `nodes` module:
//!   allocation, retirement, the retry budget and the ABA tally);
//! * [`stress`] — the multi-threaded stress harnesses and value-conservation
//!   checks that quantify ABA damage;
//! * [`event`] — the busy-wait / reset event-signalling scenario from §1,
//!   built on ABA-detecting registers;
//! * [`arena`] — the segmented, growable index-based node arena the
//!   structures share (no `unsafe` anywhere in the repository).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use aba_reclaim::{Reclaimer, SchemeFn};

pub mod arena;
pub mod event;
pub mod list;
pub mod map;
pub mod mem;
mod nodes;
pub mod queue;
pub mod set;
pub mod stack;
pub mod stress;

/// The scheme axis of the [`Family`] × `Scheme` roster, re-exported so
/// roster consumers need only this crate.
pub use aba_reclaim::Scheme;
pub use arena::{NodeArena, NIL};

/// What a handle does in the window between reading a structure's link
/// words and the CAS that acts on them — where the ABA happens in practice
/// (a preempted thread resumes and CASes against a recycled node).
///
/// The window is a property of *how a handle was obtained*, fixed by this
/// type parameter of the one generic handle each family has:
///
/// * `handle(tid)` instantiates it with [`Production`]: the window is
///   empty, the monomorphised operations contain no `yield_now`, and an
///   operation costs what the algorithm costs.  Every measurement uses
///   these handles: every workload engine cell except a contended map cell
///   (so a contended stack, queue or set cell prices real cache-line
///   contention and `Backoff`), and the benchmark's per-layer ladder.
/// * `racing_handle(tid)` instantiates it with [`Racing`]: the thread
///   yields inside every window, uniformly for every scheme, so a short run
///   on few cores provokes the preemptions a long run on many would.  The
///   adversaries attack through these handles — the stress harnesses
///   (`stress_*`, hence E6/E8/E10/E13's incidence columns and the
///   benchmark's correctness gate) and the tests that provoke or rule out a
///   race; they compare protection strategies, not the accident of
///   scheduling.  The engine's contended map cells use them too, for
///   repeatability rather than attack: window-free, their rate swings with
///   the host's inter-core latency beyond what a `-tn` map comparison can
///   resolve (see `aba-workload`'s `backend` module and EXPERIMENTS.md
///   E36).
pub(crate) trait Window: Send {
    /// Called at each read-then-CAS window of a structure operation.
    fn preemption_window();
}

/// The [`Window`] of `handle(tid)`: nothing happens in the window.
#[derive(Debug)]
pub(crate) struct Production;

impl Window for Production {
    #[inline(always)]
    fn preemption_window() {}
}

/// The [`Window`] of `racing_handle(tid)`: the thread hands its core to the
/// scheduler, inviting another thread to recycle the node it just read.
#[derive(Debug)]
pub(crate) struct Racing;

impl Window for Racing {
    #[inline]
    fn preemption_window() {
        std::thread::yield_now();
    }
}

pub use event::{EventSignal, NaiveEventSignal, Signaler, Waiter};
pub use map::{
    EpochMap, GenericMap, HazardMap, LlScMap, Map, MapHandle, TaggedMap, UnprotectedMap,
};
pub use queue::{
    EpochQueue, GenericQueue, HazardQueue, LlScQueue, MsQueue, Queue, QueueHandle, TaggedQueue,
    UnprotectedQueue,
};
pub use set::{
    EpochSet, GenericSet, HazardSet, LlScSet, Set, SetHandle, TaggedSet, UnprotectedSet,
};
pub use stack::{
    ElimPolicy, ElimStack, EpochElimStack, EpochStack, GenericStack, HazardElimStack, HazardStack,
    LlScElimStack, LlScStack, Stack, StackHandle, TaggedElimStack, TaggedStack, Treiber,
    UnprotectedElimStack, UnprotectedStack,
};
pub use stress::{
    conservation_capacity, stress_map, stress_queue, stress_set, stress_stack, StressReport,
};

// ---------------------------------------------------------------------------
// The Family × Scheme roster
// ---------------------------------------------------------------------------

/// The structure families, in roster order.  Together with [`Scheme`] this
/// is the one description of the structure roster: registry keys, display
/// labels, builders, the workload backends and the roster tests are all
/// derived from `Family × Scheme`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// [`GenericStack`]: Treiber stack (E6).
    Stack,
    /// [`ElimStack`]: Treiber stack behind an elimination array (E14).
    ElimStack,
    /// [`GenericQueue`]: Michael–Scott queue (E8).
    Queue,
    /// [`GenericSet`]: Harris–Michael ordered set (E10).
    Set,
    /// [`GenericMap`]: split-ordered hash map (E13).
    Map,
}

/// One freshly built structure of some [`Family`], behind its family's
/// object-safe trait.
#[allow(missing_debug_implementations)] // the structure traits are not `Debug`
pub enum Structure {
    /// A [`Family::Stack`] or [`Family::ElimStack`] instance.
    Stack(Box<dyn Stack>),
    /// A [`Family::Queue`] instance.
    Queue(Box<dyn Queue>),
    /// A [`Family::Set`] instance.
    Set(Box<dyn Set>),
    /// A [`Family::Map`] instance.
    Map(Box<dyn Map>),
}

impl Family {
    /// Every family, in roster order.
    pub const ALL: [Family; 5] = [
        Family::Stack,
        Family::ElimStack,
        Family::Queue,
        Family::Set,
        Family::Map,
    ];

    /// The roster table: `(registry key, display label)` of every
    /// `(family, scheme)` pair.  Both strings are stable — keys name cells in
    /// the BENCH documents, labels are quoted in EXPERIMENTS.md — so a new
    /// scheme adds a column and never renames an entry (pinned by the roster
    /// golden in `aba-workload` and the label golden in this crate's tests).
    const fn entry(self, scheme: Scheme) -> (&'static str, &'static str) {
        use Family::*;
        use Scheme::*;
        match (self, scheme) {
            (Stack, Unprotected) => ("stack/unprotected", "Treiber (unprotected)"),
            (Stack, Tagged) => ("stack/tagged", "Treiber (tagged head)"),
            (Stack, Hazard) => ("stack/hazard", "Treiber (hazard pointers)"),
            (Stack, LlSc) => ("stack/llsc-head", "Treiber (LL/SC head)"),
            (Stack, Epoch) => ("stack/epoch", "Treiber (epoch)"),
            (ElimStack, Unprotected) => ("stack-elim/unprotected", "Treiber+elim (unprotected)"),
            (ElimStack, Tagged) => ("stack-elim/tagged", "Treiber+elim (tagged)"),
            (ElimStack, Hazard) => ("stack-elim/hazard", "Treiber+elim (hazard pointers)"),
            (ElimStack, LlSc) => ("stack-elim/llsc-head", "Treiber+elim (LL/SC)"),
            (ElimStack, Epoch) => ("stack-elim/epoch", "Treiber+elim (epoch)"),
            (Queue, Unprotected) => ("queue/unprotected", "MS queue (unprotected)"),
            (Queue, Tagged) => ("queue/tagged", "MS queue (tagged)"),
            (Queue, Hazard) => ("queue/hazard", "MS queue (hazard pointers)"),
            (Queue, LlSc) => ("queue/llsc", "MS queue (LL/SC head+tail)"),
            (Queue, Epoch) => ("queue/epoch", "MS queue (epoch)"),
            (Set, Unprotected) => ("set/unprotected", "HM set (unprotected)"),
            (Set, Tagged) => ("set/tagged", "HM set (tagged links)"),
            (Set, Hazard) => ("set/hazard", "HM set (hazard pointers)"),
            // Only registered slots are LL/SC objects; deep links are arena
            // words under the counted encoding (DESIGN.md §7).
            (Set, LlSc) => ("set/llsc", "HM set (LL/SC head, counted links)"),
            (Set, Epoch) => ("set/epoch", "HM set (epoch)"),
            (Map, Unprotected) => ("map/unprotected", "SO map (unprotected)"),
            (Map, Tagged) => ("map/tagged", "SO map (tagged links)"),
            (Map, Hazard) => ("map/hazard", "SO map (hazard pointers)"),
            (Map, LlSc) => ("map/llsc", "SO map (LL/SC slots, counted links)"),
            (Map, Epoch) => ("map/epoch", "SO map (epoch)"),
        }
    }

    /// Stable registry key of this family under `scheme` (`"stack/tagged"`).
    pub const fn key(self, scheme: Scheme) -> &'static str {
        self.entry(scheme).0
    }

    /// Display label of this family under `scheme`, as every structure's
    /// `name()` reports it (`"Treiber (tagged head)"`).
    pub const fn label(self, scheme: Scheme) -> &'static str {
        self.entry(scheme).1
    }

    /// Build this family's structure over `scheme`, backed by `capacity`
    /// nodes and sized for `threads` threads — the one scheme-dispatching
    /// constructor behind every registry below.
    pub fn build(self, scheme: Scheme, capacity: usize, threads: usize) -> Structure {
        struct New(Family, usize, usize);
        impl SchemeFn for New {
            type Out = Structure;
            fn call<R: Reclaimer>(self) -> Structure {
                let New(family, capacity, threads) = self;
                match family {
                    Family::Stack => Structure::Stack(Box::new(GenericStack::<R>::with_threads(
                        capacity, threads,
                    ))),
                    Family::ElimStack => {
                        Structure::Stack(Box::new(ElimStack::<R>::with_threads(capacity, threads)))
                    }
                    Family::Queue => Structure::Queue(Box::new(GenericQueue::<R>::with_threads(
                        capacity, threads,
                    ))),
                    Family::Set => {
                        Structure::Set(Box::new(GenericSet::<R>::with_threads(capacity, threads)))
                    }
                    Family::Map => {
                        Structure::Map(Box::new(GenericMap::<R>::with_threads(capacity, threads)))
                    }
                }
            }
        }
        scheme.dispatch(New(self, capacity, threads))
    }
}

/// A constructor for one structure variant: `(capacity, threads) -> T`.
type Builder<T> = Box<dyn Fn(usize, usize) -> Box<T> + Send + Sync>;

/// Named builders of `family`, one per scheme in roster order; `unwrap`
/// projects the family's own [`Structure`] variant.
fn builders<T: ?Sized + 'static>(
    family: Family,
    unwrap: fn(Structure) -> Option<Box<T>>,
) -> Vec<(&'static str, Builder<T>)> {
    Scheme::ALL
        .into_iter()
        .map(|scheme| {
            let build = move |capacity, threads| {
                unwrap(family.build(scheme, capacity, threads))
                    .expect("a family builds its own structure kind")
            };
            (family.key(scheme), Box::new(build) as Builder<T>)
        })
        .collect()
}

/// A named constructor for one stack variant: `(capacity, threads) -> stack`.
///
/// Harnesses that build a fresh instance per measurement cell (the
/// `aba-workload` engine, the stress loops) go through these instead of
/// hard-coding the roster.
pub type StackBuilder = Builder<dyn Stack>;

/// Named builders for the standard roster of stack variants, in E6 display
/// order.  The names are the [`Family::key`]s (used in experiment tables and
/// `BENCH_throughput.json`).
pub fn stack_builders() -> Vec<(&'static str, StackBuilder)> {
    builders(Family::Stack, |s| match s {
        Structure::Stack(stack) => Some(stack),
        _ => None,
    })
}

/// Named builders for the elimination-backoff stack roster (experiment
/// E14), one per reclamation scheme, mirroring [`stack_builders`].
pub fn elim_stack_builders() -> Vec<(&'static str, StackBuilder)> {
    builders(Family::ElimStack, |s| match s {
        Structure::Stack(stack) => Some(stack),
        _ => None,
    })
}

/// The standard roster of stack variants for experiment E6, sized for
/// `threads` threads with an arena of `capacity` nodes.
pub fn all_stacks(capacity: usize, threads: usize) -> Vec<Box<dyn Stack>> {
    stack_builders()
        .into_iter()
        .map(|(_, build)| build(capacity, threads))
        .collect()
}

/// A named constructor for one queue variant: `(capacity, threads) -> queue`,
/// mirroring [`StackBuilder`].
pub type QueueBuilder = Builder<dyn Queue>;

/// Named builders for the standard roster of queue variants, in E8 display
/// order.  The names are stable registry keys (used in experiment tables and
/// `BENCH_throughput.json`), mirroring [`stack_builders`].
pub fn queue_builders() -> Vec<(&'static str, QueueBuilder)> {
    builders(Family::Queue, |s| match s {
        Structure::Queue(queue) => Some(queue),
        _ => None,
    })
}

/// The standard roster of queue variants for experiment E8, sized for
/// `threads` threads holding up to `capacity` values each.
pub fn all_queues(capacity: usize, threads: usize) -> Vec<Box<dyn Queue>> {
    queue_builders()
        .into_iter()
        .map(|(_, build)| build(capacity, threads))
        .collect()
}

/// A named constructor for one ordered-set variant:
/// `(capacity, threads) -> set`, mirroring [`StackBuilder`].
pub type SetBuilder = Builder<dyn Set>;

/// Named builders for the standard roster of Harris–Michael set variants, in
/// E10 display order.  The names are stable registry keys (used in
/// experiment tables and `BENCH_throughput.json`), mirroring
/// [`stack_builders`].
pub fn set_builders() -> Vec<(&'static str, SetBuilder)> {
    builders(Family::Set, |s| match s {
        Structure::Set(set) => Some(set),
        _ => None,
    })
}

/// The standard roster of set variants for experiment E10, sized for
/// `threads` threads holding up to `capacity` keys each.
pub fn all_sets(capacity: usize, threads: usize) -> Vec<Box<dyn Set>> {
    set_builders()
        .into_iter()
        .map(|(_, build)| build(capacity, threads))
        .collect()
}

/// A named constructor for one split-ordered-map variant:
/// `(capacity, threads) -> map`, mirroring [`StackBuilder`].
pub type MapBuilder = Builder<dyn Map>;

/// Named builders for the standard roster of split-ordered hash-map
/// variants, in E13 display order.  The names are stable registry keys
/// (used in experiment tables and `BENCH_map.json`), mirroring
/// [`stack_builders`].
pub fn map_builders() -> Vec<(&'static str, MapBuilder)> {
    builders(Family::Map, |s| match s {
        Structure::Map(map) => Some(map),
        _ => None,
    })
}

/// The standard roster of map variants for experiment E13, provisioned for
/// `capacity` entries used by `threads` threads.
pub fn all_maps(capacity: usize, threads: usize) -> Vec<Box<dyn Map>> {
    map_builders()
        .into_iter()
        .map(|(_, build)| build(capacity, threads))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 25 structure keys of the roster, family-major in roster order.
    const KEYS: [[&str; 5]; 5] = [
        [
            "stack/unprotected",
            "stack/tagged",
            "stack/hazard",
            "stack/llsc-head",
            "stack/epoch",
        ],
        [
            "stack-elim/unprotected",
            "stack-elim/tagged",
            "stack-elim/hazard",
            "stack-elim/llsc-head",
            "stack-elim/epoch",
        ],
        [
            "queue/unprotected",
            "queue/tagged",
            "queue/hazard",
            "queue/llsc",
            "queue/epoch",
        ],
        [
            "set/unprotected",
            "set/tagged",
            "set/hazard",
            "set/llsc",
            "set/epoch",
        ],
        [
            "map/unprotected",
            "map/tagged",
            "map/hazard",
            "map/llsc",
            "map/epoch",
        ],
    ];

    #[test]
    fn every_family_scheme_pair_has_its_stable_key_and_a_working_structure() {
        for (family, keys) in Family::ALL.into_iter().zip(KEYS) {
            for (scheme, key) in Scheme::ALL.into_iter().zip(keys) {
                assert_eq!(family.key(scheme), key);
                let label = family.label(scheme);
                match family.build(scheme, 4, 2) {
                    Structure::Stack(stack) => {
                        assert_eq!(stack.name(), label);
                        let mut h = stack.handle(1);
                        assert!(h.push(9));
                        assert_eq!(h.pop(), Some(9));
                    }
                    Structure::Queue(queue) => {
                        assert_eq!(queue.name(), label);
                        let mut h = queue.handle(1);
                        assert!(h.enqueue(9));
                        assert_eq!(h.dequeue(), Some(9));
                    }
                    Structure::Set(set) => {
                        assert_eq!(set.name(), label);
                        let mut h = set.handle(1);
                        assert!(h.insert(9));
                        assert!(h.contains(9));
                        assert!(h.remove(9));
                        assert!(!h.contains(9));
                    }
                    Structure::Map(map) => {
                        assert_eq!(map.name(), label);
                        let mut h = map.handle(1);
                        assert!(h.insert(9, 90));
                        assert_eq!(h.get(9), Some(90));
                        assert!(h.remove(9));
                        assert_eq!(h.get(9), None);
                    }
                }
            }
        }
    }

    /// Every fixed-arena family holds exactly its capacity under every
    /// scheme (the map's arena grows, so it has no such edge): the operation
    /// past it fails and counts one allocation failure, and one removal makes
    /// room again — under the deferred schemes too, because the failed
    /// allocation's reclaim pressure frees the retired node before the one
    /// retry.
    #[test]
    fn a_full_structure_fails_one_allocation_and_one_removal_makes_room() {
        for family in [Family::Stack, Family::ElimStack, Family::Queue, Family::Set] {
            for scheme in Scheme::ALL {
                let cell = family.key(scheme);
                match family.build(scheme, 2, 1) {
                    Structure::Stack(stack) => {
                        assert_eq!(stack.capacity(), 2, "{cell}");
                        let mut h = stack.handle(0);
                        assert!(h.push(1) && h.push(2), "{cell}");
                        assert_eq!(stack.alloc_failures(), 0, "{cell}");
                        assert!(!h.push(3), "{cell}");
                        assert_eq!(stack.alloc_failures(), 1, "{cell}");
                        assert_eq!(h.pop(), Some(2), "{cell}");
                        assert!(h.push(3), "{cell}");
                        assert_eq!(stack.alloc_failures(), 1, "{cell}");
                    }
                    Structure::Queue(queue) => {
                        assert_eq!(queue.capacity(), 2, "{cell}");
                        let mut h = queue.handle(0);
                        assert!(h.enqueue(1) && h.enqueue(2), "{cell}");
                        assert_eq!(queue.alloc_failures(), 0, "{cell}");
                        assert!(!h.enqueue(3), "{cell}");
                        assert_eq!(queue.alloc_failures(), 1, "{cell}");
                        assert_eq!(h.dequeue(), Some(1), "{cell}");
                        assert!(h.enqueue(3), "{cell}");
                        assert_eq!(queue.alloc_failures(), 1, "{cell}");
                        assert_eq!(h.dequeue(), Some(2), "{cell}");
                        assert_eq!(h.dequeue(), Some(3), "{cell}");
                    }
                    Structure::Set(set) => {
                        assert_eq!(set.capacity(), 2, "{cell}");
                        let mut h = set.handle(0);
                        assert!(h.insert(1) && h.insert(2), "{cell}");
                        assert_eq!(set.alloc_failures(), 0, "{cell}");
                        assert!(!h.insert(3), "{cell}: arena exhausted");
                        assert_eq!(set.alloc_failures(), 1, "{cell}");
                        assert!(h.remove(1), "{cell}");
                        assert!(h.insert(3), "{cell}");
                        assert_eq!(set.alloc_failures(), 1, "{cell}");
                        assert!(h.contains(2) && h.contains(3), "{cell}");
                    }
                    Structure::Map(_) => unreachable!("the map is not in this table"),
                }
            }
        }
    }

    #[test]
    fn builder_registries_list_their_family_row_in_roster_order() {
        fn names<T>(builders: Vec<(&'static str, T)>) -> Vec<&'static str> {
            builders.into_iter().map(|(name, _)| name).collect()
        }
        assert_eq!(names(stack_builders()), KEYS[0]);
        assert_eq!(names(elim_stack_builders()), KEYS[1]);
        assert_eq!(names(queue_builders()), KEYS[2]);
        assert_eq!(names(set_builders()), KEYS[3]);
        assert_eq!(names(map_builders()), KEYS[4]);
        assert_eq!(all_stacks(8, 2).len(), 5);
        assert_eq!(all_queues(8, 2).len(), 5);
        assert_eq!(all_sets(8, 2).len(), 5);
        assert_eq!(all_maps(8, 2).len(), 5);
    }
}
