//! Multi-threaded stress harnesses and conservation checking for the stacks
//! (experiment E6), queues (experiment E8), sets (E10) and split-ordered
//! maps (E13).
//!
//! For stacks, each thread pushes a disjoint set of values and pops whatever
//! it finds.  For queues, producer threads enqueue disjoint values while
//! consumer threads dequeue — the role-asymmetric traffic the MS queue is
//! built for.  Afterwards the values that were taken out plus the values
//! still inside must be exactly the values that went in — any *lost* or
//! *duplicated* value is structural corruption caused by an ABA on the
//! head/tail words.
//!
//! All four harnesses are thin role definitions over one shared
//! conservation driver (`run_conservation`) and return the same
//! [`StressReport`]: barrier-started workers, private per-thread value logs
//! merged after join, a bounded post-run drain (a corrupted structure can
//! contain a cycle) and multiset accounting.  Every
//! structure variant — including any scheme added to `aba-reclaim` later —
//! gets its conservation check from the same scaffolding.
//!
//! The workers attack through `racing_handle`s: the preemption window is
//! open, so every read-then-CAS window is a scheduling point under every
//! scheme alike.  Callers that measure algorithm cost use `handle`, and so
//! does each family's window-free conservation test below: every script is
//! a private driver that takes the handle constructor as a parameter.

use std::collections::HashMap;
use std::sync::Barrier;

use crate::map::{Map, MapHandle};
use crate::queue::{Queue, QueueHandle};
use crate::set::{Set, SetHandle};
use crate::stack::{Stack, StackHandle};

/// Arena size for a conservation stress run: a deliberately *tight* shared
/// capacity (`contended` nodes — small enough that every node recycles
/// constantly, which is what makes the ABA window hot) plus two nodes of
/// per-thread headroom, so deferred schemes (hazard, epoch), whose retired
/// nodes sit in limbo for a scan or two epochs, do not starve the arena into
/// a false exhaustion livelock.  Every conservation test sizes its structure
/// with this one helper instead of hand-computing the sum.
pub fn conservation_capacity(contended: usize, threads: usize) -> usize {
    contended + threads * 2
}

/// Result of one conservation run of any structure family: what went in,
/// what came out (taken by the workers, or recovered by the post-run drain)
/// and the multiset difference between the two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StressReport {
    /// Display label of the structure variant (its `name()`).
    pub structure: String,
    /// Number of worker threads (for a queue: producers plus consumers).
    pub threads: usize,
    /// Insert attempts per inserting thread.
    pub ops_per_thread: usize,
    /// Values (keys) successfully pushed / enqueued / inserted.
    pub inserted: u64,
    /// `inserted` under the stack harness's original name.  The committed
    /// benchmark (`benchmark/src/gate.rs`, frozen by `BENCHMARK.json`) reads
    /// this field, so it stays until the benchmark can be touched.
    pub pushed: u64,
    /// Values popped / dequeued / removed by the workers themselves.
    pub removed: u64,
    /// Values recovered from the structure by the post-run drain.
    pub remaining: u64,
    /// ABA events the structure itself detected (only the unprotected
    /// variants report these).
    pub aba_events: u64,
    /// Values that were inserted but never seen again.
    pub lost: u64,
    /// Values that were seen more often than they were inserted.
    pub duplicated: u64,
}

impl StressReport {
    /// `true` iff every inserted value was seen exactly once afterwards.
    pub fn is_conserved(&self) -> bool {
        self.lost == 0 && self.duplicated == 0
    }
}

/// Run `threads` barrier-started workers, merge their private insert/extract
/// logs, drain the structure (bounded by `drain_limit`, because a corrupted
/// structure can contain a cycle) and account every value: inserted versus
/// observed, as multisets.
///
/// `worker(tid)` performs one thread's whole script and returns
/// `(inserted values, extracted values)`; `drain()` pops/dequeues one
/// leftover value.  The report's `aba_events` is left 0 for the caller to
/// fill in from the structure once the run is over.
fn run_conservation(
    name: &str,
    threads: usize,
    ops_per_thread: usize,
    worker: impl Fn(usize) -> (Vec<u32>, Vec<u32>) + Sync,
    mut drain: impl FnMut() -> Option<u32>,
    drain_limit: usize,
) -> StressReport {
    assert!(threads > 0, "need at least one thread");
    let barrier = Barrier::new(threads);
    let per_thread: Vec<(Vec<u32>, Vec<u32>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let barrier = &barrier;
                let worker = &worker;
                s.spawn(move || {
                    barrier.wait();
                    worker(tid)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stress worker panicked"))
            .collect()
    });

    let mut inserted_values: Vec<u32> = Vec::new();
    let mut observed: HashMap<u32, i64> = HashMap::new();
    let mut removed = 0u64;
    for (inserted, extracted) in per_thread {
        inserted_values.extend(inserted);
        removed += extracted.len() as u64;
        for v in extracted {
            *observed.entry(v).or_insert(0) += 1;
        }
    }

    let mut remaining = 0u64;
    while let Some(v) = drain() {
        *observed.entry(v).or_insert(0) += 1;
        remaining += 1;
        if remaining as usize > drain_limit {
            break;
        }
    }

    let mut expected: HashMap<u32, i64> = HashMap::new();
    for v in &inserted_values {
        *expected.entry(*v).or_insert(0) += 1;
    }
    let mut lost = 0u64;
    let mut duplicated = 0u64;
    for (value, want) in &expected {
        let got = observed.get(value).copied().unwrap_or(0);
        if got < *want {
            lost += (*want - got) as u64;
        }
    }
    for (value, got) in &observed {
        let want = expected.get(value).copied().unwrap_or(0);
        if *got > want {
            duplicated += (*got - want) as u64;
        }
    }

    let inserted = inserted_values.len() as u64;
    StressReport {
        structure: name.to_string(),
        threads,
        ops_per_thread,
        inserted,
        pushed: inserted,
        removed,
        remaining,
        aba_events: 0,
        lost,
        duplicated,
    }
}

/// Run `threads` threads, each performing `ops_per_thread` push/pop rounds of
/// unique values, then drain the stack and check conservation.
pub fn stress_stack(stack: &dyn Stack, threads: usize, ops_per_thread: usize) -> StressReport {
    stack_churn(stack, threads, ops_per_thread, |tid| {
        stack.racing_handle(tid)
    })
}

/// [`stress_stack`]'s script over handles opened by `handle(tid)`.
fn stack_churn<'a>(
    stack: &dyn Stack,
    threads: usize,
    ops_per_thread: usize,
    handle: impl Fn(usize) -> Box<dyn StackHandle + 'a> + Sync,
) -> StressReport {
    let mut report = run_conservation(
        stack.name(),
        threads,
        ops_per_thread,
        |tid| {
            let mut handle = handle(tid);
            let mut pushed = Vec::new();
            let mut popped = Vec::new();
            for i in 0..ops_per_thread {
                let value = (tid * ops_per_thread + i) as u32 + 1;
                if handle.push(value) {
                    pushed.push(value);
                } else {
                    // Arena exhausted: hand the core to whoever can drain
                    // (essential on single-core hosts, where a spinning
                    // worker otherwise monopolises the timeslice).
                    std::thread::yield_now();
                }
                // Pop with 50% duty cycle to keep the stack short and the
                // free list hot (recycling pressure).
                if i % 2 == 0 {
                    if let Some(v) = handle.pop() {
                        popped.push(v);
                    }
                }
            }
            (pushed, popped)
        },
        {
            let mut handle = stack.handle(0);
            move || handle.pop()
        },
        stack.capacity() * 4 + 16,
    );
    report.aba_events = stack.aba_events();
    report
}

/// Run `producers` enqueuing threads (disjoint unique values; an enqueue
/// that finds the arena exhausted is simply not counted) against
/// `consumers` dequeuing threads — the consumers are what keeps the free
/// list hot — then drain the queue and check conservation: every enqueued
/// value must come out exactly once.
///
/// The queue must have been built for at least `producers + consumers`
/// threads; thread ids `0..producers` produce and the rest consume.
///
/// # Panics
///
/// Panics if `producers == 0` or `consumers == 0`.
pub fn stress_queue(
    queue: &dyn Queue,
    producers: usize,
    consumers: usize,
    ops_per_thread: usize,
) -> StressReport {
    queue_churn(queue, producers, consumers, ops_per_thread, |tid| {
        queue.racing_handle(tid)
    })
}

/// [`stress_queue`]'s script over handles opened by `handle(tid)`.
fn queue_churn<'a>(
    queue: &dyn Queue,
    producers: usize,
    consumers: usize,
    ops_per_thread: usize,
    handle: impl Fn(usize) -> Box<dyn QueueHandle + 'a> + Sync,
) -> StressReport {
    assert!(producers > 0, "need at least one producer");
    assert!(consumers > 0, "need at least one consumer");
    let mut report = run_conservation(
        queue.name(),
        producers + consumers,
        ops_per_thread,
        |tid| {
            let mut handle = handle(tid);
            if tid < producers {
                let mut enqueued = Vec::new();
                for i in 0..ops_per_thread {
                    let value = (tid * ops_per_thread + i) as u32 + 1;
                    if handle.enqueue(value) {
                        enqueued.push(value);
                    } else {
                        // Arena exhausted: hand the core to a consumer
                        // (essential on single-core hosts, where a spinning
                        // producer otherwise monopolises the timeslice).
                        std::thread::yield_now();
                    }
                }
                (enqueued, Vec::new())
            } else {
                let mut dequeued = Vec::new();
                // Consumers chase the producers: a bounded number of attempts
                // per expected value so the run terminates even when the
                // queue stays empty (or corrupts).
                let budget = 4 * producers * ops_per_thread / consumers + 64;
                for _ in 0..budget {
                    if let Some(v) = handle.dequeue() {
                        dequeued.push(v);
                    } else {
                        // Empty: hand the core to a producer rather than
                        // burning the whole attempt budget in one timeslice.
                        std::thread::yield_now();
                    }
                }
                (Vec::new(), dequeued)
            }
        },
        {
            let mut handle = queue.handle(0);
            move || handle.dequeue()
        },
        queue.capacity() * 4 + 16,
    );
    report.aba_events = queue.aba_events();
    report
}

/// One operation of the keyed families' (set, map) churn script.
enum KeyOp {
    Insert(u32),
    Remove(u32),
}

/// The churn script and drain the set and map harnesses share: each thread
/// inserts a disjoint range of keys and removes its own earlier insertions
/// with a 50% duty cycle; the drain then sweeps the whole key range.
/// `handle(tid)` opens a per-thread handle and `apply` performs one
/// [`KeyOp`] on it, reporting whether it took effect.
///
/// Key ranges are disjoint per thread, so a *failed* remove of an own key is
/// a key some ABA already lost, and a key seen twice (removed *and* drained,
/// or drained twice off a corrupted chain) is a duplication — the same
/// multiset accounting as the stack and queue harnesses, via the shared
/// [`run_conservation`] driver.
fn stress_keyed<H>(
    name: &str,
    capacity: usize,
    threads: usize,
    ops_per_thread: usize,
    handle: impl Fn(usize) -> H + Sync,
    apply: impl Fn(&mut H, KeyOp) -> bool + Sync,
) -> StressReport {
    run_conservation(
        name,
        threads,
        ops_per_thread,
        |tid| {
            let mut handle = handle(tid);
            let mut inserted = Vec::new();
            let mut removed = Vec::new();
            let mut live: Vec<u32> = Vec::new();
            for i in 0..ops_per_thread {
                let key = (tid * ops_per_thread + i) as u32 + 1;
                if apply(&mut handle, KeyOp::Insert(key)) {
                    inserted.push(key);
                    live.push(key);
                } else {
                    // Arena exhausted: hand the core to whoever can remove
                    // (essential on single-core hosts, where a spinning
                    // worker otherwise monopolises the timeslice).
                    std::thread::yield_now();
                }
                // Remove an own earlier key with 50% duty cycle to keep the
                // chains short and the free list hot (recycling pressure).
                if i % 2 == 0 {
                    if let Some(key) = live.pop() {
                        if apply(&mut handle, KeyOp::Remove(key)) {
                            removed.push(key);
                        }
                        // A failed remove of an own key: the key was lost
                        // (nobody else ever removes it) — exactly what the
                        // conservation accounting charges as `lost`.
                    }
                }
            }
            (inserted, removed)
        },
        {
            // Drain by sweeping the whole (disjoint, known) key range: each
            // call removes the next key still present.  A budget-bailing
            // remove on a corrupted chain returns `false` and the sweep
            // moves on, so the drain terminates even on a cycle.
            let mut handle = handle(0);
            let mut candidates = 1..=(threads * ops_per_thread) as u32;
            let apply = &apply;
            move || {
                candidates
                    .by_ref()
                    .find(|&key| apply(&mut handle, KeyOp::Remove(key)))
            }
        },
        capacity * 4 + 16,
    )
}

/// Run the keyed churn (`stress_keyed`) on a set and check membership
/// conservation: every key that went in must come out (by its inserter or
/// the drain) exactly once.
pub fn stress_set(set: &dyn Set, threads: usize, ops_per_thread: usize) -> StressReport {
    set_churn(set, threads, ops_per_thread, |tid| set.racing_handle(tid))
}

/// [`stress_set`]'s script over handles opened by `handle(tid)`.
fn set_churn<'a>(
    set: &dyn Set,
    threads: usize,
    ops_per_thread: usize,
    handle: impl Fn(usize) -> Box<dyn SetHandle + 'a> + Sync,
) -> StressReport {
    let mut report = stress_keyed(
        set.name(),
        set.capacity(),
        threads,
        ops_per_thread,
        handle,
        |handle, op| match op {
            KeyOp::Insert(key) => handle.insert(key),
            KeyOp::Remove(key) => handle.remove(key),
        },
    );
    report.aba_events = set.aba_events();
    report
}

/// Run the keyed churn (`stress_keyed`) on a map — each key bound to a
/// value derived from it, so a value swap would surface as a lookup mismatch
/// in the map's own tests — and check key conservation.  The churn doubles
/// as the growth workload: the map's arena starts small and must publish
/// segments to keep up.
pub fn stress_map(map: &dyn Map, threads: usize, ops_per_thread: usize) -> StressReport {
    map_churn(map, threads, ops_per_thread, |tid| map.racing_handle(tid))
}

/// [`stress_map`]'s script over handles opened by `handle(tid)`.
fn map_churn<'a>(
    map: &dyn Map,
    threads: usize,
    ops_per_thread: usize,
    handle: impl Fn(usize) -> Box<dyn MapHandle + 'a> + Sync,
) -> StressReport {
    let mut report = stress_keyed(
        map.name(),
        map.capacity(),
        threads,
        ops_per_thread,
        handle,
        |handle, op| match op {
            KeyOp::Insert(key) => handle.insert(key, key ^ 0x5A5A_5A5A),
            KeyOp::Remove(key) => handle.remove(key),
        },
    );
    report.aba_events = map.aba_events();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{EpochStack, HazardStack, LlScStack, TaggedStack, UnprotectedStack};

    const THREADS: usize = 4;
    const OPS: usize = 3_000;
    const CAPACITY: usize = 8; // small arena => aggressive recycling

    #[test]
    fn tagged_stack_conserves_values() {
        let stack = TaggedStack::with_threads(conservation_capacity(CAPACITY, THREADS), 1);
        let report = stress_stack(&stack, THREADS, OPS);
        assert!(report.is_conserved(), "{report:?}");
        assert_eq!(report.aba_events, 0);
    }

    #[test]
    fn hazard_stack_conserves_values() {
        let stack = HazardStack::with_threads(conservation_capacity(CAPACITY, THREADS), THREADS);
        let report = stress_stack(&stack, THREADS, OPS);
        assert!(report.is_conserved(), "{report:?}");
    }

    #[test]
    fn epoch_stack_conserves_values() {
        let stack = EpochStack::with_threads(conservation_capacity(CAPACITY, THREADS), THREADS);
        let report = stress_stack(&stack, THREADS, OPS);
        assert!(report.is_conserved(), "{report:?}");
        assert_eq!(report.aba_events, 0);
    }

    #[test]
    fn llsc_stack_conserves_values() {
        let stack = LlScStack::with_threads(conservation_capacity(CAPACITY, THREADS), THREADS);
        let report = stress_stack(&stack, THREADS, OPS);
        assert!(report.is_conserved(), "{report:?}");
    }

    /// Rounds per thread of the window-free conservation tests: without the
    /// yields a round is tens of nanoseconds, so only a long run makes the
    /// two threads overlap at all.
    const WINDOW_FREE_OPS: usize = 100_000;

    #[test]
    fn protected_stacks_conserve_values_through_production_handles() {
        // The harness attacks through racing handles; the workload engine
        // runs its contended stack, queue and set cells through production
        // handles, and every production caller shares a structure that way.
        // This test and its three siblings below are the conservation
        // check of those window-free interleavings, two threads on one
        // structure.  `skip(1)`: the unprotected variant heads the roster.
        const THREADS: usize = 2;
        for stack in crate::all_stacks(conservation_capacity(CAPACITY, THREADS), THREADS)
            .into_iter()
            .skip(1)
        {
            let report = stack_churn(&*stack, THREADS, WINDOW_FREE_OPS, |tid| stack.handle(tid));
            assert!(report.is_conserved(), "{report:?}");
            assert_eq!(report.aba_events, 0, "{}", stack.name());
        }
    }

    #[test]
    fn protected_queues_conserve_values_through_production_handles() {
        // One producer against one consumer, the window-free sibling of
        // the stack test above.
        for queue in crate::all_queues(conservation_capacity(CAPACITY, 2), 2)
            .into_iter()
            .skip(1)
        {
            let report = queue_churn(&*queue, 1, 1, WINDOW_FREE_OPS, |tid| queue.handle(tid));
            assert!(report.is_conserved(), "{report:?}");
            assert_eq!(report.aba_events, 0, "{}", queue.name());
        }
    }

    #[test]
    fn protected_sets_conserve_membership_through_production_handles() {
        const THREADS: usize = 2;
        for set in crate::all_sets(conservation_capacity(CAPACITY, THREADS), THREADS)
            .into_iter()
            .skip(1)
        {
            let report = set_churn(&*set, THREADS, WINDOW_FREE_OPS, |tid| set.handle(tid));
            assert!(report.is_conserved(), "{report:?}");
            assert_eq!(report.aba_events, 0, "{}", set.name());
        }
    }

    #[test]
    fn protected_maps_conserve_keys_through_production_handles() {
        const THREADS: usize = 2;
        for map in crate::all_maps(conservation_capacity(CAPACITY, THREADS), THREADS)
            .into_iter()
            .skip(1)
        {
            let report = map_churn(&*map, THREADS, WINDOW_FREE_OPS, |tid| map.handle(tid));
            assert!(report.is_conserved(), "{report:?}");
            assert_eq!(report.aba_events, 0, "{}", map.name());
        }
    }

    #[test]
    fn elim_stacks_conserve_values_under_forced_collisions() {
        // An elimination-eager policy (divert after a single failed CAS,
        // generous park) routes a meaningful share of the traffic through
        // the exchange slots; conservation then covers the exchange path,
        // not just the central-stack fallback.
        use crate::stack::{ElimPolicy, ElimStack};
        let policy = ElimPolicy {
            central_attempts: 1,
            exchange_spins: 16,
        };
        let capacity = conservation_capacity(CAPACITY, THREADS);
        let mut exchanges_total = 0;
        let stacks: Vec<Box<dyn Stack>> = vec![
            Box::new(ElimStack::<aba_reclaim::TagReclaim>::with_policy(
                capacity, THREADS, policy,
            )),
            Box::new(ElimStack::<aba_reclaim::HazardReclaim>::with_policy(
                capacity, THREADS, policy,
            )),
            Box::new(ElimStack::<aba_reclaim::EpochReclaim>::with_policy(
                capacity, THREADS, policy,
            )),
            Box::new(ElimStack::<aba_reclaim::LlScReclaim>::with_policy(
                capacity, THREADS, policy,
            )),
        ];
        for stack in &stacks {
            let report = stress_stack(stack.as_ref(), THREADS, OPS);
            assert!(report.is_conserved(), "{report:?}");
            assert_eq!(report.aba_events, 0, "{}", stack.name());
        }
        drop(stacks);
        // The exchange path must actually fire.  Under a stress run the
        // collision rate is scheduler-dependent (a single-core box can
        // serialize the threads right past each other), so the probe pins it
        // deterministically: with `central_attempts: 0` the central stack is
        // unreachable and a push can only complete by meeting a pop in a
        // slot.
        let stack = ElimStack::<aba_reclaim::TagReclaim>::with_policy(
            capacity,
            2,
            ElimPolicy {
                central_attempts: 0,
                exchange_spins: 64,
            },
        );
        std::thread::scope(|s| {
            let stack = &stack;
            s.spawn(move || {
                let mut h = stack.racing_handle(0);
                for i in 0..32u32 {
                    assert!(h.push(i));
                }
            });
            s.spawn(move || {
                let mut h = stack.racing_handle(1);
                let mut got = 0;
                while got < 32 {
                    if h.pop().is_some() {
                        got += 1;
                    }
                }
            });
        });
        exchanges_total += stack.exchanges();
        assert_eq!(
            exchanges_total, 32,
            "central stack disabled, so every op must have exchanged"
        );
    }

    #[test]
    fn unprotected_stack_exhibits_aba_under_pressure() {
        // The ABA is a race, so retry a few rounds; with a tiny arena and
        // thousands of operations it shows up essentially immediately on any
        // multi-core machine.
        let mut total_events = 0u64;
        let mut total_anomalies = 0u64;
        for _ in 0..8 {
            let stack = UnprotectedStack::with_threads(CAPACITY, 1);
            let report = stress_stack(&stack, THREADS, OPS);
            total_events += report.aba_events;
            total_anomalies += report.lost + report.duplicated;
            if total_events > 0 {
                break;
            }
        }
        assert!(
            total_events > 0 || total_anomalies > 0,
            "expected at least one ABA event or conservation anomaly"
        );
    }

    #[test]
    fn single_threaded_stress_is_always_clean_even_unprotected() {
        let stack = UnprotectedStack::with_threads(CAPACITY, 1);
        let report = stress_stack(&stack, 1, 2_000);
        assert!(report.is_conserved(), "{report:?}");
        assert_eq!(report.aba_events, 0);
    }

    // ------------------------------------------------------------------
    // Queue conservation (experiment E8)
    // ------------------------------------------------------------------

    use crate::queue::{EpochQueue, HazardQueue, LlScQueue, TaggedQueue, UnprotectedQueue};

    const PRODUCERS: usize = 2;
    const CONSUMERS: usize = 2;
    const QUEUE_THREADS: usize = PRODUCERS + CONSUMERS;

    #[test]
    fn tagged_queue_conserves_values() {
        let queue = TaggedQueue::with_threads(conservation_capacity(CAPACITY, QUEUE_THREADS), 1);
        let report = stress_queue(&queue, PRODUCERS, CONSUMERS, OPS);
        assert!(report.is_conserved(), "{report:?}");
        assert_eq!(report.aba_events, 0);
    }

    #[test]
    fn hazard_queue_conserves_values() {
        let queue = HazardQueue::with_threads(
            conservation_capacity(CAPACITY, QUEUE_THREADS),
            QUEUE_THREADS,
        );
        let report = stress_queue(&queue, PRODUCERS, CONSUMERS, OPS);
        assert!(report.is_conserved(), "{report:?}");
    }

    #[test]
    fn epoch_queue_conserves_values() {
        let queue = EpochQueue::with_threads(
            conservation_capacity(CAPACITY, QUEUE_THREADS),
            QUEUE_THREADS,
        );
        let report = stress_queue(&queue, PRODUCERS, CONSUMERS, OPS);
        assert!(report.is_conserved(), "{report:?}");
        assert_eq!(report.aba_events, 0);
    }

    #[test]
    fn llsc_queue_conserves_values() {
        let queue = LlScQueue::with_threads(
            conservation_capacity(CAPACITY, QUEUE_THREADS),
            QUEUE_THREADS,
        );
        let report = stress_queue(&queue, PRODUCERS, CONSUMERS, OPS);
        assert!(report.is_conserved(), "{report:?}");
    }

    #[test]
    fn unprotected_queue_exhibits_aba_under_pressure() {
        // The ABA is a race, so retry a few rounds; with a tiny arena and
        // thousands of operations it shows up essentially immediately on any
        // multi-core machine.  Lost/duplicated values and detected ABA events
        // both count — either quantifies the damage.
        let mut total_events = 0u64;
        let mut total_anomalies = 0u64;
        for _ in 0..8 {
            let queue = UnprotectedQueue::with_threads(CAPACITY, 1);
            let report = stress_queue(&queue, PRODUCERS, CONSUMERS, OPS);
            total_events += report.aba_events;
            total_anomalies += report.lost + report.duplicated;
            if total_events > 0 {
                break;
            }
        }
        assert!(
            total_events > 0 || total_anomalies > 0,
            "expected at least one ABA event or conservation anomaly"
        );
    }

    #[test]
    fn single_producer_single_consumer_is_clean_even_unprotected() {
        // With one consumer there is no concurrent dequeuer to recycle the
        // dummy out from under a dequeue in progress, so even the
        // unprotected variant conserves values.
        let queue = UnprotectedQueue::with_threads(CAPACITY, 1);
        let report = stress_queue(&queue, 1, 1, 2_000);
        assert!(report.is_conserved(), "{report:?}");
        assert_eq!(report.aba_events, 0);
    }

    // ------------------------------------------------------------------
    // Set membership conservation (experiment E10)
    // ------------------------------------------------------------------

    use crate::set::{EpochSet, HazardSet, LlScSet, TaggedSet, UnprotectedSet};

    #[test]
    fn tagged_set_conserves_membership() {
        let set = TaggedSet::with_threads(conservation_capacity(CAPACITY, THREADS), 1);
        let report = stress_set(&set, THREADS, OPS);
        assert!(report.is_conserved(), "{report:?}");
        assert_eq!(report.aba_events, 0);
    }

    #[test]
    fn hazard_set_conserves_membership() {
        let set = HazardSet::with_threads(conservation_capacity(CAPACITY, THREADS), THREADS);
        let report = stress_set(&set, THREADS, OPS);
        assert!(report.is_conserved(), "{report:?}");
    }

    #[test]
    fn epoch_set_conserves_membership() {
        let set = EpochSet::with_threads(conservation_capacity(CAPACITY, THREADS), THREADS);
        let report = stress_set(&set, THREADS, OPS);
        assert!(report.is_conserved(), "{report:?}");
        assert_eq!(report.aba_events, 0);
    }

    #[test]
    fn llsc_set_conserves_membership() {
        let set = LlScSet::with_threads(conservation_capacity(CAPACITY, THREADS), THREADS);
        let report = stress_set(&set, THREADS, OPS);
        assert!(report.is_conserved(), "{report:?}");
    }

    #[test]
    fn unprotected_set_exhibits_aba_under_pressure() {
        // The ABA is a race, so retry a few rounds; a tiny arena keeps the
        // recycling (and therefore the lost-unlink window) hot.  Lost keys
        // and detected events both count — either quantifies the damage.
        let mut total_events = 0u64;
        let mut total_anomalies = 0u64;
        for _ in 0..8 {
            let set = UnprotectedSet::with_threads(CAPACITY, 1);
            let report = stress_set(&set, THREADS, OPS);
            total_events += report.aba_events;
            total_anomalies += report.lost + report.duplicated;
            if total_events > 0 {
                break;
            }
        }
        assert!(
            total_events > 0 || total_anomalies > 0,
            "expected at least one ABA event or conservation anomaly"
        );
    }

    #[test]
    fn single_threaded_set_stress_is_always_clean_even_unprotected() {
        let set = UnprotectedSet::with_threads(CAPACITY, 1);
        let report = stress_set(&set, 1, 2_000);
        assert!(report.is_conserved(), "{report:?}");
        assert_eq!(report.aba_events, 0);
    }

    #[test]
    fn set_stress_leaves_no_limbo_after_the_drain_handle_drops() {
        let set = HazardSet::with_threads(conservation_capacity(CAPACITY, THREADS), THREADS);
        let report = stress_set(&set, THREADS, 500);
        assert!(report.is_conserved(), "{report:?}");
        assert_eq!(set.unreclaimed(), 0);
    }

    #[test]
    fn deferred_schemes_leave_no_limbo_after_the_drain_handle_drops() {
        // The shared driver's drain handle applies allocation pressure on
        // drop; with all workers quiesced, every retired node must be home.
        let stack = EpochStack::with_threads(conservation_capacity(CAPACITY, THREADS), THREADS);
        let report = stress_stack(&stack, THREADS, 500);
        assert!(report.is_conserved(), "{report:?}");
        assert_eq!(stack.unreclaimed(), 0);

        let queue = HazardQueue::with_threads(
            conservation_capacity(CAPACITY, QUEUE_THREADS),
            QUEUE_THREADS,
        );
        let report = stress_queue(&queue, PRODUCERS, CONSUMERS, 500);
        assert!(report.is_conserved(), "{report:?}");
        assert_eq!(queue.unreclaimed(), 0);
    }

    // ------------------------------------------------------------------
    // Map key conservation (experiment E13)
    // ------------------------------------------------------------------

    use crate::map::{EpochMap, HazardMap, LlScMap, TaggedMap, UnprotectedMap};

    #[test]
    fn tagged_map_conserves_keys() {
        let map = TaggedMap::with_threads(conservation_capacity(CAPACITY, THREADS), 1);
        let report = stress_map(&map, THREADS, OPS);
        assert!(report.is_conserved(), "{report:?}");
        assert_eq!(report.aba_events, 0);
    }

    #[test]
    fn hazard_map_conserves_keys() {
        let map = HazardMap::with_threads(conservation_capacity(CAPACITY, THREADS), THREADS);
        let report = stress_map(&map, THREADS, OPS);
        assert!(report.is_conserved(), "{report:?}");
    }

    #[test]
    fn epoch_map_conserves_keys() {
        let map = EpochMap::with_threads(conservation_capacity(CAPACITY, THREADS), THREADS);
        let report = stress_map(&map, THREADS, OPS);
        assert!(report.is_conserved(), "{report:?}");
        assert_eq!(report.aba_events, 0);
    }

    #[test]
    fn llsc_map_conserves_keys() {
        let map = LlScMap::with_threads(conservation_capacity(CAPACITY, THREADS), THREADS);
        let report = stress_map(&map, THREADS, OPS);
        assert!(report.is_conserved(), "{report:?}");
    }

    #[test]
    fn map_stress_grows_the_arena_under_churn() {
        // The growth pin under real concurrency: the map's arena starts
        // small, so a conserving stress run must have published segments.
        let map = HazardMap::with_threads(conservation_capacity(CAPACITY, THREADS), THREADS);
        let report = stress_map(&map, THREADS, 500);
        assert!(report.is_conserved(), "{report:?}");
        assert!(
            map.arena_live_capacity() > map.arena_initial_capacity(),
            "churn must publish beyond the initial segment (live {}, initial {})",
            map.arena_live_capacity(),
            map.arena_initial_capacity()
        );
    }

    #[test]
    fn single_threaded_map_stress_is_always_clean_even_unprotected() {
        let map = UnprotectedMap::with_threads(CAPACITY, 1);
        let report = stress_map(&map, 1, 2_000);
        assert!(report.is_conserved(), "{report:?}");
        assert_eq!(report.aba_events, 0);
    }
}
