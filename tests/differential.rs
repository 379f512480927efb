//! Differential testing: seeded random op sequences replayed against every
//! registered backend versus its `aba-spec` sequential model.
//!
//! Each property generates a random operation script, then replays it — one
//! thread, one handle — on *every* variant in the family's builder registry
//! (`stack_builders` / `queue_builders` / `set_builders` / `map_builders`),
//! comparing each operation's result with the obviously-correct sequential
//! model (`Vec`, `VecDeque`, [`SeqOrderedSet`], [`SeqMap`]).  Single-threaded, every variant
//! including the unprotected one must agree exactly: a divergence is a
//! *logic* bug in the structure or a scheme's word encoding, not a race.
//!
//! The vendored `proptest` shim reports failures without minimising them,
//! so this harness shrinks on its own: on divergence it reuses
//! `aba_sim::minimize_violation_schedule` (greedy chunk deletion, halving
//! down to single operations) on the op script and reports the resulting
//! 1-minimal failing sequence.  Arena capacity exceeds every script length,
//! so allocation can never fail and cloud the comparison.

use std::collections::VecDeque;
use std::fmt::Debug;

use aba_repro::lockfree::{
    elim_stack_builders, map_builders, queue_builders, set_builders, stack_builders, Family,
    MapHandle, QueueHandle, Scheme, SetHandle, StackHandle, Structure,
};
use aba_repro::sim::minimize_violation_schedule as shrink_ops;
use aba_repro::spec::{SeqMap, SeqOrderedSet};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Backend capacity: strictly more nodes than any generated script has
/// operations, so arena exhaustion cannot produce a false divergence.
const CAPACITY: usize = 96;

/// Generated scripts stay below [`CAPACITY`] operations.
const MAX_OPS: usize = 64;

/// Set keys are folded onto a small domain so duplicate inserts, absent
/// removes and both `contains` answers all appear in most scripts.
const KEY_DOMAIN: u32 = 12;

/// What one operation returned, uniformly across families: an `Option<u32>`
/// as is, a `bool` as `Some(0)` / `Some(1)`.
type Outcome = Option<u32>;

fn flag(ok: bool) -> Outcome {
    Some(u32::from(ok))
}

/// First op where backend `name`'s outcomes part from the model's, if any.
fn divergence<Op: Debug>(
    name: &str,
    ops: &[Op],
    got: &[Outcome],
    want: &[Outcome],
) -> Option<String> {
    let i = (0..ops.len()).find(|&i| got[i] != want[i])?;
    Some(format!(
        "{name}: op {i} {:?} -> {:?}, model {:?}",
        ops[i], got[i], want[i]
    ))
}

// ---------------------------------------------------------------------------
// Stack family vs Vec
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StackOp {
    Push(u32),
    Pop,
}

fn stack_op() -> impl Strategy<Value = StackOp> {
    prop_oneof![
        (0..1000u32).prop_map(StackOp::Push),
        (0..1usize).prop_map(|_| StackOp::Pop),
    ]
}

fn replay_stack(handle: &mut dyn StackHandle, ops: &[StackOp]) -> Vec<Outcome> {
    ops.iter()
        .map(|&op| match op {
            StackOp::Push(v) => flag(handle.push(v)),
            StackOp::Pop => handle.pop(),
        })
        .collect()
}

/// First `backend: op index, detail` where a stack backend disagrees with
/// the `Vec` model, if any.
fn stack_divergence(ops: &[StackOp]) -> Option<String> {
    let mut model: Vec<u32> = Vec::new();
    let want: Vec<Outcome> = ops
        .iter()
        .map(|&op| match op {
            StackOp::Push(v) => {
                model.push(v);
                flag(true)
            }
            StackOp::Pop => model.pop(),
        })
        .collect();
    // The elimination variants join the plain roster: single-threaded there
    // is never a partner to exchange with, so every parked value must time
    // out back to the central stack and the replay must still agree exactly.
    stack_builders()
        .into_iter()
        .chain(elim_stack_builders())
        .find_map(|(name, build)| {
            let stack = build(CAPACITY, 1);
            let got = replay_stack(&mut *stack.handle(0), ops);
            divergence(name, ops, &got, &want)
        })
}

// ---------------------------------------------------------------------------
// Queue family vs VecDeque
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueOp {
    Enqueue(u32),
    Dequeue,
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        (0..1000u32).prop_map(QueueOp::Enqueue),
        (0..1usize).prop_map(|_| QueueOp::Dequeue),
    ]
}

fn replay_queue(handle: &mut dyn QueueHandle, ops: &[QueueOp]) -> Vec<Outcome> {
    ops.iter()
        .map(|&op| match op {
            QueueOp::Enqueue(v) => flag(handle.enqueue(v)),
            QueueOp::Dequeue => handle.dequeue(),
        })
        .collect()
}

fn queue_divergence(ops: &[QueueOp]) -> Option<String> {
    let mut model: VecDeque<u32> = VecDeque::new();
    let want: Vec<Outcome> = ops
        .iter()
        .map(|&op| match op {
            QueueOp::Enqueue(v) => {
                model.push_back(v);
                flag(true)
            }
            QueueOp::Dequeue => model.pop_front(),
        })
        .collect();
    queue_builders().into_iter().find_map(|(name, build)| {
        let queue = build(CAPACITY, 1);
        let got = replay_queue(&mut *queue.handle(0), ops);
        divergence(name, ops, &got, &want)
    })
}

// ---------------------------------------------------------------------------
// Set family vs SeqOrderedSet
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetOp {
    Insert(u32),
    Remove(u32),
    Contains(u32),
}

fn set_op() -> impl Strategy<Value = SetOp> {
    prop_oneof![
        (0..KEY_DOMAIN).prop_map(SetOp::Insert),
        (0..KEY_DOMAIN).prop_map(SetOp::Remove),
        (0..KEY_DOMAIN).prop_map(SetOp::Contains),
    ]
}

fn replay_set(handle: &mut dyn SetHandle, ops: &[SetOp]) -> Vec<Outcome> {
    ops.iter()
        .map(|&op| match op {
            SetOp::Insert(k) => flag(handle.insert(k)),
            SetOp::Remove(k) => flag(handle.remove(k)),
            SetOp::Contains(k) => flag(handle.contains(k)),
        })
        .collect()
}

fn set_divergence(ops: &[SetOp]) -> Option<String> {
    let mut model = SeqOrderedSet::new();
    let want: Vec<Outcome> = ops
        .iter()
        .map(|&op| match op {
            SetOp::Insert(k) => flag(model.insert(k)),
            SetOp::Remove(k) => flag(model.remove(k)),
            SetOp::Contains(k) => flag(model.contains(k)),
        })
        .collect();
    set_builders().into_iter().find_map(|(name, build)| {
        let set = build(CAPACITY, 1);
        let got = replay_set(&mut *set.handle(0), ops);
        divergence(name, ops, &got, &want)
    })
}

// ---------------------------------------------------------------------------
// Map family vs SeqMap
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MapOp {
    Insert(u32, u32),
    Remove(u32),
    Get(u32),
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (0..KEY_DOMAIN, 0..1000u32).prop_map(|(k, v)| MapOp::Insert(k, v)),
        (0..KEY_DOMAIN).prop_map(MapOp::Remove),
        (0..KEY_DOMAIN).prop_map(MapOp::Get),
    ]
}

fn replay_map(handle: &mut dyn MapHandle, ops: &[MapOp]) -> Vec<Outcome> {
    ops.iter()
        .map(|&op| match op {
            MapOp::Insert(k, v) => flag(handle.insert(k, v)),
            MapOp::Remove(k) => flag(handle.remove(k)),
            MapOp::Get(k) => handle.get(k),
        })
        .collect()
}

fn map_divergence(ops: &[MapOp]) -> Option<String> {
    let mut model = SeqMap::new();
    let want: Vec<Outcome> = ops
        .iter()
        .map(|&op| match op {
            MapOp::Insert(k, v) => flag(model.insert(k, v)),
            MapOp::Remove(k) => flag(model.remove(k)),
            MapOp::Get(k) => model.get(k),
        })
        .collect();
    map_builders().into_iter().find_map(|(name, build)| {
        let map = build(CAPACITY, 1);
        let got = replay_map(&mut *map.handle(0), ops);
        divergence(name, ops, &got, &want)
    })
}

// ---------------------------------------------------------------------------
// The properties
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn stack_backends_match_the_vec_model(
        ops in proptest::collection::vec(stack_op(), 1..MAX_OPS)
    ) {
        if let Some(detail) = stack_divergence(&ops) {
            let minimal = shrink_ops(&ops, |o| stack_divergence(o).is_some());
            let detail = stack_divergence(&minimal).unwrap_or(detail);
            prop_assert!(false, "{} — minimal failing script: {:?}", detail, minimal);
        }
    }

    #[test]
    fn queue_backends_match_the_deque_model(
        ops in proptest::collection::vec(queue_op(), 1..MAX_OPS)
    ) {
        if let Some(detail) = queue_divergence(&ops) {
            let minimal = shrink_ops(&ops, |o| queue_divergence(o).is_some());
            let detail = queue_divergence(&minimal).unwrap_or(detail);
            prop_assert!(false, "{} — minimal failing script: {:?}", detail, minimal);
        }
    }

    #[test]
    fn set_backends_match_the_ordered_set_model(
        ops in proptest::collection::vec(set_op(), 1..MAX_OPS)
    ) {
        if let Some(detail) = set_divergence(&ops) {
            let minimal = shrink_ops(&ops, |o| set_divergence(o).is_some());
            let detail = set_divergence(&minimal).unwrap_or(detail);
            prop_assert!(false, "{} — minimal failing script: {:?}", detail, minimal);
        }
    }

    #[test]
    fn map_backends_match_the_seq_map_model(
        ops in proptest::collection::vec(map_op(), 1..MAX_OPS)
    ) {
        if let Some(detail) = map_divergence(&ops) {
            let minimal = shrink_ops(&ops, |o| map_divergence(o).is_some());
            let detail = map_divergence(&minimal).unwrap_or(detail);
            prop_assert!(false, "{} — minimal failing script: {:?}", detail, minimal);
        }
    }
}

// ---------------------------------------------------------------------------
// The shrinker itself
// ---------------------------------------------------------------------------

#[test]
fn shrinker_reduces_to_the_failing_core() {
    // Transparent oracle: a script "fails" iff it removes key 3 after
    // inserting it; everything else is noise the shrinker must discard.
    let noisy = vec![
        SetOp::Contains(1),
        SetOp::Insert(2),
        SetOp::Insert(3),
        SetOp::Contains(2),
        SetOp::Remove(3),
        SetOp::Insert(5),
        SetOp::Contains(5),
    ];
    let fails = |ops: &[SetOp]| {
        let mut inserted = false;
        for op in ops {
            match op {
                SetOp::Insert(3) => inserted = true,
                SetOp::Remove(3) if inserted => return true,
                _ => {}
            }
        }
        false
    };
    assert!(fails(&noisy));
    let minimal = shrink_ops(&noisy, fails);
    assert_eq!(minimal, vec![SetOp::Insert(3), SetOp::Remove(3)]);
}

/// A deliberately broken "backend" shape — the model itself with one key
/// inverted — proving the differential comparison actually rejects wrong
/// answers (the proptest shim's fixed seed would otherwise let a vacuous
/// harness pass forever).
#[test]
fn divergence_detector_is_not_vacuous() {
    let ops = [SetOp::Insert(3), SetOp::Contains(3)];
    // All real backends agree on this script …
    assert!(set_divergence(&ops).is_none());
    // … and the stack/queue/map detectors agree on theirs.
    assert!(stack_divergence(&[StackOp::Push(1), StackOp::Pop]).is_none());
    assert!(queue_divergence(&[QueueOp::Enqueue(1), QueueOp::Dequeue]).is_none());
    assert!(map_divergence(&[
        MapOp::Insert(3, 30),
        MapOp::Insert(3, 99), // duplicate: must fail and keep the 30 binding
        MapOp::Get(3),
        MapOp::Remove(3),
        MapOp::Get(3),
    ])
    .is_none());
}

// ---------------------------------------------------------------------------
// handle() and racing_handle() are one structure
// ---------------------------------------------------------------------------

/// What a script leaves behind: every outcome, the ABA events detected and
/// the limbo footprint, read while the replay handle is still open.
type Observed = (Vec<Outcome>, u64, u64);

/// Replay the family's script on a fresh `(family, scheme)` structure
/// through the production handle or the racing one.
fn observe(
    family: Family,
    scheme: Scheme,
    racing: bool,
    (stack_ops, queue_ops, set_ops, map_ops): &(Vec<StackOp>, Vec<QueueOp>, Vec<SetOp>, Vec<MapOp>),
) -> Observed {
    macro_rules! replay {
        ($structure:ident, $replay:ident, $ops:ident) => {{
            let mut handle = if racing {
                $structure.racing_handle(0)
            } else {
                $structure.handle(0)
            };
            let outcomes = $replay(&mut *handle, $ops);
            (outcomes, $structure.aba_events(), $structure.unreclaimed())
        }};
    }
    match family.build(scheme, CAPACITY, 1) {
        Structure::Stack(stack) => replay!(stack, replay_stack, stack_ops),
        Structure::Queue(queue) => replay!(queue, replay_queue, queue_ops),
        Structure::Set(set) => replay!(set, replay_set, set_ops),
        Structure::Map(map) => replay!(map, replay_map, map_ops),
    }
}

/// The preemption window is a scheduling point and nothing else: the scripts
/// the properties above generate, replayed through `handle()` and through
/// `racing_handle()` on every `Family × Scheme` pair, return the same
/// outcomes, detect no ABA and park the same number of nodes in limbo.
#[test]
fn both_handle_kinds_are_the_same_structure() {
    let mut rng = TestRng::deterministic();
    let scripts = (
        proptest::collection::vec(stack_op(), 1..MAX_OPS),
        proptest::collection::vec(queue_op(), 1..MAX_OPS),
        proptest::collection::vec(set_op(), 1..MAX_OPS),
        proptest::collection::vec(map_op(), 1..MAX_OPS),
    );
    for _ in 0..32 {
        let scripts = scripts.generate(&mut rng);
        for family in Family::ALL {
            for scheme in Scheme::ALL {
                let production = observe(family, scheme, false, &scripts);
                let racing = observe(family, scheme, true, &scripts);
                let key = family.key(scheme);
                assert_eq!(production, racing, "{key}: the handle kinds disagree");
                assert_eq!(production.1, 0, "{key}: a sequential script saw an ABA");
            }
        }
    }
}
