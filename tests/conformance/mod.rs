//! The conformance table: every paper object and every `Family × Scheme`
//! structure cell, driven on its hardware by single-threaded operation
//! scripts and held to three things.
//!
//! * **The spec.** Every hardware history goes through
//!   `aba_spec::check_history` with the row's `Spec`; a script's history is
//!   totally ordered, so the checker decides it at any length.
//!   `register/naive`, the introduction's value-comparing strawman, must be
//!   rejected: that rejection is the table's own proof that the check bites.
//!   A structure's script runs on an arena it cannot exhaust, so beyond the
//!   spec (which lets any insert fail, as a concurrent history cannot tell a
//!   duplicate key from an exhausted arena) nothing may fail for want of a
//!   node: every push and enqueue succeeds, an insert fails exactly when its
//!   key is bound, and the structure counts no failed allocation and no ABA
//!   event.
//! * **The simulator twin.** A row with a model runs the same script on it
//!   one operation at a time; every answer must be the hardware's, and for
//!   the paper's objects so must the shared-memory steps of every operation
//!   (`Simulation::last_op_steps` against the handle's `last_op_steps`).
//!   `Guard` has no step counter yet (ROADMAP item 2), so structure rows
//!   compare answers only.
//! * **Both handle kinds.** A structure cell's script replayed through
//!   `racing_handle` must leave the production handle's run: the preemption
//!   window is a scheduling point and nothing else, so the answers, the
//!   counters and the limbo left behind are the same (`same_structure`).
//!
//! The simulator *proves* small-bound properties of the models it runs; a
//! proof about a model that has drifted from the code is worth nothing, and
//! this table is the behavioural tie between the two sides.  (The key tie
//! holds by construction: `MODEL_ROSTER` derives its structure rows, keys
//! included, from the same `shipped_model` pairing the twins come from.)
//! The paper rows are listed: the two register rows of `MODEL_ROSTER` and
//! the seven constructions the roster does not explore (`Fig3Sim`,
//! `Fig4Sim`, `AnnounceSim`, `MoirSim` and `Fig5Sim` over Figure 3,
//! Announce and Moir).  The structure rows are derived from `Family::ALL ×
//! Scheme::ALL`; a cell's twin is `aba_sim::algorithms::shipped_model` of
//! the cell at `(N, ARENA)` where the simulator encodes it (the stack, queue
//! and set under the four schemes it runs), and the other cells (every
//! `*/llsc` cell, the map and the elimination stack) are hardware-only.
//! Only `register/naive` is a hand-written model: every other twin runs the
//! code its hardware runs, written once over `aba_core::mem::Mem` or
//! `aba_lockfree::mem::NodeMem`, so those rows bind the two *memories* —
//! the atomics and the simulator's replay log — not two texts.
//!
//! Each family's deterministic script runs on every row of the family, twin
//! included, its operations spread over `N` processes.  Seeded random
//! scripts run on the hardware of every structure cell, all through process
//! 0 of a one-process structure (the shape of every single-thread
//! throughput number); a failing one is shrunk to a 1-minimal failing
//! script with `minimize_violation_schedule` and printed.  They skip the
//! twins, whose free set is one 64-bit word (an arena of at most 63 nodes).
//!
//! Three test files hold the table's tests: `model_binding.rs` the spec and
//! twin check of every row and the roster coverage, `differential.rs` the
//! random scripts per family, the handle kinds and the checker's
//! non-vacuity, and `cross_implementation.rs` the paper objects' spec check.

// Each test file that includes this module uses a part of it.
#![allow(dead_code)]

use std::collections::BTreeSet;

use aba_repro::lockfree::{
    Family, MapHandle, NaiveEventSignal, QueueHandle, Scheme, SetHandle, StackHandle, Structure,
};
use aba_repro::sim::algorithms::announce::AnnounceSim;
use aba_repro::sim::algorithms::baselines::{MoirSim, NaiveSim, TaggedSim};
use aba_repro::sim::algorithms::fig3::Fig3Sim;
use aba_repro::sim::algorithms::fig4::Fig4Sim;
use aba_repro::sim::algorithms::fig5::Fig5Sim;
use aba_repro::sim::algorithms::shipped_model;
use aba_repro::sim::{minimize_violation_schedule, MethodCall, SimAlgorithm, Simulation};
use aba_repro::spec::{
    check_history, AbaHandle, AbaRegisterObject, History, LinCheckOutcome, LlScHandle, LlScObject,
    OpKind, OpRecord, ProcessId, Spec,
};
use aba_repro::{stacks, AnnounceLlSc, BoundedAbaRegister, CasLlSc, MoirLlSc, TaggedAbaRegister};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Processes on every side.
pub const N: usize = 4;
/// Operations per deterministic script.
const OPS: usize = 600;
/// Node arena of a deterministic script, on both sides, and the most
/// elements such a script keeps live: every deferred-free scheme's limbo (a
/// few nodes per process) fits beside them, so no operation meets an
/// exhausted or denied arena.
pub const ARENA: usize = 48;
const MAX_LIVE: usize = 8;
/// Random scripts per family, and their length bound: always below the
/// arena they run on, so no allocation can fail whatever the script does.
const RANDOM_SCRIPTS: usize = 256;
const RANDOM_OPS: usize = 64;
pub const RANDOM_ARENA: usize = 96;
/// Keys of the set and map scripts: few enough that duplicate inserts,
/// absent removes and both lookup answers all occur.
const KEYS: u32 = 12;

pub type Script = Vec<(ProcessId, MethodCall)>;

/// The hardware side of a row.
#[derive(Clone, Copy)]
pub enum Hardware {
    Register(fn() -> Box<dyn AbaRegisterObject>),
    LlSc(fn() -> Box<dyn LlScObject>),
    /// The introduction's strawman: a plain register whose waiter compares
    /// values.  `DWrite(1)` / `DWrite(0)` are `signal` / `reset`, `DRead`'s
    /// flag is `poll`.
    Event,
    Cell(Family, Scheme),
}

impl Hardware {
    pub fn spec(self) -> Spec {
        match self {
            Hardware::Register(_) | Hardware::Event => Spec::AbaRegister { n: N, initial: 0 },
            Hardware::LlSc(_) => Spec::LlSc { n: N, initial: 0 },
            Hardware::Cell(Family::Stack | Family::ElimStack, _) => Spec::Stack,
            Hardware::Cell(Family::Queue, _) => Spec::Queue,
            Hardware::Cell(Family::Set, _) => Spec::Set,
            Hardware::Cell(Family::Map, _) => Spec::Map,
        }
    }

    pub fn script(self) -> Script {
        match self {
            Hardware::Register(_) => register_script(4),
            Hardware::Event => register_script(2),
            Hardware::LlSc(_) => llsc_script(),
            Hardware::Cell(Family::Stack | Family::ElimStack, _) => {
                live_script(MethodCall::Push, MethodCall::Pop)
            }
            Hardware::Cell(Family::Queue, _) => {
                live_script(MethodCall::Enqueue, MethodCall::Dequeue)
            }
            Hardware::Cell(Family::Set, _) => keyed_script(),
            // `map`'s value encoding: the insert of operation `i` binds its
            // key to the value `key + KEYS * i`.
            Hardware::Cell(Family::Map, _) => (0..)
                .zip(keyed_script())
                .map(|(i, (pid, call))| match call {
                    MethodCall::Insert(key) => (pid, MethodCall::Insert(key + KEYS * i)),
                    call => (pid, call),
                })
                .collect(),
        }
    }
}

pub struct Row {
    /// `family/mode` for a roster model or a structure cell, the model's
    /// type name otherwise.
    pub key: &'static str,
    pub hardware: Hardware,
    pub model: Option<Box<dyn SimAlgorithm>>,
}

type NewModel = fn() -> Box<dyn SimAlgorithm>;

/// The paper rows: `(key, model, hardware)`.
const PAPER: [(&str, NewModel, Hardware); 9] = [
    (
        "Fig4Sim",
        || Box::new(Fig4Sim::new(N)),
        Hardware::Register(|| Box::new(BoundedAbaRegister::new(N))),
    ),
    (
        "Fig3Sim",
        || Box::new(Fig3Sim::new(N)),
        Hardware::LlSc(|| Box::new(CasLlSc::new(N))),
    ),
    (
        "AnnounceSim",
        || Box::new(AnnounceSim::new(N)),
        Hardware::LlSc(|| Box::new(AnnounceLlSc::new(N))),
    ),
    (
        "MoirSim",
        || Box::new(MoirSim::new(N)),
        Hardware::LlSc(|| Box::new(MoirLlSc::new(N))),
    ),
    (
        "Fig5Sim over Figure 3",
        || Box::new(Fig5Sim::over_fig3(N)),
        Hardware::Register(|| Box::new(stacks::over_cas(N))),
    ),
    (
        "Fig5Sim over Announce",
        || Box::new(Fig5Sim::over_announce(N)),
        Hardware::Register(|| Box::new(stacks::over_announce(N))),
    ),
    (
        "Fig5Sim over Moir",
        || Box::new(Fig5Sim::over_moir(N)),
        Hardware::Register(|| Box::new(stacks::over_moir(N))),
    ),
    (
        "register/naive",
        || Box::new(NaiveSim::new(N)),
        Hardware::Event,
    ),
    (
        "register/tagged",
        || Box::new(TaggedSim::new(N)),
        Hardware::Register(|| Box::new(TaggedAbaRegister::new(N))),
    ),
];

/// Every row: the paper's, then one per `Family × Scheme` cell.
pub fn table() -> Vec<Row> {
    let paper = PAPER.iter().map(|&(key, model, hardware)| Row {
        key,
        hardware,
        model: Some(model()),
    });
    let cells = Family::ALL.into_iter().flat_map(|family| {
        Scheme::ALL.map(|scheme| Row {
            key: family.key(scheme),
            hardware: Hardware::Cell(family, scheme),
            model: shipped_model(family, scheme, N, ARENA),
        })
    });
    paper.chain(cells).collect()
}

// ---------------------------------------------------------------------------
// Scripts: deterministic but irregular, one (process, call) per operation
// ---------------------------------------------------------------------------

/// Two writes, then enough reads that every process reads again with no
/// write in between; values below `values`, so most writes restore an
/// earlier value.
fn register_script(values: usize) -> Script {
    (0..OPS)
        .map(|i| {
            let call = if i % 11 < 2 {
                MethodCall::DWrite((i / 11 % values) as u32)
            } else {
                MethodCall::DRead
            };
            ((i * 7 + 3) % N, call)
        })
        .collect()
}

/// Every process links first (so Figure 3's initial-link convention and the
/// hardware's coincide); then rounds over a rotating pair of processes in
/// which a link survives to its `VL` and `SC`, is broken by the other
/// process's `SC`, and is spent by its own.
fn llsc_script() -> Script {
    let prime = (0..N).map(|p| (p, MethodCall::Ll));
    let rounds = (0..OPS / 8).flat_map(|k| {
        let (p, v) = (k * 3 % N, (k % 6) as u32);
        let q = (p + 1 + k % (N - 1)) % N;
        [
            (p, MethodCall::Ll),
            (p, MethodCall::Vl),
            (q, MethodCall::Ll),
            (p, MethodCall::Sc(v)),
            (q, MethodCall::Vl),
            (q, MethodCall::Sc(v + 1)),
            (p, MethodCall::Vl),
            (p, MethodCall::Sc(v + 2)),
        ]
    });
    prime.chain(rounds).collect()
}

/// Bursts of `add`s and longer bursts of `take`s, so the stack or queue
/// keeps running empty (and answering so), never above `MAX_LIVE` elements.
fn live_script(add: fn(u32) -> MethodCall, take: MethodCall) -> Script {
    let mut live = 0;
    (0..OPS)
        .map(|i| {
            let call = if live < MAX_LIVE && (i * 7) % 20 < 9 {
                live += 1;
                add(i as u32)
            } else {
                live = live.saturating_sub(1);
                take
            };
            ((i * 7 + 3) % N, call)
        })
        .collect()
}

/// Inserts, removes and lookups over `KEYS` keys — present and absent,
/// duplicate inserts and double removes included — never above `MAX_LIVE`
/// members.
fn keyed_script() -> Script {
    let mut members = BTreeSet::new();
    (0..OPS)
        .map(|i| {
            let key = (i * 5) as u32 % KEYS;
            let call = match i % 5 {
                0 | 3 if members.len() < MAX_LIVE => {
                    members.insert(key);
                    MethodCall::Insert(key)
                }
                1 | 4 => {
                    members.remove(&key);
                    MethodCall::Remove(key)
                }
                _ => MethodCall::Contains(key),
            };
            ((i * 7 + 3) % N, call)
        })
        .collect()
}

/// `RANDOM_SCRIPTS` seeded random scripts of up to `RANDOM_OPS` calls drawn
/// from `calls`, every one issued by process 0.
fn draw(calls: impl Strategy<Value = MethodCall>) -> Vec<Script> {
    let mut rng = TestRng::deterministic();
    let scripts = proptest::collection::vec(calls, 1..RANDOM_OPS);
    (0..RANDOM_SCRIPTS)
        .map(|_| {
            let script = scripts.generate(&mut rng).into_iter();
            script.map(|call| (0, call)).collect()
        })
        .collect()
}

/// The random scripts of `family`'s cells.
pub fn random_scripts(family: Family) -> Vec<Script> {
    match family {
        Family::Stack | Family::ElimStack => draw(prop_oneof![
            (0..1000u32).prop_map(MethodCall::Push),
            (0..1usize).prop_map(|_| MethodCall::Pop),
        ]),
        Family::Queue => draw(prop_oneof![
            (0..1000u32).prop_map(MethodCall::Enqueue),
            (0..1usize).prop_map(|_| MethodCall::Dequeue),
        ]),
        Family::Set => draw(prop_oneof![
            (0..KEYS).prop_map(MethodCall::Insert),
            (0..KEYS).prop_map(MethodCall::Remove),
            (0..KEYS).prop_map(MethodCall::Contains),
        ]),
        Family::Map => draw(prop_oneof![
            (0..KEYS, 0..1000u32).prop_map(|(key, v)| MethodCall::Insert(key + KEYS * v)),
            (0..KEYS).prop_map(MethodCall::Remove),
            (0..KEYS).prop_map(MethodCall::Contains),
        ]),
    }
}

// ---------------------------------------------------------------------------
// The drivers: one per family, a script call onto a handle call and its
// `OpKind`
// ---------------------------------------------------------------------------

fn register(handle: &mut dyn AbaHandle, call: MethodCall) -> OpKind {
    match call {
        MethodCall::DWrite(value) => {
            handle.dwrite(value);
            OpKind::DWrite { value }
        }
        MethodCall::DRead => {
            let (value, flag) = handle.dread();
            OpKind::DRead { value, flag }
        }
        other => panic!("a register script issued {other:?}"),
    }
}

fn llsc(handle: &mut dyn LlScHandle, call: MethodCall) -> OpKind {
    match call {
        MethodCall::Ll => OpKind::Ll { value: handle.ll() },
        MethodCall::Sc(value) => OpKind::Sc {
            value,
            success: handle.sc(value),
        },
        MethodCall::Vl => OpKind::Vl { valid: handle.vl() },
        other => panic!("an LL/SC script issued {other:?}"),
    }
}

fn stack(handle: &mut dyn StackHandle, call: MethodCall) -> OpKind {
    match call {
        MethodCall::Push(value) => OpKind::Push {
            value,
            ok: handle.push(value),
        },
        MethodCall::Pop => OpKind::Pop {
            value: handle.pop(),
        },
        other => panic!("a stack script issued {other:?}"),
    }
}

fn queue(handle: &mut dyn QueueHandle, call: MethodCall) -> OpKind {
    match call {
        MethodCall::Enqueue(value) => OpKind::Enqueue {
            value,
            ok: handle.enqueue(value),
        },
        MethodCall::Dequeue => OpKind::Dequeue {
            value: handle.dequeue(),
        },
        other => panic!("a queue script issued {other:?}"),
    }
}

fn set(handle: &mut dyn SetHandle, call: MethodCall) -> OpKind {
    match call {
        MethodCall::Insert(key) => OpKind::Insert {
            key,
            ok: handle.insert(key),
        },
        MethodCall::Remove(key) => OpKind::Remove {
            key,
            ok: handle.remove(key),
        },
        MethodCall::Contains(key) => OpKind::Contains {
            key,
            found: handle.contains(key),
        },
        other => panic!("a set script issued {other:?}"),
    }
}

/// The map runs the set's calls (the simulator has none of its own):
/// `Insert(v)` binds key `v % KEYS` to the value `v`, `Contains` is a `get`.
fn map(handle: &mut dyn MapHandle, call: MethodCall) -> OpKind {
    match call {
        MethodCall::Insert(value) => {
            let key = value % KEYS;
            OpKind::MapInsert {
                key,
                value,
                ok: handle.insert(key, value),
            }
        }
        MethodCall::Remove(key) => OpKind::MapRemove {
            key,
            ok: handle.remove(key),
        },
        MethodCall::Contains(key) => OpKind::MapGet {
            key,
            value: handle.get(key),
        },
        other => panic!("a map script issued {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// The checks
// ---------------------------------------------------------------------------

/// A script's run on hardware: each operation's `OpKind` and the steps its
/// handle counted for it (`None` where the handle counts none), then the
/// structure's counters (all 0 on the paper objects, which have none).
#[derive(Default, PartialEq, Eq)]
pub struct Run {
    pub ops: Vec<(OpKind, Option<u64>)>,
    counters: Counters,
}

/// A structure's counters, read with its handles still open.
#[derive(Debug, Default, PartialEq, Eq)]
struct Counters {
    aba_events: u64,
    unreclaimed: u64,
    alloc_failures: u64,
}

/// Run `script` on a fresh instance of `hardware` (a structure over `arena`
/// nodes, built for as many processes as the script uses), through racing
/// handles if `racing`.
pub fn run(
    hardware: Hardware,
    arena: usize,
    script: &[(ProcessId, MethodCall)],
    racing: bool,
) -> Run {
    let processes = script.iter().map(|&(pid, _)| pid + 1).max().unwrap_or(1);
    macro_rules! paper {
        ($object:expr, $driver:ident) => {{
            let object = $object;
            let mut handles: Vec<_> = (0..N).map(|p| object.handle(p)).collect();
            let ops = script.iter().map(|&(pid, call)| {
                let handle = &mut *handles[pid];
                ($driver(handle, call), Some(handle.last_op_steps()))
            });
            Run {
                ops: ops.collect(),
                ..Run::default()
            }
        }};
    }
    macro_rules! structure {
        ($object:expr, $driver:ident) => {{
            let object = $object;
            let mut handles: Vec<_> = (0..processes)
                .map(|p| {
                    if racing {
                        object.racing_handle(p)
                    } else {
                        object.handle(p)
                    }
                })
                .collect();
            let ops = script
                .iter()
                .map(|&(pid, call)| ($driver(&mut *handles[pid], call), None));
            Run {
                ops: ops.collect(),
                counters: Counters {
                    aba_events: object.aba_events(),
                    unreclaimed: object.unreclaimed(),
                    alloc_failures: object.alloc_failures(),
                },
            }
        }};
    }
    match hardware {
        Hardware::Register(new) => paper!(new(), register),
        Hardware::LlSc(new) => paper!(new(), llsc),
        Hardware::Event => {
            let event = NaiveEventSignal::new();
            let mut waiters: Vec<_> = (0..N).map(|_| event.waiter()).collect();
            // `poll` answers with the flag alone; the value a read returns
            // is, single-threaded, the last one written.
            let mut value = 0;
            let ops = script.iter().map(|&(pid, call)| {
                let kind = match call {
                    MethodCall::DWrite(written) => {
                        match written {
                            0 => event.reset(),
                            _ => event.signal(),
                        }
                        value = written;
                        OpKind::DWrite { value }
                    }
                    MethodCall::DRead => OpKind::DRead {
                        value,
                        flag: waiters[pid].poll(),
                    },
                    other => panic!("a register script issued {other:?}"),
                };
                (kind, None)
            });
            Run {
                ops: ops.collect(),
                ..Run::default()
            }
        }
        Hardware::Cell(family, scheme) => match family.build(scheme, arena, processes) {
            Structure::Stack(object) => structure!(object, stack),
            Structure::Queue(object) => structure!(object, queue),
            Structure::Set(object) => structure!(object, set),
            Structure::Map(object) => structure!(object, map),
        },
    }
}

/// `script` on `hardware`'s production handles, if it meets the spec and
/// nothing failed for want of a node; what failed otherwise.
fn conform(
    hardware: Hardware,
    arena: usize,
    script: &[(ProcessId, MethodCall)],
) -> Result<Run, String> {
    let production = run(hardware, arena, script, false);
    match check_history(&history(script, &production.ops), hardware.spec()) {
        LinCheckOutcome::Linearizable { .. } => {}
        verdict => return Err(format!("{verdict:?} under {:?}", hardware.spec())),
    }
    let Counters {
        aba_events,
        alloc_failures,
        ..
    } = production.counters;
    if aba_events + alloc_failures != 0 {
        return Err(format!("{:?}", production.counters));
    }
    let mut bound = BTreeSet::new();
    for (i, (kind, _)) in production.ops.iter().enumerate() {
        // The history met the spec, so the successful inserts and removes
        // track the keys bound.
        let spurious = match *kind {
            OpKind::Push { ok, .. } | OpKind::Enqueue { ok, .. } => !ok,
            OpKind::Insert { key, ok } | OpKind::MapInsert { key, ok, .. } => {
                ok != bound.insert(key)
            }
            OpKind::Remove { key, ok } | OpKind::MapRemove { key, ok } => ok && !bound.remove(&key),
            _ => false,
        };
        if spurious {
            return Err(format!("op {i}, {kind}, failed on a free arena"));
        }
    }
    Ok(production)
}

/// The history of `script`'s run `ops`, one operation per time step: it is
/// totally ordered.
pub fn history(script: &[(ProcessId, MethodCall)], ops: &[(OpKind, Option<u64>)]) -> History {
    let ops = (0..).zip(ops).zip(script);
    History::from_ops(
        ops.map(|((t, &(kind, _)), &(pid, _))| OpRecord {
            pid,
            kind,
            invoked: 2 * t,
            responded: 2 * t + 1,
        })
        .collect(),
    )
}

/// `Ok` if `script` through the racing handles of structure `hardware`
/// leaves `production`, its run through the production handles; where they
/// part otherwise.
pub fn same_structure(
    hardware: Hardware,
    arena: usize,
    script: &[(ProcessId, MethodCall)],
    production: &Run,
) -> Result<(), String> {
    let racing = run(hardware, arena, script, true);
    if racing == *production {
        return Ok(());
    }
    let op = (production.ops.iter().zip(&racing.ops)).position(|(a, b)| a != b);
    Err(format!(
        "racing_handle parts from handle at op {op:?}: {:?}, {:?}",
        racing.counters, production.counters
    ))
}

/// `conform`, panicking on a failure with the 1-minimal failing script and
/// its answers.
pub fn conforming(
    key: &str,
    hardware: Hardware,
    arena: usize,
    script: &[(ProcessId, MethodCall)],
) -> Run {
    conform(hardware, arena, script).unwrap_or_else(|fault| {
        let minimal = minimize_violation_schedule(script, |s| conform(hardware, arena, s).is_err());
        let answers: Vec<String> = run(hardware, arena, &minimal, false)
            .ops
            .iter()
            .zip(&minimal)
            .map(|((kind, _), (pid, _))| format!("{kind} by {pid}"))
            .collect();
        panic!("{key}: {fault}\nminimal failing script: {answers:?}")
    })
}

/// The yes/no answer of an operation that has one, by operation name.
/// (`DWrite` and `LL` have none, and every `Push` and `Enqueue` succeeds, or
/// `conform` fails.)
fn answer(kind: &OpKind) -> Option<(&'static str, bool)> {
    Some(match *kind {
        OpKind::DRead { flag, .. } => ("DRead", flag),
        OpKind::Sc { success, .. } => ("SC", success),
        OpKind::Vl { valid } => ("VL", valid),
        OpKind::Pop { value } => ("Pop", value.is_some()),
        OpKind::Dequeue { value } => ("Dequeue", value.is_some()),
        OpKind::Insert { ok, .. } => ("Insert", ok),
        OpKind::Remove { ok, .. } => ("Remove", ok),
        OpKind::Contains { found, .. } => ("Contains", found),
        OpKind::MapInsert { ok, .. } => ("MapInsert", ok),
        OpKind::MapRemove { ok, .. } => ("MapRemove", ok),
        OpKind::MapGet { value, .. } => ("MapGet", value.is_some()),
        _ => return None,
    })
}

/// Run `script` on `model` one operation at a time to completion: every
/// answer must be the hardware's, and so must every step count the hardware
/// counted.
fn bind(key: &str, model: &dyn SimAlgorithm, script: &Script, hardware: &Run) {
    let mut sim = Simulation::new(model);
    for (i, (&(pid, call), &(measured, steps))) in script.iter().zip(&hardware.ops).enumerate() {
        let at = format!("{key}: op {i}, {call:?} by process {pid}");
        sim.enqueue(pid, call);
        assert!(sim.run_process_to_completion(pid), "{at}");
        let modelled = sim.history().ops().last().expect("a completed op").kind;
        assert_eq!(modelled, measured, "{at}");
        if let Some(steps) = steps {
            assert_eq!(sim.last_op_steps(pid), steps, "{at}: steps");
        }
    }
}

/// The row's deterministic script on its hardware and twin.  A script that
/// never reaches the interesting answers checks nothing, so each operation
/// with a yes/no answer must have given both.
pub fn check(row: &Row) {
    let script = row.hardware.script();
    let production = match row.hardware {
        // The strawman misses a same-value rewrite: its spec must reject it.
        Hardware::Event => {
            let fault = conform(row.hardware, ARENA, &script)
                .err()
                .unwrap_or_else(|| panic!("{}: the spec check accepted the strawman", row.key));
            assert!(fault.starts_with("NotLinearizable"), "{}: {fault}", row.key);
            run(row.hardware, ARENA, &script, false)
        }
        _ => conforming(row.key, row.hardware, ARENA, &script),
    };
    if let Some(model) = &row.model {
        bind(row.key, model.as_ref(), &script, &production);
    }
    let answers: BTreeSet<_> = production
        .ops
        .iter()
        .filter_map(|(kind, _)| answer(kind))
        .collect();
    for &(operation, given) in &answers {
        assert!(
            answers.contains(&(operation, !given)),
            "{}: no {operation} of the script answered {}",
            row.key,
            !given
        );
    }
}

/// The seeded random scripts of each of `families` on the hardware of every
/// one of its cells, each held to `conform`.
pub fn random_scripts_conform(families: &[Family]) {
    for &family in families {
        for script in random_scripts(family) {
            for scheme in Scheme::ALL {
                let hardware = Hardware::Cell(family, scheme);
                conforming(family.key(scheme), hardware, RANDOM_ARENA, &script);
            }
        }
    }
}

/// Turn `kind`'s answer into another one, if it has an answer: a yes/no
/// flips, and a returned value becomes none (none becomes 0).  Every spec is
/// deterministic, so a totally ordered history with one flipped answer has
/// no linearization.
pub fn flip(kind: &mut OpKind) -> bool {
    match kind {
        OpKind::DRead { flag: answer, .. }
        | OpKind::Sc {
            success: answer, ..
        }
        | OpKind::Vl { valid: answer }
        | OpKind::Insert { ok: answer, .. }
        | OpKind::Remove { ok: answer, .. }
        | OpKind::Contains { found: answer, .. }
        | OpKind::MapInsert { ok: answer, .. }
        | OpKind::MapRemove { ok: answer, .. } => *answer = !*answer,
        OpKind::Pop { value } | OpKind::Dequeue { value } | OpKind::MapGet { value, .. } => {
            *value = match value {
                Some(_) => None,
                None => Some(0),
            }
        }
        _ => return false,
    }
    true
}
