//! Binding tests: each simulator model and the hardware object it claims to
//! model are driven by the same single-threaded operation script and must
//! give the same responses — and, for the paper's own objects, take the same
//! number of shared-memory steps per operation (`Simulation::last_op_steps`
//! against the handle's `last_op_steps`).
//!
//! The simulator *proves* small-bound properties of the models it runs; a
//! proof about a model that has drifted from the code is worth nothing.
//! This is the behavioural tie between the two sides (the key tie — every
//! `stack/*`, `queue/*` and `set/*` roster key is an `aba_lockfree::Family`
//! key — is `crates/bench/tests/dpor_golden.rs`).  One row per model: the
//! eleven `MODEL_ROSTER` keys plus the six constructions the roster does not
//! explore (`Fig3Sim`, `Fig4Sim`, `AnnounceSim`, `MoirSim` and `Fig5Sim`
//! over Figure 3, Announce and Moir).  Only `register/naive` is a
//! hand-written model: the paper's objects and `register/tagged` spawn the
//! code their hardware twins run, written once over `aba_core::mem::Mem`,
//! and the structure rows run the stack, queue and list code written once
//! over `aba_lockfree::mem::NodeMem`, so those rows bind the two *memories*
//! — the atomics and the simulator's replay log — not two texts.  Structure
//! rows compare responses only: `Guard` has no step counter yet (ROADMAP
//! item 2).

use aba_repro::lockfree::{Family, NaiveEventSignal, Scheme, Structure};
use aba_repro::sim::algorithms::announce::AnnounceSim;
use aba_repro::sim::algorithms::baselines::{MoirSim, NaiveSim, TaggedSim};
use aba_repro::sim::algorithms::fig3::Fig3Sim;
use aba_repro::sim::algorithms::fig4::Fig4Sim;
use aba_repro::sim::algorithms::fig5::Fig5Sim;
use aba_repro::sim::algorithms::queue::QueueSim;
use aba_repro::sim::algorithms::set::SetSim;
use aba_repro::sim::algorithms::stack::StackSim;
use aba_repro::sim::{MethodCall, SimAlgorithm, Simulation, MODEL_ROSTER};
use aba_repro::spec::{AbaRegisterObject, LlScObject, OpKind, ProcessId};
use aba_repro::{stacks, AnnounceLlSc, BoundedAbaRegister, CasLlSc, MoirLlSc, TaggedAbaRegister};

/// Processes on both sides.
const N: usize = 4;
/// Operations per script.
const OPS: usize = 600;
/// Node arena on both sides, and the most elements a structure script keeps
/// live: every deferred-free scheme's limbo (a few nodes per process) fits
/// beside them, so no script operation meets an exhausted or denied arena.
const ARENA: usize = 48;
const MAX_LIVE: usize = 8;

/// How a row binds per-operation shared-memory step counts.
#[derive(Clone, Copy)]
enum Steps {
    /// The model and the hardware take the same number on every operation.
    Equal,
    /// The hardware side counts no steps.
    Uncounted,
}

/// The hardware side of a row.
enum Twin {
    Register(Box<dyn AbaRegisterObject>),
    LlSc(Box<dyn LlScObject>),
    /// The introduction's strawman: a plain register whose waiter compares
    /// values.  `DWrite(1)` / `DWrite(0)` are `signal` / `reset`, `DRead`'s
    /// flag is `poll`.
    Event(NaiveEventSignal),
    Structure(Structure),
}

struct Row {
    /// `family/mode` for a roster model, the model's type name otherwise.
    key: &'static str,
    model: fn() -> Box<dyn SimAlgorithm>,
    twin: fn() -> Twin,
    steps: Steps,
}

fn structure(key: &str) -> Twin {
    let (family, scheme) = Family::ALL
        .into_iter()
        .flat_map(|family| Scheme::ALL.map(|scheme| (family, scheme)))
        .find(|&(family, scheme)| family.key(scheme) == key)
        .unwrap_or_else(|| panic!("{key} is no key of aba_lockfree::Family's table"));
    Twin::Structure(family.build(scheme, ARENA, N))
}

const TABLE: [Row; 18] = [
    Row {
        key: "Fig4Sim",
        model: || Box::new(Fig4Sim::new(N)),
        twin: || Twin::Register(Box::new(BoundedAbaRegister::new(N))),
        steps: Steps::Equal,
    },
    Row {
        key: "Fig3Sim",
        model: || Box::new(Fig3Sim::new(N)),
        twin: || Twin::LlSc(Box::new(CasLlSc::new(N))),
        steps: Steps::Equal,
    },
    Row {
        key: "AnnounceSim",
        model: || Box::new(AnnounceSim::new(N)),
        twin: || Twin::LlSc(Box::new(AnnounceLlSc::new(N))),
        steps: Steps::Equal,
    },
    Row {
        key: "MoirSim",
        model: || Box::new(MoirSim::new(N)),
        twin: || Twin::LlSc(Box::new(MoirLlSc::new(N))),
        steps: Steps::Equal,
    },
    Row {
        key: "Fig5Sim over Figure 3",
        model: || Box::new(Fig5Sim::over_fig3(N)),
        twin: || Twin::Register(Box::new(stacks::over_cas(N))),
        steps: Steps::Equal,
    },
    Row {
        key: "Fig5Sim over Announce",
        model: || Box::new(Fig5Sim::over_announce(N)),
        twin: || Twin::Register(Box::new(stacks::over_announce(N))),
        steps: Steps::Equal,
    },
    Row {
        key: "Fig5Sim over Moir",
        model: || Box::new(Fig5Sim::over_moir(N)),
        twin: || Twin::Register(Box::new(stacks::over_moir(N))),
        steps: Steps::Equal,
    },
    Row {
        key: "register/naive",
        model: || Box::new(NaiveSim::new(N)),
        twin: || Twin::Event(NaiveEventSignal::new()),
        steps: Steps::Uncounted,
    },
    Row {
        key: "register/tagged",
        model: || Box::new(TaggedSim::new(N)),
        twin: || Twin::Register(Box::new(TaggedAbaRegister::new(N))),
        steps: Steps::Equal,
    },
    Row {
        key: "queue/unprotected",
        model: || Box::new(QueueSim::unprotected(N, ARENA)),
        twin: || structure("queue/unprotected"),
        steps: Steps::Uncounted,
    },
    Row {
        key: "queue/tagged",
        model: || Box::new(QueueSim::tagged(N, ARENA)),
        twin: || structure("queue/tagged"),
        steps: Steps::Uncounted,
    },
    Row {
        key: "queue/epoch",
        model: || Box::new(QueueSim::epoch(N, ARENA)),
        twin: || structure("queue/epoch"),
        steps: Steps::Uncounted,
    },
    Row {
        key: "set/unprotected",
        model: || Box::new(SetSim::unprotected(N, ARENA)),
        twin: || structure("set/unprotected"),
        steps: Steps::Uncounted,
    },
    Row {
        key: "set/tagged",
        model: || Box::new(SetSim::tagged(N, ARENA)),
        twin: || structure("set/tagged"),
        steps: Steps::Uncounted,
    },
    Row {
        key: "set/hazard",
        model: || Box::new(SetSim::hazard(N, ARENA)),
        twin: || structure("set/hazard"),
        steps: Steps::Uncounted,
    },
    Row {
        key: "set/epoch",
        model: || Box::new(SetSim::epoch(N, ARENA)),
        twin: || structure("set/epoch"),
        steps: Steps::Uncounted,
    },
    Row {
        key: "stack/unprotected",
        model: || Box::new(StackSim::unprotected(N, ARENA)),
        twin: || structure("stack/unprotected"),
        steps: Steps::Uncounted,
    },
    Row {
        key: "stack/tagged",
        model: || Box::new(StackSim::tagged(N, ARENA)),
        twin: || structure("stack/tagged"),
        steps: Steps::Uncounted,
    },
];

// ---------------------------------------------------------------------------
// Scripts: deterministic but irregular, one (process, call) per operation
// ---------------------------------------------------------------------------

type Script = Vec<(ProcessId, MethodCall)>;

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

/// Bursts of pushes and longer bursts of pops, so the stack keeps running
/// empty (and answering so), never above `MAX_LIVE` elements.
fn stack_script() -> Script {
    let mut live = 0;
    (0..OPS)
        .map(|i| {
            let call = if live < MAX_LIVE && (i * 7) % 20 < 9 {
                live += 1;
                MethodCall::Push(i as u32)
            } else {
                live = live.saturating_sub(1);
                MethodCall::Pop
            };
            ((i * 5 + 1) % N, call)
        })
        .collect()
}

/// Bursts of enqueues and longer bursts of dequeues, so the queue keeps
/// running empty (and answering so), never above `MAX_LIVE` elements.
fn queue_script() -> Script {
    let mut live = 0;
    (0..OPS)
        .map(|i| {
            let call = if live < MAX_LIVE && (i * 7) % 20 < 9 {
                live += 1;
                MethodCall::Enqueue(i as u32)
            } else {
                live = live.saturating_sub(1);
                MethodCall::Dequeue
            };
            ((i * 7 + 3) % N, call)
        })
        .collect()
}

/// Inserts, removes and lookups over a dozen keys — present and absent,
/// duplicate inserts and double removes included — never above `MAX_LIVE`
/// members.
fn set_script() -> Script {
    let mut members = std::collections::BTreeSet::new();
    (0..OPS)
        .map(|i| {
            let key = (i * 5 % 12) as u32;
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

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// The yes/no answer of an operation that has one, by operation name.
/// (`DWrite` and `LL` have none, and no script exhausts an arena, so every
/// `Push` and `Enqueue` succeeds.)
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
        _ => return None,
    })
}

/// Run `script` on the model, one operation at a time to completion, and on
/// `hardware`; every response, and every step count `steps` binds, must
/// agree (`hardware` answers with its response and the steps it counted for
/// it — 0, and ignored, in a `Steps::Uncounted` row).  A script that never
/// reaches the interesting answers binds nothing, so each operation with a
/// yes/no answer must have given both.
fn bind(
    row: &Row,
    script: &Script,
    mut hardware: impl FnMut(ProcessId, MethodCall) -> (OpKind, u64),
) {
    let model = (row.model)();
    let mut sim = Simulation::new(model.as_ref());
    let mut answers = std::collections::BTreeSet::new();
    for (i, &(pid, call)) in script.iter().enumerate() {
        let at = format!("{}: op {i}, {call:?} by process {pid}", row.key);
        sim.enqueue(pid, call);
        assert!(sim.run_process_to_completion(pid), "{at}");
        let modelled = sim.history().ops().last().expect("a completed op").kind;
        let (measured, hardware_steps) = hardware(pid, call);
        assert_eq!(modelled, measured, "{at}");
        let model_steps = sim.last_op_steps(pid);
        if let Steps::Equal = row.steps {
            assert_eq!(model_steps, hardware_steps, "{at}: steps");
        }
        answers.extend(answer(&modelled));
    }
    for &(operation, given) in &answers {
        assert!(
            answers.contains(&(operation, !given)),
            "{}: no {operation} of the script answered {}",
            row.key,
            !given
        );
    }
}

fn check(row: &Row) {
    let unsupported = |call| -> ! { panic!("{}: script issued {call:?}", row.key) };
    match (row.twin)() {
        Twin::Register(register) => {
            let mut handles: Vec<_> = (0..N).map(|p| register.handle(p)).collect();
            bind(row, &register_script(4), |pid, call| {
                let kind = match call {
                    MethodCall::DWrite(value) => {
                        handles[pid].dwrite(value);
                        OpKind::DWrite { value }
                    }
                    MethodCall::DRead => {
                        let (value, flag) = handles[pid].dread();
                        OpKind::DRead { value, flag }
                    }
                    other => unsupported(other),
                };
                (kind, handles[pid].last_op_steps())
            });
        }
        Twin::LlSc(object) => {
            let mut handles: Vec<_> = (0..N).map(|p| object.handle(p)).collect();
            bind(row, &llsc_script(), |pid, call| {
                let handle = &mut handles[pid];
                let kind = match call {
                    MethodCall::Ll => OpKind::Ll { value: handle.ll() },
                    MethodCall::Sc(value) => OpKind::Sc {
                        value,
                        success: handle.sc(value),
                    },
                    MethodCall::Vl => OpKind::Vl { valid: handle.vl() },
                    other => unsupported(other),
                };
                (kind, handle.last_op_steps())
            });
        }
        Twin::Event(event) => {
            let mut waiters: Vec<_> = (0..N).map(|_| event.waiter()).collect();
            // `poll` answers with the flag alone; the value a read returns
            // is, single-threaded, the last one written.
            let mut value = 0;
            bind(row, &register_script(2), |pid, call| {
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
                    other => unsupported(other),
                };
                (kind, 0)
            });
        }
        Twin::Structure(Structure::Stack(stack)) => {
            let mut handles: Vec<_> = (0..N).map(|p| stack.handle(p)).collect();
            bind(row, &stack_script(), |pid, call| {
                let kind = match call {
                    MethodCall::Push(value) => OpKind::Push {
                        value,
                        ok: handles[pid].push(value),
                    },
                    MethodCall::Pop => OpKind::Pop {
                        value: handles[pid].pop(),
                    },
                    other => unsupported(other),
                };
                (kind, 0)
            });
        }
        Twin::Structure(Structure::Queue(queue)) => {
            let mut handles: Vec<_> = (0..N).map(|p| queue.handle(p)).collect();
            bind(row, &queue_script(), |pid, call| {
                let kind = match call {
                    MethodCall::Enqueue(value) => OpKind::Enqueue {
                        value,
                        ok: handles[pid].enqueue(value),
                    },
                    MethodCall::Dequeue => OpKind::Dequeue {
                        value: handles[pid].dequeue(),
                    },
                    other => unsupported(other),
                };
                (kind, 0)
            });
        }
        Twin::Structure(Structure::Set(set)) => {
            let mut handles: Vec<_> = (0..N).map(|p| set.handle(p)).collect();
            bind(row, &set_script(), |pid, call| {
                let handle = &mut handles[pid];
                let kind = match call {
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
                    other => unsupported(other),
                };
                (kind, 0)
            });
        }
        Twin::Structure(_) => panic!("{}: no model of this family", row.key),
    }
}

#[test]
fn every_model_answers_like_the_hardware_it_models() {
    for row in &TABLE {
        check(row);
    }
}

#[test]
fn the_table_covers_the_model_roster() {
    for model in MODEL_ROSTER.iter() {
        let key = model.key();
        assert!(
            TABLE.iter().any(|row| row.key == key),
            "roster model {key} has no binding row"
        );
    }
}
