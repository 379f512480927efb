//! The per-layer cost ladder of the traced pass.
//!
//! Each *rung* times one layer through its public API, from outside: the
//! layer's call is made [`BATCH`] times in a row, one span per batch, and
//! the rung's figure is the quiet decile of `batch time / BATCH` — per-call
//! nanoseconds with scheduler noise cut off, since every rung runs on one
//! thread.  (The one contended rung, `lockfree.arena.alloc_free_ns_tn`,
//! times one thread while the others hammer the same arena, and reports the
//! median batch.)
//!
//! The rungs are visited round-robin in short slices until the pass's
//! budget is spent, so host drift lands on all of them alike.  What a rung
//! should move end to end is recorded next to its declaration in
//! [`crate::schema`].

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use aba_core::{AnnounceLlSc, BoundedAbaRegister, CasLlSc, MoirLlSc, TaggedAbaRegister};
use aba_hazard::HazardDomain;
use aba_lockfree::{map_builders, stack_builders, Map, NodeArena, Stack};
use aba_reclaim::{
    EpochReclaim, Guard, HazardReclaim, LlScReclaim, NoReclaim, Reclaimer, SlotId, TagReclaim, NIL,
};
use aba_spec::{AbaHandle, AbaRegisterObject, LlScHandle, LlScObject};
use aba_workload::{
    roster_node_capacity, run_cell, BackendSpec, Op, Scenario, Workload, WorkloadOps,
};

use crate::e2e::{round_config, scenario, SAMPLE_PERIOD};
use crate::lanes::{roster_backend, workload, REGISTER_PROCESSES};
use crate::stats::{median, quiet_decile, residual_share, Better};
use crate::trace::{SpanId, Tracer};

/// Calls per batch, and per span.
pub const BATCH: usize = 4096;

/// Time one rung gets per visit; a rung whose batch is longer runs one batch.
const SLICE: Duration = Duration::from_millis(1);

/// Operations of one `run_cell` call of an engine rung (2 000 latency
/// samples, a few milliseconds).
const ENGINE_RUNG_OPS: usize = SAMPLE_PERIOD * 2_000;

/// Nodes of the chain the traversal rungs walk.
const CHAIN: usize = 8;

/// Schemes in ladder order, under the names the metrics use.
pub const SCHEMES: [&str; 5] = ["unprotected", "tagged", "hazard", "epoch", "llsc"];

/// Register lanes in ladder order (the `registers-t1` lanes).
pub const CORE_LANES: [&str; 5] = ["cas", "announce", "moir16", "fig4", "tagreg"];

/// Structure families the engine rungs cover.
pub const FAMILIES: [&str; 3] = ["registers", "stack", "map"];

/// Receives one batch: its endpoints and its per-call nanoseconds.
type Sink<'s> = &'s mut dyn FnMut(Instant, Instant, f64);

/// Runs `n` batches of a rung, reporting each to the sink.
type RunBatches<'a> = Box<dyn FnMut(usize, Sink<'_>) + 'a>;

/// The standard rung: `call` made [`BATCH`] times per batch.
fn batched<'a>(mut call: impl FnMut() + 'a) -> RunBatches<'a> {
    Box::new(move |n, sink| {
        for _ in 0..n {
            let start = Instant::now();
            for _ in 0..BATCH {
                call();
            }
            let end = Instant::now();
            sink(start, end, (end - start).as_nanos() as f64 / BATCH as f64);
        }
    })
}

/// A rung that replays `scenario`'s thread-0 op script through `apply`.
fn scripted<'a>(scenario: Scenario, mut apply: impl FnMut(Op) + 'a) -> RunBatches<'a> {
    let mut i = 0usize;
    batched(move || {
        apply(scenario.op(0, i));
        i += 1;
    })
}

/// A rung whose "batch" is one `run_cell` call; per-call time is the
/// engine's own productive ns/op.
fn engine_rung<'a>(scenario: Scenario, spec: &'a BackendSpec) -> RunBatches<'a> {
    let config = round_config(1, ENGINE_RUNG_OPS);
    Box::new(move |n, sink| {
        for _ in 0..n {
            let start = Instant::now();
            let cell = run_cell(scenario, spec, 1, &config);
            let end = Instant::now();
            sink(start, end, 1e9 / cell.ops_per_sec);
        }
    })
}

struct Rung<'a> {
    name: String,
    run: RunBatches<'a>,
    /// Other threads contend with the timed one: interference is the
    /// subject, not noise, so the figure is the median batch.
    contended: bool,
    per_call_ns: Vec<f64>,
    last_batch: Duration,
}

/// One reclamation scheme's two bare instances: one slot for the pop path,
/// three protection lanes for the traversal.
struct Scheme<R: Reclaimer> {
    pop: R,
    head: SlotId,
    /// The head node's successor link (link words are scheme-encoded, so
    /// each scheme owns its own).
    link: AtomicU64,
    traverse: R,
    chain: Vec<AtomicU64>,
}

impl<R: Reclaimer> Scheme<R> {
    fn new() -> Self {
        let mut pop = R::new(1, 1);
        let head = pop.add_slot(0);
        Scheme {
            pop,
            head,
            link: AtomicU64::new(NIL),
            traverse: R::new(1, 3),
            chain: (0..CHAIN).map(|_| AtomicU64::new(NIL)).collect(),
        }
    }
}

/// Everything the rungs borrow from: the layers' objects, built once.
pub struct Objects {
    tn: usize,
    word: AtomicU64,
    cas: CasLlSc,
    announce: AnnounceLlSc,
    moir16: MoirLlSc,
    fig4: BoundedAbaRegister,
    tagreg: TaggedAbaRegister,
    hazard: HazardDomain,
    unprotected_r: Scheme<NoReclaim>,
    tagged_r: Scheme<TagReclaim>,
    hazard_r: Scheme<HazardReclaim>,
    epoch_r: Scheme<EpochReclaim>,
    llsc_r: Scheme<LlScReclaim>,
    arena: NodeArena,
    arena_tn: NodeArena,
    stacks: Vec<Box<dyn Stack>>,
    maps: Vec<Box<dyn Map>>,
    churn: Scenario,
    read_heavy: Scenario,
    family_specs: [BackendSpec; 3],
    family_workloads: [Box<dyn Workload>; 3],
    direct_announce: AnnounceLlSc,
    direct_stack: Box<dyn Stack>,
    direct_map: Box<dyn Map>,
}

/// The structure of scheme `scheme` from a `(roster key, builder)` list
/// whose keys end in the scheme's roster suffix.
fn by_scheme<T>(builders: Vec<(&'static str, T)>, scheme: &str) -> T {
    let suffix = match scheme {
        "llsc" => "/llsc",
        other => other,
    };
    builders
        .into_iter()
        .find(|(key, _)| key.contains(suffix))
        .map(|(_, build)| build)
        .unwrap_or_else(|| panic!("no roster builder for scheme {scheme:?}"))
}

impl Objects {
    /// Build every layer's objects for a host with `tn` usable cores;
    /// `seed` reaches only the map lane's key permutation.
    pub fn new(tn: usize, seed: u64) -> Self {
        let n = REGISTER_PROCESSES;
        let capacity = roster_node_capacity(1);
        let lane_spec = |workload_name: &str, lane: &str| {
            workload(workload_name)
                .and_then(|w| w.lanes.iter().find(|l| l.name == lane))
                .unwrap_or_else(|| panic!("{workload_name} has no lane {lane:?}"))
                .spec(seed)
        };
        let family_specs = [
            lane_spec("registers-t1", "announce"),
            roster_backend("stack/tagged"),
            lane_spec("map-read-heavy-tn", "tagged"),
        ];
        let family_workloads = [
            family_specs[0].build(1),
            family_specs[1].build(1),
            family_specs[2].build(1),
        ];
        Objects {
            tn,
            word: AtomicU64::new(0),
            cas: CasLlSc::new(n),
            announce: AnnounceLlSc::new(n),
            moir16: MoirLlSc::with_tag_bits(n, 16),
            fig4: BoundedAbaRegister::new(n),
            tagreg: TaggedAbaRegister::new(n),
            hazard: HazardDomain::new(tn),
            unprotected_r: Scheme::new(),
            tagged_r: Scheme::new(),
            hazard_r: Scheme::new(),
            epoch_r: Scheme::new(),
            llsc_r: Scheme::new(),
            arena: NodeArena::new(capacity),
            arena_tn: NodeArena::new(roster_node_capacity(tn)),
            stacks: SCHEMES
                .iter()
                .map(|s| by_scheme(stack_builders(), s)(capacity, 1))
                .collect(),
            maps: SCHEMES
                .iter()
                .map(|s| by_scheme(map_builders(), s)(capacity, 1))
                .collect(),
            churn: scenario("churn"),
            read_heavy: scenario("zipf-read-heavy"),
            family_specs,
            family_workloads,
            direct_announce: AnnounceLlSc::new(n),
            direct_stack: by_scheme(stack_builders(), "tagged")(capacity, 1),
            direct_map: by_scheme(map_builders(), "tagged")(capacity, 1),
        }
    }

    /// Hardware-independent counts next to the timings: shared-memory steps
    /// per operation over the churn mix (exact at one thread) and base
    /// objects allocated, per register lane.
    pub fn core_counts(&self) -> BTreeMap<String, f64> {
        const OPS: u32 = 1_000;
        fn llsc_steps(mut h: impl LlScHandle) -> f64 {
            for v in 0..OPS / 2 {
                h.ll();
                assert!(h.sc(v), "an uncontended SC cannot fail");
                h.ll();
                assert!(h.vl(), "an uncontended VL cannot fail");
            }
            h.step_count() as f64 / f64::from(OPS)
        }
        fn reg_steps(mut h: impl AbaHandle) -> f64 {
            for v in 0..OPS / 2 {
                h.dwrite(v);
                black_box(h.dread());
            }
            h.step_count() as f64 / f64::from(OPS)
        }
        let n = REGISTER_PROCESSES;
        // Fresh objects: the timed ones keep their handles busy.
        let (cas, announce, moir16) = (
            CasLlSc::new(n),
            AnnounceLlSc::new(n),
            MoirLlSc::with_tag_bits(n, 16),
        );
        let (fig4, tagreg) = (BoundedAbaRegister::new(n), TaggedAbaRegister::new(n));
        let counts = [
            ("cas", llsc_steps(cas.handle(0)), cas.space()),
            ("announce", llsc_steps(announce.handle(0)), announce.space()),
            ("moir16", llsc_steps(moir16.handle(0)), moir16.space()),
            ("fig4", reg_steps(fig4.handle(0)), fig4.space()),
            ("tagreg", reg_steps(tagreg.handle(0)), tagreg.space()),
        ];
        let mut out = BTreeMap::new();
        for (lane, steps, space) in counts {
            out.insert(format!("core.{lane}.steps_per_op"), steps);
            out.insert(
                format!("core.{lane}.space_words"),
                space.total_objects() as f64,
            );
        }
        out
    }
}

fn llsc_rungs<'a, H: LlScHandle + 'a>(lane: &str, mut writer: H, mut reader: H) -> Vec<Rung<'a>> {
    let mut value = 0u32;
    vec![
        rung(
            format!("core.{lane}.write_ns"),
            batched(move || {
                value = value.wrapping_add(1);
                // retry-bound: one thread, so the first SC succeeds.
                loop {
                    writer.ll();
                    if writer.sc(value) {
                        break;
                    }
                }
            }),
        ),
        rung(
            format!("core.{lane}.read_ns"),
            batched(move || {
                black_box(reader.ll());
                black_box(reader.vl());
            }),
        ),
    ]
}

fn reg_rungs<'a, H: AbaHandle + 'a>(lane: &str, mut writer: H, mut reader: H) -> Vec<Rung<'a>> {
    let mut value = 0u32;
    vec![
        rung(
            format!("core.{lane}.write_ns"),
            batched(move || {
                value = value.wrapping_add(1);
                writer.dwrite(value);
            }),
        ),
        rung(
            format!("core.{lane}.read_ns"),
            batched(move || {
                black_box(reader.dread());
            }),
        ),
    ]
}

/// The two bare-`Reclaimer` rungs of one scheme.
fn reclaim_rungs<'a, R: Reclaimer>(scheme: &str, objects: &'a Scheme<R>) -> Vec<Rung<'a>> {
    let capacity = roster_node_capacity(1);
    let (link, chain) = (&objects.link, &objects.chain);

    // A stack pop as the structure sees its reclaimer: protect the head,
    // read the successor link, swing the head, retire, drop the protection.
    // The head alternates between two nodes so every CAS succeeds.
    let head = objects.head;
    let mut guard = objects.pop.guard(0, capacity);
    let mut successor = 1u64;
    let pop_path = batched(move || {
        let raw = guard.protect(0, head);
        let node = guard.index_of(raw);
        black_box(guard.index_of(guard.load_link(link)));
        if guard.cas(head, raw, successor) {
            guard.retire(node, |freed| {
                black_box(freed);
            });
            successor = node;
        }
        guard.quiesce();
    });

    // One hop of a Harris–Michael traversal: publish protection for the
    // next node, re-validate the link it was read from.
    let mut guard = objects.traverse.guard(0, capacity);
    for (i, word) in chain.iter().enumerate() {
        guard.store_link_mark(word, i as u64 + 1, false);
    }
    let mut hop = 0usize;
    let traverse = batched(move || {
        let word = &chain[hop];
        let raw = guard.load_link(word);
        let next = guard.marked_index_of(raw);
        black_box(guard.protect_link_word(hop % 3, next, word, raw));
        black_box(guard.validate_link(word, raw));
        hop += 1;
        if hop == chain.len() {
            hop = 0;
            guard.quiesce();
        }
    });

    vec![
        rung(format!("reclaim.{scheme}.pop_path_ns"), pop_path),
        rung(format!("reclaim.{scheme}.traverse_ns"), traverse),
    ]
}

fn rung(name: impl Into<String>, run: RunBatches<'_>) -> Rung<'_> {
    Rung {
        name: name.into(),
        run,
        contended: false,
        per_call_ns: Vec::new(),
        last_batch: SLICE,
    }
}

fn apply_boxed(ops: &mut dyn WorkloadOps, op: Op) {
    match op {
        Op::Read => ops.read(),
        Op::Write(v) => ops.write(v),
        Op::Rmw(v) => ops.rmw(v),
    }
}

fn build_rungs(o: &Objects) -> Vec<Rung<'_>> {
    let mut rungs = Vec::new();

    // -- hw: the reference floor ------------------------------------------
    rungs.push(rung(
        "hw.clock_ns",
        batched(|| {
            black_box(Instant::now());
        }),
    ));
    let word = &o.word;
    let mut expected = word.load(Ordering::SeqCst);
    rungs.push(rung(
        "hw.cas_ns",
        batched(move || {
            let next = expected.wrapping_add(1);
            if word
                .compare_exchange(expected, next, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                expected = next;
            }
        }),
    ));
    rungs.push(rung("hw.yield_ns", batched(std::thread::yield_now)));

    // -- core: the paper's objects on concrete handles ---------------------
    rungs.extend(llsc_rungs("cas", o.cas.handle(0), o.cas.handle(1)));
    rungs.extend(llsc_rungs(
        "announce",
        o.announce.handle(0),
        o.announce.handle(1),
    ));
    rungs.extend(llsc_rungs("moir16", o.moir16.handle(0), o.moir16.handle(1)));
    rungs.extend(reg_rungs("fig4", o.fig4.handle(0), o.fig4.handle(1)));
    rungs.extend(reg_rungs("tagreg", o.tagreg.handle(0), o.tagreg.handle(1)));

    // -- hazard: the domain on its own -------------------------------------
    let protector = o.hazard.handle(0);
    let mut node = 0u64;
    rungs.push(rung(
        "hazard.protect_clear_ns",
        batched(move || {
            node = (node + 1) % 64;
            protector.protect(node);
            protector.clear();
        }),
    ));
    let mut retirer = o.hazard.handle(1);
    let mut node = 0u64;
    rungs.push(rung(
        "hazard.retire_ns",
        batched(move || {
            node = (node + 1) % 64;
            retirer.retire(node, |freed| {
                black_box(freed);
            });
        }),
    ));

    // -- reclaim: each scheme behind the trait, no structure on top --------
    rungs.extend(reclaim_rungs("unprotected", &o.unprotected_r));
    rungs.extend(reclaim_rungs("tagged", &o.tagged_r));
    rungs.extend(reclaim_rungs("hazard", &o.hazard_r));
    rungs.extend(reclaim_rungs("epoch", &o.epoch_r));
    rungs.extend(reclaim_rungs("llsc", &o.llsc_r));

    // -- lockfree.arena ------------------------------------------------------
    let arena = &o.arena;
    rungs.push(rung(
        "lockfree.arena.alloc_free_ns",
        batched(move || {
            let idx = arena
                .alloc()
                .expect("a one-node churn cannot exhaust the arena");
            arena.set_value(idx, 7);
            arena.free(idx);
        }),
    ));
    let (arena_tn, tn) = (&o.arena_tn, o.tn);
    rungs.push(Rung {
        contended: true,
        ..rung(
            "lockfree.arena.alloc_free_ns_tn",
            Box::new(move |n, sink| {
                let (running, stop) = (AtomicU64::new(0), AtomicBool::new(false));
                let churn = || {
                    if let Some(idx) = arena_tn.alloc() {
                        arena_tn.set_value(idx, 7);
                        arena_tn.free(idx);
                    }
                };
                std::thread::scope(|s| {
                    for _ in 1..tn {
                        s.spawn(|| {
                            running.fetch_add(1, Ordering::SeqCst);
                            while !stop.load(Ordering::Relaxed) {
                                churn();
                            }
                        });
                    }
                    // No batch starts before every contender is churning.
                    while running.load(Ordering::SeqCst) < tn as u64 - 1 {
                        std::thread::yield_now();
                    }
                    let mut run = batched(&churn);
                    run(n, sink);
                    stop.store(true, Ordering::Relaxed);
                });
            }),
        )
    });

    // -- lockfree.stack / lockfree.map: the structures, called directly ----
    for (scheme, stack) in SCHEMES.iter().zip(&o.stacks) {
        let mut handle = stack.handle(0);
        rungs.push(rung(
            format!("lockfree.stack.{scheme}.push_pop_ns"),
            batched(move || {
                black_box(handle.push(7));
                black_box(handle.pop());
            }),
        ));
    }
    for (scheme, map) in SCHEMES.iter().zip(&o.maps) {
        // Half the probed keys are bound: the even ones.
        let mut handle = map.handle(0);
        for key in (0..128).step_by(2) {
            assert!(handle.insert(key, key), "prefill of {scheme} map failed");
        }
        drop(handle);
        let mut getter = map.handle(0);
        let mut probe = 0u32;
        rungs.push(rung(
            format!("lockfree.map.{scheme}.get_ns"),
            batched(move || {
                probe = (probe + 13) % 128;
                black_box(getter.get(probe));
            }),
        ));
        let mut mutator = map.handle(0);
        let mut key = 1u32;
        rungs.push(rung(
            format!("lockfree.map.{scheme}.insert_remove_ns"),
            batched(move || {
                key = (key + 26) % 128; // stays odd: never a prefilled key
                black_box(mutator.insert(key, key));
                black_box(mutator.remove(key));
            }),
        ));
    }

    // -- workload: the same op script three ways per family ----------------
    // direct handle calls, the boxed `WorkloadOps` the engine drives, and the
    // engine itself; dispatch and engine cost are the differences.
    let mut announce = o.direct_announce.handle(0);
    rungs.push(rung(
        "direct.registers",
        scripted(o.churn, move |op| match op {
            Op::Read => {
                black_box(announce.ll());
                black_box(announce.vl());
            }
            Op::Write(v) | Op::Rmw(v) => {
                // retry-bound: one thread, so the first SC succeeds.
                loop {
                    announce.ll();
                    if announce.sc(v) {
                        break;
                    }
                }
            }
        }),
    ));
    let mut stack = o.direct_stack.handle(0);
    rungs.push(rung(
        "direct.stack",
        scripted(o.churn, move |op| match op {
            Op::Read => {
                black_box(stack.pop());
            }
            Op::Write(v) => {
                black_box(stack.push(v));
            }
            Op::Rmw(v) => {
                black_box(stack.push(v));
                black_box(stack.pop());
            }
        }),
    ));
    // The registry's map adapter, spelled out on a bare handle.
    let mut map = o.direct_map.handle(0);
    let mut probe = 0u32;
    rungs.push(rung(
        "direct.map",
        scripted(o.read_heavy, move |op| match op {
            Op::Read => {
                probe = (probe + 13) % 128;
                black_box(map.get(probe));
            }
            Op::Write(v) => {
                black_box(map.insert(v % 128, (v % 128) ^ 0xA5A5_A5A5));
            }
            Op::Rmw(v) => {
                black_box(map.remove(v % 128));
            }
        }),
    ));
    let scenarios = [o.churn, o.churn, o.read_heavy];
    for (k, family) in FAMILIES.iter().enumerate() {
        let mut ops = o.family_workloads[k].worker(0);
        rungs.push(rung(
            format!("boxed.{family}"),
            scripted(scenarios[k], move |op| apply_boxed(ops.as_mut(), op)),
        ));
        rungs.push(rung(
            format!("engine.{family}"),
            engine_rung(scenarios[k], &o.family_specs[k]),
        ));
    }
    rungs
}

/// Visit every rung round-robin until `budget` is spent (every rung at
/// least once) and return each rung's per-call nanoseconds.  Batches become
/// spans under `parent`.
pub fn measure(
    objects: &Objects,
    budget: Duration,
    tracer: &mut Tracer,
    parent: SpanId,
) -> BTreeMap<String, f64> {
    let mut rungs = build_rungs(objects);
    let started = Instant::now();
    loop {
        for r in &mut rungs {
            let batches = (SLICE.as_nanos() / r.last_batch.as_nanos().max(1)).clamp(1, 32) as usize;
            let (samples, last, name) = (&mut r.per_call_ns, &mut r.last_batch, r.name.as_str());
            (r.run)(batches, &mut |start, end, per_call_ns| {
                tracer.record(name, Some(parent), start, end);
                samples.push(per_call_ns);
                *last = end - start;
            });
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    rungs
        .into_iter()
        .map(|r| {
            let ns = if r.contended {
                median(&r.per_call_ns)
            } else {
                quiet_decile(&r.per_call_ns, Better::Lower)
            };
            (r.name, ns)
        })
        .collect()
}

/// The reported per-layer timings: every rung that is a metric, plus the
/// differences and residuals derived from them.
pub fn metrics(rungs: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    let at = |name: &str| {
        *rungs
            .get(name)
            .unwrap_or_else(|| panic!("rung {name} was not measured"))
    };
    let mut out: BTreeMap<String, f64> = rungs
        .iter()
        .filter(|(name, _)| {
            !["direct.", "boxed.", "engine."]
                .iter()
                .any(|p| name.starts_with(p))
        })
        .map(|(name, ns)| (name.clone(), *ns))
        .collect();
    for family in FAMILIES {
        out.insert(
            format!("workload.dispatch_ns.{family}"),
            at(&format!("boxed.{family}")) - at(&format!("direct.{family}")),
        );
        out.insert(
            format!("workload.engine_ns.{family}"),
            at(&format!("engine.{family}")) - at(&format!("boxed.{family}")),
        );
    }
    // ROADMAP 1(c): do the rungs add up?  Registers: an engine op on the
    // announce lane against the object's own op (churn is half writes, half
    // reads), the boxed dispatch, and the sampler's two clock reads every
    // SAMPLE_PERIOD ops.  Stack: a direct push+pop pair against one arena
    // alloc+free, one reclaimer pop path and the pop's yield.
    out.insert(
        "ladder.registers-t1.residual_share".into(),
        residual_share(
            at("engine.registers"),
            &[
                (at("core.announce.write_ns") + at("core.announce.read_ns")) / 2.0,
                at("boxed.registers") - at("direct.registers"),
                2.0 * at("hw.clock_ns") / SAMPLE_PERIOD as f64,
            ],
        ),
    );
    out.insert(
        "ladder.stack-churn-t1.residual_share".into(),
        residual_share(
            at("lockfree.stack.tagged.push_pop_ns"),
            &[
                at("lockfree.arena.alloc_free_ns"),
                at("reclaim.tagged.pop_path_ns"),
                at("hw.yield_ns"),
            ],
        ),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_pass_measures_every_rung_and_records_batch_spans() {
        let objects = Objects::new(2, 1);
        let mut tracer = Tracer::new("test");
        let root = tracer.open("ladder", "", None);
        let rungs = measure(&objects, Duration::ZERO, &mut tracer, root);
        tracer.close(root);
        assert!(
            rungs.values().all(|ns| ns.is_finite() && *ns > 0.0),
            "{rungs:?}"
        );
        // Every rung left at least one batch span under the ladder span.
        for name in rungs.keys() {
            assert!(
                tracer
                    .spans()
                    .iter()
                    .any(|s| s.name == *name && s.parent == Some(root) && s.end_ns >= s.start_ns),
                "{name} recorded no span"
            );
        }
        let reported = metrics(&rungs);
        assert!(reported.keys().all(|k| !k.starts_with("direct.")));
        assert!(reported.contains_key("workload.dispatch_ns.map"));
        assert!(reported.contains_key("ladder.stack-churn-t1.residual_share"));
    }

    #[test]
    fn step_counts_reproduce_the_papers_shape() {
        let counts = Objects::new(2, 1).core_counts();
        // Figure 4 uses n+1 registers; the tagging baselines one word.
        assert_eq!(
            counts["core.fig4.space_words"],
            (REGISTER_PROCESSES + 1) as f64
        );
        assert_eq!(counts["core.moir16.space_words"], 1.0);
        // Constant-step objects take the same whole number of steps per
        // uncontended op pair, run after run.
        for lane in CORE_LANES {
            let steps = counts[&format!("core.{lane}.steps_per_op")];
            assert!(steps >= 1.0, "{lane}: {steps}");
            assert_eq!(
                steps,
                Objects::new(2, 2).core_counts()[&format!("core.{lane}.steps_per_op")]
            );
        }
    }
}
