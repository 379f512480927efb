//! Dynamic partial-order reduction (DPOR): exhaustive schedule exploration
//! over the simulator, turning "no witness found" into a proof.
//!
//! The random searches in [`crate::explore`] sample the schedule space; this
//! module *enumerates* it.  A stateless depth-first explorer forks the
//! deterministic [`Simulation`] from every prefix and, following
//! Flanagan–Godefroid (POPL 2005), prunes interleavings that only reorder
//! *independent* steps:
//!
//! * two steps are **dependent** iff they touch the same base object and at
//!   least one mutates it (the per-step footprint comes from
//!   [`StepOutcome::access`]; a *failed* CAS is post-hoc a read, which is
//!   sound because a failed CAS commutes with reads and other failed CASes);
//! * when a step is found to race with an earlier one not already ordered by
//!   happens-before (tracked with per-process clock vectors), the explorer
//!   inserts a **backtrack point** into the persistent set of the earlier
//!   state, so the reversed order is explored too;
//! * **sleep sets** stop already-explored commutations from being re-run.
//!
//! The result is a guarantee, not a sample: if
//! [`ExplorationReport::complete`] is set and no witness was found, *no*
//! schedule of the bounded workload violates the checked specification —
//! up to Mazurkiewicz-trace equivalence, see the caveat below.
//!
//! # What "exhaustive" means here
//!
//! Executions that only reorder independent steps form one *Mazurkiewicz
//! trace class*; DPOR executes at least one representative of every class.
//! Every *value* anomaly (a duplicated, lost or resurrected value, a missed
//! ABA flag, a wedged structure) is class-invariant — independent steps
//! commute without changing any read value or response — so the guarantee is
//! exact for them.  A violation that depends *only* on the real-time order
//! of two overlapping, otherwise-independent operations would be checked
//! only on class representatives; the linearizability and weak-register
//! checkers used here already quotient by that order for overlapping
//! operations, so nothing is lost.

use std::collections::BTreeSet;

use aba_spec::{History, ProcessId};

use crate::algorithm::SimAlgorithm;
use crate::executor::{Simulation, StepOutcome};
use crate::explore::{run_workload, SimWorkload, Witness, WitnessMeta};
use crate::object::StepAccess;
use crate::schedule::Prefix;

/// Bounds and switches for one exhaustive exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DporConfig {
    /// Stop after this many complete executions (safety budget; hitting it
    /// clears [`ExplorationReport::complete`]).
    pub max_schedules: u64,
    /// Cut any single trace at this depth.  Generous for every terminating
    /// execution of a bounded workload; finite when ABA damage has cycled a
    /// structure's links so the workload can never quiesce (the cut trace is
    /// then itself a *wedged* witness, validated by replay).
    pub max_trace_steps: usize,
    /// Stop at the first violating execution instead of enumerating all.
    pub stop_on_first: bool,
    /// `true` runs DPOR; `false` disables both the persistent-set reduction
    /// and sleep sets, enumerating every interleaving — exponentially slower,
    /// kept as the ground truth the reduction is differentially tested
    /// against.
    pub reduce: bool,
}

impl Default for DporConfig {
    fn default() -> Self {
        DporConfig {
            max_schedules: 1_000_000,
            max_trace_steps: 4_000,
            stop_on_first: false,
            reduce: true,
        }
    }
}

/// Counters and outcome of one exhaustive exploration.
#[derive(Debug, Clone, Default)]
pub struct ExplorationReport {
    /// Complete executions run (one per explored trace class, plus any
    /// sleep-set-blocked duplicates the reduction could not avoid).
    pub schedules_executed: u64,
    /// Subtrees cut by sleep sets: interleavings provably equivalent to an
    /// already-explored class.  `0` when `reduce` is off.
    pub classes_pruned: u64,
    /// Total shared-memory steps executed across all branches.
    pub steps_executed: u64,
    /// Executions cut at [`DporConfig::max_trace_steps`].  For a protected
    /// implementation this must be 0 for `complete` to mean anything; for an
    /// unprotected one each cut trace was validated (by replay) as wedged or
    /// discarded.
    pub truncated_traces: u64,
    /// `true` iff the exploration stopped because it hit
    /// [`DporConfig::max_schedules`].
    pub hit_schedule_cap: bool,
    /// `true` iff the depth-first search drained completely: every reachable
    /// trace class (at the configured bounds) was executed and checked.
    /// Cleared by `stop_on_first` stopping early or by the schedule cap.
    pub complete: bool,
    /// Every violating execution found, in exploration order (just the first
    /// when `stop_on_first` is set).  `meta.schedule` is the complete
    /// explored trace (replayable through [`run_workload`]), `meta.seed` is 0
    /// and `meta.trial` the 0-based index of the execution in exploration
    /// order; a trace cut at the depth bound is reported `wedged`.
    pub witnesses: Vec<Witness>,
}

impl ExplorationReport {
    /// The first violating execution, if any.
    pub fn witness(&self) -> Option<&Witness> {
        self.witnesses.first()
    }
}

/// A step's position in the current trace: the stack depth it was executed
/// at, the process that took it and that process's local step count after it.
#[derive(Debug, Clone, Copy)]
struct StepRef {
    depth: usize,
    pid: ProcessId,
    lidx: u64,
}

/// Per-object race-candidate state: the last mutating step and every read
/// since it.  Any step older than `last_mut` is happens-before `last_mut`
/// (dependent steps on the same object are always ordered), so these are the
/// only candidates a new access can race with.
#[derive(Debug, Clone, Default)]
struct ObjState {
    last_mut: Option<StepRef>,
    /// Clock vector of `last_mut` (empty = all zeros).
    mut_clock: Vec<u64>,
    /// Reads since `last_mut`, in trace order.
    reads: Vec<StepRef>,
    /// Join of the clock vectors of `reads` (empty = all zeros).
    reads_join: Vec<u64>,
}

/// Happens-before state: per-process clock vectors plus per-object candidate
/// state, snapshotted at every node of the search tree.
#[derive(Debug, Clone)]
struct Clocks {
    /// `proc[p][q]` = largest local index of `q` whose step happens-before
    /// some past step of `p`.
    proc: Vec<Vec<u64>>,
    /// Local step counters.
    local: Vec<u64>,
    objs: Vec<ObjState>,
}

fn join_into(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

impl Clocks {
    fn new(n: usize, objects: usize) -> Self {
        Clocks {
            proc: vec![vec![0; n]; n],
            local: vec![0; n],
            objs: vec![ObjState::default(); objects],
        }
    }

    /// Record one executed step of `pid` with footprint `access` at `depth`.
    ///
    /// The step's clock joins the process's own clock with the clocks of the
    /// dependent predecessors the access creates edges from: the last
    /// mutation of the object, plus (for a mutating access) every read since
    /// it.
    fn record(&mut self, pid: ProcessId, access: Option<StepAccess>, depth: usize) {
        let mut clock = self.proc[pid].clone();
        if let Some(a) = access {
            let st = &self.objs[a.obj];
            join_into(&mut clock, &st.mut_clock);
            if a.writes {
                join_into(&mut clock, &st.reads_join);
            }
        }
        self.local[pid] += 1;
        clock[pid] = self.local[pid];
        if let Some(a) = access {
            let r = StepRef {
                depth,
                pid,
                lidx: self.local[pid],
            };
            let st = &mut self.objs[a.obj];
            if a.writes {
                st.last_mut = Some(r);
                st.mut_clock = clock.clone();
                st.reads.clear();
                st.reads_join.clear();
            } else {
                st.reads.push(r);
                join_into(&mut st.reads_join, &clock);
            }
        }
        self.proc[pid] = clock;
    }

    /// `true` iff the step `r` happens-before every future step of `p`.
    fn ordered_before(&self, r: StepRef, p: ProcessId) -> bool {
        self.proc[p][r.pid] >= r.lidx
    }

    /// The most recent step dependent with an access `a` by process `p` that
    /// is *not* already ordered before `p` — the race partner whose
    /// pre-state needs a backtrack point.
    ///
    /// For a mutating access every same-object step is dependent, so the
    /// candidates are the reads since the last mutation (newest first) and
    /// then the mutation itself; for a read only mutations are.  Anything
    /// older than `last_mut` is happens-before `last_mut` and therefore
    /// (transitively) before `p` whenever `last_mut` is, so the scan can
    /// stop there.
    fn latest_race(&self, p: ProcessId, a: StepAccess) -> Option<StepRef> {
        let st = &self.objs[a.obj];
        if a.writes {
            for r in st.reads.iter().rev() {
                if !self.ordered_before(*r, p) {
                    return Some(*r);
                }
            }
        }
        st.last_mut.filter(|m| !self.ordered_before(*m, p))
    }
}

/// One node of the depth-first search: the simulation and analysis state *at*
/// the node, plus the exploration bookkeeping for its outgoing edges.
#[derive(Debug, Clone)]
struct Frame {
    sim: Simulation,
    clocks: Clocks,
    enabled: Vec<ProcessId>,
    /// The persistent set under construction: processes whose step from this
    /// node must be explored.  Grows when deeper steps race with the step
    /// taken here.
    backtrack: BTreeSet<ProcessId>,
    /// Processes whose subtree from this node is fully explored.
    done: BTreeSet<ProcessId>,
    /// Processes whose step from this node would re-create an
    /// already-explored class.
    sleep: BTreeSet<ProcessId>,
    /// The child edge currently on the stack below this frame.
    choice: Option<ProcessId>,
}

fn independent(a: Option<StepAccess>, b: Option<StepAccess>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => !x.dependent(&y),
        // A step with no shared-memory footprint (a method completing on
        // invocation) commutes with everything.
        _ => true,
    }
}

/// Insert backtrack points for every enabled process at a newly reached node:
/// if `p`'s next access races with an earlier step not already ordered before
/// `p`, the state *before* that step must also try `p` (or, if `p` was not
/// enabled there, every process that was).
fn insert_backtracks(
    stack: &mut [Frame],
    sim: &Simulation,
    clocks: &Clocks,
    enabled: &[ProcessId],
) {
    for &p in enabled {
        let Some(a) = sim.next_access(p) else {
            continue;
        };
        if let Some(race) = clocks.latest_race(p, a) {
            let frame = &mut stack[race.depth];
            if frame.enabled.contains(&p) {
                frame.backtrack.insert(p);
            } else {
                frame.backtrack.extend(frame.enabled.iter().copied());
            }
        }
    }
}

/// Exhaustively explore every schedule of a bounded workload, up to
/// Mazurkiewicz-trace equivalence.
///
/// `make_sim` builds a freshly seeded simulation (initial state plus every
/// queued method call); `check` is invoked once per complete execution with
/// the explored schedule, its history and whether it quiesced (`false` only
/// for traces cut at the depth bound), and returns `true` iff the execution
/// violates the specification.
///
/// The explorer is deterministic: same workload, same config, same report.
pub fn explore_exhaustive(
    algo: &dyn SimAlgorithm,
    make_sim: &mut dyn FnMut() -> Simulation,
    check: &mut dyn FnMut(&[ProcessId], &History, bool) -> bool,
    cfg: &DporConfig,
) -> ExplorationReport {
    explore_inner(algo, make_sim, check, cfg, None)
}

/// [`explore_exhaustive`] with footprint auditing: every executed step's
/// declared footprints (prediction and post-hoc) are diffed against the
/// shadow memory's ground truth by `auditor` — the soundness check of the
/// very footprints this explorer's dependency relation consumes.  The audit
/// only observes; the exploration (classes, order, report) is identical to
/// the unaudited run.
pub fn explore_exhaustive_audited(
    algo: &dyn SimAlgorithm,
    make_sim: &mut dyn FnMut() -> Simulation,
    check: &mut dyn FnMut(&[ProcessId], &History, bool) -> bool,
    cfg: &DporConfig,
    auditor: &mut crate::audit::FootprintAuditor,
) -> ExplorationReport {
    explore_inner(algo, make_sim, check, cfg, Some(auditor))
}

fn explore_inner(
    algo: &dyn SimAlgorithm,
    make_sim: &mut dyn FnMut() -> Simulation,
    check: &mut dyn FnMut(&[ProcessId], &History, bool) -> bool,
    cfg: &DporConfig,
    mut audit: Option<&mut crate::audit::FootprintAuditor>,
) -> ExplorationReport {
    let n = algo.n();
    let mut report = ExplorationReport::default();
    let root_sim = make_sim();
    let objects = root_sim.registers().len();
    let mut trace = Prefix::new();
    let mut stack: Vec<Frame> = Vec::new();
    let mut stopped = false;
    // The node the search has just stepped into (state + analysis + sleep
    // set), not yet classified as internal or terminal.
    let mut pending: Option<(Simulation, Clocks, BTreeSet<ProcessId>)> =
        Some((root_sim, Clocks::new(n, objects), BTreeSet::new()));

    loop {
        if let Some((sim, clocks, sleep)) = pending.take() {
            let enabled: Vec<ProcessId> = (0..n)
                .filter(|&p| !sim.is_idle(p) || sim.has_queued_work(p))
                .collect();
            if enabled.is_empty() || trace.len() >= cfg.max_trace_steps {
                // Terminal: a maximal execution (or one cut at the depth
                // bound, the wedged-structure candidate).
                let quiesced = enabled.is_empty();
                if !quiesced {
                    report.truncated_traces += 1;
                }
                report.schedules_executed += 1;
                if check(trace.as_slice(), sim.history(), quiesced) {
                    report.witnesses.push(Witness {
                        meta: WitnessMeta {
                            schedule: trace.to_vec(),
                            seed: 0,
                            trial: report.schedules_executed - 1,
                        },
                        history: sim.history().clone(),
                        wedged: !quiesced,
                        violation: None,
                    });
                    if cfg.stop_on_first {
                        stopped = true;
                        break;
                    }
                }
                if report.schedules_executed >= cfg.max_schedules {
                    report.hit_schedule_cap = true;
                    break;
                }
                finish_edge(&mut stack, &mut trace);
                if stack.is_empty() {
                    break;
                }
                continue;
            }
            // Internal node: set up its race analysis and first candidate.
            let mut backtrack = BTreeSet::new();
            if cfg.reduce {
                insert_backtracks(&mut stack, &sim, &clocks, &enabled);
                match enabled.iter().find(|p| !sleep.contains(p)) {
                    Some(&p) => {
                        backtrack.insert(p);
                    }
                    None => {
                        // Every enabled step is asleep: any continuation only
                        // re-orders independent steps of classes explored
                        // from an earlier sibling.
                        report.classes_pruned += 1;
                        finish_edge(&mut stack, &mut trace);
                        if stack.is_empty() {
                            break;
                        }
                        continue;
                    }
                }
            } else {
                backtrack.extend(enabled.iter().copied());
            }
            stack.push(Frame {
                sim,
                clocks,
                enabled,
                backtrack,
                done: BTreeSet::new(),
                sleep,
                choice: None,
            });
            continue;
        }

        // Pick the next unexplored candidate at the deepest frame.
        let Some(top) = stack.last_mut() else {
            break;
        };
        let cand = top
            .backtrack
            .iter()
            .copied()
            .find(|p| !top.done.contains(p) && !top.sleep.contains(p));
        match cand {
            None => {
                stack.pop();
                finish_edge(&mut stack, &mut trace);
                if stack.is_empty() {
                    break;
                }
            }
            Some(p) => {
                top.choice = Some(p);
                let mut sim = top.sim.clone();
                let outcome = match audit.as_deref_mut() {
                    Some(auditor) => sim.step_audited(p, auditor),
                    None => sim.step(p),
                };
                debug_assert!(
                    !matches!(outcome, StepOutcome::Idle),
                    "scheduled a process with no work"
                );
                let access = outcome.access();
                report.steps_executed += 1;
                let mut clocks = top.clocks.clone();
                clocks.record(p, access, trace.len());
                // A sleeping process stays asleep only while its step still
                // commutes with everything executed since it was put there.
                let child_sleep = if cfg.reduce {
                    top.sleep
                        .iter()
                        .copied()
                        .filter(|&q| independent(top.sim.next_access(q), access))
                        .collect()
                } else {
                    BTreeSet::new()
                };
                trace.push(p);
                pending = Some((sim, clocks, child_sleep));
            }
        }
    }

    report.complete = !stopped && !report.hit_schedule_cap;
    report
}

/// Close the edge from the (new) top of the stack to a fully-explored child:
/// record the explored process as done and put it to sleep, so sibling
/// branches do not re-execute commutations through it.
fn finish_edge(stack: &mut [Frame], trace: &mut Prefix) {
    if let Some(p) = trace.pop() {
        if let Some(parent) = stack.last_mut() {
            debug_assert_eq!(parent.choice, Some(p));
            parent.choice = None;
            parent.done.insert(p);
            parent.sleep.insert(p);
        }
    }
}

/// Exhaustively explore `workload` on `algo`, judging every execution by
/// [`SimWorkload::violates`].  Traces cut at the depth bound are validated by
/// replaying them through [`run_workload`], whose bounded drain distinguishes
/// a genuinely wedged structure from a too-small depth bound; every reported
/// witness is that replay's execution, so it is identical in shape to the
/// random search's.
pub fn explore_workload(
    algo: &dyn SimAlgorithm,
    workload: SimWorkload,
    cfg: &DporConfig,
) -> ExplorationReport {
    let mut make = || workload.simulation(algo);
    let mut check = |trace: &[ProcessId], history: &History, quiesced: bool| {
        if quiesced {
            workload.violates(history, false)
        } else {
            let replay = run_workload(algo, workload, trace);
            workload.violates(&replay.history, replay.wedged)
        }
    };
    let mut report = explore_exhaustive(algo, &mut make, &mut check, cfg);
    for w in &mut report.witnesses {
        let replay = run_workload(algo, workload, &w.meta.schedule);
        *w = workload.witness(w.meta.clone(), replay);
    }
    report
}

/// Canonical representative of a schedule's Mazurkiewicz trace class: the
/// smallest-process-first linearization of its dependence partial order.
///
/// Two explored schedules are trace-equivalent iff their canonical forms are
/// equal, which is what the differential tests (DPOR vs. brute force) use to
/// compare witness *sets* — the brute-force enumeration finds every member
/// of a violating class, DPOR only a representative.
pub fn canonical_trace(
    make_sim: &mut dyn FnMut() -> Simulation,
    schedule: &[ProcessId],
) -> Vec<ProcessId> {
    // Replay to recover each step's footprint.
    let mut sim = make_sim();
    let accesses: Vec<(ProcessId, Option<StepAccess>)> = schedule
        .iter()
        .map(|&p| (p, sim.step(p).access()))
        .collect();
    // deps[j] = indices of earlier steps that must stay before step j.
    let deps: Vec<Vec<usize>> = (0..accesses.len())
        .map(|j| {
            (0..j)
                .filter(|&i| {
                    accesses[i].0 == accesses[j].0 || !independent(accesses[i].1, accesses[j].1)
                })
                .collect()
        })
        .collect();
    let mut emitted = vec![false; accesses.len()];
    let mut next_of: Vec<usize> = Vec::new(); // per pid, next unemitted index
    let mut out = Vec::with_capacity(accesses.len());
    let n = accesses.iter().map(|a| a.0 + 1).max().unwrap_or(0);
    let mut by_pid: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (j, (p, _)) in accesses.iter().enumerate() {
        by_pid[*p].push(j);
    }
    next_of.resize(n, 0);
    while out.len() < accesses.len() {
        let mut chosen = None;
        for (p, steps) in by_pid.iter().enumerate() {
            let Some(&j) = steps.get(next_of[p]) else {
                continue;
            };
            if deps[j].iter().all(|&i| emitted[i]) {
                chosen = Some((p, j));
                break;
            }
        }
        let (p, j) = chosen.expect("dependence order is acyclic");
        emitted[j] = true;
        next_of[p] += 1;
        out.push(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::baselines::NaiveSim;
    use crate::algorithms::queue::QueueSim;
    use crate::MethodCall;
    use std::collections::BTreeSet;

    /// Canonical forms of a mode's explored traces and violating traces.
    type ModeSummary = (u64, BTreeSet<Vec<ProcessId>>, BTreeSet<Vec<ProcessId>>);

    /// Explore the workload twice (brute force and reduced) and return, for
    /// each, the execution count and the canonical form of every explored
    /// trace and of every violating trace.
    fn both_modes(
        algo: &dyn SimAlgorithm,
        make: &dyn Fn() -> Simulation,
        violates: &dyn Fn(&History) -> bool,
    ) -> [ModeSummary; 2] {
        [false, true].map(|reduce| {
            let cfg = DporConfig {
                reduce,
                ..DporConfig::default()
            };
            let mut make = make;
            let mut traces = Vec::new();
            let mut check = |t: &[ProcessId], h: &History, _q: bool| {
                traces.push((t.to_vec(), violates(h)));
                false
            };
            let report = explore_exhaustive(algo, &mut make, &mut check, &cfg);
            assert!(report.complete, "tiny workloads must drain");
            let all: BTreeSet<_> = traces
                .iter()
                .map(|(t, _)| canonical_trace(&mut make, t))
                .collect();
            let bad: BTreeSet<_> = traces
                .iter()
                .filter(|(_, v)| *v)
                .map(|(t, _)| canonical_trace(&mut make, t))
                .collect();
            (report.schedules_executed, all, bad)
        })
    }

    fn weak_violates(h: &History) -> bool {
        !aba_spec::weak::check_weak_history(h).is_empty()
    }

    #[test]
    fn racy_register_class_count_is_pinned() {
        // Two processes, each DWrite then DRead on one register: 4 steps,
        // C(4,2) = 6 interleavings.  The only independent adjacent pair is
        // read/read, so the trace classes are
        //   {WWRR-orders merged over the read swap}: exactly 4.
        let algo = NaiveSim::new(2);
        let make = || {
            let mut sim = Simulation::new(&algo);
            sim.enqueue(0, MethodCall::DWrite(1));
            sim.enqueue(0, MethodCall::DRead);
            sim.enqueue(1, MethodCall::DWrite(2));
            sim.enqueue(1, MethodCall::DRead);
            sim
        };
        let [(brute_n, brute_all, brute_bad), (dpor_n, dpor_all, dpor_bad)] =
            both_modes(&algo, &make, &weak_violates);
        assert_eq!(brute_n, 6, "all interleavings");
        assert_eq!(brute_all.len(), 4, "canonical classes");
        assert_eq!(dpor_n, 4, "DPOR executes exactly one representative each");
        assert_eq!(dpor_all, brute_all, "same classes covered");
        assert_eq!(dpor_bad, brute_bad, "same (here: empty) witness classes");
    }

    #[test]
    fn dpor_finds_the_same_witness_classes_as_brute_force() {
        // The lower-bound workload at n=2 (4 ABA-patterned writes, 2 reads)
        // against the naive register: every pair of steps hits the one
        // object and only the two reads commute, so all 15 interleavings are
        // distinct classes — and exactly one of them is a violation.  DPOR
        // must execute all 15 and flag the same single class.
        let algo = NaiveSim::new(2);
        let workload = SimWorkload::Register {
            writes: 4,
            reads: 2,
        };
        let [(brute_n, brute_all, brute_bad), (dpor_n, dpor_all, dpor_bad)] =
            both_modes(&algo, &|| workload.simulation(&algo), &weak_violates);
        assert_eq!(brute_n, 15);
        assert_eq!(brute_all.len(), 15);
        assert_eq!(brute_bad.len(), 1, "exactly one violating class");
        assert_eq!(dpor_n, 15);
        assert_eq!(dpor_all, brute_all);
        assert_eq!(dpor_bad, brute_bad);
    }

    #[test]
    fn dpor_covers_every_queue_class_of_the_brute_force() {
        // One enqueue vs one dequeue on the unprotected queue: 1 210
        // interleavings collapse to 4 trace classes; DPOR executes exactly
        // one representative of each.
        let algo = QueueSim::unprotected(2, 2);
        let workload = SimWorkload::Queue {
            enqueues: 1,
            dequeues: 1,
        };
        let [(brute_n, brute_all, _), (dpor_n, dpor_all, _)] =
            both_modes(&algo, &|| workload.simulation(&algo), &|_| false);
        assert_eq!(brute_n, 1_210);
        assert_eq!(brute_all.len(), 4);
        assert_eq!(dpor_n, 4);
        assert_eq!(dpor_all, brute_all);
    }

    #[test]
    fn canonical_trace_is_idempotent_and_class_invariant() {
        let algo = NaiveSim::new(2);
        let mut make = || {
            let mut sim = Simulation::new(&algo);
            sim.enqueue(0, MethodCall::DWrite(1));
            sim.enqueue(0, MethodCall::DRead);
            sim.enqueue(1, MethodCall::DWrite(2));
            sim.enqueue(1, MethodCall::DRead);
            sim
        };
        // [0,1,0,1] = W0 W1 R0 R1 and [0,1,1,0] = W0 W1 R1 R0 differ only in
        // the order of the two (independent) reads: one class.
        let a = canonical_trace(&mut make, &[0, 1, 0, 1]);
        let b = canonical_trace(&mut make, &[0, 1, 1, 0]);
        assert_eq!(a, b);
        assert_eq!(canonical_trace(&mut make, &a), a, "idempotent");
        // Swapping the two (dependent) writes is a different class.
        let c = canonical_trace(&mut make, &[1, 0, 0, 1]);
        assert_ne!(a, c);
    }

    #[test]
    fn witness_meta_uses_trace_index_not_seed() {
        let algo = NaiveSim::new(2);
        let cfg = DporConfig {
            stop_on_first: true,
            ..DporConfig::default()
        };
        let workload = SimWorkload::Register {
            writes: 4,
            reads: 2,
        };
        let report = explore_workload(&algo, workload, &cfg);
        let w = report.witness().expect("naive register must break");
        assert!(w.violation.is_some() && !w.wedged);
        assert_eq!(w.meta.seed, 0, "exhaustive exploration has no seed");
        assert_eq!(w.meta.trial, report.schedules_executed - 1);
        assert!(!report.complete, "stop_on_first stops early");
        // The witness replays through the ordinary workload runner.
        let replay = run_workload(&algo, workload, &w.meta.schedule);
        assert_eq!(replay.history, w.history);
    }

    #[test]
    fn clock_vectors_order_dependent_steps() {
        let mut clocks = Clocks::new(2, 1);
        let w = StepAccess {
            obj: 0,
            writes: true,
        };
        let r = StepAccess {
            obj: 0,
            writes: false,
        };
        // p0 writes, then p1 reads: the read joins the write's clock.
        clocks.record(0, Some(w), 0);
        clocks.record(1, Some(r), 1);
        assert!(clocks.ordered_before(
            StepRef {
                depth: 0,
                pid: 0,
                lidx: 1
            },
            1
        ));
        // p0's next step knows nothing of p1's read …
        assert!(!clocks.ordered_before(
            StepRef {
                depth: 1,
                pid: 1,
                lidx: 1
            },
            0
        ));
        // … so a mutating access by p0 races with it.
        let race = clocks.latest_race(0, w).expect("read/write race");
        assert_eq!(race.depth, 1);
        // A read by p0 would race with nothing: the only mutation is its own.
        assert!(clocks.latest_race(0, r).is_none());
    }
}
