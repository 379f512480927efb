//! The execution engine: configurations, schedules and step-by-step
//! execution, following the paper's Preliminaries section.
//!
//! A [`Simulation`] holds the shared memory (a *configuration*'s object part)
//! and the state machines of all `n` processes (its process part).  Driving
//! it with a sequence of process IDs reproduces the paper's notion of an
//! execution `Exec(C, σ)`: each scheduled process performs exactly one shared
//! memory step.  The simulation records the resulting method-call history
//! with logical timestamps (so the linearizability and weak-condition
//! checkers from `aba-spec` apply directly), per-operation step counts, and
//! exposes the covering information used by the lower-bound experiments.

use std::collections::VecDeque;

use aba_spec::{History, OpKind, OpRecord, ProcessId};

use crate::algorithm::{MethodCall, MethodResponse, SimAlgorithm, SimProcess};
use crate::object::{BaseOp, ObjId, SharedMemory, StepAccess, StepResult};

/// The outcome of scheduling one process for one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The process had nothing to do (idle with an empty program queue).
    Idle,
    /// The process started a method call that completed without any shared
    /// memory step.
    CompletedImmediately,
    /// The process executed one shared-memory step; `completed` tells whether
    /// that step finished its current method call, and `access` is the
    /// step's *post-hoc* memory footprint (a failed CAS reports
    /// `writes: false` — it observed but did not change the object), which
    /// is what the exhaustive explorer's dependency relation consumes.
    Stepped {
        /// Whether the method call completed with this step.
        completed: bool,
        /// The precise memory-access footprint of the executed step.
        access: StepAccess,
    },
}

impl StepOutcome {
    /// The memory footprint of this outcome, if a shared-memory step ran.
    pub fn access(&self) -> Option<StepAccess> {
        match self {
            StepOutcome::Stepped { access, .. } => Some(*access),
            _ => None,
        }
    }
}

/// A running simulation of one algorithm instance.
#[derive(Debug, Clone)]
pub struct Simulation {
    memory: SharedMemory,
    procs: Vec<Box<dyn SimProcess>>,
    queues: Vec<VecDeque<MethodCall>>,
    pending: Vec<Option<(MethodCall, u64)>>,
    history: History,
    clock: u64,
    current_steps: Vec<u64>,
    last_steps: Vec<u64>,
    max_steps: Vec<u64>,
    total_steps: Vec<u64>,
}

impl Simulation {
    /// Create a fresh simulation of the algorithm, with every process idle
    /// and an empty program queue.
    pub fn new(algo: &dyn SimAlgorithm) -> Self {
        let n = algo.n();
        Simulation {
            memory: SharedMemory::new(algo.initial_objects()),
            procs: (0..n).map(|p| algo.spawn(p)).collect(),
            queues: vec![VecDeque::new(); n],
            pending: vec![None; n],
            history: History::new(),
            clock: 0,
            current_steps: vec![0; n],
            last_steps: vec![0; n],
            max_steps: vec![0; n],
            total_steps: vec![0; n],
        }
    }

    /// Number of processes.
    pub fn processes(&self) -> usize {
        self.procs.len()
    }

    /// Queue a method call for process `pid`; it begins when the process is
    /// next scheduled and idle.
    pub fn enqueue(&mut self, pid: ProcessId, call: MethodCall) {
        self.queues[pid].push_back(call);
    }

    /// `true` iff `pid` has no method call in progress.
    pub fn is_idle(&self, pid: ProcessId) -> bool {
        self.pending[pid].is_none()
    }

    /// `true` iff `pid` has method calls waiting in its program queue.
    pub fn has_queued_work(&self, pid: ProcessId) -> bool {
        !self.queues[pid].is_empty()
    }

    /// `true` iff every process is idle and every queue is empty (the paper's
    /// *quiescent* configuration, given that queued work counts as pending).
    pub fn is_quiescent(&self) -> bool {
        (0..self.processes()).all(|p| self.is_idle(p) && self.queues[p].is_empty())
    }

    /// The shared-memory step `pid` is poised to execute, if it has a method
    /// call in progress.
    pub fn poised(&self, pid: ProcessId) -> Option<BaseOp> {
        if self.is_idle(pid) {
            None
        } else {
            Some(self.procs[pid].poised())
        }
    }

    /// The next method call waiting in `pid`'s program queue.
    pub fn peek_queued(&self, pid: ProcessId) -> Option<MethodCall> {
        self.queues[pid].front().copied()
    }

    /// The *predicted* memory footprint of the next `step(pid)`: the poised
    /// step's footprint for a process mid-method, the first step of the
    /// queued call for an idle process ([`SimProcess::first_step`]), and
    /// `None` when the process has nothing to do or its next call completes
    /// without touching shared memory.
    ///
    /// The prediction is conservative where it must be (a poised CAS counts
    /// as writing even if it will fail), which is the safe direction for the
    /// explorer's sleep-set filtering.
    pub fn next_access(&self, pid: ProcessId) -> Option<StepAccess> {
        if let Some(op) = self.poised(pid) {
            return Some(op.access());
        }
        let call = self.peek_queued(pid)?;
        self.procs[pid].first_step(call).map(|op| op.access())
    }

    /// The register configuration `reg(C)` (all base-object values).
    pub fn registers(&self) -> Vec<u64> {
        self.memory.snapshot()
    }

    /// The shared memory.
    pub fn memory(&self) -> &SharedMemory {
        &self.memory
    }

    /// The recorded history of completed method calls.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Shared-memory steps taken by the last completed method call of `pid`.
    pub fn last_op_steps(&self, pid: ProcessId) -> u64 {
        self.last_steps[pid]
    }

    /// Maximum steps observed for any single method call of `pid`.
    pub fn max_op_steps(&self, pid: ProcessId) -> u64 {
        self.max_steps[pid]
    }

    /// Total shared-memory steps taken by `pid`.
    pub fn total_steps(&self, pid: ProcessId) -> u64 {
        self.total_steps[pid]
    }

    /// Processes poised to *write* to each object — the covering sets
    /// `WCov(C, R)` of the paper (restricted to plain writes).
    pub fn write_covers(&self) -> Vec<(ObjId, Vec<ProcessId>)> {
        self.covers(|op| op.is_write())
    }

    /// Processes poised to *CAS* each object — `CCov(C, R)`.
    pub fn cas_covers(&self) -> Vec<(ObjId, Vec<ProcessId>)> {
        self.covers(|op| op.is_cas())
    }

    fn covers(&self, pred: impl Fn(&BaseOp) -> bool) -> Vec<(ObjId, Vec<ProcessId>)> {
        let mut result: Vec<(ObjId, Vec<ProcessId>)> =
            (0..self.memory.len()).map(|o| (o, Vec::new())).collect();
        for pid in 0..self.processes() {
            if let Some(op) = self.poised(pid) {
                if pred(&op) {
                    result[op.object()].1.push(pid);
                }
            }
        }
        result
    }

    /// Number of distinct objects currently covered by a poised write.
    pub fn covered_register_count(&self) -> usize {
        self.write_covers()
            .iter()
            .filter(|(_, pids)| !pids.is_empty())
            .count()
    }

    /// Schedule process `pid` for one step.
    pub fn step(&mut self, pid: ProcessId) -> StepOutcome {
        if self.pending[pid].is_none() {
            let Some(call) = self.queues[pid].pop_front() else {
                return StepOutcome::Idle;
            };
            let invoked = self.tick();
            self.current_steps[pid] = 0;
            match self.procs[pid].invoke(call) {
                Some(response) => {
                    self.record(pid, call, response, invoked);
                    return StepOutcome::CompletedImmediately;
                }
                None => {
                    self.pending[pid] = Some((call, invoked));
                }
            }
        }

        let op = self.procs[pid].poised();
        let result = self.memory.apply(op);
        // Post-hoc footprint: a failed CAS observed the object but left it
        // unchanged, so it commutes with reads (and other failed CASes).
        let mut access = op.access();
        if let StepResult::CasOutcome { success, .. } = result {
            access.writes = success;
        }
        self.tick();
        self.current_steps[pid] += 1;
        self.total_steps[pid] += 1;
        match self.procs[pid].apply(result) {
            Some(response) => {
                let (call, invoked) = self.pending[pid].take().expect("pending call");
                self.record(pid, call, response, invoked);
                StepOutcome::Stepped {
                    completed: true,
                    access,
                }
            }
            None => StepOutcome::Stepped {
                completed: false,
                access,
            },
        }
    }

    /// Schedule process `pid` for one step under footprint auditing: the
    /// step's pre-declared footprint ([`Self::next_access`]) and post-hoc
    /// declared footprint ([`StepOutcome::Stepped`]) are both diffed against
    /// the shared memory's ground-truth [`ActualAccess`](crate::ActualAccess)
    /// record by `auditor`.  Behaviourally identical to [`Self::step`] — the
    /// audit only observes.
    pub fn step_audited(
        &mut self,
        pid: ProcessId,
        auditor: &mut crate::audit::FootprintAuditor,
    ) -> StepOutcome {
        let predicted = self.next_access(pid);
        let before = self.memory.applied_ops();
        let outcome = self.step(pid);
        let actual = (self.memory.applied_ops() > before)
            .then(|| self.memory.last_actual().expect("op was applied"));
        if !matches!(outcome, StepOutcome::Idle) {
            auditor.observe(pid, predicted, outcome.access(), actual);
        }
        outcome
    }

    /// Run an explicit schedule (a sequence of process IDs); processes with
    /// nothing to do are skipped silently, matching the paper's convention
    /// that idle processes take no steps.
    pub fn run_schedule(&mut self, schedule: &[ProcessId]) {
        for &pid in schedule {
            let _ = self.step(pid);
        }
    }

    /// Run process `pid` alone until its current / next queued method call
    /// completes (a `p`-only execution fragment).  Returns `false` if there
    /// was nothing to run.
    pub fn run_process_to_completion(&mut self, pid: ProcessId) -> bool {
        if self.is_idle(pid) && self.queues[pid].is_empty() {
            return false;
        }
        loop {
            match self.step(pid) {
                StepOutcome::Idle => return false,
                StepOutcome::CompletedImmediately => return true,
                StepOutcome::Stepped {
                    completed: true, ..
                } => return true,
                StepOutcome::Stepped {
                    completed: false, ..
                } => {}
            }
        }
    }

    /// Round-robin every process until the simulation is quiescent.
    pub fn run_until_quiescent(&mut self) {
        while !self.is_quiescent() {
            for pid in 0..self.processes() {
                let _ = self.step(pid);
            }
        }
    }

    fn tick(&mut self) -> u64 {
        let t = self.clock;
        self.clock += 1;
        t
    }

    fn record(&mut self, pid: ProcessId, call: MethodCall, response: MethodResponse, invoked: u64) {
        let responded = self.tick();
        self.last_steps[pid] = self.current_steps[pid];
        self.max_steps[pid] = self.max_steps[pid].max(self.current_steps[pid]);
        let kind = match (call, response) {
            (MethodCall::DWrite(value), MethodResponse::WriteDone) => OpKind::DWrite { value },
            (MethodCall::DRead, MethodResponse::ReadResult(value, flag)) => {
                OpKind::DRead { value, flag }
            }
            (MethodCall::Ll, MethodResponse::LlResult(value)) => OpKind::Ll { value },
            (MethodCall::Sc(value), MethodResponse::ScResult(success)) => {
                OpKind::Sc { value, success }
            }
            (MethodCall::Vl, MethodResponse::VlResult(valid)) => OpKind::Vl { valid },
            (MethodCall::Push(value), MethodResponse::PushResult(ok)) => OpKind::Push { value, ok },
            (MethodCall::Pop, MethodResponse::PopResult(value)) => OpKind::Pop { value },
            (MethodCall::Enqueue(value), MethodResponse::EnqueueResult(ok)) => {
                OpKind::Enqueue { value, ok }
            }
            (MethodCall::Dequeue, MethodResponse::DequeueResult(value)) => {
                OpKind::Dequeue { value }
            }
            (MethodCall::Insert(key), MethodResponse::InsertResult(ok)) => {
                OpKind::Insert { key, ok }
            }
            (MethodCall::Remove(key), MethodResponse::RemoveResult(ok)) => {
                OpKind::Remove { key, ok }
            }
            (MethodCall::Contains(key), MethodResponse::ContainsResult(found)) => {
                OpKind::Contains { key, found }
            }
            (call, response) => panic!("mismatched call/response pair: {call:?} / {response:?}"),
        };
        self.history.push(OpRecord {
            pid,
            kind,
            invoked,
            responded,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::baselines::TaggedSim;
    use crate::algorithms::fig4::Fig4Sim;

    #[test]
    fn idle_process_reports_idle() {
        let algo = TaggedSim::new(2);
        let mut sim = Simulation::new(&algo);
        assert_eq!(sim.step(0), StepOutcome::Idle);
        assert!(sim.is_quiescent());
    }

    #[test]
    fn step_outcomes_track_completion() {
        let algo = TaggedSim::new(2);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::DWrite(1));
        // TaggedSim's DWrite is a single write step: first step invokes and
        // executes it, and the footprint is a write of object 0.
        assert_eq!(
            sim.step(0),
            StepOutcome::Stepped {
                completed: true,
                access: StepAccess {
                    obj: 0,
                    writes: true
                }
            }
        );
        assert_eq!(sim.last_op_steps(0), 1);
        assert!(sim.is_quiescent());
    }

    #[test]
    fn fig4_write_blocks_mid_method_and_is_visible_as_poised() {
        let algo = Fig4Sim::new(3);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::DWrite(9));
        // First step: the GetSeq announce-array read.
        let first = sim.step(0);
        assert!(matches!(
            first,
            StepOutcome::Stepped {
                completed: false,
                ..
            }
        ));
        assert!(!first.access().unwrap().writes);
        // Now the process is poised to write X (object 0).
        let poised = sim.poised(0).unwrap();
        assert!(poised.is_write());
        assert_eq!(poised.object(), 0);
        assert_eq!(sim.covered_register_count(), 1);
        assert!(matches!(
            sim.step(0),
            StepOutcome::Stepped {
                completed: true,
                ..
            }
        ));
        assert_eq!(sim.last_op_steps(0), 2);
    }

    #[test]
    fn histories_are_well_formed_and_checkable() {
        let algo = Fig4Sim::new(3);
        let mut sim = Simulation::new(&algo);
        for round in 0..5u32 {
            sim.enqueue(0, MethodCall::DWrite(round));
            sim.enqueue(1, MethodCall::DRead);
            sim.enqueue(2, MethodCall::DRead);
        }
        sim.run_until_quiescent();
        assert!(sim.history().is_well_formed());
        assert_eq!(sim.history().len(), 15);
        assert!(aba_spec::weak::check_weak_history(sim.history()).is_empty());
    }

    #[test]
    fn interleaved_schedule_produces_overlapping_operations() {
        let algo = Fig4Sim::new(2);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::DWrite(1));
        sim.enqueue(1, MethodCall::DRead);
        // Alternate strictly: the two operations overlap in the history.
        sim.run_schedule(&[0, 1, 0, 1, 1, 1, 1]);
        sim.run_until_quiescent();
        let ops = sim.history().ops();
        assert_eq!(ops.len(), 2);
        assert!(ops[0].overlaps(&ops[1]));
    }

    #[test]
    fn max_step_tracking() {
        let algo = Fig4Sim::new(2);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(1, MethodCall::DRead);
        sim.run_process_to_completion(1);
        sim.enqueue(1, MethodCall::DRead);
        sim.run_process_to_completion(1);
        assert_eq!(sim.max_op_steps(1), 4);
        assert_eq!(sim.total_steps(1), 8);
    }

    #[test]
    fn failed_cas_footprint_is_a_read_and_predictions_are_conservative() {
        use crate::algorithms::queue::QueueSim;
        let algo = QueueSim::unprotected(2, 3);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::Enqueue(1));
        sim.enqueue(1, MethodCall::Enqueue(2));
        // Before anything runs, an idle process's next access is its call's
        // declared first step: the free-set read (object 2).
        let predicted = sim.next_access(0).unwrap();
        assert_eq!(
            predicted,
            StepAccess {
                obj: 2,
                writes: false
            }
        );
        // Both read the free mask, then race the allocation CAS.
        assert!(!sim.step(0).access().unwrap().writes);
        assert!(!sim.step(1).access().unwrap().writes);
        // Poised-CAS predictions are conservatively writing for both…
        assert!(sim.next_access(0).unwrap().writes);
        assert!(sim.next_access(1).unwrap().writes);
        // …but post-hoc the winner wrote and the loser only observed.
        let won = sim.step(0).access().unwrap();
        assert_eq!(
            won,
            StepAccess {
                obj: 2,
                writes: true
            }
        );
        let lost = sim.step(1).access().unwrap();
        assert_eq!(
            lost,
            StepAccess {
                obj: 2,
                writes: false
            }
        );
        // A process with nothing at all to do has no next access.
        let idle = Simulation::new(&algo);
        assert_eq!(idle.next_access(0), None);
    }

    #[test]
    fn an_idle_process_predicts_its_first_step_from_its_live_state() {
        // Figure 4's `GetSeq` scans the announce array round-robin, so the
        // slot a `DWrite` reads first depends on how many the writer has
        // completed: a prediction taken from a fresh process names slot 1
        // forever.
        let algo = Fig4Sim::new(3);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::DWrite(1));
        sim.enqueue(0, MethodCall::DWrite(2));
        assert_eq!(sim.next_access(0).map(|a| a.obj), Some(1));
        assert!(sim.run_process_to_completion(0));
        let predicted = sim.next_access(0).unwrap();
        let touched = sim.step(0).access().unwrap();
        assert_eq!(predicted, touched);
        assert_eq!(touched.obj, 2);
    }

    #[test]
    fn covers_distinguish_write_and_cas() {
        use crate::algorithms::fig3::Fig3Sim;
        let algo = Fig3Sim::new(2);
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::Ll);
        sim.enqueue(0, MethodCall::Sc(5));
        sim.run_process_to_completion(0); // LL

        // Start the SC and stop right before its CAS.
        let _ = sim.step(0); // read X
        let cas_covers = sim.cas_covers();
        assert_eq!(cas_covers[0].1, vec![0]);
        assert!(sim.write_covers()[0].1.is_empty());
    }
}
