//! Footprint-soundness auditing: shadow-memory verification that every step
//! machine's *declared* memory footprint matches the memory it *actually*
//! touches.
//!
//! The exhaustive explorer ([`crate::explore::dpor`]) is only as sound as
//! the [`StepAccess`] footprints it reasons with: its dependency relation,
//! backtrack insertion and sleep-set filtering all consume the footprints a
//! step machine *declares* — predictively through [`Simulation::next_access`]
//! (poised steps and [`SimProcess::first_step`] declarations) and post hoc
//! through [`StepOutcome::Stepped`] (where the executor downgrades a failed
//! CAS to a read).  A machine that **under-reports** — touches an object it
//! did not declare, or mutates where it declared a read — silently removes
//! dependency edges, so the Flanagan–Godefroid reduction can prune a class
//! containing the only witness: "no witness found" stops being a proof.
//! Over-reporting is harmless by contrast; it only costs reduction.
//!
//! The auditor closes the loop with the *ground truth*: [`SharedMemory`]
//! itself records an [`ActualAccess`] for every operation it applies (the
//! shadow memory), and [`Simulation::step_audited`] diffs each executed
//! step's declarations against that record via [`FootprintAuditor::observe`].
//!
//! Two checks run per step:
//!
//! 1. **prediction soundness** — the pre-step `next_access` declaration must
//!    name the object actually touched and must not claim a read where a
//!    mutation landed (predicting a write for a CAS that then fails is the
//!    allowed, counted over-report);
//! 2. **post-hoc consistency** — the footprint in [`StepOutcome::Stepped`]
//!    must agree *exactly* with the shadow record, in particular the
//!    executor's failed-CAS downgrade must match the actual mutation bit
//!    (the property `dpor.rs`'s dependency relation relies on).
//!
//! Run over bursty random schedules and over complete DPOR frontiers (see
//! [`audit_bursty`] and [`explore_exhaustive_audited`]) for every protected
//! row of the model roster ([`standard_family_audits`]), a clean audit
//! certifies the footprint layer the E11 bounds stand on.
//!
//! [`Simulation::next_access`]: crate::executor::Simulation::next_access
//! [`Simulation::step_audited`]: crate::executor::Simulation::step_audited
//! [`SimProcess::first_step`]: crate::algorithm::SimProcess::first_step
//! [`StepOutcome::Stepped`]: crate::executor::StepOutcome::Stepped
//! [`SharedMemory`]: crate::object::SharedMemory

use aba_spec::ProcessId;

use crate::algorithm::SimAlgorithm;
use crate::explore::dpor::{explore_exhaustive_audited, DporConfig};
use crate::explore::SimWorkload;
use crate::object::{ActualAccess, StepAccess};
use crate::roster::{SimModel, MODEL_ROSTER};
use crate::schedule;

/// Which of the auditor's diff checks are active.
///
/// Both default to `true`; the switches exist so the non-vacuity tests can
/// prove each check is load-bearing (a seeded footprint-lying machine must
/// be caught with the check on and sail through with it off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Diff the pre-step `next_access` prediction against the shadow record.
    pub check_predictions: bool,
    /// Diff the post-hoc [`StepOutcome::Stepped`](crate::StepOutcome)
    /// footprint against the shadow record.
    pub check_posthoc: bool,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            check_predictions: true,
            check_posthoc: true,
        }
    }
}

/// How a declared footprint under-reported the actual one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnderReportKind {
    /// The prediction named a different object than the step touched.
    PredictedWrongObject,
    /// The prediction claimed a read, but the step mutated the object.
    PredictedReadActualWrite,
    /// No prediction at all, yet a shared-memory step executed.
    PredictedNone,
    /// The post-hoc footprint named a different object than the shadow
    /// record.
    PosthocWrongObject,
    /// The post-hoc mutation bit disagreed with the shadow record — e.g.
    /// the executor's failed-CAS downgrade broke.
    PosthocMutationMismatch,
    /// A step outcome was declared without any shared-memory operation
    /// reaching the memory, or vice versa.
    PhantomStep,
}

/// One recorded under-report: the hard-failure evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnderReport {
    /// The process whose step was mis-declared.
    pub pid: ProcessId,
    /// The failure class.
    pub kind: UnderReportKind,
    /// The pre-step prediction, as declared.
    pub predicted: Option<StepAccess>,
    /// The post-hoc footprint, as declared.
    pub declared: Option<StepAccess>,
    /// The shadow memory's ground truth, if an operation reached it.
    pub actual: Option<ActualAccess>,
}

/// The footprint-soundness auditor: accumulates per-step diff results.
#[derive(Debug, Clone, Default)]
pub struct FootprintAuditor {
    /// Active checks.
    pub config: AuditConfig,
    /// Steps that reached shared memory and were diffed.
    pub steps_audited: u64,
    /// Predicted-write/actual-read steps (failed CASes, conservatively
    /// writing predictions).  Harmless: they only cost reduction.
    pub over_reports: u64,
    /// Calls that completed without a shared-memory step while a first step
    /// was predicted — the documented, allowed over-approximation of
    /// [`SimProcess::first_step`](crate::algorithm::SimProcess::first_step).
    pub immediate_over_predictions: u64,
    /// Every under-report found.  Any entry is a soundness failure.
    pub under_reports: Vec<UnderReport>,
}

impl FootprintAuditor {
    /// A strict auditor (both checks on).
    pub fn new() -> Self {
        FootprintAuditor::default()
    }

    /// An auditor with an explicit check configuration.
    pub fn with_config(config: AuditConfig) -> Self {
        FootprintAuditor {
            config,
            ..FootprintAuditor::default()
        }
    }

    /// `true` iff no under-report has been recorded.
    pub fn sound(&self) -> bool {
        self.under_reports.is_empty()
    }

    /// Diff one executed step's declarations against the shadow record.
    ///
    /// `predicted` is the pre-step
    /// [`Simulation::next_access`](crate::executor::Simulation::next_access)
    /// declaration, `declared` the post-hoc
    /// [`StepOutcome`](crate::StepOutcome) footprint (`None` when no step
    /// outcome carried one), `actual` the shadow memory's ground truth for
    /// this step (`None` when no operation reached the memory).
    pub fn observe(
        &mut self,
        pid: ProcessId,
        predicted: Option<StepAccess>,
        declared: Option<StepAccess>,
        actual: Option<ActualAccess>,
    ) {
        let fail = |kind| UnderReport {
            pid,
            kind,
            predicted,
            declared,
            actual,
        };
        match (declared, actual) {
            (Some(d), Some(a)) => {
                self.steps_audited += 1;
                if self.config.check_posthoc {
                    if d.obj != a.obj {
                        let f = fail(UnderReportKind::PosthocWrongObject);
                        self.under_reports.push(f);
                    } else if d.writes != a.mutated {
                        let f = fail(UnderReportKind::PosthocMutationMismatch);
                        self.under_reports.push(f);
                    }
                }
                if self.config.check_predictions {
                    match predicted {
                        None => {
                            let f = fail(UnderReportKind::PredictedNone);
                            self.under_reports.push(f);
                        }
                        Some(p) if p.obj != a.obj => {
                            let f = fail(UnderReportKind::PredictedWrongObject);
                            self.under_reports.push(f);
                        }
                        Some(p) if a.mutated && !p.writes => {
                            let f = fail(UnderReportKind::PredictedReadActualWrite);
                            self.under_reports.push(f);
                        }
                        Some(p) => {
                            if p.writes && !a.mutated {
                                self.over_reports += 1;
                            }
                        }
                    }
                }
            }
            (None, None) => {
                // A call completing on invocation (or an idle process).  A
                // predicted first step here is the documented allowed
                // over-approximation.
                if predicted.is_some() {
                    self.immediate_over_predictions += 1;
                }
            }
            // A declared step that never reached the memory, or a memory
            // operation without a step outcome: the executor's bookkeeping
            // itself is lying.
            (Some(_), None) | (None, Some(_)) => {
                let f = fail(UnderReportKind::PhantomStep);
                self.under_reports.push(f);
            }
        }
    }
}

/// Summary of one audited roster row, as reported by `table_lint`.
#[derive(Debug, Clone)]
pub struct AuditVerdict {
    /// The row's [`SimModel::family`] (`register` / `stack` / `queue` /
    /// `set`).
    pub family: String,
    /// The row's [`SimModel::mode`].
    pub mode: String,
    /// Schedules driven (bursty runs plus DPOR-explored classes).
    pub schedules: u64,
    /// Shared-memory steps diffed.
    pub steps_audited: u64,
    /// Soundness failures (must be 0).
    pub under_reports: u64,
    /// Harmless conservative over-reports (failed CASes etc.).
    pub over_reports: u64,
    /// `true` iff no under-report was recorded.
    pub sound: bool,
}

/// Audit one algorithm under `runs` bursty schedules of `len` steps each
/// (deterministic in `base_seed`), the preemption-style distribution that
/// surfaces ABA windows.  Each schedule drives a fresh audited simulation of
/// `workload`, which is then drained to quiescence (bounded by `4 * len`
/// extra steps so a wedged unprotected structure cannot hang the audit).
/// Returns the auditor with accumulated counts.
pub fn audit_bursty(
    algo: &dyn SimAlgorithm,
    workload: SimWorkload,
    runs: usize,
    len: usize,
    base_seed: u64,
) -> FootprintAuditor {
    let n = algo.n();
    let mut auditor = FootprintAuditor::new();
    for i in 0..runs {
        let mut sim = workload.simulation(algo);
        for pid in schedule::bursty(n, len, 8, base_seed.wrapping_add(i as u64)) {
            let _ = sim.step_audited(pid, &mut auditor);
        }
        let mut extra = 0usize;
        while !sim.is_quiescent() && extra < 4 * len {
            for pid in 0..n {
                let _ = sim.step_audited(pid, &mut auditor);
                extra += 1;
            }
        }
    }
    auditor
}

/// Audit one roster row end to end: `runs` bursty schedules of `len` steps
/// *plus* an audited DPOR frontier of the row's E11 workload at the given
/// exploration config.  Returns the combined verdict.
fn audit_model(model: &SimModel, runs: usize, len: usize, cfg: &DporConfig) -> AuditVerdict {
    let algo = model.build();
    let algo = algo.as_ref();
    // One bursty stream per family (the seeds `BENCH_lint.json`'s tagged
    // rows were recorded with).
    let base_seed = match model.workload {
        SimWorkload::Register { .. } => 11,
        SimWorkload::Queue { .. } => 12,
        SimWorkload::Set { .. } => 13,
        SimWorkload::Stack { .. } => 14,
    };
    let mut auditor = audit_bursty(algo, model.workload, runs, len, base_seed);
    let mut make = || model.workload.simulation(algo);
    let mut check = |_t: &[ProcessId], _h: &aba_spec::History, _q: bool| false;
    let report = explore_exhaustive_audited(algo, &mut make, &mut check, cfg, &mut auditor);
    AuditVerdict {
        family: model.family.to_string(),
        mode: model.mode.to_string(),
        schedules: runs as u64 + report.schedules_executed,
        steps_audited: auditor.steps_audited,
        under_reports: auditor.under_reports.len() as u64,
        over_reports: auditor.over_reports,
        sound: auditor.sound(),
    }
}

/// The standard audit at CI-sized bounds: every protected row of
/// [`MODEL_ROSTER`] is audited under bursty schedules and the DPOR frontier
/// of exactly the space E11 certifies it over — capped at 30k schedules in
/// `quick` mode (which `stack/hazard`, `stack/epoch`, `queue/tagged` and
/// `set/hazard` exceed), whole otherwise (the default cap of 1M is above
/// the largest space, `stack/epoch`'s 283 393 classes).  `quick` also
/// shrinks the bursty batch.
pub fn standard_family_audits(quick: bool) -> Vec<AuditVerdict> {
    let (runs, len) = if quick { (12, 240) } else { (48, 600) };
    let cfg = DporConfig {
        max_schedules: if quick {
            30_000
        } else {
            DporConfig::default().max_schedules
        },
        ..DporConfig::default()
    };
    MODEL_ROSTER
        .iter()
        .filter(|model| model.protected)
        .map(|model| audit_model(model, runs, len, &cfg))
        .collect()
}
