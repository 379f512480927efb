//! Footprint-soundness audit tests: the shadow memory versus declared
//! footprints, over honest machines (clean), deliberately lying machines
//! (caught — and demonstrably *not* caught when the diff check is disabled,
//! proving the check is load-bearing), and the executor's failed-CAS
//! post-hoc downgrade that `dpor.rs`'s dependency relation relies on.

use std::cell::Cell;

use aba_sim::algorithms::baselines::TaggedSim;
use aba_sim::algorithms::queue::QueueSim;
use aba_sim::{
    audit_bursty, explore_exhaustive_audited, explore_workload, ActualAccess, AuditConfig,
    BaseObject, BaseOp, DporConfig, FootprintAuditor, MethodCall, MethodResponse, SimAlgorithm,
    SimProcess, SimWorkload, Simulation, StepAccess, StepResult, UnderReportKind, MODEL_ROSTER,
};

// ---------------------------------------------------------------------------
// Honest machines: clean audits
// ---------------------------------------------------------------------------

#[test]
fn honest_families_audit_clean_under_bursty_schedules() {
    for (seed, model) in MODEL_ROSTER.iter().filter(|m| m.protected).enumerate() {
        let algo = model.build();
        let a = audit_bursty(algo.as_ref(), model.workload, 6, 200, seed as u64 + 1);
        assert!(
            a.sound(),
            "honest {} under-reported: {:?}",
            model.key(),
            a.under_reports
        );
        assert!(a.steps_audited > 0, "audit must actually diff steps");
    }
}

#[test]
fn audited_dpor_exploration_is_clean_and_does_not_perturb_the_search() {
    let algo = TaggedSim::new(3);
    let workload = SimWorkload::Register {
        writes: 4,
        reads: 2,
    };
    let cfg = DporConfig::default();
    let plain = explore_workload(&algo, workload, &cfg);

    let mut auditor = FootprintAuditor::new();
    let mut make = || workload.simulation(&algo);
    let mut check = |_t: &[usize], _h: &aba_spec::History, _q: bool| false;
    let audited = explore_exhaustive_audited(&algo, &mut make, &mut check, &cfg, &mut auditor);

    assert!(auditor.sound(), "{:?}", auditor.under_reports);
    assert_eq!(audited.schedules_executed, plain.schedules_executed);
    assert_eq!(audited.classes_pruned, plain.classes_pruned);
    assert_eq!(
        auditor.steps_audited, audited.steps_executed,
        "every explored step must be diffed"
    );
}

// ---------------------------------------------------------------------------
// A machine lying in its `first_step` declaration (wrong object)
// ---------------------------------------------------------------------------

/// One-step writer whose *declared* first step is a read of object 0, while
/// the step it actually executes is a write of object 1 — exactly the lie
/// that silently deletes dependency edges from the DPOR reduction.
#[derive(Debug)]
struct WrongFirstStepAlgo {
    n: usize,
}

#[derive(Debug, Clone)]
struct WrongFirstStepProc {
    pending: Option<u32>,
}

impl SimProcess for WrongFirstStepProc {
    fn invoke(&mut self, call: MethodCall) -> Option<MethodResponse> {
        match call {
            MethodCall::DWrite(v) => {
                self.pending = Some(v);
                None
            }
            other => panic!("unsupported call {other:?}"),
        }
    }

    fn poised(&self) -> BaseOp {
        BaseOp::Write(1, u64::from(self.pending.expect("mid-method")))
    }

    fn apply(&mut self, _result: StepResult) -> Option<MethodResponse> {
        self.pending = None;
        Some(MethodResponse::WriteDone)
    }

    fn is_idle(&self) -> bool {
        self.pending.is_none()
    }

    fn clone_box(&self) -> Box<dyn SimProcess> {
        Box::new(self.clone())
    }

    fn first_step(&self, _call: MethodCall) -> Option<BaseOp> {
        // The lie: declares a read of object 0.
        Some(BaseOp::Read(0))
    }
}

impl SimAlgorithm for WrongFirstStepAlgo {
    fn n(&self) -> usize {
        self.n
    }

    fn name(&self) -> &'static str {
        "liar/wrong-first-step"
    }

    fn initial_objects(&self) -> Vec<BaseObject> {
        vec![BaseObject::register(0), BaseObject::register(0)]
    }

    fn spawn(&self, _pid: usize) -> Box<dyn SimProcess> {
        Box::new(WrongFirstStepProc { pending: None })
    }
}

#[test]
fn wrong_first_step_declaration_is_caught() {
    let algo = WrongFirstStepAlgo { n: 1 };
    let mut sim = Simulation::new(&algo);
    sim.enqueue(0, MethodCall::DWrite(7));
    let mut auditor = FootprintAuditor::new();
    let _ = sim.step_audited(0, &mut auditor);
    assert!(!auditor.sound());
    assert_eq!(
        auditor.under_reports[0].kind,
        UnderReportKind::PredictedWrongObject
    );
}

#[test]
fn wrong_first_step_sails_through_with_the_prediction_check_disabled() {
    // Non-vacuity: it is the prediction diff, not anything else in the
    // pipeline, that catches the lie — disable it and the liar audits clean.
    let algo = WrongFirstStepAlgo { n: 1 };
    let mut sim = Simulation::new(&algo);
    sim.enqueue(0, MethodCall::DWrite(7));
    let mut auditor = FootprintAuditor::with_config(AuditConfig {
        check_predictions: false,
        check_posthoc: true,
    });
    let _ = sim.step_audited(0, &mut auditor);
    assert!(auditor.sound(), "check disabled: the lie must go unnoticed");
    assert_eq!(auditor.steps_audited, 1);
}

#[test]
fn dpor_frontier_audit_catches_the_lying_machine() {
    // The lie must also be caught *inside* an exhaustive exploration — the
    // context where it actually unsounds something.
    let algo = WrongFirstStepAlgo { n: 2 };
    let mut make = || {
        let mut sim = Simulation::new(&algo);
        sim.enqueue(0, MethodCall::DWrite(1));
        sim.enqueue(1, MethodCall::DWrite(2));
        sim
    };
    let mut check = |_t: &[usize], _h: &aba_spec::History, _q: bool| false;
    let cfg = DporConfig::default();
    let mut auditor = FootprintAuditor::new();
    let report = explore_exhaustive_audited(&algo, &mut make, &mut check, &cfg, &mut auditor);
    assert!(report.complete);
    assert!(!auditor.sound());
    assert!(auditor
        .under_reports
        .iter()
        .all(|u| u.kind == UnderReportKind::PredictedWrongObject));
}

// ---------------------------------------------------------------------------
// A machine disguising a mutation as a read (poised flip-flop)
// ---------------------------------------------------------------------------

/// Two-step machine whose second step *polls* differently than it executes:
/// the first `poised()` call in each scheduling round (the one `next_access`
/// sees) claims `Read(0)`, the second (the one the executor applies) is
/// `Write(0)` — an under-reported mutation on the right object.
#[derive(Debug)]
struct DisguisedWriteAlgo;

#[derive(Debug, Clone)]
struct DisguisedWriteProc {
    /// 0 = idle, 1 = before honest read step, 2 = before the lying step.
    state: u8,
    value: u32,
    polls: Cell<u8>,
}

impl SimProcess for DisguisedWriteProc {
    fn invoke(&mut self, call: MethodCall) -> Option<MethodResponse> {
        match call {
            MethodCall::DWrite(v) => {
                self.state = 1;
                self.value = v;
                self.polls.set(0);
                None
            }
            other => panic!("unsupported call {other:?}"),
        }
    }

    fn poised(&self) -> BaseOp {
        match self.state {
            1 => BaseOp::Read(0),
            2 => {
                let polls = self.polls.get();
                self.polls.set(polls + 1);
                if polls.is_multiple_of(2) {
                    // What the predictor sees.
                    BaseOp::Read(0)
                } else {
                    // What actually executes.
                    BaseOp::Write(0, u64::from(self.value))
                }
            }
            _ => panic!("not mid-method"),
        }
    }

    fn apply(&mut self, _result: StepResult) -> Option<MethodResponse> {
        match self.state {
            1 => {
                self.state = 2;
                self.polls.set(0);
                None
            }
            2 => {
                self.state = 0;
                Some(MethodResponse::WriteDone)
            }
            _ => unreachable!(),
        }
    }

    fn is_idle(&self) -> bool {
        self.state == 0
    }

    fn clone_box(&self) -> Box<dyn SimProcess> {
        Box::new(self.clone())
    }
}

impl SimAlgorithm for DisguisedWriteAlgo {
    fn n(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "liar/disguised-write"
    }

    fn initial_objects(&self) -> Vec<BaseObject> {
        vec![BaseObject::register(0)]
    }

    fn spawn(&self, _pid: usize) -> Box<dyn SimProcess> {
        Box::new(DisguisedWriteProc {
            state: 0,
            value: 0,
            polls: Cell::new(0),
        })
    }
}

#[test]
fn mutation_disguised_as_a_read_is_caught() {
    let algo = DisguisedWriteAlgo;
    let mut sim = Simulation::new(&algo);
    sim.enqueue(0, MethodCall::DWrite(9));
    let mut auditor = FootprintAuditor::new();
    let _ = sim.step_audited(0, &mut auditor); // honest read
    assert!(auditor.sound());
    let _ = sim.step_audited(0, &mut auditor); // the disguised write
    assert!(!auditor.sound());
    assert_eq!(
        auditor.under_reports[0].kind,
        UnderReportKind::PredictedReadActualWrite
    );
    // The lie landed: the register really was written.
    assert_eq!(sim.memory().peek(0), 9);
}

#[test]
fn disguised_mutation_sails_through_with_the_prediction_check_disabled() {
    let algo = DisguisedWriteAlgo;
    let mut sim = Simulation::new(&algo);
    sim.enqueue(0, MethodCall::DWrite(9));
    let mut auditor = FootprintAuditor::with_config(AuditConfig {
        check_predictions: false,
        check_posthoc: true,
    });
    let _ = sim.step_audited(0, &mut auditor);
    let _ = sim.step_audited(0, &mut auditor);
    assert!(auditor.sound(), "check disabled: the lie must go unnoticed");
}

// ---------------------------------------------------------------------------
// The failed-CAS post-hoc downgrade (what dpor.rs relies on)
// ---------------------------------------------------------------------------

#[test]
fn failed_cas_downgrade_agrees_with_the_shadow_memory() {
    // Reproduce the deterministic allocation race of the executor tests
    // under audit: both processes read the free mask, then race the
    // allocation CAS — the winner's post-hoc footprint is a write, the
    // loser's is downgraded to a read, and both must agree with the shadow
    // memory's actual mutation bit.
    let algo = QueueSim::unprotected(2, 3);
    let mut sim = Simulation::new(&algo);
    sim.enqueue(0, MethodCall::Enqueue(1));
    sim.enqueue(1, MethodCall::Enqueue(2));
    let mut auditor = FootprintAuditor::new();
    let _ = sim.step_audited(0, &mut auditor); // read free mask
    let _ = sim.step_audited(1, &mut auditor); // read free mask
    let _ = sim.step_audited(0, &mut auditor); // CAS wins (mutates)
    let _ = sim.step_audited(1, &mut auditor); // CAS loses (read-only)
    assert!(auditor.sound(), "{:?}", auditor.under_reports);
    assert_eq!(auditor.steps_audited, 4);
    // Exactly one conservative over-report: the losing CAS was predicted
    // writing and actually only observed.
    assert_eq!(auditor.over_reports, 1);
}

#[test]
fn posthoc_downgrade_disagreement_is_flagged_by_observe() {
    // Regression guard for the one property `dpor.rs` assumes of
    // `StepOutcome::Stepped`: the declared mutation bit equals the actual
    // one.  If the executor ever stopped downgrading a failed CAS (declared
    // writes=true, actual mutated=false reversed into an under-report
    // direction), the audit must flag it.
    let declared_write = StepAccess {
        obj: 0,
        writes: true,
    };
    let actual_read = ActualAccess {
        obj: 0,
        mutated: false,
    };
    let mut auditor = FootprintAuditor::new();
    auditor.observe(
        0,
        Some(declared_write),
        Some(declared_write),
        Some(actual_read),
    );
    assert!(!auditor.sound());
    assert_eq!(
        auditor.under_reports[0].kind,
        UnderReportKind::PosthocMutationMismatch
    );

    // And the dangerous direction: declared read, actual mutation.
    let declared_read = StepAccess {
        obj: 0,
        writes: false,
    };
    let actual_write = ActualAccess {
        obj: 0,
        mutated: true,
    };
    let mut auditor = FootprintAuditor::new();
    auditor.observe(
        0,
        Some(declared_read),
        Some(declared_read),
        Some(actual_write),
    );
    assert!(auditor
        .under_reports
        .iter()
        .any(|u| u.kind == UnderReportKind::PosthocMutationMismatch));

    // Non-vacuity: with the post-hoc check disabled the same mismatch goes
    // unnoticed (the prediction check also off to isolate the post-hoc one).
    let mut auditor = FootprintAuditor::with_config(AuditConfig {
        check_predictions: false,
        check_posthoc: false,
    });
    auditor.observe(
        0,
        Some(declared_write),
        Some(declared_write),
        Some(actual_read),
    );
    assert!(
        auditor.sound(),
        "check disabled: mismatch must go unnoticed"
    );
}

#[test]
fn phantom_steps_are_flagged_in_both_directions() {
    let access = StepAccess {
        obj: 0,
        writes: false,
    };
    let actual = ActualAccess {
        obj: 0,
        mutated: false,
    };
    let mut auditor = FootprintAuditor::new();
    auditor.observe(0, None, Some(access), None);
    auditor.observe(0, None, None, Some(actual));
    assert_eq!(auditor.under_reports.len(), 2);
    assert!(auditor
        .under_reports
        .iter()
        .all(|u| u.kind == UnderReportKind::PhantomStep));
}

#[test]
fn immediate_completion_with_a_predicted_first_step_is_a_counted_over_approximation() {
    let mut auditor = FootprintAuditor::new();
    auditor.observe(
        0,
        Some(StepAccess {
            obj: 0,
            writes: false,
        }),
        None,
        None,
    );
    assert!(auditor.sound());
    assert_eq!(auditor.immediate_over_predictions, 1);
}
