//! The gates: every rule a table binary fails its run on, as a function over
//! the binary's *typed* result, so each rule is written once and unit-tested
//! instead of living in a `main` plus a regex over the serialised document.
//!
//! Each function returns one message per violation, naming the offending
//! cell, row or object; an empty vector is a pass.  The binaries print the messages
//! and exit 1 through [`exit_on_failures`](crate::exit_on_failures).
//! DESIGN.md ("Gates") maps every rule CI used to grep for onto a function
//! here or a golden test.

use aba_analyze::LintReport;
use aba_lockfree::{Scheme, StressReport};
use aba_sim::AuditVerdict;
use aba_workload::{roster_node_capacity, MatrixResult};

use crate::DporRow;

/// One map variant's segmented arena before and after the E13 conservation
/// run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaGrowth {
    /// Display label of the map variant.
    pub structure: String,
    /// Nodes in the arena's initial segment.
    pub initial: usize,
    /// Nodes in all segments published by the end of the run.
    pub live: usize,
    /// Bucket-array size at the end of the run.
    pub buckets: usize,
}

/// The engine-matrix gate (`table_matrix`).
///
/// * **zero ops**, every cell: a backend that silently wedges, or a scheme
///   whose reclamation starves the arena into a no-op loop, shows up as a
///   cell with no completed or no productive operations.
/// * **limbo bound**, `limbo_bound` rows only (E9/E15): an epoch or hazard
///   cell whose peak unreclaimed footprint reaches its arena has parked the
///   entire retirable set in limbo — the pre-E15 pathology.  The arena is
///   the roster capacity at the cell's thread count; the queue provisions
///   one node more for its rotating dummy, which is also the one node that
///   can never sit in limbo, so `peak < arena` is exact for both families.
/// * **arena growth**, every `growth` row (E13): a map whose arena never
///   published a second segment measured a pre-sized fiction.
pub fn matrix(result: &MatrixResult, limbo_bound: bool, growth: &[ArenaGrowth]) -> Vec<String> {
    let mut failures = Vec::new();
    for cell in &result.cells {
        let key = format!("{}/{}@{}thr", cell.scenario, cell.backend, cell.threads);
        if cell.ops_per_rep == 0 || cell.ops_per_sec <= 0.0 {
            failures.push(format!("{key}: completed zero ops"));
        }
        let deferred = cell.backend.ends_with("/epoch") || cell.backend.ends_with("/hazard");
        let arena = roster_node_capacity(cell.threads) as u64
            + u64::from(cell.backend.starts_with("queue/"));
        if limbo_bound && deferred && cell.peak_unreclaimed >= arena {
            failures.push(format!(
                "{key}: peak unreclaimed {} reached arena capacity {arena}",
                cell.peak_unreclaimed
            ));
        }
    }
    for g in growth.iter().filter(|g| g.live <= g.initial) {
        failures.push(format!(
            "{}: arena still at its initial {} nodes after the conservation run",
            g.structure, g.initial
        ));
    }
    failures
}

/// The E6 gate (`table_aba_incidence`): the unprotected stack must show the
/// §1 ABA — events detected *and* values lost or duplicated — and every
/// protected stack must detect none and conserve every value.  The first
/// half is what a harness change can silently optimise away (E22: in a
/// scratch prototype one free node cached per thread made every ABA on the
/// 16-node arena benign, and the row read "conserved").
///
/// `rows` may hold several runs of the unprotected stack: every one must
/// record events, one must show damage.  Whether an ABA damages anything is
/// the scheduler's call — with all four workers time-sliced on one core the
/// run recycles in lockstep, 29 987 events and not one of them harmful
/// (E22) — so the binary grants the victim a few paced runs and lists each.
/// The reference host also spends minutes on end giving its two vCPUs one
/// core's worth of time; the binary measures that, and with `parallel_host`
/// false the damage rule, which no code could meet there, is not applied.
pub fn incidence(rows: &[(Scheme, StressReport)], parallel_host: bool) -> Vec<String> {
    let mut failures = Vec::new();
    let describe = |r: &StressReport| {
        format!(
            "{}: {} ABA events, lost {}, duplicated {}",
            r.structure, r.aba_events, r.lost, r.duplicated
        )
    };
    let victims: Vec<&StressReport> = rows
        .iter()
        .filter(|(scheme, _)| *scheme == Scheme::Unprotected)
        .map(|(_, r)| r)
        .collect();
    if parallel_host && victims.iter().all(|r| r.is_conserved()) {
        let runs: Vec<String> = victims.iter().map(|r| describe(r)).collect();
        failures.push(format!(
            "no unprotected run lost or duplicated a value ({} run(s): {}) — nothing \
             demonstrates the ABA's damage",
            runs.len(),
            runs.join("; ")
        ));
    }
    for (scheme, r) in rows {
        if *scheme == Scheme::Unprotected {
            if r.aba_events == 0 {
                failures.push(format!(
                    "{} — the unprotected stack must record ABA events",
                    describe(r)
                ));
            }
        } else if r.aba_events > 0 || !r.is_conserved() {
            failures.push(format!(
                "{} — a protected stack must record none and conserve every value",
                describe(r)
            ));
        }
    }
    failures
}

/// The E11 gate (`table_dpor`): a protected model must yield no witness, cut
/// no trace at the depth bound and drain its space, in quick mode too (a
/// space that outgrows the quick cap fails rather than passing capped); an
/// unprotected model must yield a witness; every exploration must execute at
/// least one schedule.
///
/// The depth-cut rule is lock-freedom: a lock-free model on a finite
/// workload has no infinite execution, so a protected row with a cut trace
/// has either too small a depth bound or a model in which one process waits
/// on another.  Unprotected rows are exempt — a wedged structure (cycled
/// links) *is* their witness, and it spins until the cut.
pub fn dpor(rows: &[DporRow]) -> Vec<String> {
    let mut failures = Vec::new();
    for row in rows {
        let (name, protected) = (row.model.key(), row.model.protected);
        if protected && row.witness_len().is_some() {
            failures.push(format!("{name}: protected mode produced an ABA witness"));
        }
        if !protected && row.witness_len().is_none() {
            failures.push(format!("{name}: unprotected mode produced no witness"));
        }
        if protected && row.report.truncated_traces > 0 {
            failures.push(format!(
                "{name}: {} trace(s) cut at the depth bound — a protected model must be lock-free",
                row.report.truncated_traces
            ));
        }
        if protected && !row.report.complete {
            failures.push(format!("{name}: space not drained"));
        }
        if row.report.schedules_executed == 0 {
            failures.push(format!("{name}: explorer executed zero schedules"));
        }
    }
    failures
}

/// The conformance gate (`table_lint`): no lint finding, no footprint
/// under-report, and neither pillar vacuous (zero files scanned, zero steps
/// audited).
pub fn lint(report: &LintReport, verdicts: &[AuditVerdict]) -> Vec<String> {
    let mut failures = Vec::new();
    if report.files_scanned == 0 {
        failures.push("lint scanned zero files — walker is broken".to_string());
    }
    for f in &report.findings {
        failures.push(format!(
            "lint {} {}:{} {}",
            f.rule, f.file, f.line, f.message
        ));
    }
    for v in verdicts {
        let name = format!("{}/{}", v.family, v.mode);
        if v.steps_audited == 0 {
            failures.push(format!("audit {name}: zero steps audited"));
        }
        if !v.sound {
            failures.push(format!(
                "audit {name}: {} footprint under-report(s) — DPOR soundness broken",
                v.under_reports
            ));
        }
    }
    failures
}

/// How much slower than at the smallest `n` measured a constant-time object
/// may run at the largest before [`scaling`] fails it.
pub const SCALING_BOUND: f64 = 4.0;

/// The E1/E2 wall-clock gate (`table_step_complexity`): an object whose step
/// count the paper proves independent of `n` must not hide a cost that grows
/// with `n` in its local work, where the step counter cannot see it.
/// `ns_by_n` is `object`'s nanoseconds per operation at each `n`, ascending;
/// the last entry may be at most [`SCALING_BOUND`] times the first.
pub fn scaling(object: &str, ns_by_n: &[(usize, f64)]) -> Vec<String> {
    let [(small, base), .., (large, ns)] = *ns_by_n else {
        return vec![format!(
            "{object}: measured at fewer than two process counts"
        )];
    };
    if base <= 0.0 || ns > SCALING_BOUND * base {
        return vec![format!(
            "{object}: {ns:.1} ns/op at n={large} is {:.0}x the {base:.1} ns/op at n={small} \
             (bound {SCALING_BOUND}x) — local work grows with n",
            ns / base
        )];
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aba_analyze::Finding;
    use aba_sim::{ExplorationReport, Witness, WitnessMeta, MODEL_ROSTER};
    use aba_workload::{CellResult, EngineConfig};

    /// Assert that `failures` is exactly one message containing every `part`.
    fn assert_one(failures: &[String], parts: &[&str]) {
        assert_eq!(failures.len(), 1, "{failures:?}");
        for part in parts {
            assert!(
                failures[0].contains(part),
                "{:?} lacks {part:?}",
                failures[0]
            );
        }
    }

    // --- matrix --------------------------------------------------------------

    fn cell(scenario: &str, backend: &str, threads: usize) -> CellResult {
        CellResult {
            scenario: scenario.to_string(),
            backend: backend.to_string(),
            threads,
            ops_per_rep: 8 * threads as u64,
            ops_per_sec: 1000.0,
            failed_ops: 0,
            p50_ns: 10,
            p99_ns: 20,
            peak_unreclaimed: 0,
            repetitions: 1,
        }
    }

    fn result(cells: Vec<CellResult>) -> MatrixResult {
        MatrixResult {
            config: EngineConfig::quick(),
            cells,
        }
    }

    fn grown(live: usize) -> ArenaGrowth {
        ArenaGrowth {
            structure: "SO map (epoch)".to_string(),
            initial: 10,
            live,
            buckets: 256,
        }
    }

    #[test]
    fn a_clean_matrix_passes_every_rule() {
        let arena = roster_node_capacity(4) as u64;
        let mut stack = cell("churn", "stack/epoch", 4);
        stack.peak_unreclaimed = arena - 1;
        // The queue's arena is one node larger (its dummy).
        let mut queue = cell("producer-consumer", "queue/hazard", 4);
        queue.peak_unreclaimed = arena;
        let clean = result(vec![stack, queue, cell("churn", "stack/tagged", 1)]);
        assert_eq!(matrix(&clean, true, &[grown(768)]), Vec::<String>::new());
    }

    #[test]
    fn zero_ops_names_the_dead_cell() {
        let mut wedged = cell("churn", "stack/epoch", 2);
        wedged.ops_per_rep = 0;
        let failures = matrix(
            &result(vec![cell("churn", "stack/tagged", 2), wedged]),
            false,
            &[],
        );
        assert_one(&failures, &["churn/stack/epoch@2thr", "zero ops"]);

        // Every operation failed its allocation: ops ran, none productive.
        for rate in [0.0, -1.0] {
            let mut starved = cell("same-slot", "queue/epoch", 4);
            starved.ops_per_sec = rate;
            let failures = matrix(&result(vec![starved]), false, &[]);
            assert_one(&failures, &["same-slot/queue/epoch@4thr", "zero ops"]);
        }
    }

    #[test]
    fn limbo_bound_names_the_cell_that_parked_its_arena() {
        let arena = roster_node_capacity(4) as u64;
        for backend in ["stack/epoch", "stack-elim/hazard"] {
            let mut parked = cell("churn", backend, 4);
            parked.peak_unreclaimed = arena;
            let failures = matrix(&result(vec![parked.clone()]), true, &[]);
            assert_one(&failures, &[backend, "@4thr", &format!("capacity {arena}")]);
            // Only rows that ask for the rule apply it.
            assert!(matrix(&result(vec![parked]), false, &[]).is_empty());
        }
        let mut queue = cell("producer-consumer", "queue/epoch", 4);
        queue.peak_unreclaimed = arena + 1;
        let failures = matrix(&result(vec![queue]), true, &[]);
        assert_one(
            &failures,
            &["queue/epoch", &format!("capacity {}", arena + 1)],
        );
        // Immediate-free schemes never defer, whatever the gauge reads.
        let mut tagged = cell("churn", "stack/tagged", 4);
        tagged.peak_unreclaimed = arena;
        assert!(matrix(&result(vec![tagged]), true, &[]).is_empty());
    }

    #[test]
    fn arena_growth_names_the_map_that_never_grew() {
        let failures = matrix(&result(vec![]), false, &[grown(768), grown(10)]);
        assert_one(&failures, &["SO map (epoch)", "initial 10 nodes"]);
    }

    // --- incidence -----------------------------------------------------------

    fn stress(
        scheme: Scheme,
        aba_events: u64,
        lost: u64,
        duplicated: u64,
    ) -> (Scheme, StressReport) {
        let report = StressReport {
            structure: aba_lockfree::Family::Stack.label(scheme).to_string(),
            threads: 4,
            ops_per_thread: 20_000,
            inserted: 80_000,
            pushed: 80_000,
            removed: 80_000 - lost,
            remaining: 0,
            aba_events,
            lost,
            duplicated,
        };
        (scheme, report)
    }

    /// E6 as committed: the victim damaged, the four protections clean.
    fn e6() -> Vec<(Scheme, StressReport)> {
        Scheme::ALL
            .into_iter()
            .map(|scheme| match scheme {
                Scheme::Unprotected => stress(scheme, 2_105, 1_928, 1_993),
                _ => stress(scheme, 0, 0, 0),
            })
            .collect()
    }

    #[test]
    fn the_committed_incidence_shape_passes() {
        assert_eq!(incidence(&e6(), true), Vec::<String>::new());
        // A lockstep run of the victim ahead of a damaged one is the host's
        // scheduler, not a finding.
        let mut retried = vec![stress(Scheme::Unprotected, 29_987, 0, 0)];
        retried.extend(e6());
        assert_eq!(incidence(&retried, true), Vec::<String>::new());
    }

    #[test]
    fn the_incidence_gate_names_the_row_off_its_shape() {
        // The unprotected row as the prototype's one-node magazine left it
        // (E22): ABAs by the ten thousand, every one benign, in every run.
        let mut benign = vec![stress(Scheme::Unprotected, 39_036, 0, 0); 3];
        benign.extend_from_slice(&e6()[1..]);
        assert_one(
            &incidence(&benign, true),
            &["no unprotected run", "3 run(s)", "39036 ABA events, lost 0"],
        );
        // ...which is all a host without parallelism can produce: there the
        // damage rule is off and every other rule is on.
        assert_eq!(incidence(&benign, false), Vec::<String>::new());
        benign[5] = stress(Scheme::LlSc, 0, 0, 1);
        assert_one(&incidence(&benign, false), &["Treiber (LL/SC head)"]);
        // Damage nothing detected is half a demonstration.
        let mut undetected = e6();
        undetected[0] = stress(Scheme::Unprotected, 0, 3, 0);
        assert_one(
            &incidence(&undetected, true),
            &[
                "Treiber (unprotected)",
                "0 ABA events, lost 3",
                "must record",
            ],
        );
        // A protected row that lost a value, and one that saw an event.
        let mut broken = e6();
        broken[2] = stress(Scheme::Hazard, 0, 1, 0);
        assert_one(
            &incidence(&broken, true),
            &["Treiber (hazard pointers)", "lost 1", "protected stack"],
        );
        let mut eventful = e6();
        eventful[4] = stress(Scheme::Epoch, 2, 0, 0);
        assert_one(
            &incidence(&eventful, true),
            &["Treiber (epoch)", "2 ABA events"],
        );
        // No victim, no demonstration.
        assert_one(
            &incidence(&e6()[1..], true),
            &["no unprotected run", "0 run(s)"],
        );
    }

    // --- dpor ----------------------------------------------------------------

    fn dpor_row(protected: bool, witness: bool, complete: bool, schedules: u64) -> DporRow {
        let model = *MODEL_ROSTER
            .iter()
            .find(|m| m.family == "queue" && m.protected == protected)
            .expect("the roster has a protected and an unprotected queue");
        let witnesses = Vec::from_iter(witness.then(|| Witness {
            meta: WitnessMeta {
                schedule: vec![0, 1, 0],
                seed: 0,
                trial: 0,
            },
            history: Default::default(),
            wedged: true,
            violation: None,
        }));
        DporRow {
            model,
            report: ExplorationReport {
                schedules_executed: schedules,
                complete,
                witnesses,
                ..ExplorationReport::default()
            },
            elapsed_ms: 0,
        }
    }

    #[test]
    fn a_clean_exploration_passes_every_rule() {
        // An unprotected model's wedged executions spin until the depth cut
        // (`queue/unprotected` cuts 14 traces on the way to its witness).
        let mut wedging = dpor_row(false, true, false, 13_575);
        wedging.report.truncated_traces = 14;
        let rows = [
            dpor_row(true, false, true, 40),
            dpor_row(false, true, false, 3),
            wedging,
        ];
        assert_eq!(dpor(&rows), Vec::<String>::new());
    }

    #[test]
    fn each_dpor_rule_names_its_row() {
        let failures = dpor(&[dpor_row(true, true, true, 40)]);
        assert_one(
            &failures,
            &["queue/tagged", "protected mode produced an ABA witness"],
        );
        let failures = dpor(&[dpor_row(false, false, true, 40)]);
        assert_one(&failures, &["queue/unprotected", "no witness"]);
        // A capped space fails, quick or full: `table_dpor`'s quick cap sits
        // above every roster space, so one that outgrows it is a finding.
        let failures = dpor(&[dpor_row(true, false, false, 40)]);
        assert_one(&failures, &["queue/tagged", "space not drained"]);
        let failures = dpor(&[dpor_row(true, false, true, 0)]);
        assert_one(&failures, &["queue/tagged", "zero schedules"]);
        // `set/epoch` as committed before its epilogue became one-shot:
        // drained, clean, and 11 traces cut inside a blocking model.
        let mut blocking = dpor_row(true, false, true, 1_452);
        blocking.report.truncated_traces = 11;
        let failures = dpor(std::slice::from_ref(&blocking));
        assert_one(
            &failures,
            &["queue/tagged", "11 trace(s) cut", "must be lock-free"],
        );
    }

    // --- scaling -------------------------------------------------------------

    #[test]
    fn a_flat_object_passes_the_scaling_gate() {
        let flat = [(2, 13.4), (8, 13.3), (128, 14.7), (512, 14.8)];
        assert_eq!(scaling("Figure 4 DWrite", &flat), Vec::<String>::new());
        // Noise up to the bound is tolerated.
        assert!(scaling("Figure 4 DWrite", &[(2, 10.0), (512, 40.0)]).is_empty());
    }

    #[test]
    fn the_scaling_gate_names_the_object_whose_local_work_grows() {
        // `SeqRecycler::choose` as a quadratic scan, measured before E19.
        let quadratic = [(2, 15.2), (8, 36.0), (128, 3578.4), (512, 36275.8)];
        let failures = scaling("Announce LL+SC", &quadratic);
        assert_one(&failures, &["Announce LL+SC", "n=512", "n=2", "2387x"]);

        // Nothing to compare is a failure, not a pass.
        for vacuous in [&[][..], &[(2, 13.0)]] {
            let failures = scaling("Figure 4 DWrite", vacuous);
            assert_one(&failures, &["Figure 4 DWrite", "fewer than two"]);
        }
        let unmeasured = scaling("Figure 4 DWrite", &[(2, 0.0), (512, 14.0)]);
        assert_one(&unmeasured, &["0.0 ns/op at n=2"]);
    }

    // --- lint ----------------------------------------------------------------

    fn clean_report() -> LintReport {
        LintReport {
            files_scanned: 90,
            findings: Vec::new(),
        }
    }

    fn verdict(steps_audited: u64, under_reports: u64) -> AuditVerdict {
        AuditVerdict {
            family: "set".to_string(),
            mode: "hazard".to_string(),
            schedules: 3,
            steps_audited,
            under_reports,
            over_reports: 1,
            sound: under_reports == 0,
        }
    }

    #[test]
    fn a_clean_tree_and_sound_audits_pass_every_rule() {
        assert_eq!(
            lint(&clean_report(), &[verdict(42, 0)]),
            Vec::<String>::new()
        );
    }

    #[test]
    fn each_lint_rule_names_its_finding_or_audit() {
        let mut report = clean_report();
        report.findings.push(Finding {
            rule: "L4",
            file: "crates/x/src/a.rs".to_string(),
            line: 7,
            message: "unbounded CAS retry".to_string(),
        });
        let failures = lint(&report, &[verdict(42, 0)]);
        assert_one(
            &failures,
            &["L4", "crates/x/src/a.rs:7", "unbounded CAS retry"],
        );

        let failures = lint(&clean_report(), &[verdict(42, 2)]);
        assert_one(&failures, &["set/hazard", "2 footprint under-report(s)"]);
        let failures = lint(&clean_report(), &[verdict(0, 0)]);
        assert_one(&failures, &["set/hazard", "zero steps audited"]);

        let mut empty = clean_report();
        empty.files_scanned = 0;
        assert_one(&lint(&empty, &[verdict(42, 0)]), &["zero files"]);
    }
}
