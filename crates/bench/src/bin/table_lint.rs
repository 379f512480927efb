//! Conformance gate: static lint roster + dynamic DPOR footprint audit.
//!
//! Two pillars, one exit code:
//!
//! * **Static** — `aba_analyze::lint_workspace` walks every workspace `.rs`
//!   file with the hand-rolled comment/string-aware lexer and enforces the
//!   registered rule roster L1–L5 (orderings justified, `unsafe` forbidden,
//!   determinism preserved, CAS retries bounded, the `Reclaimer`/`Guard`
//!   surface documented).  See `DESIGN.md` §9 for the rationale.
//! * **Dynamic** — `aba_sim::standard_family_audits` replays every protected
//!   model of `aba_sim::MODEL_ROSTER` (the spaces E11 certifies) under bursty
//!   schedules and its DPOR frontier with shadow-memory recording on,
//!   diffing every executed step's *actual* (object, kind)
//!   access against the *declared* footprint.  An under-report (actual not
//!   covered by declared) would unsound the DPOR dependency relation — the
//!   pruned class may contain the only ABA witness — so it is a hard
//!   failure; over-reports (the failed-CAS write-intent downgrade) only cost
//!   reduction and are merely counted.
//!
//! Run with `cargo run -p aba-bench --bin table_lint --release`.
//! Flags: `--quick` (CI-sized audit bounds), `--out <path>` (write the JSON
//! document, schema `aba-repro/lint/v1`, there).  Without `--out` nothing is
//! written: `BENCH_lint.json` is tracked, and is re-recorded on purpose from
//! a full run (`--out BENCH_lint.json`), not by whoever runs the gate.
//!
//! Exit status is the gate (`aba_bench::gate::lint`): non-zero if any lint
//! finding exists, any family audit records an under-report, or either
//! pillar audited nothing (a vacuity guard: zero files scanned / zero steps
//! audited also fails).

use std::path::Path;
use std::time::Instant;

use aba_analyze::{lint_workspace, RULE_ROSTER};
use aba_bench::{exit_on_failures, gate, Args, Table, QUICK_AND_OUT};
use aba_sim::standard_family_audits;

fn main() {
    let args = Args::from_env(QUICK_AND_OUT);
    let quick = args.has("--quick");

    // The binary runs from anywhere inside the workspace; resolve the root
    // from the crate manifest (crates/bench -> workspace root).
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();

    // --- Pillar A: static conformance lint ---------------------------------
    eprintln!("lint: scanning workspace sources under {}", root.display());
    let lint_start = Instant::now();
    let report = lint_workspace(&root);
    let lint_ms = lint_start.elapsed().as_millis();

    let lint_table = Table::of(
        &format!(
            "Conformance lint ({} files, {lint_ms} ms)",
            report.files_scanned
        ),
        RULE_ROSTER,
        &[
            ("rule", &|rule| rule.id.to_string()),
            ("name", &|rule| rule.name.to_string()),
            ("summary", &|rule| rule.summary.to_string()),
            ("findings", &|rule| report.count_for(rule.id).to_string()),
        ],
    );
    println!("{}", lint_table.render());
    for f in &report.findings {
        println!("  {} {}:{} {}", f.rule, f.file, f.line, f.message);
    }

    // --- Pillar B: DPOR footprint-soundness audit --------------------------
    eprintln!(
        "audit: shadow-memory footprint diff over the protected roster models{}",
        if quick { " (--quick bounds)" } else { "" }
    );
    let audit_start = Instant::now();
    let verdicts = standard_family_audits(quick);
    let audit_ms = audit_start.elapsed().as_millis();

    let audit_table = Table::of(
        &format!("DPOR footprint-soundness audit ({audit_ms} ms)"),
        &verdicts,
        &[
            ("family/mode", &|v| format!("{}/{}", v.family, v.mode)),
            ("schedules", &|v| v.schedules.to_string()),
            ("steps audited", &|v| v.steps_audited.to_string()),
            ("under-reports", &|v| v.under_reports.to_string()),
            ("over-reports", &|v| v.over_reports.to_string()),
            ("verdict", &|v| {
                if v.sound { "sound" } else { "UNSOUND" }.to_string()
            }),
        ],
    );
    println!("{}", audit_table.render());
    println!(
        "Expected shape: zero lint findings (every relaxation, wall-clock read and unbounded \
         CAS retry is either fixed or carries its justification comment) and zero under-reports \
         (every executed access was covered by its declared footprint — the relation DPOR prunes \
         by is conservative on this tree).  Over-reports are the deliberate failed-CAS \
         write-intent downgrade and cost only reduction, never soundness."
    );

    // --- JSON (schema aba-repro/lint/v1) -----------------------------------
    if let Some(out_path) = args.value("--out") {
        let json = aba_bench::lint_json(quick, &report, &verdicts);
        std::fs::write(out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        println!(
            "wrote {out_path} ({} rules, {} audits)",
            RULE_ROSTER.len(),
            verdicts.len()
        );
    }

    exit_on_failures("lint", &gate::lint(&report, &verdicts));
}
