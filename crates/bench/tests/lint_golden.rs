//! Golden tests for the conformance gate: the exact lint rule roster, the
//! exact `BENCH_lint.json` key sets, and the clean-tree zero-findings
//! report — in the same registry-stability tradition as
//! `crates/workload/tests/roster_golden.rs`.
//!
//! The rule ids and JSON keys are load-bearing: cross-commit tracking diffs
//! the document.  Growing the roster appends rules; it never renames or
//! reorders the existing ones.

use std::path::Path;

use aba_analyze::{lint_workspace, Finding, LintReport, RULE_ROSTER};
use aba_sim::AuditVerdict;

/// The frozen rule roster (id, name), in display order.
const GOLDEN_RULES: [(&str, &str); 5] = [
    ("L1", "ordering-justified"),
    ("L2", "forbid-unsafe"),
    ("L3", "deterministic"),
    ("L4", "cas-retry-bounded"),
    ("L5", "reclaimer-docs"),
];

#[test]
fn rule_roster_matches_the_golden_list_exactly() {
    let roster: Vec<(&str, &str)> = RULE_ROSTER.iter().map(|r| (r.id, r.name)).collect();
    assert_eq!(
        roster, GOLDEN_RULES,
        "lint rule ids/names/order changed — rule ids key BENCH_lint.json; \
         append new rules, never rename"
    );
}

#[test]
fn workspace_tree_is_lint_clean() {
    // The tree itself is the ultimate fixture: every finding the roster can
    // produce has either been fixed or carries its justification comment,
    // and regressions surface here (and in CI's table_lint gate) instantly.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let report = lint_workspace(root);
    assert!(
        report.files_scanned >= 80,
        "walker found only {} files — coverage collapsed",
        report.files_scanned
    );
    assert!(
        report.findings.is_empty(),
        "workspace is no longer lint-clean:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {} {}:{} {}", f.rule, f.file, f.line, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ---------------------------------------------------------------------------
// BENCH_lint.json schema keys
// ---------------------------------------------------------------------------

/// Keys appearing in a JSON object literal, in document order — the same
/// purpose-built scan as the throughput golden (the workspace builds
/// offline, without serde).
fn object_keys(object: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut rest = object;
    while let Some(start) = rest.find('"') {
        let tail = &rest[start + 1..];
        let Some(end) = tail.find('"') else { break };
        let key = &tail[..end];
        let after = tail[end + 1..].trim_start();
        if after.starts_with(':') {
            keys.push(key.to_string());
        }
        rest = &tail[end + 1..];
        if let Some(comma) = rest.find([',', '}']) {
            rest = &rest[comma..];
        }
    }
    keys
}

/// A small synthetic document exercising every array with one element.
fn sample_json() -> String {
    let report = LintReport {
        files_scanned: 1,
        findings: vec![Finding {
            rule: "L1",
            file: "crates/x/src/a.rs".to_string(),
            line: 7,
            message: "sample".to_string(),
        }],
    };
    let verdicts = vec![AuditVerdict {
        family: "register".to_string(),
        mode: "tagged".to_string(),
        schedules: 3,
        steps_audited: 42,
        under_reports: 0,
        over_reports: 1,
        sound: true,
    }];
    aba_bench::lint_json(true, &report, &verdicts)
}

#[test]
fn lint_json_top_level_and_cell_key_sets_are_pinned() {
    let json = sample_json();
    assert!(json.trim_start().starts_with('{'));

    let rules_start = json.find("\"rules\":[").expect("rules array");
    assert_eq!(
        object_keys(&json[..rules_start + 8]),
        [
            "schema",
            "quick",
            "files_scanned",
            "total_findings",
            "rules"
        ],
        "top-level keys before the rule list changed"
    );
    assert!(json.contains("\"findings\":["), "findings key changed");
    assert!(json.contains("\"audits\":["), "audits key changed");

    let rule_start = rules_start + 9;
    let rule_end = json[rule_start..].find('}').expect("rule cell end") + rule_start;
    assert_eq!(
        object_keys(&json[rule_start..=rule_end]),
        ["id", "name", "summary", "findings"],
        "rule cell keys changed"
    );

    let f_start = json.find("\"findings\":[").expect("findings array") + 12;
    let f_end = json[f_start..].find('}').expect("finding cell end") + f_start;
    assert_eq!(
        object_keys(&json[f_start..=f_end]),
        ["rule", "file", "line", "message"],
        "finding cell keys changed"
    );

    let a_start = json.find("\"audits\":[").expect("audits array") + 10;
    let a_end = json[a_start..].find('}').expect("audit cell end") + a_start;
    assert_eq!(
        object_keys(&json[a_start..=a_end]),
        [
            "family",
            "mode",
            "schedules",
            "steps_audited",
            "under_reports",
            "over_reports",
            "sound",
        ],
        "audit cell keys changed — BENCH_lint.json consumers track these \
         names across commits; add fields at the end, never rename"
    );
}

#[test]
fn lint_json_schema_id_is_pinned() {
    assert!(
        sample_json().starts_with("{\"schema\":\"aba-repro/lint/v1\","),
        "schema identifier changed"
    );
}

#[test]
fn every_roster_rule_appears_in_the_json_rules_array() {
    let json = sample_json();
    for rule in RULE_ROSTER {
        assert!(
            json.contains(&format!("\"id\":\"{}\"", rule.id)),
            "rule {} missing from JSON",
            rule.id
        );
    }
}
