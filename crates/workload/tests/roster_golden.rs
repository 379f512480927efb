//! Golden tests for registry stability: the exact backend-name roster, the
//! exact scenario roster and the `BENCH_throughput.json` key sets, all in
//! display order.
//!
//! The names are load-bearing — they key experiment tables,
//! `BENCH_throughput.json` documents and cross-commit performance tracking —
//! so a refactor of the structures (e.g. collapsing the hand-written
//! variants into one generic implementation per structure) must provably
//! keep every pre-existing name.  Growing the roster appends names; it never
//! renames or reorders the existing ones.

use aba_workload::{
    run_matrix, standard_backends, standard_scenarios, to_json, to_json_with_schema, EngineConfig,
};

/// The full backend roster, frozen.  PR 4 appended `stack/epoch` and
/// `queue/epoch`; PR 5 appended the five `set/*` backends; PR 8 appended the
/// five `map/*` backends; PR 9 appended the five `stack-elim/*` backends
/// (elimination-backoff front end over the same reclaimers); everything
/// before them is the PR 2/PR 3 roster verbatim.
const GOLDEN_ROSTER: [&str; 30] = [
    "llsc/cas (Fig 3)",
    "llsc/announce",
    "llsc/moir tag32",
    "llsc/moir tag16",
    "llsc/moir tag8",
    "stack/unprotected",
    "stack/tagged",
    "stack/hazard",
    "stack/llsc-head",
    "stack/epoch",
    "stack-elim/unprotected",
    "stack-elim/tagged",
    "stack-elim/hazard",
    "stack-elim/llsc-head",
    "stack-elim/epoch",
    "queue/unprotected",
    "queue/tagged",
    "queue/hazard",
    "queue/llsc",
    "queue/epoch",
    "set/unprotected",
    "set/tagged",
    "set/hazard",
    "set/llsc",
    "set/epoch",
    "map/unprotected",
    "map/tagged",
    "map/hazard",
    "map/llsc",
    "map/epoch",
];

/// The full scenario roster, frozen.  PR 3 appended `producer-consumer` and
/// `pipeline`; PR 5 appended the two key-space scenarios; PR 8 appended the
/// two Zipf-skewed scenarios.
const GOLDEN_SCENARIOS: [&str; 12] = [
    "churn",
    "signal-wait",
    "rmw-storm",
    "read-heavy",
    "write-heavy",
    "same-slot",
    "producer-consumer",
    "pipeline",
    "uniform-key-churn",
    "hot-key-contention",
    "zipf-key-churn",
    "zipf-read-heavy",
];

#[test]
fn backend_roster_matches_the_golden_list_exactly() {
    let names: Vec<&str> = standard_backends().iter().map(|s| s.name()).collect();
    assert_eq!(
        names, GOLDEN_ROSTER,
        "backend registry names/order changed — that breaks every consumer \
         of BENCH_throughput.json; append new backends, never rename"
    );
}

#[test]
fn scenario_roster_matches_the_golden_list_exactly() {
    let names: Vec<&str> = standard_scenarios().iter().map(|s| s.name()).collect();
    assert_eq!(
        names, GOLDEN_SCENARIOS,
        "scenario names/order changed — scenario names key \
         BENCH_throughput.json rows; append new scenarios, never rename"
    );
}

#[test]
fn full_matrix_is_twelve_scenarios_by_thirty_backends() {
    // The roster cross-product the E7–E10/E13/E14 sweeps produce: pinned here
    // so a silently shrunken sweep cannot masquerade as a passing benchmark
    // run.
    assert_eq!(standard_scenarios().len() * standard_backends().len(), 360);
}

#[test]
fn every_pre_refactor_name_is_still_present() {
    // The PR 2/PR 3 names, independent of order, as a belt-and-braces check
    // should the golden list above ever be edited together with a rename.
    let names: Vec<&str> = standard_backends().iter().map(|s| s.name()).collect();
    for legacy in [
        "llsc/cas (Fig 3)",
        "llsc/announce",
        "llsc/moir tag32",
        "llsc/moir tag16",
        "llsc/moir tag8",
        "stack/unprotected",
        "stack/tagged",
        "stack/hazard",
        "stack/llsc-head",
        "queue/unprotected",
        "queue/tagged",
        "queue/hazard",
        "queue/llsc",
    ] {
        assert!(names.contains(&legacy), "legacy backend {legacy} vanished");
    }
}

#[test]
fn golden_backends_build_and_run() {
    for spec in standard_backends() {
        let w = spec.build(2);
        let mut ops = w.worker(0);
        ops.write(1);
        ops.read();
        ops.rmw(1);
    }
}

// ---------------------------------------------------------------------------
// BENCH_throughput.json schema keys
// ---------------------------------------------------------------------------

/// Keys appearing in a JSON object literal, in document order — a tiny
/// purpose-built scan (the workspace builds offline, without serde), good
/// enough for the non-nested objects the report emits.
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
        // Skip past this string *and* its value up to the next comma or the
        // object end, so string values containing ':' are never miscounted.
        rest = &tail[end + 1..];
        if let Some(comma) = rest.find([',', '}']) {
            rest = &rest[comma..];
        }
    }
    keys
}

#[test]
fn bench_json_top_level_and_cell_key_sets_are_pinned() {
    // New fields on the v1 schema must be *additive*: the pre-existing keys
    // (and their order, which downstream diffs rely on) can never silently
    // rename.  This pins the exact key sets of a freshly produced document.
    let scenarios = standard_scenarios();
    let backends = standard_backends();
    let config = EngineConfig {
        thread_counts: vec![1],
        ops_per_thread: 8,
        warmup_ops_per_thread: 0,
        repetitions: 1,
        latency_sample_period: 3,
    };
    let json = to_json(&run_matrix(&scenarios[..1], &backends[..1], &config));

    let config_start = json.find("\"config\":").expect("config key");
    assert_eq!(
        object_keys(&json[..config_start + 9]),
        ["schema", "config"],
        "top-level keys before the cell list changed"
    );
    assert!(json.contains("\"cells\":["), "cells key changed");
    assert!(json.trim_start().starts_with('{'));

    let config_end = json[config_start..].find('}').expect("config object end") + config_start;
    assert_eq!(
        object_keys(&json[config_start + 9..=config_end]),
        [
            "thread_counts",
            "ops_per_thread",
            "warmup_ops_per_thread",
            "repetitions",
            "latency_sample_period",
        ],
        "config keys changed"
    );

    let cell_start = json.find("\"cells\":[").expect("cells array") + 9;
    let cell_end = json[cell_start..].find('}').expect("cell object end") + cell_start;
    assert_eq!(
        object_keys(&json[cell_start..=cell_end]),
        [
            "scenario",
            "backend",
            "threads",
            "ops_per_rep",
            "ops_per_sec",
            "p50_ns",
            "p99_ns",
            "peak_unreclaimed",
            "failed_ops",
            "repetitions",
        ],
        "cell keys changed — BENCH_throughput.json consumers track these \
         names across commits; add fields at the end, never rename"
    );
}

#[test]
fn bench_map_json_schema_and_key_set_are_pinned() {
    // The E13 map sweep (`table_matrix --family map` → BENCH_map.json) reuses
    // the matrix cell layout verbatim under its own schema string: pin both,
    // so the map document can never silently fork its format from the main
    // one.
    let scenarios = standard_scenarios();
    let zipf: Vec<_> = scenarios
        .iter()
        .filter(|s| s.name().starts_with("zipf-"))
        .copied()
        .collect();
    assert_eq!(zipf.len(), 2, "the two E13 scenarios must exist");
    let backends: Vec<_> = standard_backends()
        .into_iter()
        .filter(|b| b.name().starts_with("map/"))
        .collect();
    assert_eq!(backends.len(), 5, "the five E13 backends must exist");
    let config = EngineConfig {
        thread_counts: vec![1],
        ops_per_thread: 8,
        warmup_ops_per_thread: 0,
        repetitions: 1,
        latency_sample_period: 3,
    };
    let json = to_json_with_schema(
        &run_matrix(&zipf[..1], &backends[..1], &config),
        "aba-repro/map/v1",
    );
    assert!(
        json.contains("\"schema\":\"aba-repro/map/v1\""),
        "BENCH_map.json schema string changed"
    );
    assert!(json.contains("\"backend\":\"map/unprotected\""));
    assert!(json.contains("\"scenario\":\"zipf-key-churn\""));
    let cell_start = json.find("\"cells\":[").expect("cells array") + 9;
    let cell_end = json[cell_start..].find('}').expect("cell object end") + cell_start;
    assert_eq!(
        object_keys(&json[cell_start..=cell_end]),
        [
            "scenario",
            "backend",
            "threads",
            "ops_per_rep",
            "ops_per_sec",
            "p50_ns",
            "p99_ns",
            "peak_unreclaimed",
            "failed_ops",
            "repetitions",
        ],
        "BENCH_map.json cell keys diverged from the matrix layout"
    );
}
