//! Golden tests for the E11 model roster: the exact `BENCH_dpor.json` row
//! keys in order, the roster's `(family, mode, protected, bound)` tuples, and
//! the tie between each structure model and the hardware backend it claims
//! to model.
//!
//! The row and key order is a schema pin: cross-commit tracking reads the
//! document as emitted.  Growing the roster appends rows; it never renames or
//! reorders the existing ones.

use aba_bench::{dpor_json, DporRow};
use aba_lockfree::{Family, Scheme};
use aba_sim::{ExplorationReport, MODEL_ROSTER};

const REGISTER_BOUND: &str = "n=3, writes=4, reads=2";
const QUEUE_BOUND: &str = "n=3, enq=2, deq=3, arena=2";
const SET_BOUND: &str = "n=2, rounds=1, arena=3";
const STACK_BOUND: &str = "n=2, calls=4, arena=2";

/// The frozen roster `(family, mode, protected, bound)`, in row order.
const GOLDEN_ROSTER: [(&str, &str, bool, &str); 12] = [
    ("register", "naive", false, REGISTER_BOUND),
    ("register", "tagged", true, REGISTER_BOUND),
    ("queue", "unprotected", false, QUEUE_BOUND),
    ("queue", "tagged", true, QUEUE_BOUND),
    ("queue", "epoch", true, QUEUE_BOUND),
    ("set", "unprotected", false, SET_BOUND),
    ("set", "tagged", true, SET_BOUND),
    ("set", "hazard", true, SET_BOUND),
    ("set", "epoch", true, SET_BOUND),
    ("stack", "unprotected", false, STACK_BOUND),
    ("stack", "tagged", true, STACK_BOUND),
    ("queue", "hazard", true, QUEUE_BOUND),
];

#[test]
fn model_roster_matches_the_golden_tuples_exactly() {
    let roster: Vec<_> = MODEL_ROSTER
        .iter()
        .map(|m| (m.family, m.mode, m.protected, m.bound))
        .collect();
    assert_eq!(
        roster, GOLDEN_ROSTER,
        "E11 roster rows changed — they key BENCH_dpor.json and \
         BENCH_lint.json; append new models, never rename or reorder"
    );
}

#[test]
fn dpor_json_emits_the_roster_rows_in_order() {
    let rows: Vec<DporRow> = MODEL_ROSTER
        .iter()
        .map(|&model| DporRow {
            model,
            report: ExplorationReport::default(),
            elapsed_ms: 0,
        })
        .collect();
    let json = dpor_json(true, &rows);
    assert!(json.starts_with("{\"schema\":\"aba-repro/dpor/v1\",\"quick\":true,\"rows\":[{"));
    let mut rest = json.as_str();
    for (family, mode, protected, bound) in GOLDEN_ROSTER {
        let row = format!(
            "{{\"family\":\"{family}\",\"mode\":\"{mode}\",\"protected\":{protected},\
             \"bound\":\"{bound}\",\"schedules_executed\":0,"
        );
        let at = rest
            .find(&row)
            .unwrap_or_else(|| panic!("row {family}/{mode} missing or out of order"));
        rest = &rest[at + row.len()..];
    }
    assert_eq!(json.matches("\"family\":").count(), GOLDEN_ROSTER.len());
    assert!(
        rest.ends_with(
            "\"complete\":false,\"hit_schedule_cap\":false,\"witness\":false,\
             \"witness_len\":null,\"elapsed_ms\":0}]}"
        ),
        "row tail keys changed: {rest}"
    );
}

#[test]
fn every_structure_model_is_keyed_like_its_hardware_backend() {
    for model in MODEL_ROSTER.iter().filter(|m| m.family != "register") {
        let key = model.key();
        assert!(
            Family::ALL
                .iter()
                .any(|&family| Scheme::ALL.iter().any(|&scheme| family.key(scheme) == key)),
            "sim model {key} names no backend of aba_lockfree::Family's table"
        );
    }
}
