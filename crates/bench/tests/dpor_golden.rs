//! Golden test for the E11 document: `BENCH_dpor.json` emits every row of
//! the model roster, in roster order, with the row keys cross-commit tracking
//! reads.  The roster's own rows (keys, bounds and pins, in order) are pinned
//! in `aba-sim`'s `tests/dpor_exploration.rs`.

use aba_bench::{dpor_json, DporRow};
use aba_sim::{ExplorationReport, MODEL_ROSTER};

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
    for model in MODEL_ROSTER.iter() {
        let (family, mode, protected, bound) =
            (model.family, model.mode, model.protected, model.bound);
        let row = format!(
            "{{\"family\":\"{family}\",\"mode\":\"{mode}\",\"protected\":{protected},\
             \"bound\":\"{bound}\",\"schedules_executed\":0,"
        );
        let at = rest
            .find(&row)
            .unwrap_or_else(|| panic!("row {family}/{mode} missing or out of order"));
        rest = &rest[at + row.len()..];
    }
    assert_eq!(json.matches("\"family\":").count(), MODEL_ROSTER.len());
    assert!(
        rest.ends_with(
            "\"complete\":false,\"hit_schedule_cap\":false,\"witness\":false,\
             \"witness_len\":null,\"elapsed_ms\":0}]}"
        ),
        "row tail keys changed: {rest}"
    );
}
