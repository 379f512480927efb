//! The conformance table's own tests (the table is `tests/conformance`):
//! every row — the nine paper rows and the 25 `Family × Scheme` cells — on
//! its deterministic script, held to the spec and to its simulator twin
//! where it has one; and the table's coverage of `MODEL_ROSTER`.

mod conformance;

use aba_repro::sim::MODEL_ROSTER;
use conformance::{check, table, Hardware};

#[test]
fn every_model_answers_like_the_hardware_it_models() {
    for row in &table() {
        check(row);
    }
}

#[test]
fn the_table_covers_the_model_roster() {
    let table = table();
    for model in MODEL_ROSTER.iter() {
        let key = model.key();
        assert!(
            table
                .iter()
                .any(|row| row.key == key && row.model.is_some()),
            "roster model {key} has no binding row"
        );
    }
    let cells: Vec<_> = table
        .iter()
        .filter(|row| matches!(row.hardware, Hardware::Cell(..)))
        .collect();
    let twinned = cells.iter().filter(|row| row.model.is_some()).count();
    assert_eq!((twinned, cells.len() - twinned), (12, 13));
}
