//! The conformance table's own tests (the table is `tests/conformance`):
//! every row — the nine paper rows and the 25 `Family × Scheme` cells — on
//! its deterministic script, held to the spec and to its simulator twin
//! where it has one; and the table's coverage of `MODEL_ROSTER`.

mod conformance;

use std::collections::BTreeSet;

use aba_repro::sim::{SimModel, MODEL_ROSTER};
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
    let twinned = |cells: bool| -> BTreeSet<String> {
        let rows = table.iter().filter(|row| row.model.is_some());
        let rows = rows.filter(|row| matches!(row.hardware, Hardware::Cell(..)) == cells);
        rows.map(|row| row.key.to_string()).collect()
    };
    let (registers, structures): (BTreeSet<_>, BTreeSet<_>) = MODEL_ROSTER
        .iter()
        .map(SimModel::key)
        .partition(|key| key.starts_with("register/"));
    assert!(registers.is_subset(&twinned(false)));
    // Equality: a structure row without a twin fails, and so does a twinned
    // cell without a roster row.
    assert_eq!(structures, twinned(true));
}
