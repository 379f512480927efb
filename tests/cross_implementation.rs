//! Cross-implementation integration tests: every ABA-detecting register and
//! every LL/SC/VL object must agree with the sequential specification over
//! long operation scripts (the paper rows of the conformance table,
//! `tests/conformance`, through `check_history`), and the paper's headline
//! scenarios must hold for all of them.

mod conformance;

use std::collections::BTreeSet;

use aba_repro::{core::all_aba_registers, core::all_llsc_objects};
use conformance::{conforming, table, Hardware, ARENA};

/// The table's rows with register hardware: one per registry entry.
#[test]
fn all_registers_agree_with_spec_on_a_long_mixed_sequence() {
    let mut covered = BTreeSet::new();
    for row in table() {
        if let Hardware::Register(new) = row.hardware {
            covered.insert(new().name());
            conforming(row.key, row.hardware, ARENA, &row.hardware.script());
        }
    }
    let registry: BTreeSet<_> = all_aba_registers(2).iter().map(|r| r.name()).collect();
    assert_eq!(covered, registry);
}

/// The table's rows with LL/SC/VL hardware: one per registry entry.
#[test]
fn all_llsc_objects_agree_with_spec_on_a_long_mixed_sequence() {
    let mut covered = BTreeSet::new();
    for row in table() {
        if let Hardware::LlSc(new) = row.hardware {
            covered.insert(new().name());
            conforming(row.key, row.hardware, ARENA, &row.hardware.script());
        }
    }
    let registry: BTreeSet<_> = all_llsc_objects(2).iter().map(|o| o.name()).collect();
    assert_eq!(covered, registry);
}

#[test]
fn every_register_detects_the_canonical_aba_pattern() {
    for reg in all_aba_registers(3) {
        let mut writer = reg.handle(0);
        let mut reader = reg.handle(1);
        writer.dwrite(10);
        assert_eq!(reader.dread(), (10, true), "{}", reg.name());
        assert_eq!(reader.dread(), (10, false), "{}", reg.name());
        // A -> B -> A
        writer.dwrite(20);
        writer.dwrite(10);
        assert_eq!(reader.dread(), (10, true), "{} missed the ABA", reg.name());
    }
}

#[test]
fn every_llsc_object_prevents_the_canonical_aba_pattern() {
    for obj in all_llsc_objects(3) {
        let mut victim = obj.handle(0);
        let mut interferer = obj.handle(1);
        victim.ll();
        // Interferer drives the value away and back.
        interferer.ll();
        assert!(interferer.sc(1), "{}", obj.name());
        interferer.ll();
        assert!(interferer.sc(0), "{}", obj.name());
        // The value is back to what the victim linked, but its SC must fail.
        assert!(
            !victim.sc(99),
            "{} allowed an SC across two intervening successful SCs",
            obj.name()
        );
    }
}

#[test]
fn step_counters_accumulate_across_operations() {
    for reg in all_aba_registers(2) {
        let mut h = reg.handle(0);
        h.dwrite(1);
        let after_one = h.step_count();
        assert!(after_one > 0, "{}", reg.name());
        h.dwrite(2);
        assert!(h.step_count() > after_one, "{}", reg.name());
        assert!(h.last_op_steps() > 0, "{}", reg.name());
    }
}
