//! Differential tests over the conformance table (`tests/conformance`): the
//! seeded random scripts of each structure family on the hardware of every
//! `Family × Scheme` cell, checked against the family's sequential `Spec`
//! (`Spec::Stack` is a `Vec`, `Spec::Queue` a `VecDeque`, `Spec::Set` an
//! ordered set, `Spec::Map` a sequential map); the production and racing
//! handles of every cell as one structure; and the spec check's power to
//! reject a history it should.

mod conformance;

use aba_repro::lockfree::{Family, Scheme};
use aba_repro::spec::{check_history, LinCheckOutcome};
use conformance::{
    flip, history, random_scripts, random_scripts_conform, run, same_structure, table, Hardware,
    ARENA, RANDOM_ARENA,
};

#[test]
fn stack_backends_match_the_vec_model() {
    random_scripts_conform(&[Family::Stack, Family::ElimStack]);
}

#[test]
fn queue_backends_match_the_deque_model() {
    random_scripts_conform(&[Family::Queue]);
}

#[test]
fn set_backends_match_the_ordered_set_model() {
    random_scripts_conform(&[Family::Set]);
}

#[test]
fn map_backends_match_the_seq_map_model() {
    random_scripts_conform(&[Family::Map]);
}

/// `handle()` and `racing_handle()` are one structure: on every cell, the
/// family's deterministic script and its first 32 random scripts leave the
/// same answers, counters and limbo through either.
#[test]
fn both_handle_kinds_are_the_same_structure() {
    for family in Family::ALL {
        let random = random_scripts(family).into_iter().take(32);
        for scheme in Scheme::ALL {
            let hardware = Hardware::Cell(family, scheme);
            let scripts = std::iter::once((ARENA, hardware.script()))
                .chain(random.clone().map(|script| (RANDOM_ARENA, script)));
            for (arena, script) in scripts {
                let production = run(hardware, arena, &script, false);
                if let Err(fault) = same_structure(hardware, arena, &script, &production) {
                    panic!("{}: {fault}\nscript: {script:?}", family.key(scheme));
                }
            }
        }
    }
}

/// The spec check bites: it rejects `register/naive`'s honest history, and
/// on every other row it accepts the honest history of the deterministic
/// script but rejects it with the first or the last answer flipped.
#[test]
fn divergence_detector_is_not_vacuous() {
    for row in table() {
        let (spec, script) = (row.hardware.spec(), row.hardware.script());
        let honest = run(row.hardware, ARENA, &script, false).ops;
        let verdict = check_history(&history(&script, &honest), spec);
        if let Hardware::Event = row.hardware {
            assert_eq!(verdict, LinCheckOutcome::NotLinearizable, "{}", row.key);
            continue;
        }
        assert!(verdict.is_linearizable(), "{}: {verdict:?}", row.key);
        let answered: Vec<usize> = (0..honest.len())
            .filter(|&i| flip(&mut { honest[i].0 }))
            .collect();
        assert!(!answered.is_empty(), "{}: no operation answered", row.key);
        let ends = [answered.first(), answered.last()];
        for i in ends.into_iter().flatten().copied() {
            let mut forged = honest.clone();
            flip(&mut forged[i].0);
            assert_eq!(
                check_history(&history(&script, &forged), spec),
                LinCheckOutcome::NotLinearizable,
                "{}: op {i} answered {} instead of {}",
                row.key,
                forged[i].0,
                honest[i].0
            );
        }
    }
}
