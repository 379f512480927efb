//! Golden for the 25 structure display labels.  `name()` is derived from the
//! `Family × Scheme` table; EXPERIMENTS.md tables quote these strings, so
//! they are pinned byte-for-byte here (recorded from the `name()` output of
//! the commit before the table existed), in the registry-stability tradition
//! of `crates/workload/tests/roster_golden.rs`.

use aba_lockfree::{
    elim_stack_builders, map_builders, queue_builders, set_builders, stack_builders,
};

const GOLDEN_LABELS: [&str; 25] = [
    "Treiber (unprotected)",
    "Treiber (tagged head)",
    "Treiber (hazard pointers)",
    "Treiber (LL/SC head)",
    "Treiber (epoch)",
    "Treiber+elim (unprotected)",
    "Treiber+elim (tagged)",
    "Treiber+elim (hazard pointers)",
    "Treiber+elim (LL/SC)",
    "Treiber+elim (epoch)",
    "MS queue (unprotected)",
    "MS queue (tagged)",
    "MS queue (hazard pointers)",
    "MS queue (LL/SC head+tail)",
    "MS queue (epoch)",
    "HM set (unprotected)",
    "HM set (tagged links)",
    "HM set (hazard pointers)",
    "HM set (LL/SC head, counted links)",
    "HM set (epoch)",
    "SO map (unprotected)",
    "SO map (tagged links)",
    "SO map (hazard pointers)",
    "SO map (LL/SC slots, counted links)",
    "SO map (epoch)",
];

#[test]
fn structure_names_match_the_golden_labels_exactly() {
    let mut names = Vec::new();
    names.extend(stack_builders().iter().map(|(_, b)| b(4, 2).name()));
    names.extend(elim_stack_builders().iter().map(|(_, b)| b(4, 2).name()));
    names.extend(queue_builders().iter().map(|(_, b)| b(4, 2).name()));
    names.extend(set_builders().iter().map(|(_, b)| b(4, 2).name()));
    names.extend(map_builders().iter().map(|(_, b)| b(4, 2).name()));
    assert_eq!(
        names, GOLDEN_LABELS,
        "a structure's display label changed — EXPERIMENTS.md quotes these; \
         add labels for new schemes, never rename"
    );
}
