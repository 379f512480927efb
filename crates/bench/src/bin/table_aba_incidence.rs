//! Experiment E6: ABA incidence and damage in lock-free stacks.
//!
//! Stress-tests the four Treiber-stack variants and reports detected ABA
//! events plus lost/duplicated values (structural corruption).  The
//! unprotected stack exhibits both; the tagged, hazard-pointer and LL/SC
//! variants conserve every value.
//!
//! Run with `cargo run -p aba-bench --bin table_aba_incidence --release`.

use aba_bench::Table;
use aba_lockfree::{all_stacks, stress_stack};

fn main() {
    aba_bench::Args::from_env(""); // takes no flags: anything given is a mistake

    let threads = 4;
    let ops = 20_000;
    let capacity = 8 + 2 * threads;

    let mut table = Table::new(
        &format!("E6: ABA incidence, {threads} threads x {ops} ops, arena of {capacity} nodes"),
        &[
            "stack variant",
            "pushed",
            "popped",
            "remaining",
            "ABA events",
            "lost values",
            "duplicated values",
            "conserved",
        ],
    );

    for stack in all_stacks(capacity, threads) {
        let report = stress_stack(stack.as_ref(), threads, ops);
        table.row(&[
            report.structure.clone(),
            report.inserted.to_string(),
            report.removed.to_string(),
            report.remaining.to_string(),
            report.aba_events.to_string(),
            report.lost.to_string(),
            report.duplicated.to_string(),
            report.is_conserved().to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("Expected shape: only the unprotected variant records ABA events or loses/duplicates values; tagging, hazard pointers and the LL/SC head all conserve every value.");
}
