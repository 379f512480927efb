//! The ABA problem in a real data structure, and four ways to fix it.
//!
//! Runs the same multi-threaded push/pop stress over the five Treiber-stack
//! variants sharing one node arena design:
//!
//! * unprotected head CAS with immediate node recycling  → ABA events and
//!   lost/duplicated values;
//! * tagged head (the §1 tagging technique)              → correct;
//! * hazard pointers (Michael [20, 21])                   → correct;
//! * epoch-based reclamation (quiescence)                 → correct;
//! * an LL/SC head (the paper's primitive)                → correct.
//!
//! Run with `cargo run --example treiber_stack --release`.

use aba_repro::lockfree::{all_stacks, stress_stack};

fn main() {
    let threads = 4;
    let ops = 10_000;
    let capacity = 16;

    println!("Stress: {threads} threads x {ops} push/pop rounds, arena of {capacity} nodes\n");
    println!(
        "{:<28} {:>8} {:>8} {:>10} {:>6} {:>11} {:>10}",
        "variant", "pushed", "popped", "ABA events", "lost", "duplicated", "conserved"
    );
    for stack in all_stacks(capacity, threads) {
        let report = stress_stack(stack.as_ref(), threads, ops);
        println!(
            "{:<28} {:>8} {:>8} {:>10} {:>6} {:>11} {:>10}",
            report.structure,
            report.inserted,
            report.removed + report.remaining,
            report.aba_events,
            report.lost,
            report.duplicated,
            report.is_conserved()
        );
    }
    println!("\nThe unprotected variant typically shows ABA events and may lose or duplicate values; the protected variants (tagged, hazard, epoch, LL/SC) always conserve every pushed value.");
}
