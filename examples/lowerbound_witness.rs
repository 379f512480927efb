//! A concrete witness for "you really need that much space".
//!
//! Theorem 1 (a) says n-1 bounded registers are necessary.  This example
//! takes Figure 4, removes resources (shares the announce array, collapses
//! the sequence-number domain), and lets the adversarial schedule search
//! produce a schedule under which a reader misses a write — a violation no
//! correct ABA-detecting register may exhibit.  The faithful Figure 4
//! survives the same search.
//!
//! Run with `cargo run --example lowerbound_witness --release`.

use aba_repro::sim::algorithms::fig4::Fig4Sim;
use aba_repro::sim::{search_violation, SimAlgorithm, SimWorkload};

fn report(algo: &dyn SimAlgorithm, trials: u64) {
    print!(
        "{:<48} ({} base objects): ",
        algo.name(),
        algo.initial_objects().len()
    );
    match search_violation(algo, SimWorkload::register_search(algo.n()), trials, 0xABA) {
        None => println!("no violation in {trials} random schedules"),
        Some(witness) => {
            println!("VIOLATED (schedule seed {})", witness.meta.seed);
            println!("    {witness}");
            println!("    history had {} operations", witness.history.len());
        }
    }
}

fn main() {
    let n = 5;
    let trials = 400;
    println!("Searching {trials} adversarial schedules per implementation, n = {n}:\n");
    report(&Fig4Sim::new(n), trials);
    report(&Fig4Sim::with_announce_slots(n, 1), trials);
    report(&Fig4Sim::with_seq_domain(n, 1), trials);
    println!("\nThe faithful Figure 4 (n+1 registers) survives; both under-provisioned variants yield concrete missed-write schedules, illustrating why the space in Theorem 1 (a) is necessary.");
}
