//! Experiment E3: the time–space tradeoff table (Theorem 1 (b)/(c),
//! Corollary 1).
//!
//! For every implementation: number of bounded base objects `m`, designed and
//! observed worst-case step complexity `t` (observed under the simulator's
//! adaptive adversary, on the object's own code), the product `m·t` (or
//! `2·m·t` for writable CAS) and whether it clears the `n − 1` bound.  The
//! table is deterministic: two runs print the same bytes.
//!
//! Run with `cargo run -p aba-bench --bin table_tradeoff --release`.

use aba_bench::lowerbound::{llsc_tradeoff_rows, register_tradeoff_rows, TradeoffRow};
use aba_bench::Table;

fn render(title: &str, rows: &[TradeoffRow]) {
    let table = Table::of(
        title,
        rows,
        &[
            ("implementation", &|r| r.name.clone()),
            ("n", &|r| r.n.to_string()),
            ("base objects (m)", &|r| r.space.total_objects().to_string()),
            ("bounded", &|r| r.space.bounded.to_string()),
            ("design t", &|r| r.design_worst_steps.to_string()),
            ("observed t", &|r| r.observed_worst_steps.to_string()),
            ("product m·t", &|r| r.product().to_string()),
            ("bound n-1", &|r| r.bound().to_string()),
            ("satisfies", &|r| r.satisfies_bound().to_string()),
        ],
    );
    println!("{}", table.render());
}

fn main() {
    aba_bench::Args::from_env(""); // takes no flags: anything given is a mistake

    for n in [4usize, 8, 16, 32] {
        render(
            &format!("E3: ABA-detecting registers, n = {n}"),
            &register_tradeoff_rows(n),
        );
        render(
            &format!("E3: LL/SC/VL objects, n = {n}"),
            &llsc_tradeoff_rows(n),
        );
    }
    println!("Expected shape: every bounded implementation's product m·t clears n-1; Figure 4 / Figure 3 / Announce sit within a small constant factor of the bound (they are the optimal corners); the unbounded baselines are exempt; observed t never exceeds design t, and Figure 3's reaches it.");
}
