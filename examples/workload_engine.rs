//! The E7 workload engine in miniature: one scenario, a handful of
//! backends, two thread counts.
//!
//! The full sweep (6 scenarios × 9 backends × 4 thread counts, with JSON
//! output) is `cargo run --release -p aba-bench --bin table_matrix -- --family all`;
//! this example shows the same engine driven programmatically, the way a
//! downstream user would measure their own configuration.
//!
//! Run with `cargo run --example workload_engine --release`.

use aba_repro::workload::{
    render_tables, run_matrix, standard_backends, standard_scenarios, EngineConfig,
};

fn main() {
    let config = EngineConfig {
        thread_counts: vec![1, 4],
        ops_per_thread: 5_000,
        warmup_ops_per_thread: 500,
        repetitions: 3,
        latency_sample_period: 16,
    };

    // Pick the CAS-storm scenario and contrast an O(n)-step backend
    // (Figure 3) with two O(1)-step ones (announce array, Moir).
    let scenarios: Vec<_> = standard_scenarios()
        .into_iter()
        .filter(|s| s.name() == "rmw-storm")
        .collect();
    let backends: Vec<_> = standard_backends()
        .into_iter()
        .filter(|b| {
            b.name().starts_with("llsc/")
                && !b.name().contains("tag8")
                && !b.name().contains("tag16")
        })
        .collect();

    println!(
        "Sweeping {} backend(s) over threads {:?}, {} ops/thread, median of {} repetitions:\n",
        backends.len(),
        config.thread_counts,
        config.ops_per_thread,
        config.repetitions
    );
    let result = run_matrix(&scenarios, &backends, &config);
    println!("{}", render_tables(&result));

    for cell in &result.cells {
        assert_eq!(
            cell.ops_per_rep,
            (cell.threads * config.ops_per_thread) as u64
        );
    }
    println!("Every cell performed exactly threads x ops_per_thread operations — throughput differences are purely per-op cost, which is what makes the O(1)-vs-O(n) shape comparable across backends.");
}
