//! Experiment E10: the Harris–Michael ordered-set family — traversal
//! throughput under the two key-space scenarios, plus anomaly
//! quantification for the unprotected variant.
//!
//! The set is the *traversal-based* ABA surface: operations hold a
//! predecessor's link word deep inside the chain across an unbounded
//! window, so protection cost is paid per *hop* (hazard publication and
//! re-validation, counted-tag decoding) rather than once per operation as
//! in the stack and queue.  The table measures that cost on
//! `uniform-key-churn` (splices at uniform depths) and `hot-key-contention`
//! (every thread recycling the same few nodes), normalised against the
//! unprotected baseline; a second table replays the membership-conservation
//! stress harness to quantify what that baseline's speed costs in lost and
//! duplicated keys.
//!
//! Run with `cargo run -p aba-bench --bin table_set --release`.
//! Flags: `--quick` (CI-sized run), `--out <path>` (JSON destination,
//! default `BENCH_set.json`; same `aba-repro/bench-throughput/v1` schema as
//! `BENCH_throughput.json`, restricted to the set rows).

use aba_bench::Table;
use aba_lockfree::{all_sets, stress_set};
use aba_workload::{
    run_matrix, standard_backends, standard_scenarios, to_json, CellResult, EngineConfig,
};

fn scheme_of(backend: &str) -> &'static str {
    match backend.split('/').nth(1) {
        Some("unprotected") => "none (baseline, incorrect)",
        Some("tagged") => "tagging (§1, counted links)",
        Some("hazard") => "hazard pointers [20, 21]",
        Some("epoch") => "epochs (quiescence)",
        Some("llsc") => "LL/SC head + counted links",
        _ => "UNKNOWN SCHEME (update table_set)",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, out_path) = aba_bench::quick_and_out(&args, "BENCH_set.json");

    let config = if quick {
        EngineConfig::quick()
    } else {
        EngineConfig::standard()
    };
    let threads = config.thread_counts.iter().copied().max().unwrap_or(1);
    let scenarios: Vec<_> = standard_scenarios()
        .into_iter()
        .filter(|s| matches!(s.name(), "uniform-key-churn" | "hot-key-contention"))
        .collect();
    let backends: Vec<_> = standard_backends()
        .into_iter()
        .filter(|b| b.name().starts_with("set/"))
        .collect();
    assert_eq!(scenarios.len(), 2, "both key-space scenarios in roster");
    assert_eq!(backends.len(), 5, "all five set schemes in roster");
    eprintln!(
        "E10 matrix: {} scenarios x {} set backends x {:?} threads, {} ops/thread, median of {}{}",
        scenarios.len(),
        backends.len(),
        config.thread_counts,
        config.ops_per_thread,
        config.repetitions,
        if quick { " (--quick)" } else { "" },
    );

    let result = run_matrix(&scenarios, &backends, &config);

    // A variant that silently wedges (or a reclaimer that starves the arena
    // into a no-op loop) shows up as a zero-throughput cell; fail loudly
    // instead of publishing it (CI greps the JSON for the same).
    let dead: Vec<String> = result
        .cells
        .iter()
        .filter(|c| c.ops_per_rep == 0 || c.ops_per_sec <= 0.0)
        .map(|c| format!("{}/{}@{}thr", c.scenario, c.backend, c.threads))
        .collect();
    if !dead.is_empty() {
        eprintln!("set backends completed zero ops: {}", dead.join(", "));
        std::process::exit(1);
    }

    for scenario in &scenarios {
        let cells: Vec<&CellResult> = result
            .cells
            .iter()
            .filter(|c| c.scenario == scenario.name() && c.threads == threads)
            .collect();
        let baseline = cells
            .iter()
            .find(|c| c.backend == "set/unprotected")
            .expect("unprotected baseline in roster")
            .ops_per_sec;
        let mut table = Table::new(
            &format!(
                "E10: HM-set traversal cost on `{}`, {threads} threads",
                scenario.name()
            ),
            &[
                "backend",
                "scheme",
                "ops/s",
                "vs unprotected",
                "p99 (ns)",
                "peak unreclaimed (nodes)",
            ],
        );
        for cell in &cells {
            table.row(&[
                cell.backend.clone(),
                scheme_of(&cell.backend).to_string(),
                format!("{:.0}", cell.ops_per_sec),
                format!("{:+.1}%", (cell.ops_per_sec / baseline - 1.0) * 100.0),
                cell.p99_ns.to_string(),
                cell.peak_unreclaimed.to_string(),
            ]);
        }
        println!("{}", table.render());
    }

    // Anomaly quantification: what the unprotected baseline's speed costs.
    let (threads_stress, ops) = if quick { (4, 1_500) } else { (4, 6_000) };
    let mut anomalies = Table::new(
        &format!(
            "E10: membership conservation, {threads_stress} threads x {ops} insert/remove rounds"
        ),
        &[
            "backend",
            "inserted",
            "removed+drained",
            "lost",
            "duplicated",
            "ABA events",
            "conserved",
        ],
    );
    for set in all_sets(24, threads_stress) {
        let report = stress_set(set.as_ref(), threads_stress, ops);
        anomalies.row(&[
            report.structure.clone(),
            report.inserted.to_string(),
            (report.removed + report.remaining).to_string(),
            report.lost.to_string(),
            report.duplicated.to_string(),
            report.aba_events.to_string(),
            if report.is_conserved() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!("{}", anomalies.render());

    println!(
        "Expected shape: the unprotected baseline is fastest and loses keys under churn (its \
         bailed-out operations surface as ABA events even when conservation happens to hold); \
         tagging and LL/SC pay per-CAS tag bumps but free immediately; hazard pointers pay a \
         publish + re-validate per traversal hop for a small bounded limbo; epochs traverse \
         cheapest among the correct schemes but park the largest unreclaimed footprint — the \
         per-hop edition of E9's time/space trade-off."
    );

    std::fs::write(&out_path, to_json(&result))
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path} ({} cells)", result.cells.len());
}
