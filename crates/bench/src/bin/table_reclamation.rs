//! Experiment E9 (re-measured as E15): the reclamation-scheme cost table —
//! per-operation time overhead versus peak unreclaimed-node footprint (the
//! paper's space axis) across all five ABA-protection schemes, on both
//! structures.
//!
//! The paper's subject is precisely this trade-off: tagging spends *width*
//! (a tag field per word), hazard pointers spend *validation steps* and keep
//! a small bounded limbo (at most one node per hazard slot plus the retired
//! lists), epochs make reads nearly free with — post-E15 — a *debt-bounded*
//! limbo (a stalled reader's share is transferred to a global quarantine
//! instead of blocking all reclamation), LL/SC spends Θ(n) registers inside
//! each word object, and the unprotected baseline spends nothing and is
//! wrong (E6/E8 quantify the damage).  This table measures both axes at
//! once: churn traffic for the stacks, producer-consumer hand-off for the
//! queues, each scheme's throughput normalised against its family's
//! unprotected baseline, with the engine's `peak_unreclaimed` gauge as the
//! measured footprint and failed (allocation-denied) operations reported
//! per cell and excluded from ops/s — a starved cell can never read as a
//! speedup.
//!
//! The binary is also the **limbo-bound gate**: any epoch cell whose peak
//! unreclaimed footprint reaches the arena capacity is the E9 parking
//! pathology come back, and the run exits non-zero.
//!
//! Run with `cargo run -p aba-bench --bin table_reclamation --release`.
//! Flags: `--quick` (CI-sized run), `--out <path>` (JSON destination,
//! default `BENCH_reclamation.json`; schema `aba-repro/reclamation/v1` with
//! the same cell layout as `BENCH_throughput.json`).

use aba_bench::Table;
use aba_workload::{
    roster_node_capacity, run_cell, standard_backends, standard_scenarios, to_json_with_schema,
    CellResult, EngineConfig, MatrixResult,
};

/// Schema string stamped into `BENCH_reclamation.json`.
const RECLAMATION_JSON_SCHEMA: &str = "aba-repro/reclamation/v1";

fn scheme_of(backend: &str) -> &'static str {
    match backend.split('/').nth(1) {
        Some("unprotected") => "none (baseline, incorrect)",
        Some("tagged") => "tagging (§1, unbounded tag)",
        Some("hazard") => "hazard pointers [20, 21]",
        Some("epoch") => "epochs (debt-bounded)",
        Some("llsc") | Some("llsc-head") => "LL/SC words (Thm 2 context)",
        // A scheme appended to the registry without a row here should be
        // visible in the table, not silently mislabelled.
        _ => "UNKNOWN SCHEME (update table_reclamation)",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, out_path) = aba_bench::quick_and_out(&args, "BENCH_reclamation.json");
    let config = if quick {
        EngineConfig::quick()
    } else {
        EngineConfig::standard()
    };
    let threads = config.thread_counts.iter().copied().max().unwrap_or(1);
    let scenarios = standard_scenarios();
    let backends = standard_backends();

    let mut all_cells: Vec<CellResult> = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();
    for (family, scenario_name) in [("stack", "churn"), ("queue", "producer-consumer")] {
        // The family's real arena size: the queue provisions one node beyond
        // its element capacity for the rotating dummy, which is also the one
        // node that can never sit in limbo — so `peak < arena` is exactly
        // "the scheme never parked the entire retirable set".
        let arena = roster_node_capacity(threads) as u64 + u64::from(family == "queue");
        let scenario = *scenarios
            .iter()
            .find(|s| s.name() == scenario_name)
            .expect("scenario in roster");
        let cells: Vec<CellResult> = backends
            .iter()
            .filter(|b| b.name().starts_with(family))
            .map(|b| run_cell(scenario, b, threads, &config))
            .collect();
        let baseline = cells
            .iter()
            .find(|c| c.backend.ends_with("/unprotected"))
            .expect("unprotected baseline in roster")
            .ops_per_sec;

        let mut table = Table::new(
            &format!("E9/E15 ({family}): reclamation cost on `{scenario_name}`, {threads} threads"),
            &[
                "backend",
                "scheme",
                "ops/s",
                "vs unprotected",
                "p99 (ns)",
                "peak unreclaimed (nodes)",
                "failed ops",
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
                cell.failed_ops.to_string(),
            ]);
            // The limbo-bound gate: a deferred scheme whose limbo reaches
            // the whole arena has reproduced the E9 parking pathology (the
            // pre-E15 stack/epoch cell measured peak == capacity).  The
            // epoch scheme is the one E15 bounds; hazard's scan policy has
            // always bounded it, so the gate covers both deferred schemes.
            if (cell.backend.ends_with("/epoch") || cell.backend.ends_with("/hazard"))
                && cell.peak_unreclaimed >= arena
            {
                gate_failures.push(format!(
                    "{} on {scenario_name}: peak unreclaimed {} reached arena capacity {arena}",
                    cell.backend, cell.peak_unreclaimed
                ));
            }
        }
        println!("{}", table.render());
        all_cells.extend(cells);
    }
    println!(
        "Expected shape: the unprotected baseline is fastest and wrong (its speed is the price \
         the protected schemes pay); tagging and LL/SC free immediately (0 unreclaimed) but pay \
         per-CAS width/validation; hazard pointers pay two validated loads per traversal for a \
         small bounded limbo; epochs make traversal cheapest among the correct schemes and — \
         since E15's debt-bounded advancement — keep their peak unreclaimed footprint well below \
         arena capacity even with stalled readers, with denied allocations surfacing in the \
         failed-ops column instead of inflating ops/s."
    );

    let result = MatrixResult {
        config,
        cells: all_cells,
    };
    std::fs::write(
        &out_path,
        to_json_with_schema(&result, RECLAMATION_JSON_SCHEMA),
    )
    .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path} ({} cells)", result.cells.len());

    if !gate_failures.is_empty() {
        for failure in &gate_failures {
            eprintln!("LIMBO-BOUND GATE FAILED: {failure}");
        }
        std::process::exit(1);
    }
    println!("limbo-bound gate: all deferred-scheme cells stayed below their arena capacity");
}
