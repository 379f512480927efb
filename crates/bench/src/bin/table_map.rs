//! Experiment E13: the split-ordered hash-map family — throughput under the
//! two Zipf-skewed key scenarios, binding conservation under churn, and the
//! segmented arena's growth trajectory.
//!
//! The map is the *growing* ABA surface: unlike the bounded-arena stack,
//! queue and set, its node arena starts at a handful of nodes and publishes
//! doubling segments while operations are in flight, and its bucket array
//! doubles the same way — so index recycling, segment publication and
//! bucket splitting all race with traversal.  The first table measures
//! per-scheme traversal cost on `zipf-key-churn` (hot buckets recycle
//! fastest) and `zipf-read-heavy` (protection cost on the probe path),
//! normalised against the unprotected baseline; the second replays the
//! binding-conservation stress harness; the third pins the arena's growth
//! (live capacity vs the small initial segment) per scheme.
//!
//! Run with `cargo run -p aba-bench --bin table_map --release`.
//! Flags: `--quick` (CI-sized run), `--out <path>` (JSON destination,
//! default `BENCH_map.json`; schema `aba-repro/map/v1` with the same cell
//! layout as `BENCH_throughput.json`, restricted to the map rows).

use aba_bench::Table;
use aba_lockfree::{all_maps, stress_map};
use aba_workload::{
    run_matrix, standard_backends, standard_scenarios, to_json_with_schema, CellResult,
    EngineConfig,
};

/// Schema identifier stamped into `BENCH_map.json` (pinned by the
/// `roster_golden` suite alongside the cell key set).
const MAP_JSON_SCHEMA: &str = "aba-repro/map/v1";

fn scheme_of(backend: &str) -> &'static str {
    match backend.split('/').nth(1) {
        Some("unprotected") => "none (baseline, incorrect)",
        Some("tagged") => "tagging (§1, counted links)",
        Some("hazard") => "hazard pointers [20, 21]",
        Some("epoch") => "epochs (quiescence)",
        Some("llsc") => "LL/SC slot + counted links",
        _ => "UNKNOWN SCHEME (update table_map)",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, out_path) = aba_bench::quick_and_out(&args, "BENCH_map.json");

    let config = if quick {
        EngineConfig::quick()
    } else {
        EngineConfig::standard()
    };
    let threads = config.thread_counts.iter().copied().max().unwrap_or(1);
    let scenarios: Vec<_> = standard_scenarios()
        .into_iter()
        .filter(|s| matches!(s.name(), "zipf-key-churn" | "zipf-read-heavy"))
        .collect();
    let backends: Vec<_> = standard_backends()
        .into_iter()
        .filter(|b| b.name().starts_with("map/"))
        .collect();
    assert_eq!(scenarios.len(), 2, "both Zipf scenarios in roster");
    assert_eq!(backends.len(), 5, "all five map schemes in roster");
    eprintln!(
        "E13 matrix: {} scenarios x {} map backends x {:?} threads, {} ops/thread, median of {}{}",
        scenarios.len(),
        backends.len(),
        config.thread_counts,
        config.ops_per_thread,
        config.repetitions,
        if quick { " (--quick)" } else { "" },
    );

    let result = run_matrix(&scenarios, &backends, &config);

    // A variant that silently wedges (or an arena that never publishes its
    // next segment and starves every insert) shows up as a zero-throughput
    // cell; fail loudly instead of publishing it (CI greps the JSON too).
    let dead: Vec<String> = result
        .cells
        .iter()
        .filter(|c| c.ops_per_rep == 0 || c.ops_per_sec <= 0.0)
        .map(|c| format!("{}/{}@{}thr", c.scenario, c.backend, c.threads))
        .collect();
    if !dead.is_empty() {
        eprintln!("map backends completed zero ops: {}", dead.join(", "));
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
            .find(|c| c.backend == "map/unprotected")
            .expect("unprotected baseline in roster")
            .ops_per_sec;
        let mut table = Table::new(
            &format!(
                "E13: SO-map traversal cost on `{}`, {threads} threads",
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

    // Anomaly quantification + arena growth: what the unprotected baseline's
    // speed costs, and how far each scheme's arena grew past its initial
    // segment while paying it.
    let (threads_stress, ops) = if quick { (4, 1_500) } else { (4, 6_000) };
    let mut anomalies = Table::new(
        &format!(
            "E13: binding conservation, {threads_stress} threads x {ops} insert/remove rounds"
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
    let mut growth = Table::new(
        "E13: segmented-arena growth during the conservation run",
        &["backend", "initial arena", "live arena", "grown", "buckets"],
    );
    for map in all_maps(512, threads_stress) {
        let report = stress_map(map.as_ref(), threads_stress, ops);
        anomalies.row(&[
            report.structure.clone(),
            report.inserted.to_string(),
            (report.removed + report.remaining).to_string(),
            report.lost.to_string(),
            report.duplicated.to_string(),
            report.aba_events.to_string(),
            if report.is_conserved() { "yes" } else { "NO" }.to_string(),
        ]);
        let initial = map.arena_initial_capacity();
        let live = map.arena_live_capacity();
        growth.row(&[
            report.structure.clone(),
            initial.to_string(),
            live.to_string(),
            if live > initial { "yes" } else { "NO" }.to_string(),
            map.buckets().to_string(),
        ]);
        assert!(
            live > initial,
            "{}: the conservation run must outgrow the initial arena segment",
            report.structure
        );
    }
    println!("{}", anomalies.render());
    println!("{}", growth.render());

    println!(
        "Expected shape: the unprotected baseline is fastest and loses bindings under Zipf churn \
         (its bailed-out operations surface as ABA events even when conservation happens to \
         hold); tagging and LL/SC pay per-CAS tag bumps but free immediately; hazard pointers \
         pay a publish + re-validate per split-order hop for a small bounded limbo; epochs \
         traverse cheapest among the correct schemes but park the largest unreclaimed footprint. \
         Every scheme's arena ends larger than its initial segment: growth is part of the \
         measured path, not a pre-sized fiction."
    );

    std::fs::write(&out_path, to_json_with_schema(&result, MAP_JSON_SCHEMA))
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path} ({} cells)", result.cells.len());
}
