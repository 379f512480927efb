//! Experiments E7–E10 and E14: the scenario × backend × thread-count
//! throughput matrix, driven by the `aba-workload` engine.
//!
//! Ten traffic shapes (stack churn, event signal/wait, counter CAS
//! storms, read-heavy, write-heavy, pathological same-slot contention, the
//! role-asymmetric producer-consumer and pipeline hand-offs, plus the
//! key-space uniform-key-churn and hot-key-contention shapes) crossed
//! with every `LlScObject` implementation (Figure 3's single CAS, the
//! announce-array object, Moir at tag widths 8/16/32), every Treiber-stack,
//! elimination-stack, MS-queue and Harris–Michael-set variant (unprotected,
//! tagged, hazard-protected, epoch-reclaimed, LL/SC), each swept across
//! thread counts with warmup and median-of-k repetitions.
//!
//! Absolute numbers depend on the machine; the reproducible *shape* is that
//! the O(1)-step implementations sustain their rate as the thread count
//! grows while the O(n)-step Figure 3 object degrades fastest under
//! contention, and that the unprotected stack and queue buy their speed
//! with the incorrectness E6 and E8 quantify.
//!
//! Run with `cargo run -p aba-bench --bin table_throughput --release`.
//! Flags:
//! - `--quick`: CI-sized sweep (threads 1/2/4, median of 2).
//! - `--out <path>`: JSON destination (default `BENCH_throughput.json`).
//! - `--threads <a,b,c>`: override the swept thread counts — the E14
//!   hardware-limit trajectory runs `--threads 16,32,64`.
//! - `--ops <n>`: override timed operations per worker thread.
//! - `--scenarios <prefix,...>` / `--backends <prefix,...>`: keep only
//!   scenarios/backends whose name starts with one of the prefixes (E14
//!   restricts to the contention scenarios × stack backends; a prefix
//!   rather than a substring, so `churn` does not drag in
//!   `uniform-key-churn`, while `stack/` still selects a whole family).
//! - `--baseline <path>`: compare against a committed
//!   `BENCH_baseline.json` and exit 1 when any shared cell loses more than
//!   25% of its median-relative throughput (see `aba_bench::baseline`).

use aba_bench::{baseline, value_flag};
use aba_workload::{
    render_tables, run_matrix, standard_backends, standard_scenarios, to_json, EngineConfig,
};

fn list_flag(args: &[String], flag: &str) -> Option<Vec<String>> {
    value_flag(args, flag).map(|v| v.split(',').map(|s| s.trim().to_string()).collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, out_path) = aba_bench::quick_and_out(&args, "BENCH_throughput.json");

    let mut config = if quick {
        EngineConfig::quick()
    } else {
        EngineConfig::standard()
    };
    if let Some(threads) = list_flag(&args, "--threads") {
        config.thread_counts = threads
            .iter()
            .map(|t| {
                t.parse()
                    .unwrap_or_else(|_| panic!("bad --threads value {t}"))
            })
            .collect();
    }
    if let Some(ops) = value_flag(&args, "--ops") {
        config.ops_per_thread = ops
            .parse()
            .unwrap_or_else(|_| panic!("bad --ops value {ops}"));
    }

    let mut scenarios = standard_scenarios();
    if let Some(filters) = list_flag(&args, "--scenarios") {
        scenarios.retain(|s| filters.iter().any(|f| s.name().starts_with(f.as_str())));
        assert!(!scenarios.is_empty(), "--scenarios matched nothing");
    }
    let mut backends = standard_backends();
    if let Some(filters) = list_flag(&args, "--backends") {
        backends.retain(|b| filters.iter().any(|f| b.name().starts_with(f.as_str())));
        assert!(!backends.is_empty(), "--backends matched nothing");
    }

    eprintln!(
        "E7/E8 matrix: {} scenarios x {} backends x {:?} threads, {} ops/thread, median of {}{}",
        scenarios.len(),
        backends.len(),
        config.thread_counts,
        config.ops_per_thread,
        config.repetitions,
        if quick { " (--quick)" } else { "" },
    );

    let result = run_matrix(&scenarios, &backends, &config);

    // A backend that silently wedges (or a scheme whose reclamation starves
    // the arena into a no-op loop) shows up as a zero-throughput cell; fail
    // loudly instead of publishing it (CI greps the JSON for the same).
    let dead: Vec<String> = result
        .cells
        .iter()
        .filter(|c| c.ops_per_rep == 0 || c.ops_per_sec <= 0.0)
        .map(|c| format!("{}/{}@{}thr", c.scenario, c.backend, c.threads))
        .collect();
    if !dead.is_empty() {
        eprintln!("backends completed zero ops: {}", dead.join(", "));
        std::process::exit(1);
    }

    println!("{}", render_tables(&result));
    println!("Expected shape: constant-step implementations sustain their rate as threads grow; the Figure 3 single-CAS object degrades fastest under contention (its retry loop is Θ(n)); the unprotected stack and queue are fast but incorrect (see table_aba_incidence and the E8 conservation tests).");

    let json = to_json(&result);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path} ({} cells)", result.cells.len());

    if let Some(baseline_path) = value_flag(&args, "--baseline") {
        let baseline_json = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
        let base_cells = baseline::parse_cells(&baseline_json);
        let cur_cells = baseline::parse_cells(&json);
        match baseline::compare(&base_cells, &cur_cells, baseline::DEFAULT_TOLERANCE) {
            Ok(cmp) => {
                print!("{}", cmp.report());
                if cmp.failed() {
                    eprintln!("throughput regression against {baseline_path}");
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("baseline comparison against {baseline_path} failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
