//! Experiments E7–E10 and E13–E15: the engine-matrix tables, one row of
//! `aba_bench::matrix::MATRIX_TABLES` per run.
//!
//! Absolute numbers depend on the machine; each row prints the reproducible
//! *shape* under its tables.
//!
//! Run with `cargo run -p aba-bench --bin table_matrix --release -- --family
//! <all|reclamation|set|map>`.  Flags:
//! - `--family <row>` (required): which row to run.
//! - `--quick`: CI-sized sweep (threads 1/2/4, median of 2).
//! - `--out <path>`: JSON destination (default: the row's `BENCH_*.json`).
//! - `--threads <a,b,c>`: override the swept thread counts — the E14
//!   hardware-limit trajectory runs `--family all --threads 16,32,64`.
//! - `--ops <n>`: override timed operations per worker thread.
//! - `--scenarios <prefix,...>` / `--backends <prefix,...>`: keep only the
//!   row's scenarios/backends whose name starts with one of the prefixes.
//!
//! Exit status is the gate: 1 if `aba_bench::gate::matrix` reports a cell
//! (the document is then not written), 2 on a malformed command line.

use aba_bench::matrix::MatrixTable;
use aba_bench::{exit_on_failures, gate, Args};
use aba_workload::{to_json_with_schema, EngineConfig};

const USAGE: &str = "--family <all|reclamation|set|map> [--quick] [--out <path>] \
    [--threads <a,b,c>] [--ops <n>] [--scenarios <prefix,...>] [--backends <prefix,...>]";

fn main() {
    let args = Args::from_env(USAGE);
    let table = MatrixTable::find(args.value("--family"))
        .unwrap_or_else(|| args.fail("`--family` must name a row of MATRIX_TABLES"));
    let quick = args.has("--quick");
    let mut config = if quick {
        EngineConfig::quick()
    } else {
        EngineConfig::standard()
    };
    let list = |flag: &str| -> Vec<String> {
        let items = args.value(flag).into_iter().flat_map(|v| v.split(','));
        items.map(|item| item.trim().to_string()).collect()
    };
    let count = |flag: &str, text: &str| -> usize {
        match text.parse() {
            Ok(n) if n > 0 => n,
            _ => args.fail(&format!("`{flag}` takes positive integers, not `{text}`")),
        }
    };
    if args.has("--threads") {
        config.thread_counts = list("--threads")
            .iter()
            .map(|t| count("--threads", t))
            .collect();
    }
    if let Some(ops) = args.value("--ops") {
        config.ops_per_thread = count("--ops", ops);
    }
    let result = table
        .run(&config, &list("--scenarios"), &list("--backends"))
        .unwrap_or_else(|e| args.fail(&e));
    print!("{}", table.render(&result));
    let (conservation, growth) = table.conservation(quick);
    print!("{conservation}");
    println!("Expected shape: {}", table.expected_shape);

    exit_on_failures(
        table.family,
        &gate::matrix(&result, table.limbo_bound, &growth),
    );

    let out_path = args.value("--out").unwrap_or(table.default_out);
    std::fs::write(out_path, to_json_with_schema(&result, table.schema))
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path} ({} cells)", result.cells.len());
}
