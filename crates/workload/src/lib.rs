//! # aba-workload
//!
//! The multi-threaded workload engine behind experiments E7–E10, E13 and
//! E14: a deterministic [scenario](scenario::Scenario) registry (six
//! symmetric traffic shapes, the role-asymmetric `producer-consumer` and
//! `pipeline`, the key-space shapes `uniform-key-churn` and
//! `hot-key-contention`, and the Zipf-skewed shapes `zipf-key-churn` and
//! `zipf-read-heavy`) crossed with a [backend](backend::BackendSpec) matrix
//! over every `LlScObject` implementation and every Treiber-stack,
//! elimination-backoff-stack, MS-queue, Harris–Michael-set and
//! split-ordered-map variant — one per `aba-reclaim` protection scheme,
//! 30 backends — swept across thread counts by a measurement
//! [engine](engine::run_matrix)
//! (warmup, median-of-k repetitions, per-thread counters merged after join,
//! p50/p99 latency sampling with a prime, per-thread-staggered stride, and a
//! `peak_unreclaimed` space gauge sampled on the same stride), with results
//! rendered as aligned text tables and a machine-readable
//! `BENCH_throughput.json` ([report]).
//!
//! The engine makes one dynamic call per worker per round, loop
//! monomorphised per adapter: an adapter implements `read`, `write` and
//! `rmw` of [`WorkloadOps`], and the provided [`WorkloadOps::run`] — not
//! meant to be overridden — is the op loop compiled for it.
//!
//! The paper has no wall-clock claims; what the matrix makes reproducible is
//! the *shape*: O(1)-step implementations (announce-array, Moir, tagging)
//! sustain their rate as threads grow, the O(n)-step Figure 3 object
//! degrades fastest under contention, and the unprotected stack and queue
//! are fast but wrong (their correctness stories are E6's and E8's, not
//! E7's).
//!
//! ```
//! use aba_workload::{run_cell, standard_backends, standard_scenarios, EngineConfig};
//!
//! let config = EngineConfig {
//!     thread_counts: vec![2],
//!     ops_per_thread: 100,
//!     warmup_ops_per_thread: 10,
//!     repetitions: 1,
//!     latency_sample_period: 7, // prime, so it cannot alias with op scripts
//! };
//! let backends = standard_backends();
//! let cell = run_cell(standard_scenarios()[0], &backends[1], 2, &config);
//! assert_eq!(cell.ops_per_rep, 200); // threads × ops_per_thread, always
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod engine;
pub mod report;
pub mod scenario;

pub use backend::{
    roster_node_capacity, standard_backends, BackendSpec, LlScWorkload, Workload, WorkloadOps,
};
pub use engine::{run_cell, run_matrix, CellResult, EngineConfig, MatrixResult, Round, Tally};
pub use report::{render_tables, to_json, to_json_with_schema, Table, JSON_SCHEMA};
pub use scenario::{standard_scenarios, Op, Scenario};
