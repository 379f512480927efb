//! The measurement engine: sharded worker threads, warmup, median-of-k
//! repetitions, merged per-thread counters and latency percentiles.
//!
//! One *cell* is a (scenario × backend × thread-count) triple.  For each
//! cell the engine builds a fresh backend instance, runs one untimed warmup
//! round, then `repetitions` timed rounds; every round spawns one real
//! `std::thread` per worker, each following its scenario script and keeping
//! *private* counters (operations done, sampled latencies) that are merged
//! only after the round's threads have joined — no shared measurement state
//! pollutes the thing being measured.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::backend::BackendSpec;
use crate::scenario::{Op, Scenario};

/// Engine configuration: the swept thread counts and the per-cell effort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Thread counts the matrix sweeps (each must be ≥ 1).
    pub thread_counts: Vec<usize>,
    /// Timed operations per worker thread per repetition.
    pub ops_per_thread: usize,
    /// Untimed warmup operations per worker thread (one round per cell).
    pub warmup_ops_per_thread: usize,
    /// Timed repetitions per cell; the reported throughput is the median.
    pub repetitions: usize,
    /// Sample the latency of every `latency_sample_period`-th operation
    /// (must be ≥ 1; 1 samples every operation).
    ///
    /// Prefer a *prime* period: the scenarios' op scripts are periodic in
    /// `i` (period 2 for `churn`, 10 for `read-heavy`/`write-heavy`), and a
    /// sampling stride sharing a factor with the op period aliases — an even
    /// stride on `churn` samples only writes, so the reported p50/p99
    /// exclude reads entirely.  The sampling phase is additionally staggered
    /// by thread id (see `should_sample`) so that per-`tid` role splits
    /// are covered too.
    pub latency_sample_period: usize,
}

impl EngineConfig {
    /// The full E7/E8 configuration: threads 1/2/4/8, median of 3
    /// repetitions.  The sample period is prime — see
    /// [`EngineConfig::latency_sample_period`].
    pub fn standard() -> Self {
        EngineConfig {
            thread_counts: vec![1, 2, 4, 8],
            ops_per_thread: 8_000,
            warmup_ops_per_thread: 1_000,
            repetitions: 3,
            latency_sample_period: 13,
        }
    }

    /// A CI-sized configuration (`table_matrix --quick`): threads 1/2/4,
    /// 2 repetitions.  Operations per thread match [`EngineConfig::standard`]:
    /// a structure operation costs tens of nanoseconds, and a round much
    /// shorter than a millisecond measures thread start-up, not the backend
    /// (the baseline gate flapped on 800-op rounds).  The sample period is
    /// prime — see [`EngineConfig::latency_sample_period`].
    pub fn quick() -> Self {
        EngineConfig {
            thread_counts: vec![1, 2, 4],
            ops_per_thread: 8_000,
            warmup_ops_per_thread: 1_000,
            repetitions: 2,
            latency_sample_period: 7,
        }
    }

    fn validate(&self) {
        assert!(
            !self.thread_counts.is_empty(),
            "need at least one thread count"
        );
        assert!(
            self.thread_counts.iter().all(|&t| t > 0),
            "thread counts must be ≥ 1"
        );
        assert!(self.ops_per_thread > 0, "ops_per_thread must be ≥ 1");
        assert!(self.repetitions > 0, "repetitions must be ≥ 1");
        assert!(
            self.latency_sample_period > 0,
            "latency_sample_period must be ≥ 1"
        );
    }
}

/// Measured result of one (scenario × backend × thread-count) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Scenario name.
    pub scenario: String,
    /// Backend name.
    pub backend: String,
    /// Worker thread count.
    pub threads: usize,
    /// Operations per timed repetition — `threads × ops_per_thread`, a pure
    /// function of the configuration (the determinism tests assert this).
    pub ops_per_rep: u64,
    /// Median *productive* operations per second across the repetitions:
    /// allocation-failure fast paths are subtracted from the numerator, so a
    /// starved cell can never report its failure loop as a speedup (E9's
    /// documented footgun).
    pub ops_per_sec: f64,
    /// Worst (maximum) per-repetition count of operations that failed on the
    /// backend's allocation fast path.  0 for backends that never allocate.
    pub failed_ops: u64,
    /// 50th-percentile sampled operation latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile sampled operation latency, nanoseconds.
    pub p99_ns: u64,
    /// Peak retired-but-unreclaimed node count observed across the timed
    /// repetitions (sampled on the latency stride) — the protection
    /// scheme's space overhead, measured rather than inferred.  Always 0
    /// for backends without deferred reclamation.
    pub peak_unreclaimed: u64,
    /// Number of timed repetitions behind the median.
    pub repetitions: usize,
}

/// The whole matrix: every cell plus the configuration that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixResult {
    /// Configuration echo (for the JSON report and reproducibility).
    pub config: EngineConfig,
    /// One entry per (scenario × backend × thread-count), in sweep order.
    pub cells: Vec<CellResult>,
}

/// Counters one worker thread accumulates privately during a round, plus
/// its start/finish timestamps (monotonic `Instant`s are comparable across
/// threads).
#[derive(Debug, Clone)]
struct WorkerStats {
    ops: u64,
    started: Instant,
    finished: Instant,
    latencies_ns: Vec<u64>,
    peak_unreclaimed: u64,
}

/// Result of one timed round: merged worker counters plus wall time.
#[derive(Debug)]
struct RoundStats {
    ops: u64,
    /// Allocation-failure fast paths among `ops` (read off the workload's
    /// cumulative counter after the join — each round gets a fresh backend
    /// instance, so the cumulative count is this round's count).
    failed_ops: u64,
    elapsed: Duration,
    latencies_ns: Vec<u64>,
    peak_unreclaimed: u64,
}

/// Whether worker `tid` samples the latency of its `i`-th operation, for a
/// stride of `period`.
///
/// The phase is staggered by thread id for two reasons: role-asymmetric
/// scenarios (`signal-wait`, `producer-consumer`) assign ops by `tid`, so a
/// common phase would over-represent whichever role thread 0 plays; and a
/// shared phase makes all workers take their `Instant::now` calls in the
/// same beat, correlating the sampling overhead with the contention being
/// measured.  Regression: this used to be `i % period == 0`, which with the
/// then-even default strides (16/8) aliased against the period-2 `churn`
/// script and sampled only its writes — `latency_samples_cover_the_scenario_
/// op_mix` fails on that logic.
fn should_sample(tid: usize, i: usize, period: usize) -> bool {
    i % period == tid % period
}

/// Run one round of `scenario` against `workload` with `threads` workers,
/// `ops` operations each, sampling every `sample_period`-th latency
/// (staggered per thread); a period of 0 disables sampling entirely (used
/// for warmup rounds, which would otherwise pay two `Instant::now` calls
/// per sampled op for samples nobody reads).
fn run_round(
    workload: &dyn crate::backend::Workload,
    scenario: Scenario,
    threads: usize,
    ops: usize,
    sample_period: usize,
) -> RoundStats {
    // All workers rendezvous at a barrier before their first operation and
    // timestamp their own start and finish, so thread spawn/join overhead
    // never pollutes the numbers and no early-spawned worker runs its script
    // uncontended.  The round's duration is the wall time of the work phase:
    // last finish minus first start (correct even when the machine is
    // oversubscribed and workers time-slice on fewer cores).
    let barrier = Barrier::new(threads);
    let barrier = &barrier;
    let per_thread: Vec<WorkerStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                s.spawn(move || {
                    let mut worker = workload.worker(tid);
                    let mut latencies_ns = Vec::new();
                    let mut ops_done = 0u64;
                    let mut peak_unreclaimed = 0u64;
                    barrier.wait();
                    let started = Instant::now();
                    for i in 0..ops {
                        let sampled = sample_period != 0 && should_sample(tid, i, sample_period);
                        let timer = sampled.then(Instant::now);
                        match scenario.op(tid, i) {
                            Op::Read => worker.read(),
                            Op::Write(v) => worker.write(v),
                            Op::Rmw(v) => worker.rmw(v),
                        }
                        if let Some(t0) = timer {
                            latencies_ns.push(t0.elapsed().as_nanos() as u64);
                        }
                        if sampled {
                            // Space gauge on the same stride as the latency
                            // sampler: one atomic load, mid-traffic, so the
                            // reported peak reflects limbo under load rather
                            // than the post-round calm.
                            peak_unreclaimed = peak_unreclaimed.max(workload.unreclaimed());
                        }
                        ops_done += 1;
                    }
                    WorkerStats {
                        ops: ops_done,
                        started,
                        finished: Instant::now(),
                        latencies_ns,
                        peak_unreclaimed,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let first_start = per_thread
        .iter()
        .map(|s| s.started)
        .min()
        .expect("threads ≥ 1");
    let last_finish = per_thread
        .iter()
        .map(|s| s.finished)
        .max()
        .expect("threads ≥ 1");
    let mut merged = RoundStats {
        ops: 0,
        failed_ops: workload.failed_ops(),
        elapsed: last_finish.duration_since(first_start),
        latencies_ns: Vec::new(),
        peak_unreclaimed: 0,
    };
    for stats in per_thread {
        merged.ops += stats.ops;
        merged.latencies_ns.extend(stats.latencies_ns);
        merged.peak_unreclaimed = merged.peak_unreclaimed.max(stats.peak_unreclaimed);
    }
    merged
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN throughput"));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 - 1) * pct / 100;
    sorted[rank as usize]
}

/// Measure one cell: warmup round, then `config.repetitions` timed rounds on
/// a fresh backend instance, merging counters and pooling latency samples.
pub fn run_cell(
    scenario: Scenario,
    backend: &BackendSpec,
    threads: usize,
    config: &EngineConfig,
) -> CellResult {
    config.validate();
    let workload = backend.build(threads);
    if config.warmup_ops_per_thread > 0 {
        // Sampling disabled (period 0): warmup samples are discarded, so
        // collecting them would only add `Instant::now` and allocation
        // traffic to the warmup.
        run_round(
            workload.as_ref(),
            scenario,
            threads,
            config.warmup_ops_per_thread,
            0,
        );
    }
    let mut throughputs = Vec::with_capacity(config.repetitions);
    let mut pooled_latencies = Vec::new();
    let mut ops_per_rep = 0u64;
    let mut peak_unreclaimed = 0u64;
    let mut failed_ops = 0u64;
    for _ in 0..config.repetitions {
        // A fresh instance per repetition: repetitions must not observe each
        // other's residual state (a half-full stack, a drifted tag).
        let workload = backend.build(threads);
        let round = run_round(
            workload.as_ref(),
            scenario,
            threads,
            config.ops_per_thread,
            config.latency_sample_period,
        );
        assert_eq!(
            round.ops,
            (threads * config.ops_per_thread) as u64,
            "op accounting must be deterministic"
        );
        ops_per_rep = round.ops;
        // Throughput counts *productive* ops only: an allocation-failure
        // fast path completes in a handful of nanoseconds, so counting it
        // would let a starved cell overtake a healthy one.
        let productive = round.ops.saturating_sub(round.failed_ops);
        throughputs.push(productive as f64 / round.elapsed.as_secs_f64().max(1e-9));
        pooled_latencies.extend(round.latencies_ns);
        peak_unreclaimed = peak_unreclaimed.max(round.peak_unreclaimed);
        failed_ops = failed_ops.max(round.failed_ops);
    }
    pooled_latencies.sort_unstable();
    CellResult {
        scenario: scenario.name().to_string(),
        backend: backend.name().to_string(),
        threads,
        ops_per_rep,
        ops_per_sec: median(throughputs),
        failed_ops,
        p50_ns: percentile(&pooled_latencies, 50),
        p99_ns: percentile(&pooled_latencies, 99),
        peak_unreclaimed,
        repetitions: config.repetitions,
    }
}

/// Sweep the whole matrix: every scenario × every backend × every configured
/// thread count, in that nesting order.
pub fn run_matrix(
    scenarios: &[Scenario],
    backends: &[BackendSpec],
    config: &EngineConfig,
) -> MatrixResult {
    config.validate();
    let mut cells =
        Vec::with_capacity(scenarios.len() * backends.len() * config.thread_counts.len());
    for scenario in scenarios {
        for backend in backends {
            for &threads in &config.thread_counts {
                cells.push(run_cell(*scenario, backend, threads, config));
            }
        }
    }
    MatrixResult {
        config: config.clone(),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::standard_backends;
    use crate::scenario::standard_scenarios;

    fn tiny_config() -> EngineConfig {
        EngineConfig {
            thread_counts: vec![1, 2],
            ops_per_thread: 120,
            warmup_ops_per_thread: 16,
            repetitions: 2,
            latency_sample_period: 4,
        }
    }

    #[test]
    fn cell_counts_ops_deterministically() {
        let backends = standard_backends();
        let scenario = standard_scenarios()[0];
        let cell = run_cell(scenario, &backends[1], 2, &tiny_config());
        assert_eq!(cell.ops_per_rep, 240);
        assert!(cell.ops_per_sec > 0.0);
        assert!(cell.p50_ns <= cell.p99_ns);
    }

    #[test]
    fn matrix_covers_the_full_cross_product() {
        let scenarios = &standard_scenarios()[..2];
        let backends: Vec<_> = standard_backends().into_iter().take(2).collect();
        let result = run_matrix(scenarios, &backends, &tiny_config());
        assert_eq!(result.cells.len(), 2 * 2 * 2);
        for cell in &result.cells {
            assert_eq!(cell.ops_per_rep, (cell.threads * 120) as u64);
        }
    }

    #[test]
    fn peak_unreclaimed_gauge_sees_deferred_limbo_and_stays_zero_elsewhere() {
        let backends = standard_backends();
        let churn = standard_scenarios()[0];
        let epoch_stack = backends
            .iter()
            .find(|b| b.name() == "stack/epoch")
            .expect("epoch backend in roster");
        let cell = run_cell(churn, epoch_stack, 2, &tiny_config());
        assert!(
            cell.peak_unreclaimed > 0,
            "churn on an epoch-reclaimed stack must show limbo nodes"
        );
        let immediate = backends
            .iter()
            .find(|b| b.name() == "stack/tagged")
            .expect("tagged backend in roster");
        let cell = run_cell(churn, immediate, 2, &tiny_config());
        assert_eq!(cell.peak_unreclaimed, 0, "tagging frees immediately");
    }

    #[test]
    fn failed_ops_stay_within_the_op_budget_and_zero_for_immediate_free() {
        let backends = standard_backends();
        let churn = standard_scenarios()[0];
        for name in ["stack/epoch", "stack/tagged"] {
            let spec = backends
                .iter()
                .find(|b| b.name() == name)
                .expect("backend in roster");
            let cell = run_cell(churn, spec, 2, &tiny_config());
            assert!(
                cell.failed_ops <= cell.ops_per_rep,
                "{name}: failed {} of {}",
                cell.failed_ops,
                cell.ops_per_rep
            );
            // Productive throughput can never exceed what counting every op
            // would have reported; a cell whose every op failed reports 0.
            assert!(cell.ops_per_sec >= 0.0);
        }
    }

    #[test]
    fn median_of_odd_and_even_sample_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_bounds() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50), 50);
        assert_eq!(percentile(&sorted, 99), 99);
        assert_eq!(percentile(&[], 99), 0);
    }

    #[test]
    #[should_panic(expected = "repetitions")]
    fn zero_repetitions_are_rejected() {
        let mut config = tiny_config();
        config.repetitions = 0;
        let backends = standard_backends();
        let _ = run_cell(standard_scenarios()[0], &backends[0], 1, &config);
    }

    /// The op kinds one worker issues, and the subset the sampler picks, as
    /// (read, write, rmw) counts.
    fn op_mix(
        scenario: crate::scenario::Scenario,
        tid: usize,
        ops: usize,
        period: usize,
    ) -> ([usize; 3], [usize; 3]) {
        use crate::scenario::Op;
        let mut total = [0usize; 3];
        let mut sampled = [0usize; 3];
        for i in 0..ops {
            let slot = match scenario.op(tid, i) {
                Op::Read => 0,
                Op::Write(_) => 1,
                Op::Rmw(_) => 2,
            };
            total[slot] += 1;
            if should_sample(tid, i, period) {
                sampled[slot] += 1;
            }
        }
        (total, sampled)
    }

    /// Regression (verified to fail with the old `i % sample_period == 0`
    /// logic and its even default periods 16/8): *every worker's* sampled
    /// operations must have roughly the same read/write/rmw mix as the
    /// operations that worker actually issues.  Pre-fix, `churn` (a period-2
    /// op script) aliased with the even stride and sampled *only* writes, so
    /// the reported p50/p99 excluded reads entirely.
    #[test]
    fn latency_samples_cover_the_scenario_op_mix() {
        let ops = 9_100; // multiple of lcm(op periods 2/10, strides 13/7)
        for period in [
            EngineConfig::standard().latency_sample_period,
            EngineConfig::quick().latency_sample_period,
        ] {
            for scenario in standard_scenarios() {
                for tid in 0..4 {
                    let (total, sampled) = op_mix(scenario, tid, ops, period);
                    let sampled_n: usize = sampled.iter().sum();
                    assert!(
                        sampled_n > 0,
                        "{} tid {tid}: nothing sampled",
                        scenario.name()
                    );
                    for (kind, (&t, &s)) in ["read", "write", "rmw"]
                        .iter()
                        .zip(total.iter().zip(&sampled))
                    {
                        let share = t as f64 / ops as f64;
                        let sampled_share = s as f64 / sampled_n as f64;
                        assert!(
                            (share - sampled_share).abs() < 0.05,
                            "{} tid {tid} stride {period}: {kind} is {share:.2} of ops but {sampled_share:.2} of samples",
                            scenario.name(),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn default_sample_periods_do_not_alias_with_op_patterns() {
        fn gcd(a: usize, b: usize) -> usize {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        for config in [EngineConfig::standard(), EngineConfig::quick()] {
            let period = config.latency_sample_period;
            // The scenario scripts are periodic in i with periods 2 (churn)
            // and 10 (read-heavy/write-heavy); a shared factor would alias.
            for op_period in [2usize, 10] {
                assert_eq!(
                    gcd(period, op_period),
                    1,
                    "stride {period} aliases with op period {op_period}"
                );
            }
        }
    }

    #[test]
    fn sampling_phase_is_staggered_by_thread() {
        // All threads sampling the same beat would correlate the sampling
        // overhead across workers; the phases must differ.
        let period = 13;
        let tid0: Vec<usize> = (0..100).filter(|&i| should_sample(0, i, period)).collect();
        let tid1: Vec<usize> = (0..100).filter(|&i| should_sample(1, i, period)).collect();
        assert!(!tid0.is_empty() && !tid1.is_empty());
        assert!(tid0.iter().all(|i| !tid1.contains(i)));
    }

    #[test]
    fn warmup_rounds_collect_no_latency_samples() {
        // Regression: the warmup round used to run with the real sampling
        // stride, paying two `Instant::now` calls per sampled op for samples
        // it then discarded; period 0 disables sampling outright.
        let backends = standard_backends();
        let workload = backends[0].build(1);
        let round = run_round(workload.as_ref(), standard_scenarios()[0], 1, 64, 0);
        assert!(round.latencies_ns.is_empty());
        assert_eq!(round.ops, 64);
    }
}
