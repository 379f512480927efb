//! The end-to-end pass: set-up, then many short rounds through the system's
//! real entry point, `aba_workload::run_cell`.
//!
//! Closed loop: each of the workload's worker threads issues its next
//! operation when the previous one returns.  One `run_cell` call — one fresh
//! backend instance, `ops_per_thread` operations per worker — is one *round*
//! of one lane; the lanes of a workload are interleaved round by round, in a
//! seed-shuffled order, so that drift of the host hits all lanes alike.

use aba_workload::{run_cell, standard_scenarios, BackendSpec, CellResult, EngineConfig, Scenario};

use crate::gate;
use crate::lanes::{LaneDef, Role, WorkloadDef};
use crate::seed::{lane_order, Rng};
use crate::stats::{geomean, percentile_is_supported, quiet_decile, relative_iqr, Better};
use crate::trace::{SpanId, Tracer};

/// Latency sampling stride: prime, so it cannot alias with the scenarios'
/// period-2/10/20 op scripts (the engine's own rule).
pub const SAMPLE_PERIOD: usize = 13;

/// Untimed operations per worker before each round's timed part (on a
/// separate instance — the engine's warm-up warms code and threads, not the
/// structure).
const WARMUP_OPS: usize = 256;

/// The registry scenario called `name`.
pub fn scenario(name: &str) -> Scenario {
    standard_scenarios()
        .into_iter()
        .find(|s| s.name() == name)
        .unwrap_or_else(|| panic!("scenario {name:?} is gone from standard_scenarios()"))
}

/// Engine configuration of one round.
pub fn round_config(threads: usize, ops_per_thread: usize) -> EngineConfig {
    EngineConfig {
        thread_counts: vec![threads],
        ops_per_thread,
        warmup_ops_per_thread: WARMUP_OPS,
        repetitions: 1,
        latency_sample_period: SAMPLE_PERIOD,
    }
}

/// A workload bound to a seed and a host: everything a round needs.
pub struct Plan {
    /// The workload.
    pub def: &'static WorkloadDef,
    /// Its scenario, resolved from the registry.
    pub scenario: Scenario,
    /// Worker threads per round.
    pub threads: usize,
    /// `tn` of the host (the gate always runs at `tn`).
    pub tn: usize,
    /// One engine backend per lane, in lane order.
    pub specs: Vec<BackendSpec>,
    /// Engine configuration of a round.
    pub config: EngineConfig,
}

impl Plan {
    /// Resolve `def` against the registry for `seed` on a host with `tn`
    /// usable cores.  `ops_scale` shrinks rounds for `--smoke`.
    pub fn new(def: &'static WorkloadDef, seed: u64, tn: usize, ops_scale: f64) -> Self {
        let threads = def.threads(tn);
        let ops = ((def.ops_per_thread as f64 * ops_scale) as usize).max(SAMPLE_PERIOD * 1_000);
        Plan {
            def,
            scenario: scenario(def.scenario),
            threads,
            tn,
            specs: def.lanes.iter().map(|l| l.spec(seed)).collect(),
            config: round_config(threads, ops),
        }
    }

    /// One round of lane `k`, with the engine's accounting asserted.
    pub fn round(&self, k: usize) -> CellResult {
        let cell = run_cell(self.scenario, &self.specs[k], self.threads, &self.config);
        assert_eq!(
            cell.ops_per_rep,
            (self.threads * self.config.ops_per_thread) as u64,
            "engine accounting: ops_per_rep must be threads x ops"
        );
        assert!(
            cell.failed_ops <= cell.ops_per_rep,
            "engine accounting: {} failed of {} attempted",
            cell.failed_ops,
            cell.ops_per_rep
        );
        cell
    }

    /// Lanes that take part in a pass: the end-to-end ones, or — traced —
    /// all five.
    pub fn lanes(&self, traced: bool) -> Vec<usize> {
        (0..self.def.lanes.len())
            .filter(|&k| traced || self.def.lanes[k].role == Role::EndToEnd)
            .collect()
    }

    /// Set-up as a user of the system pays it before the first timed
    /// operation: the correctness gate on every gated lane, one build per
    /// lane, one warm-up round per lane.
    pub fn set_up(&self, traced: bool) -> Result<(), String> {
        for &k in &self.lanes(traced) {
            let lane: &LaneDef = &self.def.lanes[k];
            if lane.role != Role::Reference {
                gate::check(lane, self.tn)?;
            }
            std::hint::black_box(self.specs[k].build(self.threads).threads());
            std::hint::black_box(self.round(k));
        }
        Ok(())
    }
}

/// Per-round results of one lane.
#[derive(Debug, Default, Clone)]
pub struct LaneRounds {
    /// Productive ops/s of each round.
    pub ops_per_s: Vec<f64>,
    /// Sampled p50 of each round, ns.
    pub p50_ns: Vec<f64>,
    /// Sampled p99 of each round, ns.
    pub p99_ns: Vec<f64>,
    /// Largest `peak_unreclaimed` of any round.
    pub peak_unreclaimed: u64,
    /// Operations attempted, all rounds.
    pub attempted: u64,
    /// Operations failed, all rounds.
    pub failed: u64,
}

impl LaneRounds {
    fn push(&mut self, cell: &CellResult) {
        self.ops_per_s.push(cell.ops_per_sec);
        self.p50_ns.push(cell.p50_ns as f64);
        self.p99_ns.push(cell.p99_ns as f64);
        self.peak_unreclaimed = self.peak_unreclaimed.max(cell.peak_unreclaimed);
        self.attempted += cell.ops_per_rep;
        self.failed += cell.failed_ops;
    }

    /// Append another series of rounds of the same lane.
    pub fn merge(&mut self, other: &LaneRounds) {
        self.ops_per_s.extend(&other.ops_per_s);
        self.p50_ns.extend(&other.p50_ns);
        self.p99_ns.extend(&other.p99_ns);
        self.peak_unreclaimed = self.peak_unreclaimed.max(other.peak_unreclaimed);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Run one cycle — one round of every lane in `lanes`, in a fresh
/// seed-shuffled order — appending to `rounds`.  With a tracer, each round
/// is one span under the given parent.
pub fn run_cycle(
    plan: &Plan,
    lanes: &[usize],
    rng: &mut Rng,
    mut tracer: Option<(&mut Tracer, SpanId)>,
    rounds: &mut [LaneRounds],
) {
    for slot in lane_order(rng, lanes.len()) {
        let k = lanes[slot];
        let span = tracer
            .as_mut()
            .map(|(t, parent)| t.open("workload.run_cell", plan.def.lanes[k].name, Some(*parent)));
        let cell = plan.round(k);
        if let (Some((t, _)), Some(span)) = (tracer.as_mut(), span) {
            t.close(span);
        }
        rounds[k].push(&cell);
    }
}

/// One end-to-end figure with its in-run repeatability.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The reported value.
    pub value: f64,
    /// Interquartile range of the per-cycle lane-geomean series as a share
    /// of its median: how far one round is from the next inside this run.
    pub spread: f64,
}

/// The workload's end-to-end throughput: the quiet decile of each
/// end-to-end lane's rounds, then the geometric mean over lanes.
pub fn throughput(plan: &Plan, rounds: &[LaneRounds]) -> Figure {
    let lanes = plan.lanes(false);
    let per_lane: Vec<f64> = lanes
        .iter()
        .map(|&k| quiet_decile(&rounds[k].ops_per_s, Better::Higher))
        .collect();
    let cycles = lanes
        .iter()
        .map(|&k| rounds[k].ops_per_s.len())
        .min()
        .unwrap_or(0);
    let per_cycle: Vec<f64> = (0..cycles)
        .map(|c| {
            geomean(
                &lanes
                    .iter()
                    .map(|&k| rounds[k].ops_per_s[c])
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    Figure {
        value: geomean(&per_lane),
        spread: relative_iqr(&per_cycle),
    }
}

/// Smallest number of latency samples any timed round of the plan took, and
/// whether that supports reporting p99.
pub fn latency_samples_per_round(plan: &Plan) -> (usize, bool) {
    let samples = plan.threads * (plan.config.ops_per_thread / SAMPLE_PERIOD);
    (samples, percentile_is_supported(samples, 99.0))
}
