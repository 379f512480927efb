//! The benchmark's declared surface: every metric by name, unit, direction
//! and bound, and — for per-layer metrics — the end-to-end metric and
//! workload it is expected to move.  `BENCHMARK.json` at the repository root
//! is this module printed (`benchmark describe`); a test keeps the two equal.

use std::fmt::Write as _;

use crate::json::escape;
use crate::ladder::{CORE_LANES, FAMILIES, SCHEMES};
use crate::lanes::{LANES, WORKLOADS};
use crate::stats::Better;

/// Seconds one run measures for (the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Name, unique across both lists.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric may
    /// worsen before a change is a regression.
    pub bound: Option<f64>,
    /// Definition (end-to-end) or what the rung should move (per-layer).
    pub note: String,
}

fn end_to_end_metric(
    name: &str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &str,
) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
        note: note.to_string(),
    }
}

fn layer(name: String, unit: &'static str, better: Better, note: &str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        note: note.to_string(),
    }
}

/// The end-to-end metrics: the same two on every workload.  (Operations
/// attempted and failed travel in the result line's own `attempted` /
/// `failed` fields.  `peak_unreclaimed` is 0 on `registers-t1`, `p99_ns`
/// misses any admissible bound on the `-tn` workloads and `p50_ns` shifts
/// 20 % between identical runs of `stack-churn-t1`, so all three are
/// reported per lane in the traced pass instead.)
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        end_to_end_metric(
            "setup_s",
            "s",
            Better::Lower,
            0.25,
            "workload start to first timed round: correctness gate, one build and one warm-up round per lane; fastest of the run's ten set-ups",
        ),
        end_to_end_metric(
            "ops_per_s",
            "ops/s",
            Better::Higher,
            0.20,
            "productive ops/s through run_cell: quiet decile of rounds per lane, geomean over lanes",
        ),
    ]
}

/// The per-layer metrics of the traced pass, in ladder order.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::Lower;
    let mut m = Vec::new();
    let floor =
        "reference floor: the fixed share of a lane's p50_ns on registers-t1 and of every structure op";
    m.push(layer("hw.clock_ns".into(), "ns", Lower, floor));
    m.push(layer("hw.cas_ns".into(), "ns", Lower, floor));
    m.push(layer("hw.yield_ns".into(), "ns", Lower, floor));
    for lane in CORE_LANES {
        let moves =
            "ops_per_s (and the lanes' p50_ns) on registers-t1; the llsc lane of every structure workload";
        m.push(layer(format!("core.{lane}.write_ns"), "ns", Lower, moves));
        m.push(layer(format!("core.{lane}.read_ns"), "ns", Lower, moves));
        m.push(layer(
            format!("core.{lane}.steps_per_op"),
            "steps",
            Lower,
            "the paper's time axis; exact, moves only if the algorithm changes",
        ));
        m.push(layer(
            format!("core.{lane}.space_words"),
            "words",
            Lower,
            "the paper's space axis; exact, moves only if the algorithm changes",
        ));
    }
    let hazard = "hazard lanes: ops_per_s on stack-churn-* and both map workloads";
    m.push(layer("hazard.protect_clear_ns".into(), "ns", Lower, hazard));
    m.push(layer("hazard.retire_ns".into(), "ns", Lower, hazard));
    for scheme in SCHEMES {
        m.push(layer(
            format!("reclaim.{scheme}.pop_path_ns"),
            "ns",
            Lower,
            "ops_per_s on stack-churn-t1/-tn; flat on map-read-heavy-tn",
        ));
        m.push(layer(
            format!("reclaim.{scheme}.traverse_ns"),
            "ns",
            Lower,
            "ops_per_s (and the lanes' p50_ns) on map-read-heavy-tn; flat on stack-churn-*",
        ));
    }
    let arena = "ops_per_s on stack-churn-* and map-key-churn-tn; flat on map-read-heavy-tn and registers-t1";
    m.push(layer(
        "lockfree.arena.alloc_free_ns".into(),
        "ns",
        Lower,
        arena,
    ));
    m.push(layer(
        "lockfree.arena.alloc_free_ns_tn".into(),
        "ns",
        Lower,
        arena,
    ));
    for scheme in SCHEMES {
        m.push(layer(
            format!("lockfree.stack.{scheme}.push_pop_ns"),
            "ns",
            Lower,
            "ops_per_s (and the lanes' p50_ns) on stack-churn-t1 (children: reclaim pop_path, arena, hw.yield_ns)",
        ));
    }
    for scheme in SCHEMES {
        m.push(layer(
            format!("lockfree.map.{scheme}.get_ns"),
            "ns",
            Lower,
            "ops_per_s (and the lanes' p50_ns) on map-read-heavy-tn (children: reclaim traverse)",
        ));
        m.push(layer(
            format!("lockfree.map.{scheme}.insert_remove_ns"),
            "ns",
            Lower,
            "ops_per_s on map-key-churn-tn (children: reclaim traverse, arena)",
        ));
    }
    for family in FAMILIES {
        m.push(layer(
            format!("workload.dispatch_ns.{family}"),
            "ns",
            Lower,
            "boxed WorkloadOps call minus direct handle call: ops_per_s on registers-t1, noise on map",
        ));
    }
    for family in FAMILIES {
        m.push(layer(
            format!("workload.engine_ns.{family}"),
            "ns",
            Lower,
            "run_cell ns/op minus the benchmark's own loop over WorkloadOps: ops_per_s on registers-t1, noise on map",
        ));
    }
    for k in 0..LANES {
        let locates = "locates which lane moved ops_per_s on the traced workload";
        m.push(layer(
            format!("lane.{k}.ops_per_s"),
            "ops/s",
            Better::Higher,
            locates,
        ));
        m.push(layer(
            format!("lane.{k}.p50_ns"),
            "ns",
            Lower,
            "median latency of the traced workload: per-round p50, quiet decile of rounds",
        ));
        m.push(layer(
            format!("lane.{k}.p99_ns"),
            "ns",
            Lower,
            "tail latency of the traced workload: interquartile mean of per-round p99 (>= 1 000 samples a round, >= 10 beyond p99)",
        ));
        m.push(layer(
            format!("lane.{k}.failed_share"),
            "share",
            Lower,
            locates,
        ));
        m.push(layer(
            format!("lane.{k}.peak_unreclaimed"),
            "nodes",
            Lower,
            locates,
        ));
    }
    let adds_up = "reported, not gated: share of the top rung its child rungs do not explain";
    m.push(layer(
        "ladder.registers-t1.residual_share".into(),
        "share",
        Lower,
        adds_up,
    ));
    m.push(layer(
        "ladder.stack-churn-t1.residual_share".into(),
        "share",
        Lower,
        adds_up,
    ));
    m.push(layer(
        "trace.overhead_share".into(),
        "share",
        Lower,
        "(traced - untraced run_cell ns/op) / untraced; must stay small",
    ));
    m
}

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            escape(w.name),
            escape(w.why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let metrics = end_to_end();
    for (i, m) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound"),
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let metrics = per_layer();
    for (i, m) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert!((1..=16).contains(&e2e.len()));
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.name.as_str()).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(
                is_name(name),
                "{name:?} is not [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in e2e.iter().chain(&layers) {
            assert!(is_unit(m.unit), "{}: unit {:?}", m.name, m.unit);
            assert!(!m.note.is_empty(), "{} says nothing about itself", m.name);
        }
        for m in &e2e {
            let bound = m.bound.expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            e2e.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is too long",
                w.name
            );
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn the_committed_benchmark_json_is_this_schema() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with `benchmark/run.sh describe > BENCHMARK.json`"
        );
        let doc = Value::parse(committed).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(committed.len() <= 64 * 1024);
        for entry in doc.get("per_layer").and_then(Value::as_array).unwrap() {
            let keys: Vec<&str> = entry
                .as_object()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["better", "name", "unit"]);
        }
        for entry in doc.get("end_to_end").and_then(Value::as_array).unwrap() {
            let keys: Vec<&str> = entry
                .as_object()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["better", "bound", "name", "unit"]);
        }
    }
}
