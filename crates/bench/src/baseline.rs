//! Cross-commit throughput-regression gate for `BENCH_throughput.json`.
//!
//! `table_matrix --baseline <path>` compares the cells of a fresh run
//! against a committed baseline document and fails when a pinned backend
//! regresses by more than [`DEFAULT_TOLERANCE`].  Raw ops/sec are useless
//! for that comparison — CI machines differ by integer factors — so the
//! gate works on **paired per-cell ratios**: for every
//! `(scenario, backend, threads)` cell present in both documents it takes
//! `current / baseline`, divides out the document-wide median ratio (the
//! global machine-speed factor), and pins the per-backend median of those
//! normalized ratios.  Pairing a cell with *itself* cancels the huge
//! scenario-to-scenario magnitude differences that make unpaired
//! median-of-normalized-cells comparisons noisy; what remains is exactly
//! "did this backend get slower relative to the fleet".
//!
//! Because the median is divided out, the gate cannot tell "most of the
//! fleet got faster" from "the rest got slower": a change that speeds up
//! the majority of backends by a common factor makes every untouched
//! backend read as regressed by that factor.  Such a fleet-wide change
//! therefore re-records `BENCH_baseline.json` in the same commit.
//!
//! (Measured on the seed machine across eight back-to-back quick runs,
//! the worst per-backend paired drift is ~8% — a 3× margin inside the 25%
//! band — where unpaired per-cell and per-backend-median statistics both
//! drift past 30% on an oversubscribed single-core runner.)
//!
//! Only backends with at least one paired cell are compared (the roster
//! grows over time; new backends have no baseline yet), and a comparison
//! with no paired cells is itself an error — a silently empty gate would
//! pass forever.

use std::fmt::Write as _;

/// Relative slowdown (in machine-normalized paired throughput) above which
/// a backend counts as regressed: 0.25 ⇒ a backend may lose up to 25% of
/// its fleet-relative throughput before the gate fires.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// One `(scenario, backend, threads)` measurement extracted from a
/// `aba-repro/bench-throughput/v1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCell {
    /// Scenario name (row key).
    pub scenario: String,
    /// Backend name (column key).
    pub backend: String,
    /// Worker-thread count.
    pub threads: usize,
    /// Median throughput of the cell, operations per second.
    pub ops_per_sec: f64,
}

impl BaselineCell {
    /// The `scenario/backend@threads` display key used in gate output.
    pub fn key(&self) -> String {
        format!("{}/{}@{}thr", self.scenario, self.backend, self.threads)
    }
}

/// One backend whose machine-normalized paired throughput ratio fell more
/// than the tolerance below 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Backend name of the regressed group.
    pub key: String,
    /// Median of the backend's `current / baseline` cell ratios, divided
    /// by the document-wide median ratio; 1.0 means "kept pace with the
    /// fleet", 0.5 means "half as fast as it should be on this machine".
    pub ratio: f64,
    /// Number of paired cells behind the median.
    pub cells: usize,
}

impl Regression {
    /// Fraction of fleet-relative throughput lost (0.3 ⇒ the backend runs
    /// 30% slower, relative to the fleet, than at baseline time).
    pub fn loss(&self) -> f64 {
        1.0 - self.ratio
    }
}

/// Outcome of a baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Number of backends with at least one paired cell.
    pub compared: usize,
    /// Backends that regressed beyond the tolerance, worst first.
    pub regressions: Vec<Regression>,
}

impl Comparison {
    /// `true` when at least one pinned cell regressed.
    pub fn failed(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Multi-line human-readable gate report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "baseline gate: {} backend groups compared, {} regressed",
            self.compared,
            self.regressions.len()
        );
        for r in &self.regressions {
            let _ = writeln!(
                out,
                "  {}: {:.2}x fleet pace over {} paired cells ({:.0}% loss)",
                r.key,
                r.ratio,
                r.cells,
                r.loss() * 100.0
            );
        }
        out
    }
}

/// A cell of a fresh run, for [`compare`] — taken from the typed result, so
/// the only document this module ever parses is the committed baseline.
impl From<&aba_workload::CellResult> for BaselineCell {
    fn from(cell: &aba_workload::CellResult) -> Self {
        BaselineCell {
            scenario: cell.scenario.clone(),
            backend: cell.backend.clone(),
            threads: cell.threads,
            ops_per_sec: cell.ops_per_sec,
        }
    }
}

/// Extract every measurement cell from a `bench-throughput/v1` (or
/// layout-compatible) JSON document.  Purpose-built scan for the documents
/// `aba_workload::to_json` emits — flat cell objects, no nesting, no
/// escaped quotes in names — matching the workspace's no-serde constraint.
///
/// A document without a `"cells":[` array parses to an empty vector; the
/// caller treats that as "no overlap" and [`compare`] errors.
///
/// # Errors
///
/// Names the 1-based ordinal of the first cell that is cut off or lacks one
/// of `scenario` / `backend` / `threads` / `ops_per_sec`: a truncated or
/// hand-edited baseline must not quietly shrink the comparison.
pub fn parse_cells(json: &str) -> Result<Vec<BaselineCell>, String> {
    let Some(start) = json.find("\"cells\":[") else {
        return Ok(Vec::new());
    };
    let mut cells = Vec::new();
    let mut rest = &json[start + 9..];
    while let Some(open) = rest.find('{') {
        let ordinal = cells.len() + 1;
        let Some(close) = rest[open..].find('}') else {
            return Err(format!(
                "cell {ordinal} is cut off before its closing brace"
            ));
        };
        let object = &rest[open..open + close + 1];
        rest = &rest[open + close + 1..];
        let (Some(scenario), Some(backend), Some(threads), Some(ops_per_sec)) = (
            string_field(object, "scenario"),
            string_field(object, "backend"),
            number_field(object, "threads"),
            number_field(object, "ops_per_sec"),
        ) else {
            return Err(format!(
                "cell {ordinal} lacks scenario, backend, threads or ops_per_sec: {object}"
            ));
        };
        cells.push(BaselineCell {
            scenario,
            backend,
            threads: threads as usize,
            ops_per_sec,
        });
    }
    Ok(cells)
}

fn string_field(object: &str, name: &str) -> Option<String> {
    let pattern = format!("\"{name}\":\"");
    let start = object.find(&pattern)? + pattern.len();
    let end = object[start..].find('"')?;
    Some(object[start..start + end].to_string())
}

fn number_field(object: &str, name: &str) -> Option<f64> {
    let pattern = format!("\"{name}\":");
    let start = object.find(&pattern)? + pattern.len();
    let end = object[start..]
        .find([',', '}'])
        .unwrap_or(object.len() - start);
    object[start..start + end].trim().parse().ok()
}

/// Median of a non-empty slice (sorts a copy; upper middle for even
/// lengths, matching the engine's own median-of-repetitions convention).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("ratios are never NaN"));
    sorted[sorted.len() / 2]
}

/// Compare `current` against `baseline` by paired per-cell ratios: every
/// `(scenario, backend, threads)` cell present in both documents yields
/// `current / baseline`; the document-wide median ratio (the global
/// machine-speed factor) is divided out; each backend is pinned at the
/// median of its normalized ratios and flagged when that falls below
/// `1 - tolerance` (worst regression first).
///
/// # Errors
///
/// Returns `Err` when the two documents share no positive-throughput cell
/// — a gate with nothing to compare must fail loudly, not pass vacuously.
pub fn compare(
    baseline: &[BaselineCell],
    current: &[BaselineCell],
    tolerance: f64,
) -> Result<Comparison, String> {
    // Paired ratios, grouped by backend in first-appearance order.
    let mut groups: Vec<(String, Vec<f64>)> = Vec::new();
    let mut all_ratios = Vec::new();
    for base in baseline {
        if base.ops_per_sec <= 0.0 {
            continue;
        }
        let Some(cur) = current.iter().find(|c| {
            c.scenario == base.scenario && c.backend == base.backend && c.threads == base.threads
        }) else {
            continue;
        };
        let ratio = cur.ops_per_sec / base.ops_per_sec;
        all_ratios.push(ratio);
        match groups.iter_mut().find(|(k, _)| *k == base.backend) {
            Some((_, ratios)) => ratios.push(ratio),
            None => groups.push((base.backend.clone(), vec![ratio])),
        }
    }
    if all_ratios.is_empty() {
        return Err("no paired cells between baseline and current run".to_string());
    }
    let machine_factor = median(&all_ratios);
    if machine_factor <= 0.0 {
        return Err("current run completed zero throughput on the paired cells".to_string());
    }
    let compared = groups.len();
    let mut regressions: Vec<Regression> = groups
        .into_iter()
        .filter_map(|(key, ratios)| {
            let ratio = median(&ratios) / machine_factor;
            (ratio < 1.0 - tolerance).then_some(Regression {
                key,
                ratio,
                cells: ratios.len(),
            })
        })
        .collect();
    regressions.sort_by(|a, b| b.loss().partial_cmp(&a.loss()).expect("loss is never NaN"));
    Ok(Comparison {
        compared,
        regressions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(cells: &[(&str, &str, usize, f64)]) -> Vec<BaselineCell> {
        parse_cells(&doc(cells)).expect("well-formed fixture")
    }

    fn doc(cells: &[(&str, &str, usize, f64)]) -> String {
        let mut json = String::from(
            "{\"schema\":\"aba-repro/bench-throughput/v1\",\"config\":{\"repetitions\":2},\"cells\":[",
        );
        for (i, (s, b, t, rate)) in cells.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "{{\"scenario\":\"{s}\",\"backend\":\"{b}\",\"threads\":{t},\
                 \"ops_per_rep\":100,\"ops_per_sec\":{rate:.1},\"p50_ns\":10,\
                 \"p99_ns\":20,\"peak_unreclaimed\":0,\"repetitions\":2}}"
            );
        }
        json.push_str("]}");
        json
    }

    #[test]
    fn parses_the_v1_cell_layout() {
        let cells = parsed(&[
            ("churn", "stack/tagged", 2, 1000.0),
            ("same-slot", "stack-elim/epoch", 4, 500.0),
        ]);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].scenario, "churn");
        assert_eq!(cells[1].backend, "stack-elim/epoch");
        assert_eq!(cells[1].threads, 4);
        assert_eq!(cells[1].ops_per_sec, 500.0);
        assert_eq!(cells[1].key(), "same-slot/stack-elim/epoch@4thr");
    }

    #[test]
    fn documents_without_cells_parse_to_empty_and_fail_comparison() {
        assert_eq!(parse_cells("{\"schema\":\"other\"}"), Ok(Vec::new()));
        let good = parsed(&[("churn", "stack/tagged", 1, 10.0)]);
        assert!(compare(&[], &good, DEFAULT_TOLERANCE).is_err());
        assert!(compare(&good, &[], DEFAULT_TOLERANCE).is_err());
    }

    #[test]
    fn a_malformed_cell_is_an_error_naming_its_ordinal() {
        let whole = doc(&[
            ("churn", "stack/tagged", 2, 1000.0),
            ("churn", "queue/tagged", 2, 800.0),
        ]);
        // Truncated download: the second cell is cut mid-object.
        let cut = &whole[..whole.rfind("\"ops_per_sec\"").expect("second cell")];
        let err = parse_cells(cut).unwrap_err();
        assert!(err.contains("cell 2 is cut off"), "{err}");
        // Hand edit: the first cell loses a key the comparison needs.
        let err = parse_cells(&whole.replacen("\"threads\":2,", "", 1)).unwrap_err();
        assert!(err.contains("cell 1 lacks"), "{err}");
    }

    #[test]
    fn identical_documents_pass() {
        let cells = parsed(&[
            ("churn", "stack/tagged", 2, 1000.0),
            ("churn", "queue/tagged", 2, 800.0),
            ("same-slot", "stack/epoch", 4, 400.0),
        ]);
        let cmp = compare(&cells, &cells, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(cmp.compared, 3);
        assert!(!cmp.failed());
    }

    #[test]
    fn a_uniform_machine_speed_change_is_not_a_regression() {
        // Every cell 3x slower: median normalization cancels it out.
        let base = parsed(&[
            ("churn", "stack/tagged", 2, 900.0),
            ("churn", "queue/tagged", 2, 600.0),
            ("same-slot", "stack/epoch", 4, 300.0),
        ]);
        let slower: Vec<BaselineCell> = base
            .iter()
            .map(|c| BaselineCell {
                ops_per_sec: c.ops_per_sec / 3.0,
                ..c.clone()
            })
            .collect();
        let cmp = compare(&base, &slower, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(cmp.compared, 3);
        assert!(!cmp.failed(), "{}", cmp.report());
    }

    #[test]
    fn a_backend_collapse_fires_the_gate() {
        // The deliberately-broken fixture: one backend falls to a third of
        // its relative throughput while its peers hold shape.
        let base = parsed(&[
            ("churn", "stack/tagged", 2, 900.0),
            ("churn", "queue/tagged", 2, 600.0),
            ("same-slot", "stack/epoch", 4, 300.0),
        ]);
        let mut broken = base.clone();
        broken[0].ops_per_sec = 300.0; // 900 -> 300 with the median pinned
        let cmp = compare(&base, &broken, DEFAULT_TOLERANCE).unwrap();
        assert!(cmp.failed(), "a 3x relative collapse must trip the gate");
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].key, "stack/tagged");
        assert!(cmp.regressions[0].loss() > 0.25);
        assert!(cmp.report().contains("stack/tagged"));
    }

    #[test]
    fn one_noisy_scenario_cell_does_not_fire_a_multi_scenario_group() {
        // Three scenarios feed the stack/tagged@2thr group; one cell dips by
        // 4x (quick-mode noise) while the group's median holds, so the gate
        // stays quiet — per-cell comparison would have tripped here.
        let base = parsed(&[
            ("churn", "stack/tagged", 2, 900.0),
            ("same-slot", "stack/tagged", 2, 1000.0),
            ("pipeline", "stack/tagged", 2, 1100.0),
            ("churn", "queue/tagged", 2, 1000.0),
            ("same-slot", "queue/tagged", 2, 1000.0),
            ("pipeline", "queue/tagged", 2, 1000.0),
            ("churn", "set/tagged", 2, 1000.0),
            ("same-slot", "set/tagged", 2, 1000.0),
        ]);
        let mut noisy = base.clone();
        noisy[0].ops_per_sec = 225.0;
        let cmp = compare(&base, &noisy, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(cmp.compared, 3);
        assert!(!cmp.failed(), "{}", cmp.report());
        // But the whole group collapsing still fires.
        let mut broken = base.clone();
        for cell in broken.iter_mut().take(3) {
            cell.ops_per_sec /= 4.0;
        }
        let cmp = compare(&base, &broken, DEFAULT_TOLERANCE).unwrap();
        assert!(cmp.failed());
        assert_eq!(cmp.regressions[0].key, "stack/tagged");
    }

    #[test]
    fn losses_within_tolerance_pass() {
        let base = parsed(&[
            ("churn", "stack/tagged", 2, 1000.0),
            ("churn", "queue/tagged", 2, 1000.0),
            ("same-slot", "stack/epoch", 4, 1000.0),
        ]);
        let mut wobbly = base.clone();
        wobbly[0].ops_per_sec = 800.0; // 20% down: inside the 25% band
        let cmp = compare(&base, &wobbly, DEFAULT_TOLERANCE).unwrap();
        assert!(!cmp.failed(), "{}", cmp.report());
    }

    #[test]
    fn new_backends_without_baseline_cells_are_skipped() {
        let base = parsed(&[
            ("churn", "stack/tagged", 2, 1000.0),
            ("churn", "queue/tagged", 2, 900.0),
        ]);
        let current = parsed(&[
            ("churn", "stack/tagged", 2, 1000.0),
            ("churn", "queue/tagged", 2, 900.0),
            ("churn", "stack-elim/tagged", 2, 1.0), // brand new, no baseline
        ]);
        let cmp = compare(&base, &current, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(cmp.compared, 2, "the new backend is not compared");
        assert!(!cmp.failed());
    }

    #[test]
    fn worst_regression_is_reported_first() {
        let base = parsed(&[
            ("churn", "a", 1, 1000.0),
            ("churn", "b", 1, 1000.0),
            ("churn", "c", 1, 1000.0),
            ("churn", "d", 1, 1000.0),
        ]);
        let mut broken = base.clone();
        broken[0].ops_per_sec = 500.0; // 50% loss
        broken[1].ops_per_sec = 100.0; // 90% loss
        let cmp = compare(&base, &broken, DEFAULT_TOLERANCE).unwrap();
        assert_eq!(cmp.regressions.len(), 2);
        assert_eq!(cmp.regressions[0].key, "b");
    }
}
