//! The engine-matrix experiments as data: [`MATRIX_TABLES`] describes the
//! four sweeps `table_matrix --family <row>` can run over the `aba-workload`
//! engine — which cells, under which schema, rendered how, gated by what —
//! and [`MatrixTable`]'s methods are the one driver that runs a row.
//!
//! Every row is the same program: select scenarios × backends from the
//! rosters, run them, print the tables, check the result against
//! [`gate::matrix`](crate::gate::matrix), write the JSON document.  What
//! differs is the selection and two optional sections, so that is all a row
//! states.

use aba_lockfree::{all_maps, all_sets, stress_map, stress_set, Family, Scheme, StressReport};
use aba_workload::{
    render_tables, run_matrix, standard_backends, standard_scenarios, CellResult, EngineConfig,
    MatrixResult, JSON_SCHEMA,
};

use crate::gate::ArenaGrowth;
use crate::Table;

/// One block of a row, swept in roster order: the scenario names (empty =
/// the whole roster), the backend-name prefix (`"stack"` covers `stack/*` and
/// `stack-elim/*`; empty = the whole roster), and how many `(scenarios,
/// backends)` the rosters must supply — a sweep that silently shrank must
/// not pass as a benchmark run.
pub type Sweep = (&'static [&'static str], &'static str, (usize, usize));

/// The stress harness a row replays to show what the unprotected baseline's
/// speed costs in lost and duplicated keys.
#[derive(Debug)]
pub enum Conservation {
    /// `stress_set` over the five Harris–Michael set variants.
    Set,
    /// `stress_map` over the five split-ordered map variants, recording each
    /// arena's growth for the arena-growth gate.
    Map,
}

/// One row of [`MATRIX_TABLES`]: an engine-matrix experiment.
#[derive(Debug)]
pub struct MatrixTable {
    /// The `--family` value selecting this row.
    pub family: &'static str,
    /// Experiment label heading the tables (`"E13"`).
    pub experiment: &'static str,
    /// Schema identifier stamped into the document.
    pub schema: &'static str,
    /// Destination of the document without `--out`.
    pub default_out: &'static str,
    /// The blocks swept, in document order.
    pub sweeps: &'static [Sweep],
    /// Sweep only the configuration's largest thread count.
    pub max_threads_only: bool,
    /// What the per-scenario tables measure (`"reclamation cost"`): one table
    /// per scenario at the largest thread count, normalised against the
    /// unprotected backend.  `None` prints the engine's own tables, one
    /// column per thread count.
    pub cost_title: Option<&'static str>,
    /// The conservation section, if the row has one.
    pub conservation: Option<Conservation>,
    /// Apply the E15 limbo-bound rule of [`gate::matrix`](crate::gate::matrix).
    pub limbo_bound: bool,
    /// The reproducible shape of the numbers, printed under the tables.
    pub expected_shape: &'static str,
}

/// The four engine-matrix experiments.
pub static MATRIX_TABLES: [MatrixTable; 4] = [
    // E7–E10/E14: every scenario × every backend × every thread count.  The
    // hardware-limit trajectory (E14) is this row under `--threads 16,32,64
    // --scenarios … --backends stack`.
    MatrixTable {
        family: "all",
        experiment: "E7/E8",
        schema: JSON_SCHEMA,
        default_out: "BENCH_throughput.json",
        sweeps: &[(&[], "", (12, 30))],
        max_threads_only: false,
        cost_title: None,
        conservation: None,
        limbo_bound: false,
        expected_shape: "constant-step implementations sustain their rate as threads grow; the \
            Figure 3 single-CAS object degrades fastest under contention (its retry loop is \
            Θ(n)); the unprotected stack and queue are fast but incorrect (see \
            table_aba_incidence and the E8 conservation tests).",
    },
    // E9/E15: time overhead against peak unreclaimed footprint — the paper's
    // space axis — per scheme, on churn for the stacks and producer-consumer
    // hand-off for the queues.  Failed (allocation-denied) operations are
    // reported per cell and excluded from ops/s, so a starved cell can never
    // read as a speedup.
    MatrixTable {
        family: "reclamation",
        experiment: "E9/E15",
        schema: "aba-repro/reclamation/v1",
        default_out: "BENCH_reclamation.json",
        sweeps: &[
            (&["churn"], "stack", (1, 10)),
            (&["producer-consumer"], "queue/", (1, 5)),
        ],
        max_threads_only: true,
        cost_title: Some("reclamation cost"),
        conservation: None,
        limbo_bound: true,
        expected_shape: "the unprotected baseline is fastest and wrong (its speed is the price \
            the protected schemes pay); tagging and LL/SC free immediately (0 unreclaimed) but \
            pay per-CAS width/validation; hazard pointers pay two validated loads per traversal \
            for a small bounded limbo; epochs make traversal cheapest among the correct schemes \
            and — since E15's debt-bounded advancement — keep their peak unreclaimed footprint \
            well below arena capacity even with stalled readers, with denied allocations \
            surfacing in the failed-ops column instead of inflating ops/s.",
    },
    // E10: the traversal-based ABA surface.  Set operations hold a
    // predecessor's link word deep inside the chain, so protection is paid
    // per hop rather than once per operation as in the stack and queue.
    MatrixTable {
        family: "set",
        experiment: "E10",
        schema: JSON_SCHEMA,
        default_out: "BENCH_set.json",
        sweeps: &[(&["uniform-key-churn", "hot-key-contention"], "set/", (2, 5))],
        max_threads_only: false,
        cost_title: Some("HM-set traversal cost"),
        conservation: Some(Conservation::Set),
        limbo_bound: false,
        expected_shape: "the unprotected baseline is fastest and loses keys under churn (its \
            bailed-out operations surface as ABA events even when conservation happens to \
            hold); tagging and LL/SC pay per-CAS tag bumps but free immediately; hazard pointers \
            pay a publish + re-validate per traversal hop for a small bounded limbo; epochs \
            traverse cheapest among the correct schemes but park the largest unreclaimed \
            footprint — the per-hop edition of E9's time/space trade-off.",
    },
    // E13: the growing ABA surface.  The map's arena and bucket array double
    // while operations are in flight, so index recycling, segment publication
    // and bucket splitting all race with traversal.
    MatrixTable {
        family: "map",
        experiment: "E13",
        schema: "aba-repro/map/v1",
        default_out: "BENCH_map.json",
        sweeps: &[(&["zipf-key-churn", "zipf-read-heavy"], "map/", (2, 5))],
        max_threads_only: false,
        cost_title: Some("SO-map traversal cost"),
        conservation: Some(Conservation::Map),
        limbo_bound: false,
        expected_shape: "the unprotected baseline is fastest and loses bindings under Zipf churn \
            (its bailed-out operations surface as ABA events even when conservation happens to \
            hold); tagging and LL/SC pay per-CAS tag bumps but free immediately; hazard pointers \
            pay a publish + re-validate per split-order hop for a small bounded limbo; epochs \
            traverse cheapest among the correct schemes but park the largest unreclaimed \
            footprint. Every scheme's arena ends larger than its initial segment: growth is \
            part of the measured path, not a pre-sized fiction.",
    },
];

/// Display label of a structure backend, from the `Family × Scheme` table.
fn scheme_label(backend: &str) -> &'static str {
    Family::ALL
        .into_iter()
        .flat_map(|family| Scheme::ALL.into_iter().map(move |scheme| (family, scheme)))
        .find(|&(family, scheme)| family.key(scheme) == backend)
        .map(|(family, scheme)| family.label(scheme))
        .expect("cost tables list structure backends, which Family × Scheme keys")
}

impl MatrixTable {
    /// The row `--family` names; there is no default row.
    pub fn find(family: Option<&str>) -> Option<&'static MatrixTable> {
        MATRIX_TABLES.iter().find(|t| Some(t.family) == family)
    }

    /// Run the row's sweeps under `config`, keeping only the scenarios and
    /// backends whose name starts with one of the given prefixes (an empty
    /// list keeps all — a prefix rather than a substring, so `churn` does not
    /// drag in `uniform-key-churn` while `stack/` still selects a family).
    ///
    /// # Errors
    ///
    /// When the prefixes leave no cell to run.
    ///
    /// # Panics
    ///
    /// If a roster no longer supplies a sweep's expected counts.
    pub fn run(
        &self,
        config: &EngineConfig,
        scenario_prefixes: &[String],
        backend_prefixes: &[String],
    ) -> Result<MatrixResult, String> {
        let kept = |name: &str, prefixes: &[String]| {
            prefixes.is_empty() || prefixes.iter().any(|p| name.starts_with(p.as_str()))
        };
        let mut swept = config.clone();
        if let (true, Some(&top)) = (self.max_threads_only, config.thread_counts.iter().max()) {
            swept.thread_counts = vec![top];
        }
        let mut cells = Vec::new();
        for &(names, prefix, expect) in self.sweeps {
            let mut scenarios = standard_scenarios();
            scenarios.retain(|s| names.is_empty() || names.contains(&s.name()));
            let mut backends = standard_backends();
            backends.retain(|b| b.name().starts_with(prefix));
            assert_eq!(
                (scenarios.len(), backends.len()),
                expect,
                "the rosters no longer supply `{}`'s {names:?} x `{prefix}*` sweep",
                self.family
            );
            scenarios.retain(|s| kept(s.name(), scenario_prefixes));
            backends.retain(|b| kept(b.name(), backend_prefixes));
            if scenarios.is_empty() || backends.is_empty() {
                continue;
            }
            eprintln!(
                "{} matrix: {} scenarios x {} backends x {:?} threads, {} ops/thread",
                self.experiment,
                scenarios.len(),
                backends.len(),
                swept.thread_counts,
                swept.ops_per_thread,
            );
            cells.extend(run_matrix(&scenarios, &backends, &swept).cells);
        }
        if cells.is_empty() {
            return Err("`--scenarios` / `--backends` matched nothing in this family".to_string());
        }
        let config = config.clone();
        Ok(MatrixResult { config, cells })
    }

    /// The row's throughput tables.
    pub fn render(&self, result: &MatrixResult) -> String {
        let Some(cost_title) = self.cost_title else {
            return render_tables(result);
        };
        let threads = result.cells.iter().map(|c| c.threads).max().unwrap_or(1);
        // A scenario's cells are contiguous: it is the sweeps' outermost loop.
        let mut scenarios: Vec<&str> = result.cells.iter().map(|c| c.scenario.as_str()).collect();
        scenarios.dedup();
        let mut out = String::new();
        for scenario in scenarios {
            let at_top = |c: &&CellResult| c.scenario == scenario && c.threads == threads;
            let cells: Vec<&CellResult> = result.cells.iter().filter(at_top).collect();
            let baseline = cells.iter().find(|c| c.backend.ends_with("/unprotected"));
            // Absent when `--backends` filtered the unprotected backend out.
            let vs_baseline = |c: &&CellResult| match baseline {
                Some(b) => format!("{:+.1}%", (c.ops_per_sec / b.ops_per_sec - 1.0) * 100.0),
                None => "n/a".to_string(),
            };
            let title = format!(
                "{}: {cost_title} on `{scenario}`, {threads} threads",
                self.experiment
            );
            let table = Table::of(
                &title,
                cells.iter().copied(),
                &[
                    ("backend", &|c| c.backend.clone()),
                    ("scheme", &|c| scheme_label(&c.backend).to_string()),
                    ("ops/s", &|c| format!("{:.0}", c.ops_per_sec)),
                    ("vs unprotected", &vs_baseline),
                    ("p99 (ns)", &|c| c.p99_ns.to_string()),
                    ("peak unreclaimed (nodes)", &|c| {
                        c.peak_unreclaimed.to_string()
                    }),
                    ("failed ops", &|c| c.failed_ops.to_string()),
                ],
            );
            out += &(table.render() + "\n");
        }
        out
    }

    /// Replay the row's conservation harness: its rendered tables and, for
    /// the map, each variant's arena growth (the input of the arena-growth
    /// gate).  Both empty for a row without the section.
    pub fn conservation(&self, quick: bool) -> (String, Vec<ArenaGrowth>) {
        const THREADS: usize = 4;
        let ops = if quick { 1_500 } else { 6_000 };
        let mut growth = Vec::new();
        let reports: Vec<StressReport> = match self.conservation {
            None => return (String::new(), growth),
            Some(Conservation::Set) => all_sets(24, THREADS)
                .iter()
                .map(|set| stress_set(set.as_ref(), THREADS, ops))
                .collect(),
            Some(Conservation::Map) => all_maps(512, THREADS)
                .iter()
                .map(|map| {
                    let report = stress_map(map.as_ref(), THREADS, ops);
                    growth.push(ArenaGrowth {
                        structure: report.structure.clone(),
                        initial: map.arena_initial_capacity(),
                        live: map.arena_live_capacity(),
                        buckets: map.buckets(),
                    });
                    report
                })
                .collect(),
        };
        let yes_or = |yes: bool| if yes { "yes" } else { "NO" }.to_string();
        let title = format!(
            "{}: conservation, {THREADS} threads x {ops} insert/remove rounds",
            self.experiment
        );
        let anomalies = Table::of(
            &title,
            &reports,
            &[
                ("backend", &|r| r.structure.clone()),
                ("inserted", &|r| r.inserted.to_string()),
                ("removed+drained", &|r| {
                    (r.removed + r.remaining).to_string()
                }),
                ("lost", &|r| r.lost.to_string()),
                ("duplicated", &|r| r.duplicated.to_string()),
                ("ABA events", &|r| r.aba_events.to_string()),
                ("conserved", &|r| yes_or(r.is_conserved())),
            ],
        );
        let mut out = anomalies.render() + "\n";
        if !growth.is_empty() {
            let title = format!(
                "{}: segmented-arena growth during the conservation run",
                self.experiment
            );
            let table = Table::of(
                &title,
                &growth,
                &[
                    ("backend", &|g| g.structure.clone()),
                    ("initial arena", &|g| g.initial.to_string()),
                    ("live arena", &|g| g.live.to_string()),
                    ("grown", &|g| yes_or(g.live > g.initial)),
                    ("buckets", &|g| g.buckets.to_string()),
                ],
            );
            out += &(table.render() + "\n");
        }
        (out, growth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_is_required_and_must_name_a_row() {
        assert_eq!(MatrixTable::find(Some("map")).unwrap().experiment, "E13");
        assert!(MatrixTable::find(None).is_none(), "no default row");
        assert!(MatrixTable::find(Some("stack")).is_none());
    }

    #[test]
    fn every_roster_structure_backend_has_a_scheme_label() {
        for spec in standard_backends() {
            if !spec.name().starts_with("llsc/") {
                assert!(!scheme_label(spec.name()).is_empty());
            }
        }
        assert_eq!(scheme_label("queue/epoch"), "MS queue (epoch)");
    }
}
