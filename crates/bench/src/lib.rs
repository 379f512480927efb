//! # aba-bench
//!
//! The experiment harness: table formatting, flag parsing, the
//! `BENCH_lint.json` / `BENCH_dpor.json` emitters and the paired-ratio
//! regression gate ([`baseline`]) shared by the ten
//! table-generating binaries — `table_step_complexity`, `table_tradeoff`,
//! `lowerbound_witness`, `table_aba_incidence`, `table_throughput`,
//! `table_reclamation`, `table_set`, `table_map`, `table_dpor` and
//! `table_lint`.  Throughput measurement itself lives in the `aba-workload`
//! engine, which the throughput-style tables drive; per-layer latency lives
//! in the standalone `benchmark/` package.
//!
//! Every binary prints a self-contained plain-text table whose rows map
//! one-to-one onto the experiment index in `DESIGN.md` / `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;

/// A plain-text table builder for experiment output.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with the given title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// The value following `flag` on the command line, if the flag is present.
pub fn value_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The two flags every JSON-writing table binary takes: whether `--quick`
/// was given, and the `--out <path>` destination (`default_out` without it).
pub fn quick_and_out(args: &[String], default_out: &str) -> (bool, String) {
    let quick = args.iter().any(|a| a == "--quick");
    let out = value_flag(args, "--out").unwrap_or_else(|| default_out.to_string());
    (quick, out)
}

/// Render the `BENCH_lint.json` document (schema `aba-repro/lint/v1`) from
/// a static lint report and the dynamic family-audit verdicts.
///
/// Factored out of the `table_lint` binary so the golden tests can pin the
/// exact key sets of a freshly produced document without re-running the
/// (comparatively expensive) audits.
pub fn lint_json(
    quick: bool,
    report: &aba_analyze::LintReport,
    verdicts: &[aba_sim::AuditVerdict],
) -> String {
    use std::fmt::Write as _;

    let mut json = String::from("{\"schema\":\"aba-repro/lint/v1\",\"quick\":");
    let _ = write!(
        json,
        "{quick},\"files_scanned\":{},\"total_findings\":{},\"rules\":[",
        report.files_scanned,
        report.findings.len()
    );
    for (i, rule) in aba_analyze::RULE_ROSTER.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"id\":\"{}\",\"name\":\"{}\",\"summary\":\"{}\",\"findings\":{}}}",
            rule.id,
            rule.name,
            rule.summary,
            report.count_for(rule.id)
        );
    }
    json.push_str("],\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            f.rule,
            f.file,
            f.line,
            f.message.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    json.push_str("],\"audits\":[");
    for (i, v) in verdicts.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"family\":\"{}\",\"mode\":\"{}\",\"schedules\":{},\"steps_audited\":{},\
             \"under_reports\":{},\"over_reports\":{},\"sound\":{}}}",
            v.family,
            v.mode,
            v.schedules,
            v.steps_audited,
            v.under_reports,
            v.over_reports,
            v.sound
        );
    }
    json.push_str("]}");
    json
}

/// One explored roster row of `table_dpor` (experiment E11).
#[derive(Debug)]
pub struct DporRow {
    /// The roster row explored.
    pub model: aba_sim::SimModel,
    /// What the exploration found.
    pub report: aba_sim::ExplorationReport,
    /// Wall-clock time of the exploration.
    pub elapsed_ms: u128,
}

impl DporRow {
    /// Length of the first witness schedule, if the exploration found one.
    pub fn witness_len(&self) -> Option<usize> {
        self.report.witness().map(|w| w.meta.schedule.len())
    }
}

/// Render the `BENCH_dpor.json` document (schema `aba-repro/dpor/v1`), one
/// row per explored model in the order given.
///
/// Factored out of the `table_dpor` binary so the golden test can pin the
/// row keys and their order (CI greps them) without running an exploration.
pub fn dpor_json(quick: bool, rows: &[DporRow]) -> String {
    use std::fmt::Write as _;

    let mut json = String::from("{\"schema\":\"aba-repro/dpor/v1\",\"quick\":");
    let _ = write!(json, "{quick},\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let witness_len = row.witness_len();
        let _ = write!(
            json,
            "{{\"family\":\"{}\",\"mode\":\"{}\",\"protected\":{},\"bound\":\"{}\",\
             \"schedules_executed\":{},\"classes_pruned\":{},\"steps_executed\":{},\
             \"truncated_traces\":{},\"complete\":{},\"hit_schedule_cap\":{},\
             \"witness\":{},\"witness_len\":{},\"elapsed_ms\":{}}}",
            row.model.family,
            row.model.mode,
            row.model.protected,
            row.model.bound,
            row.report.schedules_executed,
            row.report.classes_pruned,
            row.report.steps_executed,
            row.report.truncated_traces,
            row.report.complete,
            row.report.hit_schedule_cap,
            witness_len.is_some(),
            witness_len.map_or("null".to_string(), |l| l.to_string()),
            row.elapsed_ms,
        );
    }
    json.push_str("]}");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_output() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["alpha".to_string(), "1".to_string()]);
        t.row(&["b".to_string(), "22222".to_string()]);
        let text = t.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("alpha"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only one".to_string()]);
    }
}
