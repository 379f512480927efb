//! Rendering a [`MatrixResult`](crate::engine::MatrixResult): aligned
//! plain-text tables (one per scenario) and the machine-readable
//! `BENCH_throughput.json` document.
//!
//! The JSON is hand-rolled (the workspace builds offline, without serde);
//! [`to_json`] emits a stable, versioned schema so downstream tooling can
//! track the repository's performance trajectory across commits.

use crate::engine::{CellResult, EngineConfig, MatrixResult};

// ---------------------------------------------------------------------------
// Plain text
// ---------------------------------------------------------------------------

/// One column of [`Table::of`]: its header and the function rendering an
/// item's cell in it.
pub type Column<'a, T> = (&'a str, &'a dyn Fn(&T) -> String);

/// A titled plain-text table with aligned columns — the one renderer behind
/// the engine's per-scenario tables and every experiment binary's output
/// (`aba_bench::Table` re-exports it).
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

    /// A table with one row per item; header and rows agree in arity by
    /// construction.
    pub fn of<T>(
        title: &str,
        items: impl IntoIterator<Item = T>,
        columns: &[Column<'_, T>],
    ) -> Self {
        let header: Vec<&str> = columns.iter().map(|(name, _)| *name).collect();
        let mut table = Table::new(title, &header);
        for item in items {
            let cells: Vec<String> = columns.iter().map(|(_, cell)| cell(&item)).collect();
            table.row(&cells);
        }
        table
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

    /// Render the table as aligned plain text: a `== title ==` line, the
    /// header, a rule, then one line per row.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = format!("== {} ==\n", self.title);
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

fn human_rate(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1e6 {
        format!("{:.2}M", ops_per_sec / 1e6)
    } else if ops_per_sec >= 1e3 {
        format!("{:.1}k", ops_per_sec / 1e3)
    } else {
        format!("{ops_per_sec:.0}")
    }
}

/// Render one aligned table per scenario: rows are backends, columns are
/// thread counts (ops/s) plus the p50/p99 latency at the highest thread
/// count.
pub fn render_tables(result: &MatrixResult) -> String {
    let mut scenarios: Vec<&str> = Vec::new();
    for cell in &result.cells {
        if !scenarios.contains(&cell.scenario.as_str()) {
            scenarios.push(&cell.scenario);
        }
    }
    let max_threads = result
        .config
        .thread_counts
        .iter()
        .copied()
        .max()
        .unwrap_or(1);

    let mut out = String::new();
    for scenario in scenarios {
        let cells: Vec<&CellResult> = result
            .cells
            .iter()
            .filter(|c| c.scenario == scenario)
            .collect();
        let mut backends: Vec<&str> = Vec::new();
        for cell in &cells {
            if !backends.contains(&cell.backend.as_str()) {
                backends.push(&cell.backend);
            }
        }

        let mut header: Vec<String> = vec!["backend".to_string()];
        for t in &result.config.thread_counts {
            header.push(format!("{t} thr (ops/s)"));
        }
        header.push(format!("p50@{max_threads}thr"));
        header.push(format!("p99@{max_threads}thr"));
        header.push(format!("peak-unreclaimed@{max_threads}thr"));
        header.push(format!("failed@{max_threads}thr"));

        let header: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = Table::new(&format!("E7/E8 scenario: {scenario}"), &header);
        for backend in backends {
            let mut row = vec![backend.to_string()];
            for &t in &result.config.thread_counts {
                let cell = cells
                    .iter()
                    .find(|c| c.backend == backend && c.threads == t)
                    .expect("matrix is a full cross product");
                row.push(human_rate(cell.ops_per_sec));
            }
            let top = cells
                .iter()
                .find(|c| c.backend == backend && c.threads == max_threads)
                .expect("matrix is a full cross product");
            row.push(format!("{}ns", top.p50_ns));
            row.push(format!("{}ns", top.p99_ns));
            row.push(top.peak_unreclaimed.to_string());
            row.push(top.failed_ops.to_string());
            table.row(&row);
        }

        out.push_str(&table.render());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// Schema identifier embedded in every document [`to_json`] produces.
pub const JSON_SCHEMA: &str = "aba-repro/bench-throughput/v1";

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_string()
    }
}

fn config_json(config: &EngineConfig) -> String {
    let threads: Vec<String> = config.thread_counts.iter().map(|t| t.to_string()).collect();
    format!(
        "{{\"thread_counts\":[{}],\"ops_per_thread\":{},\"warmup_ops_per_thread\":{},\"repetitions\":{},\"latency_sample_period\":{}}}",
        threads.join(","),
        config.ops_per_thread,
        config.warmup_ops_per_thread,
        config.repetitions,
        config.latency_sample_period,
    )
}

fn cell_json(cell: &CellResult) -> String {
    // `peak_unreclaimed` and `failed_ops` are additive on the v1 schema:
    // consumers of older documents see the pre-existing keys unchanged.
    format!(
        "{{\"scenario\":\"{}\",\"backend\":\"{}\",\"threads\":{},\"ops_per_rep\":{},\"ops_per_sec\":{},\"p50_ns\":{},\"p99_ns\":{},\"peak_unreclaimed\":{},\"failed_ops\":{},\"repetitions\":{}}}",
        json_escape(&cell.scenario),
        json_escape(&cell.backend),
        cell.threads,
        cell.ops_per_rep,
        json_f64(cell.ops_per_sec),
        cell.p50_ns,
        cell.p99_ns,
        cell.peak_unreclaimed,
        cell.failed_ops,
        cell.repetitions,
    )
}

/// Serialise the whole matrix as one JSON document (`BENCH_throughput.json`).
pub fn to_json(result: &MatrixResult) -> String {
    to_json_with_schema(result, JSON_SCHEMA)
}

/// Serialise the matrix under an explicit schema identifier.
///
/// The cell layout is identical to [`to_json`]'s; experiment binaries that
/// sweep a sub-matrix (e.g. the E13 map sweep's `aba-repro/map/v1`) stamp
/// their own schema so downstream tooling can tell the documents apart
/// without inspecting the cell set.
pub fn to_json_with_schema(result: &MatrixResult, schema: &str) -> String {
    let cells: Vec<String> = result.cells.iter().map(cell_json).collect();
    format!(
        "{{\n\"schema\":\"{}\",\n\"config\":{},\n\"cells\":[\n{}\n]\n}}\n",
        json_escape(schema),
        config_json(&result.config),
        cells.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> MatrixResult {
        let config = EngineConfig {
            thread_counts: vec![1, 2],
            ops_per_thread: 10,
            warmup_ops_per_thread: 1,
            repetitions: 1,
            latency_sample_period: 1,
        };
        let mut cells = Vec::new();
        for scenario in ["churn", "rmw-storm"] {
            for backend in ["llsc/announce", "stack/tagged"] {
                for threads in [1usize, 2] {
                    cells.push(CellResult {
                        scenario: scenario.to_string(),
                        backend: backend.to_string(),
                        threads,
                        ops_per_rep: (threads * 10) as u64,
                        ops_per_sec: 1234.5,
                        failed_ops: 2,
                        p50_ns: 40,
                        p99_ns: 90,
                        peak_unreclaimed: 3,
                        repetitions: 1,
                    });
                }
            }
        }
        MatrixResult { config, cells }
    }

    #[test]
    fn tables_have_one_section_per_scenario() {
        // Byte-exact: `render_tables` goes through the shared `Table`, whose
        // layout every experiment binary's output depends on.
        let section = |scenario: &str| {
            format!(
                "== E7/E8 scenario: {scenario} ==\n\
                 backend        1 thr (ops/s)  2 thr (ops/s)  p50@2thr  p99@2thr  peak-unreclaimed@2thr  failed@2thr\n\
                 ---------------------------------------------------------------------------------------------------\n\
                 llsc/announce  1.2k           1.2k           40ns      90ns      3                      2          \n\
                 stack/tagged   1.2k           1.2k           40ns      90ns      3                      2          \n\n"
            )
        };
        assert_eq!(
            render_tables(&sample_result()),
            section("churn") + &section("rmw-storm")
        );
    }

    #[test]
    fn table_of_renders_one_row_per_item_under_the_column_headers() {
        let table = Table::of(
            "squares",
            [2u32, 10],
            &[("n", &|n| n.to_string()), ("n^2", &|n| (n * n).to_string())],
        );
        assert_eq!(
            table.render(),
            "== squares ==\nn   n^2\n-------\n2   4  \n10  100\n"
        );
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["alpha".to_string(), "1".to_string()]);
        t.row(&["only one".to_string()]);
    }

    #[test]
    fn tables_include_the_peak_unreclaimed_column() {
        let text = render_tables(&sample_result());
        assert!(text.contains("peak-unreclaimed@2thr"));
    }

    #[test]
    fn tables_and_json_include_the_failed_ops_field() {
        let text = render_tables(&sample_result());
        assert!(text.contains("failed@2thr"));
        let json = to_json(&sample_result());
        assert_eq!(json.matches("\"failed_ops\":2").count(), 8);
    }

    #[test]
    fn json_contains_schema_config_and_every_cell() {
        let json = to_json(&sample_result());
        assert!(json.contains(JSON_SCHEMA));
        assert!(json.contains("\"thread_counts\":[1,2]"));
        assert_eq!(json.matches("\"peak_unreclaimed\":3").count(), 8);
        assert_eq!(json.matches("\"scenario\":").count(), 8);
        // Structural sanity: balanced braces and brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_with_custom_schema_differs_only_in_the_schema_field() {
        let result = sample_result();
        let default = to_json(&result);
        let custom = to_json_with_schema(&result, "aba-repro/map/v1");
        assert!(custom.contains("\"schema\":\"aba-repro/map/v1\""));
        assert!(!custom.contains(JSON_SCHEMA));
        assert_eq!(
            default.replace(JSON_SCHEMA, "aba-repro/map/v1"),
            custom,
            "cell layout must be schema-independent"
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn rates_render_human_readably() {
        assert_eq!(human_rate(2_500_000.0), "2.50M");
        assert_eq!(human_rate(12_300.0), "12.3k");
        assert_eq!(human_rate(42.0), "42");
    }

    #[test]
    fn non_finite_rates_serialise_as_zero() {
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(1.5), "1.500");
    }
}
