//! # aba-bench
//!
//! The experiment harness shared by the seven table-generating binaries —
//! `table_step_complexity`, `table_tradeoff`, `lowerbound_witness`,
//! `table_aba_incidence`, `table_matrix`, `table_dpor` and `table_lint`:
//! strict flag parsing ([`Args`]), the Section 2 lower-bound experiments
//! E3/E5 ([`lowerbound`]), the engine-matrix driver and its four-row table
//! ([`matrix`]), every rule a binary fails its run on ([`gate`]) and the
//! `BENCH_lint.json` / `BENCH_dpor.json` emitters.  Throughput measurement
//! itself lives in the `aba-workload` engine, which `table_matrix` drives;
//! per-layer latency lives in the standalone `benchmark/` package.
//!
//! Every binary prints a self-contained plain-text table whose rows map
//! one-to-one onto the experiment index in `DESIGN.md` / `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gate;
pub mod lowerbound;
pub mod matrix;

pub use aba_workload::report::Table;
use aba_workload::report::{json_escape, json_join};

/// The usage string of a binary that takes only `--quick` and `--out`.
pub const QUICK_AND_OUT: &str = "[--quick] [--out <path>]";

/// A command line checked against its binary's usage string, in which every
/// accepted `--flag` appears and one followed by a `<placeholder>` takes a
/// value.  Nothing is ignored: a misspelt flag would otherwise run the
/// default (full) sweep, and a value flag left last would silently take its
/// default.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parse `args` (without the program name) against `usage`.
    ///
    /// # Errors
    ///
    /// Names the first argument `usage` does not list as a flag, or the first
    /// value flag followed by nothing or by another `--flag`.
    pub fn parse(args: &[String], usage: &'static str) -> Result<Args, String> {
        let listed: Vec<&str> = usage
            .split_whitespace()
            .map(|token| token.trim_matches(['[', ']']))
            .collect();
        let mut given = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let at = listed.iter().position(|token| token == arg);
            let Some(at) = at.filter(|_| arg.starts_with("--")) else {
                return Err(format!("unknown argument `{arg}`"));
            };
            let takes_value = listed.get(at + 1).is_some_and(|next| next.starts_with('<'));
            let value = match takes_value.then(|| rest.next()) {
                None => None,
                Some(Some(value)) if !value.starts_with("--") => Some(value.clone()),
                Some(_) => return Err(format!("`{arg}` needs a value")),
            };
            given.push((arg.clone(), value));
        }
        Ok(Args { usage, given })
    }

    /// The process's own command line; a violation prints the message and
    /// the usage line and exits 2.
    pub fn from_env(usage: &'static str) -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Args::parse(&args, usage).unwrap_or_else(|message| usage_exit(usage, &message))
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| name == flag)
    }

    /// The value given for `flag`, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.given.iter().find(|(name, _)| name == flag)?;
        value.as_deref()
    }

    /// Print `message` and the usage line to stderr, then exit 2 — for a
    /// value that parsed but is not acceptable.
    pub fn fail(&self, message: &str) -> ! {
        usage_exit(self.usage, message)
    }
}

fn usage_exit(usage: &str, message: &str) -> ! {
    let program = std::env::args().next().unwrap_or_default();
    eprintln!("{message}\nusage: {program} {usage}");
    std::process::exit(2);
}

/// Report `failures` (the output of a [`gate`] function) on stderr and exit 1
/// if there are any.
pub fn exit_on_failures(gate: &str, failures: &[String]) {
    for failure in failures {
        eprintln!("{gate} gate: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
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
    let rules = json_join(&aba_analyze::RULE_ROSTER, ",", |rule| {
        format!(
            "{{\"id\":\"{}\",\"name\":\"{}\",\"summary\":\"{}\",\"findings\":{}}}",
            json_escape(rule.id),
            json_escape(rule.name),
            json_escape(rule.summary),
            report.count_for(rule.id)
        )
    });
    let findings = json_join(&report.findings, ",", |f| {
        format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            json_escape(f.rule),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message)
        )
    });
    let audits = json_join(verdicts, ",", |v| {
        format!(
            "{{\"family\":\"{}\",\"mode\":\"{}\",\"schedules\":{},\"steps_audited\":{},\
             \"under_reports\":{},\"over_reports\":{},\"sound\":{}}}",
            json_escape(&v.family),
            json_escape(&v.mode),
            v.schedules,
            v.steps_audited,
            v.under_reports,
            v.over_reports,
            v.sound
        )
    });
    format!(
        "{{\"schema\":\"aba-repro/lint/v1\",\"quick\":{quick},\"files_scanned\":{},\
         \"total_findings\":{},\"rules\":[{rules}],\"findings\":[{findings}],\
         \"audits\":[{audits}]}}",
        report.files_scanned,
        report.findings.len()
    )
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
/// row keys and their order without running an exploration.
pub fn dpor_json(quick: bool, rows: &[DporRow]) -> String {
    let rows = json_join(rows, ",", |row| {
        let witness_len = row.witness_len();
        format!(
            "{{\"family\":\"{}\",\"mode\":\"{}\",\"protected\":{},\"bound\":\"{}\",\
             \"schedules_executed\":{},\"classes_pruned\":{},\"steps_executed\":{},\
             \"truncated_traces\":{},\"complete\":{},\"hit_schedule_cap\":{},\
             \"witness\":{},\"witness_len\":{},\"elapsed_ms\":{}}}",
            json_escape(row.model.family),
            json_escape(row.model.mode),
            row.model.protected,
            json_escape(row.model.bound),
            row.report.schedules_executed,
            row.report.classes_pruned,
            row.report.steps_executed,
            row.report.truncated_traces,
            row.report.complete,
            row.report.hit_schedule_cap,
            witness_len.is_some(),
            witness_len.map_or("null".to_string(), |l| l.to_string()),
            row.elapsed_ms,
        )
    });
    format!("{{\"schema\":\"aba-repro/dpor/v1\",\"quick\":{quick},\"rows\":[{rows}]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "[--quick] [--out <path>] [--ops <n>]";

    fn parse(args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Args::parse(&args, USAGE)
    }

    #[test]
    fn known_flags_parse_with_their_values() {
        let args = parse(&["--quick", "--out", "a.json,b.json"]).unwrap();
        assert!(args.has("--quick"));
        assert_eq!(args.value("--out"), Some("a.json,b.json"));
        assert_eq!(args.value("--ops"), None);
        assert!(!args.has("--ops"));
    }

    #[test]
    fn a_value_flag_left_last_is_an_error_not_a_default() {
        // A value flag with its value forgotten used to run the default.
        let err = parse(&["--quick", "--ops"]).unwrap_err();
        assert!(err.contains("`--ops` needs a value"), "{err}");
        let err = parse(&["--out"]).unwrap_err();
        assert!(err.contains("`--out` needs a value"), "{err}");
        // Another flag is not a value either.
        let err = parse(&["--out", "--quick"]).unwrap_err();
        assert!(err.contains("`--out` needs a value"), "{err}");
    }

    #[test]
    fn a_misspelt_flag_is_an_error_not_a_full_sweep() {
        let err = parse(&["--qiuck"]).unwrap_err();
        assert!(err.contains("unknown argument `--qiuck`"), "{err}");
        // Nor is a word of the usage string that is not a flag.
        let err = parse(&["<path>"]).unwrap_err();
        assert!(err.contains("unknown argument `<path>`"), "{err}");
    }

    #[test]
    fn a_finding_message_is_escaped_into_valid_json() {
        // The message used to be escaped for `\` and `"` only, so a newline
        // was written raw and broke the string literal.
        let report = aba_analyze::LintReport {
            files_scanned: 1,
            findings: vec![aba_analyze::Finding {
                rule: "L1",
                file: "src/lib.rs".to_string(),
                line: 7,
                message: "say \"hi\"\\\nnow\u{1}".to_string(),
            }],
        };
        let json = lint_json(false, &report, &[]);
        assert!(
            json.contains(
                "\"findings\":[{\"rule\":\"L1\",\"file\":\"src/lib.rs\",\"line\":7,\
                 \"message\":\"say \\\"hi\\\"\\\\\\nnow\\u0001\"}]"
            ),
            "{json}"
        );
    }
}
