//! What a run prints and what `compare` reads back: the host stamp, the
//! per-run result (human-readable lines plus the one-line JSON result), the
//! multi-workload result document, and the A/B comparison.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::json::{escape, number, Value};
use crate::schema;
use crate::stats::Better;

/// Schema id of the result document `all` writes.
pub const DOCUMENT_SCHEMA: &str = "aba-repro/benchmark/v1";

/// Where the numbers were taken (ROADMAP 1(a)): no figure leaves the
/// benchmark without it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// Threads of the `-tn` workloads: `min(available_parallelism, 4)`.
    pub tn: usize,
    /// Build profile of this binary.
    pub profile: &'static str,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// `git rev-parse --short HEAD`, or `unknown` outside a repository.
    pub git_revision: String,
}

fn first_line_of(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    text.lines().next().map(|line| line.trim().to_string())
}

impl Host {
    /// Inspect the host this process runs on.
    pub fn detect() -> Self {
        let available_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
        let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        // Ask git only when the repository is right there: a benchmark
        // checkout without `.git` must not wander into a parent directory's.
        let git_revision = manifest_dir
            .parent()
            .filter(|root| root.join(".git").exists())
            .and_then(|root| first_line_of("git", &["rev-parse", "--short", "HEAD"], root))
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            available_parallelism,
            tn: available_parallelism.min(4),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: first_line_of("rustc", &["-V"], manifest_dir)
                .unwrap_or_else(|| "unknown".to_string()),
            git_revision,
        }
    }

    /// One line for the top of every report.
    pub fn render(&self) -> String {
        format!(
            "host: available_parallelism={} tn={} profile={} rustc=\"{}\" git={}",
            self.available_parallelism, self.tn, self.profile, self.rustc, self.git_revision
        )
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\": {}, \"tn\": {}, \"profile\": \"{}\", \"rustc\": \"{}\", \"git_revision\": \"{}\"}}",
            self.available_parallelism,
            self.tn,
            self.profile,
            escape(&self.rustc),
            escape(&self.git_revision)
        )
    }
}

/// One reported metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    /// Declared metric name.
    pub name: String,
    /// Declared unit.
    pub unit: String,
    /// The value, as measured.
    pub value: f64,
    /// End-to-end figures: round-to-round spread inside the run (relative
    /// interquartile range).
    pub spread: Option<f64>,
}

impl Reported {
    /// A reported value.
    pub fn new(name: &str, unit: &str, value: f64, spread: Option<f64>) -> Self {
        Reported {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            spread,
        }
    }
}

/// One run: one workload, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub traced: bool,
    /// Operations issued on the end-to-end lanes during timed rounds.
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
    /// Wall time of the whole run, set-up included.
    pub wall_s: f64,
    /// Sizes behind the figures (rounds, samples, lane mapping).
    pub notes: String,
    /// Every declared metric of the pass, in declaration order.
    pub metrics: Vec<Reported>,
}

impl RunResult {
    fn metrics_json(&self, with_spread: bool) -> String {
        let entries: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let spread = match m.spread {
                    Some(s) if with_spread => format!(", \"spread\": {}", number(s)),
                    _ => String::new(),
                };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{spread}}}",
                    escape(&m.name),
                    number(m.value),
                    escape(&m.unit)
                )
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }

    /// The result line the acceptance pipeline reads: last line of stdout.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted.max(1),
            self.failed,
            self.metrics_json(false)
        )
    }

    /// Every metric by name with its unit, for people.
    pub fn render(&self) -> String {
        let pass = if self.traced { "traced" } else { "end-to-end" };
        let mut out = format!(
            "== {} ({pass}) == {:.1} s wall; {}\n   correct: gate passed, engine accounting held; attempted {} failed {}\n",
            self.workload, self.wall_s, self.notes, self.attempted, self.failed
        );
        for m in &self.metrics {
            let spread = m.spread.map_or_else(String::new, |s| {
                format!("   (round-to-round IQR {:.1}%)", s * 100.0)
            });
            let _ = writeln!(
                out,
                "   {:<44} {:>16.4} {}{spread}",
                m.name, m.value, m.unit
            );
        }
        out
    }
}

/// The result document of an `all` run: every workload, both passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// Host stamp.
    pub host: Host,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds` of each pass.
    pub seconds: f64,
    /// Runs in execution order.
    pub runs: Vec<RunResult>,
}

/// End-to-end value of one (workload, metric) as `compare` sees it.
#[derive(Debug, Clone, Copy)]
struct Cell {
    value: f64,
    spread: f64,
}

impl Document {
    /// Serialise.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"schema\": \"{DOCUMENT_SCHEMA}\",\n  \"host\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"runs\": [",
            self.host.to_json(),
            self.seed,
            number(self.seconds)
        );
        for (i, run) in self.runs.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"workload\": \"{}\", \"traced\": {}, \"wall_s\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                if i > 0 { "," } else { "" },
                escape(run.workload),
                run.traced,
                number(run.wall_s),
                run.attempted,
                run.failed,
                run.metrics_json(true)
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Write to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Read back what [`Document::to_json`] wrote.
    pub fn parse(text: &str) -> Result<Document, String> {
        let doc = Value::parse(text)?;
        let field = |v: &Value, key: &str| {
            v.get(key)
                .cloned()
                .ok_or_else(|| format!("missing \"{key}\""))
        };
        let num = |v: &Value, key: &str| {
            field(v, key)?
                .as_f64()
                .ok_or_else(|| format!("\"{key}\" is not a number"))
        };
        let text_of = |v: &Value, key: &str| {
            field(v, key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("\"{key}\" is not a string"))
        };
        if text_of(&doc, "schema")? != DOCUMENT_SCHEMA {
            return Err(format!("not a {DOCUMENT_SCHEMA} document"));
        }
        let host = field(&doc, "host")?;
        let profile = match text_of(&host, "profile")?.as_str() {
            "release" => "release",
            _ => "debug",
        };
        let mut runs = Vec::new();
        for run in field(&doc, "runs")?
            .as_array()
            .ok_or("\"runs\" is not an array")?
        {
            let name = text_of(run, "workload")?;
            let workload = crate::lanes::workload(&name)
                .ok_or_else(|| format!("unknown workload {name:?}"))?
                .name;
            let mut metrics = Vec::new();
            let entries = field(run, "metrics")?;
            for (name, entry) in entries.as_object().ok_or("\"metrics\" is not an object")? {
                metrics.push(Reported {
                    name: name.clone(),
                    unit: text_of(entry, "unit")?,
                    value: num(entry, "value")?,
                    spread: entry.get("spread").and_then(Value::as_f64),
                });
            }
            runs.push(RunResult {
                workload,
                traced: field(run, "traced")? == Value::Bool(true),
                attempted: num(run, "attempted")? as u64,
                failed: num(run, "failed")? as u64,
                wall_s: num(run, "wall_s")?,
                notes: String::new(),
                metrics,
            });
        }
        Ok(Document {
            host: Host {
                available_parallelism: num(&host, "available_parallelism")? as usize,
                tn: num(&host, "tn")? as usize,
                profile,
                rustc: text_of(&host, "rustc")?,
                git_revision: text_of(&host, "git_revision")?,
            },
            seed: num(&doc, "seed")? as u64,
            seconds: num(&doc, "seconds")?,
            runs,
        })
    }

    fn end_to_end(&self, workload: &str, metric: &str) -> Option<Cell> {
        self.runs
            .iter()
            .filter(|r| !r.traced && r.workload == workload)
            .flat_map(|r| &r.metrics)
            .find(|m| m.name == metric)
            .map(|m| Cell {
                value: m.value,
                spread: m.spread.unwrap_or(0.0),
            })
    }
}

/// Outcome of comparing two documents.
#[derive(Debug)]
pub struct Comparison {
    /// The table.
    pub text: String,
    /// (workload, metric) pairs where B is worse than A by more than the
    /// bound and by more than either run's round-to-round spread.
    pub regressed: usize,
    /// Pairs beyond the bound but inside the spread: not shown unchanged.
    pub unresolved: usize,
}

/// Compare every end-to-end (workload, metric) of `b` against base `a`.
/// Refuses documents that were not taken under the same conditions.
pub fn compare(a: &Document, b: &Document) -> Result<Comparison, String> {
    if a.host.available_parallelism != b.host.available_parallelism {
        return Err(format!(
            "refusing to compare: available_parallelism {} vs {}",
            a.host.available_parallelism, b.host.available_parallelism
        ));
    }
    if a.host.profile != b.host.profile {
        return Err(format!(
            "refusing to compare: profile {} vs {}",
            a.host.profile, b.host.profile
        ));
    }
    if a.seed != b.seed {
        return Err(format!(
            "refusing to compare: seed {} vs {}",
            a.seed, b.seed
        ));
    }
    let mut text = format!(
        "{:<20} {:<10} {:>14} {:>14} {:>20}  verdict (bound)\n",
        "workload", "metric", "A", "B", "B/A (base A)"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for w in crate::lanes::WORKLOADS {
        for m in schema::end_to_end() {
            let (Some(base), Some(new)) =
                (a.end_to_end(w.name, &m.name), b.end_to_end(w.name, &m.name))
            else {
                return Err(format!(
                    "{} / {} is missing from a document",
                    w.name, m.name
                ));
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let ratio = new.value / base.value;
            let worse_by = match m.better {
                Better::Higher => 1.0 - ratio,
                Better::Lower => ratio - 1.0,
            };
            let verdict = if worse_by <= bound {
                "within-bound"
            } else if worse_by <= base.spread.max(new.spread) {
                unresolved += 1;
                "unresolved"
            } else {
                regressed += 1;
                "regressed"
            };
            let _ = writeln!(
                text,
                "{:<20} {:<10} {:>14.4} {:>14.4} {:>9.4} of {:<8.4}  {verdict} ({}{:.0}%)",
                w.name,
                m.name,
                base.value,
                new.value,
                ratio,
                base.value,
                if m.better == Better::Higher { "-" } else { "+" },
                bound * 100.0
            );
        }
    }
    let _ = writeln!(text, "{regressed} regressed, {unresolved} unresolved");
    Ok(Comparison {
        text,
        regressed,
        unresolved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host {
            available_parallelism: 2,
            tn: 2,
            profile: "release",
            rustc: "rustc 1.0 (\"quoted\")".into(),
            git_revision: "abc1234".into(),
        }
    }

    fn document(ops_per_s: f64, spread: f64) -> Document {
        let runs = crate::lanes::WORKLOADS
            .iter()
            .map(|w| RunResult {
                workload: w.name,
                traced: false,
                attempted: 1000,
                failed: 0,
                wall_s: 1.5,
                notes: String::new(),
                metrics: vec![
                    Reported::new("ops_per_s", "ops/s", ops_per_s, Some(spread)),
                    Reported::new("p50_ns", "ns", 300.0, Some(0.01)),
                    Reported::new("p99_ns", "ns", 900.0, Some(0.01)),
                    Reported::new("setup_s", "s", 0.25, None),
                ],
            })
            .collect();
        Document {
            host: host(),
            seed: 7,
            seconds: 10.0,
            runs,
        }
    }

    #[test]
    fn documents_round_trip() {
        let doc = document(1.0e6, 0.02);
        assert_eq!(Document::parse(&doc.to_json()).unwrap(), doc);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let run = &document(1.0e6, 0.02).runs[0];
        let line = Value::parse(&run.result_line()).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let metric = line
            .get("metrics")
            .and_then(|m| m.get("ops_per_s"))
            .unwrap();
        let keys: Vec<&str> = metric
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["unit", "value"]);
        assert!(!run.result_line().contains('\n'));
    }

    #[test]
    fn compare_separates_within_bound_unresolved_and_regressed() {
        let base = document(1.0e6, 0.02);
        let same = compare(&base, &document(0.95e6, 0.02)).unwrap();
        assert_eq!((same.regressed, same.unresolved), (0, 0));
        assert!(same.text.contains("of 1000000"), "ratios name their base");
        // 40% slower with tight rounds: a regression on every workload.
        let slow = compare(&base, &document(0.6e6, 0.02)).unwrap();
        assert_eq!((slow.regressed, slow.unresolved), (5, 0));
        // 40% slower but rounds 50% apart: cannot be told from noise.
        let noisy = compare(&base, &document(0.6e6, 0.50)).unwrap();
        assert_eq!((noisy.regressed, noisy.unresolved), (0, 5));
        // Faster is never a regression.
        let fast = compare(&base, &document(2.0e6, 0.02)).unwrap();
        assert_eq!((fast.regressed, fast.unresolved), (0, 0));
    }

    #[test]
    fn compare_refuses_documents_taken_under_other_conditions() {
        let base = document(1.0e6, 0.02);
        let mut other = base.clone();
        other.host.available_parallelism = 8;
        assert!(compare(&base, &other)
            .unwrap_err()
            .contains("available_parallelism"));
        let mut other = base.clone();
        other.host.profile = "debug";
        assert!(compare(&base, &other).unwrap_err().contains("profile"));
        let mut other = base.clone();
        other.seed = 8;
        assert!(compare(&base, &other).unwrap_err().contains("seed"));
    }
}
