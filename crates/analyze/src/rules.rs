//! The registered conformance rule roster.
//!
//! Every rule encodes an invariant this repo kept re-learning in review
//! (see `DESIGN.md` §9 for the rationale and the known scope limits of the
//! token-level analysis):
//!
//! * **L1** `ordering-justified` — every `Ordering::` use is `SeqCst` or
//!   carries an adjacent `// ordering:` justification comment;
//! * **L2** `forbid-unsafe` — every crate root carries
//!   `#![forbid(unsafe_code)]`;
//! * **L3** `deterministic` — no `thread::sleep` / `Instant::now` outside
//!   bench, example and workload-timing code (a `// determinism:`
//!   justification comment is accepted for test-only deadlines);
//! * **L4** `cas-retry-bounded` — every `loop` lexically containing a
//!   CAS-like call (`compare_exchange*`, `cas`/`cas_*`, `sc`), and every
//!   `.retry(…)` of the simulator's replay adapter (an unbounded retry loop
//!   whose body is the closure), must carry in-body evidence of a bound
//!   (budget/retry/attempt identifiers, a yield/backoff, a
//!   `MAX_`/`BOUND`/`LIMIT` constant) or an adjacent `// retry-bound:`
//!   justification;
//! * **L5** `reclaimer-docs` — the `Reclaimer`/`Guard`/`LinkCodec` trait
//!   surface in `crates/reclaim` is fully rustdoc'd (every `fn`/`type` item
//!   and the trait declarations themselves).

use crate::lexer::{lex, matching_close, Comment, Lexed, TokKind, Token};

/// One registered rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Stable short id (`L1`…`L5`) used in reports and goldens.
    pub id: &'static str,
    /// Stable kebab-case name.
    pub name: &'static str,
    /// One-line summary for tables and JSON consumers.
    pub summary: &'static str,
}

/// The frozen rule roster, in display order.  Golden-pinned: grow by
/// appending, never rename or reorder (rule ids key `BENCH_lint.json`).
pub const RULE_ROSTER: [Rule; 5] = [
    Rule {
        id: "L1",
        name: "ordering-justified",
        summary: "non-SeqCst atomic orderings carry an adjacent `// ordering:` justification",
    },
    Rule {
        id: "L2",
        name: "forbid-unsafe",
        summary: "every crate root carries #![forbid(unsafe_code)]",
    },
    Rule {
        id: "L3",
        name: "deterministic",
        summary: "no thread::sleep / Instant::now outside bench, example and workload-timing code",
    },
    Rule {
        id: "L4",
        name: "cas-retry-bounded",
        summary: "every CAS retry loop carries a bound, a yield/backoff, or a justification",
    },
    Rule {
        id: "L5",
        name: "reclaimer-docs",
        summary: "the Reclaimer/Guard/LinkCodec trait surface is fully rustdoc'd",
    },
];

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule's id (`L1`…`L5`).
    pub rule: &'static str,
    /// Workspace-relative path (always `/`-separated).
    pub file: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// How a file is classified for rule applicability, derived purely from its
/// workspace-relative path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// Benchmark code: the `aba-bench` crate.
    pub bench: bool,
    /// Example programs (`examples/`): real-thread demos, allowed to sleep.
    pub example: bool,
    /// A crate root (`src/lib.rs` of the facade or a member crate).
    pub crate_root: bool,
    /// The workload engine's timing module, allowlisted for L3 (its entire
    /// job is wall-clock measurement).
    pub timing: bool,
    /// The `aba-reclaim` crate root, where L5's trait surface lives.
    pub reclaim_root: bool,
}

/// Classify a workspace-relative, `/`-separated path.
pub fn classify(path: &str) -> FileClass {
    FileClass {
        bench: path.starts_with("crates/bench/"),
        example: path.starts_with("examples/"),
        crate_root: path == "src/lib.rs"
            || (path.starts_with("crates/") && path.ends_with("/src/lib.rs")),
        timing: path == "crates/workload/src/engine.rs",
        reclaim_root: path == "crates/reclaim/src/lib.rs",
    }
}

/// Lint one source file (by workspace-relative path and content) against the
/// full rule roster.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let class = classify(path);
    let lexed = lex(src);
    let mut findings = Vec::new();
    rule_l1_ordering(path, &lexed, &mut findings);
    rule_l2_forbid_unsafe(path, &class, &lexed, &mut findings);
    rule_l3_determinism(path, &class, &lexed, &mut findings);
    rule_l4_cas_retry(path, &lexed, &mut findings);
    rule_l5_reclaimer_docs(path, &class, &lexed, &mut findings);
    findings
}

/// `true` iff some comment overlapping lines `[line - above, line]` contains
/// `marker` (case-insensitive) — the shared justification-comment check.
fn justified(comments: &[Comment], line: u32, above: u32, marker: &str) -> bool {
    comments.iter().any(|c| {
        c.end_line + above >= line && c.line <= line && c.text.to_lowercase().contains(marker)
    })
}

const NON_SEQCST: [&str; 4] = ["Acquire", "Release", "Relaxed", "AcqRel"];

fn rule_l1_ordering(path: &str, lexed: &Lexed, findings: &mut Vec<Finding>) {
    let t = &lexed.tokens;
    for i in 0..t.len().saturating_sub(3) {
        if t[i].ident() == Some("Ordering")
            && t[i + 1].is_punct(':')
            && t[i + 2].is_punct(':')
            && t[i + 3].ident().is_some_and(|m| NON_SEQCST.contains(&m))
        {
            let line = t[i + 3].line;
            if !justified(&lexed.comments, line, 1, "ordering:") {
                findings.push(Finding {
                    rule: "L1",
                    file: path.to_string(),
                    line,
                    message: format!(
                        "Ordering::{} without an adjacent `// ordering:` justification \
                         (use SeqCst or justify the relaxation)",
                        t[i + 3].ident().unwrap()
                    ),
                });
            }
        }
    }
}

fn rule_l2_forbid_unsafe(
    path: &str,
    class: &FileClass,
    lexed: &Lexed,
    findings: &mut Vec<Finding>,
) {
    if !class.crate_root {
        return;
    }
    let t = &lexed.tokens;
    let has = (0..t.len().saturating_sub(2)).any(|i| {
        t[i].ident() == Some("forbid")
            && t[i + 1].is_punct('(')
            && t[i + 2].ident() == Some("unsafe_code")
    });
    if !has {
        findings.push(Finding {
            rule: "L2",
            file: path.to_string(),
            line: 1,
            message: "crate root lacks #![forbid(unsafe_code)]".to_string(),
        });
    }
}

fn rule_l3_determinism(path: &str, class: &FileClass, lexed: &Lexed, findings: &mut Vec<Finding>) {
    if class.bench || class.example || class.timing {
        return;
    }
    let t = &lexed.tokens;
    for i in 0..t.len().saturating_sub(3) {
        let hit = if t[i + 1].is_punct(':') && t[i + 2].is_punct(':') {
            match (t[i].ident(), t[i + 3].ident()) {
                (Some("thread"), Some("sleep")) => Some("thread::sleep"),
                (Some("Instant"), Some("now")) => Some("Instant::now"),
                _ => None,
            }
        } else {
            None
        };
        if let Some(what) = hit {
            let line = t[i + 3].line;
            if !justified(&lexed.comments, line, 2, "determinism:") {
                findings.push(Finding {
                    rule: "L3",
                    file: path.to_string(),
                    line,
                    message: format!(
                        "{what} in non-bench, non-timing code breaks determinism \
                         (move it or add a `// determinism:` justification)"
                    ),
                });
            }
        }
    }
}

/// `true` for identifiers that (attempt to) perform a CAS-shaped conditional
/// update: `compare_exchange*`, the `Guard`/arena `cas`/`cas_*` helpers and
/// the LL/SC store-conditional `sc`.
fn is_cas_ident(id: &str) -> bool {
    id == "compare_exchange"
        || id == "compare_exchange_weak"
        || id == "cas"
        || id.starts_with("cas_")
        || id == "sc"
}

/// `true` for identifiers that evidence a bounded retry: budgets, attempt
/// counters, bailouts, yields and backoffs, or shouty bound constants.
fn is_bound_evidence(id: &str) -> bool {
    let lower = id.to_lowercase();
    if [
        "budget",
        "retry",
        "retries",
        "attempt",
        "bailout",
        "backoff",
        "spin_loop",
    ]
    .iter()
    .any(|m| lower.contains(m))
        || lower.contains("yield")
    {
        return true;
    }
    id.chars().all(|c| !c.is_lowercase())
        && (id.contains("MAX") || id.contains("BOUND") || id.contains("LIMIT"))
}

/// `true` iff token `i` is the method name of a `.retry(` call — the replay
/// adapter's spelling of an unbounded retry loop (and, being the loop's own
/// name, no evidence that anything bounds it).
fn is_adapter_retry(t: &[Token], i: usize) -> bool {
    t[i].ident() == Some("retry")
        && i > 0
        && t[i - 1].is_punct('.')
        && t.get(i + 1).is_some_and(|next| next.is_punct('('))
}

fn rule_l4_cas_retry(path: &str, lexed: &Lexed, findings: &mut Vec<Finding>) {
    let t = &lexed.tokens;
    for i in 0..t.len() {
        // A retry loop is a `loop` immediately followed by its block, or a
        // `.retry(` whose argument list holds the closure that is its body.
        let adapter = is_adapter_retry(t, i);
        let open = i + 1;
        let is_loop = t[i].ident() == Some("loop") && t.get(open).is_some_and(|b| b.is_punct('{'));
        if !adapter && !is_loop {
            continue;
        }
        let end = matching_close(t, open);
        let body = &t[open..end];
        // A `loop` is a retry loop only around a CAS; `.retry(` always is.
        let cas = body
            .iter()
            .find(|tok| tok.ident().is_some_and(is_cas_ident));
        let Some(site) = cas.or(adapter.then_some(&t[i])) else {
            continue;
        };
        let bounded = (open..end)
            .any(|j| t[j].ident().is_some_and(is_bound_evidence) && !is_adapter_retry(t, j));
        let end_line = body.last().map_or(t[i].line, |tok| tok.line);
        let justified_loop = lexed.comments.iter().any(|c| {
            c.end_line + 3 >= t[i].line
                && c.line <= end_line
                && c.text.to_lowercase().contains("retry-bound:")
        });
        if !bounded && !justified_loop {
            findings.push(Finding {
                rule: "L4",
                file: path.to_string(),
                line: site.line,
                message: "CAS retry loop with no retry budget, yield/backoff or \
                          `// retry-bound:` justification — a corrupted chain can wedge here"
                    .to_string(),
            });
        }
    }
}

fn rule_l5_reclaimer_docs(
    path: &str,
    class: &FileClass,
    lexed: &Lexed,
    findings: &mut Vec<Finding>,
) {
    if !class.reclaim_root {
        return;
    }
    let t = &lexed.tokens;
    for i in 0..t.len().saturating_sub(2) {
        if t[i].ident() != Some("pub") || t[i + 1].ident() != Some("trait") {
            continue;
        }
        let Some(name) = t[i + 2].ident() else {
            continue;
        };
        if !["Reclaimer", "Guard", "LinkCodec"].contains(&name) {
            continue;
        }
        // The trait declaration itself must be documented.
        if !has_doc_above(&lexed.comments, t[i].line) {
            findings.push(Finding {
                rule: "L5",
                file: path.to_string(),
                line: t[i].line,
                message: format!("pub trait {name} lacks a rustdoc comment"),
            });
        }
        // Every fn/type item in the trait body must be documented.
        let Some(open) = (i + 3..t.len()).find(|&j| t[j].is_punct('{')) else {
            continue;
        };
        let end = matching_close(t, open);
        let mut j = open + 1;
        while j < end.saturating_sub(1) {
            let is_item =
                matches!(t[j].ident(), Some("fn") | Some("type")) && t[j + 1].ident().is_some();
            // Only trait-level items: depth 1 relative to the trait brace.
            if is_item && brace_depth(&t[open..j]) == 1 {
                let item_line = t[j].line;
                if !has_doc_above(&lexed.comments, item_line) {
                    findings.push(Finding {
                        rule: "L5",
                        file: path.to_string(),
                        line: item_line,
                        message: format!(
                            "{name}::{} lacks a rustdoc comment",
                            t[j + 1].ident().unwrap()
                        ),
                    });
                }
            }
            j += 1;
        }
    }
}

/// Nesting depth after scanning `tokens` (starting at an opening brace).
fn brace_depth(tokens: &[Token]) -> usize {
    let mut depth = 0usize;
    for t in tokens {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    depth
}

/// `true` iff a rustdoc comment ends within the 8 lines above `line`
/// (attributes like `#[must_use]` may sit between the doc and the item).
fn has_doc_above(comments: &[Comment], line: u32) -> bool {
    comments
        .iter()
        .any(|c| c.doc && c.end_line < line && c.end_line + 8 >= line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_ids_are_unique_and_ordered() {
        let ids: Vec<&str> = RULE_ROSTER.iter().map(|r| r.id).collect();
        assert_eq!(ids, ["L1", "L2", "L3", "L4", "L5"]);
    }

    #[test]
    fn classify_paths() {
        assert!(classify("src/lib.rs").crate_root);
        assert!(classify("crates/sim/src/lib.rs").crate_root);
        assert!(!classify("crates/sim/src/executor.rs").crate_root);
        assert!(classify("crates/bench/src/bin/table_lint.rs").bench);
        assert!(classify("examples/quickstart.rs").example);
        assert!(classify("crates/workload/src/engine.rs").timing);
        assert!(classify("crates/reclaim/src/lib.rs").reclaim_root);
    }
}
