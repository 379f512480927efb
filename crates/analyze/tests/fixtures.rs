//! Fixture-based non-vacuity tests: for every rule in the roster, a
//! deliberately violating snippet that MUST be flagged and a compliant
//! twin that MUST NOT be.  These are the proof that the linter is not
//! vacuously green — if a rule's check is disabled or its matcher broken,
//! the violating fixture stops firing and the test fails.
//!
//! The snippets live in string literals; the lexer's string-awareness is
//! what lets this file itself survive the workspace lint run.

use aba_analyze::{lint_source, Finding};

fn findings_for(path: &str, src: &str) -> Vec<Finding> {
    lint_source(path, src)
}

fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = findings_for(path, src).iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

// ---------------------------------------------------------------------------
// L1: ordering-justified
// ---------------------------------------------------------------------------

#[test]
fn l1_flags_unjustified_relaxed_ordering() {
    let src = "fn f(a: &AtomicU32) { a.store(1, Ordering::Relaxed); }\n";
    let hits = findings_for("crates/x/src/a.rs", src);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "L1");
    assert_eq!(hits[0].line, 1);
}

#[test]
fn l1_accepts_seqcst_and_justified_relaxations() {
    let seqcst = "fn f(a: &AtomicU32) { a.store(1, Ordering::SeqCst); }\n";
    assert!(findings_for("crates/x/src/a.rs", seqcst).is_empty());

    let justified = "fn f(a: &AtomicU32) {\n    // ordering: counter only, no synchronisation.\n    a.store(1, Ordering::Relaxed);\n}\n";
    assert!(findings_for("crates/x/src/a.rs", justified).is_empty());

    // A multi-line justification paragraph covers the site even when the
    // marker is on its first line.
    let paragraph = "fn f(a: &AtomicU32) {\n    // ordering: pure event counter — no other memory\n    // is published through this store.\n    a.store(1, Ordering::Relaxed);\n}\n";
    assert!(findings_for("crates/x/src/a.rs", paragraph).is_empty());
}

#[test]
fn l1_ignores_orderings_inside_string_literals() {
    let src = "fn f() { let s = \"Ordering::Relaxed\"; }\n";
    assert!(findings_for("crates/x/src/a.rs", src).is_empty());
}

#[test]
fn l1_flags_all_four_relaxed_variants() {
    for variant in ["Relaxed", "Acquire", "Release", "AcqRel"] {
        let src = format!("fn f(a: &AtomicU32) {{ a.load(Ordering::{variant}); }}\n");
        assert_eq!(rules_hit("crates/x/src/a.rs", &src), ["L1"], "{variant}");
    }
}

// ---------------------------------------------------------------------------
// L2: forbid-unsafe
// ---------------------------------------------------------------------------

#[test]
fn l2_flags_crate_root_without_forbid_unsafe() {
    let src = "//! Some crate.\npub fn f() {}\n";
    assert_eq!(rules_hit("crates/x/src/lib.rs", src), ["L2"]);
}

#[test]
fn l2_accepts_crate_root_with_forbid_and_skips_non_roots() {
    let with = "#![forbid(unsafe_code)]\npub fn f() {}\n";
    assert!(findings_for("crates/x/src/lib.rs", with).is_empty());

    let without = "pub fn f() {}\n";
    // Not a crate root: rule does not apply.
    assert!(findings_for("crates/x/src/module.rs", without).is_empty());
    // The bench crate root is a crate root like any other.
    assert_eq!(rules_hit("crates/bench/src/lib.rs", without), ["L2"]);
}

// ---------------------------------------------------------------------------
// L3: deterministic
// ---------------------------------------------------------------------------

#[test]
fn l3_flags_sleep_and_instant_now_in_library_code() {
    let sleep = "fn f() { std::thread::sleep(Duration::from_millis(1)); }\n";
    assert_eq!(rules_hit("crates/x/src/a.rs", sleep), ["L3"]);

    let now = "fn f() { let t = std::time::Instant::now(); }\n";
    assert_eq!(rules_hit("crates/x/src/a.rs", now), ["L3"]);
}

#[test]
fn l3_allowlists_bench_examples_timing_and_justified_sites() {
    let now = "fn f() { let t = std::time::Instant::now(); }\n";
    assert!(findings_for("crates/bench/src/matrix.rs", now).is_empty());
    assert!(findings_for("examples/demo.rs", now).is_empty());
    assert!(findings_for("crates/workload/src/engine.rs", now).is_empty());

    let justified =
        "fn f() {\n    // determinism: test-only wall-clock deadline.\n    let t = std::time::Instant::now();\n}\n";
    assert!(findings_for("crates/x/src/a.rs", justified).is_empty());
}

// ---------------------------------------------------------------------------
// L4: cas-retry-bounded
// ---------------------------------------------------------------------------

#[test]
fn l4_flags_unbounded_cas_loop() {
    let src = "fn f() { loop { let o = a.load(SeqCst); if a.compare_exchange(o, o + 1).is_ok() { return; } } }\n";
    assert_eq!(rules_hit("crates/x/src/a.rs", src), ["L4"]);
}

#[test]
fn l4_accepts_budget_yield_backoff_constant_or_justification() {
    let budget = "fn f() { let mut budget = 8; loop { if a.compare_exchange(0, 1).is_ok() || budget == 0 { return; } budget -= 1; } }\n";
    assert!(findings_for("crates/x/src/a.rs", budget).is_empty());

    let yielding = "fn f() { loop { if g.cas(h, o, n) { return; } std::thread::yield_now(); } }\n";
    assert!(findings_for("crates/x/src/a.rs", yielding).is_empty());

    let constant = "fn f() { for i in 0..MAX_SPINS { loop { if a.compare_exchange(0, MAX_SPINS).is_ok() { return; } } } }\n";
    assert!(findings_for("crates/x/src/a.rs", constant).is_empty());

    let justified = "fn f() {\n    // retry-bound: each failure implies another op's success.\n    loop { if h.sc(1) { return; } }\n}\n";
    assert!(findings_for("crates/x/src/a.rs", justified).is_empty());
}

#[test]
fn l4_covers_the_replay_adapters_retry_spelling() {
    // `.retry(` is an unbounded retry loop whose body is the closure.
    let bare = "fn f(m: &mut Mem) -> Run<()> {\n    m.retry(|m| {\n        let v = m.read(X)?;\n        Ok(m.cas(X, v, v + 1)?.then_some(()))\n    })\n}\n";
    let hits = findings_for("crates/x/src/a.rs", bare);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!((hits[0].rule, hits[0].line), ("L4", 4));
    // The method's own name is no evidence that a `loop` around it is bounded.
    let nested = "fn f(m: &mut Mem) -> Run<()> {\n    loop {\n        let at = m.retry(|m| find(m))?;\n        if m.cas(at, 0, 1)? { return Ok(()); }\n    }\n}\n";
    assert_eq!(findings_for("crates/x/src/a.rs", nested).len(), 2);

    let justified = "fn f(m: &mut Mem) -> Run<()> {\n    // retry-bound: fails only when another process moved X.\n    m.retry(|m| {\n        let v = m.read(X)?;\n        Ok(m.cas(X, v, v + 1)?.then_some(()))\n    })\n}\n";
    assert!(findings_for("crates/x/src/a.rs", justified).is_empty());
}

#[test]
fn l4_ignores_loops_without_cas() {
    let src = "fn f() { loop { if done() { return; } } }\n";
    assert!(findings_for("crates/x/src/a.rs", src).is_empty());
}

// ---------------------------------------------------------------------------
// L5: reclaimer-docs
// ---------------------------------------------------------------------------

/// L5 findings only — the fixtures reuse the reclaim crate-root path, which
/// is also subject to L2.
fn l5_findings(src: &str) -> Vec<Finding> {
    findings_for("crates/reclaim/src/lib.rs", src)
        .into_iter()
        .filter(|f| f.rule == "L5")
        .collect()
}

#[test]
fn l5_flags_undocumented_trait_and_items() {
    let src = "pub trait Reclaimer {\n    type Guard;\n    fn collect(&self);\n}\n";
    let hits = l5_findings(src);
    // Trait itself + `type Guard` + `fn collect` all undocumented.
    assert_eq!(hits.len(), 3, "{hits:?}");

    // The codec trait is part of the same surface.
    let codec = "pub trait LinkCodec {\n    fn encode(raw: u64) -> u64;\n}\n";
    assert_eq!(l5_findings(codec).len(), 2, "{:?}", l5_findings(codec));
}

#[test]
fn l5_accepts_fully_documented_surface_and_other_files() {
    let documented = "/// The reclaimer.\npub trait Reclaimer {\n    /// Its guard.\n    type Guard;\n    /// Collect garbage.\n    fn collect(&self);\n}\n";
    assert!(l5_findings(documented).is_empty());

    // The rule is scoped to the reclaim crate root only.
    let undocumented = "#![forbid(unsafe_code)]\npub trait Reclaimer { fn collect(&self); }\n";
    assert!(findings_for("crates/x/src/lib.rs", undocumented).is_empty());
}

#[test]
fn l5_does_not_flag_default_method_bodies_as_items() {
    // The `fn` nested inside a default method body is depth > 1 and must
    // not be treated as a trait item.
    let src = "/// Doc.\npub trait Guard {\n    /// Doc.\n    fn outer(&self) {\n        fn helper() {}\n        helper()\n    }\n}\n";
    assert!(l5_findings(src).is_empty(), "{:?}", l5_findings(src));
}

// ---------------------------------------------------------------------------
// Cross-cutting
// ---------------------------------------------------------------------------

#[test]
fn every_rule_in_the_roster_has_a_firing_fixture() {
    // One violating fixture per roster entry, so a rule can never silently
    // become unenforced without this test noticing.
    let fixtures: [(&str, &str, &str); 5] = [
        (
            "L1",
            "crates/x/src/a.rs",
            "fn f() { a.load(Ordering::Relaxed); }\n",
        ),
        ("L2", "crates/x/src/lib.rs", "pub fn f() {}\n"),
        (
            "L3",
            "crates/x/src/a.rs",
            "fn f() { std::thread::sleep(d); }\n",
        ),
        (
            "L4",
            "crates/x/src/a.rs",
            "fn f() { loop { if a.compare_exchange(0, 1).is_ok() { return; } } }\n",
        ),
        (
            "L5",
            "crates/reclaim/src/lib.rs",
            "pub trait Guard { fn pin(&self); }\n",
        ),
    ];
    for (rule, path, src) in fixtures {
        assert!(
            findings_for(path, src).iter().any(|f| f.rule == rule),
            "roster rule {rule} has no firing fixture"
        );
    }
    assert_eq!(aba_analyze::RULE_ROSTER.len(), fixtures.len());
}
