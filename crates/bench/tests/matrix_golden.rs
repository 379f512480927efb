//! Golden tests for the engine-matrix driver: each `MATRIX_TABLES` row's
//! `(family, schema, default_out)` and the exact `(scenario, backend,
//! threads)` cell sequence its selection produces — recorded from the
//! `--quick` documents of the four per-family binaries `table_matrix`
//! replaced (`table_throughput`, `table_reclamation`, `table_set`,
//! `table_map`), so the documents' consumers see the same cells in the same
//! order under the same schema strings.
//!
//! Together with `roster_golden` (names, cell keys) this replaces the
//! presence greps CI ran over the serialised documents: a roster that loses
//! a backend, or a row that stops sweeping it, fails here.

use aba_bench::matrix::{MatrixTable, MATRIX_TABLES};
use aba_workload::{
    standard_backends, standard_scenarios, to_json_with_schema, EngineConfig, MatrixResult,
};

const SCHEMES: [&str; 5] = ["unprotected", "tagged", "hazard", "llsc", "epoch"];

fn tiny_config() -> EngineConfig {
    EngineConfig {
        thread_counts: vec![1, 2],
        ops_per_thread: 8,
        warmup_ops_per_thread: 0,
        repetitions: 1,
        latency_sample_period: 3,
    }
}

fn run(family: &str) -> (&'static MatrixTable, MatrixResult) {
    let table = MatrixTable::find(Some(family)).expect("golden family");
    let result = table.run(&tiny_config(), &[], &[]).expect("unfiltered run");
    (table, result)
}

fn sequence(result: &MatrixResult) -> Vec<(&str, &str, usize)> {
    let cells = result.cells.iter();
    cells
        .map(|c| (c.scenario.as_str(), c.backend.as_str(), c.threads))
        .collect()
}

/// Assert the document's schema string, its top-level and config keys in
/// order, and that it holds one complete cell object per cell (the cell key
/// set itself is `roster_golden`'s pin).
fn assert_document(table: &MatrixTable, result: &MatrixResult) {
    let json = to_json_with_schema(result, table.schema);
    let first = &result.cells[0];
    let head = format!(
        "{{\n\"schema\":\"{}\",\n\"config\":{{\"thread_counts\":[1,2],\"ops_per_thread\":8,\
         \"warmup_ops_per_thread\":0,\"repetitions\":1,\"latency_sample_period\":3}},\n\
         \"cells\":[\n{{\"scenario\":\"{}\",\"backend\":\"{}\",\"threads\":{},\"ops_per_rep\":",
        table.schema, first.scenario, first.backend, first.threads
    );
    assert!(
        json.starts_with(&head),
        "`{}` document head changed:\n{}",
        table.family,
        &json[..head.len().min(json.len())]
    );
    assert!(json.ends_with("\"repetitions\":1}\n]\n}\n"));
    assert_eq!(json.matches("\"failed_ops\":").count(), result.cells.len());
}

#[test]
fn rows_keep_their_family_schema_and_default_out() {
    let rows: Vec<_> = MATRIX_TABLES
        .iter()
        .map(|t| (t.family, t.schema, t.default_out))
        .collect();
    assert_eq!(
        rows,
        [
            (
                "all",
                "aba-repro/bench-throughput/v1",
                "BENCH_throughput.json"
            ),
            (
                "reclamation",
                "aba-repro/reclamation/v1",
                "BENCH_reclamation.json"
            ),
            ("set", "aba-repro/bench-throughput/v1", "BENCH_set.json"),
            ("map", "aba-repro/map/v1", "BENCH_map.json"),
        ]
    );
}

#[test]
fn all_is_the_full_cross_product_in_roster_order() {
    let (table, result) = run("all");
    let scenarios = standard_scenarios();
    let backends = standard_backends();
    let mut expected = Vec::new();
    for scenario in &scenarios {
        for backend in &backends {
            for threads in [1, 2] {
                expected.push((scenario.name(), backend.name(), threads));
            }
        }
    }
    assert_eq!(expected.len(), 720);
    assert_eq!(sequence(&result), expected);
    assert_document(table, &result);
    assert!(table
        .render(&result)
        .contains("== E7/E8 scenario: zipf-read-heavy =="));
}

#[test]
fn reclamation_is_churn_on_stacks_then_hand_off_on_queues_at_max_threads() {
    let (table, result) = run("reclamation");
    assert_eq!(
        sequence(&result),
        [
            ("churn", "stack/unprotected", 2),
            ("churn", "stack/tagged", 2),
            ("churn", "stack/hazard", 2),
            ("churn", "stack/llsc-head", 2),
            ("churn", "stack/epoch", 2),
            ("churn", "stack-elim/unprotected", 2),
            ("churn", "stack-elim/tagged", 2),
            ("churn", "stack-elim/hazard", 2),
            ("churn", "stack-elim/llsc-head", 2),
            ("churn", "stack-elim/epoch", 2),
            ("producer-consumer", "queue/unprotected", 2),
            ("producer-consumer", "queue/tagged", 2),
            ("producer-consumer", "queue/hazard", 2),
            ("producer-consumer", "queue/llsc", 2),
            ("producer-consumer", "queue/epoch", 2),
        ],
        "15 cells under --quick too: the row sweeps the largest thread count only"
    );
    // The config echo still lists every configured thread count.
    assert_eq!(result.config, tiny_config());
    assert_document(table, &result);
    let text = table.render(&result);
    assert!(text.contains("== E9/E15: reclamation cost on `churn`, 2 threads =="));
    assert!(text.contains("== E9/E15: reclamation cost on `producer-consumer`, 2 threads =="));
    assert!(text.contains("Treiber+elim (hazard pointers)"));
}

#[test]
fn set_and_map_are_two_scenarios_by_five_schemes_by_every_thread_count() {
    for (family, scenarios) in [
        ("set", ["uniform-key-churn", "hot-key-contention"]),
        ("map", ["zipf-key-churn", "zipf-read-heavy"]),
    ] {
        let (table, result) = run(family);
        let backends = SCHEMES.map(|scheme| format!("{family}/{scheme}"));
        let mut expected = Vec::new();
        for scenario in scenarios {
            for backend in &backends {
                for threads in [1, 2] {
                    expected.push((scenario, backend.as_str(), threads));
                }
            }
        }
        assert_eq!(sequence(&result), expected, "`{family}` cell sequence");
        assert_document(table, &result);
        let text = table.render(&result);
        assert_eq!(text.matches("vs unprotected").count(), 2, "{text}");
    }
}

#[test]
fn prefix_filters_narrow_a_row_and_may_not_empty_it() {
    let table = MatrixTable::find(Some("reclamation")).expect("golden family");
    let narrowed = table
        .run(
            &tiny_config(),
            &["churn".to_string()],
            &["stack/".to_string()],
        )
        .expect("five cells left");
    let backends: Vec<&str> = narrowed.cells.iter().map(|c| c.backend.as_str()).collect();
    assert_eq!(
        backends,
        [
            "stack/unprotected",
            "stack/tagged",
            "stack/hazard",
            "stack/llsc-head",
            "stack/epoch"
        ]
    );
    let err = table
        .run(&tiny_config(), &["zipf".to_string()], &[])
        .unwrap_err();
    assert!(err.contains("matched nothing"), "{err}");
}
