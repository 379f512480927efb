//! Integration tests for the ABA-motivated workloads (E6, E8 and the §1
//! event-signal scenario) running on top of the core algorithms, plus the
//! E7/E8 workload engine driven through the facade.

use aba_repro::core::BoundedAbaRegister;
use aba_repro::lockfree::{
    all_queues, all_stacks, stress_queue, stress_stack, EpochQueue, EpochStack, EventSignal,
    HazardQueue, HazardStack, LlScQueue, LlScStack, NaiveEventSignal, TaggedQueue, TaggedStack,
};
use aba_repro::workload::{
    run_cell, run_matrix, standard_backends, standard_scenarios, EngineConfig,
};

#[test]
fn protected_stacks_conserve_values_under_concurrency() {
    let threads = 4;
    let ops = 4_000;
    let capacity = 16;
    let protected: Vec<Box<dyn aba_repro::lockfree::Stack>> = vec![
        Box::new(TaggedStack::with_threads(capacity, 1)),
        Box::new(HazardStack::with_threads(capacity, threads)),
        Box::new(EpochStack::with_threads(capacity, threads)),
        Box::new(LlScStack::with_threads(capacity, threads)),
    ];
    for stack in protected {
        let report = stress_stack(stack.as_ref(), threads, ops);
        assert!(report.is_conserved(), "{}: {report:?}", report.structure);
        assert_eq!(report.aba_events, 0, "{}", report.structure);
    }
}

#[test]
fn stack_roster_runs_end_to_end() {
    for stack in all_stacks(12, 2) {
        let report = stress_stack(stack.as_ref(), 2, 2_000);
        // Every variant, including the unprotected one, completes the stress
        // without deadlock and reports its accounting.
        assert!(report.inserted > 0);
        assert_eq!(report.threads, 2);
    }
}

#[test]
fn protected_queues_conserve_values_under_concurrency() {
    let producers = 2;
    let consumers = 2;
    let threads = producers + consumers;
    let ops = 4_000;
    let capacity = 16;
    let protected: Vec<Box<dyn aba_repro::lockfree::Queue>> = vec![
        Box::new(TaggedQueue::with_threads(capacity, 1)),
        Box::new(HazardQueue::with_threads(capacity, threads)),
        Box::new(EpochQueue::with_threads(capacity, threads)),
        Box::new(LlScQueue::with_threads(capacity, threads)),
    ];
    for queue in protected {
        let report = stress_queue(queue.as_ref(), producers, consumers, ops);
        assert!(report.is_conserved(), "{}: {report:?}", report.structure);
        assert_eq!(report.aba_events, 0, "{}", report.structure);
    }
}

#[test]
fn queue_roster_runs_end_to_end() {
    for queue in all_queues(12, 4) {
        let report = stress_queue(queue.as_ref(), 2, 2, 2_000);
        // Every variant, including the unprotected one, completes the stress
        // without deadlock and reports its accounting.
        assert!(report.inserted > 0, "{}", report.structure);
        assert_eq!(report.threads, 4, "2 producers + 2 consumers");
    }
}

#[test]
fn role_asymmetric_scenarios_drive_queue_backends_through_the_facade() {
    let config = EngineConfig {
        thread_counts: vec![2],
        ops_per_thread: 200,
        warmup_ops_per_thread: 20,
        repetitions: 1,
        latency_sample_period: 7,
    };
    let scenarios: Vec<_> = standard_scenarios()
        .into_iter()
        .filter(|s| matches!(s.name(), "producer-consumer" | "pipeline"))
        .collect();
    let backends: Vec<_> = standard_backends()
        .into_iter()
        .filter(|b| b.name().starts_with("queue/"))
        .collect();
    let result = run_matrix(&scenarios, &backends, &config);
    assert_eq!(result.cells.len(), 2 * 5);
    for cell in &result.cells {
        assert_eq!(cell.ops_per_rep, (cell.threads * 200) as u64);
        assert!(cell.ops_per_sec > 0.0);
    }
}

#[test]
fn event_signal_scenario_from_the_introduction() {
    // The ABA-detecting register catches a signal that was already reset;
    // the plain register misses it.
    let event = EventSignal::new(BoundedAbaRegister::new(2));
    let mut signaler = event.signaler(0);
    let mut waiter = event.waiter(1);
    for _ in 0..50 {
        signaler.signal();
        signaler.reset();
        assert!(waiter.poll(), "ABA-detecting waiter must catch every pulse");
        assert!(!waiter.poll());
    }

    let naive = NaiveEventSignal::new();
    let mut naive_waiter = naive.waiter();
    naive.signal();
    naive.reset();
    assert!(!naive_waiter.poll(), "the naive waiter misses the pulse");
}

#[test]
fn workload_engine_runs_through_the_facade() {
    let config = EngineConfig {
        thread_counts: vec![1, 2],
        ops_per_thread: 200,
        warmup_ops_per_thread: 20,
        repetitions: 1,
        latency_sample_period: 8,
    };
    let scenarios = standard_scenarios();
    let backends = standard_backends();
    let result = run_matrix(&scenarios[..2], &backends[..2], &config);
    assert_eq!(result.cells.len(), 2 * 2 * 2);
    for cell in &result.cells {
        assert_eq!(cell.ops_per_rep, (cell.threads * 200) as u64);
        assert!(cell.ops_per_sec > 0.0);
    }
}

#[test]
fn workload_engine_op_counts_are_reproducible() {
    let config = EngineConfig {
        thread_counts: vec![2],
        ops_per_thread: 300,
        warmup_ops_per_thread: 0,
        repetitions: 2,
        latency_sample_period: 16,
    };
    let scenario = standard_scenarios()[2]; // rmw-storm
    let backends = standard_backends();
    let a = run_cell(scenario, &backends[0], 2, &config);
    let b = run_cell(scenario, &backends[0], 2, &config);
    assert_eq!(a.ops_per_rep, b.ops_per_rep);
}

#[test]
fn event_signal_under_concurrent_pulses() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let event = EventSignal::new(BoundedAbaRegister::new(2));
    let pulses = 500;
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut signaler = event.signaler(0);
            for _ in 0..pulses {
                signaler.signal();
                signaler.reset();
            }
            // ordering: Release publishes the completed pulse train to the
            // waiter's Acquire load; no total order is needed.
            done.store(true, Ordering::Release);
        });
        s.spawn(|| {
            let mut waiter = event.waiter(1);
            let mut observed = 0u32;
            // Poll for the whole pulse train, then once more: the final poll
            // runs after the last write, so it must report the change unless
            // an earlier poll already consumed it.
            // ordering: pairs with the signaler's Release store of `done`.
            while !done.load(Ordering::Acquire) {
                if waiter.poll() {
                    observed += 1;
                }
            }
            if waiter.poll() {
                observed += 1;
            }
            // We cannot observe more change-reports than there were writes,
            // and polling across the whole train must observe at least one.
            assert!(observed >= 1);
            assert!(observed <= 2 * pulses);
        });
    });
}
