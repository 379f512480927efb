//! An adapter defined outside the crate implements only `read`, `write` and
//! `rmw` — as the benchmark's register adapter does — and leaves
//! `WorkloadOps::run` to its provided body.  Through `run_cell`, that body
//! must issue every op of every round and read the space gauge once per
//! sampled op (the engine reads it right after each latency sample).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aba_workload::{
    run_cell, standard_scenarios, BackendSpec, EngineConfig, Workload, WorkloadOps,
};

/// What every instance a spec builds has been asked to do, summed over the
/// cell's warmup and timed rounds.
#[derive(Default)]
struct Counts {
    ops: AtomicU64,
    gauge_reads: AtomicU64,
}

struct Counting {
    threads: usize,
    counts: Arc<Counts>,
}

struct CountingOps<'a>(&'a Counts);

impl Workload for Counting {
    fn threads(&self) -> usize {
        self.threads
    }

    fn worker(&self, tid: usize) -> Box<dyn WorkloadOps + '_> {
        assert!(tid < self.threads, "tid {tid} out of range");
        Box::new(CountingOps(&self.counts))
    }

    /// The running count of gauge reads, so the cell's `peak_unreclaimed`
    /// is the total.
    fn unreclaimed(&self) -> u64 {
        self.counts.gauge_reads.fetch_add(1, Ordering::SeqCst) + 1
    }
}

impl WorkloadOps for CountingOps<'_> {
    fn read(&mut self) {
        self.0.ops.fetch_add(1, Ordering::SeqCst);
    }

    fn write(&mut self, _value: u32) {
        self.0.ops.fetch_add(1, Ordering::SeqCst);
    }

    fn rmw(&mut self, _value: u32) {
        self.0.ops.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn an_adapter_that_keeps_the_provided_run_is_driven_op_by_op() {
    let config = EngineConfig {
        thread_counts: vec![1, 3],
        ops_per_thread: 100,
        warmup_ops_per_thread: 10,
        repetitions: 2,
        latency_sample_period: 7,
    };
    for &threads in &config.thread_counts {
        let counts = Arc::new(Counts::default());
        let shared = Arc::clone(&counts);
        let spec = BackendSpec::new("external/counting", move |threads| {
            Box::new(Counting {
                threads,
                counts: Arc::clone(&shared),
            })
        });
        let cell = run_cell(standard_scenarios()[0], &spec, threads, &config);

        let ops = config.ops_per_thread;
        let period = config.latency_sample_period;
        assert_eq!(cell.ops_per_rep, (threads * ops) as u64);
        let issued = threads * (config.warmup_ops_per_thread + config.repetitions * ops);
        assert_eq!(counts.ops.load(Ordering::SeqCst), issued as u64);

        // Worker `tid` samples indices `tid % period`, then every
        // `period`-th; the warmup round samples nothing.
        let per_round: usize = (0..threads)
            .map(|tid| (tid % period..ops).step_by(period).count())
            .sum();
        let samples = (config.repetitions * per_round) as u64;
        assert_eq!(counts.gauge_reads.load(Ordering::SeqCst), samples);
        assert_eq!(cell.peak_unreclaimed, samples);
    }
}
