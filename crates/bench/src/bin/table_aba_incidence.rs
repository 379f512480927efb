//! Experiment E6: ABA incidence and damage in lock-free stacks.
//!
//! Stress-tests the five Treiber-stack variants and reports detected ABA
//! events plus lost/duplicated values (structural corruption).  The
//! unprotected stack exhibits both; the tagged, hazard-pointer, LL/SC and
//! epoch variants conserve every value — and `gate::incidence` fails the run
//! if either half of that sentence stops being true.  The unprotected stack
//! is re-run (each run a table row) until one run shows damage, up to
//! [`VICTIM_RUNS`] times: a run whose workers the host puts on one core
//! recycles in lockstep and harms nothing (`taskset -c 0` shows it).  If no
//! run shows damage the binary asks the host whether it runs two threads at
//! once at all, and where it does not, says so and gates the rest.
//!
//! Run with `cargo run -p aba-bench --bin table_aba_incidence --release`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use aba_bench::{exit_on_failures, gate, Table};
use aba_lockfree::{stack_builders, stress_stack, Scheme};

/// Runs granted to the unprotected stack to show damage (see
/// [`gate::incidence`]), a [`VICTIM_PAUSE`] apart.
const VICTIM_RUNS: usize = 8;

/// Pause after a run of the unprotected stack that showed no damage: the
/// episodes in which the host runs all four workers on one core mostly last
/// a second or two (E22), and a 0.1 s run repeated at once meets the same
/// one.
const VICTIM_PAUSE: Duration = Duration::from_millis(250);

/// Whether the host, right now, runs two busy threads at the same time: two
/// threads spinning a fixed count take about as long as one (`true`) or about
/// twice as long (`false` — one core's worth of CPU, whatever
/// `available_parallelism` says; the reference host spends minutes on end
/// there, E22).
fn host_runs_two_threads_at_once() -> bool {
    fn spin() {
        let mut x = 1u64;
        for i in 0..30_000_000u64 {
            x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
    }
    let start = Instant::now();
    spin();
    let one = start.elapsed();
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(spin);
        s.spawn(spin);
    });
    start.elapsed() * 2 < one * 3
}

fn main() {
    aba_bench::Args::from_env(""); // takes no flags: anything given is a mistake

    let threads = 4;
    let ops = 20_000;
    let capacity = 8 + 2 * threads;

    // `stack_builders` lists one builder per scheme, in roster order.
    let mut rows = Vec::new();
    for (scheme, (_, build)) in Scheme::ALL.into_iter().zip(stack_builders()) {
        let runs = if scheme == Scheme::Unprotected {
            VICTIM_RUNS
        } else {
            1
        };
        for run in 0..runs {
            if run > 0 {
                std::thread::sleep(VICTIM_PAUSE);
            }
            let report = stress_stack(build(capacity, threads).as_ref(), threads, ops);
            let damaged = !report.is_conserved();
            rows.push((scheme, report));
            if damaged {
                break;
            }
        }
    }
    let table = Table::of(
        &format!("E6: ABA incidence, {threads} threads x {ops} ops, arena of {capacity} nodes"),
        &rows,
        &[
            ("stack variant", &|(_, r)| r.structure.clone()),
            ("pushed", &|(_, r)| r.inserted.to_string()),
            ("popped", &|(_, r)| r.removed.to_string()),
            ("remaining", &|(_, r)| r.remaining.to_string()),
            ("ABA events", &|(_, r)| r.aba_events.to_string()),
            ("lost values", &|(_, r)| r.lost.to_string()),
            ("duplicated values", &|(_, r)| r.duplicated.to_string()),
            ("conserved", &|(_, r)| r.is_conserved().to_string()),
        ],
    );
    println!("{}", table.render());
    println!("Expected shape: only the unprotected variant records ABA events or loses/duplicates values; tagging, hazard pointers, the LL/SC head and epochs all conserve every value.");
    // Lockstep runs are what a serial host produces; only ask when it matters.
    let damaged = rows.iter().any(|(_, r)| !r.is_conserved());
    let parallel_host = damaged || host_runs_two_threads_at_once();
    if !parallel_host {
        println!("NOTE: this host is not running two threads at once (two spinning threads took twice as long as one), so its workers recycle in lockstep and no ABA can do damage: the damage half of the gate is not assessed.  Re-run on an idle multi-core host.");
    }
    exit_on_failures("incidence", &gate::incidence(&rows, parallel_host));
}
