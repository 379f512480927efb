//! Experiment E1/E2/E4: step complexity of every implementation as a
//! function of n, and — for the two objects built on `GetSeq` — the wall
//! clock next to it.
//!
//! Reproduces the paper's claims that Figure 4's operations take O(1) steps
//! (Theorem 3), Figure 3's take Θ(n) steps in the worst case (Theorem 2), and
//! Figure 5 adds only a constant number of LL/SC/VL operations (Theorem 4).
//! A step count cannot see local work, so the Figure 4 `DWrite` and the
//! announce-based `LL`+`SC` are also timed on this machine at every n, and
//! `aba_bench::gate::scaling` fails the run if either grows with n.
//!
//! Run with `cargo run -p aba-bench --bin table_step_complexity --release`.

use std::hint::black_box;
use std::time::Instant;

use aba_bench::{exit_on_failures, gate, Table};
use aba_core::{
    stacks, AbaHandle, AbaRegisterObject, AnnounceLlSc, BoundedAbaRegister, LlScHandle, LlScObject,
};
use aba_sim::algorithms::fig3::Fig3Sim;
use aba_sim::algorithms::fig4::Fig4Sim;
use aba_sim::{measure_llsc_worst_case, measure_register_worst_case};

/// The process counts of every row.
const NS: [usize; 7] = [2, 4, 8, 16, 32, 128, 512];

/// Figure 3's 32-bit mask ends here, and so do the simulator-adversary
/// searches (their cost grows with n; the claims they check are about
/// steps, which the hardware columns count at every n anyway).
const SIM_MAX_N: usize = 32;

/// Nanoseconds per call of `op`: the fastest of seven timed batches after an
/// untimed one (which also fills `usedQ`'s n+1 window), so that a batch the
/// scheduler interrupted does not count.
fn min_ns_per_op(mut op: impl FnMut(u32)) -> f64 {
    const OPS: u32 = 10_000;
    let mut batch = || {
        let start = Instant::now();
        for v in 0..OPS {
            op(black_box(v));
        }
        start.elapsed().as_nanos() as f64 / f64::from(OPS)
    };
    batch();
    (0..7).map(|_| batch()).fold(f64::INFINITY, f64::min)
}

/// `cell(n)` up to [`SIM_MAX_N`], a dash beyond.
fn up_to_sim_max(n: usize, cell: impl FnOnce() -> u64) -> String {
    if n <= SIM_MAX_N {
        cell().to_string()
    } else {
        "-".to_string()
    }
}

fn main() {
    aba_bench::Args::from_env(""); // takes no flags: anything given is a mistake

    // --- ABA-detecting registers (E1, E4) -------------------------------
    let mut reg_table = Table::new(
        "E1/E4: ABA-detecting register step complexity vs n (worst case observed under the simulator adversary / sequential hardware count) and Figure 4 DWrite wall clock",
        &["n", "Figure 4 DWrite", "Figure 4 DWrite ns (hw)", "Figure 4 DRead", "Fig.5/Fig.3 DRead (hw)", "Fig.5/Announce DRead (hw)"],
    );
    let mut dwrite_ns = Vec::new();
    for &n in &NS {
        let fig4 = BoundedAbaRegister::new(n);
        let mut w = fig4.handle(0);
        w.dwrite(1);
        let dwrite_steps = w.last_op_steps();
        let ns = min_ns_per_op(|v| w.dwrite(v));
        dwrite_ns.push((n, ns));

        let over_announce = stacks::over_announce(n);
        let mut h = AbaRegisterObject::handle(&over_announce, 1);
        let _ = h.dread();
        let over_announce_steps = h.last_op_steps();

        reg_table.row(&[
            n.to_string(),
            dwrite_steps.to_string(),
            format!("{ns:.1}"),
            up_to_sim_max(n, || {
                measure_register_worst_case(&Fig4Sim::new(n), 1, 8).worst_case
            }),
            up_to_sim_max(n, || {
                let over_cas = stacks::over_cas(n);
                let mut h = AbaRegisterObject::handle(&over_cas, 1);
                let _ = h.dread();
                h.last_op_steps()
            }),
            over_announce_steps.to_string(),
        ]);
    }
    println!("{}", reg_table.render());
    println!("Expected shape: the Figure 4 columns are constant in n (Theorem 3), the nanoseconds as much as the steps; the Figure 5 stacks add at most a constant number of LL/SC/VL operations (Theorem 4).\n");

    // --- LL/SC/VL (E2) ---------------------------------------------------
    let mut llsc_table = Table::new(
        "E2: LL/SC/VL worst-case LL step count vs n (simulator adversary) and announce LL+SC wall clock",
        &[
            "n",
            "Figure 3 (1 CAS)",
            "design bound 2n+1",
            "Announce (1 CAS + n regs)",
            "Announce LL+SC ns (hw)",
            "Moir (unbounded)",
        ],
    );
    let mut llsc_ns = Vec::new();
    for &n in &NS {
        let announce = AnnounceLlSc::new(n);
        let mut h = announce.handle(0);
        h.ll();
        let announce_steps = h.last_op_steps();
        let ns = min_ns_per_op(|v| {
            black_box(h.ll());
            black_box(h.sc(v));
        });
        llsc_ns.push((n, ns));
        let moir = aba_core::MoirLlSc::new(n);
        let mut h = LlScObject::handle(&moir, 0);
        h.ll();
        let moir_steps = h.last_op_steps();
        llsc_table.row(&[
            n.to_string(),
            up_to_sim_max(n, || {
                measure_llsc_worst_case(&Fig3Sim::new(n), 0, 8).worst_case
            }),
            (2 * n + 1).to_string(),
            announce_steps.to_string(),
            format!("{ns:.1}"),
            moir_steps.to_string(),
        ]);
    }
    println!("{}", llsc_table.render());
    println!("Expected shape: the Figure 3 column grows linearly with n and stays within its 2n+1 design bound (Theorem 2); the other columns are constant.");

    println!();
    let mut failures = Vec::new();
    for (object, ns_by_n) in [
        ("Figure 4 DWrite", &dwrite_ns),
        ("Announce LL+SC", &llsc_ns),
    ] {
        // Printed on a pass too: a drift towards the bound shows in the CI
        // log before it fails the step.
        let ((small, base), (large, ns)) = (ns_by_n[0], ns_by_n[NS.len() - 1]);
        println!(
            "{object}: n={large} costs {:.2}x n={small} (scaling gate bound {}x)",
            ns / base,
            gate::SCALING_BOUND
        );
        failures.extend(gate::scaling(object, ns_by_n));
    }
    exit_on_failures("scaling", &failures);
}
