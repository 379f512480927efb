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
use aba_sim::algorithms::announce::AnnounceSim;
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

/// `cell(n)` up to [`SIM_MAX_N`], nothing beyond.
fn up_to_sim_max(n: usize, cell: impl FnOnce() -> u64) -> Option<u64> {
    (n <= SIM_MAX_N).then(cell)
}

/// A simulator cell: the count, or a dash beyond [`SIM_MAX_N`].
fn or_dash(cell: Option<u64>) -> String {
    cell.map_or("-".to_string(), |steps| steps.to_string())
}

/// One row of the E1/E4 table.
struct RegisterRow {
    n: usize,
    dwrite_steps: u64,
    dwrite_ns: f64,
    dread_adversary: Option<u64>,
    over_cas_dread: Option<u64>,
    over_announce_dread: u64,
}

/// One row of the E2 table.
struct LlScRow {
    n: usize,
    fig3_adversary: Option<u64>,
    announce_adversary: Option<u64>,
    announce_steps: u64,
    announce_ns: f64,
    moir_steps: u64,
}

/// A fresh reader's first `DRead` on `reg`: its `VL` holds, so this is the
/// quiet path's step count.
fn first_dread_steps(reg: &dyn AbaRegisterObject) -> u64 {
    let mut h = reg.handle(1);
    let _ = h.dread();
    h.last_op_steps()
}

fn register_row(n: usize) -> RegisterRow {
    let fig4 = BoundedAbaRegister::new(n);
    let mut w = fig4.handle(0);
    w.dwrite(1);
    RegisterRow {
        n,
        dwrite_steps: w.last_op_steps(),
        dwrite_ns: min_ns_per_op(|v| w.dwrite(v)),
        dread_adversary: up_to_sim_max(n, || {
            measure_register_worst_case(&Fig4Sim::new(n), 1, 8).worst_case
        }),
        over_cas_dread: up_to_sim_max(n, || first_dread_steps(&stacks::over_cas(n))),
        over_announce_dread: first_dread_steps(&stacks::over_announce(n)),
    }
}

fn llsc_row(n: usize) -> LlScRow {
    let announce = AnnounceLlSc::new(n);
    let mut h = announce.handle(0);
    h.ll();
    let announce_steps = h.last_op_steps();
    let announce_ns = min_ns_per_op(|v| {
        black_box(h.ll());
        black_box(h.sc(v));
    });
    let moir = aba_core::MoirLlSc::new(n);
    let mut h = LlScObject::handle(&moir, 0);
    h.ll();
    LlScRow {
        n,
        fig3_adversary: up_to_sim_max(n, || {
            measure_llsc_worst_case(&Fig3Sim::new(n), 0, 8).worst_case
        }),
        announce_adversary: up_to_sim_max(n, || {
            measure_llsc_worst_case(&AnnounceSim::new(n), 0, 8).worst_case
        }),
        announce_steps,
        announce_ns,
        moir_steps: h.last_op_steps(),
    }
}

fn main() {
    aba_bench::Args::from_env(""); // takes no flags: anything given is a mistake

    // --- ABA-detecting registers (E1, E4) -------------------------------
    let reg_rows: Vec<RegisterRow> = NS.iter().map(|&n| register_row(n)).collect();
    let reg_table = Table::of(
        "E1/E4: ABA-detecting register step complexity vs n (worst case observed under the simulator adversary / sequential hardware count) and Figure 4 DWrite wall clock",
        &reg_rows,
        &[
            ("n", &|r| r.n.to_string()),
            ("Figure 4 DWrite", &|r| r.dwrite_steps.to_string()),
            ("Figure 4 DWrite ns (hw)", &|r| format!("{:.1}", r.dwrite_ns)),
            ("Figure 4 DRead", &|r| or_dash(r.dread_adversary)),
            ("Fig.5/Fig.3 DRead (hw)", &|r| or_dash(r.over_cas_dread)),
            ("Fig.5/Announce DRead (hw)", &|r| r.over_announce_dread.to_string()),
        ],
    );
    println!("{}", reg_table.render());
    println!("Expected shape: the Figure 4 columns are constant in n (Theorem 3), the nanoseconds as much as the steps; the Figure 5 stacks add at most a constant number of LL/SC/VL operations (Theorem 4).\n");

    // --- LL/SC/VL (E2) ---------------------------------------------------
    let llsc_rows: Vec<LlScRow> = NS.iter().map(|&n| llsc_row(n)).collect();
    let llsc_table = Table::of(
        "E2: LL/SC/VL worst-case LL step count vs n (simulator adversary) and announce LL+SC wall clock",
        &llsc_rows,
        &[
            ("n", &|r| r.n.to_string()),
            ("Figure 3 (1 CAS)", &|r| or_dash(r.fig3_adversary)),
            ("design bound 2n+1", &|r| (2 * r.n + 1).to_string()),
            ("Announce LL (sim adversary)", &|r| or_dash(r.announce_adversary)),
            ("Announce (1 CAS + n regs)", &|r| r.announce_steps.to_string()),
            ("Announce LL+SC ns (hw)", &|r| format!("{:.1}", r.announce_ns)),
            ("Moir (unbounded)", &|r| r.moir_steps.to_string()),
        ],
    );
    println!("{}", llsc_table.render());
    println!("Expected shape: the Figure 3 column grows linearly with n and stays within its 2n+1 design bound (Theorem 2); the other columns are constant — the announce LL under the same adversary included.");

    let dwrite_ns: Vec<(usize, f64)> = reg_rows.iter().map(|r| (r.n, r.dwrite_ns)).collect();
    let llsc_ns: Vec<(usize, f64)> = llsc_rows.iter().map(|r| (r.n, r.announce_ns)).collect();
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
