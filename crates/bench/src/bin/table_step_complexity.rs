//! Experiment E1/E2/E4: step complexity of every implementation as a
//! function of n.
//!
//! Reproduces the paper's claims that Figure 4's operations take O(1) steps
//! (Theorem 3), Figure 3's take Θ(n) steps in the worst case (Theorem 2), and
//! Figure 5 adds only a constant number of LL/SC/VL operations (Theorem 4).
//!
//! Run with `cargo run -p aba-bench --bin table_step_complexity --release`.

use aba_bench::Table;
use aba_core::{stacks, AbaHandle, AbaRegisterObject, BoundedAbaRegister, LlScObject};
use aba_sim::algorithms::fig3::Fig3Sim;
use aba_sim::algorithms::fig4::Fig4Sim;
use aba_sim::{measure_llsc_worst_case, measure_register_worst_case};

fn main() {
    aba_bench::Args::from_env(""); // takes no flags: anything given is a mistake

    let ns = [2usize, 4, 8, 16, 32];

    // --- ABA-detecting registers (E1, E4) -------------------------------
    let mut reg_table = Table::new(
        "E1/E4: ABA-detecting register step complexity vs n (worst case observed under the simulator adversary / sequential hardware count)",
        &["n", "Figure 4 DWrite", "Figure 4 DRead", "Fig.5/Fig.3 DRead (hw)", "Fig.5/Announce DRead (hw)"],
    );
    for &n in &ns {
        let adv = measure_register_worst_case(&Fig4Sim::new(n), 1, 8);
        let fig4 = BoundedAbaRegister::new(n);
        let mut w = fig4.handle(0);
        w.dwrite(1);
        let dwrite_steps = w.last_op_steps();

        let over_cas = stacks::over_cas(n);
        let mut h = AbaRegisterObject::handle(&over_cas, 1);
        let _ = h.dread();
        let over_cas_steps = h.last_op_steps();

        let over_announce = stacks::over_announce(n);
        let mut h = AbaRegisterObject::handle(&over_announce, 1);
        let _ = h.dread();
        let over_announce_steps = h.last_op_steps();

        reg_table.row(&[
            n.to_string(),
            dwrite_steps.to_string(),
            adv.worst_case.to_string(),
            over_cas_steps.to_string(),
            over_announce_steps.to_string(),
        ]);
    }
    println!("{}", reg_table.render());
    println!("Expected shape: the Figure 4 columns are constant in n (Theorem 3); the Figure 5 stacks add at most a constant number of LL/SC/VL operations (Theorem 4).\n");

    // --- LL/SC/VL (E2) ---------------------------------------------------
    let mut llsc_table = Table::new(
        "E2: LL/SC/VL worst-case LL step count vs n (simulator adversary)",
        &[
            "n",
            "Figure 3 (1 CAS)",
            "design bound 2n+1",
            "Announce (1 CAS + n regs)",
            "Moir (unbounded)",
        ],
    );
    for &n in &ns {
        let fig3 = measure_llsc_worst_case(&Fig3Sim::new(n), 0, 8);
        let announce = aba_core::AnnounceLlSc::new(n);
        let mut h = LlScObject::handle(&announce, 0);
        h.ll();
        let announce_steps = h.last_op_steps();
        let moir = aba_core::MoirLlSc::new(n);
        let mut h = LlScObject::handle(&moir, 0);
        h.ll();
        let moir_steps = h.last_op_steps();
        llsc_table.row(&[
            n.to_string(),
            fig3.worst_case.to_string(),
            (2 * n + 1).to_string(),
            announce_steps.to_string(),
            moir_steps.to_string(),
        ]);
    }
    println!("{}", llsc_table.render());
    println!("Expected shape: the Figure 3 column grows linearly with n and stays within its 2n+1 design bound (Theorem 2); the other columns are constant.");
}
