//! Time–space tradeoff accounting (Theorem 1 (b)/(c), Corollary 1).
//!
//! For every implementation we assemble the `(m, t)` point — number of
//! bounded base objects versus worst-case step complexity — and compare the
//! product against the paper's bound:
//!
//! * `m·t ≥ n − 1` for implementations from bounded registers and CAS
//!   objects;
//! * `2·m·t ≥ n − 1` when writable CAS objects are used;
//! * no bound applies to implementations using unbounded objects.
//!
//! The bound constrains the *designed* worst-case step complexity `t` of the
//! implementation (a static property of the algorithm).  Each row therefore
//! carries two step numbers:
//!
//! * `design_worst_steps` — the algorithm's worst case (e.g. `2n + 1` for
//!   Figure 3's `LL`, `4` for Figure 4's `DRead`), which is what the bound is
//!   checked against; and
//! * `observed_worst_steps` — the largest number of steps any single
//!   operation actually took, either under the simulator's adaptive adversary
//!   or under a multi-threaded hardware contention stress.  The observation
//!   never exceeds the design value, and for Figure 3 it approaches it as the
//!   adversary gets stronger — that is the "shape" reproduction of
//!   experiment E3.

use aba_core::{
    stacks, AbaRegisterObject, AnnounceLlSc, BoundedAbaRegister, CasLlSc, LlScObject, MoirLlSc,
    TaggedAbaRegister,
};
use aba_sim::algorithms::fig3::Fig3Sim;
use aba_sim::algorithms::fig4::Fig4Sim;
use aba_sim::{measure_llsc_worst_case, measure_register_worst_case};
use aba_spec::SpaceUsage;

/// One `(implementation, n)` point of the tradeoff table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TradeoffRow {
    /// Implementation name.
    pub name: String,
    /// Number of processes.
    pub n: usize,
    /// Base-object accounting.
    pub space: SpaceUsage,
    /// The algorithm's designed worst-case step complexity (per operation).
    pub design_worst_steps: u64,
    /// The worst single-operation step count actually observed.
    pub observed_worst_steps: u64,
    /// How the observation was made ("simulator adversary" or "hardware
    /// contention stress").
    pub source: &'static str,
}

impl TradeoffRow {
    /// The left-hand side of the applicable bound (`m·t` or `2·m·t`), using
    /// the designed worst case.
    pub fn product(&self) -> u64 {
        self.space.time_space_product(self.design_worst_steps)
    }

    /// The right-hand side of the bound, `n − 1`.
    pub fn bound(&self) -> u64 {
        (self.n as u64).saturating_sub(1)
    }

    /// Whether the designed point satisfies the bound (always true for
    /// correct implementations; unbounded ones are exempt and report true).
    pub fn satisfies_bound(&self) -> bool {
        self.space
            .satisfies_tradeoff(self.design_worst_steps, self.n)
    }

    /// Whether the observation is consistent with the design (never more
    /// steps than the designed worst case).
    pub fn observation_within_design(&self) -> bool {
        self.observed_worst_steps <= self.design_worst_steps
    }
}

/// Run `threads` processes for `ops` rounds each and return the most steps
/// any single operation took: `process(pid)` is process `pid`'s op script,
/// which runs round `i` and returns that round's worst.
fn stress_worst_case<F: FnMut(usize) -> u64>(
    threads: usize,
    ops: usize,
    process: impl Fn(usize) -> F + Sync,
) -> u64 {
    let process = &process;
    std::thread::scope(|s| {
        let joins: Vec<_> = (0..threads)
            .map(|pid| s.spawn(move || (0..ops).map(process(pid)).fold(0, u64::max)))
            .collect();
        let worst = joins
            .into_iter()
            .map(|j| j.join().expect("stress thread panicked"));
        worst.fold(0, u64::max)
    })
}

/// Stress an ABA register: even processes `DWrite`, odd ones `DRead`.
fn stress_register_worst_case(reg: &dyn AbaRegisterObject, threads: usize, ops: usize) -> u64 {
    stress_worst_case(threads, ops, |pid| {
        let mut h = reg.handle(pid);
        move |i| {
            if pid % 2 == 0 {
                h.dwrite((i % 3) as u32);
            } else {
                let _ = h.dread();
            }
            h.last_op_steps()
        }
    })
}

/// Stress an LL/SC object: every process runs `LL`, `SC`, `VL`.
fn stress_llsc_worst_case(obj: &dyn LlScObject, threads: usize, ops: usize) -> u64 {
    stress_worst_case(threads, ops, |pid| {
        let mut h = obj.handle(pid);
        move |i| {
            h.ll();
            let ll = h.last_op_steps();
            let _ = h.sc((i % 5) as u32);
            let sc = h.last_op_steps();
            let _ = h.vl();
            ll.max(sc).max(h.last_op_steps())
        }
    })
}

fn hw_threads(n: usize) -> usize {
    n.min(std::thread::available_parallelism().map_or(4, |p| p.get()))
        .max(2)
        .min(n)
}

/// Tradeoff rows for the ABA-detecting register implementations at `n`
/// processes (`n <= 32` because one row stacks Figure 5 on Figure 3).
pub fn register_tradeoff_rows(n: usize, ops_per_thread: usize) -> Vec<TradeoffRow> {
    assert!((2..=32).contains(&n), "n must be in 2..=32");
    let n64 = n as u64;
    let threads = hw_threads(n);
    let mut rows = Vec::new();

    // Figure 4, observed under the simulator's adaptive adversary.
    let fig4 = Fig4Sim::new(n);
    let sim_stats = measure_register_worst_case(&fig4, 1, 8);
    rows.push(TradeoffRow {
        name: "Figure 4 (n+1 registers, adversary)".to_string(),
        n,
        space: AbaRegisterObject::space(&BoundedAbaRegister::new(n)),
        design_worst_steps: 4,
        observed_worst_steps: sim_stats.worst_case,
        source: "simulator adversary",
    });

    // Hardware implementations under contention stress.
    let fig4_hw = BoundedAbaRegister::new(n);
    rows.push(TradeoffRow {
        name: "Figure 4 (hardware)".to_string(),
        n,
        space: AbaRegisterObject::space(&fig4_hw),
        design_worst_steps: 4,
        observed_worst_steps: stress_register_worst_case(&fig4_hw, threads, ops_per_thread),
        source: "hardware contention stress",
    });

    let over_cas = stacks::over_cas(n);
    rows.push(TradeoffRow {
        name: AbaRegisterObject::name(&over_cas).to_string(),
        n,
        space: AbaRegisterObject::space(&over_cas),
        // DWrite = LL (1 + 2n) + SC (2n); DRead = VL (1) + LL (1 + 2n).
        design_worst_steps: 4 * n64 + 1,
        observed_worst_steps: stress_register_worst_case(&over_cas, threads, ops_per_thread),
        source: "hardware contention stress",
    });

    let over_announce = stacks::over_announce(n);
    rows.push(TradeoffRow {
        name: AbaRegisterObject::name(&over_announce).to_string(),
        n,
        space: AbaRegisterObject::space(&over_announce),
        // DWrite = LL (3) + SC (2); DRead = VL (1) + LL (3).
        design_worst_steps: 5,
        observed_worst_steps: stress_register_worst_case(&over_announce, threads, ops_per_thread),
        source: "hardware contention stress",
    });

    let tagged = TaggedAbaRegister::new(n);
    rows.push(TradeoffRow {
        name: AbaRegisterObject::name(&tagged).to_string(),
        n,
        space: AbaRegisterObject::space(&tagged),
        design_worst_steps: 2,
        observed_worst_steps: stress_register_worst_case(&tagged, threads, ops_per_thread),
        source: "hardware contention stress",
    });

    rows
}

/// Tradeoff rows for the LL/SC/VL implementations at `n` processes
/// (`n <= 32`).
pub fn llsc_tradeoff_rows(n: usize, ops_per_thread: usize) -> Vec<TradeoffRow> {
    assert!((2..=32).contains(&n), "n must be in 2..=32");
    let n64 = n as u64;
    let threads = hw_threads(n);
    let mut rows = Vec::new();

    // Figure 3 under the simulator's adaptive adversary (worst case Θ(n)).
    let fig3 = Fig3Sim::new(n);
    let sim_stats = measure_llsc_worst_case(&fig3, 0, 8);
    rows.push(TradeoffRow {
        name: "Figure 3 (1 CAS, adversary)".to_string(),
        n,
        space: LlScObject::space(&CasLlSc::new(n)),
        design_worst_steps: 2 * n64 + 1,
        observed_worst_steps: sim_stats.worst_case,
        source: "simulator adversary",
    });

    let cas = CasLlSc::new(n);
    rows.push(TradeoffRow {
        name: LlScObject::name(&cas).to_string(),
        n,
        space: LlScObject::space(&cas),
        design_worst_steps: 2 * n64 + 1,
        observed_worst_steps: stress_llsc_worst_case(&cas, threads, ops_per_thread),
        source: "hardware contention stress",
    });

    let announce = AnnounceLlSc::new(n);
    rows.push(TradeoffRow {
        name: LlScObject::name(&announce).to_string(),
        n,
        space: LlScObject::space(&announce),
        design_worst_steps: 3,
        observed_worst_steps: stress_llsc_worst_case(&announce, threads, ops_per_thread),
        source: "hardware contention stress",
    });

    let moir = MoirLlSc::new(n);
    rows.push(TradeoffRow {
        name: LlScObject::name(&moir).to_string(),
        n,
        space: LlScObject::space(&moir),
        design_worst_steps: 1,
        observed_worst_steps: stress_llsc_worst_case(&moir, threads, ops_per_thread),
        source: "hardware contention stress",
    });

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_register_row_satisfies_the_bound() {
        for n in [2usize, 4, 8] {
            for row in register_tradeoff_rows(n, 200) {
                assert!(
                    row.satisfies_bound(),
                    "{} at n={} violates the bound: m·t = {} < {}",
                    row.name,
                    n,
                    row.product(),
                    row.bound()
                );
                assert!(
                    row.observation_within_design(),
                    "{} at n={}: observed {} > design {}",
                    row.name,
                    n,
                    row.observed_worst_steps,
                    row.design_worst_steps
                );
            }
        }
    }

    #[test]
    fn every_llsc_row_satisfies_the_bound() {
        for n in [2usize, 4, 8] {
            for row in llsc_tradeoff_rows(n, 200) {
                assert!(
                    row.satisfies_bound(),
                    "{} at n={} violates the bound: m·t = {} < {}",
                    row.name,
                    n,
                    row.product(),
                    row.bound()
                );
                assert!(row.observation_within_design(), "{}", row.name);
            }
        }
    }

    #[test]
    fn figure3_observed_worst_case_grows_linearly_under_the_adversary() {
        let small = llsc_tradeoff_rows(3, 50);
        let large = llsc_tradeoff_rows(12, 50);
        let f3_small = &small[0];
        let f3_large = &large[0];
        assert!(f3_small.name.contains("Figure 3"));
        assert!(
            f3_large.observed_worst_steps > f3_small.observed_worst_steps,
            "expected growth: {} vs {}",
            f3_large.observed_worst_steps,
            f3_small.observed_worst_steps
        );
        // The single-CAS implementation's product sits within a small constant
        // of the bound: m = 1, t = 2n + 1.
        assert!(f3_large.product() >= f3_large.bound());
        assert!(f3_large.product() <= 4 * f3_large.bound());
    }

    #[test]
    fn figure4_point_is_constant_time_and_near_optimal() {
        let rows = register_tradeoff_rows(8, 100);
        let fig4 = &rows[0];
        assert_eq!(fig4.design_worst_steps, 4);
        assert_eq!(fig4.observed_worst_steps, 4);
        assert_eq!(fig4.space.registers, 9);
        // (n+1)·4 is within a constant factor of n-1.
        assert!(fig4.product() <= 8 * fig4.bound());
    }

    #[test]
    fn unbounded_rows_are_exempt() {
        let rows = register_tradeoff_rows(4, 50);
        let tagged = rows.iter().find(|r| r.name.contains("tagged")).unwrap();
        assert!(!tagged.space.bounded);
        assert!(tagged.satisfies_bound());
    }

    #[test]
    fn announce_llsc_is_the_other_optimal_corner() {
        // 1 CAS + n registers with O(1) steps: product Θ(n), like Figure 3
        // but with the factors swapped — both corners of the tradeoff.
        let rows = llsc_tradeoff_rows(16, 50);
        let announce = rows.iter().find(|r| r.name.contains("Announce")).unwrap();
        assert_eq!(announce.space.total_objects(), 17);
        assert_eq!(announce.design_worst_steps, 3);
        assert!(announce.product() >= announce.bound());
        assert!(announce.product() <= 4 * announce.bound());
    }
}
