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
//!   operation of a victim process took under the simulator's adaptive
//!   adversary, run on the object's simulator twin (the same code, written
//!   once over `aba_core::mem::Mem`).  The observation never exceeds the
//!   design value, and for Figure 3 it reaches it — that is the "shape"
//!   reproduction of experiment E3.
//!
//! The adversary measures `DRead` for the registers and `LL`/`VL` for the
//! LL/SC objects; space is read from the hardware object.

use aba_core::{
    stacks, AbaRegisterObject, AnnounceLlSc, BoundedAbaRegister, CasLlSc, LlScObject, MoirLlSc,
    TaggedAbaRegister,
};
use aba_sim::algorithms::announce::AnnounceSim;
use aba_sim::algorithms::baselines::{MoirSim, TaggedSim};
use aba_sim::algorithms::fig3::Fig3Sim;
use aba_sim::algorithms::fig4::Fig4Sim;
use aba_sim::algorithms::fig5::Fig5Sim;
use aba_sim::{measure_llsc_worst_case, measure_register_worst_case, SimAlgorithm};
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
    /// The worst single-operation step count observed under the adversary.
    pub observed_worst_steps: u64,
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

/// A register row: `hardware`'s name and space, `twin`'s worst `DRead`
/// (victim 1, 8 rounds) under the adversary.
fn register_row(
    hardware: &dyn AbaRegisterObject,
    twin: &dyn SimAlgorithm,
    design_worst_steps: u64,
) -> TradeoffRow {
    TradeoffRow {
        name: hardware.name().to_string(),
        n: hardware.processes(),
        space: hardware.space(),
        design_worst_steps,
        observed_worst_steps: measure_register_worst_case(twin, 1, 8).worst_case,
    }
}

/// An LL/SC row: `hardware`'s name and space, `twin`'s worst `LL`/`VL`
/// (victim 0, 8 rounds) under the adversary.
fn llsc_row(
    hardware: &dyn LlScObject,
    twin: &dyn SimAlgorithm,
    design_worst_steps: u64,
) -> TradeoffRow {
    TradeoffRow {
        name: hardware.name().to_string(),
        n: hardware.processes(),
        space: hardware.space(),
        design_worst_steps,
        observed_worst_steps: measure_llsc_worst_case(twin, 0, 8).worst_case,
    }
}

/// Tradeoff rows for the ABA-detecting register implementations at `n`
/// processes (`n <= 32` because one row stacks Figure 5 on Figure 3).
pub fn register_tradeoff_rows(n: usize) -> Vec<TradeoffRow> {
    assert!((2..=32).contains(&n), "n must be in 2..=32");
    let n64 = n as u64;
    vec![
        register_row(&BoundedAbaRegister::new(n), &Fig4Sim::new(n), 4),
        // DWrite = LL (1 + 2n) + SC (2n); DRead = VL (1) + LL (1 + 2n).
        register_row(&stacks::over_cas(n), &Fig5Sim::over_fig3(n), 4 * n64 + 1),
        // DWrite = LL (3) + SC (2); DRead = VL (1) + LL (3).
        register_row(&stacks::over_announce(n), &Fig5Sim::over_announce(n), 5),
        register_row(&TaggedAbaRegister::new(n), &TaggedSim::new(n), 1),
    ]
}

/// Tradeoff rows for the LL/SC/VL implementations at `n` processes
/// (`n <= 32`).
pub fn llsc_tradeoff_rows(n: usize) -> Vec<TradeoffRow> {
    assert!((2..=32).contains(&n), "n must be in 2..=32");
    vec![
        llsc_row(&CasLlSc::new(n), &Fig3Sim::new(n), 2 * n as u64 + 1),
        llsc_row(&AnnounceLlSc::new(n), &AnnounceSim::new(n), 3),
        llsc_row(&MoirLlSc::new(n), &MoirSim::new(n), 1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_register_row_satisfies_the_bound() {
        for n in [2usize, 4, 8] {
            for row in register_tradeoff_rows(n) {
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
            for row in llsc_tradeoff_rows(n) {
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
        let small = llsc_tradeoff_rows(3);
        let large = llsc_tradeoff_rows(12);
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
        let rows = register_tradeoff_rows(8);
        let fig4 = &rows[0];
        assert_eq!(fig4.design_worst_steps, 4);
        assert_eq!(fig4.observed_worst_steps, 4);
        assert_eq!(fig4.space.registers, 9);
        // (n+1)·4 is within a constant factor of n-1.
        assert!(fig4.product() <= 8 * fig4.bound());
    }

    #[test]
    fn unbounded_rows_are_exempt() {
        let rows = register_tradeoff_rows(4);
        let tagged = rows.iter().find(|r| r.name.contains("tagged")).unwrap();
        assert!(!tagged.space.bounded);
        assert!(tagged.satisfies_bound());
    }

    #[test]
    fn announce_llsc_is_the_other_optimal_corner() {
        // 1 CAS + n registers with O(1) steps: product Θ(n), like Figure 3
        // but with the factors swapped — both corners of the tradeoff.
        let rows = llsc_tradeoff_rows(16);
        let announce = rows.iter().find(|r| r.name.contains("Announce")).unwrap();
        assert_eq!(announce.space.total_objects(), 17);
        assert_eq!(announce.design_worst_steps, 3);
        assert!(announce.product() >= announce.bound());
        assert!(announce.product() <= 4 * announce.bound());
    }
}
