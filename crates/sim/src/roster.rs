//! The model roster: every simulated model the exhaustive explorer is run
//! against (experiment E11), with the bound it is certified at.
//!
//! `table_dpor` explores each row, the footprint audit
//! ([`crate::audit::standard_family_audits`]) audits the protected ones, and
//! the family-level exploration tests iterate it — so a new model is one row
//! here.  The `stack/*`, `queue/*` and `set/*` rows run `aba-lockfree`'s own
//! code on the generic [`ShippedSim`](crate::algorithms::ShippedSim), and
//! their keys are keys of `aba_lockfree::Family`'s table: the row claims to
//! model that backend, and `tests/model_binding.rs` holds it to the claim.
//! A family's rows share one bound, where the unprotected row has a witness.

use crate::algorithm::SimAlgorithm;
use crate::algorithms::baselines::{NaiveSim, TaggedSim};
use crate::algorithms::queue::QueueSim;
use crate::algorithms::set::SetSim;
use crate::algorithms::stack::StackSim;
use crate::explore::SimWorkload;

/// One roster row: a simulated model at its E11 bound.
#[derive(Debug, Clone, Copy)]
pub struct SimModel {
    /// Algorithm family (`register` / `queue` / `set` / `stack`).
    pub family: &'static str,
    /// Protection mode; `family/mode` keys the row in `BENCH_dpor.json` and
    /// `BENCH_lint.json`.
    pub mode: &'static str,
    /// `true` iff the mode must survive its complete schedule space (an
    /// unprotected mode must instead yield a witness).
    pub protected: bool,
    /// The bound, as the tables print it.
    pub bound: &'static str,
    /// The bounded workload explored.
    pub workload: SimWorkload,
    /// Build the model at the bound's process count and arena size.
    pub build: fn() -> Box<dyn SimAlgorithm>,
}

impl SimModel {
    /// The row's `family/mode` key.
    pub fn key(&self) -> String {
        format!("{}/{}", self.family, self.mode)
    }
}

const REGISTER: (&str, SimWorkload) = (
    "n=3, writes=4, reads=2",
    SimWorkload::Register {
        writes: 4,
        reads: 2,
    },
);
const QUEUE: (&str, SimWorkload) = (
    "n=3, enq=2, deq=3, arena=2",
    SimWorkload::Queue {
        enqueues: 2,
        dequeues: 3,
    },
);
const SET: (&str, SimWorkload) = ("n=2, rounds=1, arena=3", SimWorkload::Set { rounds: 1 });
const STACK: (&str, SimWorkload) = ("n=2, calls=4, arena=2", SimWorkload::Stack { calls: 4 });

/// One roster line per model: `family, mode, protected, bound => model;`.
macro_rules! roster {
    ($($family:literal, $mode:literal, $protected:literal, $bound:ident => $model:expr;)*) => {
        [$(SimModel {
            family: $family,
            mode: $mode,
            protected: $protected,
            bound: $bound.0,
            workload: $bound.1,
            build: || Box::new($model),
        }),*]
    };
}

/// The twelve E11 rows, in `BENCH_dpor.json` order.
pub static MODEL_ROSTER: [SimModel; 12] = roster! {
    "register", "naive", false, REGISTER => NaiveSim::new(3);
    "register", "tagged", true, REGISTER => TaggedSim::new(3);
    "queue", "unprotected", false, QUEUE => QueueSim::unprotected(3, 2);
    "queue", "tagged", true, QUEUE => QueueSim::tagged(3, 2);
    "queue", "epoch", true, QUEUE => QueueSim::epoch(3, 2);
    "set", "unprotected", false, SET => SetSim::unprotected(2, 3);
    "set", "tagged", true, SET => SetSim::tagged(2, 3);
    "set", "hazard", true, SET => SetSim::hazard(2, 3);
    "set", "epoch", true, SET => SetSim::epoch(2, 3);
    "stack", "unprotected", false, STACK => StackSim::unprotected(2, 2);
    "stack", "tagged", true, STACK => StackSim::tagged(2, 2);
    "queue", "hazard", true, QUEUE => QueueSim::hazard(3, 2);
};
