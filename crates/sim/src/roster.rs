//! The model roster: every simulated model the exhaustive explorer is run
//! against (experiment E11), with the bound it is certified at.
//!
//! `table_dpor` explores each row, the footprint audit
//! ([`crate::audit::standard_family_audits`]) audits the protected ones, and
//! the family-level exploration tests iterate it.  Two rows are the paper's
//! registers; every other row is derived: one per `aba_lockfree::Family ×
//! Scheme` cell that [`shipped_model`] encodes, so each runs that backend's
//! own code on the generic [`ShippedSim`](crate::algorithms::ShippedSim) and
//! is keyed by the cell's key.  A new structure is a `ShippedCode` impl
//! joined to `shipped_model` and a bound here; its rows follow.  A family's
//! rows share one bound, where the unprotected row has a witness.

use std::sync::LazyLock;

use aba_lockfree::Family;
use aba_reclaim::Scheme;

use crate::algorithm::SimAlgorithm;
use crate::algorithms::baselines::{NaiveSim, TaggedSim};
use crate::algorithms::shipped_model;
use crate::explore::SimWorkload;

/// One roster row: a simulated model at its E11 bound.
#[derive(Debug, Clone, Copy)]
pub struct SimModel {
    /// Algorithm family (`register` / `stack` / `queue` / `set`).
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
    n: usize,
    arena: usize,
    build: Build,
}

/// The model of a row: one of the paper's registers, or the shipped code
/// of a hardware cell.
#[derive(Debug, Clone, Copy)]
enum Build {
    Naive,
    Tagged,
    Cell(Family, Scheme),
}

impl SimModel {
    /// The row's `family/mode` key.
    pub fn key(&self) -> String {
        format!("{}/{}", self.family, self.mode)
    }

    /// Build the model at the bound's process count and arena size.
    pub fn build(&self) -> Box<dyn SimAlgorithm> {
        match self.build {
            Build::Naive => Box::new(NaiveSim::new(self.n)),
            Build::Tagged => Box::new(TaggedSim::new(self.n)),
            Build::Cell(family, scheme) => shipped_model(family, scheme, self.n, self.arena)
                .expect("a roster cell is one the simulator encodes"),
        }
    }
}

/// A family's one E11 bound: the text the tables print, the workload, and
/// the process count and arena size its models are built at.
type Bound = (&'static str, SimWorkload, usize, usize);

const REGISTER: Bound = (
    "n=3, writes=4, reads=2",
    SimWorkload::Register {
        writes: 4,
        reads: 2,
    },
    3,
    0, // a register has no arena
);
const STACK: Bound = (
    "n=2, calls=4, arena=2",
    SimWorkload::Stack { calls: 4 },
    2,
    2,
);
const QUEUE: Bound = (
    "n=3, enq=2, deq=3, arena=2",
    SimWorkload::Queue {
        enqueues: 2,
        dequeues: 3,
    },
    3,
    2,
);
const SET: Bound = (
    "n=2, rounds=1, arena=3",
    SimWorkload::Set { rounds: 1 },
    2,
    3,
);

/// The bound of a family's rows; `None` for a family without a model.
fn bound(family: Family) -> Option<Bound> {
    match family {
        Family::Stack => Some(STACK),
        Family::Queue => Some(QUEUE),
        Family::Set => Some(SET),
        Family::ElimStack | Family::Map => None,
    }
}

fn row(key: &'static str, (bound, workload, n, arena): Bound, build: Build) -> SimModel {
    let (family, mode) = key.split_once('/').expect("a key is family/mode");
    let protected = !matches!(build, Build::Naive | Build::Cell(_, Scheme::Unprotected));
    SimModel {
        family,
        mode,
        protected,
        bound,
        workload,
        n,
        arena,
        build,
    }
}

/// The E11 rows, in `BENCH_dpor.json` order: the two registers, then every
/// `Family × Scheme` cell with a model, in roster order.
pub static MODEL_ROSTER: LazyLock<Vec<SimModel>> = LazyLock::new(|| {
    let mut rows = vec![
        row("register/naive", REGISTER, Build::Naive),
        row("register/tagged", REGISTER, Build::Tagged),
    ];
    for family in Family::ALL {
        let Some(bound @ (_, _, n, arena)) = bound(family) else {
            continue;
        };
        for scheme in Scheme::ALL {
            if shipped_model(family, scheme, n, arena).is_some() {
                rows.push(row(family.key(scheme), bound, Build::Cell(family, scheme)));
            }
        }
    }
    rows
});
