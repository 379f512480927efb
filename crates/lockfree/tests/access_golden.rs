//! Golden for the shared-memory accesses of every structure backend: the
//! paper's unit, counted on the hardware.
//!
//! Each `Family × Scheme` cell runs its family's fixed solo script on a
//! fresh structure, and `aba_core::stepcount` tallies every atomic access
//! the script makes, and the *locked* ones among them (a CAS, a swap, a
//! `fetch_*`, a `SeqCst` store or a lock acquisition).  The totals include
//! whatever the script amortises — magazine refills, hazard scans, epoch
//! advances, bucket initialisation — and are exact, because one thread on a
//! fresh structure takes one path.  An edit that adds a locked instruction
//! to a hot path, or a load to a traversal, moves a cell and fails here
//! with the whole observed table, ready to paste once the change is meant.
//! EXPERIMENTS.md E38 reads the table per operation.
//!
//! The tally exists only under `debug_assertions`, so the golden runs in
//! the debug suite; a release build counts nothing and skips it.

use aba_core::stepcount::{self, Accesses};
use aba_lockfree::{Family, Scheme, Structure};

/// Nodes in every structure's arena (the map's key capacity).
const CAPACITY: usize = 256;
/// Push+pop and enqueue+dequeue pairs in the stack and queue scripts.
const PAIRS: u32 = 64;
/// The keys the set and map scripts insert, look up and remove, in order.
const KEYS: [u32; 16] = [5, 12, 0, 9, 3, 14, 7, 1, 10, 15, 2, 8, 13, 6, 11, 4];

/// `(shared, locked)` accesses per cell, family-major in roster order: the
/// rows are `Family::ALL`, the columns `Scheme::ALL` (unprotected, tagged,
/// hazard, llsc, epoch).
type Table = [[(u64, u64); 5]; 5];

const GOLDEN: Table = [
    // stack: PAIRS × (push, pop)
    [
        (962, 129),
        (770, 129),
        (1166, 263),
        (1154, 257),
        (1307, 263),
    ],
    // stack-elim: PAIRS × (push, pop)
    [
        (834, 129),
        (770, 129),
        (1166, 263),
        (1154, 257),
        (1307, 263),
    ],
    // queue: PAIRS × (enqueue, dequeue)
    [
        (1346, 193),
        (1154, 193),
        (1871, 583),
        (1666, 385),
        (2011, 455),
    ],
    // set: insert, contains, remove over KEYS
    [(1929, 49), (1583, 49), (2052, 455), (1685, 97), (1871, 145)],
    // map: insert, get, remove over KEYS
    [
        (1272, 155),
        (1049, 155),
        (1252, 319),
        (1175, 218),
        (1410, 281),
    ],
];

/// The accesses `script` makes on the calling thread.
fn tally(script: impl FnOnce()) -> (u64, u64) {
    let before = stepcount::accesses();
    script();
    let Accesses { shared, locked } = stepcount::accesses() - before;
    (shared, locked)
}

/// Run `family`'s script on a fresh structure over `scheme`, through one
/// production handle built before the tally starts and dropped after it.
fn observe(family: Family, scheme: Scheme) -> (u64, u64) {
    let cell = family.key(scheme);
    match family.build(scheme, CAPACITY, 1) {
        Structure::Stack(stack) => {
            let mut h = stack.handle(0);
            tally(|| {
                for v in 0..PAIRS {
                    assert!(h.push(v), "{cell}");
                    assert_eq!(h.pop(), Some(v), "{cell}");
                }
            })
        }
        Structure::Queue(queue) => {
            let mut h = queue.handle(0);
            tally(|| {
                for v in 0..PAIRS {
                    assert!(h.enqueue(v), "{cell}");
                    assert_eq!(h.dequeue(), Some(v), "{cell}");
                }
            })
        }
        Structure::Set(set) => {
            let mut h = set.handle(0);
            tally(|| {
                assert!(KEYS.iter().all(|&k| h.insert(k)), "{cell}");
                assert!(KEYS.iter().all(|&k| h.contains(k)), "{cell}");
                assert!(KEYS.iter().all(|&k| h.remove(k)), "{cell}");
            })
        }
        Structure::Map(map) => {
            let mut h = map.handle(0);
            tally(|| {
                assert!(KEYS.iter().all(|&k| h.insert(k, k + 100)), "{cell}");
                assert!(KEYS.iter().all(|&k| h.get(k) == Some(k + 100)), "{cell}");
                assert!(KEYS.iter().all(|&k| h.remove(k)), "{cell}");
            })
        }
    }
}

/// One message per cell where `observed` differs from `golden`, naming the
/// cell; empty when they agree.
fn mismatches(observed: &Table, golden: &Table) -> Vec<String> {
    let mut found = Vec::new();
    for (f, family) in Family::ALL.into_iter().enumerate() {
        for (s, scheme) in Scheme::ALL.into_iter().enumerate() {
            let (seen, pinned) = (observed[f][s], golden[f][s]);
            if seen != pinned {
                found.push(format!(
                    "{}: (shared, locked) = {seen:?}, pinned {pinned:?}",
                    family.key(scheme)
                ));
            }
        }
    }
    found
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the access tally counts only under debug_assertions"
)]
fn every_backend_makes_its_pinned_shared_accesses() {
    let mut observed: Table = [[(0, 0); 5]; 5];
    for (f, family) in Family::ALL.into_iter().enumerate() {
        for (s, scheme) in Scheme::ALL.into_iter().enumerate() {
            observed[f][s] = observe(family, scheme);
        }
    }
    let found = mismatches(&observed, &GOLDEN);
    assert!(
        found.is_empty(),
        "{}\nobserved table (the literal of GOLDEN):\n{observed:?}",
        found.join("\n")
    );
}

/// The paper's unit per fast-path push+pop pair (EXPERIMENTS.md E35): the
/// two head CASes, plus one hazard publish and one clear, one pin and one
/// unpin, or the LL's announce store and the SC's CAS of each operation.
/// Whatever else the stack rows hold is amortised over the script — fewer
/// than one locked access per pair.
#[test]
fn the_stack_rows_hold_the_per_pair_locked_census() {
    let per_pair = [2, 2, 4, 4, 4];
    for family in [0, 1] {
        for (s, scheme) in Scheme::ALL.into_iter().enumerate() {
            let locked = GOLDEN[family][s].1;
            let amortised = locked - per_pair[s] * u64::from(PAIRS);
            assert!(
                amortised < u64::from(PAIRS),
                "{}: {locked} locked accesses",
                Family::ALL[family].key(scheme)
            );
        }
    }
}

#[test]
fn a_corrupted_golden_names_the_cell() {
    let mut corrupted = GOLDEN;
    corrupted[0][2].1 += 1;
    corrupted[4][4].0 -= 1;
    assert_eq!(
        mismatches(&GOLDEN, &corrupted),
        [
            format!(
                "stack/hazard: (shared, locked) = {:?}, pinned {:?}",
                GOLDEN[0][2], corrupted[0][2]
            ),
            format!(
                "map/epoch: (shared, locked) = {:?}, pinned {:?}",
                GOLDEN[4][4], corrupted[4][4]
            ),
        ]
    );
    assert!(mismatches(&GOLDEN, &GOLDEN).is_empty());
}
