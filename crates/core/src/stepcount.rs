//! Per-handle shared-memory step counting, and a per-thread tally of every
//! shared-memory access the structures make.
//!
//! Every handle in this crate counts the base-object operations (loads,
//! stores, CAS attempts) it performs, so that the step-complexity experiments
//! (E1, E2, E4) can measure the paper's claims directly on the hardware
//! implementations.  The counter is purely local and therefore does not
//! itself count as a shared-memory step.  For the objects written over
//! [`crate::mem::Mem`] the counting is in one place: `Atomics` counts a step
//! per access and `Handle` brackets each call.
//!
//! Above this crate the unit is counted per thread instead: every atomic
//! access that `aba-core`'s `Atomics`, `aba-reclaim` and `aba-lockfree` make
//! is followed by [`plain`] or [`locked`], and [`accesses`] reads the
//! calling thread's totals — the counts `aba-lockfree`'s access golden pins
//! for every structure backend (EXPERIMENTS.md E38).  A *locked* access is
//! one x86-64 lowers to a `lock`-prefixed or `xchg` instruction: a CAS, a
//! swap, a `fetch_*` or a `SeqCst` store; a `Mutex` acquisition counts as
//! one.  Both bumps are compiled only under `debug_assertions`, as a
//! `debug_assert!` is: in a release build they are empty, so no release
//! binary, and no benchmark number, pays for the tally.

/// One thread's shared-memory accesses since it started: every access, and
/// the locked ones among them.  Both are zero in a release build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accesses {
    /// Every counted atomic access, locked or not.
    pub shared: u64,
    /// The locked accesses among them.
    pub locked: u64,
}

impl std::ops::Sub for Accesses {
    type Output = Accesses;

    fn sub(self, earlier: Accesses) -> Accesses {
        Accesses {
            shared: self.shared - earlier.shared,
            locked: self.locked - earlier.locked,
        }
    }
}

thread_local! {
    static TALLY: std::cell::Cell<Accesses> = const {
        std::cell::Cell::new(Accesses { shared: 0, locked: 0 })
    };
}

#[cfg(debug_assertions)]
fn bump(locked: u64) {
    TALLY.with(|t| {
        let a = t.get();
        t.set(Accesses {
            shared: a.shared + 1,
            locked: a.locked + locked,
        });
    });
}

/// Count one unlocked access — a load, or a store weaker than `SeqCst` —
/// that the calling thread has just made.
#[inline(always)]
pub fn plain() {
    #[cfg(debug_assertions)]
    bump(0);
}

/// Count one locked access that the calling thread has just made.
#[inline(always)]
pub fn locked() {
    #[cfg(debug_assertions)]
    bump(1);
}

/// The calling thread's accesses so far; subtract two readings to count a
/// stretch of code.
pub fn accesses() -> Accesses {
    TALLY.with(std::cell::Cell::get)
}

/// A saturating per-handle step counter: total steps over the handle's
/// lifetime, steps of the call in progress, steps of the last completed
/// call.  Not a shared object — purely local bookkeeping, so incrementing
/// it does not count as a shared-memory step itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalSteps {
    total: u64,
    current_op: u64,
    last_op: u64,
}

impl LocalSteps {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark the beginning of a method call.
    #[inline]
    pub fn begin(&mut self) {
        self.current_op = 0;
    }

    /// Record one shared-memory step.
    #[inline]
    pub fn step(&mut self) {
        self.total = self.total.saturating_add(1);
        self.current_op = self.current_op.saturating_add(1);
    }

    /// Mark the end of a method call.
    #[inline]
    pub fn end(&mut self) {
        self.last_op = self.current_op;
    }

    /// Total steps over the handle's lifetime.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Steps taken by the most recently completed method call.
    pub fn last_op(&self) -> u64 {
        self.last_op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapper_delegates_to_step_counter() {
        let mut s = LocalSteps::new();
        assert_eq!(s.total(), 0);
        assert_eq!(s.last_op(), 0);
        s.begin();
        s.step();
        s.step();
        s.step();
        s.end();
        assert_eq!(s.total(), 3);
        assert_eq!(s.last_op(), 3);
        s.begin();
        s.end();
        assert_eq!(s.last_op(), 0);
        assert_eq!(s.total(), 3);
        s.begin();
        s.step();
        s.end();
        assert_eq!(s.last_op(), 1);
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn the_tally_counts_this_thread_only_and_only_in_debug_builds() {
        let before = accesses();
        plain();
        locked();
        locked();
        std::thread::spawn(plain).join().unwrap();
        let counted = if cfg!(debug_assertions) { 1 } else { 0 };
        assert_eq!(
            accesses() - before,
            Accesses {
                shared: 3 * counted,
                locked: 2 * counted
            }
        );
    }
}
