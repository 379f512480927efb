//! The *unreclaimed* gauge of the deferred schemes: retired-but-not-freed
//! nodes, counted without a locked instruction.
//!
//! One cell per thread, each alone on its cache line and written only by
//! that `tid`'s guard, so an update is a load and a store of a line the
//! writer already owns — not the `fetch_add` / `fetch_sub` pair on one
//! shared line that every retire and every free used to pay.  A thread that
//! frees what another retired (orphan or quarantine adoption) drives its own
//! cell negative in wrapping arithmetic; the gauge's value is the wrapping
//! sum of the cells, clamped at 0.
//!
//! The sum is exact whenever no retire or free is in flight.  A reader
//! racing the writers sees each cell at a different instant and may be off
//! by the updates in between; no safety decision reads it (frees are decided
//! by hazard scans and epoch stamps), and epoch admission compares it to a
//! budget that carries `2 · threads` of slack and re-reads it after helping
//! (DESIGN.md §9).

use std::sync::atomic::{AtomicU64, Ordering};

use aba_core::{stepcount, CachePadded};

/// The per-thread cells.
#[derive(Debug)]
pub(crate) struct Gauge {
    cells: Box<[CachePadded<AtomicU64>]>,
}

impl Gauge {
    pub(crate) fn new(threads: usize) -> Self {
        Gauge {
            cells: (0..threads)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Thread `tid`'s cell.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not below the thread count the gauge was built for.
    pub(crate) fn cell(&self, tid: usize) -> GaugeCell<'_> {
        assert!(tid < self.cells.len(), "tid {tid} out of range");
        GaugeCell(&self.cells[tid])
    }

    /// The wrapping sum of the cells, clamped at 0.
    #[inline]
    pub(crate) fn sum(&self) -> u64 {
        let sum = self.cells.iter().fold(0u64, |sum, cell| {
            // ordering: a statistic; no decision that frees a node reads it.
            let v = cell.load(Ordering::Relaxed);
            stepcount::plain();
            sum.wrapping_add(v)
        });
        (sum as i64).max(0) as u64
    }

    /// Thread `tid`'s cell as the signed count it stands for.
    #[cfg(test)]
    pub(crate) fn cell_value(&self, tid: usize) -> i64 {
        self.cells[tid].load(Ordering::SeqCst) as i64
    }
}

/// One thread's cell of a [`Gauge`]; every guard of that `tid` writes
/// through one of these, and nothing else writes the cell.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GaugeCell<'a>(&'a AtomicU64);

impl GaugeCell<'_> {
    /// Count `n` more nodes retired.
    #[inline]
    pub(crate) fn add(self, n: u64) {
        // ordering: single writer, so load + store loses no update.
        let v = self.0.load(Ordering::Relaxed);
        stepcount::plain();
        // ordering: a statistic; no decision that frees a node reads it.
        self.0.store(v.wrapping_add(n), Ordering::Relaxed);
        stepcount::plain();
    }

    /// Count `n` nodes handed back to the allocator (possibly ones another
    /// thread's cell counted in: the cell may go negative).
    #[inline]
    pub(crate) fn sub(self, n: u64) {
        self.add(n.wrapping_neg());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_cache_line_padded() {
        let g = Gauge::new(4);
        for pair in g.cells.windows(2) {
            let a = &pair[0] as *const _ as usize;
            let b = &pair[1] as *const _ as usize;
            assert_eq!(a % 64, 0, "gauge cell misaligned");
            assert!(b - a >= 64, "adjacent gauge cells share a cache line");
        }
    }

    #[test]
    fn the_sum_clamps_at_zero() {
        let g = Gauge::new(2);
        g.cell(1).sub(2); // a free counted before the retire it answers
        assert_eq!(g.sum(), 0);
        g.cell(0).add(5);
        assert_eq!(g.sum(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_tid_beyond_the_thread_count_is_rejected() {
        let _ = Gauge::new(2).cell(2);
    }
}
