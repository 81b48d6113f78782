//! Energy-deposition tally meshes.
//!
//! The tally is "essentially a reduction into the mesh that must be
//! performed atomically to avoid race conditions" (paper §V-C). Every facet
//! encounter flushes a register-accumulated deposit with one atomic
//! read-modify-write, and sample profiling attributed ~50% of the
//! Over-Particles runtime to tallying (§VI-A). The paper studies two
//! implementations, both provided here:
//!
//! * [`AtomicTally`]: `f64` adds emulated with a compare-exchange loop on
//!   `AtomicU64` bit patterns. This is precisely the emulation the paper
//!   had to use on the K20X, which predates hardware double-precision
//!   `atomicAdd` (§VII-A); on CPUs it is also how `f64` atomic adds are
//!   expressed in Rust/LLVM.
//! * [`PrivatizedTally`]: one private copy of the tally mesh per thread,
//!   removing the atomics at the cost of an `n_threads` x footprint
//!   (0.3 GB -> 31 GB for the paper's `csp` problem at 256 KNL threads,
//!   §VI-F) plus a merge ("compression") pass at the end of the solve.
//!
//! Memory ordering: all tally operations use `Relaxed` ordering. The adds
//! are commutative and independent; the final values are observed only
//! after the worker threads have been joined, and thread join/spawn create
//! the necessary happens-before edges (see "Rust Atomics and Locks",
//! ch. 3: synchronisation comes from spawn/join, not from the data
//! operations themselves).

use std::sync::atomic::{AtomicU64, Ordering};

/// A shared tally mesh updated with atomic compare-exchange adds.
///
/// Values are stored as `f64` bit patterns inside `AtomicU64`s so that the
/// mesh can be written concurrently from any number of threads without
/// locks, exactly mirroring the mini-app's `#pragma omp atomic` /
/// CAS-emulated `atomicAdd` update.
#[derive(Debug)]
pub struct AtomicTally {
    cells: Vec<AtomicU64>,
}

impl AtomicTally {
    /// Create a zeroed tally with `len` cells.
    #[must_use]
    pub fn new(len: usize) -> Self {
        let mut cells = Vec::with_capacity(len);
        cells.resize_with(len, || AtomicU64::new(0f64.to_bits()));
        Self { cells }
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the tally has zero cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Atomically add `value` to `cell`.
    ///
    /// One call per facet encounter is the dominant synchronisation cost of
    /// the Over-Particles scheme; the compare-exchange loop retries under
    /// contention, which is what makes conflicting tallies expensive.
    #[inline]
    pub fn add(&self, cell: usize, value: f64) {
        let slot = &self.cells[cell];
        let mut current = slot.load(Ordering::Relaxed);
        loop {
            let new = f64::from_bits(current) + value;
            match slot.compare_exchange_weak(
                current,
                new.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Copy the tally out as plain `f64`s.
    #[must_use]
    pub fn snapshot(&self) -> Vec<f64> {
        self.cells
            .iter()
            .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Sum of all cells.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))
            .sum()
    }

    /// Reset every cell to zero (start of a new timestep).
    pub fn reset(&self) {
        for c in &self.cells {
            c.store(0f64.to_bits(), Ordering::Relaxed);
        }
    }

    /// Resident bytes.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<AtomicU64>()
    }
}

/// One thread's private slice of a [`PrivatizedTally`].
///
/// Handed out by [`PrivatizedTally::slots_mut`]; plain stores, no atomics.
#[derive(Debug)]
pub struct TallySlot {
    data: Vec<f64>,
}

impl TallySlot {
    /// Add `value` to `cell` — a plain (non-atomic) accumulate.
    #[inline]
    pub fn add(&mut self, cell: usize, value: f64) {
        self.data[cell] += value;
    }

    /// Read-only view of this slot's accumulated values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.data
    }
}

/// A tally mesh privatised per thread (paper §VI-F).
///
/// Each worker thread owns one [`TallySlot`]; the slots are merged
/// ("compressed", in the paper's wording) into a single mesh at the end of
/// the solve. The safe API hands out disjoint `&mut` slots, so no
/// synchronisation of any kind happens on the hot path.
#[derive(Debug)]
pub struct PrivatizedTally {
    slots: Vec<TallySlot>,
    len: usize,
}

impl PrivatizedTally {
    /// Create `n_threads` private zeroed tallies of `len` cells each.
    #[must_use]
    pub fn new(n_threads: usize, len: usize) -> Self {
        assert!(n_threads > 0, "need at least one thread slot");
        Self {
            slots: (0..n_threads)
                .map(|_| TallySlot {
                    data: vec![0.0; len],
                })
                .collect(),
            len,
        }
    }

    /// Number of cells per private copy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tally has zero cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of private copies (threads).
    #[must_use]
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Disjoint mutable access to every thread's slot; hand one to each
    /// worker (e.g. via `std::thread::scope`).
    pub fn slots_mut(&mut self) -> impl Iterator<Item = &mut TallySlot> {
        self.slots.iter_mut()
    }

    /// Merge all private copies into a single mesh. Deterministic: slots
    /// are summed in thread-index order, so a run with a fixed thread
    /// count and a static schedule is bitwise reproducible.
    #[must_use]
    pub fn merge(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.len];
        for slot in &self.slots {
            for (o, v) in out.iter_mut().zip(&slot.data) {
                *o += v;
            }
        }
        out
    }

    /// Sum over all cells of all slots.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.slots.iter().map(|s| s.data.iter().sum::<f64>()).sum()
    }

    /// Reset all private copies to zero.
    pub fn reset(&mut self) {
        for slot in &mut self.slots {
            slot.data.fill(0.0);
        }
    }

    /// Total resident bytes across all private copies — the paper's
    /// footprint blow-up (`len * n_threads * 8` bytes, §VI-F).
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.slots.len() * self.len * std::mem::size_of::<f64>()
    }
}

/// The serial baseline: a plain `Vec<f64>` tally.
#[derive(Debug, Clone)]
pub struct SequentialTally {
    data: Vec<f64>,
}

impl SequentialTally {
    /// Create a zeroed tally with `len` cells.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            data: vec![0.0; len],
        }
    }

    /// Add `value` to `cell`.
    #[inline]
    pub fn add(&mut self, cell: usize, value: f64) {
        self.data[cell] += value;
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tally has zero cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The accumulated values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Consume into the underlying vector.
    #[must_use]
    pub fn into_values(self) -> Vec<f64> {
        self.data
    }

    /// Sum of all cells.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Reset every cell to zero.
    pub fn reset(&mut self) {
        self.data.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn atomic_add_accumulates() {
        let t = AtomicTally::new(4);
        t.add(2, 1.5);
        t.add(2, 2.5);
        t.add(0, -1.0);
        assert_eq!(t.snapshot(), vec![-1.0, 0.0, 4.0, 0.0]);
        assert_eq!(t.total(), 3.0);
    }

    #[test]
    fn atomic_concurrent_adds_match_sequential_sum() {
        let t = Arc::new(AtomicTally::new(16));
        let threads = 8;
        let adds_per_thread = 10_000;
        let handles: Vec<_> = (0..threads)
            .map(|ti| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..adds_per_thread {
                        t.add((ti + i) % 16, 0.5);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expect = 0.5 * (threads * adds_per_thread) as f64;
        // All adds are 0.5, an exactly-representable value: the total must
        // be exact regardless of interleaving.
        assert_eq!(t.total(), expect);
    }

    #[test]
    fn atomic_reset_zeroes() {
        let t = AtomicTally::new(3);
        t.add(1, 9.0);
        t.reset();
        assert_eq!(t.total(), 0.0);
    }

    #[test]
    fn privatized_merge_sums_slots() {
        let mut t = PrivatizedTally::new(3, 4);
        for (i, slot) in t.slots_mut().enumerate() {
            slot.add(i, (i + 1) as f64);
        }
        assert_eq!(t.merge(), vec![1.0, 2.0, 3.0, 0.0]);
        assert_eq!(t.total(), 6.0);
    }

    #[test]
    fn privatized_footprint_scales_with_threads() {
        let t1 = PrivatizedTally::new(1, 1000);
        let t256 = PrivatizedTally::new(256, 1000);
        assert_eq!(t256.footprint_bytes(), 256 * t1.footprint_bytes());
    }

    #[test]
    fn privatized_parallel_use_is_safe_and_exact() {
        let mut t = PrivatizedTally::new(4, 8);
        std::thread::scope(|s| {
            for (ti, slot) in t.slots_mut().enumerate() {
                s.spawn(move || {
                    for i in 0..1000 {
                        slot.add((ti + i) % 8, 1.0);
                    }
                });
            }
        });
        assert_eq!(t.total(), 4000.0);
    }

    #[test]
    fn sequential_tally_basics() {
        let mut t = SequentialTally::new(2);
        t.add(0, 3.0);
        t.add(1, 4.0);
        t.add(0, 1.0);
        assert_eq!(t.values(), &[4.0, 4.0]);
        assert_eq!(t.total(), 8.0);
        t.reset();
        assert_eq!(t.total(), 0.0);
    }

    #[test]
    fn paper_knl_footprint_arithmetic() {
        // Paper §VI-F: a 4000^2 mesh tally is ~0.128 GB; privatised over
        // 256 threads it exceeds 31 GB (quoted with the rest of the
        // problem state as 0.3 GB -> 31 GB).
        let cells = 4000 * 4000;
        let single = PrivatizedTally::new(1, cells).footprint_bytes() as f64 / 1e9;
        let knl = PrivatizedTally::new(256, cells).footprint_bytes() as f64 / 1e9;
        assert!((single - 0.128).abs() < 1e-3);
        assert!(knl > 31.0 && knl < 34.0, "privatised footprint {knl} GB");
    }
}
