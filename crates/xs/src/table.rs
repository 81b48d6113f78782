//! Continuous-energy cross-section tables.
//!
//! A table is a strictly-increasing energy grid with one cross-section
//! value per point; evaluation finds the containing energy bin and linearly
//! interpolates (paper §IV-D-1: "a search is performed to find the energy
//! bin for the particle's continuous energy, and a linear interpolation
//! gives an accurate approximation to the true microscopic cross section").
//!
//! Two search strategies are provided, because their difference is one of
//! the paper's measured optimisations (§VI-A):
//!
//! * [`CrossSection::value_binary`] — `O(log n)` binary search, the
//!   obvious baseline;
//! * [`CrossSection::value_hinted`] — a linear walk from the caller's
//!   cached index. Between consecutive collisions a particle's energy
//!   changes by at most ~4% (elastic scattering off A=100), so the walk is
//!   short and touches adjacent cache lines, "instead of performing a more
//!   expensive binary search at each step. This particular optimisation
//!   improved the performance of the csp problem by 1.3x".

use crate::synth::{Synthesis, Synthesized};
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::{Arc, PoisonError};

/// Points of synthesized tables filled in this process, over every
/// table (a statistic: it orders nothing).
pub(crate) static POINTS_FILLED: AtomicU64 = AtomicU64::new(0);

/// Linear interpolation over one grid segment — the single arithmetic
/// kernel shared by every lookup backend, so that any backend that finds
/// the same containing bin produces bitwise-identical values.
#[inline]
#[must_use]
pub fn lerp_segment(e: f64, e0: f64, e1: f64, v0: f64, v1: f64) -> f64 {
    let t = ((e - e0) / (e1 - e0)).clamp(0.0, 1.0);
    v0 + t * (v1 - v0)
}

/// Points per value block of a synthesized table: the unit its values
/// are filled in, on first read. Measured, not tuned per problem
/// (`DESIGN.md` §4, "How a table is built").
pub(crate) const BLOCK: usize = 256;

/// A continuous-energy cross-section table (energies in eV, values in
/// barns), linearly interpolated between grid points and clamped to the
/// end values outside the tabulated range.
///
/// The energy grid is always whole, and shared: the two tables of a
/// synthesized library hold one allocation. The values of a table built by
/// [`CrossSection::new`] are whole too; those of a synthesized table
/// ([`crate::synthetic_tables`]) are computed a block of 256 points at
/// a time, the first time a lookup reads the block, and are then the
/// bits an eager build would have stored.
#[derive(Debug)]
pub struct CrossSection {
    energy: Arc<[f64]>,
    /// The values' `f64` bits. Loaded `Relaxed`: a value is read only
    /// after an `Acquire` load saw its block's `ready` bit, which the
    /// filler set with `Release` after storing the block.
    value: Box<[AtomicU64]>,
    /// One bit per block: set once the block's segment — its own points
    /// and the first point of the next block, so one bit covers a `lerp`
    /// — holds its values. All set on a dense table.
    ready: Box<[AtomicU64]>,
    /// How the values of a synthesized table are computed; `None` on a
    /// dense one.
    synth: Option<Arc<Synthesized>>,
}

impl Clone for CrossSection {
    /// A table of its own, with the values filled so far, on the same
    /// (immutable) grid.
    fn clone(&self) -> Self {
        let copy = |words: &[AtomicU64]| {
            words
                .iter()
                .map(|w| AtomicU64::new(w.load(Acquire)))
                .collect()
        };
        // The bits first: a block a racing fill publishes after this
        // copy stays unready in the clone, whatever its values copied as.
        let ready = copy(&self.ready);
        Self {
            energy: Arc::clone(&self.energy),
            value: copy(&self.value),
            ready,
            synth: self.synth.clone(),
        }
    }
}

/// A ready bitset for a table of `n` points, every block set or none.
fn ready_bits(n: usize, set: bool) -> Box<[AtomicU64]> {
    let words = n.div_ceil(BLOCK).div_ceil(64);
    (0..words)
        .map(|_| AtomicU64::new(if set { !0 } else { 0 }))
        .collect()
}

impl PartialEq for CrossSection {
    /// Equal grids and equal values; fills every block of both tables.
    fn eq(&self, other: &Self) -> bool {
        self.energy == other.energy && self.values() == other.values()
    }
}

/// Check an energy grid: at least two points, positive, finite and
/// strictly increasing.
fn check_grid(energy: &[f64]) {
    assert!(energy.len() >= 2, "need at least two table points");
    // One branch-free pass over the whole grid, which vectorizes; only a
    // grid that fails it is walked again for the first bad point.
    // (`0.0..=f64::MAX` holds no NaN and no infinity.)
    let finite = 0.0..=f64::MAX;
    let increasing = energy.windows(2).fold(true, |ok, w| ok & (w[0] < w[1]));
    let in_range = energy
        .iter()
        .fold(true, |ok, &e| ok & (e > 0.0) & finite.contains(&e));
    if !(increasing && in_range) {
        for w in energy.windows(2) {
            assert!(
                w[0] < w[1],
                "energy grid must be strictly increasing ({} !< {})",
                w[0],
                w[1]
            );
        }
        for &e in energy {
            assert!(e.is_finite() && e > 0.0, "energies must be positive");
        }
    }
}

impl CrossSection {
    /// Build a table from its energy and value columns.
    ///
    /// # Panics
    /// If the columns differ in length, fewer than two points are given,
    /// energies are not strictly increasing, or any value is negative or
    /// non-finite.
    #[must_use]
    pub fn new(energy: Vec<f64>, value: Vec<f64>) -> Self {
        assert_eq!(
            energy.len(),
            value.len(),
            "energy and value columns differ in length"
        );
        check_grid(&energy);
        let finite = 0.0..=f64::MAX;
        if !value.iter().fold(true, |ok, v| ok & finite.contains(v)) {
            for &v in &value {
                assert!(v.is_finite() && v >= 0.0, "values must be non-negative");
            }
        }
        Self {
            ready: ready_bits(energy.len(), true),
            energy: energy.into(),
            value: value
                .into_iter()
                .map(|v| AtomicU64::new(v.to_bits()))
                .collect(),
            synth: None,
        }
    }

    /// A synthesized table on `energy`: no value is computed until a
    /// lookup reads its block.
    pub(crate) fn synthesized(energy: Arc<[f64]>, synth: Synthesized) -> Self {
        check_grid(&energy);
        Self {
            value: (0..energy.len()).map(|_| AtomicU64::new(0)).collect(),
            ready: ready_bits(energy.len(), false),
            energy,
            synth: Some(Arc::new(synth)),
        }
    }

    /// What a synthesized table is a function of; `None` for a table
    /// built from explicit columns.
    #[must_use]
    pub fn synthesis(&self) -> Option<&Synthesis> {
        self.synth.as_deref().map(Synthesized::synthesis)
    }

    /// Make sure block `block`'s segment holds its values: the one
    /// readiness test of a value read.
    #[inline(always)]
    fn ensure(&self, block: usize) {
        if self.ready[block / 64].load(Acquire) & (1 << (block % 64)) == 0 {
            self.fill(block);
        }
    }

    /// Compute and publish block `block`'s segment. Fills of one table
    /// run one at a time, so a block is computed once however many
    /// threads race to read it.
    #[cold]
    #[inline(never)]
    fn fill(&self, block: usize) {
        let synth = self
            .synth
            .as_deref()
            .expect("a table built from columns has every block ready");
        // The guard orders fills and protects no data: a fill that
        // panicked published nothing, so the next one starts over.
        let _fill = synth.lock.lock().unwrap_or_else(PoisonError::into_inner);
        let (word, bit) = (&self.ready[block / 64], 1 << (block % 64));
        if word.load(Acquire) & bit != 0 {
            return;
        }
        let lo = block * BLOCK;
        let hi = (lo + BLOCK).min(self.energy.len() - 1);
        let mut values = [0.0; BLOCK + 1];
        let values = &mut values[..=hi - lo];
        synth.fill(&self.energy[lo..=hi], values);
        for (slot, v) in self.value[lo..=hi].iter().zip(values.iter()) {
            slot.store(v.to_bits(), Relaxed);
        }
        word.fetch_or(bit, Release);
        let own = (lo + BLOCK).min(self.energy.len()) - lo;
        POINTS_FILLED.fetch_add(own as u64, Relaxed);
    }

    /// Value `k`, filling its block first if no lookup has read it yet.
    #[inline]
    #[must_use]
    pub fn value(&self, k: usize) -> f64 {
        self.ensure(k / BLOCK);
        f64::from_bits(self.value[k].load(Relaxed))
    }

    /// Number of grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.energy.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.energy.is_empty()
    }

    /// The energy grid.
    #[must_use]
    pub fn energies(&self) -> &[f64] {
        &self.energy
    }

    /// Whether `self` and `other` hold the one grid allocation (the two
    /// tables of a synthesized library do).
    pub(crate) fn shares_grid_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.energy, &other.energy)
    }

    /// The tabulated values, copied out. Fills every block of a
    /// synthesized table; lookups read single values through
    /// [`Self::value`], which fills only the block read.
    #[must_use]
    pub fn values(&self) -> Vec<f64> {
        (0..self.value.len()).map(|k| self.value(k)).collect()
    }

    /// Points whose values are in place: every point of a table built
    /// from columns, the points of the blocks read so far of a
    /// synthesized one.
    #[must_use]
    pub fn points_filled(&self) -> usize {
        let n = self.energy.len();
        (0..n.div_ceil(BLOCK))
            .filter(|b| self.ready[b / 64].load(Relaxed) & (1 << (b % 64)) != 0)
            .map(|b| (b * BLOCK + BLOCK).min(n) - b * BLOCK)
            .sum()
    }

    /// Lowest and highest tabulated energies.
    #[must_use]
    pub fn energy_range(&self) -> (f64, f64) {
        (self.energy[0], *self.energy.last().unwrap())
    }

    /// Interpolate within bin `i` (callers guarantee `e` has been clamped
    /// into the table range and `i < len-1`).
    /// One readiness test covers both values: block `i / BLOCK`'s
    /// segment runs to the first point of the next block. Always
    /// inlined, as before the readiness test: an outlined `lerp` is a
    /// call per lookup on the kernels' hot path.
    #[inline(always)]
    pub(crate) fn lerp(&self, i: usize, e: f64) -> f64 {
        self.ensure(i / BLOCK);
        lerp_segment(
            e,
            self.energy[i],
            self.energy[i + 1],
            f64::from_bits(self.value[i].load(Relaxed)),
            f64::from_bits(self.value[i + 1].load(Relaxed)),
        )
    }

    /// Evaluate at `energy_ev` given the containing bin `bin` (as returned
    /// by [`Self::bin_index_binary`] or any of the lookup backends),
    /// applying exactly the same out-of-range clamping as
    /// [`Self::value_binary`]. The accelerated backends replicate this
    /// clamp-then-interpolate structure internally (property tests pin
    /// them bitwise to it); this method is the public single-table
    /// equivalent for callers that already hold a bin index.
    #[inline]
    #[must_use]
    pub fn value_at_bin(&self, energy_ev: f64, bin: usize) -> f64 {
        let n = self.energy.len();
        if energy_ev <= self.energy[0] {
            return self.value(0);
        }
        if energy_ev >= self.energy[n - 1] {
            return self.value(n - 1);
        }
        self.lerp(bin.min(n - 2), energy_ev)
    }

    /// Index of the energy bin containing `energy_ev` (clamped to the
    /// table), found by binary search. Used to seed a particle's cached
    /// lookup hint at birth, where there is no previous lookup to walk
    /// from.
    #[inline]
    #[must_use]
    pub fn bin_index_binary(&self, energy_ev: f64) -> usize {
        let n = self.energy.len();
        if energy_ev <= self.energy[0] {
            return 0;
        }
        if energy_ev >= self.energy[n - 1] {
            return n - 2;
        }
        self.energy.partition_point(|&g| g <= energy_ev) - 1
    }

    /// Evaluate by binary search.
    #[inline]
    #[must_use]
    pub fn value_binary(&self, energy_ev: f64) -> f64 {
        let n = self.energy.len();
        if energy_ev <= self.energy[0] {
            return self.value(0);
        }
        if energy_ev >= self.energy[n - 1] {
            return self.value(n - 1);
        }
        // partition_point returns the first index with energy > e; the
        // containing bin starts one before it.
        let hi = self.energy.partition_point(|&g| g <= energy_ev);
        self.lerp(hi - 1, energy_ev)
    }

    /// Evaluate by a linear walk from `*hint`, updating the hint to the
    /// containing bin.
    #[inline]
    #[must_use]
    pub fn value_hinted(&self, energy_ev: f64, hint: &mut usize) -> f64 {
        self.value_hinted_counted(energy_ev, hint).0
    }

    /// As [`Self::value_hinted`] but also reporting the number of grid
    /// steps walked (instrumentation for the performance model).
    #[inline]
    pub fn value_hinted_counted(&self, energy_ev: f64, hint: &mut usize) -> (f64, u32) {
        let n = self.energy.len();
        let mut i = (*hint).min(n - 2);
        let mut steps = 0u32;
        if energy_ev <= self.energy[0] {
            *hint = 0;
            return (self.value(0), steps);
        }
        if energy_ev >= self.energy[n - 1] {
            *hint = n - 2;
            return (self.value(n - 1), steps);
        }
        // Walk up while the bin is below the energy...
        while self.energy[i + 1] <= energy_ev {
            i += 1;
            steps += 1;
        }
        // ...or down while the bin is above it.
        while self.energy[i] > energy_ev {
            i -= 1;
            steps += 1;
        }
        *hint = i;
        (self.lerp(i, energy_ev), steps)
    }

    /// Resident bytes of the table data.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        (self.energy.len() + self.value.len()) * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> CrossSection {
        CrossSection::new(vec![1.0, 2.0, 4.0, 8.0], vec![10.0, 20.0, 10.0, 40.0])
    }

    #[test]
    fn exact_at_grid_points() {
        let t = table();
        for (i, &e) in t.energies().iter().enumerate() {
            assert_eq!(t.value_binary(e), t.values()[i]);
        }
    }

    #[test]
    fn interpolates_midpoints() {
        let t = table();
        assert_eq!(t.value_binary(1.5), 15.0);
        assert_eq!(t.value_binary(3.0), 15.0);
        assert_eq!(t.value_binary(6.0), 25.0);
    }

    #[test]
    fn clamps_out_of_range() {
        let t = table();
        assert_eq!(t.value_binary(0.5), 10.0);
        assert_eq!(t.value_binary(100.0), 40.0);
        let mut hint = 2;
        assert_eq!(t.value_hinted(0.5, &mut hint), 10.0);
        assert_eq!(hint, 0);
        assert_eq!(t.value_hinted(100.0, &mut hint), 40.0);
        assert_eq!(hint, t.len() - 2);
    }

    #[test]
    fn hinted_agrees_with_binary_from_any_hint() {
        let t = table();
        for e in [1.0, 1.3, 2.0, 2.7, 3.99, 4.0, 5.5, 7.9, 8.0] {
            for h in 0..t.len() {
                let mut hint = h;
                assert_eq!(
                    t.value_hinted(e, &mut hint),
                    t.value_binary(e),
                    "e={e} hint={h}"
                );
            }
        }
    }

    #[test]
    fn hint_is_updated_to_containing_bin() {
        let t = table();
        let mut hint = 0;
        let _ = t.value_hinted(6.0, &mut hint);
        assert_eq!(hint, 2);
        let (_, steps) = t.value_hinted_counted(6.5, &mut hint);
        assert_eq!(steps, 0, "nearby lookup should not walk");
    }

    /// Satellite lock-down: below-range and above-range lookups clamp to
    /// the end values and leave the hint at the clamped bin (0 below,
    /// `len - 2` above) for *both* search strategies, including queries
    /// exactly on the grid ends and hints that start out of range.
    #[test]
    fn clamp_consistency_binary_vs_hinted() {
        let t = table();
        let n = t.len();
        let cases = [
            (0.5, t.values()[0], 0usize),      // below range
            (1.0, t.values()[0], 0),           // exactly at the low end
            (8.0, t.values()[n - 1], n - 2),   // exactly at the high end
            (100.0, t.values()[n - 1], n - 2), // above range
        ];
        for (e, expect, expect_hint) in cases {
            assert_eq!(
                t.value_binary(e).to_bits(),
                expect.to_bits(),
                "binary E={e}"
            );
            for start in [0usize, 1, n - 2, n + 50] {
                let mut hint = start;
                let v = t.value_hinted(e, &mut hint);
                assert_eq!(v.to_bits(), expect.to_bits(), "hinted E={e} start={start}");
                assert_eq!(hint, expect_hint, "hint after clamp E={e} start={start}");
            }
            assert_eq!(
                t.value_at_bin(e, 1).to_bits(),
                expect.to_bits(),
                "value_at_bin clamps E={e}"
            );
        }
    }

    #[test]
    fn value_at_bin_matches_binary_in_range() {
        let t = table();
        for e in [1.0, 1.5, 2.0, 3.0, 3.999, 4.0, 6.0, 7.999, 8.0] {
            let bin = t.bin_index_binary(e);
            assert_eq!(
                t.value_at_bin(e, bin).to_bits(),
                t.value_binary(e).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_grid() {
        let _ = CrossSection::new(vec![2.0, 1.0], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_values() {
        let _ = CrossSection::new(vec![1.0, 2.0], vec![-1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn rejects_ragged_columns() {
        let _ = CrossSection::new(vec![1.0, 2.0, 3.0], vec![1.0, 1.0]);
    }

    /// Non-finite points pass every ordering comparison they can, so the
    /// branch-free pass must still send them to the reporting walk.
    #[test]
    fn rejects_non_finite_points() {
        for (energy, value, says) in [
            (
                vec![1.0, f64::INFINITY],
                vec![1.0, 1.0],
                "energies must be positive",
            ),
            (
                vec![1.0, 2.0],
                vec![1.0, f64::NAN],
                "values must be non-negative",
            ),
            (
                vec![1.0, 2.0],
                vec![f64::INFINITY, 1.0],
                "values must be non-negative",
            ),
        ] {
            let panic =
                std::panic::catch_unwind(|| CrossSection::new(energy, value)).expect_err(says);
            assert_eq!(panic.downcast_ref::<&str>(), Some(&says));
        }
    }
}
