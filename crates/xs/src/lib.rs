//! Cross-sectional data for the `neutral` mini-app.
//!
//! "In order to determine if a collision event has occurred, we have to
//! perform a lookup of cross sectional data. ... Two dummy data tables have
//! been generated that mimic the capture and scatter cross sections for a
//! single material" (Martineau & McIntosh-Smith, CLUSTER 2017, §IV-D).
//!
//! This crate provides:
//!
//! * [`constants`] — the physical constants of the transport model;
//! * [`CrossSection`] — a continuous-energy table with linear
//!   interpolation (a synthesized table fills its values a block at a
//!   time where a lookup first reads them, `DESIGN.md` §4), looked up
//!   either by binary search or by a *cached
//!   linear search* that walks from the previous lookup's index. The
//!   cached search exploits the small energy jumps between consecutive
//!   collisions and bought the paper a 1.3x speedup on `csp` (§VI-A);
//! * [`CrossSectionLibrary`] — capture + elastic-scatter tables plus the
//!   microscopic → macroscopic conversion through the local mass density
//!   (§IV-D: the macroscopic cross section is what couples every particle
//!   to the computational mesh);
//! * [`LookupStrategy`] — `Binary` and `Hinted` (the paper's two
//!   strategies), bitwise-equivalent, dispatched by one `match` in
//!   [`CrossSectionLibrary::lookup_with`] and its batched lane-block form
//!   [`CrossSectionLibrary::lookup_many_with`];
//! * [`MaterialSet`] / [`MaterialKind`] — the multi-material layer: an
//!   indexed collection of per-material libraries (resolvable through any
//!   lookup strategy, per material) plus named synthetic-material
//!   archetypes for the scenario catalogue (DESIGN.md §12). A spec's
//!   library is interned: while some set holds it, every build of the
//!   same [`MaterialSpec`] shares it ([`table_stats`] counts both
//!   outcomes; DESIGN.md §4).
//!
//! # Example
//!
//! ```
//! use neutral_xs::{CrossSectionLibrary, XsHints, constants};
//!
//! let lib = CrossSectionLibrary::synthetic(4096, 1234);
//! let mut hints = XsHints::default();
//! let micro = lib.lookup(constants::INITIAL_ENERGY_EV, &mut hints);
//! assert!(micro.total_barns() > 0.0);
//!
//! // Macroscopic cross section in a cell of density 1e3 kg/m^3:
//! let n = neutral_xs::number_density(1.0e3);
//! let sigma_t = neutral_xs::macroscopic_per_m(micro.total_barns(), n);
//! assert!(sigma_t > 0.0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod constants;
mod intern;
mod lookup;
mod material;
mod synth;
mod table;

pub use intern::{table_stats, TableStats};
pub use lookup::LookupStrategy;
pub use material::{LaneScratch, MaterialId, MaterialKind, MaterialSet, MaterialSpec};
pub use synth::{synthetic_tables, SynthParams, SynthTable, Synthesis, SYNTH_VERSION};
pub use table::{lerp_segment, CrossSection};

use constants::{AVOGADRO, BARN_M2, MOLAR_MASS_KG_MOL};

/// Cached table indices from a particle's previous cross-section lookup.
///
/// Stored in the particle state (one hint per table) so that the next
/// lookup can do a short, cache-friendly linear walk instead of a binary
/// search from scratch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XsHints {
    /// Last energy-bin index used in the capture table.
    pub absorb: u32,
    /// Last energy-bin index used in the scatter table.
    pub scatter: u32,
}

/// Microscopic cross sections at a particle's energy, in barns.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MicroXs {
    /// Capture (absorption) cross section.
    pub absorb_barns: f64,
    /// Elastic scattering cross section.
    pub scatter_barns: f64,
}

impl MicroXs {
    /// Total microscopic cross section.
    #[inline]
    #[must_use]
    pub fn total_barns(&self) -> f64 {
        self.absorb_barns + self.scatter_barns
    }

    /// Absorption probability at a collision, `sigma_a / sigma_t`.
    #[inline]
    #[must_use]
    pub fn absorb_probability(&self) -> f64 {
        self.absorb_barns / self.total_barns()
    }
}

/// Nuclear number density (atoms per m^3) of the homogeneous material at
/// mass density `rho_kg_m3`: `n = rho / M * N_A`.
#[inline]
#[must_use]
pub fn number_density(rho_kg_m3: f64) -> f64 {
    rho_kg_m3 / MOLAR_MASS_KG_MOL * AVOGADRO
}

/// Macroscopic cross section (per metre) from a microscopic cross section
/// in barns and a number density in atoms/m^3.
#[inline]
#[must_use]
pub fn macroscopic_per_m(micro_barns: f64, number_density_m3: f64) -> f64 {
    micro_barns * BARN_M2 * number_density_m3
}

/// The capture and elastic-scatter tables of the single material. The
/// tables are fixed once the library is built.
#[derive(Clone, Debug)]
pub struct CrossSectionLibrary {
    /// Capture (absorption) cross-section table.
    pub absorb: CrossSection,
    /// Elastic scattering cross-section table.
    pub scatter: CrossSection,
    /// Whether both tables lie on one energy grid (every synthetic
    /// library does): then one bin search serves both.
    shared_grid: bool,
    /// Set on the one library the intern publishes for a spec: dropping
    /// it removes the intern's entry.
    interned: intern::Tag,
}

impl CrossSectionLibrary {
    /// Generate the dummy tables described in §IV-D with `n_points`
    /// log-spaced energy points each, using `seed` for the synthetic
    /// resonance structure. Defaults live in [`SynthParams`]. The values
    /// are computed where lookups first read them.
    #[must_use]
    pub fn synthetic(n_points: usize, seed: u64) -> Self {
        synthetic_tables(n_points, seed, &SynthParams::default())
    }

    /// Build a library from explicit tables. Tables on one grid
    /// allocation share it at once; others are compared point by point.
    #[must_use]
    pub fn from_tables(absorb: CrossSection, scatter: CrossSection) -> Self {
        Self {
            shared_grid: absorb.shares_grid_with(&scatter)
                || absorb.energies() == scatter.energies(),
            absorb,
            scatter,
            interned: intern::Tag::default(),
        }
    }

    /// Look up both tables with the chosen strategy, updating `hints` to
    /// the containing bins and returning the microscopic cross sections
    /// plus the linear-search steps walked (instrumentation).
    ///
    /// Both strategies return bitwise-identical values (they share the
    /// clamping and interpolation arithmetic of
    /// [`CrossSection::value_binary`]).
    #[inline]
    pub fn lookup_with(
        &self,
        strategy: LookupStrategy,
        energy_ev: f64,
        hints: &mut XsHints,
    ) -> (MicroXs, u32) {
        match strategy {
            LookupStrategy::Binary => lookup::binary(self, energy_ev, hints),
            LookupStrategy::Hinted => lookup::hinted(self, energy_ev, hints),
        }
    }

    /// Batched [`Self::lookup_with`]: resolve a whole lane block of
    /// energies in one call. `out_absorb` and `out_scatter` receive the
    /// per-lane cross sections and the hint slices are updated in place
    /// (these are the hint lanes of the event-based driver). Returns the
    /// total linear-search steps walked.
    ///
    /// All five slices must have equal lengths.
    pub fn lookup_many_with(
        &self,
        strategy: LookupStrategy,
        energies: &[f64],
        hints_absorb: &mut [u32],
        hints_scatter: &mut [u32],
        out_absorb: &mut [f64],
        out_scatter: &mut [f64],
    ) -> u64 {
        assert_eq!(energies.len(), hints_absorb.len());
        assert_eq!(energies.len(), hints_scatter.len());
        assert_eq!(energies.len(), out_absorb.len());
        assert_eq!(energies.len(), out_scatter.len());
        let (ha, hs, oa, os) = (hints_absorb, hints_scatter, out_absorb, out_scatter);
        match strategy {
            LookupStrategy::Binary => lookup::per_lane(energies, ha, hs, oa, os, |e, hints| {
                lookup::binary(self, e, hints)
            }),
            LookupStrategy::Hinted => lookup::per_lane(energies, ha, hs, oa, os, |e, hints| {
                lookup::hinted(self, e, hints)
            }),
        }
    }

    /// Look up both microscopic cross sections at `energy_ev`, using and
    /// updating the particle's cached indices (hinted linear search).
    #[inline]
    #[must_use]
    pub fn lookup(&self, energy_ev: f64, hints: &mut XsHints) -> MicroXs {
        let (a, s) = self.lookup_counted(energy_ev, hints).0;
        MicroXs {
            absorb_barns: a,
            scatter_barns: s,
        }
    }

    /// As [`Self::lookup`], also returning the number of linear-search
    /// steps taken (for the event-counter instrumentation feeding the
    /// architecture performance model). Counted per table: on a shared
    /// grid with equal hints the one walk serves both tables and counts
    /// twice, as the two walks it replaces would.
    #[inline]
    pub fn lookup_counted(&self, energy_ev: f64, hints: &mut XsHints) -> ((f64, f64), u32) {
        let mut ia = hints.absorb as usize;
        if self.shared_grid && hints.absorb == hints.scatter {
            let (a, steps) = self.absorb.value_hinted_counted(energy_ev, &mut ia);
            let s = self.scatter.value_at_bin(energy_ev, ia);
            (hints.absorb, hints.scatter) = (ia as u32, ia as u32);
            return ((a, s), 2 * steps);
        }
        let mut is = hints.scatter as usize;
        let (a, na) = self.absorb.value_hinted_counted(energy_ev, &mut ia);
        let (s, ns) = self.scatter.value_hinted_counted(energy_ev, &mut is);
        hints.absorb = ia as u32;
        hints.scatter = is as u32;
        ((a, s), na + ns)
    }

    /// The containing (clamped) bins of `energy_ev` in both tables, by
    /// binary search — one search when the tables share a grid. What a
    /// particle's hints are seeded with where there is no earlier lookup
    /// to walk from.
    #[must_use]
    pub fn bins_binary(&self, energy_ev: f64) -> XsHints {
        let absorb = self.absorb.bin_index_binary(energy_ev) as u32;
        let scatter = if self.shared_grid {
            absorb
        } else {
            self.scatter.bin_index_binary(energy_ev) as u32
        };
        XsHints { absorb, scatter }
    }

    /// Look up both tables by binary search (the baseline the cached
    /// linear search is compared against, §VI-A).
    #[inline]
    #[must_use]
    pub fn lookup_binary(&self, energy_ev: f64) -> MicroXs {
        MicroXs {
            absorb_barns: self.absorb.value_binary(energy_ev),
            scatter_barns: self.scatter.value_binary(energy_ev),
        }
    }

    /// Resident bytes of both tables, a grid they share counted once.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        let shared = if self.absorb.shares_grid_with(&self.scatter) {
            std::mem::size_of_val(self.absorb.energies())
        } else {
            0
        };
        self.absorb.footprint_bytes() + self.scatter.footprint_bytes() - shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_density_of_water_like_material() {
        // rho = 1e3 kg/m^3, M = 0.1 kg/mol -> 6.022e27 atoms/m^3.
        let n = number_density(1.0e3);
        assert!((n / 6.022_140_76e27 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn macroscopic_is_linear_in_density() {
        let sigma = 10.0; // barns
        let a = macroscopic_per_m(sigma, number_density(1.0));
        let b = macroscopic_per_m(sigma, number_density(2.0));
        assert!((b / a - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hinted_and_binary_lookups_agree() {
        let lib = CrossSectionLibrary::synthetic(2048, 7);
        let mut hints = XsHints::default();
        for i in 0..500 {
            let e = 1e-4 * 1.07f64.powi(i % 300) * 10f64.powi(i % 7);
            let hinted = lib.lookup(e, &mut hints);
            let binary = lib.lookup_binary(e);
            assert_eq!(hinted, binary, "mismatch at E={e}");
        }
    }

    /// A synthesized library's two tables hold one grid allocation, which
    /// its footprint counts once; explicit tables on equal grids still
    /// share by comparison.
    #[test]
    fn synthesized_tables_share_one_grid_allocation() {
        let lib = CrossSectionLibrary::synthetic(600, 11);
        assert!(lib.absorb.shares_grid_with(&lib.scatter));
        assert_eq!(lib.footprint_bytes(), 3 * 600 * 8);
        let copy = |t: &CrossSection| CrossSection::new(t.energies().to_vec(), t.values());
        let explicit = CrossSectionLibrary::from_tables(copy(&lib.absorb), copy(&lib.scatter));
        assert!(!explicit.absorb.shares_grid_with(&explicit.scatter));
        assert!(explicit.shared_grid);
        assert_eq!(explicit.footprint_bytes(), 4 * 600 * 8);
    }

    /// One walk (or one binary search) per shared grid is the two it
    /// replaces: from any pair of hints — equal, unequal, past the end of
    /// the table — at energies below, inside and above the tables, on a
    /// shared grid and on a mismatched pair, `hinted` leaves the values,
    /// hints and step count of the two per-table walks, and `binary` the
    /// values and bins of two per-table searches.
    #[test]
    fn one_search_per_shared_grid_is_the_two_per_table_searches() {
        let shared = CrossSectionLibrary::synthetic(600, 11);
        assert!(shared.shared_grid);
        let other = CrossSectionLibrary::synthetic(450, 12);
        let mismatched = CrossSectionLibrary::from_tables(shared.absorb.clone(), other.scatter);
        assert!(!mismatched.shared_grid);
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for lib in [&shared, &mismatched] {
            let n = lib.absorb.len() as u64;
            let (lo, hi) = lib.absorb.energy_range();
            let (log_lo, log_hi) = ((lo / 10.0).ln(), (hi * 10.0).ln());
            for case in 0..20_000 {
                let r = next();
                let e = match r % 8 {
                    0 => lib.absorb.energies()[(r >> 8) as usize % n as usize],
                    1 => [lo, hi, lo / 2.0, hi * 2.0][(r >> 8) as usize % 4],
                    _ => {
                        (log_lo + (log_hi - log_lo) * (r >> 11) as f64 / (1u64 << 53) as f64).exp()
                    }
                };
                let absorb = (next() % (n + 8)) as u32;
                let scatter = if case % 2 == 0 {
                    absorb
                } else {
                    (next() % (n + 8)) as u32
                };

                let mut hints = XsHints { absorb, scatter };
                let ((a, s), steps) = lib.lookup_counted(e, &mut hints);
                let (mut ia, mut is) = (absorb as usize, scatter as usize);
                let (ra, na) = lib.absorb.value_hinted_counted(e, &mut ia);
                let (rs, ns) = lib.scatter.value_hinted_counted(e, &mut is);
                let what = format!("E={e}, hints ({absorb}, {scatter})");
                assert_eq!(
                    (a.to_bits(), s.to_bits()),
                    (ra.to_bits(), rs.to_bits()),
                    "{what}"
                );
                assert_eq!(
                    (hints.absorb, hints.scatter),
                    (ia as u32, is as u32),
                    "{what}"
                );
                assert_eq!(steps, na + ns, "{what}");

                let mut hints = XsHints { absorb, scatter };
                let (micro, _) = lib.lookup_with(LookupStrategy::Binary, e, &mut hints);
                let bins = XsHints {
                    absorb: lib.absorb.bin_index_binary(e) as u32,
                    scatter: lib.scatter.bin_index_binary(e) as u32,
                };
                assert_eq!(hints, bins, "{what}");
                assert_eq!(lib.bins_binary(e), bins, "{what}");
                assert_eq!(micro, lib.lookup_binary(e), "{what}");
            }
        }
    }

    /// Building a synthesized library fills no value, and a lookup fills only the block it reads: one block per table at
    /// 1 MeV, whatever the strategy, and the two end blocks for the
    /// clamped reads below and above the grid.
    #[test]
    fn a_lookup_fills_only_the_blocks_it_reads() {
        use crate::table::BLOCK;
        let n = 30_000;
        let filled = |lib: &CrossSectionLibrary| {
            [&lib.absorb, &lib.scatter].map(CrossSection::points_filled)
        };
        for strategy in LookupStrategy::ALL {
            let lib = CrossSectionLibrary::synthetic(n, 0x1a2e);
            let _ = lib.bins_binary(1.0e6);
            assert_eq!(filled(&lib), [0, 0], "{strategy:?}: built");
            let mut hints = lib.bins_binary(1.0e6);
            let _ = lib.lookup_with(strategy, 1.0e6, &mut hints);
            assert_eq!(
                filled(&lib),
                [BLOCK; 2],
                "{strategy:?}: one lookup at 1 MeV"
            );
            let (lo, hi) = lib.absorb.energy_range();
            let energies = [lo / 2.0, hi * 2.0];
            let (mut ha, mut hs) = ([0; 2], [0; 2]);
            let (mut oa, mut os) = ([0.0; 2], [0.0; 2]);
            lib.lookup_many_with(strategy, &energies, &mut ha, &mut hs, &mut oa, &mut os);
            let last = n - (n - 1) / BLOCK * BLOCK;
            assert_eq!(
                filled(&lib),
                [2 * BLOCK + last; 2],
                "{strategy:?}: clamped reads"
            );
        }
    }

    #[test]
    fn absorb_probability_in_unit_interval() {
        let lib = CrossSectionLibrary::synthetic(1024, 99);
        let mut hints = XsHints::default();
        for p in [1.0, 1e2, 1e4, 1e6] {
            let m = lib.lookup(p, &mut hints);
            let pa = m.absorb_probability();
            assert!((0.0..=1.0).contains(&pa), "p_abs {pa} at {p} eV");
        }
    }

    #[test]
    fn lookup_counted_reports_steps() {
        let lib = CrossSectionLibrary::synthetic(4096, 3);
        let mut hints = XsHints::default();
        // First lookup from hint 0 to ~1 MeV must take many steps...
        let (_, steps_far) = lib.lookup_counted(1e6, &mut hints);
        // ...then a nearby lookup should take very few.
        let (_, steps_near) = lib.lookup_counted(0.98e6, &mut hints);
        assert!(steps_far > 100, "far lookup took {steps_far} steps");
        assert!(steps_near < 64, "near lookup took {steps_near} steps");
    }
}
