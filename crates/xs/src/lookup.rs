//! Cross-section lookup strategies.
//!
//! The paper's collision kernel resolves two table lookups (capture +
//! elastic scatter) per energy change, and §VI-A shows the lookup
//! strategy alone is worth 1.3x end-to-end on `csp`. Two strategies, the
//! paper's two:
//!
//! * [`LookupStrategy::Binary`] — a fresh `O(log n)` binary search per
//!   table per lookup (the paper's baseline, and the reference the
//!   cached walk is held to);
//! * [`LookupStrategy::Hinted`] — a linear walk from the particle's
//!   cached bin index (the paper's cached linear search, and the
//!   default).
//!
//! Both interpolate through [`crate::CrossSection`]'s one `lerp` and
//! apply the exact clamping of [`crate::CrossSection::value_binary`], so
//! they agree **bitwise** for every energy, in and out of range —
//! switching strategies can never change the physics, only the speed.
//! Both also leave the caller's [`XsHints`] at the containing (clamped)
//! bin, so strategies can be switched mid-simulation.
//!
//! The strategies are private free functions behind the one `match` in
//! [`CrossSectionLibrary::lookup_with`] and
//! [`CrossSectionLibrary::lookup_many_with`]; the batched form is a
//! per-lane loop. A merged union grid (`unionized`) and a log-bucket
//! index (`hashed`) were tried, measured and removed (DESIGN.md §4).

use crate::{CrossSectionLibrary, MicroXs, XsHints};

/// Which lookup strategy the transport drivers use. Solves run
/// [`LookupStrategy::Hinted`]; `binary` is set in code, as the reference
/// and for the paper's end-to-end comparison (no front door selects it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LookupStrategy {
    /// Fresh binary search per table per lookup.
    Binary,
    /// Linear walk from the particle's cached bin index (paper §VI-A).
    #[default]
    Hinted,
}

impl LookupStrategy {
    /// All strategies, in benchmarking order.
    pub const ALL: [LookupStrategy; 2] = [LookupStrategy::Binary, LookupStrategy::Hinted];

    /// Stable lower-case name (used by figure output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LookupStrategy::Binary => "binary",
            LookupStrategy::Hinted => "hinted",
        }
    }
}

/// Binary search in both tables — one search on a shared grid. Unlike
/// [`CrossSectionLibrary::lookup_binary`] it leaves the hints at the
/// containing bins, so strategies stay interchangeable mid-run.
#[inline]
pub(crate) fn binary(lib: &CrossSectionLibrary, e: f64, hints: &mut XsHints) -> (MicroXs, u32) {
    *hints = lib.bins_binary(e);
    let micro = MicroXs {
        absorb_barns: lib.absorb.value_at_bin(e, hints.absorb as usize),
        scatter_barns: lib.scatter.value_at_bin(e, hints.scatter as usize),
    };
    (micro, 0)
}

/// The paper's cached linear search: walk each table from its hint — one
/// walk on a shared grid when the hints agree.
#[inline]
pub(crate) fn hinted(lib: &CrossSectionLibrary, e: f64, hints: &mut XsHints) -> (MicroXs, u32) {
    let ((absorb_barns, scatter_barns), steps) = lib.lookup_counted(e, hints);
    let micro = MicroXs {
        absorb_barns,
        scatter_barns,
    };
    (micro, steps)
}

/// The batched form of a per-lane strategy: one scalar lookup per lane,
/// reading and writing the lane's hints. Returns the total steps walked.
#[inline]
pub(crate) fn per_lane(
    energies: &[f64],
    hints_absorb: &mut [u32],
    hints_scatter: &mut [u32],
    out_absorb: &mut [f64],
    out_scatter: &mut [f64],
    mut one: impl FnMut(f64, &mut XsHints) -> (MicroXs, u32),
) -> u64 {
    let mut steps = 0u64;
    for i in 0..energies.len() {
        let mut hints = XsHints {
            absorb: hints_absorb[i],
            scatter: hints_scatter[i],
        };
        let (micro, s) = one(energies[i], &mut hints);
        hints_absorb[i] = hints.absorb;
        hints_scatter[i] = hints.scatter;
        out_absorb[i] = micro.absorb_barns;
        out_scatter[i] = micro.scatter_barns;
        steps += u64::from(s);
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::CrossSection;

    fn lib(n: usize, seed: u64) -> CrossSectionLibrary {
        CrossSectionLibrary::synthetic(n, seed)
    }

    /// A deliberately mismatched pair of grids: different point counts and
    /// different, partially overlapping energy ranges.
    fn mismatched_lib() -> CrossSectionLibrary {
        let a = CrossSection::new(
            (0..40).map(|i| 0.5 * 1.4f64.powi(i)).collect(),
            (0..40).map(|i| 10.0 + (i as f64).sin().abs()).collect(),
        );
        let s = CrossSection::new(
            (0..23).map(|i| 2.0 * 1.9f64.powi(i)).collect(),
            (0..23)
                .map(|i| 5.0 + (i as f64 * 0.7).cos().abs())
                .collect(),
        );
        CrossSectionLibrary::from_tables(a, s)
    }

    fn probe_energies(lib: &CrossSectionLibrary) -> Vec<f64> {
        let (lo, hi) = lib.absorb.energy_range();
        let (slo, shi) = lib.scatter.energy_range();
        let mut out = vec![
            lo / 10.0,
            lo,
            slo,
            hi,
            shi,
            hi * 10.0,
            f64::MIN_POSITIVE,
            1.0e30,
        ];
        // Dense log sweep across and beyond both ranges.
        let span_lo = lo.min(slo) / 3.0;
        let span_hi = hi.max(shi) * 3.0;
        let m = 4000;
        for i in 0..=m {
            let t = i as f64 / m as f64;
            out.push(span_lo * (span_hi / span_lo).powf(t));
        }
        // Every exact grid point of both tables.
        out.extend_from_slice(lib.absorb.energies());
        out.extend_from_slice(lib.scatter.energies());
        out
    }

    /// The reference every strategy is pinned to: the binary-search
    /// values and the containing (clamped) bins.
    fn reference(lib: &CrossSectionLibrary, e: f64) -> (MicroXs, XsHints) {
        let hints = XsHints {
            absorb: lib.absorb.bin_index_binary(e) as u32,
            scatter: lib.scatter.bin_index_binary(e) as u32,
        };
        (lib.lookup_binary(e), hints)
    }

    fn assert_strategy_matches(lib: &CrossSectionLibrary, strategy: LookupStrategy) {
        for (case, start_hint) in [(0u32, 0u32), (1, 7), (2, u32::MAX)] {
            for &e in &probe_energies(lib) {
                let mut hints = XsHints {
                    absorb: start_hint,
                    scatter: start_hint / 2,
                };
                let (micro, _) = lib.lookup_with(strategy, e, &mut hints);
                let (expect, expect_hints) = reference(lib, e);
                assert_eq!(
                    micro.absorb_barns.to_bits(),
                    expect.absorb_barns.to_bits(),
                    "{strategy:?} absorb differs at E={e} (case {case})"
                );
                assert_eq!(
                    micro.scatter_barns.to_bits(),
                    expect.scatter_barns.to_bits(),
                    "{strategy:?} scatter differs at E={e} (case {case})"
                );
                assert_eq!(
                    hints, expect_hints,
                    "{strategy:?} hint state differs at E={e} (case {case})"
                );
            }
        }
    }

    #[test]
    fn all_backends_agree_bitwise_on_synthetic_tables() {
        for (n, seed) in [(2, 1u64), (3, 2), (17, 3), (257, 4), (4096, 5)] {
            let lib = lib(n, seed);
            for strategy in LookupStrategy::ALL {
                assert_strategy_matches(&lib, strategy);
            }
        }
    }

    #[test]
    fn all_backends_agree_on_mismatched_grids() {
        let lib = mismatched_lib();
        for strategy in LookupStrategy::ALL {
            assert_strategy_matches(&lib, strategy);
        }
    }

    #[test]
    fn out_of_range_clamps_and_hint_state() {
        let lib = lib(512, 9);
        let (lo, hi) = lib.absorb.energy_range();
        for strategy in LookupStrategy::ALL {
            let mut hints = XsHints {
                absorb: 100,
                scatter: 200,
            };
            let (below, _) = lib.lookup_with(strategy, lo / 2.0, &mut hints);
            assert_eq!(below.absorb_barns, lib.absorb.values()[0], "{strategy:?}");
            assert_eq!(hints.absorb, 0, "{strategy:?} low hint");
            assert_eq!(hints.scatter, 0, "{strategy:?} low hint");
            let (above, _) = lib.lookup_with(strategy, hi * 2.0, &mut hints);
            assert_eq!(
                above.absorb_barns,
                *lib.absorb.values().last().unwrap(),
                "{strategy:?}"
            );
            assert_eq!(hints.absorb, (lib.absorb.len() - 2) as u32, "{strategy:?}");
            assert_eq!(
                hints.scatter,
                (lib.scatter.len() - 2) as u32,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn lookup_many_matches_scalar_lookups() {
        let lib = lib(2048, 21);
        let energies: Vec<f64> = (0..500).map(|i| 1.0e-6 * 1.083f64.powi(i)).collect();
        for strategy in LookupStrategy::ALL {
            let n = energies.len();
            let mut ha = vec![3u32; n];
            let mut hs = vec![5u32; n];
            let mut oa = vec![0.0; n];
            let mut os = vec![0.0; n];
            let batch_steps =
                lib.lookup_many_with(strategy, &energies, &mut ha, &mut hs, &mut oa, &mut os);

            let mut scalar_steps = 0u64;
            for i in 0..n {
                let mut hints = XsHints {
                    absorb: 3,
                    scatter: 5,
                };
                let (micro, s) = lib.lookup_with(strategy, energies[i], &mut hints);
                scalar_steps += u64::from(s);
                assert_eq!(
                    micro.absorb_barns.to_bits(),
                    oa[i].to_bits(),
                    "{strategy:?}"
                );
                assert_eq!(
                    micro.scatter_barns.to_bits(),
                    os[i].to_bits(),
                    "{strategy:?}"
                );
                assert_eq!(
                    (hints.absorb, hints.scatter),
                    (ha[i], hs[i]),
                    "{strategy:?}"
                );
            }
            // Both strategies walk from the per-lane hints, which the
            // scalar replay above resets each time; steps must still match
            // because the batched loop does exactly the same.
            assert_eq!(batch_steps, scalar_steps, "{strategy:?}");
        }
    }
}
