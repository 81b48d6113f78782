//! Synthetic ("dummy") cross-section table generation.
//!
//! The paper's tables "mimic the capture and scatter cross sections for a
//! single material" (§IV-D) without being real nuclear data. The shapes
//! generated here follow the textbook behaviour of neutron cross sections:
//!
//! * **capture**: a `1/v` (i.e. `1/sqrt(E)`) baseline with a forest of
//!   resonance peaks in the epithermal range — large at thermal energies,
//!   small in the MeV range;
//! * **elastic scatter**: approximately flat with gentle structure.
//!
//! Magnitudes are calibrated (see `DESIGN.md` §4) so the paper's test
//! problems behave as described: with the `scatter` problem's density of
//! 1e3 kg/m^3 the mean free path at 1 MeV is smaller than a 4000^2-mesh
//! cell, making the problem collision-dominated, while the `stream`
//! density of 1e-30 kg/m^3 makes collisions unobservable.
//!
//! Generation is deterministic: the resonance structure comes from the
//! Threefry CBRNG, so a `(n_points, seed)` pair always produces the same
//! tables on every platform. Both tables of a material are built in one
//! pass over one grid ([`synthetic_tables`]; `DESIGN.md` §4 "How a table
//! is built").

use crate::table::CrossSection;
use crate::CrossSectionLibrary;
use neutral_rng::{CounterStream, Threefry2x64};

/// Parameters of the synthetic tables.
#[derive(Clone, Debug)]
pub struct SynthParams {
    /// Lowest tabulated energy (eV).
    pub e_min_ev: f64,
    /// Highest tabulated energy (eV).
    pub e_max_ev: f64,
    /// Capture cross section at 1 MeV (barns) before resonances.
    pub capture_at_1mev_barns: f64,
    /// Elastic scatter baseline (barns).
    pub scatter_base_barns: f64,
    /// Number of capture resonances.
    pub n_resonances: usize,
    /// Resonances are placed log-uniformly within `[res_lo_ev, res_hi_ev]`.
    pub res_lo_ev: f64,
    /// Upper end of the resonance region (eV).
    pub res_hi_ev: f64,
}

impl Default for SynthParams {
    fn default() -> Self {
        Self {
            e_min_ev: 1.0e-5,
            e_max_ev: 2.0e7,
            capture_at_1mev_barns: 1.0e3,
            scatter_base_barns: 1.0e4,
            n_resonances: 24,
            res_lo_ev: 1.0,
            res_hi_ev: 1.0e5,
        }
    }
}

/// Log-spaced energy grid with `n` points over the parameterised range.
fn energy_grid(n: usize, p: &SynthParams) -> Vec<f64> {
    assert!(n >= 2, "need at least two grid points");
    let l0 = p.e_min_ev.ln();
    let l1 = p.e_max_ev.ln();
    (0..n)
        .map(|i| (l0 + (l1 - l0) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

/// One Lorentzian resonance in log-energy space.
struct Resonance {
    /// log of the resonance energy
    log_e: f64,
    /// peak amplitude as a multiple of the local baseline
    amplitude: f64,
    /// width in log-energy units
    width: f64,
}

fn resonance_forest(seed: u64, p: &SynthParams) -> Vec<Resonance> {
    let rng = Threefry2x64::new([seed, 0x007e_507a_6ce5]);
    let mut counter = 0u64;
    let mut stream = CounterStream::new(&rng, 0);
    let (lo, hi) = (p.res_lo_ev.ln(), p.res_hi_ev.ln());
    (0..p.n_resonances)
        .map(|_| {
            let u_pos = stream.next_f64(&mut counter);
            let u_amp = stream.next_f64(&mut counter);
            let u_wid = stream.next_f64(&mut counter);
            Resonance {
                log_e: lo + (hi - lo) * u_pos,
                amplitude: 5.0 + 95.0 * u_amp * u_amp, // 5x..100x, skewed low
                width: 0.02 + 0.1 * u_wid,
            }
        })
        .collect()
}

/// The `(phase, freq)` of the handful of smooth ripple modes shared
/// across a scatter table.
fn ripple_modes(seed: u64) -> Vec<(f64, f64)> {
    let rng = Threefry2x64::new([seed, 0x05ca_77e2]);
    let mut counter = 0u64;
    let mut stream = CounterStream::new(&rng, 0);
    (0..6)
        .map(|_| {
            let phase = 2.0 * std::f64::consts::PI * stream.next_f64(&mut counter);
            let freq = 0.3 + 1.2 * stream.next_f64(&mut counter);
            (phase, freq)
        })
        .collect()
}

/// Generate both tables of one material on one log-spaced grid of
/// `n_points` energies:
///
/// * **capture** — a `1/v` baseline times `1 +` a sum of Lorentzian
///   resonances drawn from `seed`;
/// * **elastic scatter** — a flat baseline with a mild ripple drawn from
///   `seed ^ 0x5eed_5eed` and a gentle high-energy roll-off.
///
/// The grid and every point's `ln` are computed once for both tables, and
/// the resonance sum runs resonance-major (one resonance over every point,
/// then the next), so its two divides per term run over whole columns.
/// Each point still adds the same terms in the same order as a per-point
/// sum would, with exactly rounded `/` and `sqrt` and the same libm calls
/// on the same arguments, so every value keeps its bits.
#[must_use]
pub fn synthetic_tables(n_points: usize, seed: u64, p: &SynthParams) -> CrossSectionLibrary {
    let energy = energy_grid(n_points, p);
    let log_e: Vec<f64> = energy.iter().map(|e| e.ln()).collect();

    // Every term is positive, so a point's first `+=` yields that term
    // exactly: the zero start changes no bit of the sum.
    let mut boost = vec![0.0; n_points];
    for r in resonance_forest(seed, p) {
        for (b, &l) in boost.iter_mut().zip(&log_e) {
            let d = (l - r.log_e) / r.width;
            *b += r.amplitude / (1.0 + d * d);
        }
    }
    // The two work columns become the two value columns in place: every
    // fresh column (240 KB at 30 000 points) costs the build page faults.
    let mut capture = boost;
    for (v, &e) in capture.iter_mut().zip(&energy) {
        // 1/v baseline anchored at 1 MeV.
        *v = p.capture_at_1mev_barns * (1.0e6 / e).sqrt() * (1.0 + *v);
    }
    let modes = ripple_modes(seed ^ 0x5eed_5eed);
    let mut scatter = log_e;
    for (v, &e) in scatter.iter_mut().zip(&energy) {
        let log_e = *v;
        let ripple: f64 = modes
            .iter()
            .map(|&(phase, freq)| 0.03 * (freq * log_e + phase).sin())
            .sum();
        // Roll off above ~5 MeV, as real elastic cross sections do.
        let rolloff = 1.0 / (1.0 + (e / 5.0e6).powi(2));
        *v = (p.scatter_base_barns * (1.0 + ripple) * (0.25 + 0.75 * rolloff)).max(1.0);
    }

    CrossSectionLibrary::from_tables(
        CrossSection::new(energy.clone(), capture),
        CrossSection::new(energy, scatter),
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{macroscopic_per_m, number_density, MaterialKind, MaterialSpec};

    /// The per-point capture generator [`synthetic_tables`] replaced,
    /// kept verbatim as the oracle of the one-pass build.
    fn synthetic_capture(n_points: usize, seed: u64, p: &SynthParams) -> CrossSection {
        let grid = energy_grid(n_points, p);
        let resonances = resonance_forest(seed, p);
        let points: Vec<(f64, f64)> = grid
            .into_iter()
            .map(|e| {
                // 1/v baseline anchored at 1 MeV.
                let base = p.capture_at_1mev_barns * (1.0e6 / e).sqrt();
                let log_e = e.ln();
                let resonance_boost: f64 = resonances
                    .iter()
                    .map(|r| {
                        let d = (log_e - r.log_e) / r.width;
                        r.amplitude / (1.0 + d * d)
                    })
                    .sum();
                (e, base * (1.0 + resonance_boost))
            })
            .collect();
        let (energy, value) = points.into_iter().unzip();
        CrossSection::new(energy, value)
    }

    /// The per-point scatter generator [`synthetic_tables`] replaced,
    /// kept verbatim as the oracle of the one-pass build.
    fn synthetic_scatter(n_points: usize, seed: u64, p: &SynthParams) -> CrossSection {
        let grid = energy_grid(n_points, p);
        let rng = Threefry2x64::new([seed, 0x05ca_77e2]);
        let mut counter = 0u64;
        let mut stream = CounterStream::new(&rng, 0);
        // A handful of smooth ripple modes shared across the table.
        let modes: Vec<(f64, f64)> = (0..6)
            .map(|_| {
                let phase = 2.0 * std::f64::consts::PI * stream.next_f64(&mut counter);
                let freq = 0.3 + 1.2 * stream.next_f64(&mut counter);
                (phase, freq)
            })
            .collect();
        let points: Vec<(f64, f64)> = grid
            .into_iter()
            .map(|e| {
                let log_e = e.ln();
                let ripple: f64 = modes
                    .iter()
                    .map(|&(phase, freq)| 0.03 * (freq * log_e + phase).sin())
                    .sum();
                // Roll off above ~5 MeV, as real elastic cross sections do.
                let rolloff = 1.0 / (1.0 + (e / 5.0e6).powi(2));
                let v = p.scatter_base_barns * (1.0 + ripple) * (0.25 + 0.75 * rolloff);
                (e, v.max(1.0))
            })
            .collect();
        let (energy, value) = points.into_iter().unzip();
        CrossSection::new(energy, value)
    }

    pub(crate) fn assert_same_bits(what: &str, got: &CrossSection, want: &CrossSection) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (column, g, w) in [
            ("energy", got.energies(), want.energies()),
            ("value", got.values(), want.values()),
        ] {
            for (i, (a, b)) in g.iter().zip(w).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{what}: {column}[{i}] {a:e} vs {b:e}"
                );
            }
        }
    }

    /// The one-pass build is the per-point build, bit for bit, through
    /// both doors that synthesize tables: every kind, table sizes from
    /// the minimum to the product default, and seeds at both ends of
    /// `u64`.
    #[test]
    fn one_pass_tables_are_the_per_point_tables_bit_for_bit() {
        for n in [2, 3, 17, 64, 513, 4_096, 30_000] {
            for seed in [0, 1, 20_170_905, u64::MAX] {
                for kind in MaterialKind::ALL {
                    let p = kind.synth_params();
                    let lib = MaterialSpec {
                        kind,
                        n_points: n,
                        seed,
                    }
                    .build();
                    let what = format!("{kind} n={n} seed={seed}");
                    let capture = synthetic_capture(n, seed, &p);
                    let scatter = synthetic_scatter(n, seed ^ 0x5eed_5eed, &p);
                    assert_same_bits(&format!("{what} capture"), &lib.absorb, &capture);
                    assert_same_bits(&format!("{what} scatter"), &lib.scatter, &scatter);
                    if kind == MaterialKind::Reference {
                        let lib = CrossSectionLibrary::synthetic(n, seed);
                        assert_same_bits(
                            &format!("{what} synthetic capture"),
                            &lib.absorb,
                            &capture,
                        );
                        assert_same_bits(
                            &format!("{what} synthetic scatter"),
                            &lib.scatter,
                            &scatter,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = SynthParams::default();
        let a = synthetic_tables(512, 42, &p);
        let b = synthetic_tables(512, 42, &p);
        assert_eq!((&a.absorb, &a.scatter), (&b.absorb, &b.scatter));
        let c = synthetic_tables(512, 43, &p);
        assert_ne!(a.absorb, c.absorb);
        assert_ne!(a.scatter, c.scatter);
    }

    #[test]
    fn capture_follows_one_over_v_envelope() {
        let p = SynthParams::default();
        let t = synthetic_tables(4096, 1, &p).absorb;
        // Above the resonance region the 1/v trend must dominate: compare
        // 1 MeV and 16 MeV (factor 4 in sqrt).
        let v1 = t.value_binary(1.0e6);
        let v16 = t.value_binary(1.6e7);
        let ratio = v1 / v16;
        assert!((3.0..5.0).contains(&ratio), "1/v ratio {ratio}");
        // Thermal capture is much larger than MeV capture.
        assert!(t.value_binary(1e-3) > 100.0 * v1);
    }

    #[test]
    fn scatter_is_flat_ish() {
        let p = SynthParams::default();
        let t = synthetic_tables(4096, 1, &p).scatter;
        let lo = t.value_binary(1.0);
        let hi = t.value_binary(1.0e6);
        let ratio = lo / hi;
        assert!(
            (0.5..2.0).contains(&ratio),
            "scatter table not flat-ish: {ratio}"
        );
    }

    #[test]
    fn all_values_positive() {
        let p = SynthParams::default();
        let lib = synthetic_tables(2048, 9, &p);
        for t in [&lib.absorb, &lib.scatter] {
            assert!(t.values().iter().all(|&v| v > 0.0 && v.is_finite()));
        }
    }

    #[test]
    fn scatter_problem_is_collision_dominated() {
        // DESIGN.md §4 calibration: at the `scatter` problem's density the
        // 1 MeV mean free path must be no larger than a 4000^2 cell of a
        // 1 m domain (0.25 mm).
        let micro = synthetic_tables(2048, 5, &SynthParams::default()).lookup_binary(1.0e6);
        let sigma_t = macroscopic_per_m(micro.total_barns(), number_density(1.0e3));
        let mfp = 1.0 / sigma_t;
        assert!(mfp < 2.5e-4 * 1.5, "scatter-problem mfp {mfp} m too long");
    }

    #[test]
    fn stream_problem_is_collisionless() {
        let micro = synthetic_tables(2048, 5, &SynthParams::default()).lookup_binary(1.0e6);
        let sigma_t = macroscopic_per_m(micro.total_barns(), number_density(1.0e-30));
        let mfp = 1.0 / sigma_t;
        assert!(mfp > 1.0e20, "stream-problem mfp {mfp} m too short");
    }
}
