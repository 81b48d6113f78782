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
//! tables on every platform. Both tables of a material lie on one grid,
//! and a table's values are computed a block at a time where a lookup
//! first reads them ([`synthetic_tables`]; `DESIGN.md` §4 "How a table
//! is built").

use crate::table::CrossSection;
use crate::CrossSectionLibrary;
use neutral_rng::{CounterStream, Threefry2x64};
use std::sync::{Arc, Mutex};

/// Version of the generator's arithmetic. A synthesized table's content
/// address is its [`Synthesis`] and this number, not its values: bump it
/// whenever a change to this module moves a single table bit.
pub const SYNTH_VERSION: u64 = 1;

/// Parameters of the synthetic tables.
#[derive(Clone, Debug, PartialEq)]
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
fn energy_grid(n: usize, p: &SynthParams) -> Arc<[f64]> {
    assert!(n >= 2, "need at least two grid points");
    let l0 = p.e_min_ev.ln();
    let l1 = p.e_max_ev.ln();
    (0..n)
        .map(|i| (l0 + (l1 - l0) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

/// One Lorentzian resonance in log-energy space.
#[derive(Debug)]
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

/// Which of a material's two tables a synthesized table is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SynthTable {
    /// The capture (absorption) table.
    Capture = 0,
    /// The elastic-scatter table.
    Scatter = 1,
}

/// What a synthesized table is a pure function of, besides its point
/// count and [`SYNTH_VERSION`]: the table, the material's seed and its
/// generator parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct Synthesis {
    /// Capture or scatter.
    pub table: SynthTable,
    /// The material's seed (the scatter table draws from
    /// `seed ^ 0x5eed_5eed`).
    pub seed: u64,
    /// The generator parameters.
    pub params: SynthParams,
}

/// The terms a table's points are built from, drawn once per table.
#[derive(Debug)]
enum Terms {
    Capture(Vec<Resonance>),
    Scatter(Vec<(f64, f64)>),
}

/// A synthesized table's generator: its [`Synthesis`], the terms drawn
/// from it, and the lock its block fills run under.
#[derive(Debug)]
pub(crate) struct Synthesized {
    synthesis: Synthesis,
    terms: Terms,
    pub(crate) lock: Mutex<()>,
}

impl Synthesized {
    pub(crate) fn synthesis(&self) -> &Synthesis {
        &self.synthesis
    }

    /// The values of the grid points `energy` (one block's segment) into
    /// `out`, each exactly as the per-point generators compute it.
    ///
    /// The resonance sum runs resonance-major (one resonance over every
    /// point of the segment, then the next), so its two divides per term
    /// run over whole columns. Each point still adds the same terms in
    /// the same order as a per-point sum would, with exactly rounded `/`
    /// and `sqrt` and the same libm calls on the same arguments, so every
    /// value has the bits of the per-point generators.
    pub(crate) fn fill(&self, energy: &[f64], out: &mut [f64]) {
        let p = &self.synthesis.params;
        for (l, &e) in out.iter_mut().zip(energy) {
            *l = e.ln();
        }
        match &self.terms {
            Terms::Capture(resonances) => {
                // Every term is positive, so a point's first `+=` yields
                // that term exactly: the zero start changes no bit.
                let mut boost = [0.0; crate::table::BLOCK + 1];
                let boost = &mut boost[..out.len()];
                for r in resonances {
                    for (b, &l) in boost.iter_mut().zip(out.iter()) {
                        let d = (l - r.log_e) / r.width;
                        *b += r.amplitude / (1.0 + d * d);
                    }
                }
                for ((v, &e), &b) in out.iter_mut().zip(energy).zip(boost.iter()) {
                    // 1/v baseline anchored at 1 MeV.
                    *v = p.capture_at_1mev_barns * (1.0e6 / e).sqrt() * (1.0 + b);
                }
            }
            Terms::Scatter(modes) => {
                for (v, &e) in out.iter_mut().zip(energy) {
                    let log_e = *v;
                    let ripple: f64 = modes
                        .iter()
                        .map(|&(phase, freq)| 0.03 * (freq * log_e + phase).sin())
                        .sum();
                    // Roll off above ~5 MeV, as real elastic cross
                    // sections do.
                    let rolloff = 1.0 / (1.0 + (e / 5.0e6).powi(2));
                    *v = (p.scatter_base_barns * (1.0 + ripple) * (0.25 + 0.75 * rolloff)).max(1.0);
                }
            }
        }
    }
}

/// Synthesize both tables of one material on one log-spaced grid of
/// `n_points` energies:
///
/// * **capture** — a `1/v` baseline times `1 +` a sum of Lorentzian
///   resonances drawn from `seed`;
/// * **elastic scatter** — a flat baseline with a mild ripple drawn from
///   `seed ^ 0x5eed_5eed` and a gentle high-energy roll-off.
///
/// The grid is computed here, once, and both tables hold it (one
/// allocation, so [`CrossSectionLibrary::from_tables`] knows it shared
/// without comparing points), because every lookup searches it. The
/// values are not: each table fills a block of its points the first time
/// a lookup reads it, with the bits an eager build would have stored.
/// What is drawn per table (the resonance forest, the ripple modes) is
/// drawn here, once.
#[must_use]
pub fn synthetic_tables(n_points: usize, seed: u64, p: &SynthParams) -> CrossSectionLibrary {
    let energy = energy_grid(n_points, p);
    let table = |table: SynthTable, terms: Terms| Synthesized {
        synthesis: Synthesis {
            table,
            seed,
            params: p.clone(),
        },
        terms,
        lock: Mutex::new(()),
    };
    let capture = table(
        SynthTable::Capture,
        Terms::Capture(resonance_forest(seed, p)),
    );
    let scatter = table(
        SynthTable::Scatter,
        Terms::Scatter(ripple_modes(seed ^ 0x5eed_5eed)),
    );
    CrossSectionLibrary::from_tables(
        CrossSection::synthesized(Arc::clone(&energy), capture),
        CrossSection::synthesized(energy, scatter),
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::table::{lerp_segment, BLOCK};
    use crate::{macroscopic_per_m, number_density, MaterialKind, MaterialSpec};

    /// The per-point capture generator [`synthetic_tables`] replaced,
    /// kept verbatim as the oracle of the one-pass build.
    fn synthetic_capture(n_points: usize, seed: u64, p: &SynthParams) -> CrossSection {
        let grid = energy_grid(n_points, p);
        let resonances = resonance_forest(seed, p);
        let points: Vec<(f64, f64)> = grid
            .iter()
            .map(|&e| {
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
            .iter()
            .map(|&e| {
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
            ("value", &got.values(), &want.values()),
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

    /// A fixed shuffle of `0..n` (xorshift Fisher–Yates).
    fn shuffled(n: usize, mut state: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for j in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(j, (state % (j as u64 + 1)) as usize);
        }
        order
    }

    /// Table `got` read in `order` through its one-value accessor, and
    /// interpolated across every block edge *before* anything else is
    /// read, is the dense table `want`, bit for bit.
    fn assert_reads_bits(what: &str, got: &CrossSection, want: &CrossSection, order: &[usize]) {
        assert_eq!(got.energies().len(), want.len(), "{what}: length");
        let (wg, wv) = (want.energies(), want.values());
        for edge in (BLOCK..want.len()).step_by(BLOCK) {
            for i in [edge - 1, edge.min(want.len() - 2)] {
                let e = 0.5 * (wg[i] + wg[i + 1]);
                let expect = lerp_segment(e, wg[i], wg[i + 1], wv[i], wv[i + 1]);
                let lerp = got.lerp(i, e);
                assert_eq!(lerp.to_bits(), expect.to_bits(), "{what}: lerp in bin {i}");
            }
        }
        for &k in order {
            let (a, b) = (got.value(k), wv[k]);
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: value[{k}] {a:e} vs {b:e}"
            );
            let (a, b) = (got.energies()[k], wg[k]);
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: energy[{k}] {a:e} vs {b:e}"
            );
        }
        assert_eq!(got.points_filled(), want.len(), "{what}: every point read");
    }

    /// Lazy tables are the per-point build, bit for bit, through both
    /// doors that synthesize tables: every kind, table sizes around one
    /// block and at the product default, and seeds at both ends of `u64`,
    /// read in a shuffled order after an interpolation across every
    /// block edge.
    #[test]
    fn lazy_tables_are_the_per_point_tables_bit_for_bit() {
        for n in [2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 30_000] {
            for seed in [0, 1, 20_170_905, u64::MAX] {
                let order = shuffled(n, seed | 1);
                for kind in MaterialKind::ALL {
                    let p = kind.synth_params();
                    let what = format!("{kind} n={n} seed={seed}");
                    let capture = synthetic_capture(n, seed, &p);
                    let scatter = synthetic_scatter(n, seed ^ 0x5eed_5eed, &p);
                    let fresh = synthetic_tables(n, seed, &p);
                    assert_reads_bits(&format!("{what} capture"), &fresh.absorb, &capture, &order);
                    assert_reads_bits(&format!("{what} scatter"), &fresh.scatter, &scatter, &order);
                    let lib = MaterialSpec {
                        kind,
                        n_points: n,
                        seed,
                    }
                    .build();
                    assert_same_bits(&format!("{what} spec capture"), &lib.absorb, &capture);
                    assert_same_bits(&format!("{what} spec scatter"), &lib.scatter, &scatter);
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

    /// Readers racing on one fresh library — each reading every point of
    /// both tables in its own order, all released at once — converge on
    /// the per-point bits. Eight fresh libraries per thread count, so a
    /// block published before its values shows.
    #[test]
    fn racing_readers_converge_on_the_same_bits() {
        let n = 30_000;
        for threads in [2, 3, 7] {
            let seed = 0x7ace + threads as u64;
            let p = MaterialKind::Fuel.synth_params();
            let want = [
                synthetic_capture(n, seed, &p),
                synthetic_scatter(n, seed ^ 0x5eed_5eed, &p),
            ];
            let bits = want.each_ref().map(|t| t.values());
            let orders: Vec<_> = (0..threads)
                .map(|t| shuffled(n, 0x9e37 + t as u64))
                .collect();
            for round in 0..8 {
                let lib = synthetic_tables(n, seed, &p);
                let tables = [&lib.absorb, &lib.scatter];
                let start = std::sync::Barrier::new(threads);
                std::thread::scope(|s| {
                    for order in &orders {
                        let (tables, bits, start) = (&tables, &bits, &start);
                        s.spawn(move || {
                            start.wait();
                            for &k in order {
                                for (table, want) in tables.iter().zip(bits) {
                                    let (a, b) = (table.value(k), want[k]);
                                    let what = format!("{threads} threads, round {round}: [{k}]");
                                    assert_eq!(a.to_bits(), b.to_bits(), "{what}");
                                }
                            }
                        });
                    }
                });
                for (table, want) in tables.into_iter().zip(&want) {
                    assert_same_bits(&format!("{threads} threads, round {round}"), table, want);
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
