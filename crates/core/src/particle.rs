//! Particle state and source sampling.
//!
//! The [`Particle`] record is the paper's preferred CPU layout (§VI-D):
//! one struct per particle, loaded once and worked on for the whole
//! history. Here it is the register bundle a history runs on and the
//! form [`spawn_particles`] samples a population in; populations are
//! stored, checkpointed and shipped as columns,
//! [`crate::soa::ParticleSoA`].

use crate::config::Problem;
use neutral_rng::{dist, CounterStream, Threefry2x64};
use neutral_xs::XsHints;

/// One Monte Carlo particle (record form).
///
/// Mirrors the original mini-app's particle record: position, direction,
/// energy, weight, the two event timers (`dt_to_census`,
/// `mfp_to_collision`), the containing cell, and the cached cross-section
/// table indices. The RNG key/counter pair implements the per-particle
/// counter-based stream (paper §IV-F).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Particle {
    /// x position (m).
    pub x: f64,
    /// y position (m).
    pub y: f64,
    /// x direction cosine (unit vector with `omega_y`).
    pub omega_x: f64,
    /// y direction cosine.
    pub omega_y: f64,
    /// Kinetic energy (eV).
    pub energy: f64,
    /// Statistical weight (paper §IV-E).
    pub weight: f64,
    /// Remaining time to census in this timestep (s).
    pub dt_to_census: f64,
    /// Remaining mean-free-paths until the next collision.
    pub mfp_to_collision: f64,
    /// Containing cell, x index.
    pub cellx: u32,
    /// Containing cell, y index.
    pub celly: u32,
    /// Cached cross-section lookup hints.
    pub xs_hints: XsHints,
    /// Per-particle RNG stream id.
    pub key: u64,
    /// Per-particle RNG draw counter.
    pub rng_counter: u64,
    /// Whether the history has been terminated.
    pub dead: bool,
}

impl Particle {
    /// Linear (row-major) cell index in a mesh with `nx` columns.
    #[inline]
    #[must_use]
    pub fn cell_index(&self, nx: usize) -> usize {
        self.celly as usize * nx + self.cellx as usize
    }

    /// Weighted energy carried by this particle (eV).
    #[inline]
    #[must_use]
    pub fn weighted_energy(&self) -> f64 {
        self.weight * self.energy
    }
}

/// Sample the initial particle population for `problem`.
///
/// Birth draws, in stream order: x, y, direction angle, initial
/// mean-free-paths — four draws per particle, after which the particle's
/// counter is left positioned for its first collision draw.
#[must_use]
pub fn spawn_particles(problem: &Problem) -> Vec<Particle> {
    let rng = Threefry2x64::new([problem.seed, 0]);
    let src = problem.source;
    // Seed the cross-section hints with a binary search into the *birth
    // cell's* material tables: there is no previous lookup to walk from
    // at birth, and walking from index 0 would be a pathological cold
    // start. Every particle is born at one energy, so one search per
    // material serves them all.
    let birth_hints: Vec<XsHints> = problem
        .materials
        .libraries()
        .iter()
        .map(|lib| lib.bins_binary(problem.initial_energy_ev))
        .collect();
    (0..problem.n_particles)
        .map(|id| {
            let key = id as u64;
            let mut counter = 0u64;
            let mut stream = CounterStream::new(&rng, key);
            let x = dist::uniform_range(&mut stream, &mut counter, src.x0, src.x1);
            let y = dist::uniform_range(&mut stream, &mut counter, src.y0, src.y1);
            let (omega_x, omega_y) = dist::isotropic_direction(&mut stream, &mut counter);
            let mfp = dist::exponential_mfp(&mut stream, &mut counter);
            let (cellx, celly) = problem.mesh.locate(x, y);
            let xs_hints = birth_hints[usize::from(problem.mesh.material(cellx, celly))];
            Particle {
                x,
                y,
                omega_x,
                omega_y,
                energy: problem.initial_energy_ev,
                weight: 1.0,
                dt_to_census: problem.dt,
                mfp_to_collision: mfp,
                cellx: cellx as u32,
                celly: celly as u32,
                xs_hints,
                key,
                rng_counter: counter,
                dead: false,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProblemScale, TestCase};
    use crate::soa::{census_energy, ParticleSoA};

    fn problem() -> Problem {
        TestCase::Stream.build(ProblemScale::tiny(), 42)
    }

    #[test]
    fn spawn_count_and_bounds() {
        let p = problem();
        let particles = spawn_particles(&p);
        assert_eq!(particles.len(), p.n_particles);
        for part in &particles {
            assert!(p.source.contains(part.x, part.y));
            let norm = part.omega_x.hypot(part.omega_y);
            assert!((norm - 1.0).abs() < 1e-12);
            assert!(part.mfp_to_collision > 0.0);
            assert_eq!(part.energy, p.initial_energy_ev);
            assert_eq!(part.weight, 1.0);
            assert_eq!(part.rng_counter, 4);
            assert!(!part.dead);
        }
    }

    #[test]
    fn spawn_is_deterministic_in_seed() {
        let p = problem();
        let a = spawn_particles(&p);
        let b = spawn_particles(&p);
        assert_eq!(a, b);

        let mut p2 = problem();
        p2.seed = 43;
        let c = spawn_particles(&p2);
        assert_ne!(a, c);
    }

    #[test]
    fn spawn_cells_match_positions() {
        let p = problem();
        for part in spawn_particles(&p) {
            let (ix, iy) = p.mesh.locate(part.x, part.y);
            assert_eq!((part.cellx as usize, part.celly as usize), (ix, iy));
        }
    }

    #[test]
    fn total_weighted_energy_sums_alive_only() {
        let p = problem();
        let mut soa = ParticleSoA::from_aos(&spawn_particles(&p));
        let full = census_energy(&soa);
        assert!((full - p.n_particles as f64 * p.initial_energy_ev).abs() < 1e-3);
        soa.dead[0] = true;
        let less = census_energy(&soa);
        assert!((full - less - p.initial_energy_ev).abs() < 1e-3);
    }

    #[test]
    fn particles_spread_across_source() {
        let p = problem();
        let particles = spawn_particles(&p);
        let mean_x: f64 = particles.iter().map(|p| p.x).sum::<f64>() / particles.len() as f64;
        let centre = 0.5 * (p.source.x0 + p.source.x1);
        assert!((mean_x - centre).abs() < 0.01);
    }
}
