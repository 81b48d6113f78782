//! Particle state and source sampling.
//!
//! The Array-of-Structures layout here is the paper's preferred CPU layout
//! (§VI-D): one cache-resident struct per particle, loaded once and worked
//! on for the whole history. The Structure-of-Arrays alternative lives in
//! [`crate::soa`].

use crate::config::Problem;
use neutral_rng::{dist, CounterStream, Threefry2x64};
use neutral_xs::XsHints;

/// One Monte Carlo particle (AoS layout).
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
            // Seed the cross-section hints with a binary search into the
            // *birth cell's* material tables: there is no previous lookup
            // to walk from at birth, and walking from index 0 would be a
            // pathological cold start.
            let lib = problem
                .materials
                .library(problem.mesh.material(cellx, celly));
            let xs_hints = XsHints {
                absorb: lib.absorb.bin_index_binary(problem.initial_energy_ev) as u32,
                scatter: lib.scatter.bin_index_binary(problem.initial_energy_ev) as u32,
            };
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

/// Energy-band key of the regroup/sort stages: the exponent plus the top
/// 8 mantissa bits, monotone for the positive energies in play (~0.4%
/// bands) — the same banding the [`crate::config::SortPolicy`] lane sort
/// uses.
#[inline]
#[must_use]
pub fn energy_band(energy_ev: f64) -> u32 {
    (energy_ev.to_bits() >> 44) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProblemScale, RegroupPolicy, TestCase};
    use crate::scheduler::Schedule;
    use crate::soa::{census_energy, regroup_soa_parallel, ParticleSoA};

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
        let full = census_energy(&soa, None);
        assert!((full - p.n_particles as f64 * p.initial_energy_ev).abs() < 1e-3);
        soa.dead[0] = true;
        let less = census_energy(&soa, None);
        assert!((full - less - p.initial_energy_ev).abs() < 1e-3);
    }

    /// Regroup `particles` in `lane_size` blocks on `workers` workers,
    /// returning the regrouped records and whether anything moved.
    fn regroup(
        particles: &[Particle],
        policy: RegroupPolicy,
        nx: usize,
        lane_size: usize,
        workers: usize,
        schedule: Schedule,
    ) -> (Vec<Particle>, bool) {
        let mut soa = ParticleSoA::from_aos(particles);
        let moved = regroup_soa_parallel(
            &mut soa,
            policy,
            nx,
            lane_size,
            workers,
            schedule,
            &mut Vec::new(),
        );
        (soa.to_aos(), moved)
    }

    const SERIAL: Schedule = Schedule::Static { chunk: None };

    #[test]
    fn regroup_groups_within_lanes_and_keeps_identity() {
        let p = problem();
        let nx = p.mesh.nx();
        let mut original = spawn_particles(&p);
        let n = original.len();
        // Kill a scattered subset and scramble cells so grouping is
        // non-trivial.
        for (i, part) in original.iter_mut().enumerate() {
            if i % 3 == 0 {
                part.dead = true;
            }
            part.cellx = (i as u32 * 7) % 11;
            part.celly = (i as u32 * 3) % 5;
        }
        let lane_size = 16;
        for policy in [
            RegroupPolicy::ByAlive,
            RegroupPolicy::ByCell,
            RegroupPolicy::ByEnergyBand,
        ] {
            let (pop, moved) = regroup(&original, policy, nx, lane_size, 1, SERIAL);
            assert!(moved, "{policy:?}");
            let mut start = 0;
            while start < n {
                let end = (start + lane_size).min(n);
                let lane = &pop[start..end];
                // Same multiset of records (identity travels with the
                // particle and never crosses a lane boundary)...
                let mut keys: Vec<u64> = lane.iter().map(|p| p.key).collect();
                keys.sort_unstable();
                let expect: Vec<u64> = (start as u64..end as u64).collect();
                assert_eq!(keys, expect, "{policy:?}: lane {start}..{end} membership");
                for part in lane {
                    assert_eq!(
                        *part, original[part.key as usize],
                        "{policy:?}: record moved intact"
                    );
                }
                // ...grouped by the policy key, dead last, stable within
                // equal groups (ascending key).
                let group = |p: &Particle| match policy {
                    RegroupPolicy::ByAlive => u64::from(p.dead),
                    RegroupPolicy::ByCell => {
                        if p.dead {
                            u64::MAX
                        } else {
                            p.cell_index(nx) as u64
                        }
                    }
                    _ => {
                        if p.dead {
                            u64::MAX
                        } else {
                            u64::from(energy_band(p.energy))
                        }
                    }
                };
                for w in lane.windows(2) {
                    let (ga, gb) = (group(&w[0]), group(&w[1]));
                    assert!(ga <= gb, "{policy:?}: lane not grouped");
                    if ga == gb {
                        assert!(w[0].key < w[1].key, "{policy:?}: equal group not stable");
                    }
                }
                start = end;
            }
        }
        // Off and an already-grouped lane report no movement.
        let (pop, moved) = regroup(&original, RegroupPolicy::Off, nx, lane_size, 1, SERIAL);
        assert!(!moved);
        assert_eq!(pop, original);
        let (grouped, _) = regroup(&original, RegroupPolicy::ByAlive, nx, lane_size, 1, SERIAL);
        let (again, moved) = regroup(&grouped, RegroupPolicy::ByAlive, nx, lane_size, 1, SERIAL);
        assert!(!moved);
        assert_eq!(again, grouped);
    }

    #[test]
    fn parallel_regroup_matches_serial_for_any_worker_count() {
        let p = problem();
        let nx = p.mesh.nx();
        let mut original = spawn_particles(&p);
        for (i, part) in original.iter_mut().enumerate() {
            part.dead = i % 5 == 0;
            part.cellx = (i as u32 * 13) % 17;
            part.celly = (i as u32 * 7) % 9;
        }
        let lane_size = 16;
        for policy in [
            RegroupPolicy::ByAlive,
            RegroupPolicy::ByCell,
            RegroupPolicy::ByEnergyBand,
        ] {
            let (serial, moved) = regroup(&original, policy, nx, lane_size, 1, SERIAL);
            for workers in [1usize, 2, 7] {
                for schedule in [
                    Schedule::Static { chunk: None },
                    Schedule::Dynamic { chunk: 16 },
                    Schedule::Guided { min_chunk: 2 },
                ] {
                    let (par, par_moved) =
                        regroup(&original, policy, nx, lane_size, workers, schedule);
                    assert_eq!(par_moved, moved, "{policy:?}/{workers}/{schedule:?}");
                    assert_eq!(par, serial, "{policy:?}/{workers}/{schedule:?}");
                }
            }
        }
        // Off injects nothing regardless of worker count.
        let (par, moved) = regroup(
            &original,
            RegroupPolicy::Off,
            nx,
            lane_size,
            4,
            Schedule::Dynamic { chunk: 1 },
        );
        assert!(!moved);
        assert_eq!(par, original);
    }

    #[test]
    fn ordered_energy_matches_identity_order() {
        let p = problem();
        let mut particles = spawn_particles(&p);
        for (i, part) in particles.iter_mut().enumerate() {
            // Distinct magnitudes so summation order matters in f64.
            part.energy = 10f64.powi((i % 13) as i32 - 6);
            part.dead = i % 4 == 0;
        }
        let baseline = census_energy(&ParticleSoA::from_aos(&particles), None);
        let (pop, _) = regroup(
            &particles,
            RegroupPolicy::ByEnergyBand,
            p.mesh.nx(),
            8,
            1,
            SERIAL,
        );
        let mut order = vec![0u32; pop.len()];
        for (pos, part) in pop.iter().enumerate() {
            order[part.key as usize] = pos as u32;
        }
        let pop = ParticleSoA::from_aos(&pop);
        let ordered = census_energy(&pop, Some(&order));
        assert_eq!(
            ordered.to_bits(),
            baseline.to_bits(),
            "identity-order fold must reproduce the unregrouped bits"
        );
        // Physical-order fold over the regrouped population generally
        // does NOT (that is the hazard the ordered fold exists for).
        let physical = census_energy(&pop, None);
        assert!((physical - baseline).abs() <= 1e-9 * baseline.abs());
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
