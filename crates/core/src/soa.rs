//! Structure-of-Arrays particle storage (paper §VI-D): the canonical
//! storage of every solve.
//!
//! The paper compares AoS and SoA particle layouts for the Over-Particles
//! scheme on CPUs and finds AoS faster everywhere: with one thread per
//! history, "each thread loads a cache line for each particle field, and
//! only uses a single item" under SoA, and in C the aliasing between the
//! field arrays keeps history state out of registers. Rust's `&mut`
//! slices are `noalias`, so here a history `load`s its particle once,
//! tracks it in registers and `store`s it back, and the penalty does not
//! appear (`fig05_soa_aos` measures the rows). Both drivers, the
//! checkpoint and the shard wire read these columns. Storage order is key
//! order: particle `i` of a population starting at global index `base`
//! has `key == base + i`, always. AoS [`Particle`] records exist only at
//! the serialization edges ([`ParticleSoA::from_aos`] /
//! [`ParticleSoA::to_aos`]).

use crate::particle::Particle;
use neutral_xs::XsHints;
use std::ops::Range;

/// Particle population stored as one array per field.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParticleSoA {
    /// x positions (m).
    pub x: Vec<f64>,
    /// y positions (m).
    pub y: Vec<f64>,
    /// x direction cosines.
    pub omega_x: Vec<f64>,
    /// y direction cosines.
    pub omega_y: Vec<f64>,
    /// Kinetic energies (eV).
    pub energy: Vec<f64>,
    /// Statistical weights.
    pub weight: Vec<f64>,
    /// Remaining times to census (s).
    pub dt_to_census: Vec<f64>,
    /// Remaining mean-free-paths to collision.
    pub mfp_to_collision: Vec<f64>,
    /// Containing cell x indices.
    pub cellx: Vec<u32>,
    /// Containing cell y indices.
    pub celly: Vec<u32>,
    /// Cached capture-table hints.
    pub absorb_hint: Vec<u32>,
    /// Cached scatter-table hints.
    pub scatter_hint: Vec<u32>,
    /// RNG stream ids.
    pub key: Vec<u64>,
    /// RNG draw counters.
    pub rng_counter: Vec<u64>,
    /// Termination flags.
    pub dead: Vec<bool>,
}

impl ParticleSoA {
    /// Convert from the AoS layout (one pass over the records).
    #[must_use]
    pub fn from_aos(particles: &[Particle]) -> Self {
        let mut soa = Self::default();
        for p in particles {
            soa.x.push(p.x);
            soa.y.push(p.y);
            soa.omega_x.push(p.omega_x);
            soa.omega_y.push(p.omega_y);
            soa.energy.push(p.energy);
            soa.weight.push(p.weight);
            soa.dt_to_census.push(p.dt_to_census);
            soa.mfp_to_collision.push(p.mfp_to_collision);
            soa.cellx.push(p.cellx);
            soa.celly.push(p.celly);
            soa.absorb_hint.push(p.xs_hints.absorb);
            soa.scatter_hint.push(p.xs_hints.scatter);
            soa.key.push(p.key);
            soa.rng_counter.push(p.rng_counter);
            soa.dead.push(p.dead);
        }
        soa
    }

    /// Convert back to the AoS layout.
    #[must_use]
    pub fn to_aos(&self) -> Vec<Particle> {
        (0..self.len()).map(|i| self.load(i)).collect()
    }

    /// An owned copy of the column sub-range `range` — the input of a
    /// shard attempt, which must outlive a borrow of the whole population.
    #[must_use]
    pub(crate) fn slice(&self, range: Range<usize>) -> Self {
        macro_rules! cut {
            ($($field:ident),+ $(,)?) => {
                Self { $( $field: self.$field[range.clone()].to_vec(), )+ }
            };
        }
        cut!(
            x,
            y,
            omega_x,
            omega_y,
            energy,
            weight,
            dt_to_census,
            mfp_to_collision,
            cellx,
            celly,
            absorb_hint,
            scatter_hint,
            key,
            rng_counter,
            dead,
        )
    }

    /// Number of particles.
    #[must_use]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the population is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Gather particle `i` from the field arrays — the fifteen-array
    /// gather whose cache behaviour the paper discusses.
    #[inline]
    #[must_use]
    pub fn load(&self, i: usize) -> Particle {
        Particle {
            x: self.x[i],
            y: self.y[i],
            omega_x: self.omega_x[i],
            omega_y: self.omega_y[i],
            energy: self.energy[i],
            weight: self.weight[i],
            dt_to_census: self.dt_to_census[i],
            mfp_to_collision: self.mfp_to_collision[i],
            cellx: self.cellx[i],
            celly: self.celly[i],
            xs_hints: XsHints {
                absorb: self.absorb_hint[i],
                scatter: self.scatter_hint[i],
            },
            key: self.key[i],
            rng_counter: self.rng_counter[i],
            dead: self.dead[i],
        }
    }

    /// Scatter particle `i` back into the field arrays.
    #[inline]
    pub fn store(&mut self, i: usize, p: &Particle) {
        self.x[i] = p.x;
        self.y[i] = p.y;
        self.omega_x[i] = p.omega_x;
        self.omega_y[i] = p.omega_y;
        self.energy[i] = p.energy;
        self.weight[i] = p.weight;
        self.dt_to_census[i] = p.dt_to_census;
        self.mfp_to_collision[i] = p.mfp_to_collision;
        self.cellx[i] = p.cellx;
        self.celly[i] = p.celly;
        self.absorb_hint[i] = p.xs_hints.absorb;
        self.scatter_hint[i] = p.xs_hints.scatter;
        self.key[i] = p.key;
        self.rng_counter[i] = p.rng_counter;
        self.dead[i] = p.dead;
    }

    /// A mutable column view of the whole population (the root the
    /// chunked and windowed views split from).
    pub(crate) fn view_mut(&mut self) -> SoAChunkMut<'_> {
        SoAChunkMut {
            x: &mut self.x,
            y: &mut self.y,
            omega_x: &mut self.omega_x,
            omega_y: &mut self.omega_y,
            energy: &mut self.energy,
            weight: &mut self.weight,
            dt_to_census: &mut self.dt_to_census,
            mfp_to_collision: &mut self.mfp_to_collision,
            cellx: &mut self.cellx,
            celly: &mut self.celly,
            absorb_hint: &mut self.absorb_hint,
            scatter_hint: &mut self.scatter_hint,
            key: &mut self.key,
            rng_counter: &mut self.rng_counter,
            dead: &mut self.dead,
        }
    }

    /// Split the population into disjoint mutable chunk views of at most
    /// `chunk` particles each.
    pub fn chunks_mut(&mut self, chunk: usize) -> Vec<SoAChunkMut<'_>> {
        assert!(chunk > 0);
        let mut out = Vec::new();
        let mut view = self.view_mut();
        while view.len() > chunk {
            let (head, tail) = view.split_at_mut(chunk);
            out.push(head);
            view = tail;
        }
        if !view.is_empty() {
            out.push(view);
        }
        out
    }
}

/// A disjoint mutable window over every field array of a [`ParticleSoA`].
pub struct SoAChunkMut<'a> {
    pub(crate) x: &'a mut [f64],
    pub(crate) y: &'a mut [f64],
    pub(crate) omega_x: &'a mut [f64],
    pub(crate) omega_y: &'a mut [f64],
    pub(crate) energy: &'a mut [f64],
    pub(crate) weight: &'a mut [f64],
    pub(crate) dt_to_census: &'a mut [f64],
    pub(crate) mfp_to_collision: &'a mut [f64],
    pub(crate) cellx: &'a mut [u32],
    pub(crate) celly: &'a mut [u32],
    pub(crate) absorb_hint: &'a mut [u32],
    pub(crate) scatter_hint: &'a mut [u32],
    pub(crate) key: &'a mut [u64],
    pub(crate) rng_counter: &'a mut [u64],
    pub(crate) dead: &'a mut [bool],
}

impl<'a> SoAChunkMut<'a> {
    /// Particles in this chunk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether this chunk is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    pub(crate) fn split_at_mut(self, mid: usize) -> (SoAChunkMut<'a>, SoAChunkMut<'a>) {
        macro_rules! split {
            ($field:ident) => {{
                self.$field.split_at_mut(mid)
            }};
        }
        let (x0, x1) = split!(x);
        let (y0, y1) = split!(y);
        let (ox0, ox1) = split!(omega_x);
        let (oy0, oy1) = split!(omega_y);
        let (e0, e1) = split!(energy);
        let (w0, w1) = split!(weight);
        let (dt0, dt1) = split!(dt_to_census);
        let (m0, m1) = split!(mfp_to_collision);
        let (cx0, cx1) = split!(cellx);
        let (cy0, cy1) = split!(celly);
        let (ah0, ah1) = split!(absorb_hint);
        let (sh0, sh1) = split!(scatter_hint);
        let (k0, k1) = split!(key);
        let (rc0, rc1) = split!(rng_counter);
        let (d0, d1) = split!(dead);
        (
            SoAChunkMut {
                x: x0,
                y: y0,
                omega_x: ox0,
                omega_y: oy0,
                energy: e0,
                weight: w0,
                dt_to_census: dt0,
                mfp_to_collision: m0,
                cellx: cx0,
                celly: cy0,
                absorb_hint: ah0,
                scatter_hint: sh0,
                key: k0,
                rng_counter: rc0,
                dead: d0,
            },
            SoAChunkMut {
                x: x1,
                y: y1,
                omega_x: ox1,
                omega_y: oy1,
                energy: e1,
                weight: w1,
                dt_to_census: dt1,
                mfp_to_collision: m1,
                cellx: cx1,
                celly: cy1,
                absorb_hint: ah1,
                scatter_hint: sh1,
                key: k1,
                rng_counter: rc1,
                dead: d1,
            },
        )
    }

    /// Gather local particle `i` from the chunk's field slices.
    ///
    /// Always inlined, with [`Self::store`]: the collision kernel and the
    /// track loop gather once per event, and whether plain `#[inline]`
    /// took a fifteen-column gather turned on how the crate was split
    /// into codegen units. Outlined, it cost ≈ 7 % of the `scatter` Over
    /// Events solve time (512², two workers on a 2-vCPU Xeon).
    #[inline(always)]
    #[must_use]
    pub fn load(&self, i: usize) -> Particle {
        Particle {
            x: self.x[i],
            y: self.y[i],
            omega_x: self.omega_x[i],
            omega_y: self.omega_y[i],
            energy: self.energy[i],
            weight: self.weight[i],
            dt_to_census: self.dt_to_census[i],
            mfp_to_collision: self.mfp_to_collision[i],
            cellx: self.cellx[i],
            celly: self.celly[i],
            xs_hints: XsHints {
                absorb: self.absorb_hint[i],
                scatter: self.scatter_hint[i],
            },
            key: self.key[i],
            rng_counter: self.rng_counter[i],
            dead: self.dead[i],
        }
    }

    /// Scatter local particle `i` back.
    #[inline(always)]
    pub fn store(&mut self, i: usize, p: &Particle) {
        self.x[i] = p.x;
        self.y[i] = p.y;
        self.omega_x[i] = p.omega_x;
        self.omega_y[i] = p.omega_y;
        self.energy[i] = p.energy;
        self.weight[i] = p.weight;
        self.dt_to_census[i] = p.dt_to_census;
        self.mfp_to_collision[i] = p.mfp_to_collision;
        self.cellx[i] = p.cellx;
        self.celly[i] = p.celly;
        self.absorb_hint[i] = p.xs_hints.absorb;
        self.scatter_hint[i] = p.xs_hints.scatter;
        self.key[i] = p.key;
        self.rng_counter[i] = p.rng_counter;
        self.dead[i] = p.dead;
    }
}

/// Total weighted energy of the surviving population (eV) — the
/// conservation budget, and the crate's one census-energy fold.
///
/// Accumulated in storage order, which is key order: a fresh, a resumed
/// and a sharded run all fold here over the same sequence, so this
/// order-sensitive `f64` sum reports the same bits on every path. (An
/// all-dead population folds to `-0.0`, `Iterator::sum`'s empty value.)
#[must_use]
pub fn census_energy(soa: &ParticleSoA) -> f64 {
    (0..soa.len())
        .filter(|&i| !soa.dead[i])
        .map(|i| soa.weight[i] * soa.energy[i])
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProblemScale, TestCase};
    use crate::counters::EventCounters;
    use crate::history::TransportCtx;
    use crate::over_particles::run_sequential;
    use crate::particle::spawn_particles;
    use crate::scheduler::Schedule;
    use crate::sim::Scheme;
    use crate::step::run_step_scheduled;
    use neutral_mesh::tally::SequentialTally;
    use neutral_mesh::{LanePartition, TallyAccum, TallyStrategy};
    use neutral_rng::Threefry2x64;

    #[test]
    fn aos_soa_roundtrip() {
        let problem = TestCase::Csp.build(ProblemScale::tiny(), 5);
        let particles = spawn_particles(&problem);
        let soa = ParticleSoA::from_aos(&particles);
        assert_eq!(soa.len(), particles.len());
        assert_eq!(soa.to_aos(), particles);
    }

    #[test]
    fn chunks_cover_population() {
        let problem = TestCase::Csp.build(ProblemScale::tiny(), 5);
        let particles = spawn_particles(&problem);
        let mut soa = ParticleSoA::from_aos(&particles);
        let n = soa.len();
        let chunks = soa.chunks_mut(7);
        let total: usize = chunks.iter().map(SoAChunkMut::len).sum();
        assert_eq!(total, n);
        assert!(chunks.iter().all(|c| c.len() <= 7));
    }

    /// Run the column lane driver over a fresh population on `threads`
    /// workers into a `strategy` accumulator, returning the final columns,
    /// merged counters and mesh.
    fn run_soa_lanes(
        problem: &crate::config::Problem,
        ctx: &TransportCtx<'_, Threefry2x64>,
        strategy: TallyStrategy,
        threads: usize,
    ) -> (ParticleSoA, EventCounters, Vec<f64>) {
        let mut soa = ParticleSoA::from_aos(&spawn_particles(problem));
        let part = LanePartition::new(soa.len(), 16);
        let accum = TallyAccum::new(strategy, problem.mesh.num_cells(), part.n_lanes);
        let config = (
            Scheme::OverParticles,
            threads,
            Schedule::Dynamic { chunk: 1 },
        );
        let (partials, _) = run_step_scheduled(&mut soa, ctx, config, part, &accum);
        let counters = EventCounters::merge_deterministic(&partials);
        (soa, counters, accum.merge())
    }

    /// Tracking the columns in place walks the record driver's
    /// trajectories: same final particles, same counters — work meters
    /// included — same physics.
    #[test]
    fn soa_driver_matches_aos_physics() {
        let problem = TestCase::Csp.build(ProblemScale::tiny(), 31);
        let rng = Threefry2x64::new([problem.seed, 1]);
        let ctx = TransportCtx {
            mesh: &problem.mesh,
            materials: &problem.materials,
            rng: &rng,
            cfg: &problem.transport,
        };

        let mut aos = spawn_particles(&problem);
        let mut seq_tally = SequentialTally::new(problem.mesh.num_cells());
        let seq_counters = run_sequential(&mut aos, &ctx, &mut seq_tally);

        let (soa, soa_counters, tally) = run_soa_lanes(&problem, &ctx, TallyStrategy::Atomic, 2);

        assert_eq!(soa.to_aos(), aos, "SoA trajectories must match AoS");
        assert_eq!(seq_counters.collisions, soa_counters.collisions);
        assert_eq!(seq_counters.facets, soa_counters.facets);
        assert_eq!(seq_counters.cs_lookups, soa_counters.cs_lookups);
        assert_eq!(seq_counters.density_reads, soa_counters.density_reads);
        assert_eq!(soa_counters.batched_lookups, 0);

        let a = seq_tally.total();
        let b: f64 = tally.iter().sum();
        assert!(((a - b) / a.abs().max(1e-30)).abs() < 1e-9);
    }
}
