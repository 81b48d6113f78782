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
//! checkpoint and the shard wire read these columns: the column codec
//! below writes each column as one little-endian run (DESIGN.md §19,
//! "Columns are canonical, on disk and on the wire too"). Storage order
//! is key order: particle `i` of a population starting at global index
//! `base` has `key == base + i`, always.

use crate::particle::Particle;
use neutral_xs::XsHints;
use std::ops::Range;

/// Apply the macro `$m` to the fifteen column names, in wire order: the
/// one list the views, copies, codec and population check expand.
macro_rules! columns {
    ($m:ident) => {
        $m! {
            x, y, omega_x, omega_y, energy, weight, dt_to_census, mfp_to_collision,
            cellx, celly, absorb_hint, scatter_hint, key, rng_counter, dead
        }
    };
}

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
            ($($field:ident),+) => {
                Self { $( $field: self.$field[range.clone()].to_vec(), )+ }
            };
        }
        columns!(cut)
    }

    /// Overwrite particles `base..base + src.len()` with `src`, column by
    /// column — how the shard coordinator installs a decoded result.
    pub(crate) fn write_at(&mut self, base: usize, src: &Self) {
        let range = base..base + src.len();
        macro_rules! copy {
            ($($field:ident),+) => {
                $( self.$field[range.clone()].copy_from_slice(&src.$field); )+
            };
        }
        columns!(copy);
    }

    /// Bytes one particle takes in the column codec: one element of every
    /// column (97).
    #[must_use]
    pub(crate) fn wire_len_per_particle() -> usize {
        let soa = Self::default();
        macro_rules! sum {
            ($($field:ident),+) => { 0 $( + wire_len_of(&soa.$field) )+ };
        }
        columns!(sum)
    }

    /// Append every column as one little-endian run, in `columns!`
    /// order — the particle block of `NEUTCKPT` and `NEUTSHRD`.
    pub(crate) fn put_columns(&self, out: &mut Vec<u8>) {
        macro_rules! put {
            ($($field:ident),+) => { $( put_column(out, &self.$field); )+ };
        }
        columns!(put);
    }

    /// Decode `n` particles written by [`Self::put_columns`] from `bytes`,
    /// which must hold exactly `n` × [`Self::wire_len_per_particle`]
    /// bytes (callers check the count against the payload first). A
    /// `dead` byte other than 0 or 1 is refused: a `bool` column cannot
    /// hold it. Each column is one allocation no larger than its run.
    pub(crate) fn get_columns(bytes: &[u8], n: usize) -> Result<Self, String> {
        debug_assert_eq!(bytes.len(), n * Self::wire_len_per_particle());
        let mut rest = bytes;
        macro_rules! get {
            ($($field:ident),+) => {
                Ok(Self { $( $field: get_column(&mut rest, n, stringify!($field))?, )+ })
            };
        }
        columns!(get)
    }

    /// Check a population that comes from outside the solve — a resumed
    /// checkpoint, a reloaded shard spill, a decoded shard result —
    /// before a kernel indexes the mesh through it: `count` particles in
    /// columns of equal length, keys `base..base + count` in storage
    /// order (DESIGN.md §7), and every cell on the `nx` × `ny` mesh. (The
    /// codec refused `dead` bytes other than 0 and 1 while decoding.)
    /// The kernels read a particle's cell bounds, density and material
    /// through its cell index unchecked, so a population that checksums
    /// correctly but was written for another mesh, permuted or
    /// hand-built ragged fails here, named, not on the first step.
    pub(crate) fn check_population(
        &self,
        base: usize,
        count: usize,
        nx: usize,
        ny: usize,
    ) -> Result<(), String> {
        macro_rules! lens {
            ($($field:ident),+) => { [$( self.$field.len() ),+] };
        }
        let lens = columns!(lens);
        if lens.iter().any(|&len| len != count) {
            return Err(format!(
                "column lengths {lens:?} do not all hold the {count} particles expected"
            ));
        }
        if let Some(i) = (0..count).find(|&i| self.key[i] != (base + i) as u64) {
            return Err(format!(
                "particles are not in key order (particle {i} of the range has key {})",
                self.key[i]
            ));
        }
        let off = |i: &usize| self.cellx[*i] as usize >= nx || self.celly[*i] as usize >= ny;
        if let Some(i) = (0..count).find(off) {
            return Err(format!(
                "particle {i} lies in cell ({}, {}), off the {nx}x{ny} mesh",
                self.cellx[i], self.celly[i]
            ));
        }
        Ok(())
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
        macro_rules! view {
            ($($field:ident),+) => { SoAChunkMut { $( $field: &mut self.$field, )+ } };
        }
        columns!(view)
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
            ($($field:ident),+) => {{
                $( let $field = self.$field.split_at_mut(mid); )+
                (
                    SoAChunkMut { $( $field: $field.0, )+ },
                    SoAChunkMut { $( $field: $field.1, )+ },
                )
            }};
        }
        columns!(split)
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

/// One column element's little-endian wire form.
trait Wire: Copy {
    /// Bytes per element.
    const LEN: usize;
    fn put(self, dst: &mut [u8]);
    /// `None` for bytes no value of the type encodes to.
    fn get(src: &[u8]) -> Option<Self>;
}

macro_rules! wire_int {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            const LEN: usize = std::mem::size_of::<$t>();
            fn put(self, dst: &mut [u8]) {
                dst.copy_from_slice(&self.to_le_bytes());
            }
            fn get(src: &[u8]) -> Option<Self> {
                Some(<$t>::from_le_bytes(src.try_into().ok()?))
            }
        }
    )+};
}
wire_int!(u32, u64);

impl Wire for f64 {
    const LEN: usize = 8;
    fn put(self, dst: &mut [u8]) {
        self.to_bits().put(dst);
    }
    fn get(src: &[u8]) -> Option<Self> {
        u64::get(src).map(f64::from_bits)
    }
}

impl Wire for bool {
    const LEN: usize = 1;
    fn put(self, dst: &mut [u8]) {
        dst[0] = u8::from(self);
    }
    fn get(src: &[u8]) -> Option<Self> {
        match src[0] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

fn wire_len_of<T: Wire>(_: &[T]) -> usize {
    T::LEN
}

/// Append `column` as one run, in one reserve and one pass.
fn put_column<T: Wire>(out: &mut Vec<u8>, column: &[T]) {
    let start = out.len();
    out.resize(start + column.len() * T::LEN, 0);
    for (dst, &v) in out[start..].chunks_exact_mut(T::LEN).zip(column) {
        v.put(dst);
    }
}

/// Split the next `n`-element run off `rest` and decode it.
fn get_column<T: Wire>(rest: &mut &[u8], n: usize, name: &str) -> Result<Vec<T>, String> {
    let (run, tail) = rest.split_at(n * T::LEN);
    *rest = tail;
    let mut column = Vec::with_capacity(n);
    for (i, src) in run.chunks_exact(T::LEN).enumerate() {
        let v = T::get(src)
            .ok_or_else(|| format!("particle {i}'s `{name}` byte {} is not 0 or 1", src[0]))?;
        column.push(v);
    }
    Ok(column)
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
    use neutral_mesh::{LanePartition, TallyAccum};
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
    /// workers, returning the final columns, merged counters and mesh.
    fn run_soa_lanes(
        problem: &crate::config::Problem,
        ctx: &TransportCtx<'_, Threefry2x64>,
        threads: usize,
    ) -> (ParticleSoA, EventCounters, Vec<f64>) {
        let mut soa = ParticleSoA::from_aos(&spawn_particles(problem));
        let part = LanePartition::new(soa.len(), 16);
        let accum = TallyAccum::for_lanes(
            problem.mesh.num_cells(),
            part.n_lanes,
            0..part.n_lanes,
            threads,
        );
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

        let (soa, soa_counters, tally) = run_soa_lanes(&problem, &ctx, 2);

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
