//! Structure-of-Arrays particle storage (paper §VI-D).
//!
//! The paper compares AoS and SoA particle layouts for the Over-Particles
//! scheme on CPUs and finds AoS faster everywhere: with one thread per
//! history, "each thread loads a cache line for each particle field, and
//! only uses a single item" under SoA, while AoS loads the whole particle
//! with one or two adjacent lines. This module provides the SoA layout —
//! the canonical particle storage of every solve — and a lane-chunked
//! driver so that Figure 5 can be reproduced with real measurements:
//! histories `load` the particle (the per-field gather that costs SoA its
//! performance), track it entirely in registers, and `store` it back.

use crate::arena::{apply_permutation_in_place, radix_sort_pairs, ScratchArena};
use crate::config::{RegroupPolicy, SortPolicy};
use crate::counters::EventCounters;
use crate::events::{resolve_micro_xs_many, TallySink};
use crate::history::{step_particle_uncached, track_to_census_primed, StepOutcome, TransportCtx};
use crate::particle::{energy_band, Particle};
use crate::scheduler::{parallel_for_owned_scratch, Schedule};
use neutral_mesh::{LanePartition, LaneSink, TallyAccum};
use neutral_rng::CbRng;
use neutral_xs::{MicroXs, XsHints};
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
    /// Convert from the AoS layout.
    #[must_use]
    pub fn from_aos(particles: &[Particle]) -> Self {
        let mut soa = Self::default();
        soa.copy_from_aos(particles);
        soa
    }

    /// Convert back to the AoS layout.
    #[must_use]
    pub fn to_aos(&self) -> Vec<Particle> {
        (0..self.len()).map(|i| self.load(i)).collect()
    }

    /// Refill every column from an AoS population, reusing the existing
    /// column capacity: the multi-timestep loop re-gathers the (possibly
    /// regrouped) AoS master into the same SoA buffers each step instead
    /// of allocating fifteen fresh `Vec`s per call. One pass over the
    /// AoS array (like [`ParticleSoA::from_aos`]) — per-column passes
    /// would re-read the 100-byte records fifteen times.
    pub fn copy_from_aos(&mut self, particles: &[Particle]) {
        macro_rules! clear_all {
            ($($field:ident),+ $(,)?) => {$( self.$field.clear(); )+};
        }
        clear_all!(
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
        );
        for p in particles {
            self.x.push(p.x);
            self.y.push(p.y);
            self.omega_x.push(p.omega_x);
            self.omega_y.push(p.omega_y);
            self.energy.push(p.energy);
            self.weight.push(p.weight);
            self.dt_to_census.push(p.dt_to_census);
            self.mfp_to_collision.push(p.mfp_to_collision);
            self.cellx.push(p.cellx);
            self.celly.push(p.celly);
            self.absorb_hint.push(p.xs_hints.absorb);
            self.scatter_hint.push(p.xs_hints.scatter);
            self.key.push(p.key);
            self.rng_counter.push(p.rng_counter);
            self.dead.push(p.dead);
        }
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

    /// Gather every particle into `out`, replacing its contents — the
    /// reusable-buffer counterpart of [`ParticleSoA::to_aos`] for the
    /// serialization edges that convert every step.
    pub fn to_aos_into(&self, out: &mut Vec<Particle>) {
        out.clear();
        out.reserve(self.len());
        for i in 0..self.len() {
            out.push(self.load(i));
        }
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

    /// Gather particle `i` from the field arrays — under SoA this is the
    /// fifteen-array gather whose cache behaviour the paper discusses.
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

    /// Scatter local particle `i` back.
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
}

/// Total weighted energy of the surviving population (eV) — the
/// conservation budget, and the crate's one census-energy fold.
///
/// Accumulated in **identity** (`key`) order: `order`, when present, is
/// the identity map of a regrouped population (`order[k]` = position of
/// key `k`); without it storage order *is* key order. A regrouped, a
/// resumed and a sharded run must all report the exact bits the plain run
/// reports, and this `f64` fold is one of the order-sensitive reductions
/// the bitwise contract anchors to key order. (An all-dead population
/// folds to `-0.0`, `Iterator::sum`'s empty value — on every path, since
/// every path folds here.)
#[must_use]
pub fn census_energy(soa: &ParticleSoA, order: Option<&[u32]>) -> f64 {
    (0..soa.len())
        .map(|k| order.map_or(k, |ord| ord[k] as usize))
        .filter(|&i| !soa.dead[i])
        .map(|i| soa.weight[i] * soa.energy[i])
        .sum()
}

/// Physically regroup the population for the next timestep (DESIGN.md
/// §14): within each tally-lane block of `lane_size` particles, stably
/// permute every field column into the grouping `policy` asks for, dead
/// particles always last. Identity — `key`, the RNG counter, the cached
/// hints — moves with each particle (one shared lane permutation is
/// applied to all fifteen columns); lane membership is preserved because
/// the permutation never crosses a lane boundary, which (together with
/// the drivers' identity-order accumulation anchors) keeps merged
/// tallies and counters bitwise identical to [`RegroupPolicy::Off`].
///
/// The lane blocks are scheduled across `workers` workers through the
/// lane scheduler. Each block is an independent, deterministic
/// permutation, so the regrouped columns are identical for any worker
/// count and any schedule. `scratches` is grown to one arena per worker
/// and reused across calls. Returns `true` if any particle actually
/// moved.
pub fn regroup_soa_parallel(
    soa: &mut ParticleSoA,
    policy: RegroupPolicy,
    nx: usize,
    lane_size: usize,
    workers: usize,
    schedule: Schedule,
    scratches: &mut Vec<ScratchArena>,
) -> bool {
    if policy == RegroupPolicy::Off || soa.is_empty() {
        return false;
    }
    let lane_size = lane_size.max(1);
    let workers = if workers <= 1 || soa.len() <= lane_size {
        1
    } else {
        workers
    };
    if scratches.len() < workers {
        scratches.resize_with(workers, ScratchArena::new);
    }
    let mut lanes: Vec<(SoAChunkMut<'_>, bool)> = soa
        .chunks_mut(lane_size)
        .into_iter()
        .map(|lane| (lane, false))
        .collect();
    parallel_for_owned_scratch(
        schedule.lane_granular(),
        &mut lanes,
        &mut scratches[..workers],
        |_, (lane, moved), scratch| {
            *moved = regroup_soa_block(lane, policy, nx, scratch);
        },
    );
    lanes.iter().any(|&(_, moved)| moved)
}

/// Regroup one lane block of columns in place (the per-lane body of
/// [`regroup_soa_parallel`]); returns `true` if any particle moved.
fn regroup_soa_block(
    lane: &mut SoAChunkMut<'_>,
    policy: RegroupPolicy,
    nx: usize,
    scratch: &mut ScratchArena,
) -> bool {
    scratch.sort_keys.clear();
    for i in 0..lane.len() {
        let group = match policy {
            RegroupPolicy::Off => unreachable!("rejected by the entry points"),
            RegroupPolicy::ByAlive => u32::from(lane.dead[i]),
            RegroupPolicy::ByCell => {
                if lane.dead[i] {
                    u32::MAX
                } else {
                    (lane.celly[i] as usize * nx + lane.cellx[i] as usize) as u32
                }
            }
            RegroupPolicy::ByEnergyBand => {
                if lane.dead[i] {
                    u32::MAX
                } else {
                    energy_band(lane.energy[i])
                }
            }
        };
        scratch.sort_keys.push((group, i as u32));
    }
    // Stable by construction (payloads are insertion indices), so
    // equal-group particles keep ascending key order within the lane.
    radix_sort_pairs(&mut scratch.sort_keys, &mut scratch.sort_tmp);
    if scratch
        .sort_keys
        .iter()
        .enumerate()
        .all(|(k, &(_, src))| src as usize == k)
    {
        return false;
    }
    // The cycle walk consumes the permutation buffer, so it is refilled
    // per column from the sorted keys — fifteen cheap `u32` refills
    // instead of fifteen whole-column staging buffers.
    macro_rules! permute {
        ($($field:ident),* $(,)?) => {$({
            scratch.perm.clear();
            scratch
                .perm
                .extend(scratch.sort_keys.iter().map(|&(_, src)| src));
            apply_permutation_in_place(&mut lane.$field[..], &mut scratch.perm);
        })*};
    }
    permute!(
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
    );
    true
}

/// Track one SoA chunk to census: one batched lane-block lookup over the
/// chunk's live lanes, then gather → track → scatter per history.
///
/// All staging lanes live in the caller's [`ScratchArena`] (per worker
/// or per Rayon task), so the steady-state loop performs no per-lane
/// allocations. Under [`SortPolicy::ByEnergyBand`] the lookup lanes are
/// gathered in energy-band order — the batched lookup walks monotone
/// energy-grid runs — while histories are still *tracked* in ascending
/// lane order, so trajectories and deposit sequences stay bitwise
/// identical to every other policy.
///
/// `order`, when present, is the chunk's identity walk over a regrouped
/// population: the *global* physical positions of this lane's particles
/// in ascending key order, plus the chunk's global base offset.
/// Tracking (the order-sensitive deposit stream) then follows key order
/// exactly as the unregrouped run would, while the columns themselves
/// stay physically grouped.
fn track_soa_chunk<R: CbRng, T: TallySink>(
    chunk: &mut SoAChunkMut<'_>,
    ctx: &TransportCtx<'_, R>,
    sink: &mut T,
    local: &mut EventCounters,
    arena: &mut ScratchArena,
    order: Option<(&[u32], u32)>,
) {
    let n = chunk.len();
    let a = arena;
    a.clear();
    // Live lanes in identity (tracking) order — ascending lane order
    // unregrouped, ascending key order regrouped — then (optionally)
    // permuted into energy-band order for the lookup gather only.
    match order {
        None => {
            for i in 0..n {
                if !chunk.dead[i] {
                    a.idx.push(i as u32);
                }
            }
        }
        Some((ord, base)) => {
            debug_assert_eq!(ord.len(), n, "order must cover the chunk");
            for &g in ord {
                let i = (g - base) as usize;
                if !chunk.dead[i] {
                    a.idx.push(i as u32);
                }
            }
        }
    }
    // Band-sorting the lanes only pays on the grid backends, whose
    // batched lookup carries the run-detection memo; the walking
    // backends would pay the sort and permuted gather for nothing.
    let sort_lanes = ctx.cfg.sort_policy == SortPolicy::ByEnergyBand
        && matches!(
            ctx.cfg.xs_search,
            crate::config::LookupStrategy::Unionized | crate::config::LookupStrategy::Hashed
        );
    if sort_lanes {
        a.sort_keys.clear();
        for &iu in &a.idx {
            let band = crate::particle::energy_band(chunk.energy[iu as usize]);
            a.sort_keys.push((band, iu));
        }
        radix_sort_pairs(&mut a.sort_keys, &mut a.sort_tmp);
        a.idx.clear();
        a.idx.extend(a.sort_keys.iter().map(|&(_, iu)| iu));
    }
    for &iu in &a.idx {
        let i = iu as usize;
        a.energies.push(chunk.energy[i]);
        a.mats.push(
            ctx.mesh
                .material(chunk.cellx[i] as usize, chunk.celly[i] as usize),
        );
        a.hints_absorb.push(chunk.absorb_hint[i]);
        a.hints_scatter.push(chunk.scatter_hint[i]);
    }
    a.out_absorb.resize(a.idx.len(), 0.0);
    a.out_scatter.resize(a.idx.len(), 0.0);
    resolve_micro_xs_many(
        ctx.materials,
        ctx.cfg.xs_search,
        &a.mats,
        &a.energies,
        &mut a.hints_absorb,
        &mut a.hints_scatter,
        &mut a.out_absorb,
        &mut a.out_scatter,
        local,
        &mut a.xs,
    );
    // Scatter the per-lane results back to lane-indexed storage, then
    // track in identity order — the bitwise anchor.
    a.f64_a.resize(n, 0.0);
    a.f64_b.resize(n, 0.0);
    for (j, &iu) in a.idx.iter().enumerate() {
        let i = iu as usize;
        chunk.absorb_hint[i] = a.hints_absorb[j];
        chunk.scatter_hint[i] = a.hints_scatter[j];
        a.f64_a[i] = a.out_absorb[j];
        a.f64_b[i] = a.out_scatter[j];
    }
    let mut track = |i: usize, chunk: &mut SoAChunkMut<'_>| {
        if chunk.dead[i] {
            return;
        }
        let micro = MicroXs {
            absorb_barns: a.f64_a[i],
            scatter_barns: a.f64_b[i],
        };
        let mut p = chunk.load(i);
        track_to_census_primed(&mut p, ctx, sink, local, micro);
        chunk.store(i, &p);
    };
    match order {
        None => {
            for i in 0..n {
                track(i, chunk);
            }
        }
        Some((ord, base)) => {
            for &g in ord {
                track((g - base) as usize, chunk);
            }
        }
    }
}

/// Track one SoA chunk with **event-granular** loads and stores: every
/// event gathers the particle from the field arrays, steps it once
/// without cached state, and scatters it back.
///
/// This reproduces the memory behaviour behind the paper's Figure 5 SoA
/// penalty: in the original C code, aliasing between the SoA field arrays
/// prevents the compiler from keeping history state in registers, so
/// every event pays array traffic. (Rust's `&mut` slices are `noalias`,
/// so the *cached* [`track_soa_chunk`] does not exhibit the penalty — a
/// reproduction finding documented in EXPERIMENTS.md.) `order` carries
/// the identity walk of a regrouped chunk, exactly as in
/// [`track_soa_chunk`].
fn track_soa_chunk_stepped<R: CbRng, T: TallySink>(
    chunk: &mut SoAChunkMut<'_>,
    ctx: &TransportCtx<'_, R>,
    sink: &mut T,
    local: &mut EventCounters,
    order: Option<(&[u32], u32)>,
) {
    let max_events = ctx.cfg.max_events_per_history;
    let mut track = |i: usize, chunk: &mut SoAChunkMut<'_>| {
        let mut events = 0u64;
        loop {
            // Gather -> one event -> scatter: the per-event array
            // traffic is the point of this driver.
            let mut p = chunk.load(i);
            let outcome = step_particle_uncached(&mut p, ctx, sink, local);
            chunk.store(i, &p);
            if outcome != StepOutcome::Continue {
                break;
            }
            events += 1;
            if events > max_events {
                local.stuck += 1;
                chunk.store(
                    i,
                    &Particle {
                        dead: true,
                        ..chunk.load(i)
                    },
                );
                break;
            }
        }
    };
    match order {
        None => {
            for i in 0..chunk.len() {
                track(i, chunk);
            }
        }
        Some((ord, base)) => {
            for &g in ord {
                track((g - base) as usize, chunk);
            }
        }
    }
}

/// Over-Particles lane driver for the SoA layouts: the population is cut
/// at the lane boundaries of the *explicit* partition `part` (see
/// `over_particles::run_lanes_partitioned` for why a shard cannot
/// recompute it locally), whole lanes are scheduled across `n_threads`
/// workers, and each lane deposits through its own [`LaneSink`], which the
/// tracking worker [claims](LaneSink::claim) first. `stepped`
/// selects the event-granular gather/scatter variant. Returns the raw
/// per-lane counters; the deterministic merge and the census-energy fold
/// belong to the caller, so with a deterministic backend the folded
/// results are bitwise identical for any worker count.
///
/// `arenas` holds the per-worker scratch (grown to `n_threads` on
/// demand) — callers that run many timesteps pass the same vector every
/// step so the staging lanes are allocated once per solve, not once per
/// call. `order`, when present, is the regrouped population's identity
/// map (`order[k]` = physical position of key `k`, lane-local): each
/// chunk then tracks in ascending key order, keeping every `f64` stream
/// bitwise identical to the unregrouped run.
#[allow(clippy::too_many_arguments)] // the solve's full configuration surface
pub fn run_lanes_soa_partitioned<R: CbRng>(
    soa: &mut ParticleSoA,
    ctx: &TransportCtx<'_, R>,
    accum: &mut TallyAccum,
    n_threads: usize,
    schedule: Schedule,
    stepped: bool,
    arenas: &mut Vec<ScratchArena>,
    order: Option<&[u32]>,
    part: LanePartition,
) -> Vec<EventCounters> {
    assert_eq!(
        part.n_items,
        soa.len(),
        "partition must cover the population"
    );
    if let Some(ord) = order {
        assert_eq!(ord.len(), soa.len(), "order must be a permutation");
    }
    let chunks = soa.chunks_mut(part.lane_size);
    let mut states: Vec<(usize, SoAChunkMut<'_>, LaneSink<'_>, EventCounters)> = chunks
        .into_iter()
        .zip(accum.lane_views())
        .enumerate()
        .map(|(lane, (chunk, view))| (lane, chunk, view, EventCounters::default()))
        .collect();
    // One reusable arena per *worker*, not per lane: workers claim
    // many lanes, and the staging lanes carry no cross-lane meaning.
    if arenas.len() < n_threads {
        arenas.resize_with(n_threads, ScratchArena::new);
    }
    parallel_for_owned_scratch(
        schedule.lane_granular(),
        &mut states,
        &mut arenas[..n_threads],
        |_, (lane, chunk, sink, local), arena| {
            sink.claim();
            let chunk_order = order.map(|ord| {
                let range = part.range(*lane);
                let base = range.start as u32;
                (&ord[range], base)
            });
            if stepped {
                track_soa_chunk_stepped(chunk, ctx, sink, local, chunk_order);
            } else {
                track_soa_chunk(chunk, ctx, sink, local, arena, chunk_order);
            }
        },
    );
    states.iter().map(|(_, _, _, c)| *c).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProblemScale, TestCase};
    use crate::over_particles::run_sequential;
    use crate::particle::spawn_particles;
    use neutral_mesh::tally::SequentialTally;
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

    /// Run the SoA lane driver over a fresh population on `threads`
    /// workers into a `strategy` accumulator — one whose lanes already
    /// hold deposits when `dirty` — returning the final columns, merged
    /// counters and mesh.
    fn run_soa_lanes_with(
        problem: &crate::config::Problem,
        ctx: &TransportCtx<'_, Threefry2x64>,
        stepped: bool,
        strategy: neutral_mesh::TallyStrategy,
        threads: usize,
        dirty: bool,
    ) -> (ParticleSoA, EventCounters, Vec<f64>) {
        let mut soa = ParticleSoA::from_aos(&spawn_particles(problem));
        let part = LanePartition::new(soa.len(), 16);
        let cells = problem.mesh.num_cells();
        let mut accum = TallyAccum::new(strategy, cells, part.n_lanes);
        if dirty {
            for (l, mut view) in accum.lane_views().into_iter().enumerate() {
                for cell in 0..cells {
                    view.add(cell, 1.0e9 * (1 + l + cell) as f64);
                }
            }
        }
        let partials = run_lanes_soa_partitioned(
            &mut soa,
            ctx,
            &mut accum,
            threads,
            Schedule::Dynamic { chunk: 1 },
            stepped,
            &mut Vec::new(),
            None,
            part,
        );
        let counters = EventCounters::merge_deterministic(&partials);
        (soa, counters, accum.merge_with(threads))
    }

    /// The shared atomic sink (the paper's contended baseline behind the
    /// lane engine) on two workers.
    fn run_soa_lanes(
        problem: &crate::config::Problem,
        ctx: &TransportCtx<'_, Threefry2x64>,
        stepped: bool,
    ) -> (ParticleSoA, EventCounters, Vec<f64>) {
        let atomic = neutral_mesh::TallyStrategy::Atomic;
        run_soa_lanes_with(problem, ctx, stepped, atomic, 2, false)
    }

    /// Both SoA drivers claim a lane before depositing into it: started
    /// from a non-zero replicated accumulator, any worker count lands on
    /// the bits of the clean single-worker run.
    #[test]
    fn soa_lane_driver_wipes_claimed_lanes() {
        let problem = TestCase::Csp.build(ProblemScale::tiny(), 99);
        let rng = Threefry2x64::new([problem.seed, 1]);
        let ctx = TransportCtx {
            mesh: &problem.mesh,
            materials: &problem.materials,
            rng: &rng,
            cfg: &problem.transport,
        };
        let replicated = neutral_mesh::TallyStrategy::Replicated;
        for stepped in [false, true] {
            let (base_soa, base_counters, base_tally) =
                run_soa_lanes_with(&problem, &ctx, stepped, replicated, 1, false);
            assert!(base_tally.iter().any(|&v| v > 0.0));
            for threads in [1, 2, 7] {
                let (soa, counters, tally) =
                    run_soa_lanes_with(&problem, &ctx, stepped, replicated, threads, true);
                assert_eq!(
                    soa.to_aos(),
                    base_soa.to_aos(),
                    "stepped={stepped}/{threads}"
                );
                assert_eq!(counters, base_counters, "stepped={stepped}/{threads}");
                assert!(
                    tally
                        .iter()
                        .zip(&base_tally)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "stepped={stepped}/{threads}: merged tally bits differ"
                );
            }
        }
    }

    #[test]
    fn stepped_soa_driver_matches_trajectories() {
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
        run_sequential(&mut aos, &ctx, &mut seq_tally);

        let (soa, counters, tally) = run_soa_lanes(&problem, &ctx, true);

        // Same trajectories, same physics...
        let stepped = soa.to_aos();
        for (a, b) in aos.iter().zip(&stepped) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.energy.to_bits(), b.energy.to_bits());
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            assert_eq!(a.rng_counter, b.rng_counter);
            assert_eq!(a.dead, b.dead);
        }
        let (a, b) = (seq_tally.total(), tally.iter().sum::<f64>());
        assert!(((a - b) / a.abs().max(1e-30)).abs() < 1e-9);
        // ...but strictly more memory traffic: a lookup + density read
        // per event instead of per collision/facet.
        assert!(counters.cs_lookups > counters.collisions);
        assert!(counters.tally_flushes >= counters.facets);
        assert_eq!(counters.stuck, 0);
    }

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

        let (soa, soa_counters, tally) = run_soa_lanes(&problem, &ctx, false);

        assert_eq!(soa.to_aos(), aos, "SoA trajectories must match AoS");
        assert_eq!(seq_counters.collisions, soa_counters.collisions);
        assert_eq!(seq_counters.facets, soa_counters.facets);

        let a = seq_tally.total();
        let b: f64 = tally.iter().sum();
        assert!(((a - b) / a.abs().max(1e-30)).abs() < 1e-9);
    }
}
