//! The **Over Events** parallelisation scheme (paper §V-B, Listing 2):
//! progress particle histories one event at a time, with one kernel per
//! event class — written here as a *lane kernel*, `run_event_lane`: one
//! worker takes one lane of the population through
//! `init → (decide → collision → facet → flush)* → census → flush` until
//! that lane has nothing live, then takes the next lane
//! (`step::run_lanes`, one fork-join per step). The paper's
//! whole-population form is the one-lane case of the same code.
//!
//! Properties the paper attributes to this scheme, all reproduced here:
//!
//! * tight loops, one kernel per event class — each kernel is written
//!   one way, as one loop over a compacted index list; the paper's
//!   §VI-G restructuring for vector units was reproduced, measured and
//!   removed (DESIGN.md §19);
//! * no register caching — the state the Over-Particles loop keeps in
//!   registers (microscopic cross sections, local number density) lives in
//!   per-particle arrays and is re-read by every kernel of every round
//!   (lane-sized, so from cache rather than from memory: DESIGN.md §8);
//! * compacted access — the seed reproduced the paper's "every kernel
//!   visits the whole particle list and checks a predicate" gathers; the
//!   kernels iterate compacted index lists instead (the stream
//!   compaction cure from the GPU MC literature), rebuilt by the decide
//!   pass every round, so trip counts shrink as the population dies —
//!   bitwise identical physics (DESIGN.md §13);
//! * batched atomics — deposits accumulate in a per-particle pending array
//!   and a *separate* tally loop flushes them, which is the workaround the
//!   paper used to get the other loops to vectorise (§VI-G);
//! * per-kernel timings ([`KernelTimings`]) — the data behind the
//!   tally-share and vectorisation figures.

use crate::arena::ScratchArena;
use crate::counters::EventCounters;
use crate::events::{
    energy_deposition, handle_collision, handle_facet_parts, move_particle, move_particle_parts,
    next_event_parts, resolve_micro_xs, resolve_micro_xs_many, NextEvent, TallySink,
};
use crate::history::TransportCtx;
use crate::soa::SoAChunkMut;
use neutral_mesh::{Facet, LaneSink, StructuredMesh2D};
use neutral_rng::{CbRng, CounterStream};
use neutral_xs::constants::speed_m_per_s;
use neutral_xs::{macroscopic_per_m, number_density, MaterialId, MicroXs, XsHints};
use std::time::{Duration, Instant};

/// Time spent in each kernel of one timestep (summed over timesteps in a
/// [`crate::sim::RunReport`]). Every lane times its own kernels, so a
/// duration is **busy time summed over lanes** — equal to wall-clock time
/// on one worker, up to `workers` times it on several — and `rounds` is
/// the deepest lane's count, which is what a whole-population round loop
/// would have counted.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelTimings {
    /// Initial population of the per-particle cache arrays.
    pub init: Duration,
    /// Distance calculation + event selection kernel.
    pub decide: Duration,
    /// Collision kernel.
    pub collision: Duration,
    /// Facet kernel.
    pub facet: Duration,
    /// The separated atomic tally-flush kernel.
    pub tally: Duration,
    /// Final census kernel.
    pub census: Duration,
    /// Breadth-first rounds the deepest lane executed.
    pub rounds: u64,
}

impl KernelTimings {
    /// A step's timings from its lanes': busy times add, `rounds` is the
    /// maximum.
    pub(crate) fn over_lanes(lanes: &[KernelTimings]) -> Self {
        lanes.iter().fold(Self::default(), |acc, t| Self {
            init: acc.init + t.init,
            decide: acc.decide + t.decide,
            collision: acc.collision + t.collision,
            facet: acc.facet + t.facet,
            tally: acc.tally + t.tally,
            census: acc.census + t.census,
            rounds: acc.rounds.max(t.rounds),
        })
    }

    /// Total time across all kernels.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.init + self.decide + self.collision + self.facet + self.tally + self.census
    }

    /// Fraction of kernel time spent flushing tallies — the paper's ~22%
    /// observation for this scheme (§VI-A).
    #[must_use]
    pub fn tally_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.tally.as_secs_f64() / total
        }
    }
}

/// Per-window coherence state that persists across kernel invocations:
/// the compacted index lists and the scratch arena for batched lookups.
/// Part of the worker's [`EventScratch`], re-derived by the init kernel
/// for every lane, so the steady-state round loop performs no
/// allocations.
///
/// **Stream compaction.** Every kernel iterates a compacted index list,
/// so trip counts track the live population instead of the window. The
/// decide kernel, which visits every live particle anyway, rebuilds
/// `active` in place as it goes and streams the round's collision and
/// facet lists. Every list is built by an ascending walk, so every
/// kernel visits its particles in index order: the physics — including
/// every order-sensitive `f64` accumulation — is bitwise that of a walk
/// over the whole window that checks a predicate per particle. Index
/// order also keeps the state accesses near-sequential; a *permuted*
/// walk turns every access into a random gather (measurably slower on
/// CPUs — DESIGN.md §13).
#[derive(Default)]
struct WindowState {
    arena: ScratchArena,
    /// The particles live after the last decide, ascending. The
    /// collision kernel's deaths stay in it (`p.dead` set) until the
    /// next decide drops them, so the round flush still drains their
    /// last deposits; empty after a decide means the lane is done.
    active: Vec<u32>,
    /// This round's collision events (ascending).
    coll: Vec<u32>,
    /// This round's facet events (ascending); the facet each one hits is
    /// in the scratch's `facet_hit` column.
    facet: Vec<u32>,
    /// Every index that reached census, accumulated across rounds;
    /// sorted ascending before the final census kernel so the census pass
    /// runs in the seed's sequence.
    census: Vec<u32>,
}

/// One worker's Over-Events scratch: the per-particle state arrays of
/// the breadth-first kernels — the data that the Over-Particles scheme
/// would have kept in registers ("Any time data is to be cached, it must
/// be stored per particle", §V-B) — plus the window's coherence state
/// (compacted index lists, scratch arena).
///
/// Lane-sized, not population-sized: built empty inside a step
/// ([`crate::step::run_lanes`]), grown to the first lane its worker
/// takes and reused for every later one at that high-water capacity. The
/// init kernel re-derives every field a round reads from the lane's
/// particles, so nothing of one lane — its lists, its arena — reaches the
/// next. `pending` needs no reset: every slot starts at zero, and a lane
/// ends with all of them drained — each round flush empties what that
/// round deposited (the runaway guard fires only at the top of a round,
/// after one), and the census flush empties the census arrivals.
#[derive(Default)]
pub(crate) struct EventScratch {
    micro_a: Vec<f64>,
    micro_s: Vec<f64>,
    n_dens: Vec<f64>,
    mat: Vec<MaterialId>,
    dist: Vec<f64>,
    pending: Vec<f64>,
    pending_cell: Vec<u32>,
    facet_hit: Vec<Facet>,
    ws: WindowState,
}

impl EventScratch {
    /// The window over lane `p`: the first `p.len()` slots of every state
    /// array (grown to fit), beside the lane's own column slices.
    fn window<'a, 'p>(&'a mut self, p: &'a mut SoAChunkMut<'p>) -> Window<'a, 'p> {
        let n = p.len();
        if self.pending.len() < n {
            self.micro_a.resize(n, 0.0);
            self.micro_s.resize(n, 0.0);
            self.n_dens.resize(n, 0.0);
            self.mat.resize(n, 0);
            self.dist.resize(n, 0.0);
            self.pending.resize(n, 0.0);
            self.pending_cell.resize(n, 0);
            self.facet_hit.resize(n, Facet::XLow);
        }
        Window {
            p,
            micro_a: &mut self.micro_a[..n],
            micro_s: &mut self.micro_s[..n],
            n_dens: &mut self.n_dens[..n],
            mat: &mut self.mat[..n],
            dist: &mut self.dist[..n],
            pending: &mut self.pending[..n],
            pending_cell: &mut self.pending_cell[..n],
            facet_hit: &mut self.facet_hit[..n],
            ws: &mut self.ws,
        }
    }
}

/// One lane's mutable window: its slices of the particle columns and the
/// worker's state arrays cut to the same length. `p` is the lane's slice
/// of every [`crate::soa::ParticleSoA`] field column — the canonical
/// particle storage; no AoS record exists inside the round kernels
/// (branchy handlers gather one particle into a register bundle via
/// [`SoAChunkMut::load`] and scatter it back).
struct Window<'a, 'p> {
    p: &'a mut SoAChunkMut<'p>,
    micro_a: &'a mut [f64],
    micro_s: &'a mut [f64],
    n_dens: &'a mut [f64],
    mat: &'a mut [MaterialId],
    dist: &'a mut [f64],
    pending: &'a mut [f64],
    pending_cell: &'a mut [u32],
    facet_hit: &'a mut [Facet],
    ws: &'a mut WindowState,
}

/// The Over-Events lane kernel — the body [`crate::step::run_lanes`]
/// runs once per lane: take the lane `chunk` to census through the
/// breadth-first kernels, draining its pending deposits through its own
/// lane `sink` (opened — zero-filled — on the calling worker, as for Over
/// Particles), on the calling worker's `scratch`. Returns the lane's
/// raw counters and the busy time of each kernel; census energy is left
/// to the caller's fold.
///
/// The lane walks its range in plain ascending order, which is key
/// order, and every order-sensitive `f64` stream (death sums, census
/// order, tally-flush order) follows it. Its counters accumulate scalar,
/// chronologically, across every kernel call, and nothing outside the
/// lane enters them: a lane's partial — tally and counters — is a pure
/// function of that lane's particles, whichever worker runs it, in
/// whatever order, beside whichever other lanes. That is what a shard,
/// which sees only its own lanes, reproduces exactly, and why only the
/// caller's one pairwise reduction across lanes has an order to fix.
///
/// `max_events_per_history` caps the lane's rounds (a history has one
/// event per round): past it, whatever is still active is marked dead
/// and counted `stuck`.
pub(crate) fn run_event_lane<R: CbRng>(
    scratch: &mut EventScratch,
    chunk: &mut SoAChunkMut<'_>,
    sink: &mut LaneSink<'_>,
    ctx: &TransportCtx<'_, R>,
) -> (EventCounters, KernelTimings) {
    let w = &mut scratch.window(chunk);
    let mut c = EventCounters::default();
    let mut timings = KernelTimings::default();

    let t = Instant::now();
    c.merge(&init_kernel(w, ctx));
    timings.init = t.elapsed();

    loop {
        timings.rounds += 1;
        if timings.rounds > ctx.cfg.max_events_per_history {
            for &iu in &w.ws.active {
                let i = iu as usize;
                if !w.p.dead[i] {
                    w.p.dead[i] = true;
                    c.stuck += 1;
                }
            }
            break;
        }

        let t = Instant::now();
        // The decide kernel counts nothing: it only tags.
        decide_kernel(w, ctx.mesh);
        timings.decide += t.elapsed();
        if w.ws.active.is_empty() {
            break;
        }

        let t = Instant::now();
        c.merge(&collision_kernel(w, ctx));
        timings.collision += t.elapsed();

        let t = Instant::now();
        c.merge(&facet_kernel(w, ctx));
        timings.facet += t.elapsed();

        let t = Instant::now();
        c.merge(&tally_kernel(w, sink, FlushList::Round));
        timings.tally += t.elapsed();
    }

    let t = Instant::now();
    c.merge(&census_kernel(w, ctx));
    c.merge(&tally_kernel(w, sink, FlushList::Census));
    timings.census = t.elapsed();

    (c, timings)
}

/// Populate the per-particle cache arrays and build the initial
/// compacted index list. The cross sections of the whole window resolve
/// through one batched `lookup_many` call (counted in
/// `batched_lookups`), bitwise equal to per-particle lookups. All
/// staging lanes live in the window's [`ScratchArena`], so repeated
/// invocations (one per lane) allocate nothing once the arena has
/// warmed up.
fn init_kernel<R: CbRng>(w: &mut Window<'_, '_>, ctx: &TransportCtx<'_, R>) -> EventCounters {
    let mut c = EventCounters::default();
    let n = w.p.len();
    let WindowState {
        arena: a,
        active,
        census,
        ..
    } = &mut *w.ws;
    a.clear();
    active.clear();
    census.clear();
    for i in 0..n {
        if w.p.dead[i] {
            continue;
        }
        w.mat[i] = ctx
            .mesh
            .material(w.p.cellx[i] as usize, w.p.celly[i] as usize);
        active.push(i as u32);
        a.energies.push(w.p.energy[i]);
        a.mats.push(w.mat[i]);
        a.hints_absorb.push(w.p.absorb_hint[i]);
        a.hints_scatter.push(w.p.scatter_hint[i]);
    }

    a.out_absorb.resize(active.len(), 0.0);
    a.out_scatter.resize(active.len(), 0.0);
    resolve_micro_xs_many(
        ctx.materials,
        ctx.cfg.xs_search,
        &a.mats,
        &a.energies,
        &mut a.hints_absorb,
        &mut a.hints_scatter,
        &mut a.out_absorb,
        &mut a.out_scatter,
        &mut c,
        &mut a.xs,
    );

    for (j, &i) in active.iter().enumerate() {
        let i = i as usize;
        w.micro_a[i] = a.out_absorb[j];
        w.micro_s[i] = a.out_scatter[j];
        w.p.absorb_hint[i] = a.hints_absorb[j];
        w.p.scatter_hint[i] = a.hints_scatter[j];
        c.density_reads += 1;
        w.n_dens[i] = number_density(
            ctx.mesh
                .density(w.p.cellx[i] as usize, w.p.celly[i] as usize),
        );
    }
    c
}

/// Event selection, folded into the compaction: one ascending walk over
/// `active` drops last round's deaths, selects the next event of every
/// live particle ([`next_event_parts`]), moves census arrivals to the
/// census list and keeps the rest, streamed into the round's collision
/// and facet lists. A census arrival holds no pending deposit (the
/// previous round's flush drained it), so dropping it here loses
/// nothing.
///
/// The kept entries are written back through a cursor, not by
/// `Vec::retain`: with this body in its closure the kernel ran ≈ 30 %
/// slower (`csp` 512², one worker, best-of decide time: 526 against
/// 395 ms).
fn decide_kernel(w: &mut Window<'_, '_>, mesh: &StructuredMesh2D) {
    let WindowState {
        active,
        coll,
        facet,
        census,
        ..
    } = &mut *w.ws;
    coll.clear();
    facet.clear();
    let (cols, micro_a, micro_s, n_dens, dist, facet_hit) = (
        &w.p,
        &*w.micro_a,
        &*w.micro_s,
        &*w.n_dens,
        &mut *w.dist,
        &mut *w.facet_hit,
    );
    let mut kept = 0;
    let list = active.as_mut_slice();
    for k in 0..list.len() {
        let iu = list[k];
        let i = iu as usize;
        if cols.dead[i] {
            continue;
        }
        let sigma_t = macroscopic_per_m(micro_a[i] + micro_s[i], n_dens[i]);
        let bounds = mesh.cell_bounds(cols.cellx[i] as usize, cols.celly[i] as usize);
        match next_event_parts(
            cols.x[i],
            cols.y[i],
            cols.omega_x[i],
            cols.omega_y[i],
            cols.energy[i],
            cols.dt_to_census[i],
            cols.mfp_to_collision[i],
            sigma_t,
            bounds,
        ) {
            NextEvent::Census(_) => {
                census.push(iu);
                continue;
            }
            NextEvent::Facet(d, f) => {
                dist[i] = d;
                facet_hit[i] = f;
                facet.push(iu);
            }
            NextEvent::Collision(d) => {
                dist[i] = d;
                coll.push(iu);
            }
        }
        list[kept] = iu;
        kept += 1;
    }
    active.truncate(kept);
}

fn collision_kernel<R: CbRng>(w: &mut Window<'_, '_>, ctx: &TransportCtx<'_, R>) -> EventCounters {
    let mut c = EventCounters::default();
    let nx = ctx.mesh.nx();
    for &iu in &w.ws.coll {
        let i = iu as usize;
        let micro = MicroXs {
            absorb_barns: w.micro_a[i],
            scatter_barns: w.micro_s[i],
        };
        // Gather the lane into a register bundle once: the branchy RNG
        // handler below mutates most fields, and a single load/store pair
        // per colliding particle beats fifteen strided column touches.
        let mut p = w.p.load(i);
        let d = w.dist[i];
        w.pending[i] += energy_deposition(p.energy, p.weight, d, w.n_dens[i], micro);
        w.pending_cell[i] = p.cell_index(nx) as u32;
        let sigma_t = macroscopic_per_m(micro.total_barns(), w.n_dens[i]);
        move_particle(&mut p, d, sigma_t);
        let mut stream = CounterStream::new(ctx.rng, p.key);
        // The walk is ascending, so `lost_energy_ev` sums the cutoff
        // deaths in index order. A death needs no list work: `store`
        // writes `p.dead`, and the next decide drops the particle. A
        // survivor's energy changed: re-resolve its cross sections.
        if !handle_collision(&mut p, &mut stream, micro, ctx.cfg, &mut c) {
            let micro = crate::history::lookup_micro(&mut p, ctx, w.mat[i], &mut c);
            w.micro_a[i] = micro.absorb_barns;
            w.micro_s[i] = micro.scatter_barns;
        }
        w.p.store(i, &p);
    }
    c
}

fn facet_kernel<R: CbRng>(w: &mut Window<'_, '_>, ctx: &TransportCtx<'_, R>) -> EventCounters {
    let mut c = EventCounters::default();
    let nx = ctx.mesh.nx();
    for &iu in &w.ws.facet {
        let i = iu as usize;
        let facet = w.facet_hit[i];
        let micro = MicroXs {
            absorb_barns: w.micro_a[i],
            scatter_barns: w.micro_s[i],
        };
        let d = w.dist[i];
        w.pending[i] += energy_deposition(w.p.energy[i], w.p.weight[i], d, w.n_dens[i], micro);
        w.pending_cell[i] = (w.p.celly[i] as usize * nx + w.p.cellx[i] as usize) as u32;
        let sigma_t = macroscopic_per_m(micro.total_barns(), w.n_dens[i]);
        move_particle_parts(
            &mut w.p.x[i],
            &mut w.p.y[i],
            &mut w.p.mfp_to_collision[i],
            &mut w.p.dt_to_census[i],
            w.p.omega_x[i],
            w.p.omega_y[i],
            w.p.energy[i],
            d,
            sigma_t,
        );
        // A facet event touches only the cell index (crossing) or one
        // direction cosine (reflection): resolve it on the columns
        // directly. Gathering the whole fifteen-field particle here —
        // the collision kernel's strategy — would touch every column
        // for a two-field update, and facets outnumber collisions on
        // the streaming-heavy shapes.
        handle_facet_parts(
            &mut w.p.omega_x[i],
            &mut w.p.omega_y[i],
            &mut w.p.cellx[i],
            &mut w.p.celly[i],
            facet,
            ctx.mesh,
            &mut c,
        );
        c.density_reads += 1;
        let (cx, cy) = (w.p.cellx[i] as usize, w.p.celly[i] as usize);
        w.n_dens[i] = number_density(ctx.mesh.density(cx, cy));
        // Crossing into a different material invalidates the cached
        // microscopic cross sections (same order of operations as the
        // history loop, so the counters and hints stay identical).
        let mat = ctx.mesh.material(cx, cy);
        if mat != w.mat[i] {
            w.mat[i] = mat;
            c.material_switches += 1;
            let mut hints = XsHints {
                absorb: w.p.absorb_hint[i],
                scatter: w.p.scatter_hint[i],
            };
            let micro = resolve_micro_xs(
                ctx.materials.library(mat),
                ctx.cfg.xs_search,
                w.p.energy[i],
                &mut hints,
                &mut c,
            );
            w.p.absorb_hint[i] = hints.absorb;
            w.p.scatter_hint[i] = hints.scatter;
            w.micro_a[i] = micro.absorb_barns;
            w.micro_s[i] = micro.scatter_barns;
        }
    }
    c
}

/// Which set a tally flush drains.
#[derive(Clone, Copy)]
enum FlushList {
    /// The round flush: `active`, ascending — every particle live at
    /// this round's decide, this round's deaths included, whose last
    /// deposits are still pending. This round's census arrivals left it
    /// at decide holding nothing: the previous round's flush drained
    /// them.
    Round,
    /// The final flush after the census kernel: only census arrivals can
    /// hold pending deposits at that point.
    Census,
}

/// The separated tally flush: drain every pending deposit of `list` into
/// `sink`, in ascending index order.
///
/// Always inlined into the lane kernel: while `LaneSink` had a second,
/// shared-atomic variant the compiler unswitched these loops per variant
/// and the body outgrew its inlining threshold, and with the flush
/// outlined the round loop around it laid out slower (`scatter` 512² Over
/// Events, one worker, best of 12: collision kernel 384 → 395 ms, facet
/// 12.2 → 13.2 ms; inlined, both were back).
#[inline(always)]
fn tally_kernel<T: TallySink>(
    w: &mut Window<'_, '_>,
    sink: &mut T,
    list: FlushList,
) -> EventCounters {
    let mut c = EventCounters::default();
    let list = match list {
        FlushList::Round => &w.ws.active,
        FlushList::Census => &w.ws.census,
    };
    for &iu in list {
        let i = iu as usize;
        if w.pending[i] != 0.0 {
            sink.deposit(w.pending_cell[i] as usize, w.pending[i]);
            w.pending[i] = 0.0;
            c.tally_flushes += 1;
        }
    }
    c
}

/// Handle every census arrival, accumulated across rounds in the
/// window's census list. The list is sorted ascending first so the pass
/// (and the final flush that follows it) runs in the seed's sequence —
/// census entries arrive round by round, not index by index.
fn census_kernel<R: CbRng>(w: &mut Window<'_, '_>, ctx: &TransportCtx<'_, R>) -> EventCounters {
    let mut c = EventCounters::default();
    let nx = ctx.mesh.nx();
    let census = &mut w.ws.census;
    census.sort_unstable();
    for &iu in census.iter() {
        let i = iu as usize;
        debug_assert!(!w.p.dead[i], "a census arrival is live");
        let micro = MicroXs {
            absorb_barns: w.micro_a[i],
            scatter_barns: w.micro_s[i],
        };
        let speed = speed_m_per_s(w.p.energy[i]);
        let d = speed * w.p.dt_to_census[i];
        w.pending[i] += energy_deposition(w.p.energy[i], w.p.weight[i], d, w.n_dens[i], micro);
        w.pending_cell[i] = (w.p.celly[i] as usize * nx + w.p.cellx[i] as usize) as u32;
        let sigma_t = macroscopic_per_m(micro.total_barns(), w.n_dens[i]);
        move_particle_parts(
            &mut w.p.x[i],
            &mut w.p.y[i],
            &mut w.p.mfp_to_collision[i],
            &mut w.p.dt_to_census[i],
            w.p.omega_x[i],
            w.p.omega_y[i],
            w.p.energy[i],
            d,
            sigma_t,
        );
        w.p.dt_to_census[i] = 0.0;
        c.census += 1;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::fnv1a64;
    use crate::config::{ProblemScale, TestCase};
    use crate::over_particles::run_sequential;
    use crate::particle::{spawn_particles, Particle};
    use crate::scheduler::Schedule;
    use crate::sim::Scheme;
    use crate::soa::ParticleSoA;
    use crate::step::run_step_scheduled;
    use neutral_mesh::tally::{AtomicTally, SequentialTally};
    use neutral_mesh::{LanePartition, TallyAccum, TallyStrategy};
    use neutral_rng::Threefry2x64;

    /// The step engine's Over-Events arm over the whole population — one
    /// lane per lane of `accum`, `workers` workers under `schedule` —
    /// returning the raw per-lane counters and the step's timings.
    fn run_lanes_with(
        soa: &mut ParticleSoA,
        c: &TransportCtx<'_, Threefry2x64>,
        accum: &TallyAccum,
        workers: usize,
        schedule: Schedule,
    ) -> (Vec<EventCounters>, KernelTimings) {
        let part = LanePartition::new(soa.len(), accum.n_lanes());
        let config = (Scheme::OverEvents, workers, schedule);
        let (partials, timings) = run_step_scheduled(soa, c, config, part, accum);
        (partials, timings.expect("Over Events reports timings"))
    }

    /// [`run_lanes_with`] under `dynamic,1`, the per-lane counters merged
    /// the way the step engine's fold does.
    fn run_rounds(
        soa: &mut ParticleSoA,
        c: &TransportCtx<'_, Threefry2x64>,
        accum: &TallyAccum,
        workers: usize,
    ) -> (EventCounters, KernelTimings) {
        let (partials, timings) =
            run_lanes_with(soa, c, accum, workers, Schedule::Dynamic { chunk: 1 });
        (EventCounters::merge_deterministic(&partials), timings)
    }

    fn tally_bits(accum: TallyAccum) -> Vec<u64> {
        accum.merge().iter().map(|v| v.to_bits()).collect()
    }

    /// A 5 000-particle `scatter` population cut into 16 lanes of 313 (a
    /// tail lane of 305) whose even lanes reach census within a round or
    /// two (their timers are a few centimetres of flight) while the even
    /// lanes — the tail lane among them — run into a six-round runaway
    /// guard: lanes of different depth and length, side by side.
    fn uneven_lanes() -> (crate::config::Problem, Threefry2x64, Vec<Particle>) {
        let (mut problem, rng) = fixture(TestCase::Scatter);
        problem.transport.max_events_per_history = 6;
        let mut particles = spawn_particles(&problem);
        let part = LanePartition::new(particles.len(), 16);
        assert_eq!(
            (part.lane_size, part.n_lanes, part.range(15).len()),
            (313, 16, 305)
        );
        for (i, p) in particles.iter_mut().enumerate() {
            if part.lane_of(i).is_multiple_of(2) {
                p.dt_to_census *= 1.0e-9;
            }
        }
        (problem, rng, particles)
    }

    fn fixture(case: TestCase) -> (crate::config::Problem, Threefry2x64) {
        let problem = case.build(ProblemScale::tiny(), 17);
        let rng = Threefry2x64::new([problem.seed, 1]);
        (problem, rng)
    }

    fn ctx<'a>(
        problem: &'a crate::config::Problem,
        rng: &'a Threefry2x64,
    ) -> TransportCtx<'a, Threefry2x64> {
        TransportCtx {
            mesh: &problem.mesh,
            materials: &problem.materials,
            rng,
            cfg: &problem.transport,
        }
    }

    /// The particles neither dead nor at census, ascending.
    fn alive_set(w: &Window<'_, '_>, at_census: &[bool]) -> Vec<u32> {
        (0..w.p.len() as u32)
            .filter(|&i| !w.p.dead[i as usize] && !at_census[i as usize])
            .collect()
    }

    /// The compaction invariant, on every round: after each decide,
    /// `active` is exactly the alive set derived from `p.dead` and the
    /// census list, ascending; the round's collision and facet lists
    /// split it, each ascending; a census arrival arrives once, from the
    /// alive set; each round flush leaves no deposit pending (which is
    /// why decide may drop a census arrival); and the lane ends with
    /// every particle either dead or at census.
    #[test]
    fn compacted_list_matches_alive_predicate() {
        let ascending = |v: &[u32]| v.windows(2).all(|p| p[0] < p[1]);
        for case in [TestCase::Scatter, TestCase::Csp] {
            let (problem, rng) = fixture(case);
            let c = ctx(&problem, &rng);
            let mut particles = ParticleSoA::from_aos(&spawn_particles(&problem));
            let n = particles.len();
            let tally = AtomicTally::new(problem.mesh.num_cells());
            let mut scratch = EventScratch::default();
            let mut lanes = particles.chunks_mut(n);
            let w = &mut scratch.window(&mut lanes[0]);
            init_kernel(w, &c);
            let mut at_census = vec![false; n];
            assert_eq!(w.ws.active, alive_set(w, &at_census), "{case:?}: init list");

            let mut round = 0;
            loop {
                round += 1;
                assert!(round < 1000, "{case:?}: the lane did not finish");
                let arrived = w.ws.census.len();
                decide_kernel(w, c.mesh);
                for &i in &w.ws.census[arrived..] {
                    let i = i as usize;
                    assert!(!w.p.dead[i] && !at_census[i], "{case:?} round {round}: {i}");
                    at_census[i] = true;
                }
                assert_eq!(
                    w.ws.active,
                    alive_set(w, &at_census),
                    "{case:?} round {round}: compacted list != alive set"
                );
                assert!(
                    ascending(&w.ws.coll) && ascending(&w.ws.facet),
                    "{case:?} round {round}"
                );
                let mut split = [&w.ws.coll[..], &w.ws.facet[..]].concat();
                split.sort_unstable();
                assert_eq!(split, w.ws.active, "{case:?} round {round}: coll + facet");
                if w.ws.active.is_empty() {
                    break;
                }
                collision_kernel(w, &c);
                facet_kernel(w, &c);
                tally_kernel(w, &mut { &tally }, FlushList::Round);
                assert!(
                    w.pending.iter().all(|&d| d == 0.0),
                    "{case:?} round {round}: a deposit outlived the round flush"
                );
            }
            assert!(
                (0..n).all(|i| w.p.dead[i] != at_census[i]),
                "{case:?}: every particle ends dead or at census"
            );
        }
    }

    /// A window with a dead tail (and holes in its head) computes exactly
    /// what the same window cut off at its last live particle computes:
    /// dead slots cost no visits and leave no trace.
    #[test]
    fn dead_tail_computes_what_the_cut_window_computes() {
        let (problem, rng) = fixture(TestCase::Scatter);
        let c = ctx(&problem, &rng);
        let mut base = spawn_particles(&problem);
        let n = base.len();
        // A fragmented head (every third particle dead) and a dead tail.
        let live_end = 2 * n / 3;
        for (i, p) in base.iter_mut().enumerate() {
            p.dead = i % 3 == 1 || i >= live_end;
        }
        let bound = base.iter().rposition(|p| !p.dead).unwrap() + 1;
        let alive = base.iter().filter(|p| !p.dead).count();
        assert!(alive < bound && bound <= live_end && live_end < n);

        let run = |particles: &[crate::particle::Particle]| {
            // One lane = one window over the whole population.
            let accum = TallyAccum::new(TallyStrategy::Replicated, problem.mesh.num_cells(), 1);
            let mut soa = ParticleSoA::from_aos(particles);
            let (counters, _t) = run_rounds(&mut soa, &c, &accum, 1);
            (counters, tally_bits(accum), soa.to_aos())
        };
        let (c_full, t_full, p_full) = run(&base);
        let (c_cut, t_cut, p_cut) = run(&base[..bound]);
        assert_eq!(t_full, t_cut, "tally bits");
        assert_eq!(c_full, c_cut, "counters");
        assert_eq!(p_full[..bound], p_cut[..], "trajectories");
        assert_eq!(p_full[bound..], base[bound..], "the dead tail is untouched");
    }

    /// The headline validation property: Over Events computes the exact
    /// same particle trajectories as Over Particles, for every test case.
    #[test]
    fn over_events_matches_over_particles() {
        for case in TestCase::ALL {
            let (problem, rng) = fixture(case);
            let c = ctx(&problem, &rng);

            let mut op_particles = spawn_particles(&problem);
            let mut op_tally = SequentialTally::new(problem.mesh.num_cells());
            let op_counters = run_sequential(&mut op_particles, &c, &mut op_tally);

            for workers in [1, 4] {
                let mut oe_soa = ParticleSoA::from_aos(&spawn_particles(&problem));
                let accum =
                    TallyAccum::new(TallyStrategy::Replicated, problem.mesh.num_cells(), 16);
                let (oe_counters, _t) = run_rounds(&mut oe_soa, &c, &accum, workers);
                assert_eq!(
                    op_particles,
                    oe_soa.to_aos(),
                    "{case:?}/{workers}w: trajectories"
                );
                assert_eq!(op_counters.collisions, oe_counters.collisions);
                assert_eq!(op_counters.facets, oe_counters.facets);
                assert_eq!(op_counters.census, oe_counters.census);
                assert_eq!(op_counters.deaths, oe_counters.deaths);
                assert_eq!(op_counters.cs_lookups, oe_counters.cs_lookups);
                assert_eq!(op_counters.density_reads, oe_counters.density_reads);
                let a = op_tally.total();
                let b: f64 = accum.merge().iter().sum();
                assert!(
                    ((a - b) / a.abs().max(1e-30)).abs() < 1e-9,
                    "{case:?}/{workers}w: tally {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn per_cell_tallies_match_schemes() {
        let (problem, rng) = fixture(TestCase::Csp);
        let c = ctx(&problem, &rng);

        let mut op_particles = spawn_particles(&problem);
        let mut op_tally = SequentialTally::new(problem.mesh.num_cells());
        run_sequential(&mut op_particles, &c, &mut op_tally);

        let total = op_tally.total();
        let mut oe_soa = ParticleSoA::from_aos(&spawn_particles(&problem));
        let accum = TallyAccum::new(TallyStrategy::Replicated, problem.mesh.num_cells(), 16);
        run_rounds(&mut oe_soa, &c, &accum, 1);
        for (i, (a, b)) in op_tally.values().iter().zip(accum.merge()).enumerate() {
            let scale = a.abs().max(total * 1e-12).max(1e-30);
            assert!(((a - b) / scale).abs() < 1e-6, "cell {i}: {a} vs {b}");
        }
    }

    #[test]
    fn timings_are_populated() {
        let (problem, rng) = fixture(TestCase::Csp);
        let c = ctx(&problem, &rng);
        let mut particles = ParticleSoA::from_aos(&spawn_particles(&problem));
        let accum = TallyAccum::new(TallyStrategy::Replicated, problem.mesh.num_cells(), 16);
        let (_counters, t) = run_rounds(&mut particles, &c, &accum, 1);
        assert!(t.rounds > 1);
        assert!(t.total() > Duration::ZERO);
        assert!((0.0..1.0).contains(&t.tally_fraction()));
    }

    #[test]
    fn runaway_guard_fires() {
        let (mut problem, rng) = fixture(TestCase::Stream);
        problem.transport.max_events_per_history = 3;
        let c = ctx(&problem, &rng);
        let mut particles = ParticleSoA::from_aos(&spawn_particles(&problem));
        let accum = TallyAccum::new(TallyStrategy::Replicated, problem.mesh.num_cells(), 16);
        let (counters, _) = run_rounds(&mut particles, &c, &accum, 2);
        assert!(counters.stuck > 0);
        assert!(particles
            .to_aos()
            .iter()
            .all(|p| p.dead || p.dt_to_census == 0.0));
    }

    /// One scratch carried from lane to lane — across lanes of unequal
    /// length, and past lanes that ran into the runaway guard — behaves
    /// exactly like a fresh scratch per lane: nothing of a lane (lists,
    /// arena, state beyond a shorter successor's length, an abandoned
    /// deposit) survives the next lane's init kernel.
    #[test]
    fn scratch_reuse_across_lanes_matches_fresh_scratch() {
        let (problem, rng, particles) = uneven_lanes();
        let c = ctx(&problem, &rng);
        let run = |reuse: bool| {
            let mut soa = ParticleSoA::from_aos(&particles);
            let accum = TallyAccum::new(TallyStrategy::Replicated, problem.mesh.num_cells(), 16);
            let mut carried = EventScratch::default();
            let mut counters = Vec::new();
            let lanes = soa
                .chunks_mut(soa.len().div_ceil(16))
                .into_iter()
                .zip(accum.lanes());
            for (mut chunk, lane) in lanes {
                let mut view = accum.open(lane);
                let mut fresh = EventScratch::default();
                let scratch = if reuse { &mut carried } else { &mut fresh };
                counters.push(run_event_lane(scratch, &mut chunk, &mut view, &c).0);
            }
            (counters, tally_bits(accum), soa.to_aos())
        };
        let (counters, tally, records) = run(true);
        assert!(
            counters.iter().any(|c| c.stuck > 0) && counters.iter().any(|c| c.stuck == 0),
            "the fixture must mix guarded and clean lanes"
        );
        assert_eq!((counters, tally, records), run(false));
    }

    /// Which worker runs a lane, in what order and beside which other
    /// lanes is unobservable: every worker count × schedule gives the
    /// bits of the one-worker run, and the deepest lane's round count is
    /// the one-lane whole-population run's.
    #[test]
    fn lane_interleaving_is_unobservable() {
        for case in [TestCase::Scatter, TestCase::Csp] {
            let (problem, rng) = fixture(case);
            let c = ctx(&problem, &rng);
            let run = |lanes: usize, workers: usize, schedule: Schedule| {
                let mut soa = ParticleSoA::from_aos(&spawn_particles(&problem));
                let accum =
                    TallyAccum::new(TallyStrategy::Replicated, problem.mesh.num_cells(), lanes);
                let (counters, t) = run_lanes_with(&mut soa, &c, &accum, workers, schedule);
                ((counters, tally_bits(accum), soa.to_aos()), t.rounds)
            };
            let (base, rounds) = run(16, 1, Schedule::Static { chunk: None });
            let (_, whole_population_rounds) = run(1, 1, Schedule::Static { chunk: None });
            assert_eq!(rounds, whole_population_rounds, "{case:?}: rounds");
            for workers in [1, 2, 7] {
                for schedule in [
                    Schedule::Static { chunk: None },
                    Schedule::Dynamic { chunk: 1 },
                    Schedule::Guided { min_chunk: 1 },
                ] {
                    let (bits, r) = run(16, workers, schedule);
                    assert_eq!(r, rounds, "{case:?}/{workers}/{schedule:?}: rounds");
                    assert!(bits == base, "{case:?}/{workers}/{schedule:?}: bits");
                }
            }
        }
    }

    /// The runaway guard is a per-lane round cap that marks the set the
    /// whole-population cap marked: on lanes of different depth, the
    /// per-lane `stuck` counts, the dead flags and the tally are the ones
    /// the global round loop this kernel replaced produced (numbers taken
    /// from a build of that loop on this fixture).
    #[test]
    fn lane_round_cap_marks_the_global_caps_stuck_set() {
        let (problem, rng, particles) = uneven_lanes();
        let c = ctx(&problem, &rng);
        let mut soa = ParticleSoA::from_aos(&particles);
        let accum = TallyAccum::new(TallyStrategy::Replicated, problem.mesh.num_cells(), 16);
        let (counters, t) =
            run_lanes_with(&mut soa, &c, &accum, 2, Schedule::Guided { min_chunk: 1 });
        let stuck: Vec<u64> = counters.iter().map(|c| c.stuck).collect();
        assert_eq!(stuck, PARENT_STUCK_PER_LANE);
        assert_eq!(t.rounds, 7, "the deepest lane stopped at the cap");
        let dead = soa.dead.iter().filter(|&&d| d).count();
        assert_eq!(dead, PARENT_DEAD);
        let merged = EventCounters::merge_deterministic(&counters);
        assert_eq!(
            (
                merged.collisions,
                merged.facets,
                merged.census,
                merged.tally_flushes
            ),
            PARENT_EVENTS
        );
        let tally = accum.merge();
        assert_eq!(
            fnv1a64(tally.iter().flat_map(|v| v.to_bits().to_le_bytes())),
            PARENT_TALLY_FNV
        );
    }

    const PARENT_STUCK_PER_LANE: [u64; 16] = [
        0, 313, 0, 313, 0, 313, 0, 313, 0, 313, 0, 313, 0, 313, 0, 305,
    ];
    const PARENT_DEAD: usize = 2496;
    const PARENT_EVENTS: (u64, u64, u64, u64) = (14_697, 279, 2_504, 17_480);
    const PARENT_TALLY_FNV: u64 = 0xa875_9103_04ea_70d2;
}
