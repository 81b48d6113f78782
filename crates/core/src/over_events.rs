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
//!   one way, as a per-particle loop with early predicate exits; the
//!   paper's §VI-G restructuring for vector units was reproduced,
//!   measured and removed (DESIGN.md §19);
//! * no register caching — the state the Over-Particles loop keeps in
//!   registers (microscopic cross sections, local number density) lives in
//!   per-particle arrays and is re-read by every kernel of every round
//!   (lane-sized, so from cache rather than from memory: DESIGN.md §8);
//! * compacted access — the seed reproduced the paper's "every kernel
//!   visits the whole particle list and checks a predicate" gathers; the
//!   kernels now iterate maintained compacted index lists (the stream
//!   compaction cure from the GPU MC literature), with incremental
//!   compaction at census/death so trip counts shrink as the population
//!   dies — bitwise identical physics, measurably less memory traffic;
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

/// Per-particle event tag for the current round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum Tag {
    None = 0,
    Collision = 1,
    FacetXLow = 2,
    FacetXHigh = 3,
    FacetYLow = 4,
    FacetYHigh = 5,
}

impl Tag {
    fn facet(f: Facet) -> Self {
        match f {
            Facet::XLow => Tag::FacetXLow,
            Facet::XHigh => Tag::FacetXHigh,
            Facet::YLow => Tag::FacetYLow,
            Facet::YHigh => Tag::FacetYHigh,
        }
    }

    fn to_facet(self) -> Option<Facet> {
        match self {
            Tag::FacetXLow => Some(Facet::XLow),
            Tag::FacetXHigh => Some(Facet::XHigh),
            Tag::FacetYLow => Some(Facet::YLow),
            Tag::FacetYHigh => Some(Facet::YHigh),
            _ => None,
        }
    }
}

/// Per-particle history status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum Status {
    Active = 0,
    AtCensus = 1,
    Dead = 2,
}

/// Per-window coherence state that persists across kernel invocations:
/// the compacted index lists, the occupancy-dispatch bookkeeping and the
/// scratch arena for batched lookups. Part of the worker's
/// [`EventScratch`], re-derived by the init kernel for every lane, so the
/// steady-state round loop performs no allocations.
///
/// **Hybrid occupancy dispatch.** The seed's kernels swept the whole
/// particle array and checked an alive/tag predicate per lane; pure
/// list iteration replaces the predictable linear sweep with an
/// index-indirected gather, which *loses* on near-full windows (the
/// index loads and list maintenance cost more than the few skipped
/// lanes save). Each round therefore picks one of two bitwise-identical
/// iteration modes, per window:
///
/// * **sweep** (live fraction ≥ [`SWEEP_NUM`]/[`SWEEP_DEN`]) — the
///   seed's predicate sweeps, untouched;
/// * **list** (below the threshold) — stream compaction: every kernel
///   iterates maintained compacted index lists, so trip counts track
///   the live population instead of the allocation.
///
/// Both modes visit the same particles in the same ascending order, so
/// the physics — including every order-sensitive `f64` accumulation —
/// is bitwise identical; only the memory-access pattern changes.
/// `active` is kept ascending (its compaction is an order-preserving
/// `retain`), which is what the identity argument rests on.
#[derive(Default)]
struct WindowState {
    arena: ScratchArena,
    /// Compacted indices of particles still `Active` at the last
    /// compaction point, ascending. Between compactions it also retains
    /// particles that died or hit census since — in list mode exactly
    /// the set whose pending deposits the round's tally flush must
    /// visit. Stale (and unread) while sweep mode holds; the entry
    /// `retain` on switching to list mode removes every departure at
    /// once.
    active: Vec<u32>,
    /// This round's collision-tagged live subset (ascending; list mode
    /// only — sweep mode re-checks tags like the seed).
    coll: Vec<u32>,
    /// This round's facet-tagged live subset (ascending; list mode only).
    facet: Vec<u32>,
    /// Every index that reached census, accumulated across rounds;
    /// sorted ascending before the final census kernel so the census pass
    /// runs in the seed's sequence.
    census: Vec<u32>,
    /// Live (`Active`) particles in this window, maintained by the
    /// decide (census departures) and collision (deaths) kernels — the
    /// occupancy the dispatch decides on without scanning anything, and
    /// the round loop's exit test.
    live: usize,
    /// One past the last initially-active slot: the sweep bound. Slots
    /// `scan..` are dead at init (zero pending, never revived — particles
    /// only *leave* the active set during a timestep), so every sweep
    /// loop iterates `0..scan` instead of the whole allocation. Equal to
    /// the window length while the window's last particle lives.
    scan: usize,
    /// Whether this round runs the sweep arm (set by `begin_round`).
    sweep: bool,
    /// Whether any particle left the active set since the last
    /// compaction (death or census arrival). When false the retain scan
    /// is skipped entirely — rounds where nobody leaves pay nothing for
    /// compaction.
    needs_compact: bool,
}

/// Occupancy threshold of the hybrid dispatch: sweep while
/// `live * SWEEP_DEN >= scan * SWEEP_NUM` (`scan` being the initially
/// active prefix).
const SWEEP_NUM: usize = 7;
/// See [`SWEEP_NUM`].
const SWEEP_DEN: usize = 8;

impl WindowState {
    /// Round prologue of the decide kernel: pick the iteration mode from
    /// the live occupancy, and in list mode compact the active list
    /// (order-preserving, so it stays ascending — the property the
    /// bitwise-identity invariant rests on) and reset the round's tagged
    /// lists.
    ///
    /// Even list mode iterates in ascending index order: the particle
    /// state lives in index-ordered arrays, so a *permuted* iteration
    /// order would turn every state access into a random gather
    /// (measurably slower on CPUs — DESIGN.md §13).
    fn begin_round(&mut self, status: &[Status]) {
        self.sweep = self.live * SWEEP_DEN >= self.scan * SWEEP_NUM;
        if !self.sweep && self.needs_compact {
            self.active
                .retain(|&i| status[i as usize] == Status::Active);
            self.needs_compact = false;
        }
        self.coll.clear();
        self.facet.clear();
    }
}

/// One worker's Over-Events scratch: the per-particle state arrays of
/// the breadth-first kernels — the data that the Over-Particles scheme
/// would have kept in registers ("Any time data is to be cached, it must
/// be stored per particle", §V-B) — plus the window's coherence state
/// (compacted index lists, occupancy bookkeeping, scratch arena).
///
/// Lane-sized, not population-sized: built empty inside a step
/// ([`crate::step::run_lanes`]), grown to the first lane its worker
/// takes and reused for every later one at that high-water capacity. The
/// init kernel re-derives every field a round reads from the lane's
/// particles, so nothing of one lane — its lists, its arena, a deposit
/// the runaway guard abandoned — reaches the next.
#[derive(Default)]
pub(crate) struct EventScratch {
    micro_a: Vec<f64>,
    micro_s: Vec<f64>,
    n_dens: Vec<f64>,
    mat: Vec<MaterialId>,
    dist: Vec<f64>,
    pending: Vec<f64>,
    pending_cell: Vec<u32>,
    tag: Vec<Tag>,
    status: Vec<Status>,
    ws: WindowState,
}

impl EventScratch {
    /// The window over lane `p`: the first `p.len()` slots of every state
    /// array (grown to fit), beside the lane's own column slices.
    fn window<'a, 'p>(&'a mut self, p: &'a mut SoAChunkMut<'p>) -> Window<'a, 'p> {
        let n = p.len();
        if self.status.len() < n {
            self.micro_a.resize(n, 0.0);
            self.micro_s.resize(n, 0.0);
            self.n_dens.resize(n, 0.0);
            self.mat.resize(n, 0);
            self.dist.resize(n, 0.0);
            self.pending.resize(n, 0.0);
            self.pending_cell.resize(n, 0);
            self.tag.resize(n, Tag::None);
            self.status.resize(n, Status::Dead);
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
            tag: &mut self.tag[..n],
            status: &mut self.status[..n],
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
    tag: &'a mut [Tag],
    status: &'a mut [Status],
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
            for (i, s) in w.status.iter_mut().enumerate() {
                if *s == Status::Active {
                    *s = Status::Dead;
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
        if w.ws.live == 0 {
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
/// through one batched `lookup_many` call — the lane-block shape the
/// hashed lookup's run-detection memo is built for. All staging lanes live in
/// the window's [`ScratchArena`], so repeated invocations (one per
/// lane) allocate nothing once the arena has warmed up.
fn init_kernel<R: CbRng>(w: &mut Window<'_, '_>, ctx: &TransportCtx<'_, R>) -> EventCounters {
    let mut c = EventCounters::default();
    let n = w.p.len();
    let WindowState {
        arena: a,
        active,
        coll,
        facet,
        census,
        live,
        scan,
        needs_compact,
        ..
    } = &mut *w.ws;
    a.clear();
    active.clear();
    coll.clear();
    facet.clear();
    census.clear();
    *needs_compact = false;
    for i in 0..n {
        // A previous lane's runaway guard abandons histories without
        // flushing them; a reused scratch must not leak those deposits.
        w.pending[i] = 0.0;
        if w.p.dead[i] {
            w.status[i] = Status::Dead;
            continue;
        }
        w.status[i] = Status::Active;
        w.mat[i] = ctx
            .mesh
            .material(w.p.cellx[i] as usize, w.p.celly[i] as usize);
        active.push(i as u32);
        a.energies.push(w.p.energy[i]);
        a.mats.push(w.mat[i]);
        a.hints_absorb.push(w.p.absorb_hint[i]);
        a.hints_scatter.push(w.p.scatter_hint[i]);
    }
    *live = active.len();
    // Sweep bound: one past the last initially-active slot, so every
    // sweep loop covers only the part of the window that can hold work.
    *scan = active.last().map_or(0, |&i| i as usize + 1);

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

/// Event selection under the hybrid dispatch: a predicate sweep
/// on near-full windows (the seed behaviour bit for bit), the compacted
/// index list once the population has thinned. Both arms call the same
/// [`next_event_parts`] physics per live particle in ascending order; the
/// list arm additionally streams the tagged indices into the round's
/// collision/facet lists, which is what shrinks every downstream
/// kernel's trip count.
fn decide_kernel(w: &mut Window<'_, '_>, mesh: &StructuredMesh2D) {
    w.ws.begin_round(w.status);
    let WindowState {
        active,
        coll,
        facet,
        census,
        live,
        sweep,
        scan,
        needs_compact,
        ..
    } = &mut *w.ws;
    let (sweep, scan) = (*sweep, *scan);
    let status = &mut *w.status;
    let (cols, micro_a, micro_s, n_dens, tag, dist) = (
        &w.p,
        &*w.micro_a,
        &*w.micro_s,
        &*w.n_dens,
        &mut *w.tag,
        &mut *w.dist,
    );
    // One body, two explicitly unswitched loops (macro-expanded so both
    // arms inline): the seed's predicate sweep and the compacted-list
    // walk generate tight codegen instead of a per-iteration mode branch.
    macro_rules! body {
        ($i:expr, $sweeping:expr) => {{
            let i = $i;
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
                    status[i] = Status::AtCensus;
                    tag[i] = Tag::None;
                    census.push(i as u32);
                    *live -= 1;
                    *needs_compact = true;
                }
                NextEvent::Facet(d, f) => {
                    tag[i] = Tag::facet(f);
                    dist[i] = d;
                    if !$sweeping {
                        facet.push(i as u32);
                    }
                }
                NextEvent::Collision(d) => {
                    tag[i] = Tag::Collision;
                    dist[i] = d;
                    if !$sweeping {
                        coll.push(i as u32);
                    }
                }
            }
        }};
    }
    if sweep {
        for i in 0..scan {
            if status[i] != Status::Active {
                tag[i] = Tag::None;
                continue;
            }
            body!(i, true);
        }
    } else {
        for &iu in active.iter() {
            body!(iu as usize, false);
        }
    }
}

fn collision_kernel<R: CbRng>(w: &mut Window<'_, '_>, ctx: &TransportCtx<'_, R>) -> EventCounters {
    let mut c = EventCounters::default();
    let nx = ctx.mesh.nx();
    let WindowState {
        arena: a,
        coll,
        live,
        sweep,
        scan,
        needs_compact,
        ..
    } = &mut *w.ws;
    let (sweep, scan) = (*sweep, *scan);
    // The batched re-lookup pays a gather/scatter pass; only `hashed`,
    // whose `lookup_many` has a sorted-block fast path, wins it back. The
    // walking strategies keep the seed's per-particle calls (same
    // lookups, same counters either way).
    let batch = ctx.cfg.xs_search == crate::config::LookupStrategy::Hashed;

    a.clear();
    let trips = if sweep { scan } else { coll.len() };
    #[allow(clippy::needless_range_loop)] // dual-mode index source
    for k in 0..trips {
        let i = if sweep { k } else { coll[k] as usize };
        if sweep && (w.tag[i] != Tag::Collision || w.status[i] != Status::Active) {
            continue;
        }
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
        // Both arms walk ascending, so `lost_energy_ev` sums the cutoff
        // deaths in index order.
        let died = handle_collision(&mut p, &mut stream, micro, ctx.cfg, &mut c);
        if died {
            w.status[i] = Status::Dead;
            *live -= 1;
            *needs_compact = true;
        } else if batch {
            a.idx.push(i as u32);
            a.energies.push(p.energy);
            a.mats.push(w.mat[i]);
            a.hints_absorb.push(p.xs_hints.absorb);
            a.hints_scatter.push(p.xs_hints.scatter);
        } else {
            let micro = crate::history::lookup_micro(&mut p, ctx, w.mat[i], &mut c);
            w.micro_a[i] = micro.absorb_barns;
            w.micro_s[i] = micro.scatter_barns;
        }
        w.p.store(i, &p);
    }

    // The collisions changed the survivors' energies: re-resolve their
    // cross sections through one batched lane-block lookup (bitwise
    // identical to the per-particle calls, but a single tight sweep the
    // sorted-block fast paths of the grid backends can exploit).
    if batch {
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
            &mut c,
            &mut a.xs,
        );
        for (j, &iu) in a.idx.iter().enumerate() {
            let i = iu as usize;
            w.micro_a[i] = a.out_absorb[j];
            w.micro_s[i] = a.out_scatter[j];
            w.p.absorb_hint[i] = a.hints_absorb[j];
            w.p.scatter_hint[i] = a.hints_scatter[j];
        }
    }
    c
}

fn facet_kernel<R: CbRng>(w: &mut Window<'_, '_>, ctx: &TransportCtx<'_, R>) -> EventCounters {
    let mut c = EventCounters::default();
    let nx = ctx.mesh.nx();
    let sweep = w.ws.sweep;
    let scan = w.ws.scan;
    let facet_list = &w.ws.facet;

    macro_rules! body {
        ($i:expr, $facet:expr) => {{
            let i = $i;
            let facet = $facet;
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
        }};
    }
    if sweep {
        for i in 0..scan {
            if w.status[i] != Status::Active {
                continue;
            }
            let Some(facet) = w.tag[i].to_facet() else {
                continue;
            };
            body!(i, facet);
        }
    } else {
        for &iu in facet_list.iter() {
            let i = iu as usize;
            let Some(facet) = w.tag[i].to_facet() else {
                debug_assert!(false, "facet list member without a facet tag");
                continue;
            };
            body!(i, facet);
        }
    }
    c
}

/// Which set a tally flush drains.
#[derive(Clone, Copy)]
enum FlushList {
    /// The round flush: every particle that was active at the start of
    /// the round (including this round's deaths and census arrivals,
    /// whose last deposits are still pending), in ascending index order
    /// — the seed's flush sequence. In sweep mode this is the seed's
    /// whole-window sweep.
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
    let mut drain = |i: usize| {
        if w.pending[i] != 0.0 {
            sink.deposit(w.pending_cell[i] as usize, w.pending[i]);
            w.pending[i] = 0.0;
            c.tally_flushes += 1;
        }
    };
    match list {
        FlushList::Round if w.ws.sweep => (0..w.ws.scan).for_each(&mut drain),
        FlushList::Round => w.ws.active.iter().for_each(|&iu| drain(iu as usize)),
        FlushList::Census => w.ws.census.iter().for_each(|&iu| drain(iu as usize)),
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
        debug_assert_eq!(w.status[i], Status::AtCensus);
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

    /// The compaction invariant under the hybrid dispatch: the live
    /// counter always equals the alive-predicate count; in list mode the
    /// maintained index list is exactly the set the alive-predicate
    /// would select, in ascending order, and the round's collision/facet
    /// lists are exactly the tagged subsets. Both dispatch arms must be
    /// exercised (scatter's population decays through the threshold).
    #[test]
    fn compacted_list_matches_alive_predicate() {
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
            let alive: Vec<u32> = (0..n as u32)
                .filter(|&i| w.status[i as usize] == Status::Active)
                .collect();
            assert_eq!(w.ws.active, alive, "{case:?}: init list");
            assert_eq!(w.ws.live, alive.len(), "{case:?}: init live count");

            let (mut sweep_rounds, mut list_rounds) = (0u32, 0u32);
            for round in 0..1000 {
                // The set the predicate selects at the compaction point.
                let expected: Vec<u32> = (0..n as u32)
                    .filter(|&i| w.status[i as usize] == Status::Active)
                    .collect();
                decide_kernel(w, c.mesh);
                if w.ws.sweep {
                    sweep_rounds += 1;
                } else {
                    list_rounds += 1;
                    assert_eq!(
                        w.ws.active, expected,
                        "{case:?} round {round}: compacted list != alive predicate set"
                    );
                    let tagged: Vec<u32> = expected
                        .iter()
                        .copied()
                        .filter(|&i| w.status[i as usize] == Status::Active)
                        .collect();
                    let colls: Vec<u32> = tagged
                        .iter()
                        .copied()
                        .filter(|&i| w.tag[i as usize] == Tag::Collision)
                        .collect();
                    let facets: Vec<u32> = tagged
                        .iter()
                        .copied()
                        .filter(|&i| w.tag[i as usize].to_facet().is_some())
                        .collect();
                    assert_eq!(w.ws.coll, colls, "{case:?} round {round}: collision list");
                    assert_eq!(w.ws.facet, facets, "{case:?} round {round}: facet list");
                }
                if w.ws.live == 0 {
                    break;
                }
                collision_kernel(w, &c);
                facet_kernel(w, &c);
                tally_kernel(w, &mut { &tally }, FlushList::Round);
                let live_now = (0..n).filter(|&i| w.status[i] == Status::Active).count();
                assert_eq!(w.ws.live, live_now, "{case:?} round {round}: live count");
            }
            assert!(
                sweep_rounds > 0 && list_rounds > 0,
                "{case:?}: both dispatch arms must be exercised \
                 (sweep={sweep_rounds}, list={list_rounds})"
            );
            // The census list holds exactly the AtCensus set once sorted.
            let mut census = w.ws.census.clone();
            census.sort_unstable();
            let expected: Vec<u32> = (0..n as u32)
                .filter(|&i| w.status[i as usize] == Status::AtCensus)
                .collect();
            assert_eq!(census, expected, "{case:?}: census list");
        }
    }

    /// The live-prefix sweep bound: `scan` is one past the last slot alive
    /// at init — holes inside it are swept and skipped, a dead tail is
    /// never visited — and the shortened sweep is bitwise clean: a window
    /// with a dead tail computes exactly what the same window cut off at
    /// its last live particle computes.
    #[test]
    fn scan_bound_tracks_live_prefix() {
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

        let mut scratch = EventScratch::default();
        let mut probe = ParticleSoA::from_aos(&base);
        let mut lanes = probe.chunks_mut(n);
        let w = &mut scratch.window(&mut lanes[0]);
        init_kernel(w, &c);
        assert_eq!(w.ws.scan, bound, "scan == one past the last live slot");
        assert_eq!(w.ws.live, alive);

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
