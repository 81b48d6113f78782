//! Drivers for the **Over Events** parallelisation scheme (paper §V-B,
//! Listing 2): progress *all* particle histories one event at a time, with
//! one kernel per event class.
//!
//! Properties the paper attributes to this scheme, all reproduced here:
//!
//! * tight loops, one kernel per event class — each kernel is written
//!   one way, as a per-particle loop with early predicate exits; the
//!   paper's §VI-G restructuring for vector units was reproduced,
//!   measured and removed (DESIGN.md §19);
//! * no register caching — the state the Over-Particles loop keeps in
//!   registers (microscopic cross sections, local number density) lives in
//!   per-particle arrays and is streamed from memory every round;
//! * compacted access — the seed reproduced the paper's "every kernel
//!   visits the whole particle list and checks a predicate" gathers; the
//!   kernels now iterate maintained compacted index lists (the stream
//!   compaction cure from the GPU MC literature), with incremental
//!   compaction at census/death so trip counts shrink as the population
//!   dies — bitwise identical physics, measurably less memory traffic;
//! * batched atomics — deposits accumulate in a per-particle pending array
//!   and a *separate* tally loop flushes them, which is the workaround the
//!   paper used to get the other loops to vectorise (§VI-G);
//! * per-kernel wall-clock timings ([`KernelTimings`]) — the data behind
//!   the tally-share and vectorisation figures.

use crate::arena::ScratchArena;
use crate::counters::EventCounters;
use crate::events::{
    energy_deposition, handle_collision, handle_facet_parts, move_particle, move_particle_parts,
    next_event_parts, resolve_micro_xs, resolve_micro_xs_many, NextEvent, TallySink,
};
use crate::history::TransportCtx;
use crate::soa::{ParticleSoA, SoAChunkMut};
use neutral_mesh::{Facet, StructuredMesh2D};
use neutral_rng::{CbRng, CounterStream};
use neutral_xs::constants::speed_m_per_s;
use neutral_xs::{macroscopic_per_m, number_density, MaterialId, MicroXs, XsHints};
use std::time::{Duration, Instant};

/// Wall-clock time spent in each kernel, summed over rounds.
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
    /// Number of breadth-first rounds executed.
    pub rounds: u64,
}

impl KernelTimings {
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
/// scratch arena for batched lookups. One instance per breadth-first
/// window, created once per solve, so the steady-state round loop
/// performs no allocations.
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

/// The per-particle state arrays of the breadth-first driver — the data
/// that the Over-Particles scheme would have kept in registers ("Any time
/// data is to be cached, it must be stored per particle", §V-B) — plus
/// the per-window coherence state (compacted index lists, occupancy
/// bookkeeping, scratch arenas).
///
/// One instance serves a whole multi-timestep solve: the init kernel
/// re-derives every live field from the particle list at the start of
/// each [`run_over_events_lanes_partitioned`] call, so the arrays — and
/// every arena and index list inside them, at their high-water
/// capacities — are reused across timesteps instead of being reallocated
/// per call (the ROADMAP "arena reuse across timesteps" item). Build one
/// with [`EventState::ensure`].
pub struct EventState {
    micro_a: Vec<f64>,
    micro_s: Vec<f64>,
    n_dens: Vec<f64>,
    mat: Vec<MaterialId>,
    dist: Vec<f64>,
    pending: Vec<f64>,
    pending_cell: Vec<u32>,
    tag: Vec<Tag>,
    status: Vec<Status>,
    wins: Vec<WindowState>,
    /// Window size the state was built for; [`windows`] always cuts at
    /// this boundary, so the window count can never drift from `wins`.
    chunk: usize,
}

impl EventState {
    /// State for `n` particles cut into `chunk`-sized windows.
    fn new(n: usize, chunk: usize) -> Self {
        assert!(chunk > 0, "window chunk must be positive");
        let n_windows = if n == 0 { 0 } else { n.div_ceil(chunk) };
        Self {
            micro_a: vec![0.0; n],
            micro_s: vec![0.0; n],
            n_dens: vec![0.0; n],
            mat: vec![0; n],
            dist: vec![0.0; n],
            pending: vec![0.0; n],
            pending_cell: vec![0; n],
            tag: vec![Tag::None; n],
            status: vec![Status::Active; n],
            wins: (0..n_windows).map(|_| WindowState::default()).collect(),
            chunk,
        }
    }

    /// Reuse `slot`'s state when it already fits `n` particles in
    /// `chunk`-sized windows; (re)build it otherwise. Returns the ready
    /// state. This is the seam the multi-timestep loop calls every step:
    /// after the first step it is a pure borrow.
    pub fn ensure(slot: &mut Option<EventState>, n: usize, chunk: usize) -> &mut EventState {
        let fits = slot
            .as_ref()
            .is_some_and(|s| s.status.len() == n && s.chunk == chunk);
        if !fits {
            *slot = Some(EventState::new(n, chunk));
        }
        slot.as_mut().expect("just ensured")
    }

    /// Residual pending deposits (should be drained to zero by the final
    /// census flush of every solve) — exposed for the state-reuse tests.
    #[must_use]
    pub fn pending_total(&self) -> f64 {
        self.pending.iter().map(|v| v.abs()).sum()
    }
}

/// A disjoint mutable window across the particle columns and all state
/// arrays. `p` is the window's slice of every [`ParticleSoA`] field
/// column — the canonical particle storage; no AoS record exists inside
/// the round kernels (branchy handlers gather one particle into a
/// register bundle via [`SoAChunkMut::load`] and scatter it back).
struct Window<'a> {
    p: SoAChunkMut<'a>,
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

fn windows<'a>(soa: &'a mut ParticleSoA, st: &'a mut EventState) -> Vec<Window<'a>> {
    let chunk = st.chunk;
    struct Rest<'a> {
        cols: SoAChunkMut<'a>,
        micro_a: &'a mut [f64],
        micro_s: &'a mut [f64],
        n_dens: &'a mut [f64],
        mat: &'a mut [MaterialId],
        dist: &'a mut [f64],
        pending: &'a mut [f64],
        pending_cell: &'a mut [u32],
        tag: &'a mut [Tag],
        status: &'a mut [Status],
    }
    let mut rest = Rest {
        cols: soa.view_mut(),
        micro_a: &mut st.micro_a,
        micro_s: &mut st.micro_s,
        n_dens: &mut st.n_dens,
        mat: &mut st.mat,
        dist: &mut st.dist,
        pending: &mut st.pending,
        pending_cell: &mut st.pending_cell,
        tag: &mut st.tag,
        status: &mut st.status,
    };
    assert_eq!(
        st.wins.len(),
        if rest.cols.is_empty() {
            0
        } else {
            rest.cols.len().div_ceil(chunk)
        },
        "particle list changed length since EventState::new"
    );
    let mut out = Vec::with_capacity(st.wins.len());
    for ws in &mut st.wins {
        let cut = chunk.min(rest.cols.len());
        let (p0, p1) = rest.cols.split_at_mut(cut);
        let (a0, a1) = rest.micro_a.split_at_mut(cut);
        let (s0, s1) = rest.micro_s.split_at_mut(cut);
        let (n0, n1) = rest.n_dens.split_at_mut(cut);
        let (m0m, m1m) = rest.mat.split_at_mut(cut);
        let (d0, d1) = rest.dist.split_at_mut(cut);
        let (pe0, pe1) = rest.pending.split_at_mut(cut);
        let (pc0, pc1) = rest.pending_cell.split_at_mut(cut);
        let (t0, t1) = rest.tag.split_at_mut(cut);
        let (st0, st1) = rest.status.split_at_mut(cut);
        out.push(Window {
            p: p0,
            micro_a: a0,
            micro_s: s0,
            n_dens: n0,
            mat: m0m,
            dist: d0,
            pending: pe0,
            pending_cell: pc0,
            tag: t0,
            status: st0,
            ws,
        });
        rest = Rest {
            cols: p1,
            micro_a: a1,
            micro_s: s1,
            n_dens: n1,
            mat: m1m,
            dist: d1,
            pending: pe1,
            pending_cell: pc1,
            tag: t1,
            status: st1,
        };
    }
    debug_assert!(rest.cols.is_empty());
    out
}

/// Run the Over-Events scheme to census against the pluggable tally
/// subsystem (`neutral_mesh::accum`) — the crate's one timed round loop.
/// The breadth-first windows are cut at the lane boundaries of the
/// *explicit* partition `part`, every kernel schedules whole windows
/// across `n_threads` workers, and the separated tally-flush kernel
/// drains window `i`'s pending deposits through lane sink `i`. Returns
/// the raw per-lane counters and the per-kernel timings; with a
/// deterministic backend the caller's pairwise merge of both tally and
/// counters is bitwise identical for any worker count. Census energy is
/// left to the caller's fold.
///
/// `state` is the reusable per-solve state (arrays + per-window arenas,
/// allocated once across a multi-timestep run). Windows walk their
/// ranges in plain ascending order, which is key order, and every
/// order-sensitive `f64` stream (death sums, census order, tally-flush
/// order) follows it.
///
/// Each lane's counters accumulate **scalar, per lane, across every
/// pass** (chronological within the lane), and only the caller runs the
/// one pairwise reduction across lanes. That decomposition is what a
/// shard — which sees only its own lanes, and whose round loop may run
/// fewer rounds than the whole population's — can reproduce exactly: a
/// round in which a window has nothing live adds nothing to its
/// counters, so a lane's counter partial is a pure function of that
/// lane's particles.
pub fn run_over_events_lanes_partitioned<R: CbRng>(
    soa: &mut ParticleSoA,
    ctx: &TransportCtx<'_, R>,
    accum: &mut neutral_mesh::TallyAccum,
    n_threads: usize,
    schedule: crate::scheduler::Schedule,
    state: &mut Option<EventState>,
    part: neutral_mesh::LanePartition,
) -> (Vec<EventCounters>, KernelTimings) {
    use crate::scheduler::parallel_for_owned;
    use neutral_mesh::LaneSink;

    let n = soa.len();
    assert_eq!(part.n_items, n, "partition must cover the population");
    let chunk = part.lane_size;
    let schedule = schedule.lane_granular();
    let mut views: Vec<LaneSink<'_>> = accum.lane_views();
    views.truncate(part.n_lanes);

    let st = EventState::ensure(state, n, chunk);
    let mut timings = KernelTimings::default();
    let mut lane_counters = vec![EventCounters::default(); part.n_lanes.max(1)];

    // Apply `kernel` to every window, one worker per window, returning
    // the per-window (= per-lane) counters in window order.
    let run_pass = |soa: &mut ParticleSoA,
                    st: &mut EventState,
                    kernel: &(dyn Fn(&mut Window<'_>) -> EventCounters + Sync)|
     -> Vec<EventCounters> {
        let mut states: Vec<(Window<'_>, EventCounters)> = windows(soa, st)
            .into_iter()
            .map(|w| (w, EventCounters::default()))
            .collect();
        parallel_for_owned(n_threads, schedule, &mut states, |_, (w, c)| {
            *c = kernel(w);
        });
        states.iter().map(|(_, c)| *c).collect()
    };
    // As `run_pass`, but pairing window `i` with lane sink `i` for the
    // tally-flush kernel.
    let run_tally_pass = |soa: &mut ParticleSoA,
                          st: &mut EventState,
                          views: &mut [LaneSink<'_>],
                          list: FlushList|
     -> Vec<EventCounters> {
        let mut states: Vec<(Window<'_>, &mut LaneSink<'_>, EventCounters)> = windows(soa, st)
            .into_iter()
            .zip(views.iter_mut())
            .map(|(w, v)| (w, v, EventCounters::default()))
            .collect();
        parallel_for_owned(n_threads, schedule, &mut states, |_, (w, v, c)| {
            *c = tally_kernel(w, v, list);
        });
        states.iter().map(|(_, _, c)| *c).collect()
    };
    let accumulate = |lane_counters: &mut [EventCounters], partials: &[EventCounters]| {
        for (lc, p) in lane_counters.iter_mut().zip(partials) {
            lc.merge(p);
        }
    };

    // --- init kernel.
    let t0 = Instant::now();
    accumulate(
        &mut lane_counters,
        &run_pass(soa, &mut *st, &|w| init_kernel(w, ctx)),
    );
    timings.init = t0.elapsed();

    // --- breadth-first rounds.
    let max_rounds = ctx.cfg.max_events_per_history;
    loop {
        timings.rounds += 1;
        if timings.rounds > max_rounds {
            for (i, s) in st.status.iter_mut().enumerate() {
                if *s == Status::Active {
                    *s = Status::Dead;
                    soa.dead[i] = true;
                    lane_counters[i / chunk].stuck += 1;
                }
            }
            break;
        }

        let t = Instant::now();
        // The decide kernel counts nothing: it only tags.
        parallel_for_owned(n_threads, schedule, &mut windows(soa, st), |_, w| {
            decide_kernel(w, ctx.mesh);
        });
        timings.decide += t.elapsed();
        if st.wins.iter().all(|ws| ws.live == 0) {
            break;
        }

        let t = Instant::now();
        accumulate(
            &mut lane_counters,
            &run_pass(soa, &mut *st, &|w| collision_kernel(w, ctx)),
        );
        timings.collision += t.elapsed();

        let t = Instant::now();
        accumulate(
            &mut lane_counters,
            &run_pass(soa, &mut *st, &|w| facet_kernel(w, ctx)),
        );
        timings.facet += t.elapsed();

        let t = Instant::now();
        accumulate(
            &mut lane_counters,
            &run_tally_pass(soa, &mut *st, &mut views, FlushList::Round),
        );
        timings.tally += t.elapsed();
    }

    // --- census kernel + final flush.
    let t = Instant::now();
    accumulate(
        &mut lane_counters,
        &run_pass(soa, &mut *st, &|w| census_kernel(w, ctx)),
    );
    accumulate(
        &mut lane_counters,
        &run_tally_pass(soa, &mut *st, &mut views, FlushList::Census),
    );
    timings.census += t.elapsed();

    (lane_counters, timings)
}

/// Populate the per-particle cache arrays and build the initial
/// compacted index list. The cross sections of the whole window resolve
/// through one batched `lookup_many` call — the lane-block shape the
/// unionized/hashed backends are built for. All staging lanes live in
/// the window's [`ScratchArena`], so repeated invocations (one per
/// window per timestep) allocate nothing once the arena has warmed up.
fn init_kernel<R: CbRng>(w: &mut Window<'_>, ctx: &TransportCtx<'_, R>) -> EventCounters {
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
        // A previous timestep's runaway guard abandons histories without
        // flushing them; a reused state must not leak those deposits.
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
fn decide_kernel(w: &mut Window<'_>, mesh: &StructuredMesh2D) {
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

fn collision_kernel<R: CbRng>(w: &mut Window<'_>, ctx: &TransportCtx<'_, R>) -> EventCounters {
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
    // The batched re-lookup pays a gather/scatter pass; only the grid
    // backends, whose `lookup_many` has a sorted-block fast path, win it
    // back. The walking backends keep the seed's per-particle calls
    // (same lookups, same counters either way).
    let batch = matches!(
        ctx.cfg.xs_search,
        crate::config::LookupStrategy::Unionized | crate::config::LookupStrategy::Hashed
    );

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

fn facet_kernel<R: CbRng>(w: &mut Window<'_>, ctx: &TransportCtx<'_, R>) -> EventCounters {
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
fn tally_kernel<T: TallySink>(w: &mut Window<'_>, sink: &mut T, list: FlushList) -> EventCounters {
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
fn census_kernel<R: CbRng>(w: &mut Window<'_>, ctx: &TransportCtx<'_, R>) -> EventCounters {
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
    use crate::config::{ProblemScale, TestCase};
    use crate::over_particles::run_sequential;
    use crate::particle::spawn_particles;
    use crate::scheduler::Schedule;
    use neutral_mesh::tally::{AtomicTally, SequentialTally};
    use neutral_mesh::{LanePartition, TallyAccum, TallyStrategy};
    use neutral_rng::Threefry2x64;

    /// The sinks every round-loop test runs under: the deterministic
    /// default and the paper's shared-atomic baseline.
    const SINKS: [TallyStrategy; 2] = [TallyStrategy::Replicated, TallyStrategy::Atomic];

    /// Drive the round loop over the whole population — one window per
    /// lane of `accum`, `workers` workers — and merge the per-lane
    /// counters the way the step engine's fold does.
    fn run_rounds(
        soa: &mut ParticleSoA,
        c: &TransportCtx<'_, Threefry2x64>,
        accum: &mut TallyAccum,
        workers: usize,
        state: &mut Option<EventState>,
    ) -> (EventCounters, KernelTimings) {
        let part = LanePartition::new(soa.len(), accum.n_lanes());
        let (partials, timings) = run_over_events_lanes_partitioned(
            soa,
            c,
            accum,
            workers,
            Schedule::Dynamic { chunk: 1 },
            state,
            part,
        );
        (EventCounters::merge_deterministic(&partials), timings)
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
            let mut st = EventState::new(n, n.max(1));
            let mut ws = windows(&mut particles, &mut st);
            let w = &mut ws[0];
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

        let mut st = EventState::new(n, n.max(1));
        let mut probe = ParticleSoA::from_aos(&base);
        let mut ws = windows(&mut probe, &mut st);
        init_kernel(&mut ws[0], &c);
        assert_eq!(ws[0].ws.scan, bound, "scan == one past the last live slot");
        assert_eq!(ws[0].ws.live, alive);
        drop(ws);

        let run = |particles: &[crate::particle::Particle]| {
            // One lane = one window over the whole population.
            let mut accum = TallyAccum::new(TallyStrategy::Replicated, problem.mesh.num_cells(), 1);
            let mut soa = ParticleSoA::from_aos(particles);
            let (counters, _t) = run_rounds(&mut soa, &c, &mut accum, 1, &mut None);
            let bits: Vec<u64> = accum.merge().iter().map(|v| v.to_bits()).collect();
            (counters, bits, soa.to_aos())
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

            for (sink, workers) in [(SINKS[0], 1), (SINKS[0], 4), (SINKS[1], 1), (SINKS[1], 4)] {
                let mut oe_soa = ParticleSoA::from_aos(&spawn_particles(&problem));
                let mut accum = TallyAccum::new(sink, problem.mesh.num_cells(), 16);
                let (oe_counters, _t) = run_rounds(&mut oe_soa, &c, &mut accum, workers, &mut None);
                assert_eq!(
                    op_particles,
                    oe_soa.to_aos(),
                    "{case:?}/{sink:?}/{workers}w: trajectories"
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
                    "{case:?}/{sink:?}: tally {a} vs {b}"
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
        for sink in SINKS {
            let mut oe_soa = ParticleSoA::from_aos(&spawn_particles(&problem));
            let mut accum = TallyAccum::new(sink, problem.mesh.num_cells(), 16);
            run_rounds(&mut oe_soa, &c, &mut accum, 1, &mut None);
            for (i, (a, b)) in op_tally.values().iter().zip(accum.merge()).enumerate() {
                let scale = a.abs().max(total * 1e-12).max(1e-30);
                assert!(
                    ((a - b) / scale).abs() < 1e-6,
                    "{sink:?} cell {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn timings_are_populated() {
        let (problem, rng) = fixture(TestCase::Csp);
        let c = ctx(&problem, &rng);
        for sink in SINKS {
            let mut particles = ParticleSoA::from_aos(&spawn_particles(&problem));
            let mut accum = TallyAccum::new(sink, problem.mesh.num_cells(), 16);
            let (_counters, t) = run_rounds(&mut particles, &c, &mut accum, 1, &mut None);
            assert!(t.rounds > 1, "{sink:?}");
            assert!(t.total() > Duration::ZERO, "{sink:?}");
            let f = t.tally_fraction();
            assert!((0.0..1.0).contains(&f), "{sink:?}");
        }
    }

    #[test]
    fn runaway_guard_fires() {
        let (mut problem, rng) = fixture(TestCase::Stream);
        problem.transport.max_events_per_history = 3;
        let c = ctx(&problem, &rng);
        for sink in SINKS {
            let mut particles = ParticleSoA::from_aos(&spawn_particles(&problem));
            let mut accum = TallyAccum::new(sink, problem.mesh.num_cells(), 16);
            let (counters, _) = run_rounds(&mut particles, &c, &mut accum, 2, &mut None);
            assert!(counters.stuck > 0, "{sink:?}");
            assert!(particles
                .to_aos()
                .iter()
                .all(|p| p.dead || p.dt_to_census == 0.0));
        }
    }

    /// A reused `EventState` must behave exactly like a fresh one on
    /// every subsequent timestep: same trajectories, counters and tally
    /// bits — no stale per-window data (lists, arenas, pending deposits)
    /// may survive the init kernel.
    #[test]
    fn state_reuse_across_timesteps_matches_fresh_state() {
        for (case, sink) in [
            (TestCase::Scatter, SINKS[0]),
            (TestCase::Scatter, SINKS[1]),
            (TestCase::Csp, SINKS[0]),
            (TestCase::Csp, SINKS[1]),
        ] {
            let (problem, rng) = fixture(case);
            let c = ctx(&problem, &rng);
            let run2 = |reuse: bool| {
                let mut particles = ParticleSoA::from_aos(&spawn_particles(&problem));
                let mut tally = TallyAccum::new(sink, problem.mesh.num_cells(), 16);
                let mut slot: Option<EventState> = None;
                let mut counters = EventCounters::default();
                for step in 0..2 {
                    if step > 0 {
                        for i in 0..particles.len() {
                            if !particles.dead[i] {
                                particles.dt_to_census[i] = problem.dt;
                            }
                        }
                    }
                    let mut fresh: Option<EventState> = None;
                    let st = if reuse { &mut slot } else { &mut fresh };
                    let (c0, _) = run_rounds(&mut particles, &c, &mut tally, 1, st);
                    counters.merge(&c0);
                }
                (particles, counters, tally.merge(), slot)
            };
            let (pa, ca, ta, slot) = run2(true);
            let (pb, cb, tb, _) = run2(false);
            assert_eq!(pa, pb, "{case:?}/{sink:?}: trajectories");
            assert_eq!(ca, cb, "{case:?}/{sink:?}: counters");
            assert!(
                ta.iter().zip(&tb).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{case:?}/{sink:?}: tally bits"
            );
            // A clean solve drains every pending deposit.
            assert_eq!(
                slot.expect("state was reused").pending_total(),
                0.0,
                "{case:?}/{sink:?}: residual pending deposits after a clean solve"
            );
        }
    }

    /// Even a runaway-guard abort leaves no pending deposits behind (the
    /// guard fires at the top of a round, after the previous round's
    /// flush), and a reused state after such an abort still matches a
    /// fresh one bitwise. The init kernel additionally re-zeroes pending
    /// defensively, so this invariant survives future changes to where
    /// the guard fires.
    #[test]
    fn state_reuse_is_clean_after_runaway_abort() {
        let (mut problem, rng) = fixture(TestCase::Scatter);
        problem.transport.max_events_per_history = 6;
        let c = ctx(&problem, &rng);
        let run2 = |reuse: bool, sink: TallyStrategy| {
            let mut particles = ParticleSoA::from_aos(&spawn_particles(&problem));
            let mut tally = TallyAccum::new(sink, problem.mesh.num_cells(), 16);
            let mut slot: Option<EventState> = None;
            for step in 0..2 {
                if step > 0 {
                    assert_eq!(
                        slot.as_ref().map_or(0.0, EventState::pending_total),
                        0.0,
                        "an aborted solve must not leave pending deposits"
                    );
                    for i in 0..particles.len() {
                        if !particles.dead[i] {
                            particles.dt_to_census[i] = problem.dt;
                        }
                    }
                }
                let mut fresh: Option<EventState> = None;
                let st = if reuse { &mut slot } else { &mut fresh };
                let _ = run_rounds(&mut particles, &c, &mut tally, 1, st);
            }
            tally.merge().iter().sum::<f64>()
        };
        for sink in SINKS {
            assert_eq!(
                run2(true, sink).to_bits(),
                run2(false, sink).to_bits(),
                "{sink:?}: reused state after an abort diverges from fresh state"
            );
        }
    }
}
