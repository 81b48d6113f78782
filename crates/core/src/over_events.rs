//! Drivers for the **Over Events** parallelisation scheme (paper §V-B,
//! Listing 2): progress *all* particle histories one event at a time, with
//! one kernel per event class.
//!
//! Properties the paper attributes to this scheme, all reproduced here:
//!
//! * tight, vectorisable loops — the round kernels are written against
//!   the `KernelBackend` seam, with one implementation per way of
//!   writing them: [`Backend::Scalar`] per-particle loops,
//!   [`Backend::Vectorized`] restructured branch-light loops the
//!   auto-vectoriser can digest (§VI-G), and [`Backend::Simd`] explicit
//!   `core::arch` vectors as the third proof point — all three bitwise
//!   identical;
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
use crate::config::SortPolicy;
use crate::counters::EventCounters;
use crate::events::{
    clamp_nonneg, energy_deposition, handle_collision, handle_facet_parts, move_particle,
    move_particle_parts, next_event_parts, resolve_micro_xs, resolve_micro_xs_many, NextEvent,
    TallySink,
};
use crate::history::TransportCtx;
use crate::soa::{ParticleSoA, SoAChunkMut};
use neutral_mesh::{Facet, StructuredMesh2D};
use neutral_rng::{CbRng, CounterStream};
use neutral_xs::constants::speed_m_per_s;
use neutral_xs::{macroscopic_per_m, number_density, MaterialId, MicroXs, XsHints};
use std::time::{Duration, Instant};

pub use crate::config::Backend;

/// The kernel-backend seam (DESIGN.md §19): one implementation per way
/// of writing the per-round kernels. The trait carries exactly the two
/// decisions that differ between backends — how the distance/selection
/// kernel is written, and whether the collision/facet kernels hoist
/// their movement + deposit arithmetic into a branch-light pre-pass —
/// so every other kernel (init, tally flush, census) is shared code.
///
/// **Contract:** every implementation must compute the same per-lane
/// expressions in the same order as [`ScalarBackend`] — no FMA
/// contraction, no reassociation, no fast-math — so all backends
/// produce bitwise-identical trajectories, tallies and counters on
/// every fixture. The explicit-SIMD backend must degrade to the scalar
/// expressions (lane for lane) on hosts without the required CPU
/// features.
pub(crate) trait KernelBackend: Sync {
    /// Distance calculation + event selection for one window round.
    fn decide(&self, w: &mut Window<'_>, mesh: &StructuredMesh2D) -> EventCounters;

    /// Whether the collision/facet kernels run their vectorisable
    /// movement + deposit pre-pass (branch-light, over the tagged set)
    /// instead of folding that arithmetic into the branchy per-event
    /// body. Both placements compute identical bits.
    fn prepass(&self) -> bool;
}

/// The seed's per-particle loops with early predicate exits.
pub(crate) struct ScalarBackend;

/// The §VI-G restructuring: whole-window arithmetic passes the
/// auto-vectoriser can digest, plus short scalar fix-up passes.
pub(crate) struct VectorizedBackend;

/// Explicit `core::arch` SIMD (AVX2 on `x86_64`), runtime
/// feature-detected with a bitwise-identical scalar fallback.
pub(crate) struct SimdBackend;

impl KernelBackend for ScalarBackend {
    fn decide(&self, w: &mut Window<'_>, mesh: &StructuredMesh2D) -> EventCounters {
        decide_kernel_scalar(w, mesh)
    }

    fn prepass(&self) -> bool {
        false
    }
}

impl KernelBackend for VectorizedBackend {
    fn decide(&self, w: &mut Window<'_>, mesh: &StructuredMesh2D) -> EventCounters {
        decide_kernel_vectorized(w, mesh)
    }

    fn prepass(&self) -> bool {
        true
    }
}

impl KernelBackend for SimdBackend {
    fn decide(&self, w: &mut Window<'_>, mesh: &StructuredMesh2D) -> EventCounters {
        decide_kernel_simd(w, mesh)
    }

    fn prepass(&self) -> bool {
        true
    }
}

impl Backend {
    /// The backend's kernel implementation.
    pub(crate) fn kernel(self) -> &'static dyn KernelBackend {
        match self {
            Backend::Scalar => &ScalarBackend,
            Backend::Vectorized => &VectorizedBackend,
            Backend::Simd => &SimdBackend,
        }
    }
}

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
/// scratch arena for batched lookups and restructured passes. One
/// instance per breadth-first window, created once per solve, so the
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
    /// This round's cutoff deaths as `(index, lost energy)`; summed in
    /// ascending index order so `lost_energy_ev` accumulates in exactly
    /// the seed's sequence whatever order the collision kernel ran in.
    deaths: Vec<(u32, f64)>,
    /// Deposits drained by this window's last Round flush — the numerator
    /// of the [`crate::config::SortPolicy::Auto`] heuristic.
    last_flush_deposits: u32,
    /// Adjacent cell changes in that flush sequence (the heuristic's
    /// denominator): the exact distinct-cell count when the flush was
    /// clustered, a proxy otherwise. An unsorted flush over randomly
    /// ordered cells can't see sharing (runs ≈ deposits), which is why
    /// Auto periodically *probes* with a clustered flush — bitwise free
    /// by the ByCell identity argument — to refresh the exact count.
    last_flush_cell_runs: u32,
    /// Rounds until the next Auto probe flush; reset to
    /// [`AUTO_PROBE_INTERVAL`] by every clustered flush.
    probe_countdown: u32,
    /// Live (`Active`) particles in this window, maintained by the
    /// decide (census departures) and collision (deaths) kernels — the
    /// occupancy the dispatch decides on without scanning anything.
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
    /// Round prologue shared by both decide kernels: pick the iteration
    /// mode from the live occupancy, and in list mode compact the active
    /// list (order-preserving, so it stays ascending — the property the
    /// bitwise-identity invariant rests on) and reset the round's tagged
    /// lists.
    ///
    /// Note that even list mode iterates in ascending index order: the
    /// particle state lives in index-ordered arrays, so a *permuted*
    /// iteration order would turn every state access into a random
    /// gather (measurably slower on CPUs). The
    /// [`SortPolicy`] instead reorders the two memory streams where
    /// clustering pays: the separated tally flush and the batched
    /// lookup lane blocks.
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
pub(crate) struct Window<'a> {
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
/// order) is anchored to it.
///
/// Each lane's counters accumulate **scalar, per lane, across every
/// pass** (chronological within the lane), and only the caller runs the
/// one pairwise reduction across lanes. That decomposition is what a
/// shard — which sees only its own lanes, and whose round loop may run
/// fewer rounds than the whole population's — can reproduce exactly:
/// combined with the zero-drain flush no-op in `tally_kernel`, a lane's
/// counter partial is a pure function of that lane's particles.
#[allow(clippy::too_many_arguments)] // the solve's full configuration surface
pub fn run_over_events_lanes_partitioned<R: CbRng>(
    soa: &mut ParticleSoA,
    ctx: &TransportCtx<'_, R>,
    accum: &mut neutral_mesh::TallyAccum,
    backend: Backend,
    n_threads: usize,
    schedule: crate::scheduler::Schedule,
    state: &mut Option<EventState>,
    part: neutral_mesh::LanePartition,
) -> (Vec<EventCounters>, KernelTimings) {
    use crate::scheduler::parallel_for_owned;
    use neutral_mesh::LaneSink;

    let kb = backend.kernel();
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
            *c = tally_kernel(w, v, list, ctx.cfg.sort_policy);
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
        let decide = run_pass(soa, &mut *st, &|w| kb.decide(w, ctx.mesh));
        timings.decide += t.elapsed();
        // The decide kernels abuse the collisions field to carry the
        // still-active count; it is read here, never accumulated.
        if decide.iter().map(|c| c.collisions).sum::<u64>() == 0 {
            break;
        }

        let t = Instant::now();
        accumulate(
            &mut lane_counters,
            &run_pass(soa, &mut *st, &|w| {
                collision_kernel(w, ctx, kb, ctx.cfg.sort_policy)
            }),
        );
        timings.collision += t.elapsed();

        let t = Instant::now();
        accumulate(
            &mut lane_counters,
            &run_pass(soa, &mut *st, &|w| facet_kernel(w, ctx, kb)),
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
        deaths,
        last_flush_deposits,
        last_flush_cell_runs,
        probe_countdown,
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
    deaths.clear();
    *needs_compact = false;
    *last_flush_deposits = 0;
    *last_flush_cell_runs = 0;
    // First flush gathers data, second may probe (see AUTO_PROBE_INTERVAL).
    *probe_countdown = 1;
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

/// Scalar event selection under the hybrid dispatch: a predicate sweep
/// on near-full windows (the seed behaviour bit for bit), the compacted
/// index list once the population has thinned. Both arms call the same
/// [`next_event_parts`] physics per live particle in ascending order; the
/// list arm additionally streams the tagged indices into the round's
/// collision/facet lists, which is what shrinks every downstream
/// kernel's trip count.
fn decide_kernel_scalar(w: &mut Window<'_>, mesh: &StructuredMesh2D) -> EventCounters {
    let mut c = EventCounters::default();
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
                    c.collisions += 1; // "active" count (see caller)
                }
                NextEvent::Collision(d) => {
                    tag[i] = Tag::Collision;
                    dist[i] = d;
                    if !$sweeping {
                        coll.push(i as u32);
                    }
                    c.collisions += 1;
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
    c
}

/// Vectorisable event selection under the hybrid dispatch: a
/// branch-light arithmetic pass computes the three candidate distances —
/// over the whole window in sweep mode (the seed's "kernels visit the
/// entire list" gather), over the live lanes only in list mode (dead
/// lanes no longer dilute the vector — the compaction cure for the
/// divergent alive-mask of fig. 8) — then a short scalar pass assigns
/// tags. The physics is identical to the scalar kernel.
fn decide_kernel_vectorized(w: &mut Window<'_>, mesh: &StructuredMesh2D) -> EventCounters {
    decide_kernel_wide(w, mesh, false)
}

/// Shared body of the two wide backends: the same two-pass structure,
/// with the sweep arm of pass 1 optionally dispatched to the explicit
/// AVX2 distance pass (`explicit_simd`). The AVX2 pass and the scalar
/// expressions compute identical bits (see [`avx2`]), so the runtime
/// feature fallback — and the `< 4`-lane remainder — are invisible in
/// every tally and counter.
fn decide_kernel_wide(
    w: &mut Window<'_>,
    mesh: &StructuredMesh2D,
    explicit_simd: bool,
) -> EventCounters {
    w.ws.begin_round(w.status);
    let WindowState {
        arena: a,
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
    let sweep = *sweep;
    let status = &mut *w.status;
    let m = if sweep { *scan } else { active.len() };
    a.f64_a.clear();
    a.f64_a.resize(m, 0.0);
    a.f64_b.clear();
    a.f64_b.resize(m, 0.0);
    a.f64_c.clear();
    a.f64_c.resize(m, 0.0);
    a.flags.clear();
    a.flags.resize(m, false);
    let (d_census, d_coll, d_facet, facet_is_x) =
        (&mut a.f64_a, &mut a.f64_b, &mut a.f64_c, &mut a.flags);

    // Pass 1: pure arithmetic, no calls, no data-dependent branches beyond
    // selects — the loop the auto-vectoriser gets to chew on. Explicitly
    // unswitched on the dispatch mode so the sweep arm stays the seed's
    // dense loop.
    {
        let (cols, micro_a, micro_s, n_dens) = (&w.p, &*w.micro_a, &*w.micro_s, &*w.n_dens);
        macro_rules! pass1 {
            ($j:expr, $i:expr) => {{
                let (j, i) = ($j, $i);
                let speed = speed_m_per_s(cols.energy[i]);
                let sigma_t = macroscopic_per_m(micro_a[i] + micro_s[i], n_dens[i]);
                d_census[j] = speed * cols.dt_to_census[i];
                d_coll[j] = if sigma_t > 0.0 {
                    cols.mfp_to_collision[i] / sigma_t
                } else {
                    f64::INFINITY
                };
                let (x0, x1, y0, y1) =
                    mesh.cell_bounds(cols.cellx[i] as usize, cols.celly[i] as usize);
                let (x, ox) = (cols.x[i], cols.omega_x[i]);
                let dx = if ox > 0.0 {
                    (x1 - x) / ox
                } else if ox < 0.0 {
                    (x0 - x) / ox
                } else {
                    f64::INFINITY
                };
                let (y, oy) = (cols.y[i], cols.omega_y[i]);
                let dy = if oy > 0.0 {
                    (y1 - y) / oy
                } else if oy < 0.0 {
                    (y0 - y) / oy
                } else {
                    f64::INFINITY
                };
                facet_is_x[j] = dx <= dy;
                d_facet[j] = if dx <= dy {
                    clamp_nonneg(dx)
                } else {
                    clamp_nonneg(dy)
                };
            }};
        }
        if sweep {
            let mut j0 = 0;
            #[cfg(target_arch = "x86_64")]
            if explicit_simd && avx2_active() {
                // SAFETY: AVX2 support was just confirmed at runtime; the
                // pass touches lanes `[0, return)` of slices all at least
                // `m` long, and every gathered cell index is in range for
                // the mesh's edge arrays (cellx < nx, celly < ny).
                j0 = unsafe {
                    avx2::distance_pass(
                        &cols.energy[..],
                        &cols.dt_to_census[..],
                        &cols.mfp_to_collision[..],
                        &cols.x[..],
                        &cols.y[..],
                        &cols.omega_x[..],
                        &cols.omega_y[..],
                        &cols.cellx[..],
                        &cols.celly[..],
                        mesh.edges_x(),
                        mesh.edges_y(),
                        micro_a,
                        micro_s,
                        n_dens,
                        d_census,
                        d_coll,
                        d_facet,
                        facet_is_x,
                        m,
                    )
                };
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = explicit_simd;
            // Scalar remainder (or the whole sweep when AVX2 is absent):
            // lane-for-lane the same expressions as the vector pass.
            for j in j0..m {
                pass1!(j, j);
            }
        } else {
            // List mode visits scattered lanes — a gather-dominated shape
            // explicit vectors do not improve; the scalar expressions
            // keep the bits pinned.
            let _ = explicit_simd;
            for (j, &iu) in active.iter().enumerate() {
                pass1!(j, iu as usize);
            }
        }
    }

    // Pass 2: tag assignment (scalar fix-up), unswitched the same way.
    let mut c = EventCounters::default();
    {
        let (cols, tag, dist) = (&w.p, &mut *w.tag, &mut *w.dist);
        macro_rules! pass2 {
            ($j:expr, $i:expr, $sweeping:expr) => {{
                let (j, i) = ($j, $i);
                if d_census[j] <= d_coll[j] && d_census[j] <= d_facet[j] {
                    status[i] = Status::AtCensus;
                    tag[i] = Tag::None;
                    census.push(i as u32);
                    *live -= 1;
                    *needs_compact = true;
                } else if d_facet[j] <= d_coll[j] {
                    let f = if facet_is_x[j] {
                        if cols.omega_x[i] >= 0.0 {
                            Facet::XHigh
                        } else {
                            Facet::XLow
                        }
                    } else if cols.omega_y[i] >= 0.0 {
                        Facet::YHigh
                    } else {
                        Facet::YLow
                    };
                    tag[i] = Tag::facet(f);
                    dist[i] = d_facet[j];
                    if !$sweeping {
                        facet.push(i as u32);
                    }
                    c.collisions += 1;
                } else {
                    tag[i] = Tag::Collision;
                    dist[i] = d_coll[j];
                    if !$sweeping {
                        coll.push(i as u32);
                    }
                    c.collisions += 1;
                }
            }};
        }
        if sweep {
            for j in 0..m {
                if status[j] != Status::Active {
                    tag[j] = Tag::None;
                    continue;
                }
                pass2!(j, j, true);
            }
        } else {
            for (j, &iu) in active.iter().enumerate() {
                pass2!(j, iu as usize, false);
            }
        }
    }
    c
}

/// Event selection for the explicit-SIMD backend: the AVX2 distance
/// pass when the host supports it, the scalar expressions lane for
/// lane otherwise. Both arms compute identical bits.
fn decide_kernel_simd(w: &mut Window<'_>, mesh: &StructuredMesh2D) -> EventCounters {
    decide_kernel_wide(w, mesh, true)
}

/// Whether the explicit-SIMD backend may actually issue AVX2: runtime
/// CPU detection, minus the test override.
#[cfg(target_arch = "x86_64")]
fn avx2_active() -> bool {
    !SIMD_FALLBACK_FORCED.load(std::sync::atomic::Ordering::Relaxed)
        && std::arch::is_x86_feature_detected!("avx2")
}

/// Test override: pretend the host lacks AVX2, so [`Backend::Simd`]
/// exercises its scalar fallback path.
#[cfg(target_arch = "x86_64")]
static SIMD_FALLBACK_FORCED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// Force (or stop forcing) the explicit-SIMD backend onto its scalar
/// fallback path, as if the host CPU lacked AVX2. The fallback computes
/// identical bits by contract; this hook exists so tests can prove it on
/// hosts that *do* have AVX2. No-op on non-x86_64 targets (the fallback
/// is the only path there).
pub fn force_simd_fallback(forced: bool) {
    #[cfg(target_arch = "x86_64")]
    SIMD_FALLBACK_FORCED.store(forced, std::sync::atomic::Ordering::Relaxed);
    #[cfg(not(target_arch = "x86_64"))]
    let _ = forced;
}

/// The explicit AVX2 distance pass of [`Backend::Simd`].
///
/// **Bit-identity contract** (DESIGN.md §19): every lane computes the
/// exact expression sequence of the scalar `pass1!` body, mapped
/// op-for-op onto 4-wide IEEE-754 correctly-rounded vector arithmetic:
///
/// * `speed = ((2.0 * e) * EV_TO_J / NEUTRON_MASS_KG).sqrt()` — mul,
///   mul, div, sqrt; all correctly rounded, no FMA contraction;
/// * `sigma_t = ((micro_a + micro_s) * BARN_M2) * n_dens`;
/// * the sign-of-omega facet selects become compare + blend; the lanes
///   not selected may compute `inf`/NaN garbage (e.g. division by a
///   zero direction component), exactly like the untaken scalar branch
///   would have, and the blend discards them;
/// * [`clamp_nonneg`]`(dx)` maps to `_mm256_max_pd(dx, 0.0)`: both
///   return the second operand (`+0.0`) on a NaN or `±0.0` tie — the
///   scalar helper exists precisely to pin that tie, because a plain
///   `f64::max` leaves the zero's sign to codegen;
/// * cell bounds come from `_mm256_i32gather_pd` over the mesh's edge
///   arrays — the same memory `cell_bounds` reads, minus the per-lane
///   tuple construction.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;
    use neutral_xs::constants::{BARN_M2, EV_TO_J, NEUTRON_MASS_KG};

    /// Fill the candidate-distance lanes `[0, floor(m / 4) * 4)` from
    /// contiguous particle columns (sweep mode: lane `j` is particle
    /// `j`), returning the first unprocessed lane for the scalar
    /// remainder loop.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support at runtime, every input
    /// slice must hold at least `m` elements, and every `cellx`/`celly`
    /// value must index a valid mesh cell (so the edge gathers stay in
    /// bounds).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn distance_pass(
        energy: &[f64],
        dt_to_census: &[f64],
        mfp_to_collision: &[f64],
        x: &[f64],
        y: &[f64],
        omega_x: &[f64],
        omega_y: &[f64],
        cellx: &[u32],
        celly: &[u32],
        edges_x: &[f64],
        edges_y: &[f64],
        micro_a: &[f64],
        micro_s: &[f64],
        n_dens: &[f64],
        d_census: &mut [f64],
        d_coll: &mut [f64],
        d_facet: &mut [f64],
        facet_is_x: &mut [bool],
        m: usize,
    ) -> usize {
        let blocks = m / 4 * 4;
        let two = _mm256_set1_pd(2.0);
        let ev_to_j = _mm256_set1_pd(EV_TO_J);
        let inv_mass = _mm256_set1_pd(NEUTRON_MASS_KG);
        let barn = _mm256_set1_pd(BARN_M2);
        let zero = _mm256_setzero_pd();
        let inf = _mm256_set1_pd(f64::INFINITY);
        let mut j = 0;
        while j < blocks {
            // speed = ((2.0 * e) * EV_TO_J / NEUTRON_MASS_KG).sqrt()
            let e = _mm256_loadu_pd(energy.as_ptr().add(j));
            let speed = _mm256_sqrt_pd(_mm256_div_pd(
                _mm256_mul_pd(_mm256_mul_pd(two, e), ev_to_j),
                inv_mass,
            ));
            // sigma_t = ((micro_a + micro_s) * BARN_M2) * n_dens
            let micro = _mm256_add_pd(
                _mm256_loadu_pd(micro_a.as_ptr().add(j)),
                _mm256_loadu_pd(micro_s.as_ptr().add(j)),
            );
            let sigma_t = _mm256_mul_pd(
                _mm256_mul_pd(micro, barn),
                _mm256_loadu_pd(n_dens.as_ptr().add(j)),
            );
            let dcen = _mm256_mul_pd(speed, _mm256_loadu_pd(dt_to_census.as_ptr().add(j)));
            // d_coll = sigma_t > 0 ? mfp / sigma_t : inf (the untaken
            // division yields inf/NaN and is blended away).
            let sig_pos = _mm256_cmp_pd::<_CMP_GT_OQ>(sigma_t, zero);
            let dcol = _mm256_blendv_pd(
                inf,
                _mm256_div_pd(_mm256_loadu_pd(mfp_to_collision.as_ptr().add(j)), sigma_t),
                sig_pos,
            );
            // Cell bounds: gather (edge[i], edge[i + 1]) pairs per axis.
            let ix = _mm_set_epi32(
                cellx[j + 3] as i32,
                cellx[j + 2] as i32,
                cellx[j + 1] as i32,
                cellx[j] as i32,
            );
            let iy = _mm_set_epi32(
                celly[j + 3] as i32,
                celly[j + 2] as i32,
                celly[j + 1] as i32,
                celly[j] as i32,
            );
            let x0 = _mm256_i32gather_pd::<8>(edges_x.as_ptr(), ix);
            let x1 = _mm256_i32gather_pd::<8>(edges_x.as_ptr().add(1), ix);
            let y0 = _mm256_i32gather_pd::<8>(edges_y.as_ptr(), iy);
            let y1 = _mm256_i32gather_pd::<8>(edges_y.as_ptr().add(1), iy);
            // dx = ox > 0 ? (x1-x)/ox : ox < 0 ? (x0-x)/ox : inf
            let xv = _mm256_loadu_pd(x.as_ptr().add(j));
            let oxv = _mm256_loadu_pd(omega_x.as_ptr().add(j));
            let tx_hi = _mm256_div_pd(_mm256_sub_pd(x1, xv), oxv);
            let tx_lo = _mm256_div_pd(_mm256_sub_pd(x0, xv), oxv);
            let ox_pos = _mm256_cmp_pd::<_CMP_GT_OQ>(oxv, zero);
            let ox_neg = _mm256_cmp_pd::<_CMP_LT_OQ>(oxv, zero);
            let dx = _mm256_blendv_pd(_mm256_blendv_pd(inf, tx_lo, ox_neg), tx_hi, ox_pos);
            let yv = _mm256_loadu_pd(y.as_ptr().add(j));
            let oyv = _mm256_loadu_pd(omega_y.as_ptr().add(j));
            let ty_hi = _mm256_div_pd(_mm256_sub_pd(y1, yv), oyv);
            let ty_lo = _mm256_div_pd(_mm256_sub_pd(y0, yv), oyv);
            let oy_pos = _mm256_cmp_pd::<_CMP_GT_OQ>(oyv, zero);
            let oy_neg = _mm256_cmp_pd::<_CMP_LT_OQ>(oyv, zero);
            let dy = _mm256_blendv_pd(_mm256_blendv_pd(inf, ty_lo, oy_neg), ty_hi, oy_pos);
            // facet_is_x = dx <= dy; d_facet = max(selected, 0.0)
            let is_x = _mm256_cmp_pd::<_CMP_LE_OQ>(dx, dy);
            let dfac = _mm256_blendv_pd(_mm256_max_pd(dy, zero), _mm256_max_pd(dx, zero), is_x);
            _mm256_storeu_pd(d_census.as_mut_ptr().add(j), dcen);
            _mm256_storeu_pd(d_coll.as_mut_ptr().add(j), dcol);
            _mm256_storeu_pd(d_facet.as_mut_ptr().add(j), dfac);
            let bits = _mm256_movemask_pd(is_x);
            facet_is_x[j] = bits & 1 != 0;
            facet_is_x[j + 1] = bits & 2 != 0;
            facet_is_x[j + 2] = bits & 4 != 0;
            facet_is_x[j + 3] = bits & 8 != 0;
            j += 4;
        }
        blocks
    }
}

fn collision_kernel<R: CbRng>(
    w: &mut Window<'_>,
    ctx: &TransportCtx<'_, R>,
    kb: &dyn KernelBackend,
    policy: SortPolicy,
) -> EventCounters {
    let mut c = EventCounters::default();
    let nx = ctx.mesh.nx();
    let WindowState {
        arena: a,
        coll,
        deaths,
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
    // Under `ByEnergyBand` the survivors' lookup lanes are gathered in
    // energy-band order, so the batched `lookup_many` below walks
    // monotone energy-grid runs (the run-detection fast path of the
    // unionized/hashed backends). Per-lane results are independent and
    // scattered back by index, so the physics is order-blind.
    let sort_lanes = batch && policy == SortPolicy::ByEnergyBand;
    // One virtual call per kernel, not per particle (see facet_kernel).
    let prepass = kb.prepass();

    if prepass {
        // Vectorisable pre-pass: movement + deposit arithmetic for all
        // colliding particles, hoisted out of the branchy handler
        // (unswitched on the dispatch mode, like decide).
        macro_rules! prepass {
            ($i:expr) => {{
                let i = $i;
                debug_assert!(w.status[i] == Status::Active && w.tag[i] == Tag::Collision);
                let micro = MicroXs {
                    absorb_barns: w.micro_a[i],
                    scatter_barns: w.micro_s[i],
                };
                let d = w.dist[i];
                w.pending[i] +=
                    energy_deposition(w.p.energy[i], w.p.weight[i], d, w.n_dens[i], micro);
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
            }};
        }
        if sweep {
            for i in 0..scan {
                if w.tag[i] != Tag::Collision || w.status[i] != Status::Active {
                    continue;
                }
                prepass!(i);
            }
        } else {
            for &iu in coll.iter() {
                prepass!(iu as usize);
            }
        }
    }

    a.clear();
    deaths.clear();
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
        if !prepass {
            let d = w.dist[i];
            w.pending[i] += energy_deposition(p.energy, p.weight, d, w.n_dens[i], micro);
            w.pending_cell[i] = p.cell_index(nx) as u32;
            let sigma_t = macroscopic_per_m(micro.total_barns(), w.n_dens[i]);
            move_particle(&mut p, d, sigma_t);
        }
        let mut stream = CounterStream::new(ctx.rng, p.key);
        // Capture this particle's cutoff loss separately so the `f64`
        // accumulation below can run in ascending index order whatever
        // order produced it.
        let outer_lost = c.lost_energy_ev;
        c.lost_energy_ev = 0.0;
        let died = handle_collision(&mut p, &mut stream, micro, ctx.cfg, &mut c);
        if died {
            deaths.push((i as u32, c.lost_energy_ev));
            w.status[i] = Status::Dead;
            *live -= 1;
            *needs_compact = true;
        } else if sort_lanes {
            a.idx.push(i as u32);
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
        c.lost_energy_ev = outer_lost;
        w.p.store(i, &p);
    }

    // Deterministic `f64` reduction: lost energy sums in ascending index
    // order — the sequence the uncompacted sweep produced.
    deaths.sort_unstable_by_key(|d| d.0);
    for &(_, e) in deaths.iter() {
        c.lost_energy_ev += e;
    }

    if sort_lanes {
        // Stable sort by energy band (exponent + top 8 mantissa bits,
        // monotone for the positive energies in play; ~0.4% bands), then
        // gather the survivor lanes in that order. Equal bands keep
        // ascending index order — irrelevant for the physics (per-lane
        // lookups are independent) but it keeps the lane block
        // deterministic, so `cs_search_steps` is reproducible.
        a.sort_keys.clear();
        for &iu in &a.idx {
            let band = crate::particle::energy_band(w.p.energy[iu as usize]);
            a.sort_keys.push((band, iu));
        }
        crate::arena::radix_sort_pairs(&mut a.sort_keys, &mut a.sort_tmp);
        a.idx.clear();
        for k in 0..a.sort_keys.len() {
            let iu = a.sort_keys[k].1;
            let i = iu as usize;
            a.idx.push(iu);
            a.energies.push(w.p.energy[i]);
            a.mats.push(w.mat[i]);
            a.hints_absorb.push(w.p.absorb_hint[i]);
            a.hints_scatter.push(w.p.scatter_hint[i]);
        }
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

fn facet_kernel<R: CbRng>(
    w: &mut Window<'_>,
    ctx: &TransportCtx<'_, R>,
    kb: &dyn KernelBackend,
) -> EventCounters {
    let mut c = EventCounters::default();
    let nx = ctx.mesh.nx();
    let sweep = w.ws.sweep;
    let scan = w.ws.scan;
    let facet_list = &w.ws.facet;
    // One virtual call per kernel, not per particle: the flag is
    // loop-invariant, and an indirect call inside the per-event loops
    // would defeat their unswitching.
    let prepass = kb.prepass();

    if prepass {
        // Vectorisable pre-pass: movement + deposit for all facet-bound
        // particles (unswitched on the dispatch mode, like decide).
        macro_rules! prepass {
            ($i:expr) => {{
                let i = $i;
                debug_assert!(w.status[i] == Status::Active && w.tag[i].to_facet().is_some());
                let micro = MicroXs {
                    absorb_barns: w.micro_a[i],
                    scatter_barns: w.micro_s[i],
                };
                let d = w.dist[i];
                w.pending[i] +=
                    energy_deposition(w.p.energy[i], w.p.weight[i], d, w.n_dens[i], micro);
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
            }};
        }
        if sweep {
            for i in 0..scan {
                if w.status[i] != Status::Active || w.tag[i].to_facet().is_none() {
                    continue;
                }
                prepass!(i);
            }
        } else {
            for &iu in facet_list.iter() {
                prepass!(iu as usize);
            }
        }
    }

    macro_rules! body {
        ($i:expr, $facet:expr) => {{
            let i = $i;
            let facet = $facet;
            if !prepass {
                let micro = MicroXs {
                    absorb_barns: w.micro_a[i],
                    scatter_barns: w.micro_s[i],
                };
                let d = w.dist[i];
                w.pending[i] +=
                    energy_deposition(w.p.energy[i], w.p.weight[i], d, w.n_dens[i], micro);
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
            }
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// Minimum deposits in the previous Round flush before the
/// [`SortPolicy::Auto`] heuristic will even consider clustering — below
/// this the sort cannot pay for itself.
const AUTO_MIN_DEPOSITS: u32 = 16;

/// Rounds between [`SortPolicy::Auto`] probe flushes: a clustered flush
/// measures the exact deposits-per-distinct-cell ratio (the unsorted
/// flush can only see adjacent runs), so Auto re-probes at this cadence
/// while the unsorted arm holds. Probes are bitwise free — a clustered
/// flush computes identical bits — so the cadence tunes only overhead.
const AUTO_PROBE_INTERVAL: u32 = 32;

fn tally_kernel<T: TallySink>(
    w: &mut Window<'_>,
    sink: &mut T,
    list: FlushList,
    policy: SortPolicy,
) -> EventCounters {
    let mut c = EventCounters::default();
    let WindowState {
        arena: a,
        active,
        census,
        last_flush_deposits,
        last_flush_cell_runs,
        probe_countdown,
        sweep,
        scan,
        ..
    } = &mut *w.ws;
    let scan = *scan;
    let (sweep, indices): (bool, &[u32]) = match list {
        FlushList::Round => (*sweep, active),
        FlushList::Census => (false, census),
    };
    // Clustered (cell-sorted) flush: unconditional under ByCell; under
    // Auto only when the previous round's flush showed deposits genuinely
    // sharing cells (mean ≥ 2 deposits per adjacent-cell run and enough
    // volume for the sort to pay). The decision uses only per-window
    // state, so it is identical for any worker count.
    let cluster = list == FlushList::Round
        && match policy {
            SortPolicy::ByCell => true,
            SortPolicy::Auto => {
                *last_flush_deposits >= AUTO_MIN_DEPOSITS
                    && (*last_flush_deposits >= 2 * (*last_flush_cell_runs).max(1)
                        || *probe_countdown == 0)
            }
            SortPolicy::Off | SortPolicy::ByEnergyBand => false,
        };

    // The heuristic's observation window: deposits drained and adjacent
    // cell changes in this flush's final order (exact distinct-cell count
    // when clustered, an upper-bound proxy otherwise). Only Auto reads
    // these, so only Auto pays for tracking them — the other policies
    // keep the seed's bare flush loop.
    let want_stats = policy == SortPolicy::Auto && list == FlushList::Round;
    let mut deposits = 0u32;
    let mut cell_runs = 0u32;
    let mut last_cell = u32::MAX;
    macro_rules! drain {
        ($cell:expr, $i:expr) => {{
            let (cell, i) = ($cell, $i);
            sink.deposit(cell as usize, w.pending[i]);
            w.pending[i] = 0.0;
            c.tally_flushes += 1;
            if want_stats {
                deposits += 1;
                if cell != last_cell {
                    cell_runs += 1;
                    last_cell = cell;
                }
            }
        }};
    }

    if cluster {
        // Collect the flush candidates keyed by tally cell, in ascending
        // index order; the stable cell sort keeps every cell's deposits
        // in that order — the same `f64` add sequence, and therefore the
        // same bits, as the seed's unsorted flush.
        a.sort_keys.clear();
        if sweep {
            for i in 0..scan {
                if w.pending[i] != 0.0 {
                    a.sort_keys.push((w.pending_cell[i], i as u32));
                }
            }
        } else {
            for &iu in indices.iter() {
                let i = iu as usize;
                if w.pending[i] != 0.0 {
                    a.sort_keys.push((w.pending_cell[i], iu));
                }
            }
        }
        crate::arena::radix_sort_pairs(&mut a.sort_keys, &mut a.sort_tmp);
        for k in 0..a.sort_keys.len() {
            let (cell, iu) = a.sort_keys[k];
            drain!(cell, iu as usize);
        }
    } else if sweep {
        for i in 0..scan {
            if w.pending[i] != 0.0 {
                drain!(w.pending_cell[i], i);
            }
        }
    } else {
        for &iu in indices.iter() {
            let i = iu as usize;
            if w.pending[i] != 0.0 {
                drain!(w.pending_cell[i], i);
            }
        }
    }

    // A flush that drained nothing is a complete no-op: no clustered-pass
    // count, no heuristic-stats update, no probe-countdown movement. This
    // keeps every per-window flush state a pure function of the window's
    // *own* deposit history — never of how many rounds *other* windows
    // kept the global loop alive — which is what lets a shard, whose
    // local round loop may exit earlier than the whole population's,
    // reproduce each lane's counters bitwise (see `crate::shard`). Empty
    // rounds only happen to windows with no active particles, so the
    // retained "last flush" stats still describe the last flush that
    // moved any energy.
    if c.tally_flushes > 0 {
        if cluster {
            c.clustered_flushes += 1;
        }
        if list == FlushList::Round {
            *last_flush_deposits = deposits;
            *last_flush_cell_runs = cell_runs;
            if cluster {
                *probe_countdown = AUTO_PROBE_INTERVAL;
            } else if *probe_countdown > 0 {
                *probe_countdown -= 1;
            }
        }
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
        backend: Backend,
        workers: usize,
        state: &mut Option<EventState>,
    ) -> (EventCounters, KernelTimings) {
        let part = LanePartition::new(soa.len(), accum.n_lanes());
        let (partials, timings) = run_over_events_lanes_partitioned(
            soa,
            c,
            accum,
            backend,
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
                let decide = decide_kernel_scalar(w, c.mesh);
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
                if decide.collisions == 0 {
                    break;
                }
                collision_kernel(w, &c, &ScalarBackend, SortPolicy::Off);
                facet_kernel(w, &c, &ScalarBackend);
                tally_kernel(w, &mut { &tally }, FlushList::Round, SortPolicy::Off);
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
            let (counters, _t) =
                run_rounds(&mut soa, &c, &mut accum, Backend::Scalar, 1, &mut None);
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
    /// same particle trajectories as Over Particles, for every test case
    /// and both kernel styles.
    #[test]
    fn over_events_matches_over_particles() {
        for case in TestCase::ALL {
            let (problem, rng) = fixture(case);
            let c = ctx(&problem, &rng);

            let mut op_particles = spawn_particles(&problem);
            let mut op_tally = SequentialTally::new(problem.mesh.num_cells());
            let op_counters = run_sequential(&mut op_particles, &c, &mut op_tally);

            for style in Backend::ALL {
                for (sink, workers) in [(SINKS[0], 1), (SINKS[0], 4), (SINKS[1], 1), (SINKS[1], 4)]
                {
                    let mut oe_soa = ParticleSoA::from_aos(&spawn_particles(&problem));
                    let mut accum = TallyAccum::new(sink, problem.mesh.num_cells(), 16);
                    let (oe_counters, _t) =
                        run_rounds(&mut oe_soa, &c, &mut accum, style, workers, &mut None);
                    assert_eq!(
                        op_particles,
                        oe_soa.to_aos(),
                        "{case:?}/{style:?}/{sink:?}/{workers}w: trajectories"
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
                        "{case:?}/{style:?}/{sink:?}: tally {a} vs {b}"
                    );
                }
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
            run_rounds(&mut oe_soa, &c, &mut accum, Backend::Scalar, 1, &mut None);
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
            let (_counters, t) = run_rounds(
                &mut particles,
                &c,
                &mut accum,
                Backend::Scalar,
                1,
                &mut None,
            );
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
            let (counters, _) = run_rounds(
                &mut particles,
                &c,
                &mut accum,
                Backend::Scalar,
                2,
                &mut None,
            );
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
                    let (c0, _) =
                        run_rounds(&mut particles, &c, &mut tally, Backend::Scalar, 1, st);
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

    /// Lane-for-lane bit identity of the AVX2 distance pass against the
    /// scalar `pass1!` expressions, on a battery of adversarial lanes:
    /// zero direction components (the untaken-branch garbage blends),
    /// a particle exactly on its cell edge travelling inward (`-0.0`
    /// through the `max(d, 0.0)` tie), zero total cross section (the
    /// infinity select), and a zero-energy lane (zero speed).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_distance_pass_matches_scalar_expressions() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        use neutral_xs::constants::speed_m_per_s;
        let (problem, _rng) = fixture(TestCase::Csp);
        let mesh = &problem.mesh;
        let m = 11; // two full blocks + a 3-lane remainder (untouched)
        let (x0e, _, y0e, _) = mesh.cell_bounds(1, 1);
        let energy: Vec<f64> = (0..m)
            .map(|i| [1.0, 0.0, 1e6, 2.35e3, 0.025, 14.1e6, 7.5, 1e-5][i % 8])
            .collect();
        let omega_x: Vec<f64> = (0..m)
            .map(|i| [0.7, -0.7, 0.0, 1.0, -1.0, 0.3, 0.0, -0.5][i % 8])
            .collect();
        let omega_y: Vec<f64> = (0..m)
            .map(|i| [0.3, 0.0, 1.0, 0.0, -0.2, -0.9, -1.0, 0.5][i % 8])
            .collect();
        // Lane 4 sits exactly on its low-x edge with omega_x < 0:
        // (x0 - x) / ox = +0.0 / -1.0 = -0.0 into the max(d, 0.0) tie.
        let x: Vec<f64> = (0..m)
            .map(|i| if i == 4 { x0e } else { x0e + 0.01 })
            .collect();
        let y: Vec<f64> = (0..m)
            .map(|i| if i == 6 { y0e } else { y0e + 0.02 })
            .collect();
        let cellx = vec![1u32; m];
        let celly = vec![1u32; m];
        let dt: Vec<f64> = (0..m).map(|i| 1e-7 * (i as f64 + 1.0)).collect();
        let mfp: Vec<f64> = (0..m).map(|i| 0.5 + 0.1 * i as f64).collect();
        let micro_a: Vec<f64> = (0..m).map(|i| if i % 5 == 2 { 0.0 } else { 3.2 }).collect();
        let micro_s: Vec<f64> = (0..m).map(|i| if i % 5 == 2 { 0.0 } else { 9.8 }).collect();
        let n_dens: Vec<f64> = (0..m)
            .map(|i| if i % 5 == 2 { 0.0 } else { 4.1e28 })
            .collect();

        let mut d_census = vec![0.0f64; m];
        let mut d_coll = vec![0.0f64; m];
        let mut d_facet = vec![0.0f64; m];
        let mut facet_is_x = vec![false; m];
        // SAFETY: AVX2 confirmed above; all slices are m long; cell
        // indices are interior mesh cells.
        let processed = unsafe {
            avx2::distance_pass(
                &energy,
                &dt,
                &mfp,
                &x,
                &y,
                &omega_x,
                &omega_y,
                &cellx,
                &celly,
                mesh.edges_x(),
                mesh.edges_y(),
                &micro_a,
                &micro_s,
                &n_dens,
                &mut d_census,
                &mut d_coll,
                &mut d_facet,
                &mut facet_is_x,
                m,
            )
        };
        assert_eq!(processed, 8, "two full 4-lane blocks");

        for i in 0..processed {
            let speed = speed_m_per_s(energy[i]);
            let sigma_t = macroscopic_per_m(micro_a[i] + micro_s[i], n_dens[i]);
            let r_census = speed * dt[i];
            let r_coll = if sigma_t > 0.0 {
                mfp[i] / sigma_t
            } else {
                f64::INFINITY
            };
            let (bx0, bx1, by0, by1) = mesh.cell_bounds(cellx[i] as usize, celly[i] as usize);
            let dx = if omega_x[i] > 0.0 {
                (bx1 - x[i]) / omega_x[i]
            } else if omega_x[i] < 0.0 {
                (bx0 - x[i]) / omega_x[i]
            } else {
                f64::INFINITY
            };
            let dy = if omega_y[i] > 0.0 {
                (by1 - y[i]) / omega_y[i]
            } else if omega_y[i] < 0.0 {
                (by0 - y[i]) / omega_y[i]
            } else {
                f64::INFINITY
            };
            let r_is_x = dx <= dy;
            let r_facet = if dx <= dy {
                clamp_nonneg(dx)
            } else {
                clamp_nonneg(dy)
            };
            assert_eq!(
                d_census[i].to_bits(),
                r_census.to_bits(),
                "lane {i}: d_census"
            );
            assert_eq!(d_coll[i].to_bits(), r_coll.to_bits(), "lane {i}: d_coll");
            assert_eq!(d_facet[i].to_bits(), r_facet.to_bits(), "lane {i}: d_facet");
            assert_eq!(facet_is_x[i], r_is_x, "lane {i}: facet_is_x");
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
                let _ = run_rounds(&mut particles, &c, &mut tally, Backend::Scalar, 1, st);
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
