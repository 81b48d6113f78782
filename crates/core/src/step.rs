//! The one step engine (DESIGN.md §15): every way of advancing a
//! timestep — [`crate::sim::SolveCore::step`] over the whole population
//! in place, a [`crate::shard`] attempt over a detached column
//! sub-range — is the same three-piece sequence over a lane range:
//!
//! 1. `begin_step` — census-boundary `dt` reset, regroup with the
//!    *global* lane size, identity-map rebuild;
//! 2. `run_step` — the crate's only `Scheme × Layout` dispatch, over an
//!    explicit [`LanePartition`] into a [`TallyAccum`], returning raw
//!    per-lane counters (or `run_baseline`, the record-at-a-time
//!    Over-Particles arm the paper's schedule and privatisation studies
//!    need);
//! 3. `SolveCore::fold_step` — deterministic counter merge, key-order
//!    census-energy fold, running-tally accumulate.
//!
//! The [`TallyAccum`] is the one piece of step state that is *not* kept
//! in `StepScratch`: the caller allocates a fresh one per step (lane
//! meshes arrive as untouched zero pages), the depth-first drivers have
//! each worker claim — zero-fill — the lanes it tracks while Over Events
//! leaves them lazy, and the caller folds it with
//! `merge_with(workers)` (in place, no lane copied) or takes the lanes
//! whole (`into_lane_partials`: a shard attempt, which reduces them to
//! the merge-tree nodes it ships) before dropping it. See "Lane
//! lifecycle" in DESIGN.md §11.
//!
//! The dispatch table (`execution × tally × layout × scheme → arm`):
//!
//! | scheme / layout | execution | tally | arm |
//! |---|---|---|---|
//! | Over Particles / AoS | `Sequential`, `Scheduled` | `atomic` | baseline: plain `Vec<f64>` / shared-atomic mesh, particle-granular schedule |
//! | Over Particles / AoS | `ScheduledPrivatized` | any | baseline: one private mesh per thread (§VI-F) |
//! | anything else | any | any | lane engine: `run_step`, lane-granular (≤ [`neutral_mesh::accum::DEFAULT_LANES`]-way), `atomic` is the [`TallyAccum::Atomic`] sink |

use crate::arena::ScratchArena;
use crate::config::{Problem, TallyStrategy};
use crate::counters::EventCounters;
use crate::history::TransportCtx;
use crate::over_events::{run_over_events_lanes_partitioned, EventState, KernelTimings};
use crate::over_particles::{run_lanes_partitioned, run_scheduled, run_sequential, ScheduledTally};
use crate::particle::Particle;
use crate::scheduler::Schedule;
use crate::sim::{Execution, Layout, RunOptions, Scheme};
use crate::soa::{regroup_soa_parallel, run_lanes_soa_partitioned, ParticleSoA};
use neutral_mesh::tally::{AtomicTally, PrivatizedTally, SequentialTally};
use neutral_mesh::{LanePartition, TallyAccum};
use neutral_rng::Threefry2x64;

/// Per-solve scratch that persists **across timesteps**: the event-driver
/// state arrays and per-window arenas, the per-worker arenas of the SoA
/// lane driver and the regroup stage, the AoS record buffer of the
/// record-at-a-time drivers, and the identity map of a regrouped
/// population. Everything reaches its high-water capacity in step one
/// and is never reallocated. (A shard attempt is stateless and builds a
/// fresh one.)
#[derive(Default)]
pub(crate) struct StepScratch {
    oe: Option<EventState>,
    /// Records materialised from the canonical columns for the
    /// record-at-a-time (`Layout::Aos`) history drivers.
    aos: Vec<Particle>,
    soa_arenas: Vec<ScratchArena>,
    regroup_scratches: Vec<ScratchArena>,
    /// `order[key - base0]` = position, valid while `permuted`.
    order: Vec<u32>,
    permuted: bool,
}

impl StepScratch {
    /// The identity map of the population last passed to
    /// [`StepScratch::map_identity`], or `None` when it sits in identity
    /// order (the drivers then take their direct, unpermuted paths).
    pub(crate) fn order(&self) -> Option<&[u32]> {
        self.permuted.then_some(self.order.as_slice())
    }

    /// The one rule for when a population counts as permuted: derive it
    /// from the actual storage order (`keys[pos] != base0 + pos`
    /// somewhere), never carry it across steps. A population that happens
    /// to sit in identity order runs through the direct code paths, which
    /// compute the same bits an identity map would — so fresh, resumed and
    /// sharded solves agree by construction.
    pub(crate) fn map_identity(&mut self, keys: &[u64], base0: usize) {
        let base = base0 as u64;
        self.permuted = keys
            .iter()
            .enumerate()
            .any(|(pos, &key)| key != base + pos as u64);
        if self.permuted {
            self.order.resize(keys.len(), 0);
            for (pos, &key) in keys.iter().enumerate() {
                self.order[(key - base) as usize] = pos as u32;
            }
        }
    }
}

/// Worker count and schedule implied by an [`Execution`].
pub(crate) fn execution_workers(execution: Execution) -> (usize, Schedule) {
    match execution {
        Execution::Sequential => (1, Schedule::Static { chunk: None }),
        Execution::Rayon => (rayon::current_num_threads(), Schedule::Dynamic { chunk: 1 }),
        Execution::Scheduled { threads, schedule }
        | Execution::ScheduledPrivatized { threads, schedule } => (threads, schedule),
    }
}

/// Open timestep `step` over the column range `soa` (whose first particle
/// sits at global index `base0`): past the first step, reset the
/// survivors' census timers and physically regroup them per the problem's
/// [`crate::config::RegroupPolicy`]; then rebuild the identity map.
///
/// The regroup permutes within lane blocks only, so a range of whole
/// global lanes regrouped with the **global** `lane_size` lands in
/// exactly the arrangement the whole-population regroup gives those
/// positions — a tail shard must not recompute the lane size locally.
pub(crate) fn begin_step(
    soa: &mut ParticleSoA,
    problem: &Problem,
    execution: Execution,
    step: usize,
    lane_size: usize,
    base0: usize,
    scratch: &mut StepScratch,
) {
    if step > 0 {
        for i in 0..soa.len() {
            if !soa.dead[i] {
                soa.dt_to_census[i] = problem.dt;
            }
        }
        let (workers, schedule) = execution_workers(execution);
        regroup_soa_parallel(
            soa,
            problem.transport.regroup_policy,
            problem.mesh.nx(),
            lane_size,
            workers,
            schedule,
            &mut scratch.regroup_scratches,
        );
    }
    scratch.map_identity(&soa.key, base0);
}

/// Advance the column range `soa` one timestep through the lane engine:
/// `part` is the explicit lane partition of the range (global lane size),
/// `base0` the global index of its first particle, `accum` the tally sink
/// with one lane view per lane of `part`. Returns the raw per-lane
/// counters (census energy left to the fold) and, for Over Events, the
/// kernel timings. [`begin_step`] must have run on the same `scratch`.
pub(crate) fn run_step(
    soa: &mut ParticleSoA,
    ctx: &TransportCtx<'_, Threefry2x64>,
    options: RunOptions,
    part: LanePartition,
    base0: usize,
    accum: &mut TallyAccum,
    scratch: &mut StepScratch,
) -> (Vec<EventCounters>, Option<KernelTimings>) {
    let (workers, schedule) = execution_workers(options.execution);
    // `scratch.order()`, spelled per field so the arms below can borrow
    // the other scratch buffers mutably.
    let order = scratch.permuted.then_some(scratch.order.as_slice());
    match (options.scheme, options.layout) {
        (Scheme::OverEvents, _) => {
            let (counters, timings) = run_over_events_lanes_partitioned(
                soa,
                ctx,
                accum,
                options.backend,
                workers,
                schedule,
                &mut scratch.oe,
                part,
                base0 as u32,
            );
            (counters, Some(timings))
        }
        (Scheme::OverParticles, Layout::Aos) => {
            // Record-at-a-time seam: materialise, run, scatter back.
            let aos = &mut scratch.aos;
            soa.to_aos_into(aos);
            let counters = run_lanes_partitioned(aos, ctx, accum, workers, schedule, order, part);
            soa.copy_from_aos(aos);
            (counters, None)
        }
        (Scheme::OverParticles, layout @ (Layout::Soa | Layout::SoaEventStepped)) => (
            run_lanes_soa_partitioned(
                soa,
                ctx,
                accum,
                workers,
                schedule,
                layout == Layout::SoaEventStepped,
                &mut scratch.soa_arenas,
                order,
                part,
            ),
            None,
        ),
    }
}

/// The record-at-a-time Over-Particles baseline (see the module's
/// dispatch table): the only arm that schedules at particle granularity
/// and can privatise per *thread*, which is what the paper's fig04/06/07
/// sweeps measure. Returns `None` — having done nothing — when `options`
/// select the lane engine; otherwise the step's counters, merged mesh and
/// tally footprint in bytes.
pub(crate) fn run_baseline(
    soa: &mut ParticleSoA,
    ctx: &TransportCtx<'_, Threefry2x64>,
    options: RunOptions,
    scratch: &mut StepScratch,
) -> Option<(EventCounters, Vec<f64>, usize)> {
    if (options.scheme, options.layout) != (Scheme::OverParticles, Layout::Aos) {
        return None;
    }
    let cells = ctx.mesh.num_cells();
    let atomic = ctx.cfg.tally_strategy == TallyStrategy::Atomic;
    let aos = &mut scratch.aos;
    let mut with_records = |run: &mut dyn FnMut(&mut [Particle]) -> EventCounters| {
        soa.to_aos_into(aos);
        let counters = run(aos);
        soa.copy_from_aos(aos);
        counters
    };
    Some(match options.execution {
        Execution::Sequential if atomic => {
            let mut tally = SequentialTally::new(cells);
            let counters = with_records(&mut |aos| run_sequential(aos, ctx, &mut tally));
            (counters, tally.into_values(), cells * 8)
        }
        Execution::Scheduled { threads, schedule } if atomic => {
            let tally = AtomicTally::new(cells);
            let counters = with_records(&mut |aos| {
                run_scheduled(aos, ctx, ScheduledTally::Atomic(&tally), threads, schedule)
            });
            (counters, tally.snapshot(), tally.footprint_bytes())
        }
        Execution::ScheduledPrivatized { threads, schedule } => {
            let mut tally = PrivatizedTally::new(threads, cells);
            let counters = with_records(&mut |aos| {
                let sink = ScheduledTally::Privatized(&mut tally);
                run_scheduled(aos, ctx, sink, threads, schedule)
            });
            (counters, tally.merge(), tally.footprint_bytes())
        }
        _ => return None,
    })
}
