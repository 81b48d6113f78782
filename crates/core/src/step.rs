//! The one step engine (DESIGN.md §15): every way of advancing a
//! timestep — [`crate::sim::SolveCore::step`] over the whole population
//! in place, a [`crate::shard`] attempt over a detached column
//! sub-range — is the same three-piece sequence over a lane range:
//!
//! 1. `begin_step` — the census-boundary `dt` reset;
//! 2. `run_step` — the crate's only [`Scheme`] dispatch, over an explicit
//!    [`LanePartition`] into a [`TallyAccum`], returning raw per-lane
//!    counters;
//! 3. `SolveCore::fold_step` — deterministic counter merge, key-order
//!    census-energy fold, running-tally accumulate.
//!
//! The [`TallyAccum`] is not step state: the caller allocates a fresh one
//! per step (lane meshes arrive as untouched zero pages), the
//! depth-first driver has each worker claim — zero-fill — the lanes it
//! tracks while Over Events leaves them lazy, and the caller folds it
//! with `merge_with(workers)` (in place, no lane copied) or takes the
//! lanes whole (`into_lane_partials`: a shard attempt, which reduces them
//! to the merge-tree nodes it ships) before dropping it. See "Lane
//! lifecycle" in DESIGN.md §11.
//!
//! Both schemes run through the one lane driver, `run_lanes`: the
//! columns cut at the partition's lane boundaries, zipped with the
//! accumulator's lane views, and **one fork-join per step** whose body is
//! the scheme's lane kernel — for any [`Execution`] and any tally strategy
//! (`atomic` is the [`TallyAccum::Atomic`] sink):
//!
//! | scheme | lane kernel | per-worker scratch |
//! |---|---|---|
//! | Over Particles | `track_lane`: `claim`, then `load` → `track_to_census` → `store` per history | none |
//! | Over Events | `run_event_lane`: `init → (decide → collision → facet → flush)* → census → flush` until the lane has nothing live | one lane-sized `EventScratch` |

use crate::counters::EventCounters;
use crate::history::TransportCtx;
use crate::over_events::{run_event_lane, EventScratch, KernelTimings};
use crate::over_particles::track_lane;
use crate::scheduler::{parallel_for_owned_with, Schedule};
use crate::sim::{Execution, RunOptions, Scheme};
use crate::soa::{ParticleSoA, SoAChunkMut};
use neutral_mesh::{LanePartition, LaneSink, TallyAccum};
use neutral_rng::Threefry2x64;

/// Worker count and schedule implied by an [`Execution`].
pub(crate) fn execution_workers(execution: Execution) -> (usize, Schedule) {
    match execution {
        Execution::Sequential => (1, Schedule::Static { chunk: None }),
        Execution::Scheduled { threads, schedule } => (threads, schedule),
    }
}

/// Open timestep `step` over the column range `soa`: past the first
/// step, the survivors' census timers restart at `dt`.
pub(crate) fn begin_step(soa: &mut ParticleSoA, dt: f64, step: usize) {
    if step > 0 {
        for i in 0..soa.len() {
            if !soa.dead[i] {
                soa.dt_to_census[i] = dt;
            }
        }
    }
}

/// The one lane driver: cut `soa` at the lane boundaries of the
/// *explicit* partition `part`, pair lane `i` with lane sink `i` of
/// `accum`, and run `kernel` once per lane on `workers` workers under
/// `schedule` — one fork-join. Each worker owns one `W` (built empty,
/// filled by the kernel) that it reuses across the lanes it happens to
/// take; a lane's output may not depend on it. Returns the per-lane
/// outputs in lane order: with a deterministic backend the caller's
/// pairwise merge of tally and counters is then bitwise identical for
/// any worker count and schedule.
///
/// The partition is explicit because this is also the sharding seam: a
/// shard holds a contiguous run of the global lane space, so it must
/// process its particles with the *global* `lane_size` (a tail shard's
/// local `LanePartition::new` would compute a smaller one) and hand its
/// partials — tally lanes via [`TallyAccum::into_lane_partials`], reduced
/// to the merge-tree nodes that cover them; per-lane counters via this
/// return value — to the coordinator, which finishes the global pairwise
/// merges.
pub(crate) fn run_lanes<W, O, K>(
    soa: &mut ParticleSoA,
    accum: &mut TallyAccum,
    part: LanePartition,
    workers: usize,
    schedule: Schedule,
    kernel: K,
) -> Vec<O>
where
    W: Default + Send,
    O: Copy + Default + Send,
    K: Fn(&mut W, &mut SoAChunkMut<'_>, &mut LaneSink<'_>) -> O + Sync,
{
    assert_eq!(
        part.n_items,
        soa.len(),
        "partition must cover the population"
    );
    let mut lanes: Vec<(SoAChunkMut<'_>, LaneSink<'_>, O)> = soa
        .chunks_mut(part.lane_size)
        .into_iter()
        .zip(accum.lane_views())
        .map(|(chunk, sink)| (chunk, sink, O::default()))
        .collect();
    let mut scratch: Vec<W> = (0..workers).map(|_| W::default()).collect();
    parallel_for_owned_with(
        &mut scratch,
        schedule.lane_granular(),
        &mut lanes,
        |scratch, _, (chunk, sink, out)| *out = kernel(scratch, chunk, sink),
    );
    // Copied out, not collected in place: a result that reuses the lane
    // vector's buffer — allocated right after the lane meshes — outlives
    // them and pins the top of the heap (+4 MB peak RSS per process in
    // the repo benchmark's multi-solve runs).
    lanes.iter().map(|(_, _, out)| *out).collect()
}

/// Advance the column range `soa` one timestep: `part` is the explicit
/// lane partition of the range (global lane size), `accum` the tally sink
/// with one lane view per lane of `part`. Returns the raw per-lane
/// counters (census energy left to the fold) and, for Over Events, the
/// step's kernel timings.
pub(crate) fn run_step(
    soa: &mut ParticleSoA,
    ctx: &TransportCtx<'_, Threefry2x64>,
    options: RunOptions,
    part: LanePartition,
    accum: &mut TallyAccum,
) -> (Vec<EventCounters>, Option<KernelTimings>) {
    let (workers, schedule) = execution_workers(options.execution);
    match options.scheme {
        Scheme::OverParticles => {
            let kernel = |(): &mut (), chunk: &mut SoAChunkMut<'_>, sink: &mut LaneSink<'_>| {
                track_lane(chunk, sink, ctx)
            };
            (run_lanes(soa, accum, part, workers, schedule, kernel), None)
        }
        Scheme::OverEvents => {
            let kernel = |scratch: &mut EventScratch,
                          chunk: &mut SoAChunkMut<'_>,
                          sink: &mut LaneSink<'_>| {
                run_event_lane(scratch, chunk, sink, ctx)
            };
            let (counters, lane_timings): (Vec<_>, Vec<_>) =
                run_lanes(soa, accum, part, workers, schedule, kernel)
                    .into_iter()
                    .unzip();
            (counters, Some(KernelTimings::over_lanes(&lane_timings)))
        }
    }
}

/// [`run_step`] as the lane kernels' unit tests call it: `scheme` on
/// `threads` explicit workers under `schedule`.
#[cfg(test)]
pub(crate) fn run_step_scheduled(
    soa: &mut ParticleSoA,
    ctx: &TransportCtx<'_, Threefry2x64>,
    (scheme, threads, schedule): (Scheme, usize, Schedule),
    part: LanePartition,
    accum: &mut TallyAccum,
) -> (Vec<EventCounters>, Option<KernelTimings>) {
    let execution = Execution::Scheduled { threads, schedule };
    run_step(soa, ctx, RunOptions { scheme, execution }, part, accum)
}
