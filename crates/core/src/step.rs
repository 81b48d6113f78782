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
//! The [`TallyAccum`] is not step state: the caller builds a fresh one per
//! step on its own thread — a fold whose mesh pool holds `min(lanes, workers + ⌈log₂ lanes⌉ + 1)` meshes — and each worker
//! *opens* the lanes it tracks (a pooled mesh, zero-filled on that worker)
//! and *closes* them as they finish, which folds them up the pairwise
//! tree while the other workers track. Both schemes do this the same way.
//! What is left when the step's fork-join returns is the tree's root (the
//! caller's `merge`) or, for a shard attempt, the tree nodes covering its
//! lanes (`into_nodes`), which it ships. See "Lane lifecycle" in
//! DESIGN.md §11.
//!
//! Both schemes run through the one lane driver, `run_lanes`: the
//! columns cut at the partition's lane boundaries, each paired with its
//! global lane, and **one fork-join per step** whose body opens the lane,
//! runs the scheme's lane kernel and closes the lane — for any
//! [`Execution`]:
//!
//! | scheme | lane kernel | per-worker scratch |
//! |---|---|---|
//! | Over Particles | `track_lane`: `load` → `track_to_census` → `store` per history | none |
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
/// *explicit* partition `part`, pair chunk `i` with lane `i` of `accum`'s
/// lanes, and run `kernel` once per lane on `workers` workers under
/// `schedule` — one fork-join. The worker that takes a lane opens its
/// sink, runs the kernel into it and drops it, which closes the lane and
/// folds it into `accum`'s tree on that worker. Each worker owns one `W`
/// (built empty, filled by the kernel) that it reuses across the lanes it
/// happens to take; a lane's output may not depend on it. Returns the
/// per-lane outputs in lane order: the folded tally (the one tally, a
/// fixed-shape tree) and the caller's pairwise counter merge are then
/// bitwise identical for any worker count and schedule.
///
/// The partition is explicit because this is also the sharding seam: a
/// shard holds a contiguous run of the global lane space, so it must
/// process its particles with the *global* `lane_size` (a tail shard's
/// local `LanePartition::new` would compute a smaller one), fold its
/// lanes into the global tree's nodes that cover them, and hand those
/// nodes and its per-lane counters (this return value) to the
/// coordinator, which finishes the global pairwise merges.
pub(crate) fn run_lanes<W, O, K>(
    soa: &mut ParticleSoA,
    accum: &TallyAccum,
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
    let mut lanes: Vec<(usize, SoAChunkMut<'_>, O)> = accum
        .lanes()
        .zip(soa.chunks_mut(part.lane_size))
        .map(|(lane, chunk)| (lane, chunk, O::default()))
        .collect();
    let mut scratch: Vec<W> = (0..workers).map(|_| W::default()).collect();
    parallel_for_owned_with(
        &mut scratch,
        schedule.lane_granular(),
        &mut lanes,
        |scratch, _, (lane, chunk, out)| {
            let mut sink = accum.open(*lane);
            *out = kernel(scratch, chunk, &mut sink);
        },
    );
    // Copied out, not collected in place: a result that reuses the lane
    // vector's buffer — allocated right after the mesh pool — outlives
    // the pool and pins the top of the heap (+4 MB peak RSS per process
    // in the repo benchmark's multi-solve runs).
    lanes.iter().map(|(_, _, out)| *out).collect()
}

/// Advance the column range `soa` one timestep: `part` is the explicit
/// lane partition of the range (global lane size), `accum` the tally with
/// one lane per lane of `part`, each opened and closed here. Returns the raw per-lane
/// counters (census energy left to the fold) and, for Over Events, the
/// step's kernel timings.
pub(crate) fn run_step(
    soa: &mut ParticleSoA,
    ctx: &TransportCtx<'_, Threefry2x64>,
    options: RunOptions,
    part: LanePartition,
    accum: &TallyAccum,
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
    accum: &TallyAccum,
) -> (Vec<EventCounters>, Option<KernelTimings>) {
    let execution = Execution::Scheduled { threads, schedule };
    run_step(soa, ctx, RunOptions { scheme, execution }, part, accum)
}
