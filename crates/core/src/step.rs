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
//! The dispatch table — both arms are lane-granular (≤
//! [`neutral_mesh::accum::DEFAULT_LANES`]-way) over the canonical
//! columns, for any [`Execution`] and any tally strategy (`atomic` is the
//! [`TallyAccum::Atomic`] sink):
//!
//! | scheme | arm |
//! |---|---|
//! | Over Particles | [`run_lanes_partitioned`] |
//! | Over Events | [`run_over_events_lanes_partitioned`] |

use crate::counters::EventCounters;
use crate::history::TransportCtx;
use crate::over_events::{run_over_events_lanes_partitioned, EventState, KernelTimings};
use crate::over_particles::run_lanes_partitioned;
use crate::scheduler::Schedule;
use crate::sim::{Execution, RunOptions, Scheme};
use crate::soa::ParticleSoA;
use neutral_mesh::{LanePartition, TallyAccum};
use neutral_rng::Threefry2x64;

/// Worker count and schedule implied by an [`Execution`].
pub(crate) fn execution_workers(execution: Execution) -> (usize, Schedule) {
    match execution {
        Execution::Sequential => (1, Schedule::Static { chunk: None }),
        Execution::Rayon => (rayon::current_num_threads(), Schedule::Dynamic { chunk: 1 }),
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

/// Advance the column range `soa` one timestep: `part` is the explicit
/// lane partition of the range (global lane size), `accum` the tally sink
/// with one lane view per lane of `part`, `oe_state` the Over-Events
/// state arrays a multi-timestep solve keeps across steps (reaching their
/// high-water capacity in step one; a shard attempt is stateless and
/// passes a fresh `None`). Returns the raw per-lane counters (census
/// energy left to the fold) and, for Over Events, the kernel timings.
pub(crate) fn run_step(
    soa: &mut ParticleSoA,
    ctx: &TransportCtx<'_, Threefry2x64>,
    options: RunOptions,
    part: LanePartition,
    accum: &mut TallyAccum,
    oe_state: &mut Option<EventState>,
) -> (Vec<EventCounters>, Option<KernelTimings>) {
    let (workers, schedule) = execution_workers(options.execution);
    match options.scheme {
        Scheme::OverParticles => (
            run_lanes_partitioned(soa, ctx, accum, workers, schedule, part),
            None,
        ),
        Scheme::OverEvents => {
            let (counters, timings) = run_over_events_lanes_partitioned(
                soa, ctx, accum, workers, schedule, oe_state, part,
            );
            (counters, Some(timings))
        }
    }
}
