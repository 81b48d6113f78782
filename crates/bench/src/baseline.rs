//! The paper's Over-Particles baselines, for the figures only.
//!
//! The solve path has one Over-Particles driver (lane-granular, over the
//! column storage, into a `TallyAccum`). What the paper's §VI-C..F
//! studies measure is something else: a particle-granular OpenMP-style
//! schedule over `Particle` records into one shared atomic mesh (Figs. 3,
//! 4, 6) or one private mesh per *thread* (Fig. 7), and — the layout
//! study's penalty row (Fig. 5) — columns whose working state is forced
//! through memory at every event. [`run_baseline`] drives those through
//! `neutral_core`'s public record-at-a-time drivers, one timestep at a
//! time, and reports them in the shape of a solve's [`RunReport`].
//! Nothing outside the figure binaries calls it.

use neutral_core::history::{step_particle_uncached, StepOutcome, TransportCtx};
use neutral_core::over_particles::{run_scheduled, run_sequential, ScheduledTally};
use neutral_core::particle::{spawn_particles, Particle};
use neutral_core::prelude::*;
use neutral_core::scheduler::parallel_for_owned;
use neutral_core::soa::{ParticleSoA, SoAChunkMut};
use neutral_mesh::tally::{AtomicTally, PrivatizedTally, SequentialTally};
use neutral_rng::Threefry2x64;
use std::time::{Duration, Instant};

/// Which paper baseline to run.
#[derive(Clone, Copy, Debug)]
pub enum Baseline {
    /// One thread over the records into a plain mesh.
    Sequential,
    /// `threads` threads under a particle-granular `schedule` into one
    /// shared atomic mesh (§VI-C/E; the "atomic" side of §VI-F).
    Atomic {
        /// Number of worker threads.
        threads: usize,
        /// Loop schedule, in particles.
        schedule: Schedule,
    },
    /// As [`Baseline::Atomic`], into one private mesh per thread, merged
    /// at the end of every timestep (§VI-F).
    Privatized {
        /// Number of worker threads.
        threads: usize,
        /// Loop schedule, in particles.
        schedule: Schedule,
    },
    /// `threads` threads over the *columns* with event-granular load and
    /// store and no state cached between events — the memory behaviour C
    /// aliasing forces on an SoA layout (§VI-D) — into one shared atomic
    /// mesh.
    EventStepped {
        /// Number of worker threads.
        threads: usize,
    },
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// Run every timestep of `problem` under `baseline`. `elapsed` covers the
/// tracking and the per-thread mesh merge only.
#[must_use]
pub fn run_baseline(problem: &Problem, baseline: Baseline) -> RunReport {
    let rng = Threefry2x64::new([problem.seed, 1]);
    let ctx = TransportCtx {
        mesh: &problem.mesh,
        materials: &problem.materials,
        rng: &rng,
        cfg: &problem.transport,
    };
    problem.materials.prepare(problem.transport.xs_search);
    let cells = problem.mesh.num_cells();
    let mut particles = spawn_particles(problem);
    let mut report = RunReport {
        elapsed: Duration::ZERO,
        counters: EventCounters::default(),
        tally: vec![0.0; cells],
        kernel_timings: None,
        alive: 0,
        initial_energy_ev: particles.len() as f64 * problem.initial_energy_ev,
        tally_footprint_bytes: 0,
        timesteps: problem.n_timesteps,
    };
    for step in 0..problem.n_timesteps {
        if step > 0 {
            for p in particles.iter_mut().filter(|p| !p.dead) {
                p.dt_to_census = problem.dt;
            }
        }
        let ((counters, mesh, footprint), elapsed) = match baseline {
            Baseline::Sequential => timed(|| {
                let mut tally = SequentialTally::new(cells);
                let counters = run_sequential(&mut particles, &ctx, &mut tally);
                (counters, tally.into_values(), cells * 8)
            }),
            Baseline::Atomic { threads, schedule } => timed(|| {
                let tally = AtomicTally::new(cells);
                let sink = ScheduledTally::Atomic(&tally);
                let counters = run_scheduled(&mut particles, &ctx, sink, threads, schedule);
                (counters, tally.snapshot(), tally.footprint_bytes())
            }),
            Baseline::Privatized { threads, schedule } => timed(|| {
                let mut tally = PrivatizedTally::new(threads, cells);
                let sink = ScheduledTally::Privatized(&mut tally);
                let counters = run_scheduled(&mut particles, &ctx, sink, threads, schedule);
                (counters, tally.merge(), tally.footprint_bytes())
            }),
            Baseline::EventStepped { threads } => {
                let mut soa = ParticleSoA::from_aos(&particles);
                let tally = AtomicTally::new(cells);
                let (counters, elapsed) =
                    timed(|| run_event_stepped(&mut soa, &ctx, &tally, threads));
                particles = soa.to_aos();
                (
                    (counters, tally.snapshot(), tally.footprint_bytes()),
                    elapsed,
                )
            }
        };
        report.counters.merge(&counters);
        for (acc, v) in report.tally.iter_mut().zip(&mesh) {
            *acc += v;
        }
        report.tally_footprint_bytes = footprint;
        report.elapsed += elapsed;
    }
    let survivors = || particles.iter().filter(|p| !p.dead);
    report.alive = survivors().count();
    report.counters.census_energy_ev = survivors().map(Particle::weighted_energy).sum();
    report
}

/// Median-of-`reps` [`run_baseline`], by wall-clock.
#[must_use]
pub fn median_baseline(problem: &Problem, baseline: Baseline, reps: usize) -> RunReport {
    crate::median_of(reps, || run_baseline(problem, baseline))
}

/// Every event gathers the particle from the field arrays, steps it once
/// without cached state, and scatters it back: the per-event array
/// traffic is the point. Chunks of the columns are dealt dynamically to
/// `threads` workers.
fn run_event_stepped(
    soa: &mut ParticleSoA,
    ctx: &TransportCtx<'_, Threefry2x64>,
    tally: &AtomicTally,
    threads: usize,
) -> EventCounters {
    let chunk = soa.len().div_ceil(threads * 8).max(1);
    let mut chunks: Vec<(SoAChunkMut<'_>, EventCounters)> = soa
        .chunks_mut(chunk)
        .into_iter()
        .map(|c| (c, EventCounters::default()))
        .collect();
    let schedule = Schedule::Dynamic { chunk: 1 };
    parallel_for_owned(threads, schedule, &mut chunks, |_, (chunk, local)| {
        let mut sink = tally;
        for i in 0..chunk.len() {
            let mut events = 0u64;
            loop {
                let mut p = chunk.load(i);
                let outcome = step_particle_uncached(&mut p, ctx, &mut sink, local);
                events += 1;
                if outcome == StepOutcome::Continue && events > ctx.cfg.max_events_per_history {
                    local.stuck += 1;
                    p.dead = true;
                }
                chunk.store(i, &p);
                if outcome != StepOutcome::Continue || p.dead {
                    break;
                }
            }
        }
    });
    let mut merged = EventCounters::default();
    for (_, local) in &chunks {
        merged.merge(local);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEDULE: Schedule = Schedule::Dynamic { chunk: 16 };

    fn csp(timesteps: usize) -> Problem {
        let mut problem = TestCase::Csp.build(ProblemScale::tiny(), 31);
        problem.n_timesteps = timesteps;
        problem
    }

    /// Every baseline walks the product driver's trajectories: the same
    /// integer physics, survivors and energy sums (bitwise — they fold in
    /// key order on both sides), tallies equal up to summation order.
    #[test]
    fn baselines_match_the_product_driver() {
        let problem = csp(2);
        let product = Simulation::new(problem.clone()).run(RunOptions::default());
        for baseline in [
            Baseline::Sequential,
            Baseline::Atomic {
                threads: 3,
                schedule: SCHEDULE,
            },
            Baseline::Privatized {
                threads: 2,
                schedule: Schedule::Static { chunk: None },
            },
            Baseline::EventStepped { threads: 2 },
        ] {
            let r = run_baseline(&problem, baseline);
            let (a, b) = (&r.counters, &product.counters);
            assert_eq!(
                (a.collisions, a.facets, a.census, a.deaths, a.stuck),
                (b.collisions, b.facets, b.census, b.deaths, b.stuck),
                "{baseline:?}"
            );
            assert_eq!((r.alive, r.timesteps), (product.alive, 2), "{baseline:?}");
            assert_eq!(
                a.census_energy_ev.to_bits(),
                b.census_energy_ev.to_bits(),
                "{baseline:?}"
            );
            let (x, y) = (r.tally_total(), product.tally_total());
            assert!((x - y).abs() <= 1e-9 * y.abs(), "{baseline:?}: {x} vs {y}");
        }
    }

    /// The event-stepped columns compute the same physics with strictly
    /// more memory traffic: a lookup and a flush per event instead of per
    /// collision and per facet.
    #[test]
    fn stepped_soa_driver_matches_trajectories() {
        let problem = csp(1);
        let cached = run_baseline(&problem, Baseline::Sequential);
        let stepped = run_baseline(&problem, Baseline::EventStepped { threads: 2 });
        assert_eq!(stepped.counters.collisions, cached.counters.collisions);
        assert_eq!(stepped.counters.stuck, 0);
        assert!(stepped.counters.cs_lookups > stepped.counters.collisions);
        assert!(stepped.counters.cs_lookups > cached.counters.cs_lookups);
        assert!(stepped.counters.tally_flushes >= stepped.counters.facets);
        assert!(stepped.counters.density_reads > cached.counters.density_reads);
    }

    /// The §VI-F blow-up: one whole mesh per thread.
    #[test]
    fn privatized_footprint_scales() {
        let problem = csp(1);
        let footprint = |threads| {
            let schedule = Schedule::Static { chunk: None };
            run_baseline(&problem, Baseline::Privatized { threads, schedule }).tally_footprint_bytes
        };
        assert_eq!(footprint(4), 2 * footprint(2));
        assert_eq!(footprint(2), 2 * problem.mesh.num_cells() * 8);
    }
}
