//! Drivers for the **Over Particles** parallelisation scheme (paper §V-A):
//! each worker follows whole particle histories from birth to census.
//!
//! `track_lane` is the lane kernel every solve, shard attempt and
//! served request runs under the step engine's lane driver
//! (`step::run_lanes`: whole tally lanes scheduled across
//! workers): each history gathered from the lane's slice of the canonical
//! [`crate::soa::ParticleSoA`] columns, tracked to census in registers
//! ([`crate::history`]) and scattered back, in key order, the lane
//! depositing through its own lane sink.
//!
//! [`run_sequential`] and [`run_scheduled`] are the paper's
//! record-at-a-time baselines — a plain loop, and explicit threads with
//! OpenMP-style static/dynamic/guided scheduling at *particle*
//! granularity into the shared atomic tally or per-thread privatised
//! tallies. Nothing in this crate's solve path calls them: the figure
//! binaries regenerate Figs. 3–7 with them (`neutral_bench::baseline`),
//! and the tests use [`run_sequential`] as the history-order reference.
//!
//! All three resolve cross sections through the configured
//! [`crate::config::LookupStrategy`] (via the history loop's shared
//! `resolve_micro_xs` seam), and all three leave `census_energy_ev` to
//! the caller (the step engine's one key-order fold,
//! [`crate::soa::census_energy`]).

use crate::counters::EventCounters;
use crate::events::TallySink;
use crate::history::{track_to_census, TransportCtx};
use crate::particle::Particle;
use crate::scheduler::{parallel_for_stateful, Schedule, SharedSliceMut};
use crate::soa::SoAChunkMut;
use neutral_mesh::tally::{AtomicTally, PrivatizedTally};
use neutral_mesh::LaneSink;
use neutral_rng::CbRng;

/// Track every particle to census on the current thread.
pub fn run_sequential<R: CbRng, T: TallySink>(
    particles: &mut [Particle],
    ctx: &TransportCtx<'_, R>,
    tally: &mut T,
) -> EventCounters {
    let mut counters = EventCounters::default();
    for p in particles.iter_mut() {
        track_to_census(p, ctx, tally, &mut counters);
    }
    counters
}

/// Tally backend for the scheduled driver.
pub enum ScheduledTally<'a> {
    /// Shared mesh with atomic read-modify-write updates.
    Atomic(&'a AtomicTally),
    /// One private mesh per thread, merged after the solve (§VI-F). The
    /// tally must have been created with `n_threads` slots.
    Privatized(&'a mut PrivatizedTally),
}

/// Track every particle on `n_threads` explicit threads under the given
/// OpenMP-style schedule.
pub fn run_scheduled<R: CbRng>(
    particles: &mut [Particle],
    ctx: &TransportCtx<'_, R>,
    tally: ScheduledTally<'_>,
    n_threads: usize,
    schedule: Schedule,
) -> EventCounters {
    assert!(n_threads > 0, "need at least one thread");
    let n = particles.len();
    let shared = SharedSliceMut::new(particles);

    let mut merged = EventCounters::default();
    match tally {
        ScheduledTally::Atomic(tally) => {
            let mut states: Vec<EventCounters> = vec![EventCounters::default(); n_threads];
            parallel_for_stateful(n, schedule, &mut states, |local, range| {
                // SAFETY: scheduler ranges are disjoint (see SharedSliceMut).
                let chunk = unsafe { shared.range_mut(range) };
                let mut sink = tally;
                for p in chunk {
                    track_to_census(p, ctx, &mut sink, local);
                }
            });
            for s in &states {
                merged.merge(s);
            }
        }
        ScheduledTally::Privatized(tally) => {
            assert_eq!(
                tally.num_slots(),
                n_threads,
                "privatised tally must have one slot per thread"
            );
            let mut states: Vec<(EventCounters, &mut neutral_mesh::tally::TallySlot)> = tally
                .slots_mut()
                .map(|slot| (EventCounters::default(), slot))
                .collect();
            parallel_for_stateful(n, schedule, &mut states, |(local, slot), range| {
                // SAFETY: scheduler ranges are disjoint (see SharedSliceMut).
                let chunk = unsafe { shared.range_mut(range) };
                for p in chunk {
                    track_to_census(p, ctx, &mut *slot, local);
                }
            });
            for (s, _) in &states {
                merged.merge(s);
            }
        }
    }
    merged
}

/// The Over-Particles lane kernel — the body [`crate::step::run_lanes`]
/// runs once per lane, into the lane's sink the tracking worker opened:
/// every live history of `chunk` is `load`ed, tracked to census and
/// `store`d back in storage order — which is key order. Returns the
/// lane's raw counters.
pub(crate) fn track_lane<R: CbRng>(
    chunk: &mut SoAChunkMut<'_>,
    sink: &mut LaneSink<'_>,
    ctx: &TransportCtx<'_, R>,
) -> EventCounters {
    // Counted on the worker's stack and written back once: the
    // lane states sit side by side in one `Vec`, and a counter
    // bumped there on every event shares a cache line with the
    // neighbouring lane's state, which another worker is reading
    // (0.30 → 0.24 s per csp 512² step on two workers).
    let mut local = EventCounters::default();
    for i in 0..chunk.len() {
        if chunk.dead[i] {
            continue;
        }
        let mut p = chunk.load(i);
        track_to_census(&mut p, ctx, sink, &mut local);
        chunk.store(i, &p);
    }
    local
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProblemScale, TestCase};
    use crate::particle::spawn_particles;
    use crate::sim::Scheme;
    use crate::soa::ParticleSoA;
    use crate::step::run_step_scheduled;
    use neutral_mesh::tally::SequentialTally;
    use neutral_mesh::{LanePartition, TallyAccum};
    use neutral_rng::Threefry2x64;

    struct Fixture {
        problem: crate::config::Problem,
        rng: Threefry2x64,
    }

    impl Fixture {
        fn new(case: TestCase) -> Self {
            let problem = case.build(ProblemScale::tiny(), 99);
            let rng = Threefry2x64::new([problem.seed, 1]);
            Self { problem, rng }
        }

        fn ctx(&self) -> TransportCtx<'_, Threefry2x64> {
            TransportCtx {
                mesh: &self.problem.mesh,
                materials: &self.problem.materials,
                rng: &self.rng,
                cfg: &self.problem.transport,
            }
        }
    }

    /// All drivers must produce identical particle states and counters,
    /// and tallies equal up to floating-point summation order.
    #[test]
    fn drivers_agree_with_sequential() {
        for case in TestCase::ALL {
            let fx = Fixture::new(case);
            let cells = fx.problem.mesh.num_cells();

            let mut seq_particles = spawn_particles(&fx.problem);
            let mut seq_tally = SequentialTally::new(cells);
            let seq_counters = run_sequential(&mut seq_particles, &fx.ctx(), &mut seq_tally);

            // Lane driver over the columns.
            let mut lane_soa = ParticleSoA::from_aos(&spawn_particles(&fx.problem));
            let part = LanePartition::new(lane_soa.len(), 16);
            let accum = TallyAccum::for_lanes(cells, part.n_lanes, 0..part.n_lanes, 4);
            let config = (Scheme::OverParticles, 4, Schedule::Dynamic { chunk: 1 });
            let lane_counters = EventCounters::merge_deterministic(
                &run_step_scheduled(&mut lane_soa, &fx.ctx(), config, part, &accum).0,
            );
            assert_eq!(
                seq_particles,
                lane_soa.to_aos(),
                "{case:?}: particle states"
            );
            assert_eq!(
                seq_counters.total_events(),
                lane_counters.total_events(),
                "{case:?}: event counts"
            );
            assert_tallies_close(seq_tally.values(), &accum.merge(), case);

            // Scheduled driver, dynamic schedule, atomic tally.
            let mut sch_particles = spawn_particles(&fx.problem);
            let sch_tally = AtomicTally::new(cells);
            let sch_counters = run_scheduled(
                &mut sch_particles,
                &fx.ctx(),
                ScheduledTally::Atomic(&sch_tally),
                4,
                Schedule::Dynamic { chunk: 16 },
            );
            assert_eq!(seq_particles, sch_particles, "{case:?}: scheduled states");
            assert_eq!(seq_counters.collisions, sch_counters.collisions);
            assert_tallies_close(seq_tally.values(), &sch_tally.snapshot(), case);

            // Scheduled driver, privatised tally.
            let mut prv_particles = spawn_particles(&fx.problem);
            let mut prv_tally = PrivatizedTally::new(3, cells);
            let prv_counters = run_scheduled(
                &mut prv_particles,
                &fx.ctx(),
                ScheduledTally::Privatized(&mut prv_tally),
                3,
                Schedule::Static { chunk: Some(8) },
            );
            assert_eq!(seq_particles, prv_particles, "{case:?}: privatised states");
            assert_eq!(seq_counters.facets, prv_counters.facets);
            assert_tallies_close(seq_tally.values(), &prv_tally.merge(), case);
        }
    }

    fn assert_tallies_close(a: &[f64], b: &[f64], case: TestCase) {
        assert_eq!(a.len(), b.len());
        let total_a: f64 = a.iter().sum();
        let total_b: f64 = b.iter().sum();
        let scale = total_a.abs().max(1e-30);
        assert!(
            ((total_a - total_b) / scale).abs() < 1e-9,
            "{case:?}: tally totals differ: {total_a} vs {total_b}"
        );
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let cell_scale = x.abs().max(scale * 1e-12);
            assert!(
                ((x - y) / cell_scale).abs() < 1e-6,
                "{case:?}: cell {i} differs: {x} vs {y}"
            );
        }
    }

    #[test]
    fn privatised_run_is_bitwise_reproducible() {
        let fx = Fixture::new(TestCase::Csp);
        let cells = fx.problem.mesh.num_cells();
        let run = || {
            let mut particles = spawn_particles(&fx.problem);
            let mut tally = PrivatizedTally::new(4, cells);
            run_scheduled(
                &mut particles,
                &fx.ctx(),
                ScheduledTally::Privatized(&mut tally),
                4,
                Schedule::Static { chunk: None },
            );
            tally.merge()
        };
        let a = run();
        let b = run();
        // Static schedule + fixed thread count + deterministic merge order
        // => bitwise identical results.
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn lane_driver_is_worker_count_invariant() {
        let fx = Fixture::new(TestCase::Csp);
        let cells = fx.problem.mesh.num_cells();
        // Above one lane the fold hands recycled, dirty meshes to the
        // lanes opened after the first merge: opening must wipe them.
        let run = |threads: usize, schedule: Schedule| {
            let mut soa = ParticleSoA::from_aos(&spawn_particles(&fx.problem));
            let part = LanePartition::new(soa.len(), 16);
            let accum = TallyAccum::for_lanes(cells, part.n_lanes, 0..part.n_lanes, threads);
            let config = (Scheme::OverParticles, threads, schedule);
            let counters = EventCounters::merge_deterministic(
                &run_step_scheduled(&mut soa, &fx.ctx(), config, part, &accum).0,
            );
            (accum.merge(), counters, soa.to_aos())
        };
        let (base_tally, base_counters, base_particles) = run(1, Schedule::Static { chunk: None });
        for (threads, schedule) in [
            (2, Schedule::Dynamic { chunk: 64 }),
            (7, Schedule::Guided { min_chunk: 2 }),
            (4, Schedule::Static { chunk: Some(8) }),
            (2, Schedule::Dynamic { chunk: 1 }),
        ] {
            let (tally, counters, particles) = run(threads, schedule);
            assert_eq!(particles, base_particles, "{threads}");
            assert_eq!(counters, base_counters, "{threads}");
            assert!(
                tally
                    .iter()
                    .zip(&base_tally)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{threads}/{schedule:?}: merged tally bits differ"
            );
        }
    }

    /// The census residual comes from the step engine's fold.
    #[test]
    fn census_energy_reported() {
        let fx = Fixture::new(TestCase::Stream);
        let report = crate::sim::Simulation::new(fx.problem.clone()).run(crate::sim::RunOptions {
            execution: crate::sim::Execution::Sequential,
            ..Default::default()
        });
        // Vacuum: all particles survive at full energy.
        let expect = fx.problem.n_particles as f64 * fx.problem.initial_energy_ev;
        assert!((report.counters.census_energy_ev - expect).abs() / expect < 1e-12);
    }
}
