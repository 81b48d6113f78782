//! The reproduction's keystone property: the *Over Particles* and *Over
//! Events* schemes compute identical physics.
//!
//! Both schemes advance every particle with the same event functions and
//! the same per-particle counter-based RNG stream (paper §IV-F), so for a
//! fixed seed every history follows the same trajectory regardless of
//! scheme, threading or tally backend. Tallies may
//! differ only by floating-point summation order.

use neutral_core::history::{track_to_census, TransportCtx};
use neutral_core::particle::{spawn_particles, Particle};
use neutral_core::prelude::*;
use neutral_integration::{rel_diff, test_thread_counts, tiny, tiny_with_tally, DriverKind};
use neutral_mesh::accum::DEFAULT_LANES;
use neutral_mesh::{LanePartition, TallyAccum};
use neutral_rng::Threefry2x64;

fn base(case: TestCase, seed: u64) -> RunReport {
    tiny(case, seed).run(RunOptions {
        execution: Execution::Sequential,
        ..Default::default()
    })
}

fn assert_same_physics(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.counters.collisions, b.counters.collisions, "{what}");
    assert_eq!(a.counters.absorptions, b.counters.absorptions, "{what}");
    assert_eq!(a.counters.scatters, b.counters.scatters, "{what}");
    assert_eq!(a.counters.facets, b.counters.facets, "{what}");
    assert_eq!(a.counters.reflections, b.counters.reflections, "{what}");
    assert_eq!(a.counters.census, b.counters.census, "{what}");
    assert_eq!(a.counters.deaths, b.counters.deaths, "{what}");
    assert_eq!(a.counters.cs_lookups, b.counters.cs_lookups, "{what}");
    assert_eq!(a.alive, b.alive, "{what}");
    assert!(
        rel_diff(a.tally_total(), b.tally_total()) < 1e-9,
        "{what}: tally totals {} vs {}",
        a.tally_total(),
        b.tally_total()
    );
}

#[test]
fn every_execution_mode_matches_sequential() {
    for case in TestCase::ALL {
        for seed in [3, 1777] {
            let reference = base(case, seed);
            let combos: Vec<(&str, RunOptions)> = vec![
                (
                    "rayon",
                    RunOptions {
                        execution: Execution::Rayon,
                        ..Default::default()
                    },
                ),
                (
                    "scheduled-static",
                    RunOptions {
                        execution: Execution::Scheduled {
                            threads: 3,
                            schedule: Schedule::Static { chunk: None },
                        },
                        ..Default::default()
                    },
                ),
                (
                    "scheduled-guided",
                    RunOptions {
                        execution: Execution::Scheduled {
                            threads: 4,
                            schedule: Schedule::Guided { min_chunk: 2 },
                        },
                        ..Default::default()
                    },
                ),
                (
                    "over-events-sequential",
                    RunOptions {
                        scheme: Scheme::OverEvents,
                        execution: Execution::Sequential,
                    },
                ),
                (
                    "over-events-rayon",
                    RunOptions {
                        scheme: Scheme::OverEvents,
                        execution: Execution::Rayon,
                    },
                ),
            ];
            for (what, opts) in combos {
                let r = tiny(case, seed).run(opts);
                assert_same_physics(&reference, &r, &format!("{case:?}/{seed}/{what}"));
            }
        }
    }
}

/// A safe, sequential reference for the one Over-Particles driver that
/// shares none of its machinery — no columns, no scheduler, its own fold:
/// the same [`LanePartition`] walked in order, [`track_to_census`] over
/// `Particle` records into the same [`TallyAccum`] lane views. Returns
/// the accumulated tally and counters of the whole solve.
fn record_reference(problem: &Problem) -> (Vec<f64>, EventCounters) {
    let rng = Threefry2x64::new([problem.seed, 1]);
    let ctx = TransportCtx {
        mesh: &problem.mesh,
        materials: &problem.materials,
        rng: &rng,
        cfg: &problem.transport,
    };
    let cells = problem.mesh.num_cells();
    let mut particles = spawn_particles(problem);
    let part = LanePartition::new(particles.len(), DEFAULT_LANES);
    let mut tally = vec![0.0; cells];
    let mut counters = EventCounters::default();
    for step in 0..problem.n_timesteps {
        if step > 0 {
            for p in particles.iter_mut().filter(|p| !p.dead) {
                p.dt_to_census = problem.dt;
            }
        }
        let mut accum = TallyAccum::new(problem.transport.tally_strategy, cells, part.n_lanes);
        let mut lanes = Vec::new();
        for (lane, mut sink) in accum.lane_views().into_iter().enumerate() {
            sink.claim();
            let mut local = EventCounters::default();
            for p in &mut particles[part.range(lane)] {
                track_to_census(p, &ctx, &mut sink, &mut local);
            }
            lanes.push(local);
        }
        let mut step_counters = EventCounters::merge_deterministic(&lanes);
        step_counters.census_energy_ev = particles
            .iter()
            .filter(|p| !p.dead)
            .map(Particle::weighted_energy)
            .sum();
        counters.merge(&step_counters);
        counters.census_energy_ev = step_counters.census_energy_ev;
        for (acc, v) in tally.iter_mut().zip(accum.merge()) {
            *acc += v;
        }
    }
    (tally, counters)
}

/// The column driver reproduces the record reference on tally bits and
/// on **all 17** counter fields — the work meters (`batched_lookups`,
/// `density_reads`, `cs_search_steps`, ...) included, which the golden
/// fixtures do not record — for every catalogue scenario, on any worker
/// count, over one and three timesteps.
#[test]
fn column_driver_matches_record_reference() {
    for scenario in Scenario::ALL {
        for timesteps in [1, 3] {
            let mut problem = scenario.build(ProblemScale::tiny(), 53);
            problem.n_timesteps = timesteps;
            let (tally, counters) = record_reference(&problem);
            assert_eq!(counters.batched_lookups, 0);
            let sim = Simulation::new(problem);
            for workers in test_thread_counts() {
                let r = sim.run(DriverKind::OverParticles.options(workers));
                let what = format!("{}/t{timesteps}/{workers}w", scenario.name());
                assert_eq!(r.counters, counters, "{what}");
                for (got, want) in [
                    (r.counters.lost_energy_ev, counters.lost_energy_ev),
                    (r.counters.census_energy_ev, counters.census_energy_ev),
                ] {
                    assert_eq!(got.to_bits(), want.to_bits(), "{what}: energy fold");
                }
                assert!(
                    r.tally
                        .iter()
                        .zip(&tally)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{what}: tally bits"
                );
            }
        }
    }
}

#[test]
fn per_cell_tallies_match_across_schemes() {
    let op = base(TestCase::Csp, 42);
    let oe = tiny(TestCase::Csp, 42).run(RunOptions {
        scheme: Scheme::OverEvents,
        execution: Execution::Rayon,
    });
    let total = op.tally_total();
    let mut nonzero = 0;
    for (i, (a, b)) in op.tally.iter().zip(&oe.tally).enumerate() {
        if *a != 0.0 {
            nonzero += 1;
        }
        let scale = a.abs().max(total * 1e-12);
        assert!(((a - b) / scale).abs() < 1e-6, "cell {i}: {a} vs {b}");
    }
    assert!(nonzero > 10, "csp should light up many cells");
}

/// The tally-subsystem keystone: for every driver family and the
/// deterministic strategy, the merged tally is **bitwise identical** at
/// worker counts {1, 2, 7} (plus `NEUTRAL_TEST_THREADS`), and identical
/// to the same driver run sequentially. The atomic strategy reproduces
/// the same physics (integer counters exactly, per-cell tallies to
/// floating-point reassociation error).
#[test]
fn tally_strategies_are_worker_count_equivalent() {
    let case = TestCase::Csp;
    let seed = 42;
    for driver in DriverKind::ALL {
        for strategy in TallyStrategy::ALL {
            let reference = tiny_with_tally(case, seed, strategy).run(driver.options(1));
            for workers in test_thread_counts() {
                let r = tiny_with_tally(case, seed, strategy).run(driver.options(workers));
                let what = format!("{}/{}/{workers}w", driver.name(), strategy.name());
                assert_eq!(
                    r.counters.collisions, reference.counters.collisions,
                    "{what}"
                );
                assert_eq!(r.counters.facets, reference.counters.facets, "{what}");
                assert_eq!(r.counters.census, reference.counters.census, "{what}");
                assert_eq!(r.counters.deaths, reference.counters.deaths, "{what}");
                if strategy.is_deterministic() {
                    assert_eq!(
                        r.counters, reference.counters,
                        "{what}: counters must merge deterministically"
                    );
                    assert!(
                        r.tally
                            .iter()
                            .zip(&reference.tally)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{what}: merged tally must be bitwise identical"
                    );
                } else {
                    let total = reference.tally_total();
                    for (i, (a, b)) in r.tally.iter().zip(&reference.tally).enumerate() {
                        let scale = b.abs().max(total * 1e-12).max(1e-30);
                        assert!(
                            ((a - b) / scale).abs() < 1e-6,
                            "{what}: cell {i}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }
}

/// The two strategies agree with each other per driver, to
/// reassociation error.
#[test]
fn tally_strategies_agree_per_driver() {
    for driver in DriverKind::ALL {
        let replicated =
            tiny_with_tally(TestCase::Csp, 9, TallyStrategy::Replicated).run(driver.options(2));
        let atomic =
            tiny_with_tally(TestCase::Csp, 9, TallyStrategy::Atomic).run(driver.options(2));
        assert_eq!(
            atomic.counters.collisions,
            replicated.counters.collisions,
            "{}",
            driver.name()
        );
        assert!(
            rel_diff(atomic.tally_total(), replicated.tally_total()) < 1e-9,
            "{}: atomic total",
            driver.name()
        );
    }
}

#[test]
fn seeds_decorrelate_runs() {
    let a = base(TestCase::Csp, 1);
    let b = base(TestCase::Csp, 2);
    assert_ne!(a.counters.collisions, b.counters.collisions);
    assert!(rel_diff(a.tally_total(), b.tally_total()) > 1e-12);
    // ...but the physics is statistically stable: totals agree loosely.
    assert!(
        rel_diff(a.tally_total(), b.tally_total()) < 0.25,
        "seeds {} vs {}",
        a.tally_total(),
        b.tally_total()
    );
}
