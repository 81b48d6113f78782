//! Regroup-subsystem invariants (DESIGN.md §14): the between-timestep
//! [`RegroupPolicy`] stage physically permutes the particle population —
//! identity (`key`, RNG counters, cached hints, tally-lane assignment)
//! travels with each record — and the drivers anchor every
//! order-sensitive `f64` stream back to identity order. Consequently
//! every policy must compute **bitwise** the same merged tallies,
//! counters (minus the documented work meters) and RNG consumption as
//! [`RegroupPolicy::Off`], for every driver family and any worker count.
//!
//! The suite locks four things:
//!
//! * **policy invariance** — regroup × driver × workers {1, 2, 7} on
//!   multi-timestep problems: merged tallies bitwise identical, counters
//!   identical (modulo `cs_search_steps`/`clustered_flushes`);
//! * **golden locks** — the committed multi-timestep fixtures reproduce
//!   byte-identically under every non-default regroup policy;
//! * **permute-then-run == run** — the underlying shuffle-invariance
//!   property: an *arbitrary* lane-local permutation applied to the
//!   spawned population (not just the policy-produced groupings) leaves
//!   merged tallies, counters and every particle's final record —
//!   including its RNG draw counter — bitwise unchanged;
//! * **regroup × sort interplay** — regrouping composes with the
//!   coherence sort stage without moving a bit.

use neutral_core::particle::{spawn_particles, Particle};
use neutral_core::prelude::*;
use neutral_core::soa::{regroup_soa_parallel, ParticleSoA};
use neutral_integration::golden::{blessing, fixture_dir, GoldenTally};
use neutral_integration::{
    for_cases, physics_counters, tiny_multistep, DriverKind, Gen, MULTISTEP_CONFIGS,
};
use neutral_mesh::accum::DEFAULT_LANES;
use neutral_mesh::LanePartition;
use std::time::Duration;

fn assert_bitwise_tally(a: &[f64], b: &[f64], what: &str) {
    assert!(
        a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
        "{what}: merged tally bits diverge"
    );
}

#[test]
fn regroup_policies_bitwise_across_drivers_and_workers() {
    for (case, steps, seed) in MULTISTEP_CONFIGS {
        for driver in DriverKind::ALL {
            let base = tiny_multistep(
                case,
                steps,
                seed,
                TallyStrategy::Replicated,
                RegroupPolicy::Off,
            )
            .run(driver.options(2));
            for policy in RegroupPolicy::ALL {
                for workers in [1usize, 2, 7] {
                    let r = tiny_multistep(case, steps, seed, TallyStrategy::Replicated, policy)
                        .run(driver.options(workers));
                    let what = format!(
                        "{}x{}/{}/{}/{}w",
                        case.name(),
                        steps,
                        driver.name(),
                        policy.name(),
                        workers
                    );
                    assert_eq!(
                        physics_counters(r.counters),
                        physics_counters(base.counters),
                        "{what}: physics counters diverge from RegroupPolicy::Off"
                    );
                    assert_eq!(
                        r.counters.census_energy_ev.to_bits(),
                        base.counters.census_energy_ev.to_bits(),
                        "{what}: census-energy fold diverges"
                    );
                    assert_bitwise_tally(&r.tally, &base.tally, &what);
                }
            }
        }
    }
}

/// The committed multi-timestep golden fixtures (captured under
/// `RegroupPolicy::Off` by the golden suite) must reproduce
/// byte-identically under every other policy.
#[test]
fn multistep_fixtures_hold_under_every_regroup_policy() {
    if blessing() {
        return; // fixtures are blessed by the golden_tallies suite
    }
    for policy in [
        RegroupPolicy::ByCell,
        RegroupPolicy::ByEnergyBand,
        RegroupPolicy::ByAlive,
    ] {
        for (case, steps, seed) in MULTISTEP_CONFIGS {
            for driver in DriverKind::ALL {
                let name = format!("{}_t{}", case.name(), steps);
                let report = tiny_multistep(case, steps, seed, TallyStrategy::Replicated, policy)
                    .run(driver.options(2));
                let captured = GoldenTally::capture(&name, driver.name(), seed, &report);
                let path = fixture_dir().join(format!("{}_{}.json", name, driver.name()));
                let expected =
                    GoldenTally::from_json(&std::fs::read_to_string(&path).expect("fixture"))
                        .expect("parse fixture");
                assert_eq!(
                    captured.fields,
                    expected.fields,
                    "{}/{}/{}: diverges from golden fixture",
                    name,
                    driver.name(),
                    policy.name()
                );
            }
        }
    }
}

/// Regrouping composes with the coherence sort stage: a regrouped run
/// under every sort policy still reproduces the Off/Off bits.
#[test]
fn regroup_and_sort_policies_compose_bitwise() {
    let (case, steps, seed) = MULTISTEP_CONFIGS[0];
    let base = tiny_multistep(
        case,
        steps,
        seed,
        TallyStrategy::Replicated,
        RegroupPolicy::Off,
    )
    .run(DriverKind::OverEvents.options(2));
    for regroup in [RegroupPolicy::ByCell, RegroupPolicy::ByAlive] {
        for sort in SortPolicy::ALL {
            let sim = tiny_multistep(case, steps, seed, TallyStrategy::Replicated, regroup);
            let mut problem = sim.problem().clone();
            problem.transport.sort_policy = sort;
            let r = Simulation::new(problem).run(DriverKind::OverEvents.options(3));
            let what = format!("regroup={}/sort={}", regroup.name(), sort.name());
            assert_eq!(
                physics_counters(r.counters),
                physics_counters(base.counters),
                "{what}"
            );
            assert_bitwise_tally(&r.tally, &base.tally, &what);
        }
    }
}

/// Apply an arbitrary random permutation *within each tally-lane block*
/// (the granularity the regroup stage is specified at).
fn shuffle_within_lanes(particles: &mut [Particle], g: &mut Gen) {
    let part = LanePartition::new(particles.len(), DEFAULT_LANES);
    for lane in 0..part.n_lanes {
        let range = part.range(lane);
        let lane_slice = &mut particles[range];
        for j in (1..lane_slice.len()).rev() {
            let k = g.usize_in(0, j + 1);
            lane_slice.swap(j, k);
        }
    }
}

/// The shuffle-invariance property behind the whole subsystem:
/// permute-then-run == run, bitwise, for every arm of the step engine's
/// lane dispatch — not just for the groupings the policies produce, but
/// for *any* lane-local permutation. The permuted population enters the
/// engine the way any foreign storage order does: as the records of a
/// step-0 checkpoint, whose order `SolveCore::resume` takes as found
/// (the default `RegroupPolicy::Off` never touches it again). Final
/// particle records (sorted back into key order) must match bitwise too,
/// RNG draw counters included: identity consumption is
/// position-independent.
#[test]
fn permute_then_run_equals_run() {
    for_cases(6, |g| {
        let case = [TestCase::Csp, TestCase::Scatter, TestCase::Stream][g.usize_in(0, 3)];
        let seed = 1 + g.usize_in(0, 500) as u64;
        let sim = {
            let mut p = case.build(ProblemScale::tiny(), seed);
            p.transport.tally_strategy = TallyStrategy::Replicated;
            Simulation::new(p)
        };
        let problem = sim.problem();
        let workers = 1 + g.usize_in(0, 4);

        // Run one timestep from `particles` as stored: (report, records).
        let run_from = |driver: DriverKind, particles: Vec<Particle>| {
            let start = Checkpoint {
                fingerprint: config_fingerprint(problem),
                next_step: 0,
                n_timesteps: problem.n_timesteps,
                elapsed: Duration::ZERO,
                tally_footprint_bytes: 0,
                counters: EventCounters::default(),
                tally: vec![0.0; problem.mesh.num_cells()],
                particles,
            };
            let mut solve =
                SolveCore::resume(&sim, driver.options(workers), &start).expect("resume");
            while solve.step(&sim) {}
            let records = solve.particles();
            (solve.finish(), records)
        };

        for driver in [
            DriverKind::OverParticles,
            DriverKind::OverEvents,
            DriverKind::Soa,
        ] {
            let (a, straight) = run_from(driver, spawn_particles(problem));

            let mut shuffled = spawn_particles(problem);
            shuffle_within_lanes(&mut shuffled, g);
            let (b, mut permuted) = run_from(driver, shuffled);

            let what = format!("{}/{}w/{}", case.name(), workers, driver.name());
            assert_eq!(
                physics_counters(a.counters),
                physics_counters(b.counters),
                "{what}: counters"
            );
            assert_eq!(
                a.counters.census_energy_ev.to_bits(),
                b.counters.census_energy_ev.to_bits(),
                "{what}: census energy bits"
            );
            assert_bitwise_tally(&a.tally, &b.tally, &what);

            // Identity travels: sorting the permuted population back into
            // key order must reproduce every final record bitwise —
            // trajectory, weight, hints and RNG draw counter included.
            permuted.sort_unstable_by_key(|p| p.key);
            assert_eq!(straight, permuted, "{what}: final particle records diverge");
        }
    });
}

/// The policy-level regroup entry point actually moves particles on a
/// multi-timestep run (sanity that the invariance above is not vacuous),
/// and the permutation helper groups what it claims to group.
#[test]
fn regroup_actually_regroups() {
    let problem = TestCase::Scatter.build(ProblemScale::tiny(), 7);
    let mut particles = spawn_particles(&problem);
    // Scatter a fake kill pattern so ByAlive has something to do.
    for (i, p) in particles.iter_mut().enumerate() {
        p.dead = i % 3 == 1;
    }
    let part = LanePartition::new(particles.len(), DEFAULT_LANES);
    let mut columns = ParticleSoA::from_aos(&particles);
    let moved = regroup_soa_parallel(
        &mut columns,
        RegroupPolicy::ByAlive,
        problem.mesh.nx(),
        part.lane_size,
        2,
        Schedule::Dynamic { chunk: 1 },
        &mut Vec::new(),
    );
    assert!(moved, "a striped kill pattern must move records");
    let particles = columns.to_aos();
    for lane in 0..part.n_lanes {
        let lane_slice = &particles[part.range(lane)];
        let first_dead = lane_slice.iter().position(|p| p.dead);
        if let Some(fd) = first_dead {
            assert!(
                lane_slice[fd..].iter().all(|p| p.dead),
                "lane {lane}: survivors must form a contiguous prefix"
            );
        }
    }
}
