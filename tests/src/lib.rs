//! Support library for the `neutral-integration` test package.
//!
//! The actual integration tests live in `tests/tests/*.rs`; this crate
//! provides shared fixtures. The deterministic property-test harness
//! ([`Gen`], [`for_cases`]) and [`rel_diff`] live in
//! [`neutral_core::fuzz`] — the generative fuzzer is built on them — and
//! are re-exported here so the suites keep one import path.

use neutral_core::history::TransportCtx;
use neutral_core::over_particles::{run_scheduled, ScheduledTally};
use neutral_core::particle::{spawn_particles, Particle};
use neutral_core::prelude::*;
use neutral_mesh::tally::AtomicTally;
use neutral_rng::Threefry2x64;

pub mod golden;

pub use neutral_core::fuzz::{for_cases, rel_diff, Gen};

/// Standard tiny-scale fixture used across the integration suite.
pub fn tiny(case: TestCase, seed: u64) -> Simulation {
    Simulation::new(case.build(ProblemScale::tiny(), seed))
}

/// The committed multi-timestep golden configs (fixture names
/// `<case>_t<steps>`, seeds fixed forever): ≥ 2 timesteps so the
/// between-timestep machinery — persistent transport state, the census
/// timer reset — actually executes.
pub const MULTISTEP_CONFIGS: [(TestCase, usize, u64); 2] =
    [(TestCase::Csp, 3, 41), (TestCase::Scatter, 2, 43)];

/// The paper's shared-atomic baseline over `problem`'s first timestep —
/// particle records under a particle-granular `dynamic,8` schedule on
/// `threads` threads into one [`AtomicTally`], the record-at-a-time
/// driver the figures time. Returns the counters, the final records and
/// the mesh; the mesh's bits depend on the interleaving.
pub fn atomic_baseline(
    problem: &Problem,
    threads: usize,
) -> (EventCounters, Vec<Particle>, Vec<f64>) {
    let rng = Threefry2x64::new([problem.seed, 1]);
    let ctx = TransportCtx {
        mesh: &problem.mesh,
        materials: &problem.materials,
        rng: &rng,
        cfg: &problem.transport,
    };
    let mut particles = spawn_particles(problem);
    let tally = AtomicTally::new(problem.mesh.num_cells());
    let schedule = Schedule::Dynamic { chunk: 8 };
    let sink = ScheduledTally::Atomic(&tally);
    let counters = run_scheduled(&mut particles, &ctx, sink, threads, schedule);
    (counters, particles, tally.snapshot())
}

/// Build a tiny-scale, multi-timestep simulation (≥ 2 timesteps so the
/// persistent transport state actually carries across a census
/// boundary).
pub fn tiny_multistep(case: TestCase, timesteps: usize, seed: u64) -> Simulation {
    let mut problem = case.build(ProblemScale::tiny(), seed);
    problem.n_timesteps = timesteps;
    Simulation::new(problem)
}

/// Build a tiny-scale catalogue scenario.
pub fn tiny_scenario(scenario: Scenario, seed: u64) -> Simulation {
    Simulation::new(scenario.build(ProblemScale::tiny(), seed))
}

/// Worker counts exercised by the multi-thread suites: always {1, 2, 7},
/// plus whatever `NEUTRAL_TEST_THREADS` adds (the CI multi-thread job
/// sets it to the runner's core count).
#[must_use]
pub fn test_thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 7];
    if let Some(n) = std::env::var("NEUTRAL_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        if n > 0 && !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}
