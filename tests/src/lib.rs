//! Support library for the `neutral-integration` test package.
//!
//! The actual integration tests live in `tests/tests/*.rs`; this crate
//! provides shared fixtures. The deterministic property-test harness
//! ([`Gen`], [`for_cases`]) and the driver-family/physics-comparison
//! vocabulary ([`DriverKind`], [`rel_diff`]) now
//! live in [`neutral_core::fuzz`] — the generative fuzzer is built on
//! them — and are re-exported here so the suites keep one import path.

use neutral_core::prelude::*;

pub mod golden;

pub use neutral_core::fuzz::{for_cases, rel_diff, DriverKind, Gen};

/// Standard tiny-scale fixture used across the integration suite.
pub fn tiny(case: TestCase, seed: u64) -> Simulation {
    Simulation::new(case.build(ProblemScale::tiny(), seed))
}

/// Build a tiny-scale simulation with an explicit tally strategy.
pub fn tiny_with_tally(case: TestCase, seed: u64, strategy: TallyStrategy) -> Simulation {
    let mut problem = case.build(ProblemScale::tiny(), seed);
    problem.transport.tally_strategy = strategy;
    Simulation::new(problem)
}

/// The committed multi-timestep golden configs (fixture names
/// `<case>_t<steps>`, seeds fixed forever): ≥ 2 timesteps so the
/// between-timestep machinery — persistent transport state, the census
/// timer reset — actually executes.
pub const MULTISTEP_CONFIGS: [(TestCase, usize, u64); 2] =
    [(TestCase::Csp, 3, 41), (TestCase::Scatter, 2, 43)];

/// Build a tiny-scale, multi-timestep simulation with an explicit tally
/// strategy (≥ 2 timesteps so the persistent transport state actually
/// carries across a census boundary).
pub fn tiny_multistep(
    case: TestCase,
    timesteps: usize,
    seed: u64,
    strategy: TallyStrategy,
) -> Simulation {
    let mut problem = case.build(ProblemScale::tiny(), seed);
    problem.n_timesteps = timesteps;
    problem.transport.tally_strategy = strategy;
    Simulation::new(problem)
}

/// Build a tiny-scale catalogue scenario with an explicit tally strategy.
pub fn tiny_scenario_with_tally(
    scenario: Scenario,
    seed: u64,
    strategy: TallyStrategy,
) -> Simulation {
    let mut problem = scenario.build(ProblemScale::tiny(), seed);
    problem.transport.tally_strategy = strategy;
    Simulation::new(problem)
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
