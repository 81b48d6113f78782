//! Reproducibility guarantees of the counter-based RNG design (paper
//! §IV-F: CBRNGs "achieve reproducibility between runs for the purpose of
//! testing during debugging").

use neutral_core::history::TransportCtx;
use neutral_core::over_particles::run_sequential;
use neutral_core::particle::spawn_particles;
use neutral_core::prelude::*;
use neutral_integration::{rel_diff, tiny, tiny_with_tally};
use neutral_mesh::tally::SequentialTally;
use neutral_rng::{Philox4x32, Threefry2x64};

/// Same seed, same options => bitwise-identical tallies, any number of
/// times.
#[test]
fn sequential_runs_are_bitwise_reproducible() {
    for case in TestCase::ALL {
        let a = tiny(case, 31).run(RunOptions {
            execution: Execution::Sequential,
            ..Default::default()
        });
        let b = tiny(case, 31).run(RunOptions {
            execution: Execution::Sequential,
            ..Default::default()
        });
        assert!(
            a.tally
                .iter()
                .zip(&b.tally)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{case:?}: sequential runs diverged"
        );
    }
}

/// Lane-privatised (`replicated`) tally => bitwise reproducible
/// *parallel* runs, even under a dynamic schedule (deterministic lane
/// merge order).
#[test]
fn privatized_parallel_runs_are_bitwise_reproducible() {
    let opts = RunOptions {
        execution: Execution::Scheduled {
            threads: 4,
            schedule: Schedule::Dynamic { chunk: 1 },
        },
        ..Default::default()
    };
    let a = tiny_with_tally(TestCase::Csp, 8, TallyStrategy::Replicated).run(opts);
    let b = tiny_with_tally(TestCase::Csp, 8, TallyStrategy::Replicated).run(opts);
    assert!(a
        .tally
        .iter()
        .zip(&b.tally)
        .all(|(x, y)| x.to_bits() == y.to_bits()));
}

/// Atomic-tally parallel runs reorder float additions, so they are only
/// *numerically* reproducible — but the physics (integer counters) stays
/// bitwise identical.
#[test]
fn atomic_parallel_runs_reproduce_physics_exactly() {
    let opts = RunOptions {
        execution: Execution::Rayon,
        ..Default::default()
    };
    let a = tiny_with_tally(TestCase::Scatter, 17, TallyStrategy::Atomic).run(opts);
    let b = tiny_with_tally(TestCase::Scatter, 17, TallyStrategy::Atomic).run(opts);
    assert_eq!(a.counters.collisions, b.counters.collisions);
    assert_eq!(a.counters.absorptions, b.counters.absorptions);
    assert_eq!(a.counters.facets, b.counters.facets);
    assert!(rel_diff(a.tally_total(), b.tally_total()) < 1e-9);
}

/// Swapping the RNG *family* (Threefry -> Philox) changes every
/// trajectory but must leave the statistics intact — the solution is a
/// property of the physics, not of the generator (§IV-F's requirement of
/// statistical robustness).
#[test]
fn rng_family_swap_preserves_statistics() {
    let problem = TestCase::Scatter.build(ProblemScale::tiny(), 4242);
    let mut tallies = Vec::new();
    let mut collisions = Vec::new();

    // Threefry (the default engine).
    {
        let rng = Threefry2x64::new([problem.seed, 1]);
        let ctx = TransportCtx {
            mesh: &problem.mesh,
            materials: &problem.materials,
            rng: &rng,
            cfg: &problem.transport,
        };
        let mut particles = spawn_particles(&problem);
        let mut tally = SequentialTally::new(problem.mesh.num_cells());
        let c = run_sequential(&mut particles, &ctx, &mut tally);
        tallies.push(tally.total());
        collisions.push(c.collisions);
    }
    // Philox.
    {
        let rng = Philox4x32::new([problem.seed, 1]);
        let ctx = TransportCtx {
            mesh: &problem.mesh,
            materials: &problem.materials,
            rng: &rng,
            cfg: &problem.transport,
        };
        let mut particles = spawn_particles(&problem);
        let mut tally = SequentialTally::new(problem.mesh.num_cells());
        let c = run_sequential(&mut particles, &ctx, &mut tally);
        tallies.push(tally.total());
        collisions.push(c.collisions);
    }

    assert_ne!(
        collisions[0], collisions[1],
        "different engines, different paths"
    );
    let col_ratio = collisions[0] as f64 / collisions[1] as f64;
    assert!(
        (0.9..1.1).contains(&col_ratio),
        "collision counts diverged: {collisions:?}"
    );
    assert!(
        rel_diff(tallies[0], tallies[1]) < 0.1,
        "tally totals diverged: {tallies:?}"
    );
}
