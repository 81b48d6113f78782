//! Conservation and accounting invariants (paper §IV-C: "making it
//! straightforward to track the conservation of the particle population").

use neutral_core::prelude::*;
use neutral_core::validate::population_balance;
use neutral_integration::tiny;

fn run_with_model(case: TestCase, model: CollisionModel, seed: u64) -> (RunReport, usize) {
    let mut problem = case.build(ProblemScale::tiny(), seed);
    problem.transport.collision_model = model;
    let n = problem.n_particles;
    let sim = Simulation::new(problem);
    (
        sim.run(RunOptions {
            execution: Execution::Sequential,
            ..Default::default()
        }),
        n,
    )
}

/// Every history must end as census, death or (never) stuck.
#[test]
fn population_is_conserved() {
    for case in TestCase::ALL {
        for model in [CollisionModel::Analogue, CollisionModel::ImplicitCapture] {
            let (r, n) = run_with_model(case, model, 5);
            assert!(
                population_balance(n as u64, &r.counters),
                "{case:?}/{model:?}: census {} + deaths {} + stuck {} != {n}",
                r.counters.census,
                r.counters.deaths,
                r.counters.stuck
            );
            assert_eq!(r.counters.stuck, 0, "{case:?}: runaway histories");
        }
    }
}

/// Under implicit capture the track-length estimator is consistent with
/// the population energy balance in expectation (DESIGN.md §3): source =
/// deposited + census residual + cutoff residual, up to Monte Carlo noise.
#[test]
fn energy_balance_implicit_capture() {
    for case in TestCase::ALL {
        for seed in [11, 99] {
            let (r, _) = run_with_model(case, CollisionModel::ImplicitCapture, seed);
            let b = r.energy_balance();
            assert!(b.weak_invariants_hold(), "{case:?}: {b:?}");
            let defect = b.relative_defect();
            // Stream has ~no collisions, so the defect is ~exactly zero;
            // collisional cases carry statistical noise.
            let tol = match case {
                TestCase::Stream => 1e-9,
                _ => 0.05,
            };
            assert!(
                defect.abs() < tol,
                "{case:?}/seed {seed}: defect {defect:+.4} exceeds {tol}"
            );
        }
    }
}

/// The default analogue branch is a response *proxy* (like the original
/// mini-app): exact conservation is not promised, but the weak invariants
/// and the vacuum limit must still hold.
#[test]
fn energy_invariants_analogue() {
    for case in TestCase::ALL {
        let (r, _) = run_with_model(case, CollisionModel::Analogue, 7);
        let b = r.energy_balance();
        assert!(b.weak_invariants_hold(), "{case:?}: {b:?}");
    }
    // Vacuum limit: no material, no deposit, full residual.
    let (r, n) = run_with_model(TestCase::Stream, CollisionModel::Analogue, 7);
    assert!(r.tally_total() < 1e-6);
    let expect = n as f64 * 1.0e6;
    assert!((r.counters.census_energy_ev - expect).abs() / expect < 1e-12);
}

/// Conservation holds under the solve's tally: population balance, the
/// weak energy invariants, and (under implicit capture) the closed
/// energy balance — including the cutoff-residual path, where histories
/// terminated by the weight cutoff book their in-flight energy as
/// `lost_energy_ev`.
#[test]
fn conservation_under_every_tally_strategy() {
    for case in TestCase::ALL {
        // An aggressive cutoff so the cutoff-residual path fires in the
        // collisional cases.
        let mut problem = case.build(ProblemScale::tiny(), 17);
        problem.transport.collision_model = CollisionModel::ImplicitCapture;
        problem.transport.weight_cutoff = 1.0e-3;
        let n = problem.n_particles;
        let r = Simulation::new(problem).run(RunOptions::new(Scheme::OverParticles, 3));

        assert!(
            population_balance(n as u64, &r.counters),
            "{case:?}: census {} + deaths {} + stuck {} != {n}",
            r.counters.census,
            r.counters.deaths,
            r.counters.stuck
        );
        assert_eq!(r.counters.stuck, 0, "{case:?}");
        let b = r.energy_balance();
        assert!(b.weak_invariants_hold(), "{case:?}: {b:?}");
        if case != TestCase::Stream {
            assert!(
                r.counters.deaths > 0 && b.cutoff_residual_ev > 0.0,
                "{case:?}: cutoff-residual path did not fire"
            );
        }
        let tol = if case == TestCase::Stream { 1e-9 } else { 0.05 };
        assert!(
            b.relative_defect().abs() < tol,
            "{case:?}: defect {:+.4}",
            b.relative_defect()
        );
        assert!(
            r.tally.iter().all(|&v| v >= 0.0 && v.is_finite()),
            "{case:?}: bad deposit"
        );
    }
}

/// The cutoff residual is itself part of the deterministic merge: it
/// books bitwise-identical `lost_energy_ev` for any worker count.
#[test]
fn cutoff_residual_is_deterministic() {
    let run = |workers: usize| {
        let mut problem = TestCase::Scatter.build(ProblemScale::tiny(), 23);
        problem.transport.weight_cutoff = 1.0e-3;
        problem.transport.collision_model = CollisionModel::ImplicitCapture;
        Simulation::new(problem).run(RunOptions::new(Scheme::OverParticles, workers))
    };
    let base = run(1);
    assert!(base.counters.lost_energy_ev > 0.0);
    for workers in [2, 7] {
        let r = run(workers);
        assert_eq!(
            r.counters.lost_energy_ev.to_bits(),
            base.counters.lost_energy_ev.to_bits(),
            "{workers}w: cutoff residual bits"
        );
    }
}

/// Tally values are non-negative everywhere (deposits are energies).
#[test]
fn tally_is_non_negative() {
    for case in TestCase::ALL {
        let r = tiny(case, 13).run(RunOptions::default());
        assert!(
            r.tally.iter().all(|&v| v >= 0.0),
            "{case:?} produced a negative deposit"
        );
    }
}

/// Multi-timestep runs keep conserving: stream survivors re-census every
/// step and the deposited total stays ~zero.
#[test]
fn multi_step_population() {
    let mut problem = TestCase::Stream.build(ProblemScale::tiny(), 21);
    problem.n_timesteps = 4;
    let n = problem.n_particles;
    let r = Simulation::new(problem).run(RunOptions {
        execution: Execution::Sequential,
        ..Default::default()
    });
    assert_eq!(r.counters.census as usize, 4 * n);
    assert_eq!(r.counters.deaths, 0);
    assert_eq!(r.alive, n);
}

/// Russian roulette is unbiased: switching the low-weight policy from
/// termination to roulette must leave the deposited energy statistically
/// unchanged (it conserves expected weight), while reducing the number of
/// cutoff terminations booked as lost energy.
#[test]
fn russian_roulette_is_unbiased() {
    let run = |policy| {
        let mut problem = TestCase::Scatter.build(ProblemScale::tiny(), 3141);
        problem.transport.collision_model = CollisionModel::ImplicitCapture;
        problem.transport.low_weight = policy;
        Simulation::new(problem).run(RunOptions {
            execution: Execution::Sequential,
            ..Default::default()
        })
    };
    let term = run(LowWeightPolicy::Terminate);
    let roul = run(LowWeightPolicy::Roulette { target: 1.0e-3 });

    // Same estimator expectation: tally totals agree within MC noise.
    let rel = (term.tally_total() - roul.tally_total()).abs() / term.tally_total();
    assert!(rel < 0.05, "roulette biased the tally by {rel:.4}");

    // Roulette survivors prolong histories: more collisions processed.
    assert!(roul.counters.collisions > term.counters.collisions);

    // The energy balance still closes under implicit capture.
    let b = roul.energy_balance();
    assert!(
        b.relative_defect().abs() < 0.05,
        "defect {}",
        b.relative_defect()
    );
    // And the population is still fully accounted for.
    let n = TestCase::Scatter
        .build(ProblemScale::tiny(), 3141)
        .n_particles;
    assert!(population_balance(n as u64, &roul.counters));
}

/// Roulette keeps scheme equivalence: both schemes draw the roulette
/// random number at the same point in the per-particle stream.
#[test]
fn roulette_preserves_scheme_equivalence() {
    let mut problem = TestCase::Scatter.build(ProblemScale::tiny(), 99);
    problem.transport.low_weight = LowWeightPolicy::Roulette { target: 1.0e-3 };
    let sim = Simulation::new(problem);
    let op = sim.run(RunOptions {
        execution: Execution::Sequential,
        ..Default::default()
    });
    let oe = sim.run(RunOptions {
        scheme: Scheme::OverEvents,
        execution: Execution::Sequential,
    });
    assert_eq!(op.counters.collisions, oe.counters.collisions);
    assert_eq!(op.counters.deaths, oe.counters.deaths);
    let (a, b) = (op.tally_total(), oe.tally_total());
    assert!(((a - b) / a).abs() < 1e-9);
}
