//! Lookup-strategy equivalence across every transport driver.
//!
//! The acceptance property of the lookup subsystem: all drivers yield
//! identical census tallies and event counts under the cached linear
//! search (`hinted`, what every solve runs) and its reference, binary
//! search, because the two are bitwise-equivalent and only differ in how
//! fast they find the containing energy bin.

use neutral_core::prelude::*;
use neutral_integration::{rel_diff, tiny};

fn with_strategy(case: TestCase, seed: u64, strategy: LookupStrategy) -> Simulation {
    let mut problem = case.build(ProblemScale::tiny(), seed);
    problem.transport.xs_search = strategy;
    Simulation::new(problem)
}

/// Sequential over-particles runs are bitwise identical across both
/// strategies: same tally bits, same trajectories, same event counts.
#[test]
fn sequential_tallies_bitwise_identical_across_strategies() {
    for case in TestCase::ALL {
        let base = with_strategy(case, 7, LookupStrategy::Binary).run(RunOptions {
            execution: Execution::Sequential,
            ..Default::default()
        });
        for strategy in LookupStrategy::ALL {
            let r = with_strategy(case, 7, strategy).run(RunOptions {
                execution: Execution::Sequential,
                ..Default::default()
            });
            assert_eq!(
                r.counters.collisions, base.counters.collisions,
                "{case:?}/{strategy:?}"
            );
            assert_eq!(
                r.counters.facets, base.counters.facets,
                "{case:?}/{strategy:?}"
            );
            assert_eq!(
                r.counters.census, base.counters.census,
                "{case:?}/{strategy:?}"
            );
            assert_eq!(
                r.counters.deaths, base.counters.deaths,
                "{case:?}/{strategy:?}"
            );
            assert_eq!(r.alive, base.alive, "{case:?}/{strategy:?}");
            for (i, (a, b)) in base.tally.iter().zip(&r.tally).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{case:?}/{strategy:?}: tally cell {i}: {a} vs {b}"
                );
            }
        }
    }
}

/// Every execution (over-particles sequential/default/scheduled,
/// over-events sequential/default) produces the same census tally for
/// every strategy — up to the schemes' floating-point summation order.
#[test]
fn all_drivers_agree_for_every_strategy() {
    let seed = 23;
    for case in TestCase::ALL {
        let base = with_strategy(case, seed, LookupStrategy::Binary).run(RunOptions {
            execution: Execution::Sequential,
            ..Default::default()
        });
        for strategy in LookupStrategy::ALL {
            let sim = with_strategy(case, seed, strategy);
            let combos = [
                RunOptions {
                    execution: Execution::Sequential,
                    ..Default::default()
                },
                RunOptions::default(),
                RunOptions {
                    scheme: Scheme::OverEvents,
                    execution: Execution::Sequential,
                },
                RunOptions {
                    scheme: Scheme::OverEvents,
                    ..Default::default()
                },
                RunOptions {
                    execution: Execution::Scheduled {
                        threads: 3,
                        schedule: Schedule::Dynamic { chunk: 16 },
                    },
                    ..Default::default()
                },
            ];
            for opts in combos {
                let r = sim.run(opts);
                assert_eq!(
                    r.counters.collisions, base.counters.collisions,
                    "{case:?}/{strategy:?}/{opts:?}"
                );
                assert_eq!(
                    r.counters.facets, base.counters.facets,
                    "{case:?}/{strategy:?}/{opts:?}"
                );
                assert_eq!(
                    r.counters.census, base.counters.census,
                    "{case:?}/{strategy:?}/{opts:?}"
                );
                assert!(
                    rel_diff(base.tally_total(), r.tally_total()) < 1e-9,
                    "{case:?}/{strategy:?}/{opts:?}: tally {} vs {}",
                    base.tally_total(),
                    r.tally_total()
                );
            }
        }
    }
}

/// A parsed params file runs the cached linear search, and setting the
/// binary reference on the same problem in code moves no bit.
#[test]
fn params_lookup_strategy_matches_default_physics() {
    let base_text =
        "nx 32\nny 32\ndensity 1e3\nparticles 80\nsource 0.4 0.6 0.4 0.6\nxs_points 512\n";
    let base = Simulation::new(
        neutral_core::params::ProblemParams::parse(base_text)
            .unwrap()
            .build(),
    )
    .run(RunOptions {
        execution: Execution::Sequential,
        ..Default::default()
    });
    for strategy in LookupStrategy::ALL {
        let mut problem = neutral_core::params::ProblemParams::parse(base_text)
            .unwrap()
            .build();
        assert_eq!(problem.transport.xs_search, LookupStrategy::Hinted);
        problem.transport.xs_search = strategy;
        let r = Simulation::new(problem).run(RunOptions {
            execution: Execution::Sequential,
            ..Default::default()
        });
        assert_eq!(
            r.counters.collisions, base.counters.collisions,
            "{strategy:?}"
        );
        assert!(
            rel_diff(base.tally_total(), r.tally_total()) == 0.0,
            "{strategy:?}"
        );
    }
}

/// Strategy switching mid-simulation is safe: hints left by one backend
/// are valid starting hints for another (all leave the containing bin).
#[test]
fn strategies_interchange_mid_run() {
    let sim = tiny(TestCase::Scatter, 5);
    let problem = sim.problem();
    let xs = problem.materials.library(0);
    let mut hints = neutral_xs::XsHints::default();
    let mut e = 1.0e6;
    let mut reference = Vec::new();
    while e > 1.0 {
        reference.push(xs.lookup_binary(e).total_barns());
        e *= 0.9;
    }
    // Replay the same walk rotating through the strategies each step.
    let mut e = 1.0e6;
    let mut i = 0;
    while e > 1.0 {
        let strategy = LookupStrategy::ALL[i % LookupStrategy::ALL.len()];
        let (micro, _) = xs.lookup_with(strategy, e, &mut hints);
        assert_eq!(
            micro.total_barns().to_bits(),
            reference[i].to_bits(),
            "step {i} via {strategy:?}"
        );
        e *= 0.9;
        i += 1;
    }
}
