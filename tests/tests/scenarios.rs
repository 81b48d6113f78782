//! Multi-material scenario suite: the catalogue workloads must satisfy
//! every invariant the paper's three cases do — cross-scheme agreement,
//! worker-count bitwise determinism of the deterministic tally backend,
//! and conservation accounting — plus the multi-material-specific ones
//! (material switches observed, per-cell material resolution).

use neutral_core::prelude::*;
use neutral_core::validate::population_balance;
use neutral_integration::{rel_diff, test_thread_counts, tiny_scenario_with_tally};

/// The two catalogue workloads the heavy sweeps run on: the most
/// streaming-like and the most collision-like of the new scenarios.
const SWEEP_SCENARIOS: [Scenario; 2] = [Scenario::ShieldedSlab, Scenario::FuelLattice];

/// Both schemes compute identical physics on every multi-material
/// scenario: identical integer counters (collisions, facets, material
/// switches, ...) and tally totals within reassociation error.
#[test]
fn drivers_agree_on_multi_material_scenarios() {
    for scenario in Scenario::MULTI_MATERIAL {
        let sim = tiny_scenario_with_tally(scenario, 41, TallyStrategy::Replicated);
        let base = sim.run(RunOptions::new(Scheme::OverParticles, 1));
        assert!(base.counters.material_switches > 0, "{scenario:?}");
        for scheme in Scheme::ALL {
            let r = sim.run(RunOptions::new(scheme, 3));
            assert_eq!(
                r.counters.collisions, base.counters.collisions,
                "{scenario:?}/{scheme:?}"
            );
            assert_eq!(
                r.counters.facets, base.counters.facets,
                "{scenario:?}/{scheme:?}"
            );
            assert_eq!(
                r.counters.material_switches, base.counters.material_switches,
                "{scenario:?}/{scheme:?}"
            );
            assert_eq!(
                r.counters.cs_lookups, base.counters.cs_lookups,
                "{scenario:?}/{scheme:?}"
            );
            assert_eq!(
                r.counters.deaths, base.counters.deaths,
                "{scenario:?}/{scheme:?}"
            );
            assert!(
                rel_diff(base.tally_total(), r.tally_total()) < 1e-9,
                "{scenario:?}/{scheme:?}: tally {} vs {}",
                base.tally_total(),
                r.tally_total()
            );
        }
    }
}

/// The deterministic-merge invariant on multi-material workloads: for
/// Replicated, merged tallies AND counters are bitwise identical for any
/// worker count, under both schemes.
#[test]
fn worker_count_invariance_on_scenarios() {
    for scenario in SWEEP_SCENARIOS {
        for scheme in Scheme::ALL {
            let sim = tiny_scenario_with_tally(scenario, 43, TallyStrategy::Replicated);
            let base = sim.run(RunOptions::new(scheme, 1));
            for workers in test_thread_counts() {
                let r = sim.run(RunOptions::new(scheme, workers));
                assert_eq!(
                    r.counters, base.counters,
                    "{scenario:?}/{scheme:?}/{workers} workers"
                );
                assert!(
                    r.tally
                        .iter()
                        .zip(&base.tally)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{scenario:?}/{scheme:?}/{workers} workers: merged tally bits differ"
                );
            }
        }
    }
}

/// The deterministic backend agrees with itself bit for bit across
/// worker counts on every multi-material scenario, not only the two the
/// sweep above runs.
#[test]
fn deterministic_backends_agree_on_scenarios() {
    for scenario in Scenario::MULTI_MATERIAL {
        let sim = tiny_scenario_with_tally(scenario, 47, TallyStrategy::Replicated);
        let a = sim.run(RunOptions::new(Scheme::OverParticles, 3));
        let b = sim.run(RunOptions::new(Scheme::OverParticles, 5));
        assert_eq!(a.counters, b.counters, "{scenario:?}");
        assert!(
            a.tally
                .iter()
                .zip(&b.tally)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{scenario:?}: 3 vs 5 workers, bits differ"
        );
    }
}

/// Population accounting holds on every scenario, under both schemes:
/// census + deaths + stuck == histories, and nothing gets stuck.
#[test]
fn population_conserved_on_scenarios() {
    for scenario in Scenario::MULTI_MATERIAL {
        for scheme in Scheme::ALL {
            let sim = tiny_scenario_with_tally(scenario, 53, TallyStrategy::Replicated);
            let n = sim.problem().n_particles as u64;
            let r = sim.run(RunOptions::new(scheme, 2));
            assert!(
                population_balance(n, &r.counters),
                "{scenario:?}/{scheme:?}: census {} + deaths {} + stuck {} != {n}",
                r.counters.census,
                r.counters.deaths,
                r.counters.stuck
            );
            assert_eq!(r.counters.stuck, 0, "{scenario:?}/{scheme:?}");
        }
    }
}

/// Under implicit capture the track-length estimator stays consistent
/// with the population energy balance on heterogeneous problems too —
/// per-cell material resolution must not leak energy at interfaces.
#[test]
fn energy_balance_on_scenarios() {
    for scenario in SWEEP_SCENARIOS {
        let mut problem = scenario.build(ProblemScale::tiny(), 59);
        problem.transport.collision_model = CollisionModel::ImplicitCapture;
        problem.transport.tally_strategy = TallyStrategy::Replicated;
        let r = Simulation::new(problem).run(RunOptions::new(Scheme::OverParticles, 1));
        let b = r.energy_balance();
        assert!(b.weak_invariants_hold(), "{scenario:?}: {b:?}");
        let defect = b.relative_defect();
        assert!(
            defect.abs() < 0.05,
            "{scenario:?}: energy-balance defect {defect:+.4}"
        );
    }
}

/// Lookup backends stay bitwise-equivalent per material: switching the
/// strategy must not change a single bit of a multi-material solve.
#[test]
fn lookup_strategies_agree_on_scenarios() {
    for scenario in SWEEP_SCENARIOS {
        let run_with = |strategy: LookupStrategy| {
            let mut problem = scenario.build(ProblemScale::tiny(), 61);
            problem.transport.xs_search = strategy;
            problem.transport.tally_strategy = TallyStrategy::Replicated;
            Simulation::new(problem).run(RunOptions::new(Scheme::OverParticles, 2))
        };
        let base = run_with(LookupStrategy::Hinted);
        for strategy in [LookupStrategy::Binary, LookupStrategy::Hashed] {
            let r = run_with(strategy);
            assert_eq!(
                r.counters.collisions, base.counters.collisions,
                "{scenario:?}/{strategy:?}"
            );
            assert_eq!(
                r.counters.material_switches, base.counters.material_switches,
                "{scenario:?}/{strategy:?}"
            );
            assert!(
                r.tally
                    .iter()
                    .zip(&base.tally)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{scenario:?}/{strategy:?}: lookup backend changed the physics bits"
            );
        }
    }
}
