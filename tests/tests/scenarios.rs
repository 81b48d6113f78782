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

/// The content address of every catalogue scenario at `tiny`, seed
/// 20 170 905, under both schemes. The registry's memo and result cache
/// key on these values, and so does the `ConfigMismatch` guard of every
/// checkpoint already on disk. The address hashes every table bit, so a
/// table build that moves one bit fails here even for a scenario no
/// golden covers.
#[test]
fn catalogue_fingerprints_are_pinned() {
    const PINNED: [(Scenario, u64, u64); 8] = [
        (
            Scenario::Stream,
            0x1329_c95d_1832_03f5,
            0xde17_8319_2475_acb3,
        ),
        (
            Scenario::Scatter,
            0xcd38_59a6_cf23_9944,
            0x1feb_c0b8_fc82_74a3,
        ),
        (Scenario::Csp, 0x7e72_6714_08d5_d7a2, 0xa2ce_9305_75ff_da9d),
        (
            Scenario::ShieldedSlab,
            0xbdc4_0c66_061d_ffa2,
            0xeb75_49f0_4db1_15c3,
        ),
        (
            Scenario::StreamingDuct,
            0x1be0_6378_a881_586f,
            0x9f54_3e0b_e6eb_a9c6,
        ),
        (
            Scenario::GradedModerator,
            0x8f69_a465_d0e0_979a,
            0xa881_4190_504c_8e70,
        ),
        (
            Scenario::FuelLattice,
            0xf19c_2ac5_02fb_3838,
            0x63bf_c83e_e1f1_3fc7,
        ),
        (
            Scenario::CoreEscape,
            0xd060_5521_492b_2693,
            0x26f7_9b95_0de0_b6f5,
        ),
    ];
    assert_eq!(PINNED.map(|(s, _, _)| s), Scenario::ALL);
    for (scenario, op, oe) in PINNED {
        let problem = scenario.build(ProblemScale::tiny(), 20_170_905);
        for (scheme, want) in [(Scheme::OverParticles, op), (Scheme::OverEvents, oe)] {
            let got = config_fingerprint(&problem, scheme);
            assert_eq!(got, want, "{scenario:?}/{scheme:?}: {got:#018x}");
        }
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
