//! Multi-material scenario suite: the catalogue workloads must satisfy
//! every invariant the paper's three cases do — cross-scheme agreement,
//! worker-count bitwise determinism of the tally, and conservation accounting — plus the multi-material-specific ones
//! (material switches observed, per-cell material resolution).

use neutral_core::prelude::*;
use neutral_core::validate::population_balance;
use neutral_integration::{rel_diff, test_thread_counts, tiny_scenario};

/// The two catalogue workloads the heavy sweeps run on: the most
/// streaming-like and the most collision-like of the new scenarios.
const SWEEP_SCENARIOS: [Scenario; 2] = [Scenario::ShieldedSlab, Scenario::FuelLattice];

/// Both schemes compute identical physics on every multi-material
/// scenario: identical integer counters (collisions, facets, material
/// switches, ...) and tally totals within reassociation error.
#[test]
fn drivers_agree_on_multi_material_scenarios() {
    for scenario in Scenario::MULTI_MATERIAL {
        let sim = tiny_scenario(scenario, 41);
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

/// The deterministic-merge invariant on multi-material workloads: merged
/// tallies AND counters are bitwise identical for any worker count,
/// under both schemes.
#[test]
fn worker_count_invariance_on_scenarios() {
    for scenario in SWEEP_SCENARIOS {
        for scheme in Scheme::ALL {
            let sim = tiny_scenario(scenario, 43);
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

/// The tally agrees with itself bit for bit across worker counts on
/// every multi-material scenario, not only the two the
/// sweep above runs.
#[test]
fn deterministic_backends_agree_on_scenarios() {
    for scenario in Scenario::MULTI_MATERIAL {
        let sim = tiny_scenario(scenario, 47);
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
            let sim = tiny_scenario(scenario, 53);
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

/// The seed of the pinned catalogue builds below.
const PIN_SEED: u64 = 20_170_905;

/// The content address of every catalogue scenario at `tiny`, seed
/// 20 170 905, under both schemes. The registry's memo and result cache
/// key on these values, and so does the `ConfigMismatch` guard of every
/// checkpoint already on disk. A synthesized table is addressed by its
/// spec, not its values, so a table build that moves a bit does not fail
/// here: `catalogue_tables_are_pinned` guards the bits.
#[test]
fn catalogue_fingerprints_are_pinned() {
    const PINNED: [(Scenario, u64, u64); 8] = [
        (
            Scenario::Stream,
            0xd362_c1db_eb7e_b289,
            0x89d9_878e_f838_0dbf,
        ),
        (
            Scenario::Scatter,
            0x90fc_6880_7a63_5736,
            0x92ab_6697_7ac5_6997,
        ),
        (Scenario::Csp, 0x4235_733d_d7a9_5493, 0x4c87_4cec_a06f_29c0),
        (
            Scenario::ShieldedSlab,
            0x8bcd_0d5f_22fe_b5c3,
            0x8d62_1ebf_be20_4c2a,
        ),
        (
            Scenario::StreamingDuct,
            0x9e2c_ec81_befd_a30e,
            0x9ee3_11a4_ce41_fa20,
        ),
        (
            Scenario::GradedModerator,
            0x8009_699a_8d8c_c534,
            0x00be_b488_325c_1424,
        ),
        (
            Scenario::FuelLattice,
            0xb4d0_bc2e_1e8e_55a7,
            0xf9fe_dadb_46e1_5e69,
        ),
        (
            Scenario::CoreEscape,
            0x2afd_906e_d59e_5876,
            0x818a_79c4_c662_cb8d,
        ),
    ];
    assert_eq!(PINNED.map(|(s, _, _)| s), Scenario::ALL);
    for (scenario, op, oe) in PINNED {
        let problem = scenario.build(ProblemScale::tiny(), PIN_SEED);
        for (scheme, want) in [(Scheme::OverParticles, op), (Scheme::OverEvents, oe)] {
            let got = config_fingerprint(&problem, scheme);
            assert_eq!(got, want, "{scenario:?}/{scheme:?}: {got:#018x}");
        }
    }
}

/// Every catalogue problem's tables, filled in full, folded bit by bit
/// (FNV-1a over every energy and value word of every material).
fn table_digest(problem: &Problem) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for lib in problem.materials.libraries() {
        for table in [&lib.absorb, &lib.scatter] {
            for word in table.energies().iter().chain(&table.values()) {
                for byte in word.to_bits().to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    hash
}

/// The bits of every catalogue material. The content address names a
/// synthesized table by its spec, so this digest is what catches a
/// generator change that moves one table bit.
#[test]
fn catalogue_tables_are_pinned() {
    const PINNED: [(Scenario, u64); 8] = [
        (Scenario::Stream, 0x0e3a_6ad2_e738_9ee5),
        (Scenario::Scatter, 0x0e3a_6ad2_e738_9ee5),
        (Scenario::Csp, 0x0e3a_6ad2_e738_9ee5),
        (Scenario::ShieldedSlab, 0x7839_425e_c437_84bc),
        (Scenario::StreamingDuct, 0x6f40_4e07_76af_5f0d),
        (Scenario::GradedModerator, 0x8b53_22e7_4b55_6901),
        (Scenario::FuelLattice, 0x05b2_540d_7ce2_03f7),
        (Scenario::CoreEscape, 0x0e3a_6ad2_e738_9ee5),
    ];
    assert_eq!(PINNED.map(|(s, _)| s), Scenario::ALL);
    for (scenario, want) in PINNED {
        let got = table_digest(&scenario.build(ProblemScale::tiny(), PIN_SEED));
        assert_eq!(
            got, want,
            "{scenario:?}: table digest {got:#018x}. A synthesized table bit moved: \
             bump `neutral_xs::SYNTH_VERSION` (the content address names tables by spec), \
             then re-pin this digest and `catalogue_fingerprints_are_pinned`"
        );
    }
}

/// `problem` with every material's tables copied into explicit columns.
fn with_explicit_tables(problem: &Problem) -> Problem {
    let dense = |t: &neutral_xs::CrossSection| {
        neutral_xs::CrossSection::new(t.energies().to_vec(), t.values())
    };
    let libs = problem
        .materials
        .libraries()
        .iter()
        .map(|lib| {
            neutral_xs::CrossSectionLibrary::from_tables(dense(&lib.absorb), dense(&lib.scatter))
        })
        .collect();
    Problem {
        materials: MaterialSet::from_libraries(libs),
        ..problem.clone()
    }
}

/// The catalogue addresses when every table was hashed by its values:
/// what a table built from explicit columns still hashes by. Checkpoints
/// written by a catalogue problem before tables were addressed by spec
/// carry these.
const VALUE_ADDRESSED: [(Scenario, u64, u64); 8] = [
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

/// A table built from explicit columns keeps the value hash, even when
/// its columns are a synthesized table's exact bits: the spec address
/// travels with the synthesized table, not with its values. Copied into
/// explicit columns, every catalogue problem hashes to its value address.
#[test]
fn explicit_tables_with_synthesized_bits_keep_the_value_hash() {
    assert_eq!(VALUE_ADDRESSED.map(|(s, _, _)| s), Scenario::ALL);
    for (scenario, op, oe) in VALUE_ADDRESSED {
        let problem = scenario.build(ProblemScale::tiny(), PIN_SEED);
        let explicit = with_explicit_tables(&problem);
        for (scheme, want) in [(Scheme::OverParticles, op), (Scheme::OverEvents, oe)] {
            let got = config_fingerprint(&explicit, scheme);
            assert_eq!(got, want, "{scenario:?}/{scheme:?}: {got:#018x}");
            assert_ne!(
                got,
                config_fingerprint(&problem, scheme),
                "{scenario:?}/{scheme:?}"
            );
        }
    }
}

/// A checkpoint written when the catalogue was addressed by table
/// values fails to resume by name: `ConfigMismatch`, naming both
/// addresses, never a silent resume or a panic.
#[test]
fn a_value_addressed_checkpoint_fails_config_mismatch() {
    let (_, op, _) = VALUE_ADDRESSED[2];
    let sim = Simulation::new(Scenario::Csp.build(ProblemScale::tiny(), PIN_SEED));
    let options = RunOptions::new(Scheme::OverParticles, 1);
    let mut core = SolveCore::new(&sim, options);
    core.step(&sim);
    let mut old = core.checkpoint();
    old.fingerprint = op;
    let old = Checkpoint::from_bytes(&old.to_bytes()).expect("a well-formed checkpoint");
    let err = SolveCore::resume(&sim, options, &old)
        .err()
        .expect("a value-addressed checkpoint");
    let expected = config_fingerprint(sim.problem(), Scheme::OverParticles);
    assert!(
        matches!(err, CheckpointError::ConfigMismatch { expected: e, found } if e == expected && found == op),
        "{err}"
    );
    assert!(err.to_string().contains("different problem"), "{err}");
}

/// The cached linear search stays bitwise-equivalent to binary search per
/// material: switching must not change a single bit of a multi-material
/// solve.
#[test]
fn lookup_strategies_agree_on_scenarios() {
    for scenario in SWEEP_SCENARIOS {
        let run_with = |strategy: LookupStrategy| {
            let mut problem = scenario.build(ProblemScale::tiny(), 61);
            problem.transport.xs_search = strategy;
            Simulation::new(problem).run(RunOptions::new(Scheme::OverParticles, 2))
        };
        let base = run_with(LookupStrategy::Hinted);
        let r = run_with(LookupStrategy::Binary);
        assert_eq!(
            r.counters.collisions, base.counters.collisions,
            "{scenario:?}"
        );
        assert_eq!(
            r.counters.material_switches, base.counters.material_switches,
            "{scenario:?}"
        );
        assert!(
            r.tally
                .iter()
                .zip(&base.tally)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{scenario:?}: binary search changed the physics bits"
        );
    }
}
