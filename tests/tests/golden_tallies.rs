//! Golden-tally regression suite: canonical configs × both schemes, each
//! locked against a committed JSON snapshot under `tests/golden/` and
//! checked at one and two workers.
//!
//! The snapshots are produced by the solve path's one tally, whose
//! deterministic lane merge makes the merged mesh bitwise identical for
//! any worker count (so these fixtures are stable on any CI machine). The
//! suite additionally checks, against the Over-Particles fixtures, that
//! the paper's **atomic** baseline reproduces the physics (identical
//! integer counters, totals within floating-point reassociation error).
//!
//! Regenerate after an intentional physics change with
//! `NEUTRAL_BLESS=1 cargo test -p neutral-integration --test golden_tallies`.

use neutral_core::prelude::*;
use neutral_integration::golden::{blessing, fixture_path, lock_fixture, GoldenTally};
use neutral_integration::{
    atomic_baseline, tiny, tiny_multistep, tiny_scenario, MULTISTEP_CONFIGS,
};

/// The three canonical configs: one per test case, seeds fixed forever.
const CONFIGS: [(TestCase, u64); 3] = [
    (TestCase::Csp, 3),
    (TestCase::Scatter, 7),
    (TestCase::Stream, 11),
];

/// The catalogue scenario configs, seeds fixed forever. The paper's
/// three cases are already covered by [`CONFIGS`] (identical problems).
/// `core_escape` is single-material — the coherence stress shape — so
/// the material-switch assertion below skips it.
const SCENARIO_CONFIGS: [(Scenario, u64); 5] = [
    (Scenario::ShieldedSlab, 13),
    (Scenario::StreamingDuct, 17),
    (Scenario::GradedModerator, 19),
    (Scenario::FuelLattice, 23),
    (Scenario::CoreEscape, 29),
];

#[test]
fn golden_tallies_match_fixtures() {
    for (case, seed) in CONFIGS {
        for scheme in Scheme::ALL {
            lock_fixture(case.name(), scheme, seed, |workers| {
                tiny(case, seed).run(RunOptions::new(scheme, workers))
            });
        }
    }
}

/// Multi-timestep runs locked the same way: one fixture per config ×
/// scheme.
#[test]
fn multistep_golden_tallies_match_fixtures() {
    for (case, steps, seed) in MULTISTEP_CONFIGS {
        for scheme in Scheme::ALL {
            let name = format!("{}_t{}", case.name(), steps);
            lock_fixture(&name, scheme, seed, |workers| {
                let report =
                    tiny_multistep(case, steps, seed).run(RunOptions::new(scheme, workers));
                assert_eq!(report.timesteps, steps);
                report
            });
        }
    }
}

/// The multi-material scenario catalogue, locked the same way: one
/// fixture per scenario × scheme.
#[test]
fn scenario_golden_tallies_match_fixtures() {
    for (scenario, seed) in SCENARIO_CONFIGS {
        for scheme in Scheme::ALL {
            lock_fixture(scenario.name(), scheme, seed, |workers| {
                let report = tiny_scenario(scenario, seed).run(RunOptions::new(scheme, workers));
                assert!(
                    report.counters.material_switches > 0 || !scenario.is_multi_material(),
                    "{}/{}: a multi-material fixture must cross interfaces",
                    scenario.name(),
                    scheme.name()
                );
                report
            });
        }
    }
}

/// The paper's atomic baseline (records into one shared CAS mesh, two
/// threads) computes the physics of the Over-Particles fixtures: integer
/// counters exactly, deposited energy to reassociation error.
#[test]
fn atomic_matches_golden_physics() {
    if blessing() {
        return;
    }
    for (case, seed) in CONFIGS {
        let problem = case.build(ProblemScale::tiny(), seed);
        assert_eq!(problem.n_timesteps, 1, "{}", case.name());
        let (counters, particles, mesh) = atomic_baseline(&problem, 2);
        let fixture = fixture_path(case.name(), Scheme::OverParticles);
        let expected = GoldenTally::from_json(&std::fs::read_to_string(fixture).unwrap()).unwrap();
        for key in ["collisions", "facets", "census", "deaths", "stuck", "alive"] {
            let got = match key {
                "collisions" => counters.collisions,
                "facets" => counters.facets,
                "census" => counters.census,
                "deaths" => counters.deaths,
                "stuck" => counters.stuck,
                _ => particles.iter().filter(|p| !p.dead).count() as u64,
            };
            let what = format!("{}: {key}", case.name());
            assert_eq!(Some(got.to_string().as_str()), expected.get(key), "{what}");
        }
        let golden_total = f64::from_bits(expected.get_bits("tally_total_bits").unwrap());
        let total: f64 = mesh.iter().sum();
        assert!(
            (total - golden_total).abs() <= 1e-9 * golden_total.abs().max(1e-30),
            "{}: atomic total {total} vs golden {golden_total}",
            case.name()
        );
    }
}
