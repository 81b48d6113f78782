//! Golden-tally regression suite: three canonical configs × three drivers,
//! each locked against a committed JSON snapshot under `tests/golden/`.
//!
//! The snapshots are produced by the **replicated** tally strategy, whose
//! deterministic lane merge makes the merged mesh bitwise identical for
//! any worker count (so these fixtures are stable on any CI machine). The
//! suite additionally checks, against the same fixture, that the
//! **atomic** strategy reproduces the physics (identical integer
//! counters, totals within floating-point reassociation error).
//!
//! Regenerate after an intentional physics change with
//! `NEUTRAL_BLESS=1 cargo test -p neutral-integration --test golden_tallies`.

use neutral_core::prelude::*;
use neutral_integration::golden::{
    assert_dump_matches_reference, blessing, fixture_dir, GoldenTally,
};
use neutral_integration::{
    tiny_multistep, tiny_scenario_with_tally, tiny_with_tally, DriverKind, MULTISTEP_CONFIGS,
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

/// Workers used when capturing/checking fixtures. Any worker count
/// yields the same bits; 2 exercises real concurrency.
const GOLDEN_WORKERS: usize = 2;

fn fixture_path(name: &str, driver: DriverKind) -> std::path::PathBuf {
    fixture_dir().join(format!("{}_{}.json", name, driver.name()))
}

fn run(case: TestCase, seed: u64, driver: DriverKind, strategy: TallyStrategy) -> RunReport {
    tiny_with_tally(case, seed, strategy).run(driver.options(GOLDEN_WORKERS))
}

#[test]
fn golden_tallies_match_fixtures() {
    let mut blessed = 0;
    for (case, seed) in CONFIGS {
        for driver in DriverKind::ALL {
            let report = run(case, seed, driver, TallyStrategy::Replicated);
            let captured = GoldenTally::capture(case.name(), driver.name(), seed, &report);
            assert_dump_matches_reference(case.name(), &report);
            let path = fixture_path(case.name(), driver);

            if blessing() {
                std::fs::create_dir_all(fixture_dir()).expect("create tests/golden");
                std::fs::write(&path, captured.to_json()).expect("write fixture");
                blessed += 1;
                continue;
            }

            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing golden fixture {path:?} ({e}); run with NEUTRAL_BLESS=1 to generate"
                )
            });
            let expected = GoldenTally::from_json(&text).expect("parse fixture");
            assert_eq!(
                captured.fields,
                expected.fields,
                "{}/{}: run diverges from golden fixture {path:?} \
                 (if the physics change is intentional, re-bless)",
                case.name(),
                driver.name()
            );
        }
    }
    if blessed > 0 {
        println!("blessed {blessed} golden fixtures");
    }
}

/// Multi-timestep runs locked the same way: one fixture per config ×
/// driver, captured with the replicated strategy.
#[test]
fn multistep_golden_tallies_match_fixtures() {
    let mut blessed = 0;
    for (case, steps, seed) in MULTISTEP_CONFIGS {
        for driver in DriverKind::ALL {
            let report = tiny_multistep(case, steps, seed, TallyStrategy::Replicated)
                .run(driver.options(GOLDEN_WORKERS));
            assert_eq!(report.timesteps, steps);
            let name = format!("{}_t{}", case.name(), steps);
            let captured = GoldenTally::capture(&name, driver.name(), seed, &report);
            assert_dump_matches_reference(&name, &report);
            let path = fixture_dir().join(format!("{}_{}.json", name, driver.name()));

            if blessing() {
                std::fs::create_dir_all(fixture_dir()).expect("create tests/golden");
                std::fs::write(&path, captured.to_json()).expect("write fixture");
                blessed += 1;
                continue;
            }

            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing golden fixture {path:?} ({e}); run with NEUTRAL_BLESS=1 to generate"
                )
            });
            let expected = GoldenTally::from_json(&text).expect("parse fixture");
            assert_eq!(
                captured.fields,
                expected.fields,
                "{}/{}: run diverges from golden fixture {path:?} \
                 (if the physics change is intentional, re-bless)",
                name,
                driver.name()
            );
        }
    }
    if blessed > 0 {
        println!("blessed {blessed} multistep fixtures");
    }
}

/// The multi-material scenario catalogue, locked the same way: one
/// fixture per scenario × driver, captured with the replicated strategy.
#[test]
fn scenario_golden_tallies_match_fixtures() {
    let mut blessed = 0;
    for (scenario, seed) in SCENARIO_CONFIGS {
        for driver in DriverKind::ALL {
            let report = tiny_scenario_with_tally(scenario, seed, TallyStrategy::Replicated)
                .run(driver.options(GOLDEN_WORKERS));
            assert!(
                report.counters.material_switches > 0 || !scenario.is_multi_material(),
                "{}/{}: a multi-material fixture must cross interfaces",
                scenario.name(),
                driver.name()
            );
            let captured = GoldenTally::capture(scenario.name(), driver.name(), seed, &report);
            assert_dump_matches_reference(scenario.name(), &report);
            let path = fixture_path(scenario.name(), driver);

            if blessing() {
                std::fs::create_dir_all(fixture_dir()).expect("create tests/golden");
                std::fs::write(&path, captured.to_json()).expect("write fixture");
                blessed += 1;
                continue;
            }

            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing golden fixture {path:?} ({e}); run with NEUTRAL_BLESS=1 to generate"
                )
            });
            let expected = GoldenTally::from_json(&text).expect("parse fixture");
            assert_eq!(
                captured.fields,
                expected.fields,
                "{}/{}: run diverges from golden fixture {path:?} \
                 (if the physics change is intentional, re-bless)",
                scenario.name(),
                driver.name()
            );
        }
    }
    if blessed > 0 {
        println!("blessed {blessed} scenario fixtures");
    }
}

/// The atomic backend computes the same physics as the fixtures: integer
/// counters exactly, deposited energy to reassociation error.
#[test]
fn atomic_matches_golden_physics() {
    if blessing() {
        return;
    }
    for (case, seed) in CONFIGS {
        for driver in DriverKind::ALL {
            let report = run(case, seed, driver, TallyStrategy::Atomic);
            let text = std::fs::read_to_string(fixture_path(case.name(), driver)).expect("fixture");
            let expected = GoldenTally::from_json(&text).unwrap();
            for key in ["collisions", "facets", "census", "deaths", "stuck", "alive"] {
                let got = match key {
                    "collisions" => report.counters.collisions,
                    "facets" => report.counters.facets,
                    "census" => report.counters.census,
                    "deaths" => report.counters.deaths,
                    "stuck" => report.counters.stuck,
                    _ => report.alive as u64,
                };
                assert_eq!(
                    Some(got.to_string().as_str()),
                    expected.get(key),
                    "{}/{}: {key}",
                    case.name(),
                    driver.name()
                );
            }
            let golden_total = f64::from_bits(expected.get_bits("tally_total_bits").unwrap());
            let total = report.tally_total();
            assert!(
                (total - golden_total).abs() <= 1e-9 * golden_total.abs().max(1e-30),
                "{}/{}: atomic total {total} vs golden {golden_total}",
                case.name(),
                driver.name()
            );
        }
    }
}
