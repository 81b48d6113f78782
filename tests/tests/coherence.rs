//! Coherence-subsystem invariants (DESIGN.md §13): the [`SortPolicy`]
//! sort stage permutes *memory-access order only* — tally flush order
//! within a cell, lookup lane-block order — never particle identity, so
//! every policy must compute bitwise identical physics.
//!
//! The suite locks three things:
//!
//! * **policy invariance** — for the batched driver (Over-Events) at
//!   worker counts {1, 2, 7}: merged tallies bitwise identical and
//!   counters identical (modulo `cs_search_steps`, the search-work meter
//!   the sort stage exists to reduce) across every policy;
//! * **golden locks** — every committed golden fixture reproduces
//!   byte-identically under every non-default policy;
//! * **lookup interplay** — the run-detection fast path of the grid
//!   backends stays bitwise under banded, sorted lane blocks.

use neutral_core::prelude::*;
use neutral_integration::golden::{blessing, fixture_dir, GoldenTally};
use neutral_integration::{
    physics_counters, tiny_scenario_with_tally, tiny_with_tally, DriverKind,
};

fn run_with(
    case: TestCase,
    seed: u64,
    driver: DriverKind,
    workers: usize,
    policy: SortPolicy,
    lookup: LookupStrategy,
) -> RunReport {
    let sim = tiny_with_tally(case, seed, TallyStrategy::Replicated);
    let mut problem = sim.problem().clone();
    problem.transport.sort_policy = policy;
    problem.transport.xs_search = lookup;
    Simulation::new(problem).run(driver.options(workers))
}

#[test]
fn sort_policies_are_bitwise_identical_on_batched_drivers() {
    let seed = 29;
    for case in [TestCase::Csp, TestCase::Scatter] {
        for driver in [DriverKind::OverEvents] {
            for lookup in [LookupStrategy::Hinted, LookupStrategy::Unionized] {
                let base = run_with(case, seed, driver, 1, SortPolicy::Off, lookup);
                for workers in [1usize, 2, 7] {
                    for policy in SortPolicy::ALL {
                        let r = run_with(case, seed, driver, workers, policy, lookup);
                        let what = format!(
                            "{}/{}/{}/{}w",
                            case.name(),
                            driver.name(),
                            policy.name(),
                            workers
                        );
                        assert_eq!(
                            physics_counters(r.counters),
                            physics_counters(base.counters),
                            "{what}: physics counters diverge from SortPolicy::Off"
                        );
                        assert!(
                            r.tally
                                .iter()
                                .zip(&base.tally)
                                .all(|(a, b)| a.to_bits() == b.to_bits()),
                            "{what}: merged tally bits diverge from SortPolicy::Off"
                        );
                    }
                }
            }
        }
    }
}

/// The history and Over-Particles drivers have no batched stage, so the
/// policy must be a strict no-op for them — bitwise including the work
/// meter.
#[test]
fn sort_policies_are_noops_for_unbatched_drivers() {
    for driver in [DriverKind::History, DriverKind::OverParticles] {
        let base = run_with(
            TestCase::Csp,
            31,
            driver,
            2,
            SortPolicy::Off,
            LookupStrategy::Hinted,
        );
        for policy in [SortPolicy::ByCell, SortPolicy::ByEnergyBand] {
            let r = run_with(TestCase::Csp, 31, driver, 2, policy, LookupStrategy::Hinted);
            assert_eq!(
                r.counters,
                base.counters,
                "{}/{}",
                driver.name(),
                policy.name()
            );
            assert!(
                r.tally
                    .iter()
                    .zip(&base.tally)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{}/{}",
                driver.name(),
                policy.name()
            );
        }
    }
}

/// Every committed golden fixture — the paper's three configs and the
/// five catalogue scenarios, across all three driver families —
/// reproduces byte-identically under every non-default sort policy.
#[test]
fn golden_fixtures_hold_under_every_sort_policy() {
    if blessing() {
        return; // fixtures are blessed by the golden_tallies suite
    }
    const CONFIGS: [(TestCase, u64); 3] = [
        (TestCase::Csp, 3),
        (TestCase::Scatter, 7),
        (TestCase::Stream, 11),
    ];
    const SCENARIO_CONFIGS: [(Scenario, u64); 5] = [
        (Scenario::ShieldedSlab, 13),
        (Scenario::StreamingDuct, 17),
        (Scenario::GradedModerator, 19),
        (Scenario::FuelLattice, 23),
        (Scenario::CoreEscape, 29),
    ];
    for policy in [SortPolicy::ByCell, SortPolicy::ByEnergyBand] {
        for driver in DriverKind::ALL {
            for (case, seed) in CONFIGS {
                let sim = tiny_with_tally(case, seed, TallyStrategy::Replicated);
                let mut problem = sim.problem().clone();
                problem.transport.sort_policy = policy;
                let report = Simulation::new(problem).run(driver.options(2));
                let captured = GoldenTally::capture(case.name(), driver.name(), seed, &report);
                let path = fixture_dir().join(format!("{}_{}.json", case.name(), driver.name()));
                let expected =
                    GoldenTally::from_json(&std::fs::read_to_string(&path).expect("fixture"))
                        .expect("parse fixture");
                assert_eq!(
                    captured.fields,
                    expected.fields,
                    "{}/{}/{}: diverges from golden fixture",
                    case.name(),
                    driver.name(),
                    policy.name()
                );
            }
            for (scenario, seed) in SCENARIO_CONFIGS {
                let sim = tiny_scenario_with_tally(scenario, seed, TallyStrategy::Replicated);
                let mut problem = sim.problem().clone();
                problem.transport.sort_policy = policy;
                let report = Simulation::new(problem).run(driver.options(2));
                let captured = GoldenTally::capture(scenario.name(), driver.name(), seed, &report);
                let path =
                    fixture_dir().join(format!("{}_{}.json", scenario.name(), driver.name()));
                let expected =
                    GoldenTally::from_json(&std::fs::read_to_string(&path).expect("fixture"))
                        .expect("parse fixture");
                assert_eq!(
                    captured.fields,
                    expected.fields,
                    "{}/{}/{}: diverges from golden fixture",
                    scenario.name(),
                    driver.name(),
                    policy.name()
                );
            }
        }
    }
}

/// The `sort_policy auto` heuristic: when a window's deposits genuinely
/// share tally cells (a dense collision core on a coarse mesh), the
/// deposits-per-distinct-cell measurement must *sustain* the clustered
/// flush — well beyond the periodic probe floor — and the decisions,
/// recorded in the `clustered_flushes` meter, must be identical for any
/// worker count. On the streaming problem (no deposits at all in the
/// near-vacuum) the heuristic must hold fire entirely.
#[test]
fn auto_sort_policy_decides_per_window_and_stays_bitwise() {
    let seed = 29;
    // Scatter physics on a coarse mesh: each window's ~150 deposits land
    // in a handful of cells every round, so clustering genuinely pays.
    let dense_run = |workers: usize, sort: SortPolicy| {
        let mut problem = TestCase::Scatter.build(ProblemScale::tiny(), seed);
        problem.mesh = neutral_mesh::StructuredMesh2D::uniform(16, 16, 1.0, 1.0, 1.0e3);
        problem.transport.tally_strategy = TallyStrategy::Replicated;
        problem.transport.sort_policy = sort;
        Simulation::new(problem).run(DriverKind::OverEvents.options(workers))
    };
    let auto = dense_run(2, SortPolicy::Auto);
    let off = dense_run(2, SortPolicy::Off);
    let rounds = auto.kernel_timings.expect("OE reports timings").rounds;
    assert!(
        auto.counters.clustered_flushes > 2 * rounds,
        "auto must sustain clustering on the dense core (got {} over {rounds} rounds \
         — the probe floor alone is ~1 per round)",
        auto.counters.clustered_flushes
    );
    // ...while computing bitwise the same physics as Off.
    assert_eq!(
        physics_counters(auto.counters),
        physics_counters(off.counters)
    );
    assert!(auto
        .tally
        .iter()
        .zip(&off.tally)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    // Decisions are per-window state, so the meter is worker-count
    // invariant like everything else.
    for workers in [1usize, 7] {
        let r = dense_run(workers, SortPolicy::Auto);
        assert_eq!(
            r.counters.clustered_flushes, auto.counters.clustered_flushes,
            "{workers} workers: auto decisions must not depend on workers"
        );
    }
    // The streaming problem's deposits never share cells (every history
    // is off in its own corner of the vacuum), so the measurement must
    // keep rejecting clustering: only the periodic probes fire, bounded
    // by the probe cadence (≈ windows × rounds / interval ≈ rounds).
    let sparse = run_with(
        TestCase::Stream,
        seed,
        DriverKind::OverEvents,
        2,
        SortPolicy::Auto,
        LookupStrategy::Hinted,
    );
    let sparse_rounds = sparse.kernel_timings.expect("OE reports timings").rounds;
    assert!(
        sparse.counters.clustered_flushes <= sparse_rounds,
        "auto must hold fire on the streaming problem beyond the probe floor \
         (got {} clustered over {sparse_rounds} rounds)",
        sparse.counters.clustered_flushes
    );
}

/// Banded lane blocks through the grid backends: the run-detection fast
/// path must not change a single bit of the census tally, while honestly
/// reporting no more search work than the unsorted block.
#[test]
fn run_detection_reduces_search_work_without_moving_bits() {
    let seed = 37;
    for lookup in [LookupStrategy::Unionized, LookupStrategy::Hashed] {
        let off = run_with(
            TestCase::Scatter,
            seed,
            DriverKind::OverEvents,
            2,
            SortPolicy::Off,
            lookup,
        );
        let banded = run_with(
            TestCase::Scatter,
            seed,
            DriverKind::OverEvents,
            2,
            SortPolicy::ByEnergyBand,
            lookup,
        );
        assert!(
            banded
                .tally
                .iter()
                .zip(&off.tally)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{lookup:?}: banded lanes moved tally bits"
        );
        assert_eq!(
            physics_counters(banded.counters),
            physics_counters(off.counters),
            "{lookup:?}"
        );
        assert!(
            banded.counters.cs_search_steps <= off.counters.cs_search_steps,
            "{lookup:?}: banding must never add search work ({} vs {})",
            banded.counters.cs_search_steps,
            off.counters.cs_search_steps
        );
    }
}
