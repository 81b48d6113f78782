//! The generative differential-testing suite (DESIGN.md §17).
//!
//! Three layers:
//!
//! 1. **Generator contracts** — same seed/index reproduce the same case
//!    byte for byte; the params serialization round-trips losslessly.
//! 2. **Live battery** — a handful of freshly generated cases pass all
//!    six oracles, and the committed corpus under `tests/corpus/`
//!    (fuzz-found, shrunk, frozen forever) replays green.
//! 3. **Broken-oracle tests** — every oracle is fed a seeded mutation
//!    it *must* catch. A comparator that silently passes corrupted
//!    physics would make the whole fuzzer green-wash; these tests are
//!    the oracle's own oracles.

use neutral_core::checkpoint::Checkpoint;
use neutral_core::fuzz::{
    check_conservation, check_energy_bits, check_energy_close, check_reports_bitwise,
    check_same_physics, check_served_matches, check_tally_bitwise, check_tally_reassoc, generate,
    generate_with, run_case, shrink, FuzzCase, FuzzProfile, Oracle,
};
use neutral_core::prelude::*;
use neutral_integration::DriverKind;
use std::path::PathBuf;

/// Fixed fuzz seed of this suite (distinct from CI's smoke seed so the
/// two jobs cover different case families).
const SEED: u64 = 424_242;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// A quick-profile generated case with a real multi-timestep solve,
/// used as the live fixture of the mutation tests.
fn live_case() -> FuzzCase {
    let mut case = generate_with(SEED, 0, FuzzProfile::quick());
    case.params.timesteps = 3;
    case.params.particles = 80;
    case
}

// -------------------------------------------------------------------
// Layer 1: generator contracts.
// -------------------------------------------------------------------

#[test]
fn generator_determinism_across_profiles() {
    for index in 0..6 {
        let a = generate(SEED, index);
        let b = generate(SEED, index);
        assert_eq!(a.to_params_text(), b.to_params_text());
        let qa = generate_with(SEED, index, FuzzProfile::quick());
        let qb = generate_with(SEED, index, FuzzProfile::quick());
        assert_eq!(qa.to_params_text(), qb.to_params_text());
        assert!(qa.params.nx <= 32 && qa.params.particles <= 140);
    }
}

#[test]
fn params_serialization_is_a_fixpoint() {
    for index in 0..6 {
        let case = generate(SEED, index);
        let text = case.to_params_text();
        let back = FuzzCase::from_params_text(&case.label, &text).expect("round-trip parse");
        assert_eq!(back.to_params_text(), text, "case {index}");
        assert_eq!(back.driver, case.driver, "case {index}");
        assert_eq!(
            config_fingerprint(&back.params.build(), back.driver.options(1).scheme),
            config_fingerprint(&case.params.build(), case.driver.options(1).scheme),
            "case {index}: fingerprint drifted through text"
        );
    }
}

// -------------------------------------------------------------------
// Layer 2: live battery + corpus replay.
// -------------------------------------------------------------------

#[test]
fn generated_cases_pass_all_oracles() {
    for index in 0..4 {
        let case = generate_with(SEED, index, FuzzProfile::quick());
        let outcome = run_case(&case);
        assert!(
            outcome.passed(),
            "{label} failed: {failures:?}",
            label = case.label,
            failures = outcome.failures
        );
        assert!(outcome.events > 0, "{} ran no transport", case.label);
    }
}

#[test]
fn corpus_replays_green() {
    let dir = corpus_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "params"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 5,
        "regression corpus must hold at least 5 cases, found {}",
        files.len()
    );
    for file in &files {
        let label = file.file_stem().unwrap().to_str().unwrap();
        let text = std::fs::read_to_string(file).unwrap();
        let case =
            FuzzCase::from_params_text(label, &text).unwrap_or_else(|e| panic!("{label}: {e}"));
        let outcome = run_case(&case);
        assert!(
            outcome.passed(),
            "corpus case {label} regressed: {:?}",
            outcome.failures
        );
    }
}

// -------------------------------------------------------------------
// Layer 3: broken-oracle tests — each oracle catches a seeded mutation.
// -------------------------------------------------------------------

#[test]
fn conservation_oracle_catches_population_and_tally_corruption() {
    let case = live_case();
    let problem = case.params.build();
    let sim = Simulation::new(case.params.build());
    let good = sim.run(case.driver.options(2));
    check_conservation(&problem, &good).expect("sane run must pass");

    // Mutation 1: one history ends twice (a driver double-counting
    // deaths, or losing a particle without accounting).
    let mut leak = good.clone();
    leak.counters.deaths += 1;
    let err = check_conservation(&problem, &leak).expect_err("population leak must be caught");
    assert!(err.contains("population leak"), "{err}");

    // Mutation 2: a negative deposit (impossible for a track-length
    // estimator; the signature of a merge/flush bug).
    let mut negative = good.clone();
    negative.tally[0] = -1.0;
    let err = check_conservation(&problem, &negative).expect_err("negative cell must be caught");
    assert!(err.contains("finite/non-negative"), "{err}");

    // Mutation 3: tampered cutoff-residual accounting — the balance
    // defect blows past any sampling tolerance.
    let mut lost = good.clone();
    lost.counters.lost_energy_ev += 10.0 * lost.initial_energy_ev;
    assert!(check_conservation(&problem, &lost).is_err());
}

#[test]
fn cross_driver_oracle_catches_single_bit_and_counter_divergence() {
    let case = live_case();
    let sim = Simulation::new(case.params.build());
    let a = sim.run(DriverKind::History.options(1));
    let mut b = a.clone();
    check_same_physics("self", &a, &b).expect("identical runs must pass");
    check_tally_bitwise("self", &a, &b).expect("identical runs must pass");
    check_energy_bits("self", &a, &b).expect("identical runs must pass");

    // One flipped mantissa bit in one tally cell.
    let hot = b
        .tally
        .iter()
        .position(|v| *v > 0.0)
        .expect("non-empty tally");
    b.tally[hot] = f64::from_bits(b.tally[hot].to_bits() ^ 1);
    assert!(check_tally_bitwise("bitflip", &a, &b).is_err());
    // ...and the reassociation-tolerant comparison still catches a
    // perturbation above summation noise.
    let mut coarse = a.clone();
    coarse.tally[hot] *= 1.0 + 1.0e-3;
    assert!(check_tally_reassoc("perturbed", &a, &coarse).is_err());
    assert!(check_tally_reassoc("bitflip-ok", &a, &b).is_ok());

    // A counter off by one event.
    let mut miscounted = a.clone();
    miscounted.counters.collisions += 1;
    assert!(check_same_physics("offbyone", &a, &miscounted).is_err());

    // Energy sums: a single-ulp drift trips the bitwise family check
    // while staying inside the Over Events tolerance; a real term-sized
    // drift trips both.
    let mut ulp = a.clone();
    ulp.counters.lost_energy_ev = f64::from_bits(ulp.counters.lost_energy_ev.to_bits() ^ 1);
    assert!(check_energy_bits("ulp", &a, &ulp).is_err());
    assert!(check_energy_close("ulp", &a, &ulp).is_ok());
    // (absolute nudge: the cutoff residual can legitimately be 0.0, in
    // which case a relative perturbation would be a no-op)
    let mut dropped_term = a.clone();
    dropped_term.counters.lost_energy_ev += 1.0;
    assert!(check_energy_close("dropped-term", &a, &dropped_term).is_err());
}

#[test]
fn worker_invariance_oracle_catches_schedule_dependent_results() {
    let case = live_case();
    let sim = Simulation::new(case.params.build());
    let w2 = sim.run(DriverKind::OverParticles.options(2));
    let w7 = sim.run(DriverKind::OverParticles.options(7));
    check_same_physics("2v7", &w2, &w7).expect("worker invariance must hold");
    check_energy_bits("2v7", &w2, &w7).expect("worker invariance must hold");
    check_tally_bitwise("2v7", &w2, &w7).expect("worker invariance must hold");

    // A worker-count-dependent tally (what the Atomic backend would
    // produce) must be caught by the bitwise comparison.
    let mut skewed = w7.clone();
    let hot = skewed
        .tally
        .iter()
        .position(|v| *v > 0.0)
        .expect("non-empty tally");
    skewed.tally[hot] = f64::from_bits(skewed.tally[hot].to_bits() ^ 1);
    assert!(check_tally_bitwise("skewed", &w2, &skewed).is_err());
}

#[test]
fn checkpoint_oracle_catches_state_tampering_through_the_byte_format() {
    let case = live_case();
    let sim = Simulation::new(case.params.build());
    let options = case.driver.options(2);
    let direct = sim.run(options);

    // Honest round-trip through the real byte format: bitwise identical.
    let run_from = |ckpt: &Checkpoint| {
        let mut core = SolveCore::resume(&sim, options, ckpt).expect("resume");
        while core.step(&sim) {}
        core.finish()
    };
    let mut cut = SolveCore::new(&sim, options);
    cut.step(&sim);
    let bytes = cut.checkpoint().to_bytes();
    let honest = Checkpoint::from_bytes(&bytes).expect("parse own bytes");
    check_reports_bitwise("honest resume", &direct, &run_from(&honest))
        .expect("uninterrupted and resumed runs must be bitwise identical");

    // Tampered mid-flight state: nudge every surviving particle's
    // energy. Resume validation (fingerprint, counts, key permutation)
    // still passes — only the *physics* downstream can expose it, and
    // the bitwise report comparison must.
    let mut tampered = Checkpoint::from_bytes(&bytes).expect("parse own bytes");
    for p in &mut tampered.particles {
        p.energy *= 1.5;
    }
    let report = run_from(&tampered);
    assert!(
        check_reports_bitwise("tampered resume", &direct, &report).is_err(),
        "energy-tampered checkpoint produced a bitwise-identical run"
    );
}

#[test]
fn serve_oracle_catches_result_substitution() {
    let case = live_case();
    let sim = Simulation::new(case.params.build());
    let direct = sim.run(case.driver.options(2));
    check_served_matches(case.params.nx, &direct, &direct.clone())
        .expect("a faithful served copy must pass");

    // A served result whose dump differs by one formatted byte (here:
    // one bit in one cell) must be rejected.
    let mut served = direct.clone();
    let hot = served
        .tally
        .iter()
        .position(|v| *v > 0.0)
        .expect("non-empty tally");
    served.tally[hot] = f64::from_bits(served.tally[hot].to_bits() ^ 1);
    assert!(check_served_matches(case.params.nx, &direct, &served).is_err());

    // A cache answering with the wrong entry entirely (different seed,
    // same shape) must also be rejected.
    let mut other_params = case.params.clone();
    other_params.seed ^= 0xdead_beef;
    let other = Simulation::new(other_params.build()).run(case.driver.options(2));
    assert!(check_served_matches(case.params.nx, &direct, &other).is_err());
}

// -------------------------------------------------------------------
// Shrinker: a fuzz-found failure minimizes to a replayable file.
// -------------------------------------------------------------------

#[test]
fn shrinker_emits_minimal_replayable_case() {
    let mut case = generate_with(SEED, 1, FuzzProfile::quick());
    case.params.particles = 120;
    case.params.timesteps = 2;
    // Stand-in failure predicate (a real one would be `!run_case(c)
    // .passed()`): fails whenever the mesh is tall and multi-timestep.
    let fails = |c: &FuzzCase| c.params.ny >= 8 && c.params.timesteps >= 2;
    assert!(fails(&case), "fixture must start out failing");
    let minimal = shrink(&case, fails);
    // Constrained axes stop exactly at the predicate boundary...
    assert_eq!(minimal.params.timesteps, 2);
    assert!(minimal.params.ny >= 8);
    // ...free axes hit their floors...
    assert_eq!(minimal.params.particles, 16);
    assert_eq!(minimal.params.nx, 8);
    assert_eq!(minimal.driver, DriverKind::History);
    // ...and the minimized case replays from its own params text.
    let text = minimal.to_params_text();
    let back = FuzzCase::from_params_text("repro", &text).expect("replayable");
    assert!(fails(&back), "replayed repro must still fail");
    assert_eq!(
        config_fingerprint(&back.params.build(), back.driver.options(1).scheme),
        config_fingerprint(&minimal.params.build(), minimal.driver.options(1).scheme)
    );
}

/// The six oracle names are stable (corpus tooling and CI grep on
/// them) and every oracle is reachable from a generated case.
#[test]
fn oracle_battery_is_complete() {
    let names: Vec<&str> = Oracle::ALL.iter().map(|o| o.name()).collect();
    assert_eq!(
        names,
        [
            "conservation",
            "cross_driver",
            "worker_invariance",
            "checkpoint_roundtrip",
            "serve_direct",
            "shard_invariance"
        ]
    );
    // A multi-timestep case skips nothing.
    let case = live_case();
    let outcome = run_case(&case);
    assert!(outcome.passed(), "{:?}", outcome.failures);
    assert!(
        outcome.skipped.is_empty(),
        "multi-timestep case skipped {:?}",
        outcome.skipped
    );
    // A single-timestep case skips exactly the checkpoint round-trip
    // (no interior census boundary to cut at).
    let mut single = generate_with(SEED, 2, FuzzProfile::quick());
    single.params.timesteps = 1;
    let outcome = run_case(&single);
    assert!(outcome.passed(), "{:?}", outcome.failures);
    assert_eq!(outcome.skipped, vec![Oracle::CheckpointRoundTrip]);
}
