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
use neutral_core::params::ProblemParams;
use neutral_core::prelude::*;
use neutral_mesh::{MaterialId, Rect};
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
        assert_eq!(back.scheme, case.scheme, "case {index}");
        assert_eq!(
            config_fingerprint(&back.params.build(), back.scheme),
            config_fingerprint(&case.params.build(), case.scheme),
            "case {index}: fingerprint drifted through text"
        );
    }
}

/// The `history` driver was Over Particles on one worker; a corpus file
/// still naming it fails with the name to write instead.
#[test]
fn removed_history_driver_names_over_particles() {
    let case = generate(SEED, 0);
    let directive = format!("# driver {}", case.scheme.name());
    let text = case
        .to_params_text()
        .replace(&directive, "# driver history");
    let err = FuzzCase::from_params_text("old", &text).expect_err("history must be refused");
    assert!(err.contains("`history` was removed"), "{err}");
    assert!(err.contains("# driver over_particles"), "{err}");
}

/// The content address separates every field a generated case varies:
/// changing any one of them — a cell of the built mesh, a region, a
/// material's kind, table size or table seed (a synthesized table is
/// addressed by that spec), a count, a transport knob or the scheme — changes
/// `config_fingerprint`. A region edge that moves no cell centre changes
/// no input, so it counts only where it moves one.
#[test]
fn fingerprint_changes_with_every_generated_field() {
    let mut region_edges = 0;
    let mut cell_materials = 0;
    for index in 0..16 {
        let case = generate(SEED, index);
        let problem = case.params.build();
        let base = config_fingerprint(&problem, case.scheme);
        let assert_moves = |what: &str, problem: &Problem, scheme: Scheme| {
            assert_ne!(
                config_fingerprint(problem, scheme),
                base,
                "case {index}: changing {what} kept the address"
            );
        };
        let vary = |what: &str, change: &dyn Fn(&mut ProblemParams)| {
            let mut params = case.params.clone();
            change(&mut params);
            assert_moves(what, &params.build(), case.scheme);
        };

        let mut denser = problem.clone();
        denser.mesh.density_field_mut()[0] *= 2.0;
        assert_moves("one cell's density", &denser, case.scheme);
        if case.params.material_count() > 1 {
            let mut swapped = problem.clone();
            let id = swapped.mesh.material_map().ids()[0];
            let other = (usize::from(id) + 1) % case.params.material_count();
            swapped
                .mesh
                .material_map_mut()
                .set(0, 0, other as MaterialId);
            assert_moves("one cell's material", &swapped, case.scheme);
            cell_materials += 1;
        }
        if let Some(&(rect, _, _)) = case.params.regions.last() {
            let mut params = case.params.clone();
            let dx = params.width / params.nx as f64;
            let top = &mut params.regions.last_mut().unwrap().0;
            *top = if rect.x1 + dx <= params.width {
                Rect::new(rect.x0, rect.x1 + dx, rect.y0, rect.y1)
            } else {
                Rect::new(rect.x0 - dx, rect.x1, rect.y0, rect.y1)
            };
            let moved = params.build();
            if moved.mesh.density_field() != problem.mesh.density_field() {
                assert_moves("one region edge", &moved, case.scheme);
                region_edges += 1;
            }
        }
        vary("a material's kind", &|p| {
            let spec = &mut p.materials[0].1;
            let i = MaterialKind::ALL
                .iter()
                .position(|k| *k == spec.kind)
                .unwrap();
            spec.kind = MaterialKind::ALL[(i + 1) % MaterialKind::ALL.len()];
        });
        vary("a material's table seed", &|p| p.materials[0].1.seed ^= 1);
        vary("a material's table size", &|p| {
            p.materials[0].1.n_points += 1
        });
        vary("seed", &|p| p.seed ^= 1);
        vary("particles", &|p| p.particles += 1);
        vary("timesteps", &|p| p.timesteps += 1);
        vary("collision model", &|p| {
            p.collision_model = match p.collision_model {
                CollisionModel::Analogue => CollisionModel::ImplicitCapture,
                _ => CollisionModel::Analogue,
            };
        });
        vary("weight cutoff", &|p| p.weight_cutoff *= 2.0);
        let other = Scheme::ALL.into_iter().find(|s| *s != case.scheme).unwrap();
        assert_moves("scheme", &problem, other);
    }
    assert!(
        region_edges >= 8,
        "only {region_edges} region edges moved a cell"
    );
    assert!(
        cell_materials >= 8,
        "only {cell_materials} multi-material cases"
    );
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
    let good = sim.run(RunOptions::new(case.scheme, 2));
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
fn cross_scheme_oracle_catches_single_bit_and_counter_divergence() {
    let case = live_case();
    let sim = Simulation::new(case.params.build());
    let a = sim.run(RunOptions::new(Scheme::OverParticles, 1));
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

    // Energy sums: a single-ulp drift trips the bitwise (one-scheme)
    // check while staying inside the cross-scheme tolerance; a real
    // term-sized drift trips both.
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
    let w2 = sim.run(RunOptions::new(Scheme::OverParticles, 2));
    let w7 = sim.run(RunOptions::new(Scheme::OverParticles, 7));
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
    let options = RunOptions::new(case.scheme, 2);
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
    for energy in &mut tampered.particles.energy {
        *energy *= 1.5;
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
    let direct = sim.run(RunOptions::new(case.scheme, 2));
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
    let other = Simulation::new(other_params.build()).run(RunOptions::new(case.scheme, 2));
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
    assert_eq!(minimal.scheme, Scheme::OverParticles);
    // ...and the minimized case replays from its own params text.
    let text = minimal.to_params_text();
    let back = FuzzCase::from_params_text("repro", &text).expect("replayable");
    assert!(fails(&back), "replayed repro must still fail");
    assert_eq!(
        config_fingerprint(&back.params.build(), back.scheme),
        config_fingerprint(&minimal.params.build(), minimal.scheme)
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
            "cross_scheme",
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
