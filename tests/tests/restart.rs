//! Checkpoint/restart verification: interrupt-resume bitwise identity
//! across every driver × worker count, resumed runs
//! locked against golden fixtures, and the fault-injection matrix
//! (torn writes, bit flips, kills, config/version mismatches) proving
//! every failure is recovered or cleanly reported — never silently
//! absorbed.
//!
//! The identity claim under test (DESIGN.md §15): a solve checkpointed
//! at any census boundary — through the real serialized byte format —
//! and resumed yields tallies, counters and final particle records
//! byte-identical to the uninterrupted run.

use neutral_core::particle::Particle;
use neutral_core::prelude::*;
use neutral_integration::golden::{
    assert_dump_matches_reference, blessing, fixture_dir, tally_hash, GoldenTally,
};
use neutral_integration::{tiny_multistep, DriverKind, MULTISTEP_CONFIGS};
use std::path::PathBuf;

/// Workers exercised by the identity matrix (the acceptance set).
const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

/// Worker count used when checking resumed runs against the committed
/// golden fixtures (any count yields the same bits; 2 exercises real
/// concurrency, matching the golden suite).
const GOLDEN_WORKERS: usize = 2;

fn tally_bits(tally: &[f64]) -> Vec<u64> {
    tally.iter().map(|v| v.to_bits()).collect()
}

fn assert_reports_bitwise(a: &RunReport, b: &RunReport, label: &str) {
    assert_eq!(a.counters, b.counters, "{label}: counters diverge");
    assert_eq!(
        tally_bits(&a.tally),
        tally_bits(&b.tally),
        "{label}: tally bits diverge"
    );
    assert_eq!(a.alive, b.alive, "{label}: alive count diverges");
    assert_eq!(a.timesteps, b.timesteps, "{label}: timestep count diverges");
}

/// A scratch directory for store-backed tests; unique per test name so
/// the suite can run multi-threaded.
fn temp_store(tag: &str) -> (PathBuf, CheckpointStore) {
    let dir = std::env::temp_dir().join(format!("neutral_restart_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let store = CheckpointStore::new(dir.join("solve.ckpt"));
    let _ = std::fs::remove_file(store.path());
    let _ = std::fs::remove_file(store.fallback_path());
    (dir, store)
}

/// The acceptance matrix: for each multistep config × driver × workers
/// {1, 2, 7}, a solve checkpointed at *every* census boundary —
/// serialized to bytes and parsed back, exactly what the on-disk path
/// does — and resumed produces tallies, counters and final particle
/// records byte-identical to the uninterrupted run.
#[test]
fn interrupt_resume_is_bitwise_identical() {
    for (case, steps, seed) in MULTISTEP_CONFIGS {
        for driver in DriverKind::ALL {
            for workers in WORKER_COUNTS {
                if driver == DriverKind::History && workers != 1 {
                    continue; // History is the one-worker baseline.
                }
                let sim = tiny_multistep(case, steps, seed, TallyStrategy::Replicated);
                let options = driver.options(workers);

                let mut base = SolveCore::new(&sim, options);
                while base.step(&sim) {}
                let base_particles: Vec<Particle> = base.particles();
                let base_report = base.finish();

                for cut in 1..steps {
                    let label = format!("{case:?}/{}/{workers}w cut@{cut}", driver.name());
                    let mut first = SolveCore::new(&sim, options);
                    for _ in 0..cut {
                        assert!(first.step(&sim), "{label}: premature end");
                    }
                    // Through the real byte format, not just the
                    // in-memory snapshot.
                    let bytes = first.checkpoint().to_bytes();
                    let ckpt = Checkpoint::from_bytes(&bytes)
                        .unwrap_or_else(|e| panic!("{label}: reload failed: {e}"));
                    let mut resumed = SolveCore::resume(&sim, options, &ckpt)
                        .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
                    while resumed.step(&sim) {}
                    assert_eq!(
                        resumed.particles(),
                        base_particles,
                        "{label}: final particle records diverge"
                    );
                    let report = resumed.finish();
                    assert_reports_bitwise(&report, &base_report, &label);
                }
            }
        }
    }
}

/// Resumed runs land on the *committed* golden bits: a solve interrupted
/// at the first census boundary and resumed reproduces the existing
/// multistep fixtures (captured from uninterrupted runs) field for field.
#[test]
fn resumed_runs_match_committed_goldens() {
    if blessing() {
        return;
    }
    for (case, steps, seed) in MULTISTEP_CONFIGS {
        for driver in DriverKind::ALL {
            let sim = tiny_multistep(case, steps, seed, TallyStrategy::Replicated);
            let options = driver.options(GOLDEN_WORKERS);
            let mut first = SolveCore::new(&sim, options);
            first.step(&sim);
            let ckpt = Checkpoint::from_bytes(&first.checkpoint().to_bytes()).unwrap();
            let mut resumed = SolveCore::resume(&sim, options, &ckpt).unwrap();
            while resumed.step(&sim) {}
            let report = resumed.finish();

            let name = format!("{}_t{}", case.name(), steps);
            let captured = GoldenTally::capture(&name, driver.name(), seed, &report);
            assert_dump_matches_reference(&name, &report);
            let path = fixture_dir().join(format!("{}_{}.json", name, driver.name()));
            let text = std::fs::read_to_string(&path).expect("committed multistep fixture");
            let expected = GoldenTally::from_json(&text).unwrap();
            assert_eq!(
                captured.fields,
                expected.fields,
                "{}/{}: resumed run diverges from the committed golden fixture",
                name,
                driver.name()
            );
        }
    }
}

/// Golden fixtures for the full store-backed restart path: a solve
/// killed by an injected fault at the first census boundary, then
/// resumed from disk by a second `run_with_checkpoints` call. One
/// fixture per multistep config × driver; regenerate with
/// `NEUTRAL_BLESS=1 cargo test -p neutral-integration --test restart`.
#[test]
fn restarted_golden_tallies_match_fixtures() {
    let mut blessed = 0;
    for (case, steps, seed) in MULTISTEP_CONFIGS {
        for driver in DriverKind::ALL {
            let name = format!("restart_{}_t{}", case.name(), steps);
            let (dir, store) = temp_store(&format!("golden_{}_{}", case.name(), driver.name()));
            let sim = tiny_multistep(case, steps, seed, TallyStrategy::Replicated);
            let options = driver.options(GOLDEN_WORKERS);
            // Kill at the *last* boundary: the kill fires before that
            // boundary's write, so the store holds the previous
            // boundary's checkpoint and the second invocation performs a
            // genuine from-disk resume of the final timestep.
            let plan: FaultPlan = format!("kill@{steps}").parse().unwrap();
            match run_with_checkpoints(&sim, options, &store, &plan).unwrap() {
                SolveOutcome::Killed { after_step } => assert_eq!(after_step, steps),
                SolveOutcome::Complete { .. } => panic!("kill must interrupt the solve"),
            }
            let report =
                match run_with_checkpoints(&sim, options, &store, &FaultPlan::none()).unwrap() {
                    SolveOutcome::Complete {
                        report,
                        resumed_from,
                        ..
                    } => {
                        assert_eq!(resumed_from, Some(steps - 1), "must resume from disk");
                        report
                    }
                    SolveOutcome::Killed { .. } => unreachable!("no faults planned"),
                };
            let _ = std::fs::remove_dir_all(&dir);

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
            let expected = GoldenTally::from_json(&text).unwrap();
            assert_eq!(
                captured.fields,
                expected.fields,
                "{}/{}: restarted run diverges from golden fixture {path:?}",
                name,
                driver.name()
            );
        }
    }
    if blessed > 0 {
        println!("blessed {blessed} restart fixtures");
    }
}

/// Kill at every census boundary through the on-disk store: each rerun
/// resumes from the last written checkpoint and finishes bitwise
/// identical to the uninterrupted run — zero silent divergence.
#[test]
fn kill_at_every_boundary_recovers_on_disk() {
    for (case, steps, seed) in MULTISTEP_CONFIGS {
        let sim = tiny_multistep(case, steps, seed, TallyStrategy::Replicated);
        let options = DriverKind::OverEvents.options(2);
        let baseline = sim.run(options);

        for kill_at in 1..=steps {
            let label = format!("{case:?} kill@{kill_at}");
            let (dir, store) = temp_store(&format!("kill_{}_{kill_at}", case.name()));
            let plan: FaultPlan = format!("kill@{kill_at}").parse().unwrap();
            match run_with_checkpoints(&sim, options, &store, &plan).unwrap() {
                SolveOutcome::Killed { after_step } => assert_eq!(after_step, kill_at, "{label}"),
                SolveOutcome::Complete { .. } => panic!("{label}: fault did not fire"),
            }
            let outcome = run_with_checkpoints(&sim, options, &store, &FaultPlan::none()).unwrap();
            let (report, resumed_from) = match outcome {
                SolveOutcome::Complete {
                    report,
                    resumed_from,
                    ..
                } => (report, resumed_from),
                SolveOutcome::Killed { .. } => unreachable!("no faults planned"),
            };
            // The kill fires *before* its boundary's write, so the store
            // holds the previous boundary (none at all for kill@1).
            assert_eq!(
                resumed_from,
                (kill_at > 1).then(|| kill_at - 1),
                "{label}: wrong resume point"
            );
            assert_reports_bitwise(&report, &baseline, &label);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Torn writes and bit flips at a census boundary: the loader detects
/// the corruption (naming it), falls back to the rotated last-good
/// checkpoint, and the recovered solve is bitwise identical to the
/// uninterrupted run.
#[test]
fn corrupted_checkpoints_recover_from_fallback() {
    let (case, steps, seed) = MULTISTEP_CONFIGS[0]; // csp, 3 timesteps
    let sim = tiny_multistep(case, steps, seed, TallyStrategy::Replicated);
    let options = DriverKind::History.options(1);
    let baseline = sim.run(options);

    for (spec, expect_truncated) in [("torn@2,kill@2", true), ("bitflip@2,kill@2", false)] {
        let label = format!("{case:?} {spec}");
        let (dir, store) = temp_store(&format!(
            "corrupt_{}",
            if expect_truncated { "torn" } else { "flip" }
        ));
        // Boundary 1 writes a good checkpoint; boundary 2's write is
        // corrupted (rotating the good one to the fallback slot) and the
        // solve is killed before it can be replaced.
        let plan: FaultPlan = spec.parse().unwrap();
        match run_with_checkpoints(&sim, options, &store, &plan).unwrap() {
            SolveOutcome::Killed { after_step } => assert_eq!(after_step, 2, "{label}"),
            SolveOutcome::Complete { .. } => panic!("{label}: kill did not fire"),
        }

        let outcome = run_with_checkpoints(&sim, options, &store, &FaultPlan::none()).unwrap();
        match outcome {
            SolveOutcome::Complete {
                report,
                resumed_from,
                recovery,
            } => {
                assert_eq!(
                    resumed_from,
                    Some(1),
                    "{label}: must fall back to boundary 1"
                );
                match recovery {
                    Some(Recovery::Fallback { primary_error }) => {
                        let named = primary_error.to_string();
                        if expect_truncated {
                            assert!(
                                matches!(*primary_error, CheckpointError::Truncated),
                                "{label}: expected Truncated, got {named}"
                            );
                        } else {
                            assert!(
                                matches!(*primary_error, CheckpointError::ChecksumMismatch { .. }),
                                "{label}: expected ChecksumMismatch, got {named}"
                            );
                        }
                        assert!(!named.is_empty(), "{label}: error must name the cause");
                    }
                    other => panic!("{label}: expected fallback recovery, got {other:?}"),
                }
                assert_reports_bitwise(&report, &baseline, &label);
            }
            SolveOutcome::Killed { .. } => unreachable!("no faults planned"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Fault-matrix extension for the length-field robustness fix: a bit
/// flip landing in the header's `payload_len` (bytes 12..20) must read
/// as a clean structural error — an inflated claim is `Truncated`, a
/// deflated one leaves trailing bytes (`Corrupt`) — never a huge
/// allocation or panic, and recovery from the rotated fallback still
/// reproduces the uninterrupted run bit for bit.
#[test]
fn length_field_bitflips_recover_from_fallback() {
    let (case, steps, seed) = MULTISTEP_CONFIGS[0]; // csp, 3 timesteps
    let sim = tiny_multistep(case, steps, seed, TallyStrategy::Replicated);
    let options = DriverKind::History.options(1);
    let baseline = sim.run(options);

    for offset in 12..20 {
        let label = format!("{case:?} bitflip@2:{offset}");
        let (dir, store) = temp_store(&format!("lenflip_{offset}"));
        let plan: FaultPlan = format!("bitflip@2:{offset},kill@2").parse().unwrap();
        match run_with_checkpoints(&sim, options, &store, &plan).unwrap() {
            SolveOutcome::Killed { after_step } => assert_eq!(after_step, 2, "{label}"),
            SolveOutcome::Complete { .. } => panic!("{label}: kill did not fire"),
        }

        match run_with_checkpoints(&sim, options, &store, &FaultPlan::none()).unwrap() {
            SolveOutcome::Complete {
                report,
                resumed_from,
                recovery,
            } => {
                assert_eq!(
                    resumed_from,
                    Some(1),
                    "{label}: must fall back to boundary 1"
                );
                match recovery {
                    Some(Recovery::Fallback { primary_error }) => assert!(
                        matches!(
                            *primary_error,
                            CheckpointError::Truncated | CheckpointError::Corrupt(_)
                        ),
                        "{label}: expected a structural error, got {primary_error}"
                    ),
                    other => panic!("{label}: expected fallback recovery, got {other:?}"),
                }
                assert_reports_bitwise(&report, &baseline, &label);
            }
            SolveOutcome::Killed { .. } => unreachable!("no faults planned"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Hard-error paths: a checkpoint from a different configuration
/// (seed, one cell's density, a material's kind, the scheme), an
/// unsupported format version, records out of key order, and corruption
/// with no valid fallback are all surfaced as errors naming the cause —
/// never absorbed.
#[test]
fn mismatches_and_unrecoverable_corruption_are_hard_errors() {
    let (case, steps, seed) = MULTISTEP_CONFIGS[1]; // scatter, 2 timesteps
    let sim = tiny_multistep(case, steps, seed, TallyStrategy::Replicated);
    let options = DriverKind::History.options(1);
    let (dir, store) = temp_store("hard_errors");

    // Interrupt after boundary 1 so the store holds a real checkpoint.
    let plan: FaultPlan = "kill@2".parse().unwrap();
    assert!(matches!(
        run_with_checkpoints(&sim, options, &store, &plan).unwrap(),
        SolveOutcome::Killed { after_step: 2 }
    ));
    let good = std::fs::read(store.path()).expect("checkpoint on disk");

    // A different seed is a different problem: hard ConfigMismatch.
    let other = tiny_multistep(case, steps, seed + 1, TallyStrategy::Replicated);
    let err = run_with_checkpoints(&other, options, &store, &FaultPlan::none()).unwrap_err();
    assert!(
        matches!(err, CheckpointError::ConfigMismatch { .. }),
        "expected ConfigMismatch, got {err}"
    );
    assert!(err.to_string().contains("different problem"));

    // So is the same problem with one cell denser, with its material
    // swapped for another kind, or run under the other scheme: each would
    // continue the trajectories differently.
    let mut denser = sim.problem().clone();
    denser.mesh.density_field_mut()[0] *= 2.0;
    let mut absorber = sim.problem().clone();
    absorber.materials = MaterialSet::from_specs(&[MaterialSpec {
        kind: MaterialKind::Absorber,
        n_points: 30_000,
        seed: seed ^ 0xc5_0dd,
    }]);
    let over_events = DriverKind::OverEvents.options(1);
    for (what, problem, options) in [
        ("density", denser, options),
        ("material kind", absorber, options),
        ("scheme", sim.problem().clone(), over_events),
    ] {
        let other = Simulation::new(problem);
        let err = run_with_checkpoints(&other, options, &store, &FaultPlan::none()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::ConfigMismatch { .. }),
            "{what}: expected ConfigMismatch, got {err}"
        );
    }

    // Two swapped records under a recomputed (valid) checksum: storage
    // order is key order, so this is named corruption, not a resume.
    let _ = std::fs::remove_file(store.fallback_path());
    let mut swapped = Checkpoint::from_bytes(&good).unwrap();
    swapped.particles.swap(3, 4);
    store.save_raw(&swapped.to_bytes()).unwrap();
    let _ = std::fs::remove_file(store.fallback_path()); // save_raw rotated
    let err = run_with_checkpoints(&sim, options, &store, &FaultPlan::none()).unwrap_err();
    assert!(
        matches!(&err, CheckpointError::Corrupt(msg) if msg.contains("key order")),
        "expected Corrupt(key order), got {err}"
    );

    // An unsupported version (correctly checksummed so the version check
    // itself fires) in the primary with no fallback: hard error.
    let _ = std::fs::remove_file(store.fallback_path());
    let mut wrong_version = good.clone();
    wrong_version[8..12].copy_from_slice(&99u32.to_le_bytes());
    let sum =
        neutral_core::checkpoint::fnv1a64(wrong_version[..wrong_version.len() - 8].iter().copied());
    let n = wrong_version.len();
    wrong_version[n - 8..].copy_from_slice(&sum.to_le_bytes());
    store.save_raw(&wrong_version).unwrap();
    let _ = std::fs::remove_file(store.fallback_path()); // save_raw rotated
    let err = run_with_checkpoints(&sim, options, &store, &FaultPlan::none()).unwrap_err();
    assert!(
        matches!(err, CheckpointError::UnsupportedVersion(99)),
        "expected UnsupportedVersion, got {err}"
    );

    // Truncation at arbitrary byte counts with no fallback: always a
    // clean, named error (Truncated or ChecksumMismatch) — never a
    // panic, never a silent fresh start.
    for keep in [0, 7, 19, 21, 60, good.len() / 2, good.len() - 1] {
        store.save_raw(&good[..keep]).unwrap();
        let _ = std::fs::remove_file(store.fallback_path());
        let err = run_with_checkpoints(&sim, options, &store, &FaultPlan::none()).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Truncated | CheckpointError::ChecksumMismatch { .. }
            ),
            "keep={keep}: got {err}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A completed checkpointed run leaves a final-boundary checkpoint;
/// invoking the runner again resumes it as already done and reports the
/// same results without redoing any transport.
#[test]
fn completed_run_resumes_as_done() {
    let (case, steps, seed) = MULTISTEP_CONFIGS[1];
    let sim = tiny_multistep(case, steps, seed, TallyStrategy::Replicated);
    let options = DriverKind::History.options(1);
    let (dir, store) = temp_store("completed");

    let first = match run_with_checkpoints(&sim, options, &store, &FaultPlan::none()).unwrap() {
        SolveOutcome::Complete { report, .. } => report,
        SolveOutcome::Killed { .. } => unreachable!(),
    };
    let again = match run_with_checkpoints(&sim, options, &store, &FaultPlan::none()).unwrap() {
        SolveOutcome::Complete {
            report,
            resumed_from,
            ..
        } => {
            assert_eq!(resumed_from, Some(steps), "must resume at the end");
            report
        }
        SolveOutcome::Killed { .. } => unreachable!(),
    };
    assert_eq!(first.counters, again.counters);
    assert_eq!(tally_bits(&first.tally), tally_bits(&again.tally));
    assert_eq!(again.timesteps, steps);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The checkpoint hash layer is the golden-fixture hasher: a checkpoint
/// round trip preserves the tally's `tally_hash` fingerprint exactly.
#[test]
fn checkpoint_preserves_tally_fingerprint() {
    let (case, steps, seed) = MULTISTEP_CONFIGS[0];
    let sim = tiny_multistep(case, steps, seed, TallyStrategy::Replicated);
    let mut solve = SolveCore::new(&sim, DriverKind::History.options(1));
    solve.step(&sim);
    let ckpt = solve.checkpoint();
    let back = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
    assert_eq!(tally_hash(&ckpt.tally), tally_hash(&back.tally));
    assert_eq!(ckpt, back);
}
