//! Sharded-solve verification (DESIGN.md §18): sharded runs must be
//! **bitwise identical** to the unsharded run for any shard count,
//! under both schemes at one and two workers;
//! every injected shard fault must either recover to the identical
//! result via retry or fail with a named cause; and the retry path must
//! work through the real on-disk per-shard checkpoint protocol.

use neutral_core::particle::Particle;
use neutral_core::prelude::*;
use neutral_integration::{tiny_multistep, MULTISTEP_CONFIGS};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Shard counts of the acceptance matrix (1 = the trivial plan, 2 = the
/// smallest real split, 5 = uneven lane division).
const SHARD_COUNTS: [usize; 3] = [1, 2, 5];

/// Worker count for the fault matrix (2 exercises real concurrency
/// inside each shard attempt; any count yields the same bits).
const WORKERS: usize = 2;

/// Every (scheme, workers) pair of the scheme matrix: each scheme on the
/// inline one-worker path and on [`WORKERS`].
fn scheme_matrix() -> impl Iterator<Item = (Scheme, usize)> {
    Scheme::ALL
        .into_iter()
        .flat_map(|scheme| [1, WORKERS].map(|workers| (scheme, workers)))
}

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

/// Matrix configuration: no backoff sleeps, default (generous)
/// heartbeat deadline — debug-build attempts can be slow.
fn fast_config(n_shards: usize) -> ShardConfig {
    let mut config = ShardConfig::new(n_shards);
    config.backoff = Duration::ZERO;
    config
}

/// Fault-injection configuration: as [`fast_config`], plus a short
/// heartbeat deadline so `hang` faults are detected quickly. Only used
/// with a fault plan (a clean tiny-scale shard attempt comfortably
/// beats 2 s even in debug builds, and heartbeats tick per phase).
fn fault_config(n_shards: usize, plan: &str) -> ShardConfig {
    let mut config = fast_config(n_shards);
    config.heartbeat_timeout = Duration::from_secs(2);
    config.fault_plan = plan.parse().expect("fault grammar");
    config
}

/// Run a sharded solve to completion, returning the final particle
/// records alongside the report.
fn run_sharded(
    sim: &Arc<Simulation>,
    options: RunOptions,
    config: ShardConfig,
) -> Result<(RunReport, Vec<Particle>, ShardStats), ShardError> {
    let mut solve = ShardedSolve::new(sim, options, config);
    while solve.step(sim)? {}
    let stats = solve.stats();
    let particles = solve.checkpoint().particles;
    Ok((solve.finish(), particles, stats))
}

/// The tentpole claim: for every multistep config × scheme × workers,
/// under the deterministic tally strategy, a solve sharded {1, 2, 5} ways produces
/// tallies, counters, alive counts and final particle records bitwise
/// identical to the unsharded run.
#[test]
fn sharded_is_bitwise_identical_to_unsharded() {
    for (case, steps, seed) in MULTISTEP_CONFIGS {
        for (scheme, workers) in scheme_matrix() {
            let sim = Arc::new(tiny_multistep(case, steps, seed, TallyStrategy::Replicated));
            let options = RunOptions::new(scheme, workers);

            let mut base = SolveCore::new(&sim, options);
            while base.step(&sim) {}
            let base_particles: Vec<Particle> = base.particles();
            let base_report = base.finish();

            for n_shards in SHARD_COUNTS {
                let label = format!("{case:?}/{}/{workers}w shards={n_shards}", scheme.name());
                let (report, particles, _) = run_sharded(&sim, options, fast_config(n_shards))
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_reports_bitwise(&report, &base_report, &label);
                assert_eq!(
                    particles, base_particles,
                    "{label}: final particle records diverge"
                );
            }
        }
    }
}

/// The fault matrix, recovery half: each fault kind fired once against
/// shard 1 is retried and the solve completes bitwise identical to the
/// clean run, with the retry visible in the stats.
#[test]
fn every_injected_fault_recovers_identically() {
    let (case, steps, seed) = MULTISTEP_CONFIGS[0];
    let sim = Arc::new(tiny_multistep(case, steps, seed, TallyStrategy::Replicated));
    let options = RunOptions::new(Scheme::OverParticles, WORKERS);
    let (clean_report, clean_particles, clean_stats) =
        run_sharded(&sim, options, fast_config(2)).expect("clean run");
    assert_eq!(clean_stats.retries, 0);
    assert_eq!(clean_stats.requeues, 0);

    for kind in ["kill", "hang", "corrupt", "panic"] {
        let config = fault_config(2, &format!("{kind}@1"));
        let label = format!("fault {kind}@1");
        let (report, particles, stats) =
            run_sharded(&sim, options, config).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_reports_bitwise(&report, &clean_report, &label);
        assert_eq!(particles, clean_particles, "{label}: particles diverge");
        assert_eq!(stats.retries, 1, "{label}: expected exactly one retry");
        assert_eq!(stats.requeues, 1, "{label}: expected exactly one requeue");
        assert_eq!(stats.quarantined, 0, "{label}: nothing should quarantine");
    }
}

/// The fault matrix, quarantine half: a fault that fires on every
/// attempt exhausts the retry budget and surfaces as a named
/// [`ShardError::Quarantined`] wrapping the right cause.
#[test]
fn persistent_faults_quarantine_with_named_cause() {
    let (case, steps, seed) = MULTISTEP_CONFIGS[0];
    let sim = Arc::new(tiny_multistep(case, steps, seed, TallyStrategy::Replicated));
    let options = RunOptions::new(Scheme::OverParticles, WORKERS);

    for (kind, needle) in [
        ("kill", "died"),
        ("hang", "heartbeat"),
        ("corrupt", "corrupt"),
        ("panic", "panicked"),
    ] {
        let mut config = fault_config(2, &format!("{kind}@0:99"));
        config.max_retries = 1;
        let mut solve = ShardedSolve::new(&sim, options, config);
        let err = loop {
            match solve.step(&sim) {
                Ok(true) => {}
                Ok(false) => panic!("fault {kind}: solve completed despite persistent fault"),
                Err(e) => break e,
            }
        };
        match &err {
            ShardError::Quarantined {
                shard,
                attempts,
                cause,
            } => {
                assert_eq!(*shard, 0, "fault {kind}: wrong shard quarantined");
                assert_eq!(*attempts, 2, "fault {kind}: wrong attempt count");
                let cause = cause.to_string();
                assert!(
                    cause.contains(needle),
                    "fault {kind}: cause {cause:?} should contain {needle:?}"
                );
            }
            other => panic!("fault {kind}: expected quarantine, got {other}"),
        }
        assert_eq!(solve.stats().quarantined, 1);
        assert_eq!(solve.stats().retries, 1);
    }
}

/// Retries reload the shard's census-boundary input through the real
/// crash-safe per-shard checkpoint store, and still reproduce the clean
/// run's bits.
#[test]
fn checkpoint_backed_retry_recovers_bitwise() {
    let dir = std::env::temp_dir().join(format!("neutral_shard_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let base: PathBuf = dir.join("solve.ckpt");

    let (case, steps, seed) = MULTISTEP_CONFIGS[0];
    let sim = Arc::new(tiny_multistep(case, steps, seed, TallyStrategy::Replicated));
    let options = RunOptions::new(Scheme::OverEvents, WORKERS);
    let (clean_report, clean_particles, _) =
        run_sharded(&sim, options, fast_config(2)).expect("clean run");

    let mut config = fault_config(2, "kill@1,corrupt@0");
    config.checkpoint_base = Some(base.clone());
    let (report, particles, stats) =
        run_sharded(&sim, options, config).expect("checkpoint-backed recovery");
    assert_reports_bitwise(&report, &clean_report, "checkpoint-backed retry");
    assert_eq!(particles, clean_particles, "particles diverge");
    assert_eq!(stats.requeues, 2, "both injected faults should requeue");

    // The per-shard stores really were written through the crash-safe
    // protocol.
    for shard in 0..2 {
        let mut path = base.as_os_str().to_owned();
        path.push(format!(".shard{shard}"));
        assert!(
            PathBuf::from(path).exists(),
            "shard {shard} checkpoint missing"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sharding composes with the solve-level checkpoint: a sharded solve's
/// census-boundary snapshot is byte-identical in shape to the unsharded
/// solve's, so the existing restart machinery can resume it.
#[test]
fn sharded_checkpoint_matches_unsharded_checkpoint() {
    let (case, steps, seed) = MULTISTEP_CONFIGS[0];
    let sim = Arc::new(tiny_multistep(case, steps, seed, TallyStrategy::Replicated));
    let options = RunOptions::new(Scheme::OverParticles, WORKERS);

    let mut base = SolveCore::new(&sim, options);
    assert!(base.step(&sim));
    let base_ckpt = base.checkpoint();

    let mut sharded = ShardedSolve::new(&sim, options, fast_config(2));
    assert!(sharded.step(&sim).expect("step"));
    let sharded_ckpt = sharded.checkpoint();
    // Everything in the resumable state agrees bit-for-bit (elapsed and
    // the tally footprint are diagnostics, outside the bitwise contract).
    assert_eq!(sharded_ckpt.fingerprint, base_ckpt.fingerprint);
    assert_eq!(sharded_ckpt.next_step, base_ckpt.next_step);
    assert_eq!(sharded_ckpt.counters, base_ckpt.counters);
    assert_eq!(
        tally_bits(&sharded_ckpt.tally),
        tally_bits(&base_ckpt.tally)
    );
    assert_eq!(sharded_ckpt.particles, base_ckpt.particles);
    let sharded_bytes = sharded_ckpt.to_bytes();

    // And it resumes through the ordinary unsharded restart path.
    let ckpt = Checkpoint::from_bytes(&sharded_bytes).expect("parse");
    let mut resumed = SolveCore::resume(&sim, options, &ckpt).expect("resume");
    while resumed.step(&sim) {}

    let mut full = SolveCore::new(&sim, options);
    while full.step(&sim) {}
    assert_reports_bitwise(
        &resumed.finish(),
        &full.finish(),
        "resume from sharded checkpoint",
    );
}

/// One plain shard (no fault plan, no spill base) *is* the unsharded
/// solve: it steps the wrapped core in place, so the report, the particle
/// records and every checkpoint byte equal the `SolveCore`'s at every
/// census boundary. Two diagnostics are zeroed before the byte compare,
/// because the two solves are separate runs: the wall clock, and the
/// tally footprint — the high-water of live lane meshes, which above one
/// worker depends on the order the lanes finished in. On one worker the
/// lanes close in order, and the footprints must match too.
#[test]
fn one_plain_shard_is_the_unsharded_solve() {
    for (scheme, workers) in scheme_matrix() {
        let (case, steps, seed) = MULTISTEP_CONFIGS[0];
        let sim = Arc::new(tiny_multistep(case, steps, seed, TallyStrategy::Replicated));
        let options = RunOptions::new(scheme, workers);
        let what = format!("{}/{workers}w", scheme.name());
        let mut core = SolveCore::new(&sim, options);
        let mut sharded = ShardedSolve::new(&sim, options, fast_config(1));
        loop {
            let more = core.step(&sim);
            assert_eq!(sharded.step(&sim).expect("step"), more, "{what}");
            if !more {
                break;
            }
            let (mut a, mut b) = (core.checkpoint(), sharded.checkpoint());
            for ckpt in [&mut a, &mut b] {
                ckpt.elapsed = Duration::ZERO;
                ckpt.tally_footprint_bytes = 0;
            }
            assert_eq!(a.particles, b.particles, "{what}: records");
            assert_eq!(a.to_bytes(), b.to_bytes(), "{what}: checkpoint");
        }
        assert_eq!(sharded.stats(), ShardStats::default(), "nothing supervised");
        let (a, b) = (core.finish(), sharded.finish());
        assert_reports_bitwise(&a, &b, &what);
        if workers == 1 {
            assert_eq!(a.tally_footprint_bytes, b.tally_footprint_bytes, "{what}");
        }
        assert_eq!(a.kernel_timings.is_some(), b.kernel_timings.is_some());
    }
}

/// The `-0.0` / `0.0` census-energy split: once every history is dead
/// the fused solve's residual folds an empty stream (`-0.0`), and the
/// shard coordinator must report the same *bits*, not just an `==` zero
/// — both now close their step in the same fold.
#[test]
fn all_dead_step_agrees_on_energy_bits() {
    const ALL_DEAD_STEPS: usize = 4;
    // Scatter's population dies out at the energy cutoff within a few
    // timesteps; the last steps fold an all-dead population.
    let mut problem = TestCase::Scatter.build(ProblemScale::tiny(), 5);
    problem.n_timesteps = ALL_DEAD_STEPS;
    problem.transport.tally_strategy = TallyStrategy::Replicated;
    let sim = Arc::new(Simulation::new(problem));
    for (scheme, workers) in scheme_matrix() {
        let options = RunOptions::new(scheme, workers);
        let what = format!("{}/{workers}w", scheme.name());
        let fused = sim.run(options);
        assert_eq!(fused.alive, 0, "{what}: fixture must kill everyone");
        let (sharded, _, _) = run_sharded(&sim, options, fast_config(2)).expect("sharded");
        for (name, a, b) in [
            (
                "census_energy_ev",
                fused.counters.census_energy_ev,
                sharded.counters.census_energy_ev,
            ),
            (
                "lost_energy_ev",
                fused.counters.lost_energy_ev,
                sharded.counters.lost_energy_ev,
            ),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {name} {a:?} vs {b:?}");
        }
        assert_eq!(
            fused.counters.census_energy_ev.to_bits(),
            (-0.0f64).to_bits(),
            "{what}: an empty fold is -0.0"
        );
    }
}
