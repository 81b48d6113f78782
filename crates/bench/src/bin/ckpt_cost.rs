//! Checkpoint write/read cost record: what does crash safety cost per
//! census boundary, relative to the transport work it protects?
//!
//! For each driver family the sweep runs a multi-timestep csp solve and
//! times the four phases of the checkpoint path at a census boundary:
//!
//! * `snapshot` — [`SolveCore::checkpoint`]: cloning particles + tally into
//!   an owned [`Checkpoint`];
//! * `encode` — [`Checkpoint::to_bytes`]: serializing to the versioned,
//!   length-prefixed, checksummed format;
//! * `save` — [`CheckpointStore::save`]: the crash-safe rotate →
//!   write-temp → fsync → rename protocol, including the encode;
//! * `load+resume` — [`CheckpointStore::load`] (read + checksum +
//!   parse) followed by [`SolveCore::resume`] (validation + state rebuild).
//!
//! Each is reported in milliseconds and as a fraction of the median
//! timestep's transport time, so the headline number is "checkpointing
//! every boundary costs X% of the solve". The checkpoint byte size and
//! effective save bandwidth are recorded alongside.
//!
//! Run with `cargo run --release -p neutral-bench --bin ckpt_cost
//! [--quick] [--json PATH]`. `--quick` shrinks the problem to a
//! seconds-scale smoke (used by CI); measured numbers are only
//! meaningful from `--release` builds.

use neutral_bench::report::{BenchRecord, BenchReport};
use neutral_bench::{banner, host_threads, print_table};
use neutral_core::prelude::*;
use std::time::Instant;

/// `(label, scheme)` of the three driver families (`history` is Over
/// Particles on one worker).
const DRIVERS: [(&str, Scheme); 3] = [
    ("history", Scheme::OverParticles),
    ("over_particles", Scheme::OverParticles),
    ("over_events", Scheme::OverEvents),
];

/// Median of a non-empty sample (mutates order).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let json = argv.iter().position(|a| a == "--json").map(|i| {
        argv.get(i + 1)
            .unwrap_or_else(|| panic!("--json requires a PATH operand"))
            .clone()
    });
    let seed = 20_170_905;
    banner(
        "Checkpoint cost",
        "crash-safe checkpoint write/read cost per census boundary",
        "snapshot = clone state; encode = serialize + checksum; save = rotate + \
         write-temp + fsync + rename; load+resume = read + verify + rebuild. \
         Fractions are of the median timestep's transport time.",
    );

    let (scale, timesteps, reps) = if quick {
        (ProblemScale::tiny(), 2, 1)
    } else {
        (
            ProblemScale {
                mesh_cells: 256,
                particle_divisor: 50,
            },
            3,
            3,
        )
    };
    let threads = host_threads();
    let dir = std::env::temp_dir().join(format!("neutral_ckpt_cost_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let store = CheckpointStore::new(dir.join("cost.ckpt"));

    let mut problem = TestCase::Csp.build(scale, seed);
    problem.n_timesteps = timesteps;
    problem.transport.tally_strategy = TallyStrategy::Replicated;
    let sim = Simulation::new(problem.clone());
    println!(
        "\n-- csp, {0}x{0} mesh, {1} particles, {2} timesteps, {3} reps --",
        scale.mesh_cells, problem.n_particles, timesteps, reps
    );

    let mut report = BenchReport::new("ckpt_cost");
    report.note(format!(
        "scale={}x{} mesh, particle_div={}, timesteps={timesteps}, reps={reps}, \
         seed={seed}, threads={threads}",
        scale.mesh_cells, scale.mesh_cells, scale.particle_divisor
    ));

    let mut rows = Vec::new();
    for (label, scheme) in DRIVERS {
        let options = RunOptions {
            scheme,
            execution: if label == "history" {
                Execution::Sequential
            } else {
                Execution::Scheduled {
                    threads,
                    schedule: Schedule::Dynamic { chunk: 64 },
                }
            },
        };

        let mut step_ms = Vec::new();
        let mut snapshot_ms = Vec::new();
        let mut encode_ms = Vec::new();
        let mut save_ms = Vec::new();
        let mut restore_ms = Vec::new();
        let mut bytes = 0usize;
        for _ in 0..reps.max(1) {
            let mut solve = SolveCore::new(&sim, options);
            while !solve.is_done() {
                let t0 = Instant::now();
                solve.step(&sim);
                step_ms.push(t0.elapsed().as_secs_f64() * 1e3);

                let t0 = Instant::now();
                let ckpt = solve.checkpoint();
                snapshot_ms.push(t0.elapsed().as_secs_f64() * 1e3);

                let t0 = Instant::now();
                let encoded = ckpt.to_bytes();
                encode_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                bytes = encoded.len();

                let t0 = Instant::now();
                store.save(&ckpt).expect("checkpoint save");
                save_ms.push(t0.elapsed().as_secs_f64() * 1e3);

                let t0 = Instant::now();
                let (loaded, _) = store.load().expect("checkpoint load");
                let resumed = SolveCore::resume(&sim, options, &loaded).expect("resume");
                restore_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                assert_eq!(resumed.steps_done(), solve.steps_done());
            }
        }

        let step = median(&mut step_ms);
        let snapshot = median(&mut snapshot_ms);
        let encode = median(&mut encode_ms);
        let save = median(&mut save_ms);
        let restore = median(&mut restore_ms);
        let save_bw = bytes as f64 / 1e6 / (save / 1e3).max(1e-9);
        let overhead = (snapshot + save) / step.max(1e-9);
        report.push(
            BenchRecord::new(label)
                .config("driver", label)
                .metric("step_ms", step)
                .metric("snapshot_ms", snapshot)
                .metric("encode_ms", encode)
                .metric("save_ms", save)
                .metric("load_resume_ms", restore)
                .metric("checkpoint_bytes", bytes as f64)
                .metric("save_mb_per_s", save_bw)
                .metric("overhead_frac", overhead),
        );
        rows.push(vec![
            label.to_owned(),
            format!("{step:.2}"),
            format!("{snapshot:.3}"),
            format!("{encode:.3}"),
            format!("{save:.3}"),
            format!("{restore:.3}"),
            format!("{:.1}", bytes as f64 / 1024.0),
            format!("{save_bw:.0}"),
            format!("{:.1}%", 100.0 * overhead),
        ]);
    }
    print_table(
        &[
            "driver",
            "step (ms)",
            "snapshot",
            "encode",
            "save",
            "load+resume",
            "size (KiB)",
            "save MB/s",
            "overhead",
        ],
        &rows,
    );
    println!(
        "\n(overhead = (snapshot + save) / step: the per-boundary price of \
         crash safety when checkpointing every census. Sweep mode: {}.)",
        if quick { "quick" } else { "full" }
    );

    let _ = std::fs::remove_dir_all(&dir);
    if let Some(path) = &json {
        report.write(path).expect("write --json report");
        println!("machine-readable report written to {path}");
    }
}
