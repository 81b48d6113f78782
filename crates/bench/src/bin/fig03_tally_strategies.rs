//! Figure 3 companion (repo extension): tally thread-scaling sweep —
//! threads × tally × mesh size on the csp problem.
//!
//! The paper's Figures 3/7/8 story is that the *tally* is the contention
//! hot spot: shared atomics scale poorly once threads collide on cells,
//! while privatised/replicated tallies trade memory (and a merge pass)
//! for contention-free deposits. This sweep measures that crossover:
//! `atomic` is the paper's baseline (particle-granular records into one
//! shared CAS mesh, [`neutral_bench::baseline::Baseline::Atomic`]) and
//! `replicated` is the solve path (per-lane meshes folded pairwise,
//! `neutral_mesh::accum`). Per tally it reports events/s, parallel
//! efficiency against its own single-thread run, and the accumulation
//! footprint.
//!
//! Run with `cargo run --release -p neutral-bench --bin
//! fig03_tally_strategies [--quick] [--json PATH]`. `--quick` runs a
//! seconds-scale smoke sweep (used by CI); `--json` additionally writes
//! the measurements as a machine-readable
//! [`neutral_bench::report::BenchReport`]; measured numbers are only
//! meaningful from `--release` builds.

use neutral_bench::baseline::{median_baseline, Baseline};
use neutral_bench::report::{BenchRecord, BenchReport};
use neutral_bench::{banner, host_threads, median_run, print_table, thread_ladder};
use neutral_core::prelude::*;

struct SweepPoint {
    mesh_cells: usize,
    particle_divisor: usize,
    reps: usize,
}

fn human_bytes(b: usize) -> String {
    if b >= 1 << 30 {
        format!("{:.1} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let json = argv.iter().position(|a| a == "--json").map(|i| {
        argv.get(i + 1)
            .unwrap_or_else(|| panic!("--json requires a PATH operand"))
            .clone()
    });
    let seed = 20170905;
    banner(
        "Figure 3 (tally strategies)",
        "thread scaling of the csp problem per tally backend",
        "measured on this host; atomic = shared CAS mesh, replicated = per-lane meshes \
         folded pairwise as lanes close",
    );

    let max_t = host_threads();
    let (points, ladder): (Vec<SweepPoint>, Vec<usize>) = if quick {
        let mut ladder = vec![1, 2, max_t.min(4)];
        ladder.sort_unstable();
        ladder.dedup();
        (
            vec![SweepPoint {
                mesh_cells: 128,
                particle_divisor: 2000,
                reps: 1,
            }],
            ladder,
        )
    } else {
        (
            vec![
                SweepPoint {
                    mesh_cells: 256,
                    particle_divisor: 500,
                    reps: 3,
                },
                SweepPoint {
                    mesh_cells: 1000,
                    particle_divisor: 100,
                    reps: 3,
                },
            ],
            thread_ladder(max_t),
        )
    };

    let mut report = BenchReport::new("fig03_tally_strategies");
    report.note(format!(
        "mode={}, ladder={ladder:?}, seed={seed}",
        if quick { "quick" } else { "full" }
    ));

    for point in &points {
        let scale = ProblemScale {
            mesh_cells: point.mesh_cells,
            particle_divisor: point.particle_divisor,
        };
        let problem = TestCase::Csp.build(scale, seed);
        println!(
            "\n-- csp, {0}x{0} mesh, {1} particles, {2} reps --",
            point.mesh_cells, problem.n_particles, point.reps
        );

        let mut rows = Vec::new();
        let mut best_at_max: Option<(f64, &str)> = None;
        for strategy in ["atomic", "replicated"] {
            let mut base: Option<f64> = None;
            for &threads in &ladder {
                let schedule = Schedule::Dynamic { chunk: 64 };
                let r = if strategy == "atomic" {
                    median_baseline(&problem, Baseline::Atomic { threads, schedule }, point.reps)
                } else {
                    let execution = Execution::Scheduled { threads, schedule };
                    let options = RunOptions {
                        execution,
                        ..Default::default()
                    };
                    median_run(&problem, options, point.reps)
                };
                let secs = r.elapsed.as_secs_f64();
                let eps = r.events_per_second();
                report.push(
                    BenchRecord::new(format!("{}/{strategy}/{threads}t", point.mesh_cells))
                        .config("strategy", strategy)
                        .config("threads", threads.to_string())
                        .metric("elapsed_s", secs)
                        .metric("events_per_s", eps),
                );
                let base_secs = *base.get_or_insert(secs);
                let efficiency = base_secs / (secs * threads as f64);
                if threads == *ladder.last().unwrap() {
                    let better = best_at_max.is_none_or(|(best, _)| eps > best);
                    if better {
                        best_at_max = Some((eps, strategy));
                    }
                }
                rows.push(vec![
                    strategy.to_owned(),
                    threads.to_string(),
                    format!("{secs:.3}"),
                    format!("{eps:.3e}"),
                    format!("{:.0}%", 100.0 * efficiency),
                    human_bytes(r.tally_footprint_bytes),
                ]);
            }
        }
        print_table(
            &[
                "strategy",
                "threads",
                "time (s)",
                "events/s",
                "efficiency",
                "tally footprint",
            ],
            &rows,
        );
        if let Some((eps, strategy)) = best_at_max {
            println!(
                "  fastest at {} threads: {} ({:.3e} events/s)",
                ladder.last().unwrap(),
                strategy,
                eps
            );
        }
    }

    println!(
        "\n(`replicated` is the solve path, bitwise identical at every thread count; \
         `atomic` is the paper's record-at-a-time baseline; see DESIGN.md §11. \
         Sweep mode: {}.)",
        if quick { "quick" } else { "full" }
    );

    if let Some(path) = &json {
        report.write(path).expect("write --json report");
        println!("machine-readable report written to {path}");
    }
}
