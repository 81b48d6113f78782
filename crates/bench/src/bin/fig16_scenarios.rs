//! Figure 16 (repo extension): scenario-catalogue sweep — both schemes
//! across the multi-material workloads.
//!
//! The paper's performance story is told on three single-material
//! problems; this sweep asks how the schemes rank once per-cell
//! materials enter the picture. For every catalogue scenario it runs
//! both schemes (Over-Particles, Over-Events) on every host thread and
//! reports events/s, the event mix, and the material interface-crossing
//! rate.
//!
//! Run with `cargo run --release -p neutral-bench --bin fig16_scenarios
//! [--quick] [--json PATH]`. `--quick` runs a seconds-scale smoke sweep
//! (used by CI); `--json` additionally writes the measurements as a
//! machine-readable [`neutral_bench::report::BenchReport`]; measured
//! numbers are only meaningful from `--release` builds.

use neutral_bench::report::{BenchRecord, BenchReport};
use neutral_bench::{banner, host_threads, median_run, print_table};
use neutral_core::prelude::*;

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
        "Figure 16 (scenario catalogue)",
        "both schemes across the multi-material scenarios",
        "measured on this host; every combination computes bitwise-identical \
         physics (deterministic replicated tally), so the columns are directly \
         comparable",
    );

    let (scale, reps) = if quick {
        (ProblemScale::tiny(), 1)
    } else {
        (
            ProblemScale {
                mesh_cells: 512,
                particle_divisor: 20,
            },
            3,
        )
    };
    let threads = host_threads();
    let mut report = BenchReport::new("fig16_scenarios");
    report.note(format!(
        "scale={}x{} mesh, particle_div={}, reps={reps}, seed={seed}, threads={threads}",
        scale.mesh_cells, scale.mesh_cells, scale.particle_divisor
    ));

    for scenario in Scenario::ALL {
        let mut problem = scenario.build(scale, seed);
        problem.transport.tally_strategy = TallyStrategy::Replicated;
        println!(
            "\n-- {}: {} ({}; {} materials, {} particles) --",
            scenario.name(),
            scenario.description(),
            scenario.expected_mix(),
            problem.materials.len(),
            problem.n_particles,
        );

        let mut rows = Vec::new();
        for scheme in Scheme::ALL {
            let label = scheme.name();
            let r = median_run(&problem, RunOptions::new(scheme, threads), reps);
            let c = &r.counters;
            let histories = (c.census + c.deaths).max(1);
            report.push(
                BenchRecord::new(format!("{}/{}", scenario.name(), label))
                    .config("scenario", scenario.name())
                    .config("driver", label)
                    .metric("elapsed_s", r.elapsed.as_secs_f64())
                    .metric("events_per_s", r.events_per_second())
                    .metric(
                        "switches_per_history",
                        c.material_switches as f64 / histories as f64,
                    ),
            );
            rows.push(vec![
                label.to_owned(),
                format!("{:.3}", r.elapsed.as_secs_f64()),
                format!("{:.3e}", r.events_per_second()),
                format!("{:.1}", c.facets as f64 / histories as f64),
                format!("{:.1}", c.collisions as f64 / histories as f64),
                format!("{:.2}", c.material_switches as f64 / histories as f64),
            ]);
        }
        print_table(
            &[
                "driver",
                "time (s)",
                "events/s",
                "facets/hist",
                "colls/hist",
                "switches/hist",
            ],
            &rows,
        );
    }

    println!(
        "\nReading: the event mix shifts per scenario exactly as the catalogue \
         table (DESIGN.md §12) predicts."
    );

    if let Some(path) = &json {
        report.write(path).expect("write --json report");
        println!("machine-readable report written to {path}");
    }
}
