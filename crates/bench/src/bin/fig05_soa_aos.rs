//! Figure 5: Structure-of-Arrays vs Array-of-Structures particle storage
//! for the Over-Particles scheme.
//!
//! The paper found AoS faster than SoA on CPU and KNL for all three test
//! problems: with one thread following one history, AoS loads the whole
//! particle in 1-2 adjacent cache lines while SoA touches one line per
//! field and uses a single element from each (§VI-D).
//!
//! Since the column migration (DESIGN.md §19) the [`neutral_core::soa::ParticleSoA`]
//! columns are the *canonical* storage inside every solve, so the three
//! layouts this binary measures are now:
//!
//! * `Layout::Soa` — the column core read in place by the chunked
//!   history driver. No gather/scatter step exists on this path any
//!   more; this row measures the storage the whole codebase runs on.
//! * `Layout::Aos` — the record-at-a-time history driver behind the one
//!   remaining AoS seam: records are materialised from the columns once
//!   per *timestep*, transported, and scattered back. This row carries
//!   the seam cost the migration confined to the timestep boundary.
//! * `Layout::SoaEventStepped` — columns with event-granular
//!   load/store of the working state, reproducing the C code's
//!   aliasing-forced memory behaviour and therefore the paper's SoA
//!   penalty.
//!
//! `--quick` runs a seconds-scale smoke sweep (used by CI); `--json PATH`
//! additionally writes the measurements as a machine-readable
//! [`neutral_bench::report::BenchReport`].

use neutral_bench::report::{BenchRecord, BenchReport};
use neutral_bench::*;
use neutral_core::prelude::*;

fn main() {
    let args = HarnessArgs::from_env();
    let mut report = BenchReport::new("fig05_soa_aos");
    report.note(format!(
        "scale={}x{} mesh, particle_div={}, reps={}, seed={}",
        args.scale.mesh_cells,
        args.scale.mesh_cells,
        args.scale.particle_divisor,
        args.reps,
        args.seed
    ));
    banner(
        "Figure 5",
        "SoA vs AoS particle layout, Over Particles",
        "measured on this host (all logical CPUs)",
    );

    let mut rows = Vec::new();
    for case in TestCase::ALL {
        let mut time = |layout: Layout| {
            let r = run_median(
                case,
                RunOptions {
                    layout,
                    execution: Execution::Rayon,
                    ..Default::default()
                },
                &args,
            );
            report.push(
                BenchRecord::new(format!("op/{}/{}", case.name(), layout.name()))
                    .config("part", "layouts")
                    .config("case", case.name())
                    .config("driver", "over_particles")
                    .config("layout", layout.name())
                    .metric("elapsed_s", r.elapsed.as_secs_f64())
                    .metric("events_per_s", r.events_per_second()),
            );
            r.elapsed.as_secs_f64()
        };
        let ta = time(Layout::Aos);
        let ts = time(Layout::Soa);
        let te = time(Layout::SoaEventStepped);
        rows.push(vec![
            case.name().to_owned(),
            format!("{ta:.3}"),
            format!("{ts:.3}"),
            format!("{te:.3}"),
            format!("{:.3}", ts / ta),
            format!("{:.3}", te / ta),
        ]);
    }
    print_table(
        &[
            "problem",
            "AoS seam (s)",
            "SoA columns (s)",
            "SoA stepped (s)",
            "columns/AoS",
            "stepped/AoS",
        ],
        &rows,
    );
    println!(
        "\nPaper shape: SoA slower than AoS everywhere. The event-stepped SoA\n\
         column reproduces that penalty (state forced through memory every\n\
         event, as C aliasing forces). The columns row is the canonical\n\
         storage every driver now reads in place; the AoS row pays the one\n\
         remaining record-materialisation seam at each timestep boundary —\n\
         so columns/AoS at or below 1.0 means the migration's per-step\n\
         gather/scatter really is gone (BENCH_PR10.json records the A/B\n\
         against the pre-migration tree)."
    );

    if let Some(path) = &args.json {
        report.write(path).expect("write --json report");
        println!("\nmachine-readable report written to {path}");
    }
}
