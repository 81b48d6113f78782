//! Figure 5: Structure-of-Arrays vs Array-of-Structures particle storage
//! for the Over-Particles scheme.
//!
//! The paper found AoS faster than SoA on CPU and KNL for all three test
//! problems: with one thread following one history, AoS loads the whole
//! particle in 1-2 adjacent cache lines while SoA touches one line per
//! field and uses a single element from each (§VI-D).
//!
//! The [`neutral_core::soa::ParticleSoA`] columns are the one storage of
//! every solve (DESIGN.md §7), so the three rows are:
//!
//! * `columns` — the solve path: the lane driver tracking the columns in
//!   place (one load and one store per history; Rust's `noalias` slices
//!   keep the working state in registers), into the solve path's one
//!   tally, the `replicated` lane fold.
//! * `records` — the paper's fastest layout: `Particle` records under a
//!   particle-granular schedule (`neutral_bench::baseline`).
//! * `stepped` — columns with event-granular load/store of the working
//!   state, reproducing the C code's aliasing-forced memory behaviour and
//!   therefore the paper's SoA penalty (`neutral_bench::baseline`).
//!
//! All three run on all logical CPUs. `records` and `stepped` deposit
//! into one shared atomic mesh; `columns` deposits into per-lane meshes,
//! because the solve path has no atomic tally (DESIGN.md §11).
//!
//! `--quick` runs a seconds-scale smoke sweep (used by CI); `--json PATH`
//! additionally writes the measurements as a machine-readable
//! [`neutral_bench::report::BenchReport`].

use neutral_bench::baseline::{median_baseline, Baseline};
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

    let threads = host_threads();
    let schedule = Schedule::Dynamic { chunk: 64 };
    let mut rows = Vec::new();
    for case in TestCase::ALL {
        let problem = case.build(args.scale, args.seed);
        let mut time = |layout: &str, r: RunReport| {
            report.push(
                BenchRecord::new(format!("op/{}/{layout}", case.name()))
                    .config("part", "layouts")
                    .config("case", case.name())
                    .config("driver", "over_particles")
                    .config("layout", layout)
                    .metric("elapsed_s", r.elapsed.as_secs_f64())
                    .metric("events_per_s", r.events_per_second()),
            );
            r.elapsed.as_secs_f64()
        };
        let columns = RunOptions {
            execution: Execution::Scheduled { threads, schedule },
            ..Default::default()
        };
        let tc = time("columns", median_run(&problem, columns, args.reps));
        let records = Baseline::Atomic { threads, schedule };
        let tr = time("records", median_baseline(&problem, records, args.reps));
        let stepped = Baseline::EventStepped { threads };
        let te = time("stepped", median_baseline(&problem, stepped, args.reps));
        rows.push(vec![
            case.name().to_owned(),
            format!("{tr:.3}"),
            format!("{tc:.3}"),
            format!("{te:.3}"),
            format!("{:.3}", tc / tr),
            format!("{:.3}", te / tr),
        ]);
    }
    print_table(
        &[
            "problem",
            "AoS records (s)",
            "SoA columns, replicated (s)",
            "SoA stepped (s)",
            "columns/records",
            "stepped/records",
        ],
        &rows,
    );
    println!(
        "\nPaper shape: SoA slower than AoS everywhere. The event-stepped row\n\
         reproduces that penalty (state forced through memory every event, as\n\
         C aliasing forces). The columns row is the storage every solve runs\n\
         on, read in place: a history is one gather, a register-resident\n\
         track and one scatter, so columns/records near 1.0 is the finding —\n\
         the paper's penalty is the aliasing, not the layout. The columns row\n\
         runs the solve path's `replicated` tally; the other two rows deposit\n\
         into one shared atomic mesh."
    );

    if let Some(path) = &args.json {
        report.write(path).expect("write --json report");
        println!("\nmachine-readable report written to {path}");
    }
}
