//! Figure 4: OpenMP-style loop-scheduling strategies for the
//! Over-Particles loop on the csp problem.
//!
//! The paper tested `schedule(static|dynamic|guided)` on Broadwell, KNL
//! and POWER8 and found at most a 1.07x difference — the load imbalance of
//! csp histories is smaller than VTune suggested (§VI-C). This binary
//! measures the same sweep on this host with the explicit scheduler from
//! `neutral-core::scheduler`, at particle granularity into the shared
//! atomic tally (`neutral_bench::baseline` — the solve path schedules
//! whole lanes, where chunk sizes collapse).

use neutral_bench::baseline::{median_baseline, Baseline};
use neutral_bench::*;
use neutral_core::prelude::*;

fn main() {
    let args = HarnessArgs::from_env();
    banner(
        "Figure 4",
        "loop scheduling strategies, csp, Over Particles",
        "measured on this host",
    );

    let threads = host_threads();
    let schedules = [
        Schedule::Static { chunk: None },
        Schedule::Static { chunk: Some(64) },
        Schedule::Dynamic { chunk: 1 },
        Schedule::Dynamic { chunk: 64 },
        Schedule::Dynamic { chunk: 1024 },
        Schedule::Guided { min_chunk: 1 },
        Schedule::Guided { min_chunk: 64 },
    ];

    let csp = TestCase::Csp.build(args.scale, args.seed);
    let mut times = Vec::new();
    for schedule in schedules {
        let r = median_baseline(&csp, Baseline::Atomic { threads, schedule }, args.reps);
        times.push((schedule.label(), r.elapsed.as_secs_f64()));
    }

    let best = times.iter().map(|(_, t)| *t).fold(f64::INFINITY, f64::min);
    let worst = times.iter().map(|(_, t)| *t).fold(0.0, f64::max);

    let rows: Vec<Vec<String>> = times
        .iter()
        .map(|(label, t)| vec![label.clone(), format!("{t:.3}"), format!("{:.3}", t / best)])
        .collect();
    print_table(&["schedule", "time (s)", "vs best"], &rows);

    println!(
        "\nworst/best spread: {:.3}x (paper: schedules differed by at most 1.07x,\n\
         i.e. the csp load imbalance is modest; {} threads used here)",
        worst / best,
        threads
    );
}
