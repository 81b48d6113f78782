//! Figure 7: tally-mesh privatisation (removing the atomics).
//!
//! The paper privatised the energy-deposition tally per thread, removing
//! the atomic read-modify-write at every facet encounter, and measured
//! speedups of ~1.16x (Broadwell) and ~1.18x (KNL) on csp — less than the
//! atomic share of the runtime suggested, because the footprint grows by
//! a factor of the thread count (0.3 GB -> 31 GB at 256 KNL threads) and
//! the cache suffers (§VI-F). Merging every timestep instead of once at
//! the end made the solve *slower* than the atomics everywhere.
//!
//! This binary measures atomic vs privatised on this host for all three
//! problems, reports the footprint arithmetic, and measures the
//! merge-every-timestep variant. Both sides are the paper's
//! record-at-a-time baselines (`neutral_bench::baseline`): per-*thread*
//! privatisation is not a configuration of the solve path, whose
//! `replicated` strategy privatises per lane.

use neutral_bench::baseline::{median_baseline, run_baseline, Baseline};
use neutral_bench::*;
use neutral_core::prelude::*;

fn main() {
    let args = HarnessArgs::from_env();
    banner(
        "Figure 7",
        "tally privatisation vs shared atomic tally",
        "measured on this host",
    );

    let threads = host_threads();
    let schedule = Schedule::Dynamic { chunk: 64 };

    let mut rows = Vec::new();
    for case in TestCase::ALL {
        let problem = case.build(args.scale, args.seed);
        let atomic = median_baseline(&problem, Baseline::Atomic { threads, schedule }, args.reps);
        let privatized = median_baseline(
            &problem,
            Baseline::Privatized { threads, schedule },
            args.reps,
        );
        let (ta, tp) = (
            atomic.elapsed.as_secs_f64(),
            privatized.elapsed.as_secs_f64(),
        );
        rows.push(vec![
            case.name().to_owned(),
            format!("{ta:.3}"),
            format!("{tp:.3}"),
            format!("{:.3}", ta / tp),
            format!("{:.1} MB", atomic.tally_footprint_bytes as f64 / 1e6),
            format!("{:.1} MB", privatized.tally_footprint_bytes as f64 / 1e6),
        ]);
    }
    print_table(
        &[
            "problem",
            "atomic (s)",
            "privatised (s)",
            "speedup",
            "atomic tally",
            "privatised tally",
        ],
        &rows,
    );

    // Merge-every-timestep variant (the real-world caveat in §VI-F).
    println!("\n-- merge-per-timestep variant (csp, 4 timesteps) --");
    let mut problem = TestCase::Csp.build(args.scale, args.seed);
    problem.n_timesteps = 4;
    let atomic = run_baseline(&problem, Baseline::Atomic { threads, schedule });
    // The privatised run merges at the end of every timestep by
    // construction of the step loop.
    let privatized = run_baseline(&problem, Baseline::Privatized { threads, schedule });
    println!(
        "  atomic {} s, privatised+merge-each-step {} s -> ratio {:.3} \
         (paper: per-step merging made privatisation slower than atomics)",
        secs(atomic.elapsed),
        secs(privatized.elapsed),
        privatized.elapsed.as_secs_f64() / atomic.elapsed.as_secs_f64()
    );

    // Footprint blow-up arithmetic at paper scale.
    println!("\n-- paper-scale footprint arithmetic (4000^2 mesh) --");
    let cells = 4000usize * 4000;
    for t in [1usize, 44, 88, 256] {
        println!(
            "  {t:>3} threads: {:6.2} GB of privatised tally (paper quotes 0.3 GB -> 31 GB at 256)",
            (cells * t * 8) as f64 / 1e9
        );
    }
}
