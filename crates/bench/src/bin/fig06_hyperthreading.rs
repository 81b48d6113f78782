//! Figure 6: hyperthreading and thread oversubscription.
//!
//! The paper's measurements: neutral gains 1.37x from hyperthreads on
//! Broadwell, 2.16x (csp) on KNL at 4 threads/core, and 6.2x on POWER8 at
//! SMT8; oversubscribing beyond logical cores gives a further *minor*
//! improvement (§VI-E). flow, being bandwidth bound, gains nothing from
//! hyperthreads and loses ~1.2x when oversubscribed.
//!
//! Part 1 measures a thread sweep through and beyond this host's logical
//! CPU count for neutral and flow. Part 2 reports the modeled SMT gains on
//! the paper's three CPUs.

use neutral_bench::baseline::{median_baseline, Baseline};
use neutral_bench::*;
use neutral_core::prelude::*;
use neutral_perf::arch::{BROADWELL_2S, KNL_7210_MCDRAM, POWER8_2S};
use neutral_perf::calibrate::ModelParams;
use neutral_perf::model::predict_with;
use neutral_perf::scaling::{flow_time, FlowWorkload};
use neutral_proxies::flow;
use std::time::Instant;

fn main() {
    let args = HarnessArgs::from_env();
    banner(
        "Figure 6",
        "hyperthreading / oversubscription sweep, csp",
        "part 1 measured on this host; part 2 modeled on BDW/KNL/P8",
    );

    let max_t = host_threads();
    let sweep: Vec<usize> = {
        let mut v = thread_ladder(max_t);
        v.push(max_t * 2); // oversubscription point
        v
    };

    println!("\n-- measured on this host ({max_t} logical CPUs) --");
    let csp = TestCase::Csp.build(args.scale, args.seed);
    let mut rows = Vec::new();
    for &t in &sweep {
        let neutral = Baseline::Atomic {
            threads: t,
            schedule: Schedule::Dynamic { chunk: 64 },
        };
        let neutral = median_baseline(&csp, neutral, args.reps)
            .elapsed
            .as_secs_f64();
        let fl = with_pool(t.min(max_t * 4), || {
            let start = Instant::now();
            let _ = flow::run_flow_workload(512, 512, 10, t > 1);
            start.elapsed().as_secs_f64()
        });
        rows.push(vec![
            format!("{t}{}", if t > max_t { " (oversub)" } else { "" }),
            format!("{neutral:.3}"),
            format!("{fl:.3}"),
        ]);
    }
    print_table(&["threads", "neutral csp (s)", "flow (s)"], &rows);

    // ---------- modeled SMT gains ----------
    println!("\n-- modeled SMT gains on the paper's CPUs (csp, Over Particles) --");
    let params = ModelParams::default();
    let profile = paper_profile(TestCase::Csp, Scheme::OverParticles, &args);
    let flow_work = FlowWorkload::representative();

    let mut rows = Vec::new();
    for (arch, paper_gain) in [
        (&BROADWELL_2S, 1.37),
        (&KNL_7210_MCDRAM, 2.16),
        (&POWER8_2S, 6.2),
    ] {
        let one_per_core = predict_with(&profile, arch, arch.cores, &params, None).total_s;
        let full_smt = predict_with(&profile, arch, arch.max_threads(), &params, None).total_s;
        let over = predict_with(&profile, arch, arch.max_threads() * 2, &params, None).total_s;
        let flow_hw = flow_time(&flow_work, arch, arch.max_threads(), &params);
        let flow_over = flow_time(&flow_work, arch, arch.max_threads() * 2, &params);
        rows.push(vec![
            arch.name.to_owned(),
            format!("{:.2}", one_per_core / full_smt),
            format!("{paper_gain:.2}"),
            format!("{:.3}", full_smt / over),
            format!("{:.2}", flow_over / flow_hw),
        ]);
    }
    print_table(
        &[
            "architecture",
            "SMT gain (model)",
            "SMT gain (paper)",
            "oversub gain (model)",
            "flow oversub penalty",
        ],
        &rows,
    );
    println!(
        "\nShape: neutral gains substantially from SMT everywhere (deep SMT on\n\
         POWER8 gains most), oversubscription is mildly positive for neutral,\n\
         and flow pays ~1.2x for oversubscription."
    );
}
