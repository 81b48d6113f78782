//! Figure 3: parallel efficiency of neutral (both schemes) vs the `flow`
//! and `hot` comparators as thread count increases.
//!
//! Part 1 measures real efficiency curves on this host (Over-Particles as
//! the paper ran it — particle-granular schedule into the shared atomic
//! tally, `neutral_bench::baseline` — Over-Events via Rayon pools,
//! flow/hot via Rayon pools). Part 2 projects the curves onto the
//! paper's dual-socket Broadwell and POWER8 with the architecture model,
//! reproducing the NUMA-crossing drop (Broadwell, thread 23+) and the
//! POWER8 cluster step functions at threads 6 and 11.

use neutral_bench::baseline::{median_baseline, Baseline};
use neutral_bench::*;
use neutral_core::prelude::*;
use neutral_perf::arch::{BROADWELL_2S, POWER8_2S};
use neutral_perf::calibrate::ModelParams;
use neutral_perf::scaling::{efficiency_curve, flow_efficiency_curve, FlowWorkload};
use neutral_proxies::{flow, hot};
use std::time::Instant;

fn main() {
    let args = HarnessArgs::from_env();
    banner(
        "Figure 3",
        "parallel efficiency vs thread count: neutral (OP, OE) vs flow/hot",
        "part 1 measured on this host; part 2 modeled on Broadwell 2S + POWER8 2S",
    );

    // ---------- Part 1: measured on this host ----------
    let max_t = host_threads();
    let ladder = thread_ladder(max_t);
    println!("\n-- measured on this host ({max_t} logical CPUs), csp problem --");

    let csp = TestCase::Csp.build(args.scale, args.seed);
    let mut rows = Vec::new();
    let mut baselines: Option<(f64, f64, f64, f64)> = None;
    for &t in &ladder {
        // Over Particles, explicit scheduler, dynamic chunks.
        let op = Baseline::Atomic {
            threads: t,
            schedule: Schedule::Dynamic { chunk: 64 },
        };
        let op = median_baseline(&csp, op, args.reps).elapsed.as_secs_f64();

        // Over Events on a Rayon pool of exactly t threads.
        let oe = with_pool(t, || {
            run_median(
                TestCase::Csp,
                RunOptions {
                    scheme: Scheme::OverEvents,
                    execution: if t == 1 {
                        Execution::Sequential
                    } else {
                        Execution::Rayon
                    },
                },
                &args,
            )
        })
        .elapsed
        .as_secs_f64();

        // flow: fixed hydro workload.
        let fl = with_pool(t, || {
            let start = Instant::now();
            let _ = flow::run_flow_workload(512, 512, 10, t > 1);
            start.elapsed().as_secs_f64()
        });

        // hot: fixed CG workload.
        let ht = with_pool(t, || {
            let start = Instant::now();
            let _ = hot::run_hot_workload(512, 512, t > 1);
            start.elapsed().as_secs_f64()
        });

        let (b_op, b_oe, b_fl, b_ht) = *baselines.get_or_insert((op, oe, fl, ht));
        let eff = |base: f64, now: f64| base / (t as f64 * now);
        rows.push(vec![
            t.to_string(),
            format!("{:.3}", eff(b_op, op)),
            format!("{:.3}", eff(b_oe, oe)),
            format!("{:.3}", eff(b_fl, fl)),
            format!("{:.3}", eff(b_ht, ht)),
        ]);
    }
    print_table(
        &[
            "threads",
            "neutral-OP eff",
            "neutral-OE eff",
            "flow eff",
            "hot eff",
        ],
        &rows,
    );

    // ---------- Part 2: modeled on the paper's machines ----------
    let params = ModelParams::default();
    let op_profile = paper_profile(TestCase::Csp, Scheme::OverParticles, &args);
    let oe_profile = paper_profile(TestCase::Csp, Scheme::OverEvents, &args);
    let flow_work = FlowWorkload::representative();

    for arch in [&BROADWELL_2S, &POWER8_2S] {
        println!("\n-- modeled: {} --", arch.name);
        let threads: Vec<u32> = (1..=arch.cores).collect();
        let op_eff = efficiency_curve(&op_profile, arch, &threads, &params);
        let oe_eff = efficiency_curve(&oe_profile, arch, &threads, &params);
        let fl_eff = flow_efficiency_curve(&flow_work, arch, &threads, &params);
        let rows: Vec<Vec<String>> = threads
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                // Print a readable subset: every thread up to 12, then steps.
                *i < 12 || (i + 1) % 4 == 0
            })
            .map(|(i, &t)| {
                vec![
                    t.to_string(),
                    format!("{:.3}", op_eff[i]),
                    format!("{:.3}", oe_eff[i]),
                    format!("{:.3}", fl_eff[i]),
                ]
            })
            .collect();
        print_table(&["threads", "neutral-OP", "neutral-OE", "flow"], &rows);
    }

    println!(
        "\nShape checks vs paper: efficiency drops crossing the Broadwell socket \
         boundary (22->23); POWER8 shows steps at threads 6 and 11; flow decays \
         once bandwidth saturates while neutral stays higher on one socket."
    );
}
