//! Figure 9: Over Particles vs Over Events on dual-socket Broadwell
//! (88 threads), all three test problems.
//!
//! The paper's result: Over Particles wins every case, by 4.56x on csp —
//! the atomics conflict less often, state is cached in registers, and
//! vectorisation buys nothing against the latency wall (§VII-A).
//!
//! The Broadwell axis is modeled (no such machine here); a measured
//! host-scheme comparison is printed alongside as ground truth for the
//! *shape* (who wins).

use neutral_bench::*;
use neutral_core::prelude::*;
use neutral_perf::arch::BROADWELL_2S;
use neutral_perf::model::predict;

fn main() {
    let args = HarnessArgs::from_env();
    banner(
        "Figure 9",
        "OP vs OE on Broadwell 2S (E5-2699 v4, 88 threads)",
        "modeled from measured event counters; host measurement shown for shape",
    );

    let mut rows = Vec::new();
    for case in TestCase::ALL {
        let op = paper_profile(case, Scheme::OverParticles, &args);
        let oe = paper_profile(case, Scheme::OverEvents, &args);
        let t_op = predict(&op, &BROADWELL_2S).total_s;
        let t_oe = predict(&oe, &BROADWELL_2S).total_s;

        // Host ground truth for the shape.
        let h_op = run_median(
            case,
            RunOptions {
                execution: Execution::Rayon,
                ..Default::default()
            },
            &args,
        )
        .elapsed
        .as_secs_f64();
        let h_oe = run_median(
            case,
            RunOptions {
                scheme: Scheme::OverEvents,
                execution: Execution::Rayon,
            },
            &args,
        )
        .elapsed
        .as_secs_f64();

        rows.push(vec![
            case.name().to_owned(),
            format!("{t_op:.1}"),
            format!("{t_oe:.1}"),
            format!("{:.2}", t_oe / t_op),
            format!("{:.2}", h_oe / h_op),
        ]);
    }
    print_table(
        &[
            "problem",
            "OP modeled (s)",
            "OE modeled (s)",
            "OE/OP model",
            "OE/OP host",
        ],
        &rows,
    );
    println!("\nPaper: OP fastest in all cases; csp ratio 4.56x.");
}
