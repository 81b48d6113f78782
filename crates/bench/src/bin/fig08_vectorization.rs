//! Figure 8: where the Over-Events time goes per kernel, and what vector
//! units could buy.
//!
//! The paper restructured the Over-Events loops so the compiler could
//! vectorise them — notably hoisting the atomic tally updates into a
//! separate loop — and measured per-method speedups: on the Xeon only the
//! facet events benefited; the KNL benefited for all methods (§VI-G).
//!
//! Part 1 measures the per-kernel shares of the lane-local round loops
//! on this host — busy time, summed over lanes — for a facet-heavy
//! (stream) and a collision-heavy (scatter) problem. Part 2 models the KNL's AVX-512 advantage with the
//! architecture model's vector-efficiency term. The restructured and
//! explicit-SIMD kernels this figure once timed against the scalar ones
//! tied or lost on every shape and were removed; their measured rows are
//! on record in `bench/history/BENCH_PR10.json` and DESIGN.md §19.
//!
//! `--quick` runs a seconds-scale smoke sweep (used by CI); `--json PATH`
//! additionally writes the measurements as a machine-readable
//! [`neutral_bench::report::BenchReport`].

use neutral_bench::report::{BenchRecord, BenchReport};
use neutral_bench::*;
use neutral_core::prelude::*;
use neutral_perf::arch::{BROADWELL_2S, KNL_7210_MCDRAM};
use neutral_perf::calibrate::ModelParams;
use neutral_perf::model::predict;

fn kernel_rows(case: TestCase, args: &HarnessArgs, report: &mut BenchReport) -> Vec<Vec<String>> {
    let r = run_median(
        case,
        RunOptions {
            scheme: Scheme::OverEvents,
            ..Default::default()
        },
        args,
    );
    let t = r.kernel_timings.expect("OE reports timings");
    let total = t.total().as_secs_f64().max(1e-9);
    let kernels = [
        ("decide (distances)", "decide_s", t.decide),
        ("collision", "collision_s", t.collision),
        ("facet", "facet_s", t.facet),
        ("tally flush", "tally_s", t.tally),
    ];
    let mut record = BenchRecord::new(format!("oe/{}", case.name()))
        .config("part", "kernel_shares")
        .config("case", case.name())
        .metric("elapsed_s", r.elapsed.as_secs_f64())
        .metric("events_per_s", r.events_per_second());
    let mut rows = Vec::new();
    for (name, metric, d) in kernels {
        record = record.metric(metric, d.as_secs_f64());
        rows.push(vec![
            case.name().to_owned(),
            name.to_owned(),
            format!("{:.3}", d.as_secs_f64()),
            format!("{:.0}%", 100.0 * d.as_secs_f64() / total),
        ]);
    }
    report.push(record);
    rows
}

fn main() {
    let args = HarnessArgs::from_env();
    let mut report = BenchReport::new("fig08_vectorization");
    report.note(format!(
        "scale={}x{} mesh, particle_div={}, reps={}, seed={}",
        args.scale.mesh_cells,
        args.scale.mesh_cells,
        args.scale.particle_divisor,
        args.reps,
        args.seed
    ));
    banner(
        "Figure 8",
        "per-kernel time shares + modeled vectorisation, Over Events",
        "part 1 measured on this host; part 2 modeled (KNL AVX-512 vs scalar)",
    );

    println!("\n-- measured per-kernel busy times (summed over lanes) --");
    let mut rows = Vec::new();
    rows.extend(kernel_rows(TestCase::Stream, &args, &mut report));
    rows.extend(kernel_rows(TestCase::Scatter, &args, &mut report));
    print_table(&["problem", "kernel", "busy (s)", "share"], &rows);

    println!("\n-- modeled whole-scheme vectorisation effect --");
    let params = ModelParams::default();
    let oe = paper_profile(TestCase::Csp, Scheme::OverEvents, &args);
    let mut scalar_params = params;
    scalar_params.oe_simd_fraction = 0.0;

    let mut rows = Vec::new();
    for arch in [&BROADWELL_2S, &KNL_7210_MCDRAM] {
        let vec_t = predict(&oe, arch).total_s;
        let scl_t = {
            use neutral_perf::model::predict_with;
            predict_with(&oe, arch, arch.max_threads(), &scalar_params, None).total_s
        };
        rows.push(vec![
            arch.name.to_owned(),
            format!("{scl_t:.2}"),
            format!("{vec_t:.2}"),
            format!("{:.2}", scl_t / vec_t),
        ]);
    }
    print_table(
        &[
            "architecture",
            "unvectorised (s)",
            "vectorised (s)",
            "speedup",
        ],
        &rows,
    );
    println!(
        "\nShape: restructuring buys little on a 4-wide AVX2 CPU whose runs are\n\
         latency-bound (paper: only facets improved), while the KNL's 8-wide\n\
         AVX-512 with MCDRAM benefits substantially (paper: all methods)."
    );

    if let Some(path) = &args.json {
        report.write(path).expect("write --json report");
        println!("\nmachine-readable report written to {path}");
    }
}
