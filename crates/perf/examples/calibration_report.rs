//! Calibration report: measures real event counters at test scale,
//! extrapolates to paper scale, and prints every headline ratio the model
//! must reproduce, next to the paper's value.
//!
//! Run with `cargo run -p neutral-perf --release --example calibration_report`.

use neutral_core::prelude::*;
use neutral_perf::arch::{BROADWELL_2S, K20X, KNL_7210_DRAM, KNL_7210_MCDRAM, P100, POWER8_2S};
use neutral_perf::calibrate::ModelParams;
use neutral_perf::model::{predict, predict_with, KernelProfile, SchemeKind};

fn profiles(case: TestCase) -> (KernelProfile, KernelProfile) {
    let scale = ProblemScale::tiny();
    let problem = case.build(scale, 1234);
    let sim = Simulation::new(problem);

    let op = sim.run(RunOptions {
        scheme: Scheme::OverParticles,
        execution: Execution::Sequential,
    });
    let oe = sim.run(RunOptions {
        scheme: Scheme::OverEvents,
        execution: Execution::Sequential,
    });

    let particle_mult = scale.particle_divisor as f64;
    let mesh_mult = 4000.0 / scale.mesh_cells as f64;
    let n = sim.problem().n_particles;
    let rounds = oe.kernel_timings.map_or(0, |t| t.rounds);
    (
        KernelProfile::from_counters(SchemeKind::OverParticles, &op.counters, n, 0)
            .scaled(particle_mult, mesh_mult),
        KernelProfile::from_counters(SchemeKind::OverEvents, &oe.counters, n, rounds)
            .scaled(particle_mult, mesh_mult),
    )
}

fn main() {
    let params = ModelParams::default();
    println!("== measured per-history event mix (paper-scale extrapolation) ==");
    let mut all = Vec::new();
    for case in TestCase::ALL {
        let (op, oe) = profiles(case);
        println!(
            "{:8}  facets/h {:8.1}  collisions/h {:6.1}  rounds {:8.0}",
            case.name(),
            op.facets / op.n_particles,
            op.collisions / op.n_particles,
            oe.oe_rounds,
        );
        all.push((case, op, oe));
    }

    println!("\n== absolute predicted runtimes (s, paper scale) ==");
    println!(
        "{:8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "case", "BDW op/oe", "KNLm op/oe", "KNLd op/oe", "P8 op/oe", "K20X op/oe", "P100 op/oe"
    );
    for (case, op, oe) in &all {
        let mut row = format!("{:8}", case.name());
        for a in [
            &BROADWELL_2S,
            &KNL_7210_MCDRAM,
            &KNL_7210_DRAM,
            &POWER8_2S,
            &K20X,
            &P100,
        ] {
            row += &format!(
                " {:5.1}/{:5.1}",
                predict(op, a).total_s,
                predict(oe, a).total_s
            );
        }
        println!("{row}");
    }

    let (_, csp_op, csp_oe) = &all[2];
    let (_, sc_op, sc_oe) = &all[1];

    println!("\n== headline ratios: model vs paper ==");
    let r = |label: &str, got: f64, want: f64| {
        println!("{label:52} model {got:6.2}  paper {want:5.2}");
    };

    r(
        "BDW csp: OE/OP (OP faster)",
        predict(csp_oe, &BROADWELL_2S).total_s / predict(csp_op, &BROADWELL_2S).total_s,
        4.56,
    );
    r(
        "P8 csp: OE/OP",
        predict(csp_oe, &POWER8_2S).total_s / predict(csp_op, &POWER8_2S).total_s,
        3.75,
    );
    r(
        "P100 csp: OE/OP",
        predict(csp_oe, &P100).total_s / predict(csp_op, &P100).total_s,
        3.64,
    );
    r(
        "KNL(MCDRAM) csp: OE/OP (OE slower)",
        predict(csp_oe, &KNL_7210_MCDRAM).total_s / predict(csp_op, &KNL_7210_MCDRAM).total_s,
        2.15,
    );
    r(
        "KNL(MCDRAM) scatter: OP/OE (OE faster)",
        predict(sc_op, &KNL_7210_MCDRAM).total_s / predict(sc_oe, &KNL_7210_MCDRAM).total_s,
        1.73,
    );
    r(
        "KNL OE csp: DRAM/MCDRAM (MCDRAM faster)",
        predict(csp_oe, &KNL_7210_DRAM).total_s / predict(csp_oe, &KNL_7210_MCDRAM).total_s,
        2.38,
    );
    r(
        "KNL OP scatter: MCDRAM/DRAM (DRAM slightly faster)",
        predict(sc_op, &KNL_7210_MCDRAM).total_s / predict(sc_op, &KNL_7210_DRAM).total_s,
        1.05,
    );
    r(
        "csp OP: BDW/P100 (P100 faster)",
        predict(csp_op, &BROADWELL_2S).total_s / predict(csp_op, &P100).total_s,
        3.2,
    );
    r(
        "csp OP: K20X/P100",
        predict(csp_op, &K20X).total_s / predict(csp_op, &P100).total_s,
        4.5,
    );
    r(
        "csp OP: P8/BDW (BDW faster)",
        predict(csp_op, &POWER8_2S).total_s / predict(csp_op, &BROADWELL_2S).total_s,
        1.34,
    );
    r(
        "csp OP: K20X/BDW (K20X slowest non-KNL)",
        predict(csp_op, &K20X).total_s / predict(csp_op, &BROADWELL_2S).total_s,
        1.45,
    );

    println!("\n-- hyperthreading (csp, OP) --");
    r(
        "BDW 88t vs 44t",
        predict_with(csp_op, &BROADWELL_2S, 44, &params, None).total_s
            / predict_with(csp_op, &BROADWELL_2S, 88, &params, None).total_s,
        1.37,
    );
    r(
        "KNL 256t vs 64t",
        predict_with(csp_op, &KNL_7210_MCDRAM, 64, &params, None).total_s
            / predict_with(csp_op, &KNL_7210_MCDRAM, 256, &params, None).total_s,
        2.16,
    );
    r(
        "P8 160t vs 20t",
        predict_with(csp_op, &POWER8_2S, 20, &params, None).total_s
            / predict_with(csp_op, &POWER8_2S, 160, &params, None).total_s,
        6.2,
    );

    println!("\n-- GPU details (csp, OP) --");
    let mut p100_cas = P100;
    p100_cas.has_native_f64_atomic = false;
    r(
        "P100 native atomic gain",
        predict(csp_op, &p100_cas).total_s / predict(csp_op, &P100).total_s,
        1.20,
    );
    r(
        "K20X reg cap 64 speedup",
        predict_with(csp_op, &K20X, 0, &params, Some(255)).total_s / predict(csp_op, &K20X).total_s,
        1.6,
    );
    r(
        "P100 reg cap 64 slowdown",
        predict_with(csp_op, &P100, 0, &params, Some(64)).total_s / predict(csp_op, &P100).total_s,
        1.07,
    );
    let k20x_op = predict(csp_op, &K20X);
    let k20x_oe = predict(csp_oe, &K20X);
    let p100_op = predict(csp_op, &P100);
    println!(
        "K20X implied bandwidth OP {:5.1} GB/s (paper ~35), OE {:5.1} (paper ~90); P100 OP {:5.1} (paper ~125)",
        k20x_op.implied_bw_gbs, k20x_oe.implied_bw_gbs, p100_op.implied_bw_gbs
    );
}
