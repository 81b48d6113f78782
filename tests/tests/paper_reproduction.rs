//! Regression suite for the paper's headline results.
//!
//! Each test measures real event counters at test scale, extrapolates to
//! the paper's problem size, projects onto the paper's machines with
//! `neutral-perf`, and asserts the published ratio within a tolerance
//! band. Bands are deliberately wide — the claim being regression-tested
//! is the paper's *shape* (who wins, by roughly what factor), not the
//! third significant digit of a model. The figure binaries
//! (`crates/bench/src/bin/fig*.rs`) print the modeled values.

use neutral_core::prelude::*;
use neutral_perf::arch::{BROADWELL_2S, K20X, KNL_7210_DRAM, KNL_7210_MCDRAM, P100, POWER8_2S};
use neutral_perf::calibrate::ModelParams;
use neutral_perf::model::{predict, predict_with, KernelProfile, SchemeKind};

fn profile(case: TestCase, scheme: Scheme) -> KernelProfile {
    let scale = ProblemScale::tiny();
    let problem = case.build(scale, 1234);
    let n = problem.n_particles;
    let report = Simulation::new(problem).run(RunOptions {
        scheme,
        execution: Execution::Sequential,
    });
    let kind = match scheme {
        Scheme::OverParticles => SchemeKind::OverParticles,
        Scheme::OverEvents => SchemeKind::OverEvents,
    };
    let rounds = report.kernel_timings.map_or(0, |t| t.rounds);
    KernelProfile::from_counters(kind, &report.counters, n, rounds).scaled(
        scale.particle_divisor as f64,
        4000.0 / scale.mesh_cells as f64,
    )
}

fn assert_band(label: &str, got: f64, paper: f64, lo: f64, hi: f64) {
    assert!(
        (lo..=hi).contains(&got),
        "{label}: model {got:.2} outside band [{lo}, {hi}] (paper {paper})"
    );
}

/// §VII / Figure 9, 11, 13: Over Particles beats Over Events — by ~4.6x
/// on Broadwell csp, ~3.8x on POWER8, ~3.6x on P100 — and "more than 2x
/// ... for our test cases and tested hardware" overall (§XI).
#[test]
fn over_particles_beats_over_events_on_csp() {
    let op = profile(TestCase::Csp, Scheme::OverParticles);
    let oe = profile(TestCase::Csp, Scheme::OverEvents);

    let bdw = predict(&oe, &BROADWELL_2S).total_s / predict(&op, &BROADWELL_2S).total_s;
    assert_band("BDW csp OE/OP", bdw, 4.56, 3.0, 7.0);

    let p8 = predict(&oe, &POWER8_2S).total_s / predict(&op, &POWER8_2S).total_s;
    assert_band("P8 csp OE/OP", p8, 3.75, 2.0, 6.0);

    let p100 = predict(&oe, &P100).total_s / predict(&op, &P100).total_s;
    assert_band("P100 csp OE/OP", p100, 3.64, 2.0, 6.0);

    let k20x = predict(&oe, &K20X).total_s / predict(&op, &K20X).total_s;
    assert!(k20x > 1.0, "K20X: OP must win csp ({k20x:.2})");
}

/// §VII-B / Figure 10: on KNL the Over-Events scheme loses csp by ~2.15x
/// but *wins* the scattering problem by ~1.73x (vectorised collisions +
/// MCDRAM), the paper's one scheme-crossover.
#[test]
fn knl_scheme_crossover() {
    let csp_op = profile(TestCase::Csp, Scheme::OverParticles);
    let csp_oe = profile(TestCase::Csp, Scheme::OverEvents);
    let sc_op = profile(TestCase::Scatter, Scheme::OverParticles);
    let sc_oe = profile(TestCase::Scatter, Scheme::OverEvents);

    let csp =
        predict(&csp_oe, &KNL_7210_MCDRAM).total_s / predict(&csp_op, &KNL_7210_MCDRAM).total_s;
    assert_band("KNL csp OE/OP", csp, 2.15, 1.2, 3.5);

    let scatter =
        predict(&sc_op, &KNL_7210_MCDRAM).total_s / predict(&sc_oe, &KNL_7210_MCDRAM).total_s;
    assert_band("KNL scatter OP/OE (OE wins)", scatter, 1.73, 1.2, 2.6);
}

/// §VII-B / Figure 10: moving the streaming-bound Over-Events scheme from
/// DRAM to MCDRAM is worth ~2.38x on csp; the latency-bound Over-Particles
/// scheme barely moves (the paper even measured DRAM slightly faster for
/// scatter, consistent with MCDRAM's higher latency).
#[test]
fn knl_mcdram_vs_dram() {
    let csp_oe = profile(TestCase::Csp, Scheme::OverEvents);
    let gain =
        predict(&csp_oe, &KNL_7210_DRAM).total_s / predict(&csp_oe, &KNL_7210_MCDRAM).total_s;
    assert_band("KNL OE csp DRAM/MCDRAM", gain, 2.38, 1.6, 4.0);

    let sc_op = profile(TestCase::Scatter, Scheme::OverParticles);
    let op_gain =
        predict(&sc_op, &KNL_7210_DRAM).total_s / predict(&sc_op, &KNL_7210_MCDRAM).total_s;
    assert!(
        op_gain < 1.15,
        "OP scatter must barely care about MCDRAM ({op_gain:.2})"
    );
}

/// §VIII / Figure 14: device ordering and the headline cross-device
/// speedups: P100 3.2x over dual Broadwell, 4.5x over K20X; Broadwell
/// 1.34x over POWER8; KNL beaten by the other architectures; K20X the
/// slowest device on csp among BDW/P8/K20X.
#[test]
fn figure14_device_ordering() {
    let op = profile(TestCase::Csp, Scheme::OverParticles);
    let bdw = predict(&op, &BROADWELL_2S).total_s;
    let knl = predict(&op, &KNL_7210_MCDRAM).total_s;
    let p8 = predict(&op, &POWER8_2S).total_s;
    let k20x = predict(&op, &K20X).total_s;
    let p100 = predict(&op, &P100).total_s;

    assert_band("P100 vs BDW", bdw / p100, 3.2, 2.2, 4.6);
    assert_band("P100 vs K20X", k20x / p100, 4.5, 3.2, 6.5);
    assert_band("BDW vs P8", p8 / bdw, 1.34, 1.0, 1.8);
    assert!(knl > bdw, "KNL must trail Broadwell");
    assert!(p100 < bdw.min(knl).min(p8).min(k20x), "P100 must win");
    assert!(
        k20x > bdw,
        "K20X should be the slowest non-KNL device on csp"
    );
}

/// §VI-E / Figure 6: hyperthreading gains — 1.37x Broadwell, 2.16x KNL,
/// 6.2x POWER8 SMT8 (we accept 4x+ for the POWER8's deep-SMT gain).
#[test]
fn hyperthreading_gains() {
    let params = ModelParams::default();
    let op = profile(TestCase::Csp, Scheme::OverParticles);

    let gain = |arch: &neutral_perf::Architecture, base: u32, full: u32| {
        predict_with(&op, arch, base, &params, None).total_s
            / predict_with(&op, arch, full, &params, None).total_s
    };

    assert_band("BDW SMT2", gain(&BROADWELL_2S, 44, 88), 1.37, 1.15, 1.9);
    assert_band("KNL SMT4", gain(&KNL_7210_MCDRAM, 64, 256), 2.16, 1.6, 3.0);
    assert_band("P8 SMT8", gain(&POWER8_2S, 20, 160), 6.2, 3.5, 8.5);

    // Oversubscription beyond hardware threads: minor improvement for
    // neutral (§VI-E).
    let over = gain(&BROADWELL_2S, 88, 176);
    assert!(
        over > 1.0 && over < 1.3,
        "oversubscription should be mildly positive ({over:.2})"
    );
}

/// §VII-A / §VI-H / §VII-E: GPU atomics and register pressure.
#[test]
fn gpu_atomics_and_registers() {
    let params = ModelParams::default();
    let op = profile(TestCase::Csp, Scheme::OverParticles);

    // Native f64 atomicAdd worth ~1.20x on P100.
    let mut cas_p100 = P100;
    cas_p100.has_native_f64_atomic = false;
    let atomic_gain = predict(&op, &cas_p100).total_s / predict(&op, &P100).total_s;
    assert_band("P100 atomic intrinsic", atomic_gain, 1.20, 1.05, 1.4);

    // K20X: capping 102 -> 64 registers is worth ~1.6x.
    let reg_gain =
        predict_with(&op, &K20X, 0, &params, Some(255)).total_s / predict(&op, &K20X).total_s;
    assert_band("K20X register cap", reg_gain, 1.6, 1.2, 2.0);

    // P100: the same cap *hurts* (~1.07x slower).
    let reg_pain =
        predict_with(&op, &P100, 0, &params, Some(64)).total_s / predict(&op, &P100).total_s;
    assert_band("P100 register cap slowdown", reg_pain, 1.07, 1.0, 1.2);
}

/// §VII-D/E: achieved-bandwidth shape — the random-access Over-Particles
/// kernel uses a small fraction of GPU bandwidth; the streaming
/// Over-Events kernels use a much larger fraction; and neither CPU scheme
/// saturates Broadwell's bandwidth (the paper: "not bound by memory
/// bandwidth").
#[test]
fn bandwidth_utilisation_shape() {
    let op = profile(TestCase::Csp, Scheme::OverParticles);
    let oe = profile(TestCase::Csp, Scheme::OverEvents);

    let k20x_op = predict(&op, &K20X);
    let k20x_oe = predict(&oe, &K20X);
    let op_frac = k20x_op.implied_bw_gbs / K20X.peak_bw_gbs;
    let oe_frac = k20x_oe.implied_bw_gbs / K20X.peak_bw_gbs;
    assert!(
        op_frac < 0.45,
        "OP must not look bandwidth-bound ({op_frac:.2})"
    );
    assert!(
        oe_frac > op_frac * 1.5,
        "OE must use the memory system harder ({oe_frac:.2} vs {op_frac:.2})"
    );

    let bdw_op = predict(&op, &BROADWELL_2S);
    assert!(
        bdw_op.implied_bw_gbs < 0.8 * BROADWELL_2S.peak_bw_gbs,
        "CPU OP must not saturate bandwidth"
    );
}
