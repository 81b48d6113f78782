//! Hand-rolled property tests across the workspace: randomised problems
//! and inputs, invariant assertions. Inputs come from the deterministic
//! [`neutral_integration::Gen`] harness (see `tests/src/lib.rs`), so a
//! failing case index reproduces exactly.

use neutral_core::prelude::*;
use neutral_core::scheduler::{parallel_for, parallel_for_owned, Schedule};
use neutral_core::validate::population_balance;
use neutral_integration::{for_cases, Gen};
use neutral_mesh::accum::pairwise_sum;
use neutral_mesh::{Rect, StructuredMesh2D, TallyAccum, TallyStrategy};
use neutral_xs::{CrossSectionLibrary, SynthParams, XsHints};
use std::sync::atomic::{AtomicU32, Ordering};

fn arbitrary_problem(g: &mut Gen) -> Problem {
    let n = g.usize_in(8, 40);
    let regime = g.usize_in(0, 3);
    let seed = 1 + g.usize_in(0, 999) as u64;
    let particles = g.usize_in(20, 120);
    let sx = g.f64_in(0.05, 0.7);
    let sy = g.f64_in(0.05, 0.7);

    let rho = match regime {
        0 => 1.0e-30,
        1 => 1.0e3,
        _ => 0.05,
    };
    let mut mesh = StructuredMesh2D::uniform(n, n, 1.0, 1.0, rho);
    if regime == 2 {
        mesh.set_region(Rect::new(0.4, 0.6, 0.4, 0.6), 1.0e3);
    }
    Problem {
        mesh,
        materials: neutral_xs::MaterialSet::single(CrossSectionLibrary::synthetic(512, seed)),
        source: Rect::new(sx, sx + 0.2, sy, sy + 0.2),
        n_particles: particles,
        dt: 1.0e-7,
        n_timesteps: 1,
        seed,
        initial_energy_ev: 1.0e6,
        transport: TransportConfig::default(),
    }
}

/// Any random problem conserves its population, keeps particles in the
/// domain, deposits non-negative energy and never trips the runaway
/// guard.
#[test]
fn random_problems_hold_invariants() {
    for_cases(24, |g| {
        let problem = arbitrary_problem(g);
        let n = problem.n_particles;
        let r = Simulation::new(problem).run(RunOptions {
            execution: Execution::Sequential,
            ..Default::default()
        });
        assert!(population_balance(n as u64, &r.counters));
        assert_eq!(r.counters.stuck, 0);
        assert!(r.tally.iter().all(|&v| v >= 0.0 && v.is_finite()));
        assert!(r.energy_balance().weak_invariants_hold());
    });
}

/// Scheme equivalence holds for random problems, not just the three
/// canonical cases.
#[test]
fn random_problems_scheme_equivalence() {
    for_cases(24, |g| {
        let problem = arbitrary_problem(g);
        let sim = Simulation::new(problem);
        let op = sim.run(RunOptions {
            execution: Execution::Sequential,
            ..Default::default()
        });
        let oe = sim.run(RunOptions {
            scheme: Scheme::OverEvents,
            execution: Execution::Sequential,
        });
        assert_eq!(op.counters.collisions, oe.counters.collisions);
        assert_eq!(op.counters.facets, oe.counters.facets);
        assert_eq!(op.counters.deaths, oe.counters.deaths);
        let (a, b) = (op.tally_total(), oe.tally_total());
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(1e-30),
            "tallies {a} vs {b}"
        );
    });
}

/// Every lookup backend agrees **bitwise** with the binary-search
/// baseline for any synthetic table and any energy or hint, including
/// energies outside the tabulated range — and leaves the hint at the
/// clamped containing bin.
#[test]
fn all_lookup_backends_equal_binary() {
    for_cases(200, |g| {
        let points = g.usize_in(8, 600);
        let seed = g.usize_in(0, 5000) as u64;
        let e = 10f64.powf(g.f64_in(-6.0, 7.5));
        let hint = g.usize_in(0, 600) as u32;

        let lib = CrossSectionLibrary::synthetic(points, seed);
        let expect_a = lib.absorb.value_binary(e);
        let expect_s = lib.scatter.value_binary(e);
        let expect_hint_a = lib.absorb.bin_index_binary(e) as u32;
        let expect_hint_s = lib.scatter.bin_index_binary(e) as u32;

        for strategy in LookupStrategy::ALL {
            let mut hints = XsHints {
                absorb: hint,
                scatter: hint / 2,
            };
            let (micro, _steps) = lib.lookup_with(strategy, e, &mut hints);
            assert_eq!(
                micro.absorb_barns.to_bits(),
                expect_a.to_bits(),
                "{strategy:?} absorb at E={e}, {points} pts, seed {seed}"
            );
            assert_eq!(
                micro.scatter_barns.to_bits(),
                expect_s.to_bits(),
                "{strategy:?} scatter at E={e}, {points} pts, seed {seed}"
            );
            assert_eq!(
                (hints.absorb, hints.scatter),
                (expect_hint_a, expect_hint_s),
                "{strategy:?} hint state at E={e}"
            );
        }
    });
}

/// The batched lane-block API produces exactly the per-call results for
/// random tables and random energy blocks.
#[test]
fn batched_lookup_equals_scalar() {
    for_cases(20, |g| {
        let points = g.usize_in(16, 1000);
        let seed = g.usize_in(0, 1000) as u64;
        let lib = CrossSectionLibrary::synthetic(points, seed);
        let n = g.usize_in(1, 200);
        let energies: Vec<f64> = (0..n).map(|_| g.log_uniform(1.0e-6, 1.0e8)).collect();
        for strategy in LookupStrategy::ALL {
            let mut ha = vec![0u32; n];
            let mut hs = vec![0u32; n];
            let mut oa = vec![0.0; n];
            let mut os = vec![0.0; n];
            lib.lookup_many_with(strategy, &energies, &mut ha, &mut hs, &mut oa, &mut os);
            for i in 0..n {
                let mut hints = XsHints::default();
                let (micro, _) = lib.lookup_with(strategy, energies[i], &mut hints);
                assert_eq!(
                    micro.absorb_barns.to_bits(),
                    oa[i].to_bits(),
                    "{strategy:?}"
                );
                assert_eq!(
                    micro.scatter_barns.to_bits(),
                    os[i].to_bits(),
                    "{strategy:?}"
                );
                assert_eq!(
                    (hints.absorb, hints.scatter),
                    (ha[i], hs[i]),
                    "{strategy:?}"
                );
            }
        }
    });
}

/// Synthetic tables are strictly positive and monotone-graded: capture at
/// thermal energies exceeds capture at MeV energies.
#[test]
fn synthetic_tables_shape() {
    for_cases(24, |g| {
        let points = g.usize_in(64, 512);
        let seed = g.usize_in(0, 1000) as u64;
        let p = SynthParams::default();
        let capture = neutral_xs::synthetic_capture(points, seed, &p);
        assert!(capture.values().iter().all(|&v| v > 0.0));
        assert!(capture.value_binary(1e-3) > capture.value_binary(1e6));
    });
}

/// Generate a random per-lane deposit script: for each lane, an ordered
/// list of `(cell, value)` deposits (values spread over many decades so
/// that summation order genuinely matters in `f64`).
fn arbitrary_deposits(g: &mut Gen, lanes: usize, cells: usize) -> Vec<Vec<(usize, f64)>> {
    (0..lanes)
        .map(|_| {
            let n = g.usize_in(0, 400);
            (0..n)
                .map(|_| (g.usize_in(0, cells), g.log_uniform(1.0e-9, 1.0e9)))
                .collect()
        })
        .collect()
}

/// Random per-lane partial deposits folded under shuffled lane-processing
/// orders (and worker counts) must produce bitwise-identical meshes for
/// the deterministic backend — the deterministic-merge invariant. Each
/// lane is opened and closed on the worker that takes it, so the fold
/// runs on the workers, in whatever order the lanes finish.
#[test]
fn deterministic_merge_shuffle_invariance() {
    for_cases(24, |g| {
        let cells = g.usize_in(4, 200);
        let lanes = g.usize_in(1, 12);
        let deposits = arbitrary_deposits(g, lanes, cells);
        let workers = [1, g.usize_in(2, 9), g.usize_in(2, 9)];

        let mut merged: Vec<Vec<f64>> = Vec::new();
        for (round, &n_threads) in workers.iter().enumerate() {
            let accum = TallyAccum::new(TallyStrategy::Replicated, cells, lanes);
            // Shuffle which lane is processed when by scheduling the
            // lanes dynamically over the workers; the fold must not care.
            let mut order: Vec<usize> = accum.lanes().collect();
            // Vary the schedule between rounds too.
            let schedule = if round % 2 == 0 {
                Schedule::Dynamic { chunk: 1 }
            } else {
                Schedule::Guided { min_chunk: 1 }
            };
            parallel_for_owned(n_threads, schedule, &mut order, |_, lane| {
                let mut view = accum.open(*lane);
                for &(cell, value) in &deposits[*lane] {
                    view.add(cell, value);
                }
            });
            merged.push(accum.merge());
        }
        for other in &merged[1..] {
            assert!(
                merged[0]
                    .iter()
                    .zip(other)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "merge depends on worker count / interleaving"
            );
        }
    });
}

/// The atomic backend agrees with the replicated merge to reassociation
/// error on any deposit script.
#[test]
fn backends_cross_agree_on_random_deposits() {
    for_cases(24, |g| {
        let cells = g.usize_in(4, 120);
        let lanes = g.usize_in(1, 8);
        let deposits = arbitrary_deposits(g, lanes, cells);
        let mut merged = Vec::new();
        for strategy in TallyStrategy::ALL {
            let mut accum = TallyAccum::new(strategy, cells, lanes);
            for (lane, mut view) in accum.lane_views().into_iter().enumerate() {
                for &(cell, value) in &deposits[lane] {
                    view.add(cell, value);
                }
            }
            merged.push(accum.merge());
        }
        let [atomic, replicated] = &merged[..] else {
            unreachable!()
        };
        let total = pairwise_sum(replicated);
        for (c, (a, b)) in atomic.iter().zip(replicated).enumerate() {
            let scale = b.abs().max(total.abs() * 1e-12).max(1e-30);
            assert!(((a - b) / scale).abs() < 1e-9, "cell {c}: {a} vs {b}");
        }
    });
}

/// Every schedule policy covers every index exactly once for random
/// shapes.
#[test]
fn scheduler_exact_coverage() {
    for_cases(24, |g| {
        let n = g.usize_in(0, 3000);
        let threads = g.usize_in(1, 9);
        let chunk = g.usize_in(1, 100);
        let schedule = match g.usize_in(0, 5) {
            0 => Schedule::Static { chunk: None },
            1 => Schedule::Static { chunk: Some(chunk) },
            2 => Schedule::Dynamic { chunk },
            3 => Schedule::Guided { min_chunk: chunk },
            _ => Schedule::Dynamic { chunk: 1 },
        };
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        parallel_for(threads, n, schedule, |_t, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    });
}

/// Mesh point-location and facet-crossing arithmetic agree for random
/// geometry.
#[test]
fn mesh_locate_and_crossing() {
    for_cases(50, |g| {
        let nx = g.usize_in(1, 50);
        let ny = g.usize_in(1, 50);
        let mesh = StructuredMesh2D::uniform(nx, ny, 2.0, 3.0, 1.0);
        let x = 2.0 * g.f64_unit();
        let y = 3.0 * g.f64_unit();
        let (ix, iy) = mesh.locate(x, y);
        assert!(ix < nx && iy < ny);
        let (x0, x1, y0, y1) = mesh.cell_bounds(ix, iy);
        assert!(x >= x0 - 1e-12 && x <= x1 + 1e-12);
        assert!(y >= y0 - 1e-12 && y <= y1 + 1e-12);

        // Crossing out and back returns to the same cell.
        for facet in [
            neutral_mesh::Facet::XLow,
            neutral_mesh::Facet::XHigh,
            neutral_mesh::Facet::YLow,
            neutral_mesh::Facet::YHigh,
        ] {
            let (jx, jy, reflected) = mesh.cross_facet(ix, iy, facet);
            assert!(jx < nx && jy < ny);
            if !reflected {
                let opposite = match facet {
                    neutral_mesh::Facet::XLow => neutral_mesh::Facet::XHigh,
                    neutral_mesh::Facet::XHigh => neutral_mesh::Facet::XLow,
                    neutral_mesh::Facet::YLow => neutral_mesh::Facet::YHigh,
                    neutral_mesh::Facet::YHigh => neutral_mesh::Facet::YLow,
                };
                let (kx, ky, _) = mesh.cross_facet(jx, jy, opposite);
                assert_eq!((kx, ky), (ix, iy));
            }
        }
    });
}

/// Fixed-key Threefry is a bijection: distinct counters can never produce
/// the same block.
#[test]
fn threefry_injective() {
    for_cases(50, |g| {
        use neutral_rng::{CbRng, Threefry2x64};
        let key = [g.u64_any(), g.u64_any()];
        let a = [g.u64_any(), g.u64_any()];
        let b = [g.u64_any(), g.u64_any()];
        if a == b {
            return;
        }
        let rng = Threefry2x64::new(key);
        assert_ne!(rng.block(a), rng.block(b));
    });
}

/// The perf model is monotone: more particles can never take less
/// predicted time on any machine.
#[test]
fn model_monotone_in_work() {
    for_cases(24, |g| {
        use neutral_perf::model::{predict, KernelProfile, SchemeKind};
        let mult = g.f64_in(1.0, 50.0);
        let n = 1.0e4;
        let base = KernelProfile {
            scheme: SchemeKind::OverParticles,
            n_particles: n,
            collisions: 50.0 * n,
            facets: 300.0 * n,
            census: n,
            cs_lookups: 51.0 * n,
            cs_search_steps: 500.0 * n,
            density_reads: 301.0 * n,
            tally_flushes: 300.0 * n,
            oe_rounds: 0.0,
        };
        let bigger = base.scaled(mult, 1.0);
        for arch in neutral_perf::arch::ALL {
            let t0 = predict(&base, arch).total_s;
            let t1 = predict(&bigger, arch).total_s;
            assert!(t1 >= t0 * 0.999, "{}: {} vs {}", arch.name, t0, t1);
        }
    });
}
