//! The traced pass: per-layer metrics, timed from outside the crates.
//!
//! A traced run of a workload does two things. It runs the workload's own
//! op *stepped by the harness* (`SolveCore::new/step/finish`,
//! `ShardedSolve::step`, `CheckpointStore::save/load`, socket round trips)
//! with a span around every call into a layer, next to untraced ops for the
//! tracing overhead. And it runs the layer probes — small timed loops
//! around one public call each — sized by the workload's problem, so every
//! layer metric is reported in every workload's context. Layers the
//! workload's own op does not reach (the checkpoint store on `csp_op`, the
//! socket on `csp_t3_durable`, …) are probed once at reduced repetition.
//!
//! Repetition counts are fixed here; `--seconds` governs only the
//! end-to-end pass.

use crate::check::{report_checksum, Gate};
use crate::e2e::{self, durable_op, Outcome, RunCtx};
use crate::json;
use crate::metrics::Metrics;
use crate::served::{self, Service};
use crate::spec::{build_simulation, splitmix64, unit, SolveSpec, Workload};
use crate::stats::{median, percentile_or_max};
use crate::trace::{self, Span, Tracer};
use minihttp::{client, Request};
use neutral_core::params::{default_material_seed, ProblemParams};
use neutral_core::prelude::*;
use neutral_mesh::TallyAccum;
use neutral_rng::{CounterStream, Threefry2x64};
use neutral_xs::{MaterialId, XsHints};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Particle cap of the cross-scheme probe (Over Events on an Over-Particles
/// workload and vice versa): its numbers are per event / per kernel share,
/// so a tenth of the population is enough.
const CROSS_SCHEME_PARTICLES: usize = 10_000;

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Durations in ms of the spans named `name` (optionally under ops whose
/// id passes `keep`).
fn span_ms(spans: &[Span], name: &str, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && keep(s))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// `reps` timed runs of `f` under span `name`, in ms.
fn timed_reps<T>(tr: &mut Tracer, name: &str, reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let (out, d) = tr.timed(name, |_| f());
            drop(black_box(out));
            ms(d)
        })
        .collect()
}

/// A seeded slowing-down walk with the program's own collision physics:
/// each history starts at 1 MeV and keeps `(A² + 2Aμ + 1)/(A + 1)²` of its
/// energy per elastic collision (μ uniform in [-1, 1], A = `MASS_NO`) until
/// it falls below 1 eV; then the next history starts. `true` marks a
/// history's first energy (where a particle's hints are seeded by binary
/// search, as at birth).
fn energy_walk(seed: u64, n: usize) -> Vec<(f64, bool)> {
    const A: f64 = neutral_xs::constants::MASS_NO;
    let mut rng = seed ^ 0xe4e7_67a1;
    let mut energy = 0.0;
    (0..n)
        .map(|_| {
            let birth = energy < 1.0;
            let mu = 2.0 * unit(&mut rng) - 1.0;
            energy = if birth {
                1.0e6
            } else {
                energy * (A * A + 2.0 * A * mu + 1.0) / ((A + 1.0) * (A + 1.0))
            };
            (energy, birth)
        })
        .collect()
}

/// `xs`, `rng`, `mesh`, `params` and the dump writer: one public call per
/// loop, sized by the workload's mesh.
fn micro(tr: &mut Tracer, ctx: &RunCtx, spec: &SolveSpec, m: &mut Metrics) {
    let n = ctx.sizes.micro_iters;
    let reps = if ctx.sizes.quick { 1 } else { 3 };

    // xs: table build, then the two lookup entry points over one walk.
    let specs = [MaterialSpec {
        kind: MaterialKind::Reference,
        n_points: 30_000,
        seed: default_material_seed(ctx.seed, 0),
    }];
    let build = timed_reps(tr, "xs.build", reps + 2, || {
        let set = MaterialSet::from_specs(&specs);
        set.prepare(LookupStrategy::Hinted);
        set
    });
    m.samples("xs.build_ms", &build);
    let set = MaterialSet::from_specs(&specs);
    let lib = set.library(0);
    let seed_hints = |e: f64| XsHints {
        absorb: lib.absorb.bin_index_binary(e) as u32,
        scatter: lib.scatter.bin_index_binary(e) as u32,
    };
    let walk = energy_walk(ctx.seed, n);
    let hinted = timed_reps(tr, "xs.lookup_hinted", reps, || {
        let mut hints = XsHints::default();
        let mut sum = 0.0;
        for &(e, birth) in &walk {
            if birth {
                hints = seed_hints(e);
            }
            sum += lib.lookup(e, &mut hints).total_barns();
        }
        sum
    });
    m.value("xs.lookup_hinted_ns", median(&hinted) * 1e6 / n as f64);

    // The same walk dealt to 64 lanes in lockstep, one block per call.
    const LANES: usize = 64;
    let lane_len = n / LANES;
    let lanes: Vec<Vec<(f64, bool)>> = (0..LANES)
        .map(|l| energy_walk(ctx.seed.wrapping_add(l as u64 + 1), lane_len))
        .collect();
    let mats: [MaterialId; LANES] = [0; LANES];
    let many = timed_reps(tr, "xs.lookup_many", reps, || {
        let (mut ha, mut hs) = ([0u32; LANES], [0u32; LANES]);
        let (mut oa, mut os) = ([0.0; LANES], [0.0; LANES]);
        let mut energies = [0.0; LANES];
        let mut steps = 0;
        for k in 0..lane_len {
            for (l, lane) in lanes.iter().enumerate() {
                let (e, birth) = lane[k];
                energies[l] = e;
                if birth {
                    let h = seed_hints(e);
                    (ha[l], hs[l]) = (h.absorb, h.scatter);
                }
            }
            steps += set.lookup_many_with(
                LookupStrategy::Hinted,
                &mats,
                &energies,
                &mut ha,
                &mut hs,
                &mut oa,
                &mut os,
            );
        }
        (steps, oa, os)
    });
    m.value(
        "xs.lookup_many_ns",
        median(&many) * 1e6 / (lane_len * LANES) as f64,
    );

    // rng: one particle stream, n draws.
    let rng = Threefry2x64::new([ctx.seed, 1]);
    let draws = timed_reps(tr, "rng.draw", reps, || {
        let mut stream = CounterStream::new(&rng, 7);
        let (mut counter, mut sum) = (0u64, 0.0);
        for _ in 0..n {
            sum += stream.next_f64(&mut counter);
        }
        sum
    });
    m.value("rng.draw_ns", median(&draws) * 1e6 / n as f64);

    // mesh: allocate the 32-lane replicated accumulator, deposit along a
    // streaming cell track per lane, merge.
    let (nx, cells) = (spec.mesh, spec.mesh * spec.mesh);
    let lanes = neutral_mesh::accum::DEFAULT_LANES;
    let (mut news, mut deposits, mut merges) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let (mut accum, d) = tr.timed("mesh.accum_new", |_| {
            TallyAccum::new(TallyStrategy::Replicated, cells, lanes)
        });
        news.push(ms(d));
        let per_lane = n / lanes;
        let ((), d) = tr.timed("mesh.deposit", |_| {
            let mut rng = ctx.seed ^ 0x7a11;
            for mut sink in accum.lane_views() {
                // A facet-to-facet track: step one cell along a fixed
                // direction, reflecting at the walls.
                let mut x = (splitmix64(&mut rng) % nx as u64) as i64;
                let mut y = (splitmix64(&mut rng) % nx as u64) as i64;
                let (mut dx, mut dy) = (1i64, (splitmix64(&mut rng) & 1) as i64);
                for k in 0..per_lane {
                    sink.add(y as usize * nx + x as usize, 1.0e-3);
                    if k % 2 == 0 || dy == 0 {
                        x += dx;
                    } else {
                        y += dy;
                    }
                    if x < 0 || x >= nx as i64 {
                        dx = -dx;
                        x += 2 * dx;
                    }
                    if y < 0 || y >= nx as i64 {
                        dy = -dy;
                        y += 2 * dy;
                    }
                }
            }
        });
        deposits.push(ms(d) * 1e6 / (per_lane * lanes) as f64);
        let (merged, d) = tr.timed("mesh.merge", |_| accum.merge());
        black_box(merged);
        merges.push(ms(d));
    }
    m.samples("mesh.accum_new_ms", &news);
    m.samples("mesh.deposit_ns", &deposits);
    m.samples("mesh.merge_ms", &merges);
    // The §VI-F blow-up size: 32 lanes of 1000² cells is 256 MB.
    let big = ctx.sizes.big_mesh * ctx.sizes.big_mesh;
    let (_, d) = tr.timed("mesh.merge_1000", |_| {
        black_box(TallyAccum::new(TallyStrategy::Replicated, big, lanes).merge())
    });
    m.value("mesh.merge_1000_ms", ms(d));

    // params: text → ProblemParams → Problem; sim: Problem → Simulation.
    let text = spec.params_text(ctx.seed);
    let build = timed_reps(tr, "params.parse_build", reps + 4, || {
        ProblemParams::parse(&text)
            .expect("generated params parse")
            .build()
    });
    m.samples("params.parse_build_ms", &build);
    let news: Vec<f64> = (0..reps + 4)
        .map(|_| {
            let problem = ProblemParams::parse(&text)
                .expect("generated params parse")
                .build();
            ms(tr
                .timed("sim.new", |_| black_box(Simulation::new(problem)))
                .1)
        })
        .collect();
    m.samples("sim.new_ms", &news);

    // The dump writer over a dense tally of the workload's mesh (every cell
    // non-zero — the most a `GET …/tallies` can cost at this size).
    let mut rng = ctx.seed ^ 0xd0_3b;
    let dense: Vec<f64> = (0..cells).map(|_| 1.0e-9 + unit(&mut rng)).collect();
    let mut bytes = 0;
    let dumps = timed_reps(tr, "registry.tally_dump", reps, || {
        let out = e2e::dump(&dense, nx);
        bytes = out.len();
        out
    });
    m.samples("registry.tally_dump_ms", &dumps);
    m.value(
        "registry.tally_dump_mb_per_s",
        bytes as f64 / 1e6 / (median(&dumps) / 1e3),
    );
}

/// What the stepped transport op learned, for the other probes.
struct SimProbe {
    /// Checksum every other execution of the same problem must reproduce.
    checksum: u64,
    /// Median `SolveCore::step` at W, ms.
    step_ms: f64,
    traced_walls: Vec<f64>,
    untraced_walls: Vec<f64>,
}

const OP_TRANSPORT: &str = "op.transport";
const OP_DURABLE: &str = "op.durable";
const OP_SERVE: &str = "serve.op";

/// One transport op stepped by the harness: spawn, steps, finish, dump.
fn stepped_op(
    tr: &mut Tracer,
    op_id: u64,
    sim: &Simulation,
    options: RunOptions,
) -> (RunReport, f64) {
    let nx = sim.problem().mesh.nx();
    let (report, wall) = tr.op(op_id, OP_TRANSPORT, |tr| {
        let mut core = tr.span("sim.spawn", |_| SolveCore::new(sim, options));
        while !core.is_done() {
            tr.span("sim.step", |_| core.step(sim));
        }
        let report = tr.span("sim.finish", |_| core.finish());
        tr.span("registry.tally_dump", |tr| {
            let out = e2e::dump(&report.tally, nx);
            tr.count("bytes", out.len() as f64);
            black_box(out);
        });
        tr.count("events", report.counters.total_events() as f64);
        report
    });
    (report, wall.as_secs_f64())
}

/// `sim`, `over_particles`, `over_events`, `counters`: the workload's solve
/// stepped at W and at 1 worker (`reps` = traced at W, traced at 1,
/// untraced at W).
fn sim_probe(
    tr: &mut Tracer,
    ctx: &RunCtx,
    spec: &SolveSpec,
    reps: (usize, usize, usize),
    m: &mut Metrics,
    gate: &mut Gate,
) -> SimProbe {
    let sim = build_simulation(&spec.params_text(ctx.seed));
    let nx = sim.problem().mesh.nx();
    let w = ctx.workers;
    // Ids: ops at W are odd, ops at 1 worker even — `span_ms` tells them
    // apart by parity.
    let (mut next_w, mut next_1) = (1u64, 2u64);
    let mut warm_up = Tracer::new(false, ctx.start);
    let (first, _) = stepped_op(&mut warm_up, 0, &sim, spec.options(w));
    let want = report_checksum(&first);

    let (mut traced_walls, mut untraced_walls) = (Vec::new(), Vec::new());
    let mut last = first;
    // Untraced and traced ops alternate, swapping who goes first, so a slow
    // phase of the host falls on both series.
    for k in 0..reps.0.max(reps.2) {
        for untraced in [k % 2 == 0, k % 2 != 0] {
            if untraced && k < reps.2 {
                let t = Instant::now();
                let report = sim.run(spec.options(w));
                black_box(e2e::dump(&report.tally, nx));
                untraced_walls.push(t.elapsed().as_secs_f64());
                gate.expect_eq(report_checksum(&report), want, "untraced op");
            } else if !untraced && k < reps.0 {
                let (report, wall) = stepped_op(tr, next_w, &sim, spec.options(w));
                next_w += 2;
                traced_walls.push(wall);
                gate.expect_eq(report_checksum(&report), want, "stepped op at W");
                last = report;
            }
        }
    }
    for _ in 0..reps.1 {
        let (report, _) = stepped_op(tr, next_1, &sim, spec.options(1));
        next_1 += 2;
        gate.expect_eq(report_checksum(&report), want, "stepped op at 1 worker");
    }

    let at_w = |s: &Span| s.op_id % 2 == 1;
    let step_ms = median(&span_ms(tr.spans(), "sim.step", at_w));
    m.samples("sim.spawn_ms", &span_ms(tr.spans(), "sim.spawn", at_w));
    m.samples("sim.step_ms", &span_ms(tr.spans(), "sim.step", at_w));
    m.samples(
        "sim.step_1w_ms",
        &span_ms(tr.spans(), "sim.step", |s| !at_w(s)),
    );
    m.samples("sim.finish_ms", &span_ms(tr.spans(), "sim.finish", at_w));
    m.value("sim.steps", last.timesteps as f64);
    m.value(
        "mesh.footprint_mb",
        last.tally_footprint_bytes as f64 / (1 << 20) as f64,
    );

    let c = &last.counters;
    m.value(
        "xs.search_steps_per_lookup",
        c.cs_search_steps as f64 / c.cs_lookups.max(1) as f64,
    );
    m.value("counters.total_events", c.total_events() as f64);
    m.value("counters.collisions", c.collisions as f64);
    m.value("counters.facets", c.facets as f64);
    m.value("counters.census", c.census as f64);
    m.value("counters.tally_flushes", c.tally_flushes as f64);
    m.value("counters.cs_lookups", c.cs_lookups as f64);
    m.value("counters.density_reads", c.density_reads as f64);

    // The scheme the workload runs is measured on its own ops; the other
    // one on a capped population of the same problem.
    let events_per_step = c.total_events() as f64 / last.timesteps.max(1) as f64;
    let cross = |scheme: Scheme| {
        let spec = spec.cross_scheme(scheme, CROSS_SCHEME_PARTICLES);
        build_simulation(&spec.params_text(ctx.seed)).run(spec.options(w))
    };
    let oe_report = match spec.scheme {
        Scheme::OverParticles => {
            m.value(
                "over_particles.ns_per_event",
                step_ms * 1e6 / events_per_step,
            );
            tr.span("over_events.cross_scheme_run", |_| {
                cross(Scheme::OverEvents)
            })
        }
        Scheme::OverEvents => {
            let op = tr.span("over_particles.cross_scheme_run", |_| {
                cross(Scheme::OverParticles)
            });
            m.value(
                "over_particles.ns_per_event",
                ms(op.elapsed) * 1e6 / op.counters.total_events() as f64,
            );
            last
        }
    };
    // `RunReport.elapsed` is the solve's own sum of step times, so the
    // remainder is what a step spends outside its kernels.
    let timings = oe_report.kernel_timings.unwrap_or_default();
    m.value("over_events.init_ms", ms(timings.init));
    m.value("over_events.decide_ms", ms(timings.decide));
    m.value("over_events.collision_ms", ms(timings.collision));
    m.value("over_events.facet_ms", ms(timings.facet));
    m.value("over_events.tally_ms", ms(timings.tally));
    m.value("over_events.census_ms", ms(timings.census));
    m.value("over_events.rounds", timings.rounds as f64);
    m.value(
        "over_events.unaccounted_ms",
        ms(oe_report.elapsed) - ms(timings.total()),
    );

    SimProbe {
        checksum: want,
        step_ms,
        traced_walls,
        untraced_walls,
    }
}

/// `shard` and `checkpoint`: the durable op on the workload's problem.
/// Returns `(traced, untraced)` op walls in seconds.
fn durable_probe(
    tr: &mut Tracer,
    ctx: &RunCtx,
    spec: &SolveSpec,
    reps: (usize, usize),
    fused: &SimProbe,
    m: &mut Metrics,
    gate: &mut Gate,
) -> (Vec<f64>, Vec<f64>) {
    let sim = Arc::new(build_simulation(&spec.params_text(ctx.seed)));
    let options = spec.options(ctx.workers);
    let mut off = Tracer::new(false, ctx.start);
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let (mut stats, mut saves, mut spill) = (ShardStats::default(), 0, 0u64);
    for k in 0..reps.0.max(reps.1) {
        for (tracer, walls, on) in [
            (&mut off, &mut untraced, k < reps.1),
            (&mut *tr, &mut traced, k < reps.0),
        ] {
            if !on {
                continue;
            }
            let (done, wall) = tracer.op(k as u64 + 1, OP_DURABLE, |tr| {
                durable_op(tr, &sim, options, &ctx.work_dir)
            });
            walls.push(wall.as_secs_f64());
            match done {
                Ok(done) => {
                    gate.expect_eq(
                        report_checksum(&done.sharded),
                        fused.checksum,
                        "sharded result",
                    );
                    gate.expect_eq(
                        report_checksum(&done.resumed),
                        fused.checksum,
                        "resumed result",
                    );
                    gate.check(done.sharded_bytes == done.resumed_bytes, || {
                        "sharded and resumed dumps differ".to_owned()
                    });
                    (stats, saves) = (done.shard_stats, done.saves);
                }
                Err(e) => {
                    gate.check(false, || e);
                }
            }
        }
    }
    if let Ok(entries) = std::fs::read_dir(&ctx.work_dir) {
        spill = entries
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".shard"))
            .filter_map(|e| e.metadata().ok())
            .map(|meta| meta.len())
            .sum();
    }

    let all = |_: &Span| true;
    let shard_step = median(&span_ms(tr.spans(), "shard.step", all));
    m.value("shard.step_ms", shard_step);
    m.value("shard.fused_step_ms", fused.step_ms);
    m.value("shard.overhead_frac", shard_step / fused.step_ms - 1.0);
    m.value("shard.attempts", stats.attempts as f64);
    m.value("shard.retries", stats.retries as f64);
    m.value("shard.spill_bytes", spill as f64);
    m.samples("shard.finish_ms", &span_ms(tr.spans(), "shard.finish", all));
    m.samples(
        "checkpoint.snapshot_ms",
        &span_ms(tr.spans(), "checkpoint.snapshot", all),
    );
    m.samples(
        "checkpoint.save_ms",
        &span_ms(tr.spans(), "checkpoint.save", all),
    );
    m.samples(
        "checkpoint.load_ms",
        &span_ms(tr.spans(), "checkpoint.load", all),
    );
    m.samples(
        "checkpoint.resume_ms",
        &span_ms(tr.spans(), "checkpoint.resume", all),
    );
    m.value("checkpoint.saves", saves as f64);

    // The codec on its own: the store's save and load contain it.
    let store = CheckpointStore::new(ctx.work_dir.join("solve.ckpt"));
    match store.load() {
        Ok((checkpoint, _)) => {
            let reps = if ctx.sizes.quick { 1 } else { 3 };
            let mut bytes = Vec::new();
            let encode = timed_reps(tr, "checkpoint.encode", reps, || {
                bytes = checkpoint.to_bytes()
            });
            let decode = timed_reps(tr, "checkpoint.decode", reps, || {
                Checkpoint::from_bytes(&bytes)
            });
            m.samples("checkpoint.encode_ms", &encode);
            m.samples("checkpoint.decode_ms", &decode);
            m.value("checkpoint.bytes", bytes.len() as f64);
            gate.check(
                Checkpoint::from_bytes(&bytes).is_ok_and(|c| c == checkpoint),
                || "checkpoint codec does not round-trip".to_owned(),
            );
        }
        Err(e) => {
            gate.check(false, || format!("loading the last checkpoint: {e}"));
        }
    }
    (traced, untraced)
}

fn tiny_body(seed: u64) -> String {
    format!("scenario csp\nscale tiny\nseed {seed}\ntally replicated\n")
}

fn tiny_problem(seed: u64, timesteps: usize) -> Problem {
    let mut problem = Scenario::Csp.build(ProblemScale::tiny(), seed);
    problem.transport.tally_strategy = TallyStrategy::Replicated;
    problem.n_timesteps = timesteps;
    problem
}

/// `registry`: direct library calls, no HTTP. Every solve is waited for
/// before the next submission, so the counts repeat exactly.
fn registry_probe(tr: &mut Tracer, ctx: &RunCtx, m: &mut Metrics, gate: &mut Gate) {
    let (n, pairs, long_steps) = if ctx.sizes.quick {
        (3, 1, 10)
    } else {
        (20, 3, 40)
    };
    let registry = Registry::new(RegistryConfig {
        runners: ctx.workers,
        ..RegistryConfig::default()
    });
    let options = RunOptions {
        execution: Execution::Sequential,
        ..RunOptions::default()
    };
    let seed = |k: usize| ctx.seed.wrapping_mul(1000).wrapping_add(k as u64);
    let (mut cold, mut hit, mut solve) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..n {
        let request = SubmitRequest::new(tiny_problem(seed(k), 1), options);
        let (receipt, d) = tr.timed("registry.solve", |tr| {
            let (receipt, d) = tr.timed("registry.submit_cold", |_| registry.submit(request));
            cold.push(ms(d));
            let receipt = receipt.expect("registry accepts work");
            let _ = registry.wait(receipt.id);
            receipt
        });
        solve.push(ms(d));
        gate.check(receipt.admission == Admission::Fresh, || {
            format!("cold submission {k} was not fresh")
        });
    }
    for k in 0..n {
        let request = SubmitRequest::new(tiny_problem(seed(k), 1), options);
        let (receipt, d) = tr.timed("registry.submit_hit", |_| registry.submit(request));
        hit.push(ms(d));
        gate.check(
            receipt.is_ok_and(|r| r.admission == Admission::CacheHit),
            || format!("duplicate submission {k} missed the cache"),
        );
    }
    // A duplicate of a solve still running coalesces onto it: the original
    // is long enough (many census chunks) to be in flight for certain.
    for k in 0..pairs {
        let original = registry.submit(SubmitRequest::new(
            tiny_problem(seed(n + k), long_steps),
            options,
        ));
        let duplicate = registry.submit(SubmitRequest::new(
            tiny_problem(seed(n + k), long_steps),
            options,
        ));
        gate.check(
            duplicate.is_ok_and(|r| r.admission == Admission::Coalesced),
            || format!("in-flight duplicate {k} did not coalesce"),
        );
        let _ = registry.wait(original.expect("registry accepts work").id);
    }
    let stats = registry.stats();
    m.samples("registry.submit_cold_ms", &cold);
    m.samples("registry.submit_hit_ms", &hit);
    m.samples("registry.solve_ms", &solve);
    m.value(
        "registry.hit_ratio",
        (stats.coalesced + stats.cache_hits) as f64 / stats.submitted.max(1) as f64,
    );
    m.value("registry.coalesced", stats.coalesced as f64);
    m.value("registry.cache_hits", stats.cache_hits as f64);
    m.value("registry.chunks_run", stats.chunks_run as f64);
    m.value("registry.failed", stats.failed as f64);
}

/// `serve_http` (the handler called directly) and `minihttp` (the same
/// requests over a real socket) against one service.
fn http_probe(tr: &mut Tracer, ctx: &RunCtx, m: &mut Metrics, gate: &mut Gate) {
    let (n, many) = if ctx.sizes.quick { (3, 10) } else { (20, 200) };
    let service = Service::start(ctx.workers);
    let handler = &service.service;
    let request = |method: &str, path: &str, body: &str| Request {
        method: method.to_owned(),
        path: path.to_owned(),
        query: String::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    let seed = |k: usize| ctx.seed.wrapping_mul(1000).wrapping_add(500 + k as u64);

    let mut ids = Vec::new();
    let mut post_cold = Vec::new();
    for k in 0..n {
        let req = request("POST", "/solves", &tiny_body(seed(k)));
        let (response, d) = tr.timed("serve_http.post_cold", |_| handler.handle(&req));
        post_cold.push(ms(d));
        let id = response
            .headers
            .iter()
            .find(|(name, _)| name == "x-solve-id")
            .and_then(|(_, v)| v.parse::<u64>().ok());
        if let Some(id) = gate
            .check(response.status == 201, || {
                format!("direct POST answered {}", response.status)
            })
            .then_some(id)
            .flatten()
        {
            let _ = handler.registry().wait(id);
            ids.push(id);
        }
    }
    let post_hit: Vec<f64> = (0..n)
        .map(|k| {
            let req = request("POST", "/solves", &tiny_body(seed(k)));
            let (response, d) = tr.timed("serve_http.post_hit", |_| handler.handle(&req));
            gate.check(
                String::from_utf8_lossy(&response.body).contains("cache_hit"),
                || format!("direct duplicate POST {k} missed the cache"),
            );
            ms(d)
        })
        .collect();
    let Some(&id) = ids.first() else {
        gate.check(false, || "no direct POST succeeded".to_owned());
        return;
    };
    let status_req = request("GET", &format!("/solves/{id}"), "");
    let status: Vec<f64> = (0..many)
        .map(|_| {
            ms(tr
                .timed("serve_http.status", |_| {
                    black_box(handler.handle(&status_req))
                })
                .1)
                * 1e3
        })
        .collect();
    let mut body_len = 0;
    let tallies: Vec<f64> = ids
        .iter()
        .map(|id| {
            let req = request("GET", &format!("/solves/{id}/tallies"), "");
            let (response, d) = tr.timed("serve_http.tallies", |_| handler.handle(&req));
            body_len = response.body.len();
            ms(d)
        })
        .collect();
    m.samples("serve_http.post_cold_ms", &post_cold);
    m.samples("serve_http.post_hit_ms", &post_hit);
    m.samples("serve_http.status_us", &status);
    m.samples("serve_http.tallies_ms", &tallies);
    m.value("serve_http.tallies_bytes", body_len as f64);

    let addr = service.addr();
    let healthz: Vec<f64> = (0..many)
        .map(|_| {
            let (response, d) = tr.timed("minihttp.healthz", |_| {
                client::request(addr, "GET", "/healthz", None)
            });
            gate.check(response.is_ok_and(|r| r.status == 200), || {
                "/healthz failed".to_owned()
            });
            ms(d) * 1e3
        })
        .collect();
    let path = format!("/solves/{id}/tallies");
    let rtt: Vec<f64> = (0..n)
        .map(|_| {
            let (response, d) = tr.timed("minihttp.tallies", |_| {
                client::request(addr, "GET", &path, None)
            });
            gate.check(response.is_ok_and(|r| r.status == 200), || {
                "socket GET tallies failed".to_owned()
            });
            ms(d)
        })
        .collect();
    m.samples("minihttp.healthz_rtt_us", &healthz);
    m.samples("minihttp.tallies_rtt_ms", &rtt);
}

/// `serve`: the client-side split of served ops from one traced W-client
/// pass (and, for `serve_mix` itself, an untraced one for the overhead).
/// Returns `(traced, untraced)` cold-op walls in seconds.
fn serve_probe(
    tr: &mut Tracer,
    ctx: &RunCtx,
    n_cold: usize,
    with_untraced: bool,
    m: &mut Metrics,
    gate: &mut Gate,
) -> (Vec<f64>, Vec<f64>) {
    let list = served::request_list(ctx.seed, n_cold);
    let walls = |pass: &served::Pass| {
        let mut blocks = e2e::ServeBlocks::default();
        blocks.extend(&list, pass);
        let flat = |b: Vec<Vec<f64>>| b.into_iter().flatten().collect::<Vec<f64>>();
        (flat(blocks.cold_wall_s), flat(blocks.duplicate_wall_ms))
    };
    let untraced = if with_untraced {
        let pass = served::run_pass(&list, ctx.workers, ctx.workers, false, ctx.start);
        served::check_pass(&list, &pass, gate);
        walls(&pass).0
    } else {
        Vec::new()
    };
    let pass = served::run_pass(&list, ctx.workers, ctx.workers, true, ctx.start);
    served::check_pass(&list, &pass, gate);
    let (cold_walls, duplicate_walls) = walls(&pass);
    let cold: Vec<&served::OpSample> = pass
        .samples
        .iter()
        .filter(|s| s.error.is_none() && list[s.index].duplicate_of.is_none())
        .collect();
    let of = |f: fn(&served::OpSample) -> f64| -> Vec<f64> { cold.iter().map(|s| f(s)).collect() };
    m.samples("serve.submit_rtt_ms", &of(|s| ms(s.submit)));
    m.samples("serve.poll_wait_ms", &of(|s| ms(s.poll_wait)));
    m.samples("serve.fetch_rtt_ms", &of(|s| ms(s.fetch)));
    let polls: u32 = cold.iter().map(|s| s.polls).sum();
    m.value(
        "serve.polls_per_op",
        f64::from(polls) / cold.len().max(1) as f64,
    );
    m.value("serve.wall_p95_s", percentile_or_max(&cold_walls, 95));
    m.value(
        "serve.cached_p95_ms",
        percentile_or_max(&duplicate_walls, 95),
    );
    tr.absorb(pass.tracer);
    (cold_walls, untraced)
}

pub fn run(ctx: &RunCtx, out_dir: &Path) -> Outcome {
    let mut tr = Tracer::new(true, ctx.start);
    let mut m = Metrics::default();
    let mut gate = Gate::default();
    let spec = SolveSpec::of(ctx.workload, &ctx.sizes);
    let quick = ctx.sizes.quick;
    // (traced at W, traced at 1 worker, untraced at W): full repetition
    // for the workload's own op, one pass over the layers it does not use.
    let reps = |own: bool, full: (usize, usize, usize)| match (quick, own) {
        (true, _) => (1, 1, 1),
        (false, true) => full,
        (false, false) => (1, 1, 0),
    };
    let own_transport = matches!(ctx.workload, Workload::CspOp | Workload::ScatterOe);
    let own_durable = ctx.workload == Workload::CspT3Durable;
    let own_serve = ctx.workload == Workload::ServeMix;

    micro(&mut tr, ctx, &spec, &mut m);
    let sim_reps = reps(own_transport || own_serve, (3, 2, 3));
    let sim = sim_probe(&mut tr, ctx, &spec, sim_reps, &mut m, &mut gate);
    let (traced, _, untraced) = reps(own_durable, (2, 0, 2));
    let durable = durable_probe(
        &mut tr,
        ctx,
        &spec,
        (traced, untraced),
        &sim,
        &mut m,
        &mut gate,
    );
    registry_probe(&mut tr, ctx, &mut m, &mut gate);
    http_probe(&mut tr, ctx, &mut m, &mut gate);
    let n_cold = if own_serve {
        ctx.sizes.serve_cold
    } else {
        ctx.sizes.serve_probe_cold
    };
    let served = serve_probe(&mut tr, ctx, n_cold, own_serve, &mut m, &mut gate);

    // Tracing overhead and coverage of the workload's own op.
    let (op_name, (traced, untraced)) = if own_durable {
        (OP_DURABLE, durable)
    } else if own_serve {
        (OP_SERVE, served)
    } else {
        (OP_TRANSPORT, (sim.traced_walls, sim.untraced_walls))
    };
    let overhead = if untraced.is_empty() {
        0.0
    } else {
        median(&traced) / median(&untraced) - 1.0
    };
    m.value("trace.overhead_frac", overhead);
    m.value(
        "trace.unaccounted_frac",
        trace::unaccounted_frac(tr.spans(), op_name),
    );

    println!("{}", trace::layer_table(tr.spans()));
    let file = out_dir.join(format!("trace-{}.json", ctx.workload.name()));
    let document = json::obj([
        ("workload", json::string(ctx.workload.name())),
        ("seed", json::num(ctx.seed as f64)),
        ("quick", json::Value::Bool(quick)),
        ("op_span", json::string(op_name)),
        ("spans", tr.to_json()),
    ]);
    if let Err(e) = std::fs::write(&file, document.render()) {
        gate.check(false, || format!("writing {}: {e}", file.display()));
    }

    Outcome {
        metrics: m,
        gate,
        checksum: sim.checksum,
    }
}
