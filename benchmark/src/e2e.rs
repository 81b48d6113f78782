//! The end-to-end pass: tracing off, public entry points only.
//!
//! Each workload runs in its own process. After one discarded warm-up op,
//! ops repeat until `--seconds` have passed since the process started (with
//! a floor on the op counts), a few set-up and duplicate-submission samples
//! before each; every timing is read block by block ([`Metrics::blocks`])
//! and reported beside the median over all samples, and every op's result
//! is checked bitwise.

use crate::check::{bytes_checksum, report_checksum, Gate};
use crate::host;
use crate::metrics::{Metrics, Pick};
use crate::served::{self, Pass};
use crate::spec::{build_simulation, Sizes, SolveSpec, Workload};
use crate::stats::{mean, median};
use neutral_bench::serve_http::write_tally_dump;
use neutral_core::params::ProblemParams;
use neutral_core::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a workload run needs to know.
pub struct RunCtx {
    pub workload: Workload,
    pub sizes: Sizes,
    pub seed: u64,
    /// `min(nproc, 4)`.
    pub workers: usize,
    /// Process start; ops repeat until `start + seconds`.
    pub start: Instant,
    pub seconds: f64,
    /// Scratch directory for checkpoint files (inside `benchmark/out/`).
    pub work_dir: PathBuf,
}

impl RunCtx {
    fn time_left(&self) -> bool {
        self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// What a pass hands back to `main`.
pub struct Outcome {
    pub metrics: Metrics,
    pub gate: Gate,
    /// The value `reference.json` pins for this workload.
    pub checksum: u64,
}

/// Set-up samples taken before each op: one block. The first block of a
/// run is the warm-up and is dropped. Set-up
/// and duplicate-submission samples are spread through the run rather than
/// taken in one burst, so that some block falls in a quiet stretch of the
/// host.
const SETUP_PER_TURN: usize = 4;
/// Duplicate submissions timed before each op for `cached_wall_ms`.
const CACHED_PER_TURN: usize = 2;
/// Blocks of `SETUP_PER_TURN` service cold starts timed before each served
/// pass.
const SERVE_SETUP_BLOCKS: usize = 3;
/// Consecutive list entries that make one block of a served pass: five
/// rounds of the request list, so every block holds exactly five cold
/// requests and five duplicates of each scenario.
const SERVE_BLOCK: usize = 5 * served::ROUND;

/// Run `f` and return its result with the seconds it took (so the caller
/// drops what it built outside the timer).
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The tally dump of an op, as bytes (sized as the service sizes its own).
pub fn dump(tally: &[f64], nx: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(tally.len() * 8);
    write_tally_dump(tally, nx, &mut out).expect("writing to a Vec cannot fail");
    out
}

struct OpResult {
    wall: f64,
    events: u64,
    checksum: u64,
}

/// Ops at W workers alternating with ops at 1 worker, until the time is up
/// and both floors are met. Returns `(at W, at 1)`.
fn interleaved_ops(
    ctx: &RunCtx,
    mut op: impl FnMut(usize) -> OpResult,
) -> (Vec<OpResult>, Vec<OpResult>) {
    let (mut at_w, mut at_1) = (Vec::new(), Vec::new());
    let floor = if ctx.sizes.quick { 1 } else { 3 };
    for turn in 0.. {
        let floors_met = at_w.len() >= floor && at_1.len() >= floor;
        if floors_met && (ctx.sizes.quick || !ctx.time_left()) {
            break;
        }
        if turn % 2 == 1 {
            at_1.push(op(1));
        } else {
            at_w.push(op(ctx.workers));
        }
    }
    (at_w, at_1)
}

/// `wall_s`, `events_per_s` and `scaling_eff` from the two op series; each
/// op is a block of its own.
fn op_metrics(metrics: &mut Metrics, workers: usize, at_w: &[OpResult], at_1: &[OpResult]) {
    let singles = |f: fn(&OpResult) -> f64, ops: &[OpResult]| -> Vec<Vec<f64>> {
        ops.iter().map(|o| vec![f(o)]).collect()
    };
    metrics.blocks("wall_s", &singles(|o| o.wall, at_w), median, Pick::Best);
    let rates = singles(|o| o.events as f64 / o.wall, at_w);
    metrics.blocks("events_per_s", &rates, median, Pick::Best);
    // With one core W = 1 and this reads ~1: no claim about scaling.
    let best = |ops: &[OpResult]| ops.iter().map(|o| o.wall).fold(f64::INFINITY, f64::min);
    metrics.value("scaling_eff", best(at_1) / (workers as f64 * best(at_w)));
}

/// The `setup_s` and `cached_wall_ms` samples of a transport workload,
/// taken a few at a time before each op.
///
/// `cached_wall_ms` is a duplicate submission to a registry that already
/// holds the result: problem rebuilt from its params text (as the service
/// does per POST) → `submit` → `wait` → tally-dump bytes.
struct Sidecar<'a> {
    ctx: &'a RunCtx,
    spec: SolveSpec,
    text: &'a str,
    registry: Registry,
    /// Checksum of the dump every submission must return.
    want: u64,
    /// One block per turn.
    setup_s: Vec<Vec<f64>>,
    cached_ms: Vec<Vec<f64>>,
}

impl<'a> Sidecar<'a> {
    /// Start the registry and run the cold solve that fills its cache
    /// (checked like any other op).
    fn start(ctx: &'a RunCtx, spec: SolveSpec, text: &'a str, want: u64, gate: &mut Gate) -> Self {
        let registry = Registry::new(RegistryConfig {
            runners: 1,
            ..RegistryConfig::default()
        });
        let sidecar = Self {
            ctx,
            spec,
            text,
            registry,
            want,
            setup_s: Vec::new(),
            cached_ms: Vec::new(),
        };
        sidecar.submit(false, gate);
        sidecar
    }

    fn submit(&self, expect_hit: bool, gate: &mut Gate) -> f64 {
        let t = Instant::now();
        let problem = ProblemParams::parse(self.text)
            .expect("generated params parse")
            .build();
        let request = SubmitRequest::new(problem, self.spec.options(self.ctx.workers));
        let bytes = self.registry.submit(request).ok().and_then(|receipt| {
            let status = self.registry.wait(receipt.id)?;
            let report = self.registry.result(receipt.id)?;
            let hit = receipt.admission == Admission::CacheHit;
            (hit == expect_hit).then(|| dump(&report.tally, status.mesh_nx))
        });
        let secs = t.elapsed().as_secs_f64();
        gate.check(
            bytes.as_deref().map(bytes_checksum) == Some(self.want),
            || format!("registry submission (expect_hit={expect_hit}) returned other bytes"),
        );
        secs
    }

    fn sample(&mut self, gate: &mut Gate) {
        let setup = (0..SETUP_PER_TURN).map(|_| timed(|| build_simulation(self.text)).1);
        self.setup_s.push(setup.collect());
        let cached = (0..CACHED_PER_TURN).map(|_| self.submit(true, gate) * 1e3);
        self.cached_ms.push(cached.collect());
    }

    fn finish(self, metrics: &mut Metrics) {
        metrics.blocks("setup_s", &self.setup_s[1..], median, Pick::Best);
        metrics.blocks("cached_wall_ms", &self.cached_ms, median, Pick::Best);
    }
}

/// `csp_op` and `scatter_oe`: one op = `Simulation::run` + tally dump.
pub fn transport(ctx: &RunCtx) -> Outcome {
    let spec = SolveSpec::of(ctx.workload, &ctx.sizes);
    let text = spec.params_text(ctx.seed);
    let mut metrics = Metrics::default();
    let mut gate = Gate::default();

    let sim = build_simulation(&text);
    let nx = sim.problem().mesh.nx();
    let run_op = |threads: usize| {
        let ((report, bytes), wall) = timed(|| {
            let report = sim.run(spec.options(threads));
            let bytes = dump(&report.tally, nx);
            (report, bytes)
        });
        let op = OpResult {
            wall,
            events: report.counters.total_events(),
            checksum: report_checksum(&report),
        };
        (op, bytes_checksum(&bytes))
    };
    let (warm_up, dump_checksum) = run_op(ctx.workers);
    let mut sidecar = Sidecar::start(ctx, spec, &text, dump_checksum, &mut gate);
    let (at_w, at_1) = interleaved_ops(ctx, |threads| {
        sidecar.sample(&mut gate);
        let (op, bytes) = run_op(threads);
        gate.expect_eq(op.checksum, warm_up.checksum, "op result");
        gate.expect_eq(bytes, dump_checksum, "op dump");
        op
    });
    op_metrics(&mut metrics, ctx.workers, &at_w, &at_1);
    sidecar.finish(&mut metrics);

    Outcome {
        metrics,
        gate,
        checksum: warm_up.checksum,
    }
}

/// One durable op, shared by the untraced and traced passes: a sharded,
/// spilling, fault-injected, checkpointing solve, then a resume from the
/// step before last. Returns the two reports (sharded, resumed), the two
/// dumps' bytes, and the shard statistics.
pub struct DurableOp {
    pub sharded: RunReport,
    pub resumed: RunReport,
    pub sharded_bytes: Vec<u8>,
    pub resumed_bytes: Vec<u8>,
    pub shard_stats: ShardStats,
    pub saves: usize,
}

pub fn durable_op(
    tr: &mut crate::trace::Tracer,
    sim: &Arc<Simulation>,
    options: RunOptions,
    work_dir: &std::path::Path,
) -> Result<DurableOp, String> {
    let nx = sim.problem().mesh.nx();
    let mut config = ShardConfig::new(2);
    config.backoff = Duration::ZERO;
    config.fault_plan = "kill@1".parse().expect("literal fault plan");
    config.checkpoint_base = Some(work_dir.join("solve.ckpt"));
    let store = CheckpointStore::new(work_dir.join("solve.ckpt"));

    let mut solve = tr.span("shard.new", |_| ShardedSolve::new(sim, options, config));
    let mut saves = 0;
    while !solve.is_done() {
        tr.span("shard.step", |_| solve.step(sim))
            .map_err(|e| format!("sharded step: {e}"))?;
        let checkpoint = tr.span("checkpoint.snapshot", |_| solve.checkpoint());
        tr.span("checkpoint.save", |_| store.save(&checkpoint))
            .map_err(|e| format!("checkpoint save: {e}"))?;
        saves += 1;
    }
    let shard_stats = solve.stats();
    let sharded = tr.span("shard.finish", |_| solve.finish());
    let sharded_bytes = tr.span("registry.tally_dump", |_| dump(&sharded.tally, nx));

    // The last save holds the finished solve; the one before it — the
    // census boundary with one step left — was rotated to `.prev`.
    let steps = sim.problem().n_timesteps;
    let resume_store = if steps > 1 {
        CheckpointStore::new(store.fallback_path())
    } else {
        store
    };
    let (checkpoint, _) = tr
        .span("checkpoint.load", |_| resume_store.load())
        .map_err(|e| format!("checkpoint load: {e}"))?;
    let want_next = if steps > 1 { steps - 1 } else { steps };
    if checkpoint.next_step != want_next {
        return Err(format!(
            "loaded the step-{} checkpoint, wanted step {want_next}",
            checkpoint.next_step
        ));
    }
    let mut core = tr
        .span("checkpoint.resume", |_| {
            SolveCore::resume(sim, options, &checkpoint)
        })
        .map_err(|e| format!("resume: {e}"))?;
    while !core.is_done() {
        tr.span("sim.step", |_| core.step(sim));
    }
    let resumed = tr.span("sim.finish", |_| core.finish());
    let resumed_bytes = tr.span("registry.tally_dump", |_| dump(&resumed.tally, nx));
    Ok(DurableOp {
        sharded,
        resumed,
        sharded_bytes,
        resumed_bytes,
        shard_stats,
        saves,
    })
}

/// `csp_t3_durable`.
pub fn durable(ctx: &RunCtx) -> Outcome {
    let spec = SolveSpec::of(ctx.workload, &ctx.sizes);
    let text = spec.params_text(ctx.seed);
    let mut metrics = Metrics::default();
    let mut gate = Gate::default();
    let mut off = crate::trace::Tracer::new(false, ctx.start);

    let sim = Arc::new(build_simulation(&text));
    let nx = sim.problem().mesh.nx();
    // The fused reference every durable result must equal — and the
    // warm-up.
    let fused = sim.run(spec.options(ctx.workers));
    let want = report_checksum(&fused);
    let want_bytes = bytes_checksum(&dump(&fused.tally, nx));

    let mut sidecar = Sidecar::start(ctx, spec, &text, want_bytes, &mut gate);
    let (at_w, at_1) = interleaved_ops(ctx, |threads| {
        sidecar.sample(&mut gate);
        let (done, wall) =
            timed(|| durable_op(&mut off, &sim, spec.options(threads), &ctx.work_dir));
        let mut events = 0;
        match done {
            Ok(done) => {
                events = done.sharded.counters.total_events();
                gate.expect_eq(report_checksum(&done.sharded), want, "sharded result");
                gate.expect_eq(report_checksum(&done.resumed), want, "resumed result");
                gate.expect_eq(
                    bytes_checksum(&done.sharded_bytes),
                    want_bytes,
                    "sharded dump",
                );
                gate.expect_eq(
                    bytes_checksum(&done.resumed_bytes),
                    want_bytes,
                    "resumed dump",
                );
            }
            Err(e) => {
                gate.check(false, || e);
            }
        }
        OpResult {
            wall,
            events,
            checksum: want,
        }
    });
    op_metrics(&mut metrics, ctx.workers, &at_w, &at_1);
    sidecar.finish(&mut metrics);

    Outcome {
        metrics,
        gate,
        checksum: want,
    }
}

/// The readings of one served pass, per block of `SERVE_BLOCK` consecutive
/// list entries: cold-op walls (s), duplicate-op walls (ms), and the
/// block's throughput (cold-solve events ÷ the time from its first request
/// to its last reply).
#[derive(Default)]
pub struct ServeBlocks {
    pub cold_wall_s: Vec<Vec<f64>>,
    pub duplicate_wall_ms: Vec<Vec<f64>>,
    pub events_per_s: Vec<Vec<f64>>,
}

impl ServeBlocks {
    pub fn extend(&mut self, list: &[served::Entry], pass: &Pass) {
        // `pass.samples` is in list order.
        for block in pass.samples.chunks(SERVE_BLOCK) {
            let ok = || block.iter().filter(|s| s.error.is_none());
            let is_cold = |s: &&served::OpSample| list[s.index].duplicate_of.is_none();
            let walls = |cold: bool, scale: f64| -> Vec<f64> {
                ok().filter(|s| is_cold(s) == cold)
                    .map(|s| s.wall.as_secs_f64() * scale)
                    .collect()
            };
            self.cold_wall_s.push(walls(true, 1.0));
            self.duplicate_wall_ms.push(walls(false, 1e3));
            let began = ok().map(|s| s.started_s).fold(f64::INFINITY, f64::min);
            let ended = ok().map(|s| s.ended_s).fold(0.0, f64::max);
            let events: u64 = ok().map(|s| s.events).sum();
            if ended > began {
                self.events_per_s
                    .push(vec![events as f64 / (ended - began)]);
            }
        }
    }
}

/// `serve_mix`: closed-loop passes over the seeded request list.
pub fn serve(ctx: &RunCtx) -> Outcome {
    let list = served::request_list(ctx.seed, ctx.sizes.serve_cold);
    let half = &list[..list.len() / 2];
    let mut metrics = Metrics::default();
    let mut gate = Gate::default();

    // Passes alternate — W clients over the whole list, then 1 client and
    // 1 runner over its first half, each on a fresh service — until the
    // time is up and there is at least one of each.
    let mut setup_s = Vec::new();
    let (mut blocks_w, mut blocks_1) = (ServeBlocks::default(), ServeBlocks::default());
    let mut checksum = None;
    // How long the last pass of each kind took: a pass starts only if it
    // should end within the time, so the pass count — and with it the
    // process's peak RSS — does not hinge on a near miss.
    let mut last_secs = [0.0f64; 2];
    for turn in 0.. {
        let fits = ctx.start.elapsed().as_secs_f64() + last_secs[turn % 2] < ctx.seconds;
        if turn >= 2 && (ctx.sizes.quick || !fits) {
            break;
        }
        for _ in 0..SERVE_SETUP_BLOCKS {
            let mut block = Vec::new();
            for _ in 0..SETUP_PER_TURN {
                let (started, secs) = timed(|| served::cold_start(ctx.workers));
                block.push(secs);
                gate.check(started.is_ok(), || {
                    format!("service cold start: {}", started.as_ref().err().unwrap())
                });
            }
            setup_s.push(block);
        }
        let pass_started = Instant::now();
        let at_w = turn % 2 == 0;
        let (entries, n) = if at_w {
            (&list[..], ctx.workers)
        } else {
            (half, 1)
        };
        let pass = served::run_pass(entries, n, n, false, ctx.start);
        let sum = served::check_pass(entries, &pass, &mut gate);
        gate.check(pass.stats.failed == 0, || {
            "registry reports failed solves".to_owned()
        });
        last_secs[turn % 2] = pass_started.elapsed().as_secs_f64();
        if at_w {
            gate.expect_eq(
                sum,
                *checksum.get_or_insert(sum),
                "served bodies across passes",
            );
            blocks_w.extend(entries, &pass);
        } else {
            blocks_1.extend(entries, &pass);
        }
    }
    metrics.blocks("setup_s", &setup_s[1..], median, Pick::Best);
    // A block is a fixed mix of four unlike scenarios — read it by its mean
    // (the median of a mix jumps between its clusters) — and there are
    // dozens of them, so the best one is partly luck: report the quartile.
    metrics.blocks("wall_s", &blocks_w.cold_wall_s, mean, Pick::Quartile);
    metrics.blocks("events_per_s", &blocks_w.events_per_s, mean, Pick::Quartile);
    let rate = |b: &ServeBlocks| {
        let readings: Vec<f64> = b.events_per_s.iter().flatten().copied().collect();
        Pick::Quartile.of(&readings, false)
    };
    metrics.value(
        "scaling_eff",
        rate(&blocks_w) / (ctx.workers as f64 * rate(&blocks_1)),
    );
    metrics.blocks(
        "cached_wall_ms",
        &blocks_w.duplicate_wall_ms,
        mean,
        Pick::Quartile,
    );

    Outcome {
        metrics,
        gate,
        checksum: checksum.unwrap_or(0),
    }
}

pub fn run(ctx: &RunCtx) -> Outcome {
    let mut outcome = match ctx.workload {
        Workload::CspOp | Workload::ScatterOe => transport(ctx),
        Workload::CspT3Durable => durable(ctx),
        Workload::ServeMix => serve(ctx),
    };
    outcome.metrics.value("peak_rss_mb", host::peak_rss_mb());
    outcome
}
