//! Generative differential testing: random scenarios, physics oracles,
//! and a shrinker (DESIGN.md §17).
//!
//! The golden suite locks a handful of hand-picked configurations; this
//! module multiplies them into *families*. A deterministic, seed-driven
//! generator ([`generate`]) samples random zone layouts, material
//! assignments over all four archetypes, mesh scales, particle counts,
//! timesteps and strategy knobs; [`run_case`] then checks every sampled
//! workload against the reproduction's load-bearing invariants, used as
//! **oracles** (no golden answer is needed — the physics itself says
//! what must hold):
//!
//! * **Conservation** — population accounting (`deaths + stuck + alive
//!   == histories`), non-negative finite tallies, and the energy balance
//!   with its cutoff residual ([`crate::validate::EnergyBalance`]).
//! * **Cross-scheme agreement** — Over Particles and Over Events compute
//!   the same physics: identical event counters, and energy sums and
//!   tallies equal to reassociation error (the breadth-first scheme's
//!   different accumulation order moves the `f64` sums by ulps).
//! * **Worker invariance** — merged tally bits and physics counters are
//!   identical for worker counts {1, 2, 7} (DESIGN.md §11).
//! * **Checkpoint round-trip** — a solve cut at a census boundary,
//!   serialized through the real byte format and resumed, finishes
//!   bitwise identical to the uninterrupted run (DESIGN.md §15).
//! * **Serve == direct** — a solve submitted through the [`Registry`]
//!   returns a report whose tally dump is byte-identical to the direct
//!   in-process run (DESIGN.md §16).
//! * **Shard invariance** — the solve split into {1, 2, 5} fault-isolated
//!   shards merges bitwise identically to the unsharded run, and a shard
//!   killed mid-flight and retried still reproduces it (DESIGN.md §18).
//!
//! A failing case is minimized axis by axis with [`shrink`] and emitted
//! as a replayable params file ([`FuzzCase::to_params_text`]); the
//! regression corpus under `tests/corpus/` is replayed by CI forever.
//!
//! The random harness itself ([`Gen`], [`for_cases`]) is the
//! property-test generator the integration suite has used since the
//! seed commit, now hosted here so the generator, oracles and shrinker
//! live in one layer (the environment has no crates.io access, so
//! `proptest` is replaced by this counter-based harness — classic
//! integrated shrinking is traded for perfectly reproducible cases).

use crate::checkpoint::Checkpoint;
use crate::config::{CollisionModel, Problem};
use crate::dump::write_tally_dump;
use crate::params::ProblemParams;
use crate::registry::{Registry, RegistryConfig, SolveState, SubmitRequest};
use crate::shard::panic_text;
use crate::sim::{RunOptions, RunReport, Scheme, Simulation, SolveCore};
use neutral_mesh::{MaterialId, Rect};
use neutral_rng::{CounterStream, Threefry2x64};
use neutral_xs::{MaterialKind, MaterialSpec};

/// Relative difference `|a-b| / max(|a|, floor)`.
#[must_use]
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(1e-30)
}

/// Deterministic random-input generator for property tests and the
/// scenario fuzzer, backed by the workspace's own counter-based RNG. A
/// failing case is reproduced by its case index alone.
pub struct Gen {
    rng: Threefry2x64,
    counter: u64,
}

impl Gen {
    /// One generator per property case; `seed` is the case index.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Threefry2x64::new([seed, 0x9e37_79b9_7f4a_7c15]),
            counter: 0,
        }
    }

    /// A generator decorrelated by a second `stream` index — the fuzzer
    /// keys one stream per (run seed, case index) pair, so every case
    /// draws from an independent deterministic sequence.
    #[must_use]
    pub fn with_stream(seed: u64, stream: u64) -> Self {
        Self {
            rng: Threefry2x64::new([
                seed,
                0x9e37_79b9_7f4a_7c15 ^ stream.wrapping_mul(0x2545_f491_4f6c_dd1d),
            ]),
            counter: 0,
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        let mut stream = CounterStream::new(&self.rng, 0);
        stream.next_f64(&mut self.counter)
    }

    /// Uniform in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64_unit()
    }

    /// Log-uniform in `[lo, hi)` (both positive).
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo * (hi / lo).powf(self.f64_unit())
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi);
        lo + (self.f64_unit() * (hi - lo) as f64) as usize
    }

    /// Uniform `u64` over the full range.
    pub fn u64_any(&mut self) -> u64 {
        (self.f64_unit() * 2.0f64.powi(32)) as u64
            ^ ((self.f64_unit() * 2.0f64.powi(32)) as u64) << 32
    }

    /// A uniformly chosen element of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize_in(0, items.len())]
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64_unit() < p
    }
}

/// Run `body` over `cases` deterministic generator instances, labelling
/// panics with the failing case index.
pub fn for_cases(cases: u64, mut body: impl FnMut(&mut Gen)) {
    for case in 0..cases {
        let mut g = Gen::new(case);
        // Any panic inside `body` reports `case` via the unwind message of
        // the assert that fired; print the index for quick reproduction.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut g)));
        if let Err(e) = result {
            panic!("property failed at case {case}: {}", panic_text(e.as_ref()));
        }
    }
}

/// Size envelope of generated cases. The default keeps a case's full
/// oracle battery (~9 tiny runs) in the tens-of-milliseconds range; the
/// quick profile is for CI smoke loops over many cases.
#[derive(Debug, Clone, Copy)]
pub struct FuzzProfile {
    /// Upper bound (inclusive) on cells per mesh axis.
    pub max_mesh: usize,
    /// Upper bound (inclusive) on histories per timestep.
    pub max_particles: usize,
}

impl Default for FuzzProfile {
    fn default() -> Self {
        Self {
            max_mesh: 64,
            max_particles: 400,
        }
    }
}

impl FuzzProfile {
    /// The smaller envelope behind `neutral_fuzz --quick`.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            max_mesh: 32,
            max_particles: 140,
        }
    }
}

/// One generated (or replayed) fuzz workload: a fully-validated
/// parameter set plus the scheme to run it under.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Human-readable provenance (`seed<seed>/case<index>` for generated
    /// cases, the file stem for corpus replays).
    pub label: String,
    /// Scheme the case samples (the oracles additionally run the other
    /// one for the cross-scheme check).
    pub scheme: Scheme,
    /// The sampled problem parameters.
    pub params: ProblemParams,
}

/// Deterministically sample case `index` of fuzz run `seed` at the
/// default [`FuzzProfile`]. Same `(seed, index)` → same case, on every run of one build.
#[must_use]
pub fn generate(seed: u64, index: u64) -> FuzzCase {
    generate_with(seed, index, FuzzProfile::default())
}

/// [`generate`] with an explicit size envelope.
#[must_use]
pub fn generate_with(seed: u64, index: u64, profile: FuzzProfile) -> FuzzCase {
    let g = &mut Gen::with_stream(seed, index);
    let mut p = ProblemParams {
        regions: Vec::new(),
        ..ProblemParams::default()
    };

    p.nx = g.usize_in(8, profile.max_mesh + 1);
    p.ny = g.usize_in(8, profile.max_mesh + 1);
    p.width = g.f64_in(0.5, 2.0);
    p.height = g.f64_in(0.5, 2.0);
    p.particles = g.usize_in(16, profile.max_particles + 1);
    p.timesteps = *g.pick(&[1, 2, 2, 3, 3]);
    p.seed = g.u64_any();
    p.dt = g.log_uniform(5.0e-9, 5.0e-7);
    p.initial_energy = g.log_uniform(1.0e5, 5.0e6);
    p.xs_points = g.usize_in(64, 513);
    // Span the paper's regimes: near-streaming to heavily collisional.
    p.density = g.log_uniform(1.0e-4, 2.0e3);

    // Materials: 1–4 archetypes, ids contiguous from 0, every spec
    // explicit (points + table seed) so the emitted params file rebuilds
    // the exact same cross-section tables.
    let n_materials = g.usize_in(1, 5);
    p.materials = (0..n_materials)
        .map(|id| {
            (
                id as MaterialId,
                MaterialSpec {
                    kind: *g.pick(&MaterialKind::ALL),
                    n_points: g.usize_in(64, 513),
                    seed: g.u64_any(),
                },
            )
        })
        .collect();

    // Zone layout: up to 4 density/material rectangles over background.
    let n_regions = g.usize_in(0, 4);
    for _ in 0..n_regions {
        let rect = rect_in(g, p.width, p.height);
        let rho = g.log_uniform(1.0e-2, 2.0e3);
        let mat = g.usize_in(0, n_materials) as MaterialId;
        p.regions.push((rect, rho, mat));
    }
    p.source = rect_in(g, p.width, p.height);

    // Strategy knobs: the collision model and the cutoff. The tally has
    // one value (`replicated`) and the lookup is not a knob.
    p.collision_model = if g.chance(0.5) {
        CollisionModel::ImplicitCapture
    } else {
        CollisionModel::Analogue
    };
    // An aggressive cutoff exercises the cutoff-residual accounting.
    p.weight_cutoff = if g.chance(0.3) { 1.0e-3 } else { 1.0e-6 };
    let scheme = *g.pick(&Scheme::ALL);

    p.validate()
        .expect("generator produced an invalid parameter set");
    FuzzCase {
        label: format!("seed{seed}/case{index}"),
        scheme,
        params: p,
    }
}

/// A random axis-aligned sub-rectangle with ≥ 5% extent per axis.
fn rect_in(g: &mut Gen, width: f64, height: f64) -> Rect {
    let span = |g: &mut Gen, extent: f64| {
        let a = g.f64_in(0.0, 0.9) * extent;
        let len = g.f64_in(0.05, 0.5) * extent;
        (a, (a + len).min(extent))
    };
    let (x0, x1) = span(g, width);
    let (y0, y1) = span(g, height);
    Rect::new(x0, x1, y0, y1)
}

impl FuzzCase {
    /// Serialize as a replayable params file: a standard
    /// [`ProblemParams`] file (round-trips through
    /// [`ProblemParams::parse`], so `neutral_cli --params` runs it too)
    /// plus a `# driver <scheme>` comment directive the fuzzer reads back.
    #[must_use]
    pub fn to_params_text(&self) -> String {
        format!(
            "# neutral_fuzz case {label}\n# driver {scheme}\n{params}",
            label = self.label,
            scheme = self.scheme.name(),
            params = self.params.to_params_text()
        )
    }

    /// Parse a case emitted by [`FuzzCase::to_params_text`]. A missing
    /// `# driver` directive defaults to `over_particles`; the params body
    /// is validated exactly as a CLI params file would be.
    pub fn from_params_text(label: &str, text: &str) -> Result<Self, String> {
        let mut scheme = Scheme::OverParticles;
        for line in text.lines() {
            if let Some(name) = line.trim().strip_prefix("# driver ") {
                scheme = match name.trim() {
                    "history" => {
                        return Err("driver `history` was removed: it was `over_particles` \
                                    on one worker, which the worker-invariance oracle runs; \
                                    write `# driver over_particles`"
                            .to_owned())
                    }
                    name => Scheme::from_name(name)?,
                };
            }
        }
        let params = ProblemParams::parse(text).map_err(|e| e.to_string())?;
        Ok(Self {
            label: label.to_owned(),
            scheme,
            params,
        })
    }
}

/// The six differential oracles of [`run_case`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Population/energy conservation with cutoff residual.
    Conservation,
    /// Both schemes agree (to reassociation error on the `f64` sums).
    CrossScheme,
    /// Worker counts {1, 2, 7} are bitwise indistinguishable.
    WorkerInvariance,
    /// Checkpoint → bytes → resume reproduces the uninterrupted run.
    CheckpointRoundTrip,
    /// The registry serves byte-identical results to a direct run.
    ServeDirect,
    /// Shard counts {1, 2, 5} merge bitwise identically, and a killed
    /// shard recovers identically through retry.
    ShardInvariance,
}

impl Oracle {
    /// All six, in reporting order.
    pub const ALL: [Oracle; 6] = [
        Oracle::Conservation,
        Oracle::CrossScheme,
        Oracle::WorkerInvariance,
        Oracle::CheckpointRoundTrip,
        Oracle::ServeDirect,
        Oracle::ShardInvariance,
    ];

    /// Stable lowercase name for reports and corpus tooling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Oracle::Conservation => "conservation",
            Oracle::CrossScheme => "cross_scheme",
            Oracle::WorkerInvariance => "worker_invariance",
            Oracle::CheckpointRoundTrip => "checkpoint_roundtrip",
            Oracle::ServeDirect => "serve_direct",
            Oracle::ShardInvariance => "shard_invariance",
        }
    }
}

/// One oracle violation on one case.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// Which invariant broke.
    pub oracle: Oracle,
    /// What diverged, with enough context to debug from the params file.
    pub detail: String,
}

/// The verdict of the full oracle battery on one case.
#[derive(Debug, Clone, Default)]
pub struct CaseOutcome {
    /// Every oracle violation observed (empty = case passed).
    pub failures: Vec<OracleFailure>,
    /// Oracles skipped as inapplicable (e.g. checkpoint round-trip on a
    /// single-timestep case, which has no interior census boundary).
    pub skipped: Vec<Oracle>,
    /// Transport events of the baseline run (soak budget metering).
    pub events: u64,
    /// Collisions of the baseline run (corpus coverage gating).
    pub collisions: u64,
    /// Facet crossings of the baseline run (corpus coverage gating).
    pub facets: u64,
}

impl CaseOutcome {
    /// Whether every applicable oracle held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Worker count used for the parallel baseline runs (matches the golden
/// suite's choice: real concurrency, small enough for {1,2,7} sweeps).
const BASE_WORKERS: usize = 2;

/// Maximum |relative energy-balance defect| accepted under implicit
/// capture, as a function of sample size. The hand-picked conservation
/// suite holds 0.05 at its 10k-history scales; generated cases run as
/// few as 16 histories, where the track-length estimator's per-history
/// relative variance (order 1) leaves a sampling defect of a few times
/// `1/sqrt(n)` — calibration over hundreds of generated cases observed
/// up to ±0.15 at a few hundred histories, identically under both schemes.
/// `0.05 + 5/sqrt(n)` gives the systematic floor plus a ~5σ statistical
/// allowance: never flaky in the fuzz envelope, while a genuine
/// accounting bug (defect O(1)) still trips it at every sample size.
#[must_use]
pub fn defect_tolerance(n_particles: usize) -> f64 {
    0.05 + 5.0 / (n_particles as f64).sqrt()
}

/// Run the full oracle battery on one case.
#[must_use]
pub fn run_case(case: &FuzzCase) -> CaseOutcome {
    let problem = case.params.build();
    let sim = Simulation::new(problem);
    let mut out = CaseOutcome::default();

    // One run per scheme; the sampled one is the baseline.
    let options = RunOptions::new(case.scheme, BASE_WORKERS);
    let [op, oe] = Scheme::ALL.map(|s| sim.run(RunOptions::new(s, BASE_WORKERS)));
    let base = if case.scheme == Scheme::OverEvents {
        &oe
    } else {
        &op
    };
    out.events = base.counters.total_events();
    out.collisions = base.counters.collisions;
    out.facets = base.counters.facets;

    // Oracle 1: conservation, on both schemes' runs.
    for (scheme, r) in Scheme::ALL.iter().zip([&op, &oe]) {
        if let Err(e) = check_conservation(sim.problem(), r) {
            out.failures.push(OracleFailure {
                oracle: Oracle::Conservation,
                detail: format!("{}: {e}", scheme.name()),
            });
        }
    }

    // Oracle 2: cross-scheme agreement. Breadth-first accumulation
    // reassociates the energy and tally sums — same terms, different
    // order.
    let label = format!("over_particles vs over_events @{BASE_WORKERS}w");
    let verdict = check_same_physics(&label, &op, &oe)
        .and_then(|()| check_energy_close(&label, &op, &oe))
        .and_then(|()| check_tally_reassoc(&label, &op, &oe));
    if let Err(e) = verdict {
        out.failures.push(OracleFailure {
            oracle: Oracle::CrossScheme,
            detail: e,
        });
    }

    // Oracle 3: worker invariance on the sampled scheme.
    for workers in [1usize, 7] {
        let r = sim.run(RunOptions::new(case.scheme, workers));
        let label = format!("{} @{BASE_WORKERS}w vs @{workers}w", case.scheme.name());
        let verdict = check_same_physics(&label, base, &r)
            .and_then(|()| check_energy_bits(&label, base, &r))
            .and_then(|()| check_tally_bitwise(&label, base, &r));
        if let Err(e) = verdict {
            out.failures.push(OracleFailure {
                oracle: Oracle::WorkerInvariance,
                detail: e,
            });
        }
    }

    // Oracle 4: checkpoint round-trip through the real byte format.
    if sim.problem().n_timesteps < 2 {
        out.skipped.push(Oracle::CheckpointRoundTrip);
    } else if let Err(e) = checkpoint_roundtrip(&sim, options, base) {
        out.failures.push(OracleFailure {
            oracle: Oracle::CheckpointRoundTrip,
            detail: e,
        });
    }

    // Oracle 5: served result == direct run, to the dumped byte.
    if let Err(e) = serve_matches_direct(case, base) {
        out.failures.push(OracleFailure {
            oracle: Oracle::ServeDirect,
            detail: e,
        });
    }

    // Oracle 6: sharded execution is invisible in the results.
    if let Err(e) = shard_invariance(case, base) {
        out.failures.push(OracleFailure {
            oracle: Oracle::ShardInvariance,
            detail: e,
        });
    }

    out
}

/// Run the case's scheme sharded {1, 2, 5} ways and demand each merge be
/// bitwise identical to the unsharded `direct` run; then kill shard 1's
/// first attempt and demand the retried solve still reproduce it (with
/// the retry actually visible in the stats — a fault that silently never
/// fired would vacuously pass).
fn shard_invariance(case: &FuzzCase, direct: &RunReport) -> Result<(), String> {
    use crate::drive::Driver;
    use crate::shard::ShardConfig;

    let options = RunOptions::new(case.scheme, BASE_WORKERS);
    let sim = std::sync::Arc::new(Simulation::new(case.params.build()));
    let run = |config: ShardConfig| -> Result<(RunReport, crate::shard::ShardStats), String> {
        let sim = std::sync::Arc::clone(&sim);
        let mut driver = Driver::open(sim, options, config, None).map_err(|e| e.to_string())?;
        driver.run().map_err(|e| e.to_string())?;
        let stats = driver.solve().stats();
        Ok((driver.finish(), stats))
    };

    // The acceptance counts {1, 2, 5}, plus whatever the case's own
    // `shards` key asks for (corpus cases pin specific splits).
    let mut counts = vec![1usize, 2, 5];
    if !counts.contains(&case.params.shards) {
        counts.push(case.params.shards);
    }
    for n_shards in counts {
        let mut config = ShardConfig::new(n_shards);
        config.backoff = std::time::Duration::ZERO;
        let (report, _) = run(config)?;
        check_reports_bitwise(&format!("unsharded vs {n_shards} shards"), direct, &report)?;
    }

    let mut config = ShardConfig::new(2);
    config.backoff = std::time::Duration::ZERO;
    config.fault_plan = "kill@1".parse().expect("static fault grammar");
    let (report, stats) = run(config)?;
    check_reports_bitwise("unsharded vs killed-then-retried shard", direct, &report)?;
    if stats.retries != 1 || stats.requeues != 1 {
        return Err(format!(
            "injected shard kill not exercised: {} retries, {} requeues (expected 1 each)",
            stats.retries, stats.requeues
        ));
    }
    Ok(())
}

/// Cut the solve at its middle census boundary, serialize the
/// checkpoint, resume from the parsed bytes, and demand the finished
/// report be bitwise identical to the uninterrupted `direct` run.
fn checkpoint_roundtrip(
    sim: &Simulation,
    options: RunOptions,
    direct: &RunReport,
) -> Result<(), String> {
    let cut = (sim.problem().n_timesteps / 2).max(1);
    let mut first = SolveCore::new(sim, options);
    for _ in 0..cut {
        first.step(sim);
    }
    let bytes = first.checkpoint().to_bytes();
    let parsed = Checkpoint::from_bytes(&bytes).map_err(|e| format!("checkpoint bytes: {e}"))?;
    let mut resumed = SolveCore::from_checkpoint(sim, options, parsed)
        .map_err(|e| format!("resume rejected own checkpoint: {e}"))?;
    while resumed.step(sim) {}
    let report = resumed.finish();
    let label = format!("cut@{cut} resume vs direct");
    check_reports_bitwise(&label, direct, &report)
}

/// Submit the case to an in-process [`Registry`] and demand the served
/// report match the direct run to the dumped byte.
fn serve_matches_direct(case: &FuzzCase, direct: &RunReport) -> Result<(), String> {
    let registry = Registry::new(RegistryConfig {
        runners: 2,
        ..Default::default()
    });
    let receipt = registry
        .submit(SubmitRequest::new(
            case.params.build(),
            RunOptions::new(case.scheme, BASE_WORKERS),
        ))
        .map_err(|e| format!("submit: {e}"))?;
    let status = registry.wait(receipt.id).ok_or("entry vanished")?;
    if status.state != SolveState::Done {
        return Err(format!("solve ended {}", status.state.name()));
    }
    let served = registry.result(receipt.id).ok_or("done without result")?;
    check_served_matches(case.params.nx, direct, &served)
}

// ---------------------------------------------------------------------
// Pure comparison layer. `run_case` feeds these with real runs; the
// broken-oracle unit tests feed them seeded mutations each must catch.
// ---------------------------------------------------------------------

/// Conservation oracle on one finished run.
///
/// Checks, in order: every tally cell finite and non-negative; the
/// population identity `deaths + stuck + alive == histories` (each
/// history ends exactly one way); single-timestep census accounting
/// ([`crate::validate::population_balance`]); the weak energy
/// invariants; and, under implicit capture, the closed energy balance
/// `initial == deposited + census residual + cutoff residual` within
/// [`defect_tolerance`] (analogue absorption deposits at collision
/// sites, so only the weak invariants apply there).
pub fn check_conservation(problem: &Problem, r: &RunReport) -> Result<(), String> {
    if let Some((i, v)) = r
        .tally
        .iter()
        .enumerate()
        .find(|(_, v)| !v.is_finite() || **v < 0.0)
    {
        return Err(format!("tally cell {i} is {v} (not finite/non-negative)"));
    }
    let n = problem.n_particles as u64;
    let c = &r.counters;
    let ends = c.deaths + c.stuck + r.alive as u64;
    if ends != n {
        return Err(format!(
            "population leak: deaths {} + stuck {} + alive {} = {ends} != {n} histories",
            c.deaths, c.stuck, r.alive
        ));
    }
    if problem.n_timesteps == 1 && !crate::validate::population_balance(n, c) {
        return Err(format!(
            "census accounting: census {} + deaths {} + stuck {} != {n}",
            c.census, c.deaths, c.stuck
        ));
    }
    let balance = r.energy_balance();
    if !balance.weak_invariants_hold() {
        return Err(format!("weak energy invariants violated: {balance:?}"));
    }
    if problem.transport.collision_model == CollisionModel::ImplicitCapture {
        let defect = balance.relative_defect();
        let tol = defect_tolerance(problem.n_particles);
        if defect.abs() > tol {
            return Err(format!(
                "energy-balance defect {defect:+.4} exceeds {tol:.4} \
                 at {} histories ({balance:?})",
                problem.n_particles
            ));
        }
    }
    Ok(())
}

/// Scheme-portable physics equality: the event counters both schemes
/// must reproduce exactly (collisions, facets, census, absorptions,
/// scatters, reflections, deaths, stuck, lookups, material switches)
/// and the surviving-population count. Work meters that legitimately
/// differ between schemes (flush/batch/read counts) are excluded, and
/// the `f64` energy sums are checked separately — bitwise within one
/// scheme ([`check_energy_bits`]), reassociation-bounded across the two
/// ([`check_energy_close`]).
pub fn check_same_physics(label: &str, a: &RunReport, b: &RunReport) -> Result<(), String> {
    let (ca, cb) = (&a.counters, &b.counters);
    let ints = [
        ("collisions", ca.collisions, cb.collisions),
        ("facets", ca.facets, cb.facets),
        ("census", ca.census, cb.census),
        ("absorptions", ca.absorptions, cb.absorptions),
        ("scatters", ca.scatters, cb.scatters),
        ("reflections", ca.reflections, cb.reflections),
        ("deaths", ca.deaths, cb.deaths),
        ("stuck", ca.stuck, cb.stuck),
        ("cs_lookups", ca.cs_lookups, cb.cs_lookups),
        (
            "material_switches",
            ca.material_switches,
            cb.material_switches,
        ),
        ("alive", a.alive as u64, b.alive as u64),
        ("timesteps", a.timesteps as u64, b.timesteps as u64),
    ];
    for (name, x, y) in ints {
        if x != y {
            return Err(format!("{label}: {name} {x} vs {y}"));
        }
    }
    Ok(())
}

/// Bitwise equality of the deterministically-merged energy sums
/// (lost/census energy). Holds across worker counts of either scheme.
pub fn check_energy_bits(label: &str, a: &RunReport, b: &RunReport) -> Result<(), String> {
    let (ca, cb) = (&a.counters, &b.counters);
    let bits = [
        ("lost_energy_ev", ca.lost_energy_ev, cb.lost_energy_ev),
        ("census_energy_ev", ca.census_energy_ev, cb.census_energy_ev),
    ];
    for (name, x, y) in bits {
        if x.to_bits() != y.to_bits() {
            return Err(format!("{label}: {name} bits {x:e} vs {y:e}"));
        }
    }
    Ok(())
}

/// Reassociation-bounded equality of the energy sums, for comparisons
/// across schemes: Over Events accumulates the same
/// per-history terms in a different order, so the sums agree only to
/// floating-point reassociation error (calibration observed last-ulp
/// differences; 1e-12 relative is ~4 orders of magnitude of headroom
/// while still catching any dropped or double-counted term).
pub fn check_energy_close(label: &str, a: &RunReport, b: &RunReport) -> Result<(), String> {
    let (ca, cb) = (&a.counters, &b.counters);
    let sums = [
        ("lost_energy_ev", ca.lost_energy_ev, cb.lost_energy_ev),
        ("census_energy_ev", ca.census_energy_ev, cb.census_energy_ev),
    ];
    for (name, x, y) in sums {
        if rel_diff(x, y) >= 1e-12 {
            return Err(format!("{label}: {name} {x:e} vs {y:e}"));
        }
    }
    Ok(())
}

/// Bitwise tally equality (the deterministic-merge invariant).
pub fn check_tally_bitwise(label: &str, a: &RunReport, b: &RunReport) -> Result<(), String> {
    if a.tally.len() != b.tally.len() {
        return Err(format!(
            "{label}: tally sizes {} vs {}",
            a.tally.len(),
            b.tally.len()
        ));
    }
    for (i, (x, y)) in a.tally.iter().zip(&b.tally).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(format!(
                "{label}: tally cell {i} bits differ ({x:e} vs {y:e})"
            ));
        }
    }
    Ok(())
}

/// Reassociation-bounded tally equality across schemes:
/// per-cell agreement within floating-point summation error and totals
/// within 1e-9 (the scheme-equivalence suite's bounds).
pub fn check_tally_reassoc(label: &str, a: &RunReport, b: &RunReport) -> Result<(), String> {
    if a.tally.len() != b.tally.len() {
        return Err(format!(
            "{label}: tally sizes {} vs {}",
            a.tally.len(),
            b.tally.len()
        ));
    }
    let (ta, tb) = (a.tally_total(), b.tally_total());
    if rel_diff(ta, tb) >= 1e-9 {
        return Err(format!("{label}: tally totals {ta:e} vs {tb:e}"));
    }
    for (i, (x, y)) in a.tally.iter().zip(&b.tally).enumerate() {
        let scale = x.abs().max(ta.abs() * 1e-12).max(1e-300);
        if ((x - y) / scale).abs() >= 1e-6 {
            return Err(format!("{label}: tally cell {i}: {x:e} vs {y:e}"));
        }
    }
    Ok(())
}

/// Full bitwise report identity: counters, tally bits, survivors and
/// timestep count (the checkpoint/restart acceptance comparison).
pub fn check_reports_bitwise(label: &str, a: &RunReport, b: &RunReport) -> Result<(), String> {
    if a.counters != b.counters {
        return Err(format!(
            "{label}: counters diverge\n  a: {:?}\n  b: {:?}",
            a.counters, b.counters
        ));
    }
    if a.alive != b.alive {
        return Err(format!("{label}: alive {} vs {}", a.alive, b.alive));
    }
    if a.timesteps != b.timesteps {
        return Err(format!(
            "{label}: timesteps {} vs {}",
            a.timesteps, b.timesteps
        ));
    }
    check_tally_bitwise(label, a, b)
}

/// Serve oracle comparison: the served report must carry the direct
/// run's counters and a byte-identical tally dump (the shared `ix iy
/// value` format of `neutral_cli --dump-tally` and `GET
/// /solves/:id/tallies`, whose `{:e}` values round-trip exactly — so
/// byte equality *is* bit equality).
pub fn check_served_matches(
    nx: usize,
    direct: &RunReport,
    served: &RunReport,
) -> Result<(), String> {
    check_reports_bitwise("served vs direct", direct, served)?;
    let mut a = Vec::new();
    let mut b = Vec::new();
    write_tally_dump(&direct.tally, nx, &mut a).map_err(|e| e.to_string())?;
    write_tally_dump(&served.tally, nx, &mut b).map_err(|e| e.to_string())?;
    if a != b {
        return Err("served tally dump bytes differ from direct dump".to_owned());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Shrinker.
// ---------------------------------------------------------------------

/// One generator axis the shrinker can minimize along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShrinkAxis {
    /// Halve the particle count (floor 16).
    Particles,
    /// Remove timesteps one at a time (floor 1).
    Timesteps,
    /// Halve both mesh axes (floor 8 cells each).
    Mesh,
    /// Drop zone rectangles from the end.
    Regions,
    /// Drop materials no region references (keeping ids contiguous).
    Materials,
    /// Halve cross-section table sizes (floor 32 points).
    XsPoints,
    /// Reset strategy knobs to their simplest settings, one at a time.
    Knobs,
    /// Fall back to Over Particles, the default scheme.
    Scheme,
}

impl ShrinkAxis {
    /// Every axis, in the order [`shrink`] visits them.
    pub const ALL: [ShrinkAxis; 8] = [
        ShrinkAxis::Particles,
        ShrinkAxis::Timesteps,
        ShrinkAxis::Mesh,
        ShrinkAxis::Regions,
        ShrinkAxis::Materials,
        ShrinkAxis::XsPoints,
        ShrinkAxis::Knobs,
        ShrinkAxis::Scheme,
    ];

    /// The size-only subset (keeps knob/scheme diversity — used when
    /// minimizing corpus entries that must stay representative).
    pub const SIZE: [ShrinkAxis; 4] = [
        ShrinkAxis::Particles,
        ShrinkAxis::Mesh,
        ShrinkAxis::Regions,
        ShrinkAxis::XsPoints,
    ];
}

/// Minimize `case` along every axis while `predicate` keeps holding
/// (for a failure hunt: "still fails"; for corpus minimization: "still
/// passes and still covers"). Deterministic greedy fixpoint, capped at
/// 400 predicate evaluations.
pub fn shrink(case: &FuzzCase, predicate: impl FnMut(&FuzzCase) -> bool) -> FuzzCase {
    shrink_with_axes(case, &ShrinkAxis::ALL, predicate, 400)
}

/// [`shrink`] restricted to `axes` with an explicit evaluation budget.
pub fn shrink_with_axes(
    case: &FuzzCase,
    axes: &[ShrinkAxis],
    mut predicate: impl FnMut(&FuzzCase) -> bool,
    max_evals: usize,
) -> FuzzCase {
    let mut best = case.clone();
    let mut evals = 0;
    loop {
        let mut improved = false;
        for axis in axes {
            loop {
                let mut progressed = false;
                for cand in candidates_for(&best, *axis) {
                    evals += 1;
                    if evals > max_evals {
                        return best;
                    }
                    if predicate(&cand) {
                        best = cand;
                        progressed = true;
                        improved = true;
                        break;
                    }
                }
                if !progressed {
                    break;
                }
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Strictly-smaller candidates along one axis (empty at the floor).
fn candidates_for(case: &FuzzCase, axis: ShrinkAxis) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut FuzzCase)| {
        let mut cand = case.clone();
        f(&mut cand);
        out.push(cand);
    };
    match axis {
        ShrinkAxis::Particles => {
            if case.params.particles > 16 {
                push(&|c| c.params.particles = (c.params.particles / 2).max(16));
            }
        }
        ShrinkAxis::Timesteps => {
            if case.params.timesteps > 1 {
                push(&|c| c.params.timesteps -= 1);
            }
        }
        ShrinkAxis::Mesh => {
            if case.params.nx > 8 || case.params.ny > 8 {
                push(&|c| {
                    c.params.nx = (c.params.nx / 2).max(8);
                    c.params.ny = (c.params.ny / 2).max(8);
                });
            }
        }
        ShrinkAxis::Regions => {
            if !case.params.regions.is_empty() {
                push(&|c| {
                    c.params.regions.pop();
                });
            }
        }
        ShrinkAxis::Materials => {
            let needed = case
                .params
                .regions
                .iter()
                .map(|(_, _, m)| usize::from(*m) + 1)
                .max()
                .unwrap_or(0)
                .max(1);
            if case.params.material_count() > needed {
                push(&|c| {
                    c.params
                        .materials
                        .retain(|(id, _)| usize::from(*id) < needed);
                });
            }
        }
        ShrinkAxis::XsPoints => {
            let can = case.params.xs_points > 32
                || case.params.materials.iter().any(|(_, s)| s.n_points > 32);
            if can {
                push(&|c| {
                    c.params.xs_points = (c.params.xs_points / 2).max(32);
                    for (_, spec) in &mut c.params.materials {
                        spec.n_points = (spec.n_points / 2).max(32);
                    }
                });
            }
        }
        ShrinkAxis::Knobs => {
            if case.params.collision_model != CollisionModel::Analogue {
                push(&|c| c.params.collision_model = CollisionModel::Analogue);
            }
            if case.params.weight_cutoff != 1.0e-6 {
                push(&|c| c.params.weight_cutoff = 1.0e-6);
            }
        }
        ShrinkAxis::Scheme => {
            if case.scheme != Scheme::OverParticles {
                push(&|c| c.scheme = Scheme::OverParticles);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A failing property names its case and keeps the assert's own
    /// words. (`&Box<dyn Any>` coerces to `&dyn Any` as the box itself,
    /// which no downcast to a string matches.)
    #[test]
    fn a_failing_case_reports_its_panic_message() {
        let caught = std::panic::catch_unwind(|| for_cases(1, |_| panic!("the property's words")));
        let text = panic_text(caught.unwrap_err().as_ref());
        assert_eq!(text, "property failed at case 0: the property's words");
    }

    #[test]
    fn generator_is_deterministic_and_valid() {
        for index in 0..8 {
            let a = generate(20_170_905, index);
            let b = generate(20_170_905, index);
            assert_eq!(a.to_params_text(), b.to_params_text(), "case {index}");
            assert_eq!(a.scheme, b.scheme);
            // Building twice yields the same fingerprint.
            assert_eq!(
                crate::checkpoint::config_fingerprint(&a.params.build(), a.scheme),
                crate::checkpoint::config_fingerprint(&b.params.build(), b.scheme),
            );
        }
    }

    #[test]
    fn distinct_indices_sample_distinct_cases() {
        let texts: Vec<String> = (0..10).map(|i| generate(1, i).to_params_text()).collect();
        let unique: std::collections::HashSet<&String> = texts.iter().collect();
        assert_eq!(unique.len(), texts.len(), "index collision in generator");
    }

    #[test]
    fn params_text_round_trips() {
        for index in 0..8 {
            let case = generate(7, index);
            let text = case.to_params_text();
            let back = FuzzCase::from_params_text(&case.label, &text)
                .unwrap_or_else(|e| panic!("case {index} failed to re-parse: {e}\n{text}"));
            assert_eq!(back.scheme, case.scheme, "case {index}");
            assert_eq!(back.to_params_text(), text, "case {index} text unstable");
            assert_eq!(
                crate::checkpoint::config_fingerprint(&back.params.build(), back.scheme),
                crate::checkpoint::config_fingerprint(&case.params.build(), case.scheme),
                "case {index} fingerprint drifted through serialization"
            );
        }
    }

    #[test]
    fn shrink_reaches_axis_floors() {
        let case = generate(3, 0);
        // Tautological predicate: everything shrinks to the floor.
        let shrunk = shrink(&case, |_| true);
        assert_eq!(shrunk.params.particles, 16);
        assert_eq!(shrunk.params.timesteps, 1);
        assert_eq!((shrunk.params.nx, shrunk.params.ny), (8, 8));
        assert!(shrunk.params.regions.is_empty());
        assert_eq!(shrunk.params.material_count(), 1);
        assert_eq!(shrunk.scheme, Scheme::OverParticles);
        // And the result is still a valid, replayable case.
        let text = shrunk.to_params_text();
        FuzzCase::from_params_text("shrunk", &text).expect("shrunk case must re-parse");
    }

    #[test]
    fn shrink_respects_predicate() {
        // Start from a case that satisfies the predicate, then shrink
        // while preserving it — the fuzzer's "still fails" workflow.
        let mut case = generate(3, 1);
        case.params.particles = 100;
        case.params.timesteps = 3;
        let shrunk = shrink(&case, |c| {
            c.params.particles >= 40 && c.params.timesteps >= 2
        });
        // 100 → 50 (25 would violate the predicate); 3 → 2 (1 would).
        assert_eq!(shrunk.params.particles, 50);
        assert_eq!(shrunk.params.timesteps, 2);
        // Unconstrained axes still reach their floors.
        assert!(shrunk.params.regions.is_empty());
        assert_eq!((shrunk.params.nx, shrunk.params.ny), (8, 8));
    }
}
