//! The top-level simulation facade: configure a problem, pick a
//! parallelisation scheme / tally / threading combination, run timesteps,
//! and collect a [`RunReport`].
//!
//! This is the API the examples and the figure-regeneration harness drive;
//! every timestep it advances goes through the one step engine in
//! [`crate::step`].

use crate::checkpoint::{config_fingerprint, Checkpoint, CheckpointError};
use crate::config::{Problem, TallyStrategy};
use crate::counters::EventCounters;
use crate::history::TransportCtx;
use crate::over_events::KernelTimings;
use crate::particle::{first_out_of_key_order, spawn_particles, Particle};
use crate::scheduler::Schedule;
use crate::soa::{census_energy, ParticleSoA};
use crate::step::{begin_step, execution_workers, run_step};
use crate::validate::{population_balance, EnergyBalance};
use neutral_mesh::accum::DEFAULT_LANES;
use neutral_mesh::{LanePartition, TallyAccum};
use neutral_rng::Threefry2x64;
use std::time::{Duration, Instant};

/// Which parallelisation scheme to run (paper §V).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Scheme {
    /// Depth-first: a thread follows a particle from birth to census.
    #[default]
    OverParticles,
    /// Breadth-first: a lane's histories advance one event class at a time.
    OverEvents,
}

/// Threading configuration of a run: how many workers the step engine
/// ([`crate::step`]) schedules whole tally lanes across. Which tally the
/// run deposits into is the problem's [`TallyStrategy`]. Under the
/// deterministic strategies results are bitwise identical for every
/// value.
#[derive(Clone, Copy, Debug)]
pub enum Execution {
    /// Single-threaded.
    Sequential,
    /// One worker per thread of Rayon's current pool (global, or one the
    /// caller installed), lanes scheduled dynamically.
    Rayon,
    /// Explicit threads with an OpenMP-style schedule (paper §VI-C/E),
    /// applied at lane granularity.
    Scheduled {
        /// Number of worker threads.
        threads: usize,
        /// Loop schedule.
        schedule: Schedule,
    },
}

/// Full options of a run.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Parallelisation scheme.
    pub scheme: Scheme,
    /// Threading configuration.
    pub execution: Execution,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            scheme: Scheme::OverParticles,
            execution: Execution::Rayon,
        }
    }
}

/// Everything a completed run reports.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Wall-clock time of the transport solve (excludes problem setup).
    pub elapsed: Duration,
    /// Merged event counters.
    pub counters: EventCounters,
    /// The energy-deposition tally, merged ("compressed") to one mesh.
    pub tally: Vec<f64>,
    /// Per-kernel busy times, summed over lanes and timesteps (Over
    /// Events only).
    pub kernel_timings: Option<KernelTimings>,
    /// Number of histories that survived to the final census.
    pub alive: usize,
    /// Total source energy (weighted eV).
    pub initial_energy_ev: f64,
    /// Tally memory footprint in bytes (every lane mesh of the
    /// replicated strategy included — the §VI-F blow-up).
    pub tally_footprint_bytes: usize,
    /// Timesteps executed.
    pub timesteps: usize,
}

impl RunReport {
    /// Total deposited energy.
    #[must_use]
    pub fn tally_total(&self) -> f64 {
        self.tally.iter().sum()
    }

    /// Energy balance of the run.
    #[must_use]
    pub fn energy_balance(&self) -> EnergyBalance {
        EnergyBalance::new(self.initial_energy_ev, self.tally_total(), &self.counters)
    }

    /// Events processed per second of solve time.
    #[must_use]
    pub fn events_per_second(&self) -> f64 {
        self.counters.total_events() as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{:.3}s | {} events ({} collisions, {} facets, {} census) | {:.2e} events/s | deposit {:.3e} eV | {} alive",
            self.elapsed.as_secs_f64(),
            self.counters.total_events(),
            self.counters.collisions,
            self.counters.facets,
            self.counters.census,
            self.events_per_second(),
            self.tally_total(),
            self.alive,
        )
    }
}

/// The determinism choke-point (DESIGN.md §16): an *explicit* request for
/// the order-nondeterministic `atomic` tally becomes `replicated`, the
/// strategy whose merged tallies and counters are a pure function of the
/// problem — the only kind a result cache may fingerprint and a sharded
/// solve can merge. Returns whether anything changed (never, for the
/// default configuration).
///
/// [`crate::registry::Registry::submit`] applies this to every
/// submission *before* fingerprinting, so what is hashed is what runs on
/// any host width; front-ends call it to show the resolved configuration.
pub fn resolve_deterministic(problem: &mut Problem) -> bool {
    let atomic = problem.transport.tally_strategy == TallyStrategy::Atomic;
    if atomic {
        problem.transport.tally_strategy = TallyStrategy::Replicated;
    }
    atomic
}

/// A configured simulation: problem + spawned particle population.
pub struct Simulation {
    problem: Problem,
    rng: Threefry2x64,
}

impl Simulation {
    /// Set up a simulation for `problem`.
    ///
    /// Panics if the mesh's material map references a material id the
    /// problem's [`neutral_xs::MaterialSet`] does not define — catching
    /// the mismatch here keeps the hot path's material resolution a plain
    /// slice index.
    #[must_use]
    pub fn new(problem: Problem) -> Self {
        assert!(
            usize::from(problem.mesh.material_map().max_id()) < problem.materials.len(),
            "mesh references material {} but the set defines only {}",
            problem.mesh.material_map().max_id(),
            problem.materials.len(),
        );
        let rng = Threefry2x64::new([problem.seed, 1]);
        Self { problem, rng }
    }

    /// The underlying problem.
    #[must_use]
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The read-only transport context of this simulation. The RNG is
    /// keyed by the problem seed, so every shard attempt draws from the
    /// same counter-based streams an unsharded run would.
    pub(crate) fn ctx(&self) -> TransportCtx<'_, Threefry2x64> {
        TransportCtx {
            mesh: &self.problem.mesh,
            materials: &self.problem.materials,
            rng: &self.rng,
            cfg: &self.problem.transport,
        }
    }

    /// Run the configured number of timesteps with `options`, returning
    /// the report. Each call spawns a fresh particle population, so
    /// repeated calls with the same options are reproducible.
    ///
    #[must_use]
    pub fn run(&self, options: RunOptions) -> RunReport {
        let mut solve = SolveCore::new(self, options);
        while solve.step(self) {}
        solve.finish()
    }
}

/// A resumable solve: [`Simulation::run`] sliced into per-timestep
/// chunks (DESIGN.md §15), owning everything but the [`Simulation`] it
/// steps against.
///
/// ```
/// use neutral_core::prelude::*;
///
/// let mut problem = TestCase::Csp.build(ProblemScale::tiny(), 42);
/// problem.n_timesteps = 2;
/// let sim = Simulation::new(problem);
/// let mut solve = SolveCore::new(&sim, RunOptions::default());
/// solve.step(&sim);                  // timestep 0
/// let ckpt = solve.checkpoint();     // census-boundary snapshot
/// let mut resumed = SolveCore::resume(&sim, RunOptions::default(), &ckpt).unwrap();
/// while resumed.step(&sim) {}
/// let report = resumed.finish();     // bitwise identical to sim.run(..)
/// assert_eq!(report.timesteps, 2);
/// ```
///
/// Stepping, checkpointing at any census boundary and resuming produces
/// tallies, counters and final particle records **byte-identical** to an
/// uninterrupted [`Simulation::run`]: each particle record carries its
/// own RNG key/counter (resuming the counter-based stream exactly, even
/// mid-block), and every per-step driver state is rebuilt from scratch
/// each timestep by design.
///
/// The handle is owning and thread-movable — the chunking seam the solve
/// server builds on: a registry leases it to whichever runner thread
/// picks up its next timestep chunk, and [`crate::shard::ShardedSolve`]
/// wraps one as the coordinator state its shard attempts fold into.
/// Every method that advances the solve takes the simulation by
/// reference; it must be the same simulation the core was created with
/// (checked against the cached config fingerprint in debug builds).
pub struct SolveCore {
    options: RunOptions,
    /// [`config_fingerprint`] of the owning problem, cached at
    /// construction (it also stamps every checkpoint).
    fingerprint: u64,
    n_timesteps: usize,
    /// The canonical particle storage: one column per field, in key
    /// order, shared in place by both drivers. AoS [`Particle`] records
    /// exist only at the serialization edges (checkpoints, shard wire
    /// bytes).
    soa: ParticleSoA,
    counters: EventCounters,
    kernel_timings: Option<KernelTimings>,
    tally: Vec<f64>,
    tally_footprint: usize,
    initial_energy_ev: f64,
    step: usize,
    elapsed: Duration,
}

impl SolveCore {
    /// Start a fresh solve of `sim`'s problem: spawn the particle
    /// population and prepare the lookup acceleration structures
    /// (outside the timed region — the solve should measure transport,
    /// not one-off setup).
    #[must_use]
    pub fn new(sim: &Simulation, options: RunOptions) -> Self {
        let problem = &sim.problem;
        let soa = ParticleSoA::from_aos(&spawn_particles(problem));
        let initial_energy_ev = soa.len() as f64 * problem.initial_energy_ev;
        problem.materials.prepare(problem.transport.xs_search);
        Self {
            options,
            fingerprint: config_fingerprint(problem, options.scheme),
            n_timesteps: problem.n_timesteps,
            soa,
            counters: EventCounters::default(),
            kernel_timings: None,
            tally: vec![0.0; problem.mesh.num_cells()],
            tally_footprint: 0,
            initial_energy_ev,
            step: 0,
            elapsed: Duration::ZERO,
        }
    }

    /// Resume a solve from a census-boundary checkpoint.
    ///
    /// Rejects, as hard errors: a checkpoint written by a different
    /// problem, transport configuration or scheme
    /// ([`CheckpointError::ConfigMismatch`]) and internally-inconsistent
    /// contents — wrong particle or tally counts, records out of key
    /// order ([`CheckpointError::Corrupt`]).
    pub fn resume(
        sim: &Simulation,
        options: RunOptions,
        checkpoint: &Checkpoint,
    ) -> Result<Self, CheckpointError> {
        let problem = &sim.problem;
        let expected = config_fingerprint(problem, options.scheme);
        if checkpoint.fingerprint != expected {
            return Err(CheckpointError::ConfigMismatch {
                expected,
                found: checkpoint.fingerprint,
            });
        }
        if checkpoint.n_timesteps != problem.n_timesteps {
            return Err(CheckpointError::Corrupt(format!(
                "checkpoint ran {} timesteps, problem wants {}",
                checkpoint.n_timesteps, problem.n_timesteps
            )));
        }
        if checkpoint.particles.len() != problem.n_particles {
            return Err(CheckpointError::Corrupt(format!(
                "checkpoint holds {} particles, problem spawns {}",
                checkpoint.particles.len(),
                problem.n_particles
            )));
        }
        if checkpoint.tally.len() != problem.mesh.num_cells() {
            return Err(CheckpointError::Corrupt(format!(
                "checkpoint tally has {} cells, mesh has {}",
                checkpoint.tally.len(),
                problem.mesh.num_cells()
            )));
        }
        if let Some((i, key)) = first_out_of_key_order(&checkpoint.particles, 0) {
            return Err(CheckpointError::Corrupt(format!(
                "particle records are not in key order (record {i} has key {key})"
            )));
        }
        let n = checkpoint.particles.len();
        problem.materials.prepare(problem.transport.xs_search);
        Ok(Self {
            options,
            fingerprint: expected,
            n_timesteps: problem.n_timesteps,
            soa: ParticleSoA::from_aos(&checkpoint.particles),
            counters: checkpoint.counters,
            kernel_timings: None,
            tally: checkpoint.tally.clone(),
            tally_footprint: checkpoint.tally_footprint_bytes,
            initial_energy_ev: n as f64 * problem.initial_energy_ev,
            step: checkpoint.next_step,
            elapsed: checkpoint.elapsed,
        })
    }

    /// Whether every timestep has been executed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.step >= self.n_timesteps
    }

    /// Timesteps completed so far (= the next timestep index to run).
    #[must_use]
    pub fn steps_done(&self) -> usize {
        self.step
    }

    /// Total timesteps of the solve.
    #[must_use]
    pub fn n_timesteps(&self) -> usize {
        self.n_timesteps
    }

    /// The current particle records (key order) — the state a
    /// checkpoint would capture. Materialised from the canonical columns
    /// on each call (a serialization edge, not a hot path).
    #[must_use]
    pub fn particles(&self) -> Vec<Particle> {
        self.soa.to_aos()
    }

    /// The options every step of this solve runs with.
    pub(crate) fn options(&self) -> RunOptions {
        self.options
    }

    /// The cached [`config_fingerprint`] of the owning problem.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The canonical columns (a shard attempt, and a shard's spilled
    /// checkpoint, copy their range out of them).
    pub(crate) fn columns(&self) -> &ParticleSoA {
        &self.soa
    }

    /// Execute the next timestep against `sim` — which must be the
    /// simulation this core was created from. Returns `false` (doing
    /// nothing) once all timesteps have run.
    ///
    /// This is the step engine's sequence over the whole population in
    /// place: `begin_step`, `run_step`, `fold_step`.
    pub fn step(&mut self, sim: &Simulation) -> bool {
        debug_assert_eq!(
            config_fingerprint(&sim.problem, self.options.scheme),
            self.fingerprint,
            "SolveCore stepped against a different simulation"
        );
        if self.is_done() {
            return false;
        }
        let started = Instant::now();
        let ctx = sim.ctx();
        // The lane count is fixed (never derived from the worker count),
        // so the merge order — and therefore the merged bits — are the
        // same for ANY number of workers; workers beyond the lane count
        // simply find no lane to claim (see neutral_mesh::accum).
        let part = LanePartition::new(self.soa.len(), DEFAULT_LANES);
        begin_step(&mut self.soa, sim.problem.dt, self.step);
        let mut accum = TallyAccum::new(ctx.cfg.tally_strategy, self.tally.len(), part.n_lanes);
        let (lane_counters, timings) =
            run_step(&mut self.soa, &ctx, self.options, part, &mut accum);
        let footprint = accum.footprint_bytes();
        let (workers, _) = execution_workers(self.options.execution);
        let merged = accum.merge_with(workers);
        self.fold_step(&lane_counters, &merged, footprint, timings, started);
        true
    }

    /// Close a timestep: merge the per-lane counters deterministically
    /// (global lane order), fold the survivors' energy in key order,
    /// accumulate the step's pairwise-merged mesh `step_tally` into the
    /// running tally, and advance the step index and the solve clock
    /// (running since `started`). The one place a step's results enter
    /// the solve — the in-place step and the shard coordinator both end
    /// here, so they cannot disagree on a bit.
    pub(crate) fn fold_step(
        &mut self,
        lane_counters: &[EventCounters],
        step_tally: &[f64],
        footprint: usize,
        timings: Option<KernelTimings>,
        started: Instant,
    ) {
        let mut step_counters = EventCounters::merge_deterministic(lane_counters);
        step_counters.census_energy_ev = census_energy(&self.soa);
        self.counters.merge(&step_counters);
        // The residual is a snapshot, not a sum across steps.
        self.counters.census_energy_ev = step_counters.census_energy_ev;
        accumulate(&mut self.tally, step_tally);
        self.tally_footprint = footprint;
        if let Some(timings) = timings {
            merge_timings(&mut self.kernel_timings, timings);
        }
        self.step += 1;
        self.elapsed += started.elapsed();
    }

    /// Install the post-step records `shards` hand back (each a global
    /// start index and that range's records, in key order), ready for
    /// [`fold_step`].
    ///
    /// [`fold_step`]: SolveCore::fold_step
    pub(crate) fn store_records<'a>(
        &mut self,
        shards: impl Iterator<Item = (usize, &'a [Particle])>,
    ) {
        for (base0, records) in shards {
            for (i, p) in records.iter().enumerate() {
                self.soa.store(base0 + i, p);
            }
        }
    }

    /// Snapshot the complete resumable state at the current census
    /// boundary (call between steps).
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            fingerprint: self.fingerprint,
            next_step: self.step,
            n_timesteps: self.n_timesteps,
            elapsed: self.elapsed,
            tally_footprint_bytes: self.tally_footprint,
            counters: self.counters,
            tally: self.tally.clone(),
            particles: self.soa.to_aos(),
        }
    }

    /// Finish the solve and build the report. Call after the last
    /// timestep (stepping a finished solve is a no-op, so this is safe
    /// to call whenever [`SolveCore::is_done`]).
    #[must_use]
    pub fn finish(self) -> RunReport {
        let alive = self.soa.dead.iter().filter(|&&d| !d).count();
        // Per-step population balance: step k processes the histories that
        // were alive at its start, so census + deaths + stuck across the
        // whole run equals n_particles plus one extra census per survivor
        // per additional timestep.
        debug_assert!(
            !self.is_done()
                || self.n_timesteps > 1
                || population_balance(self.soa.len() as u64, &self.counters)
        );
        RunReport {
            elapsed: self.elapsed,
            counters: self.counters,
            tally: self.tally,
            kernel_timings: self.kernel_timings,
            alive,
            initial_energy_ev: self.initial_energy_ev,
            tally_footprint_bytes: self.tally_footprint,
            timesteps: self.step,
        }
    }
}

fn accumulate(acc: &mut [f64], step: &[f64]) {
    for (a, s) in acc.iter_mut().zip(step) {
        *a += s;
    }
}

/// Fold a step's timings into the solve's: busy times add across steps
/// as they do across lanes; rounds add too.
fn merge_timings(acc: &mut Option<KernelTimings>, timings: KernelTimings) {
    *acc = Some(match acc.take() {
        None => timings,
        Some(prev) => KernelTimings {
            rounds: prev.rounds + timings.rounds,
            ..KernelTimings::over_lanes(&[prev, timings])
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProblemScale, TallyStrategy, TestCase};

    fn sim(case: TestCase) -> Simulation {
        Simulation::new(case.build(ProblemScale::tiny(), 3))
    }

    #[test]
    fn sequential_run_reports() {
        let s = sim(TestCase::Csp);
        let r = s.run(RunOptions {
            execution: Execution::Sequential,
            ..Default::default()
        });
        assert!(r.elapsed > Duration::ZERO);
        assert!(r.counters.total_events() > 0);
        assert_eq!(r.tally.len(), s.problem().mesh.num_cells());
        assert!(r.tally_total() > 0.0);
        assert!(!r.summary().is_empty());
        assert!(population_balance(
            s.problem().n_particles as u64,
            &r.counters
        ));
    }

    #[test]
    fn all_executions_agree_on_physics() {
        let s = sim(TestCase::Csp);
        let base = s.run(RunOptions {
            execution: Execution::Sequential,
            ..Default::default()
        });
        let combos = [
            RunOptions {
                execution: Execution::Rayon,
                ..Default::default()
            },
            RunOptions {
                execution: Execution::Scheduled {
                    threads: 3,
                    schedule: Schedule::Dynamic { chunk: 8 },
                },
                ..Default::default()
            },
            RunOptions {
                scheme: Scheme::OverEvents,
                execution: Execution::Rayon,
            },
        ];
        for opts in combos {
            let r = s.run(opts);
            assert_eq!(r.counters.collisions, base.counters.collisions, "{opts:?}");
            assert_eq!(r.counters.facets, base.counters.facets, "{opts:?}");
            let (a, b) = (base.tally_total(), r.tally_total());
            assert!(
                ((a - b) / a.abs().max(1e-30)).abs() < 1e-9,
                "{opts:?}: tally {a} vs {b}"
            );
        }
    }

    #[test]
    fn over_events_reports_kernel_timings() {
        let s = sim(TestCase::Scatter);
        let r = s.run(RunOptions {
            scheme: Scheme::OverEvents,
            execution: Execution::Sequential,
        });
        let t = r.kernel_timings.expect("OE must report kernel timings");
        assert!(t.rounds > 0);
    }

    #[test]
    fn tally_strategies_agree_on_physics() {
        let s = sim(TestCase::Csp);
        let base = s.run(RunOptions {
            execution: Execution::Sequential,
            ..Default::default()
        });
        for strategy in TallyStrategy::ALL {
            let mut problem = s.problem().clone();
            problem.transport.tally_strategy = strategy;
            let s2 = Simulation::new(problem);
            for opts in [
                RunOptions {
                    execution: Execution::Sequential,
                    ..Default::default()
                },
                RunOptions {
                    execution: Execution::Scheduled {
                        threads: 3,
                        schedule: Schedule::Dynamic { chunk: 8 },
                    },
                    ..Default::default()
                },
                RunOptions {
                    scheme: Scheme::OverEvents,
                    execution: Execution::Rayon,
                },
            ] {
                let r = s2.run(opts);
                assert_eq!(
                    r.counters.collisions, base.counters.collisions,
                    "{strategy:?}/{opts:?}"
                );
                assert_eq!(
                    r.counters.facets, base.counters.facets,
                    "{strategy:?}/{opts:?}"
                );
                let (a, b) = (base.tally_total(), r.tally_total());
                assert!(
                    ((a - b) / a.abs().max(1e-30)).abs() < 1e-9,
                    "{strategy:?}/{opts:?}: tally {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn deterministic_strategies_are_worker_count_invariant_at_sim_level() {
        let mut problem = TestCase::Csp.build(ProblemScale::tiny(), 3);
        problem.transport.tally_strategy = TallyStrategy::Replicated;
        let s = Simulation::new(problem);
        let run_with = |threads: usize| {
            s.run(RunOptions {
                execution: Execution::Scheduled {
                    threads,
                    schedule: Schedule::Dynamic { chunk: 16 },
                },
                ..Default::default()
            })
        };
        let seq = s.run(RunOptions {
            execution: Execution::Sequential,
            ..Default::default()
        });
        for threads in [1, 2, 7] {
            let r = run_with(threads);
            assert_eq!(r.counters, seq.counters, "{threads}");
            assert!(
                r.tally
                    .iter()
                    .zip(&seq.tally)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{threads}: merged tally bits differ from sequential"
            );
        }
    }

    #[test]
    fn multi_timestep_runs() {
        let mut problem = TestCase::Stream.build(ProblemScale::tiny(), 3);
        problem.n_timesteps = 3;
        let s = Simulation::new(problem);
        let r = s.run(RunOptions {
            execution: Execution::Sequential,
            ..Default::default()
        });
        assert_eq!(r.timesteps, 3);
        // Stream particles all survive, so census fires every step.
        assert_eq!(r.counters.census as usize, 3 * s.problem().n_particles);
    }
}
