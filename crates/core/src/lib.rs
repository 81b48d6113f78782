//! # neutral-core
//!
//! A Rust reproduction of **neutral**, the Monte Carlo neutral particle
//! transport mini-app of Martineau & McIntosh-Smith, *Exploring On-Node
//! Parallelism with Neutral, a Monte Carlo Neutral Particle Transport
//! Mini-App* (IEEE CLUSTER 2017).
//!
//! The mini-app tracks particles through a 2D structured mesh under three
//! event types — collisions (absorption / elastic scatter), facet
//! crossings, and census — tallying energy deposition per mesh cell with a
//! track-length estimator. Although Monte Carlo transport is nominally
//! embarrassingly parallel, the mesh dependency (random density reads,
//! atomic tally writes) makes it memory-latency bound, and the paper's
//! central question is how best to parallelise it on a node. Two schemes
//! are implemented:
//!
//! * **Over Particles** ([`over_particles`], §V-A) — a thread follows each
//!   history from birth to census, caching cross sections and densities in
//!   registers;
//! * **Over Events** ([`over_events`], §V-B) — a lane's histories advance
//!   together, one event at a time, through tight per-event kernels.
//!
//! Both are lane kernels over the canonical column storage ([`soa`]),
//! run in place by the one lane driver of the one step engine ([`step`]):
//! one fork-join per timestep, whichever scheme. Supporting machinery
//! reproduces the paper's ablations: OpenMP-style loop schedules
//! ([`scheduler`], §VI-C), shared-atomic vs privatised tallies (§VI-F,
//! via [`neutral_mesh::tally`]), per-kernel timings (§VI-G),
//! and full event instrumentation ([`counters`]) feeding the
//! `neutral-perf` architecture model; the record-at-a-time baselines
//! behind Figs. 3–7 live in `neutral-bench`.
//!
//! # Quickstart
//!
//! ```
//! use neutral_core::prelude::*;
//!
//! // The paper's "center square problem" at test scale.
//! let problem = TestCase::Csp.build(ProblemScale::tiny(), 42);
//! let sim = Simulation::new(problem);
//! let report = sim.run(RunOptions::default());
//! println!("{}", report.summary());
//! assert!(report.counters.collisions > 0);
//! assert!(report.counters.facets > 0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

#[cfg(test)]
mod alloc_probe;
pub mod arena;
pub mod checkpoint;
pub mod config;
pub mod counters;
pub mod dump;
pub mod events;
pub mod fuzz;
pub mod history;
pub mod over_events;
pub mod over_particles;
pub mod params;
pub mod particle;
pub mod registry;
pub mod scenario;
pub mod scheduler;
pub mod shard;
pub mod sim;
pub mod soa;
pub mod step;
pub mod validate;

/// The things almost every user of the crate needs.
pub mod prelude {
    pub use crate::arena::ScratchArena;
    pub use crate::checkpoint::{
        config_fingerprint, run_with_checkpoints, Checkpoint, CheckpointError, CheckpointStore,
        Fault, FaultPlan, Recovery, SolveOutcome,
    };
    pub use crate::config::{
        CollisionModel, LookupStrategy, LowWeightPolicy, Problem, ProblemScale, TallyStrategy,
        TestCase, TransportConfig,
    };
    pub use crate::counters::EventCounters;
    pub use crate::over_events::KernelTimings;
    pub use crate::registry::{
        Admission, Registry, RegistryConfig, RegistryStats, SolveState, SolveStatus, SubmitError,
        SubmitReceipt, SubmitRequest,
    };
    pub use crate::scenario::Scenario;
    pub use crate::scheduler::Schedule;
    pub use crate::shard::{
        ShardConfig, ShardError, ShardFault, ShardFaultKind, ShardFaultPlan, ShardPlan, ShardStats,
        ShardedSolve,
    };
    pub use crate::sim::{
        resolve_deterministic, Execution, RunOptions, RunReport, Scheme, Simulation, SolveCore,
    };
    pub use crate::validate::EnergyBalance;
    pub use neutral_xs::{MaterialKind, MaterialSet, MaterialSpec};
}

pub use prelude::*;
