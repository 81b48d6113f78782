//! What each workload runs: names, sizes, and the generated inputs.
//!
//! Only generated inputs reach the program — params text for the transport
//! workloads, `POST /solves` bodies for the served one — and all of them
//! are functions of `--seed`.

use neutral_core::params::{default_material_seed, ProblemParams};
use neutral_core::prelude::*;

pub const DEFAULT_SEED: u64 = 20_170_905;

/// The harness's own generator for seeded inputs (request order, probe
/// walks): SplitMix64.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform double on `[0, 1)` from [`splitmix64`].
pub fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CspOp,
    ScatterOe,
    CspT3Durable,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CspOp,
        Workload::ScatterOe,
        Workload::CspT3Durable,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CspOp => "csp_op",
            Workload::ScatterOe => "scatter_oe",
            Workload::CspT3Durable => "csp_t3_durable",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes of one run: the measured sizes, or the `--quick` smoke
/// sizes whose numbers are never compared.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub quick: bool,
    /// Mesh cells per axis of the transport workloads.
    pub mesh: usize,
    /// Particles of `csp_op` and `scatter_oe`.
    pub particles: usize,
    /// Particles of `csp_t3_durable`.
    pub durable_particles: usize,
    /// Cold requests in the `serve_mix` list (as many duplicates follow).
    pub serve_cold: usize,
    /// Cold requests of the reduced served pass a *transport* workload's
    /// traced run uses for the `serve.*` layer metrics.
    pub serve_probe_cold: usize,
    /// Lookups / draws / deposits per micro-probe.
    pub micro_iters: usize,
    /// Mesh cells per axis of the §VI-F blow-up probe (`mesh.merge_1000_ms`).
    pub big_mesh: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Self {
            quick: false,
            mesh: 512,
            particles: 25_000,
            durable_particles: 24_000,
            serve_cold: 400,
            serve_probe_cold: 200,
            micro_iters: 1_000_000,
            big_mesh: 1000,
        }
    }

    pub fn quick() -> Self {
        Self {
            quick: true,
            mesh: 128,
            particles: 2_000,
            durable_particles: 1_000,
            serve_cold: 16,
            serve_probe_cold: 8,
            micro_iters: 20_000,
            big_mesh: 128,
        }
    }
}

/// One transport problem plus the scheme that runs it.
#[derive(Clone, Copy, Debug)]
pub struct SolveSpec {
    pub scenario: &'static str,
    pub mesh: usize,
    pub particles: usize,
    pub timesteps: usize,
    pub scheme: Scheme,
}

impl SolveSpec {
    /// The problem a workload's ops solve. `serve_mix` has no single
    /// problem; its traced run probes the solve layers on the smallest of
    /// the problems it serves.
    pub fn of(workload: Workload, sizes: &Sizes) -> Self {
        match workload {
            Workload::CspOp => Self {
                scenario: "csp",
                mesh: sizes.mesh,
                particles: sizes.particles,
                timesteps: 1,
                scheme: Scheme::OverParticles,
            },
            Workload::ScatterOe => Self {
                scenario: "scatter",
                mesh: sizes.mesh,
                particles: sizes.particles,
                timesteps: 1,
                scheme: Scheme::OverEvents,
            },
            Workload::CspT3Durable => Self {
                scenario: "csp",
                mesh: sizes.mesh,
                particles: sizes.durable_particles,
                timesteps: 3,
                scheme: Scheme::OverParticles,
            },
            Workload::ServeMix => {
                let tiny = ProblemScale::tiny();
                Self {
                    scenario: "csp",
                    mesh: tiny.mesh_cells,
                    particles: 1_000_000 / tiny.particle_divisor,
                    timesteps: 1,
                    scheme: Scheme::OverParticles,
                }
            }
        }
    }

    /// The generated params file. The seed drives the source sampling and
    /// every particle history; the material table is pinned to the default
    /// seed's, because the synthetic tables — and with them the collisions
    /// per history, ±10 % on `scatter` — otherwise change with the seed, and
    /// a workload's op should be the same amount of work for every seed.
    /// `tally_strategy replicated` is the deterministic contract every
    /// bitwise check (and the registry's result cache) rests on.
    pub fn params_text(&self, seed: u64) -> String {
        format!(
            "scenario {}\nnx {m}\nny {m}\nparticles {}\ntimesteps {}\nseed {seed}\n\
             material 0 reference 30000 {table_seed}\ntally_strategy replicated\n",
            self.scenario,
            self.particles,
            self.timesteps,
            m = self.mesh,
            table_seed = default_material_seed(DEFAULT_SEED, 0),
        )
    }

    /// `RunOptions::default()` except the scheme and the explicit
    /// scheduler — what `neutral_cli --threads N` runs.
    pub fn options(&self, threads: usize) -> RunOptions {
        RunOptions {
            scheme: self.scheme,
            execution: Execution::Scheduled {
                threads,
                schedule: Schedule::Dynamic { chunk: 64 },
            },
            ..RunOptions::default()
        }
    }

    /// The same problem under the other scheme, cut down to one timestep of
    /// at most `max_particles` (the traced pass's cross-scheme probe).
    pub fn cross_scheme(mut self, scheme: Scheme, max_particles: usize) -> Self {
        self.scheme = scheme;
        self.particles = self.particles.min(max_particles);
        self.timesteps = 1;
        self
    }
}

/// The set-up path `setup_s` times: params text → `ProblemParams` →
/// `Problem` → `Simulation`.
pub fn build_simulation(params_text: &str) -> Simulation {
    let params = ProblemParams::parse(params_text).expect("generated params parse");
    Simulation::new(params.build())
}
