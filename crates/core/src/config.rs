//! Problem definitions: the paper's three test cases and the knobs of the
//! transport solve.

use neutral_mesh::{Rect, StructuredMesh2D};
use neutral_xs::{constants, CrossSectionLibrary, MaterialSet};

/// How a collision resolves (DESIGN.md §3 and §10).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CollisionModel {
    /// The mini-app's semi-analogue branch: with probability `p_a` the
    /// collision is an *absorption* (weight is multiplied by `1 - p_a`,
    /// direction unchanged), otherwise an *elastic scatter* (direction and
    /// energy change, weight unchanged). This preserves the two-way branch
    /// whose divergence the paper analyses (§VI-A), and is the default.
    #[default]
    Analogue,
    /// True implicit capture: every collision multiplies the weight by
    /// `1 - p_a` and then scatters. With this model the track-length
    /// estimator is exactly consistent with the population energy balance
    /// (in expectation), which the conservation tests exploit.
    ImplicitCapture,
}

/// How microscopic cross sections are looked up during tracking: the
/// paper's two strategies (§VI-A) plus the unionized-grid and hashed-grid
/// accelerations. Re-exported from `neutral_xs`; see
/// [`neutral_xs::XsLookup`] for the backend contract.
pub use neutral_xs::LookupStrategy;

/// How energy deposits are accumulated into the tally mesh: the paper's
/// shared-atomic baseline or the deterministic lane-replicated backend.
/// Re-exported from `neutral_mesh`; see [`neutral_mesh::accum`] for the
/// backend contract and the deterministic-merge invariant.
pub use neutral_mesh::TallyStrategy;

/// What happens when a particle's weight falls below the cutoff
/// (variance-reduction policy, paper §IV-E).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LowWeightPolicy {
    /// Terminate the history (the mini-app's behaviour: "once the weight
    /// has reduced past a fixed point ... we terminate").
    Terminate,
    /// Russian roulette: survive with probability `w / target` carrying
    /// weight `target`, else die — unbiased in expectation, bounding the
    /// history count without the systematic loss of plain termination.
    Roulette {
        /// Weight assigned to survivors (as a fraction of birth weight);
        /// must exceed the weight cutoff.
        target: f64,
    },
}

/// Numerical controls of the transport solve.
#[derive(Clone, Copy, Debug)]
pub struct TransportConfig {
    /// Histories end when the particle energy falls below this (eV).
    pub min_energy_ev: f64,
    /// Histories end when the weight falls below this fraction of the
    /// birth weight (paper §IV-E: "once the weight has reduced past a
    /// fixed point").
    pub weight_cutoff: f64,
    /// Collision resolution model.
    pub collision_model: CollisionModel,
    /// Cross-section lookup strategy (§VI-A and the unionized/hashed
    /// accelerations).
    pub xs_search: LookupStrategy,
    /// Tally-accumulation backend (§VI-F: shared atomics vs replication
    /// vs cell-block privatization).
    pub tally_strategy: TallyStrategy,
    /// Low-weight policy (termination vs Russian roulette).
    pub low_weight: LowWeightPolicy,
    /// Safety valve: abandon a history after this many events and count it
    /// in [`crate::EventCounters::stuck`] (must stay zero in practice).
    pub max_events_per_history: u64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self {
            min_energy_ev: constants::MIN_ENERGY_OF_INTEREST_EV,
            weight_cutoff: 1.0e-6,
            collision_model: CollisionModel::Analogue,
            xs_search: LookupStrategy::Hinted,
            tally_strategy: TallyStrategy::Replicated,
            low_weight: LowWeightPolicy::Terminate,
            max_events_per_history: 1_000_000,
        }
    }
}

/// A fully-built transport problem: mesh, materials, source and timestep
/// controls.
#[derive(Clone, Debug)]
pub struct Problem {
    /// The computational mesh with its density field and per-cell
    /// material indices.
    pub mesh: StructuredMesh2D,
    /// Per-material cross-section libraries, indexed by the mesh's
    /// material map. The paper's problems carry a single material
    /// (`MaterialSet::single`); scenario problems carry several.
    pub materials: MaterialSet,
    /// Particles are born uniformly inside this region.
    pub source: Rect,
    /// Number of particle histories per timestep.
    pub n_particles: usize,
    /// Timestep (seconds). The paper fixes 1e-7 s "to control the number
    /// of events that occurred per timestep" (§IV-A/B).
    pub dt: f64,
    /// Number of timesteps to run (the paper's plots use one).
    pub n_timesteps: usize,
    /// Master RNG seed.
    pub seed: u64,
    /// Birth energy (eV).
    pub initial_energy_ev: f64,
    /// Transport controls.
    pub transport: TransportConfig,
}

/// Scaling of a canonical test case, so the same problem shapes run from
/// unit-test size up to the paper's full size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProblemScale {
    /// Cells along each mesh axis.
    pub mesh_cells: usize,
    /// Divide the paper's particle count by this factor.
    pub particle_divisor: usize,
}

impl ProblemScale {
    /// The paper's full scale: 4000^2 mesh, 1e6/1e7 particles (§IV-B).
    #[must_use]
    pub fn paper() -> Self {
        Self {
            mesh_cells: 4000,
            particle_divisor: 1,
        }
    }

    /// Benchmark scale: 1000^2 mesh, 1/100th of the particles. Keeps every
    /// figure regenerable in seconds while preserving the event mix.
    #[must_use]
    pub fn small() -> Self {
        Self {
            mesh_cells: 1000,
            particle_divisor: 100,
        }
    }

    /// Test scale: 128^2 mesh, 1/2000th of the particles.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            mesh_cells: 128,
            particle_divisor: 2000,
        }
    }
}

/// The paper's three test problems (§IV-B, Figure 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TestCase {
    /// Homogeneous near-vacuum (1e-30 kg/m^3); particles born in the
    /// centre stream across the mesh, reflecting off the walls — ~7000
    /// facet events per particle, essentially no collisions.
    Stream,
    /// Homogeneous dense medium (1e3 kg/m^3); particles collide inside or
    /// near their birth cell until the weight/energy cutoffs fire.
    Scatter,
    /// "Center square problem": low-density background with a dense square
    /// in the middle; particles born bottom-left stream until they strike
    /// the square. The paper calls this the most realistic case.
    Csp,
}

impl TestCase {
    /// All three cases, in the order the paper plots them.
    pub const ALL: [TestCase; 3] = [TestCase::Stream, TestCase::Scatter, TestCase::Csp];

    /// Display name used in figure output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TestCase::Stream => "stream",
            TestCase::Scatter => "scatter",
            TestCase::Csp => "csp",
        }
    }

    /// The paper's particle count for this case (§IV-B).
    #[must_use]
    pub fn paper_particles(self) -> usize {
        match self {
            TestCase::Stream | TestCase::Csp => 1_000_000,
            TestCase::Scatter => 10_000_000,
        }
    }

    /// Build the problem at the given scale with the given seed.
    ///
    /// Domain is 1 m x 1 m (giving the ~0.25 mm cells at paper scale that
    /// yield ~7000 facet crossings per 1.38 m of 1 MeV track).
    #[must_use]
    pub fn build(self, scale: ProblemScale, seed: u64) -> Problem {
        let n = scale.mesh_cells;
        let (width, height) = (1.0, 1.0);
        let n_particles = (self.paper_particles() / scale.particle_divisor).max(1);
        let xs = CrossSectionLibrary::synthetic(30_000, seed ^ 0xc5_0dd);

        let (mesh, source) = match self {
            TestCase::Stream => {
                let mesh = StructuredMesh2D::uniform(n, n, width, height, 1.0e-30);
                // Small box in the centre of the space.
                let source = Rect::new(0.45, 0.55, 0.45, 0.55);
                (mesh, source)
            }
            TestCase::Scatter => {
                let mesh = StructuredMesh2D::uniform(n, n, width, height, 1.0e3);
                let source = Rect::new(0.45, 0.55, 0.45, 0.55);
                (mesh, source)
            }
            TestCase::Csp => {
                let mut mesh = StructuredMesh2D::uniform(n, n, width, height, 0.05);
                // Dense square in the centre, side = 1/4 of the domain.
                mesh.set_region(Rect::new(0.375, 0.625, 0.375, 0.625), 1.0e3);
                // Particles start in the bottom left of the mesh.
                let source = Rect::new(0.0, 0.1, 0.0, 0.1);
                (mesh, source)
            }
        };

        Problem {
            mesh,
            materials: MaterialSet::single(xs),
            source,
            n_particles,
            dt: 1.0e-7,
            n_timesteps: 1,
            seed,
            initial_energy_ev: constants::INITIAL_ENERGY_EV,
            transport: TransportConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_particle_counts() {
        assert_eq!(TestCase::Stream.paper_particles(), 1_000_000);
        assert_eq!(TestCase::Scatter.paper_particles(), 10_000_000);
        assert_eq!(TestCase::Csp.paper_particles(), 1_000_000);
    }

    #[test]
    fn scales_divide_particles() {
        let p = TestCase::Csp.build(ProblemScale::tiny(), 1);
        assert_eq!(p.n_particles, 500);
        assert_eq!(p.mesh.nx(), 128);
    }

    #[test]
    fn csp_has_dense_centre_square() {
        let p = TestCase::Csp.build(ProblemScale::tiny(), 1);
        let (cx, cy) = p.mesh.locate(0.5, 0.5);
        let (bx, by) = p.mesh.locate(0.05, 0.05);
        assert_eq!(p.mesh.density(cx, cy), 1.0e3);
        assert_eq!(p.mesh.density(bx, by), 0.05);
    }

    #[test]
    fn source_inside_domain() {
        for case in TestCase::ALL {
            let p = case.build(ProblemScale::tiny(), 1);
            assert!(p.source.x0 >= 0.0 && p.source.x1 <= p.mesh.width());
            assert!(p.source.y0 >= 0.0 && p.source.y1 <= p.mesh.height());
        }
    }

    #[test]
    fn default_transport_config_sane() {
        let t = TransportConfig::default();
        assert_eq!(t.min_energy_ev, 1.0);
        assert!(t.weight_cutoff > 0.0 && t.weight_cutoff < 1.0);
        assert_eq!(t.collision_model, CollisionModel::Analogue);
        assert_eq!(t.tally_strategy, TallyStrategy::Replicated);
    }
}
