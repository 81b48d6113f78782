//! The Over-Particles history loop: follow one particle from its current
//! state to census, death or the runaway guard (paper §V-A, Listing 1).
//!
//! The loop embodies the register-caching behaviour the paper credits for
//! the scheme's CPU advantage (§VII-A-2): the microscopic cross sections
//! are re-looked-up only after collisions (the only events that change the
//! energy) and after material-changing facet crossings (the only events
//! that change the table set), the local density only after facet
//! crossings (the only events that change the cell), and the energy
//! deposit accumulates in a register that is flushed to the tally mesh
//! only at facet encounters and at the end of the history (§VI-A).

use crate::config::TransportConfig;
use crate::counters::EventCounters;
use crate::events::{
    energy_deposition, handle_collision, handle_facet, move_particle, next_event, resolve_micro_xs,
    NextEvent, TallySink,
};
use crate::particle::Particle;
use neutral_mesh::StructuredMesh2D;
use neutral_rng::{CbRng, CounterStream};
use neutral_xs::{macroscopic_per_m, number_density, MaterialId, MaterialSet};

/// Shared read-only context of a transport solve.
pub struct TransportCtx<'a, R: CbRng> {
    /// The computational mesh.
    pub mesh: &'a StructuredMesh2D,
    /// Per-material cross-section libraries, indexed by the mesh's
    /// material map.
    pub materials: &'a MaterialSet,
    /// The simulation's counter-based generator.
    pub rng: &'a R,
    /// Numerical controls.
    pub cfg: &'a TransportConfig,
}

impl<'a, R: CbRng> Clone for TransportCtx<'a, R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, R: CbRng> Copy for TransportCtx<'a, R> {}

/// How a history ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistoryEnd {
    /// Reached the end of the timestep.
    Census,
    /// Terminated by the energy/weight cutoff.
    Died,
    /// Abandoned by the runaway guard (counts as `stuck`).
    Stuck,
}

/// Track `p` until census/death, depositing into `tally` and counting
/// events into `counters`.
pub fn track_to_census<R: CbRng, T: TallySink>(
    p: &mut Particle,
    ctx: &TransportCtx<'_, R>,
    tally: &mut T,
    counters: &mut EventCounters,
) -> HistoryEnd {
    if p.dead {
        return HistoryEnd::Died;
    }
    let mut stream = CounterStream::new(ctx.rng, p.key);

    // State cached "in registers" between events (§V-A): refreshed only by
    // the event that invalidates it. The local material id rides along
    // with the density — both change only at facet crossings.
    let mut local_mat = ctx.mesh.material(p.cellx as usize, p.celly as usize);
    let mut micro = lookup_micro(p, ctx, local_mat, counters);
    let mut local_n = {
        counters.density_reads += 1;
        number_density(ctx.mesh.density(p.cellx as usize, p.celly as usize))
    };
    // Register-accumulated deposit, flushed at facets and at history end.
    let mut deposit_acc = 0.0f64;
    let mut events_this_history = 0u64;

    loop {
        events_this_history += 1;
        if events_this_history > ctx.cfg.max_events_per_history {
            counters.stuck += 1;
            flush(tally, p, ctx.mesh.nx(), &mut deposit_acc, counters);
            p.dead = true;
            return HistoryEnd::Stuck;
        }

        let sigma_t = macroscopic_per_m(micro.total_barns(), local_n);
        let bounds = ctx.mesh.cell_bounds(p.cellx as usize, p.celly as usize);

        match next_event(p, sigma_t, bounds) {
            NextEvent::Census(d) => {
                deposit_acc += energy_deposition(p.energy, p.weight, d, local_n, micro);
                move_particle(p, d, sigma_t);
                p.dt_to_census = 0.0;
                counters.census += 1;
                flush(tally, p, ctx.mesh.nx(), &mut deposit_acc, counters);
                return HistoryEnd::Census;
            }
            NextEvent::Facet(d, facet) => {
                deposit_acc += energy_deposition(p.energy, p.weight, d, local_n, micro);
                move_particle(p, d, sigma_t);
                // "At the end of a facet encounter the value is flushed
                // onto the tally mesh" — one atomic RMW per facet (§VI-A).
                flush(tally, p, ctx.mesh.nx(), &mut deposit_acc, counters);
                handle_facet(p, facet, ctx.mesh, counters);
                // The cached local density must be updated: the random
                // read from the cell-centred density mesh. The material
                // index rides on the same cell read; crossing into a
                // different material invalidates the cached microscopic
                // cross sections too (same energy, different tables).
                counters.density_reads += 1;
                local_n = number_density(ctx.mesh.density(p.cellx as usize, p.celly as usize));
                let mat = ctx.mesh.material(p.cellx as usize, p.celly as usize);
                if mat != local_mat {
                    local_mat = mat;
                    counters.material_switches += 1;
                    micro = lookup_micro(p, ctx, local_mat, counters);
                }
            }
            NextEvent::Collision(d) => {
                deposit_acc += energy_deposition(p.energy, p.weight, d, local_n, micro);
                move_particle(p, d, sigma_t);
                let died = handle_collision(p, &mut stream, micro, ctx.cfg, counters);
                if died {
                    flush(tally, p, ctx.mesh.nx(), &mut deposit_acc, counters);
                    return HistoryEnd::Died;
                }
                // The collision changed the energy: refresh the cached
                // microscopic cross sections (§VI-A).
                micro = lookup_micro(p, ctx, local_mat, counters);
            }
        }
    }
}

/// Look up the microscopic cross sections of material `mat` with the
/// configured [`crate::config::LookupStrategy`] (§VI-A), through the
/// shared [`resolve_micro_xs`] seam.
#[inline]
pub(crate) fn lookup_micro<R: CbRng>(
    p: &mut Particle,
    ctx: &TransportCtx<'_, R>,
    mat: MaterialId,
    counters: &mut EventCounters,
) -> neutral_xs::MicroXs {
    resolve_micro_xs(
        ctx.materials.library(mat),
        ctx.cfg.xs_search,
        p.energy,
        &mut p.xs_hints,
        counters,
    )
}

#[inline]
fn flush<T: TallySink>(
    tally: &mut T,
    p: &Particle,
    nx: usize,
    deposit_acc: &mut f64,
    counters: &mut EventCounters,
) {
    if *deposit_acc != 0.0 {
        tally.deposit(p.cell_index(nx), *deposit_acc);
        counters.tally_flushes += 1;
        *deposit_acc = 0.0;
    }
}

/// Outcome of a single-event step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The history continues.
    Continue,
    /// The history reached census.
    Census,
    /// The history was terminated by a cutoff.
    Died,
}

/// Advance exactly one event **without holding any state across calls**:
/// the microscopic cross sections and local density are re-fetched on
/// every invocation and the deposit is flushed on every event.
///
/// This is the memory behaviour the paper attributes to layouts/compilers
/// that cannot keep history state in registers — the mechanism behind the
/// SoA penalty of §VI-D (in C, aliasing between the field arrays forces
/// exactly these reloads) and the per-particle state streaming of the
/// Over-Events scheme (§V-B). Physics is identical to
/// [`track_to_census`] — same RNG draws, same trajectory — but the
/// bookkeeping counters record the extra lookups, density reads and tally
/// flushes that the caching avoided.
pub fn step_particle_uncached<R: CbRng, T: TallySink>(
    p: &mut Particle,
    ctx: &TransportCtx<'_, R>,
    tally: &mut T,
    counters: &mut EventCounters,
) -> StepOutcome {
    if p.dead {
        return StepOutcome::Died;
    }
    let mut stream = CounterStream::new(ctx.rng, p.key);

    // Re-fetched every event: no caching between calls (material id
    // included — each event re-reads the cell's material).
    let mat = ctx.mesh.material(p.cellx as usize, p.celly as usize);
    let micro = lookup_micro(p, ctx, mat, counters);
    counters.density_reads += 1;
    let local_n = number_density(ctx.mesh.density(p.cellx as usize, p.celly as usize));

    let sigma_t = macroscopic_per_m(micro.total_barns(), local_n);
    let bounds = ctx.mesh.cell_bounds(p.cellx as usize, p.celly as usize);

    match next_event(p, sigma_t, bounds) {
        NextEvent::Census(d) => {
            let mut acc = energy_deposition(p.energy, p.weight, d, local_n, micro);
            move_particle(p, d, sigma_t);
            p.dt_to_census = 0.0;
            counters.census += 1;
            flush(tally, p, ctx.mesh.nx(), &mut acc, counters);
            StepOutcome::Census
        }
        NextEvent::Facet(d, facet) => {
            let mut acc = energy_deposition(p.energy, p.weight, d, local_n, micro);
            move_particle(p, d, sigma_t);
            flush(tally, p, ctx.mesh.nx(), &mut acc, counters);
            handle_facet(p, facet, ctx.mesh, counters);
            StepOutcome::Continue
        }
        NextEvent::Collision(d) => {
            let mut acc = energy_deposition(p.energy, p.weight, d, local_n, micro);
            move_particle(p, d, sigma_t);
            flush(tally, p, ctx.mesh.nx(), &mut acc, counters);
            let died = handle_collision(p, &mut stream, micro, ctx.cfg, counters);
            if died {
                StepOutcome::Died
            } else {
                StepOutcome::Continue
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProblemScale, TestCase};
    use crate::particle::spawn_particles;
    use neutral_mesh::tally::SequentialTally;
    use neutral_rng::Threefry2x64;

    fn run_case(case: TestCase) -> (Vec<Particle>, EventCounters, SequentialTally) {
        let problem = case.build(ProblemScale::tiny(), 7);
        let mut particles = spawn_particles(&problem);
        let rng = Threefry2x64::new([problem.seed, 1]);
        let ctx = TransportCtx {
            mesh: &problem.mesh,
            materials: &problem.materials,
            rng: &rng,
            cfg: &problem.transport,
        };
        let mut tally = SequentialTally::new(problem.mesh.num_cells());
        let mut counters = EventCounters::default();
        for p in &mut particles {
            track_to_census(p, &ctx, &mut tally, &mut counters);
        }
        (particles, counters, tally)
    }

    #[test]
    fn stream_problem_is_facet_dominated() {
        let (particles, counters, tally) = run_case(TestCase::Stream);
        assert_eq!(counters.census as usize, particles.len());
        assert_eq!(counters.collisions, 0, "vacuum must not collide");
        // At tiny scale (128 cells over 1 m, 1.38 m of track) expect
        // roughly 128 * 1.38 * ~1.27 (mean of |cos|+|sin|) ~ 225
        // facets/history; allow a broad band.
        let fph = counters.facets_per_history();
        assert!(fph > 100.0 && fph < 400.0, "facets/history = {fph}");
        assert!(counters.reflections > 0, "reflective walls must be hit");
        // Essentially nothing deposits in a vacuum.
        assert!(tally.total() < 1e-10);
        // All particles survive at full energy.
        for p in &particles {
            assert!(!p.dead);
            assert_eq!(p.energy, 1.0e6);
            assert_eq!(p.dt_to_census, 0.0);
        }
    }

    #[test]
    fn scatter_problem_is_collision_dominated() {
        let (particles, counters, tally) = run_case(TestCase::Scatter);
        assert!(counters.collisions > counters.facets);
        let cph = counters.collisions_per_history();
        assert!(cph > 50.0, "collisions/history = {cph}");
        assert!(tally.total() > 0.0);
        // Dense medium: most histories terminate (weight/energy cutoff)
        // rather than reaching census.
        let died: usize = particles.iter().filter(|p| p.dead).count();
        assert!(
            died > particles.len() / 2,
            "{died}/{} died",
            particles.len()
        );
        assert_eq!(counters.stuck, 0);
    }

    #[test]
    fn csp_problem_is_mixed() {
        let (_, counters, tally) = run_case(TestCase::Csp);
        assert!(counters.facets > 0 && counters.collisions > 0);
        assert!(tally.total() > 0.0);
        assert_eq!(counters.stuck, 0);
    }

    #[test]
    fn particles_stay_in_domain() {
        for case in TestCase::ALL {
            let (particles, _, _) = run_case(case);
            for p in &particles {
                // Reflective boundaries keep positions inside the domain
                // (up to floating-point dust at the walls).
                assert!(p.x > -1e-9 && p.x < 1.0 + 1e-9, "{case:?}: x={}", p.x);
                assert!(p.y > -1e-9 && p.y < 1.0 + 1e-9, "{case:?}: y={}", p.y);
            }
        }
    }

    #[test]
    fn tracking_is_deterministic() {
        let (a_particles, a_counters, a_tally) = run_case(TestCase::Csp);
        let (b_particles, b_counters, b_tally) = run_case(TestCase::Csp);
        assert_eq!(a_particles, b_particles);
        assert_eq!(a_counters, b_counters);
        assert_eq!(a_tally.values(), b_tally.values());
    }

    #[test]
    fn dead_particles_are_skipped() {
        let problem = TestCase::Stream.build(ProblemScale::tiny(), 7);
        let mut particles = spawn_particles(&problem);
        let rng = Threefry2x64::new([problem.seed, 1]);
        let ctx = TransportCtx {
            mesh: &problem.mesh,
            materials: &problem.materials,
            rng: &rng,
            cfg: &problem.transport,
        };
        let mut tally = SequentialTally::new(problem.mesh.num_cells());
        let mut counters = EventCounters::default();
        particles[0].dead = true;
        let end = track_to_census(&mut particles[0], &ctx, &mut tally, &mut counters);
        assert_eq!(end, HistoryEnd::Died);
        assert_eq!(counters.total_events(), 0);
    }

    #[test]
    fn weight_never_increases_energy_never_increases() {
        let problem = TestCase::Scatter.build(ProblemScale::tiny(), 11);
        let mut particles = spawn_particles(&problem);
        let rng = Threefry2x64::new([problem.seed, 1]);
        let ctx = TransportCtx {
            mesh: &problem.mesh,
            materials: &problem.materials,
            rng: &rng,
            cfg: &problem.transport,
        };
        let mut tally = SequentialTally::new(problem.mesh.num_cells());
        let mut counters = EventCounters::default();
        for p in particles.iter_mut().take(100) {
            let (w0, e0) = (p.weight, p.energy);
            track_to_census(p, &ctx, &mut tally, &mut counters);
            assert!(p.weight <= w0);
            assert!(p.energy <= e0);
        }
    }
}
