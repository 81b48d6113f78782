//! Pure event physics: the collision, facet and census handlers plus the
//! distance calculations that decide which event a particle encounters
//! first (paper §IV-A, Figure 1).
//!
//! Everything here is scheme-agnostic: the Over-Particles history loop
//! ([`crate::history`]) and the Over-Events kernels
//! ([`crate::over_events`]) call the same functions with the same
//! per-particle RNG streams, which is what makes the two schemes produce
//! identical physics (DESIGN.md §9).

use crate::config::{CollisionModel, LowWeightPolicy, TransportConfig};
use crate::counters::EventCounters;
use crate::particle::Particle;
use neutral_mesh::tally::{SequentialTally, TallySlot};
use neutral_mesh::{tally::AtomicTally, Facet, StructuredMesh2D};
use neutral_rng::{dist, CbRng, CounterStream};
use neutral_xs::constants::{mean_elastic_retention, speed_m_per_s, MASS_NO};
use neutral_xs::{
    macroscopic_per_m, CrossSectionLibrary, LookupStrategy, MaterialId, MaterialSet, MicroXs,
    XsHints,
};

/// Where energy deposits go. Implemented by the solve path's one tally,
/// the lane fold's [`neutral_mesh::LaneSink`], by the paper baselines'
/// sinks ([`SequentialTally`], `&AtomicTally`, [`TallySlot`]) and by
/// [`NullTally`] (used to measure the tally share of runtime, §VI-A).
pub trait TallySink {
    /// Add `value` (eV, weighted) to `cell`.
    fn deposit(&mut self, cell: usize, value: f64);
}

/// A sink that discards deposits — subtracting a `NullTally` run from a
/// real run isolates the cost of tallying, reproducing the paper's
/// sample-profiling observation that tallying is ~50% of the
/// Over-Particles runtime.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTally;

impl TallySink for NullTally {
    #[inline]
    fn deposit(&mut self, _cell: usize, _value: f64) {}
}

impl TallySink for SequentialTally {
    #[inline]
    fn deposit(&mut self, cell: usize, value: f64) {
        self.add(cell, value);
    }
}

impl TallySink for &AtomicTally {
    #[inline]
    fn deposit(&mut self, cell: usize, value: f64) {
        self.add(cell, value);
    }
}

impl TallySink for TallySlot {
    #[inline]
    fn deposit(&mut self, cell: usize, value: f64) {
        self.add(cell, value);
    }
}

impl TallySink for neutral_mesh::LaneSink<'_> {
    #[inline]
    fn deposit(&mut self, cell: usize, value: f64) {
        self.add(cell, value);
    }
}

impl<T: TallySink + ?Sized> TallySink for &mut T {
    #[inline]
    fn deposit(&mut self, cell: usize, value: f64) {
        (**self).deposit(cell, value);
    }
}

/// Resolve both microscopic cross sections at `energy_ev` with the
/// configured lookup strategy, updating the caller's cached table hints
/// and the instrumentation counters.
///
/// This is the single seam between the transport kernels and the
/// `neutral_xs` lookup strategies: every driver (history loop,
/// event kernels, SoA trackers) funnels through here, so switching
/// [`LookupStrategy`] retunes all of them at once.
#[inline]
pub fn resolve_micro_xs(
    xs: &CrossSectionLibrary,
    strategy: LookupStrategy,
    energy_ev: f64,
    hints: &mut XsHints,
    counters: &mut EventCounters,
) -> MicroXs {
    counters.cs_lookups += 1;
    let (micro, steps) = xs.lookup_with(strategy, energy_ev, hints);
    counters.cs_search_steps += u64::from(steps);
    micro
}

/// Batched [`resolve_micro_xs`]: resolve a whole lane block of energies —
/// `energies[i]` in material `mats[i]` — in one call through the
/// material set's grouped `lookup_many`, updating the SoA hint lanes in
/// place. Slices must have equal lengths. Bitwise identical to
/// per-particle [`resolve_micro_xs`] calls against each particle's
/// material library. `scratch` holds the mixed-material staging lanes
/// (untouched on single-material blocks), so multi-material blocks stop
/// allocating per call.
#[allow(clippy::too_many_arguments)] // mirrors the five parallel SoA lanes
pub fn resolve_micro_xs_many(
    materials: &MaterialSet,
    strategy: LookupStrategy,
    mats: &[MaterialId],
    energies: &[f64],
    hints_absorb: &mut [u32],
    hints_scatter: &mut [u32],
    out_absorb: &mut [f64],
    out_scatter: &mut [f64],
    counters: &mut EventCounters,
    scratch: &mut neutral_xs::LaneScratch,
) {
    counters.cs_lookups += energies.len() as u64;
    counters.batched_lookups += energies.len() as u64;
    counters.cs_search_steps += materials.lookup_many_with_scratch(
        strategy,
        mats,
        energies,
        hints_absorb,
        hints_scatter,
        out_absorb,
        out_scatter,
        scratch,
    );
}

/// The event a particle will encounter next.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NextEvent {
    /// A collision after travelling the stored distance (m).
    Collision(f64),
    /// A facet crossing after the stored distance (m).
    Facet(f64, Facet),
    /// Census (end of timestep) after the stored distance (m).
    Census(f64),
}

impl NextEvent {
    /// Distance to the event (m).
    #[inline]
    #[must_use]
    pub fn distance(&self) -> f64 {
        match *self {
            NextEvent::Collision(d) | NextEvent::Census(d) => d,
            NextEvent::Facet(d, _) => d,
        }
    }
}

/// Distance from `(x, y)` travelling along `(ox, oy)` to the boundary of
/// the cell `[x0,x1] x [y0,y1]`, and which facet is struck.
///
/// "The problem is essentially solved as a simple intersection in
/// Cartesian space" (§IV-C). Distances are clamped non-negative so that a
/// particle sitting marginally outside its cell (floating-point dust from
/// a previous move) still makes progress through the cell index update.
#[inline]
#[must_use]
pub fn facet_distance(
    x: f64,
    y: f64,
    ox: f64,
    oy: f64,
    bounds: (f64, f64, f64, f64),
) -> (f64, Facet) {
    let (x0, x1, y0, y1) = bounds;
    let (dx, fx) = if ox > 0.0 {
        ((x1 - x) / ox, Facet::XHigh)
    } else if ox < 0.0 {
        ((x0 - x) / ox, Facet::XLow)
    } else {
        (f64::INFINITY, Facet::XHigh)
    };
    let (dy, fy) = if oy > 0.0 {
        ((y1 - y) / oy, Facet::YHigh)
    } else if oy < 0.0 {
        ((y0 - y) / oy, Facet::YLow)
    } else {
        (f64::INFINITY, Facet::YHigh)
    };
    if dx <= dy {
        (clamp_nonneg(dx), fx)
    } else {
        (clamp_nonneg(dy), fy)
    }
}

/// `d.max(0.0)` with a pinned `+0.0` on the `-0.0` tie (a particle
/// exactly on its cell edge travelling inward). `f64::max` lowers to
/// `llvm.maxnum`, whose zero-sign result on equal operands is
/// codegen-dependent — debug and release builds disagree. The explicit
/// compare pins every build and every driver to one result (a NaN also
/// maps to `0.0`).
#[inline(always)]
fn clamp_nonneg(d: f64) -> f64 {
    if d > 0.0 {
        d
    } else {
        0.0
    }
}

/// Decide the next event for a particle given the local macroscopic total
/// cross section (per m). Tie-break order: census, then facet, then
/// collision (§IV-A maintains per-event timers; ties are measure-zero but
/// must still resolve deterministically).
#[inline]
#[must_use]
pub fn next_event(p: &Particle, sigma_t_per_m: f64, bounds: (f64, f64, f64, f64)) -> NextEvent {
    next_event_parts(
        p.x,
        p.y,
        p.omega_x,
        p.omega_y,
        p.energy,
        p.dt_to_census,
        p.mfp_to_collision,
        sigma_t_per_m,
        bounds,
    )
}

/// [`next_event`] over the individual particle fields — the form the
/// column-storage kernels call so the decision never gathers a whole
/// [`Particle`] record. Same expressions in the same order, so both
/// entry points compute identical bits.
#[allow(clippy::too_many_arguments)] // mirrors the particle fields read
#[inline]
#[must_use]
pub fn next_event_parts(
    x: f64,
    y: f64,
    omega_x: f64,
    omega_y: f64,
    energy: f64,
    dt_to_census: f64,
    mfp_to_collision: f64,
    sigma_t_per_m: f64,
    bounds: (f64, f64, f64, f64),
) -> NextEvent {
    let speed = speed_m_per_s(energy);
    let d_census = speed * dt_to_census;
    let d_coll = if sigma_t_per_m > 0.0 {
        mfp_to_collision / sigma_t_per_m
    } else {
        f64::INFINITY
    };
    let (d_facet, facet) = facet_distance(x, y, omega_x, omega_y, bounds);
    if d_census <= d_coll && d_census <= d_facet {
        NextEvent::Census(d_census)
    } else if d_facet <= d_coll {
        NextEvent::Facet(d_facet, facet)
    } else {
        NextEvent::Collision(d_coll)
    }
}

/// Track-length energy-deposition estimator for a path segment (§V-C):
/// expected number of collisions along the segment times the expected
/// energy transfer per collision, weighted by the particle weight.
///
/// `path_m * n * sigma_t * barn` is the expected collision count;
/// the bracket is the mean deposit per collision: full energy on
/// absorption (mean exit energy 0) and `E (1 - (A^2+1)/(A+1)^2)` on
/// isotropic-CM elastic scatter.
#[inline]
#[must_use]
pub fn energy_deposition(
    energy_ev: f64,
    weight: f64,
    path_m: f64,
    number_density_m3: f64,
    micro: MicroXs,
) -> f64 {
    let sigma_t = micro.total_barns();
    if sigma_t <= 0.0 {
        return 0.0;
    }
    let p_absorb = micro.absorb_barns / sigma_t;
    let absorption_heating = p_absorb * energy_ev;
    let mean_exit = energy_ev * mean_elastic_retention(MASS_NO);
    let scattering_heating = (1.0 - p_absorb) * (energy_ev - mean_exit);
    weight
        * (absorption_heating + scattering_heating)
        * path_m
        * macroscopic_per_m(sigma_t, number_density_m3)
}

/// Advance a particle `distance` metres along its direction and debit the
/// event timers: `mfp -= d * sigma_t`, `dt -= d / v`.
#[inline]
pub fn move_particle(p: &mut Particle, distance: f64, sigma_t_per_m: f64) {
    move_particle_parts(
        &mut p.x,
        &mut p.y,
        &mut p.mfp_to_collision,
        &mut p.dt_to_census,
        p.omega_x,
        p.omega_y,
        p.energy,
        distance,
        sigma_t_per_m,
    );
}

/// [`move_particle`] over the individual particle fields — the form the
/// column-storage kernels call so the move touches only the four columns
/// it writes. Same expressions in the same order as [`move_particle`].
#[allow(clippy::too_many_arguments)] // mirrors the particle fields touched
#[inline]
pub fn move_particle_parts(
    x: &mut f64,
    y: &mut f64,
    mfp_to_collision: &mut f64,
    dt_to_census: &mut f64,
    omega_x: f64,
    omega_y: f64,
    energy: f64,
    distance: f64,
    sigma_t_per_m: f64,
) {
    *x += distance * omega_x;
    *y += distance * omega_y;
    *mfp_to_collision = (*mfp_to_collision - distance * sigma_t_per_m).max(0.0);
    let speed = speed_m_per_s(energy);
    *dt_to_census = (*dt_to_census - distance / speed).max(0.0);
}

/// Resolve a collision event at the particle's current position.
///
/// Returns `true` if the history terminated (energy or weight cutoff).
/// RNG draws per collision, in stream order:
/// `Analogue`: select, then on scatter `(mu, sign)`, then mfp resample —
/// 2 draws for absorption, 4 for scatter. `ImplicitCapture`: mu, sign,
/// mfp — always 3.
#[inline]
pub fn handle_collision<R: CbRng>(
    p: &mut Particle,
    stream: &mut CounterStream<'_, R>,
    micro: MicroXs,
    cfg: &TransportConfig,
    counters: &mut EventCounters,
) -> bool {
    counters.collisions += 1;
    let p_absorb = micro.absorb_probability();

    let mut died = false;
    match cfg.collision_model {
        CollisionModel::Analogue => {
            let select = stream.next_f64(&mut p.rng_counter);
            if select < p_absorb {
                // Absorption: the weight absorbs the event, the direction
                // is unchanged (§IV-E).
                counters.absorptions += 1;
                p.weight *= 1.0 - p_absorb;
                if low_weight(p, stream, cfg) || p.energy < cfg.min_energy_ev {
                    died = true;
                }
            } else {
                counters.scatters += 1;
                elastic_scatter(p, stream);
                if p.energy < cfg.min_energy_ev {
                    died = true;
                }
            }
        }
        CollisionModel::ImplicitCapture => {
            counters.scatters += 1;
            p.weight *= 1.0 - p_absorb;
            elastic_scatter(p, stream);
            if low_weight(p, stream, cfg) || p.energy < cfg.min_energy_ev {
                died = true;
            }
        }
    }

    if died {
        counters.deaths += 1;
        counters.lost_energy_ev += p.weighted_energy();
        p.dead = true;
    } else {
        // New number of mean-free-paths until the next collision (§IV-F).
        p.mfp_to_collision = dist::exponential_mfp(stream, &mut p.rng_counter);
    }
    died
}

/// Resolve a below-cutoff weight according to the configured policy.
/// Returns `true` if the history must end. Under Russian roulette the
/// survivor's weight is raised to the target so the expected weight is
/// conserved: `P(survive) * target = (w/target) * target = w`.
#[inline]
fn low_weight<R: CbRng>(
    p: &mut Particle,
    stream: &mut CounterStream<'_, R>,
    cfg: &TransportConfig,
) -> bool {
    if p.weight >= cfg.weight_cutoff {
        return false;
    }
    match cfg.low_weight {
        LowWeightPolicy::Terminate => true,
        LowWeightPolicy::Roulette { target } => {
            debug_assert!(target > cfg.weight_cutoff);
            let survive_prob = (p.weight / target).min(1.0);
            if stream.next_f64(&mut p.rng_counter) < survive_prob {
                p.weight = target;
                false
            } else {
                true
            }
        }
    }
}

/// Isotropic-CM elastic scatter off a stationary nucleus of mass number
/// `A`, in the 2D plane model: sample `mu_cm ~ U(-1,1)`, apply two-body
/// kinematics for the exit energy, convert to the laboratory frame and
/// rotate the direction by the lab angle with a random sign.
///
/// Contains the three square roots the paper attributes to the collision
/// handler (§VI-A).
#[inline]
fn elastic_scatter<R: CbRng>(p: &mut Particle, stream: &mut CounterStream<'_, R>) {
    const A: f64 = MASS_NO;
    let mu_cm = dist::scattering_cosine(stream, &mut p.rng_counter);
    let sign = dist::random_sign(stream, &mut p.rng_counter);

    let e_old = p.energy;
    let e_new = e_old * (A * A + 2.0 * A * mu_cm + 1.0) / ((A + 1.0) * (A + 1.0));
    // cos(theta_lab) = ((A+1) sqrt(E'/E) - (A-1) sqrt(E/E')) / 2
    //               = (1 + A mu_cm) / sqrt(A^2 + 2 A mu_cm + 1).
    let cos_lab = 0.5 * ((A + 1.0) * (e_new / e_old).sqrt() - (A - 1.0) * (e_old / e_new).sqrt());
    let cos_lab = cos_lab.clamp(-1.0, 1.0);
    let sin_lab = sign * (1.0 - cos_lab * cos_lab).max(0.0).sqrt();

    let (ox, oy) = (p.omega_x, p.omega_y);
    p.omega_x = ox * cos_lab - oy * sin_lab;
    p.omega_y = ox * sin_lab + oy * cos_lab;
    p.energy = e_new;
    debug_assert!((p.omega_x.hypot(p.omega_y) - 1.0).abs() < 1e-9);
}

/// Resolve a facet event: update the cell index arithmetically or reflect
/// off the domain boundary (§IV-C). Returns `true` if reflected.
#[inline]
pub fn handle_facet(
    p: &mut Particle,
    facet: Facet,
    mesh: &StructuredMesh2D,
    counters: &mut EventCounters,
) -> bool {
    handle_facet_parts(
        &mut p.omega_x,
        &mut p.omega_y,
        &mut p.cellx,
        &mut p.celly,
        facet,
        mesh,
        counters,
    )
}

/// [`handle_facet`] over the individual fields, for the SoA column
/// drivers: a facet event touches only the cell index (crossing) or one
/// direction cosine (reflection), so the column kernels pass just those
/// lanes instead of gathering the whole particle. Same expressions in
/// the same order as the record form — bitwise identical results.
#[inline]
#[allow(clippy::too_many_arguments)] // exploded Particle fields
pub fn handle_facet_parts(
    omega_x: &mut f64,
    omega_y: &mut f64,
    cellx: &mut u32,
    celly: &mut u32,
    facet: Facet,
    mesh: &StructuredMesh2D,
    counters: &mut EventCounters,
) -> bool {
    counters.facets += 1;
    let (nx, ny, reflected) = mesh.cross_facet(*cellx as usize, *celly as usize, facet);
    if reflected {
        counters.reflections += 1;
        match facet {
            Facet::XLow | Facet::XHigh => *omega_x = -*omega_x,
            Facet::YLow | Facet::YHigh => *omega_y = -*omega_y,
        }
    } else {
        *cellx = nx as u32;
        *celly = ny as u32;
    }
    reflected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransportConfig;
    use neutral_rng::Threefry2x64;
    use neutral_xs::XsHints;

    fn test_particle() -> Particle {
        Particle {
            x: 0.5,
            y: 0.5,
            omega_x: 1.0,
            omega_y: 0.0,
            energy: 1.0e6,
            weight: 1.0,
            dt_to_census: 1.0e-7,
            mfp_to_collision: 1.0,
            cellx: 5,
            celly: 5,
            xs_hints: XsHints::default(),
            key: 0,
            rng_counter: 0,
            dead: false,
        }
    }

    #[test]
    fn facet_distance_axis_aligned() {
        let bounds = (0.0, 1.0, 0.0, 1.0);
        let (d, f) = facet_distance(0.25, 0.5, 1.0, 0.0, bounds);
        assert!((d - 0.75).abs() < 1e-15);
        assert_eq!(f, Facet::XHigh);
        let (d, f) = facet_distance(0.25, 0.5, -1.0, 0.0, bounds);
        assert!((d - 0.25).abs() < 1e-15);
        assert_eq!(f, Facet::XLow);
        let (d, f) = facet_distance(0.5, 0.1, 0.0, -1.0, bounds);
        assert!((d - 0.1).abs() < 1e-15);
        assert_eq!(f, Facet::YLow);
    }

    #[test]
    fn facet_distance_diagonal_picks_nearest() {
        let bounds = (0.0, 1.0, 0.0, 1.0);
        let inv = std::f64::consts::FRAC_1_SQRT_2;
        // From (0.9, 0.5) heading up-right: x boundary first.
        let (_, f) = facet_distance(0.9, 0.5, inv, inv, bounds);
        assert_eq!(f, Facet::XHigh);
        // From (0.5, 0.9): y boundary first.
        let (_, f) = facet_distance(0.5, 0.9, inv, inv, bounds);
        assert_eq!(f, Facet::YHigh);
    }

    #[test]
    fn facet_distance_never_negative() {
        // Particle marginally outside the cell moving away: clamp to 0.
        let bounds = (0.0, 1.0, 0.0, 1.0);
        let (d, _) = facet_distance(1.0 + 1e-15, 0.5, 1.0, 0.0, bounds);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn next_event_prefers_census_on_tie() {
        let mut p = test_particle();
        // No material: collision at infinity; census far beyond facet.
        p.dt_to_census = 1.0; // ~1.4e7 m of track
        let ev = next_event(&p, 0.0, (0.0, 1.0, 0.0, 1.0));
        assert!(matches!(ev, NextEvent::Facet(..)));
        p.dt_to_census = 0.0;
        let ev = next_event(&p, 0.0, (0.0, 1.0, 0.0, 1.0));
        assert!(matches!(ev, NextEvent::Census(d) if d == 0.0));
    }

    #[test]
    fn next_event_collision_when_dense() {
        let p = test_particle();
        // Huge cross section: collision within a nanometre.
        let ev = next_event(&p, 1.0e9, (0.0, 1.0, 0.0, 1.0));
        assert!(matches!(ev, NextEvent::Collision(d) if d < 1e-8));
    }

    #[test]
    fn move_particle_debits_timers() {
        let mut p = test_particle();
        let sigma_t = 2.0;
        move_particle(&mut p, 0.25, sigma_t);
        assert!((p.x - 0.75).abs() < 1e-15);
        assert!((p.mfp_to_collision - 0.5).abs() < 1e-12);
        assert!(p.dt_to_census < 1.0e-7);
        // Timers never go negative.
        move_particle(&mut p, 1e9, sigma_t);
        assert_eq!(p.mfp_to_collision, 0.0);
        assert_eq!(p.dt_to_census, 0.0);
    }

    #[test]
    fn deposition_scales_linearly() {
        let micro = MicroXs {
            absorb_barns: 100.0,
            scatter_barns: 900.0,
        };
        let n = 1.0e27;
        let d1 = energy_deposition(1.0e6, 1.0, 0.1, n, micro);
        let d2 = energy_deposition(1.0e6, 2.0, 0.1, n, micro);
        let d3 = energy_deposition(1.0e6, 1.0, 0.2, n, micro);
        assert!(d1 > 0.0);
        assert!((d2 / d1 - 2.0).abs() < 1e-12);
        assert!((d3 / d1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn deposition_zero_in_vacuum() {
        let micro = MicroXs {
            absorb_barns: 0.0,
            scatter_barns: 0.0,
        };
        assert_eq!(energy_deposition(1.0e6, 1.0, 0.1, 1.0e27, micro), 0.0);
    }

    #[test]
    fn elastic_scatter_loses_energy_and_keeps_unit_direction() {
        let rng = Threefry2x64::new([3, 0]);
        let mut p = test_particle();
        let mut stream = CounterStream::new(&rng, p.key);
        for _ in 0..500 {
            let e_before = p.energy;
            elastic_scatter(&mut p, &mut stream);
            assert!(p.energy <= e_before);
            assert!(
                p.energy
                    >= e_before * neutral_xs::constants::min_elastic_retention(MASS_NO) * 0.999_999
            );
            let norm = p.omega_x.hypot(p.omega_y);
            assert!((norm - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn collision_analogue_conserves_or_kills() {
        let rng = Threefry2x64::new([4, 0]);
        let cfg = TransportConfig::default();
        let micro = MicroXs {
            absorb_barns: 500.0,
            scatter_barns: 500.0,
        };
        let mut counters = EventCounters::default();
        let mut alive = 0;
        for id in 0..200 {
            let mut p = test_particle();
            p.key = id;
            let mut stream = CounterStream::new(&rng, p.key);
            let w_before = p.weight;
            let died = handle_collision(&mut p, &mut stream, micro, &cfg, &mut counters);
            assert!(p.weight <= w_before);
            if !died {
                alive += 1;
                assert!(p.mfp_to_collision > 0.0);
            }
        }
        assert_eq!(counters.collisions, 200);
        assert_eq!(counters.absorptions + counters.scatters, 200);
        // p_absorb = 0.5: both branches must be exercised.
        assert!(counters.absorptions > 50 && counters.scatters > 50);
        assert!(alive > 0);
    }

    #[test]
    fn collision_implicit_capture_always_reduces_weight() {
        let rng = Threefry2x64::new([5, 0]);
        let cfg = TransportConfig {
            collision_model: CollisionModel::ImplicitCapture,
            ..Default::default()
        };
        let micro = MicroXs {
            absorb_barns: 250.0,
            scatter_barns: 750.0,
        };
        let mut counters = EventCounters::default();
        let mut p = test_particle();
        let mut stream = CounterStream::new(&rng, p.key);
        let died = handle_collision(&mut p, &mut stream, micro, &cfg, &mut counters);
        assert!(!died);
        assert!((p.weight - 0.75).abs() < 1e-12);
        assert_eq!(counters.scatters, 1);
        assert_eq!(counters.absorptions, 0);
    }

    #[test]
    fn weight_cutoff_kills_and_books_energy() {
        let rng = Threefry2x64::new([6, 0]);
        let cfg = TransportConfig {
            collision_model: CollisionModel::ImplicitCapture,
            weight_cutoff: 0.9,
            ..Default::default()
        };
        let micro = MicroXs {
            absorb_barns: 500.0,
            scatter_barns: 500.0,
        };
        let mut counters = EventCounters::default();
        let mut p = test_particle();
        let mut stream = CounterStream::new(&rng, p.key);
        let died = handle_collision(&mut p, &mut stream, micro, &cfg, &mut counters);
        assert!(died);
        assert!(p.dead);
        assert_eq!(counters.deaths, 1);
        assert!(counters.lost_energy_ev > 0.0);
    }

    #[test]
    fn facet_crossing_updates_cell_or_reflects() {
        let mesh = StructuredMesh2D::uniform(10, 10, 1.0, 1.0, 1.0);
        let mut counters = EventCounters::default();

        let mut p = test_particle();
        assert!(!handle_facet(&mut p, Facet::XHigh, &mesh, &mut counters));
        assert_eq!((p.cellx, p.celly), (6, 5));

        let mut p = test_particle();
        p.cellx = 9;
        let ox = p.omega_x;
        assert!(handle_facet(&mut p, Facet::XHigh, &mesh, &mut counters));
        assert_eq!(p.cellx, 9);
        assert_eq!(p.omega_x, -ox);
        assert_eq!(counters.facets, 2);
        assert_eq!(counters.reflections, 1);
    }
}
