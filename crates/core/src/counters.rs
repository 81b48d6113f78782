//! Event instrumentation.
//!
//! Every transport driver counts the events it processes. The counters
//! serve three purposes:
//!
//! 1. **Validation** — e.g. the `stream` problem must produce ~7000 facet
//!    events per particle (paper §IV-B) and essentially zero collisions;
//! 2. **Profiling** — the per-method grind times and tally-share numbers
//!    of §VI-A are ratios of these counters and timed sections;
//! 3. **Architecture modelling** — `neutral-perf` maps the counters onto
//!    machine descriptors to reproduce the paper's cross-architecture
//!    figures (the hardware-substitution strategy of DESIGN.md §5).
//!
//! Counters are accumulated thread-locally as plain integers and merged
//! after the parallel region — they never touch the hot path with atomics.

/// Counts of everything that happened during a transport solve.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EventCounters {
    /// Collision events handled (absorption + elastic scatter).
    pub collisions: u64,
    /// Facet (cell-boundary) events handled.
    pub facets: u64,
    /// Census events (histories that reached the end of the timestep).
    pub census: u64,
    /// Collisions resolved as absorption.
    pub absorptions: u64,
    /// Collisions resolved as elastic scattering.
    pub scatters: u64,
    /// Boundary reflections (subset of facet events).
    pub reflections: u64,
    /// Histories terminated by the energy or weight cutoff.
    pub deaths: u64,
    /// Histories abandoned by the runaway guard (should be zero).
    pub stuck: u64,
    /// Flushes of the register-accumulated deposit onto the tally mesh —
    /// each one is an atomic read-modify-write in the shared-tally
    /// configuration (paper §V-C).
    pub tally_flushes: u64,
    /// Grid steps walked by the hinted cross-section searches (§VI-A).
    pub cs_search_steps: u64,
    /// Always 0: the cell-clustered tally flush it counted was measured
    /// and removed (DESIGN.md §13). The field stays because the
    /// `NEUTCKPT` counter block and the benchmark harness name it.
    pub clustered_flushes: u64,
    /// Cross-section table lookups performed.
    pub cs_lookups: u64,
    /// Subset of `cs_lookups` resolved through the batched
    /// `lookup_many` lane-block API (the event-based driver; always zero
    /// under Over Particles).
    pub batched_lookups: u64,
    /// Cell-centred density reads (the random mesh access, §VI-A).
    pub density_reads: u64,
    /// Facet crossings that changed the local material, forcing an extra
    /// cross-section re-resolution (multi-material scenarios only; always
    /// zero on the paper's single-material problems — DESIGN.md §12).
    pub material_switches: u64,
    /// Weighted energy (eV) carried by particles terminated at a cutoff.
    pub lost_energy_ev: f64,
    /// Weighted energy (eV) still in flight at the end of the solve.
    pub census_energy_ev: f64,
}

impl EventCounters {
    /// Merge another counter set into this one (used to reduce per-thread
    /// counters after a parallel region).
    pub fn merge(&mut self, other: &EventCounters) {
        self.collisions += other.collisions;
        self.facets += other.facets;
        self.census += other.census;
        self.absorptions += other.absorptions;
        self.scatters += other.scatters;
        self.reflections += other.reflections;
        self.deaths += other.deaths;
        self.stuck += other.stuck;
        self.tally_flushes += other.tally_flushes;
        self.cs_search_steps += other.cs_search_steps;
        self.clustered_flushes += other.clustered_flushes;
        self.cs_lookups += other.cs_lookups;
        self.batched_lookups += other.batched_lookups;
        self.density_reads += other.density_reads;
        self.material_switches += other.material_switches;
        self.lost_energy_ev += other.lost_energy_ev;
        self.census_energy_ev += other.census_energy_ev;
    }

    /// Deterministically merge per-lane counter sets, in lane order.
    ///
    /// The integer fields are order-insensitive sums, but the energy
    /// fields are `f64` accumulations: merging them thread-by-thread
    /// would make their bits depend on the worker count. This merge uses
    /// the same pairwise (binary-tree) reduction as the tally subsystem
    /// (`neutral_mesh::accum`), so a lane-decomposed run reports
    /// bitwise-identical counters for any worker count.
    #[must_use]
    pub fn merge_deterministic(parts: &[EventCounters]) -> EventCounters {
        let mut out = EventCounters::default();
        for p in parts {
            out.merge(p);
        }
        // Re-do the f64 fields pairwise, in lane order.
        let lost: Vec<f64> = parts.iter().map(|p| p.lost_energy_ev).collect();
        let census: Vec<f64> = parts.iter().map(|p| p.census_energy_ev).collect();
        out.lost_energy_ev = neutral_mesh::accum::pairwise_sum(&lost);
        out.census_energy_ev = neutral_mesh::accum::pairwise_sum(&census);
        out
    }

    /// Total of the three tracked event types.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.collisions + self.facets + self.census
    }

    /// Facet events per census-reaching or terminated history.
    #[must_use]
    pub fn facets_per_history(&self) -> f64 {
        let histories = self.census + self.deaths;
        if histories == 0 {
            0.0
        } else {
            self.facets as f64 / histories as f64
        }
    }

    /// Collision events per history.
    #[must_use]
    pub fn collisions_per_history(&self) -> f64 {
        let histories = self.census + self.deaths;
        if histories == 0 {
            0.0
        } else {
            self.collisions as f64 / histories as f64
        }
    }

    /// Mean hinted-search walk length per cross-section lookup.
    #[must_use]
    pub fn mean_search_steps(&self) -> f64 {
        if self.cs_lookups == 0 {
            0.0
        } else {
            self.cs_search_steps as f64 / self.cs_lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = EventCounters {
            collisions: 1,
            facets: 2,
            census: 3,
            lost_energy_ev: 0.5,
            ..Default::default()
        };
        let b = EventCounters {
            collisions: 10,
            facets: 20,
            census: 30,
            lost_energy_ev: 1.5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.collisions, 11);
        assert_eq!(a.facets, 22);
        assert_eq!(a.census, 33);
        assert!((a.lost_energy_ev - 2.0).abs() < 1e-12);
        assert_eq!(a.total_events(), 66);
    }

    #[test]
    fn deterministic_merge_is_order_of_workers_free() {
        // Lane partials with energies whose sum order matters in f64.
        let parts: Vec<EventCounters> = (0..7)
            .map(|i| EventCounters {
                collisions: i,
                lost_energy_ev: 1.0e10 / (i as f64 + 1.0) + 1.0e-6 * i as f64,
                census_energy_ev: 3.0f64.powi(i as i32),
                ..Default::default()
            })
            .collect();
        let a = EventCounters::merge_deterministic(&parts);
        let b = EventCounters::merge_deterministic(&parts);
        assert_eq!(a.lost_energy_ev.to_bits(), b.lost_energy_ev.to_bits());
        assert_eq!(a.census_energy_ev.to_bits(), b.census_energy_ev.to_bits());
        assert_eq!(a.collisions, 21);
        // ...and it is close to (though not necessarily bit-equal with)
        // the sequential fold.
        let mut seq = EventCounters::default();
        for p in &parts {
            seq.merge(p);
        }
        assert!((a.lost_energy_ev - seq.lost_energy_ev).abs() < 1e-3);
    }

    #[test]
    fn per_history_ratios() {
        let c = EventCounters {
            facets: 700,
            collisions: 70,
            census: 8,
            deaths: 2,
            ..Default::default()
        };
        assert!((c.facets_per_history() - 70.0).abs() < 1e-12);
        assert!((c.collisions_per_history() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn ratios_handle_zero_histories() {
        let c = EventCounters::default();
        assert_eq!(c.facets_per_history(), 0.0);
        assert_eq!(c.mean_search_steps(), 0.0);
    }
}
