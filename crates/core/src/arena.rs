//! Reusable scratch buffers for the batched (lane-block) lookups.
//!
//! The event-based driver stages per-particle lanes — energies,
//! material ids, table hints, lookup results — in temporary arrays
//! before every batched cross-section lookup. Allocating those arrays
//! per lane (`Vec::with_capacity` five-plus times per kernel
//! invocation) puts the allocator on the hot path of the round loop.
//!
//! A [`ScratchArena`] owns one copy of every such lane buffer. Each
//! worker's Over-Events scratch holds one arena and reuses it across
//! kernel invocations and across the lanes that worker runs: after the
//! first round every buffer has reached its high-water capacity and the
//! steady-state loop allocates nothing.
//!
//! The arena is plain data — clearing it between uses is the caller's
//! responsibility (see [`ScratchArena::clear`]), and the buffers carry no
//! cross-call meaning. Nothing here affects physics: arenas hold staging
//! lanes only, never particle state.

use neutral_xs::MaterialId;

/// Reusable lane buffers for batched lookups. One arena per worker;
/// cleared (not shrunk) between uses so capacity is retained.
#[derive(Debug, Default)]
pub struct ScratchArena {
    /// Lane energies fed to the batched lookup (eV).
    pub energies: Vec<f64>,
    /// Lane material ids fed to the batched lookup.
    pub mats: Vec<MaterialId>,
    /// Lane capture-table hints (updated in place by the lookup).
    pub hints_absorb: Vec<u32>,
    /// Lane scatter-table hints (updated in place by the lookup).
    pub hints_scatter: Vec<u32>,
    /// Lane capture cross-section results (barns).
    pub out_absorb: Vec<f64>,
    /// Lane scatter cross-section results (barns).
    pub out_scatter: Vec<f64>,
    /// Staging lanes for mixed-material batched lookups
    /// ([`neutral_xs::MaterialSet::lookup_many_with_scratch`]), so
    /// multi-material lane blocks stop allocating per call.
    pub xs: neutral_xs::LaneScratch,
}

impl ScratchArena {
    /// A fresh, empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear every lane, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.energies.clear();
        self.mats.clear();
        self.hints_absorb.clear();
        self.hints_scatter.clear();
        self.out_absorb.clear();
        self.out_scatter.clear();
        self.xs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_keeps_capacity() {
        let mut a = ScratchArena::new();
        a.energies.extend((0..1000).map(|i| i as f64));
        a.hints_absorb.extend(0..1000u32);
        let cap_e = a.energies.capacity();
        let cap_h = a.hints_absorb.capacity();
        a.clear();
        assert!(a.energies.is_empty() && a.hints_absorb.is_empty());
        assert_eq!(a.energies.capacity(), cap_e);
        assert_eq!(a.hints_absorb.capacity(), cap_h);
    }
}
