//! Reusable scratch buffers for the batched (lane-block) hot paths.
//!
//! The event-based driver stages per-particle lanes — energies,
//! material ids, table hints, lookup results, candidate distances — in
//! temporary arrays before every batched cross-section lookup and every
//! restructured kernel pass. Allocating those arrays per window
//! (`Vec::with_capacity` five-plus times per kernel invocation) puts the
//! allocator on the hot path of exactly the loops the paper restructured
//! for vector efficiency (§VI-G).
//!
//! A [`ScratchArena`] owns one copy of every such lane buffer. Each
//! breadth-first window (pinned to one worker per pass) holds one arena
//! and reuses it across kernel invocations:
//! after the first round every buffer has reached its high-water capacity
//! and the steady-state loop performs no *per-particle lane* allocations
//! (the remaining allocation per kernel pass is one `Vec` of window
//! descriptors, O(windows) pointers, not O(particles) lanes).
//!
//! The arena is plain data — clearing it between uses is the caller's
//! responsibility (see [`ScratchArena::clear`]), and the buffers carry no
//! cross-call meaning. Nothing here affects physics: arenas hold staging
//! lanes only, never particle state.

use neutral_xs::MaterialId;

/// Reusable lane buffers for batched lookups, restructured kernel passes
/// and coherence sorting. One arena per window; cleared (not shrunk)
/// between uses so capacity is retained.
#[derive(Debug, Default)]
pub struct ScratchArena {
    /// Compacted lane indices (window-local).
    pub idx: Vec<u32>,
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
    /// General-purpose `f64` lane (candidate distances, gathered micro
    /// cross sections, ...).
    pub f64_a: Vec<f64>,
    /// Second general-purpose `f64` lane.
    pub f64_b: Vec<f64>,
    /// Third general-purpose `f64` lane.
    pub f64_c: Vec<f64>,
    /// General-purpose flag lane (e.g. "nearest facet is an x facet").
    pub flags: Vec<bool>,
    /// `(sort key, lane index)` pairs for the coherence sort stage
    /// ([`crate::config::SortPolicy`]), sorted stably by
    /// [`radix_sort_pairs`] so equal-key lanes keep ascending index
    /// order (the bitwise-identity anchor).
    pub sort_keys: Vec<(u32, u32)>,
    /// Ping-pong buffer of [`radix_sort_pairs`].
    pub sort_tmp: Vec<(u32, u32)>,
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
        self.idx.clear();
        self.energies.clear();
        self.mats.clear();
        self.hints_absorb.clear();
        self.hints_scatter.clear();
        self.out_absorb.clear();
        self.out_scatter.clear();
        self.f64_a.clear();
        self.f64_b.clear();
        self.f64_c.clear();
        self.flags.clear();
        self.sort_keys.clear();
        self.sort_tmp.clear();
        self.xs.clear();
    }

    /// Total bytes currently reserved across all lanes — visibility into
    /// the steady-state footprint (capacity, not length).
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.idx.capacity() * 4
            + self.energies.capacity() * 8
            + self.mats.capacity() * std::mem::size_of::<MaterialId>()
            + self.hints_absorb.capacity() * 4
            + self.hints_scatter.capacity() * 4
            + self.out_absorb.capacity() * 8
            + self.out_scatter.capacity() * 8
            + self.f64_a.capacity() * 8
            + self.f64_b.capacity() * 8
            + self.f64_c.capacity() * 8
            + self.flags.capacity()
            + (self.sort_keys.capacity() + self.sort_tmp.capacity()) * 8
            + self.xs.footprint_bytes()
    }
}

/// Stable LSD radix sort of `(key, payload)` pairs by key, using `tmp`
/// as the ping-pong buffer (no allocation once both have capacity).
///
/// Three 8-bit passes cover keys below `2^24` — every mesh the repo
/// ships (the paper's 4000² mesh is 16M cells) and every energy-band
/// key. Larger keys fall back to a comparison sort ordered by
/// `(key, payload)`, which is equally deterministic. Equal keys keep
/// their input order in both paths (payloads are unique insertion
/// indices in the fallback), which is the stability property the
/// bitwise-identity arguments of DESIGN.md §13 rest on.
pub fn radix_sort_pairs(pairs: &mut Vec<(u32, u32)>, tmp: &mut Vec<(u32, u32)>) {
    let n = pairs.len();
    if n < 2 {
        return;
    }
    let max_key = pairs.iter().map(|&(k, _)| k).max().unwrap_or(0);
    if max_key >= 1 << 24 {
        // Payloads are unique, so ordering by (key, payload) is exactly
        // a stable sort by key when payloads are insertion indices.
        pairs.sort_unstable();
        return;
    }
    tmp.clear();
    tmp.resize(n, (0, 0));
    let mut src_is_pairs = true;
    for pass in 0..3u32 {
        let shift = pass * 8;
        if (max_key >> shift) == 0 && pass > 0 {
            break; // remaining bytes are all zero: already sorted by them
        }
        let (src, dst) = if src_is_pairs {
            (&mut *pairs, &mut *tmp)
        } else {
            (&mut *tmp, &mut *pairs)
        };
        let mut counts = [0u32; 256];
        for &(k, _) in src.iter() {
            counts[((k >> shift) & 0xff) as usize] += 1;
        }
        let mut offsets = [0u32; 256];
        let mut acc = 0u32;
        for (o, &c) in offsets.iter_mut().zip(counts.iter()) {
            *o = acc;
            acc += c;
        }
        for &(k, p) in src.iter() {
            let b = ((k >> shift) & 0xff) as usize;
            dst[offsets[b] as usize] = (k, p);
            offsets[b] += 1;
        }
        src_is_pairs = !src_is_pairs;
    }
    if !src_is_pairs {
        std::mem::swap(pairs, tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_sort_is_stable_and_ordered() {
        // Pseudo-random keys with many duplicates; payload = insertion
        // index, so stability is checkable.
        let mut x = 0x2545_f491u32;
        let mut pairs: Vec<(u32, u32)> = (0..10_000u32)
            .map(|j| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x % 977, j)
            })
            .collect();
        let mut expect = pairs.clone();
        expect.sort_by_key(|&(k, _)| k); // std stable sort
        let mut tmp = Vec::new();
        radix_sort_pairs(&mut pairs, &mut tmp);
        assert_eq!(pairs, expect);
    }

    #[test]
    fn radix_sort_large_keys_fall_back() {
        let mut pairs = vec![(1 << 25, 0u32), (3, 1), (1 << 24, 2), (3, 3)];
        let mut tmp = Vec::new();
        radix_sort_pairs(&mut pairs, &mut tmp);
        assert_eq!(pairs, vec![(3, 1), (3, 3), (1 << 24, 2), (1 << 25, 0)]);
    }

    #[test]
    fn radix_sort_handles_edges() {
        let mut tmp = Vec::new();
        let mut empty: Vec<(u32, u32)> = vec![];
        radix_sort_pairs(&mut empty, &mut tmp);
        assert!(empty.is_empty());
        let mut one = vec![(9, 7)];
        radix_sort_pairs(&mut one, &mut tmp);
        assert_eq!(one, vec![(9, 7)]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut a = ScratchArena::new();
        a.energies.extend((0..1000).map(|i| i as f64));
        a.idx.extend(0..1000u32);
        let cap_e = a.energies.capacity();
        let cap_i = a.idx.capacity();
        a.clear();
        assert!(a.energies.is_empty() && a.idx.is_empty());
        assert_eq!(a.energies.capacity(), cap_e);
        assert_eq!(a.idx.capacity(), cap_i);
    }

    #[test]
    fn footprint_tracks_capacity() {
        let mut a = ScratchArena::new();
        assert_eq!(a.footprint_bytes(), 0);
        a.out_absorb.reserve(128);
        assert!(a.footprint_bytes() >= 128 * 8);
    }
}
