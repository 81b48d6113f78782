//! Cross-section lookup strategies.
//!
//! The paper's collision kernel resolves two table lookups (capture +
//! elastic scatter) per energy change, and §VI-A shows the lookup
//! strategy alone is worth 1.3x end-to-end on `csp`. Three strategies:
//!
//! * [`LookupStrategy::Binary`] — a fresh `O(log n)` binary search per
//!   table per lookup (the paper's baseline);
//! * [`LookupStrategy::Hinted`] — a linear walk from the particle's
//!   cached bin index (the paper's cached linear search, and the
//!   default);
//! * [`LookupStrategy::Hashed`] — a log-spaced bucket index over the
//!   energy grid gives an O(1) bucket hit followed by a short bounded
//!   scan (expected < 1 step on log-uniform grids). When both tables lie
//!   on one grid — every synthetic library does — one bucket + scan
//!   resolves both bins.
//!
//! Every strategy interpolates through [`CrossSection`]'s one `lerp` and
//! applies the exact clamping of [`CrossSection::value_binary`], so all
//! three agree **bitwise** for every energy, in and out of range —
//! switching strategies can never change the physics, only the speed.
//! All of them also leave the caller's [`XsHints`] at the containing
//! (clamped) bin, exactly as the hinted walk would, so strategies can be
//! switched mid-simulation.
//!
//! The strategies are private free functions behind the one `match` in
//! [`CrossSectionLibrary::lookup_with`] and
//! [`CrossSectionLibrary::lookup_many_with`]. The batched form of
//! `binary` and `hinted` is a per-lane loop; `hashed`'s carries a
//! run-detection memo across the lane block (DESIGN.md §13). A merged
//! union grid (`unionized`) was tried, measured and removed (DESIGN.md
//! §4): on a shared grid it was `hashed` plus a fused copy of the values.

use crate::table::CrossSection;
use crate::{CrossSectionLibrary, MicroXs, XsHints};

/// Which lookup strategy the transport drivers use (selectable from
/// parameter files via `lookup_strategy` and from the CLI via `--lookup`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LookupStrategy {
    /// Fresh binary search per table per lookup.
    Binary,
    /// Linear walk from the particle's cached bin index (paper §VI-A).
    #[default]
    Hinted,
    /// Log-spaced hash buckets, O(1) bucket + short scan.
    Hashed,
}

impl LookupStrategy {
    /// All strategies, in benchmarking order.
    pub const ALL: [LookupStrategy; 3] = [
        LookupStrategy::Binary,
        LookupStrategy::Hinted,
        LookupStrategy::Hashed,
    ];

    /// Stable lower-case name (used by parameter files, CLI flags and
    /// figure output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LookupStrategy::Binary => "binary",
            LookupStrategy::Hinted => "hinted",
            LookupStrategy::Hashed => "hashed",
        }
    }
}

impl std::str::FromStr for LookupStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "binary" => Ok(LookupStrategy::Binary),
            "hinted" => Ok(LookupStrategy::Hinted),
            "hashed" => Ok(LookupStrategy::Hashed),
            // Every front door (params file, POST body, CLI flag) parses
            // through here, so a removed value fails with one message.
            "unionized" => Err(
                "lookup strategy `unionized` was removed (on a shared energy grid its union \
                 grid is the table grid: `hashed`'s bucket index plus a fused copy of the \
                 values, at the same speed); use `hashed`, which produces the same bits"
                    .to_string(),
            ),
            "cached_linear" => {
                Err("lookup strategy `cached_linear` was renamed `hinted`".to_string())
            }
            other => Err(format!(
                "unknown lookup strategy `{other}` (binary|hinted|hashed)"
            )),
        }
    }
}

impl std::fmt::Display for LookupStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Binary search in both tables — one search on a shared grid. Unlike
/// [`CrossSectionLibrary::lookup_binary`] it leaves the hints at the
/// containing bins, so strategies stay interchangeable mid-run.
#[inline]
pub(crate) fn binary(lib: &CrossSectionLibrary, e: f64, hints: &mut XsHints) -> (MicroXs, u32) {
    *hints = lib.bins_binary(e);
    let micro = MicroXs {
        absorb_barns: lib.absorb.value_at_bin(e, hints.absorb as usize),
        scatter_barns: lib.scatter.value_at_bin(e, hints.scatter as usize),
    };
    (micro, 0)
}

/// The paper's cached linear search: walk each table from its hint — one
/// walk on a shared grid when the hints agree.
#[inline]
pub(crate) fn hinted(lib: &CrossSectionLibrary, e: f64, hints: &mut XsHints) -> (MicroXs, u32) {
    let ((absorb_barns, scatter_barns), steps) = lib.lookup_counted(e, hints);
    let micro = MicroXs {
        absorb_barns,
        scatter_barns,
    };
    (micro, steps)
}

/// The batched form of a per-lane strategy: one scalar lookup per lane,
/// reading and writing the lane's hints. Returns the total steps walked.
#[inline]
pub(crate) fn per_lane(
    energies: &[f64],
    hints_absorb: &mut [u32],
    hints_scatter: &mut [u32],
    out_absorb: &mut [f64],
    out_scatter: &mut [f64],
    mut one: impl FnMut(f64, &mut XsHints) -> (MicroXs, u32),
) -> u64 {
    let mut steps = 0u64;
    for i in 0..energies.len() {
        let mut hints = XsHints {
            absorb: hints_absorb[i],
            scatter: hints_scatter[i],
        };
        let (micro, s) = one(energies[i], &mut hints);
        hints_absorb[i] = hints.absorb;
        hints_scatter[i] = hints.scatter;
        out_absorb[i] = micro.absorb_barns;
        out_scatter[i] = micro.scatter_barns;
        steps += u64::from(s);
    }
    steps
}

/// Walk from `start` to the bin containing `e` on grid `eg`, counting
/// steps. Callers guarantee `eg[0] < e < eg[last]` and
/// `start <= eg.len() - 2`; the walk also absorbs any floating-point
/// wobble in the bucket computation.
#[inline]
fn scan_to_bin(eg: &[f64], start: usize, e: f64) -> (usize, u32) {
    let mut i = start;
    let mut steps = 0u32;
    while eg[i + 1] <= e {
        i += 1;
        steps += 1;
    }
    while eg[i] > e {
        i -= 1;
        steps += 1;
    }
    (i, steps)
}

/// Per-table bucket index in *bit space*: for positive finite `f64`s the
/// raw bit pattern is order-isomorphic to the value and piecewise-linear
/// in `log2`, so scaling `e.to_bits()` linearly yields log-ish-spaced
/// buckets with one multiply and one cast — no `ln()` on the hot path.
/// Bucket `b` stores the containing bin of the largest grid point mapping
/// at or below `b`, so a lookup is one array read and a short scan.
#[derive(Clone, Debug)]
struct TableHash {
    bits_lo: u64,
    inv_span: f64,
    start: Vec<u32>,
}

/// Buckets per table grid point (4 keeps the expected scan at zero-to-one
/// steps on the log-uniform synthetic grids).
const HASH_BUCKETS_PER_POINT: usize = 4;

impl TableHash {
    fn build(eg: &[f64]) -> Self {
        let n = eg.len();
        let n_buckets = (n * HASH_BUCKETS_PER_POINT).clamp(8, 1 << 22);
        let bits_lo = eg[0].to_bits();
        // Energies are asserted positive and strictly increasing, so the
        // bit span is a positive integer.
        let inv_span = n_buckets as f64 / (eg[n - 1].to_bits() - bits_lo) as f64;
        let bucket_of =
            |e: f64| (((e.to_bits() - bits_lo) as f64 * inv_span) as usize).min(n_buckets - 1);
        let mut start = Vec::with_capacity(n_buckets);
        let mut i = 0usize;
        for b in 0..n_buckets {
            while i + 1 < n - 1 && bucket_of(eg[i + 1]) <= b {
                i += 1;
            }
            start.push(i as u32);
        }
        Self {
            bits_lo,
            inv_span,
            start,
        }
    }

    /// Callers guarantee `e` is within the table range, so
    /// `e.to_bits() >= bits_lo`.
    #[inline]
    fn bucket(&self, e: f64) -> usize {
        (((e.to_bits() - self.bits_lo) as f64 * self.inv_span) as usize).min(self.start.len() - 1)
    }
}

/// The bucket indices behind [`LookupStrategy::Hashed`]: one per table,
/// or one for both when the two tables share an energy grid (always true
/// for the synthetic libraries, which lay both tables on the same
/// log-uniform grid) — then one bucket + scan resolves both bins.
#[derive(Clone, Debug)]
pub(crate) struct HashedGrid {
    absorb: TableHash,
    /// `None` when the scatter grid is identical to the absorb grid.
    scatter: Option<TableHash>,
}

impl HashedGrid {
    pub(crate) fn build(absorb: &CrossSection, scatter: &CrossSection, shared: bool) -> Self {
        Self {
            absorb: TableHash::build(absorb.energies()),
            scatter: (!shared).then(|| TableHash::build(scatter.energies())),
        }
    }
}

/// Where an energy falls on a table's grid: clamped to either end, or
/// inside bin `i`.
#[derive(Clone, Copy)]
enum Bin {
    Below,
    Above,
    In(usize),
}

/// Locate `e` on grid `eg`, counting scan steps. `run` is the batched
/// path's run-detection memo: a lane landing in the previous lane's bin
/// reuses it without touching the bucket index. Bins partition the
/// in-range axis, so a memo hit is exactly the scan's answer.
#[inline]
fn locate(eg: &[f64], h: &TableHash, e: f64, run: &mut Option<usize>) -> (Bin, u32) {
    let n = eg.len();
    if e <= eg[0] {
        return (Bin::Below, 0);
    }
    if e >= eg[n - 1] {
        return (Bin::Above, 0);
    }
    if let Some(i) = run.filter(|&i| eg[i] <= e && e < eg[i + 1]) {
        return (Bin::In(i), 0);
    }
    let start = (h.start[h.bucket(e)] as usize).min(n - 2);
    let (i, steps) = scan_to_bin(eg, start, e);
    *run = Some(i);
    (Bin::In(i), steps)
}

/// Value and hint of table `t` at `e` in `bin`: the clamping of
/// [`CrossSection::value_binary`], the hint of the hinted walk. The end
/// values go through [`CrossSection::value`], which fills one block.
#[inline]
fn eval(t: &CrossSection, bin: Bin, e: f64) -> (f64, u32) {
    let n = t.len();
    match bin {
        Bin::Below => (t.value(0), 0),
        Bin::Above => (t.value(n - 1), (n - 2) as u32),
        Bin::In(i) => (t.lerp(i, e), i as u32),
    }
}

/// One hashed lookup through the per-table run memos `runs`.
#[inline]
fn hashed_run(
    lib: &CrossSectionLibrary,
    grid: &HashedGrid,
    e: f64,
    hints: &mut XsHints,
    runs: &mut [Option<usize>; 2],
) -> (MicroXs, u32) {
    let (bin_a, na) = locate(lib.absorb.energies(), &grid.absorb, e, &mut runs[0]);
    let (bin_s, ns) = match &grid.scatter {
        None => (bin_a, 0),
        Some(h) => locate(lib.scatter.energies(), h, e, &mut runs[1]),
    };
    let (absorb_barns, ha) = eval(&lib.absorb, bin_a, e);
    let (scatter_barns, hs) = eval(&lib.scatter, bin_s, e);
    *hints = XsHints {
        absorb: ha,
        scatter: hs,
    };
    let micro = MicroXs {
        absorb_barns,
        scatter_barns,
    };
    (micro, na + ns)
}

/// O(1) bucket hit + short scan (one for both tables on a shared grid).
#[inline]
pub(crate) fn hashed(
    lib: &CrossSectionLibrary,
    grid: &HashedGrid,
    e: f64,
    hints: &mut XsHints,
) -> (MicroXs, u32) {
    hashed_run(lib, grid, e, hints, &mut [None; 2])
}

/// SIMD-width of the lane-blocked run-detection fast path: a whole block
/// of energies is compared against the cached bin with one branch-light
/// all-lanes test, so a monotone run of lanes in one bin resolves at
/// block granularity instead of lane granularity. Results are bitwise
/// identical to the scalar memo (which reports zero steps on a hit, so
/// not even the work meter moves on the block path).
const RUN_BLOCK: usize = 8;

/// Does every energy in `block` fall in the cached bin `[lo, hi)` *and*
/// strictly inside the table range `(e0, etop)` — the preconditions the
/// scalar memo checks? Written as an unconditional `&=` reduction so the
/// compiler vectorises the compares.
#[inline]
fn block_in_bin(block: &[f64], e0: f64, etop: f64, lo: f64, hi: f64) -> bool {
    let mut all = true;
    for &e in block {
        all &= e > e0 && e < etop && lo <= e && e < hi;
    }
    all
}

/// Batched [`hashed`]: one run memo across the lane block, so sorted or
/// repeated energies (every birth population) skip the bucket + scan,
/// and on a shared grid whole blocks inside the cached bin resolve at
/// once. Returns the total steps scanned.
pub(crate) fn hashed_many(
    lib: &CrossSectionLibrary,
    grid: &HashedGrid,
    energies: &[f64],
    hints_absorb: &mut [u32],
    hints_scatter: &mut [u32],
    out_absorb: &mut [f64],
    out_scatter: &mut [f64],
) -> u64 {
    let eg = lib.absorb.energies();
    let (e0, etop) = (eg[0], eg[eg.len() - 1]);
    let n = energies.len();
    let mut steps = 0u64;
    let mut runs = [None; 2];
    let mut i = 0;
    while i < n {
        // On a shared grid one cached bin holds for both tables, so a
        // whole block inside it resolves without a search.
        if let (None, Some(k)) = (&grid.scatter, runs[0]) {
            if i + RUN_BLOCK <= n
                && block_in_bin(&energies[i..i + RUN_BLOCK], e0, etop, eg[k], eg[k + 1])
            {
                for j in i..i + RUN_BLOCK {
                    let e = energies[j];
                    hints_absorb[j] = k as u32;
                    hints_scatter[j] = k as u32;
                    out_absorb[j] = lib.absorb.lerp(k, e);
                    out_scatter[j] = lib.scatter.lerp(k, e);
                }
                i += RUN_BLOCK;
                continue;
            }
        }
        let mut hints = XsHints::default();
        let (micro, ns) = hashed_run(lib, grid, energies[i], &mut hints, &mut runs);
        hints_absorb[i] = hints.absorb;
        hints_scatter[i] = hints.scatter;
        out_absorb[i] = micro.absorb_barns;
        out_scatter[i] = micro.scatter_barns;
        steps += u64::from(ns);
        i += 1;
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(n: usize, seed: u64) -> CrossSectionLibrary {
        CrossSectionLibrary::synthetic(n, seed)
    }

    /// A deliberately mismatched pair of grids: different point counts and
    /// different, partially overlapping energy ranges.
    fn mismatched_lib() -> CrossSectionLibrary {
        let a = CrossSection::new(
            (0..40).map(|i| 0.5 * 1.4f64.powi(i)).collect(),
            (0..40).map(|i| 10.0 + (i as f64).sin().abs()).collect(),
        );
        let s = CrossSection::new(
            (0..23).map(|i| 2.0 * 1.9f64.powi(i)).collect(),
            (0..23)
                .map(|i| 5.0 + (i as f64 * 0.7).cos().abs())
                .collect(),
        );
        CrossSectionLibrary::from_tables(a, s)
    }

    fn probe_energies(lib: &CrossSectionLibrary) -> Vec<f64> {
        let (lo, hi) = lib.absorb.energy_range();
        let (slo, shi) = lib.scatter.energy_range();
        let mut out = vec![
            lo / 10.0,
            lo,
            slo,
            hi,
            shi,
            hi * 10.0,
            f64::MIN_POSITIVE,
            1.0e30,
        ];
        // Dense log sweep across and beyond both ranges.
        let span_lo = lo.min(slo) / 3.0;
        let span_hi = hi.max(shi) * 3.0;
        let m = 4000;
        for i in 0..=m {
            let t = i as f64 / m as f64;
            out.push(span_lo * (span_hi / span_lo).powf(t));
        }
        // Every exact grid point of both tables.
        out.extend_from_slice(lib.absorb.energies());
        out.extend_from_slice(lib.scatter.energies());
        out
    }

    /// The reference every strategy is pinned to: the binary-search
    /// values and the containing (clamped) bins.
    fn reference(lib: &CrossSectionLibrary, e: f64) -> (MicroXs, XsHints) {
        let hints = XsHints {
            absorb: lib.absorb.bin_index_binary(e) as u32,
            scatter: lib.scatter.bin_index_binary(e) as u32,
        };
        (lib.lookup_binary(e), hints)
    }

    fn assert_strategy_matches(lib: &CrossSectionLibrary, strategy: LookupStrategy) {
        for (case, start_hint) in [(0u32, 0u32), (1, 7), (2, u32::MAX)] {
            for &e in &probe_energies(lib) {
                let mut hints = XsHints {
                    absorb: start_hint,
                    scatter: start_hint / 2,
                };
                let (micro, _) = lib.lookup_with(strategy, e, &mut hints);
                let (expect, expect_hints) = reference(lib, e);
                assert_eq!(
                    micro.absorb_barns.to_bits(),
                    expect.absorb_barns.to_bits(),
                    "{strategy:?} absorb differs at E={e} (case {case})"
                );
                assert_eq!(
                    micro.scatter_barns.to_bits(),
                    expect.scatter_barns.to_bits(),
                    "{strategy:?} scatter differs at E={e} (case {case})"
                );
                assert_eq!(
                    hints, expect_hints,
                    "{strategy:?} hint state differs at E={e} (case {case})"
                );
            }
        }
    }

    #[test]
    fn all_backends_agree_bitwise_on_synthetic_tables() {
        for (n, seed) in [(2, 1u64), (3, 2), (17, 3), (257, 4), (4096, 5)] {
            let lib = lib(n, seed);
            for strategy in LookupStrategy::ALL {
                assert_strategy_matches(&lib, strategy);
            }
        }
    }

    #[test]
    fn all_backends_agree_on_mismatched_grids() {
        let lib = mismatched_lib();
        for strategy in LookupStrategy::ALL {
            assert_strategy_matches(&lib, strategy);
        }
    }

    #[test]
    fn out_of_range_clamps_and_hint_state() {
        let lib = lib(512, 9);
        let (lo, hi) = lib.absorb.energy_range();
        for strategy in LookupStrategy::ALL {
            let mut hints = XsHints {
                absorb: 100,
                scatter: 200,
            };
            let (below, _) = lib.lookup_with(strategy, lo / 2.0, &mut hints);
            assert_eq!(below.absorb_barns, lib.absorb.values()[0], "{strategy:?}");
            assert_eq!(hints.absorb, 0, "{strategy:?} low hint");
            assert_eq!(hints.scatter, 0, "{strategy:?} low hint");
            let (above, _) = lib.lookup_with(strategy, hi * 2.0, &mut hints);
            assert_eq!(
                above.absorb_barns,
                *lib.absorb.values().last().unwrap(),
                "{strategy:?}"
            );
            assert_eq!(hints.absorb, (lib.absorb.len() - 2) as u32, "{strategy:?}");
            assert_eq!(
                hints.scatter,
                (lib.scatter.len() - 2) as u32,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn lookup_many_matches_scalar_lookups() {
        let lib = lib(2048, 21);
        let energies: Vec<f64> = (0..500).map(|i| 1.0e-6 * 1.083f64.powi(i)).collect();
        for strategy in LookupStrategy::ALL {
            let n = energies.len();
            let mut ha = vec![3u32; n];
            let mut hs = vec![5u32; n];
            let mut oa = vec![0.0; n];
            let mut os = vec![0.0; n];
            let batch_steps =
                lib.lookup_many_with(strategy, &energies, &mut ha, &mut hs, &mut oa, &mut os);

            let mut scalar_steps = 0u64;
            for i in 0..n {
                let mut hints = XsHints {
                    absorb: 3,
                    scatter: 5,
                };
                let (micro, s) = lib.lookup_with(strategy, energies[i], &mut hints);
                scalar_steps += u64::from(s);
                assert_eq!(
                    micro.absorb_barns.to_bits(),
                    oa[i].to_bits(),
                    "{strategy:?}"
                );
                assert_eq!(
                    micro.scatter_barns.to_bits(),
                    os[i].to_bits(),
                    "{strategy:?}"
                );
                assert_eq!(
                    (hints.absorb, hints.scatter),
                    (ha[i], hs[i]),
                    "{strategy:?}"
                );
            }
            // The per-lane strategies walk from the per-lane hints, which
            // the scalar replay above resets each time; steps must still
            // match because the batched loop does exactly the same.
            // `hashed`'s batched path carries a run-detection memo, so on
            // this monotone block it honestly reports *less* search work
            // than the scalar replay.
            match strategy {
                LookupStrategy::Binary | LookupStrategy::Hinted => {
                    assert_eq!(batch_steps, scalar_steps, "{strategy:?}");
                }
                LookupStrategy::Hashed => {
                    assert!(
                        batch_steps <= scalar_steps,
                        "{strategy:?}: run detection must never add steps \
                         ({batch_steps} vs {scalar_steps})"
                    );
                }
            }
        }
    }

    /// The run-detection contract: whatever the lane order — sorted,
    /// reversed, repeated, boundary-hopping — the batched lookups return
    /// bitwise the same values and hints as scalar lookups.
    #[test]
    fn run_detection_is_bitwise_invisible() {
        for lib in [lib(1024, 33), mismatched_lib()] {
            let (lo, hi) = lib.absorb.energy_range();
            let mut blocks: Vec<Vec<f64>> = Vec::new();
            // Ascending fine sweep (many lanes per bin).
            blocks.push(
                (0..800)
                    .map(|i| lo * (hi / lo).powf(i as f64 / 800.0))
                    .collect(),
            );
            // Descending (memo misses going backwards).
            let mut desc = blocks[0].clone();
            desc.reverse();
            blocks.push(desc);
            // All-identical lanes (a birth population).
            blocks.push(vec![(lo * hi).sqrt(); 300]);
            // In/out-of-range hops around both boundaries.
            blocks.push(vec![
                lo / 2.0,
                lo,
                lo * 1.0001,
                lo / 3.0,
                hi,
                hi * 2.0,
                hi * 0.9999,
                lo,
                hi * 5.0,
            ]);
            // Exact grid points interleaved with midpoints.
            let eg: Vec<f64> = lib.absorb.energies().iter().copied().take(64).collect();
            let mut mixed = Vec::new();
            for w in eg.windows(2) {
                mixed.push(w[0]);
                mixed.push(0.5 * (w[0] + w[1]));
            }
            blocks.push(mixed);
            // Pseudo-random shuffle of the fine sweep: defeats both the
            // scalar memo and the lane-blocked memo, exercising the
            // per-lane fallback inside partially-matching blocks.
            let mut shuffled = blocks[0].clone();
            let mut x = 0x9e37u64;
            for j in (1..shuffled.len()).rev() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                shuffled.swap(j, (x >> 33) as usize % (j + 1));
            }
            blocks.push(shuffled);
            // Runs of exactly the SIMD block width, then a bin hop —
            // every block test either fully hits or straddles a boundary.
            let mut runs = Vec::new();
            for w in eg.windows(2).take(16) {
                let mid = 0.5 * (w[0] + w[1]);
                runs.extend(std::iter::repeat_n(mid, 8));
                runs.push(w[1]);
            }
            blocks.push(runs);

            for strategy in LookupStrategy::ALL {
                for (bi, block) in blocks.iter().enumerate() {
                    let n = block.len();
                    let mut ha = vec![7u32; n];
                    let mut hs = vec![2u32; n];
                    let mut oa = vec![0.0; n];
                    let mut os = vec![0.0; n];
                    lib.lookup_many_with(strategy, block, &mut ha, &mut hs, &mut oa, &mut os);
                    for (j, &e) in block.iter().enumerate() {
                        let mut hints = XsHints {
                            absorb: 7,
                            scatter: 2,
                        };
                        let (micro, _) = lib.lookup_with(strategy, e, &mut hints);
                        assert_eq!(
                            micro.absorb_barns.to_bits(),
                            oa[j].to_bits(),
                            "{strategy:?} block {bi} lane {j} (E={e}): absorb"
                        );
                        assert_eq!(
                            micro.scatter_barns.to_bits(),
                            os[j].to_bits(),
                            "{strategy:?} block {bi} lane {j} (E={e}): scatter"
                        );
                        assert_eq!(
                            (hints.absorb, hints.scatter),
                            (ha[j], hs[j]),
                            "{strategy:?} block {bi} lane {j} (E={e}): hints"
                        );
                    }
                }
            }
        }
    }

    /// Run detection pays where it is designed to: a lane block of
    /// identical energies (every birth population) resolves with zero
    /// scan steps after the first lane.
    #[test]
    fn run_detection_skips_repeated_lanes() {
        let lib = lib(4096, 55);
        let (lo, hi) = lib.absorb.energy_range();
        let scalar = |e: f64| {
            let mut h = XsHints::default();
            lib.lookup_with(LookupStrategy::Hashed, e, &mut h).1
        };
        // An interior energy whose bucket start needs a non-zero scan,
        // found by probing; fall back to any interior energy.
        let e = (0..1000)
            .map(|i| lo * (hi / lo).powf(i as f64 / 1000.0))
            .find(|&e| scalar(e) > 0)
            .unwrap_or((lo * hi).sqrt());
        let n = 64;
        let block = vec![e; n];
        let mut ha = vec![0u32; n];
        let mut hs = vec![0u32; n];
        let mut oa = vec![0.0; n];
        let mut os = vec![0.0; n];
        let batch_steps = lib.lookup_many_with(
            LookupStrategy::Hashed,
            &block,
            &mut ha,
            &mut hs,
            &mut oa,
            &mut os,
        );
        assert_eq!(
            batch_steps,
            u64::from(scalar(e)),
            "only the first lane may search"
        );
    }

    #[test]
    fn hashed_scan_is_short_on_log_grids() {
        let lib = lib(8192, 77);
        let mut total_steps = 0u64;
        let mut lookups = 0u64;
        let (lo, hi) = lib.absorb.energy_range();
        for i in 0..10_000 {
            let t = i as f64 / 10_000.0;
            let e = lo * (hi / lo).powf(t);
            let mut hints = XsHints::default();
            let (_, s) = lib.lookup_with(LookupStrategy::Hashed, e, &mut hints);
            total_steps += u64::from(s);
            lookups += 1;
        }
        let mean = total_steps as f64 / lookups as f64;
        assert!(mean < 1.0, "mean hashed scan {mean} steps");
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in LookupStrategy::ALL {
            assert_eq!(s.name().parse::<LookupStrategy>().unwrap(), s);
        }
        let removed = "unionized".parse::<LookupStrategy>().unwrap_err();
        assert!(removed.starts_with("lookup strategy `unionized` was removed ("));
        assert!(removed.ends_with("; use `hashed`, which produces the same bits"));
        let renamed = "cached_linear".parse::<LookupStrategy>().unwrap_err();
        assert!(renamed.contains("was renamed `hinted`"));
        let unknown = "bogus".parse::<LookupStrategy>().unwrap_err();
        assert!(unknown.ends_with("(binary|hinted|hashed)"), "{unknown}");
    }
}
