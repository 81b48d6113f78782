//! Pluggable cross-section lookup backends.
//!
//! The paper's collision kernel resolves two table lookups (capture +
//! elastic scatter) per energy change, and §VI-A shows the lookup
//! strategy alone is worth 1.3x end-to-end on `csp`. This module
//! generalises the original two strategies into a backend layer with the
//! two grid accelerations proven in the XSBench/OpenMC lineage:
//!
//! * [`LookupStrategy::Binary`] — a fresh `O(log n)` binary search per
//!   table per lookup (the baseline);
//! * [`LookupStrategy::Hinted`] — a linear walk from the particle's
//!   cached bin index (the paper's cached linear search);
//! * [`LookupStrategy::Unionized`] — the capture and scatter energy
//!   grids are merged once into a *union grid*; each union bin stores the
//!   containing bin of both tables plus a fused copy of both lerp
//!   segments, so a single (bucket-accelerated) search on the union grid
//!   resolves **both** tables with direct indexing and one contiguous
//!   64-byte read;
//! * [`LookupStrategy::Hashed`] — a log-spaced bucket index over each
//!   table gives an O(1) bucket hit followed by a short bounded scan
//!   (expected < 1 step on log-uniform grids).
//!
//! Every backend funnels its interpolation through
//! [`crate::table::lerp_segment`] and applies the exact clamping of
//! [`CrossSection::value_binary`], so all four agree **bitwise** for every
//! energy, in and out of range — switching strategies can never change
//! the physics, only the speed. All backends also leave the caller's
//! [`XsHints`] at the containing (clamped) bin, exactly as the hinted
//! walk would, so strategies can be switched mid-simulation.
//!
//! The [`XsLookup`] trait adds a batched [`XsLookup::lookup_many`] that
//! resolves a whole structure-of-arrays lane block of energies in one
//! call — the shape the event-based and SoA transport drivers want.

use crate::table::{lerp_segment, CrossSection};
use crate::{CrossSectionLibrary, MicroXs, XsHints};

/// Which lookup backend the transport drivers use (selectable from
/// parameter files via `lookup_strategy` and from the CLI via `--lookup`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LookupStrategy {
    /// Fresh binary search per table per lookup.
    Binary,
    /// Linear walk from the particle's cached bin index (paper §VI-A).
    #[default]
    Hinted,
    /// One search on the merged union grid resolves both tables.
    Unionized,
    /// Log-spaced hash buckets, O(1) bucket + short scan.
    Hashed,
}

impl LookupStrategy {
    /// All strategies, in benchmarking order.
    pub const ALL: [LookupStrategy; 4] = [
        LookupStrategy::Binary,
        LookupStrategy::Hinted,
        LookupStrategy::Unionized,
        LookupStrategy::Hashed,
    ];

    /// Stable lower-case name (used by parameter files, CLI flags and
    /// figure output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LookupStrategy::Binary => "binary",
            LookupStrategy::Hinted => "hinted",
            LookupStrategy::Unionized => "unionized",
            LookupStrategy::Hashed => "hashed",
        }
    }
}

impl std::str::FromStr for LookupStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "binary" => Ok(LookupStrategy::Binary),
            // `cached_linear` is the pre-subsystem name of the hinted walk.
            "hinted" | "cached_linear" => Ok(LookupStrategy::Hinted),
            "unionized" => Ok(LookupStrategy::Unionized),
            "hashed" => Ok(LookupStrategy::Hashed),
            other => Err(format!(
                "unknown lookup strategy `{other}` (binary|hinted|unionized|hashed)"
            )),
        }
    }
}

impl std::fmt::Display for LookupStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A cross-section lookup backend: resolves both microscopic cross
/// sections of the library at a given energy.
///
/// Contract (enforced by the property tests): results are bitwise equal
/// to [`CrossSectionLibrary::lookup_binary`], and `hints` is left at the
/// containing bin of each table, clamped to `0` below the grid and
/// `len - 2` above it — identical to the hinted walk's hint state.
pub trait XsLookup: Send + Sync {
    /// The strategy this backend implements.
    fn strategy(&self) -> LookupStrategy;

    /// Look up both tables at `energy_ev`, updating `hints` and returning
    /// the microscopic cross sections plus the number of linear grid
    /// steps walked (0 for the non-walking backends).
    fn lookup(&self, energy_ev: f64, hints: &mut XsHints) -> (MicroXs, u32);

    /// Resolve a whole lane block of energies in one call: `out_absorb`
    /// and `out_scatter` receive the per-lane cross sections, the hint
    /// slices are updated in place (these are the hint lanes of the
    /// event-based driver). Returns the total grid steps walked.
    ///
    /// All five slices must have equal lengths.
    fn lookup_many(
        &self,
        energies: &[f64],
        hints_absorb: &mut [u32],
        hints_scatter: &mut [u32],
        out_absorb: &mut [f64],
        out_scatter: &mut [f64],
    ) -> u64 {
        assert_eq!(energies.len(), hints_absorb.len());
        assert_eq!(energies.len(), hints_scatter.len());
        assert_eq!(energies.len(), out_absorb.len());
        assert_eq!(energies.len(), out_scatter.len());
        let mut steps = 0u64;
        for i in 0..energies.len() {
            let mut hints = XsHints {
                absorb: hints_absorb[i],
                scatter: hints_scatter[i],
            };
            let (micro, s) = self.lookup(energies[i], &mut hints);
            hints_absorb[i] = hints.absorb;
            hints_scatter[i] = hints.scatter;
            out_absorb[i] = micro.absorb_barns;
            out_scatter[i] = micro.scatter_barns;
            steps += u64::from(s);
        }
        steps
    }
}

/// Binary search at both tables per lookup — identical search work to the
/// original baseline, but (unlike `lookup_binary`) it updates the hints
/// so strategies stay interchangeable mid-run.
pub struct BinaryLookup<'a> {
    lib: &'a CrossSectionLibrary,
}

impl<'a> BinaryLookup<'a> {
    /// Build the backend over `lib`.
    #[must_use]
    pub fn new(lib: &'a CrossSectionLibrary) -> Self {
        Self { lib }
    }
}

#[inline]
fn binary_one(t: &CrossSection, e: f64, hint: &mut u32) -> f64 {
    let eg = t.energies();
    let n = eg.len();
    if e <= eg[0] {
        *hint = 0;
        return t.values()[0];
    }
    if e >= eg[n - 1] {
        *hint = (n - 2) as u32;
        return t.values()[n - 1];
    }
    let i = eg.partition_point(|&g| g <= e) - 1;
    *hint = i as u32;
    t.lerp(i, e)
}

impl XsLookup for BinaryLookup<'_> {
    fn strategy(&self) -> LookupStrategy {
        LookupStrategy::Binary
    }

    #[inline]
    fn lookup(&self, energy_ev: f64, hints: &mut XsHints) -> (MicroXs, u32) {
        let a = binary_one(&self.lib.absorb, energy_ev, &mut hints.absorb);
        let s = binary_one(&self.lib.scatter, energy_ev, &mut hints.scatter);
        (
            MicroXs {
                absorb_barns: a,
                scatter_barns: s,
            },
            0,
        )
    }
}

/// Walk from `start` to the bin containing `e` on grid `eg`, counting
/// steps. The single scan kernel shared by the hashed backends and the
/// union-grid search, so their branch structure (and therefore the
/// bitwise-equality contract) cannot drift apart. Callers guarantee
/// `eg[0] < e < eg[last]` and `start <= eg.len() - 2`; the walk also
/// absorbs any floating-point wobble in the bucket computation.
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

/// The paper's cached linear search: walk each table from the hint.
pub struct HintedLookup<'a> {
    lib: &'a CrossSectionLibrary,
}

impl<'a> HintedLookup<'a> {
    /// Build the backend over `lib`.
    #[must_use]
    pub fn new(lib: &'a CrossSectionLibrary) -> Self {
        Self { lib }
    }
}

impl XsLookup for HintedLookup<'_> {
    fn strategy(&self) -> LookupStrategy {
        LookupStrategy::Hinted
    }

    #[inline]
    fn lookup(&self, energy_ev: f64, hints: &mut XsHints) -> (MicroXs, u32) {
        let mut ia = hints.absorb as usize;
        let mut is = hints.scatter as usize;
        let (a, na) = self.lib.absorb.value_hinted_counted(energy_ev, &mut ia);
        let (s, ns) = self.lib.scatter.value_hinted_counted(energy_ev, &mut is);
        hints.absorb = ia as u32;
        hints.scatter = is as u32;
        (
            MicroXs {
                absorb_barns: a,
                scatter_barns: s,
            },
            na + ns,
        )
    }
}

/// The merged-grid acceleration structure behind
/// [`LookupStrategy::Unionized`].
///
/// The union grid is the sorted, deduplicated merge of both tables'
/// energy grids. Because every original grid point is a union point, the
/// containing bin of *each* table is constant across any union bin, so it
/// can be precomputed: one search on the union grid then resolves both
/// tables by direct indexing. Each union bin additionally carries a fused
/// copy of both tables' lerp segments (`[e0, e1, v0, v1]` twice — one
/// 64-byte block), so the post-search evaluation touches a single
/// contiguous cache line instead of four scattered table locations.
#[derive(Clone, Debug)]
pub struct UnionizedGrid {
    /// Union energy grid (sorted, unique).
    energy: Vec<f64>,
    /// Bit-space bucket index accelerating the union-grid search (see
    /// `TableHash`): the "one search" is an O(1) bucket hit plus a short
    /// scan instead of a binary search.
    hash: TableHash,
    /// Per union bin: containing bin index in `[absorb, scatter]`.
    bins: Vec<[u32; 2]>,
    /// Per union bin: `[a_e0, a_e1, a_v0, a_v1, s_e0, s_e1, s_v0, s_v1]`.
    segments: Vec<[f64; 8]>,
    /// `(lowest energy, value there)` of the absorb table.
    absorb_lo: (f64, f64),
    /// `(highest energy, value there)` of the absorb table.
    absorb_hi: (f64, f64),
    /// `(lowest energy, value there)` of the scatter table.
    scatter_lo: (f64, f64),
    /// `(highest energy, value there)` of the scatter table.
    scatter_hi: (f64, f64),
}

impl UnionizedGrid {
    /// Merge the two tables' grids and precompute the per-bin indices and
    /// fused segments.
    #[must_use]
    pub fn build(absorb: &CrossSection, scatter: &CrossSection) -> Self {
        let mut energy: Vec<f64> = absorb
            .energies()
            .iter()
            .chain(scatter.energies())
            .copied()
            .collect();
        energy.sort_by(f64::total_cmp);
        energy.dedup();

        let m = energy.len();
        let mut bins = Vec::with_capacity(m - 1);
        let mut segments = Vec::with_capacity(m - 1);
        for &u in &energy[..m - 1] {
            let ia = absorb.bin_index_binary(u);
            let is = scatter.bin_index_binary(u);
            bins.push([ia as u32, is as u32]);
            let (ae, av) = (absorb.energies(), absorb.values());
            let (se, sv) = (scatter.energies(), scatter.values());
            segments.push([
                ae[ia],
                ae[ia + 1],
                av[ia],
                av[ia + 1],
                se[is],
                se[is + 1],
                sv[is],
                sv[is + 1],
            ]);
        }

        let ends = |t: &CrossSection| {
            let (lo, hi) = t.energy_range();
            (
                (lo, t.values()[0]),
                (hi, *t.values().last().expect("non-empty table")),
            )
        };
        let (absorb_lo, absorb_hi) = ends(absorb);
        let (scatter_lo, scatter_hi) = ends(scatter);
        let hash = TableHash::build(&energy, HASH_BUCKETS_PER_POINT);
        Self {
            energy,
            hash,
            bins,
            segments,
            absorb_lo,
            absorb_hi,
            scatter_lo,
            scatter_hi,
        }
    }

    /// Number of union grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.energy.len()
    }

    /// Whether the union grid is empty (never true once built).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.energy.is_empty()
    }

    /// Resident bytes of the acceleration structure.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.energy.len() * 8
            + self.hash.start.len() * 4
            + self.bins.len() * 8
            + self.segments.len() * 64
    }

    /// Resolve both tables at `e`: returns `(absorb, scatter, steps,
    /// absorb_bin, scatter_bin)`.
    #[inline]
    fn resolve(&self, e: f64) -> (f64, f64, u32, u32, u32) {
        self.resolve_run(e, &mut None)
    }

    /// As [`Self::resolve`], with a *run-detection* memo: when `e` falls
    /// in the same union bin as the previous in-range lane (`run`), the
    /// bucket hash and scan are skipped outright. Sorted (or repeated —
    /// e.g. a birth population at one energy) lane blocks turn almost
    /// every search into this O(1) reuse. Union bins partition the
    /// in-range axis, so a memo hit yields exactly the bin the scan
    /// would find: outputs and hints are bitwise identical, and only
    /// the `steps` work meter (honestly) reports the skipped scan work.
    #[inline]
    fn resolve_run(&self, e: f64, run: &mut Option<usize>) -> (f64, f64, u32, u32, u32) {
        let m = self.energy.len();
        let mut steps = 0u32;
        let k = if e <= self.energy[0] {
            0
        } else if e >= self.energy[m - 1] {
            m - 2
        } else if let Some(k) = run.filter(|&k| self.energy[k] <= e && e < self.energy[k + 1]) {
            k
        } else {
            let start = (self.hash.start[self.hash.bucket(e)] as usize).min(m - 2);
            let (i, ns) = scan_to_bin(&self.energy, start, e);
            steps = ns;
            *run = Some(i);
            i
        };
        let (a, s, ia, is) = self.eval_bin(e, k);
        (a, s, steps, ia, is)
    }

    /// Evaluate both tables for an energy whose containing union bin `k`
    /// is already known — the shared tail of the scan, memo and
    /// lane-blocked memo paths, so all three interpolate (and clamp)
    /// through literally the same code.
    #[inline]
    fn eval_bin(&self, e: f64, k: usize) -> (f64, f64, u32, u32) {
        let seg = &self.segments[k];
        let [ia, is] = self.bins[k];
        let a = if e <= self.absorb_lo.0 {
            self.absorb_lo.1
        } else if e >= self.absorb_hi.0 {
            self.absorb_hi.1
        } else {
            lerp_segment(e, seg[0], seg[1], seg[2], seg[3])
        };
        let s = if e <= self.scatter_lo.0 {
            self.scatter_lo.1
        } else if e >= self.scatter_hi.0 {
            self.scatter_hi.1
        } else {
            lerp_segment(e, seg[4], seg[5], seg[6], seg[7])
        };
        (a, s, ia, is)
    }
}

/// SIMD-width of the lane-blocked run-detection fast path: a whole block
/// of energies is compared against the cached bin with one branch-light
/// all-lanes test (a reduction of `RUN_BLOCK` independent compares the
/// auto-vectoriser can chew), so a monotone run of lanes in one bin
/// resolves at block granularity instead of lane granularity. Results are
/// bitwise identical to the scalar memo (`cs_search_steps` is already
/// zero on memo hits, so not even the work meter moves on the block
/// path).
const RUN_BLOCK: usize = 8;

/// Branch-light all-lanes test: does every energy in `block` fall in the
/// cached bin `[lo, hi)` *and* strictly inside the table range
/// `(e0, etop)` (the same preconditions the scalar memo checks, in the
/// same order semantics)? Written as an unconditional `&=` reduction so
/// the compiler vectorises the compares.
#[inline]
fn block_in_bin(block: &[f64], e0: f64, etop: f64, lo: f64, hi: f64) -> bool {
    let mut all = true;
    for &e in block {
        all &= e > e0 && e < etop && lo <= e && e < hi;
    }
    all
}

/// One search on the union grid resolves both tables.
pub struct UnionizedLookup<'a> {
    grid: &'a UnionizedGrid,
}

impl<'a> UnionizedLookup<'a> {
    /// Build the backend over a prebuilt union grid.
    #[must_use]
    pub fn new(grid: &'a UnionizedGrid) -> Self {
        Self { grid }
    }
}

impl XsLookup for UnionizedLookup<'_> {
    fn strategy(&self) -> LookupStrategy {
        LookupStrategy::Unionized
    }

    #[inline]
    fn lookup(&self, energy_ev: f64, hints: &mut XsHints) -> (MicroXs, u32) {
        let (a, s, steps, ia, is) = self.grid.resolve(energy_ev);
        hints.absorb = ia;
        hints.scatter = is;
        (
            MicroXs {
                absorb_barns: a,
                scatter_barns: s,
            },
            steps,
        )
    }

    fn lookup_many(
        &self,
        energies: &[f64],
        hints_absorb: &mut [u32],
        hints_scatter: &mut [u32],
        out_absorb: &mut [f64],
        out_scatter: &mut [f64],
    ) -> u64 {
        assert_eq!(energies.len(), hints_absorb.len());
        assert_eq!(energies.len(), hints_scatter.len());
        assert_eq!(energies.len(), out_absorb.len());
        assert_eq!(energies.len(), out_scatter.len());
        let g = self.grid;
        let m = g.energy.len();
        let (e0, etop) = (g.energy[0], g.energy[m - 1]);
        let n = energies.len();
        let mut steps = 0u64;
        let mut run: Option<usize> = None;
        let mut i = 0;
        while i < n {
            // Lane-blocked run detection: test a whole block against the
            // cached union bin at once; a hit resolves all lanes through
            // the shared `eval_bin` tail with zero scans (bitwise
            // identical to the scalar memo, which also reports 0 steps).
            if let Some(k) = run {
                if i + RUN_BLOCK <= n
                    && block_in_bin(
                        &energies[i..i + RUN_BLOCK],
                        e0,
                        etop,
                        g.energy[k],
                        g.energy[k + 1],
                    )
                {
                    for j in i..i + RUN_BLOCK {
                        let (a, s, ia, is) = g.eval_bin(energies[j], k);
                        out_absorb[j] = a;
                        out_scatter[j] = s;
                        hints_absorb[j] = ia;
                        hints_scatter[j] = is;
                    }
                    i += RUN_BLOCK;
                    continue;
                }
            }
            let (a, s, ns, ia, is) = g.resolve_run(energies[i], &mut run);
            out_absorb[i] = a;
            out_scatter[i] = s;
            hints_absorb[i] = ia;
            hints_scatter[i] = is;
            steps += u64::from(ns);
            i += 1;
        }
        steps
    }
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

impl TableHash {
    /// `buckets_per_point` buckets per grid point keeps the expected scan
    /// below one step on log-uniform grids.
    fn build(eg: &[f64], buckets_per_point: usize) -> Self {
        let n = eg.len();
        let n_buckets = (n * buckets_per_point).clamp(8, 1 << 22);
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

/// The bucket indices of both tables behind [`LookupStrategy::Hashed`].
///
/// When the two tables share one energy grid (always true for the
/// synthetic libraries, which lay both tables on the same log-uniform
/// grid), a single bucket index serves both and one bucket+scan resolves
/// both bins — the `shared_grid` fast path.
#[derive(Clone, Debug)]
pub struct HashedGrid {
    absorb: TableHash,
    /// `None` when the scatter grid is identical to the absorb grid (the
    /// shared fast path applies).
    scatter: Option<TableHash>,
}

/// Buckets per table grid point (4 keeps the expected scan at zero-to-one
/// steps on the log-uniform synthetic grids).
const HASH_BUCKETS_PER_POINT: usize = 4;

impl HashedGrid {
    /// Build the bucket indices for both tables (one shared index if the
    /// grids are identical).
    #[must_use]
    pub fn build(absorb: &CrossSection, scatter: &CrossSection) -> Self {
        let shared = absorb.energies() == scatter.energies();
        Self {
            absorb: TableHash::build(absorb.energies(), HASH_BUCKETS_PER_POINT),
            scatter: if shared {
                None
            } else {
                Some(TableHash::build(scatter.energies(), HASH_BUCKETS_PER_POINT))
            },
        }
    }

    /// Whether both tables resolve through one shared bucket index.
    #[must_use]
    pub fn shared_grid(&self) -> bool {
        self.scatter.is_none()
    }

    /// Resident bytes of the acceleration structure.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        (self.absorb.start.len() + self.scatter.as_ref().map_or(0, |s| s.start.len())) * 4
    }
}

#[inline]
fn hashed_one(t: &CrossSection, h: &TableHash, e: f64, hint: &mut u32) -> (f64, u32) {
    hashed_one_run(t, h, e, hint, &mut None)
}

/// As [`hashed_one`], with the run-detection memo of the batched path:
/// a lane landing in the previous lane's bin reuses it without touching
/// the bucket index. Bins partition the in-range axis, so a memo hit is
/// exactly the scan's answer — bitwise-identical value and hint.
#[inline]
fn hashed_one_run(
    t: &CrossSection,
    h: &TableHash,
    e: f64,
    hint: &mut u32,
    run: &mut Option<usize>,
) -> (f64, u32) {
    let eg = t.energies();
    let n = eg.len();
    if e <= eg[0] {
        *hint = 0;
        return (t.values()[0], 0);
    }
    if e >= eg[n - 1] {
        *hint = (n - 2) as u32;
        return (t.values()[n - 1], 0);
    }
    if let Some(i) = run.filter(|&i| eg[i] <= e && e < eg[i + 1]) {
        *hint = i as u32;
        return (t.lerp(i, e), 0);
    }
    let start = (h.start[h.bucket(e)] as usize).min(n - 2);
    let (i, steps) = scan_to_bin(eg, start, e);
    *run = Some(i);
    *hint = i as u32;
    (t.lerp(i, e), steps)
}

/// O(1) bucket hit + short scan on each table.
pub struct HashedLookup<'a> {
    lib: &'a CrossSectionLibrary,
    grid: &'a HashedGrid,
}

impl<'a> HashedLookup<'a> {
    /// Build the backend over `lib` and its prebuilt bucket index.
    #[must_use]
    pub fn new(lib: &'a CrossSectionLibrary, grid: &'a HashedGrid) -> Self {
        Self { lib, grid }
    }
}

impl HashedLookup<'_> {
    /// Shared-grid fast path: one bucket+scan on the common energy grid
    /// resolves the containing bin of *both* tables; identical branch
    /// structure and interpolation to `hashed_one` per table, so results
    /// stay bitwise equal to the two-index path.
    #[inline]
    fn lookup_shared(&self, e: f64, hints: &mut XsHints) -> (MicroXs, u32) {
        self.lookup_shared_run(e, hints, &mut None)
    }

    /// [`Self::lookup_shared`] with the run-detection memo (see
    /// [`hashed_one_run`]): the batched path threads one memo across the
    /// lane block, so sorted or repeated energies skip the bucket+scan.
    #[inline]
    fn lookup_shared_run(
        &self,
        e: f64,
        hints: &mut XsHints,
        run: &mut Option<usize>,
    ) -> (MicroXs, u32) {
        let absorb = &self.lib.absorb;
        let scatter = &self.lib.scatter;
        let eg = absorb.energies();
        let n = eg.len();
        if e <= eg[0] {
            hints.absorb = 0;
            hints.scatter = 0;
            return (
                MicroXs {
                    absorb_barns: absorb.values()[0],
                    scatter_barns: scatter.values()[0],
                },
                0,
            );
        }
        if e >= eg[n - 1] {
            hints.absorb = (n - 2) as u32;
            hints.scatter = (n - 2) as u32;
            return (
                MicroXs {
                    absorb_barns: absorb.values()[n - 1],
                    scatter_barns: scatter.values()[n - 1],
                },
                0,
            );
        }
        let (i, steps) = if let Some(i) = run.filter(|&i| eg[i] <= e && e < eg[i + 1]) {
            (i, 0)
        } else {
            let h = &self.grid.absorb;
            let start = (h.start[h.bucket(e)] as usize).min(n - 2);
            let (i, steps) = scan_to_bin(eg, start, e);
            *run = Some(i);
            (i, steps)
        };
        hints.absorb = i as u32;
        hints.scatter = i as u32;
        (
            MicroXs {
                absorb_barns: absorb.lerp(i, e),
                scatter_barns: scatter.lerp(i, e),
            },
            steps,
        )
    }

    /// Batched shared-grid path with lane-blocked run detection (see
    /// [`RUN_BLOCK`]): blocks of energies inside the cached bin resolve
    /// through the same `lerp` the scalar memo uses — bitwise identical,
    /// zero scan steps either way.
    fn lookup_many_shared(
        &self,
        energies: &[f64],
        hints_absorb: &mut [u32],
        hints_scatter: &mut [u32],
        out_absorb: &mut [f64],
        out_scatter: &mut [f64],
    ) -> u64 {
        let absorb = &self.lib.absorb;
        let scatter = &self.lib.scatter;
        let eg = absorb.energies();
        let ng = eg.len();
        let (e0, etop) = (eg[0], eg[ng - 1]);
        let n = energies.len();
        let mut steps = 0u64;
        let mut run: Option<usize> = None;
        let mut i = 0;
        while i < n {
            if let Some(k) = run {
                if i + RUN_BLOCK <= n
                    && block_in_bin(&energies[i..i + RUN_BLOCK], e0, etop, eg[k], eg[k + 1])
                {
                    for j in i..i + RUN_BLOCK {
                        let e = energies[j];
                        hints_absorb[j] = k as u32;
                        hints_scatter[j] = k as u32;
                        out_absorb[j] = absorb.lerp(k, e);
                        out_scatter[j] = scatter.lerp(k, e);
                    }
                    i += RUN_BLOCK;
                    continue;
                }
            }
            let mut hints = XsHints {
                absorb: hints_absorb[i],
                scatter: hints_scatter[i],
            };
            let (micro, ns) = self.lookup_shared_run(energies[i], &mut hints, &mut run);
            hints_absorb[i] = hints.absorb;
            hints_scatter[i] = hints.scatter;
            out_absorb[i] = micro.absorb_barns;
            out_scatter[i] = micro.scatter_barns;
            steps += u64::from(ns);
            i += 1;
        }
        steps
    }
}

impl XsLookup for HashedLookup<'_> {
    fn strategy(&self) -> LookupStrategy {
        LookupStrategy::Hashed
    }

    #[inline]
    fn lookup(&self, energy_ev: f64, hints: &mut XsHints) -> (MicroXs, u32) {
        let Some(scatter_hash) = &self.grid.scatter else {
            return self.lookup_shared(energy_ev, hints);
        };
        let (a, na) = hashed_one(
            &self.lib.absorb,
            &self.grid.absorb,
            energy_ev,
            &mut hints.absorb,
        );
        let (s, ns) = hashed_one(
            &self.lib.scatter,
            scatter_hash,
            energy_ev,
            &mut hints.scatter,
        );
        (
            MicroXs {
                absorb_barns: a,
                scatter_barns: s,
            },
            na + ns,
        )
    }

    fn lookup_many(
        &self,
        energies: &[f64],
        hints_absorb: &mut [u32],
        hints_scatter: &mut [u32],
        out_absorb: &mut [f64],
        out_scatter: &mut [f64],
    ) -> u64 {
        assert_eq!(energies.len(), hints_absorb.len());
        assert_eq!(energies.len(), hints_scatter.len());
        assert_eq!(energies.len(), out_absorb.len());
        assert_eq!(energies.len(), out_scatter.len());
        let Some(scatter_hash) = &self.grid.scatter else {
            // Shared grid (every synthetic library): the lane-blocked
            // run-detection path.
            return self.lookup_many_shared(
                energies,
                hints_absorb,
                hints_scatter,
                out_absorb,
                out_scatter,
            );
        };
        let mut steps = 0u64;
        let mut run_a = None;
        let mut run_s = None;
        for (i, &e) in energies.iter().enumerate() {
            let mut hints = XsHints {
                absorb: hints_absorb[i],
                scatter: hints_scatter[i],
            };
            let (a, na) = hashed_one_run(
                &self.lib.absorb,
                &self.grid.absorb,
                e,
                &mut hints.absorb,
                &mut run_a,
            );
            let (sv, nsv) = hashed_one_run(
                &self.lib.scatter,
                scatter_hash,
                e,
                &mut hints.scatter,
                &mut run_s,
            );
            out_absorb[i] = a;
            out_scatter[i] = sv;
            hints_absorb[i] = hints.absorb;
            hints_scatter[i] = hints.scatter;
            steps += u64::from(na + nsv);
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthParams;

    fn lib(n: usize, seed: u64) -> CrossSectionLibrary {
        CrossSectionLibrary::synthetic(n, seed)
    }

    /// A deliberately mismatched pair of grids: different point counts and
    /// different, partially overlapping energy ranges.
    fn mismatched_lib() -> CrossSectionLibrary {
        let a = CrossSection::new(
            (0..40)
                .map(|i| (0.5 * 1.4f64.powi(i), 10.0 + (i as f64).sin().abs()))
                .collect(),
        );
        let s = CrossSection::new(
            (0..23)
                .map(|i| (2.0 * 1.9f64.powi(i), 5.0 + (i as f64 * 0.7).cos().abs()))
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

    fn assert_backend_matches(lib: &CrossSectionLibrary, strategy: LookupStrategy) {
        let backend = lib.backend(strategy);
        let reference = BinaryLookup::new(lib);
        for (case, start_hint) in [(0u32, 0u32), (1, 7), (2, u32::MAX)] {
            for &e in &probe_energies(lib) {
                let mut hints = XsHints {
                    absorb: start_hint,
                    scatter: start_hint / 2,
                };
                let mut ref_hints = hints;
                let (micro, _) = backend.lookup(e, &mut hints);
                let (expect, _) = reference.lookup(e, &mut ref_hints);
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
                    (hints.absorb, hints.scatter),
                    (ref_hints.absorb, ref_hints.scatter),
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
                assert_backend_matches(&lib, strategy);
            }
        }
    }

    #[test]
    fn all_backends_agree_on_mismatched_grids() {
        let lib = mismatched_lib();
        for strategy in LookupStrategy::ALL {
            assert_backend_matches(&lib, strategy);
        }
    }

    #[test]
    fn out_of_range_clamps_and_hint_state() {
        let lib = lib(512, 9);
        let (lo, hi) = lib.absorb.energy_range();
        for strategy in LookupStrategy::ALL {
            let backend = lib.backend(strategy);
            let mut hints = XsHints {
                absorb: 100,
                scatter: 200,
            };
            let (below, _) = backend.lookup(lo / 2.0, &mut hints);
            assert_eq!(below.absorb_barns, lib.absorb.values()[0], "{strategy:?}");
            assert_eq!(hints.absorb, 0, "{strategy:?} low hint");
            assert_eq!(hints.scatter, 0, "{strategy:?} low hint");
            let (above, _) = backend.lookup(hi * 2.0, &mut hints);
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
            let backend = lib.backend(strategy);
            let n = energies.len();
            let mut ha = vec![3u32; n];
            let mut hs = vec![5u32; n];
            let mut oa = vec![0.0; n];
            let mut os = vec![0.0; n];
            let batch_steps = backend.lookup_many(&energies, &mut ha, &mut hs, &mut oa, &mut os);

            let mut scalar_steps = 0u64;
            for i in 0..n {
                let mut hints = XsHints {
                    absorb: 3,
                    scatter: 5,
                };
                let (micro, s) = backend.lookup(energies[i], &mut hints);
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
            // The hinted backend walks from the per-call hints, which the
            // scalar replay above resets each time; steps must still
            // match because the batched default does exactly the same.
            // The grid backends' batched paths carry a run-detection
            // memo, so on this monotone block they honestly report
            // *less* search work than the scalar replay.
            match strategy {
                LookupStrategy::Binary | LookupStrategy::Hinted => {
                    assert_eq!(batch_steps, scalar_steps, "{strategy:?}");
                }
                LookupStrategy::Unionized | LookupStrategy::Hashed => {
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
    /// reversed, repeated, boundary-hopping — the batched grid lookups
    /// return bitwise the same values and hints as scalar lookups.
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

            for strategy in [LookupStrategy::Unionized, LookupStrategy::Hashed] {
                let backend = lib.backend(strategy);
                for (bi, block) in blocks.iter().enumerate() {
                    let n = block.len();
                    let mut ha = vec![7u32; n];
                    let mut hs = vec![2u32; n];
                    let mut oa = vec![0.0; n];
                    let mut os = vec![0.0; n];
                    backend.lookup_many(block, &mut ha, &mut hs, &mut oa, &mut os);
                    for (j, &e) in block.iter().enumerate() {
                        let mut hints = XsHints {
                            absorb: 7,
                            scatter: 2,
                        };
                        let (micro, _) = backend.lookup(e, &mut hints);
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
        // An interior energy whose bucket start needs a non-zero scan,
        // found by probing; fall back to any interior energy.
        let e = (0..1000)
            .map(|i| lo * (hi / lo).powf(i as f64 / 1000.0))
            .find(|&e| {
                let mut h = XsHints::default();
                lib.backend(LookupStrategy::Hashed).lookup(e, &mut h).1 > 0
            })
            .unwrap_or((lo * hi).sqrt());
        for strategy in [LookupStrategy::Unionized, LookupStrategy::Hashed] {
            let backend = lib.backend(strategy);
            let mut h = XsHints::default();
            let (_, scalar_steps) = backend.lookup(e, &mut h);
            let n = 64;
            let block = vec![e; n];
            let mut ha = vec![0u32; n];
            let mut hs = vec![0u32; n];
            let mut oa = vec![0.0; n];
            let mut os = vec![0.0; n];
            let batch_steps = backend.lookup_many(&block, &mut ha, &mut hs, &mut oa, &mut os);
            assert_eq!(
                batch_steps,
                u64::from(scalar_steps),
                "{strategy:?}: only the first lane may search"
            );
        }
    }

    #[test]
    fn union_grid_contains_both_tables() {
        let lib = mismatched_lib();
        let grid = lib.unionized();
        assert_eq!(
            grid.len(),
            lib.absorb.len() + lib.scatter.len(),
            "disjoint grids must merge without loss"
        );
        assert!(grid.footprint_bytes() > 0);
        // Identical grids dedupe to one copy.
        let p = SynthParams::default();
        let same = CrossSectionLibrary::from_tables(
            crate::synth::synthetic_capture(128, 1, &p),
            crate::synth::synthetic_capture(128, 1, &p),
        );
        assert_eq!(same.unionized().len(), 128);
    }

    #[test]
    fn hashed_scan_is_short_on_log_grids() {
        let lib = lib(8192, 77);
        let backend = lib.backend(LookupStrategy::Hashed);
        let mut total_steps = 0u64;
        let mut lookups = 0u64;
        let (lo, hi) = lib.absorb.energy_range();
        for i in 0..10_000 {
            let t = i as f64 / 10_000.0;
            let e = lo * (hi / lo).powf(t);
            let mut hints = XsHints::default();
            let (_, s) = backend.lookup(e, &mut hints);
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
        assert_eq!(
            "cached_linear".parse::<LookupStrategy>().unwrap(),
            LookupStrategy::Hinted
        );
        assert!("bogus".parse::<LookupStrategy>().is_err());
    }
}
