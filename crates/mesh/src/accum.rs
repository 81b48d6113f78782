//! The two tally-accumulation backends and the deterministic merge.
//!
//! The paper's central on-node finding is that *how* the energy-deposition
//! tally is accumulated — shared atomics versus thread-private replication
//! (§VI-F, Figures 3/7/8) — decides thread scaling. This module makes that
//! choice a runtime [`TallyStrategy`] with two values: every transport
//! driver deposits through a [`LaneSink`] checked out from a
//! [`TallyAccum`], which is either the paper's one shared atomic mesh or
//! one private dense mesh per lane, merged deterministically.
//!
//! # Lanes and the deterministic-merge invariant
//!
//! Parallel `f64` reduction is famously non-reproducible: addition does
//! not associate, so the merged tally of a naive per-*thread* reduction
//! changes bitwise with the worker count and, under atomics, with the
//! interleaving of every run. This subsystem instead keys accumulation on
//! **lanes**: fixed, contiguous slices of the particle index space whose
//! size is independent of how many workers execute the solve (see
//! [`LanePartition`]). A lane is the unit of scheduling — exactly one
//! worker processes a lane's particles, in index order — so lane partials
//! are bitwise well-defined, and [`TallyAccum::merge`] combines them with
//! a fixed pairwise (binary-tree) summation in lane order. The result:
//!
//! > For the `Replicated` backend, the merged tally is **bitwise
//! > identical** for any worker count and any schedule — the lane count
//! > never depends on the worker count, and workers beyond it simply find
//! > no lane to claim.
//!
//! The `Atomic` backend keeps the paper's single shared mesh, so
//! concurrent CAS adds to one cell still commit in arrival order; it is
//! bitwise reproducible only single-threaded, and agrees with
//! `Replicated` to floating-point reassociation error otherwise (this is
//! exactly the reproducibility/footprint trade-off OpenMC and MC/DC
//! document for their tally servers). See `DESIGN.md` §11.
//!
//! # Lane lifecycle
//!
//! An accumulator lives for one timestep: the step engine allocates it,
//! the drivers deposit, [`TallyAccum::merge_with`] folds it, it is
//! dropped. A replicated lane mesh is *allocated lazily* (`vec![0.0; n]`
//! maps untouched zero pages), *claimed* by the worker that will deposit
//! into it ([`LaneSink::claim`] — the one zeroing rule), and *merged in
//! place* ([`merge_nodes_pairwise`]: a cell-blocked pairwise tree over
//! borrowed meshes, no lane is copied).
//!
//! # One merge, over tree nodes
//!
//! The tree over lanes `[lo, hi)` splits at `lo + (hi - lo) / 2`, so the
//! shape of a subtree depends only on how many lanes it spans. Whoever
//! holds the lanes of one node can therefore reduce that subtree alone,
//! numbering its leaves from zero, and land on the bits the whole merge
//! computes for that node. [`merge_nodes_pairwise`] takes such nodes —
//! `(lane range, reduced mesh)` — and finishes the tree above them;
//! per-lane partials are the case where every node is a leaf
//! ([`merge_lanes_pairwise`], which [`TallyAccum::merge_with`] calls).
//! [`tree_cover`] names the nodes a contiguous lane range reduces to,
//! which is what a shard attempt ships instead of its lanes (DESIGN.md
//! §11, §18).

use crate::tally::AtomicTally;
use std::ops::Range;

/// Default lane count: the concurrency ceiling of the lane-decomposed
/// drivers (a lane is processed by one worker) and the replication
/// factor of the `Replicated` backend. Deliberately a fixed constant —
/// deriving it from the worker count would make the merge order, and so
/// the merged bits, depend on how many threads ran.
pub const DEFAULT_LANES: usize = 32;

/// Which tally-accumulation backend a run uses (paper §VI-F).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TallyStrategy {
    /// One shared mesh updated with `AtomicU64` bit-cast `f64`
    /// compare-exchange adds — the paper's `#pragma omp atomic` baseline.
    /// Minimal footprint, contended hot path, not bitwise reproducible
    /// across thread counts.
    Atomic,
    /// One private dense mesh per lane, pairwise-merged in lane order
    /// after the solve — the paper's privatisation (§VI-F) keyed on lanes
    /// instead of threads so the merge is deterministic. Footprint is
    /// `lanes ×` the mesh. The default: the configuration every served,
    /// sharded and checkpointed solve runs.
    #[default]
    Replicated,
}

impl TallyStrategy {
    /// All strategies, in benchmarking order.
    pub const ALL: [TallyStrategy; 2] = [TallyStrategy::Atomic, TallyStrategy::Replicated];

    /// Stable lower-case name (used by parameter files, CLI flags and
    /// figure output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TallyStrategy::Atomic => "atomic",
            TallyStrategy::Replicated => "replicated",
        }
    }

    /// Whether merged tallies are bitwise-invariant to worker count and
    /// interleaving.
    #[must_use]
    pub fn is_deterministic(self) -> bool {
        !matches!(self, TallyStrategy::Atomic)
    }
}

impl std::str::FromStr for TallyStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "atomic" => Ok(TallyStrategy::Atomic),
            "replicated" => Ok(TallyStrategy::Replicated),
            // Every front door (params file, POST body, CLI flag) parses
            // through here, so the removed value fails with one message.
            "privatized" => Err(
                "tally strategy `privatized` was removed (its spill maps grew to mesh size: \
                 more memory and time than `replicated`); use `replicated`, which produces \
                 the same bits"
                    .to_string(),
            ),
            other => Err(format!(
                "unknown tally strategy `{other}` (atomic|replicated)"
            )),
        }
    }
}

impl std::fmt::Display for TallyStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The fixed decomposition of an item (particle) index space into lanes.
///
/// Lane size is `ceil(n_items / target_lanes)` so that lane `l` covers
/// `[l * size, (l+1) * size)` — the same arithmetic the chunked drivers
/// use — and the partition depends only on `(n_items, target_lanes)`,
/// never on the worker count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LanePartition {
    /// Total number of items (particles).
    pub n_items: usize,
    /// Items per lane (last lane may be short).
    pub lane_size: usize,
    /// Number of (non-empty) lanes.
    pub n_lanes: usize,
}

impl LanePartition {
    /// Partition `n_items` into at most `target_lanes` equal chunks.
    #[must_use]
    pub fn new(n_items: usize, target_lanes: usize) -> Self {
        let target = target_lanes.max(1);
        let lane_size = n_items.div_ceil(target).max(1);
        let n_lanes = n_items.div_ceil(lane_size).max(1);
        Self {
            n_items,
            lane_size,
            n_lanes,
        }
    }

    /// Index range of lane `lane`.
    #[must_use]
    pub fn range(&self, lane: usize) -> Range<usize> {
        let start = lane * self.lane_size;
        start..((start + self.lane_size).min(self.n_items))
    }

    /// The lane containing item `item`.
    #[must_use]
    pub fn lane_of(&self, item: usize) -> usize {
        item / self.lane_size
    }
}

/// A worker-side deposit handle for one lane. Checked out from
/// [`TallyAccum::lane_views`]; the caller must drive each view from one
/// worker at a time (the lane-granular schedulers guarantee this).
#[derive(Debug)]
pub enum LaneSink<'a> {
    /// All lanes alias one shared atomic mesh (contended CAS adds).
    Shared(&'a AtomicTally),
    /// This lane's private dense mesh.
    Dense(&'a mut [f64]),
}

impl LaneSink<'_> {
    /// Claim this lane for the calling worker before its first deposit:
    /// a private dense mesh is zero-filled with plain stores, the shared
    /// mesh is left alone.
    ///
    /// The depth-first lane driver (`over_particles`) calls this once
    /// per lane, on the worker that will track the lane. A lane's
    /// pages arrive untouched from the allocator, and `lane[cell] += v`
    /// *reads* a page before it writes it: the read maps the shared zero
    /// page, the write then takes a second, copy-on-write fault that
    /// flushes the page from every other worker's TLB. Those histories
    /// walk nearly the whole mesh, so writing the lane first halves the
    /// faults (one plain write fault per page; 30 592 → 15 296 per csp
    /// 512² step) and takes the cross-CPU flushes out of the track loop.
    /// It also makes a driver's result independent of what the lane held.
    ///
    /// Over Events deliberately does **not** claim: its windows deposit
    /// into a sparse subset of each lane's pages, so an eager fill only
    /// commits memory nobody reads (`scatter` 512², 32 lanes: peak RSS
    /// 110 → 155 MB for no wall gain). It relies on the allocator's zero
    /// pages instead, which is why the step engine allocates a fresh
    /// accumulator per step.
    #[inline]
    pub fn claim(&mut self) {
        if let LaneSink::Dense(lane) = self {
            lane.fill(0.0);
        }
    }

    /// Add `value` to `cell` through this lane's backend mechanism.
    #[inline]
    pub fn add(&mut self, cell: usize, value: f64) {
        match self {
            LaneSink::Shared(mesh) => mesh.add(cell, value),
            LaneSink::Dense(lane) => lane[cell] += value,
        }
    }
}

/// Pairwise (binary-tree) sum of a slice — the deterministic reduction
/// used for merged-tally totals and scalar counter merges.
#[must_use]
pub fn pairwise_sum(values: &[f64]) -> f64 {
    match values.len() {
        0 => 0.0,
        1 => values[0],
        n => {
            let (lo, hi) = values.split_at(n / 2);
            pairwise_sum(lo) + pairwise_sum(hi)
        }
    }
}

/// Cells per block of [`merge_nodes_pairwise`]: 32 KB of `f64`, so a
/// block's output and its ≤ log₂(lanes) partial sums stay cache-resident
/// while the meshes stream through once.
const MERGE_BLOCK: usize = 4096;

/// The canonical cover of `lanes` by nodes of the pairwise tree over
/// `[0, n_lanes)`: the fewest tree nodes that tile `lanes`, in lane order
/// (`[0, 10)` of 32 lanes is `[0, 8)` + `[8, 10)`). A node over `[lo, hi)`
/// splits at `mid = lo + (hi - lo) / 2`, so each side of `lanes` meets at
/// most one partly covered node per level and the cover holds at most
/// 2⌈log₂ n_lanes⌉ nodes. This is the unit a shard ships: whoever holds
/// the lanes of a cover node can reduce that whole subtree alone, and the
/// tree over the covers of a partition of `[0, n_lanes)` is the tree over
/// the lanes.
///
/// # Panics
///
/// Panics if `lanes` reaches past `n_lanes`.
#[must_use]
pub fn tree_cover(n_lanes: usize, lanes: Range<usize>) -> Vec<Range<usize>> {
    fn descend(node: Range<usize>, lanes: &Range<usize>, cover: &mut Vec<Range<usize>>) {
        if node.end <= lanes.start || lanes.end <= node.start {
            return;
        }
        if lanes.start <= node.start && node.end <= lanes.end {
            cover.push(node);
            return;
        }
        let mid = node.start + (node.end - node.start) / 2;
        descend(node.start..mid, lanes, cover);
        descend(mid..node.end, lanes, cover);
    }
    assert!(lanes.end <= n_lanes, "lanes {lanes:?} of {n_lanes}");
    let mut cover = Vec::new();
    descend(0..n_lanes, &lanes, &mut cover);
    cover
}

/// Whether `nodes` tile `root` in lane order with nodes of the pairwise
/// tree rooted there — the split [`merge_block`] makes, checked once.
fn tiles_tree<M>(root: Range<usize>, nodes: &[(Range<usize>, M)]) -> bool {
    match nodes {
        [] => root.is_empty(),
        [(lanes, _)] => *lanes == root,
        _ if root.len() < 2 => false,
        _ => {
            let mid = root.start + (root.end - root.start) / 2;
            let (left, right) = nodes.split_at(nodes.partition_point(|(l, _)| l.start < mid));
            tiles_tree(root.start..mid, left) && tiles_tree(mid..root.end, right)
        }
    }
}

/// Pairwise (binary-tree) merge of dense tally meshes into `out` — the
/// one reduction of the deterministic backends. Conceptually: leaf `l` is
/// lane `l`'s partial, internal nodes add element-wise, and a node over
/// lanes `[lo, hi)` splits at `mid = lo + (hi - lo) / 2`. Each input is a
/// node of that tree, `(lanes, mesh)` with `mesh` the already-reduced
/// subtree over `lanes`, and the inputs tile `[0, n_lanes)` in lane
/// order; the function finishes the tree above them. Per-lane input is
/// the all-leaves case ([`merge_lanes_pairwise`]). A subtree's shape
/// depends only on `hi - lo`, so a node reduced elsewhere — from leaves
/// numbered `0..hi - lo` — holds the bits this function would have
/// computed for it: the result is a pure function of the lane partials,
/// whoever pre-reduced what, and `workers` changes who computes a cell,
/// never how.
///
/// The tree is evaluated one `MERGE_BLOCK`-cell (4096) block at a time
/// over the *borrowed* meshes, straight into `out`: nothing is copied,
/// every mesh is read exactly once, and the only transient memory is
/// `log₂(n_lanes)` blocks of partial sums per worker. Blocks are
/// independent, so they are dealt to `workers` scoped threads as
/// contiguous runs of `out`.
///
/// # Panics
///
/// Panics if a mesh does not hold exactly `out.len()` values, or if the
/// nodes do not tile `[0, n_lanes)` with nodes of its tree.
pub fn merge_nodes_pairwise<M>(nodes: &[(Range<usize>, M)], out: &mut [f64], workers: usize)
where
    M: AsRef<[f64]> + Sync,
{
    let cells = out.len();
    assert!(
        nodes.iter().all(|(_, m)| m.as_ref().len() == cells),
        "every mesh must hold {cells} cells"
    );
    let n_lanes = nodes.last().map_or(0, |(lanes, _)| lanes.end);
    assert!(
        tiles_tree(0..n_lanes, nodes),
        "merge inputs must tile the pairwise tree over {n_lanes} lanes"
    );
    // A call over three or more nodes parks its right half's sum in one
    // block of scratch, so at most ⌈log₂ n_lanes⌉ are live at once.
    let levels = n_lanes.next_power_of_two().ilog2() as usize;
    let merge_run = |start: usize, run: &mut [f64]| {
        let mut scratch = vec![0.0; levels * MERGE_BLOCK.min(run.len())];
        let mut lo = start;
        for block in run.chunks_mut(MERGE_BLOCK) {
            merge_block(nodes, lo, block, &mut scratch);
            lo += block.len();
        }
    };
    let blocks = cells.div_ceil(MERGE_BLOCK);
    let workers = workers.clamp(1, blocks.max(1));
    if workers == 1 {
        merge_run(0, out);
    } else {
        let run_len = blocks.div_ceil(workers) * MERGE_BLOCK;
        std::thread::scope(|scope| {
            for (w, run) in out.chunks_mut(run_len).enumerate() {
                let merge_run = &merge_run;
                scope.spawn(move || merge_run(w * run_len, run));
            }
        });
    }
}

/// [`merge_nodes_pairwise`] over per-lane partials: leaf `l` is
/// `lanes[l]`. What an unsharded [`TallyAccum::merge`] runs, and what a
/// shard attempt runs over the lanes of each node it ships (see
/// `neutral_core::shard`).
///
/// # Panics
///
/// Panics if a lane does not hold exactly `out.len()` values.
pub fn merge_lanes_pairwise<L>(lanes: &[L], out: &mut [f64], workers: usize)
where
    L: AsRef<[f64]>,
{
    let leaves: Vec<(Range<usize>, &[f64])> = lanes
        .iter()
        .enumerate()
        .map(|(l, lane)| (l..l + 1, lane.as_ref()))
        .collect();
    merge_nodes_pairwise(&leaves, out, workers);
}

/// One block of the pairwise tree over the lanes `nodes` tile:
/// `out = Σ_tree nodes[..][lo..lo + out.len()]`. `scratch` supplies one
/// `out`-sized buffer per level of recursion.
fn merge_block<M: AsRef<[f64]>>(
    nodes: &[(Range<usize>, M)],
    lo: usize,
    out: &mut [f64],
    scratch: &mut [f64],
) {
    let cells = lo..lo + out.len();
    match nodes {
        [] => out.fill(0.0),
        [(_, a)] => out.copy_from_slice(&a.as_ref()[cells]),
        // Two nodes that tile a tree range are its two children.
        [(_, a), (_, b)] => {
            let (a, b) = (&a.as_ref()[cells.clone()], &b.as_ref()[cells]);
            for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
                *o = x + y;
            }
        }
        [(first, _), .., (last, _)] => {
            let mid = first.start + (last.end - first.start) / 2;
            let (left, right) = nodes.split_at(nodes.partition_point(|(l, _)| l.start < mid));
            let (partial, scratch) = scratch.split_at_mut(out.len());
            merge_block(left, lo, out, scratch);
            merge_block(right, lo, partial, scratch);
            for (o, p) in out.iter_mut().zip(partial.iter()) {
                *o += p;
            }
        }
    }
}

/// The accumulator behind a [`TallyStrategy`]: lane-indexed deposit
/// sinks during the solve, one merged mesh afterwards.
///
/// Contract (enforced by the golden/equivalence/property suites):
///
/// * [`lane_views`](TallyAccum::lane_views) hands out exactly
///   [`n_lanes`](TallyAccum::n_lanes) sinks, and sinks of distinct lanes
///   may be driven concurrently;
/// * [`merge_with`](TallyAccum::merge_with) combines `Replicated` lane
///   partials with the pairwise reduction in lane order, so the result
///   depends only on the per-lane deposit sequences — never on the worker
///   count it is given.
#[derive(Debug)]
pub enum TallyAccum {
    /// The paper's shared-atomic backend: one mesh, every lane view
    /// aliases it, deposits are CAS read-modify-writes.
    Atomic {
        /// The shared mesh.
        mesh: AtomicTally,
        /// How many lane views alias it.
        n_lanes: usize,
    },
    /// One private dense mesh per lane, each `cells` long.
    Replicated {
        /// Number of mesh cells; every lane is this long.
        cells: usize,
        /// The lane meshes, in lane order.
        lanes: Vec<Vec<f64>>,
    },
}

impl TallyAccum {
    /// Build the backend for `strategy` over a `cells`-cell mesh with
    /// `n_lanes` (at least one) accumulation lanes, all zeroed.
    #[must_use]
    pub fn new(strategy: TallyStrategy, cells: usize, n_lanes: usize) -> Self {
        let n_lanes = n_lanes.max(1);
        match strategy {
            TallyStrategy::Atomic => TallyAccum::Atomic {
                mesh: AtomicTally::new(cells),
                n_lanes,
            },
            TallyStrategy::Replicated => TallyAccum::Replicated {
                cells,
                lanes: (0..n_lanes).map(|_| vec![0.0; cells]).collect(),
            },
        }
    }

    /// The backend's strategy tag.
    #[must_use]
    pub fn strategy(&self) -> TallyStrategy {
        match self {
            TallyAccum::Atomic { .. } => TallyStrategy::Atomic,
            TallyAccum::Replicated { .. } => TallyStrategy::Replicated,
        }
    }

    /// Number of mesh cells.
    #[must_use]
    pub fn cells(&self) -> usize {
        match self {
            TallyAccum::Atomic { mesh, .. } => mesh.len(),
            TallyAccum::Replicated { cells, .. } => *cells,
        }
    }

    /// Number of accumulation lanes.
    #[must_use]
    pub fn n_lanes(&self) -> usize {
        match self {
            TallyAccum::Atomic { n_lanes, .. } => *n_lanes,
            TallyAccum::Replicated { lanes, .. } => lanes.len(),
        }
    }

    /// Check out one deposit sink per lane (disjoint for `Replicated`;
    /// under `Atomic` every view aliases the shared mesh).
    pub fn lane_views(&mut self) -> Vec<LaneSink<'_>> {
        match self {
            TallyAccum::Atomic { mesh, n_lanes } => {
                let mesh = &*mesh;
                (0..*n_lanes).map(|_| LaneSink::Shared(mesh)).collect()
            }
            TallyAccum::Replicated { lanes, .. } => {
                lanes.iter_mut().map(|l| LaneSink::Dense(l)).collect()
            }
        }
    }

    /// [`merge_with`](TallyAccum::merge_with) on the calling thread.
    #[must_use]
    pub fn merge(&self) -> Vec<f64> {
        self.merge_with(1)
    }

    /// Merge all lanes into one mesh: a snapshot of the shared mesh, or
    /// the deterministic pairwise reduction of the replicated lanes with
    /// its blocks split across up to `workers` threads (the same bits for
    /// any `workers`).
    #[must_use]
    pub fn merge_with(&self, workers: usize) -> Vec<f64> {
        match self {
            TallyAccum::Atomic { mesh, .. } => mesh.snapshot(),
            TallyAccum::Replicated { cells, lanes } => {
                let mut out = vec![0.0; *cells];
                merge_lanes_pairwise(lanes, &mut out, workers);
                out
            }
        }
    }

    /// Resident bytes of the accumulation state.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        match self {
            TallyAccum::Atomic { mesh, .. } => mesh.footprint_bytes(),
            TallyAccum::Replicated { cells, lanes } => {
                lanes.len() * cells * std::mem::size_of::<f64>()
            }
        }
    }

    /// Consume the accumulator into its dense per-lane partials: for
    /// each lane, the per-cell sums that lane's deposit sequence
    /// produced — the `Replicated` lanes' private meshes, handed over by
    /// move. A shard attempt takes its lanes this way and reduces them
    /// to the tree nodes it ships: feeding these partials to
    /// [`merge_lanes_pairwise`] reproduces [`TallyAccum::merge`] bit for
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics for the `Atomic` backend, whose shared mesh has no
    /// well-defined per-lane decomposition.
    #[must_use]
    pub fn into_lane_partials(self) -> Vec<Vec<f64>> {
        match self {
            TallyAccum::Atomic { .. } => {
                panic!("lane partials are only defined for the deterministic tally strategy")
            }
            TallyAccum::Replicated { lanes, .. } => lanes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names_round_trip() {
        for s in TallyStrategy::ALL {
            assert_eq!(s.name().parse::<TallyStrategy>().unwrap(), s);
            assert_eq!(format!("{s}"), s.name());
        }
        assert!("magic".parse::<TallyStrategy>().is_err());
        let removed = "privatized".parse::<TallyStrategy>().unwrap_err();
        assert!(removed.contains("was removed") && removed.contains("use `replicated`"));
    }

    #[test]
    fn lane_partition_covers_exactly() {
        for (n, target) in [(0usize, 4usize), (1, 4), (7, 3), (500, 32), (1000, 7)] {
            let p = LanePartition::new(n, target);
            assert!(p.n_lanes <= target.max(1) || n == 0);
            let mut next = 0;
            for l in 0..p.n_lanes {
                let r = p.range(l);
                assert_eq!(r.start, next);
                next = r.end;
                for i in r.clone() {
                    assert_eq!(p.lane_of(i), l, "item {i}");
                }
            }
            assert_eq!(next, n, "partition of {n} into {target}");
        }
    }

    #[test]
    fn lane_partition_is_idempotent() {
        // Re-deriving the partition from its own lane count must not
        // change it — drivers recompute it from `accum.n_lanes()`.
        for (n, target) in [(500usize, 32usize), (10, 4), (100, 32), (3, 7)] {
            let p = LanePartition::new(n, target);
            assert_eq!(LanePartition::new(n, p.n_lanes), p);
        }
    }

    #[test]
    fn pairwise_sum_matches_naive_for_exact_values() {
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(pairwise_sum(&v), v.iter().sum::<f64>());
        assert_eq!(pairwise_sum(&[]), 0.0);
        assert_eq!(pairwise_sum(&[2.5]), 2.5);
    }

    /// The cross-backend keystone: identical per-lane deposit sequences
    /// must merge to the same totals under Atomic and Replicated.
    #[test]
    fn backends_agree_on_lane_deposits() {
        let cells = 37;
        let lanes = 5;
        // A deterministic pseudo-random deposit sequence per lane.
        let deposits: Vec<Vec<(usize, f64)>> = (0..lanes)
            .map(|l| {
                (0..200)
                    .map(|i| {
                        let cell = (l * 17 + i * 13) % cells;
                        let value = 0.1 + ((l * 31 + i * 7) % 100) as f64 * 1.7e-3;
                        (cell, value)
                    })
                    .collect()
            })
            .collect();

        let mut merged: Vec<Vec<f64>> = Vec::new();
        for strategy in TallyStrategy::ALL {
            let mut accum = TallyAccum::new(strategy, cells, lanes);
            {
                let mut views = accum.lane_views();
                for (l, view) in views.iter_mut().enumerate() {
                    for &(cell, value) in &deposits[l] {
                        view.add(cell, value);
                    }
                }
            }
            merged.push(accum.merge());
        }
        let [atomic, replicated] = &merged[..] else {
            unreachable!()
        };
        // Same sums up to reassociation.
        for (c, (a, b)) in atomic.iter().zip(replicated).enumerate() {
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "cell {c}");
        }
    }

    /// Concurrently driving disjoint lanes must not change the merged
    /// bits of the deterministic backend.
    #[test]
    fn deterministic_merge_is_interleaving_invariant() {
        let cells = 64;
        let lanes = 8;
        let run = |threaded: bool| -> Vec<f64> {
            let mut accum = TallyAccum::new(TallyStrategy::Replicated, cells, lanes);
            {
                let views = accum.lane_views();
                let work = |l: usize, view: &mut LaneSink<'_>| {
                    for i in 0..500 {
                        view.add((l * 11 + i * 3) % cells, 1.0e-3 * (1 + l + i) as f64);
                    }
                };
                if threaded {
                    std::thread::scope(|s| {
                        for (l, mut view) in views.into_iter().enumerate() {
                            s.spawn(move || work(l, &mut view));
                        }
                    });
                } else {
                    for (l, mut view) in views.into_iter().enumerate() {
                        work(l, &mut view);
                    }
                }
            }
            accum.merge()
        };
        let serial = run(false);
        let threaded = run(true);
        assert!(serial
            .iter()
            .zip(&threaded)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    /// The clone-recursive pairwise merge the blocked one replaced, kept
    /// as the oracle: leaf `l` is a copy of lane `l`, internal nodes add
    /// element-wise, split at `mid = lo + (hi - lo) / 2`.
    fn merge_lanes_reference(lanes: &[Vec<f64>]) -> Vec<f64> {
        fn node(lo: usize, hi: usize, lanes: &[Vec<f64>]) -> Vec<f64> {
            if hi - lo == 1 {
                return lanes[lo].clone();
            }
            let mid = lo + (hi - lo) / 2;
            let mut a = node(lo, mid, lanes);
            let b = node(mid, hi, lanes);
            for (x, y) in a.iter_mut().zip(&b) {
                *x += y;
            }
            a
        }
        node(0, lanes.len(), lanes)
    }

    /// Worker counts for the merge grid: {1, 2, 3, 7} plus whatever
    /// `NEUTRAL_TEST_THREADS` adds (the CI multi-thread job sets it).
    fn merge_worker_counts() -> Vec<usize> {
        let mut counts = vec![1, 2, 3, 7];
        if let Some(n) = std::env::var("NEUTRAL_TEST_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
        {
            if n > 0 && !counts.contains(&n) {
                counts.push(n);
            }
        }
        counts
    }

    /// [`merge_lanes_pairwise`] into a fresh mesh.
    fn merge_lanes<L: AsRef<[f64]>>(lanes: &[L], cells: usize, workers: usize) -> Vec<f64> {
        let mut out = vec![f64::NAN; cells];
        merge_lanes_pairwise(lanes, &mut out, workers);
        out
    }

    fn assert_same_bits(got: &[f64], expect: &[f64], what: &dyn std::fmt::Display) {
        assert_eq!(got.len(), expect.len(), "{what}");
        for (c, (a, e)) in got.iter().zip(expect).enumerate() {
            assert_eq!(a.to_bits(), e.to_bits(), "{what}, cell {c}");
        }
    }

    /// The cover of every `[a, b)` of every tree up to 40 lanes tiles the
    /// range in lane order with nodes of the global tree, and stays
    /// within 2⌈log₂ n⌉ of them.
    #[test]
    fn tree_cover_tiles_any_range_with_few_tree_nodes() {
        fn is_node(root: Range<usize>, lanes: &Range<usize>) -> bool {
            let mid = root.start + (root.end - root.start) / 2;
            root == *lanes
                || root.len() > 1
                    && (is_node(root.start..mid, lanes) || is_node(mid..root.end, lanes))
        }
        for n in 1usize..=40 {
            let most = 2 * n.next_power_of_two().ilog2() as usize;
            for a in 0..=n {
                for b in a..=n {
                    let cover = tree_cover(n, a..b);
                    let mut next = a;
                    for node in &cover {
                        assert_eq!(node.start, next, "{n} lanes, [{a}, {b}): {cover:?}");
                        assert!(is_node(0..n, node), "{n} lanes, [{a}, {b}): {node:?}");
                        next = node.end;
                    }
                    assert_eq!(next, b, "{n} lanes, [{a}, {b}): {cover:?}");
                    assert!(
                        cover.len() <= most.max(1),
                        "{n} lanes, [{a}, {b}): {cover:?}"
                    );
                }
            }
        }
        assert_eq!(tree_cover(32, 0..10), [0..8, 8..10]);
        assert_eq!(tree_cover(32, 10..21), [10..12, 12..16, 16..20, 20..21]);
        assert_eq!(tree_cover(32, 16..32).len(), 1);
        assert!(tree_cover(0, 0..0).is_empty());
    }

    /// The blocked in-place merge is the recursive tree, bit for bit,
    /// across lane counts around the power-of-two edges, cell counts
    /// around the block edges, and any worker count — on data where a
    /// reshaped tree or a dropped `+ 0.0` would show: mixed signs and
    /// magnitudes, `-0.0`, subnormals, and lanes that are mostly or all
    /// zero. And *merge over cover nodes ≡ merge over lanes*: cut the
    /// lanes into shards the way `ShardPlan` does (1 … more shards than
    /// lanes), reduce each shard's lanes to its cover nodes with leaves
    /// renumbered from zero, and the merge over those nodes is the same
    /// bits again.
    #[test]
    fn blocked_merge_matches_recursive_reference() {
        let value = |lane: usize, cell: usize| -> f64 {
            let h = (lane as u64 + 1)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((cell as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
            let h = (h ^ (h >> 29)).wrapping_mul(0x94d0_49bb_1331_11eb);
            if lane % 7 == 4 {
                return 0.0;
            }
            let sparse = lane % 3 == 2;
            match (h >> 60, sparse) {
                (0..=11, true) => 0.0,
                (0 | 12, _) => -0.0,
                (1 | 13, _) => f64::from_bits(h & 0xf_ffff), // subnormal
                (2, _) => -f64::MIN_POSITIVE / 4.0,
                (k, _) => (h >> 11) as f64 * 2f64.powi(k as i32 * 7 - 100) * (1.0 - (h & 2) as f64),
            }
        };
        let b = MERGE_BLOCK;
        for n_lanes in [1usize, 2, 3, 5, 31, 32, 33] {
            for cells in [1, b - 1, b, b + 1, 3 * b + 7] {
                let lanes: Vec<Vec<f64>> = (0..n_lanes)
                    .map(|l| (0..cells).map(|c| value(l, c)).collect())
                    .collect();
                let expect = merge_lanes_reference(&lanes);
                for workers in merge_worker_counts() {
                    let at = format!("{n_lanes} lanes, {cells} cells, {workers} workers");
                    assert_same_bits(&merge_lanes(&lanes, cells, workers), &expect, &at);
                    for n_shards in [1usize, 2, 3, 5, 7, 32, 40] {
                        let nodes: Vec<(Range<usize>, Vec<f64>)> = (0..n_shards)
                            .flat_map(|s| {
                                let owned =
                                    (s * n_lanes / n_shards)..((s + 1) * n_lanes / n_shards);
                                tree_cover(n_lanes, owned)
                            })
                            .map(|node| {
                                let mesh = merge_lanes(&lanes[node.clone()], cells, workers);
                                (node, mesh)
                            })
                            .collect();
                        let mut got = vec![f64::NAN; cells];
                        merge_nodes_pairwise(&nodes, &mut got, workers);
                        assert_same_bits(&got, &expect, &format!("{at}, {n_shards} shards"));
                    }
                }
            }
        }
        assert_eq!(merge_lanes::<Vec<f64>>(&[], 3, 2), vec![0.0; 3]);
    }

    /// Inputs that are not a tiling of the tree — a gap, an overlap, a
    /// range that is no node — would silently sum a different tree, so
    /// the merge refuses them.
    #[test]
    fn merge_refuses_inputs_that_do_not_tile_the_tree() {
        let mesh = [1.0, 2.0];
        for ranges in [
            vec![0..2, 3..4],       // gap
            vec![0..2, 1..4],       // overlap
            vec![0..3, 3..4],       // 0..3 is no node of the tree over 4
            vec![1..2, 2..4],       // does not start at lane 0
            vec![0..1, 1..1, 1..2], // empty node
        ] {
            let nodes: Vec<_> = ranges.iter().cloned().map(|r| (r, mesh)).collect();
            let refused = std::panic::catch_unwind(|| {
                merge_nodes_pairwise(&nodes, &mut [0.0; 2], 1);
            });
            assert!(refused.is_err(), "{ranges:?} merged");
        }
    }

    /// Re-merging the consumed lane partials through the exported
    /// pairwise tree must reproduce `merge()` bitwise — the contract
    /// the sharded executor's cross-shard reduction stands on.
    #[test]
    fn lane_partials_remerge_bitwise() {
        let cells = 37;
        let lanes = 5;
        let mut accum = TallyAccum::new(TallyStrategy::Replicated, cells, lanes);
        {
            let mut views = accum.lane_views();
            for (l, view) in views.iter_mut().enumerate() {
                for i in 0..200 {
                    let cell = (l * 17 + i * 13) % cells;
                    view.add(cell, 0.1 + ((l * 31 + i * 7) % 100) as f64 * 1.7e-3);
                }
            }
        }
        let merged = accum.merge_with(2);
        assert_eq!(merged, accum.merge());
        let partials = accum.into_lane_partials();
        let remerged = merge_lanes(&partials, cells, 1);
        assert_eq!(remerged, merge_lanes_reference(&partials));
        for (c, (a, b)) in merged.iter().zip(&remerged).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "cell {c}");
        }
    }

    #[test]
    fn footprints_rank_as_documented() {
        let cells = 10_000;
        let lanes = 16;
        let atomic = TallyAccum::new(TallyStrategy::Atomic, cells, lanes).footprint_bytes();
        let replicated = TallyAccum::new(TallyStrategy::Replicated, cells, lanes).footprint_bytes();
        assert_eq!(replicated, lanes * atomic);
    }

    /// `claim()` is the one zeroing rule: it wipes a dirtied dense lane
    /// and nothing else — the shared mesh holds other lanes' deposits
    /// that a claim must not lose.
    #[test]
    fn claim_zeroes_a_dirtied_dense_lane_only() {
        for strategy in TallyStrategy::ALL {
            let mut accum = TallyAccum::new(strategy, 16, 3);
            {
                let mut views = accum.lane_views();
                for v in views.iter_mut() {
                    v.add(5, 1.0);
                    v.add(15, 2.0);
                }
                for v in views.iter_mut() {
                    v.claim();
                }
            }
            let merged = accum.merge();
            if strategy == TallyStrategy::Replicated {
                assert!(merged.iter().all(|v| v.to_bits() == 0), "dense lanes wiped");
            } else {
                assert_eq!((merged[5], merged[15]), (3.0, 6.0), "{strategy:?} kept");
            }
        }
    }
}
