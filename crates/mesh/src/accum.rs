//! The two tally-accumulation backends and the deterministic merge.
//!
//! The paper's central on-node finding is that *how* the energy-deposition
//! tally is accumulated — shared atomics versus thread-private replication
//! (§VI-F, Figures 3/7/8) — decides thread scaling. This module makes that
//! choice a runtime [`TallyStrategy`] with two values: every transport
//! driver deposits through a [`LaneSink`] checked out from a
//! [`TallyAccum`], which is either the paper's one shared atomic mesh or
//! one private dense mesh per open lane, folded deterministically.
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
//! are bitwise well-defined, and the accumulator combines them with a
//! fixed pairwise (binary-tree) summation in lane order. The result:
//!
//! > For the `Replicated` backend, the merged tally is **bitwise
//! > identical** for any worker count and any schedule — the lane count
//! > never depends on the worker count, and workers beyond it simply find
//! > no lane to take.
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
//! An accumulator lives for one timestep. Under `replicated` it is a
//! [`LaneFold`]: the pairwise tree over its lanes and a pool of dense
//! meshes that the thread building the accumulator preallocates. A worker
//! *opens* a lane ([`TallyAccum::open`]) and gets a pooled mesh,
//! zero-filled with plain stores on that worker; the lane's [`LaneSink`]
//! deposits into it; dropping the sink *closes* the lane. Closing parks
//! the mesh at the lane's tree leaf — or, when the leaf's sibling is
//! already parked, adds the two (the `x + y` of [`merge_nodes_pairwise`]),
//! returns the consumed mesh to the pool and repeats one level up. The
//! fold stops at the [`tree_cover`] nodes of the accumulator's lanes: the
//! root for a whole step ([`TallyAccum::merge`]), the wire nodes for a
//! shard attempt ([`TallyAccum::into_nodes`]). A step therefore holds
//! about `⌈log₂ lanes⌉ + workers` meshes instead of one per lane.
//!
//! # One merge, over tree nodes
//!
//! The tree over lanes `[lo, hi)` splits at `lo + (hi - lo) / 2`, so the
//! shape of a subtree depends only on how many lanes it spans. Whoever
//! holds the lanes of one node can therefore reduce that subtree alone,
//! numbering its leaves from zero, and land on the bits the whole merge
//! computes for that node — which is why the fold may add siblings in
//! whatever order their lanes finish. [`merge_nodes_pairwise`] takes such
//! nodes — `(lane range, reduced mesh)` — and finishes the tree above
//! them: the shard coordinator runs it over the nodes the attempts ship
//! (DESIGN.md §11, §18).

use crate::tally::AtomicTally;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard};

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
    /// One private dense mesh per open lane, folded up the pairwise tree
    /// in lane order as lanes close — the paper's privatisation (§VI-F)
    /// keyed on lanes instead of threads so the merge is deterministic.
    /// Footprint is the meshes open or parked at once: about
    /// `⌈log₂ lanes⌉ + workers` of them. The default: the configuration
    /// every served, sharded and checkpointed solve runs.
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

/// A worker-side deposit handle for one open lane, from
/// [`TallyAccum::open`] or [`TallyAccum::lane_views`]; the caller must
/// drive each sink from one worker at a time (the lane-granular
/// schedulers guarantee this).
#[derive(Debug)]
pub enum LaneSink<'a> {
    /// All lanes alias one shared atomic mesh (contended CAS adds).
    Shared(&'a AtomicTally),
    /// A lane of a [`LaneFold`] and its private dense mesh.
    Dense(OpenLane<'a>),
}

impl LaneSink<'_> {
    /// Add `value` to `cell` through this lane's backend mechanism.
    #[inline]
    pub fn add(&mut self, cell: usize, value: f64) {
        match self {
            LaneSink::Shared(mesh) => mesh.add(cell, value),
            LaneSink::Dense(lane) => lane.mesh[cell] += value,
        }
    }
}

/// An open lane of a [`LaneFold`]: the lane's private mesh, all `+0.0`
/// when opened. Dropping it closes the lane, which folds the mesh up the
/// tree on the dropping thread.
#[derive(Debug)]
pub struct OpenLane<'a> {
    fold: &'a LaneFold,
    lane: usize,
    mesh: Vec<f64>,
}

impl Drop for OpenLane<'_> {
    fn drop(&mut self) {
        // A lane dropped while its worker unwinds a panic closes nothing:
        // the step is lost anyway, and a second panic here would abort.
        if !std::thread::panicking() {
            self.fold.close(self.lane, std::mem::take(&mut self.mesh));
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
/// tree every deterministic reduction computes. Conceptually: leaf `l` is
/// lane `l`'s partial, internal nodes add element-wise, and a node over
/// lanes `[lo, hi)` splits at `mid = lo + (hi - lo) / 2`. Each input is a
/// node of that tree, `(lanes, mesh)` with `mesh` the already-reduced
/// subtree over `lanes` (a [`LaneFold`]'s output), and the inputs tile
/// `[0, n_lanes)` in lane order; the function finishes the tree above
/// them. A subtree's shape depends only on `hi - lo`, so a node reduced
/// elsewhere — from leaves numbered `0..hi - lo` — holds the bits this
/// function would have computed for it: the result is a pure function of
/// the lane partials, whoever pre-reduced what, and `workers` changes who
/// computes a cell, never how.
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

/// The `replicated` backend: the pairwise tree over a contiguous run of
/// lanes, folded as the lanes close (see "Lane lifecycle" in the module
/// docs).
///
/// A lane is *opened* once, on the worker that deposits into it, and gets
/// a mesh from the pool, zero-filled there with plain stores: written
/// first, a fresh page takes one write fault instead of a read fault on
/// the shared zero page and then a copy-on-write fault that shoots it out
/// of every other worker's TLB. *Closing* the lane parks its mesh at its
/// leaf, or — when the sibling node is already parked — adds the two into
/// the left one, hands the right one back to the pool and repeats one
/// level up, stopping at the nodes of [`tree_cover`]`(n_lanes, lanes)`.
/// Whoever closes second does the add, and the add is the tree's
/// `x + y`, so the bits do not depend on the completion order. A lane
/// that is never opened is opened and closed when the fold is taken
/// apart, so it folds as an all-`+0.0` mesh, as the tree says it must.
///
/// The pool starts at `min(lanes, workers + ⌈log₂ lanes⌉ + 1)` meshes,
/// allocated by the thread that builds the fold — a thread that outlives
/// the step's workers (DESIGN.md §11) — and grows only if it runs dry.
/// Closed in lane order, the lanes hold at most `⌈log₂ lanes⌉ + 1` meshes
/// at once: the open lane and one parked node per level above it.
#[derive(Debug)]
pub struct LaneFold {
    cells: usize,
    /// Lanes of the whole tree.
    n_lanes: usize,
    /// The lanes this fold owns.
    lanes: Range<usize>,
    /// The subtrees under the cover nodes of `lanes`, each in pre-order
    /// (a left child precedes its right sibling), covers in lane order.
    tree: Vec<TreeNode>,
    /// `tree` index of each owned lane's leaf.
    leaf: Vec<usize>,
    state: Mutex<FoldState>,
}

#[derive(Debug)]
struct TreeNode {
    lanes: Range<usize>,
    /// Parent and sibling in `tree`; `None` at a cover node, where the
    /// fold stops.
    up: Option<(usize, usize)>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LaneState {
    Unopened,
    Open,
    Closed,
}

#[derive(Debug)]
struct FoldState {
    /// Per owned lane.
    lanes: Vec<LaneState>,
    /// Per `tree` node: its reduced mesh, parked until its sibling
    /// finishes or, at a cover node, until the fold is taken apart.
    parked: Vec<Option<Vec<f64>>>,
    /// Meshes out of use; recycled ones hold stale values.
    pool: Vec<Vec<f64>>,
    /// Meshes open or parked now, and the most there ever were.
    live: usize,
    high_water: usize,
}

impl LaneFold {
    fn new(cells: usize, n_lanes: usize, lanes: Range<usize>, workers: usize) -> Self {
        let mut tree = Vec::new();
        let mut leaf = vec![0; lanes.len()];
        for cover in tree_cover(n_lanes, lanes.clone()) {
            grow(&mut tree, &mut leaf, lanes.start, cover);
        }
        let depth = lanes.len().next_power_of_two().trailing_zeros() as usize;
        let pool = (0..lanes.len().min(workers + depth + 1))
            .map(|_| vec![0.0; cells])
            .collect();
        let state = FoldState {
            lanes: vec![LaneState::Unopened; lanes.len()],
            parked: tree.iter().map(|_| None).collect(),
            pool,
            live: 0,
            high_water: 0,
        };
        Self {
            cells,
            n_lanes,
            lanes,
            tree,
            leaf,
            state: Mutex::new(state),
        }
    }

    fn lock(&self) -> MutexGuard<'_, FoldState> {
        self.state.lock().expect("lane fold state poisoned")
    }

    /// Move `lane` from `from` to `to`, or panic naming the misuse.
    fn advance(&self, lane: usize, from: LaneState, to: LaneState) {
        assert!(
            self.lanes.contains(&lane),
            "lane {lane} is outside this accumulator's lanes {:?}",
            self.lanes
        );
        let mut st = self.lock();
        let state = &mut st.lanes[lane - self.lanes.start];
        assert!(
            *state == from,
            "lane {lane} is {state:?}, expected {from:?}"
        );
        *state = to;
    }

    /// Open `lane`: a pooled mesh, zero-filled on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not one of the fold's lanes or was opened
    /// before.
    fn open(&self, lane: usize) -> Vec<f64> {
        self.advance(lane, LaneState::Unopened, LaneState::Open);
        let pooled = {
            let mut st = self.lock();
            st.live += 1;
            st.high_water = st.high_water.max(st.live);
            st.pool.pop()
        };
        let mut mesh = pooled.unwrap_or_else(|| vec![0.0; self.cells]);
        mesh.fill(0.0);
        mesh
    }

    /// Close `lane` with its partial `mesh` and fold it as far up the
    /// tree as its finished siblings allow.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not one of the fold's open lanes, or `mesh`
    /// does not hold one value per cell.
    fn close(&self, lane: usize, mesh: Vec<f64>) {
        assert_eq!(mesh.len(), self.cells, "lane {lane}'s mesh");
        self.advance(lane, LaneState::Open, LaneState::Closed);
        self.fold_up(self.leaf[lane - self.lanes.start], mesh);
    }

    /// Park `mesh` as the reduced subtree `node`, or — if its sibling is
    /// parked already — add the two into the left one, pool the right one
    /// and carry on at the parent.
    fn fold_up(&self, mut node: usize, mut mesh: Vec<f64>) {
        loop {
            let mut st = self.lock();
            let Some((parent, sibling)) = self.tree[node].up else {
                st.parked[node] = Some(mesh);
                return;
            };
            let Some(parked) = st.parked[sibling].take() else {
                st.parked[node] = Some(mesh);
                return;
            };
            drop(st);
            let (mut left, right) = if node < sibling {
                (mesh, parked)
            } else {
                (parked, mesh)
            };
            for (x, y) in left.iter_mut().zip(&right) {
                *x += y;
            }
            {
                let mut st = self.lock();
                st.live -= 1;
                st.pool.push(right);
            }
            (node, mesh) = (parent, left);
        }
    }

    /// Fold every never-opened lane as an all-`+0.0` mesh and hand out
    /// the cover nodes of the fold's lanes, in lane order.
    ///
    /// # Panics
    ///
    /// Panics if a lane is still open.
    fn into_nodes(self) -> Vec<(Range<usize>, Vec<f64>)> {
        for lane in self.lanes.clone() {
            let state = self.lock().lanes[lane - self.lanes.start];
            assert!(state != LaneState::Open, "lane {lane} is still open");
            if state == LaneState::Unopened {
                self.close(lane, self.open(lane));
            }
        }
        let mut st = self.state.into_inner().expect("lane fold state poisoned");
        self.tree
            .iter()
            .enumerate()
            .filter(|(_, node)| node.up.is_none())
            .map(|(at, node)| {
                let mesh = st.parked[at].take().expect("every lane closed");
                (node.lanes.clone(), mesh)
            })
            .collect()
    }

    /// Bytes of the most meshes that were open or parked at once.
    fn footprint_bytes(&self) -> usize {
        self.lock().high_water * self.cells * std::mem::size_of::<f64>()
    }
}

/// Append the subtree over `lanes` to `tree` in pre-order, recording its
/// leaves in `leaf` (indexed from `first_lane`); returns its root.
fn grow(
    tree: &mut Vec<TreeNode>,
    leaf: &mut [usize],
    first_lane: usize,
    lanes: Range<usize>,
) -> usize {
    let at = tree.len();
    tree.push(TreeNode {
        lanes: lanes.clone(),
        up: None,
    });
    if lanes.len() == 1 {
        leaf[lanes.start - first_lane] = at;
    } else {
        let mid = lanes.start + lanes.len() / 2;
        let left = grow(tree, leaf, first_lane, lanes.start..mid);
        let right = grow(tree, leaf, first_lane, mid..lanes.end);
        tree[left].up = Some((at, right));
        tree[right].up = Some((at, left));
    }
    at
}

/// The accumulator behind a [`TallyStrategy`]: lane-indexed deposit
/// sinks during the solve, the reduced mesh afterwards.
///
/// Contract (enforced by the golden/equivalence/property suites):
///
/// * [`open`](TallyAccum::open) hands out one sink per lane of
///   [`lanes`](TallyAccum::lanes), and sinks of distinct lanes may be
///   driven — and dropped — concurrently;
/// * under `Replicated` the lane partials are folded with the pairwise
///   tree in lane order, so [`merge`](TallyAccum::merge) and
///   [`into_nodes`](TallyAccum::into_nodes) depend only on the per-lane
///   deposit sequences — never on which worker closed which lane when.
#[derive(Debug)]
pub enum TallyAccum {
    /// The paper's shared-atomic backend: one mesh, every lane view
    /// aliases it, deposits are CAS read-modify-writes.
    Atomic {
        /// The shared mesh.
        mesh: AtomicTally,
        /// The lanes whose views alias it.
        lanes: Range<usize>,
    },
    /// Private dense meshes, folded as their lanes close.
    Replicated(LaneFold),
}

impl TallyAccum {
    /// Build the backend for `strategy` over a `cells`-cell mesh with
    /// `n_lanes` (at least one) accumulation lanes, for one worker.
    #[must_use]
    pub fn new(strategy: TallyStrategy, cells: usize, n_lanes: usize) -> Self {
        let n_lanes = n_lanes.max(1);
        Self::for_lanes(strategy, cells, n_lanes, 0..n_lanes, 1)
    }

    /// Build the backend for `strategy` over the lanes `lanes` of the
    /// `n_lanes`-lane tree — all of them for a whole step, a shard's run
    /// of them for a shard attempt — with a mesh pool sized for `workers`
    /// concurrent workers. Allocated on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` reaches past `n_lanes`.
    #[must_use]
    pub fn for_lanes(
        strategy: TallyStrategy,
        cells: usize,
        n_lanes: usize,
        lanes: Range<usize>,
        workers: usize,
    ) -> Self {
        assert!(lanes.end <= n_lanes, "lanes {lanes:?} of {n_lanes}");
        match strategy {
            TallyStrategy::Atomic => TallyAccum::Atomic {
                mesh: AtomicTally::new(cells),
                lanes,
            },
            TallyStrategy::Replicated => {
                TallyAccum::Replicated(LaneFold::new(cells, n_lanes, lanes, workers))
            }
        }
    }

    /// The lanes this accumulator takes deposits for (global indices).
    #[must_use]
    pub fn lanes(&self) -> Range<usize> {
        match self {
            TallyAccum::Atomic { lanes, .. } => lanes.clone(),
            TallyAccum::Replicated(fold) => fold.lanes.clone(),
        }
    }

    /// Number of accumulation lanes.
    #[must_use]
    pub fn n_lanes(&self) -> usize {
        self.lanes().len()
    }

    /// Open `lane` for deposits on the calling worker: a zeroed private
    /// mesh that folds into the tree when the sink drops, or a view of
    /// the shared mesh.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not one of [`lanes`](TallyAccum::lanes), or
    /// (`Replicated`) was opened before.
    pub fn open(&self, lane: usize) -> LaneSink<'_> {
        match self {
            TallyAccum::Atomic { mesh, lanes } => {
                assert!(lanes.contains(&lane), "lane {lane} is outside {lanes:?}");
                LaneSink::Shared(mesh)
            }
            TallyAccum::Replicated(fold) => LaneSink::Dense(OpenLane {
                fold,
                lane,
                mesh: fold.open(lane),
            }),
        }
    }

    /// [`open`](TallyAccum::open) every lane at once, in lane order.
    pub fn lane_views(&mut self) -> Vec<LaneSink<'_>> {
        let this = &*self;
        this.lanes().map(|lane| this.open(lane)).collect()
    }

    /// The merged mesh: a snapshot of the shared mesh, or the root of the
    /// fold — every lane never opened counted as `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if a lane is still open, or (`Replicated`) the accumulator
    /// owns only part of the tree: that one ships
    /// [`into_nodes`](TallyAccum::into_nodes) instead.
    #[must_use]
    pub fn merge(self) -> Vec<f64> {
        match self {
            TallyAccum::Atomic { mesh, .. } => mesh.snapshot(),
            TallyAccum::Replicated(fold) => {
                let whole = 0..fold.n_lanes;
                match <[_; 1]>::try_from(fold.into_nodes()) {
                    Ok([(lanes, root)]) if lanes == whole => root,
                    _ => panic!("only an accumulator over the whole tree merges to one mesh"),
                }
            }
        }
    }

    /// The reduced [`tree_cover`] nodes of the accumulator's lanes, in
    /// lane order — what a shard attempt ships, and what
    /// [`merge_nodes_pairwise`] finishes the tree from.
    ///
    /// # Panics
    ///
    /// Panics for the `Atomic` backend, whose shared mesh has no
    /// well-defined per-lane decomposition, or if a lane is still open.
    #[must_use]
    pub fn into_nodes(self) -> Vec<(Range<usize>, Vec<f64>)> {
        match self {
            TallyAccum::Atomic { .. } => {
                panic!("tree nodes are only defined for the deterministic tally strategy")
            }
            TallyAccum::Replicated(fold) => fold.into_nodes(),
        }
    }

    /// Resident bytes of the accumulation state: the shared mesh, or the
    /// high-water of meshes open or parked at once so far.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        match self {
            TallyAccum::Atomic { mesh, .. } => mesh.footprint_bytes(),
            TallyAccum::Replicated(fold) => fold.footprint_bytes(),
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

    /// [`merge_nodes_pairwise`] over per-lane partials (leaf `l` is
    /// `lanes[l]`) into a fresh mesh.
    fn merge_lanes(lanes: &[Vec<f64>], cells: usize, workers: usize) -> Vec<f64> {
        let leaves: Vec<(Range<usize>, &[f64])> = lanes
            .iter()
            .enumerate()
            .map(|(l, lane)| (l..l + 1, lane.as_slice()))
            .collect();
        let mut out = vec![f64::NAN; cells];
        merge_nodes_pairwise(&leaves, &mut out, workers);
        out
    }

    /// Lane `lane`'s partial at `cell` in the merge and fold tests: data
    /// where a reshaped tree or a dropped `+ 0.0` would show — mixed signs
    /// and magnitudes, `-0.0`, subnormals, and lanes that are mostly or
    /// all zero.
    fn lane_value(lane: usize, cell: usize) -> f64 {
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
    }

    fn lane_partials(n_lanes: usize, cells: usize) -> Vec<Vec<f64>> {
        (0..n_lanes)
            .map(|l| (0..cells).map(|c| lane_value(l, c)).collect())
            .collect()
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
    /// around the block edges, and any worker count — on [`lane_value`]'s
    /// data. And *merge over cover nodes ≡ merge over lanes*: cut the
    /// lanes into shards the way `ShardPlan` does (1 … more shards than
    /// lanes), reduce each shard's lanes to its cover nodes with leaves
    /// renumbered from zero, and the merge over those nodes is the same
    /// bits again.
    #[test]
    fn blocked_merge_matches_recursive_reference() {
        let b = MERGE_BLOCK;
        for n_lanes in [1usize, 2, 3, 5, 31, 32, 33] {
            for cells in [1, b - 1, b, b + 1, 3 * b + 7] {
                let lanes = lane_partials(n_lanes, cells);
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
        assert_eq!(merge_lanes(&[], 3, 2), vec![0.0; 3]);
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

    /// splitmix64: the tests' seeded shuffles.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (*state ^ (*state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffled(lanes: &[usize], seed: u64) -> Vec<usize> {
        let mut out = lanes.to_vec();
        let mut state = seed;
        for i in (1..out.len()).rev() {
            out.swap(i, splitmix(&mut state) as usize % (i + 1));
        }
        out
    }

    /// Open, fill with its partial and close every lane of `order` on
    /// `threads` threads that take the lanes in that order from a shared
    /// counter — the dynamic lane dispatch of `parallel_for_owned`, so the
    /// lanes finish in whatever order the threads reach them.
    fn close_lanes(fold: &LaneFold, lanes: &[Vec<f64>], order: &[usize], threads: usize) {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let work = || {
            while let Some(&lane) =
                order.get(next.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
            {
                let mut mesh = fold.open(lane);
                mesh.copy_from_slice(&lanes[lane]);
                fold.close(lane, mesh);
            }
        };
        std::thread::scope(|s| {
            for _ in 1..threads {
                s.spawn(work);
            }
            work();
        });
    }

    /// The fold is the tree, bit for bit, in any completion order: lanes
    /// closed in order, in reverse and in seeded shuffles, on one thread
    /// and racing on {2, 3, 7}; and over sub-ranges cut the way
    /// `ShardPlan` cuts them (1 … more shards than lanes). Every output is
    /// exactly the range's `tree_cover`, every node is
    /// `merge_lanes_reference` over its lanes, and the shards' nodes
    /// finish to the whole tree's bits. One lane is never opened — an
    /// all-`+0.0` lane to the reference — beside a lane of `-0.0`s, so the
    /// `x + 0.0` it folds as must reach the output.
    #[test]
    fn fold_is_the_tree_in_any_completion_order() {
        let cells = 97;
        for n_lanes in [1usize, 2, 3, 5, 31, 32, 33] {
            let unopened = n_lanes / 2;
            let mut lanes = lane_partials(n_lanes, cells);
            lanes[unopened].fill(0.0);
            if let Some(negative) = lanes.get_mut(unopened ^ 1) {
                negative.fill(-0.0);
            }
            let closed: Vec<usize> = (0..n_lanes).filter(|&l| l != unopened).collect();
            let check = |fold: LaneFold, owned: Range<usize>, what: &str| {
                let nodes = fold.into_nodes();
                let ranges: Vec<Range<usize>> = nodes.iter().map(|(r, _)| r.clone()).collect();
                assert_eq!(ranges, tree_cover(n_lanes, owned), "{what}");
                for (node, mesh) in &nodes {
                    let expect = merge_lanes_reference(&lanes[node.clone()]);
                    assert_same_bits(mesh, &expect, &format!("{what}, node {node:?}"));
                }
                nodes
            };

            let mut orders = vec![
                ("in order", closed.clone()),
                ("reversed", closed.iter().rev().copied().collect()),
            ];
            orders.extend((1..=3).map(|seed| ("shuffled", shuffled(&closed, seed))));
            for (name, order) in &orders {
                for threads in [1, 2, 3, 7] {
                    let fold = LaneFold::new(cells, n_lanes, 0..n_lanes, threads);
                    close_lanes(&fold, &lanes, order, threads);
                    check(
                        fold,
                        0..n_lanes,
                        &format!("{n_lanes} lanes {name} on {threads}"),
                    );
                }
            }

            let whole = merge_lanes_reference(&lanes);
            for n_shards in [1usize, 2, 3, 5, 7, 32, 40] {
                let mut nodes = Vec::new();
                for s in 0..n_shards {
                    let owned = (s * n_lanes / n_shards)..((s + 1) * n_lanes / n_shards);
                    if owned.is_empty() {
                        continue;
                    }
                    let fold = LaneFold::new(cells, n_lanes, owned.clone(), 2);
                    let mine: Vec<usize> = owned.clone().filter(|&l| l != unopened).collect();
                    close_lanes(&fold, &lanes, &shuffled(&mine, s as u64), 2);
                    let what = format!("{n_lanes} lanes, shard {s} of {n_shards}");
                    nodes.extend(check(fold, owned, &what));
                }
                let mut merged = vec![f64::NAN; cells];
                merge_nodes_pairwise(&nodes, &mut merged, 1);
                let what = format!("{n_lanes} lanes over {n_shards} shards");
                assert_same_bits(&merged, &whole, &what);
            }
        }
    }

    /// A lane is opened once and closed once, and only by the fold that
    /// owns it: anything else would fold a lane twice or into the wrong
    /// tree, so it panics — as does taking the result apart while a lane
    /// is still open.
    #[test]
    fn fold_refuses_a_second_close_and_lanes_it_does_not_own() {
        let refused = |what: &str, misuse: &dyn Fn(&LaneFold)| {
            let fold = LaneFold::new(4, 8, 2..6, 1);
            let mesh = fold.open(3);
            fold.close(3, mesh);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| misuse(&fold)));
            assert!(caught.is_err(), "{what} was accepted");
        };
        refused("a second close", &|fold| fold.close(3, vec![0.0; 4]));
        refused("a close of a lane never opened", &|fold| {
            fold.close(4, vec![0.0; 4])
        });
        refused("a close outside the range", &|fold| {
            fold.close(1, vec![0.0; 4])
        });
        refused("a second open", &|fold| drop(fold.open(3)));
        refused("an open outside the range", &|fold| drop(fold.open(6)));

        let accum = TallyAccum::new(TallyStrategy::Replicated, 4, 2);
        std::mem::forget(accum.open(1));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| accum.merge()));
        assert!(
            caught.is_err(),
            "a merge with lane 1 still open was accepted"
        );
    }

    /// `open` is the one zeroing rule: a mesh the fold took back into its
    /// pool still holds what it was added from, and the next lane opened
    /// on it starts from `+0.0` all the same.
    #[test]
    fn open_hands_out_zeros_after_a_dirty_close() {
        let fold = LaneFold::new(16, 4, 0..4, 1);
        for lane in [0, 1] {
            let mut mesh = fold.open(lane);
            mesh.fill(-1.5);
            fold.close(lane, mesh);
        }
        // Lanes 0 and 1 are siblings: closing 1 added its mesh into 0's
        // and pooled it, dirty.
        let (recycled, stale) = {
            let st = fold.lock();
            let mesh = st.pool.last().expect("a recycled mesh");
            (mesh.as_ptr(), mesh[0])
        };
        assert_eq!(stale, -1.5);
        let mesh = fold.open(2);
        assert_eq!(
            mesh.as_ptr(),
            recycled,
            "the recycled mesh comes back first"
        );
        assert!(mesh.iter().all(|v| v.to_bits() == 0), "opened as +0.0");
        fold.close(2, mesh);
        let mut root = fold.into_nodes();
        assert_eq!(root.len(), 1);
        assert!(root.pop().unwrap().1.iter().all(|&v| v == -3.0));
    }

    /// What `footprint_bytes` reports: the shared mesh under `atomic`;
    /// under `replicated` the most meshes open or parked at once — which
    /// lanes opened and closed one at a time, in order, hold to exactly
    /// `⌈log₂ lanes⌉ + 1` (6 of 32), and every lane open at once
    /// (`lane_views`) to one mesh per lane.
    #[test]
    fn footprints_rank_as_documented() {
        let cells = 100;
        let mesh = cells * std::mem::size_of::<f64>();
        let atomic = TallyAccum::new(TallyStrategy::Atomic, cells, 16);
        assert_eq!(atomic.footprint_bytes(), mesh);
        for n_lanes in 1usize..=40 {
            let accum = TallyAccum::new(TallyStrategy::Replicated, cells, n_lanes);
            assert_eq!(accum.footprint_bytes(), 0, "{n_lanes} lanes, none open");
            for lane in accum.lanes() {
                drop(accum.open(lane));
            }
            let depth = n_lanes.next_power_of_two().ilog2() as usize;
            assert_eq!(
                accum.footprint_bytes(),
                (depth + 1) * mesh,
                "{n_lanes} lanes"
            );
        }
        let mut all_open = TallyAccum::new(TallyStrategy::Replicated, cells, 32);
        drop(all_open.lane_views());
        assert_eq!(all_open.footprint_bytes(), 32 * mesh);
    }
}
