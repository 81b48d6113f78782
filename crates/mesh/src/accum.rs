//! The tally accumulator and the deterministic merge.
//!
//! The paper's central on-node finding is that *how* the energy-deposition
//! tally is accumulated — shared atomics versus thread-private replication
//! (§VI-F, Figures 3/7/8) — decides thread scaling. The solve path has one
//! answer: every transport driver deposits through a [`LaneSink`] checked
//! out from a [`TallyAccum`], one private dense mesh per open lane, folded
//! deterministically. The paper's shared atomic mesh
//! ([`crate::tally::AtomicTally`]) is a figure baseline only: its adds
//! commit in arrival order, so its bits depend on the worker count
//! (DESIGN.md §11).
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
//! > The merged tally is **bitwise identical** for any worker count and
//! > any schedule — the lane count never depends on the worker count, and
//! > workers beyond it simply find no lane to take.
//!
//! # Lane lifecycle
//!
//! An accumulator lives for one timestep: the pairwise tree over its
//! lanes and a pool of dense meshes that the thread building it
//! preallocates. A worker *opens* a lane ([`TallyAccum::open`]) and gets
//! a pooled mesh; the lane's [`LaneSink`] deposits into it; dropping the sink *closes* the
//! lane. Closing parks the mesh at the lane's tree leaf — or, when the
//! leaf's sibling is already parked, adds the two (the `x + y` of
//! [`merge_nodes_pairwise`]), returns the consumed mesh to the pool and
//! repeats one level up. The fold stops at the [`tree_cover`] nodes of
//! the accumulator's lanes: the root for a whole step
//! ([`TallyAccum::merge`]), the wire nodes for a shard attempt
//! ([`TallyAccum::into_nodes`]). A step therefore holds about
//! `⌈log₂ lanes⌉ + workers` meshes instead of one per lane.
//!
//! A lane pays only for the `MERGE_BLOCK`-cell blocks it deposits into.
//! Each mesh knows which of its blocks are *live* (hold the lane's or
//! node's values) and which are *stale* (left by an earlier user of the
//! pooled mesh); every other block is all `+0.0`. A block is zero-filled,
//! with plain stores, on the lane's first deposit into it; the fold adds
//! a block live on both sides, copies one live only on the right and
//! skips the rest; and a node is handed out with its stale blocks zeroed.
//! No cell ever holds `-0.0` — it starts at `+0.0` and only receives
//! `+=`, and under round-to-nearest `+0.0 + -0.0` and `x + -x` are both
//! `+0.0` — so the skipped `x + 0.0` and the copied `0.0 + y` are `x` and
//! `y` bit for bit: the result is the dense tree's (DESIGN.md §11).
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

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Default lane count: the concurrency ceiling of the lane-decomposed
/// drivers (a lane is processed by one worker) and the leaf count of the
/// merge tree. Deliberately a fixed constant — deriving it from the
/// worker count would make the merge order, and so the merged bits,
/// depend on how many threads ran.
pub const DEFAULT_LANES: usize = 32;

/// The tally a run accumulates into. One value is left: the name stays
/// because parameter files, POST bodies and [`TallyAccum::new`]'s callers
/// still spell it, and `atomic` and `privatized` fail by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TallyStrategy {
    /// One private dense mesh per open lane, folded up the pairwise tree
    /// in lane order as lanes close — the paper's privatisation (§VI-F)
    /// keyed on lanes instead of threads so the merge is deterministic.
    /// Footprint is the blocks deposited into in the meshes open or parked
    /// at once — about `⌈log₂ lanes⌉ + workers` meshes' worth when every
    /// lane touches every block.
    #[default]
    Replicated,
}

impl TallyStrategy {
    /// Stable lower-case name (used by parameter files, CLI output and
    /// figure output).
    #[must_use]
    pub fn name(self) -> &'static str {
        "replicated"
    }
}

impl std::str::FromStr for TallyStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // Every front door (params file, POST body) parses through here,
        // so each removed value fails with one message.
        match s {
            "replicated" => Ok(TallyStrategy::Replicated),
            "atomic" => Err(
                "tally strategy `atomic` was removed (its arrival-order adds made the bits \
                 depend on the worker count); use `replicated`, which gives the same bits \
                 at every worker count"
                    .to_string(),
            ),
            "privatized" => Err(
                "tally strategy `privatized` was removed (its spill maps grew to mesh size: \
                 more memory and time than `replicated`); use `replicated`, which produces \
                 the same bits"
                    .to_string(),
            ),
            other => Err(format!("unknown tally strategy `{other}` (replicated)")),
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

/// A worker-side deposit handle for one open lane of a [`TallyAccum`],
/// from [`TallyAccum::open`] or [`TallyAccum::lane_views`]: the lane's
/// private mesh, `+0.0` in every cell until the lane deposits there. The
/// caller drives each sink from one worker at a time (the lane-granular
/// schedulers guarantee this). Dropping it closes the lane, which folds
/// the mesh up the tree on the dropping thread.
#[derive(Debug)]
pub struct LaneSink<'a> {
    fold: &'a TallyAccum,
    lane: usize,
    mesh: LaneMesh,
    /// The cells of the run of consecutive live blocks around the
    /// previous deposit, as `start, len`: a deposit inside it skips the
    /// block test and costs one compare. Once the blocks a lane deposits
    /// into are consecutive — all of them on `csp`, the ones around the
    /// source on `scatter` — every deposit lands inside.
    run_start: usize,
    run_len: usize,
}

impl LaneSink<'_> {
    /// Add `value` to `cell` of the lane's mesh.
    #[inline]
    pub fn add(&mut self, cell: usize, value: f64) {
        if cell.wrapping_sub(self.run_start) >= self.run_len {
            self.enter(cell / MERGE_BLOCK);
        }
        self.mesh.values[cell] += value;
    }

    /// A deposit outside the current run: make `block` live if this is
    /// the lane's first deposit into it — zero-filled with plain stores,
    /// so an untouched page takes one write fault, never a read fault and
    /// a copy-on-write fault, and a stale block forgets its earlier user
    /// — and take the run of live blocks around it.
    #[cold]
    #[inline(never)]
    fn enter(&mut self, block: usize) {
        if !self.mesh.live.contains(block) {
            let cells = self.mesh.make_live(block);
            self.fold.count_live(cells);
        }
        let live = &self.mesh.live;
        let first = block - (0..block).rev().take_while(|&b| live.contains(b)).count();
        let end = block
            + (block..live.capacity())
                .take_while(|&b| live.contains(b))
                .count();
        self.run_start = first * MERGE_BLOCK;
        self.run_len = (end * MERGE_BLOCK).min(self.mesh.values.len()) - self.run_start;
    }
}

impl Drop for LaneSink<'_> {
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
/// while the meshes stream through once. Also the unit a lane mesh
/// zero-fills, folds and hands out by ([`LaneMesh`]).
const MERGE_BLOCK: usize = 4096;

/// A lane's or tree node's dense mesh and the state of each of its
/// `MERGE_BLOCK` blocks: *live* blocks hold the node's values; *stale*
/// ones — written, but not live — whatever an earlier user of the pooled
/// mesh left there; and every other block is all `+0.0`, never written
/// since it was allocated.
#[derive(Debug, Default)]
struct LaneMesh {
    values: Vec<f64>,
    live: BlockSet,
    /// Blocks written since the mesh was allocated: the live ones and
    /// the stale ones.
    written: BlockSet,
}

impl LaneMesh {
    /// A mesh of `cells` `+0.0`s, nothing resident yet.
    fn new(cells: usize) -> Self {
        let blocks = cells.div_ceil(MERGE_BLOCK);
        Self {
            values: vec![0.0; cells],
            live: BlockSet::new(blocks),
            written: BlockSet::new(blocks),
        }
    }

    fn cells(&self, block: usize) -> Range<usize> {
        block * MERGE_BLOCK..((block + 1) * MERGE_BLOCK).min(self.values.len())
    }

    /// Zero-fill `block` and make it live; returns its cell count.
    fn make_live(&mut self, block: usize) -> usize {
        let cells = self.cells(block);
        self.values[cells.clone()].fill(0.0);
        self.live.insert(block);
        self.written.insert(block);
        cells.len()
    }

    /// `self += right`, block by block, where `self` is the left node:
    /// add a block live on both sides, copy one live only in `right`.
    /// Returns the cells of the blocks added, which `right` no longer
    /// needs to hold.
    fn absorb(&mut self, right: &LaneMesh) -> usize {
        let mut shared = 0;
        for block in right.live.iter() {
            let cells = self.cells(block);
            let (x, y) = (&mut self.values[cells.clone()], &right.values[cells]);
            if self.live.contains(block) {
                for (x, y) in x.iter_mut().zip(y) {
                    *x += y;
                }
                shared += x.len();
            } else {
                x.copy_from_slice(y);
                self.live.insert(block);
                self.written.insert(block);
            }
        }
        shared
    }

    /// Back to the pool: what was live is stale to the next user.
    fn retire(&mut self) {
        self.live.clear();
    }

    /// The node as a dense mesh: stale blocks zeroed, blocks never
    /// written left untouched.
    fn into_dense(mut self) -> Vec<f64> {
        for block in self.written.iter() {
            if !self.live.contains(block) {
                let cells = self.cells(block);
                self.values[cells].fill(0.0);
            }
        }
        self.values
    }
}

/// One bit per block of a mesh, kept in whole 64-byte lines: each mesh's
/// bits sit on cache lines of their own, so the worker that marks a block
/// live never invalidates a line that another worker's lane reads on its
/// deposit path (8-byte sets, packed side by side by the allocator, cost
/// `csp` Over Particles 15 % at two workers). A 512² mesh needs one line;
/// one line covers 512 blocks, 2 048² cells.
#[derive(Clone, Debug, Default)]
struct BlockSet(Vec<BlockLine>);

#[derive(Clone, Copy, Debug, Default)]
#[repr(align(64))]
struct BlockLine([u64; 8]);

impl BlockSet {
    const PER_LINE: usize = 512;

    fn new(blocks: usize) -> Self {
        Self(vec![BlockLine::default(); blocks.div_ceil(Self::PER_LINE)])
    }

    /// Line, word and bit of `block`.
    fn slot(block: usize) -> (usize, usize, u64) {
        let line = block / Self::PER_LINE;
        (line, block % Self::PER_LINE / 64, 1 << (block % 64))
    }

    /// Blocks the set can hold.
    fn capacity(&self) -> usize {
        self.0.len() * Self::PER_LINE
    }

    fn contains(&self, block: usize) -> bool {
        let (line, word, bit) = Self::slot(block);
        self.0[line].0[word] & bit != 0
    }

    fn insert(&mut self, block: usize) {
        let (line, word, bit) = Self::slot(block);
        self.0[line].0[word] |= bit;
    }

    fn clear(&mut self) {
        self.0.fill(BlockLine::default());
    }

    /// The blocks in the set, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.0.iter().flat_map(|line| line.0);
        words.enumerate().flat_map(|(w, mut word)| {
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

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
/// subtree over `lanes` (a [`TallyAccum`]'s output), and the inputs tile
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

/// The tally accumulator: the pairwise tree over a contiguous run of
/// lanes, lane-indexed deposit sinks during the solve, folded as the
/// lanes close (see "Lane lifecycle" in the module docs), and the reduced
/// mesh afterwards.
///
/// Contract (enforced by the golden/equivalence/property suites):
/// [`open`](TallyAccum::open) hands out one sink per lane of
/// [`lanes`](TallyAccum::lanes), sinks of distinct lanes may be driven —
/// and dropped — concurrently, and [`merge`](TallyAccum::merge) and
/// [`into_nodes`](TallyAccum::into_nodes) depend only on the per-lane
/// deposit sequences, never on which worker closed which lane when.
///
/// A lane is *opened* once, on the worker that deposits into it, and gets
/// a mesh from the pool. Its first deposit into a block zero-fills that
/// block there with plain stores: written first, a fresh page takes one
/// write fault instead of a read fault on the shared zero page and then a
/// copy-on-write fault that shoots it out of every other worker's TLB.
/// *Closing* the lane parks its mesh at its leaf, or — when the sibling
/// node is already parked — adds the two into the left one, hands the
/// right one back to the pool and repeats one level up, stopping at the
/// nodes of [`tree_cover`]`(n_lanes, lanes)`. Whoever closes second does
/// the add, and the add is the tree's `x + y` over the blocks either side
/// deposited into, so the bits do not depend on the completion order. A
/// lane that is never opened is opened and closed when the fold is taken
/// apart, so it folds as an all-`+0.0` mesh, as the tree says it must.
///
/// The pool starts at `min(lanes, workers + ⌈log₂ lanes⌉ + 1)` meshes,
/// allocated by the thread that builds the accumulator — a thread that
/// outlives the step's workers (DESIGN.md §11) — and grows only if it
/// runs dry.
/// Closed in lane order, the lanes hold at most `⌈log₂ lanes⌉ + 1` meshes
/// at once: the open lane and one parked node per level above it. Only
/// their live blocks are ever written, so only those become resident.
#[derive(Debug)]
pub struct TallyAccum {
    cells: usize,
    /// Lanes of the whole tree.
    n_lanes: usize,
    /// The lanes this accumulator owns.
    lanes: Range<usize>,
    /// The subtrees under the cover nodes of `lanes`, each in pre-order
    /// (a left child precedes its right sibling), covers in lane order.
    tree: Vec<TreeNode>,
    /// `tree` index of each owned lane's leaf.
    leaf: Vec<usize>,
    state: Mutex<FoldState>,
    /// Cells in live blocks of open or parked meshes now, and the most
    /// there ever were.
    live_cells: AtomicUsize,
    peak_cells: AtomicUsize,
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
    parked: Vec<Option<LaneMesh>>,
    /// Meshes out of use; recycled ones carry stale blocks.
    pool: Vec<LaneMesh>,
}

impl TallyAccum {
    /// An accumulator over a `cells`-cell mesh with `n_lanes` (at least
    /// one) accumulation lanes, for one worker. `strategy` has one value.
    #[must_use]
    pub fn new(strategy: TallyStrategy, cells: usize, n_lanes: usize) -> Self {
        let TallyStrategy::Replicated = strategy;
        let n_lanes = n_lanes.max(1);
        Self::for_lanes(cells, n_lanes, 0..n_lanes, 1)
    }

    /// An accumulator over the lanes `lanes` of the `n_lanes`-lane tree —
    /// all of them for a whole step, a shard's run of them for a shard
    /// attempt — with a mesh pool sized for `workers` concurrent workers.
    /// Allocated on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` reaches past `n_lanes`.
    #[must_use]
    pub fn for_lanes(cells: usize, n_lanes: usize, lanes: Range<usize>, workers: usize) -> Self {
        let mut tree = Vec::new();
        let mut leaf = vec![0; lanes.len()];
        for cover in tree_cover(n_lanes, lanes.clone()) {
            grow(&mut tree, &mut leaf, lanes.start, cover);
        }
        let depth = lanes.len().next_power_of_two().trailing_zeros() as usize;
        let pool = (0..lanes.len().min(workers + depth + 1))
            .map(|_| LaneMesh::new(cells))
            .collect();
        let state = FoldState {
            lanes: vec![LaneState::Unopened; lanes.len()],
            parked: tree.iter().map(|_| None).collect(),
            pool,
        };
        Self {
            cells,
            n_lanes,
            lanes,
            tree,
            leaf,
            state: Mutex::new(state),
            live_cells: AtomicUsize::new(0),
            peak_cells: AtomicUsize::new(0),
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

    /// The lanes this accumulator takes deposits for (global indices).
    #[must_use]
    pub fn lanes(&self) -> Range<usize> {
        self.lanes.clone()
    }

    /// Number of accumulation lanes.
    #[must_use]
    pub fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Open `lane` for deposits on the calling worker: a pooled mesh,
    /// `+0.0` wherever the lane deposits, that folds into the tree when
    /// the sink drops.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not one of [`lanes`](TallyAccum::lanes) or was
    /// opened before.
    pub fn open(&self, lane: usize) -> LaneSink<'_> {
        self.advance(lane, LaneState::Unopened, LaneState::Open);
        let pooled = self.lock().pool.pop();
        LaneSink {
            fold: self,
            lane,
            mesh: pooled.unwrap_or_else(|| LaneMesh::new(self.cells)),
            run_start: 0,
            run_len: 0,
        }
    }

    /// `cells` more cells became live.
    fn count_live(&self, cells: usize) {
        let now = self.live_cells.fetch_add(cells, Ordering::Relaxed) + cells;
        self.peak_cells.fetch_max(now, Ordering::Relaxed);
    }

    /// Close `lane` with its partial `mesh` and fold it as far up the
    /// tree as its finished siblings allow.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not one of the accumulator's open lanes, or `mesh`
    /// does not hold one value per cell.
    fn close(&self, lane: usize, mesh: LaneMesh) {
        assert_eq!(mesh.values.len(), self.cells, "lane {lane}'s mesh");
        self.advance(lane, LaneState::Open, LaneState::Closed);
        self.fold_up(self.leaf[lane - self.lanes.start], mesh);
    }

    /// Park `mesh` as the reduced subtree `node`, or — if its sibling is
    /// parked already — add the two into the left one, pool the right one
    /// and carry on at the parent.
    fn fold_up(&self, mut node: usize, mut mesh: LaneMesh) {
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
            let (mut left, mut right) = if node < sibling {
                (mesh, parked)
            } else {
                (parked, mesh)
            };
            let shared = left.absorb(&right);
            self.live_cells.fetch_sub(shared, Ordering::Relaxed);
            right.retire();
            self.lock().pool.push(right);
            (node, mesh) = (parent, left);
        }
    }

    /// [`open`](TallyAccum::open) every lane at once, in lane order.
    pub fn lane_views(&mut self) -> Vec<LaneSink<'_>> {
        let this = &*self;
        this.lanes().map(|lane| this.open(lane)).collect()
    }

    /// The merged mesh: the root of the fold, every lane never opened
    /// counted as `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if a lane is still open, or the accumulator owns only part
    /// of the tree: that one ships [`into_nodes`](TallyAccum::into_nodes)
    /// instead.
    #[must_use]
    pub fn merge(self) -> Vec<f64> {
        let whole = 0..self.n_lanes;
        match <[_; 1]>::try_from(self.into_nodes()) {
            Ok([(lanes, root)]) if lanes == whole => root,
            _ => panic!("only an accumulator over the whole tree merges to one mesh"),
        }
    }

    /// The reduced [`tree_cover`] nodes of the accumulator's lanes, in
    /// lane order, as dense meshes — what a shard attempt ships, and what
    /// [`merge_nodes_pairwise`] finishes the tree from. Every lane never
    /// opened folds as an all-`+0.0` mesh.
    ///
    /// # Panics
    ///
    /// Panics if a lane is still open.
    #[must_use]
    pub fn into_nodes(self) -> Vec<(Range<usize>, Vec<f64>)> {
        for lane in self.lanes.clone() {
            let state = self.lock().lanes[lane - self.lanes.start];
            assert!(state != LaneState::Open, "lane {lane} is still open");
            if state == LaneState::Unopened {
                drop(self.open(lane));
            }
        }
        let mut st = self.state.into_inner().expect("lane fold state poisoned");
        self.tree
            .iter()
            .enumerate()
            .filter(|(_, node)| node.up.is_none())
            .map(|(at, node)| {
                let mesh = st.parked[at].take().expect("every lane closed");
                (node.lanes.clone(), mesh.into_dense())
            })
            .collect()
    }

    /// Resident bytes of the accumulation state: the high-water of live
    /// blocks in meshes open or parked at once so far.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.peak_cells.load(Ordering::Relaxed) * std::mem::size_of::<f64>()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names_round_trip() {
        let s = TallyStrategy::Replicated;
        assert_eq!(s.name().parse::<TallyStrategy>().unwrap(), s);
        assert_eq!(format!("{s}"), s.name());
        assert!("magic".parse::<TallyStrategy>().is_err());
        for gone in ["atomic", "privatized"] {
            let removed = gone.parse::<TallyStrategy>().unwrap_err();
            assert!(
                removed.contains(&format!("`{gone}` was removed"))
                    && removed.contains("use `replicated`"),
                "{removed}"
            );
        }
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

    /// The fold against the paper's shared-atomic baseline: identical
    /// per-lane deposit sequences sum to the same totals, up to
    /// reassociation.
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

        let mut accum = TallyAccum::new(TallyStrategy::Replicated, cells, lanes);
        let atomic = crate::tally::AtomicTally::new(cells);
        for (mut view, deposits) in accum.lane_views().into_iter().zip(&deposits) {
            for &(cell, value) in deposits {
                view.add(cell, value);
                atomic.add(cell, value);
            }
        }
        let replicated = accum.merge();
        for (c, (a, b)) in atomic.snapshot().iter().zip(&replicated).enumerate() {
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "cell {c}");
        }
    }

    /// Concurrently driving disjoint lanes must not change the merged
    /// bits of the fold.
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

    /// Lane `lane`'s deposits over `cells` cells in the fold tests, one of
    /// six shapes by `lane % 6`: none at all, one block, every block,
    /// pairs that cancel to `+0.0`, explicit `-0.0`s beside
    /// [`lane_value`]'s mixed data, and a few cells anywhere — so a
    /// recycled mesh comes back with stale blocks the next lane skips,
    /// overwrites or adds into.
    fn lane_deposits(lane: usize, cells: usize) -> Vec<(usize, f64)> {
        let blocks = cells.div_ceil(MERGE_BLOCK);
        let block = |b: usize| b * MERGE_BLOCK..((b + 1) * MERGE_BLOCK).min(cells);
        let mut state = lane as u64 ^ 0x5eed;
        let mut pick =
            |within: Range<usize>| within.start + splitmix(&mut state) as usize % within.len();
        let value = |cell: usize| lane_value(lane, cell);
        match lane % 6 {
            0 => Vec::new(),
            1 => {
                let b = block(lane / 6 % blocks);
                (0..40)
                    .map(|_| pick(b.clone()))
                    .map(|c| (c, value(c)))
                    .collect()
            }
            2 => (0..blocks)
                .flat_map(|b| (0..8).map(move |_| b))
                .map(|b| pick(block(b)))
                .map(|c| (c, value(c)))
                .collect(),
            3 => {
                let hit: Vec<usize> = (0..16).map(|_| pick(0..cells)).collect();
                let there = hit.iter().map(|&c| (c, value(c) + 1.0));
                let back = hit.iter().map(|&c| (c, -(value(c) + 1.0)));
                there.chain(back).collect()
            }
            4 => (0..32)
                .map(|i| {
                    let c = pick(0..cells);
                    (c, if i % 2 == 0 { -0.0 } else { value(c) })
                })
                .collect(),
            _ => (0..24)
                .map(|_| pick(0..cells))
                .map(|c| (c, value(c)))
                .collect(),
        }
    }

    /// What `deposits` leave in a dense mesh of `cells` `+0.0`s: the
    /// lane partial the reference merges.
    fn deposited(deposits: &[(usize, f64)], cells: usize) -> Vec<f64> {
        let mut mesh = vec![0.0; cells];
        for &(cell, value) in deposits {
            mesh[cell] += value;
        }
        mesh
    }

    /// Open, deposit into and close every lane of `order` on `threads`
    /// threads that take the lanes in that order from a shared counter —
    /// the dynamic lane dispatch of `parallel_for_owned`, so the lanes
    /// finish in whatever order the threads reach them.
    fn close_lanes(
        fold: &TallyAccum,
        deposits: &[Vec<(usize, f64)>],
        order: &[usize],
        threads: usize,
    ) {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let work = || {
            while let Some(&lane) =
                order.get(next.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
            {
                let mut open = fold.open(lane);
                for &(cell, value) in &deposits[lane] {
                    open.add(cell, value);
                }
            }
        };
        std::thread::scope(|s| {
            for _ in 1..threads {
                s.spawn(work);
            }
            work();
        });
    }

    /// The fold is the dense tree, bit for bit, in any completion order:
    /// lanes closed in order, in reverse and in seeded shuffles, on one
    /// thread and racing on {2, 3, 7}; and over sub-ranges cut the way
    /// `ShardPlan` cuts them (1 … more shards than lanes). Every output is
    /// exactly the range's `tree_cover`, and every node is
    /// `merge_lanes_reference` over the lanes' dense partials. The lanes
    /// touch no block, one or all of them ([`lane_deposits`]), so pooled
    /// meshes come back with stale blocks; one lane is never opened, and
    /// its neighbour deposits only `-0.0`s, which must land as `+0.0`.
    #[test]
    fn fold_is_the_tree_in_any_completion_order() {
        for n_lanes in [1usize, 2, 3, 5, 31, 32, 33, 256, 1024] {
            // Four blocks, the last one short; two past a few dozen lanes,
            // where the dense partials the reference needs add up.
            let blocks = if n_lanes <= 33 { 3 } else { 1 };
            let cells = blocks * MERGE_BLOCK + 7;
            let unopened = n_lanes / 2;
            let mut deposits: Vec<_> = (0..n_lanes).map(|l| lane_deposits(l, cells)).collect();
            deposits[unopened].clear();
            if let Some(negative) = deposits.get_mut(unopened ^ 1) {
                *negative = (0..cells).step_by(97).map(|c| (c, -0.0)).collect();
            }
            let lanes: Vec<Vec<f64>> = deposits.iter().map(|d| deposited(d, cells)).collect();
            let whole = merge_lanes_reference(&lanes);
            let closed: Vec<usize> = (0..n_lanes).filter(|&l| l != unopened).collect();
            let check = |fold: TallyAccum, owned: Range<usize>, what: &str| {
                let nodes = fold.into_nodes();
                let ranges: Vec<Range<usize>> = nodes.iter().map(|(r, _)| r.clone()).collect();
                assert_eq!(ranges, tree_cover(n_lanes, owned), "{what}");
                for (node, mesh) in &nodes {
                    let what = format!("{what}, node {node:?}");
                    if *node == (0..n_lanes) {
                        assert_same_bits(mesh, &whole, &what);
                    } else {
                        assert_same_bits(mesh, &merge_lanes_reference(&lanes[node.clone()]), &what);
                    }
                }
                nodes
            };

            let mut orders = vec![
                ("in order", closed.clone()),
                ("reversed", closed.iter().rev().copied().collect()),
            ];
            let shuffles = if n_lanes <= 33 { 3 } else { 1 };
            orders.extend((1..=shuffles).map(|seed| ("shuffled", shuffled(&closed, seed))));
            for (name, order) in &orders {
                for threads in [1, 2, 3, 7] {
                    let fold = TallyAccum::for_lanes(cells, n_lanes, 0..n_lanes, threads);
                    close_lanes(&fold, &deposits, order, threads);
                    check(
                        fold,
                        0..n_lanes,
                        &format!("{n_lanes} lanes {name} on {threads}"),
                    );
                }
            }

            for n_shards in [1usize, 2, 3, 5, 7, 32, 40] {
                let mut nodes = Vec::new();
                for s in 0..n_shards {
                    let owned = (s * n_lanes / n_shards)..((s + 1) * n_lanes / n_shards);
                    if owned.is_empty() {
                        continue;
                    }
                    let fold = TallyAccum::for_lanes(cells, n_lanes, owned.clone(), 2);
                    let mine: Vec<usize> = owned.clone().filter(|&l| l != unopened).collect();
                    close_lanes(&fold, &deposits, &shuffled(&mine, s as u64), 2);
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

    /// The block sets grow with the mesh: a mesh past 2 048² cells spans
    /// 1 025 blocks, three 512-block lines, and lanes that deposit on
    /// both sides of every line edge fold to the dense tree — compared on
    /// the touched blocks, and every other cell handed out `+0.0`.
    #[test]
    fn sparse_fold_spans_meshes_past_one_block_line() {
        let cells = 2048 * 2048 + 5;
        let touched = [0usize, 511, 512, 1023, 1024];
        let n_lanes = 5;
        let deposits: Vec<Vec<(usize, f64)>> = (0..n_lanes)
            .map(|l| {
                (0..=l)
                    .map(|k| touched[(l + k) % touched.len()] * MERGE_BLOCK + 3 * k)
                    .map(|c| (c.min(cells - 1), lane_value(l, c) + 0.5))
                    .collect()
            })
            .collect();
        // The same deposits on a mesh of just the touched blocks.
        let compact = |cell: usize| {
            let at = touched
                .iter()
                .position(|&b| b == cell / MERGE_BLOCK)
                .unwrap();
            at * MERGE_BLOCK + cell % MERGE_BLOCK
        };
        let small = touched.len() * MERGE_BLOCK;
        let lanes: Vec<Vec<f64>> = deposits
            .iter()
            .map(|d| {
                let d: Vec<_> = d.iter().map(|&(c, v)| (compact(c), v)).collect();
                deposited(&d, small)
            })
            .collect();
        let expect = merge_lanes_reference(&lanes);
        for threads in [1, 3] {
            let fold = TallyAccum::for_lanes(cells, n_lanes, 0..n_lanes, threads);
            let order: Vec<usize> = (0..n_lanes).rev().collect();
            close_lanes(&fold, &deposits, &order, threads);
            let [(_, root)] = <[_; 1]>::try_from(fold.into_nodes()).unwrap();
            for (c, v) in root.iter().enumerate() {
                let b = c / MERGE_BLOCK;
                if !touched.contains(&b) {
                    assert_eq!(v.to_bits(), 0, "cell {c} on {threads} threads");
                }
            }
            let got: Vec<f64> = touched
                .iter()
                .flat_map(|&b| {
                    let block = b * MERGE_BLOCK..((b + 1) * MERGE_BLOCK).min(cells);
                    let pad = MERGE_BLOCK - block.len();
                    root[block]
                        .iter()
                        .copied()
                        .chain(std::iter::repeat_n(0.0, pad))
                })
                .collect();
            assert_same_bits(&got, &expect, &format!("{threads} threads"));
        }
    }

    /// A lane is opened once and closed once, and only by the fold that
    /// owns it: anything else would fold a lane twice or into the wrong
    /// tree, so it panics — as does taking the result apart while a lane
    /// is still open.
    #[test]
    fn fold_refuses_a_second_close_and_lanes_it_does_not_own() {
        let refused = |what: &str, misuse: &dyn Fn(&TallyAccum)| {
            let fold = TallyAccum::for_lanes(4, 8, 2..6, 1);
            drop(fold.open(3));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| misuse(&fold)));
            assert!(caught.is_err(), "{what} was accepted");
        };
        refused("a second close", &|fold| fold.close(3, LaneMesh::new(4)));
        refused("a close of a lane never opened", &|fold| {
            fold.close(4, LaneMesh::new(4))
        });
        refused("a close outside the range", &|fold| {
            fold.close(1, LaneMesh::new(4))
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

    /// A mesh the fold took back into its pool still holds what was
    /// added into it, as stale blocks, and the next lane opened on it
    /// reads `+0.0` all the same: its first deposit into a block
    /// zero-fills the block, and a stale block it never deposits into is
    /// zeroed when its node is handed out.
    #[test]
    fn open_hands_out_zeros_after_a_dirty_close() {
        let cells = 2 * MERGE_BLOCK;
        // Lanes 0..3 of 4: the cover is [0, 2) and [2, 3).
        let fold = TallyAccum::for_lanes(cells, 4, 0..3, 1);
        for lane in [0, 1] {
            let mut open = fold.open(lane);
            for cell in 0..cells {
                open.add(cell, -1.5);
            }
        }
        // Lanes 0 and 1 are siblings: closing 1 added its mesh into 0's
        // and pooled it, both its blocks stale.
        let (recycled, stale) = {
            let st = fold.lock();
            let mesh = st.pool.last().expect("a recycled mesh");
            assert_eq!(mesh.live.iter().count(), 0);
            assert_eq!(mesh.written.iter().collect::<Vec<_>>(), [0, 1]);
            (mesh.values.as_ptr(), mesh.values[0])
        };
        assert_eq!(stale, -1.5);
        let mut open = fold.open(2);
        assert_eq!(
            open.mesh.values.as_ptr(),
            recycled,
            "the recycled mesh comes back first"
        );
        open.add(1, 0.25);
        let block: Vec<f64> = (0..MERGE_BLOCK)
            .map(|c| if c == 1 { 0.25 } else { 0.0 })
            .collect();
        assert_same_bits(&open.mesh.values[..MERGE_BLOCK], &block, &"first block");
        drop(open);
        let nodes = fold.into_nodes();
        assert_eq!(nodes[0].0, 0..2);
        assert!(nodes[0].1.iter().all(|&v| v == -3.0));
        assert_eq!(nodes[1].0, 2..3);
        let mut lane_2 = vec![0.0; cells];
        lane_2[1] = 0.25;
        assert_same_bits(&nodes[1].1, &lane_2, &"lane 2, its stale block zeroed");
    }

    /// What `footprint_bytes` reports: the most live blocks that open or
    /// parked meshes held at once — which lanes opened and closed one at a time, in
    /// order, each depositing into every block, hold to exactly
    /// `⌈log₂ lanes⌉ + 1` meshes (6 of 32), and every lane open at once
    /// (`lane_views`) to one mesh per lane. Lanes that deposit nothing
    /// hold nothing, and lanes that deposit into one block of three hold
    /// one block each.
    #[test]
    fn footprints_rank_as_documented() {
        let cells = 100;
        let mesh = cells * std::mem::size_of::<f64>();
        for n_lanes in 1usize..=40 {
            let accum = TallyAccum::new(TallyStrategy::Replicated, cells, n_lanes);
            assert_eq!(accum.footprint_bytes(), 0, "{n_lanes} lanes, none open");
            for lane in accum.lanes() {
                drop(accum.open(lane));
            }
            assert_eq!(
                accum.footprint_bytes(),
                0,
                "{n_lanes} lanes, none deposited"
            );

            let accum = TallyAccum::new(TallyStrategy::Replicated, cells, n_lanes);
            for lane in accum.lanes() {
                accum.open(lane).add(lane % cells, 1.0);
            }
            let depth = n_lanes.next_power_of_two().ilog2() as usize;
            assert_eq!(
                accum.footprint_bytes(),
                (depth + 1) * mesh,
                "{n_lanes} lanes"
            );
        }
        let sparse = TallyAccum::new(TallyStrategy::Replicated, 3 * MERGE_BLOCK, 32);
        for lane in sparse.lanes() {
            sparse.open(lane).add(MERGE_BLOCK + lane, 1.0);
        }
        assert_eq!(sparse.footprint_bytes(), 6 * MERGE_BLOCK * 8);

        let mut all_open = TallyAccum::new(TallyStrategy::Replicated, cells, 32);
        let mut views = all_open.lane_views();
        for lane in &mut views {
            lane.add(7, 1.0);
        }
        drop(views);
        assert_eq!(all_open.footprint_bytes(), 32 * mesh);
    }
}
