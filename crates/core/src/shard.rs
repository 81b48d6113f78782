//! Sharded solves with fault-tolerant shard execution (DESIGN.md §18).
//!
//! A sharded solve cuts the population's **global lane space** into
//! contiguous shard ranges and runs each timestep of each shard as an
//! independent, stateless attempt on its own worker thread: the attempt
//! receives a copy of the shard's census-boundary column range, runs the
//! step engine's `begin_step` + `run_step` over it with the *global*
//! lane geometry, and hands back a serialized `ShardResult` (the tally
//! as merge-tree nodes, per-lane counters, the post-step columns).
//! The coordinator — a [`SolveCore`] — installs the columns and closes
//! the step with the very `fold_step` an unsharded step ends in, so the
//! merged tallies, counters and final particle records are **bitwise
//! identical to the unsharded run for any shard count**. A solve with
//! one shard, no fault plan and no spill base *is* the unsharded solve:
//! it steps its core in place.
//!
//! What crosses the wire is a **node of the global merge tree**, not a
//! lane. The pairwise tree over lanes `[lo, hi)` splits at
//! `lo + (hi - lo) / 2`, so a subtree's shape depends only on how many
//! lanes it spans: an attempt that owns global lanes `[a, b)` folds them
//! as they close — the fold an unsharded step runs, stopped lower — into
//! the canonical cover of `[a, b)` by nodes of the tree over all lanes
//! ([`tree_cover`]: one node per shard at 2/4/8 shards over 32 lanes,
//! `[0, 10)` = `[0, 8)` + `[8, 10)`), and the coordinator finishes the
//! same tree above those nodes ([`merge_nodes_pairwise`]). No bit
//! changes; a 16-lane shard encodes, checksums and decodes one mesh
//! instead of sixteen. The result travels in the checkpoint's frame
//! (`NEUTSHRD` version 4), under the same word-wise
//! [`frame_checksum`](crate::checkpoint::frame_checksum).
//!
//! On top of that determinism sits the fault model: a per-shard
//! supervisor with a heartbeat deadline, deterministic fault injection
//! ([`ShardFaultPlan`]: `kill@S`, `hang@S`, `corrupt@S`, `panic@S`),
//! bounded retry with exponential backoff re-running a failed shard from
//! its census-boundary input (optionally reloaded through a per-shard
//! [`CheckpointStore`], exercising the crash-safe on-disk protocol), and
//! quarantine with a named [`ShardError`] once retries are exhausted.
//! Because attempts are stateless and their inputs are census-boundary
//! snapshots, a retried shard reproduces the clean run's bits exactly.

use crate::checkpoint::{
    config_fingerprint, fnv1a64, particles_len, put_counters, put_f64s, put_particles,
    read_counters, Checkpoint, CheckpointError, CheckpointStore, Frame, COUNTERS_RECORD_LEN,
};
use crate::counters::EventCounters;
use crate::sim::{RunOptions, RunReport, Simulation, SolveCore};
use crate::soa::ParticleSoA;
use crate::step::{begin_step, execution_workers, run_step};
use neutral_mesh::accum::{merge_nodes_pairwise, tree_cover, DEFAULT_LANES};
use neutral_mesh::{LanePartition, TallyAccum};
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How the global lane space of a solve is cut into shards.
///
/// Shard boundaries always fall on **lane** boundaries: each shard owns a
/// contiguous run of whole lanes, and with them the contiguous particle
/// range those lanes cover. Because the lane decomposition is the unit of
/// every deterministic reduction (tally merge, counter merge),
/// lane-aligned shards can each reproduce their lanes' partial
/// results bit-for-bit and the coordinator can replay the global merges
/// unchanged.
#[derive(Clone, Copy, Debug)]
pub struct ShardPlan {
    /// The global lane partition of the whole population — identical to
    /// the one an unsharded solve would compute.
    pub part: LanePartition,
    /// Number of shards the lane space is cut into.
    pub n_shards: usize,
}

impl ShardPlan {
    /// Plan `n_shards` shards over a population of `n_items` particles,
    /// using the same fixed global lane count an unsharded solve uses.
    #[must_use]
    pub fn new(n_items: usize, n_shards: usize) -> Self {
        assert!(n_shards >= 1, "need at least one shard");
        Self {
            part: LanePartition::new(n_items, DEFAULT_LANES),
            n_shards,
        }
    }

    /// The global lanes shard `shard` owns (may be empty when there are
    /// more shards than lanes).
    #[must_use]
    pub fn lane_range(&self, shard: usize) -> Range<usize> {
        assert!(shard < self.n_shards, "shard index out of range");
        let l = self.part.n_lanes;
        (shard * l / self.n_shards)..((shard + 1) * l / self.n_shards)
    }

    /// The global particle positions shard `shard` owns — the particles
    /// of its lanes. Particle keys in this range are global birth
    /// indices; they are the RNG stream identities and never re-based.
    #[must_use]
    pub fn particle_range(&self, shard: usize) -> Range<usize> {
        let lanes = self.lane_range(shard);
        let lo = (lanes.start * self.part.lane_size).min(self.part.n_items);
        let hi = (lanes.end * self.part.lane_size).min(self.part.n_items);
        lo..hi
    }
}

/// Check a requested shard count against what a solve can be cut into:
/// at least one shard, and no more than the [`DEFAULT_LANES`] lanes every
/// solve has, since a shard owns whole lanes and every shard past the
/// last lane would own nothing yet still be stepped (and, with a
/// checkpoint file, get a store of its own). The one check and message
/// behind every front door: the `shards` params key, the `POST /solves`
/// key and `neutral_cli --shards`. [`ShardPlan`] itself accepts any
/// positive count.
pub fn check_shard_count(n_shards: usize) -> Result<(), String> {
    if n_shards == 0 {
        return Err("need at least one shard".into());
    }
    if n_shards > DEFAULT_LANES {
        return Err(format!(
            "{n_shards} shards is more than the {DEFAULT_LANES} lanes of a solve \
             (a shard owns whole lanes)"
        ));
    }
    Ok(())
}

/// A fault the harness injects into shard attempts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardFaultKind {
    /// The attempt thread dies silently without reporting a result.
    Kill,
    /// The attempt stops making progress (and misses its heartbeat
    /// deadline) without exiting.
    Hang,
    /// The attempt reports a result whose bytes were corrupted in flight
    /// (detected by the result checksum).
    Corrupt,
    /// The attempt panics; the panic is caught and reported.
    Panic,
}

impl fmt::Display for ShardFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShardFaultKind::Kill => "kill",
            ShardFaultKind::Hang => "hang",
            ShardFaultKind::Corrupt => "corrupt",
            ShardFaultKind::Panic => "panic",
        })
    }
}

impl FromStr for ShardFaultKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "kill" => Ok(ShardFaultKind::Kill),
            "hang" => Ok(ShardFaultKind::Hang),
            "corrupt" => Ok(ShardFaultKind::Corrupt),
            "panic" => Ok(ShardFaultKind::Panic),
            other => Err(format!(
                "unknown shard fault kind {other:?} (expected kill|hang|corrupt|panic)"
            )),
        }
    }
}

/// One injected shard fault: `kind@shard[:count]` — affect the next
/// `count` attempts of `shard` (default 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardFault {
    /// What goes wrong.
    pub kind: ShardFaultKind,
    /// Which shard it strikes.
    pub shard: usize,
    /// How many attempts of that shard it strikes (across the whole
    /// solve) before burning out.
    pub count: usize,
}

impl fmt::Display for ShardFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 1 {
            write!(f, "{}@{}", self.kind, self.shard)
        } else {
            write!(f, "{}@{}:{}", self.kind, self.shard, self.count)
        }
    }
}

impl FromStr for ShardFault {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || format!("bad shard fault {s:?} (expected kind@shard[:count])");
        let (kind, rest) = s.split_once('@').ok_or_else(bad)?;
        let kind = kind.parse()?;
        let (shard, count) = match rest.split_once(':') {
            None => (rest, 1),
            Some((shard, count)) => (shard, count.parse::<usize>().map_err(|_| bad())?),
        };
        let shard = shard.parse::<usize>().map_err(|_| bad())?;
        if count == 0 {
            return Err(format!(
                "shard fault {s:?} has count 0 — it would never fire"
            ));
        }
        Ok(ShardFault { kind, shard, count })
    }
}

/// A comma-separated list of injected shard faults, e.g.
/// `kill@1,corrupt@0:2`. The empty plan injects nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardFaultPlan {
    faults: Vec<ShardFault>,
}

impl ShardFaultPlan {
    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults of the plan.
    #[must_use]
    pub fn faults(&self) -> &[ShardFault] {
        &self.faults
    }

    /// Consume one charge of the first unexhausted fault aimed at
    /// `shard`, returning its kind.
    fn take(&mut self, shard: usize) -> Option<ShardFaultKind> {
        let fault = self
            .faults
            .iter_mut()
            .find(|f| f.shard == shard && f.count > 0)?;
        fault.count -= 1;
        Some(fault.kind)
    }
}

impl fmt::Display for ShardFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

impl FromStr for ShardFaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.trim().is_empty() {
            return Ok(Self::default());
        }
        let faults = s
            .split(',')
            .map(|part| part.trim().parse())
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { faults })
    }
}

/// Why a shard attempt (or the whole shard) failed.
#[derive(Debug)]
pub enum ShardError {
    /// The shard's worker died without reporting a result.
    Killed {
        /// The shard that failed.
        shard: usize,
    },
    /// The shard missed its heartbeat deadline and was abandoned.
    Hung {
        /// The shard that failed.
        shard: usize,
    },
    /// The shard reported a result that failed checksum or consistency
    /// validation.
    Corrupt {
        /// The shard that failed.
        shard: usize,
        /// What the validation rejected.
        detail: String,
    },
    /// The shard's worker panicked.
    Panicked {
        /// The shard that failed.
        shard: usize,
        /// The panic payload, when printable.
        detail: String,
    },
    /// The shard exhausted its retry budget and was quarantined; the
    /// solve fails with the last attempt's cause.
    Quarantined {
        /// The quarantined shard.
        shard: usize,
        /// Total attempts made (first try + retries).
        attempts: usize,
        /// Why the final attempt failed.
        cause: Box<ShardError>,
    },
    /// A per-shard checkpoint save/load failed.
    Checkpoint(CheckpointError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Killed { shard } => {
                write!(f, "shard {shard} worker died without reporting a result")
            }
            ShardError::Hung { shard } => {
                write!(f, "shard {shard} missed its heartbeat deadline")
            }
            ShardError::Corrupt { shard, detail } => {
                write!(f, "shard {shard} returned a corrupt result: {detail}")
            }
            ShardError::Panicked { shard, detail } => {
                write!(f, "shard {shard} panicked: {detail}")
            }
            ShardError::Quarantined {
                shard,
                attempts,
                cause,
            } => write!(
                f,
                "shard {shard} quarantined after {attempts} attempts: {cause}"
            ),
            ShardError::Checkpoint(e) => write!(f, "shard checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Configuration of a sharded solve's execution and fault handling.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Number of shards to cut the lane space into (≥ 1).
    pub n_shards: usize,
    /// Retries allowed per failed shard attempt before quarantine
    /// (total attempts = `max_retries + 1`).
    pub max_retries: usize,
    /// Base backoff slept before retry `a` (doubling each retry);
    /// `Duration::ZERO` disables backoff.
    pub backoff: Duration,
    /// How long a shard may go without heartbeat progress before it is
    /// declared hung and abandoned.
    pub heartbeat_timeout: Duration,
    /// Deterministic fault injection plan (empty = no faults).
    pub fault_plan: ShardFaultPlan,
    /// When set, each shard checkpoints its census-boundary input to
    /// `<base>.shard<k>` through the crash-safe [`CheckpointStore`]
    /// protocol, and retries reload from disk instead of memory.
    pub checkpoint_base: Option<PathBuf>,
}

impl ShardConfig {
    /// A configuration with `n_shards` shards and default fault
    /// handling: 3 retries, 10 ms base backoff, 10 s heartbeat deadline,
    /// no injected faults, no on-disk shard checkpoints.
    #[must_use]
    pub fn new(n_shards: usize) -> Self {
        Self {
            n_shards,
            max_retries: 3,
            backoff: Duration::from_millis(10),
            heartbeat_timeout: Duration::from_secs(10),
            fault_plan: ShardFaultPlan::default(),
            checkpoint_base: None,
        }
    }
}

/// Counters of the fault-handling machinery, exposed through the solve
/// registry's `/stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard attempts launched (including retries).
    pub attempts: u64,
    /// Failed attempts that were retried.
    pub retries: u64,
    /// `(step, shard)` units that succeeded only after at least one
    /// retry — i.e. work that had to be re-queued.
    pub requeues: u64,
    /// Shards that exhausted their retry budget and were quarantined.
    pub quarantined: u64,
    /// Bytes of serialized results the attempts handed back.
    pub wire_bytes: u64,
}

/// A node of the global merge tree as a shard ships it: the global lanes
/// it spans and their pairwise-reduced mesh.
type TallyNode = (Range<usize>, Vec<f64>);

/// The serialized unit a shard attempt hands back to the coordinator:
/// the shard's tally as the merge-tree nodes covering its lanes, per-lane
/// counters (census energy left to the coordinator's fold), and the
/// post-step particle columns. Always round-tripped through bytes — shard
/// attempts behave like remote processes, which both exercises the codec
/// on every step and gives the `corrupt` fault a realistic surface.
///
/// Wire layout (version 4, little-endian, in the checkpoint's [`Frame`];
/// the wire is in-process and lives for one step, so there is no reader
/// for older versions):
///
/// | bytes | field |
/// |---|---|
/// | 8 + 4 + 8 | magic `NEUTSHRD`, version, payload length |
/// | 7 × 8 | `shard`, `step`, `base0`, `cells`, `footprint`, `n_lanes`, `n_nodes` |
/// | `n_lanes` × 128 | per-lane counters |
/// | `n_nodes` × (16 + `cells` × 8) | per node: first lane, end lane, mesh |
/// | 8 + n × 97 | particle count, then the 15 columns, one run each |
/// | 8 | [`frame_checksum`](crate::checkpoint::frame_checksum) of every byte before it |
#[derive(Debug)]
struct ShardResult {
    shard: u64,
    step: u64,
    base0: u64,
    cells: u64,
    footprint: u64,
    lane_counters: Vec<EventCounters>,
    nodes: Vec<TallyNode>,
    particles: ParticleSoA,
}

const SHARD_VERSION: u32 = 4;
const SHARD_FRAME: Frame = Frame {
    magic: b"NEUTSHRD",
    version: SHARD_VERSION,
};

impl ShardResult {
    /// Payload bytes of a result with this geometry.
    fn payload_len(n_lanes: usize, n_nodes: usize, cells: usize, particles: &ParticleSoA) -> usize {
        7 * 8
            + n_lanes * COUNTERS_RECORD_LEN
            + n_nodes * (16 + cells * 8)
            + particles_len(particles)
    }

    /// Serialize into `out`, emptied first.
    fn to_bytes(&self, out: Vec<u8>) -> Vec<u8> {
        let n_lanes = self.lane_counters.len();
        let payload_len = Self::payload_len(
            n_lanes,
            self.nodes.len(),
            self.cells as usize,
            &self.particles,
        );
        SHARD_FRAME.seal(out, payload_len, |out| {
            for v in [
                self.shard,
                self.step,
                self.base0,
                self.cells,
                self.footprint,
                n_lanes as u64,
                self.nodes.len() as u64,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for c in &self.lane_counters {
                put_counters(out, c);
            }
            for (lanes, mesh) in &self.nodes {
                out.extend_from_slice(&(lanes.start as u64).to_le_bytes());
                out.extend_from_slice(&(lanes.end as u64).to_le_bytes());
                put_f64s(out, mesh);
            }
            put_particles(out, &self.particles);
        })
    }

    fn from_bytes(buf: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = SHARD_FRAME.open(buf)?;
        let shard = r.u64()?;
        let step = r.u64()?;
        let base0 = r.u64()?;
        let cells = r.u64()?;
        let footprint = r.u64()?;
        let n_lanes = r.u64()?;
        let n_nodes = r.u64()?;

        // A corrupter can recompute the checksum, so these counts are as
        // untrusted as the bytes: size the counter and node blocks with
        // checked arithmetic and bound them by the payload actually
        // present before anything is allocated from them.
        let times = |count: u64, len: usize| usize::try_from(count).ok()?.checked_mul(len);
        let block = times(cells, 8)
            .and_then(|mesh| mesh.checked_add(16))
            .and_then(|node| times(n_nodes, node))
            .zip(times(n_lanes, COUNTERS_RECORD_LEN))
            .and_then(|(nodes, counters)| nodes.checked_add(counters));
        if block.is_none_or(|b| b > r.remaining()) {
            return Err(CheckpointError::Corrupt(format!(
                "{n_lanes} lane counters and {n_nodes} nodes of {cells} cells exceed the payload"
            )));
        }
        let (n_lanes, n_nodes, n_cells) = (n_lanes as usize, n_nodes as usize, cells as usize);
        let mut lane_counters = Vec::with_capacity(n_lanes);
        for _ in 0..n_lanes {
            lane_counters.push(read_counters(&mut r)?);
        }
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            // Nothing is sized from the lane ids; `decode` holds them
            // against the plan's cover.
            let start = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
            let end = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
            nodes.push((start..end, r.f64s(n_cells)?));
        }
        let particles = r.particles()?;

        Ok(Self {
            shard,
            step,
            base0,
            cells,
            footprint,
            lane_counters,
            nodes,
            particles,
        })
    }
}

/// Everything one shard attempt needs, owned so the attempt thread is
/// `'static` and can be abandoned if it hangs.
struct AttemptTask {
    sim: Arc<Simulation>,
    options: RunOptions,
    /// The shard's census-boundary column range.
    soa: ParticleSoA,
    step: usize,
    shard: usize,
    /// The shard's lanes, cut with the GLOBAL lane size — a tail shard
    /// must not recompute it locally.
    part: LanePartition,
    /// Global particle index of the range's first particle.
    base0: usize,
    /// The attempt's tally: a fold over the shard's global lanes that
    /// stops at their cover nodes — the nodes it ships — with its mesh
    /// pool allocated by the supervisor, not on the attempt thread. The
    /// meshes are the bulk of a step's memory: on the coordinator's heap
    /// the decoded result reuses the space the attempt freed before it
    /// reported, whereas a thread about to exit would hold them in its
    /// own allocator arena, which returns or keeps freed memory depending
    /// on how thread exits interleave — peak RSS then differs by a
    /// shard's meshes from one run to the next (DESIGN.md §11).
    accum: TallyAccum,
    /// The buffer the result is serialized into, sized for it by the
    /// supervisor — for the same reason. At one mesh per node it is
    /// small enough that the allocator would carve it from the attempt
    /// thread's arena, where the coordinator frees it after the thread
    /// is gone (`csp_t3_durable` peak RSS then read 167, 173 or 178 MB
    /// from run to run).
    wire: Vec<u8>,
    heartbeat: Arc<AtomicU64>,
}

/// One stateless shard attempt: the step engine's `begin_step` +
/// `run_step` over the shard's column range, which folds its lanes into
/// the tree nodes it ships, then serialization. Pure function of its
/// inputs — re-running it reproduces the same bytes (the `footprint`
/// diagnostic aside, above one worker).
fn run_attempt(task: AttemptTask) -> Vec<u8> {
    let AttemptTask {
        sim,
        options,
        mut soa,
        step,
        shard,
        part,
        base0,
        accum,
        wire,
        heartbeat,
    } = task;
    let problem = sim.problem();
    let cells = problem.mesh.num_cells();
    begin_step(&mut soa, problem.dt, step);
    heartbeat.fetch_add(1, Ordering::Relaxed);

    let (mut lane_counters, _timings) = run_step(&mut soa, &sim.ctx(), options, part, &accum);
    // Empty populations can yield fewer (or one placeholder) counter
    // slots; normalize to exactly one per owned lane.
    lane_counters.resize(part.n_lanes, EventCounters::default());
    heartbeat.fetch_add(1, Ordering::Relaxed);

    let result = ShardResult {
        shard: shard as u64,
        step: step as u64,
        base0: base0 as u64,
        cells: cells as u64,
        footprint: accum.footprint_bytes() as u64,
        lane_counters,
        nodes: accum.into_nodes(),
        particles: soa,
    };
    let bytes = result.to_bytes(wire);
    heartbeat.fetch_add(1, Ordering::Relaxed);
    bytes
}

/// A resumable solve executed as independent, supervised shards whose
/// merged results are bitwise identical to an unsharded [`SolveCore`]
/// run (see the module docs for the fault model). All solve state lives
/// in the wrapped core; this type adds the plan, the supervision and the
/// per-shard spill stores.
pub struct ShardedSolve {
    core: SolveCore,
    config: ShardConfig,
    plan: ShardPlan,
    stats: ShardStats,
    stores: Option<Vec<CheckpointStore>>,
}

impl ShardedSolve {
    /// Start a fresh sharded solve of `sim`'s problem.
    #[must_use]
    pub fn new(sim: &Simulation, options: RunOptions, config: ShardConfig) -> Self {
        Self::around(SolveCore::new(sim, options), config)
    }

    /// Resume a sharded solve of `sim`'s problem from a census-boundary
    /// checkpoint, rejected as [`SolveCore::from_checkpoint`] rejects it.
    /// The checkpoint is shard-count free: any `config` resumes it.
    pub fn resume(
        sim: &Simulation,
        options: RunOptions,
        config: ShardConfig,
        checkpoint: Checkpoint,
    ) -> Result<Self, CheckpointError> {
        let core = SolveCore::from_checkpoint(sim, options, checkpoint)?;
        Ok(Self::around(core, config))
    }

    /// The plan, and the spill stores when `config` names a base, over
    /// the coordinator state `core`.
    fn around(core: SolveCore, config: ShardConfig) -> Self {
        assert!(config.n_shards >= 1, "need at least one shard");
        let plan = ShardPlan::new(core.columns().len(), config.n_shards);
        let stores = config.checkpoint_base.as_ref().map(|base| {
            (0..config.n_shards)
                .map(|shard| CheckpointStore::new(spill_path(base, shard)))
                .collect()
        });
        Self {
            core,
            config,
            plan,
            stats: ShardStats::default(),
            stores,
        }
    }

    /// Whether every timestep has been executed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.core.is_done()
    }

    /// Timesteps completed so far.
    #[must_use]
    pub fn steps_done(&self) -> usize {
        self.core.steps_done()
    }

    /// The shard plan in force.
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Fault-handling counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// The fingerprint a shard's on-disk checkpoint carries: the config
    /// fingerprint mixed with the shard's coordinates, so a shard file
    /// can never resume the wrong shard (or the wrong shard count).
    #[must_use]
    pub fn shard_fingerprint(&self, shard: usize) -> u64 {
        let mut bytes = Vec::with_capacity(24);
        bytes.extend_from_slice(&self.core.fingerprint().to_le_bytes());
        bytes.extend_from_slice(&(shard as u64).to_le_bytes());
        bytes.extend_from_slice(&(self.plan.n_shards as u64).to_le_bytes());
        fnv1a64(bytes.into_iter())
    }

    /// Execute the next timestep. One shard with nothing to inject and
    /// nowhere to spill is the unsharded solve, stepped in place;
    /// otherwise every shard is supervised (with retry on failure) and
    /// the results are folded into the core exactly as an unsharded step
    /// folds its own. Returns `Ok(false)` (doing nothing) once all
    /// timesteps have run; a quarantined shard surfaces as
    /// [`ShardError::Quarantined`] and leaves the solve at the failed
    /// census boundary.
    pub fn step(&mut self, sim: &Arc<Simulation>) -> Result<bool, ShardError> {
        debug_assert_eq!(
            config_fingerprint(sim.problem(), self.core.options().scheme),
            self.core.fingerprint(),
            "ShardedSolve stepped against a different simulation"
        );
        if self.plan.n_shards == 1 && self.config.fault_plan.is_empty() && self.stores.is_none() {
            return Ok(self.core.step(sim));
        }
        if self.is_done() {
            return Ok(false);
        }
        let started = Instant::now();
        let mut results = Vec::with_capacity(self.plan.n_shards);
        for shard in 0..self.plan.n_shards {
            if self.plan.lane_range(shard).is_empty() {
                continue;
            }
            results.push(self.run_shard_with_retry(sim, shard)?);
        }

        // Shard order is global lane order: concatenating the per-lane
        // counters rebuilds the whole population's lane sequence.
        let lane_counters: Vec<EventCounters> = results
            .iter()
            .flat_map(|r| r.lane_counters.iter().copied())
            .collect();
        debug_assert_eq!(lane_counters.len(), self.plan.part.n_lanes);
        let cells = sim.problem().mesh.num_cells();
        let (workers, _) = execution_workers(self.core.options().execution);
        let merged = merge_shard_nodes(&results, cells, workers);
        // The attempts ran one after another: the step's high-water is
        // the largest of theirs, not their sum.
        let footprint = results
            .iter()
            .map(|r| r.footprint as usize)
            .max()
            .unwrap_or(0);
        for r in &results {
            self.core
                .columns_mut()
                .write_at(r.base0 as usize, &r.particles);
        }
        // Kernel timings are diagnostics, excluded from the bitwise
        // contract, and do not travel on the wire.
        self.core
            .fold_step(&lane_counters, &merged, footprint, None, started);
        Ok(true)
    }

    /// Snapshot the complete resumable state at the current census
    /// boundary — the wrapped core's checkpoint, so it resumes through
    /// the ordinary unsharded restart path.
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        self.core.checkpoint()
    }

    /// Finish the solve and build the report.
    #[must_use]
    pub fn finish(self) -> RunReport {
        self.core.finish()
    }

    /// The input population for an attempt of `shard`: a copy of its
    /// census-boundary column range or — on retries with stores
    /// configured — the columns reloaded through the on-disk protocol and
    /// checked like a resumed population. With stores, a first attempt's
    /// copy is written through the shard's crash-safe store before it
    /// runs, so a retry can prove durable recovery: one copy per shard
    /// and step, encoded and then handed to the attempt.
    fn attempt_input(
        &self,
        sim: &Simulation,
        shard: usize,
        retry: bool,
    ) -> Result<ParticleSoA, ShardError> {
        if retry {
            if let Some(stores) = &self.stores {
                let (ckpt, _recovery) = stores[shard].load().map_err(ShardError::Checkpoint)?;
                if ckpt.fingerprint != self.shard_fingerprint(shard)
                    || ckpt.next_step != self.core.steps_done()
                {
                    return Err(ShardError::Corrupt {
                        shard,
                        detail: "shard checkpoint does not match this shard/step".to_owned(),
                    });
                }
                let (range, mesh) = (self.plan.particle_range(shard), &sim.problem().mesh);
                ckpt.particles
                    .check_population(range.start, range.len(), mesh.nx(), mesh.ny())
                    .map_err(|e| ShardError::Checkpoint(CheckpointError::Corrupt(e)))?;
                return Ok(ckpt.particles);
            }
        }
        let particles = self.core.columns().slice(self.plan.particle_range(shard));
        let Some(stores) = self.stores.as_ref().filter(|_| !retry) else {
            return Ok(particles);
        };
        let ckpt = Checkpoint {
            fingerprint: self.shard_fingerprint(shard),
            next_step: self.core.steps_done(),
            n_timesteps: self.core.n_timesteps(),
            elapsed: Duration::ZERO,
            tally_footprint_bytes: 0,
            counters: EventCounters::default(),
            tally: Vec::new(),
            particles,
        };
        stores[shard].save(&ckpt).map_err(ShardError::Checkpoint)?;
        Ok(ckpt.particles)
    }

    fn run_shard_with_retry(
        &mut self,
        sim: &Arc<Simulation>,
        shard: usize,
    ) -> Result<ShardResult, ShardError> {
        let max_retries = self.config.max_retries;
        let mut last_error = None;
        for attempt in 0..=max_retries {
            if attempt > 0 {
                let backoff = self.config.backoff * 2u32.pow((attempt as u32 - 1).min(16));
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            let input = self.attempt_input(sim, shard, attempt > 0)?;
            let fault = self.config.fault_plan.take(shard);
            self.stats.attempts += 1;
            match self.supervise(sim, shard, input, fault) {
                Ok(result) => {
                    if attempt > 0 {
                        self.stats.requeues += 1;
                    }
                    return Ok(result);
                }
                Err(e) => {
                    if attempt < max_retries {
                        self.stats.retries += 1;
                    }
                    last_error = Some(e);
                }
            }
        }
        self.stats.quarantined += 1;
        Err(ShardError::Quarantined {
            shard,
            attempts: max_retries + 1,
            cause: Box::new(last_error.expect("at least one attempt ran")),
        })
    }

    /// Everything an attempt of `shard` over the columns `soa` needs,
    /// with its bulk storage — the fold's mesh pool, the wire buffer —
    /// allocated here, on the supervisor's thread (see
    /// [`AttemptTask::accum`]).
    fn attempt_task(&self, sim: &Arc<Simulation>, shard: usize, soa: ParticleSoA) -> AttemptTask {
        let problem = sim.problem();
        let cells = problem.mesh.num_cells();
        let lanes = self.plan.lane_range(shard);
        let part = LanePartition {
            n_items: soa.len(),
            lane_size: self.plan.part.lane_size,
            n_lanes: lanes.len(),
        };
        let n_nodes = tree_cover(self.plan.part.n_lanes, lanes.clone()).len();
        let wire_len =
            Frame::wire_len(ShardResult::payload_len(part.n_lanes, n_nodes, cells, &soa));
        let options = self.core.options();
        let (workers, _) = execution_workers(options.execution);
        AttemptTask {
            sim: Arc::clone(sim),
            options,
            part,
            soa,
            step: self.core.steps_done(),
            shard,
            base0: self.plan.particle_range(shard).start,
            accum: TallyAccum::for_lanes(cells, self.plan.part.n_lanes, lanes, workers),
            wire: Vec::with_capacity(wire_len),
            heartbeat: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Run one attempt of `shard` on its own thread under heartbeat
    /// supervision. `fault`, when set, is injected into the attempt.
    fn supervise(
        &mut self,
        sim: &Arc<Simulation>,
        shard: usize,
        soa: ParticleSoA,
        fault: Option<ShardFaultKind>,
    ) -> Result<ShardResult, ShardError> {
        let task = self.attempt_task(sim, shard, soa);
        let heartbeat = Arc::clone(&task.heartbeat);
        let cancel = Arc::new(AtomicBool::new(false));
        let cancel_attempt = Arc::clone(&cancel);
        let (tx, rx) = mpsc::channel::<Result<Vec<u8>, ShardError>>();

        let handle = std::thread::spawn(move || {
            match fault {
                // A killed worker: exit without reporting anything — the
                // supervisor sees the channel close.
                Some(ShardFaultKind::Kill) => return,
                // A wedged worker: no progress, no exit (until the
                // supervisor abandons the attempt and cancels it).
                Some(ShardFaultKind::Hang) => {
                    while !cancel_attempt.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    return;
                }
                _ => {}
            }
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if fault == Some(ShardFaultKind::Panic) {
                    panic!("injected shard panic");
                }
                run_attempt(task)
            }));
            let message = match outcome {
                Ok(mut bytes) => {
                    if fault == Some(ShardFaultKind::Corrupt) {
                        let mid = bytes.len() / 2;
                        bytes[mid] ^= 0xFF;
                    }
                    Ok(bytes)
                }
                Err(payload) => Err(ShardError::Panicked {
                    shard,
                    detail: panic_text(payload.as_ref()),
                }),
            };
            let _ = tx.send(message);
        });

        let poll = (self.config.heartbeat_timeout / 4)
            .clamp(Duration::from_millis(1), Duration::from_millis(50));
        let mut last_beat = 0;
        let mut last_progress = Instant::now();
        let verdict = loop {
            match rx.recv_timeout(poll) {
                Ok(Ok(bytes)) => {
                    self.stats.wire_bytes += bytes.len() as u64;
                    break self.decode(sim, shard, &bytes);
                }
                Ok(Err(e)) => break Err(e),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    let beat = heartbeat.load(Ordering::Relaxed);
                    if beat != last_beat {
                        last_beat = beat;
                        last_progress = Instant::now();
                    } else if last_progress.elapsed() >= self.config.heartbeat_timeout {
                        // Abandon the wedged thread: cancel lets an
                        // injected hang exit; a genuinely stuck thread
                        // leaks, which is the price of not blocking the
                        // whole solve on it.
                        cancel.store(true, Ordering::Relaxed);
                        break Err(ShardError::Hung { shard });
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    break Err(ShardError::Killed { shard });
                }
            }
        };
        if !matches!(verdict, Err(ShardError::Hung { .. })) {
            let _ = handle.join();
        }
        verdict
    }

    /// Deserialize and validate a shard's reported result: the frame and
    /// body through the shared codec, then identity, geometry and node
    /// cover against the plan, and the columns through the population
    /// check a resume runs.
    fn decode(
        &self,
        sim: &Simulation,
        shard: usize,
        bytes: &[u8],
    ) -> Result<ShardResult, ShardError> {
        let corrupt = |detail: String| ShardError::Corrupt { shard, detail };
        let result = ShardResult::from_bytes(bytes).map_err(|e| corrupt(e.to_string()))?;
        let mesh = &sim.problem().mesh;
        let range = self.plan.particle_range(shard);
        let lanes = self.plan.lane_range(shard);
        if result.shard != shard as u64
            || result.step != self.core.steps_done() as u64
            || result.base0 != range.start as u64
        {
            return Err(corrupt(
                "result identity does not match this shard/step".to_owned(),
            ));
        }
        if result.cells != mesh.num_cells() as u64 || result.lane_counters.len() != lanes.len() {
            return Err(corrupt(
                "result geometry does not match the shard plan".to_owned(),
            ));
        }
        let cover = tree_cover(self.plan.part.n_lanes, lanes);
        if !result.nodes.iter().map(|(node, _)| node).eq(&cover) {
            let found: Vec<_> = result.nodes.iter().map(|(node, _)| node).collect();
            return Err(corrupt(format!(
                "node lane ranges {found:?} are not the shard's cover {cover:?}"
            )));
        }
        result
            .particles
            .check_population(range.start, range.len(), mesh.nx(), mesh.ny())
            .map_err(corrupt)?;
        Ok(result)
    }
}

/// The step's merged mesh from the shards' decoded tree nodes. Shard
/// order is global lane order, so the borrowed nodes, concatenated, tile
/// the whole lane space — and the merge that finishes the tree above
/// them computes the root an unsharded step's fold ends in.
fn merge_shard_nodes(results: &[ShardResult], cells: usize, workers: usize) -> Vec<f64> {
    let nodes: Vec<(Range<usize>, &[f64])> = results
        .iter()
        .flat_map(|r| &r.nodes)
        .map(|(lanes, mesh)| (lanes.clone(), mesh.as_slice()))
        .collect();
    let mut merged = vec![0.0; cells];
    merge_nodes_pairwise(&nodes, &mut merged, workers);
    merged
}

/// Render a caught panic payload for error reporting: a shard attempt's,
/// a registry chunk's or a fuzz case's.
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Shard `shard`'s spill store next to the checkpoint `base`:
/// `<base>.shard<shard>`.
pub(crate) fn spill_path(base: &Path, shard: usize) -> PathBuf {
    let mut path = base.as_os_str().to_owned();
    path.push(format!(".shard{shard}"));
    PathBuf::from(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::{assert_frame_detects, old_style_frame, reseal};
    use crate::sim::Execution;

    #[test]
    fn fault_plan_round_trips() {
        let plan: ShardFaultPlan = "kill@1,corrupt@0:2,hang@3".parse().unwrap();
        assert_eq!(plan.faults().len(), 3);
        assert_eq!(
            plan.faults()[1],
            ShardFault {
                kind: ShardFaultKind::Corrupt,
                shard: 0,
                count: 2
            }
        );
        assert_eq!(plan.to_string(), "kill@1,corrupt@0:2,hang@3");
        assert_eq!(plan.to_string().parse::<ShardFaultPlan>().unwrap(), plan);
        assert!(ShardFaultPlan::from_str("").unwrap().is_empty());
        assert!("explode@1".parse::<ShardFaultPlan>().is_err());
        assert!("kill@x".parse::<ShardFaultPlan>().is_err());
        assert!("kill@1:0".parse::<ShardFaultPlan>().is_err());
    }

    #[test]
    fn fault_plan_charges_burn_out() {
        let mut plan: ShardFaultPlan = "kill@2:2".parse().unwrap();
        assert_eq!(plan.take(0), None);
        assert_eq!(plan.take(2), Some(ShardFaultKind::Kill));
        assert_eq!(plan.take(2), Some(ShardFaultKind::Kill));
        assert_eq!(plan.take(2), None);
    }

    #[test]
    fn shard_plan_partitions_lanes_and_particles() {
        for n_items in [0usize, 1, 31, 100, 1000, 4096] {
            for n_shards in [1usize, 2, 3, 5, 32, 40] {
                let plan = ShardPlan::new(n_items, n_shards);
                let mut lanes_seen = 0;
                let mut items_seen = 0;
                for shard in 0..n_shards {
                    let lanes = plan.lane_range(shard);
                    let items = plan.particle_range(shard);
                    assert_eq!(lanes.start, lanes_seen, "lanes must be contiguous");
                    assert_eq!(items.start.min(n_items), items_seen.min(n_items));
                    lanes_seen = lanes.end;
                    items_seen = items.end;
                }
                assert_eq!(lanes_seen, plan.part.n_lanes, "lanes must be covered");
                assert_eq!(items_seen, n_items, "particles must be covered");
            }
        }
    }

    fn sample_result() -> ShardResult {
        ShardResult {
            shard: 1,
            step: 3,
            base0: 13,
            cells: 2,
            footprint: 64,
            lane_counters: vec![EventCounters {
                collisions: 11,
                lost_energy_ev: 0.5,
                ..EventCounters::default()
            }],
            nodes: vec![(4..5, vec![1.25, -3.5])],
            particles: crate::checkpoint::tests::pinned_particles(),
        }
    }

    /// Payload words (behind magic, version and payload length): shard,
    /// step, base0, cells, footprint, n_lanes, n_nodes — the byte offset
    /// of word `k`.
    fn header_word(k: usize) -> usize {
        8 + 4 + 8 + 8 * k
    }

    /// Byte offset of node `k`'s first-lane word (its end-lane word
    /// follows) in a result with `n_lanes` lane counters; node `n_nodes`
    /// is the particle count.
    fn node_word(n_lanes: usize, cells: usize, k: usize) -> usize {
        header_word(7) + n_lanes * COUNTERS_RECORD_LEN + k * (16 + cells * 8)
    }

    /// Byte offset of particle `i`'s `cellx` in a result of `n`
    /// particles whose count word sits at `count_off`: behind the count,
    /// eight `f64` columns.
    fn cellx_byte(count_off: usize, n: usize, i: usize) -> usize {
        count_off + 8 + 8 * 8 * n + 4 * i
    }

    /// Overwrite the `u64` at `off` and recompute the trailing checksum —
    /// what a corrupter that knows the format would do.
    fn rewrite_and_reseal(bytes: &mut [u8], off: usize, value: u64) {
        bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
        reseal(bytes);
    }

    #[test]
    fn shard_result_codec_round_trips_and_detects_corruption() {
        let result = sample_result();
        let bytes = result.to_bytes(Vec::new());
        let back = ShardResult::from_bytes(&bytes).unwrap();
        assert_eq!(back.shard, 1);
        assert_eq!(back.step, 3);
        assert_eq!(back.lane_counters, result.lane_counters);
        assert_eq!(back.nodes, result.nodes);
        assert_eq!(back.particles, result.particles);

        let mut torn = bytes.clone();
        torn.truncate(bytes.len() - 3);
        assert!(ShardResult::from_bytes(&torn).is_err());

        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        let err = ShardResult::from_bytes(&flipped).unwrap_err();
        assert!(
            matches!(err, CheckpointError::ChecksumMismatch { .. }),
            "got: {err}"
        );

        // The record-per-particle wire format is gone, not forked: a
        // version-2 buffer is refused by name, valid checksum or not.
        let mut v2 = bytes;
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        rewrite_and_reseal(&mut v2, header_word(0), 1);
        let err = ShardResult::from_bytes(&v2).unwrap_err();
        assert!(
            matches!(err, CheckpointError::UnsupportedVersion(2)),
            "got: {err}"
        );
    }

    /// The shard-result twin of the checkpoint's frame test, on a
    /// 446-byte result (no multiple of 8); a version-3 result under its
    /// old FNV-1a trailer is refused by version.
    #[test]
    fn shard_frame_detects_flips_swaps_and_length_changes() {
        let bytes = sample_result().to_bytes(Vec::new());
        assert_frame_detects(&bytes, |b| ShardResult::from_bytes(b).map(drop));
        assert!(matches!(
            ShardResult::from_bytes(&old_style_frame(&bytes, 3)),
            Err(CheckpointError::UnsupportedVersion(3))
        ));
    }

    /// The wire layout, pinned: the FNV-1a digest of a hand-built result.
    /// A layout change passes every round-trip test but this one, and
    /// must bump `SHARD_VERSION` and re-pin.
    #[test]
    fn shard_wire_layout_is_pinned() {
        let bytes = sample_result().to_bytes(Vec::new());
        assert_eq!(
            bytes.len(),
            20 + 7 * 8 + 128 + (16 + 2 * 8) + 8 + 2 * 97 + 8
        );
        assert_eq!(
            fnv1a64(bytes.iter().copied()),
            0xd495_bc64_e4eb_1e32,
            "the NEUTSHRD layout changed: bump SHARD_VERSION and re-pin"
        );
    }

    /// The coordinator's merge over nodes that crossed the wire is the
    /// unsharded fold: deposit the same lane sequences into one
    /// whole-tree accumulator and — cut into 1, 2, 3, 5 and 7 shards —
    /// into one accumulator over each shard's lanes, as an attempt does;
    /// round-trip each shard's nodes through the codec, and the replay
    /// must land on the whole tree's root bits for any worker count.
    #[test]
    fn coordinator_merge_over_decoded_nodes_equals_unsharded_merge() {
        let (cells, n_items) = (5000, 1000);
        let part = LanePartition::new(n_items, DEFAULT_LANES);
        let deposit = |accum: &TallyAccum| {
            for l in accum.lanes() {
                let mut view = accum.open(l);
                for i in 0..400 {
                    let cell = (l * 613 + i * 37) % cells;
                    view.add(cell, 0.1 + ((l * 31 + i * 7) % 100) as f64 * 1.7e-3);
                }
            }
        };
        let whole = TallyAccum::for_lanes(cells, part.n_lanes, 0..part.n_lanes, 1);
        deposit(&whole);
        let expect = whole.merge();
        for n_shards in [1usize, 2, 3, 5, 7] {
            let plan = ShardPlan::new(n_items, n_shards);
            let results: Vec<ShardResult> = (0..n_shards)
                .map(|shard| {
                    let owned = plan.lane_range(shard);
                    let accum = TallyAccum::for_lanes(cells, part.n_lanes, owned.clone(), 2);
                    deposit(&accum);
                    let sent = ShardResult {
                        shard: shard as u64,
                        cells: cells as u64,
                        lane_counters: vec![EventCounters::default(); owned.len()],
                        nodes: accum.into_nodes(),
                        particles: ParticleSoA::default(),
                        ..sample_result()
                    };
                    ShardResult::from_bytes(&sent.to_bytes(Vec::new())).unwrap()
                })
                .collect();
            for workers in [1, 2, 7] {
                let merged = merge_shard_nodes(&results, cells, workers);
                assert!(
                    merged
                        .iter()
                        .zip(&expect)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{n_shards} shards, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn huge_lane_geometry_with_valid_checksum_fails_cleanly() {
        // The shard-result twin of the checkpoint suite's hostile-header
        // test: a corrupter can recompute the checksum, so `cells`,
        // `n_lanes` and `n_nodes` are untrusted. Plant values whose
        // byte-size products wrap usize and re-checksum; the decoder must
        // name the corruption instead of overflowing (a debug-build panic
        // on the unsupervised coordinator thread) or allocating from the
        // header.
        let bytes = sample_result().to_bytes(Vec::new());
        let (cells, n_lanes, n_nodes) = (header_word(3), header_word(5), header_word(6));
        for (off, was) in [(cells, 2), (n_lanes, 1), (n_nodes, 1)] {
            assert_eq!(
                u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()),
                was,
                "test out of sync with the payload layout"
            );
        }
        for (off, huge) in [
            // (1<<61)+1 cells: `cells * 8` wraps to 8.
            (cells, (1u64 << 61) + 1),
            (cells, u64::MAX),
            // `cells * 8 + 16` wraps with the product still in range.
            (cells, (1u64 << 61) - 1),
            // Wrap the counter or node block while each factor fits.
            (n_lanes, u64::MAX / 2 + 3),
            (n_lanes, 1 << 40),
            (n_nodes, u64::MAX / 2 + 3),
            (n_nodes, u64::MAX / 24 + 2),
            (n_nodes, 1 << 40),
            // The fewest records the bytes present cannot hold.
            (n_lanes, 3),
            (n_nodes, 8),
        ] {
            let mut evil = bytes.clone();
            rewrite_and_reseal(&mut evil, off, huge);
            let err = ShardResult::from_bytes(&evil).unwrap_err().to_string();
            assert!(err.contains("exceed the payload"), "field at {off}: {err}");
        }
    }

    /// A 3-shard solve over a 16² csp: 50 particles in 25 lanes, so the
    /// shards' lane ranges sit off the tree's node boundaries and every
    /// cover has several nodes.
    fn small_sharded_solve() -> (Arc<Simulation>, ShardedSolve) {
        use crate::config::{ProblemScale, TestCase};
        let scale = ProblemScale {
            mesh_cells: 16,
            particle_divisor: 20_000,
        };
        let problem = TestCase::Csp.build(scale, 11);
        let sim = Arc::new(Simulation::new(problem));
        let options = RunOptions {
            execution: Execution::Sequential,
            ..RunOptions::default()
        };
        let solve = ShardedSolve::new(&sim, options, ShardConfig::new(3));
        (sim, solve)
    }

    /// The bytes a clean attempt of `shard` reports.
    fn attempt_bytes(sim: &Arc<Simulation>, solve: &ShardedSolve, shard: usize) -> Vec<u8> {
        let input = solve.attempt_input(sim, shard, false).unwrap();
        run_attempt(solve.attempt_task(sim, shard, input))
    }

    /// `decode`'s verdict on `bytes` as a named corruption of `shard`.
    fn corrupt_detail(
        sim: &Simulation,
        solve: &ShardedSolve,
        shard: usize,
        bytes: &[u8],
    ) -> String {
        match solve.decode(sim, shard, bytes) {
            Err(ShardError::Corrupt { shard: s, detail }) if s == shard => detail,
            other => panic!("expected a corrupt-result error, got {other:?}"),
        }
    }

    /// The coordinator finishes the tree above whatever nodes a result
    /// names, so it accepts exactly the canonical cover of the shard's
    /// planned lanes: any other set of ranges — under a recomputed,
    /// valid checksum — is a named corruption.
    #[test]
    fn decode_rejects_node_ranges_that_are_not_the_planned_cover() {
        let (sim, solve) = small_sharded_solve();
        let cells = sim.problem().mesh.num_cells();
        assert_eq!(solve.plan().part.n_lanes, 25);
        let shard = 1;
        let cover = [8..9, 9..12, 12..15, 15..16];
        assert_eq!(tree_cover(25, solve.plan().lane_range(shard)), cover);
        let bytes = attempt_bytes(&sim, &solve, shard);
        let decoded = solve.decode(&sim, shard, &bytes).expect("clean result");
        assert!(decoded.nodes.iter().map(|(node, _)| node).eq(&cover));

        let node = |k: usize| node_word(8, cells, k);
        for (what, off, value) in [
            ("overlapping", node(1), 8),
            ("gapped", node(1), 10),
            ("out of the shard's range", node(3) + 8, 17),
            ("out of the lane space", node(3) + 8, 40),
            ("out of any lane space", node(3) + 8, u64::MAX),
            ("reversed", node(0), 10),
            ("empty", node(1) + 8, 9),
        ] {
            let mut evil = bytes.clone();
            rewrite_and_reseal(&mut evil, off, value);
            let detail = corrupt_detail(&sim, &solve, shard, &evil);
            assert!(detail.contains("not the shard's cover"), "{what}: {detail}");
        }
        // A seam moved on both sides still tiles 8..16 — with 8..10 and
        // 10..12, neither of them a node of the tree over 25 lanes.
        let mut evil = bytes.clone();
        rewrite_and_reseal(&mut evil, node(0) + 8, 10);
        rewrite_and_reseal(&mut evil, node(1), 10);
        let detail = corrupt_detail(&sim, &solve, shard, &evil);
        assert!(
            detail.contains("not the shard's cover"),
            "non-node: {detail}"
        );

        // Another shard's (canonical) result is refused by identity.
        let other = attempt_bytes(&sim, &solve, 0);
        let detail = corrupt_detail(&sim, &solve, shard, &other);
        assert!(detail.contains("identity"), "{detail}");
    }

    /// A retry's input reloaded from a shard store goes through the same
    /// population check as a resume: a particle off the mesh is a named
    /// corruption, not a panic inside the attempt.
    #[test]
    fn retry_reload_refuses_off_mesh_records() {
        use crate::config::{ProblemScale, TestCase};
        let dir =
            std::env::temp_dir().join(format!("neutral_shard_offmesh_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sim = Arc::new(Simulation::new(
            TestCase::Csp.build(ProblemScale::tiny(), 11),
        ));
        let mut config = ShardConfig::new(3);
        config.checkpoint_base = Some(dir.join("run.ckpt"));
        let options = RunOptions {
            execution: Execution::Sequential,
            ..RunOptions::default()
        };
        let solve = ShardedSolve::new(&sim, options, config);
        let shard = 1;
        solve.attempt_input(&sim, shard, false).unwrap();
        assert!(solve.attempt_input(&sim, shard, true).is_ok());

        let store = &solve.stores.as_ref().unwrap()[shard];
        let (mut ckpt, _) = store.load().unwrap();
        let nx = sim.problem().mesh.nx();
        ckpt.particles.cellx[5] = nx as u32;
        store.save(&ckpt).unwrap();
        match solve.attempt_input(&sim, shard, true) {
            Err(ShardError::Checkpoint(CheckpointError::Corrupt(msg))) => {
                assert!(msg.starts_with("particle 5 lies in cell"), "{msg}");
                assert!(msg.contains(&format!("off the {nx}x{nx} mesh")), "{msg}");
            }
            other => panic!("{:?}", other.map(|_| "reloaded")),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A result whose particle sits one column off the mesh, under a
    /// recomputed checksum, is a named corruption at decode — before the
    /// coordinator installs it and a kernel indexes the mesh through it.
    #[test]
    fn decode_refuses_off_mesh_particles() {
        let (sim, solve) = small_sharded_solve();
        let (nx, cells) = (sim.problem().mesh.nx(), sim.problem().mesh.num_cells());
        let shard = 1;
        let bytes = attempt_bytes(&sim, &solve, shard);
        let lanes = solve.plan().lane_range(shard);
        let n_nodes = tree_cover(solve.plan().part.n_lanes, lanes.clone()).len();
        let count_off = node_word(lanes.len(), cells, n_nodes);
        let n = solve.plan().particle_range(shard).len();
        let off = cellx_byte(count_off, n, 3);
        let mut evil = bytes.clone();
        evil[off..off + 4].copy_from_slice(&(nx as u32).to_le_bytes());
        reseal(&mut evil);
        let detail = corrupt_detail(&sim, &solve, shard, &evil);
        assert!(
            detail.starts_with(&format!("particle 3 lies in cell ({nx}, ")),
            "{detail}"
        );
        assert!(solve.decode(&sim, shard, &bytes).is_ok());
    }

    /// A spilled shard input whose particles were permuted under a valid
    /// checksum fails at reload, named — not later, as attempts that
    /// retry until quarantine.
    #[test]
    fn retry_reload_refuses_permuted_particles() {
        use crate::config::{ProblemScale, TestCase};
        let dir =
            std::env::temp_dir().join(format!("neutral_shard_permuted_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sim = Arc::new(Simulation::new(
            TestCase::Csp.build(ProblemScale::tiny(), 11),
        ));
        let mut config = ShardConfig::new(3);
        config.checkpoint_base = Some(dir.join("run.ckpt"));
        let options = RunOptions {
            execution: Execution::Sequential,
            ..RunOptions::default()
        };
        let solve = ShardedSolve::new(&sim, options, config);
        let shard = 1;
        solve.attempt_input(&sim, shard, false).unwrap();
        let store = &solve.stores.as_ref().unwrap()[shard];
        let (mut ckpt, _) = store.load().unwrap();
        let base = solve.plan().particle_range(shard).start;
        ckpt.particles.key.swap(2, 3);
        store.save(&ckpt).unwrap();
        match solve.attempt_input(&sim, shard, true) {
            Err(ShardError::Checkpoint(CheckpointError::Corrupt(msg))) => assert_eq!(
                msg,
                format!(
                    "particles are not in key order (particle 2 of the range has key {})",
                    base + 3
                )
            ),
            other => panic!("{:?}", other.map(|_| "reloaded")),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Byte-level mutation fuzz of the `NEUTSHRD` decoder: 2 400 seeded
    /// mutations of a valid multi-node result — bit flips, truncations,
    /// extensions, and rewrites of every validated header field with the
    /// checksum recomputed — each refused as a named corruption of the
    /// shard, without a panic and without one allocation larger than the
    /// buffer it was handed (the error's own text aside). (`footprint` is
    /// the one header word left out: it is a diagnostic the coordinator
    /// has nothing to hold against, so a resealed rewrite of it decodes.)
    #[test]
    fn decoder_mutation_fuzz_always_names_the_corruption() {
        /// Upper bound on the `String` an error names its cause in.
        const ERROR_TEXT: usize = 512;
        let (sim, solve) = small_sharded_solve();
        let cells = sim.problem().mesh.num_cells();
        let shard = 1;
        let bytes = attempt_bytes(&sim, &solve, shard);
        let lanes = solve.plan().lane_range(shard);
        let n_nodes = tree_cover(solve.plan().part.n_lanes, lanes.clone()).len();
        let node = |k: usize| node_word(lanes.len(), cells, k);
        // Every `u64` the decoder or the plan check validates: payload
        // length, the header words but `footprint`, each node's lane
        // range, and the particle count behind the last node.
        let mut fields = vec![12, node(n_nodes)];
        fields.extend([0, 1, 2, 3, 5, 6].map(header_word));
        fields.extend((0..n_nodes).flat_map(|k| [node(k), node(k) + 8]));

        let mut state = 20_170_905u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for case in 0..2_400 {
            let mut evil = bytes.clone();
            let what = match case % 4 {
                0 => {
                    let bit = next() as usize % (evil.len() * 8);
                    evil[bit / 8] ^= 1 << (bit % 8);
                    format!("bit {bit} flipped")
                }
                1 => {
                    evil.truncate(next() as usize % evil.len());
                    format!("truncated to {}", evil.len())
                }
                2 => {
                    let extra = 1 + next() as usize % 64;
                    evil.extend((0..extra).map(|_| next() as u8));
                    format!("extended by {extra}")
                }
                _ => {
                    let off = fields[next() as usize % fields.len()];
                    let old = u64::from_le_bytes(evil[off..off + 8].try_into().unwrap());
                    let new = match next() % 6 {
                        0 => old.wrapping_add(1),
                        1 => old.wrapping_sub(1),
                        2 => next() % 64,
                        3 => 1 << (next() % 64),
                        4 => u64::MAX - next() % 4,
                        _ => next(),
                    };
                    let new = if new == old { !old } else { new };
                    rewrite_and_reseal(&mut evil, off, new);
                    format!("u64 at {off}: {old} -> {new}, resealed")
                }
            };
            let (verdict, largest) =
                crate::alloc_probe::largest_during(|| solve.decode(&sim, shard, &evil));
            match verdict {
                Err(ShardError::Corrupt { shard: s, detail }) => {
                    assert_eq!(s, shard, "case {case} ({what})");
                    assert!(!detail.is_empty(), "case {case} ({what})");
                }
                other => panic!("case {case} ({what}): {:?}", other.map(|_| "decoded")),
            }
            assert!(
                largest <= evil.len().max(ERROR_TEXT),
                "case {case} ({what}): allocated {largest} B for a {} B buffer",
                evil.len()
            );
        }
    }
}
