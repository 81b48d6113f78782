//! Sharded solves with fault-tolerant shard execution (DESIGN.md §18).
//!
//! A sharded solve cuts the population's **global lane space** into
//! contiguous shard ranges and runs each timestep of each shard as an
//! independent, stateless attempt on its own worker thread: the attempt
//! receives a copy of the shard's census-boundary column range, runs the
//! step engine's `begin_step` + `run_step` over it with the *global*
//! lane geometry, and hands back a serialized `ShardResult` (the tally
//! as merge-tree nodes, per-lane counters, post-step particle records).
//! The coordinator — a [`SolveCore`] — installs the records and closes
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
//! instead of sixteen.
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
    check_cells_on_mesh, config_fingerprint, fnv1a64, put_counters, put_f64s, put_particle,
    read_counters, read_particle, Checkpoint, CheckpointError, CheckpointStore, Reader,
    COUNTERS_RECORD_LEN, PARTICLE_RECORD_LEN,
};
use crate::counters::EventCounters;
use crate::particle::{first_out_of_key_order, Particle};
use crate::sim::{RunOptions, RunReport, Simulation, SolveCore};
use crate::soa::ParticleSoA;
use crate::step::{begin_step, execution_workers, run_step};
use neutral_mesh::accum::{merge_nodes_pairwise, tree_cover, DEFAULT_LANES};
use neutral_mesh::{LanePartition, TallyAccum};
use std::fmt;
use std::ops::Range;
use std::path::PathBuf;
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
    /// A plan holding `faults`.
    #[must_use]
    pub fn new(faults: Vec<ShardFault>) -> Self {
        Self { faults }
    }

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

impl ShardStats {
    /// Accumulate `other` into `self`.
    pub fn merge(&mut self, other: &ShardStats) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.requeues += other.requeues;
        self.quarantined += other.quarantined;
        self.wire_bytes += other.wire_bytes;
    }
}

/// A node of the global merge tree as a shard ships it: the global lanes
/// it spans and their pairwise-reduced mesh.
type TallyNode = (Range<usize>, Vec<f64>);

/// The serialized unit a shard attempt hands back to the coordinator:
/// the shard's tally as the merge-tree nodes covering its lanes, per-lane
/// counters (census energy left to the coordinator's fold), and the
/// post-step particle records. Always round-tripped through bytes — shard
/// attempts behave like remote processes, which both exercises the codec
/// on every step and gives the `corrupt` fault a realistic surface.
///
/// Wire layout (version 2, little-endian; the wire is in-process and
/// lives for one step, so there is no version-1 reader):
///
/// | bytes | field |
/// |---|---|
/// | 8 + 4 + 8 | magic `NEUTSHRD`, version, payload length |
/// | 7 × 8 | `shard`, `step`, `base0`, `cells`, `footprint`, `n_lanes`, `n_nodes` |
/// | `n_lanes` × 136 | per-lane counters |
/// | `n_nodes` × (16 + `cells` × 8) | per node: first lane, end lane, mesh |
/// | 8 + n × 97 | particle count, particle records |
/// | 8 | FNV-1a 64 of every byte before it |
#[derive(Debug)]
struct ShardResult {
    shard: u64,
    step: u64,
    base0: u64,
    cells: u64,
    footprint: u64,
    lane_counters: Vec<EventCounters>,
    nodes: Vec<TallyNode>,
    particles: Vec<Particle>,
}

const SHARD_MAGIC: &[u8; 8] = b"NEUTSHRD";
const SHARD_VERSION: u32 = 2;
/// magic + version + payload length.
const SHARD_HEADER_LEN: usize = 8 + 4 + 8;

impl ShardResult {
    /// Serialized bytes of a result with this geometry.
    fn wire_len(n_lanes: usize, n_nodes: usize, cells: usize, n_particles: usize) -> usize {
        let payload = 7 * 8
            + n_lanes * COUNTERS_RECORD_LEN
            + n_nodes * (16 + cells * 8)
            + 8
            + n_particles * PARTICLE_RECORD_LEN;
        SHARD_HEADER_LEN + payload + 8
    }

    /// Serialize into `out`, emptied first.
    fn to_bytes(&self, mut out: Vec<u8>) -> Vec<u8> {
        let n_lanes = self.lane_counters.len();
        let wire_len = Self::wire_len(
            n_lanes,
            self.nodes.len(),
            self.cells as usize,
            self.particles.len(),
        );
        let payload_len = wire_len - SHARD_HEADER_LEN - 8;
        out.clear();
        out.reserve(wire_len);
        out.extend_from_slice(SHARD_MAGIC);
        out.extend_from_slice(&SHARD_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload_len as u64).to_le_bytes());

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
            put_counters(&mut out, c);
        }
        for (lanes, mesh) in &self.nodes {
            out.extend_from_slice(&(lanes.start as u64).to_le_bytes());
            out.extend_from_slice(&(lanes.end as u64).to_le_bytes());
            put_f64s(&mut out, mesh);
        }
        out.extend_from_slice(&(self.particles.len() as u64).to_le_bytes());
        for p in &self.particles {
            put_particle(&mut out, p);
        }

        debug_assert_eq!(out.len(), SHARD_HEADER_LEN + payload_len);
        let checksum = fnv1a64(out.iter().copied());
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    fn from_bytes(buf: &[u8]) -> Result<Self, String> {
        if buf.len() < SHARD_HEADER_LEN + 8 {
            return Err("truncated shard result".to_owned());
        }
        if &buf[..8] != SHARD_MAGIC {
            return Err("bad shard result magic".to_owned());
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != SHARD_VERSION {
            return Err(format!("unsupported shard result version {version}"));
        }
        let payload_len = u64::from_le_bytes(buf[12..20].try_into().unwrap());
        let total_wide = SHARD_HEADER_LEN as u128 + payload_len as u128 + 8;
        if buf.len() as u128 != total_wide {
            return Err("shard result length mismatch".to_owned());
        }
        let total = buf.len();
        let expected = u64::from_le_bytes(buf[total - 8..].try_into().unwrap());
        let found = fnv1a64(buf[..total - 8].iter().copied());
        if expected != found {
            return Err(format!(
                "shard result checksum mismatch (expected {expected:#018x}, found {found:#018x})"
            ));
        }

        let mut r = Reader::new(&buf[SHARD_HEADER_LEN..total - 8]);
        let fail = |e: CheckpointError| e.to_string();
        let shard = r.u64().map_err(fail)?;
        let step = r.u64().map_err(fail)?;
        let base0 = r.u64().map_err(fail)?;
        let cells = r.u64().map_err(fail)?;
        let footprint = r.u64().map_err(fail)?;
        let n_lanes = r.u64().map_err(fail)?;
        let n_nodes = r.u64().map_err(fail)?;

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
            return Err(format!(
                "{n_lanes} lane counters and {n_nodes} nodes of {cells} cells exceed the payload"
            ));
        }
        let (n_lanes, n_nodes, n_cells) = (n_lanes as usize, n_nodes as usize, cells as usize);
        let mut lane_counters = Vec::with_capacity(n_lanes);
        for _ in 0..n_lanes {
            lane_counters.push(read_counters(&mut r).map_err(fail)?);
        }
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            // Nothing is sized from the lane ids; `decode` holds them
            // against the plan's cover.
            let start = usize::try_from(r.u64().map_err(fail)?).unwrap_or(usize::MAX);
            let end = usize::try_from(r.u64().map_err(fail)?).unwrap_or(usize::MAX);
            nodes.push((start..end, r.f64s(n_cells).map_err(fail)?));
        }
        let n_particles = usize::try_from(r.u64().map_err(fail)?).unwrap_or(usize::MAX);
        if n_particles
            .checked_mul(PARTICLE_RECORD_LEN)
            .is_none_or(|b| b != r.remaining())
        {
            return Err(format!(
                "particle count {n_particles} inconsistent with payload size"
            ));
        }
        let mut particles = Vec::with_capacity(n_particles);
        for _ in 0..n_particles {
            particles.push(read_particle(&mut r).map_err(fail)?);
        }

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
        particles: soa.to_aos(),
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
    ///
    /// Panics if the configured tally strategy is not deterministic
    /// (callers apply [`crate::sim::resolve_deterministic`] before
    /// getting here).
    #[must_use]
    pub fn new(sim: &Simulation, options: RunOptions, config: ShardConfig) -> Self {
        assert!(config.n_shards >= 1, "need at least one shard");
        assert!(
            sim.problem().transport.tally_strategy.is_deterministic(),
            "sharded solves require a deterministic tally strategy"
        );
        let core = SolveCore::new(sim, options);
        let plan = ShardPlan::new(core.columns().len(), config.n_shards);
        let stores = config.checkpoint_base.as_ref().map(|base| {
            (0..config.n_shards)
                .map(|shard| {
                    let mut path = base.as_os_str().to_owned();
                    path.push(format!(".shard{shard}"));
                    CheckpointStore::new(PathBuf::from(path))
                })
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

    /// Total timesteps of the solve.
    #[must_use]
    pub fn n_timesteps(&self) -> usize {
        self.core.n_timesteps()
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
        self.save_shard_checkpoints()?;
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
        self.core.store_records(
            results
                .iter()
                .map(|r| (r.base0 as usize, r.particles.as_slice())),
        );
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

    /// Write each shard's census-boundary input through its crash-safe
    /// store (when configured) so retries can prove durable recovery.
    fn save_shard_checkpoints(&self) -> Result<(), ShardError> {
        let Some(stores) = &self.stores else {
            return Ok(());
        };
        for (shard, store) in stores.iter().enumerate() {
            if self.plan.lane_range(shard).is_empty() {
                continue;
            }
            let ckpt = Checkpoint {
                fingerprint: self.shard_fingerprint(shard),
                next_step: self.core.steps_done(),
                n_timesteps: self.core.n_timesteps(),
                elapsed: Duration::ZERO,
                tally_footprint_bytes: 0,
                counters: EventCounters::default(),
                tally: Vec::new(),
                particles: self.attempt_columns(shard).to_aos(),
            };
            store.save(&ckpt).map_err(ShardError::Checkpoint)?;
        }
        Ok(())
    }

    /// A copy of `shard`'s census-boundary column range.
    fn attempt_columns(&self, shard: usize) -> ParticleSoA {
        self.core.columns().slice(self.plan.particle_range(shard))
    }

    /// The input population for an attempt of `shard`: the in-memory
    /// census-boundary columns, or — on retries with stores configured —
    /// the records reloaded through the on-disk protocol.
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
                    || ckpt.particles.len() != self.plan.particle_range(shard).len()
                {
                    return Err(ShardError::Corrupt {
                        shard,
                        detail: "shard checkpoint does not match this shard/step".to_owned(),
                    });
                }
                let mesh = &sim.problem().mesh;
                check_cells_on_mesh(&ckpt.particles, mesh.nx(), mesh.ny())
                    .map_err(ShardError::Checkpoint)?;
                return Ok(ParticleSoA::from_aos(&ckpt.particles));
            }
        }
        Ok(self.attempt_columns(shard))
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
        let wire_len = ShardResult::wire_len(part.n_lanes, n_nodes, cells, soa.len());
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
            accum: TallyAccum::for_lanes(
                problem.transport.tally_strategy,
                cells,
                self.plan.part.n_lanes,
                lanes,
                workers,
            ),
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
        let cells = sim.problem().mesh.num_cells();
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
                    detail: panic_detail(payload.as_ref()),
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
                    break self.decode(shard, cells, &bytes);
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

    /// Deserialize and validate a shard's reported result.
    fn decode(&self, shard: usize, cells: usize, bytes: &[u8]) -> Result<ShardResult, ShardError> {
        let corrupt = |detail: String| ShardError::Corrupt { shard, detail };
        let result = ShardResult::from_bytes(bytes).map_err(corrupt)?;
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
        if result.cells != cells as u64 || result.lane_counters.len() != lanes.len() {
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
        if result.particles.len() != range.len() {
            return Err(corrupt(format!(
                "result holds {} particles, shard owns {}",
                result.particles.len(),
                range.len()
            )));
        }
        if let Some((i, key)) = first_out_of_key_order(&result.particles, range.start) {
            return Err(corrupt(format!(
                "particle records are not in key order (record {i} of the shard's range has key {key})"
            )));
        }
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

/// Render a caught panic payload for error reporting.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let particles = vec![Particle {
            x: 0.5,
            y: 0.25,
            omega_x: 1.0,
            omega_y: 0.0,
            energy: 1.0e6,
            weight: 2.0,
            dt_to_census: 0.1,
            mfp_to_collision: 3.0,
            cellx: 1,
            celly: 2,
            xs_hints: neutral_xs::XsHints::default(),
            key: 7,
            rng_counter: 42,
            dead: false,
        }];
        ShardResult {
            shard: 1,
            step: 3,
            base0: 7,
            cells: 2,
            footprint: 64,
            lane_counters: vec![EventCounters {
                collisions: 11,
                lost_energy_ev: 0.5,
                ..EventCounters::default()
            }],
            nodes: vec![(4..5, vec![1.25, -3.5])],
            particles,
        }
    }

    /// Payload words: shard, step, base0, cells, footprint, n_lanes,
    /// n_nodes — the byte offset of word `k`.
    fn header_word(k: usize) -> usize {
        SHARD_HEADER_LEN + 8 * k
    }

    /// Byte offset of node `k`'s first-lane word (its end-lane word
    /// follows) in a result with `n_lanes` lane counters.
    fn node_word(n_lanes: usize, cells: usize, k: usize) -> usize {
        header_word(7) + n_lanes * COUNTERS_RECORD_LEN + k * (16 + cells * 8)
    }

    /// Overwrite the `u64` at `off` and recompute the trailing checksum —
    /// what a corrupter that knows the format would do.
    fn rewrite_and_reseal(bytes: &mut [u8], off: usize, value: u64) {
        bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
        let n = bytes.len();
        let sum = fnv1a64(bytes[..n - 8].iter().copied());
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
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
        assert_eq!(back.particles.len(), 1);
        assert_eq!(back.particles[0].key, 7);

        let mut torn = bytes.clone();
        torn.truncate(bytes.len() - 3);
        assert!(ShardResult::from_bytes(&torn).is_err());

        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        let err = ShardResult::from_bytes(&flipped).unwrap_err();
        assert!(err.contains("checksum"), "got: {err}");

        // The per-lane wire format is gone, not forked: a version-1
        // buffer is refused by name, valid checksum or not.
        let mut v1 = bytes;
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        rewrite_and_reseal(&mut v1, header_word(0), 1);
        let err = ShardResult::from_bytes(&v1).unwrap_err();
        assert_eq!(err, "unsupported shard result version 1");
    }

    /// The coordinator's merge over nodes that crossed the wire is the
    /// unsharded fold: deposit the same lane sequences into one
    /// whole-tree accumulator and — cut into 1, 2, 3, 5 and 7 shards —
    /// into one accumulator over each shard's lanes, as an attempt does;
    /// round-trip each shard's nodes through the codec, and the replay
    /// must land on the whole tree's root bits for any worker count.
    #[test]
    fn coordinator_merge_over_decoded_nodes_equals_unsharded_merge() {
        use neutral_mesh::TallyStrategy;
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
        let whole = TallyAccum::new(TallyStrategy::Replicated, cells, part.n_lanes);
        deposit(&whole);
        let expect = whole.merge();
        for n_shards in [1usize, 2, 3, 5, 7] {
            let plan = ShardPlan::new(n_items, n_shards);
            let results: Vec<ShardResult> = (0..n_shards)
                .map(|shard| {
                    let owned = plan.lane_range(shard);
                    let accum = TallyAccum::for_lanes(
                        TallyStrategy::Replicated,
                        cells,
                        part.n_lanes,
                        owned.clone(),
                        2,
                    );
                    deposit(&accum);
                    let sent = ShardResult {
                        shard: shard as u64,
                        cells: cells as u64,
                        lane_counters: vec![EventCounters::default(); owned.len()],
                        nodes: accum.into_nodes(),
                        particles: Vec::new(),
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
        // test: a corrupter can recompute the FNV checksum, so `cells`,
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
            // One record too many for the bytes present.
            (n_lanes, 2),
            (n_nodes, 5),
        ] {
            let mut evil = bytes.clone();
            rewrite_and_reseal(&mut evil, off, huge);
            let err = ShardResult::from_bytes(&evil).unwrap_err();
            assert!(err.contains("exceed the payload"), "field at {off}: {err}");
        }
    }

    /// A 3-shard solve over a 16² csp: 50 particles in 25 lanes, so the
    /// shards' lane ranges sit off the tree's node boundaries and every
    /// cover has several nodes.
    fn small_sharded_solve() -> (Arc<Simulation>, ShardedSolve) {
        use crate::config::{ProblemScale, TallyStrategy, TestCase};
        let scale = ProblemScale {
            mesh_cells: 16,
            particle_divisor: 20_000,
        };
        let mut problem = TestCase::Csp.build(scale, 11);
        problem.transport.tally_strategy = TallyStrategy::Replicated;
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
        run_attempt(solve.attempt_task(sim, shard, solve.attempt_columns(shard)))
    }

    /// `decode`'s verdict on `bytes` as a named corruption of `shard`.
    fn corrupt_detail(solve: &ShardedSolve, shard: usize, cells: usize, bytes: &[u8]) -> String {
        match solve.decode(shard, cells, bytes) {
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
        let decoded = solve.decode(shard, cells, &bytes).expect("clean result");
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
            let detail = corrupt_detail(&solve, shard, cells, &evil);
            assert!(detail.contains("not the shard's cover"), "{what}: {detail}");
        }
        // A seam moved on both sides still tiles 8..16 — with 8..10 and
        // 10..12, neither of them a node of the tree over 25 lanes.
        let mut evil = bytes.clone();
        rewrite_and_reseal(&mut evil, node(0) + 8, 10);
        rewrite_and_reseal(&mut evil, node(1), 10);
        let detail = corrupt_detail(&solve, shard, cells, &evil);
        assert!(
            detail.contains("not the shard's cover"),
            "non-node: {detail}"
        );

        // Another shard's (canonical) result is refused by identity.
        let other = attempt_bytes(&sim, &solve, 0);
        let detail = corrupt_detail(&solve, shard, cells, &other);
        assert!(detail.contains("identity"), "{detail}");
    }

    /// A retry's input reloaded from a shard store goes through the same
    /// on-mesh check as a resume: a record off the mesh is a named
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
        solve.save_shard_checkpoints().unwrap();
        let shard = 1;
        assert!(solve.attempt_input(&sim, shard, true).is_ok());

        let store = &solve.stores.as_ref().unwrap()[shard];
        let (mut ckpt, _) = store.load().unwrap();
        let nx = sim.problem().mesh.nx();
        ckpt.particles[5].cellx = nx as u32;
        store.save(&ckpt).unwrap();
        match solve.attempt_input(&sim, shard, true) {
            Err(ShardError::Checkpoint(CheckpointError::Corrupt(msg))) => {
                assert!(msg.starts_with("particle record 5 lies in cell"), "{msg}");
                assert!(msg.contains(&format!("off the {nx}x{nx} mesh")), "{msg}");
            }
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
                crate::alloc_probe::largest_during(|| solve.decode(shard, cells, &evil));
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
