//! Crash-safe checkpoint/restart of a transport solve, plus the
//! fault-injection harness that proves it (DESIGN.md §15).
//!
//! A checkpoint captures the **complete resumable state** of a solve at a
//! census boundary: every particle record (position, direction, energy,
//! weight, event timers, cell, cached table hints, and — crucially — the
//! per-particle counter-based RNG key/counter pair, which makes each
//! record self-contained: re-opening stream `key` at `rng_counter`
//! reproduces the next draw exactly, even mid-block), the accumulated
//! tally mesh and event counters, the timestep index, and a fingerprint
//! of the full problem/`TransportConfig` so a checkpoint can never be
//! resumed against a different problem silently.
//!
//! # Format (version 1)
//!
//! Little-endian, length-prefixed, checksummed:
//!
//! ```text
//! magic "NEUTCKPT" | version u32 | payload_len u64 | payload | fnv1a64 u64
//! ```
//!
//! The checksum is FNV-1a 64 — the same hasher the golden-tally fixtures
//! use — computed over every preceding byte (magic and version included).
//! FNV-1a's per-byte step is bijective in the running hash, so any
//! single-byte corruption is detected with certainty; `payload_len` lets
//! the reader distinguish a torn (truncated) file from a bit-flipped one
//! and report the actual cause.
//!
//! # Crash safety
//!
//! [`CheckpointStore::save`] never overwrites the last good checkpoint in
//! place: the current primary is first rotated to a `.prev` fallback,
//! then the new bytes are written to a writer-unique temporary file
//! (pid + counter suffix, so concurrent writers cannot clobber each
//! other's temp bytes), fsynced, and atomically renamed over the
//! primary — and after each rename the parent directory is fsynced,
//! because the rename lives in the directory entry and would otherwise
//! not be durable across a power loss. A crash at any point leaves
//! either the new checkpoint, or the fallback, valid on disk;
//! [`CheckpointStore::load`] transparently falls back (reporting why) when
//! the primary is missing, torn or corrupt.
//!
//! # Fault injection
//!
//! [`FaultPlan`] deterministically injects the failure modes the loader
//! must survive — torn writes (`torn@N[:KEEP]`), bit flips
//! (`bitflip@N[:OFFSET]`) and process kills (`kill@N`, which crash the
//! solve *before* the boundary-N checkpoint is written) — by deliberately
//! bypassing the atomic-write protocol. [`run_with_checkpoints`] threads
//! a plan through a solve; the restart test suite asserts every fault is
//! either recovered from the last valid checkpoint or surfaced as a hard
//! error naming the cause, and that every interrupt/resume schedule
//! reproduces the uninterrupted run bit for bit.

use crate::config::Problem;
use crate::counters::EventCounters;
use crate::particle::Particle;
use crate::sim::{RunOptions, RunReport, Scheme, Simulation, SolveCore};
use neutral_xs::XsHints;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// File magic of the checkpoint format.
pub const MAGIC: &[u8; 8] = b"NEUTCKPT";

/// Current format version.
pub const VERSION: u32 = 1;

/// Bytes before the payload: magic + version + payload length.
const HEADER_LEN: usize = 8 + 4 + 8;

/// Serialized size of one particle record (shared with the shard-result
/// codec in [`crate::shard`]).
pub(crate) const PARTICLE_RECORD_LEN: usize = 8 * 8 + 4 * 4 + 2 * 8 + 1;

/// Append one particle record in the checkpoint wire layout.
pub(crate) fn put_particle(out: &mut Vec<u8>, p: &Particle) {
    for v in [
        p.x,
        p.y,
        p.omega_x,
        p.omega_y,
        p.energy,
        p.weight,
        p.dt_to_census,
        p.mfp_to_collision,
    ] {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for v in [p.cellx, p.celly, p.xs_hints.absorb, p.xs_hints.scatter] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&p.key.to_le_bytes());
    out.extend_from_slice(&p.rng_counter.to_le_bytes());
    out.push(u8::from(p.dead));
}

/// Serialized size of one [`EventCounters`] block (15 integer counters
/// plus the two energy residuals as `f64` bits).
pub(crate) const COUNTERS_RECORD_LEN: usize = 17 * 8;

/// Append one counters block in the checkpoint wire layout.
pub(crate) fn put_counters(out: &mut Vec<u8>, c: &EventCounters) {
    for v in [
        c.collisions,
        c.facets,
        c.census,
        c.absorptions,
        c.scatters,
        c.reflections,
        c.deaths,
        c.stuck,
        c.tally_flushes,
        c.cs_search_steps,
        c.clustered_flushes,
        c.cs_lookups,
        c.batched_lookups,
        c.density_reads,
        c.material_switches,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&c.lost_energy_ev.to_bits().to_le_bytes());
    out.extend_from_slice(&c.census_energy_ev.to_bits().to_le_bytes());
}

/// Append a run of `f64`s (little-endian bit patterns) in one reserve and
/// one pass — the wire form of a tally mesh or a lane partial.
pub(crate) fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    let start = out.len();
    out.resize(start + values.len() * 8, 0);
    for (dst, v) in out[start..].chunks_exact_mut(8).zip(values) {
        dst.copy_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Read one counters block in the checkpoint wire layout.
pub(crate) fn read_counters(r: &mut Reader<'_>) -> Result<EventCounters, CheckpointError> {
    let mut counters = EventCounters {
        collisions: r.u64()?,
        facets: r.u64()?,
        census: r.u64()?,
        absorptions: r.u64()?,
        scatters: r.u64()?,
        reflections: r.u64()?,
        deaths: r.u64()?,
        stuck: r.u64()?,
        tally_flushes: r.u64()?,
        cs_search_steps: r.u64()?,
        clustered_flushes: r.u64()?,
        cs_lookups: r.u64()?,
        batched_lookups: r.u64()?,
        density_reads: r.u64()?,
        material_switches: r.u64()?,
        ..Default::default()
    };
    counters.lost_energy_ev = r.f64()?;
    counters.census_energy_ev = r.f64()?;
    Ok(counters)
}

/// Read one particle record in the checkpoint wire layout.
pub(crate) fn read_particle(r: &mut Reader<'_>) -> Result<Particle, CheckpointError> {
    Ok(Particle {
        x: r.f64()?,
        y: r.f64()?,
        omega_x: r.f64()?,
        omega_y: r.f64()?,
        energy: r.f64()?,
        weight: r.f64()?,
        dt_to_census: r.f64()?,
        mfp_to_collision: r.f64()?,
        cellx: r.u32()?,
        celly: r.u32()?,
        xs_hints: XsHints {
            absorb: r.u32()?,
            scatter: r.u32()?,
        },
        key: r.u64()?,
        rng_counter: r.u64()?,
        dead: r.u8()? != 0,
    })
}

/// FNV-1a 64-bit over a byte stream — the same hash the golden-tally
/// fixtures lock with (`neutral-integration`'s `golden::fnv1a64`).
#[must_use]
pub fn fnv1a64(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Everything that can go wrong loading or resuming a checkpoint. Every
/// variant names its cause — corruption is never silently absorbed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error reading or writing checkpoint files.
    Io(std::io::Error),
    /// No checkpoint exists at the store's path (fresh start).
    NotFound,
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The file is shorter than its own length prefix promises — the
    /// signature of a torn write.
    Truncated,
    /// The FNV-1a checksum does not match the file's bytes — the
    /// signature of in-place corruption (e.g. a bit flip).
    ChecksumMismatch {
        /// Checksum stored in the file.
        expected: u64,
        /// Checksum recomputed over the file's bytes.
        found: u64,
    },
    /// The checkpoint was written by a different problem, transport
    /// configuration or scheme and must not be resumed.
    ConfigMismatch {
        /// Fingerprint of the problem being resumed.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
    /// The file checksums correctly but its contents are inconsistent
    /// (impossible counts, records out of key order, trailing bytes, ...).
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::NotFound => write!(f, "no checkpoint found"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build reads {VERSION})")
            }
            CheckpointError::Truncated => {
                write!(f, "checkpoint truncated (torn write: file shorter than its length prefix)")
            }
            CheckpointError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint checksum mismatch (stored {expected:#018x}, computed {found:#018x}): file corrupted"
            ),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different problem (config fingerprint {found:#018x}, this problem is {expected:#018x})"
            ),
            CheckpointError::Corrupt(msg) => write!(f, "checkpoint corrupt: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::NotFound {
            CheckpointError::NotFound
        } else {
            CheckpointError::Io(e)
        }
    }
}

/// Content address of a solve: the one `u64` that guards checkpoint
/// resume ([`CheckpointError::ConfigMismatch`]), coalescing and the
/// registry's result cache. It covers everything that can change a
/// trajectory or a merged bit: seed, counts, timestep controls, mesh
/// shape and extent, source, the full [`crate::config::TransportConfig`],
/// the density field's bits, the material map, every material's table
/// contents, and the driver family `scheme` (the two schemes accumulate
/// the same terms in different orders, so their `f64` sums differ by
/// ulps). The rest of [`RunOptions`] is deliberately absent: `execution`
/// is bitwise-free under the deterministic tally strategies, which is
/// what lets one cached result answer any host width.
///
/// The scalars hash byte-wise; the bulk (≈ 1 MB of tables per material,
/// 8 B per mesh cell) folds 64-bit words — [`Registry::submit`]
/// fingerprints every submission.
///
/// [`Registry::submit`]: crate::registry::Registry::submit
#[must_use]
pub fn config_fingerprint(problem: &Problem, scheme: Scheme) -> u64 {
    let mut bytes: Vec<u8> = Vec::with_capacity(256);
    bytes.extend_from_slice(&problem.seed.to_le_bytes());
    bytes.extend_from_slice(&(problem.n_particles as u64).to_le_bytes());
    bytes.extend_from_slice(&problem.dt.to_bits().to_le_bytes());
    bytes.extend_from_slice(&(problem.n_timesteps as u64).to_le_bytes());
    bytes.extend_from_slice(&problem.initial_energy_ev.to_bits().to_le_bytes());
    bytes.extend_from_slice(&(problem.mesh.nx() as u64).to_le_bytes());
    bytes.extend_from_slice(&(problem.mesh.ny() as u64).to_le_bytes());
    bytes.extend_from_slice(&problem.mesh.width().to_bits().to_le_bytes());
    bytes.extend_from_slice(&problem.mesh.height().to_bits().to_le_bytes());
    bytes.extend_from_slice(&(problem.materials.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&problem.source.x0.to_bits().to_le_bytes());
    bytes.extend_from_slice(&problem.source.x1.to_bits().to_le_bytes());
    bytes.extend_from_slice(&problem.source.y0.to_bits().to_le_bytes());
    bytes.extend_from_slice(&problem.source.y1.to_bits().to_le_bytes());
    // The transport knobs (enums and floats alike) and the scheme through
    // their stable Debug rendering.
    bytes.extend_from_slice(format!("{:?}{scheme:?}", problem.transport).as_bytes());
    let mut hash = fnv1a64(bytes.into_iter());

    hash = fold_words(hash, problem.mesh.density_field(), f64::to_bits);
    hash = fold_words(hash, problem.mesh.material_map().ids(), u64::from);
    for lib in problem.materials.libraries() {
        for table in [&lib.absorb, &lib.scatter] {
            hash = fold_words(hash, table.energies(), f64::to_bits);
            hash = fold_words(hash, table.values(), f64::to_bits);
        }
    }
    hash
}

/// Fold a run of values, each as one 64-bit word, into `hash`: word `k`
/// into lane `k % 4` of four independent multiply-xorshift chains (one
/// dependent chain would pay a multiply latency per word), then the run
/// length and the lanes in order — so neither a changed word nor a moved
/// run boundary cancels.
fn fold_words<T: Copy>(hash: u64, values: &[T], word: impl Fn(T) -> u64) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, w: u64| {
        let x = (h ^ w).wrapping_mul(K);
        x ^ (x >> 32)
    };
    let mut lanes = [hash, hash ^ 1, hash ^ 2, hash ^ 3];
    let mut blocks = values.chunks_exact(4);
    for block in &mut blocks {
        for (lane, &v) in lanes.iter_mut().zip(block) {
            *lane = mix(*lane, word(v));
        }
    }
    for (lane, &v) in lanes.iter_mut().zip(blocks.remainder()) {
        *lane = mix(*lane, word(v));
    }
    lanes
        .iter()
        .fold(mix(hash, values.len() as u64), |h, &lane| mix(h, lane))
}

/// A complete resumable solve snapshot, taken at a census boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// [`config_fingerprint`] of the problem that wrote this checkpoint.
    pub fingerprint: u64,
    /// Next timestep to execute (= timesteps already completed).
    pub next_step: usize,
    /// Total timesteps of the solve (sanity cross-check).
    pub n_timesteps: usize,
    /// Solve wall-clock accumulated so far.
    pub elapsed: Duration,
    /// Last reported tally footprint (bytes).
    pub tally_footprint_bytes: usize,
    /// Event counters accumulated over the completed timesteps.
    pub counters: EventCounters,
    /// Accumulated energy-deposition tally (merged mesh).
    pub tally: Vec<f64>,
    /// The full particle population, in key order; each record carries
    /// its own identity and RNG state.
    pub particles: Vec<Particle>,
}

impl Checkpoint {
    /// Serialize to the versioned, length-prefixed, checksummed format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload_len = 5 * 8
            + 17 * 8
            + 8
            + self.tally.len() * 8
            + 8
            + self.particles.len() * PARTICLE_RECORD_LEN;
        let mut out = Vec::with_capacity(HEADER_LEN + payload_len + 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload_len as u64).to_le_bytes());

        let put_u64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());

        put_u64(&mut out, self.fingerprint);
        put_u64(&mut out, self.next_step as u64);
        put_u64(&mut out, self.n_timesteps as u64);
        put_u64(&mut out, self.elapsed.as_nanos() as u64);
        put_u64(&mut out, self.tally_footprint_bytes as u64);

        put_counters(&mut out, &self.counters);

        put_u64(&mut out, self.tally.len() as u64);
        put_f64s(&mut out, &self.tally);

        put_u64(&mut out, self.particles.len() as u64);
        for p in &self.particles {
            put_particle(&mut out, p);
        }

        debug_assert_eq!(out.len(), HEADER_LEN + payload_len);
        let checksum = fnv1a64(out.iter().copied());
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parse and validate a checkpoint, naming the failure cause: torn
    /// files report [`CheckpointError::Truncated`], in-place corruption
    /// reports [`CheckpointError::ChecksumMismatch`], inconsistent (but
    /// correctly-checksummed) contents report [`CheckpointError::Corrupt`].
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CheckpointError> {
        if buf.len() < 8 {
            return Err(CheckpointError::Truncated);
        }
        if &buf[..8] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        if buf.len() < HEADER_LEN {
            return Err(CheckpointError::Truncated);
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        // The length field is corruption-controlled: validate it against
        // the actual buffer length (in wide arithmetic, so a flipped high
        // bit cannot overflow the total) before it is used for anything —
        // an oversized claim reads as Truncated, never as an allocation.
        let payload_len = u64::from_le_bytes(buf[12..20].try_into().unwrap());
        let total_wide = HEADER_LEN as u128 + payload_len as u128 + 8;
        if (buf.len() as u128) < total_wide {
            return Err(CheckpointError::Truncated);
        }
        let total = total_wide as usize; // fits: bounded by buf.len()
        debug_assert!(total <= buf.len());
        if buf.len() > total {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes after checksum",
                buf.len() - total
            )));
        }
        let expected = u64::from_le_bytes(buf[total - 8..].try_into().unwrap());
        let found = fnv1a64(buf[..total - 8].iter().copied());
        if expected != found {
            return Err(CheckpointError::ChecksumMismatch { expected, found });
        }

        let mut r = Reader {
            buf: &buf[HEADER_LEN..total - 8],
            pos: 0,
        };
        let fingerprint = r.u64()?;
        let next_step = r.u64()? as usize;
        let n_timesteps = r.u64()? as usize;
        let elapsed = Duration::from_nanos(r.u64()?);
        let tally_footprint_bytes = r.u64()? as usize;

        let counters = read_counters(&mut r)?;

        let n_tally = r.u64()? as usize;
        // checked_mul: the count is corruption-controlled, and a wrapping
        // product could sneak a huge count past the size guard and into
        // Vec::with_capacity.
        let tally_bytes = n_tally.checked_mul(8).ok_or_else(|| {
            CheckpointError::Corrupt(format!("tally count {n_tally} exceeds payload"))
        })?;
        if tally_bytes > r.remaining() {
            return Err(CheckpointError::Corrupt(format!(
                "tally count {n_tally} exceeds payload"
            )));
        }
        let tally = r.f64s(n_tally)?;

        let n_particles = r.u64()? as usize;
        let particle_bytes = n_particles
            .checked_mul(PARTICLE_RECORD_LEN)
            .ok_or_else(|| {
                CheckpointError::Corrupt(format!(
                    "particle count {n_particles} inconsistent with payload size"
                ))
            })?;
        if particle_bytes != r.remaining() {
            return Err(CheckpointError::Corrupt(format!(
                "particle count {n_particles} inconsistent with payload size"
            )));
        }
        let mut particles = Vec::with_capacity(n_particles);
        for _ in 0..n_particles {
            particles.push(read_particle(&mut r)?);
        }

        if next_step > n_timesteps {
            return Err(CheckpointError::Corrupt(format!(
                "next_step {next_step} exceeds n_timesteps {n_timesteps}"
            )));
        }

        Ok(Self {
            fingerprint,
            next_step,
            n_timesteps,
            elapsed,
            tally_footprint_bytes,
            counters,
            tally,
            particles,
        })
    }
}

/// Bounds-checked little-endian payload reader (shared with the
/// shard-result codec in [`crate::shard`]).
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        if self.remaining() < n {
            // The length prefix and checksum agreed, so an overrun here is
            // an internally-inconsistent payload, not a torn file.
            return Err(CheckpointError::Corrupt(
                "payload ends mid-field".to_owned(),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A run of `n` `f64`s written by [`put_f64s`], decoded in one bounds
    /// check and one allocation. Callers bound `n` by [`remaining`]
    /// (it is corruption-controlled) before asking.
    ///
    /// [`remaining`]: Reader::remaining
    pub(crate) fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CheckpointError> {
        let bytes = self.take(n.saturating_mul(8))?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8-byte chunk"))))
            .collect())
    }
}

/// How [`CheckpointStore::load`] obtained the checkpoint it returned.
#[derive(Debug)]
pub enum Recovery {
    /// The primary checkpoint file was valid.
    Primary,
    /// The primary was missing or invalid; the `.prev` fallback was used.
    Fallback {
        /// Why the primary could not be used.
        primary_error: Box<CheckpointError>,
    },
}

/// A checkpoint location on disk with crash-safe write and
/// fallback-aware read semantics.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    path: PathBuf,
}

impl CheckpointStore {
    /// A store rooted at `path` (the primary checkpoint file; the
    /// fallback and temporary files live next to it). Opening the store
    /// sweeps stale `<path>.tmp.<pid>.<counter>` files left behind by a
    /// writer killed between temp-write and rename — they are never
    /// valid recovery sources (the rename into place had not happened),
    /// so they only leak disk space.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        let store = Self { path: path.into() };
        store.sweep_stale_temps();
        store
    }

    /// Best-effort removal of writer-unique temp files next to the
    /// primary. Only names with this store's exact `<file>.tmp.` prefix
    /// are touched; unrelated siblings (including other stores' temps
    /// and the `.prev` fallback) are left alone. Errors are swallowed:
    /// a sweep failure must never block opening the store.
    fn sweep_stale_temps(&self) {
        let Some(name) = self.path.file_name().and_then(|n| n.to_str()) else {
            return;
        };
        let prefix = format!("{name}.tmp.");
        let dir = self
            .path
            .parent()
            .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return;
        };
        for entry in entries.flatten() {
            let stale = entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(&prefix));
            if stale {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// The primary checkpoint path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The rotated last-good checkpoint (`<path>.prev`).
    #[must_use]
    pub fn fallback_path(&self) -> PathBuf {
        append_ext(&self.path, "prev")
    }

    /// A temp name unique per writer: two concurrent solves pointed at
    /// the same primary path (reachable through the solve server) must
    /// not clobber each other's in-flight temp bytes, so the name
    /// carries the process id and a process-global counter. (The
    /// registry additionally refuses two *live* solves on one
    /// checkpoint file — unique temps keep the bytes safe, not the
    /// file's logical contents.)
    fn temp_path(&self) -> PathBuf {
        static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        append_ext(&self.path, &format!("tmp.{}.{n}", std::process::id()))
    }

    /// Rotate the current primary (if any) to the `.prev` fallback, so a
    /// subsequent (possibly failing) write can never destroy the last
    /// good checkpoint. The parent directory is fsynced after the
    /// rename: without it, a power loss can roll the rename back and
    /// leave *neither* name pointing at durable bytes.
    fn rotate(&self) -> Result<(), CheckpointError> {
        match std::fs::rename(&self.path, self.fallback_path()) {
            Ok(()) => fsync_parent_dir(&self.path),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(CheckpointError::Io(e)),
        }
    }

    /// Crash-safe save: rotate the last good checkpoint to `.prev`, write
    /// the new bytes to a writer-unique temporary file, fsync it,
    /// atomically rename it over the primary path, and fsync the parent
    /// directory so the rename itself is durable. A crash at any point
    /// leaves a valid checkpoint (new or fallback) on disk.
    pub fn save(&self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        let bytes = checkpoint.to_bytes();
        self.rotate()?;
        let tmp = self.temp_path();
        {
            let mut f = std::fs::File::create(&tmp).map_err(CheckpointError::Io)?;
            std::io::Write::write_all(&mut f, &bytes).map_err(CheckpointError::Io)?;
            f.sync_all().map_err(CheckpointError::Io)?;
        }
        std::fs::rename(&tmp, &self.path).map_err(CheckpointError::Io)?;
        fsync_parent_dir(&self.path)
    }

    /// Fault injection: write `bytes` **directly** to the primary path,
    /// bypassing the temp/fsync/rename protocol (after rotating the last
    /// good checkpoint, which a real torn write would also leave intact —
    /// the rename into place had not happened yet). This is how the
    /// harness plants torn or bit-flipped files for the loader to detect.
    pub fn save_raw(&self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.rotate()?;
        std::fs::write(&self.path, bytes).map_err(CheckpointError::Io)?;
        Ok(())
    }

    /// Load the newest valid checkpoint: the primary if it parses, else
    /// the `.prev` fallback (reporting why the primary was rejected).
    /// Returns [`CheckpointError::NotFound`] only when neither exists;
    /// a corrupt primary with no fallback surfaces the corruption as a
    /// hard error.
    pub fn load(&self) -> Result<(Checkpoint, Recovery), CheckpointError> {
        let primary = std::fs::read(&self.path)
            .map_err(CheckpointError::from)
            .and_then(|bytes| Checkpoint::from_bytes(&bytes));
        let primary_error = match primary {
            Ok(ckpt) => return Ok((ckpt, Recovery::Primary)),
            Err(e) => e,
        };
        let fallback = std::fs::read(self.fallback_path())
            .map_err(CheckpointError::from)
            .and_then(|bytes| Checkpoint::from_bytes(&bytes));
        match (primary_error, fallback) {
            (e, Err(CheckpointError::NotFound)) => Err(e),
            (primary_error, Ok(ckpt)) => Ok((
                ckpt,
                Recovery::Fallback {
                    primary_error: Box::new(primary_error),
                },
            )),
            // Both exist, both invalid: report the primary's cause.
            (e, Err(_)) => Err(e),
        }
    }
}

/// Make a completed rename durable: fsync the parent directory so the
/// directory entry itself survives a power loss (fsyncing the file data
/// alone is not enough — the rename lives in the directory).
fn fsync_parent_dir(path: &Path) -> Result<(), CheckpointError> {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        let dir = std::fs::File::open(parent).map_err(CheckpointError::Io)?;
        dir.sync_all().map_err(CheckpointError::Io)?;
    }
    #[cfg(not(unix))]
    {
        // std cannot open a directory handle for fsync off unix;
        // directory-entry durability is best-effort there.
        let _ = path;
    }
    Ok(())
}

fn append_ext(path: &Path, ext: &str) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(".");
    s.push(ext);
    PathBuf::from(s)
}

/// One deterministically-injected failure, keyed by the census boundary
/// (1-based count of completed timesteps) it fires at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The boundary-`after_step` checkpoint write is torn: only the first
    /// `keep_bytes` bytes reach disk (the atomic protocol is bypassed).
    TornWrite {
        /// Census boundary (completed timesteps) the fault fires at.
        after_step: usize,
        /// Prefix of the checkpoint that survives.
        keep_bytes: usize,
    },
    /// One byte of the boundary-`after_step` checkpoint is bit-flipped
    /// in place on disk.
    BitFlip {
        /// Census boundary (completed timesteps) the fault fires at.
        after_step: usize,
        /// Byte offset to corrupt (clamped into the file).
        offset: usize,
    },
    /// The process "crashes" right after completing timestep
    /// `after_step`, **before** that boundary's checkpoint is written.
    Kill {
        /// Census boundary (completed timesteps) the fault fires at.
        after_step: usize,
    },
}

impl Fault {
    /// The census boundary this fault fires at.
    #[must_use]
    pub fn after_step(self) -> usize {
        match self {
            Fault::TornWrite { after_step, .. }
            | Fault::BitFlip { after_step, .. }
            | Fault::Kill { after_step } => after_step,
        }
    }
}

/// A deterministic schedule of injected faults, parsed from a spec such
/// as `torn@1,kill@2` (see [`std::str::FromStr`] below for the grammar).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faults, in spec order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan injecting nothing.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Faults scheduled for the census boundary after `completed` steps.
    pub fn for_step(&self, completed: usize) -> impl Iterator<Item = Fault> + '_ {
        self.faults
            .iter()
            .copied()
            .filter(move |f| f.after_step() == completed)
    }
}

/// Grammar: comma-separated specs, each one of
///
/// * `kill@N` — crash after timestep `N`, before its checkpoint write;
/// * `torn@N[:KEEP]` — tear the boundary-`N` checkpoint to its first
///   `KEEP` bytes (default 40, cutting inside the header);
/// * `bitflip@N[:OFFSET]` — flip one bit of byte `OFFSET` (default 96,
///   inside the counters region) of the boundary-`N` checkpoint.
impl std::str::FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut faults = Vec::new();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (kind, rest) = part
                .split_once('@')
                .ok_or_else(|| bad_fault_spec(part, "missing `@`"))?;
            let (step_str, arg) = match rest.split_once(':') {
                Some((a, b)) => (a, Some(b)),
                None => (rest, None),
            };
            let after_step: usize = step_str
                .parse()
                .map_err(|_| bad_fault_spec(part, "timestep is not a number"))?;
            if after_step == 0 {
                return Err(bad_fault_spec(part, "timestep must be >= 1"));
            }
            let parse_arg = |default: usize| -> Result<usize, String> {
                match arg {
                    None => Ok(default),
                    Some(a) => a
                        .parse()
                        .map_err(|_| bad_fault_spec(part, "argument is not a number")),
                }
            };
            let fault = match kind {
                "kill" => {
                    if arg.is_some() {
                        return Err(bad_fault_spec(part, "kill takes no argument"));
                    }
                    Fault::Kill { after_step }
                }
                "torn" => Fault::TornWrite {
                    after_step,
                    keep_bytes: parse_arg(40)?,
                },
                "bitflip" => Fault::BitFlip {
                    after_step,
                    offset: parse_arg(96)?,
                },
                other => return Err(bad_fault_spec(part, &format!("unknown kind `{other}`"))),
            };
            faults.push(fault);
        }
        Ok(Self { faults })
    }
}

fn bad_fault_spec(part: &str, why: &str) -> String {
    format!("bad fault spec `{part}`: {why} (expected kill@N, torn@N[:KEEP] or bitflip@N[:OFFSET])")
}

/// How a checkpointed run ended (see [`run_with_checkpoints`]).
// One value exists per solve, so the size gap between a full report and
// a bare step count costs nothing — boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum SolveOutcome {
    /// The solve ran to completion.
    Complete {
        /// The completed run's report.
        report: RunReport,
        /// Timestep index the solve resumed from (`None` = fresh start).
        resumed_from: Option<usize>,
        /// How the resume checkpoint was obtained, if the solve resumed.
        recovery: Option<Recovery>,
    },
    /// An injected [`Fault::Kill`] crashed the solve after `after_step`
    /// completed timesteps (before that boundary's checkpoint write).
    Killed {
        /// Completed timesteps at the crash.
        after_step: usize,
    },
}

/// Run (or resume) a checkpointed solve end to end, applying `plan`'s
/// injected faults at their census boundaries.
///
/// * If `store` holds a valid (or recoverable) checkpoint for this
///   problem, the solve resumes from it; otherwise it starts fresh.
///   A corrupt store with no valid fallback, or a checkpoint from a
///   different configuration, is a hard error.
/// * After each timestep, the boundary checkpoint is written with the
///   crash-safe protocol — unless a fault replaces it with a torn or
///   bit-flipped file, or a kill crashes the solve first.
pub fn run_with_checkpoints(
    sim: &Simulation,
    options: RunOptions,
    store: &CheckpointStore,
    plan: &FaultPlan,
) -> Result<SolveOutcome, CheckpointError> {
    let (mut solve, resumed) = match store.load() {
        Ok((ckpt, recovery)) => {
            let solve = SolveCore::resume(sim, options, &ckpt)?;
            (solve, Some((ckpt.next_step, recovery)))
        }
        Err(CheckpointError::NotFound) => (SolveCore::new(sim, options), None),
        Err(e) => return Err(e),
    };
    let resumed_from = resumed.as_ref().map(|(step, _)| *step);
    let recovery = resumed.map(|(_, r)| r);

    while !solve.is_done() {
        solve.step(sim);
        let boundary = solve.steps_done();
        let mut killed = false;
        let mut planted = false;
        for fault in plan.for_step(boundary) {
            match fault {
                Fault::Kill { .. } => killed = true,
                Fault::TornWrite { keep_bytes, .. } => {
                    let bytes = solve.checkpoint().to_bytes();
                    let keep = keep_bytes.min(bytes.len());
                    store.save_raw(&bytes[..keep])?;
                    planted = true;
                }
                Fault::BitFlip { offset, .. } => {
                    let mut bytes = solve.checkpoint().to_bytes();
                    let off = offset.min(bytes.len() - 1);
                    bytes[off] ^= 0x80;
                    store.save_raw(&bytes)?;
                    planted = true;
                }
            }
        }
        if killed {
            // The crash happens before this boundary's checkpoint write:
            // the store still holds the previous boundary's state.
            return Ok(SolveOutcome::Killed {
                after_step: boundary,
            });
        }
        if !planted {
            store.save(&solve.checkpoint())?;
        }
    }
    Ok(SolveOutcome::Complete {
        report: solve.finish(),
        resumed_from,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProblemScale, TestCase};
    use crate::particle::spawn_particles;

    fn sample_checkpoint() -> Checkpoint {
        let problem = TestCase::Csp.build(ProblemScale::tiny(), 3);
        let particles = spawn_particles(&problem);
        Checkpoint {
            fingerprint: config_fingerprint(&problem, Scheme::OverParticles),
            next_step: 1,
            n_timesteps: 3,
            elapsed: Duration::from_millis(7),
            tally_footprint_bytes: 4096,
            counters: EventCounters {
                collisions: 123,
                facets: 456,
                lost_energy_ev: 1.25,
                census_energy_ev: -0.5,
                ..Default::default()
            },
            tally: vec![0.0, 1.5, -2.25, 3.0e10],
            particles,
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(ckpt, back);
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample_checkpoint().to_bytes();
        for keep in 0..bytes.len() {
            let err = Checkpoint::from_bytes(&bytes[..keep]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::ChecksumMismatch { .. }
                ),
                "keep={keep}: {err}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample_checkpoint().to_bytes();
        // Sample every 97th byte (plus the tail) to keep the test fast;
        // FNV-1a detects any single-byte change with certainty.
        let mut offsets: Vec<usize> = (0..bytes.len()).step_by(97).collect();
        offsets.extend(bytes.len() - 9..bytes.len());
        for off in offsets {
            let mut corrupt = bytes.clone();
            corrupt[off] ^= 0x01;
            assert!(
                Checkpoint::from_bytes(&corrupt).is_err(),
                "flip at {off} was silently absorbed"
            );
        }
    }

    #[test]
    fn length_field_flips_fail_cleanly() {
        let bytes = sample_checkpoint().to_bytes();
        // `payload_len` occupies bytes 12..20. Flip every bit of it:
        // the parser must answer with a clean structural error (an
        // oversized claim is Truncated, an undersized one leaves
        // trailing bytes), never an allocation, overflow or panic.
        for off in 12..HEADER_LEN {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[off] ^= 1 << bit;
                let err = Checkpoint::from_bytes(&corrupt).unwrap_err();
                assert!(
                    matches!(
                        err,
                        CheckpointError::Truncated | CheckpointError::Corrupt(_)
                    ),
                    "flip bit {bit} of byte {off}: {err}"
                );
            }
        }
    }

    #[test]
    fn huge_element_counts_with_valid_checksum_fail_cleanly() {
        // A corrupter can recompute the FNV checksum, so the in-payload
        // element counts cannot be trusted either: plant counts whose
        // byte-size products wrap usize and re-checksum the file. The
        // parser must reject them via checked arithmetic instead of
        // letting a wrapped product sneak past the size guard into
        // Vec::with_capacity.
        let bytes = sample_checkpoint().to_bytes();
        // Payload word layout: 5 header words + 17 counter words, then
        // n_tally; the sample tally holds 4 entries, then n_particles.
        let n_tally_off = HEADER_LEN + 8 * 22;
        let n_particles_off = n_tally_off + 8 + 4 * 8;
        assert_eq!(
            u64::from_le_bytes(bytes[n_tally_off..n_tally_off + 8].try_into().unwrap()),
            4,
            "test out of sync with the payload layout"
        );
        for (off, huge) in [
            // (1<<61)+1 times 8 wraps to 8 — small enough to pass an
            // unchecked `n * 8 > remaining` guard.
            (n_tally_off, (1u64 << 61) + 1),
            (n_particles_off, u64::MAX / 2 + 3),
        ] {
            let mut evil = bytes.clone();
            evil[off..off + 8].copy_from_slice(&huge.to_le_bytes());
            let n = evil.len();
            let sum = fnv1a64(evil[..n - 8].iter().copied());
            evil[n - 8..].copy_from_slice(&sum.to_le_bytes());
            let err = Checkpoint::from_bytes(&evil).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Corrupt(_)),
                "count at {off}: {err}"
            );
        }
    }

    #[test]
    fn concurrent_saves_to_one_path_never_tear() {
        // Writer-unique temp names: two threads hammering the same
        // store must never interleave temp bytes — every load observes
        // one complete, checksummed checkpoint or the rotated fallback.
        let dir =
            std::env::temp_dir().join(format!("neutral_ckpt_concurrent_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(dir.join("shared.ckpt"));
        let ckpt = sample_checkpoint();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        store.save(&ckpt).unwrap();
                    }
                });
            }
        });
        let (loaded, _) = store.load().unwrap();
        assert_eq!(loaded, ckpt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_and_magic_are_checked() {
        let bytes = sample_checkpoint().to_bytes();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&wrong_magic),
            Err(CheckpointError::BadMagic)
        ));

        let mut wrong_version = bytes.clone();
        wrong_version[8..12].copy_from_slice(&99u32.to_le_bytes());
        // Re-checksum so the version check (not the checksum) fires.
        let total = wrong_version.len();
        let sum = fnv1a64(wrong_version[..total - 8].iter().copied());
        wrong_version[total - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&wrong_version),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_checkpoint().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    /// One field perturbed at a time — scalars, one cell of each mesh
    /// field, one material's kind and seed, the scheme — must each move
    /// the fingerprint.
    #[test]
    fn fingerprint_separates_configs() {
        use neutral_xs::{MaterialKind, MaterialSet, MaterialSpec};
        let spec = MaterialSpec {
            kind: MaterialKind::Reference,
            n_points: 64,
            seed: 9,
        };
        let with_material = |spec: MaterialSpec| {
            let mut p = TestCase::Csp.build(ProblemScale::tiny(), 3);
            p.materials = MaterialSet::from_specs(&[spec]);
            p
        };
        let base = with_material(spec);
        let op = Scheme::OverParticles;
        let want = config_fingerprint(&base, op);
        assert_eq!(want, config_fingerprint(&base.clone(), op));

        type Perturb = fn(&mut Problem);
        let perturbations: [(&str, Perturb); 5] = [
            ("seed", |p| p.seed = 4),
            ("weight_cutoff", |p| p.transport.weight_cutoff *= 2.0),
            ("n_timesteps", |p| p.n_timesteps += 1),
            ("one cell's density", |p| {
                p.mesh.density_field_mut()[77] *= 1.0 + f64::EPSILON;
            }),
            ("one cell's material id", |p| {
                p.mesh.material_map_mut().set(5, 9, 1);
            }),
        ];
        for (what, perturb) in perturbations {
            let mut p = base.clone();
            perturb(&mut p);
            assert_ne!(config_fingerprint(&p, op), want, "{what}");
        }
        let kind = MaterialSpec {
            kind: MaterialKind::Absorber,
            ..spec
        };
        let seed = MaterialSpec { seed: 10, ..spec };
        assert_ne!(config_fingerprint(&with_material(kind), op), want, "kind");
        assert_ne!(config_fingerprint(&with_material(seed), op), want, "seed");
        assert_ne!(
            config_fingerprint(&base, Scheme::OverEvents),
            want,
            "scheme"
        );
    }

    #[test]
    fn store_save_load_and_rotation() {
        let dir = std::env::temp_dir().join(format!("neutral_ckpt_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(dir.join("solve.ckpt"));
        let _ = std::fs::remove_file(store.path());
        let _ = std::fs::remove_file(store.fallback_path());

        assert!(matches!(store.load(), Err(CheckpointError::NotFound)));

        let mut ckpt = sample_checkpoint();
        store.save(&ckpt).unwrap();
        let (loaded, recovery) = store.load().unwrap();
        assert_eq!(loaded, ckpt);
        assert!(matches!(recovery, Recovery::Primary));

        // Second save rotates the first to .prev.
        ckpt.next_step = 2;
        store.save(&ckpt).unwrap();
        assert!(store.fallback_path().exists());

        // Tear the primary: load falls back to the rotated boundary-2...
        // no — save_raw rotates again, so .prev now holds next_step=2.
        let good = ckpt.to_bytes();
        store.save_raw(&good[..25]).unwrap();
        let (recovered, recovery) = store.load().unwrap();
        assert_eq!(recovered.next_step, 2);
        match recovery {
            Recovery::Fallback { primary_error } => {
                assert!(matches!(*primary_error, CheckpointError::Truncated));
            }
            Recovery::Primary => panic!("expected fallback"),
        }

        // Corrupt both: hard error naming the primary's cause.
        store.save_raw(&good[..25]).unwrap();
        std::fs::write(store.fallback_path(), &good[..10]).unwrap();
        assert!(matches!(store.load(), Err(CheckpointError::Truncated)));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_stale_writer_temps() {
        let dir = std::env::temp_dir().join(format!("neutral_ckpt_sweep_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let primary = dir.join("solve.ckpt");

        // Plant what a writer killed between temp-write and rename leaves
        // behind, plus siblings the sweep must NOT touch.
        let stale_a = dir.join("solve.ckpt.tmp.1234.0");
        let stale_b = dir.join("solve.ckpt.tmp.99.7");
        let keep_prev = dir.join("solve.ckpt.prev");
        let keep_other = dir.join("other.ckpt.tmp.1234.0");
        for p in [&stale_a, &stale_b, &keep_prev, &keep_other] {
            std::fs::write(p, b"stale").unwrap();
        }
        std::fs::write(&primary, b"primary").unwrap();

        let store = CheckpointStore::new(&primary);
        assert!(!stale_a.exists(), "stale temp should be swept on open");
        assert!(!stale_b.exists(), "stale temp should be swept on open");
        assert!(keep_prev.exists(), "fallback must survive the sweep");
        assert!(keep_other.exists(), "other stores' temps must survive");
        assert!(store.path().exists(), "primary must survive the sweep");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_plan_grammar() {
        let plan: FaultPlan = "kill@3".parse().unwrap();
        assert_eq!(plan.faults, vec![Fault::Kill { after_step: 3 }]);

        let plan: FaultPlan = "torn@1:10, bitflip@2:5, kill@2".parse().unwrap();
        assert_eq!(
            plan.faults,
            vec![
                Fault::TornWrite {
                    after_step: 1,
                    keep_bytes: 10
                },
                Fault::BitFlip {
                    after_step: 2,
                    offset: 5
                },
                Fault::Kill { after_step: 2 },
            ]
        );
        assert_eq!(plan.for_step(2).count(), 2);
        assert_eq!(plan.for_step(7).count(), 0);

        let plan: FaultPlan = "torn@4".parse().unwrap();
        assert_eq!(
            plan.faults,
            vec![Fault::TornWrite {
                after_step: 4,
                keep_bytes: 40
            }]
        );

        for bad in [
            "torn",
            "kill@x",
            "kill@0",
            "kill@1:2",
            "explode@1",
            "torn@1:x",
        ] {
            let err = bad.parse::<FaultPlan>().unwrap_err();
            assert!(err.contains("bad fault spec"), "{bad}: {err}");
        }
        assert!("".parse::<FaultPlan>().unwrap().is_empty());
    }

    #[test]
    fn error_messages_name_the_cause() {
        assert!(CheckpointError::Truncated.to_string().contains("torn"));
        assert!(CheckpointError::ChecksumMismatch {
            expected: 1,
            found: 2
        }
        .to_string()
        .contains("checksum"));
        assert!(CheckpointError::ConfigMismatch {
            expected: 1,
            found: 2
        }
        .to_string()
        .contains("different problem"));
        assert!(CheckpointError::UnsupportedVersion(9)
            .to_string()
            .contains("version 9"));
    }
}
