//! Crash-safe checkpoint/restart of a transport solve, plus the
//! fault-injection harness that proves it (DESIGN.md §15).
//!
//! A checkpoint captures the **complete resumable state** of a solve at a
//! census boundary: every particle's columns (position, direction, energy,
//! weight, event timers, cell, cached table hints, and — crucially — the
//! per-particle counter-based RNG key/counter pair, which makes each
//! particle self-contained: re-opening stream `key` at `rng_counter`
//! reproduces the next draw exactly, even mid-block), the accumulated
//! tally mesh and event counters, the timestep index, and a fingerprint
//! of the full problem/`TransportConfig` so a checkpoint can never be
//! resumed against a different problem silently.
//!
//! # Format (version 3)
//!
//! Little-endian, length-prefixed, checksummed — the `Frame` the shard
//! wire (`NEUTSHRD`) shares:
//!
//! ```text
//! magic "NEUTCKPT" | version u32 | payload_len u64 | payload | checksum u64
//! ```
//!
//! The checksum is [`frame_checksum`] over every preceding byte (magic and
//! version included), folded a word at a time through the config
//! fingerprint's hasher; it detects any corruption confined to one 8-byte
//! word — every single-byte flip — with certainty. `payload_len` lets the
//! reader distinguish a torn (truncated) file from a bit-flipped one and
//! report the actual cause. The particles travel as columns, each one
//! little-endian run ([`ParticleSoA`]'s codec). Older files fail by
//! version: a version-1 file (one 97-byte record per particle)
//! `UnsupportedVersion(1)`, a version-2 file (FNV-1a trailer, a 17-word
//! counter block) `UnsupportedVersion(2)`.
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
//! bypassing the atomic-write protocol. [`crate::drive::Driver`] threads
//! a plan through a solve; the restart test suite asserts every fault is
//! either recovered from the last valid checkpoint or surfaced as a hard
//! error naming the cause, and that every interrupt/resume schedule
//! reproduces the uninterrupted run bit for bit.

use crate::config::Problem;
use crate::counters::EventCounters;
use crate::sim::Scheme;
use crate::soa::ParticleSoA;
use neutral_xs::{CrossSection, SynthParams, Synthesis, SYNTH_VERSION};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// File magic of the checkpoint format.
pub const MAGIC: &[u8; 8] = b"NEUTCKPT";

/// Current format version.
pub const VERSION: u32 = 3;

/// Bytes before the payload: magic + version + payload length.
const HEADER_LEN: usize = 8 + 4 + 8;

/// The frame both containers are sealed in and opened through:
/// `magic | version u32 | payload_len u64 | payload | checksum u64`, the
/// [`frame_checksum`] of every byte before it.
pub(crate) struct Frame {
    pub(crate) magic: &'static [u8; 8],
    pub(crate) version: u32,
}

/// The checkpoint's frame.
const CHECKPOINT: Frame = Frame {
    magic: MAGIC,
    version: VERSION,
};

impl Frame {
    /// Bytes of a framed `payload_len`-byte payload.
    pub(crate) fn wire_len(payload_len: usize) -> usize {
        HEADER_LEN + payload_len + 8
    }

    /// Frame the `payload_len` bytes `write` appends, into `out` (emptied
    /// first, its capacity reused).
    pub(crate) fn seal(
        &self,
        mut out: Vec<u8>,
        payload_len: usize,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Vec<u8> {
        out.clear();
        out.reserve(Self::wire_len(payload_len));
        out.extend_from_slice(self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(payload_len as u64).to_le_bytes());
        write(&mut out);
        debug_assert_eq!(out.len(), HEADER_LEN + payload_len);
        let checksum = frame_checksum(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Check magic, version, length and checksum, and hand back a reader
    /// over the payload. Each failure is named: a wrong magic is
    /// [`CheckpointError::BadMagic`], another version
    /// [`CheckpointError::UnsupportedVersion`], a buffer shorter than its
    /// length prefix promises [`CheckpointError::Truncated`], one longer
    /// [`CheckpointError::Corrupt`] (trailing bytes), and a payload that
    /// does not hash to its trailer [`CheckpointError::ChecksumMismatch`].
    pub(crate) fn open<'a>(&self, buf: &'a [u8]) -> Result<Reader<'a>, CheckpointError> {
        if buf.len() < 8 {
            return Err(CheckpointError::Truncated);
        }
        if &buf[..8] != self.magic {
            return Err(CheckpointError::BadMagic);
        }
        if buf.len() < HEADER_LEN {
            return Err(CheckpointError::Truncated);
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != self.version {
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
        if buf.len() > total {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes after checksum",
                buf.len() - total
            )));
        }
        let expected = u64::from_le_bytes(buf[total - 8..].try_into().unwrap());
        let found = frame_checksum(&buf[..total - 8]);
        if expected != found {
            return Err(CheckpointError::ChecksumMismatch { expected, found });
        }
        Ok(Reader {
            buf: &buf[HEADER_LEN..total - 8],
            pos: 0,
        })
    }
}

/// Serialized size of one [`EventCounters`] block (14 integer counters
/// plus the two energy residuals as `f64` bits; the always-zero
/// `clustered_flushes` is not written and decodes as 0).
pub(crate) const COUNTERS_RECORD_LEN: usize = 16 * 8;

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

/// Bytes [`put_particles`] appends for `particles`.
pub(crate) fn particles_len(particles: &ParticleSoA) -> usize {
    8 + particles.len() * ParticleSoA::wire_len_per_particle()
}

/// Append a population — its count, then its columns — as the last
/// block of either container's payload.
pub(crate) fn put_particles(out: &mut Vec<u8>, particles: &ParticleSoA) {
    out.extend_from_slice(&(particles.len() as u64).to_le_bytes());
    particles.put_columns(out);
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

/// FNV-1a 64-bit over a byte stream — the same hash the golden-tally
/// fixtures lock with (`neutral-integration`'s `golden::fnv1a64`), and
/// the seed of [`config_fingerprint`]. It pays one dependent multiply per
/// byte, so bulk data goes through the word hasher (`fold_words`)
/// instead.
#[must_use]
pub fn fnv1a64(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Everything that can go wrong loading or resuming a checkpoint — and,
/// through the shared `Frame` and codec, decoding a shard result. Every
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
    /// The [`frame_checksum`] does not match the file's bytes — the
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
    /// (impossible counts, particles out of key order, trailing bytes, ...).
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::NotFound => write!(f, "no checkpoint found"),
            // The framing and content variants are worded for both
            // containers: a shard result reports them too (`ShardError::Corrupt`).
            CheckpointError::BadMagic => write!(f, "bad magic (not a checkpoint or shard result)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported format version {v} (written by another build)")
            }
            CheckpointError::Truncated => {
                write!(f, "truncated (torn write: shorter than its length prefix)")
            }
            CheckpointError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch (stored {expected:#018x}, computed {found:#018x}): bytes corrupted"
            ),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different problem (config fingerprint {found:#018x}, this problem is {expected:#018x})"
            ),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt contents: {msg}"),
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
/// the density field's bits, the material map, every material's tables,
/// and the `scheme` (the two schemes accumulate
/// the same terms in different orders, so their `f64` sums differ by
/// ulps). The rest of [`RunOptions`](crate::sim::RunOptions) is
/// deliberately absent: `execution` is bitwise-free (the one tally is
/// the deterministic lane fold), which is what lets one cached result
/// answer any host width.
///
/// A table is hashed by what it is: a synthesized table by its spec
/// ([`Synthesis`], point count and [`SYNTH_VERSION`]), so addressing a
/// problem reads none of its lazily filled values; a table built from
/// explicit columns by every energy and value bit. The scalars hash
/// byte-wise; the bulk (8 B per mesh cell, and any explicit table)
/// folds 64-bit words — [`Registry::submit`] fingerprints every
/// submission.
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
            hash = match table.synthesis() {
                Some(synthesis) => fold_words(hash, &synthesis_words(table, synthesis), |w| w),
                None => {
                    let hash = fold_words(hash, table.energies(), f64::to_bits);
                    fold_words(hash, &table.values(), f64::to_bits)
                }
            };
        }
    }
    hash
}

/// The content address of a synthesized table: what its grid and every
/// value are a pure function of (DESIGN.md §16). Destructured, so a
/// generator parameter added later must join it to compile.
fn synthesis_words(table: &CrossSection, synthesis: &Synthesis) -> [u64; 11] {
    let Synthesis {
        table: which,
        seed,
        params:
            SynthParams {
                e_min_ev,
                e_max_ev,
                capture_at_1mev_barns,
                scatter_base_barns,
                n_resonances,
                res_lo_ev,
                res_hi_ev,
            },
    } = synthesis;
    [
        SYNTH_VERSION,
        *which as u64,
        table.len() as u64,
        *seed,
        e_min_ev.to_bits(),
        e_max_ev.to_bits(),
        capture_at_1mev_barns.to_bits(),
        scatter_base_barns.to_bits(),
        *n_resonances as u64,
        res_lo_ev.to_bits(),
        res_hi_ev.to_bits(),
    ]
}

/// One step of the word hasher: bijective in `w` for any `h` (xor, an
/// odd multiply and an xorshift are each invertible) and in `h` for any
/// `w`, so a chain of steps maps a changed word to a changed result.
fn mix(h: u64, w: u64) -> u64 {
    let x = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 32)
}

/// Fold a run of values, each as one 64-bit word, into `hash`: word `k`
/// into lane `k % 4` of four independent [`mix`] chains (one dependent
/// chain would pay a multiply latency per word), then the run length and
/// the lanes in order — so neither a changed word nor a moved run
/// boundary cancels. The one bulk hasher: [`config_fingerprint`] folds
/// the mesh and tables through it, [`frame_checksum`] every framed byte.
fn fold_words<T: Copy>(hash: u64, values: &[T], word: impl Fn(T) -> u64) -> u64 {
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

/// The trailer of a `NEUTCKPT` checkpoint or `NEUTSHRD` shard result:
/// `bytes`' little-endian 8-byte words through the four-lane word hasher
/// [`config_fingerprint`] folds its bulk with (`fold_words`), then the
/// zero-padded tail word and the byte length (which tells a tail of
/// zeros from padding). Any change confined to one aligned word, the tail
/// included, moves it with certainty: the word's lane changes (every
/// `mix` step is bijective), and so does every fold after it.
#[must_use]
pub fn frame_checksum(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    let hash = fold_words(0xcbf2_9ce4_8422_2325, words, u64::from_le_bytes);
    mix(mix(hash, u64::from_le_bytes(last)), bytes.len() as u64)
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
    /// The full particle population, in key order; each particle carries
    /// its own identity and RNG state.
    pub particles: ParticleSoA,
}

impl Checkpoint {
    /// Serialize to the versioned, length-prefixed, checksummed format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload_len =
            5 * 8 + COUNTERS_RECORD_LEN + 8 + self.tally.len() * 8 + particles_len(&self.particles);
        CHECKPOINT.seal(Vec::new(), payload_len, |out| {
            for v in [
                self.fingerprint,
                self.next_step as u64,
                self.n_timesteps as u64,
                self.elapsed.as_nanos() as u64,
                self.tally_footprint_bytes as u64,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            put_counters(out, &self.counters);
            out.extend_from_slice(&(self.tally.len() as u64).to_le_bytes());
            put_f64s(out, &self.tally);
            put_particles(out, &self.particles);
        })
    }

    /// Parse and validate a checkpoint, naming the failure cause: torn
    /// files report [`CheckpointError::Truncated`], in-place corruption
    /// reports [`CheckpointError::ChecksumMismatch`], inconsistent (but
    /// correctly-checksummed) contents report [`CheckpointError::Corrupt`].
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = CHECKPOINT.open(buf)?;
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
        if n_tally.checked_mul(8).is_none_or(|b| b > r.remaining()) {
            return Err(CheckpointError::Corrupt(format!(
                "tally count {n_tally} exceeds payload"
            )));
        }
        let tally = r.f64s(n_tally)?;
        let particles = r.particles()?;

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

impl Reader<'_> {
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

    /// A population written by [`put_particles`]. Its count is
    /// corruption-controlled, so it must account for exactly the bytes
    /// left before anything is allocated from it.
    pub(crate) fn particles(&mut self) -> Result<ParticleSoA, CheckpointError> {
        let n = usize::try_from(self.u64()?).unwrap_or(usize::MAX);
        let len = self.remaining();
        if n.checked_mul(ParticleSoA::wire_len_per_particle()) != Some(len) {
            return Err(CheckpointError::Corrupt(format!(
                "particle count {n} inconsistent with payload size"
            )));
        }
        ParticleSoA::get_columns(self.take(len)?, n).map_err(CheckpointError::Corrupt)
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

pub(crate) fn append_ext(path: &Path, ext: &str) -> PathBuf {
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{ProblemScale, TestCase};
    use crate::particle::spawn_particles;
    use crate::sim::{RunOptions, Simulation, SolveCore};

    /// Recompute the trailer of a framed buffer in place — what a
    /// corrupter that knows the format does. Every test that forges a
    /// frame reseals through here.
    pub(crate) fn reseal(frame: &mut [u8]) {
        let n = frame.len();
        let sum = frame_checksum(&frame[..n - 8]);
        frame[n - 8..].copy_from_slice(&sum.to_le_bytes());
    }

    fn sample_checkpoint() -> Checkpoint {
        let problem = TestCase::Csp.build(ProblemScale::tiny(), 3);
        let particles = ParticleSoA::from_aos(&spawn_particles(&problem));
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
        // the frame checksum detects any change within one 8-byte word
        // with certainty.
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
        // A corrupter can recompute the checksum, so the in-payload
        // element counts cannot be trusted either: plant counts whose
        // byte-size products wrap usize and re-checksum the file. The
        // parser must reject them via checked arithmetic instead of
        // letting a wrapped product sneak past the size guard into
        // Vec::with_capacity.
        let bytes = sample_checkpoint().to_bytes();
        // Payload word layout: 5 header words + 16 counter words, then
        // n_tally; the sample tally holds 4 entries, then n_particles.
        let n_tally_off = HEADER_LEN + 8 * 21;
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
            reseal(&mut evil);
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
        reseal(&mut wrong_version);
        assert!(matches!(
            Checkpoint::from_bytes(&wrong_version),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    /// A real census-boundary checkpoint: tiny `csp`, one of its two
    /// timesteps run.
    fn real_checkpoint() -> (Simulation, RunOptions, Checkpoint) {
        let mut problem = TestCase::Csp.build(ProblemScale::tiny(), 3);
        problem.n_timesteps = 2;
        let sim = Simulation::new(problem);
        let options = RunOptions {
            execution: crate::sim::Execution::Sequential,
            ..RunOptions::default()
        };
        let mut core = SolveCore::new(&sim, options);
        core.step(&sim);
        (sim, options, core.checkpoint())
    }

    /// A particle off the mesh, re-encoded through `to_bytes` so that it
    /// checksums correctly, fails named at resume — before the first
    /// step would index the mesh through its cell.
    #[test]
    fn off_mesh_records_fail_named_at_resume() {
        let (sim, options, ckpt) = real_checkpoint();
        let (nx, ny) = (sim.problem().mesh.nx(), sim.problem().mesh.ny());
        for (record, cellx, celly) in [(17, nx as u32, 0), (400, 3, ny as u32 + 9)] {
            let mut evil = ckpt.clone();
            evil.particles.cellx[record] = cellx;
            evil.particles.celly[record] = celly;
            let decoded = Checkpoint::from_bytes(&evil.to_bytes()).unwrap();
            match SolveCore::resume(&sim, options, &decoded) {
                Err(CheckpointError::Corrupt(msg)) => assert_eq!(
                    msg,
                    format!(
                        "particle {record} lies in cell ({cellx}, {celly}), \
                         off the {nx}x{ny} mesh"
                    )
                ),
                other => panic!("record {record}: {:?}", other.map(|_| "resumed")),
            }
        }
        assert!(SolveCore::resume(&sim, options, &ckpt).is_ok());
    }

    /// A hand-built checkpoint whose columns disagree in length fails
    /// named at resume instead of panicking on the first short column.
    #[test]
    fn ragged_columns_fail_named_at_resume() {
        let (sim, options, ckpt) = real_checkpoint();
        let n = ckpt.particles.len();
        let mut ragged = ckpt.clone();
        ragged.particles.dead.pop();
        match SolveCore::resume(&sim, options, &ragged) {
            Err(CheckpointError::Corrupt(msg)) => assert!(
                msg.starts_with("column lengths") && msg.contains(&format!("the {n} particles")),
                "{msg}"
            ),
            other => panic!("{:?}", other.map(|_| "resumed")),
        }
    }

    /// A version-1 buffer (one 97-byte record per particle) under a
    /// recomputed checksum is refused by its version, not misread as
    /// columns.
    #[test]
    fn version_1_files_fail_by_version() {
        let mut v1 = sample_checkpoint().to_bytes();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        reseal(&mut v1);
        assert!(matches!(
            Checkpoint::from_bytes(&v1),
            Err(CheckpointError::UnsupportedVersion(1))
        ));
    }

    /// The `dead` column is the last run before the checksum; a byte
    /// there other than 0 or 1 under a recomputed checksum is refused
    /// by name, not read as `true`.
    #[test]
    fn dead_bytes_other_than_0_or_1_fail() {
        let mut evil = sample_checkpoint().to_bytes();
        let n = evil.len();
        evil[n - 9] = 2;
        reseal(&mut evil);
        match Checkpoint::from_bytes(&evil) {
            Err(CheckpointError::Corrupt(msg)) => {
                assert!(msg.ends_with("`dead` byte 2 is not 0 or 1"), "{msg}")
            }
            other => panic!("{:?}", other.map(|_| "decoded")),
        }
    }

    /// Two particles that differ in every column, and from each other
    /// column to column.
    pub(crate) fn pinned_particles() -> ParticleSoA {
        ParticleSoA {
            x: vec![0.125, -1.5],
            y: vec![2.25, 3.75],
            omega_x: vec![0.6, -0.8],
            omega_y: vec![0.8, 0.6],
            energy: vec![1.0e6, 2.5e3],
            weight: vec![1.0, 0.375],
            dt_to_census: vec![1.0e-7, 3.0e-8],
            mfp_to_collision: vec![4.5, 0.0625],
            cellx: vec![5, 6],
            celly: vec![7, 8],
            absorb_hint: vec![9, 10],
            scatter_hint: vec![11, 12],
            key: vec![13, 14],
            rng_counter: vec![15, 16],
            dead: vec![false, true],
        }
    }

    /// A hand-built checkpoint of 430 bytes: every field set, the length
    /// no multiple of 8, so its frame ends in a tail word.
    fn pinned_checkpoint() -> Checkpoint {
        Checkpoint {
            fingerprint: 0x0123_4567_89ab_cdef,
            next_step: 2,
            n_timesteps: 5,
            elapsed: Duration::from_nanos(987_654_321),
            tally_footprint_bytes: 8192,
            counters: EventCounters {
                collisions: 17,
                facets: 18,
                material_switches: 19,
                lost_energy_ev: 0.75,
                census_energy_ev: -2.5,
                ..Default::default()
            },
            tally: vec![1.5, -0.25, 6.0e22],
            particles: pinned_particles(),
        }
    }

    /// The byte layout, pinned: the FNV-1a digest of a hand-built
    /// checkpoint. Every round-trip test passes through a layout change;
    /// this one does not, so a change must bump [`VERSION`] (old files
    /// then fail by name) and re-pin.
    #[test]
    fn checkpoint_layout_is_pinned() {
        let bytes = pinned_checkpoint().to_bytes();
        assert_eq!(
            bytes.len(),
            20 + 5 * 8 + 16 * 8 + 8 + 3 * 8 + 8 + 2 * 97 + 8
        );
        assert_eq!(
            fnv1a64(bytes.iter().copied()),
            0xde63_fbb0_0ed0_4092,
            "the NEUTCKPT layout changed: bump VERSION and re-pin"
        );
    }

    /// What the frame's checksum and length prefix promise, checked
    /// exhaustively on one sealed buffer that `open` (a container's
    /// decoder) reads: every single-bit flip fails by name — in the
    /// header as its field's error, anywhere else as `ChecksumMismatch`;
    /// swapping two unequal 8-byte payload words, at payload or at frame
    /// alignment, is a `ChecksumMismatch`; and a byte inserted past the
    /// header is `Corrupt` (trailing bytes), one removed `Truncated`.
    pub(crate) fn assert_frame_detects(
        bytes: &[u8],
        open: impl Fn(&[u8]) -> Result<(), CheckpointError>,
    ) {
        let n = bytes.len();
        assert!(!n.is_multiple_of(8), "a {n} B sample ends in no tail word");
        let refused = |evil: &[u8], what: &str| match open(evil) {
            Err(err) => err,
            Ok(()) => panic!("{what}: decoded"),
        };
        for bit in 0..n * 8 {
            let mut evil = bytes.to_vec();
            evil[bit / 8] ^= 1 << (bit % 8);
            let what = format!("bit {bit} flipped");
            let err = refused(&evil, &what);
            let named = match bit / 8 {
                0..8 => matches!(err, CheckpointError::BadMagic),
                8..12 => matches!(err, CheckpointError::UnsupportedVersion(_)),
                12..HEADER_LEN => {
                    matches!(
                        err,
                        CheckpointError::Truncated | CheckpointError::Corrupt(_)
                    )
                }
                _ => matches!(err, CheckpointError::ChecksumMismatch { .. }),
            };
            assert!(named, "{what}: {err}");
        }
        for first in [HEADER_LEN, HEADER_LEN.next_multiple_of(8)] {
            let words: Vec<usize> = (first..=n - 16).step_by(8).collect();
            for (k, &a) in words.iter().enumerate() {
                for &b in &words[k + 1..] {
                    if bytes[a..a + 8] == bytes[b..b + 8] {
                        continue;
                    }
                    let mut evil = bytes.to_vec();
                    let (head, rest) = evil.split_at_mut(b);
                    head[a..a + 8].swap_with_slice(&mut rest[..8]);
                    let what = format!("words at {a} and {b} swapped");
                    let err = refused(&evil, &what);
                    assert!(
                        matches!(err, CheckpointError::ChecksumMismatch { .. }),
                        "{what}: {err}"
                    );
                }
            }
        }
        for at in HEADER_LEN..=n {
            let mut longer = bytes.to_vec();
            longer.insert(at, 0x5a);
            let err = refused(&longer, &format!("byte inserted at {at}"));
            assert!(
                matches!(err, CheckpointError::Corrupt(_)),
                "insert at {at}: {err}"
            );
            if at < n {
                let mut shorter = bytes.to_vec();
                shorter.remove(at);
                let err = refused(&shorter, &format!("byte {at} removed"));
                assert!(
                    matches!(err, CheckpointError::Truncated),
                    "remove {at}: {err}"
                );
            }
        }
    }

    /// `bytes` relabelled as format `version` under the FNV-1a trailer
    /// every frame carried before the word-wise checksum.
    pub(crate) fn old_style_frame(bytes: &[u8], version: u32) -> Vec<u8> {
        let mut old = bytes.to_vec();
        old[8..12].copy_from_slice(&version.to_le_bytes());
        let n = old.len();
        let sum = fnv1a64(old[..n - 8].iter().copied());
        old[n - 8..].copy_from_slice(&sum.to_le_bytes());
        old
    }

    #[test]
    fn checkpoint_frame_detects_flips_swaps_and_length_changes() {
        let bytes = pinned_checkpoint().to_bytes();
        assert_frame_detects(&bytes, |b| Checkpoint::from_bytes(b).map(drop));
        assert!(matches!(
            Checkpoint::from_bytes(&old_style_frame(&bytes, 2)),
            Err(CheckpointError::UnsupportedVersion(2))
        ));
    }

    /// Seeded mutation fuzz of the decoder and the resume checks behind
    /// it: 2 400 mutations of a real tiny `csp` checkpoint — bit flips,
    /// truncations, extensions, and a count field set to `0`, `u64::MAX`
    /// or one more than it holds — each resealed (length prefix and
    /// checksum recomputed, so the body parser is reached instead of
    /// every case stopping at `ChecksumMismatch`), then decoded and
    /// resumed. Every outcome is `Ok` or a named `CheckpointError`, never
    /// a panic, and no single allocation exceeds the input plus an
    /// error's text.
    #[test]
    fn decoder_mutation_fuzz_resumes_or_names_the_corruption() {
        /// Upper bound on an error's text and the resume's fixed-size state.
        const ERROR_TEXT: usize = 512;
        let (sim, options, ckpt) = real_checkpoint();
        let bytes = ckpt.to_bytes();
        // The count words: next_step, n_timesteps, n_tally, n_particles.
        let n_tally_off = HEADER_LEN + 8 * 21;
        let counts = [
            HEADER_LEN + 8,
            HEADER_LEN + 16,
            n_tally_off,
            n_tally_off + 8 + 8 * ckpt.tally.len(),
        ];
        let reseal = |b: &mut Vec<u8>| {
            let n = b.len();
            if n >= HEADER_LEN + 8 {
                b[12..HEADER_LEN].copy_from_slice(&((n - HEADER_LEN - 8) as u64).to_le_bytes());
                reseal(b);
            }
        };
        let g = &mut crate::fuzz::Gen::new(20_170_905);
        let mut resumed = 0;
        for case in 0..2_400usize {
            let mut evil = bytes.clone();
            let what = match case % 4 {
                0 => {
                    let bit = g.usize_in(0, evil.len() * 8);
                    evil[bit / 8] ^= 1 << (bit % 8);
                    format!("bit {bit} flipped")
                }
                1 => {
                    evil.truncate(g.usize_in(0, evil.len()));
                    format!("truncated to {}", evil.len())
                }
                2 => {
                    let extra = g.usize_in(1, 65);
                    evil.extend((0..extra).map(|_| g.usize_in(0, 256) as u8));
                    format!("extended by {extra}")
                }
                _ => {
                    let off = *g.pick(&counts);
                    let n = u64::from_le_bytes(evil[off..off + 8].try_into().unwrap());
                    let new = *g.pick(&[0, u64::MAX, n + 1]);
                    evil[off..off + 8].copy_from_slice(&new.to_le_bytes());
                    format!("count at {off}: {n} -> {new}")
                }
            };
            reseal(&mut evil);
            let (verdict, largest) = crate::alloc_probe::largest_during(|| {
                let decoded = Checkpoint::from_bytes(&evil)?;
                SolveCore::resume(&sim, options, &decoded).map(|_| ())
            });
            match verdict {
                Ok(()) => resumed += 1,
                Err(e @ (CheckpointError::Io(_) | CheckpointError::NotFound)) => {
                    panic!("case {case} ({what}): a decoder reported {e}")
                }
                Err(e) => assert!(!e.to_string().is_empty(), "case {case} ({what})"),
            }
            assert!(
                largest <= evil.len() + ERROR_TEXT,
                "case {case} ({what}): allocated {largest} B for a {} B input",
                evil.len()
            );
        }
        // Flips in the tally, counters and particle payload that stay
        // consistent resume: the fuzz reaches past the parser.
        assert!(resumed > 100, "only {resumed} of 2 400 mutations resumed");
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
