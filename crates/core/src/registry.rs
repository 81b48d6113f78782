//! Solve registry: multiplexed, cancellable solves with a
//! content-addressed result cache and request coalescing.
//!
//! This is the serving core behind `neutral_serve` (DESIGN.md §16), kept
//! free of any HTTP surface so it is testable in-process. A fixed pool
//! of **runner threads** drains a queue of solve entries, advancing each
//! leased solve by exactly one timestep chunk (a [`Driver::advance`]
//! — for an unsharded request, the wrapped core stepped in place) before
//! handing it back — so many concurrent solves interleave over
//! one shared worker pool, and cancellation/checkpointing happen at
//! census-boundary chunk edges, never mid-kernel.
//!
//! The cache story rides on the bitwise-determinism invariant: merged
//! tallies and counters depend only on the problem's content and the
//! scheme (never on worker count, schedule or shard count), and
//! [`config_fingerprint`] covers exactly that, so it is a
//! sound content address for finished results. That holds by
//! construction: the solve path has one tally, the deterministic lane
//! fold, so what is hashed is what runs, on any host width. Identical
//! concurrent submissions **coalesce** onto one in-flight entry; an identical
//! submission after completion is a **cache hit** answered without
//! re-running transport. Both are observable through [`Admission`] and
//! [`RegistryStats`], which the end-to-end tests use as solve-count
//! instrumentation.
//!
//! Fingerprinting needs the built problem (its density field and tables
//! are what is hashed), and building one costs more than answering from
//! the cache. [`Registry::submit_with`] therefore takes a canonical
//! request key and a build closure, and memoizes *key → fingerprint*: a
//! key seen before whose fingerprint still holds an entry is admitted
//! without building. There is still one identity function — the memo is
//! a cache *of* `config_fingerprint`, indexed by text compared whole —
//! and since building is a pure function of the key a memo row can be
//! absent but never stale. [`RegistryStats::problems_built`] counts the
//! closures that ran.
//!
//! Checkpointing is optional per solve ([`SubmitRequest::checkpoint`]);
//! each chunk advances its solve through the one [`Driver`], so a file
//! holding this solve's checkpoint resumes it and one holding another's
//! is refused ([`SubmitError::Checkpoint`]). No two *live* solves may
//! share a checkpoint file, or a file the other's store writes: unique
//! temp names keep concurrent writers' bytes apart, but interleaved saves
//! from two solves would leave the file's *contents* flapping between
//! two configurations.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::checkpoint::{config_fingerprint, CheckpointError, CheckpointStore, FaultPlan};
use crate::config::Problem;
use crate::drive::{Checkpointing, Driver};
use crate::shard::{panic_text, ShardConfig, ShardFaultPlan, ShardStats};
use crate::sim::{RunOptions, RunReport, Simulation};

/// Configuration for a [`Registry`].
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Number of runner threads draining the solve queue (= how many
    /// solves advance concurrently).
    pub runners: usize,
    /// Artificial pause after each timestep chunk. Test/demo throttle:
    /// it widens the window in which progress polling and mid-solve
    /// cancellation are observable on tiny problems.
    pub chunk_delay: Option<Duration>,
    /// Deterministic fault injection (testing, mirroring the checkpoint
    /// layer's [`crate::checkpoint::FaultPlan`] idiom): panic inside the
    /// leased chunk whose solve has completed exactly this many
    /// timesteps. Exercises the runner's unwind protection — the solve
    /// must end `Failed`, its fingerprint must be released, and the
    /// runner thread must survive to serve the next entry.
    pub fault_panic_on_step: Option<usize>,
    /// Deterministic fault injection, the hang variant of
    /// [`fault_panic_on_step`](Self::fault_panic_on_step): the leased
    /// chunk whose solve has completed exactly this many timesteps
    /// stalls instead of advancing. Only meaningful together with
    /// [`step_deadline`](Self::step_deadline) — without a deadline the
    /// injected hang blocks its runner forever, which is exactly the
    /// failure mode the deadline exists to contain.
    pub fault_hang_on_step: Option<usize>,
    /// Wall-clock budget for one timestep chunk. When set, each chunk
    /// runs on a supervised thread; a chunk that exceeds the budget
    /// fails its solve with a named deadline cause (the stuck thread is
    /// cancelled and abandoned) while the runner moves on to the next
    /// queued entry. `None` (the default) trusts chunks to finish.
    pub step_deadline: Option<Duration>,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            runners: 2,
            chunk_delay: None,
            fault_panic_on_step: None,
            fault_hang_on_step: None,
            step_deadline: None,
        }
    }
}

/// A solve submission: the fully-validated problem plus run options.
///
/// Thread counts and driver schedule belong to `options` and are chosen
/// by the service, not the client; under the deterministic configuration
/// [`Registry::submit`] resolves every request to, they do not affect
/// results, which is what makes the fingerprint cache sound.
#[derive(Debug)]
pub struct SubmitRequest {
    /// The problem to solve (already validated by the params layer).
    pub problem: Problem,
    /// Execution options for every chunk of this solve.
    pub options: RunOptions,
    /// Optional checkpoint file, resumed from when it holds this solve.
    pub checkpoint_file: Option<PathBuf>,
    /// Save a checkpoint every this many completed timesteps (only
    /// meaningful with `checkpoint_file`; clamped to ≥ 1).
    pub checkpoint_every: usize,
    /// Shard count for fault-isolated sharded execution (DESIGN.md
    /// §18); 1 = ordinary unsharded chunks. Purely an execution
    /// concern — results are bitwise identical for any value, so the
    /// fingerprint cache stays sound across shard counts.
    pub shards: usize,
    /// Deterministic shard-fault schedule (testing; empty = no faults).
    pub shard_fault: ShardFaultPlan,
}

impl SubmitRequest {
    /// A submission with no checkpoint spill.
    #[must_use]
    pub fn new(problem: Problem, options: RunOptions) -> Self {
        Self {
            problem,
            options,
            checkpoint_file: None,
            checkpoint_every: 1,
            shards: 1,
            shard_fault: ShardFaultPlan::default(),
        }
    }

    /// Checkpoint to `path` every `every` timesteps; this solve's checkpoint there resumes it.
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>, every: usize) -> Self {
        self.checkpoint_file = Some(path.into());
        self.checkpoint_every = every.max(1);
        self
    }

    /// Split each timestep chunk into `shards` fault-isolated shards,
    /// optionally with an injected fault schedule.
    #[must_use]
    pub fn sharded(mut self, shards: usize, fault: ShardFaultPlan) -> Self {
        self.shards = shards.max(1);
        self.shard_fault = fault;
        self
    }
}

/// How a submission was admitted (the solve-count instrumentation the
/// coalescing/caching tests assert on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A new underlying solve was created and queued.
    Fresh,
    /// Attached to an identical solve already queued or running.
    Coalesced,
    /// Answered by an identical solve that already completed.
    CacheHit,
}

impl Admission {
    /// Stable lowercase name (wire format for the HTTP layer).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Admission::Fresh => "fresh",
            Admission::Coalesced => "coalesced",
            Admission::CacheHit => "cache_hit",
        }
    }
}

/// Successful submission: the entry id to poll plus how it was admitted.
///
/// Coalesced and cache-hit submissions return the *existing* entry's id,
/// so every client polling the same configuration shares one entry (and
/// a cancel on that id cancels it for all of them — documented service
/// semantics, not an accident).
#[derive(Debug, Clone, Copy)]
pub struct SubmitReceipt {
    /// Entry id for status polling and result fetch.
    pub id: u64,
    /// Whether this created, joined, or short-circuited a solve.
    pub admission: Admission,
}

/// Why a submission was rejected.
#[derive(Debug)]
pub enum SubmitError {
    /// Another live (queued/running) solve already checkpoints to this
    /// file, or to a file one of the two stores also writes: the other
    /// name plus a `.`-suffix (`.prev`, `.tmp.*`, `.shard<k>`).
    CheckpointFileBusy {
        /// The contested path.
        path: PathBuf,
        /// Entry id of the solve holding it.
        holder: u64,
    },
    /// The checkpoint file cannot be resumed: it holds another solve's
    /// checkpoint ([`CheckpointError::ConfigMismatch`]), or one that is
    /// corrupt with no valid fallback. The file is left as it was.
    Checkpoint {
        /// The checkpoint file.
        path: PathBuf,
        /// Why it cannot be resumed.
        cause: CheckpointError,
    },
    /// The registry is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::CheckpointFileBusy { path, holder } => write!(
                f,
                "checkpoint file {} is in use by live solve {holder}",
                path.display()
            ),
            SubmitError::Checkpoint { path, cause } => {
                let path = path.display();
                write!(f, "checkpoint file {path} cannot be resumed: {cause}")
            }
            SubmitError::ShuttingDown => write!(f, "registry is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Lifecycle state of a solve entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveState {
    /// Waiting for a runner (or between chunks, or still being built).
    Queued,
    /// A runner is executing a timestep chunk right now.
    Running,
    /// All timesteps ran; the result is cached.
    Done,
    /// Cancelled before completion; no result.
    Cancelled,
    /// The solve aborted (e.g. checkpoint spill I/O error).
    Failed(String),
}

impl SolveState {
    /// Stable lowercase name (wire format for the HTTP layer).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SolveState::Queued => "queued",
            SolveState::Running => "running",
            SolveState::Done => "done",
            SolveState::Cancelled => "cancelled",
            SolveState::Failed(_) => "failed",
        }
    }

    /// Whether the entry will never change state again.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            SolveState::Done | SolveState::Cancelled | SolveState::Failed(_)
        )
    }
}

/// A point-in-time snapshot of one solve entry.
#[derive(Debug, Clone)]
pub struct SolveStatus {
    /// Entry id.
    pub id: u64,
    /// Content address of the configuration ([`config_fingerprint`]).
    pub fingerprint: u64,
    /// Lifecycle state.
    pub state: SolveState,
    /// Timesteps completed so far.
    pub steps_done: usize,
    /// Total timesteps of the solve.
    pub n_timesteps: usize,
    /// Mesh cells along x — lets result consumers render the flat tally
    /// as `(ix, iy)` without re-deriving the problem.
    pub mesh_nx: usize,
    /// The timestep the solve resumed at from its checkpoint file
    /// (`None` = it started fresh).
    pub resumed_from: Option<usize>,
}

/// Monotonic registry counters (solve-count instrumentation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Submissions admitted: `coalesced + cache_hits + solves_started`.
    /// A refused submission counts nowhere.
    pub submitted: u64,
    /// Submissions that attached to an in-flight identical solve.
    pub coalesced: u64,
    /// Submissions answered from the finished-result cache.
    pub cache_hits: u64,
    /// Underlying solves actually created (= fresh admissions).
    pub solves_started: u64,
    /// Times a [`Registry::submit_with`] build closure ran: a keyed
    /// submission the memo answered leaves this untouched, which is how
    /// "a duplicate never rebuilds its problem" is seen rather than timed.
    pub problems_built: u64,
    /// Timestep chunks executed across all solves.
    pub chunks_run: u64,
    /// Solves that ran to completion.
    pub completed: u64,
    /// Solves cancelled before completion.
    pub cancelled: u64,
    /// Solves that aborted with an error.
    pub failed: u64,
    /// Failed shard attempts that were retried (sharded solves).
    pub shard_retries: u64,
    /// `(step, shard)` units that succeeded only after requeueing
    /// (sharded solves).
    pub shard_requeues: u64,
}

struct Entry {
    fingerprint: u64,
    state: SolveState,
    /// The solve with its checkpoint store and cadence: present while
    /// paused between chunks (and before first enqueue); leased out
    /// (`None`) while a runner executes a chunk.
    task: Option<Box<Driver>>,
    /// Shard-stat snapshot after the previous chunk, so each chunk
    /// contributes only its delta to the registry-wide counters.
    shard_stats_seen: ShardStats,
    steps_done: usize,
    n_timesteps: usize,
    mesh_nx: usize,
    resumed_from: Option<usize>,
    cancel_requested: bool,
    /// A later submission was handed this entry's id.
    attached: bool,
    result: Option<Arc<RunReport>>,
    checkpoint_file: Option<PathBuf>,
}

impl Entry {
    fn status(&self, id: u64) -> SolveStatus {
        SolveStatus {
            id,
            fingerprint: self.fingerprint,
            state: self.state.clone(),
            steps_done: self.steps_done,
            n_timesteps: self.n_timesteps,
            mesh_nx: self.mesh_nx,
            resumed_from: self.resumed_from,
        }
    }
}

/// Whether stores on `a` and `b` can touch each other's files: a store
/// on `F` writes `F`, `F.prev` and `F.tmp.*` (and sweeps the last when it
/// opens), and a sharded solve's shard stores `F.shard<k>` — so two live
/// names conflict when they are equal or one is the other plus a
/// `.`-suffix.
fn stores_overlap(a: &Path, b: &Path) -> bool {
    let (a, b) = (
        a.as_os_str().as_encoded_bytes(),
        b.as_os_str().as_encoded_bytes(),
    );
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    long.starts_with(short) && long.get(short.len()).is_none_or(|&c| c == b'.')
}

struct State {
    next_id: u64,
    entries: HashMap<u64, Entry>,
    /// Content address → entry id, for live entries (coalescing) and
    /// done entries (result cache). Removed on cancel/failure.
    by_fingerprint: HashMap<u64, u64>,
    /// Request key → content address, for [`Registry::submit_with`]: what
    /// a build + fingerprint of that request came to. Building is a pure
    /// function of the key, so a row is never stale, only absent; a row
    /// goes only with the refused placeholder that wrote it (like
    /// `entries`, which they are bounded by).
    memo: HashMap<String, u64>,
    /// Checkpoint files held by live entries (exclusivity guard).
    live_checkpoint_files: HashMap<PathBuf, u64>,
    queue: VecDeque<u64>,
    stats: RegistryStats,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    cvar: Condvar,
    cfg: RegistryConfig,
}

impl Inner {
    /// Move `entry` to a terminal state, releasing its fingerprint
    /// mapping (unless Done — finished results stay cached) and its
    /// checkpoint-file reservation.
    fn finalize(st: &mut State, id: u64, state: SolveState) {
        let entry = st.entries.get_mut(&id).expect("finalize of unknown entry");
        entry.task = None;
        match &state {
            SolveState::Done => st.stats.completed += 1,
            SolveState::Cancelled => st.stats.cancelled += 1,
            SolveState::Failed(_) => st.stats.failed += 1,
            _ => unreachable!("finalize with non-terminal state"),
        }
        if !matches!(state, SolveState::Done)
            && st.by_fingerprint.get(&entry.fingerprint) == Some(&id)
        {
            st.by_fingerprint.remove(&entry.fingerprint);
        }
        if let Some(path) = &entry.checkpoint_file {
            if st.live_checkpoint_files.get(path) == Some(&id) {
                let path = path.clone();
                st.live_checkpoint_files.remove(&path);
            }
        }
        entry.state = state;
    }

    /// Undo the admission of placeholder `id`, whose submitter was refused
    /// and which nobody else was handed: drop the entry, release its
    /// fingerprint and checkpoint file, the memo row `built_for` wrote,
    /// and its counts in `submitted` and `solves_started`.
    fn forget(st: &mut State, id: u64, built_for: Option<&str>) {
        let entry = st.entries.remove(&id).expect("forget of unknown entry");
        if st.by_fingerprint.get(&entry.fingerprint) == Some(&id) {
            st.by_fingerprint.remove(&entry.fingerprint);
        }
        if let Some(path) = &entry.checkpoint_file {
            if st.live_checkpoint_files.get(path) == Some(&id) {
                st.live_checkpoint_files.remove(path);
            }
        }
        if let Some(key) = built_for {
            if st.memo.get(key) == Some(&entry.fingerprint) {
                st.memo.remove(key);
            }
        }
        st.stats.submitted -= 1;
        st.stats.solves_started -= 1;
    }
}

/// The multiplexing solve service core. See the module docs.
pub struct Registry {
    inner: Arc<Inner>,
    runners: Vec<JoinHandle<()>>,
}

impl Registry {
    /// Start a registry with `cfg.runners` runner threads.
    #[must_use]
    pub fn new(cfg: RegistryConfig) -> Self {
        let runners = cfg.runners.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                next_id: 1,
                entries: HashMap::new(),
                by_fingerprint: HashMap::new(),
                memo: HashMap::new(),
                live_checkpoint_files: HashMap::new(),
                queue: VecDeque::new(),
                stats: RegistryStats::default(),
                shutdown: false,
            }),
            cvar: Condvar::new(),
            cfg,
        });
        let handles = (0..runners)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || runner_loop(&inner))
            })
            .collect();
        Self {
            inner,
            runners: handles,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.inner.state.lock().expect("registry state poisoned")
    }

    /// Submit a solve. Identical configurations coalesce or hit the
    /// cache (see [`Admission`]); otherwise the simulation and initial
    /// population are built *outside* the registry lock and the new
    /// entry is queued.
    pub fn submit(&self, req: SubmitRequest) -> Result<SubmitReceipt, SubmitError> {
        self.admit(req, None)
    }

    /// [`submit`](Self::submit) for a caller that has not built its
    /// problem yet. `key` is a canonical text of the request (equal keys
    /// must mean equal `build()` results — e.g. a fixpoint serialization
    /// of the parameters plus the scheme); `build` must be a pure
    /// function of it. A key submitted before, whose content address
    /// still holds an entry, is admitted as a cache hit or coalesced
    /// **without calling `build`**; anything else builds, is
    /// fingerprinted and admitted exactly as by `submit`, and its key is
    /// remembered. The content address stays [`config_fingerprint`]: the
    /// key is only ever compared whole, as the index of a memo of that
    /// function.
    pub fn submit_with(
        &self,
        key: &str,
        build: impl FnOnce() -> SubmitRequest,
    ) -> Result<SubmitReceipt, SubmitError> {
        {
            let mut st = self.lock();
            if st.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            let known = st.memo.get(key).and_then(|fp| st.by_fingerprint.get(fp));
            if let Some(&existing) = known {
                return Ok(attach(&mut st, existing));
            }
        }
        self.admit(build(), Some(key))
    }

    /// The one admission path; `built_for` is the memo key whose build
    /// closure produced `req`, if one did.
    fn admit(
        &self,
        req: SubmitRequest,
        built_for: Option<&str>,
    ) -> Result<SubmitReceipt, SubmitError> {
        let fingerprint = config_fingerprint(&req.problem, req.options.scheme);
        let n_timesteps = req.problem.n_timesteps;
        let mesh_nx = req.problem.mesh.nx();
        let id = {
            let mut st = self.lock();
            if let Some(key) = built_for {
                st.stats.problems_built += 1;
                st.memo.insert(key.to_owned(), fingerprint);
            }
            if st.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            if let Some(&existing) = st.by_fingerprint.get(&fingerprint) {
                return Ok(attach(&mut st, existing));
            }
            if let Some(path) = &req.checkpoint_file {
                let live = &st.live_checkpoint_files;
                if let Some((_, &holder)) = live.iter().find(|(f, _)| stores_overlap(f, path)) {
                    return Err(SubmitError::CheckpointFileBusy {
                        path: path.clone(),
                        holder,
                    });
                }
            }
            // Reserve the id, fingerprint and checkpoint file while the
            // (possibly expensive) population spawn happens unlocked:
            // concurrent identical submissions must coalesce onto this
            // entry, so the placeholder goes in first. It is Queued but
            // *not* in the run queue until the task is installed.
            let id = st.next_id;
            st.next_id += 1;
            st.stats.submitted += 1;
            st.stats.solves_started += 1;
            st.by_fingerprint.insert(fingerprint, id);
            if let Some(path) = &req.checkpoint_file {
                st.live_checkpoint_files.insert(path.clone(), id);
            }
            st.entries.insert(
                id,
                Entry {
                    fingerprint,
                    state: SolveState::Queued,
                    task: None,
                    shard_stats_seen: ShardStats::default(),
                    steps_done: 0,
                    n_timesteps,
                    mesh_nx,
                    resumed_from: None,
                    cancel_requested: false,
                    attached: false,
                    result: None,
                    checkpoint_file: req.checkpoint_file.clone(),
                },
            );
            id
        };

        // Build outside the lock: particle spawn + lookup-structure prep,
        // and the store, opened only now that the file is reserved: it
        // sweeps `<file>.tmp.*`, which a live writer may own.
        let sim = Arc::new(Simulation::new(req.problem));
        let mut config = ShardConfig::new(req.shards.max(1));
        config.fault_plan = req.shard_fault;
        let checkpointing = req.checkpoint_file.as_ref().map(|path| Checkpointing {
            store: CheckpointStore::new(path),
            every: req.checkpoint_every,
            faults: FaultPlan::none(),
        });
        let opened = Driver::open(sim, req.options, config, checkpointing);

        let mut st = self.lock();
        let driver = match opened {
            Ok(driver) => driver,
            Err(cause) => {
                let path = req.checkpoint_file.expect("only a store fails to open");
                let refused = SubmitError::Checkpoint { path, cause };
                if st.entries[&id].attached {
                    // A coalesced submitter holds the id: it fails by name.
                    Inner::finalize(&mut st, id, SolveState::Failed(refused.to_string()));
                } else {
                    Inner::forget(&mut st, id, built_for);
                }
                self.inner.cvar.notify_all();
                return Err(refused);
            }
        };
        let entry = st.entries.get_mut(&id).expect("placeholder entry vanished");
        entry.steps_done = driver.solve().steps_done();
        entry.resumed_from = driver.resumed.as_ref().map(|(step, _)| *step);
        if entry.cancel_requested {
            Inner::finalize(&mut st, id, SolveState::Cancelled);
        } else {
            entry.task = Some(Box::new(driver));
            st.queue.push_back(id);
        }
        self.inner.cvar.notify_all();
        Ok(SubmitReceipt {
            id,
            admission: Admission::Fresh,
        })
    }

    /// Snapshot the status of entry `id`.
    #[must_use]
    pub fn status(&self, id: u64) -> Option<SolveStatus> {
        self.lock().entries.get(&id).map(|e| e.status(id))
    }

    /// The finished report of entry `id` (None unless `Done`).
    #[must_use]
    pub fn result(&self, id: u64) -> Option<Arc<RunReport>> {
        let st = self.lock();
        st.entries.get(&id).and_then(|e| e.result.clone())
    }

    /// Request cancellation of entry `id`. Queued entries cancel
    /// immediately; running entries cancel at their next chunk boundary.
    /// Returns `false` for unknown or already-terminal entries.
    pub fn cancel(&self, id: u64) -> bool {
        let mut st = self.lock();
        let Some(entry) = st.entries.get_mut(&id) else {
            return false;
        };
        if entry.state.is_terminal() {
            return false;
        }
        entry.cancel_requested = true;
        if entry.state == SolveState::Queued && entry.task.is_some() {
            Inner::finalize(&mut st, id, SolveState::Cancelled);
        }
        self.inner.cvar.notify_all();
        true
    }

    /// Block until entry `id` reaches a terminal state; returns its
    /// final status (None for an unknown id).
    #[must_use]
    pub fn wait(&self, id: u64) -> Option<SolveStatus> {
        let mut st = self.lock();
        loop {
            let entry = st.entries.get(&id)?;
            if entry.state.is_terminal() {
                return Some(entry.status(id));
            }
            st = self.inner.cvar.wait(st).expect("registry state poisoned");
        }
    }

    /// Current counter snapshot.
    #[must_use]
    pub fn stats(&self) -> RegistryStats {
        self.lock().stats
    }

    /// Stop accepting work, let in-flight chunks finish, and join the
    /// runner threads. Idempotent; also called on drop.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.lock();
            st.shutdown = true;
        }
        self.inner.cvar.notify_all();
        for handle in self.runners.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Admit a submission onto the existing entry `id` that shares its content
/// address: a cache hit if that solve is done, coalesced otherwise.
fn attach(st: &mut State, id: u64) -> SubmitReceipt {
    st.stats.submitted += 1;
    let entry = st.entries.get_mut(&id).expect("attach to an unknown entry");
    entry.attached = true;
    let admission = match entry.state {
        SolveState::Done => {
            st.stats.cache_hits += 1;
            Admission::CacheHit
        }
        _ => {
            st.stats.coalesced += 1;
            Admission::Coalesced
        }
    };
    SubmitReceipt { id, admission }
}

/// Execute one timestep chunk of `task`, unwind-protected: `Ok(done)`
/// once it advanced and saved at its cadence, else the cause that fails
/// the solve. `cancel` is observed by the injected hang fault so a
/// deadline supervisor can release the stuck thread.
fn run_chunk(
    cfg: &RegistryConfig,
    driver: &mut Driver,
    cancel: &AtomicBool,
) -> Result<bool, String> {
    let chunk = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let step = driver.solve().steps_done();
        if cfg.fault_panic_on_step == Some(step) {
            panic!("injected runner fault at timestep {step}");
        }
        if cfg.fault_hang_on_step == Some(step) {
            while !cancel.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(2));
            }
            // Cancelled by the deadline supervisor: the verdict is
            // never observed, the thread just needs to exit.
            return Err("injected hang cancelled".to_owned());
        }
        driver.advance().map_err(|e| e.to_string())?;
        Ok(driver.solve().is_done())
    }));
    chunk.unwrap_or_else(|payload| {
        Err(format!(
            "runner panicked mid-chunk: {}",
            panic_text(payload.as_ref())
        ))
    })
}

fn runner_loop(inner: &Inner) {
    loop {
        // Lease the next runnable entry's task.
        let (id, mut task) = {
            let mut st = inner.state.lock().expect("registry state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    let entry = st.entries.get_mut(&id).expect("queued entry vanished");
                    if entry.state.is_terminal() {
                        continue; // cancelled while queued
                    }
                    entry.state = SolveState::Running;
                    let task = entry.task.take().expect("queued entry has no task");
                    break (id, task);
                }
                st = inner.cvar.wait(st).expect("registry state poisoned");
            }
        };

        // One timestep chunk, outside the lock: other runners keep
        // draining the queue while this solve advances. The chunk is
        // unwind-protected — a panic in transport (or injected via
        // `fault_panic_on_step`) must not take the runner thread, and
        // every solve queued behind it, down with the one bad solve.
        // With a `step_deadline`, the chunk additionally runs on a
        // supervised thread so a wedged chunk can be timed out; on
        // timeout the task is lost with its thread (`None` below) and
        // the solve fails with a named deadline cause.
        let (verdict, mut task) = match inner.cfg.step_deadline {
            None => (
                run_chunk(&inner.cfg, &mut task, &AtomicBool::new(false)),
                Some(task),
            ),
            Some(deadline) => {
                let cancel = Arc::new(AtomicBool::new(false));
                let (tx, rx) = mpsc::channel();
                let worker = {
                    let cfg = inner.cfg.clone();
                    let cancel = Arc::clone(&cancel);
                    std::thread::spawn(move || {
                        let verdict = run_chunk(&cfg, &mut task, &cancel);
                        let _ = tx.send((verdict, task));
                    })
                };
                match rx.recv_timeout(deadline) {
                    Ok((verdict, task)) => {
                        let _ = worker.join();
                        (verdict, Some(task))
                    }
                    Err(_) => {
                        // Cancel and abandon the stuck thread; it holds
                        // the (now unreachable) task, so the solve can
                        // only fail.
                        cancel.store(true, Ordering::Relaxed);
                        let ms = deadline.as_millis();
                        let cause =
                            format!("step deadline exceeded: chunk still running after {ms} ms");
                        (Err(cause), None)
                    }
                }
            }
        };
        if let Some(delay) = inner.cfg.chunk_delay {
            std::thread::sleep(delay);
        }

        // Hand the lease back, account the shard retry/requeue work done
        // by this chunk (delta against the previous chunk's snapshot, even
        // when the chunk ultimately failed), and decide what happens next.
        let mut guard = inner.state.lock().expect("registry state poisoned");
        let st = &mut *guard;
        st.stats.chunks_run += 1;
        let entry = st.entries.get_mut(&id).expect("running entry vanished");
        if let Some(driver) = &task {
            let now = driver.solve().stats();
            let seen = std::mem::replace(&mut entry.shard_stats_seen, now);
            st.stats.shard_retries += now.retries - seen.retries;
            st.stats.shard_requeues += now.requeues - seen.requeues;
            entry.steps_done = driver.solve().steps_done();
        }
        match verdict {
            // A panicked chunk's task is dropped (or marooned on its
            // abandoned thread) in an unknown mid-chunk state; the
            // fingerprint is released so an identical resubmission re-runs
            // fresh instead of cache-hitting a corpse.
            Err(cause) => Inner::finalize(st, id, SolveState::Failed(cause)),
            Ok(done) => {
                let task = task.take().expect("advanced chunk returned its task");
                if entry.cancel_requested {
                    Inner::finalize(st, id, SolveState::Cancelled);
                } else if done {
                    entry.result = Some(Arc::new(task.finish()));
                    Inner::finalize(st, id, SolveState::Done);
                } else {
                    entry.task = Some(task);
                    entry.state = SolveState::Queued;
                    st.queue.push_back(id);
                }
            }
        }
        inner.cvar.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProblemScale, TestCase};

    fn tiny_problem(seed: u64, steps: usize) -> Problem {
        let mut p = TestCase::Csp.build(ProblemScale::tiny(), seed);
        p.n_timesteps = steps;
        p
    }

    /// A direct run of `problem` under the default options — what a
    /// served result must equal.
    fn direct_run(problem: Problem) -> RunReport {
        Simulation::new(problem).run(RunOptions::default())
    }

    fn throttled(runners: usize) -> Registry {
        Registry::new(RegistryConfig {
            runners,
            chunk_delay: Some(Duration::from_millis(30)),
            ..Default::default()
        })
    }

    #[test]
    fn served_result_matches_direct_run() {
        let registry = Registry::new(RegistryConfig::default());
        let receipt = registry
            .submit(SubmitRequest::new(
                tiny_problem(7, 3),
                RunOptions::default(),
            ))
            .unwrap();
        assert_eq!(receipt.admission, Admission::Fresh);
        let status = registry.wait(receipt.id).unwrap();
        assert_eq!(status.state, SolveState::Done);
        assert_eq!(status.steps_done, 3);
        let served = registry.result(receipt.id).unwrap();
        let direct = direct_run(tiny_problem(7, 3));
        assert_eq!(served.tally, direct.tally);
        assert_eq!(served.counters, direct.counters);
        assert_eq!(served.timesteps, direct.timesteps);
    }

    #[test]
    fn identical_resubmit_is_cache_hit() {
        let registry = Registry::new(RegistryConfig::default());
        let first = registry
            .submit(SubmitRequest::new(
                tiny_problem(11, 2),
                RunOptions::default(),
            ))
            .unwrap();
        registry.wait(first.id).unwrap();
        let second = registry
            .submit(SubmitRequest::new(
                tiny_problem(11, 2),
                RunOptions::default(),
            ))
            .unwrap();
        assert_eq!(second.admission, Admission::CacheHit);
        assert_eq!(second.id, first.id);
        let stats = registry.stats();
        assert_eq!(stats.solves_started, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn concurrent_identical_submissions_coalesce() {
        let registry = throttled(1);
        let first = registry
            .submit(SubmitRequest::new(
                tiny_problem(13, 8),
                RunOptions::default(),
            ))
            .unwrap();
        let second = registry
            .submit(SubmitRequest::new(
                tiny_problem(13, 8),
                RunOptions::default(),
            ))
            .unwrap();
        let distinct = registry
            .submit(SubmitRequest::new(
                tiny_problem(14, 8),
                RunOptions::default(),
            ))
            .unwrap();
        assert_eq!(second.admission, Admission::Coalesced);
        assert_eq!(second.id, first.id);
        assert_eq!(distinct.admission, Admission::Fresh);
        assert_ne!(distinct.id, first.id);
        registry.wait(first.id).unwrap();
        registry.wait(distinct.id).unwrap();
        assert_eq!(registry.stats().solves_started, 2);
    }

    #[test]
    fn cancel_mid_solve_is_clean() {
        let registry = throttled(1);
        let receipt = registry
            .submit(SubmitRequest::new(
                tiny_problem(17, 50),
                RunOptions::default(),
            ))
            .unwrap();
        assert!(registry.cancel(receipt.id));
        let status = registry.wait(receipt.id).unwrap();
        assert_eq!(status.state, SolveState::Cancelled);
        assert!(status.steps_done < 50);
        assert!(registry.result(receipt.id).is_none());
        // A terminal entry cannot be cancelled again...
        assert!(!registry.cancel(receipt.id));
        // ...and the fingerprint is free again: a resubmit runs fresh.
        let again = registry
            .submit(SubmitRequest::new(
                tiny_problem(17, 50),
                RunOptions::default(),
            ))
            .unwrap();
        assert_eq!(again.admission, Admission::Fresh);
        assert!(registry.cancel(again.id));
    }

    #[test]
    fn live_solves_cannot_share_a_checkpoint_file() {
        let dir =
            std::env::temp_dir().join(format!("neutral_registry_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("shared.ckpt");
        let registry = throttled(2);
        let first = registry
            .submit(
                SubmitRequest::new(tiny_problem(19, 30), RunOptions::default())
                    .checkpoint(&ckpt, 1),
            )
            .unwrap();
        let err = registry
            .submit(
                SubmitRequest::new(tiny_problem(20, 30), RunOptions::default())
                    .checkpoint(&ckpt, 1),
            )
            .unwrap_err();
        match err {
            SubmitError::CheckpointFileBusy { holder, .. } => assert_eq!(holder, first.id),
            other => panic!("expected CheckpointFileBusy, got {other}"),
        }
        registry.cancel(first.id);
        registry.wait(first.id).unwrap();
        // Reservation released on terminal state: the cancelled solve,
        // resubmitted, takes its file back (and resumes what it saved).
        let third = registry
            .submit(
                SubmitRequest::new(tiny_problem(19, 30), RunOptions::default())
                    .checkpoint(&ckpt, 1),
            )
            .unwrap();
        let status = registry.wait(third.id).unwrap();
        assert_eq!(status.state, SolveState::Done);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checkpoint file's store also writes `<file>.prev`, `<file>.tmp.*`
    /// and, sharded, `<file>.shard<k>`: a live solve on one of those
    /// names holds the file too, in either direction, while a name that
    /// only shares a prefix is another file.
    #[test]
    fn live_solves_cannot_share_each_others_store_files() {
        let dir = std::env::temp_dir().join(format!("neutral_registry_own_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let registry = throttled(1);
        let submit = |seed: u64, name: &str| {
            registry.submit(
                SubmitRequest::new(tiny_problem(seed, 30), RunOptions::default())
                    .checkpoint(dir.join(name), 1),
            )
        };
        let busy =
            |result: Result<SubmitReceipt, SubmitError>, holder: u64, name: &str| match result {
                Err(SubmitError::CheckpointFileBusy { holder: h, .. }) => {
                    assert_eq!(h, holder, "{name}")
                }
                other => panic!("{name}: expected CheckpointFileBusy, got {other:?}"),
            };
        let x = submit(61, "x.ckpt").unwrap();
        for name in ["x.ckpt.prev", "x.ckpt.tmp.1.0", "x.ckpt.shard0"] {
            busy(submit(62, name), x.id, name);
        }
        let y = submit(63, "y.ckpt.prev").unwrap();
        busy(submit(64, "y.ckpt"), y.id, "y.ckpt");
        let other = submit(65, "x.ckpt2").unwrap();
        for id in [x.id, y.id, other.id] {
            registry.cancel(id);
            registry.wait(id).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Leave what a server that dies after boundary 1 of a 3-step solve
    /// of `seed` leaves at `ckpt`: the chunk that would run timestep 1
    /// panics, after the boundary-1 save.
    fn die_after_boundary_1(seed: u64, ckpt: &Path) {
        let dying = Registry::new(RegistryConfig {
            runners: 1,
            fault_panic_on_step: Some(1),
            ..Default::default()
        });
        let request = SubmitRequest::new(tiny_problem(seed, 3), RunOptions::default());
        let id = dying.submit(request.checkpoint(ckpt, 1)).unwrap().id;
        assert!(matches!(
            dying.wait(id).unwrap().state,
            SolveState::Failed(_)
        ));
        let saved = std::fs::read(ckpt).unwrap();
        let saved = crate::checkpoint::Checkpoint::from_bytes(&saved).unwrap();
        assert_eq!(saved.next_step, 1);
    }

    /// An identical resubmission on the same checkpoint file, to a new
    /// registry, resumes at boundary 1 and serves a cold solve's tally,
    /// counters and dump bytes.
    #[test]
    fn a_resubmitted_solve_resumes_from_its_checkpoint_file() {
        let dir =
            std::env::temp_dir().join(format!("neutral_registry_resume_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("resume.ckpt");
        die_after_boundary_1(51, &ckpt);

        let registry = Registry::new(RegistryConfig::default());
        let request = SubmitRequest::new(tiny_problem(51, 3), RunOptions::default());
        let receipt = registry.submit(request.checkpoint(&ckpt, 1)).unwrap();
        assert_eq!(receipt.admission, Admission::Fresh);
        assert_eq!(registry.status(receipt.id).unwrap().resumed_from, Some(1));
        let status = registry.wait(receipt.id).unwrap();
        assert_eq!(status.state, SolveState::Done);
        assert_eq!((status.steps_done, status.resumed_from), (3, Some(1)));

        let served = registry.result(receipt.id).unwrap();
        let cold = direct_run(tiny_problem(51, 3));
        assert_eq!(served.counters, cold.counters);
        let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&served.tally), bits(&cold.tally));
        let dump = |t: &[f64]| {
            let mut out = Vec::new();
            crate::dump::write_tally_dump(t, status.mesh_nx, &mut out).unwrap();
            out
        };
        assert_eq!(dump(&served.tally), dump(&cold.tally));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A file holding another solve's checkpoint (another seed) is
    /// refused by name, and neither it nor its fallback is touched.
    #[test]
    fn a_foreign_checkpoint_file_is_refused_and_left_as_it_was() {
        let dir =
            std::env::temp_dir().join(format!("neutral_registry_foreign_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("foreign.ckpt");
        die_after_boundary_1(53, &ckpt);
        let store = CheckpointStore::new(&ckpt);
        let before = std::fs::read(&ckpt).unwrap();

        let registry = Registry::new(RegistryConfig::default());
        let request = SubmitRequest::new(tiny_problem(54, 3), RunOptions::default());
        match registry.submit(request.checkpoint(&ckpt, 1)) {
            Err(SubmitError::Checkpoint { path, cause }) => {
                assert_eq!(path, ckpt);
                assert!(
                    matches!(cause, CheckpointError::ConfigMismatch { .. }),
                    "{cause}"
                );
            }
            other => panic!("expected a refused checkpoint, got {other:?}"),
        }
        assert_eq!(std::fs::read(&ckpt).unwrap(), before);
        assert!(
            !store.fallback_path().exists(),
            "the refusal rotated nothing"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A refused submission leaves no trace: no entry under the id it
    /// reserved, no memo row, no count in the stats, and its address and
    /// file are free for the next submission.
    #[test]
    fn a_refused_checkpoint_leaves_no_entry_and_no_count() {
        let dir =
            std::env::temp_dir().join(format!("neutral_registry_refused_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("foreign.ckpt");
        die_after_boundary_1(55, &ckpt);

        let registry = Registry::new(RegistryConfig::default());
        let before = registry.stats();
        let request = || SubmitRequest::new(tiny_problem(56, 3), RunOptions::default());
        let refused = registry.submit(request().checkpoint(&ckpt, 1));
        assert!(matches!(refused, Err(SubmitError::Checkpoint { .. })));
        assert_eq!(registry.stats(), before);
        assert!(
            registry.status(1).is_none(),
            "the reserved id holds nothing"
        );
        let keyed = registry.submit_with("seed 56", || request().checkpoint(&ckpt, 1));
        assert!(matches!(keyed, Err(SubmitError::Checkpoint { .. })));
        assert!(registry.status(2).is_none());
        assert!(
            registry.lock().memo.is_empty(),
            "the refused key's row went"
        );
        assert_eq!(registry.stats().problems_built, before.problems_built + 1);

        let other = dir.join("other.ckpt");
        let receipt = registry.submit(request().checkpoint(&other, 1)).unwrap();
        assert_eq!(receipt.admission, Admission::Fresh);
        assert_eq!(registry.wait(receipt.id).unwrap().state, SolveState::Done);
        let stats = registry.stats();
        assert_eq!(
            (stats.submitted, stats.solves_started, stats.failed),
            (1, 1, 0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn runner_panic_fails_solve_and_releases_fingerprint() {
        // One runner, injected panic when a leased chunk would start
        // its second timestep.
        let registry = Registry::new(RegistryConfig {
            runners: 1,
            fault_panic_on_step: Some(1),
            ..Default::default()
        });
        let receipt = registry
            .submit(SubmitRequest::new(
                tiny_problem(7, 3),
                RunOptions::default(),
            ))
            .unwrap();
        assert_eq!(receipt.admission, Admission::Fresh);
        let status = registry.wait(receipt.id).unwrap();
        match &status.state {
            SolveState::Failed(msg) => {
                assert!(msg.contains("panicked mid-chunk"), "{msg}");
                assert!(msg.contains("injected runner fault"), "{msg}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(
            status.steps_done, 1,
            "first chunk completed, second panicked"
        );
        assert!(registry.result(receipt.id).is_none());
        assert_eq!(registry.stats().failed, 1);

        // The fingerprint was released with the failure: an identical
        // resubmission re-runs Fresh instead of cache-hitting (or
        // coalescing onto) the corpse.
        let again = registry
            .submit(SubmitRequest::new(
                tiny_problem(7, 3),
                RunOptions::default(),
            ))
            .unwrap();
        assert_eq!(again.admission, Admission::Fresh);
        assert_ne!(again.id, receipt.id);
        let status = registry.wait(again.id).unwrap();
        assert!(
            matches!(status.state, SolveState::Failed(_)),
            "deterministic fault injection fails the re-run at the same step"
        );
        assert_eq!(registry.stats().cache_hits, 0);
        assert_eq!(registry.stats().coalesced, 0);
    }

    #[test]
    fn keyed_resubmit_is_admitted_without_building() {
        let registry = throttled(1);
        let request = || SubmitRequest::new(tiny_problem(43, 3), RunOptions::default());
        let never = || -> SubmitRequest { panic!("a memo hit must not build") };
        let first = registry.submit_with("csp tiny 43 x3", request).unwrap();
        assert_eq!(first.admission, Admission::Fresh);
        // In flight: the key alone coalesces...
        let joined = registry.submit_with("csp tiny 43 x3", never).unwrap();
        assert_eq!(
            (joined.admission, joined.id),
            (Admission::Coalesced, first.id)
        );
        registry.wait(first.id).unwrap();
        // ...and once done, hits the cache.
        let hit = registry.submit_with("csp tiny 43 x3", never).unwrap();
        assert_eq!((hit.admission, hit.id), (Admission::CacheHit, first.id));
        // Another spelling of the same problem builds once, lands on the
        // same address, and is remembered too.
        let respelt = registry.submit_with("csp tiny 43 x3 # again", request);
        assert_eq!(respelt.unwrap().admission, Admission::CacheHit);
        let hit = registry.submit_with("csp tiny 43 x3 # again", never);
        assert_eq!(hit.unwrap().admission, Admission::CacheHit);
        // The unkeyed door shares the address space and builds nothing here.
        assert_eq!(
            registry.submit(request()).unwrap().admission,
            Admission::CacheHit
        );
        let stats = registry.stats();
        assert_eq!(stats.problems_built, 2);
        assert_eq!(stats.solves_started, 1);
        assert_eq!(
            (stats.submitted, stats.coalesced, stats.cache_hits),
            (6, 1, 4)
        );
    }

    #[test]
    fn released_fingerprint_makes_its_key_build_and_run_fresh_again() {
        // Failed: the `runner_panic_fails_solve_and_releases_fingerprint`
        // pattern, through the memo.
        let registry = Registry::new(RegistryConfig {
            runners: 1,
            fault_panic_on_step: Some(1),
            ..Default::default()
        });
        let request = || SubmitRequest::new(tiny_problem(47, 3), RunOptions::default());
        let first = registry.submit_with("k", request).unwrap();
        let status = registry.wait(first.id).unwrap();
        assert!(matches!(status.state, SolveState::Failed(_)));
        let again = registry.submit_with("k", request).unwrap();
        assert_eq!(again.admission, Admission::Fresh);
        assert_ne!(again.id, first.id);
        assert_eq!(registry.stats().problems_built, 2);
        registry.wait(again.id).unwrap();

        // Cancelled.
        let registry = throttled(1);
        let request = || SubmitRequest::new(tiny_problem(48, 50), RunOptions::default());
        let first = registry.submit_with("k", request).unwrap();
        assert!(registry.cancel(first.id));
        let status = registry.wait(first.id).unwrap();
        assert_eq!(status.state, SolveState::Cancelled);
        let again = registry.submit_with("k", request).unwrap();
        assert_eq!(again.admission, Admission::Fresh);
        assert!(registry.cancel(again.id));
        assert_eq!(registry.stats().problems_built, 2);
    }

    #[test]
    fn keyed_submit_after_shutdown_never_builds() {
        let mut registry = Registry::new(RegistryConfig::default());
        let request = || SubmitRequest::new(tiny_problem(49, 1), RunOptions::default());
        let first = registry.submit_with("k", request).unwrap();
        registry.wait(first.id).unwrap();
        registry.shutdown();
        for key in ["k", "unseen"] {
            let refused = registry.submit_with(key, || panic!("shut down: must not build"));
            assert!(matches!(refused, Err(SubmitError::ShuttingDown)));
        }
        assert_eq!(registry.stats().problems_built, 1);
    }

    #[test]
    fn sharded_submission_matches_unsharded_bitwise() {
        // A sharded solve through the registry — including one injected
        // kill that must be retried — serves the exact bytes of the
        // ordinary unsharded path, with the retry visible in /stats.
        let registry = Registry::new(RegistryConfig::default());
        let direct = direct_run(tiny_problem(31, 3));
        let receipt = registry
            .submit(
                SubmitRequest::new(tiny_problem(31, 3), RunOptions::default())
                    .sharded(3, "kill@1".parse().unwrap()),
            )
            .unwrap();
        let status = registry.wait(receipt.id).unwrap();
        assert_eq!(status.state, SolveState::Done);
        let served = registry.result(receipt.id).unwrap();
        assert_eq!(served.tally, direct.tally);
        assert_eq!(served.counters, direct.counters);
        let stats = registry.stats();
        assert_eq!(stats.shard_retries, 1);
        assert_eq!(stats.shard_requeues, 1);
        // Shard count is bitwise-free, so it is not part of the cache
        // address: an unsharded resubmission cache-hits the sharded result.
        let again = registry
            .submit(SubmitRequest::new(
                tiny_problem(31, 3),
                RunOptions::default(),
            ))
            .unwrap();
        assert_eq!(again.admission, Admission::CacheHit);
        assert_eq!(again.id, receipt.id);
    }

    /// The cache address covers the content: problems that differ in one
    /// cell's density, or one cell's material, or only in the scheme that
    /// runs them, are distinct solves — never a hit onto the other's
    /// tallies.
    #[test]
    fn one_cell_or_the_scheme_is_a_different_solve() {
        use crate::sim::Scheme;
        let registry = Registry::new(RegistryConfig::default());
        let submit = |problem: Problem, scheme: Scheme| {
            let options = RunOptions {
                scheme,
                ..RunOptions::default()
            };
            registry
                .submit(SubmitRequest::new(problem, options))
                .unwrap()
        };
        let mut denser = tiny_problem(41, 1);
        denser.mesh.density_field_mut()[0] *= 2.0;
        let mut two_materials = tiny_problem(41, 1);
        two_materials.materials = neutral_xs::MaterialSet::from_libraries(vec![
            two_materials.materials.library(0).clone(),
            two_materials.materials.library(0).clone(),
        ]);
        let mut remapped = two_materials.clone();
        remapped.mesh.material_map_mut().set(0, 0, 1);

        let mut ids = Vec::new();
        for (problem, scheme) in [
            (tiny_problem(41, 1), Scheme::OverParticles),
            (denser, Scheme::OverParticles),
            (two_materials, Scheme::OverParticles),
            (remapped, Scheme::OverParticles),
            (tiny_problem(41, 1), Scheme::OverEvents),
        ] {
            let receipt = submit(problem, scheme);
            assert_eq!(receipt.admission, Admission::Fresh);
            registry.wait(receipt.id).unwrap();
            ids.push(receipt.id);
        }
        assert_eq!(registry.stats().solves_started, ids.len() as u64);
        // ...while the identical problem still hits.
        let again = submit(tiny_problem(41, 1), Scheme::OverParticles);
        assert_eq!(again.admission, Admission::CacheHit);
        assert_eq!(again.id, ids[0]);
    }

    #[test]
    fn quarantined_shard_fails_solve_without_stalling_others() {
        // A persistently-faulting shard exhausts its retries and fails
        // its own solve with a named cause; a healthy solve queued
        // behind it on the single runner is still served.
        let registry = Registry::new(RegistryConfig {
            runners: 1,
            ..Default::default()
        });
        let doomed = registry
            .submit(
                SubmitRequest::new(tiny_problem(33, 4), RunOptions::default())
                    .sharded(2, "panic@0:99".parse().unwrap()),
            )
            .unwrap();
        let fine = registry
            .submit(SubmitRequest::new(
                tiny_problem(34, 2),
                RunOptions::default(),
            ))
            .unwrap();
        let status = registry.wait(doomed.id).unwrap();
        match &status.state {
            SolveState::Failed(msg) => {
                assert!(msg.contains("sharded solve failed"), "{msg}");
                assert!(msg.contains("quarantined"), "{msg}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(registry.result(doomed.id).is_none());
        let status = registry.wait(fine.id).unwrap();
        assert_eq!(status.state, SolveState::Done);
        let stats = registry.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
        assert!(stats.shard_retries >= 1, "{stats:?}");
        assert_eq!(stats.shard_requeues, 0);
    }

    #[test]
    fn hung_chunk_fails_on_step_deadline_and_runner_moves_on() {
        // An injected hang at the second chunk trips the step deadline:
        // the solve fails with a named timeout cause and the (single)
        // runner survives to serve the next entry.
        let registry = Registry::new(RegistryConfig {
            runners: 1,
            step_deadline: Some(Duration::from_millis(200)),
            fault_hang_on_step: Some(1),
            ..Default::default()
        });
        let doomed = registry
            .submit(SubmitRequest::new(
                tiny_problem(35, 3),
                RunOptions::default(),
            ))
            .unwrap();
        // A single-timestep solve never reaches the faulted step.
        let fine = registry
            .submit(SubmitRequest::new(
                tiny_problem(36, 1),
                RunOptions::default(),
            ))
            .unwrap();
        let status = registry.wait(doomed.id).unwrap();
        match &status.state {
            SolveState::Failed(msg) => {
                assert!(msg.contains("step deadline exceeded"), "{msg}");
                assert!(msg.contains("200 ms"), "{msg}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(status.steps_done, 1, "first chunk finished, second hung");
        let status = registry.wait(fine.id).unwrap();
        assert_eq!(status.state, SolveState::Done);
        assert_eq!(registry.stats().failed, 1);
        assert_eq!(registry.stats().completed, 1);
    }

    #[test]
    fn fast_chunks_pass_under_a_step_deadline() {
        // The supervised path is transparent when chunks behave: same
        // results as the direct run, solve Done.
        let registry = Registry::new(RegistryConfig {
            runners: 2,
            step_deadline: Some(Duration::from_secs(60)),
            ..Default::default()
        });
        let receipt = registry
            .submit(SubmitRequest::new(
                tiny_problem(37, 3),
                RunOptions::default(),
            ))
            .unwrap();
        let status = registry.wait(receipt.id).unwrap();
        assert_eq!(status.state, SolveState::Done);
        let served = registry.result(receipt.id).unwrap();
        let direct = direct_run(tiny_problem(37, 3));
        assert_eq!(served.tally, direct.tally);
        assert_eq!(served.counters, direct.counters);
    }

    #[test]
    fn runner_thread_survives_a_panicking_solve() {
        // The panic is caught inside the (only) runner thread; queued
        // work behind the poisoned solve must still be served.
        let registry = Registry::new(RegistryConfig {
            runners: 1,
            fault_panic_on_step: Some(1),
            ..Default::default()
        });
        let doomed = registry
            .submit(SubmitRequest::new(
                tiny_problem(23, 4),
                RunOptions::default(),
            ))
            .unwrap();
        // A single-timestep solve finishes at steps_done == 1 and is
        // never leased at the faulted step.
        let fine = registry
            .submit(SubmitRequest::new(
                tiny_problem(24, 1),
                RunOptions::default(),
            ))
            .unwrap();
        assert!(matches!(
            registry.wait(doomed.id).unwrap().state,
            SolveState::Failed(_)
        ));
        let status = registry.wait(fine.id).unwrap();
        assert_eq!(status.state, SolveState::Done);
        let report = registry.result(fine.id).expect("done solve has a result");
        assert!(report.counters.total_events() > 0);
        assert_eq!(registry.stats().completed, 1);
        assert_eq!(registry.stats().failed, 1);
    }
}
