//! The one solve driver (DESIGN.md §15 "The driver"): `neutral_cli`, at
//! any shard count, and every registry chunk advance a solve through a
//! [`Driver`].

use crate::checkpoint::{append_ext, CheckpointError, CheckpointStore, Fault, FaultPlan, Recovery};
use crate::shard::{spill_path, ShardConfig, ShardError, ShardedSolve};
use crate::sim::{RunOptions, RunReport, Simulation};
use neutral_mesh::accum::DEFAULT_LANES;
use std::sync::Arc;

/// A durable solve's store, its save cadence and its step-keyed faults.
#[derive(Debug)]
pub struct Checkpointing {
    /// The checkpoint file; above one shard, also the shards' spill base.
    pub store: CheckpointStore,
    /// Save after every this many completed timesteps, and after the last.
    pub every: usize,
    /// Checkpoint-layer faults, fired at their census boundaries.
    pub faults: FaultPlan,
}

/// Why [`Driver::advance`] stopped the solve.
#[derive(Debug)]
pub enum DriveError {
    /// A shard was quarantined, or its spill store failed.
    Shard(ShardError),
    /// A census-boundary save failed.
    Checkpoint(CheckpointError),
    /// An injected `kill` crashed the solve after this many timesteps,
    /// before that boundary's save.
    Killed(usize),
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::Shard(e) => write!(f, "sharded solve failed: {e}"),
            DriveError::Checkpoint(e) => write!(f, "checkpoint spill: {e}"),
            DriveError::Killed(step) => write!(f, "injected kill after timestep {step}"),
        }
    }
}

impl std::error::Error for DriveError {}

/// A [`ShardedSolve`] — one shard with nothing to inject and nowhere to
/// spill steps its core in place — and, when durable, its
/// [`Checkpointing`].
pub struct Driver {
    sim: Arc<Simulation>,
    solve: ShardedSolve,
    checkpointing: Option<Checkpointing>,
    /// The timestep this solve resumed at, and whether the store's
    /// primary or its fallback held it (`None` = a fresh start).
    pub resumed: Option<(usize, Recovery)>,
}

impl Driver {
    /// Open a solve of `sim`'s problem, loading the store when durable:
    /// nothing there starts fresh, this solve's checkpoint resumes it (at
    /// any worker or shard count), and anything else — another solve's
    /// checkpoint ([`CheckpointError::ConfigMismatch`]), or corruption
    /// with no valid fallback — is the error, the store left as it was.
    pub fn open(
        sim: Arc<Simulation>,
        options: RunOptions,
        mut config: ShardConfig,
        checkpointing: Option<Checkpointing>,
    ) -> Result<Self, CheckpointError> {
        let loaded = match checkpointing.as_ref().map(|c| c.store.load()) {
            None | Some(Err(CheckpointError::NotFound)) => None,
            Some(found) => Some(found?),
        };
        if let Some(c) = checkpointing.as_ref().filter(|_| config.n_shards > 1) {
            config.checkpoint_base = Some(c.store.path().to_path_buf());
        }
        let (solve, resumed) = match loaded {
            None => (ShardedSolve::new(&sim, options, config), None),
            Some((checkpoint, recovery)) => {
                let step = checkpoint.next_step;
                let solve = ShardedSolve::resume(&sim, options, config, checkpoint)?;
                (solve, Some((step, recovery)))
            }
        };
        Ok(Self {
            sim,
            solve,
            checkpointing,
            resumed,
        })
    }

    /// The solve, for its progress and shard statistics.
    #[must_use]
    pub fn solve(&self) -> &ShardedSolve {
        &self.solve
    }

    /// Run the next timestep, then at its census boundary fire the fault
    /// plan's `torn` and `bitflip` (each planting its file in place of
    /// the save) and `kill` (crashing before the save), or else save at
    /// the cadence and after the last timestep. `Ok(false)`, doing
    /// nothing, once every timestep has run.
    pub fn advance(&mut self) -> Result<bool, DriveError> {
        if !self.solve.step(&self.sim).map_err(DriveError::Shard)? {
            return Ok(false);
        }
        let Some(c) = &self.checkpointing else {
            return Ok(true);
        };
        let boundary = self.solve.steps_done();
        let (mut killed, mut planted) = (false, false);
        for fault in c.faults.for_step(boundary) {
            let bytes = match fault {
                Fault::Kill { .. } => {
                    killed = true;
                    continue;
                }
                Fault::TornWrite { keep_bytes, .. } => {
                    let mut bytes = self.solve.checkpoint().to_bytes();
                    bytes.truncate(keep_bytes);
                    bytes
                }
                Fault::BitFlip { offset, .. } => {
                    let mut bytes = self.solve.checkpoint().to_bytes();
                    let off = offset.min(bytes.len() - 1);
                    bytes[off] ^= 0x80;
                    bytes
                }
            };
            c.store.save_raw(&bytes).map_err(DriveError::Checkpoint)?;
            planted = true;
        }
        if killed {
            return Err(DriveError::Killed(boundary));
        }
        if !planted && (self.solve.is_done() || boundary.is_multiple_of(c.every.max(1))) {
            let checkpoint = self.solve.checkpoint();
            c.store.save(&checkpoint).map_err(DriveError::Checkpoint)?;
        }
        Ok(true)
    }

    /// [`advance`](Driver::advance) until every timestep has run.
    pub fn run(&mut self) -> Result<(), DriveError> {
        while self.advance()? {}
        Ok(())
    }

    /// Finish the solve and build the report. A durable solve then
    /// removes its shards' spill stores, `<file>.shard<k>` and their
    /// `.prev`, for every `k` below [`DEFAULT_LANES`] — the most shards
    /// this solve, or the run it resumed, can have spilled to. They are
    /// per-step retry inputs, which nothing reads once their step is done.
    /// Best effort: a store that is not there, or cannot be removed, is
    /// left as it is.
    #[must_use]
    pub fn finish(self) -> RunReport {
        let report = self.solve.finish();
        if let Some(c) = &self.checkpointing {
            for shard in 0..DEFAULT_LANES {
                let spill = spill_path(c.store.path(), shard);
                let _ = std::fs::remove_file(append_ext(&spill, "prev"));
                let _ = std::fs::remove_file(spill);
            }
        }
        report
    }
}
