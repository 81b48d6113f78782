//! The computational mesh substrate of the `neutral` mini-app.
//!
//! Monte Carlo particle transport is "embarrassingly parallel" over particle
//! histories *except* for the computational mesh: particles read
//! cell-centred material densities as they move, and write energy-deposition
//! tallies into the mesh (Martineau & McIntosh-Smith, CLUSTER 2017, §III).
//! This crate provides that mesh and the tally structures whose costs
//! dominate the paper's analysis:
//!
//! * [`StructuredMesh2D`] — a 2D structured grid with cell-centred
//!   densities and reflective domain boundaries (paper §IV-C);
//! * [`MaterialMap`] — the per-cell material-index field of the
//!   multi-material scenario subsystem: a dense `u16` per cell selecting
//!   which cross-section library the transport kernels resolve against
//!   (DESIGN.md §12);
//! * [`tally::AtomicTally`] — an `f64` tally mesh updated with atomic
//!   compare-exchange read-modify-write operations (one per facet
//!   encounter, paper §V-C);
//! * [`tally::PrivatizedTally`] — one private tally mesh per thread,
//!   trading the atomics for a ×`n_threads` memory footprint (paper §VI-F);
//! * [`tally::SequentialTally`] — the plain serial baseline;
//! * [`accum`] — the tally-accumulation subsystem ([`TallyStrategy`]:
//!   the shared atomic mesh or lane-replicated meshes behind one
//!   lane-indexed deposit API, the latter merged with a deterministic
//!   pairwise reduction so parallel tallies are bitwise reproducible).
//!
//! # Example
//!
//! ```
//! use neutral_mesh::{StructuredMesh2D, Rect, tally::AtomicTally};
//!
//! // A 1 m x 1 m mesh, 100x100 cells, low background density with a dense
//! // square in the centre — the shape of the paper's `csp` test problem.
//! let mut mesh = StructuredMesh2D::uniform(100, 100, 1.0, 1.0, 0.05);
//! mesh.set_region(Rect::new(0.375, 0.625, 0.375, 0.625), 1.0e3);
//!
//! let tally = AtomicTally::new(mesh.num_cells());
//! tally.add(mesh.index(50, 50), 1.25e6);
//! assert_eq!(tally.snapshot()[mesh.index(50, 50)], 1.25e6);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod accum;
mod grid;
mod material;
pub mod tally;

pub use accum::{LanePartition, LaneSink, TallyAccum, TallyStrategy};
pub use grid::{Facet, Rect, StructuredMesh2D};
pub use material::{MaterialId, MaterialMap};
