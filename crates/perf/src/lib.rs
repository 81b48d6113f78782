//! # neutral-perf — the architecture performance model
//!
//! The paper evaluates `neutral` on five machines — dual-socket Intel Xeon
//! E5-2699 v4 (Broadwell), Intel Xeon Phi 7210 (KNL, MCDRAM and DRAM),
//! dual-socket POWER8, NVIDIA K20X and NVIDIA P100 — none of which are
//! available to this reproduction. Following the substitution strategy in
//! `DESIGN.md` §5, this crate replaces the hardware with an **analytic
//! latency/bandwidth/occupancy model**:
//!
//! 1. a transport run (at any scale) is instrumented with
//!    [`neutral_core::EventCounters`];
//! 2. the counters are condensed into a [`model::KernelProfile`] — random
//!    reads, streamed bytes, atomic RMWs, instruction estimates, SIMD
//!    fraction;
//! 3. [`model::predict`] maps the profile onto an [`arch::Architecture`]
//!    descriptor and returns component times (latency / compute /
//!    bandwidth / atomics) plus their combination.
//!
//! The model is deliberately simple and white-box. Its form follows the
//! paper's own causal analysis: *the algorithm is memory-latency bound*
//! (§XI), so the dominant term is
//! `random_accesses x latency / concurrent_requests`, where the concurrency
//! is what differs across machines — SMT ways and load buffers on CPUs
//! (§VI-E), occupancy-scaled in-flight warps on GPUs (§VI-H, §VII-E).
//! Bandwidth and instruction-throughput terms bound the schemes that
//! stream (Over Events) or vectorise (KNL). Calibration constants live in
//! [`calibrate`] and are validated against the paper's headline ratios in
//! this crate's tests and in `tests/tests/paper_reproduction.rs`.
//!
//! The GPU occupancy sub-model ([`occupancy`]) reproduces the paper's
//! register-pressure arithmetic exactly: 79 registers/thread on the P100
//! with 128-wide blocks gives occupancy 0.38, capping to 64 registers
//! gives 0.49 (§VII-E).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod arch;
pub mod calibrate;
pub mod model;
pub mod occupancy;
pub mod scaling;

pub use arch::{ArchKind, Architecture};
pub use model::{predict, KernelProfile, Prediction, SchemeKind};
