//! Calibration constants of the performance model.
//!
//! The model's *structure* (which terms exist and what they depend on)
//! follows the paper's causal analysis; the constants below are the free
//! parameters. They fall into two groups:
//!
//! * **Code-shape constants** — instruction counts per event, bytes moved
//!   per structure: estimated once from the Rust implementation (e.g. a
//!   collision executes two Threefry blocks ≈ 240 ALU ops plus ~100 ops
//!   of kinematics; `size_of::<Particle>() = 128` bytes) and held fixed.
//! * **Behavioural constants** — memory-level parallelism per thread, the
//!   SIMD-expressible fraction of the Over-Events kernels, GPU divergence
//!   penalties. These were tuned (coarsely, by hand) so that the model's
//!   headline ratios land inside the bands the paper reports; those bands
//!   are asserted in `tests/tests/paper_reproduction.rs`.
//!
//! Nothing here is fitted per-figure: one parameter set drives every
//! prediction in every figure.

/// Free parameters of the model. [`ModelParams::default`] is the single
/// calibrated set used throughout the reproduction.
#[derive(Clone, Copy, Debug)]
pub struct ModelParams {
    /// Outstanding memory requests a single thread of this code sustains
    /// (dependent-load chains keep this low — the root of the SMT gains
    /// in Figure 6).
    pub ilp_per_thread: f64,
    /// Oversubscribed software threads continue to add memory-level
    /// parallelism with this exponent (<1: diminishing returns) — the
    /// paper's "minor performance improvement for oversubscribing" (§VI-E).
    pub oversub_mlp_exponent: f64,
    /// Per-thread compute overhead factor once threads exceed hardware
    /// contexts (context switching) — flow's 1.2x oversubscription penalty.
    pub oversub_compute_penalty: f64,
    /// Instructions per collision event (two Threefry-2x64-20 blocks for
    /// the 3-4 draws, scatter kinematics with three sqrts, bookkeeping).
    pub instr_collision: f64,
    /// Instructions per facet event (Cartesian intersection, reflection
    /// branch tree, timer updates).
    pub instr_facet: f64,
    /// Instructions per census event.
    pub instr_census: f64,
    /// Extra instructions per event for the Over-Events scheme: the
    /// decide-kernel recompute, predicate scans and state reload that the
    /// Over-Particles scheme keeps in registers.
    pub instr_oe_event_overhead: f64,
    /// Instructions per hinted cross-section search step.
    pub instr_search_step: f64,
    /// Bytes a CPU random read costs (one cache line).
    pub bytes_random_cpu: f64,
    /// Bytes a GPU random read costs (one 32-byte sector).
    pub bytes_random_gpu: f64,
    /// Fraction of the Over-Particles scheme's random reads that actually
    /// miss cache: a history moves between *adjacent* cells, so
    /// consecutive density reads often hit the same or a neighbouring
    /// line (the locality benefit of §V-A), and the hinted table walk is
    /// cache-friendly.
    pub op_miss_fraction: f64,
    /// Miss fraction for Over Events: between two touches of one
    /// particle's data the kernels stream the *entire* population, so
    /// nothing survives in cache (the register/cache-caching argument of
    /// §VII-A-2).
    pub oe_miss_fraction: f64,
    /// Miss fraction on GPUs (small caches; both schemes mostly miss).
    pub gpu_miss_fraction: f64,
    /// Bytes of every-particle state scanned per Over-Events round
    /// (status/tag predicate checks across the four kernels).
    pub oe_scan_bytes: f64,
    /// Bytes of particle + cached state streamed per processed
    /// Over-Events event.
    pub oe_event_bytes: f64,
    /// Write-back bytes per tally flush.
    pub flush_bytes: f64,
    /// Bytes of particle state loaded+stored per history by the
    /// Over-Particles scheme (`size_of::<Particle>()` in and out).
    pub op_history_bytes: f64,
    /// Exponent of the power-mean used to combine the latency, compute
    /// and bandwidth terms (higher = closer to `max`).
    pub softmax_p: f64,
    /// Fraction of Over-Events instruction work the vectoriser captures.
    pub oe_simd_fraction: f64,
    /// Fraction for Over-Particles (the paper could only vectorise it by
    /// removing atomics, and it did not help — treat as scalar).
    pub op_simd_fraction: f64,
    /// GPU warp-divergence instruction multiplier for the deep-branched
    /// Over-Particles kernel.
    pub op_gpu_divergence: f64,
    /// Divergence multiplier for the flatter Over-Events kernels.
    pub oe_gpu_divergence: f64,
    /// Registers per thread the Over-Events kernels need on a GPU.
    pub oe_gpu_regs: u32,
    /// GPU thread-block size used throughout the paper.
    pub gpu_block_size: u32,
    /// Registers the fat Over-Particles kernel needs per GPU thread,
    /// per-architecture: (K20X/cc3.5, P100/cc6.0) — the paper reports 102
    /// and 79 (§VI-H, §VII-E).
    pub op_gpu_regs_kepler: u32,
    /// Registers for the Over-Particles kernel on Pascal.
    pub op_gpu_regs_pascal: u32,
}

impl Default for ModelParams {
    fn default() -> Self {
        Self {
            ilp_per_thread: 1.35,
            oversub_mlp_exponent: 0.35,
            oversub_compute_penalty: 0.25,
            instr_collision: 360.0,
            instr_facet: 55.0,
            instr_census: 40.0,
            instr_oe_event_overhead: 90.0,
            instr_search_step: 3.0,
            bytes_random_cpu: 64.0,
            bytes_random_gpu: 32.0,
            op_miss_fraction: 0.40,
            oe_miss_fraction: 1.0,
            gpu_miss_fraction: 0.90,
            oe_scan_bytes: 4.0,
            oe_event_bytes: 256.0,
            flush_bytes: 16.0,
            op_history_bytes: 256.0,
            softmax_p: 2.5,
            oe_simd_fraction: 0.70,
            op_simd_fraction: 0.0,
            op_gpu_divergence: 2.4,
            oe_gpu_divergence: 1.3,
            oe_gpu_regs: 40,
            gpu_block_size: 128,
            op_gpu_regs_kepler: 102,
            op_gpu_regs_pascal: 79,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive_and_sane() {
        let p = ModelParams::default();
        assert!(p.ilp_per_thread >= 1.0);
        assert!(p.instr_collision > p.instr_facet);
        assert!(p.softmax_p > 1.0);
        assert!((0.0..=1.0).contains(&p.oe_simd_fraction));
        assert!(p.op_gpu_divergence >= 1.0);
        assert!(p.op_gpu_regs_kepler > p.op_gpu_regs_pascal);
    }
}
