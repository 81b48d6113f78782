//! Comparator mini-apps from the `arch` project.
//!
//! The paper measures neutral's parallel efficiency against two other
//! mini-apps from the same suite (§VI-B):
//!
//! * [`flow`] — "a highly optimised hydrodynamics application": here a 2D
//!   compressible-Euler finite-volume solver with dimension-split Rusanov
//!   fluxes. Its sweeps are long streaming passes over large arrays, so it
//!   is **memory-bandwidth bound** — the property that makes its scaling
//!   curve the foil for neutral's latency-bound curve in Figure 3, and
//!   that makes it *lose* from hyperthreading in Figure 6.
//! * [`hot`] — "a conjugate gradient based heat conduction linear solver":
//!   an implicit heat-conduction step solved by CG on a 5-point stencil,
//!   dominated by SpMV and dot-product streams (also bandwidth bound).
//!
//! Both are real solvers with physics validation tests (Sod shock tube,
//! manufactured diffusion solutions), not stubs — the reproduction treats
//! the baselines as first-class systems.
//!
//! Both thread through neutral's own scheduler
//! ([`neutral_core::scheduler`]), as the paper's three mini-apps share one
//! OpenMP runtime: each kernel takes a `threads` count and runs that many
//! contiguous static blocks, one per worker, and `threads = 1` runs inline.

#![deny(missing_docs)]
#![warn(clippy::all)]

mod blocks;
pub mod flow;
pub mod hot;

#[cfg(test)]
mod tests {
    use super::{flow, hot};

    /// FNV-1a over the 64-bit words of `values`.
    fn fnv1a(values: &[f64]) -> u64 {
        values.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The fixed workloads' outputs, pinned to the bits of the earlier
    /// pool-based implementation at each thread count: `flow` is
    /// elementwise, so one value holds at every count; `hot`'s dot
    /// products add per-block partials, so each count has its own.
    #[test]
    fn workload_outputs_match_pinned_bits() {
        for (t, hot_x) in [
            (1, 0x4009_3fcb_740c_4950),
            (2, 0x3714_3f95_fac1_67f9),
            (3, 0x7325_8e87_c032_c513),
            (7, 0xec7f_fe7a_355e_1953),
        ] {
            let f = flow::run_flow_workload(96, 64, 10, t);
            assert_eq!(
                fnv1a(&f.rho),
                0x7028_0f9f_f3d4_c9a5,
                "flow rho, {t} threads"
            );
            assert_eq!(fnv1a(&f.e), 0x7312_32cd_3f93_4e25, "flow e, {t} threads");
            let h = hot::run_hot_workload(96, 64, t);
            assert_eq!(h.iterations, 181, "hot iterations, {t} threads");
            assert_eq!(fnv1a(&h.x), hot_x, "hot x, {t} threads");
        }
    }
}
