//! `hot`: a conjugate-gradient heat-conduction mini-app.
//!
//! Solves one implicit timestep of the heat equation,
//! `(I - alpha dt Laplacian) T_new = T_old`, on a uniform 2D grid with a
//! 5-point stencil and homogeneous Dirichlet boundaries, using conjugate
//! gradients. The operator is symmetric positive definite, so CG converges
//! monotonically; the solver's cost profile is SpMV + dots + axpys — long
//! streaming passes, memory-bandwidth bound like `flow` (paper §VI-B).
//!
//! Each of those passes runs as `threads` contiguous blocks on neutral's
//! scheduler, six fork-joins per CG iteration. A dot product adds its
//! per-block partials in block order, so the solution's bits depend on
//! the thread count (within round-off) but are reproducible at each one.

use crate::blocks::{block_len, map_blocks, run_blocks};

/// The implicit heat operator `A = I - k * Laplacian_h` on an `nx x ny`
/// grid with homogeneous Dirichlet boundaries.
#[derive(Clone, Debug)]
pub struct HeatOperator {
    nx: usize,
    ny: usize,
    /// `alpha * dt / h^2` — the stencil weight.
    k: f64,
}

impl HeatOperator {
    /// Build the operator for diffusivity `alpha`, timestep `dt` and cell
    /// width `h`.
    #[must_use]
    pub fn new(nx: usize, ny: usize, alpha: f64, dt: f64, h: f64) -> Self {
        assert!(nx > 0 && ny > 0);
        assert!(alpha > 0.0 && dt > 0.0 && h > 0.0);
        Self {
            nx,
            ny,
            k: alpha * dt / (h * h),
        }
    }

    /// Grid size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Whether the grid is empty (never for a constructed operator).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `y = A x` (5-point stencil SpMV).
    pub fn apply(&self, x: &[f64], y: &mut [f64], threads: usize) {
        assert_eq!(x.len(), self.len());
        assert_eq!(y.len(), self.len());
        let (nx, ny, k) = (self.nx, self.ny, self.k);
        let per = block_len(y.len(), threads);
        let mut blocks: Vec<&mut [f64]> = y.chunks_mut(per).collect();
        run_blocks(&mut blocks, move |b, yb| {
            for (j, yi) in yb.iter_mut().enumerate() {
                let i = b * per + j;
                let ix = i % nx;
                let iy = i / nx;
                let c = x[i];
                let w = if ix > 0 { x[i - 1] } else { 0.0 };
                let e = if ix + 1 < nx { x[i + 1] } else { 0.0 };
                let s = if iy > 0 { x[i - nx] } else { 0.0 };
                let n = if iy + 1 < ny { x[i + nx] } else { 0.0 };
                *yi = c + k * (4.0 * c - w - e - s - n);
            }
        });
    }
}

fn dot(a: &[f64], b: &[f64], threads: usize) -> f64 {
    assert_eq!(a.len(), b.len());
    map_blocks(a.len(), threads, move |r| {
        a[r.clone()]
            .iter()
            .zip(&b[r])
            .map(|(x, y)| x * y)
            .sum::<f64>()
    })
    .iter()
    .sum()
}

/// `y[i] = f(y[i], x[i])` for every `i`.
fn update(y: &mut [f64], x: &[f64], threads: usize, f: impl Fn(f64, f64) -> f64 + Sync) {
    assert_eq!(x.len(), y.len());
    let per = block_len(y.len(), threads);
    let mut blocks: Vec<_> = y.chunks_mut(per).zip(x.chunks(per)).collect();
    run_blocks(&mut blocks, move |_, (yb, xb)| {
        for (yi, xi) in yb.iter_mut().zip(xb.iter()) {
            *yi = f(*yi, *xi);
        }
    });
}

/// Result of a CG solve.
#[derive(Clone, Debug)]
pub struct CgResult {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations used.
    pub iterations: usize,
    /// Final residual norm `||b - Ax||`.
    pub residual: f64,
    /// Residual norm after every iteration (for convergence tests).
    pub residual_history: Vec<f64>,
}

/// Conjugate gradients on the SPD heat operator.
pub fn cg_solve(
    op: &HeatOperator,
    b: &[f64],
    tol: f64,
    max_iter: usize,
    threads: usize,
) -> CgResult {
    let n = op.len();
    assert_eq!(b.len(), n);
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut ap = vec![0.0; n];
    let mut rr = dot(&r, &r, threads);
    let b_norm = rr.sqrt().max(1e-300);
    let mut history = Vec::with_capacity(max_iter);

    let mut iterations = 0;
    while iterations < max_iter && rr.sqrt() / b_norm > tol {
        op.apply(&p, &mut ap, threads);
        let alpha = rr / dot(&p, &ap, threads);
        update(&mut x, &p, threads, move |xi, pi| xi + alpha * pi);
        update(&mut r, &ap, threads, move |ri, api| ri - alpha * api);
        let rr_new = dot(&r, &r, threads);
        let beta = rr_new / rr;
        update(&mut p, &r, threads, move |pi, ri| ri + beta * pi);
        rr = rr_new;
        iterations += 1;
        history.push(rr.sqrt());
    }

    CgResult {
        x,
        iterations,
        residual: rr.sqrt(),
        residual_history: history,
    }
}

/// One implicit heat step: the fixed workload the figure harness times at
/// different thread counts. Returns the new temperature field.
pub fn run_hot_workload(nx: usize, ny: usize, threads: usize) -> CgResult {
    let op = HeatOperator::new(nx, ny, 1.0, 0.1, 1.0 / nx as f64);
    // A hot square in the middle of a cold domain.
    let mut b = vec![0.0; op.len()];
    for iy in ny / 4..3 * ny / 4 {
        for ix in nx / 4..3 * nx / 4 {
            b[iy * nx + ix] = 1.0;
        }
    }
    cg_solve(&op, &b, 1e-8, 2000, threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_is_symmetric() {
        let op = HeatOperator::new(8, 6, 0.7, 0.1, 0.125);
        let n = op.len();
        // <Au, v> == <u, Av> for a few random-ish vectors.
        let u: Vec<f64> = (0..n).map(|i| ((i * 37 % 11) as f64) - 5.0).collect();
        let v: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let mut au = vec![0.0; n];
        let mut av = vec![0.0; n];
        op.apply(&u, &mut au, 1);
        op.apply(&v, &mut av, 1);
        let lhs = dot(&au, &v, 1);
        let rhs = dot(&u, &av, 1);
        assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }

    #[test]
    fn operator_is_positive_definite() {
        let op = HeatOperator::new(8, 8, 1.0, 0.1, 0.125);
        let n = op.len();
        let u: Vec<f64> = (0..n).map(|i| ((i * 29 % 17) as f64) - 8.0).collect();
        let mut au = vec![0.0; n];
        op.apply(&u, &mut au, 1);
        assert!(dot(&u, &au, 1) > 0.0);
    }

    #[test]
    fn cg_converges_and_residual_decreases() {
        let r = run_hot_workload(32, 32, 1);
        assert!(r.residual < 1e-6);
        assert!(r.iterations > 1);
        // Residual history is (essentially) monotone for SPD CG.
        let mut decreasing = 0;
        for w in r.residual_history.windows(2) {
            if w[1] <= w[0] * 1.5 {
                decreasing += 1;
            }
        }
        assert!(decreasing as f64 >= 0.9 * (r.residual_history.len() - 1) as f64);
    }

    #[test]
    fn cg_solution_satisfies_system() {
        let op = HeatOperator::new(24, 24, 1.0, 0.05, 1.0 / 24.0);
        let b: Vec<f64> = (0..op.len()).map(|i| (i % 5) as f64).collect();
        let r = cg_solve(&op, &b, 1e-10, 2000, 1);
        let mut ax = vec![0.0; op.len()];
        op.apply(&r.x, &mut ax, 1);
        let err: f64 = ax
            .iter()
            .zip(&b)
            .map(|(a, bb)| (a - bb) * (a - bb))
            .sum::<f64>()
            .sqrt();
        let b_norm: f64 = dot(&b, &b, 1).sqrt();
        assert!(err / b_norm < 1e-8, "relative residual {}", err / b_norm);
    }

    #[test]
    fn diffusion_smooths_and_preserves_positivity() {
        let r = run_hot_workload(48, 48, 1);
        // Solution of (I - k L) T = b with b in [0,1]: T bounded by the
        // maximum principle and smoothed (interior max below source max).
        assert!(r.x.iter().all(|&t| t > -1e-9 && t < 1.0 + 1e-9));
        let max = r.x.iter().cloned().fold(0.0, f64::max);
        assert!(max > 0.1 && max < 1.0);
    }

    #[test]
    fn parallel_matches_serial() {
        let op = HeatOperator::new(32, 32, 1.0, 0.1, 1.0 / 32.0);
        let b: Vec<f64> = (0..op.len()).map(|i| ((i * 7) % 13) as f64).collect();
        let a = cg_solve(&op, &b, 1e-9, 500, 1);
        for t in [2, 3, 7] {
            let c = cg_solve(&op, &b, 1e-9, 500, t);
            // Blocked dot products reorder additions; allow tiny drift
            // across thread counts...
            let diff: f64 =
                a.x.iter()
                    .zip(&c.x)
                    .map(|(x, y)| (x - y).abs())
                    .fold(0.0, f64::max);
            assert!(diff < 1e-6, "{t}-thread CG diverged by {diff}");
            // ...but none between two runs at the same thread count.
            let again = cg_solve(&op, &b, 1e-9, 500, t);
            assert!(
                c.x.iter()
                    .zip(&again.x)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{t}-thread CG is not reproducible"
            );
        }
    }
}
