//! `flow`: a 2D compressible-Euler finite-volume hydrodynamics mini-app.
//!
//! First-order Godunov-type scheme with Rusanov (local Lax–Friedrichs)
//! numerical fluxes and dimension splitting, on a uniform Cartesian grid
//! with an ideal-gas equation of state. Every step makes several complete
//! streaming passes over four conserved-variable arrays, which is what
//! makes the mini-app memory-bandwidth bound and near-perfectly scalable
//! until the memory controllers saturate (paper §VI-B).

use crate::blocks::{block_len, map_blocks, run_blocks};

/// Ratio of specific heats (diatomic ideal gas).
pub const GAMMA: f64 = 1.4;

/// Boundary condition applied in both directions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowBc {
    /// Wrap-around (conserves mass/momentum/energy to round-off).
    Periodic,
    /// Zero-gradient outflow.
    Transmissive,
}

/// Conserved state on a 2D grid: density, x/y momentum, total energy.
#[derive(Clone, Debug)]
pub struct FlowState {
    nx: usize,
    ny: usize,
    dx: f64,
    dy: f64,
    bc: FlowBc,
    /// Mass density.
    pub rho: Vec<f64>,
    /// x momentum density.
    pub mx: Vec<f64>,
    /// y momentum density.
    pub my: Vec<f64>,
    /// Total energy density.
    pub e: Vec<f64>,
}

impl FlowState {
    /// Uniform quiescent gas.
    #[must_use]
    pub fn uniform(
        nx: usize,
        ny: usize,
        width: f64,
        height: f64,
        rho: f64,
        p: f64,
        bc: FlowBc,
    ) -> Self {
        assert!(nx >= 3 && ny >= 1, "flow mesh too small");
        let n = nx * ny;
        let e = p / (GAMMA - 1.0);
        Self {
            nx,
            ny,
            dx: width / nx as f64,
            dy: height / ny as f64,
            bc,
            rho: vec![rho; n],
            mx: vec![0.0; n],
            my: vec![0.0; n],
            e: vec![e; n],
        }
    }

    /// The classic Sod shock tube along x (uniform in y): left state
    /// (ρ=1, p=1), right state (ρ=0.125, p=0.1), diaphragm at mid-domain.
    #[must_use]
    pub fn sod_x(nx: usize, ny: usize, bc: FlowBc) -> Self {
        let mut s = Self::uniform(nx, ny, 1.0, 1.0, 1.0, 1.0, bc);
        for iy in 0..ny {
            for ix in nx / 2..nx {
                let i = iy * nx + ix;
                s.rho[i] = 0.125;
                s.e[i] = 0.1 / (GAMMA - 1.0);
            }
        }
        s
    }

    /// Cells along x.
    #[must_use]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Cells along y.
    #[must_use]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Pressure of cell `i` from the ideal-gas EOS.
    #[inline]
    #[must_use]
    pub fn pressure(&self, i: usize) -> f64 {
        let rho = self.rho[i];
        let ke = 0.5 * (self.mx[i] * self.mx[i] + self.my[i] * self.my[i]) / rho;
        (GAMMA - 1.0) * (self.e[i] - ke)
    }

    /// Largest |u| + c over the grid (for the CFL condition), as a
    /// max-reduction over `threads` blocks.
    #[must_use]
    pub fn max_wave_speed(&self, threads: usize) -> f64 {
        let speed = |i: usize| {
            let rho = self.rho[i];
            let u = (self.mx[i] / rho).abs().max((self.my[i] / rho).abs());
            let c = (GAMMA * self.pressure(i).max(0.0) / rho).sqrt();
            u + c
        };
        map_blocks(self.rho.len(), threads, |r| {
            r.map(speed).fold(0.0, f64::max)
        })
        .into_iter()
        .fold(0.0, f64::max)
    }

    /// CFL-limited timestep.
    #[must_use]
    pub fn cfl_dt(&self, cfl: f64, threads: usize) -> f64 {
        cfl * self.dx.min(self.dy) / self.max_wave_speed(threads)
    }

    /// Totals of the conserved quantities `(mass, momentum_x, momentum_y,
    /// energy)` — exactly conserved by periodic runs.
    #[must_use]
    pub fn totals(&self) -> (f64, f64, f64, f64) {
        let cell = self.dx * self.dy;
        (
            self.rho.iter().sum::<f64>() * cell,
            self.mx.iter().sum::<f64>() * cell,
            self.my.iter().sum::<f64>() * cell,
            self.e.iter().sum::<f64>() * cell,
        )
    }

    /// Advance one timestep (x-sweep then y-sweep). Each pass over the
    /// grid runs as `threads` contiguous blocks on neutral's scheduler;
    /// the result is bit-identical at every thread count.
    pub fn step(&mut self, dt: f64, threads: usize) {
        self.sweep(true, dt / self.dx, threads);
        self.sweep(false, dt / self.dy, threads);
    }

    /// Neighbour index with boundary handling.
    #[inline]
    fn nbr(&self, ix: isize, iy: isize) -> usize {
        let (nx, ny) = (self.nx as isize, self.ny as isize);
        let (ix, iy) = match self.bc {
            FlowBc::Periodic => ((ix + nx) % nx, (iy + ny) % ny),
            FlowBc::Transmissive => (ix.clamp(0, nx - 1), iy.clamp(0, ny - 1)),
        };
        (iy * nx + ix) as usize
    }

    fn sweep(&mut self, xdir: bool, lambda: f64, threads: usize) {
        let flux = self.compute_fluxes(xdir, threads);
        self.apply_fluxes(&flux, lambda, xdir, threads);
    }

    /// Rusanov flux at the *left/lower* face of every cell, for the given
    /// sweep direction. Returns four arrays (mass, mom-normal,
    /// mom-transverse, energy) of length `nx*ny`.
    fn compute_fluxes(&self, xdir: bool, threads: usize) -> [Vec<f64>; 4] {
        let n = self.rho.len();
        let per = block_len(n, threads);
        let mut flux = [(); 4].map(|()| vec![0.0; n]);
        let mut blocks = lock_step_blocks(&mut flux, per);
        run_blocks(&mut blocks, move |b, f| {
            for j in 0..f[0].len() {
                let face = self.face_flux(b * per + j, xdir);
                for (fk, v) in f.iter_mut().zip(face) {
                    fk[j] = v;
                }
            }
        });
        flux
    }

    /// Rusanov flux at the left/lower face of cell `i`.
    #[inline]
    fn face_flux(&self, i: usize, xdir: bool) -> [f64; 4] {
        let ix = (i % self.nx) as isize;
        let iy = (i / self.nx) as isize;
        let (il, ir) = if xdir {
            (self.nbr(ix - 1, iy), i)
        } else {
            (self.nbr(ix, iy - 1), i)
        };
        let (fl, sl) = self.phys_flux(il, xdir);
        let (fr, sr) = self.phys_flux(ir, xdir);
        let smax = sl.max(sr);
        let ul = [self.rho[il], self.mx[il], self.my[il], self.e[il]];
        let ur = [self.rho[ir], self.mx[ir], self.my[ir], self.e[ir]];
        std::array::from_fn(|k| 0.5 * (fl[k] + fr[k]) - 0.5 * smax * (ur[k] - ul[k]))
    }

    /// Physical Euler flux of cell `i` in the sweep direction, plus the
    /// local max wave speed |u| + c.
    #[inline]
    fn phys_flux(&self, i: usize, xdir: bool) -> ([f64; 4], f64) {
        let rho = self.rho[i];
        let u = self.mx[i] / rho;
        let v = self.my[i] / rho;
        let p = self.pressure(i).max(0.0);
        let c = (GAMMA * p / rho).sqrt();
        if xdir {
            (
                [
                    self.mx[i],
                    self.mx[i] * u + p,
                    self.my[i] * u,
                    (self.e[i] + p) * u,
                ],
                u.abs() + c,
            )
        } else {
            (
                [
                    self.my[i],
                    self.mx[i] * v,
                    self.my[i] * v + p,
                    (self.e[i] + p) * v,
                ],
                v.abs() + c,
            )
        }
    }

    /// Conservative update: `U[i] -= lambda * (flux[right_face] - flux[i])`,
    /// where the right face is the next cell's left face along x
    /// (`xdir`) or y.
    fn apply_fluxes(&mut self, flux: &[Vec<f64>; 4], lambda: f64, xdir: bool, threads: usize) {
        let (nx, ny, bc) = (self.nx, self.ny, self.bc);
        let right_face = move |i: usize| -> usize {
            let ix = i % nx;
            let iy = i / nx;
            if xdir {
                let nxt = match bc {
                    FlowBc::Periodic => (ix + 1) % nx,
                    FlowBc::Transmissive => (ix + 1).min(nx - 1),
                };
                iy * nx + nxt
            } else {
                let nyt = match bc {
                    FlowBc::Periodic => (iy + 1) % ny,
                    FlowBc::Transmissive => (iy + 1).min(ny - 1),
                };
                nyt * nx + ix
            }
        };
        let per = block_len(self.rho.len(), threads);
        let mut state = [&mut self.rho, &mut self.mx, &mut self.my, &mut self.e];
        let mut blocks = lock_step_blocks(&mut state, per);
        run_blocks(&mut blocks, move |b, u| {
            for j in 0..u[0].len() {
                let i = b * per + j;
                let r = right_face(i);
                // At a transmissive edge the "next" cell is the cell itself,
                // so the outflow face reuses the physical flux of the cell —
                // a zero-gradient approximation.
                for (uk, fk) in u.iter_mut().zip(flux) {
                    uk[j] -= lambda * (fk[r] - fk[i]);
                }
            }
        });
    }
}

/// Four equal-length arrays cut into lock-step blocks of `per` elements.
fn lock_step_blocks<A: AsMut<[f64]>>(arrays: &mut [A; 4], per: usize) -> Vec<[&mut [f64]; 4]> {
    let [a, b, c, d] = arrays.each_mut().map(|x| x.as_mut().chunks_mut(per));
    a.zip(b)
        .zip(c)
        .zip(d)
        .map(|(((a, b), c), d)| [a, b, c, d])
        .collect()
}

/// Run `steps` CFL-limited steps; returns the final state. This is the
/// fixed workload the figure harness times at different thread counts.
pub fn run_flow_workload(nx: usize, ny: usize, steps: usize, threads: usize) -> FlowState {
    let mut s = FlowState::sod_x(nx, ny, FlowBc::Transmissive);
    for _ in 0..steps {
        let dt = s.cfl_dt(0.4, threads);
        s.step(dt, threads);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_state_is_steady() {
        let mut s = FlowState::uniform(32, 32, 1.0, 1.0, 1.0, 1.0, FlowBc::Periodic);
        let before = s.rho.clone();
        for _ in 0..5 {
            let dt = s.cfl_dt(0.4, 1);
            s.step(dt, 1);
        }
        for (a, b) in before.iter().zip(&s.rho) {
            assert!((a - b).abs() < 1e-12, "uniform state drifted");
        }
    }

    #[test]
    fn periodic_run_conserves_everything() {
        let mut s = FlowState::sod_x(64, 8, FlowBc::Periodic);
        let (m0, px0, py0, e0) = s.totals();
        for _ in 0..20 {
            let dt = s.cfl_dt(0.4, 1);
            s.step(dt, 1);
        }
        let (m1, px1, py1, e1) = s.totals();
        assert!((m0 - m1).abs() / m0 < 1e-12, "mass drift");
        assert!((px0 - px1).abs() < 1e-10, "x momentum drift");
        assert!((py0 - py1).abs() < 1e-12, "y momentum drift");
        assert!((e0 - e1).abs() / e0 < 1e-12, "energy drift");
    }

    /// Sod shock tube structure at t ~ 0.2: density behind the shock,
    /// in the contact region and in the untouched states should follow the
    /// classic profile ordering (left state > rarefied > contact > shocked
    /// > right state), and all values stay within the initial extremes.
    #[test]
    fn sod_shock_tube_structure() {
        let nx = 400;
        let mut s = FlowState::sod_x(nx, 1, FlowBc::Transmissive);
        let mut t = 0.0;
        while t < 0.2 {
            let dt = s.cfl_dt(0.4, 1).min(0.2 - t);
            s.step(dt, 1);
            t += dt;
        }
        // All densities within [0.125, 1.0] (no over/undershoot blow-ups).
        for &r in &s.rho {
            assert!(r > 0.1 && r < 1.01, "density out of range: {r}");
        }
        // Ends remain at the initial states.
        assert!((s.rho[5] - 1.0).abs() < 1e-6);
        assert!((s.rho[nx - 5] - 0.125).abs() < 1e-6);
        // The exact solution has a plateau at rho ~ 0.426 (contact) and
        // ~0.266 (shocked right gas); with first-order Rusanov at nx=400
        // the profile should pass near both.
        let near = |target: f64, tol: f64| s.rho.iter().any(|&r| (r - target).abs() < tol);
        assert!(near(0.426, 0.05), "missing contact plateau");
        assert!(near(0.266, 0.04), "missing shocked state");
        // Pressure stays positive everywhere.
        for i in 0..nx {
            assert!(s.pressure(i) > 0.0);
        }
    }

    #[test]
    fn parallel_and_serial_steps_agree() {
        let mut serial = FlowState::sod_x(64, 16, FlowBc::Periodic);
        let mut threaded = [2, 3, 7].map(|t| (t, serial.clone()));
        for _ in 0..5 {
            let dt = serial.cfl_dt(0.4, 1);
            serial.step(dt, 1);
            for (t, s) in &mut threaded {
                assert_eq!(s.cfl_dt(0.4, *t).to_bits(), dt.to_bits());
                s.step(dt, *t);
            }
        }
        for (t, s) in &threaded {
            for (x, y) in serial.rho.iter().zip(&s.rho) {
                assert_eq!(x.to_bits(), y.to_bits(), "{t}-thread sweep diverged");
            }
        }
    }

    #[test]
    fn workload_runs() {
        let s = run_flow_workload(64, 8, 3, 1);
        assert_eq!(s.nx(), 64);
        assert!(s.rho.iter().all(|&r| r > 0.0));
    }
}
