//! Shared harness for the figure-regeneration binaries.
//!
//! Every table and figure in the paper's evaluation (§VI–§VIII) has a
//! regenerator binary in `src/bin/` (`fig03_*` … `fig14_*`, `intext_*`).
//! Each binary prints the same rows/series the paper reports, marking
//! every number as **measured** (run on this host) or **modeled**
//! (projected onto the paper's machines by `neutral-perf`, per the
//! hardware-substitution strategy in `DESIGN.md` §5).
//!
//! Common conventions:
//!
//! * figures default to [`ProblemScale::small`]; pass `--paper-scale` for
//!   the full 4000²/10⁷ configuration (slow!) or `--tiny` for smoke runs;
//! * all measured numbers should be produced from `--release` builds;
//! * output is plain aligned text so it can be diffed and pasted.

#![warn(clippy::all)]

pub mod baseline;
pub mod report;
pub mod serve_http;

use neutral_core::prelude::*;
use neutral_perf::model::{KernelProfile, SchemeKind};
use std::time::Duration;

/// Command-line options shared by the figure binaries.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Problem scale for measured runs.
    pub scale: ProblemScale,
    /// Master seed.
    pub seed: u64,
    /// Repetitions per measured configuration (median is reported).
    pub reps: usize,
    /// Where to write the machine-readable [`report::BenchReport`]
    /// (`--json PATH`); `None` prints tables only.
    pub json: Option<String>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            scale: ProblemScale::small(),
            seed: 20170905, // the paper's conference date
            reps: 3,
            json: None,
        }
    }
}

impl HarnessArgs {
    /// Parse from `std::env::args`: `--paper-scale`, `--tiny`,
    /// `--mesh N`, `--particle-div N`, `--seed N`, `--reps N`.
    #[must_use]
    pub fn from_env() -> Self {
        let mut out = Self::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--paper-scale" => out.scale = ProblemScale::paper(),
                "--tiny" => out.scale = ProblemScale::tiny(),
                "--mesh" => {
                    i += 1;
                    out.scale.mesh_cells = args[i].parse().expect("--mesh N");
                }
                "--particle-div" => {
                    i += 1;
                    out.scale.particle_divisor = args[i].parse().expect("--particle-div N");
                }
                "--seed" => {
                    i += 1;
                    out.seed = args[i].parse().expect("--seed N");
                }
                "--reps" => {
                    i += 1;
                    out.reps = args[i].parse::<usize>().expect("--reps N").max(1);
                }
                // Seconds-scale smoke mode, used by CI to catch panics
                // in the sweep binaries.
                "--quick" => {
                    out.scale = ProblemScale::tiny();
                    out.reps = 1;
                }
                "--json" => {
                    i += 1;
                    out.json = Some(args[i].clone());
                }
                other => panic!("unknown argument: {other}"),
            }
            i += 1;
        }
        out
    }

    /// Mesh-axis multiplier from this scale to the paper's 4000² mesh.
    #[must_use]
    pub fn mesh_mult_to_paper(&self) -> f64 {
        4000.0 / self.scale.mesh_cells as f64
    }

    /// Particle multiplier from this scale to the paper's counts.
    #[must_use]
    pub fn particle_mult_to_paper(&self) -> f64 {
        self.scale.particle_divisor as f64
    }
}

/// Run `case` once with `options`, returning the report.
#[must_use]
pub fn run_once(case: TestCase, options: RunOptions, args: &HarnessArgs) -> RunReport {
    let sim = Simulation::new(case.build(args.scale, args.seed));
    sim.run(options)
}

/// Run `reps` times and return the median-wall-clock report.
#[must_use]
pub fn run_median(case: TestCase, options: RunOptions, args: &HarnessArgs) -> RunReport {
    median_run(&case.build(args.scale, args.seed), options, args.reps)
}

/// Median-of-`reps` run of an already-built problem (shared by the
/// figure binaries that configure transport options themselves).
#[must_use]
pub fn median_run(problem: &Problem, options: RunOptions, reps: usize) -> RunReport {
    let sim = Simulation::new(problem.clone());
    median_of(reps, || sim.run(options))
}

/// The median-wall-clock report of `reps` (at least one) calls of `run`.
pub(crate) fn median_of(reps: usize, run: impl Fn() -> RunReport) -> RunReport {
    let mut reports: Vec<RunReport> = (0..reps.max(1)).map(|_| run()).collect();
    reports.sort_by_key(|r| r.elapsed);
    reports.swap_remove(reports.len() / 2)
}

/// Measure a case at test scale and extrapolate its profile to the
/// paper's full scale for the architecture model.
#[must_use]
pub fn paper_profile(case: TestCase, scheme: Scheme, args: &HarnessArgs) -> KernelProfile {
    let options = RunOptions {
        scheme,
        execution: Execution::Sequential,
    };
    let report = run_once(case, options, args);
    let kind = match scheme {
        Scheme::OverParticles => SchemeKind::OverParticles,
        Scheme::OverEvents => SchemeKind::OverEvents,
    };
    let rounds = report.kernel_timings.map_or(0, |t| t.rounds);
    let problem = case.build(args.scale, args.seed);
    KernelProfile::from_counters(kind, &report.counters, problem.n_particles, rounds)
        .scaled(args.particle_mult_to_paper(), args.mesh_mult_to_paper())
}

/// Number of logical CPUs on this host.
#[must_use]
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A geometric thread ladder `1, 2, 4, ... max` (always includes `max`).
#[must_use]
pub fn thread_ladder(max: usize) -> Vec<usize> {
    let mut out = vec![];
    let mut t = 1;
    while t < max {
        out.push(t);
        t *= 2;
    }
    out.push(max);
    out
}

/// Format a duration in seconds with 3 decimals.
#[must_use]
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Print an aligned text table: `header` row then `rows`, columns padded
/// to the widest cell.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("  {}", line.join("  "));
    };
    fmt_row(&header.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * ncols;
    println!("  {}", "-".repeat(total));
    for row in rows {
        fmt_row(row);
    }
}

/// Standard figure banner.
pub fn banner(figure: &str, title: &str, methodology: &str) {
    println!("==============================================================");
    println!("{figure}: {title}");
    println!("({methodology})");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_ladder_includes_endpoints() {
        assert_eq!(thread_ladder(1), vec![1]);
        assert_eq!(thread_ladder(6), vec![1, 2, 4, 6]);
        assert_eq!(thread_ladder(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn default_args_scale() {
        let a = HarnessArgs::default();
        assert_eq!(a.scale.mesh_cells, 1000);
        assert!((a.mesh_mult_to_paper() - 4.0).abs() < 1e-12);
        assert!((a.particle_mult_to_paper() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn run_once_produces_events() {
        let args = HarnessArgs {
            scale: ProblemScale::tiny(),
            ..Default::default()
        };
        let r = run_once(
            TestCase::Csp,
            RunOptions {
                execution: Execution::Sequential,
                ..Default::default()
            },
            &args,
        );
        assert!(r.counters.total_events() > 0);
    }

    #[test]
    fn paper_profile_extrapolates() {
        let args = HarnessArgs {
            scale: ProblemScale::tiny(),
            ..Default::default()
        };
        let p = paper_profile(TestCase::Stream, Scheme::OverParticles, &args);
        // Stream at paper scale: ~7000 facets per history (§IV-B).
        let fph = p.facets / p.n_particles;
        assert!(fph > 5000.0 && fph < 9000.0, "facets/history {fph}");
    }
}
