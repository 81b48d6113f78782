//! Quickstart: build one of the paper's test problems, run the transport
//! solve, and inspect the results.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use neutral_core::prelude::*;

fn main() {
    // The paper's "center square problem" (csp): a low-density domain with
    // a dense square in the middle, particles born in the bottom-left
    // corner (§IV-B). `small()` scales the 4000^2 / 1e6-particle paper
    // configuration down to laptop size; `ProblemScale::paper()` runs the
    // full thing.
    let problem = TestCase::Csp.build(ProblemScale::small(), 42);
    println!(
        "mesh {}x{} cells, {} particles, dt = {:.1e} s",
        problem.mesh.nx(),
        problem.mesh.ny(),
        problem.n_particles,
        problem.dt
    );

    let sim = Simulation::new(problem);

    // Default options: Over-Particles scheme on every host thread,
    // replicated (deterministic) tally — the configuration every served
    // solve runs.
    let report = sim.run(RunOptions::default());

    println!("{}", report.summary());
    println!(
        "events: {} collisions ({} absorptions, {} scatters), {} facets ({} reflections), {} census",
        report.counters.collisions,
        report.counters.absorptions,
        report.counters.scatters,
        report.counters.facets,
        report.counters.reflections,
        report.counters.census,
    );
    println!(
        "per history: {:.1} facets, {:.2} collisions",
        report.counters.facets_per_history(),
        report.counters.collisions_per_history()
    );

    // Energy bookkeeping (exact in expectation under ImplicitCapture; a
    // response proxy under the default Analogue model — see DESIGN.md).
    let balance = report.energy_balance();
    println!(
        "energy: source {:.3e} eV, deposited {:.3e} eV, census residual {:.3e} eV, cutoff residual {:.3e} eV",
        balance.initial_ev,
        balance.deposited_ev,
        balance.census_residual_ev,
        balance.cutoff_residual_ev
    );

    // Where did the energy go? Coarse 8x8 summary of the deposition mesh.
    let nx = sim.problem().mesh.nx();
    let ny = sim.problem().mesh.ny();
    println!("\ndeposition map (log10 eV per coarse cell, '.' = empty):");
    let coarse = 8;
    for cy in (0..coarse).rev() {
        let mut line = String::from("  ");
        for cx in 0..coarse {
            let mut sum = 0.0;
            for iy in (cy * ny / coarse)..((cy + 1) * ny / coarse) {
                for ix in (cx * nx / coarse)..((cx + 1) * nx / coarse) {
                    sum += report.tally[iy * nx + ix];
                }
            }
            if sum > 0.0 {
                line.push_str(&format!("{:3.0}", sum.log10()));
            } else {
                line.push_str("  .");
            }
        }
        println!("{line}");
    }
}
