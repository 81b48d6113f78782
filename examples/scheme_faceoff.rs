//! Scheme face-off: run the same problem under Over Particles and Over
//! Events and verify they compute *identical physics* — the property that
//! makes the paper's scheme comparison apples-to-apples.
//!
//! Both schemes consume the same per-particle counter-based RNG streams
//! (§IV-F), so every history follows the same trajectory; only the
//! execution order (and therefore performance) differs.
//!
//! ```sh
//! cargo run --release --example scheme_faceoff
//! ```

use neutral_core::prelude::*;

fn main() {
    let problem = TestCase::Csp.build(ProblemScale::small(), 99);
    let sim = Simulation::new(problem);

    let op = sim.run(RunOptions::default());
    let oe = sim.run(RunOptions {
        scheme: Scheme::OverEvents,
        ..Default::default()
    });

    println!("Over Particles: {}", op.summary());
    println!("Over Events:    {}", oe.summary());

    // Identical physics...
    assert_eq!(op.counters.collisions, oe.counters.collisions);
    assert_eq!(op.counters.facets, oe.counters.facets);
    assert_eq!(op.counters.census, oe.counters.census);
    assert_eq!(op.counters.deaths, oe.counters.deaths);
    let (a, b) = (op.tally_total(), oe.tally_total());
    assert!(((a - b) / a).abs() < 1e-9, "tallies diverged: {a} vs {b}");
    println!(
        "\nphysics check: identical event counts, tallies agree to {:.1e} relative",
        ((a - b) / a).abs()
    );

    // ...different performance.
    println!(
        "\nwall-clock: OP {} s vs OE {} s -> OE/OP = {:.2}x (paper: >2x on every tested machine)",
        op.elapsed.as_secs_f64(),
        oe.elapsed.as_secs_f64(),
        oe.elapsed.as_secs_f64() / op.elapsed.as_secs_f64()
    );

    let t = oe.kernel_timings.expect("OE reports kernel timings");
    println!(
        "OE kernel breakdown (busy time, summed over lanes) over {} rounds: decide {:.2}s, collision {:.2}s, facet {:.2}s, tally {:.2}s ({:.0}% of kernel time), census {:.2}s",
        t.rounds,
        t.decide.as_secs_f64(),
        t.collision.as_secs_f64(),
        t.facet.as_secs_f64(),
        t.tally.as_secs_f64(),
        100.0 * t.tally_fraction(),
        t.census.as_secs_f64(),
    );
}
