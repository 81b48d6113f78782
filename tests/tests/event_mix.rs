//! The test problems must expose the event mixes the paper designed them
//! for (§IV-B): `stream` is facet-dominated (~7000 facets per particle at
//! paper scale), `scatter` is collision-dominated, `csp` is mixed.

use neutral_core::prelude::*;
use neutral_integration::tiny;

fn counters(case: TestCase) -> (EventCounters, usize) {
    let sim = tiny(case, 77);
    let n = sim.problem().n_particles;
    (
        sim.run(RunOptions {
            execution: Execution::Sequential,
            ..Default::default()
        })
        .counters,
        n,
    )
}

#[test]
fn stream_facets_extrapolate_to_paper_7000() {
    let (c, _) = counters(TestCase::Stream);
    // tiny scale = 128 cells/axis; the paper's mesh has 4000. Facet count
    // per history scales with resolution.
    let scaled = c.facets_per_history() * (4000.0 / 128.0);
    assert!(
        (4500.0..9500.0).contains(&scaled),
        "stream facets/history extrapolates to {scaled:.0}, paper says ~7000"
    );
    assert_eq!(c.collisions, 0, "stream is a vacuum");
    assert!(c.reflections > 0, "reflective walls must matter");
}

#[test]
fn scatter_is_collision_dominated() {
    let (c, n) = counters(TestCase::Scatter);
    assert!(
        c.collisions > 5 * c.facets,
        "scatter: {} collisions vs {} facets",
        c.collisions,
        c.facets
    );
    // Histories end by cutoff, not census.
    assert!(c.deaths as usize > n / 2);
    // Both collision branches fire under the analogue model.
    assert!(c.absorptions > 0 && c.scatters > 0);
}

#[test]
fn csp_is_mixed_and_realistic() {
    let (c, n) = counters(TestCase::Csp);
    assert!(c.facets > 0 && c.collisions > 0);
    // Some particles stream to census, others die in the square.
    assert!(c.census > 0, "some particles must survive");
    assert!(c.deaths > 0, "the dense square must kill some");
    assert!(c.census + c.deaths == n as u64 + c.stuck);
}

#[test]
fn collision_grind_dwarfs_facet_grind() {
    // §VI-A: collisions ~18 ns, facets ~3 ns. Absolute numbers are
    // host-dependent; the *ratio* (collision >= ~3x facet) is shape. Each
    // problem's grind is its best solve time (spawn and set-up excluded)
    // over interleaved repetitions, so a busy host slows both sides
    // alike and a single slow run cannot decide the ratio.
    let options = RunOptions {
        execution: Execution::Sequential,
        ..Default::default()
    };
    let scatter = tiny(TestCase::Scatter, 3);
    let stream = tiny(TestCase::Stream, 3);
    let (mut best_collision, mut best_facet) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let rs = scatter.run(options);
        let ns = rs.elapsed.as_nanos() as f64 / rs.counters.collisions.max(1) as f64;
        best_collision = best_collision.min(ns);
        let rf = stream.run(options);
        let ns = rf.elapsed.as_nanos() as f64 / rf.counters.facets.max(1) as f64;
        best_facet = best_facet.min(ns);
    }
    assert!(
        best_collision > 2.0 * best_facet,
        "collision {best_collision:.1} ns vs facet {best_facet:.1} ns"
    );
}

#[test]
fn xs_search_steps_stay_short_after_warmup() {
    // §VI-A: the cached linear search works because post-collision energy
    // jumps are small. Mean walk length per lookup must be far below a
    // binary search's ~log2(30000) ~ 15 *random* probes — the walk is a
    // few *contiguous* steps.
    let (c, _) = counters(TestCase::Scatter);
    let mean = c.mean_search_steps();
    assert!(
        mean < 40.0,
        "mean hinted-search walk is {mean:.1} grid steps"
    );
}
