//! In-text profiling numbers from §VI-A:
//!
//! * collision events average ~18 ns, facet events ~3 ns (grind times,
//!   measured with the scatter and stream problems respectively);
//! * tallying accounts for ~50% of the Over-Particles runtime but only
//!   ~22% of the Over-Events runtime;
//! * the cached linear cross-section search beats a fresh binary search,
//!   worth 1.3x on csp end to end.
//!
//! Everything in this binary is measured on this host.

use neutral_bench::*;
use neutral_core::events::NullTally;
use neutral_core::history::{track_to_census, TransportCtx};
use neutral_core::particle::spawn_particles;
use neutral_core::prelude::*;
use neutral_rng::Threefry2x64;
use std::time::Instant;

fn main() {
    let args = HarnessArgs::from_env();
    banner(
        "In-text §VI-A",
        "grind times, tally share, cached-search benefit",
        "measured on this host",
    );

    // -- grind times: sequential run, events/second.
    println!("\n-- event grind times --");
    for (case, event_kind) in [
        (TestCase::Scatter, "collision"),
        (TestCase::Stream, "facet"),
    ] {
        let r = run_median(
            case,
            RunOptions {
                execution: Execution::Sequential,
                ..Default::default()
            },
            &args,
        );
        let events = match event_kind {
            "collision" => r.counters.collisions,
            _ => r.counters.facets,
        };
        let ns = r.elapsed.as_nanos() as f64 / events as f64;
        println!(
            "  {:8} problem: {:>12} {event_kind} events in {} s -> {ns:5.1} ns/event (paper: {})",
            case.name(),
            events,
            secs(r.elapsed),
            if event_kind == "collision" {
                "~18 ns"
            } else {
                "~3 ns"
            },
        );
    }

    // -- tally share, Over Particles: real tally vs NullTally.
    println!("\n-- tally share of runtime --");
    let problem = TestCase::Csp.build(args.scale, args.seed);
    let rng = Threefry2x64::new([problem.seed, 1]);
    let ctx = TransportCtx {
        mesh: &problem.mesh,
        materials: &problem.materials,
        rng: &rng,
        cfg: &problem.transport,
    };
    let mut with_tally = Vec::new();
    let mut without = Vec::new();
    for _ in 0..args.reps {
        let mut particles = spawn_particles(&problem);
        let mut tally = neutral_mesh::tally::SequentialTally::new(problem.mesh.num_cells());
        let t0 = Instant::now();
        let mut counters = EventCounters::default();
        for p in &mut particles {
            track_to_census(p, &ctx, &mut tally, &mut counters);
        }
        with_tally.push(t0.elapsed().as_secs_f64());

        let mut particles = spawn_particles(&problem);
        let mut null = NullTally;
        let t0 = Instant::now();
        let mut counters = EventCounters::default();
        for p in &mut particles {
            track_to_census(p, &ctx, &mut null, &mut counters);
        }
        without.push(t0.elapsed().as_secs_f64());
    }
    with_tally.sort_by(f64::total_cmp);
    without.sort_by(f64::total_cmp);
    let wt = with_tally[with_tally.len() / 2];
    let wo = without[without.len() / 2];
    println!(
        "  Over Particles (csp): {wt:.3} s with tally, {wo:.3} s with a null tally\n\
         -> tallying ~{:.0}% of runtime (paper: ~50% on Xeon; note: register\n\
            accumulation + flush; the share grows with atomic contention)",
        100.0 * (wt - wo).max(0.0) / wt
    );

    let oe = run_median(
        TestCase::Csp,
        RunOptions {
            scheme: Scheme::OverEvents,
            execution: Execution::Sequential,
        },
        &args,
    );
    let t = oe.kernel_timings.expect("OE timings");
    println!(
        "  Over Events (csp): tally-flush kernel = {:.0}% of kernel busy time, summed over lanes (paper: ~22%)",
        100.0 * t.tally_fraction()
    );

    // -- cached linear search vs binary search per lookup.
    //
    // The benefit of the cached walk is *cache locality*: contiguous
    // steps near the previous bin versus log2(n) scattered probes. It
    // only shows once the table exceeds the cache, so we measure both a
    // cache-resident table (the mini-app default, 30k points = 480 KB)
    // and a realistically large one (2M points = 32 MB — "the lookup
    // tables can be large", §IV-D).
    println!("\n-- cross-section search strategies (post-collision energy walks) --");
    // Simulate a post-collision energy walk: E drifts down by ~2% steps.
    let mut energies = Vec::new();
    let mut e = 1.0e6;
    while e > 1.0 {
        energies.push(e);
        e *= 0.98;
    }
    for (label, points, reps) in [
        ("30k-point table", 30_000usize, 2000u32),
        ("2M-point table", 2_000_000, 400),
    ] {
        let xs = neutral_xs::CrossSectionLibrary::synthetic(points, 99);
        let mut acc = 0.0;
        let t0 = Instant::now();
        for _ in 0..reps {
            let mut hints = neutral_xs::XsHints::default();
            let _ = xs.lookup(energies[0], &mut hints); // warm hint
            for &e in &energies {
                acc += xs.lookup(e, &mut hints).total_barns();
            }
        }
        let cached = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for _ in 0..reps {
            for &e in &energies {
                acc += xs.lookup_binary(e).total_barns();
            }
        }
        let binary = t0.elapsed().as_secs_f64();
        std::hint::black_box(acc);
        println!(
            "  {label:>15}: cached {cached:.3} s, binary {binary:.3} s -> binary/cached = {:.2}x",
            binary / cached
        );
    }

    // End-to-end, the way the paper measured it: the full scatter solve
    // (collision-heavy, one lookup per collision) with each strategy.
    let run_search = |search| {
        let mut problem = TestCase::Scatter.build(args.scale, args.seed);
        problem.transport.xs_search = search;
        let sim = Simulation::new(problem);
        let mut times: Vec<f64> = (0..args.reps)
            .map(|_| {
                sim.run(RunOptions {
                    execution: Execution::Sequential,
                    ..Default::default()
                })
                .elapsed
                .as_secs_f64()
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    let binary = run_search(LookupStrategy::Binary);
    for strategy in [
        LookupStrategy::Hinted,
        LookupStrategy::Unionized,
        LookupStrategy::Hashed,
    ] {
        let t = run_search(strategy);
        println!(
            "  end-to-end scatter solve: {} {t:.3} s vs binary {binary:.3} s -> {:.2}x",
            strategy.name(),
            binary / t
        );
    }
    println!(
        "  (paper: the cached search bought 1.3x end-to-end; the effect needs a\n\
         table larger than the cache left over by the transport working set)"
    );
}
