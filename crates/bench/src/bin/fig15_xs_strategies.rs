//! Figure 15 (repo extension): cross-section lookup strategy sweep.
//!
//! Sweeps table sizes × the four [`LookupStrategy`] backends over two
//! access patterns and reports ns/lookup plus the speedup over the
//! binary-search baseline, so the unionized/hashed acceleration claims
//! are *measured*, not asserted:
//!
//! * `collision walk` — post-collision ~2% energy decays from 1 MeV to
//!   1 eV, the realistic transport pattern that favours the hinted walk;
//! * `random jumps` — uncorrelated energies across the whole table, the
//!   worst case for the hinted walk and the home turf of the O(1)
//!   backends.
//!
//! Run with `cargo run --release -p neutral-bench --bin
//! fig15_xs_strategies [--quick] [--json PATH]`. `--json` additionally
//! writes the measurements as a machine-readable
//! [`neutral_bench::report::BenchReport`]. Measured numbers are only
//! meaningful from `--release` builds.

use neutral_bench::report::{BenchRecord, BenchReport};
use neutral_xs::{CrossSectionLibrary, LookupStrategy, XsHints};
use std::hint::black_box;
use std::time::Instant;

/// Post-collision decay trajectory (~680 lookups).
fn walk_energies() -> Vec<f64> {
    let mut out = Vec::new();
    let mut e = 1.0e6;
    while e > 1.0 {
        out.push(e);
        e *= 0.98;
    }
    out
}

/// Uncorrelated log-uniform energies over the tabulated range.
fn jump_energies(n: usize) -> Vec<f64> {
    // Deterministic low-discrepancy scatter over [1e-4, 1e7) eV.
    (0..n)
        .map(|i| {
            let t = (i as f64 * 0.618_033_988_749_895).fract();
            1.0e-4 * 10f64.powf(11.0 * t)
        })
        .collect()
}

/// Median ns/lookup of `reps` timed passes over `energies`.
fn measure(
    lib: &CrossSectionLibrary,
    strategy: LookupStrategy,
    energies: &[f64],
    reps: usize,
) -> f64 {
    lib.prepare(strategy);
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let mut hints = XsHints::default();
            let mut acc = 0.0;
            let t0 = Instant::now();
            for &e in energies {
                acc += lib
                    .lookup_with(strategy, black_box(e), &mut hints)
                    .0
                    .total_barns();
            }
            let dt = t0.elapsed().as_secs_f64();
            black_box(acc);
            dt * 1.0e9 / energies.len() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let json = argv.iter().position(|a| a == "--json").map(|i| {
        argv.get(i + 1)
            .unwrap_or_else(|| panic!("--json requires a PATH operand"))
            .clone()
    });
    let sizes: &[usize] = if quick {
        &[4_096]
    } else {
        &[512, 4_096, 30_000, 262_144]
    };
    let patterns: [(&str, Vec<f64>); 2] = [
        ("collision walk", walk_energies()),
        ("random jumps", jump_energies(4_096)),
    ];
    // Scale repetitions so each measurement lasts long enough to be stable.
    let reps = if quick { 40 } else { 200 };

    let mut report = BenchReport::new("fig15_xs_strategies");
    report.note(format!(
        "mode={}, sizes={sizes:?}, reps={reps}",
        if quick { "quick" } else { "full" }
    ));

    println!("fig15: cross-section lookup strategies (ns/lookup, median of {reps} passes)");
    println!("       speedups are vs the binary-search baseline on the same row\n");
    for (pattern, energies) in &patterns {
        println!("pattern: {pattern} ({} lookups/pass)", energies.len());
        println!(
            "  {:>9} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
            "points", "binary", "hinted", "unionized", "hashed", "hint-x", "union-x", "hash-x"
        );
        for &n in sizes {
            let lib = CrossSectionLibrary::synthetic(n, 99);
            let t: Vec<f64> = LookupStrategy::ALL
                .iter()
                .map(|&s| measure(&lib, s, energies, reps))
                .collect();
            for (&s, &ns) in LookupStrategy::ALL.iter().zip(&t) {
                let slug = pattern.replace(' ', "_");
                report.push(
                    BenchRecord::new(format!("{slug}/{n}/{}", s.name()))
                        .config("pattern", slug.clone())
                        .config("strategy", s.name())
                        .metric("ns_per_lookup", ns)
                        .metric("lookups_per_s", 1.0e9 / ns.max(1e-12)),
                );
            }
            println!(
                "  {:>9} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>7.2}x {:>7.2}x {:>7.2}x",
                n,
                t[0],
                t[1],
                t[2],
                t[3],
                t[0] / t[1],
                t[0] / t[2],
                t[0] / t[3]
            );
        }
        println!();
    }
    println!("(acceptance: unionized and hashed ≥ 2x over binary at 4096 points)");

    if let Some(path) = &json {
        report.write(path).expect("write --json report");
        println!("machine-readable report written to {path}");
    }
}
