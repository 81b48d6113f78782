//! Cross-section lookup strategies (§VI-A, extended): the paper's cached
//! linear search and binary baseline, plus the unionized-grid and
//! hashed-grid accelerations, on post-collision energy walks (~2% energy
//! steps, the realistic access pattern) and on worst-case random jumps.
//!
//! The acceptance bar of the lookup subsystem is measured here: on a
//! 4096-point table, `unionized` and `hashed` must beat `binary` by ≥ 2x
//! (see also the `fig15_xs_strategies` sweep binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neutral_xs::{CrossSectionLibrary, LookupStrategy, XsHints};
use std::hint::black_box;

/// A realistic post-collision energy trajectory: 1 MeV decaying by ~2%
/// per step to 1 eV (~680 lookups).
fn walk_energies() -> Vec<f64> {
    let mut energies = Vec::new();
    let mut e = 1.0e6;
    while e > 1.0 {
        energies.push(e);
        e *= 0.98;
    }
    energies
}

/// Large random jumps — the regime where the paper warns the cached walk
/// "might suffer issues" and where the O(1) backends shine.
fn jump_energies(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 10f64.powf((i * 7 % 11) as f64 - 4.0))
        .collect()
}

fn bench_lookup(c: &mut Criterion) {
    let lib = CrossSectionLibrary::synthetic(30_000, 99);
    lib.prepare(LookupStrategy::Unionized);
    lib.prepare(LookupStrategy::Hashed);
    let energies = walk_energies();

    let mut group = c.benchmark_group("xs_lookup");
    group.throughput(criterion::Throughput::Elements(energies.len() as u64));

    for strategy in LookupStrategy::ALL {
        group.bench_with_input(
            BenchmarkId::new("collision_walk", strategy.name()),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    let mut hints = XsHints::default();
                    let _ = lib.lookup_with(strategy, energies[0], &mut hints);
                    let mut acc = 0.0;
                    for &e in &energies {
                        acc += lib
                            .lookup_with(strategy, black_box(e), &mut hints)
                            .0
                            .total_barns();
                    }
                    acc
                });
            },
        );
    }

    let jumps = jump_energies(energies.len());
    for strategy in LookupStrategy::ALL {
        group.bench_with_input(
            BenchmarkId::new("random_jumps", strategy.name()),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    let mut hints = XsHints::default();
                    let mut acc = 0.0;
                    for &e in &jumps {
                        acc += lib
                            .lookup_with(strategy, black_box(e), &mut hints)
                            .0
                            .total_barns();
                    }
                    acc
                });
            },
        );
    }

    // The batched lane-block API the event-based driver uses.
    let n = jumps.len();
    for strategy in LookupStrategy::ALL {
        group.bench_with_input(
            BenchmarkId::new("lookup_many", strategy.name()),
            &strategy,
            |b, &strategy| {
                let mut ha = vec![0u32; n];
                let mut hs = vec![0u32; n];
                let mut oa = vec![0.0f64; n];
                let mut os = vec![0.0f64; n];
                b.iter(|| {
                    lib.lookup_many_with(
                        strategy,
                        black_box(&jumps),
                        &mut ha,
                        &mut hs,
                        &mut oa,
                        &mut os,
                    );
                    oa[n - 1]
                });
            },
        );
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_lookup
}
criterion_main!(benches);
