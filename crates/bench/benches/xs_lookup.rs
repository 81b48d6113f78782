//! Cross-section lookup strategies (§VI-A): the paper's cached linear
//! search and binary baseline on post-collision energy walks (~2% energy
//! steps, the realistic access pattern) and on worst-case random jumps
//! (see also the `fig15_xs_strategies` sweep binary). The
//! `xs_table_build` group times what every problem build pays before the
//! first lookup: synthesizing a material's capture and scatter tables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neutral_xs::{CrossSectionLibrary, LookupStrategy, MaterialKind, MaterialSpec, XsHints};
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
/// "might suffer issues" and where binary search wins.
fn jump_energies(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 10f64.powf((i * 7 % 11) as f64 - 4.0))
        .collect()
}

fn bench_lookup(c: &mut Criterion) {
    let lib = CrossSectionLibrary::synthetic(30_000, 99);
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

/// Building a material's two tables — the whole cold set-up of a problem
/// build — at the product's default table size. Each library drops before
/// the next build, so every build synthesizes (none is an intern hit).
fn bench_table_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("xs_table_build");
    for kind in MaterialKind::ALL {
        let spec = MaterialSpec {
            kind,
            n_points: 30_000,
            seed: 99,
        };
        group.bench_with_input(BenchmarkId::new("build", kind.name()), &spec, |b, spec| {
            b.iter(|| black_box(spec).build());
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_lookup, bench_table_build
}
criterion_main!(benches);
