//! Whole-solve scheme comparison at bench scale: Over Particles vs Over
//! Events, sequential and parallel — the Criterion-tracked counterpart of
//! Figure 9.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neutral_core::prelude::*;
use std::hint::black_box;

fn bench_schemes(c: &mut Criterion) {
    // Small but representative: collisions and facets both present.
    let scale = ProblemScale {
        mesh_cells: 256,
        particle_divisor: 2000,
    };
    let mut group = c.benchmark_group("schemes");
    group.sample_size(10);

    for case in TestCase::ALL {
        let sim = Simulation::new(case.build(scale, 7));
        group.bench_with_input(
            BenchmarkId::new("over_particles_seq", case.name()),
            &sim,
            |b, sim| {
                b.iter(|| {
                    black_box(sim.run(RunOptions {
                        execution: Execution::Sequential,
                        ..Default::default()
                    }))
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("over_events_seq", case.name()),
            &sim,
            |b, sim| {
                b.iter(|| {
                    black_box(sim.run(RunOptions {
                        scheme: Scheme::OverEvents,
                        execution: Execution::Sequential,
                    }))
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("over_particles_par", case.name()),
            &sim,
            |b, sim| {
                b.iter(|| black_box(sim.run(RunOptions::default())));
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(3));
    targets = bench_schemes
}
criterion_main!(benches);
