//! Comparator mini-app benchmarks: one `flow` hydro step and one `hot` CG
//! solve, at one and two threads — the bandwidth-bound baselines of
//! Figure 3.

use criterion::{criterion_group, criterion_main, Criterion};
use neutral_proxies::{flow, hot};
use std::hint::black_box;

fn bench_proxies(c: &mut Criterion) {
    let mut group = c.benchmark_group("proxies");
    group.sample_size(10);

    for threads in [1, 2] {
        group.bench_function(format!("flow_step_{threads}t_256"), |b| {
            let mut s = flow::FlowState::sod_x(256, 256, flow::FlowBc::Periodic);
            let dt = s.cfl_dt(0.4, threads);
            b.iter(|| {
                s.step(black_box(dt), threads);
            });
        });
    }

    for threads in [1, 2] {
        group.bench_function(format!("hot_cg_{threads}t_128"), |b| {
            b.iter(|| black_box(hot::run_hot_workload(128, 128, threads)));
        });
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(std::time::Duration::from_secs(3));
    targets = bench_proxies
}
criterion_main!(benches);
