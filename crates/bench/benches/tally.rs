//! Tally update costs (§V-C, §VI-F, §VII-A): the atomic CAS-loop add —
//! uncontended, contended, and the privatised plain-store alternative —
//! plus the accumulator backends' deposit and fold costs.

use criterion::{criterion_group, criterion_main, Criterion};
use neutral_mesh::tally::{AtomicTally, PrivatizedTally, SequentialTally};
use neutral_mesh::{TallyAccum, TallyStrategy};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

fn bench_tally(c: &mut Criterion) {
    let cells = 1 << 16;
    let mut group = c.benchmark_group("tally");

    group.bench_function("atomic_add_uncontended", |b| {
        let t = AtomicTally::new(cells);
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 97) & (cells - 1);
            t.add(black_box(i), 1.25);
        });
    });

    group.bench_function("atomic_add_contended_8_threads", |b| {
        // All threads hammer a handful of cells — the conflict regime the
        // Over-Events scheme's batched tally loop creates (§VII-A-1).
        let t = AtomicTally::new(cells);
        let stop = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..7 {
                s.spawn(|| {
                    let mut k = 0usize;
                    while stop.load(Ordering::Relaxed) == 0 {
                        t.add(k & 7, 0.5);
                        k += 1;
                    }
                });
            }
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) & 7;
                t.add(black_box(i), 1.25);
            });
            stop.store(1, Ordering::Relaxed);
        });
    });

    group.bench_function("privatized_slot_add", |b| {
        let mut t = PrivatizedTally::new(1, cells);
        let slot = t.slots_mut().next().unwrap();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 97) & (cells - 1);
            slot.add(black_box(i), 1.25);
        });
    });

    group.bench_function("sequential_add", |b| {
        let mut t = SequentialTally::new(cells);
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 97) & (cells - 1);
            t.add(black_box(i), 1.25);
        });
    });

    group.bench_function("privatized_merge_16_slots", |b| {
        let mut t = PrivatizedTally::new(16, cells);
        for (k, slot) in t.slots_mut().enumerate() {
            slot.add(k, 1.0);
        }
        b.iter(|| black_box(t.merge()));
    });

    // Accumulator-subsystem deposit costs: one lane of each backend, the
    // per-flush price a transport worker pays.
    for strategy in TallyStrategy::ALL {
        group.bench_function(format!("accum_deposit_{}", strategy.name()), |b| {
            let mut accum = TallyAccum::new(strategy, cells, 16);
            let mut views = accum.lane_views();
            let view = &mut views[3];
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 97) & (cells - 1);
                view.add(black_box(i), 1.25);
            });
        });
    }

    // The replicated strategy's whole step: 16 lanes opened, populated
    // and closed in order, each folded up the pairwise tree as it closes.
    group.bench_function("accum_fold_16_lanes_replicated", |b| {
        b.iter(|| {
            let accum = TallyAccum::new(TallyStrategy::Replicated, cells, 16);
            for l in accum.lanes() {
                let mut view = accum.open(l);
                for k in 0..1024usize {
                    view.add((l * 4099 + k * 97) & (cells - 1), 1.0);
                }
            }
            black_box(accum.merge())
        });
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_tally
}
criterion_main!(benches);
