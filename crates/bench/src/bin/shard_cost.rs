//! Sharded-solve cost record: what does fault isolation cost per
//! timestep, relative to the unsharded solve it reproduces bit for bit?
//!
//! For each driver family the sweep runs a multi-timestep csp solve
//! unsharded and then re-runs it through [`ShardedSolve`] at increasing
//! shard counts (from 2: a plain one-shard solve steps the very same
//! core in place, so its cost is the fused step's by construction),
//! timing whole timesteps. Each sharded step pays for
//! per-shard serialization of the transport work plus the deterministic
//! pairwise lane merge; the headline number is "cutting a timestep into
//! N recoverable units costs X% over the fused step", and beside it the
//! bytes of shard results that crossed the wire per step — a shard ships
//! the merge-tree nodes covering its lanes, so 2/4/8 shards over 32
//! lanes ship one mesh each and 3 shards (lane ranges off the node
//! boundaries) ship 2 + 4 + 3. Every sharded run
//! is asserted bitwise identical to the unsharded baseline before its
//! timing is reported — a sharded configuration that drifts is a bug,
//! not a data point.
//!
//! Run with `cargo run --release -p neutral-bench --bin shard_cost
//! [--quick] [--json PATH]`. `--quick` shrinks the problem to a
//! seconds-scale smoke (used by CI); measured numbers are only
//! meaningful from `--release` builds.

use neutral_bench::report::{BenchRecord, BenchReport};
use neutral_bench::{banner, host_threads, print_table};
use neutral_core::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(label, scheme)` of the two schemes.
const DRIVERS: [(&str, Scheme); 2] = [
    ("over_particles", Scheme::OverParticles),
    ("over_events", Scheme::OverEvents),
];

/// Shard counts swept against the unsharded baseline: 2/4/8 cut 32
/// lanes on node boundaries, 3 does not (a multi-node cover per shard).
const SHARD_COUNTS: [usize; 4] = [2, 3, 4, 8];

/// Median of a non-empty sample (mutates order).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Run the solve as `n_shards` shards: the report, the median step time
/// in ms, and the result bytes that crossed the wire per step.
fn run_sharded(
    sim: &Arc<Simulation>,
    options: RunOptions,
    n_shards: usize,
) -> (RunReport, f64, f64) {
    let mut config = ShardConfig::new(n_shards);
    config.backoff = Duration::ZERO;
    let mut solve = ShardedSolve::new(sim, options, config);
    let mut step_ms = Vec::new();
    while !solve.is_done() {
        let t0 = Instant::now();
        solve.step(sim).expect("no faults injected");
        step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let wire_per_step = solve.stats().wire_bytes as f64 / step_ms.len() as f64;
    (solve.finish(), median(&mut step_ms), wire_per_step)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let json = argv.iter().position(|a| a == "--json").map(|i| {
        argv.get(i + 1)
            .unwrap_or_else(|| panic!("--json requires a PATH operand"))
            .clone()
    });
    let seed = 20_170_905;
    banner(
        "Sharded-solve cost",
        "fault-isolated shard execution cost per timestep",
        "Each sharded timestep serializes its shards and merges lane \
         partials pairwise; overhead is sharded step time over the \
         unsharded step. All sharded runs are asserted bitwise identical \
         to the baseline first.",
    );

    let (scale, timesteps, reps) = if quick {
        (ProblemScale::tiny(), 2, 1)
    } else {
        (
            ProblemScale {
                mesh_cells: 256,
                particle_divisor: 50,
            },
            3,
            3,
        )
    };
    let threads = host_threads();

    let mut problem = TestCase::Csp.build(scale, seed);
    problem.n_timesteps = timesteps;
    problem.transport.tally_strategy = TallyStrategy::Replicated;
    let sim = Arc::new(Simulation::new(problem.clone()));
    println!(
        "\n-- csp, {0}x{0} mesh, {1} particles, {2} timesteps, {3} reps --",
        scale.mesh_cells, problem.n_particles, timesteps, reps
    );

    let mut report = BenchReport::new("shard_cost");
    report.note(format!(
        "scale={}x{} mesh, particle_div={}, timesteps={timesteps}, reps={reps}, \
         seed={seed}, threads={threads}",
        scale.mesh_cells, scale.mesh_cells, scale.particle_divisor
    ));

    let mut rows = Vec::new();
    for (label, scheme) in DRIVERS {
        let options = RunOptions {
            scheme,
            execution: Execution::Scheduled {
                threads,
                schedule: Schedule::Dynamic { chunk: 64 },
            },
        };

        // Unsharded baseline: time fused steps, keep the report for the
        // bitwise assertion below.
        let mut base_ms = Vec::new();
        let mut baseline = None;
        for _ in 0..reps.max(1) {
            let mut solve = SolveCore::new(&sim, options);
            while !solve.is_done() {
                let t0 = Instant::now();
                solve.step(&sim);
                base_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            baseline = Some(solve.finish());
        }
        let baseline = baseline.expect("reps >= 1");
        let base = median(&mut base_ms);

        let mut record = BenchRecord::new(label)
            .config("driver", label)
            .metric("unsharded_step_ms", base);
        let mut row = vec![label.to_owned(), format!("{base:.2}")];
        for n_shards in SHARD_COUNTS {
            let mut shard_ms = Vec::new();
            let mut wire_bytes = 0.0;
            for _ in 0..reps.max(1) {
                let (sharded, step, wire) = run_sharded(&sim, options, n_shards);
                wire_bytes = wire;
                assert_eq!(
                    sharded.tally, baseline.tally,
                    "{label}: {n_shards}-shard tally diverged from unsharded"
                );
                assert_eq!(
                    sharded.counters, baseline.counters,
                    "{label}: {n_shards}-shard counters diverged from unsharded"
                );
                shard_ms.push(step);
            }
            let step = median(&mut shard_ms);
            let overhead = step / base.max(1e-9) - 1.0;
            record = record
                .metric(&format!("sharded{n_shards}_step_ms"), step)
                .metric(&format!("sharded{n_shards}_overhead_frac"), overhead)
                .metric(
                    &format!("sharded{n_shards}_wire_bytes_per_step"),
                    wire_bytes,
                );
            row.push(format!("{step:.2}"));
            row.push(format!("{:+.1}%", 100.0 * overhead));
            row.push(format!("{:.2}", wire_bytes / 1e6));
        }
        report.push(record);
        rows.push(row);
    }
    let mut header = vec!["driver".to_owned(), "fused (ms)".to_owned()];
    for n_shards in SHARD_COUNTS {
        header.extend([
            format!("{n_shards} shards"),
            "ovh".to_owned(),
            "wire MB".to_owned(),
        ]);
    }
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    print_table(&header, &rows);
    println!(
        "\n(ovh = sharded step / fused step - 1: the per-timestep price of \
         cutting transport into independently retryable units; wire MB = \
         serialized shard results per step. All sharded tallies verified \
         bitwise identical. Sweep mode: {}.)",
        if quick { "quick" } else { "full" }
    );

    if let Some(path) = &json {
        report.write(path).expect("write --json report");
        println!("machine-readable report written to {path}");
    }
}
