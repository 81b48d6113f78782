//! `neutral` command-line driver — the mini-app's front door, equivalent
//! to the original C driver that reads a `.params` problem file.
//!
//! ```sh
//! neutral_cli [problem.params | --scenario NAME] [--scale tiny|small|paper]
//!             [--seed N] [--scheme op|oe]
//!             [--threads N] [--schedule static|dynamic,N|guided,N]
//!             [--timesteps N] [--sequential] [--dump-tally FILE]
//!             [--checkpoint FILE] [--fault SPEC]
//!             [--shards N] [--shard-fault SPEC]
//! ```
//!
//! `--scenario` runs a workload from the scenario catalogue
//! (`neutral_core::scenario`) — `--scenario help` lists it. With neither
//! a file nor a scenario, the built-in default (a small csp) runs. The
//! tally dump is a plain-text `ix iy value` triple per non-empty cell.
//! Every solve looks up cross sections with the paper's cached linear
//! search: the removed `--lookup` flag exits 1 with the params layer's
//! one message (`neutral_core::params::LOOKUP_REMOVED`).
//!
//! Every solve runs through one `neutral_core::drive::Driver`, whatever
//! the shard count. `--checkpoint FILE` makes it durable: a crash-safe
//! checkpoint is written to FILE at every census boundary, and a run
//! finding a valid checkpoint there resumes instead of restarting — at
//! any `--threads` and any `--shards` (a checkpoint from a different
//! problem is a hard error). `--fault SPEC` (e.g. `kill@2` or
//! `torn@1,bitflip@2`) deterministically injects checkpoint-layer
//! failures at census boundaries for testing the recovery path; it
//! requires `--checkpoint`.
//!
//! `--shards N` splits every timestep into N fault-isolated shards
//! (DESIGN.md §18, N ≤ 32: a shard owns whole lanes); results are
//! bitwise identical to the unsharded run for any N. With
//! `--checkpoint FILE` and N ≥ 2, shard retries reload their
//! census-boundary inputs from `FILE.shard<k>` stores.
//! `--shard-fault SPEC` (e.g. `kill@1` or `hang@0:2,corrupt@1`)
//! deterministically injects shard failures to exercise the
//! retry/quarantine path; it requires `--shards` ≥ 2.

use neutral_core::params::{ProblemParams, LOOKUP_REMOVED};
use neutral_core::prelude::*;
use neutral_core::shard::check_shard_count;
use std::process::ExitCode;
use std::sync::Arc;

struct CliArgs {
    params_file: Option<String>,
    scenario: Option<Scenario>,
    scale: ProblemScale,
    seed: Option<u64>,
    options: RunOptions,
    timesteps: Option<usize>,
    dump_tally: Option<String>,
    checkpoint: Option<String>,
    fault: Option<FaultPlan>,
    shards: Option<usize>,
    shard_fault: Option<ShardFaultPlan>,
}

fn scenario_catalogue() -> String {
    Scenario::ALL
        .iter()
        .map(|s| format!("  {:<18} {}\n", s.name(), s.description()))
        .collect()
}

fn parse_schedule(s: &str) -> Result<Schedule, String> {
    let (kind, arg) = match s.split_once(',') {
        Some((k, a)) => (k, Some(a)),
        None => (s, None),
    };
    let parse_n = |a: Option<&str>, default: usize| -> Result<usize, String> {
        a.map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad chunk `{v}`"))
        })
    };
    match kind {
        "static" => Ok(Schedule::Static {
            chunk: arg
                .map(|v| v.parse().map_err(|_| format!("bad chunk `{v}`")))
                .transpose()?,
        }),
        "dynamic" => Ok(Schedule::Dynamic {
            chunk: parse_n(arg, 64)?,
        }),
        "guided" => Ok(Schedule::Guided {
            min_chunk: parse_n(arg, 1)?,
        }),
        other => Err(format!("unknown schedule `{other}`")),
    }
}

fn parse_args() -> Result<CliArgs, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut params_file = None;
    let mut scenario = None;
    let mut scale_flag: Option<ProblemScale> = None;
    let mut seed = None;
    let mut options = RunOptions::default();
    let mut timesteps = None;
    let mut dump_tally = None;
    let mut checkpoint = None;
    let mut fault = None;
    let mut shards = None;
    let mut shard_fault = None;
    let mut threads: Option<usize> = None;
    let mut schedule: Option<Schedule> = None;
    let mut sequential = false;

    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scheme" => {
                i += 1;
                options.scheme = match argv.get(i).map(String::as_str) {
                    Some("op") => Scheme::OverParticles,
                    Some("oe") => Scheme::OverEvents,
                    other => return Err(format!("--scheme op|oe, got {other:?}")),
                };
            }
            "--threads" => {
                i += 1;
                let n: usize = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads N")?;
                if n == 0 {
                    return Err("--threads needs at least one thread".into());
                }
                threads = Some(n);
            }
            "--schedule" => {
                i += 1;
                schedule = Some(parse_schedule(argv.get(i).ok_or("--schedule ...")?)?);
            }
            "--lookup" => return Err(format!("--lookup: {LOOKUP_REMOVED}")),
            "--timesteps" => {
                i += 1;
                let n: usize = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--timesteps N")?;
                if n == 0 {
                    return Err("--timesteps needs at least one step".into());
                }
                timesteps = Some(n);
            }
            "--scenario" => {
                i += 1;
                let name = argv.get(i).ok_or("--scenario NAME (try --scenario help)")?;
                if name == "help" || name == "list" {
                    // A successful listing, not an error.
                    print!("scenario catalogue:\n{}", scenario_catalogue());
                    std::process::exit(0);
                }
                scenario = Some(Scenario::from_name(name)?);
            }
            "--scale" => {
                i += 1;
                scale_flag = match argv.get(i).map(String::as_str) {
                    Some("tiny") => Some(ProblemScale::tiny()),
                    Some("small") => Some(ProblemScale::small()),
                    Some("paper") => Some(ProblemScale::paper()),
                    other => return Err(format!("--scale tiny|small|paper, got {other:?}")),
                };
            }
            "--seed" => {
                i += 1;
                seed = Some(argv.get(i).and_then(|v| v.parse().ok()).ok_or("--seed N")?);
            }
            "--sequential" => sequential = true,
            "--dump-tally" => {
                i += 1;
                dump_tally = Some(argv.get(i).ok_or("--dump-tally FILE")?.clone());
            }
            "--checkpoint" => {
                i += 1;
                checkpoint = Some(argv.get(i).ok_or("--checkpoint FILE")?.clone());
            }
            "--fault" => {
                i += 1;
                fault = Some(
                    argv.get(i)
                        .ok_or("--fault SPEC (e.g. kill@2 or torn@1,bitflip@2)")?
                        .parse::<FaultPlan>()?,
                );
            }
            "--shards" => {
                i += 1;
                let n: usize = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--shards N")?;
                check_shard_count(n).map_err(|e| format!("--shards: {e}"))?;
                shards = Some(n);
            }
            "--shard-fault" => {
                i += 1;
                shard_fault = Some(
                    argv.get(i)
                        .ok_or("--shard-fault SPEC (e.g. kill@1 or hang@0:2,corrupt@1)")?
                        .parse::<ShardFaultPlan>()?,
                );
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            file => {
                if params_file.replace(file.to_owned()).is_some() {
                    return Err("more than one params file given".into());
                }
            }
        }
        i += 1;
    }

    if sequential {
        if threads.is_some() || schedule.is_some() {
            return Err(
                "--sequential is --threads 1; give it alone, not with --threads or --schedule"
                    .into(),
            );
        }
        options.execution = Execution::Sequential;
    } else if threads.is_some() || schedule.is_some() {
        let threads = threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        let schedule = schedule.unwrap_or(Schedule::Dynamic { chunk: 64 });
        options.execution = Execution::Scheduled { threads, schedule };
    }

    if params_file.is_some() && scenario.is_some() {
        return Err("give either a params file or --scenario, not both".into());
    }
    if params_file.is_some() && scale_flag.is_some() {
        // Silently ignoring --scale would run a different mesh than the
        // user asked for; a params file states its own nx/ny.
        return Err("--scale only applies to --scenario; the params file sets nx/ny".into());
    }

    Ok(CliArgs {
        params_file,
        scenario,
        scale: scale_flag.unwrap_or_else(ProblemScale::small),
        seed,
        options,
        timesteps,
        dump_tally,
        checkpoint,
        fault,
        shards,
        shard_fault,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Solve what the command line asks for; an `Err` is printed as
/// `error: …` and exits 1.
fn run(args: CliArgs) -> Result<(), String> {
    let mut params = match (&args.params_file, args.scenario) {
        (None, Some(scenario)) => {
            let seed = args.seed.unwrap_or(20_170_905);
            println!(
                "scenario: {} ({}; expected mix: {})",
                scenario.name(),
                scenario.description(),
                scenario.expected_mix()
            );
            scenario.params(args.scale, seed)
        }
        (None, None) => ProblemParams::default(),
        (Some(path), _) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            ProblemParams::parse(&text).map_err(|e| e.to_string())?
        }
    };
    if let Some(seed) = args.seed {
        // Reseed (not just overwrite): defaulted material-table seeds
        // follow the new master seed, exactly as if the file's `seed`
        // line had been edited.
        params.reseed(seed);
    }
    let mut problem = params.build();
    if let Some(timesteps) = args.timesteps {
        problem.n_timesteps = timesteps;
    }
    // CLI flags override the params file's shard keys.
    let shards = args.shards.unwrap_or(params.shards).max(1);
    let shard_fault_plan = args
        .shard_fault
        .clone()
        .unwrap_or_else(|| params.shard_fault.clone());
    let options = args.options;
    // CLI flags override the params file's checkpoint/fault keys.
    let checkpoint_path = args.checkpoint.clone().or(params.checkpoint_file.clone());
    if !shard_fault_plan.is_empty() && shards < 2 {
        return Err("--shard-fault requires --shards >= 2 (or a `shards` params key)".into());
    }
    println!(
        "neutral: {}x{} mesh, {} particles, {} material(s), {} timestep(s), dt {:.2e} s, seed {}",
        problem.mesh.nx(),
        problem.mesh.ny(),
        problem.n_particles,
        problem.materials.len(),
        problem.n_timesteps,
        problem.dt,
        problem.seed,
    );
    println!(
        "options: {:?}, lookup: {}, tally: {}, shards: {shards}",
        options,
        problem.transport.xs_search.name(),
        problem.transport.tally_strategy.name()
    );

    let fault_plan = args.fault.clone().unwrap_or(params.fault.clone());
    if !fault_plan.is_empty() && checkpoint_path.is_none() {
        return Err("--fault requires --checkpoint (or a `checkpoint_file` params key)".into());
    }

    let sim = Arc::new(Simulation::new(problem));
    let mut config = ShardConfig::new(shards);
    config.fault_plan = shard_fault_plan;
    let checkpointing = checkpoint_path.as_ref().map(|path| Checkpointing {
        store: CheckpointStore::new(path),
        every: 1,
        faults: fault_plan,
    });
    let path = checkpoint_path.as_deref().unwrap_or_default();
    let mut driver = Driver::open(Arc::clone(&sim), options, config, checkpointing)
        .map_err(|e| format!("checkpoint {path}: {e}"))?;
    match (&driver.resumed, &checkpoint_path) {
        (Some((step, Recovery::Primary)), _) => {
            println!("checkpoint: resumed from {path} at timestep {step}");
        }
        (Some((step, Recovery::Fallback { primary_error })), _) => println!(
            "checkpoint: primary invalid ({primary_error}); resumed from fallback at timestep {step}"
        ),
        (None, Some(_)) => println!("checkpoint: no prior state at {path}, fresh solve"),
        (None, None) => {}
    }
    if shards > 1 && checkpoint_path.is_some() {
        println!("shards: retry inputs spill to {path}.shard<k>");
    }
    match driver.run() {
        Err(DriveError::Killed(step)) => {
            println!(
                "checkpoint: injected kill after timestep {step}; \
                 rerun with --checkpoint {path} to resume"
            );
            return Ok(());
        }
        ran => ran.map_err(|e| e.to_string())?,
    }
    let stats = driver.solve().stats();
    if shards > 1 {
        let (attempts, retries, requeues) = (stats.attempts, stats.retries, stats.requeues);
        println!(
            "shards: {shards} shards, {attempts} attempts ({retries} retried, {requeues} requeued)"
        );
    }
    if stats.requeues > 0 {
        println!(
            "shards: recovered {} shard unit(s) via retry, bitwise identical",
            stats.requeues
        );
    }
    let report = driver.finish();
    println!("{}", report.summary());
    if report.counters.material_switches > 0 {
        println!(
            "materials: {} interface crossings across {} material(s)",
            report.counters.material_switches,
            sim.problem().materials.len()
        );
    }
    // A build computes the tables' energy grids; a solve fills the value
    // blocks it reads (DESIGN.md §4).
    let (filled, points) = sim
        .problem()
        .materials
        .libraries()
        .iter()
        .flat_map(|lib| [&lib.absorb, &lib.scatter])
        .fold((0, 0), |(filled, points), t| {
            (filled + t.points_filled(), points + t.len())
        });
    println!("tables: {filled} of {points} points filled");
    let balance = report.energy_balance();
    println!(
        "energy: source {:.4e} eV, deposited {:.4e} eV, residual {:.4e} eV, lost {:.4e} eV",
        balance.initial_ev,
        balance.deposited_ev,
        balance.census_residual_ev,
        balance.cutoff_residual_ev
    );
    if let Some(t) = report.kernel_timings {
        println!(
            "kernels (busy, summed over lanes): {} rounds; decide {:?}, collision {:?}, facet {:?}, tally {:?} ({:.0}%), census {:?}",
            t.rounds,
            t.decide,
            t.collision,
            t.facet,
            t.tally,
            100.0 * t.tally_fraction(),
            t.census
        );
    }

    if let Some(path) = args.dump_tally {
        let nx = sim.problem().mesh.nx();
        let file =
            std::fs::File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
        // The same dump format `GET /solves/:id/tallies` serves, so the
        // two are `cmp`-comparable for identical configs.
        let mut out = std::io::BufWriter::new(file);
        neutral_bench::serve_http::write_tally_dump(&report.tally, nx, &mut out)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("tally written to {path}");
    }
    Ok(())
}
