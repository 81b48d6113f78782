//! Generative differential fuzzer over the scenario space
//! (DESIGN.md §17).
//!
//! Samples deterministic random workloads with `neutral_core::fuzz` and
//! checks every one against the six physics oracles (conservation,
//! cross-driver agreement, worker invariance, checkpoint round-trip,
//! serve==direct, shard invariance). A failing case is minimized with
//! the shrinker and written next to the working directory as a replayable
//! `fuzz_failure_<seed>_<index>.params` file.
//!
//! ```text
//! neutral_fuzz --seed 20170905 --cases 25 --quick   # CI smoke
//! neutral_fuzz --seed 1 --cases 500 --budget 50000000   # soak
//! neutral_fuzz --replay tests/corpus                # corpus replay
//! neutral_fuzz --seed 7 --cases 40 --emit-corpus tests/corpus
//! ```
//!
//! Fully deterministic: the same `--seed/--cases/--quick` triple yields
//! the same cases and the same verdicts on every run and machine.

use neutral_core::fuzz::{
    generate_with, run_case, shrink, shrink_with_axes, CaseOutcome, FuzzCase, FuzzProfile,
    ShrinkAxis,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct CliArgs {
    seed: u64,
    cases: u64,
    quick: bool,
    /// Stop generating once cumulative transport events exceed this.
    budget: Option<u64>,
    /// Replay a `.params` file or a directory of them instead of
    /// generating.
    replay: Option<PathBuf>,
    /// After a green generated run, write shrunk corpus entries here.
    emit_corpus: Option<PathBuf>,
}

const USAGE: &str = "\
usage: neutral_fuzz [--seed N] [--cases N] [--quick] [--budget EVENTS]
                    [--replay FILE_OR_DIR] [--emit-corpus DIR]";

fn parse_args() -> Result<CliArgs, String> {
    let mut args = CliArgs {
        seed: 20_170_905,
        cases: 50,
        quick: false,
        budget: None,
        replay: None,
        emit_corpus: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--cases" => {
                args.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?;
            }
            "--quick" => args.quick = true,
            "--budget" => {
                args.budget = Some(
                    value("--budget")?
                        .parse()
                        .map_err(|e| format!("--budget: {e}"))?,
                );
            }
            "--replay" => args.replay = Some(PathBuf::from(value("--replay")?)),
            "--emit-corpus" => args.emit_corpus = Some(PathBuf::from(value("--emit-corpus")?)),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn describe(case: &FuzzCase) -> String {
    let p = &case.params;
    format!(
        "{}x{} mesh, {} particles, {} steps, {} mats, {} regions, {} driver",
        p.nx,
        p.ny,
        p.particles,
        p.timesteps,
        p.material_count(),
        p.regions.len(),
        case.driver.name()
    )
}

fn report_outcome(case: &FuzzCase, outcome: &CaseOutcome) {
    if outcome.passed() {
        println!(
            "PASS {label}: {desc} — {events} events",
            label = case.label,
            desc = describe(case),
            events = outcome.events
        );
    } else {
        println!(
            "FAIL {label}: {desc}",
            label = case.label,
            desc = describe(case)
        );
        for f in &outcome.failures {
            println!("  [{}] {}", f.oracle.name(), f.detail);
        }
    }
}

/// Replay one params file; returns whether it passed.
fn replay_file(path: &Path) -> Result<bool, String> {
    let label = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("corpus")
        .to_owned();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let case = FuzzCase::from_params_text(&label, &text)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let outcome = run_case(&case);
    report_outcome(&case, &outcome);
    Ok(outcome.passed())
}

fn replay(target: &Path) -> Result<bool, String> {
    let mut files: Vec<PathBuf> = if target.is_dir() {
        std::fs::read_dir(target)
            .map_err(|e| format!("{}: {e}", target.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "params"))
            .collect()
    } else {
        vec![target.to_path_buf()]
    };
    if files.is_empty() {
        return Err(format!("no .params files under {}", target.display()));
    }
    files.sort();
    let mut all_green = true;
    for file in &files {
        all_green &= replay_file(file)?;
    }
    println!(
        "replayed {} corpus case(s): {}",
        files.len(),
        if all_green { "all green" } else { "FAILURES" }
    );
    Ok(all_green)
}

/// Shrink a failing case (predicate: the oracle battery still fails)
/// and write it as a replayable repro file.
fn emit_failure(seed: u64, index: u64, case: &FuzzCase) -> Result<PathBuf, String> {
    let minimal = shrink(case, |c| !run_case(c).passed());
    let path = PathBuf::from(format!("fuzz_failure_{seed}_{index}.params"));
    std::fs::write(&path, minimal.to_params_text())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Minimize a passing case along the size-only axes (keeping its
/// driver/knob/material diversity) while it still passes and still
/// exercises real transport, then write it as a corpus entry.
fn emit_corpus_entry(dir: &Path, case: &FuzzCase) -> Result<PathBuf, String> {
    let keeps_coverage = |c: &FuzzCase| {
        let o = run_case(c);
        o.passed() && o.collisions > 0 && o.facets > 0
    };
    let minimal = shrink_with_axes(case, &ShrinkAxis::SIZE, keeps_coverage, 60);
    let name = format!("{}.params", minimal.label.replace('/', "_"));
    let path = dir.join(name);
    std::fs::write(&path, minimal.to_params_text())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some(target) = &args.replay {
        return replay(target);
    }

    let profile = if args.quick {
        FuzzProfile::quick()
    } else {
        FuzzProfile::default()
    };
    let mut failures = Vec::new();
    let mut greens = Vec::new();
    let mut total_events: u64 = 0;
    for index in 0..args.cases {
        if let Some(budget) = args.budget {
            if total_events >= budget {
                println!(
                    "budget: {total_events} events after {index} cases (limit {budget}); stopping"
                );
                break;
            }
        }
        let case = generate_with(args.seed, index, profile);
        let outcome = run_case(&case);
        total_events += outcome.events;
        report_outcome(&case, &outcome);
        if outcome.passed() {
            greens.push(case);
        } else {
            let path = emit_failure(args.seed, index, &case)?;
            println!("  shrunk repro written to {}", path.display());
            failures.push(case.label.clone());
        }
    }

    if failures.is_empty() {
        if let Some(dir) = &args.emit_corpus {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            for case in &greens {
                let path = emit_corpus_entry(dir, case)?;
                println!("corpus entry {}", path.display());
            }
        }
        println!(
            "fuzz: {} case(s) green, {total_events} events total",
            greens.len()
        );
        Ok(true)
    } else {
        println!("fuzz: {} FAILING case(s): {:?}", failures.len(), failures);
        Ok(false)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("neutral_fuzz: {msg}");
            ExitCode::FAILURE
        }
    }
}
