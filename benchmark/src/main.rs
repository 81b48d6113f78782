//! The repo benchmark: four workloads, end-to-end metrics and a traced
//! per-layer pass (see `README.md` in this directory and `BENCHMARK.json`).
//!
//! ```text
//! neutral-benchmark [--workload NAME] [--seed N] [--seconds S]
//!                   [--trace [0|1]] [--quick] [--write-reference]
//! neutral-benchmark compare A.json B.json
//! ```
//!
//! The process started by `run.sh` only orchestrates: it runs each workload
//! in a fresh child process (so `peak_rss_mb` is per workload), relays the
//! `workload metric value unit` lines, writes `out/results.json` (or
//! `out/layers.json` for `--trace 1`) and prints the result line the
//! benchmark contract asks for last.

mod check;
mod compare;
mod e2e;
mod host;
mod json;
mod metrics;
mod probes;
mod served;
mod spec;
mod stats;
mod trace;

use json::Value;
use spec::{Sizes, Workload, DEFAULT_SEED};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    write_reference: bool,
    child: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        quick: false,
        write_reference: false,
        child: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                let known = || Workload::ALL.map(Workload::name).join("|");
                let workload = Workload::from_name(&name)
                    .ok_or_else(|| format!("unknown workload `{name}` ({})", known()))?;
                args.workloads = vec![workload];
            }
            "--seed" => {
                args.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_owned())?;
            }
            "--seconds" => {
                args.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            // `--trace` alone (run.sh) or `--trace 0|1` (the driver).
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    i += 1;
                    args.trace = false;
                }
                Some("1") => {
                    i += 1;
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--quick" => args.quick = true,
            "--write-reference" => args.write_reference = true,
            "--child" => args.child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(args)
}

/// `benchmark/`: where `reference.json` lives and `out/` is written.
fn bench_dir() -> PathBuf {
    std::env::var_os("NEUTRAL_BENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn mode(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

/// Run one workload in this process and print its result line.
fn child(args: &Args, start: Instant) -> ExitCode {
    let workload = args.workloads[0];
    let dir = bench_dir();
    let work_dir = dir.join("out").join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("error: {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = e2e::RunCtx {
        workload,
        sizes: if args.quick {
            Sizes::quick()
        } else {
            Sizes::full()
        },
        seed: args.seed,
        workers: host::workers(),
        start,
        seconds: args.seconds,
        work_dir: work_dir.clone(),
    };
    let mut outcome = if args.trace {
        probes::run(&ctx, &dir.join("out"))
    } else {
        e2e::run(&ctx)
    };
    let _ = std::fs::remove_dir_all(&work_dir);

    // The committed reference pins the default seed's results.
    if !args.trace && !args.write_reference {
        match check::Reference::load(&dir.join("reference.json")) {
            Ok(reference) if reference.seed() == Some(args.seed) => {
                let want = reference.checksum(mode(args.quick), workload.name());
                outcome.gate.check(want == Some(outcome.checksum), || {
                    let pinned = want.map_or("nothing".to_owned(), |w| format!("{w:016x}"));
                    format!(
                        "reference.json pins {pinned}, this run produced {:016x}",
                        outcome.checksum
                    )
                });
            }
            Ok(_) => {}
            Err(e) => {
                outcome.gate.check(false, || e);
            }
        }
    }

    let gate = &outcome.gate;
    let failed_frac = gate.failed as f64 / gate.attempted.max(1) as f64;
    outcome.metrics.value(metrics::FAILED_FRAC, failed_frac);
    outcome.metrics.print(workload.name());
    for note in &gate.notes {
        println!("{} FAILED {note}", workload.name());
    }
    let line = json::obj([
        ("workload", json::string(workload.name())),
        ("correct", Value::Bool(gate.failed == 0)),
        ("attempted", json::num(gate.attempted.max(1) as f64)),
        ("failed", json::num(gate.failed as f64)),
        ("checksum", json::hex(outcome.checksum)),
        ("wall_clock_s", json::num(start.elapsed().as_secs_f64())),
        ("metrics", outcome.metrics.to_json()),
    ]);
    println!("{}", line.render());
    if gate.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Spawn this executable as the child for `workload`; relay its lines and
/// return its parsed result line.
fn run_child(args: &Args, workload: Workload) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    if args.write_reference {
        cmd.arg("--write-reference");
    }
    let mut process = cmd.spawn().map_err(|e| e.to_string())?;
    let stdout = process.stdout.take().expect("piped stdout");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = process.wait().map_err(|e| e.to_string())?;
    let result = json::parse(&last).map_err(|e| {
        format!(
            "{} ended ({status}) without a result line: {e}",
            workload.name()
        )
    })?;
    Ok(result)
}

/// The contract's view of a child's metrics: `{name: {value, unit}}`.
fn contract_metrics(result: &Value, prefix: &str) -> Vec<(String, Value)> {
    let metrics = result.get("metrics").map_or(&[][..], Value::fields);
    metrics
        .iter()
        .filter(|(name, _)| name != metrics::FAILED_FRAC)
        .map(|(name, m)| {
            let keep = |k: &'static str| (k, m.get(k).cloned().unwrap_or(Value::Null));
            (
                format!("{prefix}{name}"),
                json::obj([keep("value"), keep("unit")]),
            )
        })
        .collect()
}

fn write_reference(dir: &Path, args: &Args, results: &[Value]) -> Result<(), String> {
    let path = dir.join("reference.json");
    let old = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| json::parse(&t).ok());
    // This run's mode is re-pinned; the other mode's section is kept.
    let pinned = json::obj(results.iter().filter_map(|r| {
        Some((
            r.get("workload")?.as_str()?.to_owned(),
            r.get("checksum")?.clone(),
        ))
    }));
    let sections = ["full", "quick"].into_iter().filter_map(|m| {
        let section = if m == mode(args.quick) {
            pinned.clone()
        } else {
            old.as_ref()?.get(m)?.clone()
        };
        Some((m.to_owned(), section))
    });
    let mut fields = vec![("seed".to_owned(), json::num(args.seed as f64))];
    fields.extend(sections);
    std::fs::write(&path, Value::Obj(fields).render_pretty()).map_err(|e| e.to_string())
}

fn parent(args: &Args) -> ExitCode {
    let dir = bench_dir();
    let out_dir = dir.join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut results = Vec::new();
    for &workload in &args.workloads {
        match run_child(args, workload) {
            Ok(result) => results.push(result),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let file = if args.trace {
        "layers.json"
    } else {
        "results.json"
    };
    let document = json::obj([
        ("host", host::provenance(&dir)),
        ("seed", json::num(args.seed as f64)),
        ("seconds", json::num(args.seconds)),
        ("quick", Value::Bool(args.quick)),
        ("traced", Value::Bool(args.trace)),
        ("workloads", Value::Arr(results.clone())),
    ]);
    if let Err(e) = std::fs::write(out_dir.join(file), document.render_pretty()) {
        eprintln!("error: writing {file}: {e}");
        return ExitCode::FAILURE;
    }
    if args.write_reference {
        if args.seed != DEFAULT_SEED || args.trace || args.workloads.len() != Workload::ALL.len() {
            eprintln!("error: --write-reference pins all workloads at the default seed, untraced");
            return ExitCode::FAILURE;
        }
        if let Err(e) = write_reference(&dir, args, &results) {
            eprintln!("error: writing reference.json: {e}");
            return ExitCode::FAILURE;
        }
    }

    let count = |key: &str| -> f64 {
        results
            .iter()
            .filter_map(|r| r.get(key).and_then(Value::as_f64))
            .sum()
    };
    let correct = results
        .iter()
        .all(|r| r.get("correct").and_then(Value::as_bool) == Some(true));
    let single = results.len() == 1;
    let metrics: Vec<(String, Value)> = results
        .iter()
        .flat_map(|r| {
            let name = r.get("workload").and_then(Value::as_str).unwrap_or("");
            let prefix = if single {
                String::new()
            } else {
                format!("{name}.")
            };
            contract_metrics(r, &prefix)
        })
        .collect();
    let line = json::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", json::num(count("attempted"))),
        ("failed", json::num(count("failed"))),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", line.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("usage: neutral-benchmark compare A.json B.json");
                ExitCode::FAILURE
            }
        };
    }
    match parse_args(&argv) {
        Ok(args) if args.child => child(&args, start),
        Ok(args) => parent(&args),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
