//! HTTP surface of the solve service (`neutral_serve`, DESIGN.md §16).
//!
//! This module is the thin glue between the vendored `minihttp` server
//! and the solve registry in `neutral_core::registry` — routing,
//! request-grammar parsing, and JSON/text rendering live here; all
//! scheduling, coalescing and caching live in the registry.
//!
//! # API
//!
//! | Method & path             | Meaning                                        |
//! |---------------------------|------------------------------------------------|
//! | `POST /solves`            | submit a solve (body: request grammar below)   |
//! | `GET /solves/:id`         | progress snapshot (JSON)                       |
//! | `GET /solves/:id/tallies` | finished tally dump (`ix iy value` text)       |
//! | `DELETE /solves/:id`      | cancel (at the next census-boundary chunk)     |
//! | `GET /scenarios`          | the scenario catalogue (JSON)                  |
//! | `GET /stats`              | registry counters (JSON)                       |
//! | `GET /healthz`            | liveness probe                                 |
//!
//! # Request grammar
//!
//! The `POST /solves` body is line-oriented `key value` text (the same
//! shape as a params file; `#` comments and blank lines are skipped),
//! validated with line-numbered [`ParamsError`]s and the same `FromStr`
//! knob parsers the params/CLI layer uses:
//!
//! ```text
//! scenario csp              # required; GET /scenarios lists the catalogue
//! scale tiny                # tiny|small|paper (default small)
//! seed 42                   # default 20170905
//! timesteps 3               # optional override
//! lookup hashed             # binary|hinted|unionized|hashed
//! tally replicated          # the default (atomic resolves to replicated)
//! scheme oe                 # op|oe
//! checkpoint_file /tmp/s.ckpt   # optional spill (exclusive per live solve)
//! checkpoint_every 2        # boundaries between spills (default 1)
//! shards 4                  # fault-isolated shard units per timestep (default 1)
//! shard_fault kill@1        # injected shard failures (testing; needs shards >= 2)
//! ```
//!
//! Requests choose *physics and scheme*, never thread counts: the
//! service owns its worker configuration, and the bitwise-determinism
//! invariant guarantees the results are identical to any other worker
//! count — which is exactly what makes the fingerprint cache sound. The
//! contract is enforced in the library, not here: the registry passes
//! every submission through `resolve_deterministic` before fingerprinting
//! it (an `atomic` a single-thread service let through becomes
//! `replicated`). This edge only validates input: a multi-threaded
//! service refuses `tally atomic` with a 400 rather than silently serving
//! something else.

use minihttp::{Handler, Request, Response, Server, ServerHandle};
use neutral_core::params::ParamsError;
use neutral_core::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Service configuration (the `neutral_serve` CLI maps onto this).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Registry runner threads (concurrently-advancing solves).
    pub runners: usize,
    /// Lane-scheduler workers per timestep chunk.
    pub threads: usize,
    /// Per-chunk throttle (tests/demos; widens the polling window).
    pub chunk_delay: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            runners: 2,
            threads: 1,
            chunk_delay: None,
        }
    }
}

/// The solve service: a registry plus the HTTP request handler.
pub struct SolveService {
    registry: Registry,
    threads: usize,
}

impl SolveService {
    /// Start the registry runners.
    #[must_use]
    pub fn new(cfg: ServeConfig) -> Self {
        let threads = cfg.threads.max(1);
        Self {
            registry: Registry::new(RegistryConfig {
                runners: cfg.runners,
                chunk_delay: cfg.chunk_delay,
                ..Default::default()
            }),
            threads,
        }
    }

    /// The underlying registry (tests use its stats/wait directly).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The execution every solve chunk runs with.
    fn execution(&self) -> Execution {
        if self.threads <= 1 {
            Execution::Sequential
        } else {
            Execution::Scheduled {
                threads: self.threads,
                schedule: Schedule::Dynamic { chunk: 1 },
            }
        }
    }

    /// Route one request. Pure function of the request + registry state.
    #[must_use]
    pub fn handle(&self, req: &Request) -> Response {
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => Response::text(200, "ok\n"),
            ("GET", ["scenarios"]) => scenarios_response(),
            ("GET", ["stats"]) => stats_response(&self.registry.stats()),
            ("POST", ["solves"]) => self.submit(req),
            ("GET", ["solves", id]) => with_id(id, |id| self.status(id)),
            ("GET", ["solves", id, "tallies"]) => with_id(id, |id| self.tallies(id)),
            ("DELETE", ["solves", id]) => with_id(id, |id| self.cancel(id)),
            ("GET" | "POST" | "DELETE", _) => Response::text(404, "no such route\n"),
            _ => Response::text(405, "method not allowed\n"),
        }
    }

    fn submit(&self, req: &Request) -> Response {
        let spec = match parse_solve_request(&req.body_text()) {
            Ok(spec) => spec,
            Err(e) => return Response::text(400, format!("{e}\n")),
        };
        let submit = match build_submit(spec, self.threads, self.execution()) {
            Ok(s) => s,
            Err(e) => return Response::text(400, format!("{e}\n")),
        };
        match self.registry.submit(submit) {
            Ok(receipt) => {
                let status = self
                    .registry
                    .status(receipt.id)
                    .expect("submitted entry must exist");
                Response::json(
                    201,
                    format!(
                        "{{\"id\":{},\"admission\":\"{}\",{}}}",
                        receipt.id,
                        receipt.admission.name(),
                        status_fields(&status)
                    ),
                )
                .with_header("x-solve-id", &receipt.id.to_string())
            }
            Err(e @ SubmitError::CheckpointFileBusy { .. }) => {
                Response::text(409, format!("{e}\n"))
            }
            Err(e @ SubmitError::ShuttingDown) => Response::text(503, format!("{e}\n")),
        }
    }

    fn status(&self, id: u64) -> Response {
        match self.registry.status(id) {
            Some(status) => {
                Response::json(200, format!("{{\"id\":{id},{}}}", status_fields(&status)))
            }
            None => Response::text(404, format!("no solve {id}\n")),
        }
    }

    fn tallies(&self, id: u64) -> Response {
        let Some(status) = self.registry.status(id) else {
            return Response::text(404, format!("no solve {id}\n"));
        };
        if status.state != SolveState::Done {
            return Response::text(
                409,
                format!("solve {id} is {}, not done\n", status.state.name()),
            );
        }
        let report = self.registry.result(id).expect("done solve has a result");
        let mut out = Vec::with_capacity(report.tally.len() * 8);
        write_tally_dump(&report.tally, status.mesh_nx, &mut out)
            .expect("writing to a Vec cannot fail");
        Response::text(200, String::from_utf8(out).expect("dump is ASCII"))
    }

    fn cancel(&self, id: u64) -> Response {
        if self.registry.cancel(id) {
            return Response::json(200, format!("{{\"id\":{id},\"cancelled\":true}}"));
        }
        match self.registry.status(id) {
            Some(status) => Response::text(
                409,
                format!("solve {id} is already {}\n", status.state.name()),
            ),
            None => Response::text(404, format!("no solve {id}\n")),
        }
    }
}

/// Bind `addr` and serve `service` in background threads. The returned
/// handle owns the accept loop; dropping it shuts the listener down
/// (the registry keeps running until the service itself drops).
pub fn serve(service: Arc<SolveService>, addr: &str) -> std::io::Result<ServerHandle> {
    let server = Server::bind(addr)?;
    let handler: Handler = Arc::new(move |req: &Request| service.handle(req));
    Ok(server.spawn(handler))
}

/// The shared tally dump writer now lives beside the registry (the fuzz
/// suite's serve oracle uses it in-process); re-exported here for the
/// CLI and the end-to-end tests.
pub use neutral_core::registry::write_tally_dump;

/// A parsed `POST /solves` body.
#[derive(Debug)]
struct SolveSpec {
    scenario: Scenario,
    scale: ProblemScale,
    seed: u64,
    timesteps: Option<usize>,
    lookup: Option<LookupStrategy>,
    tally: Option<TallyStrategy>,
    scheme: Option<Scheme>,
    checkpoint_file: Option<String>,
    checkpoint_every: usize,
    shards: usize,
    shard_fault: ShardFaultPlan,
}

fn perr(line: usize, message: impl Into<String>) -> ParamsError {
    ParamsError {
        line,
        message: message.into(),
    }
}

fn parse_solve_request(text: &str) -> Result<SolveSpec, ParamsError> {
    let mut scenario = None;
    let mut scale = ProblemScale::small();
    let mut seed = 20_170_905u64;
    let mut timesteps = None;
    let mut lookup = None;
    let mut tally = None;
    let mut scheme = None;
    let mut checkpoint_file = None;
    let mut checkpoint_every = 1usize;
    let mut shards = 1usize;
    let mut shard_fault = ShardFaultPlan::default();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let key = it.next().expect("non-empty line has a first token");
        let rest: Vec<&str> = it.collect();
        if rest.len() != 1 {
            return Err(perr(lineno, format!("`{key}` takes exactly one value")));
        }
        let value = rest[0];
        let knob = |e: String| perr(lineno, e);
        match key {
            "scenario" => scenario = Some(Scenario::from_name(value).map_err(knob)?),
            "scale" => {
                scale = match value {
                    "tiny" => ProblemScale::tiny(),
                    "small" => ProblemScale::small(),
                    "paper" => ProblemScale::paper(),
                    other => {
                        return Err(perr(
                            lineno,
                            format!("scale tiny|small|paper, got `{other}`"),
                        ))
                    }
                }
            }
            "seed" => {
                seed = value
                    .parse()
                    .map_err(|_| perr(lineno, format!("`{value}` is not a valid seed")))?;
            }
            "timesteps" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| perr(lineno, format!("`{value}` is not a positive integer")))?;
                if n == 0 {
                    return Err(perr(lineno, "timesteps needs at least one step"));
                }
                timesteps = Some(n);
            }
            "lookup" => lookup = Some(value.parse::<LookupStrategy>().map_err(knob)?),
            "tally" => tally = Some(value.parse::<TallyStrategy>().map_err(knob)?),
            "scheme" => {
                scheme = Some(match value {
                    "op" => Scheme::OverParticles,
                    "oe" => Scheme::OverEvents,
                    other => return Err(perr(lineno, format!("scheme op|oe, got `{other}`"))),
                })
            }
            "shards" => {
                shards = value
                    .parse::<usize>()
                    .map_err(|_| perr(lineno, format!("`{value}` is not a positive integer")))?;
                if shards == 0 {
                    return Err(perr(lineno, "shards needs at least one shard"));
                }
            }
            "shard_fault" => shard_fault = value.parse::<ShardFaultPlan>().map_err(knob)?,
            "checkpoint_file" => checkpoint_file = Some(value.to_string()),
            "checkpoint_every" => {
                checkpoint_every = value
                    .parse::<usize>()
                    .map_err(|_| perr(lineno, format!("`{value}` is not a positive integer")))?
                    .max(1);
            }
            other => return Err(perr(lineno, format!("unknown key `{other}`"))),
        }
    }

    Ok(SolveSpec {
        scenario: scenario
            .ok_or_else(|| perr(0, "`scenario NAME` is required (GET /scenarios lists them)"))?,
        scale,
        seed,
        timesteps,
        lookup,
        tally,
        scheme,
        checkpoint_file,
        checkpoint_every,
        shards,
        shard_fault,
    })
}

/// Turn a parsed spec into a registry submission, enforcing the
/// determinism contract that makes the result cache sound.
fn build_submit(
    spec: SolveSpec,
    threads: usize,
    execution: Execution,
) -> Result<SubmitRequest, ParamsError> {
    let mut problem = spec.scenario.params(spec.scale, spec.seed).build();
    if let Some(lookup) = spec.lookup {
        problem.transport.xs_search = lookup;
    }
    if let Some(tally) = spec.tally {
        if tally == TallyStrategy::Atomic && threads > 1 {
            return Err(perr(
                0,
                "tally `atomic` is not deterministic on a multi-threaded service; \
                 use `replicated` (served results must be cacheable)",
            ));
        }
        problem.transport.tally_strategy = tally;
    }
    if let Some(timesteps) = spec.timesteps {
        problem.n_timesteps = timesteps;
    }
    let mut options = RunOptions {
        execution,
        ..RunOptions::default()
    };
    if let Some(scheme) = spec.scheme {
        options.scheme = scheme;
    }
    if !spec.shard_fault.is_empty() && spec.shards < 2 {
        return Err(perr(
            0,
            "`shard_fault` needs `shards` >= 2 (faults are injected per shard unit)",
        ));
    }
    // What the registry will run (and fingerprint): an `atomic` a
    // single-thread service let through resolves to the deterministic
    // configuration here, so the request already shows it.
    resolve_deterministic(&mut problem);
    let mut submit = SubmitRequest::new(problem, options);
    if let Some(path) = spec.checkpoint_file {
        submit = submit.checkpoint(path, spec.checkpoint_every);
    }
    if spec.shards > 1 {
        submit = submit.sharded(spec.shards, spec.shard_fault);
    }
    Ok(submit)
}

fn with_id(raw: &str, f: impl FnOnce(u64) -> Response) -> Response {
    match raw.parse::<u64>() {
        Ok(id) => f(id),
        Err(_) => Response::text(400, format!("`{raw}` is not a solve id\n")),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn status_fields(status: &SolveStatus) -> String {
    let error = match &status.state {
        SolveState::Failed(msg) => format!(",\"error\":\"{}\"", json_escape(msg)),
        _ => String::new(),
    };
    format!(
        "\"state\":\"{}\",\"steps_done\":{},\"n_timesteps\":{},\"fingerprint\":\"{:016x}\"{error}",
        status.state.name(),
        status.steps_done,
        status.n_timesteps,
        status.fingerprint,
    )
}

fn scenarios_response() -> Response {
    let items: Vec<String> = Scenario::ALL
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"description\":\"{}\",\"expected_mix\":\"{}\"}}",
                json_escape(s.name()),
                json_escape(s.description()),
                json_escape(s.expected_mix())
            )
        })
        .collect();
    Response::json(200, format!("[{}]", items.join(",")))
}

fn stats_response(stats: &RegistryStats) -> Response {
    Response::json(
        200,
        format!(
            "{{\"submitted\":{},\"coalesced\":{},\"cache_hits\":{},\"solves_started\":{},\
             \"chunks_run\":{},\"completed\":{},\"cancelled\":{},\"failed\":{},\
             \"shard_retries\":{},\"shard_requeues\":{}}}",
            stats.submitted,
            stats.coalesced,
            stats.cache_hits,
            stats.solves_started,
            stats.chunks_run,
            stats.completed,
            stats.cancelled,
            stats.failed,
            stats.shard_retries,
            stats.shard_requeues,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_grammar_errors_are_line_numbered() {
        let err = parse_solve_request("scenario csp\nscale huge\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"), "{err}");

        let err = parse_solve_request("lookup warp\n").unwrap_err();
        assert_eq!(err.line, 1);

        let err = parse_solve_request("seed 1 2\n").unwrap_err();
        assert!(err.to_string().contains("exactly one value"), "{err}");

        // The removed tally value is a 400 that names its replacement.
        let err = parse_solve_request("scenario csp\ntally privatized\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("`privatized` was removed"), "{err}");
        assert!(err.message.contains("use `replicated`"), "{err}");

        let err = parse_solve_request("# only a comment\n").unwrap_err();
        assert!(err.to_string().contains("scenario"), "{err}");
    }

    #[test]
    fn atomic_tally_is_rejected_multithreaded_only() {
        let spec = |text: &str| parse_solve_request(text).unwrap();
        let multi = Execution::Scheduled {
            threads: 4,
            schedule: Schedule::Dynamic { chunk: 1 },
        };
        let err =
            build_submit(spec("scenario csp\nscale tiny\ntally atomic\n"), 4, multi).unwrap_err();
        assert!(err.to_string().contains("atomic"), "{err}");
        // A single-thread service accepts the spelling; like every
        // submission it resolves to the deterministic configuration.
        let ok = build_submit(
            spec("scenario csp\nscale tiny\ntally atomic\n"),
            1,
            Execution::Sequential,
        )
        .unwrap();
        assert_eq!(
            ok.problem.transport.tally_strategy,
            TallyStrategy::Replicated
        );
        // Scenario defaults are deterministic already.
        let default = build_submit(spec("scenario csp\nscale tiny\n"), 4, multi).unwrap();
        assert_eq!(
            default.problem.transport.tally_strategy,
            TallyStrategy::Replicated
        );
    }

    #[test]
    fn shard_keys_parse_and_are_validated() {
        let spec = parse_solve_request("scenario csp\nshards 3\nshard_fault kill@1\n").unwrap();
        assert_eq!(spec.shards, 3);
        assert_eq!(spec.shard_fault.to_string(), "kill@1");

        let err = parse_solve_request("scenario csp\nshards 0\n").unwrap_err();
        assert!(err.to_string().contains("at least one shard"), "{err}");

        let err = parse_solve_request("scenario csp\nshard_fault explode@1\n").unwrap_err();
        assert!(err.to_string().contains("explode"), "{err}");

        // A fault plan without a shard split to inject into is an error.
        let err = build_submit(
            parse_solve_request("scenario csp\nscale tiny\nshard_fault kill@1\n").unwrap(),
            1,
            Execution::Sequential,
        )
        .unwrap_err();
        assert!(err.to_string().contains("shards"), "{err}");

        let submit = build_submit(
            parse_solve_request("scenario csp\nscale tiny\nshards 2\n").unwrap(),
            1,
            Execution::Sequential,
        )
        .unwrap();
        assert_eq!(submit.shards, 2);
    }

    #[test]
    fn tally_dump_matches_cli_format() {
        let tally = vec![0.0, 1.5, 0.0, 3.25e-7];
        let mut out = Vec::new();
        write_tally_dump(&tally, 2, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "1 0 1.5e0\n1 1 3.25e-7\n");
    }
}
