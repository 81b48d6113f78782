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
//! | `GET /stats`              | registry and table counters (JSON)             |
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
//! tally replicated          # the one value (atomic was removed)
//! scheme oe                 # op|oe
//! checkpoint_file s.ckpt   # optional, relative to the server; resumes its own checkpoint, 409 on another's
//! checkpoint_every 2        # boundaries between spills (>= 1, default 1)
//! shards 4                  # fault-isolated shard units per timestep (1..=32, default 1)
//! shard_fault kill@1        # injected shard failures (testing; needs shards >= 2)
//! ```
//!
//! Requests choose *physics and scheme*, never thread counts: the
//! service owns its worker configuration, and the bitwise-determinism
//! invariant guarantees the results are identical to any other worker
//! count — which is exactly what makes the fingerprint cache sound. The
//! contract holds by construction in the library: its one tally is the
//! deterministic lane fold. This edge only validates input: `tally
//! atomic`, like any removed value, is a 400 that names `replicated`;
//! the removed key `lookup` is a 400 with the params layer's one
//! message ([`neutral_core::params::LOOKUP_REMOVED`]).
//!
//! A `POST` is validated, then reduced to a canonical key (the
//! parameter set's fixpoint serialization plus the scheme) and handed to
//! [`Registry::submit_with`] with a closure that builds the problem: a
//! duplicate — in any key order, with or without comments — is admitted
//! from the registry's key → fingerprint memo and never builds.
//! `problems_built` in `/stats` counts the closures that ran.
//! `tables_built` and `tables_shared` count the process's material-table
//! builds ([`neutral_xs::table_stats`]): a closure whose material specs a
//! live solve already holds shares its tables instead of synthesizing
//! them (DESIGN.md §4). `table_points_filled` counts the table points
//! solves have read into being: a build computes only the energy grid,
//! and a table's values are filled a block at a time where read.

use minihttp::{Handler, Request, Response, Server, ServerHandle, TEXT_PLAIN};
use neutral_core::dump::tally_dump_capacity;
use neutral_core::params::{ParamsError, LOOKUP_REMOVED};
use neutral_core::prelude::*;
use neutral_core::shard::check_shard_count;
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

    /// Route one request. Pure function of the request + registry state.
    #[must_use]
    pub fn handle(&self, req: &Request) -> Response {
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => Response::text(200, "ok\n"),
            ("GET", ["scenarios"]) => scenarios_response(),
            ("GET", ["stats"]) => stats_response(&self.registry.stats(), neutral_xs::table_stats()),
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
        let (key, build) = match build_submit(spec, self.threads) {
            Ok(s) => s,
            Err(e) => return Response::text(400, format!("{e}\n")),
        };
        match self.registry.submit_with(&key, build) {
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
            Err(e @ (SubmitError::CheckpointFileBusy { .. } | SubmitError::Checkpoint { .. })) => {
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
        let mut out = Vec::with_capacity(tally_dump_capacity(&report.tally, status.mesh_nx));
        write_tally_dump(&report.tally, status.mesh_nx, &mut out)
            .expect("writing to a Vec cannot fail");
        // ASCII by construction: no UTF-8 validation pass over the body.
        Response::bytes(200, TEXT_PLAIN, out)
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

/// The shared tally dump writer lives in the library (the fuzz suite's
/// serve oracle uses it in-process); re-exported here for the CLI and
/// the end-to-end tests.
pub use neutral_core::dump::write_tally_dump;

/// A parsed `POST /solves` body.
#[derive(Debug)]
struct SolveSpec {
    scenario: Scenario,
    scale: ProblemScale,
    seed: u64,
    timesteps: Option<usize>,
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
        // Refused whatever follows it, as the params key and the CLI flag are.
        if key == "lookup" {
            return Err(perr(lineno, LOOKUP_REMOVED));
        }
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
            // One value left: validated, then nothing to override.
            "tally" => {
                value.parse::<TallyStrategy>().map_err(knob)?;
            }
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
                check_shard_count(shards).map_err(knob)?;
            }
            "shard_fault" => shard_fault = value.parse::<ShardFaultPlan>().map_err(knob)?,
            "checkpoint_file" => {
                check_relative_name(value).map_err(knob)?;
                checkpoint_file = Some(value.to_string());
            }
            "checkpoint_every" => {
                checkpoint_every = value
                    .parse::<usize>()
                    .map_err(|_| perr(lineno, format!("`{value}` is not a positive integer")))?;
                if checkpoint_every == 0 {
                    return Err(perr(lineno, "checkpoint_every needs at least one step"));
                }
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
        scheme,
        checkpoint_file,
        checkpoint_every,
        shards,
        shard_fault,
    })
}

/// A POSTed `checkpoint_file` names a file under the server's working
/// directory: a relative path whose every `/`-separated component is a
/// plain name. An absolute path, `.`, `..` or an empty component is
/// refused, so a client cannot write elsewhere, and one file has one
/// spelling — the registry's one-live-solve-per-file check compares
/// paths as written.
fn check_relative_name(path: &str) -> Result<(), String> {
    if path
        .split('/')
        .all(|part| !part.is_empty() && part != "." && part != "..")
    {
        Ok(())
    } else {
        Err(format!(
            "checkpoint_file `{path}` must be a relative path of plain names \
             (no leading `/`, no `.` or `..`, no empty component)"
        ))
    }
}

/// Validate a parsed spec and turn it into a keyed registry submission:
/// the memo key ([`Registry::submit_with`]) and the closure that builds
/// the problem when the registry has not seen the key. Every override is
/// a [`neutral_core::params::ProblemParams`] field, so the key — the
/// parameter set's fixpoint serialization plus the scheme — is known
/// before anything is built; `checkpoint_file` and `shards` stay out of
/// it as they stay out of the fingerprint, and so does the service's
/// worker count `threads`, which every chunk runs on. Validation comes
/// first: a bad request is a 400 whatever the memo holds.
fn build_submit(
    spec: SolveSpec,
    threads: usize,
) -> Result<(String, impl FnOnce() -> SubmitRequest), ParamsError> {
    let mut params = spec.scenario.params(spec.scale, spec.seed);
    if let Some(timesteps) = spec.timesteps {
        params.timesteps = timesteps;
    }
    let options = RunOptions::new(spec.scheme.unwrap_or_default(), threads);
    if !spec.shard_fault.is_empty() && spec.shards < 2 {
        return Err(perr(
            0,
            "`shard_fault` needs `shards` >= 2 (faults are injected per shard unit)",
        ));
    }
    let key = format!("{}scheme {:?}\n", params.to_params_text(), options.scheme);
    let build = move || {
        let mut submit = SubmitRequest::new(params.build(), options);
        if let Some(path) = spec.checkpoint_file {
            submit = submit.checkpoint(path, spec.checkpoint_every);
        }
        if spec.shards > 1 {
            submit = submit.sharded(spec.shards, spec.shard_fault);
        }
        submit
    };
    Ok((key, build))
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
    let mut extra = match &status.state {
        SolveState::Failed(msg) => format!(",\"error\":\"{}\"", json_escape(msg)),
        _ => String::new(),
    };
    if let Some(step) = status.resumed_from {
        extra.push_str(&format!(",\"resumed_from\":{step}"));
    }
    format!(
        "\"state\":\"{}\",\"steps_done\":{},\"n_timesteps\":{},\"fingerprint\":\"{:016x}\"{extra}",
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

fn stats_response(stats: &RegistryStats, tables: neutral_xs::TableStats) -> Response {
    Response::json(
        200,
        format!(
            "{{\"submitted\":{},\"coalesced\":{},\"cache_hits\":{},\"solves_started\":{},\
             \"problems_built\":{},\"tables_built\":{},\"tables_shared\":{},\
             \"table_points_filled\":{},\
             \"chunks_run\":{},\"completed\":{},\"cancelled\":{},\"failed\":{},\
             \"shard_retries\":{},\"shard_requeues\":{}}}",
            stats.submitted,
            stats.coalesced,
            stats.cache_hits,
            stats.solves_started,
            stats.problems_built,
            tables.built,
            tables.shared,
            tables.points_filled,
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

        let err = parse_solve_request("seed 1 2\n").unwrap_err();
        assert!(err.to_string().contains("exactly one value"), "{err}");

        // The removed tally value is a 400 that names its replacement.
        let err = parse_solve_request("scenario csp\ntally privatized\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("`privatized` was removed"), "{err}");
        assert!(err.message.contains("use `replicated`"), "{err}");

        // The removed `lookup` key, whatever its value, is a 400 with the
        // params layer's one message.
        let service = SolveService::new(ServeConfig::default());
        for value in ["binary", "hinted", "hashed", "warp", "", "hinted binary"] {
            let body = format!("scenario csp\nscale tiny\nlookup {value}\n");
            let err = parse_solve_request(&body).unwrap_err();
            assert_eq!((err.line, err.message.as_str()), (3, LOOKUP_REMOVED));
            let response = post(&service, &body);
            assert_eq!(response.status, 400);
            assert_eq!(response.body, format!("{err}\n").into_bytes());
        }

        let err = parse_solve_request("# only a comment\n").unwrap_err();
        assert!(err.to_string().contains("scenario"), "{err}");
    }

    /// Parse `text`, validate it for a service of `threads`, and run the
    /// build closure: the memo key and what the registry would be handed.
    fn built(text: &str, threads: usize) -> Result<(String, SubmitRequest), ParamsError> {
        let (key, build) = build_submit(parse_solve_request(text)?, threads)?;
        Ok((key, build()))
    }

    /// `tally atomic` is refused by name whatever the service's width;
    /// `replicated` and an absent key build the same request.
    #[test]
    fn atomic_tally_is_rejected_at_any_width() {
        for threads in [1, 4] {
            let err = built("scenario csp\nscale tiny\ntally atomic\n", threads).unwrap_err();
            assert_eq!(err.line, 3);
            assert!(err.message.contains("`atomic` was removed"), "{err}");
            let (key, _) = built("scenario csp\nscale tiny\ntally replicated\n", threads).unwrap();
            assert_eq!(key, built("scenario csp\nscale tiny\n", threads).unwrap().0);
        }
    }

    /// A POSTed checkpoint path is a relative path of plain names: one
    /// spelling per file, under the server's directory.
    #[test]
    fn checkpoint_keys_are_validated() {
        for ok in ["s.ckpt", "runs/s.ckpt", "..s.ckpt"] {
            let spec = parse_solve_request(&format!("scenario csp\ncheckpoint_file {ok}\n"));
            assert_eq!(spec.unwrap().checkpoint_file.as_deref(), Some(ok));
        }
        for bad in [
            "/tmp/s.ckpt",
            "/",
            "../s.ckpt",
            "runs/../s.ckpt",
            "./s.ckpt",
            "runs//s.ckpt",
            "runs/",
        ] {
            let err =
                parse_solve_request(&format!("scenario csp\ncheckpoint_file {bad}\n")).unwrap_err();
            assert_eq!(err.line, 2, "{bad}");
            assert!(
                err.message.starts_with(&format!("checkpoint_file `{bad}`")),
                "{err}"
            );
        }
        let spec = parse_solve_request("scenario csp\ncheckpoint_every 3\n").unwrap();
        assert_eq!(spec.checkpoint_every, 3);
        let err = parse_solve_request("scenario csp\ncheckpoint_every 0\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            err.message
                .contains("checkpoint_every needs at least one step"),
            "{err}"
        );
    }

    #[test]
    fn shard_keys_parse_and_are_validated() {
        let spec = parse_solve_request("scenario csp\nshards 3\nshard_fault kill@1\n").unwrap();
        assert_eq!(spec.shards, 3);
        assert_eq!(spec.shard_fault.to_string(), "kill@1");

        let err = parse_solve_request("scenario csp\nshards 0\n").unwrap_err();
        assert!(err.to_string().contains("at least one shard"), "{err}");

        // One shard per lane at most: a shard past the 32nd lane owns
        // nothing, and 2^40 of them would be stepped (and allocated for)
        // every timestep. Refused by line, as a 400, before any build.
        let spec = parse_solve_request("scenario csp\nshards 32\n").unwrap();
        assert_eq!(spec.shards, 32);
        let service = SolveService::new(ServeConfig::default());
        for n in ["33", "1099511627776"] {
            let body = format!("scenario csp\nscale tiny\nshards {n}\n");
            let err = parse_solve_request(&body).unwrap_err();
            assert_eq!(err.line, 3, "{n}");
            assert!(
                err.message
                    .starts_with(&format!("{n} shards is more than the 32 lanes")),
                "{err}"
            );
            let response = post(&service, &body);
            assert_eq!(response.status, 400, "{n}");
            assert_eq!(response.body, format!("{err}\n").into_bytes());
        }
        assert_eq!(service.registry().stats().problems_built, 0);

        let err = parse_solve_request("scenario csp\nshard_fault explode@1\n").unwrap_err();
        assert!(err.to_string().contains("explode"), "{err}");

        // A fault plan without a shard split to inject into is an error.
        let err = built("scenario csp\nscale tiny\nshard_fault kill@1\n", 1).unwrap_err();
        assert!(err.to_string().contains("shards"), "{err}");

        let (key, submit) = built("scenario csp\nscale tiny\nshards 2\n", 1).unwrap();
        assert_eq!(submit.shards, 2);
        // Bitwise-free execution detail: not part of the key.
        assert_eq!(key, built("scenario csp\nscale tiny\n", 1).unwrap().0);
    }

    /// The request grammar names a scenario, never its geometry or
    /// energies, so the values a params file refuses as unbuildable
    /// (`width inf`, `nx 100000000000`, `initial_energy inf`) reach the
    /// service only as unknown keys: a line-numbered 400, before any
    /// build.
    #[test]
    fn unbuildable_values_are_400s_before_any_build() {
        let service = SolveService::new(ServeConfig::default());
        for line in ["width inf", "nx 100000000000", "initial_energy inf"] {
            let body = format!("scenario csp\nscale tiny\n{line}\n");
            let err = parse_solve_request(&body).unwrap_err();
            assert_eq!(err.line, 3, "{line}");
            let key = line.split(' ').next().unwrap();
            assert_eq!(err.message, format!("unknown key `{key}`"));
            let response = post(&service, &body);
            assert_eq!(response.status, 400, "{line}");
            assert_eq!(response.body, format!("{err}\n").into_bytes());
        }
        assert_eq!(service.registry().stats().problems_built, 0);
    }

    /// Equal keys must mean equal content addresses — the memo's whole
    /// soundness condition — over generated request bodies: every
    /// scenario, both schemes, a timesteps override and the tally, each
    /// key either absent or explicit.
    #[test]
    fn equal_memo_keys_mean_equal_fingerprints() {
        use neutral_core::fuzz::Gen;
        use std::collections::HashMap;
        let g = &mut Gen::new(24);
        let mut seen: HashMap<String, u64> = HashMap::new();
        let mut repeats = 0;
        for case in 0..96 {
            // Scenarios in rotation so each is covered; the rest drawn.
            let scenario = Scenario::ALL[case % Scenario::ALL.len()];
            let mut body = format!("scenario {}\nscale tiny\n", scenario.name());
            for (key, values) in [
                ("scheme", &["op", "oe"][..]),
                ("timesteps", &["1", "2"]),
                ("tally", &["replicated"]),
            ] {
                if g.chance(0.6) {
                    body += &format!("{key} {}\n", g.pick(values));
                }
            }
            let (key, submit) = built(&body, 1).unwrap();
            let fingerprint = config_fingerprint(&submit.problem, submit.options.scheme);
            if let Some(earlier) = seen.insert(key, fingerprint) {
                assert_eq!(earlier, fingerprint, "case {case}:\n{body}");
                repeats += 1;
            }
        }
        assert!(repeats >= 10, "only {repeats} keys were drawn twice");
    }

    #[test]
    fn respelt_bodies_share_a_key_and_the_scheme_does_not() {
        let key = |text: &str| built(text, 1).unwrap().0;
        let plain = key("scenario csp\nscale tiny\ntimesteps 2\n");
        for respelt in [
            "scale tiny\ntimesteps 2\nscenario csp\n",
            "# a comment\n\nscenario csp   # trailing\n\nscale tiny\ntimesteps 2\n",
            "scenario csp\nscale tiny\ntimesteps 2\nseed 20170905\nscheme op\n",
            "scenario csp\nscale tiny\ntimesteps 9\ntimesteps 2\ncheckpoint_every 3\n",
        ] {
            assert_eq!(key(respelt), plain, "{respelt}");
        }
        for other in [
            "scenario csp\nscale tiny\ntimesteps 2\nscheme oe\n",
            "scenario csp\nscale tiny\ntimesteps 2\nseed 1\n",
            "scenario csp\nscale tiny\n",
        ] {
            assert_ne!(key(other), plain, "{other}");
        }
    }

    fn post(service: &SolveService, body: &str) -> Response {
        service.handle(&Request {
            method: "POST".into(),
            path: "/solves".into(),
            query: String::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        })
    }

    /// POST `body`, require a 201 and return `(id, admission)`.
    fn admitted(service: &SolveService, body: &str) -> (u64, String) {
        let response = post(service, body);
        let text = String::from_utf8(response.body).unwrap();
        assert_eq!(response.status, 201, "{text}");
        let admission = text.split("\"admission\":\"").nth(1).unwrap();
        let admission = admission.split('"').next().unwrap().to_owned();
        let id = response.headers.iter().find(|(n, _)| n == "x-solve-id");
        (id.unwrap().1.parse().unwrap(), admission)
    }

    #[test]
    fn duplicate_post_is_a_hit_that_builds_nothing() {
        let service = SolveService::new(ServeConfig::default());
        let registry = service.registry();
        let body = "scenario csp\nscale tiny\nseed 5\ntally replicated\n";
        let (id, admission) = admitted(&service, body);
        assert_eq!(admission, "fresh");
        registry.wait(id).unwrap();
        assert_eq!(registry.stats().problems_built, 1);

        let respelt = "tally replicated\n# same solve\nseed 5\nscale tiny\nscenario csp\n";
        for duplicate in [body, respelt] {
            assert_eq!(admitted(&service, duplicate), (id, "cache_hit".to_owned()));
        }
        assert_eq!(registry.stats().problems_built, 1);

        // PR 17's case, through the memo: the other scheme is another solve.
        let (oe, admission) = admitted(&service, &format!("{body}scheme oe\n"));
        assert_eq!(admission, "fresh");
        assert_ne!(oe, id);
        let stats = registry.stats();
        assert_eq!((stats.problems_built, stats.solves_started), (2, 2));
        let tables = neutral_xs::table_stats();
        let stats_json = String::from_utf8(stats_response(&stats, tables).body).unwrap();
        assert!(stats_json.contains("\"problems_built\":2"), "{stats_json}");
    }

    #[test]
    fn primed_memo_does_not_let_a_bad_request_through() {
        let multi = || {
            SolveService::new(ServeConfig {
                threads: 2,
                ..ServeConfig::default()
            })
        };
        let good = "scenario csp\nscale tiny\nseed 6\n";
        let bad = [
            format!("{good}tally atomic\n"),
            format!("{good}shard_fault kill@1\n"),
        ];
        let unprimed = multi();
        let primed = multi();
        let (id, _) = admitted(&primed, good);
        primed.registry().wait(id).unwrap();
        for body in &bad {
            let (cold, warm) = (post(&unprimed, body), post(&primed, body));
            assert_eq!(cold.status, 400);
            assert_eq!((warm.status, &warm.body), (400, &cold.body));
        }
        assert_eq!(primed.registry().stats().submitted, 1);
    }

    /// `serve_mix`-shaped traffic: cold bodies with unique seeds, each
    /// duplicate sent after its original's POST was answered. Only the
    /// cold ones build.
    #[test]
    fn duplicates_after_their_originals_build_nothing() {
        let service = SolveService::new(ServeConfig::default());
        let mut ids = Vec::new();
        for k in 0..12u64 {
            let scenario = ["csp", "stream", "fuel_lattice", "core_escape"][k as usize % 4];
            let body = format!("scenario {scenario}\nscale tiny\nseed {k}\ntally replicated\n");
            let (id, admission) = admitted(&service, &body);
            assert_eq!(admission, "fresh");
            let (again, admission) = admitted(&service, &body);
            assert_eq!(again, id);
            assert!(matches!(admission.as_str(), "coalesced" | "cache_hit"));
            ids.push(id);
        }
        let stats = service.registry().stats();
        assert_eq!(stats.problems_built, 12);
        assert_eq!(stats.problems_built, stats.solves_started);
        assert_eq!(stats.coalesced + stats.cache_hits, 12);
        for id in ids {
            service.registry().wait(id).unwrap();
        }
    }

    #[test]
    fn tally_dump_matches_cli_format() {
        let tally = vec![0.0, 1.5, 0.0, 3.25e-7];
        let mut out = Vec::new();
        write_tally_dump(&tally, 2, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "1 0 1.5e0\n1 1 3.25e-7\n");
    }
}
