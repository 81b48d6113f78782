//! The `serve_mix` traffic: the seeded request list and the closed-loop
//! client that drives it against an in-process `SolveService` over real
//! sockets.
//!
//! Closed loop, because the service's callers each wait for their reply: a
//! client sends its next request only when the previous one's tally bytes
//! are in hand, one connection at a time.

use crate::check::{bytes_checksum, Gate};
use crate::json;
use crate::spec::{splitmix64, DEFAULT_SEED};
use crate::trace::Tracer;
use minihttp::client;
use neutral_bench::serve_http::{serve, ServeConfig, SolveService};
use neutral_core::prelude::*;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Served at `scale tiny`; between them they cover facet-dominated,
/// collision-dominated, multi-material and dead-lane-heavy solves.
pub const SCENARIOS: [&str; 4] = ["csp", "stream", "fuel_lattice", "core_escape"];

/// Every this-many-th cold response is compared with a direct
/// `Simulation::run`.
pub const DIRECT_CHECK_EVERY: usize = 20;

/// One entry of the request list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    pub body: String,
    pub scenario: &'static str,
    pub solve_seed: u64,
    /// `None` = a cold request (first of its body); `Some(i)` = a duplicate
    /// of the entry at list index `i`.
    pub duplicate_of: Option<usize>,
}

/// List entries per round of the request list: one cold request of each
/// scenario, each followed by a duplicate.
pub const ROUND: usize = 2 * SCENARIOS.len();

/// `n_cold` cold requests interleaved one-to-one with `n_cold` duplicates
/// of earlier bodies. The list is dealt in rounds: each round holds one
/// cold request of every scenario, in a shuffled order, and each cold
/// request is directly followed by a duplicate of a body drawn uniformly
/// from the cold requests *of its scenario* so far (itself included). So a
/// duplicate always comes after its original, and any run of whole rounds
/// — the first half of the list, a block of five rounds — has the same mix
/// of scenarios, cold and duplicate alike. Solve seeds are unique by
/// construction (list position in the low bits).
pub fn request_list(seed: u64, n_cold: usize) -> Vec<Entry> {
    assert!(
        n_cold < 1 << 12,
        "solve seeds keep 12 bits for the position"
    );
    let mut rng = seed ^ 0x5e47_ed11_57c0_1d00;
    let mut deal: Vec<usize> = (0..n_cold).map(|k| k % SCENARIOS.len()).collect();
    for round in deal.chunks_mut(SCENARIOS.len()) {
        for k in (1..round.len()).rev() {
            round.swap(k, (splitmix64(&mut rng) % (k as u64 + 1)) as usize);
        }
    }
    let seed_base = (splitmix64(&mut rng) >> 24) << 12;

    let mut list: Vec<Entry> = Vec::with_capacity(2 * n_cold);
    // List indices of the cold entries so far, per scenario.
    let mut cold_at: [Vec<usize>; SCENARIOS.len()] = Default::default();
    for (k, &scenario_ix) in deal.iter().enumerate() {
        let scenario = SCENARIOS[scenario_ix];
        let solve_seed = seed_base | k as u64;
        let earlier = &mut cold_at[scenario_ix];
        earlier.push(list.len());
        list.push(Entry {
            body: format!("scenario {scenario}\nscale tiny\nseed {solve_seed}\ntally replicated\n"),
            scenario,
            solve_seed,
            duplicate_of: None,
        });
        let original = earlier[(splitmix64(&mut rng) % earlier.len() as u64) as usize];
        let mut duplicate = list[original].clone();
        duplicate.duplicate_of = Some(original);
        list.push(duplicate);
    }
    list
}

/// What one served op measured, client side.
#[derive(Clone, Debug, Default)]
pub struct OpSample {
    /// Index into the request list.
    pub index: usize,
    /// Seconds since the pass started at which the op began and ended.
    pub started_s: f64,
    pub ended_s: f64,
    /// `total_events()` of the solve a cold op started (0 for a duplicate).
    pub events: u64,
    pub wall: Duration,
    pub submit: Duration,
    pub poll_wait: Duration,
    pub fetch: Duration,
    pub polls: u32,
    /// Solve id the service answered with (0 on failure).
    pub solve_id: u64,
    pub admission: String,
    pub body_checksum: u64,
    /// The tally body itself, kept only for direct-run checks.
    pub body: Option<Vec<u8>>,
    /// Transport or non-2xx failure description.
    pub error: Option<String>,
}

/// A running in-process service bound to an ephemeral port.
pub struct Service {
    pub service: Arc<SolveService>,
    handle: minihttp::ServerHandle,
}

impl Service {
    /// Start the registry runners and the accept loop.
    pub fn start(runners: usize) -> Self {
        let service = Arc::new(SolveService::new(ServeConfig {
            runners,
            threads: 1,
            chunk_delay: None,
        }));
        let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind 127.0.0.1:0");
        Self { service, handle }
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }
}

/// The served workload's set-up path — a cold start: service start, bind,
/// first `/healthz` 200, and the first request's round trip to its tally
/// bytes (a fixed csp `tiny` solve). Start-to-healthz alone is 0.4 ms of
/// thread spawns that reads 0.35 ms in one run and 0.50 ms in the next; the
/// first solve makes it ~10 ms of mostly deterministic work, and anything a
/// later change moves into service start still lands in it. Returns the
/// service so the caller drops it outside the timer.
pub fn cold_start(runners: usize) -> Result<Service, String> {
    let service = Service::start(runners);
    let addr = service.addr();
    let r = client::request(addr, "GET", "/healthz", None).map_err(|e| e.to_string())?;
    if r.status != 200 {
        return Err(format!("/healthz answered {}", r.status));
    }
    let first = Entry {
        body: format!("scenario csp\nscale tiny\nseed {DEFAULT_SEED}\ntally replicated\n"),
        scenario: "csp",
        solve_seed: DEFAULT_SEED,
        duplicate_of: None,
    };
    let mut off = Tracer::new(false, Instant::now());
    match served_op(&mut off, addr, 0, &first, false).error {
        None => Ok(service),
        Some(e) => Err(e),
    }
}

fn state_of(body: &[u8]) -> Result<(u64, String, String), String> {
    let text = String::from_utf8_lossy(body);
    let v = json::parse(&text)?;
    let field = |k: &str| v.get(k).and_then(|s| s.as_str()).unwrap_or("").to_owned();
    let id = v.get("id").and_then(json::Value::as_f64).ok_or("no id")? as u64;
    Ok((id, field("state"), field("admission")))
}

/// One op: `POST /solves` → poll `GET /solves/:id` (1 ms sleep) until done
/// → `GET /solves/:id/tallies`. Ends when the tally bytes are in hand.
pub fn served_op(
    tr: &mut Tracer,
    addr: SocketAddr,
    index: usize,
    entry: &Entry,
    keep_body: bool,
) -> OpSample {
    let mut sample = OpSample {
        index,
        ..OpSample::default()
    };
    let (result, wall) = tr.op(index as u64 + 1, "serve.op", |tr| -> Result<(), String> {
        let (posted, submit) = tr.timed("serve.submit", |_| {
            client::request(addr, "POST", "/solves", Some(entry.body.as_bytes()))
        });
        sample.submit = submit;
        let posted = posted.map_err(|e| format!("POST: {e}"))?;
        if posted.status != 201 {
            return Err(format!(
                "POST answered {}: {}",
                posted.status,
                posted.body_text().trim()
            ));
        }
        let (id, mut state, admission) = state_of(&posted.body)?;
        sample.solve_id = id;
        sample.admission = admission;

        let path = format!("/solves/{id}");
        let ((), poll_wait) = tr.timed("serve.poll_wait", |tr| {
            while state == "queued" || state == "running" {
                std::thread::sleep(Duration::from_millis(1));
                sample.polls += 1;
                state = match client::request(addr, "GET", &path, None) {
                    Ok(r) if r.status == 200 => state_of(&r.body).map_or_else(|e| e, |s| s.1),
                    Ok(r) => format!("GET {path} answered {}", r.status),
                    Err(e) => format!("GET {path}: {e}"),
                };
            }
            tr.count("polls", f64::from(sample.polls));
        });
        sample.poll_wait = poll_wait;
        if state != "done" {
            return Err(format!("solve {id} ended `{state}`"));
        }

        let (fetched, fetch) = tr.timed("serve.fetch", |tr| {
            let r = client::request(addr, "GET", &format!("{path}/tallies"), None);
            tr.count("bytes", r.as_ref().map_or(0.0, |r| r.body.len() as f64));
            r
        });
        sample.fetch = fetch;
        let fetched = fetched.map_err(|e| format!("GET tallies: {e}"))?;
        if fetched.status != 200 {
            return Err(format!("GET tallies answered {}", fetched.status));
        }
        sample.body_checksum = bytes_checksum(&fetched.body);
        sample.body = keep_body.then_some(fetched.body);
        Ok(())
    });
    sample.wall = wall;
    sample.error = result.err();
    sample
}

/// One closed-loop pass of `clients` client threads over `list` against a
/// fresh service with `runners` registry runners.
pub struct Pass {
    pub samples: Vec<OpSample>,
    pub stats: RegistryStats,
    pub tracer: Tracer,
}

pub fn run_pass(
    list: &[Entry],
    clients: usize,
    runners: usize,
    traced: bool,
    epoch: Instant,
) -> Pass {
    let service = Service::start(runners);
    let addr = service.addr();
    let next = AtomicUsize::new(0);
    // A duplicate is only sent once its original's POST has been answered,
    // so it is never the submission that starts the solve.
    let posted: Vec<AtomicBool> = list.iter().map(|_| AtomicBool::new(false)).collect();

    let start = Instant::now();
    let per_client: Vec<(Vec<OpSample>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut tr = Tracer::new(traced, epoch);
                    let mut samples = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let Some(entry) = list.get(index) else { break };
                        if let Some(original) = entry.duplicate_of {
                            while !posted[original].load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                        }
                        let keep = entry.duplicate_of.is_none()
                            && (index / 2).is_multiple_of(DIRECT_CHECK_EVERY);
                        let started_s = start.elapsed().as_secs_f64();
                        let mut sample = served_op(&mut tr, addr, index, entry, keep);
                        posted[index].store(true, Ordering::SeqCst);
                        (sample.started_s, sample.ended_s) =
                            (started_s, start.elapsed().as_secs_f64());
                        samples.push(sample);
                    }
                    (samples, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut tracer = Tracer::new(traced, epoch);
    let mut samples = Vec::with_capacity(list.len());
    for (s, tr) in per_client {
        samples.extend(s);
        tracer.absorb(tr);
    }
    samples.sort_by_key(|s| s.index);

    let registry = service.service.registry();
    for s in samples
        .iter_mut()
        .filter(|s| list[s.index].duplicate_of.is_none())
    {
        let report = registry.result(s.solve_id);
        s.events = report.map_or(0, |r| r.counters.total_events());
    }
    let stats = registry.stats();
    Pass {
        samples,
        stats,
        tracer,
    }
}

/// The tally dump a direct `Simulation::run` of `entry`'s solve produces.
pub fn direct_dump(entry: &Entry) -> Vec<u8> {
    let scenario = Scenario::from_name(entry.scenario).expect("catalogue scenario");
    let mut problem = scenario.build(ProblemScale::tiny(), entry.solve_seed);
    problem.transport.tally_strategy = TallyStrategy::Replicated;
    let nx = problem.mesh.nx();
    let report = Simulation::new(problem).run(RunOptions {
        execution: Execution::Sequential,
        ..RunOptions::default()
    });
    crate::e2e::dump(&report.tally, nx)
}

/// Check one pass: every op answered 2xx, duplicates were admitted as
/// `cache_hit`/`coalesced` and returned their original's bytes, every
/// kept cold body equals the direct run's dump. Returns the checksum over
/// all cold body checksums in list order (the pass's reference value).
pub fn check_pass(list: &[Entry], pass: &Pass, gate: &mut Gate) -> u64 {
    let mut by_index: Vec<Option<&OpSample>> = vec![None; list.len()];
    for s in &pass.samples {
        by_index[s.index] = Some(s);
    }
    let mut cold_sums = Vec::new();
    for s in &pass.samples {
        let entry = &list[s.index];
        if !gate.check(s.error.is_none(), || {
            format!("op {}: {}", s.index, s.error.as_deref().unwrap_or(""))
        }) {
            continue;
        }
        match entry.duplicate_of {
            None => {
                cold_sums.extend_from_slice(&s.body_checksum.to_le_bytes());
                if let Some(body) = &s.body {
                    gate.check(*body == direct_dump(entry), || {
                        format!("op {}: served tallies differ from the direct run", s.index)
                    });
                }
            }
            Some(original) => {
                gate.check(
                    matches!(s.admission.as_str(), "cache_hit" | "coalesced"),
                    || format!("op {}: duplicate admitted as `{}`", s.index, s.admission),
                );
                let same = by_index[original].is_some_and(|o| o.body_checksum == s.body_checksum);
                gate.check(same, || {
                    format!(
                        "op {}: duplicate's bytes differ from op {original}",
                        s.index
                    )
                });
            }
        }
    }
    bytes_checksum(&cold_sums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn request_list_shape() {
        let list = request_list(20_170_905, 400);
        assert_eq!(list, request_list(20_170_905, 400), "same seed, same list");
        assert_ne!(list, request_list(20_170_906, 400), "the seed matters");
        assert_eq!(list.len(), 800);

        let cold: Vec<&Entry> = list.iter().filter(|e| e.duplicate_of.is_none()).collect();
        assert_eq!(cold.len(), 400);
        let bodies: HashSet<&str> = cold.iter().map(|e| e.body.as_str()).collect();
        assert_eq!(bodies.len(), 400, "cold bodies are distinct");
        for scenario in SCENARIOS {
            assert_eq!(cold.iter().filter(|e| e.scenario == scenario).count(), 100);
        }

        let mut duplicates = 0;
        for (i, e) in list.iter().enumerate() {
            if let Some(original) = e.duplicate_of {
                duplicates += 1;
                assert!(
                    original < i,
                    "duplicate {i} precedes its original {original}"
                );
                assert!(list[original].duplicate_of.is_none());
                assert_eq!(list[original].body, e.body);
            }
        }
        assert_eq!(duplicates, 400);
        // The scaling base runs the first half: same mix as the whole.
        let half = &list[..400];
        assert_eq!(
            half.iter().filter(|e| e.duplicate_of.is_none()).count(),
            200
        );
    }
}
