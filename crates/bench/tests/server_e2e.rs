//! End-to-end tests of the solve service through the real HTTP stack:
//! vendored `minihttp` client → server → router → registry → solve.
//!
//! Covers the acceptance criteria of the serving PR: concurrent
//! identical submissions coalesce onto one underlying solve, identical
//! re-submissions after completion are cache hits (no transport re-run,
//! verified by the registry's solve-count instrumentation), served
//! tallies are bitwise identical to a direct `Simulation::run` of the
//! same configuration, and a mid-solve cancel is clean.

use minihttp::client::{self, ClientResponse};
use neutral_bench::serve_http::{serve, write_tally_dump, ServeConfig, SolveService};
use neutral_core::prelude::*;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 4242;
const TIMESTEPS: usize = 4;

fn request_body(seed: u64) -> String {
    format!("scenario csp\nscale tiny\nseed {seed}\ntimesteps {TIMESTEPS}\ntally replicated\n")
}

/// The same problem the request above describes, built directly.
fn direct_problem(seed: u64) -> Problem {
    let mut problem = Scenario::Csp.params(ProblemScale::tiny(), seed).build();
    problem.transport.tally_strategy = TallyStrategy::Replicated;
    problem.n_timesteps = TIMESTEPS;
    problem
}

fn start(cfg: ServeConfig) -> (Arc<SolveService>, minihttp::ServerHandle, SocketAddr) {
    let service = Arc::new(SolveService::new(cfg));
    let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind ephemeral port");
    let addr = handle.addr();
    (service, handle, addr)
}

fn post_solve(addr: SocketAddr, body: &str) -> ClientResponse {
    client::request(addr, "POST", "/solves", Some(body.as_bytes())).expect("POST /solves")
}

fn json_field<'a>(json: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let start = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + pat.len();
    let rest = &json[start..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    let end = rest
        .find(['"', ',', '}'])
        .unwrap_or_else(|| panic!("unterminated {key} in {json}"));
    &rest[..end]
}

fn poll_until_terminal(addr: SocketAddr, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = client::request(addr, "GET", &format!("/solves/{id}"), None).expect("poll");
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        let body = resp.body_text();
        let state = json_field(&body, "state").to_string();
        if state != "queued" && state != "running" {
            return state;
        }
        assert!(Instant::now() < deadline, "solve {id} stuck: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn coalescing_cache_and_bitwise_identity() {
    // Throttled chunks keep the first solve in flight long enough for
    // the identical second submission to observably coalesce.
    let (service, mut handle, addr) = start(ServeConfig {
        runners: 2,
        threads: 2,
        chunk_delay: Some(Duration::from_millis(40)),
    });

    // Two identical and one distinct submission, concurrently.
    let bodies = [
        request_body(SEED),
        request_body(SEED),
        request_body(SEED + 1),
    ];
    let responses: Vec<ClientResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .iter()
            .map(|body| scope.spawn(move || post_solve(addr, body)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for resp in &responses {
        assert_eq!(resp.status, 201, "{}", resp.body_text());
    }
    let ids: Vec<String> = responses
        .iter()
        .map(|r| {
            r.header("x-solve-id")
                .expect("x-solve-id header")
                .to_string()
        })
        .collect();
    let admissions: Vec<String> = responses
        .iter()
        .map(|r| json_field(&r.body_text(), "admission").to_string())
        .collect();

    // The two identical requests share one entry: one fresh, one
    // coalesced (arrival order between threads is arbitrary).
    assert_eq!(ids[0], ids[1], "identical requests must share an id");
    assert_ne!(ids[0], ids[2], "distinct config must get its own solve");
    let mut same = [admissions[0].as_str(), admissions[1].as_str()];
    same.sort_unstable();
    assert_eq!(same, ["coalesced", "fresh"], "got {admissions:?}");
    assert_eq!(admissions[2], "fresh");

    assert_eq!(poll_until_terminal(addr, &ids[0]), "done");
    assert_eq!(poll_until_terminal(addr, &ids[2]), "done");

    // Exactly two underlying solves ran for three submissions.
    let stats = service.registry().stats();
    assert_eq!(stats.solves_started, 2, "{stats:?}");
    assert_eq!(stats.coalesced, 1, "{stats:?}");

    // Served tallies are bitwise identical to a direct run of the same
    // config — through the text dump, whose shortest-digits floats
    // round-trip exactly, so byte equality is bit equality. The direct run uses
    // different execution (sequential vs the server's 2-thread lanes):
    // the determinism invariant says that must not matter.
    for (id, seed) in [(&ids[0], SEED), (&ids[2], SEED + 1)] {
        let served = client::request(addr, "GET", &format!("/solves/{id}/tallies"), None).unwrap();
        assert_eq!(served.status, 200);
        let direct = Simulation::new(direct_problem(seed)).run(RunOptions::default());
        let mut expected = Vec::new();
        write_tally_dump(&direct.tally, direct_problem(seed).mesh.nx(), &mut expected).unwrap();
        assert_eq!(
            served.body, expected,
            "served tallies for seed {seed} differ from direct run"
        );
    }

    // Identical re-submission after completion: answered from the cache
    // without re-running transport.
    let before = service.registry().stats();
    let chunks_before = before.chunks_run;
    let resubmit = post_solve(addr, &request_body(SEED));
    assert_eq!(json_field(&resubmit.body_text(), "admission"), "cache_hit");
    assert_eq!(json_field(&resubmit.body_text(), "state"), "done");
    let stats = service.registry().stats();
    assert_eq!(stats.cache_hits, 1, "{stats:?}");
    assert_eq!(stats.solves_started, 2, "cache hit must not start a solve");
    assert_eq!(
        stats.problems_built, before.problems_built,
        "cache hit must not rebuild the problem"
    );
    let served_stats = client::request(addr, "GET", "/stats", None).unwrap();
    assert_eq!(
        json_field(&served_stats.body_text(), "problems_built"),
        stats.problems_built.to_string()
    );
    assert_eq!(
        stats.chunks_run, chunks_before,
        "cache hit must not run chunks"
    );

    // The same body under the other scheme is a different solve — the
    // two schemes' tallies differ in their last bits — not a hit onto
    // the Over-Particles result.
    let other_scheme = post_solve(addr, &format!("{}scheme oe\n", request_body(SEED)));
    assert_eq!(other_scheme.status, 201, "{}", other_scheme.body_text());
    assert_eq!(json_field(&other_scheme.body_text(), "admission"), "fresh");
    let oe_id = other_scheme.header("x-solve-id").unwrap().to_string();
    assert_ne!(oe_id, ids[0]);
    assert_eq!(poll_until_terminal(addr, &oe_id), "done");
    assert_eq!(service.registry().stats().solves_started, 3);

    handle.shutdown();
}

#[test]
fn cancel_mid_solve_is_clean() {
    let (service, mut handle, addr) = start(ServeConfig {
        runners: 1,
        threads: 1,
        chunk_delay: Some(Duration::from_millis(50)),
    });

    // A long solve, throttled: the cancel lands mid-flight.
    let body = "scenario csp\nscale tiny\nseed 9\ntimesteps 200\ntally replicated\n";
    let resp = post_solve(addr, body);
    assert_eq!(resp.status, 201, "{}", resp.body_text());
    let id = resp.header("x-solve-id").unwrap().to_string();

    let del = client::request(addr, "DELETE", &format!("/solves/{id}"), None).unwrap();
    assert_eq!(del.status, 200, "{}", del.body_text());
    assert_eq!(poll_until_terminal(addr, &id), "cancelled");

    // No result; the tally fetch names the state.
    let tallies = client::request(addr, "GET", &format!("/solves/{id}/tallies"), None).unwrap();
    assert_eq!(tallies.status, 409, "{}", tallies.body_text());
    assert!(tallies.body_text().contains("cancelled"));

    // A second cancel is a clean conflict, not a panic or a 200.
    let again = client::request(addr, "DELETE", &format!("/solves/{id}"), None).unwrap();
    assert_eq!(again.status, 409);

    let status = service.registry().status(id.parse().unwrap()).unwrap();
    assert!(status.steps_done < 200, "cancel had no effect");

    handle.shutdown();
}

#[test]
fn bad_requests_are_named_errors() {
    let (_service, mut handle, addr) = start(ServeConfig::default());

    // Unknown scenario: the catalogue is named, with a line number.
    let resp = post_solve(addr, "scenario warp_core\n");
    assert_eq!(resp.status, 400);
    let body = resp.body_text();
    assert!(
        body.contains("line 1") && body.contains("warp_core"),
        "{body}"
    );

    // Keys the grammar used to accept are unknown keys now: named, with
    // their line, never silently ignored.
    for removed in [
        "layout soa",
        "regroup by_cell",
        "kernel vectorized",
        "sort by_cell",
        "backend simd",
    ] {
        let resp = post_solve(addr, &format!("scenario csp\nscale tiny\n{removed}\n"));
        assert_eq!(resp.status, 400, "{removed}");
        let body = resp.body_text();
        let key = removed.split(' ').next().unwrap();
        assert!(
            body.contains("line 3") && body.contains(&format!("unknown key `{key}`")),
            "{removed}: {body}"
        );
    }

    // Unknown id: 404; non-numeric id: 400.
    let resp = client::request(addr, "GET", "/solves/999", None).unwrap();
    assert_eq!(resp.status, 404);
    let resp = client::request(addr, "GET", "/solves/bogus", None).unwrap();
    assert_eq!(resp.status, 400);

    // Unknown route.
    let resp = client::request(addr, "GET", "/nope", None).unwrap();
    assert_eq!(resp.status, 404);

    handle.shutdown();
}
