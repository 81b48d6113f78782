//! The material-table intern seen through the solve service (DESIGN.md
//! §4, §16): a sweep over `timesteps` whose second solve is posted while
//! the first still runs shares the first's tables, and both still serve
//! the bits of a direct run, having filled under half of the table
//! points. This file holds one test, so the process-wide `tables_built`
//! / `tables_shared` / `table_points_filled` counts it reads from
//! `/stats` are its own.

use minihttp::{Request, Response};
use neutral_bench::serve_http::{write_tally_dump, ServeConfig, SolveService};
use neutral_core::prelude::*;
use std::time::Duration;

const SEED: u64 = 42;

fn request(service: &SolveService, method: &str, path: &str, body: &str) -> (Response, String) {
    let response = service.handle(&Request {
        method: method.into(),
        path: path.into(),
        query: String::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    });
    let text = String::from_utf8_lossy(&response.body).into_owned();
    (response, text)
}

fn body(timesteps: usize) -> String {
    format!("scenario csp\nscale tiny\nseed {SEED}\ntimesteps {timesteps}\ntally replicated\n")
}

fn counter(stats: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let rest = &stats[stats
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {stats}"))
        + pat.len()..];
    rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
}

#[test]
fn overlapping_sweep_synthesizes_its_tables_once() {
    let service = SolveService::new(ServeConfig {
        runners: 2,
        threads: 2,
        chunk_delay: Some(Duration::from_millis(200)),
    });
    let registry = service.registry();
    let mut ids = Vec::new();
    for timesteps in [3, 4] {
        let (response, text) = request(&service, "POST", "/solves", &body(timesteps));
        assert_eq!(response.status, 201, "{text}");
        let id = response.headers.iter().find(|(n, _)| n == "x-solve-id");
        ids.push(id.unwrap().1.parse::<u64>().unwrap());
    }
    // The second build ran inside its POST, so the first solve, still
    // running after it, held its tables throughout.
    assert!(!registry.status(ids[0]).unwrap().state.is_terminal());

    let (_, stats) = request(&service, "GET", "/stats", "");
    assert_eq!(counter(&stats, "problems_built"), 2, "{stats}");
    assert_eq!(counter(&stats, "tables_built"), 1, "{stats}");
    assert_eq!(counter(&stats, "tables_shared"), 1, "{stats}");

    // The solves filled only the table blocks they read, once for both.
    for &id in &ids {
        assert_eq!(registry.wait(id).unwrap().state, SolveState::Done);
    }
    let (_, stats) = request(&service, "GET", "/stats", "");
    let filled = counter(&stats, "table_points_filled");
    assert!(filled > 0 && filled < 30_000, "{stats}");

    for (id, timesteps) in ids.into_iter().zip([3, 4]) {
        let (served, _) = request(&service, "GET", &format!("/solves/{id}/tallies"), "");
        assert_eq!(served.status, 200);
        let mut problem = Scenario::Csp.params(ProblemScale::tiny(), SEED).build();
        problem.transport.tally_strategy = TallyStrategy::Replicated;
        problem.n_timesteps = timesteps;
        let nx = problem.mesh.nx();
        let direct = Simulation::new(problem).run(RunOptions::default());
        let mut expected = Vec::new();
        write_tally_dump(&direct.tally, nx, &mut expected).unwrap();
        assert!(
            served.body == expected,
            "timesteps {timesteps}: served ≠ direct"
        );
    }
}
