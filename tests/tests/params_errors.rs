//! Params-file error paths: every malformed or inconsistent input must
//! be a hard error whose message names the offending key/value and (for
//! line-scoped failures) the 1-based line number — typos must never
//! silently change the physics. Covers the classic keys, the scenario
//! interaction rules, and the checkpoint/fault keys the restart
//! subsystem added.

use neutral_core::params::{ParamsError, ProblemParams};
use neutral_core::prelude::*;

/// Parse `text`, demand failure, and return the error.
fn fail(text: &str) -> ParamsError {
    match ProblemParams::parse(text) {
        Err(e) => e,
        Ok(_) => panic!("params must be rejected:\n{text}"),
    }
}

#[test]
fn unknown_keys_name_the_key_and_line() {
    let e = fail("nx 10\nny 10\ntimestep 3\n"); // singular typo of `timesteps`
    assert_eq!(e.line, 3);
    assert!(
        e.message.contains("unknown key `timestep`"),
        "{}",
        e.message
    );
    // Rendered form carries the line for editor jumps.
    assert!(e.to_string().starts_with("params line 3:"), "{e}");

    for bad in ["xs_strategy hinted", "tally atomic", "checkpoint run.ckpt"] {
        let e = fail(&format!("{bad}\n"));
        let key = bad.split_whitespace().next().unwrap();
        assert!(
            e.message.contains(&format!("unknown key `{key}`")),
            "{bad}: {}",
            e.message
        );
    }

    // Keys this format used to accept are unknown keys like any other —
    // named, with their line — never silently ignored.
    for removed in [
        "regroup_policy by_cell",
        "kernel_style vectorized",
        "sort_policy by_cell",
        "backend simd",
    ] {
        let e = fail(&format!("nx 10\n{removed}\n"));
        let key = removed.split_whitespace().next().unwrap();
        assert_eq!(e.line, 2, "{removed}");
        assert!(
            e.to_string()
                .starts_with(&format!("params line 2: unknown key `{key}`")),
            "{removed}: {e}"
        );
    }
}

/// A value this format used to accept says that it was removed and what
/// to write instead — the one message of `TallyStrategy`'s `FromStr`,
/// with the line.
#[test]
fn removed_tally_strategy_names_its_replacement() {
    let e = fail("nx 10\ntally_strategy privatized\n");
    assert_eq!(e.line, 2);
    assert!(e.message.contains("`privatized` was removed"), "{e}");
    assert!(e.message.contains("use `replicated`"), "{e}");
    // An unknown value lists the values there are, and only those.
    let e = fail("tally_strategy magic\n");
    assert!(e.message.contains("(atomic|replicated)"), "{e}");
}

/// `nan`, `inf` and overflowing literals parse as `f64`: a rectangle
/// made of them is refused by line, never handed to `Rect::new`'s
/// assertion (found by the parser's mutation fuzz).
#[test]
fn non_finite_rectangle_bounds_are_rejected() {
    for (text, line) in [
        ("source 0.4 1e400 0.4 0.6\n", 1),
        ("nx 10\nsource nan 0.6 0.4 0.6\n", 2),
        ("region 0.0 0.5 -inf 1.0 5.0\n", 1),
        ("region 0.0 0.5 0.0 NaN 5.0 0\n", 1),
    ] {
        let e = fail(text);
        assert_eq!(e.line, line, "{text:?}");
        assert!(e.message.contains("must be finite"), "{text:?}: {e}");
    }
}

#[test]
fn out_of_range_timesteps_are_rejected() {
    // Zero parses but fails validation with an actionable message.
    let e = fail("timesteps 0\n");
    assert!(e.message.contains("at least one timestep"), "{}", e.message);

    // Negative/garbage never parse.
    let e = fail("timesteps -1\n");
    assert_eq!(e.line, 1);
    assert!(
        e.message.contains("not a positive integer"),
        "{}",
        e.message
    );
    let e = fail("timesteps many\n");
    assert!(e.message.contains("`many`"), "{}", e.message);

    // Arity is enforced per key.
    let e = fail("timesteps 1 2\n");
    assert!(e.message.contains("exactly one value"), "{}", e.message);

    // Zero-sized runs of other kinds are rejected the same way.
    assert!(fail("particles 0\n")
        .message
        .contains("at least one particle"));
    assert!(fail("dt 0.0\n").message.contains("dt must be positive"));
    assert!(fail("nx 0\n").message.contains("mesh must have cells"));
}

#[test]
fn scenario_conflicts_are_rejected() {
    // `scenario` after a geometry/region key would silently clobber the
    // keys parsed before it — hard error naming the rule.
    let e = fail("region 0.0 0.5 0.0 1.0 5.0\nscenario csp\n");
    assert_eq!(e.line, 2);
    assert!(
        e.message.contains("`scenario` must be the first key"),
        "{}",
        e.message
    );
    let e = fail("nx 10\nscenario shielded_slab\n");
    assert_eq!(e.line, 2);
    assert!(e.message.contains("first key"), "{}", e.message);

    // A region key after a scenario is allowed — but it must still
    // reference a material the combined setup defines.
    let e = fail("scenario csp\nregion 0.0 0.5 0.0 1.0 5.0 7\n");
    assert!(e.message.contains("material `7`"), "{}", e.message);
    assert!(
        e.message.contains("material 7"),
        "fix hint must name the missing declaration: {}",
        e.message
    );

    // Unknown scenario names list the catalogue so the fix is obvious.
    let e = fail("scenario warp_core\n");
    assert_eq!(e.line, 1);
    assert!(e.message.contains("warp_core"), "{}", e.message);
    assert!(e.message.contains("shielded_slab"), "{}", e.message);
}

#[test]
fn duplicate_scenario_keys_are_rejected() {
    // A second `scenario` would silently restart the whole setup,
    // discarding everything the first one configured.
    let e = fail("scenario csp\nscenario shielded_slab\n");
    assert_eq!(e.line, 2);
    assert!(e.message.contains("duplicate `scenario`"), "{}", e.message);

    // Even a repeat of the *same* scenario is rejected — one file, one
    // starting point. The duplicate diagnosis wins over the
    // not-first-key one so the message names the actual mistake.
    let e = fail("scenario csp\nnx 16\nscenario csp\n");
    assert_eq!(e.line, 3);
    assert!(e.message.contains("duplicate `scenario`"), "{}", e.message);
}

#[test]
fn trailing_garbage_after_a_value_is_rejected() {
    // Every key enforces its arity, so stray tokens on a line are hard
    // errors naming the key and line, never silently ignored.
    for (text, line) in [
        ("nx 10 20\n", 1),
        ("nx 10\nseed 1 extra\n", 2),
        ("scenario csp extra\n", 1),
        ("source 0.4 0.6 0.4 0.6 0.5\n", 1),
        ("region 0.0 0.5 0.0 1.0 5.0 1 9\n", 1),
    ] {
        let e = fail(text);
        assert_eq!(e.line, line, "{text:?}");
        assert!(
            e.message.contains("exactly") || e.message.contains("takes"),
            "{text:?}: {}",
            e.message
        );
    }
}

#[test]
fn geometry_and_physics_range_errors_are_actionable() {
    assert!(fail("width 0.0\n").message.contains("extent"));
    assert!(fail("density -1.0\n").message.contains("non-negative"));
    assert!(fail("weight_cutoff 1.5\n")
        .message
        .contains("weight cutoff must be in [0, 1)"));
    assert!(fail("xs_points 1\n").message.contains(">= 2 points"));
    assert!(fail("initial_energy 0.5\nmin_energy 1.0\n")
        .message
        .contains("birth energy below cutoff"));
    assert!(fail("source 0.5 1.5 0.0 0.5\n")
        .message
        .contains("source region outside the domain"));
    let e = fail("region 0.9 0.4 0.0 1.0 5.0\n");
    assert!(e.message.contains("inverted"), "{}", e.message);
}

#[test]
fn checkpoint_file_key_parses_and_enforces_arity() {
    let p = ProblemParams::parse("checkpoint_file run.ckpt\n").unwrap();
    assert_eq!(p.checkpoint_file.as_deref(), Some("run.ckpt"));
    assert!(p.fault.is_empty(), "no fault key means an empty plan");

    let e = fail("checkpoint_file a b\n");
    assert_eq!(e.line, 1);
    assert!(e.message.contains("exactly one value"), "{}", e.message);
}

#[test]
fn fault_key_parses_the_full_grammar() {
    let p = ProblemParams::parse("checkpoint_file run.ckpt\nfault kill@2\n").unwrap();
    assert_eq!(p.fault.faults, vec![Fault::Kill { after_step: 2 }]);

    let p = ProblemParams::parse("fault torn@1:12,bitflip@2:5,kill@3\n").unwrap();
    assert_eq!(
        p.fault.faults,
        vec![
            Fault::TornWrite {
                after_step: 1,
                keep_bytes: 12
            },
            Fault::BitFlip {
                after_step: 2,
                offset: 5
            },
            Fault::Kill { after_step: 3 },
        ]
    );
}

#[test]
fn bad_fault_specs_name_spec_and_line() {
    for (spec, why) in [
        ("explode@1", "unknown kind `explode`"),
        ("kill", "missing `@`"),
        ("kill@0", "timestep must be >= 1"),
        ("kill@two", "timestep is not a number"),
        ("kill@1:5", "kill takes no argument"),
        ("torn@1:lots", "argument is not a number"),
    ] {
        let e = fail(&format!("nx 10\nfault {spec}\n"));
        assert_eq!(e.line, 2, "{spec}");
        assert!(
            e.message.contains(&format!("bad fault spec `{spec}`")),
            "{spec}: {}",
            e.message
        );
        assert!(e.message.contains(why), "{spec}: {}", e.message);
        assert!(
            e.message.contains("expected kill@N"),
            "error must teach the grammar: {}",
            e.message
        );
    }
}

#[test]
fn valid_checkpointed_params_build_and_run() {
    // The happy path through the new keys: a params file that enables
    // checkpointing still builds a runnable problem, and the keys ride
    // along without perturbing the physics configuration.
    let text = "\
nx 32
ny 32
density 1e3
particles 50
source 0.4 0.6 0.4 0.6
xs_points 256
timesteps 2
checkpoint_file run.ckpt
fault kill@1
";
    let p = ProblemParams::parse(text).unwrap();
    assert_eq!(p.checkpoint_file.as_deref(), Some("run.ckpt"));
    assert_eq!(p.fault.faults.len(), 1);
    let bare = ProblemParams::parse(&text.lines().take(7).collect::<Vec<_>>().join("\n")).unwrap();
    assert_eq!(
        config_fingerprint(&p.build(), Scheme::OverParticles),
        config_fingerprint(&bare.build(), Scheme::OverParticles),
        "checkpoint keys must not change the problem fingerprint"
    );
    let report = Simulation::new(p.build()).run(RunOptions {
        execution: Execution::Sequential,
        ..Default::default()
    });
    assert!(report.counters.total_events() > 0);
}
