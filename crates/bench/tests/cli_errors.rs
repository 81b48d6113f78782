//! `neutral_cli` argument errors: a rejected flag or value exits 1 with
//! one `error:` line naming the flag — never a panic, never a silent
//! ignore.

use std::process::Command;

#[test]
fn rejected_flags_exit_1_with_a_named_error() {
    // `--sort`, `--backend` and `--tally` are flags the CLI used to
    // accept (`--tally atomic` ran the removed shared-atomic tally);
    // `--threads 0` used to reach an assert inside the driver;
    // `--sequential` beside a worker flag used to be silently overridden.
    for (args, flag) in [
        (&["--sort", "off"][..], "--sort"),
        (&["--backend", "scalar"], "--backend"),
        (&["--tally", "atomic"], "--tally"),
        (&["--threads", "0"], "--threads"),
        (
            &["--sequential", "--threads", "2"],
            "--sequential is --threads 1",
        ),
        (
            &["--schedule", "guided", "--sequential"],
            "--sequential is --threads 1",
        ),
        // A solve has 32 lanes and a shard owns whole lanes: `--shards`
        // past that used to be accepted, and 2^40 aborted allocating one
        // result slot per shard.
        (&["--shards", "0"], "--shards: need at least one shard"),
        (
            &["--shards", "33"],
            "--shards: 33 shards is more than the 32 lanes",
        ),
        (
            &["--shards", "1099511627776"],
            "--shards: 1099511627776 shards is more than the 32 lanes",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_neutral_cli"))
            .args(["--scenario", "csp", "--scale", "tiny"])
            .args(args)
            .output()
            .expect("spawn neutral_cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with("error:") && l.contains(flag)),
            "{args:?}: no `error:` line naming `{flag}` in: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// The removed lookup knob fails with the one message the params layer
/// defines, which names `hinted` as what every solve runs: `--lookup`
/// with any value, and a params file's `lookup_strategy` key at its line.
#[test]
fn removed_lookup_values_name_their_replacement() {
    let says = neutral_core::params::LOOKUP_REMOVED;
    let params = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("lookup.params");
    std::fs::write(&params, "nx 16\nlookup_strategy hinted\n").expect("write params file");
    for (args, line) in [
        (
            &["--scenario", "csp", "--scale", "tiny", "--lookup", "hinted"][..],
            format!("error: --lookup: {says}"),
        ),
        (
            &["--scenario", "csp", "--scale", "tiny", "--lookup", "hashed"],
            format!("error: --lookup: {says}"),
        ),
        (&["--lookup"], format!("error: --lookup: {says}")),
        (
            &[params.to_str().expect("utf-8 path")],
            format!("error: params line 2: {says}"),
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_neutral_cli"))
            .args(args)
            .output()
            .expect("spawn neutral_cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.lines().any(|l| l == line),
            "{args:?}: no `{line}` line in: {stderr}"
        );
    }
}

/// A params file whose values parse as numbers but cannot be built fails
/// with the file's line-numbered error and exit 1: `width inf` used to
/// panic (exit 101), `nx 100000000000` to abort allocating 800 GB
/// (exit 134), `initial_energy inf` to run to a `NaN` tally, and a
/// 5 · 10^9-point material table to abort allocating 40 GB (exit 134).
#[test]
fn unbuildable_params_files_exit_1_with_the_line() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, text, says) in [
        (
            "width",
            "nx 16\nwidth inf\n",
            "params line 2: `inf` is not a finite number",
        ),
        (
            "cells",
            "nx 100000000000\n",
            "params line 1: a 100000000000 × 1000 mesh is more than 2^32 cells",
        ),
        (
            "energy",
            "nx 16\nny 16\ninitial_energy inf\n",
            "params line 3: `inf` is not a finite number",
        ),
        (
            "points",
            "nx 16\nmaterial 0 reference 5000000000 7\n",
            "params line 2: a 5000000000-point table has more than 2^32 bins",
        ),
    ] {
        let path = dir.join(format!("unbuildable_{name}.params"));
        std::fs::write(&path, text).expect("write params file");
        let out = Command::new(env!("CARGO_BIN_EXE_neutral_cli"))
            .arg(&path)
            .output()
            .expect("spawn neutral_cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with(&format!("error: {says}"))),
            "{name}: no `error: {says}` line in: {stderr}"
        );
    }
}
