//! `neutral_cli` argument errors: a rejected flag or value exits 1 with
//! one `error:` line naming the flag — never a panic, never a silent
//! ignore.

use std::process::Command;

#[test]
fn rejected_flags_exit_1_with_a_named_error() {
    // `--sort` and `--backend` are flags the CLI used to accept;
    // `--threads 0` used to reach an assert inside the driver.
    for (flag, value) in [
        ("--sort", "off"),
        ("--backend", "scalar"),
        ("--threads", "0"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_neutral_cli"))
            .args(["--scenario", "csp", "--scale", "tiny", flag, value])
            .output()
            .expect("spawn neutral_cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with("error:") && l.contains(flag)),
            "{flag} {value}: no `error:` line naming the flag in: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
}
