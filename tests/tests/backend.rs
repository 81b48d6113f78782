//! Kernel-backend seam invariants (DESIGN.md §19): the Over-Events
//! drivers dispatch their per-round kernels through one of three
//! [`Backend`] implementations — scalar, auto-vectorized, explicit
//! SIMD — that compute the same per-lane expressions in the same order,
//! so every backend must be **bitwise** interchangeable: identical
//! merged tallies, physics counters and deterministically-folded energy
//! sums, for every driver family, any worker count, and with the
//! runtime AVX2 fallback forced on or off.
//!
//! The non-Over-Events families ignore the knob entirely; the matrix
//! sweeps them anyway to lock that the backend is inert where it has no
//! kernels to dispatch (a backend that leaked into the history-order
//! drivers would show up here first).

use neutral_core::prelude::*;
use neutral_integration::{physics_counters, tiny_multistep, DriverKind, MULTISTEP_CONFIGS};

fn assert_bitwise_tally(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: tally sizes diverge");
    assert!(
        a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
        "{what}: merged tally bits diverge"
    );
}

/// backend × driver × workers {1, 2, 7}: every cell of the matrix
/// reproduces its driver's scalar two-worker baseline bit for bit, on
/// both committed multi-timestep configurations.
#[test]
fn backends_bitwise_across_drivers_and_workers() {
    for (case, steps, seed) in MULTISTEP_CONFIGS {
        for driver in DriverKind::ALL {
            let base =
                tiny_multistep(case, steps, seed, TallyStrategy::Replicated).run(RunOptions {
                    backend: Backend::Scalar,
                    ..driver.options(2)
                });
            for backend in Backend::ALL {
                for workers in [1usize, 2, 7] {
                    let r = tiny_multistep(case, steps, seed, TallyStrategy::Replicated).run(
                        RunOptions {
                            backend,
                            ..driver.options(workers)
                        },
                    );
                    let what = format!(
                        "{}x{}/{}/{}/{}w",
                        case.name(),
                        steps,
                        driver.name(),
                        backend.name(),
                        workers
                    );
                    assert_eq!(
                        physics_counters(r.counters),
                        physics_counters(base.counters),
                        "{what}: physics counters diverge from the scalar baseline"
                    );
                    assert_eq!(
                        r.counters.census_energy_ev.to_bits(),
                        base.counters.census_energy_ev.to_bits(),
                        "{what}: census-energy fold diverges"
                    );
                    assert_eq!(
                        r.counters.lost_energy_ev.to_bits(),
                        base.counters.lost_energy_ev.to_bits(),
                        "{what}: lost-energy fold diverges"
                    );
                    assert_bitwise_tally(&r.tally, &base.tally, &what);
                }
            }
        }
    }
}

/// The `simd` backend's runtime fallback (taken on hardware without
/// AVX2, here forced through the test hook) is bitwise identical to the
/// vector path — so a fleet mixing AVX2 and non-AVX2 nodes still
/// reproduces one answer. Safe against concurrent tests in this binary:
/// forcing the fallback only reroutes `simd` runs onto the scalar
/// expressions, which this suite proves bitwise interchangeable.
#[test]
fn forced_simd_fallback_is_bitwise_identical() {
    let (case, steps, seed) = MULTISTEP_CONFIGS[0];
    let run = || {
        tiny_multistep(case, steps, seed, TallyStrategy::Replicated).run(RunOptions {
            backend: Backend::Simd,
            ..DriverKind::OverEvents.options(3)
        })
    };
    let native = run();
    force_simd_fallback(true);
    let fallback = run();
    force_simd_fallback(false);
    assert_eq!(
        physics_counters(native.counters),
        physics_counters(fallback.counters),
        "fallback: physics counters diverge"
    );
    assert_eq!(
        native.counters.census_energy_ev.to_bits(),
        fallback.counters.census_energy_ev.to_bits(),
        "fallback: census-energy fold diverges"
    );
    assert_bitwise_tally(&native.tally, &fallback.tally, "forced fallback");
}

/// The backend knob survives the params/CLI round trip: a params file
/// carrying `backend simd` parses to the backend the solve will run, and
/// re-serializes canonically. The knob has one spelling: its former
/// `kernel_style` alias is an unknown key.
#[test]
fn backend_round_trips_through_params() {
    for backend in Backend::ALL {
        let text = format!("nx 8\nny 8\nparticles 32\nbackend {}\n", backend.name());
        let params = neutral_core::params::ProblemParams::parse(&text).unwrap();
        assert_eq!(params.backend, backend);
        assert!(params
            .to_params_text()
            .contains(&format!("backend {}", backend.name())));
    }
    let alias = neutral_core::params::ProblemParams::parse("kernel_style simd\n").unwrap_err();
    assert!(
        alias.message.contains("unknown key `kernel_style`"),
        "{alias}"
    );
}
