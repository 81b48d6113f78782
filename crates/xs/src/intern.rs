//! The process-wide weak intern of synthetic libraries (`DESIGN.md` §4,
//! "One library per spec").
//!
//! A synthetic library is a pure function of its [`MaterialSpec`]: the
//! kind fixes the [`crate::SynthParams`], and `(n_points, seed)` fix the
//! rest. So every problem that holds a library for one spec may hold the
//! *same* library. [`MaterialSpec::build`] looks its spec up here and
//! returns the live library when some holder keeps one; otherwise it
//! synthesizes a library (outside the lock) and publishes a [`Weak`] to
//! it. The table never keeps a library alive, and keeps no entry for a
//! dead one: the published library carries a [`Tag`] whose drop removes
//! the entry. So the table holds exactly the live libraries, and a
//! library's memory goes with its last holder, as if it had never been
//! interned.

use crate::{CrossSectionLibrary, MaterialSpec};
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError, Weak};

/// Process-wide counts of [`MaterialSpec::build`] calls, by outcome —
/// every call adds one to exactly one of `built` and `shared` — and of
/// the table points synthesized so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Builds that synthesized the library they returned.
    pub built: u64,
    /// Builds answered with a library another build synthesized and some
    /// holder still kept alive. A build that loses a publishing race
    /// counts here: its own synthesis is discarded.
    pub shared: u64,
    /// Points of synthesized tables whose values lookups have filled,
    /// over every table of the process. A build fills none; a point
    /// counts once per table, when its block is first read.
    pub points_filled: u64,
}

#[derive(Default)]
struct Intern {
    live: HashMap<MaterialSpec, Weak<CrossSectionLibrary>>,
    stats: TableStats,
}

static INTERN: LazyLock<Mutex<Intern>> = LazyLock::new(Mutex::default);

/// Every update under the lock is one map or counter operation, so the
/// table is whole after any panic, and a poisoned lock is taken as is.
fn intern() -> MutexGuard<'static, Intern> {
    INTERN.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Intern {
    fn live(&mut self, spec: &MaterialSpec) -> Option<Arc<CrossSectionLibrary>> {
        let lib = self.live.get(spec)?.upgrade()?;
        self.stats.shared += 1;
        Some(lib)
    }
}

/// The spec a library is published under, on that library only: a clone
/// is a library of its own and carries none.
#[derive(Debug, Default)]
pub(crate) struct Tag(Option<MaterialSpec>);

impl Clone for Tag {
    fn clone(&self) -> Self {
        Tag(None)
    }
}

impl Drop for Tag {
    /// The published library's last holder dropped it: remove its entry,
    /// unless a build has already replaced it with a live library.
    fn drop(&mut self) {
        if let Some(spec) = self.0 {
            let mut intern = intern();
            if intern
                .live
                .get(&spec)
                .is_some_and(|lib| lib.strong_count() == 0)
            {
                intern.live.remove(&spec);
            }
        }
    }
}

/// The live library of `spec`, or `synthesize()` published as it.
pub(crate) fn interned(
    spec: &MaterialSpec,
    synthesize: impl FnOnce() -> CrossSectionLibrary,
) -> Arc<CrossSectionLibrary> {
    if let Some(lib) = intern().live(spec) {
        return lib;
    }
    let mut fresh = Arc::new(synthesize());
    let mut intern = intern();
    // Another builder of this spec published first: converge on its
    // library (ours drops untagged, so it leaves the entry alone).
    if let Some(lib) = intern.live(spec) {
        return lib;
    }
    Arc::get_mut(&mut fresh)
        .expect("an unpublished library has one holder")
        .interned = Tag(Some(*spec));
    intern.live.insert(*spec, Arc::downgrade(&fresh));
    intern.stats.built += 1;
    fresh
}

/// The process-wide [`TableStats`] so far.
#[must_use]
pub fn table_stats() -> TableStats {
    TableStats {
        points_filled: crate::table::POINTS_FILLED.load(Relaxed),
        ..intern().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::tests::assert_same_bits;
    use crate::{synthetic_tables, MaterialKind};
    use std::sync::Barrier;

    fn assert_synthesized(lib: &CrossSectionLibrary, spec: &MaterialSpec) {
        let want = synthetic_tables(spec.n_points, spec.seed, &spec.kind.synth_params());
        assert_same_bits(&format!("{spec:?} capture"), &lib.absorb, &want.absorb);
        assert_same_bits(&format!("{spec:?} scatter"), &lib.scatter, &want.scatter);
    }

    /// Seeds no other test builds, so a test's own entries are countable.
    fn spec(n_points: usize, seed: u64) -> MaterialSpec {
        MaterialSpec {
            kind: MaterialKind::Fuel,
            n_points,
            seed: 0x1_7e57_0000_0000 + seed,
        }
    }

    /// Every interned library is the un-interned build, bit for bit,
    /// while every other library of the sweep is held alive (so a build
    /// answered with a mis-keyed live library would show), and a second
    /// build of a held spec is the same allocation.
    #[test]
    fn interned_libraries_are_the_synthetic_tables_bit_for_bit() {
        let mut held = Vec::new();
        for kind in MaterialKind::ALL {
            for n_points in [2, 3, 1_000, 30_000] {
                for seed in [0, 1, 20_170_905, u64::MAX] {
                    let spec = MaterialSpec {
                        kind,
                        n_points,
                        seed,
                    };
                    held.push((spec, spec.build()));
                }
            }
        }
        for (spec, lib) in &held {
            assert_synthesized(lib, spec);
            assert!(Arc::ptr_eq(lib, &spec.build()), "{spec:?}");
        }
    }

    /// The table holds no library alive and drops the entry of a dead
    /// one, a dropped clone leaves the entry alone, and a spec rebuilt
    /// after its last holder dropped is synthesized again, to the same
    /// bits.
    #[test]
    fn a_dropped_library_is_freed_and_rebuilds_equal() {
        let spec = spec(257, 1);
        let lib = spec.build();
        drop(CrossSectionLibrary::clone(&lib));
        assert!(Arc::ptr_eq(&lib, &spec.build()));
        let weak = Arc::downgrade(&lib);
        drop(lib);
        assert!(weak.upgrade().is_none(), "the intern kept a library alive");
        assert!(!intern().live.contains_key(&spec), "a dead entry stayed");
        assert_synthesized(&spec.build(), &spec);
    }

    /// Builders racing on one spec converge on one library: every
    /// builder is held inside its synthesis until all have missed the
    /// lookup, so all of them race to publish.
    #[test]
    fn racing_builders_converge_on_one_library() {
        for (round, threads) in [2, 3, 7].into_iter().enumerate() {
            let spec = spec(4_096, 100 + round as u64);
            let all_missed = Barrier::new(threads);
            let synthesize = || {
                all_missed.wait();
                synthetic_tables(spec.n_points, spec.seed, &spec.kind.synth_params())
            };
            let libs: Vec<_> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..threads)
                    .map(|_| s.spawn(|| interned(&spec, synthesize)))
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            assert_synthesized(&libs[0], &spec);
            for lib in &libs[1..] {
                assert!(Arc::ptr_eq(&libs[0], lib), "{threads} threads");
            }
        }
    }

    /// Ten thousand distinct specs built and dropped leave no entry
    /// behind, and a spec held throughout keeps its library.
    #[test]
    fn dropped_libraries_leave_the_table() {
        let held_spec = spec(2, 1_000);
        let held = held_spec.build();
        let (first, count) = (1_001, 10_000);
        let ours = |s: &MaterialSpec| {
            s.kind == MaterialKind::Fuel
                && (spec(2, first).seed..spec(2, first + count).seed).contains(&s.seed)
        };
        for k in 0..count {
            let _ = spec(2, first + k).build();
            let entries = intern().live.keys().filter(|s| ours(s)).count();
            assert_eq!(entries, 0, "a dead entry stayed after {k} builds");
        }
        assert!(Arc::ptr_eq(&held, &held_spec.build()));
    }
}
