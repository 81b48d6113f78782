//! Multi-material cross-section sets.
//!
//! The paper's mini-app carries "a cross-section library of the single
//! material" (§IV-D); real transport problems are heterogeneous. This
//! module provides the material layer on top of [`CrossSectionLibrary`]:
//!
//! * [`MaterialKind`] — named synthetic-material archetypes (parameter
//!   presets for the §IV-D table generator) so scenarios and parameter
//!   files can say "absorber" instead of spelling out eight numbers;
//! * [`MaterialSpec`] — a declarative description of one material (kind,
//!   table size, generation seed) that builds its library on demand, or
//!   shares the one a live problem already holds (`crate::intern`);
//! * [`MaterialSet`] — the indexed collection of per-material libraries a
//!   transport solve resolves cross sections through. Material ids are
//!   the per-cell indices stored in the mesh's material map.
//!
//! Every lookup path of the single-material subsystem (strategy dispatch,
//! batched lane blocks) is available per material, so either
//! [`LookupStrategy`] works unchanged in a multi-material problem.

use crate::lookup::LookupStrategy;
use crate::synth::SynthParams;
use crate::{CrossSectionLibrary, MicroXs, XsHints};
use std::sync::Arc;

/// Per-cell material index, as stored in the mesh's material map.
pub type MaterialId = u16;

/// Named synthetic-material archetypes: parameter presets for the
/// §IV-D dummy-table generator, spanning the behaviours the scenario
/// catalogue needs (see `DESIGN.md` §12).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum MaterialKind {
    /// The paper's original material (the [`SynthParams::default`]
    /// tables): scatter-dominated with a moderate capture component.
    #[default]
    Reference,
    /// Strong absorber: 20x the reference capture with a thinner elastic
    /// component — shield slabs, control elements.
    Absorber,
    /// Moderator: large elastic cross section, weak capture — water-like
    /// slowing-down media.
    Moderator,
    /// Fuel-like material: dense resonance forest and elevated capture —
    /// the lattice pins of reactor-style problems.
    Fuel,
}

impl MaterialKind {
    /// All kinds, in catalogue order.
    pub const ALL: [MaterialKind; 4] = [
        MaterialKind::Reference,
        MaterialKind::Absorber,
        MaterialKind::Moderator,
        MaterialKind::Fuel,
    ];

    /// Stable lower-case name (parameter files, CLI flags, docs).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MaterialKind::Reference => "reference",
            MaterialKind::Absorber => "absorber",
            MaterialKind::Moderator => "moderator",
            MaterialKind::Fuel => "fuel",
        }
    }

    /// The synthetic-table parameters of this archetype.
    #[must_use]
    pub fn synth_params(self) -> SynthParams {
        let reference = SynthParams::default();
        match self {
            MaterialKind::Reference => reference,
            MaterialKind::Absorber => SynthParams {
                capture_at_1mev_barns: 2.0e4,
                scatter_base_barns: 4.0e3,
                n_resonances: 12,
                ..reference
            },
            MaterialKind::Moderator => SynthParams {
                capture_at_1mev_barns: 1.0e2,
                scatter_base_barns: 2.0e4,
                n_resonances: 6,
                ..reference
            },
            MaterialKind::Fuel => SynthParams {
                capture_at_1mev_barns: 5.0e3,
                scatter_base_barns: 8.0e3,
                n_resonances: 48,
                ..reference
            },
        }
    }
}

impl std::str::FromStr for MaterialKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reference" => Ok(MaterialKind::Reference),
            "absorber" => Ok(MaterialKind::Absorber),
            "moderator" => Ok(MaterialKind::Moderator),
            "fuel" => Ok(MaterialKind::Fuel),
            other => Err(format!(
                "unknown material kind `{other}` (reference|absorber|moderator|fuel)"
            )),
        }
    }
}

impl std::fmt::Display for MaterialKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Declarative description of one material's synthetic tables, and the
/// whole key of the library intern: every field joins it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MaterialSpec {
    /// Archetype selecting the table-shape parameters.
    pub kind: MaterialKind,
    /// Energy points per table.
    pub n_points: usize,
    /// Generation seed for the resonance/ripple structure.
    pub seed: u64,
}

impl MaterialSpec {
    /// The material's cross-section library: the one some live holder of
    /// this spec already shares, or a fresh synthesis published for the
    /// next build to share. Either way the bits of
    /// [`crate::synthetic_tables`] at this spec.
    #[must_use]
    pub fn build(&self) -> Arc<CrossSectionLibrary> {
        crate::intern::interned(self, || {
            crate::synth::synthetic_tables(self.n_points, self.seed, &self.kind.synth_params())
        })
    }
}

/// Reusable staging lanes for [`MaterialSet::lookup_many_with_scratch`]
/// on mixed-material lane blocks: the per-material gather (indices,
/// energies, hints) and scatter (results) buffers, cleared but never
/// shrunk between calls so the steady-state grouped lookup performs no
/// allocations. The buffers carry no cross-call meaning.
#[derive(Debug, Default)]
pub struct LaneScratch {
    /// Lane indices of the material group being resolved.
    pub idx: Vec<u32>,
    /// Gathered group energies (eV).
    pub energies: Vec<f64>,
    /// Gathered capture-table hints.
    pub hints_absorb: Vec<u32>,
    /// Gathered scatter-table hints.
    pub hints_scatter: Vec<u32>,
    /// Group capture results (barns).
    pub out_absorb: Vec<f64>,
    /// Group scatter results (barns).
    pub out_scatter: Vec<f64>,
}

impl LaneScratch {
    /// A fresh, empty scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear every lane, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.idx.clear();
        self.energies.clear();
        self.hints_absorb.clear();
        self.hints_scatter.clear();
        self.out_absorb.clear();
        self.out_scatter.clear();
    }
}

/// The per-material cross-section libraries of a transport problem,
/// indexed by [`MaterialId`] (the ids stored in the mesh material map).
///
/// A single-material set (the paper's configuration) behaves exactly like
/// the bare [`CrossSectionLibrary`] it wraps: [`MaterialSet::library`]
/// with id 0 is a plain slice index and one pointer load, so the hot path
/// pays two predictable loads for the material layer.
///
/// The libraries are shared: cloning a set (and so a problem) copies
/// pointers, not tables.
#[derive(Clone, Debug)]
pub struct MaterialSet {
    libs: Vec<Arc<CrossSectionLibrary>>,
}

impl MaterialSet {
    /// A one-material set — the paper's single-material configuration.
    #[must_use]
    pub fn single(lib: CrossSectionLibrary) -> Self {
        Self::from_libraries(vec![lib])
    }

    /// Build a set from explicit libraries (id = position); custom
    /// tables are not interned. Panics on an empty list: material 0 must
    /// always resolve.
    #[must_use]
    pub fn from_libraries(libs: Vec<CrossSectionLibrary>) -> Self {
        Self::from_shared(libs.into_iter().map(Arc::new).collect())
    }

    /// Build a set from specs (id = position), sharing each library a
    /// live holder of its spec already has ([`MaterialSpec::build`]).
    #[must_use]
    pub fn from_specs(specs: &[MaterialSpec]) -> Self {
        Self::from_shared(specs.iter().map(MaterialSpec::build).collect())
    }

    fn from_shared(libs: Vec<Arc<CrossSectionLibrary>>) -> Self {
        assert!(
            !libs.is_empty(),
            "a material set needs at least one material"
        );
        assert!(
            libs.len() <= usize::from(MaterialId::MAX) + 1,
            "too many materials for a MaterialId"
        );
        Self { libs }
    }

    /// Number of materials.
    #[must_use]
    pub fn len(&self) -> usize {
        self.libs.len()
    }

    /// Whether the set holds exactly one material (the paper's case).
    #[must_use]
    pub fn is_single(&self) -> bool {
        self.libs.len() == 1
    }

    /// `false` always — a set holds at least one material. Provided for
    /// API completeness next to [`MaterialSet::len`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The library of material `id`.
    ///
    /// This is the hot-path resolution seam: one bounds-checked slice
    /// index and one pointer load per material switch.
    #[inline]
    #[must_use]
    pub fn library(&self, id: MaterialId) -> &CrossSectionLibrary {
        &self.libs[usize::from(id)]
    }

    /// All libraries, in id order.
    #[must_use]
    pub fn libraries(&self) -> &[Arc<CrossSectionLibrary>] {
        &self.libs
    }

    /// A no-op: neither strategy has an acceleration structure to build
    /// ahead of a timed region. Kept only because the benchmark harness
    /// (`benchmark/src/probes.rs`) still calls it (ROADMAP item 1).
    pub fn prepare(&self, _strategy: LookupStrategy) {}

    /// Look up material `id` at `energy_ev` with `strategy`, updating the
    /// caller's hints; returns the cross sections and the linear-search
    /// steps walked. See [`CrossSectionLibrary::lookup_with`].
    #[inline]
    pub fn lookup_with(
        &self,
        id: MaterialId,
        strategy: LookupStrategy,
        energy_ev: f64,
        hints: &mut XsHints,
    ) -> (MicroXs, u32) {
        self.library(id).lookup_with(strategy, energy_ev, hints)
    }

    /// Batched lookup of a lane block that may span materials: resolve
    /// `energies[i]` in material `mats[i]` for every `i`, updating the
    /// hint lanes in place. Returns the total linear-search steps walked.
    ///
    /// Lane blocks are grouped by material and each group goes through
    /// one contiguous [`CrossSectionLibrary::lookup_many_with`] — a
    /// single-material block (the common case, and always the paper's
    /// case) degenerates to one direct batched call with no gather. The
    /// results are bitwise identical to per-particle
    /// [`MaterialSet::lookup_with`] calls, whatever the grouping.
    #[allow(clippy::too_many_arguments)] // mirrors the parallel SoA lanes
    pub fn lookup_many_with(
        &self,
        strategy: LookupStrategy,
        mats: &[MaterialId],
        energies: &[f64],
        hints_absorb: &mut [u32],
        hints_scatter: &mut [u32],
        out_absorb: &mut [f64],
        out_scatter: &mut [f64],
    ) -> u64 {
        let mut scratch = LaneScratch::new();
        self.lookup_many_with_scratch(
            strategy,
            mats,
            energies,
            hints_absorb,
            hints_scatter,
            out_absorb,
            out_scatter,
            &mut scratch,
        )
    }

    /// [`MaterialSet::lookup_many_with`] with caller-owned staging lanes:
    /// the per-material gather/scatter buffers of a mixed block live in
    /// `scratch` and are reused across calls, so the grouped path stops
    /// allocating per invocation (a single-material block never touches
    /// the scratch at all). Bitwise identical to the allocating variant.
    #[allow(clippy::too_many_arguments)] // mirrors the parallel SoA lanes
    pub fn lookup_many_with_scratch(
        &self,
        strategy: LookupStrategy,
        mats: &[MaterialId],
        energies: &[f64],
        hints_absorb: &mut [u32],
        hints_scatter: &mut [u32],
        out_absorb: &mut [f64],
        out_scatter: &mut [f64],
        scratch: &mut LaneScratch,
    ) -> u64 {
        assert_eq!(mats.len(), energies.len(), "lane block lengths must match");
        let uniform = self.is_single() || mats.windows(2).all(|w| w[0] == w[1]);
        if uniform {
            let id = mats.first().copied().unwrap_or(0);
            return self.library(id).lookup_many_with(
                strategy,
                energies,
                hints_absorb,
                hints_scatter,
                out_absorb,
                out_scatter,
            );
        }

        // Mixed block: group by material id (ascending — a deterministic
        // order, though the per-particle results are order-independent).
        // One pass per declared id over the reusable staging lanes (the
        // set is small; the mesh validated every id at construction).
        let mut steps = 0u64;
        for id_us in 0..self.len() {
            let id = id_us as MaterialId;
            scratch.clear();
            for (i, &m) in mats.iter().enumerate() {
                if m == id {
                    scratch.idx.push(i as u32);
                    scratch.energies.push(energies[i]);
                    scratch.hints_absorb.push(hints_absorb[i]);
                    scratch.hints_scatter.push(hints_scatter[i]);
                }
            }
            if scratch.idx.is_empty() {
                continue;
            }
            scratch.out_absorb.resize(scratch.idx.len(), 0.0);
            scratch.out_scatter.resize(scratch.idx.len(), 0.0);
            steps += self.library(id).lookup_many_with(
                strategy,
                &scratch.energies,
                &mut scratch.hints_absorb,
                &mut scratch.hints_scatter,
                &mut scratch.out_absorb,
                &mut scratch.out_scatter,
            );
            for (j, &iu) in scratch.idx.iter().enumerate() {
                let i = iu as usize;
                hints_absorb[i] = scratch.hints_absorb[j];
                hints_scatter[i] = scratch.hints_scatter[j];
                out_absorb[i] = scratch.out_absorb[j];
                out_scatter[i] = scratch.out_scatter[j];
            }
        }
        steps
    }

    /// Resident bytes of every material's tables (acceleration structures
    /// excluded, matching [`CrossSectionLibrary::footprint_bytes`]).
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.libs.iter().map(|lib| lib.footprint_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_material_set() -> MaterialSet {
        MaterialSet::from_specs(&[
            MaterialSpec {
                kind: MaterialKind::Reference,
                n_points: 512,
                seed: 7,
            },
            MaterialSpec {
                kind: MaterialKind::Absorber,
                n_points: 300, // deliberately different table size
                seed: 8,
            },
        ])
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in MaterialKind::ALL {
            assert_eq!(kind.name().parse::<MaterialKind>().unwrap(), kind);
        }
        assert!("vibranium".parse::<MaterialKind>().is_err());
    }

    #[test]
    fn kinds_produce_distinct_physics() {
        let at = |kind: MaterialKind| {
            let lib = MaterialSpec {
                kind,
                n_points: 1024,
                seed: 3,
            }
            .build();
            lib.lookup_binary(1.0e6)
        };
        let reference = at(MaterialKind::Reference);
        let absorber = at(MaterialKind::Absorber);
        let moderator = at(MaterialKind::Moderator);
        // The absorber must be far more absorbing than the reference, the
        // moderator far less, and the moderator more scattering.
        assert!(absorber.absorb_probability() > 4.0 * reference.absorb_probability());
        assert!(moderator.absorb_probability() < 0.5 * reference.absorb_probability());
        assert!(moderator.scatter_barns > reference.scatter_barns);
    }

    #[test]
    fn single_set_matches_bare_library() {
        let lib = CrossSectionLibrary::synthetic(512, 9);
        let set = MaterialSet::single(lib.clone());
        assert!(set.is_single());
        let mut h1 = XsHints::default();
        let mut h2 = XsHints::default();
        for e in [1.0, 1e3, 1e6] {
            let (a, _) = set.lookup_with(0, LookupStrategy::Hinted, e, &mut h1);
            let b = lib.lookup(e, &mut h2);
            assert_eq!(a, b);
            assert_eq!(h1, h2);
        }
    }

    #[test]
    fn mixed_batch_matches_scalar_lookups() {
        let set = two_material_set();
        for strategy in LookupStrategy::ALL {
            let n = 64;
            let mats: Vec<MaterialId> = (0..n).map(|i| (i % 2) as MaterialId).collect();
            let energies: Vec<f64> = (0..n)
                .map(|i| 1.0e-2 * 1.9f64.powi((i % 40) as i32))
                .collect();
            let mut ha = vec![0u32; n];
            let mut hs = vec![0u32; n];
            let mut oa = vec![0.0; n];
            let mut os = vec![0.0; n];
            set.lookup_many_with(
                strategy, &mats, &energies, &mut ha, &mut hs, &mut oa, &mut os,
            );

            let mut ha2 = vec![0u32; n];
            let mut hs2 = vec![0u32; n];
            for i in 0..n {
                let mut hints = XsHints {
                    absorb: ha2[i],
                    scatter: hs2[i],
                };
                let (m, _) = set.lookup_with(mats[i], strategy, energies[i], &mut hints);
                ha2[i] = hints.absorb;
                hs2[i] = hints.scatter;
                assert_eq!(
                    m.absorb_barns.to_bits(),
                    oa[i].to_bits(),
                    "{strategy:?} i={i}"
                );
                assert_eq!(
                    m.scatter_barns.to_bits(),
                    os[i].to_bits(),
                    "{strategy:?} i={i}"
                );
            }
            assert_eq!(ha, ha2, "{strategy:?}: absorb hints");
            assert_eq!(hs, hs2, "{strategy:?}: scatter hints");
        }
    }

    #[test]
    fn scratch_variant_matches_allocating_variant() {
        let set = two_material_set();
        let mut scratch = LaneScratch::new();
        for strategy in LookupStrategy::ALL {
            let n = 96;
            // Ragged material pattern so group sizes differ.
            let mats: Vec<MaterialId> = (0..n).map(|i| ((i / 3) % 2) as MaterialId).collect();
            let energies: Vec<f64> = (0..n)
                .map(|i| 1.0e-1 * 1.7f64.powi((i % 50) as i32))
                .collect();
            let mut ha = vec![1u32; n];
            let mut hs = vec![2u32; n];
            let mut oa = vec![0.0; n];
            let mut os = vec![0.0; n];
            let s1 = set.lookup_many_with(
                strategy, &mats, &energies, &mut ha, &mut hs, &mut oa, &mut os,
            );
            let mut ha2 = vec![1u32; n];
            let mut hs2 = vec![2u32; n];
            let mut oa2 = vec![0.0; n];
            let mut os2 = vec![0.0; n];
            let s2 = set.lookup_many_with_scratch(
                strategy,
                &mats,
                &energies,
                &mut ha2,
                &mut hs2,
                &mut oa2,
                &mut os2,
                &mut scratch,
            );
            assert_eq!(s1, s2, "{strategy:?}: steps");
            assert_eq!(ha, ha2, "{strategy:?}");
            assert_eq!(hs, hs2, "{strategy:?}");
            assert!(oa.iter().zip(&oa2).all(|(a, b)| a.to_bits() == b.to_bits()));
            assert!(os.iter().zip(&os2).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        // The scratch retains its high-water capacity between calls.
        let cap = scratch.energies.capacity();
        assert!(cap > 0);
        scratch.clear();
        assert_eq!(scratch.energies.capacity(), cap);
    }

    #[test]
    fn hints_survive_material_switches() {
        // A hint that is in range for material 0 (512 points) is out of
        // range for material 1 (300 points); the walk must clamp, not
        // panic, and still land on the right bin.
        let set = two_material_set();
        let mut hints = XsHints {
            absorb: 500,
            scatter: 500,
        };
        let (m, _) = set.lookup_with(1, LookupStrategy::Hinted, 1.0e6, &mut hints);
        let expect = set.library(1).lookup_binary(1.0e6);
        assert_eq!(m, expect);
        assert!(hints.absorb < 300);
    }

    #[test]
    fn footprint_sums_materials() {
        let set = two_material_set();
        assert_eq!(
            set.footprint_bytes(),
            set.library(0).footprint_bytes() + set.library(1).footprint_bytes()
        );
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one material")]
    fn empty_set_rejected() {
        let _ = MaterialSet::from_libraries(Vec::new());
    }
}
