//! Problem-parameter files.
//!
//! The original mini-app (like the rest of the `arch` project) is driven
//! by small `key value` parameter files (`neutral.params`). This module
//! provides the same workflow: a forgiving line-oriented parser and a
//! builder that turns the parsed keys into a [`Problem`].
//!
//! # Format
//!
//! One `key value` pair per line; `#` starts a comment; unknown keys are
//! an error (typos should not silently change the physics). Keys:
//!
//! ```text
//! # scenario preset (optional; must be the FIRST key when present)
//! scenario shielded_slab       # start from a catalogue scenario, then
//!                              # override any key below
//!
//! # geometry / discretisation
//! nx 1000              # cells along x
//! ny 1000              # cells along y
//! width 1.0            # domain width (m)
//! height 1.0           # domain height (m)
//!
//! # material field
//! density 0.05                 # background density (kg/m^3)
//! material 1 absorber          # id kind [points] [seed] (repeatable);
//!                              # material 0 defaults to `reference`
//! region 0.375 0.625 0.375 0.625 1000.0     # x0 x1 y0 y1 rho (repeatable)
//! region 0.0 0.1 0.0 1.0 50.0 1             # ... with a material id
//!
//! # source + run controls
//! source 0.0 0.1 0.0 0.1       # x0 x1 y0 y1
//! particles 100000
//! dt 1.0e-7
//! timesteps 1
//! seed 20170905
//! initial_energy 1.0e6         # eV
//!
//! # transport controls
//! xs_points 30000              # at most 2^32 + 1 (bin indices are 32-bit)
//! min_energy 1.0               # eV cutoff
//! weight_cutoff 1.0e-6
//! collision_model analogue     # or implicit_capture
//! tally_strategy replicated    # the one value; atomic was removed
//!
//! # checkpoint/restart (optional)
//! checkpoint_file run.ckpt     # enable checkpointed solves at this path
//! fault kill@2                 # inject faults (testing; see FaultPlan)
//!
//! # sharded execution (optional; DESIGN.md §18)
//! shards 4                     # split each solve into 4 fault-isolated shards (1..=32)
//! shard_fault kill@1           # inject shard faults (testing; see ShardFaultPlan)
//! ```
//!
//! Any key may be omitted; defaults reproduce the paper's `csp` problem at
//! `ProblemScale::small()`. Every solve looks up cross sections with the
//! paper's cached linear search; the `lookup_strategy` key that chose
//! another was removed ([`LOOKUP_REMOVED`]).

use crate::checkpoint::FaultPlan;
use crate::config::{CollisionModel, Problem, TallyStrategy, TransportConfig};
use crate::shard::{check_shard_count, ShardFaultPlan};
use neutral_mesh::{MaterialId, Rect, StructuredMesh2D};
use neutral_xs::{constants, MaterialKind, MaterialSet, MaterialSpec};
use std::fmt;

/// A parse or validation failure, with the offending line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamsError {
    /// 1-based line of the failure (0 = file-level).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "params: {}", self.message)
        } else {
            write!(f, "params line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParamsError {}

/// What every front door — the params key `lookup_strategy`, the POSTed
/// key `lookup` and the CLI flag `--lookup` — answers, whatever the
/// value: the lookup is no longer a knob.
pub const LOOKUP_REMOVED: &str = "the lookup strategy is no longer selectable: every solve \
     runs the paper's cached linear search (`hinted`), which gives the bits of binary search, \
     and `hashed` was removed; drop this setting";

fn err(line: usize, message: impl Into<String>) -> ParamsError {
    ParamsError {
        line,
        message: message.into(),
    }
}

/// The most cells a mesh may have: particles carry their cell as two
/// `u32` coordinates, and Over Events parks a pending deposit's cell as
/// one `u32` flat index, so a larger mesh would wrap silently.
const MAX_CELLS: u64 = 1 << 32;

fn check_cells(nx: usize, ny: usize) -> Result<(), String> {
    match (nx as u64).checked_mul(ny as u64) {
        Some(cells) if cells <= MAX_CELLS => Ok(()),
        _ => Err(format!(
            "a {nx} × {ny} mesh is more than 2^32 cells (cell indices are 32-bit)"
        )),
    }
}

/// The most energy points a table may have: a lookup leaves a particle's
/// bin (at most `points − 2`) in a `u32` hint (`XsHints`, the Over Events
/// hint columns), so a larger table would wrap silently.
const MAX_XS_POINTS: u64 = u32::MAX as u64 + 2;

fn check_xs_points(points: usize) -> Result<(), String> {
    if points as u64 <= MAX_XS_POINTS {
        Ok(())
    } else {
        Err(format!(
            "a {points}-point table has more than 2^32 bins (bin indices are 32-bit)"
        ))
    }
}

/// Default table-generation seed of material `id` when a `material` line
/// omits it: decorrelated per id, and exactly the pre-subsystem
/// `seed ^ 0xc5_0dd` for material 0 (so single-material problems keep
/// their historical tables bit for bit).
#[must_use]
pub fn default_material_seed(seed: u64, id: MaterialId) -> u64 {
    seed ^ 0xc5_0dd ^ u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Parsed parameter set; [`ProblemParams::build`] turns it into a
/// [`Problem`].
#[derive(Debug, Clone)]
pub struct ProblemParams {
    /// Cells along x.
    pub nx: usize,
    /// Cells along y.
    pub ny: usize,
    /// Domain width (m).
    pub width: f64,
    /// Domain height (m).
    pub height: f64,
    /// Background density (kg/m^3).
    pub density: f64,
    /// Density/material override regions `(rect, rho, material_id)` —
    /// painted in order over the background (material 0).
    pub regions: Vec<(Rect, f64, MaterialId)>,
    /// Declared materials `(id, spec)`. Material 0 defaults to the
    /// reference kind at `xs_points`/`seed`-derived settings when not
    /// declared; every other referenced id must be declared.
    pub materials: Vec<(MaterialId, MaterialSpec)>,
    /// Source region.
    pub source: Rect,
    /// Histories per timestep.
    pub particles: usize,
    /// Timestep (s).
    pub dt: f64,
    /// Number of timesteps.
    pub timesteps: usize,
    /// Master seed.
    pub seed: u64,
    /// Birth energy (eV).
    pub initial_energy: f64,
    /// Cross-section table points.
    pub xs_points: usize,
    /// Energy cutoff (eV).
    pub min_energy: f64,
    /// Weight cutoff fraction.
    pub weight_cutoff: f64,
    /// Collision resolution model.
    pub collision_model: CollisionModel,
    /// Tally-accumulation backend.
    pub tally_strategy: TallyStrategy,
    /// Checkpoint file path; `Some` enables checkpointed solves
    /// (crash-safe writes at every census boundary, resume on restart).
    pub checkpoint_file: Option<String>,
    /// Deterministic fault-injection schedule for the checkpoint layer
    /// (testing/verification; empty = no faults).
    pub fault: FaultPlan,
    /// Shard count for fault-isolated sharded solves (DESIGN.md §18);
    /// 1 = ordinary unsharded execution. Purely an execution concern:
    /// results are bitwise identical for any value.
    pub shards: usize,
    /// Deterministic shard-level fault-injection schedule
    /// (testing/verification; empty = no faults).
    pub shard_fault: ShardFaultPlan,
}

impl Default for ProblemParams {
    fn default() -> Self {
        Self {
            nx: 1000,
            ny: 1000,
            width: 1.0,
            height: 1.0,
            density: 0.05,
            regions: vec![(Rect::new(0.375, 0.625, 0.375, 0.625), 1.0e3, 0)],
            materials: Vec::new(),
            source: Rect::new(0.0, 0.1, 0.0, 0.1),
            particles: 10_000,
            dt: 1.0e-7,
            timesteps: 1,
            seed: 20_170_905,
            initial_energy: constants::INITIAL_ENERGY_EV,
            xs_points: 30_000,
            min_energy: constants::MIN_ENERGY_OF_INTEREST_EV,
            weight_cutoff: 1.0e-6,
            collision_model: CollisionModel::Analogue,
            tally_strategy: TallyStrategy::default(),
            checkpoint_file: None,
            fault: FaultPlan::none(),
            shards: 1,
            shard_fault: ShardFaultPlan::default(),
        }
    }
}

impl ProblemParams {
    /// Parse a parameter file's contents.
    pub fn parse(text: &str) -> Result<Self, ParamsError> {
        let mut p = Self {
            regions: Vec::new(), // an explicit file defines its own regions
            ..Self::default()
        };
        let mut explicit_regions = false;
        // The line of the last `nx`/`ny` key, where an oversized mesh is
        // reported.
        let mut dims_line = 0;
        let mut first_key = true;
        let mut scenario_seen = false;
        // `material` lines with omitted points/seed resolve against the
        // file's final `xs_points`/`seed` values, whatever the key order.
        struct RawMaterial {
            id: MaterialId,
            kind: MaterialKind,
            n_points: Option<usize>,
            seed: Option<u64>,
        }
        let mut raw_materials: Vec<RawMaterial> = Vec::new();
        // The `scenario` key derives its material-table seeds from the
        // file's seed, but `scenario` must be the first key while `seed`
        // may appear anywhere below it — so pre-scan for the file's final
        // seed value. (A malformed seed line still errors in the main
        // loop below.)
        let file_seed = text
            .lines()
            .filter_map(|raw| {
                let line = raw.split('#').next().unwrap_or("").trim();
                let mut it = line.split_whitespace();
                match (it.next(), it.next(), it.next()) {
                    (Some("seed"), Some(v), None) => v.parse::<u64>().ok(),
                    _ => None,
                }
            })
            .next_back()
            .unwrap_or(p.seed);

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let key = it.next().expect("non-empty line has a token");
            let rest: Vec<&str> = it.collect();

            let one = |rest: &[&str]| -> Result<String, ParamsError> {
                if rest.len() != 1 {
                    return Err(err(lineno, format!("`{key}` takes exactly one value")));
                }
                Ok(rest[0].to_owned())
            };
            let parse_num = |s: &str| -> Result<f64, ParamsError> {
                s.parse()
                    .map_err(|_| err(lineno, format!("`{s}` is not a number")))
            };
            // `nan`, `inf` and overflowing literals parse as `f64`, and no
            // real here may be one: an infinite extent panics building the
            // mesh, an infinite energy tallies `NaN`.
            let parse_f64 = |s: &str| -> Result<f64, ParamsError> {
                let v = parse_num(s)?;
                if !v.is_finite() {
                    return Err(err(lineno, format!("`{s}` is not a finite number")));
                }
                Ok(v)
            };
            let parse_usize = |s: &str| -> Result<usize, ParamsError> {
                s.parse()
                    .map_err(|_| err(lineno, format!("`{s}` is not a positive integer")))
            };

            // `Rect::new` panics on what this refuses (`nan` and `inf`
            // parse as numbers).
            let rect = |v: &[f64]| -> Result<Rect, ParamsError> {
                if !v[..4].iter().all(|x| x.is_finite()) {
                    return Err(err(lineno, "rectangle bounds must be finite"));
                }
                if v[0] >= v[1] || v[2] >= v[3] {
                    return Err(err(lineno, "rectangle bounds inverted"));
                }
                Ok(Rect::new(v[0], v[1], v[2], v[3]))
            };

            match key {
                "nx" => (p.nx, dims_line) = (parse_usize(&one(&rest)?)?, lineno),
                "ny" => (p.ny, dims_line) = (parse_usize(&one(&rest)?)?, lineno),
                "width" => p.width = parse_f64(&one(&rest)?)?,
                "height" => p.height = parse_f64(&one(&rest)?)?,
                "density" => p.density = parse_f64(&one(&rest)?)?,
                "particles" => p.particles = parse_usize(&one(&rest)?)?,
                "dt" => p.dt = parse_f64(&one(&rest)?)?,
                "timesteps" => p.timesteps = parse_usize(&one(&rest)?)?,
                "seed" => {
                    p.seed = one(&rest)?
                        .parse()
                        .map_err(|_| err(lineno, "seed must be a u64"))?;
                }
                "initial_energy" => p.initial_energy = parse_f64(&one(&rest)?)?,
                "xs_points" => {
                    p.xs_points = parse_usize(&one(&rest)?)?;
                    check_xs_points(p.xs_points).map_err(|e| err(lineno, e))?;
                }
                "min_energy" => p.min_energy = parse_f64(&one(&rest)?)?,
                "weight_cutoff" => p.weight_cutoff = parse_f64(&one(&rest)?)?,
                "lookup_strategy" => return Err(err(lineno, LOOKUP_REMOVED)),
                "tally_strategy" => {
                    p.tally_strategy = one(&rest)?.parse().map_err(|e: String| err(lineno, e))?;
                }
                "checkpoint_file" => p.checkpoint_file = Some(one(&rest)?),
                "fault" => {
                    p.fault = one(&rest)?.parse().map_err(|e: String| err(lineno, e))?;
                }
                "shards" => {
                    p.shards = parse_usize(&one(&rest)?)?;
                    check_shard_count(p.shards).map_err(|e| err(lineno, e))?;
                }
                "shard_fault" => {
                    p.shard_fault = one(&rest)?.parse().map_err(|e: String| err(lineno, e))?;
                }
                "collision_model" => {
                    p.collision_model = match one(&rest)?.as_str() {
                        "analogue" => CollisionModel::Analogue,
                        "implicit_capture" => CollisionModel::ImplicitCapture,
                        other => {
                            return Err(err(lineno, format!("unknown collision model `{other}`")))
                        }
                    };
                }
                "source" => {
                    if rest.len() != 4 {
                        return Err(err(lineno, "`source` takes 4 values"));
                    }
                    let v: Result<Vec<f64>, _> = rest.iter().map(|s| parse_num(s)).collect();
                    p.source = rect(&v?)?;
                }
                "region" => {
                    if rest.len() != 5 && rest.len() != 6 {
                        return Err(err(
                            lineno,
                            "`region` takes `x0 x1 y0 y1 rho [material_id]`",
                        ));
                    }
                    let v: Result<Vec<f64>, _> = rest[..4].iter().map(|s| parse_num(s)).collect();
                    let bounds = rect(&v?)?;
                    let rho = parse_f64(rest[4])?;
                    let mat: MaterialId = match rest.get(5) {
                        None => 0,
                        Some(m) => m
                            .parse()
                            .map_err(|_| err(lineno, format!("`{m}` is not a material id")))?,
                    };
                    explicit_regions = true;
                    p.regions.push((bounds, rho, mat));
                }
                "material" => {
                    // material <id> <kind> [points] [seed]
                    if rest.is_empty() || rest.len() > 4 {
                        return Err(err(lineno, "`material` takes `id kind [points] [seed]`"));
                    }
                    let id: MaterialId = rest[0]
                        .parse()
                        .map_err(|_| err(lineno, format!("`{}` is not a material id", rest[0])))?;
                    let kind: MaterialKind = match rest.get(1) {
                        None => MaterialKind::Reference,
                        Some(k) => k.parse().map_err(|e: String| err(lineno, e))?,
                    };
                    let n_points = rest.get(2).map(|v| parse_usize(v)).transpose()?;
                    if let Some(points) = n_points {
                        check_xs_points(points).map_err(|e| err(lineno, e))?;
                    }
                    let seed = rest
                        .get(3)
                        .map(|v| {
                            v.parse()
                                .map_err(|_| err(lineno, "material seed must be a u64"))
                        })
                        .transpose()?;
                    if raw_materials.iter().any(|m| m.id == id) {
                        return Err(err(lineno, format!("material `{id}` declared twice")));
                    }
                    raw_materials.push(RawMaterial {
                        id,
                        kind,
                        n_points,
                        seed,
                    });
                }
                "scenario" => {
                    // Start from a catalogue scenario; later keys override.
                    // Must come first, or it would silently clobber keys
                    // parsed before it.
                    if scenario_seen {
                        return Err(err(
                            lineno,
                            "duplicate `scenario` key (a params file starts from one scenario)",
                        ));
                    }
                    if !first_key {
                        return Err(err(
                            lineno,
                            "`scenario` must be the first key in a params file",
                        ));
                    }
                    let name = one(&rest)?;
                    let scenario =
                        crate::scenario::Scenario::from_name(&name).map_err(|e| err(lineno, e))?;
                    p = scenario.params(crate::config::ProblemScale::small(), file_seed);
                    explicit_regions = true;
                    scenario_seen = true;
                }
                other => return Err(err(lineno, format!("unknown key `{other}`"))),
            }
            first_key = false;
        }

        for m in raw_materials {
            let spec = MaterialSpec {
                kind: m.kind,
                n_points: m.n_points.unwrap_or(p.xs_points),
                seed: m
                    .seed
                    .unwrap_or_else(|| default_material_seed(p.seed, m.id)),
            };
            // A `material` line after a `scenario` key *overrides* the
            // scenario's declaration of the same id ("later keys
            // override"); ids within the file itself are still unique
            // (checked above).
            match p.materials.iter_mut().find(|(id, _)| *id == m.id) {
                Some(entry) => entry.1 = spec,
                None => p.materials.push((m.id, spec)),
            }
        }

        if !explicit_regions && p.regions.is_empty() {
            // No region lines: keep a homogeneous field (background only).
        }
        check_cells(p.nx, p.ny).map_err(|e| err(dims_line, e))?;
        p.validate()?;
        Ok(p)
    }

    /// Check the parameter set for the inconsistencies [`parse`]
    /// rejects (inverted/out-of-domain rectangles, gapped material ids,
    /// birth energy below cutoff, ...). Programmatic constructors — the
    /// scenario catalogue and the fuzz generator — call this to
    /// guarantee every set they hand out would also survive a
    /// file round-trip.
    ///
    /// [`parse`]: ProblemParams::parse
    pub fn validate(&self) -> Result<(), ParamsError> {
        let check = |ok: bool, msg: &str| if ok { Ok(()) } else { Err(err(0, msg)) };
        check(self.nx > 0 && self.ny > 0, "mesh must have cells")?;
        check_cells(self.nx, self.ny).map_err(|e| err(0, e))?;
        let reals = [
            self.width,
            self.height,
            self.density,
            self.dt,
            self.initial_energy,
            self.min_energy,
            self.weight_cutoff,
        ];
        let rects = std::iter::once(&self.source).chain(self.regions.iter().map(|(r, _, _)| r));
        check(
            reals.iter().all(|v| v.is_finite())
                && rects
                    .flat_map(|r| [r.x0, r.x1, r.y0, r.y1])
                    .all(f64::is_finite)
                && self.regions.iter().all(|(_, rho, _)| rho.is_finite()),
            "every real parameter must be finite",
        )?;
        check(
            self.width > 0.0 && self.height > 0.0,
            "domain must have extent",
        )?;
        check(self.density >= 0.0, "density must be non-negative")?;
        check(self.particles > 0, "need at least one particle")?;
        check(self.dt > 0.0, "dt must be positive")?;
        check(self.timesteps > 0, "need at least one timestep")?;
        check(
            self.initial_energy > self.min_energy,
            "birth energy below cutoff",
        )?;
        check(
            (0.0..1.0).contains(&self.weight_cutoff),
            "weight cutoff must be in [0, 1)",
        )?;
        check(self.xs_points >= 2, "cross-section table needs >= 2 points")?;
        check_xs_points(self.xs_points).map_err(|e| err(0, e))?;
        check_shard_count(self.shards).map_err(|e| err(0, e))?;
        let inside =
            |r: &Rect| r.x0 >= 0.0 && r.x1 <= self.width && r.y0 >= 0.0 && r.y1 <= self.height;
        check(inside(&self.source), "source region outside the domain")?;
        let n_materials = self.material_count();
        for (r, rho, mat) in &self.regions {
            check(inside(r), "density region outside the domain")?;
            check(*rho >= 0.0, "region density must be non-negative")?;
            if usize::from(*mat) >= n_materials {
                return Err(err(
                    0,
                    format!(
                        "region references material `{mat}` but only {n_materials} \
                         material(s) are defined (add a `material {mat} ...` line)"
                    ),
                ));
            }
        }
        for (_, spec) in &self.materials {
            check(spec.n_points >= 2, "material table needs >= 2 points")?;
            check_xs_points(spec.n_points).map_err(|e| err(0, e))?;
        }
        // Material 0 may default to the reference kind, but every other
        // id up to the highest declared one must be declared explicitly —
        // a gap is almost certainly a typo'd id.
        for id in 1..n_materials {
            if !self.materials.iter().any(|(i, _)| usize::from(*i) == id) {
                return Err(err(
                    0,
                    format!(
                        "material ids must be contiguous from 0: `{id}` is missing \
                         (highest declared id is {})",
                        n_materials - 1
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Serialize as a params file that [`ProblemParams::parse`] reads
    /// back to an identical parameter set: every key explicit, every
    /// material carrying its resolved points/seed (so nothing re-derives
    /// against file-level defaults), floats in `{:e}` form (Rust float
    /// formatting round-trips exactly — the text is a lossless encoding,
    /// and `text → parse → to_params_text` is a fixpoint). The fuzzer's
    /// corpus files and shrunk repro cases are written with this.
    ///
    /// The test-only `fault` and `shard_fault` plans are not serialized
    /// (fault injection belongs to a harness, not a replayable
    /// scenario); `shards` is emitted only when it differs from the
    /// default of 1.
    #[must_use]
    pub fn to_params_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "nx {}", self.nx);
        let _ = writeln!(s, "ny {}", self.ny);
        let _ = writeln!(s, "width {:e}", self.width);
        let _ = writeln!(s, "height {:e}", self.height);
        let _ = writeln!(s, "density {:e}", self.density);
        for (id, spec) in &self.materials {
            let _ = writeln!(
                s,
                "material {id} {} {} {}",
                spec.kind.name(),
                spec.n_points,
                spec.seed
            );
        }
        for (r, rho, mat) in &self.regions {
            let _ = writeln!(
                s,
                "region {:e} {:e} {:e} {:e} {rho:e} {mat}",
                r.x0, r.x1, r.y0, r.y1
            );
        }
        let _ = writeln!(
            s,
            "source {:e} {:e} {:e} {:e}",
            self.source.x0, self.source.x1, self.source.y0, self.source.y1
        );
        let _ = writeln!(s, "particles {}", self.particles);
        let _ = writeln!(s, "dt {:e}", self.dt);
        let _ = writeln!(s, "timesteps {}", self.timesteps);
        let _ = writeln!(s, "seed {}", self.seed);
        let _ = writeln!(s, "initial_energy {:e}", self.initial_energy);
        let _ = writeln!(s, "xs_points {}", self.xs_points);
        let _ = writeln!(s, "min_energy {:e}", self.min_energy);
        let _ = writeln!(s, "weight_cutoff {:e}", self.weight_cutoff);
        let model = match self.collision_model {
            CollisionModel::Analogue => "analogue",
            CollisionModel::ImplicitCapture => "implicit_capture",
        };
        let _ = writeln!(s, "collision_model {model}");
        let _ = writeln!(s, "tally_strategy {}", self.tally_strategy.name());
        if let Some(path) = &self.checkpoint_file {
            let _ = writeln!(s, "checkpoint_file {path}");
        }
        if self.shards != 1 {
            let _ = writeln!(s, "shards {}", self.shards);
        }
        s
    }

    /// Change the master seed, re-deriving the table-generation seed of
    /// every material that was using the seed-derived default (explicit
    /// `material ... seed` values are preserved). This is the override
    /// the CLI's `--seed` flag applies: the result is identical to the
    /// original file with its `seed` line replaced.
    pub fn reseed(&mut self, seed: u64) {
        let old = self.seed;
        for (id, spec) in &mut self.materials {
            if spec.seed == default_material_seed(old, *id) {
                spec.seed = default_material_seed(seed, *id);
            }
        }
        self.seed = seed;
    }

    /// Number of materials the built problem will carry: the highest
    /// declared id + 1 (at least one — material 0 always exists).
    #[must_use]
    pub fn material_count(&self) -> usize {
        self.materials
            .iter()
            .map(|(id, _)| usize::from(*id) + 1)
            .max()
            .unwrap_or(0)
            .max(1)
    }

    /// Build the material set: declared specs by id, with material 0 (and
    /// nothing else) defaulting to the reference kind at the file-level
    /// `xs_points`/`seed` — exactly the paper's single-material tables.
    #[must_use]
    pub fn material_set(&self) -> MaterialSet {
        let n = self.material_count();
        let specs: Vec<MaterialSpec> = (0..n)
            .map(|id| {
                self.materials
                    .iter()
                    .find(|(i, _)| usize::from(*i) == id)
                    .map(|(_, spec)| *spec)
                    .unwrap_or(MaterialSpec {
                        kind: MaterialKind::Reference,
                        n_points: self.xs_points,
                        seed: default_material_seed(self.seed, id as MaterialId),
                    })
            })
            .collect();
        MaterialSet::from_specs(&specs)
    }

    /// Materialise the problem: build the mesh, paint the density and
    /// material zones, generate the per-material cross-section tables.
    #[must_use]
    pub fn build(&self) -> Problem {
        let mut mesh =
            StructuredMesh2D::uniform(self.nx, self.ny, self.width, self.height, self.density);
        for (rect, rho, mat) in &self.regions {
            let _ = mesh.set_zone(*rect, *rho, *mat);
        }
        Problem {
            mesh,
            materials: self.material_set(),
            source: self.source,
            n_particles: self.particles,
            dt: self.dt,
            n_timesteps: self.timesteps,
            seed: self.seed,
            initial_energy_ev: self.initial_energy,
            transport: TransportConfig {
                min_energy_ev: self.min_energy,
                weight_cutoff: self.weight_cutoff,
                collision_model: self.collision_model,
                tally_strategy: self.tally_strategy,
                ..Default::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LookupStrategy;
    use std::sync::Arc;

    #[test]
    fn defaults_build_a_csp_like_problem() {
        let p = ProblemParams::default().build();
        assert_eq!(p.mesh.nx(), 1000);
        let (cx, cy) = p.mesh.locate(0.5, 0.5);
        assert_eq!(p.mesh.density(cx, cy), 1.0e3);
    }

    #[test]
    fn parses_a_full_file() {
        let text = "\
# a scatter-like problem
nx 64          # small mesh
ny 32
width 2.0
height 1.0
density 1000.0
source 0.9 1.1 0.4 0.6
particles 500
dt 2.0e-7
timesteps 3
seed 7
initial_energy 5.0e5
xs_points 512
min_energy 2.0
weight_cutoff 1e-5
collision_model implicit_capture
";
        let p = ProblemParams::parse(text).unwrap();
        assert_eq!((p.nx, p.ny), (64, 32));
        assert_eq!(p.timesteps, 3);
        assert_eq!(p.collision_model, CollisionModel::ImplicitCapture);
        let problem = p.build();
        assert_eq!(problem.n_particles, 500);
        assert_eq!(problem.mesh.density(0, 0), 1000.0);
        assert_eq!(problem.transport.min_energy_ev, 2.0);
    }

    #[test]
    fn regions_override_background() {
        let text = "\
nx 10
ny 10
density 1.0
region 0.0 0.5 0.0 1.0 42.0
region 0.5 1.0 0.0 0.5 7.0
";
        let problem = ProblemParams::parse(text).unwrap().build();
        assert_eq!(problem.mesh.density(1, 5), 42.0);
        assert_eq!(problem.mesh.density(8, 1), 7.0);
        assert_eq!(problem.mesh.density(8, 8), 1.0);
    }

    #[test]
    fn rejects_unknown_keys_with_line_numbers() {
        let e = ProblemParams::parse("nx 10\nbogus 3\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn rejects_malformed_values() {
        assert!(ProblemParams::parse("nx ten\n").is_err());
        assert!(ProblemParams::parse("source 0 1 0\n").is_err());
        assert!(ProblemParams::parse("region 1 0 0 1 5\n").is_err());
        assert!(ProblemParams::parse("collision_model magic\n").is_err());
    }

    #[test]
    fn rejects_inconsistent_setups() {
        // Source outside the domain.
        let e = ProblemParams::parse("width 1.0\nsource 0.5 1.5 0.0 0.5\n").unwrap_err();
        assert!(e.message.contains("source"));
        // Birth energy below cutoff.
        assert!(ProblemParams::parse("initial_energy 0.5\nmin_energy 1.0\n").is_err());
    }

    /// The `lookup_strategy` key is refused by line, whatever its value,
    /// and a parsed problem runs the cached linear search.
    #[test]
    fn parses_lookup_strategy() {
        for value in ["binary", "hinted", "hashed", "magic"] {
            let e = ProblemParams::parse(&format!("nx 4\nlookup_strategy {value}\n")).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (2, LOOKUP_REMOVED));
        }
        let p = ProblemParams::parse("nx 4\n").unwrap();
        assert_eq!(p.build().transport.xs_search, LookupStrategy::Hinted);
    }

    #[test]
    fn parses_tally_strategy() {
        let p = ProblemParams::parse("tally_strategy replicated\n").unwrap();
        assert_eq!(p.tally_strategy, TallyStrategy::Replicated);
        assert_eq!(
            p.build().transport.tally_strategy,
            TallyStrategy::Replicated
        );
        for value in ["magic", "atomic"] {
            let e = ProblemParams::parse(&format!("nx 4\ntally_strategy {value}\n")).unwrap_err();
            assert_eq!(e.line, 2);
            assert!(e.message.contains(value), "{}", e.message);
        }
    }

    /// Seeded mutation fuzz of the params-text parser: 2 400 mutations of
    /// two catalogue files — bit flips, truncations, random extensions,
    /// numeric tokens rewritten to edge values, misspelt keys — each
    /// parsed to `Ok` or to a `ParamsError` naming a line of the input (0
    /// for a file-level validation failure), without a panic and without
    /// one allocation larger than the input plus the error's own text.
    #[test]
    fn parser_mutation_fuzz_never_panics_or_over_allocates() {
        use crate::config::ProblemScale;
        use crate::scenario::Scenario;
        /// Upper bound on an error's text and the parser's fixed-size state.
        const ERROR_TEXT: usize = 512;
        let seeds = [Scenario::Csp, Scenario::FuelLattice]
            .map(|s| s.params(ProblemScale::tiny(), 7).to_params_text());
        let g = &mut crate::fuzz::Gen::new(20_170_905);
        // Rewrite one token of one line, both chosen by `pick`: the key
        // (gaining a suffix) or one of its values (replaced).
        let retoken = |text: &[u8], pick: u64, key: bool, new: &str| -> Vec<u8> {
            let text = std::str::from_utf8(text).unwrap();
            let target = pick as usize % text.lines().count();
            let mut out = String::new();
            for (l, line) in text.lines().enumerate() {
                let mut tokens: Vec<String> = line.split(' ').map(str::to_owned).collect();
                if l == target && key {
                    tokens[0] += new;
                } else if l == target {
                    let at = 1 + (pick >> 32) as usize % (tokens.len() - 1);
                    tokens[at] = new.to_owned();
                }
                out += &(tokens.join(" ") + "\n");
            }
            out.into_bytes()
        };
        for case in 0..2_400usize {
            let mut evil = seeds[case % 2].clone().into_bytes();
            match case % 5 {
                0 => {
                    let bit = g.usize_in(0, evil.len() * 8);
                    evil[bit / 8] ^= 1 << (bit % 8);
                }
                1 => evil.truncate(g.usize_in(0, evil.len())),
                2 => {
                    let extra = g.usize_in(1, 65);
                    evil.extend((0..extra).map(|_| *g.pick(b" \n#0z-.e")));
                }
                3 => {
                    let edge = ["0", "18446744073709551615", "1e400", "-1", ""];
                    evil = retoken(&evil, g.u64_any(), false, g.pick::<&str>(&edge));
                }
                _ => evil = retoken(&evil, g.u64_any(), true, "s"),
            }
            let text = String::from_utf8_lossy(&evil);
            let (verdict, largest) =
                crate::alloc_probe::largest_during(|| ProblemParams::parse(&text));
            if let Err(e) = verdict {
                assert!(e.line <= text.lines().count(), "case {case}: {e}\n{text}");
                assert!(!e.message.is_empty(), "case {case}:\n{text}");
            }
            assert!(
                largest <= text.len() + ERROR_TEXT,
                "case {case}: allocated {largest} B for a {} B input\n{text}",
                text.len()
            );
        }
    }

    #[test]
    fn material_key_declares_materials() {
        let text = "\
nx 16
xs_points 256
seed 11
material 1 absorber
material 2 moderator 128 99
region 0.0 0.5 0.0 1.0 50.0 1
region 0.5 1.0 0.0 1.0 5.0 2
";
        let p = ProblemParams::parse(text).unwrap();
        assert_eq!(p.material_count(), 3);
        let problem = p.build();
        assert_eq!(problem.materials.len(), 3);
        let (ix, iy) = problem.mesh.locate(0.25, 0.5);
        assert_eq!(problem.mesh.material(ix, iy), 1);
        let (ix, iy) = problem.mesh.locate(0.75, 0.5);
        assert_eq!(problem.mesh.material(ix, iy), 2);
        // Declared points/seed are honoured; defaults derive from the file.
        assert_eq!(problem.materials.library(2).absorb.len(), 128);
        assert_eq!(problem.materials.library(1).absorb.len(), 256);
        // Material 0 keeps the pre-subsystem tables bit for bit.
        let legacy = neutral_xs::CrossSectionLibrary::synthetic(256, 11 ^ 0xc5_0dd);
        assert_eq!(problem.materials.library(0).absorb, legacy.absorb);
    }

    #[test]
    fn material_defaults_resolve_after_whole_file() {
        // `material` before `seed`/`xs_points`: defaults must still use
        // the final values, not the parse-time ones.
        let a = ProblemParams::parse("material 1 fuel\nseed 42\nxs_points 64\n").unwrap();
        let b = ProblemParams::parse("seed 42\nxs_points 64\nmaterial 1 fuel\n").unwrap();
        assert_eq!(a.materials, b.materials);
        assert_eq!(a.materials[0].1.n_points, 64);
        assert_eq!(a.materials[0].1.seed, default_material_seed(42, 1));
    }

    #[test]
    fn rejects_bad_material_declarations() {
        // Unknown kind, named in the error.
        let e = ProblemParams::parse("material 1 unobtainium\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("unobtainium"));
        // Duplicate id.
        let e = ProblemParams::parse("material 1 fuel\nmaterial 1 absorber\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("declared twice"));
        // Non-contiguous ids.
        let e = ProblemParams::parse("material 3 fuel\nmaterial 1 absorber\n").unwrap_err();
        assert!(e.message.contains("contiguous"), "{}", e.message);
        // Bad id token.
        assert!(ProblemParams::parse("material one fuel\n").is_err());
    }

    #[test]
    fn rejects_region_with_undefined_material() {
        let e = ProblemParams::parse("region 0.0 0.5 0.0 1.0 5.0 2\n").unwrap_err();
        assert!(
            e.message.contains("material `2`"),
            "error must name the offending material id: {}",
            e.message
        );
        // ...and the fix works.
        assert!(ProblemParams::parse(
            "material 1 fuel\nmaterial 2 absorber\nregion 0.0 0.5 0.0 1.0 5.0 2\n"
        )
        .is_ok());
    }

    #[test]
    fn scenario_key_loads_catalogue_entry() {
        let p = ProblemParams::parse("scenario fuel_lattice\nparticles 123\n").unwrap();
        assert_eq!(p.particles, 123, "later keys override the scenario");
        assert_eq!(p.material_count(), 2);
        let problem = p.build();
        assert!(!problem.mesh.material_map().is_homogeneous());
    }

    /// Problems whose material specs match share their libraries
    /// (DESIGN.md §4, the intern): texts that differ only in `timesteps`
    /// or `particles` hold the same tables, and so does a clone; another
    /// seed holds its own.
    #[test]
    fn equal_material_specs_share_libraries() {
        let text = "scenario fuel_lattice\nseed 31\nnx 16\nny 16\n";
        let build = |text: &str| ProblemParams::parse(text).unwrap().build();
        let shared = |a: &Problem, b: &Problem| -> Vec<bool> {
            let (a, b) = (a.materials.libraries(), b.materials.libraries());
            assert_eq!(a.len(), b.len());
            a.iter().zip(b).map(|(x, y)| Arc::ptr_eq(x, y)).collect()
        };
        let base = build(text);
        assert_eq!(base.materials.len(), 2);
        for extra in ["timesteps 4\n", "particles 77\n"] {
            let other = build(&format!("{text}{extra}"));
            assert_eq!(shared(&base, &other), [true, true], "{extra}");
        }
        assert_eq!(shared(&base, &base.clone()), [true, true]);
        let reseeded = build(&text.replace("seed 31", "seed 32"));
        assert_eq!(shared(&base, &reseeded), [false, false]);
    }

    #[test]
    fn material_key_overrides_scenario_declaration() {
        // "later keys override the scenario" must hold for materials too.
        let p = ProblemParams::parse("scenario fuel_lattice\nmaterial 1 absorber\n").unwrap();
        let spec = p
            .materials
            .iter()
            .find(|(id, _)| *id == 1)
            .map(|(_, s)| *s)
            .unwrap();
        assert_eq!(spec.kind, MaterialKind::Absorber);
        assert_eq!(p.material_count(), 2);
        // The built set resolves to the override, not the scenario's fuel.
        let direct = crate::scenario::Scenario::FuelLattice
            .params(crate::config::ProblemScale::small(), p.seed)
            .build();
        let overridden = p.build();
        assert_ne!(
            overridden.materials.library(1).absorb,
            direct.materials.library(1).absorb
        );
    }

    #[test]
    fn reseed_rederives_defaulted_material_seeds() {
        let mut p =
            ProblemParams::parse("seed 7\nmaterial 1 absorber\nmaterial 2 fuel 512 123\n").unwrap();
        p.reseed(99);
        assert_eq!(p.seed, 99);
        // Defaulted seed follows the new master seed...
        assert_eq!(p.materials[0].1.seed, default_material_seed(99, 1));
        // ...explicit seeds are preserved.
        assert_eq!(p.materials[1].1.seed, 123);
        // Equivalent to writing the new seed in the file directly.
        let direct =
            ProblemParams::parse("seed 99\nmaterial 1 absorber\nmaterial 2 fuel 512 123\n")
                .unwrap();
        assert_eq!(p.materials, direct.materials);
    }

    #[test]
    fn scenario_key_uses_the_file_seed() {
        // `scenario` must come first but the file's `seed` still applies
        // to the scenario's material tables — same problem as passing the
        // seed to the scenario directly (the CLI `--scenario --seed` path).
        let via_file = ProblemParams::parse("scenario shielded_slab\nseed 13\n").unwrap();
        let direct = crate::scenario::Scenario::ShieldedSlab
            .params(crate::config::ProblemScale::small(), 13);
        assert_eq!(via_file.seed, 13);
        assert_eq!(via_file.materials, direct.materials);
    }

    #[test]
    fn rejects_unknown_or_misplaced_scenario() {
        // Unknown scenario name, named in the error with the catalogue.
        let e = ProblemParams::parse("scenario warp_core\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("warp_core"));
        assert!(e.message.contains("shielded_slab"));
        // `scenario` after other keys would silently clobber them: error.
        let e = ProblemParams::parse("nx 10\nscenario csp\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("first key"));
    }

    #[test]
    fn parses_shard_keys() {
        let p = ProblemParams::parse("shards 4\nshard_fault kill@1,hang@2:3\n").unwrap();
        assert_eq!(p.shards, 4);
        assert_eq!(p.shard_fault.to_string(), "kill@1,hang@2:3");
        // `shards` round-trips through the serializer; the harness-only
        // fault plan does not (like `fault`).
        let text = p.to_params_text();
        assert!(text.contains("shards 4"));
        assert!(!text.contains("shard_fault"));
        let back = ProblemParams::parse(&text).unwrap();
        assert_eq!(back.shards, 4);
        // The default of 1 stays implicit.
        assert!(!ProblemParams::default().to_params_text().contains("shards"));
        // Zero shards is inconsistent, bad grammar is a parse error.
        assert!(ProblemParams::parse("shards 0\n").is_err());
        let e = ProblemParams::parse("shard_fault explode@1\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("explode"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = ProblemParams::parse("\n# just a comment\n\nnx 5\n").unwrap();
        assert_eq!(p.nx, 5);
    }

    #[test]
    fn parsed_problem_runs() {
        let text =
            "nx 32\nny 32\ndensity 1e3\nparticles 50\nsource 0.4 0.6 0.4 0.6\nxs_points 256\n";
        let problem = ProblemParams::parse(text).unwrap().build();
        let report = crate::sim::Simulation::new(problem).run(crate::sim::RunOptions {
            execution: crate::sim::Execution::Sequential,
            ..Default::default()
        });
        assert!(report.counters.total_events() > 0);
    }
}
