//! The 2D structured grid.
//!
//! The paper deliberately chooses a two-dimensional structured grid "in
//! order to expose those issues that are independent of the geometry"
//! (§IV-C): facet intersection checking reduces to a Cartesian
//! intersection, and the interesting costs are the *random* reads of
//! cell-centred density and the tally write traffic, not geometry handling.

/// An axis-aligned rectangle in mesh coordinates, `[x0, x1) x [y0, y1)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect {
    /// Lower x bound (inclusive).
    pub x0: f64,
    /// Upper x bound (exclusive).
    pub x1: f64,
    /// Lower y bound (inclusive).
    pub y0: f64,
    /// Upper y bound (exclusive).
    pub y1: f64,
}

impl Rect {
    /// Construct a rectangle; panics if the bounds are inverted or non-finite.
    #[must_use]
    pub fn new(x0: f64, x1: f64, y0: f64, y1: f64) -> Self {
        assert!(
            x0.is_finite() && x1.is_finite() && y0.is_finite() && y1.is_finite(),
            "rect bounds must be finite"
        );
        assert!(
            x0 < x1 && y0 < y1,
            "rect bounds inverted: [{x0},{x1})x[{y0},{y1})"
        );
        Self { x0, x1, y0, y1 }
    }

    /// Whether a point lies inside the rectangle.
    #[must_use]
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }

    /// Area of the rectangle.
    #[must_use]
    pub fn area(&self) -> f64 {
        (self.x1 - self.x0) * (self.y1 - self.y0)
    }
}

/// Which facet of its containing cell a particle hit.
///
/// Used by the facet-event handler to update the cell index arithmetically
/// (particles are never re-binned from floating-point coordinates, which
/// would be both slower and fragile at cell boundaries).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Facet {
    /// The low-x cell face.
    XLow,
    /// The high-x cell face.
    XHigh,
    /// The low-y cell face.
    YLow,
    /// The high-y cell face.
    YHigh,
}

/// A 2D structured mesh with cell-centred mass densities and material
/// indices.
///
/// Cells are indexed `(ix, iy)` with `0 <= ix < nx`, `0 <= iy < ny`; the
/// linear index is row-major (`iy * nx + ix`). Edge coordinate arrays are
/// stored explicitly — the grid is uniform, but keeping the arrays mirrors
/// the original mini-app's memory behaviour and supports future
/// non-uniform extensions. The material map ([`crate::MaterialMap`])
/// defaults to homogeneous material 0, the paper's single-material
/// configuration.
#[derive(Clone, Debug)]
pub struct StructuredMesh2D {
    nx: usize,
    ny: usize,
    width: f64,
    height: f64,
    edge_x: Vec<f64>,
    edge_y: Vec<f64>,
    density: Vec<f64>,
    materials: crate::MaterialMap,
}

impl StructuredMesh2D {
    /// Build a mesh with homogeneous density `rho` (kg/m^3) over a
    /// `width` x `height` (metres) domain divided into `nx` x `ny` cells.
    #[must_use]
    pub fn uniform(nx: usize, ny: usize, width: f64, height: f64, rho: f64) -> Self {
        assert!(nx > 0 && ny > 0, "mesh must have at least one cell");
        assert!(
            width > 0.0 && height > 0.0 && width.is_finite() && height.is_finite(),
            "mesh extents must be positive and finite"
        );
        assert!(rho >= 0.0, "density must be non-negative");
        let edge_x = (0..=nx).map(|i| width * i as f64 / nx as f64).collect();
        let edge_y = (0..=ny).map(|j| height * j as f64 / ny as f64).collect();
        Self {
            nx,
            ny,
            width,
            height,
            edge_x,
            edge_y,
            density: vec![rho; nx * ny],
            materials: crate::MaterialMap::uniform(nx, ny, 0),
        }
    }

    /// Overwrite the density of every cell whose *centre* lies inside
    /// `region`. Returns the number of cells changed.
    pub fn set_region(&mut self, region: Rect, rho: f64) -> usize {
        assert!(rho >= 0.0, "density must be non-negative");
        let mut changed = 0;
        for iy in 0..self.ny {
            let cy = 0.5 * (self.edge_y[iy] + self.edge_y[iy + 1]);
            for ix in 0..self.nx {
                let cx = 0.5 * (self.edge_x[ix] + self.edge_x[ix + 1]);
                if region.contains(cx, cy) {
                    let idx = iy * self.nx + ix;
                    self.density[idx] = rho;
                    changed += 1;
                }
            }
        }
        changed
    }

    /// Overwrite the material index of every cell whose *centre* lies
    /// inside `region`. Returns the number of cells changed.
    pub fn set_material_region(&mut self, region: Rect, id: crate::MaterialId) -> usize {
        let mut changed = 0;
        for iy in 0..self.ny {
            let cy = 0.5 * (self.edge_y[iy] + self.edge_y[iy + 1]);
            for ix in 0..self.nx {
                let cx = 0.5 * (self.edge_x[ix] + self.edge_x[ix + 1]);
                if region.contains(cx, cy) {
                    self.materials.set(ix, iy, id);
                    changed += 1;
                }
            }
        }
        changed
    }

    /// Overwrite density **and** material of every cell whose centre lies
    /// inside `region` — the material-zone primitive of the scenario
    /// builders (DESIGN.md §12). Returns the number of cells changed.
    pub fn set_zone(&mut self, region: Rect, rho: f64, id: crate::MaterialId) -> usize {
        let changed = self.set_region(region, rho);
        let also = self.set_material_region(region, id);
        debug_assert_eq!(changed, also);
        changed
    }

    /// Number of cells along x.
    #[must_use]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of cells along y.
    #[must_use]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of cells.
    #[must_use]
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny
    }

    /// Domain width in metres.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Domain height in metres.
    #[must_use]
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Row-major linear index of cell `(ix, iy)`.
    #[inline]
    #[must_use]
    pub fn index(&self, ix: usize, iy: usize) -> usize {
        debug_assert!(ix < self.nx && iy < self.ny);
        iy * self.nx + ix
    }

    /// Cell-centred density of cell `(ix, iy)`.
    ///
    /// This is the random-access read on the particle's critical path
    /// (paper §VI-A: "the cached local density needs to be updated,
    /// requiring a read from the cell centred density mesh").
    #[inline]
    #[must_use]
    pub fn density(&self, ix: usize, iy: usize) -> f64 {
        self.density[self.index(ix, iy)]
    }

    /// The raw density field (row-major).
    #[must_use]
    pub fn density_field(&self) -> &[f64] {
        &self.density
    }

    /// Mutable access to the raw density field (row-major), for builders.
    pub fn density_field_mut(&mut self) -> &mut [f64] {
        &mut self.density
    }

    /// Material index of cell `(ix, iy)`.
    ///
    /// Read on the particle's critical path at facet crossings, next to
    /// the density read: the pair selects both the local number density
    /// and the cross-section library of the cell (DESIGN.md §12).
    #[inline]
    #[must_use]
    pub fn material(&self, ix: usize, iy: usize) -> crate::MaterialId {
        self.materials.get(ix, iy)
    }

    /// The per-cell material map.
    #[must_use]
    pub fn material_map(&self) -> &crate::MaterialMap {
        &self.materials
    }

    /// Mutable access to the material map, for builders.
    pub fn material_map_mut(&mut self) -> &mut crate::MaterialMap {
        &mut self.materials
    }

    /// Geometric bounds `(x0, x1, y0, y1)` of cell `(ix, iy)`.
    #[inline]
    #[must_use]
    pub fn cell_bounds(&self, ix: usize, iy: usize) -> (f64, f64, f64, f64) {
        debug_assert!(ix < self.nx && iy < self.ny);
        (
            self.edge_x[ix],
            self.edge_x[ix + 1],
            self.edge_y[iy],
            self.edge_y[iy + 1],
        )
    }

    /// Cell width along x (uniform grid).
    #[must_use]
    pub fn cell_dx(&self) -> f64 {
        self.width / self.nx as f64
    }

    /// Cell height along y (uniform grid).
    #[must_use]
    pub fn cell_dy(&self) -> f64 {
        self.height / self.ny as f64
    }

    /// Locate the cell containing point `(x, y)`; coordinates are clamped
    /// into the domain. Used only at particle *initialisation* — during
    /// tracking, cell indices are updated arithmetically at facet events.
    #[must_use]
    pub fn locate(&self, x: f64, y: f64) -> (usize, usize) {
        let fx = (x / self.width).clamp(0.0, 1.0 - f64::EPSILON);
        let fy = (y / self.height).clamp(0.0, 1.0 - f64::EPSILON);
        let ix = ((fx * self.nx as f64) as usize).min(self.nx - 1);
        let iy = ((fy * self.ny as f64) as usize).min(self.ny - 1);
        (ix, iy)
    }

    /// Apply a facet crossing to a cell index under reflective boundary
    /// conditions (paper §IV-C: "We currently enforce reflective boundary
    /// conditions").
    ///
    /// Returns `(new_ix, new_iy, reflected)`. When the facet is on the
    /// domain boundary the cell index is unchanged and `reflected` is
    /// `true`: the caller must flip the corresponding direction component.
    #[inline]
    #[must_use]
    pub fn cross_facet(&self, ix: usize, iy: usize, facet: Facet) -> (usize, usize, bool) {
        match facet {
            Facet::XLow => {
                if ix == 0 {
                    (ix, iy, true)
                } else {
                    (ix - 1, iy, false)
                }
            }
            Facet::XHigh => {
                if ix + 1 == self.nx {
                    (ix, iy, true)
                } else {
                    (ix + 1, iy, false)
                }
            }
            Facet::YLow => {
                if iy == 0 {
                    (ix, iy, true)
                } else {
                    (ix, iy - 1, false)
                }
            }
            Facet::YHigh => {
                if iy + 1 == self.ny {
                    (ix, iy, true)
                } else {
                    (ix, iy + 1, false)
                }
            }
        }
    }

    /// Approximate resident size of the mesh data in bytes (edge arrays,
    /// the density field and the material map). Used for the paper's
    /// memory-footprint arithmetic (§VI-F).
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        (self.edge_x.len() + self.edge_y.len() + self.density.len()) * std::mem::size_of::<f64>()
            + self.materials.footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> StructuredMesh2D {
        StructuredMesh2D::uniform(10, 8, 2.0, 1.6, 1.0)
    }

    #[test]
    fn uniform_geometry() {
        let m = mesh();
        assert_eq!(m.num_cells(), 80);
        assert!((m.cell_dx() - 0.2).abs() < 1e-15);
        assert!((m.cell_dy() - 0.2).abs() < 1e-15);
        let (x0, x1, y0, y1) = m.cell_bounds(0, 0);
        assert_eq!((x0, y0), (0.0, 0.0));
        assert!((x1 - 0.2).abs() < 1e-15 && (y1 - 0.2).abs() < 1e-15);
        let (.., y1) = m.cell_bounds(9, 7);
        assert!((y1 - 1.6).abs() < 1e-12);
    }

    #[test]
    fn locate_inverts_bounds() {
        let m = mesh();
        for iy in 0..m.ny() {
            for ix in 0..m.nx() {
                let (x0, x1, y0, y1) = m.cell_bounds(ix, iy);
                let (cx, cy) = (0.5 * (x0 + x1), 0.5 * (y0 + y1));
                assert_eq!(m.locate(cx, cy), (ix, iy));
            }
        }
    }

    #[test]
    fn locate_clamps_outside_points() {
        let m = mesh();
        assert_eq!(m.locate(-1.0, -1.0), (0, 0));
        assert_eq!(m.locate(5.0, 5.0), (9, 7));
        assert_eq!(m.locate(2.0, 1.6), (9, 7)); // exactly on far edges
    }

    #[test]
    fn set_region_hits_expected_cells() {
        let mut m = mesh();
        // One column of cells: x in [0, 0.2), all y.
        let n = m.set_region(Rect::new(0.0, 0.2, 0.0, 1.6), 7.0);
        assert_eq!(n, 8);
        assert_eq!(m.density(0, 0), 7.0);
        assert_eq!(m.density(1, 0), 1.0);
    }

    #[test]
    fn cross_facet_interior_and_boundary() {
        let m = mesh();
        assert_eq!(m.cross_facet(5, 5, Facet::XHigh), (6, 5, false));
        assert_eq!(m.cross_facet(5, 5, Facet::YLow), (5, 4, false));
        assert_eq!(m.cross_facet(0, 5, Facet::XLow), (0, 5, true));
        assert_eq!(m.cross_facet(9, 5, Facet::XHigh), (9, 5, true));
        assert_eq!(m.cross_facet(5, 0, Facet::YLow), (5, 0, true));
        assert_eq!(m.cross_facet(5, 7, Facet::YHigh), (5, 7, true));
    }

    #[test]
    fn footprint_matches_fields() {
        let m = mesh();
        assert_eq!(m.footprint_bytes(), (11 + 9 + 80) * 8 + 80 * 2);
    }

    #[test]
    fn fresh_mesh_is_single_material() {
        let m = mesh();
        assert!(m.material_map().is_homogeneous());
        assert_eq!(m.material(3, 3), 0);
    }

    #[test]
    fn set_zone_updates_density_and_material_together() {
        let mut m = mesh();
        let n = m.set_zone(Rect::new(0.0, 0.2, 0.0, 1.6), 7.0, 2);
        assert_eq!(n, 8);
        assert_eq!(m.density(0, 0), 7.0);
        assert_eq!(m.material(0, 0), 2);
        assert_eq!(m.material(1, 0), 0);
        assert_eq!(m.material_map().max_id(), 2);
        // Material-only regions leave the density untouched.
        let n = m.set_material_region(Rect::new(0.2, 0.4, 0.0, 1.6), 1);
        assert_eq!(n, 8);
        assert_eq!(m.material(1, 0), 1);
        assert_eq!(m.density(1, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        let _ = StructuredMesh2D::uniform(0, 4, 1.0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_rect_rejected() {
        let _ = Rect::new(1.0, 0.0, 0.0, 1.0);
    }
}
