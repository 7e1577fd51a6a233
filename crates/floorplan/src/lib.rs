//! Chip floorplan geometry.
//!
//! The paper evaluates a 20-core CMP whose floorplan (Figure 3) places a
//! 5×4 array of cores between two L2-cache strips, on a 340 mm² die.
//! This crate provides the geometric substrate shared by the variation
//! model (which superimposes Vth/Leff maps on the floorplan), the
//! critical-path model (which takes the worst path over a core's area),
//! and the thermal model (which needs block areas and adjacency).
//!
//! All coordinates are kept in *normalized die units* — the die spans the
//! unit square — with physical dimensions recoverable through
//! [`Floorplan::die_width_mm`]/[`Floorplan::die_height_mm`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod geometry;
mod layout;

pub use geometry::Rect;
pub use layout::{paper_20_core, FloorplanBuilder};

/// What a floorplan block is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// A processor core (with its private L1 caches), numbered from 0.
    Core(usize),
    /// A bank/strip of the shared L2 cache, numbered from 0.
    L2(usize),
}

/// One rectangular block of the floorplan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// What the block is.
    pub kind: BlockKind,
    /// Position and size in normalized die coordinates.
    pub rect: Rect,
}

/// A complete chip floorplan: a die of physical size carved into
/// non-overlapping rectangular blocks.
///
/// # Example
///
/// ```
/// use floorplan::paper_20_core;
/// let fp = paper_20_core();
/// assert_eq!(fp.core_count(), 20);
/// assert!((fp.die_area_mm2() - 340.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    die_width_mm: f64,
    die_height_mm: f64,
    blocks: Vec<Block>,
}

impl Floorplan {
    /// Creates a floorplan from physical die dimensions and blocks.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are non-positive, any block leaves the unit
    /// square, or two blocks overlap by more than floating-point slop.
    pub fn new(die_width_mm: f64, die_height_mm: f64, blocks: Vec<Block>) -> Self {
        assert!(
            die_width_mm > 0.0 && die_height_mm > 0.0,
            "die dimensions must be positive"
        );
        let unit = Rect::new(0.0, 0.0, 1.0, 1.0);
        for b in &blocks {
            assert!(
                unit.contains_rect(&b.rect),
                "block {:?} leaves the die",
                b.kind
            );
        }
        for (i, a) in blocks.iter().enumerate() {
            for b in &blocks[i + 1..] {
                assert!(
                    a.rect.intersection_area(&b.rect) < 1e-12,
                    "blocks {:?} and {:?} overlap",
                    a.kind,
                    b.kind
                );
            }
        }
        Self {
            die_width_mm,
            die_height_mm,
            blocks,
        }
    }

    /// Physical die width in millimeters.
    pub fn die_width_mm(&self) -> f64 {
        self.die_width_mm
    }

    /// Physical die height in millimeters.
    pub fn die_height_mm(&self) -> f64 {
        self.die_height_mm
    }

    /// Physical die area in mm².
    pub fn die_area_mm2(&self) -> f64 {
        self.die_width_mm * self.die_height_mm
    }

    /// All blocks of the floorplan.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of core blocks.
    pub fn core_count(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| matches!(b.kind, BlockKind::Core(_)))
            .count()
    }

    /// The rectangle of core `idx`.
    ///
    /// # Panics
    ///
    /// Panics if no core with that index exists.
    pub fn core_rect(&self, idx: usize) -> Rect {
        self.blocks
            .iter()
            .find(|b| b.kind == BlockKind::Core(idx))
            .unwrap_or_else(|| panic!("no core {idx} in floorplan"))
            .rect
    }

    /// Physical area of a block in mm².
    pub fn block_area_mm2(&self, block: &Block) -> f64 {
        block.rect.area() * self.die_area_mm2()
    }

    /// Indices of the grid points (cell centers of an `nx × ny` lattice
    /// over the die) that fall inside `rect`.
    ///
    /// Grid indexing is row-major, matching
    /// `vastats::field::GaussianField`.
    pub fn grid_points_in(&self, rect: &Rect, nx: usize, ny: usize) -> Vec<usize> {
        let mut pts = Vec::new();
        for iy in 0..ny {
            let y = (iy as f64 + 0.5) / ny as f64;
            for ix in 0..nx {
                let x = (ix as f64 + 0.5) / nx as f64;
                if rect.contains_point(x, y) {
                    pts.push(iy * nx + ix);
                }
            }
        }
        pts
    }

    /// Pairs of block indices whose rectangles share an edge (within
    /// tolerance), used for lateral thermal resistances. Each pair is
    /// returned once with the lower index first, together with the shared
    /// edge length in normalized units.
    pub fn adjacent_blocks(&self) -> Vec<(usize, usize, f64)> {
        let mut adj = Vec::new();
        for i in 0..self.blocks.len() {
            for j in i + 1..self.blocks.len() {
                let shared = self.blocks[i].rect.shared_edge(&self.blocks[j].rect);
                if shared > 1e-9 {
                    adj.push((i, j, shared));
                }
            }
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_floorplan_has_expected_shape() {
        let fp = paper_20_core();
        assert_eq!(fp.core_count(), 20);
        assert_eq!(fp.blocks().len(), 22); // 20 cores + 2 L2 strips
        assert!((fp.die_area_mm2() - 340.0).abs() < 1e-9);
    }

    #[test]
    fn cores_do_not_overlap_and_fit() {
        // Constructor asserts this; build succeeding is the test.
        let fp = paper_20_core();
        let total_area: f64 = fp.blocks().iter().map(|b| b.rect.area()).sum();
        assert!(total_area <= 1.0 + 1e-9);
        assert!(total_area > 0.95, "floorplan should tile most of the die");
    }

    #[test]
    fn core_rects_are_distinct() {
        let fp = paper_20_core();
        for i in 0..20 {
            for j in i + 1..20 {
                assert_ne!(fp.core_rect(i), fp.core_rect(j));
            }
        }
    }

    #[test]
    fn grid_points_partition_among_disjoint_blocks() {
        let fp = paper_20_core();
        let (nx, ny) = (40, 40);
        let mut seen = vec![0usize; nx * ny];
        for b in fp.blocks() {
            for p in fp.grid_points_in(&b.rect, nx, ny) {
                seen[p] += 1;
            }
        }
        // Every grid point belongs to at most one block.
        assert!(seen.iter().all(|&c| c <= 1));
        // And nearly all points are covered (tiny gaps from rounding).
        let covered = seen.iter().filter(|&&c| c == 1).count();
        assert!(covered as f64 > 0.95 * (nx * ny) as f64);
    }

    #[test]
    fn every_core_has_grid_points_at_paper_resolution() {
        let fp = paper_20_core();
        for i in 0..20 {
            let pts = fp.grid_points_in(&fp.core_rect(i), 60, 60);
            assert!(
                pts.len() >= 20,
                "core {i} has too few grid points: {}",
                pts.len()
            );
        }
    }

    #[test]
    fn adjacency_is_symmetric_and_nonempty() {
        let fp = paper_20_core();
        let adj = fp.adjacent_blocks();
        assert!(!adj.is_empty());
        for &(i, j, len) in &adj {
            assert!(i < j);
            assert!(len > 0.0);
        }
        // A middle core (row 1, col 2 => core index 7) touches 4 cores.
        let count_for = |idx: usize| {
            adj.iter()
                .filter(|&&(i, j, _)| {
                    fp.blocks()[i].kind == BlockKind::Core(idx)
                        || fp.blocks()[j].kind == BlockKind::Core(idx)
                })
                .count()
        };
        assert!(count_for(7) >= 4);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_blocks_rejected() {
        let blocks = vec![
            Block {
                kind: BlockKind::Core(0),
                rect: Rect::new(0.0, 0.0, 0.6, 0.6),
            },
            Block {
                kind: BlockKind::Core(1),
                rect: Rect::new(0.5, 0.5, 0.5, 0.5),
            },
        ];
        Floorplan::new(10.0, 10.0, blocks);
    }

    #[test]
    fn block_area_scales_with_die() {
        let fp = paper_20_core();
        let b = &fp.blocks()[0];
        let area = fp.block_area_mm2(b);
        assert!((area - b.rect.area() * 340.0).abs() < 1e-9);
    }
}
