//! Halo-aware clip partitioning.
//!
//! A clip is split into an `nx × ny` grid of *core* windows of
//! `tile_size` nm. Each tile's working window is its core expanded by the
//! halo margin on every side — the halo provides optical context (the
//! SOCS kernels' ambit) so shapes near a core boundary are corrected under
//! the same imaging they would see in a monolithic run. Every target is
//! *owned* by exactly one tile (the one whose core contains its bbox
//! centre, under half-open window semantics), so the stitcher can merge
//! per-tile outputs without duplicates; non-owned halo copies are
//! optimised too but discarded at stitch time.
//!
//! Tile windows are **uniform**: edge tiles extend past the clip into
//! empty space rather than clamping, so every tile shares one engine
//! extent (one kernel set per worker) and, when `tile_size` and `halo`
//! are multiples of the simulation pitch, every tile's raster is
//! pixel-aligned with the monolithic raster.

use crate::RuntimeError;
use cardopc_geometry::{BBox, Point, RTree};
use cardopc_layout::Clip;

/// Tiling parameters, in nanometres.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TilingConfig {
    /// Core window edge length.
    pub tile_size: f64,
    /// Halo margin added on every side of a core window.
    ///
    /// Must cover the optical ambit for seamless stitching: the SOCS
    /// kernels' support radius (a few wavelengths, ~0.5–1 µm at 193i)
    /// plus the maximum total control-point move.
    pub halo: f64,
}

impl TilingConfig {
    /// Validates the tiling parameters.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] for non-positive or non-finite
    /// sizes, or a negative halo.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        if !(self.tile_size.is_finite() && self.tile_size > 0.0) {
            return Err(RuntimeError::InvalidConfig(
                "tile_size must be positive and finite",
            ));
        }
        if !(self.halo.is_finite() && self.halo >= 0.0) {
            return Err(RuntimeError::InvalidConfig(
                "halo must be non-negative and finite",
            ));
        }
        Ok(())
    }
}

/// One tile of a partitioned clip.
#[derive(Clone, Debug)]
pub struct Tile {
    /// Tile index in row-major order (`index = ty * nx + tx`).
    pub index: usize,
    /// Column of this tile in the grid.
    pub tx: usize,
    /// Row of this tile in the grid.
    pub ty: usize,
    /// Working-window origin in chip coordinates (core min − halo; may be
    /// negative on boundary tiles).
    pub origin: Point,
    /// Ownership core in chip coordinates; cores partition the clip
    /// window disjointly under half-open semantics.
    pub core: BBox,
    /// The tile's working clip: every target whose bbox intersects the
    /// halo window, translated into window coordinates (−`origin`).
    pub clip: Clip,
    /// For each target of [`Tile::clip`], its index in the source clip's
    /// target list.
    pub global_ids: Vec<usize>,
    /// For each target of [`Tile::clip`], whether this tile owns it.
    pub owned: Vec<bool>,
}

/// A clip partitioned into halo tiles.
#[derive(Clone, Debug)]
pub struct Partition {
    /// The tiles, in row-major order.
    pub tiles: Vec<Tile>,
    /// Grid columns.
    pub nx: usize,
    /// Grid rows.
    pub ny: usize,
    /// Uniform working-window size (`tile_size + 2·halo`, each axis).
    pub window: Point,
    /// The source clip extent.
    pub clip_size: Point,
    /// The tiling that produced this partition.
    pub config: TilingConfig,
}

/// Partitions a clip into a grid of halo tiles.
///
/// # Errors
///
/// [`RuntimeError::InvalidConfig`] when the tiling parameters are
/// unusable.
pub fn partition_clip(clip: &Clip, config: &TilingConfig) -> Result<Partition, RuntimeError> {
    config.validate()?;
    let ts = config.tile_size;
    let halo = config.halo;
    let nx = (clip.width() / ts).ceil().max(1.0) as usize;
    let ny = (clip.height() / ts).ceil().max(1.0) as usize;
    let window = Point::new(ts + 2.0 * halo, ts + 2.0 * halo);

    // Shape membership via an R-tree over target bboxes: one bulk load,
    // then one window query per tile instead of nx·ny full scans.
    let tree = RTree::bulk_load(
        clip.targets()
            .iter()
            .enumerate()
            .map(|(i, t)| (t.bbox(), i))
            .collect(),
    );

    // Owner tile of a point: the core grid cell containing it, clamped so
    // shapes centred exactly on the clip's far edge stay owned.
    let owner_of = |c: Point| -> (usize, usize) {
        let ox = ((c.x / ts).floor().max(0.0) as usize).min(nx - 1);
        let oy = ((c.y / ts).floor().max(0.0) as usize).min(ny - 1);
        (ox, oy)
    };

    let mut tiles = Vec::with_capacity(nx * ny);
    for ty in 0..ny {
        for tx in 0..nx {
            let index = ty * nx + tx;
            let core_min = Point::new(tx as f64 * ts, ty as f64 * ts);
            let core = BBox::new(core_min, core_min + Point::new(ts, ts));
            let origin = core_min - Point::new(halo, halo);
            let window_box = BBox::new(origin, origin + window);

            // Deterministic membership order: sort the query hits by
            // global index (R-tree traversal order is structural).
            let mut ids = tree.query_indices(&window_box);
            ids.sort_unstable();
            let mut global_ids = Vec::with_capacity(ids.len());
            let mut owned = Vec::with_capacity(ids.len());
            let mut targets = Vec::with_capacity(ids.len());
            for id in ids {
                let gid = tree.item(id).1;
                let target = &clip.targets()[gid];
                global_ids.push(gid);
                owned.push(owner_of(target.bbox().center()) == (tx, ty));
                targets.push(target.translated(-origin));
            }

            tiles.push(Tile {
                index,
                tx,
                ty,
                origin,
                core,
                clip: Clip::new(
                    format!("{}:{}x{}", clip.name(), tx, ty),
                    window.x,
                    window.y,
                    targets,
                ),
                global_ids,
                owned,
            });
        }
    }

    Ok(Partition {
        tiles,
        nx,
        ny,
        window,
        clip_size: Point::new(clip.width(), clip.height()),
        config: *config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardopc_geometry::Polygon;

    fn test_clip() -> Clip {
        // 2000×2000 clip, shapes scattered so each 1000-core owns some and
        // one shape straddles the x = 1000 seam.
        let rects = vec![
            Polygon::rect(Point::new(100.0, 100.0), Point::new(300.0, 170.0)),
            Polygon::rect(Point::new(900.0, 400.0), Point::new(1100.0, 470.0)),
            Polygon::rect(Point::new(1500.0, 200.0), Point::new(1800.0, 270.0)),
            Polygon::rect(Point::new(400.0, 1500.0), Point::new(700.0, 1570.0)),
            Polygon::rect(Point::new(1200.0, 1700.0), Point::new(1600.0, 1770.0)),
        ];
        Clip::new("part-test", 2000.0, 2000.0, rects)
    }

    #[test]
    fn grid_dimensions_and_uniform_windows() {
        let cfg = TilingConfig {
            tile_size: 1000.0,
            halo: 256.0,
        };
        let p = partition_clip(&test_clip(), &cfg).unwrap();
        assert_eq!((p.nx, p.ny), (2, 2));
        assert_eq!(p.tiles.len(), 4);
        assert_eq!(p.window, Point::new(1512.0, 1512.0));
        for (i, t) in p.tiles.iter().enumerate() {
            assert_eq!(t.index, i);
            assert_eq!(t.clip.width(), 1512.0);
            assert_eq!(
                t.origin,
                Point::new(t.tx as f64 * 1000.0 - 256.0, t.ty as f64 * 1000.0 - 256.0)
            );
        }
    }

    #[test]
    fn every_shape_owned_exactly_once() {
        for halo in [0.0, 128.0, 600.0] {
            let cfg = TilingConfig {
                tile_size: 1000.0,
                halo,
            };
            let clip = test_clip();
            let p = partition_clip(&clip, &cfg).unwrap();
            let mut owners = vec![0usize; clip.targets().len()];
            for t in &p.tiles {
                for (gid, owned) in t.global_ids.iter().zip(&t.owned) {
                    if *owned {
                        owners[*gid] += 1;
                    }
                }
            }
            assert_eq!(owners, vec![1; owners.len()], "halo {halo}");
        }
    }

    #[test]
    fn halo_membership_includes_straddlers() {
        let cfg = TilingConfig {
            tile_size: 1000.0,
            halo: 200.0,
        };
        let p = partition_clip(&test_clip(), &cfg).unwrap();
        // Shape 1 spans x ∈ [900, 1100]: member of both left and right
        // tiles of row 0, owned by the right one (centre x = 1000 is in
        // the half-open core [1000, 2000)).
        let left = &p.tiles[0];
        let right = &p.tiles[1];
        let pos_l = left.global_ids.iter().position(|&g| g == 1).unwrap();
        let pos_r = right.global_ids.iter().position(|&g| g == 1).unwrap();
        assert!(!left.owned[pos_l]);
        assert!(right.owned[pos_r]);
        // Translated into each tile's window coordinates.
        assert_eq!(
            left.clip.targets()[pos_l].bbox().min,
            Point::new(900.0 - left.origin.x, 400.0 - left.origin.y)
        );
        assert_eq!(
            right.clip.targets()[pos_r].bbox().min,
            Point::new(900.0 - right.origin.x, 400.0 - right.origin.y)
        );
    }

    #[test]
    fn single_tile_partition_covers_everything() {
        let clip = test_clip();
        let cfg = TilingConfig {
            tile_size: 2000.0,
            halo: 0.0,
        };
        let p = partition_clip(&clip, &cfg).unwrap();
        assert_eq!(p.tiles.len(), 1);
        let t = &p.tiles[0];
        assert_eq!(t.clip.targets().len(), clip.targets().len());
        assert!(t.owned.iter().all(|&o| o));
        assert_eq!(t.origin, Point::ZERO);
    }

    #[test]
    fn invalid_configs_rejected() {
        let clip = test_clip();
        for cfg in [
            TilingConfig {
                tile_size: 0.0,
                halo: 0.0,
            },
            TilingConfig {
                tile_size: f64::NAN,
                halo: 0.0,
            },
            TilingConfig {
                tile_size: 100.0,
                halo: -1.0,
            },
        ] {
            assert!(matches!(
                partition_clip(&clip, &cfg),
                Err(RuntimeError::InvalidConfig(_))
            ));
        }
    }
}
