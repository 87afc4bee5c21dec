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

use crate::{map_on_pool, RuntimeError};
use cardopc_geometry::{BBox, Point, Polygon};
use cardopc_layout::Clip;
use cardopc_litho::WorkerPool;

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
/// unusable, or when the tile grid is too large to allocate.
pub fn partition_clip(clip: &Clip, config: &TilingConfig) -> Result<Partition, RuntimeError> {
    let grid = Grid::of(clip, config)?;
    let (nx, ny) = (grid.nx, grid.ny);
    let count = nx.checked_mul(ny).ok_or(TOO_MANY_TILES)?;
    // A grid too large to allocate is a config error, not an abort: try
    // the tile list's allocation before building anything.
    Vec::<Tile>::new()
        .try_reserve_exact(count)
        .map_err(|_| TOO_MANY_TILES)?;
    let mut starts = Vec::new();
    starts
        .try_reserve_exact(count + 1)
        .map_err(|_| TOO_MANY_TILES)?;

    // Membership by binning: each target, in target order, goes to every
    // tile whose window its bbox meets, so each tile's members come out
    // sorted by global index. Two passes over the same candidates: count
    // per tile, then fill one flat array (CSR).
    let boxes: Vec<BBox> = clip.targets().iter().map(Polygon::bbox).collect();
    starts.resize(count + 1, 0);
    grid.for_each_member(&boxes, |tile, _| starts[tile + 1] += 1);
    for i in 0..count {
        starts[i + 1] += starts[i];
    }
    let mut members = vec![0; starts[count]];
    let mut next = starts.clone();
    grid.for_each_member(&boxes, |tile, gid| {
        members[next[tile]] = gid;
        next[tile] += 1;
    });

    // Owner tile of each target: the core grid cell containing its bbox
    // centre, clamped so shapes centred exactly on the clip's far edge
    // stay owned.
    let ts = config.tile_size;
    let owners: Vec<(usize, usize)> = boxes
        .iter()
        .map(|b| {
            let c = b.center();
            let ox = ((c.x / ts).floor().max(0.0) as usize).min(nx - 1);
            let oy = ((c.y / ts).floor().max(0.0) as usize).min(ny - 1);
            (ox, oy)
        })
        .collect();

    // Each tile's window-frame copies, over the pool, in index order.
    let tile = |index: usize| {
        let (tx, ty) = (index % nx, index / nx);
        let (core, origin, _) = grid.boxes(tx, ty);
        let ids = &members[starts[index]..starts[index + 1]];
        let owned = ids.iter().map(|&gid| owners[gid] == (tx, ty)).collect();
        let targets = ids
            .iter()
            .map(|&gid| clip.targets()[gid].translated(-origin));
        Tile {
            index,
            tx,
            ty,
            origin,
            core,
            clip: Clip::new(
                format!("{}:{}x{}", clip.name(), tx, ty),
                grid.window.x,
                grid.window.y,
                targets.collect(),
            ),
            global_ids: ids.to_vec(),
            owned,
        }
    };
    Ok(Partition {
        tiles: map_on_pool(WorkerPool::global(), (0..count).collect(), tile),
        nx,
        ny,
        window: grid.window,
        clip_size: Point::new(clip.width(), clip.height()),
        config: *config,
    })
}

const TOO_MANY_TILES: RuntimeError =
    RuntimeError::InvalidConfig("the tile grid is too large to allocate");

/// The tile grid of a clip under a tiling: its size and each tile's boxes.
struct Grid {
    nx: usize,
    ny: usize,
    tile_size: f64,
    halo: f64,
    /// Uniform working-window size.
    window: Point,
}

impl Grid {
    fn of(clip: &Clip, config: &TilingConfig) -> Result<Grid, RuntimeError> {
        config.validate()?;
        let ts = config.tile_size;
        let halo = config.halo;
        Ok(Grid {
            nx: (clip.width() / ts).ceil().max(1.0) as usize,
            ny: (clip.height() / ts).ceil().max(1.0) as usize,
            tile_size: ts,
            halo,
            window: Point::new(ts + 2.0 * halo, ts + 2.0 * halo),
        })
    }

    /// Tile `(tx, ty)`'s core, window origin and window box.
    fn boxes(&self, tx: usize, ty: usize) -> (BBox, Point, BBox) {
        let ts = self.tile_size;
        let core_min = Point::new(tx as f64 * ts, ty as f64 * ts);
        let core = BBox::new(core_min, core_min + Point::new(ts, ts));
        let origin = core_min - Point::new(self.halo, self.halo);
        (core, origin, BBox::new(origin, origin + self.window))
    }

    /// Calls `visit(tile index, target index)` for every target bbox of
    /// `boxes`, in target order, and every tile whose window box it meets
    /// (the closed [`BBox::intersects`] test). Only tiles in a range one
    /// wider than the bbox's reach on each side are tested, so rounding in
    /// the range cannot drop a member; a bbox that is not finite tests
    /// them all.
    fn for_each_member(&self, boxes: &[BBox], mut visit: impl FnMut(usize, usize)) {
        let (ts, halo) = (self.tile_size, self.halo);
        let span = |lo: f64, hi: f64, n: usize| {
            if !(lo.is_finite() && hi.is_finite()) {
                return 0..n;
            }
            let first = ((lo - halo) / ts).floor() - 1.0;
            let last = ((hi + halo) / ts).floor() + 1.0;
            first.max(0.0) as usize..(last.max(-1.0) + 1.0).min(n as f64) as usize
        };
        for (gid, b) in boxes.iter().enumerate() {
            let cols = span(b.min.x, b.max.x, self.nx);
            for ty in span(b.min.y, b.max.y, self.ny) {
                for tx in cols.clone() {
                    if self.boxes(tx, ty).2.intersects(b) {
                        visit(ty * self.nx + tx, gid);
                    }
                }
            }
        }
    }
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

    /// Membership as the R-tree query gave it before binning: per tile,
    /// the global ids whose bbox meets the window, sorted.
    fn members_by_rtree(clip: &Clip, p: &Partition) -> Vec<Vec<usize>> {
        use cardopc_geometry::RTree;
        let boxes = clip.targets().iter().enumerate();
        let tree = RTree::bulk_load(boxes.map(|(i, t)| (t.bbox(), i)).collect());
        let windows = p
            .tiles
            .iter()
            .map(|t| BBox::new(t.origin, t.origin + p.window));
        let query = |w: BBox| {
            let mut ids: Vec<usize> = tree
                .query_indices(&w)
                .into_iter()
                .map(|i| tree.item(i).1)
                .collect();
            ids.sort_unstable();
            ids
        };
        windows.map(query).collect()
    }

    proptest::proptest! {
        /// Random clips of rects on a grid that puts many edges exactly on
        /// tile and window edges, some straddling tiles, some past the
        /// clip (negative too), under halos from 0 up: the binned
        /// partition has the R-tree's members in the same order, and each
        /// member's ownership and window-frame copy.
        #[test]
        fn binned_partition_is_the_rtree_partition(seed in 0u64..u64::MAX) {
            let mut rng = cardopc_geometry::SplitMix64::new(seed);
            let ts = [256.0, 500.0, 1024.0][rng.range_usize(0, 3)];
            let halo = [0.0, 64.0, ts / 2.0, 1.5 * ts, 37.25][rng.range_usize(0, 5)];
            let (w, h) = (ts * rng.range_usize(1, 6) as f64 - 3.0, ts * rng.range_usize(1, 5) as f64);
            let snap = |v: f64| (v / 32.0).round() * 32.0;
            let mut rects = Vec::new();
            for _ in 0..rng.range_usize(0, 40) {
                let x = snap(rng.range_f64(-ts, w + ts));
                let y = snap(rng.range_f64(-ts, h + ts));
                let (dx, dy) = (rng.range_f64(0.0, 1.5 * ts), rng.range_f64(0.0, 300.0));
                let (dx, dy) = if rng.chance(0.5) { (snap(dx), snap(dy)) } else { (dx, dy) };
                rects.push(Polygon::rect(Point::new(x, y), Point::new(x + dx.max(1.0), y + dy.max(1.0))));
            }
            let clip = Clip::new("prop", w, h, rects);
            let p = partition_clip(&clip, &TilingConfig { tile_size: ts, halo }).unwrap();
            let want = members_by_rtree(&clip, &p);
            let mut owners = vec![0; clip.targets().len()];
            for (tile, ids) in p.tiles.iter().zip(&want) {
                proptest::prop_assert_eq!(&tile.global_ids, ids);
                for (k, &gid) in ids.iter().enumerate() {
                    let target = &clip.targets()[gid];
                    proptest::prop_assert_eq!(&tile.clip.targets()[k], &target.translated(-tile.origin));
                    let c = target.bbox().center();
                    let ox = ((c.x / ts).floor().max(0.0) as usize).min(p.nx - 1);
                    let oy = ((c.y / ts).floor().max(0.0) as usize).min(p.ny - 1);
                    proptest::prop_assert_eq!(tile.owned[k], (ox, oy) == (tile.tx, tile.ty));
                    owners[gid] += usize::from(tile.owned[k]);
                }
            }
            // Every target whose owner window holds it is owned once.
            proptest::prop_assert!(owners.iter().all(|&n| n <= 1));
        }
    }

    #[test]
    fn an_unallocatable_grid_is_a_config_error() {
        let clip = test_clip();
        for tile_size in [1e-6, 1e-300, f64::MIN_POSITIVE] {
            let cfg = TilingConfig {
                tile_size,
                halo: 0.0,
            };
            assert!(matches!(
                partition_clip(&clip, &cfg),
                Err(RuntimeError::InvalidConfig(_))
            ));
        }
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
