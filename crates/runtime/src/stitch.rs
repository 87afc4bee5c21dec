//! Merging per-tile outputs into one full-chip mask.
//!
//! The scheduler already guarantees every shape appears in exactly one
//! tile record (owner-tile mains, core-owned SRAFs), so stitching is a
//! deterministic merge: mains sorted by their source-clip index, SRAFs in
//! tile order. What per-tile optimisation *cannot* see is a mask-rule
//! spacing violation between two shapes corrected by different tiles, so
//! the stitcher finishes with a cross-boundary MRC pass restricted to the
//! seam bands — strips of ± `min_space` around every internal core
//! boundary, the only places a cross-tile pair can violate spacing.

use crate::checkpoint::StitchedShape;
use crate::partition::Partition;
use cardopc_geometry::{BBox, Point};
use cardopc_mrc::{MrcChecker, MrcRules, Violation};
use cardopc_spline::CardinalSpline;

/// The merged full-chip mask.
#[derive(Clone, Debug, Default)]
pub struct Stitched {
    /// Main shapes sorted by source-clip target index.
    pub mains: Vec<StitchedShape>,
    /// SRAFs in tile order.
    pub srafs: Vec<StitchedShape>,
    /// Cross-boundary spacing violations found on the seam bands
    /// (report-only; per-tile MRC already resolved intra-tile issues).
    pub seam_violations: Vec<Violation>,
}

impl Stitched {
    /// Total shape count (mains + SRAFs).
    pub fn len(&self) -> usize {
        self.mains.len() + self.srafs.len()
    }

    /// `true` when the mask has no shapes.
    pub fn is_empty(&self) -> bool {
        self.mains.is_empty() && self.srafs.is_empty()
    }

    /// Rebuilds every stitched shape as a spline (mains first, then
    /// SRAFs). Shapes whose control points no longer form a valid spline
    /// are skipped — they were valid when serialised, so this only loses
    /// shapes on a corrupted checkpoint.
    pub fn splines(&self) -> Vec<CardinalSpline> {
        self.mains
            .iter()
            .chain(&self.srafs)
            .filter_map(|s| CardinalSpline::closed(s.control_points.clone(), s.tension).ok())
            .collect()
    }
}

/// The seam bands of a partition under `rules`: strips of half-width
/// `min_space` around every internal core boundary, spanning the clip.
/// Any spacing violation between shapes owned by different tiles must
/// have both offending contours within `min_space` of a core boundary,
/// hence inside a band.
pub fn seam_bands(partition: &Partition, rules: &MrcRules) -> Vec<BBox> {
    let ts = partition.config.tile_size;
    let s = rules.min_space;
    let w = partition.clip_size.x;
    let h = partition.clip_size.y;
    let mut bands = Vec::with_capacity(partition.nx + partition.ny - 2);
    for tx in 1..partition.nx {
        let x = tx as f64 * ts;
        bands.push(BBox::new(Point::new(x - s, 0.0), Point::new(x + s, h)));
    }
    for ty in 1..partition.ny {
        let y = ty as f64 * ts;
        bands.push(BBox::new(Point::new(0.0, y - s), Point::new(w, y + s)));
    }
    bands
}

/// Merges tile records into the full-chip mask and runs the seam MRC
/// pass.
///
/// `shapes` is every tile's stitched shapes (any order); `rules` enables
/// the cross-boundary spacing check when present.
pub fn stitch(
    partition: &Partition,
    shapes: impl IntoIterator<Item = StitchedShape>,
    rules: Option<&MrcRules>,
) -> Stitched {
    let mut mains = Vec::new();
    let mut srafs = Vec::new();
    for shape in shapes {
        if shape.global_id.is_some() {
            mains.push(shape);
        } else {
            srafs.push(shape);
        }
    }
    mains.sort_by_key(|s| s.global_id);

    let mut out = Stitched {
        mains,
        srafs,
        seam_violations: Vec::new(),
    };
    if let Some(rules) = rules {
        let bands = seam_bands(partition, rules);
        if !bands.is_empty() && !out.is_empty() {
            let checker = MrcChecker::new(*rules);
            out.seam_violations = checker.check_spacing_in_bands(&out.splines(), &bands);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition_clip, TilingConfig};
    use cardopc_geometry::Polygon;
    use cardopc_layout::Clip;

    /// Square control polygon with subdivided edges: colinear control
    /// points keep the cardinal spline on the drawn edge (a bare 4-corner
    /// square would bulge outward mid-edge and falsify gap distances).
    fn square(cx: f64, cy: f64, half: f64) -> Vec<Point> {
        let corners = [
            Point::new(cx - half, cy - half),
            Point::new(cx + half, cy - half),
            Point::new(cx + half, cy + half),
            Point::new(cx - half, cy + half),
        ];
        let mut points = Vec::new();
        for i in 0..4 {
            let a = corners[i];
            let b = corners[(i + 1) % 4];
            for k in 0..4 {
                let t = k as f64 / 4.0;
                points.push(Point::new(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t));
            }
        }
        points
    }

    fn shape(id: Option<usize>, cx: f64, cy: f64, half: f64) -> StitchedShape {
        StitchedShape {
            global_id: id,
            is_sraf: id.is_none(),
            tension: 0.5,
            control_points: square(cx, cy, half),
        }
    }

    fn partition() -> crate::partition::Partition {
        let clip = Clip::new(
            "stitch-test",
            2000.0,
            1000.0,
            vec![Polygon::rect(
                Point::new(100.0, 100.0),
                Point::new(200.0, 170.0),
            )],
        );
        partition_clip(
            &clip,
            &TilingConfig {
                tile_size: 1000.0,
                halo: 100.0,
            },
        )
        .unwrap()
    }

    #[test]
    fn merge_sorts_mains_and_keeps_srafs() {
        let p = partition();
        let merged = stitch(
            &p,
            vec![
                shape(Some(2), 1500.0, 500.0, 40.0),
                shape(None, 900.0, 500.0, 15.0),
                shape(Some(0), 200.0, 200.0, 40.0),
            ],
            None,
        );
        let ids: Vec<_> = merged.mains.iter().map(|s| s.global_id).collect();
        assert_eq!(ids, vec![Some(0), Some(2)]);
        assert_eq!(merged.srafs.len(), 1);
        assert_eq!(merged.len(), 3);
        assert!(merged.seam_violations.is_empty());
    }

    #[test]
    fn seam_bands_cover_internal_boundaries_only() {
        let p = partition();
        let rules = MrcRules::opc_node();
        let bands = seam_bands(&p, &rules);
        // 2×1 grid: one vertical seam at x = 1000, no horizontal seams.
        assert_eq!(bands.len(), 1);
        assert_eq!(bands[0].min, Point::new(1000.0 - rules.min_space, 0.0));
        assert_eq!(bands[0].max, Point::new(1000.0 + rules.min_space, 1000.0));
    }

    #[test]
    fn cross_seam_spacing_violation_detected() {
        let p = partition();
        let rules = MrcRules::opc_node();
        // Two 60 nm squares facing each other across x = 1000, 6 nm apart:
        // well under min_space (18 nm), each owned by a different tile.
        let close = stitch(
            &p,
            vec![
                shape(Some(0), 967.0, 500.0, 30.0),
                shape(Some(1), 1033.0, 500.0, 30.0),
            ],
            Some(&rules),
        );
        assert!(
            !close.seam_violations.is_empty(),
            "6 nm cross-seam gap must violate min_space"
        );
        // Same shapes far from each other: clean.
        let far = stitch(
            &p,
            vec![
                shape(Some(0), 500.0, 500.0, 30.0),
                shape(Some(1), 1500.0, 500.0, 30.0),
            ],
            Some(&rules),
        );
        assert!(far.seam_violations.is_empty());
    }
}
