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
//!
//! The shapes arrive by value (a concluded run moves them out of its
//! records) and stay where they are: the seam pass first picks, from the
//! control points alone, the shapes whose Bézier-hull box comes within
//! probe reach of a band, and only those become splines to check. A shape
//! out of reach could neither launch a probe nor be hit by one, so the
//! result is the all-shapes pass's.

use crate::checkpoint::StitchedShape;
use crate::partition::Partition;
use cardopc_geometry::{BBox, Point};
use cardopc_mrc::{MrcChecker, MrcRules, Violation};
use cardopc_spline::CardinalSpline;

/// The merged full-chip mask.
#[derive(Clone, Debug, Default, PartialEq)]
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
            let _span = cardopc_litho::span::span("seam_check");
            out.seam_violations = seam_check(&out, &bands, rules);
        }
    }
    out
}

/// The seam pass over the shapes that can reach a band: only those are
/// rebuilt as splines ([`MrcChecker::near_bands`]; on a full chip, a few
/// percent of the mask) and checked; violation indices are mapped back
/// to mask order (mains, then SRAFs). Exact — the result is
/// `check_spacing_in_bands(&mask.splines(), bands)`'s.
fn seam_check(mask: &Stitched, bands: &[BBox], rules: &MrcRules) -> Vec<Violation> {
    let checker = MrcChecker::new(*rules);
    let shapes: Vec<&StitchedShape> = mask.mains.iter().chain(&mask.srafs).collect();
    let loops = shapes.iter().map(|s| (&s.control_points[..], s.tension));
    let (order, near): (Vec<usize>, Vec<CardinalSpline>) = checker
        .near_bands(loops, bands)
        .into_iter()
        .filter_map(|i| {
            let shape = shapes[i];
            let spline = CardinalSpline::closed(shape.control_points.clone(), shape.tension);
            Some((i, spline.ok()?))
        })
        .unzip();
    let mut found = checker.check_spacing_in_bands(&near, bands);
    for v in &mut found {
        v.shape = order[v.shape];
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition_clip, TilingConfig};
    use cardopc_geometry::Polygon;
    use cardopc_layout::Clip;
    use cardopc_mrc::ViolationKind;

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

    /// `stitch`'s seam pass against both oracles: the all-splines entry
    /// point and the unrestricted spacing check filtered to the bands.
    fn assert_exact_seam_pass(p: &Partition, shapes: Vec<StitchedShape>) -> Stitched {
        let rules = MrcRules::opc_node();
        let merged = stitch(p, shapes, Some(&rules));
        let bands = seam_bands(p, &rules);
        let checker = MrcChecker::new(rules);
        let splines = merged.splines();
        assert_eq!(splines.len(), merged.len());
        let all = checker.check_spacing_in_bands(&splines, &bands);
        assert_eq!(merged.seam_violations, all);
        let full = checker.check(&splines);
        let in_bands = |v: &&Violation| {
            v.kind == ViolationKind::Spacing && bands.iter().any(|b| b.contains(v.location))
        };
        let expected: Vec<Violation> = full.iter().filter(in_bands).cloned().collect();
        assert_eq!(merged.seam_violations, expected);
        merged
    }

    #[test]
    fn prefiltered_seam_pass_is_the_all_shapes_pass() {
        let p = partition();
        let merged = assert_exact_seam_pass(
            &p,
            vec![
                shape(Some(0), 967.0, 500.0, 30.0),
                shape(Some(1), 1033.0, 500.0, 30.0),
                shape(Some(2), 300.0, 500.0, 30.0),
                shape(None, 1500.0, 200.0, 12.0),
            ],
        );
        assert!(!merged.seam_violations.is_empty());
    }

    /// A 4-point square of side `side` at tension 1.5: each side bulges
    /// out by `0.25 · 1.5 · side` between corners that stay put.
    fn bulging(id: Option<usize>, right_edge: f64, cy: f64, side: f64) -> StitchedShape {
        let (x0, y0) = (right_edge - side, cy - side / 2.0);
        StitchedShape {
            global_id: id,
            is_sraf: id.is_none(),
            tension: 1.5,
            control_points: vec![
                Point::new(x0, y0),
                Point::new(right_edge, y0),
                Point::new(right_edge, y0 + side),
                Point::new(x0, y0 + side),
            ],
        }
    }

    proptest::proptest! {
        /// Shapes 0–3 × `min_space` from the seam at x = 1000 (mains and
        /// SRAFs, either side), one far away, and one whose control points are all out
        /// of reach of the band while its curve bulges 45 nm into it,
        /// 10 nm from a partner: the hull box must hold the handles, or
        /// the pair's violations go missing.
        #[test]
        fn prefiltered_seam_pass_is_exact_near_seams(seed in 0u64..u64::MAX) {
            let mut rng = cardopc_geometry::SplitMix64::new(seed);
            let p = partition();
            let space = MrcRules::opc_node().min_space;
            let mut shapes = Vec::new();
            for k in 0..rng.range_usize(2, 9) {
                let half = rng.range_f64(15.0, 40.0);
                let gap = rng.range_f64(0.0, 3.0 * space);
                let side = if rng.chance(0.5) { 1.0 } else { -1.0 };
                let cx = 1000.0 + side * (half + gap);
                let cy = 150.0 + k as f64 * 95.0 + rng.range_f64(-20.0, 20.0);
                let id = rng.chance(0.7).then_some(10 + k);
                shapes.push(shape(id, cx, cy, half));
            }
            // Control points end at x = 950 (950 + 18 < 982, the band's
            // edge); the curve reaches 995. The partner's left side is at
            // 1005.
            let bulge = bulging(Some(0), 950.0, 950.0, 120.0);
            let reach = BBox::from_points(bulge.control_points.iter().copied()).expanded(space);
            proptest::prop_assert!(reach.max.x < 1000.0 - space);
            shapes.push(bulge);
            shapes.push(shape(Some(1), 1035.0, 950.0, 30.0));
            // Out of reach, ahead of the near shapes in mask order: the
            // pass's indices must be mapped back.
            shapes.push(shape(Some(5), 300.0, 500.0, 30.0));
            let merged = assert_exact_seam_pass(&p, shapes);
            let bulge_index = 0; // mains sort by id
            proptest::prop_assert!(
                merged.seam_violations.iter().any(|v| v.shape == bulge_index),
                "the bulge's violations are missing"
            );
        }
    }
}
