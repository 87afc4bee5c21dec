//! Curvilinear mask rule checking (§III-F).
//!
//! Spacing and width use probe segments against an R-tree of all sampled
//! mask edges (Fig. 5(a)); area uses the shoelace formula on the sampled
//! loop; curvature is evaluated analytically on the spline (Eq. 9) — the
//! property that makes spline-based curvilinear OPC cheaper to verify than
//! pixel ILT output.

use crate::{MrcRules, Violation, ViolationKind};
use cardopc_geometry::{BBox, Point, RTree, Segment};
use cardopc_spline::{CardinalSpline, SamplingPlan};

/// Offset applied to probe start points so a probe never grazes the very
/// boundary point it was launched from.
const PROBE_LIFT: f64 = 0.05;
/// Width probes ignore own edges within this circular index distance.
const WIDTH_ADJACENCY: usize = 3;

/// One sampled boundary point with its differential data.
#[derive(Clone, Copy, Debug)]
struct SamplePoint {
    position: Point,
    /// Unit outward normal.
    outward: Point,
    /// Spline segment the sample lies on.
    segment: usize,
    /// Local parameter on that segment.
    t: f64,
}

impl SamplePoint {
    /// A probe violation of `kind` launched from this sample of shape `si`.
    fn violation(&self, kind: ViolationKind, si: usize, value: f64, limit: f64) -> Violation {
        Violation {
            kind,
            shape: si,
            segment: self.segment,
            location: self.position,
            normal: self.outward,
            value,
            limit,
        }
    }
}

/// A shape sampled into a dense polyline with outward normals.
#[derive(Clone, Debug, Default)]
struct SampledShape {
    samples: Vec<SamplePoint>,
    signed_area: f64,
    area: f64,
    centroid: Point,
}

/// Near-zero area threshold, matching `Polygon`'s internal epsilon.
const AREA_EPS: f64 = 1e-9;

/// Shoelace signed area of a closed sample loop, computed directly on the
/// point list (no intermediate `Polygon` allocation).
fn loop_signed_area(points: &[Point]) -> f64 {
    let n = points.len();
    let mut twice = 0.0;
    for i in 0..n {
        twice += points[i].cross(points[(i + 1) % n]);
    }
    0.5 * twice
}

/// Centroid of a closed sample loop; degenerate (near-zero area) loops
/// fall back to the vertex average, like `Polygon::centroid`.
fn loop_centroid(points: &[Point], signed_area: f64) -> Point {
    let n = points.len();
    if n == 0 {
        return Point::ZERO;
    }
    if signed_area.abs() <= AREA_EPS {
        let mut sum = Point::ZERO;
        for &p in points {
            sum += p;
        }
        return sum * (1.0 / n as f64);
    }
    let (mut cx, mut cy) = (0.0, 0.0);
    for i in 0..n {
        let p = points[i];
        let q = points[(i + 1) % n];
        let w = p.cross(q);
        cx += (p.x + q.x) * w;
        cy += (p.y + q.y) * w;
    }
    Point::new(cx / (6.0 * signed_area), cy / (6.0 * signed_area))
}

/// The dense sample loop of one shape (`segment_count * per_segment`
/// points in segment-major order), evaluated through the shared
/// [`SamplingPlan`] registry.
fn sampled_loop(spline: &CardinalSpline, per_segment: usize) -> Vec<Point> {
    let plan = SamplingPlan::get(per_segment, spline.tension());
    let mut pts = spline.sample_with_plan(&plan);
    // Open splines append their final endpoint; the rule checks work on
    // the plain seg-major loop.
    pts.truncate(spline.segment_count() * per_segment);
    pts
}

fn sample_shape(spline: &CardinalSpline, per_segment: usize) -> SampledShape {
    let plan = SamplingPlan::get(per_segment, spline.tension());
    let mut positions = spline.sample_with_plan(&plan);
    positions.truncate(spline.segment_count() * per_segment);
    let signed = loop_signed_area(&positions);
    // `perp` of the travel direction points inward on CCW loops.
    let flip = if signed > 0.0 { -1.0 } else { 1.0 };
    let m = positions.len();
    let samples = positions
        .iter()
        .enumerate()
        .map(|(j, &p)| {
            let segment = j / per_segment;
            let t = plan.ts()[j % per_segment];
            // Normals from the sampled loop itself (central difference):
            // robust even where the spline's parameter derivative vanishes
            // (e.g. tension 0 at control points).
            let chord = positions[(j + 1) % m] - positions[(j + m - 1) % m];
            let n = chord
                .normalized()
                .map(Point::perp)
                .or_else(|| spline.normal(segment, t))
                .unwrap_or(Point::new(1.0, 0.0));
            SamplePoint {
                position: p,
                outward: n * flip,
                segment,
                t,
            }
        })
        .collect();
    let centroid = loop_centroid(&positions, signed);
    SampledShape {
        samples,
        signed_area: signed,
        area: signed.abs(),
        centroid,
    }
}

/// A sampled boundary edge within one shape's loop.
#[derive(Clone, Copy, Debug)]
struct Edge {
    /// Edge index along the shape's sampled loop.
    index: usize,
    segment: Segment,
}

/// Per-shape sampling and edge index, plus the violations that depend on
/// this shape alone.
#[derive(Clone, Debug)]
pub(crate) struct ShapeCache {
    sampled: SampledShape,
    edges: RTree<Edge>,
    bbox: BBox,
    /// Width, area and curvature violations, in that order; `None` until
    /// probed. They travel with the cache, so putting a snapshot back
    /// restores them without a probe.
    own: Option<Vec<Violation>>,
}

impl ShapeCache {
    /// Stand-in for a shape no probe can involve: no samples, no edges,
    /// and an empty bbox that keeps it out of the shape tree.
    fn absent() -> ShapeCache {
        ShapeCache {
            sampled: SampledShape::default(),
            edges: RTree::new(),
            bbox: BBox::EMPTY,
            own: None,
        }
    }

    fn build(spline: &CardinalSpline, per_segment: usize) -> ShapeCache {
        let sampled = sample_shape(spline, per_segment);
        let m = sampled.samples.len();
        let mut items = Vec::with_capacity(m);
        for j in 0..m {
            let seg = Segment::new(
                sampled.samples[j].position,
                sampled.samples[(j + 1) % m].position,
            );
            items.push((
                seg.bbox(),
                Edge {
                    index: j,
                    segment: seg,
                },
            ));
        }
        let edges = RTree::bulk_load(items);
        let bbox = edges.bbox();
        ShapeCache {
            sampled,
            edges,
            bbox,
            own: None,
        }
    }
}

/// Slack added to `min_space` when deciding which shapes a moved shape
/// can affect: a probe's far end is `position + outward * min_space` with
/// `outward` normalised only to rounding, so it may overshoot the launch
/// shape's bbox grown by exactly `min_space` by a few ulps.
const REACH_SLACK: f64 = 1e-6;

/// Caller-owned R-tree traversal stacks of the probe loop: a spacing
/// probe walks an edge tree from inside the shape-tree walk.
#[derive(Default)]
struct ProbeStacks {
    shapes: Vec<usize>,
    edges: Vec<usize>,
}

/// Cached per-shape sampling, edge indices and violation lists, reusable
/// across resolver rounds: only shapes that actually moved pay for
/// re-sampling and index rebuilds, and only they and their neighbours
/// within probe reach are probed again by [`MrcChecker::recheck`].
#[derive(Clone, Debug)]
pub(crate) struct MrcWorld {
    per_segment: usize,
    shapes: Vec<ShapeCache>,
    /// Spacing violations launched from each shape; `None` = stale.
    spacing: Vec<Option<Vec<Violation>>>,
    /// Bboxes, old and new, of the shapes replaced since the last recheck.
    moved: Vec<BBox>,
    /// Rechecks that probed every shape.
    pub(crate) full_probes: usize,
    /// Shapes probed by all other rechecks.
    pub(crate) incremental_probes: usize,
}

impl MrcWorld {
    /// Samples and indexes every shape; every violation list starts stale.
    pub(crate) fn build(shapes: &[CardinalSpline], per_segment: usize) -> MrcWorld {
        MrcWorld {
            per_segment,
            shapes: shapes
                .iter()
                .map(|s| ShapeCache::build(s, per_segment))
                .collect(),
            spacing: vec![None; shapes.len()],
            moved: Vec::new(),
            full_probes: 0,
            incremental_probes: 0,
        }
    }

    /// Re-samples one shape after its control points changed and returns
    /// the cache it replaced (the undo record of a trial move).
    pub(crate) fn refresh(&mut self, idx: usize, spline: &CardinalSpline) -> ShapeCache {
        self.replace(idx, ShapeCache::build(spline, self.per_segment))
    }

    /// Swaps in a cache for shape `idx` and returns the previous one.
    /// Both bboxes are recorded: a neighbour whose probes reached the old
    /// outline may lose violations, one that reaches the new outline may
    /// gain them.
    pub(crate) fn replace(&mut self, idx: usize, cache: ShapeCache) -> ShapeCache {
        self.moved.push(cache.bbox);
        let old = std::mem::replace(&mut self.shapes[idx], cache);
        self.moved.push(old.bbox);
        self.spacing[idx] = None;
        old
    }

    /// Drops one shape, shifting later indices down (mirrors
    /// `Vec::remove` on the shape list). Violations carry shape indices,
    /// so every list goes stale.
    pub(crate) fn remove(&mut self, idx: usize) {
        self.shapes.remove(idx);
        self.shapes.iter_mut().for_each(|c| c.own = None);
        self.spacing.clear();
        self.spacing.resize(self.shapes.len(), None);
        self.moved.clear();
    }

    /// Absolute sampled-loop area of one shape.
    pub(crate) fn area(&self, idx: usize) -> f64 {
        self.shapes[idx].sampled.area
    }

    /// `true` when the shape's sampled loop winds counter-clockwise.
    pub(crate) fn ccw(&self, idx: usize) -> bool {
        self.shapes[idx].sampled.signed_area > 0.0
    }
}

/// Shape-level bbox index for candidate pruning in spacing probes.
fn shape_tree(caches: &[ShapeCache]) -> RTree<usize> {
    let present = caches
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.bbox.is_empty());
    present.map(|(i, c)| (c.bbox, i)).collect()
}

/// The curvilinear mask rule checker.
///
/// ```
/// use cardopc_geometry::Point;
/// use cardopc_mrc::{MrcChecker, MrcRules};
/// use cardopc_spline::CardinalSpline;
///
/// // Two large squares 100 nm apart: clean under the default rules.
/// let mk = |x0: f64| {
///     CardinalSpline::closed(
///         vec![
///             Point::new(x0, 0.0),
///             Point::new(x0 + 200.0, 0.0),
///             Point::new(x0 + 200.0, 200.0),
///             Point::new(x0, 200.0),
///         ],
///         0.0,
///     )
///     .expect("valid loop")
/// };
/// let shapes = [mk(0.0), mk(300.0)];
/// let checker = MrcChecker::new(MrcRules::default());
/// assert!(checker.check(&shapes).is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct MrcChecker {
    rules: MrcRules,
    samples_per_segment: usize,
}

impl MrcChecker {
    /// Creates a checker with the default sampling density (8 points per
    /// spline segment).
    ///
    /// # Panics
    ///
    /// Panics when `rules` contains non-positive limits.
    pub fn new(rules: MrcRules) -> Self {
        Self::with_sampling(rules, 8)
    }

    /// Creates a checker with an explicit sampling density.
    ///
    /// # Panics
    ///
    /// Panics when `rules` is invalid or `samples_per_segment == 0`.
    pub fn with_sampling(rules: MrcRules, samples_per_segment: usize) -> Self {
        rules.assert_valid();
        assert!(
            samples_per_segment > 0,
            "need at least one sample per segment"
        );
        MrcChecker {
            rules,
            samples_per_segment,
        }
    }

    /// The rule set.
    pub fn rules(&self) -> &MrcRules {
        &self.rules
    }

    /// Runs all four rule checks over a set of closed spline shapes.
    pub fn check(&self, shapes: &[CardinalSpline]) -> Vec<Violation> {
        self.recheck(
            shapes,
            &mut MrcWorld::build(shapes, self.samples_per_segment),
        )
    }

    /// Brings the world's violation lists up to date and returns them in
    /// report order: spacing for all shapes, then width, area, curvature.
    /// `world` must describe exactly the shapes in `shapes`, in order.
    ///
    /// A shape is probed again when it was replaced since the last call
    /// (all four rules) or when its bbox grown by `min_space` meets the
    /// old or new bbox of a replaced shape (spacing only: no probe of any
    /// other shape can have reached the replaced outline, before or
    /// after). A fresh or shape-removed world has every list stale, which
    /// makes this the full check.
    pub(crate) fn recheck(
        &self,
        shapes: &[CardinalSpline],
        world: &mut MrcWorld,
    ) -> Vec<Violation> {
        debug_assert_eq!(shapes.len(), world.shapes.len(), "world out of sync");
        let tree = shape_tree(&world.shapes);
        let mut stacks = ProbeStacks::default();
        let reach = self.rules.min_space + REACH_SLACK;
        for region in world.moved.drain(..) {
            tree.for_each_in(&region.expanded(reach), &mut stacks.shapes, |k| {
                world.spacing[tree.item(k).1] = None;
            });
        }
        let mut probed = 0;
        for (si, spline) in shapes.iter().enumerate() {
            if world.shapes[si].own.is_none() {
                let cache = &world.shapes[si];
                let mut own = Vec::new();
                self.width_probes(cache, si, &mut stacks.edges, &mut own);
                self.area_violation(cache, si, &mut own);
                self.curvature_violations(spline, world.ccw(si), si, &mut own);
                world.shapes[si].own = Some(own);
            }
            if world.spacing[si].is_none() {
                let mut found = Vec::new();
                self.spacing_probes(&world.shapes, &tree, si, |_| true, &mut stacks, &mut found);
                world.spacing[si] = Some(found);
                probed += 1;
            }
        }
        if probed == shapes.len() {
            world.full_probes += 1;
        } else {
            world.incremental_probes += probed;
        }

        let mut out: Vec<Violation> = world.spacing.iter().flatten().flatten().copied().collect();
        use ViolationKind::{Area, Curvature, Width};
        for kind in [Width, Area, Curvature] {
            let own = world.shapes.iter().flat_map(|c| c.own.iter().flatten());
            out.extend(own.filter(|v| v.kind == kind));
        }
        out
    }

    /// Spacing-rule check only.
    pub fn check_spacing(&self, shapes: &[CardinalSpline]) -> Vec<Violation> {
        let world = MrcWorld::build(shapes, self.samples_per_segment);
        let tree = shape_tree(&world.shapes);
        let mut stacks = ProbeStacks::default();
        let mut out = Vec::new();
        for si in 0..world.shapes.len() {
            self.spacing_probes(&world.shapes, &tree, si, |_| true, &mut stacks, &mut out);
        }
        out
    }

    /// Spacing-rule check restricted to a set of rectangular bands:
    /// probes are launched only from boundary samples inside one of the
    /// `bands`, and shapes whose bbox misses every band are skipped
    /// entirely.
    ///
    /// Tiled runtimes use this as the cross-boundary seam pass — each
    /// tile's interior was checked during its own MRC stage, so only the
    /// strips around tile boundaries (sized at least `min_space` each
    /// side) need the global re-check. A violation between shapes from
    /// different tiles is reported from the sample inside the band, so a
    /// band covering `± min_space` around a seam sees every cross-seam
    /// pair.
    pub fn check_spacing_in_bands(
        &self,
        shapes: &[CardinalSpline],
        bands: &[BBox],
    ) -> Vec<Violation> {
        if bands.is_empty() {
            return Vec::new();
        }
        // A full-chip seam pass has hundreds of bands and thousands of
        // shapes, nearly all far from every band. Index the bands once; a
        // shape whose outline stays out of probe reach of all of them can
        // neither launch a probe nor be hit by one, so it gets an absent
        // cache instead of normals and an edge index.
        let per = self.samples_per_segment;
        let reach = self.rules.min_space + REACH_SLACK;
        let band_tree: RTree<()> = bands.iter().map(|&b| (b, ())).collect();
        let mut stacks = ProbeStacks::default();
        let build = |spline: &CardinalSpline| {
            let outline = BBox::from_points(sampled_loop(spline, per)).expanded(reach);
            let mut in_reach = false;
            band_tree.for_each_in(&outline, &mut stacks.shapes, |_| in_reach = true);
            if in_reach {
                ShapeCache::build(spline, per)
            } else {
                ShapeCache::absent()
            }
        };
        let caches: Vec<ShapeCache> = shapes.iter().map(build).collect();
        let tree = shape_tree(&caches);
        let mut near: Vec<BBox> = Vec::new();
        let mut out = Vec::new();
        for (si, cache) in caches.iter().enumerate() {
            near.clear();
            band_tree.for_each_in(&cache.bbox, &mut stacks.shapes, |k| near.push(bands[k]));
            if near.is_empty() {
                continue;
            }
            let in_band = |p: Point| near.iter().any(|b| b.contains(p));
            self.spacing_probes(&caches, &tree, si, in_band, &mut stacks, &mut out);
        }
        out
    }

    /// Width-rule check only.
    pub fn check_width(&self, shapes: &[CardinalSpline]) -> Vec<Violation> {
        let world = MrcWorld::build(shapes, self.samples_per_segment);
        let (mut stack, mut out) = (Vec::new(), Vec::new());
        for (si, cache) in world.shapes.iter().enumerate() {
            self.width_probes(cache, si, &mut stack, &mut out);
        }
        out
    }

    /// Area-rule check only.
    pub fn check_area(&self, shapes: &[CardinalSpline]) -> Vec<Violation> {
        let world = MrcWorld::build(shapes, self.samples_per_segment);
        let mut out = Vec::new();
        for (si, cache) in world.shapes.iter().enumerate() {
            self.area_violation(cache, si, &mut out);
        }
        out
    }

    /// Curvature-rule check only (fully analytic, no sampling of probes;
    /// the loop orientation comes from a direct shoelace pass).
    pub fn check_curvature(&self, shapes: &[CardinalSpline]) -> Vec<Violation> {
        let mut out = Vec::new();
        for (si, spline) in shapes.iter().enumerate() {
            let ccw = loop_signed_area(&sampled_loop(spline, self.samples_per_segment)) > 0.0;
            self.curvature_violations(spline, ccw, si, &mut out);
        }
        out
    }

    /// Launches one spacing probe from every sample of shape `si` that
    /// `keep` accepts and appends a violation wherever a distinct shape's
    /// edge lies within `min_space`.
    fn spacing_probes(
        &self,
        shapes: &[ShapeCache],
        shape_tree: &RTree<usize>,
        si: usize,
        keep: impl Fn(Point) -> bool,
        stacks: &mut ProbeStacks,
        out: &mut Vec<Violation>,
    ) {
        let c = self.rules.min_space;
        let samples = &shapes[si].sampled.samples;
        for s in samples.iter().filter(|s| keep(s.position)) {
            let start = s.position + s.outward * PROBE_LIFT;
            let probe = Segment::new(start, s.position + s.outward * c);
            let probe_box = probe.bbox();
            let mut worst: Option<f64> = None;
            shape_tree.for_each_in(&probe_box, &mut stacks.shapes, |cand| {
                let sj = shape_tree.item(cand).1;
                if sj == si {
                    // Spacing is checked between distinct shapes
                    // (Fig. 5(a)); same-shape notch spacing is part of
                    // the "well-optimized checking" the paper defers to
                    // future work.
                    return;
                }
                let other = &shapes[sj].edges;
                other.for_each_in(&probe_box, &mut stacks.edges, |idx| {
                    let edge = &other.item(idx).1;
                    if probe.intersects(&edge.segment) {
                        let dist = edge.segment.distance_to_point(s.position);
                        worst = Some(worst.map_or(dist, |w: f64| w.min(dist)));
                    }
                });
            });
            out.extend(worst.map(|dist| s.violation(ViolationKind::Spacing, si, dist, c)));
        }
    }

    /// Width probes of one shape. Width is a same-shape property: only
    /// this shape's edge index is probed.
    fn width_probes(
        &self,
        cache: &ShapeCache,
        si: usize,
        stack: &mut Vec<usize>,
        out: &mut Vec<Violation>,
    ) {
        let c = self.rules.min_width;
        let m = cache.sampled.samples.len();
        for s in &cache.sampled.samples {
            let start = s.position - s.outward * PROBE_LIFT;
            let probe = Segment::new(start, s.position - s.outward * c);
            let own_index = sample_index(s, self.samples_per_segment);
            let mut worst: Option<f64> = None;
            cache.edges.for_each_in(&probe.bbox(), stack, |idx| {
                let edge = &cache.edges.item(idx).1;
                if circular_distance(edge.index, own_index, m) > WIDTH_ADJACENCY
                    && probe.intersects(&edge.segment)
                {
                    let dist = edge.segment.distance_to_point(s.position);
                    worst = Some(worst.map_or(dist, |w: f64| w.min(dist)));
                }
            });
            out.extend(worst.map(|dist| s.violation(ViolationKind::Width, si, dist, c)));
        }
    }

    fn area_violation(&self, cache: &ShapeCache, si: usize, out: &mut Vec<Violation>) {
        let shape = &cache.sampled;
        if shape.area < self.rules.min_area {
            out.push(Violation {
                kind: ViolationKind::Area,
                shape: si,
                segment: 0,
                location: shape.centroid,
                normal: Point::ZERO,
                value: shape.area,
                limit: self.rules.min_area,
            });
        }
    }

    fn curvature_violations(
        &self,
        spline: &CardinalSpline,
        ccw: bool,
        si: usize,
        out: &mut Vec<Violation>,
    ) {
        let flip = if ccw { -1.0 } else { 1.0 };
        for seg in 0..spline.segment_count() {
            for k in 0..self.samples_per_segment {
                let t = k as f64 / self.samples_per_segment as f64;
                let kappa = spline.curvature(seg, t).abs();
                if kappa > self.rules.max_curvature {
                    let normal = spline
                        .normal(seg, t)
                        .map(|n| n * flip)
                        .unwrap_or(Point::ZERO);
                    out.push(Violation {
                        kind: ViolationKind::Curvature,
                        shape: si,
                        segment: seg,
                        location: spline.point(seg, t),
                        normal,
                        value: kappa,
                        limit: self.rules.max_curvature,
                    });
                }
            }
        }
    }
}

/// Global sample index of a sample point within its shape's loop.
#[inline]
fn sample_index(s: &SamplePoint, per_segment: usize) -> usize {
    s.segment * per_segment + (s.t * per_segment as f64).round() as usize
}

/// Circular index distance on a loop of length `n`.
#[inline]
fn circular_distance(a: usize, b: usize, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let d = a.abs_diff(b) % n;
    d.min(n - d)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MrcChecker {
        /// [`MrcChecker::check`] on a maintained world's sampling and
        /// edge indices, with every violation list treated as stale.
        fn check_with_world(&self, shapes: &[CardinalSpline], world: &MrcWorld) -> Vec<Violation> {
            let mut stale = world.clone();
            stale.shapes.iter_mut().for_each(|c| c.own = None);
            stale.spacing.fill(None);
            self.recheck(shapes, &mut stale)
        }
    }

    fn square(x0: f64, y0: f64, w: f64, h: f64) -> CardinalSpline {
        // Tension 0 keeps the loop close to the polygon for predictable
        // geometry in tests; interpolation still holds.
        CardinalSpline::closed(
            vec![
                Point::new(x0, y0),
                Point::new(x0 + w, y0),
                Point::new(x0 + w, y0 + h),
                Point::new(x0, y0 + h),
            ],
            0.0,
        )
        .unwrap()
    }

    fn circle(cx: f64, cy: f64, r: f64, n: usize) -> CardinalSpline {
        let pts = (0..n)
            .map(|i| {
                let th = std::f64::consts::TAU * i as f64 / n as f64;
                Point::new(cx + r * th.cos(), cy + r * th.sin())
            })
            .collect();
        CardinalSpline::closed(pts, 0.5).unwrap()
    }

    fn count_kind(vs: &[Violation], kind: ViolationKind) -> usize {
        vs.iter().filter(|v| v.kind == kind).count()
    }

    #[test]
    fn clean_layout_no_violations() {
        let shapes = [
            square(0.0, 0.0, 200.0, 200.0),
            square(300.0, 0.0, 200.0, 200.0),
        ];
        let checker = MrcChecker::new(MrcRules::default());
        let vs = checker.check(&shapes);
        assert!(vs.is_empty(), "unexpected: {vs:?}");
    }

    #[test]
    fn spacing_violation_detected_between_close_shapes() {
        // Gap of 10 nm < 25 nm limit.
        let shapes = [
            square(0.0, 0.0, 100.0, 100.0),
            square(110.0, 0.0, 100.0, 100.0),
        ];
        let checker = MrcChecker::new(MrcRules::default());
        let vs = checker.check_spacing(&shapes);
        assert!(!vs.is_empty());
        // Violations reported from both shapes, facing each other.
        assert!(vs.iter().any(|v| v.shape == 0));
        assert!(vs.iter().any(|v| v.shape == 1));
        for v in &vs {
            assert!(v.value < 25.0 + 1e-9);
            assert_eq!(v.kind, ViolationKind::Spacing);
        }
    }

    #[test]
    fn spacing_respects_limit_boundary() {
        // Gap of 30 nm > 25 nm: clean.
        let shapes = [
            square(0.0, 0.0, 100.0, 100.0),
            square(130.0, 0.0, 100.0, 100.0),
        ];
        let checker = MrcChecker::new(MrcRules::default());
        assert!(checker.check_spacing(&shapes).is_empty());
    }

    #[test]
    fn width_violation_on_thin_shape() {
        // 20 nm-wide bar < 40 nm limit.
        let shapes = [square(0.0, 0.0, 300.0, 20.0)];
        let checker = MrcChecker::new(MrcRules::default());
        let vs = checker.check_width(&shapes);
        assert!(!vs.is_empty());
        for v in &vs {
            assert_eq!(v.kind, ViolationKind::Width);
            assert!(v.value < 40.0 + 1e-9);
        }
    }

    #[test]
    fn wide_shape_passes_width() {
        let shapes = [square(0.0, 0.0, 300.0, 100.0)];
        let checker = MrcChecker::new(MrcRules::default());
        assert!(checker.check_width(&shapes).is_empty());
    }

    #[test]
    fn area_violation_on_tiny_shape() {
        // 30x30 = 900 nm² < 1500 nm².
        let shapes = [square(0.0, 0.0, 30.0, 30.0)];
        let checker = MrcChecker::new(MrcRules::default());
        let vs = checker.check_area(&shapes);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, ViolationKind::Area);
        assert!(vs[0].value < 1500.0);
    }

    #[test]
    fn curvature_violation_on_small_circle() {
        // Radius 8 nm -> curvature 0.125 > 1/15.
        let shapes = [circle(100.0, 100.0, 8.0, 12)];
        let checker = MrcChecker::new(MrcRules::default());
        let vs = checker.check_curvature(&shapes);
        assert!(!vs.is_empty());
        for v in &vs {
            assert_eq!(v.kind, ViolationKind::Curvature);
            assert!(v.value > 1.0 / 15.0);
        }
    }

    #[test]
    fn curvature_clean_on_large_circle() {
        // Radius 100 nm -> curvature 0.01 << 1/15.
        let shapes = [circle(300.0, 300.0, 100.0, 24)];
        let checker = MrcChecker::new(MrcRules::default());
        assert!(checker.check_curvature(&shapes).is_empty());
    }

    #[test]
    fn large_circle_fully_clean() {
        let shapes = [circle(300.0, 300.0, 100.0, 24)];
        let checker = MrcChecker::new(MrcRules::default());
        let vs = checker.check(&shapes);
        assert!(vs.is_empty(), "unexpected: {:?}", &vs[..vs.len().min(3)]);
    }

    #[test]
    fn kinds_are_attributed_correctly() {
        // One thin bar and one pair of close squares: width + spacing, no
        // area (bar area = 300*20 = 6000 > 1500).
        let shapes = [
            square(0.0, 200.0, 300.0, 20.0),
            square(0.0, 0.0, 100.0, 100.0),
            square(110.0, 0.0, 100.0, 100.0),
        ];
        let checker = MrcChecker::new(MrcRules::default());
        let vs = checker.check(&shapes);
        assert!(count_kind(&vs, ViolationKind::Width) > 0);
        assert!(count_kind(&vs, ViolationKind::Spacing) > 0);
        assert_eq!(count_kind(&vs, ViolationKind::Area), 0);
        // Width violations only on shape 0.
        assert!(vs
            .iter()
            .filter(|v| v.kind == ViolationKind::Width)
            .all(|v| v.shape == 0));
    }

    #[test]
    fn band_restricted_spacing_matches_full_check_inside_band() {
        // Two violating pairs: one straddling x = 105 (inside the band),
        // one far away at x ≈ 500 (outside). The band check must report
        // exactly the full check's violations whose samples fall in the
        // band, and nothing from the far pair.
        let shapes = [
            square(0.0, 0.0, 100.0, 100.0),
            square(110.0, 0.0, 100.0, 100.0),
            square(480.0, 300.0, 100.0, 100.0),
            square(590.0, 300.0, 100.0, 100.0),
        ];
        let checker = MrcChecker::new(MrcRules::default());
        let band = BBox::new(Point::new(80.0, -50.0), Point::new(130.0, 200.0));
        let banded = checker.check_spacing_in_bands(&shapes, &[band]);
        assert!(!banded.is_empty());
        assert!(banded.iter().all(|v| v.shape <= 1), "far pair leaked in");
        let full = checker.check_spacing(&shapes);
        let expected: Vec<_> = full
            .iter()
            .filter(|v| band.contains(v.location))
            .cloned()
            .collect();
        assert_eq!(banded, expected);
        assert!(checker.check_spacing_in_bands(&shapes, &[]).is_empty());
    }

    #[test]
    fn many_bands_match_filtered_full_check() {
        // A 20x20 field of squares 20 nm apart (every facing edge pair
        // violates) under a 6+6 seam grid. Most squares are out of reach
        // of every band and never get a sampled cache; the banded result
        // must still be the full check filtered to the bands, element for
        // element.
        let mut shapes = Vec::new();
        for gy in 0..20 {
            for gx in 0..20 {
                shapes.push(square(gx as f64 * 120.0, gy as f64 * 120.0, 100.0, 100.0));
            }
        }
        let mut bands = Vec::new();
        for k in 1..=6 {
            let seam = k as f64 * 350.0;
            bands.push(BBox::new(
                Point::new(seam - 25.0, 0.0),
                Point::new(seam + 25.0, 2400.0),
            ));
            bands.push(BBox::new(
                Point::new(0.0, seam - 25.0),
                Point::new(2400.0, seam + 25.0),
            ));
        }
        let checker = MrcChecker::new(MrcRules::default());
        let banded = checker.check_spacing_in_bands(&shapes, &bands);
        let expected: Vec<_> = checker
            .check_spacing(&shapes)
            .into_iter()
            .filter(|v| bands.iter().any(|b| b.contains(v.location)))
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(banded, expected);
    }

    fn shift(spline: &mut CardinalSpline, by: Point) {
        for p in spline.control_points_mut() {
            *p += by;
        }
    }

    fn has_spacing(vs: &[Violation], shape: usize) -> bool {
        vs.iter()
            .any(|v| v.kind == ViolationKind::Spacing && v.shape == shape)
    }

    #[test]
    fn recheck_follows_moves_reverts_and_removals() {
        let mut shapes = vec![
            square(0.0, 0.0, 100.0, 100.0),
            square(110.0, 0.0, 100.0, 100.0), // 10 nm from shape 0
            square(400.0, 0.0, 100.0, 100.0),
            square(0.0, 300.0, 300.0, 20.0), // thin bar, far from all
        ];
        let checker = MrcChecker::new(MrcRules::default());
        let mut world = MrcWorld::build(&shapes, 8);
        let vs = checker.recheck(&shapes, &mut world);
        assert_eq!(vs, checker.check(&shapes));
        assert!(has_spacing(&vs, 0) && has_spacing(&vs, 1) && !has_spacing(&vs, 2));
        assert_eq!((world.full_probes, world.incremental_probes), (1, 0));

        // Shape 1 jumps away: its new outline is out of reach of shape 0,
        // so only the *old* bbox says shape 0 must lose its violations.
        shift(&mut shapes[1], Point::new(140.0, 0.0));
        world.refresh(1, &shapes[1]);
        let vs = checker.recheck(&shapes, &mut world);
        assert_eq!(vs, checker.check(&shapes));
        assert!(!has_spacing(&vs, 0) && !has_spacing(&vs, 1));
        assert_eq!(world.incremental_probes, 2, "shapes 0 and 1 only");

        // Shape 1 closes in on shape 2, which is clean before, violating
        // after, and never moved itself (the *new* bbox case).
        let snapshot = shapes[1].clone();
        shift(&mut shapes[1], Point::new(35.0, 0.0));
        let before = world.refresh(1, &shapes[1]);
        let vs = checker.recheck(&shapes, &mut world);
        assert_eq!(vs, checker.check(&shapes));
        assert!(has_spacing(&vs, 2));
        assert_eq!(world.incremental_probes, 4, "shapes 1 and 2 only");

        // Revert by putting the cache back: no re-sampling, same answer.
        shapes[1] = snapshot;
        world.replace(1, before);
        let vs = checker.recheck(&shapes, &mut world);
        assert_eq!(vs, checker.check(&shapes));
        assert!(!has_spacing(&vs, 2));

        // Nothing changed: nothing is probed, the lists are served as is.
        let probes = world.incremental_probes;
        assert_eq!(checker.recheck(&shapes, &mut world), vs);
        assert_eq!(world.incremental_probes, probes);

        // A removal shifts indices, so everything is probed again.
        shapes.remove(0);
        world.remove(0);
        assert_eq!(checker.recheck(&shapes, &mut world), checker.check(&shapes));
        assert_eq!(world.full_probes, 2);
    }

    #[test]
    fn recheck_matches_full_check_over_random_edits() {
        // Differential oracle at the world level: random layouts, then
        // random deformations, translations, reverts and removals, each
        // followed by an incremental recheck compared with a fresh check.
        use cardopc_geometry::SplitMix64;
        let checker = MrcChecker::new(MrcRules::default());
        for seed in 0..6 {
            let mut rng = SplitMix64::new(seed);
            let mut shapes: Vec<CardinalSpline> = (0..14)
                .map(|_| {
                    let (x, y) = (rng.range_f64(0.0, 600.0), rng.range_f64(0.0, 600.0));
                    let (w, h) = (rng.range_f64(15.0, 160.0), rng.range_f64(15.0, 160.0));
                    if rng.chance(0.3) {
                        circle(x, y, 0.25 * (w + h), 10)
                    } else {
                        square(x, y, w, h)
                    }
                })
                .collect();
            let mut world = MrcWorld::build(&shapes, 8);
            assert_eq!(checker.recheck(&shapes, &mut world), checker.check(&shapes));
            for step in 0..40 {
                let mut undo = Vec::new();
                for _ in 0..rng.range_usize(1, 4) {
                    let i = rng.range_usize(0, shapes.len());
                    let snapshot = shapes[i].clone();
                    if rng.chance(0.5) {
                        let by = Point::new(rng.range_f64(-60.0, 60.0), rng.range_f64(-60.0, 60.0));
                        shift(&mut shapes[i], by);
                    } else {
                        for p in shapes[i].control_points_mut() {
                            *p += Point::new(rng.range_f64(-6.0, 6.0), rng.range_f64(-6.0, 6.0));
                        }
                    }
                    undo.push((i, snapshot, world.refresh(i, &shapes[i])));
                }
                let vs = checker.recheck(&shapes, &mut world);
                assert_eq!(vs, checker.check(&shapes), "seed {seed} step {step}");
                if rng.chance(0.4) {
                    // Undo in reverse so a shape edited twice ends at its
                    // first snapshot.
                    for (i, snapshot, cache) in undo.into_iter().rev() {
                        shapes[i] = snapshot;
                        world.replace(i, cache);
                    }
                    let vs = checker.recheck(&shapes, &mut world);
                    assert_eq!(vs, checker.check(&shapes), "seed {seed} step {step} undo");
                }
                if shapes.len() > 4 && rng.chance(0.1) {
                    let i = rng.range_usize(0, shapes.len());
                    shapes.remove(i);
                    world.remove(i);
                    let vs = checker.recheck(&shapes, &mut world);
                    assert_eq!(
                        vs,
                        checker.check(&shapes),
                        "seed {seed} step {step} removal"
                    );
                }
            }
            assert!(world.incremental_probes > 0);
        }
    }

    #[test]
    fn incremental_world_matches_fresh_check() {
        // Maintain a world through a move and a removal; the incremental
        // check must equal a from-scratch check bit for bit.
        let mut shapes = vec![
            square(0.0, 0.0, 100.0, 100.0),
            square(140.0, 0.0, 100.0, 100.0),
            square(0.0, 200.0, 300.0, 20.0),
            circle(500.0, 500.0, 8.0, 12),
        ];
        let checker = MrcChecker::new(MrcRules::default());
        let mut world = MrcWorld::build(&shapes, 8);
        assert_eq!(
            checker.check_with_world(&shapes, &world),
            checker.check(&shapes)
        );

        // Slide shape 1 toward shape 0, creating a spacing violation.
        for p in shapes[1].control_points_mut() {
            *p += Point::new(-30.0, 0.0);
        }
        world.refresh(1, &shapes[1]);
        assert_eq!(
            checker.check_with_world(&shapes, &world),
            checker.check(&shapes)
        );

        // Remove shape 0; later indices shift down.
        shapes.remove(0);
        world.remove(0);
        assert_eq!(
            checker.check_with_world(&shapes, &world),
            checker.check(&shapes)
        );
    }

    #[test]
    fn sampled_loop_stats_match_polygon() {
        // The direct shoelace area/centroid must agree with the Polygon
        // implementation they replace.
        for spline in [
            square(10.0, -20.0, 130.0, 70.0),
            circle(50.0, 80.0, 35.0, 17),
        ] {
            let pts = sampled_loop(&spline, 8);
            let poly = cardopc_geometry::Polygon::new(pts.clone());
            let signed = loop_signed_area(&pts);
            assert!((signed - poly.signed_area()).abs() < 1e-9);
            let c = loop_centroid(&pts, signed);
            assert!(c.distance(poly.centroid()) < 1e-9);
        }
    }

    #[test]
    fn circular_distance_wraps() {
        assert_eq!(circular_distance(0, 9, 10), 1);
        assert_eq!(circular_distance(2, 7, 10), 5);
        assert_eq!(circular_distance(3, 3, 10), 0);
        assert_eq!(circular_distance(0, 0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_sampling_panics() {
        let _ = MrcChecker::with_sampling(MrcRules::default(), 0);
    }
}
