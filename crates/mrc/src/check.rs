//! Curvilinear mask rule checking (§III-F).
//!
//! Spacing and width launch one probe segment per boundary sample against
//! the sampled mask edges (Fig. 5(a)); area uses the shoelace formula on
//! the sampled loop; curvature is evaluated analytically on the spline
//! (Eq. 9) — the property that makes spline-based curvilinear OPC cheaper
//! to verify than pixel ILT output.
//!
//! A shape's edges are indexed in loop order ([`LoopIndex`]: one pass, no
//! sort); an R-tree over the shape bboxes offers a spacing probe its
//! candidate shapes. A [`MrcWorld`] keeps each shape's sampling, index and
//! violation lists, so after a resolver round [`MrcChecker::recheck`]
//! probes again only the shapes that moved and those within probe reach of
//! them (DESIGN.md §6 item 9).

use crate::{MrcRules, Violation, ViolationKind};
use cardopc_geometry::{BBox, Point, RTree, Segment};
use cardopc_spline::CardinalSpline;

/// Offset applied to probe start points so a probe never grazes the very
/// boundary point it was launched from.
const PROBE_LIFT: f64 = 0.05;
/// Width probes ignore own edges within this circular index distance.
const WIDTH_ADJACENCY: usize = 3;

/// A shape sampled into a dense closed polyline with outward normals.
/// Sample `j` lies on spline segment `j / per_segment`; edge `j` joins
/// sample `j` to sample `j + 1` (the last one back to sample 0).
#[derive(Clone, Debug, Default)]
struct SampledShape {
    positions: Vec<Point>,
    /// Unit outward normal at each sample.
    outward: Vec<Point>,
    signed_area: f64,
    area: f64,
    centroid: Point,
}

impl SampledShape {
    /// Edge `j` of the loop.
    #[inline]
    fn edge(&self, j: usize) -> Segment {
        let next = if j + 1 == self.positions.len() {
            0
        } else {
            j + 1
        };
        Segment::new(self.positions[j], self.positions[next])
    }

    /// The probe launched from sample `j`: `along` nanometres along the
    /// outward normal (negative = into the shape), lifted off the boundary.
    #[inline]
    fn probe(&self, j: usize, along: f64) -> Segment {
        let (p, n) = (self.positions[j], self.outward[j]);
        Segment::new(p + n * PROBE_LIFT.copysign(along), p + n * along)
    }
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

fn sample_shape(spline: &CardinalSpline, per_segment: usize) -> SampledShape {
    let positions = spline.sample(per_segment);
    let signed = loop_signed_area(&positions);
    // `perp` of the travel direction points inward on CCW loops.
    let flip = if signed > 0.0 { -1.0 } else { 1.0 };
    let m = positions.len();
    let outward = (0..m)
        .map(|j| {
            // Normals from the sampled loop itself (central difference):
            // robust even where the spline's parameter derivative vanishes
            // (e.g. tension 0 at control points).
            let chord = positions[(j + 1) % m] - positions[(j + m - 1) % m];
            let t = (j % per_segment) as f64 / per_segment as f64;
            let n = chord
                .normalized()
                .map(Point::perp)
                .or_else(|| spline.normal(j / per_segment, t))
                .unwrap_or(Point::new(1.0, 0.0));
            n * flip
        })
        .collect();
    let centroid = loop_centroid(&positions, signed);
    SampledShape {
        positions,
        outward,
        signed_area: signed,
        area: signed.abs(),
        centroid,
    }
}

/// log2 of [`FAN`].
const FAN_BITS: u32 = 3;
/// Edges under a level-0 box, boxes under every box above.
const FAN: usize = 1 << FAN_BITS;

/// Bounding-box hierarchy over the edges of a sampled loop, in loop order.
///
/// Consecutive edges are neighbours in space, so a range of edge indices
/// already is a tight box: level 0 holds one box per `FAN` consecutive
/// edges, every level above one box per `FAN` boxes below, up to a single
/// root. One linear pass, no sort, one allocation — what re-indexing a
/// shape the resolver moved costs. Edges are read from the samples.
#[derive(Clone, Debug, Default)]
struct LoopIndex {
    /// Level 0 first, the root last.
    boxes: Vec<BBox>,
    /// log2 of the number of edges the root box spans.
    root_bits: u32,
}

impl LoopIndex {
    fn build(shape: &SampledShape) -> LoopIndex {
        let m = shape.positions.len();
        let mut boxes = Vec::with_capacity(m / (FAN - 1) + 4);
        for lo in (0..m).step_by(FAN) {
            let edges = lo..(lo + FAN).min(m);
            boxes.push(edges.fold(BBox::EMPTY, |b, j| b.union(shape.edge(j).bbox())));
        }
        let (mut lo, mut bits) = (0, FAN_BITS);
        while boxes.len() - lo > 1 {
            let hi = boxes.len();
            for first in (lo..hi).step_by(FAN) {
                let below = &boxes[first..(first + FAN).min(hi)];
                boxes.push(below.iter().fold(BBox::EMPTY, |b, c| b.union(*c)));
            }
            (lo, bits) = (hi, bits + FAN_BITS);
        }
        LoopIndex {
            boxes,
            root_bits: bits,
        }
    }

    /// Calls `visit` with every edge of `shape` (the loop this index was
    /// built on) whose own closed box meets `query`. That per-edge test is
    /// part of the probe predicate, not a shortcut: `Segment::intersects`
    /// is EPS-tolerant and can accept an edge whose box misses the probe's.
    fn for_each_in(
        &self,
        shape: &SampledShape,
        query: &BBox,
        mut visit: impl FnMut(usize, Segment),
    ) {
        if let Some(root) = self.boxes.len().checked_sub(1) {
            self.walk(shape, query, self.root_bits, root, 0, &mut visit);
        }
    }

    /// Visits box `node` of the level starting at `boxes[level]`, each box
    /// of which spans `1 << bits` edges.
    fn walk(
        &self,
        shape: &SampledShape,
        query: &BBox,
        bits: u32,
        level: usize,
        node: usize,
        visit: &mut impl FnMut(usize, Segment),
    ) {
        if !self.boxes[level + node].intersects(query) {
            return;
        }
        let m = shape.positions.len();
        let below = bits - FAN_BITS;
        let (first, end) = (node << FAN_BITS, (node + 1) << FAN_BITS);
        if below == 0 {
            for j in first..end.min(m) {
                let edge = shape.edge(j);
                if edge.bbox().intersects(query) {
                    visit(j, edge);
                }
            }
        } else {
            // Boxes on the level below, which ends where this one starts.
            let len = (m + (1 << below) - 1) >> below;
            for child in first..end.min(len) {
                self.walk(shape, query, below, level - len, child, visit);
            }
        }
    }
}

/// Per-shape sampling and edge index, plus the violations the last check
/// of the shape found (area is read off the sampling when reported).
#[derive(Clone, Debug, Default)]
pub(crate) struct ShapeCache {
    sampled: SampledShape,
    index: LoopIndex,
    /// Spacing and width in sample order, curvature in segment order.
    spacing: Vec<Violation>,
    width: Vec<Violation>,
    curvature: Vec<Violation>,
}

impl ShapeCache {
    fn build(spline: &CardinalSpline, per_segment: usize) -> ShapeCache {
        let sampled = sample_shape(spline, per_segment);
        ShapeCache {
            index: LoopIndex::build(&sampled),
            sampled,
            ..ShapeCache::default()
        }
    }

    /// Absolute area of the sampled loop.
    pub(crate) fn area(&self) -> f64 {
        self.sampled.area
    }

    /// Sample `j` of the loop.
    pub(crate) fn position(&self, j: usize) -> Point {
        self.sampled.positions[j]
    }

    /// Bounding box of the outline: the index's root box, empty (and so
    /// out of the shape tree) without samples.
    fn bbox(&self) -> BBox {
        self.index.boxes.last().copied().unwrap_or_default()
    }

    /// Lowers `nearest` to the distance from `from` to every edge `probe`
    /// touches, except the edges `skip` names.
    fn nearest_hit(
        &self,
        probe: &Segment,
        from: Point,
        skip: impl Fn(usize) -> bool,
        nearest: &mut Option<f64>,
    ) {
        self.index
            .for_each_in(&self.sampled, &probe.bbox(), |j, edge| {
                if !skip(j) && probe.intersects(&edge) {
                    let dist = edge.distance_to_point(from);
                    *nearest = Some(nearest.map_or(dist, |n| n.min(dist)));
                }
            });
    }
}

/// Slack added to `min_space` when deciding which shapes a changed edge
/// can affect: a probe's far end is `position + outward * min_space` with
/// `outward` normalised only to rounding, so it may overshoot the launch
/// shape's bbox grown by exactly `min_space` by a few ulps.
const REACH_SLACK: f64 = 1e-6;

/// Relative margin around a Bézier-hull box for the rounding of sampled
/// points (a few ulps of the largest coordinate; this is ~10⁷ of them).
const HULL_ROUNDING: f64 = 1e-9;

/// Cached per-shape sampling, edge indices and violation lists, reusable
/// across resolver rounds: a shape that moved is re-sampled and re-indexed,
/// and [`MrcChecker::recheck`] probes again only the shapes a move can
/// affect.
#[derive(Debug)]
pub(crate) struct MrcWorld {
    per_segment: usize,
    shapes: Vec<ShapeCache>,
}

impl MrcWorld {
    /// Samples and indexes every shape; nothing is probed yet.
    pub(crate) fn build(shapes: &[CardinalSpline], per_segment: usize) -> MrcWorld {
        MrcWorld {
            per_segment,
            shapes: shapes
                .iter()
                .map(|s| ShapeCache::build(s, per_segment))
                .collect(),
        }
    }

    /// Samples and indexes `spline` at the world's density, for
    /// [`MrcWorld::set`].
    pub(crate) fn sample(&self, spline: &CardinalSpline) -> ShapeCache {
        ShapeCache::build(spline, self.per_segment)
    }

    /// Puts in `cache` for shape `idx` and returns the bbox of the outline
    /// it replaced: the pair `(idx, bbox)` names a moved shape to the next
    /// [`MrcChecker::recheck`].
    pub(crate) fn set(&mut self, idx: usize, cache: ShapeCache) -> BBox {
        std::mem::replace(&mut self.shapes[idx], cache).bbox()
    }

    /// The cache of shape `idx`.
    pub(crate) fn shape(&self, idx: usize) -> &ShapeCache {
        &self.shapes[idx]
    }
}

/// Shape-level bbox index for candidate pruning in spacing probes.
fn shape_tree(caches: &[ShapeCache]) -> RTree<usize> {
    let present = caches
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.bbox().is_empty());
    present.map(|(i, c)| (c.bbox(), i)).collect()
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
        let mut world = MrcWorld::build(shapes, self.samples_per_segment);
        let every: Vec<_> = (0..shapes.len()).map(|i| (i, BBox::EMPTY)).collect();
        self.recheck(shapes, &mut world, &every)
    }

    /// Brings the world's violation lists up to date after the shapes that
    /// `moved` names were replaced, each with the bbox of its outline
    /// before, and returns the violations in report order: spacing for all
    /// shapes in sample order, then width, area, curvature. `world` must
    /// describe exactly the shapes in `shapes`, in order.
    ///
    /// A moved shape is checked again under every rule. A shape whose bbox,
    /// grown by the probe reach, meets a moved shape's old or new bbox has
    /// its spacing probes launched again. No other probe can reach an edge
    /// that changed, so every other list stands. With every shape moved,
    /// this is the full check.
    pub(crate) fn recheck(
        &self,
        shapes: &[CardinalSpline],
        world: &mut MrcWorld,
        moved: &[(usize, BBox)],
    ) -> Vec<Violation> {
        use ViolationKind::{Spacing, Width};
        debug_assert_eq!(shapes.len(), world.shapes.len(), "world out of sync");
        let mut all_rules = vec![false; shapes.len()];
        moved.iter().for_each(|&(i, _)| all_rules[i] = true);
        let changed: Vec<BBox> = moved
            .iter()
            .flat_map(|&(i, was)| [was, world.shapes[i].bbox()])
            .filter(|b| !b.is_empty())
            .collect();
        let reach = self.rules.min_space + REACH_SLACK;
        let tree = shape_tree(&world.shapes);
        let mut stack = Vec::new();
        for (si, spline) in shapes.iter().enumerate() {
            let near = world.shapes[si].bbox().expanded(reach);
            if !all_rules[si] && !changed.iter().any(|b| b.intersects(&near)) {
                continue;
            }
            // Taken out so a probe can read every cache while it is written.
            let mut spacing = std::mem::take(&mut world.shapes[si].spacing);
            let mut width = std::mem::take(&mut world.shapes[si].width);
            let rules = [
                (Spacing, &mut spacing, true),
                (Width, &mut width, all_rules[si]),
            ];
            for (kind, found, _) in rules.into_iter().filter(|r| r.2) {
                found.clear();
                for j in 0..world.shapes[si].sampled.positions.len() {
                    let hit = self.launch(kind, &world.shapes, &tree, si, j, &mut stack);
                    let cache = &world.shapes[si];
                    found.extend(hit.map(|d| self.probe_violation(kind, cache, si, j, d)));
                }
            }
            let cache = &mut world.shapes[si];
            (cache.spacing, cache.width) = (spacing, width);
            if all_rules[si] {
                let ccw = cache.sampled.signed_area > 0.0;
                cache.curvature.clear();
                for seg in 0..spline.segment_count() {
                    self.segment_curvature(spline, ccw, si, seg, &mut cache.curvature);
                }
            }
        }

        let caches = &world.shapes;
        let mut out: Vec<Violation> = caches.iter().flat_map(|c| &c.spacing).copied().collect();
        out.extend(caches.iter().flat_map(|c| &c.width));
        for (si, cache) in caches.iter().enumerate() {
            self.area_violation(cache, si, &mut out);
        }
        out.extend(caches.iter().flat_map(|c| &c.curvature));
        out
    }

    /// Spacing-rule check restricted to a set of rectangular bands:
    /// probes are launched only from boundary samples inside one of the
    /// `bands`, and shapes out of reach of every band
    /// ([`near_bands`](MrcChecker::near_bands)) are not even sampled.
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
        // shapes, nearly all far from every band: those get an absent cache
        // — no samples, no edges, and an empty bbox that keeps them out of
        // the shape tree — instead of normals and an edge index.
        let loops = shapes.iter().map(|s| (s.control_points(), s.tension()));
        let mut caches = vec![ShapeCache::default(); shapes.len()];
        for i in self.near_bands(loops, bands) {
            caches[i] = ShapeCache::build(&shapes[i], self.samples_per_segment);
        }
        let band_tree: RTree<()> = bands.iter().map(|&b| (b, ())).collect();
        let mut stack = Vec::new();
        let tree = shape_tree(&caches);
        let mut near: Vec<BBox> = Vec::new();
        let mut out = Vec::new();
        for (si, cache) in caches.iter().enumerate() {
            near.clear();
            band_tree.for_each_in(&cache.bbox(), &mut stack, |k| near.push(bands[k]));
            if near.is_empty() {
                continue;
            }
            let kind = ViolationKind::Spacing;
            let samples = cache.sampled.positions.iter().enumerate();
            for (j, _) in samples.filter(|(_, &p)| near.iter().any(|b| b.contains(p))) {
                let hit = self.launch(kind, &caches, &tree, si, j, &mut stack);
                out.extend(hit.map(|d| self.probe_violation(kind, cache, si, j, d)));
            }
        }
        out
    }

    /// Indices, in order, of the closed loops `(control points, tension)`
    /// that can take part in [`check_spacing_in_bands`]: those whose
    /// Bézier-hull box ([`CardinalSpline::closed_hull_box`]), grown by the
    /// probe reach (`min_space` plus slack) and a rounding margin, meets a
    /// band. Nothing is sampled. The test is exact: the hull box holds
    /// every sample of the outline, so a loop left out has no sample in a
    /// band (it launches no probe) and no edge within a probe's length of
    /// one (no probe hits it) — the spacing pass restricted to the listed
    /// loops finds the same violations.
    ///
    /// [`check_spacing_in_bands`]: MrcChecker::check_spacing_in_bands
    pub fn near_bands<'p>(
        &self,
        loops: impl IntoIterator<Item = (&'p [Point], f64)>,
        bands: &[BBox],
    ) -> Vec<usize> {
        let band_tree: RTree<()> = bands.iter().map(|&b| (b, ())).collect();
        let mut stack = Vec::new();
        let reach = self.rules.min_space + REACH_SLACK;
        let mut near = Vec::new();
        for (i, (points, tension)) in loops.into_iter().enumerate() {
            let hull = CardinalSpline::closed_hull_box(points, tension);
            let extent = [hull.min.x, hull.min.y, hull.max.x, hull.max.y]
                .iter()
                .fold(1.0f64, |m, c| m.max(c.abs()));
            let mut in_reach = false;
            let grown = hull.expanded(reach + HULL_ROUNDING * extent);
            band_tree.for_each_in(&grown, &mut stack, |_| in_reach = true);
            if in_reach {
                near.push(i);
            }
        }
        near
    }

    /// Launches the `kind` probe of sample `j` of shape `si` and returns the
    /// distance to the nearest edge it touches. A spacing probe goes
    /// outward, against every *distinct* shape; a width probe goes into the
    /// shape, against its own edges minus the ones next to the sample.
    fn launch(
        &self,
        kind: ViolationKind,
        shapes: &[ShapeCache],
        shape_tree: &RTree<usize>,
        si: usize,
        j: usize,
        stack: &mut Vec<usize>,
    ) -> Option<f64> {
        let cache = &shapes[si];
        let (shape, from) = (&cache.sampled, cache.sampled.positions[j]);
        let mut nearest = None;
        if kind == ViolationKind::Width {
            let m = shape.positions.len();
            let adjacent = |edge: usize| circular_distance(edge, j, m) <= WIDTH_ADJACENCY;
            let probe = shape.probe(j, -self.rules.min_width);
            cache.nearest_hit(&probe, from, adjacent, &mut nearest);
        } else {
            let probe = shape.probe(j, self.rules.min_space);
            shape_tree.for_each_in(&probe.bbox(), stack, |cand| {
                let sj = shape_tree.item(cand).1;
                // Spacing is checked between distinct shapes (Fig. 5(a));
                // same-shape notch spacing is part of the "well-optimized
                // checking" the paper defers to future work.
                if sj != si {
                    shapes[sj].nearest_hit(&probe, from, |_| false, &mut nearest);
                }
            });
        }
        nearest
    }

    /// The spacing or width violation a probe from sample `j` of shape
    /// `si` found at distance `value`.
    fn probe_violation(
        &self,
        kind: ViolationKind,
        cache: &ShapeCache,
        si: usize,
        j: usize,
        value: f64,
    ) -> Violation {
        Violation {
            kind,
            shape: si,
            segment: j / self.samples_per_segment,
            location: cache.sampled.positions[j],
            normal: cache.sampled.outward[j],
            value,
            limit: match kind {
                ViolationKind::Spacing => self.rules.min_space,
                _ => self.rules.min_width,
            },
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

    /// Curvature violations on one spline segment (Eq. 9 at the sample
    /// parameters).
    fn segment_curvature(
        &self,
        spline: &CardinalSpline,
        ccw: bool,
        si: usize,
        seg: usize,
        out: &mut Vec<Violation>,
    ) {
        let flip = if ccw { -1.0 } else { 1.0 };
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

    /// [`MrcChecker::check`]'s violations of one rule, in its order.
    fn check_kind(
        checker: &MrcChecker,
        shapes: &[CardinalSpline],
        kind: ViolationKind,
    ) -> Vec<Violation> {
        let mut vs = checker.check(shapes);
        vs.retain(|v| v.kind == kind);
        vs
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
        let vs = check_kind(&checker, &shapes, ViolationKind::Spacing);
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
        assert!(check_kind(&checker, &shapes, ViolationKind::Spacing).is_empty());
    }

    #[test]
    fn width_violation_on_thin_shape() {
        // 20 nm-wide bar < 40 nm limit.
        let shapes = [square(0.0, 0.0, 300.0, 20.0)];
        let checker = MrcChecker::new(MrcRules::default());
        let vs = check_kind(&checker, &shapes, ViolationKind::Width);
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
        assert!(check_kind(&checker, &shapes, ViolationKind::Width).is_empty());
    }

    #[test]
    fn area_violation_on_tiny_shape() {
        // 30x30 = 900 nm² < 1500 nm².
        let shapes = [square(0.0, 0.0, 30.0, 30.0)];
        let checker = MrcChecker::new(MrcRules::default());
        let vs = check_kind(&checker, &shapes, ViolationKind::Area);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kind, ViolationKind::Area);
        assert!(vs[0].value < 1500.0);
    }

    #[test]
    fn curvature_violation_on_small_circle() {
        // Radius 8 nm -> curvature 0.125 > 1/15.
        let shapes = [circle(100.0, 100.0, 8.0, 12)];
        let checker = MrcChecker::new(MrcRules::default());
        let vs = check_kind(&checker, &shapes, ViolationKind::Curvature);
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
        assert!(check_kind(&checker, &shapes, ViolationKind::Curvature).is_empty());
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
        let full = check_kind(&checker, &shapes, ViolationKind::Spacing);
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
        let expected: Vec<_> = check_kind(&checker, &shapes, ViolationKind::Spacing)
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

    /// The violations of a maintained world after the shapes `moved` names
    /// were edited: `world` is brought up to date in place.
    fn sync(
        checker: &MrcChecker,
        shapes: &[CardinalSpline],
        world: &mut MrcWorld,
        moved: &[usize],
    ) -> Vec<Violation> {
        let moved: Vec<_> = moved
            .iter()
            .map(|&i| (i, world.set(i, world.sample(&shapes[i]))))
            .collect();
        checker.recheck(shapes, world, &moved)
    }

    #[test]
    fn recheck_matches_full_check_over_random_edits() {
        // Differential oracle at the world level: random layouts, then
        // random deformations, translations and put-backs, each followed
        // by a shape-level recheck compared with a fresh check.
        use cardopc_geometry::SplitMix64;
        let checker = MrcChecker::new(MrcRules::default());
        for seed in 0..6 {
            let mut rng = SplitMix64::new(seed);
            let mut shapes = crowded_layout(seed, 14);
            let mut world = MrcWorld::build(&shapes, 8);
            let every: Vec<_> = (0..shapes.len()).collect();
            assert_eq!(
                sync(&checker, &shapes, &mut world, &every),
                checker.check(&shapes)
            );
            for step in 0..40 {
                let mut undo = Vec::new();
                for _ in 0..rng.range_usize(1, 4) {
                    let i = rng.range_usize(0, shapes.len());
                    undo.push((i, shapes[i].clone()));
                    if rng.chance(0.5) {
                        let by = Point::new(rng.range_f64(-60.0, 60.0), rng.range_f64(-60.0, 60.0));
                        shift(&mut shapes[i], by);
                    } else {
                        for p in shapes[i].control_points_mut() {
                            *p += Point::new(rng.range_f64(-6.0, 6.0), rng.range_f64(-6.0, 6.0));
                        }
                    }
                }
                let moved: Vec<usize> = undo.iter().map(|u| u.0).collect();
                let vs = sync(&checker, &shapes, &mut world, &moved);
                assert_eq!(vs, checker.check(&shapes), "seed {seed} step {step}");
                if rng.chance(0.4) {
                    // Put back in reverse so a shape edited twice ends at
                    // its first snapshot.
                    for (i, snapshot) in undo.into_iter().rev() {
                        shapes[i] = snapshot;
                    }
                    let vs = sync(&checker, &shapes, &mut world, &moved);
                    assert_eq!(vs, checker.check(&shapes), "seed {seed} step {step} undo");
                }
            }
        }
    }

    #[test]
    fn incremental_world_matches_fresh_check() {
        // Maintain a world through a move and its undo; the shape-level
        // recheck must equal a from-scratch check bit for bit.
        let mut shapes = vec![
            square(0.0, 0.0, 100.0, 100.0),
            square(140.0, 0.0, 100.0, 100.0),
            square(0.0, 200.0, 300.0, 20.0),
            circle(500.0, 500.0, 8.0, 12),
        ];
        let checker = MrcChecker::new(MrcRules::default());
        let mut world = MrcWorld::build(&shapes, 8);
        let vs = sync(&checker, &shapes, &mut world, &[0, 1, 2, 3]);
        assert_eq!(vs, checker.check(&shapes));
        assert!(!has_spacing(&vs, 0));

        // Slide shape 1 toward shape 0, creating a spacing violation on
        // shape 0, which did not move.
        shift(&mut shapes[1], Point::new(-30.0, 0.0));
        let vs = sync(&checker, &shapes, &mut world, &[1]);
        assert_eq!(vs, checker.check(&shapes));
        assert!(has_spacing(&vs, 0) && has_spacing(&vs, 1));

        // Shape 1 jumps away: only its *old* bbox says shape 0 must lose
        // its violations.
        shift(&mut shapes[1], Point::new(300.0, 0.0));
        let vs = sync(&checker, &shapes, &mut world, &[1]);
        assert_eq!(vs, checker.check(&shapes));
        assert!(!has_spacing(&vs, 0));
    }

    // ---- Oracles that share neither the index nor the carry-over ----

    /// What a probe from `from` touches, by brute force: no index, every
    /// edge of every shape in `targets` that `skip` does not name, the same
    /// per-edge box test, the same `min`.
    fn brute_probe(
        probe: Segment,
        from: Point,
        targets: &[&SampledShape],
        skip: impl Fn(usize) -> bool,
    ) -> Option<f64> {
        let probe_box = probe.bbox();
        let mut nearest: Option<f64> = None;
        for shape in targets {
            let m = shape.positions.len();
            for e in (0..m).filter(|&e| !skip(e)) {
                let edge = Segment::new(shape.positions[e], shape.positions[(e + 1) % m]);
                if edge.bbox().intersects(&probe_box) && probe.intersects(&edge) {
                    let dist = edge.distance_to_point(from);
                    nearest = Some(nearest.map_or(dist, |n| n.min(dist)));
                }
            }
        }
        nearest
    }

    /// Checks `shapes` and compares the probe of every `stride`-th sample
    /// with the brute-force prober (probes written out as `spacing_probes`
    /// / `width_probes` always built them); every probe that hits is a
    /// violation of the check.
    fn assert_matches_brute_force(checker: &MrcChecker, shapes: &[CardinalSpline], stride: usize) {
        let world = MrcWorld::build(shapes, checker.samples_per_segment);
        let tree = shape_tree(&world.shapes);
        let sampled: Vec<&SampledShape> = world.shapes.iter().map(|c| &c.sampled).collect();
        let (mut n, mut hits) = (0, [0, 0]);
        for (si, shape) in sampled.iter().enumerate() {
            let m = shape.positions.len();
            let others: Vec<&SampledShape> = (0..sampled.len())
                .filter(|&sj| sj != si)
                .map(|sj| sampled[sj])
                .collect();
            for j in 0..m {
                let mut stack = Vec::new();
                let mut launch =
                    |kind| checker.launch(kind, &world.shapes, &tree, si, j, &mut stack);
                let (spacing, width) =
                    (launch(ViolationKind::Spacing), launch(ViolationKind::Width));
                hits[0] += usize::from(spacing.is_some());
                hits[1] += usize::from(width.is_some());
                n += 1;
                if n % stride != 0 {
                    continue;
                }
                let (p, out) = (shape.positions[j], shape.outward[j]);
                let c = checker.rules.min_space;
                let probe = Segment::new(p + out * PROBE_LIFT, p + out * c);
                let brute = brute_probe(probe, p, &others, |_| false);
                assert_eq!(spacing, brute, "shape {si} sample {j}");
                let c = checker.rules.min_width;
                let probe = Segment::new(p - out * PROBE_LIFT, p - out * c);
                let adjacent = |e: usize| circular_distance(e, j, m) <= WIDTH_ADJACENCY;
                let brute = brute_probe(probe, p, &[shape], adjacent);
                assert_eq!(width, brute, "shape {si} sample {j}");
            }
        }
        let vs = checker.check(shapes);
        assert_eq!(count_kind(&vs, ViolationKind::Spacing), hits[0]);
        assert_eq!(count_kind(&vs, ViolationKind::Width), hits[1]);
    }

    /// Squares and circles dropped at random, crowded enough for spacing,
    /// width and area violations.
    fn crowded_layout(seed: u64, n: usize) -> Vec<CardinalSpline> {
        let mut rng = cardopc_geometry::SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let (x, y) = (rng.range_f64(0.0, 600.0), rng.range_f64(0.0, 600.0));
                let (w, h) = (rng.range_f64(15.0, 160.0), rng.range_f64(15.0, 160.0));
                if rng.chance(0.3) {
                    circle(x, y, 0.25 * (w + h), 10)
                } else {
                    square(x, y, w, h)
                }
            })
            .collect()
    }

    #[test]
    fn check_matches_brute_force_on_crowded_layouts() {
        let checker = MrcChecker::new(MrcRules::default());
        for seed in 0..8 {
            let shapes = crowded_layout(seed, 14);
            assert_matches_brute_force(&checker, &shapes, 1);
            let vs = checker.check(&shapes);
            assert!(count_kind(&vs, ViolationKind::Spacing) > 0, "seed {seed}");
            assert!(count_kind(&vs, ViolationKind::Width) > 0, "seed {seed}");
        }
    }

    /// The production input: tile 0 of `cardopc --design gcd --crop 8192`
    /// at the CLI defaults after its 10 correction iterations, MRC stage
    /// not yet run (90 shapes, 54 304 boundary samples), with the rules the
    /// flow checks it against.
    fn corrected_logic_tile() -> (MrcRules, Vec<CardinalSpline>) {
        use cardopc_layout::{generated_clip, DesignKind};
        use cardopc_opc::{engine_for_extent, CardOpc, OpcConfig};
        use cardopc_runtime::{partition_clip, TilingConfig};

        let clip = generated_clip(DesignKind::Gcd, 1, Some(8192.0));
        let tiling = TilingConfig {
            tile_size: 4096.0,
            halo: 1024.0,
        };
        let tile = &partition_clip(&clip, &tiling).unwrap().tiles[0];
        let rules = OpcConfig::large_scale().mrc.unwrap();
        let config = OpcConfig {
            mrc: None,
            ..OpcConfig::large_scale()
        };
        let engine =
            engine_for_extent(tile.clip.width(), tile.clip.height(), config.pitch).unwrap();
        let corrected = CardOpc::new(config)
            .optimize_with_engine(&tile.clip, &engine)
            .unwrap();
        let shapes: Vec<_> = corrected.shapes.into_iter().map(|s| s.spline).collect();
        // The mrc crate the flow links is another build of this one; only
        // the rule values cross over.
        let rules = MrcRules {
            min_space: rules.min_space,
            min_width: rules.min_width,
            min_area: rules.min_area,
            max_curvature: rules.max_curvature,
        };
        (rules, shapes)
    }

    #[test]
    fn logic_tile_matches_brute_force_and_pins_the_resolvers_outcome() {
        let (rules, mut shapes) = corrected_logic_tile();
        let samples: usize = shapes.iter().map(|s| 8 * s.segment_count()).sum();
        assert_eq!((shapes.len(), samples), (90, 54_304));
        // Every 23rd sample against all 54 k edges: every shape, every
        // sample phase within a segment.
        assert_matches_brute_force(&MrcChecker::new(rules), &shapes, 23);

        // The resolver as `optimize_with_engine` configures it.
        let report =
            crate::MrcResolver::new(rules, crate::ResolveConfig::default()).resolve(&mut shapes);
        assert_eq!(
            (report.initial_violations, report.remaining.len()),
            (281, 23)
        );
    }

    #[test]
    fn loop_index_matches_a_linear_scan() {
        let mut rng = cardopc_geometry::SplitMix64::new(18);
        for m in [
            0,
            1,
            2,
            FAN - 1,
            FAN,
            FAN + 1,
            FAN * FAN,
            FAN * FAN + 1,
            600,
        ] {
            for _ in 0..12 {
                // A wobbly ring: consecutive samples are neighbours.
                let r = rng.range_f64(5.0, 400.0);
                let positions: Vec<Point> = (0..m)
                    .map(|j| {
                        let th = std::f64::consts::TAU * j as f64 / m as f64;
                        let r = r * rng.range_f64(0.7, 1.3);
                        Point::new(500.0 + r * th.cos(), 500.0 + r * (2.0 * th).sin())
                    })
                    .collect();
                let shape = SampledShape {
                    positions,
                    ..SampledShape::default()
                };
                let index = LoopIndex::build(&shape);
                assert_eq!(
                    index.boxes.last().copied().unwrap_or_default(),
                    BBox::from_points(shape.positions.iter().copied())
                );
                for q in 0..60 {
                    let corner = Point::new(rng.range_f64(0.0, 1000.0), rng.range_f64(0.0, 1000.0));
                    let size = rng.range_f64(0.0, 40.0) * rng.range_f64(0.0, 8.0);
                    let query = match q % 5 {
                        // Closed boxes: a query that only touches a vertex hits.
                        0 if m > 0 => BBox::from_point(shape.positions[q % m]),
                        1 => BBox::EMPTY,
                        2 => BBox::new(Point::ZERO, Point::new(1000.0, 1000.0)),
                        _ => BBox::new(corner, corner + Point::new(size, 0.5 * size)),
                    };
                    let mut hits = Vec::new();
                    index.for_each_in(&shape, &query, |j, edge| {
                        assert_eq!(edge, shape.edge(j));
                        hits.push(j);
                    });
                    hits.sort_unstable();
                    let scan: Vec<usize> = (0..m)
                        .filter(|&j| shape.edge(j).bbox().intersects(&query))
                        .collect();
                    assert_eq!(hits, scan, "m {m} query {query}");
                }
            }
        }
    }

    // ---- Edit sequences on long shapes ----

    /// A horizontal wire outlined by `n` control points spread evenly over
    /// its perimeter, like a dissected logic wire.
    fn long_wire(x0: f64, y0: f64, w: f64, h: f64, n: usize) -> CardinalSpline {
        let perimeter = 2.0 * (w + h);
        let pts = (0..n)
            .map(|i| {
                let d = perimeter * i as f64 / n as f64;
                let (dx, dy) = if d < w {
                    (d, 0.0)
                } else if d < w + h {
                    (w, d - w)
                } else if d < 2.0 * w + h {
                    (2.0 * w + h - d, h)
                } else {
                    (0.0, perimeter - d)
                };
                Point::new(x0 + dx, y0 + dy)
            })
            .collect();
        CardinalSpline::closed(pts, 0.6).unwrap()
    }

    /// The resolver's move: control point `cp` by `delta`, its two
    /// neighbours by half of it.
    fn pull(spline: &mut CardinalSpline, cp: usize, delta: Point) {
        let cps = spline.control_points_mut();
        let n = cps.len();
        cps[cp % n] += delta;
        cps[(cp + 1) % n] += delta * 0.5;
        cps[(cp + n - 1) % n] += delta * 0.5;
    }

    /// Five stacked wires of 60–120 control points around the spacing and
    /// width limits, so a pull bends a few percent of a loop.
    fn wire_stack(rng: &mut cardopc_geometry::SplitMix64) -> Vec<CardinalSpline> {
        let mut y = 0.0;
        (0..5)
            .map(|_| {
                let h = rng.range_f64(34.0, 70.0);
                let wire = long_wire(
                    rng.range_f64(0.0, 300.0),
                    y,
                    rng.range_f64(1200.0, 2400.0),
                    h,
                    rng.range_usize(60, 121),
                );
                y += h + rng.range_f64(18.0, 45.0);
                wire
            })
            .collect()
    }

    /// One edit of shape `i`: two pulls half a loop apart.
    fn edit(rng: &mut cardopc_geometry::SplitMix64, shapes: &mut [CardinalSpline], i: usize) {
        let n = shapes[i].control_points().len();
        let cp = rng.range_usize(0, n);
        for cp in [cp, cp + n / 2] {
            let delta = Point::new(rng.range_f64(-8.0, 8.0), rng.range_f64(-8.0, 8.0));
            pull(&mut shapes[i], cp, delta);
        }
    }

    proptest::proptest! {
        /// The shape-level recheck equals a full check after every step of
        /// a random edit sequence on long shapes: a shape and its
        /// neighbour in one round, two edits of one shape, a translation
        /// out of or into reach, an edit put back before the recheck.
        #[test]
        fn recheck_matches_check_over_edit_sequences_on_long_shapes(seed in 0u64..u64::MAX) {
            let mut rng = cardopc_geometry::SplitMix64::new(seed);
            let checker = MrcChecker::new(MrcRules::default());
            let mut shapes = wire_stack(&mut rng);
            let mut world = MrcWorld::build(&shapes, 8);
            let every: Vec<_> = (0..shapes.len()).collect();
            let vs = sync(&checker, &shapes, &mut world, &every);
            proptest::prop_assert_eq!(vs, checker.check(&shapes));
            for step in 0..8 {
                let i = rng.range_usize(0, shapes.len() - 1);
                let moved = match rng.range_usize(0, 4) {
                    0 => {
                        edit(&mut rng, &mut shapes, i);
                        edit(&mut rng, &mut shapes, i + 1);
                        vec![i, i + 1]
                    }
                    1 => {
                        edit(&mut rng, &mut shapes, i);
                        edit(&mut rng, &mut shapes, i);
                        vec![i]
                    }
                    2 => {
                        let by = Point::new(rng.range_f64(-60.0, 60.0), rng.range_f64(-60.0, 60.0));
                        shift(&mut shapes[i], by);
                        vec![i]
                    }
                    _ => {
                        let snapshot = shapes[i].clone();
                        edit(&mut rng, &mut shapes, i);
                        edit(&mut rng, &mut shapes, i + 1);
                        shapes[i] = snapshot;
                        vec![i, i + 1]
                    }
                };
                let vs = sync(&checker, &shapes, &mut world, &moved);
                proptest::prop_assert_eq!(vs, checker.check(&shapes), "step {}", step);
            }
        }
    }

    #[test]
    fn a_move_reprobes_the_moved_shape_and_what_faces_it() {
        // Two 100-point wires 30 nm apart (no spacing or width violation)
        // and a third out of everyone's reach. Pulling three control
        // points of the lower one 8 nm up creates spacing violations on
        // both near wires; the far one keeps its lists untouched.
        let mut shapes = vec![
            long_wire(0.0, 0.0, 2000.0, 60.0, 100),
            long_wire(0.0, 90.0, 2000.0, 60.0, 100),
            long_wire(0.0, 500.0, 2000.0, 60.0, 100),
        ];
        let checker = MrcChecker::new(MrcRules::default());
        let mut world = MrcWorld::build(&shapes, 8);
        let vs = sync(&checker, &shapes, &mut world, &[0, 1, 2]);
        assert!(vs.iter().all(|v| v.kind == ViolationKind::Curvature));

        // A planted record shows which lists a recheck rebuilt.
        let planted = Violation {
            kind: ViolationKind::Spacing,
            shape: 0,
            segment: 0,
            location: Point::ZERO,
            normal: Point::ZERO,
            value: 0.0,
            limit: 0.0,
        };
        for (i, cache) in world.shapes.iter_mut().enumerate() {
            cache.spacing.push(Violation {
                shape: i,
                ..planted
            });
        }
        // Control point 70 sits on the lower wire's top edge.
        pull(&mut shapes[0], 70, Point::new(0.0, 8.0));
        let vs = sync(&checker, &shapes, &mut world, &[0]);
        assert!(has_spacing(&vs, 0) && has_spacing(&vs, 1));
        let kept: Vec<usize> = vs
            .iter()
            .filter(|v| v.limit == 0.0)
            .map(|v| v.shape)
            .collect();
        assert_eq!(kept, [2], "only the far wire keeps its list");
        world.shapes[2].spacing.pop();
        assert_eq!(
            checker.recheck(&shapes, &mut world, &[]),
            checker.check(&shapes)
        );
    }

    #[test]
    fn a_flipped_orientation_reprobes_and_reevaluates_everything() {
        // A figure-eight whose lobes cancel: one control point decides the
        // sign of the loop area, and with it every outward normal — of the
        // probes and of the curvature violations on segments that did not
        // move at all.
        let eight = |nudge: f64| {
            let mut pts: Vec<Point> = (0..16)
                .map(|i| {
                    let t = std::f64::consts::TAU * i as f64 / 16.0;
                    Point::new(200.0 + 60.0 * t.cos(), 200.0 + 60.0 * t.sin() * t.cos())
                })
                .collect();
            pts[2].y += nudge;
            CardinalSpline::closed(pts, 0.5).unwrap()
        };
        let mut shapes = vec![eight(3.0), square(300.0, 150.0, 100.0, 100.0)];
        let checker = MrcChecker::new(MrcRules::default());
        let mut world = MrcWorld::build(&shapes, 8);
        let before = sync(&checker, &shapes, &mut world, &[0, 1]);
        assert_eq!(before, checker.check(&shapes));
        assert!(count_kind(&before, ViolationKind::Curvature) > 8);
        let ccw = world.shapes[0].sampled.signed_area > 0.0;

        shapes[0] = eight(-3.0);
        let after = sync(&checker, &shapes, &mut world, &[0]);
        assert_ne!(world.shapes[0].sampled.signed_area > 0.0, ccw);
        assert_eq!(after, checker.check(&shapes));
        // A far segment's curvature violation now points the other way.
        let normal = |vs: &[Violation], seg| {
            let mut on = vs.iter().filter(|v| v.kind == ViolationKind::Curvature);
            on.find(|v| v.segment == seg).map(|v| v.normal)
        };
        let seg = before
            .iter()
            .rev()
            .find(|v| v.kind == ViolationKind::Curvature)
            .unwrap()
            .segment;
        assert_eq!(normal(&after, seg).unwrap(), -normal(&before, seg).unwrap());
    }

    #[test]
    fn sampled_loop_stats_match_polygon() {
        // The direct shoelace area/centroid must agree with the Polygon
        // implementation they replace.
        for spline in [
            square(10.0, -20.0, 130.0, 70.0),
            circle(50.0, 80.0, 35.0, 17),
        ] {
            let pts = spline.sample(8);
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
