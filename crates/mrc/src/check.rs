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
//! candidate shapes. A [`MrcWorld`] keeps one width and one spacing result
//! per sample, so after a control point moved — a cardinal segment depends
//! on four control points only (Eq. 2) — [`MrcChecker::recheck`] probes
//! again just the samples that changed and those that can see a changed
//! edge (DESIGN.md §6 item 9).

use crate::{MrcRules, Violation, ViolationKind};
use cardopc_geometry::{BBox, Point, RTree, Segment};
use cardopc_spline::{CardinalSpline, SamplingPlan};

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

    /// `true` when sample `j` has the same position and normal, bit for
    /// bit, in both samplings (a probe launched from it is the same probe).
    #[inline]
    fn same_sample(&self, other: &SampledShape, j: usize) -> bool {
        same_bits(self.positions[j], other.positions[j])
            && same_bits(self.outward[j], other.outward[j])
    }
}

#[inline]
fn same_bits(a: Point, b: Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
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
    spline.sample_with_plan(&plan)
}

fn sample_shape(spline: &CardinalSpline, per_segment: usize) -> SampledShape {
    let positions = sampled_loop(spline, per_segment);
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
/// root. One linear pass, no sort, one allocation — what a resolver trial
/// pays to re-index the shape it bent. Edges are read from the samples.
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

/// What the last probe launched from a boundary sample found.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Probe {
    /// Not probed yet, or the sample or an edge in its sight has changed.
    Stale,
    /// No edge within the rule distance.
    Clean,
    /// Distance to the nearest edge the probe touches.
    Hit(f64),
}

/// The curvature violations of one shape, with what they were evaluated
/// on: a segment is evaluated again only when that differs for it.
#[derive(Clone, Debug)]
struct KeptCurvature {
    spline: CardinalSpline,
    ccw: bool,
    /// In segment order; `shape` is filled in when the report is assembled.
    found: Vec<Violation>,
}

/// Rule results kept with a shape's cache between rechecks. They travel
/// with the cache, so a snapshot put back brings them along as of when it
/// was taken. Empty (no allocation) until the first recheck: the seam
/// pass builds thousands of caches it never rechecks.
#[derive(Clone, Debug, Default)]
struct Kept {
    /// One result per boundary sample, once sized by a recheck.
    width: Vec<Probe>,
    spacing: Vec<Probe>,
    /// Dirty runs of this shape's own re-samplings that `width` has not
    /// been tested against yet.
    own_runs: Vec<BBox>,
    /// Length of the world's change log when `spacing` was last brought
    /// up to date. A restored snapshot carries an old mark, so the runs of
    /// neighbours whose change stood meanwhile still reach it.
    seen: usize,
    curvature: Option<KeptCurvature>,
}

impl Kept {
    /// The results that survive re-sampling `old` into `new`, whose dirty
    /// runs are `runs`: those of samples that kept every bit. Which of them
    /// can *see* a run is left to the next recheck (it knows the rules).
    fn carried(&self, old: &SampledShape, new: &SampledShape, runs: &[(usize, BBox)]) -> Kept {
        let mut kept = self.clone();
        if new.positions.len() != old.positions.len() {
            (kept.width, kept.spacing) = (Vec::new(), Vec::new());
        }
        for results in [&mut kept.width, &mut kept.spacing] {
            for (j, r) in results.iter_mut().enumerate() {
                if !old.same_sample(new, j) {
                    *r = Probe::Stale;
                }
            }
        }
        kept.own_runs.extend(runs.iter().map(|r| r.1));
        kept
    }
}

/// Per-shape sampling and edge index, plus the rule results that depend
/// on it.
#[derive(Clone, Debug, Default)]
pub(crate) struct ShapeCache {
    sampled: SampledShape,
    index: LoopIndex,
    kept: Kept,
}

impl ShapeCache {
    fn build(spline: &CardinalSpline, per_segment: usize) -> ShapeCache {
        let sampled = sample_shape(spline, per_segment);
        ShapeCache {
            index: LoopIndex::build(&sampled),
            sampled,
            kept: Kept::default(),
        }
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

/// Calls `emit` with the box of every *dirty run* between two samplings of
/// one shape: a maximal run of consecutive edges each of which has an
/// endpoint whose position or normal differs in a bit, boxed over its old
/// **and** its new extent. A probe whose box meets no run's box touches the
/// same edges at the same distances before and after. A changed sample
/// count, or no unchanged edge at all, makes the whole outline one run.
fn dirty_runs(old: &ShapeCache, new: &ShapeCache, mut emit: impl FnMut(BBox)) {
    let (was, now) = (&old.sampled, &new.sampled);
    let m = was.positions.len();
    let next = |j: usize| if j + 1 == m { 0 } else { j + 1 };
    let kept = |j: usize| was.same_sample(now, j) && was.same_sample(now, next(j));
    let comparable = now.positions.len() == m;
    let Some(anchor) = (0..m).find(|&j| comparable && kept(j)) else {
        let all = old.bbox().union(new.bbox());
        if !all.is_empty() {
            emit(all);
        }
        return;
    };
    // Once around the loop, ending on the anchor, which closes the last run.
    let mut run = BBox::EMPTY;
    let mut j = anchor;
    for _ in 0..m {
        j = next(j);
        if !kept(j) {
            run = run.union(was.edge(j).bbox()).union(now.edge(j).bbox());
        } else if !run.is_empty() {
            emit(std::mem::replace(&mut run, BBox::EMPTY));
        }
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

/// Cached per-shape sampling, edge indices and per-sample rule results,
/// reusable across resolver rounds: a shape that moved is re-sampled and
/// re-indexed, and [`MrcChecker::recheck`] probes again only the samples
/// that changed and those that can see a changed edge.
#[derive(Clone, Debug, Default)]
pub(crate) struct MrcWorld {
    per_segment: usize,
    shapes: Vec<ShapeCache>,
    /// Every dirty run of every replacement so far, with the index of the
    /// shape it belongs to. Append-only while indices are stable; each
    /// cache remembers how much of it its spacing results have seen.
    log: Vec<(usize, BBox)>,
    /// Rechecks that launched a spacing probe from every shape.
    pub(crate) full_probes: usize,
    /// Shapes the other rechecks launched a spacing probe from.
    pub(crate) incremental_probes: usize,
    /// Width probes launched by all rechecks.
    pub(crate) width_probes: usize,
    /// Spacing probes launched by all rechecks.
    pub(crate) spacing_probes: usize,
}

impl MrcWorld {
    /// Samples and indexes every shape; every result starts stale.
    pub(crate) fn build(shapes: &[CardinalSpline], per_segment: usize) -> MrcWorld {
        MrcWorld {
            per_segment,
            shapes: shapes
                .iter()
                .map(|s| ShapeCache::build(s, per_segment))
                .collect(),
            ..MrcWorld::default()
        }
    }

    /// Re-samples one shape after its control points changed, carries the
    /// results of its unchanged samples over, and returns the cache it
    /// replaced (the undo record of a trial move).
    pub(crate) fn refresh(&mut self, idx: usize, spline: &CardinalSpline) -> ShapeCache {
        let logged = self.log.len();
        let old = self.replace(idx, ShapeCache::build(spline, self.per_segment));
        let new = &mut self.shapes[idx];
        new.kept = old
            .kept
            .carried(&old.sampled, &new.sampled, &self.log[logged..]);
        old
    }

    /// Swaps in a cache for shape `idx` — a fresh one, or a snapshot with
    /// the results it was taken with — and returns the previous one. The
    /// dirty runs between the two go to the change log: a neighbour whose
    /// probes reached the old outline may lose violations, one that reaches
    /// the new outline may gain them.
    pub(crate) fn replace(&mut self, idx: usize, cache: ShapeCache) -> ShapeCache {
        let log = &mut self.log;
        dirty_runs(&self.shapes[idx], &cache, |run| log.push((idx, run)));
        std::mem::replace(&mut self.shapes[idx], cache)
    }

    /// Drops one shape, shifting later indices down (mirrors
    /// `Vec::remove` on the shape list). The change log and the caches'
    /// marks name shapes by index, so every spacing result goes stale —
    /// and undo records taken before the removal must not be put back.
    /// Width and curvature depend on the shape alone and stay.
    pub(crate) fn remove(&mut self, idx: usize) {
        self.shapes.remove(idx);
        let spacing = self.shapes.iter_mut().map(|c| &mut c.kept.spacing);
        spacing.for_each(|results| results.fill(Probe::Stale));
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
        self.recheck(
            shapes,
            &mut MrcWorld::build(shapes, self.samples_per_segment),
        )
    }

    /// Brings the world's results up to date and returns the violations in
    /// report order: spacing for all shapes in sample order, then width,
    /// area, curvature. `world` must describe exactly the shapes in
    /// `shapes`, in order.
    ///
    /// A sample is probed again when it has no result yet, when its
    /// position or normal changed, or when its probe's box meets a dirty
    /// run (of its own shape for width, of another for spacing); curvature
    /// is evaluated again on segments one of whose control points moved.
    /// A fresh world has no results, which makes this the full check.
    pub(crate) fn recheck(
        &self,
        shapes: &[CardinalSpline],
        world: &mut MrcWorld,
    ) -> Vec<Violation> {
        use ViolationKind::{Spacing, Width};
        debug_assert_eq!(shapes.len(), world.shapes.len(), "world out of sync");
        let tree = shape_tree(&world.shapes);
        let (mut stack, mut near) = (Vec::new(), Vec::new());
        let mut probed = 0;
        for (si, spline) in shapes.iter().enumerate() {
            // Taken out so a probe can read every cache while its result
            // is written.
            let mut kept = std::mem::take(&mut world.shapes[si].kept);
            let cache = &world.shapes[si];
            self.expire(cache, si, &world.log, &mut near, &mut kept);
            let before = world.spacing_probes;
            for (kind, results, launched) in [
                (Width, &mut kept.width, &mut world.width_probes),
                (Spacing, &mut kept.spacing, &mut world.spacing_probes),
            ] {
                let stale = results.iter_mut().enumerate();
                for (j, result) in stale.filter(|(_, r)| **r == Probe::Stale) {
                    let hit = self.launch(kind, &world.shapes, &tree, si, j, &mut stack);
                    *result = hit.map_or(Probe::Clean, Probe::Hit);
                    *launched += 1;
                }
            }
            probed += usize::from(world.spacing_probes > before);
            self.update_curvature(spline, world.ccw(si), &mut kept.curvature);
            kept.seen = world.log.len();
            world.shapes[si].kept = kept;
        }
        if probed == shapes.len() {
            world.full_probes += 1;
        } else {
            world.incremental_probes += probed;
        }

        let mut out = Vec::new();
        for kind in [Spacing, Width] {
            for (si, cache) in world.shapes.iter().enumerate() {
                let results = match kind {
                    Spacing => &cache.kept.spacing,
                    _ => &cache.kept.width,
                };
                for (j, result) in results.iter().enumerate() {
                    if let Probe::Hit(dist) = *result {
                        out.push(self.probe_violation(kind, cache, si, j, dist));
                    }
                }
            }
        }
        for (si, cache) in world.shapes.iter().enumerate() {
            self.area_violation(cache, si, &mut out);
        }
        for (si, cache) in world.shapes.iter().enumerate() {
            let found = cache.kept.curvature.iter().flat_map(|c| &c.found);
            out.extend(found.map(|v| Violation { shape: si, ..*v }));
        }
        out
    }

    /// Sizes the result arrays on first use and marks stale the kept
    /// results a change may have moved: width results whose probe box meets
    /// one of the shape's own pending runs, spacing results whose probe box
    /// meets a run another shape logged since this cache last looked.
    fn expire(
        &self,
        cache: &ShapeCache,
        si: usize,
        log: &[(usize, BBox)],
        near: &mut Vec<BBox>,
        kept: &mut Kept,
    ) {
        let shape = &cache.sampled;
        let m = shape.positions.len();
        for results in [&mut kept.width, &mut kept.spacing] {
            if results.len() != m {
                *results = vec![Probe::Stale; m];
            }
        }
        let reach = cache.bbox().expanded(self.rules.min_space + REACH_SLACK);
        let unseen = log[kept.seen..].iter();
        let in_reach = unseen.filter(|(owner, run)| *owner != si && reach.intersects(run));
        near.clear();
        near.extend(in_reach.map(|r| r.1));
        let rules = [
            (&mut kept.width, &kept.own_runs, -self.rules.min_width),
            (&mut kept.spacing, &*near, self.rules.min_space),
        ];
        for (results, runs, along) in rules {
            if runs.is_empty() {
                continue;
            }
            let live = results.iter_mut().enumerate();
            for (j, result) in live.filter(|(_, r)| **r != Probe::Stale) {
                let probe_box = shape.probe(j, along).bbox();
                if runs.iter().any(|run| run.intersects(&probe_box)) {
                    *result = Probe::Stale;
                }
            }
        }
        kept.own_runs.clear();
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

    /// Brings the kept curvature violations of one shape up to date: a
    /// segment is evaluated again when one of its four control points (or
    /// the loop's orientation or tension) differs from what the kept list
    /// was evaluated on.
    fn update_curvature(
        &self,
        spline: &CardinalSpline,
        ccw: bool,
        kept: &mut Option<KeptCurvature>,
    ) {
        let now = spline.control_points();
        let n = now.len();
        let was = kept.as_ref().filter(|k| {
            k.ccw == ccw
                && k.spline.control_points().len() == n
                && k.spline.tension().to_bits() == spline.tension().to_bits()
        });
        let moved = |seg: usize| match was {
            Some(k) => (0..4).any(|d| {
                let c = (seg + n - 1 + d) % n;
                !same_bits(k.spline.control_points()[c], now[c])
            }),
            None => true,
        };
        let segments = 0..spline.segment_count();
        if !segments.clone().any(moved) {
            return;
        }
        let unmoved = was.map_or(&[][..], |k| &k.found[..]).iter();
        let mut found: Vec<Violation> = unmoved.filter(|v| !moved(v.segment)).copied().collect();
        for seg in segments.filter(|&seg| moved(seg)) {
            self.segment_curvature(spline, ccw, 0, seg, &mut found);
        }
        // Stable: a segment's violations are all kept or all new.
        found.sort_by_key(|v| v.segment);
        *kept = Some(KeptCurvature {
            spline: spline.clone(),
            ccw,
            found,
        });
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

    impl MrcChecker {
        /// [`MrcChecker::check`] on a maintained world's sampling and
        /// edge indices, with every kept result treated as stale.
        fn check_with_world(&self, shapes: &[CardinalSpline], world: &MrcWorld) -> Vec<Violation> {
            let mut stale = world.clone();
            stale
                .shapes
                .iter_mut()
                .for_each(|c| c.kept = Kept::default());
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

    // ---- Oracles that share neither the index nor the carry-over ----

    /// What a probe from `from` touches, by brute force: no index, every
    /// edge of every shape in `targets` that `skip` does not name, the same
    /// per-edge box test, the same `min`.
    fn brute_probe(
        probe: Segment,
        from: Point,
        targets: &[&SampledShape],
        skip: impl Fn(usize) -> bool,
    ) -> Probe {
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
        nearest.map_or(Probe::Clean, Probe::Hit)
    }

    /// Checks `shapes` and compares the kept result of every `stride`-th
    /// sample with the brute-force prober (probes written out as
    /// `spacing_probes` / `width_probes` always built them).
    fn assert_matches_brute_force(checker: &MrcChecker, shapes: &[CardinalSpline], stride: usize) {
        let mut world = MrcWorld::build(shapes, checker.samples_per_segment);
        checker.recheck(shapes, &mut world);
        let sampled: Vec<&SampledShape> = world.shapes.iter().map(|c| &c.sampled).collect();
        let mut n = 0;
        for (si, shape) in sampled.iter().enumerate() {
            let m = shape.positions.len();
            let others: Vec<&SampledShape> = (0..sampled.len())
                .filter(|&sj| sj != si)
                .map(|sj| sampled[sj])
                .collect();
            for j in 0..m {
                n += 1;
                if n % stride != 0 {
                    continue;
                }
                let (p, out) = (shape.positions[j], shape.outward[j]);
                let c = checker.rules.min_space;
                let probe = Segment::new(p + out * PROBE_LIFT, p + out * c);
                let spacing = brute_probe(probe, p, &others, |_| false);
                assert_eq!(
                    world.shapes[si].kept.spacing[j], spacing,
                    "shape {si} sample {j}"
                );
                let c = checker.rules.min_width;
                let probe = Segment::new(p - out * PROBE_LIFT, p - out * c);
                let adjacent = |e: usize| circular_distance(e, j, m) <= WIDTH_ADJACENCY;
                let width = brute_probe(probe, p, &[shape], adjacent);
                assert_eq!(
                    world.shapes[si].kept.width[j], width,
                    "shape {si} sample {j}"
                );
            }
        }
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
    fn logic_tile_matches_brute_force_and_pins_the_resolvers_probe_counts() {
        let (rules, mut shapes) = corrected_logic_tile();
        let samples: usize = shapes.iter().map(|s| 8 * s.segment_count()).sum();
        assert_eq!((shapes.len(), samples), (90, 54_304));
        // Every 23rd sample against all 54 k edges: every shape, every
        // sample phase within a segment.
        assert_matches_brute_force(&MrcChecker::new(rules), &shapes, 23);

        // The resolver as `optimize_with_engine` configures it. A whole-shape
        // re-probe per trial (the design before the per-sample results)
        // launches 181 536 width and 305 184 spacing probes here.
        let report =
            crate::MrcResolver::new(rules, crate::ResolveConfig::default()).resolve(&mut shapes);
        assert_eq!(
            (report.initial_violations, report.remaining.len()),
            (281, 76)
        );
        // Exact and machine-independent; the bounds are ≤ 80 000 and
        // ≤ 90 000, i.e. both below two whole-tile checks.
        assert_eq!(
            (report.width_samples_probed, report.spacing_samples_probed),
            (73_619, 81_759)
        );
        assert_eq!((report.full_probes, report.incremental_probes), (1, 352));
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

    /// The sampling of a maintained cache must equal a from-scratch build,
    /// field by field and bit by bit.
    fn assert_same_sampling(cache: &ShapeCache, spline: &CardinalSpline) {
        let fresh = ShapeCache::build(spline, 8);
        let bits = |pts: &[Point]| -> Vec<(u64, u64)> {
            pts.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
        };
        let (a, b) = (&cache.sampled, &fresh.sampled);
        assert_eq!(bits(&a.positions), bits(&b.positions));
        assert_eq!(bits(&a.outward), bits(&b.outward));
        assert_eq!(a.signed_area.to_bits(), b.signed_area.to_bits());
        assert_eq!(a.area.to_bits(), b.area.to_bits());
        assert_eq!(bits(&[a.centroid]), bits(&[b.centroid]));
        assert_eq!(cache.bbox(), fresh.bbox());
        assert_eq!(cache.index.boxes, fresh.index.boxes);
        assert_eq!(cache.index.root_bits, fresh.index.root_bits);
    }

    /// Five stacked wires of 60–120 control points around the spacing and
    /// width limits, so a pull dirties a few percent of a loop and most
    /// results are carried over.
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

    /// One edit of shape `i`: two pulls half a loop apart (two separate
    /// dirty runs), re-sampled into the world. Returns the undo record.
    fn edit(
        rng: &mut cardopc_geometry::SplitMix64,
        shapes: &mut [CardinalSpline],
        world: &mut MrcWorld,
        i: usize,
    ) -> (usize, CardinalSpline, ShapeCache) {
        let snapshot = shapes[i].clone();
        let n = shapes[i].control_points().len();
        let cp = rng.range_usize(0, n);
        for cp in [cp, cp + n / 2] {
            let delta = Point::new(rng.range_f64(-8.0, 8.0), rng.range_f64(-8.0, 8.0));
            pull(&mut shapes[i], cp, delta);
        }
        let before = world.refresh(i, &shapes[i]);
        assert_same_sampling(&world.shapes[i], &shapes[i]);
        (i, snapshot, before)
    }

    fn revert(
        shapes: &mut [CardinalSpline],
        world: &mut MrcWorld,
        (i, snapshot, cache): (usize, CardinalSpline, ShapeCache),
    ) {
        shapes[i] = snapshot;
        world.replace(i, cache);
        assert_same_sampling(&world.shapes[i], &shapes[i]);
    }

    proptest::proptest! {
        /// `recheck == check` after every step of a random edit sequence
        /// on long shapes: edits of a shape and its neighbour in one round,
        /// a revert of one while the other stands, a double edit before a
        /// recheck, a cancelled edit, removals.
        #[test]
        fn recheck_matches_check_over_edit_sequences_on_long_shapes(seed in 0u64..u64::MAX) {
            let mut rng = cardopc_geometry::SplitMix64::new(seed);
            let checker = MrcChecker::new(MrcRules::default());
            let mut shapes = wire_stack(&mut rng);
            let mut world = MrcWorld::build(&shapes, 8);
            proptest::prop_assert_eq!(checker.recheck(&shapes, &mut world), checker.check(&shapes));
            for step in 0..8 {
                let i = rng.range_usize(0, shapes.len() - 1);
                match rng.range_usize(0, 5) {
                    // A shape and its neighbour in one round; then one of
                    // the two is put back while the other stands.
                    0 => {
                        let first = edit(&mut rng, &mut shapes, &mut world, i);
                        let second = edit(&mut rng, &mut shapes, &mut world, i + 1);
                        let vs = checker.recheck(&shapes, &mut world);
                        proptest::prop_assert_eq!(vs, checker.check(&shapes), "step {}", step);
                        let back = if rng.chance(0.5) { first } else { second };
                        revert(&mut shapes, &mut world, back);
                    }
                    // Two edits of one shape before a recheck, undone in
                    // reverse half of the time.
                    1 => {
                        let first = edit(&mut rng, &mut shapes, &mut world, i);
                        let second = edit(&mut rng, &mut shapes, &mut world, i);
                        if rng.chance(0.5) {
                            let vs = checker.recheck(&shapes, &mut world);
                            proptest::prop_assert_eq!(vs, checker.check(&shapes), "step {}", step);
                            revert(&mut shapes, &mut world, second);
                            revert(&mut shapes, &mut world, first);
                        }
                    }
                    // The Keep policy's cancel: put back before any recheck,
                    // while a neighbour's edit stands.
                    2 => {
                        edit(&mut rng, &mut shapes, &mut world, i + 1);
                        let cancelled = edit(&mut rng, &mut shapes, &mut world, i);
                        revert(&mut shapes, &mut world, cancelled);
                    }
                    3 if shapes.len() > 3 => {
                        edit(&mut rng, &mut shapes, &mut world, i);
                        shapes.remove(i + 1);
                        world.remove(i + 1);
                    }
                    _ => {
                        edit(&mut rng, &mut shapes, &mut world, i);
                    }
                }
                let vs = checker.recheck(&shapes, &mut world);
                proptest::prop_assert_eq!(vs, checker.check(&shapes), "step {}", step);
            }
            // Most of every loop was carried over, not probed again.
            let samples: usize = world.shapes.iter().map(|c| c.sampled.positions.len()).sum();
            proptest::prop_assert!(world.width_probes < 4 * samples);
        }
    }

    #[test]
    fn a_pull_reprobes_the_bent_segments_and_what_faces_them() {
        // Two 100-point wires 30 nm apart (no spacing or width violation).
        // Pulling three control points of the lower one 8 nm up bends six
        // of its 100 segments.
        let mut shapes = vec![
            long_wire(0.0, 0.0, 2000.0, 60.0, 100),
            long_wire(0.0, 90.0, 2000.0, 60.0, 100),
            long_wire(0.0, 500.0, 2000.0, 60.0, 100), // out of everyone's reach
        ];
        let checker = MrcChecker::new(MrcRules::default());
        let mut world = MrcWorld::build(&shapes, 8);
        let vs = checker.recheck(&shapes, &mut world);
        assert!(vs.iter().all(|v| v.kind == ViolationKind::Curvature));
        assert_eq!((world.width_probes, world.spacing_probes), (2400, 2400));

        // Control point 70 sits on the lower wire's top edge.
        let snapshot = shapes[0].clone();
        pull(&mut shapes[0], 70, Point::new(0.0, 8.0));
        let before = world.refresh(0, &shapes[0]);
        let vs = checker.recheck(&shapes, &mut world);
        assert_eq!(vs, checker.check(&shapes));
        assert!(has_spacing(&vs, 0) && has_spacing(&vs, 1));
        let (width, spacing) = (world.width_probes - 2400, world.spacing_probes - 2400);
        // Six segments of eight samples, plus the neighbours whose central
        // difference moved, plus whatever faces them within reach.
        assert!((48..120).contains(&width), "{width} width probes");
        assert!((48..200).contains(&spacing), "{spacing} spacing probes");
        assert_eq!(world.incremental_probes, 2);

        // The upper wire answers with a pull of its own, which stands ...
        pull(&mut shapes[1], 30, Point::new(0.0, -8.0));
        world.refresh(1, &shapes[1]);
        assert_eq!(checker.recheck(&shapes, &mut world), checker.check(&shapes));
        // ... while the lower wire is put back with the results it had
        // *before* either pull: those that look at the upper wire's bend
        // are out of date, and only the cache's log mark says so.
        shapes[0] = snapshot;
        world.replace(0, before);
        let vs = checker.recheck(&shapes, &mut world);
        assert_eq!(vs, checker.check(&shapes));
        assert!(has_spacing(&vs, 0), "the restored samples were clean");
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
        let vs = checker.recheck(&shapes, &mut world);
        assert_eq!(vs, checker.check(&shapes));
        assert!(count_kind(&vs, ViolationKind::Curvature) > 8);
        let ccw = world.ccw(0);

        shapes[0] = eight(-3.0);
        world.refresh(0, &shapes[0]);
        assert_ne!(world.ccw(0), ccw);
        assert_eq!(checker.recheck(&shapes, &mut world), checker.check(&shapes));
        assert_eq!(world.width_probes, 2 * 128 + 32);
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
