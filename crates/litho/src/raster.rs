//! Polygon-to-grid rasterisation with anti-aliased coverage.
//!
//! OPC iterates between geometry (control points, spline polylines) and
//! image space (the litho engine works on pixel grids), so rasterisation
//! quality directly bounds achievable EPE. This module fills polygons with
//! a scanline algorithm: vertical anti-aliasing via sub-scanlines, exact
//! horizontal span-fraction coverage.
//!
//! The scan conversion is edge-bucketed (`ScanScratch::add`): one pass
//! over the vertices finds, per vertex, the first sub-scanline at or above
//! it, so an edge is visited only on the sub-scanlines it crosses — none,
//! for most edges of a densely sampled outline — and a counting sort
//! groups the crossings by sub-scanline. The cost is O(vertices +
//! crossings + pixels filled) where testing every edge on every
//! sub-scanline was O(sub-scanlines × vertices). The result is the same
//! bit for bit: the sub-scanline ordinates, the half-open crossing rule,
//! the crossing formula and the order in which each pixel receives its
//! addends are those of the plain loop, which the test module keeps as
//! the oracle.

use crate::error::LithoError;
use crate::fft::{span_union, Span, NO_SPAN};
use cardopc_geometry::{Grid, Polygon};

/// Number of sub-scanlines per pixel row (vertical anti-aliasing quality).
const SUBSAMPLES: usize = 4;

/// Validates a raster grid specification (pitch must be a positive finite
/// number; the span-filling math divides by it).
fn validate_raster(pitch: f64) -> Result<(), LithoError> {
    if !pitch.is_finite() {
        return Err(LithoError::InvalidRaster("pitch must be finite"));
    }
    if pitch <= 0.0 {
        return Err(LithoError::InvalidRaster("pitch must be positive"));
    }
    Ok(())
}

/// Rasterises a set of polygons into a fresh grid; overlapping shapes union
/// (coverage saturates at 1).
///
/// ```
/// use cardopc_geometry::{Point, Polygon};
/// use cardopc_litho::rasterize;
///
/// let square = Polygon::rect(Point::new(4.0, 4.0), Point::new(12.0, 12.0));
/// let grid = rasterize(&[square], 16, 16, 1.0);
/// // 8x8 nm of coverage at 1 nm pitch.
/// assert!((grid.sum() - 64.0).abs() < 1.0);
/// ```
pub fn rasterize(polygons: &[Polygon], width: usize, height: usize, pitch: f64) -> Grid {
    try_rasterize(polygons, width, height, pitch).expect("invalid raster grid")
}

/// [`rasterize`], rejecting unusable grid specifications instead of
/// producing a garbage raster (a zero/NaN pitch sends every coverage
/// division to ±∞).
///
/// # Errors
///
/// [`LithoError::InvalidRaster`] when `pitch` is not a positive finite
/// number.
pub fn try_rasterize(
    polygons: &[Polygon],
    width: usize,
    height: usize,
    pitch: f64,
) -> Result<Grid, LithoError> {
    validate_raster(pitch)?;
    let mut grid = Grid::zeros(width, height, pitch);
    let mut spans = vec![NO_SPAN; height];
    ScanScratch::default().union_into(&mut grid, polygons, &mut spans);
    Ok(grid)
}

/// Clamps coverage to 1 inside each row's span.
fn clamp_spans(grid: &mut Grid, spans: &[Span]) {
    let w = grid.width();
    for (row, &(start, end)) in grid.data_mut().chunks_exact_mut(w).zip(spans) {
        for v in row.get_mut(start..end).unwrap_or_default() {
            *v = v.min(1.0);
        }
    }
}

/// Buffers of the edge-bucketed scan conversion, kept between polygons so
/// that rasterising allocates only while a polygon is larger than any
/// before it.
#[derive(Clone, Debug, Default)]
struct ScanScratch {
    /// Ordinate of every sub-scanline in the polygon's clipped row range.
    ys: Vec<f64>,
    /// Per vertex `v`, the index into `ys` of the first sub-scanline with
    /// `y_s >= v.y` (`ys.len()` when there is none).
    cuts: Vec<usize>,
    /// Per sub-scanline, where its slice of `xs` ends (the slice's write
    /// cursor while the crossings are placed).
    ends: Vec<usize>,
    /// Crossing abscissae, grouped by sub-scanline.
    xs: Vec<f64>,
}

impl ScanScratch {
    /// Rasterises the clamped union coverage of `polygons` into a zeroed
    /// grid, widening `spans` (one per row) by the pixels written.
    fn union_into(&mut self, grid: &mut Grid, polygons: &[Polygon], spans: &mut [Span]) {
        for poly in polygons {
            self.add(grid, poly, spans);
        }
        clamp_spans(grid, spans);
    }

    /// Adds one polygon's coverage into `grid`, unclamped, widening each
    /// row's entry of `spans` by the pixels it wrote there: the bounding
    /// box says where the *vertices* are, but a crossing
    /// `lo.x + t·(hi.x − lo.x)` can round an ulp past both of its
    /// endpoints, and on a pixel boundary that ulp is a pixel.
    fn add(&mut self, grid: &mut Grid, poly: &Polygon, spans: &mut [Span]) {
        let verts = poly.vertices();
        let n = verts.len();
        let pitch = grid.pitch();
        let (w, h) = (grid.width(), grid.height());
        let bbox = poly.bbox();
        let iy0 = ((bbox.min.y / pitch).floor().max(0.0)) as usize;
        let iy1 = (((bbox.max.y / pitch).ceil()) as usize).min(h);
        if n < 3 || w == 0 || iy0 >= iy1 {
            return;
        }
        let ScanScratch { ys, cuts, ends, xs } = self;
        ys.clear();
        ys.extend((iy0..iy1).flat_map(|iy| {
            (0..SUBSAMPLES)
                .map(move |sub| (iy as f64 + (sub as f64 + 0.5) / SUBSAMPLES as f64) * pitch)
        }));
        let nsub = ys.len();

        // (1) Where each vertex cuts the sub-scanline sequence: an
        // arithmetic guess (sub-scanline `s` of the grid lies near
        // `(s + 0.5) / scale`), settled by comparing against the ordinates
        // themselves. `ys` is non-decreasing, so `ys[s] < v.y` exactly for
        // `s < cut`; a NaN ordinate compares false both ways and stays at
        // the clamped guess, 0.
        let scale = SUBSAMPLES as f64 / pitch;
        let first_sub = (iy0 * SUBSAMPLES) as f64;
        cuts.clear();
        cuts.extend(verts.iter().map(|v| {
            let guess = v.y * scale + 0.5 - first_sub;
            let mut cut = guess.max(0.0).min(nsub as f64) as usize;
            while cut > 0 && ys[cut - 1] >= v.y {
                cut -= 1;
            }
            while cut < nsub && ys[cut] < v.y {
                cut += 1;
            }
            cut
        }));

        // The edges that cross a sub-scanline, as `(lo, hi, crossed)`. The
        // half-open rule `lo.y <= y_s < hi.y` holds exactly on
        // `cuts[lo]..cuts[hi]`, which also tells which end is `lo`; equal
        // cuts (most edges) cross nothing. `lo.y < hi.y` is false only
        // when an ordinate is NaN, and such an edge crosses nothing.
        let crossing_edges = || {
            (0..n).filter_map(|i| {
                let j = if i + 1 == n { 0 } else { i + 1 };
                let (lo, hi) = if cuts[i] < cuts[j] { (i, j) } else { (j, i) };
                (cuts[lo] != cuts[hi] && verts[lo].y < verts[hi].y)
                    .then(|| (verts[lo], verts[hi], cuts[lo]..cuts[hi]))
            })
        };

        // (2) Counting sort of the crossings by sub-scanline, in edge order.
        ends.clear();
        ends.resize(nsub + 1, 0);
        for (_, _, crossed) in crossing_edges() {
            for s in crossed {
                ends[s + 1] += 1;
            }
        }
        for s in 0..nsub {
            ends[s + 1] += ends[s];
        }
        xs.clear();
        xs.resize(ends[nsub], 0.0);
        for (lo, hi, crossed) in crossing_edges() {
            for s in crossed {
                let t = (ys[s] - lo.y) / (hi.y - lo.y);
                xs[ends[s]] = lo.x + t * (hi.x - lo.x);
                ends[s] += 1;
            }
        }

        // (3) Sort each sub-scanline's crossings and fill between pairs.
        // `total_cmp` calls two values equal only when their bits are, so
        // any sorting algorithm yields the same sequence.
        let weight = 1.0 / SUBSAMPLES as f64;
        let mut start = 0;
        for (s, &end) in ends[..nsub].iter().enumerate() {
            let crossings = &mut xs[start..end];
            start = end;
            match crossings {
                [] => continue,
                [a, b] => {
                    if a.total_cmp(b).is_gt() {
                        std::mem::swap(a, b);
                    }
                }
                _ => crossings.sort_unstable_by(f64::total_cmp),
            }
            let iy = iy0 + s / SUBSAMPLES;
            let row = &mut grid.data_mut()[iy * w..(iy + 1) * w];
            for pair in crossings.chunks_exact(2) {
                if let Some(filled) = fill_span(row, pair[0] / pitch, pair[1] / pitch, weight) {
                    spans[iy] = span_union(spans[iy], filled);
                }
            }
        }
    }
}

/// Accumulates a horizontal span `[x0, x1)` (pixel units) into a pixel row
/// with exact fractional coverage at the span ends, and returns the pixel
/// range `first..last` it added to (`None` for an empty span).
fn fill_span(row: &mut [f64], x0: f64, x1: f64, weight: f64) -> Option<(usize, usize)> {
    if x1 <= x0 {
        return None;
    }
    let x0 = x0.max(0.0);
    let x1 = x1.min(row.len() as f64);
    if x1 <= x0 {
        return None;
    }
    let first = x0.floor() as usize;
    let last = (x1.ceil() as usize).min(row.len());
    let cover = |ix: usize| (x1.min(ix as f64 + 1.0) - x0.max(ix as f64)).max(0.0) * weight;
    row[first] += cover(first);
    if last - first > 1 {
        // Strictly inside the span a pixel's cover is exactly 1.
        for v in &mut row[first + 1..last - 1] {
            *v += weight;
        }
        row[last - 1] += cover(last - 1);
    }
    Some((first, last))
}

/// A two-layer raster cache for the OPC iteration loop.
///
/// The flow's shape set splits into a *frozen* layer (SRAFs, fixed after
/// initialisation) and a *moving* layer (the main shapes the correction loop
/// updates). The frozen layer is rasterised once into `base`; each iteration
/// then restores only the pixels the previous moving layer wrote, row by
/// row, from `base`, re-rasterises the moving polygons on top, and clamps
/// coverage inside the freshly written spans — no per-iteration allocation
/// and no full-grid re-rasterisation of frozen geometry. Each row's span is
/// the hull of the pixel runs the scan conversion wrote into it, not an
/// inference from the polygons' bounding boxes.
///
/// The composite equals `rasterize(frozen ∪ moving)` because clamped union
/// coverage satisfies `min(1, min(1, s) + m) == min(1, s + m)` for `m ≥ 0`
/// (differences stay within reassociation rounding where layers overlap).
/// Every nonzero pixel of a row lies in the union of the two layers' spans,
/// its *lit extent*, which [`RasterCache::mask`] hands on to the image.
#[derive(Clone, Debug)]
pub struct RasterCache {
    base: Grid,
    work: Grid,
    /// Per row, the span the frozen layer wrote.
    base_spans: Vec<Span>,
    /// Per row, the span the moving layer wrote at the last composite.
    spans: Vec<Span>,
    /// Per row, `base_spans ∪ spans`: the lit extent.
    lit: Vec<Span>,
    scan: ScanScratch,
}

impl RasterCache {
    /// An empty cache over a `width`×`height` grid with `pitch` nm pixels.
    pub fn new(width: usize, height: usize, pitch: f64) -> RasterCache {
        Self::try_new(width, height, pitch).expect("invalid raster grid")
    }

    /// [`RasterCache::new`], rejecting unusable grid specifications.
    ///
    /// # Errors
    ///
    /// [`LithoError::InvalidRaster`] when `pitch` is not a positive finite
    /// number.
    pub fn try_new(width: usize, height: usize, pitch: f64) -> Result<RasterCache, LithoError> {
        validate_raster(pitch)?;
        let base = Grid::zeros(width, height, pitch);
        Ok(RasterCache {
            work: base.clone(),
            base,
            base_spans: vec![NO_SPAN; height],
            spans: vec![NO_SPAN; height],
            lit: vec![NO_SPAN; height],
            scan: ScanScratch::default(),
        })
    }

    /// Rasterises the frozen layer (clamped union coverage) into the cached
    /// base and resets the working grid to it.
    pub fn set_base(&mut self, polygons: &[Polygon]) {
        self.base.data_mut().fill(0.0);
        self.base_spans.fill(NO_SPAN);
        self.scan
            .union_into(&mut self.base, polygons, &mut self.base_spans);
        self.work.data_mut().copy_from_slice(self.base.data());
        self.spans.fill(NO_SPAN);
        self.lit.copy_from_slice(&self.base_spans);
    }

    /// Composites the moving polygons over the cached base layer and
    /// returns the full mask grid (coverage clamped to 1).
    pub fn composite(&mut self, polygons: &[Polygon]) -> &Grid {
        let w = self.base.width();
        let (work, base) = (self.work.data_mut(), self.base.data());
        for (y, span) in self.spans.iter_mut().enumerate() {
            if span.0 < span.1 {
                let row = y * w + span.0..y * w + span.1;
                work[row.clone()].copy_from_slice(&base[row]);
            }
            *span = NO_SPAN;
        }
        for poly in polygons {
            self.scan.add(&mut self.work, poly, &mut self.spans);
        }
        clamp_spans(&mut self.work, &self.spans);
        for ((lit, &base), &moving) in self.lit.iter_mut().zip(&self.base_spans).zip(&self.spans) {
            *lit = span_union(base, moving);
        }
        &self.work
    }

    /// The current composite grid (base when [`RasterCache::composite`] has
    /// not run yet).
    pub fn grid(&self) -> &Grid {
        &self.work
    }

    /// The current composite with its lit extents.
    pub fn mask(&self) -> MaskRef<'_> {
        MaskRef {
            grid: &self.work,
            extents: Some(&self.lit),
        }
    }
}

/// A mask for [`crate::LithoEngine::aerial_image_into`]: any `&Grid`, or a
/// [`RasterCache`]'s composite with its lit extents (only the cache builds
/// those, so they always bound the grid's nonzero pixels).
#[derive(Clone, Copy, Debug)]
pub struct MaskRef<'a> {
    pub(crate) grid: &'a Grid,
    pub(crate) extents: Option<&'a [Span]>,
}

impl<'a> From<&'a Grid> for MaskRef<'a> {
    fn from(grid: &'a Grid) -> MaskRef<'a> {
        MaskRef {
            grid,
            extents: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardopc_geometry::{Point, SplitMix64};
    use proptest::prelude::*;

    /// The scan conversion this module used before edge bucketing — every
    /// edge tested on every sub-scanline — kept verbatim as the oracle the
    /// production path must match bit for bit.
    fn oracle_rasterize_into(grid: &mut Grid, poly: &Polygon) {
        if poly.len() < 3 {
            return;
        }
        let pitch = grid.pitch();
        let (w, h) = (grid.width(), grid.height());
        let bbox = poly.bbox();
        let iy0 = ((bbox.min.y / pitch).floor().max(0.0)) as usize;
        let iy1 = (((bbox.max.y / pitch).ceil()) as usize).min(h);

        let verts = poly.vertices();
        let n = verts.len();
        let weight = 1.0 / SUBSAMPLES as f64;
        let mut xs: Vec<f64> = Vec::with_capacity(8);

        for iy in iy0..iy1 {
            for sub in 0..SUBSAMPLES {
                let y = (iy as f64 + (sub as f64 + 0.5) / SUBSAMPLES as f64) * pitch;
                // Gather crossings of the horizontal line with polygon edges
                // using the half-open rule [min, max) to avoid double-counting
                // shared vertices.
                xs.clear();
                for i in 0..n {
                    let a = verts[i];
                    let b = verts[(i + 1) % n];
                    let (lo, hi) = if a.y <= b.y { (a, b) } else { (b, a) };
                    if lo.y <= y && y < hi.y {
                        let t = (y - lo.y) / (hi.y - lo.y);
                        xs.push(lo.x + t * (hi.x - lo.x));
                    }
                }
                xs.sort_by(|p, q| p.total_cmp(q));
                // Fill spans between crossing pairs.
                for pair in xs.chunks_exact(2) {
                    let (x0, x1) = (pair[0] / pitch, pair[1] / pitch);
                    oracle_fill_span(grid, iy, x0, x1, weight, w);
                }
            }
        }
    }

    /// The oracle's span fill: every pixel of the span through the general
    /// cover expression.
    fn oracle_fill_span(grid: &mut Grid, iy: usize, x0: f64, x1: f64, weight: f64, width: usize) {
        if x1 <= x0 {
            return;
        }
        let x0 = x0.max(0.0);
        let x1 = x1.min(width as f64);
        if x1 <= x0 {
            return;
        }
        let first = x0.floor() as usize;
        let last = (x1.ceil() as usize).min(width);
        for ix in first..last {
            let cell_lo = ix as f64;
            let cell_hi = cell_lo + 1.0;
            let cover = (x1.min(cell_hi) - x0.max(cell_lo)).max(0.0);
            grid[(ix, iy)] += cover * weight;
        }
    }

    fn bits(grid: &Grid) -> Vec<u64> {
        grid.data().iter().map(|v| v.to_bits()).collect()
    }

    fn in_spans(spans: &[Span], ix: usize, iy: usize) -> bool {
        let (start, end) = spans[iy];
        (start..end).contains(&ix)
    }

    /// The cache as it was before it recorded spans: one dirty rectangle,
    /// the bounding box of every span written, restored and clamped whole.
    /// Kept as the oracle of [`RasterCache::composite`].
    struct RectCache {
        base: Grid,
        work: Grid,
        dirty: (usize, usize, usize, usize),
        scan: ScanScratch,
    }

    impl RectCache {
        fn new(base: &Grid) -> RectCache {
            RectCache {
                base: base.clone(),
                work: base.clone(),
                dirty: (usize::MAX, 0, usize::MAX, 0),
                scan: ScanScratch::default(),
            }
        }

        fn composite(&mut self, polygons: &[Polygon]) -> &Grid {
            let w = self.base.width();
            let (ix0, ix1, iy0, iy1) = self.dirty;
            for iy in iy0..iy1 {
                let row = iy * w + ix0..iy * w + ix1;
                self.work.data_mut()[row.clone()].copy_from_slice(&self.base.data()[row]);
            }
            let mut spans = vec![NO_SPAN; self.base.height()];
            for poly in polygons {
                self.scan.add(&mut self.work, poly, &mut spans);
            }
            self.dirty = (usize::MAX, 0, usize::MAX, 0);
            for (iy, &(start, end)) in spans.iter().enumerate().filter(|(_, s)| s.0 < s.1) {
                let (a, b, c, d) = self.dirty;
                self.dirty = (a.min(start), b.max(end), c.min(iy), d.max(iy + 1));
            }
            let (ix0, ix1, iy0, iy1) = self.dirty;
            let data = self.work.data_mut();
            for iy in iy0..iy1 {
                for v in &mut data[iy * w + ix0..iy * w + ix1] {
                    *v = v.min(1.0);
                }
            }
            &self.work
        }
    }

    /// A polygon with exactly these vertices. `Polygon::new` would drop
    /// consecutive duplicates; the correction loop's in-place refill of a
    /// reused polygon does not, so neither do the tests.
    fn raw_polygon(points: &[Point]) -> Polygon {
        let distinct = (0..points.len()).map(|i| Point::new(i as f64, 0.0));
        let mut poly = Polygon::new(distinct.collect());
        poly.vertices_mut().copy_from_slice(points);
        poly
    }

    /// A grid of arbitrary coverage-like values, so that the order in which
    /// a pixel receives its addends shows in its last bits.
    fn noise_grid(width: usize, height: usize, pitch: f64, seed: u64) -> Grid {
        let mut rng = SplitMix64::new(seed);
        let data = (0..width * height).map(|_| rng.next_f64()).collect();
        Grid::from_data(width, height, pitch, data)
    }

    /// Adds `polys` one after another into the same noise grid through the
    /// oracle and through the production core (one scratch, as `composite`
    /// uses it) and requires identical bits in every pixel; outside the
    /// row spans the core reports, the grid must not have changed.
    fn assert_matches_oracle(polys: &[Polygon], width: usize, height: usize, pitch: f64) {
        let start = noise_grid(width, height, pitch, 0x5eed);
        let (mut expected, mut actual) = (start.clone(), start.clone());
        let mut scan = ScanScratch::default();
        let mut written = vec![NO_SPAN; height];
        for poly in polys {
            oracle_rasterize_into(&mut expected, poly);
            scan.add(&mut actual, poly, &mut written);
        }
        let first_diff = bits(&expected)
            .iter()
            .zip(bits(&actual))
            .position(|(a, b)| *a != b);
        assert_eq!(
            first_diff.map(|i| (i % width, i / width)),
            None,
            "first differing pixel; {width}x{height} @ {pitch}, polygons {polys:?}"
        );
        for (i, (a, b)) in start.data().iter().zip(actual.data()).enumerate() {
            let (ix, iy) = (i % width, i / width);
            assert!(
                in_spans(&written, ix, iy) || a.to_bits() == b.to_bits(),
                "pixel ({ix}, {iy}) written outside the reported {:?}",
                written[iy]
            );
        }
    }

    /// The ordinate of sub-scanline `sub` of pixel row `iy`, by the
    /// rasteriser's expression.
    fn sub_scanline_y(iy: usize, sub: usize, pitch: f64) -> f64 {
        (iy as f64 + (sub as f64 + 0.5) / SUBSAMPLES as f64) * pitch
    }

    /// A seeded polygon of `n` vertices over (and beyond) a `width`×`height`
    /// grid: a star, a zig-zag comb or a random self-intersecting ring, with
    /// vertices snapped exactly onto sub-scanline ordinates (and one ulp to
    /// either side), onto pixel boundaries, and duplicated.
    fn wild_polygon(seed: u64, n: usize, width: usize, height: usize, pitch: f64) -> Polygon {
        let mut rng = SplitMix64::new(seed);
        let (ew, eh) = (width as f64 * pitch, height as f64 * pitch);
        // Up to 30 % overhang on every side.
        let spread = |rng: &mut SplitMix64, extent: f64| rng.range_f64(-0.3, 1.3) * extent;
        let kind = rng.next_u64() % 3;
        let (cx, cy) = (spread(&mut rng, ew), spread(&mut rng, eh));
        let mut points: Vec<Point> = (0..n)
            .map(|i| match kind {
                0 => {
                    let angle = std::f64::consts::TAU * i as f64 / n as f64;
                    let r = rng.range_f64(0.05, 0.7) * ew.max(eh);
                    Point::new(cx + r * angle.cos(), cy + r * angle.sin())
                }
                1 => {
                    // Teeth along the top, a flat return along the bottom.
                    let half = n.div_ceil(2);
                    let (k, top) = if i < half {
                        (i, true)
                    } else {
                        (n - 1 - i, false)
                    };
                    let x = -0.3 * ew + 1.6 * ew * k as f64 / half as f64;
                    let y = match (top, k % 2) {
                        (true, 0) => cy + rng.range_f64(0.0, 0.5) * eh,
                        (true, _) => cy,
                        (false, _) => cy - 0.2 * eh,
                    };
                    Point::new(x, y)
                }
                _ => Point::new(spread(&mut rng, ew), spread(&mut rng, eh)),
            })
            .collect();
        for i in 0..n {
            let (iy, sub) = (
                rng.range_usize(0, height + 2),
                rng.range_usize(0, SUBSAMPLES),
            );
            let on_line = sub_scanline_y(iy, sub, pitch);
            match rng.next_u64() % 16 {
                0 | 1 => points[i].y = on_line,
                2 => points[i].y = on_line.next_up(),
                3 => points[i].y = on_line.next_down(),
                4 => points[i].y = iy as f64 * pitch,
                5 | 6 => points[i].x = rng.range_usize(0, width + 2) as f64 * pitch,
                7 if i > 0 => points[i] = points[i - 1],
                8 => points[i] = points[rng.range_usize(0, n)],
                _ => {}
            }
        }
        raw_polygon(&points)
    }

    #[test]
    fn matches_oracle_on_seeded_sweep() {
        let mut rng = SplitMix64::new(17);
        let mut cases = 0;
        for &pitch in &[0.7, 1.0, 2.0, 4.0, 8.0] {
            for round in 0..120 {
                let (width, height) = (rng.range_usize(1, 48), rng.range_usize(1, 48));
                let n = if round % 10 == 0 {
                    3
                } else {
                    rng.range_usize(3, 80)
                };
                let polys: Vec<Polygon> = (0..1 + round % 3)
                    .map(|_| wild_polygon(rng.next_u64(), n, width, height, pitch))
                    .collect();
                assert_matches_oracle(&polys, width, height, pitch);
                cases += 1;
            }
        }
        assert!(cases >= 500);
    }

    proptest! {
        #[test]
        fn matches_oracle_on_random_polygons(
            seed in 0u64..u64::MAX,
            n in 3usize..=400,
            pitch in 0.3f64..9.0,
            width in 1usize..72,
            height in 1usize..72,
        ) {
            let poly = wild_polygon(seed, n, width, height, pitch);
            assert_matches_oracle(&[poly], width, height, pitch);
        }
    }

    /// The production input: tile 0 of `cardopc --design gcd --crop 8192`
    /// at the CLI defaults (90 outlines, ≈ 54 k vertices, 768² at 8 nm),
    /// before the first correction iteration and after the tenth.
    #[test]
    fn matches_oracle_on_the_logic_tile() {
        use cardopc_layout::{generated_clip, DesignKind};
        use cardopc_opc::{engine_for_extent, CardOpc, OpcConfig};
        use cardopc_runtime::{partition_clip, TilingConfig};

        let clip = generated_clip(DesignKind::Gcd, 1, Some(8192.0));
        let tiling = TilingConfig {
            tile_size: 4096.0,
            halo: 1024.0,
        };
        let tile = &partition_clip(&clip, &tiling).unwrap().tiles[0];
        let config = OpcConfig {
            mrc: None,
            ..OpcConfig::large_scale()
        };
        let per = config.samples_per_segment;
        let engine =
            engine_for_extent(tile.clip.width(), tile.clip.height(), config.pitch).unwrap();
        let (width, height, pitch) = (engine.width(), engine.height(), engine.pitch());
        assert_eq!((width, height, pitch), (768, 768, 8.0));
        let flow = CardOpc::new(config);
        let initial = flow.initialize(&tile.clip).unwrap();
        let corrected = flow.optimize_with_engine(&tile.clip, &engine).unwrap();
        assert_eq!(corrected.epe_history.len(), 10);
        for shapes in [&initial, &corrected.shapes] {
            let polys: Vec<Polygon> = shapes.iter().map(|s| s.spline.to_polygon(per)).collect();
            assert_eq!(polys.len(), 90);
            assert!(polys.iter().map(Polygon::len).sum::<usize>() > 50_000);
            assert_matches_oracle(&polys, width, height, pitch);
        }
    }

    #[test]
    fn hostile_geometry_matches_oracle_without_panicking() {
        const INF: f64 = f64::INFINITY;
        let p = Point::new;
        let ring = raw_polygon;
        let rect = |x0, y0, x1, y1| Polygon::rect(p(x0, y0), p(x1, y1));
        let cases = [
            // Non-finite and huge ordinates and abscissae.
            ring(&[p(2.0, f64::NAN), p(9.0, 3.0), p(4.0, 11.0)]),
            ring(&[p(2.0, 1.0), p(f64::NAN, 6.0), p(12.0, 9.0), p(3.0, 14.0)]),
            ring(&[p(f64::NAN, f64::NAN); 3]),
            ring(&[p(2.0, -INF), p(9.0, 3.0), p(4.0, INF)]),
            ring(&[p(-INF, 2.0), p(INF, 5.0), p(7.0, 12.0)]),
            ring(&[p(INF, INF), p(-INF, -INF), p(INF, -INF)]),
            ring(&[p(1e300, 1e300), p(-1e300, 2.0), p(5.0, -1e300)]),
            ring(&[p(3.0, 1e300), p(9.0, 1e300), p(6.0, 4.0)]),
            ring(&[p(3.0, -1e300), p(9.0, 5.0), p(6.0, 2e300), p(2.0, 7.0)]),
            ring(&[p(5e-324, 5e-324), p(8.0, -5e-324), p(4.0, 9.0)]),
            // No height: one point, a horizontal line, a horizontal zig-zag.
            ring(&[p(4.0, 4.0); 3]),
            ring(&[p(1.0, 4.125), p(9.0, 4.125), p(5.0, 4.125)]),
            ring(&[p(1.0, 6.0), p(14.0, 6.0), p(3.0, 6.0), p(20.0, 6.0)]),
            // Wholly above, below, left and right of the grid.
            rect(2.0, -9.0, 9.0, -3.0),
            rect(2.0, 20.0, 9.0, 30.0),
            rect(-9.0, 2.0, -3.0, 9.0),
            rect(20.0, 2.0, 30.0, 9.0),
            // Across every border at once, and edge to edge exactly.
            rect(-5.0, -5.0, 21.0, 21.0),
            rect(0.0, 0.0, 16.0, 16.0),
            ring(&[p(8.0, -40.0), p(60.0, 8.0), p(8.0, 50.0), p(-30.0, 8.0)]),
        ];
        for pitch in [0.5, 1.0, 3.0] {
            for (width, height) in [(16, 16), (1, 16), (16, 1), (0, 16), (16, 0)] {
                for poly in &cases {
                    assert_matches_oracle(std::slice::from_ref(poly), width, height, pitch);
                }
                assert_matches_oracle(&cases, width, height, pitch);
            }
        }
    }

    /// A triangle whose crossing of sub-scanline `y_s` lands in the pixel
    /// left of its bounding box: the upper vertex `hi` sits one ulp above
    /// `y_s` on the boundary of pixel `k`, so `t` rounds to exactly 1, and
    /// `lo.x + 1.0 * (hi.x - lo.x)` is not always `hi.x` — `lo.x` is searched
    /// until the sum falls short of the boundary. Returns the triangle and
    /// `k`.
    fn ulp_undershoot_triangle(y_s: f64, pitch: f64) -> (Polygon, usize) {
        let lo_y = y_s - 1000.0;
        assert_eq!((y_s - lo_y) / (y_s.next_up() - lo_y), 1.0);
        let mut rng = SplitMix64::new(3);
        let (k, hi_x, lo_x) = (0..100_000)
            .map(|_| {
                let k = rng.range_usize(1, 30);
                let hi_x = k as f64 * pitch;
                (k, hi_x, hi_x + rng.range_f64(1.0, 1500.0))
            })
            .find(|&(k, hi_x, lo_x)| {
                let crossing = lo_x + 1.0 * (hi_x - lo_x);
                (hi_x / pitch).floor() == k as f64 && (crossing / pitch).floor() < k as f64
            })
            .expect("no abscissa undershoots a pixel boundary");
        let hi = Point::new(hi_x, y_s.next_up());
        let tri = Polygon::new(vec![
            hi,
            Point::new(lo_x, lo_y),
            Point::new(lo_x, y_s + 9.0),
        ]);
        (tri, k)
    }

    #[test]
    fn crossing_an_ulp_outside_the_bbox_is_restored() {
        let pitch = 0.7;
        let (tri, k) = ulp_undershoot_triangle(sub_scanline_y(5, 0, pitch), pitch);
        assert_eq!((tri.bbox().min.x / pitch).floor(), k as f64);
        let mut cache = RasterCache::new(32, 32, pitch);
        cache.set_base(&[]);
        let base = bits(cache.grid());
        let leaked = cache.composite(std::slice::from_ref(&tri))[(k - 1, 5)];
        assert!(
            leaked > 0.0 && leaked < 1e-12,
            "pixel left of the bbox: {leaked}"
        );
        assert_eq!(bits(cache.composite(&[])), base);
    }

    /// Shapes that move, vanish, reappear and leave the grid over a frozen
    /// layer: after every step the composite equals the rectangle cache's
    /// bit for bit and the from-scratch union raster (bit for bit where the
    /// layers do not overlap), nothing outside the recorded row spans
    /// differs from the base, and every nonzero pixel lies in its row's lit
    /// extent.
    #[test]
    fn raster_cache_matches_from_scratch_over_random_steps() {
        for (width, height, pitch, seed) in [(40, 36, 0.7, 99), (13, 16, 0.7, 7), (16, 13, 1.3, 8)]
        {
            check_random_steps(width, height, pitch, seed);
        }
    }

    fn check_random_steps(width: usize, height: usize, pitch: f64, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let frozen: Vec<Polygon> = (0..3)
            .map(|_| wild_polygon(rng.next_u64(), 12, width / 2, height / 2, pitch))
            .collect();
        let mut shapes: Vec<Polygon> = (0..5)
            .map(|_| wild_polygon(rng.next_u64(), 24, width, height, pitch))
            .collect();
        // The last one stays where it is and only comes and goes.
        shapes.push(ulp_undershoot_triangle(sub_scanline_y(9, 2, pitch), pitch).0);
        let mut cache = RasterCache::new(width, height, pitch);
        cache.set_base(&frozen);
        let base = rasterize(&frozen, width, height, pitch);
        assert_eq!(bits(&cache.base), bits(&base));
        let mut oracle = RectCache::new(&base);
        for step in 0..50 {
            for shape in &mut shapes[..5] {
                let shift = match rng.next_u64() % 8 {
                    0 => Point::new(1e4, 0.0),  // leaves the grid …
                    1 => Point::new(-1e4, 0.0), // … and may come back
                    2 => Point::new(0.0, pitch),
                    _ => Point::new(rng.range_f64(-3.0, 3.0), rng.range_f64(-3.0, 3.0)),
                };
                for v in shape.vertices_mut() {
                    *v += shift;
                }
            }
            // A random subset is present this step.
            let moving: Vec<Polygon> = shapes.iter().filter(|_| rng.chance(0.7)).cloned().collect();
            let cached = cache.composite(&moving).clone();
            assert_eq!(
                bits(&cached),
                bits(oracle.composite(&moving)),
                "step {step}"
            );
            let moving_only = rasterize(&moving, width, height, pitch);
            let all: Vec<Polygon> = frozen.iter().chain(&moving).cloned().collect();
            let scratch = rasterize(&all, width, height, pitch);
            let mask = cache.mask();
            let extents = mask.extents.expect("the cache reports extents");
            assert!(std::ptr::eq(mask.grid, cache.grid()));
            for i in 0..width * height {
                let (ix, iy) = (i % width, i / width);
                let (a, b) = (cached.data()[i], scratch.data()[i]);
                if base.data()[i] == 0.0 || moving_only.data()[i] == 0.0 {
                    assert_eq!(a.to_bits(), b.to_bits(), "step {step}, pixel ({ix}, {iy})");
                } else {
                    assert!(
                        (a - b).abs() < 1e-12,
                        "step {step}, pixel ({ix}, {iy}): {a} vs {b}"
                    );
                }
                assert!(
                    in_spans(&cache.spans, ix, iy) || a.to_bits() == base.data()[i].to_bits(),
                    "step {step}: pixel ({ix}, {iy}) left dirty outside {:?}",
                    cache.spans[iy]
                );
                assert!(
                    a == 0.0 || in_spans(extents, ix, iy),
                    "step {step}: lit pixel ({ix}, {iy}) outside its extent {:?}",
                    extents[iy]
                );
            }
        }
        assert_eq!(bits(cache.composite(&[])), bits(&base));
        assert_eq!(cache.mask().extents, Some(&cache.base_spans[..]));
    }

    #[test]
    fn composite_reuses_its_scratch() {
        let polys: Vec<Polygon> = (0..6)
            .map(|seed| wild_polygon(seed, 40, 32, 32, 1.0))
            .collect();
        let mut cache = RasterCache::new(32, 32, 1.0);
        cache.set_base(&polys[..2]);
        cache.composite(&polys);
        let buffers = |c: &RasterCache| {
            let s = &c.scan;
            [
                (s.ys.as_ptr() as usize, s.ys.capacity()),
                (s.cuts.as_ptr() as usize, s.cuts.capacity()),
                (s.ends.as_ptr() as usize, s.ends.capacity()),
                (s.xs.as_ptr() as usize, s.xs.capacity()),
                (c.base.data().as_ptr() as usize, c.base.len()),
                (c.work.data().as_ptr() as usize, c.work.len()),
            ]
        };
        let before = buffers(&cache);
        cache.composite(&polys);
        cache.set_base(&polys[..2]);
        cache.composite(&polys[1..]);
        assert_eq!(buffers(&cache), before);
    }

    #[test]
    fn aligned_square_exact_coverage() {
        let sq = Polygon::rect(Point::new(2.0, 2.0), Point::new(6.0, 6.0));
        let g = rasterize(&[sq], 8, 8, 1.0);
        assert!((g.sum() - 16.0).abs() < 1e-9);
        assert_eq!(g[(3, 3)], 1.0);
        assert_eq!(g[(0, 0)], 0.0);
        assert_eq!(g[(6, 6)], 0.0);
    }

    #[test]
    fn half_pixel_offset_gives_half_coverage() {
        let sq = Polygon::rect(Point::new(2.5, 2.0), Point::new(5.5, 6.0));
        let g = rasterize(&[sq], 8, 8, 1.0);
        // Total area preserved.
        assert!((g.sum() - 12.0).abs() < 1e-9);
        // Boundary pixels half covered.
        assert!((g[(2, 3)] - 0.5).abs() < 1e-9);
        assert!((g[(5, 3)] - 0.5).abs() < 1e-9);
        assert_eq!(g[(3, 3)], 1.0);
    }

    #[test]
    fn vertical_antialiasing() {
        let sq = Polygon::rect(Point::new(1.0, 2.25), Point::new(7.0, 5.75));
        let g = rasterize(&[sq], 8, 8, 1.0);
        // 6 x 3.5 = 21 area.
        assert!((g.sum() - 21.0).abs() < 1.0);
        // Top/bottom rows partially covered.
        assert!(g[(3, 2)] > 0.5 && g[(3, 2)] < 1.0);
        assert!(g[(3, 5)] > 0.5 && g[(3, 5)] < 1.0);
    }

    #[test]
    fn triangle_area_approximation() {
        let tri = Polygon::new(vec![
            Point::new(1.0, 1.0),
            Point::new(15.0, 1.0),
            Point::new(1.0, 15.0),
        ]);
        let g = rasterize(&[tri], 16, 16, 1.0);
        assert!((g.sum() - 98.0).abs() < 3.0, "triangle area {}", g.sum());
    }

    #[test]
    fn overlapping_shapes_saturate() {
        let a = Polygon::rect(Point::new(1.0, 1.0), Point::new(5.0, 5.0));
        let b = Polygon::rect(Point::new(3.0, 3.0), Point::new(7.0, 7.0));
        let g = rasterize(&[a, b], 8, 8, 1.0);
        assert!(g.max_value() <= 1.0 + 1e-12);
        // Union area = 16 + 16 - 4 = 28.
        assert!((g.sum() - 28.0).abs() < 1e-9);
    }

    #[test]
    fn shape_outside_grid_is_clipped() {
        let sq = Polygon::rect(Point::new(-4.0, -4.0), Point::new(4.0, 4.0));
        let g = rasterize(&[sq], 8, 8, 1.0);
        assert!((g.sum() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_polygon_ignored() {
        let line = Polygon::new(vec![Point::new(0.0, 0.0), Point::new(5.0, 5.0)]);
        let g = rasterize(&[line], 8, 8, 1.0);
        assert_eq!(g.sum(), 0.0);
    }

    #[test]
    fn pitch_scaling() {
        // Same physical square at 2 nm pitch covers 1/4 the pixels.
        let sq = Polygon::rect(Point::new(4.0, 4.0), Point::new(12.0, 12.0));
        let g1 = rasterize(
            &[std::iter::once(sq.clone()).collect::<Vec<_>>()[0].clone()],
            16,
            16,
            1.0,
        );
        let g2 = rasterize(&[sq], 8, 8, 2.0);
        assert!((g1.sum() - 64.0).abs() < 1e-9);
        assert!((g2.sum() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn raster_cache_matches_from_scratch_after_moves() {
        // Frozen layer: two small squares. Moving layer: a square that
        // drifts across the grid (including over a frozen square). The
        // cached composite must match the from-scratch union raster at
        // every step, and total coverage must be conserved.
        let frozen = vec![
            Polygon::rect(Point::new(2.0, 2.0), Point::new(6.0, 6.0)),
            Polygon::rect(Point::new(20.0, 20.0), Point::new(24.0, 24.0)),
        ];
        let mut cache = RasterCache::new(32, 32, 1.0);
        cache.set_base(&frozen);
        for step in 0..8 {
            let d = step as f64 * 2.5;
            let moving = vec![
                Polygon::rect(Point::new(1.0 + d, 1.0 + d), Point::new(7.0 + d, 7.0 + d)),
                Polygon::rect(Point::new(28.0 - d, 3.0), Point::new(31.0 - d, 9.5)),
            ];
            let cached = cache.composite(&moving).clone();
            let mut all = frozen.clone();
            all.extend(moving);
            let scratch = rasterize(&all, 32, 32, 1.0);
            assert!(
                (cached.sum() - scratch.sum()).abs() < 1e-9,
                "step {step}: cached sum {} vs scratch {}",
                cached.sum(),
                scratch.sum()
            );
            for (i, (&a, &b)) in cached.data().iter().zip(scratch.data()).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "step {step}, pixel {i}: cached {a} vs scratch {b}"
                );
            }
        }
    }

    #[test]
    fn raster_cache_empty_layers() {
        let mut cache = RasterCache::new(8, 8, 1.0);
        cache.set_base(&[]);
        assert_eq!(cache.grid().sum(), 0.0);
        let g = cache.composite(&[]).clone();
        assert_eq!(g.sum(), 0.0);
        let sq = Polygon::rect(Point::new(1.0, 1.0), Point::new(3.0, 3.0));
        assert!((cache.composite(&[sq]).sum() - 4.0).abs() < 1e-9);
        // Moving layer removed again: base restored.
        assert_eq!(cache.composite(&[]).sum(), 0.0);
    }

    #[test]
    fn invalid_pitch_rejected() {
        for pitch in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                try_rasterize(&[], 8, 8, pitch),
                Err(LithoError::InvalidRaster(_))
            ));
            assert!(matches!(
                RasterCache::try_new(8, 8, pitch),
                Err(LithoError::InvalidRaster(_))
            ));
        }
        assert!(try_rasterize(&[], 8, 8, 1.0).is_ok());
    }

    #[test]
    fn concave_polygon_fills_correctly() {
        // U-shape: outer 10x10 minus inner 4x6 notch from the top.
        let u = Polygon::new(vec![
            Point::new(1.0, 1.0),
            Point::new(11.0, 1.0),
            Point::new(11.0, 11.0),
            Point::new(8.0, 11.0),
            Point::new(8.0, 5.0),
            Point::new(4.0, 5.0),
            Point::new(4.0, 11.0),
            Point::new(1.0, 11.0),
        ]);
        let expected = u.area();
        let g = rasterize(&[u], 12, 12, 1.0);
        assert!(
            (g.sum() - expected).abs() < 1e-6,
            "{} vs {}",
            g.sum(),
            expected
        );
        // The notch is empty.
        assert_eq!(g[(6, 8)], 0.0);
    }
}
