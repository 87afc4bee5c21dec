//! OPC quality metrics: EPE, L2 and the process variation band (§II-B).
//!
//! The binary-image comparisons (L2, PV band) are one fused threshold and
//! XOR count over a pixel window, [`thresholded_xor_area`].

use cardopc_geometry::{BBox, Grid, Orientation, Point, Polygon, Segment};

/// An edge placement error measurement site: a point on a target edge and
/// the outward normal of that edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeasurePoint {
    /// Position on the target pattern edge, nanometres.
    pub position: Point,
    /// Unit outward normal of the target edge.
    pub normal: Point,
}

/// Result of evaluating EPE over a set of measure points.
#[derive(Clone, Debug, Default)]
pub struct EpeReport {
    /// Signed EPE per measure point (nm); positive = printed edge outside
    /// the target.
    pub values: Vec<f64>,
    /// Search range used; points with no contour crossing saturate at this.
    pub search_range: f64,
}

impl EpeReport {
    /// Sum of absolute EPEs in nanometres — the quantity Tables I/II report.
    pub fn sum_abs(&self) -> f64 {
        self.values.iter().map(|v| v.abs()).sum()
    }

    /// Mean absolute EPE (0 when there are no measure points).
    pub fn mean_abs(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum_abs() / self.values.len() as f64
        }
    }

    /// Number of points whose |EPE| exceeds `tolerance` — the EPE
    /// violation count Table III reports.
    pub fn violations(&self, tolerance: f64) -> usize {
        self.values.iter().filter(|v| v.abs() > tolerance).count()
    }
}

/// Measures the signed EPE at one site by marching along the normal of the
/// target edge until the aerial image crosses `threshold`.
///
/// Positive EPE means the printed contour lies *outside* the target edge
/// (over-print); negative means under-print. When no crossing is found
/// within `search_range` nanometres the result saturates at
/// `±search_range`.
pub fn epe_at(aerial: &Grid, threshold: f64, site: &MeasurePoint, search_range: f64) -> f64 {
    let step = 0.5 * aerial.pitch();
    let at = |d: f64| {
        let p = site.position + site.normal * d;
        aerial.sample(p.x, p.y) - threshold
    };
    let here = at(0.0);
    // If the point is printed (intensity above threshold), the printed edge
    // is somewhere outward; otherwise inward.
    let dir = if here >= 0.0 { 1.0 } else { -1.0 };
    let mut prev = here;
    let mut d = 0.0;
    for next_d in probe_distances(step, search_range) {
        let cur = at(dir * next_d);
        if (prev >= 0.0) != (cur >= 0.0) {
            // Crossing between d and next_d: linear interpolation.
            let frac = if (cur - prev).abs() < 1e-300 {
                0.5
            } else {
                prev.abs() / (cur - prev).abs()
            };
            return dir * (d + frac * step);
        }
        prev = cur;
        d = next_d;
    }
    dir * search_range
}

/// The distances [`epe_at`] steps through past the site: `step`, then
/// `step` more each time, up to the first at or beyond `search_range`.
fn probe_distances(step: f64, search_range: f64) -> impl Iterator<Item = f64> {
    std::iter::successors(Some(0.0), move |&d| (d < search_range).then_some(d + step)).skip(1)
}

/// The pixels [`epe_at`] can read at any of `sites` on a `width×height`
/// grid of `pitch` nm pixels, ascending row-major: the bilinear cell of
/// every probe both ways. Whatever the image, EPE there reads no other.
pub fn epe_footprint<'a>(
    (width, height, pitch): (usize, usize, f64),
    sites: impl IntoIterator<Item = &'a MeasurePoint>,
    search_range: f64,
) -> Vec<usize> {
    let mut read = vec![false; width * height];
    for site in sites {
        // `epe_at`'s probes, in its own arithmetic, both ways.
        let both_ways = probe_distances(0.5 * pitch, search_range).flat_map(|d| [d, -d]);
        for d in std::iter::once(0.0).chain(both_ways) {
            let p = site.position + site.normal * d;
            for i in Grid::sample_cell(width, height, pitch, p.x, p.y).0 {
                read[i] = true;
            }
        }
    }
    (0..width * height).filter(|&i| read[i]).collect()
}

/// Evaluates EPE at every measure point.
pub fn measure_epe(
    aerial: &Grid,
    threshold: f64,
    sites: &[MeasurePoint],
    search_range: f64,
) -> EpeReport {
    EpeReport {
        values: sites
            .iter()
            .map(|s| epe_at(aerial, threshold, s, search_range))
            .collect(),
        search_range,
    }
}

/// Visits a polygon's edges in counter-clockwise ring order without
/// cloning: clockwise rings are walked through the same index reflection
/// `into_ccw`'s vertex reversal would produce, so the edge sequence is
/// identical to `poly.clone().into_ccw().edges()`.
fn for_each_ccw_edge(poly: &Polygon, mut f: impl FnMut(Segment)) {
    let v = poly.vertices();
    let n = v.len();
    if n == 0 {
        return;
    }
    if poly.orientation() == Orientation::Clockwise {
        for i in 0..n {
            f(Segment::new(v[n - 1 - i], v[(2 * n - 2 - i) % n]));
        }
    } else {
        for i in 0..n {
            f(Segment::new(v[i], v[(i + 1) % n]));
        }
    }
}

/// Generates via-layer measure points: the centre of every polygon edge
/// (the paper's convention for via clips).
pub fn via_measure_points(targets: &[Polygon]) -> Vec<MeasurePoint> {
    let mut out = Vec::new();
    for poly in targets {
        for_each_ccw_edge(poly, |e| {
            if let Some(dir) = e.delta().normalized() {
                out.push(MeasurePoint {
                    position: e.midpoint(),
                    // CCW ring: interior on the left, so outward = -perp.
                    normal: -dir.perp(),
                });
            }
        });
    }
    out
}

/// Generates metal-layer measure points: sites every `spacing` nanometres
/// along each edge (plus the edge midpoint for short edges), matching the
/// paper's 60 nm-pitch convention.
pub fn metal_measure_points(targets: &[Polygon], spacing: f64) -> Vec<MeasurePoint> {
    let mut out = Vec::new();
    for poly in targets {
        for_each_ccw_edge(poly, |e| {
            let len = e.length();
            let Some(dir) = e.delta().normalized() else {
                return;
            };
            let normal = -dir.perp();
            let count = (len / spacing).floor() as usize;
            if count == 0 {
                out.push(MeasurePoint {
                    position: e.midpoint(),
                    normal,
                });
            } else {
                // Centre the sites along the edge.
                let margin = (len - count as f64 * spacing) * 0.5 + spacing * 0.5;
                for k in 0..count {
                    out.push(MeasurePoint {
                        position: e.at((margin + k as f64 * spacing) / len),
                        normal,
                    });
                }
            }
        });
    }
    out
}

/// Fused threshold-and-XOR area: the area (nm²) of the pixels whose centre
/// lies in `window` (nm, the half-open box `[min, max)` on both axes) where
/// `(a >= threshold_a)` and `(b >= threshold_b)` disagree.
///
/// Thresholding is fused into the count instead of materialising binarized
/// grids (`Grid::binarize` maps `v >= t` to 1.0, so the count is exact).
/// Scoring uses it for the L2 term (nominal print vs rasterised target)
/// and the PV band (outer vs inner corner prints on the raw aerials); a
/// whole-grid count passes the grid's own extent, a tile's its core, so
/// the disjoint cores of a partition count every seam pixel once.
///
/// # Panics
///
/// Panics when the two grids have different dimensions.
pub fn thresholded_xor_area(
    a: &Grid,
    threshold_a: f64,
    b: &Grid,
    threshold_b: f64,
    window: BBox,
) -> f64 {
    assert_eq!(a.width(), b.width(), "grid width mismatch");
    assert_eq!(a.height(), b.height(), "grid height mismatch");
    let pitch = a.pitch();
    // Pixel centres increase with the index, so each axis's pixels inside
    // the window are one range.
    let inside = |n: usize, lo: f64, hi: f64| {
        let centre = |i: usize| (i as f64 + 0.5) * pitch;
        let start = (0..n).take_while(|&i| centre(i) < lo).count();
        let end = n - (0..n).rev().take_while(|&i| centre(i) >= hi).count();
        start..end.max(start)
    };
    let cols = inside(a.width(), window.min.x, window.max.x);
    let rows = inside(a.height(), window.min.y, window.max.y);
    let mut count = 0usize;
    for row in rows.map(|y| y * a.width()) {
        let span = row + cols.start..row + cols.end;
        for (&va, &vb) in a.data()[span.clone()].iter().zip(&b.data()[span]) {
            if (va >= threshold_a) != (vb >= threshold_b) {
                count += 1;
            }
        }
    }
    count as f64 * (pitch * pitch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardopc_geometry::Polygon;

    /// A synthetic aerial image: intensity ramps down with distance from a
    /// disc of radius `r` centred at `c` — contour of level 0.5 is the
    /// circle itself.
    fn disc_field(w: usize, h: usize, c: Point, r: f64) -> Grid {
        let mut g = Grid::zeros(w, h, 1.0);
        for iy in 0..h {
            for ix in 0..w {
                let p = Point::new(ix as f64 + 0.5, iy as f64 + 0.5);
                let d = p.distance(c) - r;
                g[(ix, iy)] = 0.5 - d * 0.05;
            }
        }
        g
    }

    #[test]
    fn epe_zero_when_contour_matches_target() {
        let g = disc_field(64, 64, Point::new(32.0, 32.0), 10.0);
        let site = MeasurePoint {
            position: Point::new(42.0, 32.0),
            normal: Point::new(1.0, 0.0),
        };
        let e = epe_at(&g, 0.5, &site, 20.0);
        assert!(e.abs() < 0.5, "EPE {e}");
    }

    #[test]
    fn epe_sign_overprint_and_underprint() {
        let g = disc_field(64, 64, Point::new(32.0, 32.0), 10.0);
        // Target edge 3 nm inside the printed circle -> positive EPE ~ +3.
        let inside = MeasurePoint {
            position: Point::new(39.0, 32.0),
            normal: Point::new(1.0, 0.0),
        };
        let e = epe_at(&g, 0.5, &inside, 20.0);
        assert!((e - 3.0).abs() < 0.6, "EPE {e}, want ~3");
        // Target edge 3 nm outside -> negative EPE ~ -3.
        let outside = MeasurePoint {
            position: Point::new(45.0, 32.0),
            normal: Point::new(1.0, 0.0),
        };
        let e = epe_at(&g, 0.5, &outside, 20.0);
        assert!((e + 3.0).abs() < 0.6, "EPE {e}, want ~-3");
    }

    #[test]
    fn epe_saturates_at_search_range() {
        let g = Grid::zeros(32, 32, 1.0); // nothing prints
        let site = MeasurePoint {
            position: Point::new(16.0, 16.0),
            normal: Point::new(1.0, 0.0),
        };
        let e = epe_at(&g, 0.5, &site, 8.0);
        assert_eq!(e.abs(), 8.0);
    }

    /// `image` with every pixel outside `footprint` set to NaN, which
    /// poisons even a bilinear read of weight zero.
    fn poisoned_off(image: &Grid, footprint: &[usize]) -> Grid {
        let mut poisoned = Grid::filled(image.width(), image.height(), image.pitch(), f64::NAN);
        for &i in footprint {
            poisoned.data_mut()[i] = image.data()[i];
        }
        poisoned
    }

    #[test]
    fn epe_reads_nothing_outside_its_footprint() {
        let mut rng = cardopc_geometry::SplitMix64::new(5);
        for (w, h, pitch) in [
            (13usize, 16usize, 34.0),
            (16, 13, 7.0),
            (17, 23, 4.0),
            (64, 48, 8.0),
        ] {
            let extent = Point::new(w as f64 * pitch, h as f64 * pitch);
            // Sites inside, on and beyond the border, any direction.
            let sites: Vec<MeasurePoint> = (0..60)
                .map(|_| {
                    let angle = rng.range_f64(0.0, std::f64::consts::TAU);
                    MeasurePoint {
                        position: Point::new(
                            rng.range_f64(-pitch, extent.x + pitch),
                            rng.range_f64(-pitch, extent.y + pitch),
                        ),
                        normal: Point::new(angle.cos(), angle.sin()),
                    }
                })
                .collect();
            let centre = Point::new(w as f64, h as f64) * 0.5;
            let smooth = disc_field(w, h, centre, w.min(h) as f64 * 0.3);
            let mut noise = Grid::zeros(w, h, pitch);
            noise.map_inplace(|_| rng.range_f64(0.0, 1.0));
            let mut smooth_at_pitch = Grid::zeros(w, h, pitch);
            smooth_at_pitch.data_mut().copy_from_slice(smooth.data());
            for search in [0.0, 1.5 * pitch, 3.7 * pitch, 2.0 * extent.x] {
                let footprint = epe_footprint((w, h, pitch), &sites, search);
                assert!(footprint.windows(2).all(|p| p[0] < p[1]), "ascending");
                for image in [&noise, &smooth_at_pitch] {
                    let poisoned = poisoned_off(image, &footprint);
                    for site in &sites {
                        let want = epe_at(image, 0.5, site, search);
                        let got = epe_at(&poisoned, 0.5, site, search);
                        assert_eq!(got.to_bits(), want.to_bits(), "{w}x{h}, {site:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn report_statistics() {
        let report = EpeReport {
            values: vec![1.0, -2.0, 0.5, 3.0],
            search_range: 10.0,
        };
        assert_eq!(report.sum_abs(), 6.5);
        assert_eq!(report.mean_abs(), 1.625);
        assert_eq!(report.violations(1.0), 2);
        assert_eq!(report.violations(0.0), 4);
        assert_eq!(EpeReport::default().mean_abs(), 0.0);
    }

    #[test]
    fn via_measure_points_outward_normals() {
        let sq = Polygon::rect(Point::new(10.0, 10.0), Point::new(20.0, 20.0));
        let pts = via_measure_points(&[sq]);
        assert_eq!(pts.len(), 4);
        let c = Point::new(15.0, 15.0);
        for mp in &pts {
            // Outward: moving along the normal increases distance to centre.
            let before = mp.position.distance(c);
            let after = (mp.position + mp.normal * 1.0).distance(c);
            assert!(after > before, "normal not outward at {}", mp.position);
            assert!((mp.normal.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn via_points_outward_even_for_cw_input() {
        let mut sq = Polygon::rect(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        sq.reverse(); // clockwise input
        let pts = via_measure_points(&[sq]);
        let c = Point::new(5.0, 5.0);
        for mp in &pts {
            let before = mp.position.distance(c);
            let after = (mp.position + mp.normal * 1.0).distance(c);
            assert!(after > before);
        }
    }

    #[test]
    fn metal_measure_point_density() {
        // 300x50 rectangle with 60 nm spacing: long edges get 5 sites each,
        // short edges 0 -> midpoint fallback.
        let rect = Polygon::rect(Point::new(0.0, 0.0), Point::new(300.0, 50.0));
        let pts = metal_measure_points(&[rect], 60.0);
        // 2 long edges * 5 + 2 short edges * (50/60 -> 0 -> midpoint) = 12.
        assert_eq!(pts.len(), 12);
    }

    /// The binary XOR area of two 0/1 grids over the whole grid.
    fn xor_area(a: &Grid, b: &Grid) -> f64 {
        let extent = Point::new(a.width() as f64, a.height() as f64) * a.pitch();
        thresholded_xor_area(a, 0.5, b, 0.5, BBox::new(Point::ZERO, extent))
    }

    #[test]
    fn l2_counts_xor_area() {
        let mut a = Grid::zeros(4, 4, 2.0);
        let mut b = Grid::zeros(4, 4, 2.0);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = 1.0;
        b[(1, 1)] = 1.0;
        b[(2, 2)] = 1.0;
        // XOR = {(0,0), (2,2)} = 2 pixels * 4 nm² = 8.
        assert_eq!(xor_area(&a, &b), 8.0);
        assert_eq!(xor_area(&a, &a), 0.0);
        // Windows by pixel centre (1, 3, 5, … nm), half-open: a centre on
        // the low edge is in, one on the high edge out.
        for (lo, hi, area) in [
            (0.0, 4.0, 4.0),
            (1.0, 6.0, 8.0),
            (0.0, 5.0, 4.0),
            (1.1, 6.0, 4.0),
        ] {
            let window = BBox::new(Point::new(lo, lo), Point::new(hi, hi));
            assert_eq!(
                thresholded_xor_area(&a, 0.5, &b, 0.5, window),
                area,
                "{window:?}"
            );
        }
    }

    #[test]
    fn pvb_of_identical_prints_is_zero() {
        let g = Grid::filled(8, 8, 1.0, 1.0);
        assert_eq!(xor_area(&g, &g), 0.0);
    }

    #[test]
    fn pvb_band_width() {
        // Outer print: 6x6; inner print: 4x4 -> band = 36 - 16 = 20 px.
        let mut outer = Grid::zeros(8, 8, 1.0);
        let mut inner = Grid::zeros(8, 8, 1.0);
        for iy in 1..7 {
            for ix in 1..7 {
                outer[(ix, iy)] = 1.0;
            }
        }
        for iy in 2..6 {
            for ix in 2..6 {
                inner[(ix, iy)] = 1.0;
            }
        }
        assert_eq!(xor_area(&outer, &inner), 20.0);
    }

    #[test]
    #[should_panic(expected = "grid width mismatch")]
    fn l2_dimension_mismatch_panics() {
        let a = Grid::zeros(4, 4, 1.0);
        let b = Grid::zeros(8, 4, 1.0);
        let _ = xor_area(&a, &b);
    }
}
