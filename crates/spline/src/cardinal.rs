//! Cardinal spline evaluation and differential geometry.
//!
//! A cardinal spline interpolates its control points: the curve between
//! `p_i` and `p_{i+1}` is the cubic
//!
//! ```text
//! p(t) = [1 t t² t³] · S_card · [p_{i-1} p_i p_{i+1} p_{i+2}]ᵀ ,  t ∈ [0,1]
//!
//!            ⎡  0    1     0     0 ⎤
//! S_card  =  ⎢ -s    0     s     0 ⎥          (Eq. 2 of the paper)
//!            ⎢ 2s   s-3  3-2s   -s ⎥
//!            ⎣ -s   2-s   s-2    s ⎦
//! ```
//!
//! where `s` is the tension parameter (the paper uses `s = 0.6`). The first
//! and second parameter derivatives (Eq. 8a and Eq. 10) are polynomials with
//! the same coefficient vectors, which makes unit normals (Eq. 8c) and the
//! analytic curvature (Eq. 9) cheap to evaluate — the property that makes
//! curvilinear MRC tractable.

use crate::{SamplingPlan, SplineError, SAMPLE_BLOCK};
use cardopc_geometry::{BBox, Point, Polygon};

/// The per-segment cubic coefficients `p(t) = c0 + c1·t + c2·t² + c3·t³`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Coeffs {
    c0: Point,
    c1: Point,
    c2: Point,
    c3: Point,
}

impl Coeffs {
    /// Builds the coefficients from the 4-point neighbourhood and tension.
    fn new(pm1: Point, p0: Point, p1: Point, p2: Point, s: f64) -> Self {
        Coeffs {
            c0: p0,
            c1: (p1 - pm1) * s,
            c2: pm1 * (2.0 * s) + p0 * (s - 3.0) + p1 * (3.0 - 2.0 * s) - p2 * s,
            c3: pm1 * (-s) + p0 * (2.0 - s) + p1 * (s - 2.0) + p2 * s,
        }
    }

    #[inline]
    fn point(&self, t: f64) -> Point {
        // Horner evaluation.
        self.c0 + (self.c1 + (self.c2 + self.c3 * t) * t) * t
    }

    #[inline]
    fn derivative(&self, t: f64) -> Point {
        self.c1 + (self.c2 * 2.0 + self.c3 * (3.0 * t)) * t
    }

    #[inline]
    fn second_derivative(&self, t: f64) -> Point {
        self.c2 * 2.0 + self.c3 * (6.0 * t)
    }
}

/// An interpolating cardinal spline through a closed loop of control points
/// (a mask shape boundary); its index arithmetic wraps around the loop.
///
/// Segment `i` spans control points `p_i` (at local parameter `t = 0`) to
/// `p_{(i+1) mod n}` (`t = 1`), so a loop over `n` points has `n` segments.
///
/// ```
/// use cardopc_geometry::Point;
/// use cardopc_spline::CardinalSpline;
///
/// let pts = vec![
///     Point::new(0.0, 0.0),
///     Point::new(10.0, 0.0),
///     Point::new(10.0, 10.0),
///     Point::new(0.0, 10.0),
/// ];
/// let spline = CardinalSpline::closed(pts, 0.6)?;
/// assert_eq!(spline.segment_count(), 4);
/// let mid = spline.point(0, 0.5);
/// assert!(mid.x > 0.0 && mid.x < 10.0);
/// # Ok::<(), cardopc_spline::SplineError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CardinalSpline {
    points: Vec<Point>,
    tension: f64,
}

impl CardinalSpline {
    /// Creates a closed (looping) spline.
    ///
    /// # Errors
    ///
    /// [`SplineError::TooFewPoints`] with fewer than 3 points,
    /// [`SplineError::InvalidTension`] for non-finite tension,
    /// [`SplineError::NonFinitePoint`] when a coordinate is NaN/infinite.
    pub fn closed(points: Vec<Point>, tension: f64) -> Result<Self, SplineError> {
        validate(&points, tension)?;
        Ok(CardinalSpline { points, tension })
    }

    /// The control points.
    #[inline]
    pub fn control_points(&self) -> &[Point] {
        &self.points
    }

    /// Mutable access to the control points (the OPC correction loop moves
    /// them in place).
    #[inline]
    pub fn control_points_mut(&mut self) -> &mut [Point] {
        &mut self.points
    }

    /// Tension parameter `s`.
    #[inline]
    pub fn tension(&self) -> f64 {
        self.tension
    }

    /// Number of cubic segments (one per control point).
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.points.len()
    }

    /// Control point by wrapped signed index.
    #[inline]
    fn neighbor(&self, i: isize) -> Point {
        neighbor(&self.points, i)
    }

    fn coeffs(&self, segment: usize) -> Coeffs {
        debug_assert!(segment < self.segment_count(), "segment out of range");
        let i = segment as isize;
        Coeffs::new(
            self.neighbor(i - 1),
            self.neighbor(i),
            self.neighbor(i + 1),
            self.neighbor(i + 2),
            self.tension,
        )
    }

    /// Curve position on `segment` at local parameter `t ∈ [0, 1]` (Eq. 2).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when `segment >= segment_count()`.
    pub fn point(&self, segment: usize, t: f64) -> Point {
        self.coeffs(segment).point(t)
    }

    /// First parameter derivative `g(t) = p'(t)` (Eq. 8a).
    pub fn derivative(&self, segment: usize, t: f64) -> Point {
        self.coeffs(segment).derivative(t)
    }

    /// Second parameter derivative `p''(t)` (Eq. 10).
    pub fn second_derivative(&self, segment: usize, t: f64) -> Point {
        self.coeffs(segment).second_derivative(t)
    }

    /// Unit tangent `ḡ(t)` (Eq. 8b); `None` where the derivative vanishes.
    pub fn tangent(&self, segment: usize, t: f64) -> Option<Point> {
        self.derivative(segment, t).normalized()
    }

    /// Unit normal `n(t) = (-ḡ_y, ḡ_x)` (Eq. 8c); `None` where the
    /// derivative vanishes.
    ///
    /// The normal is the tangent rotated +90° (counter-clockwise). For a
    /// counter-clockwise loop it therefore points *into* the enclosed
    /// region; callers that need the outward direction on CCW loops should
    /// negate it.
    pub fn normal(&self, segment: usize, t: f64) -> Option<Point> {
        self.tangent(segment, t).map(Point::perp)
    }

    /// Signed curvature `κ(t)` (Eq. 9):
    /// `(p'_x · p''_y − p''_x · p'_y) / ‖p'‖³`.
    ///
    /// Returns `0` where the derivative vanishes. The curvature-rule check
    /// compares `|κ|` against `C_curv`.
    pub fn curvature(&self, segment: usize, t: f64) -> f64 {
        let c = self.coeffs(segment);
        let d1 = c.derivative(t);
        let d2 = c.second_derivative(t);
        let n = d1.norm();
        if n < 1e-12 {
            return 0.0;
        }
        d1.cross(d2) / (n * n * n)
    }

    /// Samples the whole curve with `per_segment` points per segment
    /// (uniform in `t`), in curve order: the loop exactly once, with no
    /// duplicated closing point.
    ///
    /// This is the "connect the control points" step of the OPC flow — the
    /// operation the §IV-D ablation times against Bézier splines.
    ///
    /// # Panics
    ///
    /// Panics when `per_segment == 0`.
    pub fn sample(&self, per_segment: usize) -> Vec<Point> {
        let mut out = Vec::new();
        self.sample_into(&SamplingPlan::get(per_segment, self.tension), &mut out);
        out
    }

    /// [`CardinalSpline::sample`] through `plan` into a reused buffer
    /// (cleared first) — the zero-allocation variant the OPC iteration
    /// loop uses.
    ///
    /// # Panics
    ///
    /// Panics when the plan's tension does not match the spline's.
    pub fn sample_into(&self, plan: &SamplingPlan, out: &mut Vec<Point>) {
        assert!(
            plan.tension().to_bits() == self.tension.to_bits(),
            "sampling plan tension {} does not match spline tension {}",
            plan.tension(),
            self.tension
        );
        out.clear();
        out.reserve(self.points.len() * plan.per_segment());
        sample_blocks(&self.points, plan, |xs, ys, n| {
            let lanes = xs[..n].iter().zip(&ys[..n]);
            out.extend(lanes.map(|(&x, &y)| Point::new(x, y)));
        });
    }

    /// Samples the closed loop through `points` at `plan`'s tension, a
    /// block at a time, reading the control points where they lie:
    /// `emit(xs, ys, n)` receives the next `n` samples in ring order in
    /// the first `n` lanes of `xs` and `ys` (the rest is padding), each
    /// segment's samples in blocks of up to [`SAMPLE_BLOCK`]. The one
    /// sampling loop: every other sampler collects its blocks.
    ///
    /// # Errors
    ///
    /// [`SplineError::TooFewPoints`] with fewer than 3 points,
    /// [`SplineError::NonFinitePoint`] when a coordinate is NaN/infinite;
    /// `emit` is not called.
    pub fn sample_closed_blocks(
        points: &[Point],
        plan: &SamplingPlan,
        emit: impl FnMut(&[f64; SAMPLE_BLOCK], &[f64; SAMPLE_BLOCK], usize),
    ) -> Result<(), SplineError> {
        validate(points, plan.tension())?;
        sample_blocks(points, plan, emit);
        Ok(())
    }

    /// The Bézier-hull box of the closed loop through `points` at
    /// `tension`: every control point `p_i` and both of its handles
    /// `p_i ± (s/3)(p_{i+1} − p_{i−1})`. Segment `i` of Eq. 2 is exactly
    /// the cubic Bézier `p_i, p_i + m_i/3, p_{i+1} − m_{i+1}/3, p_{i+1}`
    /// with the cardinal tangent `m_i = s(p_{i+1} − p_{i−1})` (the handles
    /// [`BezierChain`](crate::BezierChain) builds; arXiv 2011.08232), so the
    /// curve lies in the convex hull of those four points and hence in this
    /// box — sampled points up to their rounding. O(n), nothing sampled.
    pub fn closed_hull_box(points: &[Point], tension: f64) -> BBox {
        let n = points.len() as isize;
        let arm = tension / 3.0;
        (0..n).fold(BBox::EMPTY, |hull, i| {
            let p = neighbor(points, i);
            let handle = (neighbor(points, i + 1) - neighbor(points, i - 1)) * arm;
            hull.union(BBox::new(p - handle, p + handle))
        })
    }

    /// Samples the loop into a [`Polygon`].
    pub fn to_polygon(&self, per_segment: usize) -> Polygon {
        Polygon::new(self.sample(per_segment))
    }

    /// The sampling weights of Eq. 2: the contribution of the 4-point
    /// neighbourhood `[p_{i-1}, p_i, p_{i+1}, p_{i+2}]` to `p(t)` is linear
    /// with these 4 scalar weights.
    ///
    /// Algorithm 1's least-squares fit relies on this linearity.
    pub fn basis_weights(tension: f64, t: f64) -> [f64; 4] {
        let s = tension;
        let t2 = t * t;
        let t3 = t2 * t;
        [
            -s * t + 2.0 * s * t2 - s * t3,
            1.0 + (s - 3.0) * t2 + (2.0 - s) * t3,
            s * t + (3.0 - 2.0 * s) * t2 + (s - 2.0) * t3,
            -s * t2 + s * t3,
        ]
    }
}

/// Checks a closed loop's control points and tension: the errors of
/// [`CardinalSpline::closed`], which [`BezierChain`](crate::BezierChain)
/// shares.
pub(crate) fn validate(points: &[Point], tension: f64) -> Result<(), SplineError> {
    if points.len() < 3 {
        return Err(SplineError::TooFewPoints {
            got: points.len(),
            need: 3,
        });
    }
    if !tension.is_finite() {
        return Err(SplineError::InvalidTension);
    }
    if points.iter().any(|p| !p.is_finite()) {
        return Err(SplineError::NonFinitePoint);
    }
    Ok(())
}

/// Control point of the loop `points` by wrapped signed index.
#[inline]
pub(crate) fn neighbor(points: &[Point], i: isize) -> Point {
    points[i.rem_euclid(points.len() as isize) as usize]
}

/// [`CardinalSpline::sample_closed_blocks`]'s loop on at least 3 control
/// points, unchecked: a spline's own points may have gone non-finite under
/// the correction loop, and then its samples do too. Each lane is
/// `pm1·w0 + p0·w1 + p1·w2 + p2·w3` over the plan's weight columns —
/// element-wise over fixed-length arrays, so it vectorises.
fn sample_blocks(
    points: &[Point],
    plan: &SamplingPlan,
    mut emit: impl FnMut(&[f64; SAMPLE_BLOCK], &[f64; SAMPLE_BLOCK], usize),
) {
    let columns: [_; 4] = std::array::from_fn(|j| plan.blocks(j));
    // The four-point window slides one control point per segment; at
    // least 3 points, so `i + 2` wraps at most once.
    let n = points.len();
    let (mut pm1, mut p0, mut p1) = (points[n - 1], points[0], points[1]);
    for i in 0..n {
        let p2 = points[if i + 2 < n { i + 2 } else { i + 2 - n }];
        let mut left = plan.per_segment();
        for b in 0..columns[0].len() {
            let [w0, w1, w2, w3] = columns.map(|column| &column[b]);
            let lane = |c: [f64; 4]| -> [f64; SAMPLE_BLOCK] {
                std::array::from_fn(|l| c[0] * w0[l] + c[1] * w1[l] + c[2] * w2[l] + c[3] * w3[l])
            };
            let xs = lane([pm1.x, p0.x, p1.x, p2.x]);
            let ys = lane([pm1.y, p0.y, p1.y, p2.y]);
            let count = left.min(SAMPLE_BLOCK);
            emit(&xs, &ys, count);
            left -= count;
        }
        (pm1, p0, p1) = (p0, p1, p2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BezierChain;
    use cardopc_geometry::SplitMix64;
    use proptest::prelude::*;

    fn square() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ]
    }

    #[test]
    fn construction_validation() {
        assert_eq!(
            CardinalSpline::closed(vec![Point::ZERO, Point::new(1.0, 0.0)], 0.6),
            Err(SplineError::TooFewPoints { got: 2, need: 3 })
        );
        assert_eq!(
            CardinalSpline::closed(square(), f64::NAN),
            Err(SplineError::InvalidTension)
        );
        assert_eq!(
            CardinalSpline::closed(
                vec![Point::ZERO, Point::new(f64::NAN, 0.0), Point::new(1.0, 1.0)],
                0.6
            ),
            Err(SplineError::NonFinitePoint)
        );
    }

    #[test]
    fn interpolates_control_points() {
        let sp = CardinalSpline::closed(square(), 0.6).unwrap();
        for (i, &p) in square().iter().enumerate() {
            assert_eq!(sp.point(i, 0.0), p, "p({i}, 0) should be control point");
        }
        // Segment end equals next control point.
        for i in 0..4 {
            let next = square()[(i + 1) % 4];
            assert!(sp.point(i, 1.0).distance(next) < 1e-12);
        }
    }

    #[test]
    fn interpolation_holds_for_any_tension() {
        for &s in &[0.0, 0.3, 0.5, 0.6, 1.0, 2.0, -0.5] {
            let sp = CardinalSpline::closed(square(), s).unwrap();
            for i in 0..4 {
                assert!(
                    sp.point(i, 0.0).distance(square()[i]) < 1e-12,
                    "tension {s}"
                );
            }
        }
    }

    #[test]
    fn zero_tension_gives_straight_segments() {
        // With s = 0 the cubic degenerates: c1 = 0, and the curve becomes a
        // Hermite blend with zero end tangents, p_i + (p_{i+1} − p_i)(3t² −
        // 2t³) — every segment runs along its chord, whatever its
        // neighbours, and the square loop stays a square.
        let sp = CardinalSpline::closed(square(), 0.0).unwrap();
        for seg in 0..4 {
            let (a, b) = (square()[seg], square()[(seg + 1) % 4]);
            for k in 0..=10 {
                let p = sp.point(seg, k as f64 / 10.0);
                assert!((p - a).cross(b - a).abs() < 1e-12, "seg {seg}: {p}");
                assert!((p - a).dot(b - a) >= 0.0 && (p - b).dot(a - b) >= 0.0);
            }
        }
    }

    /// A loop whose first four control points lie on one line (`y = x` when
    /// `diagonal`, else `y = 5`), so segment 1 — between the middle two —
    /// has a collinear neighbourhood.
    fn loop_with_straight_run(diagonal: bool) -> CardinalSpline {
        let run = [0.0, 2.0, 5.0, 9.0].map(|x| Point::new(x, if diagonal { x } else { 5.0 }));
        let far = [Point::new(9.0, 20.0), Point::new(0.0, 20.0)];
        CardinalSpline::closed(run.into_iter().chain(far).collect(), 0.6).unwrap()
    }

    #[test]
    fn collinear_points_stay_collinear() {
        let sp = loop_with_straight_run(false);
        for k in 0..=10 {
            let t = k as f64 / 10.0;
            assert!((sp.point(1, t).y - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let sp = CardinalSpline::closed(square(), 0.6).unwrap();
        let h = 1e-6;
        for seg in 0..4 {
            for k in 1..10 {
                let t = k as f64 / 10.0;
                let fd = (sp.point(seg, t + h) - sp.point(seg, t - h)) / (2.0 * h);
                let an = sp.derivative(seg, t);
                assert!((fd - an).norm() < 1e-5, "seg {seg} t {t}");
            }
        }
    }

    #[test]
    fn second_derivative_matches_finite_difference() {
        let sp = CardinalSpline::closed(square(), 0.6).unwrap();
        let h = 1e-5;
        for seg in 0..4 {
            for k in 1..10 {
                let t = k as f64 / 10.0;
                let fd = (sp.point(seg, t + h) + sp.point(seg, t - h) - sp.point(seg, t) * 2.0)
                    / (h * h);
                let an = sp.second_derivative(seg, t);
                assert!((fd - an).norm() < 1e-3, "seg {seg} t {t}: fd {fd} an {an}");
            }
        }
    }

    #[test]
    fn tangent_and_normal_are_unit_and_orthogonal() {
        let sp = CardinalSpline::closed(square(), 0.6).unwrap();
        for seg in 0..4 {
            let t = 0.3;
            let tan = sp.tangent(seg, t).unwrap();
            let nor = sp.normal(seg, t).unwrap();
            assert!((tan.norm() - 1.0).abs() < 1e-12);
            assert!((nor.norm() - 1.0).abs() < 1e-12);
            assert!(tan.dot(nor).abs() < 1e-12);
            // Eq. 8c: n = (-g_y, g_x).
            assert_eq!(nor, tan.perp());
        }
    }

    #[test]
    fn circle_curvature_close_to_reciprocal_radius() {
        // 16 points on a radius-50 circle: the interpolating spline should
        // have curvature close to 1/50 everywhere (sign: CCW loop -> positive
        // with our convention).
        let n = 16;
        let r = 50.0;
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let th = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                Point::new(r * th.cos(), r * th.sin())
            })
            .collect();
        let sp = CardinalSpline::closed(pts, 0.5).unwrap();
        for seg in 0..n {
            for k in 0..5 {
                let t = k as f64 / 5.0;
                let kappa = sp.curvature(seg, t);
                assert!(
                    (kappa - 1.0 / r).abs() < 0.3 / r,
                    "seg {seg} t {t}: curvature {kappa} vs {}",
                    1.0 / r
                );
            }
        }
    }

    #[test]
    fn straight_line_zero_curvature() {
        let sp = loop_with_straight_run(true);
        for k in 0..=10 {
            assert!(sp.curvature(1, k as f64 / 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sample_counts() {
        let sp = CardinalSpline::closed(square(), 0.6).unwrap();
        assert_eq!(sp.sample(8).len(), 32);
    }

    #[test]
    fn sampled_loop_has_positive_area_for_ccw_points() {
        let sp = CardinalSpline::closed(square(), 0.6).unwrap();
        let poly = sp.to_polygon(16);
        assert!(poly.signed_area() > 0.0);
        // With s = 0.6 each side bulges ~1.5 nm outward (p(0.5) of the
        // bottom segment is (5, -1.5)), adding ~10 nm^2 per side.
        assert!(
            poly.area() > 100.0 && poly.area() < 150.0,
            "area {}",
            poly.area()
        );
    }

    #[test]
    fn basis_weights_partition_of_unity_at_endpoints() {
        for &s in &[0.0, 0.5, 0.6, 1.0] {
            let w0 = CardinalSpline::basis_weights(s, 0.0);
            assert_eq!(w0, [0.0, 1.0, 0.0, 0.0]);
            let w1 = CardinalSpline::basis_weights(s, 1.0);
            assert!((w1[0]).abs() < 1e-12);
            assert!((w1[1]).abs() < 1e-12);
            assert!((w1[2] - 1.0).abs() < 1e-12);
            assert!((w1[3]).abs() < 1e-12);
        }
    }

    #[test]
    fn basis_weights_match_point_evaluation() {
        let sq = square();
        let sp = CardinalSpline::closed(sq.clone(), 0.6).unwrap();
        for seg in 0..4 {
            for k in 0..=10 {
                let t = k as f64 / 10.0;
                let w = CardinalSpline::basis_weights(0.6, t);
                let n = sq.len() as isize;
                let at = |j: isize| sq[j.rem_euclid(n) as usize];
                let manual = at(seg as isize - 1) * w[0]
                    + at(seg as isize) * w[1]
                    + at(seg as isize + 1) * w[2]
                    + at(seg as isize + 2) * w[3];
                assert!(manual.distance(sp.point(seg, t)) < 1e-12);
            }
        }
    }

    #[test]
    fn weights_always_sum_to_one() {
        for &s in &[0.0, 0.3, 0.6, 1.0, 1.7] {
            for k in 0..=20 {
                let t = k as f64 / 20.0;
                let w = CardinalSpline::basis_weights(s, t);
                let sum: f64 = w.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12, "s {s} t {t} sum {sum}");
            }
        }
    }

    #[test]
    fn control_points_mut_moves_curve() {
        let mut sp = CardinalSpline::closed(square(), 0.6).unwrap();
        sp.control_points_mut()[0] = Point::new(-5.0, -5.0);
        assert_eq!(sp.point(0, 0.0), Point::new(-5.0, -5.0));
    }

    #[test]
    fn borrowed_sampling_matches_the_owned_spline_and_validates() {
        let plan = SamplingPlan::get(8, 0.6);
        let mut borrowed = Vec::new();
        CardinalSpline::sample_closed_blocks(&square(), &plan, |xs, ys, n| {
            borrowed.extend((0..n).map(|l| Point::new(xs[l], ys[l])));
        })
        .unwrap();
        let owned = CardinalSpline::closed(square(), 0.6).unwrap();
        assert_eq!(borrowed, owned.sample(8));
        let mut reused = vec![Point::new(1.0, 2.0)];
        owned.sample_into(&plan, &mut reused);
        assert_eq!(reused, borrowed);
        // The block sampler validates before emitting anything.
        let emitted = |points: &[Point]| {
            let mut calls = 0;
            let result = CardinalSpline::sample_closed_blocks(points, &plan, |_, _, _| calls += 1);
            (result, calls)
        };
        let two = [Point::ZERO, Point::new(1.0, 0.0)];
        assert_eq!(
            emitted(&two),
            (Err(SplineError::TooFewPoints { got: 2, need: 3 }), 0)
        );
        let nan = [Point::ZERO, Point::new(f64::NAN, 0.0), Point::new(1.0, 1.0)];
        assert_eq!(emitted(&nan), (Err(SplineError::NonFinitePoint), 0));
    }

    /// The row loop the block sampler replaced, kept as its oracle: one
    /// `[w_{i-1}, w_i, w_{i+1}, w_{i+2}]` row of Eq. 2's weights per local
    /// parameter `k / per_segment`, applied to each segment's window.
    fn sample_by_rows(points: &[Point], tension: f64, per_segment: usize) -> Vec<Point> {
        let rows: Vec<[f64; 4]> = (0..per_segment)
            .map(|k| CardinalSpline::basis_weights(tension, k as f64 / per_segment as f64))
            .collect();
        let mut out = Vec::with_capacity(points.len() * per_segment);
        for i in 0..points.len() as isize {
            let pm1 = neighbor(points, i - 1);
            let p0 = neighbor(points, i);
            let p1 = neighbor(points, i + 1);
            let p2 = neighbor(points, i + 2);
            for w in &rows {
                out.push(pm1 * w[0] + p0 * w[1] + p1 * w[2] + p2 * w[3]);
            }
        }
        out
    }

    fn bits(v: &[Point]) -> Vec<[u64; 2]> {
        v.iter().map(|p| [p.x.to_bits(), p.y.to_bits()]).collect()
    }

    /// A closed loop of `n` random points in a 200 nm box around a random
    /// centre up to 10⁵ nm from the origin.
    fn random_loop(seed: u64, n: usize) -> Vec<Point> {
        let mut rng = SplitMix64::new(seed);
        let c = Point::new(rng.range_f64(-1e5, 1e5), rng.range_f64(-1e5, 1e5));
        let mut at = || c + Point::new(rng.range_f64(-100.0, 100.0), rng.range_f64(-100.0, 100.0));
        (0..n).map(|_| at()).collect()
    }

    proptest! {
        /// The Bézier form of Eq. 2 (first half of the spline oracle): every
        /// sampled point lies in the hull box up to rounding, and the hull
        /// box is the box of `BezierChain`'s points and handles.
        #[test]
        fn samples_lie_in_the_bezier_hull_box(
            seed in 0u64..u64::MAX,
            n in 3usize..=40,
            s in -0.5..1.5f64,
            per_segment in 1usize..=16,
        ) {
            let points = random_loop(seed, n);
            let hull = CardinalSpline::closed_hull_box(&points, s);
            let extent = [hull.min.x, hull.min.y, hull.max.x, hull.max.y]
                .iter()
                .fold(1.0f64, |m, c| m.max(c.abs()));
            let tol = 1e-9 * extent;
            let samples = CardinalSpline::closed(points.clone(), s).unwrap().sample(per_segment);
            prop_assert_eq!(samples.len(), n * per_segment);
            prop_assert_eq!(bits(&samples), bits(&sample_by_rows(&points, s, per_segment)));
            for p in &samples {
                prop_assert!(hull.expanded(tol).contains(*p), "{:?} outside {:?}", p, hull);
            }
            let chain = BezierChain::closed(points.clone(), s).unwrap();
            let handles = (0..n).flat_map(|i| {
                let (h0, h1) = chain.handles(i);
                [h0, h1]
            });
            let bezier = BBox::from_points(points.iter().copied().chain(handles));
            for (a, b) in [(hull.min, bezier.min), (hull.max, bezier.max)] {
                prop_assert!(a.distance(b) <= 1e-9, "hull {:?} vs Bézier box {:?}", hull, bezier);
            }
        }

        /// Every sampler is the row loop, bit for bit: the block sampler's
        /// lanes, `sample`, `sample_into` and `to_polygon` (the row loop's
        /// samples through `Polygon::new`), at per-segment counts below,
        /// at and past a block, at tension 0 and on rings whose control
        /// points coincide (neighbours, and across the wrap).
        #[test]
        fn every_sampler_is_the_row_loop(
            seed in 0u64..u64::MAX,
            n in 3usize..=30,
            pick in 0usize..6,
            s in -0.5..1.5f64,
            zero_tension in 0usize..3,
            repeats in 0usize..4,
        ) {
            let per_segment = [1, 2, 7, 8, 9, 17][pick];
            let s = if zero_tension == 0 { 0.0 } else { s };
            let mut points = random_loop(seed, n);
            let mut rng = SplitMix64::new(!seed);
            for _ in 0..repeats {
                let at = rng.range_usize(0, points.len());
                points.insert(at, points[at]);
            }
            if repeats % 2 == 1 {
                points.push(points[0]);
            }
            let rows = sample_by_rows(&points, s, per_segment);
            let plan = SamplingPlan::get(per_segment, s);
            let mut blocks = Vec::new();
            CardinalSpline::sample_closed_blocks(&points, &plan, |xs, ys, count| {
                assert!(count <= SAMPLE_BLOCK);
                blocks.extend((0..count).map(|l| Point::new(xs[l], ys[l])));
            })
            .unwrap();
            prop_assert_eq!(bits(&blocks), bits(&rows));
            let spline = CardinalSpline::closed(points, s).unwrap();
            prop_assert_eq!(bits(&spline.sample(per_segment)), bits(&rows));
            let mut reused = vec![Point::ZERO; 3];
            spline.sample_into(&plan, &mut reused);
            prop_assert_eq!(bits(&reused), bits(&rows));
            let polygon = spline.to_polygon(per_segment);
            prop_assert_eq!(bits(polygon.vertices()), bits(Polygon::new(rows).vertices()));
        }
    }
}
