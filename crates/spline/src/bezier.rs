//! Cubic Bézier chain baseline (Zhang et al. [31], Fig. 4 of the paper).
//!
//! A Bézier curve does **not** interpolate its inner control points, so to
//! pass through the mask control points `p_i` and `p_{i+1}` two additional
//! handle points `p'_i` and `p'_{i+1}` must be generated for every connected
//! pair — the overhead the §IV-D ablation measures. Handles are generated so
//! that the chain is C¹ with the same end tangents a cardinal spline of
//! equal tension would have; the construction deliberately goes through the
//! polar form (angle extraction + vector rotation), mirroring the "extra
//! operations such as vector rotation" the paper attributes to the Bézier
//! flow.

use crate::cardinal::{neighbor, validate};
use crate::SplineError;
use cardopc_geometry::{Point, Polygon};

/// A chain of cubic Bézier segments interpolating a control point loop.
///
/// ```
/// use cardopc_geometry::Point;
/// use cardopc_spline::BezierChain;
///
/// let pts = vec![
///     Point::new(0.0, 0.0),
///     Point::new(10.0, 0.0),
///     Point::new(10.0, 10.0),
///     Point::new(0.0, 10.0),
/// ];
/// let chain = BezierChain::closed(pts, 0.6)?;
/// assert_eq!(chain.point(0, 0.0), Point::new(0.0, 0.0));
/// # Ok::<(), cardopc_spline::SplineError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct BezierChain {
    points: Vec<Point>,
    /// Generated handles per segment: `(p'_i, p'_{i+1})`.
    handles: Vec<(Point, Point)>,
    tension: f64,
}

impl BezierChain {
    /// Builds a closed chain through `points` with tangents derived from the
    /// cardinal tension `tension`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::CardinalSpline::closed`].
    pub fn closed(points: Vec<Point>, tension: f64) -> Result<Self, SplineError> {
        validate(&points, tension)?;
        let at = |i: isize| neighbor(&points, i);

        // Tangent at control point i, cardinal-style: m_i = s(p_{i+1} - p_{i-1}).
        //
        // The handle construction intentionally routes through polar form
        // (atan2 + rotation) instead of plain vector scaling: this is the
        // per-pair overhead of the Bézier flow that the ablation measures.
        let handle_from = |base: Point, tangent: Point, sign: f64| -> Point {
            let len = tangent.norm();
            if len < 1e-12 {
                return base;
            }
            let angle = tangent.y.atan2(tangent.x);
            base + Point::new(sign * len / 3.0, 0.0).rotated(angle)
        };

        let mut handles = Vec::with_capacity(points.len());
        for i in 0..points.len() as isize {
            let m0 = (at(i + 1) - at(i - 1)) * tension;
            let m1 = (at(i + 2) - at(i)) * tension;
            let h0 = handle_from(at(i), m0, 1.0);
            let h1 = handle_from(at(i + 1), m1, -1.0);
            handles.push((h0, h1));
        }

        Ok(BezierChain {
            points,
            handles,
            tension,
        })
    }

    /// The interpolated control points.
    #[inline]
    pub fn control_points(&self) -> &[Point] {
        &self.points
    }

    /// The generated handle pair `(p'_i, p'_{i+1})` of a segment.
    #[inline]
    pub fn handles(&self, segment: usize) -> (Point, Point) {
        self.handles[segment]
    }

    /// Tension used for handle generation.
    #[inline]
    pub fn tension(&self) -> f64 {
        self.tension
    }

    /// Number of cubic segments.
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.handles.len()
    }

    fn segment_points(&self, segment: usize) -> (Point, Point, Point, Point) {
        let n = self.points.len();
        let p0 = self.points[segment];
        let p3 = self.points[(segment + 1) % n];
        let (h0, h1) = self.handles[segment];
        (p0, h0, h1, p3)
    }

    /// Curve position on `segment` at `t ∈ [0, 1]` (de Casteljau).
    pub fn point(&self, segment: usize, t: f64) -> Point {
        let (p0, p1, p2, p3) = self.segment_points(segment);
        let a = p0.lerp(p1, t);
        let b = p1.lerp(p2, t);
        let c = p2.lerp(p3, t);
        let d = a.lerp(b, t);
        let e = b.lerp(c, t);
        d.lerp(e, t)
    }

    /// First derivative with respect to `t`.
    pub fn derivative(&self, segment: usize, t: f64) -> Point {
        let (p0, p1, p2, p3) = self.segment_points(segment);
        let u = 1.0 - t;
        ((p1 - p0) * (u * u) + (p2 - p1) * (2.0 * u * t) + (p3 - p2) * (t * t)) * 3.0
    }

    /// Samples the whole chain with `per_segment` points per segment; same
    /// conventions as [`crate::CardinalSpline::sample`].
    ///
    /// # Panics
    ///
    /// Panics when `per_segment == 0`.
    pub fn sample(&self, per_segment: usize) -> Vec<Point> {
        assert!(per_segment > 0, "need at least one sample per segment");
        let mut out = Vec::with_capacity(self.segment_count() * per_segment);
        for seg in 0..self.segment_count() {
            for k in 0..per_segment {
                out.push(self.point(seg, k as f64 / per_segment as f64));
            }
        }
        out
    }

    /// Samples the loop into a [`Polygon`].
    pub fn to_polygon(&self, per_segment: usize) -> Polygon {
        Polygon::new(self.sample(per_segment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CardinalSpline;

    fn square() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ]
    }

    #[test]
    fn validation() {
        assert!(matches!(
            BezierChain::closed(vec![Point::ZERO], 0.6),
            Err(SplineError::TooFewPoints { .. })
        ));
        assert_eq!(
            BezierChain::closed(square(), f64::INFINITY),
            Err(SplineError::InvalidTension)
        );
    }

    #[test]
    fn passes_through_control_points() {
        let chain = BezierChain::closed(square(), 0.6).unwrap();
        for (i, &p) in square().iter().enumerate() {
            assert!(chain.point(i, 0.0).distance(p) < 1e-12);
        }
        for i in 0..4 {
            let next = square()[(i + 1) % 4];
            assert!(chain.point(i, 1.0).distance(next) < 1e-9);
        }
    }

    #[test]
    fn matches_cardinal_spline_curve() {
        // The handle construction makes each Bézier segment the Hermite
        // cubic with cardinal tangents — i.e. the identical curve, reached
        // through more work. Verify pointwise agreement.
        let chain = BezierChain::closed(square(), 0.6).unwrap();
        let card = CardinalSpline::closed(square(), 0.6).unwrap();
        for seg in 0..4 {
            for k in 0..=10 {
                let t = k as f64 / 10.0;
                let d = chain.point(seg, t).distance(card.point(seg, t));
                assert!(d < 1e-9, "seg {seg} t {t}: divergence {d}");
            }
        }
    }

    #[test]
    fn c1_continuity_across_joints() {
        let chain = BezierChain::closed(square(), 0.6).unwrap();
        for seg in 0..4 {
            let next = (seg + 1) % 4;
            let d_end = chain.derivative(seg, 1.0);
            let d_start = chain.derivative(next, 0.0);
            assert!((d_end - d_start).norm() < 1e-9, "joint {seg}");
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let chain = BezierChain::closed(square(), 0.6).unwrap();
        let h = 1e-6;
        for seg in 0..4 {
            for k in 1..10 {
                let t = k as f64 / 10.0;
                let fd = (chain.point(seg, t + h) - chain.point(seg, t - h)) / (2.0 * h);
                assert!((fd - chain.derivative(seg, t)).norm() < 1e-5);
            }
        }
    }

    #[test]
    fn segment_and_sample_counts() {
        let chain = BezierChain::closed(square(), 0.6).unwrap();
        assert_eq!(chain.segment_count(), 4);
        assert_eq!(chain.sample(4).len(), 16);
    }

    #[test]
    fn handles_are_exposed() {
        let chain = BezierChain::closed(square(), 0.6).unwrap();
        let (h0, h1) = chain.handles(0);
        // Handles lie between the endpoints region, not at the endpoints.
        assert!(h0.distance(Point::new(0.0, 0.0)) > 0.1);
        assert!(h1.distance(Point::new(10.0, 0.0)) > 0.1);
    }

    #[test]
    fn to_polygon_is_closed_loop_with_area() {
        let chain = BezierChain::closed(square(), 0.6).unwrap();
        let poly = chain.to_polygon(8);
        assert!(poly.signed_area() > 0.0);
    }
}
