//! Property-based tests for spline invariants.

use cardopc_geometry::{Point, Polygon, SplitMix64};
use cardopc_spline::{fit::resample_closed, fit_contour, BezierChain, CardinalSpline, FitConfig};
use proptest::prelude::*;

/// A random simple (star-shaped) closed control polygon.
fn star_points(seed: u64, n: usize) -> Vec<Point> {
    let mut rng = SplitMix64::new(seed);
    let mut pts: Vec<Point> = (0..n)
        .map(|i| {
            let th = std::f64::consts::TAU * (i as f64 + 0.5 * rng.next_f64()) / n as f64;
            let r = rng.range_f64(20.0, 80.0);
            Point::new(100.0 + r * th.cos(), 100.0 + r * th.sin())
        })
        .collect();
    pts.sort_by(|a, b| {
        let ta = (a.y - 100.0).atan2(a.x - 100.0);
        let tb = (b.y - 100.0).atan2(b.x - 100.0);
        ta.total_cmp(&tb)
    });
    pts.dedup_by(|a, b| a.distance(*b) < 1e-6);
    pts
}

/// Mean squared distance from `spline` to `refs`, reference `k` read at
/// parameter `k · n_q / n_r` of the closed domain — the fit's objective.
fn fit_loss(spline: &CardinalSpline, refs: &[Point]) -> f64 {
    let n_q = spline.control_points().len();
    let sum: f64 = refs
        .iter()
        .enumerate()
        .map(|(k, &rk)| {
            let u = k as f64 * n_q as f64 / refs.len() as f64;
            let seg = (u.floor() as usize).min(n_q - 1);
            spline.point(seg, u - seg as f64).distance_sq(rk)
        })
        .sum();
    sum / refs.len() as f64
}

proptest! {
    /// Interpolation: the spline passes through every control point for any
    /// tension — the defining property of cardinal splines (paper §III-C
    /// reason 1).
    #[test]
    fn spline_interpolates_for_any_tension(seed in 0u64..500, n in 3usize..24,
                                           s in -1.0..2.0f64) {
        let pts = star_points(seed, n);
        prop_assume!(pts.len() >= 3);
        let sp = CardinalSpline::closed(pts.clone(), s).unwrap();
        for (i, &p) in pts.iter().enumerate() {
            prop_assert!(sp.point(i, 0.0).distance(p) < 1e-9);
        }
    }

    /// The curve is continuous across segment joints.
    #[test]
    fn continuity_at_joints(seed in 0u64..200, n in 3usize..16) {
        let pts = star_points(seed, n);
        prop_assume!(pts.len() >= 3);
        let sp = CardinalSpline::closed(pts.clone(), 0.6).unwrap();
        let m = sp.segment_count();
        for i in 0..m {
            let end = sp.point(i, 1.0);
            let start = sp.point((i + 1) % m, 0.0);
            prop_assert!(end.distance(start) < 1e-9);
            // C1: derivatives match too.
            let d_end = sp.derivative(i, 1.0);
            let d_start = sp.derivative((i + 1) % m, 0.0);
            prop_assert!((d_end - d_start).norm() < 1e-9 * (1.0 + d_end.norm()));
        }
    }

    /// Normal is always the tangent rotated +90 degrees (Eq. 8c).
    #[test]
    fn normal_is_perp_tangent(seed in 0u64..200, n in 3usize..16, t in 0.0..1.0f64) {
        let pts = star_points(seed, n);
        prop_assume!(pts.len() >= 3);
        let sp = CardinalSpline::closed(pts, 0.6).unwrap();
        for seg in 0..sp.segment_count() {
            if let (Some(tan), Some(nor)) = (sp.tangent(seg, t), sp.normal(seg, t)) {
                prop_assert!((nor - tan.perp()).norm() < 1e-12);
                prop_assert!(tan.dot(nor).abs() < 1e-9);
            }
        }
    }

    /// Curvature is translation- and rotation-invariant.
    #[test]
    fn curvature_rigid_invariance(seed in 0u64..100, n in 4usize..12,
                                  dx in -50.0..50.0f64, dy in -50.0..50.0f64,
                                  angle in -3.0..3.0f64) {
        let pts = star_points(seed, n);
        prop_assume!(pts.len() >= 3);
        let moved: Vec<Point> = pts
            .iter()
            .map(|p| p.rotated(angle) + Point::new(dx, dy))
            .collect();
        let a = CardinalSpline::closed(pts, 0.6).unwrap();
        let b = CardinalSpline::closed(moved, 0.6).unwrap();
        for seg in 0..a.segment_count() {
            for k in 0..4 {
                let t = k as f64 / 4.0;
                let ka = a.curvature(seg, t);
                let kb = b.curvature(seg, t);
                prop_assert!((ka - kb).abs() < 1e-6 * (1.0 + ka.abs()),
                             "seg {} t {}: {} vs {}", seg, t, ka, kb);
            }
        }
    }

    /// Uniform scaling by f scales curvature by 1/f.
    #[test]
    fn curvature_scaling_law(seed in 0u64..100, n in 4usize..12, f in 0.5..4.0f64) {
        let pts = star_points(seed, n);
        prop_assume!(pts.len() >= 3);
        let scaled: Vec<Point> = pts.iter().map(|&p| p * f).collect();
        let a = CardinalSpline::closed(pts, 0.6).unwrap();
        let b = CardinalSpline::closed(scaled, 0.6).unwrap();
        for seg in 0..a.segment_count() {
            let ka = a.curvature(seg, 0.5);
            let kb = b.curvature(seg, 0.5);
            prop_assert!((ka / f - kb).abs() < 1e-6 * (1.0 + ka.abs()),
                         "{} vs {}", ka / f, kb);
        }
    }

    /// Bézier chain with cardinal-derived handles traces the same curve as
    /// the cardinal spline (they are the same Hermite cubic).
    #[test]
    fn bezier_equals_cardinal(seed in 0u64..200, n in 3usize..16, t in 0.0..1.0f64) {
        let pts = star_points(seed, n);
        prop_assume!(pts.len() >= 3);
        let card = CardinalSpline::closed(pts.clone(), 0.6).unwrap();
        let bez = BezierChain::closed(pts, 0.6).unwrap();
        for seg in 0..card.segment_count() {
            let d = card.point(seg, t).distance(bez.point(seg, t));
            prop_assert!(d < 1e-6, "seg {} t {}: divergence {}", seg, t, d);
        }
    }

    /// Resampling a closed polyline preserves total arc length roughly and
    /// yields the requested count.
    #[test]
    fn resample_count_and_bounds(seed in 0u64..200, n in 8usize..64, m in 3usize..64) {
        let pts = star_points(seed, n);
        prop_assume!(pts.len() >= 3);
        let res = resample_closed(&pts, m);
        prop_assert_eq!(res.len(), m);
        let bbox = cardopc_geometry::BBox::from_points(pts.iter().copied());
        for p in &res {
            prop_assert!(bbox.expanded(1e-6).contains(*p));
        }
    }

    /// Fitting never increases the loss: the fit is no worse than the
    /// spline through the resampled control points it starts from.
    #[test]
    fn fit_does_not_increase_loss(seed in 0u64..40) {
        let pts = star_points(seed, 48);
        prop_assume!(pts.len() >= 8);
        let contour = Polygon::new(pts);
        let cfg = FitConfig::default();
        let fit = fit_contour(&contour, &cfg).unwrap();
        let n_q = fit.spline.control_points().len();
        let m = contour.vertices().len();
        let n_r = ((m as f64 * cfg.reference_ratio).round() as usize).max(n_q);
        let refs = resample_closed(contour.vertices(), n_r);
        let start = CardinalSpline::closed(resample_closed(contour.vertices(), n_q), cfg.tension)
            .unwrap();
        let initial_loss = fit_loss(&start, &refs);
        prop_assert!((fit_loss(&fit.spline, &refs) - fit.final_loss).abs() <= 1e-9);
        prop_assert!(fit.final_loss <= initial_loss + 1e-9);
    }

    /// Plan-based sampling matches direct Eq. (2) evaluation to 1e-12 for
    /// random control sets, tensions and sampling densities.
    #[test]
    fn sampling_plan_matches_direct_point(seed in 0u64..200, n in 3usize..24,
                                          s in -1.0..2.0f64, per in 1usize..16) {
        let pts = star_points(seed, n);
        prop_assume!(pts.len() >= 3);
        let sp = CardinalSpline::closed(pts, s).unwrap();
        let planned = sp.sample(per);
        prop_assert_eq!(planned.len(), sp.segment_count() * per);
        for (idx, p) in planned.iter().enumerate() {
            let seg = idx / per;
            let t = (idx % per) as f64 / per as f64;
            prop_assert!(p.distance(sp.point(seg, t)) < 1e-12,
                         "seg {} t {}: planned {} direct {}", seg, t, p, sp.point(seg, t));
        }
    }

    /// basis_weights always sums to 1 (affine invariance of the spline).
    #[test]
    fn weights_partition_unity(s in -1.0..2.0f64, t in 0.0..1.0f64) {
        let w = CardinalSpline::basis_weights(s, t);
        let sum: f64 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-12);
    }

}
