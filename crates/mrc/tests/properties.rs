//! Property-based tests for mask rule checking.

use cardopc_geometry::Point;
use cardopc_mrc::{MrcChecker, MrcResolver, MrcRules, ResolveConfig, Violation, ViolationKind};
use cardopc_spline::CardinalSpline;
use proptest::prelude::*;

fn circle(cx: f64, cy: f64, r: f64, n: usize) -> CardinalSpline {
    let pts = (0..n)
        .map(|i| {
            let th = std::f64::consts::TAU * i as f64 / n as f64;
            Point::new(cx + r * th.cos(), cy + r * th.sin())
        })
        .collect();
    CardinalSpline::closed(pts, 0.5).expect("valid circle")
}

fn square(x0: f64, y0: f64, w: f64, h: f64) -> CardinalSpline {
    CardinalSpline::closed(
        vec![
            Point::new(x0, y0),
            Point::new(x0 + w, y0),
            Point::new(x0 + w, y0 + h),
            Point::new(x0, y0 + h),
        ],
        0.0,
    )
    .expect("valid square")
}

/// Every control-point coordinate's bits, in order.
fn bits(spline: &CardinalSpline) -> Vec<u64> {
    let coords = spline.control_points().iter().flat_map(|p| [p.x, p.y]);
    coords.map(f64::to_bits).collect()
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

proptest! {
    /// The spacing verdict between two squares agrees with their true gap:
    /// gap < limit ⟹ violation, gap comfortably above ⟹ clean.
    #[test]
    fn spacing_agrees_with_true_gap(gap in 2.0..80.0f64) {
        let rules = MrcRules::default();
        let shapes = [
            square(0.0, 0.0, 120.0, 120.0),
            square(120.0 + gap, 0.0, 120.0, 120.0),
        ];
        let checker = MrcChecker::new(rules);
        let spacing = check_kind(&checker, &shapes, ViolationKind::Spacing);
        if gap < rules.min_space - 1.0 {
            prop_assert!(!spacing.is_empty(), "gap {} should violate", gap);
        } else if gap > rules.min_space + 1.0 {
            prop_assert!(spacing.is_empty(), "gap {} should be clean: {:?}",
                         gap, &spacing[..spacing.len().min(2)]);
        }
        // Reported values never exceed the limit.
        for v in &spacing {
            prop_assert!(v.value <= rules.min_space + 1e-6);
        }
    }

    /// Width verdict follows the bar thickness.
    #[test]
    fn width_agrees_with_bar_thickness(thickness in 10.0..100.0f64) {
        let rules = MrcRules::default();
        let shapes = [square(0.0, 0.0, 400.0, thickness)];
        let checker = MrcChecker::new(rules);
        let width = check_kind(&checker, &shapes, ViolationKind::Width);
        if thickness < rules.min_width - 1.0 {
            prop_assert!(!width.is_empty(), "thickness {} should violate", thickness);
        } else if thickness > rules.min_width + 1.0 {
            prop_assert!(width.is_empty(), "thickness {} should be clean", thickness);
        }
    }

    /// Curvature verdict on circles matches 1/r analytically.
    #[test]
    fn curvature_agrees_with_circle_radius(r in 5.0..120.0f64) {
        let rules = MrcRules::default();
        let checker = MrcChecker::new(rules);
        let shapes = [circle(300.0, 300.0, r, 24)];
        let vs = check_kind(&checker, &shapes, ViolationKind::Curvature);
        let kappa = 1.0 / r;
        if kappa > rules.max_curvature * 1.2 {
            prop_assert!(!vs.is_empty(), "radius {} should violate curvature", r);
        } else if kappa < rules.max_curvature * 0.8 {
            prop_assert!(vs.is_empty(), "radius {} should be clean", r);
        }
    }

    /// Area verdict matches the analytic circle area.
    #[test]
    fn area_agrees_with_circle_area(r in 10.0..60.0f64) {
        let rules = MrcRules::default();
        let checker = MrcChecker::new(rules);
        let shapes = [circle(300.0, 300.0, r, 32)];
        let vs = check_kind(&checker, &shapes, ViolationKind::Area);
        let area = std::f64::consts::PI * r * r;
        if area < rules.min_area * 0.9 {
            prop_assert!(!vs.is_empty());
        } else if area > rules.min_area * 1.1 {
            prop_assert!(vs.is_empty());
        }
    }

    /// Resolving never increases the violation count and keeps every shape.
    #[test]
    fn resolve_never_increases_violations(gap in 5.0..20.0f64) {
        let rules = MrcRules::default();
        let mut shapes = vec![
            square(0.0, 0.0, 150.0, 150.0),
            square(150.0 + gap, 0.0, 150.0, 150.0),
        ];
        let resolver = MrcResolver::new(rules, ResolveConfig::default());
        let report = resolver.resolve(&mut shapes);
        prop_assert!(report.remaining.len() <= report.initial_violations);
        prop_assert_eq!(shapes.len(), 2);
    }

    /// A violation-free mask leaves the resolver bit for bit as it came:
    /// zero violations, zero moves.
    #[test]
    fn resolve_leaves_a_clean_mask_bit_identical(
        seed in 0u64..u64::MAX,
        tension in 0.0..1.0f64,
        n_cps in 4usize..24,
    ) {
        let mut rng = cardopc_geometry::SplitMix64::new(seed);
        let rules = MrcRules::default();
        let mut shapes = Vec::new();
        for gy in 0..3 {
            for gx in 0..3 {
                let r = rng.range_f64(60.0, 110.0);
                let (cx, cy) = (gx as f64 * 300.0, gy as f64 * 300.0);
                let pts = (0..n_cps)
                    .map(|i| {
                        let th = std::f64::consts::TAU * i as f64 / n_cps as f64;
                        let rr = r * rng.range_f64(0.97, 1.03);
                        Point::new(cx + rr * th.cos(), cy + rr * th.sin())
                    })
                    .collect();
                shapes.push(CardinalSpline::closed(pts, tension).expect("valid loop"));
            }
        }
        prop_assume!(MrcChecker::new(rules).check(&shapes).is_empty());
        let before: Vec<Vec<u64>> = shapes.iter().map(bits).collect();
        let report = MrcResolver::new(rules, ResolveConfig::default()).resolve(&mut shapes);
        prop_assert!(report.is_clean());
        prop_assert_eq!((report.initial_violations, report.rounds), (0, 0));
        prop_assert_eq!(before, shapes.iter().map(bits).collect::<Vec<_>>());
    }

    /// Violations always carry a unit (or zero) normal and a value below
    /// the limit they break (except curvature, which exceeds it).
    #[test]
    fn violation_records_are_consistent(gap in 3.0..20.0f64, thickness in 12.0..35.0f64) {
        let rules = MrcRules::default();
        let shapes = [
            square(0.0, 300.0, 400.0, thickness),
            square(0.0, 0.0, 150.0, 150.0),
            square(150.0 + gap, 0.0, 150.0, 150.0),
        ];
        let checker = MrcChecker::new(rules);
        for v in checker.check(&shapes) {
            let n = v.normal.norm();
            prop_assert!(n < 1e-9 || (n - 1.0).abs() < 1e-9);
            match v.kind {
                ViolationKind::Curvature => prop_assert!(v.value > v.limit),
                _ => prop_assert!(v.value < v.limit + 1e-6),
            }
            prop_assert!(v.shape < shapes.len());
        }
    }
}
