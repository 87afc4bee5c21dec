//! Cross-crate consistency tests: the same geometric facts must hold
//! whether computed via splines, rasters, contours or MRC probes.

use cardopc::geometry::trace_contours;
use cardopc::litho::rasterize;
use cardopc::mrc::ViolationKind;
use cardopc::prelude::*;

/// Raster -> contour -> spline-fit -> raster round trip approximately
/// preserves area.
#[test]
fn raster_contour_fit_roundtrip_preserves_area() {
    let poly = Polygon::rect(Point::new(40.0, 40.0), Point::new(160.0, 140.0));
    let original_area = poly.area();

    let raster = rasterize(std::slice::from_ref(&poly), 64, 64, 4.0);
    let contours = trace_contours(&raster, 0.5);
    assert_eq!(contours.len(), 1);
    let contour_area = contours[0].area();
    assert!(
        (contour_area - original_area).abs() < 0.05 * original_area,
        "contour area {contour_area} vs {original_area}"
    );

    let fit = fit_contour(&contours[0], &FitConfig::default()).unwrap();
    let fitted_area = fit.spline.to_polygon(8).area();
    assert!(
        (fitted_area - original_area).abs() < 0.10 * original_area,
        "fitted area {fitted_area} vs {original_area}"
    );

    let re_raster = rasterize(&[fit.spline.to_polygon(8)], 64, 64, 4.0);
    assert!(
        (re_raster.sum() * 16.0 - original_area).abs() < 0.12 * original_area,
        "re-rastered area {} vs {original_area}",
        re_raster.sum() * 16.0
    );
}

/// Spline curvature (analytic, Eq. 9) is consistent with the curvature
/// implied by the traced contour of the rasterised shape.
#[test]
fn spline_circle_survives_rasterisation() {
    let n = 24;
    let r = 60.0;
    let pts: Vec<Point> = (0..n)
        .map(|i| {
            let th = std::f64::consts::TAU * i as f64 / n as f64;
            Point::new(128.0 + r * th.cos(), 128.0 + r * th.sin())
        })
        .collect();
    let spline = CardinalSpline::closed(pts, 0.5).unwrap();
    // Analytic curvature ~ 1/60 everywhere.
    for seg in 0..spline.segment_count() {
        let k = spline.curvature(seg, 0.5);
        assert!((k - 1.0 / r).abs() < 0.2 / r, "curvature {k}");
    }
    // Raster the spline and re-trace: area matches πr².
    let raster = rasterize(&[spline.to_polygon(8)], 64, 64, 4.0);
    let contours = trace_contours(&raster, 0.5);
    assert_eq!(contours.len(), 1);
    let expected = std::f64::consts::PI * r * r;
    assert!(
        (contours[0].area() - expected).abs() < 0.08 * expected,
        "area {} vs {expected}",
        contours[0].area()
    );
}

/// The MRC checker and the litho engine agree about what is "too close":
/// a spacing-violating mask also shows bridging in the printed image under
/// overdose.
#[test]
fn mrc_spacing_predicts_print_bridging_risk() {
    let gap = 12.0; // violates the 25 nm rule
    let a = CardinalSpline::closed(
        vec![
            Point::new(200.0, 200.0),
            Point::new(400.0, 200.0),
            Point::new(400.0, 400.0),
            Point::new(200.0, 400.0),
        ],
        0.0,
    )
    .unwrap();
    let b = CardinalSpline::closed(
        vec![
            Point::new(412.0 + gap, 200.0),
            Point::new(612.0 + gap, 200.0),
            Point::new(612.0 + gap, 400.0),
            Point::new(412.0 + gap, 400.0),
        ],
        0.0,
    )
    .unwrap();
    let checker = MrcChecker::new(MrcRules::default());
    let violations = checker.check(&[a.clone(), b.clone()]);
    assert!(
        violations.iter().any(|v| v.kind == ViolationKind::Spacing),
        "expected spacing violations"
    );

    // Resolve and confirm the mask separates.
    let mut shapes = vec![a, b];
    let resolver = MrcResolver::new(MrcRules::default(), ResolveConfig::default());
    let report = resolver.resolve(&mut shapes);
    assert!(report.is_clean(), "{} remaining", report.remaining.len());
}

/// `fit_mask_shapes` converts a painted raster into MRC-checkable spline
/// shapes whose total area matches the painted area.
#[test]
fn external_mask_fitting_roundtrip() {
    use cardopc::ilt::{fit_mask_shapes, HybridConfig};

    let mut mask = Grid::zeros(128, 128, 4.0);
    // A 120x80 nm block and a separate 200x40 bar.
    for iy in 30..50 {
        for ix in 20..50 {
            mask[(ix, iy)] = 1.0;
        }
    }
    for iy in 80..90 {
        for ix in 40..90 {
            mask[(ix, iy)] = 1.0;
        }
    }
    let cfg = HybridConfig::default();
    let (shapes, losses) = fit_mask_shapes(&mask, &cfg);
    assert_eq!(shapes.len(), 2, "two painted shapes, two fitted loops");
    assert!(losses.iter().all(|&l| l < 10.0), "fit losses {losses:?}");
    let painted_area = mask.sum() * 16.0;
    let fitted_area: f64 = shapes.iter().map(|s| s.to_polygon(8).area()).sum();
    assert!(
        (fitted_area - painted_area).abs() < 0.15 * painted_area,
        "fitted {fitted_area} vs painted {painted_area}"
    );
}

/// The SVG exporter renders mask polygons from a real flow without error
/// and produces a well-formed document.
#[test]
fn svg_export_of_flow_output() {
    use cardopc::geometry::svg::{write_svg, SvgLayer};

    let clip = Clip::new(
        "svg",
        512.0,
        512.0,
        vec![Polygon::rect(
            Point::new(200.0, 200.0),
            Point::new(320.0, 320.0),
        )],
    );
    let cfg = OpcConfig {
        iterations: 2,
        decay_at: 1,
        pitch: 8.0,
        sraf: None,
        mrc: None,
        ..OpcConfig::via()
    };
    let outcome = CardOpc::new(cfg).run(&clip).unwrap();
    let polys: Vec<_> = outcome
        .shapes
        .iter()
        .map(|s| s.spline.to_polygon(8))
        .collect();
    let mut buf = Vec::new();
    write_svg(
        &mut buf,
        clip.width(),
        clip.height(),
        &[SvgLayer {
            name: "mask",
            polygons: &polys,
            fill: "#abc",
            stroke: "none",
            stroke_width: 0.0,
            opacity: 1.0,
        }],
    )
    .unwrap();
    let s = String::from_utf8(buf).unwrap();
    assert!(s.contains("<polygon"));
    assert!(s.trim_end().ends_with("</svg>"));
}

/// Workload generators, engine sizing and evaluation all agree on units:
/// a via clip's drawn area is tiny versus its window, and the engine grid
/// covers the window.
#[test]
fn units_are_consistent_across_crates() {
    for clip in via_clips() {
        assert!(clip.drawn_area() < 0.01 * clip.width() * clip.height());
        let engine = cardopc::opc::engine_for_extent(clip.width(), clip.height(), 4.0).unwrap();
        assert!(engine.width() as f64 * engine.pitch() >= clip.width());
    }
}
