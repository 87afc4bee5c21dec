//! The ILT-OPC hybrid flow (§III-G).
//!
//! 1. Run pixel ILT to get a high-fidelity continuous mask.
//! 2. Trace the boundary of every shape in the mask image ([`trace_contours`]
//!    standing in for OpenCV border following).
//! 3. Fit each contour with a cardinal spline (Algorithm 1).
//! 4. Check the fitted curvilinear mask against the mask rules and resolve
//!    the violations (removing non-printable sub-area specks).
//!
//! The result keeps ILT's pattern fidelity while reaching zero MRC
//! violations — the Fig. 7 claim this crate's benchmark regenerates.

use crate::cleanup::{open_binary, remove_small_components};
use crate::pixel::{pixel_ilt, IltConfig, IltOutcome};
use cardopc_geometry::{trace_contours, Polygon};
use cardopc_litho::LithoEngine;
use cardopc_mrc::{AreaPolicy, MrcChecker, MrcResolver, MrcRules, ResolveConfig};
use cardopc_opc::{
    evaluate_mask, evaluate_mask_grid, raster_for_engine, Evaluation, MeasureConvention, OpcError,
};
use cardopc_spline::{fit_contour, CardinalSpline, FitConfig};

/// Configuration of the hybrid flow.
#[derive(Clone, Debug)]
pub struct HybridConfig {
    /// Pixel ILT stage parameters.
    pub ilt: IltConfig,
    /// Contour fitting (Algorithm 1) parameters.
    pub fit: FitConfig,
    /// Mask rules for the final check/resolve stage.
    pub mrc: MrcRules,
    /// Spline sampling density for rasterisation and checking.
    pub samples_per_segment: usize,
    /// PVB dose corner.
    pub dose_delta: f64,
    /// EPE search range, nm.
    pub epe_search: f64,
    /// Measure point convention for scoring.
    pub convention: MeasureConvention,
    /// Contours with fewer vertices than this are noise and skipped.
    pub min_contour_points: usize,
    /// Radius (pixels) of the morphological opening applied to the ILT
    /// mask before fitting: erases arms thinner than twice this radius and
    /// splits sub-rule necks (0 disables).
    pub opening_radius: usize,
    /// Connected components of the ILT mask smaller than this (nm²) are
    /// erased before fitting — the image-level form of the paper's
    /// "remove small, non-printable patterns".
    pub min_component_area: f64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            ilt: IltConfig::default(),
            fit: FitConfig {
                // Denser control points than the plain default: ILT
                // contours carry real curvature that a 4-point loop would
                // turn into spikes.
                control_ratio: 0.15,
                min_control_points: 8,
                ..FitConfig::default()
            },
            mrc: MrcRules::sraf_scale(),
            samples_per_segment: 8,
            dose_delta: 0.02,
            epe_search: 40.0,
            convention: MeasureConvention::MetalSpacing(60.0),
            min_contour_points: 8,
            opening_radius: 2,
            min_component_area: 2.0 * MrcRules::sraf_scale().min_area,
        }
    }
}

/// Result of the hybrid flow.
#[derive(Clone, Debug)]
pub struct HybridOutcome {
    /// The raw pixel ILT stage output.
    pub ilt: IltOutcome,
    /// Spline shapes fitted to the ILT contours, before MRC resolving.
    pub fitted_shapes: Vec<CardinalSpline>,
    /// Final shapes after MRC resolving (specks removed).
    pub shapes: Vec<CardinalSpline>,
    /// MRC violations on the fitted mask before resolving.
    pub violations_before: usize,
    /// MRC violations remaining after resolving (the paper reaches 0).
    pub violations_after: usize,
    /// Scores of the raw ILT mask.
    pub ilt_eval: Evaluation,
    /// Scores of the final hybrid mask.
    pub hybrid_eval: Evaluation,
    /// Mean fitting error over all shapes (nm², from Algorithm 1's loss).
    pub mean_fit_loss: f64,
}

/// Runs the full ILT-OPC hybrid flow against target patterns.
///
/// # Errors
///
/// Propagates engine mismatches and degenerate-geometry errors.
pub fn run_hybrid(
    engine: &LithoEngine,
    targets: &[Polygon],
    config: &HybridConfig,
) -> Result<HybridOutcome, OpcError> {
    if targets.is_empty() {
        return Err(OpcError::EmptyClip);
    }

    // 1. Pixel ILT against the rasterised target.
    let target_raster = raster_for_engine(engine, targets).binarize(0.5);
    let ilt = pixel_ilt(engine, &target_raster, &config.ilt)?;

    // 2–3. Regularise the ILT mask, trace shape boundaries, fit splines.
    let (fitted_shapes, fit_losses) = fit_mask_shapes(&ilt.mask, config);

    // 4. MRC check and resolve.
    //
    // The resolver fixes what its projection rounds can fix *without*
    // deleting shapes (Keep policy — a few rounds of min-norm moves, so
    // deformations stay small). Assist features that still violate
    // afterwards are then pruned greedily, worst offender first: assists
    // exist only to support the mains' process window, so a
    // rule-breaking assist is expendable (§III-F's post-fit removal,
    // applied shape-wise). Mains (shapes overlapping a target) are never
    // deleted.
    let checker = MrcChecker::with_sampling(config.mrc, config.samples_per_segment);
    let violations_before = checker.check(&fitted_shapes).len();
    let mut shapes = fitted_shapes.clone();
    let resolver = MrcResolver::new(
        config.mrc,
        ResolveConfig {
            area_policy: AreaPolicy::Keep,
            samples_per_segment: config.samples_per_segment,
        },
    );
    let _report = resolver.resolve(&mut shapes);

    let target_boxes: Vec<_> = targets.iter().map(|t| t.bbox()).collect();
    let is_main = |s: &CardinalSpline| {
        let b = s.to_polygon(config.samples_per_segment).bbox();
        target_boxes.iter().any(|t| t.intersects(&b))
    };
    loop {
        let remaining = checker.check(&shapes);
        let offenders = remaining.iter().map(|v| v.shape);
        match worst_assist(offenders, |i| is_main(&shapes[i])) {
            Some(i) => {
                shapes.remove(i);
            }
            None => break, // nothing violates, or only mains do; keep them
        }
    }
    let violations_after = checker.check(&shapes).len();

    // Score both the raw ILT mask and the hybrid mask.
    let ilt_eval = evaluate_mask_grid(
        engine,
        &ilt.binary_mask,
        targets,
        config.convention,
        config.dose_delta,
        config.epe_search,
    )?;
    let hybrid_polys: Vec<Polygon> = shapes
        .iter()
        .map(|s| s.to_polygon(config.samples_per_segment))
        .collect();
    let hybrid_eval = evaluate_mask(
        engine,
        &hybrid_polys,
        targets,
        config.convention,
        config.dose_delta,
        config.epe_search,
    )?;

    let mean_fit_loss = if fit_losses.is_empty() {
        0.0
    } else {
        fit_losses.iter().sum::<f64>() / fit_losses.len() as f64
    };

    Ok(HybridOutcome {
        ilt,
        fitted_shapes,
        shapes,
        violations_before,
        violations_after,
        ilt_eval,
        hybrid_eval,
        mean_fit_loss,
    })
}

/// The assist to prune next, given the shape index of every violation: the
/// non-main shape with the most violations, ties to the lowest index, so
/// the pruning order is a function of the violations alone.
fn worst_assist(
    offenders: impl Iterator<Item = usize>,
    is_main: impl Fn(usize) -> bool,
) -> Option<usize> {
    let mut per_shape = std::collections::BTreeMap::new();
    for shape in offenders {
        *per_shape.entry(shape).or_insert(0usize) += 1;
    }
    per_shape
        .into_iter()
        .filter(|&(i, _)| !is_main(i))
        .max_by_key(|&(i, count)| (count, std::cmp::Reverse(i)))
        .map(|(i, _)| i)
}

/// Fits cardinal-spline shapes to an arbitrary mask image (§III-B/G).
///
/// This is the fitting stage of the hybrid flow exposed on its own:
/// regularise (morphological opening + speck removal per the config),
/// trace shape boundaries, and run Algorithm 1 on every outer contour.
/// Use it to convert masks produced by *external* ILT tools into the
/// uniform spline representation — e.g. CTM-style SRAF generation.
///
/// Returns the fitted shapes and the per-shape fitting losses (nm²).
pub fn fit_mask_shapes(
    mask: &cardopc_geometry::Grid,
    config: &HybridConfig,
) -> (Vec<CardinalSpline>, Vec<f64>) {
    let opened = open_binary(mask, 0.5, config.opening_radius);
    let (regularised, _removed) = remove_small_components(&opened, 0.5, config.min_component_area);

    let mut fitted_shapes = Vec::new();
    let mut fit_losses = Vec::new();
    for contour in trace_contours(&regularised, 0.5) {
        // Holes (clockwise) in ILT masks are rare and tiny; skipping them
        // keeps the uniform outer-loop shape representation of §III-B.
        if contour.signed_area() <= 0.0 || contour.len() < config.min_contour_points {
            continue;
        }
        // Fit failures are degenerate specks; skip them.
        if let Ok(fit) = fit_contour(&contour, &config.fit) {
            fitted_shapes.push(fit.spline);
            fit_losses.push(fit.final_loss);
        }
    }
    (fitted_shapes, fit_losses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardopc_geometry::Point;
    use cardopc_litho::OpticsConfig;

    fn small_engine() -> LithoEngine {
        let cfg = OpticsConfig {
            source_rings: 1,
            points_per_ring: 4,
            ..OpticsConfig::default()
        };
        let mut e = LithoEngine::new(cfg, 64, 64, 8.0).unwrap();
        e.calibrate_threshold();
        e
    }

    fn fast_config() -> HybridConfig {
        HybridConfig {
            ilt: IltConfig {
                iterations: 12,
                ..IltConfig::default()
            },
            convention: MeasureConvention::ViaEdgeCenters,
            ..HybridConfig::default()
        }
    }

    fn square_targets() -> Vec<Polygon> {
        vec![Polygon::rect(
            Point::new(180.0, 180.0),
            Point::new(330.0, 330.0),
        )]
    }

    #[test]
    fn hybrid_produces_shapes_and_scores() {
        let engine = small_engine();
        let out = run_hybrid(&engine, &square_targets(), &fast_config()).unwrap();
        assert!(!out.shapes.is_empty(), "hybrid produced no shapes");
        assert!(out.hybrid_eval.epe_sum_nm.is_finite());
        assert!(out.ilt_eval.l2_nm2.is_finite());
        assert!(out.mean_fit_loss >= 0.0);
    }

    #[test]
    fn resolving_reduces_violations() {
        let engine = small_engine();
        let out = run_hybrid(&engine, &square_targets(), &fast_config()).unwrap();
        assert!(
            out.violations_after <= out.violations_before,
            "{} -> {}",
            out.violations_before,
            out.violations_after
        );
    }

    #[test]
    fn fitted_mask_close_to_ilt_mask() {
        // The fitted spline mask should cover roughly the same area as the
        // binarised ILT mask (fit fidelity).
        let engine = small_engine();
        let out = run_hybrid(&engine, &square_targets(), &fast_config()).unwrap();
        let ilt_area = out.ilt.binary_mask.sum() * 64.0; // pitch² = 64
        let fit_area: f64 = out
            .fitted_shapes
            .iter()
            .map(|s| s.to_polygon(8).area())
            .sum();
        assert!(
            (fit_area - ilt_area).abs() < 0.35 * ilt_area.max(1.0),
            "fit area {fit_area} vs ILT area {ilt_area}"
        );
    }

    #[test]
    fn tied_assists_prune_the_lowest_index_first() {
        // Shapes 5 and 2 tie at two violations each; main shape 0 has more
        // but is never pruned.
        let offenders = [5usize, 0, 2, 0, 5, 0, 2, 7];
        let worst = |v: &[usize]| worst_assist(v.iter().copied(), |i| i == 0);
        assert_eq!(worst(&offenders), Some(2));
        let mut reversed = offenders;
        reversed.reverse();
        assert_eq!(worst(&reversed), Some(2));
        assert_eq!(worst(&[0, 0]), None);
        assert_eq!(worst(&[]), None);
    }

    #[test]
    fn empty_targets_rejected() {
        let engine = small_engine();
        assert!(matches!(
            run_hybrid(&engine, &[], &fast_config()),
            Err(OpcError::EmptyClip)
        ));
    }
}
