//! Shared mask evaluation: EPE / PVB / L2 under the paper's conventions.
//!
//! Every method in the benchmark tables — CardOPC, the rectilinear
//! baselines, raw ILT and the hybrid — is scored by [`evaluate_mask`], and
//! every tile of the tiled runtime by its EPE + PVB half,
//! [`score_mask_grid`], so whole masks and tiles are scored by one rule
//! (the paper does the same by scoring everything with the contest engine
//! or Calibre).

use crate::OpcError;
use cardopc_geometry::{BBox, Grid, Point, Polygon};
use cardopc_litho::{
    measure_epe, metal_measure_points, rasterize, thresholded_xor_area, via_measure_points,
    EpeReport, LithoEngine, MeasurePoint, ProcessCondition,
};

/// Which measure point convention to evaluate EPE with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MeasureConvention {
    /// One point per target edge centre (via layers).
    ViaEdgeCenters,
    /// Points along edges with the given spacing in nm (metal layers; the
    /// paper uses 60 nm).
    MetalSpacing(f64),
}

impl MeasureConvention {
    /// The EPE measure sites of `targets` under this convention.
    pub fn sites(self, targets: &[Polygon]) -> Vec<MeasurePoint> {
        match self {
            MeasureConvention::ViaEdgeCenters => via_measure_points(targets),
            MeasureConvention::MetalSpacing(s) => metal_measure_points(targets, s),
        }
    }
}

/// The scores of one optimised mask.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Per-site EPE details at nominal conditions.
    pub epe: EpeReport,
    /// Sum of |EPE| in nm (Tables I/II metric).
    pub epe_sum_nm: f64,
    /// EPE violation count at the given tolerance (Table III metric).
    pub epe_violations: usize,
    /// Tolerance used for the violation count, nm.
    pub epe_tolerance: f64,
    /// Process variation band area, nm².
    pub pvb_nm2: f64,
    /// Squared L2 error vs the target, nm².
    pub l2_nm2: f64,
}

/// The EPE + PVB half of an [`Evaluation`]: what [`score_mask_grid`]
/// measures without rasterising the targets.
#[derive(Clone, Debug)]
pub struct Score {
    /// Per-site EPE at nominal conditions.
    pub epe: EpeReport,
    /// Process variation band area inside the window, nm².
    pub pvb_nm2: f64,
    /// The nominal aerial image EPE was measured on.
    pub aerial: Grid,
}

/// EPE violation tolerance used throughout the experiments, nm.
pub const EPE_TOLERANCE: f64 = 2.0;

/// Scores a mask (any method's output polygons) against target patterns.
///
/// * EPE at the convention's measure points on the **targets**, using the
///   nominal aerial image,
/// * PVB between the outer (overdose, focus) and inner (underdose,
///   defocus) corner prints,
/// * L2 between the nominal print and the rasterised target.
///
/// # Errors
///
/// Propagates [`OpcError::Litho`] on engine/grid mismatches.
pub fn evaluate_mask(
    engine: &LithoEngine,
    mask: &[Polygon],
    targets: &[Polygon],
    convention: MeasureConvention,
    dose_delta: f64,
    epe_search: f64,
) -> Result<Evaluation, OpcError> {
    let (w, h, pitch) = (engine.width(), engine.height(), engine.pitch());
    let mask_raster = rasterize(mask, w, h, pitch);
    evaluate_mask_grid(
        engine,
        &mask_raster,
        targets,
        convention,
        dose_delta,
        epe_search,
    )
}

/// Scores a rasterised mask (e.g. a pixel ILT output) against target
/// patterns; same metrics as [`evaluate_mask`]: [`score_mask_grid`] over
/// the whole grid, plus L2 on its nominal aerial.
///
/// # Errors
///
/// Propagates [`OpcError::Litho`] on engine/grid mismatches.
pub fn evaluate_mask_grid(
    engine: &LithoEngine,
    mask_raster: &Grid,
    targets: &[Polygon],
    convention: MeasureConvention,
    dose_delta: f64,
    epe_search: f64,
) -> Result<Evaluation, OpcError> {
    let (w, h, pitch) = (engine.width(), engine.height(), engine.pitch());
    let extent = BBox::new(Point::ZERO, Point::new(w as f64, h as f64) * pitch);
    let score = score_mask_grid(
        engine,
        mask_raster,
        targets,
        convention,
        dose_delta,
        epe_search,
        extent,
    )?;
    let target_raster = rasterize(targets, w, h, pitch);
    let nominal = engine.effective_threshold(ProcessCondition::NOMINAL);
    Ok(Evaluation {
        epe_sum_nm: score.epe.sum_abs(),
        epe_violations: score.epe.violations(EPE_TOLERANCE),
        epe_tolerance: EPE_TOLERANCE,
        pvb_nm2: score.pvb_nm2,
        l2_nm2: thresholded_xor_area(&score.aerial, nominal, &target_raster, 0.5, extent),
        epe: score.epe,
    })
}

/// Scores a rasterised mask's EPE and PV band: EPE at the convention's
/// sites on `targets`, and the PV band over the pixels whose centre lies
/// in `window` (nm, grid coordinates, half-open — see
/// [`thresholded_xor_area`]).
///
/// Both aerial images (nominal + inner corner) come from a single forward
/// mask FFT ([`LithoEngine::aerial_images_multi`]), and the PVB count
/// fuses thresholding with the XOR instead of materialising binarized
/// grids — the scores are identical to imaging each condition on its own
/// and binarising ([`LithoEngine::print`]).
///
/// # Errors
///
/// Propagates [`OpcError::Litho`] on engine/grid mismatches.
pub fn score_mask_grid(
    engine: &LithoEngine,
    mask_raster: &Grid,
    targets: &[Polygon],
    convention: MeasureConvention,
    dose_delta: f64,
    epe_search: f64,
    window: BBox,
) -> Result<Score, OpcError> {
    let mut images = engine.aerial_images_multi(
        mask_raster,
        &[
            ProcessCondition::NOMINAL,
            ProcessCondition::inner(dose_delta),
        ],
    )?;
    let (aerial, inner_aerial) = (&images[0], &images[1]);
    let sites = convention.sites(targets);
    let epe = measure_epe(aerial, engine.threshold(), &sites, epe_search);
    let pvb_nm2 = thresholded_xor_area(
        aerial,
        engine.effective_threshold(ProcessCondition::outer(dose_delta)),
        inner_aerial,
        engine.effective_threshold(ProcessCondition::inner(dose_delta)),
        window,
    );
    Ok(Score {
        epe,
        pvb_nm2,
        aerial: images.swap_remove(0),
    })
}

/// Builds a lithography engine sized for a clip, with calibrated resist
/// threshold.
///
/// The grid edge is the next 5-smooth integer (the FFT core's direct
/// mixed-radix sizes) covering `max(width, height)` at `pitch` nm per
/// pixel — no more rounding all the way up to a power of two.
///
/// # Errors
///
/// [`OpcError::ClipTooLarge`] beyond a 4096² grid;
/// [`OpcError::Litho`] for invalid optics.
pub fn engine_for_extent(
    width_nm: f64,
    height_nm: f64,
    pitch: f64,
) -> Result<LithoEngine, OpcError> {
    engine_for_extent_at(width_nm, height_nm, pitch, cardopc_litho::Precision::F64)
}

/// [`engine_for_extent`] with an explicit simulation precision: the
/// threshold is calibrated by the selected backend, so an `F32` engine's
/// resist model is self-consistent with its own arithmetic.
///
/// # Errors
///
/// Same as [`engine_for_extent`].
pub fn engine_for_extent_at(
    width_nm: f64,
    height_nm: f64,
    pitch: f64,
    precision: cardopc_litho::Precision,
) -> Result<LithoEngine, OpcError> {
    const MAX_EDGE: usize = 4096;
    let needed = (width_nm.max(height_nm) / pitch).ceil() as usize;
    let edge = cardopc_litho::next_five_smooth(needed);
    if edge > MAX_EDGE {
        return Err(OpcError::ClipTooLarge {
            needed: edge,
            max: MAX_EDGE,
        });
    }
    let mut engine = LithoEngine::with_precision(Default::default(), edge, edge, pitch, precision)?;
    engine.calibrate_threshold();
    Ok(engine)
}

/// Rasterises a target set onto an engine's grid (helper shared by flows).
pub fn raster_for_engine(engine: &LithoEngine, polys: &[Polygon]) -> Grid {
    rasterize(polys, engine.width(), engine.height(), engine.pitch())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardopc_geometry::Point;

    fn engine() -> LithoEngine {
        engine_for_extent(1000.0, 1000.0, 8.0).unwrap()
    }

    #[test]
    fn engine_sizing() {
        // 1000 nm / 8 nm = 125 px = 5³, already 5-smooth: no padding at
        // all (the pow2 sizing rule used to round this up to 128).
        let e = engine();
        assert_eq!(e.width(), 125);
        assert_eq!(e.pitch(), 8.0);
        // Non-smooth requirements round up to the nearest 5-smooth edge.
        assert_eq!(engine_for_extent(1010.0, 1010.0, 8.0).unwrap().width(), 128);
        assert!(matches!(
            engine_for_extent(100_000.0, 100_000.0, 1.0),
            Err(OpcError::ClipTooLarge { .. })
        ));
    }

    #[test]
    fn perfect_mask_of_large_feature_scores_well() {
        let e = engine();
        let target = vec![Polygon::rect(
            Point::new(300.0, 300.0),
            Point::new(700.0, 700.0),
        )];
        let eval = evaluate_mask(
            &e,
            &target,
            &target,
            MeasureConvention::ViaEdgeCenters,
            0.02,
            40.0,
        )
        .unwrap();
        // A 400 nm feature printed from its own drawn mask with a
        // calibrated threshold: edge-centre EPE stays within a few nm
        // (corner rounding does not affect edge centres).
        assert!(
            eval.epe.mean_abs() < 4.0,
            "mean EPE {}",
            eval.epe.mean_abs()
        );
        assert!(eval.pvb_nm2 > 0.0, "PVB should be positive");
        assert!(eval.l2_nm2 < 400.0 * 400.0, "L2 {}", eval.l2_nm2);
    }

    #[test]
    fn bad_mask_scores_worse_than_good_mask() {
        let e = engine();
        let target = vec![Polygon::rect(
            Point::new(300.0, 300.0),
            Point::new(700.0, 700.0),
        )];
        // A mask drawn 60 nm undersized everywhere prints small.
        let bad_mask = vec![Polygon::rect(
            Point::new(360.0, 360.0),
            Point::new(640.0, 640.0),
        )];
        let good = evaluate_mask(
            &e,
            &target,
            &target,
            MeasureConvention::ViaEdgeCenters,
            0.02,
            60.0,
        )
        .unwrap();
        let bad = evaluate_mask(
            &e,
            &bad_mask,
            &target,
            MeasureConvention::ViaEdgeCenters,
            0.02,
            60.0,
        )
        .unwrap();
        assert!(bad.epe_sum_nm > good.epe_sum_nm);
        assert!(bad.l2_nm2 > good.l2_nm2);
    }

    #[test]
    fn metal_convention_uses_spacing() {
        let e = engine();
        let target = vec![Polygon::rect(
            Point::new(200.0, 450.0),
            Point::new(800.0, 550.0),
        )];
        let eval = evaluate_mask(
            &e,
            &target,
            &target,
            MeasureConvention::MetalSpacing(60.0),
            0.02,
            40.0,
        )
        .unwrap();
        // 600 nm edges -> 10 sites each; 100 nm edges -> 1 each: 22 sites.
        assert_eq!(eval.epe.values.len(), 22);
    }
}
