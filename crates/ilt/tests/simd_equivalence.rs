//! Scalar-vs-SIMD equivalence of the pixel ILT gradient path.
//!
//! The ILT loop runs forward transforms, per-kernel pointwise products,
//! pruned inverse transforms and `w·|z|²` / `w·Re` accumulations — every
//! dispatched kernel the litho crate has. A few gradient-descent iterations
//! would amplify any divergence through the nonlinear sigmoid updates; the
//! two compilations round identically, so the mask and the loss history
//! must agree bit for bit.

use cardopc_geometry::{Grid, Point, Polygon};
use cardopc_ilt::{pixel_ilt, IltConfig};
use cardopc_litho::simd::{self, SimdMode};
use cardopc_litho::{rasterize, LithoEngine, OpticsConfig};
use std::sync::Mutex;

static MODE_LOCK: Mutex<()> = Mutex::new(());

fn with_mode<T>(mode: SimdMode, f: impl FnOnce() -> T) -> T {
    simd::force_mode(Some(mode));
    let out = f();
    simd::force_mode(None);
    out
}

fn run_ilt(w: usize, h: usize) -> (Grid, Vec<f64>) {
    let mut engine = LithoEngine::new(OpticsConfig::default(), w, h, 4.0).unwrap();
    engine.calibrate_threshold();
    let extent = w as f64 * 4.0;
    let target = rasterize(
        &[
            Polygon::rect(
                Point::new(0.3 * extent, 0.25 * extent),
                Point::new(0.5 * extent, 0.75 * extent),
            ),
            Polygon::rect(
                Point::new(0.6 * extent, 0.4 * extent),
                Point::new(0.75 * extent, 0.6 * extent),
            ),
        ],
        w,
        h,
        4.0,
    )
    .binarize(0.5);
    let config = IltConfig {
        iterations: 8,
        regularize_every: 0,
        ..IltConfig::default()
    };
    let out = pixel_ilt(&engine, &target, &config).unwrap();
    (out.mask, out.loss_history)
}

#[test]
fn ilt_gradient_scalar_vs_simd_within_1e9() {
    let _guard = MODE_LOCK.lock().unwrap();
    if !simd::avx2_available() {
        return; // single-mode machine: nothing to compare
    }
    let (scalar_mask, scalar_loss) = with_mode(SimdMode::Scalar, || run_ilt(96, 96));
    let (simd_mask, simd_loss) = with_mode(SimdMode::Avx2, || run_ilt(96, 96));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(scalar_mask.data()),
        bits(simd_mask.data()),
        "ILT mask scalar/SIMD"
    );
    assert_eq!(bits(&scalar_loss), bits(&simd_loss), "ILT loss scalar/SIMD");
}
