//! Scalar-vs-SIMD equivalence and determinism for the lithography engine.
//!
//! Every kernel is one generic body compiled twice, plain and under
//! `avx2,fma`, and Rust never contracts `a*b+c` into an FMA, so the two
//! compilations are bitwise identical at both precisions. These tests pin
//! that contract on the FFT stages and on the engine's end-to-end image
//! paths, and pin each mode to bitwise determinism across worker counts.
//!
//! All tests mutate the process-global forced dispatch mode, so they
//! serialise on one mutex and restore the default before releasing it.

use cardopc_geometry::{Grid, Point, Polygon, SplitMix64};
use cardopc_litho::fft::FftScratch;
use cardopc_litho::simd::{self, SimdMode};
use cardopc_litho::{
    rasterize, FftPlan, LithoEngine, OpticsConfig, Precision, ProcessCondition, Scalar,
};
use std::sync::Mutex;

static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` under a forced dispatch mode, restoring auto-detection after.
fn with_mode<T>(mode: SimdMode, f: impl FnOnce() -> T) -> T {
    simd::force_mode(Some(mode));
    let out = f();
    simd::force_mode(None);
    out
}

fn test_mask(w: usize, h: usize, pitch: f64) -> Grid {
    let extent = w as f64 * pitch;
    let polys = vec![
        Polygon::rect(
            Point::new(0.25 * extent, 0.2 * extent),
            Point::new(0.45 * extent, 0.8 * extent),
        ),
        Polygon::rect(
            Point::new(0.55 * extent, 0.3 * extent),
            Point::new(0.8 * extent, 0.5 * extent),
        ),
        Polygon::rect(
            Point::new(0.55 * extent, 0.6 * extent),
            Point::new(0.7 * extent, 0.75 * extent),
        ),
    ];
    rasterize(&polys, w, h, pitch)
}

fn engine(w: usize, h: usize, pitch: f64) -> LithoEngine {
    let mut e = LithoEngine::new(OpticsConfig::default(), w, h, pitch).unwrap();
    e.calibrate_threshold();
    e
}

fn bits(g: &Grid) -> Vec<u64> {
    g.data().iter().map(|v| v.to_bits()).collect()
}

/// The Stockham stages must match across compilations bit for bit, at
/// lengths covering every radix at unit and wide strides, with and without
/// odd-`m` tails (e.g. 60 = 4·3·5 hits s=12).
fn check_plan_bitwise_scalar_vs_avx2<T: Scalar>() {
    let _guard = MODE_LOCK.lock().unwrap();
    if !simd::avx2_available() {
        return;
    }
    for n in [
        8usize, 12, 16, 32, 48, 60, 64, 96, 120, 128, 160, 240, 320, 500, 512,
    ] {
        for inverse in [false, true] {
            let mut rng = SplitMix64::new(0x5eed ^ n as u64);
            let re0: Vec<T> = (0..n)
                .map(|_| T::from_f64(rng.range_f64(-1.0, 1.0)))
                .collect();
            let im0: Vec<T> = (0..n)
                .map(|_| T::from_f64(rng.range_f64(-1.0, 1.0)))
                .collect();
            let run = |mode| {
                with_mode(mode, || {
                    let plan = FftPlan::<T>::get(n);
                    let mut scratch = FftScratch::<T>::new();
                    let (mut re, mut im) = (re0.clone(), im0.clone());
                    plan.execute_unscaled_split(&mut re, &mut im, &mut scratch, inverse);
                    (re, im)
                })
            };
            let (sr, si) = run(SimdMode::Scalar);
            let (vr, vi) = run(SimdMode::Avx2);
            assert_eq!(sr, vr, "n={n} inverse={inverse}: re lanes drifted");
            assert_eq!(si, vi, "n={n} inverse={inverse}: im lanes drifted");
        }
    }
}

#[test]
fn fft_f32_plan_bitwise_scalar_vs_avx2() {
    check_plan_bitwise_scalar_vs_avx2::<f32>();
}

#[test]
fn fft_f64_plan_bitwise_scalar_vs_avx2() {
    check_plan_bitwise_scalar_vs_avx2::<f64>();
}

#[test]
fn aerial_image_scalar_vs_simd_within_1e9() {
    let _guard = MODE_LOCK.lock().unwrap();
    if !simd::avx2_available() {
        return; // single-mode machine: nothing to compare
    }
    for (w, h) in [(128usize, 128usize), (96, 80)] {
        let e = engine(w, h, 4.0);
        let mask = test_mask(w, h, 4.0);
        let scalar = with_mode(SimdMode::Scalar, || e.aerial_image(&mask).unwrap());
        let vector = with_mode(SimdMode::Avx2, || e.aerial_image(&mask).unwrap());
        assert_eq!(bits(&scalar), bits(&vector), "{w}x{h}: scalar/SIMD aerial");
    }
}

#[test]
fn multi_condition_scalar_vs_simd_within_1e9() {
    let _guard = MODE_LOCK.lock().unwrap();
    if !simd::avx2_available() {
        return;
    }
    let e = engine(128, 128, 4.0);
    let mask = test_mask(128, 128, 4.0);
    let conditions = [
        ProcessCondition::NOMINAL,
        ProcessCondition::outer(0.02),
        ProcessCondition::inner(0.02),
    ];
    let scalar = with_mode(SimdMode::Scalar, || {
        e.aerial_images_multi(&mask, &conditions).unwrap()
    });
    let vector = with_mode(SimdMode::Avx2, || {
        e.aerial_images_multi(&mask, &conditions).unwrap()
    });
    for (i, (a, b)) in scalar.iter().zip(&vector).enumerate() {
        assert_eq!(bits(a), bits(b), "condition {i}: scalar/SIMD");
    }
}

#[test]
fn scalar_mode_is_bitwise_deterministic_across_worker_counts() {
    let _guard = MODE_LOCK.lock().unwrap();
    with_mode(SimdMode::Scalar, || {
        let mask = test_mask(96, 96, 4.0);
        let mut reference: Option<Grid> = None;
        for workers in [1usize, 2, 3, 5, 8] {
            let mut e = engine(96, 96, 4.0);
            e.set_workers(workers);
            let img = e.aerial_image(&mask).unwrap();
            // A second run on the same (now warm-scratch) engine must also
            // be byte-identical: resume determinism.
            let img2 = e.aerial_image(&mask).unwrap();
            assert_eq!(img.data(), img2.data(), "workers={workers}: rerun drifted");
            match &reference {
                None => reference = Some(img),
                Some(r) => assert_eq!(
                    r.data(),
                    img.data(),
                    "workers={workers}: scalar output not byte-identical"
                ),
            }
        }
    });
}

/// Byte identity across worker counts holds for every image call, at both
/// precisions, in each dispatch mode.
#[test]
fn every_image_call_is_bitwise_deterministic_across_worker_counts_in_both_modes() {
    let _guard = MODE_LOCK.lock().unwrap();
    let mask = test_mask(96, 80, 4.0);
    let cols: Vec<usize> = (10..70).collect();
    // A sparse pixel list inside those columns: the correction loop's path,
    // bit for bit the columns' pixels.
    let pixels: Vec<usize> = (0..96 * 80)
        .filter(|i| (10..70).contains(&(i % 96)) && i % 3 == 0)
        .collect();
    let conditions = [ProcessCondition::NOMINAL, ProcessCondition::inner(0.02)];
    for mode in [SimdMode::Scalar, SimdMode::Avx2] {
        for precision in [Precision::F64, Precision::F32] {
            with_mode(mode, || {
                let mut e =
                    LithoEngine::with_precision(OpticsConfig::default(), 96, 80, 4.0, precision)
                        .unwrap();
                let mut reference: Option<Vec<Grid>> = None;
                for workers in [1usize, 2, 3, 4, 16] {
                    e.set_workers(workers);
                    let mut images = e.aerial_images_multi(&mask, &conditions).unwrap();
                    images.push(e.aerial_image(&mask).unwrap());
                    images.push(e.aerial_image_cols(&mask, &cols).unwrap());
                    let mut sparse = Grid::filled(96, 80, 4.0, -1.0);
                    e.aerial_image_into(&mask, Some(&pixels), &mut sparse)
                        .unwrap();
                    for (i, &v) in sparse.data().iter().enumerate() {
                        let want = match pixels.binary_search(&i) {
                            Ok(_) => images[3].data()[i],
                            Err(_) => -1.0,
                        };
                        assert_eq!(v.to_bits(), want.to_bits(), "{mode:?} {precision:?} {i}");
                    }
                    let reference = reference.get_or_insert_with(|| images.clone());
                    for (i, (got, want)) in images.iter().zip(reference.iter()).enumerate() {
                        assert_eq!(
                            got.data(),
                            want.data(),
                            "{mode:?} {precision:?} workers={workers} image {i}"
                        );
                    }
                }
            });
        }
    }
}

#[test]
fn aerial_image_runs_unpadded_at_320() {
    // 320 = 2⁶·5 is 5-smooth: the engine must accept it directly instead of
    // padding up to 512², and produce a physically sane image end-to-end.
    let _guard = MODE_LOCK.lock().unwrap();
    let e = engine(320, 320, 4.0);
    assert_eq!(e.width(), 320);
    let mask = test_mask(320, 320, 4.0);
    let img = e.aerial_image(&mask).unwrap();
    assert_eq!((img.width(), img.height()), (320, 320));
    let peak = img.data().iter().cloned().fold(0.0, f64::max);
    assert!(peak > 0.1, "aerial peak {peak} implausibly dim");
    assert!(img.data().iter().all(|v| v.is_finite() && *v >= 0.0));
    let printed = e.print(&mask, ProcessCondition::NOMINAL).unwrap();
    assert!(printed.sum() > 0.0, "nothing printed on the 320\u{b2} grid");
}
