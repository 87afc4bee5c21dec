//! Property-based tests of the single-precision FFT backend.
//!
//! Mirrors the f64 suite in `properties.rs` at f32-appropriate
//! tolerances: the same structural invariants (round trip, Parseval,
//! linearity, agreement with `f64`) must hold on the narrowed twiddle
//! tables and the `f32` instantiation of the generic kernels, at every
//! 5-smooth length.

use cardopc_geometry::SplitMix64;
use cardopc_litho::fft::{fft_inplace, is_five_smooth, Complex};
use cardopc_litho::{FftPlan, FftScratch, Field, Scalar};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// The 5-smooth integers of `range` (the only lengths the FFT transforms),
/// drawn uniformly.
fn five_smooth(range: Range<usize>) -> impl Strategy<Value = usize> {
    let sizes: Vec<usize> = range.filter(|&n| is_five_smooth(n)).collect();
    (0..sizes.len()).prop_map(move |i| sizes[i])
}

/// Forward or inverse f32 transform on split buffers, including the
/// inverse `1/n` normalisation (the split entry point leaves scaling to
/// the caller so 2-D drivers can fold it elsewhere).
fn fft32(re: &mut [f32], im: &mut [f32], scratch: &mut FftScratch<f32>, inverse: bool) {
    let n = re.len();
    let plan: Arc<FftPlan<f32>> = FftPlan::get(n);
    plan.execute_unscaled_split(re, im, scratch, inverse);
    if inverse {
        let scale = 1.0 / n as f32;
        for v in re.iter_mut() {
            *v *= scale;
        }
        for v in im.iter_mut() {
            *v *= scale;
        }
    }
}

proptest! {
    /// FFT round trip is the identity at any length in single precision.
    #[test]
    fn f32_fft_roundtrip(seed in 0u64..1000, n in five_smooth(1..300)) {
        let mut rng = SplitMix64::new(seed);
        let orig_re: Vec<f32> = (0..n).map(|_| rng.range_f64(-1.0, 1.0) as f32).collect();
        let orig_im: Vec<f32> = (0..n).map(|_| rng.range_f64(-1.0, 1.0) as f32).collect();
        let (mut re, mut im) = (orig_re.clone(), orig_im.clone());
        let mut scratch = FftScratch::new();
        fft32(&mut re, &mut im, &mut scratch, false);
        fft32(&mut re, &mut im, &mut scratch, true);
        for i in 0..n {
            prop_assert!((re[i] - orig_re[i]).abs() < 1e-3, "re[{i}]: {} vs {}", re[i], orig_re[i]);
            prop_assert!((im[i] - orig_im[i]).abs() < 1e-3, "im[{i}]: {} vs {}", im[i], orig_im[i]);
        }
    }

    /// Parseval in f32: time- and frequency-domain energies agree.
    #[test]
    fn f32_fft_parseval(seed in 0u64..1000, n in five_smooth(1..300)) {
        let mut rng = SplitMix64::new(seed);
        let mut re: Vec<f32> = (0..n).map(|_| rng.range_f64(-1.0, 1.0) as f32).collect();
        let mut im: Vec<f32> = (0..n).map(|_| rng.range_f64(-1.0, 1.0) as f32).collect();
        // Energies accumulate in f64 so the *transform's* error is what
        // the tolerance measures, not the summation's.
        let e_time: f64 = re.iter().zip(&im).map(|(&a, &b)| (a as f64).mul_add(a as f64, (b as f64) * (b as f64))).sum();
        let mut scratch = FftScratch::new();
        fft32(&mut re, &mut im, &mut scratch, false);
        let e_freq: f64 = re
            .iter()
            .zip(&im)
            .map(|(&a, &b)| (a as f64).mul_add(a as f64, (b as f64) * (b as f64)))
            .sum::<f64>()
            / n as f64;
        prop_assert!((e_time - e_freq).abs() < 1e-3 * (1.0 + e_time),
                     "energy {e_time} vs {e_freq} at n={n}");
    }

    /// Linearity in f32: FFT(αx + βy) == α·FFT(x) + β·FFT(y).
    #[test]
    fn f32_fft_linearity(seed in 0u64..500, n in five_smooth(1..200),
                         alpha in -3.0..3.0f64, beta in -3.0..3.0f64) {
        let (alpha, beta) = (alpha as f32, beta as f32);
        let mut rng = SplitMix64::new(seed);
        let mut gen = || -> Vec<f32> { (0..n).map(|_| rng.range_f64(-1.0, 1.0) as f32).collect() };
        let (x_re, x_im, y_re, y_im) = (gen(), gen(), gen(), gen());
        let mut combo_re: Vec<f32> = (0..n).map(|i| alpha * x_re[i] + beta * y_re[i]).collect();
        let mut combo_im: Vec<f32> = (0..n).map(|i| alpha * x_im[i] + beta * y_im[i]).collect();
        let (mut fx_re, mut fx_im, mut fy_re, mut fy_im) = (x_re, x_im, y_re, y_im);
        let mut scratch = FftScratch::new();
        fft32(&mut fx_re, &mut fx_im, &mut scratch, false);
        fft32(&mut fy_re, &mut fy_im, &mut scratch, false);
        fft32(&mut combo_re, &mut combo_im, &mut scratch, false);
        for i in 0..n {
            let want_re = alpha * fx_re[i] + beta * fy_re[i];
            let want_im = alpha * fx_im[i] + beta * fy_im[i];
            let err = ((combo_re[i] - want_re).powi(2) + (combo_im[i] - want_im).powi(2)).sqrt();
            let mag = (want_re * want_re + want_im * want_im).sqrt();
            prop_assert!(err < 2e-3 * (1.0 + mag), "bin {i}: err {err} at magnitude {mag}");
        }
    }

    /// The f32 transform tracks the f64 reference bin by bin.
    #[test]
    fn f32_fft_tracks_f64(seed in 0u64..500, n in five_smooth(1..300)) {
        let mut rng = SplitMix64::new(seed);
        let signal: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)))
            .collect();
        let mut reference = signal.clone();
        fft_inplace(&mut reference, false);
        let mut re: Vec<f32> = signal.iter().map(|z| z.re as f32).collect();
        let mut im: Vec<f32> = signal.iter().map(|z| z.im as f32).collect();
        let mut scratch = FftScratch::new();
        fft32(&mut re, &mut im, &mut scratch, false);
        for i in 0..n {
            let err = ((re[i] as f64 - reference[i].re).powi(2)
                + (im[i] as f64 - reference[i].im).powi(2))
            .sqrt();
            prop_assert!(err < 2e-3 * (1.0 + reference[i].norm()),
                         "bin {i}/{n}: f32 ({}, {}) vs f64 ({}, {})",
                         re[i], im[i], reference[i].re, reference[i].im);
        }
    }

    /// 2-D f32 round trip on Fields of arbitrary dimensions.
    #[test]
    fn f32_field_roundtrip(seed in 0u64..200, w in five_smooth(1..40), h in five_smooth(1..40)) {
        let mut rng = SplitMix64::new(seed);
        let real: Vec<f64> = (0..w * h).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let orig: Field<f32> = Field::from_real(w, h, &real);
        let mut f = orig.clone();
        f.fft2_inplace(false);
        f.fft2_inplace(true);
        for (a, b) in f.iter().zip(orig.iter()) {
            prop_assert!((a - b).norm() < 2e-3);
        }
    }
}

/// The narrowing conversion itself: `to_precision` rounds every sample to
/// the nearest representable value and widening back is exact.
#[test]
fn to_precision_roundtrip_is_f32_exact() {
    let mut rng = SplitMix64::new(7);
    let real: Vec<f64> = (0..64).map(|_| rng.range_f64(-1.0, 1.0)).collect();
    let wide: Field = Field::from_real(8, 8, &real);
    let narrow: Field<f32> = wide.to_precision();
    let back: Field = narrow.to_precision();
    for (a, b) in back.iter().zip(wide.iter()) {
        assert_eq!(
            a.re, a.re as f32 as f64,
            "widened values are exactly representable"
        );
        assert!((a.re - b.re).abs() <= f64::from(f32::EPSILON) * (1.0 + b.re.abs()));
    }
    // The Scalar narrowing hook agrees with `as` casts.
    assert_eq!(<f32 as Scalar>::from_f64(0.1), 0.1f32);
    assert_eq!(<f64 as Scalar>::from_f64(0.1), 0.1f64);
}
