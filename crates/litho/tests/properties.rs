//! Property-based tests for the lithography substrate.

use cardopc_geometry::{Grid, Point, Polygon, SplitMix64};
use cardopc_litho::fft::{fft_inplace, is_five_smooth, Complex, Field};
use cardopc_litho::{epe_at, l2_error, pvb_area, rasterize, thresholded_xor_area, MeasurePoint};
use proptest::prelude::*;
use std::ops::Range;

/// The 5-smooth integers of `range` (the only lengths the FFT transforms),
/// drawn uniformly.
fn five_smooth(range: Range<usize>) -> impl Strategy<Value = usize> {
    let sizes: Vec<usize> = range.filter(|&n| is_five_smooth(n)).collect();
    (0..sizes.len()).prop_map(move |i| sizes[i])
}

proptest! {
    /// FFT round trip is the identity for arbitrary signals of any
    /// 5-smooth length, odd ones included.
    #[test]
    fn fft_roundtrip(seed in 0u64..1000, n in five_smooth(1..300)) {
        let mut rng = SplitMix64::new(seed);
        let orig: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.range_f64(-10.0, 10.0), rng.range_f64(-10.0, 10.0)))
            .collect();
        let mut x = orig.clone();
        fft_inplace(&mut x, false);
        fft_inplace(&mut x, true);
        for (a, b) in x.iter().zip(&orig) {
            prop_assert!((*a - *b).norm() < 1e-8);
        }
    }

    /// Parseval: time-domain and (normalised) frequency-domain energies
    /// agree at any transform length.
    #[test]
    fn fft_parseval(seed in 0u64..1000, n in five_smooth(1..300)) {
        let mut rng = SplitMix64::new(seed);
        let sig: Vec<Complex> = (0..n)
            .map(|_| Complex::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)))
            .collect();
        let e_time: f64 = sig.iter().map(|z| z.norm_sq()).sum();
        let mut x = sig;
        fft_inplace(&mut x, false);
        let e_freq: f64 = x.iter().map(|z| z.norm_sq()).sum::<f64>() / n as f64;
        prop_assert!((e_time - e_freq).abs() < 1e-8 * (1.0 + e_time));
    }

    /// 2-D FFT round trip on Fields of arbitrary (non-pow2 included)
    /// dimensions.
    #[test]
    fn field_roundtrip(seed in 0u64..200, w in five_smooth(1..40), h in five_smooth(1..40)) {
        let mut rng = SplitMix64::new(seed);
        let real: Vec<f64> = (0..w * h).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let orig: Field = Field::from_real(w, h, &real);
        let mut f = orig.clone();
        f.fft2_inplace(false);
        f.fft2_inplace(true);
        for (a, b) in f.iter().zip(orig.iter()) {
            prop_assert!((a - b).norm() < 1e-8);
        }
    }

    /// Linearity: FFT(αx + βy) == α·FFT(x) + β·FFT(y), any length.
    #[test]
    fn fft_linearity(seed in 0u64..500, n in five_smooth(1..200),
                     alpha in -3.0..3.0f64, beta in -3.0..3.0f64) {
        let mut rng = SplitMix64::new(seed);
        let gen = |rng: &mut SplitMix64| -> Vec<Complex> {
            (0..n)
                .map(|_| Complex::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)))
                .collect()
        };
        let x = gen(&mut rng);
        let y = gen(&mut rng);
        let mut combo: Vec<Complex> = x
            .iter()
            .zip(&y)
            .map(|(a, b)| Complex::new(alpha * a.re + beta * b.re, alpha * a.im + beta * b.im))
            .collect();
        let (mut fx, mut fy) = (x, y);
        fft_inplace(&mut fx, false);
        fft_inplace(&mut fy, false);
        fft_inplace(&mut combo, false);
        for ((c, a), b) in combo.iter().zip(&fx).zip(&fy) {
            let want = Complex::new(alpha * a.re + beta * b.re, alpha * a.im + beta * b.im);
            prop_assert!((*c - want).norm() < 1e-7 * (1.0 + want.norm()));
        }
    }

    /// Rasterised area of an axis-aligned rectangle equals its true area
    /// (when fully inside the grid), regardless of sub-pixel alignment.
    #[test]
    fn raster_preserves_rect_area(x0 in 1.0..10.0f64, y0 in 1.0..10.0f64,
                                   w in 0.5..10.0f64, h in 0.5..10.0f64) {
        let rect = Polygon::rect(Point::new(x0, y0), Point::new(x0 + w, y0 + h));
        let g = rasterize(&[rect], 32, 32, 1.0);
        let expected = w * h;
        // Vertical AA quantises to 1/4 sub-scanline: error <= w * 0.25 per
        // horizontal boundary.
        prop_assert!((g.sum() - expected).abs() <= 0.6 * w + 1e-9,
                     "raster {} vs exact {}", g.sum(), expected);
    }

    /// Coverage values are always within [0, 1].
    #[test]
    fn raster_coverage_bounded(seed in 0u64..200, n in 1usize..6) {
        let mut rng = SplitMix64::new(seed);
        let polys: Vec<Polygon> = (0..n)
            .map(|_| {
                let x = rng.range_f64(0.0, 24.0);
                let y = rng.range_f64(0.0, 24.0);
                Polygon::rect(
                    Point::new(x, y),
                    Point::new(x + rng.range_f64(1.0, 8.0), y + rng.range_f64(1.0, 8.0)),
                )
            })
            .collect();
        let g = rasterize(&polys, 32, 32, 1.0);
        for &v in g.data() {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        }
    }

    /// L2 metric properties: identity of indiscernibles and symmetry.
    #[test]
    fn l2_is_a_metric(seed in 0u64..200) {
        let mut rng = SplitMix64::new(seed);
        let mk = |rng: &mut SplitMix64| {
            let data: Vec<f64> = (0..64).map(|_| if rng.chance(0.5) { 1.0 } else { 0.0 }).collect();
            Grid::from_data(8, 8, 1.0, data)
        };
        let a = mk(&mut rng);
        let b = mk(&mut rng);
        prop_assert_eq!(l2_error(&a, &a), 0.0);
        prop_assert_eq!(l2_error(&a, &b), l2_error(&b, &a));
        prop_assert!(l2_error(&a, &b) >= 0.0);
    }

    /// PVB of nested prints equals outer minus inner area.
    #[test]
    fn pvb_nested_difference(inner_half in 1usize..6, growth in 1usize..4) {
        let outer_half = inner_half + growth;
        prop_assume!(outer_half < 16);
        let mut outer = Grid::zeros(32, 32, 1.0);
        let mut inner = Grid::zeros(32, 32, 1.0);
        for iy in 16 - outer_half..16 + outer_half {
            for ix in 16 - outer_half..16 + outer_half {
                outer[(ix, iy)] = 1.0;
            }
        }
        for iy in 16 - inner_half..16 + inner_half {
            for ix in 16 - inner_half..16 + inner_half {
                inner[(ix, iy)] = 1.0;
            }
        }
        let expected = (4 * outer_half * outer_half - 4 * inner_half * inner_half) as f64;
        prop_assert_eq!(pvb_area(&outer, &inner), expected);
    }

    /// PVB is symmetric in its arguments and monotone in the band width:
    /// widening either print of a nested pair can only grow the band.
    #[test]
    fn pvb_symmetric_and_monotone(inner_half in 1usize..6, g1 in 1usize..4, g2 in 1usize..4) {
        let mid_half = inner_half + g1;
        let outer_half = mid_half + g2;
        prop_assume!(outer_half < 16);
        let square = |half: usize| {
            let mut g = Grid::zeros(32, 32, 1.0);
            for iy in 16 - half..16 + half {
                for ix in 16 - half..16 + half {
                    g[(ix, iy)] = 1.0;
                }
            }
            g
        };
        let inner = square(inner_half);
        let mid = square(mid_half);
        let outer = square(outer_half);
        prop_assert_eq!(pvb_area(&outer, &inner), pvb_area(&inner, &outer));
        prop_assert!(pvb_area(&outer, &inner) >= pvb_area(&mid, &inner));
        prop_assert!(pvb_area(&outer, &inner) >= pvb_area(&outer, &mid));
    }

    /// The fused threshold-XOR count equals binarising both grids first and
    /// taking the 0.5-level XOR area — bit-for-bit, any thresholds.
    #[test]
    fn thresholded_xor_matches_binarized_pvb(seed in 0u64..200,
                                             ta in 0.2..0.8f64, tb in 0.2..0.8f64) {
        let mut rng = SplitMix64::new(seed);
        let mut mk = || {
            let data: Vec<f64> = (0..256).map(|_| rng.range_f64(0.0, 1.0)).collect();
            Grid::from_data(16, 16, 2.0, data)
        };
        let a = mk();
        let b = mk();
        let fused = thresholded_xor_area(&a, ta, &b, tb);
        let reference = pvb_area(&a.binarize(ta), &b.binarize(tb));
        prop_assert_eq!(fused, reference);
        // L2 against a binary target is the same fused count.
        prop_assert_eq!(thresholded_xor_area(&a, ta, &b.binarize(tb), 0.5),
                        l2_error(&a.binarize(ta), &b.binarize(tb)));
    }

    /// EPE sign convention on a linear aerial ramp: a printed edge lying
    /// outside the target edge measures positive (over-print), inside
    /// negative (under-print), with the exact offset recovered.
    #[test]
    fn epe_sign_convention_on_ramp(shift in 0.75..6.0f64) {
        // Intensity falls linearly with x; the 0.5-threshold print edge
        // sits at x = 16. Bilinear sampling and the crossing interpolation
        // are both exact on a linear field.
        let mut aerial = Grid::zeros(32, 32, 1.0);
        for iy in 0..32 {
            for ix in 0..32 {
                aerial[(ix, iy)] = 1.0 - (ix as f64 + 0.5) / 32.0;
            }
        }
        let site_at = |x: f64| MeasurePoint {
            position: Point::new(x, 16.0),
            normal: Point::new(1.0, 0.0),
        };
        // Target edge inside the print: printed edge is `shift` outward.
        let over = epe_at(&aerial, 0.5, &site_at(16.0 - shift), 20.0);
        prop_assert!((over - shift).abs() < 1e-6, "over-print EPE {} vs {}", over, shift);
        // Target edge outside the print: printed edge is `shift` inward.
        let under = epe_at(&aerial, 0.5, &site_at(16.0 + shift), 20.0);
        prop_assert!((under + shift).abs() < 1e-6, "under-print EPE {} vs {}", under, shift);
        // No crossing within range saturates at ±search_range.
        let saturated = epe_at(&aerial, 0.5, &site_at(16.0 - shift), shift * 0.5);
        prop_assert!((saturated - shift * 0.5).abs() < 1e-9);
    }
}
