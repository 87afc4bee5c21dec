//! Property-based tests for the lithography substrate.

use cardopc_geometry::{BBox, Grid, Point, Polygon, SplitMix64};
use cardopc_litho::fft::{fft_inplace, is_five_smooth, Complex, Field};
use cardopc_litho::{epe_at, rasterize, thresholded_xor_area, MeasurePoint};
use proptest::prelude::*;
use std::ops::Range;

/// Reference definition: squared L2 error between a printed binary image
/// and the binary target, the XOR pixel count scaled to nm² (for binary
/// images the sum of squared differences equals the XOR area).
fn l2_error(printed: &Grid, target: &Grid) -> f64 {
    assert_eq!(printed.width(), target.width(), "grid width mismatch");
    assert_eq!(printed.height(), target.height(), "grid height mismatch");
    let px = printed.pitch() * printed.pitch();
    let mut count = 0usize;
    for (&a, &b) in printed.data().iter().zip(target.data()) {
        if (a > 0.5) != (b > 0.5) {
            count += 1;
        }
    }
    count as f64 * px
}

/// Reference definition: process variation band area in nm², pixels
/// printed at the outer corner but not at the inner one (plus any inverse
/// discrepancies).
fn pvb_area(outer: &Grid, inner: &Grid) -> f64 {
    assert_eq!(outer.width(), inner.width(), "grid width mismatch");
    assert_eq!(outer.height(), inner.height(), "grid height mismatch");
    let px = outer.pitch() * outer.pitch();
    let mut count = 0usize;
    for (&a, &b) in outer.data().iter().zip(inner.data()) {
        if (a > 0.5) != (b > 0.5) {
            count += 1;
        }
    }
    count as f64 * px
}

/// A grid's own extent: the window whole-grid scoring passes.
fn extent(g: &Grid) -> BBox {
    let corner = Point::new(g.width() as f64, g.height() as f64) * g.pitch();
    BBox::new(Point::ZERO, corner)
}

/// The production XOR area of two binary grids over the whole grid.
fn xor_area(a: &Grid, b: &Grid) -> f64 {
    thresholded_xor_area(a, 0.5, b, 0.5, extent(a))
}

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
        prop_assert_eq!(xor_area(&a, &a), 0.0);
        prop_assert_eq!(xor_area(&a, &b), xor_area(&b, &a));
        prop_assert!(xor_area(&a, &b) >= 0.0);
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
        prop_assert_eq!(xor_area(&outer, &inner), expected);
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
        prop_assert_eq!(xor_area(&outer, &inner), xor_area(&inner, &outer));
        prop_assert!(xor_area(&outer, &inner) >= xor_area(&mid, &inner));
        prop_assert!(xor_area(&outer, &inner) >= xor_area(&outer, &mid));
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
        let fused = thresholded_xor_area(&a, ta, &b, tb, extent(&a));
        let reference = pvb_area(&a.binarize(ta), &b.binarize(tb));
        prop_assert_eq!(fused, reference);
        // L2 against a binary target is the same fused count.
        prop_assert_eq!(thresholded_xor_area(&a, ta, &b.binarize(tb), 0.5, extent(&a)),
                        l2_error(&a.binarize(ta), &b.binarize(tb)));
    }

    /// Over a grid's own extent the windowed count is the reference L2 and
    /// PV-band definitions on binary grids, bit for bit: every pixel
    /// centre lies in the window, whatever the size and pitch.
    #[test]
    fn whole_extent_window_is_the_reference_xor(seed in 0u64..1000, w in 1usize..40,
                                                h in 1usize..40, pitch in 0.3..40.0f64) {
        let mut rng = SplitMix64::new(seed);
        let density = rng.range_f64(0.0, 1.0);
        let mut mk = || {
            let data = (0..w * h).map(|_| if rng.chance(density) { 1.0 } else { 0.0 }).collect();
            Grid::from_data(w, h, pitch, data)
        };
        let (a, b) = (mk(), mk());
        prop_assert_eq!(xor_area(&a, &b).to_bits(), l2_error(&a, &b).to_bits());
        prop_assert_eq!(xor_area(&b, &a).to_bits(), pvb_area(&b, &a).to_bits());
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
