//! Cached FFT execution plans: a mixed-radix Stockham autosort pipeline.
//!
//! Every transform size used by the engine gets one [`FftPlan`], built once
//! and shared process-wide through a registry behind a `OnceLock`. Plans
//! execute on *split-complex* data (separate `re[]`/`im[]` slices — see
//! [`crate::Field`]) so every butterfly and twiddle loop runs over packed
//! lanes with no interleave shuffles.
//!
//! Plans are generic over the [`Scalar`] element type: one registry entry
//! per `(precision, size)` pair, so the `f32` backend gets its own narrowed
//! twiddle tables without touching the `f64` reference plans. All twiddles
//! are *computed* in `f64` and narrowed through [`Scalar::from_f64`] — for
//! `T = f64` the tables (and the executed arithmetic) are bit-identical to
//! the pre-generic implementation.
//!
//! Lengths must be 5-smooth (`2^a·3^b·5^c`): the engine sizes every grid
//! with [`crate::fft::next_five_smooth`], and padding beats any algorithm
//! for other lengths (a 500² transform is ≈ 4× faster than a 499² one
//! through a chirp-z convolution). The pipeline is a decimation-in-frequency
//! **Stockham autosort**: radix-4 stages are peeled greedily, then one
//! radix-2, then radix-3/5 — so the large-stride stages that dominate
//! runtime are radix-4 and the inner `q` loops are contiguous and
//! autovectorize. Stockham ping-pongs between the data and a scratch buffer
//! instead of performing a bit-reversal permutation, which is what makes
//! the split layout pay: no index shuffling, just streaming passes.
//!
//! Twiddles are precomputed per stage at plan build (`exp(∓2πi·pj/n_cur)`
//! with the inverse table stored as the conjugate), replacing the seed's
//! per-call `sin_cos` recurrence that accumulated rounding error along each
//! stage.

use crate::fft::FftScratch;
use crate::scalar::Scalar;
use crate::simd::{self, SimdMode};
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// One Stockham stage: combines `m` sub-DFTs of the current length into
/// `m/radix` longer ones, with `s` interleaved transforms at this depth.
#[derive(Clone, Copy, Debug)]
struct Stage {
    radix: u8,
    /// `n_cur / radix` where `n_cur` is the sub-transform length entering
    /// this stage (`n_cur · s == n` throughout).
    m: usize,
    /// Stride: the product of all earlier stages' radices.
    s: usize,
    /// Offset of this stage's `(radix−1)·m` twiddles in the shared tables.
    tw_off: usize,
}

/// Stockham pipeline for a 5-smooth length.
#[derive(Debug)]
struct Stages<T: Scalar> {
    stages: Vec<Stage>,
    /// Twiddle real parts (shared by both directions).
    tw_re: Vec<T>,
    /// Forward twiddle imaginary parts (`exp(−2πi·pj/n_cur)`).
    tw_im_fwd: Vec<T>,
    /// Inverse twiddle imaginary parts (conjugates).
    tw_im_inv: Vec<T>,
    /// The radix-5 butterfly's constants, narrowed once per plan.
    r5: Radix5<T>,
}

/// `cos`/`sin` of 2π/5 and 4π/5, the constants of the radix-5 butterfly.
#[derive(Clone, Copy, Debug)]
struct Radix5<T> {
    c1: T,
    s1: T,
    c2: T,
    s2: T,
}

impl<T: Scalar> Radix5<T> {
    fn new() -> Radix5<T> {
        let (s1, c1) = (std::f64::consts::TAU / 5.0).sin_cos();
        let (s2, c2) = (2.0 * std::f64::consts::TAU / 5.0).sin_cos();
        Radix5 {
            c1: T::from_f64(c1),
            s1: T::from_f64(s1),
            c2: T::from_f64(c2),
            s2: T::from_f64(s2),
        }
    }
}

impl<T: Scalar> Stages<T> {
    fn build(n: usize) -> Stages<T> {
        debug_assert!(crate::fft::is_five_smooth(n));
        let mut stages = Vec::new();
        let mut tw_re = Vec::new();
        let mut tw_im_fwd: Vec<T> = Vec::new();
        let mut n_cur = n;
        let mut s = 1usize;
        while n_cur > 1 {
            let radix = if n_cur.is_multiple_of(4) {
                4
            } else if n_cur.is_multiple_of(2) {
                2
            } else if n_cur.is_multiple_of(3) {
                3
            } else {
                5
            };
            let m = n_cur / radix;
            let tw_off = tw_re.len();
            for j in 1..radix {
                for p in 0..m {
                    let ang = -std::f64::consts::TAU * (p * j) as f64 / n_cur as f64;
                    let (si, co) = ang.sin_cos();
                    tw_re.push(T::from_f64(co));
                    tw_im_fwd.push(T::from_f64(si));
                }
            }
            stages.push(Stage {
                radix: radix as u8,
                m,
                s,
                tw_off,
            });
            n_cur = m;
            s *= radix;
        }
        let tw_im_inv = tw_im_fwd.iter().map(|&v| -v).collect();
        Stages {
            stages,
            tw_re,
            tw_im_fwd,
            tw_im_inv,
            r5: Radix5::new(),
        }
    }

    /// Runs the full pipeline; the result always ends in `(re, im)`
    /// (`(pr, pi)` is the ping-pong partner, clobbered).
    fn run(
        &self,
        mode: SimdMode,
        inverse: bool,
        re: &mut [T],
        im: &mut [T],
        pr: &mut [T],
        pi: &mut [T],
    ) {
        let tw_im = if inverse {
            &self.tw_im_inv
        } else {
            &self.tw_im_fwd
        };
        match (mode, inverse) {
            // SAFETY: `SimdMode::Avx2` is only produced after runtime
            // AVX2+FMA detection (crate::simd::active_mode / force_mode).
            #[cfg(target_arch = "x86_64")]
            (SimdMode::Avx2, true) => unsafe {
                stages_avx2::<false, T>(self, tw_im, re, im, pr, pi)
            },
            #[cfg(target_arch = "x86_64")]
            (SimdMode::Avx2, false) => unsafe {
                stages_avx2::<true, T>(self, tw_im, re, im, pr, pi)
            },
            (_, true) => stages_body::<false, T>(self, tw_im, re, im, pr, pi),
            (_, false) => stages_body::<true, T>(self, tw_im, re, im, pr, pi),
        }
    }
}

/// The whole pipeline compiled with AVX2+FMA enabled, at either precision.
/// The body is the same as the plain instantiation — Rust never contracts
/// `a*b+c` into an FMA, so both instantiations are **bitwise identical**;
/// this one just lets the autovectorizer use 256-bit lanes (4 `f64` or 8
/// `f32` per op).
///
/// # Safety
/// Caller must have verified AVX2+FMA support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn stages_avx2<const FWD: bool, T: Scalar>(
    plan: &Stages<T>,
    tw_im: &[T],
    re: &mut [T],
    im: &mut [T],
    pr: &mut [T],
    pi: &mut [T],
) {
    stages_body::<FWD, T>(plan, tw_im, re, im, pr, pi);
}

#[inline(always)]
fn stages_body<const FWD: bool, T: Scalar>(
    plan: &Stages<T>,
    tw_im: &[T],
    re: &mut [T],
    im: &mut [T],
    pr: &mut [T],
    pi: &mut [T],
) {
    let mut in_data = true;
    for st in &plan.stages {
        let tw_len = (st.radix as usize - 1) * st.m;
        let twr = &plan.tw_re[st.tw_off..st.tw_off + tw_len];
        let twi = &tw_im[st.tw_off..st.tw_off + tw_len];
        if in_data {
            stage_any::<FWD, T>(st, &plan.r5, twr, twi, re, im, pr, pi);
        } else {
            stage_any::<FWD, T>(st, &plan.r5, twr, twi, pr, pi, re, im);
        }
        in_data = !in_data;
    }
    if !in_data {
        re.copy_from_slice(pr);
        im.copy_from_slice(pi);
    }
}

/// Dispatches one stage to its kernel. Stride 4 is the second stage of
/// every length divisible by 4, and a 4-long dynamic `q` loop is too short
/// for LLVM's vector loop, which steps several registers of lanes at a
/// time. A compile-time width `S = 4` is taken wherever it measured
/// faster: every radix at `f32`, radix-5 at `f64`. At `f64` the
/// const-width radix-3/4 bodies vectorise across `p` through 4×4
/// transposes and measured no faster (radix-4 3 % slower at 768), so they
/// stay dynamic there.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stage_any<const FWD: bool, T: Scalar>(
    st: &Stage,
    r5: &Radix5<T>,
    twr: &[T],
    twi: &[T],
    xr: &mut [T],
    xi: &mut [T],
    yr: &mut [T],
    yi: &mut [T],
) {
    let (xr, xi) = (&*xr, &*xi);
    let (m, s) = (st.m, st.s);
    let narrow = std::mem::size_of::<T>() == 4;
    match (st.radix, s) {
        (2, _) => stage2_generic(m, s, twr, twi, xr, xi, yr, yi),
        (3, 4) if narrow => stage3_generic::<FWD, 4, T>(m, s, twr, twi, xr, xi, yr, yi),
        (3, _) => stage3_generic::<FWD, 0, T>(m, s, twr, twi, xr, xi, yr, yi),
        (4, 4) if narrow => stage4_generic::<FWD, 4, T>(m, s, twr, twi, xr, xi, yr, yi),
        (4, _) => stage4_generic::<FWD, 0, T>(m, s, twr, twi, xr, xi, yr, yi),
        (_, 4) => stage5_generic::<FWD, 4, T>(m, s, r5, twr, twi, xr, xi, yr, yi),
        _ => stage5_generic::<FWD, 0, T>(m, s, r5, twr, twi, xr, xi, yr, yi),
    }
}

/// The `q`-loop width of a stage kernel: the const `S` when the dispatch
/// fixed it at compile time, else the runtime stride `s` (`S == 0`).
#[inline(always)]
fn width<const S: usize>(s: usize) -> usize {
    debug_assert!(S == 0 || S == s, "const width {S} dispatched at stride {s}");
    if S == 0 {
        s
    } else {
        S
    }
}

// Stage kernels. Input layout `x[q + s·(p + j·m)]`, output
// `y[q + s·(radix·p + j)]`, twiddle `w_j[p] = tw[(j−1)·m + p]` applied to
// output `j` (the radix-2 case needs no direction flag: its butterfly is
// real-coefficient, and direction lives entirely in the twiddle table).
// The inner `q` loops run over exactly-`s` sub-slices so bounds checks hoist
// and the loops autovectorize. Vectorisation rules: everything invariant in
// `q` (twiddles, butterfly constants) is loaded before the `q` loop, and a
// kernel with a `const S` width parameter compiles its `q` loop at that
// width when `S != 0`.

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stage2_generic<T: Scalar>(
    m: usize,
    s: usize,
    twr: &[T],
    twi: &[T],
    xr: &[T],
    xi: &[T],
    yr: &mut [T],
    yi: &mut [T],
) {
    if s == 1 {
        for p in 0..m {
            let (wr, wi) = (twr[p], twi[p]);
            let (ar, ai) = (xr[p], xi[p]);
            let (br, bi) = (xr[p + m], xi[p + m]);
            yr[2 * p] = ar + br;
            yi[2 * p] = ai + bi;
            let (ur, ui) = (ar - br, ai - bi);
            yr[2 * p + 1] = ur * wr - ui * wi;
            yi[2 * p + 1] = ur * wi + ui * wr;
        }
    } else {
        for p in 0..m {
            let (wr, wi) = (twr[p], twi[p]);
            let x0r = &xr[s * p..s * p + s];
            let x0i = &xi[s * p..s * p + s];
            let x1r = &xr[s * (p + m)..s * (p + m) + s];
            let x1i = &xi[s * (p + m)..s * (p + m) + s];
            let (y0r, y1r) = yr[2 * s * p..2 * s * p + 2 * s].split_at_mut(s);
            let (y0i, y1i) = yi[2 * s * p..2 * s * p + 2 * s].split_at_mut(s);
            for q in 0..s {
                let (ar, ai) = (x0r[q], x0i[q]);
                let (br, bi) = (x1r[q], x1i[q]);
                y0r[q] = ar + br;
                y0i[q] = ai + bi;
                let (ur, ui) = (ar - br, ai - bi);
                y1r[q] = ur * wr - ui * wi;
                y1i[q] = ur * wi + ui * wr;
            }
        }
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stage4_generic<const FWD: bool, const S: usize, T: Scalar>(
    m: usize,
    s: usize,
    twr: &[T],
    twi: &[T],
    xr: &[T],
    xi: &[T],
    yr: &mut [T],
    yi: &mut [T],
) {
    // Forward butterfly: b0 = t0+t2, b1 = t1 − i·u, b2 = t0−t2,
    // b3 = t1 + i·u with t0 = a0+a2, t1 = a0−a2, t2 = a1+a3, u = a1−a3;
    // inverse swaps b1/b3. Each b_j is then rotated by w_j.
    macro_rules! butterfly {
        ($a0r:expr, $a0i:expr, $a1r:expr, $a1i:expr, $a2r:expr, $a2i:expr,
         $a3r:expr, $a3i:expr) => {{
            let (t0r, t0i) = ($a0r + $a2r, $a0i + $a2i);
            let (t1r, t1i) = ($a0r - $a2r, $a0i - $a2i);
            let (t2r, t2i) = ($a1r + $a3r, $a1i + $a3i);
            let (ur, ui) = ($a1r - $a3r, $a1i - $a3i);
            let (b1r, b1i, b3r, b3i) = if FWD {
                (t1r + ui, t1i - ur, t1r - ui, t1i + ur)
            } else {
                (t1r - ui, t1i + ur, t1r + ui, t1i - ur)
            };
            (
                t0r + t2r,
                t0i + t2i,
                b1r,
                b1i,
                t0r - t2r,
                t0i - t2i,
                b3r,
                b3i,
            )
        }};
    }
    let s = width::<S>(s);
    if s == 1 {
        for p in 0..m {
            let (w1r, w1i) = (twr[p], twi[p]);
            let (w2r, w2i) = (twr[m + p], twi[m + p]);
            let (w3r, w3i) = (twr[2 * m + p], twi[2 * m + p]);
            let (b0r, b0i, b1r, b1i, b2r, b2i, b3r, b3i) = butterfly!(
                xr[p],
                xi[p],
                xr[p + m],
                xi[p + m],
                xr[p + 2 * m],
                xi[p + 2 * m],
                xr[p + 3 * m],
                xi[p + 3 * m]
            );
            yr[4 * p] = b0r;
            yi[4 * p] = b0i;
            yr[4 * p + 1] = b1r * w1r - b1i * w1i;
            yi[4 * p + 1] = b1r * w1i + b1i * w1r;
            yr[4 * p + 2] = b2r * w2r - b2i * w2i;
            yi[4 * p + 2] = b2r * w2i + b2i * w2r;
            yr[4 * p + 3] = b3r * w3r - b3i * w3i;
            yi[4 * p + 3] = b3r * w3i + b3i * w3r;
        }
    } else {
        for p in 0..m {
            let (w1r, w1i) = (twr[p], twi[p]);
            let (w2r, w2i) = (twr[m + p], twi[m + p]);
            let (w3r, w3i) = (twr[2 * m + p], twi[2 * m + p]);
            let x0r = &xr[s * p..s * p + s];
            let x0i = &xi[s * p..s * p + s];
            let x1r = &xr[s * (p + m)..s * (p + m) + s];
            let x1i = &xi[s * (p + m)..s * (p + m) + s];
            let x2r = &xr[s * (p + 2 * m)..s * (p + 2 * m) + s];
            let x2i = &xi[s * (p + 2 * m)..s * (p + 2 * m) + s];
            let x3r = &xr[s * (p + 3 * m)..s * (p + 3 * m) + s];
            let x3i = &xi[s * (p + 3 * m)..s * (p + 3 * m) + s];
            let (y0r, rest) = yr[4 * s * p..4 * s * p + 4 * s].split_at_mut(s);
            let (y1r, rest) = rest.split_at_mut(s);
            let (y2r, y3r) = rest.split_at_mut(s);
            let (y0i, rest) = yi[4 * s * p..4 * s * p + 4 * s].split_at_mut(s);
            let (y1i, rest) = rest.split_at_mut(s);
            let (y2i, y3i) = rest.split_at_mut(s);
            for q in 0..s {
                let (b0r, b0i, b1r, b1i, b2r, b2i, b3r, b3i) =
                    butterfly!(x0r[q], x0i[q], x1r[q], x1i[q], x2r[q], x2i[q], x3r[q], x3i[q]);
                y0r[q] = b0r;
                y0i[q] = b0i;
                y1r[q] = b1r * w1r - b1i * w1i;
                y1i[q] = b1r * w1i + b1i * w1r;
                y2r[q] = b2r * w2r - b2i * w2i;
                y2i[q] = b2r * w2i + b2i * w2r;
                y3r[q] = b3r * w3r - b3i * w3i;
                y3i[q] = b3r * w3i + b3i * w3r;
            }
        }
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stage3_generic<const FWD: bool, const S: usize, T: Scalar>(
    m: usize,
    s: usize,
    twr: &[T],
    twi: &[T],
    xr: &[T],
    xi: &[T],
    yr: &mut [T],
    yi: &mut [T],
) {
    // X1 = m0 − i·h·u, X2 = m0 + i·h·u (forward) with t = a1+a2,
    // u = a1−a2, m0 = a0 − t/2, h = √3/2; inverse swaps X1/X2.
    let h = T::from_f64(0.5 * 3.0f64.sqrt());
    let s = width::<S>(s);
    for p in 0..m {
        let (w1r, w1i) = (twr[p], twi[p]);
        let (w2r, w2i) = (twr[m + p], twi[m + p]);
        let x0r = &xr[s * p..s * p + s];
        let x0i = &xi[s * p..s * p + s];
        let x1r = &xr[s * (p + m)..s * (p + m) + s];
        let x1i = &xi[s * (p + m)..s * (p + m) + s];
        let x2r = &xr[s * (p + 2 * m)..s * (p + 2 * m) + s];
        let x2i = &xi[s * (p + 2 * m)..s * (p + 2 * m) + s];
        let (y0r, rest) = yr[3 * s * p..3 * s * p + 3 * s].split_at_mut(s);
        let (y1r, y2r) = rest.split_at_mut(s);
        let (y0i, rest) = yi[3 * s * p..3 * s * p + 3 * s].split_at_mut(s);
        let (y1i, y2i) = rest.split_at_mut(s);
        for q in 0..s {
            let (a0r, a0i) = (x0r[q], x0i[q]);
            let (a1r, a1i) = (x1r[q], x1i[q]);
            let (a2r, a2i) = (x2r[q], x2i[q]);
            let (tr, ti) = (a1r + a2r, a1i + a2i);
            let (ur, ui) = (a1r - a2r, a1i - a2i);
            y0r[q] = a0r + tr;
            y0i[q] = a0i + ti;
            let (m0r, m0i) = (a0r - T::HALF * tr, a0i - T::HALF * ti);
            let (b1r, b1i, b2r, b2i) = if FWD {
                (m0r + h * ui, m0i - h * ur, m0r - h * ui, m0i + h * ur)
            } else {
                (m0r - h * ui, m0i + h * ur, m0r + h * ui, m0i - h * ur)
            };
            y1r[q] = b1r * w1r - b1i * w1i;
            y1i[q] = b1r * w1i + b1i * w1r;
            y2r[q] = b2r * w2r - b2i * w2i;
            y2i[q] = b2r * w2i + b2i * w2r;
        }
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stage5_generic<const FWD: bool, const S: usize, T: Scalar>(
    m: usize,
    s: usize,
    r5: &Radix5<T>,
    twr: &[T],
    twi: &[T],
    xr: &[T],
    xi: &[T],
    yr: &mut [T],
    yi: &mut [T],
) {
    // Winograd-style radix-5: with t1 = a1+a4, t2 = a2+a3, t3 = a1−a4,
    // t4 = a2−a3, m1 = a0 + c1·t1 + c2·t2, m2 = a0 + c2·t1 + c1·t2,
    // m3 = −i(s1·t3 + s2·t4), m4 = −i(s2·t3 − s1·t4):
    // X1 = m1+m3, X2 = m2+m4, X3 = m2−m4, X4 = m1−m3 (signs of m3/m4 flip
    // for the inverse).
    let Radix5 { c1, s1, c2, s2 } = *r5;
    let sg = if FWD { T::ONE } else { -T::ONE };
    let s = width::<S>(s);
    for p in 0..m {
        let (w1r, w1i) = (twr[p], twi[p]);
        let (w2r, w2i) = (twr[m + p], twi[m + p]);
        let (w3r, w3i) = (twr[2 * m + p], twi[2 * m + p]);
        let (w4r, w4i) = (twr[3 * m + p], twi[3 * m + p]);
        let base = |j: usize| s * (p + j * m);
        let x0r = &xr[base(0)..base(0) + s];
        let x0i = &xi[base(0)..base(0) + s];
        let x1r = &xr[base(1)..base(1) + s];
        let x1i = &xi[base(1)..base(1) + s];
        let x2r = &xr[base(2)..base(2) + s];
        let x2i = &xi[base(2)..base(2) + s];
        let x3r = &xr[base(3)..base(3) + s];
        let x3i = &xi[base(3)..base(3) + s];
        let x4r = &xr[base(4)..base(4) + s];
        let x4i = &xi[base(4)..base(4) + s];
        let (y0r, rest) = yr[5 * s * p..5 * s * p + 5 * s].split_at_mut(s);
        let (y1r, rest) = rest.split_at_mut(s);
        let (y2r, rest) = rest.split_at_mut(s);
        let (y3r, y4r) = rest.split_at_mut(s);
        let (y0i, rest) = yi[5 * s * p..5 * s * p + 5 * s].split_at_mut(s);
        let (y1i, rest) = rest.split_at_mut(s);
        let (y2i, rest) = rest.split_at_mut(s);
        let (y3i, y4i) = rest.split_at_mut(s);
        for q in 0..s {
            let (a0r, a0i) = (x0r[q], x0i[q]);
            let (t1r, t1i) = (x1r[q] + x4r[q], x1i[q] + x4i[q]);
            let (t2r, t2i) = (x2r[q] + x3r[q], x2i[q] + x3i[q]);
            let (t3r, t3i) = (x1r[q] - x4r[q], x1i[q] - x4i[q]);
            let (t4r, t4i) = (x2r[q] - x3r[q], x2i[q] - x3i[q]);
            y0r[q] = a0r + t1r + t2r;
            y0i[q] = a0i + t1i + t2i;
            let (m1r, m1i) = (a0r + c1 * t1r + c2 * t2r, a0i + c1 * t1i + c2 * t2i);
            let (m2r, m2i) = (a0r + c2 * t1r + c1 * t2r, a0i + c2 * t1i + c1 * t2i);
            // v1 = s1·t3 + s2·t4, v2 = s2·t3 − s1·t4; m3 = ∓i·v1, m4 = ∓i·v2.
            let (v1r, v1i) = (s1 * t3r + s2 * t4r, s1 * t3i + s2 * t4i);
            let (v2r, v2i) = (s2 * t3r - s1 * t4r, s2 * t3i - s1 * t4i);
            let (m3r, m3i) = (sg * v1i, -sg * v1r);
            let (m4r, m4i) = (sg * v2i, -sg * v2r);
            let (b1r, b1i) = (m1r + m3r, m1i + m3i);
            let (b2r, b2i) = (m2r + m4r, m2i + m4i);
            let (b3r, b3i) = (m2r - m4r, m2i - m4i);
            let (b4r, b4i) = (m1r - m3r, m1i - m3i);
            y1r[q] = b1r * w1r - b1i * w1i;
            y1i[q] = b1r * w1i + b1i * w1r;
            y2r[q] = b2r * w2r - b2i * w2i;
            y2i[q] = b2r * w2i + b2i * w2r;
            y3r[q] = b3r * w3r - b3i * w3i;
            y3i[q] = b3r * w3i + b3i * w3r;
            y4r[q] = b4r * w4r - b4i * w4i;
            y4i[q] = b4r * w4i + b4i * w4r;
        }
    }
}

/// A reusable execution plan for one 5-smooth transform size at one
/// [`Scalar`] precision (defaulting to the `f64` reference).
#[derive(Debug)]
pub struct FftPlan<T: Scalar = f64> {
    n: usize,
    stages: Stages<T>,
}

impl<T: Scalar> FftPlan<T> {
    /// Transform size this plan executes.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: 0 is not 5-smooth, so no size-0 plan exists.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Fetches (building on first use) the shared plan for size `n` at this
    /// precision. `f64` and `f32` plans are distinct registry entries —
    /// each precision carries its own narrowed twiddle tables.
    ///
    /// # Panics
    ///
    /// Panics when `n` is not 5-smooth (`0` included): grids are sized with
    /// [`crate::fft::next_five_smooth`].
    pub fn get(n: usize) -> Arc<FftPlan<T>> {
        assert!(
            crate::fft::is_five_smooth(n),
            "FFT length {n} is not 5-smooth; pad it to next_five_smooth({n}) = {}",
            crate::fft::next_five_smooth(n)
        );
        // One registry for both precisions, keyed by the scalar's TypeId;
        // entries are type-erased and downcast on the way out (infallible
        // by construction of the key).
        type Registry = RwLock<HashMap<(TypeId, usize), Arc<dyn Any + Send + Sync>>>;
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        let registry = REGISTRY.get_or_init(|| RwLock::new(HashMap::new()));
        let key = (TypeId::of::<T>(), n);
        let downcast = |plan: &Arc<dyn Any + Send + Sync>| match Arc::clone(plan).downcast() {
            Ok(p) => p,
            Err(_) => unreachable!("registry entry matches its TypeId key"),
        };
        // A poisoned registry only means some unrelated thread panicked
        // while inserting; the map itself is still consistent.
        if let Some(plan) = registry.read().unwrap_or_else(|e| e.into_inner()).get(&key) {
            return downcast(plan);
        }
        let mut map = registry.write().unwrap_or_else(|e| e.into_inner());
        downcast(map.entry(key).or_insert_with(|| {
            Arc::new(FftPlan::<T> {
                n,
                stages: Stages::build(n),
            })
        }))
    }

    /// Executes the transform on split-complex data without the inverse
    /// `1/n` normalisation, using the process-wide dispatch mode.
    ///
    /// The 2-D paths fold both axes' normalisations into a single pass (or
    /// into the SOCS accumulation weight) instead of re-scaling the whole
    /// field after every 1-D transform.
    ///
    /// # Panics
    ///
    /// Panics when `re`/`im` lengths differ from the plan size.
    #[inline]
    pub fn execute_unscaled_split(
        &self,
        re: &mut [T],
        im: &mut [T],
        scratch: &mut FftScratch<T>,
        inverse: bool,
    ) {
        let FftScratch {
            pong_re, pong_im, ..
        } = scratch;
        self.execute_split_parts(simd::active_mode(), re, im, pong_re, pong_im, inverse);
    }

    /// Split execution with the ping-pong lanes passed individually, so 2-D
    /// drivers holding other parts of an [`FftScratch`] (transpose/gather
    /// lanes) can run row and column transforms without borrow conflicts.
    ///
    /// # Panics
    ///
    /// Panics when `re`/`im` lengths differ from the plan size.
    #[inline]
    pub(crate) fn execute_split_parts(
        &self,
        mode: SimdMode,
        re: &mut [T],
        im: &mut [T],
        pong_re: &mut Vec<T>,
        pong_im: &mut Vec<T>,
        inverse: bool,
    ) {
        assert_eq!(re.len(), self.n, "re length does not match plan size");
        assert_eq!(im.len(), self.n, "im length does not match plan size");
        if self.n <= 1 {
            return;
        }
        if pong_re.len() < self.n {
            pong_re.resize(self.n, T::ZERO);
        }
        if pong_im.len() < self.n {
            pong_im.resize(self.n, T::ZERO);
        }
        self.stages.run(
            mode,
            inverse,
            re,
            im,
            &mut pong_re[..self.n],
            &mut pong_im[..self.n],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{fft_inplace, Complex};
    use cardopc_geometry::SplitMix64;

    fn random_signal(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| Complex::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)))
            .collect()
    }

    /// Naive O(n²) DFT used as the ground truth.
    fn dft(input: &[Complex], inverse: bool) -> Vec<Complex> {
        let n = input.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut out = vec![Complex::ZERO; n];
        for (k, o) in out.iter_mut().enumerate() {
            for (j, &x) in input.iter().enumerate() {
                let ang = sign * std::f64::consts::TAU * (k * j) as f64 / n as f64;
                *o += x * Complex::from_angle(ang);
            }
        }
        if inverse {
            for o in out.iter_mut() {
                *o = o.scale(1.0 / n as f64);
            }
        }
        out
    }

    fn check_against_dft(n: usize) {
        let input = random_signal(n, n as u64 + 7);
        for inverse in [false, true] {
            let expected = dft(&input, inverse);
            let mut got = input.clone();
            fft_inplace(&mut got, inverse);
            let scale = (n as f64).max(1.0);
            for (a, b) in got.iter().zip(&expected) {
                assert!(
                    (*a - *b).norm() < 1e-9 * scale,
                    "size {n} inverse {inverse}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn plan_matches_naive_dft_for_all_small_sizes() {
        // Every 5-smooth length up to 36 — exercises all radix butterflies
        // and every greedy factoring order.
        for n in (1..=36).filter(|&n| crate::fft::is_five_smooth(n)) {
            check_against_dft(n);
        }
    }

    #[test]
    fn plan_matches_naive_dft_for_structured_sizes() {
        // Pure powers of each radix and mixed 5-smooth composites.
        for n in [64, 81, 125, 120, 135, 192, 243, 320, 360, 500, 512] {
            check_against_dft(n);
        }
    }

    #[test]
    fn f32_plan_matches_f64_reference_within_tolerance() {
        // Pow2, mixed and odd sizes through the f32 plan, with the f64 plan
        // of the same size as the reference.
        for n in [16usize, 60, 75, 125] {
            let mut rng = SplitMix64::new(n as u64 + 3);
            let re64: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let im64: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let mut re32: Vec<f32> = re64.iter().map(|&v| v as f32).collect();
            let mut im32: Vec<f32> = im64.iter().map(|&v| v as f32).collect();
            let (mut re, mut im) = (re64.clone(), im64.clone());
            let mut s64 = FftScratch::new();
            FftPlan::<f64>::get(n).execute_unscaled_split(&mut re, &mut im, &mut s64, false);
            let mut s32 = FftScratch::new();
            FftPlan::<f32>::get(n).execute_unscaled_split(&mut re32, &mut im32, &mut s32, false);
            let tol = 1e-4 * n as f64;
            for k in 0..n {
                assert!(
                    (f64::from(re32[k]) - re[k]).abs() < tol
                        && (f64::from(im32[k]) - im[k]).abs() < tol,
                    "n {n} sample {k}: ({}, {}) vs ({}, {})",
                    re32[k],
                    im32[k],
                    re[k],
                    im[k]
                );
            }
        }
    }

    #[test]
    fn split_path_matches_interleaved_path_bitwise() {
        for n in [16usize, 15, 45] {
            let input = random_signal(n, n as u64);
            let mut interleaved = input.clone();
            fft_inplace(&mut interleaved, false);
            let mut re: Vec<f64> = input.iter().map(|z| z.re).collect();
            let mut im: Vec<f64> = input.iter().map(|z| z.im).collect();
            let mut scratch = FftScratch::new();
            FftPlan::<f64>::get(n).execute_unscaled_split(&mut re, &mut im, &mut scratch, false);
            for (k, z) in interleaved.iter().enumerate() {
                assert_eq!(z.re, re[k], "n {n} sample {k}");
                assert_eq!(z.im, im[k], "n {n} sample {k}");
            }
        }
    }

    #[test]
    fn unscaled_inverse_differs_by_n() {
        for n in [8usize, 12, 15] {
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new(i as f64, -(i as f64)))
                .collect();
            let mut scaled = input.clone();
            fft_inplace(&mut scaled, true);
            let mut re: Vec<f64> = input.iter().map(|z| z.re).collect();
            let mut im: Vec<f64> = input.iter().map(|z| z.im).collect();
            let mut scratch = FftScratch::new();
            FftPlan::<f64>::get(n).execute_unscaled_split(&mut re, &mut im, &mut scratch, true);
            for (s, (r, i)) in scaled.iter().zip(re.into_iter().zip(im)) {
                assert!((Complex::new(r, i).scale(1.0 / n as f64) - *s).norm() < 1e-12);
            }
        }
    }

    #[test]
    fn registry_returns_shared_plans_per_precision() {
        let a = FftPlan::<f64>::get(64);
        let b = FftPlan::<f64>::get(64);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 64);
        assert!(!a.is_empty());
        // The f32 registry entry for the same size is its own plan (and is
        // likewise shared across fetches).
        let c = FftPlan::<f32>::get(64);
        let d = FftPlan::<f32>::get(64);
        assert!(Arc::ptr_eq(&c, &d));
        assert_eq!(c.len(), 64);
    }

    #[test]
    fn zero_length_plan_rejected() {
        assert!(std::panic::catch_unwind(|| FftPlan::<f64>::get(0)).is_err());
    }

    #[test]
    fn non_five_smooth_length_rejected() {
        let message = std::panic::catch_unwind(|| FftPlan::<f32>::get(13))
            .expect_err("13 is not 5-smooth")
            .downcast::<String>()
            .expect("formatted panic message");
        assert!(message.contains("next_five_smooth(13) = 15"), "{message}");
    }
}
