//! Runtime SIMD dispatch and the split-complex (structure-of-arrays) hot
//! kernels shared by the FFT stages and the SOCS convolution loop.
//!
//! Every hot loop in the imaging chain — butterflies, twiddle application,
//! frequency-domain products, and the `w·|z|²` reduction — operates on
//! *split-complex* data: separate `re[]`/`im[]` slices instead of
//! interleaved complex pairs. That layout removes every shuffle from the
//! vector code path: a complex multiply is two FMAs and two multiplies over
//! packed lanes.
//!
//! The kernels are generic over [`Scalar`] (`f64` and `f32`), and two
//! implementations of each exist:
//!
//! * a **scalar** reference written as fixed-width chunked loops (these
//!   autovectorize to baseline SSE2 on stable Rust, without FMA contraction,
//!   so results are bit-reproducible across machines), and
//! * an **AVX2/FMA** variant behind `std::arch` runtime detection, using
//!   fused multiply-adds — 4 lanes wide for `f64` (`_mm256_*_pd`), 8 lanes
//!   wide for `f32` (`_mm256_*_ps`). Faster, and within one FMA rounding of
//!   the scalar path per operation — consumer paths are guarded by
//!   equivalence tests at each precision's tolerance.
//!
//! Dispatch is resolved once per process from, in priority order: the
//! `scalar-only` compile feature, the `CARDOPC_SIMD` environment variable
//! (`off`/`0`/`scalar` forces the scalar path; anything else auto-detects),
//! and CPUID. [`force_mode`] overrides the cached decision for equivalence
//! tests and benchmarks. The per-type kernel selection rides on the same
//! dispatch: [`SimdMode::Avx2`] reaches the `_pd` or `_ps` variant through
//! the [`Scalar`] hook of the element type in play.

use crate::scalar::Scalar;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which kernel implementation the process is executing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdMode {
    /// Portable chunked loops (no FMA contraction; bit-reproducible).
    Scalar,
    /// `std::arch` AVX2 + FMA kernels (x86-64 only, runtime-detected).
    Avx2,
}

/// `true` when the running CPU supports the AVX2/FMA kernels (and they were
/// not compiled out via the `scalar-only` feature).
pub fn avx2_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(all(target_arch = "x86_64", not(feature = "scalar-only"))))]
    {
        false
    }
}

fn detect() -> SimdMode {
    if cfg!(feature = "scalar-only") {
        return SimdMode::Scalar;
    }
    if let Ok(v) = std::env::var("CARDOPC_SIMD") {
        let v = v.to_ascii_lowercase();
        if v == "off" || v == "0" || v == "scalar" {
            return SimdMode::Scalar;
        }
    }
    if avx2_available() {
        SimdMode::Avx2
    } else {
        SimdMode::Scalar
    }
}

/// 0 = no override, 1 = forced scalar, 2 = forced AVX2.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The dispatch mode all library entry points use.
///
/// Cached after the first call; [`force_mode`] takes precedence (tests).
pub fn active_mode() -> SimdMode {
    match FORCED.load(Ordering::Relaxed) {
        1 => SimdMode::Scalar,
        2 if avx2_available() => SimdMode::Avx2,
        2 => SimdMode::Scalar,
        _ => {
            static DETECTED: OnceLock<SimdMode> = OnceLock::new();
            *DETECTED.get_or_init(detect)
        }
    }
}

/// Overrides the process-wide dispatch mode (`None` restores env/CPUID
/// resolution).
///
/// Intended for equivalence tests and benchmarks that compare both paths in
/// one process; such tests must serialise themselves (the override is
/// global). Forcing [`SimdMode::Avx2`] on a machine without AVX2/FMA (or
/// under the `scalar-only` feature) silently stays scalar.
pub fn force_mode(mode: Option<SimdMode>) {
    let v = match mode {
        None => 0,
        Some(SimdMode::Scalar) => 1,
        Some(SimdMode::Avx2) => 2,
    };
    FORCED.store(v, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Scalar kernel bodies.
//
// Written over explicitly equal-length sub-slices so the autovectorizer sees
// bounds-check-free counted loops. These are the semantics of record: the
// AVX2 variants below must compute the same quantities (they differ only by
// FMA rounding). Generic over `Scalar`; for `f64` the monomorphization is
// instruction-for-instruction the pre-generic code.
// ---------------------------------------------------------------------------

#[inline(always)]
pub(crate) fn cmul_body<T: Scalar>(
    ar: &[T],
    ai: &[T],
    br: &[T],
    bi: &[T],
    dr: &mut [T],
    di: &mut [T],
) {
    let n = ar.len();
    let (ai, br, bi) = (&ai[..n], &br[..n], &bi[..n]);
    let (dr, di) = (&mut dr[..n], &mut di[..n]);
    for k in 0..n {
        let (xr, xi) = (ar[k], ai[k]);
        let (yr, yi) = (br[k], bi[k]);
        dr[k] = xr * yr - xi * yi;
        di[k] = xr * yi + xi * yr;
    }
}

#[inline(always)]
pub(crate) fn acc_norm_sq_body<T: Scalar>(re: &[T], im: &[T], w: T, acc: &mut [T]) {
    let n = re.len();
    let im = &im[..n];
    let acc = &mut acc[..n];
    for k in 0..n {
        acc[k] += w * (re[k] * re[k] + im[k] * im[k]);
    }
}

/// Strided transpose `dst[c·dst_stride + r] = src[r·src_stride + c]`,
/// cache-blocked in 32×32 tiles. Pure data movement — every dispatch mode
/// produces byte-identical output; the AVX2 variants just move whole
/// registers through in-register shuffles instead of one element at a
/// time (the scalar scatter/gather is what dominates mid-size 2-D FFTs).
///
/// `seq_dst` picks the walk inside each tile: `false` keeps source reads
/// sequential (pair with a conflict-padded `dst_stride`), `true` keeps
/// destination writes sequential (pair with a conflict-padded
/// `src_stride`). The wrong choice aliases the unpadded strided side into
/// a handful of cache sets and thrashes them.
#[inline(always)]
pub(crate) fn transpose_body<T: Scalar>(
    src: &[T],
    src_stride: usize,
    rows: usize,
    cols: usize,
    dst: &mut [T],
    dst_stride: usize,
    seq_dst: bool,
) {
    const TILE: usize = 32;
    for r0 in (0..rows).step_by(TILE) {
        let r1 = (r0 + TILE).min(rows);
        for c0 in (0..cols).step_by(TILE) {
            let c1 = (c0 + TILE).min(cols);
            if seq_dst {
                for c in c0..c1 {
                    let col = c * dst_stride;
                    for r in r0..r1 {
                        dst[col + r] = src[r * src_stride + c];
                    }
                }
            } else {
                for r in r0..r1 {
                    let row = r * src_stride;
                    for c in c0..c1 {
                        dst[c * dst_stride + r] = src[row + c];
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2/FMA kernels (hand-written `std::arch` intrinsics).
//
// The `_pd` functions process 4 `f64` lanes per iteration, the `_ps` twins
// 8 `f32` lanes — same shape, same FMA structure, double the width. The
// `Scalar` trait's `*_avx2` hooks pick the right family per element type.
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", not(feature = "scalar-only")))]
pub(crate) mod avx2 {
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn cmul_pd(
        ar: &[f64],
        ai: &[f64],
        br: &[f64],
        bi: &[f64],
        dr: &mut [f64],
        di: &mut [f64],
    ) {
        let n = ar.len();
        let mut k = 0usize;
        while k + 4 <= n {
            let xr = _mm256_loadu_pd(ar.as_ptr().add(k));
            let xi = _mm256_loadu_pd(ai.as_ptr().add(k));
            let yr = _mm256_loadu_pd(br.as_ptr().add(k));
            let yi = _mm256_loadu_pd(bi.as_ptr().add(k));
            // re = xr·yr − xi·yi, im = xr·yi + xi·yr.
            let re = _mm256_fmsub_pd(xr, yr, _mm256_mul_pd(xi, yi));
            let im = _mm256_fmadd_pd(xr, yi, _mm256_mul_pd(xi, yr));
            _mm256_storeu_pd(dr.as_mut_ptr().add(k), re);
            _mm256_storeu_pd(di.as_mut_ptr().add(k), im);
            k += 4;
        }
        while k < n {
            let (xr, xi) = (ar[k], ai[k]);
            let (yr, yi) = (br[k], bi[k]);
            dr[k] = f64::mul_add(xr, yr, -(xi * yi));
            di[k] = f64::mul_add(xr, yi, xi * yr);
            k += 1;
        }
    }

    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn cmul_ps(
        ar: &[f32],
        ai: &[f32],
        br: &[f32],
        bi: &[f32],
        dr: &mut [f32],
        di: &mut [f32],
    ) {
        let n = ar.len();
        let mut k = 0usize;
        while k + 8 <= n {
            let xr = _mm256_loadu_ps(ar.as_ptr().add(k));
            let xi = _mm256_loadu_ps(ai.as_ptr().add(k));
            let yr = _mm256_loadu_ps(br.as_ptr().add(k));
            let yi = _mm256_loadu_ps(bi.as_ptr().add(k));
            // re = xr·yr − xi·yi, im = xr·yi + xi·yr.
            let re = _mm256_fmsub_ps(xr, yr, _mm256_mul_ps(xi, yi));
            let im = _mm256_fmadd_ps(xr, yi, _mm256_mul_ps(xi, yr));
            _mm256_storeu_ps(dr.as_mut_ptr().add(k), re);
            _mm256_storeu_ps(di.as_mut_ptr().add(k), im);
            k += 8;
        }
        while k < n {
            let (xr, xi) = (ar[k], ai[k]);
            let (yr, yi) = (br[k], bi[k]);
            dr[k] = f32::mul_add(xr, yr, -(xi * yi));
            di[k] = f32::mul_add(xr, yi, xi * yr);
            k += 1;
        }
    }

    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn acc_norm_sq_pd(re: &[f64], im: &[f64], w: f64, acc: &mut [f64]) {
        let n = re.len();
        let wv = _mm256_set1_pd(w);
        let mut k = 0usize;
        while k + 4 <= n {
            let r = _mm256_loadu_pd(re.as_ptr().add(k));
            let i = _mm256_loadu_pd(im.as_ptr().add(k));
            let a = _mm256_loadu_pd(acc.as_ptr().add(k));
            // acc += w·(r² + i²)
            let n2 = _mm256_fmadd_pd(i, i, _mm256_mul_pd(r, r));
            let out = _mm256_fmadd_pd(wv, n2, a);
            _mm256_storeu_pd(acc.as_mut_ptr().add(k), out);
            k += 4;
        }
        while k < n {
            let n2 = f64::mul_add(im[k], im[k], re[k] * re[k]);
            acc[k] = f64::mul_add(w, n2, acc[k]);
            k += 1;
        }
    }

    /// # Safety
    /// Caller must have verified AVX2+FMA support at runtime.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn acc_norm_sq_ps(re: &[f32], im: &[f32], w: f32, acc: &mut [f32]) {
        let n = re.len();
        let wv = _mm256_set1_ps(w);
        let mut k = 0usize;
        while k + 8 <= n {
            let r = _mm256_loadu_ps(re.as_ptr().add(k));
            let i = _mm256_loadu_ps(im.as_ptr().add(k));
            let a = _mm256_loadu_ps(acc.as_ptr().add(k));
            // acc += w·(r² + i²)
            let n2 = _mm256_fmadd_ps(i, i, _mm256_mul_ps(r, r));
            let out = _mm256_fmadd_ps(wv, n2, a);
            _mm256_storeu_ps(acc.as_mut_ptr().add(k), out);
            k += 8;
        }
        while k < n {
            let n2 = f32::mul_add(im[k], im[k], re[k] * re[k]);
            acc[k] = f32::mul_add(w, n2, acc[k]);
            k += 1;
        }
    }

    /// `f64` transpose "kernel": delegates to the scalar tiled body.
    ///
    /// Measured on the fleet hardware, a 4×4 in-register `_pd` block walk
    /// is ~6% *slower* than the plain tiled loop at the 512² sizes the
    /// engine runs — the `f64` planes (2 MB each) are DRAM-bound, so the
    /// shuffle work buys nothing and the block walk only perturbs the
    /// hardware prefetcher. The 8-lane `f32` variant below is a clear win
    /// (1 MB planes stay cache-resident), so only `f32` gets real vector
    /// code.
    ///
    /// # Safety
    /// Same contract as [`transpose_ps`] (safe in practice — no vector
    /// instructions — but kept `unsafe` to match the hook signature).
    pub unsafe fn transpose_pd(
        src: &[f64],
        src_stride: usize,
        rows: usize,
        cols: usize,
        dst: &mut [f64],
        dst_stride: usize,
        seq_dst: bool,
    ) {
        crate::simd::transpose_body(src, src_stride, rows, cols, dst, dst_stride, seq_dst);
    }

    /// One 8×8 `f32` block: `dst[(c+j)·ds + r + i] = src[(r+i)·ss + c + j]`.
    #[inline(always)]
    unsafe fn t8_ps(sp: *const f32, ss: usize, dp: *mut f32, ds: usize, r: usize, c: usize) {
        let v0 = _mm256_loadu_ps(sp.add(r * ss + c));
        let v1 = _mm256_loadu_ps(sp.add((r + 1) * ss + c));
        let v2 = _mm256_loadu_ps(sp.add((r + 2) * ss + c));
        let v3 = _mm256_loadu_ps(sp.add((r + 3) * ss + c));
        let v4 = _mm256_loadu_ps(sp.add((r + 4) * ss + c));
        let v5 = _mm256_loadu_ps(sp.add((r + 5) * ss + c));
        let v6 = _mm256_loadu_ps(sp.add((r + 6) * ss + c));
        let v7 = _mm256_loadu_ps(sp.add((r + 7) * ss + c));
        let t0 = _mm256_unpacklo_ps(v0, v1);
        let t1 = _mm256_unpackhi_ps(v0, v1);
        let t2 = _mm256_unpacklo_ps(v2, v3);
        let t3 = _mm256_unpackhi_ps(v2, v3);
        let t4 = _mm256_unpacklo_ps(v4, v5);
        let t5 = _mm256_unpackhi_ps(v4, v5);
        let t6 = _mm256_unpacklo_ps(v6, v7);
        let t7 = _mm256_unpackhi_ps(v6, v7);
        let s0 = _mm256_shuffle_ps(t0, t2, 0x44);
        let s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
        let s2 = _mm256_shuffle_ps(t1, t3, 0x44);
        let s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
        let s4 = _mm256_shuffle_ps(t4, t6, 0x44);
        let s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
        let s6 = _mm256_shuffle_ps(t5, t7, 0x44);
        let s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
        let d = dp.add(c * ds + r);
        _mm256_storeu_ps(d, _mm256_permute2f128_ps(s0, s4, 0x20));
        _mm256_storeu_ps(d.add(ds), _mm256_permute2f128_ps(s1, s5, 0x20));
        _mm256_storeu_ps(d.add(2 * ds), _mm256_permute2f128_ps(s2, s6, 0x20));
        _mm256_storeu_ps(d.add(3 * ds), _mm256_permute2f128_ps(s3, s7, 0x20));
        _mm256_storeu_ps(d.add(4 * ds), _mm256_permute2f128_ps(s0, s4, 0x31));
        _mm256_storeu_ps(d.add(5 * ds), _mm256_permute2f128_ps(s1, s5, 0x31));
        _mm256_storeu_ps(d.add(6 * ds), _mm256_permute2f128_ps(s2, s6, 0x31));
        _mm256_storeu_ps(d.add(7 * ds), _mm256_permute2f128_ps(s3, s7, 0x31));
    }

    /// 32×32-tiled strided transpose over in-register 8×8 `f32` blocks.
    /// `seq_dst` as on [`transpose_pd`].
    ///
    /// # Safety
    /// AVX2 support verified at runtime; slice extents as for
    /// [`transpose_pd`].
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn transpose_ps(
        src: &[f32],
        src_stride: usize,
        rows: usize,
        cols: usize,
        dst: &mut [f32],
        dst_stride: usize,
        seq_dst: bool,
    ) {
        const TILE: usize = 32;
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        for r0 in (0..rows).step_by(TILE) {
            let r1 = (r0 + TILE).min(rows);
            for c0 in (0..cols).step_by(TILE) {
                let c1 = (c0 + TILE).min(cols);
                let rb = r0 + (r1 - r0) / 8 * 8;
                let cb = c0 + (c1 - c0) / 8 * 8;
                if seq_dst {
                    let mut c = c0;
                    while c < cb {
                        let mut r = r0;
                        while r < rb {
                            t8_ps(sp, src_stride, dp, dst_stride, r, c);
                            r += 8;
                        }
                        c += 8;
                    }
                } else {
                    let mut r = r0;
                    while r < rb {
                        let mut c = c0;
                        while c < cb {
                            t8_ps(sp, src_stride, dp, dst_stride, r, c);
                            c += 8;
                        }
                        r += 8;
                    }
                }
                for r in rb..r1 {
                    for c in c0..c1 {
                        *dp.add(c * dst_stride + r) = *sp.add(r * src_stride + c);
                    }
                }
                for c in cb..c1 {
                    for r in r0..rb {
                        *dp.add(c * dst_stride + r) = *sp.add(r * src_stride + c);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatched entry points.
//
// All slices must share `ar.len()` (the scalar bodies re-slice and panic on
// shorter operands; the AVX2 kernels assume the caller upheld it, which every
// in-crate call site does via `Field` invariants). The `SimdMode::Avx2` arm
// routes through the element type's `Scalar` hook, which resolves to the
// `_pd` or `_ps` kernel family (and to the scalar body on non-x86 targets,
// where `Avx2` is never produced).
// ---------------------------------------------------------------------------

/// `d = a · b` pointwise over split-complex slices.
pub(crate) fn cmul<T: Scalar>(
    mode: SimdMode,
    ar: &[T],
    ai: &[T],
    br: &[T],
    bi: &[T],
    dr: &mut [T],
    di: &mut [T],
) {
    debug_assert!(
        ai.len() == ar.len()
            && br.len() == ar.len()
            && bi.len() == ar.len()
            && dr.len() == ar.len()
            && di.len() == ar.len()
    );
    match mode {
        SimdMode::Scalar => cmul_body(ar, ai, br, bi, dr, di),
        // SAFETY: `SimdMode::Avx2` is only ever produced after runtime
        // AVX2+FMA detection (see `active_mode` / `force_mode`).
        SimdMode::Avx2 => unsafe { T::cmul_avx2(ar, ai, br, bi, dr, di) },
    }
}

/// `acc += w · (re² + im²)` — the SOCS reduction step.
pub(crate) fn acc_norm_sq<T: Scalar>(mode: SimdMode, re: &[T], im: &[T], w: T, acc: &mut [T]) {
    match mode {
        SimdMode::Scalar => acc_norm_sq_body(re, im, w, acc),
        // SAFETY: `SimdMode::Avx2` implies runtime AVX2+FMA support.
        SimdMode::Avx2 => unsafe { T::acc_norm_sq_avx2(re, im, w, acc) },
    }
}

/// Strided blocked transpose `dst[c·dst_stride + r] = src[r·src_stride + c]`.
///
/// Pure data movement — both dispatch modes produce bitwise-identical
/// output, so this never perturbs cross-mode determinism. `seq_dst` as on
/// [`transpose_body`]: pass `false` when `dst_stride` is the
/// conflict-padded side, `true` when `src_stride` is.
#[allow(clippy::too_many_arguments)]
pub(crate) fn transpose_strided<T: Scalar>(
    mode: SimdMode,
    src: &[T],
    src_stride: usize,
    rows: usize,
    cols: usize,
    dst: &mut [T],
    dst_stride: usize,
    seq_dst: bool,
) {
    debug_assert!(rows == 0 || cols == 0 || (rows - 1) * src_stride + cols <= src.len());
    debug_assert!(rows == 0 || cols == 0 || (cols - 1) * dst_stride + rows <= dst.len());
    match mode {
        SimdMode::Scalar => transpose_body(src, src_stride, rows, cols, dst, dst_stride, seq_dst),
        // SAFETY: `SimdMode::Avx2` implies runtime AVX2+FMA support; the
        // extent requirements are the debug-asserted bounds above, which
        // every in-crate call site upholds via `Field` invariants.
        SimdMode::Avx2 => unsafe {
            T::transpose_avx2(src, src_stride, rows, cols, dst, dst_stride, seq_dst)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardopc_geometry::SplitMix64;

    fn randv<T: Scalar>(n: usize, seed: u64) -> Vec<T> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| T::from_f64(rng.range_f64(-2.0, 2.0)))
            .collect()
    }

    /// Both dispatch modes of every kernel, at every length straddling both
    /// the 4-lane (`f64`) and 8-lane (`f32`) widths, against the plain
    /// expression semantics, within `tol` (one FMA rounding at the type's
    /// own epsilon).
    fn check_modes_agree<T: Scalar>(tol: f64) {
        for n in [1usize, 3, 4, 5, 7, 8, 9, 17, 64] {
            let ar = randv::<T>(n, 1);
            let ai = randv::<T>(n, 2);
            let br = randv::<T>(n, 3);
            let bi = randv::<T>(n, 4);
            for mode in [SimdMode::Scalar, SimdMode::Avx2] {
                if mode == SimdMode::Avx2 && !avx2_available() {
                    continue;
                }
                let (mut dr, mut di) = (vec![T::ZERO; n], vec![T::ZERO; n]);
                cmul(mode, &ar, &ai, &br, &bi, &mut dr, &mut di);
                for k in 0..n {
                    let er = ar[k] * br[k] - ai[k] * bi[k];
                    let ei = ar[k] * bi[k] + ai[k] * br[k];
                    assert!((dr[k] - er).to_f64().abs() < tol);
                    assert!((di[k] - ei).to_f64().abs() < tol);
                }
                let quarter = T::from_f64(0.25);
                let w = T::from_f64(0.7);
                let mut acc = vec![quarter; n];
                acc_norm_sq(mode, &ar, &ai, w, &mut acc);
                for k in 0..n {
                    let e = quarter + w * (ar[k] * ar[k] + ai[k] * ai[k]);
                    assert!((acc[k] - e).to_f64().abs() < tol);
                }
            }
        }
    }

    #[test]
    fn dispatch_modes_agree_within_fma_rounding_f64() {
        check_modes_agree::<f64>(1e-12);
    }

    #[test]
    fn dispatch_modes_agree_within_fma_rounding_f32() {
        check_modes_agree::<f32>(1e-5);
    }

    /// Transpose is pure data movement: both dispatch modes must produce
    /// bitwise-identical output at shapes exercising the vector blocks
    /// (4×4 pd / 8×8 ps), the scalar row/col remainders, and non-trivial
    /// destination strides.
    fn check_transpose_modes_identical<T: Scalar>() {
        for (rows, cols) in [(1usize, 1usize), (3, 5), (8, 8), (9, 7), (33, 40), (64, 64)] {
            for pad in [0usize, 3] {
                for seq_dst in [false, true] {
                    let src = randv::<T>(rows * cols, (rows * 131 + cols + pad) as u64);
                    let dst_stride = rows + pad;
                    let mut out_scalar = vec![T::ZERO; cols * dst_stride];
                    transpose_strided(
                        SimdMode::Scalar,
                        &src,
                        cols,
                        rows,
                        cols,
                        &mut out_scalar,
                        dst_stride,
                        seq_dst,
                    );
                    for r in 0..rows {
                        for c in 0..cols {
                            assert_eq!(out_scalar[c * dst_stride + r], src[r * cols + c]);
                        }
                    }
                    if avx2_available() {
                        let mut out_avx2 = vec![T::ZERO; cols * dst_stride];
                        transpose_strided(
                            SimdMode::Avx2,
                            &src,
                            cols,
                            rows,
                            cols,
                            &mut out_avx2,
                            dst_stride,
                            seq_dst,
                        );
                        assert_eq!(out_scalar, out_avx2);
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_modes_bitwise_identical_f64() {
        check_transpose_modes_identical::<f64>();
    }

    #[test]
    fn transpose_modes_bitwise_identical_f32() {
        check_transpose_modes_identical::<f32>();
    }

    #[test]
    fn forced_mode_round_trips() {
        force_mode(Some(SimdMode::Scalar));
        assert_eq!(active_mode(), SimdMode::Scalar);
        force_mode(None);
        let auto = active_mode();
        assert!(auto == SimdMode::Scalar || avx2_available());
    }
}
