//! Runtime SIMD dispatch and the split-complex (structure-of-arrays) hot
//! kernels shared by the FFT stages and the SOCS convolution loop.
//!
//! Every hot loop in the imaging chain — butterflies, twiddle application,
//! frequency-domain products, and the `w·|z|²` reduction — operates on
//! *split-complex* data: separate `re[]`/`im[]` slices instead of
//! interleaved complex pairs. That layout removes every shuffle from the
//! vector code path: each loop is a counted walk over equal-length slices
//! that the autovectorizer turns into packed lanes.
//!
//! Each kernel is **one generic Rust body** over [`Scalar`] (`f64` and
//! `f32`), compiled twice:
//!
//! * **plain** — baseline SSE2 on x86-64;
//! * inside a `#[target_feature(enable = "avx2,fma")]` wrapper, behind
//!   runtime detection — the autovectorizer then uses 256-bit lanes (4
//!   `f64` or 8 `f32` per operation).
//!
//! Rust never contracts `a*b + c` into an FMA, and every body spells out
//! the same expressions, so the two compilations are **bitwise identical**:
//! the dispatch mode is a speed choice only, and a run's outputs do not
//! depend on the host's instruction set.
//!
//! Dispatch is resolved once per process from CPUID. [`force_mode`]
//! overrides the cached decision for equivalence tests and benchmarks.

use crate::scalar::Scalar;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which compilation of the kernels the process is executing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdMode {
    /// The plain compilation.
    Scalar,
    /// The `avx2,fma` compilation (x86-64 only, runtime-detected).
    Avx2,
}

/// `true` when the running CPU supports the AVX2/FMA compilation.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn detect() -> SimdMode {
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

/// Overrides the process-wide dispatch mode (`None` restores CPUID
/// resolution).
///
/// Intended for equivalence tests and benchmarks that compare both paths in
/// one process; such tests must serialise themselves (the override is
/// global). Forcing [`SimdMode::Avx2`] on a machine without AVX2/FMA
/// silently stays scalar.
pub fn force_mode(mode: Option<SimdMode>) {
    let v = match mode {
        None => 0,
        Some(SimdMode::Scalar) => 1,
        Some(SimdMode::Avx2) => 2,
    };
    FORCED.store(v, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Kernel bodies.
//
// Written over explicitly equal-length sub-slices (every operand re-sliced
// to the first one's length, so a short operand panics in either mode) so
// the autovectorizer sees bounds-check-free counted loops.
// ---------------------------------------------------------------------------

#[inline(always)]
fn cmul_body<T: Scalar>(ar: &[T], ai: &[T], br: &[T], bi: &[T], dr: &mut [T], di: &mut [T]) {
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
fn acc_norm_sq_body<T: Scalar>(re: &[T], im: &[T], w: T, acc: &mut [T]) {
    let n = re.len();
    let im = &im[..n];
    let acc = &mut acc[..n];
    for k in 0..n {
        acc[k] += w * (re[k] * re[k] + im[k] * im[k]);
    }
}

/// # Safety
/// Caller must have verified AVX2+FMA support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn cmul_avx2<T: Scalar>(ar: &[T], ai: &[T], br: &[T], bi: &[T], dr: &mut [T], di: &mut [T]) {
    cmul_body(ar, ai, br, bi, dr, di);
}

/// # Safety
/// Caller must have verified AVX2+FMA support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn acc_norm_sq_avx2<T: Scalar>(re: &[T], im: &[T], w: T, acc: &mut [T]) {
    acc_norm_sq_body(re, im, w, acc);
}

// ---------------------------------------------------------------------------
// Dispatched entry points.
// ---------------------------------------------------------------------------

/// `d = a · b` pointwise over split-complex slices of `ar.len()` samples.
///
/// # Panics
///
/// Panics when any other slice is shorter than `ar`.
pub(crate) fn cmul<T: Scalar>(
    mode: SimdMode,
    ar: &[T],
    ai: &[T],
    br: &[T],
    bi: &[T],
    dr: &mut [T],
    di: &mut [T],
) {
    match mode {
        // SAFETY: `SimdMode::Avx2` is only ever produced after runtime
        // AVX2+FMA detection (see `active_mode` / `force_mode`).
        #[cfg(target_arch = "x86_64")]
        SimdMode::Avx2 => unsafe { cmul_avx2(ar, ai, br, bi, dr, di) },
        _ => cmul_body(ar, ai, br, bi, dr, di),
    }
}

/// `acc += w · (re² + im²)` over `re.len()` samples — the SOCS reduction
/// step.
///
/// # Panics
///
/// Panics when `im` or `acc` is shorter than `re`.
pub(crate) fn acc_norm_sq<T: Scalar>(mode: SimdMode, re: &[T], im: &[T], w: T, acc: &mut [T]) {
    match mode {
        // SAFETY: `SimdMode::Avx2` implies runtime AVX2+FMA support.
        #[cfg(target_arch = "x86_64")]
        SimdMode::Avx2 => unsafe { acc_norm_sq_avx2(re, im, w, acc) },
        _ => acc_norm_sq_body(re, im, w, acc),
    }
}

/// Strided transpose `dst[c·dst_stride + r] = src[r·src_stride + c]`,
/// cache-blocked in 32×32 tiles. Pure data movement, so it needs no
/// dispatch mode.
///
/// `seq_dst` picks the walk inside each tile: `false` keeps source reads
/// sequential (pair with a conflict-padded `dst_stride`), `true` keeps
/// destination writes sequential (pair with a conflict-padded
/// `src_stride`). The wrong choice aliases the unpadded strided side into
/// a handful of cache sets and thrashes them.
///
/// # Panics
///
/// Panics when `src` or `dst` does not cover the strided extent.
pub(crate) fn transpose_strided<T: Scalar>(
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

    /// Both dispatch modes of both pointwise kernels, at every length
    /// straddling the 4-lane (`f64`) and 8-lane (`f32`) widths, bit for bit
    /// against the plain expressions.
    fn check_modes_bitwise<T: Scalar>() {
        for n in [1usize, 3, 4, 5, 7, 8, 9, 17, 64] {
            let ar = randv::<T>(n, 1);
            let ai = randv::<T>(n, 2);
            let br = randv::<T>(n, 3);
            let bi = randv::<T>(n, 4);
            let quarter = T::from_f64(0.25);
            let w = T::from_f64(0.7);
            for mode in [SimdMode::Scalar, SimdMode::Avx2] {
                if mode == SimdMode::Avx2 && !avx2_available() {
                    continue;
                }
                let (mut dr, mut di) = (vec![T::ZERO; n], vec![T::ZERO; n]);
                cmul(mode, &ar, &ai, &br, &bi, &mut dr, &mut di);
                let mut acc = vec![quarter; n];
                acc_norm_sq(mode, &ar, &ai, w, &mut acc);
                for k in 0..n {
                    let er = ar[k] * br[k] - ai[k] * bi[k];
                    let ei = ar[k] * bi[k] + ai[k] * br[k];
                    let ea = quarter + w * (ar[k] * ar[k] + ai[k] * ai[k]);
                    let bits = |v: T| v.to_f64().to_bits();
                    assert_eq!(
                        [bits(dr[k]), bits(di[k]), bits(acc[k])],
                        [bits(er), bits(ei), bits(ea)],
                        "{mode:?} n {n} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn dispatch_modes_agree_within_fma_rounding_f64() {
        check_modes_bitwise::<f64>();
    }

    #[test]
    fn dispatch_modes_agree_within_fma_rounding_f32() {
        check_modes_bitwise::<f32>();
    }

    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    /// In AVX2 mode (the plain compilation where AVX2 is absent) a short
    /// operand is a panic, never an out-of-bounds access.
    #[test]
    fn short_operands_panic_in_avx2_mode() {
        // Whole 8-lane blocks: a vector loop with a bounds-checked scalar
        // tail would otherwise catch the overrun in its tail.
        let n = 64;
        let (full, short) = (randv::<f32>(n, 5), randv::<f32>(n - 16, 6));
        let cmul_with = |k: usize| {
            let op = |j: usize| if j == k { short.clone() } else { full.clone() };
            let (ar, ai, br, bi, mut dr, mut di) = (op(0), op(1), op(2), op(3), op(4), op(5));
            panics(|| cmul(SimdMode::Avx2, &ar, &ai, &br, &bi, &mut dr, &mut di))
        };
        for k in 1..6 {
            assert!(cmul_with(k), "cmul accepted short operand {k}");
        }
        assert!(!cmul_with(0), "a short first operand sets the length");
        let acc_with = |im: &[f32], acc_len: usize| {
            let mut acc = vec![0.0f32; acc_len];
            panics(|| acc_norm_sq(SimdMode::Avx2, &full, im, 0.5, &mut acc))
        };
        assert!(acc_with(&short, n), "acc_norm_sq accepted a short im");
        assert!(acc_with(&full, n - 16), "acc_norm_sq accepted a short acc");
        assert!(!acc_with(&full, n));
    }

    /// The transpose against its definition at shapes exercising partial
    /// tiles, both tile walks and padded destination strides.
    fn check_transpose<T: Scalar>() {
        for (rows, cols) in [(1usize, 1usize), (3, 5), (8, 8), (9, 7), (33, 40), (64, 64)] {
            for pad in [0usize, 3] {
                for seq_dst in [false, true] {
                    let src = randv::<T>(rows * cols, (rows * 131 + cols + pad) as u64);
                    let dst_stride = rows + pad;
                    let mut out = vec![T::ZERO; cols * dst_stride];
                    transpose_strided(&src, cols, rows, cols, &mut out, dst_stride, seq_dst);
                    for r in 0..rows {
                        for c in 0..cols {
                            assert_eq!(out[c * dst_stride + r], src[r * cols + c]);
                        }
                    }
                }
            }
        }
        let (src, mut dst) = (randv::<T>(16, 7), vec![T::ZERO; 15]);
        assert!(
            panics(|| transpose_strided(&src, 4, 4, 4, &mut dst, 4, false)),
            "transpose accepted a short destination"
        );
    }

    #[test]
    fn transpose_strided_matches_definition_f64() {
        check_transpose::<f64>();
    }

    #[test]
    fn transpose_strided_matches_definition_f32() {
        check_transpose::<f32>();
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
