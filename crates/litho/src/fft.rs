//! Complex numbers, split-complex 2-D fields, and FFT entry points.
//!
//! The lithography engine computes Hopkins/Abbe partially coherent images as
//! weighted sums of `|IFFT(FFT(mask) · H_k)|²` terms; no FFT crate is on the
//! approved dependency list, so the transforms are implemented in
//! [`crate::plan`] (mixed-radix Stockham) and driven from here.
//!
//! [`Field`] stores its samples **split-complex** (structure-of-arrays:
//! separate `re[]`/`im[]` vectors) rather than interleaved. Every hot loop —
//! butterflies, twiddle rotation, frequency-domain products, the SOCS
//! `w·|z|²` reduction — then runs over packed lanes with no shuffles, which
//! is what lets every kernel autovectorize, in the plain and the AVX2/FMA
//! compilation alike ([`crate::simd`]). Fields are generic over the
//! [`Scalar`] element (`f64` by default, `f32` for the single-precision
//! simulation backend); the boundary values — mask samples in, intensities
//! out — stay `f64` and are narrowed/widened at the edges, so for
//! `T = f64` every path is bit-identical to the pre-generic code. Every
//! transformed length must be 5-smooth (`2^a·3^b·5^c`) — the engine rounds
//! its grids up with [`next_five_smooth`], and a plan for any other length
//! panics.
//!
//! The two crate-internal 2-D passes at the full-grid ends of the SOCS
//! pipeline know that a real image has a Hermitian spectrum,
//! `F(−kx, −ky) = conj F(kx, ky)`. `fft2_real_band` (real in) reads each
//! row only inside its extent, skips all-zero row pairs, transforms the
//! non-negative-frequency columns of its band and fills the others by
//! conjugate mirror; `ifft2_live_rows` (real out) inverts only the
//! `ky ≥ 0` rows and carries two real columns per complex transform. Bins
//! that are their own mirror — frequency 0 and, on an even axis, Nyquist —
//! are transformed like any other on the way in and contribute their real
//! part on the way out. The per-kernel coherent fields are complex and use
//! none of this: `ifft2_column_blocks` inverts their short coarse columns a
//! cache-sized block per batched call. Neither do the 1-D kernels
//! underneath ([`crate::plan`]).

use crate::plan::FftPlan;
use crate::scalar::Scalar;
use crate::simd::{self, SimdMode};
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number (double precision).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates a complex number from rectangular parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{iθ}`.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex { re: c, im: s }
    }

    /// Squared magnitude `|z|²`.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Multiplication by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:+}i", self.re, self.im)
    }
}

/// Returns `true` when `n` has no prime factors other than 2, 3 and 5
/// (and is nonzero) — the lengths the mixed-radix FFT handles.
pub fn is_five_smooth(n: usize) -> bool {
    if n == 0 {
        return false;
    }
    let mut n = n;
    for p in [2usize, 3, 5] {
        while n.is_multiple_of(p) {
            n /= p;
        }
    }
    n == 1
}

/// Smallest 5-smooth number `>= n` (`>= 1` for `n == 0`).
///
/// Grid sizing rounds up to this instead of the next power of two: 5-smooth
/// numbers are dense (worst-case overhead a few percent, vs up to 2× for
/// pow2 padding), and they are the only lengths the FFT transforms.
pub fn next_five_smooth(n: usize) -> usize {
    let mut m = n.max(1);
    while !is_five_smooth(m) {
        m += 1;
    }
    m
}

/// In-place FFT over interleaved complex samples of a 5-smooth length.
///
/// `inverse = true` computes the inverse transform *including* the `1/n`
/// normalisation, so `ifft(fft(x)) == x`. Diagnostic entry point: it splits
/// into a transient re/im pair per call, while hot paths hold a [`Field`] /
/// [`FftScratch`] and run [`FftPlan::execute_unscaled_split`].
///
/// # Panics
///
/// Panics when `data.len()` is not 5-smooth (see [`FftPlan::get`]).
pub fn fft_inplace(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    let mut re: Vec<f64> = data.iter().map(|z| z.re).collect();
    let mut im: Vec<f64> = data.iter().map(|z| z.im).collect();
    FftPlan::<f64>::get(n).execute_unscaled_split(
        &mut re,
        &mut im,
        &mut FftScratch::new(),
        inverse,
    );
    let scale = if inverse { 1.0 / n as f64 } else { 1.0 };
    for (z, (r, i)) in data.iter_mut().zip(re.into_iter().zip(im)) {
        *z = Complex::new(r * scale, i * scale);
    }
}

/// Column stride for the 2-D transpose scratch: `height`, padded by one
/// cache line when a tight stride would be a multiple of 256 samples.
///
/// Power-of-two strides ≥ 2 KiB alias to a handful of L1 sets, so the
/// blocked transposes and the column transforms thrash the cache exactly at
/// the "nice" grid sizes (512, 1024, …). Padding the scratch stride — the
/// side of every transpose that needs lines to *persist* across the tile —
/// spreads the accesses over all sets. Field layout stays tight; only the
/// scratch pays one cache line (8 `f64` or 16 `f32` samples) per pad.
#[inline]
pub(crate) fn padded_stride<T: Scalar>(height: usize) -> usize {
    if height.is_multiple_of(256) {
        height + 64 / std::mem::size_of::<T>()
    } else {
        height
    }
}

/// Reusable scratch buffers for FFT execution, one per worker/slot.
///
/// Holds the Stockham ping-pong pair, the 2-D transpose pair and the
/// column-gather pair as separate allocations so the borrow checker can hand
/// disjoint `&mut` views to nested plan executions. All buffers start empty
/// and grow on demand, then are reused without further allocation —
/// replacing the seed's per-call `Vec<Complex>` scratch arguments.
#[derive(Clone, Debug, Default)]
pub struct FftScratch<T: Scalar = f64> {
    /// Stockham ping-pong partner (re lane).
    pub(crate) pong_re: Vec<T>,
    /// Stockham ping-pong partner (im lane).
    pub(crate) pong_im: Vec<T>,
    /// Blocked-transpose buffer for 2-D column passes (re lane).
    pub(crate) t_re: Vec<T>,
    /// Blocked-transpose buffer for 2-D column passes (im lane).
    pub(crate) t_im: Vec<T>,
    /// Column lanes of [`ifft2_live_rows`] and [`ifft2_column_blocks`], row
    /// lane of [`fft2_real_band`], twiddles of [`sample_live_rows`] (re).
    pub(crate) col_re: Vec<T>,
    /// The same (im).
    pub(crate) col_im: Vec<T>,
    /// The band columns [`fft2_real_band`] transforms, as `(a, k, −k)`:
    /// band column, its FFT index on the row axis, and the opposite index.
    pub(crate) direct: Vec<(usize, usize, usize)>,
    /// Per-row extents [`fft2_real_band`] scans when its caller has none.
    pub(crate) extents: Vec<Span>,
}

impl<T: Scalar> FftScratch<T> {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> FftScratch<T> {
        FftScratch::default()
    }
}

#[inline]
pub(crate) fn ensure<T: Scalar>(buf: &mut Vec<T>, n: usize) -> &mut [T] {
    if buf.len() < n {
        buf.resize(n, T::ZERO);
    }
    &mut buf[..n]
}

/// A rectangle of 2-D spectrum bins in signed-frequency coordinates: bin
/// `(x0 + a, y0 + b)`, `a < w`, `b < h`, sits at FFT index
/// `(wrap(x0 + a, W), wrap(y0 + b, H))` of a `W×H` transform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Band {
    pub x0: isize,
    pub y0: isize,
    pub w: usize,
    pub h: usize,
}

/// A half-open pixel range of one row, empty when `start >= end`.
pub(crate) type Span = (usize, usize);

pub(crate) const NO_SPAN: Span = (usize::MAX, 0);

/// Smallest span holding both; [`NO_SPAN`] is its identity.
pub(crate) fn span_union(a: Span, b: Span) -> Span {
    (a.0.min(b.0), a.1.max(b.1))
}

/// Whether every sample of `chunk` is zero (`== 0`: `−0.0` is, NaN is
/// not). Branch-free, so a scan over chunks of it vectorises.
fn all_zero<S: Scalar>(chunk: &[S]) -> bool {
    chunk.iter().fold(true, |z, &s| z & (s == S::ZERO))
}

/// The span from the first to the last nonzero sample of `row`, found a
/// 32-sample chunk at a time from either end.
fn row_extent<S: Scalar>(row: &[S]) -> Span {
    let lit = |s: &S| *s != S::ZERO;
    let lead: usize = row
        .chunks(32)
        .take_while(|c| all_zero(c))
        .map(<[S]>::len)
        .sum();
    let Some(start) = row[lead..].iter().position(lit) else {
        return NO_SPAN;
    };
    let trail: usize = row
        .rchunks(32)
        .take_while(|c| all_zero(c))
        .map(<[S]>::len)
        .sum();
    let end = row[..row.len() - trail]
        .iter()
        .rposition(lit)
        .map_or(0, |i| i + 1);
    (lead + start, end)
}

/// FFT index of signed frequency `f` on an `n`-point axis.
#[inline]
pub(crate) fn wrap(f: isize, n: usize) -> usize {
    f.rem_euclid(n as isize) as usize
}

/// Forward 2-D FFT of a real `w×h` image, keeping only the bins of `band`:
/// `out[a·col_stride + b·row_stride]` receives bin `(band.x0 + a,
/// band.y0 + b)`.
///
/// Every nonzero sample of row `y` lies in `extents[y]` (a
/// [`crate::RasterCache`] records them as it writes; `None` scans each
/// row for its first and last nonzero sample), and rows are read only
/// inside them. Rows are transformed two at a time (packed into the re/im
/// lanes of one complex transform and split by Hermitian symmetry); only
/// the band's columns are unpacked, straight into contiguous column
/// lanes, so no transpose is needed. A real input buys two more things:
///
/// * **Empty rows.** A row pair that is all zeros has a zero row spectrum:
///   its lane entries are zeroed and no transform runs. "Zero" is `== 0.0`,
///   so `−0.0` counts and NaN does not (it must propagate); the test runs
///   inside the extents, which may hold zeros. The transform of an
///   all-zero pair would be a field of signed zeros, and every later
///   operation maps `==` inputs to `==` outputs, so skipping is invisible
///   under `==` — only the sign of an exact zero can differ.
/// * **Half the columns.** The row-pass lanes satisfy
///   `t(−kx, y) = conj t(kx, y)`, hence `F(−kx, ky) = conj F(kx, −ky)`: a
///   negative-frequency column whose opposite is in the band too is not
///   transformed but read off the opposite column's full-length result.
///   Frequency 0 and (even `w`) Nyquist are their own opposite and are
///   transformed, as is a column whose opposite lies outside the band — the
///   band need not be symmetric.
pub(crate) fn fft2_real_band<S: Scalar, T: Scalar>(
    real: &[S],
    extents: Option<&[Span]>,
    (w, h): (usize, usize),
    band: Band,
    scratch: &mut FftScratch<T>,
    (out_re, out_im): (&mut [T], &mut [T]),
    (col_stride, row_stride): (usize, usize),
) {
    assert_eq!(real.len(), w * h, "sample count mismatch");
    assert!(band.w <= w && band.h <= h, "band exceeds the grid");
    let mode = simd::active_mode();
    let plan_w = FftPlan::<T>::get(w);
    let plan_h = FftPlan::<T>::get(h);
    let FftScratch {
        pong_re,
        pong_im,
        t_re,
        t_im,
        col_re,
        col_im,
        direct,
        extents: scanned,
    } = scratch;
    let extents = extents.unwrap_or_else(|| {
        scanned.clear();
        scanned.extend(real.chunks_exact(w).map(row_extent));
        scanned
    });
    assert_eq!(extents.len(), h, "one extent per row");
    let cs = padded_stride::<T>(h);
    let t_re = ensure(t_re, band.w * cs);
    let t_im = ensure(t_im, band.w * cs);
    let row_re = ensure(col_re, w);
    let row_im = ensure(col_im, w);
    // The band column holding the opposite frequency of column `a`, when
    // `a` is a negative frequency and the band has its opposite.
    let mirror = |a: usize| {
        let kx = band.x0 + a as isize;
        let m = wrap(-kx - band.x0, w);
        (2 * wrap(kx, w) > w && m < band.w).then_some(m)
    };
    direct.clear();
    direct.extend((0..band.w).filter(|&a| mirror(a).is_none()).map(|a| {
        let k = wrap(band.x0 + a as isize, w);
        (a, k, (w - k) % w)
    }));
    // Row `y`'s extent, empty past the last row.
    let extent = |y: usize| {
        extents
            .get(y)
            .copied()
            .filter(|s| s.0 < s.1)
            .unwrap_or((0, 0))
    };
    let lit = |y: usize| {
        let (s, e) = extent(y);
        !real[y * w + s..y * w + e].chunks(32).all(all_zero)
    };
    // Row `y` into `lane`: narrowed inside its extent, zero outside.
    let load = |lane: &mut [T], y: usize| {
        let (s, e) = extent(y);
        lane[..s].fill(T::ZERO);
        for (d, &v) in lane[s..e].iter_mut().zip(&real[y * w + s..y * w + e]) {
            *d = T::from_f64(v.to_f64());
        }
        lane[e..].fill(T::ZERO);
    };
    for y in (0..h).step_by(2) {
        let paired = y + 1 < h;
        if !(lit(y) || lit(y + 1)) {
            for &(a, ..) in direct.iter() {
                let i = a * cs + y;
                t_re[i..=i + paired as usize].fill(T::ZERO);
                t_im[i..=i + paired as usize].fill(T::ZERO);
            }
            continue;
        }
        load(row_re, y);
        load(row_im, y + 1);
        plan_w.execute_split_parts(mode, row_re, row_im, pong_re, pong_im, false);
        for &(a, k, km) in direct.iter() {
            let (zkr, zki, zmr, zmi) = (row_re[k], row_im[k], row_re[km], row_im[km]);
            let i = a * cs + y;
            if paired {
                // A[k] = (Z[k] + conj Z[-k])/2, B[k] = (Z[k] - conj Z[-k])/(2i).
                t_re[i] = T::HALF * (zkr + zmr);
                t_im[i] = T::HALF * (zki - zmi);
                t_re[i + 1] = T::HALF * (zki + zmi);
                t_im[i + 1] = T::HALF * (zmr - zkr);
            } else {
                t_re[i] = zkr;
                t_im[i] = zki;
            }
        }
    }
    for &(a, ..) in direct.iter() {
        let (cr, ci) = (&mut t_re[a * cs..a * cs + h], &mut t_im[a * cs..a * cs + h]);
        plan_h.execute_split_parts(mode, cr, ci, pong_re, pong_im, false);
    }
    for a in 0..band.w {
        // A mirrored column is its opposite's lane, back to front, conjugated.
        let (lane, conj) = mirror(a).map_or((a, false), |m| (m, true));
        for b in 0..band.h {
            let ky = band.y0 + b as isize;
            let y = lane * cs + wrap(if conj { -ky } else { ky }, h);
            let o = a * col_stride + b * row_stride;
            out_re[o] = t_re[y];
            out_im[o] = if conj { -t_im[y] } else { t_im[y] };
        }
    }
}

/// Unscaled inverse 2-D FFT of a **real** `w×h` image's spectrum given by
/// its `ky ≥ 0` rows (`ky = 0, 1, …, ≤ h/2`; frequency domain along x,
/// row-major, consumed as scratch). After the row pass row `−ky` would be
/// the conjugate of row `ky`, so it is neither stored nor inverted but
/// read as a sign flip in the gather — at `wrap(−ky, h)`, and rows 0 and
/// (even `h`) `h/2`, their own mirror, contribute their real part. Two
/// real columns share one transform: lane `j` carries
/// `Z = R(xa, ·) + i·R(xb, ·)` for `(xa, xb) = lanes[j]`, a column pair
/// `(2p, 2p + 1)` (`xb == w` past the last column of an odd width), and
/// comes out with column `xa` in its re lane and `xb` in its im lane.
///
/// Columns are gathered up to eight lanes at a time into zero-padded
/// column lanes, transformed one call each — at full-grid lengths that
/// beats a batch, which leaves L1 (see the `workspace` module) — and
/// handed to `emit(lanes, re, im, stride)`: lane `j` occupies
/// `[j·stride, j·stride + h)` of both.
pub(crate) fn ifft2_live_rows<T: Scalar>(
    (rows_re, rows_im): (&mut [T], &mut [T]),
    (w, h): (usize, usize),
    scratch: &mut FftScratch<T>,
    mut emit: impl FnMut(&[[usize; 2]], &[T], &[T], usize),
) {
    const LANES: usize = 8;
    let live = rows_re.len() / w;
    debug_assert!(rows_im.len() == rows_re.len());
    debug_assert!(live <= h / 2 + 1);
    let mode = simd::active_mode();
    let plan_w = FftPlan::<T>::get(w);
    let plan_h = FftPlan::<T>::get(h);
    let FftScratch {
        pong_re,
        pong_im,
        col_re,
        col_im,
        ..
    } = scratch;
    for (rr, ri) in rows_re.chunks_exact_mut(w).zip(rows_im.chunks_exact_mut(w)) {
        plan_w.execute_split_parts(mode, rr, ri, pong_re, pong_im, true);
    }
    let cs = padded_stride::<T>(h);
    let col_re = ensure(col_re, LANES * cs);
    let col_im = ensure(col_im, LANES * cs);
    let mut lanes = [[0usize; 2]; LANES];
    for first in (0..w).step_by(2 * LANES) {
        let n = (w - first).div_ceil(2).min(LANES);
        for (j, lane) in lanes[..n].iter_mut().enumerate() {
            let x = first + 2 * j;
            *lane = [x, x + 1];
        }
        col_re.fill(T::ZERO);
        col_im.fill(T::ZERO);
        for y in 0..live {
            let (row, ym) = (y * w, (h - y) % h);
            for (j, &[x, _]) in lanes[..n].iter().enumerate() {
                let (ar, ai) = (rows_re[row + x], rows_im[row + x]);
                let (br, bi) = match x + 1 < w {
                    true => (rows_re[row + x + 1], rows_im[row + x + 1]),
                    false => (T::ZERO, T::ZERO),
                };
                let (zr, zi) = (&mut col_re[j * cs..], &mut col_im[j * cs..]);
                if ym == y {
                    (zr[y], zi[y]) = (ar, br);
                } else {
                    // Z(ky) = A + i·B and Z(−ky) = conj A + i·conj B.
                    (zr[y], zi[y]) = (ar - bi, ai + br);
                    (zr[ym], zi[ym]) = (ar + bi, br - ai);
                }
            }
        }
        for j in 0..n {
            let (cr, ci) = (
                &mut col_re[j * cs..j * cs + h],
                &mut col_im[j * cs..j * cs + h],
            );
            plan_h.execute_split_parts(mode, cr, ci, pong_re, pong_im, true);
        }
        emit(&lanes[..n], col_re, col_im, cs);
    }
}

/// Unscaled inverse 2-D FFT of a **complex** `w×h` field whose spectrum is
/// zero past its first `rows.len() / w` rows (row-major, consumed as
/// scratch). After the row pass, blocks of [`FftPlan::block_lanes`]
/// columns are gathered by one copy per live row, zero-padded, inverted by
/// one [`FftPlan::execute_batched`] call (a column's bits are a single
/// call's) and handed to `emit(x0, lanes, re, im, pong)`: sample `y` of
/// column `x0 + j` at `[y·lanes + j]`, and the partner lanes for a
/// follow-up batched call.
pub(crate) fn ifft2_column_blocks<T: Scalar>(
    (rows_re, rows_im): (&mut [T], &mut [T]),
    (w, h): (usize, usize),
    scratch: &mut FftScratch<T>,
    mut emit: impl FnMut(usize, usize, &mut [T], &mut [T], (&mut Vec<T>, &mut Vec<T>)),
) {
    let live = rows_re.len() / w;
    debug_assert!(rows_im.len() == rows_re.len() && live <= h);
    let mode = simd::active_mode();
    let plan_w = FftPlan::<T>::get(w);
    let plan_h = FftPlan::<T>::get(h);
    let FftScratch {
        pong_re,
        pong_im,
        col_re,
        col_im,
        ..
    } = scratch;
    for (rr, ri) in rows_re.chunks_exact_mut(w).zip(rows_im.chunks_exact_mut(w)) {
        plan_w.execute_split_parts(mode, rr, ri, pong_re, pong_im, true);
    }
    let block = plan_h.block_lanes();
    for x0 in (0..w).step_by(block) {
        let lanes = block.min(w - x0);
        let blk_re = ensure(col_re, lanes * h);
        let blk_im = ensure(col_im, lanes * h);
        for y in 0..live {
            let (src, dst) = (y * w + x0..y * w + x0 + lanes, y * lanes..(y + 1) * lanes);
            blk_re[dst.clone()].copy_from_slice(&rows_re[src.clone()]);
            blk_im[dst].copy_from_slice(&rows_im[src]);
        }
        blk_re[live * lanes..].fill(T::ZERO);
        blk_im[live * lanes..].fill(T::ZERO);
        plan_h.execute_batched(lanes, mode, blk_re, blk_im, pong_re, pong_im, true);
        emit(x0, lanes, blk_re, blk_im, (pong_re, pong_im));
    }
}

/// [`ifft2_live_rows`]' real reading at single pixels, no column pass:
/// after the row pass, pixel `y·w + x` of `pixels` (ascending) is `Re R(x,
/// 0) + 2·Σ_{0<ky<h/2} Re(R(x, ky)·roots[ky·y mod h])` in ascending `ky`
/// (+ `Re R(x, h/2)·(−1)^y` at an even `h`'s Nyquist row), `roots[k] =
/// e^{2πi·k/h}` — its bits a function of the rows and `(x, y)` alone.
pub(crate) fn sample_live_rows<T: Scalar>(
    (rows_re, rows_im): (&mut [T], &mut [T]),
    (w, h): (usize, usize),
    (roots_re, roots_im): (&[T], &[T]),
    pixels: &[usize],
    scratch: &mut FftScratch<T>,
    out: &mut [f64],
) {
    let plan_w = FftPlan::<T>::get(w);
    for (rr, ri) in rows_re.chunks_exact_mut(w).zip(rows_im.chunks_exact_mut(w)) {
        plan_w.execute_unscaled_split(rr, ri, scratch, true);
    }
    let live = rows_re.len() / w;
    let nyquist = h % 2 == 0 && live == h / 2 + 1;
    let pairs = live - nyquist as usize;
    let cols_re = ensure(&mut scratch.t_re, w * live);
    let cols_im = ensure(&mut scratch.t_im, w * live);
    simd::transpose_strided(rows_re, w, live, w, cols_re, live, true);
    simd::transpose_strided(rows_im, w, live, w, cols_im, live, true);
    let tw_re = ensure(&mut scratch.col_re, live);
    let tw_im = ensure(&mut scratch.col_im, live);
    let mut row = 0..0; // the pixel indices of the image row in hand
    for &i in pixels {
        if !row.contains(&i) {
            let y = i / w;
            row = y * w..y * w + w;
            // `tw[ky] = roots[ky·y mod h]`, stepped.
            let mut k = 0;
            for ky in 1..live {
                k = if k + y >= h { k + y - h } else { k + y };
                (tw_re[ky], tw_im[ky]) = (roots_re[k], roots_im[k]);
            }
        }
        let x = i - row.start;
        let (cr, ci) = (&cols_re[x * live..][..live], &cols_im[x * live..][..live]);
        let mut acc = T::ZERO;
        for ky in 1..pairs {
            acc += cr[ky] * tw_re[ky] - ci[ky] * tw_im[ky];
        }
        let mut v = cr[0] + (acc + acc);
        if nyquist {
            v += cr[pairs] * tw_re[pairs];
        }
        out[i] = v.to_f64();
    }
}

/// A 2-D complex field, row-major, stored split-complex (separate re/im
/// lanes of [`Scalar`] samples, `f64` by default). Any nonzero dimensions
/// are accepted; the 2-D transforms need 5-smooth ones.
#[derive(Clone, Debug, PartialEq)]
pub struct Field<T: Scalar = f64> {
    width: usize,
    height: usize,
    re: Vec<T>,
    im: Vec<T>,
}

impl<T: Scalar> Field<T> {
    /// Zero-filled field.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn zeros(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "field dimensions must be nonzero");
        Field {
            width,
            height,
            re: vec![T::ZERO; width * height],
            im: vec![T::ZERO; width * height],
        }
    }

    /// Builds a field from real `f64` samples (imaginary parts zero),
    /// narrowing to the field's precision on the way in.
    ///
    /// # Panics
    ///
    /// Panics on sample-count mismatch or a zero dimension.
    pub fn from_real(width: usize, height: usize, real: &[f64]) -> Self {
        assert_eq!(real.len(), width * height, "sample count mismatch");
        let mut f = Field::zeros(width, height);
        for (d, &s) in f.re.iter_mut().zip(real) {
            *d = T::from_f64(s);
        }
        f
    }

    /// Converts the field to another simulation precision sample-by-sample
    /// (through the `f64` reference domain; identity for the same scalar).
    pub fn to_precision<U: Scalar>(&self) -> Field<U> {
        Field {
            width: self.width,
            height: self.height,
            re: self.re.iter().map(|&v| U::from_f64(v.to_f64())).collect(),
            im: self.im.iter().map(|&v| U::from_f64(v.to_f64())).collect(),
        }
    }

    /// Width in samples.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in samples.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Real lane, row-major.
    #[inline]
    pub fn re(&self) -> &[T] {
        &self.re
    }

    /// Imaginary lane, row-major.
    #[inline]
    pub fn im(&self) -> &[T] {
        &self.im
    }

    /// Sample accessor (widened to the `f64` [`Complex`] domain).
    #[inline]
    pub fn at(&self, ix: usize, iy: usize) -> Complex {
        let i = iy * self.width + ix;
        Complex::new(self.re[i].to_f64(), self.im[i].to_f64())
    }

    /// Sample writer (the split layout has no `&mut Complex` to hand out;
    /// narrows to the field's precision).
    #[inline]
    pub fn set(&mut self, ix: usize, iy: usize, z: Complex) {
        let i = iy * self.width + ix;
        self.re[i] = T::from_f64(z.re);
        self.im[i] = T::from_f64(z.im);
    }

    /// Iterates the samples in row-major order as [`Complex`] values.
    pub fn iter(&self) -> impl Iterator<Item = Complex> + '_ {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&r, &i)| Complex::new(r.to_f64(), i.to_f64()))
    }

    /// In-place 2-D FFT (rows then columns).
    ///
    /// Allocates a transient scratch; hot paths should hold a
    /// [`crate::LithoWorkspace`] or call [`Field::fft2_inplace_with`] with a
    /// reused [`FftScratch`] instead.
    pub fn fft2_inplace(&mut self, inverse: bool) {
        let mut scratch = FftScratch::new();
        self.fft2_inplace_with(inverse, &mut scratch);
    }

    /// In-place 2-D FFT reusing `scratch` for the ping-pong and
    /// blocked-transpose passes (buffers grow on first use, then are reused
    /// without further allocation).
    pub fn fft2_inplace_with(&mut self, inverse: bool, scratch: &mut FftScratch<T>) {
        let (w, h) = (self.width, self.height);
        let mode = simd::active_mode();
        let plan_w = FftPlan::<T>::get(w);
        let plan_h = FftPlan::<T>::get(h);
        let FftScratch {
            pong_re,
            pong_im,
            t_re,
            t_im,
            ..
        } = scratch;
        for (rr, ri) in self.re.chunks_exact_mut(w).zip(self.im.chunks_exact_mut(w)) {
            plan_w.execute_split_parts(mode, rr, ri, pong_re, pong_im, inverse);
        }

        // Column pass on the transposed lanes: contiguous butterflies
        // instead of stride-`width` gather/scatter. Both blocked
        // transposes walk the padded scratch side as the strided one, so
        // pow2 heights don't alias the cache (see [`padded_stride`]).
        let cs = padded_stride::<T>(h);
        let t_re = ensure(t_re, w * cs);
        let t_im = ensure(t_im, w * cs);
        simd::transpose_strided(&self.re, w, h, w, t_re, cs, false);
        simd::transpose_strided(&self.im, w, h, w, t_im, cs, false);
        for (cr, ci) in t_re.chunks_exact_mut(cs).zip(t_im.chunks_exact_mut(cs)) {
            plan_h.execute_split_parts(mode, &mut cr[..h], &mut ci[..h], pong_re, pong_im, inverse);
        }
        simd::transpose_strided(t_re, cs, w, h, &mut self.re, w, true);
        simd::transpose_strided(t_im, cs, w, h, &mut self.im, w, true);

        if inverse {
            let inv = T::from_f64(1.0 / (w * h) as f64);
            for v in self.re.iter_mut() {
                *v *= inv;
            }
            for v in self.im.iter_mut() {
                *v *= inv;
            }
        }
    }

    fn assert_same_dims(&self, other: &Field<T>) {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "dimension mismatch"
        );
    }

    /// Pointwise multiplication by another field of identical dimensions.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn mul_pointwise(&self, other: &Field<T>) -> Field<T> {
        self.assert_same_dims(other);
        let mut dst = Field::zeros(self.width, self.height);
        self.mul_pointwise_into(other, &mut dst);
        dst
    }

    /// Pointwise multiplication into a preallocated destination field.
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch.
    pub fn mul_pointwise_into(&self, other: &Field<T>, dst: &mut Field<T>) {
        self.assert_same_dims(other);
        self.assert_same_dims(dst);
        simd::cmul(
            simd::active_mode(),
            &self.re,
            &self.im,
            &other.re,
            &other.im,
            &mut dst.re,
            &mut dst.im,
        );
    }

    /// The per-sample squared magnitudes as a real `f64` vector.
    pub fn norm_sq_vec(&self) -> Vec<f64> {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&r, &i)| {
                let (r, i) = (r.to_f64(), i.to_f64());
                r * r + i * i
            })
            .collect()
    }

    /// Sum of squared magnitudes (for Parseval checks), accumulated in
    /// `f64` regardless of the field precision.
    pub fn energy(&self) -> f64 {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&r, &i)| {
                let (r, i) = (r.to_f64(), i.to_f64());
                r * r + i * i
            })
            .sum()
    }

    /// The dispatch mode pointwise/accumulate kernels currently run with
    /// (diagnostic; forwards [`crate::simd::active_mode`]).
    pub fn simd_mode() -> SimdMode {
        simd::active_mode()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cardopc_geometry::SplitMix64;
    use proptest::prelude::*;

    fn random_signal(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| Complex::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)))
            .collect()
    }

    /// The 5-smooth integers of `range`, drawn uniformly.
    pub(crate) fn five_smooth(range: std::ops::Range<usize>) -> impl Strategy<Value = usize> {
        let sizes: Vec<usize> = range.filter(|&n| is_five_smooth(n)).collect();
        (0..sizes.len()).prop_map(move |i| sizes[i])
    }

    fn random_field(w: usize, h: usize, seed: u64) -> Field {
        let mut rng = SplitMix64::new(seed);
        let mut f: Field = Field::zeros(w, h);
        for y in 0..h {
            for x in 0..w {
                f.set(
                    x,
                    y,
                    Complex::new(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)),
                );
            }
        }
        f
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
        assert_eq!((-a), Complex::new(-1.0, -2.0));
        assert!((Complex::from_angle(std::f64::consts::PI).re + 1.0).abs() < 1e-12);
        assert_eq!(a.norm_sq(), 5.0);
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::ONE;
        fft_inplace(&mut x, false);
        for z in &x {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_is_impulse() {
        let mut x = vec![Complex::ONE; 16];
        fft_inplace(&mut x, false);
        assert!((x[0].re - 16.0).abs() < 1e-12);
        for z in &x[1..] {
            assert!(z.norm() < 1e-10);
        }
    }

    #[test]
    fn fft_roundtrip() {
        // Pow2, mixed-radix and odd lengths all roundtrip.
        for n in [64usize, 60, 45, 15] {
            let orig = random_signal(n, 1);
            let mut x = orig.clone();
            fft_inplace(&mut x, false);
            fft_inplace(&mut x, true);
            for (a, b) in x.iter().zip(&orig) {
                assert!((*a - *b).norm() < 1e-10, "n {n}");
            }
        }
    }

    #[test]
    fn fft_single_tone_lands_in_right_bin() {
        for n in [32usize, 30] {
            let k = 5;
            let mut x: Vec<Complex> = (0..n)
                .map(|i| {
                    Complex::from_angle(std::f64::consts::TAU * k as f64 * i as f64 / n as f64)
                })
                .collect();
            fft_inplace(&mut x, false);
            for (bin, z) in x.iter().enumerate() {
                if bin == k {
                    assert!((z.re - n as f64).abs() < 1e-9);
                } else {
                    assert!(z.norm() < 1e-9, "leakage in bin {bin} (n {n})");
                }
            }
        }
    }

    #[test]
    fn parseval_identity() {
        for n in [128usize, 120] {
            let orig = random_signal(n, 2);
            let time_energy: f64 = orig.iter().map(|z| z.norm_sq()).sum();
            let mut x = orig;
            fft_inplace(&mut x, false);
            let freq_energy: f64 = x.iter().map(|z| z.norm_sq()).sum::<f64>() / n as f64;
            assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
        }
    }

    #[test]
    fn fft_linearity() {
        for n in [32usize, 24] {
            let a = random_signal(n, 3);
            let b = random_signal(n, 4);
            let sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
            let mut fa = a;
            let mut fb = b;
            let mut fs = sum;
            fft_inplace(&mut fa, false);
            fft_inplace(&mut fb, false);
            fft_inplace(&mut fs, false);
            for i in 0..n {
                assert!(((fa[i] + fb[i]) - fs[i]).norm() < 1e-10);
            }
        }
    }

    #[test]
    fn field_roundtrip_2d() {
        // Pow2, mixed and odd dimensions.
        for (w, h, seed) in [(16, 8, 9u64), (12, 10, 10), (15, 9, 11), (27, 25, 12)] {
            let mut rng = SplitMix64::new(seed);
            let real: Vec<f64> = (0..w * h).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let orig: Field = Field::from_real(w, h, &real);
            let mut f = orig.clone();
            f.fft2_inplace(false);
            f.fft2_inplace(true);
            for (a, b) in f.iter().zip(orig.iter()) {
                assert!((a - b).norm() < 1e-10, "{w}x{h}");
            }
        }
    }

    #[test]
    fn field_2d_impulse_flat_spectrum() {
        let mut f: Field = Field::zeros(8, 8);
        f.set(0, 0, Complex::ONE);
        f.fft2_inplace(false);
        for z in f.iter() {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn field_convolution_theorem() {
        // Convolving with a shifted impulse shifts the signal (cyclically) —
        // checked on a non-power-of-two grid.
        let (w, h) = (12, 12);
        let mut rng = SplitMix64::new(11);
        let real: Vec<f64> = (0..w * h).map(|_| rng.range_f64(0.0, 1.0)).collect();
        let sig: Field = Field::from_real(w, h, &real);

        let mut kernel: Field = Field::zeros(w, h);
        kernel.set(1, 0, Complex::ONE); // shift by one in x

        let mut fs = sig.clone();
        fs.fft2_inplace(false);
        let mut fk = kernel;
        fk.fft2_inplace(false);
        let mut prod = fs.mul_pointwise(&fk);
        prod.fft2_inplace(true);

        for y in 0..h {
            for x in 0..w {
                let expected = sig.at((x + w - 1) % w, y);
                assert!((prod.at(x, y) - expected).norm() < 1e-10);
            }
        }
    }

    #[test]
    fn f32_field_roundtrip_and_precision_conversion() {
        let (w, h) = (16, 12);
        let mut rng = SplitMix64::new(77);
        let real: Vec<f64> = (0..w * h).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let mut f: Field<f32> = Field::from_real(w, h, &real);
        f.fft2_inplace(false);
        f.fft2_inplace(true);
        for (z, &r) in f.iter().zip(&real) {
            assert!((z.re - r).abs() < 1e-5 && z.im.abs() < 1e-5);
        }
        // Narrow-then-widen keeps the f32 value exactly.
        let f64_field: Field = Field::from_real(w, h, &real);
        let narrowed: Field<f32> = f64_field.to_precision();
        let widened: Field<f64> = narrowed.to_precision();
        for (a, b) in narrowed.iter().zip(widened.iter()) {
            assert_eq!(a.re, b.re);
            assert_eq!(a.im, b.im);
        }
    }

    #[test]
    fn five_smooth_helpers() {
        for n in [1usize, 2, 3, 4, 5, 6, 8, 9, 10, 125, 192, 320, 640, 4096] {
            assert!(is_five_smooth(n), "{n}");
        }
        for n in [0usize, 7, 11, 13, 14, 97, 121, 508] {
            assert!(!is_five_smooth(n), "{n}");
        }
        assert_eq!(next_five_smooth(0), 1);
        assert_eq!(next_five_smooth(125), 125);
        assert_eq!(next_five_smooth(126), 128);
        assert_eq!(next_five_smooth(129), 135);
        assert_eq!(next_five_smooth(321), 324);
        assert_eq!(next_five_smooth(2049), 2160);
    }

    fn band(x0: isize, y0: isize, w: usize, h: usize) -> Band {
        Band { x0, y0, w, h }
    }

    #[test]
    fn real_band_forward_matches_full_spectrum_on_the_band() {
        // Against the plain complex transform of the same real samples:
        // even/odd/single heights, odd widths, both output
        // orientations, and every way a band can sit on the mirror identity
        // — symmetric, whole-axis (signed and from 0), off-centre, one-sided
        // negative (no opposite in the band: transformed), straddling
        // (some opposites in, some out; rows one-sided, so the fill reads
        // beyond the band's rows) and touching Nyquist on both axes.
        for (w, h, band, seed) in [
            (16usize, 12usize, band(-3, -2, 7, 5), 80u64),
            (15, 9, band(-7, -4, 15, 9), 81),
            (12, 8, band(0, 0, 12, 8), 82),
            (10, 9, band(2, -3, 4, 6), 83),
            (16, 10, band(-6, -3, 4, 6), 84),
            (16, 10, band(-5, 0, 8, 5), 85),
            (16, 12, band(-7, -6, 16, 12), 86),
            (8, 1, band(-1, 0, 3, 1), 87),
        ] {
            let mut rng = SplitMix64::new(seed);
            let real: Vec<f64> = (0..w * h).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let mut full: Field = Field::from_real(w, h, &real);
            full.fft2_inplace(false);
            let bound = 1e-13 * full.iter().map(Complex::norm).fold(0.0, f64::max);
            let mut scratch = FftScratch::new();
            for (cs, rs) in [(1, band.w), (band.h, 1)] {
                let mut re = vec![f64::NAN; band.w * band.h];
                let mut im = re.clone();
                fft2_real_band(
                    &real,
                    None,
                    (w, h),
                    band,
                    &mut scratch,
                    (&mut re, &mut im),
                    (cs, rs),
                );
                for b in 0..band.h {
                    for a in 0..band.w {
                        let want =
                            full.at(wrap(band.x0 + a as isize, w), wrap(band.y0 + b as isize, h));
                        let got = Complex::new(re[a * cs + b * rs], im[a * cs + b * rs]);
                        assert!((got - want).norm() <= bound, "{w}x{h} bin ({a},{b})");
                    }
                }
            }
        }
    }

    /// [`fft2_real_band`] as it was before it knew anything about zeros or
    /// mirrors: every row pair and every band column transformed. Kept as
    /// the oracle of the row skip and, bin for bin, of the mirror fill.
    fn fft2_real_band_dense(real: &[f64], (w, h): (usize, usize), band: Band) -> Vec<Complex> {
        let (plan_w, plan_h) = (FftPlan::<f64>::get(w), FftPlan::<f64>::get(h));
        let mut s = FftScratch::<f64>::new();
        let (mut t_re, mut t_im) = (vec![0.0; band.w * h], vec![0.0; band.w * h]);
        for y in (0..h).step_by(2) {
            let paired = y + 1 < h;
            let mut row_re = real[y * w..(y + 1) * w].to_vec();
            let mut row_im = match paired {
                true => real[(y + 1) * w..(y + 2) * w].to_vec(),
                false => vec![0.0; w],
            };
            plan_w.execute_unscaled_split(&mut row_re, &mut row_im, &mut s, false);
            for a in 0..band.w {
                let k = wrap(band.x0 + a as isize, w);
                let km = (w - k) % w;
                let (zkr, zki, zmr, zmi) = (row_re[k], row_im[k], row_re[km], row_im[km]);
                let i = a * h + y;
                if paired {
                    t_re[i] = 0.5 * (zkr + zmr);
                    t_im[i] = 0.5 * (zki - zmi);
                    t_re[i + 1] = 0.5 * (zki + zmi);
                    t_im[i + 1] = 0.5 * (zmr - zkr);
                } else {
                    t_re[i] = zkr;
                    t_im[i] = zki;
                }
            }
        }
        let mut out = vec![Complex::ZERO; band.w * band.h];
        for a in 0..band.w {
            let (cr, ci) = (&mut t_re[a * h..(a + 1) * h], &mut t_im[a * h..(a + 1) * h]);
            plan_h.execute_unscaled_split(cr, ci, &mut s, false);
            for b in 0..band.h {
                let y = wrap(band.y0 + b as isize, h);
                out[b * band.w + a] = Complex::new(cr[y], ci[y]);
            }
        }
        out
    }

    #[test]
    fn row_skip_and_mirror_fill_equal_the_dense_transform_under_eq() {
        // `==`, not bits: a skipped pair contributes +0.0 where its
        // transform would contribute zeros of either sign, and nothing else
        // may differ. NaN (never skipped) must come out wherever the dense
        // transform puts it.
        let same = |a: f64, b: f64| a == b || (a.is_nan() && b.is_nan());
        for (w, h, band) in [
            (20usize, 16usize, band(-4, -3, 9, 7)),
            (15, 9, band(-6, -2, 11, 6)),
            (12, 8, band(0, 0, 12, 8)),
        ] {
            let mut rng = SplitMix64::new((w * h) as u64);
            let mut masks: Vec<(&str, Vec<f64>)> = Vec::new();
            for name in ["sparse rows a", "sparse rows b", "sparse rows c"] {
                // Lit rows one in three: empty pairs, half-lit pairs, lit pairs.
                let mut m = vec![0.0; w * h];
                for row in m.chunks_exact_mut(w) {
                    if rng.range_f64(0.0, 1.0) < 0.33 {
                        row.iter_mut().for_each(|v| *v = rng.range_f64(0.0, 1.0));
                    }
                }
                masks.push((name, m));
            }
            masks.push(("empty", vec![0.0; w * h]));
            let mut one = vec![0.0; w * h];
            one[(h - 1) * w + 3] = 1.0;
            masks.push(("one pixel", one.clone()));
            one[2 * w..3 * w].fill(-0.0);
            masks.push(("negative-zero row", one.clone()));
            one[5 * w + 1] = f64::NAN;
            masks.push(("NaN pixel", one));
            // Scanned extents, and whole rows: extents that hold zeros.
            let whole = vec![(0, w); h];
            for ((name, mask), extents) in masks
                .iter()
                .flat_map(|m| [(m, None), (m, Some(&whole[..]))])
            {
                // Every bin of the grid, so the opposite of any bin is there.
                let every = Band { x0: 0, y0: 0, w, h };
                let dense = fft2_real_band_dense(mask, (w, h), every);
                let mut re = vec![f64::NAN; band.w * band.h];
                let mut im = re.clone();
                let mut scratch = FftScratch::new();
                fft2_real_band(
                    mask,
                    extents,
                    (w, h),
                    band,
                    &mut scratch,
                    (&mut re, &mut im),
                    (1, band.w),
                );
                for b in 0..band.h {
                    for a in 0..band.w {
                        let (kx, ky) = (band.x0 + a as isize, band.y0 + b as isize);
                        let opposite_in_band = wrap(-kx - band.x0, w) < band.w;
                        let want = if 2 * wrap(kx, w) > w && opposite_in_band {
                            dense[wrap(-ky, h) * w + wrap(-kx, w)].conj()
                        } else {
                            dense[wrap(ky, h) * w + wrap(kx, w)]
                        };
                        let i = b * band.w + a;
                        assert!(
                            same(re[i], want.re) && same(im[i], want.im),
                            "{w}x{h} {name}, bin ({kx},{ky}): {}{:+}i vs {want}",
                            re[i],
                            im[i]
                        );
                    }
                }
                if *name == "NaN pixel" {
                    assert!(re.iter().all(|v| v.is_nan()), "{w}x{h}: NaN was dropped");
                }
                if *name == "empty" {
                    assert!(re.iter().chain(&im).all(|&v| v == 0.0));
                }
            }
        }
    }

    /// The complex inverse of live rows through the column blocks, as a
    /// row-major field.
    fn complex_pass(rows: &[Complex], (w, h): (usize, usize)) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; w * h];
        let mut re: Vec<f64> = rows.iter().map(|z| z.re).collect();
        let mut im: Vec<f64> = rows.iter().map(|z| z.im).collect();
        let emit =
            |x0, lanes, cr: &mut [f64], ci: &mut [f64], _: (&mut Vec<f64>, &mut Vec<f64>)| {
                for y in 0..h {
                    for j in 0..lanes {
                        let i = y * lanes + j;
                        out[y * w + x0 + j] = Complex::new(cr[i], ci[i]);
                    }
                }
            };
        ifft2_column_blocks((&mut re, &mut im), (w, h), &mut FftScratch::new(), emit);
        out
    }

    #[test]
    fn live_rows_inverse_matches_full_inverse() {
        // More columns than one block holds, so the last block is short.
        for (w, h, live) in [(12usize, 10usize, 5usize), (45, 60, 28), (40, 9, 9)] {
            let rows = random_signal(live * w, 91);
            let mut spec: Field = Field::zeros(w, h);
            for (i, &z) in rows.iter().enumerate() {
                spec.set(i % w, i / w, z);
            }
            spec.fft2_inplace(true);
            for (i, &got) in complex_pass(&rows, (w, h)).iter().enumerate() {
                // Unscaled, so the bound grows with the pixel count: 1e-12
                // at 12×10, as before the column blocks.
                let want = spec.at(i % w, i / w).scale((w * h) as f64);
                assert!(
                    (got - want).norm() < 1e-12 * (w * h) as f64 / 120.0,
                    "{w}x{h} pixel {i}"
                );
            }
        }
    }

    /// The real-output pass over the `ky ≥ 0` rows of a spectrum, as an
    /// image (row-major).
    fn real_pass(rows: &[Complex], (w, h): (usize, usize)) -> Vec<f64> {
        let mut out = vec![f64::NAN; w * h];
        let mut re: Vec<f64> = rows.iter().map(|z| z.re).collect();
        let mut im: Vec<f64> = rows.iter().map(|z| z.im).collect();
        let emit = |lanes: &[[usize; 2]], cr: &[f64], ci: &[f64], cs: usize| {
            for (j, lane) in lanes.iter().enumerate() {
                // Past the last column of an odd width: nothing to write.
                for (&x, values) in lane.iter().zip([cr, ci]) {
                    if x < w {
                        for y in 0..h {
                            out[y * w + x] = values[j * cs + y];
                        }
                    }
                }
            }
        };
        let mut scratch = FftScratch::new();
        ifft2_live_rows((&mut re, &mut im), (w, h), &mut scratch, emit);
        out
    }

    /// The same rows read by the pixel sampler at `pixels` (NaN elsewhere).
    fn sampled(rows: &[Complex], (w, h): (usize, usize), pixels: &[usize]) -> Vec<f64> {
        let mut re: Vec<f64> = rows.iter().map(|z| z.re).collect();
        let mut im: Vec<f64> = rows.iter().map(|z| z.im).collect();
        let roots: Vec<Complex> = (0..h)
            .map(|k| Complex::from_angle(std::f64::consts::TAU * k as f64 / h as f64))
            .collect();
        let roots_re: Vec<f64> = roots.iter().map(|z| z.re).collect();
        let roots_im: Vec<f64> = roots.iter().map(|z| z.im).collect();
        let mut out = vec![f64::NAN; w * h];
        let (roots, mut scratch) = ((&roots_re[..], &roots_im[..]), FftScratch::new());
        sample_live_rows(
            (&mut re, &mut im),
            (w, h),
            roots,
            pixels,
            &mut scratch,
            &mut out,
        );
        out
    }

    proptest! {
        /// Random sizes (odd included), random real images
        /// band-limited along y, random pixel requests: the real-output
        /// pass and the pixel sampler equal the complex pass over the whole
        /// spectrum within rounding, and a sampled pixel's bits do not
        /// depend on what was requested with it.
        #[test]
        fn real_output_pass_matches_complex_pass_and_roi_is_bitwise(
            seed in 0u64..100_000,
            w in five_smooth(4..73),
            h in five_smooth(4..73),
        ) {
            let mut rng = SplitMix64::new(seed);
            let real: Vec<f64> = (0..w * h).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let mut spec: Field = Field::from_real(w, h, &real);
            spec.fft2_inplace(false);
            // Keep `|ky| ≤ span`; `span = h/2` keeps everything, Nyquist too.
            let span = rng.range_usize(0, h / 2 + 1);
            let mut rows: Vec<Complex> = spec.iter().collect();
            for (ky, row) in rows.chunks_exact_mut(w).enumerate() {
                if ky.min(h - ky) > span {
                    row.fill(Complex::ZERO);
                }
            }

            let complex = complex_pass(&rows, (w, h));

            let half = &rows[..(span + 1) * w];
            let full = real_pass(half, (w, h));
            let all: Vec<usize> = (0..w * h).collect();
            let every = sampled(half, (w, h), &all);
            let bound = 1e-12 * complex.iter().map(|z| z.norm()).fold(0.0, f64::max);
            for (i, want) in complex.iter().enumerate() {
                for got in [full[i], every[i]] {
                    prop_assert!(
                        (got - want.re).abs() <= bound && want.im.abs() <= bound,
                        "{}x{} span {}, pixel {}: {} vs {}", w, h, span, i, got, want
                    );
                }
            }

            let mut request: Vec<usize> = (0..rng.range_usize(0, 2 * w))
                .map(|_| rng.range_usize(0, w * h))
                .collect();
            request.sort_unstable();
            request.dedup();
            let roi = sampled(half, (w, h), &request);
            for (i, (&got, &all)) in roi.iter().zip(&every).enumerate() {
                if request.binary_search(&i).is_ok() {
                    prop_assert_eq!(got.to_bits(), all.to_bits(), "{}x{}, pixel {}", w, h, i);
                } else {
                    prop_assert!(got.is_nan(), "{}x{}, pixel {} written", w, h, i);
                }
            }
        }
    }

    #[test]
    fn pointwise_helpers_match_scalar_definitions() {
        let (w, h) = (8, 4);
        let a = random_field(w, h, 50);
        let b = random_field(w, h, 51);
        let idx = |i: usize| (i % w, i / w);
        let product = a.mul_pointwise(&b);
        let mut dst: Field = Field::zeros(w, h);
        a.mul_pointwise_into(&b, &mut dst);
        assert_eq!(dst, product);
        for i in 0..w * h {
            let (x, y) = idx(i);
            assert!((dst.at(x, y) - a.at(x, y) * b.at(x, y)).norm() < 1e-12);
        }
        let norms = a.norm_sq_vec();
        for (i, v) in norms.iter().enumerate() {
            let (x, y) = idx(i);
            assert!((v - a.at(x, y).norm_sq()).abs() < 1e-12);
        }
        assert!((a.energy() - norms.iter().sum::<f64>()).abs() < 1e-12);
    }
}
