//! The band-limited, Hermitian-aware SOCS pipeline and its reusable scratch
//! state.
//!
//! Every transfer function is a hard pupil disk, so each coherent field
//! `z_k = M ⊗ h_k` is band-limited to its kernel's box and the intensity
//! `Σ_k w_k |z_k|²` to `±span` ([`SocsStacks`]); and Hopkins' sum takes a
//! **real** mask to a **real** intensity, so both full-grid ends of the
//! pipeline work on half a spectrum. One [`LithoWorkspace::images`] call
//! runs
//!
//! 1. one forward real FFT of the mask, keeping only the union of the
//!    kernel boxes ([`fft2_real_band`]): rows are read only inside their
//!    extents (a [`crate::RasterCache`]'s spans, or scanned), all-zero row
//!    pairs are not transformed, and a negative-frequency column is the
//!    conjugate mirror of its opposite, `F(−kx, ky) = conj F(kx, −ky)`;
//! 2. per kernel: the product over its patch, written at the *origin* of a
//!    coarse-grid field (a circular spectrum shift is a unit-modulus
//!    modulation in space, so `|z_k|²` is unchanged), a row-pruned
//!    coarse-grid inverse whose columns run a block at a time through one
//!    batched transform ([`ifft2_column_blocks`]), and `w_k·|z_k|²` into
//!    that kernel's strip, block by block — `z_k` is complex, so this
//!    stage has no symmetry to use;
//! 3. per image: the strips folded in ascending kernel order and turned
//!    column-major ([`unblock`], data movement only), a forward
//!    real FFT of the coarse intensity for the `ky ≥ 0` half of its
//!    `|f| ≤ span` bins, those copied into live rows of the full-grid
//!    spectrum (trigonometric interpolation), and one inverse
//!    ([`ifft2_live_rows`]) that never forms rows `ky < 0` — after the row
//!    pass they are the conjugates of the rows it has — and transforms real
//!    columns two at a time, `R(2p, ·) + i·R(2p + 1, ·)`. When only some
//!    pixels are asked for, the column pass is skipped: each is a direct
//!    Hermitian sum over the live rows ([`sample_live_rows`]), 28 terms on
//!    a via clip.
//!
//! This is exact, not an approximation: the result differs from a full-grid
//! convolution per kernel by rounding only. [`LithoWorkspace::vjp`] is its
//! adjoint for the nominal stack, built from the same pieces run in
//! transpose; nothing else in the crate convolves a kernel. After the first
//! call at a given geometry neither performs heap allocation beyond the
//! per-call task lists.
//!
//! The workspace is generic over the simulation [`Scalar`]: masks enter and
//! intensities leave as `f64`, everything in between runs at the workspace
//! precision, and each kernel weight (with every transform normalisation
//! folded in) is narrowed from the `f64` reference at the point of use.
//!
//! A pixel's bits are a function of (mask, x, y, frame or pixel list,
//! precision, SIMD mode) alone, which is three **bitwise** contracts:
//!
//! * *Any worker count* (images and adjoint). Accumulation granularity is
//!   one strip per *kernel* (not per task) and strips are reduced in
//!   ascending kernel order: the per-pixel summation tree is a fixed left
//!   fold however the kernels are chunked across tasks, and every other
//!   stage is a pure function of its input.
//! * *A listed pixel does not depend on what else is listed* (so
//!   [`crate::LithoEngine::aerial_image_cols`], every pixel of its columns,
//!   matches the correction loop's footprint bit for bit). A list and the
//!   frame agree to rounding only (≤ 1e-12 of the peak in `f64`): a column
//!   FFT and a direct sum round differently.
//! * *Multi-state ≡ single-state.* The mask spectrum is shared but not
//!   altered.
//!
//! Where a batch of columns pays depends on the column length. A batch is
//! one interleaved Stockham pipeline (stride × B; bit identical to single
//! calls) and pays while block and partner stay in L1. At the full-grid
//! lengths it does not: an 8-column block of 768 points is 98 KB where
//! one column is 12 KB (upsample inverse 4.1 → 4.9–5.6 ms at
//! B = 8/16/32), and 500 points × 8 lanes took 15.3 µs batched against
//! 10.3 µs as single calls (`f64`), so [`ifft2_live_rows`] transforms one
//! column per call. At the 60-point coarse grid it does: 16 columns are
//! 15 KB, and one batched call takes 0.55× the time of 16 single calls
//! (`f64`, 2.5 against 4.3 µs; 0.24× in `f32` at 16 and 32 lanes; median
//! per-run ratios of the `fft2` bench's `fft1_block` rows on a 2-vCPU
//! AVX2 host), so the kernel stage batches ([`FftPlan::block_lanes`]
//! sizes the block).
//! All 60 columns in one batch (57.6 KB + partner) fall out of L1 again:
//! 9 against 19 GFLOP/s at 16 lanes.

use crate::fft::{
    ensure, fft2_real_band, ifft2_column_blocks, ifft2_live_rows, sample_live_rows, wrap, Band,
    FftScratch,
};
use crate::optics::{KernelPatch, SocsStacks};
use crate::plan::FftPlan;
use crate::pool::WorkerPool;
use crate::raster::MaskRef;
use crate::scalar::Scalar;
use crate::simd;

/// Scratch owned by one parallel task slot.
#[derive(Clone, Debug, Default)]
struct WorkSlot<T: Scalar> {
    /// Live rows of the spectrum being inverted (re lane): a kernel's
    /// product on the coarse grid, then an image's bins on the full grid;
    /// in the adjoint, also the lane of a forward row transform.
    rows_re: Vec<T>,
    /// Live rows (im lane).
    rows_im: Vec<T>,
    /// Band of the coarse intensity spectrum (re lane); in the adjoint,
    /// the cotangent's band, then the patch rows of a kernel's
    /// `C̃ ⊙ z̃_k` transformed along y, row-major.
    band_re: Vec<T>,
    /// The same, im lane.
    band_im: Vec<T>,
    /// An image's folded coarse intensity, column-major for [`upsample`].
    coarse: Vec<T>,
    scratch: FftScratch<T>,
}

/// Reusable buffers for the aerial-image pipeline.
#[derive(Clone, Debug, Default)]
pub struct LithoWorkspace<T: Scalar = f64> {
    /// Mask spectrum over `SocsStacks::band`, row-major (re lane).
    spec_re: Vec<T>,
    /// Mask spectrum (im lane).
    spec_im: Vec<T>,
    forward_scratch: FftScratch<T>,
    slots: Vec<WorkSlot<T>>,
    /// Per-kernel accumulator strips on the coarse grid in the column
    /// blocks of [`ifft2_column_blocks`] (see [`unblock`]), one after
    /// another in state then kernel order; in the adjoint, each kernel's
    /// patch-box gradient (re lane, then im lane).
    strips: Vec<T>,
    /// The adjoint's coarse cotangent, column-major.
    coarse: Vec<T>,
}

impl<T: Scalar> LithoWorkspace<T> {
    /// An empty workspace; buffers are sized lazily on first use.
    pub fn new() -> LithoWorkspace<T> {
        LithoWorkspace::default()
    }

    /// Computes one SOCS intensity `Σ_k w_k |M ⊗ h_k|²` of the real-valued
    /// `mask` raster per entry of `states` (`true` = defocused stack) into
    /// the matching entry of `outputs`, from a single forward mask FFT.
    /// A [`crate::RasterCache::mask`] carries the per-row spans that bound
    /// its nonzero pixels; for a plain `&Grid` the forward transform scans
    /// for them. The result is the same bits either way.
    ///
    /// With `pixels = Some(list)` (row-major, ascending) only those are
    /// written, each a direct sum over the live spectrum rows. `parallelism`
    /// bounds the tasks per stage and never changes a bit of the result.
    ///
    /// # Panics
    ///
    /// Panics when `outputs.len() != states.len()`, on any sample-count
    /// mismatch with the stacks' grid, or on an out-of-range pixel index.
    #[allow(clippy::too_many_arguments)]
    pub fn images<'a>(
        &mut self,
        stacks: &SocsStacks<T>,
        mask: impl Into<MaskRef<'a>>,
        states: &[bool],
        pixels: Option<&[usize]>,
        pool: &WorkerPool,
        parallelism: usize,
        outputs: &mut [&mut [f64]],
    ) {
        let (w, h) = stacks.size;
        let m2 = stacks.coarse.0 * stacks.coarse.1;
        let MaskRef { grid, extents } = mask.into();
        assert_eq!(grid.len(), w * h, "mask sample count mismatch");
        assert_eq!(outputs.len(), states.len(), "one output per state");
        for out in outputs.iter() {
            assert_eq!(out.len(), w * h, "intensity sample count mismatch");
        }
        // Each state is chunked as if it were alone, one task per chunk.
        let mut chunks: Vec<&[KernelPatch<T>]> = Vec::new();
        for &defocused in states {
            let stack = &stacks.stacks[defocused as usize];
            let tasks = parallelism.clamp(1, stack.len().max(1));
            chunks.extend(stack.chunks(stack.len().div_ceil(tasks).max(1)));
        }
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        let slots = chunks.len().max(states.len());
        if self.slots.len() < slots {
            self.slots.resize_with(slots, WorkSlot::default);
        }
        ensure(&mut self.strips, total * m2);

        let band = stacks.band;
        fft2_real_band(
            grid.data(),
            extents,
            (w, h),
            band,
            &mut self.forward_scratch,
            (
                ensure(&mut self.spec_re, band.w * band.h),
                ensure(&mut self.spec_im, band.w * band.h),
            ),
            (1, band.w),
        );

        // Kernel fan-out. A task statically owns its kernels and strips, so
        // results do not depend on which worker claims it.
        let spectrum = (&self.spec_re[..], &self.spec_im[..]);
        let mut rest = &mut self.strips[..total * m2];
        let mut units = Vec::new();
        for (&patches, slot) in chunks.iter().zip(&mut self.slots) {
            let (head, tail) = rest.split_at_mut(patches.len() * m2);
            rest = tail;
            units.push((patches, slot, head));
        }
        pool.run_with_slots(&mut units, |_, (patches, slot, strips)| {
            convolve_chunk(stacks, spectrum, patches, slot, strips);
        });

        // Per image: fold the state's strips, then interpolate.
        let mut rest = &mut self.strips[..total * m2];
        let mut units = Vec::new();
        for ((&defocused, out), slot) in states.iter().zip(outputs.iter_mut()).zip(&mut self.slots)
        {
            let nk = stacks.stacks[defocused as usize].len();
            let (head, tail) = rest.split_at_mut(nk * m2);
            rest = tail;
            units.push((slot, head, &mut **out));
        }
        pool.run_with_slots(&mut units, |_, (slot, strips, out)| {
            if strips.is_empty() {
                match pixels {
                    None => out.fill(0.0),
                    Some(p) => p.iter().for_each(|&i| out[i] = 0.0),
                }
                return;
            }
            // Ascending kernel order: the canonical summation tree.
            let (first, others) = strips.split_at_mut(m2);
            for strip in others.chunks_exact(m2) {
                for (dst, &v) in first.iter_mut().zip(strip) {
                    *dst += v;
                }
            }
            let mut coarse = std::mem::take(&mut slot.coarse);
            unblock(first, stacks.coarse, ensure(&mut coarse, m2));
            upsample(stacks, &coarse[..m2], slot, pixels, out);
            slot.coarse = coarse;
        });
    }

    /// The adjoint of the nominal-focus image: writes `∂⟨C, I⟩/∂M` at
    /// `mask` for the real `cotangent` `C` into `gradient`, by transposing
    /// [`LithoWorkspace::images`] stage by stage:
    ///
    /// 1. the mask's band spectrum, as `images` forms it;
    /// 2. the transpose of the upsample: `C`'s `image_band` bins placed on
    ///    the coarse spectrum and one real-output coarse inverse, the coarse
    ///    cotangent `C̃`;
    /// 3. per kernel: `z̃_k` exactly as the forward pass forms it, then
    ///    `C̃ ⊙ z̃_k`, a coarse forward transform read over the patch box and
    ///    multiplied by `2·w_k·conj(patch)`, into that kernel's strip;
    /// 4. the strips folded onto the band in ascending kernel order, and one
    ///    real-output full-grid inverse of its Hermitian part.
    ///
    /// No stage needs a bigger grid: `C̃` holds `|f| ≤ span` and `z̃_k` holds
    /// `[0, pw)` with `pw ≤ span + 1`, so two frequencies of `C̃ ⊙ z̃_k` that
    /// land on one box bin would be at most `2·span` apart, less than the
    /// coarse size. Bitwise identical for any `parallelism`, as `images` is.
    ///
    /// # Panics
    ///
    /// Panics on any sample-count mismatch with the stacks' grid.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn vjp(
        &mut self,
        stacks: &SocsStacks<T>,
        mask: &[f64],
        cotangent: &[f64],
        pool: &WorkerPool,
        parallelism: usize,
        gradient: &mut [f64],
    ) {
        let (w, h) = stacks.size;
        let (mx, my) = stacks.coarse;
        for len in [mask.len(), cotangent.len(), gradient.len()] {
            assert_eq!(len, w * h, "sample count mismatch");
        }
        let stack = &stacks.stacks[0];
        let tasks = parallelism.clamp(1, stack.len().max(1));
        let chunks: Vec<&[KernelPatch<T>]> =
            stack.chunks(stack.len().div_ceil(tasks).max(1)).collect();
        if self.slots.len() < chunks.len().max(1) {
            self.slots
                .resize_with(chunks.len().max(1), WorkSlot::default);
        }
        let area = |p: &KernelPatch<T>| 2 * p.band.w * p.band.h;
        let total: usize = stack.iter().map(area).sum();
        ensure(&mut self.strips, total);

        let band = stacks.band;
        let (spec_re, spec_im) = (
            ensure(&mut self.spec_re, band.w * band.h),
            ensure(&mut self.spec_im, band.w * band.h),
        );
        fft2_real_band(
            mask,
            None,
            (w, h),
            band,
            &mut self.forward_scratch,
            (&mut *spec_re, &mut *spec_im),
            (1, band.w),
        );
        let coarse = ensure(&mut self.coarse, mx * my);
        downsample_adjoint(stacks, cotangent, &mut self.slots[0], coarse);

        let (spectrum, coarse) = ((&*spec_re, &*spec_im), &*coarse);
        let mut rest = &mut self.strips[..total];
        let mut units = Vec::new();
        for (&patches, slot) in chunks.iter().zip(&mut self.slots) {
            let len = patches.iter().map(area).sum();
            let (head, tail) = rest.split_at_mut(len);
            rest = tail;
            units.push((patches, slot, head));
        }
        pool.run_with_slots(&mut units, |_, (patches, slot, strips)| {
            adjoint_chunk(stacks, spectrum, coarse, patches, slot, strips);
        });

        // Ascending kernel order onto the band: the canonical summation tree.
        spec_re.fill(T::ZERO);
        spec_im.fill(T::ZERO);
        let mut strips = &self.strips[..total];
        for patch in stack {
            let Band {
                x0,
                y0,
                w: pw,
                h: ph,
            } = patch.band;
            let (re, tail) = strips.split_at(pw * ph);
            let (im, tail) = tail.split_at(pw * ph);
            strips = tail;
            let corner = (y0 - band.y0) as usize * band.w + (x0 - band.x0) as usize;
            for b in 0..ph {
                let (s, p) = (corner + b * band.w, b * pw);
                for a in 0..pw {
                    spec_re[s + a] += re[p + a];
                    spec_im[s + a] += im[p + a];
                }
            }
        }
        real_inverse(stacks, (spec_re, spec_im), &mut self.slots[0], gradient);
    }
}

/// One task's kernels: product over the patch at the origin of the coarse
/// field → row-pruned inverse → `w·|z|²` into the kernel's own strip, in
/// column blocks.
fn convolve_chunk<T: Scalar>(
    stacks: &SocsStacks<T>,
    spectrum: (&[T], &[T]),
    patches: &[KernelPatch<T>],
    slot: &mut WorkSlot<T>,
    strips: &mut [T],
) {
    let (w, h) = stacks.size;
    let (mx, my) = stacks.coarse;
    let mode = simd::active_mode();
    // Unscaled transforms: the coherent fields carry a factor `w·h`, the
    // coarse intensity spectrum another `mx·my`; fold both into the weight.
    let norm = 1.0 / ((w * h) as f64 * (w * h) as f64 * (mx * my) as f64);
    for (patch, strip) in patches.iter().zip(strips.chunks_exact_mut(mx * my)) {
        let WorkSlot {
            rows_re,
            rows_im,
            scratch,
            ..
        } = slot;
        let rows = patch_rows(stacks, spectrum, patch, (rows_re, rows_im));
        strip.fill(T::ZERO);
        let weight = T::from_f64(patch.weight * norm);
        // `z_k` is complex: every column, a block of them per transform.
        ifft2_column_blocks(rows, (mx, my), scratch, |x0, lanes, re, im, _| {
            let acc = &mut strip[x0 * my..(x0 + lanes) * my];
            simd::acc_norm_sq(mode, re, im, weight, acc);
        });
    }
}

/// A kernel's product with the mask spectrum over its patch, written at the
/// origin of the coarse spectrum's `ph` live rows of `mx`, zero elsewhere.
fn patch_rows<'a, T: Scalar>(
    stacks: &SocsStacks<T>,
    (spec_re, spec_im): (&[T], &[T]),
    patch: &KernelPatch<T>,
    (rows_re, rows_im): (&'a mut Vec<T>, &'a mut Vec<T>),
) -> (&'a mut [T], &'a mut [T]) {
    let mx = stacks.coarse.0;
    let band = stacks.band;
    let mode = simd::active_mode();
    let Band {
        x0,
        y0,
        w: pw,
        h: ph,
    } = patch.band;
    let rows_re = ensure(rows_re, ph * mx);
    let rows_im = ensure(rows_im, ph * mx);
    let corner = (y0 - band.y0) as usize * band.w + (x0 - band.x0) as usize;
    for b in 0..ph {
        let (s, p, d) = (corner + b * band.w, b * pw, b * mx);
        simd::cmul(
            mode,
            &spec_re[s..s + pw],
            &spec_im[s..s + pw],
            &patch.re[p..p + pw],
            &patch.im[p..p + pw],
            &mut rows_re[d..d + pw],
            &mut rows_im[d..d + pw],
        );
        rows_re[d + pw..d + mx].fill(T::ZERO);
        rows_im[d + pw..d + mx].fill(T::ZERO);
    }
    (rows_re, rows_im)
}

/// The kernel stage's column blocks (the block of `n` columns from `x0`
/// holds `(x0 + j, y)` at `x0·my + y·n + j`) into column-major order.
fn unblock<T: Scalar>(blocks: &[T], (mx, my): (usize, usize), out: &mut [T]) {
    let lanes = FftPlan::<T>::get(my).block_lanes();
    for x0 in (0..mx).step_by(lanes) {
        let n = lanes.min(mx - x0);
        let span = x0 * my..(x0 + n) * my;
        simd::transpose_strided(&blocks[span.clone()], n, my, n, &mut out[span], my, false);
    }
}

/// Fourier-interpolates a coarse intensity (column-major, `x·my + y`) to
/// the full grid: its spectrum's `image_band` bins become the live rows of
/// the full-grid spectrum, whose inverse is the image. The image is real,
/// so only the `ky ≥ 0` half of the band is computed, scattered and
/// inverted ([`ifft2_live_rows`] reads the other half as its mirror) —
/// or, for `pixels`, each summed over the rows ([`sample_live_rows`]).
fn upsample<T: Scalar>(
    stacks: &SocsStacks<T>,
    coarse: &[T],
    slot: &mut WorkSlot<T>,
    pixels: Option<&[usize]>,
    out: &mut [f64],
) {
    let (w, h) = stacks.size;
    let (mx, my) = stacks.coarse;
    let ib = stacks.image_band;
    // `|ky| ≤ span`, or the whole axis from 0: either way rows
    // `ky = 0..=ib.h / 2` and their mirrors are the band.
    debug_assert!(ib.y0 == 0 || ib.y0 == -((ib.h / 2) as isize));
    let half = ib.h / 2 + 1;
    let band_re = ensure(&mut slot.band_re, ib.w * half);
    let band_im = ensure(&mut slot.band_im, ib.w * half);
    // Column-major storage is the row-major `my×mx` transpose, whose
    // spectrum is the transposed spectrum: ask for the transposed band and
    // store it back row-major.
    let transposed = Band {
        x0: 0,
        y0: ib.x0,
        w: half,
        h: ib.w,
    };
    fft2_real_band(
        coarse,
        None,
        (my, mx),
        transposed,
        &mut slot.scratch,
        (band_re, band_im),
        (ib.w, 1),
    );
    let rows_re = ensure(&mut slot.rows_re, half * w);
    let rows_im = ensure(&mut slot.rows_im, half * w);
    rows_re.fill(T::ZERO);
    rows_im.fill(T::ZERO);
    for b in 0..half {
        for a in 0..ib.w {
            let x = wrap(ib.x0 + a as isize, w);
            rows_re[b * w + x] = band_re[b * ib.w + a];
            rows_im[b * w + x] = band_im[b * ib.w + a];
        }
    }
    if let Some(pixels) = pixels {
        let roots = (&stacks.y_roots.0[..], &stacks.y_roots.1[..]);
        let scratch = &mut slot.scratch;
        sample_live_rows((rows_re, rows_im), (w, h), roots, pixels, scratch, out);
        return;
    }
    invert_into((rows_re, rows_im), (w, h), &mut slot.scratch, out);
}

/// The transpose of [`upsample`]: the `ky ≥ 0` half of the cotangent's
/// `image_band` bins placed on the coarse spectrum, inverted to the real
/// coarse cotangent, column-major (`x·my + y`). `image_band` is symmetric,
/// so its transpose reads the same bins.
fn downsample_adjoint<T: Scalar>(
    stacks: &SocsStacks<T>,
    cotangent: &[f64],
    slot: &mut WorkSlot<T>,
    out: &mut [T],
) {
    let (mx, my) = stacks.coarse;
    let ib = stacks.image_band;
    let half = ib.h / 2 + 1;
    let band_re = ensure(&mut slot.band_re, ib.w * half);
    let band_im = ensure(&mut slot.band_im, ib.w * half);
    let upper = Band {
        x0: ib.x0,
        y0: 0,
        w: ib.w,
        h: half,
    };
    fft2_real_band(
        cotangent,
        None,
        stacks.size,
        upper,
        &mut slot.scratch,
        (&mut *band_re, &mut *band_im),
        (1, ib.w),
    );
    let rows_re = ensure(&mut slot.rows_re, half * mx);
    let rows_im = ensure(&mut slot.rows_im, half * mx);
    rows_re.fill(T::ZERO);
    rows_im.fill(T::ZERO);
    for b in 0..half {
        for a in 0..ib.w {
            let x = wrap(ib.x0 + a as isize, mx);
            rows_re[b * mx + x] = band_re[b * ib.w + a];
            rows_im[b * mx + x] = band_im[b * ib.w + a];
        }
    }
    ifft2_live_rows(
        (rows_re, rows_im),
        (mx, my),
        &mut slot.scratch,
        |lanes, re, im, cs| {
            for (j, &[xa, xb]) in lanes.iter().enumerate() {
                let col = j * cs..j * cs + my;
                out[xa * my..(xa + 1) * my].copy_from_slice(&re[col.clone()]);
                if xb < mx {
                    out[xb * my..(xb + 1) * my].copy_from_slice(&im[col]);
                }
            }
        },
    );
}

/// One task's kernels of the adjoint: `z̃_k` as [`convolve_chunk`] forms
/// it, `C̃ ⊙ z̃_k` and its coarse forward transform along y in the same
/// column blocks, then along x over the patch's rows only, and
/// `2·w_k·conj(patch)` times the patch box into the kernel's strip (re
/// lane, then im lane).
fn adjoint_chunk<T: Scalar>(
    stacks: &SocsStacks<T>,
    spectrum: (&[T], &[T]),
    coarse: &[T],
    patches: &[KernelPatch<T>],
    slot: &mut WorkSlot<T>,
    mut strips: &mut [T],
) {
    let (w, h) = stacks.size;
    let (mx, my) = stacks.coarse;
    let mode = simd::active_mode();
    let (plan_x, plan_y) = (FftPlan::<T>::get(mx), FftPlan::<T>::get(my));
    // The forward pass's normalisation (see `convolve_chunk`).
    let norm = 1.0 / ((w * h) as f64 * (w * h) as f64 * (mx * my) as f64);
    let WorkSlot {
        rows_re,
        rows_im,
        band_re,
        band_im,
        scratch,
        ..
    } = slot;
    for patch in patches {
        let (pw, ph) = (patch.band.w, patch.band.h);
        let (out_re, tail) = std::mem::take(&mut strips).split_at_mut(pw * ph);
        let (out_im, tail) = tail.split_at_mut(pw * ph);
        strips = tail;
        let rows = patch_rows(stacks, spectrum, patch, (&mut *rows_re, &mut *rows_im));
        let field_re = ensure(band_re, ph * mx);
        let field_im = ensure(band_im, ph * mx);
        ifft2_column_blocks(rows, (mx, my), scratch, |x0, lanes, re, im, pong| {
            for y in 0..my {
                for j in 0..lanes {
                    let (c, i) = (coarse[(x0 + j) * my + y], y * lanes + j);
                    re[i] = c * re[i];
                    im[i] = c * im[i];
                }
            }
            plan_y.execute_batched(lanes, mode, re, im, pong.0, pong.1, false);
            // Only the patch's rows are read along x.
            for b in 0..ph {
                let (src, dst) = (b * lanes..(b + 1) * lanes, b * mx + x0..b * mx + x0 + lanes);
                field_re[dst.clone()].copy_from_slice(&re[src.clone()]);
                field_im[dst].copy_from_slice(&im[src]);
            }
        });
        let weight = T::from_f64(2.0 * patch.weight * norm);
        let rows = field_re
            .chunks_exact_mut(mx)
            .zip(field_im.chunks_exact_mut(mx));
        for (b, (lane_re, lane_im)) in rows.enumerate() {
            plan_x.execute_unscaled_split(lane_re, lane_im, scratch, false);
            for a in 0..pw {
                let (p, gr, gi) = (b * pw + a, lane_re[a], lane_im[a]);
                let (pr, pi) = (patch.re[p], patch.im[p]);
                out_re[p] = weight * (gr * pr + gi * pi);
                out_im[p] = weight * (gi * pr - gr * pi);
            }
        }
    }
}

/// The real part of the full-grid inverse of a band spectrum, which is the
/// inverse of its Hermitian part `½(S(f) + conj S(−f))`: only that part's
/// `ky ≥ 0` rows are formed, and [`ifft2_live_rows`] reads them as a real
/// image's spectrum.
fn real_inverse<T: Scalar>(
    stacks: &SocsStacks<T>,
    (spec_re, spec_im): (&[T], &[T]),
    slot: &mut WorkSlot<T>,
    out: &mut [f64],
) {
    let (w, h) = stacks.size;
    let band = stacks.band;
    let reach = band
        .y0
        .unsigned_abs()
        .max((band.y0 + band.h as isize - 1).unsigned_abs());
    let live = reach.min(h / 2) + 1;
    let rows_re = ensure(&mut slot.rows_re, live * w);
    let rows_im = ensure(&mut slot.rows_im, live * w);
    rows_re.fill(T::ZERO);
    rows_im.fill(T::ZERO);
    for b in 0..band.h {
        let ky = band.y0 + b as isize;
        let (y, ym) = (wrap(ky, h), wrap(-ky, h));
        for a in 0..band.w {
            let kx = band.x0 + a as isize;
            let (re, im) = (
                T::HALF * spec_re[b * band.w + a],
                T::HALF * spec_im[b * band.w + a],
            );
            if y < live {
                rows_re[y * w + wrap(kx, w)] += re;
                rows_im[y * w + wrap(kx, w)] += im;
            }
            if ym < live {
                rows_re[ym * w + wrap(-kx, w)] += re;
                rows_im[ym * w + wrap(-kx, w)] -= im;
            }
        }
    }
    invert_into((rows_re, rows_im), (w, h), &mut slot.scratch, out);
}

/// [`ifft2_live_rows`] into the row-major `f64` image `out`.
fn invert_into<T: Scalar>(
    rows: (&mut [T], &mut [T]),
    (w, h): (usize, usize),
    scratch: &mut FftScratch<T>,
    out: &mut [f64],
) {
    ifft2_live_rows(rows, (w, h), scratch, |lanes, re, im, cs| {
        for (y, row) in out.chunks_exact_mut(w).enumerate() {
            for (j, &[xa, xb]) in lanes.iter().enumerate() {
                row[xa] = re[j * cs + y].to_f64();
                if let Some(px) = row.get_mut(xb) {
                    *px = im[j * cs + y].to_f64();
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::tests::five_smooth;
    use crate::fft::{Field, Span};
    use crate::optics::{build_kernels, FullKernel, OpticsConfig};
    use crate::raster::RasterCache;
    use cardopc_geometry::{Grid, SplitMix64};
    use proptest::prelude::*;

    fn small_source() -> OpticsConfig {
        OpticsConfig {
            source_rings: 1,
            points_per_ring: 6,
            ..OpticsConfig::default()
        }
    }

    fn random_mask(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.range_f64(0.0, 1.0)).collect()
    }

    /// `mask` as a grid of the stacks' size, the form [`LithoWorkspace::images`] reads.
    fn grid<T: Scalar>(stacks: &SocsStacks<T>, mask: &[f64]) -> Grid {
        Grid::from_data(stacks.size.0, stacks.size.1, 1.0, mask.to_vec())
    }

    /// The *definition* of the SOCS intensity, kept here only: every kernel
    /// convolved on the full grid through the plain allocating field API.
    fn reference_intensity(w: usize, h: usize, mask: &[f64], kernels: &[FullKernel]) -> Vec<f64> {
        let mut spectrum: Field = Field::from_real(w, h, mask);
        spectrum.fft2_inplace(false);
        let mut intensity = vec![0.0; w * h];
        for k in kernels {
            let mut field = spectrum.mul_pointwise(&k.transfer);
            field.fft2_inplace(true);
            for (dst, z) in intensity.iter_mut().zip(field.iter()) {
                *dst += k.weight * z.norm_sq();
            }
        }
        intensity
    }

    /// The *definition* of the nominal image's adjoint, kept here only:
    /// `∇ = 2·Re Σ_k w_k·IFFT(FFT(C ⊙ A_k) ⊙ conj H_k)` with
    /// `A_k = IFFT(FFT(M) ⊙ H_k)`, every transform on the full grid.
    fn reference_vjp(
        (w, h): (usize, usize),
        mask: &[f64],
        cotangent: &[f64],
        kernels: &[FullKernel],
    ) -> Vec<f64> {
        let mut spectrum: Field = Field::from_real(w, h, mask);
        spectrum.fft2_inplace(false);
        let mut gradient = vec![0.0; w * h];
        for k in kernels {
            let mut field = spectrum.mul_pointwise(&k.transfer);
            field.fft2_inplace(true);
            let mut back: Field = Field::zeros(w, h);
            for (i, (&c, z)) in cotangent.iter().zip(field.iter()).enumerate() {
                back.set(i % w, i / w, z.scale(c));
            }
            back.fft2_inplace(false);
            for (i, t) in k.transfer.iter().enumerate() {
                let (x, y) = (i % w, i / w);
                back.set(x, y, back.at(x, y) * t.conj());
            }
            back.fft2_inplace(true);
            for (g, z) in gradient.iter_mut().zip(back.iter()) {
                *g += 2.0 * k.weight * z.re;
            }
        }
        gradient
    }

    /// One adjoint call on a fresh workspace.
    fn run_vjp<T: Scalar>(
        stacks: &SocsStacks<T>,
        mask: &[f64],
        cotangent: &[f64],
        parallelism: usize,
    ) -> Vec<f64> {
        let mut gradient = vec![f64::NAN; mask.len()];
        LithoWorkspace::<T>::new().vjp(
            stacks,
            mask,
            cotangent,
            &WorkerPool::new(4),
            parallelism,
            &mut gradient,
        );
        gradient
    }

    /// A cotangent of both signs.
    fn random_cotangent(n: usize, seed: u64) -> Vec<f64> {
        random_mask(n, seed)
            .into_iter()
            .map(|v| 2.0 * v - 1.0)
            .collect()
    }

    /// The adjoint at both precisions against the full-grid definition.
    fn check_vjp_against_reference(cfg: &OpticsConfig, w: usize, h: usize, pitch: f64, seed: u64) {
        let stacks = SocsStacks::build(cfg, w, h, pitch).unwrap();
        let mask = random_mask(w * h, seed);
        let cotangent = random_cotangent(w * h, seed + 1000);
        let kernels = build_kernels(cfg, w, h, pitch, 0.0).unwrap();
        let want = reference_vjp((w, h), &mask, &cotangent, &kernels);
        let what = format!("vjp {w}x{h} @ {pitch} nm");
        let got64 = run_vjp(&stacks, &mask, &cotangent, 2);
        assert_close(&got64, &want, 1e-9, &format!("{what}, f64"));
        let got32 = run_vjp(&stacks.to_precision::<f32>(), &mask, &cotangent, 2);
        assert_close(&got32, &want, 2e-4, &format!("{what}, f32"));
    }

    /// One pipeline call on a fresh workspace.
    fn run<T: Scalar>(
        stacks: &SocsStacks<T>,
        mask: &[f64],
        states: &[bool],
        pixels: Option<&[usize]>,
        parallelism: usize,
    ) -> Vec<Vec<f64>> {
        let pool = WorkerPool::new(4);
        let mut images = vec![vec![f64::NAN; mask.len()]; states.len()];
        let mut outputs: Vec<&mut [f64]> = images.iter_mut().map(Vec::as_mut_slice).collect();
        LithoWorkspace::<T>::new().images(
            stacks,
            &grid(stacks, mask),
            states,
            pixels,
            &pool,
            parallelism,
            &mut outputs,
        );
        images
    }

    fn peak(image: &[f64]) -> f64 {
        image.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }

    fn assert_close(got: &[f64], want: &[f64], tol: f64, what: &str) {
        let bound = tol * peak(want);
        assert!(bound > 0.0, "{what}: dark reference");
        for (i, (&g, &r)) in got.iter().zip(want).enumerate() {
            assert!((g - r).abs() <= bound, "{what}, pixel {i}: {g} vs {r}");
        }
    }

    /// Both stacks at both precisions against the full-grid definition.
    fn check_against_reference(cfg: &OpticsConfig, w: usize, h: usize, pitch: f64, seed: u64) {
        let stacks = SocsStacks::build(cfg, w, h, pitch).unwrap();
        let mask = random_mask(w * h, seed);
        let got64 = run(&stacks, &mask, &[false, true], None, 2);
        let got32 = run(
            &stacks.to_precision::<f32>(),
            &mask,
            &[false, true],
            None,
            2,
        );
        for (state, defocus) in [0.0, cfg.defocus].into_iter().enumerate() {
            let kernels = build_kernels(cfg, w, h, pitch, defocus).unwrap();
            let want = reference_intensity(w, h, &mask, &kernels);
            let what = format!("{w}x{h} @ {pitch} nm, state {state}");
            assert_close(&got64[state], &want, 1e-12, &format!("{what}, f64"));
            assert_close(&got32[state], &want, 2e-4, &format!("{what}, f32"));
        }
    }

    #[test]
    fn images_match_full_grid_reference_on_production_grids() {
        // The logic-tile and via-clip grids (coarse grids 180² and 60²).
        check_against_reference(&small_source(), 768, 768, 8.0, 1);
        check_against_reference(&small_source(), 500, 500, 4.0, 2);
        assert_eq!(
            SocsStacks::build(&OpticsConfig::default(), 768, 768, 8.0)
                .unwrap()
                .coarse,
            (180, 180)
        );
        assert_eq!(
            SocsStacks::build(&OpticsConfig::default(), 500, 500, 4.0)
                .unwrap()
                .coarse,
            (60, 60)
        );
    }

    #[test]
    fn images_match_full_grid_reference_on_odd_grids() {
        // Non-square 5-smooth, then odd × pow2.
        check_against_reference(&OpticsConfig::default(), 100, 60, 4.0, 3);
        check_against_reference(&OpticsConfig::default(), 75, 64, 8.0, 4);
        check_against_reference(&OpticsConfig::default(), 64, 64, 8.0, 5);
    }

    #[test]
    fn images_match_full_grid_reference_when_the_grid_is_the_coarse_grid() {
        // 40 nm pixels: 4·(NA/λ)·pitch ≥ 1, so |z|² aliases on the grid
        // itself, the coarse grid cannot be smaller, the shifted pupil
        // reaches Nyquist and the Hermitian fold is off.
        let cfg = OpticsConfig::default();
        let stacks = SocsStacks::build(&cfg, 16, 16, 40.0).unwrap();
        assert_eq!(stacks.coarse, (16, 16));
        assert_eq!(stacks.stacks[0].len(), cfg.source_points().len());
        check_against_reference(&cfg, 16, 16, 40.0, 6);
        // One axis only: at 34 nm `2·span + 1` rounds up to 15, which fills
        // a 15-point axis but fits a 16-point one.
        let stacks = SocsStacks::build(&cfg, 15, 16, 34.0).unwrap();
        assert_eq!(stacks.coarse, (15, 15));
        check_against_reference(&cfg, 15, 16, 34.0, 7);
    }

    #[test]
    fn vjp_matches_full_grid_reference_on_the_oracle_grids() {
        // The grids the image oracle runs on: production, odd axes, and
        // coarse grid = grid on both axes or on one.
        check_vjp_against_reference(&small_source(), 768, 768, 8.0, 11);
        check_vjp_against_reference(&small_source(), 500, 500, 4.0, 12);
        for (w, h, pitch, seed) in [
            (100usize, 60usize, 4.0, 13u64),
            (75, 64, 8.0, 14),
            (64, 64, 8.0, 15),
            (16, 16, 40.0, 16),
            (15, 16, 34.0, 17),
        ] {
            check_vjp_against_reference(&OpticsConfig::default(), w, h, pitch, seed);
        }
    }

    #[test]
    fn vjp_is_bit_identical_for_any_parallelism_and_workspace_history() {
        fn check<T: Scalar>(stacks: &SocsStacks<T>) {
            let (w, h) = stacks.size;
            let (mask, cotangent) = (random_mask(w * h, 43), random_cotangent(w * h, 44));
            let base = run_vjp(stacks, &mask, &cotangent, 1);
            for parallelism in [2usize, 3, 4, 16] {
                let got = run_vjp(stacks, &mask, &cotangent, parallelism);
                assert_eq!(got, base, "{w}x{h}, parallelism {parallelism}");
            }
            // After images on a larger grid, the same workspace agrees.
            let pool = WorkerPool::new(2);
            let mut ws = LithoWorkspace::<T>::new();
            let other = SocsStacks::build(&small_source(), 100, 60, 4.0).unwrap();
            let other = other.to_precision::<T>();
            let other_mask = random_mask(100 * 60, 45);
            let mut image = vec![0.0; other_mask.len()];
            ws.images(
                &other,
                &grid(&other, &other_mask),
                &[true],
                None,
                &pool,
                2,
                &mut [&mut image],
            );
            let mut got = vec![f64::NAN; w * h];
            ws.vjp(stacks, &mask, &cotangent, &pool, 3, &mut got);
            assert_eq!(got, base, "{w}x{h}, reused workspace");
        }
        for (w, h) in [(64, 64), (45, 40)] {
            let stacks = SocsStacks::build(&small_source(), w, h, 8.0).unwrap();
            check(&stacks);
            check(&stacks.to_precision::<f32>());
        }
    }

    /// The upsample as it was before the pipeline knew its output is real:
    /// every bin of `image_band` placed in a full-grid spectrum, every row
    /// and every column inverted (one column per transform) and the real
    /// part kept — through the plain [`Field`] API, sharing nothing with
    /// [`upsample`].
    fn upsample_reference<T: Scalar>(stacks: &SocsStacks<T>, coarse: &[T]) -> Vec<f64> {
        let ((w, h), (mx, my), ib) = (stacks.size, stacks.coarse, stacks.image_band);
        let mut small: Field<T> = Field::zeros(mx, my);
        for (i, &v) in coarse.iter().enumerate() {
            small.set(i / my, i % my, crate::fft::Complex::new(v.to_f64(), 0.0));
        }
        small.fft2_inplace(false);
        let mut full: Field<T> = Field::zeros(w, h);
        for b in 0..ib.h {
            for a in 0..ib.w {
                let (kx, ky) = (ib.x0 + a as isize, ib.y0 + b as isize);
                full.set(
                    wrap(kx, w),
                    wrap(ky, h),
                    small.at(wrap(kx, mx), wrap(ky, my)),
                );
            }
        }
        full.fft2_inplace(true);
        // `upsample` leaves its inverse unscaled.
        full.iter().map(|z| z.re * (w * h) as f64).collect()
    }

    #[test]
    fn upsample_matches_the_unpaired_full_inverse() {
        fn check<T: Scalar>(stacks: &SocsStacks<T>, tol: f64, what: &str) {
            let (mx, my) = stacks.coarse;
            let coarse: Vec<T> = random_mask(mx * my, 77)
                .into_iter()
                .map(T::from_f64)
                .collect();
            let mut got = vec![f64::NAN; stacks.size.0 * stacks.size.1];
            upsample(stacks, &coarse, &mut WorkSlot::default(), None, &mut got);
            assert_close(&got, &upsample_reference(stacks, &coarse), tol, what);
        }
        // The production grids, odd axes, and the two grids
        // whose coarse grid is the grid itself (`image_band` from 0, Nyquist
        // row included) on both axes or on one.
        for (w, h, pitch) in [
            (768usize, 768usize, 8.0),
            (500, 500, 4.0),
            (100, 60, 4.0),
            (75, 64, 8.0),
            (64, 64, 8.0),
            (16, 16, 40.0),
            (15, 16, 34.0),
        ] {
            let stacks = SocsStacks::build(&OpticsConfig::default(), w, h, pitch).unwrap();
            let what = format!("{w}x{h} @ {pitch} nm");
            check(&stacks, 1e-13, &format!("{what}, f64"));
            check(&stacks.to_precision::<f32>(), 1e-5, &format!("{what}, f32"));
        }
    }

    proptest! {
        /// Random masks under random optics — including odd point counts,
        /// which never fold — still match the definition.
        #[test]
        fn images_match_reference_under_random_optics(
            seed in 0u64..1000,
            rings in 1usize..3,
            points in 1usize..8,
            sigma_inner in 0.0f64..0.6,
            sigma_width in 0.0f64..0.4,
            defocus in -120.0f64..120.0,
            w in five_smooth(20..72),
            h in five_smooth(20..72),
        ) {
            let cfg = OpticsConfig {
                source_rings: rings,
                points_per_ring: points,
                sigma_inner,
                sigma_outer: sigma_inner + sigma_width,
                defocus,
                ..OpticsConfig::default()
            };
            check_against_reference(&cfg, w, h, 8.0, seed);
            check_vjp_against_reference(&cfg, w, h, 8.0, seed);
        }
    }

    #[test]
    fn output_is_bit_identical_for_any_parallelism_and_state_set() {
        fn check<T: Scalar>(stacks: &SocsStacks<T>) {
            let (w, h) = stacks.size;
            let mask = random_mask(w * h, 42);
            let base = run(stacks, &mask, &[false, true], None, 1);
            for parallelism in [1usize, 2, 3, 4, 16] {
                let both = run(stacks, &mask, &[false, true], None, parallelism);
                assert_eq!(both, base, "parallelism {parallelism}");
                for (state, defocused) in [false, true].into_iter().enumerate() {
                    // Multi-state ≡ single-state.
                    let alone = run(stacks, &mask, &[defocused], None, parallelism);
                    assert_eq!(alone[0], base[state], "state {state} alone");
                }
            }
        }
        for (w, h) in [(64, 64), (45, 40)] {
            let stacks = SocsStacks::build(&small_source(), w, h, 8.0).unwrap();
            check(&stacks);
            check(&stacks.to_precision::<f32>());
        }
    }

    #[test]
    fn pixel_region_is_bitwise_whatever_is_requested_and_tracks_the_frame() {
        fn check<T: Scalar>(stacks: &SocsStacks<T>, tol: f64, what: &str) {
            let (w, h) = stacks.size;
            let mask = random_mask(w * h, 46);
            let frame = run(stacks, &mask, &[false, true], None, 2);
            let all: Vec<usize> = (0..w * h).collect();
            let every = run(stacks, &mask, &[false, true], Some(&all), 1);
            for state in 0..2 {
                assert_close(
                    &every[state],
                    &frame[state],
                    tol,
                    &format!("{what} {state}"),
                );
            }
            // A sparse set, one column, the last pixel alone, nothing.
            let mut rng = SplitMix64::new(47);
            let sparse: Vec<usize> = all
                .iter()
                .copied()
                .filter(|_| rng.next_u64().is_multiple_of(7))
                .collect();
            let column: Vec<usize> = (0..h).map(|y| y * w + w / 3).collect();
            let requests: [&[usize]; 4] = [&sparse, &column, &[w * h - 1], &[]];
            for parallelism in [1usize, 2, 3, 16] {
                for pixels in requests {
                    let region = Some(pixels);
                    let both = run(stacks, &mask, &[false, true], region, parallelism);
                    for (state, defocused) in [false, true].into_iter().enumerate() {
                        let alone = run(stacks, &mask, &[defocused], region, parallelism);
                        for (i, (&got, &want)) in both[state].iter().zip(&every[state]).enumerate()
                        {
                            let asked = pixels.binary_search(&i).is_ok();
                            let want = if asked {
                                want.to_bits()
                            } else {
                                f64::NAN.to_bits()
                            };
                            assert_eq!(got.to_bits(), want, "{what} state {state}, pixel {i}");
                            assert_eq!(alone[0][i].to_bits(), want, "{what} alone, pixel {i}");
                        }
                    }
                }
            }
        }
        // Sampler rows with and without a Nyquist row, odd and even axes.
        for (w, h, pitch) in [
            (64usize, 64usize, 8.0),
            (45, 40, 8.0),
            (16, 16, 40.0),
            (15, 16, 34.0),
            (16, 15, 34.0),
        ] {
            let stacks = SocsStacks::build(&small_source(), w, h, pitch).unwrap();
            let what = format!("{w}x{h} @ {pitch} nm");
            check(&stacks, 1e-12, &format!("{what}, f64"));
            check(&stacks.to_precision::<f32>(), 1e-5, &format!("{what}, f32"));
        }
    }

    #[test]
    fn image_commutes_with_cyclic_shifts_and_the_x_mirror() {
        // What tile-cache replay by translation leans on.
        let (w, h) = (60usize, 48usize);
        let stacks = SocsStacks::build(&OpticsConfig::default(), w, h, 8.0).unwrap();
        let mask = random_mask(w * h, 9);
        let image = run(&stacks, &mask, &[false, true], None, 2);
        let remap = |src: &[f64], f: &dyn Fn(usize, usize) -> (usize, usize)| {
            let mut dst = vec![0.0; w * h];
            for y in 0..h {
                for x in 0..w {
                    let (sx, sy) = f(x, y);
                    dst[y * w + x] = src[sy * w + sx];
                }
            }
            dst
        };
        let shift = |x: usize, y: usize| ((x + w - 7) % w, (y + h - 13) % h);
        let mirror = |x: usize, y: usize| ((w - x) % w, y);
        for (name, f) in [("shift", &shift as &dyn Fn(_, _) -> _), ("mirror", &mirror)] {
            let moved = run(&stacks, &remap(&mask, f), &[false, true], None, 2);
            for state in 0..2 {
                let what = format!("{name}, state {state}");
                assert_close(&moved[state], &remap(&image[state], f), 1e-12, &what);
            }
        }
    }

    #[test]
    fn output_spectrum_is_empty_outside_the_image_band() {
        let (w, h) = (96usize, 80usize);
        let stacks = SocsStacks::build(&OpticsConfig::default(), w, h, 8.0).unwrap();
        let ib = stacks.image_band;
        assert!(ib.w < w && ib.h < h, "test needs a real coarse grid");
        let image = run(&stacks, &random_mask(w * h, 10), &[true], None, 1);
        let mut spectrum: Field = Field::from_real(w, h, &image[0]);
        spectrum.fft2_inplace(false);
        let dc = spectrum.at(0, 0).norm();
        let inside = |k: usize, n: usize, span: usize| k.min(n - k) <= span;
        for ky in 0..h {
            for kx in 0..w {
                if !(inside(kx, w, ib.w / 2) && inside(ky, h, ib.h / 2)) {
                    let leak = spectrum.at(kx, ky).norm();
                    assert!(leak <= 1e-12 * dc, "bin ({kx},{ky}): {leak} vs DC {dc}");
                }
            }
        }
    }

    /// A composite of random quadrilaterals over a frozen layer of others,
    /// about a quarter of the grid's extent each, so that some rows stay
    /// dark and the cache's spans hold zeros between shapes.
    fn random_composite(cache: &mut RasterCache, (w, h): (usize, usize), pitch: f64, seed: u64) {
        use cardopc_geometry::{Point, Polygon};
        let mut rng = SplitMix64::new(seed);
        let (ew, eh) = (w as f64 * pitch, h as f64 * pitch);
        let mut quads = |n: usize| -> Vec<Polygon> {
            (0..n)
                .map(|_| {
                    let (cx, cy) = (rng.range_f64(-0.1, 1.1) * ew, rng.range_f64(-0.1, 1.1) * eh);
                    let corner = |rng: &mut SplitMix64, sx: f64, sy: f64| {
                        let dx = rng.range_f64(0.02, 0.25) * ew;
                        let dy = rng.range_f64(0.02, 0.25) * eh;
                        Point::new(cx + sx * dx, cy + sy * dy)
                    };
                    let ring = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)];
                    Polygon::new(
                        ring.iter()
                            .map(|&(sx, sy)| corner(&mut rng, sx, sy))
                            .collect(),
                    )
                })
                .collect()
        };
        cache.set_base(&quads(2));
        let moving = quads(4);
        cache.composite(&moving);
    }

    #[test]
    fn images_with_raster_extents_match_scanned_extents_bitwise() {
        // The via loop hands `images` its raster cache's spans; any other
        // caller gets scanned extents. Both must give the same bits: the
        // frame and pixel lists at both precisions, and the forward band
        // transform the adjoint shares.
        fn check<T: Scalar>(stacks: &SocsStacks<T>, cache: &RasterCache, what: &str) {
            let (w, h) = stacks.size;
            let mask = cache.mask();
            let (data, extents) = (mask.grid.data(), mask.extents);
            assert!(extents.is_some());
            let plain = MaskRef::from(mask.grid);
            let pool = WorkerPool::new(2);
            let mut rng = SplitMix64::new(5);
            let sparse: Vec<usize> = (0..w * h).filter(|_| rng.chance(0.2)).collect();
            for pixels in [None, Some(&sparse[..])] {
                let [mut given, mut scanned] = [(); 2].map(|_| vec![vec![f64::NAN; w * h]; 2]);
                for (out, m) in [(&mut given, mask), (&mut scanned, plain)] {
                    let mut outputs: Vec<&mut [f64]> =
                        out.iter_mut().map(Vec::as_mut_slice).collect();
                    let mut ws = LithoWorkspace::<T>::new();
                    ws.images(stacks, m, &[false, true], pixels, &pool, 2, &mut outputs);
                }
                let bits = |v: &[Vec<f64>]| -> Vec<u64> {
                    v.iter().flatten().map(|x| x.to_bits()).collect()
                };
                assert!(
                    bits(&given) == bits(&scanned),
                    "{what}, pixels {}",
                    pixels.is_some()
                );
            }
            let band = stacks.band;
            let spectrum = |ext: Option<&[Span]>| {
                let (mut re, mut im) = (
                    vec![T::ZERO; band.w * band.h],
                    vec![T::ZERO; band.w * band.h],
                );
                let out = (&mut re[..], &mut im[..]);
                fft2_real_band(
                    data,
                    ext,
                    (w, h),
                    band,
                    &mut FftScratch::new(),
                    out,
                    (1, band.w),
                );
                re.iter()
                    .chain(&im)
                    .map(|v| v.to_f64().to_bits())
                    .collect::<Vec<u64>>()
            };
            assert!(spectrum(extents) == spectrum(None), "{what}, band spectrum");
        }
        for (w, h, pitch) in [
            (500usize, 500usize, 4.0),
            (64, 64, 8.0),
            (45, 40, 8.0),
            (15, 16, 34.0),
            (16, 15, 34.0),
        ] {
            let stacks = SocsStacks::build(&small_source(), w, h, pitch).unwrap();
            for seed in 0..4 {
                let mut cache = RasterCache::new(w, h, pitch);
                random_composite(&mut cache, (w, h), pitch, seed);
                let what = format!("{w}x{h} @ {pitch} nm, seed {seed}");
                check(&stacks, &cache, &format!("{what}, f64"));
                check(
                    &stacks.to_precision::<f32>(),
                    &cache,
                    &format!("{what}, f32"),
                );
            }
        }
    }

    #[test]
    fn workspace_is_reusable_across_calls_and_sizes() {
        let pool = WorkerPool::new(2);
        let small = SocsStacks::build(&small_source(), 64, 64, 8.0).unwrap();
        let large = SocsStacks::build(&small_source(), 100, 60, 4.0).unwrap();
        let mut ws: LithoWorkspace = LithoWorkspace::new();
        let mut reused = Vec::new();
        for (stacks, seed) in [(&small, 1), (&large, 2), (&small, 3)] {
            let mask = random_mask(stacks.size.0 * stacks.size.1, seed);
            let mut out = vec![0.0; mask.len()];
            ws.images(
                stacks,
                &grid(stacks, &mask),
                &[false],
                None,
                &pool,
                2,
                &mut [&mut out],
            );
            // A fresh workspace agrees: no state leaks between calls.
            assert_eq!(out, run(stacks, &mask, &[false], None, 2)[0]);
            reused.push(out);
        }
        assert_ne!(reused[0], reused[2]);
    }
}
