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
//!    kernel boxes ([`fft2_real_band`]): all-zero row pairs are not
//!    transformed, and a negative-frequency column is the conjugate mirror
//!    of its opposite, `F(−kx, ky) = conj F(kx, −ky)`;
//! 2. per kernel: the product over its patch, written at the *origin* of a
//!    coarse-grid field (a circular spectrum shift is a unit-modulus
//!    modulation in space, so `|z_k|²` is unchanged), a row-pruned
//!    coarse-grid inverse, and `w_k·|z_k|²` into that kernel's strip —
//!    `z_k` is complex, so this stage has no symmetry to use;
//! 3. per image: the strips folded in ascending kernel order, a forward
//!    real FFT of the coarse intensity for the `ky ≥ 0` half of its
//!    `|f| ≤ span` bins, those copied into live rows of the full-grid
//!    spectrum (trigonometric interpolation), and one inverse
//!    ([`ifft2_live_rows`]) that never forms rows `ky < 0` — after the row
//!    pass they are the conjugates of the rows it has — and transforms real
//!    columns two at a time, `R(2p, ·) + i·R(2p + 1, ·)`, over every column
//!    or only the pairs of the requested ones.
//!
//! This is exact, not an approximation: the result differs from a full-grid
//! convolution per kernel by rounding only. After the first call at a given
//! geometry the pipeline performs no heap allocation beyond the per-call
//! task lists.
//!
//! The workspace is generic over the simulation [`Scalar`]: masks enter and
//! intensities leave as `f64`, everything in between runs at the workspace
//! precision, and each kernel weight (with every transform normalisation
//! folded in) is narrowed from the `f64` reference at the point of use.
//!
//! A pixel's bits are a function of (mask, x, y, precision, SIMD mode)
//! alone, which is three **bitwise** contracts:
//!
//! * *Any worker count.* Accumulation granularity is one strip per *kernel*
//!   (not per task) and strips are reduced in ascending kernel order: the
//!   per-pixel summation tree is a fixed left fold however the kernels are
//!   chunked across tasks, and every other stage is a pure function of its
//!   input.
//! * *Column-restricted ≡ full on the requested columns.* Column `x` always
//!   shares its transform with the same partner, `x ^ 1` — the canonical
//!   pair, never "whichever column was requested next" — and each pair is
//!   transformed independently of the others; a restricted call computes
//!   the pair of every requested column and writes only what was asked for.
//! * *Multi-state ≡ single-state.* The mask spectrum is shared but not
//!   altered.
//!
//! Measured in scratch when this was designed (ISSUE 19) and left out, so
//! nobody repeats them: running a batch of columns as one interleaved
//! Stockham pipeline (stride × B; no gather, bit identical) is *slower* — an
//! 8-column block is 98 KB and leaves L1 where one 768-point column is
//! 12 KB (upsample inverse 4.1 → 4.9–5.6 ms at B = 8/16/32); evaluating the
//! image only at the pixels the correction loop reads (0.4–0.5 % of a via
//! frame, 20 % of a logic tile) waits for a benchmark whose replay does not
//! demand `aerial_image_cols` bit for bit.

use crate::fft::{ensure, fft2_real_band, ifft2_live_rows, wrap, Band, FftScratch};
use crate::optics::{KernelPatch, SocsStacks};
use crate::pool::WorkerPool;
use crate::scalar::Scalar;
use crate::simd;

/// Scratch owned by one parallel task slot.
#[derive(Clone, Debug, Default)]
struct WorkSlot<T: Scalar> {
    /// Live rows of the spectrum being inverted (re lane): a kernel's
    /// product on the coarse grid, then an image's bins on the full grid.
    rows_re: Vec<T>,
    /// Live rows (im lane).
    rows_im: Vec<T>,
    /// Band of the coarse intensity spectrum (re lane).
    band_re: Vec<T>,
    /// Band of the coarse intensity spectrum (im lane).
    band_im: Vec<T>,
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
    /// Per-kernel accumulator strips on the coarse grid, column-major
    /// (`x·my + y`), one after another in state then kernel order.
    strips: Vec<T>,
}

impl<T: Scalar> LithoWorkspace<T> {
    /// An empty workspace; buffers are sized lazily on first use.
    pub fn new() -> LithoWorkspace<T> {
        LithoWorkspace::default()
    }

    /// Computes one SOCS intensity `Σ_k w_k |M ⊗ h_k|²` of the real-valued
    /// `mask` raster per entry of `states` (`true` = defocused stack) into
    /// the matching entry of `outputs`, from a single forward mask FFT.
    ///
    /// With `cols = Some(xs)` (any order, repeats allowed) only those pixel
    /// columns are written — each computed with its canonical partner
    /// `x ^ 1`, as in the unrestricted image, so the written pixels are
    /// bit-identical to it — and every other pixel is zero. `parallelism`
    /// bounds the tasks per stage and never changes a bit of the result.
    ///
    /// # Panics
    ///
    /// Panics when `outputs.len() != states.len()`, on any sample-count
    /// mismatch with the stacks' grid, or on an out-of-range column index.
    #[allow(clippy::too_many_arguments)]
    pub fn images(
        &mut self,
        stacks: &SocsStacks<T>,
        mask: &[f64],
        states: &[bool],
        cols: Option<&[usize]>,
        pool: &WorkerPool,
        parallelism: usize,
        outputs: &mut [&mut [f64]],
    ) {
        let (w, h) = stacks.size;
        let m2 = stacks.coarse.0 * stacks.coarse.1;
        assert_eq!(mask.len(), w * h, "mask sample count mismatch");
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
            mask,
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
            if cols.is_some() || strips.is_empty() {
                out.fill(0.0);
            }
            if strips.is_empty() {
                return;
            }
            // Ascending kernel order: the canonical summation tree.
            let (first, others) = strips.split_at_mut(m2);
            for strip in others.chunks_exact(m2) {
                for (dst, &v) in first.iter_mut().zip(strip) {
                    *dst += v;
                }
            }
            upsample(stacks, first, slot, cols, out);
        });
    }
}

/// One task's kernels: product over the patch at the origin of the coarse
/// field → row-pruned inverse → `w·|z|²` into the kernel's own strip.
fn convolve_chunk<T: Scalar>(
    stacks: &SocsStacks<T>,
    (spec_re, spec_im): (&[T], &[T]),
    patches: &[KernelPatch<T>],
    slot: &mut WorkSlot<T>,
    strips: &mut [T],
) {
    let (w, h) = stacks.size;
    let (mx, my) = stacks.coarse;
    let band = stacks.band;
    let mode = simd::active_mode();
    // Unscaled transforms: the coherent fields carry a factor `w·h`, the
    // coarse intensity spectrum another `mx·my`; fold both into the weight.
    let norm = 1.0 / ((w * h) as f64 * (w * h) as f64 * (mx * my) as f64);
    for (patch, strip) in patches.iter().zip(strips.chunks_exact_mut(mx * my)) {
        let Band {
            x0,
            y0,
            w: pw,
            h: ph,
        } = patch.band;
        let rows_re = ensure(&mut slot.rows_re, ph * mx);
        let rows_im = ensure(&mut slot.rows_im, ph * mx);
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
        strip.fill(T::ZERO);
        let weight = T::from_f64(patch.weight * norm);
        // `z_k` is complex: every column, one per transform.
        ifft2_live_rows(
            (rows_re, rows_im),
            (mx, my),
            None,
            false,
            &mut slot.scratch,
            |lanes, re, im, cs| {
                for (j, &[x, _]) in lanes.iter().enumerate() {
                    let col = j * cs..j * cs + my;
                    let acc = &mut strip[x * my..(x + 1) * my];
                    simd::acc_norm_sq(mode, &re[col.clone()], &im[col], weight, acc);
                }
            },
        );
    }
}

/// Fourier-interpolates a coarse intensity (column-major, `x·my + y`) to
/// the full grid: its spectrum's `image_band` bins become the live rows of
/// the full-grid spectrum, whose inverse is the image. The image is real,
/// so only the `ky ≥ 0` half of the band is computed, scattered and
/// inverted ([`ifft2_live_rows`] reads the other half as its mirror).
fn upsample<T: Scalar>(
    stacks: &SocsStacks<T>,
    coarse: &[T],
    slot: &mut WorkSlot<T>,
    cols: Option<&[usize]>,
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
    ifft2_live_rows(
        (rows_re, rows_im),
        (w, h),
        cols,
        true,
        &mut slot.scratch,
        |lanes, re, im, cs| {
            for (y, row) in out.chunks_exact_mut(w).enumerate() {
                for (j, &[xa, xb]) in lanes.iter().enumerate() {
                    // An unrequested column is `usize::MAX`: out of range.
                    if let Some(px) = row.get_mut(xa) {
                        *px = re[j * cs + y].to_f64();
                    }
                    if let Some(px) = row.get_mut(xb) {
                        *px = im[j * cs + y].to_f64();
                    }
                }
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::Field;
    use crate::optics::{build_kernels, OpticsConfig, SocsKernel};
    use cardopc_geometry::SplitMix64;
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

    /// The *definition* of the SOCS intensity, kept here only: every kernel
    /// convolved on the full grid through the plain allocating field API.
    fn reference_intensity(w: usize, h: usize, mask: &[f64], kernels: &[SocsKernel]) -> Vec<f64> {
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

    /// One pipeline call on a fresh workspace.
    fn run<T: Scalar>(
        stacks: &SocsStacks<T>,
        mask: &[f64],
        states: &[bool],
        cols: Option<&[usize]>,
        parallelism: usize,
    ) -> Vec<Vec<f64>> {
        let pool = WorkerPool::new(4);
        let mut images = vec![vec![f64::NAN; mask.len()]; states.len()];
        let mut outputs: Vec<&mut [f64]> = images.iter_mut().map(Vec::as_mut_slice).collect();
        LithoWorkspace::<T>::new().images(
            stacks,
            mask,
            states,
            cols,
            &pool,
            parallelism,
            &mut outputs,
        );
        images
    }

    fn peak(image: &[f64]) -> f64 {
        image.iter().cloned().fold(0.0, f64::max)
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
        // Non-square 5-smooth, then odd × pow2 with a Bluestein axis.
        check_against_reference(&OpticsConfig::default(), 100, 60, 4.0, 3);
        check_against_reference(&OpticsConfig::default(), 77, 64, 8.0, 4);
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
        // One axis only: at 34 nm `2·span + 1` fills a 13-point axis but
        // fits a 16-point one.
        let stacks = SocsStacks::build(&cfg, 13, 16, 34.0).unwrap();
        assert_eq!(stacks.coarse, (13, 15));
        check_against_reference(&cfg, 13, 16, 34.0, 7);
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
        // The production grids, odd and Bluestein axes, and the two grids
        // whose coarse grid is the grid itself (`image_band` from 0, Nyquist
        // row included) on both axes or on one.
        for (w, h, pitch) in [
            (768usize, 768usize, 8.0),
            (500, 500, 4.0),
            (100, 60, 4.0),
            (77, 64, 8.0),
            (64, 64, 8.0),
            (16, 16, 40.0),
            (13, 16, 34.0),
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
            w in 20usize..72,
            h in 20usize..72,
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
        }
    }

    #[test]
    fn output_is_bit_identical_for_any_parallelism_cols_and_state_set() {
        fn check<T: Scalar>(stacks: &SocsStacks<T>) {
            let (w, h) = stacks.size;
            let mask = random_mask(w * h, 42);
            // Sorted across pairs, a lone odd and a lone even column, any
            // order, repeats, nothing at all; the last column of an odd
            // width has no partner.
            let requests: [&[usize]; 6] = [
                &[0, 5, 9, 31, w - 1],
                &[7],
                &[8],
                &[31, 4, 5, 30, w - 1, 9],
                &[5, 5, 4, w - 1, 5],
                &[],
            ];
            let base = run(stacks, &mask, &[false, true], None, 1);
            for parallelism in [1usize, 2, 3, 4, 16] {
                let both = run(stacks, &mask, &[false, true], None, parallelism);
                assert_eq!(both, base, "parallelism {parallelism}");
                for (state, defocused) in [false, true].into_iter().enumerate() {
                    // Multi-state ≡ single-state.
                    let alone = run(stacks, &mask, &[defocused], None, parallelism);
                    assert_eq!(alone[0], base[state], "state {state} alone");
                    // Column-restricted ≡ full on the columns, zero elsewhere.
                    for cols in requests {
                        let roi = run(stacks, &mask, &[defocused], Some(cols), parallelism);
                        for (i, (&got, &full)) in roi[0].iter().zip(&base[state]).enumerate() {
                            let want = if cols.contains(&(i % w)) { full } else { 0.0 };
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{w}x{h} state {state}, columns {cols:?}, pixel {i}"
                            );
                        }
                    }
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
            ws.images(stacks, &mask, &[false], None, &pool, 2, &mut [&mut out]);
            // A fresh workspace agrees: no state leaks between calls.
            assert_eq!(out, run(stacks, &mask, &[false], None, 2)[0]);
            reused.push(out);
        }
        assert_ne!(reused[0], reused[2]);
    }
}
