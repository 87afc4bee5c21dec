//! Partially coherent projection optics: source discretisation and SOCS
//! kernel synthesis.
//!
//! The ICCAD-13 contest distributes its Hopkins optical kernels as opaque
//! binary data; this reproduction synthesises an equivalent kernel stack
//! from first principles instead (see DESIGN.md, substitution 1). The source
//! is an annular partially coherent illuminator discretised into point
//! sources (Abbe's method). Each source point `s` contributes the coherent
//! kernel
//!
//! ```text
//! H_s(f) = P(f + f_s) · exp(−iπλz·|f + f_s|²)
//! ```
//!
//! where `P` is the circular pupil of cutoff `NA/λ` and `z` the defocus.
//! The aerial image is then exactly the Hopkins/SOCS form of Eq. (1):
//! `I = Σ_s w_s · |M ⊗ h_s|²`, evaluated in the frequency domain.
//!
//! `P` is a hard disk, so `H_s` is nonzero on a few dozen bins per axis
//! whatever the grid. Kernels are therefore synthesised and stored only as
//! compact patches ([`SocsStacks`]) — the bounding box of the samples
//! set. The image and its adjoint ([`crate::LithoEngine::vjp`], what pixel
//! ILT differentiates through) both run on them.

use crate::fft::{is_five_smooth, next_five_smooth, Band, Complex};
use crate::scalar::Scalar;
use crate::LithoError;

/// Physical configuration of the projection system.
///
/// Defaults approximate a 193 nm immersion scanner with annular
/// illumination — the regime of the paper's testcases.
#[derive(Clone, Debug, PartialEq)]
pub struct OpticsConfig {
    /// Exposure wavelength λ in nanometres.
    pub wavelength: f64,
    /// Numerical aperture of the projection lens.
    pub na: f64,
    /// Inner radius of the annular source, as a fraction of `NA/λ`.
    pub sigma_inner: f64,
    /// Outer radius of the annular source, as a fraction of `NA/λ`.
    pub sigma_outer: f64,
    /// Number of radial rings in the source discretisation.
    pub source_rings: usize,
    /// Number of azimuthal points per ring.
    pub points_per_ring: usize,
    /// Defocus distance `z` in nanometres used by the defocus process
    /// corner.
    pub defocus: f64,
}

impl Default for OpticsConfig {
    fn default() -> Self {
        OpticsConfig {
            wavelength: 193.0,
            na: 1.35,
            sigma_inner: 0.5,
            sigma_outer: 0.8,
            source_rings: 2,
            points_per_ring: 8,
            defocus: 60.0,
        }
    }
}

impl OpticsConfig {
    /// Pupil cutoff frequency `NA/λ` in cycles per nanometre.
    #[inline]
    pub fn cutoff(&self) -> f64 {
        self.na / self.wavelength
    }

    /// Validates physical sanity of the parameters.
    ///
    /// # Errors
    ///
    /// [`LithoError::InvalidOptics`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), LithoError> {
        if !(self.wavelength > 0.0 && self.wavelength.is_finite()) {
            return Err(LithoError::InvalidOptics("wavelength must be positive"));
        }
        if !(self.na > 0.0 && self.na.is_finite()) {
            return Err(LithoError::InvalidOptics(
                "numerical aperture must be positive",
            ));
        }
        if !(0.0..=1.0).contains(&self.sigma_inner)
            || !(0.0..=1.0).contains(&self.sigma_outer)
            || self.sigma_inner > self.sigma_outer
        {
            return Err(LithoError::InvalidOptics(
                "source sigmas must satisfy 0 <= inner <= outer <= 1",
            ));
        }
        if self.source_rings == 0 || self.points_per_ring == 0 {
            return Err(LithoError::InvalidOptics(
                "source discretisation needs at least one ring and one point",
            ));
        }
        if !self.defocus.is_finite() {
            return Err(LithoError::InvalidOptics("defocus must be finite"));
        }
        Ok(())
    }

    /// Discretised source points in frequency space (cycles/nm), with equal
    /// weights summing to one.
    pub fn source_points(&self) -> Vec<(f64, f64, f64)> {
        let fc = self.cutoff();
        let mut pts = Vec::new();
        for ring in 0..self.source_rings {
            // Ring radii spread across the annulus (midpoint rule).
            let frac = (ring as f64 + 0.5) / self.source_rings as f64;
            let sigma = self.sigma_inner + (self.sigma_outer - self.sigma_inner) * frac;
            for k in 0..self.points_per_ring {
                // Stagger alternate rings for better angular coverage.
                let theta = std::f64::consts::TAU * (k as f64 + 0.5 * (ring % 2) as f64)
                    / self.points_per_ring as f64;
                pts.push((sigma * fc * theta.cos(), sigma * fc * theta.sin(), 0.0));
            }
        }
        let w = 1.0 / pts.len() as f64;
        pts.into_iter().map(|(x, y, _)| (x, y, w)).collect()
    }
}

/// One SOCS kernel in compact form: the weight and the transfer values over
/// the bounding box of its nonzero samples. The pupil is a hard disk of
/// radius `NA/λ`, so the box is a few dozen bins wide whatever the grid.
#[derive(Clone, Debug)]
pub(crate) struct KernelPatch<T: Scalar = f64> {
    /// Hopkins weight `w_k`.
    pub weight: f64,
    /// Bounding box of the samples actually set, in signed frequencies.
    pub band: Band,
    /// Transfer values over the box, row-major `band.h × band.w` (re lane).
    pub re: Vec<T>,
    /// Transfer values over the box (im lane).
    pub im: Vec<T>,
}

/// The nominal and defocused kernel stacks of one engine in compact form,
/// with the grid geometry the band-limited pipeline
/// ([`crate::LithoWorkspace::images`]) derives from them.
///
/// Every coherent field `z_k` is band-limited to its kernel's box, so
/// `|z_k|²` is band-limited to `±span` (the largest box extent minus one)
/// and is sampled without aliasing on any grid of at least `2·span + 1`
/// points per axis: the kernels are convolved on that *coarse* grid and the
/// summed intensity is Fourier-interpolated to the full grid once. Where an
/// axis is too coarse for that (`2·span + 1 > N`) the coarse grid is the
/// grid itself and the interpolation copies every bin.
#[derive(Clone, Debug)]
pub struct SocsStacks<T: Scalar = f64> {
    pub(crate) size: (usize, usize),
    /// Coarse grid: per axis `min(N, next_five_smooth(2·span + 1))`.
    pub(crate) coarse: (usize, usize),
    /// Union of every kernel's box: the mask-spectrum bins that are read.
    pub(crate) band: Band,
    /// Bins of the coarse intensity spectrum carried to the full grid:
    /// `|f| ≤ span`, or the whole axis where the coarse grid is the grid.
    pub(crate) image_band: Band,
    /// `[nominal, defocused]`.
    pub(crate) stacks: [Vec<KernelPatch<T>>; 2],
    /// `e^{2πi·k/H}` for `k < H` (re lane, im lane): the pixel sampler's
    /// twiddles.
    pub(crate) y_roots: (Vec<T>, Vec<T>),
}

impl SocsStacks {
    /// Synthesises both stacks for a `width×height` grid of `pitch` nm
    /// pixels (always in `f64`; see [`SocsStacks::to_precision`]).
    ///
    /// # Errors
    ///
    /// Propagates [`OpticsConfig::validate`] failures and rejects grids
    /// that are not 5-smooth on both axes ([`LithoError::InvalidGrid`]) and
    /// non-positive pitches.
    pub fn build(
        config: &OpticsConfig,
        width: usize,
        height: usize,
        pitch: f64,
    ) -> Result<SocsStacks, LithoError> {
        let stacks = [
            build_patches(config, width, height, pitch, 0.0)?,
            build_patches(config, width, height, pitch, config.defocus)?,
        ];
        let boxes = || stacks.iter().flatten().map(|p| p.band);
        // Per axis: (union origin, union extent, coarse size, image band).
        let axis = |n: usize, lo: fn(&Band) -> isize, len: fn(&Band) -> usize| {
            let x0 = boxes().map(|b| lo(&b)).min().unwrap_or(0);
            let x1 = boxes()
                .map(|b| lo(&b) + len(&b) as isize)
                .max()
                .unwrap_or(0);
            let span = boxes().map(|b| len(&b)).max().unwrap_or(1) - 1;
            let m = n.min(next_five_smooth(2 * span + 1));
            let image = if m == n {
                (0, n)
            } else {
                (-(span as isize), 2 * span + 1)
            };
            (x0, (x1 - x0) as usize, m, image)
        };
        let (x0, w, mx, (ix0, iw)) = axis(width, |b| b.x0, |b| b.w);
        let (y0, h, my, (iy0, ih)) = axis(height, |b| b.y0, |b| b.h);
        Ok(SocsStacks {
            size: (width, height),
            coarse: (mx, my),
            band: Band { x0, y0, w, h },
            image_band: Band {
                x0: ix0,
                y0: iy0,
                w: iw,
                h: ih,
            },
            stacks,
            y_roots: (0..height)
                .map(|k| (std::f64::consts::TAU * k as f64 / height as f64).sin_cos())
                .map(|(sin, cos)| (cos, sin))
                .unzip(),
        })
    }
}

impl<T: Scalar> SocsStacks<T> {
    /// Narrows (or widens) the patches to another simulation precision; a
    /// reduced-precision backend does this once, over a few hundred KB.
    pub fn to_precision<U: Scalar>(&self) -> SocsStacks<U> {
        let convert = |v: &[T]| v.iter().map(|&s| U::from_f64(s.to_f64())).collect();
        let stack = |patches: &[KernelPatch<T>]| {
            patches
                .iter()
                .map(|p| KernelPatch {
                    weight: p.weight,
                    band: p.band,
                    re: convert(&p.re),
                    im: convert(&p.im),
                })
                .collect()
        };
        SocsStacks {
            size: self.size,
            coarse: self.coarse,
            band: self.band,
            image_band: self.image_band,
            stacks: [stack(&self.stacks[0]), stack(&self.stacks[1])],
            y_roots: (convert(&self.y_roots.0), convert(&self.y_roots.1)),
        }
    }
}

/// Builds one SOCS kernel stack for a `width×height` grid of `pitch` nm
/// pixels at `defocus` nm (0 for the nominal-focus stack). Each kernel is
/// evaluated over the bounding box of its shifted pupil only, then cropped
/// to the samples actually set (`fc·L` is 13.99 bins on the 500²/4 nm via
/// grid, so the box cannot be predicted from the cutoff alone). A source
/// point whose pupil contains no grid frequency contributes nothing and is
/// dropped.
///
/// Zero-defocus stacks fold antipodal source-point pairs into single
/// kernels with doubled weights (the transfers are real, so the paired
/// intensities are equal for any real mask) — on the default annular
/// source this halves the nominal stack from 16 to 8 kernels without
/// changing the aerial image.
fn build_patches(
    config: &OpticsConfig,
    width: usize,
    height: usize,
    pitch: f64,
    defocus: f64,
) -> Result<Vec<KernelPatch>, LithoError> {
    config.validate()?;
    if !is_five_smooth(width) || !is_five_smooth(height) {
        return Err(LithoError::InvalidGrid { width, height });
    }
    if !(pitch > 0.0 && pitch.is_finite()) {
        return Err(LithoError::InvalidOptics("pitch must be positive"));
    }

    let fc = config.cutoff();
    let lambda = config.wavelength;

    // Hermitian fold, zero-defocus stacks only. At nominal focus the
    // transfer is the real-valued pupil indicator, and for a *real* mask
    // the coherent amplitude at source point `−s` is the pointwise complex
    // conjugate of the amplitude at `+s` (the transfer at `−s` is the
    // `f → −f` reflection of the one at `+s`, and the mask spectrum is
    // Hermitian), so `|A_{−s}|² == |A_s|²` — identically in the mask, which
    // also keeps ILT gradients exact. Each azimuthal ring places points at
    // equal angular steps, so with an even point count every source point's
    // antipode is also a source point: folding each pair into one kernel
    // with doubled weight halves the SOCS stack. The fold is skipped when
    // the shifted pupil could reach the Nyquist row/column, whose frequency
    // does not negate under the grid's `f → −f` index reflection.
    let fold = defocus == 0.0
        && config.points_per_ring.is_multiple_of(2)
        && 0.5 / pitch > fc * (1.0 + config.sigma_outer);
    let half_ring = config.points_per_ring / 2;
    let mut patches = Vec::new();

    // Signed frequency indices an `n`-point axis represents (FFT layout:
    // the upper half wraps to negatives), clipped to where a pupil centred
    // on `-fs` can reach.
    let reach = |n: usize, fs: f64| {
        let scale = n as f64 * pitch;
        let lo = ((-fs - fc) * scale).floor() as isize - 1;
        let hi = ((-fs + fc) * scale).ceil() as isize + 1;
        lo.max(-(((n - 1) / 2) as isize))..=hi.min((n / 2) as isize)
    };

    for (index, (fsx, fsy, weight)) in config.source_points().into_iter().enumerate() {
        let weight = if fold {
            if index % config.points_per_ring >= half_ring {
                // Covered by its antipodal partner's doubled weight.
                continue;
            }
            2.0 * weight
        } else {
            weight
        };
        let (xs, ys) = (reach(width, fsx), reach(height, fsy));
        let cw = (xs.end() - xs.start() + 1).max(0) as usize;
        // Samples set are unit-modulus, so zero marks the unset ones.
        let mut set = vec![Complex::ZERO; cw * ys.clone().count()];
        // Tight box of the samples set: (x min, x max, y min, y max).
        let mut tight: Option<(isize, isize, isize, isize)> = None;
        for iy in ys.clone() {
            let fy = iy as f64 / (height as f64 * pitch);
            for ix in xs.clone() {
                let fx = ix as f64 / (width as f64 * pitch);
                let gx = fx + fsx;
                let gy = fy + fsy;
                let g2 = gx * gx + gy * gy;
                if g2 <= fc * fc {
                    // Paraxial defocus aberration phase.
                    let phase = -std::f64::consts::PI * lambda * defocus * g2;
                    let i = (iy - ys.start()) as usize * cw + (ix - xs.start()) as usize;
                    set[i] = Complex::from_angle(phase);
                    let t = tight.unwrap_or((ix, ix, iy, iy));
                    tight = Some((t.0.min(ix), t.1.max(ix), t.2.min(iy), t.3.max(iy)));
                }
            }
        }
        let Some((x0, x1, y0, y1)) = tight else {
            continue;
        };
        let band = Band {
            x0,
            y0,
            w: (x1 - x0 + 1) as usize,
            h: (y1 - y0 + 1) as usize,
        };
        let (mut re, mut im) = (Vec::new(), Vec::new());
        for iy in y0..=y1 {
            let row = (iy - ys.start()) as usize * cw + (x0 - xs.start()) as usize;
            for z in &set[row..row + band.w] {
                re.push(z.re);
                im.push(z.im);
            }
        }
        patches.push(KernelPatch {
            weight,
            band,
            re,
            im,
        });
    }
    Ok(patches)
}

/// One kernel on the full grid: the form the tests' definitions convolve
/// with.
#[cfg(test)]
pub(crate) struct FullKernel {
    pub weight: f64,
    pub transfer: crate::fft::Field,
}

/// One stack ([`build_patches`]) scattered onto the full grid.
#[cfg(test)]
pub(crate) fn build_kernels(
    config: &OpticsConfig,
    width: usize,
    height: usize,
    pitch: f64,
    defocus: f64,
) -> Result<Vec<FullKernel>, LithoError> {
    use crate::fft::wrap;
    let patches = build_patches(config, width, height, pitch, defocus)?;
    Ok(patches
        .iter()
        .map(|p| {
            let mut transfer = crate::fft::Field::zeros(width, height);
            for b in 0..p.band.h {
                let ky = wrap(p.band.y0 + b as isize, height);
                for a in 0..p.band.w {
                    let kx = wrap(p.band.x0 + a as isize, width);
                    let i = b * p.band.w + a;
                    transfer.set(kx, ky, Complex::new(p.re[i], p.im[i]));
                }
            }
            FullKernel {
                weight: p.weight,
                transfer,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::Field;

    #[test]
    fn default_config_is_valid() {
        assert!(OpticsConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad = [
            OpticsConfig {
                wavelength: -1.0,
                ..OpticsConfig::default()
            },
            OpticsConfig {
                na: 0.0,
                ..OpticsConfig::default()
            },
            OpticsConfig {
                sigma_inner: 0.9,
                sigma_outer: 0.5,
                ..OpticsConfig::default()
            },
            OpticsConfig {
                source_rings: 0,
                ..OpticsConfig::default()
            },
            OpticsConfig {
                defocus: f64::NAN,
                ..OpticsConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should be invalid");
        }
    }

    #[test]
    fn source_weights_sum_to_one() {
        let pts = OpticsConfig::default().source_points();
        assert_eq!(pts.len(), 16);
        let total: f64 = pts.iter().map(|&(_, _, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn source_points_inside_annulus() {
        let cfg = OpticsConfig::default();
        let fc = cfg.cutoff();
        for (x, y, _) in cfg.source_points() {
            let r = (x * x + y * y).sqrt() / fc;
            assert!(r >= cfg.sigma_inner - 1e-12 && r <= cfg.sigma_outer + 1e-12);
        }
    }

    #[test]
    fn kernels_pass_dc_and_block_high_frequencies() {
        let cfg = OpticsConfig::default();
        let ks = build_kernels(&cfg, 64, 64, 4.0, 0.0).unwrap();
        // 16 source points, Hermitian-folded into 8 nominal kernels.
        assert_eq!(ks.len(), 8);
        for k in &ks {
            // DC term passes (source points lie inside the pupil).
            assert!((k.transfer.at(0, 0).norm() - 1.0).abs() < 1e-12);
            // The Nyquist corner is far beyond cutoff for 4 nm pitch:
            // f_nyq = 1/8 = 0.125 cycles/nm >> fc ≈ 0.007.
            assert_eq!(k.transfer.at(32, 32).norm(), 0.0);
        }
    }

    #[test]
    fn defocus_changes_phase_not_magnitude() {
        let cfg = OpticsConfig::default();
        let nominal = build_kernels(&cfg, 32, 32, 8.0, 0.0).unwrap();
        let defocused = build_kernels(&cfg, 32, 32, 8.0, 80.0).unwrap();
        // The nominal stack is Hermitian-folded (first half of each ring);
        // pair each folded kernel with the defocused kernel for the same
        // source point.
        assert_eq!(nominal.len(), 8);
        assert_eq!(defocused.len(), 16);
        let half = cfg.points_per_ring / 2;
        for (i, a) in nominal.iter().enumerate() {
            let source_index = (i / half) * cfg.points_per_ring + i % half;
            let b = &defocused[source_index];
            let mut phase_differs = false;
            for (za, zb) in a.transfer.iter().zip(b.transfer.iter()) {
                assert!((za.norm() - zb.norm()).abs() < 1e-12);
                if (za.im - zb.im).abs() > 1e-9 {
                    phase_differs = true;
                }
            }
            assert!(phase_differs, "defocus should modify kernel phase");
        }
    }

    #[test]
    fn hermitian_fold_preserves_intensity() {
        // The folded nominal stack must reproduce the unfolded sum: for a
        // real mask, the kernel at `−s` (the `f → −f` reflection of the
        // kernel at `+s`) contributes exactly the intensity of its partner.
        let cfg = OpticsConfig::default();
        let (w, h, pitch) = (32usize, 32usize, 8.0);
        let folded = build_kernels(&cfg, w, h, pitch, 0.0).unwrap();
        assert_eq!(folded.len(), 8);

        let mut rng = cardopc_geometry::SplitMix64::new(314);
        let mask: Vec<f64> = (0..w * h).map(|_| rng.range_f64(0.0, 1.0)).collect();
        let mut spectrum: Field = Field::from_real(w, h, &mask);
        spectrum.fft2_inplace(false);

        let intensity = |transfer: &Field, weight: f64| {
            let mut f = spectrum.mul_pointwise(transfer);
            f.fft2_inplace(true);
            f.iter().map(|z| weight * z.norm_sq()).collect::<Vec<f64>>()
        };

        for k in &folded {
            // Reconstruct the dropped partner by index reflection f → −f.
            let mut mirror: Field = Field::zeros(w, h);
            for ky in 0..h {
                for kx in 0..w {
                    let mx = (w - kx) % w;
                    let my = (h - ky) % h;
                    mirror.set(kx, ky, k.transfer.at(mx, my));
                }
            }
            let a = intensity(&k.transfer, 0.5 * k.weight);
            let b = intensity(&mirror, 0.5 * k.weight);
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert!(
                    (x - y).abs() < 1e-12 * (1.0 + x.abs()),
                    "pixel {i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn patches_are_cropped_to_the_samples_set() {
        // 500²/4 nm: fc·L = 13.99, so the box is what the samples say, not
        // what the cutoff predicts.
        let cfg = OpticsConfig::default();
        let stacks = SocsStacks::build(&cfg, 500, 500, 4.0).unwrap();
        assert_eq!(stacks.size, (500, 500));
        assert_eq!((stacks.stacks[0].len(), stacks.stacks[1].len()), (8, 16));
        for patch in stacks.stacks.iter().flatten() {
            let Band { w, h, .. } = patch.band;
            assert_eq!(patch.re.len(), w * h);
            let set = |i: usize| patch.re[i] != 0.0 || patch.im[i] != 0.0;
            // Every edge row and column of the box holds a sample.
            assert!((0..w).any(&set) && (0..w).any(|a| set((h - 1) * w + a)));
            assert!((0..h).any(|b| set(b * w)) && (0..h).any(|b| set(b * w + w - 1)));
            assert!(w <= 28 && h <= 28, "box {w}x{h}");
            // The union band holds every box.
            let u = stacks.band;
            assert!(u.x0 <= patch.band.x0 && patch.band.x0 + w as isize <= u.x0 + u.w as isize);
            assert!(u.y0 <= patch.band.y0 && patch.band.y0 + h as isize <= u.y0 + u.h as isize);
        }
        // Narrowing keeps the geometry.
        let narrow = stacks.to_precision::<f32>();
        assert_eq!((narrow.coarse, narrow.band), (stacks.coarse, stacks.band));
        assert_eq!(narrow.image_band, stacks.image_band);
    }

    #[test]
    fn empty_grid_rejected() {
        let cfg = OpticsConfig::default();
        assert!(matches!(
            build_kernels(&cfg, 0, 64, 1.0, 0.0),
            Err(LithoError::InvalidGrid { .. })
        ));
    }

    #[test]
    fn non_power_of_two_grid_accepted() {
        // 100 = 2²·5² is 5-smooth; the kernel stack builds and the DC term
        // passes exactly as on pow2 grids.
        let cfg = OpticsConfig::default();
        let ks = build_kernels(&cfg, 100, 60, 4.0, 0.0).unwrap();
        assert_eq!(ks.len(), 8);
        for k in &ks {
            assert!((k.transfer.at(0, 0).norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bad_pitch_rejected() {
        let cfg = OpticsConfig::default();
        assert!(build_kernels(&cfg, 64, 64, 0.0, 0.0).is_err());
    }
}
