//! The lithography simulation engine (Hopkins Eq. 1 via SOCS kernels) and
//! the adjoint of its nominal image, which gradient-based ILT runs on.

use crate::optics::{OpticsConfig, SocsStacks};
use crate::pool::WorkerPool;
use crate::raster::MaskRef;
use crate::scalar::{Precision, Scalar};
use crate::workspace::LithoWorkspace;
use crate::LithoError;
use cardopc_geometry::Grid;
use std::slice::from_mut;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The simulation interior at one precision: the kernel patches at that
/// precision plus a pool of reusable [`LithoWorkspace`]s, so repeat calls
/// are allocation-free however many threads share the engine. Masks enter
/// and intensities leave as `f64`.
#[derive(Debug)]
struct Interior<T: Scalar> {
    stacks: SocsStacks<T>,
    workspaces: Mutex<Vec<LithoWorkspace<T>>>,
}

impl<T: Scalar> Interior<T> {
    fn new(stacks: SocsStacks<T>) -> Interior<T> {
        Interior {
            stacks,
            workspaces: Mutex::default(),
        }
    }

    fn pool(&self) -> MutexGuard<'_, Vec<LithoWorkspace<T>>> {
        self.workspaces
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `job` on a workspace checked out of the pool — a new one when
    /// every pooled workspace is in use — and returns it afterwards, so
    /// concurrent callers never share scratch and the pool grows to the
    /// peak number of concurrent calls. Every result is a function of its
    /// inputs alone, whichever workspace ran it.
    fn with_workspace(&self, job: impl FnOnce(&SocsStacks<T>, &mut LithoWorkspace<T>)) {
        let mut ws = self.pool().pop().unwrap_or_default();
        job(&self.stacks, &mut ws);
        self.pool().push(ws);
    }

    fn images(
        &self,
        mask: MaskRef,
        states: &[bool],
        pixels: Option<&[usize]>,
        workers: usize,
        outputs: &mut [&mut [f64]],
    ) {
        let pool = WorkerPool::global();
        self.with_workspace(|stacks, ws| {
            ws.images(stacks, mask, states, pixels, pool, workers, outputs)
        });
    }

    fn vjp(&self, mask: &[f64], cotangent: &[f64], workers: usize, gradient: &mut [f64]) {
        let pool = WorkerPool::global();
        self.with_workspace(|stacks, ws| ws.vjp(stacks, mask, cotangent, pool, workers, gradient));
    }
}

/// The arithmetic the convolution hot loop runs: `F64` runs the kernel
/// patches as synthesised; `F32` runs a copy narrowed once at construction
/// — a few hundred KB, never a full-grid field. Both run the same generic
/// kernels. Geometry, MRC and spline fitting never see reduced precision.
#[derive(Debug)]
enum Simulation {
    F64(Interior<f64>),
    F32(Interior<f32>),
}

/// A process condition at which the mask can be printed.
///
/// The process variation band compares prints at the extreme corners of
/// dose and focus, as §II-B of the paper describes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProcessCondition {
    /// `true` to use the defocused kernel stack.
    pub defocused: bool,
    /// Relative exposure dose (1.0 = nominal). Higher dose lowers the
    /// effective print threshold, enlarging printed features.
    pub dose: f64,
}

impl ProcessCondition {
    /// Nominal focus and dose.
    pub const NOMINAL: ProcessCondition = ProcessCondition {
        defocused: false,
        dose: 1.0,
    };

    /// The *outer* PV-band corner: overexposed at nominal focus (largest
    /// printed area).
    pub fn outer(dose_delta: f64) -> Self {
        ProcessCondition {
            defocused: false,
            dose: 1.0 + dose_delta,
        }
    }

    /// The *inner* PV-band corner: underexposed and defocused (smallest
    /// printed area).
    pub fn inner(dose_delta: f64) -> Self {
        ProcessCondition {
            defocused: true,
            dose: 1.0 - dose_delta,
        }
    }
}

/// Partially coherent lithography simulator over a fixed grid.
///
/// Construction synthesises the SOCS kernel stacks for nominal and defocused
/// conditions as compact frequency-domain patches (the pupil is a hard
/// disk); each [`LithoEngine::aerial_image`] call then costs one forward
/// FFT of the mask, one small inverse FFT per kernel on the coarsest grid
/// that holds the pupil, and one Fourier upsample of the summed intensity
/// (`DESIGN.md` §6).
///
/// ```no_run
/// use cardopc_geometry::Grid;
/// use cardopc_litho::{LithoEngine, OpticsConfig};
///
/// let engine = LithoEngine::new(OpticsConfig::default(), 256, 256, 4.0)?;
/// let mask = Grid::zeros(256, 256, 4.0);
/// let aerial = engine.aerial_image(&mask)?;
/// assert_eq!(aerial.width(), 256);
/// # Ok::<(), cardopc_litho::LithoError>(())
/// ```
///
/// One engine serves any number of threads at once (share it behind an
/// [`Arc`](std::sync::Arc)); each call checks a workspace out of the
/// engine's pool.
#[derive(Debug)]
pub struct LithoEngine {
    config: OpticsConfig,
    width: usize,
    height: usize,
    pitch: f64,
    threshold: f64,
    /// Parallel task-slot count, resolved once at construction from the
    /// shared pool (itself sized from `CARDOPC_THREADS` or the machine's
    /// available parallelism) — never queried per call.
    workers: usize,
    /// The simulation interior, at the precision chosen at construction.
    simulation: Simulation,
}

impl LithoEngine {
    /// Default resist threshold as a fraction of the open-frame intensity.
    ///
    /// For partially coherent annular illumination the intensity at a large
    /// feature's edge sits near 0.25–0.35 of the clear-field level; 0.3
    /// makes large features print approximately at size. Use
    /// [`LithoEngine::calibrate_threshold`] for an exact match.
    pub const DEFAULT_THRESHOLD: f64 = 0.3;

    /// Builds an engine for a `width`×`height` grid with `pitch` nm pixels.
    ///
    /// # Errors
    ///
    /// * [`LithoError::InvalidGrid`] unless both dimensions are 5-smooth
    ///   (`2^a·3^b·5^c`; size grids with [`crate::next_five_smooth`]),
    /// * [`LithoError::InvalidOptics`] for bad physical parameters.
    pub fn new(
        config: OpticsConfig,
        width: usize,
        height: usize,
        pitch: f64,
    ) -> Result<Self, LithoError> {
        Self::with_precision(config, width, height, pitch, Precision::F64)
    }

    /// Builds an engine whose simulation interior runs at `precision`.
    ///
    /// Kernel synthesis always happens in `f64`; an `F32` engine narrows
    /// the kernel patches once at construction and runs the convolution hot
    /// loop (spectrum, per-kernel products, pruned inverse transforms,
    /// `|z|²` accumulation, intensity upsample) in single precision — masks
    /// and intensities remain `f64` at the API boundary. See `DESIGN.md`
    /// §12 for the accuracy contract.
    ///
    /// # Errors
    ///
    /// Same as [`LithoEngine::new`].
    pub fn with_precision(
        config: OpticsConfig,
        width: usize,
        height: usize,
        pitch: f64,
        precision: Precision,
    ) -> Result<Self, LithoError> {
        let stacks = SocsStacks::build(&config, width, height, pitch)?;
        let simulation = match precision {
            Precision::F64 => Simulation::F64(Interior::new(stacks)),
            Precision::F32 => Simulation::F32(Interior::new(stacks.to_precision())),
        };
        Ok(LithoEngine {
            config,
            width,
            height,
            pitch,
            threshold: Self::DEFAULT_THRESHOLD,
            workers: WorkerPool::global().parallelism(),
            simulation,
        })
    }

    /// Frees the workspaces earlier calls left in the engine's pool; later
    /// calls allocate afresh. For a holder that keeps the engine between
    /// bursts of work and wants the scratch memory back in between.
    pub fn release_workspaces(&self) {
        match &self.simulation {
            Simulation::F64(sim) => sim.pool().clear(),
            Simulation::F32(sim) => sim.pool().clear(),
        }
    }

    /// The interior arithmetic of the simulation.
    pub fn precision(&self) -> Precision {
        match self.simulation {
            Simulation::F64(_) => Precision::F64,
            Simulation::F32(_) => Precision::F32,
        }
    }

    /// The optics configuration.
    pub fn config(&self) -> &OpticsConfig {
        &self.config
    }

    /// Grid width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel pitch in nanometres.
    pub fn pitch(&self) -> f64 {
        self.pitch
    }

    /// The resist threshold `I_th` used by [`LithoEngine::print`].
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Overrides the resist threshold.
    pub fn set_threshold(&mut self, threshold: f64) {
        self.threshold = threshold;
    }

    /// The number of parallel task slots used by the SOCS convolution.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Overrides the parallel task-slot count (clamped to at least 1).
    ///
    /// The summation order of the SOCS reduction is pinned to ascending
    /// kernel order regardless of this setting, so results are
    /// byte-identical across worker counts.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    fn check_mask(&self, mask: &Grid) -> Result<(), LithoError> {
        if mask.width() != self.width || mask.height() != self.height {
            return Err(LithoError::GridMismatch {
                expected: (self.width, self.height),
                got: (mask.width(), mask.height()),
            });
        }
        Ok(())
    }

    /// One image per focus state from a single forward mask FFT into `out`
    /// — the one request every public image call is phrased as.
    fn images(&self, mask: MaskRef, states: &[bool], pixels: Option<&[usize]>, out: &mut [Grid]) {
        let mut outputs: Vec<&mut [f64]> = out.iter_mut().map(Grid::data_mut).collect();
        let workers = self.workers;
        match &self.simulation {
            Simulation::F64(sim) => sim.images(mask, states, pixels, workers, &mut outputs),
            Simulation::F32(sim) => sim.images(mask, states, pixels, workers, &mut outputs),
        }
    }

    fn image(&self, defocused: bool, mask: &Grid) -> Grid {
        let mut out = Grid::zeros(self.width, self.height, self.pitch);
        self.images(mask.into(), &[defocused], None, from_mut(&mut out));
        out
    }

    /// Computes the aerial image `I = Σ_k w_k |M ⊗ h_k|²` at nominal focus.
    ///
    /// # Errors
    ///
    /// [`LithoError::GridMismatch`] when the mask grid has the wrong shape.
    pub fn aerial_image(&self, mask: &Grid) -> Result<Grid, LithoError> {
        self.check_mask(mask)?;
        Ok(self.image(false, mask))
    }

    /// [`LithoEngine::aerial_image`] into `out` — or, for `Some(pixels)`
    /// (row-major, ascending), only those, each a direct sum whose bits
    /// depend on the mask and its position alone (the frame's to rounding).
    ///
    /// `mask` is a `&Grid` or a [`crate::RasterCache::mask`], whose row spans
    /// spare the forward transform the pixels no shape wrote (same bits).
    ///
    /// # Errors
    ///
    /// [`LithoError::GridMismatch`] when `mask` or `out` has the wrong shape.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range pixel index.
    pub fn aerial_image_into<'a>(
        &self,
        mask: impl Into<MaskRef<'a>>,
        pixels: Option<&[usize]>,
        out: &mut Grid,
    ) -> Result<(), LithoError> {
        let mask = mask.into();
        self.check_mask(mask.grid)?;
        self.check_mask(out)?;
        self.images(mask, &[false], pixels, from_mut(out));
        Ok(())
    }

    /// Whether `pixels` pixels cost less than the whole frame: a pixel sums
    /// the image band's `ky ≥ 0` rows, the frame runs a column FFT per pair.
    pub fn pixels_pay(&self, pixels: usize) -> bool {
        let live = match &self.simulation {
            Simulation::F64(sim) => sim.stacks.image_band.h / 2 + 1,
            Simulation::F32(sim) => sim.stacks.image_band.h / 2 + 1,
        };
        let log2_h = (usize::BITS - self.height.leading_zeros()) as usize;
        pixels * live < self.width.div_ceil(2) * self.height * log2_h
    }

    /// Nominal-focus aerial image restricted to the given pixel columns
    /// (x indices, any order, repeats allowed), zero elsewhere: those
    /// columns' pixels through [`LithoEngine::aerial_image_into`].
    ///
    /// # Errors
    ///
    /// [`LithoError::GridMismatch`] when the mask grid has the wrong shape.
    ///
    /// # Panics
    ///
    /// Panics when a column index is out of range.
    pub fn aerial_image_cols(&self, mask: &Grid, cols: &[usize]) -> Result<Grid, LithoError> {
        let mut wanted = vec![false; self.width];
        cols.iter().for_each(|&x| wanted[x] = true);
        let n = self.width * self.height;
        let pixels: Vec<usize> = (0..n).filter(|i| wanted[i % self.width]).collect();
        let mut out = Grid::zeros(self.width, self.height, self.pitch);
        self.aerial_image_into(mask, Some(&pixels), &mut out)
            .map(|()| out)
    }

    /// Aerial images at several process conditions from a **single**
    /// forward mask FFT.
    ///
    /// The mask spectrum is computed once and shared across every
    /// condition's SOCS convolution; distinct focus states are convolved in
    /// one fan-out over the worker pool and duplicated focus states (dose
    /// only changes thresholding, not the image) are served by cloning the
    /// state's image. The returned grids align with `conditions`, and each
    /// is **bit-identical** to the one condition's image alone, at any
    /// worker count ([`crate::LithoWorkspace::images`]).
    ///
    /// # Errors
    ///
    /// [`LithoError::GridMismatch`] when the mask grid has the wrong shape.
    pub fn aerial_images_multi(
        &self,
        mask: &Grid,
        conditions: &[ProcessCondition],
    ) -> Result<Vec<Grid>, LithoError> {
        self.check_mask(mask)?;
        if conditions.is_empty() {
            return Ok(Vec::new());
        }
        // Unique focus states in first-appearance order.
        let mut states: Vec<bool> = Vec::with_capacity(2);
        for c in conditions {
            if !states.contains(&c.defocused) {
                states.push(c.defocused);
            }
        }
        let zeros = |_| Grid::zeros(self.width, self.height, self.pitch);
        let mut state_grids: Vec<Grid> = states.iter().map(zeros).collect();
        self.images(mask.into(), &states, None, &mut state_grids);
        Ok(conditions
            .iter()
            .map(|c| {
                let idx = states
                    .iter()
                    .position(|&d| d == c.defocused)
                    .expect("state collected above");
                state_grids[idx].clone()
            })
            .collect())
    }

    /// The vector-Jacobian product of the nominal-focus aerial image: the
    /// gradient `∂⟨C, I⟩/∂M` of the image's inner product with the
    /// `cotangent` `C`, at `mask` — what gradient-based ILT backpropagates
    /// through the imaging model. It is the exact adjoint of
    /// [`LithoEngine::aerial_image`]'s band-limited pipeline, run in
    /// transpose on the same kernel patches, at the engine's precision and
    /// byte-identical for any worker count.
    ///
    /// # Errors
    ///
    /// [`LithoError::GridMismatch`] when either grid has the wrong shape.
    pub fn vjp(&self, mask: &Grid, cotangent: &Grid) -> Result<Grid, LithoError> {
        self.check_mask(mask)?;
        self.check_mask(cotangent)?;
        let mut gradient = vec![0.0f64; self.width * self.height];
        let (mask, cotangent, workers) = (mask.data(), cotangent.data(), self.workers);
        match &self.simulation {
            Simulation::F64(sim) => sim.vjp(mask, cotangent, workers, &mut gradient),
            Simulation::F32(sim) => sim.vjp(mask, cotangent, workers, &mut gradient),
        }
        Ok(Grid::from_data(
            self.width,
            self.height,
            self.pitch,
            gradient,
        ))
    }

    /// The effective print threshold at a process condition: dose scales
    /// exposure, which is equivalent to dividing the threshold.
    pub fn effective_threshold(&self, condition: ProcessCondition) -> f64 {
        self.threshold / condition.dose
    }

    /// Simulates printing: binary wafer image (1 = resist exposed) at a
    /// process condition.
    ///
    /// # Errors
    ///
    /// [`LithoError::GridMismatch`] when the mask grid has the wrong shape.
    pub fn print(&self, mask: &Grid, condition: ProcessCondition) -> Result<Grid, LithoError> {
        self.check_mask(mask)?;
        let aerial = self.image(condition.defocused, mask);
        Ok(aerial.binarize(self.effective_threshold(condition)))
    }

    /// Calibrates the resist threshold so that a large feature's edge
    /// prints exactly at its drawn position, and installs it.
    ///
    /// Simulates a half-plane mask and reads the intensity at the edge.
    pub fn calibrate_threshold(&mut self) {
        let mut mask = Grid::zeros(self.width, self.height, self.pitch);
        for iy in 0..self.height {
            for ix in 0..self.width / 2 {
                mask[(ix, iy)] = 1.0;
            }
        }
        let aerial = self.image(false, &mask);
        // Intensity exactly at the edge (x = width/2 · pitch), mid-height.
        let edge_x = (self.width / 2) as f64 * self.pitch;
        let mid_y = self.height as f64 * self.pitch * 0.5;
        self.threshold = aerial.sample(edge_x, mid_y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_engine() -> LithoEngine {
        let config = OpticsConfig {
            source_rings: 1,
            points_per_ring: 4,
            ..OpticsConfig::default()
        };
        LithoEngine::new(config, 64, 64, 8.0).unwrap()
    }

    fn center_square_mask(engine: &LithoEngine, half: usize) -> Grid {
        let mut mask = Grid::zeros(engine.width(), engine.height(), engine.pitch());
        let c = engine.width() / 2;
        for iy in c - half..c + half {
            for ix in c - half..c + half {
                mask[(ix, iy)] = 1.0;
            }
        }
        mask
    }

    #[test]
    fn empty_mask_dark_image() {
        let engine = small_engine();
        let mask = Grid::zeros(64, 64, 8.0);
        let aerial = engine.aerial_image(&mask).unwrap();
        assert!(aerial.max_value() < 1e-12);
    }

    #[test]
    fn clear_field_prints_at_unity() {
        let engine = small_engine();
        let mask = Grid::filled(64, 64, 8.0, 1.0);
        let aerial = engine.aerial_image(&mask).unwrap();
        // Every source point passes DC; image should be ~1 everywhere.
        assert!((aerial.min_value() - 1.0).abs() < 1e-9);
        assert!((aerial.max_value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn intensity_is_nonnegative_and_bandlimited_blur_spreads() {
        let engine = small_engine();
        let mask = center_square_mask(&engine, 8);
        let aerial = engine.aerial_image(&mask).unwrap();
        assert!(aerial.min_value() >= -1e-12);
        // Centre is bright, far corner is dark.
        assert!(aerial[(32, 32)] > 0.5);
        assert!(aerial[(2, 2)] < 0.1);
        // Diffraction spreads light beyond the mask edge.
        assert!(aerial[(32 + 10, 32)] > 1e-6);
    }

    #[test]
    fn aerial_image_is_identical_across_worker_counts() {
        let mut rng = cardopc_geometry::SplitMix64::new(77);
        let mut mask = Grid::zeros(64, 64, 8.0);
        for v in mask.data_mut() {
            *v = rng.range_f64(0.0, 1.0);
        }
        let cols: Vec<usize> = (3..40).collect();
        let conditions = [ProcessCondition::NOMINAL, ProcessCondition::inner(0.02)];
        let all = |engine: &LithoEngine| {
            let mut images = engine.aerial_images_multi(&mask, &conditions).unwrap();
            images.push(engine.aerial_image(&mask).unwrap());
            images.push(engine.aerial_image_cols(&mask, &cols).unwrap());
            images
        };
        let mut engine = small_engine();
        engine.set_workers(1);
        let reference = all(&engine);
        for workers in [2usize, 3, 4, 16] {
            engine.set_workers(workers);
            assert_eq!(engine.workers(), workers);
            for (i, (got, want)) in all(&engine).iter().zip(&reference).enumerate() {
                assert_eq!(got.data(), want.data(), "workers {workers}, image {i}");
            }
        }
    }

    #[test]
    fn aerial_images_multi_matches_serial_pair_bitwise() {
        let mut rng = cardopc_geometry::SplitMix64::new(79);
        let mut mask = Grid::zeros(64, 64, 8.0);
        for v in mask.data_mut() {
            *v = rng.range_f64(0.0, 1.0);
        }
        let mut engine = small_engine();
        // Three conditions over two focus states: the outer corner repeats
        // the nominal focus state and must be served from the same image.
        let conditions = [
            ProcessCondition::NOMINAL,
            ProcessCondition::inner(0.02),
            ProcessCondition::outer(0.02),
        ];
        for workers in [1usize, 2, 3, 4, 16] {
            engine.set_workers(workers);
            let nominal = engine.aerial_image(&mask).unwrap();
            let defocused = engine
                .aerial_images_multi(&mask, &[ProcessCondition::inner(0.02)])
                .unwrap()
                .remove(0);
            let multi = engine.aerial_images_multi(&mask, &conditions).unwrap();
            assert_eq!(multi.len(), 3);
            assert_eq!(multi[0].data(), nominal.data(), "nominal @ {workers}");
            assert_eq!(multi[1].data(), defocused.data(), "defocused @ {workers}");
            assert_eq!(multi[2].data(), nominal.data(), "outer corner @ {workers}");
        }
    }

    #[test]
    fn aerial_images_multi_repeated_and_reordered_states_match_per_condition_calls() {
        // However the conditions repeat or order the two focus states,
        // every image equals the per-condition call bit for bit — the
        // contract any scheme that hands out a state's grid without copying
        // it has to keep (ROADMAP item 1(d)).
        let mut rng = cardopc_geometry::SplitMix64::new(80);
        let mut mask = Grid::zeros(64, 64, 8.0);
        for v in mask.data_mut() {
            *v = rng.range_f64(0.0, 1.0);
        }
        let engine = small_engine();
        let (nominal, inner, outer) = (
            ProcessCondition::NOMINAL,
            ProcessCondition::inner(0.02),
            ProcessCondition::outer(0.02),
        );
        for conditions in [
            vec![nominal, inner],
            vec![nominal, outer, inner],
            vec![inner, nominal, inner],
            vec![inner, inner, inner],
        ] {
            let multi = engine.aerial_images_multi(&mask, &conditions).unwrap();
            assert_eq!(multi.len(), conditions.len());
            for (got, &condition) in multi.iter().zip(&conditions) {
                let want = engine.aerial_images_multi(&mask, &[condition]).unwrap();
                let want = &want[0];
                assert_eq!(got.data(), want.data(), "{condition:?} of {conditions:?}");
            }
        }
    }

    #[test]
    fn aerial_images_multi_empty_conditions() {
        let engine = small_engine();
        let mask = Grid::zeros(64, 64, 8.0);
        assert!(engine.aerial_images_multi(&mask, &[]).unwrap().is_empty());
    }

    #[test]
    fn aerial_image_cols_matches_full_image() {
        // Bitwise against the pixel path, to rounding against the frame.
        let mut rng = cardopc_geometry::SplitMix64::new(78);
        let mut mask = Grid::zeros(64, 64, 8.0);
        for v in mask.data_mut() {
            *v = rng.range_f64(0.0, 1.0);
        }
        let engine = small_engine();
        let full = engine.aerial_image(&mask).unwrap();
        let cols: Vec<usize> = (10..30).chain(40..45).collect();
        let roi = engine.aerial_image_cols(&mask, &cols).unwrap();
        let mut pixels = Grid::filled(64, 64, 8.0, f64::NAN);
        let listed: Vec<usize> = (0..64 * 64)
            .filter(|i| i % 64 == 41 || i % 5 == 0)
            .collect();
        engine
            .aerial_image_into(&mask, Some(&listed), &mut pixels)
            .unwrap();
        let bound = 1e-12 * full.max_value();
        for iy in 0..64 {
            for ix in 0..64 {
                let (got, want) = (roi[(ix, iy)], full[(ix, iy)]);
                if cols.contains(&ix) {
                    assert!(
                        (got - want).abs() <= bound,
                        "pixel ({ix},{iy}): {got} vs {want}"
                    );
                } else {
                    assert_eq!(got, 0.0);
                }
                let i = iy * 64 + ix;
                if listed.contains(&i) && cols.contains(&ix) {
                    assert_eq!(
                        pixels[(ix, iy)].to_bits(),
                        got.to_bits(),
                        "pixel ({ix},{iy})"
                    );
                } else if !listed.contains(&i) {
                    assert!(pixels[(ix, iy)].is_nan(), "pixel ({ix},{iy}) written");
                }
            }
        }
    }

    #[test]
    fn symmetric_mask_gives_symmetric_image() {
        let engine = small_engine();
        let mask = center_square_mask(&engine, 8);
        let aerial = engine.aerial_image(&mask).unwrap();
        // The mask covers pixels 24..39, so the mirror axis sits between
        // pixels 31 and 32.
        for d in 1..16 {
            let right = aerial[(32 + d, 32)];
            let left = aerial[(31 - d, 32)];
            assert!(
                (right - left).abs() < 1e-9 * (1.0 + right.abs()),
                "asymmetry at offset {d}: {right} vs {left}"
            );
        }
    }

    #[test]
    fn defocus_blurs_the_image() {
        let engine = small_engine();
        let mask = center_square_mask(&engine, 6);
        let focus = engine.aerial_image(&mask).unwrap();
        let blur = engine
            .aerial_images_multi(&mask, &[ProcessCondition::inner(0.0)])
            .unwrap()
            .remove(0);
        // Peak intensity drops with defocus.
        assert!(blur.max_value() < focus.max_value() + 1e-12);
        // Total energy is conserved-ish but redistributed; check contrast:
        let contrast = |g: &Grid| g.max_value() - g.min_value();
        assert!(contrast(&blur) <= contrast(&focus) + 1e-12);
    }

    #[test]
    fn dose_scales_printed_area_monotonically() {
        let engine = small_engine();
        let mask = center_square_mask(&engine, 8);
        let area = |dose: f64| {
            engine
                .print(
                    &mask,
                    ProcessCondition {
                        defocused: false,
                        dose,
                    },
                )
                .unwrap()
                .count(|v| v > 0.5)
        };
        let lo = area(0.9);
        let mid = area(1.0);
        let hi = area(1.1);
        assert!(lo <= mid && mid <= hi, "areas {lo} {mid} {hi}");
        assert!(hi > lo, "dose must change printed area");
    }

    #[test]
    fn grid_mismatch_detected() {
        let engine = small_engine();
        let mask = Grid::zeros(32, 32, 8.0);
        assert!(matches!(
            engine.aerial_image(&mask),
            Err(LithoError::GridMismatch { .. })
        ));
        let good = Grid::zeros(64, 64, 8.0);
        for (mask, cotangent) in [(&mask, &good), (&good, &mask)] {
            assert!(matches!(
                engine.vjp(mask, cotangent),
                Err(LithoError::GridMismatch { .. })
            ));
        }
    }

    #[test]
    fn grids_that_are_not_five_smooth_are_rejected() {
        for precision in [Precision::F64, Precision::F32] {
            let err = LithoEngine::with_precision(OpticsConfig::default(), 13, 16, 8.0, precision)
                .unwrap_err();
            assert_eq!(
                err,
                LithoError::InvalidGrid {
                    width: 13,
                    height: 16
                }
            );
            assert!(
                err.to_string().contains("next 5-smooth grid is 15x16"),
                "{err}"
            );
        }
        assert!(matches!(
            LithoEngine::new(OpticsConfig::default(), 64, 0, 8.0),
            Err(LithoError::InvalidGrid { .. })
        ));
    }

    #[test]
    fn vjp_matches_the_central_difference_of_the_image() {
        // `⟨C, I(M)⟩` is quadratic in `M`, so its central difference along
        // `δ` is the directional derivative `⟨vjp(M, C), δ⟩` up to rounding
        // whatever the step.
        let mut rng = cardopc_geometry::SplitMix64::new(82);
        let mut random = |lo: f64| {
            let mut grid = Grid::zeros(64, 64, 8.0);
            for v in grid.data_mut() {
                *v = rng.range_f64(lo, 1.0);
            }
            grid
        };
        let (mask, cotangent, direction) = (random(0.0), random(-1.0), random(-1.0));
        let engine = small_engine();
        let dot = |a: &Grid, b: &Grid| a.data().iter().zip(b.data()).map(|(x, y)| x * y).sum();
        let along = |eps: f64| {
            let mut moved = mask.clone();
            for (m, &d) in moved.data_mut().iter_mut().zip(direction.data()) {
                *m += eps * d;
            }
            dot(&cotangent, &engine.aerial_image(&moved).unwrap())
        };
        let eps = 0.25;
        let numeric: f64 = (along(eps) - along(-eps)) / (2.0 * eps);
        let analytic: f64 = dot(&engine.vjp(&mask, &cotangent).unwrap(), &direction);
        assert!(
            (analytic - numeric).abs() <= 1e-10 * numeric.abs(),
            "analytic {analytic} vs central difference {numeric}"
        );
    }

    #[test]
    fn calibrated_threshold_prints_edge_at_position() {
        let mut engine = small_engine();
        engine.calibrate_threshold();
        let th = engine.threshold();
        assert!(th > 0.1 && th < 0.6, "implausible threshold {th}");

        // A wide line should now print with its edge within a pixel or two
        // of the drawn edge.
        let mut mask = Grid::zeros(64, 64, 8.0);
        for iy in 0..64 {
            for ix in 16..48 {
                mask[(ix, iy)] = 1.0;
            }
        }
        let printed = engine.print(&mask, ProcessCondition::NOMINAL).unwrap();
        // Scan the mid row for the printed left edge.
        let mut edge = None;
        for ix in 1..64 {
            if printed[(ix - 1, 32)] < 0.5 && printed[(ix, 32)] > 0.5 {
                edge = Some(ix);
                break;
            }
        }
        let edge = edge.expect("line should print");
        assert!(
            (edge as i64 - 16).unsigned_abs() <= 2,
            "printed edge at {edge}, drawn at 16"
        );
    }

    fn small_engine_f32() -> LithoEngine {
        let config = OpticsConfig {
            source_rings: 1,
            points_per_ring: 4,
            ..OpticsConfig::default()
        };
        LithoEngine::with_precision(config, 64, 64, 8.0, Precision::F32).unwrap()
    }

    #[test]
    fn default_engine_runs_f64_and_with_precision_selects_f32() {
        assert_eq!(small_engine().precision(), Precision::F64);
        let engine = small_engine_f32();
        assert_eq!(engine.precision(), Precision::F32);
    }

    #[test]
    fn shared_engine_workspace_pool_serves_concurrent_callers_bitwise() {
        // Threads share one engine; every image, pixel list and gradient
        // matches a serial call on a fresh engine bit for bit, whichever
        // pooled workspace ran it, and the pool stops at one workspace per
        // concurrent caller.
        const THREADS: usize = 4;
        let random = |seed: u64, lo: f64| {
            let mut rng = cardopc_geometry::SplitMix64::new(seed);
            let mut grid = Grid::zeros(64, 64, 8.0);
            for v in grid.data_mut() {
                *v = rng.range_f64(lo, 1.0);
            }
            grid
        };
        let conditions = [ProcessCondition::NOMINAL, ProcessCondition::inner(0.02)];
        let pixels: Vec<usize> = (0..64 * 64).filter(|i| i % 7 == 3).collect();
        // Full frame, listed pixels, both focus states, gradient.
        let run = |engine: &LithoEngine, mask: &Grid, cotangent: &Grid| {
            let mut full = Grid::zeros(64, 64, 8.0);
            engine.aerial_image_into(mask, None, &mut full).unwrap();
            let mut listed = Grid::zeros(64, 64, 8.0);
            engine
                .aerial_image_into(mask, Some(&pixels), &mut listed)
                .unwrap();
            let mut grids = vec![full, listed];
            grids.extend(engine.aerial_images_multi(mask, &conditions).unwrap());
            grids.push(engine.vjp(mask, cotangent).unwrap());
            grids
                .iter()
                .flat_map(|g| g.data().iter().map(|v| v.to_bits()))
                .collect::<Vec<u64>>()
        };
        let pooled = |engine: &LithoEngine| match &engine.simulation {
            Simulation::F64(sim) => sim.pool().len(),
            Simulation::F32(sim) => sim.pool().len(),
        };
        for engine in [small_engine(), small_engine_f32()] {
            let (config, precision) = (engine.config().clone(), engine.precision());
            let fresh = LithoEngine::with_precision(config, 64, 64, 8.0, precision).unwrap();
            let inputs: Vec<(Grid, Grid)> = (0..THREADS as u64)
                .map(|t| (random(90 + t, 0.0), random(190 + t, -1.0)))
                .collect();
            let want: Vec<Vec<u64>> = inputs.iter().map(|(m, c)| run(&fresh, m, c)).collect();
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for (t, (mask, cotangent)) in inputs.iter().enumerate() {
                    let (engine, start, run, want) = (&engine, &start, &run, &want);
                    scope.spawn(move || {
                        start.wait();
                        for round in 0..3 {
                            let same = run(engine, mask, cotangent) == want[t];
                            assert!(same, "{precision:?} thread {t} round {round}");
                        }
                    });
                }
            });
            let warm = pooled(&engine);
            assert!((1..=THREADS).contains(&warm), "{warm} pooled workspaces");
            // A warm pool serves a serial caller without growing.
            run(&engine, &inputs[0].0, &inputs[0].1);
            assert_eq!(pooled(&engine), warm);
            engine.release_workspaces();
            assert_eq!(pooled(&engine), 0);
            assert!(run(&engine, &inputs[1].0, &inputs[1].1) == want[1]);
        }
    }

    #[test]
    fn f32_engine_tracks_f64_within_tolerance() {
        let mut rng = cardopc_geometry::SplitMix64::new(80);
        let mut mask = Grid::zeros(64, 64, 8.0);
        for v in mask.data_mut() {
            *v = rng.range_f64(0.0, 1.0);
        }
        let e64 = small_engine();
        let e32 = small_engine_f32();
        let conditions = [ProcessCondition::NOMINAL, ProcessCondition::inner(0.02)];
        let multi64 = e64.aerial_images_multi(&mask, &conditions).unwrap();
        let multi32 = e32.aerial_images_multi(&mask, &conditions).unwrap();
        for (c, (a, b)) in multi32.iter().zip(&multi64).enumerate() {
            let peak = b.max_value();
            assert!(peak > 0.0);
            for (i, (&x, &y)) in a.data().iter().zip(b.data()).enumerate() {
                assert!(
                    (x - y).abs() < 2e-4 * peak,
                    "condition {c}, pixel {i}: f32 {x} vs f64 {y}"
                );
            }
        }
    }

    #[test]
    fn f32_engine_is_identical_across_worker_counts() {
        let mut rng = cardopc_geometry::SplitMix64::new(81);
        let mut mask = Grid::zeros(64, 64, 8.0);
        for v in mask.data_mut() {
            *v = rng.range_f64(0.0, 1.0);
        }
        let mut engine = small_engine_f32();
        engine.set_workers(1);
        let reference = engine.aerial_image(&mask).unwrap();
        for workers in [2usize, 3, 16] {
            engine.set_workers(workers);
            let got = engine.aerial_image(&mask).unwrap();
            assert_eq!(got.data(), reference.data(), "workers {workers}");
        }
    }

    #[test]
    fn process_corners_order_print_areas() {
        let mut engine = small_engine();
        engine.calibrate_threshold();
        let mask = center_square_mask(&engine, 8);
        let outer = engine
            .print(&mask, ProcessCondition::outer(0.05))
            .unwrap()
            .count(|v| v > 0.5);
        let nominal = engine
            .print(&mask, ProcessCondition::NOMINAL)
            .unwrap()
            .count(|v| v > 0.5);
        let inner = engine
            .print(&mask, ProcessCondition::inner(0.05))
            .unwrap()
            .count(|v| v > 0.5);
        assert!(
            inner <= nominal && nominal <= outer,
            "corner ordering violated: {inner} {nominal} {outer}"
        );
        assert!(outer > inner);
    }
}
