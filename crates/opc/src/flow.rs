//! The full CardOPC pipeline (Fig. 2).
//!
//! ① SRAF insertion → ② dissection → control point generation →
//! iterate { ③ connect control points with cardinal splines →
//! ④ lithography simulation → ⑤ EPE estimation and control point moves } →
//! ⑥ mask rule checking and violation resolving.

use crate::config::OpcConfig;
use crate::control::OpcShape;
use crate::correct::{correct_shapes_recording, CorrectionStep};
use crate::dissect::dissect_polygon;
use crate::eval::{engine_for_extent_at, evaluate_mask, Evaluation, MeasureConvention};
use crate::sraf::insert_srafs;
use crate::OpcError;
use cardopc_geometry::{BBox, Grid, Point, Polygon};
use cardopc_layout::Clip;
use cardopc_litho::{epe_footprint, LithoEngine, RasterCache};
use cardopc_mrc::{AreaPolicy, MrcResolver, ResolveConfig};
use cardopc_spline::SamplingPlan;
use std::sync::{Arc, Mutex, PoisonError};

/// Result of a CardOPC run on one clip.
#[derive(Clone, Debug)]
pub struct OpcOutcome {
    /// The optimised mask shapes (main patterns and SRAFs).
    pub shapes: Vec<OpcShape>,
    /// Sum of |EPE| over all anchors, per iteration.
    pub epe_history: Vec<f64>,
    /// Final scores under the paper's metrics.
    pub evaluation: Evaluation,
    /// MRC violations found after optimisation, before resolving.
    pub mrc_initial_violations: usize,
    /// MRC violations left after resolving.
    pub mrc_remaining: usize,
    /// The calibrated resist threshold used.
    pub threshold: f64,
}

/// Output of the optimisation loop alone (steps ①–⑥ minus the final
/// scoring pass): what a tiled runtime needs when it evaluates the mask
/// itself over a sub-window.
#[derive(Clone, Debug)]
pub struct OptimizedShapes {
    /// The optimised mask shapes (main patterns and SRAFs).
    pub shapes: Vec<OpcShape>,
    /// Sum of |EPE| over all anchors, per iteration.
    pub epe_history: Vec<f64>,
    /// Per-iteration, per-shape |EPE| sums (`per_shape_epe[iter][shape]`,
    /// shape order matching [`OptimizedShapes::shapes`]; SRAF entries are
    /// `0.0`). Each row sums to the matching `epe_history` entry, letting
    /// callers re-aggregate convergence over a subset of shapes (e.g. the
    /// owner-tile shapes of a halo window).
    pub per_shape_epe: Vec<Vec<f64>>,
    /// MRC violations found after optimisation, before resolving.
    pub mrc_initial_violations: usize,
    /// MRC violations left after resolving.
    pub mrc_remaining: usize,
}

/// The CardOPC curvilinear OPC flow.
///
/// ```no_run
/// use cardopc_layout::via_clips;
/// use cardopc_opc::{CardOpc, OpcConfig};
///
/// let clip = &via_clips()[0];
/// let flow = CardOpc::new(OpcConfig::via());
/// let outcome = flow.run(clip)?;
/// println!("EPE sum: {:.1} nm", outcome.evaluation.epe_sum_nm);
/// # Ok::<(), cardopc_opc::OpcError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CardOpc {
    config: OpcConfig,
    /// The engine [`CardOpc::run`] calibrated last and the extent (bits of
    /// the longer clip edge, nm) and precision tag it was built for, so a
    /// batch of clips of one extent (the 13 Table I clips) builds it once.
    last_engine: Arc<Mutex<Option<KeyedEngine>>>,
}

type KeyedEngine = ((u64, u8), Arc<LithoEngine>);

impl CardOpc {
    /// Creates the flow.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (see
    /// [`OpcConfig::assert_valid`]).
    pub fn new(config: OpcConfig) -> Self {
        config.assert_valid();
        CardOpc {
            config,
            last_engine: Arc::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &OpcConfig {
        &self.config
    }

    /// Initialisation phase: SRAF insertion, dissection, control point
    /// generation (Fig. 3).
    ///
    /// # Errors
    ///
    /// [`OpcError::EmptyClip`] for clips without targets, or spline errors
    /// for degenerate shapes.
    pub fn initialize(&self, clip: &Clip) -> Result<Vec<OpcShape>, OpcError> {
        if clip.targets().is_empty() {
            return Err(OpcError::EmptyClip);
        }
        let mut shapes = Vec::with_capacity(clip.targets().len());
        for target in clip.targets() {
            let segs = dissect_polygon(target, self.config.l_c, self.config.l_u);
            shapes.push(OpcShape::from_dissection_with_pull(
                &segs,
                self.config.tension,
                self.config.corner_pull,
            )?);
        }
        if let Some(sraf_cfg) = &self.config.sraf {
            let window = BBox::new(Point::ZERO, Point::new(clip.width(), clip.height()));
            let mut srafs = insert_srafs(clip.targets(), sraf_cfg, self.config.tension, window)?;
            // Make the assists rule-clean *before* optimisation: SRAFs stay
            // static through the correction loop, so fixing them afterwards
            // would change the imaging the mains converged against. Fixing
            // them now lets the loop converge around their final geometry
            // and leaves the end-of-flow MRC stage (step 6) a no-op for
            // assists.
            if let Some(rules) = self.config.mrc {
                let mut sraf_splines: Vec<_> = srafs.iter().map(|s| s.spline.clone()).collect();
                let resolver = MrcResolver::new(
                    rules,
                    ResolveConfig {
                        samples_per_segment: self.config.samples_per_segment,
                        ..ResolveConfig::default()
                    },
                );
                let report = resolver.resolve(&mut sraf_splines);
                // Assists that cannot be healed are expendable: better to
                // drop a rule-breaking assist than to ship it or deform
                // the converged mask later.
                let guilty: std::collections::HashSet<usize> =
                    report.remaining.iter().map(|v| v.shape).collect();
                let mut rebuilt = Vec::with_capacity(sraf_splines.len());
                for (i, spline) in sraf_splines.into_iter().enumerate() {
                    if !guilty.contains(&i) {
                        let mut shape = srafs[i].clone();
                        shape.spline = spline;
                        rebuilt.push(shape);
                    }
                }
                srafs = rebuilt;
            }
            shapes.extend(srafs);
        }
        Ok(shapes)
    }

    /// Runs the full flow on a clip, constructing a calibrated engine for
    /// the clip's extent at the configured precision.
    ///
    /// # Errors
    ///
    /// Any [`OpcError`]; see [`CardOpc::run_with_engine`].
    pub fn run(&self, clip: &Clip) -> Result<OpcOutcome, OpcError> {
        // The pitch is fixed: an engine is a function of extent and precision.
        let extent = clip.width().max(clip.height()).to_bits();
        let key = (extent, self.config.precision.tag());
        let engine = {
            // Held through a build, so clips run concurrently build once.
            let mut memo = self
                .last_engine
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match &*memo {
                Some((built, engine)) if *built == key => Arc::clone(engine),
                _ => {
                    let (w, h, c) = (clip.width(), clip.height(), &self.config);
                    let engine = Arc::new(engine_for_extent_at(w, h, c.pitch, c.precision)?);
                    *memo = Some((key, Arc::clone(&engine)));
                    engine
                }
            }
        };
        let outcome = self.run_with_engine(clip, &engine);
        // The memo keeps the kernels between clips, not the scratch, so a
        // batch peaks at the scratch of the clips in flight.
        engine.release_workspaces();
        outcome
    }

    /// Runs the full flow against a caller-provided engine (reuse across
    /// clips of identical extent amortises kernel construction).
    ///
    /// # Errors
    ///
    /// [`OpcError::EmptyClip`], [`OpcError::Litho`] on grid mismatches, or
    /// spline errors for degenerate shapes.
    pub fn run_with_engine(
        &self,
        clip: &Clip,
        engine: &LithoEngine,
    ) -> Result<OpcOutcome, OpcError> {
        let optimized = self.optimize_with_engine(clip, engine)?;
        let mask_polys: Vec<Polygon> = optimized
            .shapes
            .iter()
            .map(|s| s.spline.to_polygon(self.config.samples_per_segment))
            .collect();
        let convention = self.measure_convention();
        let evaluation = evaluate_mask(
            engine,
            &mask_polys,
            clip.targets(),
            convention,
            self.config.dose_delta,
            self.config.epe_search,
        )?;

        Ok(OpcOutcome {
            shapes: optimized.shapes,
            epe_history: optimized.epe_history,
            evaluation,
            mrc_initial_violations: optimized.mrc_initial_violations,
            mrc_remaining: optimized.mrc_remaining,
            threshold: engine.threshold(),
        })
    }

    /// Runs steps ①–⑥ (initialise, iterate, MRC resolve) against a
    /// caller-provided engine, without the final scoring pass.
    ///
    /// Tiled runtimes use this entry point when the evaluation window
    /// differs from the optimisation window (e.g. scoring only the core of
    /// a halo tile); [`CardOpc::run_with_engine`] is this plus
    /// [`evaluate_mask`] over the whole clip.
    ///
    /// # Errors
    ///
    /// [`OpcError::EmptyClip`], [`OpcError::Litho`] on grid mismatches, or
    /// spline errors for degenerate shapes.
    pub fn optimize_with_engine(
        &self,
        clip: &Clip,
        engine: &LithoEngine,
    ) -> Result<OptimizedShapes, OpcError> {
        let mut shapes = self.initialize(clip)?;
        let mut epe_history = Vec::with_capacity(self.config.iterations);
        let mut per_shape_epe = Vec::with_capacity(self.config.iterations);
        let mut step_limit = self.config.move_step;

        // Per-iteration simulation state, set up once. SRAFs are frozen
        // after initialisation, so their raster layer is cached; the main
        // shapes are re-sampled through the shared sampling plan into
        // reused polygon buffers; the aerial image goes into one grid kept
        // across iterations, and where it is the cheaper path only at the
        // pixels the EPE correction reads (the frozen anchors' footprint).
        let per = self.config.samples_per_segment;
        let plan = SamplingPlan::get(per, self.config.tension);
        let sraf_polys: Vec<Polygon> = shapes
            .iter()
            .filter(|s| s.is_sraf)
            .map(|s| s.spline.to_polygon(per))
            .collect();
        let (w, h, pitch) = (engine.width(), engine.height(), engine.pitch());
        let mut cache = RasterCache::new(w, h, pitch);
        cache.set_base(&sraf_polys);
        // SRAFs have no anchors.
        let anchors = shapes.iter().flat_map(|s| &s.anchors);
        let footprint = epe_footprint((w, h, pitch), anchors, self.config.epe_search);
        let pixels = engine.pixels_pay(footprint.len()).then_some(&footprint[..]);
        let mut aerial = Grid::zeros(w, h, pitch);
        let mut main_polys: Vec<Polygon> = Vec::new();
        let mut samples: Vec<Point> = Vec::new();

        for iter in 0..self.config.iterations {
            if iter == self.config.decay_at {
                step_limit *= self.config.decay_factor;
            }
            if self.config.relax_every > 0 && iter > 0 && iter % self.config.relax_every == 0 {
                for shape in shapes.iter_mut().filter(|s| !s.is_sraf) {
                    crate::correct::relax_shape(shape, self.config.relax_strength);
                }
            }
            // ③ connect: resample the moving shapes. The reused polygon is
            // refilled in place when the fresh sample ring has the same
            // vertex count (`Polygon::new` may dedup near-coincident
            // samples, in which case the polygon is rebuilt).
            for (i, shape) in shapes.iter().filter(|s| !s.is_sraf).enumerate() {
                shape.spline.sample_into(&plan, &mut samples);
                match main_polys.get_mut(i) {
                    Some(poly) if poly.len() == samples.len() => {
                        poly.vertices_mut().copy_from_slice(&samples);
                    }
                    Some(poly) => *poly = Polygon::new(samples.clone()),
                    None => main_polys.push(Polygon::new(samples.clone())),
                }
            }
            // ④ simulate on the cached composite (with its row spans), at
            // the footprint only where that pays.
            cache.composite(&main_polys);
            engine.aerial_image_into(cache.mask(), pixels, &mut aerial)?;
            // ⑤ EPE feedback (shape-parallel on the shared pool).
            let mut per_shape = Vec::new();
            let total = correct_shapes_recording(
                &mut shapes,
                &aerial,
                engine.threshold(),
                &CorrectionStep {
                    step_limit,
                    smooth_window: self.config.smooth_window,
                    epe_search: self.config.epe_search,
                    spline_normals: self.config.spline_normals,
                },
                &mut per_shape,
            );
            epe_history.push(total);
            per_shape_epe.push(per_shape);
        }
        // Not held through MRC: two tile workers would each keep a frame.
        drop((aerial, footprint));

        // ⑥ MRC check and resolve.
        let (mrc_initial, mrc_remaining) = if let Some(rules) = self.config.mrc {
            let _span = cardopc_litho::span::span("mrc_resolve");
            let mut splines: Vec<_> = shapes.iter().map(|s| s.spline.clone()).collect();
            let resolver = MrcResolver::new(
                rules,
                ResolveConfig {
                    area_policy: AreaPolicy::Keep,
                    samples_per_segment: self.config.samples_per_segment,
                },
            );
            let report = resolver.resolve(&mut splines);
            for (shape, spline) in shapes.iter_mut().zip(splines) {
                shape.spline = spline;
            }
            (report.initial_violations, report.remaining.len())
        } else {
            (0, 0)
        };

        Ok(OptimizedShapes {
            shapes,
            epe_history,
            per_shape_epe,
            mrc_initial_violations: mrc_initial,
            mrc_remaining,
        })
    }

    /// The configured EPE measure point convention.
    pub fn measure_convention(&self) -> MeasureConvention {
        self.config.convention
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correct::correct_shapes_recording;
    use crate::eval::engine_for_extent;
    use cardopc_geometry::Point;

    /// A small clip with one 120 nm square, cheap enough for debug-mode
    /// end-to-end tests.
    fn small_clip() -> Clip {
        Clip::new(
            "unit",
            1000.0,
            1000.0,
            vec![Polygon::rect(
                Point::new(440.0, 440.0),
                Point::new(560.0, 560.0),
            )],
        )
    }

    fn fast_config() -> OpcConfig {
        OpcConfig {
            iterations: 6,
            decay_at: 4,
            pitch: 8.0,
            sraf: None,
            mrc: None,
            // The debug-friendly 8 nm pitch is too coarse for the
            // production relaxation cadence; these tests exercise the core
            // correction loop.
            relax_every: 0,
            ..OpcConfig::via()
        }
    }

    #[test]
    fn initialize_produces_shapes_with_anchors() {
        let flow = CardOpc::new(fast_config());
        let shapes = flow.initialize(&small_clip()).unwrap();
        assert_eq!(shapes.len(), 1);
        assert!(shapes[0].control_count() >= 8);
        assert_eq!(shapes[0].anchors.len(), shapes[0].control_count());
    }

    #[test]
    fn empty_clip_rejected() {
        let flow = CardOpc::new(fast_config());
        let empty = Clip::new("empty", 100.0, 100.0, vec![]);
        assert!(matches!(flow.run(&empty), Err(OpcError::EmptyClip)));
    }

    #[test]
    fn run_reuses_an_equal_extent_engine_without_moving_a_bit() {
        // Every float of an outcome that the engine can reach.
        fn bits(o: &OpcOutcome) -> Vec<u64> {
            let points = o.shapes.iter().flat_map(|s| s.spline.control_points());
            points
                .flat_map(|p| [p.x, p.y])
                .chain(o.epe_history.iter().copied())
                .chain([o.threshold, o.evaluation.epe_sum_nm, o.evaluation.pvb_nm2])
                .map(f64::to_bits)
                .collect()
        }
        let wide = Clip::new("wide", 1400.0, 1000.0, small_clip().targets().to_vec());
        // A new flow has an empty memo: these engines are built for the run.
        let fresh = |clip: &Clip| bits(&CardOpc::new(fast_config()).run(clip).unwrap());
        let flow = CardOpc::new(fast_config());
        let runs = [small_clip(), small_clip(), wide, small_clip(), small_clip()];
        for (i, clip) in runs.iter().enumerate() {
            // Builds, reuses, evicts, rebuilds, reuses.
            assert_eq!(bits(&flow.run(clip).unwrap()), fresh(clip), "run {i}");
        }
    }

    #[test]
    fn sraf_insertion_adds_shapes() {
        let mut cfg = fast_config();
        cfg.sraf = Some(crate::config::SrafConfig::default());
        let flow = CardOpc::new(cfg);
        let shapes = flow.initialize(&small_clip()).unwrap();
        assert!(shapes.len() > 1, "expected SRAFs around an isolated square");
        assert!(shapes.iter().skip(1).all(|s| s.is_sraf));
    }

    #[test]
    fn opc_reduces_epe_vs_uncorrected_mask() {
        // End-to-end: run a CardOPC flow with a realistic iteration budget
        // and verify the corrected mask scores better than printing the
        // raw target. (The spline mask starts smaller than the target due
        // to corner rounding, so it needs the paper's full-budget regime
        // to win; see the release-mode benches for the 32-iteration runs.)
        let clip = small_clip();
        let mut cfg = fast_config();
        cfg.iterations = 24;
        cfg.decay_at = 16;
        let flow = CardOpc::new(cfg);
        let engine = engine_for_extent(clip.width(), clip.height(), 8.0).unwrap();

        let uncorrected = evaluate_mask(
            &engine,
            clip.targets(),
            clip.targets(),
            MeasureConvention::ViaEdgeCenters,
            0.02,
            40.0,
        )
        .unwrap();

        let outcome = flow.run_with_engine(&clip, &engine).unwrap();
        assert_eq!(outcome.epe_history.len(), 24);
        // A well-printing isolated 120 nm square needs little correction;
        // the corrected mask must not be materially worse on EPE and must
        // improve the full-image L2 (corner rounding).
        assert!(
            outcome.evaluation.epe_sum_nm <= 1.15 * uncorrected.epe_sum_nm,
            "OPC EPE {} vs uncorrected {}",
            outcome.evaluation.epe_sum_nm,
            uncorrected.epe_sum_nm
        );
        assert!(
            outcome.evaluation.l2_nm2 <= uncorrected.l2_nm2,
            "OPC L2 {} vs uncorrected {}",
            outcome.evaluation.l2_nm2,
            uncorrected.l2_nm2
        );
    }

    #[test]
    fn epe_history_trends_downward() {
        let clip = small_clip();
        let flow = CardOpc::new(fast_config());
        let outcome = flow.run(&clip).unwrap();
        let first = outcome.epe_history.first().copied().unwrap();
        let last = outcome.epe_history.last().copied().unwrap();
        assert!(
            last <= first,
            "EPE history should not increase: {first} -> {last}"
        );
    }

    #[test]
    fn mrc_stage_reports_and_resolves() {
        let mut cfg = fast_config();
        cfg.mrc = Some(cardopc_mrc::MrcRules::default());
        let flow = CardOpc::new(cfg);
        let outcome = flow.run(&small_clip()).unwrap();
        // Whatever was found must be (almost) fully resolved.
        assert!(outcome.mrc_remaining <= outcome.mrc_initial_violations);
    }

    #[test]
    fn optimized_loop_matches_reference_flow() {
        // The cached-raster + pixel-footprint + shape-parallel iteration
        // loop must reproduce the plain pipeline (full rasterisation and
        // full aerial image every iteration, written against public APIs
        // only) to within 1e-9, with identical MRC accounting.
        let clip = small_clip();
        let mut cfg = fast_config();
        cfg.sraf = Some(crate::config::SrafConfig::default());
        cfg.mrc = Some(cardopc_mrc::MrcRules::default());
        cfg.relax_every = 2;
        let flow = CardOpc::new(cfg.clone());
        let engine = engine_for_extent(clip.width(), clip.height(), cfg.pitch).unwrap();

        let mut shapes = flow.initialize(&clip).unwrap();
        // The clip is sparse: the loop synthesises the footprint only.
        let anchors = shapes
            .iter()
            .filter(|s| !s.is_sraf)
            .flat_map(|s| &s.anchors);
        let grid = (engine.width(), engine.height(), engine.pitch());
        let footprint = epe_footprint(grid, anchors, cfg.epe_search);
        assert!(
            engine.pixels_pay(footprint.len()),
            "{} pixels",
            footprint.len()
        );
        let mut step_limit = cfg.move_step;
        let mut reference_history = Vec::new();
        let mut per_shape = Vec::new();
        for iter in 0..cfg.iterations {
            if iter == cfg.decay_at {
                step_limit *= cfg.decay_factor;
            }
            if cfg.relax_every > 0 && iter > 0 && iter % cfg.relax_every == 0 {
                for shape in shapes.iter_mut().filter(|s| !s.is_sraf) {
                    crate::correct::relax_shape(shape, cfg.relax_strength);
                }
            }
            let polys: Vec<Polygon> = shapes
                .iter()
                .map(|s| s.spline.to_polygon(cfg.samples_per_segment))
                .collect();
            let mask =
                cardopc_litho::rasterize(&polys, engine.width(), engine.height(), engine.pitch());
            let aerial = engine.aerial_image(&mask).unwrap();
            let total = correct_shapes_recording(
                &mut shapes,
                &aerial,
                engine.threshold(),
                &CorrectionStep {
                    step_limit,
                    smooth_window: cfg.smooth_window,
                    epe_search: cfg.epe_search,
                    spline_normals: cfg.spline_normals,
                },
                &mut per_shape,
            );
            reference_history.push(total);
        }
        let mut splines: Vec<_> = shapes.iter().map(|s| s.spline.clone()).collect();
        let resolver = MrcResolver::new(
            cfg.mrc.unwrap(),
            ResolveConfig {
                area_policy: AreaPolicy::Keep,
                samples_per_segment: cfg.samples_per_segment,
            },
        );
        let reference_report = resolver.resolve(&mut splines);

        let outcome = flow.run_with_engine(&clip, &engine).unwrap();
        assert_eq!(outcome.epe_history.len(), reference_history.len());
        for (got, want) in outcome.epe_history.iter().zip(&reference_history) {
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "EPE history diverged: {got} vs {want}"
            );
        }
        assert_eq!(
            outcome.mrc_initial_violations,
            reference_report.initial_violations
        );
        assert_eq!(outcome.mrc_remaining, reference_report.remaining.len());
    }

    #[test]
    fn epe_footprint_covers_every_read_on_a_via_clip_and_an_array_tile() {
        // The array job's tile: 70 nm wire pairs on a 1024 nm step, a
        // 1024 nm core with a 512 nm halo.
        let mut wires = Vec::new();
        for (i, j) in (0..3).flat_map(|i| (0..3).map(move |j| (i, j))) {
            let o = Point::new(i as f64 * 1024.0 - 512.0, j as f64 * 1024.0 - 512.0);
            for (x0, y0, x1, y1) in [(160.0, 256.0, 864.0, 326.0), (160.0, 640.0, 640.0, 710.0)] {
                wires.push(Polygon::rect(
                    o + Point::new(x0, y0),
                    o + Point::new(x1, y1),
                ));
            }
        }
        let array = Clip::new("array", 2048.0, 2048.0, wires).crop_intersecting(
            Point::new(0.0, 0.0),
            2048.0,
            2048.0,
            "array tile",
        );
        let via = cardopc_layout::via_clips().remove(0);
        for (clip, cfg) in [(via, OpcConfig::via()), (array, OpcConfig::large_scale())] {
            let engine = engine_for_extent(clip.width(), clip.height(), cfg.pitch).unwrap();
            let grid = (engine.width(), engine.height(), engine.pitch());
            let shapes = CardOpc::new(cfg.clone()).initialize(&clip).unwrap();
            let anchors: Vec<_> = shapes
                .iter()
                .filter(|s| !s.is_sraf)
                .flat_map(|s| &s.anchors)
                .collect();
            let footprint = epe_footprint(grid, anchors.iter().copied(), cfg.epe_search);
            assert!(engine.pixels_pay(footprint.len()), "{}", clip.name());
            let polys: Vec<Polygon> = shapes
                .iter()
                .map(|s| s.spline.to_polygon(cfg.samples_per_segment))
                .collect();
            let mask = cardopc_litho::rasterize(&polys, grid.0, grid.1, grid.2);
            let full = engine.aerial_image(&mask).unwrap();
            // NaN poisons even a bilinear read of weight zero.
            let mut poisoned = Grid::filled(grid.0, grid.1, grid.2, f64::NAN);
            for &i in &footprint {
                poisoned.data_mut()[i] = full.data()[i];
            }
            let threshold = engine.threshold();
            for &a in &anchors {
                let want = cardopc_litho::epe_at(&full, threshold, a, cfg.epe_search);
                let got = cardopc_litho::epe_at(&poisoned, threshold, a, cfg.epe_search);
                assert_eq!(got.to_bits(), want.to_bits(), "{}: {a:?}", clip.name());
            }
        }
    }

    /// An f32 configuration simulates in f32 through [`CardOpc::run`]: the
    /// outcome is bit for bit the one an f32 engine gives, not the f64 one.
    #[test]
    fn run_simulates_at_the_configured_precision() {
        use cardopc_litho::Precision;
        let mut cfg = OpcConfig::via();
        (cfg.iterations, cfg.decay_at, cfg.precision) = (4, 2, Precision::F32);
        let clip = cardopc_layout::via_clips().remove(0);
        let flow = CardOpc::new(cfg.clone());
        let (width, height) = (clip.width(), clip.height());
        let with_engine = |precision| {
            let engine = engine_for_extent_at(width, height, cfg.pitch, precision).unwrap();
            format!("{:?}", flow.run_with_engine(&clip, &engine).unwrap())
        };
        let run = format!("{:?}", flow.run(&clip).unwrap());
        assert_eq!(run, with_engine(Precision::F32));
        assert_ne!(run, with_engine(Precision::F64));
    }

    #[test]
    fn measure_convention_follows_preset() {
        assert_eq!(
            CardOpc::new(OpcConfig::via()).measure_convention(),
            MeasureConvention::ViaEdgeCenters
        );
        assert_eq!(
            CardOpc::new(OpcConfig::metal()).measure_convention(),
            MeasureConvention::MetalSpacing(60.0)
        );
    }
}
