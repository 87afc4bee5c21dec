//! The traced run: where the per-layer metrics come from.
//!
//! In-process, `CARDOPC_THREADS=1`, spans recorded around calls to the
//! repository's public layer functions. Three parts:
//!
//! * (a) **stage replay** — one logic tile (f64 and f32), one via clip
//!   and one array tile are corrected stage by stage exactly as
//!   `CardOpc::optimize_with_engine` and the runtime's `correct_tile`
//!   compose them; the replayed control points must equal the real
//!   `optimize_with_engine` bit for bit, or the run fails;
//! * (b) **array walk** — the `run_clip_controlled` sequence on the array
//!   design, then each store/hash/JSON step probed on its own;
//! * (c) **fleet** — `run_fleet` against two in-process workers.
//!
//! End-to-end numbers are never taken from this run.

use crate::inputs;
use crate::metrics::PER_LAYER;
use crate::stats::median;
use crate::trace::{self_times_ms, Tracer, ROOT};
use crate::util::write_file;
use crate::workloads::{Sizes, ARRAY_TILING, LOGIC_TILING};
use cardopc::fleet::{run_fleet, DesignSpec, FleetConfig, WorkSpec, WorkerConfig, WorkerServer};
use cardopc::gds::LayerFilter;
use cardopc::geometry::{Point, Polygon};
use cardopc::layout::{read_gds_clip, via_clips, Clip, TARGET_LAYER};
use cardopc::litho::{
    measure_epe, metal_measure_points, rasterize, via_measure_points, FftScratch, Field,
    LithoEngine, Precision, ProcessCondition, RasterCache, Scalar, WorkerPool,
};
use cardopc::mrc::{AreaPolicy, MrcChecker, MrcResolver, ResolveConfig};
use cardopc::opc::{
    correct_shapes_recording, engine_for_extent_at, evaluate_mask, relax_shape, CardOpc,
    CorrectionStep, MeasureConvention, OpcConfig, OpcShape,
};
use cardopc::runtime::handle::EngineKey;
use cardopc::runtime::{
    correct_single_tile, partition_clip, run_clip, run_tiles_controlled, seam_bands, stitch,
    tile_cache_key, tile_input_hash, write_mask_gds, CacheConfig, EngineCache, MaskGdsOptions,
    Partition, RunConfig, RunControl, RunDir, RunManifest, TileCache, TileRecord,
};
use cardopc::spline::SamplingPlan;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Span units: which replayed thing a span belongs to.
pub mod unit {
    pub const LOGIC_F64: u32 = 1;
    pub const LOGIC_F32: u32 = 2;
    pub const VIA: u32 = 3;
    pub const ARRAY_TILE: u32 = 4;
    pub const ARRAY_RUN: u32 = 10;
    pub const FLEET: u32 = 11;
    pub const SINGLE_THREAD: u32 = 12;
}

/// The units whose spans form one tree under a root span, with the name
/// their breakdown is printed under.
pub const BREAKDOWN_UNITS: [(u32, &str); 5] = [
    (unit::LOGIC_F64, "one logic tile, f64 (stage replay)"),
    (unit::LOGIC_F32, "one logic tile, f32 (stage replay)"),
    (unit::VIA, "one via clip (stage replay)"),
    (unit::ARRAY_TILE, "one array tile (stage replay)"),
    (
        unit::ARRAY_RUN,
        "the array job, ingest to mask (run_clip_controlled walk)",
    ),
];

/// Array edge of the fleet part (the coordinator's per-tile cost does not
/// depend on the array's size; 1024 tiles keep the part short).
const FLEET_ARRAY_N: u16 = 32;

/// What the traced run produced.
pub struct Traced {
    /// One value per [`PER_LAYER`] entry, in that order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Every span, for `trace.json`.
    pub tracer: Tracer,
}

/// Runs the whole traced replay. Inputs are generated from `seed` under
/// `scratch`.
///
/// # Errors
///
/// Any layer error, or a replay whose control points differ from the real
/// flow's (the stage list in this file no longer matches the program).
pub fn traced_run(seed: u64, sizes: Sizes, scratch: &Path) -> Result<Traced, String> {
    if WorkerPool::global().parallelism() != 1 {
        return Err("the traced run needs CARDOPC_THREADS=1 (one stack of open spans)".into());
    }
    let dir = scratch.join("trace");
    let mut tr = Tracer::new();
    let mut m: HashMap<&'static str, f64> = HashMap::new();

    logic_part(&mut tr, &mut m, seed, sizes)?;
    via_part(&mut tr, &mut m, sizes)?;
    array_part(&mut tr, &mut m, seed, sizes, &dir)?;
    fleet_part(&mut tr, &mut m, seed, sizes, &dir)?;
    fft_part(&mut m);

    let metrics = PER_LAYER
        .iter()
        .map(|spec| {
            m.get(spec.name)
                .map(|&v| (spec.name, v))
                .ok_or_else(|| format!("traced run produced no '{}'", spec.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Traced {
        metrics,
        tracer: tr,
    })
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// ------------------------------------------------------------ (a) replay

/// The pixel columns the EPE feedback can read — `CardOpc::roi_columns`
/// is private, so this recomputes it from the public anchors with the
/// same rule: every anchor's x-extent ± (`epe_search` + 2·pitch), and no
/// restriction at all once ≥ 90 % of the columns are needed.
fn roi_columns(
    config: &OpcConfig,
    shapes: &[OpcShape],
    engine: &LithoEngine,
) -> Option<Vec<usize>> {
    let width = engine.width();
    let pitch = engine.pitch();
    if width == 0 {
        return None;
    }
    let margin = config.epe_search + 2.0 * pitch;
    let mut needed = vec![false; width];
    for shape in shapes.iter().filter(|s| !s.is_sraf) {
        for anchor in &shape.anchors {
            let lo = ((anchor.position.x - margin) / pitch - 0.5)
                .floor()
                .max(0.0) as usize;
            let hi = (((anchor.position.x + margin) / pitch - 0.5).floor() + 1.0).max(0.0) as usize;
            for flag in &mut needed[lo.min(width - 1)..=hi.min(width - 1)] {
                *flag = true;
            }
        }
    }
    let cols: Vec<usize> = (0..width).filter(|&c| needed[c]).collect();
    (cols.len() * 10 < width * 9).then_some(cols)
}

/// Counts the replay yields next to the optimised shapes.
struct Replayed {
    shapes: Vec<OpcShape>,
    srafs: usize,
    mrc_initial: usize,
    mrc_remaining: usize,
}

/// `CardOpc::optimize_with_engine`, stage by stage, one span per stage.
fn replay_optimize(
    tr: &mut Tracer,
    flow: &CardOpc,
    clip: &Clip,
    engine: &LithoEngine,
) -> Result<Replayed, String> {
    let config = flow.config();
    let mut shapes = tr.time("opc.init", || flow.initialize(clip)).map_err(err)?;
    let srafs = shapes.iter().filter(|s| s.is_sraf).count();

    let setup = tr.begin("opc.loop_setup");
    let per = config.samples_per_segment;
    let plan = SamplingPlan::get(per, config.tension);
    let sraf_polys: Vec<Polygon> = shapes
        .iter()
        .filter(|s| s.is_sraf)
        .map(|s| s.spline.to_polygon(per))
        .collect();
    let mut cache = RasterCache::new(engine.width(), engine.height(), engine.pitch());
    cache.set_base(&sraf_polys);
    let roi = roi_columns(config, &shapes, engine);
    let mut main_polys: Vec<Polygon> = Vec::new();
    let mut samples: Vec<Point> = Vec::new();
    let mut step_limit = config.move_step;
    tr.end(setup);

    for iter in 0..config.iterations {
        if iter == config.decay_at {
            step_limit *= config.decay_factor;
        }
        if config.relax_every > 0 && iter > 0 && iter % config.relax_every == 0 {
            tr.time("opc.relax", || {
                for shape in shapes.iter_mut().filter(|s| !s.is_sraf) {
                    relax_shape(shape, config.relax_strength);
                }
            });
        }
        tr.time("spline.connect", || {
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
        });
        let composite = tr.begin("litho.raster");
        let mask = cache.composite(&main_polys);
        tr.end(composite);
        let aerial = match &roi {
            Some(cols) => tr.time("litho.aerial_cols", || engine.aerial_image_cols(mask, cols)),
            None => tr.time("litho.aerial_full", || engine.aerial_image(mask)),
        }
        .map_err(err)?;
        tr.time("opc.correct", || {
            let mut per_shape = Vec::new();
            correct_shapes_recording(
                &mut shapes,
                &aerial,
                engine.threshold(),
                &CorrectionStep {
                    step_limit,
                    smooth_window: config.smooth_window,
                    epe_search: config.epe_search,
                    spline_normals: config.spline_normals,
                },
                &mut per_shape,
            )
        });
    }

    let (mrc_initial, mrc_remaining) = match config.mrc {
        Some(rules) => tr.time("mrc.resolve", || {
            let mut splines: Vec<_> = shapes.iter().map(|s| s.spline.clone()).collect();
            let resolver = MrcResolver::new(
                rules,
                ResolveConfig {
                    area_policy: AreaPolicy::Keep,
                    samples_per_segment: config.samples_per_segment,
                    ..ResolveConfig::default()
                },
            );
            let report = resolver.resolve(&mut splines);
            for (shape, spline) in shapes.iter_mut().zip(splines) {
                shape.spline = spline;
            }
            (report.initial_violations, report.remaining.len())
        }),
        None => (0, 0),
    };
    Ok(Replayed {
        shapes,
        srafs,
        mrc_initial,
        mrc_remaining,
    })
}

/// The runtime's per-tile scoring pass (`correct_tile` after the
/// optimisation): rasterise the final mask, both focus states from one
/// forward FFT, EPE at the measure sites.
fn replay_tile_scoring(
    tr: &mut Tracer,
    config: &OpcConfig,
    clip: &Clip,
    replayed: &Replayed,
    engine: &LithoEngine,
) -> Result<(), String> {
    let raster = tr.time("litho.raster_final", || {
        let polys: Vec<Polygon> = replayed
            .shapes
            .iter()
            .map(|s| s.spline.to_polygon(config.samples_per_segment))
            .collect();
        rasterize(&polys, engine.width(), engine.height(), engine.pitch())
    });
    let conditions = [
        ProcessCondition::NOMINAL,
        ProcessCondition::inner(config.dose_delta),
    ];
    let images = tr
        .time("litho.aerial_multi", || {
            engine.aerial_images_multi(&raster, &conditions)
        })
        .map_err(err)?;
    tr.time("litho.measure_epe", || {
        let sites = match config.convention {
            MeasureConvention::ViaEdgeCenters => via_measure_points(clip.targets()),
            MeasureConvention::MetalSpacing(s) => metal_measure_points(clip.targets(), s),
        };
        std::hint::black_box(measure_epe(
            &images[0],
            engine.threshold(),
            &sites,
            config.epe_search,
        ));
    });
    Ok(())
}

/// Runs the real `optimize_with_engine` and requires the replay to have
/// produced the same control points, bit for bit.
fn check_against_real_flow(
    tr: &mut Tracer,
    flow: &CardOpc,
    clip: &Clip,
    engine: &LithoEngine,
    replayed: &Replayed,
) -> Result<(), String> {
    let real = tr
        .time("opc.optimize", || flow.optimize_with_engine(clip, engine))
        .map_err(err)?;
    let bits = |shapes: &[OpcShape]| -> Vec<(u64, u64)> {
        shapes
            .iter()
            .flat_map(|s| s.spline.control_points())
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect()
    };
    if bits(&real.shapes) != bits(&replayed.shapes)
        || real.mrc_initial_violations != replayed.mrc_initial
        || real.mrc_remaining != replayed.mrc_remaining
    {
        return Err(format!(
            "replay of '{}' diverged from optimize_with_engine: the stage list in \
             benchmarks/src/replay.rs no longer matches crates/opc/src/flow.rs",
            clip.name()
        ));
    }
    Ok(())
}

/// One replayed unit, start to finish: builds the engine for `clip`,
/// replays the optimisation and `score`s the result under a [`ROOT`] span,
/// then cross-checks against the real flow. Returns the engine (the logic
/// part hands it on to the runtime's own per-tile call) and the replay.
fn replay_unit(
    tr: &mut Tracer,
    flow: &CardOpc,
    clip: &Clip,
    score: impl FnOnce(&mut Tracer, &Replayed, &LithoEngine) -> Result<(), String>,
) -> Result<(LithoEngine, Replayed), String> {
    let config = flow.config();
    let engine = tr
        .time("litho.engine_build", || {
            engine_for_extent_at(clip.width(), clip.height(), config.pitch, config.precision)
        })
        .map_err(err)?;
    let root = tr.begin(ROOT);
    let replayed = replay_optimize(tr, flow, clip, &engine)?;
    score(tr, &replayed, &engine)?;
    tr.end(root);
    check_against_real_flow(tr, flow, clip, &engine, &replayed)?;
    Ok((engine, replayed))
}

/// The CLI's OPC configuration for tiled runs.
fn large_scale(precision: Precision) -> OpcConfig {
    let mut opc = OpcConfig::large_scale();
    opc.precision = precision;
    opc
}

fn engine_key(clip: &Clip, config: &OpcConfig) -> EngineKey {
    (
        clip.width().to_bits(),
        clip.height().to_bits(),
        config.pitch.to_bits(),
        config.precision.tag(),
    )
}

/// Tile 0 of the logic job in both precisions, then the job itself on one
/// thread.
fn logic_part(
    tr: &mut Tracer,
    m: &mut HashMap<&'static str, f64>,
    seed: u64,
    sizes: Sizes,
) -> Result<(), String> {
    let clip = inputs::logic_clip(seed, sizes.logic_crop);
    let partition = partition_clip(&clip, &LOGIC_TILING).map_err(err)?;
    let tile = &partition.tiles[0];

    for (precision, unit) in [
        (Precision::F64, unit::LOGIC_F64),
        (Precision::F32, unit::LOGIC_F32),
    ] {
        tr.set_unit(unit);
        let config = large_scale(precision);
        let flow = CardOpc::new(config.clone());
        let (engine, replayed) = replay_unit(tr, &flow, &tile.clip, |tr, replayed, engine| {
            replay_tile_scoring(tr, &config, &tile.clip, replayed, engine)
        })?;

        // The runtime's own per-tile entry point, engine already built:
        // what the replayed stages must add up to.
        let engines = EngineCache::new(1);
        engines
            .get_or_build(0, engine_key(&tile.clip, &config), || Ok(engine))
            .map_err(err)?;
        let control = RunControl {
            engines: Some(&engines),
            ..RunControl::default()
        };
        tr.time("runtime.tile_correct", || {
            correct_single_tile(&partition, tile.index, &flow, &control, 0)
        })
        .map_err(err)?;

        if precision == Precision::F64 {
            m.insert("mrc.initial_violations", replayed.mrc_initial as f64);
            let resolved = replayed.mrc_initial.saturating_sub(replayed.mrc_remaining);
            m.insert(
                "mrc.resolved_ratio",
                resolved as f64 / replayed.mrc_initial.max(1) as f64,
            );
            m.insert("opc.iterations", config.iterations as f64);
        }
    }

    let f64u = unit::LOGIC_F64;
    let f32u = unit::LOGIC_F32;
    for (metric, unit, span) in [
        ("litho.engine_build_f64_ms", f64u, "litho.engine_build"),
        ("litho.engine_build_f32_ms", f32u, "litho.engine_build"),
        ("litho.raster_ms", f64u, "litho.raster"),
        ("litho.aerial_multi_f64_ms", f64u, "litho.aerial_multi"),
        ("litho.aerial_multi_f32_ms", f32u, "litho.aerial_multi"),
        ("spline.connect_ms", f64u, "spline.connect"),
        ("opc.correct_ms", f64u, "opc.correct"),
        ("opc.optimize_ms", f64u, "opc.optimize"),
        ("mrc.resolve_ms", f64u, "mrc.resolve"),
        ("runtime.tile_correct_ms", f64u, "runtime.tile_correct"),
    ] {
        m.insert(metric, tr.mean_ms(unit, span));
    }
    m.insert("litho.aerial_full_f64_ms", mean_aerial(tr, f64u));
    m.insert("litho.aerial_full_f32_ms", mean_aerial(tr, f32u));
    // One image per iteration plus the two focus states of the scoring pass.
    let images = tr.durations_ms(f64u, "litho.aerial_full").len()
        + tr.durations_ms(f64u, "litho.aerial_cols").len()
        + 2;
    m.insert("litho.images_per_tile", images as f64);

    // Validity of every row above: the replayed stages must cost what the
    // program's own per-tile call costs, and leave little unexplained.
    let spans = tr.spans();
    let own = self_times_ms(spans);
    let root = spans
        .iter()
        .position(|s| s.unit == f64u && s.name == ROOT)
        .expect("the f64 replay opened a root span");
    let tile_correct = tr.mean_ms(f64u, "runtime.tile_correct");
    m.insert("trace.replay_ratio", spans[root].ms() / tile_correct);
    m.insert(
        "trace.unattributed_pct",
        100.0 * own[root] / spans[root].ms(),
    );

    tr.set_unit(unit::SINGLE_THREAD);
    let config = RunConfig::new(large_scale(Precision::F64), LOGIC_TILING);
    let outcome = tr
        .time("runtime.run_clip", || {
            run_clip(&clip, &config, WorkerPool::global())
        })
        .map_err(err)?;
    if !outcome.complete {
        return Err("single-threaded logic run did not complete".into());
    }
    let seconds = tr.mean_ms(unit::SINGLE_THREAD, "runtime.run_clip") / 1e3;
    m.insert("trace.single_thread_s", seconds);
    Ok(())
}

/// Mean per-iteration aerial time of a unit, whichever entry point its
/// ROI rule selected.
fn mean_aerial(tr: &Tracer, unit: u32) -> f64 {
    let mut all = tr.durations_ms(unit, "litho.aerial_full");
    all.extend(tr.durations_ms(unit, "litho.aerial_cols"));
    all.iter().sum::<f64>() / all.len().max(1) as f64
}

/// One paper via clip through the Table I flow.
fn via_part(
    tr: &mut Tracer,
    m: &mut HashMap<&'static str, f64>,
    sizes: Sizes,
) -> Result<(), String> {
    tr.set_unit(unit::VIA);
    let clip = via_clips().swap_remove(sizes.via_clips.clamp(1, 13) - 1);
    let config = OpcConfig::via();
    let flow = CardOpc::new(config.clone());
    let (_, replayed) = replay_unit(tr, &flow, &clip, |tr, replayed, engine| {
        tr.time("opc.evaluate", || {
            let polys: Vec<Polygon> = replayed
                .shapes
                .iter()
                .map(|s| s.spline.to_polygon(config.samples_per_segment))
                .collect();
            evaluate_mask(
                engine,
                &polys,
                clip.targets(),
                config.convention,
                config.dose_delta,
                config.epe_search,
            )
        })
        .map(drop)
        .map_err(err)
    })?;

    m.insert("opc.init_ms", tr.mean_ms(unit::VIA, "opc.init"));
    m.insert("opc.sraf_count", replayed.srafs as f64);
    m.insert("opc.evaluate_ms", tr.mean_ms(unit::VIA, "opc.evaluate"));
    m.insert("litho.aerial_cols_vias_ms", mean_aerial(tr, unit::VIA));
    Ok(())
}

// -------------------------------------------------------- (b) array walk

/// Microseconds per item of running `f` over `items`.
fn us_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    for item in items {
        f(item);
    }
    start.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64
}

fn array_part(
    tr: &mut Tracer,
    m: &mut HashMap<&'static str, f64>,
    seed: u64,
    sizes: Sizes,
    dir: &Path,
) -> Result<(), String> {
    let design = dir.join("array.gds");
    write_file(&design, &inputs::array_gds(seed, sizes.array_n))?;
    let config = large_scale(Precision::F64);
    let flow = CardOpc::new(config.clone());
    let pool = WorkerPool::global();

    // The run_clip_controlled sequence, one span per step.
    tr.set_unit(unit::ARRAY_RUN);
    let root = tr.begin(ROOT);
    let clip = tr.time("gds.ingest", || {
        read_gds_clip(&design, LayerFilter::Layer(TARGET_LAYER), None)
    })?;
    let partition = tr
        .time("runtime.partition", || partition_clip(&clip, &ARRAY_TILING))
        .map_err(err)?;
    let open = tr.begin("runtime.store_open");
    let run_dir = RunDir::open(dir.join("array-run")).map_err(err)?;
    let checkpoints = run_dir.load_records().map_err(err)?;
    let mut sink = run_dir.append_handle().map_err(err)?;
    let cache = TileCache::open(&CacheConfig::default()).map_err(err)?;
    tr.end(open);
    let control = RunControl {
        cache: Some(&cache),
        ..RunControl::default()
    };
    let outcome = tr
        .time("runtime.run_tiles", || {
            run_tiles_controlled(
                &partition,
                &flow,
                pool,
                &checkpoints,
                None,
                Some(&mut sink),
                &control,
            )
        })
        .map_err(err)?;
    let stitched = tr.time("runtime.stitch", || {
        stitch(
            &partition,
            outcome
                .results
                .iter()
                .flat_map(|r| r.record.shapes.iter().cloned()),
            config.mrc.as_ref(),
        )
    });
    tr.time("runtime.manifest", || {
        let manifest =
            RunManifest::build(clip.name(), &partition, &outcome, Some(&stitched), 1, 0.0);
        run_dir
            .write_manifest(&manifest.to_json(true))
            .and_then(|()| run_dir.write_stable_manifest(&manifest.to_json(false)))
    })
    .map_err(err)?;
    let mask_bytes = tr.time("gds.export", || -> Result<usize, String> {
        let options = MaskGdsOptions {
            samples_per_segment: config.samples_per_segment,
            ..MaskGdsOptions::default()
        };
        let bytes = write_mask_gds(&stitched, clip.name(), &options).map_err(err)?;
        write_file(&dir.join("array-run/mask.gds"), &bytes)?;
        Ok(bytes.len())
    })?;
    tr.end(root);

    let tiles = partition.tiles.len();
    for (metric, span) in [
        ("gds.ingest_ms", "gds.ingest"),
        ("gds.export_ms", "gds.export"),
        ("runtime.partition_ms", "runtime.partition"),
        ("runtime.stitch_ms", "runtime.stitch"),
        ("runtime.manifest_ms", "runtime.manifest"),
    ] {
        m.insert(metric, tr.mean_ms(unit::ARRAY_RUN, span));
    }
    m.insert("gds.ingest_shapes", clip.targets().len() as f64);
    m.insert("gds.export_mb", mask_bytes as f64 / 1e6);
    m.insert("runtime.tiles", tiles as f64);
    m.insert(
        "runtime.cache_hit_ratio",
        outcome.cache_hits as f64 / outcome.executed.max(1) as f64,
    );

    // Each store / hash / JSON step on its own, over the same tiles.
    let key_us = us_per_item(&partition.tiles, |t| {
        std::hint::black_box(tile_cache_key(t, &partition.config, &config));
    });
    m.insert("runtime.cache_key_us", key_us);
    let hash_us = us_per_item(&partition.tiles, |t| {
        std::hint::black_box(tile_input_hash(t, &config));
    });
    m.insert("runtime.input_hash_us", hash_us);

    let warm = tr
        .time("runtime.replay_warm", || {
            run_tiles_controlled(
                &partition,
                &flow,
                pool,
                &HashMap::new(),
                None,
                None,
                &control,
            )
        })
        .map_err(err)?;
    if warm.cache_hits != tiles {
        return Err(format!(
            "warm replay hit {} of {tiles} tiles",
            warm.cache_hits
        ));
    }
    let warm_ms = tr.mean_ms(unit::ARRAY_RUN, "runtime.replay_warm");
    m.insert("runtime.replay_us_per_tile", warm_ms * 1e3 / tiles as f64);

    let records: Vec<&TileRecord> = outcome.results.iter().map(|r| &r.record).collect();
    let encode_us = us_per_item(&records, |r| {
        std::hint::black_box(r.to_json_line());
    });
    m.insert("json.record_encode_us", encode_us);
    let probe = dir.join("append-probe.jsonl");
    let mut file = std::fs::File::create(&probe).map_err(err)?;
    let mut append_error = None;
    let append_us = us_per_item(&records, |r| {
        if let Err(e) = RunDir::append_record(&mut file, r) {
            append_error.get_or_insert(e);
        }
    });
    if let Some(e) = append_error {
        return Err(e.to_string());
    }
    m.insert("runtime.checkpoint_append_us", append_us);

    let loaded = tr
        .time("runtime.checkpoint_load", || run_dir.load_records())
        .map_err(err)?;
    let load_ms = tr.mean_ms(unit::ARRAY_RUN, "runtime.checkpoint_load");
    m.insert("runtime.checkpoint_load_ms", load_ms);
    if loaded.len() != tiles {
        return Err(format!(
            "checkpoint holds {} of {tiles} tiles",
            loaded.len()
        ));
    }
    let text = std::fs::read_to_string(run_dir.tiles_path()).map_err(err)?;
    m.insert("runtime.checkpoint_mb", text.len() as f64 / 1e6);
    let lines: Vec<&str> = text.lines().collect();
    let parse_us = us_per_item(&lines, |line| {
        std::hint::black_box(TileRecord::from_json_line(line).is_ok());
    });
    m.insert("json.record_parse_us", parse_us);

    if let Some(rules) = config.mrc {
        tr.time("mrc.seam_check", || {
            let bands = seam_bands(&partition, &rules);
            MrcChecker::new(rules).check_spacing_in_bands(&stitched.splines(), &bands)
        });
    }
    let seam_ms = tr.mean_ms(unit::ARRAY_RUN, "mrc.seam_check");
    m.insert("mrc.seam_check_ms", seam_ms);

    array_tile_replay(tr, m, &partition, &flow)
}

/// Stage replay of one interior array tile (a 256² grid): the ROI-column
/// aerial at the size the array workloads run it.
fn array_tile_replay(
    tr: &mut Tracer,
    m: &mut HashMap<&'static str, f64>,
    partition: &Partition,
    flow: &CardOpc,
) -> Result<(), String> {
    tr.set_unit(unit::ARRAY_TILE);
    let config = flow.config();
    let tile = partition
        .tiles
        .iter()
        .find(|t| (t.tx, t.ty) == (1, 1))
        .unwrap_or(&partition.tiles[0]);
    replay_unit(tr, flow, &tile.clip, |tr, replayed, engine| {
        replay_tile_scoring(tr, config, &tile.clip, replayed, engine)
    })?;
    m.insert("litho.aerial_cols_ms", mean_aerial(tr, unit::ARRAY_TILE));
    Ok(())
}

// -------------------------------------------------------------- (c) fleet

fn fleet_part(
    tr: &mut Tracer,
    m: &mut HashMap<&'static str, f64>,
    seed: u64,
    sizes: Sizes,
    dir: &Path,
) -> Result<(), String> {
    tr.set_unit(unit::FLEET);
    let n = sizes.array_n.min(FLEET_ARRAY_N);
    let design = dir.join("fleet-array.gds");
    write_file(&design, &inputs::array_gds(seed, n))?;
    let spec = WorkSpec {
        design: DesignSpec::gds(design, LayerFilter::Layer(TARGET_LAYER), None),
        tiling: ARRAY_TILING,
        opc: large_scale(Precision::F64),
    };
    let mut workers = Vec::new();
    for _ in 0..2 {
        workers.push(WorkerServer::start(WorkerConfig::default()).map_err(err)?);
    }
    let config = FleetConfig {
        workers: workers.iter().map(WorkerServer::local_addr).collect(),
        ..FleetConfig::default()
    };
    let control = RunControl::default();
    // Cold: the workers correct the unique patterns. Warm: every dispatch
    // is answered from a worker's record map, so what is left is the
    // coordinator, the wire and the JSON — the distribution tax.
    let cold = tr.time("fleet.run_cold", || run_fleet(&spec, &config, &control));
    let warm = tr.time("fleet.run_warm", || run_fleet(&spec, &config, &control));
    for worker in &mut workers {
        worker.shutdown();
    }
    let (cold, warm) = (cold.map_err(err)?, warm.map_err(err)?);
    if !(cold.complete && warm.complete)
        || cold.manifest.to_json(false) != warm.manifest.to_json(false)
    {
        return Err("fleet runs incomplete or their manifests differ".into());
    }
    let tiles = usize::from(n) * usize::from(n);
    let warm_ms = tr.mean_ms(unit::FLEET, "fleet.run_warm");
    m.insert("fleet.dispatch_us_per_tile", warm_ms * 1e3 / tiles as f64);
    let retries: usize = [cold.stats, warm.stats]
        .iter()
        .map(|s| s.stolen + s.duplicates + s.redispatched)
        .sum();
    m.insert("fleet.retries", retries as f64);
    Ok(())
}

// -------------------------------------------------------------- kernels

/// Achieved rate of one complex 2-D FFT, GFLOP/s, with the flop count
/// *computed* as 5·N·log₂N (N = edge²) — the conventional figure, not a
/// hardware counter. Median of five transforms.
fn fft2_gflops<T: Scalar>(edge: usize) -> f64 {
    let real: Vec<f64> = (0..edge * edge).map(|i| (i % 7) as f64).collect();
    let mut field = Field::<T>::from_real(edge, edge, &real);
    let mut scratch = FftScratch::<T>::new();
    field.fft2_inplace_with(false, &mut scratch); // plan + scratch warm-up
    let seconds: Vec<f64> = (0..5)
        .map(|i| {
            let start = Instant::now();
            field.fft2_inplace_with(i % 2 == 0, &mut scratch);
            start.elapsed().as_secs_f64()
        })
        .collect();
    std::hint::black_box(&field);
    let n = (edge * edge) as f64;
    5.0 * n * n.log2() / median(&seconds).expect("five transforms were timed") / 1e9
}

fn fft_part(m: &mut HashMap<&'static str, f64>) {
    m.insert("litho.fft2_768_f64_gflops", fft2_gflops::<f64>(768));
    m.insert("litho.fft2_768_f32_gflops", fft2_gflops::<f32>(768));
    m.insert("litho.fft2_500_f64_gflops", fft2_gflops::<f64>(500));
}
