//! Tile job scheduling over the shared worker pool.
//!
//! Tiles are fanned over [`WorkerPool`] tasks: each task (one worker
//! thread, plus the participating submitter) claims tiles from a shared
//! atomic counter, runs the full OPC flow on them and scores each with the
//! one mask scorer, [`score_mask_grid`]: EPE at the owned targets' sites,
//! the PV band over the core. Every task takes its
//! [`LithoEngine`](cardopc_litho::LithoEngine) from one [`EngineCache`]
//! (the attached one, or a run-local one), which holds one engine per
//! window extent, pitch and precision; the engine pools its own scratch,
//! so tasks share it. Tile windows are uniform, so a run builds exactly
//! one engine. The claim order is dynamic (load balanced), but results are
//! merged and sorted by tile index afterwards, so the outcome is
//! **deterministic for any scheduler pool size**: each tile's correction
//! is a pure function of its input clip, and the per-tile outputs are
//! order-independent. The litho engine's SOCS
//! fan-out folds its kernel strips in ascending kernel order whatever the
//! pool size, so `CARDOPC_THREADS` (or `--threads`) moves no bit of an
//! image either (`aerial_image_is_identical_across_worker_counts`).
//!
//! Everything around the fan-out — which tiles are resumed, the budget,
//! committing a finished tile to the checkpoint file, progress events, the
//! outcome — is the [`Run`] frame's (see [`crate::run`]). Line order in the
//! file is nondeterministic but lines are self-describing, so resume does
//! not care.

use crate::cache::{tile_cache_key, CachedTile};
use crate::checkpoint::{tile_input_hash, StitchedShape, TileLine, TileMetrics, TileRecord};
use crate::handle::{EngineCache, EngineKey, RunControl};
use crate::hash::TileHasher;
use crate::partition::{Partition, Tile};
use crate::run::Run;
use crate::RuntimeError;
use cardopc_geometry::{BBox, Polygon};
use cardopc_litho::span::{span, tile_span};
use cardopc_litho::WorkerPool;
use cardopc_opc::{engine_for_extent_at, score_mask_grid, CardOpc, Score, EPE_TOLERANCE};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Outcome of one tile: its checkpoint record, and whether it was resumed
/// from a previous run rather than executed.
#[derive(Clone, Debug)]
pub struct TileResult {
    /// The tile's record (identical whether executed, replayed from the
    /// tile cache, or resumed).
    pub record: TileRecord,
    /// `true` when the record came from the checkpoint file.
    pub resumed: bool,
    /// `true` when the record was replayed from the content-addressed
    /// tile cache rather than corrected.
    pub cached: bool,
}

/// The scheduler's result over a whole partition.
#[derive(Clone, Debug, Default)]
pub struct ScheduleOutcome {
    /// Completed tiles sorted by tile index. With a tile budget or a
    /// cancelled run this can be a subset of the partition (not
    /// necessarily contiguous: resumed tiles are kept wherever they fall).
    pub results: Vec<TileResult>,
    /// Tiles executed in this run.
    pub executed: usize,
    /// Tiles reused from checkpoints.
    pub resumed: usize,
    /// Tiles left unfinished (tile budget exhausted or run cancelled).
    pub remaining: usize,
    /// Sum of per-tile wall seconds spent executing (not resumed) tiles.
    pub tile_seconds: f64,
    /// Executed tiles answered by the tile cache (replayed, not
    /// corrected). Always ≤ `executed`; 0 when no cache was attached.
    pub cache_hits: usize,
    /// Executed tiles that corrected and fed the tile cache. 0 when no
    /// cache was attached.
    pub cache_misses: usize,
    /// `true` when the run stopped early because its [`RunHandle`]
    /// (see [`crate::RunControl`]) was cancelled.
    pub cancelled: bool,
}

/// Runs every not-yet-checkpointed tile of `partition` over `pool`: the
/// [`Run`] frame around a pool fan-out.
///
/// `checkpoints` is consulted per tile: a record whose stored hash matches
/// the tile's current input hash is reused verbatim (the tile is not
/// executed); stale or missing records mean the tile runs. At most
/// `max_tiles` tiles are *executed* (resumed tiles are free); `None` means
/// no budget. Records of executed tiles are appended to `sink` as they
/// complete. `control` attaches per-tile progress events, an optional
/// cross-run engine cache and cooperative cancellation, checked before
/// each tile claim: tiles already in flight finish and are checkpointed,
/// so a cancelled run resumes exactly like a budget-limited one, and the
/// outcome's `cancelled` flag records that the handle fired.
///
/// # Errors
///
/// [`RuntimeError::Io`] when a checkpoint append failed (no tile is
/// claimed after the failure), else [`RuntimeError::Tile`] for the
/// lowest-indexed tile whose flow failed (every other tile still ran).
pub fn run_tiles_controlled(
    partition: &Partition,
    flow: &CardOpc,
    pool: &WorkerPool,
    checkpoints: &HashMap<usize, TileRecord>,
    max_tiles: Option<usize>,
    sink: Option<&mut std::fs::File>,
    control: &RunControl<'_>,
) -> Result<ScheduleOutcome, RuntimeError> {
    let run = Run::new(partition, flow.config(), checkpoints, sink, control);
    fan_out(run, partition, flow, pool, max_tiles, control)
}

/// [`run_tiles_controlled`] over records it owns: each resumed record
/// moves into the outcome instead of being cloned from `checkpoints` —
/// what a run that loaded them from its own store does.
pub(crate) fn run_tiles_owned(
    partition: &Partition,
    flow: &CardOpc,
    pool: &WorkerPool,
    checkpoints: HashMap<usize, TileRecord>,
    max_tiles: Option<usize>,
    sink: Option<&mut std::fs::File>,
    control: &RunControl<'_>,
) -> Result<ScheduleOutcome, RuntimeError> {
    let run = Run::resume(partition, flow.config(), checkpoints, sink, control);
    fan_out(run, partition, flow, pool, max_tiles, control)
}

/// The pool fan-out inside a resumed [`Run`]: at most `max_tiles` wanted
/// tiles, claimed from a shared cursor.
fn fan_out(
    mut run: Run<'_>,
    partition: &Partition,
    flow: &CardOpc,
    pool: &WorkerPool,
    max_tiles: Option<usize>,
    control: &RunControl<'_>,
) -> Result<ScheduleOutcome, RuntimeError> {
    let _span = span("run_tiles");
    let todo = run.start(max_tiles);
    let keys = {
        let tiles: Vec<&Tile> = todo
            .iter()
            .map(|&(index, _)| &partition.tiles[index])
            .collect();
        TileHasher::key(&partition.config, flow.config()).hash_on(pool, &tiles)
    };

    // Each task claims tiles from the shared cursor until the list is
    // drained or the run is stopped.
    let cursor = AtomicUsize::new(0);
    let local = EngineCache::default();
    let engines = control.engines.unwrap_or(&local);
    pool.run(pool.parallelism().max(1), |_| {
        while !run.stopped() {
            let claim = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&(index, hash)) = todo.get(claim) else {
                return;
            };
            let tile = &partition.tiles[index];
            let key = keys[claim];
            match execute_tile(tile, hash, key, partition, flow, engines, control) {
                Ok((line, entry, cached)) => run.commit(line, &entry, cached),
                Err(e) => run.fail(index, e),
            }
        }
    });
    run.finish()
}

/// Corrects exactly one tile of `partition` and returns its tile line and
/// the entry the line places — the fleet worker's entry point. Runs through the same (optionally cached) `correct_tile` →
/// [`Placement::of`](crate::Placement::of) path as the full scheduler, so the lines are
/// byte-identical (timing aside) to what a single-process run writes for
/// that tile. `_slot_index`: ignored; removed with ROADMAP 14-II. Without an
/// attached [`EngineCache`] the call builds its own engine.
///
/// # Errors
///
/// [`RuntimeError::Tile`] when the flow fails, or
/// [`RuntimeError::InvalidConfig`] for an out-of-range tile index.
pub fn correct_single_tile(
    partition: &Partition,
    tile_index: usize,
    flow: &CardOpc,
    control: &RunControl<'_>,
    _slot_index: usize,
) -> Result<(TileLine, Arc<CachedTile>), RuntimeError> {
    // Tiles sit at their own index (the fleet worker relies on it too).
    let tile = partition
        .tiles
        .get(tile_index)
        .filter(|t| t.index == tile_index)
        .ok_or(RuntimeError::InvalidConfig(
            "tile index outside the partition",
        ))?;
    let local = EngineCache::default();
    let engines = control.engines.unwrap_or(&local);
    let hash = tile_input_hash(tile, flow.config());
    let key = tile_cache_key(tile, &partition.config, flow.config());
    let (line, entry, _cached) = execute_tile(tile, hash, key, partition, flow, engines, control)?;
    Ok((line, entry))
}

/// Runs one tile through the (optionally cached) correction path and
/// places the entry under `input_hash` (the tile's [`tile_input_hash`])
/// and `key` (its [`tile_cache_key`], which the tile line names with or
/// without a cache); every caller has already computed both. The boolean
/// is `true` for a cache replay.
fn execute_tile(
    tile: &Tile,
    input_hash: u64,
    key: u64,
    partition: &Partition,
    flow: &CardOpc,
    engines: &EngineCache,
    control: &RunControl<'_>,
) -> Result<(TileLine, Arc<CachedTile>, bool), RuntimeError> {
    let _span = tile_span("correct", tile.index);
    let start = std::time::Instant::now();
    let config = flow.config();
    let correct = || correct_tile(tile, flow, config, engines);
    let (entry, cached) = match control.cache {
        Some(cache) => cache.get_or_correct(key, correct)?,
        None => (Arc::new(correct()?), false),
    };
    let seconds = start.elapsed().as_secs_f64();
    let line = TileLine::of(tile, partition, input_hash, key, seconds, &entry).ok_or(
        RuntimeError::InvalidConfig("a tile cache entry names a target its tile does not have"),
    )?;
    Ok((line, entry, cached))
}

/// Corrects one tile — the expensive part: the full OPC flow plus
/// scoring — producing a *window-relative* [`CachedTile`] that this tile
/// or any congruent one places by [`Placement::of`](crate::Placement::of).
fn correct_tile(
    tile: &Tile,
    flow: &CardOpc,
    config: &cardopc_opc::OpcConfig,
    engines: &EngineCache,
) -> Result<CachedTile, RuntimeError> {
    let start = std::time::Instant::now();
    let iterations = config.iterations;

    // Empty tiles (no targets anywhere in the halo window) produce an
    // empty result without touching the engine; the zero EPE histories
    // keep cross-tile aggregation aligned.
    if tile.clip.targets().is_empty() {
        return Ok(CachedTile {
            owned_epe_history: vec![0.0; iterations],
            epe_history: vec![0.0; iterations],
            shapes: Vec::new(),
            metrics: TileMetrics::default(),
            seconds: start.elapsed().as_secs_f64(),
        });
    }

    let key: EngineKey = (
        tile.clip.width().to_bits(),
        tile.clip.height().to_bits(),
        config.pitch.to_bits(),
        config.precision.tag(),
    );
    let build = || {
        let (width, height) = (tile.clip.width(), tile.clip.height());
        engine_for_extent_at(width, height, config.pitch, config.precision)
    };
    let engine = engines
        .get_or_build(0, key, build)
        .map_err(|source| RuntimeError::Tile {
            tile: tile.index,
            source,
        })?;

    let optimized = flow
        .optimize_with_engine(&tile.clip, &engine)
        .map_err(|source| RuntimeError::Tile {
            tile: tile.index,
            source,
        })?;

    // Owned-only convergence history: main shape `i` corresponds to
    // target `i` of the tile clip (SRAFs are appended after the mains and
    // carry 0.0 entries), so the ownership mask indexes rows directly.
    let owned_epe_history: Vec<f64> = optimized
        .per_shape_epe
        .iter()
        .map(|row| {
            row.iter()
                .zip(tile.owned.iter().chain(std::iter::repeat(&false)))
                .filter_map(|(epe, owned)| owned.then_some(*epe))
                .sum()
        })
        .collect();

    // Score the tile: simulate the whole halo window once, then measure
    // EPE only at the owned targets' sites and PVB only over the core.
    let score = span("score");
    let mask_polys: Vec<Polygon> = optimized
        .shapes
        .iter()
        .map(|s| s.spline.to_polygon(config.samples_per_segment))
        .collect();
    let raster =
        cardopc_litho::rasterize(&mask_polys, engine.width(), engine.height(), engine.pitch());
    let owned_targets: Vec<Polygon> = tile
        .clip
        .targets()
        .iter()
        .zip(&tile.owned)
        .filter(|&(_, owned)| *owned)
        .map(|(t, _)| t.clone())
        .collect();
    let Score { epe, pvb_nm2, .. } = score_mask_grid(
        &engine,
        &raster,
        &owned_targets,
        config.convention,
        config.dose_delta,
        config.epe_search,
        window_core(tile),
    )
    .map_err(|source| RuntimeError::Tile {
        tile: tile.index,
        source,
    })?;
    drop(score);

    // Window-relative output shapes: every *owned* main tagged with its
    // local target index, then every assist of the window. Assist seam
    // ownership is deliberately NOT decided here — an edge tile and an
    // interior tile can share a pattern yet split halo assists
    // differently (the owner grid clamps at the chip boundary), so the
    // filter runs per replaying tile in [`Placement::of`].
    let mut shapes = Vec::new();
    let mut main_index = 0usize;
    for shape in &optimized.shapes {
        if shape.is_sraf {
            shapes.push(window_shape(shape, None));
        } else {
            if tile.owned[main_index] {
                shapes.push(window_shape(shape, Some(main_index)));
            }
            main_index += 1;
        }
    }

    let metrics = TileMetrics {
        shapes: tile.clip.targets().len(),
        owned: owned_targets.len(),
        epe_sum_nm: epe.sum_abs(),
        epe_violations: epe.violations(EPE_TOLERANCE),
        pvb_nm2,
        mrc_initial: optimized.mrc_initial_violations,
        mrc_remaining: optimized.mrc_remaining,
    };

    Ok(CachedTile {
        owned_epe_history,
        epe_history: optimized.epe_history,
        shapes,
        metrics,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// The tile's core in window coordinates: the PV band's pixel window. By
/// pixel centre over half-open cores, the disjoint cores of a partition
/// count every seam pixel exactly once across tiles.
fn window_core(tile: &Tile) -> BBox {
    BBox {
        min: tile.core.min - tile.origin,
        max: tile.core.max - tile.origin,
    }
}

/// A corrected shape in window coordinates; `target` is a main's index in
/// the tile clip's target list.
fn window_shape(shape: &cardopc_opc::OpcShape, target: Option<usize>) -> StitchedShape {
    StitchedShape {
        global_id: target,
        is_sraf: target.is_none(),
        tension: shape.spline.tension(),
        control_points: shape.spline.control_points().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition_clip, TilingConfig};
    use cardopc_geometry::{Grid, Point};
    use cardopc_layout::Clip;
    use cardopc_opc::{MeasureConvention, OpcConfig};

    fn small_clip() -> Clip {
        Clip::new(
            "sched-test",
            1024.0,
            1024.0,
            vec![
                Polygon::rect(Point::new(200.0, 200.0), Point::new(420.0, 270.0)),
                Polygon::rect(Point::new(460.0, 600.0), Point::new(900.0, 670.0)),
            ],
        )
    }

    fn config() -> OpcConfig {
        let mut c = OpcConfig::large_scale();
        c.iterations = 2;
        c.pitch = 16.0;
        c.mrc = None;
        c
    }

    #[test]
    fn schedule_is_deterministic_across_worker_counts() {
        let clip = small_clip();
        let partition = partition_clip(
            &clip,
            &TilingConfig {
                tile_size: 512.0,
                halo: 256.0,
            },
        )
        .unwrap();
        let flow = CardOpc::new(config());
        let none = HashMap::new();
        let one = run_tiles_controlled(
            &partition,
            &flow,
            &WorkerPool::new(1),
            &none,
            None,
            None,
            &RunControl::default(),
        )
        .unwrap();
        // Four tasks share one engine from the attached cache.
        let engines = EngineCache::new(4);
        let four = run_tiles_controlled(
            &partition,
            &flow,
            &WorkerPool::new(4),
            &none,
            None,
            None,
            &RunControl {
                engines: Some(&engines),
                ..RunControl::default()
            },
        )
        .unwrap();
        assert_eq!(engines.len(), 1);
        assert_eq!(one.results.len(), 4);
        assert_eq!(one.executed, 4);
        for (a, b) in one.results.iter().zip(&four.results) {
            assert_eq!(a.record.index, b.record.index);
            assert_eq!(a.record.shapes, b.record.shapes, "tile {}", a.record.index);
            assert_eq!(a.record.owned_epe_history, b.record.owned_epe_history);
            assert_eq!(a.record.metrics, b.record.metrics);
        }
        // Every target stitched exactly once across tiles.
        let mut ids: Vec<usize> = one
            .results
            .iter()
            .flat_map(|r| r.record.shapes.iter().filter_map(|s| s.global_id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn f32_schedule_is_deterministic_across_worker_counts() {
        // Same invariant as above, but with the simulation running on the
        // single-precision backend: records must still be byte-identical
        // for any worker count *within* the f32 mode.
        let clip = small_clip();
        let partition = partition_clip(
            &clip,
            &TilingConfig {
                tile_size: 512.0,
                halo: 256.0,
            },
        )
        .unwrap();
        let mut f32_config = config();
        f32_config.precision = cardopc_litho::Precision::F32;
        let flow = CardOpc::new(f32_config);
        let none = HashMap::new();
        let one = run_tiles_controlled(
            &partition,
            &flow,
            &WorkerPool::new(1),
            &none,
            None,
            None,
            &RunControl::default(),
        )
        .unwrap();
        let four = run_tiles_controlled(
            &partition,
            &flow,
            &WorkerPool::new(4),
            &none,
            None,
            None,
            &RunControl::default(),
        )
        .unwrap();
        assert_eq!(one.executed, 4);
        for (a, b) in one.results.iter().zip(&four.results) {
            assert_eq!(a.record.index, b.record.index);
            assert_eq!(a.record.shapes, b.record.shapes, "tile {}", a.record.index);
            assert_eq!(a.record.owned_epe_history, b.record.owned_epe_history);
            assert_eq!(a.record.metrics, b.record.metrics);
        }
    }

    #[test]
    fn checkpoints_skip_matching_tiles_and_budget_limits_execution() {
        let clip = small_clip();
        let partition = partition_clip(
            &clip,
            &TilingConfig {
                tile_size: 512.0,
                halo: 256.0,
            },
        )
        .unwrap();
        let flow = CardOpc::new(config());
        let pool = WorkerPool::new(2);
        let none = HashMap::new();

        // Budgeted run: only 3 of 4 tiles execute.
        let partial = run_tiles_controlled(
            &partition,
            &flow,
            &pool,
            &none,
            Some(3),
            None,
            &RunControl::default(),
        )
        .unwrap();
        assert_eq!(partial.executed, 3);
        assert_eq!(partial.remaining, 1);
        assert_eq!(partial.results.len(), 3);

        // Resume from those records: one tile left to run.
        let ckpts: HashMap<usize, TileRecord> = partial
            .results
            .iter()
            .map(|r| (r.record.index, r.record.clone()))
            .collect();
        let rest = run_tiles_controlled(
            &partition,
            &flow,
            &pool,
            &ckpts,
            None,
            None,
            &RunControl::default(),
        )
        .unwrap();
        assert_eq!(rest.resumed, 3);
        assert_eq!(rest.executed, 1);
        assert_eq!(rest.remaining, 0);
        assert_eq!(rest.results.len(), 4);

        // Stale checkpoints (different config → different hash) re-run.
        let mut other = config();
        other.iterations = 3;
        let flow2 = CardOpc::new(other);
        let rerun = run_tiles_controlled(
            &partition,
            &flow2,
            &pool,
            &ckpts,
            None,
            None,
            &RunControl::default(),
        )
        .unwrap();
        assert_eq!(rerun.resumed, 0);
        assert_eq!(rerun.executed, 4);
    }

    /// A full disk must not cost the whole job: the first failed append
    /// stops the claim loop instead of correcting every remaining tile
    /// into the void, nothing half-written is left behind, and a re-run
    /// with a working sink starts clean.
    #[test]
    fn failed_checkpoint_append_stops_the_run_and_leaves_nothing_stale() {
        use crate::handle::TileEvent;
        use crate::RunDir;

        // 4×4 tiles around one wire: most windows are empty.
        let wire = Polygon::rect(Point::new(900.0, 980.0), Point::new(1200.0, 1050.0));
        let clip = Clip::new("append-fail", 2048.0, 2048.0, vec![wire]);
        let tiling = TilingConfig {
            tile_size: 512.0,
            halo: 256.0,
        };
        let partition = partition_clip(&clip, &tiling).unwrap();
        assert_eq!(partition.tiles.len(), 16);
        let flow = CardOpc::new(config());
        let pool = WorkerPool::new(2);
        let root = std::env::temp_dir().join(format!("cardopc-append-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let run_dir = RunDir::open(&root).unwrap();

        // A sink that refuses every write: the checkpoint file, read-only.
        std::fs::File::create(run_dir.tiles_path()).unwrap();
        let mut refusing = std::fs::File::open(run_dir.tiles_path()).unwrap();
        let events = AtomicUsize::new(0);
        let progress = |_: &TileEvent| {
            events.fetch_add(1, Ordering::Relaxed);
        };
        let control = RunControl {
            progress: Some(&progress),
            ..RunControl::default()
        };
        let none = HashMap::new();
        let sink = Some(&mut refusing);
        let failed = run_tiles_controlled(&partition, &flow, &pool, &none, None, sink, &control);
        assert!(matches!(failed, Err(RuntimeError::Io(_))), "{failed:?}");
        let reported = events.load(Ordering::Relaxed);
        assert!(reported < 16, "{reported} tiles reported after the failure");

        // Nothing was checkpointed, so nothing stale can be resumed.
        let held = run_dir.load_records().unwrap();
        assert!(held.is_empty());
        let mut sink = run_dir.append_handle().unwrap();
        let control = RunControl::default();
        let rerun = run_tiles_controlled(
            &partition,
            &flow,
            &pool,
            &held,
            None,
            Some(&mut sink),
            &control,
        );
        let rerun = rerun.unwrap();
        assert_eq!((rerun.resumed, rerun.executed, rerun.remaining), (0, 16, 0));
        let held = run_dir.load_records().unwrap();
        // The store gives back what the run committed, seconds included —
        // without a cache, congruent tiles place the first one's entry.
        for r in &rerun.results {
            assert_eq!(held[&r.record.index], r.record, "tile {}", r.record.index);
        }
        let again = run_tiles_controlled(&partition, &flow, &pool, &held, None, None, &control);
        let again = again.unwrap();
        assert_eq!((again.resumed, again.executed), (16, 0));
        assert_eq!(again.results.len(), 16);
        drop(run_dir);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The core-restricted PV band `correct_tile` counted before tiles
    /// scored through `score_mask_grid`, kept as the oracle of the
    /// windowed count: pixel membership by centre in the half-open core.
    fn core_pvb(
        outer: &Grid,
        outer_threshold: f64,
        inner: &Grid,
        inner_threshold: f64,
        tile: &Tile,
    ) -> f64 {
        let pitch = outer.pitch();
        let px = pitch * pitch;
        // Core in window coordinates.
        let x0 = tile.core.min.x - tile.origin.x;
        let x1 = tile.core.max.x - tile.origin.x;
        let y0 = tile.core.min.y - tile.origin.y;
        let y1 = tile.core.max.y - tile.origin.y;
        let mut count = 0usize;
        for iy in 0..outer.height() {
            let cy = (iy as f64 + 0.5) * pitch;
            if cy < y0 || cy >= y1 {
                continue;
            }
            for ix in 0..outer.width() {
                let cx = (ix as f64 + 0.5) * pitch;
                if cx < x0 || cx >= x1 {
                    continue;
                }
                let a = outer.get(ix, iy).unwrap_or(0.0);
                let b = inner.get(ix, iy).unwrap_or(0.0);
                if (a >= outer_threshold) != (b >= inner_threshold) {
                    count += 1;
                }
            }
        }
        count as f64 * px
    }

    proptest::proptest! {
        /// Random aerial pairs on grids down to 13×16, under cores whose
        /// edges fall exactly on, one ulp inside or outside a pixel centre
        /// (or anywhere, past the grid and inverted too), at the window
        /// origin or shifted by a chip origin: the tile scorer's PV-band
        /// window counts `core_pvb`'s pixels, bit for bit.
        #[test]
        fn core_pvb_oracle_is_the_windowed_count(seed in 0u64..u64::MAX) {
            use cardopc_geometry::SplitMix64;
            let mut rng = SplitMix64::new(seed);
            let (w, h) = (rng.range_usize(13, 48), rng.range_usize(16, 48));
            let pitch = [1.0, 4.0, 7.0, 16.0, 34.0, 0.3, rng.range_f64(0.5, 40.0)][rng.range_usize(0, 7)];
            let mut image = || {
                let data = (0..w * h).map(|_| rng.range_f64(0.0, 1.0)).collect();
                Grid::from_data(w, h, pitch, data)
            };
            let (outer, inner) = (image(), image());
            let (outer_t, inner_t) = (rng.range_f64(0.2, 0.8), rng.range_f64(0.2, 0.8));
            let mut edge = |n: usize| {
                let centre = (rng.range_usize(0, n + 3) as f64 - 1.5) * pitch;
                match rng.range_usize(0, 4) {
                    0 => centre,
                    1 => centre.next_down(),
                    2 => centre.next_up(),
                    _ => rng.range_f64(-pitch, (n + 1) as f64 * pitch),
                }
            };
            let (x0, x1, y0, y1) = (edge(w), edge(w), edge(h), edge(h));
            let origin = match rng.chance(0.5) {
                true => Point::ZERO,
                false => Point::new(rng.range_f64(-5e3, 5e3), rng.range_f64(-5e3, 5e3)),
            };
            let tile = Tile {
                index: 0,
                tx: 0,
                ty: 0,
                origin,
                core: BBox {
                    min: Point::new(x0, y0) + origin,
                    max: Point::new(x1, y1) + origin,
                },
                clip: Clip::new("bare", 1.0, 1.0, Vec::new()),
                global_ids: Vec::new(),
                owned: Vec::new(),
            };
            let want = core_pvb(&outer, outer_t, &inner, inner_t, &tile);
            let got = cardopc_litho::thresholded_xor_area(
                &outer, outer_t, &inner, inner_t, window_core(&tile),
            );
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    /// Every tile of two partitions whose owner grid clamps at the far
    /// edges (corner, edge and interior tiles; cores on pixel centres and
    /// off them): `score_mask_grid` over the tile's core gives the EPE and
    /// PV band the tile's own scoring gave — the convention's sites on the
    /// owned targets through `measure_epe`, and `core_pvb` — bit for bit.
    #[test]
    fn core_pvb_oracle_is_the_tile_scorer() {
        use cardopc_litho::{measure_epe, metal_measure_points, via_measure_points};
        use cardopc_litho::{Precision, ProcessCondition};
        let rects = |w: f64, h: f64| {
            let mut rng = cardopc_geometry::SplitMix64::new(47);
            let mut rects = vec![
                // Centred on the far corner: owned by the clamped tile.
                Polygon::rect(
                    Point::new(w - 40.0, h - 30.0),
                    Point::new(w + 40.0, h + 30.0),
                ),
                Polygon::rect(Point::new(-20.0, 100.0), Point::new(60.0, 180.0)),
            ];
            for _ in 0..14 {
                let (x, y) = (rng.range_f64(0.0, w), rng.range_f64(0.0, h));
                let (dx, dy) = (rng.range_f64(40.0, 200.0), rng.range_f64(40.0, 120.0));
                rects.push(Polygon::rect(Point::new(x, y), Point::new(x + dx, y + dy)));
            }
            rects
        };
        let cases = [
            (
                1000.0,
                760.0,
                300.0,
                150.0,
                20.0,
                MeasureConvention::ViaEdgeCenters,
            ),
            (
                1000.0,
                900.0,
                310.7,
                133.3,
                16.0,
                MeasureConvention::MetalSpacing(60.0),
            ),
        ];
        for (w, h, tile_size, halo, pitch, convention) in cases {
            let clip = Clip::new("clamped", w, h, rects(w, h));
            let partition = partition_clip(&clip, &TilingConfig { tile_size, halo }).unwrap();
            assert!(partition.nx >= 3 && partition.ny >= 3);
            let window = partition.window;
            let engine = engine_for_extent_at(window.x, window.y, pitch, Precision::F64).unwrap();
            let (dose_delta, epe_search) = (0.02, 40.0);
            let mut scored = 0;
            for tile in &partition.tiles {
                let raster = cardopc_litho::rasterize(
                    tile.clip.targets(),
                    engine.width(),
                    engine.height(),
                    pitch,
                );
                let owned: Vec<Polygon> = tile
                    .clip
                    .targets()
                    .iter()
                    .zip(&tile.owned)
                    .filter(|&(_, owned)| *owned)
                    .map(|(t, _)| t.clone())
                    .collect();
                let score = score_mask_grid(
                    &engine,
                    &raster,
                    &owned,
                    convention,
                    dose_delta,
                    epe_search,
                    window_core(tile),
                )
                .unwrap();

                let conditions = [
                    ProcessCondition::NOMINAL,
                    ProcessCondition::inner(dose_delta),
                ];
                let images = engine.aerial_images_multi(&raster, &conditions).unwrap();
                let sites = match convention {
                    MeasureConvention::ViaEdgeCenters => via_measure_points(&owned),
                    MeasureConvention::MetalSpacing(s) => metal_measure_points(&owned, s),
                };
                let epe = measure_epe(&images[0], engine.threshold(), &sites, epe_search);
                let pvb = core_pvb(
                    &images[0],
                    engine.effective_threshold(ProcessCondition::outer(dose_delta)),
                    &images[1],
                    engine.effective_threshold(ProcessCondition::inner(dose_delta)),
                    tile,
                );
                let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&score.epe.values),
                    bits(&epe.values),
                    "tile {}",
                    tile.index
                );
                assert_eq!(
                    score.pvb_nm2.to_bits(),
                    pvb.to_bits(),
                    "tile {}",
                    tile.index
                );
                scored += usize::from(pvb > 0.0);
            }
            assert!(scored >= 4, "{scored} tiles with a PV band");
        }
    }
}
