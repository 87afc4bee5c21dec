//! Tile job scheduling over the shared worker pool.
//!
//! Tiles are fanned over [`WorkerPool`] slots: each slot (one worker
//! thread, plus the participating submitter) claims tiles from a shared
//! atomic counter and runs the full OPC flow on them with a per-slot
//! [`LithoEngine`] cache keyed by window extent — tile windows are
//! uniform, so in practice each slot builds exactly one engine and reuses
//! it for every tile it claims. The claim order is dynamic (load
//! balanced), but results are merged and sorted by tile index afterwards,
//! so the outcome is **deterministic for any scheduler pool size**: each
//! tile's correction is a pure function of its input clip, and the
//! per-tile outputs are order-independent. The litho engine's SOCS
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
use crate::checkpoint::{
    tile_input_hash, Placement, StitchedShape, TileLine, TileMetrics, TileRecord,
};
use crate::handle::{EngineKey, RunControl};
use crate::partition::{Partition, Tile};
use crate::run::Run;
use crate::RuntimeError;
use cardopc_geometry::{Grid, Polygon};
use cardopc_litho::{measure_epe, metal_measure_points, via_measure_points, LithoEngine};
use cardopc_litho::{ProcessCondition, WorkerPool};
use cardopc_opc::{engine_for_extent_at, CardOpc, MeasureConvention, EPE_TOLERANCE};
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

/// Per-slot state: an engine memo keyed by `(width, height, pitch bits)`.
/// Windows are uniform per run, so this holds one engine per slot, but the
/// key keeps correctness if a future caller mixes extents. When a shared
/// [`EngineCache`](crate::EngineCache) is attached the memo holds `Arc`s
/// into it (no lock on the per-tile hot path); otherwise the engines are
/// run-local.
type Slot = HashMap<EngineKey, Arc<LithoEngine>>;

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
    let mut run = Run::new(partition, flow.config(), checkpoints, sink, control);
    let todo = run.start(max_tiles);

    // Each slot claims tiles from the shared cursor until the list is
    // drained or the run is stopped.
    let cursor = AtomicUsize::new(0);
    let mut slots = vec![Slot::new(); pool.parallelism().max(1)];
    pool.run_with_slots(&mut slots, |slot_index, slot| {
        while !run.stopped() {
            let Some(&(index, hash)) = todo.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                return;
            };
            let tile = &partition.tiles[index];
            match execute_tile(tile, hash, partition, flow, slot, slot_index, control) {
                Ok(Some((line, entry, cached))) => run.commit(line, &entry, cached, None),
                // Cancelled while waiting on an in-flight cache key: no
                // result for this tile, and the loop is about to exit.
                Ok(None) => {}
                Err(e) => run.fail(index, e),
            }
        }
    });
    run.finish()
}

/// Corrects exactly one tile of `partition` and returns its tile line and
/// the entry the line places — the fleet worker's entry point. Runs through the same (optionally cached) `correct_tile` →
/// [`Placement::of`] path as the full scheduler, so the lines are
/// byte-identical (timing aside) to what a single-process run writes for
/// that tile. `slot_index` selects the stripe of an attached
/// [`EngineCache`](crate::EngineCache) (callers with several executor
/// threads should spread indices to avoid lock contention). `Ok(None)`
/// means the control's handle was cancelled while the tile waited on
/// another caller's in-flight correction.
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
    slot_index: usize,
) -> Result<Option<(TileLine, Arc<CachedTile>)>, RuntimeError> {
    // Tiles sit at their own index (the fleet worker relies on it too).
    let tile = partition
        .tiles
        .get(tile_index)
        .filter(|t| t.index == tile_index)
        .ok_or(RuntimeError::InvalidConfig(
            "tile index outside the partition",
        ))?;
    let mut slot = Slot::new();
    let hash = tile_input_hash(tile, flow.config());
    let finished = execute_tile(tile, hash, partition, flow, &mut slot, slot_index, control)?;
    Ok(finished.map(|(line, entry, _cached)| (line, entry)))
}

/// Runs one tile through the (optionally cached) correction path and
/// places the entry under `input_hash` (the tile's [`tile_input_hash`],
/// which every caller has already computed). The cache key is computed
/// with or without a cache: the tile line names it. The boolean is `true`
/// for a cache replay. `Ok(None)` means the run was cancelled while the
/// tile waited on another caller's in-flight correction of the same
/// pattern.
fn execute_tile(
    tile: &Tile,
    input_hash: u64,
    partition: &Partition,
    flow: &CardOpc,
    slot: &mut Slot,
    slot_index: usize,
    control: &RunControl<'_>,
) -> Result<Option<(TileLine, Arc<CachedTile>, bool)>, RuntimeError> {
    let start = std::time::Instant::now();
    let config = flow.config();
    let key = tile_cache_key(tile, &partition.config, config);
    let correct = |slot: &mut Slot| correct_tile(tile, flow, config, slot, slot_index, control);
    let (entry, cached) = match control.cache {
        Some(cache) => {
            let cancelled = || control.cancelled();
            match cache.get_or_correct(key, &cancelled, || correct(slot))? {
                Some(found) => found,
                None => return Ok(None),
            }
        }
        None => (Arc::new(correct(slot)?), false),
    };
    let seconds = start.elapsed().as_secs_f64();
    let placement = Placement::of(tile, partition, &entry).ok_or(RuntimeError::InvalidConfig(
        "a tile cache entry names a target its tile does not have",
    ))?;
    let line = TileLine {
        index: tile.index,
        name: tile.clip.name().to_string(),
        input_hash,
        key,
        seconds,
        placement,
    };
    Ok(Some((line, entry, cached)))
}

/// Corrects one tile — the expensive part: the full OPC flow plus
/// scoring — producing a *window-relative* [`CachedTile`] that this tile
/// or any congruent one places by [`Placement::of`].
fn correct_tile(
    tile: &Tile,
    flow: &CardOpc,
    config: &cardopc_opc::OpcConfig,
    slot: &mut Slot,
    slot_index: usize,
    control: &RunControl<'_>,
) -> Result<CachedTile, RuntimeError> {
    let start = std::time::Instant::now();
    let cache = control.engines;
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
    let engine: &LithoEngine = match slot.entry(key) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(v) => {
            let build = || {
                engine_for_extent_at(
                    tile.clip.width(),
                    tile.clip.height(),
                    config.pitch,
                    config.precision,
                )
            };
            let engine = match cache {
                Some(cache) => cache.get_or_build(slot_index, key, build),
                None => build().map(Arc::new),
            }
            .map_err(|source| RuntimeError::Tile {
                tile: tile.index,
                source,
            })?;
            v.insert(engine)
        }
    };

    let optimized = flow
        .optimize_with_engine(&tile.clip, engine)
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
    let mask_polys: Vec<Polygon> = optimized
        .shapes
        .iter()
        .map(|s| s.spline.to_polygon(config.samples_per_segment))
        .collect();
    let raster =
        cardopc_litho::rasterize(&mask_polys, engine.width(), engine.height(), engine.pitch());
    // Both focus states from a single forward mask FFT.
    let images = engine
        .aerial_images_multi(
            &raster,
            &[
                ProcessCondition::NOMINAL,
                ProcessCondition::inner(config.dose_delta),
            ],
        )
        .map_err(|e| RuntimeError::Tile {
            tile: tile.index,
            source: e.into(),
        })?;
    let (aerial, inner_aerial) = (&images[0], &images[1]);

    let owned_targets: Vec<Polygon> = tile
        .clip
        .targets()
        .iter()
        .zip(&tile.owned)
        .filter(|&(_, owned)| *owned)
        .map(|(t, _)| t.clone())
        .collect();
    let sites = match config.convention {
        MeasureConvention::ViaEdgeCenters => via_measure_points(&owned_targets),
        MeasureConvention::MetalSpacing(s) => metal_measure_points(&owned_targets, s),
    };
    let epe = measure_epe(aerial, engine.threshold(), &sites, config.epe_search);

    // Core-restricted PV band on the raw aerials: thresholding is fused
    // into the count (`binarize` maps `v >= t` to 1.0, so comparing
    // `v >= t` directly is exact).
    let pvb_nm2 = core_pvb(
        aerial,
        engine.effective_threshold(ProcessCondition::outer(config.dose_delta)),
        inner_aerial,
        engine.effective_threshold(ProcessCondition::inner(config.dose_delta)),
        tile,
    );

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

/// PV-band area restricted to the tile's core, nm², computed directly on
/// the raw outer/inner aerial images with their effective print thresholds
/// (equivalent to binarizing both and XOR-counting, without materialising
/// the binary grids). Pixel membership is by pixel centre, so the disjoint
/// cores of a partition count every seam pixel exactly once across tiles.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition_clip, TilingConfig};
    use cardopc_geometry::Point;
    use cardopc_layout::Clip;
    use cardopc_opc::OpcConfig;

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
}
