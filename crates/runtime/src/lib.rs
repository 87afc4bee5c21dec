//! `cardopc-runtime` — a tiled full-chip OPC runtime.
//!
//! [`CardOpc`](cardopc_opc::CardOpc) corrects one clip against one
//! simulation grid; full-chip layouts are far larger than the maximum
//! grid. This crate scales the flow out by tiling:
//!
//! 1. **Partition** ([`partition_clip`]): the clip is split into core
//!    windows with a halo margin; every target is owned by exactly one
//!    tile (bbox-centre rule; membership binned by each target's bbox),
//!    and halo copies give each tile the optical context a monolithic run
//!    would see.
//! 2. **Schedule** ([`run_tiles_controlled`]): tiles fan out over the shared
//!    [`WorkerPool`], every task sharing one calibrated
//!    [`LithoEngine`](cardopc_litho::LithoEngine) per (uniform) window
//!    extent. Results are merged in tile order, so the outcome is
//!    deterministic for any scheduler pool size.
//! 3. **Checkpoint** ([`RunDir`]): each tile pattern's correction is
//!    appended once, as the tile cache's entry line, and each finished
//!    tile as a short tile line that places it (input hash, cache key,
//!    [`Placement`]); a resumed run skips every tile whose line still
//!    matches its input hash.
//! 4. **Stitch** ([`stitch`]): owner-tile shapes are merged into the
//!    full-chip mask and a cross-boundary MRC spacing pass runs on the
//!    seam bands only.
//! 5. **Manifest** ([`RunManifest`]): per-tile and aggregate statistics,
//!    renderable as a table or JSON; the timing-free JSON form is
//!    byte-identical across reruns and resumes of the same input.
//! 6. **Control** ([`RunControl`]): long-lived embedders attach per-tile
//!    progress callbacks, a cooperative [`RunHandle`] cancellation token
//!    (checked at tile boundaries, so cancelled runs stay resumable), and
//!    a cross-run [`EngineCache`] via [`run_clip_controlled`].
//! 7. **Tile cache** ([`TileCache`]): a persistent content-addressed
//!    store keyed by a translation-normalised tile pattern hash; a
//!    congruent tile anywhere on the chip — or in a later job — replays
//!    the stored window-relative correction instead of re-running it, so
//!    cost collapses from total tiles to *unique* tile patterns.
//!
//! One implementation per concept underneath: resume, budget, commit and
//! conclude are one frame ([`run`]) around whichever executor corrects the
//! tiles — this crate's pool scheduler or the fleet coordinator; a
//! checkpoint is tile-cache entries plus tile placements, so both stores
//! share one entry line, one placement path ([`TileLine::place`]) and one
//! shape record ([`StitchedShape`], whose frame — chip or window — belongs
//! to its container; see [`checkpoint`]), one
//! tile hash walk (`hash`: [`tile_input_hash`] and [`tile_cache_key`]
//! are the same walk with and without the tile's position, and the
//! configuration reaches it through `OpcConfig::walk`, the single
//! exhaustive field walk in `cardopc-opc`), and one file discipline
//! (`store`: torn-tail-tolerant JSONL load, append + flush, atomic
//! tmp + rename, PID lock). To add an `OpcConfig` field: add it to the
//! struct and to the walk — the compiler lists the rest.
//!
//! The `cardopc` binary (in the `cardopc-serve` crate) wraps this into a
//! command-line runner and an HTTP correction service.

pub mod cache;
pub mod checkpoint;
mod error;
pub mod gdsout;
pub mod handle;
mod hash;
pub mod json;
pub mod manifest;
pub mod partition;
pub mod run;
pub mod schedule;
pub mod stitch;
mod store;

pub use cache::{tile_cache_key, tile_cache_keys, CacheConfig, CacheStats, CachedTile, TileCache};
pub use checkpoint::{
    tile_input_hash, Placement, RunDir, StitchedShape, StoreLine, TileLine, TileMetrics, TileRecord,
};
pub use error::RuntimeError;
pub use gdsout::{stream_mask_gds, write_mask_gds, MaskGdsOptions, MASK_NM_PER_DBU};
pub use handle::{EngineCache, RunControl, RunHandle, TileEvent};
pub use manifest::{Aggregate, RunManifest, TileSummary};
pub use partition::{partition_clip, Partition, Tile, TilingConfig};
pub use run::{Run, RunOutcome, RunStore};
pub use schedule::{correct_single_tile, run_tiles_controlled, ScheduleOutcome, TileResult};
pub use stitch::{seam_bands, stitch, Stitched};
pub use store::write_file_atomic;

use cardopc_layout::Clip;
use cardopc_litho::span::span;
use cardopc_litho::WorkerPool;
use cardopc_opc::{CardOpc, OpcConfig};
use std::path::PathBuf;

/// Configuration of one tiled run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The per-tile OPC flow configuration.
    pub opc: OpcConfig,
    /// Tiling geometry.
    pub tiling: TilingConfig,
    /// Checkpoint/manifest directory. `None` disables checkpointing.
    /// When the directory already holds records from a previous run over
    /// the same input, those tiles are resumed instead of re-executed.
    pub run_dir: Option<PathBuf>,
    /// Execute at most this many tiles, then stop (resumed tiles are
    /// free). `None` runs to completion.
    pub max_tiles: Option<usize>,
}

impl RunConfig {
    /// A run configuration with no checkpointing and no tile budget.
    pub fn new(opc: OpcConfig, tiling: TilingConfig) -> RunConfig {
        RunConfig {
            opc,
            tiling,
            run_dir: None,
            max_tiles: None,
        }
    }
}

/// Runs the tiled flow end to end: partition → (resume) → schedule →
/// stitch → manifest.
///
/// # Errors
///
/// [`RuntimeError::InvalidConfig`] for unusable tiling parameters,
/// [`RuntimeError::Tile`] when a tile's flow fails, [`RuntimeError::Io`]
/// on checkpoint/manifest file failures.
///
/// # Panics
///
/// Panics when `config.opc` is invalid (see
/// [`OpcConfig::assert_valid`](cardopc_opc::OpcConfig)); the OPC
/// configuration is build-time data, not user input.
pub fn run_clip(
    clip: &Clip,
    config: &RunConfig,
    pool: &WorkerPool,
) -> Result<RunOutcome, RuntimeError> {
    run_clip_controlled(clip, config, pool, &RunControl::default())
}

/// [`run_clip`] with [`RunControl`] hooks attached: per-tile progress
/// callbacks, cooperative cancellation (checked at tile boundaries — a
/// cancelled run checkpoints its finished tiles and returns an
/// incomplete, resumable outcome), and an optional cross-run
/// [`EngineCache`]. This is the entry point long-lived embedders such as
/// `cardopc-serve` drive; `run_clip` is this with no hooks.
///
/// # Errors
///
/// See [`run_clip`].
///
/// # Panics
///
/// See [`run_clip`].
pub fn run_clip_controlled(
    clip: &Clip,
    config: &RunConfig,
    pool: &WorkerPool,
    control: &RunControl<'_>,
) -> Result<RunOutcome, RuntimeError> {
    let start = std::time::Instant::now();
    let flow = CardOpc::new(config.opc.clone());
    let partition = {
        let _span = span("partition");
        partition_clip(clip, &config.tiling)?
    };
    let mut store = RunStore::open(config.run_dir.as_deref())?;
    let mut outcome = schedule::run_tiles_owned(
        &partition,
        &flow,
        pool,
        std::mem::take(&mut store.checkpoints),
        config.max_tiles,
        store.sink.as_mut(),
        control,
    )?;
    let rules = config.opc.mrc.as_ref();
    let (manifest, stitched) = store.conclude(
        clip.name(),
        &partition,
        &mut outcome,
        rules,
        pool.parallelism(),
        start,
    )?;
    Ok(RunOutcome::new(manifest, stitched, outcome))
}

/// Below this many items a [`map_on_pool`] runs on the caller's thread:
/// waking the pool costs more than a handful of items.
const PARALLEL_MIN_ITEMS: usize = 64;

/// `items` mapped through `f`, in order: one contiguous chunk per executor
/// of `pool`, so the result is the sequential map's for any pool size.
pub(crate) fn map_on_pool<T: Send, U: Send>(
    pool: &WorkerPool,
    items: Vec<T>,
    f: impl Fn(T) -> U + Sync,
) -> Vec<U> {
    let total = items.len();
    if pool.parallelism() <= 1 || total < PARALLEL_MIN_ITEMS {
        return items.into_iter().map(f).collect();
    }
    let per_task = total.div_ceil(pool.parallelism());
    let mut items = items.into_iter();
    let mut chunks: Vec<(Vec<T>, Vec<U>)> = std::iter::from_fn(|| {
        let chunk: Vec<T> = items.by_ref().take(per_task).collect();
        (!chunk.is_empty()).then_some((chunk, Vec::new()))
    })
    .collect();
    pool.run_with_slots(&mut chunks, |_, (input, output)| {
        *output = std::mem::take(input).into_iter().map(&f).collect();
    });
    let mut mapped = Vec::with_capacity(total);
    for (_, output) in chunks {
        mapped.extend(output);
    }
    mapped
}
