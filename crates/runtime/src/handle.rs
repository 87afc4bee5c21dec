//! Library-level run control: progress observation, cooperative
//! cancellation, and cross-run litho engine sharing.
//!
//! The PR-3 runtime buried "watch a run" and "stop a run" in the
//! `cardopc` binary (stdout logging, Ctrl-C killing the process and
//! relying on checkpoint resume). Long-lived embedders — the
//! `cardopc-serve` correction service foremost — need those as library
//! concepts instead:
//!
//! * [`RunControl`] bundles the optional hooks a caller can attach to
//!   [`run_clip_controlled`](crate::run_clip_controlled) /
//!   [`run_tiles_controlled`](crate::schedule::run_tiles_controlled).
//! * [`RunHandle`] is a cheaply clonable cancellation token. Cancellation
//!   is cooperative and checked at **tile boundaries**: tiles already in
//!   flight finish (and are checkpointed), no new tiles are claimed, and
//!   the run returns an incomplete-but-resumable outcome.
//! * [`TileEvent`] is emitted once per finished tile (resumed or
//!   executed), mirroring the checkpoint record stream 1:1 — a progress
//!   observer sees exactly what `tiles.jsonl` receives.
//! * [`EngineCache`] holds one calibrated [`LithoEngine`] per
//!   [`EngineKey`] for every tile, thread and run that shares it. Engines
//!   are immutable after calibration (every litho entry point takes
//!   `&self`, and each call checks scratch out of the engine's own pool),
//!   so sharing cannot perturb results: a tile corrected against a cached
//!   engine is bit-identical to one corrected against a freshly built
//!   engine of the same extent.

use crate::cache::TileCache;
use cardopc_litho::LithoEngine;
use cardopc_opc::OpcError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Engine identity: `(width nm bits, height nm bits, pitch nm bits,
/// precision tag)` of the window the engine was calibrated for. The
/// precision tag ([`cardopc_litho::Precision::tag`]) keeps `f32` and `f64`
/// engines from ever aliasing in the cache.
pub type EngineKey = (u64, u64, u64, u8);

/// One progress event: a tile finished (executed or resumed).
#[derive(Clone, Debug, PartialEq)]
pub struct TileEvent {
    /// Tile index within the partition.
    pub tile: usize,
    /// Tile name (`clip:txxty`).
    pub name: String,
    /// `true` when the tile was reused from a checkpoint record.
    pub resumed: bool,
    /// `true` when the tile was replayed from the content-addressed tile
    /// cache instead of being corrected.
    pub cached: bool,
    /// Wall seconds spent correcting the tile (the checkpointed value for
    /// resumed tiles; the replay cost for cached ones).
    pub seconds: f64,
    /// Tiles finished so far, including this one.
    pub completed: usize,
    /// Total tiles in the partition.
    pub total: usize,
}

/// A cooperative cancellation token, checked at tile boundaries.
///
/// Clones share the same flag; any clone can cancel. Cancelling an
/// already-finished run is a no-op.
#[derive(Clone, Debug, Default)]
pub struct RunHandle {
    cancelled: Arc<AtomicBool>,
}

impl RunHandle {
    /// A fresh, not-yet-cancelled handle.
    pub fn new() -> RunHandle {
        RunHandle::default()
    }

    /// Requests cancellation: the run stops claiming tiles, finishes (and
    /// checkpoints) the tiles already in flight, and returns incomplete.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// A calibrated-engine cache shared across runs and threads: one engine
/// per [`EngineKey`], built by the first caller that asks for it.
///
/// An engine serves any number of concurrent callers (it pools its own
/// scratch), so every run, tile and thread of a process uses the same one;
/// a server running jobs back to back — or two jobs concurrently — reuses
/// kernels instead of re-deriving them per job. Engines are handed out as
/// [`Arc`]s and never mutated, so sharing is invisible to results.
#[derive(Debug, Default)]
pub struct EngineCache {
    engines: Mutex<HashMap<EngineKey, Arc<Built>>>,
}

/// One key's engine, once built. Callers of the key queue on its lock.
type Built = Mutex<Option<Arc<LithoEngine>>>;

impl EngineCache {
    /// An empty cache.
    ///
    /// `_slots`: ignored; removed with ROADMAP 14-II.
    pub fn new(_slots: usize) -> EngineCache {
        EngineCache::default()
    }

    /// Engines built so far (waits for builds in progress).
    pub fn len(&self) -> usize {
        let keys: Vec<Arc<Built>> = lock(&self.engines).values().cloned().collect();
        keys.iter().filter(|built| lock(built).is_some()).count()
    }

    /// Whether no engine is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the engine for `key`, building (and caching) it with `build`
    /// on a miss. Concurrent callers of one key wait for the first one's
    /// build rather than building their own; callers of other keys do not
    /// wait.
    ///
    /// `_slot`: ignored; removed with ROADMAP 14-II.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns; failures (and panics) are not cached —
    /// the next caller builds.
    pub fn get_or_build(
        &self,
        _slot: usize,
        key: EngineKey,
        build: impl FnOnce() -> Result<LithoEngine, OpcError>,
    ) -> Result<Arc<LithoEngine>, OpcError> {
        let built = Arc::clone(lock(&self.engines).entry(key).or_default());
        let mut built = lock(&built);
        if let Some(engine) = &*built {
            return Ok(Arc::clone(engine));
        }
        Ok(Arc::clone(built.insert(Arc::new(build()?))))
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Optional hooks threaded through a controlled run.
///
/// The default value reproduces the PR-3 behaviour exactly: no progress
/// reporting, no cancellation, run-local engines.
#[derive(Clone, Copy, Default)]
pub struct RunControl<'a> {
    /// Called once per finished tile (resumed tiles first, then executed
    /// tiles as they complete). Invoked from scheduler threads — keep it
    /// cheap and non-blocking.
    pub progress: Option<&'a (dyn Fn(&TileEvent) + Sync)>,
    /// Cooperative cancellation token.
    pub handle: Option<&'a RunHandle>,
    /// Shared engine cache; `None` builds engines run-locally (and drops
    /// them when the run ends).
    pub engines: Option<&'a EngineCache>,
    /// Content-addressed tile correction cache (see [`crate::cache`]);
    /// `None` corrects every tile.
    pub cache: Option<&'a TileCache>,
}

impl std::fmt::Debug for RunControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunControl")
            .field("progress", &self.progress.is_some())
            .field("handle", &self.handle.is_some())
            .field("engines", &self.engines.is_some())
            .field("cache", &self.cache.is_some())
            .finish()
    }
}

impl RunControl<'_> {
    /// Whether the attached handle (if any) has been cancelled.
    pub fn cancelled(&self) -> bool {
        self.handle.is_some_and(RunHandle::is_cancelled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_clones_share_the_flag() {
        let h = RunHandle::new();
        let clone = h.clone();
        assert!(!h.is_cancelled());
        clone.cancel();
        assert!(h.is_cancelled());
        assert!(RunControl {
            handle: Some(&h),
            ..RunControl::default()
        }
        .cancelled());
        assert!(!RunControl::default().cancelled());
    }

    fn key(extent: f64) -> EngineKey {
        (extent.to_bits(), extent.to_bits(), 16f64.to_bits(), 0u8)
    }

    #[test]
    fn engine_cache_builds_once_per_key() {
        let cache = EngineCache::new(2);
        let mut builds = 0;
        // The ignored slot argument does not pick a separate shard.
        for slot in 0..3 {
            let engine = cache
                .get_or_build(slot, key(1024.0), || {
                    builds += 1;
                    cardopc_opc::engine_for_extent(1024.0, 1024.0, 16.0)
                })
                .unwrap();
            assert_eq!(engine.width(), 64);
        }
        assert_eq!(builds, 1);
        assert_eq!(cache.len(), 1);
        // Another key is another engine.
        let other = cache
            .get_or_build(0, key(512.0), || {
                cardopc_opc::engine_for_extent(512.0, 512.0, 16.0)
            })
            .unwrap();
        assert_eq!(other.width(), 32);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn engine_cache_racing_first_callers_build_once() {
        const THREADS: usize = 4;
        let cache = EngineCache::new(THREADS);
        let builds = std::sync::atomic::AtomicUsize::new(0);
        let start = std::sync::Barrier::new(THREADS);
        let engines: Vec<Arc<LithoEngine>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..THREADS)
                .map(|slot| {
                    let (cache, builds, start) = (&cache, &builds, &start);
                    scope.spawn(move || {
                        start.wait();
                        cache
                            .get_or_build(slot, key(1024.0), || {
                                builds.fetch_add(1, Ordering::Relaxed);
                                cardopc_opc::engine_for_extent(1024.0, 1024.0, 16.0)
                            })
                            .unwrap()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert!(engines.iter().all(|e| Arc::ptr_eq(e, &engines[0])));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn engine_cache_build_failures_are_not_cached() {
        let cache = EngineCache::new(1);
        let key = (1.0f64.to_bits(), 1.0f64.to_bits(), 1.0f64.to_bits(), 0u8);
        let err = cache.get_or_build(0, key, || cardopc_opc::engine_for_extent(1e9, 1e9, 1.0));
        assert!(err.is_err());
        assert!(cache.is_empty());
    }
}
