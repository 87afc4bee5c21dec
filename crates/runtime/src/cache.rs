//! Content-addressed cross-job tile correction cache.
//!
//! Real layouts are massively repetitive: standard cells and via arrays
//! recur across the chip (and across jobs), so full-chip OPC cost should
//! scale with the number of *unique* tile patterns, not with area. This
//! module maps a **canonical tile key** — a translation-normalised hash of
//! the tile's halo-inclusive geometry plus the full `OpcConfig` — to the
//! tile's corrected output stored *window-relative*, so a hit is replayed
//! by pure translation into any congruent tile anywhere on the chip or in
//! a later job.
//!
//! Key canonicalisation ([`tile_cache_key`]): the partitioner already
//! rebases every target into window coordinates (chip position minus the
//! window origin), so hashing those vertices — plus the window extent,
//! the `(tile_size, halo)` split (the ownership core's position within
//! the window depends on it), each target's ownership flag, and every
//! `OpcConfig` field — erases the tile's absolute position while keeping
//! everything the correction depends on. Positional identity (tile index,
//! grid coordinates, origin, global target ids) is deliberately excluded.
//! Floats hash through the canonicalising `Fnv` writer, so `-0.0` vs
//! `0.0` bit patterns cannot cause a spurious miss. The key and the
//! checkpoint's `tile_input_hash` are the same walk (`crate::hash`), with
//! and without the positional identity.
//!
//! What is stored ([`CachedTile`]): the owned main shapes (tagged with
//! their *local* target index) and **all** assist features of the window,
//! in the optimizer's output order, window-relative. A run directory
//! stores the very same entry line once per pattern, beside one short
//! tile line per tile ([`crate::checkpoint`]): one codec, one shape type.
//! SRAF seam ownership
//! is decided at replay time by the *replaying* tile's own owner test —
//! an edge tile and an interior tile can legally share a key yet keep
//! different halo assists, because the clamped owner grid treats the chip
//! boundary differently. Storing the full assist set and filtering late
//! makes a replay bit-identical to a cold run by construction: both paths
//! build records through the same [`Placement`](crate::Placement) and
//! [`TileLine::place`](crate::TileLine::place).
//!
//! Concurrency: a lock-striped index (16 shards) with **single-flight**
//! de-duplication. The first thread to miss a key installs an in-flight
//! marker and corrects; concurrent requesters of the same key block on
//! the shard's condvar (with a cancellation-aware timeout) and receive
//! the finished value as a hit. A failed leader removes the marker and
//! wakes the waiters, the first of which becomes the next leader (a drop
//! guard, so a leader whose correction panics releases it too). Waiting
//! threads belong to the scheduler's worker pool; the pool's nested-run
//! protocol degrades a blocked submitter to draining its own queue, so a
//! waiter can never deadlock the leader's litho work.
//!
//! Eviction mirrors the serve layer's terminal-job retention: the store
//! is bounded by entry count and byte budget, evicting the
//! least-recently-hit entry first and counting evictions.
//!
//! Persistence is the checkpoint file discipline, through the same
//! helpers: an append-only `cache.jsonl` of self-describing lines (a torn
//! final line from a killed process parses as garbage and is skipped; the
//! last line per key wins), a `cache.lock` PID file with stale-lock
//! reclaim, and an atomic compaction rewrite on drop when the file has
//! accumulated dead lines.
//! A directory locked by a live process degrades to a read-only open (the
//! store is still consulted and new corrections are kept in memory for
//! the run, just not written back).

use crate::checkpoint::{StitchedShape, TileMetrics};
use crate::store::{acquire_pid_lock, append_lines, load_jsonl, open_append, write_atomic};
use crate::RuntimeError;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Lock stripes of the index.
const SHARDS: usize = 16;

/// How long a single-flight waiter sleeps between cancellation checks.
const WAIT_SLICE: Duration = Duration::from_millis(50);

pub use crate::hash::tile_cache_key;

// ---------------------------------------------------------------- values

/// The cached correction of one tile pattern, window-relative.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedTile {
    /// Per-iteration |EPE| sums over the tile's owned targets.
    pub owned_epe_history: Vec<f64>,
    /// Per-iteration |EPE| sums over the whole halo window.
    pub epe_history: Vec<f64>,
    /// Owned mains followed by **every** window assist, in optimizer
    /// output order, window coordinates. A main's `global_id` is the index
    /// of its (always *owned*) target in the tile clip's target list.
    /// Assist seam filtering happens at replay.
    pub shapes: Vec<StitchedShape>,
    /// Tile metrics (position-independent: EPE over owned sites, PV band
    /// over the core, MRC over the window).
    pub metrics: TileMetrics,
    /// Wall seconds the original (cold) correction took.
    pub seconds: f64,
}

// ---------------------------------------------------------------- config

/// Tile cache configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheConfig {
    /// Backing directory; `None` keeps the cache in memory only (still
    /// shared across jobs within the process).
    pub dir: Option<PathBuf>,
    /// Maximum live entries before LRU eviction.
    pub max_entries: usize,
    /// Maximum live bytes (serialised-line accounting) before eviction.
    pub max_bytes: u64,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            dir: None,
            max_entries: 65_536,
            max_bytes: 256 * 1024 * 1024,
        }
    }
}

/// A point-in-time snapshot of cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the store (including single-flight waits).
    pub hits: u64,
    /// Lookups that corrected and inserted.
    pub misses: u64,
    /// Entries evicted by the budget.
    pub evicted: u64,
    /// Live entries.
    pub entries: u64,
    /// Live bytes (serialised accounting).
    pub bytes: u64,
}

// ----------------------------------------------------------------- store

struct Entry {
    value: Arc<CachedTile>,
    bytes: u64,
    last_hit: u64,
}

enum Slot {
    Ready(Entry),
    /// A leader is correcting this key right now.
    InFlight,
}

struct Shard {
    map: Mutex<HashMap<u64, Slot>>,
    cond: Condvar,
}

/// The shared, bounded, content-addressed tile store. See the module docs
/// for the full design.
pub struct TileCache {
    shards: Vec<Shard>,
    /// Append handle to `cache.jsonl`; `None` in memory-only or
    /// read-only mode.
    writer: Option<Mutex<std::fs::File>>,
    dir: Option<PathBuf>,
    /// Owned `cache.lock`, removed on drop.
    lock: Option<PathBuf>,
    read_only: bool,
    max_entries: u64,
    max_bytes: u64,
    /// Global recency clock for LRU eviction.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
    entries: AtomicU64,
    bytes: AtomicU64,
    /// Bytes currently in the backing file (live + dead lines), used to
    /// decide whether dropping should compact.
    file_bytes: AtomicU64,
}

impl std::fmt::Debug for TileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TileCache")
            .field("dir", &self.dir)
            .field("read_only", &self.read_only)
            .field("stats", &self.stats())
            .finish()
    }
}

impl TileCache {
    /// Opens a cache.
    ///
    /// With a directory: creates it, takes `cache.lock` (falling back to
    /// a read-only open with a warning when another live process holds
    /// it), loads every parseable line of `cache.jsonl` (last line per
    /// key wins; a torn tail is skipped) and enforces the budget. Without
    /// a directory the cache is memory-only.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Io`] when the directory or file cannot be
    /// created/read.
    pub fn open(config: &CacheConfig) -> Result<TileCache, RuntimeError> {
        let mut cache = TileCache {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    map: Mutex::new(HashMap::new()),
                    cond: Condvar::new(),
                })
                .collect(),
            writer: None,
            dir: None,
            lock: None,
            read_only: false,
            max_entries: (config.max_entries.max(1)) as u64,
            max_bytes: config.max_bytes.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            file_bytes: AtomicU64::new(0),
        };
        let Some(dir) = &config.dir else {
            return Ok(cache);
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| RuntimeError::Io(format!("create {}: {e}", dir.display())))?;
        match acquire_pid_lock(dir, "cache.lock") {
            Ok(path) => cache.lock = Some(path),
            Err(RuntimeError::Locked { path, pid }) => {
                eprintln!(
                    "cardopc: tile cache {path} is held by live process {pid}; \
                     opening read-only"
                );
                cache.read_only = true;
            }
            Err(e) => return Err(e),
        }

        // Load the backing file: last parseable line per key wins, keyed
        // to its line position as the initial recency.
        let path = dir.join("cache.jsonl");
        let (lines, file_bytes) = load_jsonl(&path, CachedTile::from_json_line)?;
        cache.file_bytes.store(file_bytes, Ordering::Relaxed);
        let mut loaded: HashMap<u64, Entry> = HashMap::new();
        for ((key, value), bytes) in lines {
            let last_hit = cache.tick.fetch_add(1, Ordering::Relaxed);
            let value = Arc::new(value);
            // A later line for the same key replaces the earlier one.
            loaded.insert(
                key,
                Entry {
                    value,
                    bytes,
                    last_hit,
                },
            );
        }
        for (key, entry) in loaded {
            cache.entries.fetch_add(1, Ordering::Relaxed);
            cache.bytes.fetch_add(entry.bytes, Ordering::Relaxed);
            cache
                .lock_shard(cache.shard(key))
                .insert(key, Slot::Ready(entry));
        }

        if !cache.read_only {
            cache.writer = Some(Mutex::new(open_append(&path)?));
        }
        cache.dir = Some(dir.clone());
        cache.enforce_budget();
        Ok(cache)
    }

    /// Whether the backing store is write-protected: another live process
    /// held `cache.lock` when this cache opened, so it serves the file's
    /// entries and keeps new ones in memory only.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Looks `key` up, correcting-and-inserting on a miss with
    /// single-flight de-duplication: concurrent callers of an in-flight
    /// key block until the leader finishes and then share its value as a
    /// hit. Returns `Ok(None)` when `cancelled` fires while waiting; the
    /// leader itself never waits (it checks nothing beyond `correct`).
    /// A failed leader propagates its error and releases the key, so the
    /// next caller retries.
    ///
    /// # Errors
    ///
    /// Whatever `correct` returns; failures are never cached.
    pub fn get_or_correct<E>(
        &self,
        key: u64,
        cancelled: &(dyn Fn() -> bool + '_),
        correct: impl FnOnce() -> Result<CachedTile, E>,
    ) -> Result<Option<(Arc<CachedTile>, bool)>, E> {
        let shard = self.shard(key);
        let mut map = self.lock_shard(shard);
        loop {
            match map.get_mut(&key) {
                Some(Slot::Ready(entry)) => {
                    entry.last_hit = self.tick.fetch_add(1, Ordering::Relaxed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some((Arc::clone(&entry.value), true)));
                }
                Some(Slot::InFlight) => {
                    let (guard, _timeout) = shard
                        .cond
                        .wait_timeout(map, WAIT_SLICE)
                        .unwrap_or_else(PoisonError::into_inner);
                    map = guard;
                    if cancelled() {
                        return Ok(None);
                    }
                }
                None => {
                    map.insert(key, Slot::InFlight);
                    drop(map);
                    break;
                }
            }
        }

        // This caller is the leader for `key`. If `correct` fails or
        // panics, dropping `lead` releases the key to the next caller.
        let lead = Leader { shard, key };
        let value = Arc::new(correct()?);
        let line = value.to_json_line(key);
        let bytes = line.len() as u64 + 1;
        self.lock_shard(shard).insert(
            key,
            Slot::Ready(Entry {
                value: Arc::clone(&value),
                bytes,
                last_hit: self.tick.fetch_add(1, Ordering::Relaxed),
            }),
        );
        drop(lead);
        self.entries.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.persist(line);
        self.enforce_budget();
        Ok(Some((value, false)))
    }

    fn shard(&self, key: u64) -> &Shard {
        &self.shards[(key as usize) % SHARDS]
    }

    fn lock_shard<'a>(&self, shard: &'a Shard) -> MutexGuard<'a, HashMap<u64, Slot>> {
        shard.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Best-effort append of one entry line to the backing file. A write
    /// failure degrades the cache to memory-only behaviour for that
    /// entry; it never fails the correction.
    fn persist(&self, line: String) {
        if let Some(writer) = &self.writer {
            let bytes = line.len() as u64 + 1;
            let mut file = writer.lock().unwrap_or_else(PoisonError::into_inner);
            match append_lines(&mut *file, &[&line]) {
                Ok(()) => {
                    self.file_bytes.fetch_add(bytes, Ordering::Relaxed);
                }
                Err(e) => {
                    eprintln!("cardopc: tile cache append failed ({e}); entry kept in memory")
                }
            }
        }
    }

    /// Evicts least-recently-hit entries until the store fits its entry
    /// and byte budgets. In-flight keys are never evicted.
    fn enforce_budget(&self) {
        loop {
            if self.entries.load(Ordering::Relaxed) <= self.max_entries
                && self.bytes.load(Ordering::Relaxed) <= self.max_bytes
            {
                return;
            }
            // Global LRU candidate: scan shards one lock at a time.
            let mut victim: Option<(usize, u64, u64)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                let map = self.lock_shard(shard);
                for (k, slot) in map.iter() {
                    if let Slot::Ready(entry) = slot {
                        if victim.is_none_or(|(_, _, t)| entry.last_hit < t) {
                            victim = Some((i, *k, entry.last_hit));
                        }
                    }
                }
            }
            let Some((i, key, tick)) = victim else {
                // Nothing evictable (everything in flight).
                return;
            };
            let mut map = self.lock_shard(&self.shards[i]);
            let still_lru = matches!(map.get(&key), Some(Slot::Ready(e)) if e.last_hit == tick);
            if still_lru {
                if let Some(Slot::Ready(entry)) = map.remove(&key) {
                    self.entries.fetch_sub(1, Ordering::Relaxed);
                    self.bytes.fetch_sub(entry.bytes, Ordering::Relaxed);
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                }
            }
            // A raced hit bumped the candidate; rescan.
        }
    }
}

/// The in-flight claim on a key, held by the caller correcting it.
/// Dropping it — after publishing the value, or while unwinding from a
/// failed or panicking correction — removes a marker that is still in
/// flight and wakes the key's waiters, so a fault in one leader can never
/// park every later requester of that pattern.
struct Leader<'a> {
    shard: &'a Shard,
    key: u64,
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        let mut map = self
            .shard
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(Slot::InFlight) = map.get(&self.key) {
            map.remove(&self.key);
        }
        drop(map);
        self.shard.cond.notify_all();
    }
}

impl Drop for TileCache {
    fn drop(&mut self) {
        // Compact the backing file when it carries dead weight (evicted
        // or superseded lines). `&mut self` means no other user: plain
        // lock-and-collect is race-free here.
        let dead_weight =
            self.file_bytes.load(Ordering::Relaxed) > self.bytes.load(Ordering::Relaxed);
        if let (Some(dir), true, true) = (&self.dir, self.writer.is_some(), dead_weight) {
            let mut lines: Vec<(u64, String)> = Vec::new();
            for shard in &self.shards {
                let map = shard.map.lock().unwrap_or_else(PoisonError::into_inner);
                for (key, slot) in map.iter() {
                    if let Slot::Ready(entry) = slot {
                        lines.push((entry.last_hit, entry.value.to_json_line(*key)));
                    }
                }
            }
            lines.sort_unstable_by_key(|(tick, _)| *tick);
            let mut text = String::new();
            for (_, line) in &lines {
                text.push_str(line);
                text.push('\n');
            }
            // Best effort: a failed compaction leaves the (valid,
            // merely larger) append-only file in place.
            let _ = write_atomic(&dir.join("cache.jsonl"), &text);
        }
        if let Some(lock) = self.lock.take() {
            let _ = std::fs::remove_file(lock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition_clip, TilingConfig};
    use cardopc_geometry::{Point, Polygon};
    use cardopc_layout::Clip;
    use cardopc_opc::OpcConfig;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cardopc-cache-{tag}-{}", std::process::id()))
    }

    fn sample(seed: f64) -> CachedTile {
        CachedTile {
            owned_epe_history: vec![3.0 + seed, 1.5],
            epe_history: vec![6.0, 2.0 + seed],
            shapes: vec![
                StitchedShape {
                    global_id: Some(0),
                    is_sraf: false,
                    tension: 0.6,
                    control_points: vec![Point::new(1.25 + seed, 2.0), Point::new(3.0, 4.5)],
                },
                StitchedShape {
                    global_id: None,
                    is_sraf: true,
                    tension: 0.6,
                    control_points: vec![Point::new(0.5, 0.25), Point::new(0.125, 9.0)],
                },
            ],
            metrics: TileMetrics {
                shapes: 2,
                owned: 1,
                epe_sum_nm: 4.25,
                epe_violations: 0,
                pvb_nm2: 512.0,
                mrc_initial: 0,
                mrc_remaining: 0,
            },
            seconds: 0.75,
        }
    }

    #[test]
    fn entry_line_roundtrip_is_exact() {
        let entry = sample(0.0);
        let line = entry.to_json_line(0xfeed_f00d_dead_beef);
        assert!(!line.contains('\n'));
        let (key, back) = CachedTile::from_json_line(&line).unwrap();
        assert_eq!(key, 0xfeed_f00d_dead_beef);
        assert_eq!(back, entry);
        for cut in [1, line.len() / 2, line.len() - 1] {
            assert!(CachedTile::from_json_line(&line[..cut]).is_err());
        }
    }

    // ------------------------------------------------------ key property

    /// A 3000×2000 clip with two cells' worth of geometry; `shift` moves
    /// everything (content only — the partition grid stays put) by whole
    /// tiles.
    fn keyed_partition(dx: f64, dy: f64) -> crate::partition::Partition {
        let rects = vec![
            Polygon::rect(
                Point::new(100.0 + dx, 120.0 + dy),
                Point::new(300.0 + dx, 190.0 + dy),
            ),
            Polygon::rect(
                Point::new(400.0 + dx, 500.0 + dy),
                Point::new(800.0 + dx, 570.0 + dy),
            ),
        ];
        let clip = Clip::new("key-prop", 3000.0, 3000.0, rects);
        partition_clip(
            &clip,
            &TilingConfig {
                tile_size: 1000.0,
                halo: 100.0,
            },
        )
        .unwrap()
    }

    #[test]
    fn whole_grid_translation_preserves_the_key() {
        let tiling = TilingConfig {
            tile_size: 1000.0,
            halo: 100.0,
        };
        let config = OpcConfig::large_scale();
        let base = keyed_partition(0.0, 0.0);
        let k0 = tile_cache_key(&base.tiles[0], &tiling, &config);
        // Content translated by one and two whole tiles, in x, y and both:
        // the now-congruent tile must produce the identical key.
        for (sx, sy) in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0)] {
            let moved = keyed_partition(sx * 1000.0, sy * 1000.0);
            let congruent = &moved.tiles[(sy as usize) * moved.nx + sx as usize];
            assert_eq!(
                k0,
                tile_cache_key(congruent, &tiling, &config),
                "shift ({sx}, {sy}) tiles"
            );
            // And it is genuinely a different tile.
            assert_ne!(congruent.index, base.tiles[0].index);
        }
    }

    #[test]
    fn geometry_and_config_perturbations_change_the_key() {
        let tiling = TilingConfig {
            tile_size: 1000.0,
            halo: 100.0,
        };
        let config = OpcConfig::large_scale();
        let base = keyed_partition(0.0, 0.0);
        let k0 = tile_cache_key(&base.tiles[0], &tiling, &config);

        // Any sub-grid nudge of one rectangle is a different pattern.
        for nudge in [1.0, 0.5, 1e-9] {
            let moved = keyed_partition(nudge, 0.0);
            assert_ne!(
                k0,
                tile_cache_key(&moved.tiles[0], &tiling, &config),
                "nudge {nudge} nm"
            );
        }

        // A different (tile_size, halo) split of the same window size is
        // a different key: 1000+2·100 == 1100+2·50 == 1200 nm windows.
        let alt = TilingConfig {
            tile_size: 1100.0,
            halo: 50.0,
        };
        let clip = Clip::new(
            "key-prop",
            3000.0,
            3000.0,
            vec![Polygon::rect(
                Point::new(100.0, 120.0),
                Point::new(300.0, 190.0),
            )],
        );
        let p_alt = partition_clip(&clip, &alt).unwrap();
        assert_eq!(p_alt.tiles[0].clip.width(), 1200.0);
        assert_eq!(base.tiles[0].clip.width(), 1200.0);
        assert_ne!(
            tile_cache_key(&base.tiles[0], &tiling, &config),
            tile_cache_key(&p_alt.tiles[0], &alt, &config),
        );

        // Every single-field mutation the config walk generates changes
        // the key.
        OpcConfig::for_each_field_mutation(|field, config, changed| {
            assert_ne!(
                tile_cache_key(&base.tiles[0], &tiling, config),
                tile_cache_key(&base.tiles[0], &tiling, changed),
                "mutating {field} must change the cache key"
            );
        });
    }

    #[test]
    fn precision_separates_identical_designs_into_distinct_entries() {
        let tiling = TilingConfig {
            tile_size: 1000.0,
            halo: 100.0,
        };
        let base = keyed_partition(0.0, 0.0);
        let mut f64_config = OpcConfig::large_scale();
        f64_config.precision = cardopc_litho::Precision::F64;
        let mut f32_config = f64_config.clone();
        f32_config.precision = cardopc_litho::Precision::F32;

        // Same design, same tiling, same everything except precision: the
        // keys must differ — an f32 correction replayed into an f64 run
        // (or vice versa) would silently change results.
        let k64 = tile_cache_key(&base.tiles[0], &tiling, &f64_config);
        let k32 = tile_cache_key(&base.tiles[0], &tiling, &f32_config);
        assert_ne!(k64, k32);

        // And through the store: the second precision is a miss, not a
        // replay of the first, and both entries coexist.
        let cache = TileCache::open(&CacheConfig::default()).unwrap();
        let never = || false;
        let (_, hit64) = cache
            .get_or_correct(k64, &never, || ok_sample(1.0))
            .unwrap()
            .unwrap();
        let (_, hit32) = cache
            .get_or_correct(k32, &never, || ok_sample(2.0))
            .unwrap()
            .unwrap();
        assert!(!hit64 && !hit32, "each precision must correct its own tile");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));
    }

    // -------------------------------------------------------- store tests

    fn memory_cache() -> TileCache {
        TileCache::open(&CacheConfig::default()).unwrap()
    }

    fn ok_sample(seed: f64) -> Result<CachedTile, RuntimeError> {
        Ok(sample(seed))
    }

    #[test]
    fn get_or_correct_hits_after_miss() {
        let cache = memory_cache();
        let never = || false;
        let (first, hit) = cache
            .get_or_correct(7, &never, || ok_sample(0.0))
            .unwrap()
            .unwrap();
        assert!(!hit);
        let (second, hit) = cache
            .get_or_correct(7, &never, || -> Result<CachedTile, RuntimeError> {
                panic!("must not correct twice")
            })
            .unwrap()
            .unwrap();
        assert!(hit);
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.bytes > 0);
    }

    #[test]
    fn failed_leader_releases_the_key() {
        let cache = memory_cache();
        let never = || false;
        let err: Result<Option<_>, RuntimeError> =
            cache.get_or_correct(9, &never, || Err(RuntimeError::InvalidConfig("boom")));
        assert!(err.is_err());
        // The key is free again: the next caller corrects.
        let (_, hit) = cache
            .get_or_correct(9, &never, || ok_sample(1.0))
            .unwrap()
            .unwrap();
        assert!(!hit);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn panicking_leader_releases_the_key() {
        let cache = Arc::new(memory_cache());
        let never = || false;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_correct(11, &never, || -> Result<CachedTile, RuntimeError> {
                panic!("correction blew up")
            })
        }));
        assert!(unwound.is_err());
        // The in-flight marker went with the unwinding leader: a caller on
        // another thread claims the key instead of waiting forever on it.
        let claimed = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || cache.get_or_correct(11, &|| false, || ok_sample(1.0)))
        };
        let (_, hit) = claimed.join().unwrap().unwrap().unwrap();
        assert!(!hit);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn single_flight_corrects_once_across_threads() {
        use std::sync::atomic::AtomicUsize;
        let cache = Arc::new(memory_cache());
        let corrections = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let corrections = Arc::clone(&corrections);
            handles.push(std::thread::spawn(move || {
                let never = || false;
                let (value, _hit) = cache
                    .get_or_correct(42, &never, || {
                        corrections.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(30));
                        ok_sample(0.0)
                    })
                    .unwrap()
                    .unwrap();
                assert_eq!(*value, sample(0.0));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(corrections.load(Ordering::SeqCst), 1, "single flight");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn waiters_observe_cancellation() {
        let cache = Arc::new(memory_cache());
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Leader holds the key in flight until released.
        let leader = {
            let cache = Arc::clone(&cache);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                let never = || false;
                cache
                    .get_or_correct(5, &never, || {
                        while !release.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        ok_sample(0.0)
                    })
                    .unwrap();
            })
        };
        // A cancelled waiter gives up with Ok(None) while the leader is
        // still in flight.
        std::thread::sleep(Duration::from_millis(20));
        let cancelled = || true;
        let waited: Option<_> = cache
            .get_or_correct(5, &cancelled, || -> Result<CachedTile, RuntimeError> {
                panic!("waiter must not become leader while in flight")
            })
            .unwrap();
        assert!(waited.is_none());
        release.store(true, Ordering::SeqCst);
        leader.join().unwrap();
    }

    #[test]
    fn eviction_keeps_the_store_within_budget() {
        let cache = TileCache::open(&CacheConfig {
            max_entries: 4,
            ..CacheConfig::default()
        })
        .unwrap();
        let never = || false;
        for key in 0..20u64 {
            cache
                .get_or_correct(key, &never, || ok_sample(key as f64))
                .unwrap();
            // Keep key 0 hot so LRU must spare it.
            cache
                .get_or_correct(0, &never, || -> Result<CachedTile, RuntimeError> {
                    panic!("key 0 must stay resident")
                })
                .unwrap();
        }
        let stats = cache.stats();
        assert!(stats.entries <= 4, "entries {} > budget", stats.entries);
        assert_eq!(stats.evicted, 20 - stats.entries);
        assert_eq!(stats.misses, 20);

        // Byte budget alone also bounds the store.
        let line_bytes = sample(0.0).to_json_line(0).len() as u64 + 1;
        let tight = TileCache::open(&CacheConfig {
            max_bytes: 3 * line_bytes,
            ..CacheConfig::default()
        })
        .unwrap();
        for key in 0..10u64 {
            tight
                .get_or_correct(key, &never, || ok_sample(0.0))
                .unwrap();
        }
        let stats = tight.stats();
        assert!(stats.bytes <= 3 * line_bytes);
        assert!(stats.evicted >= 7);
    }

    #[test]
    fn persistence_survives_reopen_and_torn_tail() {
        let dir = tmp("persist");
        let _ = std::fs::remove_dir_all(&dir);
        let config = CacheConfig {
            dir: Some(dir.clone()),
            ..CacheConfig::default()
        };
        let never = || false;
        {
            let cache = TileCache::open(&config).unwrap();
            cache.get_or_correct(1, &never, || ok_sample(1.0)).unwrap();
            cache.get_or_correct(2, &never, || ok_sample(2.0)).unwrap();
        }
        // Simulate a kill mid-append: torn final line.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("cache.jsonl"))
                .unwrap();
            write!(f, "{}", &sample(9.0).to_json_line(3)[..25]).unwrap();
        }
        {
            let cache = TileCache::open(&config).unwrap();
            assert_eq!(cache.stats().entries, 2, "torn tail skipped");
            let (v, hit) = cache
                .get_or_correct(1, &never, || -> Result<CachedTile, RuntimeError> {
                    panic!("persisted entry must hit")
                })
                .unwrap()
                .unwrap();
            assert!(hit);
            assert_eq!(*v, sample(1.0));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_compacts_dead_lines() {
        let dir = tmp("compact");
        let _ = std::fs::remove_dir_all(&dir);
        let config = CacheConfig {
            dir: Some(dir.clone()),
            max_entries: 2,
            ..CacheConfig::default()
        };
        let never = || false;
        {
            let cache = TileCache::open(&config).unwrap();
            for key in 0..6u64 {
                cache
                    .get_or_correct(key, &never, || ok_sample(key as f64))
                    .unwrap();
            }
            assert_eq!(cache.stats().entries, 2);
            // The append-only file still carries all 6 lines.
            let text = std::fs::read_to_string(dir.join("cache.jsonl")).unwrap();
            assert_eq!(text.lines().count(), 6);
        }
        // Dropping compacted the file down to the live entries.
        let text = std::fs::read_to_string(dir.join("cache.jsonl")).unwrap();
        assert_eq!(text.lines().count(), 2);
        let reopened = TileCache::open(&config).unwrap();
        assert_eq!(reopened.stats().entries, 2);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_only_mode_never_writes_but_still_serves() {
        let dir = tmp("readonly");
        let _ = std::fs::remove_dir_all(&dir);
        let rw = CacheConfig {
            dir: Some(dir.clone()),
            ..CacheConfig::default()
        };
        let never = || false;
        {
            let cache = TileCache::open(&rw).unwrap();
            cache.get_or_correct(1, &never, || ok_sample(1.0)).unwrap();
        }
        let before = std::fs::read_to_string(dir.join("cache.jsonl")).unwrap();
        // A directory locked by this (live) process degrades to read-only.
        let holder = TileCache::open(&rw).unwrap();
        assert!(!holder.is_read_only());
        let lock = std::fs::read_to_string(dir.join("cache.lock")).unwrap();
        {
            let cache = TileCache::open(&rw).unwrap();
            assert!(cache.is_read_only());
            // Persisted entry hits; a new correction stays in memory.
            let (_, hit) = cache
                .get_or_correct(1, &never, || ok_sample(0.0))
                .unwrap()
                .unwrap();
            assert!(hit);
            let (_, hit) = cache
                .get_or_correct(2, &never, || ok_sample(2.0))
                .unwrap()
                .unwrap();
            assert!(!hit);
            let (_, hit) = cache
                .get_or_correct(2, &never, || -> Result<CachedTile, RuntimeError> {
                    panic!("in-memory entry must hit")
                })
                .unwrap()
                .unwrap();
            assert!(hit);
        }
        assert_eq!(
            std::fs::read_to_string(dir.join("cache.lock")).unwrap(),
            lock,
            "read-only takes no lock and leaves the holder's alone"
        );
        assert_eq!(
            before,
            std::fs::read_to_string(dir.join("cache.jsonl")).unwrap(),
            "read-only must not touch the file"
        );
        drop(holder);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_mode_has_no_directory_side_effects() {
        let cache = memory_cache();
        assert!(!cache.is_read_only());
        let never = || false;
        cache.get_or_correct(1, &never, || ok_sample(0.0)).unwrap();
        assert_eq!(cache.stats().entries, 1);
    }

    // ------------------------------------------------- byte compatibility

    /// Hashes of one fixed tile. The input hashes were captured at the
    /// commit *before* the config walk, the geometry walk and the payload
    /// codec were unified; the cache keys are those same walks under
    /// `KEY_VERSION` 6 (bumped to 2 when the band-limited SOCS pipeline,
    /// to 3 when the Hermitian-aware image passes, to 4 when sampling
    /// sparse tiles' images pixel by pixel, and to 5 when the AVX2 kernels
    /// stopped fusing `a*b + c` moved tile numerics in the last bits, and
    /// to 6 when the MRC resolver became a projection and moved corrected
    /// masks, so stores written by older binaries cannot replay). They pin
    /// hash input order and float
    /// canonicalisation: a moved byte here silently orphans every existing
    /// `tiles.jsonl` / `cache.jsonl`.
    #[test]
    fn golden_tile_hashes_are_unchanged() {
        use cardopc_litho::Precision::{F32, F64};
        let tiling = TilingConfig {
            tile_size: 1000.0,
            halo: 100.0,
        };
        let base = keyed_partition(0.0, 0.0);
        let tile = &base.tiles[0];
        let golden: [(OpcConfig, cardopc_litho::Precision, u64, u64); 6] = [
            (
                OpcConfig::via(),
                F64,
                0x787b2f0e0ea2a2b7,
                0x199255cfb57754d0,
            ),
            (
                OpcConfig::via(),
                F32,
                0x787b2e0e0ea2a104,
                0x199256cfb5775683,
            ),
            (
                OpcConfig::metal(),
                F64,
                0xc27c675ec289f7e2,
                0x1d3a02387f712845,
            ),
            (
                OpcConfig::metal(),
                F32,
                0xc27c685ec289f995,
                0x1d3a01387f712692,
            ),
            (
                OpcConfig::large_scale(),
                F64,
                0x551ff00f14209f36,
                0x087b4be52e1ec621,
            ),
            (
                OpcConfig::large_scale(),
                F32,
                0x551ff10f1420a0e9,
                0x087b4ae52e1ec46e,
            ),
        ];
        for (mut config, precision, input_hash, cache_key) in golden {
            config.precision = precision;
            assert_eq!(
                crate::checkpoint::tile_input_hash(tile, &config),
                input_hash,
                "input hash, {precision}"
            );
            assert_eq!(
                tile_cache_key(tile, &tiling, &config),
                cache_key,
                "cache key, {precision}"
            );
        }
    }

    /// The cache keys of that tile under `KEY_VERSION` 2, 4 and 5, in the
    /// golden's order: a store holding them was written with pre-Hermitian
    /// numerics (2), by a build whose AVX2 kernels fused `a*b + c` (4) or
    /// by the trial-move MRC resolver (5), and must not serve the tile any
    /// more.
    #[test]
    fn keys_written_under_version_2_miss() {
        use cardopc_litho::Precision::{F32, F64};
        let retired: [u64; 18] = [
            0x2fb3ecd6f93e2fe4,
            0x2fb3edd6f93e3197,
            0x733cc5bff25d93e1,
            0x733cc4bff25d922e,
            0x8002893e1a915ca5,
            0x8002883e1a915af2,
            0x3f3a3f12ad6fb6a6,
            0x3f3a4012ad6fb859,
            0xdd5b3f44581113e3,
            0xdd5b3e4458111230,
            0xf84d616ec820247b,
            0xf84d606ec82022c8,
            0x49f45946791d264b,
            0x49f45846791d2498,
            0xca95877995b6281e,
            0xca95887995b629d1,
            0xad7dbd2cae9fb30a,
            0xad7dbe2cae9fb4bd,
        ];
        let tiling = TilingConfig {
            tile_size: 1000.0,
            halo: 100.0,
        };
        let base = keyed_partition(0.0, 0.0);
        let cache = memory_cache();
        let never = || false;
        for key in retired {
            cache
                .get_or_correct(key, &never, || ok_sample(0.0))
                .unwrap();
        }
        let presets = [
            OpcConfig::via(),
            OpcConfig::metal(),
            OpcConfig::large_scale(),
        ];
        for mut config in presets {
            for precision in [F64, F32] {
                config.precision = precision;
                let key = tile_cache_key(&base.tiles[0], &tiling, &config);
                let (_, hit) = cache
                    .get_or_correct(key, &never, || ok_sample(1.0))
                    .unwrap()
                    .unwrap();
                assert!(!hit, "{precision}: a retired entry replayed");
            }
        }
        assert_eq!(cache.stats().hits, 0);
    }

    /// One `cache.jsonl` line as the parent commit wrote it: it must still
    /// parse, and re-encode to the same bytes.
    #[test]
    fn golden_cache_line_is_unchanged() {
        let golden = concat!(
            r#"{"v":1,"key":"feedf00ddeadbeef","owned_epe":[3,1.5],"epe":[6,2],"#,
            r#""metrics":{"shapes":2,"owned":1,"epe_sum_nm":4.25,"epe_violations":0,"#,
            r#""pvb_nm2":512,"mrc_initial":0,"mrc_remaining":0},"seconds":0.75,"#,
            r#""shapes":[{"t":0,"tension":0.6,"cps":[1.25,2,3,4.5]},"#,
            r#"{"t":null,"tension":0.6,"cps":[0.5,0.25,0.125,9]}]}"#,
        );
        let (key, entry) = CachedTile::from_json_line(golden).unwrap();
        assert_eq!(key, 0xfeed_f00d_dead_beef);
        assert_eq!(entry, sample(0.0));
        assert_eq!(entry.to_json_line(key), golden);
    }
}
