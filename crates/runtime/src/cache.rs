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
//! Concurrency: one `Mutex` over the store and one `Condvar`, sized to
//! the traffic (one lookup per tile: 4,096 on the benchmark's array, 9
//! of them misses). Lookups are **single-flight**: the first thread to
//! miss a key installs an in-flight marker and corrects outside the lock;
//! concurrent requesters of the key block on the condvar until the leader
//! publishes (they receive a hit) or drops its claim (the first becomes
//! the next leader). The claim is a drop guard, so a failed or panicking
//! leader releases it too. Waiters are scheduler pool threads; the pool's
//! nested-run protocol keeps a blocked submitter draining its own queue,
//! so a waiter can never deadlock the leader's litho work.
//!
//! Eviction mirrors the serve layer's terminal-job retention: constant
//! budgets (65,536 entries, 256 MiB of lines), least-recently-hit first.
//!
//! Persistence is the checkpoint file discipline, through the same
//! helpers: an append-only `cache.jsonl` of self-describing lines (a torn
//! final line from a killed process parses as garbage and is skipped; the
//! last line per key wins), a `cache.lock` PID file with stale-lock
//! reclaim, and an atomic compaction rewrite on drop when the file has
//! accumulated dead lines.
//! A directory locked by a live process degrades to a read-only open (the
//! store is still consulted and new corrections are kept in memory for
//! the run, just not written back); [`TileCache::open_exclusive`] refuses
//! it instead, for a process whose store must be its own.

use crate::checkpoint::{StitchedShape, TileMetrics};
use crate::store::{acquire_pid_lock, append_lines, load_jsonl, open_append, write_atomic};
use crate::RuntimeError;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Live entries kept before LRU eviction.
const MAX_ENTRIES: u64 = 65_536;

/// Live bytes (serialised-line accounting) kept before LRU eviction.
const MAX_BYTES: u64 = 256 * 1024 * 1024;

pub use crate::hash::{tile_cache_key, tile_cache_keys};

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
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CacheConfig {
    /// Backing directory; `None` keeps the cache in memory only (still
    /// shared across jobs within the process).
    pub dir: Option<PathBuf>,
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

/// Everything the one lock guards.
struct Store {
    slots: HashMap<u64, Slot>,
    /// Recency clock for LRU eviction.
    tick: u64,
    stats: CacheStats,
    /// Append handle to `cache.jsonl`; `None` in memory-only or
    /// read-only mode.
    writer: Option<std::fs::File>,
    /// Bytes currently in the backing file (live + dead lines), used to
    /// decide whether dropping should compact.
    file_bytes: u64,
    max_entries: u64,
    max_bytes: u64,
}

impl Store {
    fn insert(&mut self, key: u64, value: Arc<CachedTile>, bytes: u64) {
        let entry = Entry {
            value,
            bytes,
            last_hit: self.tick,
        };
        self.tick += 1;
        self.slots.insert(key, Slot::Ready(entry));
        self.stats.entries += 1;
        self.stats.bytes += bytes;
    }

    /// Best-effort append of one entry line to the backing file. A write
    /// failure degrades the cache to memory-only behaviour for that
    /// entry; it never fails the correction.
    fn persist(&mut self, line: &str) {
        if let Some(file) = &mut self.writer {
            match append_lines(file, &[line]) {
                Ok(()) => self.file_bytes += line.len() as u64 + 1,
                Err(e) => {
                    eprintln!("cardopc: tile cache append failed ({e}); entry kept in memory")
                }
            }
        }
    }

    /// Every live entry's line, least recently hit first, as JSONL: the
    /// order a reload takes for recency.
    fn entry_lines(&self) -> String {
        let mut live: Vec<(u64, u64, &CachedTile)> = self
            .slots
            .iter()
            .filter_map(|(key, slot)| match slot {
                Slot::Ready(entry) => Some((entry.last_hit, *key, &*entry.value)),
                Slot::InFlight => None,
            })
            .collect();
        live.sort_unstable_by_key(|(tick, ..)| *tick);
        let line = |(_, key, value): (u64, u64, &CachedTile)| value.to_json_line(key) + "\n";
        live.into_iter().map(line).collect()
    }

    /// Evicts least-recently-hit entries until the store fits its entry
    /// and byte budgets. In-flight keys are never evicted.
    fn enforce_budget(&mut self) {
        while self.stats.entries > self.max_entries || self.stats.bytes > self.max_bytes {
            let victim = self
                .slots
                .iter()
                .filter_map(|(key, slot)| match slot {
                    Slot::Ready(entry) => Some((entry.last_hit, *key)),
                    Slot::InFlight => None,
                })
                .min();
            // Nothing evictable (everything in flight).
            let Some((_, key)) = victim else { return };
            if let Some(Slot::Ready(entry)) = self.slots.remove(&key) {
                self.stats.entries -= 1;
                self.stats.bytes -= entry.bytes;
                self.stats.evicted += 1;
            }
        }
    }
}

/// The shared, bounded, content-addressed tile store. See the module docs
/// for the full design.
pub struct TileCache {
    store: Mutex<Store>,
    /// Signalled whenever an in-flight key is published or released.
    settled: Condvar,
    dir: Option<PathBuf>,
    /// Owned `cache.lock`, removed on drop.
    lock: Option<PathBuf>,
    read_only: bool,
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
        TileCache::open_bounded(config, MAX_ENTRIES, MAX_BYTES, true)
    }

    /// [`TileCache::open`], but a directory another live process holds is
    /// refused — before its file is read, with nothing printed — instead
    /// of opened read-only: the open of a process whose store must be its
    /// own (a fleet worker's run directory).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Locked`] for a held directory; otherwise as
    /// [`TileCache::open`].
    pub fn open_exclusive(config: &CacheConfig) -> Result<TileCache, RuntimeError> {
        TileCache::open_bounded(config, MAX_ENTRIES, MAX_BYTES, false)
    }

    /// [`TileCache::open`] (`shared`) or [`TileCache::open_exclusive`]
    /// under explicit budgets (the eviction tests' small stores).
    pub(crate) fn open_bounded(
        config: &CacheConfig,
        max_entries: u64,
        max_bytes: u64,
        shared: bool,
    ) -> Result<TileCache, RuntimeError> {
        let mut cache = TileCache {
            store: Mutex::new(Store {
                slots: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
                writer: None,
                file_bytes: 0,
                max_entries,
                max_bytes,
            }),
            settled: Condvar::new(),
            dir: None,
            lock: None,
            read_only: false,
        };
        let Some(dir) = &config.dir else {
            return Ok(cache);
        };
        std::fs::create_dir_all(dir)
            .map_err(|e| RuntimeError::Io(format!("create {}: {e}", dir.display())))?;
        match acquire_pid_lock(dir, "cache.lock") {
            Ok(path) => cache.lock = Some(path),
            Err(RuntimeError::Locked { path, pid }) if shared => {
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
        let store = cache
            .store
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        store.file_bytes = file_bytes;
        for ((key, value), bytes) in lines {
            // A later line for the same key replaces the earlier one.
            if let Some(Slot::Ready(old)) = store.slots.remove(&key) {
                store.stats.entries -= 1;
                store.stats.bytes -= old.bytes;
            }
            store.insert(key, Arc::new(value), bytes);
        }
        if !cache.read_only {
            store.writer = Some(open_append(&path)?);
        }
        store.enforce_budget();
        cache.dir = Some(dir.clone());
        Ok(cache)
    }

    /// Whether the backing store is write-protected: another live process
    /// held `cache.lock` when this cache opened, so it serves the file's
    /// entries and keeps new ones in memory only.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Every live entry's line (`cache.jsonl`'s own lines), least
    /// recently hit first, as JSONL.
    pub fn entry_lines(&self) -> String {
        self.lock().entry_lines()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Looks `key` up, correcting-and-inserting on a miss with
    /// single-flight de-duplication: concurrent callers of an in-flight
    /// key block until the leader publishes and then share its value as a
    /// hit. The boolean is `true` for a hit. A failed leader propagates
    /// its error and releases the key, so the next caller retries.
    ///
    /// # Errors
    ///
    /// Whatever `correct` returns; failures are never cached.
    pub fn get_or_correct<E>(
        &self,
        key: u64,
        correct: impl FnOnce() -> Result<CachedTile, E>,
    ) -> Result<(Arc<CachedTile>, bool), E> {
        let mut store = self.lock();
        loop {
            let Store {
                slots, tick, stats, ..
            } = &mut *store;
            match slots.get_mut(&key) {
                Some(Slot::Ready(entry)) => {
                    entry.last_hit = *tick;
                    *tick += 1;
                    stats.hits += 1;
                    return Ok((Arc::clone(&entry.value), true));
                }
                Some(Slot::InFlight) => {
                    store = self
                        .settled
                        .wait(store)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                None => {
                    slots.insert(key, Slot::InFlight);
                    break;
                }
            }
        }
        drop(store);

        // This caller is the leader for `key`. If `correct` fails or
        // panics, dropping `lead` releases the key to the next caller.
        let lead = Leader { cache: self, key };
        let value = Arc::new(correct()?);
        let line = value.to_json_line(key);
        let mut store = self.lock();
        store.insert(key, Arc::clone(&value), line.len() as u64 + 1);
        store.stats.misses += 1;
        store.persist(&line);
        store.enforce_budget();
        drop(store);
        // The marker is gone, replaced by the value, so the claim has only
        // waiters to wake: by now the key may be evicted and claimed by a
        // new leader, whose marker the guard must not remove.
        std::mem::forget(lead);
        self.settled.notify_all();
        Ok((value, false))
    }

    fn lock(&self) -> MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The in-flight claim on a key, held by the caller correcting it.
/// Dropping it — on a failed correction, or while unwinding from a
/// panicking one — removes its marker and wakes the key's waiters, so a
/// fault in one leader can never park every later requester of that
/// pattern. A leader that publishes forgets the claim instead.
struct Leader<'a> {
    cache: &'a TileCache,
    key: u64,
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        let mut store = self.cache.lock();
        if let Some(Slot::InFlight) = store.slots.get(&self.key) {
            store.slots.remove(&self.key);
        }
        drop(store);
        self.cache.settled.notify_all();
    }
}

impl Drop for TileCache {
    fn drop(&mut self) {
        // Compact the backing file when it carries dead weight (evicted
        // or superseded lines). `&mut self` means no other user.
        let store = self.store.get_mut().unwrap_or_else(PoisonError::into_inner);
        let dead_weight = store.file_bytes > store.stats.bytes;
        if let (Some(dir), true, true) = (&self.dir, store.writer.is_some(), dead_weight) {
            // Best effort: a failed compaction leaves the (valid,
            // merely larger) append-only file in place.
            let _ = write_atomic(&dir.join("cache.jsonl"), &store.entry_lines());
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
        let (_, hit64) = cache.get_or_correct(k64, || ok_sample(1.0)).unwrap();
        let (_, hit32) = cache.get_or_correct(k32, || ok_sample(2.0)).unwrap();
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
        let (first, hit) = cache.get_or_correct(7, || ok_sample(0.0)).unwrap();
        assert!(!hit);
        let (second, hit) = cache
            .get_or_correct(7, || -> Result<CachedTile, RuntimeError> {
                panic!("must not correct twice")
            })
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
        let err: Result<_, RuntimeError> =
            cache.get_or_correct(9, || Err(RuntimeError::InvalidConfig("boom")));
        assert!(err.is_err());
        // The key is free again: the next caller corrects.
        let (_, hit) = cache.get_or_correct(9, || ok_sample(1.0)).unwrap();
        assert!(!hit);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn panicking_leader_releases_the_key() {
        let cache = Arc::new(memory_cache());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_correct(11, || -> Result<CachedTile, RuntimeError> {
                panic!("correction blew up")
            })
        }));
        assert!(unwound.is_err());
        // The in-flight marker went with the unwinding leader: a caller on
        // another thread claims the key instead of waiting forever on it.
        let claimed = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || cache.get_or_correct(11, || ok_sample(1.0)))
        };
        let (_, hit) = claimed.join().unwrap().unwrap();
        assert!(!hit);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn single_flight_corrects_once_across_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = Arc::new(memory_cache());
        let corrections = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let corrections = Arc::clone(&corrections);
            handles.push(std::thread::spawn(move || {
                let (value, _hit) = cache
                    .get_or_correct(42, || {
                        corrections.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        ok_sample(0.0)
                    })
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
    fn eviction_keeps_the_store_within_budget() {
        let cache = TileCache::open_bounded(&CacheConfig::default(), 4, MAX_BYTES, true).unwrap();
        for key in 0..20u64 {
            cache.get_or_correct(key, || ok_sample(key as f64)).unwrap();
            // Keep key 0 hot so LRU must spare it.
            cache
                .get_or_correct(0, || -> Result<CachedTile, RuntimeError> {
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
        let tight =
            TileCache::open_bounded(&CacheConfig::default(), MAX_ENTRIES, 3 * line_bytes, true)
                .unwrap();
        for key in 0..10u64 {
            tight.get_or_correct(key, || ok_sample(0.0)).unwrap();
        }
        let stats = tight.stats();
        assert!(stats.bytes <= 3 * line_bytes);
        assert!(stats.evicted >= 7);
    }

    /// What one seeded burst of concurrent lookups did.
    struct Traffic {
        /// Successful corrections per key.
        corrected: Vec<usize>,
        /// Lookups per key that returned a value.
        answered: Vec<u64>,
    }

    /// `threads` std threads each make 24 lookups of keys drawn from
    /// `0..keys`. A lookup that leads fails one time in five and panics
    /// one time in ten (seeded per thread), and succeeds otherwise. After
    /// every lookup the thread checks that the store is within its entry
    /// budget.
    fn seeded_traffic(cache: &Arc<TileCache>, seed: u64, threads: u64, keys: u64) -> Traffic {
        use cardopc_geometry::SplitMix64;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let corrected: Arc<Vec<AtomicUsize>> =
            Arc::new((0..keys).map(|_| AtomicUsize::new(0)).collect());
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cache = Arc::clone(cache);
                let corrected = Arc::clone(&corrected);
                std::thread::spawn(move || {
                    let mut rng = SplitMix64::new(seed ^ (t + 1).wrapping_mul(0x9e37_79b9));
                    let mut answered = vec![0u64; keys as usize];
                    for _ in 0..24 {
                        let key = rng.next_u64() % keys;
                        let fate = rng.next_u64() % 10;
                        let lookup = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            cache.get_or_correct(key, || {
                                std::thread::yield_now();
                                match fate {
                                    0 | 1 => Err(RuntimeError::InvalidConfig("seeded failure")),
                                    2 => panic!("seeded panic"),
                                    _ => {
                                        corrected[key as usize].fetch_add(1, Ordering::SeqCst);
                                        ok_sample(key as f64)
                                    }
                                }
                            })
                        }));
                        if let Ok(Ok(_)) = lookup {
                            answered[key as usize] += 1;
                        }
                        let stats = cache.stats();
                        let budget = cache.lock().max_entries;
                        assert!(stats.entries <= budget, "{} > {budget}", stats.entries);
                    }
                    answered
                })
            })
            .collect();
        let mut answered = vec![0u64; keys as usize];
        for handle in handles {
            for (sum, n) in answered.iter_mut().zip(handle.join().unwrap()) {
                *sum += n;
            }
        }
        let corrected = corrected.iter().map(|n| n.load(Ordering::SeqCst)).collect();
        Traffic {
            corrected,
            answered,
        }
    }

    /// The live entries' line bytes, recomputed from the store.
    fn live_line_bytes(cache: &TileCache) -> (u64, u64) {
        let store = cache.lock();
        let ready = store.slots.iter().filter_map(|(key, slot)| match slot {
            Slot::Ready(entry) => Some(entry.value.to_json_line(*key).len() as u64 + 1),
            Slot::InFlight => None,
        });
        ready.fold((0, 0), |(n, bytes), b| (n + 1, bytes + b))
    }

    proptest::proptest! {
        /// Single flight under seeded concurrent traffic with failing and
        /// panicking leaders: each key's successful correction runs exactly
        /// once, every answered lookup is one hit or one miss, and no
        /// in-flight marker outlives the burst. Under a small entry budget
        /// the byte count is the live entries' line bytes and the entry
        /// count never exceeds the budget.
        #[test]
        fn single_flight_and_budget_hold_under_seeded_traffic(
            seed in 0u64..1_000_000,
            threads in 1u64..9,
            keys in 1u64..7,
            budget in 1u64..6,
        ) {
            let cache = Arc::new(memory_cache());
            let traffic = seeded_traffic(&cache, seed, threads, keys);
            for (key, (&corrected, &answered)) in
                traffic.corrected.iter().zip(&traffic.answered).enumerate()
            {
                proptest::prop_assert_eq!(corrected, usize::from(answered > 0), "key {}", key);
            }
            let stats = cache.stats();
            let answered: u64 = traffic.answered.iter().sum();
            proptest::prop_assert_eq!(stats.hits + stats.misses, answered);
            proptest::prop_assert_eq!(stats.misses as usize, traffic.corrected.iter().sum::<usize>());
            proptest::prop_assert_eq!((stats.entries, stats.bytes), live_line_bytes(&cache));
            proptest::prop_assert_eq!(cache.lock().slots.len() as u64, stats.entries);

            let small = Arc::new(
                TileCache::open_bounded(&CacheConfig::default(), budget, MAX_BYTES, true).unwrap(),
            );
            let traffic = seeded_traffic(&small, seed, threads, keys);
            let stats = small.stats();
            let answered: u64 = traffic.answered.iter().sum();
            proptest::prop_assert_eq!(stats.hits + stats.misses, answered);
            proptest::prop_assert!(stats.entries <= budget);
            proptest::prop_assert_eq!(stats.misses, stats.entries + stats.evicted);
            proptest::prop_assert_eq!((stats.entries, stats.bytes), live_line_bytes(&small));
        }
    }

    #[test]
    fn persistence_survives_reopen_and_torn_tail() {
        let dir = tmp("persist");
        let _ = std::fs::remove_dir_all(&dir);
        let config = CacheConfig {
            dir: Some(dir.clone()),
        };
        {
            let cache = TileCache::open(&config).unwrap();
            cache.get_or_correct(1, || ok_sample(1.0)).unwrap();
            cache.get_or_correct(2, || ok_sample(2.0)).unwrap();
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
                .get_or_correct(1, || -> Result<CachedTile, RuntimeError> {
                    panic!("persisted entry must hit")
                })
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
        };
        let listed = {
            let cache = TileCache::open_bounded(&config, 2, MAX_BYTES, true).unwrap();
            for key in 0..6u64 {
                cache.get_or_correct(key, || ok_sample(key as f64)).unwrap();
            }
            assert_eq!(cache.stats().entries, 2);
            // The append-only file still carries all 6 lines.
            let text = std::fs::read_to_string(dir.join("cache.jsonl")).unwrap();
            assert_eq!(text.lines().count(), 6);
            // A hit puts key 4 behind key 5: the listing goes by recency.
            cache.get_or_correct(4, || ok_sample(-1.0)).unwrap();
            let line = |key: u64| sample(key as f64).to_json_line(key) + "\n";
            assert_eq!(cache.entry_lines(), line(5) + &line(4));
            cache.entry_lines()
        };
        // Dropping compacted the file down to the live entries: the listing.
        let text = std::fs::read_to_string(dir.join("cache.jsonl")).unwrap();
        assert_eq!(text, listed);
        let reopened = TileCache::open_bounded(&config, 2, MAX_BYTES, true).unwrap();
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
        };
        {
            let cache = TileCache::open(&rw).unwrap();
            cache.get_or_correct(1, || ok_sample(1.0)).unwrap();
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
            let (_, hit) = cache.get_or_correct(1, || ok_sample(0.0)).unwrap();
            assert!(hit);
            let (_, hit) = cache.get_or_correct(2, || ok_sample(2.0)).unwrap();
            assert!(!hit);
            let (_, hit) = cache
                .get_or_correct(2, || -> Result<CachedTile, RuntimeError> {
                    panic!("in-memory entry must hit")
                })
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
    fn exclusive_open_refuses_a_held_directory_before_reading_it() {
        let dir = tmp("exclusive");
        let _ = std::fs::remove_dir_all(&dir);
        let config = CacheConfig {
            dir: Some(dir.clone()),
        };
        let holder = TileCache::open_exclusive(&config).unwrap();
        assert!(!holder.is_read_only());
        // An unreadable store file: any open that reads it fails on it.
        let file = dir.join("cache.jsonl");
        std::fs::rename(&file, dir.join("moved.jsonl")).unwrap();
        std::fs::create_dir(&file).unwrap();
        assert!(matches!(TileCache::open(&config), Err(RuntimeError::Io(_))));
        match TileCache::open_exclusive(&config) {
            Err(RuntimeError::Locked { pid, .. }) => assert_eq!(pid, std::process::id()),
            other => panic!("expected Locked, got {other:?}"),
        }
        std::fs::remove_dir(&file).unwrap();
        std::fs::rename(dir.join("moved.jsonl"), &file).unwrap();
        drop(holder);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_mode_has_no_directory_side_effects() {
        let cache = memory_cache();
        assert!(!cache.is_read_only());
        cache.get_or_correct(1, || ok_sample(0.0)).unwrap();
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
        for key in retired {
            cache.get_or_correct(key, || ok_sample(0.0)).unwrap();
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
                let (_, hit) = cache.get_or_correct(key, || ok_sample(1.0)).unwrap();
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
