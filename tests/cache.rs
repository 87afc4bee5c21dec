//! Integration tests of the content-addressed tile correction cache.
//!
//! The clip is a strictly periodic row of one cell: interior tile windows
//! are translations of each other, so their canonical cache keys collide
//! and the scheduler replays the stored correction instead of re-running
//! it. The headline assertions: a run served (partly or fully) from the
//! cache produces a timing-free manifest and stitched mask **byte
//! identical** to an uncached run — across worker counts, across a
//! process boundary (drop + reopen of the persisted store), and across a
//! checkpoint resume.

use cardopc::geometry::{Point, Polygon};
use cardopc::layout::Clip;
use cardopc::litho::WorkerPool;
use cardopc::opc::OpcConfig;
use cardopc::runtime::{
    run_clip, run_clip_controlled, CacheConfig, RunConfig, RunControl, RunOutcome, TileCache,
    TilingConfig,
};
use std::path::PathBuf;

/// A 4096×1024 nm clip holding the same two-wire cell once per 1024 nm
/// period. With 1024 nm tiles + 512 nm halo the partition is 4×1; the two
/// interior tiles see unclamped 2048 nm windows whose contents are exact
/// translations of each other — one unique interior pattern, corrected
/// once. (The 0.5 nm offset keeps wire edges off the rasteriser's
/// sub-scanlines, as in the runtime tests.)
fn periodic_clip() -> Clip {
    let mut targets = Vec::new();
    for i in 0..4 {
        let dx = i as f64 * 1024.0;
        targets.push(Polygon::rect(
            Point::new(dx + 300.5, 220.5),
            Point::new(dx + 380.5, 700.5),
        ));
        targets.push(Polygon::rect(
            Point::new(dx + 460.5, 220.5),
            Point::new(dx + 700.5, 300.5),
        ));
    }
    Clip::new("periodic-row", 4096.0, 1024.0, targets)
}

fn config() -> OpcConfig {
    let mut c = OpcConfig::large_scale();
    c.pitch = 16.0;
    c.iterations = 3;
    c.mrc = None;
    c
}

fn run_config() -> RunConfig {
    RunConfig::new(
        config(),
        TilingConfig {
            tile_size: 1024.0,
            halo: 512.0,
        },
    )
}

fn run_cached(clip: &Clip, cfg: &RunConfig, workers: usize, cache: &TileCache) -> RunOutcome {
    let pool = WorkerPool::new(workers);
    let control = RunControl {
        cache: Some(cache),
        ..RunControl::default()
    };
    run_clip_controlled(clip, cfg, &pool, &control).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cardopc-cache-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_same_output(cached: &RunOutcome, baseline: &RunOutcome) {
    assert_eq!(
        cached.manifest.to_json(false),
        baseline.manifest.to_json(false),
        "timing-free manifests must be byte-identical"
    );
    assert_eq!(
        cached.stitched.as_ref().unwrap().mains,
        baseline.stitched.as_ref().unwrap().mains
    );
    assert_eq!(
        cached.stitched.as_ref().unwrap().srafs,
        baseline.stitched.as_ref().unwrap().srafs
    );
}

#[test]
fn cached_runs_are_byte_identical_across_cache_states_and_workers() {
    let clip = periodic_clip();
    let cfg = run_config();
    let baseline = run_clip(&clip, &cfg, &WorkerPool::new(2)).unwrap();
    assert!(baseline.complete);
    assert_eq!(baseline.manifest.cache_hits, 0);

    let dir = temp_dir("identity");
    let cache_cfg = CacheConfig {
        dir: Some(dir.clone()),
    };

    // Cold run: the two congruent interior tiles collapse to one
    // correction — the second is already a hit within the same run.
    let cold_cache = TileCache::open(&cache_cfg).unwrap();
    let cold = run_cached(&clip, &cfg, 2, &cold_cache);
    assert!(cold.complete);
    assert_eq!(cold.manifest.cache_hits + cold.manifest.cache_misses, 4);
    assert!(
        cold.manifest.cache_hits >= 1,
        "congruent interior tiles must share an entry (hits {})",
        cold.manifest.cache_hits
    );
    assert_same_output(&cold, &baseline);

    // Drop persists the store; reopening simulates a later process. The
    // warm run replays every tile, on a different worker count.
    drop(cold_cache);
    let warm_cache = TileCache::open(&cache_cfg).unwrap();
    let warm = run_cached(&clip, &cfg, 1, &warm_cache);
    assert!(warm.complete);
    assert_eq!(warm.manifest.cache_hits, 4, "warm run must be all hits");
    assert_eq!(warm.manifest.cache_misses, 0);
    assert_same_output(&warm, &baseline);

    drop(warm_cache);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cached_resume_reproduces_uninterrupted_run() {
    let clip = periodic_clip();
    let baseline = run_clip(&clip, &run_config(), &WorkerPool::new(2)).unwrap();

    let dir = temp_dir("resume");
    let cache = TileCache::open(&CacheConfig {
        dir: Some(dir.join("cache")),
    })
    .unwrap();

    // "Kill" a cached run after 2 of 4 tiles via the tile budget…
    let mut cfg = run_config();
    cfg.run_dir = Some(dir.join("run"));
    cfg.max_tiles = Some(2);
    let partial = run_cached(&clip, &cfg, 2, &cache);
    assert!(!partial.complete);
    assert_eq!(partial.manifest.executed, 2);

    // …then resume against the same checkpoint and cache: checkpointed
    // tiles are resumed (not re-fetched), the rest come from the cache or
    // a fresh correction, and the result matches the uncached baseline.
    cfg.max_tiles = None;
    let resumed = run_cached(&clip, &cfg, 2, &cache);
    assert!(resumed.complete);
    assert_eq!(resumed.manifest.resumed, 2);
    assert_eq!(resumed.manifest.executed, 2);
    assert_same_output(&resumed, &baseline);

    drop(cache);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn read_only_and_memory_caches_degrade_gracefully() {
    let clip = periodic_clip();
    let cfg = run_config();
    let baseline = run_clip(&clip, &cfg, &WorkerPool::new(2)).unwrap();

    // A read-only cache over an empty store — opened while another cache
    // holds the directory's lock: nothing to serve from disk, nothing
    // written to disk, results unchanged.
    let dir = temp_dir("readonly");
    let config = CacheConfig {
        dir: Some(dir.clone()),
    };
    let holder = TileCache::open(&config).unwrap();
    let ro = TileCache::open(&config).unwrap();
    assert!(ro.is_read_only());
    let outcome = run_cached(&clip, &cfg, 2, &ro);
    assert_same_output(&outcome, &baseline);
    drop(ro);
    assert_eq!(
        std::fs::read_to_string(dir.join("cache.jsonl")).unwrap(),
        "",
        "read-only caches must not write the store file"
    );
    drop(holder);
    std::fs::remove_dir_all(&dir).unwrap();

    // A purely in-memory cache behaves the same within one run.
    let memory = TileCache::open(&CacheConfig::default()).unwrap();
    let outcome = run_cached(&clip, &cfg, 2, &memory);
    assert!(outcome.manifest.cache_hits >= 1);
    assert_same_output(&outcome, &baseline);
}
