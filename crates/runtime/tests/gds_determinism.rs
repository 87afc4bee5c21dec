//! The GDS round-trip determinism contract (ISSUE 10 acceptance):
//!
//! GDS read → correct → GDS write → re-read is geometry-identical to the
//! in-memory run, and the written mask bytes are identical across worker
//! counts, cache cold/warm, and a checkpoint resume.

use cardopc_layout::{
    generated_clip, read_gds_clip, write_clip_gds, Clip, DesignKind, TARGET_LAYER,
};
use cardopc_litho::WorkerPool;
use cardopc_opc::OpcConfig;
use cardopc_runtime::{
    run_clip_controlled, write_mask_gds, CacheConfig, MaskGdsOptions, RunConfig, RunControl,
    TileCache, TilingConfig, MASK_NM_PER_DBU,
};
use std::path::PathBuf;

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cardopc-gdsdet-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opc() -> OpcConfig {
    let mut opc = OpcConfig::large_scale();
    opc.pitch = 16.0;
    opc.iterations = 2;
    opc
}

fn config(run_dir: Option<PathBuf>, max_tiles: Option<usize>) -> RunConfig {
    RunConfig {
        opc: opc(),
        tiling: TilingConfig {
            tile_size: 512.0,
            halo: 256.0,
        },
        run_dir,
        max_tiles,
    }
}

/// Corrects `clip` and serialises the stitched mask; panics when the run
/// was left incomplete (callers resume first).
fn corrected_mask_bytes(clip: &Clip, config: &RunConfig, pool: &WorkerPool) -> Vec<u8> {
    corrected_mask_bytes_controlled(clip, config, pool, &RunControl::default())
}

fn corrected_mask_bytes_controlled(
    clip: &Clip,
    config: &RunConfig,
    pool: &WorkerPool,
    control: &RunControl<'_>,
) -> Vec<u8> {
    let outcome = run_clip_controlled(clip, config, pool, control).unwrap();
    let stitched = outcome.stitched.expect("run completed");
    write_mask_gds(&stitched, clip.name(), &MaskGdsOptions::default()).unwrap()
}

#[test]
fn mask_bytes_are_identical_across_workers_cache_and_resume() {
    let dir = tempdir("matrix");
    let clip = generated_clip(DesignKind::Gcd, 1, Some(1024.0));

    // The design goes through a GDS file once — everything downstream
    // corrects the *re-read* clip, as a real ingestion would.
    let gds_path = dir.join("design.gds");
    std::fs::write(&gds_path, write_clip_gds(&clip, TARGET_LAYER, 0).unwrap()).unwrap();
    let ingested = read_gds_clip(
        &gds_path,
        cardopc_gds::LayerFilter::Layer(TARGET_LAYER),
        None,
    )
    .unwrap();

    let baseline = corrected_mask_bytes(&ingested, &config(None, None), &WorkerPool::new(1));

    // Worker count must not show in the bytes.
    let wide = corrected_mask_bytes(&ingested, &config(None, None), &WorkerPool::new(3));
    assert_eq!(baseline, wide, "worker count changed the mask bytes");

    // Cache cold, then fully warm, against the same store.
    let cache = TileCache::open(&CacheConfig {
        dir: Some(dir.join("cache")),
    })
    .unwrap();
    let control = RunControl {
        cache: Some(&cache),
        ..RunControl::default()
    };
    let pool = WorkerPool::new(2);
    let cold = corrected_mask_bytes_controlled(&ingested, &config(None, None), &pool, &control);
    let warm = corrected_mask_bytes_controlled(&ingested, &config(None, None), &pool, &control);
    assert_eq!(baseline, cold, "cold cache changed the mask bytes");
    assert_eq!(baseline, warm, "cache replay changed the mask bytes");

    // Interrupt after 2 tiles, then resume from the checkpoint.
    let run_dir = dir.join("resume");
    let partial = run_clip_controlled(
        &ingested,
        &config(Some(run_dir.clone()), Some(2)),
        &pool,
        &RunControl::default(),
    )
    .unwrap();
    assert!(!partial.complete && partial.stitched.is_none());
    let resumed = run_clip_controlled(
        &ingested,
        &config(Some(run_dir), None),
        &pool,
        &RunControl::default(),
    )
    .unwrap();
    assert!(resumed.manifest.resumed > 0, "resume skipped nothing");
    let resumed_mask = write_mask_gds(
        &resumed.stitched.unwrap(),
        ingested.name(),
        &MaskGdsOptions::default(),
    )
    .unwrap();
    assert_eq!(baseline, resumed_mask, "resume changed the mask bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gds_ingestion_is_geometry_identical_to_the_in_memory_run() {
    let dir = tempdir("geom");
    let clip = generated_clip(DesignKind::Gcd, 1, Some(1024.0));
    let gds_path = dir.join("design.gds");
    std::fs::write(&gds_path, write_clip_gds(&clip, TARGET_LAYER, 0).unwrap()).unwrap();
    let ingested = read_gds_clip(
        &gds_path,
        cardopc_gds::LayerFilter::Layer(TARGET_LAYER),
        None,
    )
    .unwrap();

    // The generator snaps to integer nm, so the 1 nm/dbu GDS grid is
    // exact and the clips agree to the bit — as do their corrections.
    assert_eq!(clip.name(), ingested.name());
    assert_eq!(clip.targets().len(), ingested.targets().len());
    let pool = WorkerPool::new(2);
    let direct = corrected_mask_bytes(&clip, &config(None, None), &pool);
    let through_gds = corrected_mask_bytes(&ingested, &config(None, None), &pool);
    assert_eq!(direct, through_gds, "GDS ingestion changed the correction");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn written_mask_re_reads_to_the_stitched_geometry() {
    let dir = tempdir("reread");
    let clip = generated_clip(DesignKind::Gcd, 1, Some(1024.0));
    let outcome = run_clip_controlled(
        &clip,
        &config(None, None),
        &WorkerPool::new(2),
        &RunControl::default(),
    )
    .unwrap();
    let stitched = outcome.stitched.unwrap();
    let options = MaskGdsOptions::default();
    let bytes = write_mask_gds(&stitched, clip.name(), &options).unwrap();

    let lib = cardopc_gds::parse_lib(&bytes).unwrap();
    assert_eq!(lib.nm_per_dbu(), MASK_NM_PER_DBU);
    let mains = cardopc_gds::flatten(
        &lib,
        clip.name(),
        cardopc_gds::LayerFilter::Layer(2),
        cardopc_gds::FlattenLimits::default(),
    )
    .unwrap();
    assert_eq!(mains.len(), stitched.mains.len());

    // Each re-read polygon matches its source spline's sampled contour
    // to within half a mask database unit (0.005 nm).
    for (shape, flat) in stitched.mains.iter().zip(mains.iter()) {
        let spline =
            cardopc_spline::CardinalSpline::closed(shape.control_points.clone(), shape.tension)
                .unwrap();
        let sampled = spline.to_polygon(options.samples_per_segment);
        let got = flat.polygon.vertices();
        assert_eq!(got.len(), sampled.vertices().len());
        for (a, b) in got.iter().zip(sampled.vertices()) {
            assert!((a.x - b.x).abs() <= 0.005 && (a.y - b.y).abs() <= 0.005);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
