//! Integration tests of the tiled full-chip runtime.
//!
//! Equivalence: tiling with a halo big enough that every tile's window
//! contains the whole mask, with pixel-aligned window origins and the same
//! grid size as the monolithic engine, makes each tile's raster an exact
//! cyclic shift of the monolithic raster. FFT circular convolution is
//! shift-equivariant, so tiled correction must reproduce the monolithic
//! flow up to floating-point reassociation (~1e-12); the tests assert
//! agreement within 1e-6.

use cardopc::geometry::Point;
use cardopc::layout::{large_tile, Clip, DesignKind};
use cardopc::litho::WorkerPool;
use cardopc::opc::{CardOpc, OpcConfig};
use cardopc::runtime as rt;
use cardopc::runtime::{run_clip, RunConfig, RunOutcome, TilingConfig};

#[path = "support/resume.rs"]
mod resume;

/// A 2048×2048 nm clip whose content (a real crop of the synthetic gcd
/// metal tile) sits entirely inside [624, 1424]² — within every tile
/// window of a 2×2, tile 1024 nm + halo 512 nm partition.
fn centered_clip() -> Clip {
    let tile = large_tile(DesignKind::Gcd, 0);
    // Real gcd wires are mostly longer than the 800 nm content budget, so
    // take the first six short ones and re-place them on a 140 nm track
    // grid inside [640, 1424]² — same geometry class, bounded extent.
    let shapes: Vec<_> = tile
        .targets()
        .iter()
        .filter(|t| t.bbox().width() <= 760.0)
        .take(6)
        .enumerate()
        .map(|(i, t)| {
            // The 0.5 nm offset keeps every straight wire edge 1.5 nm away
            // from the rasteriser's sub-scanlines (even integers at pitch
            // 16), so the 1-ulp coordinate noise from translating tile
            // windows can never flip a scanline-crossing test.
            let slot = Point::new(640.5, 650.5 + i as f64 * 140.0);
            t.translated(slot - t.bbox().min)
        })
        .collect();
    assert_eq!(shapes.len(), 6, "gcd tile must have short wires");
    Clip::new("gcd-center", 2048.0, 2048.0, shapes)
}

/// Pitch 16 keeps both the monolithic clip and the 2048 nm tile windows on
/// 128² grids (fast enough for debug-mode tests) and divides the 512 nm
/// window origins exactly (pixel alignment).
fn config(iterations: usize) -> OpcConfig {
    let mut c = OpcConfig::large_scale();
    c.pitch = 16.0;
    c.iterations = iterations;
    c.mrc = None;
    c
}

fn tiling() -> TilingConfig {
    TilingConfig {
        tile_size: 1024.0,
        halo: 512.0,
    }
}

fn run_tiled(clip: &Clip, iterations: usize, workers: usize) -> RunOutcome {
    let pool = WorkerPool::new(workers);
    run_clip(clip, &RunConfig::new(config(iterations), tiling()), &pool).unwrap()
}

#[test]
fn tiled_run_matches_monolithic_within_1e6() {
    let clip = centered_clip();
    let iterations = 5;
    let monolithic = CardOpc::new(config(iterations)).run(&clip).unwrap();
    let tiled = run_tiled(&clip, iterations, 2);

    assert!(tiled.complete);
    let stitched = tiled.stitched.as_ref().unwrap();
    assert_eq!(tiled.manifest.nx, 2);
    assert_eq!(tiled.manifest.ny, 2);
    assert_eq!(stitched.mains.len(), clip.targets().len());
    assert_eq!(stitched.srafs.len(), 0);

    // Aggregated owned EPE history reproduces the monolithic history.
    assert_eq!(
        tiled.manifest.epe_history.len(),
        monolithic.epe_history.len()
    );
    for (iter, (t, m)) in tiled
        .manifest
        .epe_history
        .iter()
        .zip(&monolithic.epe_history)
        .enumerate()
    {
        assert!(
            (t - m).abs() <= 1e-6,
            "iteration {iter}: tiled {t} vs monolithic {m}"
        );
    }

    // Every corrected control point reproduces the monolithic position.
    for (i, main) in stitched.mains.iter().enumerate() {
        assert_eq!(main.global_id, Some(i));
        let reference = monolithic.shapes[i].spline.control_points();
        assert_eq!(main.control_points.len(), reference.len(), "shape {i}");
        for (a, b) in main.control_points.iter().zip(reference) {
            assert!(
                (a.x - b.x).abs() <= 1e-6 && (a.y - b.y).abs() <= 1e-6,
                "shape {i}: tiled ({}, {}) vs monolithic ({}, {})",
                a.x,
                a.y,
                b.x,
                b.y
            );
        }
    }
}

#[test]
fn tiled_run_is_deterministic_across_worker_counts() {
    let clip = centered_clip();
    let one = run_tiled(&clip, 3, 1);
    let four = run_tiled(&clip, 3, 4);

    // Bit-identical outputs, not merely close: scheduling order must not
    // leak into results.
    assert_eq!(
        one.stitched.as_ref().unwrap().mains,
        four.stitched.as_ref().unwrap().mains
    );
    assert_eq!(one.manifest.epe_history, four.manifest.epe_history);
    assert_eq!(one.manifest.to_json(false), four.manifest.to_json(false));
}

/// The f32 backend end to end — `cardopc --quick --precision f32`, in
/// process: the timing-free manifest is byte-identical whatever the worker
/// count (the image's pixel bits depend on neither the task split nor,
/// since columns pair up canonically, on who asked for which columns).
#[test]
fn f32_quick_run_is_byte_identical_across_worker_counts() {
    use cardopc::layout::generated_clip;
    use cardopc::litho::Precision;

    let clip = generated_clip(DesignKind::Gcd, 1, Some(2048.0));
    let mut opc = OpcConfig::large_scale();
    (opc.pitch, opc.iterations, opc.precision) = (8.0, 4, Precision::F32);
    let run = |workers: usize| {
        let pool = WorkerPool::new(workers);
        run_clip(&clip, &RunConfig::new(opc.clone(), tiling()), &pool).unwrap()
    };
    let (one, two) = (run(1), run(2));
    assert!(one.complete && two.complete);
    assert_eq!(one.manifest.tiles.len(), 4);
    assert_eq!(one.manifest.to_json(false), two.manifest.to_json(false));
    assert_eq!(
        one.stitched.as_ref().unwrap().mains,
        two.stitched.as_ref().unwrap().mains
    );
}

#[test]
fn checkpoint_resume_reproduces_uninterrupted_run() {
    let clip = centered_clip();
    let iterations = 3;
    let pool = WorkerPool::new(2);
    let base = std::env::temp_dir().join(format!("cardopc-runtime-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let interrupted_dir = base.join("interrupted");
    let fresh_dir = base.join("fresh");

    // "Kill" a run after 2 of 4 tiles via the tile budget.
    let mut cfg = RunConfig::new(config(iterations), tiling());
    cfg.run_dir = Some(interrupted_dir.clone());
    cfg.max_tiles = Some(2);
    let partial = run_clip(&clip, &cfg, &pool).unwrap();
    assert!(!partial.complete);
    assert_eq!(partial.manifest.executed, 2);
    assert_eq!(partial.manifest.remaining, 2);
    assert!(partial.stitched.is_none());
    assert!(
        !interrupted_dir.join("manifest.json").exists(),
        "partial runs must not publish a manifest"
    );

    // Resume to completion: the 2 checkpointed tiles are not re-executed.
    cfg.max_tiles = None;
    let resumed = run_clip(&clip, &cfg, &pool).unwrap();
    assert!(resumed.complete);
    assert_eq!(resumed.manifest.resumed, 2);
    assert_eq!(resumed.manifest.executed, 2);
    assert!(interrupted_dir.join("manifest.json").exists());

    // An uninterrupted run in a fresh directory.
    let mut fresh_cfg = RunConfig::new(config(iterations), tiling());
    fresh_cfg.run_dir = Some(fresh_dir.clone());
    let fresh = run_clip(&clip, &fresh_cfg, &pool).unwrap();
    assert!(fresh.complete);
    assert_eq!(fresh.manifest.resumed, 0);

    // The input-determined manifest is byte-identical.
    assert_eq!(
        resumed.manifest.to_json(false),
        fresh.manifest.to_json(false)
    );
    assert_eq!(
        resumed.stitched.as_ref().unwrap().mains,
        fresh.stitched.as_ref().unwrap().mains
    );

    // Running again over a complete checkpoint executes nothing at all.
    let noop = run_clip(&clip, &cfg, &pool).unwrap();
    assert_eq!(noop.manifest.executed, 0);
    assert_eq!(noop.manifest.resumed, 4);
    assert_eq!(noop.manifest.to_json(false), fresh.manifest.to_json(false));

    std::fs::remove_dir_all(&base).unwrap();
}

/// Cross-mode resume, local first: the pool corrects two tiles into a run
/// dir, the fleet coordinator finishes the run from it, and nothing tells
/// the result from an uninterrupted local run.
#[test]
fn fleet_finishes_a_run_the_local_pool_started() {
    use cardopc::fleet::{
        run_fleet, DesignSpec, FleetConfig, WorkSpec, WorkerConfig, WorkerServer,
    };
    use cardopc::runtime::{run_clip_controlled, RunControl};

    let mut opc = OpcConfig::large_scale();
    (opc.pitch, opc.iterations) = (16.0, 3);
    let spec = WorkSpec {
        design: DesignSpec::generated(DesignKind::Gcd, 1, Some(1024.0)),
        tiling: TilingConfig {
            tile_size: 512.0,
            halo: 256.0,
        },
        opc,
    };
    let clip = spec.build_clip().unwrap();
    let pool = WorkerPool::new(2);
    let run_dir = std::env::temp_dir().join(format!("cardopc-cross-local-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    let mut config = RunConfig::new(spec.opc.clone(), spec.tiling);
    let reference = run_clip(&clip, &config, &pool).unwrap();

    let log = resume::EventLog::default();
    let progress = |event: &rt::TileEvent| log.push(event);
    let control = RunControl {
        progress: Some(&progress),
        ..RunControl::default()
    };
    config.run_dir = Some(run_dir.clone());
    config.max_tiles = Some(2);
    let partial = run_clip_controlled(&clip, &config, &pool, &control).unwrap();
    assert!(!partial.complete);
    resume::assert_progress(&log, 0, 2, 4);

    let workers: Vec<WorkerServer> = (0..2)
        .map(|_| WorkerServer::start(WorkerConfig::default()).unwrap())
        .collect();
    let fleet = FleetConfig {
        workers: workers.iter().map(WorkerServer::local_addr).collect(),
        run_dir: Some(run_dir.clone()),
        ..FleetConfig::default()
    };
    let finished = run_fleet(&spec, &fleet, &control).unwrap();
    assert_eq!(finished.stats.dispatched, 2, "{:?}", finished.stats);
    resume::assert_finished_like(&reference, &finished.into(), &run_dir, (2, 2), &log);
    std::fs::remove_dir_all(&run_dir).unwrap();
}
