//! Scaling benchmark of the fleet coordinator, dispatched over the real
//! wire path (TCP + HTTP + JSON) against a single-process runtime
//! reference, on the two shapes a job can have: 16 unique tiles sharded
//! across 1 / 2 / 4 worker servers (one tile per request), and a 32×32
//! array of one cell across 1 / 2 (1024 tiles in 9 classes — runs of
//! congruent tiles per request).
//!
//! Workers are spawned fresh per iteration — a reused worker would
//! answer repeat dispatches from its checkpoint map and the bench would
//! measure replay, not correction. The run also asserts the fleet
//! manifest is byte-identical to the single-process manifest, so a
//! determinism regression fails the bench outright.

use cardopc::fleet::spec::DesignSpec;
use cardopc::fleet::worker::{WorkerConfig, WorkerServer};
use cardopc::fleet::{client, proto, run_fleet, FleetConfig, FleetStats, WorkSpec};
use cardopc::geometry::{Point, Polygon};
use cardopc::layout::{write_clip_gds, Clip, DesignKind, LayerFilter, TARGET_LAYER};
use cardopc::litho::WorkerPool;
use cardopc::opc::OpcConfig;
use cardopc::runtime::{
    run_clip, run_clip_controlled, CacheConfig, RunConfig, RunControl, TileCache, TilingConfig,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// 2048 nm gcd crop, 512 nm tiles + 256 nm halo → 4×4 = 16 tiles of
/// 1024 nm windows on 64² grids at pitch 16.
fn spec() -> WorkSpec {
    let mut opc = OpcConfig::large_scale();
    opc.pitch = 16.0;
    opc.iterations = 3;
    WorkSpec {
        design: DesignSpec::generated(DesignKind::Gcd, 1, Some(2048.0)),
        tiling: TilingConfig {
            tile_size: 512.0,
            halo: 256.0,
        },
        opc,
    }
}

/// Edge of the array job, in cells (= tiles).
const ARRAY_N: usize = 32;

/// A flat 32×32 array of a two-wire cell at a 1024 nm step (the
/// design-to-mask benchmark's cell), written next to the other temp files
/// and tiled 1024 + 512 at the CLI's pitch and iteration count: 1024
/// tiles, 9 patterns.
fn array_spec() -> (std::path::PathBuf, WorkSpec) {
    const STEP: f64 = 1024.0;
    let mut wires = Vec::new();
    for row in 0..ARRAY_N {
        for col in 0..ARRAY_N {
            let at = |x: f64, y: f64| Point::new(col as f64 * STEP + x, row as f64 * STEP + y);
            wires.push(Polygon::rect(at(160.0, 256.0), at(864.0, 326.0)));
            wires.push(Polygon::rect(at(160.0, 640.0), at(640.0, 710.0)));
        }
    }
    let edge = ARRAY_N as f64 * STEP;
    let clip = Clip::new("array", edge, edge, wires);
    let name = format!("cardopc-fleet-bench-array-{}.gds", std::process::id());
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, write_clip_gds(&clip, TARGET_LAYER, 0).unwrap()).unwrap();
    let spec = WorkSpec {
        design: DesignSpec::gds(path.clone(), LayerFilter::Layer(TARGET_LAYER), None),
        tiling: TilingConfig {
            tile_size: STEP,
            halo: 512.0,
        },
        opc: OpcConfig::large_scale(),
    };
    (path, spec)
}

/// One distributed run on `n` fresh workers; returns the timing-free
/// manifest for the byte-identity assertion, and the dispatch counters.
fn fleet_run(spec: &WorkSpec, n: usize) -> (String, FleetStats) {
    let workers: Vec<WorkerServer> = (0..n)
        .map(|_| WorkerServer::start(WorkerConfig::default()).unwrap())
        .collect();
    let config = FleetConfig {
        workers: workers.iter().map(|w| w.local_addr()).collect(),
        ..FleetConfig::default()
    };
    let outcome = run_fleet(spec, &config, &RunControl::default()).unwrap();
    assert!(outcome.complete, "fleet bench run must finish every tile");
    (outcome.manifest.to_json(false), outcome.stats)
}

/// The array job in one process, cold, with the in-memory tile cache the
/// CLI attaches by default (9 corrections, 1015 replays).
fn array_single_process(spec: &WorkSpec, pool: &WorkerPool) -> String {
    let cache = TileCache::open(&CacheConfig::default()).unwrap();
    let control = RunControl {
        cache: Some(&cache),
        ..RunControl::default()
    };
    let config = RunConfig::new(spec.opc.clone(), spec.tiling);
    let outcome =
        run_clip_controlled(&spec.build_clip().unwrap(), &config, pool, &control).unwrap();
    assert!(outcome.complete);
    outcome.manifest.to_json(false)
}

fn bench_array(c: &mut Criterion, pool: &WorkerPool) {
    let (path, spec) = array_spec();
    let baseline = array_single_process(&spec, pool);
    let (manifest, stats) = fleet_run(&spec, 2);
    assert_eq!(manifest, baseline, "array fleet manifest diverged");
    assert_eq!(stats.dispatched, ARRAY_N * ARRAY_N);

    let mut group = c.benchmark_group("array_32x32");
    group.sample_size(5);
    group.bench_function("single_process", |b| {
        b.iter(|| black_box(array_single_process(&spec, pool).len()))
    });
    for n in [1usize, 2] {
        group.bench_function(format!("workers_{n}"), |b| {
            b.iter(|| black_box(fleet_run(&spec, n).0.len()))
        });
    }
    group.finish();
    println!(
        "array_32x32: {} tiles in {} requests over the wire; manifests byte-identical \
         to single-process",
        stats.dispatched, stats.requests
    );
    let _ = std::fs::remove_file(path);
}

fn bench_fleet_scaling(c: &mut Criterion) {
    let spec = spec();

    // The determinism contract, checked before any timing: distributed
    // and single-process manifests are the same bytes.
    let pool = WorkerPool::new(2);
    let direct = run_clip(
        &spec.build_clip().unwrap(),
        &RunConfig::new(spec.opc.clone(), spec.tiling),
        &pool,
    )
    .unwrap();
    assert!(direct.complete);
    let baseline = direct.manifest.to_json(false);
    assert_eq!(fleet_run(&spec, 2).0, baseline, "fleet manifest diverged");

    let mut group = c.benchmark_group("fleet_scaling_4x4");
    group.sample_size(2);
    group.bench_function("single_process", |b| {
        b.iter(|| {
            black_box(
                run_clip(
                    &spec.build_clip().unwrap(),
                    &RunConfig::new(spec.opc.clone(), spec.tiling),
                    &pool,
                )
                .unwrap()
                .manifest
                .executed,
            )
        })
    });
    for n in [1usize, 2, 4] {
        group.bench_function(format!("workers_{n}"), |b| {
            b.iter(|| black_box(fleet_run(&spec, n).0.len()))
        });
    }
    group.finish();

    println!(
        "fleet_scaling_4x4: 16 tiles over the wire; manifests byte-identical \
         to single-process for every worker count"
    );

    bench_array(c, &pool);
    report_dispatch_overhead(&spec);
}

/// Measures the pure per-tile dispatch tax — the wire round-trip with no
/// correction attached — by re-dispatching an already-checkpointed tile,
/// which the worker answers from its checkpoint map.
///
/// Two client modes: a fresh TCP connection per request (the coordinator's
/// pre-keep-alive behaviour) and one kept-alive connection reused across
/// requests (what dispatch lanes do now). The gap between the two is the
/// connect/teardown cost the keep-alive lanes removed.
fn report_dispatch_overhead(spec: &WorkSpec) {
    use std::time::{Duration, Instant};

    let worker = WorkerServer::start(WorkerConfig::default()).unwrap();
    let addr = worker.local_addr();
    let body = proto::dispatch_body(spec, 0);
    let timeout = Duration::from_secs(30);

    // Prime: correct tile 0 once so every timed dispatch replays the
    // checkpoint instead of recomputing.
    let primed = client::request_with_timeout(addr, "POST", "/v1/tiles", Some(&body), timeout)
        .expect("prime dispatch failed");
    assert_eq!(primed.status, 200, "{}", primed.body_str());

    const ROUNDS: u32 = 200;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        let r = client::request_with_timeout(addr, "POST", "/v1/tiles", Some(&body), timeout)
            .expect("one-shot dispatch failed");
        assert_eq!(r.status, 200);
    }
    let per_connect = start.elapsed().as_secs_f64() * 1e3 / f64::from(ROUNDS);

    let mut connection = client::Connection::new(addr);
    let start = Instant::now();
    for _ in 0..ROUNDS {
        let r = connection
            .request_with_timeout("POST", "/v1/tiles", Some(&body), timeout)
            .expect("keep-alive dispatch failed");
        assert_eq!(r.status, 200);
    }
    let per_keepalive = start.elapsed().as_secs_f64() * 1e3 / f64::from(ROUNDS);
    assert_eq!(
        connection.reused(),
        u64::from(ROUNDS) - 1,
        "keep-alive lane must reuse its stream"
    );

    println!(
        "fleet dispatch overhead ({ROUNDS} checkpoint-replay round-trips): \
         {per_connect:.3} ms/tile fresh-connection, {per_keepalive:.3} ms/tile keep-alive \
         ({:.1}% of the fresh-connection tax removed)",
        (1.0 - per_keepalive / per_connect) * 100.0
    );
}

criterion_group!(benches, bench_fleet_scaling);
criterion_main!(benches);
