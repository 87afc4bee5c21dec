//! End-to-end fleet tests over real TCP sockets: byte-identity of the
//! distributed manifest against the single-process runtime, and the
//! failure modes that justify the fleet's existence — hung workers
//! (lease expiry → re-dispatch), crashed workers (heartbeat retirement),
//! work-steal duplicate races (first result wins), and coordinator
//! restarts recovering finished tiles from workers' checkpoints. Every
//! scenario runs on two specs: four unique tiles (a class of one per
//! request) and an array of repeated cells (one request per class of
//! congruent tiles).

use cardopc_fleet::client::HttpResponse;
use cardopc_fleet::http::{self, ReadOutcome, Response};
use cardopc_fleet::proto::parse_dispatch;
use cardopc_fleet::spec::DesignSpec;
use cardopc_fleet::worker::{WorkerConfig, WorkerServer};
use cardopc_fleet::{client, run_fleet, FleetConfig, FleetError, WorkSpec};
use cardopc_geometry::{Point, Polygon};
use cardopc_layout::{write_clip_gds, Clip, DesignKind, LayerFilter, TARGET_LAYER};
use cardopc_litho::WorkerPool;
use cardopc_opc::OpcConfig;
use cardopc_runtime as rt;
use cardopc_runtime::{
    run_clip_controlled, CacheConfig, CachedTile, Placement, RunConfig, RunControl, RuntimeError,
    StitchedShape, StoreLine, TileCache, TileLine, TilingConfig,
};
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[path = "../../../tests/support/http_roles.rs"]
mod http_roles;
#[path = "../../../tests/support/resume.rs"]
mod resume;

/// The serve smoke spec: 1024 nm gcd crop, 512 nm tiles + 256 nm halo →
/// 2×2 tiles of 1024 nm windows on 64² grids at pitch 16.
fn spec() -> WorkSpec {
    let mut opc = OpcConfig::large_scale();
    opc.pitch = 16.0;
    opc.iterations = 3;
    WorkSpec {
        design: DesignSpec::generated(DesignKind::Gcd, 1, Some(1024.0)),
        tiling: TilingConfig {
            tile_size: 512.0,
            halo: 256.0,
        },
        opc,
    }
}

/// A GDS design written for one test and removed when the test ends.
struct DesignFile(PathBuf);

impl DesignFile {
    fn write(tag: &str, clip: &Clip) -> DesignFile {
        let name = format!("cardopc-fleet-{tag}-{}.gds", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, write_clip_gds(clip, TARGET_LAYER, 0).unwrap()).unwrap();
        DesignFile(path)
    }

    /// The job over this file: `tile` nm cores + `halo`, pitch 16, 3
    /// iterations (the [`spec`] settings).
    fn spec(&self, tile: f64, halo: f64) -> WorkSpec {
        WorkSpec {
            design: DesignSpec::gds(self.0.clone(), LayerFilter::Layer(TARGET_LAYER), None),
            tiling: TilingConfig {
                tile_size: tile,
                halo,
            },
            ..spec()
        }
    }
}

impl Drop for DesignFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Columns × rows of the array design, its tile count, and its classes of
/// congruent tiles.
const ARRAY: (usize, usize) = (70, 3);
const ARRAY_TILES: usize = ARRAY.0 * ARRAY.1;
const ARRAY_CLASSES: usize = 9;
/// Dispatch requests the array job takes when nothing goes wrong: one per
/// class.
const ARRAY_REQUESTS: usize = ARRAY_CLASSES;
/// The heads (lowest indices) of the array's classes, in first-seen order:
/// per row, its first tile, its interior run of 68 and its last tile.
const ARRAY_HEADS: [usize; ARRAY_CLASSES] = [0, 1, 69, 70, 71, 139, 140, 141, 209];
/// Tiles in each of the array's three multi-tile classes.
const ARRAY_RUN: usize = ARRAY.0 - 2;

/// Whether `head` names one of the array's 68-tile classes.
fn heads_a_run(head: usize) -> bool {
    head % ARRAY.0 == 1
}

/// A 70×3 array of a two-wire cell at a 1024 nm step, tiled 1024 + 512:
/// 210 tiles in 9 classes of congruent windows (a row's two ends and its
/// 68 interior tiles, per row).
fn array_design(tag: &str) -> (DesignFile, WorkSpec) {
    const STEP: f64 = 1024.0;
    let mut wires = Vec::new();
    for row in 0..ARRAY.1 {
        for col in 0..ARRAY.0 {
            let at = |x: f64, y: f64| Point::new(col as f64 * STEP + x, row as f64 * STEP + y);
            wires.push(Polygon::rect(at(160.0, 256.0), at(864.0, 326.0)));
            wires.push(Polygon::rect(at(160.0, 640.0), at(640.0, 710.0)));
        }
    }
    let (width, height) = (ARRAY.0 as f64 * STEP, ARRAY.1 as f64 * STEP);
    let file = DesignFile::write(tag, &Clip::new("array", width, height, wires));
    let spec = file.spec(STEP, 512.0);
    (file, spec)
}

/// The same spec corrected by the single-process runtime — the
/// byte-identity baseline every fleet manifest is compared against. (With
/// a tile cache, so the array corrects its 9 patterns, not its 210 tiles;
/// cold ≡ warm is the cache's own contract.)
fn direct_manifest(spec: &WorkSpec) -> String {
    let clip = spec.build_clip().unwrap();
    let pool = WorkerPool::new(2);
    let cache = TileCache::open(&CacheConfig::default()).unwrap();
    let control = RunControl {
        cache: Some(&cache),
        ..RunControl::default()
    };
    let config = RunConfig::new(spec.opc.clone(), spec.tiling);
    let outcome = run_clip_controlled(&clip, &config, &pool, &control).unwrap();
    assert!(outcome.complete);
    outcome.manifest.to_json(false)
}

fn worker() -> WorkerServer {
    WorkerServer::start(WorkerConfig::default()).unwrap()
}

/// A fleet config tuned for tests: short lease/steal/heartbeat so
/// failure handling happens in test time, not production time.
fn fast_config(workers: Vec<SocketAddr>) -> FleetConfig {
    FleetConfig {
        workers,
        lease: Duration::from_secs(30),
        steal_after: Duration::from_millis(200),
        heartbeat: Duration::from_millis(100),
        heartbeat_timeout: Duration::from_millis(300),
        max_failures: 2,
        ..FleetConfig::default()
    }
}

/// An address that accepts connections and never answers — a hung
/// worker. Held streams keep the peer blocked until its IO timeout.
fn hung_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for stream in listener.incoming() {
            match stream {
                Ok(s) => held.push(s),
                Err(_) => break,
            }
        }
    });
    addr
}

/// An address that refuses connections — a crashed worker.
fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap()
    // Listener dropped: the port now refuses connections.
}

/// A raw `Content-Length`-framed 200 answer.
fn framed(body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 200 OK\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A man in the middle in front of `backend`. Health probes and record
/// harvests pass straight through; for every `POST /v1/tiles`, `meddle`
/// gets the request body and a way to fetch the backend's honest answer,
/// and returns the raw bytes the coordinator is to receive (none at all:
/// the connection just drops, as when a worker is killed mid-request).
fn proxy(
    backend: SocketAddr,
    meddle: impl Fn(&str, &dyn Fn() -> HttpResponse) -> Vec<u8> + Send + Sync + 'static,
) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let meddle = Arc::new(meddle);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let meddle = Arc::clone(&meddle);
            std::thread::spawn(move || {
                let ReadOutcome::Request(request) = http::read_request(&mut stream) else {
                    return;
                };
                let body = request.body_str().unwrap_or("");
                let forward = || {
                    client::request_with_timeout(
                        backend,
                        &request.method,
                        &request.path,
                        Some(body),
                        Duration::from_secs(120),
                    )
                    .unwrap()
                };
                let answer = if request.path == "/v1/tiles" {
                    meddle(body, &forward)
                } else {
                    framed(&forward().body_str())
                };
                let _ = stream.write_all(&answer);
            });
        }
    });
    addr
}

/// A proxy that delays the answers to the dispatches `slow` picks (by the
/// tile they name) by `delay` — a slow worker whose leases age enough to
/// get stolen from.
fn slow_proxy(backend: SocketAddr, delay: Duration, slow: fn(usize) -> bool) -> SocketAddr {
    proxy(backend, move |request, forward| {
        let answer = forward();
        if slow(parse_dispatch(request).unwrap().1) {
            std::thread::sleep(delay);
        }
        framed(&answer.body_str())
    })
}

/// A proxy that holds every dispatch to `backend` until `open` is set.
fn gated_proxy(backend: SocketAddr, open: Arc<AtomicBool>) -> SocketAddr {
    proxy(backend, move |_, forward| {
        while !open.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5));
        }
        framed(&forward().body_str())
    })
}

/// Runs `spec` on `n` fresh workers with default settings.
fn run_on_fresh_workers(spec: &WorkSpec, n: usize) -> cardopc_fleet::FleetOutcome {
    let workers: Vec<WorkerServer> = (0..n).map(|_| worker()).collect();
    let config = FleetConfig {
        workers: workers.iter().map(WorkerServer::local_addr).collect(),
        ..FleetConfig::default()
    };
    run_fleet(spec, &config, &RunControl::default()).unwrap()
}

/// The entry and tile lines of a checkpoint, counted — after checking that
/// each line re-encodes to itself, that no key's entry and no tile appears
/// twice, and that every tile line's entry is there.
fn canonical_lines(text: &str) -> (usize, usize) {
    let (mut keys, mut tiles, mut named) = (HashSet::new(), HashSet::new(), Vec::new());
    for line in text.lines() {
        match StoreLine::parse(line).unwrap() {
            StoreLine::Entry(key, entry) => {
                assert_eq!(entry.to_json_line(key), line);
                assert!(keys.insert(key), "entry {key:016x} twice");
            }
            StoreLine::Tile(tile) => {
                assert_eq!(tile.to_json_line(), line, "tile {}", tile.index);
                assert!(tiles.insert(tile.index), "tile {} twice", tile.index);
                named.push(tile.key);
            }
        }
    }
    assert!(
        named.iter().all(|k| keys.contains(k)),
        "a tile line lacks its entry"
    );
    (keys.len(), tiles.len())
}

/// A store's entry lines, and its tile lines with `seconds` zeroed (the
/// one field a coordinator and a local run may differ in), each sorted.
fn split_store(text: &str) -> (Vec<String>, Vec<String>) {
    let (mut entries, mut tiles) = (Vec::new(), Vec::new());
    for line in text.lines() {
        match StoreLine::parse(line).unwrap() {
            StoreLine::Entry(..) => entries.push(line.to_string()),
            StoreLine::Tile(mut tile) => {
                tile.seconds = 0.0;
                tiles.push(tile.to_json_line());
            }
        }
    }
    entries.sort();
    tiles.sort();
    (entries, tiles)
}

/// The keys of the entry lines a worker lists in `GET /v1/records`.
fn listed_keys(addr: SocketAddr) -> Vec<u64> {
    let listing = records(addr);
    let key = |line: &str| CachedTile::from_json_line(line).unwrap().0;
    listing.lines().map(key).collect()
}

/// The entry lines a worker lists in `GET /v1/records`.
fn records(addr: SocketAddr) -> String {
    let response = client::get(addr, "/v1/records").unwrap();
    assert_eq!(response.status, 200);
    response.body_str()
}

/// A worker run directory for one test, emptied.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cardopc-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `tiles_done` of a worker's `/healthz`.
fn tiles_done(worker: &WorkerServer) -> usize {
    let health = client::get(worker.local_addr(), "/healthz").unwrap();
    let health = health.json().unwrap();
    health.get("tiles_done").unwrap().as_usize().unwrap()
}

#[test]
fn two_workers_match_single_process_byte_for_byte() {
    let spec = spec();
    let (w1, w2) = (worker(), worker());
    let config = FleetConfig {
        workers: vec![w1.local_addr(), w2.local_addr()],
        ..FleetConfig::default()
    };

    // Progress events must be monotonic and reach the partition size.
    let completed = std::sync::atomic::AtomicUsize::new(0);
    let progress = |event: &cardopc_runtime::TileEvent| {
        let prev = completed.swap(event.completed, std::sync::atomic::Ordering::SeqCst);
        assert!(event.completed > prev, "non-monotonic progress");
        assert_eq!(event.total, 4);
    };
    let control = RunControl {
        progress: Some(&progress),
        ..RunControl::default()
    };

    let outcome = run_fleet(&spec, &config, &control).unwrap();
    assert!(outcome.complete);
    assert_eq!(outcome.outcome.executed, 4);
    assert_eq!(outcome.outcome.resumed, 0);
    assert_eq!(completed.load(std::sync::atomic::Ordering::SeqCst), 4);
    assert!(outcome.stats.dispatched >= 4);
    assert!(outcome.stitched.is_some());
    assert_eq!(outcome.manifest.to_json(false), direct_manifest(&spec));
}

#[test]
fn hung_worker_loses_its_leases_and_the_fleet_still_finishes() {
    let spec = spec();
    let good = worker();
    // Short lease: dispatches to the hung worker time out quickly.
    let mut config = fast_config(vec![hung_addr(), good.local_addr()]);
    config.lease = Duration::from_millis(600);

    let outcome = run_fleet(&spec, &config, &RunControl::default()).unwrap();
    assert!(outcome.complete);
    assert_eq!(outcome.stats.retired_workers, 1, "{:?}", outcome.stats);
    assert!(
        outcome.stats.redispatched + outcome.stats.stolen >= 1,
        "hung worker's tiles must be re-dispatched or stolen: {:?}",
        outcome.stats
    );
    assert_eq!(outcome.manifest.to_json(false), direct_manifest(&spec));
}

#[test]
fn crashed_worker_is_retired_by_connection_failures() {
    let spec = spec();
    let good = worker();
    // Every answer of the good worker takes longer than the dead address
    // needs to refuse two connections, so the run cannot finish before the
    // dead worker is retired, however the lanes are scheduled.
    let slow = slow_proxy(good.local_addr(), Duration::from_millis(500), |_| true);
    let config = fast_config(vec![dead_addr(), slow]);

    let outcome = run_fleet(&spec, &config, &RunControl::default()).unwrap();
    assert!(outcome.complete);
    assert_eq!(outcome.stats.retired_workers, 1, "{:?}", outcome.stats);
    assert_eq!(outcome.manifest.to_json(false), direct_manifest(&spec));
}

#[test]
fn steal_duplicate_race_first_result_wins_byte_identically() {
    let spec = spec();
    let slow_backend = worker();
    let fast = worker();
    // The slow worker's first lease ages 8 s; the fast worker finishes
    // the other three tiles and steals it long before that.
    let mut config = fast_config(vec![
        slow_proxy(slow_backend.local_addr(), Duration::from_secs(8), |_| true),
        fast.local_addr(),
    ]);
    config.window = 1;

    let outcome = run_fleet(&spec, &config, &RunControl::default()).unwrap();
    assert!(outcome.complete);
    assert!(outcome.stats.stolen >= 1, "{:?}", outcome.stats);
    assert!(
        outcome.stats.duplicates >= 1,
        "the losing copy must arrive and be discarded: {:?}",
        outcome.stats
    );
    assert_eq!(outcome.manifest.to_json(false), direct_manifest(&spec));
}

#[test]
fn coordinator_restart_recovers_finished_tiles_from_workers() {
    let spec = spec();
    let (w1, w2) = (worker(), worker());
    let workers = vec![w1.local_addr(), w2.local_addr()];

    // First coordinator: budget of 2 tiles, then it "crashes" (returns).
    // No coordinator-side run_dir — the workers' checkpoints are the only
    // surviving state.
    let mut first_config = FleetConfig {
        workers: workers.clone(),
        ..FleetConfig::default()
    };
    first_config.max_tiles = Some(2);
    let first = run_fleet(&spec, &first_config, &RunControl::default()).unwrap();
    assert!(!first.complete);
    assert_eq!(first.outcome.executed, 2);
    assert_eq!(first.outcome.remaining, 2);

    // Second coordinator, fresh state: recovery harvests the 2 finished
    // tiles from the workers and only corrects the other 2.
    let second_config = FleetConfig {
        workers,
        ..FleetConfig::default()
    };
    let second = run_fleet(&spec, &second_config, &RunControl::default()).unwrap();
    assert!(second.complete);
    assert_eq!(second.stats.recovered, 2, "{:?}", second.stats);
    assert_eq!(second.outcome.resumed, 2);
    assert_eq!(second.outcome.executed, 2);
    assert_eq!(second.manifest.to_json(false), direct_manifest(&spec));
}

#[test]
fn coordinator_run_dir_resumes_without_asking_workers() {
    let spec = spec();
    let run_dir = std::env::temp_dir().join(format!("cardopc-fleet-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);

    // Partial run against one set of workers, checkpointing locally.
    let (w1, w2) = (worker(), worker());
    let mut config = FleetConfig {
        workers: vec![w1.local_addr(), w2.local_addr()],
        run_dir: Some(run_dir.clone()),
        ..FleetConfig::default()
    };
    config.max_tiles = Some(2);
    let first = run_fleet(&spec, &config, &RunControl::default()).unwrap();
    assert!(!first.complete);
    drop((w1, w2));

    // Finish against a brand-new worker that has never seen the job: the
    // resumed tiles come from the coordinator's own checkpoints.
    let fresh = worker();
    let config = FleetConfig {
        workers: vec![fresh.local_addr()],
        run_dir: Some(run_dir.clone()),
        ..FleetConfig::default()
    };
    let second = run_fleet(&spec, &config, &RunControl::default()).unwrap();
    assert!(second.complete);
    assert_eq!(second.stats.recovered, 0, "{:?}", second.stats);
    assert_eq!(second.outcome.resumed, 2);
    assert_eq!(second.outcome.executed, 2);
    assert_eq!(second.manifest.to_json(false), direct_manifest(&spec));

    // The completed distributed run wrote the same stable manifest a
    // single-process run would have.
    let stable = std::fs::read_to_string(run_dir.join("manifest.stable.json")).unwrap();
    assert_eq!(stable, direct_manifest(&spec));
    let _ = std::fs::remove_dir_all(&run_dir);
}

#[test]
fn hostile_dispatch_is_a_400_and_the_worker_stays_healthy() {
    let w = worker();
    let good = cardopc_fleet::proto::dispatch_body(&spec(), 0);
    // Values that used to get past parsing: a zero measure spacing (an
    // unbounded loop in the tile scorer), a negative mask rule (a panic
    // inside the handler thread) and a pitch that overflows to +∞ (now a
    // JSON error: no number may be infinite).
    for (from, to, field) in [
        (
            r#""convention":{"metal_spacing":60}"#,
            r#""convention":{"metal_spacing":0}"#,
            "'opc.convention.metal_spacing'",
        ),
        (
            r#""min_space":18"#,
            r#""min_space":-1"#,
            "'opc.mrc.min_space'",
        ),
        (
            r#""pitch":16"#,
            r#""pitch":1e999"#,
            "invalid number '1e999'",
        ),
    ] {
        assert!(good.contains(from), "fixture lost {from}");
        let r =
            client::post_json(w.local_addr(), "/v1/tiles", &good.replacen(from, to, 1)).unwrap();
        assert_eq!(r.status, 400, "{to}: {}", r.body_str());
        assert!(r.body_str().contains(field), "{}", r.body_str());
    }
    // Nothing was corrected, nothing leaked: the worker answers health
    // probes and still corrects the well-formed request.
    let health = client::get(w.local_addr(), "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body_str().contains(r#""tiles_done":0"#));
    let r = client::post_json(w.local_addr(), "/v1/tiles", &good).unwrap();
    assert_eq!(r.status, 200, "{}", r.body_str());
}

#[test]
fn keep_alive_connection_reuses_one_stream_across_requests() {
    let w = worker();
    let mut conn = client::Connection::new(w.local_addr());
    for _ in 0..3 {
        let r = conn
            .request_with_timeout("GET", "/healthz", None, Duration::from_secs(5))
            .unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("connection"), Some("keep-alive"));
    }
    assert_eq!(conn.reused(), 2, "requests 2 and 3 must reuse the stream");
}

#[test]
fn pipelined_keep_alive_requests_are_all_answered() {
    http_roles::assert_pipelined_requests_answered(worker().local_addr());
}

#[test]
fn saturated_worker_sheds_with_503_and_recovers() {
    http_roles::assert_sheds_at_saturation(worker().local_addr());
}

#[test]
fn malformed_requests_never_panic_the_worker() {
    let w = worker();
    let body = cardopc_fleet::proto::dispatch_body(&spec(), 0);
    http_roles::assert_malformed_requests_answered(
        w.local_addr(),
        "/v1/tiles",
        "/v1/records",
        &body,
    );
    let health = client::get(w.local_addr(), "/healthz").unwrap();
    assert_eq!(health.status, 200);
}

#[test]
fn stale_keep_alive_stream_is_retried_on_a_fresh_connection() {
    // A server that grants keep-alive but drops the stream after every
    // response — the idle-timeout race a lane can hit between tiles.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            if let ReadOutcome::Request(_) = http::read_request(&mut stream) {
                Response::text(200, "ok").write_framed(&mut stream, true);
            }
        }
    });
    let mut conn = client::Connection::new(addr);
    for _ in 0..3 {
        let r = conn
            .request_with_timeout("GET", "/x", None, Duration::from_secs(5))
            .unwrap();
        assert_eq!(
            r.status, 200,
            "stale reuse must retry, not surface an error"
        );
    }
}

#[test]
fn unusable_fleets_error_instead_of_hanging() {
    let spec = spec();
    let err = run_fleet(&spec, &FleetConfig::default(), &RunControl::default()).unwrap_err();
    assert!(matches!(err, FleetError::NoWorkers));

    // Every worker dead: the run fails with the tile count left over,
    // instead of spinning forever.
    let config = fast_config(vec![dead_addr(), dead_addr()]);
    let err = run_fleet(&spec, &config, &RunControl::default()).unwrap_err();
    match err {
        FleetError::WorkersExhausted { remaining } => assert_eq!(remaining, 4),
        other => panic!("expected WorkersExhausted, got {other}"),
    }
}

// --------------------------------------------- one request per tile class

#[test]
fn any_worker_count_matches_single_process_and_only_arrays_batch() {
    let (_file, array) = array_design("counts");
    let unique = spec();
    let (array_direct, unique_direct) = (direct_manifest(&array), direct_manifest(&unique));
    for n in 1..=3 {
        let outcome = run_on_fresh_workers(&array, n);
        assert!(outcome.complete);
        assert_eq!(outcome.manifest.to_json(false), array_direct, "{n} workers");
        let stats = outcome.stats;
        assert_eq!(stats.dispatched, ARRAY_TILES, "{stats:?}");
        assert_eq!(stats.requests, ARRAY_REQUESTS, "{stats:?}");

        // Unique tiles are classes of one: a request per tile, as ever.
        let outcome = run_on_fresh_workers(&unique, n);
        assert_eq!(
            outcome.manifest.to_json(false),
            unique_direct,
            "{n} workers"
        );
        assert_eq!(outcome.stats.dispatched, 4, "{:?}", outcome.stats);
        assert_eq!(outcome.stats.requests, 4, "{:?}", outcome.stats);
    }
}

/// Each pattern is corrected once fleet-wide, however many workers there
/// are: the workers' tile caches hold the 9 patterns between them, none
/// twice.
#[test]
fn each_class_is_corrected_on_one_worker_for_any_worker_count() {
    let (_file, spec) = array_design("once");
    for n in 1..=3 {
        let workers: Vec<WorkerServer> = (0..n).map(|_| worker()).collect();
        let config = FleetConfig {
            workers: workers.iter().map(WorkerServer::local_addr).collect(),
            ..FleetConfig::default()
        };
        let outcome = run_fleet(&spec, &config, &RunControl::default()).unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.stats.requests, ARRAY_CLASSES, "{:?}", outcome.stats);
        let mut held: HashMap<u64, usize> = HashMap::new();
        for (at, addr) in config.workers.iter().enumerate() {
            for key in listed_keys(*addr) {
                let first = held.insert(key, at);
                assert!(first.is_none(), "{n} workers: {key:016x} on two workers");
            }
        }
        assert_eq!(held.len(), ARRAY_CLASSES, "{n} workers");
    }
}

#[test]
fn worker_killed_mid_batch_loses_the_whole_run_to_the_survivor() {
    let (_file, spec) = array_design("killed");
    let (backend, survivor) = (worker(), worker());
    // The first request for the head of a 68-tile class sent to the doomed
    // worker dies in flight: the request is read, the connection drops.
    // Lone tiles it answers, and the survivor holds its first request back
    // until the kill, so the kill is sure to land on a 68-tile class. The
    // doomed worker keeps answering health probes, so it is the failed
    // request that retires it: one failure is its limit.
    let killed = Arc::new(AtomicBool::new(false));
    let lost: Arc<Mutex<Vec<usize>>> = Arc::default();
    let doomed = {
        let (killed, lost) = (Arc::clone(&killed), Arc::clone(&lost));
        proxy(backend.local_addr(), move |request, forward| {
            let head = parse_dispatch(request).unwrap().1;
            if !heads_a_run(head) {
                return framed(&forward().body_str());
            }
            lost.lock().unwrap().push(head);
            killed.store(true, Ordering::SeqCst);
            Vec::new()
        })
    };
    let mut config = fast_config(vec![doomed, gated_proxy(survivor.local_addr(), killed)]);
    config.window = 1;
    config.max_failures = 1;

    let outcome = run_fleet(&spec, &config, &RunControl::default()).unwrap();
    assert!(outcome.complete);
    let (stats, lost) = (outcome.stats, lost.lock().unwrap().clone());
    assert_eq!(stats.retired_workers, 1, "{stats:?}");
    // One failed request is one worker failure however many tiles its
    // class has; every tile of the class goes back to the queue.
    assert_eq!(lost.len(), 1, "{lost:?}");
    assert_eq!(stats.redispatched, ARRAY_RUN, "{stats:?}");
    assert_eq!(
        stats.dispatched,
        ARRAY_TILES + stats.redispatched + stats.stolen,
        "{stats:?}"
    );
    assert_eq!(outcome.manifest.to_json(false), direct_manifest(&spec));
}

#[test]
fn steal_inside_a_slow_batch_settles_tile_by_tile() {
    let (_file, spec) = array_design("steal");
    let (slow_backend, fast) = (worker(), worker());
    // The slow worker stalls on the first 68-tile class it is sent; the
    // fast one holds its first request back until then (so the slow worker
    // is sure to get one), then finishes the rest of the job and steals
    // that class.
    let stalled = Arc::new(AtomicBool::new(false));
    let slow = {
        let stalled = Arc::clone(&stalled);
        proxy(slow_backend.local_addr(), move |request, forward| {
            let answer = forward();
            let head = parse_dispatch(request).unwrap().1;
            if heads_a_run(head) && !stalled.swap(true, Ordering::SeqCst) {
                std::thread::sleep(Duration::from_secs(3));
            }
            framed(&answer.body_str())
        })
    };
    let mut config = fast_config(vec![slow, gated_proxy(fast.local_addr(), stalled)]);
    config.window = 1;

    let outcome = run_fleet(&spec, &config, &RunControl::default()).unwrap();
    assert!(outcome.complete);
    let stats = outcome.stats;
    assert_eq!(
        stats.stolen, ARRAY_RUN,
        "a class must be stolen whole, once: {stats:?}"
    );
    // Both copies of the stolen class arrive; the first wins, the other
    // is discarded — counted per tile.
    assert_eq!(stats.duplicates, stats.stolen, "{stats:?}");
    assert_eq!(stats.redispatched, 0, "{stats:?}");
    assert_eq!(outcome.outcome.executed, ARRAY_TILES);
    assert_eq!(outcome.manifest.to_json(false), direct_manifest(&spec));
}

#[test]
fn tile_budget_still_takes_the_lowest_indices() {
    let (_file, spec) = array_design("budget");
    let (w1, w2) = (worker(), worker());
    // 72 tiles: row 0 (corner, 68 edge tiles, corner), then the left end
    // and the first interior tile of row 1 — five classes, cut by index
    // before anything is ordered by class.
    let config = FleetConfig {
        workers: vec![w1.local_addr(), w2.local_addr()],
        max_tiles: Some(72),
        ..FleetConfig::default()
    };
    let outcome = run_fleet(&spec, &config, &RunControl::default()).unwrap();
    assert!(!outcome.complete);
    assert_eq!(outcome.outcome.executed, 72);
    assert_eq!(outcome.outcome.remaining, ARRAY_TILES - 72);
    let indices: Vec<usize> = outcome
        .outcome
        .results
        .iter()
        .map(|r| r.record.index)
        .collect();
    assert_eq!(indices, (0..72).collect::<Vec<_>>());
    assert_eq!(outcome.stats.requests, 5, "{:?}", outcome.stats);
}

#[test]
fn claim_order_is_a_function_of_the_partition_and_spec_alone() {
    let (_file, spec) = array_design("order");
    // Every request body a run sends, in arrival order, seen by recording
    // proxies in front of `n` fresh workers.
    let bodies_of_run = |n: usize, window: usize| -> Vec<String> {
        let log: Arc<Mutex<Vec<String>>> = Arc::default();
        let backends: Vec<WorkerServer> = (0..n).map(|_| worker()).collect();
        let recording = |backend: &WorkerServer| {
            let log = Arc::clone(&log);
            proxy(backend.local_addr(), move |request, forward| {
                log.lock().unwrap().push(request.to_string());
                framed(&forward().body_str())
            })
        };
        let config = FleetConfig {
            workers: backends.iter().map(recording).collect(),
            window,
            ..FleetConfig::default()
        };
        let outcome = run_fleet(&spec, &config, &RunControl::default()).unwrap();
        assert!(outcome.complete);
        let bodies = log.lock().unwrap().clone();
        bodies
    };

    // One lane: the request sequence itself repeats, one body per class
    // head, classes in first-seen order.
    let first = bodies_of_run(1, 1);
    assert_eq!(first.len(), ARRAY_REQUESTS);
    assert_eq!(first, bodies_of_run(1, 1));
    let heads: Vec<usize> = first
        .iter()
        .map(|body| parse_dispatch(body).unwrap().1)
        .collect();
    assert_eq!(heads, ARRAY_HEADS);

    // Four lanes race for the queue, but what they take from it is the
    // same set of classes.
    let mut raced = bodies_of_run(2, 2);
    let mut expected = first;
    raced.sort();
    expected.sort();
    assert_eq!(raced, expected);
}

#[test]
fn coordinator_checkpoint_lines_are_verbatim_and_canonical() {
    let (_file, spec) = array_design("verbatim");
    let (run_dir, local_dir) = (fresh_dir("verbatim"), fresh_dir("verbatim-local"));
    let (w1, w2) = (worker(), worker());
    let config = FleetConfig {
        workers: vec![w1.local_addr(), w2.local_addr()],
        run_dir: Some(run_dir.clone()),
        ..FleetConfig::default()
    };
    let outcome = run_fleet(&spec, &config, &RunControl::default()).unwrap();
    assert!(outcome.complete);

    // Each line is exactly what encoding the parsed line gives, so the
    // checkpoint resumes like one the scheduler wrote: one entry line per
    // pattern, one tile line per tile.
    let text = std::fs::read_to_string(run_dir.join("tiles.jsonl")).unwrap();
    assert_eq!(canonical_lines(&text), (ARRAY_CLASSES, ARRAY_TILES));
    // The entry lines are the workers' own; the tile lines, which the
    // coordinator built, are a local run's apart from `seconds`.
    let (entries, tiles) = split_store(&text);
    let held = records(w1.local_addr()) + &records(w2.local_addr());
    assert!(entries.iter().all(|e| held.lines().any(|h| h == e)));
    let cache = TileCache::open(&CacheConfig::default()).unwrap();
    let control = RunControl {
        cache: Some(&cache),
        ..RunControl::default()
    };
    run_locally(&spec, Some(&local_dir), &control);
    let local = std::fs::read_to_string(local_dir.join("tiles.jsonl")).unwrap();
    assert_eq!(tiles, split_store(&local).1);

    // And it does resume: nothing left to dispatch.
    let resumed = run_fleet(&spec, &config, &RunControl::default()).unwrap();
    assert_eq!(resumed.outcome.resumed, ARRAY_TILES);
    assert_eq!(resumed.stats.requests, 0, "{:?}", resumed.stats);
    assert_eq!(resumed.manifest.to_json(false), direct_manifest(&spec));
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir_all(&local_dir);
}

#[test]
fn failing_tile_surfaces_the_same_lowest_index_for_any_worker_count() {
    // Six tiles in a row, wires in tiles 2 and 4 only (different ones, so
    // two classes); every other window is empty and corrects to nothing.
    // At a 0.25 nm pitch a 1536 nm window needs a 6144-pixel grid, which
    // the engine refuses: exactly the two wired tiles fail, everywhere.
    let wire = |x: f64, len: f64| {
        Polygon::rect(
            Point::new(x + 400.0, 480.0),
            Point::new(x + 400.0 + len, 550.0),
        )
    };
    let wires = vec![wire(2048.0, 200.0), wire(4096.0, 240.0)];
    let file = DesignFile::write("failing", &Clip::new("row", 6144.0, 1024.0, wires));
    let mut spec = file.spec(1024.0, 256.0);
    spec.opc.pitch = 0.25;

    let clip = spec.build_clip().unwrap();
    let config = RunConfig::new(spec.opc.clone(), spec.tiling);
    let direct = run_clip_controlled(&clip, &config, &WorkerPool::new(2), &RunControl::default());
    assert!(
        matches!(direct, Err(RuntimeError::Tile { tile: 2, .. })),
        "{direct:?}"
    );

    for n in 1..=3 {
        let workers: Vec<WorkerServer> = (0..n).map(|_| worker()).collect();
        let config = fast_config(workers.iter().map(WorkerServer::local_addr).collect());
        let err = run_fleet(&spec, &config, &RunControl::default()).unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("tile 2 failed on the fleet") && message.contains("\"tile\":2"),
            "{n} workers: {message}"
        );
    }
}

// ------------------------------------------------------ cross-mode resume

/// An uninterrupted single-process run of `spec`, and a finishing
/// single-process run of it from `run_dir` reporting to `control`.
fn run_locally(
    spec: &WorkSpec,
    run_dir: Option<&std::path::Path>,
    control: &RunControl<'_>,
) -> rt::RunOutcome {
    let clip = spec.build_clip().unwrap();
    let mut config = RunConfig::new(spec.opc.clone(), spec.tiling);
    config.run_dir = run_dir.map(Into::into);
    run_clip_controlled(&clip, &config, &WorkerPool::new(2), control).unwrap()
}

/// The reverse of `tests/runtime.rs`'s cross-mode test: the coordinator
/// checkpoints two tiles, the local pool finishes the run from its dir.
#[test]
fn local_pool_finishes_a_run_the_fleet_started() {
    let spec = spec();
    let run_dir = std::env::temp_dir().join(format!("cardopc-cross-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    let reference = run_locally(&spec, None, &RunControl::default());
    let log = resume::EventLog::default();
    let progress = |event: &rt::TileEvent| log.push(event);
    let control = RunControl {
        progress: Some(&progress),
        ..RunControl::default()
    };

    let (w1, w2) = (worker(), worker());
    let config = FleetConfig {
        workers: vec![w1.local_addr(), w2.local_addr()],
        run_dir: Some(run_dir.clone()),
        max_tiles: Some(2),
        ..FleetConfig::default()
    };
    let partial = run_fleet(&spec, &config, &control).unwrap();
    assert!(!partial.complete);
    resume::assert_progress(&log, 0, 2, 4);

    let finished = run_locally(&spec, Some(&run_dir), &control);
    resume::assert_finished_like(&reference, &finished, &run_dir, (2, 2), &log);
    let _ = std::fs::remove_dir_all(&run_dir);
}

/// A coordinator that lost its run dir: a second one with a zero budget
/// dispatches nothing and only harvests — the workers' lines land in the
/// emptied dir verbatim — and the local pool finishes from there.
#[test]
fn harvest_only_coordinator_rebuilds_a_run_dir_the_local_pool_finishes() {
    let spec = spec();
    let run_dir =
        std::env::temp_dir().join(format!("cardopc-cross-harvest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    let reference_dir = fresh_dir("cross-harvest-reference");
    let reference = run_locally(&spec, Some(&reference_dir), &RunControl::default());
    let log = resume::EventLog::default();
    let progress = |event: &rt::TileEvent| log.push(event);
    let control = RunControl {
        progress: Some(&progress),
        ..RunControl::default()
    };

    let (w1, w2) = (worker(), worker());
    let mut config = FleetConfig {
        workers: vec![w1.local_addr(), w2.local_addr()],
        run_dir: Some(run_dir.clone()),
        max_tiles: Some(2),
        ..FleetConfig::default()
    };
    let partial = run_fleet(&spec, &config, &control).unwrap();
    assert_eq!(partial.outcome.executed, 2);
    resume::assert_progress(&log, 0, 2, 4);
    std::fs::remove_dir_all(&run_dir).unwrap();

    config.max_tiles = Some(0);
    let harvest = run_fleet(&spec, &config, &control).unwrap();
    assert!(!harvest.complete);
    assert_eq!(harvest.stats.recovered, 2, "{:?}", harvest.stats);
    assert_eq!(harvest.stats.requests, 0, "{:?}", harvest.stats);
    assert_eq!((harvest.outcome.resumed, harvest.outcome.executed), (2, 0));
    resume::assert_progress(&log, 2, 2, 4);
    // The dir now holds the workers' entry lines, as they came, and a tile
    // line per harvested tile: the one a local run writes, apart from
    // `seconds`.
    let held = records(w1.local_addr()) + &records(w2.local_addr());
    let mut held: Vec<&str> = held.lines().collect();
    held.sort();
    let checkpointed = std::fs::read_to_string(run_dir.join("tiles.jsonl")).unwrap();
    let (entries, tiles) = split_store(&checkpointed);
    assert_eq!(entries, held);
    let local = std::fs::read_to_string(reference_dir.join("tiles.jsonl")).unwrap();
    let local = split_store(&local).1;
    assert_eq!(tiles.len(), 2);
    assert!(tiles.iter().all(|t| local.contains(t)), "{tiles:?}");

    let finished = run_locally(&spec, Some(&run_dir), &control);
    resume::assert_finished_like(&reference, &finished, &run_dir, (2, 2), &log);
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir_all(&reference_dir);
}

// ------------------------------------------------ answers not to be trusted

/// Runs the array job on one healthy worker and one whose every answer is
/// `corrupt`ed on the way back (its lines: one, the entry line), and
/// checks that nothing the bad worker said was believed: it is retired,
/// every tile was settled by the healthy worker, and the checkpoint holds
/// one canonical entry line per pattern and tile line per tile.
fn run_beside_a_lying_worker(tag: &str, corrupt: fn(Vec<&str>) -> Vec<u8>) {
    let (_file, spec) = array_design(tag);
    let run_dir = std::env::temp_dir().join(format!("cardopc-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    let (healthy, backend) = (worker(), worker());
    let liar = proxy(backend.local_addr(), move |_, forward| {
        corrupt(forward().body_str().lines().collect())
    });
    let mut config = fast_config(vec![liar, healthy.local_addr()]);
    config.run_dir = Some(run_dir.clone());

    let outcome = run_fleet(&spec, &config, &RunControl::default()).unwrap();
    assert!(outcome.complete);
    let stats = outcome.stats;
    assert_eq!(stats.retired_workers, 1, "{stats:?}");
    assert!(stats.redispatched >= 1, "{stats:?}");
    assert_eq!(stats.duplicates, 0, "{stats:?}");
    assert_eq!(tiles_done(&healthy), ARRAY_CLASSES);
    let text = std::fs::read_to_string(run_dir.join("tiles.jsonl")).unwrap();
    assert_eq!(canonical_lines(&text), (ARRAY_CLASSES, ARRAY_TILES));
    assert_eq!(outcome.manifest.to_json(false), direct_manifest(&spec));
    let _ = std::fs::remove_dir_all(&run_dir);
}

fn jsonl(lines: &[&str]) -> Vec<u8> {
    framed(&lines.iter().map(|l| format!("{l}\n")).collect::<String>())
}

/// The answer's entry line, parsed.
fn entry_of(lines: &[&str]) -> (u64, CachedTile) {
    assert_eq!(lines.len(), 1, "an answer is one line: {lines:?}");
    CachedTile::from_json_line(lines[0]).unwrap()
}

#[test]
fn oversized_declared_length_is_refused_unread() {
    run_beside_a_lying_worker("oversized", |_| {
        let declared = cardopc_fleet::client::MAX_RESPONSE_BYTES + 1;
        format!("HTTP/1.1 200 OK\r\ncontent-length: {declared}\r\n\r\n").into_bytes()
    });
}

#[test]
fn short_answer_settles_nothing() {
    // The entry line torn halfway, as a stream cut mid-line leaves it.
    run_beside_a_lying_worker("short", |lines| jsonl(&[&lines[0][..lines[0].len() / 2]]));
}

#[test]
fn long_answer_settles_nothing() {
    // Two entry lines where one is due, both of the class key.
    run_beside_a_lying_worker("long", |lines| jsonl(&[lines[0], lines[0]]));
}

#[test]
fn missing_entry_line_settles_nothing() {
    // With the entry gone, nothing is left: the empty body.
    run_beside_a_lying_worker("no-entry", |lines| jsonl(&lines[1..]));
}

#[test]
fn entry_for_another_key_settles_nothing() {
    run_beside_a_lying_worker("other-entry", |lines| {
        let (key, entry) = entry_of(&lines);
        jsonl(&[&entry.to_json_line(key ^ 1)])
    });
}

#[test]
fn tile_line_in_place_of_the_entry_settles_nothing() {
    // A well-formed tile line naming the class key, where the entry is due.
    run_beside_a_lying_worker("tile-line", |lines| {
        let (key, _) = entry_of(&lines);
        let tile = TileLine {
            index: 0,
            name: "array:t0x0".into(),
            input_hash: 0,
            key,
            seconds: 0.0,
            placement: Placement {
                origin: Point::new(0.0, 0.0),
                ids: Vec::new(),
                keep: Vec::new(),
            },
        };
        jsonl(&[&tile.to_json_line()])
    });
}

#[test]
fn entry_naming_a_target_the_tile_lacks_settles_nothing() {
    // The class key and a well-formed entry, plus a main whose target no
    // tile has: `Placement::of` places it nowhere.
    run_beside_a_lying_worker("no-target", |lines| {
        let (key, mut entry) = entry_of(&lines);
        entry.shapes.push(StitchedShape {
            global_id: Some(1_000_000),
            is_sraf: false,
            tension: 0.5,
            control_points: vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
        });
        jsonl(&[&entry.to_json_line(key)])
    });
}

// ------------------------------------------------ worker persistence

/// A proxy that renames every tile line of its answers — the probe that
/// once put forged names into the stable manifest — changes nothing: no
/// tile line crosses the wire, so each tile's name is the coordinator's.
#[test]
fn forged_tile_names_reach_neither_manifest_nor_checkpoint() {
    let (_file, spec) = array_design("forged");
    let run_dir = fresh_dir("forged-run");
    let backend = worker();
    let forger = proxy(backend.local_addr(), |_, forward| {
        let rename = |line: &str| match StoreLine::parse(line) {
            Ok(StoreLine::Tile(mut tile)) => {
                tile.name = "forged".into();
                tile.to_json_line()
            }
            _ => line.to_string(),
        };
        let answer = forward().body_str();
        framed(&answer.lines().map(|l| rename(l) + "\n").collect::<String>())
    });
    let config = FleetConfig {
        workers: vec![forger],
        run_dir: Some(run_dir.clone()),
        ..FleetConfig::default()
    };
    let outcome = run_fleet(&spec, &config, &RunControl::default()).unwrap();
    assert!(outcome.complete);
    assert_eq!(outcome.stats.retired_workers, 0, "{:?}", outcome.stats);
    let stable = std::fs::read_to_string(run_dir.join("manifest.stable.json")).unwrap();
    let text = std::fs::read_to_string(run_dir.join("tiles.jsonl")).unwrap();
    assert!(!stable.contains("forged") && !text.contains("forged"));
    assert_eq!(stable, direct_manifest(&spec));
    let _ = std::fs::remove_dir_all(&run_dir);
}

/// A worker's run directory is its tile cache: restarted on it, the worker
/// lists its entries before any dispatch, and a fresh coordinator recovers
/// every tile from them without sending a request.
#[test]
fn restarted_worker_lists_its_entries_and_a_fresh_coordinator_recovers_every_tile() {
    let (_file, spec) = array_design("restart");
    let dir = fresh_dir("worker-restart");
    let config = WorkerConfig {
        run_dir: Some(dir.clone()),
        ..WorkerConfig::default()
    };
    let run_on = |worker: &WorkerServer| {
        let fleet = FleetConfig {
            workers: vec![worker.local_addr()],
            ..FleetConfig::default()
        };
        run_fleet(&spec, &fleet, &RunControl::default()).unwrap()
    };
    let first = WorkerServer::start(config.clone()).unwrap();
    assert!(run_on(&first).complete);
    let mut held: Vec<String> = records(first.local_addr())
        .lines()
        .map(Into::into)
        .collect();
    assert_eq!(held.len(), ARRAY_CLASSES);
    drop(first);
    // The lock goes with the worker's state, once its last connection
    // thread has let go of it.
    for _ in 0..200 {
        if !dir.join("cache.lock").exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let second = WorkerServer::start(config).unwrap();
    let mut listed: Vec<String> = records(second.local_addr())
        .lines()
        .map(Into::into)
        .collect();
    held.sort();
    listed.sort();
    assert_eq!(listed, held);
    let recovered = run_on(&second);
    assert!(recovered.complete);
    assert_eq!(
        recovered.stats.recovered, ARRAY_TILES,
        "{:?}",
        recovered.stats
    );
    assert_eq!(recovered.stats.requests, 0, "{:?}", recovered.stats);
    assert_eq!(recovered.manifest.to_json(false), direct_manifest(&spec));
    drop(second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One live worker per run directory; and without a cache there is no run
/// directory to have.
#[test]
fn a_second_worker_on_a_live_workers_run_dir_fails_to_start() {
    let dir = fresh_dir("worker-locked");
    let config = WorkerConfig {
        run_dir: Some(dir.clone()),
        ..WorkerConfig::default()
    };
    let live = WorkerServer::start(config.clone()).unwrap();
    let refused = |config: WorkerConfig| match WorkerServer::start(config) {
        Ok(_) => panic!("a second worker started on {}", dir.display()),
        Err(e) => e.to_string(),
    };
    let held = refused(config.clone());
    assert!(held.contains("held by another live process"), "{held}");
    assert_eq!(
        client::get(live.local_addr(), "/healthz").unwrap().status,
        200
    );
    let uncached = refused(WorkerConfig {
        cache: false,
        ..config
    });
    assert!(uncached.contains("--run-dir needs the cache"), "{uncached}");
    drop(live);
    let _ = std::fs::remove_dir_all(&dir);
}
