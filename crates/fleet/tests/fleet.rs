//! End-to-end fleet tests over real TCP sockets: byte-identity of the
//! distributed manifest against the single-process runtime, and the
//! failure modes that justify the fleet's existence — hung workers
//! (lease expiry → re-dispatch), crashed workers (heartbeat retirement),
//! work-steal duplicate races (first result wins), and coordinator
//! restarts recovering finished tiles from workers' checkpoints.

use cardopc_fleet::http::{self, ReadOutcome, Response};
use cardopc_fleet::spec::DesignSpec;
use cardopc_fleet::worker::{WorkerConfig, WorkerServer};
use cardopc_fleet::{client, run_fleet, FleetConfig, FleetError, WorkSpec};
use cardopc_layout::DesignKind;
use cardopc_litho::WorkerPool;
use cardopc_opc::OpcConfig;
use cardopc_runtime::{run_clip, RunConfig, RunControl, TilingConfig};
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

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

/// The same spec corrected by the single-process runtime — the
/// byte-identity baseline every fleet manifest is compared against.
fn direct_manifest(spec: &WorkSpec) -> String {
    let clip = spec.build_clip().unwrap();
    let pool = WorkerPool::new(2);
    let outcome = run_clip(&clip, &RunConfig::new(spec.opc.clone(), spec.tiling), &pool).unwrap();
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

/// A proxy in front of `backend` that delays every `POST /v1/tiles`
/// response by `delay` (health probes pass straight through) — a slow
/// worker whose leases age enough to get stolen from.
fn slow_proxy(backend: SocketAddr, delay: Duration) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            std::thread::spawn(move || {
                let ReadOutcome::Request(request) = http::read_request(&mut stream) else {
                    return;
                };
                let body = request.body_str().map(str::to_string);
                let Ok(upstream) = client::request_with_timeout(
                    backend,
                    &request.method,
                    &request.path,
                    body.as_deref(),
                    Duration::from_secs(120),
                ) else {
                    return;
                };
                if request.path == "/v1/tiles" {
                    std::thread::sleep(delay);
                }
                Response::text(upstream.status, upstream.body_str()).write(&mut stream);
            });
        }
    });
    addr
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
    let config = fast_config(vec![dead_addr(), good.local_addr()]);

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
        slow_proxy(slow_backend.local_addr(), Duration::from_secs(8)),
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
    // unbounded loop in the tile scorer) and a negative mask rule (a
    // panic inside the handler thread).
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
        (r#""pitch":16"#, r#""pitch":1e999"#, "'opc.pitch'"),
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
