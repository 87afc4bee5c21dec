//! End-to-end tests of the correction service over real TCP sockets.
//!
//! Every test starts a real [`Server`] on an ephemeral port and talks to
//! it through the in-repo [`client`] — the same wire path production
//! traffic takes. The headline assertion: a job's timing-free manifest
//! fetched over HTTP is **byte-identical** to a direct
//! `cardopc-runtime::run_clip` of the same spec, including with a second
//! job running concurrently.

use cardopc_geometry::SplitMix64;
use cardopc_json::Json;
use cardopc_litho::WorkerPool;
use cardopc_runtime::{run_clip, StoreLine};
use cardopc_serve::{client, wire, ServeConfig, Server};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[path = "../../../tests/support/http_roles.rs"]
mod http_roles;

/// A fast 2×2-tile job: 1024 nm gcd crop, 512 nm tiles + 256 nm halo →
/// 1024 nm windows on 64² grids at pitch 16.
const SMOKE_JOB: &str = r#"{
    "design": {"kind": "gcd", "crop": 1024.0},
    "tiling": {"tile": 512.0, "halo": 256.0},
    "opc": {"preset": "large_scale", "pitch": 16.0, "iterations": 3}
}"#;

/// A second, different job for concurrency tests (same engine extent, so
/// the shared cache is actually exercised across jobs).
const AES_JOB: &str = r#"{
    "design": {"kind": "aes", "crop": 1024.0},
    "tiling": {"tile": 512.0, "halo": 256.0},
    "opc": {"preset": "large_scale", "pitch": 16.0, "iterations": 3}
}"#;

/// A 4×4-tile job (16 tiles, 768 nm windows) — enough tile boundaries
/// that a cancel reliably lands mid-run.
fn slow_job(run_dir: &str) -> String {
    format!(
        r#"{{
            "design": {{"kind": "gcd", "crop": 1024.0}},
            "tiling": {{"tile": 256.0, "halo": 256.0}},
            "opc": {{"preset": "large_scale", "pitch": 16.0, "iterations": 4}},
            "run_dir": "{run_dir}"
        }}"#
    )
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("cardopc-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn start(tag: &str, max_queued: usize, max_inflight: usize) -> (Server, SocketAddr, PathBuf) {
    start_retaining(tag, max_queued, max_inflight, 256)
}

fn start_retaining(
    tag: &str,
    max_queued: usize,
    max_inflight: usize,
    retain_terminal: usize,
) -> (Server, SocketAddr, PathBuf) {
    let root = temp_root(tag);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_queued,
        max_inflight,
        retain_terminal,
        run_root: root.clone(),
        ..ServeConfig::default()
    })
    .expect("server starts on an ephemeral port");
    let addr = server.local_addr();
    (server, addr, root)
}

/// Submits a job, asserting admission, and returns its id.
fn submit(addr: SocketAddr, body: &str) -> String {
    let response = client::post_json(addr, "/v1/jobs", body).unwrap();
    assert_eq!(response.status, 201, "submit: {}", response.body_str());
    let doc = response.json().unwrap();
    doc.get("id").unwrap().as_str().unwrap().to_string()
}

/// Polls the job until `stop(status)` returns true, then returns the
/// status document. Panics after `timeout`.
fn poll_until(addr: SocketAddr, id: &str, timeout: Duration, stop: impl Fn(&Json) -> bool) -> Json {
    let deadline = Instant::now() + timeout;
    loop {
        let response = client::get(addr, &format!("/v1/jobs/{id}")).unwrap();
        assert_eq!(response.status, 200, "status: {}", response.body_str());
        let doc = response.json().unwrap();
        if stop(&doc) {
            return doc;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting on {id}: {}",
            doc.to_string_compact()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn state(doc: &Json) -> &str {
    doc.get("state").unwrap().as_str().unwrap()
}

fn wait_terminal(addr: SocketAddr, id: &str) -> Json {
    poll_until(addr, id, Duration::from_secs(300), |doc| {
        matches!(state(doc), "done" | "failed" | "cancelled")
    })
}

/// Runs the same spec directly through the runtime (no HTTP, no
/// checkpointing) and returns the timing-free manifest JSON.
fn direct_manifest(body: &str, workers: usize) -> String {
    let spec = wire::parse_job(body, &temp_root("direct-unused")).unwrap();
    let mut config = spec.config;
    config.run_dir = None;
    let pool = WorkerPool::new(workers);
    let outcome = run_clip(&spec.clip, &config, &pool).unwrap();
    assert!(outcome.complete);
    outcome.manifest.to_json(false)
}

/// Fetches a done job's result and returns the embedded manifest subtree,
/// re-serialised (bit-exact round-trip through the hand-rolled JSON).
fn result_manifest(addr: SocketAddr, id: &str) -> String {
    let response = client::get(addr, &format!("/v1/jobs/{id}/result")).unwrap();
    assert_eq!(response.status, 200, "result: {}", response.body_str());
    let doc = response.json().unwrap();
    assert_eq!(doc.get("complete").unwrap().as_bool(), Some(true));
    assert!(doc.get("contours").unwrap().get("mains").is_some());
    doc.get("manifest").unwrap().to_string_compact()
}

#[test]
fn smoke_concurrent_jobs_match_direct_runs_byte_for_byte() {
    let (server, addr, root) = start("smoke", 4, 2);

    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(
        health.json().unwrap().get("ok").unwrap().as_bool(),
        Some(true)
    );

    // Two different jobs in flight at once (max_inflight = 2).
    let gcd = submit(addr, SMOKE_JOB);
    let aes = submit(addr, AES_JOB);
    let gcd_status = wait_terminal(addr, &gcd);
    let aes_status = wait_terminal(addr, &aes);
    assert_eq!(state(&gcd_status), "done", "{gcd_status:?}");
    assert_eq!(state(&aes_status), "done", "{aes_status:?}");

    // Progress reached the partition size (2×2 tiles).
    let progress = gcd_status.get("progress").unwrap();
    assert_eq!(progress.get("completed").unwrap().as_usize(), Some(4));
    assert_eq!(progress.get("total").unwrap().as_usize(), Some(4));

    // The HTTP result manifests are byte-identical to direct runtime runs
    // — despite concurrency, a different worker count, and the wire trip.
    assert_eq!(result_manifest(addr, &gcd), direct_manifest(SMOKE_JOB, 1));
    assert_eq!(result_manifest(addr, &aes), direct_manifest(AES_JOB, 3));

    // The smoke traffic shows up in /metrics, including nonzero tile
    // latency histograms.
    let metrics = client::get(addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.body_str();
    assert!(text.contains("cardopc_jobs_submitted_total 2"), "{text}");
    assert!(text.contains("cardopc_jobs_done_total 2"), "{text}");
    let count = text
        .lines()
        .find_map(|l| l.strip_prefix("cardopc_tile_seconds_count "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap();
    assert!(count >= 8, "expected 8 executed tiles, saw {count}");

    drop(server);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn bounded_admission_rejects_with_429_and_retry_after() {
    let (server, addr, root) = start("backpressure", 1, 1);

    // First job occupies the single executor...
    let running = submit(addr, &slow_job("bp-running"));
    poll_until(addr, &running, Duration::from_secs(60), |doc| {
        state(doc) != "queued"
    });
    // ...second fills the queue...
    let queued = submit(addr, &slow_job("bp-queued"));
    // ...third is shed at the door.
    let rejected = client::post_json(addr, "/v1/jobs", &slow_job("bp-rejected")).unwrap();
    assert_eq!(rejected.status, 429, "{}", rejected.body_str());
    assert!(
        rejected.header("retry-after").is_some(),
        "429 must carry Retry-After"
    );

    let metrics = client::get(addr, "/metrics").unwrap().body_str();
    assert!(
        metrics.contains("cardopc_admission_rejected_total 1"),
        "{metrics}"
    );

    // Cancel both admitted jobs so teardown is fast.
    for id in [&running, &queued] {
        let response = client::post_json(addr, &format!("/v1/jobs/{id}/cancel"), "").unwrap();
        assert_eq!(response.status, 200);
    }
    assert_eq!(state(&wait_terminal(addr, &queued)), "cancelled");
    assert_eq!(state(&wait_terminal(addr, &running)), "cancelled");

    drop(server);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn cancel_leaves_a_resumable_checkpoint() {
    let (server, addr, root) = start("cancel", 4, 1);
    let body = slow_job("resume-me");

    // Cancel mid-run: after at least one tile checkpointed, before all 16.
    let first = submit(addr, &body);
    poll_until(addr, &first, Duration::from_secs(120), |doc| {
        doc.get("progress")
            .unwrap()
            .get("completed")
            .unwrap()
            .as_usize()
            .unwrap()
            >= 1
    });
    let response = client::post_json(addr, &format!("/v1/jobs/{first}/cancel"), "").unwrap();
    assert_eq!(response.status, 200);
    let cancelled = wait_terminal(addr, &first);
    assert_eq!(state(&cancelled), "cancelled", "{cancelled:?}");

    // The run directory holds the finished tiles' lines.
    let records = std::fs::read_to_string(root.join("resume-me").join("tiles.jsonl")).unwrap();
    let tile_line = |l: &&str| matches!(StoreLine::parse(l), Ok(StoreLine::Tile(_)));
    let checkpointed = records.lines().filter(tile_line).count();
    assert!(checkpointed >= 1, "cancelled run must keep its checkpoints");

    // Resubmitting the identical spec resumes those tiles and completes.
    let second = submit(addr, &body);
    let done = wait_terminal(addr, &second);
    assert_eq!(state(&done), "done", "{done:?}");
    let resumed = done
        .get("progress")
        .unwrap()
        .get("resumed")
        .unwrap()
        .as_usize()
        .unwrap();
    assert!(
        resumed >= checkpointed.min(16),
        "resume must reuse the cancelled run's tiles (resumed {resumed})"
    );

    // And the cancel/resume detour is invisible in the manifest.
    assert_eq!(result_manifest(addr, &second), direct_manifest(&body, 2));

    drop(server);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn malformed_requests_never_panic_the_server() {
    let (server, addr, root) = start("fuzz", 2, 1);

    http_roles::assert_malformed_requests_answered(addr, "/v1/jobs", "/healthz", SMOKE_JOB);

    // The server is still alive and sane afterwards.
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    // Any job a mutation accidentally admitted must settle on its own.
    server.drain();

    drop(server);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn pipelined_keep_alive_requests_are_all_answered() {
    let (server, addr, root) = start("pipeline", 2, 1);
    http_roles::assert_pipelined_requests_answered(addr);
    drop(server);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn saturated_server_sheds_with_503_and_recovers() {
    let (server, addr, root) = start("saturation", 2, 1);
    http_roles::assert_sheds_at_saturation(addr);
    // Sheds and malformed requests count like any other request.
    client::send_raw(addr, b"garbage\r\n\r\n").unwrap();
    let metrics = client::get(addr, "/metrics").unwrap().body_str();
    assert!(metric_value(&metrics, "cardopc_http_server_errors_total ") >= 1);
    assert_eq!(
        metric_value(&metrics, "cardopc_http_client_errors_total "),
        1,
        "{metrics}"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn terminal_jobs_are_deletable_and_evicted_beyond_the_retention_cap() {
    // Retain only one terminal job so eviction is observable quickly.
    let (server, addr, root) = start_retaining("retain", 4, 1, 1);

    // A running job cannot be deleted (409) — it must be cancelled first.
    let first = submit(addr, &slow_job("retain-first"));
    poll_until(addr, &first, Duration::from_secs(60), |doc| {
        state(doc) != "queued"
    });
    let refused = client::delete(addr, &format!("/v1/jobs/{first}")).unwrap();
    assert_eq!(refused.status, 409, "{}", refused.body_str());

    // Unknown methods on job paths are 405 (method known-bad), not 404.
    let put = client::request(addr, "PUT", &format!("/v1/jobs/{first}"), None).unwrap();
    assert_eq!(put.status, 405, "{}", put.body_str());
    let del_result = client::delete(addr, &format!("/v1/jobs/{first}/result")).unwrap();
    assert_eq!(del_result.status, 405, "{}", del_result.body_str());

    let cancel = client::post_json(addr, &format!("/v1/jobs/{first}/cancel"), "").unwrap();
    assert_eq!(cancel.status, 200);
    wait_terminal(addr, &first);

    // Terminal now: DELETE drops the record; a second DELETE is a 404.
    let deleted = client::delete(addr, &format!("/v1/jobs/{first}")).unwrap();
    assert_eq!(deleted.status, 200, "{}", deleted.body_str());
    assert_eq!(
        deleted.json().unwrap().get("deleted").unwrap().as_bool(),
        Some(true)
    );
    let gone = client::get(addr, &format!("/v1/jobs/{first}")).unwrap();
    assert_eq!(gone.status, 404, "{}", gone.body_str());
    let again = client::delete(addr, &format!("/v1/jobs/{first}")).unwrap();
    assert_eq!(again.status, 404, "{}", again.body_str());

    // Two more terminal jobs: with retain_terminal = 1 the older one is
    // evicted automatically once the newer finishes.
    let second = submit(addr, &slow_job("retain-second"));
    let cancel = client::post_json(addr, &format!("/v1/jobs/{second}/cancel"), "").unwrap();
    assert_eq!(cancel.status, 200);
    wait_terminal(addr, &second);
    let third = submit(addr, &slow_job("retain-third"));
    let cancel = client::post_json(addr, &format!("/v1/jobs/{third}/cancel"), "").unwrap();
    assert_eq!(cancel.status, 200);
    wait_terminal(addr, &third);

    let evicted = client::get(addr, &format!("/v1/jobs/{second}")).unwrap();
    assert_eq!(evicted.status, 404, "{}", evicted.body_str());
    let kept = client::get(addr, &format!("/v1/jobs/{third}")).unwrap();
    assert_eq!(kept.status, 200, "{}", kept.body_str());

    let metrics = client::get(addr, "/metrics").unwrap().body_str();
    assert!(
        metrics.contains("cardopc_jobs_evicted_total 1"),
        "{metrics}"
    );

    drop(server);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn drain_stops_admission_and_settles_jobs() {
    let (server, addr, root) = start("drain", 4, 1);

    let job = submit(addr, SMOKE_JOB);
    let response = client::post_json(addr, "/admin/drain", "").unwrap();
    assert_eq!(response.status, 202);

    // New work is refused while draining — with a Retry-After, like the
    // 429 backpressure path, so well-behaved clients back off the same way.
    let refused = client::post_json(addr, "/v1/jobs", SMOKE_JOB).unwrap();
    assert_eq!(refused.status, 503, "{}", refused.body_str());
    assert!(
        refused.header("retry-after").is_some(),
        "503 draining must carry Retry-After"
    );
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(
        health.json().unwrap().get("draining").unwrap().as_bool(),
        Some(true)
    );

    // The admitted job settles (done if it outran the drain, cancelled
    // otherwise — drain cancels cooperatively at tile boundaries).
    let settled = wait_terminal(addr, &job);
    assert!(matches!(state(&settled), "done" | "cancelled"));

    // wait_drained returns promptly now that everything is terminal.
    server.wait_drained();

    let metrics = client::get(addr, "/metrics").unwrap().body_str();
    assert!(
        metrics.contains("cardopc_drain_rejected_total 1"),
        "{metrics}"
    );

    drop(server);
    let _ = std::fs::remove_dir_all(root);
}

/// The value of a counter/gauge line in a `/metrics` rendering.
fn metric_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
        .unwrap_or_else(|| panic!("metric {name} missing:\n{metrics}"))
}

fn progress_cache_hits(doc: &Json) -> usize {
    doc.get("progress")
        .unwrap()
        .get("cache_hits")
        .unwrap()
        .as_usize()
        .unwrap()
}

#[test]
fn sequential_jobs_share_the_cache_across_jobs_and_restarts() {
    let root = temp_root("cache-e2e");
    let cache_dir = root.join("cache");
    let start_cached = |tag: &str| {
        Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            run_root: root.join(tag),
            cache_dir: Some(cache_dir.clone()),
            ..ServeConfig::default()
        })
        .expect("cached server starts")
    };

    // Job 1 populates the cache; job 2 (identical spec, same server)
    // replays every one of its 4 tiles from it.
    let server = start_cached("first");
    let addr = server.local_addr();
    let first = submit(addr, SMOKE_JOB);
    assert_eq!(state(&wait_terminal(addr, &first)), "done");
    let hits_after_first = metric_value(
        &client::get(addr, "/metrics").unwrap().body_str(),
        "cardopc_cache_hits_total ",
    );

    let second = submit(addr, SMOKE_JOB);
    let done = wait_terminal(addr, &second);
    assert_eq!(state(&done), "done", "{done:?}");
    assert_eq!(
        progress_cache_hits(&done),
        4,
        "second job must replay all tiles from the shared cache: {done:?}"
    );
    let metrics = client::get(addr, "/metrics").unwrap().body_str();
    assert_eq!(
        metric_value(&metrics, "cardopc_cache_hits_total "),
        hits_after_first + 4,
        "cache hit counter must move with the second job"
    );
    assert!(metric_value(&metrics, "cardopc_cache_entries ") >= 1);
    drop(server);

    // A fresh server on the same cache_dir still replays: the cache
    // outlives the process, not just the job.
    let server = start_cached("second");
    let addr = server.local_addr();
    let third = submit(addr, SMOKE_JOB);
    let done = wait_terminal(addr, &third);
    assert_eq!(state(&done), "done", "{done:?}");
    assert_eq!(
        progress_cache_hits(&done),
        4,
        "restarted server must hit the on-disk cache: {done:?}"
    );

    drop(server);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn failed_jobs_surface_the_underlying_error_detail() {
    // Two executors so a second job can run into the first one's lock.
    let (server, addr, root) = start("failure-detail", 4, 2);
    let body = slow_job("lock-holder");

    // The holder acquires the run-directory lock...
    let holder = submit(addr, &body);
    poll_until(addr, &holder, Duration::from_secs(120), |doc| {
        doc.get("progress")
            .unwrap()
            .get("completed")
            .unwrap()
            .as_usize()
            .unwrap()
            >= 1
    });
    // ...so an identical concurrent job fails — and the status document
    // must say *why*, not just "failed".
    let conflicting = submit(addr, &body);
    let failed = wait_terminal(addr, &conflicting);
    assert_eq!(state(&failed), "failed", "{failed:?}");
    let error = failed.get("error").unwrap().as_str().unwrap();
    assert!(
        error.contains("locked by live process"),
        "failed state must carry the runtime's own message, got {error:?}"
    );

    // The result endpoint's 409 carries the same detail.
    let result = client::get(addr, &format!("/v1/jobs/{conflicting}/result")).unwrap();
    assert_eq!(result.status, 409, "{}", result.body_str());
    assert!(
        result.body_str().contains("locked by live process"),
        "result 409 must explain the failure: {}",
        result.body_str()
    );

    let cancel = client::post_json(addr, &format!("/v1/jobs/{holder}/cancel"), "").unwrap();
    assert_eq!(cancel.status, 200);
    wait_terminal(addr, &holder);

    drop(server);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn registered_fleet_workers_run_jobs_byte_identically() {
    let (server, addr, root) = start("fleet", 4, 1);

    // Register two spawn-local worker processes over the wire.
    let created = client::post_json(addr, "/v1/workers", r#"{"spawn_local": 2}"#).unwrap();
    assert_eq!(created.status, 201, "{}", created.body_str());
    let doc = created.json().unwrap();
    assert_eq!(doc.get("total").unwrap().as_usize(), Some(2));

    // The registry lists them as healthy; bad registrations are rejected.
    let listing = client::get(addr, "/v1/workers").unwrap();
    assert_eq!(listing.status, 200);
    let listing = listing.json().unwrap();
    assert_eq!(listing.get("count").unwrap().as_usize(), Some(2));
    for worker in listing.get("workers").unwrap().as_arr().unwrap() {
        assert_eq!(worker.get("healthy").unwrap().as_bool(), Some(true));
    }
    let bad = client::post_json(addr, "/v1/workers", r#"{"nope": 1}"#).unwrap();
    assert_eq!(bad.status, 400, "{}", bad.body_str());
    let bad = client::post_json(addr, "/v1/workers", r#"{"spawn_local": 1, "addr": "x"}"#).unwrap();
    assert_eq!(bad.status, 400, "{}", bad.body_str());

    // A job now routes through the fleet — and the client cannot tell:
    // the result manifest is byte-identical to an in-process run.
    let job = submit(addr, SMOKE_JOB);
    let done = wait_terminal(addr, &job);
    assert_eq!(state(&done), "done", "{done:?}");
    assert_eq!(result_manifest(addr, &job), direct_manifest(SMOKE_JOB, 1));

    let metrics = client::get(addr, "/metrics").unwrap().body_str();
    assert_eq!(metric_value(&metrics, "cardopc_fleet_jobs_total "), 1);
    assert_eq!(metric_value(&metrics, "cardopc_fleet_workers "), 2);
    assert!(
        metric_value(&metrics, "cardopc_fleet_tiles_dispatched_total ") >= 4,
        "{metrics}"
    );
    // Four unique tiles: every request carries one.
    assert_eq!(
        metric_value(&metrics, "cardopc_fleet_requests_total "),
        metric_value(&metrics, "cardopc_fleet_tiles_dispatched_total "),
        "{metrics}"
    );

    drop(server);
    let _ = std::fs::remove_dir_all(root);
}

/// A GDS-file job referencing `name` in the run root: same tiling/OPC as
/// [`SMOKE_JOB`], capped at 4 tiles so a fuzz survivor stays cheap.
fn gds_job(name: &str) -> String {
    format!(
        r#"{{
            "design": {{"gds": "{name}"}},
            "tiling": {{"tile": 512.0, "halo": 256.0}},
            "opc": {{"preset": "large_scale", "pitch": 16.0, "iterations": 3}},
            "max_tiles": 4
        }}"#
    )
}

#[test]
fn gds_design_jobs_match_generated_runs_and_reject_corrupt_uploads() {
    use cardopc_layout::{generated_clip, write_clip_gds, DesignKind, TARGET_LAYER};

    let (server, addr, root) = start("gds", 64, 1);
    std::fs::create_dir_all(&root).unwrap();

    // Export SMOKE_JOB's generated design ("gcd", crop 1024) to a GDS
    // file in the run root — the upload convention.
    let clip = generated_clip(DesignKind::Gcd, 1, Some(1024.0));
    let bytes = write_clip_gds(&clip, TARGET_LAYER, 0).unwrap();
    std::fs::write(root.join("chip.gds"), &bytes).unwrap();

    // The ingested design corrects byte-identically to the generated
    // original: the GDS round trip is lossless end to end over HTTP.
    let id = submit(addr, &gds_job("chip.gds"));
    let done = wait_terminal(addr, &id);
    assert_eq!(state(&done), "done", "{done:?}");
    assert_eq!(result_manifest(addr, &id), direct_manifest(SMOKE_JOB, 1));

    // Bad references are client errors, not server errors.
    for bad in [
        r#"{"design": {"gds": "../escape.gds"}}"#,
        r#"{"design": {"gds": "missing.gds"}}"#,
        r#"{"design": {"gds": "chip.gds", "layer": "42"}}"#,
        r#"{"design": {"gds": "chip.gds", "layer": "bogus"}}"#,
        r#"{"design": {"gds": "chip.gds", "tiles": 2}}"#,
    ] {
        let resp = client::post_json(addr, "/v1/jobs", bad).unwrap();
        assert_eq!(resp.status, 400, "{bad}: {}", resp.body_str());
    }

    // Seeded corruption of the upload — truncations and byte flips. Every
    // submission must be answered 4xx (or admitted when the mutation left
    // the file valid); a 5xx means the reader panicked or hung the
    // executor, and the server must stay healthy throughout.
    let mut rng = SplitMix64::new(0x6D50BAD);
    let mut accepted = Vec::new();
    for case in 0..32usize {
        let mut mutated = bytes.clone();
        if case % 2 == 0 {
            let at = 1 + (rng.next_u64() as usize) % (mutated.len() - 1);
            mutated.truncate(at);
        } else {
            for _ in 0..1 + rng.next_u64() % 4 {
                let at = (rng.next_u64() as usize) % mutated.len();
                mutated[at] ^= (1 + rng.next_u64() % 255) as u8;
            }
        }
        let name = format!("fuzz-{case}.gds");
        std::fs::write(root.join(&name), &mutated).unwrap();
        // Survivors run a real correction, so keep them minimal: one
        // iteration, one tile.
        let body = format!(
            r#"{{
                "design": {{"gds": "{name}"}},
                "tiling": {{"tile": 512.0, "halo": 256.0}},
                "opc": {{"preset": "large_scale", "pitch": 16.0, "iterations": 1}},
                "max_tiles": 1
            }}"#
        );
        let resp = client::post_json(addr, "/v1/jobs", &body).unwrap();
        assert!(
            resp.status == 201 || (400..500).contains(&resp.status),
            "case {case}: corrupt GDS answered {}: {}",
            resp.status,
            resp.body_str()
        );
        if resp.status == 201 {
            let doc = resp.json().unwrap();
            accepted.push(doc.get("id").unwrap().as_str().unwrap().to_string());
        }
    }
    // Fuzz survivors (mutations that left the file readable) must settle
    // on their own — done or failed, never wedged.
    for id in &accepted {
        let doc = wait_terminal(addr, id);
        assert!(
            matches!(state(&doc), "done" | "failed"),
            "fuzz job {id}: {doc:?}"
        );
    }

    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);

    // The ingestion metric counts admitted designs by source format.
    let metrics = client::get(addr, "/metrics").unwrap();
    let text = metrics.body_str().to_string();
    assert_eq!(
        metric_value(&text, "cardopc_designs_ingested_total{format=\"gds\"} "),
        1 + accepted.len() as u64,
        "{text}"
    );
    assert_eq!(
        metric_value(
            &text,
            "cardopc_designs_ingested_total{format=\"generated\"} "
        ),
        0
    );

    drop(server);
    let _ = std::fs::remove_dir_all(root);
}
