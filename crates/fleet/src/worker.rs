//! The fleet worker: a stateless-by-design tile-correction process.
//!
//! A worker holds no job state a coordinator depends on for progress —
//! every `POST /v1/tiles` request is self-contained (full [`WorkSpec`](crate::WorkSpec) +
//! one tile index), so any worker can serve any tile of any job at any
//! time. The answer is one line: the tile's entry line (its
//! window-relative correction under its cache key), which the coordinator
//! places on every tile of the tile's class itself.
//! What a worker *does* keep is pure gain:
//!
//! - a **prepared-state cache** keyed by the spec's canonical JSON: the
//!   expanded clip + partition + flow are built once per distinct spec
//!   and shared across requests — concurrent first requests of one spec
//!   wait for one build, other specs never wait;
//! - an [`EngineCache`] holding one litho engine per window extent, pitch
//!   and precision, which every request thread shares across tiles and
//!   specs;
//! - one store, its [`TileCache`]: in memory, or persisted in the run
//!   directory (`cache.jsonl`, locked by `cache.lock`) and read back on
//!   start. A re-dispatched, stolen or post-restart request whose pattern
//!   is held is answered without recomputation, and `GET /v1/records` (the
//!   cache's entry lines) is how a restarted coordinator harvests it.
//!
//! Determinism: the correction path is `cardopc_runtime`'s own
//! `correct_single_tile`, so an entry produced here is byte-identical
//! (timing aside) to the single-process scheduler's for the same pattern.

use crate::http::{self, Request, Response};
use crate::proto;
use cardopc_json::Json;
use cardopc_opc::CardOpc;
use cardopc_runtime::{
    correct_single_tile, partition_clip, CacheConfig, EngineCache, Partition, RunControl,
    RuntimeError, TileCache,
};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Worker configuration.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// The tile cache's directory (`cache.jsonl` + `cache.lock`): finished
    /// patterns are appended there and loaded back on start, so a
    /// restarted worker answers them from disk. `None` keeps the cache in
    /// memory. Needs `cache`.
    pub run_dir: Option<PathBuf>,
    /// Whether to keep the content-addressed tile cache (repeated patterns
    /// replay instead of re-correcting).
    pub cache: bool,
}

impl Default for WorkerConfig {
    fn default() -> WorkerConfig {
        WorkerConfig {
            addr: "127.0.0.1:0".to_string(),
            run_dir: None,
            cache: true,
        }
    }
}

/// Clip + partition + flow expanded from one spec, built once and shared.
struct Prepared {
    partition: Partition,
    flow: CardOpc,
}

/// One slot per spec key: the map's lock is held only to find the slot,
/// the slot's lock for the build, so a spec's concurrent first requests
/// build it once and other specs never wait. A failed build leaves the
/// slot empty for the next request to retry.
#[derive(Default)]
struct Preparations(Mutex<HashMap<String, PreparedSlot>>);

/// A spec's prepared state, once built.
type PreparedSlot = Arc<Mutex<Option<Arc<Prepared>>>>;

impl Preparations {
    fn get_or_build(
        &self,
        key: String,
        build: impl FnOnce() -> Result<Prepared, String>,
    ) -> Result<Arc<Prepared>, String> {
        let slot = {
            let mut slots = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(slots.entry(key).or_default())
        };
        let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(prepared) = slot.as_ref() {
            return Ok(Arc::clone(prepared));
        }
        let prepared = Arc::new(build()?);
        *slot = Some(Arc::clone(&prepared));
        Ok(prepared)
    }
}

/// Expands `spec` into its partition and flow.
fn prepare(spec: &crate::WorkSpec) -> Result<Prepared, String> {
    #[cfg(test)]
    tests::built(spec);
    let unusable = |e: &dyn std::fmt::Display| format!("unusable spec: {e}");
    let clip = spec.build_clip().map_err(|e| unusable(&e))?;
    let partition = partition_clip(&clip, &spec.tiling).map_err(|e| unusable(&e))?;
    let flow = CardOpc::new(spec.opc.clone());
    Ok(Prepared { partition, flow })
}

struct WorkerState {
    prepared: Preparations,
    engines: EngineCache,
    /// The one store: patterns by cache key, mirrored into `run_dir`.
    cache: Option<TileCache>,
    /// Tiles answered (`/healthz`).
    tiles_done: AtomicUsize,
    server: http::StopHandle,
}

/// A running fleet worker.
pub struct WorkerServer {
    server: http::Server,
}

impl WorkerServer {
    /// Binds, loads any persisted tile cache, and starts serving.
    ///
    /// # Errors
    ///
    /// Bind/listen failures, a run directory without the cache, an
    /// unopenable run directory (including one held by another live
    /// process), or an unreadable cache file.
    pub fn start(config: WorkerConfig) -> io::Result<WorkerServer> {
        if config.run_dir.is_some() && !config.cache {
            let why = "a worker's run directory is its tile cache: --run-dir needs the cache";
            return Err(io::Error::other(why));
        }
        let dir = config.run_dir.clone();
        let cache = config
            .cache
            .then(|| TileCache::open_exclusive(&CacheConfig { dir }));
        let cache = cache.transpose().map_err(|e| match e {
            RuntimeError::Locked { pid, .. } => io::Error::other(format!(
                "the run directory is held by another live process (pid {pid})"
            )),
            e => io::Error::other(e.to_string()),
        })?;

        let server = http::Server::start(&config.addr, "cardopc-worker", |server| {
            Arc::new(WorkerState {
                prepared: Preparations::default(),
                engines: EngineCache::default(),
                cache,
                tiles_done: AtomicUsize::new(0),
                server,
            })
        })?;
        Ok(WorkerServer { server })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Blocks until `POST /admin/shutdown` arrives (the worker-process
    /// main thread's parking spot).
    pub fn wait_shutdown(&self) {
        self.server.wait_stopped();
    }

    /// Stops accepting and joins the accept thread. Called by `Drop`;
    /// explicit calls are idempotent.
    pub fn shutdown(&mut self) {
        self.server.stop();
    }
}

impl http::Handler for WorkerState {
    fn route(&self, request: &Request) -> Response {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => Response::json(
                200,
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    (
                        "tiles_done",
                        Json::num_usize(self.tiles_done.load(Ordering::Acquire)),
                    ),
                ])
                .to_string_compact(),
            ),
            ("POST", "/v1/tiles") => dispatch(request, self),
            ("GET", "/v1/records") => records_jsonl(self),
            ("POST", "/admin/shutdown") => {
                self.server.stop();
                Response::json(202, r#"{"stopping":true}"#)
            }
            (_, "/healthz" | "/v1/tiles" | "/v1/records" | "/admin/shutdown") => {
                Response::error(405, "method not allowed")
            }
            _ => Response::error(404, "no such route"),
        }
    }
}

/// `POST /v1/tiles`: the tile's entry line, corrected or replayed from
/// the tile cache. The spec is parsed and expanded once per distinct
/// spec. A failed correction is a 500 naming the tile.
fn dispatch(request: &Request, state: &WorkerState) -> Response {
    let Some(body) = request.body_str() else {
        return Response::error(400, "request body must be UTF-8 JSON");
    };
    let (spec, tile) = match proto::parse_dispatch(body) {
        Ok(parsed) => parsed,
        Err(msg) => return Response::error(400, &msg),
    };

    // Expand the spec (once per distinct spec; canonical JSON is the key).
    let spec_key = spec.to_json().to_string_compact();
    let prepared = match state.prepared.get_or_build(spec_key, || prepare(&spec)) {
        Ok(prepared) => prepared,
        Err(message) => return Response::error(400, &message),
    };

    let partition = &prepared.partition;
    if tile >= partition.tiles.len() {
        return Response::error(
            400,
            &format!(
                "tile {tile} outside the partition ({} tiles)",
                partition.tiles.len()
            ),
        );
    }
    let control = RunControl {
        engines: Some(&state.engines),
        cache: state.cache.as_ref(),
        ..RunControl::default()
    };
    match correct_single_tile(partition, tile, &prepared.flow, &control, 0) {
        Ok((line, entry)) => {
            state.tiles_done.fetch_add(1, Ordering::AcqRel);
            Response::text(200, entry.to_json_line(line.key) + "\n")
        }
        Err(e) => Response::json(
            500,
            Json::obj(vec![
                ("error", Json::Str(format!("tile {tile} failed: {e}"))),
                ("tile", Json::num_usize(tile)),
            ])
            .to_string_compact(),
        ),
    }
}

/// `GET /v1/records`: the tile cache's entry lines as JSONL (none
/// without a cache).
fn records_jsonl(state: &WorkerState) -> Response {
    let lines = state.cache.as_ref().map(TileCache::entry_lines);
    Response::text(200, lines.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DesignSpec, WorkSpec};
    use cardopc_layout::DesignKind;
    use cardopc_opc::OpcConfig;
    use cardopc_runtime::TilingConfig;
    use std::sync::Barrier;

    /// The key of every spec [`prepare`] built, across the tests of this
    /// module (they run side by side; each counts its own spec's builds).
    static BUILDS: Mutex<Vec<String>> = Mutex::new(Vec::new());

    pub(super) fn built(spec: &WorkSpec) {
        let key = spec.to_json().to_string_compact();
        BUILDS.lock().unwrap().push(key);
    }

    fn builds_of(spec: &WorkSpec) -> usize {
        let key = spec.to_json().to_string_compact();
        BUILDS.lock().unwrap().iter().filter(|k| **k == key).count()
    }

    fn spec(crop: f64) -> WorkSpec {
        WorkSpec {
            design: DesignSpec::generated(DesignKind::Gcd, 1, Some(crop)),
            tiling: TilingConfig {
                tile_size: 1024.0,
                halo: 512.0,
            },
            opc: OpcConfig::large_scale(),
        }
    }

    #[test]
    fn concurrent_first_dispatches_of_a_spec_build_it_once() {
        let preparations = Preparations::default();
        let spec = spec(2048.0);
        let key = spec.to_json().to_string_compact();
        let (builds, arrived) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let barrier = Barrier::new(4);
        let prepared: Vec<Arc<Prepared>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        arrived.fetch_add(1, Ordering::SeqCst);
                        let build = || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // The build finishes only once every racer has
                            // asked for the spec.
                            while arrived.load(Ordering::SeqCst) < 4 {
                                std::thread::yield_now();
                            }
                            prepare(&spec)
                        };
                        preparations.get_or_build(key.clone(), build).unwrap()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert!(prepared.iter().all(|p| Arc::ptr_eq(p, &prepared[0])));
        assert_eq!(prepared[0].partition.tiles.len(), 4);
    }

    #[test]
    fn a_failed_build_is_retried_and_other_specs_do_not_wait() {
        let preparations = Preparations::default();
        let failed = preparations.get_or_build("k".into(), || Err("unusable spec: no".into()));
        assert_eq!(failed.err().as_deref(), Some("unusable spec: no"));
        let retried = preparations.get_or_build("k".into(), || prepare(&spec(1024.0)));
        assert_eq!(retried.unwrap().partition.tiles.len(), 1);
        // A build of one spec in flight holds up no other spec.
        let (started, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|scope| {
            let slow = scope.spawn(|| {
                preparations.get_or_build("slow".into(), || {
                    started.wait();
                    release.wait();
                    prepare(&spec(1024.0))
                })
            });
            started.wait();
            let other = preparations.get_or_build("other".into(), || prepare(&spec(2048.0)));
            assert_eq!(other.unwrap().partition.tiles.len(), 4);
            release.wait();
            assert!(slow.join().unwrap().is_ok());
        });
    }

    #[test]
    fn concurrent_first_dispatches_build_the_spec_once() {
        // Through the server: four concurrent first requests of one spec
        // (its own crop, so no other test builds it). They name a tile
        // past the partition, so each is answered right after preparation.
        let worker = WorkerServer::start(WorkerConfig::default()).unwrap();
        let addr = worker.local_addr();
        let spec = spec(3072.0);
        let body = crate::proto::dispatch_body(&spec, 99);
        std::thread::scope(|scope| {
            let sends: Vec<_> = (0..4)
                .map(|_| {
                    let body = &body;
                    scope.spawn(move || {
                        crate::client::request_with_timeout(
                            addr,
                            "POST",
                            "/v1/tiles",
                            Some(body),
                            std::time::Duration::from_secs(60),
                        )
                        .unwrap()
                    })
                })
                .collect();
            for send in sends {
                let answer = send.join().unwrap();
                assert_eq!(answer.status, 400);
                assert!(answer
                    .body_str()
                    .contains("outside the partition (9 tiles)"));
            }
        });
        assert_eq!(builds_of(&spec), 1);
        // A design that cannot be read is a 400 every time, never cached.
        let missing = std::env::temp_dir().join("cardopc-worker-test-no-such-design.gds");
        let bad = WorkSpec {
            design: DesignSpec::gds(missing, cardopc_layout::LayerFilter::Layer(1), None),
            ..spec.clone()
        };
        let body = crate::proto::dispatch_body(&bad, 0);
        for _ in 0..2 {
            let answer = crate::client::request_with_timeout(
                addr,
                "POST",
                "/v1/tiles",
                Some(&body),
                std::time::Duration::from_secs(60),
            )
            .unwrap();
            assert_eq!(answer.status, 400, "{}", answer.body_str());
            assert!(answer.body_str().contains("unusable spec"));
        }
        assert_eq!(builds_of(&bad), 2);
    }
}
