//! The fleet worker: a stateless-by-design tile-correction process.
//!
//! A worker holds no job state a coordinator depends on for progress —
//! every `POST /v1/tiles` request is self-contained (full [`WorkSpec`](crate::WorkSpec) +
//! a run of tile indices), so any worker can serve any tile of any job at
//! any time.
//! What a worker *does* keep is pure gain:
//!
//! - a **prepared-state cache** keyed by the spec's canonical JSON: the
//!   expanded clip + partition + flow are built once per distinct spec
//!   and shared across requests — concurrent first requests of one spec
//!   wait for one build, other specs never wait;
//! - an [`EngineCache`] holding one litho engine per window extent, pitch
//!   and precision, which every request thread shares across tiles and
//!   specs;
//! - an optional in-memory tile cache (repeated patterns replay);
//! - the runtime's **line store** ([`LineStore`]) of finished tiles — each
//!   pattern's entry line by cache key, each tile's line by input hash —
//!   optionally persisted to a `RunDir` (and read back verbatim on
//!   start). A re-dispatched, duplicate-dispatched (work-steal), or
//!   post-restart tile whose hash is already known is answered from it
//!   without recomputation or re-encoding — this is what makes the
//!   coordinator's aggressive re-dispatch and crash recovery cheap, and
//!   `GET /v1/records` is how a restarted coordinator harvests it.
//!
//! An answer is the run directory's own lines: the class's entry line,
//! then one tile line per requested tile, in request order.
//!
//! Determinism: the correction path is `cardopc_runtime`'s own
//! `correct_single_tile`, so a line produced here is byte-identical
//! (timing aside) to the single-process scheduler's for the same tile.

use crate::http::{self, Request, Response};
use crate::proto;
use cardopc_json::Json;
use cardopc_opc::CardOpc;
use cardopc_runtime::{
    correct_single_tile, partition_clip, tile_input_hash, CacheConfig, EngineCache, LineStore,
    Partition, RunControl, RunDir, RuntimeError, TileCache,
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
    /// Checkpoint directory: finished tiles are appended here and loaded
    /// back on start, so a restarted worker answers its old tiles from
    /// disk. `None` keeps checkpoints in memory only.
    pub run_dir: Option<PathBuf>,
    /// Whether to keep an in-memory content-addressed tile cache
    /// (repeated patterns replay instead of re-correcting).
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
    /// Finished tiles as lines (multi-spec by nature: different specs
    /// produce different hashes and keys), mirrored into `run_dir`.
    store: Mutex<LineStore>,
    /// Held for its PID lock.
    _run_dir: Option<RunDir>,
    prepared: Preparations,
    engines: EngineCache,
    cache: Option<TileCache>,
    tiles_done: AtomicUsize,
    server: http::StopHandle,
}

/// A running fleet worker.
pub struct WorkerServer {
    server: http::Server,
}

impl WorkerServer {
    /// Binds, loads any persisted checkpoints, and starts serving.
    ///
    /// # Errors
    ///
    /// Bind/listen failures, an unopenable run directory (including one
    /// locked by another live worker), or an unreadable checkpoint file.
    pub fn start(config: WorkerConfig) -> io::Result<WorkerServer> {
        let other = |e: RuntimeError| io::Error::other(e.to_string());
        let run_dir = config.run_dir.as_ref().map(RunDir::open);
        let run_dir = run_dir.transpose().map_err(other)?;
        let store = LineStore::open(run_dir.as_ref()).map_err(other)?;
        let cache = if config.cache {
            Some(TileCache::open(&CacheConfig::default()).map_err(other)?)
        } else {
            None
        };

        let server = http::Server::start(&config.addr, "cardopc-worker", |server| {
            Arc::new(WorkerState {
                store: Mutex::new(store),
                _run_dir: run_dir,
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

/// `POST /v1/tiles`: correct (or answer from the store) a run of tiles:
/// the entry line of each pattern they place (one, for the coordinator's
/// class-pure runs), then one tile line per tile in request order. The
/// spec is parsed and expanded once for the whole run. The first tile that
/// fails fails the request — with a 500 naming it — but everything
/// finished before it stays in the store, so the re-dispatch is answered
/// from memory.
fn dispatch(request: &Request, state: &WorkerState) -> Response {
    let Some(body) = request.body_str() else {
        return Response::error(400, "request body must be UTF-8 JSON");
    };
    let (spec, tiles) = match proto::parse_dispatch(body) {
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
    if let Some(&outside) = tiles.iter().find(|&&t| t >= partition.tiles.len()) {
        return Response::error(
            400,
            &format!(
                "tile {outside} outside the partition ({} tiles)",
                partition.tiles.len()
            ),
        );
    }
    let (mut keys, mut tile_lines) = (Vec::new(), String::new());
    for tile_index in tiles {
        match answer_tile(state, &prepared, tile_index) {
            Ok((key, line)) => {
                if !keys.contains(&key) {
                    keys.push(key);
                }
                tile_lines.push_str(&line);
                tile_lines.push('\n');
            }
            Err(message) => {
                return Response::json(
                    500,
                    Json::obj(vec![
                        ("error", Json::Str(message)),
                        ("tile", Json::num_usize(tile_index)),
                    ])
                    .to_string_compact(),
                );
            }
        }
    }
    let store = state.store.lock().unwrap_or_else(PoisonError::into_inner);
    let mut answer = String::new();
    for entry in keys.into_iter().filter_map(|key| store.entry(key)) {
        answer.push_str(entry);
        answer.push('\n');
    }
    answer.push_str(&tile_lines);
    Response::text(200, answer)
}

/// One tile's cache key and tile line: from the store when the tile's
/// input hash is known, else by correcting it and storing (and
/// checkpointing) its lines.
fn answer_tile(
    state: &WorkerState,
    prepared: &Prepared,
    tile_index: usize,
) -> Result<(u64, String), String> {
    let tile = &prepared.partition.tiles[tile_index];
    let hash = tile_input_hash(tile, prepared.flow.config());
    let lock_store = || state.store.lock().unwrap_or_else(PoisonError::into_inner);
    let held = |store: &LineStore| store.tile(hash).map(|(key, line)| (key, line.to_string()));

    // Store hit: a re-dispatch, steal duplicate, or post-restart replay is
    // answered without recomputation.
    if let Some(held) = held(&lock_store()) {
        return Ok(held);
    }

    let control = RunControl {
        engines: Some(&state.engines),
        cache: state.cache.as_ref(),
        ..RunControl::default()
    };
    let (line, entry) =
        correct_single_tile(&prepared.partition, tile_index, &prepared.flow, &control, 0)
            .map_err(|e| format!("tile {tile_index} failed: {e}"))?;
    // Encoded once, before the lock: the tile line, and the entry line if
    // the store lacks it. They are the answer, the checkpoint and the
    // `/v1/records` lines.
    let text = line.to_json_line();
    let missing = lock_store().entry(line.key).is_none();
    let entry = missing.then(|| entry.to_json_line(line.key));
    let mut store = lock_store();
    let stored = store.insert(&line, text, entry);
    if stored.map_err(|e| format!("checkpoint append failed: {e}"))? {
        state.tiles_done.fetch_add(1, Ordering::AcqRel);
    }
    // A concurrent duplicate that finished first keeps its line, so the
    // checkpoint file and the answer agree.
    held(&store).ok_or_else(|| format!("tile {tile_index} was not stored"))
}

/// `GET /v1/records`: every stored line as JSONL — entry lines, then tile
/// lines by tile index (deterministic output for tests and debugging).
fn records_jsonl(state: &WorkerState) -> Response {
    let store = state.store.lock().unwrap_or_else(PoisonError::into_inner);
    Response::text(200, store.to_jsonl())
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
        let body = crate::proto::dispatch_body(&spec, &[99]);
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
        let body = crate::proto::dispatch_body(&bad, &[0]);
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
