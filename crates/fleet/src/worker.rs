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
//!   and shared across requests;
//! - a shared [`EngineCache`] so concurrent dispatch lanes reuse litho
//!   engines across tiles and specs;
//! - an optional in-memory tile cache (repeated patterns replay);
//! - a **record map** of encoded checkpoint lines keyed by tile input
//!   hash, optionally persisted to a `RunDir`. A re-dispatched,
//!   duplicate-dispatched (work-steal), or post-restart tile whose hash is
//!   already known is answered from the map without recomputation (and
//!   without re-encoding) — this is what makes the coordinator's
//!   aggressive re-dispatch and crash recovery cheap, and
//!   `GET /v1/records` is how a restarted coordinator harvests it.
//!
//! Determinism: the correction path is `cardopc_runtime`'s own
//! `correct_single_tile`, so a record produced here is byte-identical
//! (timing aside) to the single-process scheduler's for the same tile.

use crate::http::{self, Request, Response};
use crate::proto;
use cardopc_json::Json;
use cardopc_opc::CardOpc;
use cardopc_runtime::{
    correct_single_tile, partition_clip, tile_input_hash, CacheConfig, EngineCache, Partition,
    RunControl, RunDir, TileCache,
};
use std::collections::hash_map::{Entry, HashMap};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Engine-cache stripes: dispatch lanes are spread round-robin across
/// these to keep lock contention off the per-tile hot path.
const ENGINE_SLOTS: usize = 4;

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

/// A finished tile as the worker keeps it: the encoded checkpoint line —
/// what every answer, the checkpoint file and `/v1/records` carry — so no
/// request ever encodes a record under the map's lock.
struct KnownRecord {
    index: usize,
    line: String,
}

struct WorkerState {
    /// Finished tiles keyed by tile input hash (multi-spec by nature:
    /// different specs produce different hashes).
    records: Mutex<HashMap<u64, KnownRecord>>,
    /// Append handle into `run_dir`'s checkpoint file, when persistent.
    sink: Option<Mutex<std::fs::File>>,
    /// Held for its PID lock; also the source of loaded checkpoints.
    _run_dir: Option<RunDir>,
    prepared: Mutex<HashMap<String, Arc<Prepared>>>,
    engines: EngineCache,
    cache: Option<TileCache>,
    lane_counter: AtomicUsize,
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
        let run_dir = match &config.run_dir {
            Some(path) => Some(RunDir::open(path).map_err(|e| io::Error::other(e.to_string()))?),
            None => None,
        };
        let mut records = HashMap::new();
        if let Some(dir) = &run_dir {
            for (_, record) in dir
                .load_records()
                .map_err(|e| io::Error::other(e.to_string()))?
            {
                records.insert(
                    record.input_hash,
                    KnownRecord {
                        index: record.index,
                        line: record.to_json_line(),
                    },
                );
            }
        }
        let sink = match &run_dir {
            Some(dir) => Some(Mutex::new(
                dir.append_handle()
                    .map_err(|e| io::Error::other(e.to_string()))?,
            )),
            None => None,
        };
        let cache = if config.cache {
            let cache_config = CacheConfig {
                dir: None,
                ..CacheConfig::default()
            };
            Some(TileCache::open(&cache_config).map_err(|e| io::Error::other(e.to_string()))?)
        } else {
            None
        };

        let server = http::Server::start(&config.addr, "cardopc-worker", |server| {
            Arc::new(WorkerState {
                records: Mutex::new(records),
                sink,
                _run_dir: run_dir,
                prepared: Mutex::new(HashMap::new()),
                engines: EngineCache::new(ENGINE_SLOTS),
                cache,
                lane_counter: AtomicUsize::new(0),
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

/// `POST /v1/tiles`: correct (or answer from the record map) a run of
/// tiles, one checkpoint line per tile in request order. The spec is
/// parsed and expanded once for the whole run. The first tile that fails
/// fails the request — with a 500 naming it — but everything finished
/// before it stays in the record map, so the re-dispatch is answered from
/// memory.
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
    let prepared = {
        let guard = state
            .prepared
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        guard.get(&spec_key).cloned()
    };
    let prepared = match prepared {
        Some(p) => p,
        None => {
            // Built outside the lock: preparation rasterises nothing but
            // partitioning a big clip is not free, and a concurrent
            // duplicate build is harmless (both produce identical state).
            let clip = match spec.build_clip() {
                Ok(c) => c,
                Err(e) => return Response::error(400, &format!("unusable spec: {e}")),
            };
            let partition = match partition_clip(&clip, &spec.tiling) {
                Ok(p) => p,
                Err(e) => return Response::error(400, &format!("unusable spec: {e}")),
            };
            let flow = CardOpc::new(spec.opc.clone());
            let built = Arc::new(Prepared { partition, flow });
            let mut guard = state
                .prepared
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            guard.entry(spec_key).or_insert_with(|| Arc::clone(&built));
            built
        }
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
    let lane = state.lane_counter.fetch_add(1, Ordering::Relaxed);
    let mut answer = String::new();
    for tile_index in tiles {
        if let Err(message) = answer_tile(state, &prepared, tile_index, lane, &mut answer) {
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
    Response::text(200, answer)
}

/// Appends one tile's checkpoint line (and its newline) to `answer`: from
/// the record map when the tile's input hash is known, else by correcting
/// it, checkpointing the line and remembering it.
fn answer_tile(
    state: &WorkerState,
    prepared: &Prepared,
    tile_index: usize,
    lane: usize,
    answer: &mut String,
) -> Result<(), String> {
    let tile = &prepared.partition.tiles[tile_index];
    let hash = tile_input_hash(tile, prepared.flow.config());
    let lock_records = || state.records.lock().unwrap_or_else(PoisonError::into_inner);
    let push = |answer: &mut String, line: &str| {
        answer.push_str(line);
        answer.push('\n');
    };

    // Record-map hit: a re-dispatch, steal duplicate, or post-restart
    // replay is answered without recomputation.
    if let Some(known) = lock_records().get(&hash) {
        push(answer, &known.line);
        return Ok(());
    }

    let control = RunControl {
        engines: Some(&state.engines),
        cache: state.cache.as_ref(),
        ..RunControl::default()
    };
    let corrected = correct_single_tile(
        &prepared.partition,
        tile_index,
        &prepared.flow,
        &control,
        lane,
    );
    let record = match corrected {
        Ok(Some(record)) => record,
        // No cancellation handle is attached, so `None` cannot happen;
        // answer defensively rather than panicking the handler.
        Ok(None) => return Err("correction cancelled".into()),
        Err(e) => return Err(format!("tile {tile_index} failed: {e}")),
    };
    // Encoded once, before the lock: this line is the response, the
    // checkpoint and the `/v1/records` entry.
    let line = record.to_json_line();
    let mut records = lock_records();
    match records.entry(hash) {
        // A concurrent duplicate finished first; serve its line so the
        // checkpoint file and the response agree.
        Entry::Occupied(existing) => push(answer, &existing.get().line),
        Entry::Vacant(slot) => {
            if let Some(sink) = &state.sink {
                let mut file = sink.lock().unwrap_or_else(PoisonError::into_inner);
                RunDir::append_line(&mut file, &line)
                    .map_err(|e| format!("checkpoint append failed: {e}"))?;
            }
            push(answer, &line);
            slot.insert(KnownRecord {
                index: record.index,
                line,
            });
            state.tiles_done.fetch_add(1, Ordering::AcqRel);
        }
    }
    Ok(())
}

/// `GET /v1/records`: every checkpointed record as JSONL, sorted by tile
/// index then hash (deterministic output for tests and debugging).
fn records_jsonl(state: &WorkerState) -> Response {
    let records = state.records.lock().unwrap_or_else(PoisonError::into_inner);
    let mut entries: Vec<(usize, u64, &str)> = records
        .iter()
        .map(|(&hash, known)| (known.index, hash, known.line.as_str()))
        .collect();
    entries.sort_unstable_by_key(|&(index, hash, _)| (index, hash));
    let mut body = String::new();
    for (_, _, line) in entries {
        body.push_str(line);
        body.push('\n');
    }
    Response::text(200, body)
}
