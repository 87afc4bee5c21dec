//! `cardopc-serve` — an HTTP correction service over the tiled runtime.
//!
//! The service turns [`cardopc_runtime`] into a long-lived process:
//! clients `POST` correction jobs as JSON, poll per-tile progress, and
//! fetch results whose timing-free manifest is **byte-identical** to a
//! direct `cardopc-runtime` run of the same input — including when jobs
//! run concurrently, because every tile is a pure function of its input
//! and the scheduler merges results in tile order.
//!
//! Like the repo's proptest/criterion stand-ins, everything is
//! hand-rolled on `std` (the build containers have no crates.io access):
//! HTTP parsing ([`http`]), the wire format ([`wire`]), metrics
//! ([`metrics`]), and the job machinery ([`job`]).
//!
//! # Endpoints
//!
//! | Method & path               | Purpose                                   |
//! |-----------------------------|-------------------------------------------|
//! | `POST /v1/jobs`             | submit a job (201, or 429/503 on refusal) |
//! | `GET /v1/jobs/{id}`         | state + per-tile progress                 |
//! | `GET /v1/jobs/{id}/result`  | manifest + corrected contours (409 early) |
//! | `POST /v1/jobs/{id}/cancel` | cooperative cancel (checkpoints remain)   |
//! | `DELETE /v1/jobs/{id}`      | drop a terminal job's record (409 else)   |
//! | `POST /v1/workers`          | register fleet workers (spawn or connect) |
//! | `GET /v1/workers`           | registered workers with health probes     |
//! | `GET /healthz`              | liveness + drain state                    |
//! | `GET /metrics`              | Prometheus text metrics                   |
//! | `POST /admin/drain`         | stop admitting, finish in-flight, exit    |
//!
//! # Backpressure
//!
//! Admission is bounded: at most `max_queued` jobs wait and
//! `max_inflight` run. An overflowing submit is answered `429 Too Many
//! Requests` with a `Retry-After` header — the service sheds load at the
//! door instead of queueing unboundedly. Memory is bounded on the way
//! out too: only the newest `retain_terminal` finished jobs stay
//! queryable. Connections are bounded by the shared [`http::Server`],
//! whose doc states its slot cap, shed policy and keep-alive rules.

pub mod fleet;
pub mod job;
pub mod metrics;
pub mod wire;

// The HTTP subset and its client live in `cardopc-fleet` (the fleet wire
// protocol shares them); re-exported for `cardopc_serve::http`/`::client`.
pub use cardopc_fleet::{client, http};

use fleet::WorkerRegistry;
use http::Response;
use job::{DeleteOutcome, JobStore, ResultLookup, SubmitError};
use metrics::Metrics;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Maximum jobs waiting for an executor (beyond → 429).
    pub max_queued: usize,
    /// Number of executor threads (concurrent jobs).
    pub max_inflight: usize,
    /// Newest terminal (done/failed/cancelled) jobs kept queryable;
    /// older ones are evicted so memory does not grow with every job
    /// ever served. `DELETE /v1/jobs/{id}` frees a result sooner.
    pub retain_terminal: usize,
    /// Directory under which job `run_dir` names are resolved.
    pub run_root: PathBuf,
    /// Whether jobs share a content-addressed tile correction cache
    /// (`false` disables it server-wide; individual jobs can also opt
    /// out with `"cache": false`).
    pub cache: bool,
    /// Persist the tile cache under this directory; `None` keeps it
    /// in memory only (lost on restart).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:8650".to_string(),
            max_queued: 16,
            max_inflight: 1,
            retain_terminal: 256,
            run_root: PathBuf::from("runs"),
            cache: true,
            cache_dir: None,
        }
    }
}

/// Shared per-connection context.
struct Shared {
    store: Arc<JobStore>,
    metrics: Arc<Metrics>,
    cache: Option<Arc<cardopc_runtime::TileCache>>,
    workers: Arc<WorkerRegistry>,
    run_root: PathBuf,
}

/// A running correction service.
pub struct Server {
    http: http::Server,
    shared: Arc<Shared>,
    executors: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the executor and accept threads, and returns.
    ///
    /// # Errors
    ///
    /// Bind/listen failures and an uncreatable run root.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        std::fs::create_dir_all(&config.run_root)?;
        let metrics = Arc::new(Metrics::default());
        let cache = if config.cache {
            let cache_config = cardopc_runtime::CacheConfig {
                dir: config.cache_dir.clone(),
            };
            Some(Arc::new(
                cardopc_runtime::TileCache::open(&cache_config)
                    .map_err(|e| io::Error::other(e.to_string()))?,
            ))
        } else {
            None
        };
        let workers = Arc::new(WorkerRegistry::new(Arc::clone(&metrics)));
        let store = Arc::new(JobStore::new(
            config.max_queued,
            config.retain_terminal,
            Arc::clone(&metrics),
            cache.clone(),
            Arc::clone(&workers),
        ));

        let executors = (0..config.max_inflight.max(1))
            .map(|i| {
                let store = Arc::clone(&store);
                std::thread::Builder::new()
                    .name(format!("cardopc-exec-{i}"))
                    .spawn(move || store.run_executor())
            })
            .collect::<io::Result<Vec<_>>>()?;

        let shared = Arc::new(Shared {
            store,
            metrics,
            cache,
            workers,
            run_root: config.run_root,
        });
        let http = http::Server::start(&config.addr, "cardopc", |_| Arc::clone(&shared))?;
        Ok(Server {
            http,
            shared,
            executors,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// The fleet worker registry (what `POST /v1/workers` mutates);
    /// embedders can register workers programmatically.
    pub fn workers(&self) -> &Arc<WorkerRegistry> {
        &self.shared.workers
    }

    /// Blocks until a drain has been requested (via `POST /admin/drain`
    /// or [`Server::drain`]) and every job has reached a terminal state.
    /// This is the serve-mode main thread's parking spot; returning means
    /// the process can exit 0.
    pub fn wait_drained(&self) {
        self.shared.store.wait_drain_requested();
        self.shared.store.wait_idle();
    }

    /// Initiates a drain programmatically (equivalent to
    /// `POST /admin/drain`): stop admitting, cancel queued jobs, stop
    /// running jobs at their next tile boundary.
    pub fn drain(&self) {
        self.shared.store.drain();
    }

    /// Full stop: drain, wait for jobs to settle, stop the HTTP server,
    /// and join every thread. Called by `Drop`; explicit calls are
    /// idempotent.
    pub fn shutdown(&mut self) {
        self.shared.store.drain();
        self.shared.store.wait_idle();
        self.shared.store.shutdown();
        self.http.stop();
        for thread in self.executors.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl http::Handler for Shared {
    fn route(&self, request: &http::Request) -> Response {
        let method = request.method.as_str();
        let path = request.path.as_str();
        match (method, path) {
            ("GET", "/healthz") => Response::json(
                200,
                cardopc_json::Json::obj(vec![
                    ("ok", cardopc_json::Json::Bool(true)),
                    ("draining", cardopc_json::Json::Bool(self.store.draining())),
                ])
                .to_string_compact(),
            ),
            ("GET", "/metrics") => Response::text(
                200,
                self.metrics
                    .render_with_cache(self.cache.as_ref().map(|c| c.stats())),
            ),
            ("POST", "/v1/jobs") => submit(request, self),
            ("POST", "/v1/workers") => register_workers(request, self),
            ("GET", "/v1/workers") => Response::json(200, self.workers.document()),
            ("POST", "/admin/drain") => {
                self.store.drain();
                Response::json(202, r#"{"draining":true}"#)
            }
            // Any method: job_route answers 405 itself for wrong methods, so
            // e.g. PUT /v1/jobs/{id} is a 405, not a 404 like unknown paths.
            _ if path.starts_with("/v1/jobs/") => job_route(request, self),
            (_, "/healthz" | "/metrics" | "/v1/jobs" | "/v1/workers" | "/admin/drain") => {
                Response::error(405, "method not allowed")
            }
            _ => Response::error(404, "no such route"),
        }
    }

    fn answered(&self, response: &Response) {
        self.metrics.http_requests.inc();
        match response.status {
            400..=499 => self.metrics.http_client_errors.inc(),
            500..=599 => self.metrics.http_server_errors.inc(),
            _ => {}
        }
    }
}

/// `POST /v1/jobs`: parse, validate, admit.
fn submit(request: &http::Request, shared: &Shared) -> Response {
    let Some(body) = request.body_str() else {
        return Response::error(400, "request body must be UTF-8 JSON");
    };
    let spec = match wire::parse_job(body, &shared.run_root) {
        Ok(spec) => spec,
        Err(msg) => return Response::error(400, &msg),
    };
    match shared.store.submit(spec) {
        Ok(id) => Response::json(
            201,
            cardopc_json::Json::obj(vec![
                ("id", cardopc_json::Json::Str(id)),
                ("state", cardopc_json::Json::Str("queued".to_string())),
            ])
            .to_string_compact(),
        ),
        Err(SubmitError::Full) => {
            Response::error(429, "job queue is full").with_header("retry-after", "1")
        }
        // Draining is longer-lived than a full queue, so hint a longer
        // retry (the peer may be load-balancing across replicas anyway).
        Err(SubmitError::Draining) => {
            Response::error(503, "server is draining").with_header("retry-after", "5")
        }
    }
}

/// `POST /v1/workers`: register fleet workers — `{"spawn_local": N}`
/// starts N in-process workers, `{"addr": "host:port"}` connects a
/// running `cardopc worker` after a health probe.
fn register_workers(request: &http::Request, shared: &Shared) -> Response {
    let Some(body) = request.body_str() else {
        return Response::error(400, "request body must be UTF-8 JSON");
    };
    let json = match cardopc_json::Json::parse(body) {
        Ok(json) => json,
        Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
    };
    if !matches!(json, cardopc_json::Json::Obj(_)) {
        return Response::error(400, "body must be a JSON object");
    }
    if let Err(msg) = cardopc_fleet::spec::reject_unknown(&json, &["spawn_local", "addr"]) {
        return Response::error(400, &msg);
    }
    let added = match (json.get("spawn_local"), json.get("addr")) {
        (Some(n), None) => {
            let Some(count) = n.as_usize().filter(|&c| (1..=64).contains(&c)) else {
                return Response::error(400, "'spawn_local' must be an integer in 1..=64");
            };
            match shared.workers.spawn_local(count) {
                Ok(addrs) => addrs,
                Err(e) => return Response::error(500, &format!("cannot spawn workers: {e}")),
            }
        }
        (None, Some(addr)) => {
            let Some(addr) = addr.as_str().and_then(|s| s.parse::<SocketAddr>().ok()) else {
                return Response::error(400, "'addr' must be a \"host:port\" socket address");
            };
            if let Err(msg) = shared.workers.connect(addr) {
                return Response::error(400, &msg);
            }
            vec![addr]
        }
        _ => {
            return Response::error(400, "provide exactly one of 'spawn_local' or 'addr'");
        }
    };
    Response::json(
        201,
        cardopc_json::Json::obj(vec![
            (
                "added",
                cardopc_json::Json::Arr(
                    added
                        .iter()
                        .map(|a| cardopc_json::Json::Str(a.to_string()))
                        .collect(),
                ),
            ),
            (
                "total",
                cardopc_json::Json::num_usize(shared.workers.addrs().len()),
            ),
        ])
        .to_string_compact(),
    )
}

/// Routes `/v1/jobs/{id}[/result|/cancel]` for every method (wrong
/// methods on a known sub-resource get 405, unknown sub-resources 404).
fn job_route(request: &http::Request, shared: &Shared) -> Response {
    let rest = &request.path["/v1/jobs/".len()..];
    let method = request.method.as_str();
    if let Some(id) = rest.strip_suffix("/cancel") {
        if method != "POST" {
            return Response::error(405, "cancel requires POST");
        }
        return match shared.store.cancel(id) {
            None => Response::error(404, "no such job"),
            Some(state) => Response::json(
                200,
                cardopc_json::Json::obj(vec![
                    ("id", cardopc_json::Json::Str(id.to_string())),
                    ("state", cardopc_json::Json::Str(state.name().to_string())),
                ])
                .to_string_compact(),
            ),
        };
    }
    if let Some(id) = rest.strip_suffix("/result") {
        if method != "GET" {
            return Response::error(405, "result requires GET");
        }
        return match shared.store.result(id) {
            ResultLookup::NotFound => Response::error(404, "no such job"),
            // A failed job's 409 carries the underlying failure detail
            // (panic payload / litho error), not just the bare state.
            ResultLookup::NotReady(state, Some(error)) => {
                Response::error(409, &format!("job is {}: {error}", state.name()))
            }
            ResultLookup::NotReady(state, None) => Response::error(
                409,
                &format!("job is {}; result requires state 'done'", state.name()),
            ),
            ResultLookup::Ready(doc) => Response::json(200, doc),
        };
    }
    if rest.contains('/') {
        return Response::error(404, "no such route");
    }
    match method {
        "GET" => match shared.store.status(rest) {
            None => Response::error(404, "no such job"),
            Some(doc) => Response::json(200, doc),
        },
        "DELETE" => match shared.store.delete(rest) {
            DeleteOutcome::NotFound => Response::error(404, "no such job"),
            DeleteOutcome::NotTerminal(state) => Response::error(
                409,
                &format!("job is {}; cancel it before deleting", state.name()),
            ),
            DeleteOutcome::Deleted => Response::json(
                200,
                cardopc_json::Json::obj(vec![
                    ("id", cardopc_json::Json::Str(rest.to_string())),
                    ("deleted", cardopc_json::Json::Bool(true)),
                ])
                .to_string_compact(),
            ),
        },
        _ => Response::error(405, "job requires GET or DELETE"),
    }
}
