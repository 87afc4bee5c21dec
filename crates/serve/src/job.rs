//! Job lifecycle: bounded admission, queued→running→terminal state
//! machine, and the executor threads that drive the runtime.
//!
//! The store is one mutex + condvar. Admission (`submit`) is O(1) and
//! rejects — never blocks — when the queue is full or the server is
//! draining; correction work happens on dedicated executor threads (one
//! per `max_inflight` slot) that share the process-wide
//! [`WorkerPool`](cardopc_litho::WorkerPool) and a cross-job
//! [`EngineCache`] (one engine per window extent, pitch and precision,
//! shared by every executor). Because each tile's correction is a pure
//! function of its input and results are merged in tile order, jobs
//! running concurrently produce byte-identical manifests to jobs run alone.
//!
//! Retention is bounded too: only the newest `retain_terminal` finished
//! jobs (and their result documents) are kept — older ones are evicted,
//! and clients can free a result early with `DELETE /v1/jobs/{id}`.

use crate::fleet::WorkerRegistry;
use crate::metrics::Metrics;
use crate::wire::JobSpec;
use cardopc_fleet::{run_fleet, FleetConfig, FleetError};
use cardopc_json::Json;
use cardopc_litho::WorkerPool;
use cardopc_runtime::{
    run_clip_controlled, EngineCache, RunControl, RunHandle, RunOutcome, TileCache,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Job lifecycle states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for an executor slot.
    Queued,
    /// An executor is correcting tiles.
    Running,
    /// Finished; the result is available.
    Done,
    /// The runtime returned an error (or panicked).
    Failed,
    /// Cancelled while queued, or cancelled mid-run (checkpointed tiles
    /// remain; resubmitting with the same `run_dir` resumes).
    Cancelled,
}

impl JobState {
    /// Wire name of the state.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job can no longer change state.
    pub fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Per-tile progress, mirrored from the runtime's checkpoint stream.
#[derive(Clone, Copy, Debug, Default)]
struct Progress {
    completed: usize,
    total: usize,
    resumed: usize,
    cache_hits: usize,
    cache_misses: usize,
}

struct Job {
    state: JobState,
    /// Consumed when the job starts running.
    spec: Option<JobSpec>,
    run_dir_name: Option<String>,
    handle: RunHandle,
    progress: Progress,
    error: Option<String>,
    /// Full result document, set when the job reaches `Done`.
    result: Option<Json>,
    submitted: Instant,
}

struct Inner {
    jobs: HashMap<String, Job>,
    /// FIFO of queued job ids (entries may point at jobs cancelled while
    /// queued; executors skip those).
    queue: std::collections::VecDeque<String>,
    /// Terminal job ids, oldest first. Bounds retention: once more than
    /// `retain_terminal` jobs are terminal, the oldest are evicted from
    /// `jobs` so a long-lived server's memory does not grow with every
    /// job it has ever served (result documents hold full contour sets).
    terminal: std::collections::VecDeque<String>,
    next_id: u64,
    draining: bool,
    shutdown: bool,
}

impl Inner {
    /// Records `id` as terminal and evicts beyond the retention cap.
    fn note_terminal(&mut self, id: &str, retain: usize, metrics: &Metrics) {
        self.terminal.push_back(id.to_string());
        while self.terminal.len() > retain {
            if let Some(old) = self.terminal.pop_front() {
                if self.jobs.remove(&old).is_some() {
                    metrics.jobs_evicted.inc();
                }
            }
        }
    }
}

/// Admission failure modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full; the client should retry later (429).
    Full,
    /// The server is draining and admits nothing new (503).
    Draining,
}

/// Result of a `GET .../result` lookup.
pub enum ResultLookup {
    /// No such job (404).
    NotFound,
    /// The job is not `Done`; the carried state explains why, and a
    /// failed job also carries its error detail (409).
    NotReady(JobState, Option<String>),
    /// The serialised result document (200).
    Ready(String),
}

/// Result of a `DELETE /v1/jobs/{id}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeleteOutcome {
    /// No such job (404).
    NotFound,
    /// The job is still queued or running; cancel it first (409).
    NotTerminal(JobState),
    /// Removed from the store (200).
    Deleted,
}

/// The shared job store.
pub struct JobStore {
    inner: Mutex<Inner>,
    wake: Condvar,
    max_queued: usize,
    retain_terminal: usize,
    metrics: Arc<Metrics>,
    engines: EngineCache,
    /// Cross-job content-addressed tile cache; `None` disables caching
    /// server-wide (jobs can also opt out individually via the wire
    /// format's `"cache": false`).
    cache: Option<Arc<TileCache>>,
    /// Fleet worker registry; while non-empty, jobs are sharded across
    /// the registered workers instead of running in-process.
    workers: Arc<WorkerRegistry>,
}

impl JobStore {
    /// An empty store admitting at most `max_queued` waiting jobs and
    /// retaining at most `retain_terminal` finished ones.
    pub fn new(
        max_queued: usize,
        retain_terminal: usize,
        metrics: Arc<Metrics>,
        cache: Option<Arc<TileCache>>,
        workers: Arc<WorkerRegistry>,
    ) -> JobStore {
        JobStore {
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                queue: std::collections::VecDeque::new(),
                terminal: std::collections::VecDeque::new(),
                next_id: 1,
                draining: false,
                shutdown: false,
            }),
            wake: Condvar::new(),
            max_queued: max_queued.max(1),
            retain_terminal: retain_terminal.max(1),
            metrics,
            engines: EngineCache::default(),
            cache,
            workers,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits a job, returning its id.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Draining`] once a drain has begun,
    /// [`SubmitError::Full`] when `max_queued` jobs are already waiting.
    pub fn submit(&self, spec: JobSpec) -> Result<String, SubmitError> {
        let mut inner = self.lock();
        if inner.draining || inner.shutdown {
            self.metrics.drain_rejected.inc();
            return Err(SubmitError::Draining);
        }
        let queued = inner
            .queue
            .iter()
            .filter(|id| {
                inner
                    .jobs
                    .get(*id)
                    .is_some_and(|j| j.state == JobState::Queued)
            })
            .count();
        if queued >= self.max_queued {
            self.metrics.admission_rejected.inc();
            return Err(SubmitError::Full);
        }
        let id = format!("job-{}", inner.next_id);
        inner.next_id += 1;
        let run_dir_name = spec.run_dir_name.clone();
        self.metrics.record_job_precision(spec.config.opc.precision);
        self.metrics
            .record_design_ingested(&spec.work.design.source);
        inner.jobs.insert(
            id.clone(),
            Job {
                state: JobState::Queued,
                spec: Some(spec),
                run_dir_name,
                handle: RunHandle::new(),
                progress: Progress::default(),
                error: None,
                result: None,
                submitted: Instant::now(),
            },
        );
        inner.queue.push_back(id.clone());
        self.metrics.jobs_submitted.inc();
        self.metrics.queue_depth.inc();
        drop(inner);
        self.wake.notify_all();
        Ok(id)
    }

    /// The job's status document, or `None` for an unknown id.
    pub fn status(&self, id: &str) -> Option<String> {
        let inner = self.lock();
        let job = inner.jobs.get(id)?;
        let p = job.progress;
        let doc = Json::obj(vec![
            ("id", Json::Str(id.to_string())),
            ("state", Json::Str(job.state.name().to_string())),
            (
                "progress",
                Json::obj(vec![
                    ("completed", Json::num_usize(p.completed)),
                    ("total", Json::num_usize(p.total)),
                    ("resumed", Json::num_usize(p.resumed)),
                    ("cache_hits", Json::num_usize(p.cache_hits)),
                    ("cache_misses", Json::num_usize(p.cache_misses)),
                ]),
            ),
            (
                "run_dir",
                match &job.run_dir_name {
                    Some(name) => Json::Str(name.clone()),
                    None => Json::Null,
                },
            ),
            (
                "error",
                match &job.error {
                    Some(msg) => Json::Str(msg.clone()),
                    None => Json::Null,
                },
            ),
        ]);
        Some(doc.to_string_compact())
    }

    /// The job's result document (only once `Done`).
    pub fn result(&self, id: &str) -> ResultLookup {
        let inner = self.lock();
        match inner.jobs.get(id) {
            None => ResultLookup::NotFound,
            Some(job) => match &job.result {
                Some(doc) => ResultLookup::Ready(doc.to_string_compact()),
                None => ResultLookup::NotReady(job.state, job.error.clone()),
            },
        }
    }

    /// Requests cancellation. Queued jobs terminate immediately; running
    /// jobs stop at the next tile boundary (their checkpoints remain).
    /// Returns the job's state after the request, `None` for unknown ids.
    /// Cancelling a terminal job is a no-op (idempotent).
    pub fn cancel(&self, id: &str) -> Option<JobState> {
        let mut inner = self.lock();
        let job = inner.jobs.get_mut(id)?;
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                job.spec = None;
                let elapsed = job.submitted.elapsed().as_secs_f64();
                self.metrics.jobs_cancelled.inc();
                self.metrics.queue_depth.dec();
                self.metrics.job_seconds.observe(elapsed);
                inner.note_terminal(id, self.retain_terminal, &self.metrics);
                drop(inner);
                self.wake.notify_all();
                Some(JobState::Cancelled)
            }
            JobState::Running => {
                job.handle.cancel();
                Some(JobState::Running)
            }
            terminal => Some(terminal),
        }
    }

    /// Begins a drain: stop admitting, cancel queued jobs, and ask running
    /// jobs to stop at their next tile boundary (checkpointing what
    /// finished). Idempotent.
    pub fn drain(&self) {
        let mut inner = self.lock();
        inner.draining = true;
        let queued: Vec<String> = inner.queue.iter().cloned().collect();
        for id in queued {
            let Some(job) = inner.jobs.get_mut(&id) else {
                continue;
            };
            if job.state == JobState::Queued {
                job.state = JobState::Cancelled;
                job.spec = None;
                self.metrics.jobs_cancelled.inc();
                self.metrics.queue_depth.dec();
                inner.note_terminal(&id, self.retain_terminal, &self.metrics);
            }
        }
        for job in inner.jobs.values() {
            if job.state == JobState::Running {
                job.handle.cancel();
            }
        }
        drop(inner);
        self.wake.notify_all();
    }

    /// Whether a drain has begun.
    pub fn draining(&self) -> bool {
        self.lock().draining
    }

    /// Blocks until a drain is requested.
    pub fn wait_drain_requested(&self) {
        let mut inner = self.lock();
        while !inner.draining {
            inner = self
                .wake
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until no job is queued or running (used by the drain path).
    pub fn wait_idle(&self) {
        let mut inner = self.lock();
        while inner.jobs.values().any(|j| !j.state.terminal()) {
            inner = self
                .wake
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Tells executor threads to exit once the queue is empty.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.wake.notify_all();
    }

    /// Executor thread body: claim queued jobs and run them until
    /// shutdown. The server spawns `max_inflight` of these.
    pub fn run_executor(self: &Arc<Self>) {
        loop {
            let (id, spec, handle) = {
                let mut inner = self.lock();
                loop {
                    // Skip over entries cancelled while queued.
                    while let Some(front) = inner.queue.front() {
                        if inner
                            .jobs
                            .get(front)
                            .is_some_and(|j| j.state == JobState::Queued)
                        {
                            break;
                        }
                        inner.queue.pop_front();
                    }
                    if inner.queue.is_empty() {
                        if inner.shutdown {
                            return;
                        }
                        inner = self
                            .wake
                            .wait(inner)
                            .unwrap_or_else(PoisonError::into_inner);
                        continue;
                    }
                    break;
                }
                let id = inner.queue.pop_front().expect("non-empty queue");
                let job = inner.jobs.get_mut(&id).expect("queued job exists");
                job.state = JobState::Running;
                let spec = job.spec.take().expect("queued job has a spec");
                let handle = job.handle.clone();
                self.metrics.queue_depth.dec();
                self.metrics.inflight.inc();
                (id, spec, handle)
            };

            let outcome = self.execute(&id, &spec, &handle);
            self.finish(&id, outcome);
        }
    }

    /// Runs one job's correction (no store lock held).
    fn execute(&self, id: &str, spec: &JobSpec, handle: &RunHandle) -> Result<RunOutcome, String> {
        let cache = if spec.cache {
            self.cache.as_deref()
        } else {
            None
        };
        let cache_enabled = cache.is_some();
        let progress = |event: &cardopc_runtime::TileEvent| {
            let mut inner = self.lock();
            if let Some(job) = inner.jobs.get_mut(id) {
                job.progress.completed = event.completed;
                job.progress.total = event.total;
                if event.resumed {
                    job.progress.resumed += 1;
                } else if event.cached {
                    // Replayed from the tile cache: count the hit, but
                    // keep the (near-zero) replay time out of the
                    // correction-latency histogram.
                    job.progress.cache_hits += 1;
                } else {
                    if cache_enabled {
                        job.progress.cache_misses += 1;
                    }
                    self.metrics.tile_seconds.observe(event.seconds);
                }
            }
        };
        let control = RunControl {
            progress: Some(&progress),
            handle: Some(handle),
            engines: Some(&self.engines),
            cache,
        };
        let run = AssertUnwindSafe(|| {
            let workers = self.workers.addrs();
            if !workers.is_empty() {
                match self.execute_fleet(spec, workers, &control) {
                    Ok(outcome) => return Ok(outcome),
                    // The fleet ran dry (every worker crashed/retired):
                    // finish the job in-process — checkpointed tiles are
                    // resumed when the job has a run_dir.
                    // A Spec failure here means the design file changed
                    // underfoot after submission validated it; the job's
                    // clip was already built, so run it in-process too.
                    Err(
                        FleetError::NoWorkers
                        | FleetError::WorkersExhausted { .. }
                        | FleetError::Spec(_),
                    ) => {}
                    Err(FleetError::Runtime(e)) => return Err(e),
                }
            }
            run_clip_controlled(&spec.clip, &spec.config, WorkerPool::global(), &control)
        });
        match catch_unwind(run) {
            Ok(Ok(outcome)) => Ok(outcome),
            Ok(Err(e)) => Err(e.to_string()),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "correction panicked".to_string());
                Err(format!("internal error: {msg}"))
            }
        }
    }

    /// Shards one job across the registered fleet workers. Both executors
    /// conclude through the same run frame (the timing-free manifest is
    /// byte-identical by construction), so clients cannot tell where a
    /// job ran.
    fn execute_fleet(
        &self,
        spec: &JobSpec,
        workers: Vec<std::net::SocketAddr>,
        control: &RunControl<'_>,
    ) -> Result<RunOutcome, FleetError> {
        self.metrics.fleet_jobs.inc();
        let config = FleetConfig {
            workers,
            run_dir: spec.config.run_dir.clone(),
            max_tiles: spec.config.max_tiles,
            ..FleetConfig::default()
        };
        let outcome = run_fleet(&spec.work, &config, control)?;
        let stats = outcome.stats;
        self.metrics
            .fleet_tiles_dispatched
            .add(stats.dispatched as u64);
        self.metrics.fleet_requests.add(stats.requests as u64);
        self.metrics.fleet_tiles_stolen.add(stats.stolen as u64);
        self.metrics
            .fleet_tiles_redispatched
            .add(stats.redispatched as u64);
        self.metrics.fleet_duplicates.add(stats.duplicates as u64);
        self.metrics
            .fleet_workers_retired
            .add(stats.retired_workers as u64);
        self.metrics
            .fleet_tiles_recovered
            .add(stats.recovered as u64);
        Ok(outcome.into())
    }

    /// Removes a terminal job from the store (freeing its result
    /// document). Queued/running jobs must be cancelled first.
    pub fn delete(&self, id: &str) -> DeleteOutcome {
        let mut inner = self.lock();
        match inner.jobs.get(id) {
            None => DeleteOutcome::NotFound,
            Some(job) if !job.state.terminal() => DeleteOutcome::NotTerminal(job.state),
            Some(_) => {
                inner.jobs.remove(id);
                inner.terminal.retain(|t| t != id);
                DeleteOutcome::Deleted
            }
        }
    }

    /// Records a job's terminal state and result document.
    fn finish(&self, id: &str, outcome: Result<RunOutcome, String>) {
        let mut inner = self.lock();
        if let Some(job) = inner.jobs.get_mut(id) {
            let elapsed = job.submitted.elapsed().as_secs_f64();
            match outcome {
                Ok(outcome) if outcome.cancelled => {
                    job.state = JobState::Cancelled;
                    self.metrics.jobs_cancelled.inc();
                }
                Ok(outcome) => {
                    job.result = Some(result_document(id, &outcome));
                    job.state = JobState::Done;
                    self.metrics.jobs_done.inc();
                }
                Err(msg) => {
                    job.error = Some(msg);
                    job.state = JobState::Failed;
                    self.metrics.jobs_failed.inc();
                }
            }
            self.metrics.inflight.dec();
            self.metrics.job_seconds.observe(elapsed);
            inner.note_terminal(id, self.retain_terminal, &self.metrics);
        }
        drop(inner);
        self.wake.notify_all();
    }
}

/// Builds the result document: the *timing-free* manifest embedded as a
/// parsed subtree (the hand-rolled JSON round-trips bit-exactly, so
/// re-serialising it reproduces `manifest.to_json(false)` byte for byte)
/// plus the stitched contours when the run completed.
fn result_document(id: &str, outcome: &RunOutcome) -> Json {
    let manifest =
        Json::parse(&outcome.manifest.to_json(false)).expect("runtime manifests are valid JSON");
    let contours = match &outcome.stitched {
        None => Json::Null,
        Some(stitched) => Json::obj(vec![
            ("mains", shapes_json(&stitched.mains)),
            ("srafs", shapes_json(&stitched.srafs)),
            (
                "seam_violations",
                Json::num_usize(stitched.seam_violations.len()),
            ),
        ]),
    };
    Json::obj(vec![
        ("id", Json::Str(id.to_string())),
        ("complete", Json::Bool(outcome.complete)),
        ("manifest", manifest),
        ("contours", contours),
    ])
}

fn shapes_json(shapes: &[cardopc_runtime::StitchedShape]) -> Json {
    Json::Arr(
        shapes
            .iter()
            .map(|shape| {
                Json::obj(vec![
                    (
                        "global_id",
                        match shape.global_id {
                            Some(id) => Json::num_usize(id),
                            None => Json::Null,
                        },
                    ),
                    ("tension", Json::Num(shape.tension)),
                    (
                        "control_points",
                        Json::Arr(
                            shape
                                .control_points
                                .iter()
                                .map(|p| Json::num_arr(&[p.x, p.y]))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}
