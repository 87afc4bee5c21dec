//! The fleet coordinator: lease-based dispatch of **tile classes** with
//! work stealing, heartbeat-driven worker retirement, and checkpoint
//! recovery.
//!
//! # What a claim is
//!
//! The to-run tiles are grouped into classes — tiles sharing a
//! [`tile_cache_key`](cardopc_runtime::tile_cache_key), so congruent
//! windows — in first-seen order, tile index within a class. A lane's
//! **claim** is one class, sent as one `POST /v1/tiles` that names the
//! class's head (its lowest index). The worker corrects (or replays from
//! its tile cache) the head and answers its entry, which the coordinator
//! places on every tile of the class. Nothing selects this: unique tiles
//! (a logic design) are classes of one and go out one per request; a
//! 64×64 array (9 classes) goes out in 9 requests instead of 4096, and
//! each pattern is corrected once fleet-wide unless a request fails or is
//! stolen. The order — and so every request body — is a function of the
//! partition and the spec alone.
//!
//! # State machine (per class)
//!
//! Every class moves through: **pending** → **leased** (dispatched to a
//! worker, lease clock running) → **done** (first valid answer wins). Each
//! class keeps its own lease list, `done` flag and at most two live
//! leases; `dispatched`, `stolen`, `duplicates` and `redispatched` count
//! the class's tiles. Transitions out of *leased* that do not finish the
//! class put it back in *pending*:
//!
//! - the request that carried it fails or times out (the HTTP read timeout
//!   *is* the lease — a worker that does not answer within it loses the
//!   class);
//! - the owning worker is retired (crash detected by the heartbeat
//!   prober, or `max_failures` consecutive errors).
//!
//! Near the tail an idle lane may **steal**: duplicate-dispatch a class
//! whose every lease is older than `steal_after` to a different worker.
//! The first answer marks the class done; the loser's copy is discarded on
//! arrival (`duplicates` in [`FleetStats`]). Tiles are deterministic, so
//! which copy wins never changes the output — byte-identity by
//! construction.
//!
//! # All-or-nothing answers
//!
//! One request is one worker failure, one IO timeout and one `requests`
//! count, however many tiles its class has. Its answer is one line,
//! accepted or refused as a whole: it must be an entry line of the class
//! key that places ([`TileLine::of`]) on *every* wanted tile of the class
//! before *any* tile settles, so an empty, torn, long, mis-keyed or
//! misplacing answer (or an oversized one, refused by the client before it
//! is read) re-queues the class and checkpoints nothing. Every tile line —
//! index, name, input hash, key, placement — is the coordinator's own,
//! built from its partition; nothing but the entry comes from the worker.
//!
//! # Dispatch topology
//!
//! Each worker gets `window` lane threads, so at most `window` requests
//! are in flight per worker — a slow box can absorb at most its window,
//! not the queue. Lanes pull from the shared pending queue
//! (work-conserving), then fall back to stealing.
//!
//! # Around the dispatch: the run frame
//!
//! Resume from the coordinator's run dir, the tile budget, committing a
//! tile line, progress events, the outcome and the manifests are
//! [`cardopc_runtime::run`]'s — the frame a single-process run uses. The
//! coordinator adds one thing before dispatching: it harvests
//! `GET /v1/records` (each worker's cached entry lines) and lets the frame
//! adopt every tile they place on, so a restart loses no finished work
//! even when its own run dir is gone — a worker's persisted tile cache is
//! the durable copy.

use crate::client::{self, HttpResponse};
use crate::proto;
use crate::spec::WorkSpec;
use cardopc_layout::Clip;
use cardopc_litho::span::span;
use cardopc_runtime::{
    partition_clip, tile_cache_keys, CachedTile, Partition, Run, RunControl, RunManifest,
    RunOutcome, RunStore, RuntimeError, ScheduleOutcome, Stitched, Tile, TileLine,
};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Coordinator configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Worker addresses. At least one; a single worker is a valid
    /// (degenerate) fleet.
    pub workers: Vec<SocketAddr>,
    /// In-flight requests per worker (lane threads). Bounds how much work
    /// a slow worker can absorb.
    pub window: usize,
    /// A dispatch request's IO timeout: a request corrects at most one
    /// tile. A worker that does not answer within it loses the class back
    /// to the queue.
    pub lease: Duration,
    /// Minimum lease age before an idle lane may duplicate-dispatch
    /// (steal) a class leased to another worker.
    pub steal_after: Duration,
    /// Consecutive dispatch failures after which a worker is retired.
    pub max_failures: u32,
    /// Heartbeat probe interval per worker.
    pub heartbeat: Duration,
    /// Heartbeat probe timeout; three consecutive missed probes retire
    /// the worker without waiting out a full lease.
    pub heartbeat_timeout: Duration,
    /// Coordinator checkpoint/manifest directory (same layout as a
    /// single-process run's). `None` disables checkpointing.
    pub run_dir: Option<PathBuf>,
    /// Dispatch at most this many tiles (recovered/resumed tiles are
    /// free); `None` runs to completion.
    pub max_tiles: Option<usize>,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            workers: Vec::new(),
            window: 2,
            lease: Duration::from_secs(120),
            steal_after: Duration::from_secs(20),
            max_failures: 3,
            heartbeat: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_secs(1),
            run_dir: None,
            max_tiles: None,
        }
    }
}

/// Dispatch/robustness counters of one fleet run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Tile dispatch attempts (including steals and re-dispatches).
    pub dispatched: usize,
    /// Steal dispatches (duplicate of a still-leased tile).
    pub stolen: usize,
    /// Results discarded because another dispatch finished the tile
    /// first.
    pub duplicates: usize,
    /// Tiles returned to the queue after a failed/expired dispatch.
    pub redispatched: usize,
    /// Workers retired (crashed, hung, or persistently failing).
    pub retired_workers: usize,
    /// Tiles adopted from workers' checkpoints during startup recovery.
    pub recovered: usize,
    /// `POST /v1/tiles` requests sent: one per class claimed, re-dispatches
    /// and steals included.
    pub requests: usize,
}

/// Result of a fleet run. `outcome`/`stitched`/`manifest` mirror a
/// single-process [`cardopc_runtime::RunOutcome`] over the same input.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// The run manifest (timing-free form byte-identical to the
    /// single-process runtime's).
    pub manifest: RunManifest,
    /// The stitched full-chip mask; `None` when incomplete.
    pub stitched: Option<Stitched>,
    /// The assembled scheduler-equivalent outcome (results sorted by tile
    /// index; `resumed` counts own-checkpoint plus worker-recovered
    /// tiles).
    pub outcome: ScheduleOutcome,
    /// Dispatch/robustness counters.
    pub stats: FleetStats,
    /// `true` when every tile of the partition completed.
    pub complete: bool,
    /// `true` when the run stopped early on a cancelled handle.
    pub cancelled: bool,
}

impl From<FleetOutcome> for RunOutcome {
    /// Where the tiles were corrected is not part of a run's outcome.
    fn from(fleet: FleetOutcome) -> RunOutcome {
        RunOutcome::new(fleet.manifest, fleet.stitched, fleet.outcome)
    }
}

/// Why a fleet run could not produce an outcome.
#[derive(Debug)]
pub enum FleetError {
    /// The configuration listed no workers.
    NoWorkers,
    /// Every worker was retired with tiles still unfinished.
    WorkersExhausted {
        /// Tiles left neither done nor recoverable.
        remaining: usize,
    },
    /// A runtime-layer failure (partitioning, checkpoint IO, or a tile
    /// that failed identically on every worker that tried it).
    Runtime(RuntimeError),
    /// The work spec's design could not be materialised (e.g. an
    /// unreadable or malformed GDS file).
    Spec(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoWorkers => write!(f, "fleet has no workers"),
            FleetError::WorkersExhausted { remaining } => {
                write!(f, "all workers retired with {remaining} tiles unfinished")
            }
            FleetError::Runtime(e) => write!(f, "{e}"),
            FleetError::Spec(msg) => write!(f, "unusable spec: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<RuntimeError> for FleetError {
    fn from(e: RuntimeError) -> FleetError {
        FleetError::Runtime(e)
    }
}

/// One class of congruent to-run tiles: fixed for the run, read without
/// the lock.
struct Class {
    /// The [`tile_cache_key`](cardopc_runtime::tile_cache_key) its tiles
    /// share.
    key: u64,
    /// `(tile index, input hash)` of each wanted tile, index order: the
    /// first is the head a request names.
    tiles: Vec<(usize, u64)>,
}

/// One class's dispatch state.
#[derive(Default)]
struct ClassSlot {
    done: bool,
    in_pending: bool,
    /// Live leases: `(worker id, dispatch instant)`.
    leases: Vec<(usize, Instant)>,
}

struct WorkerSlot {
    addr: SocketAddr,
    failures: u32,
    heartbeat_misses: u32,
    retired: bool,
}

struct State {
    /// Dispatch state of `Shared::classes`, position for position.
    slots: Vec<ClassSlot>,
    pending: VecDeque<usize>,
    /// Classes done.
    done: usize,
    workers: Vec<WorkerSlot>,
    alive: usize,
    stats: FleetStats,
    /// Lowest-indexed tile whose dispatch failed with a worker-side tile
    /// error (HTTP 500) — surfaced if the run cannot complete.
    tile_error: Option<(usize, String)>,
    aborted: bool,
    active_lanes: usize,
}

struct Shared<'a> {
    state: Mutex<State>,
    cv: Condvar,
    /// The run frame: decides what is resumed, commits what the lanes
    /// settle, and says when to stop claiming.
    run: Run<'a>,
    /// The to-run classes in claim order: first-seen order.
    classes: Vec<Class>,
    partition: &'a Partition,
    spec: &'a WorkSpec,
    config: &'a FleetConfig,
}

impl Shared<'_> {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Runs one correction job across the configured workers and assembles
/// the same outcome a single-process run would produce.
///
/// `control` supplies per-tile progress events and cooperative
/// cancellation; its engine/tile caches are ignored (the coordinator
/// corrects nothing itself).
///
/// # Errors
///
/// [`FleetError::NoWorkers`] for an empty fleet,
/// [`FleetError::WorkersExhausted`] when every worker was retired with
/// tiles unfinished, [`FleetError::Runtime`] for partition/checkpoint
/// failures or a tile whose correction fails on the workers.
///
/// # Panics
///
/// Panics when `spec.opc` is invalid (mirrors
/// [`cardopc_runtime::run_clip`]'s contract); wire-facing callers
/// validate first via [`crate::spec::validate`].
pub fn run_fleet(
    spec: &WorkSpec,
    config: &FleetConfig,
    control: &RunControl<'_>,
) -> Result<FleetOutcome, FleetError> {
    if config.workers.is_empty() {
        return Err(FleetError::NoWorkers);
    }
    let clip = spec.build_clip().map_err(FleetError::Spec)?;
    run_fleet_clip(spec, &clip, config, control)
}

/// [`run_fleet`] on `clip`, the design `spec.design` builds, already
/// built by the caller (the CLI reads its design once, before any worker
/// spawns). The workers still build it from the spec.
///
/// # Errors
///
/// As [`run_fleet`], less the design's own errors.
///
/// # Panics
///
/// As [`run_fleet`].
pub fn run_fleet_clip(
    spec: &WorkSpec,
    clip: &Clip,
    config: &FleetConfig,
    control: &RunControl<'_>,
) -> Result<FleetOutcome, FleetError> {
    let start = Instant::now();
    if config.workers.is_empty() {
        return Err(FleetError::NoWorkers);
    }
    let partition = {
        let _span = span("partition");
        partition_clip(clip, &spec.tiling)?
    };
    let mut store = RunStore::open(config.run_dir.as_deref())?;
    // The coordinator corrects nothing itself: no engine or tile cache.
    let control = RunControl {
        progress: control.progress,
        handle: control.handle,
        ..RunControl::default()
    };
    let checkpoints = std::mem::take(&mut store.checkpoints);
    let sink = store.sink.as_mut();
    let mut run = Run::resume(&partition, &spec.opc, checkpoints, sink, &control);
    let keys = {
        let tiles: Vec<&Tile> = partition.tiles.iter().collect();
        tile_cache_keys(&tiles, &partition.config, &spec.opc)
    };

    // Recovery: adopt every wanted tile a worker's harvested entry lines
    // place on. A fresh or unreachable worker contributes nothing here.
    let mut stats = FleetStats::default();
    for addr in &config.workers {
        let harvest = client::request_with_timeout(*addr, "GET", "/v1/records", None, config.lease);
        let Some(response) = harvest.ok().filter(|r| r.status == 200) else {
            continue;
        };
        stats.recovered += run.adopt(&partition, &keys, &response.body_str())?;
    }

    // To-dispatch classes: the wanted tiles, budget-truncated in index
    // order (a budget takes the lowest indices), grouped by key in
    // first-seen order.
    let mut classes: Vec<Class> = Vec::new();
    let mut rank: HashMap<u64, usize> = HashMap::new();
    for (index, hash) in run.start(config.max_tiles) {
        let key = keys[index];
        let at = *rank.entry(key).or_insert(classes.len());
        if at == classes.len() {
            classes.push(Class {
                key,
                tiles: Vec::new(),
            });
        }
        classes[at].tiles.push((index, hash));
    }
    let lanes = config.workers.len() * config.window.max(1);

    let shared = Shared {
        state: Mutex::new(State {
            pending: (0..classes.len()).collect(),
            slots: (0..classes.len())
                .map(|_| ClassSlot {
                    in_pending: true,
                    ..ClassSlot::default()
                })
                .collect(),
            done: 0,
            workers: config
                .workers
                .iter()
                .map(|&addr| WorkerSlot {
                    addr,
                    failures: 0,
                    heartbeat_misses: 0,
                    retired: false,
                })
                .collect(),
            alive: config.workers.len(),
            stats,
            tile_error: None,
            aborted: false,
            active_lanes: lanes,
        }),
        cv: Condvar::new(),
        run,
        classes,
        partition: &partition,
        spec,
        config,
    };

    let dispatch = span("run_tiles");
    std::thread::scope(|scope| {
        for worker_id in 0..config.workers.len() {
            for _ in 0..config.window.max(1) {
                let shared = &shared;
                scope.spawn(move || lane_loop(shared, worker_id));
            }
            let shared = &shared;
            scope.spawn(move || heartbeat_loop(shared, worker_id));
        }
    });

    drop(dispatch);
    let Shared {
        state,
        run,
        classes,
        ..
    } = shared;
    let state = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    let mut outcome = run.finish()?;
    let unfinished: usize = classes
        .iter()
        .zip(&state.slots)
        .filter(|(_, slot)| !slot.done)
        .map(|(class, _)| class.tiles.len())
        .sum();
    if state.alive == 0 && unfinished > 0 && !outcome.cancelled {
        // Surface a deterministic tile failure when one was observed —
        // workers were likely retired *because* the tile itself fails.
        if let Some((tile, message)) = state.tile_error {
            return Err(FleetError::Runtime(RuntimeError::Io(format!(
                "tile {tile} failed on the fleet: {message}"
            ))));
        }
        return Err(FleetError::WorkersExhausted {
            remaining: unfinished,
        });
    }

    let (manifest, stitched) = store.conclude(
        clip.name(),
        &partition,
        &mut outcome,
        spec.opc.mrc.as_ref(),
        config.workers.len(),
        start,
    )?;
    Ok(FleetOutcome {
        manifest,
        stitched,
        stats: state.stats,
        complete: outcome.remaining == 0,
        cancelled: outcome.cancelled,
        outcome,
    })
}

/// Why a request settled nothing. `tile` is set for a worker-side failure
/// (HTTP 5xx — deterministic for a broken tile) and names the class head
/// the request sent; transport errors and refused answers stay "maybe
/// transient".
struct Failure {
    tile: Option<usize>,
    message: String,
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure {
            tile: None,
            message,
        }
    }
}

/// One dispatch lane: claim a class → one HTTP request naming its head
/// (lease = IO timeout) → check the answer and build the class's tile
/// lines → settle. Exits when all classes are done, the run is
/// aborted/cancelled, or its worker is retired.
///
/// Each lane owns one keep-alive [`client::Connection`] to its worker, so
/// after the first request a dispatch costs a request/response exchange,
/// not a TCP connect + teardown. A stale connection (worker idle timeout
/// between requests) is retried once on a fresh one inside the client;
/// dispatch is idempotent, so the retry is safe.
fn lane_loop(shared: &Shared<'_>, worker_id: usize) {
    let addr = {
        let state = shared.lock();
        state.workers[worker_id].addr
    };
    let mut connection = client::Connection::new(addr);
    while let Some(pos) = claim(shared, worker_id) {
        let class = &shared.classes[pos];
        let body = proto::dispatch_body(shared.spec, class.tiles[0].0);
        let sent = Instant::now();
        let response =
            connection.request_with_timeout("POST", "/v1/tiles", Some(&body), shared.config.lease);
        // Each tile line's seconds: its share of the round trip.
        let seconds = sent.elapsed().as_secs_f64() / class.tiles.len() as f64;
        let answer = match &response {
            Ok(response) => place_answer(shared, class, response, seconds),
            Err(e) => Err(e.to_string().into()),
        };
        settle(shared, worker_id, pos, answer);
    }
    let mut state = shared.lock();
    state.active_lanes -= 1;
    drop(state);
    shared.cv.notify_all();
}

/// An accepted answer: the entry, and the tile line of each tile of the
/// class, in index order.
type Answer = (CachedTile, Vec<TileLine>);

/// Checks a worker's answer against the class it was asked for — exactly
/// one line, the entry line of the class key — and builds each tile's line
/// from the coordinator's own partition, or refuses the answer as a whole
/// when the entry does not place on some tile.
fn place_answer(
    shared: &Shared<'_>,
    class: &Class,
    response: &HttpResponse,
    seconds: f64,
) -> Result<Answer, Failure> {
    if response.status != 200 {
        let message = format!(
            "worker answered {}: {}",
            response.status,
            response.body_str()
        );
        let tile = (response.status >= 500).then_some(class.tiles[0].0);
        return Err(Failure { tile, message });
    }
    let body =
        std::str::from_utf8(&response.body).map_err(|_| "answer is not UTF-8".to_string())?;
    let key = class.key;
    let mut lines = body.lines();
    let entry = match (lines.next().map(CachedTile::from_json_line), lines.next()) {
        (Some(Ok((got, entry))), None) if got == key => entry,
        _ => return Err(format!("answer is not one entry line of {key:016x}").into()),
    };
    let partition = shared.partition;
    let tiles = class.tiles.iter().map(|&(index, hash)| {
        let tile = &partition.tiles[index];
        TileLine::of(tile, partition, hash, key, seconds, &entry)
            .ok_or_else(|| format!("the entry names a target tile {index} lacks").into())
    });
    let tiles = tiles.collect::<Result<_, Failure>>()?;
    Ok((entry, tiles))
}

/// Claims the next class for `worker_id` — a position into
/// `Shared::classes` — from the pending queue first, then by stealing;
/// `None` when the lane should exit. Blocks (with periodic wakeups, so
/// steal ages are re-examined) while other workers still hold fresh
/// leases.
fn claim(shared: &Shared<'_>, worker_id: usize) -> Option<usize> {
    let mut state = shared.lock();
    loop {
        if state.done == shared.classes.len()
            || state.aborted
            || state.workers[worker_id].retired
            || shared.run.stopped()
        {
            return None;
        }
        // Pending queue first (work-conserving).
        let mut claimed = None;
        while let Some(pos) = state.pending.pop_front() {
            state.slots[pos].in_pending = false;
            if !state.slots[pos].done {
                claimed = Some(pos);
                break;
            }
        }
        // Tail: steal a class whose every lease has aged past the steal
        // threshold and belongs to someone else. Capped at two live leases
        // per class: one steal in flight at a time.
        if claimed.is_none() {
            let now = Instant::now();
            let steal_after = shared.config.steal_after;
            claimed = state.slots.iter().position(|slot| {
                !slot.done
                    && !slot.in_pending
                    && matches!(slot.leases[..], [(w, since)]
                        if w != worker_id && now.duration_since(since) >= steal_after)
            });
            if let Some(pos) = claimed {
                state.stats.stolen += shared.classes[pos].tiles.len();
            }
        }
        let Some(pos) = claimed else {
            state = shared
                .cv
                .wait_timeout(state, Duration::from_millis(100))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            continue;
        };
        state.slots[pos].leases.push((worker_id, Instant::now()));
        state.stats.dispatched += shared.classes[pos].tiles.len();
        state.stats.requests += 1;
        return Some(pos);
    }
}

/// Settles one request: the first valid answer finishes the class and
/// commits its tile lines; a failed request re-queues the class and counts
/// once toward the worker's retirement.
fn settle(shared: &Shared<'_>, worker_id: usize, pos: usize, answer: Result<Answer, Failure>) {
    let size = shared.classes[pos].tiles.len();
    let mut state = shared.lock();
    state.slots[pos].leases.retain(|&(w, _)| w != worker_id);
    match answer {
        Ok((entry, tiles)) => {
            state.workers[worker_id].failures = 0;
            let fresh = !state.slots[pos].done;
            if fresh {
                state.slots[pos].done = true;
                state.done += 1;
            } else {
                state.stats.duplicates += size;
            }
            drop(state);
            shared.cv.notify_all();
            // The state lock is not held across the writes.
            if fresh {
                for line in tiles {
                    shared.run.commit(line, &entry, false);
                }
            }
        }
        Err(Failure { tile, message }) => {
            if let Some(index) = tile {
                match &mut state.tile_error {
                    Some((lowest, _)) if *lowest <= index => {}
                    slot => *slot = Some((index, message)),
                }
            }
            // Back to the head of the queue.
            let State {
                slots,
                pending,
                stats,
                ..
            } = &mut *state;
            let slot = &mut slots[pos];
            if !slot.done {
                stats.redispatched += size;
                if slot.leases.is_empty() && !slot.in_pending {
                    slot.in_pending = true;
                    pending.push_front(pos);
                }
            }
            state.workers[worker_id].failures += 1;
            if state.workers[worker_id].failures >= shared.config.max_failures {
                retire_worker(&mut state, worker_id);
            }
            drop(state);
            shared.cv.notify_all();
        }
    }
}

/// Retires a worker: releases its leases (re-queueing orphaned classes)
/// and aborts the run when no workers remain.
fn retire_worker(state: &mut State, worker_id: usize) {
    if state.workers[worker_id].retired {
        return;
    }
    state.workers[worker_id].retired = true;
    state.alive -= 1;
    state.stats.retired_workers += 1;
    for (pos, slot) in state.slots.iter_mut().enumerate() {
        slot.leases.retain(|&(w, _)| w != worker_id);
        if !slot.done && slot.leases.is_empty() && !slot.in_pending {
            slot.in_pending = true;
            state.pending.push_back(pos);
        }
    }
    if state.alive == 0 {
        state.aborted = true;
    }
}

/// Probes one worker's `/healthz`; three consecutive misses retire it —
/// much faster than waiting out a lease on a crashed process. A worker
/// busy correcting still answers (requests are served concurrently), so
/// load alone never retires anyone.
fn heartbeat_loop(shared: &Shared<'_>, worker_id: usize) {
    let finished = |state: &State| {
        state.active_lanes == 0
            || state.done == state.slots.len()
            || state.aborted
            || state.workers[worker_id].retired
    };
    loop {
        // Sleep on the condvar, not the clock: when the lanes drain the
        // run must not wait out a heartbeat interval before joining.
        {
            let mut state = shared.lock();
            let deadline = Instant::now() + shared.config.heartbeat;
            loop {
                if finished(&state) {
                    return;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                state = shared
                    .cv
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
        let addr = {
            let state = shared.lock();
            if finished(&state) {
                return;
            }
            state.workers[worker_id].addr
        };
        let healthy = client::request_with_timeout(
            addr,
            "GET",
            "/healthz",
            None,
            shared.config.heartbeat_timeout,
        )
        .map(|r| r.status == 200)
        .unwrap_or(false);
        let mut state = shared.lock();
        if healthy {
            state.workers[worker_id].heartbeat_misses = 0;
        } else {
            state.workers[worker_id].heartbeat_misses += 1;
            if state.workers[worker_id].heartbeat_misses >= 3 {
                retire_worker(&mut state, worker_id);
                drop(state);
                shared.cv.notify_all();
            }
        }
    }
}
