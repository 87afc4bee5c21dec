//! The fleet coordinator: lease-based dispatch of **runs of congruent
//! tiles** with work stealing, heartbeat-driven worker retirement, and
//! checkpoint recovery.
//!
//! # What a claim is
//!
//! The to-run tiles are ordered by pattern: classes (tiles sharing a
//! [`tile_cache_key`](cardopc_runtime::tile_cache_key)) in first-seen
//! order, tile index within a class. A
//! lane's **claim** takes the head of the pending queue plus the pending
//! tiles that follow it *with the same key*, up to [`MAX_BATCH`], and
//! sends them as one `POST /v1/tiles`. Nothing selects this: unique tiles
//! (a logic design) have one-tile classes and go out one per request; a
//! 64×64 array (9 classes) goes out in ≈ 70 requests instead of 4096. The
//! order — and so every request body — is a function of the partition and
//! the spec alone.
//!
//! Class-pure runs are what make a request one correction: the worker
//! corrects (or replays from its tile cache) the run's first tile and
//! answers its entry, which the coordinator places on every tile of the
//! run, so a request's IO timeout is one `lease`. Each worker's cache is
//! its own: a class whose runs reach two workers is corrected on each
//! (9–10 corrections for 9 classes on the 64×64 array over two workers;
//! ROADMAP item 24(a)).
//!
//! # State machine (per tile)
//!
//! Every to-run tile moves through: **pending** → **leased** (dispatched
//! to a worker, lease clock running) → **done** (first valid result wins).
//! Each tile keeps its own lease list, `done` flag and at most two live
//! leases; `dispatched`, `stolen`, `duplicates` and `redispatched` count
//! tiles. Transitions out of *leased* that do not finish the tile put it
//! back in *pending*:
//!
//! - the request that carried it fails or times out (the HTTP read timeout
//!   *is* the lease — a worker that does not answer within it loses the
//!   run);
//! - the owning worker is retired (crash detected by the heartbeat
//!   prober, or `max_failures` consecutive errors).
//!
//! Near the tail an idle lane may **steal**: duplicate-dispatch tiles whose
//! every lease is older than `steal_after` to a different worker — the
//! first such tile plus the stealable same-class tiles after it. The first
//! result marks a tile done; the loser's copy is discarded on arrival
//! (`duplicates` in [`FleetStats`]). Tiles are deterministic, so which
//! copy wins never changes the output — byte-identity by construction.
//!
//! # What is per request: all-or-nothing answers
//!
//! One request is one worker failure, one IO timeout and one `requests`
//! count, however many tiles it carries. Its answer is one line, accepted
//! or refused as a whole: it must be an entry line of the run's class key
//! that places ([`TileLine::of`]) on *every* tile of the run before *any*
//! tile settles, so an empty, torn, long, mis-keyed or misplacing answer
//! (or an oversized one, refused by the client before it is read)
//! re-queues the whole run and checkpoints nothing. Every tile line —
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
use crate::proto::{self, MAX_BATCH};
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
    /// In-flight tiles per worker (lane threads). Bounds how much work a
    /// slow worker can absorb.
    pub window: usize,
    /// A dispatch request's IO timeout: a request corrects at most one
    /// tile. A worker that does not answer within it loses the run back to
    /// the queue.
    pub lease: Duration,
    /// Minimum lease age before an idle lane may duplicate-dispatch
    /// (steal) a tile leased to another worker.
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
    /// `POST /v1/tiles` requests sent (each carries a run of 1 ..=
    /// [`MAX_BATCH`] tiles; re-dispatches and steals included).
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

/// One to-run tile's identity: fixed for the run, read without the lock.
struct TileInfo {
    index: usize,
    hash: u64,
    /// [`tile_cache_key`](cardopc_runtime::tile_cache_key): tiles sharing
    /// it are congruent and travel together.
    key: u64,
}

/// One to-run tile's dispatch state.
#[derive(Default)]
struct TileSlot {
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
    /// Dispatch state of `Shared::tiles`, position for position.
    slots: Vec<TileSlot>,
    pending: VecDeque<usize>,
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
    /// The to-run tiles in claim order: classes in first-seen order, tile
    /// index within a class.
    tiles: Vec<TileInfo>,
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

    // To-dispatch tiles: budget-truncated in index order (a budget takes
    // the lowest indices), then ordered by pattern — classes in first-seen
    // order, index order within a class (the sort is stable).
    let wanted = run.start(config.max_tiles);
    let mut todo: Vec<TileInfo> = wanted
        .into_iter()
        .map(|(index, hash)| TileInfo {
            index,
            hash,
            key: keys[index],
        })
        .collect();
    let mut class_rank: HashMap<u64, usize> = HashMap::new();
    for tile in &todo {
        let next = class_rank.len();
        class_rank.entry(tile.key).or_insert(next);
    }
    todo.sort_by_key(|tile| class_rank[&tile.key]);
    let todo_len = todo.len();
    let lanes = config.workers.len() * config.window.max(1);

    let shared = Shared {
        state: Mutex::new(State {
            pending: (0..todo_len).collect(),
            slots: (0..todo_len)
                .map(|_| TileSlot {
                    in_pending: true,
                    ..TileSlot::default()
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
        tiles: todo,
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
    let Shared { state, run, .. } = shared;
    let state = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    let mut outcome = run.finish()?;
    let unfinished = todo_len - state.done;
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

/// Why a request settled nothing. `tile` is set for a worker-side tile
/// failure (HTTP 5xx — deterministic for a broken tile) and names the tile
/// that failed; transport errors and refused answers stay "maybe
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

/// One dispatch lane: claim a run → one HTTP request (lease = IO timeout)
/// → check the answer and build the run's tile lines → settle. Exits when
/// all tiles are done, the run is aborted/cancelled, or its worker is
/// retired.
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
    while let Some(run) = claim_run(shared, worker_id) {
        let indices: Vec<usize> = run.iter().map(|&pos| shared.tiles[pos].index).collect();
        let body = proto::dispatch_body(shared.spec, &indices);
        let sent = Instant::now();
        let response =
            connection.request_with_timeout("POST", "/v1/tiles", Some(&body), shared.config.lease);
        // Each tile line's seconds: its share of the round trip.
        let seconds = sent.elapsed().as_secs_f64() / run.len() as f64;
        let answer = match &response {
            Ok(response) => place_answer(shared, &run, response, seconds),
            Err(e) => Err(e.to_string().into()),
        };
        settle(shared, worker_id, &run, answer);
    }
    let mut state = shared.lock();
    state.active_lanes -= 1;
    drop(state);
    shared.cv.notify_all();
}

/// An accepted answer: the entry, and the tile line of each tile of the
/// run, in run order.
type Answer = (CachedTile, Vec<TileLine>);

/// Checks a worker's answer against the run it was asked for — exactly
/// one line, the entry line of the run's class key — and builds each
/// tile's line from the coordinator's own partition, or refuses the
/// answer as a whole when the entry does not place on some tile.
fn place_answer(
    shared: &Shared<'_>,
    run: &[usize],
    response: &HttpResponse,
    seconds: f64,
) -> Result<Answer, Failure> {
    if response.status != 200 {
        let message = format!(
            "worker answered {}: {}",
            response.status,
            response.body_str()
        );
        // A tile failure names its tile; any other 5xx is pinned on the
        // head of the run.
        let named = || response.json().ok()?.get("tile")?.as_usize();
        let tile = (response.status >= 500).then(|| named().unwrap_or(shared.tiles[run[0]].index));
        return Err(Failure { tile, message });
    }
    let body =
        std::str::from_utf8(&response.body).map_err(|_| "answer is not UTF-8".to_string())?;
    let class = shared.tiles[run[0]].key;
    let mut lines = body.lines();
    let entry = match (lines.next().map(CachedTile::from_json_line), lines.next()) {
        (Some(Ok((key, entry))), None) if key == class => entry,
        _ => return Err(format!("answer is not one entry line of {class:016x}").into()),
    };
    let mut tiles = Vec::with_capacity(run.len());
    for &pos in run {
        let TileInfo { index, hash, key } = shared.tiles[pos];
        let tile = &shared.partition.tiles[index];
        let line = TileLine::of(tile, shared.partition, hash, key, seconds, &entry)
            .ok_or_else(|| format!("the entry names a target tile {index} lacks"))?;
        tiles.push(line);
    }
    Ok((entry, tiles))
}

/// Claims the next run for `worker_id` — positions into `Shared::tiles` —
/// from the pending queue first, then by stealing; `None` when the lane
/// should exit. Blocks (with periodic wakeups, so steal ages are
/// re-examined) while other workers still hold fresh leases.
fn claim_run(shared: &Shared<'_>, worker_id: usize) -> Option<Vec<usize>> {
    let tiles = &shared.tiles;
    let mut state = shared.lock();
    loop {
        if state.done == tiles.len()
            || state.aborted
            || state.workers[worker_id].retired
            || shared.run.stopped()
        {
            return None;
        }
        // Pending queue first (work-conserving): its head and the pending
        // tiles behind it that share the head's pattern.
        let mut run: Vec<usize> = Vec::new();
        while let Some(&pos) = state.pending.front() {
            if !state.slots[pos].done {
                let congruent = run
                    .first()
                    .is_none_or(|&head| tiles[head].key == tiles[pos].key);
                if run.len() == MAX_BATCH || !congruent {
                    break;
                }
                run.push(pos);
            }
            state.pending.pop_front();
            state.slots[pos].in_pending = false;
        }
        // Tail: steal tiles whose every lease has aged past the steal
        // threshold and belongs to someone else — the first one and the
        // same-class tiles after it. Capped at two live leases per tile:
        // one steal in flight at a time.
        if run.is_empty() {
            let now = Instant::now();
            let steal_after = shared.config.steal_after;
            let stealable = |t: &TileSlot| {
                !t.done
                    && !t.in_pending
                    && !t.leases.is_empty()
                    && t.leases.len() < 2
                    && t.leases.iter().all(|&(w, since)| {
                        w != worker_id && now.duration_since(since) >= steal_after
                    })
            };
            if let Some(first) = state.slots.iter().position(stealable) {
                run.extend(
                    (first..tiles.len())
                        .take_while(|&pos| tiles[pos].key == tiles[first].key)
                        .filter(|&pos| stealable(&state.slots[pos]))
                        .take(MAX_BATCH),
                );
                state.stats.stolen += run.len();
            }
        }
        if run.is_empty() {
            state = shared
                .cv
                .wait_timeout(state, Duration::from_millis(100))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            continue;
        }
        let now = Instant::now();
        for &pos in &run {
            state.slots[pos].leases.push((worker_id, now));
        }
        state.stats.dispatched += run.len();
        state.stats.requests += 1;
        return Some(run);
    }
}

/// Settles one request, tile by tile: first valid result wins; a failed
/// request re-queues its whole run and counts once toward the worker's
/// retirement.
fn settle(shared: &Shared<'_>, worker_id: usize, run: &[usize], answer: Result<Answer, Failure>) {
    let mut state = shared.lock();
    for &pos in run {
        state.slots[pos].leases.retain(|&(w, _)| w != worker_id);
    }
    match answer {
        Ok((entry, tiles)) => {
            state.workers[worker_id].failures = 0;
            let mut fresh = Vec::with_capacity(tiles.len());
            for (&pos, tile) in run.iter().zip(tiles) {
                if state.slots[pos].done {
                    state.stats.duplicates += 1;
                    continue;
                }
                state.slots[pos].done = true;
                state.done += 1;
                fresh.push(tile);
            }
            drop(state);
            shared.cv.notify_all();
            // The state lock is not held across the writes.
            for line in fresh {
                shared.run.commit(line, &entry, false);
            }
        }
        Err(Failure { tile, message }) => {
            if let Some(index) = tile {
                match &mut state.tile_error {
                    Some((lowest, _)) if *lowest <= index => {}
                    slot => *slot = Some((index, message)),
                }
            }
            // Back to the head of the queue, in run order.
            let State {
                slots,
                pending,
                stats,
                ..
            } = &mut *state;
            for &pos in run.iter().rev() {
                let slot = &mut slots[pos];
                if !slot.done {
                    stats.redispatched += 1;
                    if slot.leases.is_empty() && !slot.in_pending {
                        slot.in_pending = true;
                        pending.push_front(pos);
                    }
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

/// Retires a worker: releases its leases (re-queueing orphaned tiles) and
/// aborts the run when no workers remain.
fn retire_worker(state: &mut State, worker_id: usize) {
    if state.workers[worker_id].retired {
        return;
    }
    state.workers[worker_id].retired = true;
    state.alive -= 1;
    state.stats.retired_workers += 1;
    for (pos, tile) in state.slots.iter_mut().enumerate() {
        tile.leases.retain(|&(w, _)| w != worker_id);
        if !tile.done && tile.leases.is_empty() && !tile.in_pending {
            tile.in_pending = true;
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
