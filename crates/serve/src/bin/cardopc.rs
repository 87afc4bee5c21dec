//! `cardopc` — command-line tiled full-chip OPC runner and HTTP service.
//!
//! **Run mode** (the default) corrects a (synthetic) large-scale design
//! through the tiled runtime: partition into halo tiles, correct tiles
//! over the worker pool, checkpoint each finished tile, stitch, and
//! report a run manifest.
//!
//! ```text
//! cargo run --release -p cardopc-serve --bin cardopc -- \
//!     --design gcd --quick --run-dir out/gcd-quick
//! ```
//!
//! Interrupted runs (Ctrl-C, crash, or a deliberate `--max-tiles` budget)
//! resume from the run directory: tiles whose checkpoint records still
//! match their input hash are skipped.
//!
//! **Serve mode** starts the HTTP correction service and blocks until a
//! `POST /admin/drain` finishes the in-flight work:
//!
//! ```text
//! cargo run --release -p cardopc-serve --bin cardopc -- \
//!     serve --addr 127.0.0.1:8650 --run-root runs
//! ```
//!
//! **Worker mode** starts a fleet worker process that corrects tiles
//! dispatched by a coordinator (`--workers-local` / `--worker-addr` run
//! flags, or a serve-mode registry):
//!
//! ```text
//! cargo run --release -p cardopc-serve --bin cardopc -- \
//!     worker --addr 127.0.0.1:9100
//! ```
//!
//! Worker-thread precedence (run/serve modes): `--threads` beats the
//! `CARDOPC_THREADS` environment variable, which beats the auto-detected
//! CPU count. Whichever wins sizes the one process-wide
//! [`WorkerPool::global`] before anything uses it, so tiles, the litho
//! fan-out, shape correction and mask export share N executors in all.

use cardopc_fleet::spec::DesignSpec;
use cardopc_fleet::worker::{WorkerConfig, WorkerServer};
use cardopc_fleet::{client, run_fleet, FleetConfig, WorkSpec};
use cardopc_layout::{write_clip_gds, Clip, DesignKind, LayerFilter, TARGET_LAYER};
use cardopc_litho::{Precision, WorkerPool};
use cardopc_opc::OpcConfig;
use cardopc_runtime::{
    run_clip_controlled, stream_mask_gds, write_file_atomic, CacheConfig, MaskGdsOptions,
    RunConfig, RunControl, RunOutcome, Stitched, TileCache, TilingConfig,
};
use cardopc_serve::{ServeConfig, Server};
use std::fs::File;
use std::io::{BufRead, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
cardopc — tiled full-chip curvilinear OPC runner and HTTP service

USAGE:
    cardopc [OPTIONS]            correct a design and exit
    cardopc serve [OPTIONS]      run the HTTP correction service
    cardopc worker [OPTIONS]     run a fleet worker process

RUN OPTIONS:
    --design <NAME|FILE.gds>        design to correct: a synthetic design
                                    (gcd|aes|dynamicnode) or a GDSII file
                                    path (anything ending in .gds) [gcd]
    --layer <N[:D]>                 target layer[:datatype] of a GDS
                                    design; '*' selects every layer [1]
    --design-tiles <N>              concatenate N 30x30 um design tiles
                                    (synthetic designs only) [1]
    --crop <NM>                     crop a centred NM x NM window first
    --write-target-gds <FILE>       export the input design (pre-OPC) as
                                    GDSII at 1 nm/dbu, then run
    --out-gds <FILE>                write the corrected curvilinear mask
                                    as GDSII at 0.01 nm/dbu
    --mask-layer <N>                mask GDS layer for corrected mains [2]
    --sraf-layer <N>                mask GDS layer for SRAFs [3]
    --tile <NM>                     core tile size [4096]
    --halo <NM>                     halo margin per side [1024]
    --pitch <NM>                    simulation pixel pitch [8]
    --precision <f64|f32>           simulation arithmetic; f32 narrows
                                    only the FFT/SOCS interior (geometry,
                                    MRC and fitting stay f64) [f64]
    --iterations <N>                OPC iterations [10]
    --threads <N>                   worker pool size (beats CARDOPC_THREADS)
    --run-dir <PATH>                checkpoint + manifest directory
    --max-tiles <N>                 execute at most N tiles, then stop
    --cache-dir <PATH>              persistent content-addressed tile cache;
                                    congruent tiles (this run or any later
                                    one) replay instead of re-correcting
    --no-cache                      disable the tile cache entirely
                                    (default: in-memory, this run only)
    --quick                         small smoke preset: gcd, 2048 nm crop,
                                    1024 nm tiles, 512 nm halo, 4 iterations
    --workers-local <N>             shard across N spawned worker processes
                                    (fleet mode: --no-cache is forwarded to
                                    them; --threads and --cache-dir are
                                    refused, workers size their pools
                                    from CARDOPC_THREADS)
    --worker-addr <HOST:PORT>       shard across an already-running
                                    `cardopc worker` (repeatable; combines
                                    with --workers-local)
    --lease-secs <S>                fleet per-tile lease timeout (a request
                                    carrying n tiles gets n times this) [120]
    --steal-secs <S>                fleet steal threshold: idle workers
                                    duplicate-dispatch tiles leased longer
                                    than this [20]
    --help                          print this help
    --version                       print the version and exit

WORKER OPTIONS:
    --addr <HOST:PORT>              bind address [127.0.0.1:0]; port 0
                                    picks an ephemeral port
    --run-dir <PATH>                worker checkpoint directory (lets a
                                    coordinator restart recover finished
                                    tiles from this worker)
    --no-cache                      disable the worker's in-memory tile
                                    cache

SERVE OPTIONS:
    --addr <HOST:PORT>              bind address [127.0.0.1:8650]; port 0
                                    picks an ephemeral port
    --max-queued <N>                queued-job bound; beyond it submissions
                                    get 429 + Retry-After [16]
    --max-inflight <N>              concurrent jobs [1]
    --retain-terminal <N>           finished jobs kept queryable; older
                                    ones are evicted [256]
    --threads <N>                   worker pool size (beats CARDOPC_THREADS)
    --run-root <PATH>               directory for job run_dir names [runs]
    --cache-dir <PATH>              persist the cross-job tile cache here
                                    (default: in-memory, per server)
    --no-cache                      disable the cross-job tile cache

THREADS:
    --threads > CARDOPC_THREADS > auto-detected CPUs
";

/// What `--design` named: a synthetic generator or a GDSII file path.
enum DesignChoice {
    Kind(DesignKind),
    Gds(PathBuf),
}

/// A flag the mode's own parser does not know: help and the version
/// print and succeed (`Ok(None)`: the user got exactly what they asked
/// for); anything else is a usage error.
fn other_flag<T>(flag: &str) -> Result<Option<T>, String> {
    match flag {
        "--help" | "-h" => println!("{USAGE}"),
        "--version" => println!("cardopc {}", env!("CARGO_PKG_VERSION")),
        other => return Err(format!("unknown flag '{other}'\n\n{USAGE}")),
    }
    Ok(None)
}

struct RunArgs {
    design: DesignChoice,
    layer: Option<LayerFilter>,
    design_tiles: usize,
    crop: Option<f64>,
    out_gds: Option<PathBuf>,
    write_target_gds: Option<PathBuf>,
    mask_layer: i16,
    sraf_layer: i16,
    tile: f64,
    halo: f64,
    pitch: f64,
    precision: Precision,
    iterations: usize,
    threads: Option<usize>,
    run_dir: Option<PathBuf>,
    max_tiles: Option<usize>,
    cache_dir: Option<PathBuf>,
    no_cache: bool,
    workers_local: usize,
    worker_addrs: Vec<std::net::SocketAddr>,
    lease_secs: f64,
    steal_secs: f64,
}

impl RunArgs {
    /// `Ok(None)` means an informational flag (`--help`, `--version`)
    /// was handled and the process should exit successfully.
    fn parse(it: &mut std::vec::IntoIter<String>) -> Result<Option<RunArgs>, String> {
        let mut args = RunArgs {
            design: DesignChoice::Kind(DesignKind::Gcd),
            layer: None,
            design_tiles: 1,
            crop: None,
            out_gds: None,
            write_target_gds: None,
            mask_layer: cardopc_runtime::gdsout::DEFAULT_MASK_LAYER,
            sraf_layer: cardopc_runtime::gdsout::DEFAULT_SRAF_LAYER,
            tile: 4096.0,
            halo: 1024.0,
            pitch: 8.0,
            precision: Precision::F64,
            iterations: 10,
            threads: None,
            run_dir: None,
            max_tiles: None,
            cache_dir: None,
            no_cache: false,
            workers_local: 0,
            worker_addrs: Vec::new(),
            lease_secs: 120.0,
            steal_secs: 20.0,
        };
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} expects a value\n\n{USAGE}"))
            };
            match flag.as_str() {
                "--design" => {
                    let raw = value()?;
                    args.design = match raw.as_str() {
                        "gcd" => DesignChoice::Kind(DesignKind::Gcd),
                        "aes" => DesignChoice::Kind(DesignKind::Aes),
                        "dynamicnode" => DesignChoice::Kind(DesignKind::DynamicNode),
                        p if p.to_ascii_lowercase().ends_with(".gds") => {
                            DesignChoice::Gds(PathBuf::from(p))
                        }
                        other => {
                            return Err(format!(
                                "unknown design '{other}' \
                                 (expected gcd|aes|dynamicnode or a .gds file path)"
                            ))
                        }
                    };
                }
                "--layer" => {
                    let raw = value()?;
                    args.layer = Some(
                        LayerFilter::parse(&raw)
                            .map_err(|e| format!("--layer: cannot parse '{raw}': {e}"))?,
                    );
                }
                "--design-tiles" => args.design_tiles = parse_num(&flag, &value()?)?,
                "--crop" => args.crop = Some(parse_num(&flag, &value()?)?),
                "--out-gds" => args.out_gds = Some(value()?.into()),
                "--write-target-gds" => args.write_target_gds = Some(value()?.into()),
                "--mask-layer" => args.mask_layer = parse_num(&flag, &value()?)?,
                "--sraf-layer" => args.sraf_layer = parse_num(&flag, &value()?)?,
                "--tile" => args.tile = parse_num(&flag, &value()?)?,
                "--halo" => args.halo = parse_num(&flag, &value()?)?,
                "--pitch" => args.pitch = parse_num(&flag, &value()?)?,
                "--precision" => {
                    let raw = value()?;
                    args.precision = Precision::parse(&raw).ok_or_else(|| {
                        format!("--precision: expected 'f64' or 'f32', got '{raw}'\n\n{USAGE}")
                    })?;
                }
                "--iterations" => args.iterations = parse_num(&flag, &value()?)?,
                "--threads" => args.threads = Some(parse_num(&flag, &value()?)?),
                "--run-dir" => args.run_dir = Some(value()?.into()),
                "--max-tiles" => args.max_tiles = Some(parse_num(&flag, &value()?)?),
                "--cache-dir" => args.cache_dir = Some(value()?.into()),
                "--no-cache" => args.no_cache = true,
                "--workers-local" => args.workers_local = parse_num(&flag, &value()?)?,
                "--worker-addr" => {
                    let raw = value()?;
                    args.worker_addrs.push(
                        raw.parse()
                            .map_err(|_| format!("--worker-addr: cannot parse '{raw}'"))?,
                    );
                }
                "--lease-secs" => args.lease_secs = parse_num(&flag, &value()?)?,
                "--steal-secs" => args.steal_secs = parse_num(&flag, &value()?)?,
                "--quick" => {
                    args.design = DesignChoice::Kind(DesignKind::Gcd);
                    args.design_tiles = 1;
                    args.crop = Some(2048.0);
                    args.tile = 1024.0;
                    args.halo = 512.0;
                    args.pitch = 8.0;
                    args.iterations = 4;
                }
                other => return other_flag(other),
            }
        }
        Ok(Some(args))
    }

    /// Whether the flags ask for fleet mode, refusing the local-pool flags
    /// a coordinator would silently drop.
    fn fleet_mode(&self) -> Result<bool, String> {
        let fleet = self.workers_local > 0 || !self.worker_addrs.is_empty();
        let local_only = [
            ("--threads", self.threads.is_some()),
            ("--cache-dir", self.cache_dir.is_some()),
        ];
        match local_only.iter().find(|(_, given)| fleet && *given) {
            Some((flag, _)) => Err(format!(
                "{flag} does not apply with --workers-local / --worker-addr: fleet workers \
                 size their pools from CARDOPC_THREADS and keep no persistent cache"
            )),
            None => Ok(fleet),
        }
    }

    /// The design recipe these flags describe, validated for
    /// kind-specific flags used with the wrong kind.
    fn design_spec(&self) -> Result<DesignSpec, String> {
        match &self.design {
            DesignChoice::Kind(kind) => {
                if self.layer.is_some() {
                    return Err("--layer applies to GDS designs; synthetic designs always \
                         target layer 1"
                        .into());
                }
                Ok(DesignSpec::generated(*kind, self.design_tiles, self.crop))
            }
            DesignChoice::Gds(path) => {
                if self.design_tiles != 1 {
                    return Err("--design-tiles applies to synthetic designs only".into());
                }
                let layer = self.layer.unwrap_or(LayerFilter::Layer(TARGET_LAYER));
                Ok(DesignSpec::gds(path.clone(), layer, self.crop))
            }
        }
    }
}

/// Serve-mode flags. `Ok(None)` means an informational flag (`--help`,
/// `--version`) was handled and the process should exit successfully.
fn parse_serve(it: &mut std::vec::IntoIter<String>) -> Result<Option<ServeConfig>, String> {
    let mut config = ServeConfig::default();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value\n\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value()?,
            "--max-queued" => config.max_queued = parse_num(&flag, &value()?)?,
            "--max-inflight" => config.max_inflight = parse_num(&flag, &value()?)?,
            "--retain-terminal" => config.retain_terminal = parse_num(&flag, &value()?)?,
            "--threads" => config.threads = Some(parse_num(&flag, &value()?)?),
            "--run-root" => config.run_root = value()?.into(),
            "--cache-dir" => config.cache_dir = Some(value()?.into()),
            "--no-cache" => config.cache = false,
            other => return other_flag(other),
        }
    }
    Ok(Some(config))
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse '{raw}'"))
}

fn main() -> ExitCode {
    let mut it = std::env::args().skip(1).collect::<Vec<_>>().into_iter();
    match it.as_slice().first().map(String::as_str) {
        Some("serve") => {
            let _ = it.next();
            serve_main(&mut it)
        }
        Some("worker") => {
            let _ = it.next();
            worker_main(&mut it)
        }
        _ => run_main(&mut it),
    }
}

/// Worker-mode flags; `Ok(None)` as for [`parse_serve`].
fn parse_worker(it: &mut std::vec::IntoIter<String>) -> Result<Option<WorkerConfig>, String> {
    let mut config = WorkerConfig::default();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value\n\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value()?,
            "--run-dir" => config.run_dir = Some(value()?.into()),
            "--no-cache" => config.cache = false,
            other => return other_flag(other),
        }
    }
    Ok(Some(config))
}

/// Worker mode: serve tile dispatches until a `POST /admin/shutdown`.
fn worker_main(it: &mut std::vec::IntoIter<String>) -> ExitCode {
    let config = match parse_worker(it) {
        Ok(Some(config)) => config,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let cache = config.cache;
    let worker = match WorkerServer::start(config) {
        Ok(worker) => worker,
        Err(e) => {
            eprintln!("cardopc worker: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Machine-readable: coordinators spawning local workers on port 0
    // scrape the bound address from this line.
    println!("cardopc-worker listening on {}", worker.local_addr());
    // Literal lines are one write each: workers sharing a coordinator's
    // stderr never interleave inside them.
    match cache {
        true => eprintln!("cardopc worker: tile cache on; POST /admin/shutdown to stop"),
        false => eprintln!("cardopc worker: tile cache off; POST /admin/shutdown to stop"),
    }
    worker.wait_shutdown();
    eprintln!("cardopc worker: stopped");
    ExitCode::SUCCESS
}

/// Serve mode: start the service, print the bound address, block until a
/// drain completes, exit 0.
fn serve_main(it: &mut std::vec::IntoIter<String>) -> ExitCode {
    let mut config = match parse_serve(it) {
        Ok(Some(config)) => config,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(n) = config.threads.take() {
        WorkerPool::init_global(n);
    }
    let threads = WorkerPool::global().parallelism();
    let mut server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cardopc serve: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The address line is machine-readable: CI starts the server on port
    // 0 and scrapes the port from here.
    println!("cardopc-serve listening on {}", server.local_addr());
    eprintln!("cardopc serve: {threads} workers; POST /admin/drain to stop");
    server.wait_drained();
    server.shutdown();
    eprintln!("cardopc serve: drained, exiting");
    ExitCode::SUCCESS
}

/// A spawned local worker process.
struct LocalWorker {
    child: std::process::Child,
    addr: std::net::SocketAddr,
}

/// The spawned local workers; shut down (politely, then by force) on drop
/// so an aborted coordinator does not leak children.
struct LocalWorkers(Vec<LocalWorker>);

impl Drop for LocalWorkers {
    fn drop(&mut self) {
        // Ask everyone first, then reap: the workers exit side by side.
        for worker in &self.0 {
            let _ = client::request_with_timeout(
                worker.addr,
                "POST",
                "/admin/shutdown",
                Some("{}"),
                Duration::from_secs(2),
            );
        }
        // A worker is gone a few ms after the request; give the polite
        // path about a second in all, then make sure.
        let deadline = std::time::Instant::now() + Duration::from_secs(1);
        for worker in &mut self.0 {
            while matches!(worker.child.try_wait(), Ok(None))
                && std::time::Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = worker.child.kill();
            let _ = worker.child.wait();
        }
    }
}

/// Spawns one `cardopc worker` child on an ephemeral port (forwarding
/// `--no-cache`) and scrapes its bound address from the announce line.
fn spawn_local_worker(no_cache: bool) -> Result<LocalWorker, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut child = std::process::Command::new(exe)
        .args(["worker", "--addr", "127.0.0.1:0"])
        .args(no_cache.then_some("--no-cache"))
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn worker: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut line = String::new();
    if let Err(e) = std::io::BufReader::new(stdout).read_line(&mut line) {
        let _ = child.kill();
        return Err(format!("cannot read worker announce line: {e}"));
    }
    let Some(addr) = line
        .trim()
        .strip_prefix("cardopc-worker listening on ")
        .and_then(|a| a.parse().ok())
    else {
        let _ = child.kill();
        return Err(format!("unexpected worker announce line: {line:?}"));
    };
    Ok(LocalWorker { child, addr })
}

/// Writes `path` atomically ([`write_file_atomic`]: a killed or failed
/// write leaves no short file under the name) with the parent directory
/// created first (CLI outputs may name not-yet-existing directories, e.g.
/// a shared `--run-dir` tree).
fn write_creating_parents<E: From<std::io::Error> + std::fmt::Display>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), E>,
) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    write_file_atomic(path, write).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Writes the pre-OPC target clip as GDSII (1 nm/dbu, target layer).
fn export_target_gds(clip: &Clip, path: &Path) -> Result<(), String> {
    let bytes = write_clip_gds(clip, TARGET_LAYER, 0)?;
    write_creating_parents(path, |out| out.write_all(&bytes))?;
    eprintln!(
        "cardopc: wrote target GDS {} ({} bytes)",
        path.display(),
        bytes.len()
    );
    Ok(())
}

/// Writes the corrected curvilinear mask as GDSII when `--out-gds` was
/// given. An incomplete run has no stitched mask; the caller asked for a
/// file, so that is an error rather than a silent skip.
fn export_mask_gds(
    stitched: Option<&Stitched>,
    name: &str,
    args: &RunArgs,
    samples_per_segment: usize,
) -> Result<(), String> {
    let Some(path) = &args.out_gds else {
        return Ok(());
    };
    let Some(stitched) = stitched else {
        return Err(format!(
            "--out-gds {}: run incomplete, no stitched mask to export; \
             re-run with the same --run-dir (without --max-tiles) to finish",
            path.display()
        ));
    };
    let options = MaskGdsOptions {
        mask_layer: args.mask_layer,
        sraf_layer: args.sraf_layer,
        samples_per_segment,
    };
    let mut bytes = 0;
    write_creating_parents(path, |out| {
        stream_mask_gds(stitched, name, &options, out).map(|n| bytes = n)
    })?;
    eprintln!(
        "cardopc: wrote mask GDS {} ({} bytes, mains on {}:0, srafs on {}:0)",
        path.display(),
        bytes,
        args.mask_layer,
        args.sraf_layer
    );
    Ok(())
}

/// What a run mode hands the shared tail: the outcome and the mode's own
/// summary line.
type Ran = (RunOutcome, Option<String>);
type AnyError = Box<dyn std::error::Error>;

/// Fleet mode: shard the run across worker processes (spawned locally
/// and/or already running remotely); the workers are shut down on return.
fn run_on_fleet(args: &RunArgs, spec: &WorkSpec) -> Result<Ran, AnyError> {
    let mut locals = LocalWorkers(Vec::new());
    for _ in 0..args.workers_local {
        locals.0.push(spawn_local_worker(args.no_cache)?);
    }
    let spawned = locals.0.iter().map(|w| w.addr);
    let config = FleetConfig {
        workers: spawned.chain(args.worker_addrs.iter().copied()).collect(),
        lease: Duration::from_secs_f64(args.lease_secs.max(0.1)),
        steal_after: Duration::from_secs_f64(args.steal_secs.max(0.1)),
        run_dir: args.run_dir.clone(),
        max_tiles: args.max_tiles,
        ..FleetConfig::default()
    };
    eprintln!(
        "cardopc: fleet of {} workers ({} spawned local), lease {:.0}s, steal after {:.0}s",
        config.workers.len(),
        locals.0.len(),
        config.lease.as_secs_f64(),
        config.steal_after.as_secs_f64(),
    );
    let outcome = run_fleet(spec, &config, &RunControl::default())?;
    let stats = outcome.stats;
    let line = format!(
        "fleet dispatched {} stolen {} duplicates {} redispatched {} retired {} recovered {} \
         requests {}",
        stats.dispatched,
        stats.stolen,
        stats.duplicates,
        stats.redispatched,
        stats.retired_workers,
        stats.recovered,
        stats.requests
    );
    Ok((outcome.into(), Some(line)))
}

/// Local mode: correct the tiles on this process's worker pool.
fn run_local(args: &RunArgs, clip: &Clip, spec: WorkSpec) -> Result<Ran, AnyError> {
    let pool = WorkerPool::global();
    eprintln!(
        "cardopc: {} ({} targets), tile {} nm + halo {} nm, pitch {} nm, {} sim, {} workers",
        clip.name(),
        clip.targets().len(),
        args.tile,
        args.halo,
        args.pitch,
        args.precision.name(),
        pool.parallelism()
    );
    // Tile cache: --no-cache disables it, --cache-dir persists it across
    // runs; the default is an in-memory cache scoped to this run (so a
    // repeated-cell design still collapses to its unique tile patterns).
    let cache_config = CacheConfig {
        dir: args.cache_dir.clone(),
        ..CacheConfig::default()
    };
    let cache = (!args.no_cache).then(|| TileCache::open(&cache_config));
    let cache = cache.transpose()?;
    let control = RunControl {
        cache: cache.as_ref(),
        ..RunControl::default()
    };
    let config = RunConfig {
        opc: spec.opc,
        tiling: spec.tiling,
        run_dir: args.run_dir.clone(),
        max_tiles: args.max_tiles,
    };
    let outcome = run_clip_controlled(clip, &config, pool, &control)?;
    let m = &outcome.manifest;
    let line = cache.map(|_| format!("cache hits {} misses {}", m.cache_hits, m.cache_misses));
    Ok((outcome, line))
}

/// One correction, local or fleet: validate, run, then the tail both modes
/// share — mask export, manifest table and summary lines to stdout.
fn run(args: &RunArgs) -> Result<(), AnyError> {
    let mut opc = OpcConfig::large_scale();
    opc.pitch = args.pitch;
    opc.precision = args.precision;
    opc.iterations = args.iterations;
    opc.validate()?;
    let fleet = args.fleet_mode()?;
    let design = args.design_spec()?;
    let clip = design.build_clip()?;
    if let Some(path) = &args.write_target_gds {
        export_target_gds(&clip, path)?;
    }
    let samples = opc.samples_per_segment;
    let spec = WorkSpec {
        design,
        tiling: TilingConfig {
            tile_size: args.tile,
            halo: args.halo,
        },
        opc,
    };
    let (outcome, mode_line) = match fleet {
        true => run_on_fleet(args, &spec)?,
        false => run_local(args, &clip, spec)?,
    };

    export_mask_gds(outcome.stitched.as_ref(), clip.name(), args, samples)?;
    let manifest = &outcome.manifest;
    print!("{}", manifest.render_table());
    println!(
        "executed {} resumed {} remaining {}",
        manifest.executed, manifest.resumed, manifest.remaining
    );
    if let Some(line) = mode_line {
        println!("{line}");
    }
    match &args.run_dir {
        Some(dir) if outcome.complete => {
            println!("manifest: {}", dir.join("manifest.json").display());
        }
        Some(_) => println!(
            "partial run ({} tiles left): re-run with the same --run-dir to resume",
            manifest.remaining
        ),
        None => {}
    }
    Ok(())
}

/// Run mode: one correction, manifest to stdout.
fn run_main(it: &mut std::vec::IntoIter<String>) -> ExitCode {
    let args = match RunArgs::parse(it) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // --threads beats CARDOPC_THREADS (inside global()).
    if let Some(n) = args.threads {
        WorkerPool::init_global(n);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cardopc: error: {e}");
            ExitCode::FAILURE
        }
    }
}
