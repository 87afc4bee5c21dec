//! The design-to-mask benchmark: a GDS comes in, a mask GDS goes out —
//! how long did it take, what did it cost, was the mask right, and which
//! layer spent the time?
//!
//! ```text
//! # one workload, the way the benchmark driver calls it
//! cargo run --release --manifest-path benchmarks/Cargo.toml -- \
//!     --workload logic_f64 --seed 1 --seconds 12 --trace 0
//!
//! # everything: 6 workloads round-robin, then the traced run
//! cargo build --release
//! cargo run --release --manifest-path benchmarks/Cargo.toml -- run --out a.json
//! cargo run --release --manifest-path benchmarks/Cargo.toml -- compare a.json b.json
//! ```
//!
//! See `benchmarks/README.md` for the workloads, metrics and noise notes.

mod children;
mod inputs;
mod metrics;
mod proc;
mod replay;
mod report;
mod stats;
mod trace;
mod util;
mod workloads;

use cardopc::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant, SystemTime};
use workloads::{workload, Binaries, Kind, Session, Sizes, WORKLOADS};

const USAGE: &str = "\
cardopc-benchmarks — the design-to-mask benchmark

USAGE:
    cardopc-benchmarks --workload <NAME> --seed <N> --seconds <S> --trace <0|1>
        One workload, as the benchmark driver runs it. Builds the cardopc
        binary if needed. --trace 0 prints the end-to-end metrics, --trace 1
        runs the traced replay instead and prints the per-layer metrics. The
        last stdout line is one JSON object.
    cardopc-benchmarks run [--seed N] [--runs R] [--quick] [--scratch DIR] [--out FILE]
        Every workload (one untimed warm-up round, then R timed rounds,
        round-robin), then the traced run; prints every metric and writes
        one results JSON (and FILE's sibling .trace.json). Needs an
        up-to-date target/release/cardopc. Defaults: seed 0, 8 runs.
        --quick: small inputs, 1 run, no warm-up — a smoke test, not a
        measurement.
    cardopc-benchmarks compare <A.json> <B.json>
        Per workload x end-to-end metric: within-bound / regressed /
        unresolved. Exits 1 on a regression.

WORKLOADS:
    table1_vias logic_f64 logic_f32 array_cold array_resume array_fleet2
";

/// Timed runs every driver invocation makes at least, however short
/// `--seconds` is: a median needs them.
const MIN_RUNS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("child-vias") => cmd_child_vias(&args[1..]),
        Some("child-setup") => cmd_child_setup(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => cmd_driver(&args),
        _ => Err(format!("expected a subcommand or --workload\n\n{USAGE}")),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("cardopc-benchmarks: {message}");
        ExitCode::FAILURE
    })
}

/// `--flag value` pairs (and bare switches listed in `switches`).
fn parse_flags(args: &[String], switches: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            return Err(format!("unexpected argument '{flag}'\n\n{USAGE}"));
        }
        let value = if switches.contains(&flag.as_str()) {
            String::new()
        } else {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value"))?
                .clone()
        };
        flags.push((flag.clone(), value));
    }
    Ok(flags)
}

fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse '{raw}'"))
}

/// The scratch tree of one harness process; removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn create(root: &Path) -> Result<Scratch, String> {
        let dir = root.join(format!("cardopc-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover tree sits in an ignored build directory.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Newest modification time of any file below `dir`.
fn newest_mtime(dir: &Path) -> Option<SystemTime> {
    let mut newest = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let path = entry.path();
        let time = if path.is_dir() {
            newest_mtime(&path)
        } else {
            entry.metadata().ok().and_then(|m| m.modified().ok())
        };
        newest = newest.max(time);
    }
    newest
}

/// The release `cardopc` binary. With `build`, cargo brings it up to date
/// (the driver's checkout starts without one); without, a missing or stale
/// binary is refused rather than silently measured.
fn cardopc_binary(build: bool) -> Result<PathBuf, String> {
    let root = util::repo_root();
    let target = util::target_dir();
    let binary = target.join("release/cardopc");
    if build {
        let status = Command::new("cargo")
            .args([
                "build",
                "--release",
                "--offline",
                "-p",
                "cardopc-serve",
                "--bin",
                "cardopc",
            ])
            .current_dir(&root)
            .env("CARGO_TARGET_DIR", &target)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building cardopc failed ({status})"));
        }
        return Ok(binary);
    }
    let built = std::fs::metadata(&binary)
        .and_then(|m| m.modified())
        .map_err(|_| {
            format!(
                "{} is missing: run `cargo build --release` in {} first",
                binary.display(),
                root.display()
            )
        })?;
    if newest_mtime(&root.join("crates")).is_some_and(|source| source > built) {
        return Err(format!(
            "{} is older than crates/: run `cargo build --release` first \
             (a stale binary would be measured as if it were this commit)",
            binary.display()
        ));
    }
    Ok(binary)
}

fn binaries(build: bool) -> Result<Binaries, String> {
    Ok(Binaries {
        harness: std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?,
        cardopc: cardopc_binary(build)?,
    })
}

/// Runs the traced replay in this process. The global worker pool is
/// sized on first use, so the thread count is pinned before anything
/// touches it.
fn traced(seed: u64, sizes: Sizes, scratch: &Path) -> Result<replay::Traced, String> {
    std::env::set_var("CARDOPC_THREADS", "1");
    replay::traced_run(seed, sizes, scratch)
}

// ----------------------------------------------------------------- driver

fn cmd_driver(args: &[String]) -> Result<ExitCode, String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, 0u8);
    for (flag, value) in parse_flags(args, &[])? {
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = number(&flag, &value)?,
            "--seconds" => seconds = number(&flag, &value)?,
            "--trace" => trace = number(&flag, &value)?,
            other => return Err(format!("unknown flag '{other}'\n\n{USAGE}")),
        }
    }
    let name = name.ok_or_else(|| format!("--workload is required\n\n{USAGE}"))?;
    let spec = workload(&name).ok_or_else(|| format!("unknown workload '{name}'\n\n{USAGE}"))?;
    let scratch = Scratch::create(&util::target_dir().join("bench-scratch"))?;

    if trace != 0 {
        // One traced run covers every layer of every workload, so it is
        // the same whichever workload the driver names.
        let traced = traced(seed, Sizes::FULL, &scratch.0)?;
        eprint!("{}", report::render_breakdown(&traced.tracer));
        eprint!("{}", report::render_per_layer(&traced.metrics));
        println!(
            "{}",
            report::driver_line(1, 0, report::per_layer_json(&traced.metrics))
        );
        return Ok(ExitCode::SUCCESS);
    }

    let bins = binaries(true)?;
    let mut session = Session::prepare(spec, seed, Sizes::FULL, &scratch.0, &bins)?;
    session.measure_setup()?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds.max(0.0));
    while session.attempted < MIN_RUNS || Instant::now() < deadline {
        session.run_once(true);
        if session.failures.len() >= MIN_RUNS {
            break; // broken, not noisy: stop burning the time budget
        }
        if session.setup_s.len() < workloads::SETUP_PROBES_SPREAD_MAX {
            session.probe_setup()?;
        }
    }
    for failure in &session.failures {
        eprintln!("cardopc-benchmarks: FAILED {failure}");
    }
    eprint!(
        "{}",
        report::render_end_to_end(std::slice::from_ref(&session))
    );
    let values = metrics::driver_values(&session)
        .ok_or_else(|| format!("{name}: no run passed its checks"))?;
    let metrics = report::values_json(values.iter().map(|(m, v)| (m.name, m.unit, *v)));
    println!(
        "{}",
        report::driver_line(session.attempted, session.failures.len(), metrics)
    );
    Ok(if session.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// -------------------------------------------------------------------- run

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let (mut seed, mut runs, mut quick) = (0u64, 8usize, false);
    let mut scratch_root = util::target_dir().join("bench-scratch");
    let mut out = util::target_dir().join("bench-results.json");
    for (flag, value) in parse_flags(args, &["--quick"])? {
        match flag.as_str() {
            "--seed" => seed = number(&flag, &value)?,
            "--runs" => runs = number(&flag, &value)?,
            "--quick" => quick = true,
            "--scratch" => scratch_root = PathBuf::from(value),
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag '{other}'\n\n{USAGE}")),
        }
    }
    let sizes = if quick { Sizes::QUICK } else { Sizes::FULL };
    let runs = if quick { 1 } else { runs.max(1) };
    let bins = binaries(false)?;
    let scratch = Scratch::create(&scratch_root)?;

    let mut sessions = Vec::new();
    for spec in &WORKLOADS {
        eprintln!("preparing {}", spec.name);
        let mut session = Session::prepare(spec, seed, sizes, &scratch.0, &bins)?;
        session.measure_setup()?;
        sessions.push(session);
    }
    // Workloads are interleaved so machine drift hits all of them alike;
    // round 0 is the untimed warm-up.
    for round in usize::from(quick)..=runs {
        eprintln!(
            "round {round} of {runs}{}",
            if round == 0 { " (warm-up)" } else { "" }
        );
        for session in &mut sessions {
            session.run_once(round > 0);
        }
    }

    let mut failures: Vec<String> = sessions.iter().flat_map(|s| s.failures.clone()).collect();
    // The three array workloads are one job run three ways: same bytes out.
    let array_ids: Vec<_> = sessions
        .iter()
        .filter(|s| {
            matches!(
                s.spec.kind,
                Kind::ArrayCold | Kind::ArrayResume | Kind::ArrayFleet2
            )
        })
        .map(|s| s.reference)
        .collect();
    if array_ids.windows(2).any(|pair| pair[0] != pair[1]) {
        failures.push(format!(
            "array workloads wrote different outputs: {array_ids:x?}"
        ));
    }

    eprintln!("traced run");
    let traced = traced(seed, sizes, &scratch.0)?;

    println!(
        "end-to-end (median of fresh-process runs, {} threads)",
        workloads::THREADS
    );
    print!("{}", report::render_end_to_end(&sessions));
    println!("per layer (one traced run, 1 thread; never compare these to the numbers above)");
    print!("{}", report::render_per_layer(&traced.metrics));
    println!("where the traced units spent their time (self time by stage)");
    print!("{}", report::render_breakdown(&traced.tracer));
    for failure in &failures {
        println!("FAILED {failure}");
    }

    let results = Json::obj(vec![
        ("schema", Json::num_usize(1)),
        ("seed", Json::Num(seed as f64)),
        ("runs", Json::num_usize(runs)),
        ("quick", Json::Bool(quick)),
        ("host", util::host_facts(workloads::THREADS, &scratch.0)),
        (
            "workloads",
            Json::Obj(
                sessions
                    .iter()
                    .map(|s| (s.spec.name.to_string(), report::workload_json(s)))
                    .collect(),
            ),
        ),
        ("per_layer", report::per_layer_json(&traced.metrics)),
        (
            "failures",
            Json::Arr(failures.iter().cloned().map(Json::Str).collect()),
        ),
        // This benchmark defines the measurement; it claims no gain.
        ("claim", Json::Null),
    ]);
    util::write_file(&out, results.to_string_compact().as_bytes())?;
    let trace_out = out.with_extension("trace.json");
    util::write_file(
        &trace_out,
        traced.tracer.to_json().to_string_compact().as_bytes(),
    )?;
    println!(
        "results: {}\ntrace:   {}",
        out.display(),
        trace_out.display()
    );
    println!("\"claim\": null");
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// ---------------------------------------------------------------- compare

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(format!("compare expects two result files\n\n{USAGE}"));
    };
    let load = |path: &String| -> Result<Json, String> {
        let bytes = util::read_file(Path::new(path))?;
        Json::parse(&String::from_utf8_lossy(&bytes)).map_err(|e| format!("{path}: {e}"))
    };
    let (text, regressed) = report::compare(&load(a)?, &load(b)?)?;
    print!("{text}");
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// --------------------------------------------------------------- children

fn cmd_child_vias(args: &[String]) -> Result<ExitCode, String> {
    let [out, clips] = args else {
        return Err("child-vias expects <out.json> <clips>".into());
    };
    children::child_vias(Path::new(out), number("clips", clips)?)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_child_setup(args: &[String]) -> Result<ExitCode, String> {
    let name = args
        .first()
        .ok_or("child-setup expects <workload> [design] [run-dir]")?;
    let spec = workload(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seconds = children::child_setup(
        spec.kind,
        args.get(1).map(Path::new),
        args.get(2).map(Path::new),
    )?;
    println!("{seconds}");
    Ok(ExitCode::SUCCESS)
}
