//! End-to-end tests of the `cardopc` binary: flag handling contracts
//! (exit codes, usage text) and the GDS ingestion round trip —
//! a generated design exported with `--write-target-gds` and re-run from
//! that file must reproduce the direct run's stable manifest exactly.

use std::path::Path;
use std::process::{Command, Output};

fn cardopc(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cardopc"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tempdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cardopc-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let dir = tempdir("help");
    // Help is success in every mode: the user got what they asked for.
    for args in [
        &["--help"][..],
        &["-h"][..],
        &["serve", "--help"][..],
        &["worker", "-h"][..],
    ] {
        let out = cardopc(args, &dir);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("USAGE"), "{args:?}: {text}");
        assert!(text.contains("--design"), "{args:?}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_prints_package_version_and_exits_zero() {
    let dir = tempdir("version");
    for args in [
        &["--version"][..],
        &["serve", "--version"][..],
        &["worker", "--version"][..],
    ] {
        let out = cardopc(args, &dir);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        assert_eq!(
            stdout(&out).trim(),
            concat!("cardopc ", env!("CARGO_PKG_VERSION")),
            "{args:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_print_usage_and_exit_nonzero() {
    let dir = tempdir("unknown");
    for args in [
        &["--bogus"][..],
        &["serve", "--bogus"][..],
        &["worker", "--bogus"][..],
    ] {
        let out = cardopc(args, &dir);
        assert!(!out.status.success(), "{args:?} should fail");
        let text = stderr(&out);
        assert!(text.contains("unknown flag '--bogus'"), "{args:?}: {text}");
        assert!(text.contains("USAGE"), "{args:?}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker's run directory is its tile cache, so `--no-cache` refuses
/// one: exit 1 with a message, before anything is bound or created.
#[test]
fn worker_run_dir_without_the_cache_exits_1() {
    let dir = tempdir("workernocache");
    let out = cardopc(&["worker", "--run-dir", "W", "--no-cache"], &dir);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stderr(&out);
    assert!(text.contains("cardopc worker: cannot start"), "{text}");
    assert!(text.contains("--run-dir needs the cache"), "{text}");
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    assert!(!dir.join("W").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_design_flags_exit_nonzero_with_actionable_messages() {
    let dir = tempdir("baddesign");
    for (args, needle) in [
        (&["--design", "warp-core"][..], "unknown design"),
        (
            &["--design", "chip.gds", "--design-tiles", "2"][..],
            "synthetic designs only",
        ),
        (
            &["--design", "gcd", "--layer", "5"][..],
            "--layer applies to GDS designs",
        ),
        (&["--layer", "bogus", "--design", "a.gds"][..], "--layer"),
        (&["--design", "missing.gds"][..], "missing.gds"),
    ] {
        let out = cardopc(args, &dir);
        assert!(!out.status.success(), "{args:?} should fail");
        let text = stderr(&out);
        assert!(text.contains(needle), "{args:?}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flag values an `OpcConfig` cannot hold are user input, not a bug: one
/// `cardopc: error:` line carrying the validation rule and exit status 1
/// (a panic would be 101), before anything is built or spawned — in local
/// and in fleet mode.
#[test]
fn invalid_opc_flags_exit_1_with_the_validation_message() {
    let dir = tempdir("badopc");
    let pitch = "'opc.pitch' must be positive and finite";
    for (args, needle) in [
        (&["--quick", "--pitch", "0"][..], pitch),
        (&["--quick", "--pitch", "-8"][..], pitch),
        (&["--quick", "--pitch", "NaN"][..], pitch),
        (
            &["--quick", "--iterations", "0"][..],
            "'opc.iterations' must be at least 1",
        ),
        (
            &["--quick", "--pitch", "0", "--workers-local", "2"][..],
            pitch,
        ),
    ] {
        let out = cardopc(args, &dir);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        let want = format!("cardopc: error: {needle}\n");
        assert_eq!(stderr(&out), want, "{args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crop window or synthetic tile count the service would refuse is
/// refused by the CLI with the service's message and exit 1 — not a panic
/// in `Clip::new` (0, negative, NaN), a run that never ends (`inf`) or a
/// silently clamped tile count.
#[test]
fn out_of_range_crop_and_design_tiles_exit_1() {
    let dir = tempdir("badcrop");
    let crop = "'design.crop' must be positive and finite";
    let tiles = "'design.tiles' must be in 1..=16";
    for (args, needle) in [
        (&["--quick", "--crop", "0"][..], crop),
        (&["--quick", "--crop", "-100"][..], crop),
        (&["--quick", "--crop", "nan"][..], crop),
        (&["--quick", "--crop", "inf"][..], crop),
        (
            &["--quick", "--crop", "0", "--workers-local", "2"][..],
            crop,
        ),
        (&["--quick", "--design-tiles", "0"][..], tiles),
        (&["--quick", "--design-tiles", "17"][..], tiles),
    ] {
        let out = cardopc(args, &dir);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        let want = format!("cardopc: error: {needle}\n");
        assert_eq!(stderr(&out), want, "{args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tile grid too large to allocate (`--tile 0.001` on the 30 µm `gcd`
/// tile: 3·10⁷ × 3·10⁷ tiles) is a one-line config error and exit 1, in
/// local and fleet mode — not an abort on a failed allocation. Only grids
/// whose allocation exceeds the address space are tried here: a smaller
/// one could be granted under overcommit and then fill memory.
#[test]
fn an_unallocatable_tile_grid_exits_1() {
    let dir = tempdir("hugegrid");
    let needle = "the tile grid is too large to allocate";
    for args in [
        &["--design", "gcd", "--tile", "0.001", "--iterations", "1"][..],
        &["--design", "gcd", "--tile", "1e-300", "--iterations", "1"][..],
        &["--design", "gcd", "--tile", "0.001", "--workers-local", "1"][..],
    ] {
        let out = cardopc(args, &dir);
        let said = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {said}");
        let last = said.lines().last().unwrap_or_default();
        assert!(last.starts_with("cardopc: error: "), "{args:?}: {said}");
        assert!(last.contains(needle), "{args:?}: {said}");
        assert!(!said.contains("panicked"), "{args:?}: {said}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--trace FILE` writes one JSONL span per line — every stage of the run,
/// per-tile spans with their tile — and moves no output byte: the traced
/// run's stable manifest and mask equal the untraced run's.
#[test]
fn trace_writes_stage_spans_and_moves_no_output_byte() {
    let dir = tempdir("trace");
    let params = [
        "--design",
        "gcd",
        "--crop",
        "1024",
        "--tile",
        "512",
        "--halo",
        "256",
        "--pitch",
        "16",
        "--iterations",
        "1",
        "--threads",
        "2",
    ];
    let run = |name: &str, trace: bool| {
        let mask = format!("{name}/mask.gds");
        let mut args = vec!["--run-dir", name, "--out-gds", &mask];
        args.extend_from_slice(&params);
        if trace {
            args.extend_from_slice(&["--trace", "spans.jsonl"]);
        }
        let out = cardopc(&args, &dir);
        assert!(out.status.success(), "{name}: {}", stderr(&out));
    };
    run("plain", false);
    run("traced", true);
    for file in ["manifest.stable.json", "mask.gds"] {
        let read = |name: &str| std::fs::read(dir.join(name).join(file)).unwrap();
        assert!(
            read("plain") == read("traced"),
            "{file} moved under --trace"
        );
    }
    let text = std::fs::read_to_string(dir.join("spans.jsonl")).unwrap();
    let spans: Vec<cardopc_json::Json> = text
        .lines()
        .map(|l| cardopc_json::Json::parse(l).unwrap())
        .collect();
    let named = |name: &str| -> Vec<&cardopc_json::Json> {
        let is = |s: &&cardopc_json::Json| s.get("name").and_then(|n| n.as_str()) == Some(name);
        spans.iter().filter(is).collect()
    };
    for stage in [
        "ingest",
        "partition",
        "checkpoint_load",
        "tile_hash",
        "run_tiles",
        "stitch",
        "seam_check",
        "manifest",
        "export",
        "table",
        "correct",
        "commit",
        "score",
        "mrc_resolve",
    ] {
        assert!(!named(stage).is_empty(), "no {stage} span in {text}");
    }
    // Per-tile spans carry their tile (2×2 tiles), others none.
    let tiles: std::collections::BTreeSet<usize> = named("correct")
        .into_iter()
        .map(|s| s.get("tile").and_then(|t| t.as_usize()).unwrap())
        .collect();
    assert_eq!(tiles.into_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    assert!(named("mrc_resolve")
        .iter()
        .all(|s| s.get("tile").and_then(|t| t.as_usize()).is_some()));
    assert!(named("partition")
        .iter()
        .all(|s| s.get("tile") == Some(&cardopc_json::Json::Null)));
    for s in &spans {
        let at = |k: &str| s.get(k).and_then(|v| v.as_f64()).unwrap();
        assert!(at("start_ns") <= at("end_ns"), "{s:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crop no smaller than the design is the whole design: the 30 µm `gcd`
/// tile's 8×8 grid of 4096 nm tiles, as with no crop at all — not a panic
/// sizing the grid of a 1e12 nm window, nor a 10×10 grid whose outer ring
/// holds nothing to correct.
#[test]
fn a_crop_wider_than_the_design_runs_the_whole_design() {
    let dir = tempdir("widecrop");
    for crop in ["1e12", "40000"] {
        let args = ["--crop", crop, "--iterations", "1", "--max-tiles", "1"];
        let out = cardopc(&args, &dir);
        assert!(out.status.success(), "{crop}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("run: gcdx1  grid 8x8 "), "{crop}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fleet timeout no `Duration` holds is a usage error (exit 1, before
/// any worker is contacted), not a panic.
#[test]
fn unrepresentable_fleet_timeouts_exit_1() {
    let dir = tempdir("fleetsecs");
    for (flag, value) in [
        ("--lease-secs", "inf"),
        ("--lease-secs", "1e30"),
        ("--steal-secs", "inf"),
    ] {
        let args = ["--quick", "--worker-addr", "127.0.0.1:9", flag, value];
        let out = cardopc(&args, &dir);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        let want = format!("{flag}: '{value}' seconds is out of range\n");
        assert_eq!(stderr(&out), want, "{args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flag that only sizes or feeds this process's pool, combined with
/// fleet mode, is refused by name rather than silently dropped.
fn assert_fleet_mode_refuses(flag: &str, value: &str) {
    let dir = tempdir(&format!("fleetflag{flag}"));
    for fleet in [
        &["--workers-local", "2"][..],
        &["--worker-addr", "127.0.0.1:9"][..],
    ] {
        let args = [&["--quick", flag, value][..], fleet].concat();
        let out = cardopc(&args, &dir);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        let text = stderr(&out);
        let needle = format!("cardopc: error: {flag} does not apply with --workers-local");
        assert!(text.starts_with(&needle), "{args:?}: {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_mode_refuses_threads() {
    assert_fleet_mode_refuses("--threads", "2");
}

/// `--workers`, once a second spelling of `--threads`, is gone: an unknown
/// flag in local and in fleet mode alike.
#[test]
fn fleet_mode_refuses_workers() {
    let dir = tempdir("workersflag");
    for args in [
        &["--quick", "--workers", "2"][..],
        &["--quick", "--workers", "2", "--workers-local", "2"][..],
    ] {
        let out = cardopc(args, &dir);
        assert!(!out.status.success(), "{args:?} should fail");
        let text = stderr(&out);
        assert!(
            text.contains("unknown flag '--workers'"),
            "{args:?}: {text}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_mode_refuses_cache_dir() {
    assert_fleet_mode_refuses("--cache-dir", "cache");
}

/// `--no-cache` reaches the spawned workers: each announces its tile cache
/// state on the stderr it inherits from the coordinator.
#[test]
fn fleet_mode_forwards_no_cache_to_spawned_workers() {
    let dir = tempdir("fleetnocache");
    for (args, state) in [
        (
            &["--quick", "--workers-local", "2", "--no-cache"][..],
            "off",
        ),
        (&["--quick", "--workers-local", "2"][..], "on"),
    ] {
        let out = cardopc(args, &dir);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        let text = stderr(&out);
        let announced = format!("cardopc worker: tile cache {state};");
        assert_eq!(text.matches(&announced).count(), 2, "{args:?}: {text}");
        assert_eq!(text.matches("tile cache").count(), 2, "{args:?}: {text}");
        assert!(
            stdout(&out).contains("executed 4 resumed 0 remaining 0"),
            "{args:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full real-design pipeline, as a user would drive it:
///
/// 1. Correct a generated design directly, exporting the pre-OPC target
///    as GDSII and the corrected mask as GDSII.
/// 2. Correct the *exported GDS file* with identical parameters.
/// 3. The two runs' timing-free manifests must be byte-identical (GDS
///    ingestion is lossless), and the mask export must be deterministic.
#[test]
fn gds_ingested_run_matches_direct_run_byte_for_byte() {
    let dir = tempdir("roundtrip");
    let params = [
        "--crop",
        "1024",
        "--tile",
        "512",
        "--halo",
        "256",
        "--pitch",
        "16",
        "--iterations",
        "2",
        "--threads",
        "2",
    ];

    let mut direct = vec![
        "--design",
        "gcd",
        "--run-dir",
        "direct",
        "--write-target-gds",
        "design.gds",
        "--out-gds",
        "direct-mask.gds",
    ];
    direct.extend_from_slice(&params);
    let out = cardopc(&direct, &dir);
    assert!(out.status.success(), "direct run: {}", stderr(&out));
    assert!(stdout(&out).contains("executed"), "{}", stdout(&out));

    // The exported design is already cropped and rebased; no --crop here.
    let mut gds = vec![
        "--design",
        "design.gds",
        "--run-dir",
        "gdsrun",
        "--out-gds",
        "gds-mask.gds",
    ];
    gds.extend_from_slice(&params[2..]); // skip --crop 1024
    let out = cardopc(&gds, &dir);
    assert!(out.status.success(), "gds run: {}", stderr(&out));

    let direct_manifest = std::fs::read(dir.join("direct/manifest.stable.json")).unwrap();
    let gds_manifest = std::fs::read(dir.join("gdsrun/manifest.stable.json")).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&direct_manifest),
        String::from_utf8_lossy(&gds_manifest),
        "GDS ingestion changed the correction"
    );

    let direct_mask = std::fs::read(dir.join("direct-mask.gds")).unwrap();
    let gds_mask = std::fs::read(dir.join("gds-mask.gds")).unwrap();
    assert!(!direct_mask.is_empty());
    assert_eq!(direct_mask, gds_mask, "mask export is not deterministic");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--layer` steers which shapes a GDS run corrects: asking for a layer
/// the file does not use is a clean error, and the marker layer (255) is
/// never a target.
#[test]
fn layer_filter_selects_targets_from_gds() {
    let dir = tempdir("layerpick");
    let out = cardopc(
        &[
            "--design",
            "gcd",
            "--crop",
            "768",
            "--write-target-gds",
            "design.gds",
            "--tile",
            "512",
            "--halo",
            "256",
            "--pitch",
            "16",
            "--iterations",
            "1",
            "--max-tiles",
            "1",
            "--threads",
            "1",
        ],
        &dir,
    );
    assert!(out.status.success(), "{}", stderr(&out));

    let out = cardopc(&["--design", "design.gds", "--layer", "42"], &dir);
    assert!(!out.status.success(), "layer 42 holds no shapes");
    assert!(stderr(&out).contains("42"), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawned `--workers-local` processes inherit the coordinator's stderr,
/// so a captured run reaches end-of-file only once the coordinator *and*
/// every worker it spawned have exited: a leaked child shows up as a
/// capture that never finishes.
fn cardopc_and_children_exit(args: &'static [&'static str], dir: &Path) -> Output {
    let (done, finished) = std::sync::mpsc::channel();
    let dir = dir.to_path_buf();
    std::thread::spawn(move || done.send(cardopc(args, &dir)));
    finished
        .recv_timeout(std::time::Duration::from_secs(120))
        .unwrap_or_else(|_| panic!("{args:?}: a process still holds the output pipe"))
}

#[test]
fn local_workers_are_reaped_on_success_and_on_failure() {
    let dir = tempdir("localworkers");
    let fleet: &[&str] = &["--quick", "--workers-local", "2", "--run-dir", "fleet"];
    let out = cardopc_and_children_exit(fleet, &dir);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("executed 4 resumed 0 remaining 0"), "{text}");
    // Four unique tiles: four requests. The label is appended after the
    // ones existing parsers know.
    let counters = "fleet dispatched 4 stolen 0 duplicates 0 redispatched 0 retired 0 \
                    recovered 0 requests 4";
    assert!(text.contains(counters), "{text}");
    let single = cardopc(&["--quick", "--run-dir", "single"], &dir);
    assert!(single.status.success(), "{}", stderr(&single));
    assert_eq!(
        std::fs::read(dir.join("fleet/manifest.stable.json")).unwrap(),
        std::fs::read(dir.join("single/manifest.stable.json")).unwrap()
    );

    // A run that fails with its workers already up (a tile budget leaves
    // no mask to export) ...
    let incomplete: &[&str] = &[
        "--quick",
        "--workers-local",
        "2",
        "--max-tiles",
        "1",
        "--out-gds",
        "mask.gds",
    ];
    let out = cardopc_and_children_exit(incomplete, &dir);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("run incomplete"), "{}", stderr(&out));
    // ... and one that fails before it gets that far.
    let bad_design: &[&str] = &["--design", "missing.gds", "--workers-local", "2"];
    let out = cardopc_and_children_exit(bad_design, &dir);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("missing.gds"), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `cardopc args` with `CARDOPC_THREADS` set to `env_threads` and
/// returns its exit status with the most worker-pool threads
/// (`cardopc-litho-*`) seen alive at once, polling `/proc/<pid>/task`.
#[cfg(target_os = "linux")]
fn peak_pool_threads(args: &[&str], env_threads: &str, dir: &Path) -> (bool, usize) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cardopc"))
        .args(args)
        .current_dir(dir)
        .env("CARDOPC_THREADS", env_threads)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary runs");
    let tasks = format!("/proc/{}/task", child.id());
    let mut peak = 0;
    loop {
        let alive = std::fs::read_dir(&tasks)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|task| {
                std::fs::read_to_string(task.path().join("comm"))
                    .is_ok_and(|comm| comm.starts_with("cardopc-litho"))
            })
            .count();
        peak = peak.max(alive);
        if let Some(status) = child.try_wait().expect("wait") {
            return (status.success(), peak);
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// `--threads N` means N executors in the whole process: the submitting
/// thread plus N − 1 pool workers, whatever `CARDOPC_THREADS` says — not a
/// tile pool of N beside a global pool sized from the environment.
#[cfg(target_os = "linux")]
#[test]
fn threads_flag_sizes_the_one_process_pool() {
    let dir = tempdir("threads");
    for (flag, env, workers) in [("1", "3", 0), ("2", "1", 1)] {
        let run_dir = format!("t{flag}");
        let args = ["--quick", "--threads", flag, "--run-dir", &run_dir];
        let (ok, peak) = peak_pool_threads(&args, env, &dir);
        assert!(ok, "--threads {flag} run failed");
        assert_eq!(
            peak, workers,
            "--threads {flag} with CARDOPC_THREADS={env}: pool workers alive"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
