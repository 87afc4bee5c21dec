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
