//! Small shared helpers: hashing for byte-identity checks, file I/O with
//! readable errors, and the facts about the host every result carries.

use cardopc::json::Json;
use cardopc::litho::Field;
use std::path::{Path, PathBuf};
use std::process::Command;

/// 64-bit FNV-1a — enough to tell whether two output files are the same
/// bytes without keeping 17 MB masks around.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `fs::read` with the path in the error.
pub fn read_file(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// `fs::write` (parents created) with the path in the error.
pub fn write_file(path: &Path, bytes: &[u8]) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The repository root: the directory holding `benchmarks/`.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repository root")
        .to_path_buf()
}

/// Where cargo puts the repository's build products: `CARGO_TARGET_DIR`
/// (relative values resolve against the current directory, as cargo
/// resolves them) or `<root>/target`.
pub fn target_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if !dir.is_empty() => {
            let dir = PathBuf::from(dir);
            if dir.is_absolute() {
                dir
            } else {
                std::env::current_dir()
                    .expect("the current directory is readable")
                    .join(dir)
            }
        }
        _ => repo_root().join("target"),
    }
}

/// First line of a command's stdout, or "unknown" when it cannot run.
fn first_line_of(program: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// File-system type `path` lives on, by longest mount-point prefix in
/// `/proc/mounts` ("unknown" when that cannot be read). Timings on a
/// tmpfs scratch claim nothing about disks.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace().skip(1);
            Some((fields.next()?, fields.next()?))
        })
        .filter(|(mount, _)| path.starts_with(mount))
        .max_by_key(|(mount, _)| mount.len())
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

/// Host facts recorded with every result: a number that depends on
/// threads is meaningless without the core count next to it.
pub fn host_facts(threads: usize, scratch: &Path) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let root = repo_root();
    Json::obj(vec![
        ("nproc", Json::num_usize(nproc)),
        ("cpu_model", Json::Str(cpu_model)),
        ("threads", Json::num_usize(threads)),
        (
            "simd_mode",
            Json::Str(format!("{:?}", Field::<f64>::simd_mode())),
        ),
        (
            "rustc",
            Json::Str(first_line_of("rustc", &["--version"], &root)),
        ),
        (
            "commit",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"], &root)),
        ),
        ("scratch", Json::Str(scratch.display().to_string())),
        ("scratch_fs", Json::Str(filesystem_of(scratch))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn root_holds_the_benchmark_package() {
        assert!(repo_root().join("benchmarks/Cargo.toml").is_file());
    }
}
