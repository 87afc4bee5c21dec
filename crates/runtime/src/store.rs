//! The on-disk discipline shared by run directories and the tile cache:
//! append-only JSONL stores that survive a killed writer, atomic
//! replacement of whole files, and PID lock files with stale-lock reclaim.

use crate::RuntimeError;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// `RuntimeError::Io` in the crate's "<verb> <path>: <cause>" form.
pub(crate) fn io_error(verb: &str, path: &Path, e: std::io::Error) -> RuntimeError {
    RuntimeError::Io(format!("{verb} {}: {e}", path.display()))
}

/// Reads an append-only JSONL store: every line `parse` accepts, in file
/// order, each with the bytes it occupies — plus the file's total size.
/// Lines `parse` rejects (the torn tail of a killed writer) are skipped,
/// so collecting the result into a map keyed by the line's identity makes
/// the last line per key win. A missing file is an empty store.
///
/// # Errors
///
/// [`RuntimeError::Io`] when the file exists but cannot be read.
pub(crate) fn load_jsonl<T>(
    path: &Path,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<(Vec<(T, u64)>, u64), RuntimeError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(io_error("read", path, e)),
    };
    let lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
    let parsed = lines.filter_map(|l| Some((parse(l).ok()?, l.len() as u64 + 1)));
    Ok((parsed.collect(), text.len() as u64))
}

/// Opens a JSONL store for appending, creating it if needed.
///
/// # Errors
///
/// [`RuntimeError::Io`] on open failure.
pub(crate) fn open_append(path: &Path) -> Result<std::fs::File, RuntimeError> {
    let mut options = std::fs::OpenOptions::new();
    let opened = options.create(true).append(true).open(path);
    opened.map_err(|e| io_error("open", path, e))
}

/// Appends `line` plus its newline in one write, then flushes: a killed
/// writer tears at most the final line.
pub(crate) fn append_line(file: &mut std::fs::File, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    file.write_all(line.as_bytes())?;
    file.flush()
}

/// Replaces `path` atomically: writes `<path>.tmp`, then renames it over.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Acquires `root/<name>` as a PID lock file with an atomic create-new,
/// reclaiming locks whose owning PID is no longer alive. Shared by the
/// run directory (`run.lock`) and the tile cache (`cache.lock`).
pub(crate) fn acquire_pid_lock(root: &Path, name: &str) -> Result<PathBuf, RuntimeError> {
    let path = root.join(name);
    // Two attempts: acquire, or (reclaim stale then) acquire.
    for attempt in 0..2 {
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut file) => {
                // PID written best-effort: an unreadable/empty lock is
                // treated as stale by later openers.
                let _ = writeln!(file, "{}", std::process::id());
                return Ok(path);
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let owner = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                match owner {
                    Some(pid) if pid_alive(pid) => {
                        return Err(RuntimeError::Locked {
                            path: path.display().to_string(),
                            pid,
                        });
                    }
                    _ => {
                        if attempt == 1 {
                            // Lost the reclaim race to another process
                            // that is now live.
                            return Err(RuntimeError::Locked {
                                path: path.display().to_string(),
                                pid: owner.unwrap_or(0),
                            });
                        }
                        eprintln!(
                            "cardopc: reclaiming stale lock {} (owner {} is gone)",
                            path.display(),
                            owner.map_or_else(|| "<unreadable>".into(), |p| p.to_string()),
                        );
                        let _ = std::fs::remove_file(&path);
                    }
                }
            }
            Err(e) => return Err(io_error("lock", &path, e)),
        }
    }
    unreachable!("lock acquisition loop returns on every branch")
}

/// Whether a PID refers to a live process. The runtime's own PID is
/// always live; other PIDs are probed via `/proc` where available and
/// conservatively assumed live elsewhere (a false "live" merely refuses
/// the lock, never corrupts the checkpoint file).
fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}
