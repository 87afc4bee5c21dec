//! The on-disk discipline shared by run directories and the tile cache:
//! append-only JSONL stores that survive a killed writer, atomic
//! replacement of whole files, and PID lock files with stale-lock reclaim.

use crate::{map_on_pool, RuntimeError};
use cardopc_litho::WorkerPool;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// `RuntimeError::Io` in the crate's "<verb> <path>: <cause>" form.
pub(crate) fn io_error(verb: &str, path: &Path, e: std::io::Error) -> RuntimeError {
    RuntimeError::Io(format!("{verb} {}: {e}", path.display()))
}

/// Reads an append-only JSONL store: every line `parse` accepts, in file
/// order, each with the bytes it occupies — plus the file's total size.
/// Lines `parse` rejects (the torn tail of a killed writer) or that are not
/// UTF-8 (a damaged byte) are skipped, so collecting the result into a map
/// keyed by the line's identity makes the last line per key win. A missing
/// file is an empty store. Parsing is spread over the global
/// [`WorkerPool`] (see [`parse_lines`]).
///
/// # Errors
///
/// [`RuntimeError::Io`] when the file exists but cannot be read.
pub(crate) fn load_jsonl<T: Send>(
    path: &Path,
    parse: impl Fn(&str) -> Result<T, String> + Sync,
) -> Result<(Vec<(T, u64)>, u64), RuntimeError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(io_error("read", path, e)),
    };
    let parsed = parse_lines(&bytes, WorkerPool::global(), parse);
    Ok((parsed, bytes.len() as u64))
}

/// Parses the non-empty lines of `text` over `pool` ([`map_on_pool`]:
/// contiguous chunks, concatenated in file order), so the result is the
/// sequential loop's for any pool size.
fn parse_lines<T: Send>(
    text: &[u8],
    pool: &WorkerPool,
    parse: impl Fn(&str) -> Result<T, String> + Sync,
) -> Vec<(T, u64)> {
    let lines: Vec<&[u8]> = text
        .split(|&b| b == b'\n')
        .map(<[u8]>::trim_ascii)
        .filter(|l| !l.is_empty())
        .collect();
    let keep = |l: &[u8]| {
        Some((
            parse(std::str::from_utf8(l).ok()?).ok()?,
            l.len() as u64 + 1,
        ))
    };
    map_on_pool(pool, lines, keep)
        .into_iter()
        .flatten()
        .collect()
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

/// Appends `lines`, each plus its newline, in one write, then flushes: a
/// killed writer tears at most the final line.
pub(crate) fn append_lines(file: &mut impl Write, lines: &[&str]) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    file.write_all(&bytes)?;
    file.flush()
}

/// Replaces `path` atomically: `write` fills `<path>.tmp` — beside
/// `path`, so the rename stays on one filesystem — through a buffer that
/// is flushed before the rename. A write that fails removes the temporary
/// and leaves `path` as it was; a killed writer leaves at most the
/// temporary. Either way, no short file ever appears under `path`. (No
/// `fsync`: this guards against writers that die, not against power loss.)
///
/// # Errors
///
/// The first error of `write`, or of creating, flushing or renaming the
/// temporary.
pub fn write_file_atomic<E: From<std::io::Error>>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), E>,
) -> Result<(), E> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut out = BufWriter::new(File::create(&tmp)?);
    let written = write(&mut out).and_then(|()| Ok(out.flush()?));
    drop(out);
    let renamed = written.and_then(|()| Ok(std::fs::rename(&tmp, path)?));
    if renamed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    renamed
}

/// [`write_file_atomic`] of a string (manifests, cache compaction).
pub(crate) fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    write_file_atomic(path, |out| out.write_all(contents.as_bytes()))
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// `<key> <value>`; anything else is a torn line.
    fn parse(line: &str) -> Result<(u32, u32), String> {
        let (key, value) = line.split_once(' ').ok_or("torn")?;
        Ok((
            key.parse().map_err(|_| "bad key")?,
            value.parse().map_err(|_| "bad value")?,
        ))
    }

    /// 500 keys written three times over (so a later line must win), with
    /// blank lines, padded lines, garbage in the middle and a torn tail.
    fn store_text() -> String {
        let mut text = String::new();
        for round in 0..3 {
            for key in 0..500 {
                text.push_str(&format!("{key} {}\n", round * 1000 + key));
                if key % 97 == 0 {
                    text.push_str("\n  \nnot a record\n");
                }
            }
            text.push_str(&format!("  {round} 77  \r\n"));
        }
        text.push_str("499 12");
        text.push_str("34 tor");
        text
    }

    #[test]
    fn any_pool_size_parses_like_one_thread() {
        let text = store_text();
        let one = parse_lines(text.as_bytes(), &WorkerPool::new(1), parse);
        assert_eq!(one.len(), 3 * 501);
        assert_eq!(one[0], ((0, 0), 4));
        // Bytes are the trimmed line plus its newline.
        assert_eq!(one[500], ((0, 77), 5));
        for threads in [2, 3, 8] {
            let many = parse_lines(text.as_bytes(), &WorkerPool::new(threads), parse);
            assert_eq!(many, one, "{threads} threads");
        }
        // A line with a byte that is not UTF-8 is skipped, alone.
        let mut damaged = text.clone().into_bytes();
        damaged[2] ^= 0x80;
        let skipped = parse_lines(&damaged, &WorkerPool::new(2), parse);
        assert_eq!(skipped[..], one[1..]);
        // File order is kept, so the last line per key wins and the torn
        // tail changes nothing.
        let map: HashMap<u32, u32> = one.into_iter().map(|(pair, _)| pair).collect();
        assert_eq!(map[&499], 2499);
        assert_eq!(map[&0], 2000);
        assert_eq!(map[&2], 77);
    }

    /// A sink that takes `left` more bytes, then fails like a full disk.
    pub(crate) struct FailAfter<W> {
        pub(crate) inner: W,
        pub(crate) left: usize,
    }

    impl<W: std::io::Write> std::io::Write for FailAfter<W> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.left == 0 {
                return Err(std::io::Error::other("no space left on device"));
            }
            let n = self.inner.write(&buf[..buf.len().min(self.left)])?;
            self.left -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn a_failed_atomic_write_leaves_the_destination_and_no_temporary() {
        let dir = std::env::temp_dir().join(format!("cardopc-atomic-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mask.gds");
        let tmp = dir.join("mask.gds.tmp");
        std::fs::write(&path, b"the previous mask").unwrap();
        // Fails after 100 000 bytes, well past the write buffer.
        let failed = write_file_atomic(&path, |out| {
            let mut sink = FailAfter {
                inner: out,
                left: 100_000,
            };
            (0..1000).try_for_each(|_| sink.write_all(&[7u8; 1000]))
        });
        assert!(failed.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"the previous mask");
        assert!(!tmp.exists(), "temporary left behind");
        // A write that succeeds replaces the file whole.
        write_atomic(&path, "the next mask").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"the next mask");
        assert!(!tmp.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn small_empty_and_missing_stores_load() {
        let pool = WorkerPool::new(4);
        assert!(parse_lines(b"", &pool, parse).is_empty());
        assert!(parse_lines(b"\n\n", &pool, parse).is_empty());
        // A handful of lines stays on the caller's thread — same answer.
        let few = parse_lines(b"1 2\n1 3\ntorn", &pool, parse);
        assert_eq!(few, vec![((1, 2), 4), ((1, 3), 4)]);

        let dir = std::env::temp_dir().join(format!("cardopc-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.jsonl");
        assert_eq!(load_jsonl(&path, parse).unwrap(), (Vec::new(), 0));
        std::fs::write(&path, "").unwrap();
        assert_eq!(load_jsonl(&path, parse).unwrap(), (Vec::new(), 0));
        let text = store_text();
        std::fs::write(&path, &text).unwrap();
        let (loaded, bytes) = load_jsonl(&path, parse).unwrap();
        assert_eq!(bytes, text.len() as u64);
        assert_eq!(
            loaded,
            parse_lines(text.as_bytes(), &WorkerPool::new(1), parse)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
