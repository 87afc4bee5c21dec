//! Measuring a child process from outside: wall time from spawn to exit,
//! plus the CPU time and peak resident set of the child *and every
//! descendant it waited for* (the fleet workload's worker processes), as
//! the kernel accounts them in `wait4`'s `rusage`.
//!
//! `std` exposes no rusage and the build has no crates.io, so the libc
//! symbol is declared here. Linux only (`ru_maxrss` is in KiB there).

use std::ffi::{c_int, c_long};
use std::io;
use std::process::Command;
use std::time::Instant;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs of
/// which only `ru_maxrss` (the first) is read.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// What one finished child cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChildUsage {
    /// Spawn → exit, seconds.
    pub wall_s: f64,
    /// User CPU of the process tree, seconds.
    pub user_s: f64,
    /// System CPU of the process tree, seconds.
    pub sys_s: f64,
    /// Largest resident set of any process in the tree, MB (10⁶ bytes).
    pub peak_rss_mb: f64,
    /// Exit code; `None` when a signal killed the child.
    pub exit_code: Option<i32>,
}

impl ChildUsage {
    /// `true` for a normal exit with code 0.
    pub fn success(&self) -> bool {
        self.exit_code == Some(0)
    }
}

/// Spawns `command`, blocks until it exits and returns what it used.
///
/// # Errors
///
/// The spawn error, or `wait4`'s errno.
pub fn run_measured(command: &mut Command) -> io::Result<ChildUsage> {
    let start = Instant::now();
    let child = command.spawn()?;
    let pid = c_int::try_from(child.id()).expect("a pid fits c_int");
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and of the
        // layout the kernel fills; `pid` is our own un-reaped child, so
        // no other wait can have consumed it (`child` is never waited on
        // through std — dropping a `Child` neither kills nor reaps).
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let seconds = |t: Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    // WIFEXITED / WEXITSTATUS: the low 7 bits hold the terminating
    // signal (0 for a normal exit), the next byte the exit code.
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(ChildUsage {
        wall_s,
        user_s: seconds(usage.utime),
        sys_s: seconds(usage.stime),
        peak_rss_mb: usage.maxrss as f64 * 1024.0 / 1e6,
        exit_code,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_code_wall_and_rss() {
        let usage = run_measured(Command::new("sh").args(["-c", "sleep 0.05; exit 3"])).unwrap();
        assert_eq!(usage.exit_code, Some(3));
        assert!(!usage.success());
        assert!(usage.wall_s >= 0.05 && usage.wall_s < 5.0, "{usage:?}");
        assert!(usage.peak_rss_mb > 0.1, "{usage:?}");
    }

    #[test]
    fn accounts_cpu_of_waited_for_descendants() {
        // The busy loop runs in a grandchild; the shell waits for it, so
        // its CPU time must show up in the tree's rusage.
        let script = "sh -c 'i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done'";
        let usage = run_measured(Command::new("sh").args(["-c", script])).unwrap();
        assert!(usage.success());
        assert!(usage.user_s + usage.sys_s > 0.01, "{usage:?}");
    }

    #[test]
    fn a_signalled_child_has_no_exit_code() {
        let usage = run_measured(Command::new("sh").args(["-c", "kill -9 $$"])).unwrap();
        assert_eq!(usage.exit_code, None);
    }

    #[test]
    fn spawn_failure_is_an_error() {
        assert!(run_measured(&mut Command::new("/nonexistent/cardopc-bench-probe")).is_err());
    }
}
