//! Per-thread CPU clocks and process memory, read from `/proc`.
//!
//! The server runs in this process, so "server CPU" and "generator CPU"
//! are told apart per thread: `/proc/self/task/<tid>/schedstat` gives each
//! thread's time on a core and its time waiting for one, and `comm` its
//! name (`cvc-core`, `cvc-worker-*`, `cvc-accept`).

use std::fs::{self, File};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// One reading of a thread's `schedstat` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Nanoseconds spent running on a core.
    pub run_ns: u64,
    /// Nanoseconds spent runnable, waiting for a core.
    pub wait_ns: u64,
}

impl SchedStat {
    /// Time accumulated since `earlier`.
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

/// Parse a `schedstat` line: `<run ns> <run-queue wait ns> <timeslices>`.
pub fn parse_schedstat(line: &str) -> Option<SchedStat> {
    let mut fields = line.split_ascii_whitespace();
    let run_ns = fields.next()?.parse().ok()?;
    let wait_ns = fields.next()?.parse().ok()?;
    // The timeslice count must be there, but nothing here uses it.
    fields.next()?.parse::<u64>().ok()?;
    Some(SchedStat { run_ns, wait_ns })
}

/// An open handle on one thread's `schedstat`, re-read with `pread` so a
/// sample costs one syscall.
#[derive(Debug)]
pub struct ThreadClock {
    /// The thread's `comm` name.
    pub name: String,
    /// The kernel's id of the thread.
    pub tid: i32,
    file: File,
}

impl ThreadClock {
    /// `task_dir` is a thread's `/proc/<pid>/task/<tid>` directory.
    fn open(task_dir: &Path) -> io::Result<ThreadClock> {
        let tid = task_dir
            .file_name()
            .and_then(|n| n.to_str()?.parse().ok())
            .ok_or_else(|| io::Error::other(format!("no thread id in {}", task_dir.display())))?;
        let name = fs::read_to_string(task_dir.join("comm"))?
            .trim_end()
            .to_string();
        let file = File::open(task_dir.join("schedstat"))?;
        Ok(ThreadClock { name, tid, file })
    }

    /// The calling thread's clock.
    pub fn current() -> io::Result<ThreadClock> {
        // The link reads `<pid>/task/<tid>`, relative to `/proc`.
        ThreadClock::open(&Path::new("/proc").join(fs::read_link("/proc/thread-self")?))
    }

    /// Sample the thread's accumulated run and wait time.
    pub fn read(&self) -> io::Result<SchedStat> {
        let mut buf = [0u8; 96];
        let n = self.file.read_at(&mut buf, 0)?;
        std::str::from_utf8(&buf[..n])
            .ok()
            .and_then(parse_schedstat)
            .ok_or_else(|| io::Error::other(format!("unparseable schedstat of {}", self.name)))
    }
}

/// Clocks of every *other* live thread of this process whose name starts
/// with `prefix`, sorted by name. (The main thread carries the process
/// name, `cvc-benchmark`, so the caller must not count itself.)
pub fn other_threads_named(prefix: &str) -> io::Result<Vec<ThreadClock>> {
    let own = ThreadClock::current()?.tid;
    let mut out = Vec::new();
    for entry in fs::read_dir("/proc/self/task")? {
        // A thread may exit between the listing and the open.
        let Ok(clock) = ThreadClock::open(&entry?.path()) else {
            continue;
        };
        if clock.tid != own && clock.name.starts_with(prefix) {
            out.push(clock);
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in MB.
pub fn status_mb(field: &str) -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    parse_status_kb(&status, field)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| io::Error::other(format!("no {field} in /proc/self/status")))
}

fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_line_parses() {
        assert_eq!(
            parse_schedstat("1020949 5120 3\n"),
            Some(SchedStat {
                run_ns: 1_020_949,
                wait_ns: 5120
            })
        );
        assert_eq!(parse_schedstat("1020949 5120"), None);
        assert_eq!(parse_schedstat("x 0 0"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn schedstat_delta_never_underflows() {
        let a = SchedStat {
            run_ns: 10,
            wait_ns: 4,
        };
        let b = SchedStat {
            run_ns: 25,
            wait_ns: 4,
        };
        assert_eq!(
            b.since(a),
            SchedStat {
                run_ns: 15,
                wait_ns: 0
            }
        );
        assert_eq!(a.since(b), SchedStat::default());
    }

    #[test]
    fn status_field_parses() {
        let status = "Name:\tx\nVmHWM:\t   12345 kB\nVmRSS:\t    2048 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(12345));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(2048));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn own_clock_advances_with_work() {
        let clock = ThreadClock::current().unwrap();
        let before = clock.read().unwrap();
        let mut x = 0u64;
        // Spin past a scheduler tick so the kernel has accounted the time.
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let after = clock.read().unwrap();
        assert!(after.since(before).run_ns > 0);
        assert!(status_mb("VmHWM").unwrap() > 0.0);
    }
}
