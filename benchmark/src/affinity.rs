//! Thread placement: the generator on one core, the server on the rest.
//!
//! Left to the scheduler, the server's core and worker threads sometimes
//! share a CPU with each other and sometimes with the generator, and the
//! server's CPU time per op differs by a factor of two between those
//! placements, for tens of seconds at a time (README.md, noise study). With
//! the placement fixed, the number measures the server instead.

use std::io;

extern "C" {
    // int sched_setaffinity(pid_t pid, size_t cpusetsize, const cpu_set_t *mask)
    // Rust's std already links the platform libc (as `cvc_net::poll` relies
    // on for epoll); `pid` is a thread id, 0 meaning the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Highest CPU index a mask can name.
const MAX_CPUS: usize = 1024;

/// Restrict thread `tid` (0 = the calling thread) to `cpus`.
pub fn pin(tid: i32, cpus: &[usize]) -> io::Result<()> {
    let mut mask = [0u64; MAX_CPUS / 64];
    for &cpu in cpus {
        let word = mask
            .get_mut(cpu / 64)
            .ok_or_else(|| io::Error::other(format!("cpu {cpu} beyond {MAX_CPUS}")))?;
        *word |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, initialised buffer of exactly the byte
    // length passed; the kernel only reads it.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// The CPUs the calling thread may run on, from its `/proc` status.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let status = std::fs::read_to_string("/proc/thread-self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| parse_cpu_list(list.trim()))
        .ok_or_else(|| io::Error::other("no Cpus_allowed_list in /proc/thread-self/status"))
}

/// Parse a kernel CPU list such as `0-1,4,6-7`.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (usize, usize) = (lo.parse().ok()?, hi.parse().ok()?);
        if lo > hi || hi >= MAX_CPUS {
            return None;
        }
        cpus.extend(lo..=hi);
    }
    Some(cpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list("0-1,4,6-7"), Some(vec![0, 1, 4, 6, 7]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("2-1"), None);
        assert_eq!(parse_cpu_list("0-99999"), None);
        assert_eq!(parse_cpu_list("a"), None);
    }

    #[test]
    fn a_thread_can_be_pinned_and_released() {
        // On a scratch thread, so the test harness's own threads stay free.
        std::thread::spawn(|| {
            let cpus = allowed_cpus().unwrap();
            assert!(!cpus.is_empty());
            pin(0, &cpus[..1]).unwrap();
            let now = allowed_cpus().unwrap();
            assert_eq!(now, cpus[..1]);
            pin(0, &cpus).unwrap();
            assert!(pin(0, &[]).is_err(), "an empty mask is refused");
            assert!(pin(0, &[MAX_CPUS]).is_err());
        })
        .join()
        .unwrap();
    }
}
