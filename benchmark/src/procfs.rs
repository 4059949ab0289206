//! CPU time and peak memory of this process and its worker processes, read
//! from `/proc`. Wall time on a shared box hides work done in worker, reader
//! and writer threads; these do not.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` times. `USER_HZ` is 100 on
/// every Linux ABI the toolchain targets, and std offers no `sysconf`.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds consumed so far by process `pid` (all of its
/// threads), or `None` when the process is gone.
fn cpu_seconds_of(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may itself contain spaces and parentheses;
    // everything after its closing parenthesis is whitespace-separated.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) of process `pid` in MB.
fn peak_rss_mb_of(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds of this process plus the given workers.
pub fn cpu_seconds(workers: &[u32]) -> f64 {
    std::iter::once(std::process::id())
        .chain(workers.iter().copied())
        .filter_map(cpu_seconds_of)
        .sum()
}

/// Peak resident memory of this process plus the given workers, in MB.
pub fn peak_rss_mb(workers: &[u32]) -> f64 {
    std::iter::once(std::process::id())
        .chain(workers.iter().copied())
        .filter_map(peak_rss_mb_of)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        assert!(peak_rss_mb(&[]) > 0.0);
        // Burn a little CPU so the tick counter cannot still read zero.
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 40 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds(&[]) > 0.0);
        assert_eq!(cpu_seconds_of(u32::MAX), None);
    }
}
