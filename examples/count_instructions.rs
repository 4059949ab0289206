//! Instructions of one warm trial of a registry scenario, counted exactly by
//! single-stepping it: a noise-free figure where wall-clock time on a shared
//! box drifts by ±10 %, and a per-address table for `addr2line` like
//! `examples/profile_trial.rs` prints.
//!
//! The program re-executes itself as a tracee (`PTRACE_TRACEME` before the
//! `exec`). The tracee runs `run_range_records(&Campaign::serial(), 0,
//! trials)` between two `raise(SIGSTOP)` markers; the tracer lets it run
//! freely up to the first marker and single-steps it up to the second,
//! counting every instruction by its address. It does that twice, for `K`
//! and for `K + 2` trials: the difference is two warm trials — workspace
//! setup, the first (cold) trial and the markers' own cost cancel — and half
//! of it is what one warm trial executes.
//!
//! ```sh
//! CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
//!     cargo build --release --offline --example count_instructions
//! bin=target/release/examples/count_instructions
//! $bin subquad/sampled-committee13/fair-round-robin/unanimous-1/n100t5 1 > counts.txt
//! # instructions per innermost (inlined) function, per warm trial:
//! paste <(cut -d' ' -f1 counts.txt) \
//!       <(cut -d' ' -f2 counts.txt | addr2line -a -f -i -C -e $bin | awk '/^0x/ {getline f; print f}') |
//!     awk -F'\t' '{n[$2] += $1} END {for (f in n) printf "%10.1f %s\n", n[f], f}' |
//!     sort -rn | head -25
//! ```
//!
//! Arguments: a quick-registry scenario id, `K` (at least 1, so that both
//! counted trials run on a warm workspace) and, optionally, a ceiling on
//! instructions per step: above it the program exits 1. The totals, the
//! steps (windows, for a windowed scenario) per counted trial and the
//! instructions per step go to stderr; stdout holds one
//! `<instructions per warm trial> 0x<offset in the binary>` line per
//! address whose count differs between the two runs. Addresses outside the
//! binary (libc, the vdso) are counted at offset 0, which `addr2line` names
//! `??`. Each instruction costs the tracer three system calls and two
//! context switches, ≈ 20 µs on a 2-vCPU VM: the n = 100 committee row
//! below takes ≈ 45 s with `K = 1`, the n = 1 000 one ≈ 6 minutes.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod tracer {
    use std::collections::BTreeMap;
    use std::os::unix::process::CommandExt;
    use std::process::Command;

    const PTRACE_TRACEME: i32 = 0;
    const PTRACE_PEEKUSER: i32 = 3;
    const PTRACE_CONT: i32 = 7;
    const PTRACE_SINGLESTEP: i32 = 9;
    const PTRACE_DETACH: i32 = 17;
    const SIGTRAP: i32 = 5;
    const SIGSTOP: i32 = 19;
    /// Byte offset of `rip` in the x86-64 `struct user_regs_struct`: the
    /// seventeenth 8-byte register.
    const RIP_OFFSET: usize = 16 * 8;
    /// Set in the tracee's environment: run the trials between the markers.
    pub const TRACEE: &str = "COUNT_INSTRUCTIONS_TRACEE";

    extern "C" {
        fn ptrace(request: i32, ...) -> i64;
        fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
        fn raise(signal: i32) -> i32;
    }

    /// Stops the calling process with `SIGSTOP`: a marker for the tracer.
    pub fn marker() {
        // SAFETY: `raise` takes a signal number and touches no memory of ours.
        let status = unsafe { raise(SIGSTOP) };
        assert_eq!(status, 0, "raise(SIGSTOP) failed");
    }

    /// How a traced child stopped, from a `waitpid` status word.
    enum Stop {
        Exited,
        Signal(i32),
    }

    fn wait(pid: i32) -> Stop {
        let mut status = 0;
        // SAFETY: `status` is a live `int` for the kernel to fill.
        let waited = unsafe { waitpid(pid, &mut status, 0) };
        assert_eq!(waited, pid, "waitpid failed");
        if status & 0xff == 0x7f {
            Stop::Signal((status >> 8) & 0xff)
        } else {
            Stop::Exited
        }
    }

    fn request(request: i32, pid: i32, addr: usize, data: usize) -> i64 {
        // SAFETY: the requests used here (`CONT`, `SINGLESTEP`, `PEEKUSER`,
        // `DETACH`) read no memory of ours; `addr` and `data` are plain
        // integers.
        unsafe { ptrace(request, pid, addr, data) }
    }

    /// Where the tracee's copy of this binary is mapped: what its addresses
    /// are offset by, and where they end.
    fn mapped_range(pid: i32) -> std::ops::Range<u64> {
        let exe = std::env::current_exe().expect("the running binary has a path");
        let maps = std::fs::read_to_string(format!("/proc/{pid}/maps"))
            .expect("the tracee's memory map reads");
        let bounds: Vec<(u64, u64)> = maps
            .lines()
            .filter(|line| line.ends_with(&*exe.to_string_lossy()))
            .filter_map(|line| {
                let (start, end) = line.split(' ').next()?.split_once('-')?;
                Some((
                    u64::from_str_radix(start, 16).ok()?,
                    u64::from_str_radix(end, 16).ok()?,
                ))
            })
            .collect();
        let start = bounds.iter().map(|b| b.0).min();
        let end = bounds.iter().map(|b| b.1).max();
        start.expect("the binary is mapped")..end.expect("the binary is mapped")
    }

    /// Runs this binary as a tracee on `id` and `trials`, and counts the
    /// instructions it executes between its two markers by offset into the
    /// binary.
    pub fn count(id: &str, trials: u64) -> BTreeMap<u64, u64> {
        let exe = std::env::current_exe().expect("the running binary has a path");
        let mut command = Command::new(exe);
        command.arg(id).arg(trials.to_string()).env(TRACEE, "1");
        // SAFETY: between fork and exec the closure makes one system call
        // and allocates nothing.
        unsafe {
            command.pre_exec(|| {
                if ptrace(PTRACE_TRACEME, 0, 0usize, 0usize) == -1 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = command.spawn().expect("the tracee starts");
        let pid = i32::try_from(child.id()).expect("a pid fits an i32");
        // The exec stops the tracee with SIGTRAP; run it to the first marker.
        let mut stop = wait(pid);
        let mut signal = 0;
        loop {
            match stop {
                Stop::Exited => panic!("the tracee exited before its first marker"),
                Stop::Signal(SIGSTOP) => break,
                Stop::Signal(SIGTRAP) => {}
                Stop::Signal(other) => signal = other,
            }
            request(PTRACE_CONT, pid, 0, signal as usize);
            signal = 0;
            stop = wait(pid);
        }
        let mapped = mapped_range(pid);
        let mut counts = BTreeMap::<u64, u64>::new();
        loop {
            // The SIGSTOP of the first marker is suppressed: resuming with
            // signal 0 lets the tracee go on.
            request(PTRACE_SINGLESTEP, pid, 0, signal as usize);
            signal = 0;
            match wait(pid) {
                Stop::Exited => panic!("the tracee exited before its second marker"),
                Stop::Signal(SIGSTOP) => break,
                Stop::Signal(SIGTRAP) => {
                    let pc = request(PTRACE_PEEKUSER, pid, RIP_OFFSET, 0) as u64;
                    let offset = if mapped.contains(&pc) {
                        pc - mapped.start
                    } else {
                        0
                    };
                    *counts.entry(offset).or_default() += 1;
                }
                Stop::Signal(other) => signal = other,
            }
        }
        // Let go at the second marker, dropping its SIGSTOP, and let the
        // tracee finish on its own.
        request(PTRACE_DETACH, pid, 0, 0);
        let status = child.wait().expect("the tracee is waited for");
        assert!(status.success(), "the tracee failed: {status}");
        counts
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    use std::collections::BTreeMap;

    use agreement::core::experiments::Scale;
    use agreement::core::{scenario_registry, Campaign};

    let args: Vec<String> = std::env::args().skip(1).collect();
    let (id, warm, ceiling) = match args.as_slice() {
        [id, warm] => (id, warm, None),
        [id, warm, ceiling] => (id, warm, Some(ceiling.parse::<f64>()?)),
        _ => return Err("usage: count_instructions <scenario id> <K> [max per step]".into()),
    };
    let warm: u64 = warm.parse()?;
    let spec = scenario_registry(Scale::Quick)
        .into_iter()
        .find(|spec| spec.id() == id.as_str())
        .ok_or_else(|| format!("no scenario '{id}' in the quick registry"))?;

    if std::env::var_os(tracer::TRACEE).is_some() {
        // `warm` is the trial count of this run.
        let spec = spec.trials(warm);
        tracer::marker();
        let records = spec.run_range_records(&Campaign::serial(), 0, warm);
        tracer::marker();
        std::hint::black_box(records?);
        return Ok(());
    }
    if warm == 0 {
        return Err("K must be at least 1: the counted trials must run warm".into());
    }

    let base = tracer::count(id, warm);
    let more = tracer::count(id, warm + 2);
    // The steps of the two counted trials, from an untraced run of the same
    // K + 2 trials.
    let records = spec
        .trials(warm + 2)
        .run_range_records(&Campaign::serial(), 0, warm + 2)?;
    let steps: u64 = records[warm as usize..].iter().map(|r| r.duration).sum();

    let mut by_offset = BTreeMap::<u64, i64>::new();
    for (offset, count) in &more {
        *by_offset.entry(*offset).or_default() += *count as i64;
    }
    for (offset, count) in &base {
        *by_offset.entry(*offset).or_default() -= *count as i64;
    }
    let total = |counts: &BTreeMap<u64, u64>| counts.values().sum::<u64>();
    let (base_total, more_total) = (total(&base), total(&more));
    let per_trial = (more_total as f64 - base_total as f64) / 2.0;
    let per_step = per_trial / (steps as f64 / 2.0);
    eprintln!(
        "{id}: {more_total} instructions for {} trials, {base_total} for {warm}: \
         {per_trial:.1} per warm trial, {:.1} steps per trial, {per_step:.1} per step",
        warm + 2,
        steps as f64 / 2.0,
    );
    for (offset, difference) in by_offset {
        if difference != 0 {
            println!("{} {offset:#x}", difference as f64 / 2.0);
        }
    }
    match ceiling {
        Some(ceiling) if per_step > ceiling => {
            Err(format!("{per_step:.1} instructions per step exceed the ceiling {ceiling}").into())
        }
        _ => Ok(()),
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!("count_instructions: unsupported here (needs x86-64 Linux: ptrace and /proc)");
}
