//! A sampling profile of one registry scenario's trial, for boxes without
//! `perf`: `SIGPROF` from `setitimer(ITIMER_PROF)` every 4 ms of CPU time,
//! the interrupted program counter of each sample kept in a fixed array, and
//! at the end one line per distinct address — `<samples> 0x<offset in the
//! binary>` — for `addr2line -f -i` to name. Timing wrappers distort a 12 ns call
//! (`rdtsc` traps at ≈ 50 ns a read in this VM); a sample does not.
//!
//! ```sh
//! CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
//!     cargo build --release --offline --example profile_trial
//! bin=target/release/examples/profile_trial
//! $bin subquad/sampled-committee20/fair-round-robin/unanimous-1/n1000t7 200 100 > pcs.txt
//! # share of samples per innermost (inlined) function:
//! paste <(cut -d' ' -f1 pcs.txt) \
//!       <(cut -d' ' -f2 pcs.txt | addr2line -a -f -i -C -e $bin | awk '/^0x/ {getline f; print f}') |
//!     awk -F'\t' '{n[$2] += $1; t += $1} END {for (f in n) printf "%5.1f%% %s\n", 100 * n[f] / t, f}' |
//!     sort -rn | head -25
//! ```
//!
//! Arguments: a quick-registry scenario id, trials per repetition, and
//! repetitions; each repetition is one
//! `run_range_records(&Campaign::serial(), 0, trials)`, a warm workspace from
//! its second trial on, exactly what a campaign worker runs. Microseconds per
//! trial and the sample count go to stderr.
//!
//! With `search:` before the id the repetition is one schedule search on the
//! scenario's harness instead — `run_search` with a budget of `trials`, in
//! generations of 32 on a serial campaign, as the benchmark's `search_fuzz`
//! runs it (there: `search:e1/reset-tolerant/split-vote/split/n7t1 20000`).

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 0x4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// Byte offset of the saved `rip` in the `ucontext_t` a `SA_SIGINFO`
    /// handler receives on x86-64 Linux: `uc_flags` (8) + `uc_link` (8) +
    /// `uc_stack` (24), then `gregs[REG_RIP]` with `REG_RIP` = 16.
    const RIP_OFFSET: usize = 40 + 16 * 8;
    const MICROS_BETWEEN_SAMPLES: i64 = 4_000;
    const CAPACITY: usize = 1 << 16;

    /// The kernel ABI's `struct sigaction` as glibc declares it on x86-64.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    #[repr(C)]
    struct TimeVal {
        seconds: i64,
        micros: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    extern "C" {
        fn sigaction(signal: i32, action: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
    }

    static SAMPLES: [AtomicU64; CAPACITY] = [const { AtomicU64::new(0) }; CAPACITY];
    static TAKEN: AtomicUsize = AtomicUsize::new(0);

    /// Stores the interrupted program counter. Async-signal-safe: two atomic
    /// operations on statics, no allocation, no lock.
    extern "C" fn on_sigprof(_signal: i32, _info: *const u8, context: *const u8) {
        // SAFETY: the kernel hands a `SA_SIGINFO` handler a valid, aligned
        // `ucontext_t`; `RIP_OFFSET` lies inside it (see the constant) and is
        // a multiple of eight.
        let pc = unsafe { context.add(RIP_OFFSET).cast::<u64>().read() };
        let slot = TAKEN.fetch_add(1, Ordering::Relaxed);
        if let Some(sample) = SAMPLES.get(slot) {
            sample.store(pc, Ordering::Relaxed);
        }
    }

    fn set_timer(micros: i64) {
        let every = || TimeVal { seconds: 0, micros };
        let timer = ITimerVal {
            interval: every(),
            value: every(),
        };
        // SAFETY: `timer` is a live `struct itimerval`; a null `old` is
        // allowed.
        let status = unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
        assert_eq!(status, 0, "setitimer(ITIMER_PROF) failed");
    }

    /// Installs the handler and starts the timer.
    pub fn start() {
        let action = SigAction {
            handler: on_sigprof as extern "C" fn(i32, *const u8, *const u8) as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: `action` is a live `struct sigaction` whose handler has the
        // `SA_SIGINFO` signature and is async-signal-safe; a null `old` is
        // allowed.
        let status = unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) };
        assert_eq!(status, 0, "sigaction(SIGPROF) failed");
        set_timer(MICROS_BETWEEN_SAMPLES);
    }

    /// Stops the timer and returns the sampled program counters.
    pub fn stop() -> Vec<u64> {
        set_timer(0);
        let taken = TAKEN.load(Ordering::Relaxed);
        if taken > CAPACITY {
            eprintln!("kept the first {CAPACITY} of {taken} samples");
        }
        SAMPLES[..taken.min(CAPACITY)]
            .iter()
            .map(|sample| sample.load(Ordering::Relaxed))
            .collect()
    }

    /// The address range the running binary is mapped at: what a position
    /// independent executable's addresses are offset by, and where they end.
    pub fn mapped_range() -> std::ops::Range<u64> {
        let exe = std::env::current_exe().expect("the running binary has a path");
        let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps reads");
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
        start.expect("the running binary is mapped")..end.expect("the running binary is mapped")
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    use std::collections::BTreeMap;
    use std::time::Instant;

    use agreement::core::experiments::Scale;
    use agreement::core::{scenario_registry, Campaign};
    use agreement_search::{run_search, SearchConfig};

    let args: Vec<String> = std::env::args().skip(1).collect();
    let [id, trials, repetitions] = args.as_slice() else {
        return Err("usage: profile_trial [search:]<scenario id> <trials> <repetitions>".into());
    };
    let (trials, repetitions): (u64, u64) = (trials.parse()?, repetitions.parse()?);
    let (searched, id) = match id.strip_prefix("search:") {
        Some(id) => (true, id),
        None => (false, id.as_str()),
    };
    let spec = scenario_registry(Scale::Quick)
        .into_iter()
        .find(|spec| spec.id() == id)
        .ok_or_else(|| format!("no scenario '{id}' in the quick registry"))?
        .trials(trials);

    let mapped = sampler::mapped_range();
    sampler::start();
    let started = Instant::now();
    for _ in 0..repetitions {
        if searched {
            let config = SearchConfig::default().budget_trials(trials).batch(32);
            std::hint::black_box(run_search(&spec, &Campaign::serial(), &config)?);
        } else {
            std::hint::black_box(spec.run_range_records(&Campaign::serial(), 0, trials)?);
        }
    }
    let elapsed = started.elapsed();
    let samples = sampler::stop();

    eprintln!(
        "{id}: {:.1} us per trial over {} trials, {} samples",
        elapsed.as_secs_f64() * 1e6 / (trials * repetitions) as f64,
        trials * repetitions,
        samples.len()
    );
    // Offsets into the binary; everything outside it (libc, the vdso) is
    // counted at offset 0, which `addr2line` names `??`.
    let mut by_offset = BTreeMap::<u64, u64>::new();
    for pc in samples {
        let offset = if mapped.contains(&pc) {
            pc - mapped.start
        } else {
            0
        };
        *by_offset.entry(offset).or_default() += 1;
    }
    for (offset, count) in by_offset {
        println!("{count} {offset:#x}");
    }
    Ok(())
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!("profile_trial: unsupported here (needs x86-64 Linux: SIGPROF and /proc/self/maps)");
}
