//! Memory a streamed campaign holds per trial.
//!
//! Against the strongly adaptive adversary running time is exponential
//! (Theorem 5), so the statistics behind the running-time experiments come
//! from long campaigns of slow trials. A campaign hands each trial's record
//! to the sinks as soon as it and every trial before it have run, and keeps
//! only the four sample columns its report reads (32 B a trial): what a
//! trial leaves behind must not grow with the records a campaign would have
//! to hold to stream them at the end. It reads ≈ 38 B a trial; holding
//! every record until the last trial ended read ≈ 257.
//!
//! It lives in a test binary of its own because it installs a counting
//! `#[global_allocator]`, and holds a single `#[test]` so no other thread
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use agreement::core::experiments::Scale;
use agreement::core::{scenario_registry, Campaign, TableSink};

/// Forwards to the system allocator, keeping the live heap bytes and their
/// peak.
struct PeakAllocator;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed statistics
// that publish no other data.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

/// A partial-synchrony Ben-Or row: tens of microseconds a trial in release.
const ROW: &str = "psync/ben-or/benign-eventual/unanimous-1/n7t1";

/// The two campaign sizes whose peaks are compared.
const TRIALS: [u64; 2] = [1_000, 5_000];

/// Peak heap growth a trial may cost: the report's columns, the range
/// under way (a thirty-second of the campaign's records) and slack.
const MAX_BYTES_PER_TRIAL: f64 = 80.0;

/// Heap bytes at the peak of one serial `run_with_sinks` of `trials` trials
/// of [`ROW`] into a table, above what was live when it started.
fn peak_bytes(trials: u64) -> u64 {
    let spec = scenario_registry(Scale::Quick)
        .into_iter()
        .find(|spec| spec.id() == ROW)
        .unwrap_or_else(|| panic!("no scenario '{ROW}' in the quick registry"))
        .trials(trials);
    let mut table = TableSink::new("memory", "");
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = spec
        .run_with_sinks(&Campaign::serial(), &mut [&mut table])
        .expect("registry specs resolve");
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(report.aggregate.trials, trials);
    peak
}

#[test]
fn a_streamed_campaign_holds_its_report_columns_not_its_records() {
    let [small, large] = TRIALS.map(peak_bytes);
    let per_trial = (large as f64 - small as f64) / (TRIALS[1] - TRIALS[0]) as f64;
    println!(
        "{ROW}: peak {small} B at {} trials, {large} B at {}: {per_trial:.1} B a trial",
        TRIALS[0], TRIALS[1]
    );
    assert!(
        per_trial <= MAX_BYTES_PER_TRIAL,
        "{per_trial:.1} B of peak heap a trial (budget {MAX_BYTES_PER_TRIAL}); \
         the campaign holds its records again"
    );
}
