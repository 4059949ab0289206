//! Allocation budget of the windowed hot path.
//!
//! The paper's setting — acceptable windows, the full-information split-vote
//! adversary, the Section 3 protocol — runs exponentially many windows
//! (Theorem 5), so what a window costs the allocator bounds how far `n` and
//! the window cap can be pushed. A window shares one delivery set between all
//! recipients, validates it against Definition 1 with a stack bitset, and the
//! protocols' tallies recycle their slots; what is left is the adversary's
//! returned sender set and the per-trial construction of the processors.
//! This test pins that: heap allocations per scheduled window stay under a
//! small constant, in whatever profile the test is built.
//!
//! It lives in a test binary of its own because it installs a counting
//! `#[global_allocator]`, and holds a single `#[test]` so no other thread
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use agreement::core::experiments::Scale;
use agreement::core::{scenario_registry, Campaign, ScenarioSpec};

/// Forwards to the system allocator, counting every allocating call.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic that
// publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Steady-state heap allocations per scheduled window may not exceed this.
/// Before the shared delivery set and the flat tally the figure was ≈ 69 at
/// n = 13 and ≈ 32 at n = 7.
const MAX_ALLOCATIONS_PER_WINDOW: f64 = 8.0;

const WARM_TRIALS: u64 = 50;
const MEASURED_TRIALS: u64 = 250;

fn registry_spec(id: &str) -> ScenarioSpec {
    scenario_registry(Scale::Quick)
        .into_iter()
        .find(|spec| spec.id() == id)
        .unwrap_or_else(|| panic!("no scenario '{id}' in the quick registry"))
}

/// Allocating calls made by, and windows scheduled in, trials `0..hi`.
fn allocations_and_windows(spec: &ScenarioSpec, hi: u64) -> (u64, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let records = spec
        .run_range_records(&Campaign::serial(), 0, hi)
        .expect("registry specs resolve");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let windows = records.iter().map(|r| r.metrics.windows).sum();
    (allocations, windows)
}

#[test]
fn windowed_trials_allocate_a_small_constant_per_window() {
    for id in [
        "e1/reset-tolerant/split-vote/split/n13t2",
        "e1/reset-tolerant/split-vote/split/n7t1",
    ] {
        let spec = registry_spec(id).trials(WARM_TRIALS + MEASURED_TRIALS);
        // Every call builds its own workspace, so the warm-up is taken out by
        // difference: both ranges start at trial 0 and run the same first
        // `WARM_TRIALS` trials, and what the longer one adds is trials run in
        // a warm workspace.
        allocations_and_windows(&spec, WARM_TRIALS);
        let (warm_allocations, warm_windows) = allocations_and_windows(&spec, WARM_TRIALS);
        let (allocations, windows) = allocations_and_windows(&spec, spec.trials);
        let per_window = (allocations - warm_allocations) as f64 / (windows - warm_windows) as f64;
        let per_trial = (allocations - warm_allocations) as f64 / MEASURED_TRIALS as f64;
        println!("{id}: {per_window:.2} allocations per window, {per_trial:.1} per trial");
        assert!(
            per_window <= MAX_ALLOCATIONS_PER_WINDOW,
            "{id}: {per_window:.2} heap allocations per window (budget \
             {MAX_ALLOCATIONS_PER_WINDOW}); something on the windowed hot path allocates again"
        );
    }
}
