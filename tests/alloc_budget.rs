//! Allocation budget of the campaign hot paths.
//!
//! The paper's setting — acceptable windows, the full-information split-vote
//! adversary, the Section 3 protocol — runs exponentially many windows
//! (Theorem 5), so what a window costs the allocator bounds how far `n` and
//! the window cap can be pushed. A window shares one delivery set between all
//! recipients, validates it against Definition 1 with a stack bitset, and the
//! protocols' tallies recycle their slots; what is left is the adversary's
//! returned sender set. A trial, in turn, re-initializes the processors it
//! already has ([`ProtocolBuilder::rebuild`](agreement::model::ProtocolBuilder::rebuild)),
//! so at n = 1 000 it no longer pays a thousand boxes, slot lists and voter
//! sets. This test pins both: heap allocations per scheduled window and per
//! trial stay under small constants, in whatever profile the test is built.
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

/// Steady-state heap allocations per scheduled window may not exceed this:
/// the adversary's returned sender set and little else (1.19 at n = 13, 1.46
/// at n = 7). Before the shared delivery set and the flat tally the figure
/// was ≈ 69 at n = 13 and ≈ 32 at n = 7; with the processors still built anew
/// every trial, ≈ 4.5.
const MAX_ALLOCATIONS_PER_WINDOW: f64 = 2.0;

/// One measured scenario: its quick-registry id, how many trials warm the
/// workspace up and how many are then measured, and the steady-state budget
/// of heap allocations per trial. The three read 19.0, 9.5 and 24.0; with
/// the processors built anew every trial they read 71.5, 37.4 and 3 044.
const BUDGETS: [(&str, u64, u64, f64); 3] = [
    ("e1/reset-tolerant/split-vote/split/n13t2", 50, 250, 25.0),
    ("e1/reset-tolerant/split-vote/split/n7t1", 50, 250, 15.0),
    (
        "subquad/sampled-committee20/fair-round-robin/unanimous-1/n1000t7",
        5,
        20,
        100.0,
    ),
];

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
    for (id, warm_trials, measured_trials, max_per_trial) in BUDGETS {
        let spec = registry_spec(id).trials(warm_trials + measured_trials);
        // Every call builds its own workspace, so the warm-up is taken out by
        // difference: both ranges start at trial 0 and run the same first
        // `warm_trials` trials, and what the longer one adds is trials run in
        // a warm workspace.
        allocations_and_windows(&spec, warm_trials);
        let (warm_allocations, warm_windows) = allocations_and_windows(&spec, warm_trials);
        let (allocations, windows) = allocations_and_windows(&spec, spec.trials);
        let per_trial = (allocations - warm_allocations) as f64 / measured_trials as f64;
        println!("{id}: {per_trial:.1} allocations per trial");
        assert!(
            per_trial <= max_per_trial,
            "{id}: {per_trial:.1} heap allocations per trial (budget {max_per_trial}); \
             something is built per trial again"
        );
        // An asynchronous trial schedules steps, not windows.
        if windows > warm_windows {
            let per_window =
                (allocations - warm_allocations) as f64 / (windows - warm_windows) as f64;
            println!("{id}: {per_window:.2} allocations per window");
            assert!(
                per_window <= MAX_ALLOCATIONS_PER_WINDOW,
                "{id}: {per_window:.2} heap allocations per window (budget \
                 {MAX_ALLOCATIONS_PER_WINDOW}); something on the windowed hot path allocates again"
            );
        }
    }
}
