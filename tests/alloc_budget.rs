//! Allocation budget of the campaign hot paths.
//!
//! The paper's setting — acceptable windows, the full-information split-vote
//! adversary, the Section 3 protocol — runs exponentially many windows
//! (Theorem 5), so what a window costs the allocator bounds how far `n` and
//! the window cap can be pushed. A window is filled into the storage of the
//! one before it ([`SystemView::take_window`](agreement::sim::SystemView::take_window)),
//! validated against Definition 1 with a stack bitset, and the protocols'
//! tallies recycle their slots: nothing is left. A trial, in turn,
//! re-initializes the processors it already has
//! ([`ProtocolBuilder::rebuild`](agreement::model::ProtocolBuilder::rebuild)),
//! so at n = 1 000 it no longer pays a thousand boxes, slot lists and voter
//! sets, and a generation of the schedule search runs in the workspaces of
//! the one before, its genomes' tapes read in place. This test pins all
//! three: heap allocations per scheduled window, per trial and per searched
//! trial stay under small constants, in whatever profile the test is built.
//!
//! It lives in a test binary of its own because it installs a counting
//! `#[global_allocator]`, and holds a single `#[test]` so no other thread
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use agreement::adversary::{build_from_genome, Genome, DEFAULT_TAPE_LEN};
use agreement::core::experiments::Scale;
use agreement::core::{scenario_registry, Campaign, ScenarioSpec};
use agreement::sim::RunLimits;

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
/// The figure is what a trial's *further* windows add: the same trials run
/// once as they are and once cut off after their first window, which makes
/// the same per-trial allocations and schedules fewer windows, and the
/// difference is divided by the windows the cut removed. It reads 0.00 at
/// n = 13 and at n = 7; with the adversary returning a fresh sender set per
/// window it read 1.00 at both (1.19 and 1.46 when the per-trial allocations
/// were still counted in). Before the shared delivery set and the flat tally
/// the all-in figure was ≈ 69 at n = 13 and ≈ 32 at n = 7; with the
/// processors still built anew every trial, ≈ 4.5.
const MAX_ALLOCATIONS_PER_WINDOW: f64 = 0.25;

/// One measured scenario: its quick-registry id, how many trials warm the
/// workspace up and how many are then measured, and the steady-state budget
/// of heap allocations per trial. The three read 3.0, 3.0 and 4.0 — for a
/// windowed trial the outcome's `decisions` and `crashed` vectors and the
/// boxed adversary, for the committee trial those and one more; the
/// committee trial read 24.0 while every staged multicast copied its 20
/// recipients into a vector of its own. With a sender set allocated per
/// window they read 19.0, 9.5 and 24.0, with the processors built anew every
/// trial 71.5, 37.4 and 3 044. Restarting the processors in place and
/// reading the outcome off a running summary left all three where they
/// were (the outcome still copies its two arrays), and each budget is its
/// reading plus one: 4.0, 4.0 and 5.0, down from 6.0, 6.0 and 5.0.
const BUDGETS: [(&str, u64, u64, f64); 3] = [
    ("e1/reset-tolerant/split-vote/split/n13t2", 50, 250, 4.0),
    ("e1/reset-tolerant/split-vote/split/n7t1", 50, 250, 4.0),
    (
        "subquad/sampled-committee20/fair-round-robin/unanimous-1/n1000t7",
        5,
        20,
        5.0,
    ),
];

/// The searched row: generations of [`GENERATION`] genome-driven trials on
/// this scenario's harness through the search driver's batch path
/// ([`ScenarioSpec::batch_runner`]), [`WARM_GENERATIONS`] to warm the
/// runner's workspace up and [`MEASURED_GENERATIONS`] measured. A trial
/// reads 3.0 allocations — the boxed decoder and the outcome's two vectors,
/// plus a thirty-second of the generation's record vector — and none per
/// window. When every generation resolved the spec again, ran in a cold
/// workspace and decoded 3 + 2n vectors per window out of a copied tape, the
/// same loop read 66.0 per trial (22 per window). The budget is the reading
/// plus one (it was 6.0).
const SEARCHED: &str = "e1/reset-tolerant/split-vote/split/n7t1";
const GENERATION: u64 = 32;
const WARM_GENERATIONS: u64 = 4;
const MEASURED_GENERATIONS: u64 = 8;
const MAX_ALLOCATIONS_PER_SEARCHED_TRIAL: f64 = 4.0;

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

/// Allocating calls made by, and windows scheduled in, the last
/// `measured_trials` trials of `spec`, run in a workspace the trials before
/// them warmed up.
///
/// Every call of [`allocations_and_windows`] builds its own workspace, so the
/// warm-up is taken out by difference: both ranges start at trial 0 and run
/// the same first trials, and what the longer one adds is trials run in a
/// warm workspace.
fn steady_state(spec: &ScenarioSpec, measured_trials: u64) -> (u64, u64) {
    let warm_trials = spec.trials - measured_trials;
    allocations_and_windows(spec, warm_trials);
    let (warm_allocations, warm_windows) = allocations_and_windows(spec, warm_trials);
    let (allocations, windows) = allocations_and_windows(spec, spec.trials);
    (allocations - warm_allocations, windows - warm_windows)
}

/// Allocating calls per trial of the measured generations of the searched
/// row.
fn searched_allocations_per_trial() -> f64 {
    let spec = registry_spec(SEARCHED);
    let cfg = spec.config().expect("registry specs resolve");
    let model = spec.model().expect("registry specs resolve").id();
    // The genomes are the search's to make and keep; the batch path's own
    // cost starts where it is handed them.
    let generations: Vec<Vec<Genome>> = (0..WARM_GENERATIONS + MEASURED_GENERATIONS)
        .map(|generation| {
            (0..GENERATION)
                .map(|i| Genome::from_seed(model, generation * GENERATION + i, DEFAULT_TAPE_LEN))
                .collect()
        })
        .collect();
    let mut runner = spec
        .batch_runner(&Campaign::serial())
        .expect("registry specs resolve");
    let mut seed = spec.base_seed;
    let mut measured_from = 0;
    for (generation, genomes) in generations.iter().enumerate() {
        if generation as u64 == WARM_GENERATIONS {
            measured_from = ALLOCATIONS.load(Ordering::Relaxed);
        }
        let records = runner.run(GENERATION, seed, |trial_seed| {
            build_from_genome(&genomes[(trial_seed - seed) as usize], &cfg)
                .expect("the genomes carry the spec's model tag")
        });
        assert_eq!(records.len() as u64, GENERATION);
        seed += GENERATION;
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - measured_from;
    allocations as f64 / (MEASURED_GENERATIONS * GENERATION) as f64
}

#[test]
fn windowed_trials_allocate_a_small_constant_per_window() {
    for (id, warm_trials, measured_trials, max_per_trial) in BUDGETS {
        let spec = registry_spec(id).trials(warm_trials + measured_trials);
        let (allocations, windows) = steady_state(&spec, measured_trials);
        let per_trial = allocations as f64 / measured_trials as f64;
        println!("{id}: {per_trial:.1} allocations per trial");
        assert!(
            per_trial <= max_per_trial,
            "{id}: {per_trial:.1} heap allocations per trial (budget {max_per_trial}); \
             something is built per trial again"
        );
        // An asynchronous trial schedules steps, not windows.
        if windows > 0 {
            let first_window_only = spec.clone().limits(RunLimits::windows(1));
            let (cut_allocations, cut_windows) = steady_state(&first_window_only, measured_trials);
            assert_eq!(cut_windows, measured_trials);
            let per_window =
                (allocations - cut_allocations) as f64 / (windows - cut_windows) as f64;
            println!("{id}: {per_window:.2} allocations per window");
            assert!(
                per_window <= MAX_ALLOCATIONS_PER_WINDOW,
                "{id}: {per_window:.2} heap allocations per window (budget \
                 {MAX_ALLOCATIONS_PER_WINDOW}); something on the windowed hot path allocates again"
            );
        }
    }

    let per_trial = searched_allocations_per_trial();
    println!("{SEARCHED}, searched: {per_trial:.1} allocations per trial");
    assert!(
        per_trial <= MAX_ALLOCATIONS_PER_SEARCHED_TRIAL,
        "{SEARCHED}, searched: {per_trial:.1} heap allocations per trial (budget \
         {MAX_ALLOCATIONS_PER_SEARCHED_TRIAL}); a generation pays for more than its trials again"
    );
}
