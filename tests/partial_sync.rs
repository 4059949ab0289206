//! Properties of the partial-synchrony execution model.
//!
//! Three guarantees are pinned here:
//!
//! 1. **The bounded-delay invariant** — the scheduler *enforces* eventual
//!    synchrony: once the adversary's GST has passed, no pending message
//!    (from a non-omitted sender, to a non-crashed recipient) is ever older
//!    than the declared bound Δ. This is checked after *every* step of
//!    step-wise executions driven by a worst-case stonewalling adversary, so
//!    the delivery guarantee demonstrably comes from the scheduler, not from
//!    adversary goodwill.
//! 2. **Thread-count invariance** — partial-sync scenario reports and record
//!    streams are bit-identical across campaign thread counts, exactly like
//!    the two older models.
//! 3. **Trace-gating transparency** — `NoTrace` workspace runs of the
//!    partial-sync model equal `FullTrace` fresh runs in every field but the
//!    trace.

use agreement::core::experiments::Scale;
use agreement::core::{partial_sync_scenarios, Campaign};
use agreement::model::{Bit, InputAssignment, ProcessorId, SystemConfig, Trace};
use agreement::protocols::{BenOrBuilder, BrachaBuilder};
use agreement::sim::{
    run_partial_sync, BuiltAdversary, ExecutionCore, PartialSyncAction, PartialSyncAdversary,
    PartialSyncScheduler, RunLimits, RunOutcome, Scheduler, SystemView, TrialWorkspace,
};

/// A worst-case adversary for delivery bounds: it never delivers anything by
/// choice, crashes one optional victim early, and stalls forever after.
struct Stonewall {
    gst: u64,
    delta: u64,
    omitted: Vec<ProcessorId>,
    crash_victim: Option<ProcessorId>,
    step: u64,
}

impl PartialSyncAdversary for Stonewall {
    fn name(&self) -> &'static str {
        "stonewall"
    }
    fn gst(&self) -> u64 {
        self.gst
    }
    fn delta(&self) -> u64 {
        self.delta
    }
    fn omitted_senders(&self) -> &[ProcessorId] {
        &self.omitted
    }
    fn next_action(&mut self, _view: &SystemView<'_>) -> PartialSyncAction {
        self.step += 1;
        if self.step == 5 {
            if let Some(victim) = self.crash_victim {
                return PartialSyncAction::Crash(victim);
            }
        }
        PartialSyncAction::Stall
    }
}

/// Asserts the bounded-delay invariant on a core's current state: no
/// pending message between correct processors (and non-omitted senders) has
/// outlived its deadline `max(sent_at, gst) + delta`.
fn assert_no_overdue(
    core: &ExecutionCore,
    gst: u64,
    delta: u64,
    omitted: &[ProcessorId],
    t: usize,
) {
    let now = core.time();
    if now < gst {
        return;
    }
    let n = core.config().n();
    for from in ProcessorId::all(n) {
        if omitted.iter().take(t).any(|&s| s == from) {
            continue;
        }
        for to in ProcessorId::all(n) {
            if core.is_crashed(to) {
                continue;
            }
            if let Some(sent) = core.buffer().head_sent_at(from, to) {
                let deadline = sent.max(gst) + delta;
                assert!(
                    deadline >= now,
                    "pending message {from}->{to} sent at {sent} is overdue at \
                     step {now} (gst {gst}, delta {delta})"
                );
            }
        }
    }
}

/// Every post-GST pending message is delivered within Δ steps, whatever the
/// adversary does — checked after every step, across seeds, protocols, GSTs
/// and Δs, with and without omission faults and crashes.
#[test]
fn bounded_delay_invariant_holds_after_every_step() {
    let cases: &[(u64, u64, Vec<ProcessorId>, Option<ProcessorId>)] = &[
        (0, 1, vec![], None),
        (17, 4, vec![], None),
        (40, 3, vec![ProcessorId::new(2)], None),
        (10, 8, vec![], Some(ProcessorId::new(3))),
        (25, 2, vec![ProcessorId::new(0)], None),
        // Omission + crash together: the shared fault budget (t = 1) is
        // already spent on the omission, so the crash must be refused and
        // the run must still decide from n - t live voices.
        (25, 2, vec![ProcessorId::new(0)], Some(ProcessorId::new(4))),
    ];
    for seed in 0..4u64 {
        for (gst, delta, omitted, crash_victim) in cases {
            let cfg = SystemConfig::new(5, 1).unwrap();
            let inputs = InputAssignment::evenly_split(5);
            let mut core = ExecutionCore::new(cfg, inputs, &BenOrBuilder::new(), seed);
            let mut adversary = Stonewall {
                gst: *gst,
                delta: *delta,
                omitted: omitted.clone(),
                crash_victim: *crash_victim,
                step: 0,
            };
            let mut scheduler = PartialSyncScheduler::new(&mut adversary);
            scheduler.on_start(&mut core);
            for _ in 0..2_000 {
                if core.all_correct_decided() || !scheduler.step(&mut core) {
                    break;
                }
                assert_no_overdue(&core, *gst, *delta, omitted, cfg.t());
            }
            // The run cannot be stalled forever: the model's enforcement
            // alone drives the quorum protocol to a decision.
            assert!(
                core.all_correct_decided(),
                "gst {gst}, delta {delta}: stonewalled run never decided"
            );
        }
    }
}

/// Omissions and crashes draw from one fault budget: with the budget spent
/// on omissions, crash actions are refused (and only logged), so at most
/// `t` voices are ever silenced and `n - t` quorums stay reachable.
#[test]
fn omission_and_crash_share_one_fault_budget() {
    let cfg = SystemConfig::new(5, 1).unwrap();
    let inputs = InputAssignment::unanimous(5, Bit::One);
    let mut core = ExecutionCore::new(cfg, inputs.clone(), &BenOrBuilder::new(), 3);
    let mut adversary = Stonewall {
        gst: 0,
        delta: 4,
        omitted: vec![ProcessorId::new(0)],
        crash_victim: Some(ProcessorId::new(4)),
        step: 0,
    };
    let mut scheduler = PartialSyncScheduler::new(&mut adversary);
    scheduler.on_start(&mut core);
    while !core.all_correct_decided() && core.time() < 2_000 {
        if !scheduler.step(&mut core) {
            break;
        }
    }
    let outcome = core.outcome_with(&scheduler);
    assert_eq!(
        outcome.metrics.crashes, 0,
        "the crash beyond the shared budget must be refused"
    );
    assert!(
        outcome.crashed.iter().all(|&c| !c),
        "no processor may actually crash once omissions spent the budget"
    );
    assert!(outcome.all_correct_decided());
    assert!(outcome.is_correct(&inputs));
}

/// The same invariant under Bracha (broadcast-heavy, shared arena payloads)
/// to cover the shared-payload delivery path.
#[test]
fn bounded_delay_invariant_holds_for_bracha() {
    let cfg = SystemConfig::new(7, 2).unwrap();
    let inputs = InputAssignment::unanimous(7, Bit::One);
    let mut core = ExecutionCore::new(cfg, inputs, &BrachaBuilder::new(), 11);
    let (gst, delta) = (23, 5);
    let mut adversary = Stonewall {
        gst,
        delta,
        omitted: vec![],
        crash_victim: None,
        step: 0,
    };
    let mut scheduler = PartialSyncScheduler::new(&mut adversary);
    scheduler.on_start(&mut core);
    for _ in 0..2_000 {
        if core.all_correct_decided() || !scheduler.step(&mut core) {
            break;
        }
        assert_no_overdue(&core, gst, delta, &[], cfg.t());
    }
    assert!(core.all_correct_decided());
}

/// Partial-sync scenario reports (aggregate, distributions, meta) are
/// bit-identical across campaign thread counts, including serial.
#[test]
fn partial_sync_reports_are_identical_across_thread_counts() {
    let specs = partial_sync_scenarios(Scale::Quick);
    assert!(specs.len() >= 6, "the partial-sync family must stay rich");
    let spec = specs
        .iter()
        .find(|s| s.adversary == "gst-procrastinator" && s.protocol.label() == "ben-or")
        .expect("registry carries ben-or under the procrastinator");
    let serial = spec.run_on(&Campaign::serial()).unwrap();
    assert_eq!(serial.meta.model, "partial-sync");
    assert_eq!(serial.aggregate.termination_rate, 1.0);
    assert_eq!(serial.aggregate.agreement_rate, 1.0);
    for threads in [2usize, 3, 0] {
        let parallel = spec.run_on(&Campaign::with_threads(threads)).unwrap();
        assert_eq!(
            serial, parallel,
            "thread count {threads} changed a partial-sync report"
        );
    }
}

/// `NoTrace` workspace runs of the partial-sync model are bit-identical to
/// fresh `FullTrace` runs in every field but the trace.
#[test]
fn partial_sync_no_trace_runs_match_full_trace_runs() {
    fn strip_trace(mut outcome: RunOutcome) -> RunOutcome {
        outcome.trace = Trace::new();
        outcome
    }
    let cfg = SystemConfig::new(7, 1).unwrap();
    let inputs = InputAssignment::evenly_split(7);
    let mut workspace = TrialWorkspace::new();
    for seed in 0..6u64 {
        let mut fresh_adversary = agreement::adversary::GstProcrastinatorAdversary::new(32, 3);
        let fresh = run_partial_sync(
            cfg,
            inputs.clone(),
            &BenOrBuilder::new(),
            &mut fresh_adversary,
            seed,
            RunLimits::small(),
        );
        assert!(
            fresh.trace.total_events() > 0,
            "the diagnostic path keeps its trace"
        );
        let mut reused_adversary = BuiltAdversary::partial_sync(Box::new(
            agreement::adversary::GstProcrastinatorAdversary::new(32, 3),
        ));
        let reused = workspace.run_built(
            cfg,
            &inputs,
            &BenOrBuilder::new(),
            &mut reused_adversary,
            seed,
            RunLimits::small(),
        );
        assert_eq!(
            reused.trace.total_events(),
            0,
            "workspace runs are trace-free"
        );
        assert_eq!(reused, strip_trace(fresh), "seed {seed}");
    }
}
