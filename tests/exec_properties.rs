//! Properties of the unified `ExecutionCore` and the parallel campaign
//! runner.
//!
//! Every execution model is a scheduler over one shared core; these tests pin
//! down the guarantees that rests on:
//!
//! 1. **Determinism** — for a fixed seed, `run_windowed` / `run_async`
//!    produce identical outcomes on every invocation (no hidden state).
//! 2. **Driver equivalence** — the driver the campaigns use
//!    (`BuiltAdversary::run`) and step-wise driving (`Scheduler::on_start`, `step`,
//!    `ExecutionCore::outcome_with`) both produce the same outcome as
//!    `ExecutionCore::run` with the corresponding scheduler.
//! 3. **Campaign determinism** — parallel aggregation is bit-identical to the
//!    serial path regardless of thread count.

use agreement::adversary::{
    GstProcrastinatorAdversary, RotatingResetAdversary, ScheduledCrashAdversary, SplitVoteAdversary,
};
use agreement::core::{Aggregate, Campaign, TrialPlan};
use agreement::model::{
    Bit, InputAssignment, ProcessorId, ProcessorRng, ProtocolBuilder, SystemConfig,
};
use agreement::protocols::{BenOrBuilder, BrachaBuilder, ResetTolerantBuilder};
use agreement::sim::{
    run_async, run_windowed, AsyncScheduler, BuiltAdversary, ExecutionCore, FairAsyncAdversary,
    FullDeliveryAdversary, PartialSyncScheduler, RunLimits, RunOutcome, Scheduler, WindowScheduler,
};

const CASES: u64 = 12;

fn assert_outcomes_identical(a: &RunOutcome, b: &RunOutcome, context: &str) {
    assert_eq!(a.decisions, b.decisions, "{context}: decisions");
    assert_eq!(a.crashed, b.crashed, "{context}: crashed");
    assert_eq!(a.duration, b.duration, "{context}: duration");
    assert_eq!(
        a.first_decision_at, b.first_decision_at,
        "{context}: first_decision_at"
    );
    assert_eq!(
        a.all_decided_at, b.all_decided_at,
        "{context}: all_decided_at"
    );
    assert_eq!(a.violations, b.violations, "{context}: violations");
    assert_eq!(a.metrics, b.metrics, "{context}: metrics");
    assert_eq!(a.longest_chain, b.longest_chain, "{context}: longest_chain");
    assert_eq!(
        a.halted_by_adversary, b.halted_by_adversary,
        "{context}: halted"
    );
    assert_eq!(
        a.trace.total_events(),
        b.trace.total_events(),
        "{context}: trace events"
    );
    assert_eq!(
        a.trace.stored(),
        b.trace.stored(),
        "{context}: trace contents"
    );
}

/// Re-running `run_windowed` with a fixed seed reproduces the outcome
/// bit-for-bit, across inputs and adversaries.
#[test]
fn windowed_runs_are_deterministic_for_fixed_seeds() {
    let cfg = SystemConfig::with_sixth_resilience(13).unwrap();
    let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
    for case in 0..CASES {
        let mut gen = ProcessorRng::labelled(0x5EED, case);
        let seed = gen.range(10_000);
        let inputs = InputAssignment::new((0..13).map(|_| gen.bit()).collect());
        let limits = RunLimits::windows(20_000);
        let first = run_windowed(
            cfg,
            inputs.clone(),
            &builder,
            &mut SplitVoteAdversary::new(),
            seed,
            limits,
        );
        let second = run_windowed(
            cfg,
            inputs.clone(),
            &builder,
            &mut SplitVoteAdversary::new(),
            seed,
            limits,
        );
        assert_outcomes_identical(
            &first,
            &second,
            &format!("windowed case {case} seed {seed}"),
        );
    }
}

/// Re-running `run_async` with a fixed seed reproduces the outcome
/// bit-for-bit, including crash scheduling and chain metrics.
#[test]
fn async_runs_are_deterministic_for_fixed_seeds() {
    let cfg = SystemConfig::new(7, 2).unwrap();
    for case in 0..CASES {
        let mut gen = ProcessorRng::labelled(0xAB5EED, case);
        let seed = gen.range(10_000);
        let inputs = InputAssignment::new((0..7).map(|_| gen.bit()).collect());
        let crash_list = vec![ProcessorId::new(gen.range(7) as usize)];
        let limits = RunLimits::steps(500_000);
        let first = run_async(
            cfg,
            inputs.clone(),
            &BenOrBuilder::new(),
            &mut ScheduledCrashAdversary::new(crash_list.clone()),
            seed,
            limits,
        );
        let second = run_async(
            cfg,
            inputs.clone(),
            &BenOrBuilder::new(),
            &mut ScheduledCrashAdversary::new(crash_list),
            seed,
            limits,
        );
        assert_outcomes_identical(&first, &second, &format!("async case {case} seed {seed}"));
    }
}

/// Driving the core directly with a `WindowScheduler` matches the
/// window driver the campaigns use (`BuiltAdversary::run`) exactly.
#[test]
fn window_engine_and_raw_core_agree() {
    let cfg = SystemConfig::with_sixth_resilience(7).unwrap();
    let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
    for case in 0..CASES {
        let mut gen = ProcessorRng::labelled(0xCAFE, case);
        let seed = gen.range(10_000);
        let inputs = InputAssignment::new((0..7).map(|_| gen.bit()).collect());
        let limits = RunLimits::windows(20_000);

        let mut built_core = ExecutionCore::new(cfg, inputs.clone(), &builder, seed);
        let engine_outcome = BuiltAdversary::windowed(Box::new(RotatingResetAdversary::new()))
            .run(&mut built_core, limits);

        let mut core = ExecutionCore::new(cfg, inputs, &builder, seed);
        let mut adversary = RotatingResetAdversary::new();
        let mut scheduler = WindowScheduler::new(&mut adversary);
        let core_outcome = core.run(&mut scheduler, limits);

        assert_outcomes_identical(
            &engine_outcome,
            &core_outcome,
            &format!("window core case {case} seed {seed}"),
        );
    }
}

/// Driving the core directly with an `AsyncScheduler` matches the
/// asynchronous driver the campaigns use (`BuiltAdversary::run`) exactly.
#[test]
fn async_engine_and_raw_core_agree() {
    let cfg = SystemConfig::new(7, 2).unwrap();
    for case in 0..CASES {
        let mut gen = ProcessorRng::labelled(0xBEEF, case);
        let seed = gen.range(10_000);
        let inputs = InputAssignment::new((0..7).map(|_| gen.bit()).collect());
        let limits = RunLimits::steps(500_000);

        let mut built_core = ExecutionCore::new(cfg, inputs.clone(), &BrachaBuilder::new(), seed);
        let engine_outcome = BuiltAdversary::asynchronous(Box::new(FairAsyncAdversary::default()))
            .run(&mut built_core, limits);

        let mut core = ExecutionCore::new(cfg, inputs, &BrachaBuilder::new(), seed);
        let mut adversary = FairAsyncAdversary::default();
        let mut scheduler = AsyncScheduler::new(&mut adversary);
        let core_outcome = core.run(&mut scheduler, limits);

        assert_outcomes_identical(
            &engine_outcome,
            &core_outcome,
            &format!("async core case {case} seed {seed}"),
        );
    }
}

/// Driving any scheduler step by step — `on_start`, then `step` until it
/// returns `false`, every correct processor decided or the cap elapsed, then
/// `outcome_with` — produces the same outcome as `ExecutionCore::run`, trace
/// and metrics included.
#[test]
fn stepwise_and_run_produce_identical_outcomes() {
    /// Hands a fresh scheduler (over a fresh adversary) to `drive`.
    type WithScheduler = fn(&mut dyn FnMut(&mut dyn Scheduler));
    let sixth = SystemConfig::with_sixth_resilience(7).unwrap();
    let reset_tolerant = ResetTolerantBuilder::recommended(&sixth).unwrap();
    let rows: [(
        &str,
        SystemConfig,
        &dyn ProtocolBuilder,
        RunLimits,
        WithScheduler,
    ); 3] = [
        (
            "windowed",
            sixth,
            &reset_tolerant,
            RunLimits::windows(20_000),
            |drive| drive(&mut WindowScheduler::new(&mut RotatingResetAdversary::new())),
        ),
        (
            "async",
            SystemConfig::new(7, 2).unwrap(),
            &BenOrBuilder::new(),
            RunLimits::steps(500_000),
            |drive| {
                let mut adversary = ScheduledCrashAdversary::new(vec![ProcessorId::new(3)]);
                drive(&mut AsyncScheduler::new(&mut adversary))
            },
        ),
        (
            "partial-sync",
            SystemConfig::new(7, 1).unwrap(),
            &BrachaBuilder::new(),
            RunLimits::steps(500_000),
            |drive| {
                drive(&mut PartialSyncScheduler::new(
                    &mut GstProcrastinatorAdversary::new(32, 3),
                ))
            },
        ),
    ];
    for (model, cfg, builder, limits, with_scheduler) in rows {
        for seed in 0..4u64 {
            let inputs = InputAssignment::evenly_split(cfg.n());
            let mut ran = None;
            with_scheduler(&mut |scheduler| {
                let mut core = ExecutionCore::new(cfg, inputs.clone(), builder, seed);
                ran = Some((core.run(scheduler, limits), core.metrics()));
            });
            let mut stepped = None;
            with_scheduler(&mut |scheduler| {
                let mut core = ExecutionCore::new(cfg, inputs.clone(), builder, seed);
                scheduler.on_start(&mut core);
                while !core.all_correct_decided()
                    && core.time() < scheduler.max_time(&limits)
                    && scheduler.step(&mut core)
                {}
                stepped = Some((core.outcome_with(scheduler), core.metrics()));
            });
            let (ran, ran_metrics) = ran.expect("the row drove its scheduler");
            let (stepped, stepped_metrics) = stepped.expect("the row drove its scheduler");
            let context = format!("{model} seed {seed}");
            assert!(ran.all_correct_decided(), "{context}: the run decides");
            assert_outcomes_identical(&stepped, &ran, &context);
            assert_eq!(stepped_metrics, ran_metrics, "{context}: core metrics");
        }
    }
}

/// A window execution never books crashes or async-style chains, and an
/// asynchronous execution never books resets — the shared core keeps the two
/// models' bookkeeping apart.
#[test]
fn model_specific_counters_stay_separated() {
    let cfg = SystemConfig::with_sixth_resilience(13).unwrap();
    let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
    let windowed = run_windowed(
        cfg,
        InputAssignment::evenly_split(13),
        &builder,
        &mut RotatingResetAdversary::new(),
        1,
        RunLimits::windows(5_000),
    );
    assert_eq!(windowed.metrics.crashes, 0);
    assert!(windowed.metrics.resets_consumed > 0);

    let cfg = SystemConfig::new(7, 2).unwrap();
    let asynchronous = run_async(
        cfg,
        InputAssignment::evenly_split(7),
        &BenOrBuilder::new(),
        &mut ScheduledCrashAdversary::new(vec![ProcessorId::new(0)]),
        1,
        RunLimits::steps(500_000),
    );
    assert_eq!(asynchronous.metrics.resets_consumed, 0);
    assert_eq!(asynchronous.metrics.crashes, 1);
}

/// The parallel campaign aggregates bit-identically to the serial path for
/// the same base seed, whatever the thread count — both for window and for
/// asynchronous campaigns.
#[test]
fn campaign_aggregation_is_thread_count_invariant() {
    let cfg = SystemConfig::with_sixth_resilience(13).unwrap();
    let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
    let plan = TrialPlan::new(cfg, InputAssignment::evenly_split(13))
        .trials(10)
        .base_seed(0xFEED)
        .limits(RunLimits::windows(3_000));
    let aggregate = |campaign: Campaign| {
        let records = campaign.run_records(&plan, &builder, |_| {
            BuiltAdversary::windowed(Box::new(SplitVoteAdversary::new()))
        });
        Aggregate::from_records(&records, plan.limits.max_windows)
    };
    let serial = aggregate(Campaign::serial());
    for threads in [2usize, 4, 7, 16, 0] {
        assert_eq!(
            serial,
            aggregate(Campaign::with_threads(threads)),
            "threads={threads}"
        );
    }

    let cfg = SystemConfig::new(6, 2).unwrap();
    let plan = TrialPlan::new(cfg, InputAssignment::evenly_split(6))
        .trials(10)
        .base_seed(0xF00)
        .limits(RunLimits::steps(500_000));
    let aggregate = |campaign: Campaign| {
        let records = campaign.run_records(&plan, &BenOrBuilder::new(), |_| {
            BuiltAdversary::asynchronous(Box::new(FairAsyncAdversary::default()))
        });
        Aggregate::from_records(&records, plan.limits.max_steps)
    };
    let serial = aggregate(Campaign::serial());
    for threads in [3usize, 8, 0] {
        assert_eq!(
            serial,
            aggregate(Campaign::with_threads(threads)),
            "threads={threads}"
        );
    }
}

/// The benign full-delivery baseline still terminates in one window through
/// the unified core, pinning the E1 fast path.
#[test]
fn full_delivery_baseline_outcome_is_pinned() {
    let cfg = SystemConfig::with_sixth_resilience(7).unwrap();
    let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
    let inputs = InputAssignment::unanimous(7, Bit::One);
    let outcome = run_windowed(
        cfg,
        inputs.clone(),
        &builder,
        &mut FullDeliveryAdversary,
        42,
        RunLimits::small(),
    );
    assert!(outcome.is_correct(&inputs));
    assert_eq!(outcome.decided_value(), Some(Bit::One));
    assert!(outcome.all_decided_at.is_some());
}
