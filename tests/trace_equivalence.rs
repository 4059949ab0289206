//! Equivalence of the trace-free campaign hot path and the trace-keeping
//! diagnostic path.
//!
//! The campaign workers run `NoTrace` executions inside reused
//! `TrialWorkspace`s; single-run entry points (`run_windowed` / `run_async`)
//! keep `FullTrace`. These tests pin the claim that makes the optimisation
//! safe: the two paths are **bit-identical** in everything except the trace
//! itself —
//!
//! 1. per-outcome: every decision, counter and metric of a `NoTrace`
//!    workspace run equals the `FullTrace` fresh-core run, for both
//!    schedulers, across seeds and adversaries;
//! 2. per-record: campaign `TrialRecord` streams equal records distilled
//!    from fresh trace-keeping runs, across thread counts (fresh-per-trial
//!    vs reused-workspace determinism);
//! 3. per-aggregate: the E1-shaped aggregate derived from the two streams is
//!    identical;
//! 4. per-protocol: one workspace run through every `ProtocolSpec` variant,
//!    and back and forth between builders whose instances must not be taken
//!    for each other's, re-initializes its processors in place
//!    (`ProtocolBuilder::rebuild`) and still equals fresh cores.

use agreement::adversary::{
    GstProcrastinatorAdversary, RotatingResetAdversary, ScheduledCrashAdversary, SplitVoteAdversary,
};
use agreement::core::{Aggregate, Campaign, ProtocolSpec, TrialPlan, TrialRecord};
use agreement::model::{
    InputAssignment, ProcessorId, ProcessorRng, SystemConfig, Thresholds, Trace,
};
use agreement::protocols::{BenOrBuilder, BrachaBuilder, ResetTolerantBuilder};
use agreement::sim::{
    run_async, run_partial_sync, run_windowed, BuiltAdversary, FairAsyncAdversary, RunLimits,
    RunOutcome, TrialWorkspace,
};

const CASES: u64 = 8;

/// The trace is the one field the trace-free path legitimately lacks.
fn strip_trace(mut outcome: RunOutcome) -> RunOutcome {
    outcome.trace = Trace::new();
    outcome
}

/// `NoTrace` workspace runs equal `FullTrace` fresh runs in every field but
/// the trace — windowed model, resetting and benign-ish adversaries, with the
/// workspace deliberately reused across all cases.
#[test]
fn windowed_no_trace_runs_match_full_trace_runs() {
    let cfg = SystemConfig::with_sixth_resilience(13).unwrap();
    let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
    let limits = RunLimits::windows(5_000);
    let mut workspace = TrialWorkspace::new();
    for case in 0..CASES {
        let mut gen = ProcessorRng::labelled(0x7AC3, case);
        let seed = gen.range(100_000);
        let inputs = InputAssignment::new((0..13).map(|_| gen.bit()).collect());

        let traced = run_windowed(
            cfg,
            inputs.clone(),
            &builder,
            &mut SplitVoteAdversary::new(),
            seed,
            limits,
        );
        assert!(
            traced.trace.total_events() > 0,
            "the diagnostic path keeps its trace"
        );
        let trace_free = workspace.run_built(
            cfg,
            &inputs,
            &builder,
            &mut BuiltAdversary::windowed(Box::new(SplitVoteAdversary::new())),
            seed,
            limits,
        );
        assert_eq!(trace_free.trace.total_events(), 0);
        assert_eq!(
            trace_free,
            strip_trace(traced),
            "split-vote case {case} seed {seed}"
        );

        let traced = run_windowed(
            cfg,
            inputs.clone(),
            &builder,
            &mut RotatingResetAdversary::new(),
            seed,
            limits,
        );
        let trace_free = workspace.run_built(
            cfg,
            &inputs,
            &builder,
            &mut BuiltAdversary::windowed(Box::new(RotatingResetAdversary::new())),
            seed,
            limits,
        );
        assert_eq!(
            trace_free,
            strip_trace(traced),
            "rotating-reset case {case} seed {seed}"
        );
    }
}

/// Same equivalence for the asynchronous scheduler, including crash
/// scheduling (which exercises `drop_to` on the senders' shared logs) and
/// Bracha's reliable-broadcast traffic (boxed `Rbc` payloads).
#[test]
fn async_no_trace_runs_match_full_trace_runs() {
    let cfg = SystemConfig::new(7, 2).unwrap();
    let limits = RunLimits::steps(500_000);
    let mut workspace = TrialWorkspace::new();
    for case in 0..CASES {
        let mut gen = ProcessorRng::labelled(0xA57AC3, case);
        let seed = gen.range(100_000);
        let inputs = InputAssignment::new((0..7).map(|_| gen.bit()).collect());
        let crash_list = vec![ProcessorId::new(gen.range(7) as usize)];

        let traced = run_async(
            cfg,
            inputs.clone(),
            &BenOrBuilder::new(),
            &mut ScheduledCrashAdversary::new(crash_list.clone()),
            seed,
            limits,
        );
        let trace_free = workspace.run_built(
            cfg,
            &inputs,
            &BenOrBuilder::new(),
            &mut BuiltAdversary::asynchronous(Box::new(ScheduledCrashAdversary::new(crash_list))),
            seed,
            limits,
        );
        assert_eq!(
            trace_free,
            strip_trace(traced),
            "ben-or crash case {case} seed {seed}"
        );

        let traced = run_async(
            cfg,
            inputs.clone(),
            &BrachaBuilder::new(),
            &mut FairAsyncAdversary::default(),
            seed,
            limits,
        );
        let trace_free = workspace.run_built(
            cfg,
            &inputs,
            &BrachaBuilder::new(),
            &mut BuiltAdversary::asynchronous(Box::new(FairAsyncAdversary::default())),
            seed,
            limits,
        );
        assert_eq!(
            trace_free,
            strip_trace(traced),
            "bracha fair case {case} seed {seed}"
        );
    }
}

/// Campaign record streams (reused `NoTrace` workspaces, any thread count)
/// equal records distilled from fresh trace-keeping cores, one per trial —
/// and so do the aggregates derived from them. This is the E1 shape.
#[test]
fn campaign_records_match_fresh_full_trace_records_across_thread_counts() {
    let cfg = SystemConfig::with_sixth_resilience(13).unwrap();
    let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
    let plan = TrialPlan::new(cfg, InputAssignment::evenly_split(13))
        .trials(9)
        .limits(RunLimits::windows(2_000));

    // Fresh-per-trial reference: a brand-new FullTrace core per seed.
    let reference: Vec<TrialRecord> = (0..plan.trials)
        .map(|trial| {
            let seed = plan.base_seed.wrapping_add(trial);
            let outcome = run_windowed(
                plan.cfg,
                plan.inputs.clone(),
                &builder,
                &mut SplitVoteAdversary::new(),
                seed,
                plan.limits,
            );
            TrialRecord::from_outcome(trial, seed, &outcome, &plan.inputs)
        })
        .collect();

    let split_vote = |_seed| BuiltAdversary::windowed(Box::new(SplitVoteAdversary::new()));
    for threads in [1usize, 2, 3, 8, 0] {
        let campaign = Campaign::with_threads(threads).run_records(&plan, &builder, split_vote);
        assert_eq!(
            campaign, reference,
            "thread count {threads}: workspace reuse changed a record"
        );
    }

    let campaign = Campaign::parallel().run_records(&plan, &builder, split_vote);
    assert_eq!(
        Aggregate::from_records(&campaign, plan.limits.max_windows),
        Aggregate::from_records(&reference, plan.limits.max_windows),
        "derived aggregates must be identical"
    );
}

/// The async campaign path is pinned the same way.
#[test]
fn async_campaign_records_match_fresh_full_trace_records() {
    let cfg = SystemConfig::new(5, 1).unwrap();
    let plan = TrialPlan::new(cfg, InputAssignment::evenly_split(5))
        .trials(8)
        .limits(RunLimits::small())
        .base_seed(0xFA1);

    let reference: Vec<TrialRecord> = (0..plan.trials)
        .map(|trial| {
            let seed = plan.base_seed.wrapping_add(trial);
            let outcome = run_async(
                plan.cfg,
                plan.inputs.clone(),
                &BenOrBuilder::new(),
                &mut FairAsyncAdversary::default(),
                seed,
                plan.limits,
            );
            TrialRecord::from_outcome(trial, seed, &outcome, &plan.inputs)
        })
        .collect();

    let fair = |_seed| BuiltAdversary::asynchronous(Box::new(FairAsyncAdversary::default()));
    for threads in [1usize, 4, 0] {
        let campaign =
            Campaign::with_threads(threads).run_records(&plan, &BenOrBuilder::new(), fair);
        assert_eq!(campaign, reference, "thread count {threads}");
    }
    let campaign = Campaign::serial().run_records(&plan, &BenOrBuilder::new(), fair);
    assert_eq!(
        Aggregate::from_records(&reference, plan.limits.max_steps),
        Aggregate::from_records(&campaign, plan.limits.max_steps),
    );
}

/// The model a [`one_workspace_through_every_protocol_matches_fresh_cores`]
/// step runs under, with the adversary both sides of the comparison build.
#[derive(Debug, Clone, Copy)]
enum Model {
    Windowed,
    Async,
    PartialSync,
}

/// Runs `spec` at `(13, t)` for three seeds inside `workspace` and in fresh
/// trace-keeping cores, and compares the outcomes field for field.
fn assert_workspace_matches_fresh(
    workspace: &mut TrialWorkspace,
    spec: ProtocolSpec,
    t: usize,
    model: Model,
) {
    let cfg = SystemConfig::new(13, t).unwrap();
    let builder = spec.instantiate(&cfg).expect("the spec resolves").builder;
    let builder = builder.as_ref();
    let victims = || vec![ProcessorId::new(2)];
    for seed in [3u64, 77, 4_001] {
        let inputs = InputAssignment::split_at(13, (seed % 13) as usize);
        let (limits, mut built, fresh) = match model {
            Model::Windowed => {
                let limits = RunLimits::windows(400);
                let fresh = run_windowed(
                    cfg,
                    inputs.clone(),
                    builder,
                    &mut RotatingResetAdversary::new(),
                    seed,
                    limits,
                );
                let built = BuiltAdversary::windowed(Box::new(RotatingResetAdversary::new()));
                (limits, built, fresh)
            }
            Model::Async => {
                let limits = RunLimits::steps(40_000);
                let fresh = run_async(
                    cfg,
                    inputs.clone(),
                    builder,
                    &mut ScheduledCrashAdversary::new(victims()),
                    seed,
                    limits,
                );
                let adversary = ScheduledCrashAdversary::new(victims());
                (
                    limits,
                    BuiltAdversary::asynchronous(Box::new(adversary)),
                    fresh,
                )
            }
            Model::PartialSync => {
                let limits = RunLimits::steps(40_000);
                let fresh = run_partial_sync(
                    cfg,
                    inputs.clone(),
                    builder,
                    &mut GstProcrastinatorAdversary::new(32, 3),
                    seed,
                    limits,
                );
                let adversary = GstProcrastinatorAdversary::new(32, 3);
                (
                    limits,
                    BuiltAdversary::partial_sync(Box::new(adversary)),
                    fresh,
                )
            }
        };
        let reused = workspace.run_built(cfg, &inputs, builder, &mut built, seed, limits);
        assert!(fresh.metrics.messages_delivered > 0, "{spec:?}: a real run");
        assert_eq!(
            reused,
            strip_trace(fresh),
            "{spec:?} under {model:?}, seed {seed}"
        );
    }
}

/// Every trial after a workspace's first re-initializes the processors it
/// already has: instances of the trial's own builder are reset in place,
/// anything else is replaced. One workspace is driven through all six
/// `ProtocolSpec` variants and all three models, then back and forth between
/// builders that share a type but not their parameters — two sampled
/// committees of different seed and size, two threshold triples — and between
/// Ben-Or and Bracha at one configuration; whatever it held before, every
/// outcome equals the one a fresh core produces.
#[test]
fn one_workspace_through_every_protocol_matches_fresh_cores() {
    let tight = Thresholds::new(9, 9, 7);
    let loose = Thresholds::new(8, 8, 7);
    let committee = |seed| ProtocolSpec::Committee { size: 5, seed };
    let sampled = |size, seed| ProtocolSpec::SampledCommittee { size, seed };
    let mut workspace = TrialWorkspace::new();
    for (spec, t, model) in [
        (ProtocolSpec::ResetTolerant, 2, Model::Windowed),
        (ProtocolSpec::ResetTolerantWith(loose), 2, Model::Windowed),
        (ProtocolSpec::BenOr, 4, Model::Async),
        (ProtocolSpec::Bracha, 4, Model::Async),
        (committee(11), 4, Model::Async),
        (sampled(7, 11), 4, Model::Async),
        (ProtocolSpec::BenOr, 4, Model::PartialSync),
        // Same type, other parameters.
        (sampled(7, 12), 4, Model::Async),
        (sampled(4, 11), 4, Model::Async),
        (sampled(7, 11), 4, Model::PartialSync),
        (committee(11), 4, Model::Async),
        (committee(12), 4, Model::Async),
        (ProtocolSpec::ResetTolerantWith(tight), 2, Model::Windowed),
        (ProtocolSpec::ResetTolerantWith(loose), 2, Model::Windowed),
        (ProtocolSpec::ResetTolerantWith(tight), 2, Model::Windowed),
        (ProtocolSpec::ResetTolerant, 2, Model::Windowed),
        // Other type, same configuration; then same type, other fault budget.
        (ProtocolSpec::BenOr, 4, Model::Async),
        (ProtocolSpec::Bracha, 4, Model::Async),
        (ProtocolSpec::BenOr, 4, Model::Async),
        (ProtocolSpec::BenOr, 3, Model::Async),
        (ProtocolSpec::Bracha, 3, Model::Async),
        (ProtocolSpec::Bracha, 4, Model::PartialSync),
    ] {
        assert_workspace_matches_fresh(&mut workspace, spec, t, model);
    }
}
