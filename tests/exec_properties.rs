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
//! 4. **The view is the processors** — what `ExecutionCore::with_view` shows
//!    an adversary equals what the harnesses hold after every step of every
//!    model, and a digest is computed only when asked for and only once per
//!    change.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use agreement::adversary::{
    Genome, GstProcrastinatorAdversary, RotatingResetAdversary, ScheduledCrashAdversary,
    SearchAsyncAdversary, SearchPartialSyncAdversary, SearchWindowAdversary, SplitVoteAdversary,
};
use agreement::core::{Aggregate, Campaign, TrialPlan};
use agreement::model::{
    Bit, Context, InputAssignment, Payload, ProcessorId, ProcessorRng, Protocol, ProtocolBuilder,
    StateDigest, SystemConfig,
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

/// The digests, outputs and crash flags a view hands out, checked against the
/// harnesses they are read from: the digests asked for twice in the one
/// decision, the second time in the opposite order.
fn assert_view_matches_the_harnesses(core: &ExecutionCore, context: &str) {
    let n = core.config().n();
    let (digests, again, outputs, crashed) = core.with_view(|view| {
        let digests: Vec<StateDigest> = view.digests().collect();
        let mut again: Vec<StateDigest> = (0..n).rev().map(|i| view.digest(i)).collect();
        again.reverse();
        let outputs: Vec<Option<Bit>> = view.outputs().collect();
        assert_eq!(
            (0..n).map(|i| view.output(i)).collect::<Vec<_>>(),
            outputs,
            "{context}"
        );
        let crashed: Vec<bool> = (0..n).map(|i| view.is_crashed(i)).collect();
        (digests, again, outputs, crashed)
    });
    assert_eq!(digests, core.digests().collect::<Vec<_>>(), "{context}");
    assert_eq!(again, digests, "{context}: second read");
    assert_eq!(outputs, core.decisions().collect::<Vec<_>>(), "{context}");
    assert_eq!(crashed, core.crashed().collect::<Vec<_>>(), "{context}");
}

/// Under all three schedulers, driven by seeded random schedules that reset,
/// crash and corrupt, the view equals the harnesses before the start, after
/// it and after every step — and again through a second trial run in the
/// same core after `reinit`, whose first view must not remember the first
/// trial's digests.
#[test]
fn the_view_equals_the_harnesses_after_every_step_of_every_model() {
    /// Hands `drive` a fresh scheduler over a random schedule drawn from the seed.
    type WithScheduler = fn(u64, SystemConfig, &mut dyn FnMut(&mut dyn Scheduler));
    fn tape(model: &str, seed: u64) -> Vec<u8> {
        Genome::from_seed(model, seed, 256).tape().to_vec()
    }
    let sixth = SystemConfig::with_sixth_resilience(7).unwrap();
    let reset_tolerant = ResetTolerantBuilder::recommended(&sixth).unwrap();
    let rows: [(&str, SystemConfig, &dyn ProtocolBuilder, WithScheduler); 3] = [
        ("windowed", sixth, &reset_tolerant, |seed, _, drive| {
            let mut adversary = SearchWindowAdversary::from_tape(tape("windowed", seed));
            drive(&mut WindowScheduler::new(&mut adversary))
        }),
        (
            "async",
            SystemConfig::new(7, 2).unwrap(),
            &BenOrBuilder::new(),
            |seed, _, drive| {
                let mut adversary = SearchAsyncAdversary::from_tape(tape("async", seed));
                drive(&mut AsyncScheduler::new(&mut adversary))
            },
        ),
        (
            "partial-sync",
            SystemConfig::new(7, 2).unwrap(),
            &BrachaBuilder::new(),
            |seed, cfg, drive| {
                let tape = tape("partial-sync", seed);
                let mut adversary = SearchPartialSyncAdversary::from_tape(tape, &cfg);
                drive(&mut PartialSyncScheduler::new(&mut adversary))
            },
        ),
    ];
    let (mut resets, mut crashes, mut corrupted) = (0, 0, 0);
    for (model, cfg, builder, with_scheduler) in rows {
        for seed in 0..8u64 {
            let n = cfg.n();
            let mut core = ExecutionCore::new(cfg, InputAssignment::evenly_split(n), builder, seed);
            for trial in 0..2u64 {
                let context = format!("{model} seed {seed} trial {trial}");
                assert_view_matches_the_harnesses(&core, &context);
                with_scheduler(seed * 2 + trial, cfg, &mut |scheduler| {
                    scheduler.on_start(&mut core);
                    assert_view_matches_the_harnesses(&core, &context);
                    for step in 0..300 {
                        if core.all_correct_decided() || !scheduler.step(&mut core) {
                            break;
                        }
                        assert_view_matches_the_harnesses(&core, &format!("{context} step {step}"));
                    }
                });
                let metrics = core.metrics();
                resets += metrics.resets_consumed;
                crashes += metrics.crashes;
                corrupted += core.corrupted().iter().filter(|&&c| c).count();
                let inputs = InputAssignment::unanimous(n, Bit::from(seed % 2 == 0));
                core.reinit(cfg, &inputs, builder, seed + 1_000);
            }
        }
    }
    assert!(
        resets > 0 && crashes > 0 && corrupted > 0,
        "the schedules must reset ({resets}), crash ({crashes}) and corrupt ({corrupted})"
    );

    // The two transitions a schedule above cannot isolate — a window resets
    // and then delivers to everyone, and none of the three protocols changes
    // its digest by starting — driven directly.
    let mut core = ExecutionCore::new(sixth, InputAssignment::evenly_split(7), &DecidesAtStart, 0);
    assert_view_matches_the_harnesses(&core, "before the start");
    core.ensure_started();
    assert_view_matches_the_harnesses(&core, "started");
    core.reset(ProcessorId::new(3));
    assert_view_matches_the_harnesses(&core, "reset");
    core.crash(ProcessorId::new(4));
    assert_view_matches_the_harnesses(&core, "crashed");
}

/// Decides its input the moment it starts, so that starting is visible in
/// the digest.
#[derive(Debug)]
struct DecidesAtStart;

impl Protocol for DecidesAtStart {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        ctx.decide(ctx.input());
    }
    fn on_message(&mut self, _from: ProcessorId, _payload: &Payload, _ctx: &mut dyn Context) {}
    fn digest(&self) -> StateDigest {
        StateDigest::initial(Bit::Zero)
    }
}

impl ProtocolBuilder for DecidesAtStart {
    fn name(&self) -> &'static str {
        "decides-at-start"
    }
    fn build(&self, _id: ProcessorId, _input: Bit, _cfg: &SystemConfig) -> Box<dyn Protocol> {
        Box::new(DecidesAtStart)
    }
}

/// Counts `digest` calls of the protocol it wraps.
#[derive(Debug)]
struct CountingDigests(Box<dyn Protocol>, Arc<AtomicU64>);

impl Protocol for CountingDigests {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.0.on_start(ctx);
    }
    fn on_message(&mut self, from: ProcessorId, payload: &Payload, ctx: &mut dyn Context) {
        self.0.on_message(from, payload, ctx);
    }
    fn digest(&self) -> StateDigest {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.digest()
    }
}

#[derive(Debug)]
struct CountingBuilder(BenOrBuilder, Arc<AtomicU64>);

impl ProtocolBuilder for CountingBuilder {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn build(&self, id: ProcessorId, input: Bit, cfg: &SystemConfig) -> Box<dyn Protocol> {
        Box::new(CountingDigests(
            self.0.build(id, input, cfg),
            Arc::clone(&self.1),
        ))
    }
}

/// A decision pays for the digests it reads: none under a fair round-robin
/// adversary, which reads none; `n` for the first decision that reads them
/// all; and after that one per processor that took a step in between.
#[test]
fn a_view_computes_a_digest_only_when_asked_and_once_per_change() {
    let cfg = SystemConfig::new(7, 2).unwrap();
    let calls = Arc::new(AtomicU64::new(0));
    let builder = CountingBuilder(BenOrBuilder::new(), Arc::clone(&calls));
    let mut core = ExecutionCore::new(cfg, InputAssignment::evenly_split(7), &builder, 5);
    let mut adversary = FairAsyncAdversary::default();
    let mut scheduler = AsyncScheduler::new(&mut adversary);
    let scheduler: &mut dyn Scheduler = &mut scheduler;
    scheduler.on_start(&mut core);
    for _ in 0..40 {
        assert!(scheduler.step(&mut core));
    }
    assert_eq!(
        calls.load(Ordering::Relaxed),
        0,
        "nobody asked for a digest"
    );

    let read_all = |core: &ExecutionCore| core.with_view(|view| view.digests().count());
    assert_eq!(read_all(&core), 7);
    assert_eq!(calls.load(Ordering::Relaxed), 7, "the first full read");
    read_all(&core);
    core.with_view(|view| (view.max_round(), view.estimate_count(Bit::One)));
    assert_eq!(calls.load(Ordering::Relaxed), 7, "nothing changed since");

    // One asynchronous step delivers to one processor.
    assert!(scheduler.step(&mut core));
    read_all(&core);
    assert_eq!(calls.load(Ordering::Relaxed), 8, "one processor changed");
}
