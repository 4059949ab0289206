//! Properties of the unified `ExecutionCore`.
//!
//! Every execution model is a scheduler over one shared core; these tests pin
//! down the guarantees that rests on:
//!
//! 1. **Driver equivalence** — step-wise driving (`Scheduler::start`,
//!    `step`, `outcome`) produces the same outcome as `Scheduler::run`, the
//!    one loop every execution goes through, trace contents included.
//! 2. **The view is the processors** — what `ExecutionCore::with_view` shows
//!    an adversary equals what the execution did after every step of every
//!    model (its digests the harnesses', its outputs and crash flags the
//!    trace's and the protocols' own), and a digest is computed only when
//!    asked for and only once per change.
//! 3. **Every decision is booked once** — whichever transition hands a
//!    processor to its protocol (start, delivery, reset), the output bit it
//!    writes reaches the trace as one `Decided` event.
//!
//! That a seeded run is the same execution on a fresh core, in a reused
//! workspace and on any thread count is `tests/equivalence.rs`'s table.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use agreement::adversary::{
    Genome, GstProcrastinatorAdversary, RotatingResetAdversary, ScheduledCrashAdversary,
    SearchAsyncAdversary, SearchPartialSyncAdversary, SearchWindowAdversary,
};
use agreement::model::{
    Bit, Context, InputAssignment, Payload, ProcessorId, Protocol, ProtocolBuilder, StateDigest,
    SystemConfig, TraceEvent,
};
use agreement::protocols::{BenOrBuilder, BrachaBuilder, ResetTolerantBuilder};
use agreement::sim::{
    run_async, run_windowed, ExecutionCore, FairAsyncAdversary, FullDeliveryAdversary, RunLimits,
    RunOutcome, Scheduler, SystemView, Window, WindowAdversary,
};

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

/// Driving any scheduler step by step — `start`, then `step` until it
/// returns `false`, every correct processor decided or the cap elapsed, then
/// `outcome` — produces the same outcome as `Scheduler::run`, trace and
/// metrics included.
#[test]
fn stepwise_and_run_produce_identical_outcomes() {
    /// Hands a fresh scheduler (over a fresh adversary) to `drive`.
    type WithScheduler = fn(&mut dyn FnMut(&mut Scheduler<'_>));
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
            |drive| drive(&mut Scheduler::Windowed(&mut RotatingResetAdversary::new())),
        ),
        (
            "async",
            SystemConfig::new(7, 2).unwrap(),
            &BenOrBuilder::new(),
            RunLimits::steps(500_000),
            |drive| {
                let mut adversary = ScheduledCrashAdversary::new(vec![ProcessorId::new(3)]);
                drive(&mut Scheduler::Asynchronous(&mut adversary))
            },
        ),
        (
            "partial-sync",
            SystemConfig::new(7, 1).unwrap(),
            &BrachaBuilder::new(),
            RunLimits::steps(500_000),
            |drive| {
                drive(&mut Scheduler::PartialSync(
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
                ran = Some((scheduler.run(&mut core, limits), core.metrics()));
            });
            let mut stepped = None;
            with_scheduler(&mut |scheduler| {
                let mut core = ExecutionCore::new(cfg, inputs.clone(), builder, seed);
                scheduler.start(&mut core);
                while !core.all_correct_decided()
                    && core.time() < scheduler.model().time_cap(&limits)
                    && scheduler.step(&mut core)
                {}
                stepped = Some((scheduler.outcome(&mut core), core.metrics()));
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

/// What each processor's protocol reports as decided in its own digest: every
/// instance a [`Reporting`] builder makes writes its slot after each callback.
#[derive(Debug, Clone, Default)]
struct OwnDecisions(Arc<Mutex<Vec<Option<Bit>>>>);

impl OwnDecisions {
    fn set(&self, id: ProcessorId, decided: Option<Bit>) {
        let mut slots = self.0.lock().unwrap();
        if slots.len() <= id.index() {
            slots.resize(id.index() + 1, None);
        }
        slots[id.index()] = decided;
    }

    fn get(&self) -> Vec<Option<Bit>> {
        self.0.lock().unwrap().clone()
    }
}

/// Wraps a protocol instance, reporting its own `digest().decided` after
/// every callback.
#[derive(Debug)]
struct ReportingInstance(Box<dyn Protocol>, ProcessorId, OwnDecisions);

impl ReportingInstance {
    fn report(&self) {
        self.2.set(self.1, self.0.digest().decided);
    }
}

impl Protocol for ReportingInstance {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.0.on_start(ctx);
        self.report();
    }
    fn on_message(&mut self, from: ProcessorId, payload: &Payload, ctx: &mut dyn Context) {
        self.0.on_message(from, payload, ctx);
        self.report();
    }
    fn on_reset(&mut self, ctx: &mut dyn Context) {
        self.0.on_reset(ctx);
        self.report();
    }
    fn digest(&self) -> StateDigest {
        self.0.digest()
    }
}

/// Builds `.0`'s protocol, wrapped in a [`ReportingInstance`] writing to `.1`.
#[derive(Debug)]
struct Reporting<'a>(&'a dyn ProtocolBuilder, OwnDecisions);

impl ProtocolBuilder for Reporting<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn build(&self, id: ProcessorId, input: Bit, cfg: &SystemConfig) -> Box<dyn Protocol> {
        let instance = ReportingInstance(self.0.build(id, input, cfg), id, self.1.clone());
        instance.report();
        Box::new(instance)
    }
}

/// The digests, outputs and crash flags a view hands out, checked against
/// what the execution did: the digests against the harnesses' (asked for
/// twice in the one decision, the second time in the opposite order), the
/// outputs and crash flags against the `Decided` and `Crashed` events of the
/// core's trace and — where `own` collects them — against what each
/// protocol's own digest says it decided. (The core's `decisions()` and
/// `crashed()` read the very storage the view does, so they would prove
/// nothing.)
fn assert_view_matches_the_execution(
    core: &ExecutionCore,
    own: Option<&OwnDecisions>,
    context: &str,
) {
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

    let trace = core.recorder().trace();
    assert_eq!(trace.dropped(), 0, "{context}: the whole trace is stored");
    let (mut traced_outputs, mut traced_crashed) = (vec![None; n], vec![false; n]);
    for event in trace.stored() {
        match *event {
            TraceEvent::Decided { id, value, .. } => {
                let earlier = traced_outputs[id.index()].replace(value);
                assert_eq!(earlier, None, "{context}: {id} decided twice");
            }
            TraceEvent::Crashed { id } => traced_crashed[id.index()] = true,
            _ => {}
        }
    }
    assert_eq!(
        outputs, traced_outputs,
        "{context}: outputs against the trace"
    );
    assert_eq!(
        crashed, traced_crashed,
        "{context}: crashes against the trace"
    );
    if let Some(own) = own {
        assert_eq!(
            outputs,
            own.get(),
            "{context}: outputs against the protocols"
        );
    }
}

/// Under all three schedulers, driven by seeded random schedules that reset,
/// crash and corrupt, the view equals the execution and the message buffer's
/// lane bookkeeping holds ([`check_lanes`](agreement::sim::MessageBuffer::check_lanes)) before the start,
/// after it and after every step — and again through a second trial run in the
/// same core after `reinit`, whose first view must not remember the first
/// trial's digests, outputs or crashes.
#[test]
fn the_view_equals_the_harnesses_after_every_step_of_every_model() {
    /// Hands `drive` a fresh scheduler over a random schedule drawn from the seed.
    type WithScheduler = fn(u64, SystemConfig, &mut dyn FnMut(&mut Scheduler<'_>));
    fn tape(model: &str, seed: u64) -> Vec<u8> {
        Genome::from_seed(model, seed, 256).tape().to_vec()
    }
    let sixth = SystemConfig::with_sixth_resilience(7).unwrap();
    let reset_tolerant = ResetTolerantBuilder::recommended(&sixth).unwrap();
    let rows: [(&str, SystemConfig, &dyn ProtocolBuilder, WithScheduler); 3] = [
        ("windowed", sixth, &reset_tolerant, |seed, _, drive| {
            let mut adversary = SearchWindowAdversary::from_tape(tape("windowed", seed));
            drive(&mut Scheduler::Windowed(&mut adversary))
        }),
        (
            "async",
            SystemConfig::new(7, 2).unwrap(),
            &BenOrBuilder::new(),
            |seed, _, drive| {
                let mut adversary = SearchAsyncAdversary::from_tape(tape("async", seed));
                drive(&mut Scheduler::Asynchronous(&mut adversary))
            },
        ),
        (
            "partial-sync",
            SystemConfig::new(7, 2).unwrap(),
            &BrachaBuilder::new(),
            |seed, cfg, drive| {
                let tape = tape("partial-sync", seed);
                let mut adversary = SearchPartialSyncAdversary::from_tape(tape, &cfg);
                drive(&mut Scheduler::PartialSync(&mut adversary))
            },
        ),
    ];
    let (mut resets, mut crashes, mut corrupted, mut decided) = (0, 0, 0, 0);
    for (model, cfg, builder, with_scheduler) in rows {
        for seed in 0..8u64 {
            let n = cfg.n();
            let own = OwnDecisions::default();
            let builder = Reporting(builder, own.clone());
            let mut core =
                ExecutionCore::new(cfg, InputAssignment::evenly_split(n), &builder, seed);
            for trial in 0..2u64 {
                let context = format!("{model} seed {seed} trial {trial}");
                let check = |core: &ExecutionCore, context: &str| {
                    assert_view_matches_the_execution(core, Some(&own), context);
                    if let Err(broken) = core.buffer().check_lanes() {
                        panic!("{context}: message buffer {broken}");
                    }
                };
                check(&core, &context);
                with_scheduler(seed * 2 + trial, cfg, &mut |scheduler| {
                    scheduler.start(&mut core);
                    check(&core, &context);
                    for step in 0..300 {
                        if core.all_correct_decided() || !scheduler.step(&mut core) {
                            break;
                        }
                        check(&core, &format!("{context} step {step}"));
                    }
                });
                decided += core.decisions().flatten().count();
                let metrics = core.metrics();
                resets += metrics.resets_consumed;
                crashes += metrics.crashes;
                corrupted += core.corrupted().iter().filter(|&&c| c).count();
                let inputs = InputAssignment::unanimous(n, Bit::from(seed % 2 == 0));
                core.reinit(cfg, &inputs, &builder, seed + 1_000);
            }
        }
    }
    assert!(
        resets > 0 && crashes > 0 && corrupted > 0 && decided > 0,
        "the schedules must reset ({resets}), crash ({crashes}), corrupt ({corrupted}) \
         and decide ({decided})"
    );

    // The two transitions a schedule above cannot isolate — a window resets
    // and then delivers to everyone, and none of the three protocols changes
    // its digest by starting — driven directly.
    let mut core = ExecutionCore::new(sixth, InputAssignment::evenly_split(7), &DecidesAtStart, 0);
    assert_view_matches_the_execution(&core, None, "before the start");
    core.ensure_started();
    assert_view_matches_the_execution(&core, None, "started");
    core.reset(ProcessorId::new(3));
    assert_view_matches_the_execution(&core, None, "reset");
    core.crash(ProcessorId::new(4));
    assert_view_matches_the_execution(&core, None, "crashed");
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

/// A decision written by `on_start` is booked like one written by a
/// delivery: under both models that start from `on_start` alone, the trace
/// lists every processor deciding its input at time 0.
#[test]
fn a_decision_written_at_start_reaches_the_trace() {
    let cfg = SystemConfig::new(5, 1).unwrap();
    let inputs = InputAssignment::evenly_split(5);
    let expected: Vec<(ProcessorId, Bit, u64)> = ProcessorId::all(5)
        .map(|id| (id, inputs.bit(id.index()), 0))
        .collect();
    let windowed = run_windowed(
        cfg,
        inputs.clone(),
        &DecidesAtStart,
        &mut FullDeliveryAdversary,
        1,
        RunLimits::small(),
    );
    let asynchronous = run_async(
        cfg,
        inputs.clone(),
        &DecidesAtStart,
        &mut FairAsyncAdversary::default(),
        1,
        RunLimits::small(),
    );
    for (model, outcome) in [("windowed", windowed), ("async", asynchronous)] {
        assert_eq!(
            outcome.trace.decisions().collect::<Vec<_>>(),
            expected,
            "{model}"
        );
        assert!(outcome.all_correct_decided(), "{model}");
        assert_eq!(outcome.first_decision_at, Some(0), "{model}");
        assert_eq!(outcome.all_decided_at, Some(0), "{model}");
        assert_eq!(outcome.duration, 0, "{model}");
    }
}

/// Decides its input in `on_reset` and nowhere else: a rejoin rule that
/// reads the decision off durable state.
#[derive(Debug)]
struct DecidesOnReset;

impl Protocol for DecidesOnReset {
    fn on_start(&mut self, _ctx: &mut dyn Context) {}
    fn on_message(&mut self, _from: ProcessorId, _payload: &Payload, _ctx: &mut dyn Context) {}
    fn on_reset(&mut self, ctx: &mut dyn Context) {
        ctx.decide(ctx.input());
    }
    fn digest(&self) -> StateDigest {
        StateDigest::initial(Bit::Zero)
    }
}

impl ProtocolBuilder for DecidesOnReset {
    fn name(&self) -> &'static str {
        "decides-on-reset"
    }
    fn build(&self, _id: ProcessorId, _input: Bit, _cfg: &SystemConfig) -> Box<dyn Protocol> {
        Box::new(DecidesOnReset)
    }
}

/// Resets processor `k mod n` in window `k` and delivers from everyone.
struct ResetsInTurn;

impl WindowAdversary for ResetsInTurn {
    fn name(&self) -> &'static str {
        "resets-in-turn"
    }
    fn next_window(&mut self, view: &SystemView<'_>) -> Window {
        let reset = ProcessorId::new(view.time as usize % view.n());
        Window::uniform(
            &view.config,
            vec![reset],
            ProcessorId::all(view.n()).collect(),
        )
    }
}

/// A decision written by `on_reset` reaches the trace in the window of its
/// reset, after the `Reset` event: processor `k`, reset in window `k`,
/// decides there and nowhere else.
#[test]
fn a_decision_written_by_a_reset_reaches_the_trace_at_its_window() {
    let cfg = SystemConfig::with_sixth_resilience(7).unwrap();
    let inputs = InputAssignment::evenly_split(7);
    let outcome = run_windowed(
        cfg,
        inputs.clone(),
        &DecidesOnReset,
        &mut ResetsInTurn,
        1,
        RunLimits::windows(20),
    );
    let expected: Vec<(ProcessorId, Bit, u64)> = ProcessorId::all(7)
        .map(|id| (id, inputs.bit(id.index()), id.index() as u64))
        .collect();
    assert_eq!(outcome.trace.decisions().collect::<Vec<_>>(), expected);
    let mut window = None;
    let mut last_reset = None;
    for event in outcome.trace.stored() {
        match *event {
            TraceEvent::WindowStarted { index } => window = Some(index),
            TraceEvent::Reset { id } => last_reset = Some(id),
            TraceEvent::Decided { id, at, .. } => {
                assert_eq!(window, Some(at), "{id} decided in the window of its reset");
                assert_eq!(last_reset, Some(id), "{id} decided right after its reset");
            }
            _ => {}
        }
    }
    assert_eq!(outcome.first_decision_at, Some(1));
    assert_eq!(outcome.all_decided_at, Some(7));
    assert_eq!(outcome.duration, 7);
    assert_eq!(outcome.metrics.resets_consumed, 7);
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
    let mut scheduler = Scheduler::Asynchronous(&mut adversary);
    scheduler.start(&mut core);
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
