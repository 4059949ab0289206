//! Properties of the partial-synchrony execution model.
//!
//! Two guarantees are pinned here:
//!
//! 1. **The bounded-delay invariant** — the scheduler *enforces* eventual
//!    synchrony: once the adversary's GST has passed, no pending message
//!    (from a non-omitted sender, to a non-crashed recipient) is ever older
//!    than the declared bound Δ. This is checked after *every* step of
//!    step-wise executions driven by a worst-case stonewalling adversary, so
//!    the delivery guarantee demonstrably comes from the scheduler, not from
//!    adversary goodwill.
//! 2. **The enforcement is the same function of the schedule** — the
//!    scheduler skips senders whose per-lane send-stamp bound puts every
//!    deadline in the future and reads each remaining sender's owed channels
//!    off its lane; a test-only oracle that polls all `n²` channel heads
//!    every step, as the scheduler itself used to, must produce the same
//!    trace event for event under seeded random adversaries — over lanes
//!    with and without index queues — under a schedule built to make the
//!    bound go stale, and with deadlines past the end of time.

use agreement::core::experiments::Scale;
use agreement::core::{partial_sync_scenarios, Campaign};
use agreement::model::{
    Bit, Context, InputAssignment, Payload, ProcessorId, ProcessorRng, Protocol, ProtocolBuilder,
    StateDigest, SystemConfig, Trace, TraceEvent,
};
use agreement::protocols::{BenOrBuilder, BrachaBuilder};
use agreement::sim::{
    ChannelCursor, ExecutionCore, FullTrace, PartialSyncAction, PartialSyncAdversary, Probe,
    RunOutcome, Scheduler, SystemView,
};

/// A core that keeps the trace of its execution.
type Traced = ExecutionCore<FullTrace>;

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

/// Asserts the bounded-delay invariant on a core's state after a step: no
/// pending message between correct processors (and non-omitted senders) has
/// reached its deadline `max(sent_at, gst) + delta` — the step at the
/// deadline delivers it — saturating: a deadline past `u64::MAX` never
/// arrives.
fn assert_no_overdue<P: Probe>(
    core: &ExecutionCore<P>,
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
                let deadline = sent.max(gst).saturating_add(delta);
                assert!(
                    deadline > now,
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
            let mut scheduler = Scheduler::PartialSync(&mut adversary);
            scheduler.start(&mut core);
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
    let builder = BenOrBuilder::new();
    let mut core = ExecutionCore::with_probe(cfg, inputs.clone(), &builder, 3, FullTrace::new());
    let mut adversary = Stonewall {
        gst: 0,
        delta: 4,
        omitted: vec![ProcessorId::new(0)],
        crash_victim: Some(ProcessorId::new(4)),
        step: 0,
    };
    let mut scheduler = Scheduler::PartialSync(&mut adversary);
    scheduler.start(&mut core);
    while !core.all_correct_decided() && core.time() < 2_000 {
        if !scheduler.step(&mut core) {
            break;
        }
    }
    let outcome = scheduler.outcome(&core);
    assert_eq!(
        outcome.metrics.crashes, 0,
        "the crash beyond the shared budget must be refused"
    );
    let logged = core.probe().trace().stored().iter();
    let logged = logged.filter(|event| matches!(event, TraceEvent::Violation { .. }));
    assert_eq!(logged.count(), 1, "the refused crash is logged once");
    assert!(
        outcome.crashed.iter().all(|&c| !c),
        "no processor may actually crash once omissions spent the budget"
    );
    assert!(outcome.all_correct_decided());
    assert!(outcome.is_correct(&inputs));
}

/// The same invariant under Bracha (broadcast-heavy: every payload is one
/// log entry shared by its `n` recipients) to cover the shared-payload
/// delivery path.
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
    let mut scheduler = Scheduler::PartialSync(&mut adversary);
    scheduler.start(&mut core);
    for _ in 0..2_000 {
        if core.all_correct_decided() || !scheduler.step(&mut core) {
            break;
        }
        assert_no_overdue(&core, gst, delta, &[], cfg.t());
    }
    assert!(core.all_correct_decided());
}

/// The partial-synchrony step with the bounded-delay enforcement as it was
/// before the per-lane bound: every step past GST polls the head of all `n²`
/// channels. Kept as the oracle [`Scheduler::PartialSync`] is compared with.
struct PollingOracle<'a> {
    adversary: &'a mut dyn PartialSyncAdversary,
}

impl PollingOracle<'_> {
    fn step(&mut self, core: &mut Traced) -> bool {
        if core.is_halted() {
            return false;
        }
        let action = core.with_view(|view| self.adversary.next_action(view));
        core.advance_step();
        let (n, t, now) = (core.config().n(), core.config().t(), core.time());
        let (gst, delta) = (self.adversary.gst(), self.adversary.delta().max(1));
        let mut omitted: Vec<ProcessorId> = self.adversary.omitted_senders().to_vec();
        omitted.truncate(t);
        for from in ProcessorId::all(n).filter(|from| now >= gst && !omitted.contains(from)) {
            for to in ProcessorId::all(n) {
                while let Some(sent) = core.buffer().head_sent_at(from, to) {
                    if core.is_crashed(to) || sent.max(gst).saturating_add(delta) > now {
                        break;
                    }
                    core.deliver_one(from, to);
                }
            }
        }
        omitted.sort();
        omitted.dedup();
        match action {
            PartialSyncAction::Deliver { from, to } => core.deliver_one(from, to),
            PartialSyncAction::Crash(id) if core.is_crashed(id) => {}
            PartialSyncAction::Crash(id) if omitted.len() + core.faults_used() >= t => {
                core.refuse(|| {
                    format!(
                        "partial-sync adversary attempted to crash {id} beyond the \
                         shared omission+crash budget t={t}; ignored"
                    )
                });
            }
            PartialSyncAction::Crash(id) => core.crash(id),
            PartialSyncAction::Stall => {}
            PartialSyncAction::Halt => core.halt(),
        }
        core.record_decision_progress();
        !core.is_halted()
    }
}

/// A cursor at a uniformly random channel of the `n × n` round robin: one
/// draw, as the channel index `from * n + to`.
fn random_cursor(rng: &mut ProcessorRng, n: u64) -> ChannelCursor {
    let channel = rng.range(n * n);
    let id = |i: u64| ProcessorId::new(i as usize);
    ChannelCursor::at(id(channel / n), id(channel % n))
}

/// A seeded mix of everything a partial-synchrony adversary may do: mostly
/// deliveries on channels that have something pending, some aimed anywhere
/// (empty channels, crashed recipients), stalls, crashes — within and beyond
/// the shared budget — and, late, the occasional halt.
struct RandomAdversary {
    rng: ProcessorRng,
    gst: u64,
    delta: u64,
    omitted: Vec<ProcessorId>,
}

impl PartialSyncAdversary for RandomAdversary {
    fn name(&self) -> &'static str {
        "random"
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
    fn next_action(&mut self, view: &SystemView<'_>) -> PartialSyncAction {
        let n = view.n() as u64;
        let any = |rng: &mut ProcessorRng| ProcessorId::new(rng.range(n) as usize);
        match self.rng.range(100) {
            0..=49 => match view.next_pending_channel(random_cursor(&mut self.rng, n)) {
                Some((_, from, to)) => PartialSyncAction::Deliver { from, to },
                None => PartialSyncAction::Stall,
            },
            50..=59 => PartialSyncAction::Deliver {
                from: any(&mut self.rng),
                to: any(&mut self.rng),
            },
            60..=95 => PartialSyncAction::Stall,
            96..=98 => PartialSyncAction::Crash(any(&mut self.rng)),
            _ if view.time > 150 => PartialSyncAction::Halt,
            _ => PartialSyncAction::Stall,
        }
    }
}

/// Starts `core` the way the partial-synchrony model does and drives it with
/// `step` to a decision, a halt or `max_steps`, calling `after_step` on the
/// core after every step; reports the outcome, with the model's chain
/// metric, and the trace.
fn run_stepwise(
    core: &mut Traced,
    mut step: impl FnMut(&mut Traced) -> bool,
    max_steps: u64,
    mut after_step: impl FnMut(&Traced),
) -> (RunOutcome, Trace) {
    core.ensure_started();
    core.flush_all_outboxes();
    core.record_decision_progress();
    while !core.all_correct_decided() && core.time() < max_steps && step(core) {
        after_step(core);
    }
    let outcome = core.outcome(core.chain_at_first_decision().unwrap_or(0));
    let trace = core.probe().trace();
    assert_eq!(trace.dropped(), 0, "the whole trace is compared");
    (outcome, trace.clone())
}

/// Runs one seeded trial of `builder` from evenly split inputs under the
/// scheduler and under the polling oracle, each driven by its own
/// `adversary()`, for at most 400 steps; asserts the bounded-delay invariant
/// after every step of the scheduler's run and that both runs trace and end
/// alike. Returns the scheduler's outcome.
fn run_against_the_oracle<A: PartialSyncAdversary>(
    cfg: SystemConfig,
    builder: &dyn ProtocolBuilder,
    seed: u64,
    adversary: impl Fn() -> A,
    what: &str,
) -> RunOutcome {
    let inputs = InputAssignment::evenly_split(cfg.n());
    let fresh = || ExecutionCore::with_probe(cfg, inputs.clone(), builder, seed, FullTrace::new());
    let mut real_adversary = adversary();
    let (gst, delta) = (real_adversary.gst(), real_adversary.delta());
    let omitted = real_adversary.omitted_senders().to_vec();
    let mut scheduler = Scheduler::PartialSync(&mut real_adversary);
    let (real, real_trace) = run_stepwise(
        &mut fresh(),
        |core| scheduler.step(core),
        400,
        |core| assert_no_overdue(core, gst, delta, &omitted, cfg.t()),
    );
    let mut oracle_adversary = adversary();
    let mut oracle = PollingOracle {
        adversary: &mut oracle_adversary,
    };
    let (polled, polled_trace) = run_stepwise(&mut fresh(), |core| oracle.step(core), 400, |_| {});
    assert_eq!(real_trace.stored(), polled_trace.stored(), "{what}");
    assert_eq!(real, polled, "{what}");
    real
}

/// Rounds of replies [`Echo`] exchanges before it falls silent.
const ECHO_ROUNDS: u64 = 6;

/// A protocol whose lanes carry index queues, where Ben-Or's and Bracha's
/// hold broadcasts only: it broadcasts a round-1 report and names its
/// successor in a unicast of the same report at start — so every lane has
/// named a recipient before the first step — then answers each report of a
/// round below [`ECHO_ROUNDS`] with the next round's report: a unicast to
/// the sender on odd rounds, a multicast to the sender and itself on even
/// ones. It decides its input once it has heard `n − t` round-1 reports.
/// Traffic for the enforcement, not an agreement protocol.
#[derive(Debug)]
struct Echo {
    id: ProcessorId,
    n: usize,
    quorum: usize,
    input: Bit,
    heard: usize,
}

impl Protocol for Echo {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        let report = Payload::Report {
            round: 1,
            value: self.input,
        };
        ctx.broadcast(report.clone());
        ctx.send(ProcessorId::new((self.id.index() + 1) % self.n), report);
    }

    fn on_message(&mut self, from: ProcessorId, payload: &Payload, ctx: &mut dyn Context) {
        let Payload::Report { round, value } = *payload else {
            return;
        };
        if round == 1 {
            self.heard += 1;
            if self.heard == self.quorum {
                ctx.decide(self.input);
            }
        }
        if round < ECHO_ROUNDS {
            let reply = Payload::Report {
                round: round + 1,
                value,
            };
            if round % 2 == 0 {
                ctx.multicast(&[from, self.id], reply);
            } else {
                ctx.send(from, reply);
            }
        }
    }

    fn digest(&self) -> StateDigest {
        StateDigest::initial(self.input)
    }
}

#[derive(Debug)]
struct EchoBuilder;

impl ProtocolBuilder for EchoBuilder {
    fn name(&self) -> &'static str {
        "echo"
    }

    fn build(&self, id: ProcessorId, input: Bit, cfg: &SystemConfig) -> Box<dyn Protocol> {
        Box::new(Echo {
            id,
            n: cfg.n(),
            quorum: cfg.quorum(),
            input,
            heard: 0,
        })
    }
}

/// The per-lane bound and the owed-channel list change which channels the
/// enforcement *looks at*, never what it delivers: against seeded random
/// adversaries, the scheduler and the all-channels polling oracle produce
/// the same trace, event for event, and the same outcome — with the
/// bounded-delay invariant checked after every step of the real scheduler.
///
/// A lane lists what it owes one of two ways: by its cursor row alone when
/// it never named a recipient, by each channel's merged FIFO when it did.
/// Ben-Or and Bracha only broadcast, so every lane of theirs takes the
/// first; [`Echo`] names a recipient at start, so every lane of its takes
/// the second. The test fails unless runs of both forced deliveries.
#[test]
fn bounded_delay_enforcement_matches_the_polling_oracle() {
    // With the path each builder's lanes take: cursor row (0) or merged
    // FIFO (1).
    let builders: [(&dyn ProtocolBuilder, usize); 3] = [
        (&BenOrBuilder::new(), 0),
        (&BrachaBuilder::new(), 0),
        (&EchoBuilder, 1),
    ];
    let id = ProcessorId::new;
    // Empty, duplicated, and longer than t (only the first t are honoured).
    let omitted_lists = [vec![], vec![id(2), id(2)], vec![id(0), id(1), id(2), id(3)]];
    let mut forced_runs = [0; 2];
    for (n, t) in [(4, 1), (5, 1), (7, 2)] {
        let cfg = SystemConfig::new(n, t).unwrap();
        for (b, &(builder, path)) in builders.iter().enumerate() {
            for (case, (gst, delta)) in [0, 5, 40]
                .into_iter()
                .flat_map(|gst| [1, 3, 8].map(|delta| (gst, delta)))
                .enumerate()
            {
                for (o, omitted) in omitted_lists.iter().enumerate() {
                    let seed = (n * 1_000 + b * 100 + case * 10 + o) as u64;
                    let adversary = || RandomAdversary {
                        rng: ProcessorRng::labelled(seed, 0x05AC1E),
                        gst,
                        delta,
                        omitted: omitted.clone(),
                    };
                    let what = format!(
                        "{} n={n} gst={gst} delta={delta} omitted={omitted:?} seed={seed}",
                        builder.name()
                    );
                    let real = run_against_the_oracle(cfg, builder, seed, adversary, &what);
                    // The adversary chooses at most one delivery a step.
                    if real.metrics.messages_delivered > real.metrics.steps {
                        forced_runs[path] += 1;
                    }
                }
            }
        }
    }
    // 162 runs take the cursor-row path, 81 the merged-FIFO one.
    let [by_cursor_row, by_merged_fifo] = forced_runs;
    assert!(
        by_cursor_row > 100 && by_merged_fifo > 50,
        "runs with a forced delivery: {by_cursor_row} of 162 by cursor row, \
         {by_merged_fifo} of 81 by merged FIFO"
    );
}

/// Delivers fairly, one message a step, under any GST and Δ: the benign
/// baseline with the model's parameters chosen by the test.
struct Eager {
    gst: u64,
    delta: u64,
    cursor: ChannelCursor,
}

impl PartialSyncAdversary for Eager {
    fn name(&self) -> &'static str {
        "eager"
    }
    fn gst(&self) -> u64 {
        self.gst
    }
    fn delta(&self) -> u64 {
        self.delta
    }
    fn next_action(&mut self, view: &SystemView<'_>) -> PartialSyncAction {
        match view.next_pending_channel(self.cursor) {
            Some((next, from, to)) => {
                self.cursor = next;
                PartialSyncAction::Deliver { from, to }
            }
            None => PartialSyncAction::Halt,
        }
    }
}

/// A Δ or a GST near `u64::MAX` is legal, and a deadline `max(s, gst) + Δ`
/// past `u64::MAX` never arrives: nothing is forced, and the scheduler
/// neither overflows (a debug build panics on it) nor wraps (a release
/// build would force messages whose deadline lies beyond the end of time).
/// Checked against the saturating oracle, under the random and the eager
/// fair adversary.
#[test]
fn deadlines_past_the_end_of_time_never_arrive() {
    let near_end = u64::MAX - 3;
    let cfg = SystemConfig::new(4, 1).unwrap();
    for (gst, delta) in [
        (0, u64::MAX),
        (5, near_end),
        (near_end, 8),
        (near_end, near_end),
    ] {
        for seed in 0..4u64 {
            let random = || RandomAdversary {
                rng: ProcessorRng::labelled(seed, 0xE4D),
                gst,
                delta,
                omitted: vec![],
            };
            let eager = || Eager {
                gst,
                delta,
                cursor: ChannelCursor::default(),
            };
            let what = format!("gst={gst} delta={delta} seed={seed}");
            let runs = [
                run_against_the_oracle(cfg, &BenOrBuilder::new(), seed, random, &what),
                run_against_the_oracle(cfg, &BenOrBuilder::new(), seed, eager, &what),
            ];
            for real in runs {
                let (delivered, steps) = (real.metrics.messages_delivered, real.metrics.steps);
                assert!(
                    delivered <= steps,
                    "{what}: {delivered} deliveries in {steps} steps, some of them forced"
                );
            }
        }
    }
}

/// Delivers fairly, one message a step, but on the channel `0 -> 1` only
/// while a newer message waits behind the head: lane 0 always keeps one
/// message pending, so its log never recycles.
struct LaggingChannel {
    gst: u64,
    delta: u64,
    cursor: ChannelCursor,
}

impl PartialSyncAdversary for LaggingChannel {
    fn name(&self) -> &'static str {
        "lagging-channel"
    }
    fn gst(&self) -> u64 {
        self.gst
    }
    fn delta(&self) -> u64 {
        self.delta
    }
    fn omitted_senders(&self) -> &[ProcessorId] {
        &[]
    }
    fn next_action(&mut self, view: &SystemView<'_>) -> PartialSyncAction {
        let lagging = (ProcessorId::new(0), ProcessorId::new(1));
        let hit = view.next_pending_channel_where(self.cursor, |from, to| {
            (from, to) != lagging || view.buffer.pending_on(from, to) >= 2
        });
        match hit {
            Some((next, from, to)) => {
                self.cursor = next;
                PartialSyncAction::Deliver { from, to }
            }
            None => PartialSyncAction::Stall,
        }
    }
}

/// A stale bound only costs a scan. Under [`LaggingChannel`] sender 0 keeps
/// sending while one of its channels is never emptied, so the lane's bound
/// stays at the stamp of its very first send: long after that stamp's
/// deadline the scheduler still visits the lane every step, finds every
/// head inside its own deadline, and delivers exactly what the oracle does.
#[test]
fn a_lane_that_never_drains_only_costs_the_enforcement_a_scan() {
    let (n, gst, delta) = (4, 10, 30);
    let cfg = SystemConfig::new(n, 1).unwrap();
    let lane = ProcessorId::new(0);
    for seed in 0..8u64 {
        let fresh = || {
            ExecutionCore::with_probe(
                cfg,
                InputAssignment::evenly_split(n),
                &BenOrBuilder::new(),
                seed,
                FullTrace::new(),
            )
        };
        let adversary = || LaggingChannel {
            gst,
            delta,
            cursor: ChannelCursor::default(),
        };
        let mut stale_steps = 0;
        let mut real_adversary = adversary();
        let mut scheduler = Scheduler::PartialSync(&mut real_adversary);
        let (real, real_trace) = run_stepwise(
            &mut fresh(),
            |core| scheduler.step(core),
            2_000,
            |core| {
                assert_no_overdue(core, gst, delta, &[], cfg.t());
                // The bound says "maybe overdue" although (by the assertion
                // above) nothing of the lane is: it has gone stale.
                let bound = core.buffer().pending_since(lane);
                if bound.is_some_and(|oldest| oldest.max(gst) + delta < core.time()) {
                    stale_steps += 1;
                }
            },
        );
        let mut oracle_adversary = adversary();
        let mut oracle = PollingOracle {
            adversary: &mut oracle_adversary,
        };
        let (polled, polled_trace) =
            run_stepwise(&mut fresh(), |core| oracle.step(core), 2_000, |_| {});
        assert_eq!(real_trace.stored(), polled_trace.stored(), "seed {seed}");
        assert_eq!(real, polled, "seed {seed}");
        assert!(real.all_correct_decided(), "seed {seed}");
        assert!(
            stale_steps >= 20,
            "seed {seed}: the bound was stale for {stale_steps} steps only"
        );
    }
}

/// The registry's partial-synchrony family stays rich, its reports name
/// their model, and Ben-Or decides under the procrastinator.
#[test]
fn the_registered_procrastinator_cannot_stop_ben_or() {
    let specs = partial_sync_scenarios(Scale::Quick);
    assert!(specs.len() >= 6, "the partial-sync family must stay rich");
    let spec = specs
        .iter()
        .find(|s| s.adversary == "gst-procrastinator" && s.protocol.label() == "ben-or")
        .expect("registry carries ben-or under the procrastinator");
    let report = spec.run_on(&Campaign::serial()).unwrap();
    assert_eq!(report.meta.model, "partial-sync");
    assert_eq!(report.aggregate.termination_rate, 1.0);
    assert_eq!(report.aggregate.agreement_rate, 1.0);
}
