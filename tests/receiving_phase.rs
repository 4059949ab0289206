//! A window's two forms are one execution.
//!
//! An `R, S, S, …, S` window can be stored as one shared set
//! ([`Window::end_shared_set`]) or as `n` per-recipient copies of it
//! ([`Window::copy_set`]), and `==` already treats the two as the same
//! window. The execution core takes them down different receiving phases:
//! a shared set lends each listed lane's broadcasts to every recipient and
//! settles the lane once, per-recipient sets drain channel by channel. This
//! file runs every trial with each window re-laid in each form — an
//! adversary wrapper forwards the inner adversary's window shared whenever
//! its sets are all equal, or as per-recipient copies always — and requires
//! event-for-event equal traces, equal outcomes and metrics, and a buffer
//! whose lanes check out ([`MessageBuffer::check_lanes`]) after every
//! window.
//!
//! The rows are every windowed quick-registry scenario, plus a protocol that
//! also unicasts and multicasts — so that a shared window meets lanes with
//! index queues, which it drains channel by channel beside the lent ones —
//! under schedules that crash recipients between windows as well as
//! resetting them.
//!
//! [`MessageBuffer::check_lanes`]: agreement::sim::MessageBuffer::check_lanes

use agreement::adversary::{AdversaryBuildCtx, RotatingResetAdversary, SplitVoteAdversary};
use agreement::core::experiments::Scale;
use agreement::core::{scenario_registry, ProtocolInstance};
use agreement::model::{
    Bit, Context, InputAssignment, Payload, ProcessorId, Protocol, ProtocolBuilder, StateDigest,
    SystemConfig,
};
use agreement::protocols::ResetTolerantBuilder;
use agreement::sim::{
    BuiltAdversary, ExecutionCore, FullTrace, RunLimits, RunOutcome, Scheduler, SystemView, Window,
    WindowAdversary,
};

/// At most this many trials of a registry row are run in each form.
const TRIALS: u64 = 2;

/// Every trial stops after this many windows, decided or not.
const WINDOW_CAP: u64 = 400;

/// Builds a fresh window adversary for one run.
type MakeAdversary<'a> = &'a dyn Fn() -> Box<dyn WindowAdversary>;

/// How a [`Relay`] re-lays the windows it forwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    /// One shared set whenever every recipient's set is the same.
    Shared,
    /// One set per recipient, always.
    PerRecipient,
}

/// Forwards an inner adversary's windows in one [`Form`], counting the
/// ones it forwards shared.
struct Relay {
    inner: Box<dyn WindowAdversary>,
    form: Form,
    shared: u64,
}

impl WindowAdversary for Relay {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_window(&mut self, view: &SystemView<'_>) -> Window {
        let window = relay(&self.inner.next_window(view), self.form);
        self.shared += u64::from(window.shared_set().is_some());
        window
    }
}

/// `window` re-laid in `form`: the same resets and, recipient by recipient,
/// the same senders in the same order.
fn relay(window: &Window, form: Form) -> Window {
    let arity = window.arity();
    let mut relaid = Window::default();
    for &id in window.resets() {
        relaid.push_reset(id);
    }
    let first = window.delivery_set(0);
    let uniform = (1..arity).all(|i| window.delivery_set(i) == first);
    for &sender in first {
        relaid.push_sender(sender);
    }
    if form == Form::Shared && uniform {
        relaid.end_shared_set(arity);
    } else if uniform {
        relaid.end_set();
        (1..arity).for_each(|_| relaid.copy_set(0));
    } else {
        relaid.end_set();
        for i in 1..arity {
            window
                .delivery_set(i)
                .iter()
                .for_each(|&s| relaid.push_sender(s));
            relaid.end_set();
        }
    }
    assert!(relaid == *window, "a re-laid window is the same window");
    assert_eq!(
        relaid.shared_set().is_some(),
        form == Form::Shared && uniform
    );
    relaid
}

/// What one run left behind: its outcome, its trace and how many of its
/// windows were shared.
struct Run {
    outcome: RunOutcome,
    trace: FullTrace,
    shared: u64,
}

/// Runs one trial with every window re-laid in `form`, crashing each
/// `(window, id)` of `crashes` just before that window, and checking the
/// lanes after every window.
fn run(
    cfg: SystemConfig,
    inputs: &InputAssignment,
    builder: &dyn ProtocolBuilder,
    inner: Box<dyn WindowAdversary>,
    seed: u64,
    form: Form,
    crashes: &[(u64, usize)],
) -> Run {
    let mut core = ExecutionCore::with_probe(cfg, inputs.clone(), builder, seed, FullTrace::new());
    let mut relay = Relay {
        inner,
        form,
        shared: 0,
    };
    let mut scheduler = Scheduler::Windowed(&mut relay);
    let cap = scheduler.model().time_cap(&RunLimits::windows(WINDOW_CAP));
    scheduler.start(&mut core);
    while !core.all_correct_decided() && core.time() < cap {
        let now = core.time();
        for &(_, id) in crashes.iter().filter(|&&(at, _)| at == now) {
            core.crash(ProcessorId::new(id));
        }
        scheduler.step(&mut core);
        if let Err(broken) = core.buffer().check_lanes() {
            panic!("{form:?}, after window {}: {broken}", core.time());
        }
    }
    let outcome = scheduler.outcome(&core);
    Run {
        outcome,
        trace: core.probe().clone(),
        shared: relay.shared,
    }
}

/// Runs a trial in both forms and requires one execution. Returns how many
/// of its windows the shared form applied shared.
fn assert_one_execution(
    label: &str,
    cfg: SystemConfig,
    inputs: &InputAssignment,
    builder: &dyn ProtocolBuilder,
    adversary: MakeAdversary<'_>,
    seed: u64,
    crashes: &[(u64, usize)],
) -> u64 {
    let shared = run(
        cfg,
        inputs,
        builder,
        adversary(),
        seed,
        Form::Shared,
        crashes,
    );
    let copies = run(
        cfg,
        inputs,
        builder,
        adversary(),
        seed,
        Form::PerRecipient,
        crashes,
    );
    assert_eq!(copies.shared, 0, "{label}: copies are never shared");
    assert!(
        shared.trace.trace().total_events() > 0,
        "{label}: the trace is kept"
    );
    assert_eq!(
        shared.trace.trace(),
        copies.trace.trace(),
        "{label}: the traces differ"
    );
    assert_eq!(
        shared.outcome, copies.outcome,
        "{label}: the outcomes differ"
    );
    assert_eq!(
        shared.outcome.metrics, copies.outcome.metrics,
        "{label}: the metrics differ"
    );
    shared.shared
}

/// The windowed adversary of a built one, if it is windowed.
fn windowed(built: BuiltAdversary) -> Option<Box<dyn WindowAdversary>> {
    match built {
        BuiltAdversary::Windowed(adversary) => Some(adversary),
        _ => None,
    }
}

#[test]
fn every_windowed_registry_row_is_one_execution_in_either_form() {
    let mut rows = 0;
    let mut shared = 0;
    for spec in scenario_registry(Scale::Quick) {
        let cfg = spec
            .config()
            .expect("the registry's configurations resolve");
        let factory = spec.factory().expect("its adversaries are registered");
        let ProtocolInstance { builder, committee } = spec
            .protocol
            .instantiate(&cfg)
            .expect("its protocols resolve");
        let targets = spec.targets.clone().unwrap_or(committee);
        let build = |seed: u64| {
            factory.build(&AdversaryBuildCtx::new(cfg, seed).with_targets(targets.clone()))
        };
        if windowed(build(spec.base_seed)).is_none() {
            continue;
        }
        rows += 1;
        let inputs = spec.inputs.materialize(spec.n);
        for trial in 0..spec.trials.min(TRIALS) {
            let seed = spec.base_seed.wrapping_add(trial);
            let adversary = || windowed(build(seed)).expect("windowed");
            let label = format!("{} trial {trial}", spec.id());
            shared += assert_one_execution(
                &label,
                cfg,
                &inputs,
                builder.as_ref(),
                &adversary,
                seed,
                &[],
            );
        }
    }
    assert!(rows >= 5, "only {rows} windowed registry rows");
    assert!(shared > 0, "no registry window was applied shared");
}

/// Broadcasts its round reports like the Section 3 protocol, and also sends
/// each one to its successor alone and to a two-processor set, so that every
/// lane of a window holds index queues beside its broadcasts. Decides on the
/// majority it sees once it has heard from `n − t` processors in round 4.
#[derive(Debug)]
struct Chatter {
    id: usize,
    n: usize,
    t: usize,
    round: u64,
    estimate: Bit,
    heard: Vec<(u64, Bit)>,
}

impl Chatter {
    fn send_round(&self, ctx: &mut dyn Context) {
        let report = Payload::Report {
            round: self.round,
            value: self.estimate,
        };
        ctx.broadcast(report.clone());
        ctx.send(ProcessorId::new((self.id + 1) % self.n), report.clone());
        let set = [
            ProcessorId::new((self.id + 2) % self.n),
            ProcessorId::new(self.id),
        ];
        ctx.multicast(&set, report);
    }
}

impl Protocol for Chatter {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.send_round(ctx);
    }

    fn on_message(&mut self, _from: ProcessorId, payload: &Payload, ctx: &mut dyn Context) {
        let Payload::Report { round, value } = *payload else {
            return;
        };
        if round != self.round {
            return;
        }
        self.heard.push((round, value));
        if self.heard.len() < self.n - self.t {
            return;
        }
        let ones = self.heard.iter().filter(|&&(_, v)| v == Bit::One).count();
        self.estimate = match (2 * ones).cmp(&self.heard.len()) {
            std::cmp::Ordering::Greater => Bit::One,
            std::cmp::Ordering::Less => Bit::Zero,
            std::cmp::Ordering::Equal => ctx.random_bit(),
        };
        if self.round == 4 {
            ctx.decide(self.estimate);
        }
        self.heard.clear();
        self.round += 1;
        self.send_round(ctx);
    }

    fn on_reset(&mut self, ctx: &mut dyn Context) {
        self.round = 1;
        self.estimate = ctx.input();
        self.heard.clear();
        self.send_round(ctx);
    }

    fn digest(&self) -> StateDigest {
        StateDigest {
            round: Some(self.round),
            estimate: Some(self.estimate),
            phase: "chatter",
        }
    }
}

#[derive(Debug)]
struct ChatterBuilder;

impl ProtocolBuilder for ChatterBuilder {
    fn name(&self) -> &'static str {
        "chatter"
    }

    fn build(&self, id: ProcessorId, input: Bit, cfg: &SystemConfig) -> Box<dyn Protocol> {
        Box::new(Chatter {
            id: id.index(),
            n: cfg.n(),
            t: cfg.t(),
            round: 1,
            estimate: input,
            heard: Vec::new(),
        })
    }
}

#[test]
fn crashed_and_reset_recipients_and_index_queues_are_one_execution_in_either_form() {
    let cfg = SystemConfig::with_sixth_resilience(13).unwrap();
    let reset_tolerant = ResetTolerantBuilder::recommended(&cfg).unwrap();
    let split = InputAssignment::evenly_split(13);
    // Crashes between windows, within the budget t = 2: one before the first
    // window, one mid-run; the resetting adversaries reset others (and may
    // reset the crashed ones, which counts and does nothing else).
    let crashes = [(0, 3), (2, 8)];
    let builders: [(&str, &dyn ProtocolBuilder); 2] = [
        ("reset-tolerant", &reset_tolerant),
        ("chatter", &ChatterBuilder),
    ];
    let adversaries: [(&str, MakeAdversary<'_>); 2] = [
        ("split-vote", &|| Box::new(SplitVoteAdversary::new())),
        (
            "rotating-reset",
            &|| Box::new(RotatingResetAdversary::new()),
        ),
    ];
    for (protocol, builder) in builders {
        for (name, adversary) in adversaries {
            for seed in 0..3 {
                for crashes in [&crashes[..0], &crashes[..]] {
                    let label = format!("{protocol}/{name} seed {seed}, crashes {crashes:?}");
                    let shared = assert_one_execution(
                        &label, cfg, &split, builder, adversary, seed, crashes,
                    );
                    assert!(shared > 0, "{label}: no window was applied shared");
                }
            }
        }
    }
}
