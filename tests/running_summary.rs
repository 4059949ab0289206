//! The running summary against the rescans it replaced.
//!
//! An execution core books agreement, validity, termination and the decided
//! value as decisions are written, and a trial's outcome reads them off that
//! summary instead of passing over every processor. This file keeps the
//! passes as the reference: at the end of every trial of every
//! quick-registry row, plus rows of a deliberately contrary protocol that
//! decides against its input, decides twice and flips coins (under crashes
//! and resets, on unanimous and split inputs), the outcome the campaign path
//! returns — one [`TrialWorkspace`] carried through every row — must equal
//! what the rescans compute:
//!
//! * agreement, validity, the decided value and termination, from the
//!   outcome's `decisions` and `crashed` arrays and the inputs;
//! * the violations, from the same arrays and the conflicting decisions a
//!   wrapper around every protocol instance saw attempted;
//! * the coin flips the wrapper counted, and the longest chain a probe saw
//!   delivered, against the outcome's metrics;
//! * the record [`TrialRecord::from_outcome`] distills, field by field.
//!
//! The rows must between them show crashes, resets, coin flips, validity
//! violations, disagreement and conflicting decisions, or the test fails.

use agreement::adversary::{AdversaryBuildCtx, RotatingResetAdversary, ScheduledCrashAdversary};
use agreement::core::experiments::Scale;
use agreement::core::{scenario_registry, ProtocolInstance, TrialRecord};
use agreement::model::{
    Bit, Context, InputAssignment, ModelError, Payload, ProcessorId, Protocol, ProtocolBuilder,
    StateDigest, SystemConfig,
};
use agreement::sim::{
    BuiltAdversary, ExecutionCore, FairAsyncAdversary, FullDeliveryAdversary, Probe, RunLimits,
    RunOutcome, TrialWorkspace,
};
use std::sync::{Arc, Mutex};

/// At most this many trials of a registry row are run.
const REGISTRY_TRIALS: u64 = 4;

/// What the wrapped instances of one trial saw: coin flips drawn and
/// conflicting decisions attempted, in the harness's wording.
#[derive(Debug, Default)]
struct Seen {
    coin_flips: u64,
    conflicts: Vec<(ProcessorId, String)>,
}

/// A context that forwards every call and tells `seen` about coin flips
/// and conflicting decisions.
struct Watching<'a> {
    inner: &'a mut dyn Context,
    seen: &'a Mutex<Seen>,
}

impl Context for Watching<'_> {
    fn id(&self) -> ProcessorId {
        self.inner.id()
    }
    fn config(&self) -> SystemConfig {
        self.inner.config()
    }
    fn input(&self) -> Bit {
        self.inner.input()
    }
    fn send(&mut self, to: ProcessorId, payload: Payload) {
        self.inner.send(to, payload);
    }
    fn broadcast(&mut self, payload: Payload) {
        self.inner.broadcast(payload);
    }
    fn multicast(&mut self, recipients: &[ProcessorId], payload: Payload) {
        self.inner.multicast(recipients, payload);
    }
    fn random_bit(&mut self) -> Bit {
        self.seen.lock().unwrap().coin_flips += 1;
        self.inner.random_bit()
    }
    fn decide(&mut self, value: Bit) {
        if let Some(existing) = self.inner.decision().filter(|&existing| existing != value) {
            let id = self.inner.id();
            let err = ModelError::ConflictingDecision {
                existing,
                attempted: value,
            };
            self.seen
                .lock()
                .unwrap()
                .conflicts
                .push((id, format!("{id}: {err}")));
        }
        self.inner.decide(value);
    }
    fn decision(&self) -> Option<Bit> {
        self.inner.decision()
    }
}

/// A protocol instance behind the watching context.
#[derive(Debug)]
struct Watched {
    inner: Box<dyn Protocol>,
    seen: Arc<Mutex<Seen>>,
}

impl Protocol for Watched {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        let seen = &self.seen;
        self.inner.on_start(&mut Watching { inner: ctx, seen });
    }
    fn on_message(&mut self, from: ProcessorId, payload: &Payload, ctx: &mut dyn Context) {
        let seen = &self.seen;
        self.inner
            .on_message(from, payload, &mut Watching { inner: ctx, seen });
    }
    fn on_reset(&mut self, ctx: &mut dyn Context) {
        let seen = &self.seen;
        self.inner.on_reset(&mut Watching { inner: ctx, seen });
    }
    fn digest(&self) -> StateDigest {
        self.inner.digest()
    }
}

#[derive(Debug)]
struct WatchedBuilder<'a> {
    inner: &'a dyn ProtocolBuilder,
    seen: Arc<Mutex<Seen>>,
}

impl ProtocolBuilder for WatchedBuilder<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn build(&self, id: ProcessorId, input: Bit, cfg: &SystemConfig) -> Box<dyn Protocol> {
        Box::new(Watched {
            inner: self.inner.build(id, input, cfg),
            seen: Arc::clone(&self.seen),
        })
    }
}

/// The longest causal chain any delivery carried.
#[derive(Debug, Default)]
struct LongestChain(u64);

impl Probe for LongestChain {
    fn on_deliver(&mut self, _from: ProcessorId, _to: ProcessorId, chain: u64) {
        self.0 = self.0.max(chain);
    }
}

/// Broadcasts its input, decides against it at the start if its identity
/// is odd, and decides a coin flip on every third message: disagreement,
/// validity violations, conflicting decisions and coin flips, in one
/// protocol.
#[derive(Debug)]
struct Contrary {
    heard: u64,
}

impl Protocol for Contrary {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        let input = ctx.input();
        if ctx.id().index() % 2 == 1 {
            ctx.decide(!input);
        }
        ctx.broadcast(Payload::Report {
            round: 1,
            value: input,
        });
    }

    fn on_message(&mut self, _from: ProcessorId, _payload: &Payload, ctx: &mut dyn Context) {
        self.heard += 1;
        if self.heard.is_multiple_of(3) {
            let value = ctx.random_bit();
            ctx.decide(value);
        }
    }

    fn on_reset(&mut self, _ctx: &mut dyn Context) {
        self.heard = 0;
    }

    fn digest(&self) -> StateDigest {
        StateDigest {
            round: Some(self.heard / 3 + 1),
            estimate: None,
            phase: "contrary",
        }
    }
}

#[derive(Debug)]
struct ContraryBuilder;

impl ProtocolBuilder for ContraryBuilder {
    fn name(&self) -> &'static str {
        "contrary"
    }
    fn build(&self, _id: ProcessorId, _input: Bit, _cfg: &SystemConfig) -> Box<dyn Protocol> {
        Box::new(Contrary { heard: 0 })
    }
}

/// Builds a trial's adversary from its seed.
type MakeAdversary = Box<dyn Fn(u64) -> BuiltAdversary>;

/// One row: a workload resolved down to what its trials need.
struct Row {
    id: String,
    cfg: SystemConfig,
    builder: Box<dyn ProtocolBuilder>,
    adversary: MakeAdversary,
    limits: RunLimits,
    base_seed: u64,
    trials: u64,
    inputs: InputAssignment,
}

fn registry_rows() -> Vec<Row> {
    scenario_registry(Scale::Quick)
        .into_iter()
        .map(|spec| {
            let cfg = spec
                .config()
                .expect("the registry's configurations resolve");
            let ProtocolInstance { builder, committee } = spec
                .protocol
                .instantiate(&cfg)
                .expect("its protocols resolve");
            let factory = spec.factory().expect("its adversaries are registered");
            let targets = spec.targets.clone().unwrap_or(committee);
            Row {
                id: spec.id(),
                cfg,
                builder,
                adversary: Box::new(move |seed| {
                    factory.build(&AdversaryBuildCtx::new(cfg, seed).with_targets(targets.clone()))
                }),
                limits: spec.limits,
                base_seed: spec.base_seed,
                trials: spec.trials.min(REGISTRY_TRIALS),
                inputs: spec.inputs.materialize(spec.n),
            }
        })
        .collect()
}

/// The contrary protocol on unanimous and split inputs, under a windowed
/// full-delivery adversary, a resetting one, a fair asynchronous one and a
/// crashing one.
fn contrary_rows() -> Vec<Row> {
    let cfg = SystemConfig::new(7, 2).unwrap();
    let mut rows = Vec::new();
    for (name, inputs) in [
        ("unanimous-1", InputAssignment::unanimous(7, Bit::One)),
        ("unanimous-0", InputAssignment::unanimous(7, Bit::Zero)),
        ("split", InputAssignment::evenly_split(7)),
    ] {
        let adversaries: [(&str, MakeAdversary); 4] = [
            (
                "full-delivery",
                Box::new(|_| BuiltAdversary::windowed(Box::new(FullDeliveryAdversary))),
            ),
            (
                "rotating-reset",
                Box::new(|_| BuiltAdversary::windowed(Box::new(RotatingResetAdversary::new()))),
            ),
            (
                "fair-async",
                Box::new(|_| BuiltAdversary::asynchronous(Box::new(FairAsyncAdversary::default()))),
            ),
            (
                "scheduled-crash",
                Box::new(|seed| {
                    let victims = vec![ProcessorId::new((seed % 7) as usize), ProcessorId::new(1)];
                    BuiltAdversary::asynchronous(Box::new(ScheduledCrashAdversary::new(victims)))
                }),
            ),
        ];
        for (adversary_name, adversary) in adversaries {
            rows.push(Row {
                id: format!("contrary/{adversary_name}/{name}"),
                cfg,
                builder: Box::new(ContraryBuilder),
                adversary,
                limits: RunLimits::windows(6),
                base_seed: 40,
                trials: 3,
                inputs: inputs.clone(),
            });
        }
    }
    rows
}

/// What the rescans say a trial's outcome must read.
#[derive(Debug, PartialEq)]
struct Reference {
    agreement: bool,
    validity: bool,
    decided: Option<Bit>,
    all_correct_decided: bool,
    any_decided: bool,
    violations: Vec<String>,
    coin_flips: u64,
    max_chain: u64,
}

impl Reference {
    /// The passes over the processors the outcome used to make, over a
    /// traced run's decisions, crash flags, conflicting decisions, coin
    /// flips and longest delivered chain.
    fn rescan(
        outcome: &RunOutcome,
        inputs: &InputAssignment,
        seen: &Seen,
        longest_chain: u64,
    ) -> Self {
        let decided: Vec<Bit> = outcome.decisions.iter().flatten().copied().collect();
        let agreement = decided.windows(2).all(|pair| pair[0] == pair[1]);
        let mut conflicts: Vec<&(ProcessorId, String)> = seen.conflicts.iter().collect();
        conflicts.sort_by_key(|(id, _)| *id);
        let mut violations: Vec<String> = conflicts.into_iter().map(|(_, v)| v.clone()).collect();
        if let Some(unanimous) = inputs.unanimous_value() {
            for (i, decision) in outcome.decisions.iter().enumerate() {
                if let Some(decision) = decision.filter(|&d| d != unanimous) {
                    let id = ProcessorId::new(i);
                    violations.push(format!(
                        "{id} decided {decision} although every input is {unanimous}"
                    ));
                }
            }
        }
        if !agreement {
            violations.push("processors decided conflicting values".to_string());
        }
        Reference {
            agreement,
            validity: decided.iter().all(|&d| inputs.iter().any(|i| i == d)),
            decided: decided.first().copied().filter(|_| agreement),
            all_correct_decided: outcome
                .decisions
                .iter()
                .zip(&outcome.crashed)
                .all(|(d, &crashed)| crashed || d.is_some()),
            any_decided: !decided.is_empty(),
            violations,
            coin_flips: seen.coin_flips,
            max_chain: longest_chain,
        }
    }

    /// What `outcome` reads for the same questions.
    fn read(outcome: &RunOutcome, inputs: &InputAssignment) -> Self {
        Reference {
            agreement: outcome.agreement_holds(),
            validity: outcome.validity_holds(inputs),
            decided: outcome.decided_value(),
            all_correct_decided: outcome.all_correct_decided(),
            any_decided: outcome.any_decided(),
            violations: outcome.violations.clone(),
            coin_flips: outcome.metrics.coin_flips,
            max_chain: outcome.metrics.max_chain,
        }
    }
}

/// Which kinds of event the rows showed, so a row table that stops
/// exercising one fails loudly.
#[derive(Debug, Default)]
struct Coverage {
    crashes: bool,
    resets: bool,
    coin_flips: bool,
    invalid: bool,
    disagreement: bool,
    conflicting_decisions: bool,
    undecided: bool,
}

#[test]
fn the_running_summary_equals_the_rescans_at_the_end_of_every_trial() {
    let mut workspace = TrialWorkspace::new();
    let mut coverage = Coverage::default();
    let mut checked = 0;
    for row in registry_rows().into_iter().chain(contrary_rows()) {
        for trial in 0..row.trials {
            let seed = row.base_seed.wrapping_add(trial);
            let context = format!("{} trial {trial}", row.id);
            // The campaign path: the trial in the one workspace every row
            // shares, with the row's own builder.
            let pooled = workspace.run_built(
                row.cfg,
                &row.inputs,
                row.builder.as_ref(),
                &mut (row.adversary)(seed),
                seed,
                row.limits,
            );
            // The reference: the same trial on a fresh core, every instance
            // watched and every delivery probed.
            let seen = Arc::new(Mutex::new(Seen::default()));
            let watched = WatchedBuilder {
                inner: row.builder.as_ref(),
                seen: Arc::clone(&seen),
            };
            let mut core = ExecutionCore::with_probe(
                row.cfg,
                row.inputs.clone(),
                &watched,
                seed,
                LongestChain::default(),
            );
            let traced = (row.adversary)(seed).run(&mut core, row.limits);
            assert_eq!(traced.decisions, pooled.decisions, "{context}");
            assert_eq!(traced.crashed, pooled.crashed, "{context}");
            let seen = seen.lock().unwrap();
            let expected = Reference::rescan(&traced, &row.inputs, &seen, core.probe().0);
            assert_eq!(Reference::read(&pooled, &row.inputs), expected, "{context}");
            assert_eq!(Reference::read(&traced, &row.inputs), expected, "{context}");
            let record = TrialRecord::from_outcome(trial, seed, &pooled, &row.inputs);
            assert_eq!(
                (
                    record.agreement,
                    record.validity,
                    record.terminated,
                    record.violations,
                    record.decided
                ),
                (
                    expected.agreement,
                    expected.validity,
                    expected.all_correct_decided,
                    expected.violations.len() as u64,
                    expected.decided
                ),
                "{context}"
            );
            coverage.crashes |= pooled.crashed.contains(&true);
            coverage.resets |= pooled.metrics.resets_consumed > 0;
            coverage.coin_flips |= seen.coin_flips > 0;
            coverage.invalid |= !expected.validity;
            coverage.disagreement |= !expected.agreement;
            coverage.conflicting_decisions |= !seen.conflicts.is_empty();
            coverage.undecided |= !expected.all_correct_decided;
            checked += 1;
        }
    }
    assert!(checked > 100, "only {checked} trials checked");
    assert!(
        matches!(
            coverage,
            Coverage {
                crashes: true,
                resets: true,
                coin_flips: true,
                invalid: true,
                disagreement: true,
                conflicting_decisions: true,
                undecided: true,
            }
        ),
        "the rows stopped exercising something: {coverage:?}"
    );
}
