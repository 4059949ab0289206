//! One equivalence oracle: a seeded trial is the same execution however it
//! is run.
//!
//! Every number this repository prints rests on that invariant, so it is
//! pinned once, over one table. The rows are every quick-registry scenario,
//! resolved from its public fields the way `ScenarioSpec::run_single_with`
//! resolves it, plus seeded random-input rows for each execution model
//! (random inputs and crash victims, `CASES` trials each). Every row goes
//! through two checks:
//!
//! (a) **fresh vs pooled** — each trial of each row runs on a fresh
//!     trace-keeping core (`ExecutionCore::new` + `BuiltAdversary::run`) and
//!     in one `NoTrace` [`TrialWorkspace`] carried through *every* row in
//!     order, so between rows it changes `n` (4 to 10 000), the model and the
//!     protocol. The two outcomes must be equal field for field, the trace
//!     excepted. That one comparison covers determinism, trace gating and
//!     workspace reuse.
//! (b) **thread counts** — each fixed-input row of more than one trial runs
//!     as a campaign serially, whose records must equal those distilled from
//!     the fresh cores of (a), and on every thread count in `THREADS`, whose
//!     records, rendered JSON report and JSONL stream must equal the serial
//!     campaign's. (A campaign of one trial runs on one worker whatever its
//!     thread count.)
//!
//! Trace *contents* are not compared run against run here; per model,
//! `tests/exec_properties.rs` compares two traced runs of each model
//! (`stepwise_and_run_produce_identical_outcomes`).
//!
//! The file also drives one workspace back and forth between protocol
//! builders whose instances must not be taken for each other's
//! ([`one_workspace_through_every_protocol_matches_fresh_cores`]).

use std::sync::mpsc::sync_channel;

use agreement::adversary::{
    AdversaryBuildCtx, GstProcrastinatorAdversary, RotatingResetAdversary, ScheduledCrashAdversary,
    SplitVoteAdversary,
};
use agreement::analysis::fnv1a_64;
use agreement::core::experiments::Scale;
use agreement::core::{
    scenario_registry, stream_records, Campaign, JsonReportSink, JsonlSink, ProtocolInstance,
    ProtocolSpec, ReportSink, ScenarioMeta, TrialPlan, TrialRecord,
};
use agreement::model::{
    InputAssignment, ProcessorId, ProcessorRng, ProtocolBuilder, SystemConfig, Thresholds, Trace,
};
use agreement::protocols::{BenOrBuilder, BrachaBuilder, ResetTolerantBuilder};
use agreement::sim::{
    run_async, run_partial_sync, run_windowed, BuiltAdversary, ExecutionCore, FairAsyncAdversary,
    RunLimits, RunOutcome, TrialWorkspace,
};

/// Trials of each seeded random-input row.
const CASES: u64 = 12;

/// At most this many trials of a registry row are run.
const REGISTRY_TRIALS: u64 = 8;

/// Every thread count a campaign is compared with the serial one at; 0
/// means one worker per core.
const THREADS: [usize; 7] = [2, 3, 4, 7, 8, 16, 0];

/// The trace is the one field the trace-free path legitimately lacks.
fn strip_trace(mut outcome: RunOutcome) -> RunOutcome {
    outcome.trace = Trace::new();
    outcome
}

/// One row of the table: a workload resolved down to what its trials need.
struct Row {
    id: String,
    cfg: SystemConfig,
    builder: Box<dyn ProtocolBuilder>,
    adversary: Box<dyn Fn(u64) -> BuiltAdversary + Sync>,
    limits: RunLimits,
    /// Trial `i` is seeded `base_seed + i`.
    base_seed: u64,
    /// Trial `i` runs on `inputs[i]`.
    inputs: Vec<InputAssignment>,
}

impl Row {
    fn seed(&self, trial: u64) -> u64 {
        self.base_seed.wrapping_add(trial)
    }

    fn trials(&self) -> impl Iterator<Item = u64> {
        0..self.inputs.len() as u64
    }

    /// Trial `trial` on a fresh trace-keeping core, its trace checked
    /// non-empty and then dropped.
    fn fresh(&self, trial: u64) -> RunOutcome {
        let seed = self.seed(trial);
        let inputs = self.inputs[trial as usize].clone();
        let mut core = ExecutionCore::new(self.cfg, inputs, self.builder.as_ref(), seed);
        let outcome = (self.adversary)(seed).run(&mut core, self.limits);
        assert!(
            outcome.trace.total_events() > 0,
            "{} trial {trial}: the diagnostic path keeps its trace",
            self.id
        );
        strip_trace(outcome)
    }

    /// Trial `trial` in `workspace`, trace-free.
    fn pooled(&self, workspace: &mut TrialWorkspace, trial: u64) -> RunOutcome {
        let seed = self.seed(trial);
        let outcome = workspace.run_built(
            self.cfg,
            &self.inputs[trial as usize],
            self.builder.as_ref(),
            &mut (self.adversary)(seed),
            seed,
            self.limits,
        );
        assert_eq!(outcome.trace.total_events(), 0, "{}: trace-free", self.id);
        outcome
    }

    /// The campaign plan of a row whose trials share one input assignment.
    fn plan(&self) -> Option<TrialPlan> {
        let first = self.inputs.first()?;
        self.inputs.iter().all(|inputs| inputs == first).then(|| {
            TrialPlan::new(self.cfg, first.clone())
                .trials(self.inputs.len() as u64)
                .limits(self.limits)
                .base_seed(self.base_seed)
        })
    }

    fn meta(&self, plan: &TrialPlan) -> ScenarioMeta {
        let model = (self.adversary)(plan.base_seed).model();
        ScenarioMeta {
            id: self.id.clone(),
            model: model.to_string(),
            n: self.cfg.n(),
            t: self.cfg.t(),
            trials: plan.trials,
            base_seed: plan.base_seed,
            time_cap: model.time_cap(&plan.limits),
        }
    }
}

/// Every quick-registry scenario, resolved from its public fields.
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
            let trials = spec.trials.min(REGISTRY_TRIALS);
            Row {
                id: spec.id(),
                cfg,
                builder,
                adversary: Box::new(move |seed| {
                    factory.build(&AdversaryBuildCtx::new(cfg, seed).with_targets(targets.clone()))
                }),
                limits: spec.limits,
                base_seed: spec.base_seed,
                inputs: vec![spec.inputs.materialize(spec.n); trials as usize],
            }
        })
        .collect()
}

/// A row of `CASES` trials on seeded random inputs.
fn random_row(
    id: &str,
    cfg: SystemConfig,
    builder: Box<dyn ProtocolBuilder>,
    limits: RunLimits,
    adversary: impl Fn(u64) -> BuiltAdversary + Sync + 'static,
) -> Row {
    let id = format!("random/{id}/n{}t{}", cfg.n(), cfg.t());
    let mut gen = ProcessorRng::labelled(0x5EED, fnv1a_64(id.as_bytes()));
    Row {
        id,
        cfg,
        builder,
        adversary: Box::new(adversary),
        limits,
        base_seed: gen.range(100_000),
        inputs: (0..CASES)
            .map(|_| InputAssignment::new((0..cfg.n()).map(|_| gen.bit()).collect()))
            .collect(),
    }
}

/// Random inputs under each model: windowed reset-tolerant runs against a
/// split-vote and a resetting adversary, asynchronous Ben-Or with a crash
/// victim that moves with the seed, Bracha's reliable-broadcast traffic, and
/// the partial-synchrony procrastinator.
fn random_rows() -> Vec<Row> {
    let sixth = SystemConfig::with_sixth_resilience(13).unwrap();
    let reset_tolerant = || Box::new(ResetTolerantBuilder::recommended(&sixth).unwrap());
    let windows = RunLimits::windows(20_000);
    let steps = RunLimits::steps(500_000);
    let async_cfg = SystemConfig::new(7, 2).unwrap();
    vec![
        random_row(
            "windowed/split-vote",
            sixth,
            reset_tolerant(),
            windows,
            |_| BuiltAdversary::windowed(Box::new(SplitVoteAdversary::new())),
        ),
        random_row(
            "windowed/rotating-reset",
            sixth,
            reset_tolerant(),
            windows,
            |_| BuiltAdversary::windowed(Box::new(RotatingResetAdversary::new())),
        ),
        random_row(
            "async/ben-or/scheduled-crash",
            async_cfg,
            Box::new(BenOrBuilder::new()),
            steps,
            |seed| {
                let victim = ProcessorId::new((seed % 7) as usize);
                BuiltAdversary::asynchronous(Box::new(ScheduledCrashAdversary::new(vec![victim])))
            },
        ),
        random_row(
            "async/bracha/fair-round-robin",
            async_cfg,
            Box::new(BrachaBuilder::new()),
            steps,
            |_| BuiltAdversary::asynchronous(Box::new(FairAsyncAdversary::default())),
        ),
        random_row(
            "partial-sync/ben-or/gst-procrastinator",
            SystemConfig::new(7, 1).unwrap(),
            Box::new(BenOrBuilder::new()),
            RunLimits::small(),
            |_| BuiltAdversary::partial_sync(Box::new(GstProcrastinatorAdversary::new(32, 3))),
        ),
    ]
}

/// Check (a) for every row, and the records of its fresh cores: one
/// thread runs the fresh cores while this one carries the workspace.
fn fresh_equals_pooled(rows: &[Row]) -> Vec<Vec<TrialRecord>> {
    std::thread::scope(|scope| {
        // Inside the scope, so that a failed comparison drops the receiver
        // and the sender stops instead of blocking the scope's join.
        let (send, fresh) = sync_channel(1);
        scope.spawn(move || {
            for row in rows {
                for trial in row.trials() {
                    if send.send(row.fresh(trial)).is_err() {
                        return;
                    }
                }
            }
        });
        let mut workspace = TrialWorkspace::new();
        rows.iter()
            .map(|row| {
                row.trials()
                    .map(|trial| {
                        let pooled = row.pooled(&mut workspace, trial);
                        let fresh = fresh.recv().expect("the fresh cores ran");
                        assert_eq!(pooled, fresh, "{} trial {trial}", row.id);
                        let seed = row.seed(trial);
                        TrialRecord::from_outcome(trial, seed, &fresh, &row.inputs[trial as usize])
                    })
                    .collect()
            })
            .collect()
    })
}

/// A campaign's records of every plan, and their rendered JSON report and
/// JSONL stream.
fn render(
    campaign: Campaign,
    runs: &[(&Row, TrialPlan)],
) -> (Vec<Vec<TrialRecord>>, String, String) {
    let mut json = JsonReportSink::with_scale("quick");
    let mut jsonl = JsonlSink::new();
    let records = runs
        .iter()
        .map(|(row, plan)| {
            let records = campaign.run_records(plan, row.builder.as_ref(), &row.adversary);
            let mut sinks: Vec<&mut dyn ReportSink> = vec![&mut json, &mut jsonl];
            stream_records(&row.meta(plan), &records, &mut sinks);
            records
        })
        .collect();
    (records, json.into_json().to_string(), jsonl.into_string())
}

/// Row by row, `records` equal `expected`.
fn assert_same_records(
    runs: &[(&Row, TrialPlan)],
    records: &[Vec<TrialRecord>],
    expected: &[&Vec<TrialRecord>],
    context: &str,
) {
    for (((row, _), records), expected) in runs.iter().zip(records).zip(expected) {
        assert_eq!(records, *expected, "{} ({context})", row.id);
    }
}

#[test]
fn every_row_is_one_execution_however_it_is_run() {
    let mut rows = registry_rows();
    assert!(rows.len() >= 55, "the registry shrank to {}", rows.len());
    rows.extend(random_rows());
    let fresh = fresh_equals_pooled(&rows);

    let (runs, fresh): (Vec<_>, Vec<_>) = rows
        .iter()
        .zip(&fresh)
        .filter_map(|(row, fresh)| Some(((row, row.plan()?), fresh)))
        .filter(|((_, plan), _)| plan.trials > 1)
        .unzip();
    assert!(runs.len() >= 30, "only {} campaign rows", runs.len());
    let (serial, json, jsonl) = render(Campaign::serial(), &runs);
    assert_same_records(&runs, &serial, &fresh, "serial campaign vs fresh cores");
    let serial: Vec<_> = serial.iter().collect();
    for threads in THREADS {
        let (records, other_json, other_jsonl) = render(Campaign::with_threads(threads), &runs);
        assert_same_records(&runs, &records, &serial, &format!("{threads} threads"));
        assert_eq!(json, other_json, "{threads} threads: the JSON report");
        assert_eq!(jsonl, other_jsonl, "{threads} threads: the JSONL stream");
    }
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
