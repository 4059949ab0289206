//! The data-driven scenario layer: workloads as values, executed by one
//! matrix engine.
//!
//! The paper's claims are statements about *combinations* — a protocol
//! crossed with an adversary, an input pattern, an execution model and a
//! system size. A [`ScenarioSpec`] captures one such combination as plain
//! data; a [`ScenarioMatrix`] expands cross-products of them; and both run
//! through the existing parallel [`Campaign`] with the same bit-identical,
//! slot-ordered aggregation the experiments use. Adversaries are resolved by
//! name through the [`agreement_adversary::AdversaryFactory`]
//! table of `agreement-adversary`, protocols through [`ProtocolSpec`], so
//! new workloads — Ben-Or under the equivocating Byzantine adversary,
//! committee protocols under split inputs — are new table rows, not new code.
//!
//! The experiments E1–E10 in [`crate::experiments`] are declarative tables
//! over this engine, and [`scenario_registry`] collects every registered
//! combination (experiment workloads plus extra combinations no experiment
//! exercises) for the `scenarios` CLI and the smoke tests.

use std::fmt;
use std::path::Path;
use std::sync::Mutex;

use agreement_adversary::{find_adversary, AdversaryBuildCtx, AdversaryFactory};
use agreement_analysis::{Histogram, JsonValue, Summary};
use agreement_model::{
    Bit, ConfigError, InputAssignment, ProcessorId, ProtocolBuilder, SystemConfig, Thresholds,
};
use agreement_protocols::{BenOrBuilder, BrachaBuilder, CommitteeBuilder, ResetTolerantBuilder};
use agreement_sim::{
    BufferChoice, BuiltAdversary, ExecutionCore, ModelDescriptor, RunLimits, RunOutcome,
    TrialWorkspace,
};

use crate::experiments::Scale;
use crate::orchestrate::{checkpoint::RangeLedger, OrchestrateError};
use crate::record::{stream_records, ReportSink, ScenarioMeta, TrialRecord};
use crate::runner::{Aggregate, Campaign, TrialPlan};

/// Why a scenario could not be resolved into a runnable execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The system configuration or protocol parameters are infeasible
    /// (e.g. `t >= n/6` for the reset-tolerant protocol).
    Config(ConfigError),
    /// The protocol spec is malformed for the configuration (e.g. a committee
    /// larger than `n`).
    InvalidProtocol(String),
    /// The adversary name is not in the registry.
    UnknownAdversary(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Config(err) => write!(f, "infeasible configuration: {err}"),
            ScenarioError::InvalidProtocol(reason) => {
                write!(f, "invalid protocol spec: {reason}")
            }
            ScenarioError::UnknownAdversary(name) => {
                write!(f, "no adversary named '{name}' in the registry")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ConfigError> for ScenarioError {
    fn from(err: ConfigError) -> Self {
        ScenarioError::Config(err)
    }
}

/// An input assignment described as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputPattern {
    /// Every processor holds `value`.
    Unanimous(Bit),
    /// The adversarial even split: the first `⌈n/2⌉` processors hold `0`.
    EvenlySplit,
    /// The first `zeros` processors hold `0`, the rest `1`.
    SplitAt(usize),
}

impl InputPattern {
    /// The label experiments print for this pattern.
    pub fn label(&self) -> String {
        match self {
            InputPattern::Unanimous(Bit::Zero) => "unanimous-0".to_string(),
            InputPattern::Unanimous(Bit::One) => "unanimous-1".to_string(),
            InputPattern::EvenlySplit => "split".to_string(),
            InputPattern::SplitAt(zeros) => format!("split@{zeros}"),
        }
    }

    /// Materializes the pattern for a system of `n` processors.
    pub fn materialize(&self, n: usize) -> InputAssignment {
        match self {
            InputPattern::Unanimous(value) => InputAssignment::unanimous(n, *value),
            InputPattern::EvenlySplit => InputAssignment::evenly_split(n),
            InputPattern::SplitAt(zeros) => InputAssignment::split_at(n, (*zeros).min(n)),
        }
    }
}

/// A protocol described as data, instantiable for any feasible configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// The Section 3 reset-tolerant protocol with the Theorem 4 recommended
    /// thresholds (requires `t < n/6`).
    ResetTolerant,
    /// The reset-tolerant protocol with explicit (possibly invalid)
    /// thresholds — the E8 sensitivity probe.
    ResetTolerantWith(Thresholds),
    /// Ben-Or's classical crash-model protocol.
    BenOr,
    /// Bracha's optimally resilient Byzantine protocol.
    Bracha,
    /// The Kapron-et-al.-style committee baseline with a public random
    /// committee of `size` members drawn from `seed`.
    Committee {
        /// Committee size.
        size: usize,
        /// Public randomness the committee is drawn from.
        seed: u64,
    },
    /// The sub-quadratic committee-sampled protocol: proposals are multicast
    /// within the sampled committee only, so a decision costs `O(k² + k·n)`
    /// messages instead of `Θ(n²)`.
    SampledCommittee {
        /// Committee size `k`.
        size: usize,
        /// Public sortition seed the committee is drawn from.
        seed: u64,
    },
}

/// A protocol instantiated for a concrete configuration: the builder plus the
/// publicly known structure (committee) adversaries may target.
pub struct ProtocolInstance {
    /// Builds the per-processor state machines.
    pub builder: Box<dyn ProtocolBuilder>,
    /// The protocol's publicly known committee (empty for quorum protocols).
    pub committee: Vec<ProcessorId>,
}

impl ProtocolSpec {
    /// A short label used in scenario ids and tables.
    pub fn label(&self) -> String {
        match self {
            ProtocolSpec::ResetTolerant => "reset-tolerant".to_string(),
            ProtocolSpec::ResetTolerantWith(th) => {
                format!("reset-tolerant[{},{},{}]", th.t1(), th.t2(), th.t3())
            }
            ProtocolSpec::BenOr => "ben-or".to_string(),
            ProtocolSpec::Bracha => "bracha".to_string(),
            ProtocolSpec::Committee { size, .. } => format!("committee{size}"),
            ProtocolSpec::SampledCommittee { size, .. } => format!("sampled-committee{size}"),
        }
    }

    /// Instantiates the protocol for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Config`] when no valid parameters exist for
    /// `cfg` (e.g. recommended thresholds at `t >= n/6`), and
    /// [`ScenarioError::InvalidProtocol`] for malformed specs (e.g. a
    /// committee larger than `n`) — specs are data, so a bad one is reported,
    /// never a panic.
    pub fn instantiate(&self, cfg: &SystemConfig) -> Result<ProtocolInstance, ScenarioError> {
        Ok(match self {
            ProtocolSpec::ResetTolerant => ProtocolInstance {
                builder: Box::new(ResetTolerantBuilder::recommended(cfg)?),
                committee: Vec::new(),
            },
            ProtocolSpec::ResetTolerantWith(thresholds) => ProtocolInstance {
                builder: Box::new(ResetTolerantBuilder::with_thresholds(*thresholds)),
                committee: Vec::new(),
            },
            ProtocolSpec::BenOr => ProtocolInstance {
                builder: Box::new(BenOrBuilder::new()),
                committee: Vec::new(),
            },
            ProtocolSpec::Bracha => ProtocolInstance {
                builder: Box::new(BrachaBuilder::new()),
                committee: Vec::new(),
            },
            ProtocolSpec::Committee { size, seed } => {
                committee_instance(cfg, *size, *seed, CommitteeBuilder::random)?
            }
            ProtocolSpec::SampledCommittee { size, seed } => {
                committee_instance(cfg, *size, *seed, CommitteeBuilder::sampled)?
            }
        })
    }
}

/// Draws a committee of `size` from `seed` with `draw` (which panics on a
/// size outside `1..=n`, so that is rejected here first) and publishes it
/// next to the builder.
fn committee_instance(
    cfg: &SystemConfig,
    size: usize,
    seed: u64,
    draw: fn(&SystemConfig, usize, u64) -> CommitteeBuilder,
) -> Result<ProtocolInstance, ScenarioError> {
    if size == 0 || size > cfg.n() {
        return Err(ScenarioError::InvalidProtocol(format!(
            "committee size {size} must be between 1 and n = {}",
            cfg.n()
        )));
    }
    let builder = draw(cfg, size, seed);
    Ok(ProtocolInstance {
        committee: builder.committee().to_vec(),
        builder: Box::new(builder),
    })
}

/// One workload as data: protocol × adversary × inputs × size × limits.
///
/// The execution model (windowed, asynchronous or partial-sync) is carried by
/// the adversary's registry entry, so a spec is fully determined by these
/// fields.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Grouping tag (e.g. the experiment the spec belongs to); prefixes the id.
    pub tag: String,
    /// The protocol to run.
    pub protocol: ProtocolSpec,
    /// The adversary's name in the `agreement-adversary` registry.
    pub adversary: String,
    /// The input pattern.
    pub inputs: InputPattern,
    /// Number of processors.
    pub n: usize,
    /// Fault budget.
    pub t: usize,
    /// Number of seeded trials.
    pub trials: u64,
    /// Per-trial run limits.
    pub limits: RunLimits,
    /// Base seed; trial `i` uses `base_seed + i`, wrapping past `u64::MAX`.
    pub base_seed: u64,
    /// Explicit adversary targets. `None` means "the protocol's committee"
    /// (empty for quorum protocols), which is what targeting adversaries
    /// default to.
    pub targets: Option<Vec<ProcessorId>>,
    /// The message buffer's channel layout, which has one value (see
    /// [`BufferChoice`]): read only by the benchmark harness, and not part of
    /// the id.
    pub buffer: BufferChoice,
}

impl ScenarioSpec {
    /// A spec with the default campaign parameters (20 trials, standard
    /// limits, base seed `0x5EED`) — the same defaults as [`TrialPlan`].
    pub fn new(
        protocol: ProtocolSpec,
        adversary: impl Into<String>,
        inputs: InputPattern,
        n: usize,
        t: usize,
    ) -> Self {
        ScenarioSpec {
            tag: String::new(),
            protocol,
            adversary: adversary.into(),
            inputs,
            n,
            t,
            trials: 20,
            limits: RunLimits::standard(),
            base_seed: 0x5EED,
            targets: None,
            buffer: BufferChoice::Lazy,
        }
    }

    /// Sets the grouping tag.
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = tag.into();
        self
    }

    /// Sets the number of trials.
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the per-trial limits.
    pub fn limits(mut self, limits: RunLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Sets the base seed.
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Sets explicit adversary targets (overriding the protocol's committee).
    pub fn targets(mut self, targets: Vec<ProcessorId>) -> Self {
        self.targets = Some(targets);
        self
    }

    /// A stable human-readable identifier:
    /// `[tag/]protocol/adversary/inputs/n<n>t<t>`.
    pub fn id(&self) -> String {
        let base = format!(
            "{}/{}/{}/n{}t{}",
            self.protocol.label(),
            self.adversary,
            self.inputs.label(),
            self.n,
            self.t
        );
        if self.tag.is_empty() {
            base
        } else {
            format!("{}/{base}", self.tag)
        }
    }

    /// The system configuration this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Config`] for degenerate `n`/`t`.
    pub fn config(&self) -> Result<SystemConfig, ScenarioError> {
        Ok(SystemConfig::new(self.n, self.t)?)
    }

    /// The adversary factory this spec names.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::UnknownAdversary`] when the name is not
    /// registered.
    pub fn factory(&self) -> Result<&'static AdversaryFactory, ScenarioError> {
        find_adversary(&self.adversary)
            .ok_or_else(|| ScenarioError::UnknownAdversary(self.adversary.clone()))
    }

    /// The execution model this spec runs under, as its descriptor (id,
    /// time cap).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::UnknownAdversary`] when the adversary is not
    /// registered.
    pub fn model(&self) -> Result<&'static ModelDescriptor, ScenarioError> {
        Ok(self.factory()?.model())
    }

    /// Checks that the spec resolves into a runnable execution without
    /// running it.
    ///
    /// # Errors
    ///
    /// Returns the error [`ScenarioSpec::run`] would return.
    pub fn feasibility(&self) -> Result<(), ScenarioError> {
        let cfg = self.config()?;
        self.factory()?;
        self.protocol.instantiate(&cfg)?;
        Ok(())
    }

    fn resolved(
        &self,
    ) -> Result<(SystemConfig, ProtocolInstance, &'static AdversaryFactory), ScenarioError> {
        let cfg = self.config()?;
        let factory = self.factory()?;
        let instance = self.protocol.instantiate(&cfg)?;
        Ok((cfg, instance, factory))
    }

    /// The campaign plan for `trials` trials of this spec's harness from
    /// `base_seed` on.
    fn plan(&self, cfg: SystemConfig, trials: u64, base_seed: u64) -> TrialPlan {
        TrialPlan::new(cfg, self.inputs.materialize(self.n))
            .trials(trials)
            .limits(self.limits)
            .base_seed(base_seed)
    }

    fn build_ctx(
        &self,
        cfg: SystemConfig,
        instance: &ProtocolInstance,
        seed: u64,
    ) -> AdversaryBuildCtx {
        let targets = self
            .targets
            .clone()
            .unwrap_or_else(|| instance.committee.clone());
        AdversaryBuildCtx::new(cfg, seed).with_targets(targets)
    }

    /// The [`ScenarioMeta`] identity of this spec (requires the adversary to
    /// resolve, for the model label and time cap).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::UnknownAdversary`] when the adversary is not
    /// registered.
    pub fn meta(&self) -> Result<ScenarioMeta, ScenarioError> {
        let model = self.model()?;
        Ok(ScenarioMeta {
            id: self.id(),
            model: model.to_string(),
            n: self.n,
            t: self.t,
            trials: self.trials,
            base_seed: self.base_seed,
            time_cap: model.time_cap(&self.limits),
        })
    }

    /// Runs the spec's trials on the default (all-cores) campaign.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when the spec does not resolve.
    pub fn run(&self) -> Result<ScenarioReport, ScenarioError> {
        self.run_on(&Campaign::default())
    }

    /// Runs the spec's trials on an explicit campaign. Reports are
    /// bit-identical across thread counts (the campaign's guarantee).
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when the spec does not resolve.
    pub fn run_on(&self, campaign: &Campaign) -> Result<ScenarioReport, ScenarioError> {
        self.run_with_sinks(campaign, &mut [])
    }

    /// Runs the spec's trials, streaming every [`TrialRecord`] (in trial
    /// order) through `sinks` before returning the finished report.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when the spec does not resolve.
    pub fn run_with_sinks(
        &self,
        campaign: &Campaign,
        sinks: &mut [&mut dyn ReportSink],
    ) -> Result<ScenarioReport, ScenarioError> {
        let (cfg, instance, factory) = self.resolved()?;
        let meta = self.meta()?;
        let plan = self.plan(cfg, self.trials, self.base_seed);
        let builder = instance.builder.as_ref();
        let records = campaign.run_records(&plan, builder, |seed| {
            factory.build(&self.build_ctx(cfg, &instance, seed))
        });
        Ok(stream_records(&meta, &records, sinks))
    }

    /// Runs only the trials `lo..hi` of this spec and returns their records
    /// in trial order — the shard one orchestration worker executes. Record
    /// `t` is bit-identical to record `t` of a full run, so a coordinator
    /// that concatenates contiguous ranges covering `0..trials` reproduces
    /// the single-process record stream (and therefore every sink's output)
    /// exactly.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when the spec does not resolve.
    pub fn run_range_records(
        &self,
        campaign: &Campaign,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<TrialRecord>, ScenarioError> {
        let (cfg, instance, factory) = self.resolved()?;
        let plan = self.plan(cfg, self.trials, self.base_seed);
        let builder = instance.builder.as_ref();
        Ok(campaign.run_records_range(
            &plan,
            builder,
            |seed| factory.build(&self.build_ctx(cfg, &instance, seed)),
            lo,
            hi,
        ))
    }

    /// [`ScenarioSpec::run_range_records`] inside the caller's
    /// `workspaces`, one per campaign worker
    /// ([`Campaign::run_records_range_in`]): an orchestration worker passes
    /// the same list for every range it serves, so each range starts on
    /// warm cores.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when the spec does not resolve.
    pub fn run_range_records_in(
        &self,
        campaign: &Campaign,
        workspaces: &mut Vec<TrialWorkspace>,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<TrialRecord>, ScenarioError> {
        let (cfg, instance, factory) = self.resolved()?;
        let plan = self.plan(cfg, self.trials, self.base_seed);
        Ok(campaign.run_records_range_in(
            workspaces,
            &plan,
            instance.builder.as_ref(),
            |seed| factory.build(&self.build_ctx(cfg, &instance, seed)),
            lo,
            hi,
        ))
    }

    /// Runs the spec's trials on `campaign` as
    /// [`ScenarioSpec::run_range_records`] over `0..trials` would, resuming
    /// from the checkpoint at `path`: the ranges it holds for this exact
    /// workload are restored, and each missing range is appended as soon as
    /// it has run. Ranges are `ceil(trials / (32 × threads))` trials (at most
    /// 65 536), and each thread claims the next one on its own warm
    /// workspace, so no thread waits for another's range.
    ///
    /// # Errors
    ///
    /// [`OrchestrateError::Scenario`] when the spec does not resolve (the
    /// file is not touched then), [`OrchestrateError::Io`] when the
    /// checkpoint cannot be read or appended to (no range is claimed after
    /// a failed append).
    pub fn run_checkpointed(
        &self,
        campaign: &Campaign,
        path: &Path,
    ) -> Result<Vec<TrialRecord>, OrchestrateError> {
        self.feasibility()?;
        let ledger = RangeLedger::resume(self, Some(path), |_, _| {})?;
        let threads = campaign.worker_count(self.trials);
        let missing = Mutex::new(ledger.missing(self.trials.div_ceil(32 * threads as u64)));
        let ledger = Mutex::new(ledger);
        let claim = || missing.lock().expect("range queue poisoned").pop_front();
        let work = || -> Result<(), OrchestrateError> {
            let mut workspaces = Vec::new();
            while let Some((lo, hi)) = claim() {
                let records =
                    self.run_range_records_in(&Campaign::serial(), &mut workspaces, lo, hi)?;
                ledger
                    .lock()
                    .expect("ledger poisoned")
                    .settle(lo, hi, records)
                    .inspect_err(|_| missing.lock().expect("range queue poisoned").clear())?;
            }
            Ok(())
        };
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            workers
                .into_iter()
                .try_for_each(|worker| worker.join().expect("range worker panicked"))
        })?;
        ledger.into_inner().expect("ledger poisoned").merge()
    }

    /// Runs a single execution with an explicit seed and returns its raw
    /// outcome (used by determinism tests).
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when the spec does not resolve.
    pub fn run_single(&self, seed: u64) -> Result<RunOutcome, ScenarioError> {
        let (cfg, instance, factory) = self.resolved()?;
        let ctx = self.build_ctx(cfg, &instance, seed);
        let mut adversary = factory.build(&ctx);
        self.run_single_with(seed, &mut adversary)
    }

    /// Resolves this spec's harness — configuration, protocol instance,
    /// inputs, limits, buffer choice — **once**, for any number of
    /// [`BatchRunner::run`] calls on `campaign`. This is the budgeted
    /// campaign entry point of the schedule-space search
    /// (`agreement-search`), which evaluates one genome batch per call.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when the configuration or protocol does
    /// not resolve (the adversary name is deliberately not consulted).
    pub fn batch_runner(&self, campaign: &Campaign) -> Result<BatchRunner, ScenarioError> {
        let cfg = self.config()?;
        Ok(BatchRunner {
            campaign: *campaign,
            instance: self.protocol.instantiate(&cfg)?,
            plan: self.plan(cfg, 0, 0),
            workspaces: Vec::new(),
        })
    }

    /// Runs one execution of this spec's harness on a fresh core under a
    /// caller-supplied adversary — the replay path for stored schedule
    /// artifacts (`search --replay`).
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when the configuration or protocol does
    /// not resolve (the adversary name is deliberately not consulted).
    pub fn run_single_with(
        &self,
        seed: u64,
        adversary: &mut BuiltAdversary,
    ) -> Result<RunOutcome, ScenarioError> {
        let cfg = self.config()?;
        let instance = self.protocol.instantiate(&cfg)?;
        let inputs = self.inputs.materialize(self.n);
        let mut core = ExecutionCore::new(cfg, inputs, instance.builder.as_ref(), seed);
        Ok(adversary.run(&mut core, self.limits))
    }
}

/// A [`ScenarioSpec`]'s harness resolved for running many short batches of
/// trials with **caller-supplied adversaries** (the registered adversary
/// name is overridden): what [`ScenarioSpec::batch_runner`] returns. It owns
/// everything a batch needs besides its adversaries — the protocol instance,
/// the plan with its materialized inputs, and one
/// [`TrialWorkspace`] per campaign worker, warm from the first batch on — so
/// a batch pays for its trials and nothing else.
pub struct BatchRunner {
    campaign: Campaign,
    instance: ProtocolInstance,
    plan: TrialPlan,
    workspaces: Vec<TrialWorkspace>,
}

impl BatchRunner {
    /// Runs `trials` trials, trial `i` seeded `base_seed + i` with the
    /// adversary `make_adversary` builds for that seed — the caller advances
    /// `base_seed` by the batch size so every trial of its budget has a
    /// unique seed. Records come back slot-ordered and bit-identical across
    /// campaign thread counts and across however the trials are cut into
    /// batches, which is what makes the search itself reproducible under
    /// `--threads`.
    pub fn run<F>(&mut self, trials: u64, base_seed: u64, make_adversary: F) -> Vec<TrialRecord>
    where
        F: Fn(u64) -> BuiltAdversary + Sync,
    {
        self.plan.trials = trials;
        self.plan.base_seed = base_seed;
        self.campaign.run_records_range_in(
            &mut self.workspaces,
            &self.plan,
            self.instance.builder.as_ref(),
            make_adversary,
            0,
            trials,
        )
    }
}

/// The finished result of running one scenario: its identity, the
/// backwards-compatible [`Aggregate`], and the per-trial distributions the
/// aggregate's summaries flatten away.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// The scenario's identity (id, model, size, trials, seed, time cap).
    pub meta: ScenarioMeta,
    /// The classic rate/summary aggregate (what the E1–E10 tables print).
    pub aggregate: Aggregate,
    /// Distribution of the window/step count at which the last correct
    /// processor decided (undecided trials contribute the time cap).
    pub decision_times: Histogram,
    /// Distribution of the per-trial chain metric.
    pub chain_lengths: Histogram,
    /// Distribution of messages sent per trial.
    pub message_counts: Histogram,
    /// Distribution of resetting steps per trial.
    pub reset_counts: Histogram,
}

impl ScenarioReport {
    /// Builds the report from a scenario's full record stream.
    pub fn from_records(meta: ScenarioMeta, records: &[TrialRecord]) -> Self {
        let cap = meta.time_cap;
        let samples =
            |f: &dyn Fn(&TrialRecord) -> f64| -> Vec<f64> { records.iter().map(f).collect() };
        ScenarioReport {
            aggregate: Aggregate::from_records(records, cap),
            decision_times: Histogram::from_samples(&samples(&|r| {
                r.all_decided_at.unwrap_or(cap) as f64
            })),
            chain_lengths: Histogram::from_samples(&samples(&|r| r.longest_chain as f64)),
            message_counts: Histogram::from_samples(&samples(&|r| r.metrics.messages_sent as f64)),
            reset_counts: Histogram::from_samples(&samples(&|r| r.metrics.resets_consumed as f64)),
            meta,
        }
    }

    /// The report as one JSON object — the per-scenario record the binaries
    /// emit under `--json`. Field order is stable and the document contains
    /// no timestamps, so re-running an unchanged scenario produces an
    /// identical record (`tests/golden/subquad-quick.json` is such a
    /// document, committed as a byte pin).
    pub fn to_json(&self) -> JsonValue {
        fn summary(s: &Summary) -> JsonValue {
            let mut obj = JsonValue::object();
            obj.push("mean", s.mean)
                .push("std_dev", s.std_dev)
                .push("min", s.min)
                .push("max", s.max);
            obj
        }
        fn distribution(h: &Histogram) -> JsonValue {
            let mut obj = JsonValue::object();
            obj.push("p50", h.percentile(50.0))
                .push("p90", h.percentile(90.0))
                .push("p99", h.percentile(99.0))
                .push("min", h.min())
                .push("max", h.max());
            obj
        }
        let mut doc = JsonValue::object();
        doc.push("id", self.meta.id.as_str())
            .push("model", self.meta.model.as_str())
            .push("n", self.meta.n)
            .push("t", self.meta.t)
            .push("trials", self.meta.trials)
            .push("base_seed", self.meta.base_seed)
            .push("time_cap", self.meta.time_cap)
            .push("termination_rate", self.aggregate.termination_rate)
            .push("agreement_rate", self.aggregate.agreement_rate)
            .push("validity_rate", self.aggregate.validity_rate)
            .push("violation_rate", self.aggregate.violation_rate)
            .push("decision_time", summary(&self.aggregate.decision_time))
            .push("decision_time_dist", distribution(&self.decision_times))
            .push("chain_length", summary(&self.aggregate.chain_length))
            .push("chain_length_dist", distribution(&self.chain_lengths))
            .push("messages", summary(&self.aggregate.messages))
            .push("messages_dist", distribution(&self.message_counts))
            .push("resets", summary(&self.aggregate.resets))
            .push("resets_dist", distribution(&self.reset_counts));
        doc
    }
}

/// A cross-product of scenario dimensions, expanded into concrete specs.
///
/// Expansion order is sizes → protocols → inputs → adversaries (outermost to
/// innermost), matching the row order of the tabular experiments.
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    /// Grouping tag applied to every expanded spec.
    pub tag: String,
    /// Protocol dimension.
    pub protocols: Vec<ProtocolSpec>,
    /// Adversary dimension (registry names).
    pub adversaries: Vec<String>,
    /// Input dimension.
    pub inputs: Vec<InputPattern>,
    /// Size dimension as `(n, t)` pairs.
    pub sizes: Vec<(usize, usize)>,
    /// Trials per expanded spec.
    pub trials: u64,
    /// Limits per expanded spec.
    pub limits: RunLimits,
    /// Base seed per expanded spec.
    pub base_seed: u64,
}

impl Default for ScenarioMatrix {
    fn default() -> Self {
        ScenarioMatrix::new()
    }
}

impl ScenarioMatrix {
    /// An empty matrix with the default campaign parameters.
    pub fn new() -> Self {
        ScenarioMatrix {
            tag: String::new(),
            protocols: Vec::new(),
            adversaries: Vec::new(),
            inputs: Vec::new(),
            sizes: Vec::new(),
            trials: 20,
            limits: RunLimits::standard(),
            base_seed: 0x5EED,
        }
    }

    /// Sets the grouping tag.
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = tag.into();
        self
    }

    /// Sets the protocol dimension.
    pub fn protocols(mut self, protocols: Vec<ProtocolSpec>) -> Self {
        self.protocols = protocols;
        self
    }

    /// Sets the adversary dimension from registry names.
    pub fn adversaries(mut self, adversaries: &[&str]) -> Self {
        self.adversaries = adversaries.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Sets the input dimension.
    pub fn inputs(mut self, inputs: Vec<InputPattern>) -> Self {
        self.inputs = inputs;
        self
    }

    /// Sets the size dimension as `(n, t)` pairs.
    pub fn sizes(mut self, sizes: Vec<(usize, usize)>) -> Self {
        self.sizes = sizes;
        self
    }

    /// Sets the trials per expanded spec.
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the limits per expanded spec.
    pub fn limits(mut self, limits: RunLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Sets the base seed per expanded spec.
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Expands the full cross-product into concrete specs.
    pub fn expand(&self) -> Vec<ScenarioSpec> {
        let mut specs = Vec::with_capacity(
            self.sizes.len() * self.protocols.len() * self.inputs.len() * self.adversaries.len(),
        );
        for &(n, t) in &self.sizes {
            for protocol in &self.protocols {
                for inputs in &self.inputs {
                    for adversary in &self.adversaries {
                        specs.push(
                            ScenarioSpec::new(protocol.clone(), adversary.clone(), *inputs, n, t)
                                .tag(self.tag.clone())
                                .trials(self.trials)
                                .limits(self.limits)
                                .base_seed(self.base_seed),
                        );
                    }
                }
            }
        }
        specs
    }
}

/// Extra combinations no experiment exercises: the registry's proof that
/// arbitrary protocol × adversary pairings run from data alone.
pub fn extra_scenarios(scale: Scale) -> Vec<ScenarioSpec> {
    let trials = match scale {
        Scale::Quick => 3,
        Scale::Full => 25,
    };
    let mut specs = vec![
        // Ben-Or facing the Byzantine equivocator (crash-model thresholds
        // mask a single liar on unanimous inputs).
        ScenarioSpec::new(
            ProtocolSpec::BenOr,
            "equivocating-byzantine",
            InputPattern::Unanimous(Bit::One),
            9,
            1,
        )
        .limits(RunLimits::steps(500_000)),
        // Bracha under full-power equivocation at optimal resilience.
        ScenarioSpec::new(
            ProtocolSpec::Bracha,
            "equivocating-byzantine",
            InputPattern::Unanimous(Bit::One),
            7,
            2,
        )
        .limits(RunLimits::steps(60_000)),
        // Bracha under benign fair scheduling.
        ScenarioSpec::new(
            ProtocolSpec::Bracha,
            "fair-round-robin",
            InputPattern::Unanimous(Bit::Zero),
            7,
            2,
        )
        .limits(RunLimits::steps(100_000)),
        // The targeted (most-advanced-first) resetter, unused by E1-E10.
        ScenarioSpec::new(
            ProtocolSpec::ResetTolerant,
            "targeted-reset",
            InputPattern::EvenlySplit,
            13,
            2,
        )
        .limits(RunLimits::windows(5_000)),
        // The reset-tolerant protocol's benign best case.
        ScenarioSpec::new(
            ProtocolSpec::ResetTolerant,
            "full-delivery",
            InputPattern::EvenlySplit,
            13,
            2,
        )
        .limits(RunLimits::windows(2_000)),
        // Ben-Or with its victims silenced entirely.
        ScenarioSpec::new(
            ProtocolSpec::BenOr,
            "withholding-crash",
            InputPattern::Unanimous(Bit::Zero),
            7,
            2,
        )
        .limits(RunLimits::steps(200_000)),
        // The committee baseline under split inputs and scheduled crashes.
        ScenarioSpec::new(
            ProtocolSpec::Committee {
                size: 5,
                seed: 0xC0FFEE,
            },
            "scheduled-crash",
            InputPattern::EvenlySplit,
            18,
            2,
        )
        .limits(RunLimits::steps(200_000)),
    ];
    for spec in &mut specs {
        spec.tag = "extra".to_string();
        spec.trials = trials;
    }
    specs
}

/// The partial-synchrony scenario family: the paper's protocols under the
/// *curtailed* adversaries of the eventual-synchrony model, so experiments
/// can contrast expected decision times against the strongly adaptive and
/// fully asynchronous results on the same protocols.
///
/// Three adversary strengths are crossed with ben-or, bracha and the
/// reset-tolerant protocol: the benign baseline (`benign-eventual`), the
/// maximal delay attack the model admits (`gst-procrastinator` — every
/// delivery is the model's Δ-paced enforcement after a late GST), and
/// send-omission of `t` senders (`post-gst-omission`). Where the strong
/// adversaries force exponential expected time (split-vote, lockstep), these
/// runs terminate in `O(gst + Δ · rounds)` steps — the dichotomy the related
/// work (Kowalski–Mirek; Dufoulon–Pandurangan) predicts for constrained
/// adversaries.
pub fn partial_sync_scenarios(scale: Scale) -> Vec<ScenarioSpec> {
    let trials = match scale {
        Scale::Quick => 3,
        Scale::Full => 25,
    };
    let mut specs = vec![
        // Ben-Or under the benign eventual baseline: the fast case.
        ScenarioSpec::new(
            ProtocolSpec::BenOr,
            "benign-eventual",
            InputPattern::Unanimous(Bit::One),
            7,
            1,
        )
        .limits(RunLimits::steps(100_000)),
        // Ben-Or against maximal procrastination: decision delayed by an
        // additive GST, never prevented.
        ScenarioSpec::new(
            ProtocolSpec::BenOr,
            "gst-procrastinator",
            InputPattern::Unanimous(Bit::One),
            7,
            1,
        )
        .limits(RunLimits::steps(100_000)),
        // Ben-Or with t senders omitted: quorums of n - t still decide.
        ScenarioSpec::new(
            ProtocolSpec::BenOr,
            "post-gst-omission",
            InputPattern::Unanimous(Bit::Zero),
            7,
            2,
        )
        .limits(RunLimits::steps(100_000)),
        // Bracha under the benign eventual baseline at optimal resilience.
        ScenarioSpec::new(
            ProtocolSpec::Bracha,
            "benign-eventual",
            InputPattern::Unanimous(Bit::Zero),
            7,
            2,
        )
        .limits(RunLimits::steps(200_000)),
        // Bracha against the procrastinator.
        ScenarioSpec::new(
            ProtocolSpec::Bracha,
            "gst-procrastinator",
            InputPattern::Unanimous(Bit::One),
            7,
            2,
        )
        .limits(RunLimits::steps(200_000)),
        // Bracha with t omitted senders: reliable broadcast from n - t voices.
        ScenarioSpec::new(
            ProtocolSpec::Bracha,
            "post-gst-omission",
            InputPattern::Unanimous(Bit::One),
            7,
            2,
        )
        .limits(RunLimits::steps(200_000)),
        // The reset-tolerant protocol on adversarial split inputs — the
        // workload the split-vote adversary stalls exponentially — decides
        // promptly once the adversary is curtailed.
        ScenarioSpec::new(
            ProtocolSpec::ResetTolerant,
            "benign-eventual",
            InputPattern::EvenlySplit,
            13,
            2,
        )
        .limits(RunLimits::steps(200_000)),
        ScenarioSpec::new(
            ProtocolSpec::ResetTolerant,
            "gst-procrastinator",
            InputPattern::EvenlySplit,
            13,
            2,
        )
        .limits(RunLimits::steps(200_000)),
        // Reset tolerance also covers omission: n - t voices are enough.
        ScenarioSpec::new(
            ProtocolSpec::ResetTolerant,
            "post-gst-omission",
            InputPattern::Unanimous(Bit::One),
            13,
            2,
        )
        .limits(RunLimits::steps(200_000)),
    ];
    for spec in &mut specs {
        spec.tag = "psync".to_string();
        spec.trials = trials;
    }
    specs
}

/// Public sortition seed shared by every `subquad/` scenario.
const SUBQUAD_SORTITION_SEED: u64 = 0x5AB5EED;

/// The sub-quadratic scaling family: committee-sampled agreement at
/// `n ∈ {100, 1000, 10000}`, with quadratic comparators where they are still
/// feasible to run.
///
/// The message buffer allocates a lane's channels only as its traffic names
/// them, so these sizes need no layout of their own — a preallocated `n²`
/// channel grid at `n = 10000` would be 100 million queues. Committee
/// sizes grow like `~4·log₂ n` (13, 20, 27) and the fault budget is always
/// `f + 1` where `f = ⌊(k-1)/3⌋`: just enough for the adaptive committee
/// killer to destroy the announce quorum, while the *non-adaptive* crash
/// adversary (which picks victims blind) almost surely misses the committee —
/// the two sides of the paper's adaptive/non-adaptive dichotomy at scale.
pub fn subquad_scenarios(scale: Scale) -> Vec<ScenarioSpec> {
    // (n, committee size k, fault budget t = f + 1)
    const SIZES: [(usize, usize, usize); 3] = [(100, 13, 5), (1_000, 20, 7), (10_000, 27, 9)];
    let trials = |n: usize| match (scale, n) {
        (Scale::Quick, 100) => 2,
        (Scale::Quick, _) => 1,
        (Scale::Full, 100) => 10,
        (Scale::Full, 1_000) => 5,
        (Scale::Full, _) => 2,
    };
    let steps = |n: usize| match n {
        100 => RunLimits::steps(500_000),
        1_000 => RunLimits::steps(2_000_000),
        _ => RunLimits::steps(4_000_000),
    };
    let mut specs = Vec::new();
    for (n, size, t) in SIZES {
        let sampled = ProtocolSpec::SampledCommittee {
            size,
            seed: SUBQUAD_SORTITION_SEED,
        };
        // The sub-quadratic protocol under benign scheduling, blind crashes,
        // and the adaptive killer (expected termination: 1, ~1, 0).
        for adversary in ["fair-round-robin", "non-adaptive-crash"] {
            specs.push(
                ScenarioSpec::new(
                    sampled.clone(),
                    adversary,
                    InputPattern::Unanimous(Bit::One),
                    n,
                    t,
                )
                .limits(steps(n))
                .trials(trials(n)),
            );
        }
        specs.push(
            ScenarioSpec::new(
                sampled,
                "adaptive-committee-killer",
                InputPattern::Unanimous(Bit::One),
                n,
                t,
            )
            .limits(steps(n))
            .trials(trials(n)),
        );
    }
    // Quadratic comparators, where Θ(n²) messages per decision is still
    // runnable: both classics at n = 100, Ben-Or alone at n = 1000 (one
    // round is already a million messages). At n = 10000 only the
    // sub-quadratic protocol appears — that is the point.
    specs.push(
        ScenarioSpec::new(
            ProtocolSpec::BenOr,
            "fair-round-robin",
            InputPattern::Unanimous(Bit::One),
            100,
            5,
        )
        .limits(RunLimits::steps(1_000_000))
        .trials(trials(100)),
    );
    // Bracha re-broadcasts every round while the fair scheduler drip-feeds
    // deliveries, so one n = 100 decision takes ~6M steps — give it headroom
    // and a single trial.
    specs.push(
        ScenarioSpec::new(
            ProtocolSpec::Bracha,
            "fair-round-robin",
            InputPattern::Unanimous(Bit::One),
            100,
            5,
        )
        .limits(RunLimits::steps(8_000_000))
        .trials(1),
    );
    specs.push(
        ScenarioSpec::new(
            ProtocolSpec::BenOr,
            "fair-round-robin",
            InputPattern::Unanimous(Bit::One),
            1_000,
            7,
        )
        .limits(RunLimits::steps(4_000_000))
        .trials(1),
    );
    for spec in &mut specs {
        spec.tag = "subquad".to_string();
    }
    specs
}

/// Every registered scenario: the declarative E1–E10 workloads plus the extra
/// combinations, the partial-synchrony family and the sub-quadratic scaling
/// family, at the given scale.
///
/// Newer families are appended **after** every pre-existing scenario (extra,
/// then psync, then subquad) so machine-readable output for the historical
/// registry is a stable prefix.
pub fn scenario_registry(scale: Scale) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    specs.extend(crate::experiments::exp1_specs(scale));
    specs.extend(crate::experiments::exp2_specs(scale));
    specs.extend(crate::experiments::exp5_specs(scale));
    specs.extend(crate::experiments::exp6_specs(scale));
    specs.extend(crate::experiments::exp7_specs(scale));
    specs.extend(crate::experiments::exp8_specs(scale));
    specs.extend(crate::experiments::exp9_specs(scale));
    specs.extend(extra_scenarios(scale));
    specs.extend(partial_sync_scenarios(scale));
    specs.extend(subquad_scenarios(scale));
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_patterns_materialize_and_label() {
        assert_eq!(InputPattern::Unanimous(Bit::One).label(), "unanimous-1");
        assert_eq!(InputPattern::EvenlySplit.label(), "split");
        assert_eq!(InputPattern::SplitAt(2).label(), "split@2");
        assert_eq!(
            InputPattern::EvenlySplit.materialize(5),
            InputAssignment::evenly_split(5)
        );
        assert_eq!(
            InputPattern::SplitAt(9).materialize(4),
            InputAssignment::split_at(4, 4),
            "oversized zero counts clamp to n"
        );
    }

    #[test]
    fn spec_ids_are_stable_and_tagged() {
        let spec = ScenarioSpec::new(
            ProtocolSpec::ResetTolerant,
            "split-vote",
            InputPattern::EvenlySplit,
            13,
            2,
        );
        assert_eq!(spec.id(), "reset-tolerant/split-vote/split/n13t2");
        assert_eq!(
            spec.tag("e2").id(),
            "e2/reset-tolerant/split-vote/split/n13t2"
        );
    }

    #[test]
    fn unknown_adversaries_and_infeasible_configs_are_reported() {
        let spec = ScenarioSpec::new(
            ProtocolSpec::ResetTolerant,
            "no-such-adversary",
            InputPattern::EvenlySplit,
            7,
            1,
        );
        assert_eq!(
            spec.feasibility(),
            Err(ScenarioError::UnknownAdversary(
                "no-such-adversary".to_string()
            ))
        );
        // t = 3 >= 13/6: recommended thresholds do not exist.
        let infeasible = ScenarioSpec::new(
            ProtocolSpec::ResetTolerant,
            "split-vote",
            InputPattern::EvenlySplit,
            13,
            3,
        );
        assert!(matches!(
            infeasible.feasibility(),
            Err(ScenarioError::Config(_))
        ));
        // A committee larger than n is a data error, reported — not a panic.
        let oversized = ScenarioSpec::new(
            ProtocolSpec::Committee { size: 10, seed: 1 },
            "fair-round-robin",
            InputPattern::EvenlySplit,
            5,
            1,
        );
        assert!(matches!(
            oversized.feasibility(),
            Err(ScenarioError::InvalidProtocol(_))
        ));
    }

    #[test]
    fn matrix_expansion_orders_sizes_protocols_inputs_adversaries() {
        let matrix = ScenarioMatrix::new()
            .tag("m")
            .protocols(vec![ProtocolSpec::ResetTolerant])
            .inputs(vec![
                InputPattern::Unanimous(Bit::One),
                InputPattern::EvenlySplit,
            ])
            .adversaries(&["rotating-reset", "split-vote"])
            .sizes(vec![(7, 1), (13, 2)])
            .trials(4)
            .limits(RunLimits::small());
        let specs = matrix.expand();
        assert_eq!(specs.len(), 8);
        assert_eq!(
            specs[0].id(),
            "m/reset-tolerant/rotating-reset/unanimous-1/n7t1"
        );
        assert_eq!(
            specs[1].id(),
            "m/reset-tolerant/split-vote/unanimous-1/n7t1"
        );
        assert_eq!(specs[2].id(), "m/reset-tolerant/rotating-reset/split/n7t1");
        assert_eq!(specs[7].id(), "m/reset-tolerant/split-vote/split/n13t2");
        assert!(specs.iter().all(|s| s.trials == 4));
    }

    #[test]
    fn matrix_expansion_ids_are_unique_across_the_full_cross_product() {
        use std::collections::BTreeSet;
        let matrix = ScenarioMatrix::new()
            .tag("uniq")
            .protocols(vec![
                ProtocolSpec::ResetTolerant,
                ProtocolSpec::BenOr,
                ProtocolSpec::Bracha,
                ProtocolSpec::Committee { size: 3, seed: 1 },
            ])
            .inputs(vec![
                InputPattern::Unanimous(Bit::Zero),
                InputPattern::Unanimous(Bit::One),
                InputPattern::EvenlySplit,
                InputPattern::SplitAt(3),
            ])
            .adversaries(&["rotating-reset", "split-vote", "fair-round-robin"])
            .sizes(vec![(7, 1), (13, 2), (19, 3)]);
        let specs = matrix.expand();
        assert_eq!(specs.len(), 4 * 4 * 3 * 3);
        let ids: BTreeSet<String> = specs.iter().map(ScenarioSpec::id).collect();
        assert_eq!(
            ids.len(),
            specs.len(),
            "every dimension must be reflected in the id, or expansion collides"
        );
        assert!(ids.iter().all(|id| id.starts_with("uniq/")));
    }

    #[test]
    fn materialize_handles_single_processor_systems() {
        assert_eq!(
            InputPattern::Unanimous(Bit::Zero).materialize(1),
            InputAssignment::unanimous(1, Bit::Zero)
        );
        // ⌈1/2⌉ = 1: the lone processor lands on the zero side of the split.
        assert_eq!(
            InputPattern::EvenlySplit.materialize(1),
            InputAssignment::split_at(1, 1)
        );
        assert_eq!(
            InputPattern::SplitAt(0).materialize(1),
            InputAssignment::unanimous(1, Bit::One)
        );
    }

    #[test]
    fn materialize_split_extremes_collapse_to_unanimous() {
        assert_eq!(
            InputPattern::SplitAt(0).materialize(5),
            InputAssignment::unanimous(5, Bit::One)
        );
        assert_eq!(
            InputPattern::SplitAt(5).materialize(5),
            InputAssignment::unanimous(5, Bit::Zero)
        );
    }

    #[test]
    fn materialize_even_split_rounds_zeros_up_on_odd_n() {
        for n in [2usize, 3, 7, 8, 13] {
            let inputs = InputPattern::EvenlySplit.materialize(n);
            let zeros = inputs.iter().filter(|bit| bit.is_zero()).count();
            assert_eq!(zeros, n.div_ceil(2), "⌈n/2⌉ zeros at n = {n}");
            assert_eq!(inputs.len(), n);
        }
    }

    #[test]
    fn scenario_run_matches_direct_campaign_invocation() {
        use agreement_adversary::SplitVoteAdversary;

        let spec = ScenarioSpec::new(
            ProtocolSpec::ResetTolerant,
            "split-vote",
            InputPattern::EvenlySplit,
            13,
            2,
        )
        .trials(3)
        .limits(RunLimits::windows(5_000));
        let via_scenario = spec.run().unwrap();
        assert_eq!(via_scenario.meta.id, spec.id());
        assert_eq!(via_scenario.meta.time_cap, 5_000);

        let cfg = SystemConfig::new(13, 2).unwrap();
        let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
        let plan = TrialPlan::new(cfg, InputAssignment::evenly_split(13))
            .trials(3)
            .limits(RunLimits::windows(5_000));
        let direct = Campaign::default().run_records(&plan, &builder, |_| {
            BuiltAdversary::windowed(Box::new(SplitVoteAdversary::new()))
        });
        assert_eq!(
            via_scenario.aggregate,
            Aggregate::from_records(&direct, plan.limits.max_windows)
        );
    }

    #[test]
    fn async_scenario_runs_and_reports_the_async_model() {
        let spec = ScenarioSpec::new(
            ProtocolSpec::BenOr,
            "fair-round-robin",
            InputPattern::Unanimous(Bit::Zero),
            5,
            1,
        )
        .trials(3)
        .limits(RunLimits::small());
        assert_eq!(spec.model().unwrap().id(), "async");
        let report = spec.run().unwrap();
        assert_eq!(report.meta.model, "async");
        assert_eq!(report.aggregate.termination_rate, 1.0);
        assert_eq!(report.aggregate.agreement_rate, 1.0);
    }

    #[test]
    fn committee_killer_scenario_defaults_targets_to_the_committee() {
        let spec = ScenarioSpec::new(
            ProtocolSpec::Committee {
                size: 5,
                seed: 12345,
            },
            "adaptive-committee-killer",
            InputPattern::Unanimous(Bit::Zero),
            30,
            3,
        )
        .trials(2)
        .limits(RunLimits::small());
        let report = spec.run().unwrap();
        // The killer silences the committee's quorum: nobody ever decides.
        assert_eq!(report.aggregate.termination_rate, 0.0);
    }

    #[test]
    fn registry_ids_are_unique_and_feasible() {
        use std::collections::BTreeSet;
        let specs = scenario_registry(Scale::Quick);
        assert!(
            specs.len() >= 30,
            "expected a rich registry, got {}",
            specs.len()
        );
        let mut ids = BTreeSet::new();
        for spec in &specs {
            assert!(ids.insert(spec.id()), "duplicate scenario id {}", spec.id());
            spec.feasibility()
                .unwrap_or_else(|err| panic!("{} infeasible: {err}", spec.id()));
        }
        // The registry exercises combinations beyond the experiments.
        let combos: BTreeSet<(String, String)> = specs
            .iter()
            .map(|s| (s.protocol.label(), s.adversary.clone()))
            .collect();
        for needed in [
            ("ben-or", "equivocating-byzantine"),
            ("bracha", "equivocating-byzantine"),
            ("bracha", "fair-round-robin"),
            ("reset-tolerant", "targeted-reset"),
            ("ben-or", "withholding-crash"),
        ] {
            assert!(
                combos.contains(&(needed.0.to_string(), needed.1.to_string())),
                "registry must include {needed:?}"
            );
        }
    }
}
