//! The open execution-model axis: a compile-time [`ExecutionModel`] marker
//! and a runtime [`ModelDescriptor`] per model, and model-erased
//! [`BuiltAdversary`] instances the data-driven layers dispatch through.
//!
//! The paper's results are parameterized by *adversary power*: the strongly
//! adaptive window model (Section 2), full asynchrony (Section 5), and — in
//! the follow-up literature — weaker, curtailed adversaries such as eventual
//! synchrony. This module makes that axis open-ended instead of a closed
//! two-variant enum:
//!
//! * [`ExecutionModel`] is the compile-time face of a model: a marker type
//!   binding an adversary trait object to the scheduler that drives it
//!   ([`WindowModel`], [`AsyncModel`], [`PartialSyncModel`]). Everything the
//!   simulator knows about "which model is this" flows through these
//!   associated items; nothing matches on a model enum.
//! * [`ModelDescriptor`] is the runtime face: a named descriptor (id,
//!   applicable [`RunLimits`] cap) that registries, scenario specs and
//!   reports carry instead of an enum variant. Descriptors compare by id.
//! * [`BuiltAdversary`] is a model-erased adversary instance: the adversary
//!   factories of `agreement-adversary` return one, and campaign workers run
//!   it against a workspace core without knowing (or matching on) its model.
//! * [`run_windowed`], [`run_async`] and [`run_partial_sync`] run one fresh,
//!   trace-keeping execution against a concrete adversary. Step-wise driving
//!   needs no facade: [`Scheduler::on_start`](crate::Scheduler::on_start),
//!   [`Scheduler::step`](crate::Scheduler::step) and
//!   [`ExecutionCore::outcome_with`] are that API.
//!
//! Adding a fourth model therefore touches exactly one axis: implement a
//! `Scheduler`, declare a marker type + descriptor here (or in your own
//! crate — the machinery is generic), and register factories that return
//! [`BuiltAdversary::bind`]-wrapped instances. See DESIGN.md §2 for the
//! partial-synchrony model as a worked example.

use std::any::Any;

use agreement_model::{
    FullTrace, InputAssignment, NoTrace, ProtocolBuilder, Recorder, SystemConfig,
};

use crate::adversary::{AsyncAdversary, PartialSyncAdversary, WindowAdversary};
use crate::exec::{AsyncScheduler, ExecutionCore, PartialSyncScheduler, WindowScheduler};
use crate::metrics::{NoProbe, Probe};
use crate::outcome::{RunLimits, RunOutcome};

/// The runtime identity of an execution model: what registries, scenario
/// specs and reports carry instead of a closed enum variant.
///
/// Two descriptors are equal iff their [`id`](ModelDescriptor::id)s are; the
/// canonical instances ([`WINDOWED`], [`ASYNC`], [`PARTIAL_SYNC`]) live
/// behind [`ExecutionModel::descriptor`].
#[derive(Debug)]
pub struct ModelDescriptor {
    id: &'static str,
    time_cap: fn(&RunLimits) -> u64,
}

impl ModelDescriptor {
    /// Declares a descriptor. `time_cap` selects which [`RunLimits`] field
    /// caps this model's unit of scheduled time.
    pub const fn new(id: &'static str, time_cap: fn(&RunLimits) -> u64) -> Self {
        ModelDescriptor { id, time_cap }
    }

    /// The stable machine-readable id (`"windowed"`, `"async"`,
    /// `"partial-sync"`). This is the string reports and scenario metadata
    /// print.
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// The cap from `limits` that applies to this model's time unit.
    pub fn time_cap(&self, limits: &RunLimits) -> u64 {
        (self.time_cap)(limits)
    }
}

impl PartialEq for ModelDescriptor {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for ModelDescriptor {}

impl std::hash::Hash for ModelDescriptor {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl std::fmt::Display for ModelDescriptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id)
    }
}

fn cap_windows(limits: &RunLimits) -> u64 {
    limits.max_windows
}

fn cap_steps(limits: &RunLimits) -> u64 {
    limits.max_steps
}

/// The strongly adaptive acceptable-window model of Section 2.
pub static WINDOWED: ModelDescriptor = ModelDescriptor::new("windowed", cap_windows);

/// The fully asynchronous crash/Byzantine model of Section 5.
pub static ASYNC: ModelDescriptor = ModelDescriptor::new("async", cap_steps);

/// The partial-synchrony (eventual-synchrony, omission-fault) model: free
/// scheduling before an adversary-chosen GST, bounded-delay delivery after.
pub static PARTIAL_SYNC: ModelDescriptor = ModelDescriptor::new("partial-sync", cap_steps);

/// The compile-time face of an execution model: binds an adversary trait
/// object to the scheduler that drives it and to the model's
/// [`ModelDescriptor`].
///
/// A model implementation composes [`ExecutionCore`] primitives through a
/// `Scheduler`; this trait is the static glue [`BuiltAdversary`] dispatches
/// through, so no layer above the schedulers needs to enumerate models.
pub trait ExecutionModel: 'static {
    /// The adversary trait object this model's scheduler consults.
    type Adversary: ?Sized + 'static;

    /// The model's runtime descriptor.
    fn descriptor() -> &'static ModelDescriptor;

    /// Runs `core` under `adversary` until every correct processor decided,
    /// the adversary halted, or the model's time cap from `limits` elapsed.
    fn run<P: Probe, R: Recorder>(
        core: &mut ExecutionCore<P, R>,
        adversary: &mut Self::Adversary,
        limits: RunLimits,
    ) -> RunOutcome;

    /// The name of a concrete adversary of this model.
    fn adversary_name(adversary: &Self::Adversary) -> &'static str;
}

/// Marker type of the strongly adaptive acceptable-window model.
///
/// The adversary is constrained to executions that decompose into adjacent,
/// disjoint *acceptable windows* (Definition 1); the
/// [`WindowScheduler`] assembles one per unit of time: a sending step for
/// every non-crashed processor, the adversary's choice of reset set `R` and
/// delivery sets `S_1, ..., S_n` under full information (validated against
/// the definition), each processor `i` receiving what the senders in `S_i`
/// just sent (the rest is never delivered), then the resets in `R`. Running
/// time is measured in windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowModel;

impl ExecutionModel for WindowModel {
    type Adversary = dyn WindowAdversary;

    fn descriptor() -> &'static ModelDescriptor {
        &WINDOWED
    }

    fn run<P: Probe, R: Recorder>(
        core: &mut ExecutionCore<P, R>,
        adversary: &mut Self::Adversary,
        limits: RunLimits,
    ) -> RunOutcome {
        let mut scheduler = WindowScheduler::new(adversary);
        core.run(&mut scheduler, limits)
    }

    fn adversary_name(adversary: &Self::Adversary) -> &'static str {
        adversary.name()
    }
}

/// Marker type of the fully asynchronous crash/Byzantine model.
///
/// The adversary chooses one step at a time — deliver a buffered message,
/// crash a processor, corrupt an in-flight message of a corrupted processor,
/// or halt — under one structural constraint the core enforces: at most `t`
/// processors crashed or corrupted over the execution. Liveness is the
/// adversary implementation's responsibility; the run limits bound the wait.
/// Running time is the longest *message chain* preceding the first decision:
/// `m_1, ..., m_k` with `m_i` received by the sender of `m_{i+1}` before
/// `m_{i+1}` is sent, computed exactly from the causal depth the core tags
/// every buffered message with.
#[derive(Debug, Clone, Copy, Default)]
pub struct AsyncModel;

impl ExecutionModel for AsyncModel {
    type Adversary = dyn AsyncAdversary;

    fn descriptor() -> &'static ModelDescriptor {
        &ASYNC
    }

    fn run<P: Probe, R: Recorder>(
        core: &mut ExecutionCore<P, R>,
        adversary: &mut Self::Adversary,
        limits: RunLimits,
    ) -> RunOutcome {
        let mut scheduler = AsyncScheduler::new(adversary);
        core.run(&mut scheduler, limits)
    }

    fn adversary_name(adversary: &Self::Adversary) -> &'static str {
        adversary.name()
    }
}

/// Marker type of the partial-synchrony (eventual-synchrony) model, the
/// "curtailed adversary" counterpart to the paper's two strong models.
///
/// The adversary schedules freely before its chosen global stabilization
/// time; from GST on the [`PartialSyncScheduler`] *enforces* delivery of
/// every pending message within the adversary's declared bound Δ, except
/// messages from up to `t` omission-faulty senders. Time and the chain metric
/// are on the asynchronous model's scale, so the two compare directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartialSyncModel;

impl ExecutionModel for PartialSyncModel {
    type Adversary = dyn PartialSyncAdversary;

    fn descriptor() -> &'static ModelDescriptor {
        &PARTIAL_SYNC
    }

    fn run<P: Probe, R: Recorder>(
        core: &mut ExecutionCore<P, R>,
        adversary: &mut Self::Adversary,
        limits: RunLimits,
    ) -> RunOutcome {
        let mut scheduler = PartialSyncScheduler::new(adversary);
        core.run(&mut scheduler, limits)
    }

    fn adversary_name(adversary: &Self::Adversary) -> &'static str {
        adversary.name()
    }
}

/// Builds a fresh trace-keeping core, runs it against the window adversary
/// `adversary` and returns the outcome.
pub fn run_windowed(
    cfg: SystemConfig,
    inputs: InputAssignment,
    builder: &dyn ProtocolBuilder,
    adversary: &mut dyn WindowAdversary,
    master_seed: u64,
    limits: RunLimits,
) -> RunOutcome {
    let mut core = ExecutionCore::new(cfg, inputs, builder, master_seed);
    let mut scheduler = WindowScheduler::new(adversary);
    core.run(&mut scheduler, limits)
}

/// Builds a fresh trace-keeping core, runs it against the asynchronous
/// adversary `adversary` and returns the outcome.
pub fn run_async(
    cfg: SystemConfig,
    inputs: InputAssignment,
    builder: &dyn ProtocolBuilder,
    adversary: &mut dyn AsyncAdversary,
    master_seed: u64,
    limits: RunLimits,
) -> RunOutcome {
    let mut core = ExecutionCore::new(cfg, inputs, builder, master_seed);
    let mut scheduler = AsyncScheduler::new(adversary);
    core.run(&mut scheduler, limits)
}

/// Builds a fresh trace-keeping core, runs it against the partial-synchrony
/// adversary `adversary` and returns the outcome.
pub fn run_partial_sync(
    cfg: SystemConfig,
    inputs: InputAssignment,
    builder: &dyn ProtocolBuilder,
    adversary: &mut dyn PartialSyncAdversary,
    master_seed: u64,
    limits: RunLimits,
) -> RunOutcome {
    let mut core = ExecutionCore::new(cfg, inputs, builder, master_seed);
    let mut scheduler = PartialSyncScheduler::new(adversary);
    core.run(&mut scheduler, limits)
}

/// A model-erased adversary instance: what an
/// `AdversaryFactory` builds and what campaign workers run, without any
/// layer in between matching on the model.
///
/// A built adversary bundles a boxed adversary trait object with its
/// [`ExecutionModel`] glue; [`BuiltAdversary::run`] (campaign cores) and
/// [`BuiltAdversary::run_traced`] (diagnostic cores) drive a core through
/// the model's scheduler. The model-specific boxes can be recovered with
/// [`BuiltAdversary::into_model`] where a caller genuinely needs one (e.g.
/// to drive a scheduler step by step).
pub struct BuiltAdversary {
    inner: Box<dyn ErasedAdversary>,
}

impl std::fmt::Debug for BuiltAdversary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltAdversary")
            .field("model", &self.model().id())
            .field("name", &self.name())
            .finish()
    }
}

/// Object-safe projection of [`ExecutionModel`] over a concrete boxed
/// adversary. The two `run_*` entry points cover the only probe/recorder
/// combinations the data-driven layers use: trace-free campaign cores and
/// trace-keeping diagnostic cores. (Probe-instrumented runs drive an
/// [`ExecutionCore`] with a scheduler directly.)
trait ErasedAdversary: Any {
    fn model(&self) -> &'static ModelDescriptor;
    fn name(&self) -> &'static str;
    fn run_campaign(
        &mut self,
        core: &mut ExecutionCore<NoProbe, NoTrace>,
        limits: RunLimits,
    ) -> RunOutcome;
    fn run_traced(
        &mut self,
        core: &mut ExecutionCore<NoProbe, FullTrace>,
        limits: RunLimits,
    ) -> RunOutcome;
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// A boxed adversary bound to its model's static glue.
struct Bound<M: ExecutionModel> {
    adversary: Box<M::Adversary>,
}

impl<M: ExecutionModel> ErasedAdversary for Bound<M> {
    fn model(&self) -> &'static ModelDescriptor {
        M::descriptor()
    }

    fn name(&self) -> &'static str {
        M::adversary_name(&self.adversary)
    }

    fn run_campaign(
        &mut self,
        core: &mut ExecutionCore<NoProbe, NoTrace>,
        limits: RunLimits,
    ) -> RunOutcome {
        M::run(core, &mut self.adversary, limits)
    }

    fn run_traced(
        &mut self,
        core: &mut ExecutionCore<NoProbe, FullTrace>,
        limits: RunLimits,
    ) -> RunOutcome {
        M::run(core, &mut self.adversary, limits)
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl BuiltAdversary {
    /// Binds a boxed adversary to its model. This is the open extension
    /// point: any [`ExecutionModel`] works, including ones declared outside
    /// this crate.
    pub fn bind<M: ExecutionModel>(adversary: Box<M::Adversary>) -> Self {
        BuiltAdversary {
            inner: Box::new(Bound::<M> { adversary }),
        }
    }

    /// A strongly adaptive acceptable-window scheduler (Section 2).
    pub fn windowed(adversary: Box<dyn WindowAdversary>) -> Self {
        BuiltAdversary::bind::<WindowModel>(adversary)
    }

    /// A fully asynchronous step scheduler (Section 5).
    pub fn asynchronous(adversary: Box<dyn AsyncAdversary>) -> Self {
        BuiltAdversary::bind::<AsyncModel>(adversary)
    }

    /// A partial-synchrony scheduler (eventual synchrony with omissions).
    pub fn partial_sync(adversary: Box<dyn PartialSyncAdversary>) -> Self {
        BuiltAdversary::bind::<PartialSyncModel>(adversary)
    }

    /// The model this instance schedules.
    pub fn model(&self) -> &'static ModelDescriptor {
        self.inner.model()
    }

    /// The instance's human-readable name.
    pub fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// Runs one full execution on a trace-free campaign core.
    pub fn run(
        &mut self,
        core: &mut ExecutionCore<NoProbe, NoTrace>,
        limits: RunLimits,
    ) -> RunOutcome {
        self.inner.run_campaign(core, limits)
    }

    /// Runs one full execution on a trace-keeping diagnostic core.
    pub fn run_traced(
        &mut self,
        core: &mut ExecutionCore<NoProbe, FullTrace>,
        limits: RunLimits,
    ) -> RunOutcome {
        self.inner.run_traced(core, limits)
    }

    /// Recovers the boxed model-specific adversary, if this instance belongs
    /// to model `M`.
    pub fn into_model<M: ExecutionModel>(self) -> Option<Box<M::Adversary>> {
        self.inner
            .into_any()
            .downcast::<Bound<M>>()
            .ok()
            .map(|bound| bound.adversary)
    }

    /// Unwraps a windowed scheduler; `None` for other models.
    pub fn into_window(self) -> Option<Box<dyn WindowAdversary>> {
        self.into_model::<WindowModel>()
    }

    /// Unwraps an asynchronous scheduler; `None` for other models.
    pub fn into_async(self) -> Option<Box<dyn AsyncAdversary>> {
        self.into_model::<AsyncModel>()
    }

    /// Unwraps a partial-synchrony scheduler; `None` for other models.
    pub fn into_partial_sync(self) -> Option<Box<dyn PartialSyncAdversary>> {
        self.into_model::<PartialSyncModel>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{BenignEventualAdversary, FairAsyncAdversary, FullDeliveryAdversary};

    #[test]
    fn descriptors_compare_by_id_and_display_their_id() {
        assert_eq!(&WINDOWED, &WINDOWED);
        assert_ne!(&WINDOWED, &ASYNC);
        assert_eq!(WINDOWED.to_string(), "windowed");
        assert_eq!(ASYNC.to_string(), "async");
        assert_eq!(PARTIAL_SYNC.to_string(), "partial-sync");
    }

    #[test]
    fn time_caps_select_the_right_limit_field() {
        let limits = RunLimits {
            max_windows: 7,
            max_steps: 99,
        };
        assert_eq!(WINDOWED.time_cap(&limits), 7);
        assert_eq!(ASYNC.time_cap(&limits), 99);
        assert_eq!(PARTIAL_SYNC.time_cap(&limits), 99);
    }

    #[test]
    fn built_adversaries_report_model_and_name_and_downcast() {
        let built = BuiltAdversary::windowed(Box::new(FullDeliveryAdversary));
        assert_eq!(built.model(), &WINDOWED);
        assert_eq!(built.name(), "full-delivery");
        assert!(built.into_window().is_some());

        let built = BuiltAdversary::asynchronous(Box::new(FairAsyncAdversary::default()));
        assert_eq!(built.model(), &ASYNC);
        assert!(built.into_partial_sync().is_none());

        let built = BuiltAdversary::partial_sync(Box::new(BenignEventualAdversary::default()));
        assert_eq!(built.model(), &PARTIAL_SYNC);
        assert_eq!(built.name(), "benign-eventual");
        assert!(built.into_partial_sync().is_some());
    }
}
