//! The three execution models: a [`ModelDescriptor`] per model, the
//! [`BuiltAdversary`] instances the data-driven layers run, and the
//! fresh-core convenience runners.
//!
//! The paper's results are stated over a *closed* set of adversary powers:
//! the strongly adaptive window model (Section 2), full asynchrony
//! (Section 5), and — as the curtailed contrast — eventual synchrony. Each is
//! one arm of the [`Scheduler`] enum over the shared [`ExecutionCore`]; this
//! module names them and owns their adversaries:
//!
//! * [`ModelDescriptor`] names a model (id, applicable [`RunLimits`] cap):
//!   what registries, scenario specs and reports carry. The canonical
//!   instances are [`WINDOWED`], [`ASYNC`] and [`PARTIAL_SYNC`].
//! * [`BuiltAdversary`] is a boxed adversary of one of the three models: the
//!   adversary factories of `agreement-adversary` return one, and
//!   [`BuiltAdversary::scheduler`] lends it as the [`Scheduler`] that drives
//!   a core, so no layer above this file matches on the model.
//! * [`run_windowed`], [`run_async`] and [`run_partial_sync`] run one fresh,
//!   trace-keeping execution against a concrete adversary. Step-wise driving
//!   needs no facade: [`Scheduler::start`], [`Scheduler::step`] and
//!   [`Scheduler::outcome`] are that API.
//!
//! Adding a fourth model means a variant of [`ModelDescriptor`],
//! [`BuiltAdversary`] and [`Scheduler`] with their arms, one step function,
//! and rows in the adversary table of `agreement-adversary`. See DESIGN.md
//! §2 for the partial-synchrony model as a worked example.

use agreement_model::{InputAssignment, ProtocolBuilder, Recorder, SystemConfig};

use crate::adversary::{AsyncAdversary, PartialSyncAdversary, WindowAdversary};
use crate::exec::{ExecutionCore, Scheduler};
use crate::metrics::Probe;
use crate::outcome::{RunLimits, RunOutcome};

/// The identity of an execution model: what registries, scenario specs and
/// reports carry. The canonical instances are [`WINDOWED`], [`ASYNC`] and
/// [`PARTIAL_SYNC`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelDescriptor {
    /// See [`WINDOWED`].
    Windowed,
    /// See [`ASYNC`].
    Asynchronous,
    /// See [`PARTIAL_SYNC`].
    PartialSync,
}

impl ModelDescriptor {
    /// The stable machine-readable id (`"windowed"`, `"async"`,
    /// `"partial-sync"`). This is the string reports and scenario metadata
    /// print.
    pub fn id(&self) -> &'static str {
        match self {
            ModelDescriptor::Windowed => "windowed",
            ModelDescriptor::Asynchronous => "async",
            ModelDescriptor::PartialSync => "partial-sync",
        }
    }

    /// The cap from `limits` that applies to this model's time unit.
    pub fn time_cap(&self, limits: &RunLimits) -> u64 {
        match self {
            ModelDescriptor::Windowed => limits.max_windows,
            ModelDescriptor::Asynchronous | ModelDescriptor::PartialSync => limits.max_steps,
        }
    }
}

impl std::fmt::Display for ModelDescriptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// The strongly adaptive acceptable-window model of Section 2.
///
/// The adversary is constrained to executions that decompose into adjacent,
/// disjoint *acceptable windows* (Definition 1); the [`Scheduler::Windowed`]
/// arm assembles one per unit of time: a sending step for every non-crashed
/// processor, the adversary's choice of reset set `R` and delivery sets
/// `S_1, ..., S_n` under full information (validated against the
/// definition), each processor `i` receiving what the senders in `S_i` just
/// sent (the rest is never delivered), then the resets in `R`. Running time
/// is measured in windows.
pub static WINDOWED: ModelDescriptor = ModelDescriptor::Windowed;

/// The fully asynchronous crash/Byzantine model of Section 5.
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
pub static ASYNC: ModelDescriptor = ModelDescriptor::Asynchronous;

/// The partial-synchrony (eventual-synchrony, omission-fault) model, the
/// "curtailed adversary" counterpart to the paper's two strong models.
///
/// The adversary schedules freely before its chosen global stabilization
/// time; from GST on the [`Scheduler::PartialSync`] arm *enforces* delivery
/// of every pending message within the adversary's declared bound Δ, except
/// messages from up to `t` omission-faulty senders. Time and the chain
/// metric are on the asynchronous model's scale, so the two compare
/// directly.
pub static PARTIAL_SYNC: ModelDescriptor = ModelDescriptor::PartialSync;

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
    Scheduler::Windowed(adversary).run(&mut core, limits)
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
    Scheduler::Asynchronous(adversary).run(&mut core, limits)
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
    Scheduler::PartialSync(adversary).run(&mut core, limits)
}

/// A boxed adversary of one of the three execution models: what an
/// `AdversaryFactory` builds and what campaign workers run.
///
/// [`BuiltAdversary::run`] drives any core — whatever its probe and recorder
/// — through the model's [`Scheduler`], so no layer above this file matches
/// on the model; [`BuiltAdversary::scheduler`] lends that scheduler for
/// step-by-step driving. The model-specific boxes can be recovered with
/// [`BuiltAdversary::into_window`] and its siblings where a caller genuinely
/// needs one (e.g. to wrap the adversary).
pub enum BuiltAdversary {
    /// A strongly adaptive acceptable-window adversary ([`WINDOWED`]).
    Windowed(Box<dyn WindowAdversary>),
    /// A fully asynchronous step adversary ([`ASYNC`]).
    Asynchronous(Box<dyn AsyncAdversary>),
    /// A partial-synchrony adversary ([`PARTIAL_SYNC`]).
    PartialSync(Box<dyn PartialSyncAdversary>),
}

impl std::fmt::Debug for BuiltAdversary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltAdversary")
            .field("model", &self.model().id())
            .field("name", &self.name())
            .finish()
    }
}

impl BuiltAdversary {
    /// A strongly adaptive acceptable-window scheduler (Section 2).
    pub fn windowed(adversary: Box<dyn WindowAdversary>) -> Self {
        BuiltAdversary::Windowed(adversary)
    }

    /// A fully asynchronous step scheduler (Section 5).
    pub fn asynchronous(adversary: Box<dyn AsyncAdversary>) -> Self {
        BuiltAdversary::Asynchronous(adversary)
    }

    /// A partial-synchrony scheduler (eventual synchrony with omissions).
    pub fn partial_sync(adversary: Box<dyn PartialSyncAdversary>) -> Self {
        BuiltAdversary::PartialSync(adversary)
    }

    /// The model this instance schedules.
    pub fn model(&self) -> &'static ModelDescriptor {
        match self {
            BuiltAdversary::Windowed(_) => &WINDOWED,
            BuiltAdversary::Asynchronous(_) => &ASYNC,
            BuiltAdversary::PartialSync(_) => &PARTIAL_SYNC,
        }
    }

    /// The instance's human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            BuiltAdversary::Windowed(adversary) => adversary.name(),
            BuiltAdversary::Asynchronous(adversary) => adversary.name(),
            BuiltAdversary::PartialSync(adversary) => adversary.name(),
        }
    }

    /// This adversary, lent as the [`Scheduler`] of its model.
    pub fn scheduler(&mut self) -> Scheduler<'_> {
        match self {
            BuiltAdversary::Windowed(adversary) => Scheduler::Windowed(adversary.as_mut()),
            BuiltAdversary::Asynchronous(adversary) => Scheduler::Asynchronous(adversary.as_mut()),
            BuiltAdversary::PartialSync(adversary) => Scheduler::PartialSync(adversary.as_mut()),
        }
    }

    /// Runs `core` under this adversary until every correct processor
    /// decided, the adversary halted, or the model's time cap from `limits`
    /// elapsed.
    pub fn run<P: Probe, R: Recorder>(
        &mut self,
        core: &mut ExecutionCore<P, R>,
        limits: RunLimits,
    ) -> RunOutcome {
        self.scheduler().run(core, limits)
    }

    /// Unwraps a windowed scheduler; `None` for other models.
    pub fn into_window(self) -> Option<Box<dyn WindowAdversary>> {
        match self {
            BuiltAdversary::Windowed(adversary) => Some(adversary),
            _ => None,
        }
    }

    /// Unwraps an asynchronous scheduler; `None` for other models.
    pub fn into_async(self) -> Option<Box<dyn AsyncAdversary>> {
        match self {
            BuiltAdversary::Asynchronous(adversary) => Some(adversary),
            _ => None,
        }
    }

    /// Unwraps a partial-synchrony scheduler; `None` for other models.
    pub fn into_partial_sync(self) -> Option<Box<dyn PartialSyncAdversary>> {
        match self {
            BuiltAdversary::PartialSync(adversary) => Some(adversary),
            _ => None,
        }
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
