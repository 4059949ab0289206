//! Reusable per-worker trial state for campaign runners.
//!
//! A campaign runs thousands of seeded trials, each of which used to build a
//! brand-new [`ExecutionCore`](crate::ExecutionCore): a harness vector, the
//! buffer's send logs, cursor rows and index queues, and assorted scratch
//! vectors —
//! allocated, warmed up, and thrown away per trial. A [`TrialWorkspace`] is
//! the retained version of all of that: each campaign worker thread owns one
//! and runs every trial it claims inside it, so the allocations of trial `k`
//! are the warm starting point of trial `k + 1`
//! ([`ExecutionCore::reinit`](crate::ExecutionCore::reinit) re-initializes
//! the state in place — the protocol instances included, wherever the
//! trial's builder recognizes the previous trial's as its own:
//! [`ProtocolBuilder::rebuild`]).
//!
//! The workspace runs its executions with [`NoProbe`](crate::NoProbe):
//! campaign trials are distilled into records, so nothing observes them and
//! every probe hook monomorphizes away. The results are **bit-identical** to
//! the allocate-per-trial path (`run_windowed` / `run_async`); the
//! equivalence tests pin that down across both schedulers.

use agreement_model::{InputAssignment, ProtocolBuilder, SystemConfig};

use crate::buffer::BufferChoice;
use crate::engine::BuiltAdversary;
use crate::exec::ExecutionCore;
use crate::outcome::{RunLimits, RunOutcome};

/// One worker's reusable execution state: an un-instrumented
/// [`ExecutionCore`] whose allocations persist across trials.
#[derive(Debug, Default)]
pub struct TrialWorkspace {
    /// Created lazily by the first trial, re-initialized in place by every
    /// trial after it.
    core: Option<ExecutionCore>,
}

impl TrialWorkspace {
    /// An empty workspace; the first trial pays the one-time construction.
    pub fn new() -> Self {
        TrialWorkspace::default()
    }

    /// Does nothing: the message buffer has one channel layout (see
    /// [`BufferChoice`]).
    pub fn set_buffer_choice(&mut self, _choice: BufferChoice) {}

    /// The core, re-initialized for a fresh trial with the given parameters.
    fn core_for(
        &mut self,
        cfg: SystemConfig,
        inputs: &InputAssignment,
        builder: &dyn ProtocolBuilder,
        master_seed: u64,
    ) -> &mut ExecutionCore {
        match &mut self.core {
            Some(core) => core.reinit(cfg, inputs, builder, master_seed),
            slot @ None => {
                *slot = Some(ExecutionCore::new(
                    cfg,
                    inputs.clone(),
                    builder,
                    master_seed,
                ));
            }
        }
        self.core.as_mut().expect("workspace core just initialized")
    }

    /// Runs one trial of *any* execution model inside this workspace: the
    /// entry point campaign workers use. [`BuiltAdversary::run`] picks the
    /// model's scheduler, so no caller matches on the model. Same results as
    /// the fresh-core
    /// [`run_windowed`](crate::run_windowed) / [`run_async`](crate::run_async)
    /// / [`run_partial_sync`](crate::run_partial_sync); no per-trial
    /// allocation of core state.
    pub fn run_built(
        &mut self,
        cfg: SystemConfig,
        inputs: &InputAssignment,
        builder: &dyn ProtocolBuilder,
        adversary: &mut BuiltAdversary,
        master_seed: u64,
        limits: RunLimits,
    ) -> RunOutcome {
        let core = self.core_for(cfg, inputs, builder, master_seed);
        adversary.run(core, limits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{FairAsyncAdversary, FullDeliveryAdversary};
    use crate::engine::{run_async, run_windowed};
    use crate::exec::testkit::MajorityBuilder;
    use agreement_model::Bit;

    #[test]
    fn reused_workspace_matches_fresh_runs_across_seeds() {
        let cfg = SystemConfig::new(5, 0).unwrap();
        let inputs = InputAssignment::evenly_split(5);
        let mut ws = TrialWorkspace::new();
        for seed in 0..6 {
            let reused = ws.run_built(
                cfg,
                &inputs,
                &MajorityBuilder,
                &mut BuiltAdversary::windowed(Box::new(FullDeliveryAdversary)),
                seed,
                RunLimits::small(),
            );
            let fresh = run_windowed(
                cfg,
                inputs.clone(),
                &MajorityBuilder,
                &mut FullDeliveryAdversary,
                seed,
                RunLimits::small(),
            );
            assert_eq!(reused, fresh, "seed {seed}");
        }
    }

    #[test]
    fn workspace_alternates_models_without_state_leaking() {
        let cfg = SystemConfig::new(4, 0).unwrap();
        let inputs = InputAssignment::unanimous(4, Bit::One);
        let mut ws = TrialWorkspace::new();
        for seed in [3u64, 9, 27] {
            let windowed = ws.run_built(
                cfg,
                &inputs,
                &MajorityBuilder,
                &mut BuiltAdversary::windowed(Box::new(FullDeliveryAdversary)),
                seed,
                RunLimits::small(),
            );
            let asynchronous = ws.run_built(
                cfg,
                &inputs,
                &MajorityBuilder,
                &mut BuiltAdversary::asynchronous(Box::new(FairAsyncAdversary::default())),
                seed,
                RunLimits::small(),
            );
            assert_eq!(
                windowed,
                run_windowed(
                    cfg,
                    inputs.clone(),
                    &MajorityBuilder,
                    &mut FullDeliveryAdversary,
                    seed,
                    RunLimits::small(),
                )
            );
            assert_eq!(
                asynchronous,
                run_async(
                    cfg,
                    inputs.clone(),
                    &MajorityBuilder,
                    &mut FairAsyncAdversary::default(),
                    seed,
                    RunLimits::small(),
                )
            );
            assert_eq!(windowed.metrics.steps, 0);
            assert_eq!(asynchronous.metrics.windows, 0);
        }
    }

    #[test]
    fn workspace_handles_changing_system_sizes() {
        let mut ws = TrialWorkspace::new();
        for n in [3usize, 7, 5] {
            let cfg = SystemConfig::new(n, 0).unwrap();
            let inputs = InputAssignment::unanimous(n, Bit::Zero);
            let outcome = ws.run_built(
                cfg,
                &inputs,
                &MajorityBuilder,
                &mut BuiltAdversary::windowed(Box::new(FullDeliveryAdversary)),
                1,
                RunLimits::small(),
            );
            assert_eq!(outcome.decisions.len(), n);
            assert!(outcome.all_correct_decided());
            assert_eq!(outcome.metrics.messages_sent, (n * n) as u64);
        }
    }
}
