//! The partial-synchrony engine: eventual synchrony with omission faults,
//! the "curtailed adversary" counterpart to the paper's two strong models.
//!
//! The adversary schedules freely (deliver, crash, stall) before its chosen
//! global stabilization time; from GST on, the
//! [`PartialSyncScheduler`](crate::exec::PartialSyncScheduler) *enforces*
//! delivery of every pending message within the adversary's declared bound Δ
//! — the adversary may still omit messages from up to `t` senders, and
//! nothing more. [`PartialSyncEngine`] is a thin alias of the generic
//! [`Engine`](crate::Engine) facade bound to [`PartialSyncModel`].
//!
//! Running time is measured in steps and the chain metric is the causal
//! depth at the first decision — the same scale as the fully asynchronous
//! model, so "strong adversary vs curtailed adversary" comparisons are
//! direct.

use agreement_model::{FullTrace, InputAssignment, ProtocolBuilder, Recorder, SystemConfig};

use crate::adversary::PartialSyncAdversary;
use crate::engine::{Engine, PartialSyncModel};
use crate::exec::PartialSyncScheduler;
use crate::metrics::{NoProbe, Probe};
use crate::outcome::{RunLimits, RunOutcome};

/// An execution of the partial-synchrony model: the generic [`Engine`]
/// facade bound to [`PartialSyncModel`].
pub type PartialSyncEngine<P = NoProbe, R = FullTrace> = Engine<PartialSyncModel, P, R>;

impl<P: Probe, R: Recorder> Engine<PartialSyncModel, P, R> {
    /// Number of adversary steps taken so far.
    pub fn steps_elapsed(&self) -> u64 {
        self.time()
    }

    /// Executes one partial-synchrony step: discretionary adversary action
    /// plus the scheduler's post-GST bounded-delay enforcement. Returns
    /// `false` once the execution has halted.
    pub fn step(&mut self, adversary: &mut dyn PartialSyncAdversary) -> bool {
        PartialSyncScheduler::new(adversary).step_partial_sync(self.core_mut())
    }
}

/// Convenience: build a fresh trace-keeping core, run it against `adversary`,
/// return the outcome. Equivalent to driving a [`PartialSyncEngine`].
pub fn run_partial_sync(
    cfg: SystemConfig,
    inputs: InputAssignment,
    builder: &dyn ProtocolBuilder,
    adversary: &mut dyn PartialSyncAdversary,
    master_seed: u64,
    limits: RunLimits,
) -> RunOutcome {
    let mut core = crate::exec::ExecutionCore::new(cfg, inputs, builder, master_seed);
    let mut scheduler = PartialSyncScheduler::new(adversary);
    core.run(&mut scheduler, limits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        BenignEventualAdversary, PartialSyncAction, PartialSyncAdversary, SystemView,
    };
    use agreement_model::{Bit, Context, Payload, ProcessorId, Protocol, StateDigest};

    /// Waits for `n - t` round-1 reports (its own included) and decides the
    /// majority value among them.
    #[derive(Debug)]
    struct QuorumMajority {
        input: Bit,
        zeros: usize,
        ones: usize,
        quorum: usize,
        decided: Option<Bit>,
    }

    impl Protocol for QuorumMajority {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.broadcast(Payload::Report {
                round: 1,
                value: self.input,
            });
        }

        fn on_message(&mut self, _from: ProcessorId, payload: &Payload, ctx: &mut dyn Context) {
            if self.decided.is_some() {
                return;
            }
            if let Payload::Report { round: 1, value } = payload {
                match value {
                    Bit::Zero => self.zeros += 1,
                    Bit::One => self.ones += 1,
                }
                if self.zeros + self.ones >= self.quorum {
                    let v = if self.ones >= self.zeros {
                        Bit::One
                    } else {
                        Bit::Zero
                    };
                    self.decided = Some(v);
                    ctx.decide(v);
                }
            }
        }

        fn digest(&self) -> StateDigest {
            StateDigest {
                round: Some(1),
                estimate: Some(self.input),
                decided: self.decided,
                reset_count: 0,
                phase: "quorum-majority",
            }
        }
    }

    #[derive(Debug)]
    struct QuorumBuilder;

    impl ProtocolBuilder for QuorumBuilder {
        fn name(&self) -> &'static str {
            "quorum-majority"
        }

        fn build(&self, _id: ProcessorId, input: Bit, cfg: &SystemConfig) -> Box<dyn Protocol> {
            Box::new(QuorumMajority {
                input,
                zeros: 0,
                ones: 0,
                quorum: cfg.quorum(),
                decided: None,
            })
        }
    }

    /// Stalls forever with the given parameters: every delivery that happens
    /// is the scheduler's enforcement, never the adversary's choice.
    struct Stonewall {
        gst: u64,
        delta: u64,
        omitted: Vec<ProcessorId>,
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
            PartialSyncAction::Stall
        }
    }

    #[test]
    fn benign_eventual_schedule_reaches_decision() {
        let cfg = SystemConfig::new(5, 1).unwrap();
        let inputs = InputAssignment::unanimous(5, Bit::Zero);
        let outcome = run_partial_sync(
            cfg,
            inputs.clone(),
            &QuorumBuilder,
            &mut BenignEventualAdversary::default(),
            42,
            RunLimits::small(),
        );
        assert!(outcome.all_correct_decided());
        assert_eq!(outcome.decided_value(), Some(Bit::Zero));
        assert!(outcome.is_correct(&inputs));
        assert!(outcome.longest_chain >= 1);
    }

    #[test]
    fn the_model_forces_decisions_out_of_a_stonewalling_adversary() {
        // The adversary never delivers anything by choice. After GST the
        // bounded-delay enforcement delivers the backlog regardless, so the
        // quorum protocol still terminates — this is exactly the curtailment
        // the partial-synchrony model exists to demonstrate.
        let cfg = SystemConfig::new(5, 1).unwrap();
        let inputs = InputAssignment::unanimous(5, Bit::One);
        let mut adversary = Stonewall {
            gst: 40,
            delta: 5,
            omitted: Vec::new(),
        };
        let outcome = run_partial_sync(
            cfg,
            inputs.clone(),
            &QuorumBuilder,
            &mut adversary,
            7,
            RunLimits::small(),
        );
        assert!(outcome.all_correct_decided());
        assert!(outcome.is_correct(&inputs));
        // Nothing can be delivered before GST, so no decision before it; the
        // first batch of forced deliveries lands at gst + delta.
        assert!(outcome.first_decision_at.unwrap() >= 45);
        assert!(
            outcome.all_decided_at.unwrap() <= 60,
            "decided soon after GST"
        );
    }

    #[test]
    fn before_gst_nothing_is_forced() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let inputs = InputAssignment::unanimous(4, Bit::One);
        let mut engine = PartialSyncEngine::new(cfg, inputs, &QuorumBuilder, 3);
        let mut adversary = Stonewall {
            gst: 1_000,
            delta: 1,
            omitted: Vec::new(),
        };
        for _ in 0..50 {
            assert!(engine.step(&mut adversary));
        }
        // All 16 initial broadcasts are still pending: the adversary's
        // pre-GST freedom to withhold is intact.
        assert_eq!(engine.core().buffer().pending_total(), 16);
        assert!(!engine.all_correct_decided());
    }

    #[test]
    fn omission_faults_are_honoured_but_capped_at_t() {
        // The adversary declares three omitted senders with t = 1: only the
        // first is honoured, so n - 1 = 4 senders still reach everyone and
        // the quorum of 4 is met.
        let cfg = SystemConfig::new(5, 1).unwrap();
        let inputs = InputAssignment::unanimous(5, Bit::Zero);
        let mut adversary = Stonewall {
            gst: 0,
            delta: 3,
            omitted: vec![
                ProcessorId::new(0),
                ProcessorId::new(1),
                ProcessorId::new(2),
            ],
        };
        let outcome = run_partial_sync(
            cfg,
            inputs.clone(),
            &QuorumBuilder,
            &mut adversary,
            11,
            RunLimits::small(),
        );
        assert!(outcome.all_correct_decided());
        assert!(outcome.is_correct(&inputs));
        // Processor 0's five messages were omitted (never delivered), and
        // only those: the other 20 initial reports all arrived.
        assert_eq!(outcome.metrics.messages_delivered, 20);
    }

    #[test]
    fn stepwise_and_run_produce_identical_outcomes() {
        let cfg = SystemConfig::new(5, 1).unwrap();
        let inputs = InputAssignment::evenly_split(5);
        let run_outcome = run_partial_sync(
            cfg,
            inputs.clone(),
            &QuorumBuilder,
            &mut BenignEventualAdversary::default(),
            17,
            RunLimits::small(),
        );
        let mut engine = PartialSyncEngine::new(cfg, inputs, &QuorumBuilder, 17);
        let mut adversary = BenignEventualAdversary::default();
        while !engine.all_correct_decided()
            && engine.steps_elapsed() < RunLimits::small().max_steps
            && engine.step(&mut adversary)
        {}
        let stepped = engine.outcome();
        assert_eq!(stepped.decisions, run_outcome.decisions);
        assert_eq!(stepped.duration, run_outcome.duration);
        assert_eq!(stepped.first_decision_at, run_outcome.first_decision_at);
        assert_eq!(stepped.all_decided_at, run_outcome.all_decided_at);
        assert_eq!(stepped.longest_chain, run_outcome.longest_chain);
        assert_eq!(
            stepped.metrics.messages_sent,
            run_outcome.metrics.messages_sent
        );
        assert_eq!(
            stepped.metrics.messages_delivered,
            run_outcome.metrics.messages_delivered
        );
    }
}
