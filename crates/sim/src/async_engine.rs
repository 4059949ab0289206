//! The fully asynchronous engine: crash and Byzantine failures under
//! adversarial scheduling (the model of Section 5 of the paper).
//!
//! The adversary chooses one step at a time: deliver a specific buffered
//! message, crash a processor, corrupt an in-flight message of a corrupted
//! processor, or halt. The only structural constraint (enforced by the shared
//! [`ExecutionCore`](crate::ExecutionCore)) is the fault budget: at most `t`
//! processors may be crashed or corrupted over the whole execution. Liveness
//! ("all messages to correct processors are eventually delivered") is the
//! adversary implementation's responsibility; the run limits bound how long
//! we wait.
//!
//! Running time in this model is measured as the length of the longest
//! *message chain* preceding the first decision: a chain `m_1, ..., m_k` where
//! `m_i` is received by the sender of `m_{i+1}` before `m_{i+1}` is sent. The
//! core tags every buffered message with its causal depth to compute this
//! exactly.
//!
//! [`AsyncEngine`] is a thin alias of the generic [`Engine`](crate::Engine)
//! facade bound to [`AsyncModel`]: all mechanics live in the shared core and
//! the per-message scheduling in
//! [`AsyncScheduler`](crate::exec::AsyncScheduler).

use agreement_model::{FullTrace, InputAssignment, ProtocolBuilder, Recorder, SystemConfig};

use crate::adversary::AsyncAdversary;
use crate::engine::{AsyncModel, Engine};
use crate::exec::{AsyncScheduler, Scheduler};
use crate::metrics::{NoProbe, Probe};
use crate::outcome::{RunLimits, RunOutcome};

/// An execution of the fully asynchronous model with crash/Byzantine faults:
/// the generic [`Engine`] facade bound to [`AsyncModel`].
pub type AsyncEngine<P = NoProbe, R = FullTrace> = Engine<AsyncModel, P, R>;

impl<P: Probe, R: Recorder> Engine<AsyncModel, P, R> {
    /// Number of adversary steps taken so far.
    pub fn steps_elapsed(&self) -> u64 {
        self.time()
    }

    /// Executes one adversary-chosen step. Returns `false` once the execution
    /// has halted (adversary gave up) — further calls do nothing.
    pub fn step(&mut self, adversary: &mut dyn AsyncAdversary) -> bool {
        AsyncScheduler::new(adversary).step(self.core_mut())
    }
}

/// Convenience: build a fresh trace-keeping core, run it against `adversary`,
/// return the outcome. Equivalent to driving an [`AsyncEngine`].
pub fn run_async(
    cfg: SystemConfig,
    inputs: InputAssignment,
    builder: &dyn ProtocolBuilder,
    adversary: &mut dyn AsyncAdversary,
    master_seed: u64,
    limits: RunLimits,
) -> RunOutcome {
    let mut core = crate::exec::ExecutionCore::new(cfg, inputs, builder, master_seed);
    let mut scheduler = AsyncScheduler::new(adversary);
    core.run(&mut scheduler, limits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AsyncAction, FairAsyncAdversary, SystemView};
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

    #[test]
    fn fair_schedule_reaches_decision_for_unanimous_inputs() {
        let cfg = SystemConfig::new(5, 1).unwrap();
        let inputs = InputAssignment::unanimous(5, Bit::Zero);
        let outcome = run_async(
            cfg,
            inputs.clone(),
            &QuorumBuilder,
            &mut FairAsyncAdversary::default(),
            42,
            RunLimits::small(),
        );
        assert!(outcome.all_correct_decided());
        assert_eq!(outcome.decided_value(), Some(Bit::Zero));
        assert!(outcome.is_correct(&inputs));
        assert!(outcome.longest_chain >= 1);
        assert!(!outcome.halted_by_adversary);
    }

    #[test]
    fn crash_budget_is_enforced() {
        struct CrashHappy {
            next: usize,
            inner: FairAsyncAdversary,
        }
        impl AsyncAdversary for CrashHappy {
            fn name(&self) -> &'static str {
                "crash-happy"
            }
            fn next_action(&mut self, view: &SystemView<'_>) -> AsyncAction {
                if self.next < view.n() {
                    let id = ProcessorId::new(self.next);
                    self.next += 1;
                    AsyncAction::Crash(id)
                } else {
                    self.inner.next_action(view)
                }
            }
        }
        let cfg = SystemConfig::new(5, 1).unwrap();
        let inputs = InputAssignment::unanimous(5, Bit::One);
        let mut engine = AsyncEngine::new(cfg, inputs, &QuorumBuilder, 9);
        let mut adv = CrashHappy {
            next: 0,
            inner: FairAsyncAdversary::default(),
        };
        let outcome = engine.run(&mut adv, RunLimits::small());
        // Only one crash may be charged; the rest are ignored (and logged).
        assert_eq!(outcome.metrics.crashes, 1);
        assert_eq!(outcome.crashed.iter().filter(|&&c| c).count(), 1);
        // The remaining four processors still decide.
        assert!(outcome.all_correct_decided());
        assert_eq!(outcome.decided_value(), Some(Bit::One));
    }

    #[test]
    fn corruption_requires_prior_corrupt_processor_declaration() {
        struct OneCorruption {
            declared: bool,
            corrupted_once: bool,
            inner: FairAsyncAdversary,
        }
        impl AsyncAdversary for OneCorruption {
            fn name(&self) -> &'static str {
                "one-corruption"
            }
            fn next_action(&mut self, view: &SystemView<'_>) -> AsyncAction {
                if !self.declared {
                    self.declared = true;
                    return AsyncAction::CorruptProcessor(ProcessorId::new(0));
                }
                if !self.corrupted_once {
                    self.corrupted_once = true;
                    return AsyncAction::Corrupt {
                        from: ProcessorId::new(0),
                        to: ProcessorId::new(1),
                        payload: Payload::Report {
                            round: 1,
                            value: Bit::Zero,
                        },
                    };
                }
                self.inner.next_action(view)
            }
        }
        let cfg = SystemConfig::new(4, 1).unwrap();
        // Inputs: 3 ones, 1 zero — a corrupted lie of `Zero` cannot flip the majority.
        let inputs = InputAssignment::split_at(4, 1);
        let mut engine = AsyncEngine::new(cfg, inputs.clone(), &QuorumBuilder, 3);
        let mut adv = OneCorruption {
            declared: false,
            corrupted_once: false,
            inner: FairAsyncAdversary::default(),
        };
        let outcome = engine.run(&mut adv, RunLimits::small());
        assert!(outcome.all_correct_decided());
        assert_eq!(outcome.trace.corruption_count(), 1);
        assert!(outcome.agreement_holds());
        assert!(outcome.validity_holds(&inputs));
    }

    #[test]
    fn halting_adversary_stops_the_run_without_decisions() {
        struct Lazy;
        impl AsyncAdversary for Lazy {
            fn name(&self) -> &'static str {
                "lazy"
            }
            fn next_action(&mut self, _view: &SystemView<'_>) -> AsyncAction {
                AsyncAction::Halt
            }
        }
        let cfg = SystemConfig::new(3, 0).unwrap();
        let inputs = InputAssignment::unanimous(3, Bit::One);
        let outcome = run_async(
            cfg,
            inputs,
            &QuorumBuilder,
            &mut Lazy,
            1,
            RunLimits::small(),
        );
        assert!(outcome.halted_by_adversary);
        assert!(!outcome.any_decided());
        assert_eq!(outcome.duration, 1);
    }

    #[test]
    fn message_chains_grow_with_protocol_depth() {
        /// Each processor forwards a token around a ring `k` times before deciding.
        #[derive(Debug)]
        struct Ring {
            hops_left: u64,
        }
        impl Protocol for Ring {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                if ctx.id().index() == 0 {
                    let next = ProcessorId::new(1 % ctx.config().n());
                    ctx.send(next, Payload::Opaque(vec![0]));
                }
            }
            fn on_message(&mut self, _from: ProcessorId, payload: &Payload, ctx: &mut dyn Context) {
                if let Payload::Opaque(bytes) = payload {
                    self.hops_left = self.hops_left.saturating_sub(1);
                    if bytes[0] >= 9 {
                        ctx.decide(Bit::One);
                        return;
                    }
                    let next = ProcessorId::new((ctx.id().index() + 1) % ctx.config().n());
                    ctx.send(next, Payload::Opaque(vec![bytes[0] + 1]));
                }
            }
            fn digest(&self) -> StateDigest {
                StateDigest::initial(Bit::One)
            }
        }
        #[derive(Debug)]
        struct RingBuilder;
        impl ProtocolBuilder for RingBuilder {
            fn name(&self) -> &'static str {
                "ring"
            }
            fn build(&self, _i: ProcessorId, _b: Bit, _c: &SystemConfig) -> Box<dyn Protocol> {
                Box::new(Ring { hops_left: 10 })
            }
        }
        let cfg = SystemConfig::new(3, 0).unwrap();
        let inputs = InputAssignment::unanimous(3, Bit::One);
        let outcome = run_async(
            cfg,
            inputs,
            &RingBuilder,
            &mut FairAsyncAdversary::default(),
            1,
            RunLimits::small(),
        );
        assert!(outcome.any_decided());
        // The token is forwarded 9 times after the initial send; the deciding
        // processor's causal depth is the full chain of 10 messages.
        assert_eq!(outcome.longest_chain, 10);
    }

    #[test]
    fn stepwise_and_run_produce_identical_outcomes() {
        let cfg = SystemConfig::new(5, 1).unwrap();
        let inputs = InputAssignment::evenly_split(5);
        let run_outcome = run_async(
            cfg,
            inputs.clone(),
            &QuorumBuilder,
            &mut FairAsyncAdversary::default(),
            17,
            RunLimits::small(),
        );
        let mut engine = AsyncEngine::new(cfg, inputs, &QuorumBuilder, 17);
        let mut adversary = FairAsyncAdversary::default();
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
