//! The acceptable-window engine: executions of the strongly adaptive model.
//!
//! The strongly adaptive adversary (Section 2) is constrained to produce
//! executions that decompose into adjacent, disjoint *acceptable windows*
//! (Definition 1). [`WindowEngine`] is a thin alias of the generic
//! [`Engine`](crate::Engine) facade bound to [`WindowModel`]: everything but
//! the window-wise stepping lives in the shared facade and the
//! [`WindowScheduler`](crate::exec::WindowScheduler). Per window:
//!
//! 1. **Sending phase** — every non-crashed processor takes a sending step:
//!    the messages it computed in response to the previous window's deliveries
//!    are placed into the buffer. (A second sending step without intervening
//!    receipts would have no effect, exactly as the paper specifies, because
//!    the outbox is emptied by the first one.)
//! 2. **Adversary choice** — the full-information adversary inspects all
//!    states and all freshly sent messages and picks the window's reset set
//!    `R` and delivery sets `S_1, ..., S_n`, validated against Definition 1.
//! 3. **Receiving phase** — each processor `i` receives, and immediately
//!    processes, the messages just sent to it by senders in `S_i`. Messages
//!    from senders outside `S_i` are never delivered (they are discarded at
//!    the start of the next window).
//! 4. **Resetting phase** — the processors in `R` have their memories erased.
//!
//! Running time is measured in acceptable windows, as in Section 2.

use agreement_model::{FullTrace, InputAssignment, ProtocolBuilder, Recorder, SystemConfig};

use crate::adversary::WindowAdversary;
use crate::engine::{Engine, WindowModel};
use crate::exec::WindowScheduler;
use crate::metrics::{NoProbe, Probe};
use crate::outcome::{RunLimits, RunOutcome};

/// An execution of the strongly adaptive (acceptable-window) model: the
/// generic [`Engine`] facade bound to [`WindowModel`].
pub type WindowEngine<P = NoProbe, R = FullTrace> = Engine<WindowModel, P, R>;

impl<P: Probe, R: Recorder> Engine<WindowModel, P, R> {
    /// Number of acceptable windows executed so far.
    pub fn windows_elapsed(&self) -> u64 {
        self.time()
    }

    /// Executes one acceptable window chosen by `adversary`.
    ///
    /// # Panics
    ///
    /// Panics if the adversary returns a window violating Definition 1 — that
    /// is a bug in the adversary implementation, not a legitimate execution.
    pub fn step_window(&mut self, adversary: &mut dyn WindowAdversary) {
        WindowScheduler::new(adversary).step_window(self.core_mut());
    }
}

/// Convenience: build a fresh trace-keeping core, run it against `adversary`,
/// return the outcome. Equivalent to driving a [`WindowEngine`].
pub fn run_windowed(
    cfg: SystemConfig,
    inputs: InputAssignment,
    builder: &dyn ProtocolBuilder,
    adversary: &mut dyn WindowAdversary,
    master_seed: u64,
    limits: RunLimits,
) -> RunOutcome {
    let mut core = crate::exec::ExecutionCore::new(cfg, inputs, builder, master_seed);
    let mut scheduler = WindowScheduler::new(adversary);
    core.run(&mut scheduler, limits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{FullDeliveryAdversary, SystemView};
    use crate::window::Window;
    use agreement_model::{Bit, Context, Payload, ProcessorId, Protocol, StateDigest};

    /// A toy protocol that decides once it has heard reports from everyone:
    /// it decides the majority value (ties -> One). One window suffices under
    /// full delivery.
    #[derive(Debug)]
    struct MajorityOnce {
        input: Bit,
        zeros: usize,
        ones: usize,
        n: usize,
    }

    impl Protocol for MajorityOnce {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.broadcast(Payload::Report {
                round: 1,
                value: self.input,
            });
        }

        fn on_message(&mut self, _from: ProcessorId, payload: &Payload, ctx: &mut dyn Context) {
            if let Payload::Report { round: 1, value } = payload {
                match value {
                    Bit::Zero => self.zeros += 1,
                    Bit::One => self.ones += 1,
                }
                if self.zeros + self.ones == self.n {
                    let decision = if self.ones >= self.zeros {
                        Bit::One
                    } else {
                        Bit::Zero
                    };
                    ctx.decide(decision);
                }
            }
        }

        fn digest(&self) -> StateDigest {
            StateDigest::initial(self.input)
        }
    }

    #[derive(Debug)]
    struct MajorityBuilder;

    impl ProtocolBuilder for MajorityBuilder {
        fn name(&self) -> &'static str {
            "majority-once"
        }

        fn build(&self, _id: ProcessorId, input: Bit, cfg: &SystemConfig) -> Box<dyn Protocol> {
            Box::new(MajorityOnce {
                input,
                zeros: 0,
                ones: 0,
                n: cfg.n(),
            })
        }
    }

    #[test]
    fn full_delivery_run_decides_in_one_window() {
        let cfg = SystemConfig::new(5, 0).unwrap();
        let inputs = InputAssignment::unanimous(5, Bit::One);
        let outcome = run_windowed(
            cfg,
            inputs.clone(),
            &MajorityBuilder,
            &mut FullDeliveryAdversary,
            3,
            RunLimits::small(),
        );
        assert!(outcome.all_correct_decided());
        assert_eq!(outcome.decided_value(), Some(Bit::One));
        assert_eq!(outcome.duration, 1);
        assert_eq!(outcome.first_decision_at, Some(1));
        assert_eq!(outcome.all_decided_at, Some(1));
        assert!(outcome.is_correct(&inputs));
        // Every processor broadcast to all n processors exactly once.
        assert_eq!(outcome.metrics.messages_sent, 25);
        assert_eq!(outcome.metrics.messages_delivered, 25);
        assert_eq!(outcome.metrics.resets_consumed, 0);
    }

    #[test]
    fn majority_of_split_inputs_decides_some_input_value() {
        let cfg = SystemConfig::new(6, 0).unwrap();
        let inputs = InputAssignment::split_at(6, 2); // 2 zeros, 4 ones
        let outcome = run_windowed(
            cfg,
            inputs.clone(),
            &MajorityBuilder,
            &mut FullDeliveryAdversary,
            11,
            RunLimits::small(),
        );
        assert_eq!(outcome.decided_value(), Some(Bit::One));
        assert!(outcome.validity_holds(&inputs));
    }

    #[test]
    fn run_respects_window_limit_when_protocol_cannot_decide() {
        /// A protocol that never decides.
        #[derive(Debug)]
        struct Silent;
        impl Protocol for Silent {
            fn on_start(&mut self, _ctx: &mut dyn Context) {}
            fn on_message(&mut self, _f: ProcessorId, _p: &Payload, _c: &mut dyn Context) {}
            fn digest(&self) -> StateDigest {
                StateDigest::initial(Bit::Zero)
            }
        }
        #[derive(Debug)]
        struct SilentBuilder;
        impl ProtocolBuilder for SilentBuilder {
            fn name(&self) -> &'static str {
                "silent"
            }
            fn build(&self, _i: ProcessorId, _b: Bit, _c: &SystemConfig) -> Box<dyn Protocol> {
                Box::new(Silent)
            }
        }
        let cfg = SystemConfig::new(4, 0).unwrap();
        let inputs = InputAssignment::unanimous(4, Bit::Zero);
        let outcome = run_windowed(
            cfg,
            inputs,
            &SilentBuilder,
            &mut FullDeliveryAdversary,
            5,
            RunLimits::windows(17),
        );
        assert!(!outcome.any_decided());
        assert_eq!(outcome.duration, 17);
        assert!(
            outcome.agreement_holds(),
            "no decisions is trivially agreeing"
        );
    }

    #[test]
    fn window_adversary_with_resets_erases_state() {
        /// Adversary that resets processor 0 every window and delivers from everyone.
        struct ResetZero;
        impl WindowAdversary for ResetZero {
            fn name(&self) -> &'static str {
                "reset-zero"
            }
            fn next_window(&mut self, view: &SystemView<'_>) -> Window {
                let all: Vec<ProcessorId> = ProcessorId::all(view.n()).collect();
                Window::uniform(&view.config, vec![ProcessorId::new(0)], all)
            }
        }
        let cfg = SystemConfig::new(6, 1).unwrap();
        let inputs = InputAssignment::unanimous(6, Bit::Zero);
        let mut engine = WindowEngine::new(cfg, inputs, &MajorityBuilder, 5);
        engine.step_window(&mut ResetZero);
        engine.step_window(&mut ResetZero);
        let outcome = engine.outcome();
        assert_eq!(outcome.metrics.resets_consumed, 2);
        assert_eq!(outcome.trace.reset_count(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid window")]
    fn invalid_adversary_window_panics() {
        struct Broken;
        impl WindowAdversary for Broken {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn next_window(&mut self, view: &SystemView<'_>) -> Window {
                // Delivery sets far too small.
                Window::uniform(&view.config, vec![], vec![])
            }
        }
        let cfg = SystemConfig::new(4, 1).unwrap();
        let inputs = InputAssignment::unanimous(4, Bit::One);
        let mut engine = WindowEngine::new(cfg, inputs, &MajorityBuilder, 5);
        engine.step_window(&mut Broken);
    }

    #[test]
    #[should_panic(expected = "input assignment must cover every processor")]
    fn mismatched_inputs_panic() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let inputs = InputAssignment::unanimous(3, Bit::One);
        let _ = WindowEngine::new(cfg, inputs, &MajorityBuilder, 5);
    }

    #[test]
    fn stepwise_and_run_produce_identical_outcomes() {
        let cfg = SystemConfig::new(5, 0).unwrap();
        let inputs = InputAssignment::evenly_split(5);
        let run_outcome = run_windowed(
            cfg,
            inputs.clone(),
            &MajorityBuilder,
            &mut FullDeliveryAdversary,
            9,
            RunLimits::small(),
        );
        let mut engine = WindowEngine::new(cfg, inputs, &MajorityBuilder, 9);
        while !engine.all_decided() && engine.windows_elapsed() < RunLimits::small().max_windows {
            engine.step_window(&mut FullDeliveryAdversary);
        }
        let stepped = engine.outcome();
        assert_eq!(stepped.decisions, run_outcome.decisions);
        assert_eq!(stepped.duration, run_outcome.duration);
        assert_eq!(stepped.first_decision_at, run_outcome.first_decision_at);
        assert_eq!(stepped.all_decided_at, run_outcome.all_decided_at);
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
