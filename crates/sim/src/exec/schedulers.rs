//! The two schedulers of the paper, expressed over [`ExecutionCore`].
//!
//! * [`WindowScheduler`] assembles one *acceptable window* (Definition 1) per
//!   unit of time: a sending phase for everyone, an adversary-chosen window
//!   validated against the definition, per-processor receiving phases, and at
//!   most `t` resetting steps.
//! * [`AsyncScheduler`] executes one adversary-chosen action per unit of time:
//!   a single message delivery, a crash, a Byzantine corruption, or a halt.
//!
//! Adding a new execution model (partial synchrony, message-omission
//! adversaries, …) means writing one more implementation of [`Scheduler`] in
//! this shape; the core supplies every primitive both of these are built from.

use agreement_model::{FullTrace, Recorder, TraceEvent};

use crate::adversary::{AsyncAction, AsyncAdversary, WindowAdversary};
use crate::metrics::{NoProbe, Probe};
use crate::outcome::RunLimits;

use super::ExecutionCore;

/// One adversary model's notion of a unit of scheduled time.
///
/// The [`ExecutionCore`] owns all execution state; a scheduler only decides
/// how to compose the core's primitive transitions (sending, receiving,
/// resetting, crashing, corrupting) into steps, which [`RunLimits`] cap
/// applies, and which chain metric the outcome reports. Schedulers are
/// parametric in the core's [`Probe`] *and* [`Recorder`] so the same
/// scheduler drives instrumented, un-instrumented, traced and trace-free
/// executions alike.
pub trait Scheduler<P: Probe = NoProbe, R: Recorder = FullTrace> {
    /// Called once before the first step. Implementations start the
    /// processors and, where the model calls for it, flush initial sends.
    /// Must be idempotent: driving an execution step by step and then through
    /// [`ExecutionCore::run`] may invoke it more than once.
    fn on_start(&mut self, core: &mut ExecutionCore<P, R>) {
        core.ensure_started();
    }

    /// Executes one unit of scheduled time. Returns `false` once the
    /// execution has halted; further calls must be no-ops.
    fn step(&mut self, core: &mut ExecutionCore<P, R>) -> bool;

    /// The cap from `limits` that applies to this scheduler's time unit.
    fn max_time(&self, limits: &RunLimits) -> u64;

    /// The longest-chain metric this model reports in its outcome.
    fn longest_chain(&self, core: &ExecutionCore<P, R>) -> u64;
}

/// The strongly adaptive model (Section 2): time advances one acceptable
/// window at a time, chosen by a [`WindowAdversary`].
pub struct WindowScheduler<'a> {
    adversary: &'a mut dyn WindowAdversary,
}

impl<'a> WindowScheduler<'a> {
    /// Wraps a window adversary borrowed for the duration of a run.
    pub fn new(adversary: &'a mut dyn WindowAdversary) -> Self {
        WindowScheduler { adversary }
    }

    /// Executes one acceptable window chosen by the wrapped adversary.
    ///
    /// # Panics
    ///
    /// Panics if the adversary returns a window violating Definition 1 — that
    /// is a bug in the adversary implementation, not a legitimate execution.
    pub fn step_window<P: Probe, R: Recorder>(&mut self, core: &mut ExecutionCore<P, R>) {
        core.ensure_started();
        // Anything not delivered in the previous window is never delivered.
        core.discard_undelivered();

        // Sending phase.
        core.flush_all_outboxes();

        // Adversary chooses the window with full information.
        let window = core.with_view(|view| self.adversary.next_window(view));
        if let Err(err) = window.validate(&core.config()) {
            panic!(
                "adversary {:?} produced an invalid window at index {}: {err}",
                self.adversary.name(),
                core.time()
            );
        }
        core.push_trace(TraceEvent::WindowStarted { index: core.time() });

        // Receiving phase, then resetting phase.
        for recipient in agreement_model::ProcessorId::all(core.config().n()) {
            core.deliver_from_senders(recipient, window.delivery_set(recipient.index()));
        }
        for &id in window.resets() {
            core.reset(id);
        }
        core.keep_window(window);

        core.advance_window();
        core.record_decision_progress();
    }
}

impl<P: Probe, R: Recorder> Scheduler<P, R> for WindowScheduler<'_> {
    fn step(&mut self, core: &mut ExecutionCore<P, R>) -> bool {
        self.step_window(core);
        true
    }

    fn max_time(&self, limits: &RunLimits) -> u64 {
        limits.max_windows
    }

    /// Windowed running time is measured in windows; the chain metric reports
    /// the window of the first decision (zero while undecided).
    fn longest_chain(&self, core: &ExecutionCore<P, R>) -> u64 {
        core.first_decision_at().unwrap_or(0)
    }
}

/// The fully asynchronous model (Section 5): time advances one adversary
/// action at a time, chosen by an [`AsyncAdversary`].
pub struct AsyncScheduler<'a> {
    adversary: &'a mut dyn AsyncAdversary,
}

impl<'a> AsyncScheduler<'a> {
    /// Wraps an asynchronous adversary borrowed for the duration of a run.
    pub fn new(adversary: &'a mut dyn AsyncAdversary) -> Self {
        AsyncScheduler { adversary }
    }
}

impl<P: Probe, R: Recorder> Scheduler<P, R> for AsyncScheduler<'_> {
    /// Starting the asynchronous model immediately performs every processor's
    /// initial sending step: the adversary schedules deliveries from the very
    /// first action.
    fn on_start(&mut self, core: &mut ExecutionCore<P, R>) {
        core.ensure_started();
        core.flush_all_outboxes();
    }

    fn step(&mut self, core: &mut ExecutionCore<P, R>) -> bool {
        if core.is_halted() {
            return false;
        }
        let action = core.with_view(|view| self.adversary.next_action(view));
        core.advance_step();
        match action {
            AsyncAction::Deliver { from, to } => core.deliver_one(from, to),
            AsyncAction::Crash(id) => core.crash(id),
            AsyncAction::CorruptProcessor(id) => core.corrupt_processor(id),
            AsyncAction::Corrupt { from, to, payload } => core.corrupt_message(from, to, payload),
            AsyncAction::Halt => core.halt(),
        }
        core.record_decision_progress();
        !core.is_halted()
    }

    fn max_time(&self, limits: &RunLimits) -> u64 {
        limits.max_steps
    }

    /// Asynchronous running time is the longest message chain preceding the
    /// first decision (Section 5's metric), tracked causally by the core.
    fn longest_chain(&self, core: &ExecutionCore<P, R>) -> u64 {
        core.chain_at_first_decision().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    mod windowed {
        use super::super::*;
        use crate::adversary::{FullDeliveryAdversary, SystemView};
        use crate::engine::run_windowed;
        use crate::exec::testkit::MajorityBuilder;
        use crate::outcome::RunLimits;
        use crate::window::Window;
        use agreement_model::{
            Bit, Context, InputAssignment, Payload, ProcessorId, Protocol, ProtocolBuilder,
            StateDigest, SystemConfig,
        };

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
            let mut core = ExecutionCore::new(cfg, inputs, &MajorityBuilder, 5);
            let mut adversary = ResetZero;
            let mut scheduler = WindowScheduler::new(&mut adversary);
            scheduler.step_window(&mut core);
            scheduler.step_window(&mut core);
            let outcome = core.outcome_with(&scheduler);
            assert_eq!(outcome.metrics.resets_consumed, 2);
            assert_eq!(outcome.trace.reset_count(), 2);
        }

        #[test]
        fn the_window_applied_last_is_lent_back_empty_and_survives_reinit() {
            /// Fills the window the view lends it and notes where its
            /// senders are stored.
            struct Refiller {
                stored_at: Vec<*const ProcessorId>,
            }
            impl WindowAdversary for Refiller {
                fn name(&self) -> &'static str {
                    "refiller"
                }
                fn next_window(&mut self, view: &SystemView<'_>) -> Window {
                    let mut window = view.take_window();
                    assert_eq!(window, Window::default(), "lent back cleared");
                    assert_eq!(view.take_window(), Window::default());
                    window.push_reset(ProcessorId::new(view.time as usize % view.n()));
                    window.push_all_senders(view.n());
                    window.end_shared_set(view.n());
                    self.stored_at.push(window.delivery_set(0).as_ptr());
                    window
                }
            }
            let cfg = SystemConfig::new(6, 1).unwrap();
            let inputs = InputAssignment::unanimous(6, Bit::Zero);
            let mut core = ExecutionCore::new(cfg, inputs.clone(), &MajorityBuilder, 5);
            let mut adversary = Refiller {
                stored_at: Vec::new(),
            };
            for seed in [5, 6] {
                core.reinit(cfg, &inputs, &MajorityBuilder, seed);
                let mut scheduler = WindowScheduler::new(&mut adversary);
                scheduler.step_window(&mut core);
                scheduler.step_window(&mut core);
                assert_eq!(core.outcome_with(&scheduler).metrics.resets_consumed, 2);
            }
            // One allocation, by the first window; every later one — the
            // second trial's first included — was filled into it.
            assert_eq!(adversary.stored_at.len(), 4);
            assert!(adversary
                .stored_at
                .iter()
                .all(|&at| at == adversary.stored_at[0]));
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
            let mut core = ExecutionCore::new(cfg, inputs, &MajorityBuilder, 5);
            WindowScheduler::new(&mut Broken).step_window(&mut core);
        }

        #[test]
        #[should_panic(expected = "input assignment must cover every processor")]
        fn mismatched_inputs_panic() {
            let cfg = SystemConfig::new(4, 1).unwrap();
            let inputs = InputAssignment::unanimous(3, Bit::One);
            let _ = ExecutionCore::new(cfg, inputs, &MajorityBuilder, 5);
        }
    }

    mod asynchronous {
        use super::super::*;
        use crate::adversary::{FairAsyncAdversary, SystemView};
        use crate::engine::run_async;
        use crate::exec::testkit::QuorumBuilder;
        use crate::outcome::RunLimits;
        use agreement_model::{
            Bit, Context, InputAssignment, Payload, ProcessorId, Protocol, ProtocolBuilder,
            StateDigest, SystemConfig,
        };

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
            let mut adv = CrashHappy {
                next: 0,
                inner: FairAsyncAdversary::default(),
            };
            let outcome = run_async(cfg, inputs, &QuorumBuilder, &mut adv, 9, RunLimits::small());
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
            let mut adv = OneCorruption {
                declared: false,
                corrupted_once: false,
                inner: FairAsyncAdversary::default(),
            };
            let outcome = run_async(
                cfg,
                inputs.clone(),
                &QuorumBuilder,
                &mut adv,
                3,
                RunLimits::small(),
            );
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
                fn on_message(
                    &mut self,
                    _from: ProcessorId,
                    payload: &Payload,
                    ctx: &mut dyn Context,
                ) {
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
    }
}
