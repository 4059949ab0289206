//! The one driver of the paper's three execution models.
//!
//! A [`Scheduler`] borrows one model's adversary and composes the
//! [`ExecutionCore`]'s primitive transitions into that model's unit of
//! scheduled time, by `match`:
//!
//! * [`Scheduler::Windowed`] assembles one *acceptable window* (Definition 1)
//!   per unit of time: a sending phase for everyone, an adversary-chosen
//!   window validated against the definition, per-processor receiving
//!   phases, and at most `t` resetting steps.
//! * [`Scheduler::Asynchronous`] executes one adversary-chosen action per
//!   unit of time: a single message delivery, a crash, a Byzantine
//!   corruption, or a halt.
//! * [`Scheduler::PartialSync`] executes one adversary-chosen action per
//!   step too, after force-delivering whatever the post-GST bound Δ makes
//!   overdue (see the `partial_sync` module).
//!
//! [`Scheduler::run`] is the one loop every execution goes through;
//! [`Scheduler::start`], [`Scheduler::step`] and [`Scheduler::outcome`] are
//! its parts, for callers that drive an execution step by step. Adding a
//! model means a variant here, in [`ModelDescriptor`] and in
//! [`BuiltAdversary`](crate::BuiltAdversary), plus one step function.

use crate::adversary::{AsyncAction, AsyncAdversary, PartialSyncAdversary, WindowAdversary};
use crate::engine::{ModelDescriptor, ASYNC, PARTIAL_SYNC, WINDOWED};
use crate::metrics::Probe;
use crate::outcome::{RunLimits, RunOutcome};

use super::{partial_sync, ExecutionCore};

/// One execution model's adversary, borrowed for the duration of a run, and
/// the driver that schedules a core under it.
///
/// The set is closed — the paper's results are stated over exactly these
/// adversary powers — so every method is one `match`. Every method is
/// generic over the core's [`Probe`], so the same driver runs instrumented,
/// traced and un-instrumented executions.
pub enum Scheduler<'a> {
    /// The strongly adaptive model (Section 2, [`WINDOWED`]): time advances
    /// one acceptable window at a time.
    Windowed(&'a mut dyn WindowAdversary),
    /// The fully asynchronous model (Section 5, [`ASYNC`]): time advances one
    /// adversary action at a time.
    Asynchronous(&'a mut dyn AsyncAdversary),
    /// Eventual synchrony with omission faults ([`PARTIAL_SYNC`]): free
    /// scheduling before the adversary's GST, enforced bounded-delay
    /// delivery after it.
    PartialSync(&'a mut dyn PartialSyncAdversary),
}

impl Scheduler<'_> {
    /// The model this scheduler drives.
    pub fn model(&self) -> &'static ModelDescriptor {
        match self {
            Scheduler::Windowed(_) => &WINDOWED,
            Scheduler::Asynchronous(_) => &ASYNC,
            Scheduler::PartialSync(_) => &PARTIAL_SYNC,
        }
    }

    /// Starts the processors and latches any decision their `on_start`
    /// wrote. The two step models also perform every processor's initial
    /// sending step, so the adversary schedules deliveries (and the
    /// partial-synchrony bound applies) from the very first step. Idempotent.
    pub fn start<P: Probe>(&self, core: &mut ExecutionCore<P>) {
        if matches!(self, Scheduler::Windowed(_)) {
            core.ensure_started();
        } else {
            core.start_and_send();
        }
        core.record_decision_progress();
    }

    /// Executes one unit of scheduled time. Returns `false` once the
    /// execution has halted; further calls are then no-ops.
    ///
    /// # Panics
    ///
    /// Panics if a window adversary returns a window violating Definition 1 —
    /// that is a bug in the adversary implementation, not a legitimate
    /// execution.
    pub fn step<P: Probe>(&mut self, core: &mut ExecutionCore<P>) -> bool {
        match self {
            Scheduler::Windowed(adversary) => {
                step_window(*adversary, core);
                true
            }
            Scheduler::Asynchronous(adversary) => step_async(*adversary, core),
            Scheduler::PartialSync(adversary) => partial_sync::step(*adversary, core),
        }
    }

    /// Runs `core` until every correct processor has decided, the execution
    /// halts, or the model's time cap from `limits` elapses, and returns the
    /// outcome.
    pub fn run<P: Probe>(&mut self, core: &mut ExecutionCore<P>, limits: RunLimits) -> RunOutcome {
        self.start(core);
        let cap = self.model().time_cap(&limits);
        while !core.all_correct_decided() && !core.is_halted() && core.time() < cap {
            if !self.step(core) {
                break;
            }
        }
        self.outcome(core)
    }

    /// The outcome snapshot of `core`, with this model's chain metric:
    /// windowed running time is measured in windows, so the windowed model
    /// reports the window of the first decision; the two step models report
    /// the longest message chain preceding the first decision (Section 5's
    /// metric, tracked causally by the core), so their expected times read
    /// off one scale. Zero while undecided.
    pub fn outcome<P: Probe>(&self, core: &ExecutionCore<P>) -> RunOutcome {
        let longest_chain = match self {
            Scheduler::Windowed(_) => core.first_decision_at(),
            Scheduler::Asynchronous(_) | Scheduler::PartialSync(_) => {
                core.chain_at_first_decision()
            }
        };
        core.outcome(longest_chain.unwrap_or(0))
    }
}

/// Executes one acceptable window chosen by `adversary`.
fn step_window<P: Probe>(adversary: &mut dyn WindowAdversary, core: &mut ExecutionCore<P>) {
    core.ensure_started();
    // Anything not delivered in the previous window is never delivered.
    core.discard_undelivered();

    // Sending phase.
    core.flush_all_outboxes();

    // Adversary chooses the window with full information.
    let window = core.with_view(|view| adversary.next_window(view));
    if let Err(err) = window.validate(&core.config()) {
        panic!(
            "adversary {:?} produced an invalid window at index {}: {err}",
            adversary.name(),
            core.time()
        );
    }
    core.start_window();

    // Receiving phase, then resetting phase.
    core.deliver_window(&window);
    for &id in window.resets() {
        core.reset(id);
    }
    core.keep_window(window);

    core.advance_window();
    core.record_decision_progress();
}

/// Executes one asynchronous action chosen by `adversary`. Returns `false`
/// once the execution has halted.
fn step_async<P: Probe>(adversary: &mut dyn AsyncAdversary, core: &mut ExecutionCore<P>) -> bool {
    if core.is_halted() {
        return false;
    }
    let action = core.with_view(|view| adversary.next_action(view));
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

#[cfg(test)]
mod tests {
    mod windowed {
        use super::super::*;
        use crate::adversary::{FullDeliveryAdversary, SystemView};
        use crate::engine::run_windowed;
        use crate::exec::testkit::MajorityBuilder;
        use crate::metrics::FullTrace;
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
            let mut core =
                ExecutionCore::with_probe(cfg, inputs, &MajorityBuilder, 5, FullTrace::new());
            let mut adversary = ResetZero;
            let mut scheduler = Scheduler::Windowed(&mut adversary);
            scheduler.step(&mut core);
            scheduler.step(&mut core);
            let outcome = scheduler.outcome(&core);
            assert_eq!(outcome.metrics.resets_consumed, 2);
            assert_eq!(core.probe().trace().reset_count(), 2);
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
                let mut scheduler = Scheduler::Windowed(&mut adversary);
                scheduler.step(&mut core);
                scheduler.step(&mut core);
                assert_eq!(scheduler.outcome(&core).metrics.resets_consumed, 2);
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
            Scheduler::Windowed(&mut Broken).step(&mut core);
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
        use crate::metrics::FullTrace;
        use crate::outcome::RunLimits;
        use agreement_model::{
            Bit, Context, InputAssignment, Payload, ProcessorId, Protocol, ProtocolBuilder,
            StateDigest, SystemConfig, TraceEvent,
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
            let mut core =
                ExecutionCore::with_probe(cfg, inputs, &QuorumBuilder, 9, FullTrace::new());
            let outcome = Scheduler::Asynchronous(&mut adv).run(&mut core, RunLimits::small());
            // Only one crash may be charged; the rest are ignored (and logged).
            assert_eq!(outcome.metrics.crashes, 1);
            assert_eq!(outcome.crashed.iter().filter(|&&c| c).count(), 1);
            let refused = core.probe().trace().stored().iter();
            let refused = refused.filter(|e| matches!(e, TraceEvent::Violation { .. }));
            assert_eq!(refused.count(), 4, "one logged refusal per crash beyond t");
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
            let mut core =
                ExecutionCore::with_probe(cfg, inputs.clone(), &QuorumBuilder, 3, FullTrace::new());
            let outcome = Scheduler::Asynchronous(&mut adv).run(&mut core, RunLimits::small());
            assert!(outcome.all_correct_decided());
            assert_eq!(core.probe().trace().corruption_count(), 1);
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
