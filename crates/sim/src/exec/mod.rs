//! The unified execution core and the one driver of its three models.
//!
//! The paper analyzes the *same* protocols under two execution models — the
//! strongly adaptive acceptable-window model of Section 2 and the fully
//! asynchronous crash/Byzantine model of Section 5 — with partial synchrony
//! as the curtailed contrast. All three share almost all of their mechanics:
//! processor harnesses, an in-flight message buffer, decision and validity
//! tracking, the probe that observes every transition and run-limit
//! enforcement.
//! This module owns those mechanics once, in [`ExecutionCore`], and puts what
//! genuinely differs — how a unit of scheduled time is assembled — in one
//! arm each of the closed [`Scheduler`] enum:
//!
//! * [`Scheduler::Windowed`] assembles acceptable windows (sending phase,
//!   validated adversary window, receiving phases, resets) from a
//!   [`WindowAdversary`](crate::WindowAdversary).
//! * [`Scheduler::Asynchronous`] executes per-message adversarial
//!   deliveries, crashes and Byzantine corruptions from an
//!   [`AsyncAdversary`](crate::AsyncAdversary).
//! * [`Scheduler::PartialSync`] implements eventual synchrony with omission
//!   faults from a [`PartialSyncAdversary`](crate::PartialSyncAdversary):
//!   free scheduling before the adversary's GST, *enforced* bounded-delay
//!   delivery after it.
//!
//! [`Scheduler::run`] is the one loop; [`Scheduler::start`],
//! [`Scheduler::step`] and [`Scheduler::outcome`] are the step-wise driving
//! API. A new execution model is a variant of [`Scheduler`],
//! [`BuiltAdversary`](crate::BuiltAdversary) and
//! [`ModelDescriptor`](crate::ModelDescriptor), plus one step function — see
//! DESIGN.md §2 for the partial-synchrony model as a worked example.

mod core;
mod partial_sync;
mod schedulers;

pub use self::core::ExecutionCore;
pub use self::schedulers::Scheduler;

/// Toy protocols the scheduler and workspace unit tests share.
#[cfg(test)]
pub(crate) mod testkit {
    use agreement_model::{
        Bit, Context, Payload, ProcessorId, Protocol, ProtocolBuilder, StateDigest, SystemConfig,
    };

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
    pub(crate) struct MajorityBuilder;

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
                phase: "quorum-majority",
            }
        }
    }

    #[derive(Debug)]
    pub(crate) struct QuorumBuilder;

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
}
