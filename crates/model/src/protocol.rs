//! The protocol abstraction: event-driven state machines driven by an engine.
//!
//! An *algorithm* in the paper (Section 2) is a family of distributions
//! describing how a processor updates its state and emits messages in response
//! to a received message. We realize this as the [`Protocol`] trait: an
//! event-driven state machine receiving callbacks from an execution engine
//! (the window engine of `agreement-sim`, the asynchronous engine, or the
//! threaded runtime of `agreement-net`) through a [`Context`] that provides
//! message sending, private randomness and the write-once output bit.

use std::any::Any;
use std::fmt;

use crate::config::SystemConfig;
use crate::ids::ProcessorId;
use crate::message::Payload;
use crate::value::Bit;

/// The services an execution engine provides to a protocol state machine.
///
/// # Sending conventions
///
/// [`Context::broadcast`] sends to every processor **including** the caller:
/// each processor owns a dedicated channel to itself, and the engines deliver
/// self-addressed messages exactly like any other message (subject to the
/// adversary's delivery sets). This matches the counting in the proof of
/// Theorem 4, where the `n - 2t` same-round messages a processor collects in a
/// window may include its own. (The paper notes self-messages are equivalent
/// to keeping the information in local state because no reset can occur
/// between a window's sending and receiving steps.)
pub trait Context {
    /// The identity of the processor this context belongs to.
    fn id(&self) -> ProcessorId;

    /// The static system configuration (`n`, `t`).
    fn config(&self) -> SystemConfig;

    /// The processor's immutable input bit (survives resets).
    fn input(&self) -> Bit;

    /// Queues a message to `to`. Delivery is entirely under adversary control.
    fn send(&mut self, to: ProcessorId, payload: Payload);

    /// Samples one unbiased private random bit.
    fn random_bit(&mut self) -> Bit;

    /// Samples a uniformly random integer in `0..bound`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `bound` is zero.
    fn random_range(&mut self, bound: u64) -> u64;

    /// Samples a full-width random `u64` (lottery tickets).
    fn random_ticket(&mut self) -> u64;

    /// Writes the processor's write-once output bit.
    ///
    /// Writing the same value twice is a no-op; writing a conflicting value is
    /// recorded by the engine as a correctness violation (it never panics).
    fn decide(&mut self, value: Bit);

    /// The current value of the write-once output bit, if written.
    fn decision(&self) -> Option<Bit>;

    /// Queues `payload` to every processor, including the caller itself.
    fn broadcast(&mut self, payload: Payload) {
        let n = self.config().n();
        for to in ProcessorId::all(n) {
            self.send(to, payload.clone());
        }
    }

    /// Queues `payload` to each processor in `recipients`, in slice order.
    ///
    /// Unlike [`Context::broadcast`] the caller is **not** implicitly
    /// included — pass its id in the set if it should hear the message.
    /// Duplicate ids queue one message per occurrence. This is the primitive
    /// committee-sampled protocols are built on: engines with a sparse
    /// message fabric implement it with one shared payload and
    /// O(|recipients|) queue work, so a committee multicast costs the
    /// committee, not the whole system.
    fn multicast(&mut self, recipients: &[ProcessorId], payload: Payload) {
        for &to in recipients {
            self.send(to, payload.clone());
        }
    }
}

/// An adversary-visible summary of a protocol state machine's state.
///
/// The paper's adversary has unrestricted access to the internal states of all
/// processors. Exposing a digest (rather than the concrete state type) keeps
/// the adversary implementations protocol-agnostic while still giving them the
/// information the paper's adversary strategies rely on: the current round,
/// the current estimate `x_p`, and whether/what the processor has decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateDigest {
    /// The processor's current round number, or `None` while it is
    /// resynchronizing after a reset.
    pub round: Option<u64>,
    /// The processor's current estimate `x_p`, if it has one.
    pub estimate: Option<Bit>,
    /// The value the protocol believes it has decided, if any.
    pub decided: Option<Bit>,
    /// How many resets the protocol has observed.
    pub reset_count: u64,
    /// A protocol-specific phase label, for diagnostics.
    pub phase: &'static str,
}

impl StateDigest {
    /// A digest for a freshly initialized protocol with estimate `estimate`.
    pub fn initial(estimate: Bit) -> Self {
        StateDigest {
            round: Some(1),
            estimate: Some(estimate),
            decided: None,
            reset_count: 0,
            phase: "init",
        }
    }
}

/// An event-driven agreement protocol state machine for a single processor.
///
/// Engines call the methods in this order:
///
/// 1. [`Protocol::on_start`] exactly once, before any message is delivered.
/// 2. [`Protocol::on_message`] once per delivered message.
/// 3. [`Protocol::on_reset`] when the strongly adaptive adversary erases the
///    processor's memory; the implementation must discard all volatile state
///    (everything except what it can recompute from the [`Context`]'s input
///    and its identity) and, if the protocol supports rejoining, begin its
///    resynchronization procedure.
///
/// Implementations must be deterministic given the context's random stream:
/// all randomness must be drawn through the [`Context`].
///
/// The [`Any`] bound is what lets a [`ProtocolBuilder::rebuild`] recognize an
/// instance it built earlier (through `<dyn Protocol>::downcast_mut`).
pub trait Protocol: Any + fmt::Debug + Send {
    /// Called once at the beginning of the execution.
    fn on_start(&mut self, ctx: &mut dyn Context);

    /// Called when a message from `from` is delivered to this processor.
    fn on_message(&mut self, from: ProcessorId, payload: &Payload, ctx: &mut dyn Context);

    /// Called when the adversary resets this processor (erases its memory).
    ///
    /// The default implementation is provided for protocols that do not
    /// support resets (e.g. plain Ben-Or / Bracha under the crash model); it
    /// does nothing, which models a processor that simply keeps going — such
    /// protocols should only be run under non-resetting adversaries.
    fn on_reset(&mut self, ctx: &mut dyn Context) {
        let _ = ctx;
    }

    /// The adversary-visible digest of the current state.
    fn digest(&self) -> StateDigest;
}

impl dyn Protocol {
    /// This state machine as the concrete type `T`, if that is what it is.
    pub fn downcast_mut<T: Protocol>(&mut self) -> Option<&mut T> {
        (self as &mut dyn Any).downcast_mut()
    }
}

/// A factory building one [`Protocol`] instance per processor.
///
/// Builders are cheap, immutable descriptions of a protocol configuration
/// (e.g. a threshold triple). An engine calls [`ProtocolBuilder::build`] once
/// per processor when it first sets a system up, and
/// [`ProtocolBuilder::rebuild`] once per processor for every further trial it
/// runs in the same storage.
pub trait ProtocolBuilder: fmt::Debug + Send + Sync {
    /// A short human-readable protocol name (used in reports and benches).
    fn name(&self) -> &'static str;

    /// Builds the state machine for processor `id` with input `input`.
    fn build(&self, id: ProcessorId, input: Bit, cfg: &SystemConfig) -> Box<dyn Protocol>;

    /// Leaves in `slot` exactly the state machine
    /// [`build`](ProtocolBuilder::build) would return for the same arguments;
    /// `slot` holds whatever instance ran the previous trial, built by this
    /// builder or by any other.
    ///
    /// The default replaces the instance. A builder may instead rebuild the
    /// instance in place when — and only when — it is one of its own with
    /// equal parameters: through the same constructor `build` calls, handed
    /// the old instance's storage (a vote tally, say), so that the box and
    /// the allocations survive. Nothing observable (digest, sends,
    /// decisions, coin draws) may tell the two apart.
    fn rebuild(
        &self,
        slot: &mut Box<dyn Protocol>,
        id: ProcessorId,
        input: Bit,
        cfg: &SystemConfig,
    ) {
        *slot = self.build(id, input, cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Payload;
    use std::collections::VecDeque;

    /// A minimal in-test context used to exercise the default `broadcast`.
    #[derive(Debug)]
    struct RecordingContext {
        id: ProcessorId,
        cfg: SystemConfig,
        input: Bit,
        sent: Vec<(ProcessorId, Payload)>,
        decided: Option<Bit>,
        bits: VecDeque<Bit>,
    }

    impl Context for RecordingContext {
        fn id(&self) -> ProcessorId {
            self.id
        }
        fn config(&self) -> SystemConfig {
            self.cfg
        }
        fn input(&self) -> Bit {
            self.input
        }
        fn send(&mut self, to: ProcessorId, payload: Payload) {
            self.sent.push((to, payload));
        }
        fn random_bit(&mut self) -> Bit {
            self.bits.pop_front().unwrap_or(Bit::Zero)
        }
        fn random_range(&mut self, bound: u64) -> u64 {
            assert!(bound > 0);
            0
        }
        fn random_ticket(&mut self) -> u64 {
            7
        }
        fn decide(&mut self, value: Bit) {
            if self.decided.is_none() {
                self.decided = Some(value);
            }
        }
        fn decision(&self) -> Option<Bit> {
            self.decided
        }
    }

    #[test]
    fn default_broadcast_reaches_every_processor_including_self() {
        let mut ctx = RecordingContext {
            id: ProcessorId::new(1),
            cfg: SystemConfig::new(4, 0).unwrap(),
            input: Bit::One,
            sent: Vec::new(),
            decided: None,
            bits: VecDeque::new(),
        };
        ctx.broadcast(Payload::Decided { value: Bit::One });
        let recipients: Vec<usize> = ctx.sent.iter().map(|(to, _)| to.index()).collect();
        assert_eq!(recipients, vec![0, 1, 2, 3]);
    }

    #[test]
    fn state_digest_initial_is_round_one_undecided() {
        let d = StateDigest::initial(Bit::Zero);
        assert_eq!(d.round, Some(1));
        assert_eq!(d.estimate, Some(Bit::Zero));
        assert_eq!(d.decided, None);
        assert_eq!(d.reset_count, 0);
    }

    #[test]
    fn protocol_trait_is_object_safe() {
        fn assert_object(_: &dyn Protocol) {}
        #[derive(Debug)]
        struct Null;
        impl Protocol for Null {
            fn on_start(&mut self, _ctx: &mut dyn Context) {}
            fn on_message(&mut self, _f: ProcessorId, _p: &Payload, _ctx: &mut dyn Context) {}
            fn digest(&self) -> StateDigest {
                StateDigest::initial(Bit::Zero)
            }
        }
        let null = Null;
        assert_object(&null);
    }
}
