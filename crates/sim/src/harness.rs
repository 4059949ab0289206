//! The per-processor harness: durable state plus the protocol state machine.
//!
//! A [`ProcessorHarness`] owns everything the paper attributes to a single
//! processor: its identity, its immutable input bit, its write-once output
//! bit, its reset counter, its private randomness, the protocol state machine
//! (the erasable "memory"), and the set of messages it has computed but not
//! yet placed into the buffer (its next *sending step*).
//!
//! Resetting a harness erases the protocol state and the pending outgoing
//! messages but keeps the input, output, identity and reset counter — exactly
//! the semantics of the paper's resetting failures.

use agreement_model::{
    Bit, Context, Envelope, OutputRegister, Payload, ProcessorId, ProcessorRng, Protocol,
    ProtocolBuilder, StateDigest, SystemConfig,
};

/// A message computed by the protocol but not yet placed into the buffer —
/// the content of the processor's next *sending step*.
///
/// Broadcasts are staged as a **single** entry holding the payload once; the
/// engine moves the message into the buffer as one entry of the sender's log,
/// which every recipient reads through its cursor. The
/// default [`Context::broadcast`] would instead clone the payload per
/// recipient, which is exactly the per-message heap work the campaign hot
/// path cannot afford.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outgoing {
    /// A message addressed to a single recipient.
    One {
        /// The recipient.
        to: ProcessorId,
        /// The message contents.
        payload: Payload,
    },
    /// A message addressed to every processor, the sender included.
    Broadcast {
        /// The message contents, stored once for all `n` recipients.
        payload: Payload,
    },
    /// A message addressed to an explicit set of recipients (the sender only
    /// if it lists itself), stored once for the whole set. The engine logs
    /// the payload once and enqueues one 4-byte log index per listed
    /// recipient, so a committee multicast costs O(|set|), not O(n).
    Multicast {
        /// The recipients, in the order the protocol listed them.
        to: Vec<ProcessorId>,
        /// The message contents, stored once for the whole recipient set.
        payload: Payload,
    },
}

/// Durable (non-erasable) processor state plus engine-facing plumbing.
///
/// `HarnessCore` implements [`Context`]; protocol callbacks receive it as
/// `&mut dyn Context`.
#[derive(Debug)]
pub struct HarnessCore {
    id: ProcessorId,
    cfg: SystemConfig,
    input: Bit,
    output: OutputRegister,
    reset_count: u64,
    crashed: bool,
    rng: ProcessorRng,
    coin_flips: u64,
    outbox: Vec<Outgoing>,
    violations: Vec<String>,
}

impl Context for HarnessCore {
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
        self.outbox.push(Outgoing::One { to, payload });
    }

    /// Stages one broadcast entry instead of the default per-recipient
    /// `send` loop: the payload is kept once and never cloned, no matter how
    /// many processors it addresses.
    fn broadcast(&mut self, payload: Payload) {
        self.outbox.push(Outgoing::Broadcast { payload });
    }

    /// Stages one multicast entry instead of the default per-recipient
    /// `send` loop: the payload is kept once for the whole recipient set and
    /// the engine logs it once in the buffer.
    fn multicast(&mut self, recipients: &[ProcessorId], payload: Payload) {
        self.outbox.push(Outgoing::Multicast {
            to: recipients.to_vec(),
            payload,
        });
    }

    fn random_bit(&mut self) -> Bit {
        self.coin_flips += 1;
        self.rng.bit()
    }

    fn random_range(&mut self, bound: u64) -> u64 {
        self.coin_flips += 1;
        self.rng.range(bound)
    }

    fn random_ticket(&mut self) -> u64 {
        self.coin_flips += 1;
        self.rng.ticket()
    }

    fn decide(&mut self, value: Bit) {
        if let Err(err) = self.output.write(value) {
            self.violations.push(format!("{}: {err}", self.id));
        }
    }

    fn decision(&self) -> Option<Bit> {
        self.output.get()
    }
}

/// A processor: durable state, private randomness and the protocol "memory".
#[derive(Debug)]
pub struct ProcessorHarness {
    core: HarnessCore,
    protocol: Box<dyn Protocol>,
    started: bool,
}

impl ProcessorHarness {
    /// Builds the harness for processor `id` with the given input bit.
    ///
    /// The protocol instance is created through `builder`; the processor's
    /// private random stream is derived deterministically from `master_seed`
    /// and `id`.
    pub fn new(
        id: ProcessorId,
        input: Bit,
        cfg: SystemConfig,
        builder: &dyn ProtocolBuilder,
        master_seed: u64,
    ) -> Self {
        let protocol = builder.build(id, input, &cfg);
        ProcessorHarness {
            core: HarnessCore {
                id,
                cfg,
                input,
                output: OutputRegister::new(),
                reset_count: 0,
                crashed: false,
                rng: ProcessorRng::for_processor(master_seed, id),
                coin_flips: 0,
                outbox: Vec::new(),
                violations: Vec::new(),
            },
            protocol,
            started: false,
        }
    }

    /// The processor's identity.
    pub fn id(&self) -> ProcessorId {
        self.core.id
    }

    /// The processor's immutable input bit.
    pub fn input(&self) -> Bit {
        self.core.input
    }

    /// The value of the write-once output bit, if written.
    pub fn decision(&self) -> Option<Bit> {
        self.core.output.get()
    }

    /// Whether the processor has crashed (takes no further steps).
    pub fn is_crashed(&self) -> bool {
        self.core.crashed
    }

    /// How many times the processor has been reset.
    pub fn reset_count(&self) -> u64 {
        self.core.reset_count
    }

    /// How many private random draws (bits, ranges, tickets) the protocol has
    /// made. Durable instrumentation: resets do not clear it.
    pub fn coin_flips(&self) -> u64 {
        self.core.coin_flips
    }

    /// Conflicting-decision violations recorded so far.
    pub fn violations(&self) -> &[String] {
        &self.core.violations
    }

    /// Number of messages waiting in the outbox for the next sending step
    /// (a staged broadcast counts as `n` messages, a staged multicast as one
    /// per listed recipient).
    pub fn outbox_len(&self) -> usize {
        let n = self.core.cfg.n();
        self.core
            .outbox
            .iter()
            .map(|out| match out {
                Outgoing::One { .. } => 1,
                Outgoing::Broadcast { .. } => n,
                Outgoing::Multicast { to, .. } => to.len(),
            })
            .sum()
    }

    /// Re-initializes this harness for a fresh trial in place, reusing the
    /// outbox and violation allocations: the protocol slot goes through
    /// [`ProtocolBuilder::rebuild`] — which resets the previous trial's
    /// instance where the builder recognizes it as its own and replaces it
    /// otherwise — then a fresh output register and rng stream, zeroed
    /// counters. Equivalent to `ProcessorHarness::new` with the same
    /// arguments.
    pub fn reinit(
        &mut self,
        id: ProcessorId,
        input: Bit,
        cfg: SystemConfig,
        builder: &dyn ProtocolBuilder,
        master_seed: u64,
    ) {
        builder.rebuild(&mut self.protocol, id, input, &cfg);
        self.started = false;
        self.core.id = id;
        self.core.cfg = cfg;
        self.core.input = input;
        self.core.output = OutputRegister::new();
        self.core.reset_count = 0;
        self.core.crashed = false;
        self.core.rng = ProcessorRng::for_processor(master_seed, id);
        self.core.coin_flips = 0;
        self.core.outbox.clear();
        self.core.violations.clear();
    }

    /// Runs the protocol's `on_start` callback (idempotent: only the first
    /// call has any effect).
    pub fn start(&mut self) {
        if self.started || self.core.crashed {
            return;
        }
        self.started = true;
        self.protocol.on_start(&mut self.core);
    }

    /// Delivers a message to the processor (a *receiving step*): the protocol
    /// performs its local computation and may queue outgoing messages and/or
    /// write the output bit. Crashed processors ignore deliveries.
    pub fn deliver(&mut self, from: ProcessorId, payload: &Payload) {
        if self.core.crashed {
            return;
        }
        self.protocol.on_message(from, payload, &mut self.core);
    }

    /// Erases the processor's memory (a *resetting step*): clears the pending
    /// outbox and tells the protocol to discard its volatile state. The input
    /// bit, output bit, identity and reset counter are retained.
    pub fn reset(&mut self) {
        if self.core.crashed {
            return;
        }
        self.core.reset_count += 1;
        self.core.outbox.clear();
        self.protocol.on_reset(&mut self.core);
    }

    /// Permanently crashes the processor. Pending outgoing messages that have
    /// not yet been placed in the buffer are lost.
    pub fn crash(&mut self) {
        self.core.crashed = true;
        self.core.outbox.clear();
    }

    /// Drains the staged messages computed since the last sending step (the
    /// contents of the next *sending step*), leaving the outbox empty but its
    /// allocation in place. This is the engines' hot path: broadcasts come
    /// out as single entries for the buffer to log once.
    pub fn drain_outbox(&mut self) -> std::vec::Drain<'_, Outgoing> {
        self.core.outbox.drain(..)
    }

    /// Takes the messages of the next *sending step* as concrete envelopes,
    /// expanding staged broadcasts into one envelope per recipient (cloning
    /// the payload per extra recipient). Convenience for tests and
    /// diagnostics; engines use [`ProcessorHarness::drain_outbox`].
    pub fn take_outbox(&mut self) -> Vec<Envelope> {
        let n = self.core.cfg.n();
        let sender = self.core.id;
        let mut envelopes = Vec::with_capacity(self.outbox_len());
        for out in self.core.outbox.drain(..) {
            match out {
                Outgoing::One { to, payload } => {
                    envelopes.push(Envelope::new(sender, to, payload));
                }
                Outgoing::Broadcast { payload } => {
                    for to in ProcessorId::all(n) {
                        envelopes.push(Envelope::new(sender, to, payload.clone()));
                    }
                }
                Outgoing::Multicast { to, payload } => {
                    for to in to {
                        envelopes.push(Envelope::new(sender, to, payload.clone()));
                    }
                }
            }
        }
        envelopes
    }

    /// The adversary-visible digest: the protocol's own digest with the
    /// durable output register and reset counter merged in.
    pub fn digest(&self) -> StateDigest {
        let mut digest = self.protocol.digest();
        digest.decided = self.core.output.get();
        digest.reset_count = self.core.reset_count;
        digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreement_model::Payload;

    /// A test protocol: echoes every report back to its sender, decides on the
    /// first report whose round is at least 3, and supports resets by clearing
    /// a counter.
    #[derive(Debug)]
    struct Echo {
        input: Bit,
        seen: u64,
        resets: u64,
    }

    impl Protocol for Echo {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.broadcast(Payload::Report {
                round: 1,
                value: self.input,
            });
        }

        fn on_message(&mut self, from: ProcessorId, payload: &Payload, ctx: &mut dyn Context) {
            self.seen += 1;
            if let Payload::Report { round, value } = payload {
                ctx.send(
                    from,
                    Payload::Report {
                        round: round + 1,
                        value: *value,
                    },
                );
                if *round >= 3 {
                    ctx.decide(*value);
                }
            }
        }

        fn on_reset(&mut self, _ctx: &mut dyn Context) {
            self.seen = 0;
            self.resets += 1;
        }

        fn digest(&self) -> StateDigest {
            StateDigest {
                round: Some(self.seen + 1),
                estimate: Some(self.input),
                decided: None,
                reset_count: self.resets,
                phase: "echo",
            }
        }
    }

    #[derive(Debug)]
    struct EchoBuilder;

    impl ProtocolBuilder for EchoBuilder {
        fn name(&self) -> &'static str {
            "echo"
        }

        fn build(&self, _id: ProcessorId, input: Bit, _cfg: &SystemConfig) -> Box<dyn Protocol> {
            Box::new(Echo {
                input,
                seen: 0,
                resets: 0,
            })
        }
    }

    fn harness(n: usize) -> ProcessorHarness {
        let cfg = SystemConfig::new(n, 0).unwrap();
        ProcessorHarness::new(ProcessorId::new(0), Bit::One, cfg, &EchoBuilder, 7)
    }

    #[test]
    fn start_broadcasts_and_is_idempotent() {
        let mut h = harness(4);
        h.start();
        assert_eq!(h.outbox_len(), 4);
        h.start();
        assert_eq!(
            h.outbox_len(),
            4,
            "second start must not duplicate messages"
        );
        let out = h.take_outbox();
        assert_eq!(out.len(), 4);
        assert_eq!(h.outbox_len(), 0);
    }

    #[test]
    fn deliver_runs_protocol_and_can_decide() {
        let mut h = harness(4);
        h.start();
        h.take_outbox();
        h.deliver(
            ProcessorId::new(2),
            &Payload::Report {
                round: 5,
                value: Bit::Zero,
            },
        );
        assert_eq!(h.decision(), Some(Bit::Zero));
        // The echo reply is waiting in the outbox.
        assert_eq!(h.outbox_len(), 1);
        let out = h.take_outbox();
        assert_eq!(out[0].recipient, ProcessorId::new(2));
        assert_eq!(out[0].sender, ProcessorId::new(0));
    }

    #[test]
    fn reset_clears_outbox_and_bumps_counter_but_keeps_decision() {
        let mut h = harness(4);
        h.start();
        h.deliver(
            ProcessorId::new(1),
            &Payload::Report {
                round: 3,
                value: Bit::One,
            },
        );
        assert_eq!(h.decision(), Some(Bit::One));
        assert!(h.outbox_len() > 0);
        h.reset();
        assert_eq!(h.outbox_len(), 0);
        assert_eq!(h.reset_count(), 1);
        // Output bit survives the reset, as in the paper's model.
        assert_eq!(h.decision(), Some(Bit::One));
        assert_eq!(h.digest().reset_count, 1);
    }

    #[test]
    fn crashed_processor_ignores_everything() {
        let mut h = harness(4);
        h.start();
        h.crash();
        assert!(h.is_crashed());
        assert_eq!(h.outbox_len(), 0);
        h.deliver(
            ProcessorId::new(1),
            &Payload::Report {
                round: 9,
                value: Bit::One,
            },
        );
        assert_eq!(h.decision(), None);
        h.reset();
        assert_eq!(
            h.reset_count(),
            0,
            "resets do not apply to crashed processors"
        );
    }

    #[test]
    fn conflicting_decisions_are_recorded_as_violations_not_panics() {
        #[derive(Debug)]
        struct DoubleDecider;
        impl Protocol for DoubleDecider {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                ctx.decide(Bit::Zero);
                ctx.decide(Bit::One);
            }
            fn on_message(&mut self, _f: ProcessorId, _p: &Payload, _c: &mut dyn Context) {}
            fn digest(&self) -> StateDigest {
                StateDigest::initial(Bit::Zero)
            }
        }
        #[derive(Debug)]
        struct DoubleBuilder;
        impl ProtocolBuilder for DoubleBuilder {
            fn name(&self) -> &'static str {
                "double"
            }
            fn build(&self, _id: ProcessorId, _i: Bit, _c: &SystemConfig) -> Box<dyn Protocol> {
                Box::new(DoubleDecider)
            }
        }
        let cfg = SystemConfig::new(3, 0).unwrap();
        let mut h = ProcessorHarness::new(ProcessorId::new(1), Bit::Zero, cfg, &DoubleBuilder, 1);
        h.start();
        assert_eq!(h.decision(), Some(Bit::Zero));
        assert_eq!(h.violations().len(), 1);
        assert!(h.violations()[0].contains("conflicting decision"));
    }

    #[test]
    fn broadcast_is_staged_once_but_counts_per_recipient() {
        let mut h = harness(4);
        h.start();
        // One staged entry for a 4-way broadcast, reported as 4 messages.
        assert_eq!(h.core.outbox.len(), 1);
        assert!(matches!(h.core.outbox[0], Outgoing::Broadcast { .. }));
        assert_eq!(h.outbox_len(), 4);
        let drained: Vec<Outgoing> = h.drain_outbox().collect();
        assert_eq!(drained.len(), 1);
        assert_eq!(h.outbox_len(), 0);
    }

    #[test]
    fn multicast_is_staged_once_and_counts_per_listed_recipient() {
        let mut h = harness(8);
        let set = [
            ProcessorId::new(2),
            ProcessorId::new(5),
            ProcessorId::new(0),
        ];
        h.core.multicast(
            &set,
            Payload::Report {
                round: 1,
                value: Bit::One,
            },
        );
        assert_eq!(h.core.outbox.len(), 1, "one staged entry for the set");
        assert!(matches!(h.core.outbox[0], Outgoing::Multicast { .. }));
        assert_eq!(h.outbox_len(), 3);
        let out = h.take_outbox();
        assert_eq!(out.len(), 3);
        let recipients: Vec<usize> = out.iter().map(|e| e.recipient.index()).collect();
        assert_eq!(recipients, vec![2, 5, 0], "slice order preserved");
        assert!(out.iter().all(|e| e.sender == ProcessorId::new(0)));
    }

    #[test]
    fn reinit_reproduces_a_fresh_harness_bit_for_bit() {
        let cfg = SystemConfig::new(4, 0).unwrap();
        let mut reused = ProcessorHarness::new(ProcessorId::new(0), Bit::One, cfg, &EchoBuilder, 7);
        // Dirty every piece of state the reinit must clear.
        reused.start();
        reused.deliver(
            ProcessorId::new(1),
            &Payload::Report {
                round: 3,
                value: Bit::Zero,
            },
        );
        reused.reset();
        assert!(reused.reset_count() > 0);

        reused.reinit(ProcessorId::new(2), Bit::Zero, cfg, &EchoBuilder, 99);
        let mut fresh =
            ProcessorHarness::new(ProcessorId::new(2), Bit::Zero, cfg, &EchoBuilder, 99);
        assert_eq!(reused.id(), fresh.id());
        assert_eq!(reused.input(), fresh.input());
        assert_eq!(reused.decision(), None);
        assert_eq!(reused.reset_count(), 0);
        assert_eq!(reused.coin_flips(), 0);
        assert_eq!(reused.outbox_len(), 0);
        assert!(reused.violations().is_empty());
        assert_eq!(reused.digest(), fresh.digest());
        // The private random stream restarts exactly where a fresh one does.
        assert_eq!(reused.core.random_ticket(), fresh.core.random_ticket());
        assert_eq!(reused.core.random_bit(), fresh.core.random_bit());
    }

    #[test]
    fn digest_merges_durable_output() {
        let mut h = harness(4);
        h.start();
        assert_eq!(h.digest().decided, None);
        h.deliver(
            ProcessorId::new(1),
            &Payload::Report {
                round: 4,
                value: Bit::One,
            },
        );
        assert_eq!(h.digest().decided, Some(Bit::One));
    }

    #[test]
    fn same_seed_gives_reproducible_randomness_across_harnesses() {
        let cfg = SystemConfig::new(4, 0).unwrap();
        let mut a = ProcessorHarness::new(ProcessorId::new(2), Bit::Zero, cfg, &EchoBuilder, 99);
        let mut b = ProcessorHarness::new(ProcessorId::new(2), Bit::Zero, cfg, &EchoBuilder, 99);
        assert_eq!(a.core.random_ticket(), b.core.random_ticket());
        assert_eq!(a.core.random_bit(), b.core.random_bit());
    }
}
