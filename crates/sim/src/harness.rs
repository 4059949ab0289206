//! The per-processor harness: durable state plus the protocol state machine.
//!
//! A [`ProcessorHarness`] owns what the paper attributes to a single
//! processor, apart from the two bits every step of an execution reads: its
//! identity, its immutable input bit, its reset counter, its private
//! randomness, the protocol state machine (the erasable "memory"), and the
//! set of messages it has computed but not yet placed into the buffer (its
//! next *sending step*). The processor's crash flag and its write-once
//! output bit are a `Status` in the [`ExecutionCore`](crate::ExecutionCore)'s
//! dense per-processor array, and nowhere else: a callback's [`Context`]
//! borrows the output register from there, and the core never hands a
//! crashed processor to its protocol.
//!
//! Resetting a harness erases the protocol state and the pending outgoing
//! messages but keeps the input, output, identity and reset counter — exactly
//! the semantics of the paper's resetting failures.

use std::mem::take;
use std::ops::Range;

use agreement_model::{
    Bit, Context, OutputRegister, Payload, ProcessorId, ProcessorRng, Protocol, ProtocolBuilder,
    StateDigest, SystemConfig,
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
        /// Where the recipients are among the harness's staged recipients,
        /// in the order the protocol listed them. They are staged there, not
        /// in a vector of their own, so that a warm harness allocates
        /// nothing per multicast.
        to: Range<usize>,
        /// The message contents, stored once for the whole recipient set.
        payload: Payload,
    },
}

/// A processor's crash flag and write-once output register: the two bits of
/// it that an execution reads on every step. The core keeps one per
/// processor in a dense array, which holds the only copy of each.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Status {
    /// Whether the processor has crashed (takes no further steps).
    pub(crate) crashed: bool,
    /// The processor's output bit.
    pub(crate) output: OutputRegister,
}

/// Durable (non-erasable) processor state plus engine-facing plumbing.
#[derive(Debug)]
struct HarnessCore {
    id: ProcessorId,
    cfg: SystemConfig,
    input: Bit,
    reset_count: u64,
    /// The master seed the private random stream derives from, with `id`.
    master_seed: u64,
    /// The private random stream, derived at the first flip: most protocols
    /// never flip a coin, and deriving a stream costs six `splitmix64`s.
    rng: Option<ProcessorRng>,
    coin_flips: u64,
    outbox: Vec<Outgoing>,
    /// The recipients of the staged multicasts, back to back; emptied with
    /// the outbox.
    recipients: Vec<ProcessorId>,
    violations: Vec<String>,
    /// Whether the protocol's `on_start` has run.
    started: bool,
}

impl HarnessCore {
    /// Processor `id` before its first step of a trial, keeping the given
    /// buffers' allocations: the only place the starting state is written.
    // Forced: inlined, a by-value rebuild moves less (−2 700 instructions).
    #[inline(always)]
    fn new(
        id: ProcessorId,
        input: Bit,
        cfg: SystemConfig,
        master_seed: u64,
        mut outbox: Vec<Outgoing>,
        mut recipients: Vec<ProcessorId>,
        mut violations: Vec<String>,
    ) -> Self {
        outbox.clear();
        recipients.clear();
        violations.clear();
        HarnessCore {
            id,
            cfg,
            input,
            reset_count: 0,
            master_seed,
            rng: None,
            coin_flips: 0,
            outbox,
            recipients,
            violations,
            started: false,
        }
    }

    /// Forgets every staged message, keeping the allocations.
    fn clear_outbox(&mut self) {
        self.outbox.clear();
        self.recipients.clear();
    }
}

/// What a protocol callback receives as `&mut dyn Context`: the processor's
/// harness state, and its output register borrowed from the core's slot.
pub(crate) struct HarnessContext<'a> {
    core: &'a mut HarnessCore,
    output: &'a mut OutputRegister,
}

impl Context for HarnessContext<'_> {
    fn id(&self) -> ProcessorId {
        self.core.id
    }

    fn config(&self) -> SystemConfig {
        self.core.cfg
    }

    fn input(&self) -> Bit {
        self.core.input
    }

    fn send(&mut self, to: ProcessorId, payload: Payload) {
        self.core.outbox.push(Outgoing::One { to, payload });
    }

    /// Stages one broadcast entry instead of the default per-recipient
    /// `send` loop: the payload is kept once and never cloned, no matter how
    /// many processors it addresses.
    fn broadcast(&mut self, payload: Payload) {
        self.core.outbox.push(Outgoing::Broadcast { payload });
    }

    /// Stages one multicast entry instead of the default per-recipient
    /// `send` loop: the payload is kept once for the whole recipient set and
    /// the engine logs it once in the buffer.
    fn multicast(&mut self, recipients: &[ProcessorId], payload: Payload) {
        let staged = &mut self.core.recipients;
        let start = staged.len();
        staged.extend_from_slice(recipients);
        let to = start..staged.len();
        self.core.outbox.push(Outgoing::Multicast { to, payload });
    }

    /// Counts the flip and draws it from the private random stream, deriving
    /// the stream at the first flip: bit for bit the stream
    /// [`ProcessorRng::for_processor`] gives for the master seed and `id`.
    fn random_bit(&mut self) -> Bit {
        let core = &mut *self.core;
        core.coin_flips += 1;
        let (seed, id) = (core.master_seed, core.id);
        core.rng
            .get_or_insert_with(|| ProcessorRng::for_processor(seed, id))
            .bit()
    }

    fn decide(&mut self, value: Bit) {
        if let Err(err) = self.output.write(value) {
            self.core
                .violations
                .push(format!("{}: {err}", self.core.id));
        }
    }

    fn decision(&self) -> Option<Bit> {
        self.output.get()
    }
}

/// A processor: durable state, private randomness and the protocol "memory".
///
/// The processor's output register is not in here: every method that hands
/// the processor to its protocol borrows it from the caller.
#[derive(Debug)]
pub struct ProcessorHarness {
    core: HarnessCore,
    protocol: Box<dyn Protocol>,
}

impl ProcessorHarness {
    /// Builds the harness for processor `id` with the given input bit.
    ///
    /// The protocol instance is created through `builder`; the processor's
    /// private random stream is derived deterministically from `master_seed`
    /// and `id`, at its first flip.
    pub fn new(
        id: ProcessorId,
        input: Bit,
        cfg: SystemConfig,
        builder: &dyn ProtocolBuilder,
        master_seed: u64,
    ) -> Self {
        ProcessorHarness {
            core: HarnessCore::new(id, input, cfg, master_seed, vec![], vec![], vec![]),
            protocol: builder.build(id, input, &cfg),
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

    /// How many times the processor has been reset.
    pub fn reset_count(&self) -> u64 {
        self.core.reset_count
    }

    /// How many private coin flips the protocol has made. Durable
    /// instrumentation: resets do not clear it.
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

    /// Whether the outbox holds anything for the next sending step.
    #[inline]
    pub fn has_staged(&self) -> bool {
        !self.core.outbox.is_empty()
    }

    /// Re-initializes this harness for a fresh trial in place: the protocol
    /// slot goes through [`ProtocolBuilder::rebuild`], the rest through the
    /// constructor [`ProcessorHarness::new`] uses, keeping the outbox,
    /// staged recipient and violation allocations. Equivalent to
    /// `ProcessorHarness::new` with the same arguments.
    pub fn reinit(
        &mut self,
        id: ProcessorId,
        input: Bit,
        cfg: SystemConfig,
        builder: &dyn ProtocolBuilder,
        master_seed: u64,
    ) {
        builder.rebuild(&mut self.protocol, id, input, &cfg);
        let core = &mut self.core;
        let (outbox, staged) = (take(&mut core.outbox), take(&mut core.recipients));
        let violations = take(&mut core.violations);
        self.core = HarnessCore::new(id, input, cfg, master_seed, outbox, staged, violations);
    }

    /// Runs the protocol's `on_start` callback (idempotent: only the first
    /// call has any effect), with `output` as the processor's output
    /// register.
    pub fn start(&mut self, output: &mut OutputRegister) {
        if self.core.started {
            return;
        }
        self.core.started = true;
        let ctx = &mut HarnessContext {
            core: &mut self.core,
            output,
        };
        self.protocol.on_start(ctx);
    }

    /// Delivers a message to the processor (a *receiving step*): the protocol
    /// performs its local computation and may queue outgoing messages and/or
    /// write `output`, the processor's output register.
    pub fn deliver(&mut self, from: ProcessorId, payload: &Payload, output: &mut OutputRegister) {
        let (protocol, mut ctx) = self.receiver(output);
        protocol.on_message(from, payload, &mut ctx);
    }

    /// The protocol and the context its callbacks receive, with `output` as
    /// the processor's output register: what a caller holds to hand the
    /// processor many messages in a row, building the context once instead
    /// of once per message (a window's receiving phase).
    #[inline]
    pub(crate) fn receiver<'a>(
        &'a mut self,
        output: &'a mut OutputRegister,
    ) -> (&'a mut dyn Protocol, HarnessContext<'a>) {
        let ctx = HarnessContext {
            core: &mut self.core,
            output,
        };
        (&mut *self.protocol, ctx)
    }

    /// Erases the processor's memory (a *resetting step*): clears the pending
    /// outbox and tells the protocol to discard its volatile state. The input
    /// bit, output bit, identity and reset counter are retained.
    pub fn reset(&mut self, output: &mut OutputRegister) {
        self.core.reset_count += 1;
        self.core.clear_outbox();
        let ctx = &mut HarnessContext {
            core: &mut self.core,
            output,
        };
        self.protocol.on_reset(ctx);
    }

    /// Discards the messages staged for the next sending step: what a crash
    /// does to the harness. They were never placed in the buffer and are
    /// lost.
    pub fn discard_outbox(&mut self) {
        self.core.clear_outbox();
    }

    /// The staged messages computed since the last sending step (the
    /// contents of the next *sending step*), oldest first, and the staged
    /// recipients a multicast's `to` range indexes: the core's sending step
    /// empties both in place, keeping their allocations.
    #[inline]
    pub(crate) fn staged_mut(&mut self) -> (&mut Vec<Outgoing>, &mut Vec<ProcessorId>) {
        (&mut self.core.outbox, &mut self.core.recipients)
    }

    /// The adversary-visible digest of the processor's erasable memory: the
    /// protocol's own. The durable facts are read where they live: the
    /// output bit in the core's register, the reset count from
    /// [`ProcessorHarness::reset_count`].
    pub fn digest(&self) -> StateDigest {
        self.protocol.digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreement_model::Payload;

    /// Empties the outbox as a sending step does, handing `send` each staged
    /// message, oldest first, beside the staged recipients.
    fn drain_outbox(h: &mut ProcessorHarness, mut send: impl FnMut(Outgoing, &[ProcessorId])) {
        let (outbox, staged) = h.staged_mut();
        for out in outbox.drain(..) {
            send(out, staged);
        }
        staged.clear();
    }

    /// A test protocol: echoes every report back to its sender, decides on the
    /// first report whose round is at least 3, and supports resets by clearing
    /// a counter.
    #[derive(Debug)]
    struct Echo {
        input: Bit,
        seen: u64,
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
        }

        fn digest(&self) -> StateDigest {
            StateDigest {
                round: Some(self.seen + 1),
                estimate: Some(self.input),
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
            Box::new(Echo { input, seen: 0 })
        }
    }

    fn harness(n: usize) -> ProcessorHarness {
        let cfg = SystemConfig::new(n, 0).unwrap();
        ProcessorHarness::new(ProcessorId::new(0), Bit::One, cfg, &EchoBuilder, 7)
    }

    /// The context a callback of `h` would receive, over `output`.
    fn context<'a>(
        h: &'a mut ProcessorHarness,
        output: &'a mut OutputRegister,
    ) -> HarnessContext<'a> {
        HarnessContext {
            core: &mut h.core,
            output,
        }
    }

    #[test]
    fn start_broadcasts_and_is_idempotent() {
        let mut h = harness(4);
        let mut out = OutputRegister::new();
        h.start(&mut out);
        assert_eq!(h.outbox_len(), 4);
        h.start(&mut out);
        assert_eq!(
            h.outbox_len(),
            4,
            "second start must not duplicate messages"
        );
        let mut staged = 0;
        drain_outbox(&mut h, |_, _| staged += 1);
        assert_eq!(staged, 1, "one staged broadcast");
        assert_eq!(h.outbox_len(), 0);
    }

    #[test]
    fn deliver_runs_protocol_and_can_decide() {
        let mut h = harness(4);
        let mut out = OutputRegister::new();
        h.start(&mut out);
        drain_outbox(&mut h, |_, _| {});
        h.deliver(
            ProcessorId::new(2),
            &Payload::Report {
                round: 5,
                value: Bit::Zero,
            },
            &mut out,
        );
        assert_eq!(out.get(), Some(Bit::Zero));
        // The echo reply is waiting in the outbox.
        assert_eq!(h.outbox_len(), 1);
        let mut replies = Vec::new();
        drain_outbox(&mut h, |out, _| replies.push(out));
        assert!(matches!(
            replies[..],
            [Outgoing::One { to, .. }] if to == ProcessorId::new(2)
        ));
    }

    #[test]
    fn reset_clears_outbox_and_bumps_counter_but_keeps_decision() {
        let mut h = harness(4);
        let mut out = OutputRegister::new();
        h.start(&mut out);
        h.deliver(
            ProcessorId::new(1),
            &Payload::Report {
                round: 3,
                value: Bit::One,
            },
            &mut out,
        );
        assert_eq!(out.get(), Some(Bit::One));
        assert!(h.outbox_len() > 0);
        h.reset(&mut out);
        assert_eq!(h.outbox_len(), 0);
        assert_eq!(h.reset_count(), 1);
        // Output bit survives the reset, as in the paper's model.
        assert_eq!(out.get(), Some(Bit::One));
        // The memory is erased: the protocol's counter is back at zero.
        assert_eq!(h.digest().round, Some(1));
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
        let mut out = OutputRegister::new();
        h.start(&mut out);
        assert_eq!(out.get(), Some(Bit::Zero));
        assert_eq!(h.violations().len(), 1);
        assert!(h.violations()[0].contains("conflicting decision"));
    }

    #[test]
    fn broadcast_is_staged_once_but_counts_per_recipient() {
        let mut h = harness(4);
        h.start(&mut OutputRegister::new());
        // One staged entry for a 4-way broadcast, reported as 4 messages.
        assert_eq!(h.core.outbox.len(), 1);
        assert!(matches!(h.core.outbox[0], Outgoing::Broadcast { .. }));
        assert_eq!(h.outbox_len(), 4);
        let mut drained = Vec::new();
        drain_outbox(&mut h, |out, _| drained.push(out));
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
        context(&mut h, &mut OutputRegister::new()).multicast(
            &set,
            Payload::Report {
                round: 1,
                value: Bit::One,
            },
        );
        assert_eq!(h.core.outbox.len(), 1, "one staged entry for the set");
        assert!(matches!(h.core.outbox[0], Outgoing::Multicast { .. }));
        assert_eq!(h.outbox_len(), 3);
        let mut recipients = Vec::new();
        drain_outbox(&mut h, |out, staged| {
            if let Outgoing::Multicast { to, .. } = out {
                recipients.extend(staged[to].iter().map(|id| id.index()));
            }
        });
        assert_eq!(recipients, vec![2, 5, 0], "slice order preserved");
        assert!(
            h.core.recipients.is_empty(),
            "staged recipients go with the outbox"
        );
        // Two sets staged back to back come out as their own slices.
        let mut output = OutputRegister::new();
        let mut ctx = context(&mut h, &mut output);
        let report = |value| Payload::Report { round: 2, value };
        ctx.multicast(&set[1..], report(Bit::One));
        ctx.multicast(&set[..1], report(Bit::Zero));
        let mut sets = Vec::new();
        drain_outbox(&mut h, |out, staged| {
            if let Outgoing::Multicast { to, .. } = out {
                sets.push(staged[to].to_vec());
            }
        });
        assert_eq!(sets, vec![set[1..].to_vec(), set[..1].to_vec()]);
        assert!(h.core.recipients.is_empty() && h.core.recipients.capacity() >= 3);
    }

    #[test]
    fn reinit_reproduces_a_fresh_harness_bit_for_bit() {
        let cfg = SystemConfig::new(4, 0).unwrap();
        let mut reused = ProcessorHarness::new(ProcessorId::new(0), Bit::One, cfg, &EchoBuilder, 7);
        // Dirty every piece of state the reinit must clear, the outbox last.
        let mut out = OutputRegister::new();
        reused.start(&mut out);
        reused.reset(&mut out);
        reused.deliver(
            ProcessorId::new(1),
            &Payload::Report {
                round: 3,
                value: Bit::Zero,
            },
            &mut out,
        );
        assert!(reused.reset_count() > 0 && reused.outbox_len() > 0);

        reused.reinit(ProcessorId::new(2), Bit::Zero, cfg, &EchoBuilder, 99);
        let mut fresh =
            ProcessorHarness::new(ProcessorId::new(2), Bit::Zero, cfg, &EchoBuilder, 99);
        assert_eq!(reused.id(), fresh.id());
        assert_eq!(reused.input(), fresh.input());
        assert_eq!(reused.reset_count(), 0);
        assert_eq!(reused.coin_flips(), 0);
        assert_eq!(reused.outbox_len(), 0);
        assert!(reused.violations().is_empty());
        assert_eq!(reused.digest(), fresh.digest());
        // The private random stream restarts exactly where a fresh one does
        // — derived at the first draw — and a reset neither reseeds nor
        // rewinds it.
        let (mut a, mut b) = (OutputRegister::new(), OutputRegister::new());
        for round in 0..3 {
            if round == 1 {
                reused.reset(&mut a);
                fresh.reset(&mut b);
            }
            let (mut reused, mut fresh) =
                (context(&mut reused, &mut a), context(&mut fresh, &mut b));
            for flip in 0..12 {
                let (a, b) = (reused.random_bit(), fresh.random_bit());
                assert_eq!(a, b, "round {round}, flip {flip}");
            }
        }
        // The stream is the one `ProcessorRng::for_processor` derives, one
        // draw per call.
        let mut expected = ProcessorRng::for_processor(99, ProcessorId::new(2));
        let mut draws =
            ProcessorHarness::new(ProcessorId::new(2), Bit::Zero, cfg, &EchoBuilder, 99);
        let mut out = OutputRegister::new();
        let mut ctx = context(&mut draws, &mut out);
        for _ in 0..3 {
            assert_eq!(ctx.random_bit(), expected.bit());
        }
        assert_eq!(reused.coin_flips(), fresh.coin_flips());
        assert_eq!(draws.coin_flips(), 3);
    }

    #[test]
    fn digest_is_the_protocols_and_the_decision_stays_in_the_register() {
        let mut h = harness(4);
        let mut out = OutputRegister::new();
        h.start(&mut out);
        assert_eq!(out.get(), None);
        h.deliver(
            ProcessorId::new(1),
            &Payload::Report {
                round: 4,
                value: Bit::One,
            },
            &mut out,
        );
        assert_eq!(out.get(), Some(Bit::One));
        assert_eq!(h.digest(), h.protocol.digest());
        assert_eq!(h.digest().round, Some(2));
    }

    #[test]
    fn same_seed_gives_reproducible_randomness_across_harnesses() {
        let cfg = SystemConfig::new(4, 0).unwrap();
        let mut a = ProcessorHarness::new(ProcessorId::new(2), Bit::Zero, cfg, &EchoBuilder, 99);
        let mut b = ProcessorHarness::new(ProcessorId::new(2), Bit::Zero, cfg, &EchoBuilder, 99);
        let (mut out_a, mut out_b) = (OutputRegister::new(), OutputRegister::new());
        let (mut a, mut b) = (context(&mut a, &mut out_a), context(&mut b, &mut out_b));
        for _ in 0..64 {
            assert_eq!(a.random_bit(), b.random_bit());
        }
    }
}
