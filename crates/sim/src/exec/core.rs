//! The shared execution substrate every execution model drives.
//!
//! [`ExecutionCore`] is the single owner of everything an execution of the
//! paper's model consists of, independent of *which* adversary model schedules
//! it: the per-processor harnesses, every processor's crash flag and output
//! register, the in-flight [`MessageBuffer`], causal chain depths,
//! decision/validity tracking, trace emission and the outcome snapshot. What
//! differs between models — how a unit of scheduled time is assembled — is
//! one arm of the [`Scheduler`](super::Scheduler) enum.
//! Observation is compile-time gated twice over: primitive-transition hooks
//! live behind the [`Probe`](crate::Probe) trait (default
//! [`NoProbe`](crate::NoProbe) compiles every hook away), and trace emission
//! lives behind the [`Recorder`](agreement_model::Recorder) trait — the
//! default [`FullTrace`] keeps the event log for diagnostics, while
//! [`NoTrace`](agreement_model::NoTrace) monomorphizes every trace push (and
//! the construction of its event) out of the campaign hot path entirely.

use std::cell::{Cell, RefCell};

use agreement_model::{
    Bit, FullTrace, InputAssignment, Payload, ProcessorId, ProtocolBuilder, Recorder, StateDigest,
    SystemConfig, TraceEvent,
};

use crate::adversary::SystemView;
use crate::buffer::MessageBuffer;
use crate::harness::{Outgoing, ProcessorHarness, Status};
use crate::metrics::{Metrics, NoProbe, Probe};
use crate::outcome::RunOutcome;
use crate::window::Window;

/// The shared state of one execution: harnesses, buffer, recorder and
/// counters.
///
/// A core is model-agnostic. It exposes the primitive state transitions of the
/// paper's model (sending steps, receiving steps, resetting steps, crashes,
/// Byzantine corruption) and records their effects; a
/// [`Scheduler`](super::Scheduler) composes them into the execution shape of a
/// concrete adversary model. Every transition that hands a processor to its
/// protocol ends in one decision transition, which books a newly written
/// output bit once: the counters, the first-decision chain, the
/// [`TraceEvent::Decided`] event and [`Probe::on_decide`]. Every transition
/// additionally fires a hook on the core's [`Probe`] and an event on its
/// [`Recorder`]; with the default [`NoProbe`] the hooks are empty inlined
/// bodies, and with [`NoTrace`](agreement_model::NoTrace) the event pushes
/// vanish the same way — a `NoProbe`/`NoTrace` core is byte-for-byte the
/// un-instrumented, un-traced core the campaign workers run.
#[derive(Debug)]
pub struct ExecutionCore<P: Probe = NoProbe, R: Recorder = FullTrace> {
    cfg: SystemConfig,
    inputs: InputAssignment,
    harnesses: Vec<ProcessorHarness>,
    /// Processor `i`'s crash flag and output register — the only copy of
    /// either. Every step reads them, so they sit here, `n` × 2 bytes, not
    /// on `n` harness lines: the adversary's scan reads a crash flag per
    /// candidate channel, a delivery reads both. A protocol callback's
    /// context borrows the output register from its slot.
    status: Vec<Status>,
    buffer: MessageBuffer,
    recorder: R,
    probe: P,
    /// Scheduler time: window index for windowed executions, step index for
    /// asynchronous ones. Advanced only by [`ExecutionCore::advance_window`]
    /// and [`ExecutionCore::advance_step`].
    time: u64,
    /// Acceptable windows scheduled so far (windowed executions only).
    windows: u64,
    /// Adversary steps scheduled so far (asynchronous executions only).
    steps: u64,
    /// Causal depth of each processor: the longest chain among messages it has
    /// received so far.
    depth: Vec<u64>,
    resets_performed: u64,
    crashes_performed: u64,
    corrupted: Vec<bool>,
    /// What [`SystemView::digest`] remembers between decisions: processor
    /// `i`'s digest as last computed for a view, `None` once a transition has
    /// touched the processor since (see `mark_view_dirty`).
    digest_memo: Vec<Cell<Option<StateDigest>>>,
    /// The window applied last, until the next decision takes it to refill
    /// ([`SystemView::take_window`]). Not execution state — only its storage
    /// is ever read — so [`ExecutionCore::reinit`] leaves it alone and the
    /// first window of a trial is as warm as the last of the one before. (A
    /// `RefCell` where the memo has `Cell`s: a `Cell` of a non-`Copy` value
    /// has no `Debug`.)
    spare_window: RefCell<Window>,
    /// The channels one sender owes in a partial-synchrony step, as
    /// [`MessageBuffer::owed_channels`] lists them. Storage only, like the
    /// spare window: [`ExecutionCore::reinit`] leaves it alone.
    owed: Vec<(ProcessorId, usize)>,
    /// Number of non-crashed processors that have not decided yet. Kept
    /// incrementally so termination checks are O(1) per adversary step
    /// instead of an O(n) scan.
    undecided_correct: usize,
    /// Number of processors (crashed or not) whose output register is set.
    decided_count: usize,
    first_decision_at: Option<u64>,
    all_decided_at: Option<u64>,
    chain_at_first_decision: Option<u64>,
    halted: bool,
    started: bool,
}

impl ExecutionCore<NoProbe, FullTrace> {
    /// Creates an un-instrumented, trace-keeping core for `cfg.n()`
    /// processors with the given inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not assign exactly `cfg.n()` bits.
    pub fn new(
        cfg: SystemConfig,
        inputs: InputAssignment,
        builder: &dyn ProtocolBuilder,
        master_seed: u64,
    ) -> Self {
        ExecutionCore::with_probe(cfg, inputs, builder, master_seed, NoProbe)
    }
}

impl<P: Probe> ExecutionCore<P, FullTrace> {
    /// Creates a trace-keeping core whose primitive transitions are observed
    /// by `probe`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not assign exactly `cfg.n()` bits.
    pub fn with_probe(
        cfg: SystemConfig,
        inputs: InputAssignment,
        builder: &dyn ProtocolBuilder,
        master_seed: u64,
        probe: P,
    ) -> Self {
        ExecutionCore::with_parts(cfg, inputs, builder, master_seed, probe, FullTrace::new())
    }
}

impl<P: Probe, R: Recorder> ExecutionCore<P, R> {
    /// Creates a core with an explicit probe *and* recorder. Campaign workers
    /// pass [`NoTrace`](agreement_model::NoTrace) here so every per-message
    /// trace push monomorphizes away; diagnostic paths pass [`FullTrace`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not assign exactly `cfg.n()` bits.
    pub fn with_parts(
        cfg: SystemConfig,
        inputs: InputAssignment,
        builder: &dyn ProtocolBuilder,
        master_seed: u64,
        probe: P,
        recorder: R,
    ) -> Self {
        assert_eq!(
            inputs.len(),
            cfg.n(),
            "input assignment must cover every processor"
        );
        let harnesses = ProcessorId::all(cfg.n())
            .map(|id| ProcessorHarness::new(id, inputs.bit(id.index()), cfg, builder, master_seed))
            .collect();
        ExecutionCore {
            status: vec![Status::default(); cfg.n()],
            depth: vec![0; cfg.n()],
            corrupted: vec![false; cfg.n()],
            digest_memo: vec![Cell::new(None); cfg.n()],
            spare_window: RefCell::default(),
            owed: Vec::new(),
            undecided_correct: cfg.n(),
            decided_count: 0,
            cfg,
            inputs,
            harnesses,
            buffer: MessageBuffer::with_processors(cfg.n()),
            recorder,
            probe,
            time: 0,
            windows: 0,
            steps: 0,
            resets_performed: 0,
            crashes_performed: 0,
            first_decision_at: None,
            all_decided_at: None,
            chain_at_first_decision: None,
            halted: false,
            started: false,
        }
    }

    /// Re-initializes this core for a fresh trial **in place**, reusing every
    /// allocation the previous trial warmed up: the harness vector (and each
    /// harness's outbox/violation buffers), the status array, the send logs,
    /// cursor rows and index queues of the buffer, the causal-depth vector,
    /// the digest memo, the spare window and — where the builder recognizes
    /// them as its own ([`ProtocolBuilder::rebuild`]) — the protocol
    /// instances themselves. Equivalent to building a new core with
    /// [`ExecutionCore::with_parts`] and the current probe/recorder — the
    /// workspace-reuse equivalence tests pin that down bit for bit.
    ///
    /// The probe is carried over untouched (so a campaign-wide probe keeps
    /// accumulating); the recorder is [`reset`](Recorder::reset). `inputs` is
    /// copied into the core's existing assignment buffer, not reallocated.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not assign exactly `cfg.n()` bits.
    pub fn reinit(
        &mut self,
        cfg: SystemConfig,
        inputs: &InputAssignment,
        builder: &dyn ProtocolBuilder,
        master_seed: u64,
    ) {
        assert_eq!(
            inputs.len(),
            cfg.n(),
            "input assignment must cover every processor"
        );
        let n = cfg.n();
        if self.harnesses.len() == n {
            for (i, harness) in self.harnesses.iter_mut().enumerate() {
                harness.reinit(
                    ProcessorId::new(i),
                    inputs.bit(i),
                    cfg,
                    builder,
                    master_seed,
                );
            }
        } else {
            self.harnesses.clear();
            self.harnesses.extend(ProcessorId::all(n).map(|id| {
                ProcessorHarness::new(id, inputs.bit(id.index()), cfg, builder, master_seed)
            }));
        }
        self.status.clear();
        self.status.resize(n, Status::default());
        self.buffer.reset(n);
        self.recorder.reset();
        self.depth.clear();
        self.depth.resize(n, 0);
        self.corrupted.clear();
        self.corrupted.resize(n, false);
        self.digest_memo.clear();
        self.digest_memo.resize(n, Cell::new(None));
        self.undecided_correct = n;
        self.decided_count = 0;
        self.cfg = cfg;
        self.inputs.clone_from(inputs);
        self.time = 0;
        self.windows = 0;
        self.steps = 0;
        self.resets_performed = 0;
        self.crashes_performed = 0;
        self.first_decision_at = None;
        self.all_decided_at = None;
        self.chain_at_first_decision = None;
        self.halted = false;
        self.started = false;
    }

    // ----- static state & snapshots ------------------------------------------------

    /// The system configuration.
    pub fn config(&self) -> SystemConfig {
        self.cfg
    }

    /// The input assignment of this execution.
    pub fn inputs(&self) -> &InputAssignment {
        &self.inputs
    }

    /// Scheduler time elapsed so far (windows or steps, depending on model).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Read access to the probe observing this execution.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Read access to the recorder (with [`FullTrace`], the trace so far).
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Read access to the in-flight message buffer.
    pub fn buffer(&self) -> &MessageBuffer {
        &self.buffer
    }

    /// The current output bits of all processors, in identity order. Lazy:
    /// collect only when a snapshot must outlive the core borrow.
    pub fn decisions(&self) -> impl Iterator<Item = Option<Bit>> + '_ {
        self.status.iter().map(|s| s.output.get())
    }

    /// The adversary-visible digests of all processors, in identity order.
    pub fn digests(&self) -> impl Iterator<Item = StateDigest> + '_ {
        self.harnesses
            .iter()
            .zip(&self.status)
            .map(|(h, s)| h.digest(&s.output))
    }

    /// Which processors have been crashed so far, in identity order.
    pub fn crashed(&self) -> impl Iterator<Item = bool> + '_ {
        self.status.iter().map(|s| s.crashed)
    }

    /// Whether processor `id` has crashed.
    pub fn is_crashed(&self, id: ProcessorId) -> bool {
        self.status[id.index()].crashed
    }

    /// Which processors have been declared Byzantine-corrupted so far.
    pub fn corrupted(&self) -> &[bool] {
        &self.corrupted
    }

    /// `true` once every non-crashed processor has written its output bit.
    ///
    /// O(1): the core tracks the undecided-correct count across decisions and
    /// crashes, so the campaign run loop (which checks this once per unit of
    /// scheduled time) never rescans all `n` harnesses.
    pub fn all_correct_decided(&self) -> bool {
        debug_assert_eq!(
            self.undecided_correct == 0,
            self.status
                .iter()
                .all(|s| s.crashed || s.output.is_written()),
            "undecided-correct counter out of sync with the status array"
        );
        self.undecided_correct == 0
    }

    /// Number of faults (crashes plus corruptions) charged so far.
    pub fn faults_used(&self) -> usize {
        self.crashes_performed as usize + self.corrupted.iter().filter(|&&c| c).count()
    }

    /// The time at which the first processor decided, if any.
    pub fn first_decision_at(&self) -> Option<u64> {
        self.first_decision_at
    }

    /// The causal depth of the first deciding processor at its decision, if any.
    pub fn chain_at_first_decision(&self) -> Option<u64> {
        self.chain_at_first_decision
    }

    /// `true` once a scheduler or adversary has halted the execution.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Gives a scheduler the full-information [`SystemView`] of the current
    /// state (digests, outputs, crash flags and the whole buffer).
    ///
    /// This runs once per adversary decision and does no work of its own: the
    /// view borrows the status array, the harnesses and the buffer, reads
    /// outputs and crash flags off the status array when asked, and computes
    /// a digest (the one thing it reads a harness for) only when the
    /// adversary asks for one that is not remembered from an earlier
    /// decision. An asynchronous step that consults no digest therefore
    /// calls no [`Protocol::digest`](agreement_model::Protocol::digest), and
    /// one that consults all of them calls it once per processor that
    /// changed since they were last read.
    pub fn with_view<T>(&self, f: impl FnOnce(&SystemView<'_>) -> T) -> T {
        f(&SystemView::new(
            self.cfg,
            self.time,
            &self.buffer,
            &self.status,
            &self.harnesses,
            &self.digest_memo,
            &self.spare_window,
        ))
    }

    /// Keeps `window`, which the scheduler has finished applying, as the
    /// storage the next decision's [`SystemView::take_window`] hands out.
    pub fn keep_window(&mut self, window: Window) {
        *self.spare_window.get_mut() = window;
    }

    /// Forgets the remembered digest of processor `i`; every transition that
    /// hands the processor to its protocol, or resets or crashes it, ends
    /// here.
    #[inline]
    fn mark_view_dirty(&mut self, i: usize) {
        self.digest_memo[i].set(None);
    }

    /// The one ⊥ → v transition: books processor `i`'s output bit if it was
    /// unset (`before`) and its protocol has just written it. Every
    /// transition that hands a processor to its protocol — starting,
    /// delivering, draining a window's senders, resetting — ends here, and
    /// nothing else changes the decision counters upward. Crashed processors
    /// never reach their protocol, so a decision is always a correct one.
    #[inline]
    fn note_decision(&mut self, i: usize, before: Option<Bit>) {
        if before.is_some() {
            return;
        }
        let Some(value) = self.status[i].output.get() else {
            return;
        };
        self.decided_count += 1;
        self.undecided_correct -= 1;
        if self.chain_at_first_decision.is_none() {
            self.chain_at_first_decision = Some(self.depth[i]);
        }
        let (id, at) = (ProcessorId::new(i), self.time);
        self.recorder.record(TraceEvent::Decided { id, value, at });
        self.probe.on_decide(id, value, at);
    }

    // ----- primitive transitions ---------------------------------------------------

    /// Runs every processor's `on_start` callback. Idempotent.
    pub fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.harnesses.len() {
            let status = &mut self.status[i];
            if status.crashed {
                continue;
            }
            let before = status.output.get();
            self.harnesses[i].start(&mut status.output);
            self.note_decision(i, before);
        }
        // The one transition that touches every processor.
        self.digest_memo.fill(Cell::new(None));
    }

    /// A *sending step* of processor `id`: moves its computed messages into
    /// the buffer, tagging each with the processor's causal depth plus one.
    ///
    /// Each staged send becomes **one** entry of the sender's log, whatever
    /// its fan-out: a broadcast costs the buffer O(1), a multicast one
    /// 4-byte index per listed recipient. The per-recipient loops below only
    /// feed the recorder and the probe, and vanish with `NoTrace`/`NoProbe`.
    ///
    /// Most receiving steps stage nothing (≈ 7 250 of the 7 273 steps of an
    /// n = 1 000 committee trial), so the test for that is all that is
    /// inlined into the caller: an empty outbox costs neither a call nor a
    /// drain.
    #[inline]
    pub fn flush_outbox(&mut self, id: ProcessorId) {
        if self.harnesses[id.index()].has_staged() {
            self.send_staged(id);
        }
    }

    /// The sending step of a processor whose outbox holds something.
    #[inline(never)]
    fn send_staged(&mut self, id: ProcessorId) {
        let chain = self.depth[id.index()] + 1;
        let n = self.cfg.n();
        let ExecutionCore {
            harnesses,
            buffer,
            recorder,
            probe,
            ..
        } = self;
        let mut sent = |to: ProcessorId| {
            recorder.record(TraceEvent::Sent { from: id, to });
            probe.on_send(id, chain);
        };
        harnesses[id.index()].drain_outbox(|outgoing, staged| match outgoing {
            Outgoing::One { to, payload } => {
                sent(to);
                buffer.enqueue_unicast(id, to, payload, chain);
            }
            Outgoing::Broadcast { payload } => {
                ProcessorId::all(n).for_each(&mut sent);
                buffer.broadcast(id, payload, chain);
            }
            Outgoing::Multicast { to, payload } => {
                let to = &staged[to];
                to.iter().copied().for_each(&mut sent);
                buffer.multicast(id, to, payload, chain);
            }
        });
    }

    /// Sending steps for every non-crashed processor (the sending phase of an
    /// acceptable window).
    pub fn flush_all_outboxes(&mut self) {
        for id in ProcessorId::all(self.cfg.n()) {
            if !self.status[id.index()].crashed {
                self.flush_outbox(id);
            }
        }
    }

    /// Discards every undelivered message (start of a new acceptable window).
    pub fn discard_undelivered(&mut self) -> usize {
        let dropped = self.buffer.discard_undelivered();
        if dropped > 0 {
            self.probe.on_drop(dropped as u64);
        }
        dropped
    }

    /// A single adversarial *receiving step*: delivers the oldest undelivered
    /// message on the channel `from -> to`, lets the recipient process it, and
    /// flushes the recipient's resulting sends into the buffer. No-op when the
    /// recipient has crashed or the channel is empty.
    pub fn deliver_one(&mut self, from: ProcessorId, to: ProcessorId) {
        if !self.status[to.index()].crashed {
            self.receive(from, to, false);
        }
    }

    /// [`ExecutionCore::deliver_one`] to a recipient known not to have
    /// crashed, on a channel known to hold a message if `owed`. Inlined
    /// into both callers: the forced deliveries of a partial-synchrony step
    /// check the crash flag once per channel and pop with
    /// [`MessageBuffer::pop_owed`].
    #[inline(always)]
    fn receive(&mut self, from: ProcessorId, to: ProcessorId, owed: bool) {
        let i = to.index();
        // The payload is processed straight out of the sender's log —
        // borrowed, never moved or cloned.
        let popped = if owed {
            Some(self.buffer.pop_owed(from, to))
        } else {
            self.buffer.pop_message(from, to)
        };
        let Some((payload, chain)) = popped else {
            return;
        };
        self.recorder.record(TraceEvent::Delivered { from, to });
        self.probe.on_deliver(from, to, chain);
        let output = &mut self.status[i].output;
        let before = output.get();
        self.harnesses[i].deliver(from, payload, output);
        let depth = &mut self.depth[i];
        *depth = (*depth).max(chain);
        self.note_decision(i, before);
        self.mark_view_dirty(i);
        self.flush_outbox(to);
    }

    /// Delivers every message `from` has pending with a send stamp at most
    /// `bound` to a non-crashed recipient, channel by channel in recipient
    /// order, oldest first within a channel: the forced deliveries of one
    /// sender in a partial-synchrony step.
    ///
    /// The channels and their counts are listed once, up front
    /// ([`MessageBuffer::owed_channels`]), and each owed message is popped
    /// once. The list stays exact while it is worked through as long as
    /// `bound` lies below the clock: a delivery only makes its recipient
    /// send, and those sends are stamped with the clock, so they are never
    /// owed; and the sender's lane cannot recycle under the list, since it
    /// still has the owed messages pending.
    pub(crate) fn deliver_owed(&mut self, from: ProcessorId, bound: u64) {
        debug_assert!(bound < self.time, "sends stamped now would be owed");
        self.buffer.owed_channels(from, bound, &mut self.owed);
        // By index: the deliveries borrow the whole core, and leave the list
        // as it is.
        for k in 0..self.owed.len() {
            let (to, count) = self.owed[k];
            if !self.status[to.index()].crashed {
                for _ in 0..count {
                    self.receive(from, to, true);
                }
            }
        }
    }

    /// The receiving steps of one processor in an acceptable window: drains,
    /// and immediately processes, everything the senders in `S_i` just sent to
    /// `recipient`. Responses stay in the recipient's outbox until the next
    /// window's sending phase. A crashed recipient's channels are drained
    /// and counted all the same — only its protocol hears nothing.
    pub fn deliver_from_senders(&mut self, recipient: ProcessorId, senders: &[ProcessorId]) {
        let i = recipient.index();
        let ExecutionCore {
            harnesses,
            status,
            buffer,
            recorder,
            probe,
            ..
        } = self;
        let Status { crashed, output } = &mut status[i];
        let live = !*crashed;
        let before = output.get();
        let (protocol, mut ctx) = harnesses[i].receiver(output);
        let mut depth = self.depth[i];
        for &sender in senders {
            // This runs for every (recipient, sender) pair of every window:
            // the channel is found once and emptied in one pass, and each
            // payload is processed borrowed from the sender's log, under the
            // one context built above — nothing is cloned, collected or
            // allocated.
            buffer.drain(sender, recipient, |payload, chain| {
                recorder.record(TraceEvent::Delivered {
                    from: sender,
                    to: recipient,
                });
                probe.on_deliver(sender, recipient, chain);
                depth = depth.max(chain);
                if live {
                    protocol.on_message(sender, payload, &mut ctx);
                }
            });
        }
        self.depth[i] = depth;
        self.note_decision(i, before);
        self.mark_view_dirty(i);
    }

    /// A *resetting step*: erases the processor's memory and counts the
    /// reset. A crashed processor's memory is left alone, but the reset still
    /// counts.
    pub fn reset(&mut self, id: ProcessorId) {
        // `on_reset` runs with a full context, so a protocol's rejoin logic
        // may decide.
        let status = &mut self.status[id.index()];
        let before = status.output.get();
        if !status.crashed {
            self.harnesses[id.index()].reset(&mut status.output);
        }
        self.mark_view_dirty(id.index());
        self.resets_performed += 1;
        self.probe.on_reset(id);
        self.recorder.record(TraceEvent::Reset { id });
        self.note_decision(id.index(), before);
    }

    /// Crashes a processor, enforcing the fault budget `t`: an attempt beyond
    /// the budget is ignored and recorded as a violation trace event.
    pub fn crash(&mut self, id: ProcessorId) {
        if self.status[id.index()].crashed {
            return;
        }
        if self.faults_used() >= self.cfg.t() {
            let t = self.cfg.t();
            self.recorder.record_with(|| TraceEvent::Violation {
                description: format!(
                    "adversary attempted to crash {id} beyond the fault budget t={t}; ignored"
                ),
            });
            return;
        }
        let status = &mut self.status[id.index()];
        status.crashed = true;
        if !status.output.is_written() {
            // A crashed processor no longer counts toward termination.
            self.undecided_correct -= 1;
        }
        // Its pending sends were never placed in the buffer and are lost.
        self.harnesses[id.index()].discard_outbox();
        self.mark_view_dirty(id.index());
        let dropped_before = self.buffer.dropped_count();
        self.buffer.drop_to(id);
        let dropped = self.buffer.dropped_count() - dropped_before;
        if dropped > 0 {
            self.probe.on_drop(dropped);
        }
        self.crashes_performed += 1;
        self.probe.on_crash(id);
        self.recorder.record(TraceEvent::Crashed { id });
    }

    /// Declares a processor Byzantine-corrupted (charged against the budget
    /// `t`); over-budget attempts are ignored and logged.
    pub fn corrupt_processor(&mut self, id: ProcessorId) {
        if self.corrupted[id.index()] {
            return;
        }
        if self.faults_used() >= self.cfg.t() {
            let t = self.cfg.t();
            self.recorder.record_with(|| TraceEvent::Violation {
                description: format!(
                    "adversary attempted to corrupt {id} beyond the fault budget t={t}; ignored"
                ),
            });
            return;
        }
        self.corrupted[id.index()] = true;
    }

    /// Rewrites the oldest in-flight message on `from -> to`, which is only
    /// legal when `from` was previously declared corrupted; an illegal attempt
    /// is ignored and logged.
    pub fn corrupt_message(&mut self, from: ProcessorId, to: ProcessorId, payload: Payload) {
        if self.corrupted[from.index()] {
            if self.buffer.corrupt_head(from, to, payload).is_some() {
                self.recorder.record(TraceEvent::Corrupted { id: from });
            }
        } else {
            self.recorder.record_with(|| TraceEvent::Violation {
                description: format!(
                    "adversary attempted to corrupt a message of uncorrupted {from}; ignored"
                ),
            });
        }
    }

    /// Records a scheduler-specific trace event (e.g. window boundaries).
    pub fn push_trace(&mut self, event: TraceEvent) {
        self.recorder.record(event);
    }

    /// Advances the scheduler clock by one acceptable window.
    pub fn advance_window(&mut self) {
        self.time += 1;
        self.windows += 1;
        self.buffer.set_now(self.time);
        self.probe.on_window();
    }

    /// Advances the scheduler clock by one adversary step (asynchronous and
    /// partial-synchrony models).
    pub fn advance_step(&mut self) {
        self.time += 1;
        self.steps += 1;
        self.buffer.set_now(self.time);
        self.probe.on_step();
    }

    /// Marks the execution as halted by the adversary.
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// Latches `first_decision_at` / `all_decided_at` against the current
    /// clock. Schedulers call this once per unit of time, after its effects —
    /// O(1) via the incrementally maintained decision counters.
    pub fn record_decision_progress(&mut self) {
        debug_assert_eq!(
            self.decided_count > 0,
            self.status.iter().any(|s| s.output.is_written()),
            "decided counter out of sync with the status array"
        );
        if self.first_decision_at.is_none() && self.decided_count > 0 {
            self.first_decision_at = Some(self.time);
        }
        if self.all_decided_at.is_none() && self.all_correct_decided() {
            self.all_decided_at = Some(self.time);
        }
    }

    // ----- outcomes ----------------------------------------------------------------

    /// The structured metrics snapshot of the execution so far, assembled
    /// from counters the core maintains anyway — no probe required.
    pub fn metrics(&self) -> Metrics {
        Metrics {
            messages_sent: self.buffer.enqueued_count(),
            messages_delivered: self.buffer.delivered_count(),
            messages_dropped: self.buffer.dropped_count(),
            rounds: self.digests().filter_map(|d| d.round).max().unwrap_or(0),
            windows: self.windows,
            steps: self.steps,
            resets_consumed: self.resets_performed,
            crashes: self.crashes_performed,
            coin_flips: self.harnesses.iter().map(|h| h.coin_flips()).sum(),
            max_chain: self.depth.iter().copied().max().unwrap_or(0),
        }
    }

    /// Produces the outcome snapshot of the execution so far with an explicit
    /// longest-chain metric.
    ///
    /// The accumulated trace is **moved** into the outcome, not cloned (the
    /// clone used to be per-trial heap work the campaign immediately threw
    /// away): a second snapshot of the same execution reports an empty trace,
    /// while every counter and decision field stays exact.
    pub fn outcome(&mut self, longest_chain: u64) -> RunOutcome {
        let violations: Vec<String> = self
            .harnesses
            .iter()
            .flat_map(|h| h.violations().iter().cloned())
            .chain(self.validity_violations())
            .collect();
        RunOutcome {
            decisions: self.decisions().collect(),
            crashed: self.crashed().collect(),
            duration: self.time,
            first_decision_at: self.first_decision_at,
            all_decided_at: self.all_decided_at,
            violations,
            longest_chain,
            halted_by_adversary: self.halted,
            metrics: self.metrics(),
            trace: self.recorder.take_trace(),
        }
    }

    fn validity_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if let Some(unanimous) = self.inputs.unanimous_value() {
            for (id, decided) in ProcessorId::all(self.cfg.n()).zip(self.decisions()) {
                if let Some(decided) = decided {
                    if decided != unanimous {
                        violations.push(format!(
                            "{id} decided {decided} although every input is {unanimous}"
                        ));
                    }
                }
            }
        }
        let mut decided_values = self.decisions().flatten();
        if let Some(first) = decided_values.next() {
            if decided_values.any(|other| other != first) {
                violations.push("processors decided conflicting values".to_string());
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use agreement_model::{Context, Protocol};

    use super::*;

    /// Who heard which callback, in order.
    type CallLog = Arc<Mutex<Vec<(ProcessorId, &'static str)>>>;

    /// Logs every callback; broadcasts on start and on reset, flips a coin,
    /// answers and decides on every message — so any callback a crashed
    /// processor received would show in the log, its outbox, its output bit
    /// or the counters.
    #[derive(Debug)]
    struct Logging(ProcessorId, CallLog);

    impl Logging {
        fn heard(&self, callback: &'static str) {
            self.1.lock().unwrap().push((self.0, callback));
        }
    }

    impl Protocol for Logging {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            self.heard("start");
            let value = ctx.input();
            ctx.broadcast(Payload::Report { round: 1, value });
        }

        fn on_message(&mut self, from: ProcessorId, _payload: &Payload, ctx: &mut dyn Context) {
            self.heard("message");
            let value = ctx.random_bit();
            ctx.send(from, Payload::Report { round: 2, value });
            ctx.decide(ctx.input());
        }

        fn on_reset(&mut self, ctx: &mut dyn Context) {
            self.heard("reset");
            let value = ctx.input();
            ctx.broadcast(Payload::Report { round: 1, value });
        }

        fn digest(&self) -> StateDigest {
            StateDigest::initial(Bit::Zero)
        }
    }

    #[derive(Debug)]
    struct LoggingBuilder(CallLog);

    impl ProtocolBuilder for LoggingBuilder {
        fn name(&self) -> &'static str {
            "logging"
        }

        fn build(&self, id: ProcessorId, _input: Bit, _cfg: &SystemConfig) -> Box<dyn Protocol> {
            Box::new(Logging(id, Arc::clone(&self.0)))
        }
    }

    /// A crashed processor is inert: no transition hands it to its protocol,
    /// its outbox stays empty and its output unset. The counters still move
    /// as they always have: a window drain to it consumes, counts and chains
    /// its messages, and a reset of it counts.
    #[test]
    fn a_crashed_processor_hears_no_callback_and_stages_nothing() {
        let cfg = SystemConfig::new(5, 2).unwrap();
        let log = CallLog::default();
        let builder = LoggingBuilder(Arc::clone(&log));
        let mut core = ExecutionCore::new(cfg, InputAssignment::evenly_split(5), &builder, 9);
        let all: Vec<ProcessorId> = ProcessorId::all(5).collect();
        // One crashes before it starts, one with its first broadcast staged.
        let (early, late) = (ProcessorId::new(1), ProcessorId::new(3));
        core.crash(early);
        core.ensure_started();
        core.crash(late);
        core.flush_all_outboxes();
        for _ in 0..2 {
            for &crashed in &[early, late] {
                for &from in &all {
                    core.deliver_one(from, crashed);
                }
                core.deliver_from_senders(crashed, &all);
                core.reset(crashed);
            }
            core.deliver_from_senders(ProcessorId::new(0), &all);
            core.deliver_one(ProcessorId::new(2), ProcessorId::new(4));
            core.ensure_started();
            core.flush_all_outboxes();
        }

        // The expected values were read off the core before the crash flag
        // and the output register moved into it.
        let heard = log.lock().unwrap().clone();
        assert!(heard.iter().all(|&(id, _)| id != early), "{heard:?}");
        let late_heard: Vec<_> = heard.iter().filter(|&&(id, _)| id == late).collect();
        assert_eq!(late_heard, [&(late, "start")], "only before its crash");
        assert_eq!(
            heard.len(),
            9,
            "the live processors heard theirs: {heard:?}"
        );
        for crashed in [early, late] {
            let i = crashed.index();
            assert_eq!(core.harnesses[i].outbox_len(), 0, "{crashed}");
            assert_eq!(core.decisions().nth(i), Some(None), "{crashed}");
            assert_eq!(core.depth[i], 1, "{crashed}: a window drain still chains");
        }
        assert_eq!(
            core.metrics(),
            Metrics {
                messages_sent: 20,
                messages_delivered: 11,
                messages_dropped: 0,
                rounds: 1,
                windows: 0,
                steps: 0,
                resets_consumed: 4,
                crashes: 2,
                coin_flips: 5,
                max_chain: 2,
            }
        );
        assert_eq!(core.depth, [2, 1, 0, 1, 1]);
    }
}
