//! Adversary interfaces: what an adversary sees and what it may decide.
//!
//! The paper's adversaries are computationally unbounded, full-information
//! schedulers: they see all processor states and all message contents, and
//! they choose the schedule (and failures) subject to the model's constraints.
//! The traits here expose exactly that interface:
//!
//! * [`WindowAdversary`] chooses the next acceptable window (strongly adaptive
//!   model, Section 2); the engine validates every window against
//!   Definition 1, so an implementation cannot exceed its power.
//! * [`AsyncAdversary`] chooses individual steps (message delivery, crashes,
//!   Byzantine corruption) in the fully asynchronous model of Section 5.
//! * [`PartialSyncAdversary`] chooses a global stabilization time, a delivery
//!   bound Δ and individual pre-GST steps in the partial-synchrony model; the
//!   scheduler *enforces* the post-GST bound, so the adversary's power is
//!   genuinely curtailed.
//!
//! Which model a data-described adversary drives is the
//! [`ModelDescriptor`](crate::ModelDescriptor) on its factory — one of the
//! three this crate ships.

use std::cell::{Cell, RefCell};

use agreement_model::{Bit, Payload, ProcessorId, StateDigest, SystemConfig};

use crate::buffer::{ChannelCursor, MessageBuffer};
use crate::harness::{ProcessorHarness, Status};
use crate::window::Window;

/// The full-information view an adversary is given before each decision.
///
/// The view does not copy the processors, it borrows them: outputs and crash
/// flags are read off the core's dense status array when asked for, and a
/// digest is computed
/// ([`Protocol::digest`](agreement_model::Protocol::digest)) the first time
/// it is asked for after its processor last changed, then remembered — a
/// digest is the only thing the view reads a harness for. A decision costs
/// what it reads — one that looks only at the buffer and crash flags calls no
/// protocol and touches no harness at all.
#[derive(Debug)]
pub struct SystemView<'a> {
    /// The static configuration (`n`, `t`).
    pub config: SystemConfig,
    /// Index of the decision point: the window index for the window engine,
    /// the step index for the asynchronous engine.
    pub time: u64,
    /// Every undelivered message (the adversary reads all contents).
    pub buffer: &'a MessageBuffer,
    /// Every processor's crash flag and output register.
    status: &'a [Status],
    /// Read only to compute a digest the memo does not hold.
    harnesses: &'a [ProcessorHarness],
    /// `digest_memo[i]` is processor `i`'s digest while it is known to be
    /// current, `None` once the processor has changed since it was computed.
    /// Empty before the execution has started (the core fills it at the
    /// start): a view taken then computes every digest it is asked for.
    digest_memo: &'a [Cell<Option<StateDigest>>],
    /// The window the scheduler applied last, lent back for refilling.
    spare_window: &'a RefCell<Window>,
}

impl<'a> SystemView<'a> {
    /// A view of the processors whose crash flags and outputs are `status`
    /// and whose harnesses are `harnesses`; `digest_memo` has one cell per
    /// processor, `None` wherever the processor changed since the cell was
    /// filled (or no cell at all, and nothing is remembered), and
    /// `spare_window` is what [`SystemView::take_window`] hands out.
    pub(crate) fn new(
        config: SystemConfig,
        time: u64,
        buffer: &'a MessageBuffer,
        status: &'a [Status],
        harnesses: &'a [ProcessorHarness],
        digest_memo: &'a [Cell<Option<StateDigest>>],
        spare_window: &'a RefCell<Window>,
    ) -> Self {
        debug_assert_eq!(status.len(), harnesses.len());
        debug_assert!(digest_memo.is_empty() || digest_memo.len() == status.len());
        SystemView {
            config,
            time,
            buffer,
            status,
            harnesses,
            digest_memo,
            spare_window,
        }
    }

    /// An empty window to fill and return from
    /// [`WindowAdversary::next_window`]: the storage of the window the
    /// scheduler applied last (of this trial or, in a reused workspace, of an
    /// earlier one), so filling it allocates nothing once it has held a
    /// window of this size. A second call within one decision gets a window
    /// without storage.
    pub fn take_window(&self) -> Window {
        let mut window = self.spare_window.take();
        window.clear();
        window
    }

    /// Number of processors.
    pub fn n(&self) -> usize {
        self.config.n()
    }

    /// The per-window fault budget.
    pub fn t(&self) -> usize {
        self.config.t()
    }

    /// The durable output bit (decision) of processor `i`.
    pub fn output(&self, i: usize) -> Option<Bit> {
        self.status[i].output.get()
    }

    /// Whether processor `i` has crashed.
    pub fn is_crashed(&self, i: usize) -> bool {
        self.status[i].crashed
    }

    /// Indices of the processors that have not crashed, ascending.
    pub fn live(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.status.len()).filter(|&i| !self.is_crashed(i))
    }

    /// The adversary-visible digest of processor `i`'s erasable memory.
    pub fn digest(&self, i: usize) -> StateDigest {
        let Some(memo) = self.digest_memo.get(i) else {
            return self.harnesses[i].digest();
        };
        memo.get().unwrap_or_else(|| {
            let digest = self.harnesses[i].digest();
            memo.set(Some(digest));
            digest
        })
    }

    /// The digests of every processor, in identity order.
    pub fn digests(&self) -> impl Iterator<Item = StateDigest> + '_ {
        (0..self.status.len()).map(|i| self.digest(i))
    }

    /// Identities of processors that have not decided yet (and have not
    /// crashed). Returns a lazy iterator so adversary decision loops can scan
    /// without allocating a `Vec` per decision.
    pub fn undecided(&self) -> impl Iterator<Item = ProcessorId> + '_ {
        ProcessorId::all(self.status.len())
            .zip(self.status)
            .filter(|(_, s)| !s.output.is_written() && !s.crashed)
            .map(|(id, _)| id)
    }

    /// Finds the first nonempty channel at or after `cursor` in the
    /// sender-major round robin over the `n × n` channels, skipping channels
    /// whose recipient has crashed.
    ///
    /// Returns the cursor to resume the round robin from (the channel
    /// *after* the found one, already wrapped) alongside the channel's
    /// endpoints; an adversary that acts on the channel persists it, one that
    /// defers (e.g. to corrupt the head first) leaves its own cursor
    /// untouched. This is the shared scan loop of every fair-scheduling
    /// adversary; it allocates nothing and is amortized O(1) per delivery.
    #[inline]
    pub fn next_pending_channel(
        &self,
        cursor: ChannelCursor,
    ) -> Option<(ChannelCursor, ProcessorId, ProcessorId)> {
        self.next_pending_channel_where(cursor, |_, _| true)
    }

    /// Like [`SystemView::next_pending_channel`], but additionally skips
    /// channels rejected by `admit(from, to)` (e.g. withheld senders).
    ///
    /// Delegates to [`MessageBuffer::next_pending_channel_where`], which
    /// tries the cursor's own channel first and only then scans its live
    /// bitset of senders and, within a lane, the cursor row and materialized
    /// queues. Crashed recipients are folded into the admission predicate
    /// here, since crash state lives in the view, not the buffer: one byte of
    /// the dense status array per candidate channel, never a harness.
    #[inline]
    pub fn next_pending_channel_where(
        &self,
        cursor: ChannelCursor,
        admit: impl Fn(ProcessorId, ProcessorId) -> bool,
    ) -> Option<(ChannelCursor, ProcessorId, ProcessorId)> {
        let status = self.status;
        self.buffer
            .next_pending_channel_where(self.n(), cursor, move |from, to| {
                !status[to.index()].crashed && admit(from, to)
            })
    }

    /// Returns `true` if every non-crashed processor has written its output bit.
    pub fn all_correct_decided(&self) -> bool {
        self.status
            .iter()
            .all(|s| s.crashed || s.output.is_written())
    }

    /// Counts how many (non-crashed) processors currently hold estimate `value`.
    pub fn estimate_count(&self, value: Bit) -> usize {
        self.live()
            .filter(|&i| self.digest(i).estimate == Some(value))
            .count()
    }
}

/// An adversary for the strongly adaptive (resetting) model: it chooses each
/// acceptable window.
pub trait WindowAdversary {
    /// A short human-readable name, used in reports.
    fn name(&self) -> &'static str;

    /// Chooses the next acceptable window, given the full-information view
    /// taken after all sending steps of the window have executed (so the
    /// buffer already contains the window's fresh messages).
    ///
    /// The returned window must satisfy Definition 1; the engine validates it
    /// and treats a violation as a programming error (panics).
    fn next_window(&mut self, view: &SystemView<'_>) -> Window;
}

/// A single scheduling decision of an asynchronous adversary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsyncAction {
    /// Deliver the oldest undelivered message on the channel `from -> to`.
    Deliver {
        /// The sender of the message to deliver.
        from: ProcessorId,
        /// The recipient of the message to deliver.
        to: ProcessorId,
    },
    /// Crash processor `id` (it takes no further steps). The engine enforces
    /// the crash budget `t`.
    Crash(ProcessorId),
    /// Replace the payload of the oldest undelivered message on the channel
    /// `from -> to` before delivering it. Models Byzantine corruption of a
    /// message sent by a corrupted processor; the engine enforces that only
    /// processors previously declared corrupted may have their messages
    /// rewritten.
    Corrupt {
        /// The (corrupted) sender whose in-flight message is rewritten.
        from: ProcessorId,
        /// The recipient of the rewritten message.
        to: ProcessorId,
        /// The replacement payload.
        payload: Payload,
    },
    /// Declare processor `id` Byzantine-corrupted (counts against the budget
    /// `t`); its future messages may be corrupted or withheld.
    CorruptProcessor(ProcessorId),
    /// The adversary stops scheduling: the execution ends (used when the
    /// adversary has exhausted its strategy).
    Halt,
}

/// An adversary for the fully asynchronous model (crash / Byzantine failures).
pub trait AsyncAdversary {
    /// A short human-readable name, used in reports.
    fn name(&self) -> &'static str;

    /// Chooses the next step given the full-information view.
    fn next_action(&mut self, view: &SystemView<'_>) -> AsyncAction;
}

impl<A: WindowAdversary + ?Sized> WindowAdversary for Box<A> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn next_window(&mut self, view: &SystemView<'_>) -> Window {
        (**self).next_window(view)
    }
}

impl<A: AsyncAdversary + ?Sized> AsyncAdversary for Box<A> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn next_action(&mut self, view: &SystemView<'_>) -> AsyncAction {
        (**self).next_action(view)
    }
}

/// A single discretionary decision of a partial-synchrony adversary.
///
/// Unlike [`AsyncAction`], stalling is a first-class move: before GST the
/// adversary may withhold everything indefinitely, which is exactly the power
/// the post-GST delivery bound takes away (overdue messages are delivered by
/// the scheduler whether the adversary likes it or not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartialSyncAction {
    /// Deliver the oldest undelivered message on the channel `from -> to`.
    Deliver {
        /// The sender of the message to deliver.
        from: ProcessorId,
        /// The recipient of the message to deliver.
        to: ProcessorId,
    },
    /// Crash processor `id` (the engine enforces the fault budget `t`).
    Crash(ProcessorId),
    /// Deliver nothing this step; time passes. Before GST this withholds
    /// every message; after GST the bounded-delay enforcement limits how long
    /// a stall can actually delay anything.
    Stall,
    /// The adversary stops scheduling: the execution ends (used when nothing
    /// the adversary could do would change the state again).
    Halt,
}

/// An adversary for the partial-synchrony (eventual-synchrony) model.
///
/// The adversary picks the model parameters — the global stabilization time
/// ([`gst`](PartialSyncAdversary::gst)), the post-GST delivery bound
/// ([`delta`](PartialSyncAdversary::delta)) and up to `t` omission-faulty
/// senders ([`omitted_senders`](PartialSyncAdversary::omitted_senders)) —
/// and then schedules one discretionary [`PartialSyncAction`] per step with
/// full information. The parameters are *binding*:
/// [`Scheduler::PartialSync`](crate::Scheduler::PartialSync) consults them
/// every step and force-delivers any pending message older than Δ once GST
/// has passed, so implementations must return constant values throughout a
/// run.
pub trait PartialSyncAdversary {
    /// A short human-readable name, used in reports.
    fn name(&self) -> &'static str;

    /// The adversary-chosen global stabilization time, in steps. Before this
    /// step the adversary schedules with full asynchronous freedom; from it
    /// on, the scheduler enforces the delivery bound. Must be constant over
    /// a run.
    fn gst(&self) -> u64;

    /// The adversary-chosen post-GST delivery bound Δ ≥ 1 (values below 1
    /// are clamped): once GST has passed, a pending message sent at step `s`
    /// is delivered no later than step `max(s, gst) + Δ`. Must be constant
    /// over a run.
    fn delta(&self) -> u64;

    /// Senders whose messages the adversary omits (never delivers) even
    /// after GST — the model's omission faults. The scheduler honours at
    /// most the first `t` entries; the rest are ignored. Omissions and
    /// crashes share **one** fault budget of `t`: the honoured omission set
    /// is charged up front, and crash actions beyond the remainder are
    /// refused. Must be constant over a run.
    fn omitted_senders(&self) -> &[ProcessorId] {
        &[]
    }

    /// Chooses this step's discretionary action given the full-information
    /// view.
    fn next_action(&mut self, view: &SystemView<'_>) -> PartialSyncAction;
}

impl<A: PartialSyncAdversary + ?Sized> PartialSyncAdversary for Box<A> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn gst(&self) -> u64 {
        (**self).gst()
    }

    fn delta(&self) -> u64 {
        (**self).delta()
    }

    fn omitted_senders(&self) -> &[ProcessorId] {
        (**self).omitted_senders()
    }

    fn next_action(&mut self, view: &SystemView<'_>) -> PartialSyncAction {
        (**self).next_action(view)
    }
}

/// The benign window adversary: full delivery, no resets. Useful as a
/// best-case baseline and in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullDeliveryAdversary;

impl WindowAdversary for FullDeliveryAdversary {
    fn name(&self) -> &'static str {
        "full-delivery"
    }

    fn next_window(&mut self, view: &SystemView<'_>) -> Window {
        let mut window = view.take_window();
        window.fill_full_delivery(view.n());
        window
    }
}

/// The benign asynchronous adversary: a sender-major round robin over the
/// channels from a cursor — each step delivers the oldest message of the
/// first nonempty channel at or after it, then moves the cursor past that
/// channel — and never crashes anybody. Every pending message is delivered
/// within one pass over the channels: a fair schedule.
#[derive(Debug, Clone, Default)]
pub struct FairAsyncAdversary {
    cursor: ChannelCursor,
}

impl AsyncAdversary for FairAsyncAdversary {
    fn name(&self) -> &'static str {
        "fair-round-robin"
    }

    fn next_action(&mut self, view: &SystemView<'_>) -> AsyncAction {
        match view.next_pending_channel(self.cursor) {
            Some((next_cursor, from, to)) => {
                self.cursor = next_cursor;
                AsyncAction::Deliver { from, to }
            }
            None => AsyncAction::Halt,
        }
    }
}

/// The benign partial-synchrony baseline: synchrony from the start
/// (GST = 0), no omissions, eager fair round-robin delivery. Halts once the
/// buffer is quiescent (nothing pending means nothing can ever change).
#[derive(Debug, Clone, Default)]
pub struct BenignEventualAdversary {
    cursor: ChannelCursor,
}

impl BenignEventualAdversary {
    /// The delivery bound the benign baseline declares. It rarely matters —
    /// the baseline delivers eagerly — but it is what the scheduler would
    /// enforce if it stalled.
    pub const DELTA: u64 = 8;
}

impl PartialSyncAdversary for BenignEventualAdversary {
    fn name(&self) -> &'static str {
        "benign-eventual"
    }

    fn gst(&self) -> u64 {
        0
    }

    fn delta(&self) -> u64 {
        BenignEventualAdversary::DELTA
    }

    fn next_action(&mut self, view: &SystemView<'_>) -> PartialSyncAction {
        match view.next_pending_channel(self.cursor) {
            Some((next_cursor, from, to)) => {
                self.cursor = next_cursor;
                PartialSyncAction::Deliver { from, to }
            }
            None => PartialSyncAction::Halt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreement_model::{Context, Protocol, ProtocolBuilder};

    /// Decides the value it was built with, if any, as soon as it starts.
    #[derive(Debug)]
    struct Preset(Option<Bit>);

    impl Protocol for Preset {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            if let Some(value) = self.0 {
                ctx.decide(value);
            }
        }

        fn on_message(&mut self, _from: ProcessorId, _payload: &Payload, _ctx: &mut dyn Context) {}

        fn digest(&self) -> StateDigest {
            StateDigest::initial(Bit::Zero)
        }
    }

    #[derive(Debug)]
    struct PresetBuilder<'a>(&'a [Option<Bit>]);

    impl ProtocolBuilder for PresetBuilder<'_> {
        fn name(&self) -> &'static str {
            "preset"
        }

        fn build(&self, id: ProcessorId, _input: Bit, _cfg: &SystemConfig) -> Box<dyn Protocol> {
            Box::new(Preset(self.0[id.index()]))
        }
    }

    /// The processors a test view looks at: started harnesses with the given
    /// output bits and crash flags, and their (empty) digest memo.
    struct Processors {
        cfg: SystemConfig,
        status: Vec<Status>,
        harnesses: Vec<ProcessorHarness>,
        digest_memo: Vec<Cell<Option<StateDigest>>>,
        spare_window: RefCell<Window>,
    }

    impl Processors {
        fn new(cfg: SystemConfig, outputs: &[Option<Bit>], crashed: &[bool]) -> Self {
            let builder = PresetBuilder(outputs);
            let mut status = vec![Status::default(); cfg.n()];
            let harnesses = ProcessorId::all(cfg.n())
                .map(|id| {
                    let mut harness = ProcessorHarness::new(id, Bit::Zero, cfg, &builder, 0);
                    let status = &mut status[id.index()];
                    harness.start(&mut status.output);
                    status.crashed = crashed[id.index()];
                    harness
                })
                .collect();
            Processors {
                cfg,
                status,
                harnesses,
                digest_memo: vec![Cell::new(None); cfg.n()],
                spare_window: RefCell::default(),
            }
        }

        fn undecided(cfg: SystemConfig) -> Self {
            Processors::new(cfg, &vec![None; cfg.n()], &vec![false; cfg.n()])
        }

        fn view<'a>(&'a self, time: u64, buffer: &'a MessageBuffer) -> SystemView<'a> {
            SystemView::new(
                self.cfg,
                time,
                buffer,
                &self.status,
                &self.harnesses,
                &self.digest_memo,
                &self.spare_window,
            )
        }
    }

    #[test]
    fn system_view_helpers() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let outputs = [None, Some(Bit::One), None, None];
        let crashed = [false, false, true, false];
        let processors = Processors::new(cfg, &outputs, &crashed);
        let buffer = MessageBuffer::with_processors(cfg.n());
        let view = processors.view(3, &buffer);
        assert_eq!(view.n(), 4);
        assert_eq!(view.t(), 1);
        assert_eq!((0..4).map(|i| view.output(i)).collect::<Vec<_>>(), outputs);
        assert_eq!(
            (0..4).map(|i| view.is_crashed(i)).collect::<Vec<_>>(),
            crashed
        );
        assert_eq!(view.output(1), Some(Bit::One));
        assert!((0..4).any(|i| view.output(i).is_some()));
        assert!(!view.all_correct_decided());
        assert_eq!(
            view.undecided().collect::<Vec<_>>(),
            vec![ProcessorId::new(0), ProcessorId::new(3)]
        );
        assert_eq!(view.estimate_count(Bit::Zero), 3);
        assert_eq!(view.estimate_count(Bit::One), 0);
        assert!(view.digests().all(|d| d.round == Some(1)));
    }

    #[test]
    fn full_delivery_adversary_emits_valid_windows() {
        let cfg = SystemConfig::new(6, 1).unwrap();
        let processors = Processors::undecided(cfg);
        let buffer = MessageBuffer::with_processors(cfg.n());
        let mut adv = FullDeliveryAdversary;
        let w = adv.next_window(&processors.view(0, &buffer));
        assert!(w.validate(&cfg).is_ok());
        assert_eq!(adv.name(), "full-delivery");
    }

    #[test]
    fn fair_async_adversary_serves_channels_round_robin_and_halts_when_empty() {
        let cfg = SystemConfig::new(2, 0).unwrap();
        let processors = Processors::undecided(cfg);
        let mut buffer = MessageBuffer::with_processors(cfg.n());
        let report = Payload::Report {
            round: 1,
            value: Bit::One,
        };
        buffer.enqueue_unicast(ProcessorId::new(0), ProcessorId::new(1), report.clone(), 0);
        buffer.enqueue_unicast(ProcessorId::new(1), ProcessorId::new(0), report, 0);
        let mut adv = FairAsyncAdversary::default();
        let first = adv.next_action(&processors.view(0, &buffer));
        assert_eq!(
            first,
            AsyncAction::Deliver {
                from: ProcessorId::new(0),
                to: ProcessorId::new(1)
            }
        );
        // Pretend the first was delivered; the adversary should move on.
        buffer.pop(ProcessorId::new(0), ProcessorId::new(1));
        let second = adv.next_action(&processors.view(1, &buffer));
        assert_eq!(
            second,
            AsyncAction::Deliver {
                from: ProcessorId::new(1),
                to: ProcessorId::new(0)
            }
        );
        buffer.pop(ProcessorId::new(1), ProcessorId::new(0));
        assert_eq!(
            adv.next_action(&processors.view(2, &buffer)),
            AsyncAction::Halt
        );
    }

    #[test]
    fn fair_async_adversary_skips_crashed_recipients() {
        let cfg = SystemConfig::new(2, 1).unwrap();
        let processors = Processors::new(cfg, &[None; 2], &[false, true]);
        let mut buffer = MessageBuffer::with_processors(cfg.n());
        let report = Payload::Report {
            round: 1,
            value: Bit::One,
        };
        buffer.enqueue_unicast(ProcessorId::new(0), ProcessorId::new(1), report, 0);
        let mut adv = FairAsyncAdversary::default();
        assert_eq!(
            adv.next_action(&processors.view(0, &buffer)),
            AsyncAction::Halt
        );
    }
}
