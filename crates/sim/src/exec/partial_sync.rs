//! The partial-synchrony scheduler: eventual synchrony with omission faults,
//! expressed over [`ExecutionCore`].
//!
//! This is the "curtailed adversary" side of the paper's dichotomy. Before an
//! adversary-chosen global stabilization time (GST) the adversary schedules
//! with full asynchronous freedom — deliver anything, crash up to `t`
//! processors, or simply stall. From GST on, the model takes over: every
//! pending message must be delivered within a bounded-delay window Δ, and the
//! scheduler **enforces** that bound by force-delivering overdue messages at
//! the start of each step, whatever the adversary chooses to do. The only
//! post-GST escape hatch is omission: senders may be declared
//! omission-faulty, and their messages are exempt from forced delivery (they
//! may never arrive at all — the send-omission analogue of a crash).
//! Omissions and crashes draw from **one** shared fault budget of `t`
//! processors: the declared omission set charges its size up front, and a
//! crash that would push the combined total past `t` is refused — so at most
//! `t` voices can ever be silenced, and `n - t` quorums stay reachable.
//!
//! Concretely, one unit of scheduled time is one step:
//!
//! 1. the adversary picks a discretionary [`PartialSyncAction`] with full
//!    information;
//! 2. the clock advances;
//! 3. **bounded-delay enforcement** — if the clock has passed GST, every
//!    pending message sent at step `s` whose deadline `max(s, gst) + Δ` has
//!    arrived is delivered, in deterministic sender-major channel order
//!    (messages from omitted senders and messages to crashed recipients are
//!    exempt). A sender is skipped outright when the buffer's lower bound on
//!    the send stamps it still has pending puts every such deadline in the
//!    future — most steps force nothing, and this is what keeps them from
//!    polling all `n²` channels to find that out;
//! 4. the discretionary action is applied.
//!
//! Running time is measured in steps against `RunLimits::max_steps`, and the
//! chain metric is the causal depth at the first decision, exactly as in the
//! fully asynchronous model — so expected-time numbers are directly
//! comparable between the two.

use agreement_model::{ProcessorId, Recorder};

use crate::adversary::{PartialSyncAction, PartialSyncAdversary};
use crate::metrics::Probe;
use crate::outcome::RunLimits;

use super::{ExecutionCore, Scheduler};

/// The partial-synchrony model's scheduler: free scheduling before the
/// adversary's GST, enforced bounded-delay delivery after it.
pub struct PartialSyncScheduler<'a> {
    adversary: &'a mut dyn PartialSyncAdversary,
}

impl<'a> PartialSyncScheduler<'a> {
    /// Wraps a partial-synchrony adversary borrowed for the duration of a run.
    pub fn new(adversary: &'a mut dyn PartialSyncAdversary) -> Self {
        PartialSyncScheduler { adversary }
    }

    /// How many faults the declared omission set charges against the shared
    /// budget `t`: the distinct senders among the first `t` entries.
    fn omission_faults(&self, t: usize) -> usize {
        let honoured =
            &self.adversary.omitted_senders()[..self.adversary.omitted_senders().len().min(t)];
        honoured
            .iter()
            .enumerate()
            .filter(|(i, s)| !honoured[..*i].contains(s))
            .count()
    }

    /// Delivers every pending message whose post-GST deadline has arrived:
    /// a message sent at step `s` must be delivered by `max(s, gst) + Δ`.
    ///
    /// Senders are visited in identity order, but only those that can have
    /// something overdue: [`MessageBuffer::pending_since`] bounds the send
    /// stamp of everything a sender still has pending from below, so when
    /// even that stamp's deadline lies ahead, so does every deadline on the
    /// sender's `n` channels, and scanning them would deliver nothing. The
    /// bound is only ever a reason to skip; a sender that is not skipped has
    /// every channel scanned, sender-major: within a channel, FIFO order and
    /// a monotone clock mean the head is always the oldest message, so
    /// popping while the head is overdue delivers exactly the overdue
    /// prefix. Messages from omitted senders — the first `t` the adversary
    /// declared, the budget the model grants it — and to crashed recipients
    /// are exempt (the model only promises delivery between correct
    /// processors).
    ///
    /// [`MessageBuffer::pending_since`]: crate::MessageBuffer::pending_since
    fn force_overdue<P: Probe, R: Recorder>(
        &mut self,
        core: &mut ExecutionCore<P, R>,
        now: u64,
        gst: u64,
        delta: u64,
    ) {
        let n = core.config().n();
        let omitted = self.adversary.omitted_senders();
        let omitted = &omitted[..omitted.len().min(core.config().t())];
        for from in ProcessorId::all(n) {
            // Read per sender, not once up front: a forced delivery makes
            // its recipient send, which can wake a lane that was idle.
            match core.buffer().pending_since(from) {
                Some(oldest) if oldest.max(gst) + delta <= now => {}
                _ => continue,
            }
            if omitted.contains(&from) {
                continue;
            }
            for to in ProcessorId::all(n) {
                if core.is_crashed(to) {
                    continue;
                }
                while let Some(sent) = core.buffer().head_sent_at(from, to) {
                    if sent.max(gst) + delta > now {
                        break;
                    }
                    core.deliver_one(from, to);
                }
            }
        }
    }

    /// Executes one partial-synchrony step (see the module docs for the
    /// phase order). Returns `false` once the execution has halted.
    pub fn step_partial_sync<P: Probe, R: Recorder>(
        &mut self,
        core: &mut ExecutionCore<P, R>,
    ) -> bool {
        if core.is_halted() {
            return false;
        }
        let action = core.with_view(|view| self.adversary.next_action(view));
        core.advance_step();
        let now = core.time();
        let gst = self.adversary.gst();
        let delta = self.adversary.delta().max(1);
        if now >= gst {
            self.force_overdue(core, now, gst, delta);
        }
        match action {
            PartialSyncAction::Deliver { from, to } => core.deliver_one(from, to),
            PartialSyncAction::Crash(id) => {
                // Omissions and crashes draw from ONE budget of `t` faults:
                // a crash that would push the combined total past `t` is
                // refused (and logged), exactly like the core's own
                // over-budget crash handling — otherwise an adversary could
                // silence 2t processors and defeat the model's
                // forced-termination guarantee. Re-crashing an already
                // crashed processor stays the same free no-op it is in the
                // core, never a logged budget violation.
                let t = core.config().t();
                if core.is_crashed(id) {
                    // no-op
                } else if self.omission_faults(t) + core.faults_used() >= t {
                    core.push_trace(agreement_model::TraceEvent::Violation {
                        description: format!(
                            "partial-sync adversary attempted to crash {id} beyond the \
                             shared omission+crash budget t={t}; ignored"
                        ),
                    });
                } else {
                    core.crash(id);
                }
            }
            PartialSyncAction::Stall => {}
            PartialSyncAction::Halt => core.halt(),
        }
        core.record_decision_progress();
        !core.is_halted()
    }
}

impl<P: Probe, R: Recorder> Scheduler<P, R> for PartialSyncScheduler<'_> {
    /// Initial sends are flushed eagerly, as in the asynchronous model: the
    /// delivery bound applies to them from the first step.
    fn on_start(&mut self, core: &mut ExecutionCore<P, R>) {
        core.ensure_started();
        core.flush_all_outboxes();
    }

    fn step(&mut self, core: &mut ExecutionCore<P, R>) -> bool {
        self.step_partial_sync(core)
    }

    fn max_time(&self, limits: &RunLimits) -> u64 {
        limits.max_steps
    }

    /// Partial-synchrony running time shares the asynchronous model's chain
    /// metric (the causal depth at the first decision) so strong-vs-weak
    /// adversary comparisons read off the same scale.
    fn longest_chain(&self, core: &ExecutionCore<P, R>) -> u64 {
        core.chain_at_first_decision().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{BenignEventualAdversary, SystemView};
    use crate::engine::run_partial_sync;
    use crate::exec::testkit::QuorumBuilder;
    use agreement_model::{Bit, InputAssignment, SystemConfig};

    /// Stalls forever with the given parameters: every delivery that happens
    /// is the scheduler's enforcement, never the adversary's choice.
    struct Stonewall {
        gst: u64,
        delta: u64,
        omitted: Vec<ProcessorId>,
    }

    impl PartialSyncAdversary for Stonewall {
        fn name(&self) -> &'static str {
            "stonewall"
        }
        fn gst(&self) -> u64 {
            self.gst
        }
        fn delta(&self) -> u64 {
            self.delta
        }
        fn omitted_senders(&self) -> &[ProcessorId] {
            &self.omitted
        }
        fn next_action(&mut self, _view: &SystemView<'_>) -> PartialSyncAction {
            PartialSyncAction::Stall
        }
    }

    #[test]
    fn benign_eventual_schedule_reaches_decision() {
        let cfg = SystemConfig::new(5, 1).unwrap();
        let inputs = InputAssignment::unanimous(5, Bit::Zero);
        let outcome = run_partial_sync(
            cfg,
            inputs.clone(),
            &QuorumBuilder,
            &mut BenignEventualAdversary::default(),
            42,
            RunLimits::small(),
        );
        assert!(outcome.all_correct_decided());
        assert_eq!(outcome.decided_value(), Some(Bit::Zero));
        assert!(outcome.is_correct(&inputs));
        assert!(outcome.longest_chain >= 1);
    }

    #[test]
    fn the_model_forces_decisions_out_of_a_stonewalling_adversary() {
        // The adversary never delivers anything by choice. After GST the
        // bounded-delay enforcement delivers the backlog regardless, so the
        // quorum protocol still terminates — this is exactly the curtailment
        // the partial-synchrony model exists to demonstrate.
        let cfg = SystemConfig::new(5, 1).unwrap();
        let inputs = InputAssignment::unanimous(5, Bit::One);
        let mut adversary = Stonewall {
            gst: 40,
            delta: 5,
            omitted: Vec::new(),
        };
        let outcome = run_partial_sync(
            cfg,
            inputs.clone(),
            &QuorumBuilder,
            &mut adversary,
            7,
            RunLimits::small(),
        );
        assert!(outcome.all_correct_decided());
        assert!(outcome.is_correct(&inputs));
        // Nothing can be delivered before GST, so no decision before it; the
        // first batch of forced deliveries lands at gst + delta.
        assert!(outcome.first_decision_at.unwrap() >= 45);
        assert!(
            outcome.all_decided_at.unwrap() <= 60,
            "decided soon after GST"
        );
    }

    #[test]
    fn before_gst_nothing_is_forced() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let inputs = InputAssignment::unanimous(4, Bit::One);
        let mut core = ExecutionCore::new(cfg, inputs, &QuorumBuilder, 3);
        let mut adversary = Stonewall {
            gst: 1_000,
            delta: 1,
            omitted: Vec::new(),
        };
        let mut scheduler = PartialSyncScheduler::new(&mut adversary);
        Scheduler::on_start(&mut scheduler, &mut core);
        for _ in 0..50 {
            assert!(scheduler.step_partial_sync(&mut core));
        }
        // All 16 initial broadcasts are still pending: the adversary's
        // pre-GST freedom to withhold is intact.
        assert_eq!(core.buffer().pending_total(), 16);
        assert!(!core.all_correct_decided());
    }

    #[test]
    fn omission_faults_are_honoured_but_capped_at_t() {
        // The adversary declares three omitted senders with t = 1: only the
        // first is honoured, so n - 1 = 4 senders still reach everyone and
        // the quorum of 4 is met.
        let cfg = SystemConfig::new(5, 1).unwrap();
        let inputs = InputAssignment::unanimous(5, Bit::Zero);
        let mut adversary = Stonewall {
            gst: 0,
            delta: 3,
            omitted: vec![
                ProcessorId::new(0),
                ProcessorId::new(1),
                ProcessorId::new(2),
            ],
        };
        let outcome = run_partial_sync(
            cfg,
            inputs.clone(),
            &QuorumBuilder,
            &mut adversary,
            11,
            RunLimits::small(),
        );
        assert!(outcome.all_correct_decided());
        assert!(outcome.is_correct(&inputs));
        // Processor 0's five messages were omitted (never delivered), and
        // only those: the other 20 initial reports all arrived.
        assert_eq!(outcome.metrics.messages_delivered, 20);
    }
}
