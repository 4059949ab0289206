//! The partial-synchrony step: eventual synchrony with omission faults,
//! expressed over [`ExecutionCore`] and driven by
//! [`Scheduler::PartialSync`](super::Scheduler::PartialSync).
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
//! 3. **bounded-delay enforcement** — every pending message sent at step
//!    `s` whose deadline `max(s, gst) + Δ` has arrived is delivered, in
//!    deterministic sender-major channel order (messages from omitted
//!    senders and messages to crashed recipients are exempt). Once
//!    `now ≥ gst + Δ` that deadline has arrived exactly when
//!    `s ≤ now − Δ`, so the step computes that one due bound and compares
//!    stamps with it. A sender is skipped outright when the buffer's lower
//!    bound on the stamps it still has pending lies past it; any other
//!    sender's owed channels are read off its lane — from its cursor row,
//!    one compare per recipient — and exactly the owed messages are
//!    popped. The cost is one check per sender plus the deliveries forced,
//!    where polling every channel head cost `n²` lookups a step;
//! 4. the discretionary action is applied.
//!
//! Running time is measured in steps against `RunLimits::max_steps`, and the
//! chain metric is the causal depth at the first decision, exactly as in the
//! fully asynchronous model — so expected-time numbers are directly
//! comparable between the two.

use agreement_model::ProcessorId;

use crate::adversary::{PartialSyncAction, PartialSyncAdversary};
use crate::metrics::Probe;

use super::ExecutionCore;

/// How many faults the declared omission set charges against the shared
/// budget `t`: the distinct senders among the first `t` entries.
fn omission_faults(adversary: &dyn PartialSyncAdversary, t: usize) -> usize {
    let honoured = &adversary.omitted_senders()[..adversary.omitted_senders().len().min(t)];
    honoured
        .iter()
        .enumerate()
        .filter(|(i, s)| !honoured[..*i].contains(s))
        .count()
}

/// Delivers every pending message whose post-GST deadline has arrived,
/// given the step's due bound: a message sent at step `s` is due once
/// `max(s, gst) + Δ ≤ now`, which — once `now ≥ gst + Δ` — says `s ≤ bound`
/// for `bound = now − Δ` (see [`due_bound`]).
///
/// Senders are visited in identity order, and a sender is skipped outright
/// when [`MessageBuffer::pending_since`] — a lower bound on the send stamp
/// of everything it still has pending — lies past `bound`: then so does
/// every stamp on its `n` channels. A sender that is not skipped has its
/// owed channels read off its lane ([`ExecutionCore::deliver_owed`]): each
/// recipient it owes, with how many, from one binary search over the lane's
/// broadcasts and one compare per cursor. Exactly those messages are
/// popped, recipient by recipient, sender-major — the order a poll of every
/// channel head would deliver them in. Messages from omitted senders — the
/// first `t` the adversary declared, the budget the model grants it — and
/// to crashed recipients are exempt (the model only promises delivery
/// between correct processors).
///
/// [`MessageBuffer::pending_since`]: crate::MessageBuffer::pending_since
fn force_overdue<P: Probe>(
    adversary: &dyn PartialSyncAdversary,
    core: &mut ExecutionCore<P>,
    bound: u64,
) {
    let omitted = adversary.omitted_senders();
    let omitted = &omitted[..omitted.len().min(core.config().t())];
    for from in ProcessorId::all(core.config().n()) {
        // Read per sender, not once up front: a forced delivery makes
        // its recipient send, which can wake a lane that was idle.
        if core
            .buffer()
            .pending_since(from)
            .is_some_and(|oldest| oldest <= bound)
            && !omitted.contains(&from)
        {
            core.deliver_owed(from, bound);
        }
    }
}

/// The due bound of a step at `now`: `Some(now − Δ)` once `now ≥ gst + Δ`,
/// when a message is due exactly if its send stamp is at most the bound;
/// `None` before, when nothing is. A `gst + Δ` past `u64::MAX` never
/// arrives.
fn due_bound(now: u64, gst: u64, delta: u64) -> Option<u64> {
    let first_due = gst.checked_add(delta)?;
    (now >= first_due).then(|| now - delta)
}

/// Executes one partial-synchrony step (see the module docs for the phase
/// order). Returns `false` once the execution has halted.
pub(super) fn step<P: Probe>(
    adversary: &mut dyn PartialSyncAdversary,
    core: &mut ExecutionCore<P>,
) -> bool {
    if core.is_halted() {
        return false;
    }
    let action = core.with_view(|view| adversary.next_action(view));
    core.advance_step();
    let now = core.time();
    if let Some(bound) = due_bound(now, adversary.gst(), adversary.delta().max(1)) {
        force_overdue(adversary, core, bound);
    }
    match action {
        PartialSyncAction::Deliver { from, to } => core.deliver_one(from, to),
        PartialSyncAction::Crash(id) => {
            // Omissions and crashes draw from ONE budget of `t` faults:
            // a crash that would push the combined total past `t` is
            // refused, exactly like the core's own over-budget crash
            // handling — otherwise an adversary could silence 2t
            // processors and defeat the model's forced-termination
            // guarantee. Re-crashing an already crashed processor stays
            // the same free no-op it is in the core, never a refused
            // budget violation.
            let t = core.config().t();
            if core.is_crashed(id) {
                // no-op
            } else if omission_faults(adversary, t) + core.faults_used() >= t {
                core.refuse(|| {
                    format!(
                        "partial-sync adversary attempted to crash {id} beyond the \
                         shared omission+crash budget t={t}; ignored"
                    )
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{BenignEventualAdversary, SystemView};
    use crate::engine::run_partial_sync;
    use crate::exec::testkit::QuorumBuilder;
    use crate::exec::Scheduler;
    use crate::outcome::RunLimits;
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
    fn the_due_bound_is_now_minus_delta_once_gst_plus_delta_arrives() {
        // (now, gst, Δ) → the bound.
        let max = u64::MAX;
        for (now, gst, delta, bound) in [
            (4, 2, 3, None),
            (5, 2, 3, Some(2)),
            (9, 2, 3, Some(6)),
            (9, 0, 9, Some(0)),
            (max, max - 1, 1, Some(max - 1)),
            // `gst + Δ` past `u64::MAX` never arrives.
            (max, 0, max, Some(0)),
            (max, 1, max, None),
            (max, max, 2, None),
        ] {
            assert_eq!(due_bound(now, gst, delta), bound, "({now}, {gst}, {delta})");
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
        let mut scheduler = Scheduler::PartialSync(&mut adversary);
        scheduler.start(&mut core);
        for _ in 0..50 {
            assert!(scheduler.step(&mut core));
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
