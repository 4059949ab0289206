//! Partial-synchrony adversaries: the *curtailed* strategies of the model's
//! family, contrasting with the unbounded window/async schedulers.
//!
//! The partial-synchrony model (see `agreement_sim::PartialSyncScheduler`)
//! lets an adversary pick a global stabilization time and a delivery bound Δ,
//! schedule with full asynchronous freedom before GST, and omit up to `t`
//! senders afterwards — but nothing more: once GST passes, every other
//! pending message is force-delivered within Δ. The strategies here span the
//! power range the model leaves open:
//!
//! * [`GstProcrastinatorAdversary`] — maximum pre-GST obstruction: it stalls
//!   every message until its (late) GST and keeps stalling afterwards, so
//!   every delivery is the model's enforcement. Expected decision time is
//!   `gst + O(Δ · rounds)` — delayed, but no longer unbounded, which is
//!   exactly the contrast with the strongly adaptive lower bounds.
//! * [`PostGstOmissionAdversary`] — immediate synchrony but `t` senders'
//!   messages are omitted outright (send-omission faults); quorum protocols
//!   must decide from `n - t` voices.
//!
//! The benign baseline (`BenignEventualAdversary`: GST 0, eager fair
//! delivery) lives in `agreement-sim` next to the other benign schedulers.

use agreement_model::ProcessorId;
use agreement_sim::{PartialSyncAction, PartialSyncAdversary, SystemView};

/// Stalls everything until an adversary-chosen (late) GST, and contributes
/// nothing afterwards either: every delivery in the execution is forced by
/// the model's bounded-delay enforcement.
///
/// This is the strongest delay attack partial synchrony admits. Against the
/// same protocols the strongly adaptive and fully asynchronous adversaries
/// stall exponentially, it can only add an additive `gst` before the
/// Δ-paced decision cascade starts.
#[derive(Debug, Clone)]
pub struct GstProcrastinatorAdversary {
    gst: u64,
    delta: u64,
}

impl GstProcrastinatorAdversary {
    /// The registry default stabilization time.
    pub const DEFAULT_GST: u64 = 512;
    /// The registry default delivery bound.
    pub const DEFAULT_DELTA: u64 = 4;

    /// A procrastinator that stabilizes at `gst` with post-GST bound `delta`.
    pub fn new(gst: u64, delta: u64) -> Self {
        GstProcrastinatorAdversary {
            gst,
            delta: delta.max(1),
        }
    }
}

impl Default for GstProcrastinatorAdversary {
    fn default() -> Self {
        GstProcrastinatorAdversary::new(Self::DEFAULT_GST, Self::DEFAULT_DELTA)
    }
}

impl PartialSyncAdversary for GstProcrastinatorAdversary {
    fn name(&self) -> &'static str {
        "gst-procrastinator"
    }

    fn gst(&self) -> u64 {
        self.gst
    }

    fn delta(&self) -> u64 {
        self.delta
    }

    fn next_action(&mut self, view: &SystemView<'_>) -> PartialSyncAction {
        // Nothing to gain by acting: stall until the model's enforcement has
        // delivered everything and the execution is quiescent, then halt.
        if view.time > self.gst && view.buffer.is_empty() {
            PartialSyncAction::Halt
        } else {
            PartialSyncAction::Stall
        }
    }
}

/// Synchrony from the start (GST = 0), but the messages of up to `t`
/// designated senders are omitted outright — the send-omission analogue of a
/// withholding crash, without spending the crash budget.
///
/// Everything else is left to the model's Δ-paced forced delivery, so the
/// adversary's entire remaining power is the choice of victims.
#[derive(Debug, Clone)]
pub struct PostGstOmissionAdversary {
    omitted: Vec<ProcessorId>,
    delta: u64,
}

impl PostGstOmissionAdversary {
    /// The registry default delivery bound.
    pub const DEFAULT_DELTA: u64 = 4;

    /// Omits the given senders (the scheduler honours at most the first `t`)
    /// under the post-GST bound `delta`.
    pub fn new(omitted: Vec<ProcessorId>, delta: u64) -> Self {
        PostGstOmissionAdversary {
            omitted,
            delta: delta.max(1),
        }
    }
}

impl PartialSyncAdversary for PostGstOmissionAdversary {
    fn name(&self) -> &'static str {
        "post-gst-omission"
    }

    fn gst(&self) -> u64 {
        0
    }

    fn delta(&self) -> u64 {
        self.delta
    }

    fn omitted_senders(&self) -> &[ProcessorId] {
        &self.omitted
    }

    fn next_action(&mut self, view: &SystemView<'_>) -> PartialSyncAction {
        // Forced delivery paces every non-omitted channel; once only omitted
        // messages remain pending, nothing will ever change again.
        let t = view.t();
        let any_live_pending = view.buffer.iter().any(|(from, to, _)| {
            !view.is_crashed(to.index()) && !self.omitted.iter().take(t).any(|&s| s == from)
        });
        if any_live_pending {
            PartialSyncAction::Stall
        } else {
            PartialSyncAction::Halt
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreement_model::{Bit, InputAssignment, SystemConfig};
    use agreement_protocols::BenOrBuilder;
    use agreement_sim::{run_partial_sync, RunLimits};

    #[test]
    fn procrastinator_delays_but_cannot_prevent_decision() {
        let cfg = SystemConfig::new(7, 1).unwrap();
        let inputs = InputAssignment::unanimous(7, Bit::One);
        let mut adversary = GstProcrastinatorAdversary::new(64, 4);
        let outcome = run_partial_sync(
            cfg,
            inputs.clone(),
            &BenOrBuilder::new(),
            &mut adversary,
            5,
            RunLimits::small(),
        );
        assert!(
            outcome.all_correct_decided(),
            "the model forces termination"
        );
        assert!(outcome.is_correct(&inputs));
        // No decision can precede GST: nothing is delivered before it.
        assert!(outcome.first_decision_at.unwrap() > 64);
    }

    #[test]
    fn procrastinator_defaults_are_the_documented_constants() {
        let adversary = GstProcrastinatorAdversary::default();
        assert_eq!(adversary.gst(), GstProcrastinatorAdversary::DEFAULT_GST);
        assert_eq!(adversary.delta(), GstProcrastinatorAdversary::DEFAULT_DELTA);
        assert_eq!(adversary.name(), "gst-procrastinator");
        // Degenerate Δ = 0 clamps to 1.
        assert_eq!(GstProcrastinatorAdversary::new(5, 0).delta(), 1);
    }

    #[test]
    fn omission_of_t_senders_still_lets_quorums_decide() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let inputs = InputAssignment::unanimous(7, Bit::Zero);
        let mut adversary =
            PostGstOmissionAdversary::new(vec![ProcessorId::new(0), ProcessorId::new(1)], 4);
        let outcome = run_partial_sync(
            cfg,
            inputs.clone(),
            &BenOrBuilder::new(),
            &mut adversary,
            9,
            RunLimits::small(),
        );
        assert!(outcome.all_correct_decided());
        assert!(outcome.is_correct(&inputs));
        // The two omitted senders' messages were never delivered.
        assert!(outcome.metrics.messages_delivered < outcome.metrics.messages_sent);
    }
}
