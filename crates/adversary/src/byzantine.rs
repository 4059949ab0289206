//! A Byzantine message-corruption adversary for the fully asynchronous model.
//!
//! The paper's Byzantine adversary may corrupt the messages sent by up to `t`
//! processors — in particular it can make a corrupted processor *lie about its
//! local random coins* and show different values to different recipients
//! (equivocation). [`EquivocatingAdversary`] implements that behaviour: it
//! declares the first `t` processors corrupted and rewrites each of their
//! value-carrying messages so that even-indexed recipients see `Zero` and
//! odd-indexed recipients see `One`, scheduling fairly otherwise.
//!
//! Bracha's protocol (via reliable broadcast) is designed to withstand exactly
//! this; the tests confirm correct runs survive equivocation for `t < n/3`.

use std::collections::BTreeSet;

use agreement_model::{Bit, Payload, ProcessorId};
use agreement_sim::{AsyncAction, AsyncAdversary, ChannelCursor, SystemView};

/// Declares the first `t` processors Byzantine and equivocates on their
/// value-carrying messages.
#[derive(Debug, Clone, Default)]
pub struct EquivocatingAdversary {
    corrupted_declared: usize,
    corrupted_heads: BTreeSet<(ProcessorId, ProcessorId)>,
    cursor: ChannelCursor,
}

impl EquivocatingAdversary {
    /// Creates the adversary; the number of corrupted processors is taken from
    /// the system view's fault budget at run time.
    pub fn new() -> Self {
        EquivocatingAdversary::default()
    }

    /// The equivocated value shown to `recipient`.
    fn lie_for(recipient: ProcessorId) -> Bit {
        if recipient.index().is_multiple_of(2) {
            Bit::Zero
        } else {
            Bit::One
        }
    }

    /// Rewrites `payload` so that its advocated value becomes `value`, if the
    /// payload carries one; returns `None` when there is nothing to corrupt.
    fn corrupted_payload(payload: &Payload, value: Bit) -> Option<Payload> {
        match payload {
            Payload::Report { round, .. } => Some(Payload::Report {
                round: *round,
                value,
            }),
            Payload::Proposal { round, .. } => Some(Payload::Proposal {
                round: *round,
                value: Some(value),
            }),
            Payload::BrachaVote { round, phase, .. } => Some(Payload::BrachaVote {
                round: *round,
                phase: *phase,
                value: Some(value),
            }),
            Payload::Rbc {
                step,
                origin,
                broadcast_id,
                inner,
            } => Self::corrupted_payload(inner, value).map(|corrupted| Payload::Rbc {
                step: *step,
                origin: *origin,
                broadcast_id: *broadcast_id,
                inner: Box::new(corrupted),
            }),
            _ => None,
        }
    }
}

impl AsyncAdversary for EquivocatingAdversary {
    fn name(&self) -> &'static str {
        "equivocating-byzantine"
    }

    fn next_action(&mut self, view: &SystemView<'_>) -> AsyncAction {
        // First spend the fault budget declaring the corrupted set.
        if self.corrupted_declared < view.t() {
            let id = ProcessorId::new(self.corrupted_declared);
            self.corrupted_declared += 1;
            return AsyncAction::CorruptProcessor(id);
        }
        let Some((next_cursor, from, to)) = view.next_pending_channel(self.cursor) else {
            return AsyncAction::Halt;
        };
        // Corrupt the head of a corrupted sender's channel exactly once (the
        // cursor stays put), then deliver it on the next visit.
        if from.index() < view.t() && !self.corrupted_heads.contains(&(from, to)) {
            if let Some(head) = view.buffer.peek(from, to) {
                if let Some(corrupted) = Self::corrupted_payload(head, Self::lie_for(to)) {
                    self.corrupted_heads.insert((from, to));
                    return AsyncAction::Corrupt {
                        from,
                        to,
                        payload: corrupted,
                    };
                }
            }
        }
        self.corrupted_heads.remove(&(from, to));
        self.cursor = next_cursor;
        AsyncAction::Deliver { from, to }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreement_model::{InputAssignment, SystemConfig};
    use agreement_protocols::{BenOrBuilder, BrachaBuilder};
    use agreement_sim::{run_async, RunLimits};

    #[test]
    fn corrupted_payload_rewrites_value_carriers_only() {
        let report = Payload::Report {
            round: 3,
            value: Bit::Zero,
        };
        let corrupted = EquivocatingAdversary::corrupted_payload(&report, Bit::One).unwrap();
        assert_eq!(corrupted.advocated_value(), Some(Bit::One));
        assert_eq!(corrupted.round(), Some(3));

        let opaque = Payload::Opaque(vec![1, 2, 3]);
        assert!(EquivocatingAdversary::corrupted_payload(&opaque, Bit::One).is_none());

        let rbc = Payload::Rbc {
            step: agreement_model::RbcStep::Echo,
            origin: ProcessorId::new(0),
            broadcast_id: 5,
            inner: Box::new(report),
        };
        let corrupted = EquivocatingAdversary::corrupted_payload(&rbc, Bit::One).unwrap();
        assert_eq!(corrupted.advocated_value(), Some(Bit::One));
    }

    #[test]
    fn lies_alternate_by_recipient_parity() {
        assert_eq!(
            EquivocatingAdversary::lie_for(ProcessorId::new(0)),
            Bit::Zero
        );
        assert_eq!(
            EquivocatingAdversary::lie_for(ProcessorId::new(1)),
            Bit::One
        );
    }

    #[test]
    fn bracha_stays_safe_under_equivocation_with_unanimous_inputs() {
        // n = 7, t = 2 < n/3: whatever the equivocating processors do, Bracha
        // must never disagree and never invent a value. (This build of Bracha
        // omits the message-validation step, so a worst-case Byzantine
        // scheduler may delay termination indefinitely — see the module
        // documentation of `agreement_protocols::Bracha` — which is why this
        // test checks safety over a bounded prefix rather than termination.)
        let cfg = SystemConfig::new(7, 2).unwrap();
        let inputs = InputAssignment::unanimous(7, Bit::One);
        let outcome = run_async(
            cfg,
            inputs.clone(),
            &BrachaBuilder::new(),
            &mut EquivocatingAdversary::new(),
            21,
            RunLimits::steps(60_000),
        );
        assert!(outcome.agreement_holds(), "Bracha must never disagree");
        assert!(
            outcome.validity_holds(&inputs),
            "Bracha must never invent a value"
        );
        assert!(outcome.violations.is_empty());
        assert!(
            outcome.trace.corruption_count() > 0,
            "the adversary must actually have equivocated"
        );
    }

    #[test]
    fn equivocation_is_recorded_in_the_trace() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let inputs = InputAssignment::unanimous(7, Bit::One);
        let outcome = run_async(
            cfg,
            inputs.clone(),
            &BrachaBuilder::new(),
            &mut EquivocatingAdversary::new(),
            4,
            RunLimits::steps(20_000),
        );
        assert!(
            outcome.trace.corruption_count() > 0,
            "the adversary should have corrupted at least one message"
        );
    }

    #[test]
    fn ben_or_with_unanimous_inputs_also_survives_mild_equivocation() {
        // Ben-Or's crash-model thresholds happen to mask 1 liar out of 9 for
        // unanimous inputs; this exercises the adversary against a second
        // protocol (it is not a general Byzantine-resilience claim).
        let cfg = SystemConfig::new(9, 1).unwrap();
        let inputs = InputAssignment::unanimous(9, Bit::One);
        let outcome = run_async(
            cfg,
            inputs.clone(),
            &BenOrBuilder::new(),
            &mut EquivocatingAdversary::new(),
            13,
            RunLimits::steps(500_000),
        );
        assert!(outcome.agreement_holds());
        assert!(outcome.validity_holds(&inputs));
    }
}
