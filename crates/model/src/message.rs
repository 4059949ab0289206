//! Messages: the protocol payload vocabulary.
//!
//! The paper's model (Section 2) lets a message space `M` be arbitrary. For
//! the reproduction we use a single closed [`Payload`] enum covering every
//! protocol in the workspace. This keeps the *full-information* adversary
//! honest: an adversary can pattern-match on any message in flight, exactly as
//! the paper's computationally unbounded adversary can read all message
//! contents.

use std::fmt;

use crate::ids::ProcessorId;
use crate::value::Bit;

/// A step of Bracha-style reliable broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RbcStep {
    /// The originator's initial transmission of the payload.
    Init,
    /// A witness echoing the originator's payload.
    Echo,
    /// A witness asserting the payload is ready for delivery.
    Ready,
}

impl fmt::Display for RbcStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RbcStep::Init => "init",
            RbcStep::Echo => "echo",
            RbcStep::Ready => "ready",
        };
        f.write_str(s)
    }
}

/// Messages exchanged by the committee-election baseline protocol
/// (the simplified Kapron-et-al.-style comparator).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CommitteeMsg {
    /// A final-committee member's current value, exchanged inside the committee.
    Proposal {
        /// The proposing member's current estimate.
        value: Bit,
    },
    /// A final-committee member's announcement of the decided value to everyone.
    Announce {
        /// The decided value.
        value: Bit,
    },
}

/// The payload vocabulary shared by all protocols in the workspace.
///
/// Each protocol uses a subset of the variants; the single enum exists so that
/// full-information adversaries can inspect any in-flight message without
/// knowing which protocol produced it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Payload {
    /// A round-`round` report of the sender's current estimate: the message
    /// `(r_p, x_p)` of the Section 3 reset-tolerant protocol and of Ben-Or's
    /// first phase.
    Report {
        /// The sender's round number.
        round: u64,
        /// The sender's current estimate.
        value: Bit,
    },
    /// Ben-Or's second-phase proposal `(r, v)`; `None` encodes the
    /// "no preference" (`?`) proposal.
    Proposal {
        /// The sender's round number.
        round: u64,
        /// The proposed value, if the sender saw a majority in phase one.
        value: Option<Bit>,
    },
    /// A Bracha-agreement phase vote. These are carried inside reliable
    /// broadcast ([`Payload::Rbc`]) in the full protocol.
    BrachaVote {
        /// The sender's round number.
        round: u64,
        /// The phase within the round (1, 2 or 3).
        phase: u8,
        /// The value voted for; `None` encodes "no majority seen".
        value: Option<Bit>,
    },
    /// A reliable-broadcast transport step carrying an inner payload on behalf
    /// of `origin`. `broadcast_id` disambiguates concurrent broadcasts by the
    /// same origin (the protocol chooses it, e.g. by encoding round and phase).
    Rbc {
        /// Which step of the broadcast this message implements.
        step: RbcStep,
        /// The processor whose payload is being broadcast.
        origin: ProcessorId,
        /// Origin-scoped identifier of this broadcast instance.
        broadcast_id: u64,
        /// The payload being reliably broadcast.
        inner: Box<Payload>,
    },
    /// A committee-protocol message.
    Committee(CommitteeMsg),
    /// Uninterpreted bytes that no protocol sends; tests use them as a
    /// payload nothing reads.
    Opaque(Vec<u8>),
}

impl Payload {
    /// The protocol round this payload belongs to, when it carries one.
    pub fn round(&self) -> Option<u64> {
        match self {
            Payload::Report { round, .. }
            | Payload::Proposal { round, .. }
            | Payload::BrachaVote { round, .. } => Some(*round),
            Payload::Rbc { inner, .. } => inner.round(),
            _ => None,
        }
    }

    /// The bit value this payload advocates, when it unambiguously carries one.
    pub fn advocated_value(&self) -> Option<Bit> {
        match self {
            Payload::Report { value, .. } => Some(*value),
            Payload::Proposal { value, .. } => *value,
            Payload::BrachaVote { value, .. } => *value,
            Payload::Rbc { inner, .. } => inner.advocated_value(),
            Payload::Committee(CommitteeMsg::Proposal { value })
            | Payload::Committee(CommitteeMsg::Announce { value }) => Some(*value),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_and_value_are_visible() {
        let p = Payload::Report {
            round: 3,
            value: Bit::One,
        };
        assert_eq!(p.round(), Some(3));
        assert_eq!(p.advocated_value(), Some(Bit::One));
    }

    #[test]
    fn proposal_question_mark_has_no_advocated_value() {
        let p = Payload::Proposal {
            round: 2,
            value: None,
        };
        assert_eq!(p.round(), Some(2));
        assert_eq!(p.advocated_value(), None);
    }

    #[test]
    fn rbc_delegates_to_inner_payload() {
        let inner = Payload::BrachaVote {
            round: 5,
            phase: 2,
            value: Some(Bit::Zero),
        };
        let p = Payload::Rbc {
            step: RbcStep::Echo,
            origin: ProcessorId::new(1),
            broadcast_id: 42,
            inner: Box::new(inner),
        };
        assert_eq!(p.round(), Some(5));
        assert_eq!(p.advocated_value(), Some(Bit::Zero));
    }

    #[test]
    fn committee_messages_carry_a_value_but_no_round() {
        let p = Payload::Committee(CommitteeMsg::Announce { value: Bit::Zero });
        assert_eq!(p.round(), None);
        assert_eq!(p.advocated_value(), Some(Bit::Zero));
        let p = Payload::Opaque(vec![1, 2, 3]);
        assert_eq!(p.round(), None);
        assert_eq!(p.advocated_value(), None);
    }

    #[test]
    fn rbc_step_display() {
        assert_eq!(RbcStep::Init.to_string(), "init");
        assert_eq!(RbcStep::Echo.to_string(), "echo");
        assert_eq!(RbcStep::Ready.to_string(), "ready");
    }
}
