//! A committee-election agreement baseline in the style of Kapron, Kempe,
//! King, Saia and Sanwalani (SODA 2008), the fast-but-non-adaptive protocol
//! the paper contrasts against.
//!
//! The full protocol of Kapron et al. builds a tree of elections that, with
//! probability `1 - o(1)`, ends in a small final committee containing a
//! bounded fraction of faulty processors; the final committee runs a classical
//! (slow) agreement protocol and announces the result. We reproduce the part
//! that matters for the paper's comparison and simplify the election
//! machinery: the final committee is selected by **public randomness** fixed
//! before the execution (a seed every processor knows). This preserves the two
//! properties the comparison rests on:
//!
//! * against a **non-adaptive** adversary (which must choose whom to corrupt
//!   without knowing the committee draw), a random committee is mostly correct
//!   with high probability, so the protocol is fast and almost always right;
//! * against an **adaptive** adversary, the committee is known as soon as the
//!   execution starts — the adversary "simply waits for the final committee to
//!   be determined and then causes faults", exactly as the paper's Section 1
//!   argues, producing non-termination or invalid outputs.
//!
//! Protocol: committee members exchange their inputs, take the majority of
//! `k - f` received proposals (where `k` is the committee size and
//! `f = ⌊(k-1)/3⌋` its fault tolerance), decide it, and announce it to all;
//! every other processor decides on the first value announced by `f + 1`
//! distinct committee members.

use std::sync::Arc;

use agreement_model::{
    Bit, CommitteeMsg, Context, Payload, ProcessorId, ProcessorRng, Protocol, ProtocolBuilder,
    StateDigest, SystemConfig,
};

use crate::tally::RoundTally;

/// Tally keys.
const KEY_PROPOSALS: u8 = 0;
const KEY_ANNOUNCES: u8 = 1;

/// The committee-election agreement baseline: single-processor state machine.
#[derive(Debug)]
pub struct CommitteeAgreement {
    /// Shared with the builder and every other instance it built.
    committee: Arc<[ProcessorId]>,
    fault_tolerance: usize,
    is_member: bool,
    input: Bit,
    votes: RoundTally,
    announced: bool,
    decided: Option<Bit>,
    reset_count: u64,
}

impl CommitteeAgreement {
    /// Creates the state machine for processor `id` with the given input and
    /// the publicly known `committee`.
    pub fn new(id: ProcessorId, input: Bit, committee: impl Into<Arc<[ProcessorId]>>) -> Self {
        let committee = committee.into();
        let fault_tolerance = committee.len().saturating_sub(1) / 3;
        let is_member = committee.contains(&id);
        CommitteeAgreement {
            committee,
            fault_tolerance,
            is_member,
            input,
            votes: RoundTally::new(),
            announced: false,
            decided: None,
            reset_count: 0,
        }
    }

    /// The publicly known final committee.
    pub fn committee(&self) -> &[ProcessorId] {
        &self.committee
    }

    /// `f = ⌊(k-1)/3⌋`, the number of committee faults tolerated.
    pub fn fault_tolerance(&self) -> usize {
        self.fault_tolerance
    }

    /// Whether this processor is a committee member.
    pub fn is_member(&self) -> bool {
        self.is_member
    }

    fn committee_quorum(&self) -> usize {
        self.committee.len() - self.fault_tolerance
    }

    fn try_announce(&mut self, ctx: &mut dyn Context) {
        if self.announced || !self.is_member {
            return;
        }
        if self.votes.total(0, KEY_PROPOSALS) < self.committee_quorum() {
            return;
        }
        let value = self
            .votes
            .majority_value(0, KEY_PROPOSALS)
            .unwrap_or(self.input);
        self.announced = true;
        self.decided = Some(value);
        ctx.decide(value);
        ctx.broadcast(Payload::Committee(CommitteeMsg::Announce { value }));
    }

    fn try_decide_from_announcements(&mut self, ctx: &mut dyn Context) {
        if self.decided.is_some() {
            return;
        }
        let needed = self.fault_tolerance + 1;
        if let Some(value) = self.votes.value_with_at_least(0, KEY_ANNOUNCES, needed) {
            self.decided = Some(value);
            ctx.decide(value);
        }
    }
}

impl Protocol for CommitteeAgreement {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        if self.is_member {
            ctx.broadcast(Payload::Committee(CommitteeMsg::Proposal {
                value: self.input,
            }));
        }
    }

    fn on_message(&mut self, from: ProcessorId, payload: &Payload, ctx: &mut dyn Context) {
        // Only committee members' messages carry any weight.
        if !self.committee.contains(&from) {
            return;
        }
        match payload {
            Payload::Committee(CommitteeMsg::Proposal { value }) if self.is_member => {
                self.votes.record(0, KEY_PROPOSALS, from, Some(*value));
                self.try_announce(ctx);
            }
            Payload::Committee(CommitteeMsg::Announce { value }) => {
                self.votes.record(0, KEY_ANNOUNCES, from, Some(*value));
                self.try_decide_from_announcements(ctx);
            }
            _ => {}
        }
    }

    fn on_reset(&mut self, _ctx: &mut dyn Context) {
        self.reset_count += 1;
        self.votes.clear();
        self.announced = false;
    }

    fn digest(&self) -> StateDigest {
        StateDigest {
            round: Some(1),
            estimate: Some(self.input),
            decided: self.decided,
            reset_count: self.reset_count,
            phase: match (self.is_member, self.announced) {
                (true, true) => "member-announced",
                (true, false) => "member",
                (false, _) => "observer",
            },
        }
    }
}

/// Builder for [`CommitteeAgreement`] instances.
///
/// # Examples
///
/// ```
/// use agreement_model::{ProtocolBuilder, SystemConfig};
/// use agreement_protocols::CommitteeBuilder;
///
/// let cfg = SystemConfig::with_third_resilience(27)?;
/// // A publicly known random committee of 7 members.
/// let builder = CommitteeBuilder::random(&cfg, 7, 42);
/// assert_eq!(builder.committee().len(), 7);
/// assert_eq!(builder.name(), "committee");
/// # Ok::<(), agreement_model::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CommitteeBuilder {
    committee: Arc<[ProcessorId]>,
}

impl CommitteeBuilder {
    /// Uses an explicitly given committee.
    ///
    /// # Panics
    ///
    /// Panics if the committee is empty or contains duplicates.
    pub fn with_committee(committee: Vec<ProcessorId>) -> Self {
        assert!(
            !committee.is_empty(),
            "committee must have at least one member"
        );
        let mut sorted = committee.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            committee.len(),
            "committee must not contain duplicates"
        );
        CommitteeBuilder {
            committee: committee.into(),
        }
    }

    /// Selects a committee of `size` distinct processors using the public
    /// random seed `seed` (the non-adaptive adversary does not know it when
    /// choosing whom to corrupt; the adaptive adversary does).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or exceeds `cfg.n()`.
    pub fn random(cfg: &SystemConfig, size: usize, seed: u64) -> Self {
        assert!(size > 0, "committee must have at least one member");
        assert!(
            size <= cfg.n(),
            "committee cannot exceed the number of processors"
        );
        let mut rng = ProcessorRng::labelled(seed, 0xC0881);
        let committee = rng
            .choose_distinct(cfg.n(), size)
            .into_iter()
            .map(ProcessorId::new)
            .collect();
        CommitteeBuilder { committee }
    }

    /// The publicly known committee used by every built instance.
    pub fn committee(&self) -> &[ProcessorId] {
        &self.committee
    }
}

impl ProtocolBuilder for CommitteeBuilder {
    fn name(&self) -> &'static str {
        "committee"
    }

    fn build(&self, id: ProcessorId, input: Bit, cfg: &SystemConfig) -> Box<dyn Protocol> {
        let mut protocol = CommitteeAgreement::new(id, input, Arc::clone(&self.committee));
        protocol.votes = RoundTally::for_processors(cfg.n());
        Box::new(protocol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct TestCtx {
        id: ProcessorId,
        cfg: SystemConfig,
        sent: Vec<Payload>,
        decided: Option<Bit>,
    }

    impl TestCtx {
        fn new(id: usize, n: usize, t: usize) -> Self {
            TestCtx {
                id: ProcessorId::new(id),
                cfg: SystemConfig::new(n, t).unwrap(),
                sent: Vec::new(),
                decided: None,
            }
        }
    }

    impl Context for TestCtx {
        fn id(&self) -> ProcessorId {
            self.id
        }
        fn config(&self) -> SystemConfig {
            self.cfg
        }
        fn input(&self) -> Bit {
            Bit::Zero
        }
        fn send(&mut self, to: ProcessorId, payload: Payload) {
            if to == ProcessorId::new(0) {
                self.sent.push(payload);
            }
        }
        fn random_bit(&mut self) -> Bit {
            Bit::Zero
        }
        fn random_range(&mut self, _b: u64) -> u64 {
            0
        }
        fn random_ticket(&mut self) -> u64 {
            0
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

    fn committee(indices: &[usize]) -> Vec<ProcessorId> {
        indices.iter().copied().map(ProcessorId::new).collect()
    }

    #[test]
    fn member_broadcasts_proposal_on_start_observer_stays_silent() {
        let mut ctx = TestCtx::new(1, 9, 2);
        let mut member =
            CommitteeAgreement::new(ProcessorId::new(1), Bit::One, committee(&[1, 2, 3, 4]));
        assert!(member.is_member());
        member.on_start(&mut ctx);
        assert_eq!(ctx.sent.len(), 1);
        assert!(matches!(
            ctx.sent[0],
            Payload::Committee(CommitteeMsg::Proposal { value: Bit::One })
        ));

        let mut ctx = TestCtx::new(7, 9, 2);
        let mut observer =
            CommitteeAgreement::new(ProcessorId::new(7), Bit::Zero, committee(&[1, 2, 3, 4]));
        assert!(!observer.is_member());
        observer.on_start(&mut ctx);
        assert!(ctx.sent.is_empty());
    }

    #[test]
    fn member_announces_majority_of_committee_proposals_and_decides() {
        // Committee of 4: f = 1, quorum = 3.
        let mut ctx = TestCtx::new(1, 9, 2);
        let mut p =
            CommitteeAgreement::new(ProcessorId::new(1), Bit::Zero, committee(&[1, 2, 3, 4]));
        assert_eq!(p.fault_tolerance(), 1);
        p.on_start(&mut ctx);
        ctx.sent.clear();
        for member in [1usize, 2, 3] {
            p.on_message(
                ProcessorId::new(member),
                &Payload::Committee(CommitteeMsg::Proposal { value: Bit::One }),
                &mut ctx,
            );
        }
        assert_eq!(ctx.decided, Some(Bit::One));
        assert_eq!(ctx.sent.len(), 1);
        assert!(matches!(
            ctx.sent[0],
            Payload::Committee(CommitteeMsg::Announce { value: Bit::One })
        ));
        // Further proposals do not re-announce.
        p.on_message(
            ProcessorId::new(4),
            &Payload::Committee(CommitteeMsg::Proposal { value: Bit::Zero }),
            &mut ctx,
        );
        assert_eq!(ctx.sent.len(), 1);
    }

    #[test]
    fn observer_decides_on_f_plus_one_matching_announcements() {
        let mut ctx = TestCtx::new(8, 9, 2);
        let mut p =
            CommitteeAgreement::new(ProcessorId::new(8), Bit::Zero, committee(&[1, 2, 3, 4]));
        p.on_message(
            ProcessorId::new(1),
            &Payload::Committee(CommitteeMsg::Announce { value: Bit::One }),
            &mut ctx,
        );
        assert_eq!(ctx.decided, None, "f + 1 = 2 announcements are required");
        p.on_message(
            ProcessorId::new(2),
            &Payload::Committee(CommitteeMsg::Announce { value: Bit::One }),
            &mut ctx,
        );
        assert_eq!(ctx.decided, Some(Bit::One));
    }

    #[test]
    fn announcements_from_non_members_are_ignored() {
        let mut ctx = TestCtx::new(8, 9, 2);
        let mut p = CommitteeAgreement::new(ProcessorId::new(8), Bit::Zero, committee(&[1, 2]));
        assert_eq!(p.fault_tolerance(), 0);
        // Processor 7 is not on the committee; its announcement carries no weight.
        p.on_message(
            ProcessorId::new(7),
            &Payload::Committee(CommitteeMsg::Announce { value: Bit::One }),
            &mut ctx,
        );
        assert_eq!(ctx.decided, None);
        p.on_message(
            ProcessorId::new(2),
            &Payload::Committee(CommitteeMsg::Announce { value: Bit::One }),
            &mut ctx,
        );
        assert_eq!(ctx.decided, Some(Bit::One));
    }

    #[test]
    fn duplicate_announcements_from_one_member_do_not_decide() {
        let mut ctx = TestCtx::new(8, 9, 2);
        let mut p =
            CommitteeAgreement::new(ProcessorId::new(8), Bit::Zero, committee(&[1, 2, 3, 4]));
        for _ in 0..3 {
            p.on_message(
                ProcessorId::new(1),
                &Payload::Committee(CommitteeMsg::Announce { value: Bit::One }),
                &mut ctx,
            );
        }
        assert_eq!(ctx.decided, None);
    }

    #[test]
    fn singleton_committee_decides_its_own_input_immediately() {
        let mut ctx = TestCtx::new(0, 5, 1);
        let mut p = CommitteeAgreement::new(ProcessorId::new(0), Bit::One, committee(&[0]));
        p.on_start(&mut ctx);
        // The lone member's own proposal (delivered over the self channel) decides.
        p.on_message(
            ProcessorId::new(0),
            &Payload::Committee(CommitteeMsg::Proposal { value: Bit::One }),
            &mut ctx,
        );
        assert_eq!(ctx.decided, Some(Bit::One));
    }

    #[test]
    fn random_builder_selects_distinct_members_deterministically() {
        let cfg = SystemConfig::with_third_resilience(27).unwrap();
        let a = CommitteeBuilder::random(&cfg, 7, 99);
        let b = CommitteeBuilder::random(&cfg, 7, 99);
        assert_eq!(a.committee(), b.committee());
        let mut members = a.committee().to_vec();
        members.dedup();
        assert_eq!(members.len(), 7);
        let c = CommitteeBuilder::random(&cfg, 7, 100);
        assert_ne!(a.committee(), c.committee());
    }

    #[test]
    #[should_panic(expected = "committee must not contain duplicates")]
    fn duplicate_committee_members_rejected() {
        let _ = CommitteeBuilder::with_committee(committee(&[1, 1, 2]));
    }

    #[test]
    #[should_panic(expected = "committee cannot exceed")]
    fn oversized_random_committee_rejected() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let _ = CommitteeBuilder::random(&cfg, 5, 1);
    }

    #[test]
    fn builder_builds_members_and_observers() {
        let cfg = SystemConfig::new(6, 1).unwrap();
        let builder = CommitteeBuilder::with_committee(committee(&[0, 1, 2]));
        let member = builder.build(ProcessorId::new(0), Bit::One, &cfg);
        assert_eq!(member.digest().phase, "member");
        let observer = builder.build(ProcessorId::new(5), Bit::One, &cfg);
        assert_eq!(observer.digest().phase, "observer");
    }
}
