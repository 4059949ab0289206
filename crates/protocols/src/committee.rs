//! Committee agreement in two variants: the committee-election baseline in
//! the style of Kapron, Kempe, King, Saia and Sanwalani (SODA 2008), the
//! fast-but-non-adaptive protocol the paper contrasts against, and its
//! sub-quadratic committee-sampled refinement in the style of Cohen, Keidar
//! and Spiegelman ("Not a COINcidence: sub-quadratic asynchronous Byzantine
//! agreement WHP", DISC 2020).
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
//!
//! # The two variants
//!
//! The variants differ in exactly one step — who hears the proposals:
//!
//! * in the **baseline** ([`CommitteeBuilder::random`], builder name
//!   `"committee"`) members **broadcast** their proposals to all `n`, like
//!   every other protocol in this crate: each of them is *fully
//!   communicative* — every step is a broadcast — and the quorum protocols
//!   pay Θ(n²) messages per round for it, the wall the paper's Section 5
//!   lower bound says is unavoidable against the strongly adaptive adversary;
//! * in the **sampled** variant ([`CommitteeBuilder::sampled`], builder name
//!   `"sampled-committee"`) members exchange proposals **only within the
//!   committee**, using the engine's multicast primitive — `k²` messages, not
//!   `k·n` — and only the `k` announcements go to all `n`. This is the
//!   communication structure that breaks the wall against weaker
//!   (non-adaptive) adversaries: a decision costs `O(k² + k·n)` messages;
//!   with `k = O(log n)` that is `O(n log n)` — sub-quadratic, `o(n²)`.
//!
//! The flip side is the same for both, and exactly the dichotomy the paper
//! draws: the committee is public, so an **adaptive** adversary (the
//! `adaptive-committee-killer` strategy) crashes `f + 1` members at the start
//! and the protocol never terminates. The scenario family `subquad/` charts
//! both sides of the sampled variant at `n ∈ {100, 1000, 10000}`.
//!
//! The two draw their committees through different sortition labels, so the
//! same public seed never yields the same committee for both.

use std::sync::Arc;

use agreement_model::{
    Bit, CommitteeMsg, Context, Payload, ProcessorId, ProcessorRng, Protocol, ProtocolBuilder,
    StateDigest, SystemConfig,
};

use crate::tally::{bit_is_set, RoundTally, VoteCounts};

/// Tally keys.
const KEY_PROPOSALS: u8 = 0;
const KEY_ANNOUNCES: u8 = 1;

/// Which of the two committee protocols an instance runs: the one step they
/// differ in, plus the two names that keep their outputs apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// Proposals are broadcast to all `n` (the Kapron-style baseline).
    Baseline,
    /// Proposals are multicast within the committee (sub-quadratic).
    Sampled,
}

impl Variant {
    fn builder_name(self) -> &'static str {
        match self {
            Variant::Baseline => "committee",
            Variant::Sampled => "sampled-committee",
        }
    }

    /// Domain label of the sortition RNG stream.
    fn sortition_label(self) -> u64 {
        match self {
            Variant::Baseline => 0xC0881,
            Variant::Sampled => 0x5AB01,
        }
    }
}

/// The publicly known committee as every instance needs it: the members in
/// the order they were drawn (the order `multicast` addresses them in), and
/// the membership test every delivery asks, answered from a bitset computed
/// once per builder instead of a scan of the `k` ids per message.
#[derive(Debug)]
struct Roster {
    listed: Arc<[ProcessorId]>,
    /// Bit `i` is set iff processor `i` is listed.
    member_bits: Box<[u64]>,
}

impl Roster {
    fn new(listed: Arc<[ProcessorId]>) -> Self {
        let id_bound = listed.iter().map(|id| id.index() + 1).max().unwrap_or(0);
        let mut member_bits = vec![0u64; id_bound.div_ceil(64)].into_boxed_slice();
        for id in listed.iter() {
            member_bits[id.index() / 64] |= 1 << (id.index() % 64);
        }
        Roster {
            listed,
            member_bits,
        }
    }

    fn contains(&self, id: ProcessorId) -> bool {
        bit_is_set(&self.member_bits, id.index())
    }

    /// One past the largest identity whose bit the roster holds: every
    /// member, and so every sender whose vote is ever tallied, lies below it.
    fn id_bound(&self) -> usize {
        self.member_bits.len() * 64
    }
}

/// Committee agreement, either variant: single-processor state machine.
#[derive(Debug)]
pub struct CommitteeAgreement {
    /// Shared with the builder and every other instance it built.
    committee: Arc<Roster>,
    variant: Variant,
    fault_tolerance: usize,
    trial: TrialState,
}

/// The part of a [`CommitteeAgreement`] a trial starts afresh: apart from the
/// roster, so a rebuild or a reset does not clone the shared `Arc` (a tenth
/// of an n = 1 000 trial).
#[derive(Debug)]
struct TrialState {
    is_member: bool,
    input: Bit,
    votes: RoundTally,
    announced: bool,
    decided: Option<Bit>,
    reset_count: u64,
}

impl TrialState {
    /// Processor `id` with `input` over `committee`, counting votes in
    /// `votes` (sized for its `id_bound`, emptied here): the only place the
    /// starting state is written. Forced inline as `HarnessCore::new` is.
    #[inline(always)]
    fn start(committee: &Roster, id: ProcessorId, input: Bit, mut votes: RoundTally) -> Self {
        votes.clear();
        TrialState {
            is_member: committee.contains(id),
            input,
            votes,
            announced: false,
            decided: None,
            reset_count: 0,
        }
    }
}

impl CommitteeAgreement {
    /// Creates the baseline state machine for processor `id` with the given
    /// input and the publicly known `committee`.
    pub fn new(id: ProcessorId, input: Bit, committee: impl Into<Arc<[ProcessorId]>>) -> Self {
        let roster = Arc::new(Roster::new(committee.into()));
        Self::with_roster(id, input, roster, Variant::Baseline)
    }

    fn with_roster(id: ProcessorId, input: Bit, committee: Arc<Roster>, variant: Variant) -> Self {
        let votes = RoundTally::for_processors(committee.id_bound());
        CommitteeAgreement {
            trial: TrialState::start(&committee, id, input, votes),
            fault_tolerance: committee.listed.len().saturating_sub(1) / 3,
            committee,
            variant,
        }
    }

    /// The publicly known final committee.
    pub fn committee(&self) -> &[ProcessorId] {
        &self.committee.listed
    }

    /// `f = ⌊(k-1)/3⌋`, the number of committee faults tolerated.
    pub fn fault_tolerance(&self) -> usize {
        self.fault_tolerance
    }

    /// Whether this processor is a committee member.
    pub fn is_member(&self) -> bool {
        self.trial.is_member
    }

    fn committee_quorum(&self) -> usize {
        self.committee.listed.len() - self.fault_tolerance
    }

    /// A member's step once its tally of proposals reads `proposals`:
    /// with a quorum in, decide the majority and announce it, once.
    fn try_announce(&mut self, proposals: VoteCounts, ctx: &mut dyn Context) {
        if self.trial.announced || proposals.total() < self.committee_quorum() {
            return;
        }
        let value = proposals.majority_value().unwrap_or(self.trial.input);
        self.trial.announced = true;
        self.trial.decided = Some(value);
        ctx.decide(value);
        // The sampled variant's only all-to-all fan-out: k broadcasts in
        // total, so k·n messages per decision.
        ctx.broadcast(Payload::Committee(CommitteeMsg::Announce { value }));
    }

    /// Any processor's step once its tally of announcements reads
    /// `announces`: decide the first value `f + 1` members announced.
    fn try_decide_from_announcements(&mut self, announces: VoteCounts, ctx: &mut dyn Context) {
        if self.trial.decided.is_some() {
            return;
        }
        if let Some(value) = announces.value_with_at_least(self.fault_tolerance + 1) {
            self.trial.decided = Some(value);
            ctx.decide(value);
        }
    }
}

impl Protocol for CommitteeAgreement {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        if !self.trial.is_member {
            return;
        }
        let proposal = Payload::Committee(CommitteeMsg::Proposal {
            value: self.trial.input,
        });
        match self.variant {
            Variant::Baseline => ctx.broadcast(proposal),
            // Proposals stay inside the committee: k² messages in total,
            // independent of n. The member's own id is in the set, so its
            // proposal reaches it over the self channel like any other.
            Variant::Sampled => ctx.multicast(&self.committee.listed, proposal),
        }
    }

    fn on_message(&mut self, from: ProcessorId, payload: &Payload, ctx: &mut dyn Context) {
        // Only committee members' messages carry any weight.
        if !self.committee.contains(from) {
            return;
        }
        // A duplicate vote changes no count, so it cannot move either step:
        // both already ran on the counts it would show them.
        let votes = &mut self.trial.votes;
        match payload {
            Payload::Committee(CommitteeMsg::Proposal { value }) if self.trial.is_member => {
                if let Some(proposals) = votes.record(0, KEY_PROPOSALS, from, Some(*value)) {
                    self.try_announce(proposals, ctx);
                }
            }
            Payload::Committee(CommitteeMsg::Announce { value }) => {
                if let Some(announces) = votes.record(0, KEY_ANNOUNCES, from, Some(*value)) {
                    self.try_decide_from_announcements(announces, ctx);
                }
            }
            _ => {}
        }
    }

    fn on_reset(&mut self, ctx: &mut dyn Context) {
        let trial = &mut self.trial;
        let votes = std::mem::take(&mut trial.votes);
        *trial = TrialState {
            decided: trial.decided,
            reset_count: trial.reset_count + 1,
            ..TrialState::start(&self.committee, ctx.id(), trial.input, votes)
        };
    }

    fn digest(&self) -> StateDigest {
        StateDigest {
            round: Some(1),
            estimate: Some(self.trial.input),
            decided: self.trial.decided,
            reset_count: self.trial.reset_count,
            phase: match (self.trial.is_member, self.trial.announced) {
                (true, true) => "member-announced",
                (true, false) => "member",
                (false, _) => "observer",
            },
        }
    }
}

/// Builder for [`CommitteeAgreement`] instances of either variant.
///
/// # Examples
///
/// ```
/// use agreement_model::{ProtocolBuilder, SystemConfig};
/// use agreement_protocols::CommitteeBuilder;
///
/// let cfg = SystemConfig::with_third_resilience(100)?;
/// // A publicly known random committee of 7 members, proposals broadcast.
/// let baseline = CommitteeBuilder::random(&cfg, 7, 42);
/// assert_eq!(baseline.committee().len(), 7);
/// assert_eq!(baseline.name(), "committee");
/// // A publicly sampled committee of 13 members, proposals kept inside it.
/// let sampled = CommitteeBuilder::sampled(&cfg, 13, 42);
/// assert_eq!(sampled.committee().len(), 13);
/// assert_eq!(sampled.name(), "sampled-committee");
/// # Ok::<(), agreement_model::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CommitteeBuilder {
    committee: Arc<Roster>,
    variant: Variant,
}

impl CommitteeBuilder {
    /// The baseline protocol over an explicitly given committee.
    ///
    /// # Panics
    ///
    /// Panics if the committee is empty or contains duplicates.
    pub fn with_committee(committee: Vec<ProcessorId>) -> Self {
        Self::explicit(committee, Variant::Baseline)
    }

    /// The sampled (sub-quadratic) protocol over an explicitly given
    /// committee.
    ///
    /// # Panics
    ///
    /// Panics if the committee is empty or contains duplicates.
    pub fn sampled_with_committee(committee: Vec<ProcessorId>) -> Self {
        Self::explicit(committee, Variant::Sampled)
    }

    /// The baseline protocol over a committee of `size` distinct processors
    /// selected using the public random seed `seed` (the non-adaptive
    /// adversary does not know it when choosing whom to corrupt; the adaptive
    /// adversary does).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or exceeds `cfg.n()`.
    pub fn random(cfg: &SystemConfig, size: usize, seed: u64) -> Self {
        Self::drawn(cfg, size, seed, Variant::Baseline)
    }

    /// The sampled (sub-quadratic) protocol over a committee of `size`
    /// distinct processors drawn by public sortition with seed `seed`
    /// (through a dedicated domain label, so it never collides with
    /// [`CommitteeBuilder::random`]'s draw for the same seed).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or exceeds `cfg.n()`.
    pub fn sampled(cfg: &SystemConfig, size: usize, seed: u64) -> Self {
        Self::drawn(cfg, size, seed, Variant::Sampled)
    }

    fn explicit(committee: Vec<ProcessorId>, variant: Variant) -> Self {
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
            committee: Arc::new(Roster::new(committee.into())),
            variant,
        }
    }

    fn drawn(cfg: &SystemConfig, size: usize, seed: u64, variant: Variant) -> Self {
        assert!(size > 0, "committee must have at least one member");
        assert!(
            size <= cfg.n(),
            "committee cannot exceed the number of processors"
        );
        let mut rng = ProcessorRng::labelled(seed, variant.sortition_label());
        let committee = rng
            .choose_distinct(cfg.n(), size)
            .into_iter()
            .map(ProcessorId::new)
            .collect();
        CommitteeBuilder {
            committee: Arc::new(Roster::new(committee)),
            variant,
        }
    }

    /// The publicly known committee used by every built instance.
    pub fn committee(&self) -> &[ProcessorId] {
        &self.committee.listed
    }
}

impl ProtocolBuilder for CommitteeBuilder {
    fn name(&self) -> &'static str {
        self.variant.builder_name()
    }

    fn build(&self, id: ProcessorId, input: Bit, _cfg: &SystemConfig) -> Box<dyn Protocol> {
        let committee = Arc::clone(&self.committee);
        Box::new(CommitteeAgreement::with_roster(
            id,
            input,
            committee,
            self.variant,
        ))
    }

    fn rebuild(
        &self,
        slot: &mut Box<dyn Protocol>,
        id: ProcessorId,
        input: Bit,
        cfg: &SystemConfig,
    ) {
        // The same roster allocation, not an equal one: what the instance
        // keeps across trials is this builder's `Arc`. A roster is made for
        // one builder and shared only with its clones, so the variant is the
        // same too.
        match slot.downcast_mut::<CommitteeAgreement>() {
            Some(ours) if Arc::ptr_eq(&ours.committee, &self.committee) => {
                debug_assert_eq!(ours.variant, self.variant);
                let votes = std::mem::take(&mut ours.trial.votes);
                ours.trial = TrialState::start(&ours.committee, id, input, votes);
            }
            _ => *slot = self.build(id, input, cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx::TestCtx;

    const VARIANTS: [Variant; 2] = [Variant::Baseline, Variant::Sampled];

    fn committee(indices: &[usize]) -> Vec<ProcessorId> {
        indices.iter().copied().map(ProcessorId::new).collect()
    }

    fn instance(variant: Variant, id: usize, input: Bit, members: &[usize]) -> CommitteeAgreement {
        let roster = Arc::new(Roster::new(committee(members).into()));
        CommitteeAgreement::with_roster(ProcessorId::new(id), input, roster, variant)
    }

    fn explicit_builder(variant: Variant, members: &[usize]) -> CommitteeBuilder {
        match variant {
            Variant::Baseline => CommitteeBuilder::with_committee(committee(members)),
            Variant::Sampled => CommitteeBuilder::sampled_with_committee(committee(members)),
        }
    }

    fn drawn_builder(
        variant: Variant,
        cfg: &SystemConfig,
        size: usize,
        seed: u64,
    ) -> CommitteeBuilder {
        match variant {
            Variant::Baseline => CommitteeBuilder::random(cfg, size, seed),
            Variant::Sampled => CommitteeBuilder::sampled(cfg, size, seed),
        }
    }

    fn proposal(value: Bit) -> Payload {
        Payload::Committee(CommitteeMsg::Proposal { value })
    }

    fn announce(value: Bit) -> Payload {
        Payload::Committee(CommitteeMsg::Announce { value })
    }

    #[test]
    fn public_constructor_builds_the_baseline() {
        let p = CommitteeAgreement::new(ProcessorId::new(1), Bit::One, committee(&[1, 2, 3, 4]));
        assert_eq!(p.variant, Variant::Baseline);
        assert_eq!(p.committee(), committee(&[1, 2, 3, 4]));
        assert!(p.is_member());
    }

    #[test]
    fn member_proposals_reach_everyone_under_baseline_and_only_the_committee_under_sampled() {
        for variant in VARIANTS {
            let mut ctx = TestCtx::new(1, 100, 10);
            let mut member = instance(variant, 1, Bit::One, &[1, 2, 3, 4]);
            assert!(member.is_member());
            member.on_start(&mut ctx);
            match variant {
                Variant::Baseline => assert_eq!(ctx.recipients(), (0..100).collect::<Vec<_>>()),
                // 4 proposals for a committee of 4 in a system of 100 — not 100.
                Variant::Sampled => assert_eq!(ctx.recipients(), vec![1, 2, 3, 4]),
            }
            assert!(
                ctx.sent.iter().all(|(_, p)| *p == proposal(Bit::One)),
                "{variant:?}"
            );
        }
    }

    #[test]
    fn observer_sends_nothing_on_start() {
        for variant in VARIANTS {
            let mut ctx = TestCtx::new(7, 100, 10);
            let mut observer = instance(variant, 7, Bit::Zero, &[1, 2, 3, 4]);
            assert!(!observer.is_member());
            observer.on_start(&mut ctx);
            assert!(ctx.sent.is_empty(), "{variant:?}");
        }
    }

    #[test]
    fn member_announces_majority_to_everyone_after_committee_quorum_and_decides() {
        for variant in VARIANTS {
            // Committee of 4: f = 1, quorum = 3.
            let mut ctx = TestCtx::new(1, 10, 2);
            let mut p = instance(variant, 1, Bit::Zero, &[1, 2, 3, 4]);
            assert_eq!(p.fault_tolerance(), 1);
            p.on_start(&mut ctx);
            ctx.sent.clear();
            for member in [1usize, 2] {
                p.on_message(ProcessorId::new(member), &proposal(Bit::One), &mut ctx);
            }
            assert_eq!(ctx.decided, None, "{variant:?}: k - f = 3 proposals needed");
            p.on_message(ProcessorId::new(3), &proposal(Bit::One), &mut ctx);
            assert_eq!(ctx.decided, Some(Bit::One), "{variant:?}");
            // The announcement is the broadcast phase: one message per processor.
            assert_eq!(ctx.recipients(), (0..10).collect::<Vec<_>>(), "{variant:?}");
            assert!(ctx.sent.iter().all(|(_, p)| *p == announce(Bit::One)));
            // Further proposals do not re-announce.
            p.on_message(ProcessorId::new(4), &proposal(Bit::Zero), &mut ctx);
            assert_eq!(ctx.sent.len(), 10, "{variant:?}");
        }
    }

    #[test]
    fn observer_decides_on_f_plus_one_matching_announcements() {
        for variant in VARIANTS {
            let mut ctx = TestCtx::new(8, 10, 2);
            let mut p = instance(variant, 8, Bit::Zero, &[1, 2, 3, 4]);
            p.on_message(ProcessorId::new(1), &announce(Bit::One), &mut ctx);
            assert_eq!(ctx.decided, None, "f + 1 = 2 announcements are required");
            p.on_message(ProcessorId::new(2), &announce(Bit::One), &mut ctx);
            assert_eq!(ctx.decided, Some(Bit::One), "{variant:?}");
        }
    }

    #[test]
    fn non_member_messages_are_ignored() {
        for variant in VARIANTS {
            let mut ctx = TestCtx::new(8, 10, 2);
            let mut p = instance(variant, 8, Bit::Zero, &[1, 2]);
            assert_eq!(p.fault_tolerance(), 0);
            // Processor 7 is not on the committee; its announcement carries no weight.
            p.on_message(ProcessorId::new(7), &announce(Bit::One), &mut ctx);
            assert_eq!(ctx.decided, None, "{variant:?}");
            p.on_message(ProcessorId::new(2), &announce(Bit::One), &mut ctx);
            assert_eq!(ctx.decided, Some(Bit::One), "{variant:?}");
        }
    }

    #[test]
    fn duplicate_announcements_from_one_member_do_not_decide() {
        for variant in VARIANTS {
            let mut ctx = TestCtx::new(8, 9, 2);
            let mut p = instance(variant, 8, Bit::Zero, &[1, 2, 3, 4]);
            for _ in 0..3 {
                p.on_message(ProcessorId::new(1), &announce(Bit::One), &mut ctx);
            }
            assert_eq!(ctx.decided, None, "{variant:?}");
        }
    }

    #[test]
    fn singleton_committee_decides_its_own_input_immediately() {
        for variant in VARIANTS {
            let mut ctx = TestCtx::new(0, 5, 1);
            let mut p = instance(variant, 0, Bit::One, &[0]);
            p.on_start(&mut ctx);
            // The lone member's own proposal (delivered over the self channel) decides.
            p.on_message(ProcessorId::new(0), &proposal(Bit::One), &mut ctx);
            assert_eq!(ctx.decided, Some(Bit::One), "{variant:?}");
        }
    }

    #[test]
    fn drawn_committees_are_distinct_members_deterministic_per_seed() {
        for variant in VARIANTS {
            let cfg = SystemConfig::with_third_resilience(100).unwrap();
            let a = drawn_builder(variant, &cfg, 13, 99);
            let b = drawn_builder(variant, &cfg, 13, 99);
            assert_eq!(a.committee(), b.committee());
            let mut members = a.committee().to_vec();
            members.sort_unstable();
            members.dedup();
            assert_eq!(members.len(), 13, "{variant:?}");
            let c = drawn_builder(variant, &cfg, 13, 100);
            assert_ne!(a.committee(), c.committee(), "{variant:?}");
        }
    }

    #[test]
    fn sortition_is_deterministic_and_distinct_from_the_baseline_draw() {
        let cfg = SystemConfig::with_third_resilience(100).unwrap();
        let sampled = CommitteeBuilder::sampled(&cfg, 13, 99);
        assert_eq!(
            sampled.committee(),
            CommitteeBuilder::sampled(&cfg, 13, 99).committee()
        );
        // A different domain label than the baseline: the same seed must not
        // produce the same committee for both.
        let baseline = CommitteeBuilder::random(&cfg, 13, 99);
        assert_ne!(sampled.committee(), baseline.committee());
    }

    #[test]
    #[should_panic(expected = "committee must not contain duplicates")]
    fn duplicate_baseline_committee_members_rejected() {
        let _ = CommitteeBuilder::with_committee(committee(&[1, 1, 2]));
    }

    #[test]
    #[should_panic(expected = "committee must not contain duplicates")]
    fn duplicate_sampled_committee_members_rejected() {
        let _ = CommitteeBuilder::sampled_with_committee(committee(&[1, 1, 2]));
    }

    #[test]
    #[should_panic(expected = "committee cannot exceed")]
    fn oversized_random_committee_rejected() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let _ = CommitteeBuilder::random(&cfg, 5, 1);
    }

    #[test]
    fn builder_builds_members_and_observers_under_its_variants_name() {
        for (variant, name) in [
            (Variant::Baseline, "committee"),
            (Variant::Sampled, "sampled-committee"),
        ] {
            let cfg = SystemConfig::new(6, 1).unwrap();
            let builder = explicit_builder(variant, &[0, 1, 2]);
            assert_eq!(builder.name(), name);
            let member = builder.build(ProcessorId::new(0), Bit::One, &cfg);
            assert_eq!(member.digest().phase, "member");
            let observer = builder.build(ProcessorId::new(5), Bit::One, &cfg);
            assert_eq!(observer.digest().phase, "observer");
        }
    }
}
