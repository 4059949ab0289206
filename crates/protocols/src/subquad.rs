//! A sub-quadratic committee-sampled agreement protocol in the style of
//! Cohen, Keidar and Spiegelman ("Not a COINcidence: sub-quadratic
//! asynchronous Byzantine agreement WHP", DISC 2020).
//!
//! Every protocol this crate shipped so far is *fully communicative*: each
//! round every processor broadcasts to all `n`, so a decision costs Θ(n²)
//! messages — the wall the paper's Section 5 lower bound says is unavoidable
//! against the strongly adaptive adversary, and that the sub-quadratic line
//! of work circumvents against weaker (non-adaptive) ones. This module
//! reproduces the communication structure that breaks the wall:
//!
//! * a **sampled committee** of `k` processors is drawn by public sortition
//!   (a seed fixed before the execution, as in [`crate::CommitteeBuilder`]);
//! * committee members exchange proposals **only within the committee**,
//!   using the engine's multicast primitive — `k²` messages, not `k·n`;
//! * members that assemble a quorum of `k - f` proposals (where
//!   `f = ⌊(k-1)/3⌋`) decide the majority and announce it to all `n`;
//! * everyone else decides on `f + 1` matching announcements.
//!
//! A decision therefore costs `O(k² + k·n)` messages; with `k = O(log n)`
//! that is `O(n log n)` — sub-quadratic, `o(n²)`. The flip side is exactly
//! the dichotomy the paper draws: the committee is public, so an **adaptive**
//! adversary (the `adaptive-committee-killer` strategy) crashes `f + 1`
//! members at the start and the protocol never terminates. The scenario
//! family `subquad/` charts both sides at `n ∈ {100, 1000, 10000}`.

use std::sync::Arc;

use agreement_model::{
    Bit, CommitteeMsg, Context, Payload, ProcessorId, ProcessorRng, Protocol, ProtocolBuilder,
    StateDigest, SystemConfig,
};

use crate::tally::{bit_is_set, RoundTally};

/// Tally keys.
const KEY_PROPOSALS: u8 = 0;
const KEY_ANNOUNCES: u8 = 1;

/// Domain label for the sortition RNG stream.
const SORTITION_LABEL: u64 = 0x5AB01;

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

/// The committee-sampled sub-quadratic agreement protocol: single-processor
/// state machine.
///
/// Structurally a sibling of [`crate::CommitteeAgreement`], but with the
/// proposal exchange confined to the committee (via
/// [`Context::multicast`]) instead of broadcast to all `n` — the change that
/// makes the message count per decision `o(n²)`.
#[derive(Debug)]
pub struct SampledCommittee {
    /// Shared with the builder and every other instance it built.
    committee: Arc<Roster>,
    fault_tolerance: usize,
    is_member: bool,
    input: Bit,
    votes: RoundTally,
    announced: bool,
    decided: Option<Bit>,
    reset_count: u64,
}

impl SampledCommittee {
    /// Creates the state machine for processor `id` with the given input and
    /// the publicly known sampled `committee`.
    pub fn new(id: ProcessorId, input: Bit, committee: impl Into<Arc<[ProcessorId]>>) -> Self {
        Self::with_roster(id, input, Arc::new(Roster::new(committee.into())))
    }

    fn with_roster(id: ProcessorId, input: Bit, committee: Arc<Roster>) -> Self {
        SampledCommittee {
            fault_tolerance: committee.listed.len().saturating_sub(1) / 3,
            is_member: committee.contains(id),
            input,
            // Only members' messages are tallied, so their ids bound the
            // voter sets.
            votes: RoundTally::for_processors(committee.id_bound()),
            committee,
            announced: false,
            decided: None,
            reset_count: 0,
        }
    }

    /// The publicly known sampled committee.
    pub fn committee(&self) -> &[ProcessorId] {
        &self.committee.listed
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
        self.committee.listed.len() - self.fault_tolerance
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
        // The announcement is the only all-to-all fan-out of the protocol:
        // k broadcasts in total, so k·n messages per decision.
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

impl Protocol for SampledCommittee {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        if self.is_member {
            // Proposals stay inside the committee: k² messages in total,
            // independent of n. The member's own id is in the set, so its
            // proposal reaches it over the self channel like any other.
            ctx.multicast(
                &self.committee.listed,
                Payload::Committee(CommitteeMsg::Proposal { value: self.input }),
            );
        }
    }

    fn on_message(&mut self, from: ProcessorId, payload: &Payload, ctx: &mut dyn Context) {
        // Only committee members' messages carry any weight.
        if !self.committee.contains(from) {
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

/// Builder for [`SampledCommittee`] instances.
///
/// # Examples
///
/// ```
/// use agreement_model::{ProtocolBuilder, SystemConfig};
/// use agreement_protocols::SampledCommitteeBuilder;
///
/// let cfg = SystemConfig::with_third_resilience(100)?;
/// // A publicly sampled committee of 13 members.
/// let builder = SampledCommitteeBuilder::random(&cfg, 13, 42);
/// assert_eq!(builder.committee().len(), 13);
/// assert_eq!(builder.name(), "sampled-committee");
/// # Ok::<(), agreement_model::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SampledCommitteeBuilder {
    committee: Arc<Roster>,
}

impl SampledCommitteeBuilder {
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
        SampledCommitteeBuilder {
            committee: Arc::new(Roster::new(committee.into())),
        }
    }

    /// Samples a committee of `size` distinct processors by public sortition
    /// with seed `seed` (drawn through a dedicated domain label, so it never
    /// collides with [`crate::CommitteeBuilder`]'s draw for the same seed).
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
        let mut rng = ProcessorRng::labelled(seed, SORTITION_LABEL);
        let committee = rng
            .choose_distinct(cfg.n(), size)
            .into_iter()
            .map(ProcessorId::new)
            .collect();
        SampledCommitteeBuilder {
            committee: Arc::new(Roster::new(committee)),
        }
    }

    /// The publicly known sampled committee used by every built instance.
    pub fn committee(&self) -> &[ProcessorId] {
        &self.committee.listed
    }
}

impl ProtocolBuilder for SampledCommitteeBuilder {
    fn name(&self) -> &'static str {
        "sampled-committee"
    }

    fn build(&self, id: ProcessorId, input: Bit, _cfg: &SystemConfig) -> Box<dyn Protocol> {
        Box::new(SampledCommittee::with_roster(
            id,
            input,
            Arc::clone(&self.committee),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct TestCtx {
        id: ProcessorId,
        cfg: SystemConfig,
        sent: Vec<(ProcessorId, Payload)>,
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
            self.sent.push((to, payload));
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
    fn member_proposals_go_only_to_the_committee() {
        let mut ctx = TestCtx::new(1, 100, 10);
        let mut member =
            SampledCommittee::new(ProcessorId::new(1), Bit::One, committee(&[1, 2, 3, 4]));
        assert!(member.is_member());
        member.on_start(&mut ctx);
        // 4 proposals for a committee of 4 in a system of 100 — not 100.
        let recipients: Vec<usize> = ctx.sent.iter().map(|(to, _)| to.index()).collect();
        assert_eq!(recipients, vec![1, 2, 3, 4]);
        assert!(ctx.sent.iter().all(|(_, p)| matches!(
            p,
            Payload::Committee(CommitteeMsg::Proposal { value: Bit::One })
        )));
    }

    #[test]
    fn observer_sends_nothing_on_start() {
        let mut ctx = TestCtx::new(7, 100, 10);
        let mut observer =
            SampledCommittee::new(ProcessorId::new(7), Bit::Zero, committee(&[1, 2, 3, 4]));
        assert!(!observer.is_member());
        observer.on_start(&mut ctx);
        assert!(ctx.sent.is_empty());
    }

    #[test]
    fn member_announces_to_everyone_after_committee_quorum() {
        // Committee of 4: f = 1, quorum = 3.
        let mut ctx = TestCtx::new(1, 10, 2);
        let mut p = SampledCommittee::new(ProcessorId::new(1), Bit::Zero, committee(&[1, 2, 3, 4]));
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
        // The announcement is the broadcast phase: one message per processor.
        assert_eq!(ctx.sent.len(), 10);
        assert!(ctx.sent.iter().all(|(_, p)| matches!(
            p,
            Payload::Committee(CommitteeMsg::Announce { value: Bit::One })
        )));
        // Further proposals do not re-announce.
        p.on_message(
            ProcessorId::new(4),
            &Payload::Committee(CommitteeMsg::Proposal { value: Bit::Zero }),
            &mut ctx,
        );
        assert_eq!(ctx.sent.len(), 10);
    }

    #[test]
    fn observer_decides_on_f_plus_one_matching_announcements() {
        let mut ctx = TestCtx::new(8, 10, 2);
        let mut p = SampledCommittee::new(ProcessorId::new(8), Bit::Zero, committee(&[1, 2, 3, 4]));
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
    fn non_member_messages_are_ignored() {
        let mut ctx = TestCtx::new(8, 10, 2);
        let mut p = SampledCommittee::new(ProcessorId::new(8), Bit::Zero, committee(&[1, 2]));
        assert_eq!(p.fault_tolerance(), 0);
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
    fn sortition_is_deterministic_and_distinct_from_the_baseline_draw() {
        let cfg = SystemConfig::with_third_resilience(100).unwrap();
        let a = SampledCommitteeBuilder::random(&cfg, 13, 99);
        let b = SampledCommitteeBuilder::random(&cfg, 13, 99);
        assert_eq!(a.committee(), b.committee());
        let mut members = a.committee().to_vec();
        members.sort_unstable();
        members.dedup();
        assert_eq!(members.len(), 13);
        // A different domain label than CommitteeBuilder: the same seed must
        // not produce the same committee as the quadratic baseline.
        let baseline = crate::CommitteeBuilder::random(&cfg, 13, 99);
        assert_ne!(a.committee(), baseline.committee());
    }

    #[test]
    #[should_panic(expected = "committee must not contain duplicates")]
    fn duplicate_committee_members_rejected() {
        let _ = SampledCommitteeBuilder::with_committee(committee(&[1, 1, 2]));
    }

    #[test]
    fn builder_builds_members_and_observers() {
        let cfg = SystemConfig::new(6, 1).unwrap();
        let builder = SampledCommitteeBuilder::with_committee(committee(&[0, 1, 2]));
        let member = builder.build(ProcessorId::new(0), Bit::One, &cfg);
        assert_eq!(member.digest().phase, "member");
        let observer = builder.build(ProcessorId::new(5), Bit::One, &cfg);
        assert_eq!(observer.digest().phase, "observer");
    }
}
