//! Ben-Or's randomized asynchronous agreement protocol (PODC 1983), in the
//! crash-failure formulation whose correctness for `t < n/2` is proved by
//! Aguilera and Toueg (cited as [1] in the paper).
//!
//! Each round `r` has two phases:
//!
//! * **Phase 1 (report)** — broadcast `(r, x)`; wait for `n - t` round-`r`
//!   reports. If more than `n/2` of them carry the same value `v`, the
//!   processor *proposes* `v`; otherwise it proposes `?` (no preference).
//! * **Phase 2 (proposal)** — broadcast the proposal; wait for `n - t`
//!   round-`r` proposals. If at least `t + 1` of them propose the same value
//!   `v`, decide `v`; else if at least one proposes `v`, adopt `x = v`;
//!   otherwise set `x` to a fresh random bit. Then advance to round `r + 1`.
//!
//! The protocol is **forgetful** and **fully communicative** in the sense of
//! Definitions 15 and 16: each message depends only on the input bit, the
//! messages received since the previous sending event, and fresh randomness,
//! and receiving the latest messages from `n - t` processors always triggers a
//! new broadcast to all `n` processors. It is therefore in the class to which
//! Theorem 17's exponential lower bound applies.

use agreement_model::{
    Bit, Context, Payload, ProcessorId, Protocol, ProtocolBuilder, StateDigest, SystemConfig,
};

use crate::tally::{RoundTally, VoteCounts};

/// Phase identifiers used as tally keys.
const PHASE_REPORT: u8 = 1;
const PHASE_PROPOSAL: u8 = 2;

/// Ben-Or's protocol: single-processor state machine.
#[derive(Debug)]
pub struct BenOr {
    n: usize,
    t: usize,
    round: u64,
    estimate: Bit,
    waiting_phase: u8,
    tally: RoundTally,
    decided: Option<Bit>,
    reset_count: u64,
    input: Bit,
}

impl BenOr {
    /// Creates the protocol state for a processor with the given input.
    pub fn new(input: Bit, cfg: &SystemConfig) -> Self {
        BenOr::with_tally(input, cfg.n(), cfg.t(), RoundTally::for_processors(cfg.n()))
    }

    /// The state [`BenOr::new`] builds, counting votes in `tally` (sized for
    /// `n`, emptied here): the only place the starting state is written.
    fn with_tally(input: Bit, n: usize, t: usize, mut tally: RoundTally) -> Self {
        tally.clear();
        BenOr {
            n,
            t,
            round: 1,
            estimate: input,
            waiting_phase: PHASE_REPORT,
            tally,
            decided: None,
            reset_count: 0,
            input,
        }
    }

    /// The current round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The current estimate.
    pub fn estimate(&self) -> Bit {
        self.estimate
    }

    /// The phase (1 or 2) whose quorum the processor is currently waiting for.
    pub fn waiting_phase(&self) -> u8 {
        self.waiting_phase
    }

    fn quorum(&self) -> usize {
        self.n - self.t
    }

    fn send_report(&self, ctx: &mut dyn Context) {
        ctx.broadcast(Payload::Report {
            round: self.round,
            value: self.estimate,
        });
    }

    fn send_proposal(&self, proposal: Option<Bit>, ctx: &mut dyn Context) {
        ctx.broadcast(Payload::Proposal {
            round: self.round,
            value: proposal,
        });
    }

    /// Runs the phases whose quorum is in, starting from `votes`, the counts
    /// of the key the processor waits on — `(round, waiting_phase)` — which
    /// hold a quorum. Each later key's counts are read once, when the
    /// processor moves on to it; it stops at the first without a quorum.
    fn try_progress(&mut self, mut votes: VoteCounts, ctx: &mut dyn Context) {
        loop {
            match self.waiting_phase {
                PHASE_REPORT => {
                    // Strict majority of *all* processors among the received
                    // reports is required to propose.
                    let proposal = Bit::ALL.into_iter().find(|&v| 2 * votes.count(v) > self.n);
                    self.send_proposal(proposal, ctx);
                    self.waiting_phase = PHASE_PROPOSAL;
                }
                PHASE_PROPOSAL => {
                    let strong = Bit::ALL.into_iter().find(|&v| votes.count(v) > self.t);
                    let weak = Bit::ALL.into_iter().find(|&v| votes.count(v) >= 1);
                    if let Some(v) = strong {
                        self.decided = Some(v);
                        ctx.decide(v);
                        self.estimate = v;
                    } else if let Some(v) = weak {
                        self.estimate = v;
                    } else {
                        self.estimate = ctx.random_bit();
                    }
                    self.round += 1;
                    self.waiting_phase = PHASE_REPORT;
                    self.tally.forget_rounds_before(self.round);
                    self.send_report(ctx);
                }
                _ => unreachable!("Ben-Or only has phases 1 and 2"),
            }
            votes = self.tally.counts(self.round, self.waiting_phase);
            if votes.total() < self.quorum() {
                break;
            }
        }
    }
}

impl Protocol for BenOr {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.send_report(ctx);
    }

    fn on_message(&mut self, from: ProcessorId, payload: &Payload, ctx: &mut dyn Context) {
        let (round, phase, value) = match *payload {
            Payload::Report { round, value } => (round, PHASE_REPORT, Some(value)),
            Payload::Proposal { round, value } => (round, PHASE_PROPOSAL, value),
            _ => return,
        };
        if round < self.round {
            return;
        }
        // At rest the key the processor waits on holds less than a quorum —
        // `try_progress` runs until it does — and no other key is looked at
        // until that one fills: only a counted vote that lifts it to the
        // quorum can move the state machine.
        match self.tally.record(round, phase, from, value) {
            Some(votes)
                if (round, phase) == (self.round, self.waiting_phase)
                    && votes.total() >= self.quorum() =>
            {
                self.try_progress(votes, ctx);
            }
            _ => {}
        }
    }

    fn on_reset(&mut self, _ctx: &mut dyn Context) {
        // Plain Ben-Or was not designed for resetting failures; the closest
        // faithful behaviour is to restart from round 1 with the input bit.
        // (It is only run under crash/Byzantine adversaries in this workspace;
        // the reset-tolerant variant handles the strongly adaptive adversary.)
        *self = BenOr {
            decided: self.decided,
            reset_count: self.reset_count + 1,
            ..BenOr::with_tally(self.input, self.n, self.t, std::mem::take(&mut self.tally))
        };
    }

    fn digest(&self) -> StateDigest {
        StateDigest {
            round: Some(self.round),
            estimate: Some(self.estimate),
            decided: self.decided,
            reset_count: self.reset_count,
            phase: if self.waiting_phase == PHASE_REPORT {
                "report"
            } else {
                "proposal"
            },
        }
    }
}

/// Builder for [`BenOr`] instances.
///
/// # Examples
///
/// ```
/// use agreement_model::{ProtocolBuilder, SystemConfig};
/// use agreement_protocols::BenOrBuilder;
///
/// let cfg = SystemConfig::new(7, 3)?; // t < n/2
/// assert_eq!(BenOrBuilder::new().name(), "ben-or");
/// # Ok::<(), agreement_model::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BenOrBuilder;

impl BenOrBuilder {
    /// Creates the builder.
    pub fn new() -> Self {
        BenOrBuilder
    }
}

impl ProtocolBuilder for BenOrBuilder {
    fn name(&self) -> &'static str {
        "ben-or"
    }

    fn build(&self, _id: ProcessorId, input: Bit, cfg: &SystemConfig) -> Box<dyn Protocol> {
        Box::new(BenOr::new(input, cfg))
    }

    fn rebuild(
        &self,
        slot: &mut Box<dyn Protocol>,
        id: ProcessorId,
        input: Bit,
        cfg: &SystemConfig,
    ) {
        match slot.downcast_mut::<BenOr>() {
            Some(ours) if (ours.n, ours.t) == (cfg.n(), cfg.t()) => {
                *ours = BenOr::with_tally(input, ours.n, ours.t, std::mem::take(&mut ours.tally));
            }
            _ => *slot = self.build(id, input, cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx::TestCtx;

    fn feed_reports(p: &mut BenOr, ctx: &mut TestCtx, round: u64, zeros: usize, ones: usize) {
        let mut sender = 0;
        for _ in 0..zeros {
            p.on_message(
                ProcessorId::new(sender),
                &Payload::Report {
                    round,
                    value: Bit::Zero,
                },
                ctx,
            );
            sender += 1;
        }
        for _ in 0..ones {
            p.on_message(
                ProcessorId::new(sender),
                &Payload::Report {
                    round,
                    value: Bit::One,
                },
                ctx,
            );
            sender += 1;
        }
    }

    fn feed_proposals(p: &mut BenOr, ctx: &mut TestCtx, round: u64, proposals: &[Option<Bit>]) {
        for (i, value) in proposals.iter().enumerate() {
            p.on_message(
                ProcessorId::new(i),
                &Payload::Proposal {
                    round,
                    value: *value,
                },
                ctx,
            );
        }
    }

    /// n = 7, t = 3: quorum = 4, majority > 3.5 means >= 4, decide needs >= 4 proposals.
    fn setup(input: Bit) -> (BenOr, TestCtx) {
        let ctx = TestCtx::new(0, 7, 3);
        (BenOr::new(input, &ctx.cfg), ctx)
    }

    #[test]
    fn start_broadcasts_round_one_report() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        assert_eq!(ctx.sent_to(1).len(), 1);
        assert!(matches!(
            ctx.sent_to(1)[0],
            Payload::Report {
                round: 1,
                value: Bit::One
            }
        ));
        assert_eq!(p.waiting_phase(), 1);
    }

    #[test]
    fn majority_reports_produce_a_value_proposal() {
        let (mut p, mut ctx) = setup(Bit::Zero);
        p.on_start(&mut ctx);
        ctx.sent.clear();
        feed_reports(&mut p, &mut ctx, 1, 4, 0); // 4 zeros > n/2 = 3.5
        assert_eq!(p.waiting_phase(), 2);
        assert!(matches!(
            ctx.sent_to(1)[0],
            Payload::Proposal {
                round: 1,
                value: Some(Bit::Zero)
            }
        ));
    }

    #[test]
    fn split_reports_produce_a_question_mark_proposal() {
        let (mut p, mut ctx) = setup(Bit::Zero);
        p.on_start(&mut ctx);
        ctx.sent.clear();
        feed_reports(&mut p, &mut ctx, 1, 2, 2);
        assert_eq!(p.waiting_phase(), 2);
        assert!(matches!(
            ctx.sent_to(1)[0],
            Payload::Proposal {
                round: 1,
                value: None
            }
        ));
    }

    #[test]
    fn strong_proposal_count_decides() {
        let (mut p, mut ctx) = setup(Bit::Zero);
        p.on_start(&mut ctx);
        feed_reports(&mut p, &mut ctx, 1, 4, 0);
        feed_proposals(&mut p, &mut ctx, 1, &[Some(Bit::Zero); 4]); // t + 1 = 4
        assert_eq!(ctx.decided, Some(Bit::Zero));
        assert_eq!(p.estimate(), Bit::Zero);
        assert_eq!(
            p.round(),
            2,
            "the protocol keeps participating after deciding"
        );
    }

    #[test]
    fn single_proposal_adopts_value_without_deciding() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        feed_reports(&mut p, &mut ctx, 1, 2, 2);
        feed_proposals(&mut p, &mut ctx, 1, &[Some(Bit::Zero), None, None, None]);
        assert_eq!(ctx.decided, None);
        assert_eq!(p.estimate(), Bit::Zero);
        assert_eq!(p.round(), 2);
    }

    #[test]
    fn all_question_marks_sample_a_random_bit() {
        let (mut p, mut ctx) = setup(Bit::One);
        ctx.coins.push_back(Bit::One);
        p.on_start(&mut ctx);
        feed_reports(&mut p, &mut ctx, 1, 2, 2);
        feed_proposals(&mut p, &mut ctx, 1, &[None, None, None, None]);
        assert_eq!(ctx.decided, None);
        assert_eq!(p.estimate(), Bit::One);
        assert_eq!(p.round(), 2);
    }

    #[test]
    fn sub_quorum_messages_do_not_advance() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        feed_reports(&mut p, &mut ctx, 1, 2, 1); // 3 < quorum 4
        assert_eq!(p.waiting_phase(), 1);
        assert_eq!(p.round(), 1);
    }

    #[test]
    fn future_round_messages_are_retained() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        // Round-2 reports arrive early.
        feed_reports(&mut p, &mut ctx, 2, 0, 4);
        assert_eq!(p.round(), 1);
        // Complete round 1: phase 1 then phase 2 (all abstain -> random, scripted Zero).
        feed_reports(&mut p, &mut ctx, 1, 2, 2);
        feed_proposals(&mut p, &mut ctx, 1, &[None, None, None, None]);
        // The early round-2 reports now immediately complete phase 1 of round 2.
        assert_eq!(p.round(), 2);
        assert_eq!(p.waiting_phase(), 2);
    }

    #[test]
    fn the_report_completing_a_quorum_also_runs_the_proposals_already_in() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        // Round-1 proposals from a quorum arrive while the reports are one
        // short of theirs.
        feed_proposals(&mut p, &mut ctx, 1, &[Some(Bit::Zero); 4]);
        feed_reports(&mut p, &mut ctx, 1, 3, 0);
        assert_eq!((p.round(), p.waiting_phase()), (1, PHASE_REPORT));
        assert_eq!(ctx.decided, None);
        ctx.sent.clear();
        // The fourth report: phase 1 proposes, and phase 2 finds its quorum
        // already in and decides — one call.
        p.on_message(
            ProcessorId::new(6),
            &Payload::Report {
                round: 1,
                value: Bit::Zero,
            },
            &mut ctx,
        );
        assert_eq!(ctx.decided, Some(Bit::Zero));
        assert_eq!((p.round(), p.waiting_phase()), (2, PHASE_REPORT));
        let sent: Vec<&Payload> = ctx.sent_to(1);
        assert!(matches!(
            sent[..],
            [
                Payload::Proposal {
                    round: 1,
                    value: Some(Bit::Zero)
                },
                Payload::Report {
                    round: 2,
                    value: Bit::Zero
                }
            ]
        ));
    }

    #[test]
    fn a_vote_that_cannot_fill_the_awaited_key_leaves_the_processor_at_rest() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        // The awaited key, round-1 reports, one short of the quorum of 4.
        feed_reports(&mut p, &mut ctx, 1, 0, 3);
        ctx.sent.clear();
        let report = |round| Payload::Report {
            round,
            value: Bit::One,
        };
        let votes = [
            // A duplicate of an awaited-key vote.
            (0, report(1)),
            // Votes for other keys: this round's proposals, the next
            // round's reports.
            (
                4,
                Payload::Proposal {
                    round: 1,
                    value: Some(Bit::One),
                },
            ),
            (5, report(2)),
        ];
        for (from, payload) in &votes {
            p.on_message(ProcessorId::new(*from), payload, &mut ctx);
            assert_eq!((p.round(), p.waiting_phase()), (1, PHASE_REPORT));
            assert!(ctx.sent.is_empty(), "{payload:?} moved the processor");
        }
        // A fresh awaited-key vote does fill it.
        p.on_message(ProcessorId::new(6), &report(1), &mut ctx);
        assert_eq!((p.round(), p.waiting_phase()), (1, PHASE_PROPOSAL));
    }

    #[test]
    fn reset_restarts_from_round_one() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        feed_reports(&mut p, &mut ctx, 1, 0, 4);
        assert_eq!(p.waiting_phase(), 2);
        p.on_reset(&mut ctx);
        assert_eq!(p.round(), 1);
        assert_eq!(p.waiting_phase(), 1);
        assert_eq!(p.estimate(), Bit::One);
        assert_eq!(p.digest().reset_count, 1);
    }

    #[test]
    fn builder_reports_name_and_builds_round_one_state() {
        let cfg = SystemConfig::new(5, 2).unwrap();
        let b = BenOrBuilder::new();
        assert_eq!(b.name(), "ben-or");
        let p = b.build(ProcessorId::new(3), Bit::Zero, &cfg);
        let d = p.digest();
        assert_eq!(d.round, Some(1));
        assert_eq!(d.estimate, Some(Bit::Zero));
        assert_eq!(d.phase, "report");
    }
}
