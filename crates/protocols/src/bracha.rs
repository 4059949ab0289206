//! Bracha's randomized asynchronous agreement protocol (PODC 1984), built on
//! reliable broadcast, tolerating `t < n/3` Byzantine failures.
//!
//! Every message of the protocol is disseminated with [`ReliableBroadcaster`],
//! which prevents a Byzantine origin from showing different values to
//! different correct processors. Each round `r` has three phases; a processor
//! waits, in each phase, until it has *accepted* `n - t` reliably broadcast
//! round-`r` phase votes:
//!
//! * **Phase 1** — broadcast the current estimate; set the estimate to the
//!   majority of the accepted phase-1 votes.
//! * **Phase 2** — broadcast the new estimate; if more than `n/2` of the
//!   accepted phase-2 votes agree on `v`, adopt `v` and advertise it in
//!   phase 3, otherwise advertise "no majority".
//! * **Phase 3** — broadcast the advertisement; if at least `2t + 1` accepted
//!   phase-3 votes advertise the same `v`, decide `v`; if at least `t + 1` do,
//!   adopt `v`; otherwise set the estimate to a fresh random bit.
//!
//! As the paper recounts, this protocol achieves measure one correctness and
//! termination with optimal resilience, but (like Ben-Or's) its expected
//! running time is exponential when the adversary keeps the views balanced.
//!
//! **Scope of this implementation.** Bracha's full protocol additionally
//! *validates* each received value against what its sender could legitimately
//! have computed, which is what rules out indefinite stalling by Byzantine
//! processors. This implementation omits the validation step for simplicity:
//! it preserves agreement and validity under Byzantine equivocation (the
//! reliable-broadcast layer already prevents conflicting acceptances) and
//! terminates with probability one under crash failures, but a worst-case
//! Byzantine scheduler can delay its termination indefinitely. The
//! experiments in this workspace only rely on the preserved properties.
//!
//! Its state is exactly its erasable memory: the round, the phase, the
//! estimate, the reliable-broadcast instances and the tally of accepted
//! votes. The input bit comes from [`Context::input`], the decision goes to
//! the output register through [`Context::decide`], and the harness counts
//! the resets.

use agreement_model::{
    Bit, Context, Payload, ProcessorId, Protocol, ProtocolBuilder, StateDigest, SystemConfig,
};

use crate::reliable_broadcast::{AcceptedBroadcast, ReliableBroadcaster};
use crate::tally::{RoundTally, VoteCounts};

/// Bracha's agreement protocol: single-processor state machine.
#[derive(Debug)]
pub struct Bracha {
    n: usize,
    t: usize,
    round: u64,
    phase: u8,
    estimate: Bit,
    rbc: ReliableBroadcaster,
    votes: RoundTally,
}

impl Bracha {
    /// Creates the protocol state for a processor with the given input.
    ///
    /// # Panics
    ///
    /// Panics unless `3 * t < n` (required by reliable broadcast).
    pub fn new(input: Bit, cfg: &SystemConfig) -> Self {
        Bracha::with_votes(input, cfg.n(), cfg.t(), RoundTally::for_processors(cfg.n()))
    }

    /// The state [`Bracha::new`] builds, counting accepted votes in `votes`
    /// (sized for `n`, emptied here): the only place the starting state is
    /// written.
    fn with_votes(input: Bit, n: usize, t: usize, mut votes: RoundTally) -> Self {
        votes.clear();
        Bracha {
            n,
            t,
            round: 1,
            phase: 1,
            estimate: input,
            rbc: ReliableBroadcaster::new(n, t),
            votes,
        }
    }

    fn quorum(&self) -> usize {
        self.n - self.t
    }

    pub(crate) fn broadcast_id(round: u64, phase: u8) -> u64 {
        round * 4 + u64::from(phase)
    }

    fn broadcast_vote(&mut self, value: Option<Bit>, ctx: &mut dyn Context) {
        let vote = Payload::BrachaVote {
            round: self.round,
            phase: self.phase,
            value,
        };
        self.rbc
            .broadcast(Self::broadcast_id(self.round, self.phase), vote, ctx);
    }

    /// Runs the phases whose quorum is in, starting from `votes`, the counts
    /// of the key the processor waits on — `(round, phase)` — which hold a
    /// quorum. Each later key's counts are read once, when the processor
    /// moves on to it; it stops at the first without a quorum.
    fn try_progress(&mut self, mut votes: VoteCounts, ctx: &mut dyn Context) {
        loop {
            match self.phase {
                1 => {
                    if let Some(v) = votes.majority_value() {
                        self.estimate = v;
                    }
                    self.phase = 2;
                    self.broadcast_vote(Some(self.estimate), ctx);
                }
                2 => {
                    let advertised = Bit::ALL.into_iter().find(|&v| 2 * votes.count(v) > self.n);
                    if let Some(v) = advertised {
                        self.estimate = v;
                    }
                    self.phase = 3;
                    self.broadcast_vote(advertised, ctx);
                }
                3 => {
                    let decide_value = Bit::ALL.into_iter().find(|&v| votes.count(v) > 2 * self.t);
                    let adopt_value = Bit::ALL.into_iter().find(|&v| votes.count(v) > self.t);
                    if let Some(v) = decide_value {
                        ctx.decide(v);
                        self.estimate = v;
                    } else if let Some(v) = adopt_value {
                        self.estimate = v;
                    } else {
                        self.estimate = ctx.random_bit();
                    }
                    self.round += 1;
                    self.phase = 1;
                    self.votes.forget_rounds_before(self.round);
                    self.broadcast_vote(Some(self.estimate), ctx);
                }
                _ => unreachable!("Bracha only has phases 1..=3"),
            }
            votes = self.votes.counts(self.round, self.phase);
            if votes.total() < self.quorum() {
                break;
            }
        }
    }
}

impl Protocol for Bracha {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.broadcast_vote(Some(self.estimate), ctx);
    }

    fn on_message(&mut self, from: ProcessorId, payload: &Payload, ctx: &mut dyn Context) {
        let Some(AcceptedBroadcast {
            origin,
            payload:
                Payload::BrachaVote {
                    round,
                    phase,
                    value,
                },
            ..
        }) = self.rbc.on_message(from, payload, ctx)
        else {
            return;
        };
        if round < self.round {
            return;
        }
        // At rest the key the processor waits on holds less than a quorum —
        // `try_progress` runs until it does — so only a counted vote that
        // lifts it to the quorum can move the state machine.
        match self.votes.record(round, phase, origin, value) {
            Some(votes)
                if (round, phase) == (self.round, self.phase) && votes.total() >= self.quorum() =>
            {
                self.try_progress(votes, ctx);
            }
            _ => {}
        }
    }

    fn on_reset(&mut self, ctx: &mut dyn Context) {
        // Bracha's protocol was not designed for resetting failures; restart
        // from scratch. It is only run under crash/Byzantine adversaries here.
        let votes = std::mem::take(&mut self.votes);
        *self = Bracha::with_votes(ctx.input(), self.n, self.t, votes);
    }

    fn digest(&self) -> StateDigest {
        StateDigest {
            round: Some(self.round),
            estimate: Some(self.estimate),
            phase: match self.phase {
                1 => "phase1",
                2 => "phase2",
                _ => "phase3",
            },
        }
    }
}

/// Builder for [`Bracha`] instances.
///
/// # Examples
///
/// ```
/// use agreement_model::{ProtocolBuilder, SystemConfig};
/// use agreement_protocols::BrachaBuilder;
///
/// let cfg = SystemConfig::with_third_resilience(10)?;
/// assert_eq!(BrachaBuilder::new().name(), "bracha");
/// # Ok::<(), agreement_model::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BrachaBuilder;

impl BrachaBuilder {
    /// Creates the builder.
    pub fn new() -> Self {
        BrachaBuilder
    }
}

impl ProtocolBuilder for BrachaBuilder {
    fn name(&self) -> &'static str {
        "bracha"
    }

    fn build(&self, _id: ProcessorId, input: Bit, cfg: &SystemConfig) -> Box<dyn Protocol> {
        Box::new(Bracha::new(input, cfg))
    }

    fn rebuild(
        &self,
        slot: &mut Box<dyn Protocol>,
        id: ProcessorId,
        input: Bit,
        cfg: &SystemConfig,
    ) {
        match slot.downcast_mut::<Bracha>() {
            Some(ours) if (ours.n, ours.t) == (cfg.n(), cfg.t()) => {
                *ours = Bracha::with_votes(input, ours.n, ours.t, std::mem::take(&mut ours.votes));
            }
            _ => *slot = self.build(id, input, cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx::TestCtx;
    use agreement_model::RbcStep;
    use std::collections::VecDeque;

    /// Shortcut: deliver `count` already-accepted-equivalent votes by sending
    /// `2t + 1` Ready messages per origin directly.
    fn accept_vote(
        p: &mut Bracha,
        ctx: &mut TestCtx,
        origin: usize,
        round: u64,
        phase: u8,
        value: Option<Bit>,
    ) {
        let inner = Payload::BrachaVote {
            round,
            phase,
            value,
        };
        let accept_threshold = 2 * ctx.cfg.t() + 1;
        for sender in 0..accept_threshold {
            let msg = Payload::Rbc {
                step: RbcStep::Ready,
                origin: ProcessorId::new(origin),
                broadcast_id: Bracha::broadcast_id(round, phase),
                inner: Box::new(inner.clone()),
            };
            p.on_message(ProcessorId::new(sender), &msg, ctx);
        }
    }

    /// n = 4, t = 1: quorum 3, accept threshold 3, decide threshold 3.
    fn setup(input: Bit) -> (Bracha, TestCtx) {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let ctx = TestCtx::with_config(ProcessorId::new(0), input, cfg);
        (Bracha::new(input, &cfg), ctx)
    }

    /// The round and the awaited phase, as the digest reports them.
    fn at(p: &Bracha) -> (Option<u64>, &'static str) {
        let digest = p.digest();
        (digest.round, digest.phase)
    }

    #[test]
    fn start_reliably_broadcasts_phase_one_vote() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        assert_eq!(ctx.sent_to(0).len(), 1);
        match ctx.sent_to(0)[0] {
            Payload::Rbc {
                step: RbcStep::Init,
                origin,
                inner,
                ..
            } => {
                assert_eq!(*origin, ProcessorId::new(0));
                assert!(matches!(
                    **inner,
                    Payload::BrachaVote {
                        round: 1,
                        phase: 1,
                        value: Some(Bit::One)
                    }
                ));
            }
            other => panic!("expected an RBC init, got {other:?}"),
        }
    }

    #[test]
    fn accepted_phase_one_quorum_moves_to_phase_two_with_majority_estimate() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        for origin in 1..=3 {
            accept_vote(&mut p, &mut ctx, origin, 1, 1, Some(Bit::Zero));
        }
        assert_eq!(at(&p), (Some(1), "phase2"));
        assert_eq!(p.digest().estimate, Some(Bit::Zero));
    }

    #[test]
    fn phase_three_supermajority_decides() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        for origin in 1..=3 {
            accept_vote(&mut p, &mut ctx, origin, 1, 1, Some(Bit::One));
        }
        for origin in 1..=3 {
            accept_vote(&mut p, &mut ctx, origin, 1, 2, Some(Bit::One));
        }
        for origin in 1..=3 {
            accept_vote(&mut p, &mut ctx, origin, 1, 3, Some(Bit::One));
        }
        assert_eq!(ctx.decided, Some(Bit::One));
        assert_eq!(
            at(&p),
            (Some(2), "phase1"),
            "the protocol keeps going after deciding"
        );
    }

    #[test]
    fn phase_three_weak_support_adopts_without_deciding() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        for origin in 1..=3 {
            accept_vote(&mut p, &mut ctx, origin, 1, 1, Some(Bit::One));
        }
        for origin in 1..=3 {
            accept_vote(&mut p, &mut ctx, origin, 1, 2, Some(Bit::One));
        }
        // Two "Zero" advertisements and one abstention: only t + 1 = 2 support Zero.
        accept_vote(&mut p, &mut ctx, 1, 1, 3, Some(Bit::Zero));
        accept_vote(&mut p, &mut ctx, 2, 1, 3, Some(Bit::Zero));
        accept_vote(&mut p, &mut ctx, 3, 1, 3, None);
        assert_eq!(ctx.decided, None);
        assert_eq!(p.digest().estimate, Some(Bit::Zero));
        assert_eq!(at(&p), (Some(2), "phase1"));
    }

    #[test]
    fn stale_round_votes_are_ignored() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        // Finish round 1 entirely (deciding One).
        for phase in 1..=3 {
            for origin in 1..=3 {
                accept_vote(&mut p, &mut ctx, origin, 1, phase, Some(Bit::One));
            }
        }
        assert_eq!(at(&p), (Some(2), "phase1"));
        // A late round-1 vote does not disturb round 2.
        accept_vote(&mut p, &mut ctx, 1, 1, 1, Some(Bit::Zero));
        assert_eq!(at(&p), (Some(2), "phase1"));
        assert_eq!(p.digest().estimate, Some(Bit::One));
    }

    #[test]
    fn reset_restarts_protocol_state() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        for origin in 1..=3 {
            accept_vote(&mut p, &mut ctx, origin, 1, 1, Some(Bit::Zero));
        }
        assert_eq!(at(&p), (Some(1), "phase2"));
        assert_eq!(p.digest().estimate, Some(Bit::Zero));
        p.on_reset(&mut ctx);
        assert_eq!(at(&p), (Some(1), "phase1"));
        assert_eq!(p.digest().estimate, Some(Bit::One));
    }

    #[test]
    fn a_long_full_delivery_run_holds_voters_only_for_unsettled_instances() {
        let n = 4;
        let cfg = SystemConfig::new(n, 1).unwrap();
        let input = |i: usize| if i < 2 { Bit::Zero } else { Bit::One };
        let mut procs: Vec<Bracha> = (0..n).map(|i| Bracha::new(input(i), &cfg)).collect();
        let mut ctxs: Vec<TestCtx> = (0..n)
            .map(|i| TestCtx::with_config(ProcessorId::new(i), input(i), cfg))
            .collect();
        // Every send, delivered in the order it was made.
        let mut in_flight = VecDeque::new();
        let post = |in_flight: &mut VecDeque<_>, from, ctx: &mut TestCtx| {
            in_flight.extend(ctx.sent.drain(..).map(|(to, m)| (from, to.index(), m)));
        };
        for (i, (p, ctx)) in procs.iter_mut().zip(&mut ctxs).enumerate() {
            p.on_start(ctx);
            post(&mut in_flight, i, ctx);
        }
        let mut checked_round = 0;
        while procs[0].round < 60 {
            let (from, to, message) = in_flight.pop_front().expect("Bracha never halts");
            procs[to].on_message(ProcessorId::new(from), &message, &mut ctxs[to]);
            post(&mut in_flight, to, &mut ctxs[to]);
            if procs[0].round == checked_round {
                continue;
            }
            checked_round = procs[0].round;
            for p in &procs {
                // An unsettled instance holds at most n echoes and n readies
                // of correct voters; a settled one holds none.
                let (held, unsettled) = p.rbc.held_voters();
                assert!(
                    held <= 2 * n * unsettled,
                    "round {checked_round}: {held} voters"
                );
                assert!(
                    unsettled <= 6 * n,
                    "round {checked_round}: {unsettled} unsettled"
                );
            }
        }
        assert!(
            procs[0].rbc.instance_count() > 100,
            "the run settled many instances"
        );
    }

    #[test]
    fn builder_reports_name() {
        let cfg = SystemConfig::with_third_resilience(7).unwrap();
        let b = BrachaBuilder::new();
        assert_eq!(b.name(), "bracha");
        let p = b.build(ProcessorId::new(1), Bit::Zero, &cfg);
        assert_eq!(p.digest().phase, "phase1");
    }
}
