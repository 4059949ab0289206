//! The paper's Section 3 protocol: randomized agreement tolerating resetting
//! failures organized into acceptable windows (the *reset-tolerant* variant of
//! Ben-Or's and Bracha's protocols).
//!
//! Each processor `p` keeps a round number `r_p` and an estimate `x_p`
//! (initially its input) and repeats:
//!
//! * **step 1** — send `(r_p, x_p)` to all processors;
//! * **step 2** — wait until `T1` messages `(r_q, x_q)` with `r_q = r_p` have
//!   arrived;
//! * **step 3** — if at least `T2` of them carry the same value `v`, write `v`
//!   to the output bit (if unwritten); if at least `T3` carry the same `v`,
//!   set `x_p = v`; otherwise set `x_p` to a fresh random bit;
//! * **step 4** — increment `r_p` and return to step 1.
//!
//! **Handling resets.** A processor that detects it has been reset waits until
//! it has received at least `T1` messages `(r_q, x_q)` sharing a common round
//! `r`, adopts `r_p = r`, and resumes from step 3 (it refrains from sending
//! until then).
//!
//! Theorem 4: with `t < n/6` and thresholds satisfying
//! `n - 2t >= T1 >= T2 >= T3 + t` and `2*T3 > n`, this protocol achieves
//! measure one correctness and termination against every strongly adaptive
//! adversary — at the cost of expected exponential running time for
//! adversarially split inputs, which Theorem 5 shows is unavoidable.
//!
//! Its state is exactly the memory a reset erases: the mode, the round, the
//! estimate and the tally. The input bit, the output bit and the reset
//! counter survive a reset because they are not here: the harness keeps them,
//! and the protocol reaches the output bit through [`Context::decide`].

use agreement_model::{
    Bit, ConfigError, Context, Payload, ProcessorId, Protocol, ProtocolBuilder, StateDigest,
    SystemConfig, Thresholds,
};

use crate::tally::{RoundTally, VoteCounts};

/// Which part of the protocol the processor is currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Normal operation in the round carried by `round`.
    Normal,
    /// Resynchronizing after a reset: waiting for `T1` same-round messages.
    Resync,
}

/// The reset-tolerant agreement protocol of Section 3 (single processor state).
#[derive(Debug)]
pub struct ResetTolerant {
    thresholds: Thresholds,
    n: usize,
    mode: Mode,
    round: u64,
    estimate: Bit,
    tally: RoundTally,
    last_processed_round: u64,
}

impl ResetTolerant {
    /// Creates the protocol state for a processor with the given input.
    pub fn new(input: Bit, thresholds: Thresholds, cfg: &SystemConfig) -> Self {
        let n = cfg.n();
        ResetTolerant::with_tally(input, thresholds, n, RoundTally::for_processors(n))
    }

    /// The state [`ResetTolerant::new`] builds, counting votes in `tally`
    /// (sized for `n`, emptied here): the only place the starting state is
    /// written.
    fn with_tally(input: Bit, thresholds: Thresholds, n: usize, mut tally: RoundTally) -> Self {
        tally.clear();
        ResetTolerant {
            thresholds,
            n,
            mode: Mode::Normal,
            round: 1,
            estimate: input,
            tally,
            last_processed_round: 0,
        }
    }

    /// The thresholds this instance runs with.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    fn send_round_message(&self, ctx: &mut dyn Context) {
        ctx.broadcast(Payload::Report {
            round: self.round,
            value: self.estimate,
        });
    }

    /// Executes step 3 for round `r`, whose recorded votes are `votes`,
    /// then step 4.
    fn step_three_and_four(&mut self, r: u64, votes: VoteCounts, ctx: &mut dyn Context) {
        if let Some(v) = votes.value_with_at_least(self.thresholds.t2()) {
            ctx.decide(v);
        }
        if let Some(v) = votes.value_with_at_least(self.thresholds.t3()) {
            self.estimate = v;
        } else {
            self.estimate = ctx.random_bit();
        }
        self.last_processed_round = r;
        // Step 4: advance and send the next round's message.
        self.round = r + 1;
        self.mode = Mode::Normal;
        self.tally.forget_rounds_before(self.round);
        self.send_round_message(ctx);
    }

    /// Drives the state machine as far as the received messages allow.
    fn try_progress(&mut self, ctx: &mut dyn Context) {
        loop {
            let t1 = self.thresholds.t1();
            let r = match self.mode {
                Mode::Normal if self.round > self.last_processed_round => self.round,
                Mode::Normal => break,
                Mode::Resync => match self.tally.lowest_round_with_at_least(0, t1) {
                    Some(r) => {
                        self.round = r;
                        r
                    }
                    None => break,
                },
            };
            let votes = self.tally.counts(r, 0);
            if votes.total() < t1 {
                break;
            }
            self.step_three_and_four(r, votes, ctx);
        }
    }
}

impl Protocol for ResetTolerant {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.send_round_message(ctx);
    }

    fn on_message(&mut self, from: ProcessorId, payload: &Payload, ctx: &mut dyn Context) {
        if let Payload::Report { round, value } = payload {
            // Messages for rounds the processor has already finished are stale.
            if self.mode == Mode::Normal && *round < self.round {
                return;
            }
            let counted = self.tally.record(*round, 0, from, Some(*value));
            if self.mode == Mode::Normal {
                // At rest the current round is below T1 — `try_progress`
                // loops until it is — and in normal mode no other round is
                // looked at: only a counted vote that lifts the current round
                // to T1 can move the state machine, and its counts are the
                // ones step 3 reads.
                match counted {
                    Some(votes)
                        if *round == self.round && votes.total() >= self.thresholds.t1() =>
                    {
                        // Normal mode is only ever entered one round past
                        // the last processed one.
                        debug_assert!(self.round > self.last_processed_round);
                        self.step_three_and_four(*round, votes, ctx);
                    }
                    _ => return,
                }
            }
            self.try_progress(ctx);
        }
    }

    fn on_reset(&mut self, _ctx: &mut dyn Context) {
        // Memory is erased: the round number, estimate, and all recorded
        // messages are lost. All that is left is the resync the reset starts.
        self.mode = Mode::Resync;
        self.round = 0;
        self.last_processed_round = 0;
        self.tally.clear();
        // A reset processor refrains from sending until it resynchronizes, so
        // nothing is sent here.
    }

    fn digest(&self) -> StateDigest {
        StateDigest {
            round: match self.mode {
                Mode::Normal => Some(self.round),
                Mode::Resync => None,
            },
            estimate: match self.mode {
                Mode::Normal => Some(self.estimate),
                Mode::Resync => None,
            },
            phase: match self.mode {
                Mode::Normal => "normal",
                Mode::Resync => "resync",
            },
        }
    }
}

/// Builder for [`ResetTolerant`] instances.
///
/// # Examples
///
/// ```
/// use agreement_model::{ProtocolBuilder, SystemConfig};
/// use agreement_protocols::ResetTolerantBuilder;
///
/// let cfg = SystemConfig::with_sixth_resilience(13)?;
/// let builder = ResetTolerantBuilder::recommended(&cfg)?;
/// assert_eq!(builder.name(), "reset-tolerant");
/// # Ok::<(), agreement_model::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ResetTolerantBuilder {
    thresholds: Thresholds,
}

impl ResetTolerantBuilder {
    /// Uses the explicitly given thresholds (they are *not* validated, so that
    /// experiments can deliberately explore invalid settings; see experiment
    /// E8).
    pub fn with_thresholds(thresholds: Thresholds) -> Self {
        ResetTolerantBuilder { thresholds }
    }

    /// Uses the Theorem 4 recommended thresholds for `cfg`.
    ///
    /// # Errors
    ///
    /// Returns an error if `cfg` violates `t < n/6`, in which case no valid
    /// thresholds exist.
    pub fn recommended(cfg: &SystemConfig) -> Result<Self, ConfigError> {
        Ok(ResetTolerantBuilder {
            thresholds: Thresholds::recommended(cfg)?,
        })
    }

    /// The thresholds instances built by this builder will use.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }
}

impl ProtocolBuilder for ResetTolerantBuilder {
    fn name(&self) -> &'static str {
        "reset-tolerant"
    }

    fn build(&self, _id: ProcessorId, input: Bit, cfg: &SystemConfig) -> Box<dyn Protocol> {
        Box::new(ResetTolerant::new(input, self.thresholds, cfg))
    }

    fn rebuild(
        &self,
        slot: &mut Box<dyn Protocol>,
        id: ProcessorId,
        input: Bit,
        cfg: &SystemConfig,
    ) {
        match slot.downcast_mut::<ResetTolerant>() {
            Some(ours) if (ours.thresholds, ours.n) == (self.thresholds, cfg.n()) => {
                let tally = std::mem::take(&mut ours.tally);
                *ours = ResetTolerant::with_tally(input, self.thresholds, ours.n, tally);
            }
            _ => *slot = self.build(id, input, cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx::TestCtx;
    use agreement_model::SystemConfig;

    /// n = 13, t = 2 gives the recommended thresholds T1 = T2 = 9, T3 = 7.
    fn setup(input: Bit) -> (ResetTolerant, TestCtx) {
        let cfg = SystemConfig::with_sixth_resilience(13).unwrap();
        let thresholds = Thresholds::recommended(&cfg).unwrap();
        assert_eq!(
            (thresholds.t1(), thresholds.t2(), thresholds.t3()),
            (9, 9, 7)
        );
        (
            ResetTolerant::new(input, thresholds, &cfg),
            TestCtx::with_config(ProcessorId::new(0), input, cfg),
        )
    }

    /// The round, as the digest reports it: `None` while resynchronizing.
    fn round(p: &ResetTolerant) -> Option<u64> {
        p.digest().round
    }

    /// The rounds of the payloads sent to processor 1.
    fn broadcast_rounds(ctx: &TestCtx) -> Vec<u64> {
        ctx.sent_to(1)
            .into_iter()
            .filter_map(Payload::round)
            .collect()
    }

    fn feed_reports(
        protocol: &mut ResetTolerant,
        ctx: &mut TestCtx,
        round: u64,
        zeros: usize,
        ones: usize,
    ) {
        let mut sender = 1;
        for _ in 0..zeros {
            protocol.on_message(
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
            protocol.on_message(
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

    #[test]
    fn start_sends_round_one_estimate_to_everyone() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        assert_eq!(ctx.sent.len(), 13);
        assert!(ctx.sent.iter().all(|(_, payload)| matches!(
            payload,
            Payload::Report {
                round: 1,
                value: Bit::One
            }
        )));
        assert_eq!(round(&p), Some(1));
    }

    #[test]
    fn strong_majority_decides_and_advances() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        ctx.sent.clear();
        // 9 matching One reports: reaches T1 = 9 and T2 = 9 simultaneously.
        feed_reports(&mut p, &mut ctx, 1, 0, 9);
        assert_eq!(ctx.decided, Some(Bit::One));
        assert_eq!(p.digest().estimate, Some(Bit::One));
        assert_eq!(round(&p), Some(2));
        // Step 4 sent the round-2 message.
        assert_eq!(broadcast_rounds(&ctx), vec![2]);
    }

    #[test]
    fn t3_majority_fixes_estimate_without_deciding() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        // 7 zeros (meets T3 = 7) and 2 ones: total 9 = T1, but no value reaches T2 = 9.
        feed_reports(&mut p, &mut ctx, 1, 7, 2);
        assert_eq!(ctx.decided, None);
        assert_eq!(p.digest().estimate, Some(Bit::Zero));
        assert_eq!(round(&p), Some(2));
    }

    #[test]
    fn split_view_samples_a_random_bit() {
        let (mut p, mut ctx) = setup(Bit::One);
        ctx.coins.push_back(Bit::One);
        p.on_start(&mut ctx);
        // 5 zeros, 4 ones: total 9 = T1 but neither value reaches T3 = 7.
        feed_reports(&mut p, &mut ctx, 1, 5, 4);
        assert_eq!(ctx.decided, None);
        assert_eq!(
            p.digest().estimate,
            Some(Bit::One),
            "estimate must come from the scripted random bit"
        );
        assert_eq!(round(&p), Some(2));
    }

    #[test]
    fn messages_below_t1_do_not_advance_the_round() {
        let (mut p, mut ctx) = setup(Bit::Zero);
        p.on_start(&mut ctx);
        feed_reports(&mut p, &mut ctx, 1, 4, 4); // 8 < T1 = 9
        assert_eq!(round(&p), Some(1));
        assert_eq!(ctx.decided, None);
    }

    #[test]
    fn future_round_messages_are_buffered_and_used_after_advancing() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        // Deliver round-2 messages first; they must not be lost.
        feed_reports(&mut p, &mut ctx, 2, 0, 9);
        assert_eq!(
            round(&p),
            Some(1),
            "round-2 messages alone cannot advance round 1"
        );
        // Now complete round 1 with a split view; the buffered round-2
        // messages then immediately advance the protocol to round 3.
        feed_reports(&mut p, &mut ctx, 1, 5, 4);
        assert_eq!(round(&p), Some(3));
        assert_eq!(
            ctx.decided,
            Some(Bit::One),
            "round 2 had a T2 majority of ones"
        );
    }

    #[test]
    fn stale_round_messages_are_ignored() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        feed_reports(&mut p, &mut ctx, 1, 0, 9);
        assert_eq!(round(&p), Some(2));
        // A late round-1 message must not be recorded for the current round.
        p.on_message(
            ProcessorId::new(12),
            &Payload::Report {
                round: 1,
                value: Bit::Zero,
            },
            &mut ctx,
        );
        assert_eq!(round(&p), Some(2));
    }

    #[test]
    fn reset_enters_resync_and_refrains_from_sending() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        feed_reports(&mut p, &mut ctx, 1, 0, 9);
        ctx.sent.clear();
        p.on_reset(&mut ctx);
        assert!(ctx.sent.is_empty(), "a reset processor must not send");
        let digest = p.digest();
        assert_eq!(digest.round, None);
        assert_eq!(digest.estimate, None);
        assert_eq!(digest.phase, "resync");
    }

    #[test]
    fn reset_processor_rejoins_at_the_observed_round() {
        let (mut p, mut ctx) = setup(Bit::One);
        p.on_start(&mut ctx);
        p.on_reset(&mut ctx);
        ctx.sent.clear();
        // The other processors are in round 5; T1 of their reports resynchronize us.
        feed_reports(&mut p, &mut ctx, 5, 0, 9);
        assert_eq!(p.digest().phase, "normal");
        assert_eq!(round(&p), Some(6), "step 4 advances past the adopted round");
        assert_eq!(p.digest().estimate, Some(Bit::One));
        assert_eq!(ctx.decided, Some(Bit::One));
        assert_eq!(broadcast_rounds(&ctx), vec![6]);
    }

    #[test]
    fn unwritten_output_not_decided_on_weak_majority_after_resync() {
        let (mut p, mut ctx) = setup(Bit::Zero);
        p.on_start(&mut ctx);
        p.on_reset(&mut ctx);
        // Exactly T1 = 9 reports, 7 zeros and 2 ones: T3 reached, T2 not.
        feed_reports(&mut p, &mut ctx, 3, 7, 2);
        assert_eq!(ctx.decided, None);
        assert_eq!(p.digest().estimate, Some(Bit::Zero));
        assert_eq!(round(&p), Some(4));
    }

    #[test]
    fn builder_produces_named_protocol_with_recommended_thresholds() {
        let cfg = SystemConfig::with_sixth_resilience(19).unwrap();
        let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
        assert_eq!(builder.name(), "reset-tolerant");
        assert!(builder.thresholds().is_valid_for(&cfg));
        let protocol = builder.build(ProcessorId::new(0), Bit::Zero, &cfg);
        assert_eq!(protocol.digest().round, Some(1));
    }

    #[test]
    fn builder_rejects_configs_beyond_sixth_resilience() {
        let cfg = SystemConfig::new(12, 2).unwrap();
        assert!(ResetTolerantBuilder::recommended(&cfg).is_err());
    }

    #[test]
    fn explicit_thresholds_are_used_verbatim() {
        let builder = ResetTolerantBuilder::with_thresholds(Thresholds::new(5, 4, 4));
        assert_eq!(builder.thresholds().t1(), 5);
        let cfg = SystemConfig::new(7, 1).unwrap();
        let p = builder.build(ProcessorId::new(2), Bit::One, &cfg);
        assert_eq!(p.digest().estimate, Some(Bit::One));
    }
}
