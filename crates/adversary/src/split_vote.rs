//! The split-vote (balancing) adversary: the concrete strategy behind the
//! paper's observation that the Section 3 protocol runs for exponential time
//! on adversarially split inputs.
//!
//! At the end of Section 3 the paper argues: *"with high probability per
//! round, the adversary can continually extend the execution to last one more
//! round without deciding by showing every processor an approximate split
//! between 0 and 1 messages, and then having all of them set their next bits
//! randomly"*. This adversary implements exactly that strategy:
//!
//! * it reads the fresh round messages in the buffer (full information),
//! * excludes up to `t` senders from the majority side so every processor sees
//!   the most balanced view the window constraints allow, and
//! * optionally also resets up to `t` processors holding the majority estimate
//!   so that the next window's sending pool is itself more balanced.
//!
//! Decisions therefore require a spontaneous `T2`-sized majority of the
//! processors' *random* re-sampled bits, which happens with probability
//! exponentially small in `n` — the execution stretches over exponentially
//! many windows in expectation.

use agreement_model::{Bit, Payload, ProcessorId};
use agreement_sim::{SystemView, Window, WindowAdversary};

use crate::delivery::balanced_senders_by;

/// The split-vote balancing adversary for the acceptable-window model.
#[derive(Debug, Clone, Copy)]
pub struct SplitVoteAdversary {
    use_resets: bool,
}

impl SplitVoteAdversary {
    /// Balancing by delivery exclusion only (no resets).
    pub fn new() -> Self {
        SplitVoteAdversary { use_resets: false }
    }

    /// Balancing by delivery exclusion *and* by resetting up to `t` processors
    /// that currently hold the majority estimate.
    pub fn with_resets() -> Self {
        SplitVoteAdversary { use_resets: true }
    }

    /// Whether the adversary also spends its reset budget on balancing.
    pub fn uses_resets(&self) -> bool {
        self.use_resets
    }

    /// The value advocated by `sender`'s fresh message this window, if any.
    fn fresh_value(view: &SystemView<'_>, sender: usize) -> Option<Bit> {
        let probe = ProcessorId::new(0);
        view.buffer
            .peek(ProcessorId::new(sender), probe)
            .and_then(Payload::advocated_value)
    }
}

impl Default for SplitVoteAdversary {
    fn default() -> Self {
        SplitVoteAdversary::new()
    }
}

impl WindowAdversary for SplitVoteAdversary {
    fn name(&self) -> &'static str {
        if self.use_resets {
            "split-vote+resets"
        } else {
            "split-vote"
        }
    }

    fn next_window(&mut self, view: &SystemView<'_>) -> Window {
        let t = view.t();
        let mut window = view.take_window();
        if self.use_resets && t > 0 {
            // Reset processors whose *current estimate* belongs to the majority
            // side, to thin out that side's votes in the next window.
            let zeros = view.estimate_count(Bit::Zero);
            let ones = view.estimate_count(Bit::One);
            if zeros != ones {
                let majority = if zeros > ones { Bit::Zero } else { Bit::One };
                view.live()
                    .filter(|&i| view.digest(i).estimate == Some(majority))
                    .map(ProcessorId::new)
                    .take(t.min(zeros.abs_diff(ones)))
                    .for_each(|id| window.push_reset(id));
            }
        }
        balanced_senders_by(
            view.n(),
            t,
            |sender| Self::fresh_value(view, sender),
            |id| window.push_sender(id),
        );
        window.end_shared_set(view.n());
        window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreement_model::{InputAssignment, SystemConfig};
    use agreement_protocols::ResetTolerantBuilder;
    use agreement_sim::{
        run_windowed, ExecutionCore, FullDeliveryAdversary, RunLimits, WindowScheduler,
    };

    fn cfg13() -> SystemConfig {
        SystemConfig::with_sixth_resilience(13).unwrap()
    }

    #[test]
    fn split_inputs_are_not_decided_in_the_first_window() {
        let cfg = cfg13();
        let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
        let inputs = InputAssignment::evenly_split(13); // 7 zeros, 6 ones
        let mut core = ExecutionCore::new(cfg, inputs, &builder, 17);
        let mut adversary = SplitVoteAdversary::new();
        let mut scheduler = WindowScheduler::new(&mut adversary);
        scheduler.step_window(&mut core);
        let outcome = core.outcome_with(&scheduler);
        assert!(
            !outcome.any_decided(),
            "a balanced first window must not reach the T2 threshold"
        );
    }

    #[test]
    fn unanimous_inputs_defeat_the_balancer_immediately() {
        // With all inputs equal the imbalance is n, far beyond the exclusion
        // budget t, so the very first window decides (validity in action).
        let cfg = cfg13();
        let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
        let inputs = InputAssignment::unanimous(13, Bit::One);
        let outcome = run_windowed(
            cfg,
            inputs.clone(),
            &builder,
            &mut SplitVoteAdversary::new(),
            5,
            RunLimits::small(),
        );
        assert!(outcome.all_correct_decided());
        assert_eq!(outcome.decided_value(), Some(Bit::One));
        assert_eq!(outcome.first_decision_at, Some(1));
    }

    #[test]
    fn split_run_eventually_terminates_correctly() {
        let cfg = cfg13();
        let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
        let inputs = InputAssignment::evenly_split(13);
        let outcome = run_windowed(
            cfg,
            inputs.clone(),
            &builder,
            &mut SplitVoteAdversary::new(),
            23,
            RunLimits::windows(5_000),
        );
        assert!(outcome.all_correct_decided(), "measure-one termination");
        assert!(outcome.is_correct(&inputs), "measure-one correctness");
        assert!(
            outcome.first_decision_at.unwrap() > 1,
            "the balancer must have delayed the decision past the first window"
        );
    }

    #[test]
    fn balancer_is_slower_than_full_delivery_on_split_inputs() {
        let cfg = cfg13();
        let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
        let inputs = InputAssignment::evenly_split(13);
        let mut total_split = 0u64;
        let mut total_full = 0u64;
        for seed in 0..5 {
            let split = run_windowed(
                cfg,
                inputs.clone(),
                &builder,
                &mut SplitVoteAdversary::new(),
                seed,
                RunLimits::windows(5_000),
            );
            let full = run_windowed(
                cfg,
                inputs.clone(),
                &builder,
                &mut FullDeliveryAdversary,
                seed,
                RunLimits::windows(5_000),
            );
            total_split += split.all_decided_at.unwrap_or(5_000);
            total_full += full.all_decided_at.unwrap_or(5_000);
        }
        assert!(
            total_split >= total_full,
            "balancing must not make decisions come faster (split {total_split} vs full {total_full})"
        );
    }

    #[test]
    fn reset_variant_terminates_correctly_and_uses_resets() {
        let cfg = cfg13();
        let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
        let inputs = InputAssignment::evenly_split(13);
        let outcome = run_windowed(
            cfg,
            inputs.clone(),
            &builder,
            &mut SplitVoteAdversary::with_resets(),
            31,
            RunLimits::windows(20_000),
        );
        assert!(outcome.all_correct_decided());
        assert!(outcome.is_correct(&inputs));
        assert!(
            outcome.metrics.resets_consumed > 0,
            "the reset variant should spend resets"
        );
    }

    #[test]
    fn adversary_names_distinguish_variants() {
        assert_eq!(SplitVoteAdversary::new().name(), "split-vote");
        assert_eq!(
            SplitVoteAdversary::with_resets().name(),
            "split-vote+resets"
        );
        assert!(SplitVoteAdversary::with_resets().uses_resets());
        assert!(!SplitVoteAdversary::default().uses_resets());
    }
}
