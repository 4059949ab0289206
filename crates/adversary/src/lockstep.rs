//! The lockstep balancing adversary for the crash model (Section 5).
//!
//! Theorem 17 shows that *forgetful, fully communicative* algorithms (such as
//! Ben-Or's) need exponentially long message chains against an asynchronous
//! adversary causing at most `t` crash failures. The concrete scheduling
//! strategy behind the bound is the same balancing idea as in the strongly
//! adaptive case: in every protocol round, show each processor a subset of
//! `n - t` messages whose values are as balanced as possible, so that no
//! majority forms and every processor re-randomizes its estimate.
//!
//! [`LockstepBalancingAdversary`] implements that strategy against
//! [`agreement_protocols::BenOr`]: it drives the execution round by round
//! (a legal asynchronous schedule — it simply delays the excluded messages),
//! hiding up to `t` majority-side reports in phase 1 and up to `t` value
//! proposals in phase 2. It causes **zero** crash failures: scheduling alone
//! is enough, which matches the theorem's statement that the bound holds for
//! any adversary with a budget of `t >= 1` crash faults.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use agreement_model::{Bit, Payload, ProcessorId};
use agreement_sim::{AsyncAction, AsyncAdversary, ChannelCursor, SystemView};

/// The balancing (split-vote) scheduler for Ben-Or under the crash model.
#[derive(Debug, Clone, Default)]
pub struct LockstepBalancingAdversary {
    planned: VecDeque<AsyncAction>,
    fallback_cursor: ChannelCursor,
}

impl LockstepBalancingAdversary {
    /// Creates the adversary.
    pub fn new() -> Self {
        LockstepBalancingAdversary::default()
    }

    /// The lowest round any live processor is still working on.
    fn current_round(view: &SystemView<'_>) -> u64 {
        view.live()
            .filter_map(|i| view.digest(i).round)
            .min()
            .unwrap_or(1)
    }

    /// `true` if some live processor at `round` is still waiting for phase-1
    /// reports (Ben-Or's digest labels the waiting phase).
    fn in_report_stage(view: &SystemView<'_>, round: u64) -> bool {
        view.live()
            .map(|i| view.digest(i))
            .any(|d| d.round == Some(round) && d.phase == "report")
    }

    /// Fresh per-sender values for the current stage: `Some(Some(bit))` for a
    /// value-carrying message, `Some(None)` for a `?` proposal, `None` if the
    /// sender has no fresh stage message in the buffer yet.
    fn stage_values(
        view: &SystemView<'_>,
        round: u64,
        report_stage: bool,
    ) -> BTreeMap<ProcessorId, Option<Bit>> {
        let mut values = BTreeMap::new();
        for (from, _to, payload) in view.buffer.iter() {
            let entry = match payload {
                Payload::Report { round: r, value } if report_stage && *r == round => Some(*value),
                Payload::Proposal { round: r, value } if !report_stage && *r == round => *value,
                _ => continue,
            };
            values.entry(from).or_insert(entry);
        }
        values
    }

    /// Chooses up to `t` senders to exclude so the delivered values stay as
    /// balanced (report stage) or as proposal-free (proposal stage) as possible.
    fn excluded_senders(
        values: &BTreeMap<ProcessorId, Option<Bit>>,
        t: usize,
        report_stage: bool,
    ) -> Vec<ProcessorId> {
        let zeros: Vec<ProcessorId> = values
            .iter()
            .filter(|(_, v)| **v == Some(Bit::Zero))
            .map(|(s, _)| *s)
            .collect();
        let ones: Vec<ProcessorId> = values
            .iter()
            .filter(|(_, v)| **v == Some(Bit::One))
            .map(|(s, _)| *s)
            .collect();
        if report_stage {
            // Exclude from the majority side, up to the imbalance.
            let (majority, minority) = if zeros.len() >= ones.len() {
                (zeros, ones)
            } else {
                (ones, zeros)
            };
            let excess = majority.len() - minority.len();
            majority.into_iter().take(excess.min(t)).collect()
        } else {
            // Hide value proposals (both values, larger group first).
            let mut proposers = if zeros.len() >= ones.len() {
                [zeros, ones].concat()
            } else {
                [ones, zeros].concat()
            };
            proposers.truncate(t);
            proposers
        }
    }

    /// Plans a full stage: deliver, to every live recipient, every pending
    /// message from every non-excluded sender (draining backlogs of delayed
    /// stale messages along the way — Ben-Or ignores them).
    fn plan_stage(&mut self, view: &SystemView<'_>, excluded: &[ProcessorId]) {
        let n = view.n();
        for recipient in ProcessorId::all(n) {
            if view.is_crashed(recipient.index()) {
                continue;
            }
            for sender in ProcessorId::all(n) {
                if excluded.contains(&sender) {
                    continue;
                }
                for _ in 0..view.buffer.pending_on(sender, recipient) {
                    self.planned.push_back(AsyncAction::Deliver {
                        from: sender,
                        to: recipient,
                    });
                }
            }
        }
    }

    /// One fair delivery step, used when the lockstep structure is not
    /// detectable (e.g. mixed rounds right after a decision).
    fn fallback(&mut self, view: &SystemView<'_>) -> AsyncAction {
        match view.next_pending_channel(self.fallback_cursor) {
            Some((next_cursor, from, to)) => {
                self.fallback_cursor = next_cursor;
                AsyncAction::Deliver { from, to }
            }
            None => AsyncAction::Halt,
        }
    }
}

impl AsyncAdversary for LockstepBalancingAdversary {
    fn name(&self) -> &'static str {
        "lockstep-balancing"
    }

    fn next_action(&mut self, view: &SystemView<'_>) -> AsyncAction {
        if let Some(action) = self.planned.pop_front() {
            return action;
        }
        let live = view.live().count();
        let round = Self::current_round(view);
        let report_stage = Self::in_report_stage(view, round);
        let values = Self::stage_values(view, round, report_stage);
        // Only commit to a balanced stage plan once every live processor's
        // fresh stage message is available; otherwise make fair progress.
        if values.len() >= live {
            let excluded = Self::excluded_senders(&values, view.t(), report_stage);
            self.plan_stage(view, &excluded);
        }
        match self.planned.pop_front() {
            Some(action) => action,
            None => self.fallback(view),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreement_model::{InputAssignment, SystemConfig};
    use agreement_protocols::BenOrBuilder;
    use agreement_sim::{run_async, FairAsyncAdversary, RunLimits};

    #[test]
    fn unanimous_inputs_still_decide_quickly() {
        let cfg = SystemConfig::new(8, 2).unwrap();
        let inputs = InputAssignment::unanimous(8, Bit::One);
        let outcome = run_async(
            cfg,
            inputs.clone(),
            &BenOrBuilder::new(),
            &mut LockstepBalancingAdversary::new(),
            3,
            RunLimits::small(),
        );
        assert!(outcome.all_correct_decided());
        assert!(outcome.is_correct(&inputs));
        assert_eq!(outcome.metrics.crashes, 0, "scheduling alone is used");
    }

    #[test]
    fn split_inputs_are_delayed_but_eventually_decided_correctly() {
        let cfg = SystemConfig::new(8, 2).unwrap();
        let inputs = InputAssignment::evenly_split(8);
        let outcome = run_async(
            cfg,
            inputs.clone(),
            &BenOrBuilder::new(),
            &mut LockstepBalancingAdversary::new(),
            11,
            RunLimits::steps(2_000_000),
        );
        assert!(
            outcome.all_correct_decided(),
            "Ben-Or terminates with probability one"
        );
        assert!(outcome.is_correct(&inputs));
        assert!(
            outcome.longest_chain > 2,
            "the balancer must force more than one round of chains (got {})",
            outcome.longest_chain
        );
    }

    #[test]
    fn balancer_forces_longer_chains_than_fair_scheduling_on_split_inputs() {
        let cfg = SystemConfig::new(8, 2).unwrap();
        let inputs = InputAssignment::evenly_split(8);
        let mut balanced_total = 0u64;
        let mut fair_total = 0u64;
        for seed in 0..5u64 {
            let balanced = run_async(
                cfg,
                inputs.clone(),
                &BenOrBuilder::new(),
                &mut LockstepBalancingAdversary::new(),
                seed,
                RunLimits::steps(2_000_000),
            );
            let fair = run_async(
                cfg,
                inputs.clone(),
                &BenOrBuilder::new(),
                &mut FairAsyncAdversary::default(),
                seed,
                RunLimits::steps(2_000_000),
            );
            balanced_total += balanced.longest_chain;
            fair_total += fair.longest_chain;
        }
        assert!(
            balanced_total >= fair_total,
            "balancing must not shorten chains (balanced {balanced_total} vs fair {fair_total})"
        );
    }
}
