//! Crash-failure adversaries for the fully asynchronous model, including the
//! non-adaptive adversary used by the committee comparison (experiment E7) and
//! the adaptive "committee killer" the paper's introduction describes.

use agreement_model::{ProcessorId, ProcessorRng};
use agreement_sim::{AsyncAction, AsyncAdversary, ChannelCursor, SystemView};

/// Crashes an explicit set of processors at the start of the execution and
/// schedules (round-robin) fairly afterwards.
///
/// By default messages the victims sent *before* crashing may still be
/// delivered, as the crash model allows. [`ScheduledCrashAdversary::withholding`]
/// additionally suppresses every message sent by a victim that was actually
/// crashed — also permitted, since the model only obliges delivery of messages
/// from processors that take infinitely many steps. Victims beyond the fault
/// budget are never crashed, so their messages keep flowing.
///
/// The committee comparison's two adversaries (experiment E7) are withholding
/// schedules that differ only in *who chose the victims, knowing what*:
/// [`ScheduledCrashAdversary::random`] and
/// [`ScheduledCrashAdversary::committee_killer`].
#[derive(Debug, Clone)]
pub struct ScheduledCrashAdversary {
    name: &'static str,
    victims: Vec<ProcessorId>,
    next_victim: usize,
    withhold_from_victims: bool,
    cursor: ChannelCursor,
}

impl ScheduledCrashAdversary {
    /// Crashes `victims` (in order) before delivering anything; messages the
    /// victims already sent may still be delivered.
    pub fn new(victims: Vec<ProcessorId>) -> Self {
        ScheduledCrashAdversary {
            name: "scheduled-crash",
            victims,
            next_victim: 0,
            withhold_from_victims: false,
            cursor: ChannelCursor::default(),
        }
    }

    /// Like [`ScheduledCrashAdversary::new`], but additionally withholds every
    /// message sent by a victim, so the victims are silenced entirely.
    pub fn withholding(victims: Vec<ProcessorId>) -> Self {
        ScheduledCrashAdversary {
            name: "withholding-crash",
            withhold_from_victims: true,
            ..ScheduledCrashAdversary::new(victims)
        }
    }

    /// The non-adaptive crash adversary (`"non-adaptive-crash"`): it must pick
    /// its victims *before* the execution starts, without seeing the
    /// protocol's random choices — in particular without knowing which
    /// processors will end up on a committee. Picks `count` distinct victims
    /// uniformly at random from `seed` among `n` processors and silences them
    /// entirely (their messages are withheld), giving the adversary its best
    /// shot without adaptivity.
    pub fn random(n: usize, count: usize, seed: u64) -> Self {
        let mut rng = ProcessorRng::labelled(seed, 0xAD5E);
        let victims = rng
            .choose_distinct(n, count.min(n))
            .into_iter()
            .map(ProcessorId::new)
            .collect();
        ScheduledCrashAdversary {
            name: "non-adaptive-crash",
            ..ScheduledCrashAdversary::withholding(victims)
        }
    }

    /// The adaptive committee killer (`"adaptive-committee-killer"`): it waits
    /// until the final committee is determined (here: it is public from the
    /// start) and crashes committee members first — silencing them entirely —
    /// spending the whole fault budget on them. This is the strategy the
    /// paper's introduction uses to argue that committee-based protocols
    /// cannot resist adaptive adversaries.
    ///
    /// Targets the given committee (in order). Only the first `t` will
    /// actually be crashed — the engine enforces the budget — and only the
    /// crashed targets have their messages withheld; non-crashed targets keep
    /// participating normally.
    pub fn committee_killer(committee: Vec<ProcessorId>) -> Self {
        ScheduledCrashAdversary {
            name: "adaptive-committee-killer",
            ..ScheduledCrashAdversary::withholding(committee)
        }
    }

    /// The processors this adversary crashes (or, beyond the fault budget,
    /// tries to).
    pub fn victims(&self) -> &[ProcessorId] {
        &self.victims
    }

    fn deliver_fairly(&mut self, view: &SystemView<'_>) -> AsyncAction {
        let admit = |from: ProcessorId, _to: ProcessorId| {
            !(self.withhold_from_victims
                && view.is_crashed(from.index())
                && self.victims.contains(&from))
        };
        match view.next_pending_channel_where(self.cursor, admit) {
            Some((next_cursor, from, to)) => {
                self.cursor = next_cursor;
                AsyncAction::Deliver { from, to }
            }
            None => AsyncAction::Halt,
        }
    }
}

impl AsyncAdversary for ScheduledCrashAdversary {
    fn name(&self) -> &'static str {
        self.name
    }

    fn next_action(&mut self, view: &SystemView<'_>) -> AsyncAction {
        if self.next_victim < self.victims.len() {
            let victim = self.victims[self.next_victim];
            self.next_victim += 1;
            return AsyncAction::Crash(victim);
        }
        self.deliver_fairly(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreement_model::{Bit, InputAssignment, SystemConfig};
    use agreement_protocols::{BenOrBuilder, CommitteeBuilder};
    use agreement_sim::{run_async, RunLimits};

    #[test]
    fn scheduled_crash_kills_exactly_its_victims_and_ben_or_survives() {
        let cfg = SystemConfig::new(7, 3).unwrap();
        let inputs = InputAssignment::unanimous(7, Bit::One);
        let mut adversary =
            ScheduledCrashAdversary::new(vec![ProcessorId::new(0), ProcessorId::new(1)]);
        let outcome = run_async(
            cfg,
            inputs.clone(),
            &BenOrBuilder::new(),
            &mut adversary,
            5,
            RunLimits::small(),
        );
        assert_eq!(outcome.metrics.crashes, 2);
        assert!(outcome.crashed[0] && outcome.crashed[1]);
        assert!(outcome.all_correct_decided());
        assert_eq!(outcome.decided_value(), Some(Bit::One));
        assert!(outcome.is_correct(&inputs));
    }

    #[test]
    fn withholding_crash_silences_victims_but_ben_or_still_decides() {
        // n = 7, t = 2 silenced processors: the quorum n - t = 5 is reachable
        // from the 5 survivors alone.
        let cfg = SystemConfig::new(7, 2).unwrap();
        let inputs = InputAssignment::unanimous(7, Bit::Zero);
        let mut adversary =
            ScheduledCrashAdversary::withholding(vec![ProcessorId::new(5), ProcessorId::new(6)]);
        let outcome = run_async(
            cfg,
            inputs.clone(),
            &BenOrBuilder::new(),
            &mut adversary,
            8,
            RunLimits::small(),
        );
        assert!(outcome.all_correct_decided());
        assert!(outcome.is_correct(&inputs));
        // No message from a silenced victim was ever delivered.
        let victims = [ProcessorId::new(5), ProcessorId::new(6)];
        assert!(outcome
            .trace
            .stored()
            .iter()
            .all(|e| !matches!(e, agreement_model::TraceEvent::Delivered { from, .. } if victims.contains(from))));
    }

    #[test]
    fn non_adaptive_adversary_is_deterministic_per_seed() {
        let a = ScheduledCrashAdversary::random(20, 5, 7);
        let b = ScheduledCrashAdversary::random(20, 5, 7);
        assert_eq!(a.victims(), b.victims());
        assert_eq!(a.victims().len(), 5);
        let c = ScheduledCrashAdversary::random(20, 5, 8);
        assert_ne!(a.victims(), c.victims());
    }

    #[test]
    fn non_adaptive_adversary_rarely_hits_a_small_committee() {
        // With n = 30, t = 3 random victims and a committee of 5, the committee
        // usually keeps enough correct members; the committee protocol then decides.
        let cfg = SystemConfig::new(30, 3).unwrap();
        let committee_builder = CommitteeBuilder::random(&cfg, 5, 12345);
        let inputs = InputAssignment::unanimous(30, Bit::Zero);
        let mut successes = 0;
        for seed in 0..10u64 {
            let mut adversary = ScheduledCrashAdversary::random(30, 3, seed);
            let outcome = run_async(
                cfg,
                inputs.clone(),
                &committee_builder,
                &mut adversary,
                seed,
                RunLimits::small(),
            );
            if outcome.all_correct_decided() && outcome.is_correct(&inputs) {
                successes += 1;
            }
        }
        assert!(
            successes >= 7,
            "the non-adaptive adversary should usually fail to break the committee (got {successes}/10)"
        );
    }

    #[test]
    fn adaptive_killer_stalls_the_committee_protocol() {
        // Same system, but the adversary knows the committee, crashes three of
        // its five members (its whole budget) and withholds their messages.
        let cfg = SystemConfig::new(30, 3).unwrap();
        let committee_builder = CommitteeBuilder::random(&cfg, 5, 12345);
        let inputs = InputAssignment::unanimous(30, Bit::Zero);
        let mut adversary =
            ScheduledCrashAdversary::committee_killer(committee_builder.committee().to_vec());
        assert_eq!(adversary.victims().len(), 5);
        let outcome = run_async(
            cfg,
            inputs.clone(),
            &committee_builder,
            &mut adversary,
            99,
            RunLimits::small(),
        );
        // Only 2 of 5 committee members survive, below the committee's internal
        // quorum of 4, so no announcement is ever made and nobody decides: the
        // hallmark failure of non-adaptively-secure designs.
        assert!(!outcome.all_correct_decided());
        assert!(!outcome.any_decided());
        assert_eq!(outcome.metrics.crashes, 3);
    }

    #[test]
    fn adaptive_killer_does_not_break_quorum_based_protocols() {
        // Against Ben-Or (quorum-based, no committee), crashing any t = 3
        // processors changes nothing: the rest still decide.
        let cfg = SystemConfig::new(7, 3).unwrap();
        let inputs = InputAssignment::unanimous(7, Bit::One);
        let mut adversary = ScheduledCrashAdversary::committee_killer(vec![
            ProcessorId::new(0),
            ProcessorId::new(1),
            ProcessorId::new(2),
        ]);
        let outcome = run_async(
            cfg,
            inputs.clone(),
            &BenOrBuilder::new(),
            &mut adversary,
            3,
            RunLimits::small(),
        );
        assert!(outcome.all_correct_decided());
        assert!(outcome.is_correct(&inputs));
    }
}
