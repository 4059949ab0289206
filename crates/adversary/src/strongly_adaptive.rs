//! Strongly adaptive resetting adversaries for the acceptable-window model.
//!
//! These adversaries exercise the resetting power of the strongly adaptive
//! adversary (Section 2): in every acceptable window they reset up to `t`
//! processors, chosen either blindly (rotating through the identities) or
//! adaptively (targeting the processors that have made the most progress).
//! Delivery is otherwise full, so they probe fault tolerance rather than
//! scheduling slowness; combine with
//! [`SplitVoteAdversary`](crate::SplitVoteAdversary) for the
//! slowness experiments.

use agreement_model::ProcessorId;
use agreement_sim::{SystemView, Window, WindowAdversary};

/// Resets a rotating set of `t` processors every window and delivers from
/// everyone.
///
/// Window `w` resets processors `{(w * t) mod n, ..., (w * t + t - 1) mod n}`,
/// so over `⌈n / t⌉` windows every processor is reset at least once — far more
/// total failures than a static `t`-bounded adversary could cause, which is
/// exactly the regime the reset-tolerant protocol is designed for.
#[derive(Debug, Clone, Copy, Default)]
pub struct RotatingResetAdversary {
    window: u64,
}

impl RotatingResetAdversary {
    /// Creates the adversary.
    pub fn new() -> Self {
        RotatingResetAdversary { window: 0 }
    }
}

impl WindowAdversary for RotatingResetAdversary {
    fn name(&self) -> &'static str {
        "rotating-reset"
    }

    fn next_window(&mut self, view: &SystemView<'_>) -> Window {
        let n = view.n();
        let t = view.t();
        let start = (self.window as usize).wrapping_mul(t) % n.max(1);
        self.window += 1;
        let mut window = view.take_window();
        for k in 0..t {
            window.push_reset(ProcessorId::new((start + k) % n));
        }
        window.push_all_senders(n);
        window.end_shared_set(n);
        window
    }
}

/// Resets the `t` processors that are *furthest ahead* (highest round number)
/// every window, and delivers from everyone.
///
/// This is the natural adaptive strategy for slowing a round-based protocol:
/// progress made by the leaders is repeatedly erased. The reset-tolerant
/// protocol still terminates (Theorem 4) because the `n - t` survivors carry
/// the round forward and resynchronize the victims.
#[derive(Debug, Clone, Copy, Default)]
pub struct TargetedResetAdversary;

impl TargetedResetAdversary {
    /// Creates the adversary.
    pub fn new() -> Self {
        TargetedResetAdversary
    }
}

impl WindowAdversary for TargetedResetAdversary {
    fn name(&self) -> &'static str {
        "targeted-reset"
    }

    fn next_window(&mut self, view: &SystemView<'_>) -> Window {
        let n = view.n();
        let t = view.t();
        // Reset the t most advanced processors, furthest first (the higher
        // identity first among equals): t passes, each picking the best one
        // not picked yet, so nothing is ranked into a scratch list.
        let mut window = view.take_window();
        for _ in 0..t.min(n) {
            let next = (0..n)
                .map(|i| (view.digest(i).round.unwrap_or(0), i))
                .filter(|&(_, i)| !window.resets().contains(&ProcessorId::new(i)))
                .max()
                .expect("fewer than n processors are picked");
            window.push_reset(ProcessorId::new(next.1));
        }
        window.push_all_senders(n);
        window.end_shared_set(n);
        window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreement_model::{Bit, InputAssignment, SystemConfig};
    use agreement_protocols::ResetTolerantBuilder;
    use agreement_sim::{run_windowed, ExecutionCore, RunLimits, Scheduler};

    fn cfg(n: usize) -> SystemConfig {
        SystemConfig::with_sixth_resilience(n).unwrap()
    }

    #[test]
    fn rotating_resets_cycle_through_all_processors() {
        let cfg = cfg(13);
        let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
        let inputs = InputAssignment::unanimous(13, Bit::One);
        let mut core = ExecutionCore::new(cfg, inputs, &builder, 1);
        let mut adversary = RotatingResetAdversary::new();
        let mut scheduler = Scheduler::Windowed(&mut adversary);
        for _ in 0..13 {
            scheduler.step(&mut core);
        }
        let outcome = scheduler.outcome(&core);
        // t = 2 resets per window over 13 windows.
        assert_eq!(outcome.metrics.resets_consumed, 26);
        assert!(outcome.agreement_holds());
    }

    #[test]
    fn rotating_reset_run_still_terminates_and_agrees_on_unanimous_input() {
        let cfg = cfg(13);
        let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
        let inputs = InputAssignment::unanimous(13, Bit::Zero);
        let outcome = run_windowed(
            cfg,
            inputs.clone(),
            &builder,
            &mut RotatingResetAdversary::new(),
            3,
            RunLimits::small(),
        );
        assert!(outcome.all_correct_decided());
        assert!(outcome.is_correct(&inputs));
        assert_eq!(outcome.decided_value(), Some(Bit::Zero));
    }

    #[test]
    fn targeted_reset_run_terminates_and_agrees_on_unanimous_input() {
        let cfg = cfg(13);
        let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
        let inputs = InputAssignment::unanimous(13, Bit::One);
        let outcome = run_windowed(
            cfg,
            inputs.clone(),
            &builder,
            &mut TargetedResetAdversary::new(),
            5,
            RunLimits::small(),
        );
        assert!(outcome.all_correct_decided());
        assert!(outcome.is_correct(&inputs));
    }

    #[test]
    fn targeted_reset_produces_valid_windows_even_with_zero_budget() {
        let cfg = SystemConfig::new(5, 0).unwrap();
        let builder =
            ResetTolerantBuilder::with_thresholds(agreement_model::Thresholds::new(5, 5, 5));
        let inputs = InputAssignment::unanimous(5, Bit::One);
        let outcome = run_windowed(
            cfg,
            inputs.clone(),
            &builder,
            &mut TargetedResetAdversary::new(),
            5,
            RunLimits::small(),
        );
        assert_eq!(outcome.metrics.resets_consumed, 0);
        assert!(outcome.all_correct_decided());
    }
}
