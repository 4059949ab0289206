//! The polarizing window adversary: a deliberately unfair (but legal)
//! delivery strategy that probes the Theorem 4 threshold constraints.
//!
//! The adversary shows the first half of the processors a zero-leaning view
//! and the second half a one-leaning view, all within the legal
//! `|S_i| >= n - t` delivery budget: each side drops up to `t` senders
//! advocating the opposite value. Valid Theorem 4 thresholds withstand the
//! polarization (agreement stays at 100%); broken thresholds admit
//! disagreement. Experiment E8 runs exactly this contrast.

use agreement_model::{Bit, Payload, ProcessorId};
use agreement_sim::{SystemView, Window, WindowAdversary};

/// Shows half the processors a zero-leaning view and half a one-leaning view,
/// dropping up to `t` opposite-value senders from each view.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolarizingAdversary;

impl PolarizingAdversary {
    /// Creates the adversary.
    pub fn new() -> Self {
        PolarizingAdversary
    }
}

impl WindowAdversary for PolarizingAdversary {
    fn name(&self) -> &'static str {
        "polarizing"
    }

    fn next_window(&mut self, view: &SystemView<'_>) -> Window {
        let n = view.n();
        let t = view.t();
        let probe = ProcessorId::new(0);
        let value_of = |s: usize| {
            view.buffer
                .peek(ProcessorId::new(s), probe)
                .and_then(Payload::advocated_value)
        };
        // The view leaning towards `side`: its senders, then the other
        // side's minus the first (up to) t of them, then the silent ones.
        let leaning = |window: &mut Window, side: Bit| {
            let senders_of = |value: Option<Bit>| {
                (0..n)
                    .filter(move |&s| value_of(s) == value)
                    .map(ProcessorId::new)
            };
            senders_of(Some(side)).for_each(|id| window.push_sender(id));
            senders_of(Some(!side))
                .skip(t)
                .for_each(|id| window.push_sender(id));
            senders_of(None).for_each(|id| window.push_sender(id));
            window.end_set();
        };
        // The first half of the processors get the zero-leaning view, the
        // rest the one-leaning one; each is read out of the buffer once and
        // copied to the other recipients of its half.
        let mut window = view.take_window();
        for i in 0..n {
            if i == 0 || i == n / 2 {
                let side = if i < n / 2 { Bit::Zero } else { Bit::One };
                leaning(&mut window, side);
            } else {
                window.copy_set(i - 1);
            }
        }
        window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreement_model::{InputAssignment, SystemConfig, Thresholds};
    use agreement_protocols::ResetTolerantBuilder;
    use agreement_sim::{run_windowed, RunLimits};

    #[test]
    fn valid_thresholds_withstand_polarization() {
        let cfg = SystemConfig::with_sixth_resilience(13).unwrap();
        let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
        let inputs = InputAssignment::evenly_split(13);
        for seed in 0..3u64 {
            let outcome = run_windowed(
                cfg,
                inputs.clone(),
                &builder,
                &mut PolarizingAdversary::new(),
                seed,
                RunLimits::windows(2_000),
            );
            assert!(outcome.agreement_holds(), "seed {seed}: {outcome:?}");
            assert!(outcome.validity_holds(&inputs), "seed {seed}");
        }
    }

    #[test]
    fn broken_t2_admits_disagreement_under_polarization() {
        let cfg = SystemConfig::with_sixth_resilience(13).unwrap();
        // T2 = 5 violates T2 >= T3 + t; the polarizing adversary finds the gap.
        let builder = ResetTolerantBuilder::with_thresholds(Thresholds::new(9, 5, 7));
        let inputs = InputAssignment::evenly_split(13);
        let disagreed = (0..10u64).any(|seed| {
            let outcome = run_windowed(
                cfg,
                inputs.clone(),
                &builder,
                &mut PolarizingAdversary::new(),
                seed,
                RunLimits::windows(2_000),
            );
            !outcome.agreement_holds()
        });
        assert!(
            disagreed,
            "a far-too-small T2 must admit disagreement under polarization"
        );
    }
}
