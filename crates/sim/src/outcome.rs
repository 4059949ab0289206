//! Run limits and run outcomes: what an execution produced.

use agreement_model::{Bit, InputAssignment, Trace};

use crate::metrics::Metrics;

/// Caps on how long an engine will run before giving up.
///
/// The paper's executions are infinite objects; an experiment must cut them
/// off. A run that hits its cap without every correct processor deciding is
/// reported as *not terminated within the limit* (which, for the exponential
/// lower-bound experiments, is precisely the interesting outcome).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimits {
    /// Maximum number of acceptable windows (window engine).
    pub max_windows: u64,
    /// Maximum number of individual steps (asynchronous engine).
    pub max_steps: u64,
}

impl RunLimits {
    /// Limits suitable for fast-terminating runs in unit tests.
    pub const fn small() -> Self {
        RunLimits {
            max_windows: 200,
            max_steps: 50_000,
        }
    }

    /// Limits suitable for experiment runs.
    pub const fn standard() -> Self {
        RunLimits {
            max_windows: 10_000,
            max_steps: 2_000_000,
        }
    }

    /// Creates limits with an explicit window cap (step cap scales with it).
    pub const fn windows(max_windows: u64) -> Self {
        RunLimits {
            max_windows,
            max_steps: max_windows.saturating_mul(1_000),
        }
    }

    /// Creates limits with an explicit step cap.
    pub const fn steps(max_steps: u64) -> Self {
        RunLimits {
            max_windows: u64::MAX,
            max_steps,
        }
    }
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits::standard()
    }
}

/// The result of driving one execution to a decision (or to its limit).
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The final output bit of every processor (`None` = still `⊥`).
    pub decisions: Vec<Option<Bit>>,
    /// Which processors were crashed during the run.
    pub crashed: Vec<bool>,
    /// How many acceptable windows (window engine) or steps (async engine) elapsed.
    pub duration: u64,
    /// The window/step index at which the *first* processor decided, if any.
    pub first_decision_at: Option<u64>,
    /// The window/step index at which the *last* correct processor decided, if
    /// every correct processor decided within the limit.
    pub all_decided_at: Option<u64>,
    /// Correctness violations observed (conflicting decisions, invalid values).
    pub violations: Vec<String>,
    /// The scheduler's running-time chain metric: the causal chain preceding
    /// the first decision for asynchronous runs, the window of the first
    /// decision for windowed runs (see [`Metrics::max_chain`] for the
    /// model-independent causal watermark).
    pub longest_chain: u64,
    /// `true` if the adversary halted the execution before the limit.
    pub halted_by_adversary: bool,
    /// Structured counters of everything the execution did (messages,
    /// windows/steps, resets, crashes, coin flips, causal chains).
    pub metrics: Metrics,
    /// The bounded event trace of the run.
    pub trace: Trace,
}

impl RunOutcome {
    /// `true` when every non-crashed processor wrote its output bit.
    pub fn all_correct_decided(&self) -> bool {
        self.decisions
            .iter()
            .zip(&self.crashed)
            .all(|(d, crashed)| *crashed || d.is_some())
    }

    /// `true` when at least one processor wrote its output bit.
    pub fn any_decided(&self) -> bool {
        self.decisions.iter().any(Option::is_some)
    }

    /// *Agreement*: no two processors decided different values (Definition 2's
    /// first requirement: conflicting non-`⊥` outputs are disallowed).
    pub fn agreement_holds(&self) -> bool {
        let mut seen: Option<Bit> = None;
        for decision in self.decisions.iter().flatten() {
            match seen {
                None => seen = Some(*decision),
                Some(v) if v != *decision => return false,
                Some(_) => {}
            }
        }
        true
    }

    /// *Validity*: every decided value equals some processor's input
    /// (Definition 2's second requirement). With binary inputs this reduces
    /// to: a unanimous input assignment forces that value.
    pub fn validity_holds(&self, inputs: &InputAssignment) -> bool {
        self.decisions
            .iter()
            .flatten()
            .all(|decided| inputs.iter().any(|input| input == *decided))
    }

    /// The common decided value, when agreement holds and someone decided.
    pub fn decided_value(&self) -> Option<Bit> {
        if !self.agreement_holds() {
            return None;
        }
        self.decisions.iter().flatten().next().copied()
    }

    /// `true` when the run satisfies agreement, validity and produced no
    /// recorded violations.
    pub fn is_correct(&self, inputs: &InputAssignment) -> bool {
        self.violations.is_empty() && self.agreement_holds() && self.validity_holds(inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(decisions: Vec<Option<Bit>>, crashed: Vec<bool>) -> RunOutcome {
        RunOutcome {
            decisions,
            crashed,
            duration: 10,
            first_decision_at: Some(3),
            all_decided_at: None,
            violations: Vec::new(),
            longest_chain: 0,
            halted_by_adversary: false,
            metrics: Metrics::default(),
            trace: Trace::new(),
        }
    }

    #[test]
    fn agreement_detects_conflicts() {
        let ok = outcome(vec![Some(Bit::One), None, Some(Bit::One)], vec![false; 3]);
        assert!(ok.agreement_holds());
        assert_eq!(ok.decided_value(), Some(Bit::One));

        let bad = outcome(vec![Some(Bit::One), Some(Bit::Zero)], vec![false; 2]);
        assert!(!bad.agreement_holds());
        assert_eq!(bad.decided_value(), None);
    }

    #[test]
    fn validity_requires_decided_value_among_inputs() {
        let inputs = InputAssignment::unanimous(3, Bit::Zero);
        let bad = outcome(vec![Some(Bit::One), None, None], vec![false; 3]);
        assert!(!bad.validity_holds(&inputs));
        let good = outcome(vec![Some(Bit::Zero), None, None], vec![false; 3]);
        assert!(good.validity_holds(&inputs));

        let mixed = InputAssignment::evenly_split(3);
        assert!(
            bad.validity_holds(&mixed),
            "any value is valid for mixed inputs"
        );
    }

    #[test]
    fn all_correct_decided_ignores_crashed() {
        let o = outcome(
            vec![Some(Bit::One), None, Some(Bit::One)],
            vec![false, true, false],
        );
        assert!(o.all_correct_decided());
        assert!(o.any_decided());
        let o = outcome(vec![Some(Bit::One), None, None], vec![false, true, false]);
        assert!(!o.all_correct_decided());
    }

    #[test]
    fn is_correct_combines_checks() {
        let inputs = InputAssignment::evenly_split(2);
        let mut o = outcome(vec![Some(Bit::One), Some(Bit::One)], vec![false; 2]);
        assert!(o.is_correct(&inputs));
        o.violations.push("conflicting decision".to_string());
        assert!(!o.is_correct(&inputs));
    }

    #[test]
    fn run_limits_presets() {
        assert!(RunLimits::small().max_windows < RunLimits::standard().max_windows);
        assert_eq!(RunLimits::windows(7).max_windows, 7);
        assert_eq!(RunLimits::steps(5).max_steps, 5);
        assert_eq!(RunLimits::default(), RunLimits::standard());
    }

    #[test]
    fn empty_outcome_trivially_agrees() {
        let o = outcome(vec![None, None], vec![false, false]);
        assert!(o.agreement_holds());
        assert!(!o.any_decided());
        assert_eq!(o.decided_value(), None);
    }
}
