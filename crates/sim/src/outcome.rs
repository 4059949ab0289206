//! Run limits and run outcomes: what an execution produced.

use agreement_model::{Bit, InputAssignment};

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
    /// What the execution core kept about the decisions as they were
    /// written: the questions below are answered from it, not from a pass
    /// over `decisions`.
    pub summary: DecisionSummary,
}

/// The decisions of a run as the execution core books them, one decision
/// transition at a time: enough for agreement, validity, termination and
/// the decided value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionSummary {
    /// Whether some processor decided each value, indexed by
    /// [`Bit::as_index`].
    pub decided: [bool; 2],
    /// Whether every non-crashed processor has written its output bit.
    pub all_correct_decided: bool,
}

impl DecisionSummary {
    /// The values some processor decided: none, one, or both.
    pub fn decided_values(self) -> impl Iterator<Item = Bit> {
        [Bit::Zero, Bit::One]
            .into_iter()
            .filter(move |value| self.decided[value.as_index()])
    }
}

impl RunOutcome {
    /// `true` when every non-crashed processor wrote its output bit.
    pub fn all_correct_decided(&self) -> bool {
        self.summary.all_correct_decided
    }

    /// `true` when at least one processor wrote its output bit.
    pub fn any_decided(&self) -> bool {
        self.summary.decided_values().next().is_some()
    }

    /// *Agreement*: no two processors decided different values (Definition 2's
    /// first requirement: conflicting non-`⊥` outputs are disallowed).
    pub fn agreement_holds(&self) -> bool {
        self.summary.decided != [true; 2]
    }

    /// *Validity*: every decided value equals some processor's input
    /// (Definition 2's second requirement). With binary inputs this reduces
    /// to: a unanimous input assignment forces that value. At most two
    /// values were decided, and each is looked up in `inputs` once.
    pub fn validity_holds(&self, inputs: &InputAssignment) -> bool {
        self.summary
            .decided_values()
            .all(|decided| inputs.iter().any(|input| input == decided))
    }

    /// The common decided value, when agreement holds and someone decided.
    pub fn decided_value(&self) -> Option<Bit> {
        let mut decided = self.summary.decided_values();
        decided.next().filter(|_| decided.next().is_none())
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

    /// An outcome with these decisions and crash flags, and the summary the
    /// core would have booked for them.
    fn outcome(decisions: Vec<Option<Bit>>, crashed: Vec<bool>) -> RunOutcome {
        let decided = |value| decisions.contains(&Some(value));
        let summary = DecisionSummary {
            decided: [decided(Bit::Zero), decided(Bit::One)],
            all_correct_decided: decisions
                .iter()
                .zip(&crashed)
                .all(|(d, &c)| c || d.is_some()),
        };
        RunOutcome {
            summary,
            decisions,
            crashed,
            duration: 10,
            first_decision_at: Some(3),
            all_decided_at: None,
            violations: Vec::new(),
            longest_chain: 0,
            halted_by_adversary: false,
            metrics: Metrics::default(),
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
