//! Property-based tests over the core invariants: agreement and validity hold
//! for every seed, input assignment and adversary mix we can generate; window
//! legality and Hamming metric axioms hold for arbitrary parameters.
//!
//! The build environment is offline, so instead of proptest the cases are
//! generated from a deterministic [`ProcessorRng`] stream: every run explores
//! the same cases, and a failing case is reproducible from its printed seed.

use agreement::adversary::{RotatingResetAdversary, SplitVoteAdversary};
use agreement::analysis::{hamming_distance, talagrand_bound, ProductDistribution};
use agreement::model::{Bit, InputAssignment, ProcessorId, ProcessorRng, SystemConfig, Thresholds};
use agreement::protocols::{BenOrBuilder, ResetTolerantBuilder, RoundTally};
use agreement::sim::{run_async, run_windowed, FairAsyncAdversary, RunLimits, Window};

const CASES: u64 = 16;

fn arbitrary_inputs(rng: &mut ProcessorRng, n: usize) -> InputAssignment {
    InputAssignment::new((0..n).map(|_| rng.bit()).collect())
}

/// Agreement and validity are never violated by the reset-tolerant protocol
/// under the split-vote adversary, whatever the seed and inputs.
#[test]
fn reset_tolerant_never_violates_safety() {
    let cfg = SystemConfig::with_sixth_resilience(13).unwrap();
    let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
    for case in 0..CASES {
        let mut gen = ProcessorRng::labelled(0xA11CE, case);
        let seed = gen.range(1_000);
        let inputs = arbitrary_inputs(&mut gen, 13);
        let outcome = run_windowed(
            cfg,
            inputs.clone(),
            &builder,
            &mut SplitVoteAdversary::new(),
            seed,
            RunLimits::windows(20_000),
        );
        assert!(
            outcome.agreement_holds(),
            "case {case} seed {seed} inputs {inputs}"
        );
        assert!(
            outcome.validity_holds(&inputs),
            "case {case} seed {seed} inputs {inputs}"
        );
        assert!(
            outcome.violations.is_empty(),
            "case {case} seed {seed} inputs {inputs}"
        );
    }
}

/// The same invariants under the rotating-reset adversary.
#[test]
fn reset_storms_never_violate_safety() {
    let cfg = SystemConfig::with_sixth_resilience(7).unwrap();
    let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
    for case in 0..CASES {
        let mut gen = ProcessorRng::labelled(0xB0B, case);
        let seed = gen.range(1_000);
        let inputs = arbitrary_inputs(&mut gen, 7);
        let outcome = run_windowed(
            cfg,
            inputs.clone(),
            &builder,
            &mut RotatingResetAdversary::new(),
            seed,
            RunLimits::windows(20_000),
        );
        assert!(
            outcome.agreement_holds(),
            "case {case} seed {seed} inputs {inputs}"
        );
        assert!(
            outcome.validity_holds(&inputs),
            "case {case} seed {seed} inputs {inputs}"
        );
    }
}

/// Ben-Or under fair asynchronous scheduling is safe and live for any inputs.
#[test]
fn ben_or_fair_schedule_safety_and_liveness() {
    let cfg = SystemConfig::new(6, 2).unwrap();
    for case in 0..CASES {
        let mut gen = ProcessorRng::labelled(0xC0DE, case);
        let seed = gen.range(1_000);
        let inputs = arbitrary_inputs(&mut gen, 6);
        let outcome = run_async(
            cfg,
            inputs.clone(),
            &BenOrBuilder::new(),
            &mut FairAsyncAdversary::default(),
            seed,
            RunLimits::steps(1_000_000),
        );
        assert!(
            outcome.agreement_holds(),
            "case {case} seed {seed} inputs {inputs}"
        );
        assert!(
            outcome.validity_holds(&inputs),
            "case {case} seed {seed} inputs {inputs}"
        );
        assert!(
            outcome.all_correct_decided(),
            "case {case} seed {seed} inputs {inputs}"
        );
    }
}

/// Hamming distance satisfies the metric axioms.
#[test]
fn hamming_distance_is_a_metric() {
    for case in 0..CASES {
        let mut gen = ProcessorRng::labelled(0xD15, case);
        let vector =
            |gen: &mut ProcessorRng| -> Vec<u8> { (0..12).map(|_| gen.range(4) as u8).collect() };
        let a = vector(&mut gen);
        let b = vector(&mut gen);
        let c = vector(&mut gen);
        assert_eq!(hamming_distance(&a, &a), 0);
        assert_eq!(hamming_distance(&a, &b), hamming_distance(&b, &a));
        assert!(
            hamming_distance(&a, &c) <= hamming_distance(&a, &b) + hamming_distance(&b, &c),
            "triangle inequality failed: {a:?} {b:?} {c:?}"
        );
        assert!(hamming_distance(&a, &b) <= a.len());
    }
}

/// Every window built from legal (R, S) choices validates, and every window
/// with an oversized reset set is rejected.
#[test]
fn window_validation_matches_definition_one() {
    for case in 0..CASES {
        let mut gen = ProcessorRng::labelled(0xE44, case);
        let n = 4 + gen.range(8) as usize;
        let t_fraction = gen.range(3) as usize;
        let reset_extra = gen.range(3) as usize;
        let t = (n / 6).max(t_fraction.min(n - 1));
        let cfg = SystemConfig::new(n, t).unwrap();
        let senders: Vec<ProcessorId> = ProcessorId::all(n).skip(t).collect();
        let legal = Window::uniform(&cfg, ProcessorId::all(n).take(t).collect(), senders.clone());
        assert!(legal.validate(&cfg).is_ok(), "case {case}: n={n} t={t}");
        let oversized: Vec<ProcessorId> = ProcessorId::all(n).take(t + 1 + reset_extra).collect();
        if oversized.len() > t {
            let illegal = Window::uniform(&cfg, oversized, senders);
            assert!(illegal.validate(&cfg).is_err(), "case {case}: n={n} t={t}");
        }
    }
}

/// Tally counts never exceed the number of distinct voters and are
/// insensitive to duplicate votes.
#[test]
fn tally_counts_are_bounded_by_distinct_voters() {
    for case in 0..CASES {
        let mut gen = ProcessorRng::labelled(0xF00D, case);
        let votes: Vec<(usize, bool)> = (0..gen.range(60))
            .map(|_| (gen.range(10) as usize, gen.bit().is_one()))
            .collect();
        let mut tally = RoundTally::for_processors(10);
        for (sender, value) in &votes {
            tally.record(1, 0, ProcessorId::new(*sender), Some(Bit::from(*value)));
            // A duplicate never changes the counts.
            tally.record(1, 0, ProcessorId::new(*sender), Some(Bit::from(!*value)));
        }
        let distinct: std::collections::BTreeSet<usize> = votes.iter().map(|(s, _)| *s).collect();
        assert_eq!(tally.total(1, 0), distinct.len(), "case {case}");
        assert!(
            tally.count(1, 0, Bit::Zero) + tally.count(1, 0, Bit::One) == distinct.len(),
            "case {case}"
        );
    }
}

/// The Talagrand bound is never violated by singleton sets under random
/// biased product distributions (exact computation, small n).
#[test]
fn talagrand_holds_for_singletons() {
    for case in 0..CASES {
        let mut gen = ProcessorRng::labelled(0x7A1A, case);
        let biases: Vec<f64> = (0..6)
            .map(|_| 0.05 + 0.9 * gen.range(1_000) as f64 / 1_000.0)
            .collect();
        let d = gen.range(6) as usize;
        let seed = gen.range(1_000);
        let distribution = ProductDistribution::biased_bits(&biases);
        let mut rng = ProcessorRng::from_seed(seed);
        let point = distribution.sample(&mut rng);
        let a = vec![point];
        let check = agreement::analysis::check_talagrand(&distribution, &a, d);
        assert!(
            check.lhs <= talagrand_bound(d, biases.len()) + 1e-12,
            "case {case}: biases {biases:?} d {d}"
        );
    }
}

/// Threshold validation accepts exactly the Theorem 4 region.
#[test]
fn threshold_validation_matches_theorem_4() {
    let cfg = SystemConfig::new(13, 2).unwrap();
    // Small enough to sweep exhaustively — stronger than sampling.
    for t1 in 1usize..14 {
        for t2 in 1usize..14 {
            for t3 in 1usize..14 {
                let thresholds = Thresholds::new(t1, t2, t3);
                let expected =
                    t1 <= 13 - 4 && t1 >= t2 && t2 >= t3 + 2 && 2 * t3 > 13 && 2 * t3 > t1;
                assert_eq!(
                    thresholds.is_valid_for(&cfg),
                    expected,
                    "T1={t1} T2={t2} T3={t3}"
                );
            }
        }
    }
}
