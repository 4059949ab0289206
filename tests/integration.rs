//! Cross-crate integration tests: full protocol × adversary runs through the
//! public facade, checking the paper's guarantees end to end.

use agreement::adversary::{
    EquivocatingAdversary, LockstepBalancingAdversary, RotatingResetAdversary,
    ScheduledCrashAdversary, SplitVoteAdversary, TargetedResetAdversary,
};
use agreement::analysis::{success_probability, window_bound};
use agreement::core::experiments::{exp4_zset_separation, Scale};
use agreement::model::{Bit, InputAssignment, ProcessorId, SystemConfig};
use agreement::protocols::{BenOrBuilder, BrachaBuilder, CommitteeBuilder, ResetTolerantBuilder};
use agreement::sim::{
    run_async, run_windowed, FairAsyncAdversary, FullDeliveryAdversary, RunLimits,
};

/// Theorem 4, end to end: the reset-tolerant protocol agrees, stays valid and
/// terminates against every strongly adaptive adversary we implement.
#[test]
fn reset_tolerant_is_correct_against_every_windowed_adversary() {
    let cfg = SystemConfig::with_sixth_resilience(13).unwrap();
    let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
    for seed in 0..3u64 {
        for inputs in [
            InputAssignment::unanimous(13, Bit::Zero),
            InputAssignment::unanimous(13, Bit::One),
            InputAssignment::evenly_split(13),
            InputAssignment::split_at(13, 3),
        ] {
            let adversaries: Vec<Box<dyn agreement::sim::WindowAdversary>> = vec![
                Box::new(FullDeliveryAdversary),
                Box::new(RotatingResetAdversary::new()),
                Box::new(TargetedResetAdversary::new()),
                Box::new(SplitVoteAdversary::new()),
                Box::new(SplitVoteAdversary::with_resets()),
            ];
            for mut adversary in adversaries {
                let outcome = run_windowed(
                    cfg,
                    inputs.clone(),
                    &builder,
                    adversary.as_mut(),
                    seed,
                    RunLimits::windows(30_000),
                );
                assert!(
                    outcome.all_correct_decided(),
                    "non-termination against {} on {inputs} (seed {seed})",
                    adversary.name()
                );
                assert!(
                    outcome.is_correct(&inputs),
                    "violation against {}",
                    adversary.name()
                );
            }
        }
    }
}

/// Validity pins the decision on unanimous inputs, for every protocol.
#[test]
fn unanimous_inputs_force_the_decision_value_across_protocols() {
    for value in [Bit::Zero, Bit::One] {
        let cfg = SystemConfig::with_sixth_resilience(13).unwrap();
        let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
        let inputs = InputAssignment::unanimous(13, value);
        let outcome = run_windowed(
            cfg,
            inputs.clone(),
            &builder,
            &mut SplitVoteAdversary::new(),
            1,
            RunLimits::small(),
        );
        assert_eq!(outcome.decided_value(), Some(value));

        let cfg = SystemConfig::new(7, 2).unwrap();
        let inputs = InputAssignment::unanimous(7, value);
        let outcome = run_async(
            cfg,
            inputs.clone(),
            &BenOrBuilder::new(),
            &mut FairAsyncAdversary::default(),
            2,
            RunLimits::small(),
        );
        assert_eq!(outcome.decided_value(), Some(value));

        let outcome = run_async(
            cfg,
            inputs.clone(),
            &BrachaBuilder::new(),
            &mut FairAsyncAdversary::default(),
            3,
            RunLimits::steps(500_000),
        );
        assert_eq!(
            outcome.decided_value(),
            Some(value),
            "bracha under fair scheduling"
        );
    }
}

/// Ben-Or tolerates t crash failures (Aguilera–Toueg setting).
#[test]
fn ben_or_terminates_despite_crashes_and_byzantine_equivocation_stays_safe() {
    let cfg = SystemConfig::new(9, 4).unwrap();
    let inputs = InputAssignment::split_at(9, 2);
    let mut adversary = ScheduledCrashAdversary::new(vec![
        ProcessorId::new(0),
        ProcessorId::new(1),
        ProcessorId::new(2),
        ProcessorId::new(3),
    ]);
    let outcome = run_async(
        cfg,
        inputs.clone(),
        &BenOrBuilder::new(),
        &mut adversary,
        5,
        RunLimits::standard(),
    );
    assert!(outcome.all_correct_decided());
    assert!(outcome.is_correct(&inputs));

    // Byzantine equivocation never breaks Bracha's safety.
    let cfg = SystemConfig::new(7, 2).unwrap();
    let inputs = InputAssignment::unanimous(7, Bit::One);
    let outcome = run_async(
        cfg,
        inputs.clone(),
        &BrachaBuilder::new(),
        &mut EquivocatingAdversary::new(),
        11,
        RunLimits::steps(60_000),
    );
    assert!(outcome.agreement_holds());
    assert!(outcome.validity_holds(&inputs));
}

/// The paper's introduction, as code: adaptive adversaries defeat committees,
/// non-adaptive ones usually do not, quorum protocols survive both.
#[test]
fn committee_contrast_matches_the_papers_argument() {
    let n = 24;
    let t = 2;
    let cfg = SystemConfig::new(n, t).unwrap();
    let inputs = InputAssignment::unanimous(n, Bit::Zero);
    let committee = CommitteeBuilder::random(&cfg, 5, 7);

    let mut killer = ScheduledCrashAdversary::committee_killer(committee.committee().to_vec());
    let stalled = run_async(
        cfg,
        inputs.clone(),
        &committee,
        &mut killer,
        1,
        RunLimits::small(),
    );
    assert!(
        !stalled.all_correct_decided(),
        "the adaptive killer must stall the committee"
    );

    let mut successes = 0;
    for seed in 0..5 {
        let mut non_adaptive = ScheduledCrashAdversary::random(n, t, seed);
        let outcome = run_async(
            cfg,
            inputs.clone(),
            &committee,
            &mut non_adaptive,
            seed,
            RunLimits::small(),
        );
        if outcome.all_correct_decided() && outcome.is_correct(&inputs) {
            successes += 1;
        }
    }
    assert!(
        successes >= 4,
        "non-adaptive crashes should rarely hit the committee ({successes}/5)"
    );

    let mut killer = ScheduledCrashAdversary::committee_killer(committee.committee().to_vec());
    let robust = run_async(
        cfg,
        inputs.clone(),
        &BenOrBuilder::new(),
        &mut killer,
        1,
        RunLimits::standard(),
    );
    assert!(robust.all_correct_decided());
    assert!(robust.is_correct(&inputs));
}

/// Theorem 17's scheduling strategy produces longer chains on split inputs
/// than fair scheduling, while preserving correctness.
#[test]
fn crash_model_balancing_slows_ben_or_without_breaking_it() {
    let cfg = SystemConfig::new(8, 2).unwrap();
    let inputs = InputAssignment::evenly_split(8);
    let mut balanced_chains = 0u64;
    let mut fair_chains = 0u64;
    for seed in 0..3u64 {
        let slow = run_async(
            cfg,
            inputs.clone(),
            &BenOrBuilder::new(),
            &mut LockstepBalancingAdversary::new(),
            seed,
            RunLimits::steps(2_000_000),
        );
        assert!(slow.all_correct_decided());
        assert!(slow.is_correct(&inputs));
        balanced_chains += slow.longest_chain;
        let fair = run_async(
            cfg,
            inputs.clone(),
            &BenOrBuilder::new(),
            &mut FairAsyncAdversary::default(),
            seed,
            RunLimits::steps(2_000_000),
        );
        fair_chains += fair.longest_chain;
    }
    assert!(balanced_chains >= fair_chains);
}

/// The Theorem 5 envelope is consistent: E grows with n, the success bound
/// stays at least 1/2, and the measured split-vote runs dominate it.
#[test]
fn lower_bound_envelope_is_consistent_with_measurements() {
    let c = 1.0 / 6.0;
    assert!(window_bound(200, c) > window_bound(100, c));
    for n in [13usize, 25, 61, 121, 601] {
        assert!(success_probability(n, c) >= 0.5);
    }
    let cfg = SystemConfig::with_sixth_resilience(13).unwrap();
    let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
    let inputs = InputAssignment::evenly_split(13);
    let outcome = run_windowed(
        cfg,
        inputs,
        &builder,
        &mut SplitVoteAdversary::new(),
        3,
        RunLimits::windows(30_000),
    );
    assert!(outcome.all_decided_at.unwrap() as f64 >= window_bound(13, c));
}

/// The Z-set machinery reproduces Lemma 13's separation on the abstract model
/// when invoked through the experiment harness.
#[test]
fn zset_experiment_reports_separation_beyond_t() {
    let table = exp4_zset_separation(Scale::Quick);
    for row in table.rows() {
        assert_eq!(row[6], "true", "{row:?}");
    }
}
