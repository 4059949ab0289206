//! Pins the Probe/Metrics instrumentation contract:
//!
//! 1. **Hook placement** — a [`MetricsProbe`] attached to a core observes,
//!    event by event, exactly the counters the core assembles into
//!    [`RunOutcome::metrics`] at outcome time (for the event-observable
//!    fields; `rounds` and `coin_flips` happen inside processors and are
//!    core-assembled only).
//! 2. **Probe transparency** — instrumenting an execution does not change it:
//!    a probed run produces the same `RunOutcome` as the default
//!    [`NoProbe`] run.

use agreement::adversary::RotatingResetAdversary;
use agreement::model::{Bit, InputAssignment, SystemConfig};
use agreement::protocols::{BenOrBuilder, ResetTolerantBuilder};
use agreement::sim::{
    run_async, run_windowed, AsyncScheduler, ExecutionCore, FairAsyncAdversary, Metrics,
    MetricsProbe, RunLimits, WindowScheduler,
};

fn assert_event_counters_match(observed: Metrics, assembled: Metrics) {
    assert_eq!(observed.messages_sent, assembled.messages_sent);
    assert_eq!(observed.messages_delivered, assembled.messages_delivered);
    assert_eq!(observed.messages_dropped, assembled.messages_dropped);
    assert_eq!(observed.windows, assembled.windows);
    assert_eq!(observed.steps, assembled.steps);
    assert_eq!(observed.resets_consumed, assembled.resets_consumed);
    assert_eq!(observed.crashes, assembled.crashes);
    assert_eq!(observed.max_chain, assembled.max_chain);
    // Not event-observable: only the core can assemble these.
    assert_eq!(observed.rounds, 0);
    assert_eq!(observed.coin_flips, 0);
}

#[test]
fn windowed_probe_matches_core_assembled_metrics() {
    let cfg = SystemConfig::with_sixth_resilience(13).unwrap();
    let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
    let inputs = InputAssignment::evenly_split(13);
    let limits = RunLimits::windows(2_000);

    let mut core = ExecutionCore::with_probe(cfg, inputs.clone(), &builder, 7, MetricsProbe::new());
    let mut adversary = RotatingResetAdversary::new();
    let probed = core.run(&mut WindowScheduler::new(&mut adversary), limits);
    assert_event_counters_match(core.probe().observed(), probed.metrics);
    assert_eq!(probed.metrics.windows, probed.duration);
    assert_eq!(probed.metrics.steps, 0);
    assert!(probed.metrics.resets_consumed > 0, "the adversary resets");
    assert!(
        probed.metrics.max_chain > 0,
        "windowed deliveries grow causal chains too"
    );

    // Instrumentation is invisible: the NoProbe run is identical.
    let plain = run_windowed(
        cfg,
        inputs,
        &builder,
        &mut RotatingResetAdversary::new(),
        7,
        limits,
    );
    assert_eq!(plain, probed);
}

#[test]
fn async_probe_matches_core_assembled_metrics() {
    let cfg = SystemConfig::new(5, 1).unwrap();
    let builder = BenOrBuilder::new();
    let inputs = InputAssignment::evenly_split(5);
    let limits = RunLimits::small();

    let mut core =
        ExecutionCore::with_probe(cfg, inputs.clone(), &builder, 11, MetricsProbe::new());
    let mut adversary = FairAsyncAdversary::default();
    let probed = core.run(&mut AsyncScheduler::new(&mut adversary), limits);
    assert_event_counters_match(core.probe().observed(), probed.metrics);
    assert_eq!(probed.metrics.steps, probed.duration);
    assert_eq!(probed.metrics.windows, 0);
    assert!(probed.metrics.rounds > 0, "Ben-Or digests report rounds");
    assert!(
        probed.metrics.max_chain >= probed.longest_chain,
        "the causal watermark dominates the first-decision chain metric"
    );

    let plain = run_async(
        cfg,
        inputs,
        &builder,
        &mut FairAsyncAdversary::default(),
        11,
        limits,
    );
    assert_eq!(plain, probed);
}

#[test]
fn unanimous_windowed_run_counts_every_broadcast() {
    // 5 processors, full delivery, majority-in-one-window protocol economics:
    // the reset-tolerant protocol broadcasts every window, so sent counts are
    // a multiple of n per window and everything sent in a surviving window is
    // delivered or discarded — the three message counters must reconcile.
    let cfg = SystemConfig::with_sixth_resilience(7).unwrap();
    let builder = ResetTolerantBuilder::recommended(&cfg).unwrap();
    let inputs = InputAssignment::unanimous(7, Bit::One);
    let outcome = run_windowed(
        cfg,
        inputs,
        &builder,
        &mut agreement::sim::FullDeliveryAdversary,
        3,
        RunLimits::small(),
    );
    assert!(outcome.all_correct_decided());
    let metrics = outcome.metrics;
    assert!(metrics.messages_sent >= metrics.messages_delivered);
    assert!(
        metrics.messages_delivered + metrics.messages_dropped <= metrics.messages_sent,
        "every sent message is delivered, dropped, or still buffered"
    );
}

#[test]
fn coin_flips_are_counted_when_the_protocol_actually_flips() {
    // Ben-Or under the lockstep balancing scheduler (Theorem 17's strategy)
    // is forced into inconclusive rounds, so its processors must consult
    // their private coins.
    use agreement::adversary::LockstepBalancingAdversary;
    let cfg = SystemConfig::new(6, 1).unwrap();
    let outcome = run_async(
        cfg,
        InputAssignment::evenly_split(6),
        &BenOrBuilder::new(),
        &mut LockstepBalancingAdversary::new(),
        21,
        RunLimits::steps(100_000),
    );
    assert!(
        outcome.metrics.coin_flips > 0,
        "balanced rounds force coin flips"
    );
}
