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

use std::collections::BTreeSet;

use agreement::adversary::{find_adversary, registry, AdversaryBuildCtx, RotatingResetAdversary};
use agreement::core::experiments::Scale;
use agreement::core::{scenario_registry, ScenarioSpec};
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

/// One trial of `spec` at `seed`, assembled from the spec's public parts and
/// run twice through `BuiltAdversary::run` — once on a `MetricsProbe` core,
/// once on the default `NoProbe` core.
fn assert_probed_run_is_exact_and_invisible(spec: &ScenarioSpec, seed: u64) {
    let context = format!("{} seed {seed}", spec.id());
    let cfg = spec.config().expect(&context);
    let instance = spec.protocol.instantiate(&cfg).expect(&context);
    let builder = instance.builder.as_ref();
    let inputs = spec.inputs.materialize(spec.n);
    let factory = spec.factory().expect(&context);
    let targets = spec
        .targets
        .clone()
        .unwrap_or_else(|| instance.committee.clone());
    let ctx = AdversaryBuildCtx::new(cfg, seed).with_targets(targets);

    let mut core =
        ExecutionCore::with_probe(cfg, inputs.clone(), builder, seed, MetricsProbe::new());
    let probed = factory.build(&ctx).run(&mut core, spec.limits);
    assert_event_counters_match(core.probe().observed(), probed.metrics);

    let mut core = ExecutionCore::new(cfg, inputs, builder, seed);
    let plain = factory.build(&ctx).run(&mut core, spec.limits);
    assert_eq!(plain, probed, "{context}: the probe changed the execution");
}

/// Every adversary factory, under every protocol and input pattern the quick
/// registry pairs it with at n <= 32 (tier-1 runs unoptimised; the larger
/// rows stay out), meets both halves of the contract through the one entry
/// point campaigns use — partial synchrony and Byzantine corruption included.
#[test]
fn every_registry_adversary_runs_probed_through_the_built_adversary() {
    let mut specs: Vec<ScenarioSpec> = scenario_registry(Scale::Quick)
        .into_iter()
        .filter(|spec| spec.n <= 32)
        .collect();
    // No registered scenario names a search decoder (the search drives them
    // by genome): re-point one spec of the right model at each.
    for name in ["search-window", "search-async", "search-partial-sync"] {
        let model = find_adversary(name).expect("registered").model();
        let mut spec = specs
            .iter()
            .find(|spec| spec.model().expect("registered") == model)
            .expect("the quick registry spans all three models")
            .clone();
        spec.adversary = name.to_string();
        specs.push(spec);
    }
    let covered: BTreeSet<&str> = specs.iter().map(|spec| spec.adversary.as_str()).collect();
    let shipped: BTreeSet<&str> = registry().iter().map(|factory| factory.name()).collect();
    assert_eq!(covered, shipped, "every factory is exercised");

    for spec in &specs {
        for seed in [spec.base_seed, spec.base_seed.wrapping_add(1)] {
            assert_probed_run_is_exact_and_invisible(spec, seed);
        }
    }
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
