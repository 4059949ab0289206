//! [`ProtocolBuilder::rebuild`] against [`ProtocolBuilder::build`], for every
//! builder of this crate: an instance that has run a whole execution, been
//! reset and counted the first votes of that execution again, and is then
//! rebuilt, must be indistinguishable from a new one — in its digest and in
//! what it sends, decides and draws over an execution with the other input
//! split — and must be rebuilt in place exactly when it is the builder's own
//! with equal parameters.

use agreement_model::{
    Bit, Payload, ProcessorId, Protocol, ProtocolBuilder, StateDigest, SystemConfig, Thresholds,
};

use crate::test_ctx::TestCtx;
use crate::{BenOrBuilder, BrachaBuilder, CommitteeBuilder, ResetTolerantBuilder};

/// Everything `ctx` observed so far, the sends taken out.
fn effects(ctx: &mut TestCtx) -> (Vec<(ProcessorId, Payload)>, Option<Bit>, u64) {
    (std::mem::take(&mut ctx.sent), ctx.decided, ctx.draws)
}

/// Where the box points: a rebuild in place keeps it, a `build` cannot (the
/// new box exists before the old one is dropped).
fn address(slot: &dyn Protocol) -> *const u8 {
    std::ptr::from_ref(slot).cast()
}

/// The inputs of the dirtying run: one dissenter, so every protocol still
/// decides in its first round.
fn one_dissenter(id: ProcessorId) -> Bit {
    Bit::from(id.index() != 1)
}

/// Runs `n` instances of `builder` with inputs `input` under full, in-order
/// delivery until nothing is in flight (or 20 000 deliveries). Returns
/// processor 0's instance, every message it was sent, and how many of them
/// it heard before its digest first changed.
fn run(
    builder: &dyn ProtocolBuilder,
    cfg: SystemConfig,
    input: impl Fn(ProcessorId) -> Bit,
) -> (Box<dyn Protocol>, Vec<(ProcessorId, Payload)>, usize) {
    let ids: Vec<ProcessorId> = ProcessorId::all(cfg.n()).collect();
    let mut instances: Vec<Box<dyn Protocol>> = ids
        .iter()
        .map(|&id| builder.build(id, input(id), &cfg))
        .collect();
    let mut ctxs: Vec<TestCtx> = ids
        .iter()
        .map(|&id| TestCtx::with_config(id, input(id), cfg))
        .collect();
    let mut heard_by_zero = Vec::new();
    let mut in_flight = std::collections::VecDeque::new();
    for (instance, ctx) in instances.iter_mut().zip(&mut ctxs) {
        instance.on_start(ctx);
        in_flight.extend(
            ctx.sent
                .drain(..)
                .map(|(to, payload)| (ctx.id, to, payload)),
        );
    }
    let started = instances[0].digest();
    let mut unmoved = None;
    for _ in 0..20_000 {
        let Some((from, to, payload)) = in_flight.pop_front() else {
            break;
        };
        let ctx = &mut ctxs[to.index()];
        instances[to.index()].on_message(from, &payload, ctx);
        in_flight.extend(
            ctx.sent
                .drain(..)
                .map(|(to, payload)| (ctx.id, to, payload)),
        );
        if to.index() == 0 {
            heard_by_zero.push((from, payload));
            if unmoved.is_none() && instances[0].digest() != started {
                unmoved = Some(heard_by_zero.len() - 1);
            }
        }
    }
    let unmoved = unmoved.unwrap_or(heard_by_zero.len());
    (instances.swap_remove(0), heard_by_zero, unmoved)
}

/// Processor 0's instance after a whole execution it decides in, reset, and
/// then handed again the messages it heard first, up to the one that moved
/// it: its votes and broadcast state hold the first keys of a run with
/// these inputs, which a rebuilt instance must not carry over.
fn dirtied_instance(builder: &dyn ProtocolBuilder, cfg: SystemConfig) -> Box<dyn Protocol> {
    let (mut zero, heard, unmoved) = run(builder, cfg, one_dissenter);
    assert!(
        zero.digest().decided.is_some(),
        "{}: the dirtying run must get processor 0 to decide",
        builder.name()
    );
    assert!(unmoved > 0, "{}: processor 0 moved at once", builder.name());
    let ctx = &mut TestCtx::with_config(ProcessorId::new(0), Bit::One, cfg);
    zero.on_reset(ctx);
    for (from, payload) in &heard[..unmoved] {
        zero.on_message(*from, payload, ctx);
    }
    zero
}

/// Rebuilds `slot` with `builder` for `(id, input)` and compares it with a
/// new instance over `on_start` and every message of `script`.
fn assert_rebuild_equals_build(
    builder: &dyn ProtocolBuilder,
    slot: &mut Box<dyn Protocol>,
    id: ProcessorId,
    input: Bit,
    cfg: SystemConfig,
    script: &[(ProcessorId, Payload)],
) {
    let context = format!("{} rebuilt for {id} with input {input}", builder.name());
    builder.rebuild(slot, id, input, &cfg);
    let mut fresh = builder.build(id, input, &cfg);
    assert_eq!(slot.digest(), fresh.digest(), "{context}: digest");
    let ctx = || TestCtx::with_config(id, input, cfg);
    let (mut rebuilt_ctx, mut fresh_ctx) = (ctx(), ctx());
    slot.on_start(&mut rebuilt_ctx);
    fresh.on_start(&mut fresh_ctx);
    assert_eq!(
        effects(&mut rebuilt_ctx),
        effects(&mut fresh_ctx),
        "{context}: start"
    );
    for (step, (from, payload)) in script.iter().enumerate() {
        slot.on_message(*from, payload, &mut rebuilt_ctx);
        fresh.on_message(*from, payload, &mut fresh_ctx);
        assert_eq!(
            effects(&mut rebuilt_ctx),
            effects(&mut fresh_ctx),
            "{context}: callback {step}"
        );
        assert_eq!(slot.digest(), fresh.digest(), "{context}: digest {step}");
    }
}

/// The whole contract for one builder: its own dirtied instance is rebuilt
/// in place for each identity in `ids`, and an instance of each builder in
/// `strangers` — another protocol, or this one with other parameters — is
/// replaced; either way nothing tells the result from `build` over what
/// processor 0 hears in a run with the other input split, whose votes the
/// dirtied instance never counted.
fn check_builder(
    builder: &dyn ProtocolBuilder,
    cfg: SystemConfig,
    ids: &[usize],
    strangers: &[(&dyn ProtocolBuilder, SystemConfig)],
) {
    let mut slot = dirtied_instance(builder, cfg);
    let (_, script, _) = run(builder, cfg, |id| !one_dissenter(id));
    let initial: StateDigest = builder.build(ProcessorId::new(0), Bit::One, &cfg).digest();
    assert_ne!(slot.digest(), initial, "the instance must start out dirty");
    for (&id, input) in ids.iter().zip([Bit::Zero, Bit::One].into_iter().cycle()) {
        let before = address(slot.as_ref());
        assert_rebuild_equals_build(
            builder,
            &mut slot,
            ProcessorId::new(id),
            input,
            cfg,
            &script,
        );
        assert_eq!(
            address(slot.as_ref()),
            before,
            "{}: its own instance is reset in place",
            builder.name()
        );
    }
    for &(stranger, stranger_cfg) in strangers {
        let mut slot = dirtied_instance(stranger, stranger_cfg);
        let before = address(slot.as_ref());
        assert_rebuild_equals_build(
            builder,
            &mut slot,
            ProcessorId::new(2),
            Bit::One,
            cfg,
            &script,
        );
        assert_ne!(
            address(slot.as_ref()),
            before,
            "{}: an instance of {} at n={} is replaced, not adopted",
            builder.name(),
            stranger.name(),
            stranger_cfg.n()
        );
    }
}

fn third(n: usize) -> SystemConfig {
    SystemConfig::with_third_resilience(n).unwrap()
}

#[test]
fn ben_or_rebuild_equals_build() {
    let cfg = SystemConfig::new(7, 2).unwrap();
    check_builder(
        &BenOrBuilder::new(),
        cfg,
        &[0, 1, 6],
        &[
            (&BrachaBuilder::new(), SystemConfig::new(7, 2).unwrap()),
            (&BenOrBuilder::new(), SystemConfig::new(7, 1).unwrap()),
            (&BenOrBuilder::new(), SystemConfig::new(9, 2).unwrap()),
        ],
    );
}

#[test]
fn bracha_rebuild_equals_build() {
    check_builder(
        &BrachaBuilder::new(),
        third(7),
        &[0, 1, 6],
        &[
            (&BenOrBuilder::new(), third(7)),
            (&BrachaBuilder::new(), SystemConfig::new(7, 1).unwrap()),
            (&BrachaBuilder::new(), third(10)),
        ],
    );
}

#[test]
fn reset_tolerant_rebuild_equals_build() {
    let cfg = SystemConfig::with_sixth_resilience(13).unwrap();
    let recommended = ResetTolerantBuilder::recommended(&cfg).unwrap();
    let loose = ResetTolerantBuilder::with_thresholds(Thresholds::new(8, 8, 7));
    let wide = SystemConfig::with_sixth_resilience(70).unwrap();
    check_builder(
        &recommended,
        cfg,
        &[0, 1, 12],
        &[
            (&loose, cfg),
            (&BenOrBuilder::new(), cfg),
            // Equal thresholds, but voter sets sized for another system.
            (&recommended, wide),
        ],
    );
    check_builder(&loose, cfg, &[5], &[(&recommended, cfg)]);
}

#[test]
fn committee_rebuild_equals_build() {
    let cfg = third(40);
    let sampled = CommitteeBuilder::sampled(&cfg, 7, 11);
    let baseline = CommitteeBuilder::random(&cfg, 7, 11);
    let member = sampled.committee()[0].index();
    let observer = (0..40)
        .find(|&i| !sampled.committee().contains(&ProcessorId::new(i)))
        .unwrap();
    check_builder(
        &sampled,
        cfg,
        &[member, observer, member],
        &[
            (&CommitteeBuilder::sampled(&cfg, 7, 12), cfg),
            (&CommitteeBuilder::sampled(&cfg, 10, 11), cfg),
            // An equal roster is still another roster: the instances keep
            // the builder's own allocation.
            (&CommitteeBuilder::sampled(&cfg, 7, 11), cfg),
            (&baseline, cfg),
            (&BenOrBuilder::new(), cfg),
        ],
    );
    check_builder(&baseline, cfg, &[0, 39], &[(&sampled, cfg)]);
    // A clone shares the roster, and so the instances.
    let mut slot = dirtied_instance(&baseline, cfg);
    let (_, script, _) = run(&baseline, cfg, |id| !one_dissenter(id));
    let before = address(slot.as_ref());
    assert_rebuild_equals_build(
        &baseline.clone(),
        &mut slot,
        ProcessorId::new(3),
        Bit::One,
        cfg,
        &script,
    );
    assert_eq!(address(slot.as_ref()), before);
}
