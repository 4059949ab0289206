//! [`ProtocolBuilder::rebuild`] against [`ProtocolBuilder::build`], for every
//! builder of this crate: an instance that has run a whole execution, been
//! reset and counted the first votes of that execution again, and is then
//! rebuilt, must be indistinguishable from a new one — in its digest and in
//! what it sends, decides and draws over an execution with the other input
//! split — and must be rebuilt in place exactly when it is the builder's own
//! with equal parameters. For the protocols that restart on a reset (all but
//! the reset-tolerant one, which resynchronizes), such an instance reset once
//! more must be indistinguishable from a new one too: it holds nothing a
//! reset keeps.

use agreement_model::{
    Bit, Payload, ProcessorId, Protocol, ProtocolBuilder, SystemConfig, Thresholds,
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

/// Messages a processor heard, in order, each with its sender.
type Heard = Vec<(ProcessorId, Payload)>;

/// Runs `n` instances of `builder` with inputs `input` under full, in-order
/// delivery until nothing is in flight (or 20 000 deliveries). Returns
/// processor 0's instance, every message it was sent, how many of them it
/// heard before it first moved (its digest changed or it decided), and its
/// decision.
fn run(
    builder: &dyn ProtocolBuilder,
    cfg: SystemConfig,
    input: impl Fn(ProcessorId) -> Bit,
) -> (Box<dyn Protocol>, Heard, usize, Option<Bit>) {
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
            let moved = instances[0].digest() != started || ctxs[0].decided.is_some();
            if unmoved.is_none() && moved {
                unmoved = Some(heard_by_zero.len() - 1);
            }
        }
    }
    let unmoved = unmoved.unwrap_or(heard_by_zero.len());
    (
        instances.swap_remove(0),
        heard_by_zero,
        unmoved,
        ctxs[0].decided,
    )
}

/// Processor 0's instance after a whole execution it decides in, reset, and
/// then handed again the messages it heard first, up to the one that moved
/// it: its votes and broadcast state hold the first keys of a run with
/// these inputs, which a rebuilt instance must not carry over. Also returns
/// that message, the one that moved it.
fn dirtied_instance(
    builder: &dyn ProtocolBuilder,
    cfg: SystemConfig,
) -> (Box<dyn Protocol>, (ProcessorId, Payload)) {
    let (mut zero, heard, unmoved, decided) = run(builder, cfg, one_dissenter);
    assert!(
        decided.is_some(),
        "{}: the dirtying run must get processor 0 to decide",
        builder.name()
    );
    assert!(unmoved > 0, "{}: processor 0 moved at once", builder.name());
    let ctx = &mut TestCtx::with_config(ProcessorId::new(0), Bit::One, cfg);
    zero.on_reset(ctx);
    for (from, payload) in &heard[..unmoved] {
        zero.on_message(*from, payload, ctx);
    }
    (zero, heard[unmoved].clone())
}

/// Compares `slot` with a new instance of `builder` for `(id, input)`, over
/// the digest, `on_start` and every message of `script`.
fn assert_equals_build(
    builder: &dyn ProtocolBuilder,
    slot: &mut dyn Protocol,
    id: ProcessorId,
    input: Bit,
    cfg: SystemConfig,
    script: &[(ProcessorId, Payload)],
    context: &str,
) {
    let mut fresh = builder.build(id, input, &cfg);
    assert_eq!(slot.digest(), fresh.digest(), "{context}: digest");
    let ctx = || TestCtx::with_config(id, input, cfg);
    let (mut slot_ctx, mut fresh_ctx) = (ctx(), ctx());
    slot.on_start(&mut slot_ctx);
    fresh.on_start(&mut fresh_ctx);
    assert_eq!(
        effects(&mut slot_ctx),
        effects(&mut fresh_ctx),
        "{context}: start"
    );
    for (step, (from, payload)) in script.iter().enumerate() {
        slot.on_message(*from, payload, &mut slot_ctx);
        fresh.on_message(*from, payload, &mut fresh_ctx);
        assert_eq!(
            effects(&mut slot_ctx),
            effects(&mut fresh_ctx),
            "{context}: callback {step}"
        );
        assert_eq!(slot.digest(), fresh.digest(), "{context}: digest {step}");
    }
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
    assert_equals_build(builder, slot.as_mut(), id, input, cfg, script, &context);
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
    let (mut slot, mover) = dirtied_instance(builder, cfg);
    let (_, script, _, _) = run(builder, cfg, |id| !one_dissenter(id));
    // The dirt is in the votes: the message that moved processor 0 in the
    // dirtying run moves an identically dirtied instance, not a new one.
    let moves = |mut instance: Box<dyn Protocol>| {
        let ctx = &mut TestCtx::with_config(ProcessorId::new(0), Bit::One, cfg);
        let before = instance.digest();
        instance.on_message(mover.0, &mover.1, ctx);
        instance.digest() != before || ctx.decided.is_some()
    };
    let fresh = builder.build(ProcessorId::new(0), Bit::One, &cfg);
    let twin = dirtied_instance(builder, cfg).0;
    let moved = (moves(twin), moves(fresh));
    assert_eq!(moved, (true, false), "the instance must start out dirty");
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
        let mut slot = dirtied_instance(stranger, stranger_cfg).0;
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
    let mut slot = dirtied_instance(&baseline, cfg).0;
    let (_, script, _, _) = run(&baseline, cfg, |id| !one_dissenter(id));
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

/// A dirtied instance of `builder` (processor 0's, input 1) reset with
/// processor `id`'s context must be indistinguishable from `build(id, 1)`,
/// for every `id`: nothing it held survives the reset.
fn check_reset_equals_build(builder: &dyn ProtocolBuilder, cfg: SystemConfig) {
    let (_, script, _, _) = run(builder, cfg, |id| !one_dissenter(id));
    for id in ProcessorId::all(cfg.n()) {
        let mut slot = dirtied_instance(builder, cfg).0;
        slot.on_reset(&mut TestCtx::with_config(id, Bit::One, cfg));
        let context = format!("{} reset as {id}", builder.name());
        assert_equals_build(builder, slot.as_mut(), id, Bit::One, cfg, &script, &context);
    }
}

#[test]
fn reset_equals_build_for_the_protocols_that_restart() {
    check_reset_equals_build(&BenOrBuilder::new(), SystemConfig::new(7, 2).unwrap());
    check_reset_equals_build(&BrachaBuilder::new(), third(7));
    // Members and observers alike.
    let cfg = third(40);
    check_reset_equals_build(&CommitteeBuilder::sampled(&cfg, 7, 11), cfg);
    check_reset_equals_build(&CommitteeBuilder::random(&cfg, 7, 11), cfg);
}

/// Rebuilds, at a width where every tally spans at least three voter words,
/// an instance of `builder` for processor `id` that has heard the first
/// half of `script`, and compares it with `build` over the whole script.
/// The script's first voters have the highest identities, so the dirt lies
/// in the top words: a clear that left any word but the first one as it
/// was would keep those votes as cast, and the rebuilt instance would
/// count the script's second half short of where a new one moves.
fn check_wide_rebuild(
    builder: &dyn ProtocolBuilder,
    cfg: SystemConfig,
    id: ProcessorId,
    script: &[(ProcessorId, Payload)],
) {
    assert!(cfg.n() > 128, "a tally of n = {} spans two words", cfg.n());
    let dirt = &script[..script.len() / 2];
    // The voter is the sender, or the origin of a reliable broadcast.
    let voter = |(from, payload): &(ProcessorId, Payload)| match payload {
        Payload::Rbc { origin, .. } => origin.index(),
        _ => from.index(),
    };
    assert!(
        dirt.iter().any(|heard| voter(heard) >= 128),
        "{}: no voter of the third word in the dirt",
        builder.name()
    );
    let mut slot = builder.build(id, Bit::One, &cfg);
    let ctx = &mut TestCtx::with_config(id, Bit::One, cfg);
    slot.on_start(ctx);
    for (from, payload) in dirt {
        slot.on_message(*from, payload, ctx);
    }
    let before = address(slot.as_ref());
    assert_rebuild_equals_build(builder, &mut slot, id, Bit::One, cfg, script);
    assert_eq!(address(slot.as_ref()), before, "{}", builder.name());
}

/// `payload` from every processor of `senders`, in that order.
fn from_each(senders: impl IntoIterator<Item = usize>, payload: &Payload) -> Heard {
    senders
        .into_iter()
        .map(|sender| (ProcessorId::new(sender), payload.clone()))
        .collect()
}

#[test]
fn every_builder_rebuilds_a_tally_of_three_words_and_more() {
    let report = Payload::Report {
        round: 1,
        value: Bit::One,
    };
    // Ben-Or and the reset-tolerant protocol count round-1 reports, highest
    // sender first.
    let ben_or = SystemConfig::new(129, 2).unwrap();
    let script = from_each((0..129).rev(), &report);
    check_wide_rebuild(&BenOrBuilder::new(), ben_or, ProcessorId::new(0), &script);
    let sixth = SystemConfig::with_sixth_resilience(130).unwrap();
    let reset_tolerant = ResetTolerantBuilder::recommended(&sixth).unwrap();
    let script = from_each((0..130).rev(), &report);
    check_wide_rebuild(&reset_tolerant, sixth, ProcessorId::new(0), &script);
    // Bracha counts a vote once reliable broadcast accepts it: 2t + 1
    // readies for each origin, highest origin first.
    let bracha = third(130);
    let vote = Payload::BrachaVote {
        round: 1,
        phase: 1,
        value: Some(Bit::One),
    };
    let script: Heard = (0..130)
        .rev()
        .flat_map(|origin| {
            let ready = Payload::Rbc {
                step: agreement_model::RbcStep::Ready,
                origin: ProcessorId::new(origin),
                broadcast_id: crate::bracha::Bracha::broadcast_id(1, 1),
                inner: Box::new(vote.clone()),
            };
            from_each(0..2 * bracha.t() + 1, &ready)
        })
        .collect();
    check_wide_rebuild(&BrachaBuilder::new(), bracha, ProcessorId::new(0), &script);
    // A committee whose members all lie above index 128: an observer counts
    // their announcements, a member their proposals.
    let committee = third(200);
    let members: Vec<usize> = (130..200).step_by(10).collect();
    let roster = || members.iter().copied().map(ProcessorId::new).collect();
    for builder in [
        CommitteeBuilder::with_committee(roster()),
        CommitteeBuilder::sampled_with_committee(roster()),
    ] {
        let announce =
            Payload::Committee(agreement_model::CommitteeMsg::Announce { value: Bit::One });
        let script = from_each(members.iter().copied(), &announce);
        check_wide_rebuild(&builder, committee, ProcessorId::new(0), &script);
        let proposal =
            Payload::Committee(agreement_model::CommitteeMsg::Proposal { value: Bit::One });
        let script = from_each(members.iter().copied(), &proposal);
        check_wide_rebuild(&builder, committee, ProcessorId::new(members[0]), &script);
    }
}
