//! Data-driven adversary construction: the [`AdversaryFactory`] row type and
//! the [`registry`] table of every adversary this reproduction ships.
//!
//! The scenario layer (`agreement-core`) describes a workload as *data* — a
//! protocol crossed with an adversary, an input pattern, a model and a size —
//! and needs to turn the adversary part of that description into a live
//! scheduler at trial time. Each adversary therefore has one row here: a
//! named constructor from an [`AdversaryBuildCtx`] (system configuration,
//! per-trial seed, and optional target set), tagged with the
//! [`ModelDescriptor`] of the execution model it schedules. The [`registry`]
//! enumerates every paper adversary plus the benign baselines of
//! `agreement-sim`, so arbitrary combinations can be expanded from tables
//! instead of hand-rolled loops.
//!
//! A factory builds a [`BuiltAdversary`]; the campaign runs it through
//! [`BuiltAdversary::run`] without matching on the model, so adding an
//! adversary is adding a row.
//!
//! | Factory name | Model | Built adversary |
//! |---|---|---|
//! | `full-delivery` | windowed | [`FullDeliveryAdversary`] |
//! | `rotating-reset` | windowed | [`RotatingResetAdversary`] |
//! | `targeted-reset` | windowed | [`TargetedResetAdversary`] |
//! | `split-vote` | windowed | [`SplitVoteAdversary::new`] |
//! | `split-vote+resets` | windowed | [`SplitVoteAdversary::with_resets`] |
//! | `polarizing` | windowed | [`PolarizingAdversary`] |
//! | `fair-round-robin` | async | [`FairAsyncAdversary`] |
//! | `lockstep-balancing` | async | [`LockstepBalancingAdversary`] |
//! | `scheduled-crash` | async | [`ScheduledCrashAdversary::new`] on the targets (default: first `t`) |
//! | `withholding-crash` | async | [`ScheduledCrashAdversary::withholding`] on the targets (default: first `t`) |
//! | `non-adaptive-crash` | async | [`ScheduledCrashAdversary::random`] from the trial seed |
//! | `adaptive-committee-killer` | async | [`ScheduledCrashAdversary::committee_killer`] on the targets (default: first `t`) |
//! | `equivocating-byzantine` | async | [`EquivocatingAdversary`] |
//! | `benign-eventual` | partial-sync | [`BenignEventualAdversary`] |
//! | `search-window` | windowed | [`SearchWindowAdversary`] on a seed-derived genome |
//! | `search-async` | async | [`SearchAsyncAdversary`] on a seed-derived genome |
//! | `search-partial-sync` | partial-sync | [`SearchPartialSyncAdversary`] on a seed-derived genome |
//! | `gst-procrastinator` | partial-sync | [`GstProcrastinatorAdversary`] at the documented defaults |
//! | `post-gst-omission` | partial-sync | [`PostGstOmissionAdversary`] on the targets (default: first `t`) |

use agreement_model::{ProcessorId, SystemConfig};
use agreement_sim::{
    BenignEventualAdversary, FairAsyncAdversary, FullDeliveryAdversary, ModelDescriptor, ASYNC,
    PARTIAL_SYNC, WINDOWED,
};

pub use agreement_sim::BuiltAdversary;

use crate::byzantine::EquivocatingAdversary;
use crate::crash::ScheduledCrashAdversary;
use crate::lockstep::LockstepBalancingAdversary;
use crate::partial_sync::{GstProcrastinatorAdversary, PostGstOmissionAdversary};
use crate::polarizing::PolarizingAdversary;
use crate::search::{build_from_genome, Genome, DEFAULT_TAPE_LEN};
use crate::split_vote::SplitVoteAdversary;
use crate::strongly_adaptive::{RotatingResetAdversary, TargetedResetAdversary};

/// Everything a factory may draw on when constructing an adversary instance.
#[derive(Debug, Clone)]
pub struct AdversaryBuildCtx {
    /// The static system configuration (`n`, `t`) of the execution.
    pub cfg: SystemConfig,
    /// The per-trial seed. Seeded adversaries (e.g. `non-adaptive-crash`)
    /// derive their private randomness from it; deterministic adversaries
    /// ignore it.
    pub seed: u64,
    /// Explicit processor targets for targeting adversaries (the committee
    /// for `adaptive-committee-killer`, the victim list for the crash
    /// schedulers, the omitted senders for `post-gst-omission`). Empty when
    /// the scenario supplies none; targeting factories then fall back to
    /// their documented default.
    pub targets: Vec<ProcessorId>,
}

impl AdversaryBuildCtx {
    /// A context with no explicit targets.
    pub fn new(cfg: SystemConfig, seed: u64) -> Self {
        AdversaryBuildCtx {
            cfg,
            seed,
            targets: Vec::new(),
        }
    }

    /// Attaches explicit targets (committee members, crash victims).
    pub fn with_targets(mut self, targets: Vec<ProcessorId>) -> Self {
        self.targets = targets;
        self
    }

    /// The targets to aim at: the explicit list when given, otherwise the
    /// first `t` processors (the canonical default victim set).
    fn targets_or_first_t(&self) -> Vec<ProcessorId> {
        if self.targets.is_empty() {
            ProcessorId::all(self.cfg.t()).collect()
        } else {
            self.targets.clone()
        }
    }
}

/// A named, model-tagged adversary constructor, usable from data: one row of
/// the [`registry`].
///
/// Rows are stateless and shared across the campaign worker threads; a fresh
/// adversary instance is built per trial.
#[derive(Debug)]
pub struct AdversaryFactory {
    name: &'static str,
    model: &'static ModelDescriptor,
    build: fn(&AdversaryBuildCtx) -> BuiltAdversary,
}

impl AdversaryFactory {
    /// The registry name, equal to the built adversary's `name()`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Which execution model the built adversary schedules.
    pub fn model(&self) -> &'static ModelDescriptor {
        self.model
    }

    /// Builds a fresh adversary instance for one trial.
    pub fn build(&self, ctx: &AdversaryBuildCtx) -> BuiltAdversary {
        (self.build)(ctx)
    }
}

/// A genome-decoded schedule of `model` for the coverage-guided search: the
/// per-trial seed is expanded into a random choice tape, so every trial of a
/// campaign explores a different schedule (a seed-range sweep *is* the
/// random-walk phase of the search).
fn seeded_search(model: &ModelDescriptor, ctx: &AdversaryBuildCtx) -> BuiltAdversary {
    let genome = Genome::from_seed(model.id(), ctx.seed, DEFAULT_TAPE_LEN);
    build_from_genome(&genome, &ctx.cfg).expect("the tag is a shipped model's id")
}

/// Every adversary factory this crate ships, benign baselines included.
static REGISTRY: [AdversaryFactory; 19] = [
    // Benign baseline: full delivery, no resets.
    AdversaryFactory {
        name: "full-delivery",
        model: &WINDOWED,
        build: |_| BuiltAdversary::windowed(Box::new(FullDeliveryAdversary)),
    },
    // Resets a rotating set of `t` processors every window.
    AdversaryFactory {
        name: "rotating-reset",
        model: &WINDOWED,
        build: |_| BuiltAdversary::windowed(Box::new(RotatingResetAdversary::new())),
    },
    // Resets the `t` most advanced processors every window.
    AdversaryFactory {
        name: "targeted-reset",
        model: &WINDOWED,
        build: |_| BuiltAdversary::windowed(Box::new(TargetedResetAdversary::new())),
    },
    // The split-vote balancing adversary (delivery exclusion only).
    AdversaryFactory {
        name: "split-vote",
        model: &WINDOWED,
        build: |_| BuiltAdversary::windowed(Box::new(SplitVoteAdversary::new())),
    },
    // The split-vote balancing adversary, also spending the reset budget.
    AdversaryFactory {
        name: "split-vote+resets",
        model: &WINDOWED,
        build: |_| BuiltAdversary::windowed(Box::new(SplitVoteAdversary::with_resets())),
    },
    // Shows half the processors a zero-leaning view, half a one-leaning one.
    AdversaryFactory {
        name: "polarizing",
        model: &WINDOWED,
        build: |_| BuiltAdversary::windowed(Box::new(PolarizingAdversary::new())),
    },
    // Benign baseline: fair round-robin delivery, no failures.
    AdversaryFactory {
        name: "fair-round-robin",
        model: &ASYNC,
        build: |_| BuiltAdversary::asynchronous(Box::new(FairAsyncAdversary::default())),
    },
    // The Theorem 17 balancing scheduler for forgetful protocols.
    AdversaryFactory {
        name: "lockstep-balancing",
        model: &ASYNC,
        build: |_| BuiltAdversary::asynchronous(Box::new(LockstepBalancingAdversary::new())),
    },
    // Crashes the targets (default: the first `t` processors) up front; their
    // earlier messages may still be delivered.
    AdversaryFactory {
        name: "scheduled-crash",
        model: &ASYNC,
        build: |ctx| {
            let victims = ctx.targets_or_first_t();
            BuiltAdversary::asynchronous(Box::new(ScheduledCrashAdversary::new(victims)))
        },
    },
    // Crashes the targets (default: the first `t` processors) and withholds
    // everything they ever sent.
    AdversaryFactory {
        name: "withholding-crash",
        model: &ASYNC,
        build: |ctx| {
            let victims = ctx.targets_or_first_t();
            BuiltAdversary::asynchronous(Box::new(ScheduledCrashAdversary::withholding(victims)))
        },
    },
    // Picks `t` random victims from the trial seed before the execution
    // starts (the committee comparison's non-adaptive adversary).
    AdversaryFactory {
        name: "non-adaptive-crash",
        model: &ASYNC,
        build: |ctx| {
            let (n, t) = (ctx.cfg.n(), ctx.cfg.t());
            BuiltAdversary::asynchronous(Box::new(ScheduledCrashAdversary::random(n, t, ctx.seed)))
        },
    },
    // Adaptively silences the (publicly known) committee passed as targets,
    // falling back to the first `t` processors when no targets are given so
    // the adversary never silently degenerates to fair scheduling.
    AdversaryFactory {
        name: "adaptive-committee-killer",
        model: &ASYNC,
        build: |ctx| {
            let committee = ctx.targets_or_first_t();
            BuiltAdversary::asynchronous(Box::new(ScheduledCrashAdversary::committee_killer(
                committee,
            )))
        },
    },
    // Declares the first `t` processors Byzantine and equivocates on their
    // value-carrying messages.
    AdversaryFactory {
        name: "equivocating-byzantine",
        model: &ASYNC,
        build: |_| BuiltAdversary::asynchronous(Box::new(EquivocatingAdversary::new())),
    },
    // Benign partial-synchrony baseline: GST 0, eager fair delivery.
    AdversaryFactory {
        name: "benign-eventual",
        model: &PARTIAL_SYNC,
        build: |_| BuiltAdversary::partial_sync(Box::new(BenignEventualAdversary::default())),
    },
    // Stalls everything until a late GST, then lets the model's enforced
    // Δ-paced delivery finish the run: the strongest delay attack partial
    // synchrony admits.
    AdversaryFactory {
        name: "gst-procrastinator",
        model: &PARTIAL_SYNC,
        build: |_| BuiltAdversary::partial_sync(Box::new(GstProcrastinatorAdversary::default())),
    },
    // Omits the messages of the targets (default: the first `t` processors)
    // under immediate synchrony — send-omission faults.
    AdversaryFactory {
        name: "post-gst-omission",
        model: &PARTIAL_SYNC,
        build: |ctx| {
            BuiltAdversary::partial_sync(Box::new(PostGstOmissionAdversary::new(
                ctx.targets_or_first_t(),
                PostGstOmissionAdversary::DEFAULT_DELTA,
            )))
        },
    },
    AdversaryFactory {
        name: "search-window",
        model: &WINDOWED,
        build: |ctx| seeded_search(&WINDOWED, ctx),
    },
    AdversaryFactory {
        name: "search-async",
        model: &ASYNC,
        build: |ctx| seeded_search(&ASYNC, ctx),
    },
    // GST, Δ and the omissions are decoded from the tape header.
    AdversaryFactory {
        name: "search-partial-sync",
        model: &PARTIAL_SYNC,
        build: |ctx| seeded_search(&PARTIAL_SYNC, ctx),
    },
];

/// The full adversary registry: every paper adversary plus the benign
/// baselines, constructible from data by name.
pub fn registry() -> &'static [AdversaryFactory] {
    &REGISTRY
}

/// Looks an adversary factory up by its registry name.
pub fn find_adversary(name: &str) -> Option<&'static AdversaryFactory> {
    registry().iter().find(|f| f.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn ctx(n: usize, t: usize, seed: u64) -> AdversaryBuildCtx {
        AdversaryBuildCtx::new(SystemConfig::new(n, t).unwrap(), seed)
    }

    fn build(name: &str, ctx: &AdversaryBuildCtx) -> BuiltAdversary {
        find_adversary(name).expect("registered").build(ctx)
    }

    #[test]
    fn registry_names_are_unique_and_match_built_instances() {
        let mut seen = BTreeSet::new();
        for factory in registry() {
            assert!(
                seen.insert(factory.name()),
                "duplicate registry name {}",
                factory.name()
            );
            let built = factory.build(&ctx(7, 2, 1));
            assert_eq!(built.model(), factory.model(), "{}", factory.name());
            assert_eq!(built.name(), factory.name(), "factory name must match");
        }
        assert_eq!(registry().len(), 19);
    }

    #[test]
    fn registry_spans_all_three_models() {
        let models: BTreeSet<&str> = registry().iter().map(|f| f.model().id()).collect();
        assert!(models.contains("windowed"));
        assert!(models.contains("async"));
        assert!(models.contains("partial-sync"));
    }

    #[test]
    fn find_adversary_resolves_names_and_rejects_unknowns() {
        assert_eq!(find_adversary("split-vote").unwrap().name(), "split-vote");
        assert_eq!(find_adversary("fair-round-robin").unwrap().model(), &ASYNC);
        assert_eq!(
            find_adversary("gst-procrastinator").unwrap().model(),
            &PARTIAL_SYNC
        );
        assert_eq!(find_adversary("full-delivery").unwrap().model(), &WINDOWED);
        assert!(find_adversary("no-such-adversary").is_none());
    }

    #[test]
    fn targeting_factories_respect_explicit_targets_and_defaults() {
        let default_ctx = ctx(9, 3, 5);
        let built = build("scheduled-crash", &default_ctx);
        assert_eq!(built.model(), &ASYNC);
        assert_eq!(
            default_ctx.targets_or_first_t(),
            vec![
                ProcessorId::new(0),
                ProcessorId::new(1),
                ProcessorId::new(2)
            ]
        );
        let explicit = ctx(9, 3, 5).with_targets(vec![ProcessorId::new(7)]);
        assert_eq!(explicit.targets_or_first_t(), vec![ProcessorId::new(7)]);
        // The committee killer shares the same fallback: with no targets it
        // attacks the first `t` processors rather than degenerating to a
        // benign fair scheduler.
        let killer = build("adaptive-committee-killer", &default_ctx);
        assert_eq!(killer.model(), &ASYNC);
        assert_eq!(killer.name(), "adaptive-committee-killer");
        // The omission factory targets the same default victim set.
        let omission = build("post-gst-omission", &default_ctx);
        assert_eq!(omission.model(), &PARTIAL_SYNC);
        let omission = omission.into_partial_sync().expect("partial-sync model");
        assert_eq!(
            omission.omitted_senders(),
            &[
                ProcessorId::new(0),
                ProcessorId::new(1),
                ProcessorId::new(2)
            ]
        );
    }

    #[test]
    fn non_adaptive_factory_derives_victims_from_the_trial_seed() {
        let a = build("non-adaptive-crash", &ctx(20, 5, 7));
        let b = build("non-adaptive-crash", &ctx(20, 5, 7));
        // Same seed, same adversary: verified indirectly through the name and
        // the deterministic constructor it delegates to (see crash.rs tests).
        assert_eq!(a.name(), b.name());
    }
}
