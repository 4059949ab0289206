//! Adversary strategies for the reproduction of Lewko & Lewko (PODC 2013).
//!
//! Every adversary the paper defines, uses or argues about is implemented
//! against the engine interfaces of `agreement-sim`:
//!
//! | Adversary | Model | Paper role |
//! |---|---|---|
//! | [`RotatingResetAdversary`], [`TargetedResetAdversary`] | acceptable windows | exercise the strongly adaptive adversary's resetting power (Section 2, Theorem 4) |
//! | [`SplitVoteAdversary`] | acceptable windows | the balancing strategy that forces exponential running time on split inputs (end of Section 3, and the concrete face of Theorem 5) |
//! | [`LockstepBalancingAdversary`] | asynchronous, crash | the scheduling strategy behind Theorem 17 against forgetful, fully communicative algorithms |
//! | [`ScheduledCrashAdversary`], [`ScheduledCrashAdversary::random`] | asynchronous, crash | baseline crash adversaries; the non-adaptive (random-victim) one is what committee protocols tolerate |
//! | [`ScheduledCrashAdversary::committee_killer`] | asynchronous, crash | the introduction's argument that adaptive adversaries defeat committee-based protocols |
//! | [`EquivocatingAdversary`] | asynchronous, Byzantine | message corruption / lying about coins, which Bracha's reliable broadcast withstands |
//! | [`PolarizingAdversary`] | acceptable windows | the unfair-but-legal delivery split that probes the Theorem 4 threshold constraints (experiment E8) |
//! | [`GstProcrastinatorAdversary`] | partial synchrony | maximum pre-GST obstruction; shows the curtailed adversary's delay is additive, not exponential |
//! | [`PostGstOmissionAdversary`] | partial synchrony | send-omission of up to `t` senders under immediate synchrony |
//! | [`SearchWindowAdversary`], [`SearchAsyncAdversary`], [`SearchPartialSyncAdversary`] | all three | genome-decoded schedules for the coverage-guided search (`agreement-search`) — discovered rather than hand-coded strategies |
//!
//! The benign baselines (`FullDeliveryAdversary`, `FairAsyncAdversary`,
//! `BenignEventualAdversary`) live in `agreement-sim` itself.
//!
//! Every adversary is also constructible *from data* through the
//! [`AdversaryFactory`] table in [`factory`]: [`registry()`] holds one
//! named, model-tagged row per adversary (benign baselines included), and
//! [`find_adversary`] resolves a name to its row. The scenario layer in
//! `agreement-core` expands protocol × adversary × input × size tables over
//! this registry.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod byzantine;
mod crash;
mod delivery;
pub mod factory;
mod lockstep;
mod partial_sync;
mod polarizing;
pub mod search;
mod split_vote;
mod strongly_adaptive;

pub use byzantine::EquivocatingAdversary;
pub use crash::ScheduledCrashAdversary;
pub use delivery::balanced_senders;
pub use factory::{find_adversary, registry, AdversaryBuildCtx, AdversaryFactory, BuiltAdversary};
pub use lockstep::LockstepBalancingAdversary;
pub use partial_sync::{GstProcrastinatorAdversary, PostGstOmissionAdversary};
pub use polarizing::PolarizingAdversary;
pub use search::{
    build_from_genome, Genome, GenomeError, SearchAsyncAdversary, SearchPartialSyncAdversary,
    SearchWindowAdversary, TapeReader, DEFAULT_TAPE_LEN,
};
pub use split_vote::SplitVoteAdversary;
pub use strongly_adaptive::{RotatingResetAdversary, TargetedResetAdversary};
