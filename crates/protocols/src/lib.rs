//! Randomized asynchronous agreement protocols for the reproduction of
//! Lewko & Lewko (PODC 2013).
//!
//! Four protocols — one of them in two variants — are provided, all as
//! event-driven [`agreement_model::Protocol`] state machines:
//!
//! * [`ResetTolerant`] — the paper's Section 3 protocol: the Ben-Or/Bracha
//!   variant that tolerates the strongly adaptive (resetting) adversary for
//!   `t < n/6` with thresholds satisfying Theorem 4.
//! * [`BenOr`] — Ben-Or's classical protocol (crash model, `t < n/2`), which
//!   is *forgetful* and *fully communicative* in the sense of Section 5 and
//!   hence subject to Theorem 17's exponential lower bound.
//! * [`Bracha`] — Bracha's optimally resilient protocol (`t < n/3`), built on
//!   the [`ReliableBroadcaster`] primitive also exported here.
//! * [`CommitteeAgreement`] — a simplified Kapron-et-al.-style committee
//!   baseline ([`CommitteeBuilder::random`]): fast and correct with high
//!   probability against non-adaptive faults, defeated by an adaptive
//!   adversary that corrupts the (publicly known) committee. Its sub-quadratic
//!   variant ([`CommitteeBuilder::sampled`], Cohen–Keidar–Spiegelman style)
//!   multicasts proposals **within** the sampled committee only, so a decision
//!   costs `O(k² + k·n)` messages instead of `Θ(n²)` — the protocol the
//!   `subquad/` scaling scenarios chart at `n ∈ {100, 1000, 10000}`.
//!
//! The [`RoundTally`] helper centralizes the per-round vote bookkeeping every
//! protocol relies on.
//!
//! # Example
//!
//! Run the reset-tolerant protocol against the benign full-delivery adversary:
//!
//! ```
//! use agreement_model::{Bit, InputAssignment, SystemConfig};
//! use agreement_protocols::ResetTolerantBuilder;
//! use agreement_sim::{run_windowed, FullDeliveryAdversary, RunLimits};
//!
//! let cfg = SystemConfig::with_sixth_resilience(13)?;
//! let builder = ResetTolerantBuilder::recommended(&cfg)?;
//! let inputs = InputAssignment::unanimous(cfg.n(), Bit::One);
//! let outcome = run_windowed(
//!     cfg,
//!     inputs.clone(),
//!     &builder,
//!     &mut FullDeliveryAdversary,
//!     7,
//!     RunLimits::small(),
//! );
//! assert!(outcome.all_correct_decided());
//! assert_eq!(outcome.decided_value(), Some(Bit::One));
//! # Ok::<(), agreement_model::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod ben_or;
mod bracha;
mod committee;
#[cfg(test)]
mod rebuild_tests;
mod reliable_broadcast;
mod reset_tolerant;
mod tally;
#[cfg(test)]
mod test_ctx;

pub use ben_or::{BenOr, BenOrBuilder};
pub use bracha::{Bracha, BrachaBuilder};
pub use committee::{CommitteeAgreement, CommitteeBuilder};
pub use reliable_broadcast::{AcceptedBroadcast, ReliableBroadcaster};
pub use reset_tolerant::{ResetTolerant, ResetTolerantBuilder};
pub use tally::{RoundTally, VoteCounts};
