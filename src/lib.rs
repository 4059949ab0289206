//! # agreement
//!
//! A reproduction of Lewko & Lewko, *"On the Complexity of Asynchronous
//! Agreement Against Powerful Adversaries"* (PODC 2013), as a Rust workspace.
//!
//! This facade crate re-exports the workspace's crates under one roof so the
//! examples and integration tests can address the whole system:
//!
//! * [`model`] — processors, bits, messages, configurations, protocol traits.
//! * [`sim`] — the one execution core and its schedulers over an open model
//!   axis: the acceptable-window model (strongly adaptive), the fully
//!   asynchronous model (crash/Byzantine), and the partial-synchrony model
//!   (eventual synchrony with omission faults).
//! * [`protocols`] — Ben-Or, Bracha (+ reliable broadcast), the paper's
//!   reset-tolerant protocol, and the committee baseline.
//! * [`adversary`] — resetting, balancing, crash, committee-killer,
//!   Byzantine and partial-synchrony (GST-procrastination, omission)
//!   adversaries.
//! * [`analysis`] — Hamming geometry, product distributions, Talagrand's
//!   inequality, the Z-set recursion, Theorem 5 constants, statistics.
//! * [`net`] — the framed socket transport (and its fault injector) under
//!   the multi-process orchestration.
//! * [`core`] — the campaign runner, the scenario registry, the experiment
//!   harness (E1–E10) and report tables.
//!
//! See the repository README for a quickstart and DESIGN.md / EXPERIMENTS.md
//! for the system inventory and the per-claim experiment index.

#![warn(missing_docs)]

pub use agreement_adversary as adversary;
pub use agreement_analysis as analysis;
pub use agreement_core as core;
pub use agreement_model as model;
pub use agreement_net as net;
pub use agreement_protocols as protocols;
pub use agreement_sim as sim;
