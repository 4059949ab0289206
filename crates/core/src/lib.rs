//! High-level experiment harness for the reproduction of Lewko & Lewko,
//! *"On the Complexity of Asynchronous Agreement Against Powerful
//! Adversaries"* (PODC 2013).
//!
//! This crate ties the workspace together:
//!
//! * [`TrialPlan`], [`Campaign`] and [`Aggregate`] — run a protocol against
//!   a built adversary of any model over many seeded trials
//!   ([`Campaign::run_records`]), fanned out across all cores with
//!   deterministic (thread-count independent) results.
//! * [`record`] — the structured results pipeline: every trial yields a
//!   [`TrialRecord`] (seed, outcome flags, full
//!   [`Metrics`](agreement_sim::Metrics)), streamed in trial order into
//!   composable [`ReportSink`]s ([`TableSink`], [`JsonlSink`], [`CsvSink`],
//!   [`JsonReportSink`]); [`Aggregate`] is a derived view kept for the
//!   experiment tables.
//! * [`scenario`] — the data-driven scenario layer: [`ScenarioSpec`] describes
//!   a protocol × adversary × inputs × size combination as plain data,
//!   [`ScenarioMatrix`] expands cross-products of them,
//!   [`scenario_registry`] lists every registered combination (the `scenarios`
//!   binary runs them from the command line), and running a spec returns a
//!   [`ScenarioReport`] (aggregate plus distributions, JSON-serializable).
//! * [`experiments`] — the per-claim experiments E1–E10 indexed in DESIGN.md
//!   and recorded in EXPERIMENTS.md, each a declarative [`ScenarioSpec`] table
//!   returning a [`Table`].
//! * [`Table`] — plain-text result tables (what the `agreement-bench`
//!   binaries print).
//! * [`cli`] — the value-taking argument helpers the three command-line
//!   binaries (`scenarios`, `all_experiments`, `search`) share.
//!
//! # Example
//!
//! ```no_run
//! use agreement_core::experiments::{exp3_talagrand, Scale};
//!
//! // Regenerate the Talagrand-inequality table at reduced scale.
//! let table = exp3_talagrand(Scale::Quick);
//! println!("{table}");
//! ```
//!
//! Run an arbitrary combination nothing in E1–E10 exercises:
//!
//! ```no_run
//! use agreement_core::{InputPattern, ProtocolSpec, ScenarioSpec};
//! use agreement_model::Bit;
//!
//! let spec = ScenarioSpec::new(
//!     ProtocolSpec::Bracha,
//!     "equivocating-byzantine",
//!     InputPattern::Unanimous(Bit::One),
//!     7,
//!     2,
//! );
//! let report = spec.run().expect("spec resolves");
//! println!(
//!     "{}: agreement {}, p90 decision time {}",
//!     spec.id(),
//!     report.aggregate.agreement_rate,
//!     report.decision_times.percentile(90.0),
//! );
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod block;
pub mod cli;
pub mod experiments;
pub mod orchestrate;
pub mod record;
mod report;
mod runner;
pub mod scenario;

pub use record::{
    stream_records, CsvSink, JsonReportSink, JsonlSink, ReportSink, ScenarioMeta, TableSink,
    TrialRecord,
};
pub use report::{fmt_f64, fmt_rate, Table};
pub use runner::{Aggregate, Campaign, TrialPlan};
pub use scenario::{
    extra_scenarios, partial_sync_scenarios, scenario_registry, subquad_scenarios, BatchRunner,
    InputPattern, ProtocolInstance, ProtocolSpec, ScenarioError, ScenarioMatrix, ScenarioReport,
    ScenarioSpec,
};
