//! Adversary-controlled simulation of asynchronous message-passing agreement.
//!
//! This crate is the execution substrate of the reproduction of Lewko & Lewko
//! (PODC 2013). Every execution model shares one substrate — the
//! [`ExecutionCore`] of the [`exec`] module, which owns processor harnesses,
//! the in-flight [`MessageBuffer`], decision/validity tracking, limit
//! enforcement and the one [`Probe`] that observes every transition — while
//! one arm of the [`Scheduler`] enum supplies what differs between models.
//! The set of models is **closed** — the paper's results are stated over
//! exactly these adversary powers — so a model is a variant of
//! [`Scheduler`], [`ModelDescriptor`] and [`BuiltAdversary`], and
//! [`Scheduler::run`] is the one loop every execution, on any core, goes
//! through. The three models:
//!
//! * [`WINDOWED`] — the **strongly adaptive model** of Section 2: the
//!   execution is a sequence of *acceptable windows* ([`Window`],
//!   Definition 1), each consisting of sending steps for all processors,
//!   receiving steps from at least `n - t` senders per processor, and at most
//!   `t` resetting steps. Running time is measured in windows.
//! * [`ASYNC`] — the **fully asynchronous model** of Section 5: the
//!   adversary schedules individual message deliveries and may cause up to `t`
//!   crash (or Byzantine) failures. Running time is measured as the longest
//!   message chain preceding the first decision.
//! * [`PARTIAL_SYNC`] — the **partial-synchrony model** (eventual
//!   synchrony with omission faults): the adversary schedules freely before
//!   its chosen GST; afterwards every pending message is force-delivered
//!   within its declared bound Δ, except messages from up to `t`
//!   omission-faulty senders. This is the "weaker adversary" side of the
//!   paper's dichotomy.
//!
//! Adversaries implement [`WindowAdversary`], [`AsyncAdversary`] or
//! [`PartialSyncAdversary`] and are given a [`SystemView`] exposing every
//! processor state digest and every in-flight message — the full-information
//! assumption of the paper. Concrete adversary strategies (strongly adaptive
//! resetting, split-vote balancing, crash scheduling, GST procrastination, …)
//! live in the `agreement-adversary` crate; this crate only ships the benign
//! baselines [`FullDeliveryAdversary`], [`FairAsyncAdversary`] and
//! [`BenignEventualAdversary`].
//!
//! # Example
//!
//! ```
//! use agreement_model::{Bit, InputAssignment, SystemConfig};
//! use agreement_sim::{run_windowed, FullDeliveryAdversary, RunLimits};
//! # use agreement_model::{Context, Payload, Protocol, ProtocolBuilder, ProcessorId, StateDigest};
//! # #[derive(Debug)]
//! # struct Trivial { input: Bit }
//! # impl Protocol for Trivial {
//! #     fn on_start(&mut self, ctx: &mut dyn Context) { ctx.decide(self.input); }
//! #     fn on_message(&mut self, _f: ProcessorId, _p: &Payload, _c: &mut dyn Context) {}
//! #     fn digest(&self) -> StateDigest { StateDigest::initial(self.input) }
//! # }
//! # #[derive(Debug)]
//! # struct TrivialBuilder;
//! # impl ProtocolBuilder for TrivialBuilder {
//! #     fn name(&self) -> &'static str { "trivial" }
//! #     fn build(&self, _id: ProcessorId, input: Bit, _cfg: &SystemConfig) -> Box<dyn Protocol> {
//! #         Box::new(Trivial { input })
//! #     }
//! # }
//!
//! let cfg = SystemConfig::new(4, 0)?;
//! let inputs = InputAssignment::unanimous(4, Bit::One);
//! let outcome = run_windowed(
//!     cfg,
//!     inputs.clone(),
//!     &TrivialBuilder,
//!     &mut FullDeliveryAdversary,
//!     42,
//!     RunLimits::small(),
//! );
//! assert!(outcome.is_correct(&inputs));
//! # Ok::<(), agreement_model::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod adversary;
mod buffer;
mod engine;
pub mod exec;
mod harness;
mod metrics;
mod outcome;
mod window;
mod workspace;

pub use adversary::{
    AsyncAction, AsyncAdversary, BenignEventualAdversary, FairAsyncAdversary,
    FullDeliveryAdversary, PartialSyncAction, PartialSyncAdversary, SystemView, WindowAdversary,
};
pub use buffer::{BufferChoice, ChannelCursor, MessageBuffer};
pub use engine::{
    run_async, run_partial_sync, run_windowed, BuiltAdversary, ModelDescriptor, ASYNC,
    PARTIAL_SYNC, WINDOWED,
};
pub use exec::{ExecutionCore, Scheduler};
pub use harness::{Outgoing, ProcessorHarness};
pub use metrics::{FullTrace, Metrics, MetricsProbe, NoProbe, Probe};
pub use outcome::{DecisionSummary, RunLimits, RunOutcome};
pub use window::{Window, WindowError};
pub use workspace::TrialWorkspace;
