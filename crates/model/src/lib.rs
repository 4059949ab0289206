//! Base model types for the reproduction of Lewko & Lewko,
//! *"On the Complexity of Asynchronous Agreement Against Powerful
//! Adversaries"* (PODC 2013).
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`ProcessorId`] — processor identities.
//! * [`Bit`], [`OutputRegister`], [`InputAssignment`] — binary agreement
//!   values and the write-once output bit of the paper's model.
//! * [`SystemConfig`], [`Thresholds`] — the `(n, t)` system parameters and the
//!   `T1 >= T2 >= T3` thresholds of the Section 3 protocol, with the
//!   Theorem 4 validity constraints.
//! * [`Payload`] — the closed message vocabulary that full-information
//!   adversaries inspect.
//! * [`Protocol`], [`ProtocolBuilder`], [`Context`], [`StateDigest`] — the
//!   event-driven state-machine abstraction engines drive.
//! * [`ProcessorRng`] — deterministic, per-processor random streams.
//! * [`Trace`], [`TraceEvent`] — bounded execution logs, which the
//!   simulator's `FullTrace` probe fills; [`NoTrace`] is a marker with no
//!   behaviour.
//!
//! # Example
//!
//! ```
//! use agreement_model::{Bit, InputAssignment, SystemConfig, Thresholds};
//!
//! // A 13-processor system tolerating t < n/6 resets per acceptable window.
//! let cfg = SystemConfig::with_sixth_resilience(13)?;
//! assert_eq!(cfg.t(), 2);
//!
//! // The threshold setting used in the proof of Theorem 4.
//! let thresholds = Thresholds::recommended(&cfg)?;
//! assert!(thresholds.is_valid_for(&cfg));
//!
//! // The adversarially chosen evenly-split input assignment of Section 3.
//! let inputs = InputAssignment::evenly_split(cfg.n());
//! assert_eq!(inputs.count(Bit::Zero), 7);
//! # Ok::<(), agreement_model::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod error;
mod ids;
mod message;
mod protocol;
mod rng;
mod trace;
mod value;

pub use config::{SystemConfig, Thresholds};
pub use error::{ConfigError, ModelError};
pub use ids::ProcessorId;
pub use message::{CommitteeMsg, Payload, RbcStep};
pub use protocol::{Context, Protocol, ProtocolBuilder, StateDigest};
pub use rng::{derive_seed, splitmix64, ProcessorRng};
pub use trace::{NoTrace, Trace, TraceEvent};
pub use value::{Bit, InputAssignment, OutputRegister};
