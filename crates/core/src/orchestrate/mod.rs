//! Multi-process campaign orchestration: sharded seed ranges over the net
//! transport, a bit-identical slot-ordered merge, and resumable seed-range
//! checkpoints.
//!
//! The [`Campaign`](crate::Campaign) fans a scenario's trials across one
//! machine's cores; this module fans them across **processes**. A
//! coordinator ([`Orchestrator`] → [`Session`]) shards the trial range
//! `0..trials` into contiguous slot ranges, dispatches them to worker
//! processes over the framed TCP transport of `agreement_net::transport`,
//! and each worker answers a range with its
//! [`TrialRecord`](crate::record::TrialRecord)s in one columnar block frame
//! (see [`crate::block`]) for a slot-ordered merge. Because trial `t` runs
//! identically wherever it is executed (its seed is `base_seed + t`, its
//! workspace leaks no state), the merged record stream — and therefore every
//! report sink's output — is **byte-identical to a single-process run** of
//! the same spec, across worker counts and chunk sizes. That is the invariant the whole workspace has preserved across
//! thread counts since PR 1, extended across process boundaries.
//!
//! # Protocol
//!
//! Length-prefixed frames, coordinator-initiated. A frame whose first byte
//! is `{` is one JSON object (the typed messages of `wire.rs`, the only
//! file that names their fields); one whose first byte is
//! [`BLOCK_MAGIC`](crate::block::BLOCK_MAGIC) is a binary record block:
//!
//! ```text
//! worker → coordinator   {"type":"hello","pid":P,"proto":4}
//! coordinator → worker   {"type":"run","job":J,"scenario":ID,"scale":S,
//!                         "trials":T,"base_seed":B,"max_windows":W,
//!                         "max_steps":X,"lo":L,"hi":H}
//! worker → coordinator   <block: J, records L..H>      — or —
//! worker → coordinator   {"type":"error","job":J,"message":M}
//! coordinator → worker   {"type":"shutdown"}
//! ```
//!
//! A run frame is answered by exactly one frame: the block settles the
//! range when it carries exactly trials `L..H` in order. A range is at most
//! 65 536 trials, so its block fits one transport frame; a worker answers a
//! longer one with an error.
//!
//! There is one protocol version. Workers are only ever spawned from the
//! coordinator's own build, so the hello is checked, not negotiated: a
//! worker whose `proto` is not this build's fails [`Orchestrator::start`]
//! with an [`OrchestrateError::Protocol`] naming both versions.
//!
//! Workers resolve the scenario **by registry id** at the given scale and
//! apply the trials/seed/limits carried on the wire, so both sides agree on
//! the exact workload without serializing protocol objects.
//!
//! # Recovery
//!
//! Every failure of a worker funnels into one rule: **drop the worker, put
//! its range back at the front of the queue, re-run it on the remaining
//! workers** (a half-range would have to be stitched; a re-run of trial `t`
//! is provably identical, so re-running is both simpler and correct). A
//! worker is dropped when it hangs up or crashes (its forwarder observes
//! the hangup), when its bytes arrive damaged (every frame carries a CRC32
//! trailer, see `agreement_net::transport`, so a bit-flip or a torn frame
//! stops the reader with a recorded reason instead of parsing as garbage),
//! and when it breaks the protocol or reports an error. With no live worker
//! left the run ends in [`OrchestrateError::WorkersExhausted`]; lost workers
//! are not replaced.
//!
//! There is no liveness timeout: a worker that stays connected but silent
//! stalls the run, as a stuck thread stalls a threaded campaign.
//!
//! # Checkpoints
//!
//! A checkpoint is the file of the campaign's range ledger
//! (`checkpoint::RangeLedger`). A [`Session`] keeps its own dispatch over
//! the ledger that
//! [`ScenarioSpec::run_checkpointed`](crate::ScenarioSpec::run_checkpointed)
//! streams through, so either resumes what the other wrote; `checkpoint`
//! documents the CRC-wrapped line format, the [`CheckpointWriter`] held
//! open for a run, the torn-tail rule and the compaction.
//!
//! # Layout
//!
//! `checkpoint` owns the checkpoint line format and the resume policy,
//! `wire` the JSON frames, `session` the worker pool and the per-run
//! dispatch state, [`worker`] the worker half; this file holds the
//! configuration and the shared types.

use std::fmt;
use std::io;
use std::path::PathBuf;

use crate::experiments::Scale;
use crate::scenario::ScenarioError;

pub(crate) mod checkpoint;
mod session;
mod wire;
pub mod worker;

pub use checkpoint::{
    append_checkpoint, compact_checkpoint, read_checkpoint_lossy, CheckpointEntry, CheckpointWriter,
};
pub use session::Session;

/// Records per block in the benchmark's block-codec layer. The wire no
/// longer uses it — a range travels as one block — and only
/// `benchmark/src/layers.rs` reads it.
pub const DEFAULT_BATCH_RECORDS: u64 = 256;

/// The most trials a range holds: a block of this many worst-case records
/// still fits the transport's 64 MiB frame cap.
pub(crate) const MAX_RANGE_TRIALS: u64 = 65_536;

/// Why an orchestrated campaign failed.
#[derive(Debug)]
pub enum OrchestrateError {
    /// Spawning, connecting, or checkpoint file I/O failed.
    Io(io::Error),
    /// The spec itself does not resolve (same errors as a local run).
    Scenario(ScenarioError),
    /// Every worker process was lost with ranges still outstanding.
    WorkersExhausted(String),
    /// A worker violated the wire protocol (bad frame, wrong job, bad
    /// record) or reported an execution error.
    Protocol(String),
    /// The completed ranges do not tile `0..trials` exactly (a checkpoint
    /// from a different run, or an internal dispatch bug).
    Coverage(String),
}

impl fmt::Display for OrchestrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrchestrateError::Io(err) => write!(f, "orchestration I/O error: {err}"),
            OrchestrateError::Scenario(err) => write!(f, "{err}"),
            OrchestrateError::WorkersExhausted(msg) => write!(f, "workers exhausted: {msg}"),
            OrchestrateError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            OrchestrateError::Coverage(msg) => write!(f, "coverage error: {msg}"),
        }
    }
}

impl std::error::Error for OrchestrateError {}

impl From<io::Error> for OrchestrateError {
    fn from(err: io::Error) -> Self {
        OrchestrateError::Io(err)
    }
}

impl From<ScenarioError> for OrchestrateError {
    fn from(err: ScenarioError) -> Self {
        OrchestrateError::Scenario(err)
    }
}

/// Progress notifications from a dispatch loop — how tests observe (and
/// interfere with) an in-flight orchestration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrchestrationEvent {
    /// A range was handed to a worker.
    RangeAssigned {
        /// Worker index within the session.
        worker: usize,
        /// Range start (inclusive).
        lo: u64,
        /// Range end (exclusive).
        hi: u64,
    },
    /// A worker delivered a complete, validated range.
    RangeCompleted {
        /// Worker index within the session.
        worker: usize,
        /// Range start (inclusive).
        lo: u64,
        /// Range end (exclusive).
        hi: u64,
    },
    /// A range was skipped because the checkpoint already covers it.
    RangeRestored {
        /// Range start (inclusive).
        lo: u64,
        /// Range end (exclusive).
        hi: u64,
    },
    /// A worker disconnected, broke protocol, or delivered damaged bytes;
    /// its in-flight range (if any) has been re-queued.
    WorkerLost {
        /// Worker index within the session.
        worker: usize,
    },
    /// Never emitted: a session re-dispatches a range only when its worker
    /// is lost.
    ///
    /// It survives only because `benchmark/src/workloads.rs` matches this
    /// enum exhaustively. Once that match goes, so does the variant.
    RangeSpeculated {
        /// The straggling worker still holding the original assignment.
        worker: usize,
        /// Range start (inclusive).
        lo: u64,
        /// Range end (exclusive).
        hi: u64,
    },
    /// Never emitted: a session does not replace lost workers.
    ///
    /// It survives only because `benchmark/src/workloads.rs` matches this
    /// enum exhaustively. Once that match goes, so does the variant.
    WorkerRespawned {
        /// The new worker's index within the session.
        worker: usize,
    },
}

/// Coordinator configuration: how many workers to spawn, with what command,
/// at what scale, with what chunking and checkpointing.
#[derive(Debug, Clone)]
pub struct Orchestrator {
    scale: Scale,
    workers: usize,
    command: Vec<String>,
    chunk: Option<u64>,
    checkpoint: Option<PathBuf>,
}

impl Orchestrator {
    /// A coordinator that will spawn workers with `command` (executable plus
    /// fixed arguments; `--connect <addr>` is appended) resolving scenarios
    /// at `scale`.
    pub fn new(scale: Scale, command: Vec<String>) -> Self {
        assert!(
            !command.is_empty(),
            "worker command must name an executable"
        );
        Orchestrator {
            scale,
            workers: 2,
            command,
            chunk: None,
            checkpoint: None,
        }
    }

    /// Sets the worker-process count (default 2; clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Overrides the dispatch chunk size in trials. The default is
    /// `ceil(trials / (workers · 4))` per spec: enough chunks that a lost
    /// worker forfeits little and stragglers rebalance, few enough that
    /// framing overhead stays negligible. Either is clamped to 1..=65 536
    /// trials, the most one block frame carries.
    pub fn chunk(mut self, chunk: u64) -> Self {
        self.chunk = Some(chunk);
        self
    }

    /// Persists completed ranges to `path` and resumes from it when it
    /// already exists.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Spawns the workers, waits for each to connect and say hello, and
    /// returns the live [`Session`].
    ///
    /// # Errors
    ///
    /// [`OrchestrateError::Io`] when spawning or accepting fails, and
    /// [`OrchestrateError::Protocol`] when a worker's first frame is not a
    /// hello of this build's protocol version within the spawn deadline.
    pub fn start(self) -> Result<Session, OrchestrateError> {
        let mut session = Session::listen(self)?;
        // A pool that cannot be filled is torn down before the error is
        // returned: children still in the accept backlog would otherwise sit
        // out the whole graceful-shutdown deadline.
        session.fill().inspect_err(|_| session.kill_children())?;
        Ok(session)
    }
}
