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
//! # Fault tolerance and recovery
//!
//! Every failure funnels into one recovery path: **drop the worker, re-queue
//! its range, re-run deterministically** (a half-range would have to be
//! stitched; a re-run of trial `t` is provably identical, so re-running is
//! both simpler and correct). What differs is only the detector:
//!
//! * **Disconnect / crash (SIGKILL)** — the forwarder observes the hangup
//!   and delivers a gone notice.
//! * **Damaged bytes** — every frame carries a CRC32 trailer (see
//!   `agreement_net::transport`); a bit-flip or a torn frame kills the
//!   reader with a recorded reason and surfaces as a corrupt delivery, not
//!   as garbage JSON.
//! * **Silence** — a worker holding a range but silent past the liveness
//!   policy's receive timeout gets its range *speculatively re-dispatched*
//!   to an idle worker (first completion wins, the slower copy is discarded,
//!   so the merge stays byte-identical); one silent past **twice** the
//!   timeout is dropped outright.
//!
//! Lost capacity comes back: the session respawns dead workers up to a
//! bounded budget, with seeded exponential backoff and jitter, and only
//! reports [`OrchestrateError::WorkersExhausted`] when no live worker
//! remains and the budget is spent. The fault schedule of a chaos run is
//! seeded (`agreement_net::fault::FaultPlan`), so the same seed reproduces
//! the same failures and the same recovery sequence.
//!
//! # Checkpoints
//!
//! A checkpoint belongs to the campaign: the threaded
//! [`ScenarioSpec::run_checkpointed`](crate::ScenarioSpec::run_checkpointed)
//! and a [`Session`] share one resume policy (`checkpoint::RangeLedger`),
//! and either resumes what the other wrote. Every settled range is appended
//! to a JSONL file *with its records embedded*, each line wrapped with a
//! CRC32 of its body, as one preformatted `write` on a [`CheckpointWriter`]
//! held open for the run. Lines go straight between the structs and text,
//! and the CRC is verified before a byte of a line reaches the JSON reader.
//! A resumed run skips (and logs) damaged lines, compacts the file via an
//! atomic tmp+rename when damage or a torn tail was found (a line counts
//! once its newline is on disk), runs only the missing sub-ranges, and
//! merges restored and fresh ranges into the same byte-identical stream.
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
use std::time::Duration;

pub use agreement_net::fault::FaultPlan;

use crate::experiments::Scale;
use crate::scenario::ScenarioError;

pub(crate) mod checkpoint;
mod session;
mod wire;
pub mod worker;

pub use checkpoint::{
    append_checkpoint, compact_checkpoint, read_checkpoint, read_checkpoint_lossy, CheckpointEntry,
    CheckpointWriter,
};
pub use session::Session;

/// Records per block in the benchmark's block-codec layer. The wire no
/// longer uses it — a range travels as one block — and only
/// `benchmark/src/layers.rs` reads it.
pub const DEFAULT_BATCH_RECORDS: u64 = 256;

/// The most trials a range holds: a block of this many worst-case records
/// still fits the transport's 64 MiB frame cap.
const MAX_RANGE_TRIALS: u64 = 65_536;

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
    /// A worker held a range past the receive timeout; the range was
    /// re-dispatched speculatively to an idle worker. Whichever copy
    /// finishes first wins; the other completion is discarded.
    RangeSpeculated {
        /// The straggling worker still holding the original assignment.
        worker: usize,
        /// Range start (inclusive).
        lo: u64,
        /// Range end (exclusive).
        hi: u64,
    },
    /// A replacement worker process was spawned, connected, and joined the
    /// pool after earlier losses.
    WorkerRespawned {
        /// The new worker's index within the session.
        worker: usize,
    },
}

/// Coordinator configuration: how many workers to spawn, with what command,
/// at what scale, with what chunking, checkpointing, liveness policy,
/// respawn budget, and (for chaos runs) fault plan.
#[derive(Debug, Clone)]
pub struct Orchestrator {
    scale: Scale,
    workers: usize,
    command: Vec<String>,
    chunk: Option<u64>,
    checkpoint: Option<PathBuf>,
    recv_timeout: Duration,
    respawn_budget: u32,
    worker_faults: Option<FaultPlan>,
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
            recv_timeout: Duration::from_secs(600),
            respawn_budget: 2,
            worker_faults: None,
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

    /// Sets the liveness policy's receive timeout (default 600 s, clamped to
    /// at least one second). A worker holding a range but silent this long
    /// gets the range speculatively re-dispatched; silent twice this long,
    /// it is dropped and its range re-queued.
    pub fn recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout.max(Duration::from_secs(1));
        self
    }

    /// Sets how many replacement workers the session may spawn over its
    /// lifetime (default 2; zero disables respawning). Each respawn waits
    /// out an exponential backoff with seeded jitter first.
    pub fn respawn_budget(mut self, budget: u32) -> Self {
        self.respawn_budget = budget;
        self
    }

    /// Injects deterministic faults on every worker's outgoing connection:
    /// each spawned worker (respawns included) receives `plan` reseeded with
    /// a distinct derived seed through the `AGREEMENT_FAULTS` environment
    /// hook, so one plan seed reproduces the entire multi-process fault
    /// schedule. Production runs never set this and pay nothing.
    pub fn worker_faults(mut self, plan: FaultPlan) -> Self {
        self.worker_faults = Some(plan);
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
