//! Multi-process campaign orchestration: sharded seed ranges over the net
//! transport, a bit-identical slot-ordered merge, and resumable seed-range
//! checkpoints.
//!
//! The [`Campaign`](crate::Campaign) fans a scenario's trials across one
//! machine's cores; this module fans them across **processes**. A
//! coordinator ([`Orchestrator`] → [`Session`]) shards the trial range
//! `0..trials` into contiguous slot ranges, dispatches them to worker
//! processes over the framed TCP transport of `agreement_net::transport`,
//! and workers stream the [`TrialRecord`]s back — batched into columnar
//! block frames (see [`crate::block`]) by default, one JSON frame per trial
//! on the legacy path — for a slot-ordered merge. Because trial `t` runs
//! identically wherever it is executed (its seed is `base_seed + t`, its
//! workspace leaks no state), the merged record stream — and therefore every
//! report sink's output — is **byte-identical to a single-process run** of
//! the same spec, across worker counts, batch sizes, and compression
//! settings. That is the invariant the whole workspace has preserved across
//! thread counts since PR 1, extended across process boundaries.
//!
//! # Protocol
//!
//! Length-prefixed frames, coordinator-initiated. A frame whose first byte
//! is `{` is one JSON object; one whose first byte is
//! [`BLOCK_MAGIC`](crate::block::BLOCK_MAGIC) is a binary record block:
//!
//! ```text
//! worker → coordinator   {"type":"hello","pid":P,"proto":2}
//! coordinator → worker   {"type":"run","job":J,"scenario":ID,"scale":S,
//!                         "trials":T,"base_seed":B,"max_windows":W,
//!                         "max_steps":X,"lo":L,"hi":H,
//!                         "batch":N,"compress":C}
//! worker → coordinator   <block: J, ≤N records>        × ceil((H-L)/N)
//! worker → coordinator   {"type":"range_done","job":J,"lo":L,"hi":H,
//!                         "count":H-L}
//! worker → coordinator   {"type":"error","job":J,"message":M}
//! coordinator → worker   {"type":"shutdown"}
//! ```
//!
//! **Version negotiation** rides on the hello: a worker advertising
//! `"proto":2` (or higher) understands `batch`/`compress` and ships blocks;
//! a legacy hello without the field pins that worker to protocol 1 — the
//! coordinator omits the new `run` fields (a v1 worker would choke on
//! nothing, but nor would it batch) and accepts its one-JSON-frame-per-trial
//! `{"type":"record",...}` stream exactly as before. Both frame kinds may
//! mix freely across workers of one session; `batch` of 0 (or
//! [`Orchestrator::batch_records`]`(0)`) forces the legacy stream even from
//! v2 workers.
//!
//! Workers resolve the scenario **by registry id** at the given scale and
//! apply the trials/seed/limits carried on the wire, so both sides agree on
//! the exact workload without serializing protocol objects. Frames on one
//! connection are FIFO, so a range's records always precede its
//! `range_done`.
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
//!   to an idle worker (first completion wins, duplicates are discarded by
//!   exact-range dedupe, so the merge stays byte-identical); one silent past
//!   **twice** the timeout is dropped outright.
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
//! With a checkpoint path configured, every completed range is appended to a
//! JSONL file *with its records embedded*, each line wrapped with a CRC32 of
//! its body. Appends are coalesced: the session holds one open
//! [`CheckpointWriter`] and each completed range costs a single preformatted
//! `write` — not an open/format/flush cycle per line. Lines go straight
//! between the structs and text ([`TrialRecord::write_json`] /
//! [`TrialRecord::read_json`], no JSON tree, reused buffers), and the CRC is
//! verified before a byte of a line reaches the JSON reader. A restarted
//! coordinator loads the file, skips (and logs) damaged lines instead of
//! trusting or dying on them, compacts the file via an atomic tmp+rename
//! when damage or a torn tail was found (a line counts once its newline is
//! on disk; appending onto an unterminated tail would lose the next range),
//! dispatches only the missing sub-ranges, and merges checkpointed and fresh
//! ranges into the same byte-identical stream.

use std::collections::{BTreeSet, VecDeque};
use std::fmt::{self, Write as _};
use std::io::{self, BufRead, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use agreement_analysis::{crc32, read_json_object, JsonReader, JsonValue, JsonWriter};
use agreement_model::{derive_seed, ProcessorRng};
pub use agreement_net::fault::FaultPlan;
use agreement_net::fault::FAULT_ENV;
use agreement_net::transport::{
    bounded, BoundedReceiver, BoundedSender, Connection, Listener, RecvError,
};
use agreement_sim::RunLimits;

use crate::block::{decode_block, encode_block, is_block_frame};
use crate::experiments::Scale;
use crate::record::TrialRecord;
use crate::runner::Campaign;
use crate::scenario::{scenario_registry, ScenarioError, ScenarioSpec};

/// How long the coordinator waits for workers to dial in and say hello.
const SPAWN_DEADLINE: Duration = Duration::from_secs(30);

/// Default receive timeout of the liveness policy (override with
/// [`Orchestrator::recv_timeout`]): a worker holding a range but silent this
/// long gets the range speculatively re-dispatched; silent twice this long,
/// it is dropped and the range re-queued on the survivors.
const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(600);

/// How long shutdown waits for workers to exit gracefully before forcing
/// their sockets shut and killing the processes.
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(30);

/// Default number of worker respawns a session may perform (override with
/// [`Orchestrator::respawn_budget`]).
const DEFAULT_RESPAWN_BUDGET: u32 = 2;

/// The protocol version this coordinator (and its bundled worker) speaks.
/// Version 2 added columnar block frames and the `batch`/`compress` run
/// fields; version 1 peers are still served with per-trial JSON records.
const PROTO_VERSION: u64 = 2;

/// Default records per block frame (override with
/// [`Orchestrator::batch_records`]). Big enough that framing and wakeups
/// amortize away, small enough that the coordinator sees steady liveness
/// signals from a working worker.
pub const DEFAULT_BATCH_RECORDS: u64 = 256;

/// Worker-side clamp on the batch size: a block of this many worst-case
/// records still fits the transport's 64 MiB frame cap.
const MAX_BATCH_RECORDS: u64 = 65_536;

/// Base of the respawn exponential backoff: attempt `k` waits
/// `RESPAWN_BACKOFF_BASE · 2^k` (capped) plus seeded jitter.
const RESPAWN_BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Cap on the exponential part of the respawn backoff.
const RESPAWN_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Upper bound (exclusive) on the seeded respawn jitter, in milliseconds.
const RESPAWN_JITTER_MS: u64 = 25;

/// How long a respawned worker gets to dial in and say hello before the
/// attempt is counted as failed (shorter than [`SPAWN_DEADLINE`]: a respawn
/// blocks the dispatch loop, and localhost dials are fast).
const RESPAWN_ACCEPT_DEADLINE: Duration = Duration::from_secs(10);

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

/// The label a [`Scale`] travels under on the wire.
fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    }
}

fn parse_scale(label: &str) -> Option<Scale> {
    match label {
        "quick" => Some(Scale::Quick),
        "full" => Some(Scale::Full),
        _ => None,
    }
}

fn str_field<'a>(msg: &'a JsonValue, name: &str) -> Result<&'a str, String> {
    msg.get(name)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing string field '{name}'"))
}

fn int_field(msg: &JsonValue, name: &str) -> Result<u64, String> {
    msg.get(name)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing integer field '{name}'"))
}

/// One completed, persisted seed range of a scenario: the unit of resumption.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointEntry {
    /// The scenario's registry id.
    pub scenario: String,
    /// The base seed the range ran under (a changed seed invalidates it).
    pub base_seed: u64,
    /// The campaign's total trial count (a changed count invalidates it).
    pub trials: u64,
    /// Range start (inclusive).
    pub lo: u64,
    /// Range end (exclusive).
    pub hi: u64,
    /// The range's records, in trial order.
    pub records: Vec<TrialRecord>,
}

impl CheckpointEntry {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_object();
        w.key("scenario").str(&self.scenario);
        w.key("base_seed").u64(self.base_seed);
        w.key("trials").u64(self.trials);
        w.key("lo").u64(self.lo);
        w.key("hi").u64(self.hi);
        w.key("records").begin_array();
        for record in &self.records {
            record.write_json(w);
        }
        w.end_array().end_object();
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, String> {
        fn read_records(r: &mut JsonReader<'_>) -> Result<Vec<TrialRecord>, String> {
            let mut records = Vec::new();
            r.begin_array()?;
            while r.next_element()? {
                records.push(TrialRecord::read_json(r)?);
            }
            Ok(records)
        }
        read_json_object!(r, {
            "scenario" => scenario: r.string().map(String::from),
            "base_seed" => base_seed: r.u64(),
            "trials" => trials: r.u64(),
            "lo" => lo: r.u64(),
            "hi" => hi: r.u64(),
            "records" => records: read_records(r),
        });
        Ok(CheckpointEntry {
            scenario,
            base_seed,
            trials,
            lo,
            hi,
            records,
        })
    }
}

/// Appends one newline-terminated checkpoint line to `out`: the entry's JSON
/// (formatted into the scratch buffer `body`) wrapped with a CRC32 of exactly
/// the bytes between `"entry":` and the closing brace. The wrapper is parsed
/// textually on read, so verification never depends on re-serialization.
fn push_checkpoint_line(entry: &CheckpointEntry, body: &mut String, out: &mut String) {
    body.clear();
    entry.write_json(&mut JsonWriter::new(body));
    let crc = crc32(body.as_bytes());
    writeln!(out, "{{\"crc\":{crc},\"entry\":{body}}}").expect("writing to a String cannot fail");
}

/// Parses one complete checkpoint line, the CRC-wrapped form written by
/// [`append_checkpoint`]. The CRC is verified before a byte of the body
/// reaches the JSON reader.
fn parse_checkpoint_line(line: &str) -> Result<CheckpointEntry, String> {
    let (crc_text, tail) = line
        .strip_prefix("{\"crc\":")
        .and_then(|rest| rest.split_once(",\"entry\":"))
        .ok_or_else(|| "not a '{\"crc\":…,\"entry\":…}' checkpoint line".to_string())?;
    let expected: u32 = crc_text
        .trim()
        .parse()
        .map_err(|_| format!("unparseable checkpoint CRC '{crc_text}'"))?;
    let body = tail
        .strip_suffix('}')
        .ok_or_else(|| "CRC wrapper is not brace-terminated".to_string())?;
    let actual = crc32(body.as_bytes());
    if actual != expected {
        return Err(format!(
            "checkpoint line CRC mismatch: recorded {expected}, body checksums to {actual}"
        ));
    }
    let mut reader = JsonReader::new(body);
    let entry = CheckpointEntry::read_json(&mut reader)?;
    reader.finish()?;
    Ok(entry)
}

/// What [`load_checkpoint`] found in a checkpoint file.
#[derive(Default)]
struct CheckpointLoad {
    entries: Vec<CheckpointEntry>,
    /// Newline-terminated lines skipped as damaged.
    damaged: usize,
    /// The file ends mid-line: appending to it as it is would glue the next
    /// line onto the torn one.
    torn_tail: bool,
}

/// [`read_checkpoint_lossy`], which see, through one reused line buffer —
/// and remembering whether the last line ended in a newline.
fn load_checkpoint(path: &Path) -> Result<CheckpointLoad, OrchestrateError> {
    let mut reader = io::BufReader::new(std::fs::File::open(path)?);
    let mut load = CheckpointLoad::default();
    let mut line = Vec::new();
    let mut number = 0u64;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            return Ok(load);
        }
        number += 1;
        load.torn_tail = line.last() != Some(&b'\n');
        let parsed = std::str::from_utf8(&line)
            .map_err(|err| err.to_string())
            .map(str::trim)
            .and_then(|text| match text {
                "" => Ok(None),
                text => parse_checkpoint_line(text).map(Some),
            });
        match parsed {
            Ok(entry) => load.entries.extend(entry),
            Err(_) if load.torn_tail => {}
            Err(err) => {
                eprintln!(
                    "orchestrate: skipping damaged checkpoint line {number} in {}: {err}",
                    path.display()
                );
                load.damaged += 1;
            }
        }
    }
}

/// Reads a checkpoint file: one CRC-wrapped [`CheckpointEntry`] per line. A
/// line counts as written once its newline is on disk: an unterminated final
/// line that fails to parse is the expected shape of a crash mid-append and
/// is skipped silently; a *terminated* line that fails — CRC mismatch,
/// truncated middle, invalid UTF-8, unparseable JSON, a bare entry without
/// its CRC wrapper — is **skipped and logged to stderr**, never trusted and
/// never fatal: the ranges it held are simply re-run. Returns the surviving
/// entries and how many lines were skipped as damaged (callers use a nonzero
/// count to trigger [`compact_checkpoint`]).
///
/// # Errors
///
/// Propagates file I/O errors only.
pub fn read_checkpoint_lossy(
    path: &Path,
) -> Result<(Vec<CheckpointEntry>, usize), OrchestrateError> {
    let load = load_checkpoint(path)?;
    Ok((load.entries, load.damaged))
}

/// Reads a checkpoint file, returning the surviving entries. See
/// [`read_checkpoint_lossy`] for the damage-tolerance contract.
///
/// # Errors
///
/// Propagates file I/O errors only.
pub fn read_checkpoint(path: &Path) -> Result<Vec<CheckpointEntry>, OrchestrateError> {
    Ok(read_checkpoint_lossy(path)?.0)
}

/// An open checkpoint file accepting coalesced appends: one CRC'd line per
/// completed range, written with a **single** `write` syscall each. The
/// one-shot [`append_checkpoint`] pays an open + format + write per call;
/// a [`Session`] instead keeps one of these for the whole run, which is what
/// makes per-range checkpointing cheap on large campaigns.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: std::fs::File,
    // Reused across appends: the entry's JSON, then the whole line.
    body: String,
    line: String,
}

impl CheckpointWriter {
    /// Opens `path` for appending, creating it if needed.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors.
    pub fn open(path: &Path) -> Result<Self, OrchestrateError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(CheckpointWriter::over(file))
    }

    fn over(file: std::fs::File) -> Self {
        CheckpointWriter {
            file,
            body: String::new(),
            line: String::new(),
        }
    }

    /// Appends one entry as a single newline-terminated write, so a crash
    /// between calls can tear at most the final line — the shape
    /// [`read_checkpoint_lossy`] already tolerates. `File::write_all` on an
    /// append-mode descriptor needs no explicit flush: the data is in the
    /// kernel when this returns.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors.
    pub fn append(&mut self, entry: &CheckpointEntry) -> Result<(), OrchestrateError> {
        self.line.clear();
        push_checkpoint_line(entry, &mut self.body, &mut self.line);
        self.file.write_all(self.line.as_bytes())?;
        Ok(())
    }
}

/// Appends one entry to a checkpoint file (creating it if needed) — the
/// one-shot form of [`CheckpointWriter`] for callers (and tests) seeding a
/// file outside a session. Each line carries a CRC32 of its body, so later
/// damage is detected on read.
///
/// # Errors
///
/// Propagates file I/O errors.
pub fn append_checkpoint(path: &Path, entry: &CheckpointEntry) -> Result<(), OrchestrateError> {
    CheckpointWriter::open(path)?.append(entry)
}

/// Rewrites a checkpoint file to hold exactly `entries`, atomically: the new
/// contents are written to a sibling temporary file, synced, and renamed
/// over the original, so a crash at any point leaves either the old file or
/// the new one — never a half-written hybrid. Called on resume when
/// [`read_checkpoint_lossy`] found damaged lines, so the damage is shed once
/// instead of being re-skipped (and re-logged) on every later resume.
///
/// # Errors
///
/// Propagates file I/O errors.
pub fn compact_checkpoint(
    path: &Path,
    entries: &[CheckpointEntry],
) -> Result<(), OrchestrateError> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut writer = CheckpointWriter::over(std::fs::File::create(&tmp)?);
    for entry in entries {
        writer.append(entry)?;
    }
    writer.file.sync_all()?;
    drop(writer);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// What a resuming session does with its checkpoint file: loads the entries
/// (none when the file does not exist yet) and reopens it for appending.
/// Damaged lines are shed once via an atomic compaction, and so is a torn
/// tail — the next append would otherwise land on the torn line, fail its
/// CRC on the following resume and lose a freshly computed range.
fn resume_checkpoint(
    path: &Path,
) -> Result<(Vec<CheckpointEntry>, CheckpointWriter), OrchestrateError> {
    let mut entries = Vec::new();
    if path.exists() {
        let load = load_checkpoint(path)?;
        if load.damaged > 0 || load.torn_tail {
            eprintln!(
                "orchestrate: checkpoint {} held {} damaged line(s), torn tail: {}; compacting",
                path.display(),
                load.damaged,
                load.torn_tail
            );
            compact_checkpoint(path, &load.entries)?;
        }
        entries = load.entries;
    }
    Ok((entries, CheckpointWriter::open(path)?))
}

/// The sub-ranges of `0..total` not covered by `done` ranges — the work a
/// resumed coordinator still has to dispatch.
fn missing_ranges(total: u64, done: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut sorted: Vec<(u64, u64)> = done.to_vec();
    sorted.sort_unstable();
    let mut missing = Vec::new();
    let mut cursor = 0u64;
    for (lo, hi) in sorted {
        if lo > cursor {
            missing.push((cursor, lo.min(total)));
        }
        cursor = cursor.max(hi);
        if cursor >= total {
            break;
        }
    }
    if cursor < total {
        missing.push((cursor, total));
    }
    missing
}

/// Splits ranges into dispatch chunks of at most `chunk` trials.
fn chunk_ranges(ranges: &[(u64, u64)], chunk: u64) -> VecDeque<(u64, u64)> {
    let chunk = chunk.max(1);
    let mut out = VecDeque::new();
    for &(lo, hi) in ranges {
        let mut start = lo;
        while start < hi {
            let end = (start + chunk).min(hi);
            out.push_back((start, end));
            start = end;
        }
    }
    out
}

/// Merges completed ranges into the full `0..total` record stream,
/// validating that the ranges tile the interval exactly and that every
/// record sits in its own slot. The result is the stream a single-process
/// campaign would have produced.
fn merge_ranges(
    total: u64,
    mut done: Vec<(u64, u64, Vec<TrialRecord>)>,
) -> Result<Vec<TrialRecord>, OrchestrateError> {
    done.sort_by_key(|&(lo, _, _)| lo);
    let mut merged: Vec<TrialRecord> = Vec::with_capacity(total as usize);
    let mut cursor = 0u64;
    for (lo, hi, records) in done {
        if lo != cursor {
            return Err(OrchestrateError::Coverage(format!(
                "ranges do not tile 0..{total}: expected a range starting at {cursor}, got {lo}..{hi}"
            )));
        }
        if records.len() as u64 != hi - lo {
            return Err(OrchestrateError::Coverage(format!(
                "range {lo}..{hi} carries {} record(s)",
                records.len()
            )));
        }
        merged.extend(records);
        cursor = hi;
    }
    if cursor != total {
        return Err(OrchestrateError::Coverage(format!(
            "ranges cover 0..{cursor} of 0..{total}"
        )));
    }
    for (slot, record) in merged.iter().enumerate() {
        if record.trial != slot as u64 {
            return Err(OrchestrateError::Coverage(format!(
                "slot {slot} holds trial {}",
                record.trial
            )));
        }
    }
    Ok(merged)
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

/// What a worker forwarder delivers into the coordinator's shared inbox.
enum Delivery {
    /// A parsed JSON frame.
    Frame(JsonValue),
    /// A decoded record block: the job id and its batch of records.
    Block(u64, Vec<TrialRecord>),
    /// A frame that was not valid JSON / not a decodable block.
    Malformed(String),
    /// The connection died on damaged bytes (CRC mismatch, torn frame) —
    /// the reason recorded by the transport's reader.
    Corrupt(String),
    /// The connection closed cleanly.
    Gone,
}

struct WorkerHandle {
    conn: Arc<Connection>,
    pid: u64,
    /// Protocol version from the worker's hello (1 when unstated): gates
    /// whether run frames carry `batch`/`compress`.
    proto: u64,
    alive: bool,
    forwarder: Option<JoinHandle<()>>,
}

struct Inflight {
    job: u64,
    lo: u64,
    hi: u64,
    records: Vec<TrialRecord>,
    /// Whether this range has already been speculatively re-dispatched —
    /// one speculation per straggler, then the 2× deadline drops it.
    speculated: bool,
}

/// Spawns the thread that pumps one worker connection into the shared inbox,
/// translating the close reason: recorded read damage becomes
/// [`Delivery::Corrupt`], a clean hangup becomes [`Delivery::Gone`]. Frames
/// are decoded here — JSON parsing and block decompression both — so the
/// dispatch thread only ever handles ready deliveries.
fn spawn_forwarder(
    conn: &Arc<Connection>,
    index: usize,
    tx: BoundedSender<(usize, Delivery)>,
) -> JoinHandle<()> {
    let conn = Arc::clone(conn);
    std::thread::spawn(move || loop {
        match conn.recv() {
            Some(frame) => {
                let delivery = if is_block_frame(&frame) {
                    // The frame CRC already vouched for these bytes, so a
                    // decode failure here is a protocol bug, not line noise —
                    // but it still only costs this one worker.
                    match decode_block(&frame) {
                        Ok((job, records)) => Delivery::Block(job, records),
                        Err(err) => Delivery::Malformed(format!("undecodable block: {err}")),
                    }
                } else {
                    match parse_frame(&frame) {
                        Ok(msg) => Delivery::Frame(msg),
                        Err(err) => Delivery::Malformed(err),
                    }
                };
                if tx.send((index, delivery)).is_err() {
                    return;
                }
            }
            None => {
                let delivery = match conn.read_fault() {
                    Some(fault) => Delivery::Corrupt(fault),
                    None => Delivery::Gone,
                };
                let _ = tx.send((index, delivery));
                return;
            }
        }
    })
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
    batch: u64,
    compress: bool,
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
            recv_timeout: DEFAULT_RECV_TIMEOUT,
            respawn_budget: DEFAULT_RESPAWN_BUDGET,
            worker_faults: None,
            batch: DEFAULT_BATCH_RECORDS,
            compress: false,
        }
    }

    /// Sets how many records workers pack per block frame (default
    /// [`DEFAULT_BATCH_RECORDS`]). `0` disables batching entirely and falls
    /// back to the protocol-1 one-JSON-frame-per-trial stream; `1` ships
    /// degenerate single-record blocks (useful to isolate framing cost).
    /// Only protocol-2 workers batch either way.
    pub fn batch_records(mut self, batch: u64) -> Self {
        self.batch = batch;
        self
    }

    /// Passes each block's columnar body through the std-only LZ codec
    /// (default off: on a localhost wire the bytes are cheaper than the
    /// cycles, see DESIGN.md; turn it on when workers cross a real network).
    /// No effect on the legacy per-trial stream.
    pub fn compress(mut self, compress: bool) -> Self {
        self.compress = compress;
        self
    }

    /// Sets the worker-process count (default 2; clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Overrides the dispatch chunk size in trials. The default is
    /// `ceil(trials / (workers · 4))` per spec: enough chunks that a lost
    /// worker forfeits little and stragglers rebalance, few enough that
    /// framing overhead stays negligible.
    pub fn chunk(mut self, chunk: u64) -> Self {
        self.chunk = Some(chunk.max(1));
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
    /// well-formed hello within the spawn deadline.
    pub fn start(self) -> Result<Session, OrchestrateError> {
        let listener = Listener::bind_local()?;
        let addr = listener.local_addr()?.to_string();
        let mut children = Vec::with_capacity(self.workers);
        for spawn in 0..self.workers {
            children.push(spawn_worker(
                &self.command,
                &addr,
                self.worker_faults.as_ref(),
                spawn as u64,
            )?);
        }

        let deadline = Instant::now() + SPAWN_DEADLINE;
        let (inbox_tx, inbox) = bounded::<(usize, Delivery)>(1024);
        let mut workers = Vec::with_capacity(children.len());
        for index in 0..children.len() {
            let conn = listener.accept_deadline(deadline)?;
            let (pid, proto) = read_hello(&conn, deadline, index)?;
            let conn = Arc::new(conn);
            let forwarder = spawn_forwarder(&conn, index, inbox_tx.clone());
            workers.push(WorkerHandle {
                conn,
                pid,
                proto,
                alive: true,
                forwarder: Some(forwarder),
            });
        }

        // The jitter stream is seeded from the fault plan when there is one
        // (so a chaos run's whole recovery timeline replays from one seed)
        // and from a fixed constant otherwise.
        let jitter_seed = self.worker_faults.as_ref().map_or(0x7E5_7A77, |p| p.seed);
        Ok(Session {
            scale: self.scale,
            chunk: self.chunk,
            checkpoint: self.checkpoint,
            recv_timeout: self.recv_timeout,
            respawn_budget: self.respawn_budget,
            respawns_used: 0,
            respawn_due: None,
            respawn_rng: ProcessorRng::from_seed(derive_seed(jitter_seed, 0xBAC0FF)),
            worker_faults: self.worker_faults,
            target_workers: self.workers,
            spawn_counter: self.workers as u64,
            command: self.command,
            addr,
            listener,
            workers,
            children,
            inbox,
            inbox_tx,
            next_job: 0,
            retired_jobs: BTreeSet::new(),
            batch: self.batch,
            compress: self.compress,
            checkpoint_writer: None,
        })
    }
}

/// Spawns one worker process dialing back to `addr`. With a fault plan
/// configured, the worker inherits it through the environment hook,
/// reseeded per spawn index so every worker (and every respawn) injures its
/// frames on its own deterministic substream.
fn spawn_worker(
    command: &[String],
    addr: &str,
    faults: Option<&FaultPlan>,
    spawn_index: u64,
) -> io::Result<Child> {
    let mut cmd = Command::new(&command[0]);
    cmd.args(&command[1..])
        .arg("--connect")
        .arg(addr)
        // Workers write records to the socket, never to stdout; a stray
        // print must not corrupt the coordinator's own output.
        .stdout(Stdio::null());
    if let Some(plan) = faults {
        let reseeded = plan.reseeded(derive_seed(plan.seed, spawn_index));
        cmd.env(FAULT_ENV, reseeded.to_string());
    }
    cmd.spawn()
}

/// Receives and validates a worker's hello frame, returning its pid and
/// protocol version. A hello without a `proto` field is a protocol-1 worker
/// — the shape every worker sent before block frames existed — and keeps the
/// per-trial record stream.
fn read_hello(
    conn: &Connection,
    deadline: Instant,
    index: usize,
) -> Result<(u64, u64), OrchestrateError> {
    let hello = conn.recv_deadline(deadline).map_err(|err| {
        OrchestrateError::Protocol(format!("worker {index} sent no hello: {err:?}"))
    })?;
    let hello = parse_frame(&hello).map_err(OrchestrateError::Protocol)?;
    if str_field(&hello, "type") != Ok("hello") {
        return Err(OrchestrateError::Protocol(format!(
            "worker {index}'s first frame was not a hello"
        )));
    }
    let pid = int_field(&hello, "pid").map_err(OrchestrateError::Protocol)?;
    let proto = int_field(&hello, "proto").unwrap_or(1);
    Ok((pid, proto))
}

fn parse_frame(frame: &[u8]) -> Result<JsonValue, String> {
    let text = std::str::from_utf8(frame).map_err(|err| format!("non-UTF-8 frame: {err}"))?;
    JsonValue::parse(text)
}

/// A live orchestration session: connected worker processes, reusable across
/// many specs (the `scenarios` bin runs its whole matrix through one
/// session). The session keeps its listener open so replacement workers can
/// dial in after losses.
pub struct Session {
    scale: Scale,
    chunk: Option<u64>,
    checkpoint: Option<PathBuf>,
    recv_timeout: Duration,
    respawn_budget: u32,
    respawns_used: u32,
    respawn_due: Option<Instant>,
    respawn_rng: ProcessorRng,
    worker_faults: Option<FaultPlan>,
    target_workers: usize,
    spawn_counter: u64,
    command: Vec<String>,
    addr: String,
    listener: Listener,
    workers: Vec<WorkerHandle>,
    children: Vec<Child>,
    inbox: BoundedReceiver<(usize, Delivery)>,
    // Kept so the inbox stays connected for forwarders spawned later
    // (respawns) — and so a momentarily empty pool reads as a timeout, not
    // a disconnect.
    inbox_tx: BoundedSender<(usize, Delivery)>,
    next_job: u64,
    // Jobs whose range has been settled (merged, or superseded by a twin).
    // Job ids are session-unique, so a frame naming a retired job can only
    // be a duplicated late copy — benign — while a frame naming an unknown
    // job is a protocol violation. Without this, a duplicated final
    // `range_done` of one spec poisons the next spec's run on the same
    // session.
    retired_jobs: BTreeSet<u64>,
    batch: u64,
    compress: bool,
    // One open handle for coalesced checkpoint appends, (re)opened per spec
    // run *after* any resume compaction (a rename would orphan the handle's
    // inode and lose every subsequent append).
    checkpoint_writer: Option<CheckpointWriter>,
}

impl Session {
    /// OS process ids of the worker processes, in session order — what a
    /// fault-injection test needs to kill one mid-range.
    pub fn worker_pids(&self) -> Vec<u64> {
        self.workers.iter().map(|w| w.pid).collect()
    }

    /// How many workers are still connected.
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Removes and returns the OS process handle of session worker `index` —
    /// fault injection for tests: `kill()` it and watch the dispatch loop
    /// reroute its range. Children are matched by the pid the worker reported
    /// in its hello (spawn order and connection-accept order can differ), so
    /// the handle always belongs to the worker the coordinator calls `index`.
    /// The session stops reaping a taken child; the caller owns the `wait`.
    ///
    /// # Panics
    ///
    /// Panics if worker `index`'s process was already taken.
    pub fn take_worker_process(&mut self, index: usize) -> Child {
        let pid = self.workers[index].pid;
        let position = self
            .children
            .iter()
            .position(|child| u64::from(child.id()) == pid)
            .unwrap_or_else(|| panic!("worker {index}'s process (pid {pid}) already taken"));
        self.children.remove(position)
    }

    /// Runs one spec's full trial range across the workers and returns the
    /// merged record stream, bit-identical to a single-process
    /// [`ScenarioSpec::run_range_records`] over `0..trials`.
    ///
    /// # Errors
    ///
    /// See [`OrchestrateError`]; spec-resolution failures surface as
    /// [`OrchestrateError::Scenario`], exactly as a local run would report
    /// them.
    pub fn run_spec_records(
        &mut self,
        spec: &ScenarioSpec,
    ) -> Result<Vec<TrialRecord>, OrchestrateError> {
        self.run_spec_records_with(spec, |_| {})
    }

    /// Like [`Session::run_spec_records`], with a progress callback invoked
    /// from the dispatch loop on every assignment, completion, restoration
    /// and worker loss.
    ///
    /// # Errors
    ///
    /// See [`Session::run_spec_records`].
    pub fn run_spec_records_with(
        &mut self,
        spec: &ScenarioSpec,
        mut on_event: impl FnMut(OrchestrationEvent),
    ) -> Result<Vec<TrialRecord>, OrchestrateError> {
        // Fail exactly like a local run before involving any worker.
        spec.feasibility()?;
        let total = spec.trials;
        let id = spec.id();

        // Restore checkpointed ranges for this exact workload; damage found
        // in the file is shed once via an atomic compaction. The coalescing
        // writer from any previous spec run is closed first: compaction
        // renames a fresh file over the path, which would silently orphan an
        // open append handle.
        self.checkpoint_writer = None;
        let mut done: Vec<(u64, u64, Vec<TrialRecord>)> = Vec::new();
        let mut completed: BTreeSet<(u64, u64)> = BTreeSet::new();
        if let Some(path) = self.checkpoint.clone() {
            let (entries, writer) = resume_checkpoint(&path)?;
            for entry in entries {
                if entry.scenario == id
                    && entry.base_seed == spec.base_seed
                    && entry.trials == total
                    && entry.hi <= total
                    && completed.insert((entry.lo, entry.hi))
                {
                    on_event(OrchestrationEvent::RangeRestored {
                        lo: entry.lo,
                        hi: entry.hi,
                    });
                    done.push((entry.lo, entry.hi, entry.records));
                }
            }
            self.checkpoint_writer = Some(writer);
        }

        let restored: Vec<(u64, u64)> = done.iter().map(|&(lo, hi, _)| (lo, hi)).collect();
        let mut covered: u64 = restored.iter().map(|&(lo, hi)| hi - lo).sum();
        let chunk = self.chunk.unwrap_or_else(|| {
            let shards = (self.target_workers as u64) * 4;
            total.div_ceil(shards.max(1)).max(1)
        });
        let mut pending = chunk_ranges(&missing_ranges(total, &restored), chunk);
        let mut inflight: Vec<Option<Inflight>> = (0..self.workers.len()).map(|_| None).collect();
        let mut last_heard: Vec<Instant> = vec![Instant::now(); self.workers.len()];
        // Reused drain buffer: one wakeup consumes every queued delivery.
        let mut drained: Vec<(usize, Delivery)> = Vec::new();

        let outcome = loop {
            // Replace lost capacity when the budget allows: schedule (or
            // keep) a pending respawn whenever the pool is short, and
            // perform one whose backoff has elapsed. Doing this at the loop
            // top — not only on a receive timeout — keeps respawns timely
            // even while the surviving workers stream frames continuously.
            self.maybe_schedule_respawn();
            if self.respawn_due.is_some_and(|due| Instant::now() >= due) {
                self.respawn_due = None;
                match self.respawn() {
                    Ok(index) => {
                        inflight.push(None);
                        last_heard.push(Instant::now());
                        on_event(OrchestrationEvent::WorkerRespawned { worker: index });
                    }
                    Err(err) => {
                        // The attempt is spent; the next iteration schedules
                        // another (with a longer backoff) if the budget
                        // allows.
                        eprintln!("orchestrate: respawn attempt failed: {err}");
                    }
                }
            }

            // Hand pending chunks to every idle live worker, skipping
            // ranges a speculative twin already completed.
            for (index, slot) in inflight.iter_mut().enumerate() {
                if slot.is_some() || !self.workers[index].alive {
                    continue;
                }
                let assignment = loop {
                    match pending.pop_front() {
                        Some(range) if completed.contains(&range) => continue,
                        other => break other,
                    }
                };
                let Some((lo, hi)) = assignment else {
                    break;
                };
                let job = self.next_job;
                self.next_job += 1;
                let mut run = JsonValue::object();
                run.push("type", "run")
                    .push("job", job)
                    .push("scenario", id.as_str())
                    .push("scale", scale_label(self.scale))
                    .push("trials", total)
                    .push("base_seed", spec.base_seed)
                    .push("max_windows", spec.limits.max_windows)
                    .push("max_steps", spec.limits.max_steps)
                    .push("lo", lo)
                    .push("hi", hi);
                // Only a protocol-2 worker understands block streaming; a
                // legacy worker gets the bare v1 frame and answers with
                // per-trial records, which the dispatch loop still accepts.
                if self.workers[index].proto >= 2 && self.batch > 0 {
                    run.push("batch", self.batch.min(MAX_BATCH_RECORDS))
                        .push("compress", self.compress);
                }
                if self.workers[index]
                    .conn
                    .send(run.to_string().into_bytes())
                    .is_err()
                {
                    // The forwarder will deliver the Gone event; just skip.
                    pending.push_front((lo, hi));
                    continue;
                }
                *slot = Some(Inflight {
                    job,
                    lo,
                    hi,
                    records: Vec::with_capacity((hi - lo) as usize),
                    speculated: false,
                });
                last_heard[index] = Instant::now();
                on_event(OrchestrationEvent::RangeAssigned {
                    worker: index,
                    lo,
                    hi,
                });
            }

            if covered >= total {
                break Ok(());
            }
            if self.live_workers() == 0 && !self.respawn_possible() {
                break Err(OrchestrateError::WorkersExhausted(format!(
                    "all {} worker(s) lost (respawn budget {} spent) with {} range(s) of '{id}' unfinished",
                    self.workers.len(),
                    self.respawn_budget,
                    pending.len() + inflight.iter().flatten().count(),
                )));
            }

            // Wake at the earliest of: a straggler crossing its speculation
            // (1×) or drop (2×) deadline, a due respawn, or a liveness tick.
            let mut deadline = Instant::now() + self.recv_timeout;
            for (i, slot) in inflight.iter().enumerate() {
                if let Some(range) = slot {
                    if self.workers[i].alive {
                        let factor = if range.speculated { 2 } else { 1 };
                        deadline = deadline.min(last_heard[i] + self.recv_timeout * factor);
                    }
                }
            }
            if let Some(due) = self.respawn_due {
                deadline = deadline.min(due);
            }

            match self.inbox.recv_many_deadline(&mut drained, deadline) {
                Ok(_) => {
                    // One wakeup, every queued delivery: the drain processes
                    // a burst of frames (typical with block-streaming
                    // workers) in a single pass instead of a lock/wake cycle
                    // per frame.
                    for (index, delivery) in drained.drain(..) {
                        last_heard[index] = Instant::now();
                        if !self.workers[index].alive {
                            // Residue from a worker already written off —
                            // possibly earlier in this same batch.
                            continue;
                        }
                        match delivery {
                            Delivery::Frame(msg) => {
                                if let Err(reason) = handle_frame(
                                    &msg,
                                    FrameContext {
                                        index,
                                        inflight: &mut inflight,
                                        done: &mut done,
                                        completed: &mut completed,
                                        covered: &mut covered,
                                        retired: &mut self.retired_jobs,
                                        checkpoint: self.checkpoint_writer.as_mut(),
                                        scenario: &id,
                                        base_seed: spec.base_seed,
                                        trials: total,
                                        on_event: &mut on_event,
                                    },
                                )? {
                                    self.lose_worker(
                                        index,
                                        &mut inflight,
                                        &mut pending,
                                        &completed,
                                        &mut on_event,
                                    );
                                    eprintln!("orchestrate: worker {index} dropped: {reason}");
                                }
                            }
                            Delivery::Block(job, records) => {
                                if let Err(reason) = handle_block(
                                    job,
                                    records,
                                    FrameContext {
                                        index,
                                        inflight: &mut inflight,
                                        done: &mut done,
                                        completed: &mut completed,
                                        covered: &mut covered,
                                        retired: &mut self.retired_jobs,
                                        checkpoint: self.checkpoint_writer.as_mut(),
                                        scenario: &id,
                                        base_seed: spec.base_seed,
                                        trials: total,
                                        on_event: &mut on_event,
                                    },
                                ) {
                                    self.lose_worker(
                                        index,
                                        &mut inflight,
                                        &mut pending,
                                        &completed,
                                        &mut on_event,
                                    );
                                    eprintln!("orchestrate: worker {index} dropped: {reason}");
                                }
                            }
                            Delivery::Malformed(err) => {
                                self.lose_worker(
                                    index,
                                    &mut inflight,
                                    &mut pending,
                                    &completed,
                                    &mut on_event,
                                );
                                eprintln!(
                                    "orchestrate: worker {index} sent a malformed frame: {err}"
                                );
                            }
                            Delivery::Corrupt(fault) => {
                                self.lose_worker(
                                    index,
                                    &mut inflight,
                                    &mut pending,
                                    &completed,
                                    &mut on_event,
                                );
                                eprintln!(
                                    "orchestrate: worker {index} dropped on frame damage: {fault}"
                                );
                            }
                            Delivery::Gone => {
                                self.lose_worker(
                                    index,
                                    &mut inflight,
                                    &mut pending,
                                    &completed,
                                    &mut on_event,
                                );
                            }
                        }
                    }
                }
                Err(RecvError::Timeout) => {
                    // A due respawn is handled at the loop top; here, apply
                    // the liveness policy: speculate at 1× the timeout, drop
                    // at 2×.
                    let now = Instant::now();
                    for i in 0..inflight.len() {
                        if !self.workers[i].alive {
                            continue;
                        }
                        let Some(range) = inflight[i].as_ref() else {
                            continue;
                        };
                        let (lo, hi, speculated) = (range.lo, range.hi, range.speculated);
                        if now >= last_heard[i] + self.recv_timeout * 2 {
                            eprintln!(
                                "orchestrate: worker {i} silent past twice the receive \
                                 timeout; dropping it"
                            );
                            self.lose_worker(
                                i,
                                &mut inflight,
                                &mut pending,
                                &completed,
                                &mut on_event,
                            );
                        } else if !speculated && now >= last_heard[i] + self.recv_timeout {
                            inflight[i].as_mut().expect("checked above").speculated = true;
                            if !completed.contains(&(lo, hi)) {
                                eprintln!(
                                    "orchestrate: worker {i} silent past the receive timeout; \
                                     speculatively re-dispatching {lo}..{hi}"
                                );
                                pending.push_back((lo, hi));
                                on_event(OrchestrationEvent::RangeSpeculated { worker: i, lo, hi });
                            }
                        }
                    }
                }
                Err(RecvError::Disconnected) => {
                    break Err(OrchestrateError::Protocol(
                        "every worker forwarder exited".into(),
                    ))
                }
            }
        };

        // A worker still holding an assignment here is a straggler whose
        // range a twin already completed. Drop it now: left alone, its
        // eventual frames for this spec's job would poison the next spec run
        // on this session. The respawn budget can replace the capacity.
        for i in 0..inflight.len() {
            if inflight[i].is_some() && self.workers[i].alive {
                eprintln!(
                    "orchestrate: dropping worker {i} still holding an already-completed range"
                );
                self.lose_worker(i, &mut inflight, &mut pending, &completed, &mut on_event);
            }
        }

        outcome?;
        merge_ranges(total, done)
    }

    /// Whether lost capacity can still come back: a respawn is already
    /// scheduled, or the budget has room for another.
    fn respawn_possible(&self) -> bool {
        self.respawn_due.is_some() || self.respawns_used < self.respawn_budget
    }

    /// Schedules a respawn (exponential backoff plus seeded jitter) when the
    /// pool is below target, the budget has room, and none is pending.
    fn maybe_schedule_respawn(&mut self) {
        if self.respawn_due.is_none()
            && self.respawns_used < self.respawn_budget
            && self.live_workers() < self.target_workers
        {
            let attempt = self.respawns_used.min(5);
            let backoff = RESPAWN_BACKOFF_BASE
                .saturating_mul(1 << attempt)
                .min(RESPAWN_BACKOFF_CAP);
            let jitter = Duration::from_millis(self.respawn_rng.range(RESPAWN_JITTER_MS));
            self.respawn_due = Some(Instant::now() + backoff + jitter);
        }
    }

    /// Spawns one replacement worker, waits for its hello, and appends it to
    /// the pool. Consumes one unit of respawn budget whether or not the
    /// attempt succeeds.
    fn respawn(&mut self) -> Result<usize, OrchestrateError> {
        self.respawns_used += 1;
        let spawn_index = self.spawn_counter;
        self.spawn_counter += 1;
        let child = spawn_worker(
            &self.command,
            &self.addr,
            self.worker_faults.as_ref(),
            spawn_index,
        )?;
        self.children.push(child);
        let deadline = Instant::now() + RESPAWN_ACCEPT_DEADLINE;
        let index = self.workers.len();
        let conn = self.listener.accept_deadline(deadline)?;
        let (pid, proto) = read_hello(&conn, deadline, index)?;
        let conn = Arc::new(conn);
        let forwarder = spawn_forwarder(&conn, index, self.inbox_tx.clone());
        self.workers.push(WorkerHandle {
            conn,
            pid,
            proto,
            alive: true,
            forwarder: Some(forwarder),
        });
        eprintln!(
            "orchestrate: respawned worker {index} (pid {pid}, {} of {} budget used)",
            self.respawns_used, self.respawn_budget
        );
        Ok(index)
    }

    /// Marks a worker dead and re-queues its in-flight range (partial
    /// records are discarded: a deterministic re-run is identical). A range
    /// already completed by a speculative twin — or still in flight on one —
    /// is not re-queued.
    fn lose_worker(
        &mut self,
        index: usize,
        inflight: &mut [Option<Inflight>],
        pending: &mut VecDeque<(u64, u64)>,
        completed: &BTreeSet<(u64, u64)>,
        on_event: &mut impl FnMut(OrchestrationEvent),
    ) {
        if !self.workers[index].alive {
            return;
        }
        self.workers[index].alive = false;
        // Force the socket shut: the worker process observes the hangup and
        // exits, and the forwarder unblocks — a dropped worker must never
        // leave a thread or process for shutdown to hang on.
        self.workers[index].conn.shutdown();
        if let Some(lost) = inflight[index].take() {
            let range = (lost.lo, lost.hi);
            let twin_running = inflight
                .iter()
                .flatten()
                .any(|other| (other.lo, other.hi) == range);
            if !completed.contains(&range) && !twin_running {
                pending.push_front(range);
            }
        }
        on_event(OrchestrationEvent::WorkerLost { worker: index });
    }

    /// Sends every live worker a shutdown frame and reaps the worker
    /// processes. Called automatically on drop; explicit calls get the exit
    /// error reporting.
    ///
    /// # Errors
    ///
    /// [`OrchestrateError::Io`] when reaping a child fails.
    pub fn shutdown(mut self) -> Result<(), OrchestrateError> {
        self.shutdown_inner()?;
        Ok(())
    }

    fn shutdown_inner(&mut self) -> Result<(), OrchestrateError> {
        let mut bye = JsonValue::object();
        bye.push("type", "shutdown");
        let frame = bye.to_string().into_bytes();
        for worker in &self.workers {
            if worker.alive {
                let _ = worker.conn.send(frame.clone());
            } else {
                // A worker dropped for a violation may still hold an open
                // socket (lose_worker closes it too, but a worker never
                // lost through that path — e.g. a failed hello — may not);
                // force it shut so its forwarder and process can exit.
                worker.conn.shutdown();
            }
        }
        let deadline = Instant::now() + SHUTDOWN_DEADLINE;
        for worker in &mut self.workers {
            worker.alive = false;
            if let Some(forwarder) = worker.forwarder.take() {
                // A live worker exits on the shutdown frame and the
                // forwarder observes the hangup; one that ignores the frame
                // gets its socket forced shut at the deadline instead of
                // hanging the join forever.
                while !forwarder.is_finished() && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(5));
                }
                if !forwarder.is_finished() {
                    worker.conn.shutdown();
                }
                let _ = forwarder.join();
            }
        }
        for child in &mut self.children {
            loop {
                match child.try_wait()? {
                    Some(_) => break,
                    None if Instant::now() >= deadline => {
                        // Ignored both the shutdown frame and a dead socket:
                        // reap it forcibly rather than hang the coordinator.
                        let _ = child.kill();
                        child.wait()?;
                        break;
                    }
                    None => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        }
        self.children.clear();
        Ok(())
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
        // A worker that ignored the shutdown frame must not outlive the
        // session: reap whatever is left forcibly.
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Everything one worker frame is handled against — bundled so the dispatch
/// loop hands over one coherent view of the run.
struct FrameContext<'a, F: FnMut(OrchestrationEvent)> {
    index: usize,
    inflight: &'a mut [Option<Inflight>],
    done: &'a mut Vec<(u64, u64, Vec<TrialRecord>)>,
    /// Exact ranges already merged — the dedupe set that makes duplicated
    /// frames and speculative twin completions idempotent.
    completed: &'a mut BTreeSet<(u64, u64)>,
    /// Trials covered so far (restored + completed); drives loop exit.
    covered: &'a mut u64,
    /// Session-wide set of settled job ids; late duplicates of their frames
    /// are discarded instead of read as protocol violations.
    retired: &'a mut BTreeSet<u64>,
    checkpoint: Option<&'a mut CheckpointWriter>,
    scenario: &'a str,
    base_seed: u64,
    trials: u64,
    on_event: &'a mut F,
}

/// Handles one worker frame inside the dispatch loop. Returns `Ok(Ok(()))`
/// on success, `Ok(Err(reason))` when the worker must be dropped, and `Err`
/// for coordinator-side failures (checkpoint I/O).
///
/// Duplicate deliveries are idempotent by design: a record for a trial the
/// range already holds is discarded, and a `range_done` for a range already
/// completed (a duplicated frame, or the slower copy of a speculative
/// re-dispatch) is discarded without touching the merge. Everything else —
/// gaps, mismatches, unparseable records — drops the worker.
fn handle_frame<F: FnMut(OrchestrationEvent)>(
    msg: &JsonValue,
    ctx: FrameContext<'_, F>,
) -> Result<Result<(), String>, OrchestrateError> {
    let FrameContext {
        index,
        inflight,
        done,
        completed,
        covered,
        retired,
        checkpoint,
        scenario,
        base_seed,
        trials,
        on_event,
    } = ctx;
    let kind = match str_field(msg, "type") {
        Ok(kind) => kind,
        Err(err) => return Ok(Err(err)),
    };
    match kind {
        "record" => {
            let job = match int_field(msg, "job") {
                Ok(job) => job,
                Err(err) => return Ok(Err(err)),
            };
            let Some(current) = inflight[index].as_mut() else {
                if retired.contains(&job) {
                    // A duplicated late copy of a settled job's record.
                    return Ok(Ok(()));
                }
                return Ok(Err("record frame outside any assigned range".into()));
            };
            if job != current.job {
                if retired.contains(&job) {
                    return Ok(Ok(()));
                }
                return Ok(Err("record frame for a stale job".into()));
            }
            let Some(payload) = msg.get("record") else {
                return Ok(Err("record frame without a 'record' object".into()));
            };
            let record = match TrialRecord::from_json(payload) {
                Ok(record) => record,
                Err(err) => return Ok(Err(format!("unparseable record: {err}"))),
            };
            let expected = current.lo + current.records.len() as u64;
            if record.trial < expected {
                // A duplicated frame re-delivering a trial already held:
                // discard, don't punish. (A deterministic re-run is
                // identical, so there is nothing to compare.)
                return Ok(Ok(()));
            }
            if record.trial > expected {
                // A gap means a record frame was lost in flight — the range
                // can never complete; re-run it elsewhere.
                return Ok(Err(format!(
                    "record gap: expected trial {expected}, got {}",
                    record.trial
                )));
            }
            current.records.push(record);
            Ok(Ok(()))
        }
        "range_done" => {
            let job = int_field(msg, "job");
            let lo = int_field(msg, "lo");
            let hi = int_field(msg, "hi");
            let matches_current = inflight[index].as_ref().is_some_and(|current| {
                job == Ok(current.job) && lo == Ok(current.lo) && hi == Ok(current.hi)
            });
            if !matches_current {
                // A duplicated range_done arriving after its original was
                // already merged is benign — its job is retired (possibly by
                // an earlier spec on this session) or its range is in this
                // run's completed set. Any other mismatch is a violation.
                if let Ok(job) = job {
                    if retired.contains(&job) {
                        return Ok(Ok(()));
                    }
                }
                if let (Ok(lo), Ok(hi)) = (lo, hi) {
                    if completed.contains(&(lo, hi)) {
                        return Ok(Ok(()));
                    }
                }
                return Ok(Err("range_done does not match the assigned range".into()));
            }
            {
                // Validate before taking the slot: on failure the range must
                // stay in flight so losing the worker re-queues it (a taken
                // slot would leak the range and stall the run forever).
                let current = inflight[index].as_ref().expect("matched above");
                if current.records.len() as u64 != current.hi - current.lo {
                    return Ok(Err(format!(
                        "range {}..{} completed with {} record(s)",
                        current.lo,
                        current.hi,
                        current.records.len()
                    )));
                }
            }
            let current = inflight[index].take().expect("matched above");
            retired.insert(current.job);
            if completed.contains(&(current.lo, current.hi)) {
                // The straggler finished after its speculative twin: the
                // range is already merged; free the worker and move on.
                return Ok(Ok(()));
            }
            if let Some(writer) = checkpoint {
                // Coalesced: the whole completed range lands as one write on
                // the session's open handle.
                writer.append(&CheckpointEntry {
                    scenario: scenario.to_string(),
                    base_seed,
                    trials,
                    lo: current.lo,
                    hi: current.hi,
                    records: current.records.clone(),
                })?;
            }
            completed.insert((current.lo, current.hi));
            *covered += current.hi - current.lo;
            on_event(OrchestrationEvent::RangeCompleted {
                worker: index,
                lo: current.lo,
                hi: current.hi,
            });
            done.push((current.lo, current.hi, current.records));
            Ok(Ok(()))
        }
        "error" => {
            let message = str_field(msg, "message").unwrap_or("unspecified worker error");
            Ok(Err(format!("worker reported: {message}")))
        }
        other => Ok(Err(format!("unexpected frame type '{other}'"))),
    }
}

/// Handles one decoded record block inside the dispatch loop: the batched
/// equivalent of the `"record"` arm of [`handle_frame`], with the same
/// idempotence rules applied per record. Returns `Err(reason)` when the
/// worker must be dropped.
///
/// A block re-delivering trials the range already holds (a duplicated frame)
/// skips them record by record — a deterministic re-run is identical, so
/// there is nothing to compare — while a gap or an overrun past the assigned
/// range is unrecoverable for this worker and re-runs the range elsewhere.
fn handle_block<F: FnMut(OrchestrationEvent)>(
    job: u64,
    records: Vec<TrialRecord>,
    ctx: FrameContext<'_, F>,
) -> Result<(), String> {
    let FrameContext {
        index,
        inflight,
        retired,
        ..
    } = ctx;
    let Some(current) = inflight[index].as_mut() else {
        if retired.contains(&job) {
            // A duplicated late copy of a settled job's block.
            return Ok(());
        }
        return Err("block frame outside any assigned range".into());
    };
    if job != current.job {
        if retired.contains(&job) {
            return Ok(());
        }
        return Err("block frame for a stale job".into());
    }
    for record in records {
        let expected = current.lo + current.records.len() as u64;
        if record.trial < expected {
            continue;
        }
        if record.trial > expected {
            return Err(format!(
                "record gap: expected trial {expected}, got {}",
                record.trial
            ));
        }
        if expected >= current.hi {
            return Err(format!(
                "block overflows the assigned range {}..{}",
                current.lo, current.hi
            ));
        }
        current.records.push(record);
    }
    Ok(())
}

/// The worker half: connects back to the coordinator, executes the ranges it
/// is handed, and streams the records. This is what `scenarios --worker` and
/// the `orchestrate_worker` binary run; it returns when the coordinator says
/// shutdown or hangs up.
pub mod worker {
    use super::*;

    /// Serves one coordinator at `addr` until shutdown or disconnect.
    ///
    /// When the `AGREEMENT_FAULTS` environment variable carries a
    /// [`FaultPlan`] spec, the worker's outgoing connection runs through the
    /// deterministic fault injector — this is the env-gated hook the
    /// orchestrator's [`Orchestrator::worker_faults`] uses, and chaos tests
    /// can set directly. An unset variable costs nothing; a malformed one is
    /// a loud error, never a silently fault-free run.
    ///
    /// # Errors
    ///
    /// Propagates connection errors and a malformed fault spec; execution
    /// errors are reported to the coordinator in-protocol, not returned
    /// here.
    pub fn serve(addr: &str) -> io::Result<()> {
        let faults = FaultPlan::from_env()
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidInput, err))?;
        let mut conn = match &faults {
            Some(plan) => Connection::connect_with_faults(addr, plan)?,
            None => Connection::connect(addr)?,
        };
        let mut hello = JsonValue::object();
        hello
            .push("type", "hello")
            .push("pid", std::process::id() as u64)
            .push("proto", PROTO_VERSION);
        if conn.send(hello.to_string().into_bytes()).is_err() {
            return Ok(());
        }
        // Range trials fan out across this process's cores exactly like a
        // local campaign; determinism is per-trial, so the process/thread
        // split never shows in the records.
        let campaign = Campaign::parallel();
        // Guard against duplicated run frames (a faulted coordinator→worker
        // leg can re-deliver one): re-executing would re-stream records the
        // coordinator has already consumed.
        let mut last_job: Option<u64> = None;
        while let Some(frame) = conn.recv() {
            let msg = match parse_frame(&frame) {
                Ok(msg) => msg,
                Err(_) => break,
            };
            match str_field(&msg, "type") {
                Ok("run") => {
                    let job = int_field(&msg, "job").unwrap_or(0);
                    if last_job == Some(job) {
                        continue;
                    }
                    last_job = Some(job);
                    // Batch size and compression arrive on the run frame (a
                    // coordinator only sends them after our proto-2 hello);
                    // their absence — a protocol-1 coordinator — selects the
                    // legacy one-JSON-frame-per-trial stream.
                    let batch =
                        int_field(&msg, "batch").unwrap_or(0).min(MAX_BATCH_RECORDS) as usize;
                    let compress = msg
                        .get("compress")
                        .and_then(JsonValue::as_bool)
                        .unwrap_or(false);
                    match execute(&msg, &campaign) {
                        Ok((lo, hi, records)) => {
                            if batch > 0 {
                                for block in records.chunks(batch) {
                                    if conn.send(encode_block(job, block, compress)).is_err() {
                                        return Ok(());
                                    }
                                }
                            } else {
                                for record in &records {
                                    let mut out = JsonValue::object();
                                    out.push("type", "record")
                                        .push("job", job)
                                        .push("record", record.to_json());
                                    if conn.send(out.to_string().into_bytes()).is_err() {
                                        return Ok(());
                                    }
                                }
                            }
                            let mut out = JsonValue::object();
                            out.push("type", "range_done")
                                .push("job", job)
                                .push("lo", lo)
                                .push("hi", hi)
                                .push("count", records.len() as u64);
                            if conn.send(out.to_string().into_bytes()).is_err() {
                                return Ok(());
                            }
                        }
                        Err(message) => {
                            let mut out = JsonValue::object();
                            out.push("type", "error")
                                .push("job", job)
                                .push("message", message.as_str());
                            if conn.send(out.to_string().into_bytes()).is_err() {
                                return Ok(());
                            }
                        }
                    }
                }
                Ok("shutdown") => break,
                _ => break,
            }
        }
        conn.finish();
        Ok(())
    }

    /// Resolves a run frame into a spec (registry id + wire overrides) and
    /// executes its range.
    fn execute(
        msg: &JsonValue,
        campaign: &Campaign,
    ) -> Result<(u64, u64, Vec<TrialRecord>), String> {
        let id = str_field(msg, "scenario")?;
        let scale = parse_scale(str_field(msg, "scale")?)
            .ok_or_else(|| "unknown scale label".to_string())?;
        let lo = int_field(msg, "lo")?;
        let hi = int_field(msg, "hi")?;
        let mut spec = scenario_registry(scale)
            .into_iter()
            .find(|spec| spec.id() == id)
            .ok_or_else(|| format!("no scenario '{id}' in the {} registry", scale_label(scale)))?;
        spec.trials = int_field(msg, "trials")?;
        spec.base_seed = int_field(msg, "base_seed")?;
        spec.limits = RunLimits {
            max_windows: int_field(msg, "max_windows")?,
            max_steps: int_field(msg, "max_steps")?,
        };
        let records = spec
            .run_range_records(campaign, lo, hi)
            .map_err(|err| err.to_string())?;
        Ok((lo, hi, records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn record(trial: u64) -> TrialRecord {
        use agreement_sim::Metrics;
        TrialRecord {
            trial,
            seed: 100 + trial,
            agreement: true,
            validity: true,
            terminated: true,
            violations: 0,
            halted: false,
            decided: None,
            first_decision_at: Some(trial),
            all_decided_at: Some(trial),
            duration: trial,
            longest_chain: 0,
            metrics: Metrics::default(),
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "agreement-orchestrate-{tag}-{}-{unique}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn missing_ranges_complements_arbitrary_coverage() {
        assert_eq!(missing_ranges(10, &[]), vec![(0, 10)]);
        assert_eq!(missing_ranges(10, &[(0, 10)]), Vec::<(u64, u64)>::new());
        assert_eq!(
            missing_ranges(10, &[(2, 5), (7, 9)]),
            vec![(0, 2), (5, 7), (9, 10)]
        );
        assert_eq!(missing_ranges(10, &[(5, 10), (0, 2)]), vec![(2, 5)]);
        assert_eq!(missing_ranges(0, &[]), Vec::<(u64, u64)>::new());
    }

    #[test]
    fn chunk_ranges_splits_without_gaps() {
        let chunks = chunk_ranges(&[(0, 7), (10, 12)], 3);
        assert_eq!(Vec::from(chunks), vec![(0, 3), (3, 6), (6, 7), (10, 12)]);
        // A zero chunk is clamped, not an infinite loop.
        assert_eq!(chunk_ranges(&[(0, 2)], 0).len(), 2);
    }

    #[test]
    fn merge_validates_tiling_and_slots() {
        let done = vec![
            (3u64, 5u64, vec![record(3), record(4)]),
            (0, 3, vec![record(0), record(1), record(2)]),
        ];
        let merged = merge_ranges(5, done).unwrap();
        assert_eq!(merged.len(), 5);
        assert!(merged.iter().enumerate().all(|(i, r)| r.trial == i as u64));

        let gap = vec![(0u64, 2u64, vec![record(0), record(1)])];
        assert!(matches!(
            merge_ranges(5, gap),
            Err(OrchestrateError::Coverage(_))
        ));
        let overlap = vec![
            (0u64, 3u64, vec![record(0), record(1), record(2)]),
            (2, 5, vec![record(2), record(3), record(4)]),
        ];
        assert!(matches!(
            merge_ranges(5, overlap),
            Err(OrchestrateError::Coverage(_))
        ));
        let short = vec![(0u64, 3u64, vec![record(0)])];
        assert!(matches!(
            merge_ranges(3, short),
            Err(OrchestrateError::Coverage(_))
        ));
    }

    #[test]
    fn checkpoint_round_trips_and_survives_a_torn_tail() {
        let path = temp_path("roundtrip");
        let entries = [
            CheckpointEntry {
                scenario: "a/b/c/n5t1".to_string(),
                base_seed: 7,
                trials: 10,
                lo: 0,
                hi: 3,
                records: (0..3).map(record).collect(),
            },
            CheckpointEntry {
                scenario: "a/b/c/n5t1".to_string(),
                base_seed: 7,
                trials: 10,
                lo: 3,
                hi: 5,
                records: (3..5).map(record).collect(),
            },
        ];
        for entry in &entries {
            append_checkpoint(&path, entry).unwrap();
        }
        assert_eq!(read_checkpoint(&path).unwrap(), entries);

        // A torn final line (coordinator died mid-append) is skipped.
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents.push_str("{\"scenario\":\"a/b/c/n5t1\",\"base_se");
        std::fs::write(&path, contents).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), entries);

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_interior_checkpoint_lines_are_skipped_not_fatal() {
        let path = temp_path("corrupt");
        let entry = |lo: u64| CheckpointEntry {
            scenario: "x".to_string(),
            base_seed: 0,
            trials: 2,
            lo,
            hi: lo + 1,
            records: vec![record(lo)],
        };
        append_checkpoint(&path, &entry(0)).unwrap();
        // Damage sandwiched between two good lines: the good ones survive.
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents.push_str("not json at all\n");
        std::fs::write(&path, contents).unwrap();
        append_checkpoint(&path, &entry(1)).unwrap();
        let (entries, skipped) = read_checkpoint_lossy(&path).unwrap();
        assert_eq!(entries, vec![entry(0), entry(1)]);
        assert_eq!(skipped, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flipped_checkpoint_line_fails_its_crc_and_is_skipped() {
        let path = temp_path("bitflip");
        let entry = |lo: u64| CheckpointEntry {
            scenario: "x".to_string(),
            base_seed: 9,
            trials: 3,
            lo,
            hi: lo + 1,
            records: vec![record(lo)],
        };
        for lo in 0..3 {
            append_checkpoint(&path, &entry(lo)).unwrap();
        }
        // Flip one byte inside the middle line's entry body. The damaged
        // JSON may still parse (a digit changed in place stays valid JSON) —
        // only the CRC catches it.
        let contents = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = contents.lines().collect();
        let mut middle = lines[1].to_string().into_bytes();
        let target = middle.len() - 10;
        middle[target] ^= 0x01;
        let damaged = format!(
            "{}\n{}\n{}\n",
            lines[0],
            String::from_utf8(middle).unwrap(),
            lines[2]
        );
        std::fs::write(&path, damaged).unwrap();

        let (entries, skipped) = read_checkpoint_lossy(&path).unwrap();
        assert_eq!(entries, vec![entry(0), entry(2)]);
        assert_eq!(skipped, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_bare_entry_without_its_crc_wrapper_is_a_damaged_line() {
        let path = temp_path("bare");
        let entry = |lo: u64| CheckpointEntry {
            scenario: "bare/scenario".to_string(),
            base_seed: 4,
            trials: 4,
            lo,
            hi: lo + 2,
            records: vec![record(lo), record(lo + 1)],
        };
        // The pre-CRC format: the bare entry JSON, no wrapper. Nothing
        // un-checksummed reaches the JSON reader any more.
        let mut bare = String::new();
        entry(0).write_json(&mut JsonWriter::new(&mut bare));
        assert!(parse_checkpoint_line(&bare).is_err());
        std::fs::write(&path, format!("{bare}\n")).unwrap();
        append_checkpoint(&path, &entry(2)).unwrap();
        let (entries, skipped) = read_checkpoint_lossy(&path).unwrap();
        assert_eq!(entries, vec![entry(2)]);
        assert_eq!(skipped, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_terminated_last_line_that_fails_its_crc_is_damage_not_a_torn_tail() {
        let path = temp_path("lastline");
        let entry = CheckpointEntry {
            scenario: "x".to_string(),
            base_seed: 1,
            trials: 2,
            lo: 0,
            hi: 1,
            records: vec![record(0)],
        };
        append_checkpoint(&path, &entry).unwrap();
        let mut contents = std::fs::read_to_string(&path).unwrap();
        let damaged_last = contents.replace("\"lo\":0", "\"lo\":1");
        contents.push_str(&damaged_last);
        // Invalid UTF-8 is damage too, not an I/O error.
        let mut bytes = contents.into_bytes();
        bytes.extend_from_slice(b"{\"crc\":1,\"entry\":\"\xff\"}\n");
        std::fs::write(&path, bytes).unwrap();
        let load = load_checkpoint(&path).unwrap();
        assert_eq!(load.entries, vec![entry]);
        assert_eq!(load.damaged, 2);
        assert!(!load.torn_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_append_after_a_torn_tail_survives_the_next_resume() {
        let path = temp_path("torn-append");
        let entry = |lo: u64| CheckpointEntry {
            scenario: "x".to_string(),
            base_seed: 3,
            trials: 3,
            lo,
            hi: lo + 1,
            records: vec![record(lo)],
        };
        append_checkpoint(&path, &entry(0)).unwrap();
        let whole = std::fs::read_to_string(&path).unwrap();
        let torn = &whole[..whole.len() / 2];
        std::fs::write(&path, format!("{whole}{torn}")).unwrap();

        // The issue's reproduction: [0, torn] on disk, the resumed session
        // appends 1 and 2, and the next resume must see all three.
        let (entries, mut writer) = resume_checkpoint(&path).unwrap();
        assert_eq!(entries, vec![entry(0)]);
        writer.append(&entry(1)).unwrap();
        writer.append(&entry(2)).unwrap();
        drop(writer);
        let load = load_checkpoint(&path).unwrap();
        assert_eq!(load.entries, vec![entry(0), entry(1), entry(2)]);
        assert_eq!(load.damaged, 0);
        assert!(!load.torn_tail);

        // An unterminated last line that still checks out is kept, and still
        // flagged so that nothing is appended onto it.
        let contents = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, contents.trim_end()).unwrap();
        let load = load_checkpoint(&path).unwrap();
        assert_eq!(load.entries.len(), 3);
        assert!(load.torn_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_16_000_record_checkpoint_line_round_trips() {
        // Hours with the quadratic string lexer; linear now, so it runs in
        // the default profile.
        let path = temp_path("long-line");
        let entry = CheckpointEntry {
            scenario: "psync/ben-or/benign-eventual/unanimous-1/n7t1".to_string(),
            base_seed: u64::MAX - 16_000,
            trials: 16_000,
            lo: 0,
            hi: 16_000,
            records: (0..16_000).map(record).collect(),
        };
        append_checkpoint(&path, &entry).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() > 4_000_000);
        let (entries, skipped) = read_checkpoint_lossy(&path).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(entries, vec![entry]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_checkpoint_rewrites_atomically_and_round_trips() {
        let path = temp_path("compact");
        let entry = |lo: u64| CheckpointEntry {
            scenario: "c".to_string(),
            base_seed: 1,
            trials: 4,
            lo,
            hi: lo + 2,
            records: (lo..lo + 2).map(record).collect(),
        };
        // A file with damage in the middle...
        append_checkpoint(&path, &entry(0)).unwrap();
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents.push_str("garbage line\n");
        std::fs::write(&path, contents).unwrap();
        append_checkpoint(&path, &entry(2)).unwrap();
        let (entries, skipped) = read_checkpoint_lossy(&path).unwrap();
        assert_eq!(skipped, 1);
        // ...compacts to a clean file holding exactly the survivors.
        compact_checkpoint(&path, &entries).unwrap();
        let (clean, skipped_after) = read_checkpoint_lossy(&path).unwrap();
        assert_eq!(clean, entries);
        assert_eq!(skipped_after, 0);
        // No temporary residue.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists());
        std::fs::remove_file(&path).unwrap();
    }
}
