//! The coordinator's live half: the worker pool ([`Session`]) and the state
//! of one spec's dispatch over it ([`SpecRun`]).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use agreement_model::{derive_seed, ProcessorRng};
use agreement_net::fault::FAULT_ENV;
use agreement_net::transport::{bounded, Connection, Listener, Sender};

use super::checkpoint::{holds_exactly, RangeLedger};
use super::wire::{read_hello, Message, Run};
use super::{OrchestrateError, OrchestrationEvent, Orchestrator};
use crate::block::{decode_block, is_block_frame};
use crate::record::TrialRecord;
use crate::scenario::ScenarioSpec;

/// How long the coordinator waits for workers to dial in and say hello.
const SPAWN_DEADLINE: Duration = Duration::from_secs(30);

/// How long shutdown waits for workers to exit gracefully before forcing
/// their sockets shut and killing the processes.
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(30);

/// Base of the respawn exponential backoff: attempt `k` waits
/// `RESPAWN_BACKOFF_BASE · 2^min(k, 5)` (at most 1.6 s) plus seeded jitter.
const RESPAWN_BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Upper bound (exclusive) on the seeded respawn jitter, in milliseconds.
const RESPAWN_JITTER_MS: u64 = 25;

/// How long a respawned worker gets to dial in and say hello before the
/// attempt is counted as failed (shorter than [`SPAWN_DEADLINE`]: a respawn
/// blocks the dispatch loop, and localhost dials are fast).
const RESPAWN_ACCEPT_DEADLINE: Duration = Duration::from_secs(10);

/// What a worker forwarder delivers into the coordinator's shared inbox.
enum Delivery {
    /// A frame whose CRC checked out: a record block or a JSON frame.
    Frame(Vec<u8>),
    /// The connection ended, and why: damaged bytes (CRC mismatch, torn
    /// frame — the reason recorded by the transport's reader) or a clean
    /// hangup.
    Lost(String),
}

struct WorkerHandle {
    conn: Arc<Connection>,
    pid: u64,
    alive: bool,
    forwarder: JoinHandle<()>,
}

struct Inflight {
    job: u64,
    lo: u64,
    hi: u64,
    /// When the worker holding the range was last heard from.
    heard: Instant,
    /// Whether this range has already been speculatively re-dispatched —
    /// one speculation per straggler, then the 2× deadline drops it.
    speculated: bool,
}

/// Spawns the thread that pumps one worker connection into the shared inbox
/// until it closes. Frames are decoded by the dispatch thread, not here: a
/// range's records are then allocated by the thread that keeps them until
/// the merge, not in this thread's malloc arena (where whole ranges
/// decoded here cost `orchestrated_stream` ≈ 10 MB of peak RSS).
fn spawn_forwarder(
    conn: &Arc<Connection>,
    index: usize,
    tx: Sender<(usize, Delivery)>,
) -> JoinHandle<()> {
    let conn = Arc::clone(conn);
    std::thread::spawn(move || {
        while let Some(frame) = conn.recv() {
            if tx.send((index, Delivery::Frame(frame))).is_err() {
                return;
            }
        }
        let closed = match conn.read_fault() {
            Some(fault) => format!("frame damage: {fault}"),
            None => "connection closed".to_string(),
        };
        let _ = tx.send((index, Delivery::Lost(closed)));
    })
}

/// A live orchestration session: connected worker processes, reusable across
/// many specs (the `scenarios` bin runs its whole matrix through one
/// session). The session keeps its listener open so replacement workers can
/// dial in after losses.
pub struct Session {
    config: Orchestrator,
    listener: Listener,
    workers: Vec<WorkerHandle>,
    children: Vec<Child>,
    inbox: Receiver<(usize, Delivery)>,
    // Kept so the inbox stays connected for forwarders spawned later
    // (respawns) — and so a momentarily empty pool reads as a timeout, not
    // a disconnect.
    inbox_tx: Sender<(usize, Delivery)>,
    next_job: u64,
    // Jobs whose range has been settled (merged, or superseded by a twin).
    // Job ids are session-unique, so a block naming a retired job can only
    // be a duplicated late copy — benign — while a block naming an unknown
    // job is a protocol violation. Without this, a duplicated final block
    // of one spec poisons the next spec's run on the same session.
    retired_jobs: BTreeSet<u64>,
    respawns_used: u32,
    respawn_due: Option<Instant>,
    respawn_rng: ProcessorRng,
}

impl Session {
    /// Spawns `config.workers` worker processes and admits each.
    pub(super) fn fill(&mut self) -> Result<(), OrchestrateError> {
        for spawn_index in 0..self.config.workers {
            self.spawn(spawn_index as u64)?;
        }
        let deadline = Instant::now() + SPAWN_DEADLINE;
        for _ in 0..self.config.workers {
            self.admit(deadline)?;
        }
        Ok(())
    }

    /// A session with its listener bound and an empty pool.
    pub(super) fn listen(config: Orchestrator) -> Result<Session, OrchestrateError> {
        let (inbox_tx, inbox) = bounded::<(usize, Delivery)>(1024);
        // The jitter stream is seeded from the fault plan when there is one
        // (so a chaos run's whole recovery timeline replays from one seed)
        // and from a fixed constant otherwise.
        let jitter_seed = config.worker_faults.as_ref().map_or(0x7E5_7A77, |p| p.seed);
        Ok(Session {
            config,
            listener: Listener::bind_local()?,
            workers: Vec::new(),
            children: Vec::new(),
            inbox,
            inbox_tx,
            next_job: 0,
            retired_jobs: BTreeSet::new(),
            respawns_used: 0,
            respawn_due: None,
            respawn_rng: ProcessorRng::from_seed(derive_seed(jitter_seed, 0xBAC0FF)),
        })
    }

    /// Spawns the session's `spawn_index`-th worker process, dialing back to
    /// the listener; [`Session::admit`] takes its call. With a fault plan
    /// configured, the worker inherits it through the environment hook,
    /// reseeded per spawn index so every worker (and every respawn) injures
    /// its frames on its own deterministic substream.
    fn spawn(&mut self, spawn_index: u64) -> Result<(), OrchestrateError> {
        let mut cmd = Command::new(&self.config.command[0]);
        cmd.args(&self.config.command[1..])
            .arg("--connect")
            .arg(self.listener.local_addr()?.to_string())
            // Workers write records to the socket, never to stdout; a stray
            // print must not corrupt the coordinator's own output.
            .stdout(Stdio::null());
        if let Some(plan) = &self.config.worker_faults {
            let reseeded = plan.reseeded(derive_seed(plan.seed, spawn_index));
            cmd.env(FAULT_ENV, reseeded.to_string());
        }
        self.children.push(cmd.spawn()?);
        Ok(())
    }

    /// Accepts the next connection, checks its hello, and appends the worker
    /// to the pool, returning its index.
    fn admit(&mut self, deadline: Instant) -> Result<usize, OrchestrateError> {
        let index = self.workers.len();
        let conn = self.listener.accept_deadline(deadline)?;
        let pid = read_hello(&conn, deadline, index)?;
        let conn = Arc::new(conn);
        let forwarder = spawn_forwarder(&conn, index, self.inbox_tx.clone());
        self.workers.push(WorkerHandle {
            conn,
            pid,
            alive: true,
            forwarder,
        });
        Ok(index)
    }

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
        let checkpoint = self.config.checkpoint.as_deref();
        let ledger = RangeLedger::resume(spec, checkpoint, |lo, hi| {
            on_event(OrchestrationEvent::RangeRestored { lo, hi });
        })?;
        SpecRun::new(self, spec, ledger, on_event).finish()
    }

    /// Whether lost capacity can still come back: a respawn is already
    /// scheduled, or the budget has room for another.
    fn respawn_possible(&self) -> bool {
        self.respawn_due.is_some() || self.respawns_used < self.config.respawn_budget
    }

    /// Replaces lost capacity when the budget allows: schedules a respawn
    /// (exponential backoff plus seeded jitter) whenever the pool is short
    /// and none is pending, and performs one whose backoff has elapsed,
    /// returning the new worker's index. Called at the top of the dispatch
    /// loop — not only on a receive timeout — so respawns stay timely even
    /// while the surviving workers stream frames continuously.
    fn tick_respawn(&mut self) -> Option<usize> {
        if self.respawn_due.is_none()
            && self.respawns_used < self.config.respawn_budget
            && self.live_workers() < self.config.workers
        {
            let backoff = RESPAWN_BACKOFF_BASE * (1 << self.respawns_used.min(5));
            let jitter = Duration::from_millis(self.respawn_rng.range(RESPAWN_JITTER_MS));
            self.respawn_due = Some(Instant::now() + backoff + jitter);
        }
        if self.respawn_due.is_none_or(|due| Instant::now() < due) {
            return None;
        }
        // The attempt is spent whether or not it succeeds; after a failure
        // the next tick schedules another (with a longer backoff) if the
        // budget allows.
        self.respawn_due = None;
        let spawn_index = self.config.workers as u64 + u64::from(self.respawns_used);
        self.respawns_used += 1;
        let respawned = self
            .spawn(spawn_index)
            .and_then(|()| self.admit(Instant::now() + RESPAWN_ACCEPT_DEADLINE));
        let (used, budget) = (self.respawns_used, self.config.respawn_budget);
        match &respawned {
            Ok(index) => eprintln!(
                "orchestrate: respawned worker {index} (pid {}, {used} of {budget} budget used)",
                self.workers[*index].pid
            ),
            Err(err) => eprintln!("orchestrate: respawn attempt failed: {err}"),
        }
        respawned.ok()
    }

    /// Sends every live worker a shutdown frame and reaps the worker
    /// processes. Called automatically on drop; explicit calls get the exit
    /// error reporting.
    ///
    /// # Errors
    ///
    /// [`OrchestrateError::Io`] when reaping a child fails.
    pub fn shutdown(mut self) -> Result<(), OrchestrateError> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Result<(), OrchestrateError> {
        let frame = Message::Shutdown.encode();
        for worker in self.workers.iter().filter(|w| w.alive) {
            let _ = worker.conn.send(frame.clone());
        }
        let deadline = Instant::now() + SHUTDOWN_DEADLINE;
        let pause = Duration::from_millis(5);
        for worker in self.workers.drain(..) {
            // A live worker exits on the shutdown frame and the forwarder
            // observes the hangup (a lost one had its socket shut already);
            // one that ignores the frame gets its socket forced shut at the
            // deadline instead of hanging the join forever.
            while !worker.forwarder.is_finished() && Instant::now() < deadline {
                std::thread::sleep(pause);
            }
            worker.conn.shutdown();
            let _ = worker.forwarder.join();
        }
        for child in &mut self.children {
            while child.try_wait()?.is_none() && Instant::now() < deadline {
                std::thread::sleep(pause);
            }
        }
        // Whoever ignored both the shutdown frame and a dead socket is
        // reaped forcibly rather than hanging the coordinator.
        self.kill_children();
        Ok(())
    }

    /// Kills (a no-op on one that has exited) and reaps every worker process
    /// the session still owns.
    pub(super) fn kill_children(&mut self) {
        for mut child in self.children.drain(..) {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // A worker process must not outlive the session, whatever shutdown
        // ran into.
        let _ = self.shutdown_inner();
        self.kill_children();
    }
}

/// One spec's dispatch over a session's pool: what is still to hand out and
/// who holds what. What has come back is the [`RangeLedger`]'s. Every
/// delivery from a worker passes through [`SpecRun::on_delivery`]; every
/// dropped worker through [`SpecRun::lose`].
///
/// A range is settled by one block carrying exactly its trials. A block for
/// a retired job (a duplicated frame) is discarded, and so is the slower of
/// two copies of a speculatively re-dispatched range. Everything else —
/// short, unordered or foreign blocks, frames that do not decode — drops the
/// worker.
struct SpecRun<'s, F: FnMut(OrchestrationEvent)> {
    session: &'s mut Session,
    spec: &'s ScenarioSpec,
    pending: VecDeque<(u64, u64)>,
    /// The range each busy worker holds, by worker index. A lost worker
    /// holds none: [`SpecRun::lose`] takes it.
    inflight: BTreeMap<usize, Inflight>,
    /// Restored and completed ranges: the slower copy of a speculatively
    /// re-dispatched range is discarded against them, and the run ends when
    /// they cover every trial.
    ledger: RangeLedger,
    on_event: F,
}

impl<'s, F: FnMut(OrchestrationEvent)> SpecRun<'s, F> {
    /// A run that queues what `ledger` is missing in dispatch chunks. The
    /// default chunk is `ceil(trials / (workers · 4))`.
    fn new(
        session: &'s mut Session,
        spec: &'s ScenarioSpec,
        ledger: RangeLedger,
        on_event: F,
    ) -> Self {
        let config = &session.config;
        let chunk = config
            .chunk
            .unwrap_or_else(|| spec.trials.div_ceil(config.workers as u64 * 4));
        SpecRun {
            pending: ledger.missing(chunk),
            session,
            spec,
            inflight: BTreeMap::new(),
            ledger,
            on_event,
        }
    }

    /// Dispatches until the range is covered, drops whoever still holds an
    /// assignment — on success a straggler whose range a twin completed, on
    /// failure everyone mid-range; either way its eventual frames for this
    /// spec's job would poison the next spec run on this session, and the
    /// respawn budget can replace the capacity — and merges.
    fn finish(mut self) -> Result<Vec<TrialRecord>, OrchestrateError> {
        let outcome = self.dispatch();
        while let Some((&worker, _)) = self.inflight.first_key_value() {
            self.lose(worker, "still mid-range at the run's end");
        }
        outcome?;
        self.ledger.merge()
    }

    fn dispatch(&mut self) -> Result<(), OrchestrateError> {
        // Reused drain buffer: one wakeup applies every queued delivery
        // before the next assignment round.
        let mut drained: Vec<(usize, Delivery)> = Vec::new();
        loop {
            if let Some(worker) = self.session.tick_respawn() {
                (self.on_event)(OrchestrationEvent::WorkerRespawned { worker });
            }
            self.assign();
            if self.ledger.is_complete() {
                return Ok(());
            }
            if self.session.live_workers() == 0 && !self.session.respawn_possible() {
                return Err(OrchestrateError::WorkersExhausted(format!(
                    "all {} worker(s) lost (respawn budget {} spent) with {} range(s) of '{}' unfinished",
                    self.session.workers.len(),
                    self.session.config.respawn_budget,
                    self.pending.len() + self.inflight.len(),
                    self.spec.id(),
                )));
            }
            let wait = self
                .next_deadline()
                .saturating_duration_since(Instant::now());
            match self.session.inbox.recv_timeout(wait) {
                Ok(first) => {
                    drained.push(first);
                    drained.extend(self.session.inbox.try_iter());
                    for (worker, delivery) in drained.drain(..) {
                        self.on_delivery(worker, delivery)?;
                    }
                }
                // A due respawn is handled at the loop top.
                Err(RecvTimeoutError::Timeout) => self.on_silence(Instant::now()),
                Err(RecvTimeoutError::Disconnected) => unreachable!("the session holds a sender"),
            }
        }
    }

    /// Hands pending chunks to every idle live worker.
    fn assign(&mut self) {
        for worker in 0..self.session.workers.len() {
            if self.inflight.contains_key(&worker) || !self.session.workers[worker].alive {
                continue;
            }
            // A queued speculative copy of a range since completed is stale.
            let mut queued = std::iter::from_fn(|| self.pending.pop_front());
            let Some((lo, hi)) = queued.find(|&range| !self.ledger.holds(range)) else {
                break;
            };
            let job = self.session.next_job;
            self.session.next_job += 1;
            let run = Message::Run(Run {
                job,
                scenario: self.spec.id(),
                scale: self.session.config.scale,
                trials: self.spec.trials,
                base_seed: self.spec.base_seed,
                limits: self.spec.limits,
                lo,
                hi,
            });
            if self.session.workers[worker]
                .conn
                .send(run.encode())
                .is_err()
            {
                // The forwarder will deliver the loss; just skip.
                self.pending.push_front((lo, hi));
                continue;
            }
            let range = Inflight {
                job,
                lo,
                hi,
                heard: Instant::now(),
                speculated: false,
            };
            self.inflight.insert(worker, range);
            (self.on_event)(OrchestrationEvent::RangeAssigned { worker, lo, hi });
        }
    }

    /// When the dispatch loop must wake at the latest: a straggler crossing
    /// its speculation (1×) or drop (2×) deadline, a due respawn, or a
    /// liveness tick.
    fn next_deadline(&self) -> Instant {
        let timeout = self.session.config.recv_timeout;
        let stragglers = self.inflight.values().map(|range| {
            let factor = if range.speculated { 2 } else { 1 };
            range.heard + timeout * factor
        });
        stragglers
            .chain(self.session.respawn_due)
            .fold(Instant::now() + timeout, Instant::min)
    }

    /// Applies one delivery from `worker`. A delivery the worker should not
    /// have made costs it its place in the pool; `Err` is a coordinator-side
    /// failure that ends the run.
    fn on_delivery(&mut self, worker: usize, delivery: Delivery) -> Result<(), OrchestrateError> {
        if !self.session.workers[worker].alive {
            // Residue from a worker already written off — possibly earlier
            // in this same batch.
            return Ok(());
        }
        if let Some(range) = self.inflight.get_mut(&worker) {
            range.heard = Instant::now();
        }
        // The frame CRC already vouched for the bytes, so a decode failure is
        // a protocol bug, not line noise — but it still only costs this one
        // worker.
        let verdict = match delivery {
            Delivery::Frame(frame) if is_block_frame(&frame) => match decode_block(&frame) {
                Ok((job, records)) => self.on_block(worker, job, records)?,
                Err(err) => Err(format!("undecodable block: {err}")),
            },
            Delivery::Frame(frame) => match Message::decode(&frame) {
                Ok(Message::WorkerError { message, .. }) => {
                    Err(format!("worker reported: {message}"))
                }
                Ok(other) => Err(format!("unexpected frame {other:?}")),
                Err(err) => Err(format!("undecodable frame: {err:?}")),
            },
            Delivery::Lost(reason) => Err(reason),
        };
        if let Err(reason) = verdict {
            self.lose(worker, &reason);
        }
        Ok(())
    }

    /// Settles the range `worker` holds with the block that answers it:
    /// checkpoints it, counts it, frees the worker. A block for a retired job
    /// is a duplicated late copy and changes nothing. The inner `Err` — a
    /// block for a job the worker does not hold, or one that does not carry
    /// exactly the range's trials in order — drops the worker; the outer one
    /// is a checkpoint I/O failure.
    fn on_block(
        &mut self,
        worker: usize,
        job: u64,
        records: Vec<TrialRecord>,
    ) -> Result<Result<(), String>, OrchestrateError> {
        // Validate before taking the slot: on failure the range must stay in
        // flight so losing the worker re-queues it (a taken slot would leak
        // the range and stall the run forever).
        let (lo, hi) = match self.inflight.get(&worker) {
            Some(current) if current.job == job => (current.lo, current.hi),
            _ if self.session.retired_jobs.contains(&job) => return Ok(Ok(())),
            _ => return Ok(Err("block for a job the worker does not hold".into())),
        };
        if !holds_exactly(&records, lo, hi) {
            return Ok(Err(format!(
                "block for {lo}..{hi} carries {} record(s), not exactly its trials in order",
                records.len()
            )));
        }
        self.inflight.remove(&worker);
        self.session.retired_jobs.insert(job);
        if self.ledger.holds((lo, hi)) {
            // The straggler finished after its speculative twin: the range
            // is already settled; free the worker and move on.
            return Ok(Ok(()));
        }
        self.ledger.settle(lo, hi, records)?;
        (self.on_event)(OrchestrationEvent::RangeCompleted { worker, lo, hi });
        Ok(Ok(()))
    }

    /// The one place a worker is dropped, and logged as dropped: marks it
    /// dead and re-queues its in-flight range (partial records are
    /// discarded: a deterministic re-run is identical). A range already
    /// completed by a speculative twin — or still in flight on one — is not
    /// re-queued.
    fn lose(&mut self, worker: usize, reason: &str) {
        eprintln!("orchestrate: worker {worker} dropped: {reason}");
        let handle = &mut self.session.workers[worker];
        handle.alive = false;
        // Force the socket shut: the worker process observes the hangup and
        // exits, and the forwarder unblocks — a dropped worker must never
        // leave a thread or process for shutdown to hang on.
        handle.conn.shutdown();
        if let Some(lost) = self.inflight.remove(&worker) {
            let range = (lost.lo, lost.hi);
            let mut twins = self.inflight.values();
            if !self.ledger.holds(range) && !twins.any(|twin| (twin.lo, twin.hi) == range) {
                self.pending.push_front(range);
            }
        }
        (self.on_event)(OrchestrationEvent::WorkerLost { worker });
    }

    /// The liveness policy, applied when the inbox stayed silent up to
    /// `now`: a worker holding a range gets it speculatively re-dispatched
    /// after one receive timeout and is dropped after two.
    fn on_silence(&mut self, now: Instant) {
        let timeout = self.session.config.recv_timeout;
        let holders: Vec<usize> = self.inflight.keys().copied().collect();
        for worker in holders {
            let range = self.inflight.get_mut(&worker).expect("a holder");
            let (lo, hi) = (range.lo, range.hi);
            if now >= range.heard + timeout * 2 {
                self.lose(worker, "silent past twice the receive timeout");
            } else if !range.speculated && now >= range.heard + timeout {
                range.speculated = true;
                if !self.ledger.holds((lo, hi)) {
                    eprintln!(
                        "orchestrate: worker {worker} silent past the receive timeout; \
                         speculatively re-dispatching {lo}..{hi}"
                    );
                    self.pending.push_back((lo, hi));
                    (self.on_event)(OrchestrationEvent::RangeSpeculated { worker, lo, hi });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::checkpoint::tests::{record, temp_path};
    use super::super::checkpoint::CheckpointWriter;
    use super::super::wire::PROTO_VERSION;
    use super::*;
    use crate::block::encode_block;
    use crate::experiments::Scale;
    use crate::scenario::scenario_registry;

    /// A thread playing a worker: says hello, takes one run frame, answers
    /// it in full when `finishes` and not at all otherwise, then holds the
    /// connection until told to shut down or hung up on.
    fn fake_worker(addr: String, finishes: bool) -> JoinHandle<()> {
        std::thread::spawn(move || {
            let conn = Connection::connect(&addr).unwrap();
            let hello = Message::Hello {
                pid: 0,
                proto: PROTO_VERSION,
            };
            conn.send(hello.encode()).unwrap();
            // A session that drops this worker right after assigning it a
            // range may hang up before the run frame leaves its writer queue.
            let Some(frame) = conn.recv() else {
                return;
            };
            let Ok(Message::Run(run)) = Message::decode(&frame) else {
                panic!("the first frame after the hello must be a run frame");
            };
            let (job, lo, hi) = (run.job, run.lo, run.hi);
            if finishes {
                let records: Vec<TrialRecord> = (lo..hi).map(record).collect();
                conn.send(encode_block(job, &records, false)).unwrap();
            }
            while conn
                .recv()
                .is_some_and(|frame| Message::decode(&frame) != Ok(Message::Shutdown))
            {}
        })
    }

    #[test]
    fn a_failed_checkpoint_append_ends_the_run_and_still_drops_who_is_mid_range() {
        let mut spec = scenario_registry(Scale::Quick).remove(0);
        spec.trials = 4;
        let config = Orchestrator::new(Scale::Quick, vec!["unused".to_string()])
            .workers(2)
            .chunk(2)
            .respawn_budget(0);
        let mut session = Session::listen(config).unwrap();
        let addr = session.listener.local_addr().unwrap().to_string();
        let deadline = Instant::now() + SPAWN_DEADLINE;
        // Admitted one at a time, so that the finisher is worker 0.
        let finisher = fake_worker(addr.clone(), true);
        session.admit(deadline).unwrap();
        let holder = fake_worker(addr, false);
        session.admit(deadline).unwrap();

        // A handle that cannot be written to: the first append fails.
        let path = temp_path("read-only");
        std::fs::write(&path, b"").unwrap();
        let read_only = std::fs::File::open(&path).unwrap();
        let mut ledger = RangeLedger::resume(&spec, None, |_, _| {}).unwrap();
        ledger.writer = Some(CheckpointWriter::over(read_only));

        let mut events = Vec::new();
        let run = SpecRun::new(&mut session, &spec, ledger, |event| events.push(event));
        let outcome = run.finish();
        assert!(
            matches!(outcome, Err(OrchestrateError::Io(_))),
            "expected the append error, got {outcome:?}"
        );
        // Worker 1 still held 2..4: left alone, its frames for this run's
        // job would poison the next run on the session.
        let lost: Vec<&OrchestrationEvent> = events
            .iter()
            .filter(|event| matches!(event, OrchestrationEvent::WorkerLost { .. }))
            .collect();
        assert_eq!(lost, [&OrchestrationEvent::WorkerLost { worker: 1 }]);
        assert_eq!(session.live_workers(), 1);

        drop(session);
        finisher.join().unwrap();
        holder.join().unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}
