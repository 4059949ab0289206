//! The coordinator's live half: the worker pool ([`Session`]) and the state
//! of one spec's dispatch over it ([`SpecRun`]).

use std::collections::{BTreeMap, VecDeque};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// The range a worker holds, and the job id its answer must name.
struct Inflight {
    job: u64,
    lo: u64,
    hi: u64,
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
/// session). A lost worker is not replaced: the pool only shrinks.
pub struct Session {
    config: Orchestrator,
    listener: Listener,
    workers: Vec<WorkerHandle>,
    children: Vec<Child>,
    inbox: Receiver<(usize, Delivery)>,
    // Cloned into the forwarder of each worker admitted; kept, so the inbox
    // never reads as disconnected.
    inbox_tx: Sender<(usize, Delivery)>,
    // Job ids are session-unique, so a block naming a job its worker does
    // not hold — a late frame from an earlier run — breaks the protocol.
    next_job: u64,
}

impl Session {
    /// Spawns `config.workers` worker processes and admits each.
    pub(super) fn fill(&mut self) -> Result<(), OrchestrateError> {
        for _ in 0..self.config.workers {
            self.spawn()?;
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
        Ok(Session {
            config,
            listener: Listener::bind_local()?,
            workers: Vec::new(),
            children: Vec::new(),
            inbox,
            inbox_tx,
            next_job: 0,
        })
    }

    /// Spawns one worker process, dialing back to the listener;
    /// [`Session::admit`] takes its call.
    fn spawn(&mut self) -> Result<(), OrchestrateError> {
        let mut cmd = Command::new(&self.config.command[0]);
        cmd.args(&self.config.command[1..])
            .arg("--connect")
            .arg(self.listener.local_addr()?.to_string())
            // Workers write records to the socket, never to stdout; a stray
            // print must not corrupt the coordinator's own output.
            .stdout(Stdio::null());
        self.children.push(cmd.spawn()?);
        Ok(())
    }

    /// Accepts the next connection, checks its hello, and appends the worker
    /// to the pool.
    fn admit(&mut self, deadline: Instant) -> Result<(), OrchestrateError> {
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
        Ok(())
    }

    /// OS process ids of the worker processes, in session order — how a
    /// caller watches (or signals) the processes a session runs.
    pub fn worker_pids(&self) -> Vec<u64> {
        self.workers.iter().map(|w| w.pid).collect()
    }

    /// How many workers are still connected.
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Removes and returns the OS process handle of session worker `index`,
    /// so a test can `kill()` it mid-range and watch the dispatch loop drop
    /// the worker and re-run its range on the others. Children are matched
    /// by the pid the worker reported in its hello (spawn order and
    /// connection-accept order can differ), so the handle always belongs to
    /// the worker the coordinator calls `index`.
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
/// Each missing range is pending or held by exactly one worker. It is
/// settled by one block carrying exactly its trials; anything else — short,
/// unordered or foreign blocks, frames that do not decode, damage, a hangup
/// — drops the worker and puts its range back at the front of the queue.
struct SpecRun<'s, F: FnMut(OrchestrationEvent)> {
    session: &'s mut Session,
    spec: &'s ScenarioSpec,
    pending: VecDeque<(u64, u64)>,
    /// The range each busy worker holds, by worker index. A lost worker
    /// holds none: [`SpecRun::lose`] takes it.
    inflight: BTreeMap<usize, Inflight>,
    /// Restored and completed ranges.
    ledger: RangeLedger,
    /// What the ledger has handed on.
    merged: Vec<TrialRecord>,
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
            pending: ledger.missing(chunk).collect(),
            session,
            spec,
            inflight: BTreeMap::new(),
            merged: Vec::new(),
            ledger,
            on_event,
        }
    }

    /// Dispatches until the range is covered and merges. A run that fails
    /// first drops whoever is still mid-range: its eventual frames for this
    /// spec's job would poison the next spec run on this session.
    fn finish(mut self) -> Result<Vec<TrialRecord>, OrchestrateError> {
        let outcome = self.dispatch();
        while let Some((&worker, _)) = self.inflight.first_key_value() {
            self.lose(worker, "still mid-range at the run's end");
        }
        outcome?;
        let consume = &mut |records: &[TrialRecord]| self.merged.extend_from_slice(records);
        self.ledger.finish(consume)?;
        Ok(self.merged)
    }

    fn dispatch(&mut self) -> Result<(), OrchestrateError> {
        // Reused drain buffer: one wakeup applies every queued delivery
        // before the next assignment round.
        let mut drained: Vec<(usize, Delivery)> = Vec::new();
        loop {
            self.assign();
            if self.pending.is_empty() && self.inflight.is_empty() {
                return Ok(());
            }
            if self.session.live_workers() == 0 {
                return Err(OrchestrateError::WorkersExhausted(format!(
                    "all {} worker(s) lost with {} range(s) of '{}' unfinished",
                    self.session.workers.len(),
                    self.pending.len(),
                    self.spec.id(),
                )));
            }
            let first = self
                .session
                .inbox
                .recv()
                .expect("the session holds a sender");
            drained.push(first);
            drained.extend(self.session.inbox.try_iter());
            for (worker, delivery) in drained.drain(..) {
                self.on_delivery(worker, delivery)?;
            }
        }
    }

    /// Hands pending chunks to every idle live worker.
    fn assign(&mut self) {
        for worker in 0..self.session.workers.len() {
            if self.inflight.contains_key(&worker) || !self.session.workers[worker].alive {
                continue;
            }
            let Some((lo, hi)) = self.pending.pop_front() else {
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
            self.inflight.insert(worker, Inflight { job, lo, hi });
            (self.on_event)(OrchestrationEvent::RangeAssigned { worker, lo, hi });
        }
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
    /// checkpoints it, counts it, frees the worker. The inner `Err` — a block
    /// for a job the worker does not hold, or one that does not carry exactly
    /// the range's trials in order — drops the worker; the outer one is a
    /// checkpoint I/O failure.
    fn on_block(
        &mut self,
        worker: usize,
        job: u64,
        mut records: Vec<TrialRecord>,
    ) -> Result<Result<(), String>, OrchestrateError> {
        // Validate before taking the slot: on failure the range must stay in
        // flight so losing the worker re-queues it (a taken slot would leak
        // the range and stall the run forever).
        let (lo, hi) = match self.inflight.get(&worker) {
            Some(current) if current.job == job => (current.lo, current.hi),
            _ => return Ok(Err("block for a job the worker does not hold".into())),
        };
        if !holds_exactly(&records, lo, hi) {
            return Ok(Err(format!(
                "block for {lo}..{hi} carries {} record(s), not exactly its trials in order",
                records.len()
            )));
        }
        self.inflight.remove(&worker);
        let consume = &mut |records: &[TrialRecord]| self.merged.extend_from_slice(records);
        self.ledger.settle(lo, hi, &mut records, consume)?;
        (self.on_event)(OrchestrationEvent::RangeCompleted { worker, lo, hi });
        Ok(Ok(()))
    }

    /// The one place a worker is dropped, and logged as dropped: marks it
    /// dead and puts its in-flight range back at the front of the queue
    /// (partial records are discarded: a deterministic re-run is identical).
    fn lose(&mut self, worker: usize, reason: &str) {
        eprintln!("orchestrate: worker {worker} dropped: {reason}");
        let handle = &mut self.session.workers[worker];
        handle.alive = false;
        // Force the socket shut: the worker process observes the hangup and
        // exits, and the forwarder unblocks — a dropped worker must never
        // leave a thread or process for shutdown to hang on.
        handle.conn.shutdown();
        if let Some(lost) = self.inflight.remove(&worker) {
            self.pending.push_front((lost.lo, lost.hi));
        }
        (self.on_event)(OrchestrationEvent::WorkerLost { worker });
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
    use agreement_net::transport::{encode_frame, read_frame, write_frame};
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};

    /// A thread playing a worker: says hello, then answers every run frame
    /// in full when `answers` and none at all otherwise, until told to shut
    /// down or hung up on.
    fn fake_worker(addr: String, answers: bool) -> JoinHandle<()> {
        std::thread::spawn(move || {
            let conn = Connection::connect(&addr).unwrap();
            let hello = Message::Hello {
                pid: 0,
                proto: PROTO_VERSION,
            };
            conn.send(hello.encode()).unwrap();
            while let Some(frame) = conn.recv() {
                match Message::decode(&frame) {
                    Ok(Message::Run(run)) if answers => {
                        let records: Vec<TrialRecord> = (run.lo..run.hi).map(record).collect();
                        conn.send(encode_block(run.job, &records, false)).unwrap();
                    }
                    Ok(Message::Run(_)) => {}
                    _ => return,
                }
            }
        })
    }

    /// A raw socket playing a worker: says hello, takes one run frame,
    /// answers it with a block frame one byte of which is flipped on the
    /// wire, then holds the socket until the session hangs up.
    fn damaging_worker(addr: SocketAddr) -> JoinHandle<()> {
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let hello = Message::Hello {
                pid: 0,
                proto: PROTO_VERSION,
            };
            write_frame(&mut stream, &hello.encode()).unwrap();
            let frame = read_frame(&mut stream).unwrap().expect("a run frame");
            let Ok(Message::Run(run)) = Message::decode(&frame) else {
                panic!("the first frame after the hello must be a run frame");
            };
            let records: Vec<TrialRecord> = (run.lo..run.hi).map(record).collect();
            let mut bytes = encode_frame(&encode_block(run.job, &records, false));
            let middle = bytes.len() / 2;
            bytes[middle] ^= 0x01;
            stream.write_all(&bytes).unwrap();
            let _ = stream.read_to_end(&mut Vec::new());
        })
    }

    #[test]
    fn a_worker_that_sends_a_damaged_block_is_dropped_and_its_range_re_run() {
        let mut spec = scenario_registry(Scale::Quick).remove(0);
        spec.trials = 4;
        let config = Orchestrator::new(Scale::Quick, vec!["unused".to_string()])
            .workers(2)
            .chunk(2);
        let mut session = Session::listen(config).unwrap();
        let addr = session.listener.local_addr().unwrap();
        let deadline = Instant::now() + SPAWN_DEADLINE;
        // Admitted one at a time, so that the damaging worker is worker 0.
        let damaging = damaging_worker(addr);
        session.admit(deadline).unwrap();
        let answering = fake_worker(addr.to_string(), true);
        session.admit(deadline).unwrap();

        // The run gets a thread of its own, so that a lost range that is
        // never re-run fails this test instead of hanging it.
        let (done_tx, done) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut events = Vec::new();
            let records = session.run_spec_records_with(&spec, |event| events.push(event));
            done_tx.send((session, records, events)).unwrap();
        });
        let (session, records, events) = done
            .recv_timeout(Duration::from_secs(60))
            .expect("the run stalled: the damaged worker's range was not re-run");

        let all: Vec<TrialRecord> = (0..4).map(record).collect();
        assert_eq!(records.unwrap(), all, "every trial's record comes back");
        let lost: Vec<&OrchestrationEvent> = events
            .iter()
            .filter(|event| matches!(event, OrchestrationEvent::WorkerLost { .. }))
            .collect();
        assert_eq!(lost, [&OrchestrationEvent::WorkerLost { worker: 0 }]);
        let assigned = |worker| {
            events.iter().filter_map(move |event| match *event {
                OrchestrationEvent::RangeAssigned { worker: w, lo, hi } if w == worker => {
                    Some((lo, hi))
                }
                _ => None,
            })
        };
        let damaged: Vec<(u64, u64)> = assigned(0).collect();
        assert_eq!(damaged.len(), 1, "worker 0 held one range: {damaged:?}");
        assert!(
            assigned(1).any(|range| range == damaged[0]),
            "the damaged worker's range {:?} went to worker 1: {events:?}",
            damaged[0]
        );

        drop(session);
        damaging.join().unwrap();
        answering.join().unwrap();
    }

    #[test]
    fn a_failed_checkpoint_append_ends_the_run_and_still_drops_who_is_mid_range() {
        let mut spec = scenario_registry(Scale::Quick).remove(0);
        spec.trials = 4;
        let config = Orchestrator::new(Scale::Quick, vec!["unused".to_string()])
            .workers(2)
            .chunk(2);
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
