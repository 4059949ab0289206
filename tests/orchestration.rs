//! Multi-process orchestration equivalence: the coordinator's slot-ordered
//! merge of worker-streamed records must be **byte-identical** to a
//! single-process campaign — across worker counts, across a worker killed
//! mid-range, and across a resumed checkpoint, whichever executor (threads
//! or worker processes) wrote it and whichever resumes it.
//!
//! This is the process-boundary extension of the thread-count and
//! buffer-layout equivalence suites: trial `t` of a spec is fully determined
//! by `base_seed + t`, so *where* it runs (which thread, which process,
//! before or after a crash) must never show in the rendered reports.

use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use agreement::core::experiments::Scale;
use agreement::core::orchestrate::{
    append_checkpoint, compact_checkpoint, read_checkpoint, read_checkpoint_lossy, CheckpointEntry,
    FaultPlan, OrchestrateError, OrchestrationEvent, Orchestrator, Session,
};
use agreement::core::{
    scenario_registry, stream_records, Campaign, JsonReportSink, JsonlSink, ReportSink,
    ScenarioSpec, TrialRecord,
};

fn worker_command() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_orchestrate_worker").to_string()]
}

fn start_session(workers: usize) -> Session {
    Orchestrator::new(Scale::Quick, worker_command())
        .workers(workers)
        .start()
        .expect("spawn orchestration workers")
}

/// The full legacy registry plus the n = 100 `subquad/` slice, with trials
/// and limits cut down so the sweep stays test-sized. Cutting limits is
/// safe: coordinator and single-process run under the same caps (the run
/// frame carries them), and the equality below is on complete documents.
fn equivalence_specs() -> Vec<ScenarioSpec> {
    let specs: Vec<ScenarioSpec> = scenario_registry(Scale::Quick)
        .into_iter()
        .filter(|spec| !spec.id().contains("subquad/") || spec.id().contains("/n100t"))
        .map(|mut spec| {
            spec.trials = 2;
            spec.limits.max_windows = spec.limits.max_windows.min(300);
            spec.limits.max_steps = spec.limits.max_steps.min(50_000);
            spec
        })
        .collect();
    assert!(specs.len() >= 40, "registry unexpectedly small");
    specs
}

/// Renders specs single-process through the machine-readable sinks.
fn render_local(specs: &[ScenarioSpec]) -> (String, String) {
    let campaign = Campaign::parallel();
    let mut json = JsonReportSink::with_scale("quick");
    let mut jsonl = JsonlSink::new();
    for spec in specs {
        let mut sinks: Vec<&mut dyn ReportSink> = vec![&mut json, &mut jsonl];
        spec.run_with_sinks(&campaign, &mut sinks)
            .unwrap_or_else(|err| panic!("{} failed locally: {err}", spec.id()));
    }
    (json.into_json().to_string(), jsonl.as_str().to_string())
}

/// Renders specs through a live worker pool and the slot-ordered merge.
fn render_orchestrated(specs: &[ScenarioSpec], session: &mut Session) -> (String, String) {
    let mut json = JsonReportSink::with_scale("quick");
    let mut jsonl = JsonlSink::new();
    for spec in specs {
        let records = session
            .run_spec_records(spec)
            .unwrap_or_else(|err| panic!("{} failed orchestrated: {err}", spec.id()));
        let meta = spec.meta().expect("feasible spec has metadata");
        let mut sinks: Vec<&mut dyn ReportSink> = vec![&mut json, &mut jsonl];
        stream_records(&meta, &records, &mut sinks);
    }
    (json.into_json().to_string(), jsonl.as_str().to_string())
}

#[test]
fn merged_registry_reports_are_byte_identical_across_worker_counts() {
    let specs = equivalence_specs();
    let (local_json, local_jsonl) = render_local(&specs);
    for workers in [1usize, 2, 4] {
        let mut session = start_session(workers);
        let (json, jsonl) = render_orchestrated(&specs, &mut session);
        session.shutdown().expect("worker shutdown");
        assert_eq!(
            local_json, json,
            "JSON report diverges at {workers} worker(s)"
        );
        assert_eq!(
            local_jsonl, jsonl,
            "per-trial JSONL diverges at {workers} worker(s)"
        );
    }
}

#[test]
fn chunking_never_shows_in_the_merged_reports() {
    // One-trial ranges and whole-spec ranges, each answered by one block: no
    // shape of the record wire may leave a trace in the rendered output.
    let specs = equivalence_specs();
    let (local_json, local_jsonl) = render_local(&specs);
    for chunk in [1u64, 2] {
        let mut session = Orchestrator::new(Scale::Quick, worker_command())
            .workers(2)
            .chunk(chunk)
            .start()
            .expect("spawn orchestration workers");
        let (json, jsonl) = render_orchestrated(&specs, &mut session);
        session.shutdown().expect("worker shutdown");
        assert_eq!(local_json, json, "JSON report diverges at chunk {chunk}");
        assert_eq!(
            local_jsonl, jsonl,
            "per-trial JSONL diverges at chunk {chunk}"
        );
    }
}

/// Picks one mid-sized windowed spec and gives it enough trials that the
/// dispatch loop has several ranges to hand out.
fn fault_spec() -> ScenarioSpec {
    let mut spec = scenario_registry(Scale::Quick)
        .into_iter()
        .find(|spec| spec.id().starts_with("e2/") && spec.id().contains("n13"))
        .expect("e2 n13 scenario registered");
    spec.trials = 8;
    spec.limits.max_windows = spec.limits.max_windows.min(300);
    spec
}

/// A spec whose trials are individually slow (sampled-committee agreement at
/// n = 1000, ~milliseconds each), so a `kill -9` issued the instant a range
/// is assigned reliably lands while the worker is still inside it.
fn slow_spec() -> ScenarioSpec {
    let mut spec = scenario_registry(Scale::Quick)
        .into_iter()
        .find(|spec| {
            spec.id()
                .starts_with("subquad/sampled-committee20/fair-round-robin")
        })
        .expect("subquad n1000 scenario registered");
    spec.trials = 8;
    spec
}

#[test]
fn killing_a_worker_mid_range_still_merges_byte_identically() {
    let spec = slow_spec();
    let campaign = Campaign::parallel();
    let expected = spec
        .run_range_records(&campaign, 0, spec.trials)
        .expect("local run");

    // Respawn is pinned off so the loss count below is exact; respawn itself
    // is covered by `a_killed_worker_is_respawned_and_the_pool_recovers`.
    let mut session = Orchestrator::new(Scale::Quick, worker_command())
        .workers(2)
        .chunk(4)
        .respawn_budget(0)
        .start()
        .expect("spawn orchestration workers");
    let mut victim = session.take_worker_process(1);
    let mut killed = false;
    let mut lost = 0usize;
    let records = session
        .run_spec_records_with(&spec, |event| {
            // Kill worker 1 the moment it receives its first range: SIGKILL
            // lands in microseconds, milliseconds before the worker could
            // finish the range, so the coordinator must discard the partial
            // range and re-run it on the survivor without any trace in the
            // merged stream.
            if let OrchestrationEvent::RangeAssigned { worker: 1, .. } = event {
                if !killed {
                    killed = true;
                    victim.kill().expect("kill worker 1");
                }
            }
            if matches!(event, OrchestrationEvent::WorkerLost { .. }) {
                lost += 1;
            }
        })
        .expect("orchestrated run survives a killed worker");
    session.shutdown().expect("worker shutdown");
    victim.wait().expect("reap killed worker");

    assert!(killed, "worker 1 was never assigned a range");
    assert_eq!(lost, 1, "exactly the killed worker must be reported lost");
    assert_eq!(records, expected, "merge diverges after a worker kill");
}

#[test]
fn a_killed_worker_is_respawned_and_the_pool_recovers() {
    let spec = slow_spec();
    let campaign = Campaign::parallel();
    let expected = spec
        .run_range_records(&campaign, 0, spec.trials)
        .expect("local run");

    let mut session = Orchestrator::new(Scale::Quick, worker_command())
        .workers(2)
        .chunk(1)
        .respawn_budget(2)
        .start()
        .expect("spawn orchestration workers");
    let mut victim = session.take_worker_process(1);
    let mut killed = false;
    // Cells, so the counts can be read between the runs that fill them.
    let lost = Cell::new(0usize);
    let respawned = RefCell::new(Vec::new());
    let observe = |event: OrchestrationEvent,
                   killed: &mut bool,
                   victim: &mut std::process::Child| {
        if let OrchestrationEvent::RangeAssigned { worker: 1, .. } = event {
            if !*killed {
                *killed = true;
                victim.kill().expect("kill worker 1");
            }
        }
        match event {
            OrchestrationEvent::WorkerLost { .. } => lost.set(lost.get() + 1),
            OrchestrationEvent::WorkerRespawned { worker } => respawned.borrow_mut().push(worker),
            _ => {}
        }
    };
    let records = session
        .run_spec_records_with(&spec, |event| observe(event, &mut killed, &mut victim))
        .expect("orchestrated run survives a killed worker");
    // The respawn backoff is tens of milliseconds, and a pending respawn
    // fires at the top of a dispatch loop: a run that drains faster than the
    // backoff leaves it to a later one, and how many runs fit into it depends
    // on how fast a trial is. So wait for the event, not the clock — rerun on
    // the degraded pool until the respawn has been seen.
    let deadline = Instant::now() + Duration::from_secs(60);
    let again = loop {
        let again = session
            .run_spec_records_with(&spec, |event| observe(event, &mut killed, &mut victim))
            .expect("rerun after the kill");
        if !respawned.borrow().is_empty() {
            break again;
        }
        assert_eq!(again, expected, "degraded pool diverges");
        assert!(
            Instant::now() < deadline,
            "no worker was respawned within 60 s of the kill"
        );
    };
    assert!(killed, "worker 1 was never assigned a range");
    assert_eq!(
        lost.get(),
        1,
        "exactly the killed worker must be reported lost"
    );
    assert_eq!(
        respawned.borrow().len(),
        1,
        "the killed worker must be respawned once"
    );
    assert_eq!(session.live_workers(), 2, "pool must be back at strength");
    assert_eq!(records, expected, "merge diverges across a respawn");
    assert_eq!(again, expected, "recovered pool diverges");
    session.shutdown().expect("worker shutdown");
    victim.wait().expect("reap killed worker");
}

#[test]
fn a_stalled_worker_is_speculatively_re_dispatched() {
    let spec = slow_spec();
    let campaign = Campaign::parallel();
    let expected = spec
        .run_range_records(&campaign, 0, spec.trials)
        .expect("local run");

    // Two chunks of four trials: worker 0 takes (0,4), worker 1 takes (4,8)
    // and is immediately SIGSTOPped — alive at the TCP level but silent, the
    // failure mode a plain hangup detector cannot see. After one receive
    // timeout the coordinator must re-dispatch (4,8) speculatively on the
    // idle survivor and finish without waiting for the 2× hard drop.
    let mut session = Orchestrator::new(Scale::Quick, worker_command())
        .workers(2)
        .chunk(4)
        .recv_timeout(Duration::from_secs(2))
        .respawn_budget(0)
        .start()
        .expect("spawn orchestration workers");
    let mut victim = session.take_worker_process(1);
    let pid = victim.id().to_string();
    let mut stopped = false;
    let mut speculated = Vec::new();
    let records = session
        .run_spec_records_with(&spec, |event| match event {
            OrchestrationEvent::RangeAssigned { worker: 1, .. } if !stopped => {
                stopped = true;
                let status = std::process::Command::new("kill")
                    .args(["-STOP", &pid])
                    .status()
                    .expect("run kill -STOP");
                assert!(status.success(), "SIGSTOP worker 1");
            }
            OrchestrationEvent::RangeSpeculated { lo, hi, .. } => speculated.push((lo, hi)),
            _ => {}
        })
        .expect("orchestrated run routes around the stalled worker");
    assert!(stopped, "worker 1 was never assigned a range");
    assert_eq!(
        speculated,
        vec![(4, 8)],
        "the stalled range must be re-dispatched exactly once"
    );
    assert_eq!(records, expected, "merge diverges across speculation");
    // Resume the stalled worker so it notices its closed socket and exits,
    // then shut the survivor down.
    let status = std::process::Command::new("kill")
        .args(["-CONT", &pid])
        .status()
        .expect("run kill -CONT");
    assert!(status.success(), "SIGCONT worker 1");
    session.shutdown().expect("worker shutdown");
    victim.wait().expect("reap stalled worker");
}

#[test]
fn duplicated_worker_frames_merge_byte_identically() {
    let spec = fault_spec();
    let campaign = Campaign::parallel();
    let expected = spec
        .run_range_records(&campaign, 0, spec.trials)
        .expect("local run");

    // Duplicate 90% of worker frames (the hello is protected by the default
    // grace frame). The coordinator's retired-job rule must swallow every
    // replayed block without a trace in the merged stream.
    let mut plan = FaultPlan::new(0xD0D0);
    plan.duplicate = 0.9;
    let mut session = Orchestrator::new(Scale::Quick, worker_command())
        .workers(2)
        .chunk(2)
        .worker_faults(plan)
        .respawn_budget(0)
        .start()
        .expect("spawn orchestration workers");
    let records = session
        .run_spec_records(&spec)
        .expect("duplicated frames must be idempotent");
    session.shutdown().expect("worker shutdown");
    assert_eq!(records, expected, "merge diverges under duplicated frames");
}

#[test]
fn worker_error_frames_exhaust_the_pool_without_hanging_shutdown() {
    // A spec whose id resolves locally but not in the workers' registry:
    // every worker answers its run frame with an in-protocol error frame and
    // is dropped with its TCP connection still established — the loss path
    // that used to leave forwarder threads (and worker processes) blocked on
    // open sockets, deadlocking shutdown. Losing a worker now closes its
    // connection, so the run reports exhaustion and shutdown returns.
    let mut spec = fault_spec();
    spec.tag = "no-such-tag".to_string();

    // With the default respawn budget the coordinator would replace the
    // erroring workers (which then error again); pin it to zero so the pool
    // drains exactly once.
    let mut session = Orchestrator::new(Scale::Quick, worker_command())
        .workers(2)
        .respawn_budget(0)
        .start()
        .expect("spawn orchestration workers");
    let mut lost = 0usize;
    let err = session
        .run_spec_records_with(&spec, |event| {
            if matches!(event, OrchestrationEvent::WorkerLost { .. }) {
                lost += 1;
            }
        })
        .expect_err("an id unknown to the workers must exhaust the pool");
    assert!(
        matches!(err, OrchestrateError::WorkersExhausted(_)),
        "expected WorkersExhausted, got: {err}"
    );
    assert_eq!(lost, 2, "both workers must be reported lost");
    assert_eq!(session.live_workers(), 0);
    session
        .shutdown()
        .expect("shutdown after losing every worker");
}

/// The two executors that settle a checkpoint's ranges.
#[derive(Debug, Clone, Copy)]
enum Executor {
    /// This process's threads: `ScenarioSpec::run_checkpointed`.
    Threads,
    /// Two worker processes: a session with the checkpoint configured.
    Workers,
}

/// What a resumed run returned, and for a session the ranges it reported
/// restored and assigned (threads report none).
struct Resumed {
    records: Vec<TrialRecord>,
    restored: Vec<(u64, u64)>,
    assigned: Vec<(u64, u64)>,
}

impl Executor {
    /// Runs `spec`, resuming from and appending to the checkpoint at `path`.
    fn run(self, spec: &ScenarioSpec, path: &Path) -> Resumed {
        let (mut restored, mut assigned) = (Vec::new(), Vec::new());
        let records = match self {
            Executor::Threads => spec
                .run_checkpointed(&Campaign::with_threads(2), path)
                .expect("threaded resumed run"),
            Executor::Workers => {
                let mut session = Orchestrator::new(Scale::Quick, worker_command())
                    .workers(2)
                    .checkpoint(path)
                    .start()
                    .expect("spawn orchestration workers");
                let records = session
                    .run_spec_records_with(spec, |event| match event {
                        OrchestrationEvent::RangeRestored { lo, hi } => restored.push((lo, hi)),
                        OrchestrationEvent::RangeAssigned { lo, hi, .. } => assigned.push((lo, hi)),
                        _ => {}
                    })
                    .expect("resumed run");
                session.shutdown().expect("worker shutdown");
                records
            }
        };
        Resumed {
            records,
            restored,
            assigned,
        }
    }

    /// For a session, that it restored exactly the ranges `kept` and
    /// dispatched no trial of them.
    fn check_restored(self, resumed: &Resumed, kept: &[(u64, u64)]) {
        if let Executor::Workers = self {
            let mut restored = resumed.restored.clone();
            restored.sort_unstable();
            assert_eq!(restored, kept, "the session restored other ranges");
            assert!(
                resumed
                    .assigned
                    .iter()
                    .all(|&(lo, hi)| kept.iter().all(|&(a, b)| hi <= a || lo >= b)),
                "a checkpointed trial was re-dispatched: {:?}",
                resumed.assigned
            );
        }
    }
}

/// A fresh checkpoint path for `tag`.
fn checkpoint_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "agreement-orchestration-{tag}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// `spec`'s checkpoint entry for `lo..hi`.
fn entry(spec: &ScenarioSpec, lo: u64, hi: u64, records: &[TrialRecord]) -> CheckpointEntry {
    CheckpointEntry {
        scenario: spec.id(),
        base_seed: spec.base_seed,
        trials: spec.trials,
        lo,
        hi,
        records: records.to_vec(),
    }
}

/// `records` with each of `trials` forged: a duration no run of it
/// produces. Its checkpoint line still passes its CRC, so the output carries
/// a forgery only if the range holding it was restored and not re-run.
fn forged(records: &[TrialRecord], trials: &[u64]) -> Vec<TrialRecord> {
    let mut forged = records.to_vec();
    for &trial in trials {
        forged[trial as usize].duration += 1_000_000;
    }
    forged
}

#[test]
fn checkpoint_resume_skips_completed_ranges_and_merges_identically() {
    let spec = fault_spec();
    let expected = spec
        .run_range_records(&Campaign::parallel(), 0, spec.trials)
        .expect("local run");
    let covered = |path: &Path| -> u64 {
        let entries = read_checkpoint(path).expect("re-read checkpoint");
        entries.iter().map(|e| e.hi - e.lo).sum()
    };

    for (first, second) in [
        (Executor::Threads, Executor::Workers),
        (Executor::Workers, Executor::Threads),
    ] {
        // A run that died after persisting two ranges, one record of each
        // forged.
        let path = checkpoint_path(&format!("resume-{first:?}"));
        let seeded = [(0u64, 3u64), (5, 7)];
        let want = forged(&expected, &[1, 5]);
        for (lo, hi) in seeded {
            let records = &want[lo as usize..hi as usize];
            append_checkpoint(&path, &entry(&spec, lo, hi, records)).expect("seed checkpoint");
        }
        let resumed = first.run(&spec, &path);
        assert_eq!(resumed.records, want, "{first:?} resumed wrongly");
        first.check_restored(&resumed, &seeded);
        // The completed run persisted the missing ranges too.
        assert_eq!(covered(&path), spec.trials, "{first:?} left ranges out");

        // The lines `first` wrote, the first record of each forged, resume
        // under `second`.
        let mut written: Vec<(u64, u64)> = read_checkpoint(&path)
            .expect("re-read checkpoint")
            .into_iter()
            .map(|e| (e.lo, e.hi))
            .filter(|range| !seeded.contains(range))
            .collect();
        written.sort_unstable();
        let want = forged(
            &expected,
            &written.iter().map(|&(lo, _)| lo).collect::<Vec<_>>(),
        );
        let entries: Vec<CheckpointEntry> = written
            .iter()
            .map(|&(lo, hi)| entry(&spec, lo, hi, &want[lo as usize..hi as usize]))
            .collect();
        compact_checkpoint(&path, &entries).expect("rewrite checkpoint");
        let resumed = second.run(&spec, &path);
        assert_eq!(
            resumed.records, want,
            "{second:?} resumed {first:?}'s checkpoint wrongly"
        );
        second.check_restored(&resumed, &written);
        assert_eq!(covered(&path), spec.trials, "{second:?} left ranges out");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn malformed_checkpoint_entries_are_skipped_and_their_trials_re_run() {
    let spec = fault_spec();
    let expected = spec
        .run_range_records(&Campaign::parallel(), 0, spec.trials)
        .expect("local run");
    let want = forged(&expected, &[0, 5]);
    let mut reversed = expected[3..5].to_vec();
    reversed.reverse();
    // Every entry below passes its CRC and names this exact workload; only
    // the first two are ranges a run could have written.
    let entries = [
        (0u64, 3u64, &want[0..3]),
        (5, 7, &want[5..7]),
        // lo > hi: once an underflowing subtraction in the covered count.
        (4, 2, &[][..]),
        (4, 4, &[][..]),
        (3, 5, &reversed[..]),
        (7, 8, &expected[6..8]),
        // Well-formed, but overlapping the restored 0..3.
        (2, 4, &expected[2..4]),
        (7, 9, &expected[7..8]),
    ];

    for executor in [Executor::Threads, Executor::Workers] {
        let path = checkpoint_path(&format!("malformed-{executor:?}"));
        for (lo, hi, records) in entries {
            append_checkpoint(&path, &entry(&spec, lo, hi, records)).expect("seed checkpoint");
        }
        // A damaged line, then a torn tail: half of a line, no newline.
        let mut text = std::fs::read_to_string(&path).expect("read checkpoint");
        let line = text.lines().next().expect("a line").to_string();
        text.push_str("not a checkpoint line\n");
        text.push_str(&line[..line.len() / 2]);
        std::fs::write(&path, text).expect("damage checkpoint");

        let resumed = executor.run(&spec, &path);
        assert_eq!(
            resumed.records, want,
            "{executor:?}: malformed entries must be skipped"
        );
        executor.check_restored(&resumed, &[(0, 3), (5, 7)]);
        // Both were compacted away before the first append: the file reads
        // clean and every line is whole.
        let (_, damaged) = read_checkpoint_lossy(&path).expect("re-read checkpoint");
        assert_eq!(damaged, 0, "{executor:?} kept a damaged line");
        let bytes = std::fs::read(&path).expect("read checkpoint");
        assert_eq!(bytes.last(), Some(&b'\n'), "{executor:?} kept a torn tail");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn coalesced_checkpoint_writes_resume_exactly_like_before() {
    // Regression guard for the coalesced checkpoint path: a session now
    // appends each completed range through one persistent handle as a single
    // write, and the file it produces must still drive a resume exactly as
    // the per-line writer did — every line CRC-parseable, full coverage, and
    // a resumed coordinator restoring everything and dispatching nothing.
    let spec = fault_spec();
    let campaign = Campaign::parallel();
    let expected = spec
        .run_range_records(&campaign, 0, spec.trials)
        .expect("local run");

    let path = std::env::temp_dir().join(format!(
        "agreement-orchestration-coalesce-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    let mut session = Orchestrator::new(Scale::Quick, worker_command())
        .workers(2)
        .chunk(2)
        .checkpoint(&path)
        .start()
        .expect("spawn orchestration workers");
    let records = session.run_spec_records(&spec).expect("checkpointed run");
    session.shutdown().expect("worker shutdown");
    assert_eq!(records, expected, "checkpointed merge diverges");

    let entries = read_checkpoint(&path).expect("session-written checkpoint parses");
    let covered: u64 = entries.iter().map(|e| e.hi - e.lo).sum();
    assert_eq!(covered, spec.trials, "coalesced writes missed a range");

    // A fresh coordinator must restore every range and dispatch none.
    let mut resumed = Orchestrator::new(Scale::Quick, worker_command())
        .workers(2)
        .chunk(2)
        .checkpoint(&path)
        .start()
        .expect("spawn resumed workers");
    let mut restored = 0u64;
    let mut assigned = Vec::new();
    let again = resumed
        .run_spec_records_with(&spec, |event| match event {
            OrchestrationEvent::RangeRestored { lo, hi } => restored += hi - lo,
            OrchestrationEvent::RangeAssigned { lo, hi, .. } => assigned.push((lo, hi)),
            _ => {}
        })
        .expect("resumed run");
    resumed.shutdown().expect("worker shutdown");
    assert_eq!(restored, spec.trials, "resume restored a partial range set");
    assert!(assigned.is_empty(), "resume re-dispatched {assigned:?}");
    assert_eq!(again, expected, "resumed merge diverges");
    let _ = std::fs::remove_file(&path);
}
