//! Multi-process orchestration equivalence: the coordinator's slot-ordered
//! merge of worker-streamed records must be **byte-identical** to a
//! single-process campaign — across worker counts, across a worker killed
//! mid-range, and across a checkpoint-resumed coordinator.
//!
//! This is the process-boundary extension of the thread-count and
//! buffer-layout equivalence suites: trial `t` of a spec is fully determined
//! by `base_seed + t`, so *where* it runs (which thread, which process,
//! before or after a crash) must never show in the rendered reports.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use agreement::core::experiments::Scale;
use agreement::core::orchestrate::{
    append_checkpoint, read_checkpoint, CheckpointEntry, FaultPlan, OrchestrateError,
    OrchestrationEvent, Orchestrator, Session,
};
use agreement::core::{
    scenario_registry, stream_records, Campaign, JsonReportSink, JsonlSink, ReportSink,
    ScenarioSpec,
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

#[test]
fn checkpoint_resume_skips_completed_ranges_and_merges_identically() {
    let spec = fault_spec();
    let campaign = Campaign::parallel();
    let expected = spec
        .run_range_records(&campaign, 0, spec.trials)
        .expect("local run");

    // Simulate a coordinator that died after persisting two ranges.
    let path = std::env::temp_dir().join(format!(
        "agreement-orchestration-resume-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    for (lo, hi) in [(0u64, 3u64), (5, 7)] {
        append_checkpoint(
            &path,
            &CheckpointEntry {
                scenario: spec.id(),
                base_seed: spec.base_seed,
                trials: spec.trials,
                lo,
                hi,
                records: expected[lo as usize..hi as usize].to_vec(),
            },
        )
        .expect("seed checkpoint");
    }

    let mut session = Orchestrator::new(Scale::Quick, worker_command())
        .workers(2)
        .checkpoint(&path)
        .start()
        .expect("spawn orchestration workers");
    let mut restored = Vec::new();
    let mut assigned = Vec::new();
    let records = session
        .run_spec_records_with(&spec, |event| match event {
            OrchestrationEvent::RangeRestored { lo, hi } => restored.push((lo, hi)),
            OrchestrationEvent::RangeAssigned { lo, hi, .. } => assigned.push((lo, hi)),
            _ => {}
        })
        .expect("resumed run");
    session.shutdown().expect("worker shutdown");

    assert_eq!(restored, vec![(0, 3), (5, 7)]);
    assert!(
        assigned
            .iter()
            .all(|&(lo, hi)| (hi <= 5 && lo >= 3) || lo >= 7),
        "a checkpointed trial was re-dispatched: {assigned:?}"
    );
    assert_eq!(records, expected, "resumed merge diverges");

    // The completed run must have persisted the missing ranges too: a second
    // resume finds full coverage.
    let entries = read_checkpoint(&path).expect("re-read checkpoint");
    let covered: u64 = entries
        .iter()
        .filter(|e| e.scenario == spec.id())
        .map(|e| e.hi - e.lo)
        .sum();
    assert_eq!(covered, spec.trials, "checkpoint does not cover all trials");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn malformed_checkpoint_entries_are_skipped_and_their_trials_re_run() {
    let spec = fault_spec();
    let campaign = Campaign::parallel();
    let expected = spec
        .run_range_records(&campaign, 0, spec.trials)
        .expect("local run");

    // Every line below passes its CRC and names this exact workload; only
    // the first two are ranges a session could have written.
    let path = std::env::temp_dir().join(format!(
        "agreement-orchestration-malformed-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut reversed = expected[3..5].to_vec();
    reversed.reverse();
    let entries = [
        (0u64, 3u64, expected[0..3].to_vec()),
        (5, 7, expected[5..7].to_vec()),
        // lo > hi: once an underflowing subtraction in the covered count.
        (4, 2, Vec::new()),
        (4, 4, Vec::new()),
        (3, 5, reversed),
        (7, 8, expected[6..8].to_vec()),
        // Well-formed, but overlapping the restored 0..3.
        (2, 4, expected[2..4].to_vec()),
        (7, 9, expected[7..8].to_vec()),
    ];
    for (lo, hi, records) in entries {
        let entry = CheckpointEntry {
            scenario: spec.id(),
            base_seed: spec.base_seed,
            trials: spec.trials,
            lo,
            hi,
            records,
        };
        append_checkpoint(&path, &entry).expect("seed checkpoint");
    }

    let mut session = Orchestrator::new(Scale::Quick, worker_command())
        .workers(2)
        .checkpoint(&path)
        .start()
        .expect("spawn orchestration workers");
    let mut restored = Vec::new();
    let records = session
        .run_spec_records_with(&spec, |event| {
            if let OrchestrationEvent::RangeRestored { lo, hi } = event {
                restored.push((lo, hi));
            }
        })
        .expect("malformed entries are skipped, never fatal");
    session.shutdown().expect("worker shutdown");
    assert_eq!(restored, vec![(0, 3), (5, 7)]);
    assert_eq!(records, expected, "resumed merge diverges");
    let _ = std::fs::remove_file(&path);
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
