//! Chaos soak: the orchestrated merge must stay **byte-identical** to a
//! single-process campaign while the transport is actively sabotaged.
//!
//! Every run here injects a seeded fault schedule into the worker
//! connections — dropped, duplicated, bit-flipped, truncated, and delayed
//! frames — on top of a worker killed with SIGKILL mid-campaign. The
//! coordinator's recovery machinery (CRC-detected corruption, worker drop
//! and requeue, respawn with backoff, idempotent completion tracking) must
//! hide all of it: trial `t` is fully determined by `base_seed + t`, so no
//! fault schedule that stays inside the respawn budget may ever show in the
//! rendered reports.

use agreement::core::experiments::Scale;
use agreement::core::orchestrate::{FaultPlan, OrchestrationEvent, Orchestrator, Session};
use agreement::core::{
    scenario_registry, stream_records, Campaign, JsonReportSink, JsonlSink, ReportSink,
    ScenarioSpec,
};

fn worker_command() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_orchestrate_worker").to_string()]
}

/// The legacy registry with trials and limits cut down to soak size (same
/// shape as the orchestration equivalence suite; cutting limits is safe
/// because both sides run under the caps carried by the run frame).
fn soak_specs() -> Vec<ScenarioSpec> {
    let specs: Vec<ScenarioSpec> = scenario_registry(Scale::Quick)
        .into_iter()
        .filter(|spec| !spec.id().contains("subquad/"))
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

/// A fault mix mild enough that eight registry sweeps stay inside the
/// respawn budget with overwhelming probability, but hot enough that every
/// failure class fires across the soak: lost frames, replayed frames,
/// CRC-detected corruption, torn frames, and jittered delivery.
fn soak_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    plan.drop = 0.004;
    plan.duplicate = 0.05;
    plan.bit_flip = 0.003;
    plan.truncate = 0.002;
    plan.delay = 0.05;
    plan.delay_ms = 5;
    plan
}

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

/// Sweeps the registry through a chaos session, SIGKILLing one worker when
/// the sweep reaches its midpoint. Returns the rendered reports plus how
/// many workers were lost and respawned along the way.
fn render_chaos_sweep(
    specs: &[ScenarioSpec],
    session: &mut Session,
    victim: &mut std::process::Child,
) -> (String, String, usize, usize) {
    let mut json = JsonReportSink::with_scale("quick");
    let mut jsonl = JsonlSink::new();
    let mut lost = 0usize;
    let mut respawned = 0usize;
    let midpoint = specs.len() / 2;
    for (index, spec) in specs.iter().enumerate() {
        if index == midpoint {
            // Mid-campaign SIGKILL. The worker may already have been felled
            // by an injected fault — then this is a no-op and the fault plan
            // alone supplies the chaos.
            victim.kill().expect("SIGKILL worker 1");
        }
        let records = session
            .run_spec_records_with(spec, |event| match event {
                OrchestrationEvent::WorkerLost { .. } => lost += 1,
                OrchestrationEvent::WorkerRespawned { .. } => respawned += 1,
                _ => {}
            })
            .unwrap_or_else(|err| panic!("{} failed under chaos: {err}", spec.id()));
        let meta = spec.meta().expect("feasible spec has metadata");
        let mut sinks: Vec<&mut dyn ReportSink> = vec![&mut json, &mut jsonl];
        stream_records(&meta, &records, &mut sinks);
    }
    (
        json.into_json().to_string(),
        jsonl.as_str().to_string(),
        lost,
        respawned,
    )
}

#[test]
fn eight_seeded_fault_schedules_with_worker_kills_merge_byte_identically() {
    let specs = soak_specs();
    let (local_json, local_jsonl) = render_local(&specs);
    let mut total_lost = 0usize;
    let mut total_respawned = 0usize;
    // Verified fixtures: a sweep the faults do not stall runs in ≈ 60 ms,
    // under the first respawn backoff, so a worker killed at its midpoint is
    // only replaced when the plan also stalls the sweep (a dropped frame
    // waits out the receive timeout). Under each of these seeds it does.
    for seed in [22u64, 66, 121, 132, 154, 198, 209, 330] {
        let mut session = Orchestrator::new(Scale::Quick, worker_command())
            .workers(2)
            .worker_faults(soak_plan(seed))
            .recv_timeout(std::time::Duration::from_secs(2))
            .respawn_budget(12)
            .start()
            .expect("spawn chaos workers");
        let mut victim = session.take_worker_process(1);
        let (json, jsonl, lost, respawned) = render_chaos_sweep(&specs, &mut session, &mut victim);
        session.shutdown().expect("worker shutdown");
        victim.wait().expect("reap killed worker");
        total_lost += lost;
        total_respawned += respawned;
        assert_eq!(local_json, json, "JSON report diverges under seed {seed}");
        assert_eq!(
            local_jsonl, jsonl,
            "per-trial JSONL diverges under seed {seed}"
        );
    }
    // The SIGKILLs alone guarantee losses, the seeds the respawns: across
    // eight sweeps the recovery machinery must actually have fired, or the
    // soak proved nothing.
    assert!(
        total_lost >= 8,
        "expected at least one loss per sweep, saw {total_lost}"
    );
    assert!(
        total_respawned >= 8,
        "expected at least one respawn per sweep, saw {total_respawned}"
    );
}

/// Record blocks under a hot corruption schedule: a block frame
/// carrying a whole range is exactly where a bit flip is most damaging, and
/// the transport's CRC trailer must catch every one before the columnar
/// decoder runs — a corrupt block surfaces as a dropped worker and a
/// re-queued range, never as a bad decode, so the merge stays byte-identical
/// to a fault-free single-process run.
#[test]
fn four_fault_seeds_over_batched_blocks_merge_byte_identically() {
    let specs = soak_specs();
    let (local_json, local_jsonl) = render_local(&specs);
    let mut total_lost = 0usize;
    for seed in [0xB10C01u64, 0xB10C02, 0xB10C03, 0xB10C04] {
        // Hotter flip/truncate rates than the kill soak: a range is one
        // frame, so a sweep sends few of them, and the point here is that
        // damaged blocks are *detected*, so aim enough damage at them that
        // several blocks are hit every sweep.
        let mut plan = FaultPlan::new(seed);
        plan.bit_flip = 0.02;
        plan.truncate = 0.01;
        plan.duplicate = 0.05;
        plan.delay = 0.05;
        plan.delay_ms = 3;
        let mut session = Orchestrator::new(Scale::Quick, worker_command())
            .workers(2)
            .worker_faults(plan)
            .recv_timeout(std::time::Duration::from_secs(2))
            .respawn_budget(40)
            .start()
            .expect("spawn chaos workers");
        let mut json = JsonReportSink::with_scale("quick");
        let mut jsonl = JsonlSink::new();
        for spec in &specs {
            let records = session
                .run_spec_records_with(spec, |event| {
                    if matches!(event, OrchestrationEvent::WorkerLost { .. }) {
                        total_lost += 1;
                    }
                })
                .unwrap_or_else(|err| panic!("{} failed under chaos: {err}", spec.id()));
            let meta = spec.meta().expect("feasible spec has metadata");
            let mut sinks: Vec<&mut dyn ReportSink> = vec![&mut json, &mut jsonl];
            stream_records(&meta, &records, &mut sinks);
        }
        session.shutdown().expect("worker shutdown");
        assert_eq!(
            local_json,
            json.into_json().to_string(),
            "JSON report diverges under seed {seed:#x}"
        );
        assert_eq!(
            local_jsonl,
            jsonl.as_str(),
            "per-trial JSONL diverges under seed {seed:#x}"
        );
    }
    // At these rates corruption must actually have felled workers — each
    // loss is a detected damaged frame (or its fallout) whose range was
    // re-queued and re-run. Zero losses would mean the soak proved nothing.
    assert!(
        total_lost >= 4,
        "expected the corruption schedule to fell workers, saw {total_lost} losses"
    );
}

/// With a single worker every recovery decision is sequential, so the event
/// log is a pure function of the fault seed: running the same seed twice
/// must reproduce the same losses, respawns, and re-dispatches in the same
/// order. (The plan deliberately excludes `drop` and `hang`: those are
/// healed by wall-clock timeouts, which order events by elapsed time rather
/// than by frame index.)
#[test]
fn the_same_fault_seed_reproduces_the_same_recovery_log() {
    let specs: Vec<ScenarioSpec> = soak_specs()
        .into_iter()
        .take(3)
        .map(|mut spec| {
            spec.trials = 8;
            spec
        })
        .collect();
    // The run is deterministic by construction, so this seed is a verified
    // fixture: under it the plan fells the worker at least once (asserted
    // below), exercising the loss → respawn → re-run path on both passes.
    let mut plan = FaultPlan::new(0xC4A06);
    plan.bit_flip = 0.05;
    plan.truncate = 0.025;
    plan.duplicate = 0.3;
    plan.delay = 0.1;
    plan.delay_ms = 3;

    let run_once = || -> (Vec<OrchestrationEvent>, Vec<String>) {
        let mut session = Orchestrator::new(Scale::Quick, worker_command())
            .workers(1)
            .worker_faults(plan.clone())
            .respawn_budget(12)
            .start()
            .expect("spawn chaos worker");
        let mut log = Vec::new();
        let mut merged = Vec::new();
        for spec in &specs {
            let records = session
                .run_spec_records_with(spec, |event| log.push(event))
                .unwrap_or_else(|err| panic!("{} failed under chaos: {err}", spec.id()));
            merged.extend(records.iter().map(|r| r.to_json().to_string()));
        }
        session.shutdown().expect("worker shutdown");
        (log, merged)
    };

    let (first_log, first_records) = run_once();
    let (second_log, second_records) = run_once();
    assert_eq!(
        first_log, second_log,
        "recovery log is not reproducible from the fault seed"
    );
    assert_eq!(first_records, second_records, "merged records diverge");
    // And chaos must actually have occurred, or reproducibility is vacuous.
    assert!(
        first_log
            .iter()
            .any(|e| matches!(e, OrchestrationEvent::WorkerLost { .. })),
        "fault plan never felled the worker; raise the rates"
    );
}
