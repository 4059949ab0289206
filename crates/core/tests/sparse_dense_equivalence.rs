//! Layout-equivalence property tests: the message-buffer channel layout
//! (dense grid vs lazily materialized sparse fabric) must never change
//! results — only the memory/time profile. The whole legacy scenario
//! registry is rendered through the machine-readable sinks under both forced
//! layouts and across thread counts, and the reports must be byte-identical.

use agreement_core::experiments::Scale;
use agreement_core::{
    scenario_registry, Campaign, JsonReportSink, JsonlSink, ReportSink, ScenarioSpec,
};
use agreement_sim::BufferChoice;

/// The pre-sparse-fabric registry (every scenario the repo shipped before the
/// `subquad/` family), with trials and limits cut down so the full sweep
/// stays test-sized. Cutting limits is safe: both layouts run under the same
/// caps, and the equality below is on the complete rendered reports.
fn legacy_specs() -> Vec<ScenarioSpec> {
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
    assert!(specs.len() >= 30, "legacy registry unexpectedly small");
    specs
}

/// Renders every spec through the JSON report and per-trial JSONL sinks under
/// a forced buffer layout, returning both documents.
fn render(specs: &[ScenarioSpec], choice: BufferChoice, campaign: &Campaign) -> (String, String) {
    let mut json = JsonReportSink::with_scale("quick");
    let mut jsonl = JsonlSink::new();
    for spec in specs {
        let mut spec = spec.clone();
        spec.buffer = choice;
        let mut sinks: Vec<&mut dyn ReportSink> = vec![&mut json, &mut jsonl];
        spec.run_with_sinks(campaign, &mut sinks)
            .unwrap_or_else(|err| panic!("{} failed to run: {err}", spec.id()));
    }
    (json.into_json().to_string(), jsonl.as_str().to_string())
}

#[test]
fn legacy_registry_reports_are_byte_identical_across_layouts_and_threads() {
    let specs = legacy_specs();
    let serial = Campaign::serial();
    let threaded = Campaign::with_threads(3);

    let (dense_json, dense_jsonl) = render(&specs, BufferChoice::Dense, &serial);
    let (sparse_json, sparse_jsonl) = render(&specs, BufferChoice::Sparse, &serial);
    assert_eq!(
        dense_json, sparse_json,
        "JSON reports diverge across layouts"
    );
    assert_eq!(
        dense_jsonl, sparse_jsonl,
        "per-trial JSONL diverges across layouts"
    );

    let (threaded_json, threaded_jsonl) = render(&specs, BufferChoice::Sparse, &threaded);
    assert_eq!(
        dense_json, threaded_json,
        "JSON reports diverge across thread counts"
    );
    assert_eq!(
        dense_jsonl, threaded_jsonl,
        "per-trial JSONL diverges across thread counts"
    );
}

/// A small cross-section of the registry for the traced single-run check:
/// one windowed, one async, one partial-synchrony, one committee scenario.
fn cross_section() -> Vec<ScenarioSpec> {
    let picks = ["e1/", "e6/", "psync/", "e7/"];
    let mut section = Vec::new();
    for prefix in picks {
        let spec = scenario_registry(Scale::Quick)
            .into_iter()
            .find(|spec| spec.id().starts_with(prefix))
            .unwrap_or_else(|| panic!("no scenario with prefix {prefix}"));
        section.push(spec);
    }
    section
}

#[test]
fn traced_single_runs_are_structurally_identical_across_layouts() {
    for spec in cross_section() {
        for seed in [spec.base_seed, spec.base_seed + 1] {
            let mut dense = spec.clone();
            dense.buffer = BufferChoice::Dense;
            let mut sparse = spec.clone();
            sparse.buffer = BufferChoice::Sparse;
            let dense_outcome = dense.run_single(seed).expect("dense run");
            let sparse_outcome = sparse.run_single(seed).expect("sparse run");
            // Full structural equality: decisions, metrics, AND the bounded
            // event trace — delivery order must match event for event.
            assert_eq!(
                dense_outcome,
                sparse_outcome,
                "traced outcome diverges for {} seed {seed}",
                spec.id()
            );
        }
    }
}

#[test]
fn untraced_campaign_records_match_the_fully_traced_run() {
    for base in cross_section() {
        for choice in [BufferChoice::Dense, BufferChoice::Sparse] {
            let mut spec = base.clone();
            spec.buffer = choice;
            spec.trials = 1;
            // The campaign path runs trace-free (NoTrace recorder); the
            // single-run path records a full trace. Gating must not change
            // what the execution does.
            let report = spec.run().expect("campaign run");
            let outcome = spec.run_single(spec.base_seed).expect("traced run");
            let aggregate = &report.aggregate;
            let cap = spec.limits.max_steps.max(spec.limits.max_windows);
            let expected_time = outcome.all_decided_at.unwrap_or(cap.min(outcome.duration));
            assert_eq!(
                aggregate.termination_rate == 1.0,
                outcome.all_correct_decided(),
                "termination mismatch for {} ({choice:?})",
                spec.id()
            );
            assert_eq!(
                aggregate.messages.mean,
                outcome.metrics.messages_sent as f64,
                "message count mismatch for {} ({choice:?})",
                spec.id()
            );
            assert_eq!(
                aggregate.resets.mean,
                outcome.metrics.resets_consumed as f64,
                "reset count mismatch for {} ({choice:?})",
                spec.id()
            );
            if outcome.all_decided_at.is_some() {
                assert_eq!(
                    aggregate.decision_time.mean,
                    expected_time as f64,
                    "decision time mismatch for {} ({choice:?})",
                    spec.id()
                );
            }
        }
    }
}
