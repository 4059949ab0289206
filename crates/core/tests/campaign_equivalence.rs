//! Campaign-equivalence property tests: how a campaign is run must never
//! change what it reports. The registry (all but the `subquad/` family) is
//! rendered through the machine-readable sinks serially and on three
//! threads, and the reports must be byte-identical; a trace-free campaign
//! trial must agree with the fully traced single run of the same seed.

use agreement_core::experiments::Scale;
use agreement_core::{
    scenario_registry, Campaign, JsonReportSink, JsonlSink, ReportSink, ScenarioSpec,
};

/// Every scenario but the `subquad/` family, with trials and limits cut down
/// so the full sweep stays test-sized. Cutting limits is safe: every run is
/// under the same caps, and the equality below is on the complete rendered
/// reports.
fn registry_specs() -> Vec<ScenarioSpec> {
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
    assert!(specs.len() >= 30, "registry unexpectedly small");
    specs
}

/// Renders every spec through the JSON report and per-trial JSONL sinks,
/// returning both documents.
fn render(specs: &[ScenarioSpec], campaign: &Campaign) -> (String, String) {
    let mut json = JsonReportSink::with_scale("quick");
    let mut jsonl = JsonlSink::new();
    for spec in specs {
        let mut sinks: Vec<&mut dyn ReportSink> = vec![&mut json, &mut jsonl];
        spec.run_with_sinks(campaign, &mut sinks)
            .unwrap_or_else(|err| panic!("{} failed to run: {err}", spec.id()));
    }
    (json.into_json().to_string(), jsonl.as_str().to_string())
}

#[test]
fn registry_reports_are_byte_identical_across_threads() {
    let specs = registry_specs();
    let (serial_json, serial_jsonl) = render(&specs, &Campaign::serial());
    let (threaded_json, threaded_jsonl) = render(&specs, &Campaign::with_threads(3));
    assert_eq!(
        serial_json, threaded_json,
        "JSON reports diverge across thread counts"
    );
    assert_eq!(
        serial_jsonl, threaded_jsonl,
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
fn untraced_campaign_records_match_the_fully_traced_run() {
    for mut spec in cross_section() {
        spec.trials = 1;
        // The campaign path runs trace-free (NoTrace recorder); the
        // single-run path records a full trace. Gating must not change what
        // the execution does.
        let report = spec.run().expect("campaign run");
        let outcome = spec.run_single(spec.base_seed).expect("traced run");
        let aggregate = &report.aggregate;
        let cap = spec.limits.max_steps.max(spec.limits.max_windows);
        let expected_time = outcome.all_decided_at.unwrap_or(cap.min(outcome.duration));
        assert_eq!(
            aggregate.termination_rate == 1.0,
            outcome.all_correct_decided(),
            "termination mismatch for {}",
            spec.id()
        );
        assert_eq!(
            aggregate.messages.mean,
            outcome.metrics.messages_sent as f64,
            "message count mismatch for {}",
            spec.id()
        );
        assert_eq!(
            aggregate.resets.mean,
            outcome.metrics.resets_consumed as f64,
            "reset count mismatch for {}",
            spec.id()
        );
        if outcome.all_decided_at.is_some() {
            assert_eq!(
                aggregate.decision_time.mean,
                expected_time as f64,
                "decision time mismatch for {}",
                spec.id()
            );
        }
    }
}
