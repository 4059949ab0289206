//! Property tests for the data-driven scenario layer and its structured
//! report pipeline.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Equivalence** — the declarative experiment tables produce exactly the
//!    bytes the pre-scenario hand-rolled trial loops produced: re-running E1's
//!    workloads through the raw `TrialPlan`/`Campaign::run_records` path
//!    (hand-rolled loops, inlined here) yields cell-for-cell identical rows.
//! 2. **Machine readability** — the per-scenario JSON records the `scenarios`
//!    binary emits under `--json` round-trip through the in-tree parser, and
//!    every per-trial JSONL line parses back into its [`TrialRecord`].
//!
//! That every registered scenario is one execution per seed, however and on
//! however many threads it is run, is `tests/equivalence.rs`'s table.

use agreement::adversary::{RotatingResetAdversary, SplitVoteAdversary};
use agreement::analysis::JsonValue;
use agreement::core::experiments::{exp1_correctness, exp1_specs, Scale};
use agreement::core::{
    fmt_f64, fmt_rate, Aggregate, Campaign, JsonReportSink, JsonlSink, ReportSink, TrialPlan,
    TrialRecord,
};
use agreement::model::{Bit, InputAssignment, SystemConfig};
use agreement::protocols::ResetTolerantBuilder;
use agreement::sim::{BuiltAdversary, RunLimits};

#[test]
fn declarative_e1_matches_the_hand_rolled_trial_loops() {
    // The pre-scenario implementation of E1, inlined: explicit loops over
    // sizes, inputs and adversaries, each calling the raw campaign path.
    let scale = Scale::Quick;
    let sizes: &[usize] = &[7, 13];
    let trials = 10;
    let mut expected_rows: Vec<Vec<String>> = Vec::new();
    for &n in sizes {
        let cfg = SystemConfig::with_sixth_resilience(n).expect("n >= 1");
        let builder = ResetTolerantBuilder::recommended(&cfg).expect("t < n/6");
        for (label, inputs) in [
            ("unanimous-1", InputAssignment::unanimous(n, Bit::One)),
            ("split", InputAssignment::evenly_split(n)),
        ] {
            for adversary in ["rotating-reset", "split-vote"] {
                let plan = TrialPlan::new(cfg, inputs.clone())
                    .trials(trials)
                    .limits(RunLimits::windows(5_000));
                let make = |_seed| match adversary {
                    "rotating-reset" => {
                        BuiltAdversary::windowed(Box::new(RotatingResetAdversary::new()))
                    }
                    _ => BuiltAdversary::windowed(Box::new(SplitVoteAdversary::new())),
                };
                let records = Campaign::default().run_records(&plan, &builder, make);
                let aggregate = Aggregate::from_records(&records, plan.limits.max_windows);
                expected_rows.push(vec![
                    n.to_string(),
                    cfg.t().to_string(),
                    label.to_string(),
                    adversary.to_string(),
                    fmt_rate(aggregate.agreement_rate),
                    fmt_rate(aggregate.validity_rate),
                    fmt_rate(aggregate.termination_rate),
                    fmt_f64(aggregate.decision_time.mean),
                    fmt_f64(aggregate.resets.mean),
                ]);
            }
        }
    }

    let declarative = exp1_correctness(scale);
    assert_eq!(
        declarative.rows(),
        &expected_rows[..],
        "the declarative E1 table must be byte-identical to the hand-rolled loops"
    );
}

#[test]
fn e1_json_records_round_trip_through_the_in_tree_parser() {
    // The in-process version of the CI job:
    // `scenarios --filter e1 --json out.json && scenarios --check out.json`.
    let mut sink = JsonReportSink::new();
    for spec in exp1_specs(Scale::Quick).iter().map(|s| {
        let mut s = s.clone();
        s.trials = 3;
        s
    }) {
        let mut sinks: Vec<&mut dyn ReportSink> = vec![&mut sink];
        spec.run_with_sinks(&Campaign::default(), &mut sinks)
            .unwrap_or_else(|err| panic!("{} failed: {err}", spec.id()));
    }
    let doc = sink.into_json();
    let text = doc.to_string();
    let parsed = JsonValue::parse(&text).expect("emitted scenario JSON parses");
    assert_eq!(parsed, doc, "emit → parse must not change the document");

    let scenarios = parsed
        .get("scenarios")
        .and_then(JsonValue::as_array)
        .expect("document carries a scenarios array");
    assert_eq!(scenarios.len(), exp1_specs(Scale::Quick).len());
    for entry in scenarios {
        let id = entry.get("id").and_then(JsonValue::as_str).unwrap();
        assert!(id.starts_with("e1/"), "unexpected id {id}");
        assert_eq!(entry.get("trials").and_then(JsonValue::as_u64), Some(3));
        let agreement = entry
            .get("agreement_rate")
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert_eq!(agreement, 1.0, "E1 scenarios must agree: {id}");
        assert!(
            entry.get("decision_time_dist").is_some(),
            "records carry distributions"
        );
    }
}

#[test]
fn jsonl_lines_parse_back_into_their_records() {
    let spec = {
        let mut spec = exp1_specs(Scale::Quick)
            .into_iter()
            .find(|s| s.adversary == "split-vote")
            .expect("E1 registers a split-vote workload");
        spec.trials = 8;
        spec
    };

    let mut sink = JsonlSink::new();
    let mut sinks: Vec<&mut dyn ReportSink> = vec![&mut sink];
    spec.run_with_sinks(&Campaign::default(), &mut sinks)
        .expect("spec runs");
    let jsonl = sink.into_string();
    assert_eq!(jsonl.lines().count(), 8);

    // Every line parses back into the record it came from, in trial order.
    for (i, line) in jsonl.lines().enumerate() {
        let value = JsonValue::parse(line).expect("JSONL line parses");
        let record = TrialRecord::from_json(&value).expect("line is a full record");
        assert_eq!(record.trial, i as u64);
        assert_eq!(record.seed, spec.base_seed + i as u64);
    }
}

#[test]
fn scenario_reports_expose_distributions_consistent_with_the_aggregate() {
    let mut spec = exp1_specs(Scale::Quick).remove(0);
    spec.trials = 5;
    let report = spec.run().expect("spec runs");
    let aggregate = &report.aggregate;
    assert_eq!(report.decision_times.count(), 5);
    assert_eq!(report.decision_times.min(), aggregate.decision_time.min);
    assert_eq!(report.decision_times.max(), aggregate.decision_time.max);
    assert_eq!(report.decision_times.summary(), aggregate.decision_time);
    assert_eq!(report.message_counts.summary(), aggregate.messages);
    assert!(report.decision_times.percentile(50.0) <= report.decision_times.percentile(90.0));
}
