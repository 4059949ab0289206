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
//! 3. **Trial order** — a campaign streams each record to the sinks as soon
//!    as every trial before it has run, on any number of threads, into a
//!    checkpoint or resumed from one: the sinks render exactly the serial
//!    record stream, even when a later range finishes first.
//!
//! That every registered scenario is one execution per seed, however and on
//! however many threads it is run, is `tests/equivalence.rs`'s table.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use agreement::adversary::{RotatingResetAdversary, SplitVoteAdversary};
use agreement::analysis::JsonValue;
use agreement::core::experiments::{exp1_correctness, exp1_specs, Scale};
use agreement::core::{
    fmt_f64, fmt_rate, scenario_registry, stream_records, Aggregate, Campaign, JsonReportSink,
    JsonlSink, ReportSink, ScenarioSpec, TrialPlan, TrialRecord,
};
use agreement::model::{Bit, InputAssignment, SystemConfig};
use agreement::protocols::{BenOrBuilder, ResetTolerantBuilder};
use agreement::sim::{BuiltAdversary, FairAsyncAdversary, RunLimits};

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

/// `specs` rendered one after another by `run` into one JSON report and one
/// JSONL stream.
fn render(
    specs: &[ScenarioSpec],
    mut run: impl FnMut(&ScenarioSpec, &mut [&mut dyn ReportSink]),
) -> (String, String) {
    let mut json = JsonReportSink::with_scale("quick");
    let mut jsonl = JsonlSink::new();
    for spec in specs {
        run(spec, &mut [&mut json, &mut jsonl]);
    }
    (json.into_json().to_string(), jsonl.into_string())
}

/// Where [`streamed_runs_render_the_serial_stream_fresh_and_resumed`] keeps
/// spec `index`'s checkpoint.
fn checkpoint_path(index: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "agreement-streamed-{}-{index}.jsonl",
        std::process::id()
    ))
}

#[test]
fn streamed_runs_render_the_serial_stream_fresh_and_resumed() {
    // Every registered spec, with limits cut so that six passes stay
    // test-sized: each pass runs under the same caps, and the comparison is
    // of whole documents.
    let specs: Vec<ScenarioSpec> = scenario_registry(Scale::Quick)
        .into_iter()
        .map(|mut spec| {
            spec.limits.max_windows = spec.limits.max_windows.min(300);
            spec.limits.max_steps = spec.limits.max_steps.min(50_000);
            spec
        })
        .collect();
    let expected = render(&specs, |spec, sinks| {
        let records = spec
            .run_range_records(&Campaign::serial(), 0, spec.trials)
            .expect("registry specs resolve");
        stream_records(
            &spec.meta().expect("registry specs resolve"),
            &records,
            sinks,
        );
    });
    let same = |(json, jsonl): &(String, String), how: &str| {
        assert!(*json == expected.0, "{how}: the JSON report differs");
        assert!(*jsonl == expected.1, "{how}: the JSONL stream differs");
    };
    for threads in [1, 2, 4] {
        let streamed = render(&specs, |spec, sinks| {
            spec.run_with_sinks(&Campaign::with_threads(threads), sinks)
                .expect("registry specs resolve");
        });
        same(&streamed, &format!("run_with_sinks on {threads} thread(s)"));
    }

    let index = |spec: &ScenarioSpec| specs.iter().position(|s| s.id() == spec.id()).unwrap();
    let checkpointed = |spec: &ScenarioSpec, sinks: &mut [&mut dyn ReportSink]| {
        spec.run_checkpointed(
            &Campaign::with_threads(2),
            Some(&checkpoint_path(index(spec))),
            sinks,
        )
        .expect("registry specs run checkpointed");
    };
    for index in 0..specs.len() {
        let _ = std::fs::remove_file(checkpoint_path(index));
    }
    same(&render(&specs, checkpointed), "a fresh checkpoint");
    // Every other line deleted: restored ranges interleave with re-run ones.
    for index in 0..specs.len() {
        let path = checkpoint_path(index);
        let text = std::fs::read_to_string(&path).expect("the run wrote its checkpoint");
        let kept: String = text
            .lines()
            .step_by(2)
            .map(|line| format!("{line}\n"))
            .collect();
        std::fs::write(&path, kept).expect("thin the checkpoint");
    }
    same(&render(&specs, checkpointed), "a resumed checkpoint");
    for index in 0..specs.len() {
        std::fs::remove_file(checkpoint_path(index)).expect("remove the checkpoint");
    }
}

#[test]
fn a_range_that_finishes_first_waits_for_the_ranges_before_it() {
    let plan = TrialPlan::new(
        SystemConfig::new(5, 1).expect("n >= 1"),
        InputAssignment::evenly_split(5),
    )
    .trials(64)
    .limits(RunLimits::small());
    let fair = |_seed: u64| BuiltAdversary::asynchronous(Box::new(FairAsyncAdversary::default()));
    let serial = Campaign::serial().run_records(&plan, &BenOrBuilder::new(), fair);
    // The calling thread is one of two workers. It waits until the other
    // has begun a range, which then sleeps while the calling thread runs
    // the ranges after it: those finish first and wait in the ledger.
    let calling = std::thread::current().id();
    let (slow, built) = (AtomicU64::new(u64::MAX), Mutex::new(Vec::new()));
    let records = Campaign::with_threads(2).run_records(&plan, &BenOrBuilder::new(), |seed| {
        let trial = seed - plan.base_seed;
        if std::thread::current().id() == calling {
            while slow.load(Ordering::Acquire) == u64::MAX {
                std::thread::yield_now();
            }
        } else if slow
            .compare_exchange(u64::MAX, trial, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            std::thread::sleep(Duration::from_millis(200));
        }
        built.lock().unwrap().push(trial);
        fair(seed)
    });
    // Trials in the order their adversaries were built, the slow one after
    // its sleep.
    let (slow, built) = (slow.into_inner(), built.into_inner().unwrap());
    let at = built.iter().position(|&trial| trial == slow).unwrap();
    assert!(
        built[..at].iter().any(|&trial| trial > slow),
        "no trial after {slow} ran before it: {built:?}"
    );
    // Equal records render equal documents in every sink.
    assert_eq!(records, serial, "the records left trial order");
}
