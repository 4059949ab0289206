//! `compare A.json B.json`: the rule for telling a real move from noise.
//!
//! Both files are result files written by `run` (ideally with `--repeat 10`,
//! parent and change alternating on the same machine). Per workload and metric
//! this prints both medians with their quartiles, the change against the
//! metric's bound, and one verdict:
//!
//! * `regressed`  — the median got worse by more than the bound;
//! * `unresolved` — the run-to-run spread of either side is wider than the
//!   bound, so "no regression" cannot be claimed (unless every run of B beats
//!   every run of A, which reads `improved`);
//! * `improved`   — better by more than the spread between A's own runs, and
//!   B wins at least nine in ten of the paired runs;
//! * `unchanged`  — everything else.
//!
//! Any `regressed`, and any rise in the share of failed trials, makes the
//! exit code non-zero. Per-layer metrics carry no bound and get no verdict.

use std::collections::BTreeMap;

use agreement_analysis::JsonValue;

use crate::catalog::{Better, MetricInfo, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, spread};

/// One side's runs of one workload.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Side {
    pub samples: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Side {
    fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Reads a result file into per-workload sides.
pub fn load(text: &str) -> Result<BTreeMap<String, Side>, String> {
    let doc = JsonValue::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(JsonValue::as_array)
        .ok_or("no 'runs' array: not a result file")?;
    let mut sides: BTreeMap<String, Side> = BTreeMap::new();
    for run in runs {
        let workload = run
            .get("context")
            .and_then(|c| c.get("workload"))
            .and_then(JsonValue::as_str)
            .ok_or("a run without context.workload")?;
        let result = run.get("result").ok_or("a run without a result")?;
        let side = sides.entry(workload.to_string()).or_default();
        side.attempted += result
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        side.failed += result
            .get("failed")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        if let Some(JsonValue::Object(metrics)) = result.get("metrics") {
            for (name, entry) in metrics {
                if let Some(value) = entry.get("value").and_then(JsonValue::as_f64) {
                    side.samples.entry(name.clone()).or_default().push(value);
                }
            }
        }
    }
    Ok(sides)
}

/// By how much of A's median B is worse (negative: better).
fn worsening(metric: &MetricInfo, before: f64, after: f64) -> f64 {
    if before == 0.0 {
        return 0.0;
    }
    match metric.better {
        Better::Higher => (before - after) / before.abs(),
        Better::Lower => (after - before) / before.abs(),
    }
}

/// The verdict on one bounded metric.
pub fn judge(metric: &MetricInfo, before: &[f64], after: &[f64], bound: f64) -> Verdict {
    let better = |a: f64, b: f64| match metric.better {
        Better::Higher => b > a,
        Better::Lower => b < a,
    };
    let worse_by = worsening(metric, median(before), median(after));
    if worse_by > bound {
        return Verdict::Regressed;
    }
    if spread(before).max(spread(after)) > bound {
        let clean_sweep = before.iter().all(|&a| after.iter().all(|&b| better(a, b)));
        return if clean_sweep {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let pairs = before.len().min(after.len());
    let wins = before
        .iter()
        .zip(after)
        .filter(|(&a, &b)| better(a, b))
        .count();
    if -worse_by > spread(before) && worse_by < 0.0 && wins * 10 >= pairs * 9 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn describe(samples: &[f64]) -> String {
    match quartiles(samples) {
        Some([q1, _, q3]) => format!(
            "{:.4} [{:.4}, {:.4}] n={}",
            median(samples),
            q1,
            q3,
            samples.len()
        ),
        None => format!("{:.4} n={}", median(samples), samples.len()),
    }
}

/// Compares two loaded result sets; returns the report and whether anything
/// regressed.
pub fn compare(before: &BTreeMap<String, Side>, after: &BTreeMap<String, Side>) -> (String, bool) {
    let mut report = String::new();
    let mut regressed = false;
    for workload in &WORKLOADS {
        let (Some(a), Some(b)) = (before.get(workload.name), after.get(workload.name)) else {
            continue;
        };
        report.push_str(&format!("{}\n", workload.name));
        for metric in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let (Some(xs), Some(ys)) = (a.samples.get(metric.name), b.samples.get(metric.name))
            else {
                continue;
            };
            // Adding 0.0 turns the -0.0 of an unchanged metric into 0.0.
            let change = -worsening(metric, median(xs), median(ys)) * 100.0 + 0.0;
            let verdict = metric.bound.map(|bound| judge(metric, xs, ys, bound));
            regressed |= verdict == Some(Verdict::Regressed);
            report.push_str(&format!(
                "  {:<44} {:>5} A {}  B {}  {:+.2}% {} {}\n",
                metric.name,
                metric.unit,
                describe(xs),
                describe(ys),
                change,
                metric
                    .bound
                    .map_or(String::new(), |b| format!("(bound {:.0}%)", b * 100.0)),
                verdict.map_or("", Verdict::label),
            ));
        }
        let (share_a, share_b) = (a.failed_share(), b.failed_share());
        let rose = share_b > share_a;
        regressed |= rose;
        report.push_str(&format!(
            "  {:<44} {:>5} A {share_a:.6}  B {share_b:.6}  {}\n",
            "failed_share",
            "share",
            if rose { "regressed" } else { "unchanged" },
        ));
    }
    (report, regressed)
}

/// The `compare` subcommand: `Ok(false)` when anything regressed.
pub fn compare_files(before: &str, after: &str) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|err| format!("{path}: {err}"))
            .and_then(|text| load(&text).map_err(|err| format!("{path}: {err}")))
    };
    let (report, regressed) = compare(&read(before)?, &read(after)?);
    print!("{report}");
    println!("positive changes are improvements; A = {before}, B = {after}");
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn throughput() -> &'static MetricInfo {
        &END_TO_END[0]
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let metric = throughput();
        assert_eq!(metric.name, "trials_per_s");
        let steady = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let shifted = |by: f64| steady.map(|x| x * by);
        assert_eq!(judge(metric, &steady, &steady, 0.1), Verdict::Unchanged);
        assert_eq!(
            judge(metric, &steady, &shifted(0.85), 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            judge(metric, &steady, &shifted(0.95), 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(metric, &steady, &shifted(1.05), 0.1),
            Verdict::Improved
        );
        // Noisy sides cannot support "unchanged"...
        let noisy = [
            100.0, 60.0, 140.0, 80.0, 120.0, 95.0, 105.0, 70.0, 130.0, 100.0,
        ];
        assert_eq!(judge(metric, &noisy, &steady, 0.1), Verdict::Unresolved);
        // ...but a clean sweep still reads as a gain, and a big loss as a loss.
        assert_eq!(judge(metric, &noisy, &shifted(2.0), 0.1), Verdict::Improved);
        assert_eq!(
            judge(metric, &noisy, &shifted(0.5), 0.1),
            Verdict::Regressed
        );
        // Lower-is-better metrics flip the direction.
        let cpu = &END_TO_END[1];
        assert_eq!(judge(cpu, &steady, &shifted(1.2), 0.1), Verdict::Regressed);
        assert_eq!(judge(cpu, &steady, &shifted(0.9), 0.1), Verdict::Improved);
    }

    fn file(trials_per_s: f64, failed: u64) -> String {
        format!(
            "{{\"runs\":[{{\"context\":{{\"workload\":\"search_fuzz\"}},\"result\":{{\"correct\":true,\
             \"attempted\":100,\"failed\":{failed},\"metrics\":{{\"trials_per_s\":{{\"value\":{trials_per_s},\
             \"unit\":\"1/s\"}}}}}}}}]}}"
        )
    }

    #[test]
    fn a_rise_in_failures_or_a_regression_fails_the_comparison() {
        let base = load(&file(1000.0, 0)).unwrap();
        let (report, regressed) = compare(&base, &load(&file(1001.0, 0)).unwrap());
        assert!(!regressed, "{report}");
        assert!(report.contains("trials_per_s") && report.contains("unchanged"));
        assert!(compare(&base, &load(&file(500.0, 0)).unwrap()).1);
        assert!(compare(&base, &load(&file(1000.0, 3)).unwrap()).1);
        assert!(load("{}").is_err());
    }
}
