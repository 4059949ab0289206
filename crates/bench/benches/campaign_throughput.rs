//! The campaign hot-path throughput guard.
//!
//! Measures end-to-end campaign throughput — seeded trials distilled into
//! `TrialRecord`s per second — on the canonical workloads defined in
//! `agreement_bench::workloads`, and compares each number against the
//! baseline recorded in `crates/bench/baselines/campaign_throughput.json`.
//! This is the number the trace-gating / send-log / workspace / orchestration
//! optimisations move: unlike `exec_core` (which times raw scheduler steps
//! on a fresh core), this bench pays every per-trial cost a real campaign
//! pays — core construction or reuse, the full run, and the distillation
//! into a record.
//!
//! Single-process workloads (see `workloads` for the catalogue) run on
//! `Campaign::serial()` so the measurement is per-worker throughput, free of
//! thread-scheduling noise; the parallel campaign scales this number by the
//! worker count.
//!
//! The `orchestrated/*` cases time the multi-process path end to end —
//! coordinator dispatch over the framed transport, record streaming, and the
//! slot-ordered merge — using this package's own `scenarios` binary in
//! `--worker` mode. On a multi-core host two workers beat one process; on a
//! single-core host (the container this repo is developed and CI'd in has
//! `nproc` = 1) coordinator and workers time-slice one core, so the case
//! measures the orchestration overhead trajectory instead of a speedup.
//! Each case is therefore guarded against its own recorded history, never
//! against its single-process twin.

use agreement_bench::baseline::{baseline_path, Baseline, Verdict};
use agreement_bench::workloads::{self, TOLERANCE};

fn main() {
    let record = std::env::args().any(|a| a == "--record");
    let path = baseline_path("campaign_throughput");
    let baseline = Baseline::load(&path).unwrap_or_else(|err| {
        eprintln!("warning: could not load baseline ({err}); continuing without");
        Baseline::new()
    });

    let worker_cmd = vec![
        env!("CARGO_BIN_EXE_scenarios").to_string(),
        "--worker".to_string(),
    ];
    let measured = workloads::measure_all(Some(&worker_cmd));

    println!("\n== campaign throughput (trials/sec) vs recorded baseline ==");
    let mut regressions = 0;
    for (name, throughput) in measured.iter() {
        let verdict = baseline.check(name, throughput, TOLERANCE);
        if matches!(verdict, Verdict::Regression { .. }) {
            regressions += 1;
        }
        println!("{name:<42} {throughput:>12.2} trials/s  {verdict}");
    }

    if record {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create baselines dir");
        std::fs::write(&path, measured.to_json()).expect("write baseline");
        println!("recorded new baseline at {}", path.display());
    } else if regressions > 0 {
        println!(
            "{regressions} measurement(s) regressed beyond the {TOLERANCE} tolerance; \
             investigate before merging (or re-record with --record if intentional)"
        );
    } else {
        println!("no regressions beyond the {TOLERANCE} tolerance");
    }
}
