//! Regenerates the experiment tables (E1-E10) in order, optionally emitting
//! machine-readable per-scenario records.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p agreement-bench --bin all_experiments [-- [ID...] FLAGS]
//!
//!   ID...          experiments to run, from e1 ... e10 (default: all ten, in
//!                  order; an unknown id exits 2 listing the valid ones)
//!   --full         run the full EXPERIMENTS.md parameters (default: quick)
//!   --json <PATH>  additionally re-run every simulated experiment workload
//!                  (all of them, whichever ids were listed) and write one
//!                  JSON record per scenario (aggregate + percentile
//!                  distributions)
//!   --csv <PATH>   like --json, as one CSV summary row per scenario
//! ```
//!
//! The emission flags re-run the experiment workloads after the tables have
//! printed (the table API returns finished tables, not record streams), so a
//! `--full --json` invocation costs roughly twice a plain `--full` one; for
//! records without tables, prefer `scenarios --filter e1 ... --json`, which
//! runs each workload once. E3 and E4 are pure analysis (no simulation) and
//! appear only in the printed tables, not in the machine-readable records.

use agreement_core::cli::required_value;
use agreement_core::experiments::{experiment_specs, Scale, EXPERIMENTS};
use agreement_core::{CsvSink, JsonReportSink, ReportSink};

fn main() {
    let mut scale = Scale::Quick;
    let mut json_path: Option<String> = None;
    let mut csv_path: Option<String> = None;
    let mut selected = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--json" => json_path = Some(required_value(&mut args, "--json")),
            "--csv" => csv_path = Some(required_value(&mut args, "--csv")),
            "--help" | "-h" => {
                println!(
                    "usage: all_experiments [ID...] [--full] [--json PATH] [--csv PATH]\n\
                     Regenerates the E1-E10 tables (ten tables, or only the listed ids\n\
                     e1 ... e10); --json/--csv additionally emit machine-readable\n\
                     per-scenario records."
                );
                return;
            }
            id if !id.starts_with('-') => {
                match EXPERIMENTS.iter().find(|(known, _)| *known == id) {
                    Some(&(_, run)) => selected.push(run),
                    None => {
                        let valid: Vec<&str> =
                            EXPERIMENTS.iter().map(|(known, _)| *known).collect();
                        eprintln!("unknown experiment '{id}' (valid: {})", valid.join(", "));
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("unknown argument '{other}' (try --help)");
                std::process::exit(2);
            }
        }
    }
    if selected.is_empty() {
        selected.extend(EXPERIMENTS.iter().map(|&(_, run)| run));
    }

    for run in selected {
        println!("{}", run(scale));
    }

    if json_path.is_none() && csv_path.is_none() {
        return;
    }

    let mut json = JsonReportSink::with_scale(format!("{scale:?}").to_lowercase());
    let mut csv = CsvSink::new();
    for spec in experiment_specs(scale) {
        let mut sinks: Vec<&mut dyn ReportSink> = Vec::new();
        if json_path.is_some() {
            sinks.push(&mut json);
        }
        if csv_path.is_some() {
            sinks.push(&mut csv);
        }
        if let Err(err) = spec.run_with_sinks(&Default::default(), &mut sinks) {
            eprintln!("{}: {err}", spec.id());
            std::process::exit(1);
        }
    }
    if let Some(path) = json_path {
        std::fs::write(&path, format!("{}\n", json.into_json())).unwrap_or_else(|err| {
            eprintln!("could not write {path}: {err}");
            std::process::exit(1);
        });
        eprintln!("wrote experiment JSON records to {path}");
    }
    if let Some(path) = csv_path {
        std::fs::write(&path, csv.as_str()).unwrap_or_else(|err| {
            eprintln!("could not write {path}: {err}");
            std::process::exit(1);
        });
        eprintln!("wrote experiment CSV summary to {path}");
    }
}
