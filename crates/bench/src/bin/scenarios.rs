//! Runs registered scenarios — protocol × adversary × inputs × size
//! combinations described as data — from the command line, with
//! machine-readable output.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p agreement-bench --bin scenarios -- [FLAGS]
//!
//!   --list             print every registered scenario id and exit
//!   --filter <SUBSTR>  only scenarios whose id contains SUBSTR (repeatable;
//!                      a scenario matches if it matches any filter)
//!   --exclude <SUBSTR> drop scenarios whose id contains SUBSTR (repeatable;
//!                      applied after --filter — e.g. `--exclude subquad/`
//!                      reproduces the historical registry byte for byte)
//!   --scale <quick|full>  parameter scale (default: quick)
//!   --trials <N>       override the trial count of every matched scenario
//!   --base-seed <S>    override the base seed of every matched scenario
//!   --json <PATH>      write one JSON record per scenario (aggregate +
//!                      percentile distributions) to PATH
//!   --csv <PATH>       write one CSV summary row per scenario to PATH
//!   --jsonl <PATH>     write one JSON line per *trial* to PATH
//!   --check <PATH>     validate a --json file: parse with the in-tree JSON
//!                      parser, verify the schema, and round-trip it
//!   --workers <N>      shard every scenario's seed range across N local
//!                      worker processes (spawned from this same binary),
//!                      each range coming back as one columnar block frame;
//!                      the merged output is byte-identical to a
//!                      single-process run
//!   --checkpoint <P>   persist completed seed ranges to P (CRC-guarded
//!                      JSONL) and resume from it on restart, on threads or
//!                      with --workers; either resumes what the other wrote
//!   --recv-timeout <S> with --workers: liveness policy receive timeout in
//!                      seconds (default 600) — a worker silent this long
//!                      has its range speculatively re-dispatched, and one
//!                      silent twice this long is dropped and respawned
//!   --respawn-budget <N>  with --workers: how many replacement workers the
//!                      session may spawn after losses (default 2)
//!   --chaos <SPEC>     with --workers: deterministic fault injection on
//!                      every worker connection, e.g.
//!                      `seed=7,drop=0.01,dup=0.03,flip=0.005,trunc=0.003,\
//!                      hang=0.002,delay=0.05:15` — output stays
//!                      byte-identical to a fault-free run
//!   --worker           internal: run as an orchestration worker (requires
//!                      --connect <ADDR>; spawned by the coordinator)
//! ```
//!
//! Examples:
//!
//! ```text
//! scenarios --list
//! scenarios --filter extra/
//! scenarios --filter e1 --json out.json && scenarios --check out.json
//! scenarios --filter split-vote --scale full --trials 500 --csv sweep.csv
//! ```

use agreement_analysis::JsonValue;
use agreement_core::cli::{parsed_value, required_value};
use agreement_core::experiments::Scale;
use agreement_core::orchestrate::{worker, OrchestrateError, Orchestrator, Session};
use agreement_core::{
    scenario_registry, stream_records, Campaign, CsvSink, JsonReportSink, JsonlSink, ReportSink,
    ScenarioSpec, TableSink,
};
use agreement_net::fault::FaultPlan;

struct Options {
    list: bool,
    filters: Vec<String>,
    excludes: Vec<String>,
    scale: Scale,
    trials: Option<u64>,
    base_seed: Option<u64>,
    json: Option<String>,
    csv: Option<String>,
    jsonl: Option<String>,
    check: Option<String>,
    workers: Option<usize>,
    checkpoint: Option<String>,
    recv_timeout: Option<u64>,
    respawn_budget: Option<u32>,
    chaos: Option<String>,
    worker: bool,
    connect: Option<String>,
}

fn parse_options() -> Options {
    let mut options = Options {
        list: false,
        filters: Vec::new(),
        excludes: Vec::new(),
        scale: Scale::Quick,
        trials: None,
        base_seed: None,
        json: None,
        csv: None,
        jsonl: None,
        check: None,
        workers: None,
        checkpoint: None,
        recv_timeout: None,
        respawn_budget: None,
        chaos: None,
        worker: false,
        connect: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => options.list = true,
            "--filter" => options.filters.push(required_value(&mut args, "--filter")),
            "--exclude" => options
                .excludes
                .push(required_value(&mut args, "--exclude")),
            "--trials" => options.trials = Some(parsed_value(&mut args, "--trials")),
            "--base-seed" => options.base_seed = Some(parsed_value(&mut args, "--base-seed")),
            "--json" => options.json = Some(required_value(&mut args, "--json")),
            "--csv" => options.csv = Some(required_value(&mut args, "--csv")),
            "--jsonl" => options.jsonl = Some(required_value(&mut args, "--jsonl")),
            "--check" => options.check = Some(required_value(&mut args, "--check")),
            "--workers" => options.workers = Some(parsed_value(&mut args, "--workers")),
            "--checkpoint" => options.checkpoint = Some(required_value(&mut args, "--checkpoint")),
            "--recv-timeout" => {
                options.recv_timeout = Some(parsed_value(&mut args, "--recv-timeout"))
            }
            "--respawn-budget" => {
                options.respawn_budget = Some(parsed_value(&mut args, "--respawn-budget"))
            }
            "--chaos" => options.chaos = Some(required_value(&mut args, "--chaos")),
            "--worker" => options.worker = true,
            "--connect" => options.connect = Some(required_value(&mut args, "--connect")),
            "--scale" => {
                let value = required_value(&mut args, "--scale");
                options.scale = match value.as_str() {
                    "quick" => Scale::Quick,
                    "full" => Scale::Full,
                    other => {
                        eprintln!("unknown scale '{other}' (expected 'quick' or 'full')");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                println!(
                    "usage: scenarios [--list] [--filter SUBSTR]... [--exclude SUBSTR]...\n\
                     \x20                [--scale quick|full]\n\
                     \x20                [--trials N] [--base-seed S]\n\
                     \x20                [--json PATH] [--csv PATH] [--jsonl PATH] [--check PATH]\n\
                     \x20                [--checkpoint PATH] [--workers N [--recv-timeout S]\n\
                     \x20                 [--respawn-budget N] [--chaos SPEC]]\n\
                     Runs every registered protocol × adversary × inputs × size combination."
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument '{other}' (try --help)");
                std::process::exit(2);
            }
        }
    }
    options
}

fn matches(spec: &ScenarioSpec, filters: &[String], excludes: &[String]) -> bool {
    let id = spec.id();
    (filters.is_empty() || filters.iter().any(|f| id.contains(f.as_str())))
        && !excludes.iter().any(|e| id.contains(e.as_str()))
}

/// Validates a `--json` document: it must parse with the in-tree parser,
/// carry a `scenarios` array whose entries have the per-scenario fields, and
/// survive an emit → re-parse round trip unchanged.
fn check_document(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let scenarios = doc
        .get("scenarios")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "document must carry a 'scenarios' array".to_string())?;
    for (i, entry) in scenarios.iter().enumerate() {
        for field in ["id", "model", "n", "t", "trials", "base_seed"] {
            if entry.get(field).is_none() {
                return Err(format!("scenario #{i} is missing field '{field}'"));
            }
        }
        for rate in ["termination_rate", "agreement_rate", "validity_rate"] {
            let value = entry
                .get(rate)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("scenario #{i} is missing rate '{rate}'"))?;
            if !(0.0..=1.0).contains(&value) {
                return Err(format!("scenario #{i} has out-of-range {rate} = {value}"));
            }
        }
        for dist in ["decision_time_dist", "chain_length_dist"] {
            if entry.get(dist).is_none() {
                return Err(format!("scenario #{i} is missing distribution '{dist}'"));
            }
        }
    }
    let reparsed =
        JsonValue::parse(&doc.to_string()).map_err(|e| format!("re-parse failed: {e}"))?;
    if reparsed != doc {
        return Err("emit → parse round trip changed the document".to_string());
    }
    Ok(scenarios.len())
}

fn write_file(path: &str, contents: &str, what: &str) {
    std::fs::write(path, contents).unwrap_or_else(|err| {
        eprintln!("could not write {what} to {path}: {err}");
        std::process::exit(1);
    });
    eprintln!("wrote {what} to {path}");
}

/// Formats the zero-match diagnostic so the user sees exactly which
/// `--filter`/`--exclude` arguments eliminated everything.
fn no_match_message(filters: &[String], excludes: &[String]) -> String {
    let mut message = String::from("no scenarios match");
    if filters.is_empty() && excludes.is_empty() {
        message.push_str(" (the registry is empty at this scale)");
        return message;
    }
    if !filters.is_empty() {
        message.push_str(&format!(" --filter {}", filters.join(" --filter ")));
    }
    if !excludes.is_empty() {
        message.push_str(&format!(" --exclude {}", excludes.join(" --exclude ")));
    }
    message.push_str("; try --list with no filters to see every registered id");
    message
}

fn main() {
    let options = parse_options();

    if options.worker {
        let Some(addr) = &options.connect else {
            eprintln!("--worker requires --connect <addr>");
            std::process::exit(2);
        };
        if let Err(err) = worker::serve(addr) {
            eprintln!("worker: {err}");
            std::process::exit(1);
        }
        return;
    }

    if let Some(path) = &options.check {
        match check_document(path) {
            Ok(count) => {
                eprintln!("{path}: valid — {count} scenario record(s) round-trip cleanly");
                return;
            }
            Err(err) => {
                eprintln!("{path}: INVALID — {err}");
                std::process::exit(1);
            }
        }
    }

    let mut specs: Vec<ScenarioSpec> = scenario_registry(options.scale)
        .into_iter()
        .filter(|spec| matches(spec, &options.filters, &options.excludes))
        .collect();
    for spec in &mut specs {
        if let Some(trials) = options.trials {
            spec.trials = trials;
        }
        if let Some(base_seed) = options.base_seed {
            spec.base_seed = base_seed;
        }
    }

    // A selection that matches nothing is an error in every mode — a silent
    // empty run (or empty listing) hides a typo'd filter.
    if specs.is_empty() {
        eprintln!("{}", no_match_message(&options.filters, &options.excludes));
        std::process::exit(1);
    }

    if options.list {
        for spec in &specs {
            let model = spec
                .model()
                .map(|m| m.to_string())
                .unwrap_or_else(|_| "?".to_string());
            println!("{:<60} {:<8} trials={}", spec.id(), model, spec.trials);
        }
        eprintln!("{} scenario(s)", specs.len());
        return;
    }

    // With --workers, spawn this same binary in --worker mode and shard each
    // scenario's seed range across the pool; the merged record stream feeds
    // the very same sinks, so every output artifact is byte-identical to a
    // single-process run.
    let mut session: Option<Session> = match options.workers {
        Some(workers) => {
            let exe = std::env::current_exe().unwrap_or_else(|err| {
                eprintln!("cannot locate own executable for --workers: {err}");
                std::process::exit(1);
            });
            let mut orchestrator = Orchestrator::new(
                options.scale,
                vec![exe.to_string_lossy().into_owned(), "--worker".to_string()],
            )
            .workers(workers);
            if let Some(path) = &options.checkpoint {
                orchestrator = orchestrator.checkpoint(path);
            }
            if let Some(secs) = options.recv_timeout {
                orchestrator = orchestrator.recv_timeout(std::time::Duration::from_secs(secs));
            }
            if let Some(budget) = options.respawn_budget {
                orchestrator = orchestrator.respawn_budget(budget);
            }
            if let Some(spec) = &options.chaos {
                match FaultPlan::parse(spec) {
                    Ok(plan) => orchestrator = orchestrator.worker_faults(plan),
                    Err(err) => {
                        eprintln!("--chaos: {err}");
                        std::process::exit(2);
                    }
                }
            }
            match orchestrator.start() {
                Ok(session) => Some(session),
                Err(err) => {
                    eprintln!("could not start {workers} worker(s): {err}");
                    std::process::exit(1);
                }
            }
        }
        None => {
            for (set, flag) in [
                (options.recv_timeout.is_some(), "--recv-timeout"),
                (options.respawn_budget.is_some(), "--respawn-budget"),
                (options.chaos.is_some(), "--chaos"),
            ] {
                if set {
                    eprintln!("{flag} requires --workers");
                    std::process::exit(2);
                }
            }
            None
        }
    };

    let mut table = TableSink::new(
        "Scenario matrix results",
        format!(
            "{} scenario(s) at {:?} scale; every combination is data-driven — see \
             EXPERIMENTS.md for how to add one.",
            specs.len(),
            options.scale
        ),
    );
    let mut csv = CsvSink::new();
    let mut jsonl = JsonlSink::new();
    let mut json = JsonReportSink::with_scale(format!("{:?}", options.scale).to_lowercase());

    let mut failures = 0usize;
    for spec in &specs {
        // Every sink sees every scenario's record stream in one pass.
        let mut sinks: Vec<&mut dyn ReportSink> = Vec::new();
        sinks.push(&mut table);
        if options.csv.is_some() {
            sinks.push(&mut csv);
        }
        if options.jsonl.is_some() {
            sinks.push(&mut jsonl);
        }
        if options.json.is_some() {
            sinks.push(&mut json);
        }
        let records = match (session.as_mut(), &options.checkpoint) {
            (Some(session), _) => session.run_spec_records(spec),
            (None, Some(path)) => spec.run_checkpointed(&Campaign::default(), path.as_ref()),
            (None, None) => {
                if let Err(err) = spec.run_with_sinks(&Campaign::default(), &mut sinks) {
                    failures += 1;
                    table.push_failure(spec.id(), format!("infeasible: {err}"));
                }
                continue;
            }
        };
        match records {
            Ok(records) => {
                let meta = spec.meta().expect("feasible spec has metadata");
                stream_records(&meta, &records, &mut sinks);
            }
            Err(OrchestrateError::Scenario(err)) => {
                failures += 1;
                table.push_failure(spec.id(), format!("infeasible: {err}"));
            }
            Err(err) => {
                eprintln!("run of '{}' failed: {err}", spec.id());
                std::process::exit(1);
            }
        }
    }
    if let Some(session) = session.take() {
        if let Err(err) = session.shutdown() {
            eprintln!("worker shutdown failed: {err}");
            std::process::exit(1);
        }
    }
    println!("{}", table.into_table());

    if let Some(path) = &options.json {
        write_file(
            path,
            &format!("{}\n", json.into_json()),
            "scenario JSON records",
        );
    }
    if let Some(path) = &options.csv {
        write_file(path, csv.as_str(), "scenario CSV summary");
    }
    if let Some(path) = &options.jsonl {
        write_file(path, jsonl.as_str(), "per-trial JSONL records");
    }

    if failures > 0 {
        eprintln!("{failures} scenario(s) were infeasible");
        std::process::exit(1);
    }
}
