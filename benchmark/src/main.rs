//! The repo's benchmark: five campaign workloads measured end to end, and a
//! separate traced run that yields per-layer numbers from outside the
//! program. See `benchmark/README.md`.
//!
//! ```text
//! agreement-benchmark run     [--workload W] [--seed S] [--seconds T] [--trace 0|1]
//!                             [--repeat N] [--out FILE]
//! agreement-benchmark trace   ...            same as `run --trace 1`
//! agreement-benchmark compare A.json B.json
//! agreement-benchmark pin                    print expected/pins.json
//! agreement-benchmark manifest               print BENCHMARK.json
//! ```
//!
//! With `--workload`, `run` measures that workload in this process and prints
//! one JSON object as the last line of standard output:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! — every end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. Without it, `run` starts one such process per workload (and
//! `--repeat` of them per workload), prints their results and writes them to
//! a result file `compare` reads.

mod catalog;
mod compare;
mod layers;
mod measure;
mod pins;
mod procfs;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use agreement_analysis::JsonValue;

use catalog::{
    find_workload, MetricInfo, DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS,
};
use measure::{fastest_rounds, supervise, Plan, RunLog, STEP_LIMIT};
use stats::{median, supported_tail};
use workloads::{out_dir, Bench, ScratchDir};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Measured rounds a run makes even when `--seconds` is already spent.
const MIN_ROUNDS: usize = 5;

#[derive(Debug)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: u64,
    out: Option<String>,
}

fn parse_run_args(args: &[String], trace: bool) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS as f64,
        trace,
        repeat: 1,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |text: &str| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: '{text}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.to_string()),
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => {
                let text = value()?;
                parsed.seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: '{text}' is not a duration"))?;
            }
            "--trace" => parsed.trace = number(value()?)? != 0,
            "--repeat" => parsed.repeat = number(value()?)?.max(1),
            "--out" => parsed.out = Some(value()?.to_string()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(parsed)
}

/// Cores available to this process; stated with every result, since every
/// orchestrated number depends on it.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The result object of one run: exactly the keys the contract names.
fn result_json(
    log: &RunLog,
    table: &[MetricInfo],
    values: &dyn Fn(&str) -> Option<f64>,
) -> JsonValue {
    let mut metrics = JsonValue::object();
    let mut complete = true;
    for metric in table {
        let value = values(metric.name).filter(|v| v.is_finite());
        complete &= value.is_some();
        let mut entry = JsonValue::object();
        entry
            .push("value", value.unwrap_or(0.0))
            .push("unit", metric.unit);
        metrics.push(metric.name, entry);
    }
    let mut result = JsonValue::object();
    result
        .push("correct", log.failed == 0 && !log.stalled && complete)
        .push("attempted", log.attempted.max(1))
        .push("failed", log.failed)
        .push("metrics", metrics);
    result
}

/// Measures one workload in this process and prints its context and result.
fn run_single(args: &RunArgs, name: &'static str, process_start: Instant) -> Result<(), String> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let plan = Plan {
        seconds,
        setups: SETUPS,
        min_rounds: MIN_ROUNDS,
        process_start,
    };
    let log = supervise(STEP_LIMIT, move |reporter| {
        if trace {
            layers::traced_run(name, seed, seconds, reporter)
        } else {
            measure::measure(|| Bench::set_up(name, seed), &plan, reporter)
        }
    })?;
    if log.stalled {
        ScratchDir::remove_abandoned();
    }

    let round_ms: Vec<f64> = log.round_s.iter().map(|s| s * 1e3).collect();
    let (tail_pct, tail_ms) = supported_tail(&round_ms);
    let mut context = JsonValue::object();
    context
        .push("workload", name)
        .push("seed", seed)
        .push("seconds", seconds)
        .push("trace", trace)
        .push("nproc", nproc())
        .push("rounds", log.round_s.len())
        .push("round_ms_p50", median(&round_ms))
        .push("round_ms_tail", tail_ms)
        .push("round_tail_pct", u64::from(tail_pct))
        .push("setups", log.setup_s.len());
    println!("{context}");
    let result = if trace {
        result_json(&log, &PER_LAYER, &|name| log.layers.get(name).copied())
    } else {
        let fastest = fastest_rounds(&log).map(|(wall_s, cpu_s, rounds)| {
            (wall_s, cpu_s, (rounds as u64 * log.trials_per_round) as f64)
        });
        result_json(&log, &END_TO_END, &|name| match name {
            "trials_per_s" => fastest.map(|(wall_s, _, trials)| trials / wall_s),
            "cpu_ms_per_ktrial" => fastest.map(|(_, cpu_s, trials)| cpu_s * 1e3 / (trials / 1e3)),
            "peak_rss_mb" => (log.peak_rss_mb > 0.0).then_some(log.peak_rss_mb),
            "setup_s" => (!log.setup_s.is_empty()).then(|| median(&log.setup_s)),
            _ => None,
        })
    };
    println!("{result}");
    Ok(())
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

/// Runs every workload, each in a process of its own, `repeat` times over
/// consecutive seeds; prints each result and writes the result file.
fn run_all(args: &RunArgs) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|err| format!("current_exe: {err}"))?;
    let mut runs = Vec::new();
    for repeat in 0..args.repeat {
        for workload in &WORKLOADS {
            let seed = args.seed + repeat;
            let output = Command::new(&exe)
                .args(["run", "--workload", workload.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|err| format!("starting the {} run: {err}", workload.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines = stdout.lines().rev();
            let result = lines.next().and_then(|line| JsonValue::parse(line).ok());
            let context = lines.next().and_then(|line| JsonValue::parse(line).ok());
            let (Some(result), Some(context), true) = (result, context, output.status.success())
            else {
                return Err(format!(
                    "the {} run printed no result ({})",
                    workload.name, output.status
                ));
            };
            println!("{} {result}", workload.name);
            let mut run = JsonValue::object();
            run.push("context", context).push("result", result);
            runs.push(run);
        }
    }
    let mut doc = JsonValue::object();
    doc.push("commit", command_output("git", &["rev-parse", "HEAD"]))
        .push("rustc", command_output("rustc", &["--version"]))
        .push("nproc", nproc())
        .push("runs", JsonValue::Array(runs));
    let path = args.out.clone().map_or_else(
        || out_dir().join(if args.trace { "trace.json" } else { "run.json" }),
        std::path::PathBuf::from,
    );
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|err| format!("{}: {err}", parent.display()))?;
    }
    std::fs::write(&path, doc.to_string()).map_err(|err| format!("{}: {err}", path.display()))?;
    eprintln!("benchmark: results written to {}", path.display());
    Ok(())
}

/// `BENCHMARK.json`, generated from the catalog so the two cannot disagree.
fn manifest() -> String {
    let quoted = |text: &str| JsonValue::from(text).to_string();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    let metrics = |table: &[MetricInfo]| -> String {
        let rows: Vec<String> = table
            .iter()
            .map(|m| {
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better.label())
                )
            })
            .collect();
        rows.join(",\n")
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {DEFAULT_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}",
        workloads.join(",\n"),
        metrics(&END_TO_END),
        metrics(&PER_LAYER),
    )
}

/// `Ok(false)` is `compare` finding a regression. A run whose outputs were
/// wrong says so in its result line (`correct`, `failed`) and still exits 0;
/// only a run that could not produce a result at all is an error.
fn dispatch(args: &[String], process_start: Instant) -> Result<bool, String> {
    // The hidden worker mode: `Orchestrator` appends `--connect <addr>` to
    // the command it was given, which is this binary plus `--worker`.
    if args.first().map(String::as_str) == Some("--worker") {
        let addr = match args.get(1).map(String::as_str) {
            Some("--connect") => args.get(2).ok_or("--connect needs an address")?,
            _ => return Err("--worker needs --connect <addr>".to_string()),
        };
        return agreement_core::orchestrate::worker::serve(addr)
            .map(|()| true)
            .map_err(|err| format!("worker: {err}"));
    }
    match args.first().map(String::as_str) {
        Some(command @ ("run" | "trace")) => {
            let run = parse_run_args(&args[1..], command == "trace")?;
            match &run.workload {
                Some(name) => {
                    let workload = find_workload(name).ok_or_else(|| {
                        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload '{name}' (known: {})", known.join(", "))
                    })?;
                    run_single(&run, workload.name, process_start)?;
                }
                None => run_all(&run)?,
            }
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [before, after] => compare::compare_files(before, after),
            _ => Err("compare needs two result files".to_string()),
        },
        Some("pin") => pins::document().map(|doc| {
            println!("{doc}");
            true
        }),
        Some("manifest") => {
            println!("{}", manifest());
            Ok(true)
        }
        _ => Err(
            "usage: agreement-benchmark run|trace [--workload W] [--seed S] [--seconds T] \
                  [--trace 0|1] [--repeat N] [--out FILE] | compare A.json B.json"
                .to_string(),
        ),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_flags_parse_as_the_driver_passes_them() {
        let args: Vec<String> = "--workload search_fuzz --seed 7 --seconds 15 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let run = parse_run_args(&args, false).unwrap();
        assert_eq!(run.workload.as_deref(), Some("search_fuzz"));
        assert_eq!((run.seed, run.seconds, run.trace), (7, 15.0, true));
        assert!(parse_run_args(&["--seed".to_string()], false).is_err());
        assert!(parse_run_args(&["--bogus".to_string()], false).is_err());
    }

    /// The printed names are the catalog's names, which a catalog test holds
    /// equal to `BENCHMARK.json`; the manifest subcommand reproduces the file.
    #[test]
    fn results_print_exactly_the_declared_metrics() {
        let log = RunLog {
            attempted: 10,
            ..RunLog::default()
        };
        for table in [&END_TO_END[..], &PER_LAYER[..]] {
            let result = result_json(&log, table, &|_| Some(1.5));
            let JsonValue::Object(pairs) = &result else {
                panic!("not an object")
            };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let JsonValue::Object(metrics) = result.get("metrics").unwrap() else {
                panic!()
            };
            let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let declared: Vec<&str> = table.iter().map(|m| m.name).collect();
            assert_eq!(printed, declared);
            assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
        }
        // A metric with no value makes the run incorrect rather than silent.
        let partial = result_json(&log, &END_TO_END, &|name| {
            (name != "setup_s").then_some(2.0)
        });
        assert_eq!(partial.get("correct"), Some(&JsonValue::Bool(false)));
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        assert_eq!(
            std::fs::read_to_string(path).unwrap().trim_end(),
            manifest()
        );
    }
}
