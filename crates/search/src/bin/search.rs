//! Coverage-guided schedule-space search from the command line.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p agreement-search --bin search -- [FLAGS]
//!
//!   --scenario <ID>       quick-scale registry scenario to search (required
//!                         unless --list or --replay)
//!   --budget-trials <N>   trial budget (default 1000)
//!   --seed <S>            search master seed (default 7)
//!   --batch <N>           trials per generation (default 64)
//!   --threads <N>         campaign threads (default 1; any value produces
//!                         byte-identical output)
//!   --shrink-attempts <N> replay probes the shrinker may spend (default 800)
//!   --out <DIR>           write corpus.json + artifact.json under DIR
//!   --baselines           after the search, run every same-model registry
//!                         adversary on the same harness and print the
//!                         comparison table
//!   --list                print every searchable scenario id and exit
//!   --replay <FILE>       replay a stored schedule artifact and verify its
//!                         recorded metrics field for field (exit 1 on any
//!                         mismatch)
//! ```
//!
//! Examples:
//!
//! ```text
//! search --scenario ben-or/search-async/split/n8t2 --budget-trials 2000 \
//!        --seed 7 --out tmp/search
//! search --replay examples/slow-ben-or.schedule.json
//! ```

use agreement_adversary::Genome;
use agreement_core::cli::{parsed_value, required_value};
use agreement_core::{Campaign, ScenarioSpec};
use agreement_search::{
    compare_with_registry, find_spec, replay, replay_file, shrink, Predicate, ScheduleArtifact,
    SearchConfig,
};
use agreement_sim::WINDOWED;

struct Options {
    scenario: Option<String>,
    budget_trials: u64,
    seed: u64,
    batch: u64,
    threads: usize,
    shrink_attempts: u64,
    out: Option<String>,
    baselines: bool,
    list: bool,
    replay: Option<String>,
}

fn parse_options() -> Options {
    let mut options = Options {
        scenario: None,
        budget_trials: 1_000,
        seed: 7,
        batch: 64,
        threads: 1,
        shrink_attempts: 800,
        out: None,
        baselines: false,
        list: false,
        replay: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => options.scenario = Some(required_value(&mut args, "--scenario")),
            "--budget-trials" => options.budget_trials = parsed_value(&mut args, "--budget-trials"),
            "--seed" => options.seed = parsed_value(&mut args, "--seed"),
            "--batch" => options.batch = parsed_value(&mut args, "--batch"),
            "--threads" => options.threads = parsed_value(&mut args, "--threads"),
            "--shrink-attempts" => {
                options.shrink_attempts = parsed_value(&mut args, "--shrink-attempts")
            }
            "--out" => options.out = Some(required_value(&mut args, "--out")),
            "--baselines" => options.baselines = true,
            "--list" => options.list = true,
            "--replay" => options.replay = Some(required_value(&mut args, "--replay")),
            "--help" | "-h" => {
                println!(
                    "usage: search --scenario ID [--budget-trials N] [--seed S] [--batch N]\n\
                     \x20             [--threads N] [--shrink-attempts N] [--out DIR] [--baselines]\n\
                     \x20      search --list\n\
                     \x20      search --replay FILE\n\
                     Coverage-guided schedule-space search over the scenario registry."
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

/// Scenario ids whose registered adversary is a `search-*` decoder — the
/// natural entry points (any id works; the search ignores the registered
/// adversary name but keeps the harness).
fn list_scenarios() {
    for spec in agreement_core::scenario_registry(agreement_core::experiments::Scale::Quick) {
        println!("{}", spec.id());
    }
}

/// Where `genome`'s tape ends on `spec`'s system, for printing after its
/// length: the windowed decoder reads whole windows off the tape and
/// delivers in full from the first one the tape is too short for, so a
/// schedule's adversarial part is the windows before that one. (The other
/// models' decoders consult the buffer as they go; where their tapes end is
/// not a property of the tape alone.)
fn tape_extent(genome: &Genome, spec: &ScenarioSpec) -> String {
    if genome.model() == WINDOWED.id() {
        let windows = genome.windows_encoded(spec.n, spec.t);
        format!(", encodes windows 0..{windows} (full delivery from window {windows} on)")
    } else {
        String::new()
    }
}

fn run_replay(path: &str) -> ! {
    let (artifact, spec, report) = replay_file(path).unwrap_or_else(|err| {
        eprintln!("replay failed: {err}");
        std::process::exit(1);
    });
    println!("scenario   {}", spec.id());
    println!("model      {}", artifact.model);
    println!("predicate  {}", artifact.predicate);
    println!("seed       {}", artifact.seed);
    println!(
        "tape       {} bytes{}",
        artifact.genome.tape().len(),
        tape_extent(&artifact.genome, &spec)
    );
    println!(
        "replayed   rounds={} duration={} all_decided_at={:?}",
        report.replayed.metrics.rounds, report.replayed.duration, report.replayed.all_decided_at
    );
    if !report.matches {
        eprintln!("MISMATCH: replayed record differs from the stored record");
        eprintln!("  stored:   {}", artifact.record.to_json());
        eprintln!("  replayed: {}", report.replayed.to_json());
        std::process::exit(1);
    }
    if !report.predicate_holds {
        eprintln!(
            "MISMATCH: replay no longer witnesses predicate '{}'",
            artifact.predicate
        );
        std::process::exit(1);
    }
    println!(
        "replay OK: record matches, predicate '{}' holds",
        artifact.predicate
    );
    std::process::exit(0);
}

fn main() {
    let options = parse_options();
    if options.list {
        list_scenarios();
        return;
    }
    if let Some(path) = &options.replay {
        run_replay(path);
    }
    let scenario = options.scenario.unwrap_or_else(|| {
        eprintln!("--scenario is required (try --list)");
        std::process::exit(2);
    });
    let spec = find_spec(&scenario).unwrap_or_else(|| {
        eprintln!("unknown scenario '{scenario}' (try --list)");
        std::process::exit(2);
    });

    let campaign = Campaign::with_threads(options.threads.max(1));
    let config = SearchConfig::default()
        .budget_trials(options.budget_trials)
        .seed(options.seed)
        .batch(options.batch);
    let outcome = agreement_search::run_search(&spec, &campaign, &config).unwrap_or_else(|err| {
        eprintln!("search failed: {err}");
        std::process::exit(1);
    });
    eprintln!(
        "searched {} trials over {} generations; corpus holds {} signatures",
        outcome.trials_run,
        outcome.batches_run,
        outcome.corpus.len()
    );
    let best = outcome.best().unwrap_or_else(|| {
        eprintln!("search produced an empty corpus (zero budget?)");
        std::process::exit(1);
    });
    let predicate = Predicate::classify(&best.record, outcome.time_cap);
    eprintln!(
        "best: fitness={} predicate={} seed={} tape={}B{}",
        best.fitness,
        predicate,
        best.record.seed,
        best.genome.tape().len(),
        tape_extent(&best.genome, &spec)
    );

    let report = shrink(
        &spec,
        &best.genome,
        best.record.seed,
        predicate,
        outcome.time_cap,
        options.shrink_attempts,
    )
    .unwrap_or_else(|err| {
        eprintln!("shrink failed: {err}");
        std::process::exit(1);
    });
    eprintln!(
        "shrunk {}B -> {}B{} in {} probes (predicate '{}')",
        report.original_len,
        report.genome.tape().len(),
        tape_extent(&report.genome, &spec),
        report.attempts,
        report.predicate
    );

    let artifact = ScheduleArtifact {
        scenario: spec.id(),
        model: report.genome.model().to_string(),
        predicate: report.predicate,
        seed: best.record.seed,
        genome: report.genome.clone(),
        record: report.record,
    };

    // Verify the artifact replays before anything is written: a mismatch
    // here means the campaign workspace and a fresh core drifted apart,
    // which must fail loudly.
    let verification = replay(&spec, &artifact).unwrap_or_else(|err| {
        eprintln!("self-replay failed: {err}");
        std::process::exit(1);
    });
    if !verification.matches || !verification.predicate_holds {
        eprintln!("self-replay mismatch: the artifact does not reproduce its own record");
        std::process::exit(1);
    }

    if let Some(dir) = &options.out {
        std::fs::create_dir_all(dir).unwrap_or_else(|err| {
            eprintln!("could not create {dir}: {err}");
            std::process::exit(1);
        });
        let corpus_path = format!("{dir}/corpus.json");
        let artifact_path = format!("{dir}/artifact.json");
        let mut corpus_text = outcome.corpus.to_json().to_string();
        corpus_text.push('\n');
        let mut artifact_text = artifact.to_json().to_string();
        artifact_text.push('\n');
        std::fs::write(&corpus_path, corpus_text).unwrap_or_else(|err| {
            eprintln!("could not write {corpus_path}: {err}");
            std::process::exit(1);
        });
        std::fs::write(&artifact_path, artifact_text).unwrap_or_else(|err| {
            eprintln!("could not write {artifact_path}: {err}");
            std::process::exit(1);
        });
        eprintln!("wrote {corpus_path} and {artifact_path}");
    }

    if options.baselines {
        let comparison = compare_with_registry(&spec, &artifact, &campaign).unwrap_or_else(|err| {
            eprintln!("baseline comparison failed: {err}");
            std::process::exit(1);
        });
        println!(
            "artifact: decision_time={} forces_failure={} (cap {})",
            comparison.artifact_decision_time,
            comparison.artifact_forces_failure,
            comparison.time_cap
        );
        for row in &comparison.rows {
            println!(
                "baseline {:<28} max_decision_time={:<8} all_terminated={}",
                row.adversary, row.max_decision_time, row.all_terminated
            );
        }
        println!(
            "discovered schedule beats all {} baselines: {}",
            comparison.rows.len(),
            comparison.beats_all()
        );
    }
}
