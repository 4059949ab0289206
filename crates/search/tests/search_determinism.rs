//! Determinism and replay-fidelity contracts of the schedule-space search:
//!
//! - the same seed + budget produce a byte-identical corpus and best entry
//!   at 1, 2 and 4 campaign threads;
//! - the shrinker returns a valid genome (same model tag, no longer tape)
//!   whose replay still satisfies the failure predicate;
//! - a trial of the search's campaign workspace and its replay on a fresh
//!   core agree on every record field for the same genome and seed;
//! - the committed example artifact replays exactly and still beats every
//!   hand-coded registry adversary on its harness.

use agreement_adversary::build_from_genome;
use agreement_core::{Campaign, ScenarioSpec, TrialRecord};
use agreement_search::{
    compare_with_registry, find_spec, replay, replay_file, run_search, shrink, Predicate,
    SearchConfig,
};

const SCENARIO: &str = "e1/reset-tolerant/split-vote/split/n7t1";

fn spec() -> ScenarioSpec {
    find_spec(SCENARIO).expect("registry scenario exists")
}

fn small_config() -> SearchConfig {
    SearchConfig::default()
        .budget_trials(192)
        .batch(32)
        .seed(11)
}

#[test]
fn corpus_is_byte_identical_across_thread_counts() {
    let spec = spec();
    let config = small_config();
    let mut outputs = Vec::new();
    for threads in [1usize, 2, 4] {
        let campaign = Campaign::with_threads(threads);
        let outcome = run_search(&spec, &campaign, &config).expect("search runs");
        assert_eq!(outcome.trials_run, 192);
        outputs.push(outcome.corpus.to_json().to_string());
    }
    assert_eq!(outputs[0], outputs[1], "1 vs 2 threads diverged");
    assert_eq!(outputs[0], outputs[2], "1 vs 4 threads diverged");
}

#[test]
fn shrinker_preserves_predicate_and_model_tag() {
    let spec = spec();
    let campaign = Campaign::serial();
    let outcome = run_search(&spec, &campaign, &small_config()).expect("search runs");
    let best = outcome.best().expect("non-empty corpus").clone();
    let predicate = Predicate::classify(&best.record, outcome.time_cap);

    let report = shrink(
        &spec,
        &best.genome,
        best.record.seed,
        predicate,
        outcome.time_cap,
        400,
    )
    .expect("shrink runs");

    assert_eq!(report.genome.model(), best.genome.model());
    assert!(report.genome.tape().len() <= best.genome.tape().len());
    assert!(
        predicate.holds(&report.record, outcome.time_cap),
        "shrunk genome's record no longer witnesses {predicate}"
    );

    // The shrunk genome must be a valid, replayable schedule: rebuild the
    // adversary from scratch and re-run at the pinned seed.
    let cfg = spec.config().expect("config resolves");
    let mut adversary = build_from_genome(&report.genome, &cfg).expect("genome rebuilds");
    let outcome2 = spec
        .run_single_with(best.record.seed, &mut adversary)
        .expect("replay runs");
    let inputs = spec.inputs.materialize(spec.n);
    let replayed = TrialRecord::from_outcome(0, best.record.seed, &outcome2, &inputs);
    assert_eq!(replayed, report.record, "shrink probe is not reproducible");
}

#[test]
fn campaign_workspace_trial_equals_fresh_core_replay() {
    let spec = spec();
    let campaign = Campaign::serial();
    let outcome = run_search(&spec, &campaign, &small_config()).expect("search runs");
    let cfg = spec.config().expect("config resolves");
    let inputs = spec.inputs.materialize(spec.n);

    // Every corpus survivor, not just the winner: re-evaluate its genome in
    // a campaign workspace and on the fresh-core replay path at the same
    // seed and demand field-for-field equality.
    for entry in outcome.corpus.iter().take(16) {
        let seed = entry.record.seed;
        let pooled = spec
            .batch_runner(&campaign)
            .expect("spec resolves")
            .run(1, seed, |_| {
                build_from_genome(&entry.genome, &cfg).expect("genome rebuilds")
            });
        let mut adversary = build_from_genome(&entry.genome, &cfg).expect("genome rebuilds");
        let replayed = spec
            .run_single_with(seed, &mut adversary)
            .expect("replay runs");
        let replayed = TrialRecord::from_outcome(0, seed, &replayed, &inputs);
        assert_eq!(
            pooled[0], replayed,
            "the campaign workspace and a fresh core disagree for seed {seed}"
        );
    }
}

#[test]
fn committed_example_artifact_replays_and_beats_every_baseline() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/search-slow-reset-tolerant-n7t1.schedule.json"
    );
    let (artifact, spec, report) = replay_file(path).expect("artifact replays");
    assert!(report.matches, "stored record drifted from replay");
    assert!(report.predicate_holds, "stored predicate no longer holds");

    // Acceptance pin: the discovered schedule forces strictly more
    // rounds-to-decision than every hand-coded adversary of the same model
    // on the same protocol/n/t harness.
    let comparison =
        compare_with_registry(&spec, &artifact, &Campaign::serial()).expect("baselines run");
    assert!(!comparison.rows.is_empty(), "no baselines found");
    assert!(
        comparison.beats_all(),
        "artifact (decision time {}) no longer beats all baselines: {:?}",
        comparison.artifact_decision_time,
        comparison.rows
    );
}

#[test]
fn replay_rejects_model_mismatch_loudly() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/search-slow-reset-tolerant-n7t1.schedule.json"
    );
    let text = std::fs::read_to_string(path).expect("artifact readable");
    let mut artifact = agreement_search::ScheduleArtifact::parse(&text).expect("artifact parses");
    // Retag the genome for a different execution model: replay must refuse
    // with a loud error, never silently fall back to a benign schedule.
    artifact.model = "async".to_string();
    artifact.genome = agreement_adversary::Genome::new("async", artifact.genome.tape().to_vec());
    let spec = find_spec(&artifact.scenario).expect("scenario resolves");
    let err = replay(&spec, &artifact).expect_err("model mismatch must fail");
    assert!(err.contains("model"), "unhelpful error: {err}");
}
