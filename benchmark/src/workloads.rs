//! The five workloads: set-up (spec resolution, reference outputs, worker
//! spawn), the fixed-work round each one repeats, and the correctness gate
//! every round passes through.
//!
//! The program under test only ever sees generated [`ScenarioSpec`]s: `--seed`
//! becomes each spec's `base_seed` (and the search seed), nothing else.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use agreement_adversary::AdversaryBuildCtx;
use agreement_analysis::{fnv1a_64, Fnv64};
use agreement_core::experiments::Scale;
use agreement_core::orchestrate::{
    append_checkpoint, CheckpointEntry, OrchestrationEvent, Orchestrator, Session,
};
use agreement_core::{
    scenario_registry, stream_records, Campaign, CsvSink, JsonReportSink, JsonlSink, ReportSink,
    ScenarioMeta, ScenarioSpec, TrialRecord,
};
use agreement_search::{run_search, SearchConfig, SearchOutcome};
use agreement_sim::{BuiltAdversary, TrialWorkspace};

use crate::pins;
use crate::trace::{take_probe, timed_adversary, ProbeCounts, TimedBuilder, Tracer};

/// Worker processes an orchestrated workload runs on — "at most `nproc`
/// connections" on the 2-core box the benchmark was sized on.
pub const WORKERS: usize = 2;

/// Ranges of the resume workload the prepared checkpoint already holds, out
/// of the `WORKERS * 4` the default chunking cuts 0..trials into.
const RESUME_RANGES_DONE: u64 = 6;

/// What one round did: trials attempted and trials that failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundOutcome {
    pub attempted: u64,
    pub failed: u64,
}

/// What the measuring loop needs from a workload. The real workloads are all
/// [`Bench`]; the trait exists so the loop's handling of failed and over-long
/// rounds can be tested against a stand-in.
pub trait Rounds {
    /// Trials one round attempts (fixed, so counts repeat exactly).
    fn trials_per_round(&self) -> u64;
    /// OS pids of the worker processes this workload started.
    fn worker_pids(&self) -> Vec<u32>;
    /// Runs one verified round.
    fn round(&mut self) -> RoundOutcome;
}

/// Digests of everything a round produces, compared against the reference.
/// An output a workload does not produce is `None` on both sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Outputs {
    /// FNV-1a over every field of every record, in trial order.
    pub stream: u64,
    pub json_report: Option<u64>,
    pub csv: Option<u64>,
    pub jsonl: Option<u64>,
}

/// A [`ReportSink`] folding the record stream into a digest and counting
/// records that break agreement or validity — which every protocol here
/// guarantees under its adversary, so one such record is a failed trial.
#[derive(Debug, Default)]
pub struct DigestSink {
    hash: Fnv64,
    pub unsafe_records: u64,
}

impl DigestSink {
    pub fn fold(&mut self, r: &TrialRecord) {
        let opt = |v: Option<u64>| v.map_or(0, |x| x.wrapping_add(1));
        let m = &r.metrics;
        for word in [
            r.trial,
            r.seed,
            u64::from(r.agreement)
                | u64::from(r.validity) << 1
                | u64::from(r.terminated) << 2
                | u64::from(r.halted) << 3,
            r.violations,
            opt(r.decided.map(|bit| bit.as_index() as u64)),
            opt(r.first_decision_at),
            opt(r.all_decided_at),
            r.duration,
            r.longest_chain,
            m.messages_sent,
            m.messages_delivered,
            m.messages_dropped,
            m.rounds,
            m.windows,
            m.steps,
            m.resets_consumed,
            m.crashes,
            m.coin_flips,
            m.max_chain,
        ] {
            self.hash.write_u64(word);
        }
        self.unsafe_records += u64::from(!r.agreement || !r.validity);
    }

    pub fn of(records: &[TrialRecord]) -> DigestSink {
        let mut sink = DigestSink::default();
        records.iter().for_each(|r| sink.fold(r));
        sink
    }

    pub fn digest(&self) -> u64 {
        self.hash.finish()
    }
}

impl ReportSink for DigestSink {
    fn record_trial(&mut self, _meta: &ScenarioMeta, record: &TrialRecord) {
        self.fold(record);
    }
}

impl Outputs {
    /// Digests what a round's sinks hold; a sink the round did not use is
    /// `None`.
    fn of(
        digest: &DigestSink,
        json: Option<JsonReportSink>,
        csv: Option<&CsvSink>,
        jsonl: Option<&JsonlSink>,
    ) -> Outputs {
        Outputs {
            stream: digest.digest(),
            json_report: json.map(|sink| fnv1a_64(sink.into_json().to_string().as_bytes())),
            csv: csv.map(|sink| fnv1a_64(sink.as_str().as_bytes())),
            jsonl: jsonl.map(|sink| fnv1a_64(sink.as_str().as_bytes())),
        }
    }
}

/// The single-process reference a round is judged against.
#[derive(Debug)]
pub struct Reference {
    pub records: Vec<TrialRecord>,
    pub outputs: Outputs,
}

impl Reference {
    fn compute(spec: &ScenarioSpec, meta: &ScenarioMeta) -> Result<Reference, String> {
        let records = spec
            .run_range_records(&Campaign::serial(), 0, spec.trials)
            .map_err(|err| err.to_string())?;
        let (mut json, mut csv, mut jsonl, mut digest) = (
            JsonReportSink::new(),
            CsvSink::new(),
            JsonlSink::new(),
            DigestSink::default(),
        );
        stream_records(
            meta,
            &records,
            &mut [&mut json, &mut csv, &mut jsonl, &mut digest],
        );
        Ok(Reference {
            records,
            outputs: Outputs::of(&digest, Some(json), Some(&csv), Some(&jsonl)),
        })
    }

    /// Failed trials of a round that produced `got`: all of them when any
    /// output differs from the reference, otherwise the unsafe ones.
    fn judge(&self, attempted: u64, got: Outputs, unsafe_records: u64) -> RoundOutcome {
        let same = |ours: Option<u64>, theirs: Option<u64>| theirs.is_none() || ours == theirs;
        let matches = got.stream == self.outputs.stream
            && same(self.outputs.json_report, got.json_report)
            && same(self.outputs.csv, got.csv)
            && same(self.outputs.jsonl, got.jsonl);
        RoundOutcome {
            attempted,
            failed: if matches { unsafe_records } else { attempted },
        }
    }
}

/// A directory under `benchmark/out/` that is removed when dropped — also
/// during a panic's unwinding.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// What every scratch directory of this process is named after.
    fn prefix() -> String {
        format!("tmp-{}-", std::process::id())
    }

    /// Removes the scratch directories of a job that was abandoned mid-step
    /// and so will never drop them.
    pub fn remove_abandoned() {
        let entries = fs::read_dir(out_dir()).into_iter().flatten().flatten();
        for entry in entries {
            if entry
                .file_name()
                .to_string_lossy()
                .starts_with(&Self::prefix())
            {
                let _ = fs::remove_dir_all(entry.path());
            }
        }
    }

    fn create() -> Result<ScratchDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("{}{unique}", Self::prefix()));
        fs::create_dir_all(&path).map_err(|err| format!("{}: {err}", path.display()))?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// `benchmark/out/`: where traces, result files and scratch directories go.
/// `cargo run` exports the manifest directory; a binary started by hand falls
/// back to where it was built.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest.join("out")
}

/// Event counts and range service times of orchestrated rounds.
#[derive(Debug, Default, Clone)]
pub struct OrchestrationLog {
    pub rounds: u64,
    pub assigned: u64,
    pub completed: u64,
    pub restored: u64,
    pub workers_lost: u64,
    pub speculated: u64,
    pub respawns: u64,
    pub service_ms: Vec<f64>,
    open: Vec<(u64, u64, Instant)>,
}

impl OrchestrationLog {
    fn observe(&mut self, event: OrchestrationEvent) {
        match event {
            OrchestrationEvent::RangeAssigned { lo, hi, .. } => {
                self.assigned += 1;
                self.open.push((lo, hi, Instant::now()));
            }
            OrchestrationEvent::RangeCompleted { lo, hi, .. } => {
                self.completed += 1;
                if let Some(at) = self.open.iter().position(|&(l, h, _)| (l, h) == (lo, hi)) {
                    let (_, _, since) = self.open.swap_remove(at);
                    self.service_ms.push(since.elapsed().as_secs_f64() * 1e3);
                }
            }
            OrchestrationEvent::RangeRestored { .. } => self.restored += 1,
            OrchestrationEvent::WorkerLost { .. } => self.workers_lost += 1,
            OrchestrationEvent::RangeSpeculated { .. } => self.speculated += 1,
            OrchestrationEvent::WorkerRespawned { .. } => self.respawns += 1,
        }
    }
}

/// How a workload turns its spec into a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ScenarioSpec::run_with_sinks` on the serial campaign.
    Campaign,
    /// `Session::run_spec_records` from scratch, merged records into sinks.
    Stream,
    /// `Session::run_spec_records` resuming from a prepared checkpoint.
    Resume,
    /// `agreement_search::run_search`.
    Search,
}

/// One set-up workload, ready to run rounds.
pub struct Bench {
    pub name: &'static str,
    pub kind: Kind,
    pub spec: ScenarioSpec,
    pub meta: ScenarioMeta,
    pub reference: Reference,
    /// Why the pinned probe disagreed with `expected/pins.json`, if it did:
    /// the program no longer computes what it computed when the benchmark was
    /// defined, so no round of it can count as correct.
    pub pin_error: Option<String>,
    pub session: Option<Session>,
    pub spawn_ms: f64,
    pub scratch: ScratchDir,
    pub search: SearchConfig,
    /// The reference search outcome (`Kind::Search` only).
    pub search_reference: Option<SearchOutcome>,
    pub orchestration: OrchestrationLog,
    /// Summed [`ReplayTimes`] of the traced campaign rounds run so far.
    pub replayed: ReplayTimes,
}

fn registry_spec(id: &str) -> Result<ScenarioSpec, String> {
    scenario_registry(Scale::Quick)
        .into_iter()
        .find(|spec| spec.id() == id)
        .ok_or_else(|| format!("no scenario '{id}' in the quick registry"))
}

/// The spec, kind and trial count of each workload, before `--seed` is applied.
pub fn blueprint(name: &str) -> Result<(Kind, ScenarioSpec), String> {
    const SPLIT_VOTE_13: &str = "e1/reset-tolerant/split-vote/split/n13t2";
    const SPLIT_VOTE_7: &str = "e1/reset-tolerant/split-vote/split/n7t1";
    const COMMITTEE_1000: &str = "subquad/sampled-committee20/fair-round-robin/unanimous-1/n1000t7";
    const BEN_OR_PSYNC: &str = "psync/ben-or/benign-eventual/unanimous-1/n7t1";
    Ok(match name {
        "window_small_n" => (Kind::Campaign, registry_spec(SPLIT_VOTE_13)?.trials(1_000)),
        "async_large_n" => (Kind::Campaign, registry_spec(COMMITTEE_1000)?.trials(100)),
        "orchestrated_stream" => (Kind::Stream, registry_spec(BEN_OR_PSYNC)?.trials(20_000)),
        "orchestrated_resume" => (Kind::Resume, registry_spec(BEN_OR_PSYNC)?.trials(2_000)),
        "search_fuzz" => (Kind::Search, registry_spec(SPLIT_VOTE_7)?.trials(20_000)),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// The search configuration of a spec whose `trials` is the trial budget.
pub fn search_config(spec: &ScenarioSpec) -> SearchConfig {
    SearchConfig::default()
        .budget_trials(spec.trials)
        .seed(spec.base_seed)
        .batch(32)
}

/// Digest of a search outcome: the corpus document plus the trials spent.
pub fn search_digest(outcome: &SearchOutcome) -> u64 {
    let mut hash = Fnv64::new();
    hash.write_bytes(outcome.corpus.to_json().to_string().as_bytes())
        .write_u64(outcome.trials_run)
        .write_u64(outcome.batches_run);
    hash.finish()
}

fn unsafe_corpus_records(outcome: &SearchOutcome) -> u64 {
    outcome
        .corpus
        .iter()
        .filter(|entry| !entry.record.agreement || !entry.record.validity)
        .count() as u64
}

/// Where the time of replayed trials went, as the timed wrappers saw it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayTimes {
    pub trials: u64,
    /// Building (and wrapping) the adversaries.
    pub build_ns: u64,
    /// Inside `TrialWorkspace::run_built`, adversary and protocol included.
    pub run_ns: u64,
    /// Inside `TrialRecord::from_outcome`.
    pub distill_ns: u64,
    pub probe: ProbeCounts,
}

impl ReplayTimes {
    pub fn add(&mut self, other: &ReplayTimes) {
        self.trials += other.trials;
        self.build_ns += other.build_ns;
        self.run_ns += other.run_ns;
        self.distill_ns += other.distill_ns;
        self.probe.adversary.add(&other.probe.adversary);
        self.probe.protocol.add(&other.probe.protocol);
    }

    /// Records the replay as aggregate spans under the open span.
    pub fn record(&self, tracer: &mut Tracer) {
        tracer.aggregate("adversary.build", None, self.build_ns, self.trials);
        let run = tracer.aggregate("sim.run", None, self.run_ns, self.trials);
        let probe = &self.probe;
        tracer.aggregate(
            "adversary.decide",
            Some(run),
            probe.adversary.total_ns(),
            probe.adversary.calls,
        );
        tracer.aggregate(
            "protocols.transition",
            Some(run),
            probe.protocol.total_ns(),
            probe.protocol.calls,
        );
        tracer.aggregate("core.runner.distill", None, self.distill_ns, self.trials);
    }
}

/// Runs the `(trial, seed)` pairs of `spec` one after another in one
/// [`TrialWorkspace`] — what `Campaign::serial()` does inside
/// `run_records_range`, rebuilt from public pieces — with every adversary and
/// protocol instance behind its timing wrapper. `make_adversary` gets the
/// position in `trials` and the build context of that trial.
pub fn replay(
    spec: &ScenarioSpec,
    trials: &[(u64, u64)],
    make_adversary: impl Fn(usize, &AdversaryBuildCtx) -> BuiltAdversary,
) -> Result<(Vec<TrialRecord>, ReplayTimes), String> {
    let cfg = spec.config().map_err(|err| err.to_string())?;
    let instance = spec
        .protocol
        .instantiate(&cfg)
        .map_err(|err| err.to_string())?;
    let inputs = spec.inputs.materialize(spec.n);
    let targets = spec
        .targets
        .clone()
        .unwrap_or_else(|| instance.committee.clone());
    let builder = TimedBuilder(instance.builder.as_ref());

    let mut times = ReplayTimes {
        trials: trials.len() as u64,
        ..ReplayTimes::default()
    };
    let mut records = Vec::with_capacity(trials.len());
    take_probe();
    let mut workspace = TrialWorkspace::new();
    for (index, &(trial, seed)) in trials.iter().enumerate() {
        let t0 = Instant::now();
        workspace.set_buffer_choice(spec.buffer);
        let ctx = AdversaryBuildCtx::new(cfg, seed).with_targets(targets.clone());
        let mut adversary = timed_adversary(make_adversary(index, &ctx));
        let t1 = Instant::now();
        let outcome =
            workspace.run_built(cfg, &inputs, &builder, &mut adversary, seed, spec.limits);
        let t2 = Instant::now();
        records.push(TrialRecord::from_outcome(trial, seed, &outcome, &inputs));
        let t3 = Instant::now();
        times.build_ns += (t1 - t0).as_nanos() as u64;
        times.run_ns += (t2 - t1).as_nanos() as u64;
        times.distill_ns += (t3 - t2).as_nanos() as u64;
    }
    times.probe = take_probe();
    Ok((records, times))
}

impl Bench {
    /// Sets a workload up for `seed`: resolves its spec, checks the pinned
    /// probe, computes the reference outputs, and — for the orchestrated
    /// workloads — spawns the worker processes from this same binary's hidden
    /// `--worker` mode and prepares the checkpoint files.
    pub fn set_up(name: &'static str, seed: u64) -> Result<Bench, String> {
        let (kind, spec) = blueprint(name)?;
        let spec = spec.base_seed(seed);
        let meta = spec.meta().map_err(|err| err.to_string())?;
        let pin_error = pins::check(name).err();
        if let Some(err) = &pin_error {
            eprintln!("benchmark: {name}: pinned probe mismatch: {err}");
        }
        let scratch = ScratchDir::create()?;
        let search = search_config(&spec);

        let (reference, search_reference) = if kind == Kind::Search {
            let outcome =
                run_search(&spec, &Campaign::serial(), &search).map_err(|err| err.to_string())?;
            let reference = Reference {
                records: outcome.corpus.iter().map(|entry| entry.record).collect(),
                outputs: Outputs {
                    stream: search_digest(&outcome),
                    ..Outputs::default()
                },
            };
            (reference, Some(outcome))
        } else {
            (Reference::compute(&spec, &meta)?, None)
        };

        let mut bench = Bench {
            name,
            kind,
            spec,
            meta,
            reference,
            pin_error,
            session: None,
            spawn_ms: 0.0,
            scratch,
            search,
            search_reference,
            orchestration: OrchestrationLog::default(),
            replayed: ReplayTimes::default(),
        };
        if matches!(kind, Kind::Stream | Kind::Resume) {
            bench.start_session()?;
        }
        Ok(bench)
    }

    pub fn checkpoint_path(&self) -> PathBuf {
        self.scratch.path().join("checkpoint.jsonl")
    }

    /// The checkpoint the resume workload copies into place every round.
    pub fn prepared_checkpoint_path(&self) -> PathBuf {
        self.scratch.path().join("prepared.jsonl")
    }

    fn jsonl_path(&self) -> PathBuf {
        self.scratch.path().join("records.jsonl")
    }

    /// The ranges the session's default chunking cuts `0..trials` into.
    pub fn default_ranges(&self) -> Vec<(u64, u64)> {
        let total = self.spec.trials;
        let chunk = total.div_ceil(WORKERS as u64 * 4).max(1);
        (0..total.div_ceil(chunk))
            .map(|i| (i * chunk, ((i + 1) * chunk).min(total)))
            .collect()
    }

    /// A run of consecutive records as a checkpoint entry of this spec.
    pub fn checkpoint_entry(&self, records: &[TrialRecord]) -> CheckpointEntry {
        CheckpointEntry {
            scenario: self.meta.id.clone(),
            base_seed: self.spec.base_seed,
            trials: self.spec.trials,
            lo: records.first().map_or(0, |r| r.trial),
            hi: records.last().map_or(0, |r| r.trial + 1),
            records: records.to_vec(),
        }
    }

    fn start_session(&mut self) -> Result<(), String> {
        if self.kind == Kind::Resume {
            let prepared = self.prepared_checkpoint_path();
            for &(lo, hi) in self
                .default_ranges()
                .iter()
                .take(RESUME_RANGES_DONE as usize)
            {
                let records = &self.reference.records[lo as usize..hi as usize];
                append_checkpoint(&prepared, &self.checkpoint_entry(records))
                    .map_err(|err| err.to_string())?;
            }
        }
        let exe = std::env::current_exe().map_err(|err| format!("current_exe: {err}"))?;
        let command = vec![exe.to_string_lossy().into_owned(), "--worker".to_string()];
        let started = Instant::now();
        let session = Orchestrator::new(Scale::Quick, command)
            .workers(WORKERS)
            .checkpoint(self.checkpoint_path())
            .start()
            .map_err(|err| err.to_string())?;
        self.spawn_ms = started.elapsed().as_secs_f64() * 1e3;
        self.session = Some(session);
        Ok(())
    }

    /// Puts the checkpoint file into the state a round starts from: absent
    /// for the stream workload, the prepared partial file for resume.
    fn reset_checkpoint(&self) -> Result<(), String> {
        let path = self.checkpoint_path();
        match self.kind {
            Kind::Resume => fs::copy(self.prepared_checkpoint_path(), &path)
                .map(|_| ())
                .map_err(|err| format!("copying the prepared checkpoint: {err}")),
            _ => match fs::remove_file(&path) {
                Err(err) if err.kind() != std::io::ErrorKind::NotFound => {
                    Err(format!("removing {}: {err}", path.display()))
                }
                _ => Ok(()),
            },
        }
    }

    /// One round. Under a recording tracer the round is driven differently
    /// (wrappers, spans) but computes the same thing: both ways pass the same
    /// correctness gate.
    pub fn run_round(&mut self, tracer: &mut Tracer) -> RoundOutcome {
        let result = match self.kind {
            Kind::Campaign if tracer.is_on() => self.traced_campaign_round(tracer),
            Kind::Campaign => self.campaign_round(),
            Kind::Stream | Kind::Resume => self.orchestrated_round(tracer),
            Kind::Search => self.search_round(tracer),
        };
        let all_failed = RoundOutcome {
            attempted: self.spec.trials,
            failed: self.spec.trials,
        };
        match result {
            Ok(_) if self.pin_error.is_some() => all_failed,
            Ok(outcome) => outcome,
            Err(why) => {
                eprintln!("benchmark: {}: round failed: {why}", self.name);
                all_failed
            }
        }
    }

    fn campaign_round(&mut self) -> Result<RoundOutcome, String> {
        let (mut json, mut csv, mut digest) =
            (JsonReportSink::new(), CsvSink::new(), DigestSink::default());
        self.spec
            .run_with_sinks(&Campaign::serial(), &mut [&mut json, &mut csv, &mut digest])
            .map_err(|err| err.to_string())?;
        let got = Outputs::of(&digest, Some(json), Some(&csv), None);
        Ok(self
            .reference
            .judge(self.spec.trials, got, digest.unsafe_records))
    }

    /// The campaign round rebuilt from public pieces ([`replay`]), with timing
    /// wrappers around the adversary and the protocol and a span around every
    /// stage.
    fn traced_campaign_round(&mut self, tracer: &mut Tracer) -> Result<RoundOutcome, String> {
        let spec = &self.spec;
        let factory = spec.factory().map_err(|err| err.to_string())?;
        let trials: Vec<(u64, u64)> = (0..spec.trials).map(|t| (t, spec.base_seed + t)).collect();
        let (records, times) = replay(spec, &trials, |_, ctx| factory.build(ctx))?;
        times.record(tracer);
        self.replayed.add(&times);

        let (mut json, mut csv, mut digest) =
            (JsonReportSink::new(), CsvSink::new(), DigestSink::default());
        tracer.span("core.record.stream", |_| {
            stream_records(
                &self.meta,
                &records,
                &mut [&mut json, &mut csv, &mut digest],
            );
        });
        let got = tracer.span("bench.verify", |_| {
            Outputs::of(&digest, Some(json), Some(&csv), None)
        });
        Ok(self
            .reference
            .judge(spec.trials, got, digest.unsafe_records))
    }

    fn orchestrated_round(&mut self, tracer: &mut Tracer) -> Result<RoundOutcome, String> {
        tracer.span("bench.checkpoint_reset", |_| self.reset_checkpoint())?;
        let spec = self.spec.clone();
        let session = self
            .session
            .as_mut()
            .expect("orchestrated workloads hold a session");
        let log = &mut self.orchestration;
        log.rounds += 1;
        let records = tracer
            .span("core.orchestrate.session", |_| {
                session.run_spec_records_with(&spec, |event| log.observe(event))
            })
            .map_err(|err| err.to_string())?;

        if self.kind == Kind::Resume {
            // The resumed merge is the product; it must be the reference stream.
            let digest = tracer.span("bench.verify", |_| DigestSink::of(&records));
            let got = Outputs::of(&digest, None, None, None);
            return Ok(self
                .reference
                .judge(spec.trials, got, digest.unsafe_records));
        }
        let (mut jsonl, mut json, mut digest) = (
            JsonlSink::new(),
            JsonReportSink::new(),
            DigestSink::default(),
        );
        tracer.span("core.record.stream", |_| {
            stream_records(
                &self.meta,
                &records,
                &mut [&mut jsonl, &mut json, &mut digest],
            );
        });
        tracer
            .span("bench.write_jsonl", |_| {
                fs::write(self.jsonl_path(), jsonl.as_str())
            })
            .map_err(|err| format!("writing the JSONL stream: {err}"))?;
        let got = tracer.span("bench.verify", |_| {
            Outputs::of(&digest, Some(json), None, Some(&jsonl))
        });
        Ok(self
            .reference
            .judge(spec.trials, got, digest.unsafe_records))
    }

    fn search_round(&mut self, tracer: &mut Tracer) -> Result<RoundOutcome, String> {
        let outcome = tracer
            .span("search.run_search", |_| {
                run_search(&self.spec, &Campaign::serial(), &self.search)
            })
            .map_err(|err| err.to_string())?;
        let got = tracer.span("bench.verify", |_| Outputs {
            stream: search_digest(&outcome),
            ..Outputs::default()
        });
        Ok(self
            .reference
            .judge(outcome.trials_run, got, unsafe_corpus_records(&outcome)))
    }
}

impl Rounds for Bench {
    fn trials_per_round(&self) -> u64 {
        self.spec.trials
    }

    fn worker_pids(&self) -> Vec<u32> {
        self.session.as_ref().map_or_else(Vec::new, |s| {
            s.worker_pids().iter().map(|&pid| pid as u32).collect()
        })
    }

    fn round(&mut self) -> RoundOutcome {
        self.run_round(&mut Tracer::off())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DEFAULT_SEED;

    /// The timing wrappers sit between the engine and every adversary and
    /// protocol instance; they must be invisible in the results.
    #[test]
    fn traced_wrappers_leave_the_record_digest_identical() {
        for (name, trials) in [
            ("window_small_n", 40),
            ("orchestrated_stream", 60),
            ("async_large_n", 2),
        ] {
            let (_, spec) = blueprint(name).unwrap();
            let spec = spec.trials(trials).base_seed(DEFAULT_SEED);
            let plain = spec
                .run_range_records(&Campaign::serial(), 0, trials)
                .unwrap();
            let factory = spec.factory().unwrap();
            let pairs: Vec<(u64, u64)> = (0..trials).map(|t| (t, spec.base_seed + t)).collect();
            let (traced, times) = replay(&spec, &pairs, |_, ctx| factory.build(ctx)).unwrap();
            assert_eq!(traced, plain, "{name}: the wrappers changed a record");
            assert_eq!(
                DigestSink::of(&traced).digest(),
                DigestSink::of(&plain).digest()
            );
            let probe = times.probe;
            assert!(
                probe.adversary.calls > 0 && probe.protocol.calls > 0,
                "{name}: wrappers unused"
            );
            assert_eq!(times.trials, trials);
        }
    }

    #[test]
    fn the_gate_fails_a_round_on_any_differing_output_or_unsafe_record() {
        let (_, spec) = blueprint("orchestrated_resume").unwrap();
        let spec = spec.trials(20).base_seed(DEFAULT_SEED);
        let reference = Reference::compute(&spec, &spec.meta().unwrap()).unwrap();
        let good = reference.outputs;
        assert_eq!(reference.judge(20, good, 0).failed, 0);
        assert_eq!(reference.judge(20, good, 3).failed, 3);
        // A round need not produce every output, but what it produces must match.
        let partial = Outputs {
            csv: None,
            jsonl: None,
            ..good
        };
        assert_eq!(reference.judge(20, partial, 0).failed, 0);
        for bad in [
            Outputs {
                stream: good.stream ^ 1,
                ..good
            },
            Outputs {
                jsonl: Some(0),
                ..good
            },
            Outputs {
                json_report: Some(0),
                ..good
            },
        ] {
            assert_eq!(reference.judge(20, bad, 0).failed, 20);
        }
        // One flipped field of one record moves the stream digest.
        let mut records = reference.records.clone();
        records[7].metrics.messages_dropped += 1;
        assert_ne!(DigestSink::of(&records).digest(), good.stream);
    }
}
