//! Replayable schedule artifacts: JSON serialization, registry lookup,
//! `FullTrace` replay verification, and the baseline comparison against the
//! hand-coded adversaries.
//!
//! An artifact pins everything a third party needs to re-execute a
//! discovered schedule bit for bit: the scenario id (protocol, inputs, n, t,
//! limits via the registry), the execution-model tag, the genome tape, the
//! trial seed, and the full [`TrialRecord`] the discovery produced. Replay
//! re-runs the trial and compares the fresh record field for field — any
//! drift (a changed decoder, a changed protocol) is a loud mismatch, not a
//! silently different experiment.

use agreement_adversary::{build_from_genome, Genome};
use agreement_analysis::JsonValue;
use agreement_core::experiments::Scale;
use agreement_core::{scenario_registry, Campaign, ScenarioSpec, TrialRecord};

use crate::signature::{decision_time, Predicate};

/// A committed, replayable counterexample schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleArtifact {
    /// The scenario id the schedule was discovered on (resolved through
    /// [`scenario_registry`] at `Scale::Quick`, whose limits are part of the
    /// artifact's meaning).
    pub scenario: String,
    /// The execution-model descriptor id the genome is tagged with.
    pub model: String,
    /// The failure predicate the schedule witnesses.
    pub predicate: Predicate,
    /// The trial seed pinning the execution.
    pub seed: u64,
    /// The (shrunk) genome tape.
    pub genome: Genome,
    /// The record the discovery produced — replay must reproduce it exactly.
    pub record: TrialRecord,
}

impl ScheduleArtifact {
    /// Serializes the artifact (stable field order; the genome renders as a
    /// hex string).
    pub fn to_json(&self) -> JsonValue {
        let mut out = JsonValue::object();
        out.push("version", 1u64)
            .push("scenario", self.scenario.as_str())
            .push("model", self.model.as_str())
            .push("predicate", self.predicate.to_string())
            .push("seed", self.seed)
            .push("genome", self.genome.to_hex())
            .push("record", self.record.to_json());
        out
    }

    /// Deserializes an artifact.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(value: &JsonValue) -> Result<Self, String> {
        let version = value
            .get("version")
            .and_then(JsonValue::as_u64)
            .ok_or("artifact missing 'version'")?;
        if version != 1 {
            return Err(format!("unsupported artifact version {version}"));
        }
        let field = |key: &str| -> Result<&JsonValue, String> {
            value.get(key).ok_or(format!("artifact missing '{key}'"))
        };
        let scenario = field("scenario")?
            .as_str()
            .ok_or("'scenario' is not a string")?
            .to_string();
        let model = field("model")?
            .as_str()
            .ok_or("'model' is not a string")?
            .to_string();
        let predicate: Predicate = field("predicate")?
            .as_str()
            .ok_or("'predicate' is not a string")?
            .parse()?;
        let seed = field("seed")?.as_u64().ok_or("'seed' is not a number")?;
        let genome = Genome::from_hex(
            model.as_str(),
            field("genome")?
                .as_str()
                .ok_or("'genome' is not a string")?,
        )
        .map_err(|e| e.to_string())?;
        let record = TrialRecord::from_json(field("record")?)?;
        Ok(ScheduleArtifact {
            scenario,
            model,
            predicate,
            seed,
            genome,
            record,
        })
    }

    /// Parses an artifact from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or a malformed artifact.
    pub fn parse(text: &str) -> Result<Self, String> {
        ScheduleArtifact::from_json(&JsonValue::parse(text)?)
    }
}

/// Resolves a scenario id against the quick-scale registry (the scale the
/// search runs on — registry limits are part of an artifact's meaning).
pub fn find_spec(scenario: &str) -> Option<ScenarioSpec> {
    scenario_registry(Scale::Quick)
        .into_iter()
        .find(|spec| spec.id() == scenario)
}

/// The verdict of replaying one artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// The freshly replayed record (trial index copied from the artifact so
    /// the comparison is field-for-field meaningful).
    pub replayed: TrialRecord,
    /// `true` when the replayed record equals the stored record exactly.
    pub matches: bool,
    /// `true` when the replayed record still witnesses the artifact's
    /// predicate.
    pub predicate_holds: bool,
    /// The model's per-trial time cap used for predicate evaluation.
    pub time_cap: u64,
}

/// Replays `artifact` on `spec` under `FullTrace` and verifies the recorded
/// metrics.
///
/// # Errors
///
/// Returns a message when the spec does not resolve, when the spec's model
/// does not match the artifact's model tag, or when the genome is rejected
/// by the factory (foreign model tag).
pub fn replay(spec: &ScenarioSpec, artifact: &ScheduleArtifact) -> Result<ReplayReport, String> {
    let model = spec.model().map_err(|e| e.to_string())?;
    if model.id() != artifact.model {
        return Err(format!(
            "artifact is tagged for model '{}' but scenario '{}' runs model '{}'",
            artifact.model,
            spec.id(),
            model.id()
        ));
    }
    let cfg = spec.config().map_err(|e| e.to_string())?;
    let time_cap = spec.meta().map_err(|e| e.to_string())?.time_cap;
    let mut adversary = build_from_genome(&artifact.genome, &cfg).map_err(|e| e.to_string())?;
    let outcome = spec
        .run_single_with(artifact.seed, &mut adversary)
        .map_err(|e| e.to_string())?;
    let inputs = spec.inputs.materialize(spec.n);
    let replayed =
        TrialRecord::from_outcome(artifact.record.trial, artifact.seed, &outcome, &inputs);
    let matches = replayed == artifact.record;
    let predicate_holds = artifact.predicate.holds(&replayed, time_cap);
    Ok(ReplayReport {
        replayed,
        matches,
        predicate_holds,
        time_cap,
    })
}

/// Reads, parses, resolves and replays an artifact file in one step — the
/// shared implementation behind `search --replay` and `scenarios --replay`.
///
/// # Errors
///
/// Returns a message for I/O failures, malformed artifacts, unknown
/// scenario ids, and every error [`replay`] reports.
pub fn replay_file(path: &str) -> Result<(ScheduleArtifact, ScenarioSpec, ReplayReport), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let artifact = ScheduleArtifact::parse(&text)?;
    let spec = find_spec(&artifact.scenario).ok_or(format!(
        "artifact scenario '{}' is not in the quick-scale registry",
        artifact.scenario
    ))?;
    let report = replay(&spec, &artifact)?;
    Ok((artifact, spec, report))
}

/// One hand-coded adversary's best showing on the artifact's harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineRow {
    /// Registry adversary name.
    pub adversary: String,
    /// Worst (largest) decision time over the spec's full trial range, with
    /// undecided trials charged the time cap.
    pub max_decision_time: u64,
    /// `true` when every trial of the baseline decided within the cap.
    pub all_terminated: bool,
}

/// The artifact pitted against every same-model registry adversary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryComparison {
    /// One row per same-model, non-search registry adversary.
    pub rows: Vec<BaselineRow>,
    /// The artifact's decision time (undecided charged the cap).
    pub artifact_decision_time: u64,
    /// `true` when the artifact forces a violation or non-termination — an
    /// outcome no decision-time comparison is needed for.
    pub artifact_forces_failure: bool,
    /// The model's time cap.
    pub time_cap: u64,
}

impl RegistryComparison {
    /// `true` when the discovered schedule strictly beats every hand-coded
    /// adversary: it forces a failure outright, or its decision time exceeds
    /// each baseline's worst trial.
    pub fn beats_all(&self) -> bool {
        self.artifact_forces_failure
            || self
                .rows
                .iter()
                .all(|row| self.artifact_decision_time > row.max_decision_time)
    }
}

/// Runs every same-model registry adversary (excluding the `search-*`
/// decoders themselves) over `spec`'s full trial range and compares worst
/// decision times against the artifact's record.
///
/// # Errors
///
/// Returns a message when the spec or a baseline variant does not resolve.
pub fn compare_with_registry(
    spec: &ScenarioSpec,
    artifact: &ScheduleArtifact,
    campaign: &Campaign,
) -> Result<RegistryComparison, String> {
    let model = spec.model().map_err(|e| e.to_string())?;
    let time_cap = spec.meta().map_err(|e| e.to_string())?.time_cap;
    let mut rows = Vec::new();
    for factory in agreement_adversary::registry() {
        if factory.model().id() != model.id() || factory.name().starts_with("search-") {
            continue;
        }
        let mut variant = spec.clone();
        variant.adversary = factory.name().to_string();
        let records = variant
            .run_range_records(campaign, 0, variant.trials)
            .map_err(|e| format!("baseline '{}': {e}", factory.name()))?;
        let max_decision_time = records
            .iter()
            .map(|r| decision_time(r, time_cap))
            .max()
            .unwrap_or(0);
        let all_terminated = records.iter().all(|r| r.terminated);
        rows.push(BaselineRow {
            adversary: factory.name().to_string(),
            max_decision_time,
            all_terminated,
        });
    }
    let artifact_forces_failure =
        !artifact.record.agreement || !artifact.record.validity || !artifact.record.terminated;
    Ok(RegistryComparison {
        rows,
        artifact_decision_time: decision_time(&artifact.record, time_cap),
        artifact_forces_failure,
        time_cap,
    })
}
