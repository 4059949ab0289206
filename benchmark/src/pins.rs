//! The pinned correctness probe: a small fixed-seed run of each workload's
//! spec whose record digest and exact counts are committed in
//! `expected/pins.json`.
//!
//! The per-round gate compares a run against a reference computed by the same
//! build, which catches a parallel or orchestrated path drifting from the
//! single-process one — but not a change that alters the simulation itself. A
//! later "speed-up" that changes any simulated statistic changes these
//! digests, and every round of that build is then reported as failed,
//! whatever `--seed` the run was given.
//!
//! Regenerate (only when a behaviour change is intended and reviewed) with
//! `cargo run --release --manifest-path benchmark/Cargo.toml -- pin > benchmark/expected/pins.json`.

use agreement_analysis::{fnv1a_64, JsonValue};
use agreement_core::{stream_records, Campaign, JsonlSink};
use agreement_search::run_search;

use crate::catalog::{DEFAULT_SEED, WORKLOADS};
use crate::workloads::{blueprint, search_config, search_digest, DigestSink, Kind};

const PINS: &str = include_str!("../expected/pins.json");

/// Trials the probe of a workload runs: a few milliseconds' worth, so fewer
/// where a trial simulates a thousand processors.
fn probe_trials(kind: Kind, n: usize) -> u64 {
    match kind {
        Kind::Search => 640,
        Kind::Stream | Kind::Resume => 256,
        Kind::Campaign if n > 100 => 8,
        Kind::Campaign => 64,
    }
}

fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Runs the probe of `name` and returns what it observed.
pub fn probe(name: &str) -> Result<JsonValue, String> {
    let (kind, spec) = blueprint(name)?;
    let trials = probe_trials(kind, spec.n);
    let spec = spec.trials(trials).base_seed(DEFAULT_SEED);
    let mut seen = JsonValue::object();
    seen.push("scenario", spec.id()).push("trials", spec.trials);
    if kind == Kind::Search {
        let outcome = run_search(&spec, &Campaign::serial(), &search_config(&spec))
            .map_err(|err| err.to_string())?;
        seen.push("corpus_digest", hex(search_digest(&outcome)))
            .push("corpus_size", outcome.corpus.len())
            .push(
                "best_fitness",
                outcome.best().map_or(0, |entry| entry.fitness),
            );
        return Ok(seen);
    }
    let records = spec
        .run_range_records(&Campaign::serial(), 0, spec.trials)
        .map_err(|err| err.to_string())?;
    let mut jsonl = JsonlSink::new();
    stream_records(
        &spec.meta().map_err(|err| err.to_string())?,
        &records,
        &mut [&mut jsonl],
    );
    let sum = |field: fn(&agreement_sim::Metrics) -> u64| -> u64 {
        records.iter().map(|r| field(&r.metrics)).sum()
    };
    seen.push("record_digest", hex(DigestSink::of(&records).digest()))
        .push("jsonl_digest", hex(fnv1a_64(jsonl.as_str().as_bytes())))
        .push("sends", sum(|m| m.messages_sent))
        .push("deliveries", sum(|m| m.messages_delivered))
        .push("drops", sum(|m| m.messages_dropped))
        .push("windows", sum(|m| m.windows))
        .push("steps", sum(|m| m.steps))
        .push("resets", sum(|m| m.resets_consumed))
        .push("coin_flips", sum(|m| m.coin_flips))
        .push("rounds", sum(|m| m.rounds))
        .push(
            "terminated",
            records.iter().filter(|r| r.terminated).count(),
        );
    Ok(seen)
}

/// Checks the probe of `name` against its committed pin.
pub fn check(name: &str) -> Result<(), String> {
    let pins = JsonValue::parse(PINS).map_err(|err| format!("expected/pins.json: {err}"))?;
    let pinned = pins
        .get("workloads")
        .and_then(|w| w.get(name))
        .ok_or_else(|| format!("expected/pins.json holds no pin for '{name}'"))?;
    let seen = probe(name)?;
    if &seen == pinned {
        Ok(())
    } else {
        Err(format!(
            "expected {pinned}, the program now produces {seen}"
        ))
    }
}

/// The document `expected/pins.json` holds: every workload's probe.
pub fn document() -> Result<JsonValue, String> {
    let mut workloads = JsonValue::object();
    for workload in &WORKLOADS {
        workloads.push(workload.name, probe(workload.name)?);
    }
    let mut doc = JsonValue::object();
    doc.push("seed", DEFAULT_SEED).push("workloads", workloads);
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_matches_its_pin() {
        for workload in &WORKLOADS {
            check(workload.name).unwrap_or_else(|err| panic!("{}: {err}", workload.name));
        }
    }
}
