//! Counterexample shrinking: delta debugging on the genome tape.
//!
//! The shrinker removes tape segments (halving chunk sizes, ddmin style) and
//! then zeroes surviving bytes, keeping every candidate whose replay on a
//! fresh core still satisfies the failure [`Predicate`]. Because exhausted or
//! zeroed tape regions decode to benign scheduling, every candidate is a
//! valid schedule — shrinking can only simplify, never crash the decoder.

use agreement_adversary::{build_from_genome, Genome};
use agreement_core::{ScenarioSpec, TrialRecord};

use crate::signature::Predicate;

/// The result of shrinking one discovered schedule.
#[derive(Debug, Clone)]
pub struct ShrinkReport {
    /// The minimized genome (still tagged with the original model).
    pub genome: Genome,
    /// The replayed record of the minimized genome at the original seed —
    /// this is what the schedule artifact stores and replay verifies against.
    pub record: TrialRecord,
    /// The predicate every kept candidate (and the final genome) satisfies.
    pub predicate: Predicate,
    /// Replay probes spent.
    pub attempts: u64,
    /// Tape length before shrinking.
    pub original_len: usize,
}

/// One replay probe: rebuild the adversary from a candidate tape and re-run
/// the trial at the pinned seed. The record is built with trial index 0 —
/// artifacts always describe a single standalone trial.
fn probe(spec: &ScenarioSpec, model: &str, tape: &[u8], seed: u64) -> Result<TrialRecord, String> {
    let cfg = spec.config().map_err(|e| e.to_string())?;
    let genome = Genome::new(model, tape.to_vec());
    let mut adversary = build_from_genome(&genome, &cfg).map_err(|e| e.to_string())?;
    let outcome = spec
        .run_single_with(seed, &mut adversary)
        .map_err(|e| e.to_string())?;
    let inputs = spec.inputs.materialize(spec.n);
    Ok(TrialRecord::from_outcome(0, seed, &outcome, &inputs))
}

/// Delta-debugs `genome` down to a (locally) minimal tape whose replay at
/// `seed` still satisfies `predicate`, spending at most `max_attempts`
/// replay probes.
///
/// # Errors
///
/// Returns an error when the spec does not resolve, when the genome's model
/// tag does not match, or when the *unshrunk* genome fails the predicate —
/// the caller handed over a schedule that does not reproduce, which is worth
/// a loud failure rather than a silently empty artifact.
pub fn shrink(
    spec: &ScenarioSpec,
    genome: &Genome,
    seed: u64,
    predicate: Predicate,
    time_cap: u64,
    max_attempts: u64,
) -> Result<ShrinkReport, String> {
    let model = genome.model().to_string();
    let original_len = genome.tape().len();
    let mut attempts = 1u64;
    let mut best_record = probe(spec, &model, genome.tape(), seed)?;
    if !predicate.holds(&best_record, time_cap) {
        return Err(format!(
            "genome does not reproduce predicate '{predicate}' at seed {seed} (got {})",
            Predicate::classify(&best_record, time_cap)
        ));
    }

    let mut tape = genome.tape().to_vec();

    // Pass 1: ddmin segment removal, halving chunk sizes.
    let mut chunk = (tape.len() / 2).max(1);
    loop {
        let mut offset = 0;
        while offset < tape.len() && attempts < max_attempts {
            let end = (offset + chunk).min(tape.len());
            let mut candidate = tape.clone();
            candidate.drain(offset..end);
            attempts += 1;
            match probe(spec, &model, &candidate, seed)? {
                record if predicate.holds(&record, time_cap) => {
                    tape = candidate;
                    best_record = record;
                    // Retry the same offset: the next segment slid into it.
                }
                _ => offset = end,
            }
        }
        if chunk == 1 || attempts >= max_attempts {
            break;
        }
        chunk = (chunk / 2).max(1);
    }

    // Pass 2: zero surviving bytes (a zero byte decodes to the scheduler's
    // most benign choice, so this isolates the bytes that carry the attack).
    let mut pos = 0;
    while pos < tape.len() && attempts < max_attempts {
        if tape[pos] != 0 {
            let mut candidate = tape.clone();
            candidate[pos] = 0;
            attempts += 1;
            let record = probe(spec, &model, &candidate, seed)?;
            if predicate.holds(&record, time_cap) {
                tape = candidate;
                best_record = record;
            }
        }
        pos += 1;
    }

    Ok(ShrinkReport {
        genome: Genome::new(model, tape),
        record: best_record,
        predicate,
        attempts,
        original_len,
    })
}
