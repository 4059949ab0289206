//! Coverage-guided schedule-space search for the reproduction of Lewko &
//! Lewko (PODC 2013).
//!
//! The paper's subject is what an *optimal* adversary can force; the 16
//! hand-coded registry adversaries only replay known attacks. This crate
//! turns the campaign hot path into an attack-*discovery* engine:
//!
//! 1. **Genomes** ([`agreement_adversary::Genome`]) encode an adversary's
//!    entire choice sequence as a bounded byte tape, decoded per execution
//!    model by the `search-*` adversaries of `agreement-adversary`. Every
//!    tape is a valid schedule (illegal decodes are engine-refused no-ops,
//!    exhausted tapes fall back to benign scheduling), so the search can
//!    mutate freely.
//! 2. **Coverage and fitness** ([`novelty_signature`], [`fitness`]) hash
//!    each trial's [`Metrics`](agreement_sim::Metrics) into a behavioural
//!    signature and score how adversarial the trial was (violations ≫
//!    non-termination ≫ slow decisions). A bounded [`Corpus`] keeps the best
//!    genome per signature.
//! 3. **The driver** ([`run_search`]) alternates seed-derived random walks
//!    with corpus mutations (byte flips, splices, truncations, seed reruns)
//!    over NoTrace campaign batches, deterministically seeded — the same
//!    `--seed` and budget reproduce the corpus byte for byte at any thread
//!    count.
//! 4. **The shrinker** ([`shrink`]) delta-debugs the winning tape while the
//!    failure [`Predicate`] keeps holding, then the result is replayed under
//!    `FullTrace` and written as a JSON [`ScheduleArtifact`] — a committed,
//!    replayable counterexample (see `examples/`).
//! 5. **Replay** ([`replay_file`]) re-executes a stored artifact through the
//!    scenario registry and verifies the recorded
//!    [`TrialRecord`](agreement_core::TrialRecord) field for field;
//!    [`compare_with_registry`] pits the artifact against every hand-coded
//!    adversary of the same model on the same harness.
//!
//! The `search` binary wires all five together; `search --replay` runs a
//! stored artifact through the scenario registry's own single-trial path,
//! so a discovered schedule is a first-class scenario input.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod artifact;
mod corpus;
mod driver;
mod shrink;
mod signature;

pub use artifact::{
    compare_with_registry, find_spec, replay, replay_file, BaselineRow, RegistryComparison,
    ReplayReport, ScheduleArtifact,
};
pub use corpus::{Corpus, CorpusEntry};
pub use driver::{run_search, SearchConfig, SearchOutcome};
pub use shrink::{shrink, ShrinkReport};
pub use signature::{bucket, decision_time, fitness, novelty_signature, Predicate};
