//! The search driver: batch-synchronous random walks plus corpus mutation
//! over NoTrace campaign trials.
//!
//! Determinism is the load-bearing property. Each generation is built in
//! three strictly sequential phases: (1) a genome batch is derived from the
//! search RNG and the current corpus — pure computation, no trials; (2) the
//! batch is evaluated through a
//! [`BatchRunner`](agreement_core::BatchRunner), whose record stream is
//! slot-ordered and bit-identical across campaign thread counts; (3) the
//! corpus is updated from the records in trial order. No phase reads
//! anything a thread schedule could reorder, so the same seed and budget
//! reproduce the corpus byte for byte at 1, 2 or 4 threads.
//!
//! A generation pays only for its trials: the spec is resolved and the
//! runner built once per search, its workspaces stay warm from generation to
//! generation, and a genome's tape is shared with — not copied into — the
//! decoder that reads it.

use agreement_adversary::{build_from_genome, Genome, DEFAULT_TAPE_LEN};
use agreement_core::{Campaign, ScenarioError, ScenarioSpec};
use agreement_model::ProcessorRng;

use crate::corpus::{Corpus, CorpusEntry};
use crate::signature::{fitness, novelty_signature};

/// RNG stream label of the search driver (disjoint from processor, adversary
/// and genome streams).
const SEARCH_STREAM: u64 = 0x005E_A2C4_0002;

/// Budgets and knobs of one search run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Total trial budget (the run stops once spent).
    pub budget_trials: u64,
    /// Master seed of the search RNG: same seed + budget ⇒ byte-identical
    /// corpus and artifact output.
    pub seed: u64,
    /// Trials per generation (one campaign batch).
    pub batch: u64,
    /// Tape length of freshly generated random genomes; mutations may grow a
    /// tape to at most four times this.
    pub tape_len: usize,
    /// Maximum corpus entries kept (deterministic weakest-first eviction).
    pub corpus_cap: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            budget_trials: 1_000,
            seed: 7,
            batch: 64,
            tape_len: DEFAULT_TAPE_LEN,
            corpus_cap: 256,
        }
    }
}

impl SearchConfig {
    /// Sets the trial budget.
    pub fn budget_trials(mut self, budget: u64) -> Self {
        self.budget_trials = budget;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the generation size.
    pub fn batch(mut self, batch: u64) -> Self {
        self.batch = batch.max(1);
        self
    }
}

/// What a finished search hands back.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The corpus of interesting genomes, one per novelty signature.
    pub corpus: Corpus,
    /// Trials actually run (the budget).
    pub trials_run: u64,
    /// Generations run.
    pub batches_run: u64,
    /// The model's per-trial time cap (undecided trials are charged this in
    /// fitness and decision-time accounting).
    pub time_cap: u64,
}

impl SearchOutcome {
    /// The fittest corpus entry — the discovery the shrinker works on.
    pub fn best(&self) -> Option<&CorpusEntry> {
        self.corpus.best()
    }
}

/// One mutation of `parent`, possibly splicing bytes from `donor`:
/// byte flips, a donor splice, a tail truncation, fresh appended bytes, or a
/// verbatim *seed rerun* (the same tape re-evaluated at a fresh trial seed —
/// cheap variance probing for genomes whose damage depends on the protocol's
/// coin flips).
fn mutate(parent: &Genome, donor: &Genome, rng: &mut ProcessorRng, max_len: usize) -> Genome {
    let op = rng.range(5);
    if op == 0 {
        // Seed rerun: the same tape, shared.
        return parent.clone();
    }
    let mut tape = parent.tape().to_vec();
    match op {
        1 => {
            if !tape.is_empty() {
                let flips = 1 + rng.range(8) as usize;
                for _ in 0..flips {
                    let pos = rng.range(tape.len() as u64) as usize;
                    tape[pos] ^= 1 + rng.range(255) as u8;
                }
            }
        }
        2 => {
            let src = donor.tape();
            if !src.is_empty() {
                let start = rng.range(src.len() as u64) as usize;
                let len = 1 + rng.range((src.len() - start) as u64) as usize;
                let at = if tape.is_empty() {
                    0
                } else {
                    rng.range(tape.len() as u64 + 1) as usize
                };
                let mut spliced = Vec::with_capacity(tape.len() + len);
                spliced.extend_from_slice(&tape[..at]);
                spliced.extend_from_slice(&src[start..start + len]);
                spliced.extend_from_slice(&tape[at..]);
                spliced.truncate(max_len);
                tape = spliced;
            }
        }
        3 => {
            if tape.len() > 4 {
                let keep = 4 + rng.range((tape.len() - 4) as u64) as usize;
                tape.truncate(keep);
            }
        }
        _ => {
            let extra = 1 + rng.range(64) as usize;
            for _ in 0..extra {
                tape.push(rng.range(256) as u8);
            }
            tape.truncate(max_len);
        }
    }
    parent.with_tape(tape)
}

/// Runs the coverage-guided search over `spec`'s harness (protocol, inputs,
/// limits — the spec's own adversary name is ignored; genomes drive every
/// trial). Trial seeds advance from `spec.base_seed`, one per budgeted
/// trial, so a stored artifact's seed pins its exact execution.
///
/// # Errors
///
/// Returns a [`ScenarioError`] when the spec's configuration, protocol or
/// model does not resolve.
pub fn run_search(
    spec: &ScenarioSpec,
    campaign: &Campaign,
    config: &SearchConfig,
) -> Result<SearchOutcome, ScenarioError> {
    let model_id = spec.model()?.id();
    let time_cap = spec.meta()?.time_cap;
    let cfg = spec.config()?;
    let mut runner = spec.batch_runner(campaign)?;
    let max_len = config.tape_len.max(1) * 4;

    let mut rng = ProcessorRng::labelled(config.seed, SEARCH_STREAM);
    let mut corpus = Corpus::new(config.corpus_cap);
    let mut seed_cursor = spec.base_seed;
    let mut trials_run = 0u64;
    let mut batches_run = 0u64;

    while trials_run < config.budget_trials {
        let batch = config.batch.max(1).min(config.budget_trials - trials_run);
        // Phase 1: derive the generation (RNG + corpus only, no trials).
        let mut genomes = Vec::with_capacity(batch as usize);
        for _ in 0..batch {
            let genome = if corpus.is_empty() || rng.range(4) == 0 {
                Genome::from_seed(model_id, rng.ticket(), config.tape_len)
            } else {
                let parent = &corpus
                    .nth(rng.range(corpus.len() as u64) as usize)
                    .expect("index < len")
                    .genome;
                let donor = &corpus
                    .nth(rng.range(corpus.len() as u64) as usize)
                    .expect("index < len")
                    .genome;
                mutate(parent, donor, &mut rng, max_len)
            };
            genomes.push(genome);
        }
        // Phase 2: evaluate on the NoTrace campaign path (slot-ordered,
        // thread-count independent).
        let records = runner.run(batch, seed_cursor, |seed| {
            let genome = &genomes[(seed - seed_cursor) as usize];
            build_from_genome(genome, &cfg).expect("search genomes carry the spec's model tag")
        });
        // Phase 3: fold into the corpus in trial order. The generation is
        // dead after this, so each genome moves into its entry: the corpus
        // keeps about one in a hundred, and the rest were never worth a clone.
        for (genome, record) in genomes.into_iter().zip(&records) {
            corpus.consider(CorpusEntry {
                signature: novelty_signature(record),
                fitness: fitness(record, time_cap),
                genome,
                record: *record,
            });
        }
        seed_cursor += batch;
        trials_run += batch;
        batches_run += 1;
    }

    Ok(SearchOutcome {
        corpus,
        trials_run,
        batches_run,
        time_cap,
    })
}
