//! The deterministic corpus of interesting genomes.
//!
//! One entry per novelty signature, fitter genomes replacing less fit ones,
//! with a deterministic bounded eviction policy — so a corpus built from the
//! same trial stream is byte-identical however many campaign threads
//! produced the stream (records arrive slot-ordered; the corpus is updated
//! sequentially in trial order).

use agreement_adversary::Genome;
use agreement_analysis::JsonValue;
use agreement_core::TrialRecord;

/// One kept genome: the behaviour signature that admitted it, the fitness it
/// scored, and the exact trial (seed + record) that produced the score.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// The novelty signature of the producing trial.
    pub signature: u64,
    /// The fitness the producing trial scored.
    pub fitness: u64,
    /// The genome that drove the trial.
    pub genome: Genome,
    /// The full record of the producing trial (carries trial index + seed,
    /// which is everything a replay needs).
    pub record: TrialRecord,
}

/// A bounded, deterministic map from novelty signature to fittest genome.
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    cap: usize,
    /// Sorted by signature, one entry per signature: found by binary search,
    /// picked by index in O(1).
    entries: Vec<CorpusEntry>,
}

impl Corpus {
    /// An empty corpus keeping at most `cap` entries.
    pub fn new(cap: usize) -> Self {
        Corpus {
            cap: cap.max(1),
            entries: Vec::new(),
        }
    }

    /// Number of kept entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Offers an entry. A new signature is admitted outright (evicting the
    /// weakest entry when over capacity); a known signature only if strictly
    /// fitter than the incumbent. Returns `true` when the corpus changed.
    pub fn consider(&mut self, entry: CorpusEntry) -> bool {
        match self
            .entries
            .binary_search_by_key(&entry.signature, |e| e.signature)
        {
            Ok(at) if self.entries[at].fitness >= entry.fitness => false,
            Ok(at) => {
                self.entries[at] = entry;
                true
            }
            Err(at) => {
                self.entries.insert(at, entry);
                if self.entries.len() > self.cap {
                    let (weakest, _) = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| (e.fitness, e.signature))
                        .expect("non-empty corpus has a weakest entry");
                    self.entries.remove(weakest);
                }
                true
            }
        }
    }

    /// The `index`-th entry in signature order (the driver's deterministic
    /// mutation pick).
    pub fn nth(&self, index: usize) -> Option<&CorpusEntry> {
        self.entries.get(index)
    }

    /// The fittest entry; ties break toward the smaller signature, so the
    /// answer is deterministic.
    pub fn best(&self) -> Option<&CorpusEntry> {
        self.entries
            .iter()
            .max_by_key(|e| (e.fitness, std::cmp::Reverse(e.signature)))
    }

    /// Iterates entries in signature order.
    pub fn iter(&self) -> impl Iterator<Item = &CorpusEntry> {
        self.entries.iter()
    }

    /// Serializes the corpus — signature order, stable field order — for the
    /// `corpus.json` output artifact. Signatures render as hex strings (a
    /// JSON number would round-trip through `f64` and lose precision above
    /// 2⁵³).
    pub fn to_json(&self) -> JsonValue {
        let mut entries = Vec::with_capacity(self.entries.len());
        for entry in &self.entries {
            let mut object = JsonValue::object();
            object
                .push("signature", format!("{:016x}", entry.signature))
                .push("fitness", entry.fitness)
                .push("model", entry.genome.model())
                .push("genome", entry.genome.to_hex())
                .push("record", entry.record.to_json());
            entries.push(object);
        }
        let mut out = JsonValue::object();
        out.push("entries", JsonValue::Array(entries));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreement_sim::Metrics;

    fn entry(signature: u64, fitness: u64) -> CorpusEntry {
        CorpusEntry {
            signature,
            fitness,
            genome: Genome::new("async", vec![signature as u8]),
            record: TrialRecord {
                trial: 0,
                seed: signature,
                agreement: true,
                validity: true,
                terminated: true,
                violations: 0,
                halted: false,
                decided: None,
                first_decision_at: None,
                all_decided_at: Some(fitness),
                duration: fitness,
                longest_chain: 0,
                metrics: Metrics::default(),
            },
        }
    }

    #[test]
    fn keeps_fittest_per_signature() {
        let mut corpus = Corpus::new(8);
        assert!(corpus.consider(entry(1, 10)));
        assert!(!corpus.consider(entry(1, 10)), "equal fitness is rejected");
        assert!(!corpus.consider(entry(1, 5)));
        assert!(corpus.consider(entry(1, 20)));
        assert_eq!(corpus.len(), 1);
        assert_eq!(corpus.best().unwrap().fitness, 20);
    }

    #[test]
    fn evicts_weakest_when_full() {
        let mut corpus = Corpus::new(2);
        corpus.consider(entry(1, 10));
        corpus.consider(entry(2, 30));
        corpus.consider(entry(3, 20));
        assert_eq!(corpus.len(), 2);
        assert!(corpus.nth(0).is_some());
        let signatures: Vec<u64> = corpus.iter().map(|e| e.signature).collect();
        assert_eq!(signatures, vec![2, 3], "the fitness-10 entry was evicted");
    }

    /// The sorted vector admits, replaces, evicts and indexes exactly like a
    /// map from signature to entry, over a seeded stream of offers that
    /// revisits signatures and overflows the cap.
    #[test]
    fn behaves_like_a_signature_map() {
        use agreement_model::ProcessorRng;
        use std::collections::BTreeMap;
        let mut rng = ProcessorRng::labelled(0xC0_4905, 1);
        let cap = 16;
        let mut corpus = Corpus::new(cap);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..2_000 {
            let (signature, fitness) = (rng.range(40), rng.range(50));
            let admitted = match model.get(&signature) {
                Some(&incumbent) if incumbent >= fitness => false,
                _ => {
                    model.insert(signature, fitness);
                    if model.len() > cap {
                        let weakest = model.iter().map(|(&s, &f)| (f, s)).min().unwrap();
                        model.remove(&weakest.1);
                    }
                    true
                }
            };
            assert_eq!(corpus.consider(entry(signature, fitness)), admitted);
            let kept: Vec<(u64, u64)> = corpus.iter().map(|e| (e.signature, e.fitness)).collect();
            assert_eq!(
                kept,
                model.iter().map(|(&s, &f)| (s, f)).collect::<Vec<_>>()
            );
            for (index, (signature, _)) in model.iter().enumerate() {
                assert_eq!(corpus.nth(index).map(|e| e.signature), Some(*signature));
            }
            assert!(corpus.nth(model.len()).is_none());
        }
    }

    #[test]
    fn json_is_stable_and_ordered() {
        let mut corpus = Corpus::new(8);
        corpus.consider(entry(0xdead, 1));
        corpus.consider(entry(0xbeef, 2));
        let a = corpus.to_json().to_string();
        let b = corpus.clone().to_json().to_string();
        assert_eq!(a, b);
        assert!(a.find("beef").unwrap() < a.find("dead").unwrap());
    }
}
