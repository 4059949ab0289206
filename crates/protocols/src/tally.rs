//! Vote tallies: per-round, per-sender bookkeeping of received values.
//!
//! Every protocol in this crate repeatedly answers questions of the form "how
//! many distinct processors have sent me value `v` for round `r` (and phase
//! `p`)?". [`RoundTally`] centralizes that bookkeeping: it records at most one
//! vote per sender per key, so a faulty or retransmitting sender can never be
//! counted twice.
//!
//! # Layout
//!
//! A protocol only ever has a handful of keys alive — the round it is in and
//! the one or two its faster peers have moved on to — and it touches the
//! tally on every delivered message, so the storage is flat. The live keys
//! sit in one small `Vec` of slots sorted by `(round, phase)` and are looked
//! up from the back, where the current round is. A slot holds its key, the
//! three counts inline, and its voters as a bitset of `u64` words indexed by
//! [`ProcessorId`]; the words are sized once, from the processor count the
//! tally was built for ([`RoundTally::for_processors`]), and never grow: a
//! voter at or above that count is a caller's bug ([`RoundTally::record`]).
//! Keys are stored, not indexed, so any `round` value works. Slots retired by
//! [`RoundTally::forget_rounds_before`] and [`RoundTally::clear`] are wiped
//! and kept behind the live prefix of the same `Vec`, and the next new key
//! takes one back, words and all: once a processor has seen as many keys at
//! once as it ever will, recording a vote never allocates, and retiring never
//! does. A wipe zeroes only slots that took a vote, and a key that
//! sorts after every live one — the first key after a [`RoundTally::clear`],
//! a protocol's next round — takes the first spare slot where it lies,
//! without a rotation.

use agreement_model::{Bit, ProcessorId};

/// A per-key tally of binary (or abstaining) votes with one vote per sender.
///
/// Keys are `(round, phase)` pairs; protocols that have no phases use phase 0.
///
/// # Examples
///
/// ```
/// use agreement_model::{Bit, ProcessorId};
/// use agreement_protocols::RoundTally;
///
/// let mut tally = RoundTally::for_processors(4);
/// tally.record(1, 0, ProcessorId::new(0), Some(Bit::One));
/// tally.record(1, 0, ProcessorId::new(1), Some(Bit::Zero));
/// // A duplicate vote from the same sender is ignored.
/// tally.record(1, 0, ProcessorId::new(0), Some(Bit::Zero));
/// let counts = tally.counts(1, 0);
/// assert_eq!(counts.total(), 2);
/// assert_eq!(counts.count(Bit::One), 1);
/// assert_eq!(counts.count(Bit::Zero), 1);
/// ```
///
/// `RoundTally::default()` is the tally for no processors: it takes no
/// vote, and stands in for a tally moved out with [`std::mem::take`].
#[derive(Debug, Clone, Default)]
pub struct RoundTally {
    /// `slots[..live]` are the keys with at least one recorded vote, sorted
    /// by `(round, phase)`; the rest are retired slots, wiped, kept for their
    /// `voters` storage. One list: a tally that outlives its trial would
    /// otherwise carry a second allocation per processor.
    slots: Vec<Slot>,
    live: usize,
    /// The processors `0..n` whose votes the tally takes; a brand-new slot
    /// gets voter words for exactly these.
    n: usize,
}

/// Whether bit `index` of the bitset `words` is set; bits beyond its last
/// word are unset.
pub(crate) fn bit_is_set(words: &[u64], index: usize) -> bool {
    words
        .get(index / 64)
        .is_some_and(|word| word & (1 << (index % 64)) != 0)
}

/// The votes recorded for one `(round, phase)` key, as
/// [`RoundTally::record`] hands them back: per value, how many distinct
/// senders cast it.
///
/// # Examples
///
/// ```
/// use agreement_model::{Bit, ProcessorId};
/// use agreement_protocols::RoundTally;
///
/// let mut tally = RoundTally::for_processors(2);
/// tally.record(1, 0, ProcessorId::new(0), Some(Bit::One));
/// let counts = tally.record(1, 0, ProcessorId::new(1), None).unwrap();
/// assert_eq!((counts.total(), counts.count(Bit::One)), (2, 1));
/// assert_eq!(counts.value_with_at_least(2), None);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VoteCounts {
    zeros: u32,
    ones: u32,
    abstains: u32,
}

impl VoteCounts {
    /// Number of distinct voters.
    pub fn total(self) -> usize {
        (self.zeros + self.ones + self.abstains) as usize
    }

    /// Number of votes for `value`.
    pub fn count(self, value: Bit) -> usize {
        match value {
            Bit::Zero => self.zeros as usize,
            Bit::One => self.ones as usize,
        }
    }

    /// The value with the most votes; ties favour [`Bit::One`], and only
    /// abstentions (or no votes) give `None`.
    pub fn majority_value(self) -> Option<Bit> {
        self.value_with_at_least(1)
    }

    /// Returns `Some(v)` if at least `threshold` votes were cast for `v`. If
    /// both values reach the threshold (only possible when `2 * threshold
    /// <= total votes`), the larger count wins and ties favour [`Bit::One`].
    pub fn value_with_at_least(self, threshold: usize) -> Option<Bit> {
        let leader = if self.ones >= self.zeros {
            (Bit::One, self.ones)
        } else {
            (Bit::Zero, self.zeros)
        };
        (leader.1 as usize >= threshold).then_some(leader.0)
    }
}

/// The votes recorded for one `(round, phase)` key.
#[derive(Debug, Clone)]
struct Slot {
    round: u64,
    phase: u8,
    counts: VoteCounts,
    /// Bit `i` is set once processor `i` has voted for this key.
    voters: Vec<u64>,
}

impl Slot {
    fn empty(voter_words: usize) -> Self {
        Slot {
            round: 0,
            phase: 0,
            counts: VoteCounts::default(),
            voters: vec![0; voter_words],
        }
    }

    fn key(&self) -> (u64, u8) {
        (self.round, self.phase)
    }

    /// Zeroes the counts and the voter words of a slot that took a vote;
    /// one that took none is clean already. (A scan that zeroes only the
    /// words holding a vote reads every word all the same, at six
    /// instructions a word against a fraction of one for the `memset`, and
    /// noting the words as votes arrive would cost every vote.)
    fn wipe(&mut self) {
        if self.counts.total() > 0 {
            self.counts = VoteCounts::default();
            self.voters.fill(0);
        }
    }

    /// Whether `sender` has voted for this key: what the differential test
    /// compares against the reference's voter sets.
    #[cfg(test)]
    fn has_voted(&self, sender: ProcessorId) -> bool {
        bit_is_set(&self.voters, sender.index())
    }
}

impl RoundTally {
    /// Creates an empty tally whose voter sets are sized, once, for senders
    /// `0..n`: the only voters [`RoundTally::record`] takes.
    pub fn for_processors(n: usize) -> Self {
        RoundTally {
            n,
            ..RoundTally::default()
        }
    }

    /// The keys with at least one recorded vote, sorted by `(round, phase)`.
    fn live(&self) -> &[Slot] {
        &self.slots[..self.live]
    }

    /// Where `(round, phase)` is among the live keys, or where it would be
    /// inserted. Scans from the back: protocols ask about their newest
    /// rounds.
    #[inline]
    fn position(&self, round: u64, phase: u8) -> Result<usize, usize> {
        let key = (round, phase);
        let live = self.live();
        // One past the candidate: the loop counts down to the first key not
        // above `key`.
        let mut end = live.len();
        while end > 0 {
            let at = live[end - 1].key();
            if at <= key {
                return if at == key { Ok(end - 1) } else { Err(end) };
            }
            end -= 1;
        }
        Err(0)
    }

    fn slot(&self, round: u64, phase: u8) -> Option<&Slot> {
        self.position(round, phase).ok().map(|i| &self.slots[i])
    }

    /// The counts of `(round, phase)`: all zero for a key nobody voted for.
    /// The one key-addressed query; a caller that has just recorded a vote
    /// reads the counts [`RoundTally::record`] returned instead.
    pub fn counts(&self, round: u64, phase: u8) -> VoteCounts {
        self.slot(round, phase)
            .map_or_else(VoteCounts::default, |k| k.counts)
    }

    /// Records a vote from `sender` for key `(round, phase)`.
    ///
    /// `value` of `None` records an abstention (e.g. Ben-Or's `?` proposal).
    /// Returns the key's counts with the vote in if it was counted — so a
    /// caller waiting for a quorum or a threshold need not look the key up a
    /// second time — and `None` if this sender had already voted for this
    /// key.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is not one of the `n` processors the tally was
    /// sized for by [`RoundTally::for_processors`]. A release build checks
    /// only the voter words, so there it panics from the next multiple of
    /// 64 up.
    // Forced: every delivery of every protocol comes through here, and left
    // to the inliner the benchmark's build called it out of line from
    // `ResetTolerant::on_message`, ≈ 20 % of a windowed n = 13 trial.
    #[inline(always)]
    pub fn record(
        &mut self,
        round: u64,
        phase: u8,
        sender: ProcessorId,
        value: Option<Bit>,
    ) -> Option<VoteCounts> {
        debug_assert!(
            sender.index() < self.n,
            "voter {sender} outside the {} processors the tally is sized for",
            self.n
        );
        let at = match self.position(round, phase) {
            Ok(at) => at,
            Err(at) => self.open(at, round, phase),
        };
        let slot = &mut self.slots[at];
        let (word, bit) = (sender.index() / 64, 1u64 << (sender.index() % 64));
        let voters = &mut slot.voters[word];
        if *voters & bit != 0 {
            return None;
        }
        *voters |= bit;
        let counts = &mut slot.counts;
        match value {
            Some(Bit::Zero) => counts.zeros += 1,
            Some(Bit::One) => counts.ones += 1,
            None => counts.abstains += 1,
        }
        Some(*counts)
    }

    /// The cold half of [`RoundTally::record`]: opens key `(round, phase)`
    /// at live position `at`, in the first spare slot (a new one if none is
    /// left), and returns `at`. A protocol opens a handful of keys per round
    /// and records a vote on every delivered message. (Kept out of line: a
    /// check for a spare inlined into `record` cost every vote four
    /// instructions.)
    #[cold]
    #[inline(never)]
    fn open(&mut self, at: usize, round: u64, phase: u8) -> usize {
        // The first spare takes a key that sorts after every live one (the
        // first key after a clear, a protocol's next round) where it lies;
        // anything else takes the slow path, a tail call, so this one saves
        // no registers.
        if at < self.live || self.live == self.slots.len() {
            return self.open_slow(at, round, phase);
        }
        let spare = &mut self.slots[at];
        (spare.round, spare.phase) = (round, phase);
        self.live += 1;
        at
    }

    /// [`RoundTally::open`] where no spare is left — a new slot, voter
    /// words and all, which a tally pays until it has as many slots as keys
    /// it ever holds at once — or the key sorts before a live one, and the
    /// spare moves into sorted place.
    #[inline(never)]
    fn open_slow(&mut self, at: usize, round: u64, phase: u8) -> usize {
        if self.live == self.slots.len() {
            self.slots.push(Slot::empty(self.n.div_ceil(64)));
        }
        let spare = &mut self.slots[self.live];
        (spare.round, spare.phase) = (round, phase);
        self.slots[at..=self.live].rotate_right(1);
        self.live += 1;
        at
    }

    /// The lowest round for which at least `threshold` distinct voters have
    /// been recorded in phase `phase`.
    pub fn lowest_round_with_at_least(&self, phase: u8, threshold: usize) -> Option<u64> {
        self.ready_rounds(phase, threshold).next()
    }

    fn ready_rounds(&self, phase: u8, threshold: usize) -> impl Iterator<Item = u64> + '_ {
        self.live()
            .iter()
            .filter(move |k| k.phase == phase && k.counts.total() >= threshold)
            .map(|k| k.round)
    }

    /// Discards all recorded votes for rounds strictly before `round`.
    /// Keeps the memory footprint of long executions bounded.
    pub fn forget_rounds_before(&mut self, round: u64) {
        let keep_from = self.live().partition_point(|k| k.round < round);
        self.retire(keep_from);
    }

    /// Discards everything (used when a processor is reset, and when a
    /// protocol instance starts a new trial). Only the live slots are wiped,
    /// and none moves: every slot is a spare afterwards, so the first key
    /// recorded next takes the first slot where it lies, without a
    /// rotation.
    pub fn clear(&mut self) {
        for slot in &mut self.slots[..self.live] {
            slot.wipe();
        }
        self.live = 0;
    }

    /// Wipes the first `count` live slots and moves them behind the rest.
    fn retire(&mut self, count: usize) {
        for slot in &mut self.slots[..count] {
            slot.wipe();
        }
        self.slots[..self.live].rotate_left(count);
        self.live -= count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agreement_model::ProcessorRng;
    use std::collections::{BTreeMap, BTreeSet};

    /// `RoundTally` as it was before the flat layout: a `BTreeMap` of keys,
    /// a `BTreeSet` of voters per key. Kept as the reference model the
    /// differential test below compares against.
    #[derive(Default)]
    struct ReferenceTally {
        votes: BTreeMap<(u64, u8), ReferenceKey>,
    }

    #[derive(Default)]
    struct ReferenceKey {
        voters: BTreeSet<ProcessorId>,
        zeros: usize,
        ones: usize,
        abstains: usize,
    }

    impl ReferenceTally {
        fn record(&mut self, round: u64, phase: u8, sender: ProcessorId, v: Option<Bit>) -> bool {
            let entry = self.votes.entry((round, phase)).or_default();
            if !entry.voters.insert(sender) {
                return false;
            }
            match v {
                Some(Bit::Zero) => entry.zeros += 1,
                Some(Bit::One) => entry.ones += 1,
                None => entry.abstains += 1,
            }
            true
        }

        fn counts(&self, round: u64, phase: u8) -> VoteCounts {
            self.votes
                .get(&(round, phase))
                .map_or_else(VoteCounts::default, |k| VoteCounts {
                    zeros: k.zeros as u32,
                    ones: k.ones as u32,
                    abstains: k.abstains as u32,
                })
        }

        fn has_voted(&self, round: u64, phase: u8, sender: ProcessorId) -> bool {
            self.votes
                .get(&(round, phase))
                .is_some_and(|k| k.voters.contains(&sender))
        }

        fn majority_value(&self, round: u64, phase: u8) -> Option<Bit> {
            let key = self.votes.get(&(round, phase))?;
            if key.zeros == 0 && key.ones == 0 {
                return None;
            }
            Some(if key.ones >= key.zeros {
                Bit::One
            } else {
                Bit::Zero
            })
        }

        fn value_with_at_least(&self, round: u64, phase: u8, threshold: usize) -> Option<Bit> {
            let key = self.votes.get(&(round, phase))?;
            let zero_hit = key.zeros >= threshold;
            let one_hit = key.ones >= threshold;
            match (zero_hit, one_hit) {
                (false, false) => None,
                (true, false) => Some(Bit::Zero),
                (false, true) => Some(Bit::One),
                (true, true) => Some(if key.ones >= key.zeros {
                    Bit::One
                } else {
                    Bit::Zero
                }),
            }
        }

        fn rounds_with_at_least(&self, phase: u8, threshold: usize) -> Vec<u64> {
            self.votes
                .iter()
                .filter(|((_, p), k)| *p == phase && k.voters.len() >= threshold)
                .map(|((r, _), _)| *r)
                .collect()
        }

        fn forget_rounds_before(&mut self, round: u64) {
            self.votes.retain(|(r, _), _| *r >= round);
        }

        fn clear(&mut self) {
            self.votes.clear();
        }
    }

    /// Whether `sender` has voted for `(round, phase)` in `tally`.
    fn has_voted(tally: &RoundTally, round: u64, phase: u8, sender: ProcessorId) -> bool {
        tally
            .slot(round, phase)
            .is_some_and(|slot| slot.has_voted(sender))
    }

    /// Every answer the tally gives — the counts of each key and what they
    /// decide, the ready rounds, the voter bits — over every key and sender
    /// the generator can produce, must agree with the reference.
    fn assert_same_answers(
        flat: &RoundTally,
        reference: &ReferenceTally,
        rounds: &[u64],
        senders: &[ProcessorId],
        context: &str,
    ) {
        for phase in 0..3u8 {
            for threshold in 0..6 {
                let ready = reference.rounds_with_at_least(phase, threshold);
                assert_eq!(
                    flat.ready_rounds(phase, threshold).collect::<Vec<_>>(),
                    ready,
                    "{context}"
                );
                assert_eq!(
                    flat.lowest_round_with_at_least(phase, threshold),
                    ready.first().copied(),
                    "{context}"
                );
            }
            for &r in rounds {
                let counts = flat.counts(r, phase);
                assert_eq!(counts, reference.counts(r, phase), "{context}");
                assert_eq!(
                    counts.majority_value(),
                    reference.majority_value(r, phase),
                    "{context}"
                );
                for threshold in 1..6 {
                    assert_eq!(
                        counts.value_with_at_least(threshold),
                        reference.value_with_at_least(r, phase, threshold),
                        "{context}"
                    );
                }
                for &s in senders {
                    assert_eq!(
                        has_voted(flat, r, phase, s),
                        reference.has_voted(r, phase, s),
                        "{context}"
                    );
                }
            }
        }
    }

    #[test]
    fn flat_tally_matches_the_tree_based_reference_on_random_operations() {
        // Rounds cluster at both ends of the range so keys collide, sort
        // across the whole of `u64`, and `forget_rounds_before` cuts through
        // the middle of them.
        let rounds: Vec<u64> = (0..4).chain(u64::MAX - 3..=u64::MAX).collect();
        // Sized for 701 processors: senders on both sides of the first word
        // boundary, and 700, the last processor, eleven words in.
        let senders: Vec<ProcessorId> = [0, 1, 2, 5, 63, 64, 69, 130, 700]
            .into_iter()
            .map(ProcessorId::new)
            .collect();
        for seed in 0..8u64 {
            let mut rng = ProcessorRng::from_seed(seed);
            let mut flat = RoundTally::for_processors(701);
            let mut reference = ReferenceTally::default();
            for op in 0..400 {
                let round = rounds[rng.range(rounds.len() as u64) as usize];
                let context = match rng.range(20) {
                    0 => {
                        flat.clear();
                        reference.clear();
                        format!("seed {seed} op {op}: clear")
                    }
                    1 | 2 => {
                        flat.forget_rounds_before(round);
                        reference.forget_rounds_before(round);
                        format!("seed {seed} op {op}: forget_rounds_before({round})")
                    }
                    _ => {
                        let phase = rng.range(3) as u8;
                        // Few senders per key, so duplicates are common.
                        let sender = senders[rng.range(senders.len() as u64) as usize];
                        let value = match rng.range(3) {
                            0 => None,
                            1 => Some(Bit::Zero),
                            _ => Some(Bit::One),
                        };
                        let context = format!(
                            "seed {seed} op {op}: record({round}, {phase}, {sender}, {value:?})"
                        );
                        // The key's counts with the vote in, `None` for a
                        // duplicate.
                        let counted = reference.record(round, phase, sender, value);
                        assert_eq!(
                            flat.record(round, phase, sender, value),
                            counted.then(|| reference.counts(round, phase)),
                            "{context}"
                        );
                        context
                    }
                };
                assert_same_answers(&flat, &reference, &rounds, &senders, &context);
            }
        }
    }

    #[test]
    fn retired_slots_are_reused_with_their_storage_wiped() {
        let mut t = RoundTally::for_processors(13);
        for round in 1..=50u64 {
            for i in 0..9 {
                // From the second round on, p(12)'s early vote is in already.
                let early = usize::from(round > 1);
                let counted = t.record(round, 0, p(i), Some(Bit::One));
                assert_eq!(counted.map(VoteCounts::total), Some(i + 1 + early));
            }
            // An early vote for the next round, from someone else.
            let counted = t.record(round + 1, 0, p(12), Some(Bit::Zero));
            assert_eq!(counted.map(VoteCounts::total), Some(1));
            t.forget_rounds_before(round + 1);
            assert_eq!(t.counts(round, 0).total(), 0);
            let next = t.counts(round + 1, 0);
            assert_eq!((next.total(), next.count(Bit::One)), (1, 0));
            assert!(!has_voted(&t, round + 1, 0, p(1)));
        }
        // Two keys were alive at once at most, so two slots exist in all.
        assert_eq!((t.live, t.slots.len()), (1, 2));
    }

    fn p(i: usize) -> ProcessorId {
        ProcessorId::new(i)
    }

    #[test]
    #[should_panic]
    fn a_voter_past_the_sized_words_panics() {
        RoundTally::for_processors(64).record(1, 0, p(64), Some(Bit::One));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "voter p4 outside the 3 processors")]
    fn a_debug_build_panics_at_the_first_voter_past_n() {
        RoundTally::for_processors(3).record(1, 0, p(3), None);
    }

    #[test]
    fn duplicate_votes_are_ignored() {
        let mut t = RoundTally::for_processors(8);
        let counted = t.record(1, 0, p(0), Some(Bit::One));
        assert_eq!(counted.map(VoteCounts::total), Some(1));
        assert_eq!(t.record(1, 0, p(0), Some(Bit::One)), None);
        assert_eq!(t.record(1, 0, p(0), Some(Bit::Zero)), None);
        assert_eq!(t.counts(1, 0), counted.unwrap());
        assert!(has_voted(&t, 1, 0, p(0)));
        assert!(!has_voted(&t, 1, 0, p(1)));
    }

    #[test]
    fn phases_and_rounds_are_independent_keys() {
        let mut t = RoundTally::for_processors(8);
        t.record(1, 0, p(0), Some(Bit::One));
        t.record(1, 1, p(0), Some(Bit::Zero));
        t.record(2, 0, p(0), Some(Bit::Zero));
        assert_eq!(t.counts(1, 0).total(), 1);
        assert_eq!(t.counts(1, 1).total(), 1);
        assert_eq!(t.counts(2, 0).total(), 1);
        assert_eq!(t.counts(1, 1).count(Bit::Zero), 1);
    }

    #[test]
    fn abstentions_count_towards_total_but_not_values() {
        let mut t = RoundTally::for_processors(8);
        t.record(3, 2, p(0), None);
        let counts = t.record(3, 2, p(1), Some(Bit::Zero)).unwrap();
        assert_eq!(counts.total(), 2);
        assert_eq!(counts.abstains, 1);
        assert_eq!(counts.count(Bit::Zero), 1);
        assert_eq!(counts.count(Bit::One), 0);
    }

    #[test]
    fn majority_value_breaks_ties_towards_one() {
        let mut t = RoundTally::for_processors(8);
        assert_eq!(t.counts(1, 0).majority_value(), None);
        let majority = |t: &mut RoundTally, i, value| {
            t.record(1, 0, p(i), Some(value)).unwrap().majority_value()
        };
        assert_eq!(majority(&mut t, 0, Bit::Zero), Some(Bit::Zero));
        assert_eq!(majority(&mut t, 1, Bit::One), Some(Bit::One));
        assert_eq!(majority(&mut t, 2, Bit::One), Some(Bit::One));
    }

    #[test]
    fn majority_value_of_only_abstentions_is_none() {
        let mut t = RoundTally::for_processors(8);
        t.record(1, 0, p(0), None);
        let counts = t.record(1, 0, p(1), None).unwrap();
        assert_eq!(counts.majority_value(), None);
    }

    #[test]
    fn value_with_at_least_respects_threshold() {
        let mut t = RoundTally::for_processors(8);
        for i in 0..5 {
            t.record(1, 0, p(i), Some(Bit::Zero));
        }
        for i in 5..8 {
            t.record(1, 0, p(i), Some(Bit::One));
        }
        let counts = t.counts(1, 0);
        assert_eq!(counts.value_with_at_least(5), Some(Bit::Zero));
        assert_eq!(counts.value_with_at_least(6), None);
        assert_eq!(counts.value_with_at_least(3), Some(Bit::Zero));
        assert_eq!(t.counts(2, 0).value_with_at_least(1), None);
    }

    #[test]
    fn the_lowest_ready_round_is_the_resync_target() {
        let mut t = RoundTally::for_processors(8);
        for i in 0..4 {
            t.record(7, 0, p(i), Some(Bit::One));
        }
        for i in 0..2 {
            t.record(8, 0, p(i), Some(Bit::One));
        }
        assert_eq!(t.lowest_round_with_at_least(0, 3), Some(7));
        assert_eq!(t.lowest_round_with_at_least(0, 1), Some(7));
        assert_eq!(t.lowest_round_with_at_least(1, 1), None);
        assert_eq!(t.lowest_round_with_at_least(0, 5), None);
        t.forget_rounds_before(8);
        assert_eq!(t.lowest_round_with_at_least(0, 1), Some(8));
        assert_eq!(t.lowest_round_with_at_least(0, 3), None);
    }

    #[test]
    fn forgetting_old_rounds_keeps_newer_ones() {
        let mut t = RoundTally::for_processors(8);
        t.record(1, 0, p(0), Some(Bit::One));
        t.record(5, 0, p(0), Some(Bit::One));
        t.forget_rounds_before(3);
        assert_eq!(t.counts(1, 0).total(), 0);
        assert_eq!(t.counts(5, 0).total(), 1);
        t.clear();
        assert_eq!(t.counts(5, 0).total(), 0);
    }
}
