//! Genome-driven search adversaries: the decode side of the schedule-space
//! search (`agreement-search`).
//!
//! The search treats an adversary's entire choice sequence — delivery
//! ordering, stall/corrupt/crash decisions, crash timing, and for partial
//! synchrony the GST/Δ placement — as a [`Genome`]: a bounded byte tape
//! tagged with the execution model it drives. One decoder per model turns the
//! tape into live scheduling decisions:
//!
//! * [`SearchWindowAdversary`] decodes acceptable windows (reset set +
//!   per-processor sender exclusions) that are valid **by construction**, so
//!   no tape can trip the window engine's Definition 1 validation panic.
//! * [`SearchAsyncAdversary`] decodes per-step async actions: round-robin
//!   delivery with decoded skips, blind "stall" deliveries that burn a step,
//!   crashes, Byzantine corruption declarations and forged payloads. Illegal
//!   decodes (over-budget crashes, corrupting an honest sender) are *allowed
//!   out* — the execution core refuses them defensively, so they are no-ops,
//!   never panics.
//! * [`SearchPartialSyncAdversary`] decodes a constant GST/Δ/omission header
//!   up front, then per-step deliver/stall/crash decisions.
//!
//! Every decoder degrades gracefully when the tape runs out: the window model
//! falls back to full-delivery windows, the async and partial-sync models to
//! fair round-robin delivery. **Every genome is therefore a valid schedule**
//! — the search layer can mutate tapes arbitrarily without constructing an
//! illegal adversary.
//!
//! Construction from an explicit genome is strict about models: a genome
//! tagged `async` handed to the windowed decoder is a corrupted artifact or a
//! caller bug, and silently falling back to a benign schedule would make the
//! mistake invisible (the same failure class as the committee killer's old
//! fair-scheduling fallback). [`SearchWindowAdversary::from_genome`] and
//! friends return [`GenomeError::ModelMismatch`] instead, and
//! [`build_from_genome`] rejects unknown model tags loudly.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use agreement_model::{Bit, Payload, ProcessorId, ProcessorRng, SystemConfig};
use agreement_sim::{
    AsyncAction, AsyncAdversary, BuiltAdversary, ChannelCursor, PartialSyncAction,
    PartialSyncAdversary, SystemView, Window, WindowAdversary, ASYNC, PARTIAL_SYNC, WINDOWED,
};

/// Tape length of the seed-derived genomes built by the factory entries: long
/// enough for tens of decoded windows (or hundreds of async steps) of
/// adversarial interference, short enough that random tapes stay cheap to
/// store and mutate. After the tape runs out the decoders fall back to benign
/// scheduling, so the prefix is where all the adversarial power lives.
pub const DEFAULT_TAPE_LEN: usize = 512;

/// RNG stream label for [`Genome::from_seed`] (disjoint from every processor
/// and adversary stream already in use).
const GENOME_STREAM: u64 = 0x005E_A2C4_0001;

/// A seed-addressable adversary strategy: a bounded byte tape tagged with the
/// model descriptor id (`windowed`, `async`, `partial-sync`) it drives.
///
/// The tape is pure data — hex-serializable, mutable byte-by-byte, and
/// decodable into a valid schedule no matter its contents. Equality is
/// structural, which is what the search corpus de-duplicates on. Tag and
/// tape are shared, not owned: a clone, and every decoder built from the
/// genome, reads the same bytes in place.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Genome {
    model: Arc<str>,
    tape: Arc<[u8]>,
}

impl Genome {
    /// A genome from an explicit model tag and tape.
    pub fn new(model: impl Into<Arc<str>>, tape: impl Into<Arc<[u8]>>) -> Self {
        Genome {
            model: model.into(),
            tape: tape.into(),
        }
    }

    /// Derives a `len`-byte random tape from a seed (the "random walk" side
    /// of the search, and what the registry factories build per trial).
    pub fn from_seed(model: &str, seed: u64, len: usize) -> Self {
        let mut rng = ProcessorRng::labelled(seed, GENOME_STREAM);
        let tape: Arc<[u8]> = (0..len).map(|_| rng.range(256) as u8).collect();
        Genome::new(model, tape)
    }

    /// The model descriptor id this genome is tagged with.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// The raw choice tape.
    pub fn tape(&self) -> &[u8] {
        &self.tape
    }

    /// Replaces the tape, keeping the model tag (the mutation entry point).
    pub fn with_tape(&self, tape: impl Into<Arc<[u8]>>) -> Self {
        Genome::new(Arc::clone(&self.model), tape)
    }

    /// Fails unless this genome is tagged for the model `expected`.
    fn expect_model(&self, expected: &'static str) -> Result<(), GenomeError> {
        if self.model() == expected {
            Ok(())
        } else {
            Err(GenomeError::ModelMismatch {
                genome: self.model().to_string(),
                expected,
            })
        }
    }

    /// How many complete adversarial windows the windowed decoder reads off
    /// this tape in a system of `n` processors with budget `t` before it
    /// falls back to full delivery: windows `0..windows_encoded` of a run
    /// are the tape's, every later one is benign. The decoder consults
    /// nothing but the tape, so this is a property of `(tape, n, t)`.
    pub fn windows_encoded(&self, n: usize, t: usize) -> u64 {
        let mut reader = TapeReader::new(Arc::clone(&self.tape));
        let mut window = Window::default();
        let mut windows = 0;
        while decode_window(&mut reader, n, t, &mut window).is_some() {
            windows += 1;
        }
        windows
    }

    /// Serializes the tape as lowercase hex (the artifact wire format).
    pub fn to_hex(&self) -> String {
        let mut out = String::with_capacity(self.tape.len() * 2);
        for byte in self.tape.iter() {
            out.push_str(&format!("{byte:02x}"));
        }
        out
    }

    /// Parses a genome back from a model tag and a hex tape.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::BadHex`] on odd length or on any byte pair that
    /// is not two ASCII hex digits (a non-ASCII character included: the
    /// text is read as bytes, never sliced as a `str`).
    pub fn from_hex(model: impl Into<Arc<str>>, hex: &str) -> Result<Self, GenomeError> {
        if !hex.len().is_multiple_of(2) {
            return Err(GenomeError::BadHex {
                detail: format!("odd hex length {}", hex.len()),
            });
        }
        // `to_digit` accepts ASCII hex digits only, whatever `char` a
        // non-ASCII byte widens to.
        let digit = |byte: u8| char::from(byte).to_digit(16);
        let mut tape = Vec::with_capacity(hex.len() / 2);
        for (i, pair) in hex.as_bytes().chunks(2).enumerate() {
            let (Some(hi), Some(lo)) = (digit(pair[0]), digit(pair[1])) else {
                return Err(GenomeError::BadHex {
                    detail: format!(
                        "invalid hex pair '{}' at offset {}",
                        String::from_utf8_lossy(pair),
                        2 * i
                    ),
                });
            };
            tape.push((hi << 4 | lo) as u8);
        }
        Ok(Genome::new(model, tape))
    }
}

/// Why a genome could not be turned into an adversary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenomeError {
    /// The genome's model tag names a model this decoder does not drive.
    ModelMismatch {
        /// The model tag the genome carries.
        genome: String,
        /// The model descriptor id the decoder drives.
        expected: &'static str,
    },
    /// The genome's model tag names no registered execution model at all.
    UnknownModel {
        /// The unrecognized model tag.
        model: String,
    },
    /// The hex tape could not be parsed.
    BadHex {
        /// What was wrong with the hex string.
        detail: String,
    },
}

impl fmt::Display for GenomeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenomeError::ModelMismatch { genome, expected } => write!(
                f,
                "genome is tagged for model '{genome}' but this decoder drives '{expected}' — \
                 refusing to run it as a benign schedule"
            ),
            GenomeError::UnknownModel { model } => {
                write!(
                    f,
                    "genome model tag '{model}' names no registered execution model"
                )
            }
            GenomeError::BadHex { detail } => write!(f, "genome hex tape is invalid: {detail}"),
        }
    }
}

impl Error for GenomeError {}

/// A forward-only reader over a genome tape. Every read returns `None` once
/// the tape is exhausted; the decoders translate that into their benign
/// fallback, so exhaustion is a schedule feature, not an error.
#[derive(Debug, Clone)]
pub struct TapeReader {
    tape: Arc<[u8]>,
    pos: usize,
}

impl TapeReader {
    /// A reader at the start of `tape`.
    pub fn new(tape: impl Into<Arc<[u8]>>) -> Self {
        TapeReader {
            tape: tape.into(),
            pos: 0,
        }
    }

    /// The next tape byte, or `None` at the end.
    pub fn byte(&mut self) -> Option<u8> {
        let byte = *self.tape.get(self.pos)?;
        self.pos += 1;
        Some(byte)
    }

    /// Two tape bytes folded little-endian into a `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        let lo = self.byte()?;
        let hi = self.byte()?;
        Some(u16::from_le_bytes([lo, hi]))
    }

    /// `true` once every byte has been consumed.
    pub fn exhausted(&self) -> bool {
        self.pos >= self.tape.len()
    }

    /// Decodes a processor id that `taken` does not reject: a collision is
    /// resolved by probing to the next id, so any byte yields a fresh one as
    /// long as fewer than `n` are taken (the call sites take at most
    /// `t < n`).
    fn fresh_id(&mut self, n: usize, taken: impl Fn(ProcessorId) -> bool) -> Option<ProcessorId> {
        let mut index = self.byte()? as usize % n;
        while taken(ProcessorId::new(index)) {
            index = (index + 1) % n;
        }
        Some(ProcessorId::new(index))
    }
}

/// Decodes one acceptable window off the tape into `window`, in place.
///
/// A window consumes `1 + r + n * (1 + e_i)` tape bytes: a reset count
/// `r <= t` with `r` distinct reset ids, then per processor an exclusion
/// count `e_i <= t` with `e_i` distinct excluded senders — `S_i` starts as
/// everyone and the excluded are struck from it, so the window itself is the
/// only scratch. Windows built this way satisfy Definition 1 by
/// construction. `None` when the tape ends first: the reader is then
/// exhausted and `window` holds a fragment to be overwritten.
fn decode_window(reader: &mut TapeReader, n: usize, t: usize, window: &mut Window) -> Option<()> {
    window.clear();
    let reset_count = reader.byte()? as usize % (t + 1);
    for _ in 0..reset_count {
        let id = reader.fresh_id(n, |id| window.resets().contains(&id))?;
        window.push_reset(id);
    }
    for _ in 0..n {
        let excluded_count = reader.byte()? as usize % (t + 1);
        window.push_all_senders(n);
        for _ in 0..excluded_count {
            // An id is taken exactly when it has been struck already.
            let mut index = reader.byte()? as usize % n;
            while !window.strike_sender(ProcessorId::new(index)) {
                index = (index + 1) % n;
            }
        }
        window.end_set();
    }
    Some(())
}

/// The genome decoder for the strongly adaptive windowed model: every window
/// is decoded off the tape; on tape exhaustion every further window is full
/// delivery.
#[derive(Debug, Clone)]
pub struct SearchWindowAdversary {
    reader: TapeReader,
}

impl SearchWindowAdversary {
    /// A decoder over a raw tape.
    pub fn from_tape(tape: impl Into<Arc<[u8]>>) -> Self {
        SearchWindowAdversary {
            reader: TapeReader::new(tape),
        }
    }

    /// A decoder from a tagged genome.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::ModelMismatch`] when the genome is tagged for a
    /// different model — a corrupted artifact must fail loudly, not run as a
    /// benign windowed schedule.
    pub fn from_genome(genome: &Genome) -> Result<Self, GenomeError> {
        genome.expect_model(WINDOWED.id())?;
        Ok(SearchWindowAdversary::from_tape(Arc::clone(&genome.tape)))
    }
}

impl WindowAdversary for SearchWindowAdversary {
    fn name(&self) -> &'static str {
        "search-window"
    }

    fn next_window(&mut self, view: &SystemView<'_>) -> Window {
        let mut window = view.take_window();
        if decode_window(&mut self.reader, view.n(), view.t(), &mut window).is_none() {
            window.fill_full_delivery(view.n());
        }
        debug_assert!(window.validate(&view.config).is_ok());
        window
    }
}

/// The genome decoder for the fully asynchronous model.
///
/// Per step one op byte selects the action class (delivery-heavy so random
/// tapes make progress), with follow-up bytes decoding its operands:
///
/// * ops 0–8: deliver, skipping 0–3 pending channels past the round-robin
///   cursor (the high op bits pick the skip);
/// * op 9: a "blind" delivery on a decoded channel — a no-op stall when that
///   channel is empty, which is how an async genome withholds progress;
/// * ops 10–11: crash a decoded processor (the core refuses over-budget
///   crashes, so hostile tapes stay legal);
/// * op 12: declare a decoded processor Byzantine-corrupted;
/// * ops 13–15: forge a `Report` payload on a declared-corrupted sender's
///   channel (decoded round/value), degrading to a blind delivery while no
///   corruption has been declared.
///
/// On tape exhaustion the decoder becomes a fair round-robin scheduler and
/// halts once nothing is pending.
#[derive(Debug, Clone)]
pub struct SearchAsyncAdversary {
    reader: TapeReader,
    cursor: ChannelCursor,
    corrupted: Vec<ProcessorId>,
}

impl SearchAsyncAdversary {
    /// A decoder over a raw tape.
    pub fn from_tape(tape: impl Into<Arc<[u8]>>) -> Self {
        SearchAsyncAdversary {
            reader: TapeReader::new(tape),
            cursor: ChannelCursor::default(),
            corrupted: Vec::new(),
        }
    }

    /// A decoder from a tagged genome.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::ModelMismatch`] when the genome is tagged for a
    /// different model.
    pub fn from_genome(genome: &Genome) -> Result<Self, GenomeError> {
        genome.expect_model(ASYNC.id())?;
        Ok(SearchAsyncAdversary::from_tape(Arc::clone(&genome.tape)))
    }

    /// Fair round-robin delivery from the persistent cursor; `None` when no
    /// channel is pending (the adversary has nothing left to schedule).
    fn deliver_skipping(
        &mut self,
        view: &SystemView<'_>,
        skip: usize,
    ) -> Option<(ProcessorId, ProcessorId)> {
        let mut cursor = self.cursor;
        let mut found = None;
        for _ in 0..=skip {
            match view.next_pending_channel(cursor) {
                Some((next, from, to)) => {
                    cursor = next;
                    found = Some((from, to));
                }
                None => break,
            }
        }
        if found.is_some() {
            self.cursor = cursor;
        }
        found
    }

    fn blind_channel(&mut self, n: usize) -> Option<(ProcessorId, ProcessorId)> {
        let from = ProcessorId::new(self.reader.byte()? as usize % n);
        let to = ProcessorId::new(self.reader.byte()? as usize % n);
        Some((from, to))
    }

    fn decode_action(&mut self, view: &SystemView<'_>) -> Option<AsyncAction> {
        let n = view.n();
        let op = self.reader.byte()?;
        let action = match op % 16 {
            0..=8 => {
                let skip = (op >> 4) as usize % 4;
                match self.deliver_skipping(view, skip) {
                    Some((from, to)) => AsyncAction::Deliver { from, to },
                    None => AsyncAction::Halt,
                }
            }
            9 => {
                let (from, to) = self.blind_channel(n)?;
                AsyncAction::Deliver { from, to }
            }
            10 | 11 => AsyncAction::Crash(ProcessorId::new(self.reader.byte()? as usize % n)),
            12 => {
                let id = ProcessorId::new(self.reader.byte()? as usize % n);
                if !self.corrupted.contains(&id) {
                    self.corrupted.push(id);
                }
                AsyncAction::CorruptProcessor(id)
            }
            _ => {
                if self.corrupted.is_empty() {
                    let (from, to) = self.blind_channel(n)?;
                    AsyncAction::Deliver { from, to }
                } else {
                    let from = self.corrupted[self.reader.byte()? as usize % self.corrupted.len()];
                    let to = ProcessorId::new(self.reader.byte()? as usize % n);
                    let round = u64::from(self.reader.byte()?) % 64;
                    let value = if self.reader.byte()? % 2 == 0 {
                        Bit::Zero
                    } else {
                        Bit::One
                    };
                    AsyncAction::Corrupt {
                        from,
                        to,
                        payload: Payload::Report { round, value },
                    }
                }
            }
        };
        Some(action)
    }
}

impl AsyncAdversary for SearchAsyncAdversary {
    fn name(&self) -> &'static str {
        "search-async"
    }

    fn next_action(&mut self, view: &SystemView<'_>) -> AsyncAction {
        self.decode_action(view)
            .unwrap_or_else(|| match self.deliver_skipping(view, 0) {
                Some((from, to)) => AsyncAction::Deliver { from, to },
                None => AsyncAction::Halt,
            })
    }
}

/// The genome decoder for the partial-synchrony model.
///
/// The tape opens with a constant header — GST (two bytes, `0..512`), Δ (one
/// byte, `1..=32`) and an omitted-sender set of at most `t` ids — decoded
/// once at construction, because the trait requires them constant over a run.
/// The remaining bytes decode per-step actions: cursor-based delivery of
/// admissible (non-omitted) channels, stalls, crashes and blind deliveries.
/// On tape exhaustion the decoder delivers admissible channels fairly and
/// halts once nothing admissible is pending (the enforced post-GST bound has
/// the last word either way).
#[derive(Debug, Clone)]
pub struct SearchPartialSyncAdversary {
    reader: TapeReader,
    gst: u64,
    delta: u64,
    omitted: Vec<ProcessorId>,
    cursor: ChannelCursor,
}

impl SearchPartialSyncAdversary {
    /// Decodes the constant GST/Δ/omission header from `tape` for a system
    /// of `cfg.n()` processors; a tape too short for the header yields the
    /// benign defaults (GST 0, Δ 8, no omissions).
    pub fn from_tape(tape: impl Into<Arc<[u8]>>, cfg: &SystemConfig) -> Self {
        let mut reader = TapeReader::new(tape);
        let header = (|| {
            let gst = u64::from(reader.u16()?) % 512;
            let delta = 1 + u64::from(reader.byte()?) % 32;
            let omission_count = reader.byte()? as usize % (cfg.t() + 1);
            let mut omitted = Vec::with_capacity(omission_count);
            for _ in 0..omission_count {
                let id = reader.fresh_id(cfg.n(), |id| omitted.contains(&id))?;
                omitted.push(id);
            }
            Some((gst, delta, omitted))
        })();
        let (gst, delta, omitted) = header.unwrap_or((0, 8, Vec::new()));
        SearchPartialSyncAdversary {
            reader,
            gst,
            delta,
            omitted,
            cursor: ChannelCursor::default(),
        }
    }

    /// A decoder from a tagged genome.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::ModelMismatch`] when the genome is tagged for a
    /// different model.
    pub fn from_genome(genome: &Genome, cfg: &SystemConfig) -> Result<Self, GenomeError> {
        genome.expect_model(PARTIAL_SYNC.id())?;
        Ok(SearchPartialSyncAdversary::from_tape(
            Arc::clone(&genome.tape),
            cfg,
        ))
    }

    /// The next admissible (non-omitted, non-crashed-recipient) pending
    /// channel at or after the persistent cursor.
    fn next_admissible(&mut self, view: &SystemView<'_>) -> Option<(ProcessorId, ProcessorId)> {
        let omitted = &self.omitted;
        let found =
            view.next_pending_channel_where(self.cursor, |from, _| !omitted.contains(&from));
        match found {
            Some((next, from, to)) => {
                self.cursor = next;
                Some((from, to))
            }
            None => None,
        }
    }

    fn decode_action(&mut self, view: &SystemView<'_>) -> Option<PartialSyncAction> {
        let n = view.n();
        let op = self.reader.byte()?;
        let action = match op % 8 {
            0..=4 => match self.next_admissible(view) {
                Some((from, to)) => PartialSyncAction::Deliver { from, to },
                None => PartialSyncAction::Stall,
            },
            5 => PartialSyncAction::Stall,
            6 => PartialSyncAction::Crash(ProcessorId::new(self.reader.byte()? as usize % n)),
            _ => {
                let from = ProcessorId::new(self.reader.byte()? as usize % n);
                let to = ProcessorId::new(self.reader.byte()? as usize % n);
                PartialSyncAction::Deliver { from, to }
            }
        };
        Some(action)
    }
}

impl PartialSyncAdversary for SearchPartialSyncAdversary {
    fn name(&self) -> &'static str {
        "search-partial-sync"
    }

    fn gst(&self) -> u64 {
        self.gst
    }

    fn delta(&self) -> u64 {
        self.delta
    }

    fn omitted_senders(&self) -> &[ProcessorId] {
        &self.omitted
    }

    fn next_action(&mut self, view: &SystemView<'_>) -> PartialSyncAction {
        self.decode_action(view)
            .unwrap_or_else(|| match self.next_admissible(view) {
                Some((from, to)) => PartialSyncAction::Deliver { from, to },
                None => PartialSyncAction::Halt,
            })
    }
}

/// Builds the adversary a genome encodes, dispatching on its model tag.
///
/// # Errors
///
/// Returns [`GenomeError::UnknownModel`] when the tag matches no registered
/// execution model — never a silent benign fallback.
pub fn build_from_genome(
    genome: &Genome,
    cfg: &SystemConfig,
) -> Result<BuiltAdversary, GenomeError> {
    if genome.model() == WINDOWED.id() {
        Ok(BuiltAdversary::windowed(Box::new(
            SearchWindowAdversary::from_genome(genome)?,
        )))
    } else if genome.model() == ASYNC.id() {
        Ok(BuiltAdversary::asynchronous(Box::new(
            SearchAsyncAdversary::from_genome(genome)?,
        )))
    } else if genome.model() == PARTIAL_SYNC.id() {
        Ok(BuiltAdversary::partial_sync(Box::new(
            SearchPartialSyncAdversary::from_genome(genome, cfg)?,
        )))
    } else {
        Err(GenomeError::UnknownModel {
            model: genome.model().to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genome_hex_round_trips() {
        let genome = Genome::from_seed(ASYNC.id(), 7, 32);
        let back = Genome::from_hex(ASYNC.id(), &genome.to_hex()).unwrap();
        assert_eq!(genome, back);
    }

    #[test]
    fn genome_from_seed_is_deterministic_and_seed_sensitive() {
        let a = Genome::from_seed(ASYNC.id(), 7, 64);
        let b = Genome::from_seed(ASYNC.id(), 7, 64);
        let c = Genome::from_seed(ASYNC.id(), 8, 64);
        assert_eq!(a, b);
        assert_ne!(a.tape(), c.tape());
    }

    #[test]
    fn bad_hex_is_rejected() {
        assert!(matches!(
            Genome::from_hex("async", "abc"),
            Err(GenomeError::BadHex { .. })
        ));
        assert!(matches!(
            Genome::from_hex("async", "zz"),
            Err(GenomeError::BadHex { .. })
        ));
    }

    #[test]
    fn non_ascii_hex_is_an_error_not_a_panic() {
        // Even byte lengths whose pairs straddle a two-byte character, a
        // pair that is one character, a sign `from_str_radix` would take,
        // and a hex digit outside ASCII's.
        for hex in ["0é0", "é", "00é0", "+f", "00٣"] {
            assert!(
                matches!(
                    Genome::from_hex("windowed", hex),
                    Err(GenomeError::BadHex { .. })
                ),
                "{hex:?}"
            );
        }
        let genome = Genome::from_hex("windowed", "0aFf").unwrap();
        assert_eq!(genome.tape(), [0x0a, 0xff]);
    }

    #[test]
    fn decoders_reject_foreign_model_tags_loudly() {
        let cfg = SystemConfig::new(5, 1).unwrap();
        let wrong = Genome::from_seed(ASYNC.id(), 1, 16);
        let err = SearchWindowAdversary::from_genome(&wrong).unwrap_err();
        assert!(matches!(err, GenomeError::ModelMismatch { .. }));
        assert!(err.to_string().contains("refusing"));
        assert!(
            SearchAsyncAdversary::from_genome(&Genome::from_seed(WINDOWED.id(), 1, 16)).is_err()
        );
        assert!(SearchPartialSyncAdversary::from_genome(
            &Genome::from_seed(ASYNC.id(), 1, 16),
            &cfg
        )
        .is_err());
        assert!(matches!(
            build_from_genome(&Genome::from_seed("no-such-model", 1, 16), &cfg),
            Err(GenomeError::UnknownModel { .. })
        ));
    }

    #[test]
    fn build_from_genome_dispatches_on_the_tag() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        for (tag, expected) in [
            (WINDOWED.id(), "search-window"),
            (ASYNC.id(), "search-async"),
            (PARTIAL_SYNC.id(), "search-partial-sync"),
        ] {
            let built = build_from_genome(&Genome::from_seed(tag, 3, 64), &cfg).unwrap();
            assert_eq!(built.name(), expected);
            assert_eq!(built.model().id(), tag);
        }
    }

    #[test]
    fn partial_sync_header_is_constant_and_in_range() {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let genome = Genome::from_seed(PARTIAL_SYNC.id(), 11, 128);
        let adversary = SearchPartialSyncAdversary::from_genome(&genome, &cfg).unwrap();
        assert!(adversary.gst() < 512);
        assert!((1..=32).contains(&adversary.delta()));
        assert!(adversary.omitted_senders().len() <= cfg.t());
        // The empty tape yields the benign defaults, not a panic.
        let empty = SearchPartialSyncAdversary::from_tape(Vec::new(), &cfg);
        assert_eq!(empty.gst(), 0);
        assert_eq!(empty.delta(), 8);
        assert!(empty.omitted_senders().is_empty());
    }

    /// `distinct_ids` as it was before the decoder filled a window in place:
    /// `k` distinct ids, collisions probed forward, in a fresh vector.
    fn reference_distinct_ids(
        reader: &mut TapeReader,
        n: usize,
        k: usize,
    ) -> Option<Vec<ProcessorId>> {
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        for _ in 0..k {
            let mut index = reader.byte()? as usize % n;
            while chosen.contains(&index) {
                index = (index + 1) % n;
            }
            chosen.push(index);
        }
        Some(chosen.into_iter().map(ProcessorId::new).collect())
    }

    /// `decode_window` as it was before: 3 + 2n vectors per window, one per
    /// exclusion list and per delivery set. Kept as the reference the
    /// in-place decoder is compared against.
    fn reference_decode_window(reader: &mut TapeReader, n: usize, t: usize) -> Option<Window> {
        let reset_count = reader.byte()? as usize % (t + 1);
        let resets = reference_distinct_ids(reader, n, reset_count)?;
        let all: Vec<ProcessorId> = ProcessorId::all(n).collect();
        let mut deliveries = Vec::with_capacity(n);
        for _ in 0..n {
            let excluded_count = reader.byte()? as usize % (t + 1);
            let excluded = reference_distinct_ids(reader, n, excluded_count)?;
            let senders: Vec<ProcessorId> = all
                .iter()
                .copied()
                .filter(|p| !excluded.contains(p))
                .collect();
            deliveries.push(senders);
        }
        Some(Window::new(resets, deliveries))
    }

    #[test]
    fn in_place_decoder_matches_the_allocating_reference_on_random_tapes() {
        let mut rng = ProcessorRng::from_seed(0x7A9E);
        let mut cut_short = 0;
        for (n, t) in [(4, 1), (5, 1), (7, 1), (7, 2), (13, 2)] {
            let cfg = SystemConfig::new(n, t).unwrap();
            for round in 0..60 {
                // Lengths 0..=2 048, the short ones over-represented so the
                // empty tape and tapes of under one window are hit too.
                let len = match round % 3 {
                    0 => rng.range(2 * n as u64 + 4) as usize,
                    _ => rng.range(2_049) as usize,
                };
                let tape: Vec<u8> = (0..len).map(|_| rng.range(256) as u8).collect();
                let mut reader = TapeReader::new(tape.clone());
                let mut reference = TapeReader::new(tape);
                // One window value throughout: every decode overwrites what
                // the one before left, fragments of a cut-short one included.
                let mut window = Window::default();
                let mut windows = 0u64;
                loop {
                    let decoded = decode_window(&mut reader, n, t, &mut window);
                    let expected = reference_decode_window(&mut reference, n, t);
                    assert_eq!(
                        decoded.is_some(),
                        expected.is_some(),
                        "n={n} t={t} len={len}"
                    );
                    assert_eq!(reader.pos, reference.pos, "n={n} t={t} len={len}");
                    let Some(expected) = expected else {
                        assert!(reader.exhausted());
                        cut_short += u64::from(len > 0 && window != Window::default());
                        break;
                    };
                    assert_eq!(window.resets(), expected.resets());
                    for i in 0..n {
                        assert_eq!(window.delivery_set(i), expected.delivery_set(i));
                    }
                    assert_eq!(window, expected);
                    assert_eq!(window.validate(&cfg), Ok(()));
                    windows += 1;
                }
                let genome = Genome::new(WINDOWED.id(), reader.tape);
                assert_eq!(genome.windows_encoded(n, t), windows);
            }
        }
        assert!(
            cut_short > 50,
            "the generator must end tapes mid-window ({cut_short} did)"
        );
    }

    #[test]
    fn colliding_tape_bytes_still_decode_distinct_ids() {
        // n = 5, t = 4: four resets and, for recipient 0, four exclusions,
        // every id byte the same.
        let mut tape = vec![4, 3, 3, 3, 3, 4, 3, 3, 3, 3];
        tape.extend([0; 4]);
        let mut window = Window::default();
        decode_window(&mut TapeReader::new(tape), 5, 4, &mut window).unwrap();
        let ids = |indices: &[usize]| -> Vec<ProcessorId> {
            indices.iter().copied().map(ProcessorId::new).collect()
        };
        assert_eq!(window.resets(), ids(&[3, 4, 0, 1]));
        assert_eq!(window.delivery_set(0), ids(&[2]));
        assert_eq!(window.delivery_set(1), ids(&[0, 1, 2, 3, 4]));
        assert_eq!(window.arity(), 5);
    }

    #[test]
    fn a_genome_knows_where_its_tape_ends() {
        // n = 4, t = 1, all-zero bytes: no resets, no exclusions, 1 + 4
        // bytes per window.
        let genome = |len: usize| Genome::new(WINDOWED.id(), vec![0u8; len]);
        assert_eq!(genome(0).windows_encoded(4, 1), 0);
        assert_eq!(genome(4).windows_encoded(4, 1), 0);
        assert_eq!(genome(5).windows_encoded(4, 1), 1);
        assert_eq!(genome(14).windows_encoded(4, 1), 2);
        assert_eq!(genome(15).windows_encoded(4, 1), 3);
    }

    #[test]
    fn tape_reader_reports_exhaustion() {
        let mut reader = TapeReader::new(vec![1, 2]);
        assert_eq!(reader.u16(), Some(0x0201));
        assert!(reader.exhausted());
        assert_eq!(reader.byte(), None);
    }
}
