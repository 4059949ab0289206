//! Columnar record-block encoding: the binary wire format that batches many
//! [`TrialRecord`]s into one orchestration frame.
//!
//! The per-trial JSON record frame spends most of its bytes on field names
//! and most of the coordinator's time on JSON parsing. A block frame instead
//! lays `N` records out **by column**: every field of [`TrialRecord`] becomes
//! one run of varints or one packed bitset, so the common shapes — contiguous
//! trial indices, seeds at a constant stride, boolean outcome flags that are
//! almost always `true`, metrics counters near zero — collapse to a byte or
//! a bit each. The body can optionally pass through the std-only LZ codec
//! ([`agreement_analysis::lz_compress`]); either way the transport's frame
//! CRC covers the final payload, so in-flight damage surfaces as
//! `FrameCorrupt` before this decoder runs. This decoder's own checks guard against the *other* failure class:
//! truncated, malformed, or adversarial bytes decode to a loud error, never
//! to fabricated records.
//!
//! # Layout
//!
//! ```text
//! [0]      magic 0xB5          (never '{' — JSON frames stay recognizable)
//! [1]      version (currently 1)
//! [2]      flags (bit 0: body is LZ-compressed; other bits must be zero)
//! varint   job id
//! varint   record count
//! varint   raw body length in bytes (pre-compression)
//! bytes    body (raw, or LZ stream decompressing to exactly that length)
//! ```
//!
//! The body holds, in order: the `trial` column (first value, then zigzag
//! deltas), the `seed` column (same), packed bitsets for `agreement` /
//! `validity` / `terminated` / `halted`, a presence+value bitset pair for
//! `decided`, presence bitsets plus varint values for `first_decision_at`
//! and `all_decided_at`, varint columns for `violations` / `duration` /
//! `longest_chain`, and the ten `Metrics` counters as varint columns.

use agreement_analysis::{
    lz_compress, lz_decompress, read_varint, write_varint, zigzag_decode, zigzag_encode,
};
use agreement_model::Bit;
use agreement_sim::Metrics;

use crate::record::TrialRecord;

/// First byte of every block frame. Distinct from `{` (0x7B), the first byte
/// of every JSON frame, which is all the frame-kind discrimination the
/// protocol needs.
pub const BLOCK_MAGIC: u8 = 0xB5;

/// Current block-format version; bumped on any layout change.
pub const BLOCK_VERSION: u8 = 1;

/// Flag bit 0: the body is an LZ stream.
const FLAG_COMPRESSED: u8 = 0x01;

/// Whether a received frame is a record block (as opposed to a JSON frame).
#[must_use]
pub fn is_block_frame(frame: &[u8]) -> bool {
    frame.first() == Some(&BLOCK_MAGIC)
}

/// Encodes `records` into one block frame payload for `job`. With
/// `compress`, the columnar body additionally runs through the LZ codec —
/// but only when that actually shrinks it, so pathological bodies never pay
/// expansion (the flag byte records which form shipped).
#[must_use]
pub fn encode_block(job: u64, records: &[TrialRecord], compress: bool) -> Vec<u8> {
    let body = encode_columns(records);
    let mut out = Vec::with_capacity(body.len() / 2 + 24);
    out.push(BLOCK_MAGIC);
    out.push(BLOCK_VERSION);
    let mut flags = 0u8;
    let mut packed = None;
    if compress {
        let candidate = lz_compress(&body);
        if candidate.len() < body.len() {
            flags |= FLAG_COMPRESSED;
            packed = Some(candidate);
        }
    }
    out.push(flags);
    write_varint(&mut out, job);
    write_varint(&mut out, records.len() as u64);
    write_varint(&mut out, body.len() as u64);
    match packed {
        Some(candidate) => out.extend_from_slice(&candidate),
        None => out.extend_from_slice(&body),
    }
    out
}

/// Decodes a block frame back into `(job, records)` — the exact records
/// [`encode_block`] was given.
///
/// # Errors
///
/// Every malformed shape is an error naming what broke: wrong magic or
/// version, unknown flag bits, a count or length the body cannot hold, an LZ
/// stream that does not decompress to the declared length, truncated
/// columns, out-of-range values, or trailing bytes.
pub fn decode_block(frame: &[u8]) -> Result<(u64, Vec<TrialRecord>), String> {
    if frame.first() != Some(&BLOCK_MAGIC) {
        return Err("not a block frame (bad magic)".to_string());
    }
    let version = *frame.get(1).ok_or("truncated block header")?;
    if version != BLOCK_VERSION {
        return Err(format!(
            "unsupported block version {version} (this side speaks {BLOCK_VERSION})"
        ));
    }
    let flags = *frame.get(2).ok_or("truncated block header")?;
    if flags & !FLAG_COMPRESSED != 0 {
        return Err(format!("unknown block flags {flags:#04x}"));
    }
    let mut pos = 3usize;
    let job = read_varint(frame, &mut pos)?;
    let count = read_varint(frame, &mut pos)?;
    let raw_len = read_varint(frame, &mut pos)?;
    // Every record costs at least one trial-column byte, so a count above
    // the raw body length is a lie — reject it before any allocation
    // proportional to it.
    if count > raw_len && count != 0 {
        return Err(format!(
            "block claims {count} record(s) in a {raw_len}-byte body"
        ));
    }
    let payload = &frame[pos..];
    let decompressed;
    let body: &[u8] = if flags & FLAG_COMPRESSED != 0 {
        decompressed = lz_decompress(payload, raw_len as usize)?;
        &decompressed
    } else {
        if payload.len() as u64 != raw_len {
            return Err(format!(
                "block declares a {raw_len}-byte body but carries {}",
                payload.len()
            ));
        }
        payload
    };
    let records = decode_columns(body, count as usize)?;
    Ok((job, records))
}

/// Appends `count` bits (one closure call each) as a packed bitset.
fn write_bitset(out: &mut Vec<u8>, count: usize, mut bit: impl FnMut(usize) -> bool) {
    let mut byte = 0u8;
    for i in 0..count {
        if bit(i) {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !count.is_multiple_of(8) {
        out.push(byte);
    }
}

/// Reads a `count`-bit packed bitset, advancing `*pos` past it.
fn read_bitset(bytes: &[u8], pos: &mut usize, count: usize) -> Result<Vec<bool>, String> {
    let len = count.div_ceil(8);
    let packed = bytes
        .get(*pos..*pos + len)
        .ok_or_else(|| format!("truncated bitset at byte {}", *pos))?;
    *pos += len;
    Ok((0..count)
        .map(|i| packed[i / 8] & (1 << (i % 8)) != 0)
        .collect())
}

/// Writes one u64 column as first-value + zigzag deltas (for near-monotone
/// columns like trial indices and seeds).
fn write_delta_column(out: &mut Vec<u8>, values: impl Iterator<Item = u64>) {
    let mut previous = 0u64;
    let mut first = true;
    for value in values {
        if first {
            write_varint(out, value);
            first = false;
        } else {
            write_varint(out, zigzag_encode(value.wrapping_sub(previous) as i64));
        }
        previous = value;
    }
}

fn read_delta_column(bytes: &[u8], pos: &mut usize, count: usize) -> Result<Vec<u64>, String> {
    let mut values = Vec::with_capacity(count);
    let mut previous = 0u64;
    for i in 0..count {
        previous = if i == 0 {
            read_varint(bytes, pos)?
        } else {
            previous.wrapping_add(zigzag_decode(read_varint(bytes, pos)?) as u64)
        };
        values.push(previous);
    }
    Ok(values)
}

/// Writes one plain varint column.
fn write_column(out: &mut Vec<u8>, values: impl Iterator<Item = u64>) {
    for value in values {
        write_varint(out, value);
    }
}

fn read_column(bytes: &[u8], pos: &mut usize, count: usize) -> Result<Vec<u64>, String> {
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(read_varint(bytes, pos)?);
    }
    Ok(values)
}

/// Writes an `Option<u64>` column: a presence bitset, then the present
/// values as varints.
fn write_optional_column(
    out: &mut Vec<u8>,
    count: usize,
    mut value: impl FnMut(usize) -> Option<u64>,
) {
    let mut present = Vec::with_capacity(count);
    for i in 0..count {
        present.push(value(i));
    }
    write_bitset(out, count, |i| present[i].is_some());
    write_column(out, present.iter().filter_map(|v| *v));
}

fn read_optional_column(
    bytes: &[u8],
    pos: &mut usize,
    count: usize,
) -> Result<Vec<Option<u64>>, String> {
    let present = read_bitset(bytes, pos, count)?;
    present
        .into_iter()
        .map(|set| {
            if set {
                read_varint(bytes, pos).map(Some)
            } else {
                Ok(None)
            }
        })
        .collect()
}

fn encode_columns(records: &[TrialRecord]) -> Vec<u8> {
    let count = records.len();
    // ~2.5 bytes per record for typical campaign batches; resized as needed.
    let mut out = Vec::with_capacity(count * 3 + 16);
    write_delta_column(&mut out, records.iter().map(|r| r.trial));
    write_delta_column(&mut out, records.iter().map(|r| r.seed));
    write_bitset(&mut out, count, |i| records[i].agreement);
    write_bitset(&mut out, count, |i| records[i].validity);
    write_bitset(&mut out, count, |i| records[i].terminated);
    write_bitset(&mut out, count, |i| records[i].halted);
    write_bitset(&mut out, count, |i| records[i].decided.is_some());
    write_bitset(&mut out, count, |i| records[i].decided == Some(Bit::One));
    write_optional_column(&mut out, count, |i| records[i].first_decision_at);
    write_optional_column(&mut out, count, |i| records[i].all_decided_at);
    write_column(&mut out, records.iter().map(|r| r.violations));
    write_column(&mut out, records.iter().map(|r| r.duration));
    write_column(&mut out, records.iter().map(|r| r.longest_chain));
    for metric in METRIC_FIELDS {
        write_column(&mut out, records.iter().map(|r| metric.get(&r.metrics)));
    }
    out
}

fn decode_columns(body: &[u8], count: usize) -> Result<Vec<TrialRecord>, String> {
    let mut pos = 0usize;
    let trial = read_delta_column(body, &mut pos, count)?;
    let seed = read_delta_column(body, &mut pos, count)?;
    let agreement = read_bitset(body, &mut pos, count)?;
    let validity = read_bitset(body, &mut pos, count)?;
    let terminated = read_bitset(body, &mut pos, count)?;
    let halted = read_bitset(body, &mut pos, count)?;
    let decided_present = read_bitset(body, &mut pos, count)?;
    let decided_one = read_bitset(body, &mut pos, count)?;
    for i in 0..count {
        if decided_one[i] && !decided_present[i] {
            return Err(format!(
                "record {i}: decided value bit set without its presence bit"
            ));
        }
    }
    let first_decision_at = read_optional_column(body, &mut pos, count)?;
    let all_decided_at = read_optional_column(body, &mut pos, count)?;
    let violations = read_column(body, &mut pos, count)?;
    let duration = read_column(body, &mut pos, count)?;
    let longest_chain = read_column(body, &mut pos, count)?;
    let mut metrics = vec![Metrics::default(); count];
    for metric in METRIC_FIELDS {
        for target in metrics.iter_mut() {
            metric.set(target, read_varint(body, &mut pos)?);
        }
    }
    if pos != body.len() {
        return Err(format!(
            "block body carries {} trailing byte(s) after the last column",
            body.len() - pos
        ));
    }
    Ok((0..count)
        .map(|i| TrialRecord {
            trial: trial[i],
            seed: seed[i],
            agreement: agreement[i],
            validity: validity[i],
            terminated: terminated[i],
            violations: violations[i],
            halted: halted[i],
            decided: match (decided_present[i], decided_one[i]) {
                (false, _) => None,
                (true, false) => Some(Bit::Zero),
                (true, true) => Some(Bit::One),
            },
            first_decision_at: first_decision_at[i],
            all_decided_at: all_decided_at[i],
            duration: duration[i],
            longest_chain: longest_chain[i],
            metrics: metrics[i],
        })
        .collect())
}

/// One [`Metrics`] counter as a column: accessor pair, kept in a table so the
/// encoder and decoder can never disagree on field order.
struct MetricField {
    get: fn(&Metrics) -> u64,
    set: fn(&mut Metrics, u64),
}

impl MetricField {
    fn get(&self, metrics: &Metrics) -> u64 {
        (self.get)(metrics)
    }
    fn set(&self, metrics: &mut Metrics, value: u64) {
        (self.set)(metrics, value)
    }
}

macro_rules! metric_field {
    ($field:ident) => {
        MetricField {
            get: |m| m.$field,
            set: |m, v| m.$field = v,
        }
    };
}

/// The ten counters, in the same order `TrialRecord::to_json` emits them.
const METRIC_FIELDS: [MetricField; 10] = [
    metric_field!(messages_sent),
    metric_field!(messages_delivered),
    metric_field!(messages_dropped),
    metric_field!(rounds),
    metric_field!(windows),
    metric_field!(steps),
    metric_field!(resets_consumed),
    metric_field!(crashes),
    metric_field!(coin_flips),
    metric_field!(max_chain),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A seeded random record with every field exercised, including the
    /// `Option` and `Bit` shapes.
    fn random_record(state: &mut u64, trial: u64) -> TrialRecord {
        let seed = xorshift(state);
        let agreement = xorshift(state) % 100 < 90;
        let validity = xorshift(state) % 100 < 90;
        let terminated = xorshift(state) % 100 < 80;
        let violations = xorshift(state) % 5;
        let halted = xorshift(state) % 100 < 10;
        let decided = match xorshift(state) % 3 {
            0 => None,
            1 => Some(Bit::Zero),
            _ => Some(Bit::One),
        };
        let first_decision_present = xorshift(state) % 100 < 70;
        let first_decision_value = xorshift(state) % 10_000;
        let all_decided_present = xorshift(state) % 100 < 60;
        let all_decided_value = xorshift(state) % 10_000;
        TrialRecord {
            trial,
            seed,
            agreement,
            validity,
            terminated,
            violations,
            halted,
            decided,
            first_decision_at: first_decision_present.then_some(first_decision_value),
            all_decided_at: all_decided_present.then_some(all_decided_value),
            duration: xorshift(state) % 100_000,
            longest_chain: xorshift(state) % 1_000,
            metrics: Metrics {
                messages_sent: xorshift(state) % 1_000_000,
                messages_delivered: xorshift(state) % 1_000_000,
                messages_dropped: xorshift(state) % 1_000,
                rounds: xorshift(state) % 500,
                windows: xorshift(state) % 2_000,
                steps: xorshift(state) % 5_000_000,
                resets_consumed: xorshift(state) % 20,
                crashes: xorshift(state) % 3,
                coin_flips: xorshift(state) % 10_000,
                max_chain: xorshift(state) % 1_000,
            },
        }
    }

    fn batch(seed: u64, count: usize) -> Vec<TrialRecord> {
        let mut state = seed.max(1);
        (0..count as u64)
            .map(|t| random_record(&mut state, 1_000 + t))
            .collect()
    }

    #[test]
    fn seeded_random_batches_round_trip_compressed_and_raw() {
        for seed in 1..=25u64 {
            let count = (seed as usize * 7) % 300;
            let records = batch(seed, count);
            for compress in [false, true] {
                let frame = encode_block(seed, &records, compress);
                assert!(is_block_frame(&frame));
                let (job, decoded) = decode_block(&frame)
                    .unwrap_or_else(|err| panic!("seed {seed} compress {compress}: {err}"));
                assert_eq!(job, seed);
                assert_eq!(decoded, records, "seed {seed} compress {compress}");
            }
        }
    }

    #[test]
    fn extreme_values_round_trip() {
        let mut extreme = batch(99, 3);
        extreme[0].seed = u64::MAX;
        extreme[0].trial = u64::MAX - 1;
        extreme[1].trial = 0; // a *negative* trial delta after MAX - 1
        extreme[1].metrics.steps = u64::MAX;
        extreme[2].first_decision_at = Some(u64::MAX);
        for compress in [false, true] {
            let frame = encode_block(u64::MAX, &extreme, compress);
            let (job, decoded) = decode_block(&frame).expect("extreme batch decodes");
            assert_eq!(job, u64::MAX);
            assert_eq!(decoded, extreme);
        }
    }

    #[test]
    fn empty_blocks_round_trip() {
        for compress in [false, true] {
            let frame = encode_block(7, &[], compress);
            let (job, decoded) = decode_block(&frame).expect("empty block decodes");
            assert_eq!(job, 7);
            assert!(decoded.is_empty());
        }
    }

    #[test]
    fn campaign_shaped_batches_beat_the_json_encoding_handily() {
        // Contiguous trials, stride-1 seeds, uniform flags: the shape real
        // campaign batches have. This is the size claim the wire change is
        // built on, so pin it.
        let records: Vec<TrialRecord> = (0..256u64)
            .map(|t| TrialRecord {
                trial: t,
                seed: 0x5EED + t,
                agreement: true,
                validity: true,
                terminated: true,
                violations: 0,
                halted: false,
                decided: Some(Bit::One),
                first_decision_at: Some(10 + t % 7),
                all_decided_at: Some(12 + t % 7),
                duration: 12 + t % 7,
                longest_chain: 3,
                metrics: Metrics {
                    messages_sent: 400 + t % 13,
                    messages_delivered: 390 + t % 13,
                    messages_dropped: 10,
                    rounds: 4,
                    windows: 12 + t % 7,
                    steps: 0,
                    resets_consumed: 1,
                    crashes: 0,
                    coin_flips: 60 + t % 5,
                    max_chain: 3,
                },
            })
            .collect();
        let json_bytes: usize = records.iter().map(|r| r.to_json().to_string().len()).sum();
        let raw = encode_block(0, &records, false);
        let packed = encode_block(0, &records, true);
        assert!(
            raw.len() * 10 < json_bytes,
            "columnar ({}) should be under a tenth of JSON ({json_bytes})",
            raw.len()
        );
        assert!(packed.len() < raw.len(), "LZ should shrink this shape");
        assert_eq!(decode_block(&packed).unwrap().1, records);
    }

    #[test]
    fn truncations_and_bit_errors_decode_loudly_never_wrongly() {
        let records = batch(3, 64);
        for compress in [false, true] {
            let frame = encode_block(11, &records, compress);
            // Every prefix must fail: nothing shorter than the frame decodes.
            for cut in 0..frame.len() {
                assert!(
                    decode_block(&frame[..cut]).is_err(),
                    "truncation at {cut} (compress {compress}) must error"
                );
            }
            // Flipping any single header/metadata byte must error or decode
            // to *different* records — never quietly to the originals with a
            // lie somewhere. (In-flight flips are the frame CRC's job; this
            // pins the decoder's own robustness.)
            for target in 0..frame.len().min(16) {
                let mut damaged = frame.clone();
                damaged[target] ^= 0x04;
                if let Ok((job, decoded)) = decode_block(&damaged) {
                    assert!(
                        job != 11 || decoded != records,
                        "byte {target} flip decoded back to the originals"
                    );
                }
            }
        }
    }

    #[test]
    fn wrong_magic_version_and_flags_are_rejected() {
        let frame = encode_block(1, &batch(5, 4), false);
        let mut wrong_magic = frame.clone();
        wrong_magic[0] = b'{';
        assert!(decode_block(&wrong_magic).unwrap_err().contains("magic"));
        let mut wrong_version = frame.clone();
        wrong_version[1] = BLOCK_VERSION + 1;
        assert!(decode_block(&wrong_version)
            .unwrap_err()
            .contains("version"));
        let mut wrong_flags = frame.clone();
        wrong_flags[2] |= 0x80;
        assert!(decode_block(&wrong_flags).unwrap_err().contains("flags"));
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocation() {
        // Header claiming 2^50 records in a 3-byte body.
        let mut frame = vec![BLOCK_MAGIC, BLOCK_VERSION, 0];
        agreement_analysis::write_varint(&mut frame, 9); // job
        agreement_analysis::write_varint(&mut frame, 1 << 50); // count
        agreement_analysis::write_varint(&mut frame, 3); // raw_len
        frame.extend_from_slice(&[0, 0, 0]);
        let err = decode_block(&frame).unwrap_err();
        assert!(err.contains("claims"), "{err}");
    }

    #[test]
    fn json_and_block_frames_are_distinguishable_by_first_byte() {
        let json = b"{\"type\":\"record\"}";
        assert!(!is_block_frame(json));
        let block = encode_block(0, &[], false);
        assert!(is_block_frame(&block));
        assert_ne!(BLOCK_MAGIC, b'{');
    }

    #[test]
    fn max_size_blocks_stay_under_the_frame_cap() {
        // A worst-case record (every field at u64::MAX) costs ~26 varints of
        // ≤ 10 bytes each; 65536 of them — the worker-side batch clamp —
        // must still fit one 64 MiB transport frame.
        let worst = TrialRecord {
            trial: u64::MAX,
            seed: u64::MAX,
            agreement: true,
            validity: true,
            terminated: true,
            violations: u64::MAX,
            halted: true,
            decided: Some(Bit::One),
            first_decision_at: Some(u64::MAX),
            all_decided_at: Some(u64::MAX),
            duration: u64::MAX,
            longest_chain: u64::MAX,
            metrics: Metrics {
                messages_sent: u64::MAX,
                messages_delivered: u64::MAX,
                messages_dropped: u64::MAX,
                rounds: u64::MAX,
                windows: u64::MAX,
                steps: u64::MAX,
                resets_consumed: u64::MAX,
                crashes: u64::MAX,
                coin_flips: u64::MAX,
                max_chain: u64::MAX,
            },
        };
        let records = vec![worst; 65_536];
        let frame = encode_block(0, &records, false);
        assert!(
            frame.len() <= 64 << 20,
            "worst-case max batch is {} bytes",
            frame.len()
        );
        assert_eq!(decode_block(&frame).unwrap().1, records);
    }
}
