//! A std-only LZ77-style block codec: literal runs and bounded-window copy
//! ops, in the dependency-free spirit of the in-tree CRC32 and JSON.
//!
//! The orchestration wire uses this to shrink columnar record blocks before
//! framing. The format is deliberately simple — close kin of the LZ4 block
//! layout — and the decoder is paranoid: every offset, length, and output
//! bound is checked, so adversarial or truncated input decodes to a loud
//! error, never out-of-bounds reads or silent garbage. Integrity against
//! in-flight damage is the *frame* CRC's job (a bit-flipped payload is
//! rejected before this decoder ever sees it); this module's own checks are
//! about never trusting lengths it did not verify.
//!
//! # Format
//!
//! A compressed stream is a sequence of ops. Each op starts with a token
//! byte: the high nibble is the literal-run length, the low nibble the copy
//! length minus [`MIN_MATCH`]. A nibble of 15 is extended by subsequent
//! bytes (each adding 0–255, a value under 255 terminating the extension).
//! After the literals follows a 2-byte little-endian copy offset (1 ..=
//! [`WINDOW`], counted back from the current output position); the final op
//! of a stream carries literals only and omits the offset and copy length.
//! An empty input encodes to an empty stream.

/// Copy offsets reach at most this far back (the u16 offset range).
pub const WINDOW: usize = 64 * 1024;

/// Shortest copy worth emitting; shorter repeats ship as literals.
pub const MIN_MATCH: usize = 4;

/// The most output one input byte can decode to.
const MAX_EXPANSION: usize = 255;

/// Hash-table size for match finding (log2): 1 << 13 slots.
const HASH_BITS: u32 = 13;

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

fn push_len(out: &mut Vec<u8>, mut len: usize) {
    while len >= 255 {
        out.push(255);
        len -= 255;
    }
    out.push(len as u8);
}

/// Compresses `input`. The output always decompresses (via
/// [`lz_decompress`] with the exact original length) back to `input`;
/// incompressible data degrades to literal runs with ~0.4% framing overhead.
#[must_use]
pub fn lz_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut pos = 0usize;
    let mut literal_start = 0usize;

    while pos + MIN_MATCH <= input.len() {
        let slot = hash4(&input[pos..]);
        let candidate = table[slot];
        table[slot] = pos;
        let found = candidate != usize::MAX
            && pos - candidate <= WINDOW
            && input[candidate..candidate + MIN_MATCH] == input[pos..pos + MIN_MATCH];
        if !found {
            pos += 1;
            continue;
        }
        // Extend the match greedily.
        let mut len = MIN_MATCH;
        while pos + len < input.len() && input[candidate + len] == input[pos + len] {
            len += 1;
        }
        emit_op(
            &mut out,
            &input[literal_start..pos],
            Some((pos - candidate, len)),
        );
        pos += len;
        literal_start = pos;
    }
    // Trailing literals (the whole input, when nothing matched). A stream
    // may also end directly after a copy op; the decoder accepts both.
    if literal_start < input.len() {
        emit_op(&mut out, &input[literal_start..], None);
    }
    out
}

fn emit_op(out: &mut Vec<u8>, literals: &[u8], copy: Option<(usize, usize)>) {
    let lit_nibble = literals.len().min(15) as u8;
    let match_nibble = match copy {
        Some((_, len)) => (len - MIN_MATCH).min(15) as u8,
        None => 0,
    };
    out.push((lit_nibble << 4) | match_nibble);
    if literals.len() >= 15 {
        push_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if let Some((offset, len)) = copy {
        debug_assert!((1..=WINDOW).contains(&offset));
        out.extend_from_slice(&(offset as u16).wrapping_sub(1).to_le_bytes());
        if len - MIN_MATCH >= 15 {
            push_len(out, len - MIN_MATCH - 15);
        }
    }
}

fn read_extended(input: &[u8], pos: &mut usize, nibble: usize) -> Result<usize, String> {
    let mut len = nibble;
    if nibble == 15 {
        loop {
            let Some(&byte) = input.get(*pos) else {
                return Err("truncated length extension".to_string());
            };
            *pos += 1;
            len += byte as usize;
            if byte < 255 {
                break;
            }
        }
    }
    Ok(len)
}

/// Decompresses a [`lz_compress`] stream, expecting exactly `expected_len`
/// output bytes.
///
/// # Errors
///
/// Truncated input, an op whose copy offset reaches before the start of the
/// output, or output diverging from `expected_len` in either direction — all
/// reported with enough context to log. Nothing is ever read or written out
/// of bounds, and nothing is allocated for an `expected_len` the input could
/// not produce.
pub fn lz_decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, String> {
    // An op yields at most 255 output bytes per input byte it spans (a copy:
    // 19 from its three fixed bytes, 255 per length-extension byte).
    if expected_len > input.len().saturating_mul(MAX_EXPANSION) {
        return Err(format!(
            "a {}-byte stream cannot decompress to the declared {expected_len} bytes",
            input.len()
        ));
    }
    let mut out: Vec<u8> = Vec::with_capacity(expected_len);
    let mut pos = 0usize;
    while pos < input.len() {
        let token = input[pos];
        pos += 1;
        let lit_len = read_extended(input, &mut pos, (token >> 4) as usize)?;
        let literals = input
            .get(pos..pos + lit_len)
            .ok_or_else(|| format!("literal run of {lit_len} overruns the input at {pos}"))?;
        if out.len() + lit_len > expected_len {
            return Err(format!(
                "output exceeds the declared {expected_len} bytes in a literal run"
            ));
        }
        out.extend_from_slice(literals);
        pos += lit_len;
        if pos == input.len() {
            // Final op: literals only.
            break;
        }
        let offset_bytes = input
            .get(pos..pos + 2)
            .ok_or_else(|| format!("truncated copy offset at {pos}"))?;
        pos += 2;
        let offset = u16::from_le_bytes([offset_bytes[0], offset_bytes[1]]) as usize + 1;
        let copy_len = read_extended(input, &mut pos, (token & 0x0F) as usize)? + MIN_MATCH;
        if offset > out.len() {
            return Err(format!(
                "copy offset {offset} reaches before the output start (have {} bytes)",
                out.len()
            ));
        }
        if out.len() + copy_len > expected_len {
            return Err(format!(
                "output exceeds the declared {expected_len} bytes in a copy"
            ));
        }
        // Byte-at-a-time: overlapping copies (offset < len) are the RLE
        // idiom and must replicate the just-written bytes.
        let start = out.len() - offset;
        for i in 0..copy_len {
            let byte = out[start + i];
            out.push(byte);
        }
    }
    if out.len() != expected_len {
        return Err(format!(
            "stream ended at {} of the declared {expected_len} bytes",
            out.len()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn round_trip(input: &[u8]) -> Vec<u8> {
        let packed = lz_compress(input);
        lz_decompress(&packed, input.len()).expect("round trip decodes")
    }

    #[test]
    fn empty_and_tiny_inputs_round_trip() {
        assert_eq!(round_trip(b""), b"");
        assert!(lz_compress(b"").is_empty());
        for len in 1..=8usize {
            let input: Vec<u8> = (0..len as u8).collect();
            assert_eq!(round_trip(&input), input);
        }
    }

    #[test]
    fn repetitive_input_compresses_and_round_trips() {
        let input: Vec<u8> = b"abcdefgh".iter().copied().cycle().take(8_192).collect();
        let packed = lz_compress(&input);
        assert!(
            packed.len() < input.len() / 8,
            "8-byte cycle should shrink well ({} of {})",
            packed.len(),
            input.len()
        );
        assert_eq!(lz_decompress(&packed, input.len()).unwrap(), input);

        // Pure RLE: a single repeated byte exercises overlapping copies.
        let runs = vec![0x41u8; 100_000];
        let packed = lz_compress(&runs);
        assert!(
            packed.len() < 1_000,
            "RLE should collapse: {}",
            packed.len()
        );
        assert_eq!(lz_decompress(&packed, runs.len()).unwrap(), runs);
    }

    #[test]
    fn incompressible_noise_round_trips() {
        let mut state = 0xBADC_0FFE_u64;
        let noise: Vec<u8> = (0..70_000).map(|_| xorshift(&mut state) as u8).collect();
        assert_eq!(round_trip(&noise), noise);
    }

    #[test]
    fn mixed_structure_round_trips_across_seeds() {
        for seed in 1..=20u64 {
            let mut state = seed;
            let mut input = Vec::new();
            while input.len() < 10_000 {
                match xorshift(&mut state) % 3 {
                    0 => {
                        let byte = xorshift(&mut state) as u8;
                        let run = (xorshift(&mut state) % 200) as usize;
                        input.extend(std::iter::repeat_n(byte, run));
                    }
                    1 => {
                        let n = (xorshift(&mut state) % 100) as usize;
                        input.extend((0..n).map(|_| xorshift(&mut state) as u8));
                    }
                    _ => {
                        // Repeat an earlier slice: long-range matches.
                        if !input.is_empty() {
                            let start = (xorshift(&mut state) as usize) % input.len();
                            let len =
                                ((xorshift(&mut state) % 300) as usize).min(input.len() - start);
                            let slice = input[start..start + len].to_vec();
                            input.extend_from_slice(&slice);
                        }
                    }
                }
            }
            assert_eq!(round_trip(&input), input, "seed {seed}");
        }
    }

    #[test]
    fn matches_beyond_the_window_are_not_used() {
        // A repeated 16-byte motif separated by > WINDOW bytes of noise: the
        // second occurrence is out of copy range and must ship as literals
        // (correctness is what matters; this pins that the encoder respects
        // the bound the decoder enforces).
        let motif = b"window-boundary!";
        let mut state = 7u64;
        let mut input = motif.to_vec();
        input.extend((0..WINDOW + 100).map(|_| xorshift(&mut state) as u8));
        input.extend_from_slice(motif);
        assert_eq!(round_trip(&input), input);
    }

    #[test]
    fn truncated_streams_error_loudly() {
        let input: Vec<u8> = b"compressible compressible compressible data"
            .iter()
            .copied()
            .cycle()
            .take(2_000)
            .collect();
        let packed = lz_compress(&input);
        for cut in 0..packed.len() {
            assert!(
                lz_decompress(&packed[..cut], input.len()).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn adversarial_streams_never_panic_and_error_on_bad_offsets() {
        // An op copying from before the output start.
        let bad_offset = [0x04u8, 0xFF, 0x00]; // 0 literals, offset 256, copy 8
        assert!(lz_decompress(&bad_offset, 64).is_err());

        // Random bytes: must error or produce wrong-length output, never
        // panic or read out of bounds.
        let mut state = 0xFEED_u64;
        for _ in 0..500 {
            let len = (xorshift(&mut state) % 64) as usize;
            let junk: Vec<u8> = (0..len).map(|_| xorshift(&mut state) as u8).collect();
            let _ = lz_decompress(&junk, 128);
        }
    }

    #[test]
    fn declared_length_mismatches_are_rejected_both_ways() {
        let input = vec![0x55u8; 4_096];
        let packed = lz_compress(&input);
        assert!(lz_decompress(&packed, input.len() - 1).is_err(), "short");
        assert!(lz_decompress(&packed, input.len() + 1).is_err(), "long");
        // A length no stream of this size can reach is refused before it is
        // allocated for.
        for absurd in [1 << 40, usize::MAX] {
            assert!(lz_decompress(&packed, absurd).is_err(), "{absurd}");
        }
    }
}
