//! LEB128-style variable-length integers and zigzag mapping — the integer
//! primitives of the columnar record-block codec.
//!
//! A `u64` is emitted as 1–10 bytes, 7 payload bits per byte, low bits
//! first, the high bit of each byte marking continuation. Small values —
//! the overwhelmingly common case in per-trial counters — cost one byte.
//! [`zigzag_encode`] folds signed deltas into unsigned values so that
//! near-zero deltas of either sign stay in the one-byte range, which is what
//! makes delta-coding monotone columns (trial indices, seeds) pay off.
//!
//! Decoding is strict: a truncated varint, or an overlong encoding whose
//! tenth byte carries bits beyond the 64-bit range, is a loud error — never
//! a silently wrapped value. Std-only, like the sibling CRC32 and JSON
//! modules.

/// Longest legal encoding of a `u64`: nine full 7-bit groups plus one final
/// byte carrying the top single bit.
pub const MAX_VARINT_LEN: usize = 10;

/// Appends the LEB128 encoding of `value` to `out`.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one varint from `bytes` starting at `*pos`, advancing `*pos` past
/// it.
///
/// # Errors
///
/// A truncated encoding (continuation bit set on the final available byte)
/// or a value overflowing 64 bits is an error naming the offset — adversarial
/// input decodes loudly, never to a wrapped or partial value.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let start = *pos;
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(format!("truncated varint at byte {start}"));
        };
        *pos += 1;
        let group = u64::from(byte & 0x7F);
        // The tenth byte may only carry the top bit of a u64; anything more
        // is an overlong or overflowing encoding.
        if shift == 63 && group > 1 {
            return Err(format!("varint at byte {start} overflows 64 bits"));
        }
        if shift >= 64 {
            return Err(format!("varint at byte {start} is longer than 10 bytes"));
        }
        value |= group << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Maps a signed value to an unsigned one with small absolute values staying
/// small: 0, -1, 1, -2, … become 0, 1, 2, 3, …
#[must_use]
pub fn zigzag_encode(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[must_use]
pub fn zigzag_decode(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic generator for the property sweeps (the analysis
    /// crate deliberately has no dependencies, so no shared RNG to borrow).
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn boundary_values_round_trip_at_expected_lengths() {
        let cases: &[(u64, usize)] = &[
            (0, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::from(u32::MAX), 5),
            (u64::MAX, MAX_VARINT_LEN),
        ];
        for &(value, len) in cases {
            let mut buf = Vec::new();
            write_varint(&mut buf, value);
            assert_eq!(buf.len(), len, "length of {value}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Ok(value));
            assert_eq!(pos, buf.len(), "decode of {value} must consume exactly");
        }
    }

    #[test]
    fn random_values_round_trip_back_to_back() {
        let mut state = 0x5EED_CAFE_u64;
        let mut buf = Vec::new();
        let mut values = Vec::new();
        for i in 0..4_000u64 {
            // Mix magnitudes: raw 64-bit noise, small counters, and powers.
            let value = match i % 4 {
                0 => xorshift(&mut state),
                1 => xorshift(&mut state) % 100,
                2 => 1u64 << (xorshift(&mut state) % 64),
                _ => xorshift(&mut state) % 65_536,
            };
            values.push(value);
            write_varint(&mut buf, value);
        }
        let mut pos = 0;
        for &value in &values {
            assert_eq!(read_varint(&buf, &mut pos), Ok(value));
        }
        assert_eq!(pos, buf.len(), "stream fully consumed");
    }

    #[test]
    fn truncated_varints_error_loudly() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut pos = 0;
            let err = read_varint(&buf[..cut], &mut pos).unwrap_err();
            assert!(err.contains("truncated"), "cut at {cut}: {err}");
        }
        assert!(read_varint(&[], &mut 0).is_err());
    }

    #[test]
    fn overlong_and_overflowing_encodings_are_rejected() {
        // Eleven continuation bytes: longer than any u64 encoding.
        let overlong = [0x80u8; 11];
        assert!(read_varint(&overlong, &mut 0).is_err());
        // Ten bytes whose last carries more than the top bit of a u64.
        let mut overflow = vec![0xFFu8; 9];
        overflow.push(0x02);
        let err = read_varint(&overflow, &mut 0).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        // The canonical u64::MAX encoding is exactly at the limit.
        let mut max = vec![0xFFu8; 9];
        max.push(0x01);
        assert_eq!(read_varint(&max, &mut 0), Ok(u64::MAX));
    }

    /// On arbitrary bytes, from any starting offset, a read either spells a
    /// value out of 1..=10 consumed bytes — the last without a continuation
    /// bit, the value exactly what the groups spell, unwrapped — or errors.
    #[test]
    fn random_bytes_decode_within_ten_bytes_or_error() {
        let mut state = 0xB17E_5EED_u64;
        let (mut decoded, mut refused) = (0, 0);
        for _ in 0..20_000 {
            let len = (xorshift(&mut state) % 15) as usize;
            // Mostly continuation bytes, so that runs past ten are common.
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    let byte = xorshift(&mut state) as u8;
                    if xorshift(&mut state).is_multiple_of(5) {
                        byte & 0x7F
                    } else {
                        byte | 0x80
                    }
                })
                .collect();
            let start = (xorshift(&mut state) % (len as u64 + 1)) as usize;
            let mut pos = start;
            match read_varint(&bytes, &mut pos) {
                Ok(value) => {
                    let consumed = &bytes[start..pos];
                    assert!(
                        (1..=MAX_VARINT_LEN).contains(&consumed.len()),
                        "{bytes:02x?} from {start}: {} bytes",
                        consumed.len()
                    );
                    assert_eq!(consumed.last().map(|b| b & 0x80), Some(0));
                    let spelled = consumed
                        .iter()
                        .enumerate()
                        .fold(0u128, |v, (k, b)| v | u128::from(b & 0x7F) << (7 * k));
                    assert_eq!(spelled, u128::from(value), "{bytes:02x?} from {start}");
                    decoded += 1;
                }
                Err(err) => {
                    assert!(!err.is_empty());
                    refused += 1;
                }
            }
        }
        assert!(decoded > 2_000 && refused > 2_000, "{decoded} / {refused}");
    }

    #[test]
    fn zigzag_is_a_small_preserving_bijection() {
        let cases: &[(i64, u64)] = &[(0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4)];
        for &(signed, unsigned) in cases {
            assert_eq!(zigzag_encode(signed), unsigned);
            assert_eq!(zigzag_decode(unsigned), signed);
        }
        let mut state = 0xD1CE_u64;
        for _ in 0..2_000 {
            let value = xorshift(&mut state) as i64;
            assert_eq!(zigzag_decode(zigzag_encode(value)), value);
        }
        assert_eq!(zigzag_decode(zigzag_encode(i64::MIN)), i64::MIN);
        assert_eq!(zigzag_decode(zigzag_encode(i64::MAX)), i64::MAX);
    }
}
