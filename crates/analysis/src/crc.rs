//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the integrity
//! check the wire transport and checkpoint files use to tell corruption from
//! content.
//!
//! The workspace runs in environments where bytes get damaged on purpose
//! (the fault-injection layer flips bits mid-frame) and by accident (a torn
//! checkpoint append). A 4-byte CRC trailer turns both from "parse garbage
//! and hope" into a detected [`FrameCorrupt`-style] condition the recovery
//! machinery can act on. The sixteen tables of slicing-by-16 (the first is
//! the classic byte-indexed one) are computed at compile time (`const fn`),
//! so this stays std-only with zero startup cost.

/// The reflected IEEE CRC-32 polynomial.
const POLYNOMIAL: u32 = 0xEDB8_8320;

/// Input bytes folded into the state per step of [`Crc32::update`].
const SLICE: usize = 16;

/// Builds the slicing-by-16 tables at compile time. `TABLES[0]` is the
/// classic byte-indexed table; `TABLES[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, so sixteen input bytes fold into the state with sixteen
/// independent lookups instead of sixteen dependent ones.
const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut index = 0;
    while index < 256 {
        let mut crc = index as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLYNOMIAL
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][index] = crc;
        index += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut index = 0;
        while index < 256 {
            let prev = tables[k - 1][index];
            tables[k][index] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            index += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICE] = build_tables();

/// The 256-entry byte-indexed lookup table, baked in at compile time.
pub const CRC32_TABLE: [u32; 256] = build_tables()[0];

/// Computes the CRC-32 (IEEE) checksum of `bytes`.
///
/// # Examples
///
/// ```
/// use agreement_analysis::crc32;
///
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926); // the standard check value
/// assert_eq!(crc32(b""), 0);
/// ```
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// A streaming CRC-32 state, for checksumming data that arrives in pieces.
///
/// # Examples
///
/// ```
/// use agreement_analysis::{crc32, Crc32};
///
/// let mut crc = Crc32::new();
/// crc.update(b"123");
/// crc.update(b"456789");
/// assert_eq!(crc.finish(), crc32(b"123456789"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh checksum state.
    #[must_use]
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum, sixteen at a time (slicing-by-16)
    /// with a byte-wise tail.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(SLICE);
        for chunk in &mut chunks {
            // Byte `i` of the step is looked up in the table `SLICE - 1 - i`
            // zero bytes deep. The state folds into the first four bytes
            // only, so the other twelve lookups are combined first: they do
            // not wait for the previous step, and the chain from one state
            // to the next is four lookups long, not sixteen (≈ 2× the
            // throughput of one fold over all sixteen).
            let (head, tail) = chunk.split_at(4);
            let tail = tail
                .iter()
                .zip(TABLES[..SLICE - 4].iter().rev())
                .fold(0, |next, (&byte, table)| next ^ table[usize::from(byte)]);
            let head = crc ^ u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
            crc = head
                .to_le_bytes()
                .iter()
                .zip(TABLES[SLICE - 4..].iter().rev())
                .fold(tail, |next, (&byte, table)| next ^ table[usize::from(byte)]);
        }
        for &byte in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Finalizes and returns the checksum. The state may keep being fed; a
    /// later `finish` reflects everything fed so far.
    #[must_use]
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_standard_check_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The byte-at-a-time loop the sliced tables must agree with.
    fn bytewise(bytes: &[u8]) -> u32 {
        let crc = bytes.iter().fold(0xFFFF_FFFF_u32, |crc, &byte| {
            (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize]
        });
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_update_equals_the_bytewise_loop_at_every_length_and_split() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let data: Vec<u8> = (0..1024)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "length {len}");
        }
        let whole = bytewise(&data);
        for split in 0..=data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn single_bit_flips_are_detected() {
        let data = b"payload under test";
        let clean = crc32(data);
        let mut copy = data.to_vec();
        for bit in 0..copy.len() * 8 {
            copy[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&copy), clean, "flip of bit {bit} went undetected");
            copy[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
