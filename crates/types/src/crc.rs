//! CRC-16 block hashing (§4.3 "Data Block Hashing").
//!
//! The paper hashes 64-byte data blocks down to 16 bits with CRC-16 before
//! storing them in CETs and METs or shipping them in Inform-Epoch messages.
//! CRC-16 detects every error pattern of fewer than 16 erroneous bits within
//! a single block, and aliases with probability 1/65535 for wider patterns.
//!
//! We use the CRC-16/CCITT-FALSE parameterization (polynomial `0x1021`,
//! initial value `0xFFFF`), computed slice-by-8: eight compile-time tables
//! fold eight message bytes per step, and a tail shorter than eight bytes
//! goes through the first table one byte at a time. `TABLES[k][b]` is
//! the register contribution of byte `b` followed by `k` zero bytes, so a
//! step XORs the register into the step's first two bytes and XORs the
//! eight looked-up contributions together. A 64-byte block is hashed
//! straight from its eight little-endian words, without serializing it.

const POLY: u16 = 0x1021;
const INIT: u16 = 0xFFFF;

const fn build_tables() -> [[u16; 256]; 8] {
    let mut tables = [[0u16; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // One more zero byte after the contribution in `tables[k - 1]`.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev << 8) ^ tables[0][(prev >> 8) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Slice-by-8 tables (4 KiB): entry `[k][b]` is the CRC register after
/// byte `b` and then `k` zero bytes, starting from a zero register.
static TABLES: [[u16; 256]; 8] = build_tables();

/// Folds eight message bytes, packed little-endian into `word` (the first
/// byte in the low bits), into the register `crc`.
#[inline]
fn fold_le_word(crc: u16, word: u64) -> u16 {
    // The register's high byte meets the first message byte, its low byte
    // the second.
    let x = word ^ u64::from(crc.swap_bytes());
    let mut out = 0;
    for (i, table) in TABLES.iter().rev().enumerate() {
        out ^= table[(x >> (8 * i)) as usize & 0xFF];
    }
    out
}

/// Computes the CRC-16/CCITT-FALSE checksum of `data`.
///
/// ```rust
/// assert_eq!(dvmc_types::crc16(b"123456789"), 0x29B1);
/// ```
pub fn crc16(data: &[u8]) -> u16 {
    let mut chunks = data.chunks_exact(8);
    let mut crc = INIT;
    for chunk in &mut chunks {
        crc = fold_le_word(
            crc,
            u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")),
        );
    }
    for &b in chunks.remainder() {
        crc = (crc << 8) ^ TABLES[0][((crc >> 8) ^ u16::from(b)) as usize];
    }
    crc
}

/// The checksum of the bytes of `words`, each serialized little-endian —
/// [`crc16`] of that serialization without building it.
pub(crate) fn crc16_le_words(words: &[u64]) -> u16 {
    words.iter().fold(INIT, |crc, &w| fold_le_word(crc, w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit-at-a-time reference implementation (no table), for
    /// cross-checking the table-driven one.
    fn crc16_bitwise(data: &[u8]) -> u16 {
        let mut crc = INIT;
        for &b in data {
            crc ^= u16::from(b) << 8;
            for _ in 0..8 {
                crc = if crc & 0x8000 != 0 {
                    (crc << 1) ^ POLY
                } else {
                    crc << 1
                };
            }
        }
        crc
    }

    #[test]
    fn known_check_value() {
        // The standard check value for CRC-16/CCITT-FALSE.
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }

    #[test]
    fn known_answer_vectors() {
        // Fixed vectors, each confirmed by the independent bitwise
        // implementation so the table and the parameterization are both
        // pinned.
        let vectors: [&[u8]; 5] = [b"", b"A", b"abc", &[0x00; 64], &[0xFF; 64]];
        for v in vectors {
            assert_eq!(crc16(v), crc16_bitwise(v), "vector {v:?}");
        }
        assert_eq!(crc16(b"A"), crc16_bitwise(b"A"));
        assert_eq!(crc16(&[0u8; 64]), crc16_bitwise(&[0u8; 64]));
    }

    #[test]
    fn empty_is_init() {
        assert_eq!(crc16(&[]), 0xFFFF);
    }

    #[test]
    fn detects_single_bit_flips_in_block() {
        // The paper's guarantee: no false negatives for blocks with fewer
        // than 16 erroneous bits. Exhaustively confirm for 1-bit flips over
        // a 64-byte block.
        let base = [0xA5u8; 64];
        let h = crc16(&base);
        for bit in 0..(64 * 8) {
            let mut corrupted = base;
            corrupted[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc16(&corrupted), h, "missed flip at bit {bit}");
        }
    }

    proptest! {
        #[test]
        fn slice_by_8_matches_bitwise_at_every_length(
            data in proptest::collection::vec(any::<u8>(), 80),
        ) {
            // Lengths 0..=80 cover an empty message, tails of every length
            // with and without a whole 8-byte body, and several bodies.
            for len in 0..=data.len() {
                prop_assert_eq!(crc16(&data[..len]), crc16_bitwise(&data[..len]), "length {}", len);
            }
            // A block hashes its words directly, to the same checksum as
            // its serialized bytes.
            let mut words = [0u64; 8];
            for (w, bytes) in words.iter_mut().zip(data.chunks_exact(8)) {
                *w = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
            }
            let block = crate::Block::from_words(words);
            prop_assert_eq!(block.hash(), crc16(&block.to_bytes()));
            prop_assert_eq!(block.hash(), crc16_bitwise(&data[..64]));
        }

        #[test]
        fn detects_single_bit_flips_on_random_blocks(
            data in proptest::collection::vec(any::<u8>(), 64),
            bit in 0usize..512,
        ) {
            // The paper's no-false-negative guarantee for < 16 erroneous
            // bits, on arbitrary block contents rather than a fixed base.
            let mut corrupted = data.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            prop_assert_ne!(crc16(&corrupted), crc16(&data));
        }

        #[test]
        fn detects_double_bit_flips(data in proptest::collection::vec(any::<u8>(), 64),
                                    a in 0usize..512, b in 0usize..512) {
            prop_assume!(a != b);
            let mut corrupted = data.clone();
            corrupted[a / 8] ^= 1 << (a % 8);
            corrupted[b / 8] ^= 1 << (b % 8);
            prop_assert_ne!(crc16(&corrupted), crc16(&data));
        }

        #[test]
        fn deterministic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            prop_assert_eq!(crc16(&data), crc16(&data));
        }
    }
}
