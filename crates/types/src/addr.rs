//! Word- and block-granularity addresses plus the 64-byte data block.

use std::fmt;

/// Bytes per machine word (SPARC v9 is a 64-bit architecture).
pub const WORD_BYTES: usize = 8;
/// Bytes per coherence block (Table 6: 64-byte blocks).
pub const BLOCK_BYTES: usize = 64;
/// Words per coherence block.
pub const WORDS_PER_BLOCK: usize = BLOCK_BYTES / WORD_BYTES;

/// A word-granularity memory address (an index into the word-addressed
/// memory space, *not* a byte address).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WordAddr(pub u64);

impl WordAddr {
    /// The coherence block containing this word.
    #[inline]
    pub fn block(self) -> BlockAddr {
        BlockAddr(self.0 / WORDS_PER_BLOCK as u64)
    }

    /// The word's offset within its block (0..[`WORDS_PER_BLOCK`]).
    #[inline]
    pub fn offset(self) -> usize {
        (self.0 % WORDS_PER_BLOCK as u64) as usize
    }
}

impl fmt::Debug for WordAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{:#x}", self.0)
    }
}

impl fmt::Display for WordAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{:#x}", self.0)
    }
}

impl From<u64> for WordAddr {
    fn from(v: u64) -> Self {
        WordAddr(v)
    }
}

/// A block-granularity memory address (an index into the block-addressed
/// memory space).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// The first word of this block.
    #[inline]
    pub fn first_word(self) -> WordAddr {
        WordAddr(self.0 * WORDS_PER_BLOCK as u64)
    }

    /// The `offset`-th word of this block.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= WORDS_PER_BLOCK`.
    #[inline]
    pub fn word(self, offset: usize) -> WordAddr {
        assert!(offset < WORDS_PER_BLOCK, "word offset out of range");
        WordAddr(self.0 * WORDS_PER_BLOCK as u64 + offset as u64)
    }

    /// The home node of this block in an `n_nodes`-node system.
    ///
    /// Blocks are interleaved across memory controllers by block index,
    /// matching the distributed-memory configuration of Table 6. Node
    /// identifiers are 8-bit and `SystemConfig::validate` admits
    /// `1..=`[`NodeId::MAX_NODES`](crate::ids::NodeId::MAX_NODES) nodes;
    /// for counts beyond that contract the interleave factor is clamped to
    /// `MAX_NODES`, so the result is always a valid `NodeId` and never a
    /// silently truncated modulo (the former bare `as u8` cast would map
    /// block 256 of a 300-node system to node 0 while block 0 also lands
    /// on node 0 of a *different* slice).
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes == 0`.
    #[inline]
    pub fn home(self, n_nodes: usize) -> crate::ids::NodeId {
        assert!(n_nodes > 0, "system must have at least one node");
        let n = n_nodes.min(crate::ids::NodeId::MAX_NODES) as u64;
        crate::ids::NodeId((self.0 % n) as u8)
    }
}

impl fmt::Debug for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{:#x}", self.0)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{:#x}", self.0)
    }
}

impl From<u64> for BlockAddr {
    fn from(v: u64) -> Self {
        BlockAddr(v)
    }
}

/// A 64-byte coherence block, stored as eight 64-bit words.
///
/// Blocks carry *real* data throughout the simulator so that the CRC-16
/// hash checks performed by the coherence checker, the ECC model, and the
/// replay comparisons of the Uniprocessor Ordering checker are all
/// end-to-end meaningful.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Block {
    words: [u64; WORDS_PER_BLOCK],
}

impl Block {
    /// An all-zero block (the initial contents of memory).
    pub const ZERO: Block = Block {
        words: [0; WORDS_PER_BLOCK],
    };

    /// Creates a block from its eight words.
    pub fn from_words(words: [u64; WORDS_PER_BLOCK]) -> Self {
        Block { words }
    }

    /// Reads the word at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= WORDS_PER_BLOCK`.
    #[inline]
    pub fn word(&self, offset: usize) -> u64 {
        self.words[offset]
    }

    /// Writes the word at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= WORDS_PER_BLOCK`.
    #[inline]
    pub fn set_word(&mut self, offset: usize, value: u64) {
        self.words[offset] = value;
    }

    /// All eight words, in order.
    pub fn words(&self) -> &[u64; WORDS_PER_BLOCK] {
        &self.words
    }

    /// The block serialized to its 64 little-endian bytes, as hashed by the
    /// coherence checker.
    pub fn to_bytes(&self) -> [u8; BLOCK_BYTES] {
        let mut out = [0u8; BLOCK_BYTES];
        for (i, w) in self.words.iter().enumerate() {
            out[i * WORD_BYTES..(i + 1) * WORD_BYTES].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// CRC-16 hash of the block contents (§4.3 "Data Block Hashing"):
    /// the checksum of [`to_bytes`](Self::to_bytes), computed from the
    /// words directly.
    pub fn hash(&self) -> u16 {
        crate::crc::crc16_le_words(&self.words)
    }

    /// Flips bit `bit` (0..512) of the block, for fault injection.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 512`.
    pub fn flip_bit(&mut self, bit: usize) {
        assert!(bit < BLOCK_BYTES * 8, "bit index out of range");
        self.words[bit / 64] ^= 1u64 << (bit % 64);
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block[{:#x}", self.words[0])?;
        for w in &self.words[1..] {
            write!(f, ", {w:#x}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_block_roundtrip() {
        let w = WordAddr(8 * 5 + 3);
        assert_eq!(w.block(), BlockAddr(5));
        assert_eq!(w.offset(), 3);
        assert_eq!(w.block().word(w.offset()), w);
    }

    #[test]
    fn first_word_is_offset_zero() {
        let b = BlockAddr(17);
        assert_eq!(b.first_word().block(), b);
        assert_eq!(b.first_word().offset(), 0);
    }

    #[test]
    fn home_interleaves_blocks() {
        assert_eq!(BlockAddr(0).home(8).0, 0);
        assert_eq!(BlockAddr(9).home(8).0, 1);
        assert_eq!(BlockAddr(15).home(8).0, 7);
        assert_eq!(BlockAddr(123).home(1).0, 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn home_rejects_zero_nodes() {
        let _ = BlockAddr(0).home(0);
    }

    #[test]
    fn home_at_the_255_node_edge() {
        use crate::ids::NodeId;
        // The largest system the SystemConfig contract admits.
        assert_eq!(BlockAddr(254).home(NodeId::MAX_NODES), NodeId(254));
        assert_eq!(BlockAddr(255).home(NodeId::MAX_NODES), NodeId(0));
        assert_eq!(
            BlockAddr(u64::MAX).home(NodeId::MAX_NODES),
            NodeId((u64::MAX % 255) as u8)
        );
        // Out-of-contract counts clamp to MAX_NODES instead of letting the
        // `as u8` cast truncate the modulo result.
        assert_eq!(BlockAddr(300).home(1000), NodeId((300 % 255) as u8));
        assert_eq!(BlockAddr(511).home(512), NodeId((511 % 255) as u8));
    }

    #[test]
    fn block_word_accessors() {
        let mut b = Block::ZERO;
        b.set_word(7, 0xdead_beef);
        assert_eq!(b.word(7), 0xdead_beef);
        assert_eq!(b.word(0), 0);
    }

    #[test]
    fn block_bytes_little_endian() {
        let mut b = Block::ZERO;
        b.set_word(0, 0x0102_0304_0506_0708);
        let bytes = b.to_bytes();
        assert_eq!(bytes[0], 0x08);
        assert_eq!(bytes[7], 0x01);
        assert_eq!(bytes[8], 0);
    }

    #[test]
    fn flip_bit_changes_hash() {
        let mut b = Block::ZERO;
        let h0 = b.hash();
        b.flip_bit(100);
        assert_ne!(b.hash(), h0, "single-bit flip must change the CRC-16");
        assert_eq!(b.word(1), 1u64 << 36);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flip_bit_rejects_out_of_range() {
        let mut b = Block::ZERO;
        b.flip_bit(512);
    }
}
